//! Distributed exact k-NN (brute force) — the ground-truth computation of
//! Section 5.2, as a distributed application.
//!
//! The paper validates DNND's graphs against brute force on the small
//! datasets; at larger scale even the *checker* needs distribution. The
//! standard scheme: query vertices ship their vectors to every rank in
//! **scan blocks** of [`BF_BLOCK`] queries; each rank answers a block with
//! the **partition-local top-k** of every member (one batched MxN
//! distance evaluation per block against its owned vertices, using the
//! rank's cached norms); `owner(v)` merges the per-partition lists into
//! the exact global top-k. Exactness holds because the global k nearest
//! are a subset of the union of per-partition k nearest.

use crate::msgs::name_tags;
use crate::partition::Partitioner;
use dataset::batch::{BatchMetric, NormCache};
use dataset::ground_truth::GroundTruth;
use dataset::order::{offer_bounded, sort_edges, DistKey};
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use ygm::{Comm, World};

/// Scan request: a block of query vertices + vectors, answered with the
/// local top-k of every member.
pub const TAG_BF_SCAN: u16 = 44;
/// Partial top-k reply (one per scan block).
pub const TAG_BF_PARTIAL: u16 = 45;

/// Queries per scan block: the `M` of the receiver's MxN batched
/// evaluation. Big enough to amortize per-message overhead, small enough
/// that the MxN distance buffer stays cache-resident.
pub const BF_BLOCK: usize = 32;

struct ScanBlock<P> {
    home: u32,
    qs: Vec<(PointId, P)>,
}

ygm::wire_struct!(ScanBlock<P> { home, qs });

type Partial = Vec<(PointId, Vec<(PointId, f32)>)>;

/// Exact k-NNG over `set` (no self edges), computed on `world.n_ranks()`
/// simulated ranks. Results are identical to
/// [`dataset::ground_truth::brute_force_knng`].
pub fn distributed_ground_truth<P, M>(
    world: &World,
    set: &Arc<PointSet<P>>,
    metric: &M,
    k: usize,
) -> GroundTruth
where
    P: Point,
    M: BatchMetric<P>,
{
    assert!(k < set.len(), "k must be smaller than the dataset");
    let report = world.run(|comm| rank_bf(comm, Arc::clone(set), metric.clone(), k));
    let mut ids: Vec<Vec<PointId>> = vec![Vec::new(); set.len()];
    let mut dists: Vec<Vec<f32>> = vec![Vec::new(); set.len()];
    for rank_rows in &report.results {
        for (v, pairs) in rank_rows {
            ids[*v as usize] = pairs.iter().map(|&(id, _)| id).collect();
            dists[*v as usize] = pairs.iter().map(|&(_, d)| d).collect();
        }
    }
    GroundTruth { ids, dists }
}

/// Per-partition top-k for every query of a scan block, evaluated as
/// MxN batched distance calls over `owned` in cache-sized column chunks.
/// A query that appears among `owned` (the k-NNG case, where every query
/// is a base vertex) is excluded from its own candidate scan.
fn local_topk_block<P: Point, M: BatchMetric<P>>(
    set: &PointSet<P>,
    metric: &M,
    cache: &NormCache,
    owned: &[PointId],
    qs: &[(PointId, P)],
    k: usize,
) -> Partial {
    const COLS: usize = 256;
    let qvecs: Vec<P> = qs.iter().map(|(_, q)| q.clone()).collect();
    let mut heaps: Vec<BinaryHeap<DistKey>> =
        (qs.iter().map(|_| BinaryHeap::with_capacity(k))).collect();
    let mut dbuf: Vec<f32> = Vec::new();
    for chunk in owned.chunks(COLS) {
        metric.distance_many_to_many(&qvecs, set, cache, chunk, &mut dbuf);
        for (qi, ((qv, _), heap)) in qs.iter().zip(heaps.iter_mut()).enumerate() {
            let row = &dbuf[qi * chunk.len()..(qi + 1) * chunk.len()];
            for (&u, &d) in chunk.iter().zip(row) {
                if u != *qv {
                    offer_bounded(heap, k, DistKey::new(d, u));
                }
            }
        }
    }
    qs.iter()
        .zip(heaps)
        .map(|(&(qv, _), heap)| {
            let keys = heap.into_sorted_vec();
            (qv, keys.iter().map(|key| (key.id(), key.dist())).collect())
        })
        .collect()
}

fn rank_bf<P, M>(
    comm: &Comm,
    set: Arc<PointSet<P>>,
    metric: M,
    k: usize,
) -> Vec<(PointId, Vec<(PointId, f32)>)>
where
    P: Point,
    M: BatchMetric<P>,
{
    let part = Partitioner::new(comm.n_ranks());
    let owned = part.owned_ids(set.len(), comm.rank());
    let dim = set.dim().max(1);
    // Norms once per rank, amortized across every scan block it answers.
    let cache = Arc::new(metric.preprocess(&set));
    comm.charge_compute(comm.cost().distance_cost_ns(dim) * owned.len() as u64);
    name_tags(comm);
    comm.name_tag(TAG_BF_SCAN, "bf_scan");
    comm.name_tag(TAG_BF_PARTIAL, "bf_partial");

    // Merged partial results per owned query vertex.
    type Merged = HashMap<PointId, Vec<(PointId, f32)>>;
    let merged: Rc<RefCell<Merged>> = Rc::new(RefCell::new(HashMap::new()));

    {
        let set = Arc::clone(&set);
        let metric = metric.clone();
        let cache = Arc::clone(&cache);
        let owned = owned.clone();
        comm.register::<ScanBlock<P>, _>(TAG_BF_SCAN, move |c, msg| {
            let local = local_topk_block(&set, &metric, &cache, &owned, &msg.qs, k);
            // The MxN scan over the block is the dominant compute.
            c.charge_compute(c.cost().distance_cost_ns(dim) * (owned.len() * msg.qs.len()) as u64);
            c.trace_hist("kernel_batch_len", (owned.len() * msg.qs.len()) as u64);
            c.async_send(msg.home as usize, TAG_BF_PARTIAL, &local);
        });
    }
    {
        let merged = Rc::clone(&merged);
        comm.register::<Partial, _>(TAG_BF_PARTIAL, move |_, partial| {
            let mut m = merged.borrow_mut();
            for (v, mut pairs) in partial {
                m.entry(v).or_default().append(&mut pairs);
            }
        });
    }

    // Ship owned query vectors to every rank in BF_BLOCK-query scan
    // blocks, quota-limited so buffers stay bounded (same Section 4.4
    // discipline as construction).
    let quota = 1usize << 12;
    let per_window = (quota / comm.n_ranks().max(1) / BF_BLOCK).max(1);
    let blocks: Vec<&[PointId]> = owned.chunks(BF_BLOCK).collect();
    let mut idx = 0;
    loop {
        let end = (idx + per_window).min(blocks.len());
        for block in &blocks[idx..end] {
            let qs: Vec<(PointId, P)> = block.iter().map(|&v| (v, set.point(v).clone())).collect();
            for dest in 0..comm.n_ranks() {
                // A `ScanBlock`, field for field.
                comm.async_send(dest, TAG_BF_SCAN, &(comm.rank() as u32, qs.as_slice()));
            }
        }
        idx = end;
        comm.barrier();
        if comm.all_reduce_sum_u64((blocks.len() - idx) as u64) == 0 {
            break;
        }
    }

    // Merge the per-rank partial lists into exact global top-k.
    let mut merged = merged.borrow_mut();
    owned
        .iter()
        .map(|&v| {
            let mut pairs = merged.remove(&v).unwrap_or_default();
            sort_edges(&mut pairs);
            pairs.truncate(k);
            (v, pairs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::ground_truth::brute_force_knng;
    use dataset::metric::{Jaccard, L2};
    use dataset::synth::uniform;

    #[test]
    fn matches_shared_memory_brute_force_exactly() {
        let set = Arc::new(uniform(200, 6, 3));
        let truth = brute_force_knng(&set, &L2, 7);
        for ranks in [1usize, 3, 5] {
            let dist = distributed_ground_truth(&World::new(ranks), &set, &L2, 7);
            assert_eq!(dist, truth, "ranks={ranks} diverged");
        }
    }

    #[test]
    fn exact_on_sparse_jaccard() {
        let set = Arc::new(dataset::presets::kosarak_like(120, 5));
        let truth = brute_force_knng(&set, &Jaccard, 4);
        let dist = distributed_ground_truth(&World::new(4), &set, &Jaccard, 4);
        assert_eq!(dist, truth);
    }

    #[test]
    fn no_self_neighbors() {
        let set = Arc::new(uniform(80, 3, 9));
        let gt = distributed_ground_truth(&World::new(3), &set, &L2, 5);
        for (v, ids) in gt.ids.iter().enumerate() {
            assert_eq!(ids.len(), 5);
            assert!(!ids.contains(&(v as PointId)));
        }
    }

    #[test]
    #[should_panic(expected = "k must be smaller")]
    fn oversized_k_rejected() {
        let set = Arc::new(uniform(5, 2, 1));
        let _ = distributed_ground_truth(&World::new(2), &set, &L2, 5);
    }
}
