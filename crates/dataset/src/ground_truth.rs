//! Exact k-nearest-neighbor ground truth by brute force.
//!
//! The paper's Section 5.2 validates DNND's graphs against a brute-force
//! all-pairs computation on the six small datasets; Section 5.3 uses the
//! published query ground truth. Here both come from this module:
//! [`brute_force_knng`] builds the exact k-NNG over a base set (excluding
//! self-edges, as a k-NNG has no self loops), and [`brute_force_queries`]
//! answers held-out queries.
//!
//! [`brute_force_sample`] gives the k-NNG's rows at a sample of ids only,
//! for a recall estimate on sets too large for all pairs.
//!
//! All three are one sweep: blocks of eight queries, each against columns
//! of [`BLOCK`] candidates through [`BatchMetric::distance_many_to_many`]
//! (members through [`BatchMetric::distance_members_to_many`], their norms
//! read from the set's cache), which the dot family and `L2` over bytes
//! answer reading each candidate row once per eight queries; the rest score
//! a pair at a time. The blocks are independent, so [`par::map_indexed`]
//! spreads them over the cores. Each query selects from its own row of
//! distances in id order, so the result is the one a one-query-at-a-time
//! scan on one core gives, bit for bit.

use crate::batch::BatchMetric;
use crate::kernel::LANES;
use crate::order::{offer_bounded, DistKey};
use crate::par;
use crate::point::Point;
use crate::set::{PointId, PointSet};
use std::collections::BinaryHeap;

/// Candidate-column width: big enough to amortize the per-call query
/// scalars, small enough that the distance buffer stays in cache.
const BLOCK: usize = 256;

/// Exact nearest neighbors: for query `q`, `ids[q]` are the `k` closest
/// base ids ascending by `(distance, id)`, and `dists[q]` the distances.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Neighbor ids per query, closest first.
    pub ids: Vec<Vec<PointId>>,
    /// Distances per query, matching `ids`.
    pub dists: Vec<Vec<f32>>,
}

impl GroundTruth {
    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no queries are covered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Neighbors of one query.
    pub fn neighbors(&self, q: usize) -> &[PointId] {
        &self.ids[q]
    }
}

/// The queries of one sweep: points outside the base set, or members of
/// it by id, each of which is never its own neighbor (the k-NNG case).
#[derive(Clone, Copy)]
enum Queries<'q, P> {
    Outside(&'q [P]),
    Members(&'q [PointId]),
}

/// Exact `k` nearest `base` points of each of `queries`: one block of
/// [`LANES`] queries per item of [`par::map_indexed`], each worker with its
/// own distance buffer.
fn sweep<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    metric: &M,
    queries: Queries<'_, P>,
    k: usize,
) -> GroundTruth {
    let cache = metric.preprocess(base);
    let all_ids: Vec<PointId> = (0..base.len() as PointId).collect();
    let len = match queries {
        Queries::Outside(qs) => qs.len(),
        Queries::Members(ids) => ids.len(),
    };
    let init = || Vec::<f32>::with_capacity(LANES * BLOCK);
    let blocks = par::map_indexed(len.div_ceil(LANES), 1, init, |dbuf, b| {
        let block = b * LANES..(b * LANES + LANES).min(len);
        // One max-heap of the k best per query, so the worst is peekable.
        let mut heaps = vec![BinaryHeap::<DistKey>::with_capacity(k); block.len()];
        for column in all_ids.chunks(BLOCK) {
            let own = match queries {
                Queries::Outside(qs) => {
                    metric.distance_many_to_many(&qs[block.clone()], base, &cache, column, dbuf);
                    None
                }
                Queries::Members(ids) => {
                    let heads = &ids[block.clone()];
                    metric.distance_members_to_many(heads, base, &cache, column, dbuf);
                    Some(heads)
                }
            };
            for (i, (heap, row)) in heaps.iter_mut().zip(dbuf.chunks(column.len())).enumerate() {
                let me = own.map(|heads| heads[i]);
                for (&id, &d) in column.iter().zip(row) {
                    if me != Some(id) {
                        offer_bounded(heap, k, DistKey::new(d, id));
                    }
                }
            }
        }
        let rows = heaps.into_iter().map(|heap| {
            let keys = heap.into_sorted_vec();
            let ids = keys.iter().map(|key| key.id()).collect();
            (ids, keys.iter().map(|key| key.dist()).collect())
        });
        rows.collect::<Vec<(Vec<PointId>, Vec<f32>)>>()
    });
    let (ids, dists) = blocks.into_iter().flatten().unzip();
    GroundTruth { ids, dists }
}

/// Exact k-NNG over `base` (no self edges). `O(N^2)` distances — the
/// baseline NN-Descent's `O(n^1.14)` empirical cost is measured against.
pub fn brute_force_knng<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    metric: &M,
    k: usize,
) -> GroundTruth {
    let all: Vec<PointId> = (0..base.len() as PointId).collect();
    brute_force_sample(base, metric, &all, k)
}

/// The rows of [`brute_force_knng`] at the ids in `sample`, in `sample`'s
/// order: each member's exact `k` nearest other members, equal ids and
/// distance bits. A sampled recall costs `sample.len() × N` distances
/// instead of `N²`.
pub fn brute_force_sample<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    metric: &M,
    sample: &[PointId],
    k: usize,
) -> GroundTruth {
    assert!(k < base.len(), "k must be smaller than the dataset");
    sweep(base, metric, Queries::Members(sample), k)
}

/// Exact k nearest base neighbors for each held-out query.
pub fn brute_force_queries<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    queries: &PointSet<P>,
    metric: &M,
    k: usize,
) -> GroundTruth {
    assert!(k <= base.len(), "k must not exceed the dataset size");
    sweep(base, metric, Queries::Outside(queries.points()), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::L2;
    use crate::synth::uniform;

    /// A tiny hand-checkable line of points at x = 0, 1, 2, 3, 4.
    fn line() -> PointSet<Vec<f32>> {
        PointSet::new((0..5).map(|i| vec![i as f32]).collect())
    }

    #[test]
    fn knng_on_a_line() {
        let gt = brute_force_knng(&line(), &L2, 2);
        // Point 0's nearest two are 1 then 2.
        assert_eq!(gt.neighbors(0), &[1, 2]);
        // Point 2's nearest are 1 and 3 (tie distance 1.0, id ascending).
        assert_eq!(gt.neighbors(2), &[1, 3]);
        assert_eq!(gt.dists[2], vec![1.0, 1.0]);
        // No self edges anywhere.
        for (q, ids) in gt.ids.iter().enumerate() {
            assert!(!ids.contains(&(q as PointId)));
        }
    }

    #[test]
    fn queries_on_a_line() {
        let base = line();
        let queries = PointSet::new(vec![vec![1.9f32], vec![-10.0]]);
        let gt = brute_force_queries(&base, &queries, &L2, 3);
        assert_eq!(gt.neighbors(0), &[2, 1, 3]);
        assert_eq!(gt.neighbors(1), &[0, 1, 2]);
        assert_eq!(gt.dists[1][0], 10.0);
    }

    #[test]
    fn results_sorted_ascending_by_distance() {
        let base = uniform(200, 4, 77);
        let gt = brute_force_knng(&base, &L2, 10);
        for d in &gt.dists {
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(d.len(), 10);
        }
    }

    #[test]
    fn query_membership_includes_identical_point() {
        // A query identical to a base point finds it at distance 0.
        let base = line();
        let queries = PointSet::new(vec![vec![3.0f32]]);
        let gt = brute_force_queries(&base, &queries, &L2, 1);
        assert_eq!(gt.neighbors(0), &[3]);
        assert_eq!(gt.dists[0], vec![0.0]);
    }

    #[test]
    fn deterministic_under_parallelism() {
        let base = uniform(300, 8, 5);
        let a = brute_force_knng(&base, &L2, 5);
        let b = brute_force_knng(&base, &L2, 5);
        assert_eq!(a, b);
    }

    /// Bit patterns of a truth's rows, so `-0.0` and NaN compare exactly.
    fn bits(gt: &GroundTruth) -> Vec<(Vec<PointId>, Vec<u32>)> {
        let rows = gt.ids.iter().zip(&gt.dists);
        rows.map(|(ids, d)| (ids.clone(), d.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn a_sample_is_the_knng_at_its_ids() {
        fn check<P: Point, M: BatchMetric<P>>(what: &str, base: &PointSet<P>, metric: &M) {
            let k = 10;
            let full = brute_force_knng(base, metric, k);
            let sample: Vec<PointId> = (0..1_000)
                .map(|i| (i * base.len() / 1_000) as PointId)
                .collect();
            let got = brute_force_sample(base, metric, &sample, k);
            let want = GroundTruth {
                ids: sample
                    .iter()
                    .map(|&v| full.ids[v as usize].clone())
                    .collect(),
                dists: sample
                    .iter()
                    .map(|&v| full.dists[v as usize].clone())
                    .collect(),
            };
            assert_eq!(bits(&got), bits(&want), "{what}");
        }
        check("deep f32", &crate::presets::deep1b_like(2_000, 3), &L2);
        check("bigann u8", &crate::presets::bigann_like(2_000, 3), &L2);
        // Any order, repeats and a short last block.
        let base = uniform(50, 4, 9);
        let full = brute_force_knng(&base, &L2, 3);
        let got = brute_force_sample(&base, &L2, &[7, 0, 7, 49, 12], 3);
        assert_eq!(got.ids, [7, 0, 7, 49, 12].map(|v| full.ids[v].clone()));
        assert!(brute_force_sample(&base, &L2, &[], 3).is_empty());
    }
}
