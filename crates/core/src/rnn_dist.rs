//! Distributed RNN-Descent: the second graph-optimization mode, run over
//! the same row-batched YGM messaging as the descent itself.
//!
//! Each inner round is one synchronous pass:
//!
//! 1. **Distance prefetch** — for every owned vertex `v`, the flagged
//!    pairs of `v`'s row (see [`nnd::rnn::flagged_pairs`]) are shipped as
//!    ids-only rows `(v, a, [b...])` to `owner(a)` ([`TAG_RNN_REQ`]),
//!    which forwards `a`'s vector once per destination rank holding tails
//!    ([`TAG_RNN_VEC`]); the tail owner answers `owner(v)` with one
//!    batched distance row ([`TAG_RNN_DIST`]) — the Type 1 / Type 2+ /
//!    Type 3 three-hop chain of the construction protocol, reused.
//! 2. **Scan** — with every pair distance in hand, each rank runs the
//!    *pure* [`nnd::rnn::scan_row`] on its own rows. Occluded edges become
//!    redirected inserts shipped to the occluder's owner
//!    ([`TAG_RNN_INS`]).
//! 3. **Apply** — after the barrier, pending inserts are merged in the
//!    canonical `(dist, id)` order ([`nnd::rnn::apply_inserts`]), so the
//!    result is independent of message-arrival order.
//!
//! Outer-round boundaries (and the seed merge) ship plain reverse edges
//! ([`TAG_RNN_REV`]). Because every decision is a pure function of
//! canonical row state and the batched kernels are bit-identical to the
//! scalar reference, the final graph — and the per-round counters — are
//! bit-identical across reruns, rank counts, fault plans, and kernel
//! dispatch, and equal to the shared-memory [`nnd::rnn::rnn_optimize`].

use crate::engine::{batched, batched_weighted, charge_batch};
use crate::msgs::*;
use crate::partition::{Buckets, IdBuildHasher, Partitioner};
use dataset::batch::{BatchMetric, NormCache};
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use nnd::graph::{Edge, KnnGraph};
use nnd::rnn::{apply_inserts, flagged_pairs, scan_row, seed_row, RnnEdge, RnnParams, RnnStats};
use obs::RnnRoundReport;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use ygm::{Comm, World, WorldReport};

/// Per-rank mutable state of the distributed RNN pass. The three
/// per-vertex vectors are parallel to the rank's ascending `owned` list and
/// reached from a global id through `slots`
/// ([`Partitioner::slot_table`]).
struct RnnDistState {
    slots: Arc<Vec<u32>>,
    /// Working rows of the vertices this rank owns.
    rows: Vec<Vec<RnnEdge>>,
    /// Prefetched pair distances, per scanning vertex: `(a, b) -> theta`.
    pair_dists: Vec<HashMap<(PointId, PointId), f32, IdBuildHasher>>,
    /// Candidate edges (redirected inserts + reverse edges) awaiting the
    /// next apply step, per owned target.
    pending: Vec<Vec<(PointId, f32)>>,
}

impl RnnDistState {
    fn new(slots: Arc<Vec<u32>>, owned: usize) -> Self {
        RnnDistState {
            slots,
            rows: vec![Vec::new(); owned],
            pair_dists: vec![HashMap::default(); owned],
            pending: vec![Vec::new(); owned],
        }
    }

    #[inline]
    fn slot(&self, v: PointId) -> usize {
        self.slots[v as usize] as usize
    }

    /// Seed the owned rows from adjacency lists (canonicalized, flagged
    /// new, clamped to `r`) — identical to the shared-memory seeding.
    fn seed(&mut self, graph: &KnnGraph, owned: &[PointId], r: usize) {
        for &v in owned {
            let at = self.slot(v);
            self.rows[at] = seed_row(graph.neighbors(v), v, r);
        }
    }
}

/// Register the five RNN message handlers (tags 19–23).
fn register_rnn_handlers<P, M>(
    comm: &Comm,
    st: &Rc<RefCell<RnnDistState>>,
    set: &Arc<PointSet<P>>,
    metric: &M,
    cache: &Arc<NormCache>,
    part: Partitioner,
    dim: usize,
) where
    P: Point,
    M: BatchMetric<P>,
{
    // Pair-distance request: owner(a) groups the tails by owner and ships
    // a's vector (borrowed from the set) once per destination rank.
    {
        let set = Arc::clone(set);
        let mut buckets = Buckets::default();
        comm.register_named::<RnnReq, _>(
            TAG_RNN_REQ,
            tag_display(TAG_RNN_REQ),
            move |c, &mut (v, a, ref bs)| {
                // Rank-local tails travel as ordinary self-sends too
                // (traffic-matrix diagonal).
                part.group_into(bs, &mut buckets);
                for (dest, bs) in buckets.iter() {
                    // An `RnnVec`, field for field.
                    c.async_send(dest, TAG_RNN_VEC, &(v, a, bs, set.point(a)));
                }
            },
        );
    }
    // Vector forward: one batched 1xN evaluation, distances back to
    // owner(v).
    {
        let set = Arc::clone(set);
        let metric = metric.clone();
        let cache = Arc::clone(cache);
        let mut dbuf: Vec<f32> = Vec::new();
        let mut pairs: Vec<(PointId, f32)> = Vec::new();
        comm.register_named::<RnnVec<P>, _>(
            TAG_RNN_VEC,
            tag_display(TAG_RNN_VEC),
            move |c, msg| {
                metric.distance_one_to_many(&msg.vec, &set, &cache, &msg.bs, &mut dbuf);
                charge_batch(c, dim, msg.bs.len());
                c.trace_hist("kernel_batch_len", msg.bs.len() as u64);
                pairs.clear();
                pairs.extend(msg.bs.iter().copied().zip(dbuf.iter().copied()));
                c.async_send(
                    part.owner(msg.v),
                    TAG_RNN_DIST,
                    &(msg.v, msg.a, pairs.as_slice()),
                );
            },
        );
    }
    // Distance return: fill v's prefetch map.
    {
        let st = Rc::clone(st);
        comm.register_named::<RnnDist, _>(
            TAG_RNN_DIST,
            tag_display(TAG_RNN_DIST),
            move |_, &mut (v, a, ref pairs)| {
                let mut s = st.borrow_mut();
                let at = s.slot(v);
                let map = &mut s.pair_dists[at];
                for &(b, d) in pairs {
                    map.insert((a, b), d);
                }
            },
        );
    }
    // Redirected insert: queue for the next apply step.
    {
        let st = Rc::clone(st);
        comm.register_named::<RnnIns, _>(
            TAG_RNN_INS,
            tag_display(TAG_RNN_INS),
            move |_, &mut (u, ref cands)| {
                let mut s = st.borrow_mut();
                let at = s.slot(u);
                s.pending[at].extend_from_slice(cands);
            },
        );
    }
    // Reverse edge: same queue.
    {
        let st = Rc::clone(st);
        comm.register_named::<RnnRev, _>(
            TAG_RNN_REV,
            tag_display(TAG_RNN_REV),
            move |_, &mut (w, v, d)| {
                let mut s = st.borrow_mut();
                let at = s.slot(w);
                s.pending[at].push((v, d));
            },
        );
    }
}

/// Merge this rank's pending candidates into its rows (canonical order,
/// dedup, clamp to `r`); returns the local insert count.
fn apply_pending(st: &Rc<RefCell<RnnDistState>>, owned: &[PointId], r: usize) -> u64 {
    let mut s = st.borrow_mut();
    let RnnDistState { rows, pending, .. } = &mut *s;
    let mut added = 0;
    for ((&v, row), cands) in owned.iter().zip(rows).zip(pending) {
        if !cands.is_empty() {
            added += apply_inserts(row, std::mem::take(cands), v, r);
        }
    }
    added
}

/// One synchronous inner round (prefetch, scan, apply). Returns the
/// globally all-reduced counters, identical on every rank.
#[allow(clippy::too_many_arguments)]
fn inner_round(
    comm: &Comm,
    st: &Rc<RefCell<RnnDistState>>,
    owned: &[PointId],
    part: Partitioner,
    params: RnnParams,
    quota: usize,
    outer: u64,
    inner: u64,
) -> RnnRoundReport {
    // 1. Distance prefetch: flagged pairs grouped per (v, head).
    let reqs: Vec<RnnReq> = {
        let s = st.borrow();
        let mut reqs = Vec::new();
        for (&v, row) in owned.iter().zip(&s.rows) {
            let pairs = flagged_pairs(row);
            let mut h = 0;
            while h < pairs.len() {
                let head = pairs[h].0;
                let mut t = h;
                while t < pairs.len() && pairs[t].0 == head {
                    t += 1;
                }
                let tails = pairs[h..t].iter().map(|&(_, j)| row[j].id).collect();
                reqs.push((v, row[head].id, tails));
                h = t;
            }
        }
        reqs
    };
    let weights: Vec<usize> = reqs.iter().map(|r| r.2.len()).collect();
    let pairs_local: u64 = weights.iter().map(|&w| w as u64).sum();
    batched_weighted(comm, &weights, quota, |i| {
        comm.async_send(part.owner(reqs[i].1), TAG_RNN_REQ, &reqs[i]);
    });

    // 2. Scan against the prefetched distances; rows only shrink here
    // (inserts stay queued until step 3), so scan order is irrelevant.
    let mut pruned_local = 0u64;
    let ins_msgs: Vec<RnnIns> = {
        let mut s = st.borrow_mut();
        let RnnDistState {
            rows, pair_dists, ..
        } = &mut *s;
        let mut msgs: Vec<RnnIns> = Vec::new();
        for (row, dists) in rows.iter_mut().zip(pair_dists) {
            let out = scan_row(row, |i, j| dists[&(row[i].id, row[j].id)]);
            dists.clear();
            pruned_local += (row.len() - out.kept.len()) as u64;
            *row = out
                .kept
                .iter()
                .map(|&i| RnnEdge {
                    new: false,
                    ..row[i]
                })
                .collect();
            for (u, w, d) in out.inserts {
                match msgs.iter_mut().find(|(t, _)| *t == u) {
                    Some((_, g)) => g.push((w, d)),
                    None => msgs.push((u, vec![(w, d)])),
                }
            }
        }
        msgs
    };
    let iw: Vec<usize> = ins_msgs.iter().map(|m| m.1.len()).collect();
    batched_weighted(comm, &iw, quota, |i| {
        comm.async_send(part.owner(ins_msgs[i].0), TAG_RNN_INS, &ins_msgs[i]);
    });

    // 3. Apply, then all-reduce the round counters so every rank agrees
    // on convergence (pairs == 0) and on the reported stats.
    let added_local = apply_pending(st, owned, params.r);
    RnnRoundReport {
        outer,
        inner,
        pairs: comm.all_reduce_sum_u64(pairs_local),
        pruned: comm.all_reduce_sum_u64(pruned_local),
        added: comm.all_reduce_sum_u64(added_local),
    }
}

/// One reverse-edge exchange (the seed merge and every outer-round
/// boundary). Costs no distance evaluations — edge distances are already
/// known. Returns the global insert count.
fn reverse_round(
    comm: &Comm,
    st: &Rc<RefCell<RnnDistState>>,
    owned: &[PointId],
    part: Partitioner,
    params: RnnParams,
    quota: usize,
) -> u64 {
    let msgs: Vec<RnnRev> = {
        let s = st.borrow();
        owned
            .iter()
            .zip(&s.rows)
            .flat_map(|(&v, row)| row.iter().map(move |e| (e.id, v, e.dist)))
            .collect()
    };
    batched(comm, msgs.len(), quota, |i| {
        comm.async_send(part.owner(msgs[i].0), TAG_RNN_REV, &msgs[i]);
    });
    let added_local = apply_pending(st, owned, params.r);
    comm.all_reduce_sum_u64(added_local)
}

/// The full distributed round schedule over already-seeded state: seed
/// reverse merge, `t1` outer rounds of up to `t2` inner rounds (with the
/// convergence early-exit), reverse exchanges between outer rounds, final
/// `k0` cap. Returns this rank's final rows plus the *global* stats
/// (identical on every rank).
fn run_rnn_rounds(
    comm: &Comm,
    st: &Rc<RefCell<RnnDistState>>,
    owned: &[PointId],
    part: Partitioner,
    params: RnnParams,
    quota: usize,
) -> (Vec<(PointId, Vec<Edge>)>, RnnStats) {
    let mut stats = RnnStats::default();
    comm.trace_begin("rnn_seed");
    stats
        .reverse_added
        .push(reverse_round(comm, st, owned, part, params, quota));
    comm.trace_end("rnn_seed");
    for outer in 0..params.t1 {
        for inner in 0..params.t2 {
            comm.trace_begin_arg("rnn_round", (outer * params.t2 + inner) as u64);
            let round = inner_round(
                comm,
                st,
                owned,
                part,
                params,
                quota,
                outer as u64,
                inner as u64,
            );
            comm.trace_end("rnn_round");
            stats.dist_evals += round.pairs;
            let converged = round.pairs == 0;
            stats.rounds.push(round);
            if converged {
                break;
            }
        }
        if outer + 1 < params.t1 {
            stats
                .reverse_added
                .push(reverse_round(comm, st, owned, part, params, quota));
        }
    }
    let s = st.borrow();
    let rows = owned
        .iter()
        .zip(&s.rows)
        .map(|(&v, row)| {
            let edges = row.iter().take(params.k0).map(|e| (e.id, e.dist)).collect();
            (v, edges)
        })
        .collect();
    (rows, stats)
}

/// Run the distributed RNN-Descent optimization over an already-built
/// graph — the one distributed RNN entry (`dnnd-optimize --opt-mode rnn`;
/// a caller that also builds runs [`crate::build`] first, on the same world
/// if it likes): the graph is partitioned onto `world.n_ranks()` ranks,
/// optimized, and reassembled. Returns the graph, the pass's global counters
/// (bit-identical across rank counts) and the world's run summary.
pub fn rnn_optimize_distributed<P, M>(
    world: &World,
    base: &Arc<PointSet<P>>,
    metric: &M,
    graph: &KnnGraph,
    params: RnnParams,
) -> (KnnGraph, RnnStats, WorldReport<()>)
where
    P: Point,
    M: BatchMetric<P>,
{
    assert_eq!(graph.len(), base.len(), "graph and base set disagree on N");
    params
        .validate()
        .unwrap_or_else(|e| panic!("invalid RnnParams: {e}"));
    let graph = Arc::new(graph.clone());
    let n = graph.len();
    let slots = Arc::new(Partitioner::new(world.n_ranks()).slot_table(n));
    let report = world.run(|comm| {
        let part = Partitioner::new(comm.n_ranks());
        let owned = part.owned_ids(n, comm.rank());
        let dim = base.dim().max(1);
        let st = Rc::new(RefCell::new(RnnDistState::new(
            Arc::clone(&slots),
            owned.len(),
        )));
        st.borrow_mut().seed(&graph, &owned, params.r);
        let cache = Arc::new(metric.preprocess(base));
        charge_batch(comm, dim, owned.len());
        name_tags(comm);
        register_rnn_handlers(comm, &st, base, metric, &cache, part, dim);
        let quota = ((1u64 << 16) / comm.n_ranks() as u64).max(1) as usize;
        comm.trace_begin("rnn_optimize");
        let (rows, stats) = run_rnn_rounds(comm, &st, &owned, part, params, quota);
        comm.trace_end("rnn_optimize");
        (rows, stats)
    });
    let (results, summary) = report.split();
    let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut stats = RnnStats::default();
    for (rank_rows, rank_stats) in results {
        for (v, edges) in rank_rows {
            rows[v as usize] = edges;
        }
        stats = rank_stats;
    }
    // Connectivity repair runs on the assembled rows — a pure function of
    // the capped graph, identical to the shared-memory finish.
    stats.repaired = nnd::rnn::repair_connectivity(&mut rows, params.k0);
    (KnnGraph::from_rows(rows), stats, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::metric::L2;
    use dataset::synth::{gaussian_mixture, MixtureParams};
    use nnd::nndescent::{build as sm_build, NnDescentParams};
    use nnd::rnn::rnn_optimize;

    #[test]
    fn distributed_matches_shared_memory_exactly() {
        let base = Arc::new(gaussian_mixture(MixtureParams::embedding_like(350, 8), 13));
        let (g, _) = sm_build(&base, &L2, NnDescentParams::new(8).seed(4));
        let params = RnnParams::new(10).t1(2).t2(5);
        let (expect, sm_stats) = rnn_optimize(&g, &base, &L2, params);
        for ranks in [1, 2, 4] {
            let (got, stats, _) =
                rnn_optimize_distributed(&World::new(ranks), &base, &L2, &g, params);
            assert_eq!(got, expect, "graph diverged at {ranks} ranks");
            assert_eq!(stats, sm_stats, "stats diverged at {ranks} ranks");
        }
    }

    #[test]
    fn distributed_rerun_bit_identical_and_caps_degree() {
        let base = Arc::new(gaussian_mixture(MixtureParams::embedding_like(200, 6), 21));
        let (g, _) = sm_build(&base, &L2, NnDescentParams::new(6).seed(5));
        let params = RnnParams::new(8);
        let world = World::new(3);
        let (a, sa, run) = rnn_optimize_distributed(&world, &base, &L2, &g, params);
        let (b, sb, _) = rnn_optimize_distributed(&world, &base, &L2, &g, params);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(a.max_degree() <= 8);
        assert!(sa.dist_evals > 0);
        // The three-hop chain actually ran.
        assert!(run.tag(TAG_RNN_VEC).is_some_and(|s| s.count > 0));
    }
}
