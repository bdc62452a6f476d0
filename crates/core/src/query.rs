//! Distributed ANN search over a partitioned k-NNG.
//!
//! The paper queries its graphs with a *shared-memory* program after
//! gathering them (Section 5.3.1); its conclusion points at "massive-scale
//! NNG frameworks" where that gather is impossible. This module provides
//! that next step: the graph and dataset stay hash-partitioned exactly as
//! DNND built them, and queries run as asynchronous RPC cascades:
//!
//! * each query is *homed* on one rank (round-robin), which owns its
//!   result heap, frontier, and visited set;
//! * expanding a frontier vertex `v` sends an `Expand` to `owner(v)`,
//!   which replies with `G[v]`'s ids;
//! * scoring candidates sends the query vector **once per destination
//!   rank** with the whole list of that rank's candidates; the owner
//!   computes the distances locally as one batched 1xN kernel call
//!   against its cached norms (owner-computes, exactly like the Type 2+
//!   rows of construction) and replies with the scored list;
//! * the home rank advances the standard Section 3.3 greedy loop with the
//!   `epsilon` relaxation; a global all-reduce detects when every query
//!   has converged.
//!
//! The engine processes all queries concurrently, so per-round traffic
//! aggregates into large buffered messages — the same batching philosophy
//! as construction.
//!
//! ## Determinism contract
//!
//! The greedy loop is **schedule-independent**: scored replies arriving
//! within a round are buffered and folded at the round boundary in the
//! total `(distance, id)` order, so heap and frontier contents are a pure
//! function of the delivered message *multiset* — never of thread timing,
//! rank count, or batching. Combined with the bit-identical batched
//! kernels, the result ids for a given `(graph, params, seed)` are
//! identical across reruns and across `n_ranks`. The online serving layer
//! (`crates/serve`) builds its replay guarantee on this.
//!
//! [`SearchEngine`] is the reusable comm-level entry point: register once
//! inside a running SPMD program, then run any number of query batches
//! (the serving frontend dispatches one micro-batch per slot).
//! [`distributed_search_batch`] wraps it for the one-shot offline case.

use crate::partition::{Buckets, IdBuildHasher, Partitioner};
use dataset::batch::BatchMetric;
use dataset::order::OrdF32;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use nnd::graph::KnnGraph;
use nnd::search::EntrySampler;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use ygm::{Comm, World};

/// Tags for the query protocol (disjoint from the construction tags).
pub const TAG_EXPAND: u16 = 30;
/// Neighbor-list reply to an `Expand`.
pub const TAG_NEIGHBORS: u16 = 31;
/// Distance-scoring request carrying the query vector.
pub const TAG_SCORE: u16 = 32;
/// Scored distance reply.
pub const TAG_SCORED: u16 = 33;

/// Parameters for distributed search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSearchParams {
    /// Neighbors to return per query.
    pub l: usize,
    /// Frontier relaxation (Section 3.3 / PyNNDescent `epsilon`).
    pub epsilon: f32,
    /// Random entry points per query (0 = default to `l`).
    pub entry_candidates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DistSearchParams {
    /// Defaults: pure greedy, `l` entries.
    pub fn new(l: usize) -> Self {
        assert!(
            l >= 1,
            "DistSearchParams: l (results per query) must be >= 1"
        );
        DistSearchParams {
            l,
            epsilon: 0.0,
            entry_candidates: 0,
            seed: 0xD15C,
        }
    }

    /// Set epsilon. Rejects NaN and negative values — both would silently
    /// corrupt the frontier-relaxation comparison.
    pub fn epsilon(mut self, e: f32) -> Self {
        assert!(
            e.is_finite() && e >= 0.0,
            "DistSearchParams: epsilon must be finite and >= 0 (got {e})"
        );
        self.epsilon = e;
        self
    }

    /// Set the number of random entry points (>= 1; the default of `l`
    /// entries is selected by not calling this).
    pub fn entry_candidates(mut self, n: usize) -> Self {
        assert!(
            n >= 1,
            "DistSearchParams: entry_candidates must be >= 1 \
             (omit the call to default to l entries)"
        );
        self.entry_candidates = n;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Check the invariants the builders enforce (useful when fields were
    /// filled directly, e.g. from CLI flags).
    pub fn validate(&self) -> Result<(), String> {
        if self.l < 1 {
            return Err("l (results per query) must be >= 1".into());
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(format!(
                "epsilon must be finite and >= 0 (got {})",
                self.epsilon
            ));
        }
        Ok(())
    }
}

impl Default for DistSearchParams {
    /// `l = 10`, pure greedy — the paper's common query shape.
    fn default() -> Self {
        DistSearchParams::new(10)
    }
}

/// Allow-list bitset over base point ids, used for *filter-pushed*
/// distributed search (the vector-DB layer compiles metadata predicates
/// and tombstone sets into one of these per query).
///
/// The mask lives entirely at the query's home rank: it gates admission
/// into the best-`l` heap inside [`QueryState::fold_round`], while the
/// traversal itself — seeding, scoring, frontier relaxation — still sees
/// every vertex. Disallowed vertices therefore keep acting as navigation
/// waypoints and keep being counted in `dist_evals`, so shed/degrade
/// decisions and eval accounting stay exact: this is pre-filtering pushed
/// into the beam, never post-filtering of a finished result list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMask {
    bits: Vec<u64>,
    n: usize,
    allowed: usize,
}

impl IdMask {
    /// A mask over `n` ids with nothing allowed yet.
    pub fn none(n: usize) -> IdMask {
        IdMask {
            bits: vec![0u64; n.div_ceil(64)],
            n,
            allowed: 0,
        }
    }

    /// A mask over `n` ids with everything allowed.
    pub fn all(n: usize) -> IdMask {
        let mut m = IdMask::none(n);
        for id in 0..n {
            m.allow(id as PointId);
        }
        m
    }

    /// Build from a predicate evaluated on every id in `0..n`.
    pub fn from_fn(n: usize, mut pred: impl FnMut(PointId) -> bool) -> IdMask {
        let mut m = IdMask::none(n);
        for id in 0..n {
            if pred(id as PointId) {
                m.allow(id as PointId);
            }
        }
        m
    }

    /// Allow `id`.
    pub fn allow(&mut self, id: PointId) {
        let i = id as usize;
        assert!(i < self.n, "IdMask::allow: id {id} out of range {}", self.n);
        let (w, b) = (i / 64, i % 64);
        if self.bits[w] & (1u64 << b) == 0 {
            self.bits[w] |= 1u64 << b;
            self.allowed += 1;
        }
    }

    /// Disallow `id` (tombstones call this).
    pub fn deny(&mut self, id: PointId) {
        let i = id as usize;
        assert!(i < self.n, "IdMask::deny: id {id} out of range {}", self.n);
        let (w, b) = (i / 64, i % 64);
        if self.bits[w] & (1u64 << b) != 0 {
            self.bits[w] &= !(1u64 << b);
            self.allowed -= 1;
        }
    }

    /// Is `id` allowed? Ids beyond the mask's range are disallowed.
    pub fn allows(&self, id: PointId) -> bool {
        let i = id as usize;
        i < self.n && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of allowed ids.
    pub fn allowed(&self) -> usize {
        self.allowed
    }

    /// Total ids the mask ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no id is allowed.
    pub fn is_empty(&self) -> bool {
        self.allowed == 0
    }

    /// Fraction of ids allowed, in `[0, 1]` (1.0 for an empty range).
    pub fn selectivity(&self) -> f64 {
        if self.n == 0 {
            1.0
        } else {
            self.allowed as f64 / self.n as f64
        }
    }

    /// Intersect with `other` in place (predicate mask ∧ live-set mask).
    pub fn intersect(&mut self, other: &IdMask) {
        assert_eq!(self.n, other.n, "IdMask::intersect: range mismatch");
        self.allowed = 0;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
            self.allowed += a.count_ones() as usize;
        }
    }
}

/// Expand request: `(query id, home rank, vertex)`.
type Expand = (u32, u32, PointId);
/// Neighbor reply: `(query id, vertex, neighbor ids)`.
type NeighborsMsg = (u32, PointId, Vec<PointId>);
/// Scored reply: `(query id, [(candidate, distance)...])`.
type Scored = (u32, Vec<(PointId, f32)>);

/// Score request: the query vector travels once to the owner of every
/// candidate in `ws`, which answers with one batched evaluation. Sent as
/// the tuple of borrows `(qid, home, &ws[..], &query)` — the same bytes.
struct Score<P> {
    qid: u32,
    home: u32,
    ws: Vec<PointId>,
    query: P,
}

ygm::wire_struct!(Score<P> { qid, home, ws, query });

/// Per-query search cost, counted home-rank-side where the greedy loop
/// runs. All three counters are pure functions of the `(graph, params,
/// seed key)` tuple — the visited-set admission and the round-boundary
/// fold are schedule-independent (see the determinism contract above), and
/// owner-grouping only changes how the candidate list is *split* across
/// Score messages, never its total length — so profiles are bit-identical
/// across reruns and rank counts. The serving layer's per-query forensics
/// records build on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Frontier vertices expanded (Expand requests issued).
    pub expansions: u64,
    /// Candidate distances requested (sum of Score batch lengths,
    /// seed entries included).
    pub dist_evals: u64,
    /// Greedy rounds this query stayed live.
    pub rounds: u64,
}

ygm::wire_struct!(QueryProfile {
    expansions,
    dist_evals,
    rounds
});

/// Per-query state at its home rank.
struct QueryState {
    /// Best-`l` max-heap.
    best: BinaryHeap<(OrdF32, PointId)>,
    /// Frontier min-heap of scored, unexpanded vertices.
    frontier: BinaryHeap<Reverse<(OrdF32, PointId)>>,
    /// Only ever inserted into, never iterated: no order can leak out of
    /// the cheap hasher.
    visited: HashSet<PointId, IdBuildHasher>,
    /// Scored replies of the current round, folded in canonical order at
    /// the round boundary (the determinism contract).
    round_scored: Vec<(PointId, f32)>,
    /// Filter-pushed allow-list: gates best-heap admission only (see
    /// [`IdMask`]). `None` is the unfiltered legacy path, byte-identical
    /// to pre-filter behavior.
    mask: Option<Arc<IdMask>>,
    done: bool,
    profile: QueryProfile,
}

impl QueryState {
    fn new(mask: Option<Arc<IdMask>>) -> Self {
        QueryState {
            best: BinaryHeap::new(),
            frontier: BinaryHeap::new(),
            visited: HashSet::default(),
            round_scored: Vec::new(),
            mask,
            done: false,
            profile: QueryProfile::default(),
        }
    }

    fn d_max(&self, l: usize) -> f32 {
        if self.best.len() < l {
            f32::INFINITY
        } else {
            self.best.peek().map_or(f32::INFINITY, |&(OrdF32(m), _)| m)
        }
    }

    /// Fold this round's scored replies in the total `(distance, id)`
    /// order: first settle the best-`l` heap, then admit frontier entries
    /// against the *settled* bound — a pure function of the reply multiset.
    fn fold_round(&mut self, l: usize, relax: f32) {
        if self.round_scored.is_empty() {
            return;
        }
        // Taken out so `self` can be updated while walking it; put back
        // (empty, capacity kept) at the end.
        let mut scored = std::mem::take(&mut self.round_scored);
        scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for &(w, d) in &scored {
            if let Some(mask) = &self.mask {
                if !mask.allows(w) {
                    continue; // navigation-only vertex: scored, never returned
                }
            }
            if self.best.len() < l || d < self.d_max(l) {
                self.best.push((OrdF32(d), w));
                if self.best.len() > l {
                    self.best.pop();
                }
            }
        }
        let bound = relax * self.d_max(l);
        for &(w, d) in &scored {
            if d < bound {
                self.frontier.push(Reverse((OrdF32(d), w)));
            }
        }
        scored.clear();
        self.round_scored = scored;
    }
}

struct EngineState<P> {
    /// Queries of the batch currently in flight (empty between batches).
    queries: Vec<QueryState>,
    /// The in-flight batch's query vectors, indexed like `queries` (the
    /// Neighbors handler needs them for the Score fan-out).
    vectors: Vec<P>,
    /// Entry-point sampler over the base ids, reused by every query.
    sampler: EntrySampler,
}

/// Per-rank result rows: `(global query index, neighbor ids)`.
pub type RankQueryRows = Vec<(usize, Vec<PointId>)>;

/// Reusable comm-level distributed search: registers the query protocol
/// handlers once, then answers any number of batches via
/// [`SearchEngine::run_batch`] — each one a full Expand/Score cascade with
/// its own convergence loop. This is the entry point the online serving
/// frontend flushes its micro-batches into; [`distributed_search_batch`]
/// uses it for the offline all-at-once case.
///
/// SPMD contract: construct and call on every rank at the same points.
/// `run_batch` participates in barriers/all-reduces even with zero local
/// queries.
pub struct SearchEngine<P, M> {
    base: Arc<PointSet<P>>,
    metric: M,
    st: Rc<RefCell<EngineState<P>>>,
}

impl<P, M> SearchEngine<P, M>
where
    P: Point,
    M: BatchMetric<P>,
{
    /// Register the query protocol on `comm` and preprocess the metric's
    /// norm cache (charged to the virtual clock once per rank).
    pub fn new(
        comm: &Comm,
        base: Arc<PointSet<P>>,
        graph: Arc<KnnGraph>,
        metric: M,
    ) -> SearchEngine<P, M> {
        assert_eq!(graph.len(), base.len(), "graph and base disagree on N");
        let dim = base.dim().max(1);
        let n = base.len();
        let cache = Arc::new(metric.preprocess(&base));
        comm.charge_compute(comm.cost().distance_cost_ns(dim) * (n / comm.n_ranks().max(1)) as u64);
        let st: Rc<RefCell<EngineState<P>>> = Rc::new(RefCell::new(EngineState {
            queries: Vec::new(),
            vectors: Vec::new(),
            sampler: EntrySampler::new(n),
        }));

        {
            // Expand: we own vertex v; reply with its neighbor ids.
            let graph = Arc::clone(&graph);
            let mut ids: Vec<PointId> = Vec::new();
            comm.register_named::<Expand, _>(
                TAG_EXPAND,
                "q_expand",
                move |c, &mut (qid, home, v)| {
                    ids.clear();
                    ids.extend(graph.neighbors(v).iter().map(|&(id, _)| id));
                    c.async_send(home as usize, TAG_NEIGHBORS, &(qid, v, ids.as_slice()));
                },
            );
        }
        {
            // Score: we own every candidate in ws; one batched evaluation,
            // one scored-list reply.
            let base = Arc::clone(&base);
            let metric = metric.clone();
            let cache = Arc::clone(&cache);
            let mut dbuf: Vec<f32> = Vec::new();
            let mut scored: Vec<(PointId, f32)> = Vec::new();
            comm.register_named::<Score<P>, _>(TAG_SCORE, "q_score", move |c, msg| {
                metric.distance_one_to_many(&msg.query, &base, &cache, &msg.ws, &mut dbuf);
                c.charge_compute(c.cost().distance_cost_ns(dim) * msg.ws.len() as u64);
                c.trace_hist("kernel_batch_len", msg.ws.len() as u64);
                scored.clear();
                scored.extend(msg.ws.iter().copied().zip(dbuf.iter().copied()));
                c.async_send(msg.home as usize, TAG_SCORED, &(msg.qid, scored.as_slice()));
            });
        }
        {
            // Neighbors arrived at the home rank: request scores for
            // unvisited candidates, shipping the query vector (borrowed
            // from the batch) once per destination rank.
            let st = Rc::clone(&st);
            let mut buckets = Buckets::default();
            comm.register_named::<NeighborsMsg, _>(
                TAG_NEIGHBORS,
                "q_neighbors",
                move |c, (qid, _v, ids)| {
                    let qid = *qid;
                    let mut s = st.borrow_mut();
                    let EngineState {
                        queries, vectors, ..
                    } = &mut *s;
                    let home = c.rank() as u32;
                    let part = Partitioner::new(c.n_ranks());
                    let q = &mut queries[qid as usize];
                    ids.retain(|&w| q.visited.insert(w));
                    q.profile.dist_evals += ids.len() as u64;
                    part.group_into(ids, &mut buckets);
                    for (dest, ws) in buckets.iter() {
                        c.async_send(dest, TAG_SCORE, &(qid, home, ws, &vectors[qid as usize]));
                    }
                },
            );
        }
        {
            // Scored distances arrived: buffer for the round-boundary fold.
            let st = Rc::clone(&st);
            comm.register_named::<Scored, _>(TAG_SCORED, "q_scored", move |_, (qid, scored)| {
                let mut s = st.borrow_mut();
                s.queries[*qid as usize]
                    .round_scored
                    .extend_from_slice(scored);
            });
        }

        SearchEngine { base, metric, st }
    }

    /// Answer one batch of locally-homed queries. `requests` pairs a
    /// per-query seed key (any stable id — the offline path uses the global
    /// query index, serving uses the arrival index) with the query vector.
    /// Returns, in request order, the best-`params.l` ids and a
    /// [`QueryProfile`] (expansions, distance evals, rounds) per request;
    /// both are bit-identical across reruns and rank counts for a given
    /// `(graph, params, seed key)`.
    ///
    /// Filter push-down: `masks[i]`, when present, is the allow-list for
    /// `requests[i]` — evaluated at the home rank inside the beam
    /// expansion (best-heap admission), never as a post-filter. An empty
    /// `masks` slice means no query is filtered; otherwise it must be
    /// request-aligned. A query whose mask admits fewer than `params.l`
    /// reachable ids returns fewer than `l` results (and an all-deny mask
    /// returns none).
    ///
    /// Collective: all ranks must call together (possibly with empty
    /// `requests`).
    pub fn run_batch(
        &self,
        comm: &Comm,
        requests: &[(u64, P)],
        masks: &[Option<Arc<IdMask>>],
        params: DistSearchParams,
    ) -> (Vec<Vec<PointId>>, Vec<QueryProfile>) {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid DistSearchParams: {e}"));
        assert!(
            masks.is_empty() || masks.len() == requests.len(),
            "run_batch: masks must be empty or request-aligned \
             ({} masks, {} requests)",
            masks.len(),
            requests.len()
        );
        let part = Partitioner::new(comm.n_ranks());
        let me = comm.rank() as u32;
        let n = self.base.len();
        let relax = 1.0 + params.epsilon;
        assert!(params.l <= n, "l exceeds dataset size");

        {
            let mut s = self.st.borrow_mut();
            s.queries = requests
                .iter()
                .enumerate()
                .map(|(i, _)| QueryState::new(masks.get(i).cloned().flatten()))
                .collect();
            s.vectors = requests.iter().map(|(_, q)| q.clone()).collect();
        }

        // --- seed entry points -------------------------------------------
        comm.trace_begin("query_seed");
        {
            let mut s = self.st.borrow_mut();
            let EngineState {
                queries, sampler, ..
            } = &mut *s;
            let starts = params.l.max(params.entry_candidates).min(n);
            let mut fresh: Vec<PointId> = Vec::with_capacity(starts);
            let mut buckets = Buckets::default();
            for (qid, (key, query)) in requests.iter().enumerate() {
                let q = &mut queries[qid];
                let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ (key << 16));
                sampler.draw(&mut rng, starts, &mut fresh);
                q.visited.extend(&fresh);
                q.profile.dist_evals += fresh.len() as u64;
                part.group_into(&fresh, &mut buckets);
                for (dest, ws) in buckets.iter() {
                    comm.async_send(dest, TAG_SCORE, &(qid as u32, me, ws, query));
                }
            }
        }
        comm.barrier();
        comm.trace_end("query_seed");

        // --- round loop --------------------------------------------------
        // Each round: fold the previous cascade's scores in canonical
        // order, then every live query expands its best frontier vertex
        // (the Section 3.3 pop); the barrier retires the Expand/Score
        // cascades and an all-reduce decides global convergence.
        let mut round = 0u64;
        loop {
            comm.trace_begin_arg("query_round", round);
            round += 1;
            {
                let mut s = self.st.borrow_mut();
                for qid in 0..s.queries.len() {
                    let q = &mut s.queries[qid];
                    if q.done {
                        continue;
                    }
                    q.profile.rounds += 1;
                    q.fold_round(params.l, relax);
                    let d_max = q.d_max(params.l);
                    match q.frontier.pop() {
                        None => q.done = true,
                        Some(Reverse((OrdF32(d), v))) => {
                            if d > relax * d_max && q.best.len() >= params.l {
                                q.done = true;
                            } else {
                                q.profile.expansions += 1;
                                comm.async_send(part.owner(v), TAG_EXPAND, &(qid as u32, me, v));
                            }
                        }
                    }
                }
            }
            comm.barrier();
            let live = {
                let s = self.st.borrow();
                s.queries.iter().filter(|q| !q.done).count() as u64
            };
            let live_global = comm.all_reduce_sum_u64(live);
            comm.trace_instant("live_queries", live_global);
            comm.trace_end("query_round");
            if live_global == 0 {
                break;
            }
        }

        // --- extract -----------------------------------------------------
        let mut s = self.st.borrow_mut();
        s.vectors.clear();
        std::mem::take(&mut s.queries)
            .into_iter()
            .map(|q| {
                let mut pairs: Vec<(f32, PointId)> =
                    q.best.iter().map(|&(OrdF32(d), id)| (d, id)).collect();
                pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                let ids: Vec<PointId> = pairs.into_iter().map(|(_, id)| id).collect();
                (ids, q.profile)
            })
            .unzip()
    }

    /// The metric this engine scores with.
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

/// Run a batch of queries against the partitioned `(graph, base)` on
/// `world.n_ranks()` ranks. Returns per-query neighbor ids (query order)
/// and the world report (virtual time, traffic).
pub fn distributed_search_batch<P, M>(
    world: &World,
    base: &Arc<PointSet<P>>,
    graph: &Arc<KnnGraph>,
    queries: &Arc<PointSet<P>>,
    metric: &M,
    params: DistSearchParams,
) -> (Vec<Vec<PointId>>, ygm::WorldReport<RankQueryRows>)
where
    P: Point,
    M: BatchMetric<P>,
{
    assert_eq!(graph.len(), base.len(), "graph and base disagree on N");
    assert!(params.l >= 1 && params.l <= base.len());
    params
        .validate()
        .unwrap_or_else(|e| panic!("invalid DistSearchParams: {e}"));
    let report = world.run(|comm| {
        let engine = SearchEngine::new(comm, Arc::clone(base), Arc::clone(graph), metric.clone());
        // Home queries round-robin.
        let mine: Vec<usize> = (0..queries.len())
            .filter(|q| q % comm.n_ranks() == comm.rank())
            .collect();
        let requests: Vec<(u64, P)> = mine
            .iter()
            .map(|&idx| (idx as u64, queries.point(idx as PointId).clone()))
            .collect();
        let (ids, _) = engine.run_batch(comm, &requests, &[], params);
        mine.into_iter().zip(ids).collect::<RankQueryRows>()
    });
    let mut out: Vec<Vec<PointId>> = vec![Vec::new(); queries.len()];
    for rank_results in &report.results {
        for (idx, ids) in rank_results {
            out[*idx] = ids.clone();
        }
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, DnndConfig};
    use dataset::ground_truth::brute_force_queries;
    use dataset::metric::L2;
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};

    type Fixture = (Arc<PointSet<Vec<f32>>>, Arc<KnnGraph>, PointSet<Vec<f32>>);

    fn setup(n: usize, k: usize) -> Fixture {
        let full = gaussian_mixture(MixtureParams::embedding_like(n, 12), 5);
        let (base, queries) = split_queries(full, 50);
        let base = Arc::new(base);
        let out = build(
            &World::new(4),
            &base,
            &L2,
            DnndConfig::new(k).seed(2).graph_opt(1.5),
        );
        (base, Arc::new(out.graph), queries)
    }

    #[test]
    fn distributed_search_matches_ground_truth() {
        let (base, graph, queries) = setup(700, 10);
        let queries = Arc::new(queries);
        let truth = brute_force_queries(&base, &queries, &L2, 10);
        let (ids, _) = distributed_search_batch(
            &World::new(4),
            &base,
            &graph,
            &queries,
            &L2,
            DistSearchParams::new(10).epsilon(0.2).entry_candidates(48),
        );
        assert_eq!(ids.len(), queries.len());
        let recall = mean_recall(&ids, &truth);
        assert!(recall > 0.85, "distributed search recall {recall}");
    }

    #[test]
    fn distributed_matches_shared_memory_search_quality() {
        let (base, graph, queries) = setup(600, 8);
        let queries = Arc::new(queries);
        let truth = brute_force_queries(&base, &queries, &L2, 8);
        let shared = nnd::search_batch(
            &graph,
            &base,
            &L2,
            &queries,
            nnd::SearchParams::new(8)
                .epsilon(0.2)
                .entry_candidates(48)
                .seed(0xD15C),
        );
        let (dist_ids, _) = distributed_search_batch(
            &World::new(3),
            &base,
            &graph,
            &queries,
            &L2,
            DistSearchParams::new(8).epsilon(0.2).entry_candidates(48),
        );
        let r_shared = mean_recall(&shared.ids, &truth);
        let r_dist = mean_recall(&dist_ids, &truth);
        assert!(
            (r_shared - r_dist).abs() < 0.08,
            "shared {r_shared} vs distributed {r_dist}"
        );
    }

    #[test]
    fn member_queries_find_themselves() {
        // The raw directed k-NNG can leave vertices with in-degree 0
        // (unreachable by traversal); querying always uses the Section 4.5
        // optimized graph, whose reverse-edge merge guarantees every
        // vertex is reachable from each of its own neighbors.
        let full = gaussian_mixture(MixtureParams::embedding_like(400, 8), 9);
        let base = Arc::new(full.clone());
        let out = build(
            &World::new(3),
            &base,
            &L2,
            DnndConfig::new(6).seed(1).graph_opt(1.5),
        );
        let graph = Arc::new(out.graph);
        let queries = Arc::new(PointSet::new(vec![
            base.point(11).clone(),
            base.point(222).clone(),
        ]));
        let (ids, _) = distributed_search_batch(
            &World::new(3),
            &base,
            &graph,
            &queries,
            &L2,
            DistSearchParams::new(5).entry_candidates(64),
        );
        assert_eq!(ids[0][0], 11);
        assert_eq!(ids[1][0], 222);
    }

    #[test]
    fn rank_count_does_not_change_results_materially() {
        let (base, graph, queries) = setup(500, 8);
        let queries = Arc::new(queries);
        let truth = brute_force_queries(&base, &queries, &L2, 8);
        let mut recalls = Vec::new();
        for ranks in [1usize, 2, 5] {
            let (ids, _) = distributed_search_batch(
                &World::new(ranks),
                &base,
                &graph,
                &queries,
                &L2,
                DistSearchParams::new(8).epsilon(0.2).entry_candidates(48),
            );
            recalls.push(mean_recall(&ids, &truth));
        }
        let spread = recalls.iter().cloned().fold(f64::MIN, f64::max)
            - recalls.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.05, "recall varies with ranks: {recalls:?}");
    }

    #[test]
    fn rank_count_does_not_change_results_at_all() {
        // The determinism contract (see module doc): identical ids for
        // every query across rank counts, not just comparable recall.
        let (base, graph, queries) = setup(400, 8);
        let queries = Arc::new(queries);
        let params = DistSearchParams::new(8).epsilon(0.2).entry_candidates(32);
        let (ref_ids, _) =
            distributed_search_batch(&World::new(1), &base, &graph, &queries, &L2, params);
        for ranks in [2usize, 4] {
            let (ids, _) =
                distributed_search_batch(&World::new(ranks), &base, &graph, &queries, &L2, params);
            assert_eq!(ids, ref_ids, "results differ at {ranks} ranks");
        }
    }

    #[test]
    fn profiles_are_nonzero_and_rank_count_invariant() {
        // QueryProfile counters are pure functions of (graph, params, seed
        // key): identical across rank counts, and every answered query
        // scored at least its seed entries.
        let (base, graph, queries) = setup(400, 8);
        let queries = Arc::new(queries);
        let params = DistSearchParams::new(8).epsilon(0.2).entry_candidates(32);
        let profiles_at = |ranks| run_at(ranks, &base, &graph, &queries, None, params).1;
        let reference = profiles_at(1);
        assert_eq!(reference.len(), queries.len());
        for p in &reference {
            assert!(p.dist_evals >= 32, "seed entries must be counted: {p:?}");
            assert!(p.rounds >= 1);
            assert!(p.expansions <= p.rounds, "one expansion per live round");
        }
        for ranks in [2usize, 4] {
            assert_eq!(
                profiles_at(ranks),
                reference,
                "profiles differ at {ranks} ranks"
            );
        }
    }

    #[test]
    fn query_traffic_is_accounted() {
        let (base, graph, queries) = setup(400, 6);
        let queries = Arc::new(queries);
        let (_, report) = distributed_search_batch(
            &World::new(4),
            &base,
            &graph,
            &queries,
            &L2,
            DistSearchParams::new(6).entry_candidates(24),
        );
        let score_tag = report.tag(TAG_SCORE).expect("score traffic");
        let scored_tag = report.tag(TAG_SCORED).expect("scored traffic");
        // Every Score gets exactly one Scored reply.
        assert_eq!(score_tag.count, scored_tag.count);
        // Score messages carry the query vector; replies are small.
        assert!(score_tag.bytes > scored_tag.bytes);
        assert!(report.sim_secs > 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn nan_epsilon_is_rejected() {
        let _ = DistSearchParams::new(10).epsilon(f32::NAN);
    }

    #[test]
    #[should_panic(expected = "entry_candidates")]
    fn zero_entry_candidates_is_rejected() {
        let _ = DistSearchParams::new(10).entry_candidates(0);
    }

    #[test]
    #[should_panic(expected = "l (results per query)")]
    fn zero_l_is_rejected() {
        let _ = DistSearchParams::new(0);
    }

    #[test]
    fn default_params_are_valid() {
        let p = DistSearchParams::default();
        assert_eq!(p.l, 10);
        p.validate().unwrap();
    }

    /// A `Score` is sent as a tuple of borrows; the handler decodes the
    /// owned struct from the same bytes.
    #[test]
    fn borrowed_score_is_the_owned_message() {
        use ygm::codec::{decode_from_bytes, encode_to_bytes};
        let (ws, query) = (vec![4u32, 90, 7], vec![0.5f32, -1.0, 2.0, 8.0]);
        let sent = encode_to_bytes(&(3u32, 1u32, ws.as_slice(), &query));
        let got: Score<Vec<f32>> = decode_from_bytes(sent);
        assert_eq!((got.qid, got.home), (3, 1));
        assert_eq!((got.ws, got.query), (ws, query));
    }

    #[test]
    fn id_mask_basics() {
        let mut m = IdMask::none(130);
        assert!(m.is_empty());
        m.allow(0);
        m.allow(64);
        m.allow(129);
        m.allow(129); // idempotent
        assert_eq!(m.allowed(), 3);
        assert!(m.allows(64) && !m.allows(63));
        assert!(!m.allows(999)); // out of range ids are disallowed
        m.deny(64);
        m.deny(64);
        assert_eq!(m.allowed(), 2);
        let all = IdMask::all(130);
        assert_eq!(all.allowed(), 130);
        assert!((all.selectivity() - 1.0).abs() < 1e-12);
        let mut inter = all.clone();
        inter.intersect(&m);
        assert_eq!(inter, m);
        let even = IdMask::from_fn(10, |id| id % 2 == 0);
        assert_eq!(even.allowed(), 5);
        assert!((even.selectivity() - 0.5).abs() < 1e-12);
    }

    /// Run `queries` (homed round-robin, `mask` on every one when given)
    /// through [`SearchEngine::run_batch`] on `ranks` ranks; ids and
    /// profiles come back in query order.
    fn run_at(
        ranks: usize,
        base: &Arc<PointSet<Vec<f32>>>,
        graph: &Arc<KnnGraph>,
        queries: &Arc<PointSet<Vec<f32>>>,
        mask: Option<&Arc<IdMask>>,
        params: DistSearchParams,
    ) -> (Vec<Vec<PointId>>, Vec<QueryProfile>) {
        let report = World::new(ranks).run(|comm| {
            let engine = SearchEngine::new(comm, Arc::clone(base), Arc::clone(graph), L2);
            let mine: Vec<usize> = (0..queries.len())
                .filter(|q| q % comm.n_ranks() == comm.rank())
                .collect();
            let requests: Vec<(u64, Vec<f32>)> = mine
                .iter()
                .map(|&idx| (idx as u64, queries.point(idx as PointId).clone()))
                .collect();
            let masks: Vec<Option<Arc<IdMask>>> = match mask {
                Some(m) => vec![Some(Arc::clone(m)); mine.len()],
                None => Vec::new(),
            };
            let (ids, profiles) = engine.run_batch(comm, &requests, &masks, params);
            mine.into_iter()
                .zip(ids.into_iter().zip(profiles))
                .collect::<Vec<_>>()
        });
        let mut rows: Vec<_> = report.results.into_iter().flatten().collect();
        rows.sort_unstable_by_key(|&(idx, _)| idx);
        rows.into_iter().map(|(_, row)| row).unzip()
    }

    #[test]
    fn masked_search_returns_only_allowed_ids_with_good_recall() {
        let (base, graph, queries) = setup(600, 10);
        let queries = Arc::new(queries);
        // Allow one id in three — a mid-selectivity predicate.
        let mask = Arc::new(IdMask::from_fn(base.len(), |id| id % 3 == 0));
        let params = DistSearchParams::new(10).epsilon(0.2).entry_candidates(48);
        let ids = run_at(2, &base, &graph, &queries, Some(&mask), params).0;
        for (qi, row) in ids.iter().enumerate() {
            assert_eq!(row.len(), 10, "query {qi} under-filled");
            for &id in row {
                assert!(mask.allows(id), "query {qi} returned disallowed id {id}");
            }
        }
        // Compare against the brute-force truth restricted to the mask.
        let allowed: Vec<PointId> = (0..base.len() as PointId).filter(|&i| i % 3 == 0).collect();
        let sub = PointSet::new(
            allowed
                .iter()
                .map(|&i| base.point(i).clone())
                .collect::<Vec<_>>(),
        );
        let mut truth = brute_force_queries(&Arc::new(sub), &queries, &L2, 10);
        for row in &mut truth.ids {
            for id in row.iter_mut() {
                *id = allowed[*id as usize];
            }
        }
        let recall = mean_recall(&ids, &truth);
        assert!(recall > 0.8, "filtered recall {recall}");
    }

    #[test]
    fn masked_search_is_bit_identical_across_reruns_and_rank_counts() {
        let (base, graph, queries) = setup(400, 8);
        let queries = Arc::new(queries);
        let mask = Arc::new(IdMask::from_fn(base.len(), |id| id % 4 != 1));
        let params = DistSearchParams::new(8).epsilon(0.2).entry_candidates(32);
        let reference = run_at(1, &base, &graph, &queries, Some(&mask), params).0;
        // Rerun at the same rank count: bit-identical.
        assert_eq!(
            run_at(1, &base, &graph, &queries, Some(&mask), params).0,
            reference
        );
        for ranks in [2usize, 4] {
            assert_eq!(
                run_at(ranks, &base, &graph, &queries, Some(&mask), params).0,
                reference,
                "filtered results differ at {ranks} ranks"
            );
        }
    }

    #[test]
    fn all_deny_mask_returns_no_results() {
        let (base, graph, queries) = setup(300, 6);
        let queries = Arc::new(queries);
        let params = DistSearchParams::new(6).entry_candidates(24);
        let deny = Arc::new(IdMask::none(base.len()));
        let empty = run_at(2, &base, &graph, &queries, Some(&deny), params).0;
        assert_eq!(empty.len(), queries.len());
        assert!(empty.iter().all(|row| row.is_empty()));
    }
}
