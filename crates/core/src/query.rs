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
use dataset::order::DistKey;
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
        let params = DistSearchParams {
            l,
            epsilon: 0.0,
            entry_candidates: 0,
            seed: 0xD15C,
        };
        nnd::checked(params, "DistSearchParams", Self::validate)
    }

    /// Set epsilon. NaN and negative values are refused — both would
    /// silently corrupt the frontier-relaxation comparison.
    pub fn epsilon(mut self, e: f32) -> Self {
        self.epsilon = e;
        nnd::checked(self, "DistSearchParams", Self::validate)
    }

    /// Set the number of random entry points (at least `l` are always
    /// used, so 0 means `l`).
    pub fn entry_candidates(mut self, n: usize) -> Self {
        self.entry_candidates = n;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// The search's domain, shared with the shared-memory search.
    pub fn validate(&self) -> Result<(), String> {
        nnd::check_beam(self.l, self.epsilon)
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

/// Per-query state at its home rank. A retired state goes back to the
/// engine's spare list with its containers emptied and their capacity kept.
#[derive(Default)]
struct QueryState {
    /// Best-`l` max-heap.
    best: BinaryHeap<DistKey>,
    /// Frontier min-heap of scored, unexpanded vertices.
    frontier: BinaryHeap<Reverse<DistKey>>,
    /// Only ever inserted into, never iterated: no order can leak out of
    /// the cheap hasher.
    visited: HashSet<PointId, IdBuildHasher>,
    /// Scored replies of the current round, folded in canonical order at
    /// the round boundary (the determinism contract).
    round_scored: Vec<DistKey>,
    /// Filter-pushed allow-list: gates best-heap admission only (see
    /// [`IdMask`]). `None` is the unfiltered legacy path, byte-identical
    /// to pre-filter behavior.
    mask: Option<Arc<IdMask>>,
    done: bool,
    profile: QueryProfile,
}

impl QueryState {
    fn d_max(&self, l: usize) -> f32 {
        if self.best.len() < l {
            f32::INFINITY
        } else {
            self.best.peek().map_or(f32::INFINITY, |top| top.dist())
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
        // A disallowed reply is a navigation-only vertex: scored, never
        // returned. The allowed ones move to the front.
        let mut allowed = 0;
        for i in 0..scored.len() {
            if (self.mask.as_ref()).is_none_or(|mask| mask.allows(scored[i].id())) {
                scored.swap(allowed, i);
                allowed += 1;
            }
        }
        // Admission is strict on distance against a bound that only
        // tightens, so walking the allowed replies in ascending order the
        // first refusal of a full `best` refuses everything after it: only
        // the `l` smallest can enter, and only they are selected and sorted.
        // (A NaN is refused without bounding what follows it, so one more
        // reply is walked per NaN.)
        let nans = (scored[..allowed].iter()).filter(|key| key.dist().is_nan());
        let walk = (l + nans.count()).min(allowed);
        if walk < allowed {
            scored[..allowed].select_nth_unstable(walk - 1);
        }
        scored[..walk].sort_unstable();
        for &key in &scored[..walk] {
            if self.best.len() < l || key.dist() < self.d_max(l) {
                self.best.push(key);
                if self.best.len() > l {
                    self.best.pop();
                }
            }
        }
        let bound = relax * self.d_max(l);
        let near = scored.iter().filter(|key| key.dist() < bound);
        self.frontier.extend(near.map(|&key| Reverse(key)));
        scored.clear();
        self.round_scored = scored;
    }

    /// The result — `best`'s ids ascending by `(distance, id)` — leaving
    /// every container empty with its capacity, ready for another query.
    fn retire(&mut self) -> Vec<PointId> {
        self.round_scored.clear();
        self.round_scored.extend(self.best.drain());
        self.round_scored.sort_unstable();
        let ids = self.round_scored.iter().map(|key| key.id()).collect();
        self.round_scored.clear();
        self.frontier.clear();
        self.visited.clear();
        (self.mask, self.done, self.profile) = (None, false, QueryProfile::default());
        ids
    }
}

/// Retired [`QueryState`]s an engine keeps for its next batches: the
/// serving layer's batches are far smaller, and an offline batch of
/// thousands must not stay resident.
const SPARE_STATES: usize = 256;

struct EngineState<P> {
    /// Queries of the batch currently in flight (empty between batches).
    queries: Vec<QueryState>,
    /// The in-flight batch's query vectors, indexed like `queries` (the
    /// Neighbors handler needs them for the Score fan-out).
    vectors: Vec<P>,
    /// Entry-point sampler over the base ids, reused by every query.
    sampler: EntrySampler,
    /// Retired states (at most [`SPARE_STATES`]), emptied, capacity kept.
    spare: Vec<QueryState>,
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
            spare: Vec::new(),
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
                let replies = scored.iter().map(|&(w, d)| DistKey::new(d, w));
                s.queries[*qid as usize].round_scored.extend(replies);
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
        let n = self.base.len();
        let verdict = params.validate().and_then(|()| nnd::check_l(params.l, n));
        verdict.unwrap_or_else(|e| panic!("invalid DistSearchParams: {e}"));
        assert!(
            masks.is_empty() || masks.len() == requests.len(),
            "run_batch: masks must be empty or request-aligned \
             ({} masks, {} requests)",
            masks.len(),
            requests.len()
        );
        let part = Partitioner::new(comm.n_ranks());
        let me = comm.rank() as u32;
        let relax = 1.0 + params.epsilon;

        // --- seed entry points -------------------------------------------
        // Each query starts on a retired state when there is one. Replies
        // are dispatched at the barrier, when the whole batch is in place.
        comm.trace_begin("query_seed");
        {
            let mut s = self.st.borrow_mut();
            let s = &mut *s;
            let starts = params.l.max(params.entry_candidates).min(n);
            let mut fresh: Vec<PointId> = Vec::with_capacity(starts);
            let mut buckets = Buckets::default();
            for (qid, (key, query)) in requests.iter().enumerate() {
                let mut q = s.spare.pop().unwrap_or_default();
                q.mask = masks.get(qid).cloned().flatten();
                let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ (key << 16));
                s.sampler.draw(&mut rng, starts, &mut fresh);
                q.visited.extend(&fresh);
                q.profile.dist_evals += fresh.len() as u64;
                part.group_into(&fresh, &mut buckets);
                for (dest, ws) in buckets.iter() {
                    comm.async_send(dest, TAG_SCORE, &(qid as u32, me, ws, query));
                }
                s.queries.push(q);
                s.vectors.push(query.clone());
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
                        Some(Reverse(next)) => {
                            if next.dist() > relax * d_max && q.best.len() >= params.l {
                                q.done = true;
                            } else {
                                let v = next.id();
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
        let s = &mut *s;
        s.vectors.clear();
        (s.queries.drain(..))
            .map(|mut q| {
                let (profile, ids) = (q.profile, q.retire());
                if s.spare.len() < SPARE_STATES {
                    s.spare.push(q);
                }
                (ids, profile)
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
    let verdict = params
        .validate()
        .and_then(|()| nnd::check_l(params.l, base.len()));
    verdict.unwrap_or_else(|e| panic!("invalid DistSearchParams: {e}"));
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
    use proptest::prelude::*;

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
    fn validate_states_the_domain_at_its_edges() {
        // (field, value, accepted): each edge from both sides.
        let rows = [
            ("l", 0.0, false),
            ("l", 1.0, true),
            ("epsilon", -f32::MIN_POSITIVE, false),
            ("epsilon", 0.0, true),
            ("epsilon", f32::MAX, true),
            ("epsilon", f32::INFINITY, false),
            ("epsilon", f32::NAN, false),
        ];
        for (field, v, accepted) in rows {
            let mut direct = DistSearchParams::new(10);
            match field {
                "l" => direct.l = v as usize,
                _ => direct.epsilon = v,
            }
            let verdict = direct.validate();
            assert_eq!(verdict.is_ok(), accepted, "{field} = {v}: {verdict:?}");
            let built = testutil::panic_message(move || match field {
                "l" => DistSearchParams::new(v as usize),
                _ => DistSearchParams::new(10).epsilon(v),
            });
            let want = verdict.err().map(|e| format!("DistSearchParams: {e}"));
            assert_eq!(built, want, "{field} = {v}");
        }
        // Entry candidates have no domain: 0 means `l` starts.
        DistSearchParams::new(10)
            .entry_candidates(0)
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn nan_epsilon_is_rejected() {
        let _ = DistSearchParams::new(10).epsilon(f32::NAN);
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

    /// The fold before selection, kept as the reference: sort every reply
    /// of the round, offer every allowed one to `best` in that order, then
    /// admit to the frontier against the settled bound.
    fn fold_round_by_full_sort(q: &mut QueryState, l: usize, relax: f32) {
        let mut scored = std::mem::take(&mut q.round_scored);
        scored.sort_unstable();
        for &key in &scored {
            let allowed = q.mask.as_ref().is_none_or(|mask| mask.allows(key.id()));
            if allowed && (q.best.len() < l || key.dist() < q.d_max(l)) {
                q.best.push(key);
                if q.best.len() > l {
                    q.best.pop();
                }
            }
        }
        let bound = relax * q.d_max(l);
        for &key in scored.iter().filter(|key| key.dist() < bound) {
            q.frontier.push(Reverse(key));
        }
    }

    /// Two states with the same carried-over `best`, the same mask and the
    /// same round of replies, folded both ways, must agree on `best` and on
    /// the frontier.
    fn check_fold(
        l: usize,
        carried: &[(PointId, f32)],
        replies: &[(PointId, f32)],
        denied: &[PointId],
        relax: f32,
    ) -> Result<(), String> {
        let mut mask = IdMask::all(1 << 10);
        denied.iter().for_each(|&id| mask.deny(id));
        let mask = (!denied.is_empty()).then(|| Arc::new(mask));
        let state = || QueryState {
            best: carried.iter().map(|&(w, d)| DistKey::new(d, w)).collect(),
            round_scored: replies.iter().map(|&(w, d)| DistKey::new(d, w)).collect(),
            mask: mask.clone(),
            ..QueryState::default()
        };
        let (mut folded, mut reference) = (state(), state());
        folded.fold_round(l, relax);
        fold_round_by_full_sort(&mut reference, l, relax);
        let what = format!("l={l} carried={carried:?} replies={replies:?} denied={denied:?}");
        prop_assert_eq!(
            folded.best.into_sorted_vec(),
            reference.best.into_sorted_vec(),
            "best: {}",
            what
        );
        prop_assert_eq!(
            folded.frontier.into_sorted_vec(),
            reference.frontier.into_sorted_vec(),
            "frontier: {}",
            what
        );
        prop_assert!(folded.round_scored.is_empty());
        Ok(())
    }

    #[test]
    fn fold_by_selection_equals_the_full_sort_on_the_hard_cases() {
        // Exact ties straddling position `l`: five replies at one distance,
        // `l` = 3, ids decide; with and without a carried-over `best`.
        let tied: Vec<(PointId, f32)> = [9, 4, 7, 2, 5].iter().map(|&w| (w, 1.0)).collect();
        check_fold(3, &[], &tied, &[], 1.2).unwrap();
        check_fold(3, &[(1, 0.5), (3, 1.0), (8, 1.0)], &tied, &[], 1.2).unwrap();
        check_fold(3, &[(1, 0.5), (3, 2.0), (8, 3.0)], &tied, &[], 1.0).unwrap();
        // A mask that denies some of the `l` smallest: the selection must be
        // over the allowed replies, not over the round.
        let spread: Vec<(PointId, f32)> = (0..12).map(|w| (w, w as f32 * 0.25)).collect();
        check_fold(4, &[], &spread, &[0, 1, 3], 1.5).unwrap();
        check_fold(4, &[(20, 0.3), (21, 5.0)], &spread, &[0, 2, 4, 6], 1.5).unwrap();
        // Everything denied, and a round shorter than `l`.
        check_fold(2, &[(20, 0.3)], &spread, &(0..12).collect::<Vec<_>>(), 1.5).unwrap();
        check_fold(8, &[], &spread[..3], &[], 1.5).unwrap();
        // A NaN is refused by a full `best` without bounding what follows
        // it (x86 makes `inf - inf` a negative NaN, which sorts first).
        let neg_nan = f32::from_bits(0xffc0_0000);
        let with_nans = [
            (1, neg_nan),
            (2, neg_nan),
            (3, 1.0),
            (4, f32::NAN),
            (5, 2.0),
        ];
        check_fold(2, &[(20, 5.0)], &with_nans, &[], 1.2).unwrap();
        check_fold(1, &[(20, 5.0)], &with_nans, &[], 1.2).unwrap();
        check_fold(3, &[], &with_nans, &[2], 1.2).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn fold_by_selection_equals_the_full_sort(
            l in 1usize..7,
            // Few distinct distances, so ties are the rule; ids are made
            // distinct below (a query scores a vertex once).
            carried in prop::collection::vec(0u32..6, 0..7),
            replies in prop::collection::vec(0u32..8, 0..40),
            deny_every in 0u32..5,
            relax in 1.0f32..1.5,
        ) {
            let dist = |step: u32| match step {
                6 => f32::from_bits(0xffc0_0000),
                7 => f32::NAN,
                _ => step as f32 * 0.5,
            };
            let carried: Vec<(PointId, f32)> = (carried.iter().take(l).enumerate())
                .map(|(i, &step)| (500 + i as PointId, dist(step)))
                .collect();
            let replies: Vec<(PointId, f32)> = (replies.iter().enumerate())
                .map(|(i, &step)| ((i as PointId * 7) % 41, dist(step)))
                .collect();
            let denied: Vec<PointId> = (0..41)
                .filter(|id| deny_every > 0 && id % (deny_every + 1) == 0)
                .collect();
            check_fold(l, &carried, &replies, &denied, relax)?;
        }
    }

    #[test]
    fn retired_states_are_reused_clean_and_the_pool_is_bounded() {
        let (base, graph, queries) = setup(300, 6);
        let params = DistSearchParams::new(6).entry_candidates(24);
        let requests = |copies: usize| -> Vec<(u64, Vec<f32>)> {
            (0..copies * queries.len())
                .map(|i| {
                    (
                        i as u64,
                        queries.point((i % queries.len()) as PointId).clone(),
                    )
                })
                .collect()
        };
        let report = World::new(1).run(|comm| {
            let engine = SearchEngine::new(comm, Arc::clone(&base), Arc::clone(&graph), L2);
            let batch = requests(1);
            let fresh = engine.run_batch(comm, &batch, &[], params);
            // A masked batch in between: no mask, visited set or heap entry
            // of it may show in the batch after.
            let deny = Some(Arc::new(IdMask::none(base.len())));
            engine.run_batch(comm, &batch, &vec![deny; batch.len()], params);
            assert_eq!(engine.run_batch(comm, &batch, &[], params), fresh);
            assert_eq!(engine.st.borrow().spare.len(), batch.len());
            // A batch larger than the pool does not stay resident.
            let large = requests(SPARE_STATES / queries.len() + 2);
            assert!(large.len() > SPARE_STATES);
            engine.run_batch(comm, &large, &[], params);
            let pooled = engine.st.borrow().spare.len();
            pooled
        });
        assert_eq!(report.results[0], SPARE_STATES);
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
