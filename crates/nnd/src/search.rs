//! Greedy best-first ANN search on a k-NNG — the query algorithm of
//! Section 3.3, including PyNNDescent's `epsilon` frontier relaxation.
//!
//! There is exactly one frontier-expansion loop, `Scratch::run`: it owns
//! the epoch-stamped visited marks, both heaps (of packed [`DistKey`]s: a
//! sift is one integer compare) and the kernel buffers, takes the query's
//! norm once, and scores every expansion with one batched
//! [`BatchMetric::distance_one_to_many_prepared`] call. [`search`] is that
//! loop with a one-shot scratch; [`search_batch`] reuses one scratch per
//! worker (and one [`NormCache`]) across the batch, so no query pays an O(N)
//! allocation.
//! Beside its distance evaluations a query pays one [`EntrySampler`] draw
//! and its heap updates: seeds are admitted through the bounded rule, not
//! pushed wholesale and trimmed.
//!
//! The paper's query program is shared-memory (256 OpenMP threads), and so
//! is [`search_batch`]: its queries are independent, so
//! [`dataset::par::map_indexed`] hands them out
//! [`dataset::par::QUERY_CHUNK`] at a time to one worker per core the
//! process may run on, each holding its own scratch, and the batch reports
//! their throughput (Figure 2's qps axis). Each query keeps its own seed,
//! so the rows and the evaluation count do not depend on the number of
//! workers.

use crate::graph::KnnGraph;
use dataset::batch::{BatchMetric, NormCache};
use dataset::marks::VisitMarks;
use dataset::order::{offer_bounded, sort_edges, DistKey};
use dataset::par;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Query-time parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Number of nearest neighbors to return (`l`; may exceed the graph's
    /// `k`).
    pub l: usize,
    /// Frontier relaxation: a visited point enters the frontier if
    /// `dist < (1 + epsilon) * d_max`. `0.0` is pure greedy; the paper
    /// sweeps `0.1..=0.4` step `0.025` for the billion-scale evaluation.
    pub epsilon: f32,
    /// Seed for the random entry points.
    pub seed: u64,
    /// Number of random entry points probed before the descent starts
    /// (clamped to at least `l`). The paper's Section 3.3 algorithm uses
    /// exactly `l` random starts; on strongly clustered data a k-NNG has
    /// few cross-cluster edges, so greedy descent can only reach clusters
    /// an entry point landed in. Raising this is the multi-start analogue
    /// of PyNNDescent's RP-tree entry-point selection.
    pub entry_candidates: usize,
}

impl SearchParams {
    /// Pure greedy search for `l` neighbors.
    pub fn new(l: usize) -> Self {
        let params = SearchParams {
            l,
            epsilon: 0.0,
            seed: 0xCAFE,
            entry_candidates: 0,
        };
        crate::checked(params, "SearchParams", Self::validate)
    }

    /// Set `epsilon`. NaN, infinite and negative values are refused: each
    /// would silently corrupt the frontier-relaxation bound.
    pub fn epsilon(mut self, e: f32) -> Self {
        self.epsilon = e;
        crate::checked(self, "SearchParams", Self::validate)
    }

    /// Set the entry-point seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Probe `n` random entry points (at least `l` are always used).
    pub fn entry_candidates(mut self, n: usize) -> Self {
        self.entry_candidates = n;
        self
    }

    /// The search's domain: [`check_beam`]. Every query calls it.
    pub fn validate(&self) -> Result<(), String> {
        check_beam(self.l, self.epsilon)
    }
}

/// The beam's domain, stated once for both engines: `l >= 1`, `epsilon` finite `>= 0`.
pub fn check_beam(l: usize, epsilon: f32) -> Result<(), String> {
    if l < 1 {
        return Err("l (results per query) must be >= 1".into());
    }
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(format!("epsilon must be finite and >= 0 (got {epsilon})"));
    }
    Ok(())
}

/// `l` against the point count, stated once: at most the `n` points of the base.
pub fn check_l(l: usize, n: usize) -> Result<(), String> {
    if l > n {
        return Err(format!("l must be at most the dataset size {n} (got {l})"));
    }
    Ok(())
}

/// Result of one query: neighbors ascending by `(distance, id)` plus the
/// number of distance evaluations spent.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Up to `l` nearest neighbors found, closest first.
    pub neighbors: Vec<(PointId, f32)>,
    /// Distance evaluations performed for this query.
    pub distance_evals: u64,
}

impl SearchResult {
    /// Neighbor ids only.
    pub fn ids(&self) -> Vec<PointId> {
        self.neighbors.iter().map(|&(id, _)| id).collect()
    }
}

/// Draws a query's random entry points: `amount` distinct ids, uniform
/// over `0..n`, by a partial Fisher–Yates over an identity table that is
/// put back after every draw. A draw is O(`amount`): no hashing, no
/// allocation, no O(`n`) work. The shared-memory loop here and the
/// distributed engine in `dnnd::query` both seed through this, so equal
/// `(rng state, n, amount)` give equal entry points on either path.
#[derive(Debug, Clone, Default)]
pub struct EntrySampler {
    /// `table[i] == i` between draws.
    table: Vec<PointId>,
}

impl EntrySampler {
    /// A sampler over the ids `0..n`.
    pub fn new(n: usize) -> Self {
        EntrySampler {
            table: (0..n as PointId).collect(),
        }
    }

    /// Replace `out` with `amount` distinct ids: step `i` takes
    /// `rng.gen_range(i..n)`, one RNG word each, in that order.
    ///
    /// # Panics
    /// If `amount > n`.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, amount: usize, out: &mut Vec<PointId>) {
        let n = self.table.len();
        assert!(amount <= n, "cannot sample {amount} ids from 0..{n}");
        out.clear();
        for i in 0..amount {
            let j = rng.gen_range(i..n);
            out.push(self.table[j]);
            self.table[j] = self.table[i];
        }
        // Undo. Only slots `j` were written; one at or beyond `amount` gave
        // out its own id the first time it was hit, so it is in `out`.
        for &id in out.iter() {
            self.table[id as usize] = id;
        }
        for (i, slot) in self.table[..amount].iter_mut().enumerate() {
            *slot = i as PointId;
        }
    }
}

/// Reusable state of the expansion loop: visited marks, both heaps and the
/// candidate/distance buffers of the batched kernel. [`search`] makes one
/// per call; [`search_batch`] makes one per batch (and [`crate::refine()`]
/// one per batch of new points), so its steady state allocates nothing per
/// query.
///
/// Visited marks are a [`VisitMarks`]: a new query resets them in O(1)
/// instead of clearing `N` slots.
#[derive(Default)]
pub(crate) struct Scratch {
    sampler: EntrySampler,
    marks: VisitMarks,
    /// Result: max-heap of the best `l` so far (farthest on top).
    best: BinaryHeap<DistKey>,
    /// Frontier: min-heap of candidates to expand.
    frontier: BinaryHeap<Reverse<DistKey>>,
    cands: Vec<PointId>,
    dbuf: Vec<f32>,
}

impl Scratch {
    /// Scratch for graphs/base sets with `n` points.
    pub(crate) fn new(n: usize) -> Self {
        Scratch {
            sampler: EntrySampler::new(n),
            marks: VisitMarks::new(n),
            ..Scratch::default()
        }
    }

    /// Grow to cover ids `0..n`; a scratch never shrinks.
    pub(crate) fn cover(&mut self, n: usize) {
        let table = &mut self.sampler.table;
        table.extend(table.len() as PointId..n as PointId);
        self.marks.grow(n);
    }

    /// Distance of the worst of the current best (infinite while empty).
    fn d_max(&self) -> f32 {
        self.best.peek().map_or(f32::INFINITY, |top| top.dist())
    }

    /// Run one query — the crate's only frontier-expansion loop — over the
    /// points `graph` covers: the first `graph.len()` of `base` (all of
    /// them, but for [`crate::refine()`] locating the points it appends;
    /// the public entry points require all).
    /// `cache` is `metric.preprocess(base)` or [`NormCache::empty`]; results
    /// are bit-identical either way.
    pub(crate) fn run<P: Point, M: BatchMetric<P>>(
        &mut self,
        graph: &KnnGraph,
        base: &PointSet<P>,
        metric: &M,
        cache: &NormCache,
        query: &P,
        params: SearchParams,
    ) -> SearchResult {
        let n = graph.len();
        assert!(
            n <= base.len(),
            "the graph covers more points than the base set"
        );
        assert_eq!(self.marks.len(), n, "scratch sized for a different N");
        let verdict = params.validate().and_then(|()| check_l(params.l, n));
        verdict.unwrap_or_else(|e| panic!("invalid SearchParams: {e}"));

        self.marks.reset();
        self.best.clear();
        self.frontier.clear();

        let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
        let starts = params.l.max(params.entry_candidates).min(n);
        self.sampler.draw(&mut rng, starts, &mut self.cands);
        for &id in &self.cands {
            self.marks.visit(id);
        }
        // Every batch of this query is scored with its norm taken once.
        let q_prep = metric.prepare_query(query);
        let score = |cands: &[PointId], out: &mut Vec<f32>| {
            metric.distance_one_to_many_prepared(query, q_prep, base, cache, cands, out)
        };
        // Seed probes evaluated as one 1xN batch.
        score(&self.cands, &mut self.dbuf);
        let mut evals = self.cands.len() as u64;
        // `best` takes the seeds through the bounded rule: the `l` smallest
        // under the total `(distance, id)` order, as push-all-then-trim
        // would leave.
        for (&id, &d) in self.cands.iter().zip(&self.dbuf) {
            offer_bounded(&mut self.best, params.l, DistKey::new(d, id));
        }
        // A seed beyond the relaxed bound never reaches the frontier. That
        // is exact: `starts >= l`, so `best` is full and `d_max` only falls
        // from here; everything admitted later is below the bound of its
        // time, hence sorts before a dropped seed; so the loop would have
        // met that seed only to `break` on it, or on something before it.
        // "Not greater" rather than `d <= bound`: a NaN distance stays in.
        let relax = 1.0 + params.epsilon;
        let bound = relax * self.d_max();
        self.frontier.extend(
            (self.cands.iter().zip(&self.dbuf))
                .filter(|&(_, d)| d.partial_cmp(&bound) != Some(Ordering::Greater))
                .map(|(&id, &d)| Reverse(DistKey::new(d, id))),
        );

        while let Some(Reverse(next)) = self.frontier.pop() {
            let (d, p) = (next.dist(), next.id());
            let d_max = self.d_max();
            // Termination: the closest frontier point is already beyond the
            // (relaxed) worst of the current l best.
            if d > relax * d_max {
                break;
            }
            // One expansion = one 1xN batch over the unvisited neighbors of
            // `p`; admission then replays in the original neighbor order (the
            // evolving d_max sees candidates exactly as a scalar loop would).
            self.cands.clear();
            self.cands.extend(
                graph
                    .neighbors(p)
                    .iter()
                    .map(|&(w, _)| w)
                    .filter(|&w| self.marks.visit(w)),
            );
            score(&self.cands, &mut self.dbuf);
            evals += self.cands.len() as u64;
            for (&w, &dw) in self.cands.iter().zip(&self.dbuf) {
                let d_max = self.d_max();
                if self.best.len() < params.l || dw < d_max {
                    self.best.push(DistKey::new(dw, w));
                    if self.best.len() > params.l {
                        self.best.pop();
                    }
                }
                // Relaxed admission (PyNNDescent): explore borderline points.
                if dw < relax * d_max {
                    self.frontier.push(Reverse(DistKey::new(dw, w)));
                }
            }
        }

        let mut neighbors: Vec<(PointId, f32)> =
            (self.best.drain().map(|key| (key.id(), key.dist()))).collect();
        sort_edges(&mut neighbors);
        SearchResult {
            neighbors,
            distance_evals: evals,
        }
    }
}

/// Search the graph for the `params.l` approximate nearest neighbors of
/// `query`. The query need not be a member of `base`.
pub fn search<P: Point, M: BatchMetric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    query: &P,
    params: SearchParams,
) -> SearchResult {
    assert_eq!(graph.len(), base.len(), "graph and base set disagree on N");
    Scratch::new(graph.len()).run(graph, base, metric, &NormCache::empty(), query, params)
}

/// Timing and quality summary of a batch of queries.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query neighbor id lists, query order.
    pub ids: Vec<Vec<PointId>>,
    /// Wall-clock seconds for the whole batch.
    pub secs: f64,
    /// Queries per second (the paper's qps axis in Figure 2).
    pub qps: f64,
    /// Total distance evaluations across the batch.
    pub distance_evals: u64,
}

/// Run every query in `queries`; query `qi` searches with seed
/// `params.seed ^ (qi << 17)`, and its result equals a single [`search`]
/// with that seed, whatever the number of workers.
pub fn search_batch<P: Point, M: BatchMetric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    queries: &PointSet<P>,
    params: SearchParams,
) -> BatchResult {
    search_batch_traced(graph, base, metric, queries, params, None)
}

/// [`search_batch`] with an optional tracer: wraps the batch in a
/// `search_batch` span (track 0) and records a `query_dist_evals`
/// histogram sample per query, in query order once the batch is done.
pub fn search_batch_traced<P: Point, M: BatchMetric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    queries: &PointSet<P>,
    params: SearchParams,
    tracer: Option<&obs::Tracer>,
) -> BatchResult {
    if let Some(t) = tracer {
        t.begin_arg(0, "search_batch", t.wall_ns(), queries.len() as u64);
    }
    // Norms are set up once for the whole batch, a scratch once per worker.
    let cache = metric.preprocess(base);
    let start = std::time::Instant::now();
    assert_eq!(graph.len(), base.len(), "graph and base set disagree on N");
    let init = || Scratch::new(graph.len());
    let results = par::map_indexed(queries.len(), par::QUERY_CHUNK, init, |scratch, qi| {
        let seeded = SearchParams {
            seed: params.seed ^ ((qi as u64) << 17),
            ..params
        };
        let q = queries.point(qi as PointId);
        let r = scratch.run(graph, base, metric, &cache, q, seeded);
        (r.ids(), r.distance_evals)
    });
    let secs = start.elapsed().as_secs_f64();
    let mut evals = 0;
    let mut ids: Vec<Vec<PointId>> = Vec::with_capacity(queries.len());
    for (row, e) in results {
        evals += e;
        if let Some(t) = tracer {
            t.record_hist(0, "query_dist_evals", e);
        }
        ids.push(row);
    }
    if let Some(t) = tracer {
        t.end(0, "search_batch", t.wall_ns());
    }
    BatchResult {
        ids,
        qps: queries.len() as f64 / secs.max(1e-12),
        secs,
        distance_evals: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::{build, NnDescentParams};
    use dataset::ground_truth::brute_force_queries;
    use dataset::metric::L2;
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, split_queries, uniform, MixtureParams};

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
            let mut direct = SearchParams::new(10);
            match field {
                "l" => direct.l = v as usize,
                _ => direct.epsilon = v,
            }
            let verdict = direct.validate();
            assert_eq!(verdict.is_ok(), accepted, "{field} = {v}: {verdict:?}");
            let built = testutil::panic_message(move || match field {
                "l" => SearchParams::new(v as usize),
                _ => SearchParams::new(10).epsilon(v),
            });
            let want = verdict.err().map(|e| format!("SearchParams: {e}"));
            assert_eq!(built, want, "{field} = {v}");
        }
        // Entry candidates have no domain: 0 means `l` starts.
        SearchParams::new(10)
            .entry_candidates(0)
            .validate()
            .unwrap();
    }

    #[test]
    fn check_l_states_l_against_the_point_count() {
        assert_eq!(check_l(10, 10), Ok(()));
        assert_eq!(
            check_l(11, 10),
            Err("l must be at most the dataset size 10 (got 11)".into())
        );
    }

    fn small_graph() -> (PointSet<Vec<f32>>, KnnGraph) {
        let set = uniform(300, 4, 3);
        let (g, _) = build(&set, &L2, NnDescentParams::new(10).seed(1));
        (set, g)
    }

    #[test]
    fn returns_l_sorted_neighbors() {
        let (set, g) = small_graph();
        let r = search(&g, &set, &L2, set.point(0), SearchParams::new(5));
        assert_eq!(r.neighbors.len(), 5);
        assert!(r.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn member_query_finds_itself() {
        let (set, g) = small_graph();
        let r = search(&g, &set, &L2, set.point(42), SearchParams::new(3));
        assert_eq!(r.neighbors[0].0, 42);
        assert_eq!(r.neighbors[0].1, 0.0);
    }

    #[test]
    fn l_may_exceed_graph_k() {
        let (set, g) = small_graph();
        let r = search(&g, &set, &L2, set.point(7), SearchParams::new(25));
        assert_eq!(r.neighbors.len(), 25);
    }

    #[test]
    fn search_visits_far_fewer_points_than_n() {
        let set = gaussian_mixture(MixtureParams::embedding_like(2000, 8), 5);
        let (g, _) = build(&set, &L2, NnDescentParams::new(10).seed(2));
        let opt = g.optimize(10, 1.5);
        let r = search(&opt, &set, &L2, set.point(100), SearchParams::new(10));
        assert!(
            r.distance_evals < 2000 / 2,
            "visited {} of 2000",
            r.distance_evals
        );
    }

    #[test]
    fn epsilon_zero_vs_relaxed_quality() {
        // Larger epsilon explores more, so recall must not decrease and
        // distance evals must not shrink.
        let set = gaussian_mixture(MixtureParams::embedding_like(1500, 12), 8);
        let (base, queries) = split_queries(set, 50);
        let (g, _) = build(&base, &L2, NnDescentParams::new(10).seed(4));
        let opt = g.optimize(10, 1.5);
        let truth = brute_force_queries(&base, &queries, &L2, 10);

        let tight = search_batch(&opt, &base, &L2, &queries, SearchParams::new(10));
        let relaxed = search_batch(
            &opt,
            &base,
            &L2,
            &queries,
            SearchParams::new(10).epsilon(0.3),
        );
        let r_tight = mean_recall(&tight.ids, &truth);
        let r_relaxed = mean_recall(&relaxed.ids, &truth);
        assert!(
            r_relaxed >= r_tight - 0.02,
            "epsilon hurt recall: {r_tight} -> {r_relaxed}"
        );
        assert!(relaxed.distance_evals >= tight.distance_evals);
        assert!(r_relaxed > 0.85, "relaxed recall {r_relaxed}");
    }

    #[test]
    fn batch_matches_individual_queries() {
        let (set, g) = small_graph();
        let queries = PointSet::new(vec![set.point(1).clone(), set.point(2).clone()]);
        let batch = search_batch(&g, &set, &L2, &queries, SearchParams::new(4));
        assert_eq!(batch.ids.len(), 2);
        assert_eq!(batch.ids[0].len(), 4);
        // Each query's own id must appear first (distance 0).
        assert_eq!(batch.ids[0][0], 1);
        assert_eq!(batch.ids[1][0], 2);
        assert!(batch.qps > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (set, g) = small_graph();
        let q = set.point(5);
        let a = search(&g, &set, &L2, q, SearchParams::new(5).seed(9));
        let b = search(&g, &set, &L2, q, SearchParams::new(5).seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn entry_candidates_rescue_clustered_queries() {
        // 50 tight, well-separated clusters: a k-NNG has no cross-cluster
        // edges, so with only l random starts the query's cluster is often
        // missed entirely; multi-start entry probing fixes it.
        let set = gaussian_mixture(
            MixtureParams {
                n: 1_000,
                dim: 8,
                n_clusters: 50,
                center_spread: 40.0,
                cluster_std: 0.2,
            },
            3,
        );
        let (base, queries) = split_queries(set, 40);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(1));
        let opt = g.optimize(8, 1.5);
        let truth = brute_force_queries(&base, &queries, &L2, 8);
        let few = search_batch(&opt, &base, &L2, &queries, SearchParams::new(8));
        let many = search_batch(
            &opt,
            &base,
            &L2,
            &queries,
            SearchParams::new(8).entry_candidates(200),
        );
        let r_few = mean_recall(&few.ids, &truth);
        let r_many = mean_recall(&many.ids, &truth);
        assert!(r_many > r_few, "multi-start must help: {r_few} -> {r_many}");
        assert!(r_many > 0.9, "multi-start recall {r_many}");
    }

    /// One member query (`set.point(probe)`) through `scratch`, uncached.
    fn run_on(
        scratch: &mut Scratch,
        set: &PointSet<Vec<f32>>,
        g: &KnnGraph,
        probe: PointId,
        params: SearchParams,
    ) -> SearchResult {
        scratch.run(g, set, &L2, &NormCache::empty(), set.point(probe), params)
    }

    #[test]
    fn back_to_back_queries_are_independent() {
        let (set, g) = small_graph();
        let mut s = Scratch::new(set.len());
        let p = SearchParams::new(5).entry_candidates(32).seed(2);
        let first = run_on(&mut s, &set, &g, 10, p);
        // Interleave a different query, then repeat the first: identical,
        // and identical to a fresh one-shot search.
        let _ = run_on(&mut s, &set, &g, 250, p);
        assert_eq!(run_on(&mut s, &set, &g, 10, p), first);
        assert_eq!(search(&g, &set, &L2, set.point(10), p), first);
    }

    #[test]
    fn non_finite_or_negative_epsilon_is_rejected() {
        for bad in [f32::NAN, f32::INFINITY, -0.5] {
            let r = std::panic::catch_unwind(|| SearchParams::new(10).epsilon(bad));
            assert!(r.is_err(), "epsilon {bad} accepted");
        }
    }

    #[test]
    fn entry_sampler_draws_distinct_ids_and_restores_its_table() {
        let mut sampler = EntrySampler::new(50);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut out = Vec::new();
        for amount in [20, 50, 0, 1, 49] {
            sampler.draw(&mut rng, amount, &mut out);
            assert_eq!(out.len(), amount);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), amount, "ids must be distinct");
            assert!(out.iter().all(|&id| id < 50));
            assert!(
                sampler.table.iter().copied().eq(0..50),
                "table not restored"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sized for a different N")]
    fn wrong_size_scratch_rejected() {
        let (set, g) = small_graph();
        let _ = run_on(&mut Scratch::new(10), &set, &g, 0, SearchParams::new(3));
    }

    #[test]
    #[should_panic(expected = "graph and base set disagree")]
    fn mismatched_graph_and_base_panics() {
        let (set, _) = small_graph();
        let g = KnnGraph::from_rows(vec![vec![]]);
        let _ = search(&g, &set, &L2, set.point(0), SearchParams::new(1));
    }

    /// Over a prefix of the base, the loop draws and reaches only the points
    /// the graph covers, as a search over that prefix alone does.
    #[test]
    fn a_graph_over_a_prefix_searches_that_prefix() {
        let (set, g) = small_graph();
        let mut longer = set.clone();
        longer.extend(
            set.points()[..40]
                .iter()
                .map(|p| p.iter().map(|x| x + 0.5).collect()),
        );
        let p = SearchParams::new(5).entry_candidates(16).seed(3);
        let mut scratch = Scratch::new(set.len());
        for probe in [0, 17, 250] {
            let q = longer.point(probe);
            let got = scratch.run(&g, &longer, &L2, &NormCache::empty(), q, p);
            assert_eq!(got, search(&g, &set, &L2, q, p));
        }
    }
}
