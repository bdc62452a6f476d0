//! Incremental graph maintenance — the paper's Section 7 future work:
//!
//! > "Employing Metall will facilitate rapid graph updates ... new data
//! > points may be added/deleted, followed by a short graph refinement
//! > phase, which will fit NN-Descent's iterative nature well."
//!
//! That nature is Algorithm 1's new/old flag: a pair is joined once. A graph
//! kept for updates is a [`KnnRows`]: the k-NN rows as one [`NeighborTable`],
//! every entry flagged *old* between mutations, and, for each vertex, the
//! rows that hold it. A mutation flags *new* only what changed — the edges
//! of an inserted point, or the rows a deletion shortened — and [`refine()`]
//! runs [`crate::nndescent`]'s own descent loop on the kept rows in place,
//! reading only the rows that take part or hold a new entry: no table is
//! seeded and no row copied, so a call costs what takes part, not `N`.
//! [`remove_points`] takes vertices out without renumbering the rest and
//! repairs the rows they leave short, in place, returning the rows
//! [`refine()`] should flag.
//!
//! The graph a search is served is derived from the rows: Section 4.5's
//! merge and prune, [`KnnGraph::optimize`]. A served row is a function of
//! its vertex's k-NN row and of the entries that name the vertex, so
//! [`KnnRows::rederive`] recomputes only the rows where either moved, by
//! `optimize`'s own rule, and the result equals a full `optimize` of the
//! rows, bit for bit.

use crate::graph::{prune_limit, prune_merged, Edge, KnnGraph};
use crate::heap::NeighborTable;
use crate::nndescent::{check_k, descend, BuildStats, Lists, NnDescentParams, Scope, Theta};
use crate::search::{Scratch, SearchParams};
use dataset::batch::{BatchMetric, NormCache};
use dataset::order::sort_edges;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};

/// A k-NN graph kept for incremental updates: its rows as one
/// [`NeighborTable`] of capacity `k`, every entry flagged old between
/// mutations, and who holds whom. [`refine()`] and [`remove_points`] change
/// it in place; [`KnnRows::rederive`] keeps a served graph derived from it.
#[derive(Debug, Clone)]
pub struct KnnRows {
    table: NeighborTable,
    reverse: Reverse,
    scratch: Scratchpad,
}

/// Who holds whom in a [`KnnRows`]' table, and which derived rows are stale.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reverse {
    /// `holders[u]`: the rows that hold `u`, in no order.
    pub(crate) holders: Vec<Vec<PointId>>,
    /// The rows whose k-NN row or holders moved since the last
    /// [`KnnRows::rederive`], each once, marked in `is_stale`.
    stale: Vec<PointId>,
    is_stale: Vec<bool>,
}

impl Reverse {
    fn cover(&mut self, n: usize) {
        if self.holders.len() < n {
            self.holders.resize(n, Vec::new());
            self.is_stale.resize(n, false);
        }
    }

    fn mark(&mut self, v: PointId) {
        if !std::mem::replace(&mut self.is_stale[v as usize], true) {
            self.stale.push(v);
        }
    }

    /// Row `w` of `table`, against its ids `before` the change (padding of
    /// `PointId::MAX` allowed): each id it dropped loses `w` as a holder and
    /// each it gained gains it; those ids, and `w` if anything moved, are
    /// stale.
    pub(crate) fn settle(&mut self, table: &NeighborTable, w: PointId, before: &[PointId]) {
        let row = table.row(w as usize);
        let mut moved = false;
        for &id in before.iter().take_while(|&&id| id != PointId::MAX) {
            if !row.iter().any(|e| e.id == id) {
                let holders = &mut self.holders[id as usize];
                let at = holders.iter().position(|&h| h == w);
                holders.swap_remove(at.expect("a dropped id was held"));
                self.mark(id);
                moved = true;
            }
        }
        for e in row.iter().filter(|e| !before.contains(&e.id)) {
            self.holders[e.id as usize].push(w);
            self.mark(e.id);
            moved = true;
        }
        if moved {
            self.mark(w);
        }
    }
}

/// Buffers a call reuses, sized for the rows: nothing in them outlives a
/// call, so a clone starts empty.
#[derive(Default)]
struct Scratchpad {
    lists: Lists,
    search: Scratch,
    /// The rows holding a new entry during a [`refine()`]; empty between.
    fresh: Vec<PointId>,
    /// [`prune_merged`]'s marks, all `PointId::MAX` between rows.
    keeper: Vec<PointId>,
}

impl Clone for Scratchpad {
    fn clone(&self) -> Self {
        Scratchpad::default()
    }
}

impl std::fmt::Debug for Scratchpad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratchpad")
    }
}

impl KnnRows {
    /// The rows of `graph`, at most `k` each, every entry flagged old. A
    /// row a k-NN graph cannot hold is an `Err`: more than `k` entries, or
    /// an entry naming its own vertex, a vertex past the last, or an id the
    /// row already holds.
    pub fn new(graph: &KnnGraph, k: usize) -> Result<KnnRows, String> {
        let n = graph.len();
        let mut table = NeighborTable::new(n, k);
        let mut reverse = Reverse::default();
        reverse.cover(n);
        for (v, row) in graph.rows.iter().enumerate() {
            if row.len() > k {
                return Err(format!(
                    "k-NN row {v} holds {} entries, k is {k}",
                    row.len()
                ));
            }
            for &(u, d) in row {
                if u as usize == v || u as usize >= n || !table.insert(v, u, d, false) {
                    return Err(format!("k-NN row {v} cannot hold the edge ({u}, {d})"));
                }
                reverse.holders[u as usize].push(v as PointId);
            }
        }
        Ok(KnnRows {
            table,
            reverse,
            scratch: Scratchpad::default(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.n_rows()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row capacity `k`.
    pub fn k(&self) -> usize {
        self.table.k()
    }

    /// The rows.
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// The rows as a graph, each ascending by `(distance, id)`.
    pub fn to_graph(&self) -> KnnGraph {
        KnnGraph::from_table(&self.table)
    }

    /// Bring `served` — [`KnnGraph::optimize`]`(k, m)` of these rows as they
    /// stood at the last call or at [`KnnRows::new`] — up to date. It grows
    /// to one row per vertex, and each row whose vertex's k-NN row or
    /// holders moved since is merged and pruned again by `optimize`'s own
    /// rule; no other served row can have moved. Afterwards `served` equals
    /// `self.to_graph().optimize(k, m)` bit for bit.
    pub fn rederive(&mut self, served: &mut KnnGraph, m: f64) {
        let limit = prune_limit(self.k(), m).unwrap_or_else(|e| panic!("KnnRows::rederive: {e}"));
        let n = self.len();
        assert!(
            served.len() <= n,
            "the served graph has more rows than the k-NN rows"
        );
        served.rows.resize(n, Vec::new());
        let keeper = &mut self.scratch.keeper;
        keeper.resize(n, PointId::MAX);
        let (table, reverse) = (&self.table, &mut self.reverse);
        for v in reverse.stale.drain(..) {
            reverse.is_stale[v as usize] = false;
            let row = &mut served.rows[v as usize];
            row.clear();
            row.extend(table.row(v as usize).iter().map(|e| (e.id, e.dist)));
            for &u in &reverse.holders[v as usize] {
                let held = table.row(u as usize).iter().find(|e| e.id == v);
                row.push((u, held.expect("a holder holds").dist));
            }
            prune_merged(v, row, limit, keeper);
            for &(id, _) in row.iter() {
                keeper[id as usize] = PointId::MAX;
            }
        }
    }

    /// Append empty rows until there are `n`.
    fn grow(&mut self, n: usize) {
        self.table.grow(n);
        self.reverse.cover(n);
    }
}

/// The short refinement phase, on `knn` in place: `knn` covers the first
/// `knn.len()` points of `base`, the rest are new, and `shortened` names
/// rows that lost entries to a deletion — the rows [`remove_points`]
/// returns. At most `refine_iters` NN-Descent iterations run, from these
/// flags:
///
/// * A kept entry stays old: nothing is re-evaluated and a short row is
///   not topped up. The entries of the rows in `shortened` are flagged
///   **new** instead, so the first iteration joins their neighbors with
///   each other and offers the vertex to its neighbors' neighborhoods.
/// * A new point is located by a search of `graph`, any graph over the kept
///   points (a served graph, say); its hits enter its row flagged new and
///   the same edge is offered back to each hit, also new.
/// * **An empty row means the vertex is out of the graph** (what
///   [`remove_points`] leaves behind): it stays empty, is never a hit, and
///   no row gains an entry naming it.
///
/// One iteration is therefore the joins around the flagged entries — a few
/// hundred evaluations per inserted point whatever `N` is — and
/// `distance_evals` counts them and the searches. Every entry is flagged
/// old again on return. With no new point and no shortened row it
/// evaluates nothing and changes nothing. `params.k` must be the rows'
/// `k`; to re-flag a whole graph, use [`crate::build_with_init`] with its
/// neighbor ids.
pub fn refine<P: Point, M: BatchMetric<P>>(
    knn: &mut KnnRows,
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
    refine_iters: usize,
    shortened: &[PointId],
) -> BuildStats {
    let search_evals = seed(knn, graph, base, metric, params, shortened);
    let KnnRows {
        table,
        reverse,
        scratch,
    } = knn;
    // Norms are not cached: that is a pass over all `N` vectors, and the
    // descent touches a few hundred.
    // One worker: a vector DB refines inside a `ygm` rank (ingest and
    // compaction in `serve`), which must stay one OS thread.
    let mut theta = Theta::new(base, metric, NormCache::empty());
    let fresh = &mut scratch.fresh;
    let scope = Scope::Part { fresh, reverse };
    let params = params.max_iters(refine_iters);
    let mut stats = descend(&mut theta, table, params, 1, &mut scratch.lists, scope);
    for v in scratch.fresh.drain(..) {
        table.flag_row(v as usize, false);
    }
    stats.distance_evals += search_evals;
    stats
}

/// [`refine()`] up to its descent: locate and link the new points, flag
/// the shortened rows new, settle what moved and list in `fresh` every row
/// that holds a new entry. Returns the searches' evaluations.
fn seed<P: Point, M: BatchMetric<P>>(
    knn: &mut KnnRows,
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
    shortened: &[PointId],
) -> u64 {
    let (n_old, n, k) = (knn.len(), base.len(), knn.k());
    assert!(n >= n_old, "base must cover the graph");
    assert_eq!(
        graph.len(),
        n_old,
        "the graph to search must cover the kept rows"
    );
    assert_eq!(params.k, k, "params.k must be the rows' k");
    let verdict = params.validate().and_then(|()| check_k(k, n));
    verdict.unwrap_or_else(|e| panic!("invalid NnDescentParams: {e}"));

    // New points are located among the kept ones.
    let mut hits: Vec<Vec<Edge>> = Vec::new();
    let mut search_evals = 0;
    let scratch = &mut knn.scratch.search;
    scratch.cover(n_old);
    for v in n_old as PointId..n as PointId {
        let probe = SearchParams::new(k.min(n_old))
            .epsilon(0.2)
            .entry_candidates(4 * k)
            .seed(params.seed ^ u64::from(v));
        let cache = NormCache::empty();
        let found = scratch.run(graph, base, metric, &cache, base.point(v), probe);
        search_evals += found.distance_evals;
        hits.push(found.neighbors);
    }

    knn.grow(n);
    let KnnRows {
        table,
        reverse,
        scratch,
    } = knn;
    // Out of the graph: a row that is empty, or new. Linking a hit keeps
    // its row non-empty, so the answer does not move while the links land.
    let out =
        |table: &NeighborTable, u: PointId| u as usize >= n_old || table.row(u as usize).is_empty();
    let mut written: Vec<PointId> = (n_old as PointId..n as PointId).collect();
    written.extend(
        hits.iter()
            .flatten()
            .map(|&(u, _)| u)
            .filter(|&u| !out(table, u)),
    );
    written.sort_unstable();
    written.dedup();
    let before: Vec<Vec<PointId>> = (written.iter())
        .map(|&w| table.row(w as usize).iter().map(|e| e.id).collect())
        .collect();
    for (v, found) in (n_old as PointId..).zip(hits) {
        for (u, d) in found {
            if !out(table, u) {
                table.insert(v as usize, u, d, true);
                table.insert(u as usize, v, d, true);
            }
        }
    }
    for (&w, before) in written.iter().zip(&before) {
        reverse.settle(table, w, before);
    }
    for &v in shortened {
        table.flag_row(v as usize, true);
    }
    let fresh = &mut scratch.fresh;
    fresh.clear();
    fresh.extend(written.iter().chain(shortened).copied());
    fresh.sort_unstable();
    fresh.dedup();
    fresh.retain(|&v| table.row(v as usize).iter().any(|e| e.new));
    search_evals
}

/// Take the vertices in `gone` out of `knn`, in place and without
/// renumbering: their rows are emptied and no row keeps an entry naming
/// them. Only the rows that held one change: each keeps its other entries
/// and, left below `k`, is topped up from its *old* row's two-hop
/// neighborhood — through gone neighbors too, whose old rows still name
/// survivors — scored in one batch (the bits of
/// [`Metric::distance`](dataset::metric::Metric::distance)) and admitted in
/// `(distance, id)` order. A row that neighborhood leaves empty is refilled
/// with its `k` nearest vertices that are neither in `gone` nor already out
/// of the graph, by brute force: no vertex that stays leaves the graph.
/// Every entry stays flagged old. Returns the rows that lost an entry,
/// ascending: the `shortened` argument of the [`refine()`] that restores
/// quality.
pub fn remove_points<P: Point, M: BatchMetric<P>>(
    knn: &mut KnnRows,
    base: &PointSet<P>,
    metric: &M,
    gone: &[PointId],
) -> Vec<PointId> {
    let KnnRows { table, reverse, .. } = knn;
    let k = table.k();
    let mut gone = gone.to_vec();
    gone.sort_unstable();
    gone.dedup();
    let is_gone = |v: PointId| gone.binary_search(&v).is_ok();
    let mut shortened: Vec<PointId> = (gone.iter())
        .flat_map(|&g| reverse.holders[g as usize].iter().copied())
        .filter(|&v| !is_gone(v))
        .collect();
    shortened.sort_unstable();
    shortened.dedup();

    // Every repaired row is read from the rows as they were.
    let ids = |v: PointId| table.row(v as usize).iter().map(|e| e.id);
    let repaired: Vec<Vec<Edge>> = (shortened.iter())
        .map(|&v| {
            let mut row: Vec<Edge> = (table.row(v as usize).iter())
                .filter(|e| !is_gone(e.id))
                .map(|e| (e.id, e.dist))
                .collect();
            if row.len() < k {
                let two_hop = ids(v).flat_map(ids).filter(|&w| w != v && !is_gone(w));
                let mut candidates: Vec<PointId> = two_hop.collect();
                candidates.sort_unstable();
                candidates.dedup();
                candidates.retain(|&w| !row.iter().any(|&(x, _)| x == w));
                let score = |cands: &[PointId], out: &mut Vec<f32>| {
                    metric.distance_member_to_many(v, base, &NormCache::empty(), cands, out)
                };
                top_up(&mut row, k, &candidates, score);
                if row.is_empty() {
                    // Orphaned: every old neighbor is gone and their rows
                    // name no survivor. An empty row would put `v` out of
                    // the graph for good, so it takes its `k` nearest
                    // vertices still in the graph, by brute force.
                    let rest: Vec<PointId> = (0..table.n_rows() as PointId)
                        .filter(|&w| w != v && !is_gone(w) && !table.row(w as usize).is_empty())
                        .collect();
                    top_up(&mut row, k, &rest, score);
                }
            }
            row
        })
        .collect();

    let emptied = Vec::new();
    let rewrites = gone.iter().map(|v| (v, &emptied));
    for (&v, row) in rewrites.chain(shortened.iter().zip(&repaired)) {
        let before: Vec<PointId> = table.row(v as usize).iter().map(|e| e.id).collect();
        table.clear_row(v as usize);
        for &(u, d) in row {
            table.insert(v as usize, u, d, false);
        }
        reverse.settle(table, v, &before);
    }
    shortened
}

/// Top a row that a deletion left short up to `k` edges with the closest of
/// `candidates` as `score` rates them, and put it back in `(distance, id)`
/// order.
fn top_up(
    row: &mut Vec<Edge>,
    k: usize,
    candidates: &[PointId],
    score: impl Fn(&[PointId], &mut Vec<f32>),
) {
    let mut dists = Vec::new();
    score(candidates, &mut dists);
    let mut scored: Vec<Edge> = candidates.iter().copied().zip(dists).collect();
    sort_edges(&mut scored);
    row.extend(scored.into_iter().take(k.saturating_sub(row.len())));
    sort_edges(row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PRUNE_M;
    use crate::nndescent::build;
    use dataset::ground_truth::brute_force_knng;
    use dataset::metric::L2;
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, MixtureParams};
    use proptest::prelude::*;

    fn data(n: usize, seed: u64) -> PointSet<Vec<f32>> {
        gaussian_mixture(MixtureParams::embedding_like(n, 12), seed)
    }

    /// `graph`'s rows, kept for updates.
    fn kept(graph: &KnnGraph, k: usize) -> KnnRows {
        KnnRows::new(graph, k).expect("a k-NN graph")
    }

    /// Recall of the rows of the vertices not in `gone` against their exact
    /// `k` nearest neighbors among those vertices.
    fn live_recall(graph: &KnnGraph, base: &PointSet<Vec<f32>>, gone: &[PointId], k: usize) -> f64 {
        let live: Vec<PointId> = (0..base.len() as PointId)
            .filter(|v| !gone.contains(v))
            .collect();
        let survivors = PointSet::new(live.iter().map(|&v| base.point(v).clone()).collect());
        let mut truth = brute_force_knng(&survivors, &L2, k);
        for id in truth.ids.iter_mut().flatten() {
            *id = live[*id as usize];
        }
        let ids = graph.neighbor_ids();
        let found: Vec<Vec<PointId>> = live.iter().map(|&v| ids[v as usize].clone()).collect();
        mean_recall(&found, &truth)
    }

    /// Equal ids and equal distance bits, row by row.
    fn same_bits(a: &KnnGraph, b: &KnnGraph) -> bool {
        let bits = |g: &KnnGraph| -> Vec<Vec<(PointId, u32)>> {
            let rows = g.rows.iter();
            rows.map(|r| r.iter().map(|&(u, d)| (u, d.to_bits())).collect())
                .collect()
        };
        bits(a) == bits(b)
    }

    /// `knn`'s holders, each sorted, against the ones its rows imply.
    fn holders_are_exact(knn: &KnnRows) -> bool {
        let mut want = vec![Vec::new(); knn.len()];
        for v in 0..knn.len() {
            for e in knn.table.row(v) {
                want[e.id as usize].push(v as PointId);
            }
        }
        let mut got = knn.reverse.holders.clone();
        got.iter_mut().for_each(|h| h.sort_unstable());
        got == want
    }

    /// [`refine()`] as a whole-table run, on a copy: the same seeding, then
    /// the descent over every row ([`Scope::All`]), then every entry
    /// flagged old.
    fn refine_whole_table<P: Point, M: BatchMetric<P>>(
        knn: &KnnRows,
        graph: &KnnGraph,
        base: &PointSet<P>,
        metric: &M,
        params: NnDescentParams,
        refine_iters: usize,
        shortened: &[PointId],
    ) -> (NeighborTable, BuildStats) {
        let mut copy = knn.clone();
        let search_evals = seed(&mut copy, graph, base, metric, params, shortened);
        let mut table = copy.table;
        let mut theta = Theta::new(base, metric, NormCache::empty());
        let params = params.max_iters(refine_iters);
        let lists = &mut Lists::default();
        let mut stats = descend(&mut theta, &mut table, params, 1, lists, Scope::All);
        for v in 0..table.n_rows() {
            table.flag_row(v, false);
        }
        stats.distance_evals += search_evals;
        (table, stats)
    }

    #[test]
    fn insert_extends_graph_with_high_recall() {
        let full = data(700, 3);
        let old = PointSet::new(full.points()[..500].to_vec());
        let params = NnDescentParams::new(8).seed(1);
        let (g_old, _) = build(&old, &L2, params);
        let mut knn = kept(&g_old, 8);
        let stats = refine(&mut knn, &g_old, &full, &L2, params, 4, &[]);
        assert_eq!(knn.len(), 700);
        let truth = brute_force_knng(&full, &L2, 8);
        let recall = mean_recall(&knn.to_graph().neighbor_ids(), &truth);
        assert!(recall > 0.9, "post-insert recall {recall}");
        assert!(stats.iterations <= 4);
    }

    #[test]
    fn refinement_is_cheaper_than_rebuild() {
        let full = data(600, 5);
        let old = PointSet::new(full.points()[..550].to_vec());
        let params = NnDescentParams::new(8).seed(2);
        let (g_old, _) = build(&old, &L2, params);
        let (_, full_stats) = build(&full, &L2, params);
        let refine_stats = refine(&mut kept(&g_old, 8), &g_old, &full, &L2, params, 3, &[]);
        assert!(
            4 * refine_stats.distance_evals <= full_stats.distance_evals,
            "refine {} > rebuild {} / 4",
            refine_stats.distance_evals,
            full_stats.distance_evals
        );
    }

    /// The cost of an insert is pinned by count, not by clock: the search
    /// that locates the point plus one iteration around what it flagged,
    /// whatever `N` is. (A rebuild of the 300 is ~79 000 evaluations; the
    /// whole-graph re-flagging this replaced spent 19 273 / 77 373 /
    /// 307 903 on the three sizes.)
    #[test]
    fn one_point_insert_costs_what_it_touches() {
        let evals: Vec<u64> = [300usize, 1_200, 4_800]
            .into_iter()
            .map(|n| {
                let full = dataset::presets::deep1b_like(n + 1, 7);
                let old = PointSet::new(full.points()[..n].to_vec());
                let params = NnDescentParams::new(10).seed(2);
                let (g, _) = build(&old, &L2, params);
                let mut knn = kept(&g, 10);
                let stats = refine(&mut knn, &g, &full, &L2, params, 1, &[]);
                assert_eq!(knn.table.row(n).len(), 10, "n = {n}");
                assert!(
                    stats.distance_evals <= 600,
                    "n = {n}: {} evaluations",
                    stats.distance_evals
                );
                stats.distance_evals
            })
            .collect();
        assert!(evals[0] > 0 && evals[2] <= 2 * evals[0], "{evals:?}");
    }

    #[test]
    fn insert_noop_when_no_new_points() {
        let base = data(300, 7);
        let params = NnDescentParams::new(6).seed(3);
        let (g, _) = build(&base, &L2, params);
        let mut knn = kept(&g, 6);
        let stats = refine(&mut knn, &g, &base, &L2, params, 2, &[]);
        assert_eq!(stats.distance_evals, 0);
        assert_eq!(knn.to_graph(), g);
        assert!(knn.table.row(0).iter().all(|e| !e.new));
    }

    #[test]
    fn empty_rows_stay_out_of_the_graph() {
        // Take 30 vertices out, then insert 40 points, a few at a time.
        // Nothing may link to a removed vertex again.
        let full = data(440, 21);
        let params = NnDescentParams::new(8).seed(9);
        let mut base = PointSet::new(full.points()[..400].to_vec());
        let (g, _) = build(&base, &L2, params);
        let out: Vec<PointId> = (0..30).map(|i| i * 13).collect();
        let mut knn = kept(&g, 8);
        remove_points(&mut knn, &base, &L2, &out);
        let mut served = knn.to_graph().optimize(8, PRUNE_M);
        knn.rederive(&mut served, PRUNE_M);
        for batch in full.points()[400..].chunks(5) {
            base.extend(batch.iter().cloned());
            refine(&mut knn, &served, &base, &L2, params, 2, &[]);
            knn.rederive(&mut served, PRUNE_M);
        }
        assert_eq!(served.len(), 440);
        for graph in [&served, &knn.to_graph()] {
            for v in 0..440 as PointId {
                let row = graph.neighbors(v);
                if out.contains(&v) {
                    assert!(row.is_empty(), "emptied row {v} was refilled");
                } else {
                    assert!(!row.is_empty(), "row {v} lost everything");
                    let dead = row.iter().find(|(u, _)| out.contains(u));
                    assert_eq!(dead, None, "row {v} links to an emptied vertex");
                }
            }
        }
    }

    #[test]
    fn remove_keeps_ids_and_repairs() {
        let base = data(400, 9);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(4));
        let gone: Vec<PointId> = (0..40).map(|i| i * 10).collect();
        let mut knn = kept(&g, 8);
        let shortened = remove_points(&mut knn, &base, &L2, &gone);
        let g2 = knn.to_graph();
        assert_eq!(g2.len(), 400);
        assert!(holders_are_exact(&knn));
        let mut topped_up = 0;
        for v in 0..400 as PointId {
            let (old, row) = (g.neighbors(v), g2.neighbors(v));
            if gone.contains(&v) {
                assert!(row.is_empty(), "removed row {v} kept {row:?}");
                continue;
            }
            assert!(row.iter().all(|(u, _)| !gone.contains(u) && *u != v));
            let lost = old.iter().any(|(u, _)| gone.contains(u));
            assert_eq!(shortened.binary_search(&v).is_ok(), lost, "row {v}");
            if !lost {
                assert_eq!(row, old, "untouched row {v} changed");
            } else {
                // The survivors stay, and a short row is topped back up to k.
                assert!(old.iter().all(|e| gone.contains(&e.0) || row.contains(e)));
                assert_eq!(row.len(), 8, "row {v} left short");
                topped_up += 1;
            }
        }
        assert!(topped_up > 0 && shortened.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn remove_preserves_reasonable_quality() {
        let base = data(400, 11);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(5));
        let gone: Vec<PointId> = (100..150).collect();
        let mut knn = kept(&g, 8);
        remove_points(&mut knn, &base, &L2, &gone);
        let recall = live_recall(&knn.to_graph(), &base, &gone, 8);
        // One repair pass (no descent) should stay in a usable band.
        assert!(recall > 0.7, "post-remove recall {recall}");
    }

    #[test]
    fn remove_then_refine_restores_quality() {
        let base = data(400, 13);
        let params = NnDescentParams::new(8).seed(6);
        let (g, _) = build(&base, &L2, params);
        let gone: Vec<PointId> = (0..80).collect();
        let mut knn = kept(&g, 8);
        let shortened = remove_points(&mut knn, &base, &L2, &gone);
        let g2 = knn.to_graph();
        let repaired = live_recall(&g2, &base, &gone, 8);

        // With every entry flagged old there is nothing to join ...
        let mut same = knn.clone();
        let idle = refine(&mut same, &g2, &base, &L2, params, 3, &[]);
        assert_eq!((same.to_graph(), idle.distance_evals), (g2.clone(), 0));
        // ... the shortened rows flagged new are what the refinement is for.
        assert!(!shortened.is_empty() && shortened.len() < base.len() - gone.len());
        refine(&mut knn, &g2, &base, &L2, params, 3, &shortened);
        let g3 = knn.to_graph();
        let refined = live_recall(&g3, &base, &gone, 8);
        assert!(refined > 0.9, "refined post-remove recall {refined}");
        assert!(refined > repaired, "refinement {repaired} -> {refined}");
        assert!(gone.iter().all(|&v| g3.neighbors(v).is_empty()));
    }

    #[test]
    fn an_orphaned_row_is_refilled_by_brute_force() {
        // Rows 0 <-> 1 and 2 <-> 3 at k = 1. Removing 1 leaves row 0 with
        // no neighbor, and 1's old row names no survivor but 0 itself.
        let base = PointSet::new(vec![vec![0.0f32], vec![1.0], vec![5.0], vec![7.0]]);
        let g = KnnGraph::from_rows(vec![
            vec![(1, 1.0)],
            vec![(0, 1.0)],
            vec![(3, 2.0)],
            vec![(2, 2.0)],
        ]);
        let mut knn = kept(&g, 1);
        let shortened = remove_points(&mut knn, &base, &L2, &[1]);
        assert_eq!(shortened, [0]);
        let g2 = knn.to_graph();
        assert_eq!(g2.neighbors(0), &[(2, 5.0)]);
        assert!(g2.neighbors(1).is_empty());
        refine(
            &mut knn,
            &g2,
            &base,
            &L2,
            NnDescentParams::new(1),
            2,
            &shortened,
        );
        let g3 = knn.to_graph();
        assert!(!g3.neighbors(0).is_empty());
        assert!(g3.neighbors(1).is_empty());
    }

    #[test]
    fn rows_a_knn_graph_cannot_hold_are_refused() {
        let rows = |rows: Vec<Vec<Edge>>| KnnRows::new(&KnnGraph::from_rows(rows), 2).err();
        let two = vec![vec![(1, 1.0)], vec![(0, 1.0)]];
        assert_eq!(rows(two), None);
        let err = rows(vec![vec![(1, 1.0), (1, 2.0)], vec![]]).unwrap();
        assert_eq!(err, "k-NN row 0 cannot hold the edge (1, 2)");
        let err = rows(vec![vec![(0, 1.0)], vec![]]).unwrap();
        assert_eq!(err, "k-NN row 0 cannot hold the edge (0, 1)");
        let err = rows(vec![vec![], vec![(2, 1.0)]]).unwrap();
        assert_eq!(err, "k-NN row 1 cannot hold the edge (2, 1)");
        let three = vec![(1, 1.0), (2, 2.0), (3, 3.0)];
        let err = rows(vec![three, vec![], vec![], vec![]]).unwrap();
        assert_eq!(err, "k-NN row 0 holds 3 entries, k is 2");
    }

    proptest! {
        /// Whatever is deleted, every vertex that stays keeps a row through
        /// the repair and the refinement, as long as `k + 1` stay. Small tight clusters make orphans common: a vertex whose whole
        /// neighborhood is one cluster that the delete set takes.
        #[test]
        fn no_live_row_ends_empty(
            n in 6usize..40,
            k in 1usize..5,
            cluster in prop::collection::vec((0u32..12, 0u32..4), 40),
            doomed in prop::collection::vec(any::<bool>(), 40),
            keep in 0usize..40,
        ) {
            let points = cluster[..n].iter().map(|&(c, j)| vec![c as f32 * 100.0 + j as f32]);
            let base = PointSet::new(points.collect());
            let params = NnDescentParams::new(k).seed(keep as u64);
            let (g, _) = build(&base, &L2, params);
            // The k + 1 vertices from `keep` on (cyclically) stay.
            let stays = |v: usize| (v + n - keep % n) % n <= k;
            let gone: Vec<PointId> = (0..n).filter(|&v| doomed[v] && !stays(v)).map(|v| v as PointId).collect();
            let mut knn = kept(&g, k);
            let shortened = remove_points(&mut knn, &base, &L2, &gone);
            let g2 = knn.to_graph();
            refine(&mut knn, &g2, &base, &L2, params, 2, &shortened);
            let g3 = knn.to_graph();
            for v in 0..n as PointId {
                let dead = gone.contains(&v);
                for g in [&g2, &g3] {
                    prop_assert_eq!(g.neighbors(v).is_empty(), dead, "row {} of {:?}", v, gone);
                    prop_assert!(g.neighbors(v).iter().all(|(u, _)| !gone.contains(u)));
                }
            }
        }
    }

    /// One step of a random mutation sequence, as [`mutations_keep_the_rows_exact`] draws it.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Ingest(usize),
        Delete(usize),
        Compact,
    }

    /// A seeded sequence of ingests, deletes and compactions, as a vector
    /// DB runs them: after every step the refined rows equal the
    /// whole-table descent run on a copy, the holders are exact, the
    /// served graph kept by [`KnnRows::rederive`] equals a full
    /// [`KnnGraph::optimize`] of the rows bit for bit, and no row holds a
    /// compacted vertex.
    fn check_mutations(base: PointSet<Vec<f32>>, n0: usize, k: usize, steps: &[Step], seed: u64) {
        let mut pool = base.points()[n0..].iter().cloned();
        let mut base = PointSet::new(base.points()[..n0].to_vec());
        let (g, _) = build(&base, &L2, NnDescentParams::new(k).seed(seed));
        let mut knn = kept(&g, k);
        let mut served = g.optimize(k, PRUNE_M);
        let (mut tombstones, mut dead): (Vec<PointId>, Vec<PointId>) = (Vec::new(), Vec::new());
        for (i, &step) in steps.iter().enumerate() {
            let params = NnDescentParams::new(k).seed(seed ^ i as u64);
            let iters = 1 + i % 3;
            let shortened = match step {
                Step::Ingest(m) => {
                    base.extend(pool.by_ref().take(m));
                    Vec::new()
                }
                Step::Delete(m) => {
                    let live = (0..base.len() as PointId)
                        .filter(|v| !tombstones.contains(v) && !dead.contains(v));
                    let picked: Vec<PointId> = live.step_by(1 + i).take(m).collect();
                    tombstones.extend(picked);
                    continue;
                }
                Step::Compact => {
                    let shortened = remove_points(&mut knn, &base, &L2, &tombstones);
                    dead.append(&mut tombstones);
                    shortened
                }
            };
            let what = format!("step {i} {step:?} of {steps:?}");
            let (want, want_stats) =
                refine_whole_table(&knn, &served, &base, &L2, params, iters, &shortened);
            let stats = refine(&mut knn, &served, &base, &L2, params, iters, &shortened);
            assert_eq!(stats, want_stats, "{what}");
            assert_eq!(knn.table, want, "{what}");
            assert!(holders_are_exact(&knn), "{what}");
            knn.rederive(&mut served, PRUNE_M);
            assert!(
                same_bits(&served, &knn.to_graph().optimize(k, PRUNE_M)),
                "{what}"
            );
            for v in 0..base.len() as PointId {
                let row = served.neighbors(v);
                let held = row.iter().find(|(u, _)| dead.contains(u));
                assert_eq!(held, None, "{what}: row {v} holds a compacted id");
                assert_eq!(row.is_empty(), dead.contains(&v), "{what}: row {v}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn mutations_keep_the_rows_exact(
            bigann in any::<bool>(),
            seed in 0u64..1_000,
            k in 4usize..11,
            raw in prop::collection::vec((0u8..3, 1usize..9), 4..10),
        ) {
            let (n0, extra) = (160, 80);
            let base = if bigann {
                let bytes = dataset::presets::bigann_like(n0 + extra, seed);
                let widen = |p: &Vec<u8>| p.iter().map(|&x| f32::from(x)).collect();
                PointSet::new(bytes.points().iter().map(widen).collect())
            } else {
                dataset::presets::deep1b_like(n0 + extra, seed)
            };
            let steps: Vec<Step> = raw
                .iter()
                .map(|&(kind, m)| match kind {
                    0 => Step::Ingest(m),
                    1 => Step::Delete(2 * m),
                    _ => Step::Compact,
                })
                .collect();
            check_mutations(base, n0, k, &steps, seed);
        }
    }

    #[test]
    #[should_panic(expected = "base must cover the graph")]
    fn mismatched_sizes_rejected() {
        let base = data(100, 15);
        let (g, _) = build(&base, &L2, NnDescentParams::new(4).seed(7));
        let wrong = PointSet::new(base.points()[..50].to_vec());
        let _ = refine(
            &mut kept(&g, 4),
            &g,
            &wrong,
            &L2,
            NnDescentParams::new(4),
            2,
            &[],
        );
    }
}
