//! Incremental graph maintenance — the paper's Section 7 future work:
//!
//! > "Employing Metall will facilitate rapid graph updates ... new data
//! > points may be added/deleted, followed by a short graph refinement
//! > phase, which will fit NN-Descent's iterative nature well."
//!
//! That nature is Algorithm 1's new/old flag: a pair is joined once. So a
//! refinement seeds one neighbor table with `(id, distance, flag)` — what the
//! graph already stores, flagged *old* — and flags *new* only what changed: the
//! edges of an inserted point, or the rows a deletion shortened. The descent
//! loop it then enters is [`crate::nndescent`]'s own, and its cost follows
//! the flagged entries, not `N`. [`refine()`] grows and re-converges a graph
//! this way; [`remove_points`] takes vertices out of it without renumbering
//! the rest and repairs the rows they leave short, returning the rows
//! [`refine()`] should flag.

use crate::graph::{Edge, KnnGraph};
use crate::heap::NeighborTable;
use crate::nndescent::{check_k, descend, BuildStats, NnDescentParams, Theta};
use crate::search::{Scratch, SearchParams};
use dataset::batch::{BatchMetric, NormCache};
use dataset::metric::Metric;
use dataset::order::sort_edges;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};

/// The short refinement phase: `graph` covers the first `graph.len()`
/// points of `base`, the rest are new, and `shortened` names rows that lost
/// entries to a deletion — the rows [`remove_points`] returns. At most
/// `refine_iters` NN-Descent iterations run over a table seeded as follows.
///
/// * An existing vertex keeps the `params.k` closest stored `(id, distance)`
///   of its row, flagged **old**: nothing is re-evaluated and a short row is
///   not topped up. The rows in `shortened` are flagged **new** instead, so
///   the first iteration joins their neighbors with each other and offers
///   the vertex to its neighbors' neighborhoods.
/// * A new point is located by [`crate::search()`] in `graph`; its hits
///   enter its row flagged new and the same edge is offered back to each
///   hit, also new.
/// * **An empty row means the vertex is out of the graph** (what
///   [`remove_points`] leaves behind): it stays empty, is never a hit, and
///   an entry pointing at it is dropped. No row of the result references a
///   vertex whose row is empty.
///
/// One iteration is therefore the joins around the flagged entries —
/// a few hundred evaluations per inserted point whatever `N` is — and
/// `distance_evals` counts them and the searches. With no new point and no
/// shortened row it evaluates nothing and returns the rows' `k` closest
/// entries. To re-flag a whole graph, use [`crate::build_with_init`] with
/// its neighbor ids.
pub fn refine<P: Point, M: BatchMetric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    params: NnDescentParams,
    refine_iters: usize,
    shortened: &[PointId],
) -> (KnnGraph, BuildStats) {
    let (n_old, n, k) = (graph.len(), base.len(), params.k);
    assert!(n >= n_old, "base must cover the graph");
    let verdict = params.validate().and_then(|()| check_k(k, n));
    verdict.unwrap_or_else(|e| panic!("invalid NnDescentParams: {e}"));
    // Out of the graph: a row the input has empty, or does not have yet.
    let out = |u: PointId| graph.rows.get(u as usize).is_none_or(Vec::is_empty);

    // New points are located in the input graph, given an empty row each
    // so that it covers `base`.
    let mut hits: Vec<Vec<Edge>> = Vec::new();
    let mut search_evals = 0;
    if n > n_old {
        let mut rows = graph.rows.clone();
        rows.resize(n, Vec::new());
        let (located, mut scratch) = (KnnGraph { rows }, Scratch::new(n));
        for v in n_old as PointId..n as PointId {
            let probe = SearchParams::new(k.min(n_old))
                .epsilon(0.2)
                .entry_candidates(4 * k)
                .seed(params.seed ^ u64::from(v));
            let cache = NormCache::empty();
            let found = scratch.run(&located, base, metric, &cache, base.point(v), probe);
            search_evals += found.distance_evals;
            hits.push(found.neighbors);
        }
    }

    let mut flag_new = vec![false; n];
    for &v in shortened {
        flag_new[v as usize] = true;
    }
    let mut table = NeighborTable::new(n, k);
    for (v, row) in graph.rows.iter().enumerate() {
        for &(u, d) in row.iter().filter(|&&(u, _)| !out(u)).take(k) {
            table.insert(v, u, d, flag_new[v]);
        }
    }
    for (v, found) in (n_old as PointId..).zip(hits) {
        for (u, d) in found.into_iter().filter(|&(u, _)| !out(u)) {
            table.insert(v as usize, u, d, true);
            table.insert(u as usize, v, d, true);
        }
    }

    // Norms are not cached: that is a pass over all `N` vectors, and the
    // descent touches a few hundred.
    // One worker: a vector DB refines inside a `ygm` rank (ingest and
    // compaction in `serve`), which must stay one OS thread.
    let mut theta = Theta::new(base, metric, NormCache::empty());
    let mut stats = descend(&mut theta, &mut table, params.max_iters(refine_iters), 1);
    stats.distance_evals += search_evals;
    (KnnGraph::from_table(&table), stats)
}

/// Take the vertices in `gone` out of `graph` without renumbering: their
/// rows are emptied and no row keeps an edge to them. A row left below `k`
/// is topped up from its *old* row's two-hop neighborhood — through gone
/// neighbors too, whose old rows still name survivors — scored by
/// [`Metric::distance`] and admitted in `(distance, id)` order. A row that
/// neighborhood leaves empty is refilled with its `k` nearest vertices that
/// are neither in `gone` nor already out of the graph, by brute force: no
/// vertex that stays leaves the graph. Returns the result and the rows that
/// lost an entry, ascending: the `shortened` argument of the [`refine()`]
/// that restores quality.
pub fn remove_points<P: Point, M: Metric<P>>(
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    gone: &[PointId],
    k: usize,
) -> (KnnGraph, Vec<PointId>) {
    let mut out = vec![false; graph.len()];
    for &v in gone {
        out[v as usize] = true;
    }
    let mut shortened = Vec::new();
    let rows = (0..graph.len() as PointId)
        .map(|v| {
            if out[v as usize] {
                return Vec::new();
            }
            let old = graph.neighbors(v);
            let mut row: Vec<Edge> = (old.iter().copied())
                .filter(|&(u, _)| !out[u as usize])
                .collect();
            if row.len() == old.len() {
                return row;
            }
            shortened.push(v);
            if row.len() < k {
                let mut candidates: Vec<PointId> = Vec::new();
                for &(u, _) in old {
                    for &(w, _) in graph.neighbors(u) {
                        if w != v
                            && !out[w as usize]
                            && !row.iter().any(|&(x, _)| x == w)
                            && !candidates.contains(&w)
                        {
                            candidates.push(w);
                        }
                    }
                }
                let me = base.point(v);
                let dist = |w: PointId| metric.distance(me, base.point(w));
                top_up(&mut row, k, candidates, dist);
                if row.is_empty() {
                    // Orphaned: every old neighbor is gone and their rows
                    // name no survivor. An empty row would put `v` out of
                    // the graph for good, so it takes its `k` nearest
                    // vertices still in the graph, by brute force.
                    let rest = (0..graph.len() as PointId)
                        .filter(|&w| w != v && !out[w as usize] && !graph.neighbors(w).is_empty());
                    top_up(&mut row, k, rest.collect(), dist);
                }
            }
            row
        })
        .collect();
    (KnnGraph::from_rows(rows), shortened)
}

/// Top a row that a deletion left short up to `k` edges with the closest of
/// `candidates` under `dist`, and put it back in `(distance, id)` order.
fn top_up(row: &mut Vec<Edge>, k: usize, candidates: Vec<PointId>, dist: impl Fn(PointId) -> f32) {
    let mut scored: Vec<Edge> = candidates.into_iter().map(|w| (w, dist(w))).collect();
    sort_edges(&mut scored);
    row.extend(scored.into_iter().take(k.saturating_sub(row.len())));
    sort_edges(row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::build;
    use dataset::ground_truth::brute_force_knng;
    use dataset::metric::L2;
    use dataset::recall::mean_recall;
    use dataset::synth::{gaussian_mixture, MixtureParams};
    use proptest::prelude::*;

    fn data(n: usize, seed: u64) -> PointSet<Vec<f32>> {
        gaussian_mixture(MixtureParams::embedding_like(n, 12), seed)
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

    #[test]
    fn insert_extends_graph_with_high_recall() {
        let full = data(700, 3);
        let old = PointSet::new(full.points()[..500].to_vec());
        let params = NnDescentParams::new(8).seed(1);
        let (g_old, _) = build(&old, &L2, params);
        let (g_new, stats) = refine(&g_old, &full, &L2, params, 4, &[]);
        assert_eq!(g_new.len(), 700);
        let truth = brute_force_knng(&full, &L2, 8);
        let recall = mean_recall(&g_new.neighbor_ids(), &truth);
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
        let (_, refine_stats) = refine(&g_old, &full, &L2, params, 3, &[]);
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
                let (grown, stats) = refine(&g, &full, &L2, params, 1, &[]);
                assert_eq!(grown.neighbors(n as PointId).len(), 10, "n = {n}");
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
        let (g2, stats) = refine(&g, &base, &L2, params, 2, &[]);
        assert_eq!(stats.distance_evals, 0);
        assert_eq!(g2, g);
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
        let (removed, _) = remove_points(&g, &base, &L2, &out, 8);
        let mut graph = removed.optimize(8, 1.5);
        for batch in full.points()[400..].chunks(5) {
            base.extend(batch.iter().cloned());
            let (grown, _) = refine(&graph, &base, &L2, params, 2, &[]);
            graph = grown.optimize(8, 1.5);
        }
        assert_eq!(graph.len(), 440);
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

    #[test]
    fn remove_keeps_ids_and_repairs() {
        let base = data(400, 9);
        let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(4));
        let gone: Vec<PointId> = (0..40).map(|i| i * 10).collect();
        let (g2, shortened) = remove_points(&g, &base, &L2, &gone, 8);
        assert_eq!(g2.len(), 400);
        let mut topped_up = 0;
        for v in 0..400 as PointId {
            let (old, row) = (g.neighbors(v), g2.neighbors(v));
            if gone.contains(&v) {
                assert!(row.is_empty(), "removed row {v} kept {row:?}");
                continue;
            }
            assert!(row.iter().all(|(u, _)| !gone.contains(u) && *u != v));
            assert!(row.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
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
        let (g2, _) = remove_points(&g, &base, &L2, &gone, 8);
        let recall = live_recall(&g2, &base, &gone, 8);
        // One repair pass (no descent) should stay in a usable band.
        assert!(recall > 0.7, "post-remove recall {recall}");
    }

    #[test]
    fn remove_then_refine_restores_quality() {
        let base = data(400, 13);
        let params = NnDescentParams::new(8).seed(6);
        let (g, _) = build(&base, &L2, params);
        let gone: Vec<PointId> = (0..80).collect();
        let (g2, shortened) = remove_points(&g, &base, &L2, &gone, 8);
        let repaired = live_recall(&g2, &base, &gone, 8);

        // With every entry flagged old there is nothing to join ...
        let (same, idle) = refine(&g2, &base, &L2, params, 3, &[]);
        assert_eq!((same, idle.distance_evals), (g2.clone(), 0));
        // ... the shortened rows flagged new are what the refinement is for.
        assert!(!shortened.is_empty() && shortened.len() < base.len() - gone.len());
        let (g3, _) = refine(&g2, &base, &L2, params, 3, &shortened);
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
        let (g2, shortened) = remove_points(&g, &base, &L2, &[1], 1);
        assert_eq!(shortened, [0]);
        assert_eq!(g2.neighbors(0), &[(2, 5.0)]);
        assert!(g2.neighbors(1).is_empty());
        let (g3, _) = refine(&g2, &base, &L2, NnDescentParams::new(1), 2, &shortened);
        assert!(!g3.neighbors(0).is_empty());
        assert!(g3.neighbors(1).is_empty());
    }

    proptest! {
        /// Whatever is deleted, every vertex that stays keeps a row through
        /// the repair and the refinement, as long as `k + 1` stay. Small
        /// tight clusters make orphans common: a vertex whose whole
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
            let (g2, shortened) = remove_points(&g, &base, &L2, &gone, k);
            let (g3, _) = refine(&g2, &base, &L2, params, 2, &shortened);
            for v in 0..n as PointId {
                let dead = gone.contains(&v);
                for g in [&g2, &g3] {
                    prop_assert_eq!(g.neighbors(v).is_empty(), dead, "row {} of {:?}", v, gone);
                    prop_assert!(g.neighbors(v).iter().all(|(u, _)| !gone.contains(u)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "base must cover the graph")]
    fn mismatched_sizes_rejected() {
        let base = data(100, 15);
        let (g, _) = build(&base, &L2, NnDescentParams::new(4).seed(7));
        let wrong = PointSet::new(base.points()[..50].to_vec());
        let _ = refine(&g, &wrong, &L2, NnDescentParams::new(4), 2, &[]);
    }
}
