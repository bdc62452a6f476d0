//! Property tests of the paper's Section 4.5 optimization step,
//! `KnnGraph::optimize`: reverse-merge and pruning in one pass. A merged
//! row holds distinct ids, so `optimize(g.len(), 1.0)` cuts no row and is
//! the whole merge.

use dataset::order::sort_edges;
use nnd::graph::KnnGraph;
use proptest::prelude::*;

/// A random small directed graph as adjacency rows of (target, dist), with
/// no self loops or duplicate targets per row.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = KnnGraph> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec(prop::collection::vec((0..n as u32, 0.0f32..100.0), 0..6), n)
            .prop_map(move |mut rows| {
                for (v, row) in rows.iter_mut().enumerate() {
                    row.retain(|&(u, _)| u as usize != v);
                    row.sort_by_key(|&(u, _)| u);
                    row.dedup_by_key(|&mut (u, _)| u);
                }
                KnnGraph::from_rows(rows)
            })
    })
}

/// Rows as they come: self loops, a target repeated within a row, and
/// distances on a coarse grid so exact ties (and a forward edge whose
/// reverse copy is closer, farther or equal) are common.
fn unclean_graph_strategy(max_n: usize) -> impl Strategy<Value = KnnGraph> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec(prop::collection::vec((0..n as u32, 0u32..8), 0..8), n).prop_map(
            |rows| {
                let grid = |row: Vec<(u32, u32)>| row.into_iter().map(|(u, d)| (u, d as f32 * 0.5));
                KnnGraph::from_rows(rows.into_iter().map(|row| grid(row).collect()).collect())
            },
        )
    })
}

/// `KnnGraph::optimize` as it was before it became one pass: append the
/// reverse edges, group by id keeping the closest copy, sort again, keep
/// the `limit` closest.
fn optimize_reference(g: &KnnGraph, limit: usize) -> KnnGraph {
    let mut rows: Vec<Vec<(u32, f32)>> = (0..g.len() as u32)
        .map(|v| g.neighbors(v).to_vec())
        .collect();
    for v in 0..g.len() as u32 {
        for &(u, d) in g.neighbors(v) {
            rows[u as usize].push((v, d));
        }
    }
    for row in &mut rows {
        row.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
        row.dedup_by_key(|&mut (id, _)| id);
        sort_edges(row);
        row.truncate(limit);
    }
    KnnGraph::from_rows(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_merge_equals_the_reference(
        clean in graph_strategy(24),
        unclean in unclean_graph_strategy(16),
        k in 1usize..7,
        m_tenths in 10u32..31,
    ) {
        let m = f64::from(m_tenths) / 10.0;
        let limit = (k as f64 * m).ceil() as usize;
        for g in [clean, unclean] {
            prop_assert_eq!(g.optimize(g.len(), 1.0), optimize_reference(&g, usize::MAX));
            prop_assert_eq!(g.optimize(k, m), optimize_reference(&g, limit));
        }
    }

    #[test]
    fn merge_superset_and_symmetric(g in graph_strategy(20)) {
        let m = g.optimize(g.len(), 1.0);
        // Every original edge survives the merge.
        for v in 0..g.len() as u32 {
            for &(u, _) in g.neighbors(v) {
                prop_assert!(
                    m.neighbors(v).iter().any(|&(x, _)| x == u),
                    "edge {v}->{u} lost in merge"
                );
            }
        }
        // The merged graph is symmetric as an unweighted graph.
        for v in 0..m.len() as u32 {
            for &(u, _) in m.neighbors(v) {
                prop_assert!(
                    m.neighbors(u).iter().any(|&(x, _)| x == v),
                    "merge not symmetric at {v}<->{u}"
                );
            }
        }
        // No duplicates per row.
        for v in 0..m.len() as u32 {
            let ids: Vec<u32> = m.neighbors(v).iter().map(|&(u, _)| u).collect();
            let mut d = ids.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert_eq!(d.len(), ids.len());
        }
    }

    #[test]
    fn optimize_bounds_max_degree(g in graph_strategy(20), k in 1usize..6) {
        let opt = g.optimize(k, 1.5);
        let limit = ((k as f64) * 1.5).ceil() as usize;
        prop_assert!(opt.max_degree() <= limit, "degree {} > {}", opt.max_degree(), limit);
    }

    #[test]
    fn rows_always_sorted_by_distance(g in graph_strategy(24)) {
        for graph in [g.optimize(g.len(), 1.0), g.optimize(3, 1.5)] {
            for v in 0..graph.len() as u32 {
                let row = graph.neighbors(v);
                prop_assert!(row.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    #[test]
    fn save_load_round_trips(g in graph_strategy(16), case in any::<u64>()) {
        let dir = testutil::TmpDir::new(&format!("nnd-graph-prop-{case}"));
        let mut store = metall::Store::create(dir.path()).unwrap();
        g.save(&mut store, "g").unwrap();
        let back = KnnGraph::load(&store, "g").unwrap();
        prop_assert_eq!(back, g);
    }
}
