//! Integration: the "massive-scale framework" path — build distributed,
//! persist the graph into a Metall store the way `dnnd-construct` does,
//! reload it, and serve queries with the fully distributed search engine.

use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{brute_force_queries, mean_recall, L2};
use dnnd::{build, distributed_search_batch, DnndConfig};
use metall::Store;
use nnd::{KnnGraph, SearchParams};
use std::sync::Arc;
use ygm::World;

use testutil::TmpDir;

#[test]
fn build_store_reload_serve() {
    let dir = TmpDir::new("e2e");
    let ranks = 4;
    let full = gaussian_mixture(MixtureParams::embedding_like(800, 12), 3);
    let (base, queries) = split_queries(full, 60);
    let base = Arc::new(base);
    let queries = Arc::new(queries);

    // Build + optimize distributed, then persist.
    let out = build(
        &World::new(ranks),
        &base,
        &L2,
        DnndConfig::new(10).seed(7).graph_opt(1.5),
    );
    let mut store = Store::create(&dir).unwrap();
    out.graph.save(&mut store, "opt").unwrap();
    drop(store);

    // Reload from the store alone and serve distributed queries.
    let graph = Arc::new(KnnGraph::load(&Store::open(&dir).unwrap(), "opt").unwrap());
    assert_eq!(graph.as_ref(), &out.graph);
    let truth = brute_force_queries(&base, &queries, &L2, 10);
    let (ids, report) = distributed_search_batch(
        &World::new(ranks),
        &base,
        &graph,
        &queries,
        &L2,
        SearchParams::new(10)
            .epsilon(0.2)
            .entry_candidates(48)
            .seed(0xD15C),
    );
    let recall = mean_recall(&ids, &truth);
    assert!(recall > 0.85, "served recall {recall}");
    assert!(report.sim_secs > 0.0);
}

#[test]
fn serving_ranks_are_independent_of_build_ranks() {
    // The graph built on 4 ranks, stored and reloaded, serves a 2-rank
    // fleet: the partitioner is a pure function of (id, n_ranks), so the
    // answers are the 4-rank fleet's.
    let dir = TmpDir::new("reserve");
    let full = gaussian_mixture(MixtureParams::embedding_like(340, 8), 5);
    let (base, queries) = split_queries(full, 40);
    let (base, queries) = (Arc::new(base), Arc::new(queries));
    let out = build(&World::new(4), &base, &L2, DnndConfig::new(6).seed(9));
    let mut store = Store::create(&dir).unwrap();
    out.graph.save(&mut store, "knng").unwrap();
    let graph = Arc::new(KnnGraph::load(&store, "knng").unwrap());
    assert_eq!(graph.as_ref(), &out.graph);
    let params = SearchParams::new(6)
        .epsilon(0.2)
        .entry_candidates(32)
        .seed(0xD15C);
    let serve = |ranks| {
        distributed_search_batch(&World::new(ranks), &base, &graph, &queries, &L2, params).0
    };
    assert_eq!(serve(2), serve(4));
}

#[test]
fn distributed_queries_amortize_rounds() {
    // The engine advances all live queries one expansion per global round,
    // so rounds (and their barrier cost) are *shared* across the batch:
    // 4x the queries must cost far less than 4x the virtual time.
    let full = gaussian_mixture(MixtureParams::embedding_like(700, 12), 11);
    let (base, queries) = split_queries(full, 120);
    let base = Arc::new(base);
    let out = build(
        &World::new(4),
        &base,
        &L2,
        DnndConfig::new(8).seed(3).graph_opt(1.5),
    );
    let graph = Arc::new(out.graph);
    let small = Arc::new(dataset::PointSet::new(queries.points()[..30].to_vec()));
    let large = Arc::new(queries);
    let params = SearchParams::new(8)
        .epsilon(0.2)
        .entry_candidates(32)
        .seed(0xD15C);
    let (_, r_small) = distributed_search_batch(&World::new(4), &base, &graph, &small, &L2, params);
    let (_, r_large) = distributed_search_batch(&World::new(4), &base, &graph, &large, &L2, params);
    assert!(
        r_large.sim_secs < r_small.sim_secs * 3.0,
        "4x queries should cost << 4x time: {} -> {}",
        r_small.sim_secs,
        r_large.sim_secs
    );
}
