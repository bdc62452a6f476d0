//! Criterion benchmarks of the query path: one-shot [`nnd::search`] (fresh
//! scratch per call) against [`nnd::search_batch`] (one scratch and one
//! norm cache per batch), and the epsilon sweep's cost shape (the per-point
//! version of Figure 2's qps axis).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dataset::metric::L2;
use dataset::presets;
use dataset::synth::split_queries;
use dataset::PointSet;
use nnd::{build, search, search_batch, KnnGraph, NnDescentParams, SearchParams};

/// 2 000 base points, 64 held-out queries, optimized graph.
fn setup() -> (PointSet<Vec<f32>>, PointSet<Vec<f32>>, KnnGraph) {
    let (base, queries) = split_queries(presets::deep1b_like(2_064, 3), 64);
    let (g, _) = build(&base, &L2, NnDescentParams::new(10).seed(1));
    (base, queries, g.optimize(10, 1.5))
}

fn bench_search_vs_batch(c: &mut Criterion) {
    let (base, queries, graph) = setup();
    let params = SearchParams::new(10).epsilon(0.2).entry_candidates(32);
    let mut group = c.benchmark_group("query_path");
    group.bench_function("one_shot_search_x64", |b| {
        b.iter(|| {
            for q in queries.points() {
                black_box(search(&graph, &base, &L2, q, params));
            }
        })
    });
    group.bench_function("search_batch_64", |b| {
        b.iter(|| black_box(search_batch(&graph, &base, &L2, &queries, params)))
    });
    group.finish();
}

fn bench_epsilon_cost(c: &mut Criterion) {
    let (base, queries, graph) = setup();
    let mut group = c.benchmark_group("query_epsilon");
    for eps in [0.0f32, 0.2, 0.4] {
        let params = SearchParams::new(10).epsilon(eps).entry_candidates(32);
        group.bench_with_input(
            BenchmarkId::new("eps", format!("{eps:.1}")),
            &eps,
            |b, _| b.iter(|| black_box(search_batch(&graph, &base, &L2, &queries, params))),
        );
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_search_vs_batch, bench_epsilon_cost
}
criterion_main!(benches);
