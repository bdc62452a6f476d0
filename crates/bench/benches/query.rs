//! Criterion benchmarks of the query path: one-shot [`nnd::search`] (fresh
//! scratch per call) against [`nnd::search_batch`] (one scratch and one
//! norm cache per batch), and the epsilon sweep's cost shape (the per-point
//! version of Figure 2's qps axis); plus the two layers a query pays for
//! besides its f32 distance evaluations: one entry-point draw
//! ([`nnd::EntrySampler`]) and the same batch over `u8` vectors (the
//! integer kernel of `dataset::kernel`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dataset::metric::L2;
use dataset::presets;
use dataset::synth::split_queries;
use dataset::PointSet;
use nnd::{build, search, search_batch, EntrySampler, KnnGraph, NnDescentParams, SearchParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// One query's entry-point draw, seeding its generator included (as both
/// search paths do per query): `dnnd-bench`'s 256 of 4 000, and a draw of
/// `l` alone.
fn bench_entry_sample(c: &mut Criterion) {
    let mut sampler = EntrySampler::new(4_000);
    let mut out = Vec::new();
    let mut group = c.benchmark_group("entry_sample");
    for amount in [256usize, 10] {
        group.bench_with_input(
            BenchmarkId::new("of_4000", amount),
            &amount,
            |b, &amount| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    sampler.draw(&mut ChaCha8Rng::seed_from_u64(seed), amount, &mut out);
                    black_box(out.last().copied())
                })
            },
        );
    }
    group.finish();
}

/// `search_batch` over BigANN-like `u8` vectors at `dnnd-bench`'s search
/// parameters: the loop of `query_path` on the integer kernel.
fn bench_search_batch_u8(c: &mut Criterion) {
    let (base, queries) = split_queries(presets::bigann_like(2_064, 3), 64);
    let (g, _) = build(&base, &L2, NnDescentParams::new(10).seed(1));
    let graph = g.optimize(10, 1.5);
    let mut group = c.benchmark_group("search_batch_u8");
    for entries in [32usize, 256] {
        let params = SearchParams::new(10).epsilon(0.2).entry_candidates(entries);
        group.bench_with_input(BenchmarkId::new("entries", entries), &entries, |b, _| {
            b.iter(|| black_box(search_batch(&graph, &base, &L2, &queries, params)))
        });
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
    targets = bench_search_vs_batch, bench_epsilon_cost, bench_entry_sample,
        bench_search_batch_u8
}
criterion_main!(benches);
