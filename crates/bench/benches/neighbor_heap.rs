//! Criterion micro-benchmarks for the bounded neighbor rows — the data
//! structure every neighbor-check update (Algorithm 1's `Update`) hits:
//! one owned row ([`NeighborHeap`]) and the builders' `k`-strided
//! [`NeighborTable`].

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nnd::{NeighborHeap, NeighborTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_heap_insert");
    for k in [10usize, 30, 100] {
        // Pre-generate a realistic candidate stream: mostly rejected once
        // the heap saturates, as in late NN-Descent iterations.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stream: Vec<(u32, f32)> = (0..1_000)
            .map(|_| (rng.gen_range(0..5_000), rng.gen::<f32>()))
            .collect();
        group.bench_with_input(BenchmarkId::new("stream_1k", k), &k, |bench, &k| {
            bench.iter(|| {
                let mut h = NeighborHeap::new(k);
                for &(id, d) in &stream {
                    black_box(h.checked_insert(id, d, true));
                }
                h.len()
            })
        });
    }
    group.finish();
}

fn bench_reject_path(c: &mut Criterion) {
    // A full heap offered only candidates farther than its root: where a
    // descent spends most of its inserts, and the case the bound-first order
    // changes (one compare instead of a scan of all `k` ids).
    let mut group = c.benchmark_group("reject_path");
    for k in [10usize, 30, 100] {
        let mut h = NeighborHeap::new(k);
        for id in 0..k as u32 {
            h.checked_insert(id, id as f32 / k as f32, true);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let stream: Vec<(u32, f32)> = (0..1_000)
            .map(|_| (rng.gen_range(k as u32..5_000), 1.0 + rng.gen::<f32>()))
            .collect();
        group.bench_with_input(BenchmarkId::new("stream_1k", k), &k, |bench, _| {
            bench.iter(|| {
                let mut stored = 0u32;
                for &(id, d) in &stream {
                    stored += u32::from(h.checked_insert(black_box(id), d, true));
                }
                assert_eq!(stored, 0, "every candidate is farther than the root");
                stored
            })
        });
    }
    group.finish();
}

fn bench_table_random_rows(c: &mut Criterion) {
    // The descent's access pattern: 4 000 rows and each insert lands in a
    // random one (100 offers per row, most of them losers once it is full).
    // The same stream into the table — one allocation, losers answered from
    // the bounds column — and into separately allocated heaps.
    const ROWS: usize = 4_000;
    const K: usize = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let stream: Vec<(usize, u32, f32)> = (0..100 * ROWS)
        .map(|_| {
            let id = rng.gen_range(0..ROWS as u32);
            (rng.gen_range(0..ROWS), id, rng.gen::<f32>())
        })
        .collect();
    let mut group = c.benchmark_group("table_random_rows");
    group.bench_function("table", |bench| {
        bench.iter(|| {
            let mut table = NeighborTable::new(ROWS, K);
            let mut stored = 0u32;
            for &(row, id, d) in &stream {
                stored += u32::from(table.insert(row, id, d, true));
            }
            stored
        })
    });
    group.bench_function("vec_of_heaps", |bench| {
        bench.iter(|| {
            let mut heaps: Vec<NeighborHeap> = (0..ROWS).map(|_| NeighborHeap::new(K)).collect();
            let mut stored = 0u32;
            for &(row, id, d) in &stream {
                stored += u32::from(heaps[row].checked_insert(id, d, true));
            }
            stored
        })
    });
    group.finish();
}

fn bench_sample_path(c: &mut Criterion) {
    // The per-iteration flag scan + sorted extraction.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut h = NeighborHeap::new(30);
    for _ in 0..200 {
        h.checked_insert(rng.gen_range(0..10_000), rng.gen::<f32>(), rng.gen());
    }
    c.bench_function("neighbor_heap_flag_scan_and_sort", |bench| {
        bench.iter(|| {
            let news = h.flagged_ids(true);
            let sorted = h.sorted();
            black_box((news.len(), sorted.len()))
        })
    });
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
    targets = bench_inserts, bench_reject_path, bench_table_random_rows, bench_sample_path
}
criterion_main!(benches);
