//! Criterion end-to-end construction benchmarks: shared-memory NN-Descent,
//! distributed DNND (optimized and unoptimized protocols), and the HNSW
//! baseline, on one small DEEP-like workload. These are the microscale
//! versions of Figure 3's measurements. The `ingest` group is the mutation
//! path of a `vdb::Collection` — what a served insert or compaction costs
//! once the graph exists.

use criterion::{criterion_group, criterion_main, Criterion};
use dataset::metric::L2;
use dataset::presets;
use dnnd::{build as dnnd_build, CommOpts, DnndConfig};
use hnsw::{HnswIndex, HnswParams};
use nnd::{build as nnd_build, NnDescentParams};
use std::sync::Arc;
use vdb::{Collection, MetaRecord};
use ygm::World;

const N: usize = 400;
const K: usize = 10;

fn bench_shared_memory(c: &mut Criterion) {
    let set = presets::deep1b_like(N, 3);
    let mut group = c.benchmark_group("construction");
    group.bench_function("nnd_shared_memory", |b| {
        b.iter(|| nnd_build(&set, &L2, NnDescentParams::new(K).seed(1)))
    });
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let set = Arc::new(presets::deep1b_like(N, 3));
    let mut group = c.benchmark_group("construction");
    group.bench_function("dnnd_4ranks_optimized", |b| {
        b.iter(|| {
            dnnd_build(
                &World::new(4),
                &set,
                &L2,
                DnndConfig::new(K).seed(1).comm_opts(CommOpts::optimized()),
            )
        })
    });
    group.bench_function("dnnd_4ranks_unoptimized", |b| {
        b.iter(|| {
            dnnd_build(
                &World::new(4),
                &set,
                &L2,
                DnndConfig::new(K)
                    .seed(1)
                    .comm_opts(CommOpts::unoptimized()),
            )
        })
    });
    group.finish();
}

fn bench_hnsw(c: &mut Criterion) {
    let set = presets::deep1b_like(N, 3);
    let mut group = c.benchmark_group("construction");
    group.bench_function("hnsw_m16_efc50", |b| {
        b.iter(|| HnswIndex::build(&set, L2, HnswParams::new(16, 50).seed(1)))
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    let collection = |n: usize| {
        let meta = (0..n as u64).map(|id| MetaRecord::bucket_record(3, id));
        Collection::create("b", presets::deep1b_like(n, 3), meta.collect(), "l2", K, 1)
            .expect("valid collection")
    };
    let extra = presets::deep1b_like(1, 4).point(0).clone();
    // One point into a collection. `ingest` mutates, so each iteration
    // works on a clone; `clone_*` times that clone alone.
    for n in [300usize, 1_200] {
        let col = collection(n);
        group.bench_function(format!("clone_n{n}"), |b| b.iter(|| col.clone()));
        group.bench_function(format!("one_point_n{n}"), |b| {
            b.iter(|| {
                let mut col = col.clone();
                let rec = MetaRecord::bucket_record(3, n as u64);
                col.ingest(vec![extra.clone()], vec![rec]).expect("ingest");
                col
            })
        });
    }
    let mut col = collection(300);
    col.delete(&(0..300).step_by(12).collect::<Vec<_>>())
        .expect("delete");
    group.bench_function("compact_n300_25_tombstones", |b| {
        b.iter(|| {
            let mut col = col.clone();
            col.compact().expect("compact");
            col
        })
    });
    let (raw, _) = nnd_build(
        &presets::deep1b_like(300, 3),
        &L2,
        NnDescentParams::new(K).seed(1),
    );
    group.bench_function("optimize_n300", |b| b.iter(|| raw.optimize(K, 1.5)));
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
    targets = bench_shared_memory, bench_distributed, bench_hnsw, bench_ingest
}
criterion_main!(benches);
