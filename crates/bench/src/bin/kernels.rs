//! `kernels` — microbenchmark for the batched distance-kernel subsystem.
//!
//! For every metric x dimension cell this driver times three ways of
//! evaluating the same query-against-candidates workload:
//!
//! * **scalar**: the documented per-pair reference path — dispatch forced
//!   to [`kernel::Dispatch::Scalar`], no norm cache, one
//!   [`Metric::distance`] call per pair (what every hot loop did before
//!   the batched rework);
//! * **batched**: whatever SIMD path the host dispatches, plus the
//!   cached-norm preprocessing, through
//!   [`BatchMetric::distance_one_to_many`] — the path the engine and search
//!   use;
//! * **M×N**: the same host path through
//!   [`BatchMetric::distance_many_to_many`], all queries against all
//!   candidates in one call — the shape the brute-force ground truth takes;
//! * **block** (`l2`, `sq_l2`, `l2_u8` only): the same host path through
//!   [`BatchMetric::distance_members_to_many`], eight member heads against
//!   a 16-candidate tail per call — the shape of NN-Descent's local join.
//!
//! All of them must agree **bit for bit** (asserted inline on every run:
//! the determinism contract of `dataset::kernel`), so the only difference
//! is speed. Results go into a RunReport-schema JSON whose `extra` map
//! carries, per cell: `<metric>.d<dim>.scalar_ns_per_pair`,
//! `.batch_ns_per_pair`, `.mxn_ns_per_pair`, `.block_ns_per_pair` (where
//! timed), `.speedup`, and `.batch_gflops` — the committed baseline lives
//! in `BENCH_4.json` and CI soft-diffs candidates against it with
//! `dnnd-report-diff`.
//!
//! `--smoke` keeps every workload size identical (so `distance_evals` is
//! the same number in both modes) but runs fewer timing reps, validates a
//! JSON schema round-trip, and asserts the batched path is at least as
//! fast as scalar for the cached-norm metrics at dim >= 64.
//!
//! ```text
//! cargo run --release -p bench --bin kernels -- --report-out BENCH_4.json
//! cargo run --release -p bench --bin kernels -- --smoke --report-out /tmp/k.json
//! ```

use bench::{Args, ObsOuts, Table};
use dataset::batch::BatchMetric;
use dataset::kernel;
use dataset::metric::{Cosine, Hamming, InnerProduct, SquaredL2, L1, L2};
use dataset::set::{PointId, PointSet};
use obs::report::RunReport;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Candidate-set size per cell (the `N` of each 1xN batched call).
const CANDS: usize = 1024;
/// Queries per rep: every query runs one full 1xN batch (or N scalar
/// pairs), so one rep evaluates `QUERIES * CANDS` pairs per path.
const QUERIES: usize = 32;
/// Join heads per block call, and the tail they share.
const HEADS: usize = 8;
const TAIL: usize = 16;
/// Dimension sweep: one sub-lane width, then sizes crossing the 8-lane
/// boundary every way the engine's datasets do.
const DIMS: &[usize] = &[8, 64, 100, 300, 960];

/// One timed cell.
struct Cell {
    metric: &'static str,
    dim: usize,
    scalar_ns_per_pair: f64,
    batch_ns_per_pair: f64,
    mxn_ns_per_pair: f64,
    /// The local join's shape, for the metrics it is timed on.
    block_ns_per_pair: Option<f64>,
    /// Approximate FLOPs per pair / batched time (dot-form metrics do
    /// ~2*dim useful floating-point ops per pair).
    batch_gflops: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_pair / self.batch_ns_per_pair
    }
}

fn gen_f32(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn gen_u8(n: usize, dim: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<u8>()).collect())
        .collect()
}

/// Time `reps` runs of `f` (which must evaluate `pairs` pairs) and return
/// the best-of ns/pair — best-of filters scheduler noise, which matters
/// on the shared CI hosts this runs on.
fn best_ns_per_pair(reps: usize, pairs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    best
}

/// Bench one metric over one point type: scalar per-pair loop vs batched
/// 1xN calls vs one MxN call, with an inline bit-identity check between the
/// paths.
fn bench_cell<P, M>(
    name: &'static str,
    m: &M,
    queries: &[P],
    set: &PointSet<P>,
    reps: usize,
) -> Cell
where
    P: dataset::point::Point,
    M: BatchMetric<P>,
{
    let dim = set.dim();
    let ids: Vec<PointId> = (0..set.len() as PointId).collect();
    let pairs = queries.len() * ids.len();

    // Scalar reference: forced scalar dispatch, per-pair distance calls.
    let before = kernel::dispatch();
    kernel::force_dispatch(Some(kernel::Dispatch::Scalar));
    let mut scalar_out: Vec<f32> = vec![0.0; pairs];
    let scalar_ns = best_ns_per_pair(reps, pairs, || {
        for (qi, q) in queries.iter().enumerate() {
            for (ci, &u) in ids.iter().enumerate() {
                scalar_out[qi * ids.len() + ci] = m.distance(q, set.point(u));
            }
        }
    });
    kernel::force_dispatch(Some(before));

    // Batched path: host dispatch + cached norms.
    let cache = m.preprocess(set);
    let mut batch_out: Vec<f32> = Vec::with_capacity(ids.len());
    let mut sink = 0u32; // defeat dead-code elimination across reps
    let batch_ns = best_ns_per_pair(reps, pairs, || {
        for q in queries {
            m.distance_one_to_many(q, set, &cache, &ids, &mut batch_out);
            sink ^= batch_out[0].to_bits();
        }
    });
    let mut mxn_out: Vec<f32> = Vec::with_capacity(pairs);
    let mxn_ns = best_ns_per_pair(reps, pairs, || {
        m.distance_many_to_many(queries, set, &cache, &ids, &mut mxn_out);
        sink ^= mxn_out[0].to_bits();
    });
    std::hint::black_box(sink);

    // Determinism contract: the batched path (any dispatch, cached norms)
    // is bit-identical to the scalar per-pair reference.
    for (qi, q) in queries.iter().enumerate() {
        m.distance_one_to_many(q, set, &cache, &ids, &mut batch_out);
        for (ci, d) in batch_out.iter().enumerate() {
            assert_eq!(
                d.to_bits(),
                scalar_out[qi * ids.len() + ci].to_bits(),
                "{name} d{dim}: batched result differs from scalar reference at q{qi} c{ci}"
            );
        }
    }
    for (i, (d, s)) in mxn_out.iter().zip(&scalar_out).enumerate() {
        assert_eq!(
            d.to_bits(),
            s.to_bits(),
            "{name} d{dim}: MxN result differs from scalar reference at q{} c{}",
            i / ids.len(),
            i % ids.len()
        );
    }

    Cell {
        metric: name,
        dim,
        scalar_ns_per_pair: scalar_ns,
        batch_ns_per_pair: batch_ns,
        mxn_ns_per_pair: mxn_ns,
        block_ns_per_pair: None,
        batch_gflops: 2.0 * dim as f64 / batch_ns,
    }
}

/// Bench the local join's shape: every run of eight consecutive members as
/// heads against the sixteen members after them (cyclic) as their tail,
/// through the members M×N form, checked bit for bit against the per-pair
/// scalar reference.
fn bench_block<P, M>(name: &'static str, m: &M, set: &PointSet<P>, reps: usize) -> f64
where
    P: dataset::point::Point,
    M: BatchMetric<P>,
{
    let n = set.len() as PointId;
    let blocks: Vec<([PointId; HEADS], [PointId; TAIL])> = (0..n / HEADS as PointId)
        .map(|b| {
            let first = b * HEADS as PointId;
            let heads = std::array::from_fn(|j| first + j as PointId);
            let tail = std::array::from_fn(|j| (first + (HEADS + j) as PointId) % n);
            (heads, tail)
        })
        .collect();
    let pairs = blocks.len() * HEADS * TAIL;

    let before = kernel::dispatch();
    kernel::force_dispatch(Some(kernel::Dispatch::Scalar));
    let scalar: Vec<f32> = (blocks.iter())
        .flat_map(|(heads, tail)| {
            let row = move |&h: &PointId| tail.map(|t| m.distance(set.point(h), set.point(t)));
            heads.iter().flat_map(row)
        })
        .collect();
    kernel::force_dispatch(Some(before));

    let cache = m.preprocess(set);
    let mut out: Vec<f32> = Vec::with_capacity(HEADS * TAIL);
    let mut sink = 0u32;
    let ns = best_ns_per_pair(reps, pairs, || {
        for (heads, tail) in &blocks {
            m.distance_members_to_many(heads, set, &cache, tail, &mut out);
            sink ^= out[0].to_bits();
        }
    });
    std::hint::black_box(sink);

    for ((heads, tail), want) in blocks.iter().zip(scalar.chunks(HEADS * TAIL)) {
        m.distance_members_to_many(heads, set, &cache, tail, &mut out);
        for (i, (d, s)) in out.iter().zip(want).enumerate() {
            assert_eq!(
                d.to_bits(),
                s.to_bits(),
                "{name} d{}: block result differs from scalar reference at head {} tail {}",
                set.dim(),
                heads[i / TAIL],
                tail[i % TAIL]
            );
        }
    }
    ns
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let reps = args.get("reps", if smoke { 2 } else { 7 });
    let outs = ObsOuts::parse(&args);
    args.finish();

    let mut cells: Vec<Cell> = Vec::new();
    for &dim in DIMS {
        let qs = gen_f32(QUERIES, dim, 0xBE0 + dim as u64);
        let set = PointSet::new(gen_f32(CANDS, dim, 0xCA0 + dim as u64));
        let mut sq_l2 = bench_cell("sq_l2", &SquaredL2, &qs, &set, reps);
        sq_l2.block_ns_per_pair = Some(bench_block("sq_l2", &SquaredL2, &set, reps));
        let mut l2 = bench_cell("l2", &L2, &qs, &set, reps);
        l2.block_ns_per_pair = Some(bench_block("l2", &L2, &set, reps));
        cells.extend([sq_l2, l2]);
        cells.push(bench_cell("cosine", &Cosine, &qs, &set, reps));
        cells.push(bench_cell("inner_product", &InnerProduct, &qs, &set, reps));
        cells.push(bench_cell("l1", &L1, &qs, &set, reps));
    }
    for &dim in &[64usize, 960] {
        let qs = gen_u8(QUERIES, dim, 0xB10 + dim as u64);
        let set = PointSet::new(gen_u8(CANDS, dim, 0xC10 + dim as u64));
        cells.push(bench_cell("hamming", &Hamming, &qs, &set, reps));
    }
    // BigANN's shape (d = 128) and the widest dimension of the sweep.
    for &dim in &[128usize, 960] {
        let qs = gen_u8(QUERIES, dim, 0xB20 + dim as u64);
        let set = PointSet::new(gen_u8(CANDS, dim, 0xC20 + dim as u64));
        let mut cell = bench_cell("l2_u8", &L2, &qs, &set, reps);
        cell.block_ns_per_pair = Some(bench_block("l2_u8", &L2, &set, reps));
        cells.push(cell);
    }

    let mut table = Table::new(
        "Batched distance kernels vs per-pair scalar reference",
        &[
            "metric",
            "dim",
            "scalar ns/pair",
            "batch ns/pair",
            "mxn ns/pair",
            "block ns/pair",
            "speedup",
            "batch GFLOP/s",
        ],
    );
    for c in &cells {
        table.row(&[
            &c.metric,
            &c.dim,
            &format!("{:.2}", c.scalar_ns_per_pair),
            &format!("{:.2}", c.batch_ns_per_pair),
            &format!("{:.2}", c.mxn_ns_per_pair),
            &c.block_ns_per_pair
                .map_or("-".to_string(), |ns| format!("{ns:.2}")),
            &format!("{:.2}x", c.speedup()),
            &format!("{:.2}", c.batch_gflops),
        ]);
    }
    table.print();

    // The cached-norm dot-form metrics are the hot path the tentpole
    // targets; they must never lose to per-pair scalar at real embedding
    // dimensions. (The committed BENCH_4.json baseline shows >= 1.5x.)
    for c in &cells {
        if matches!(c.metric, "sq_l2" | "cosine") && c.dim >= 64 {
            assert!(
                c.speedup() >= 1.0,
                "{} d{}: batched path slower than scalar ({:.2}x)",
                c.metric,
                c.dim,
                c.speedup()
            );
        }
    }

    let mut report = RunReport::new("kernels");
    report
        .param("mode", if smoke { "smoke" } else { "full" })
        .param("reps", reps)
        .param("candidates", CANDS)
        .param("queries", QUERIES)
        .param("dispatch", format!("{:?}", kernel::dispatch()));
    report.n_ranks = 1;
    // Pairs evaluated per timing rep per path, summed over cells — a pure
    // function of the workload shape, so smoke and full runs report the
    // same number and `dnnd-report-diff`'s 5% distance_evals gate holds.
    report.distance_evals = (cells.len() * QUERIES * CANDS) as u64;
    for c in &cells {
        let key = format!("{}.d{}", c.metric, c.dim);
        report.metric(format!("{key}.scalar_ns_per_pair"), c.scalar_ns_per_pair);
        report.metric(format!("{key}.batch_ns_per_pair"), c.batch_ns_per_pair);
        report.metric(format!("{key}.mxn_ns_per_pair"), c.mxn_ns_per_pair);
        if let Some(ns) = c.block_ns_per_pair {
            report.metric(format!("{key}.block_ns_per_pair"), ns);
        }
        report.metric(format!("{key}.speedup"), c.speedup());
        report.metric(format!("{key}.batch_gflops"), c.batch_gflops);
    }

    if smoke {
        // Schema round-trip: whatever we emit must parse back as a valid
        // RunReport with every cell metric intact.
        let back = RunReport::parse(&report.to_json_string()).expect("report must round-trip");
        assert_eq!(back, report);
        println!("smoke: schema round-trip OK, batched >= scalar OK");
    }
    bench::write_baseline_outputs(&outs, &report);
}
