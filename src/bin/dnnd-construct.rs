//! `dnnd-construct` — the paper's k-NNG construction executable
//! (Section 5.1.3): builds a k-NNG with distributed NN-Descent and stores
//! the graph and the dataset in a persistent store for `dnnd-optimize` /
//! `dnnd-query` to pick up.
//!
//! ```text
//! dnnd-construct --input preset:deep1b --n 2000 --k 10 --ranks 8 \
//!                --metric l2 --store /tmp/deep-store
//! dnnd-construct --input base.fvecs --k 20 --store ./store
//! dnnd-construct --input base.u8bin --elem u8 --k 10 --store ./store
//! ```
//!
//! After the build it prints the graph's recall@k over up to 1 000 evenly
//! spaced vertices, against their exact rows (`dataset::brute_force_sample`).
//!
//! Flags: `--rho --delta --seed --batch-size --unoptimized` (protocol),
//! `--elem f32|u8`, and the observability outputs `--trace-out
//! trace.json` (Chrome-trace / Perfetto span timeline, one track per
//! rank), `--report-out report.json` (unified machine-readable run
//! report), and `--dashboard-out dash.html` (self-contained HTML
//! dashboard: phase timeline, critical-path lane, rank×rank traffic
//! heatmap, convergence curve, telemetry series — no external assets).
//!
//! Fault injection: `--fault-profile clean|lossy|stormy` runs the build
//! under the simulated-transport fault layer, and `--sim-seed <u64>`
//! (default 0) pins the deterministic fault schedule — pass the seed a
//! failing `simtest` sweep printed to replay that exact failure here.

use bench::{Args, ObsOuts};
use dataset::batch::BatchMetric;
use dataset::{brute_force_sample, mean_recall, PointId, PointSet};
use dnnd::{build, BuildReport, CommOpts, DnndConfig};
use dnnd_repro::cli::{
    die, or_die, parse_fault_plan, require_at_least_1, store_flag, Elem, Session, StoredPoint,
};
use metall::Store;
use std::sync::Arc;
use std::time::Instant;
use ygm::World;

/// Vertices the printed recall samples: this many, evenly spaced (every
/// vertex of a smaller set).
const RECALL_SAMPLE: usize = 1_000;

/// The graph's recall@k over `sampled` of its `points` vertices, against
/// their exact rows, and the seconds those rows took.
struct SampledRecall {
    recall: f64,
    sampled: usize,
    points: usize,
    secs: f64,
}

/// Build over `set` and persist dataset and graph, then score the graph
/// over [`RECALL_SAMPLE`] evenly spaced vertices. The store is created
/// here, once the last thing that can reject the run — the dataset's size
/// against `k` — has been checked: a refused run leaves no directory.
fn construct<P: StoredPoint, M: BatchMetric<P>>(
    world: &World,
    set: PointSet<P>,
    metric: &M,
    cfg: DnndConfig,
    store_dir: &str,
) -> (Store, BuildReport, SampledRecall) {
    let (k, n) = (cfg.descent.k, set.len());
    or_die(nnd::check_k(k, n));
    let mut store = Store::open_or_create(store_dir)
        .unwrap_or_else(|e| die(&format!("cannot open store {store_dir}: {e}")));
    let set = Arc::new(set);
    let out = build(world, &set, metric, cfg);
    or_die(P::save(&set, &mut store));
    or_die(out.graph.save(&mut store, "knng"));

    let start = Instant::now();
    let m = n.min(RECALL_SAMPLE);
    let sample: Vec<PointId> = (0..m).map(|i| (i * n / m) as PointId).collect();
    let truth = brute_force_sample(&set, metric, &sample, k);
    let rows: Vec<Vec<PointId>> = (sample.iter())
        .map(|&v| out.graph.neighbors(v).iter().map(|&(u, _)| u).collect())
        .collect();
    let sampled = SampledRecall {
        recall: mean_recall(&rows, &truth),
        sampled: m,
        points: n,
        secs: start.elapsed().as_secs_f64(),
    };
    (store, out.report, sampled)
}

fn main() {
    let args = Args::parse();
    let input: String = args.get("input", String::new());
    if input.is_empty() {
        die("--input <file|preset:NAME> is required");
    }
    let store_dir = store_flag(&args);
    // Every protocol flag defaults to the paper's value `DnndConfig::new`
    // holds, and the configuration's own `validate` judges the set.
    let mut cfg = DnndConfig::new(10);
    cfg.descent.k = args.get("k", cfg.descent.k);
    let ranks: usize = args.get("ranks", 8);
    let n: usize = args.get("n", 2_000);
    cfg.descent.seed = args.get("seed", cfg.descent.seed);
    let metric_name: String = args.get("metric", "l2".to_string());
    let elem_name: String = args.get("elem", "f32".to_string());
    cfg.descent.rho = args.get("rho", cfg.descent.rho);
    cfg.descent.delta = args.get("delta", cfg.descent.delta);
    cfg.batch_size = args.get("batch-size", cfg.batch_size);
    if args.flag("unoptimized") {
        cfg.opts = CommOpts::unoptimized();
    }
    let outs = ObsOuts::parse(&args);
    let fault_profile: String = args.get("fault-profile", String::new());
    let sim_seed: u64 = args.get("sim-seed", 0);
    args.finish();

    // A flag outside the domain is the user's error, reported before
    // anything is created.
    let elem = Elem::from_name(&elem_name)
        .unwrap_or_else(|| die(&format!("--elem must be f32 or u8 (got {elem_name:?})")));
    require_at_least_1("ranks", ranks);
    or_die(cfg.validate());
    let plan = parse_fault_plan(&fault_profile, sim_seed);
    let (k, seed) = (cfg.descent.k, cfg.descent.seed);

    let tracer = outs.tracer(ranks);
    let mut world = World::new(ranks);
    if let Some(t) = &tracer {
        world = world.tracer(Arc::clone(t));
    }
    if let Some(p) = plan {
        println!(
            "fault injection: profile {} with --sim-seed {sim_seed}",
            p.profile.name()
        );
        world = world.fault_plan(p);
    }

    // An `(elem, metric)` pair without an arm is refused here, before the
    // input is read or the store created.
    let dispatch = dataset::with_metric!(elem.name(), metric_name.as_str(), P, metric => {
        let set = P::read_input(&input, n, seed);
        println!(
            "dataset: {} points x {} dims ({}), metric {metric_name}",
            set.len(),
            set.dim(),
            elem.name()
        );
        construct(&world, set, &metric, cfg, &store_dir)
    });
    let (mut store, report, sampled) = or_die(dispatch);
    or_die(Session::write_meta(&mut store, k, elem, &metric_name));

    println!(
        "constructed k={k} ({elem:?}, {metric_name}) on {ranks} simulated ranks: \
         {} iterations, {} distance evals",
        report.iterations, report.distance_evals
    );
    println!(
        "virtual time {:.4}s (compute {:.4}s / comm {:.4}s / barrier {:.4}s); wall {:.2}s",
        report.sim_secs,
        report.breakdown.compute_secs,
        report.breakdown.comm_secs,
        report.breakdown.barrier_secs,
        report.wall_secs
    );
    println!(
        "traffic: {} messages, {:.1} MB ({} objects, {} bytes persisted to {store_dir})",
        report.total.count,
        report.total.bytes as f64 / 1e6,
        store.len(),
        store.total_bytes()
    );
    println!(
        "sampled recall@{k} = {:.4} over {} of {} vertices (exact rows in {:.3}s)",
        sampled.recall, sampled.sampled, sampled.points, sampled.secs
    );
    if let Some(f) = &report.faults {
        println!(
            "faults ({} / sim-seed {}): {} dropped, {} duplicated, {} delayed, {} stalls, \
             {} retransmits, {} dedup discards (replay: --fault-profile {} --sim-seed {})",
            f.profile,
            f.sim_seed,
            f.dropped,
            f.duplicated,
            f.delayed,
            f.stalls,
            f.retransmits,
            f.dedup_discards,
            f.profile,
            f.sim_seed
        );
    }

    let run_report = || {
        let mut rr = dnnd::obs_report::report_from_build("dnnd-construct", &report);
        rr.param("input", &input)
            .param("k", k)
            .param("metric", &metric_name)
            .param("seed", seed)
            .param("elem", elem.name());
        if !fault_profile.is_empty() && fault_profile != "none" {
            rr.param("fault_profile", &fault_profile)
                .param("sim_seed", sim_seed);
        }
        rr.metric("store_high_water_bytes", store.high_water_bytes() as f64);
        rr
    };
    or_die(outs.write(tracer.as_deref(), run_report));
}
