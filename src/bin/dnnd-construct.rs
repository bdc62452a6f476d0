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
//! Flags: `--rho --delta --seed --batch-size --unoptimized` (protocol),
//! `--no-shuffle` (reverse exchange), `--elem f32|u8`, and the
//! observability outputs `--trace-out trace.json` (Chrome-trace /
//! Perfetto span timeline, one track per rank), `--report-out
//! report.json` (unified machine-readable run report), and
//! `--dashboard-out dash.html` (self-contained HTML dashboard: phase
//! timeline, critical-path lane, rank×rank traffic heatmap, convergence
//! curve, telemetry series — no external assets). `--trace-flows off`
//! drops the cross-rank flow arrows (`ph:"s"/"f"`) from the trace when
//! only per-rank spans are wanted.
//!
//! Fault injection: `--fault-profile clean|lossy|stormy` runs the build
//! under the simulated-transport fault layer, and `--sim-seed <u64>`
//! (default 0) pins the deterministic fault schedule — pass the seed a
//! failing `simtest` sweep printed to replay that exact failure here.

use bench::Args;
use dataset::batch::BatchMetric;
use dataset::{Point, PointSet};
use dnnd::{build, BuildReport, CommOpts, DnndConfig};
use dnnd_repro::cli::{
    die, load_f32, load_u8, parse_fault_plan, read_meta, Elem, ObsOuts, METRIC_NAMES,
};
use metall::{Result as StoreResult, Store};
use std::sync::Arc;
use ygm::World;

/// Build over `set` and persist dataset and graph. The store is created
/// here, once the last thing that can reject the run — the dataset's size
/// against `k` — has been checked: a refused run leaves no directory.
fn construct<P: Point, M: BatchMetric<P>>(
    world: &World,
    set: PointSet<P>,
    metric: &M,
    cfg: DnndConfig,
    store_dir: &str,
    save: fn(&PointSet<P>, &mut Store, &str) -> StoreResult<()>,
) -> (Store, BuildReport) {
    let n = set.len();
    if n < 2 {
        die(&format!(
            "the dataset must have at least 2 points (got {n})"
        ));
    }
    if cfg.k >= n {
        let k = cfg.k;
        die(&format!("--k must be below the dataset size {n} (got {k})"));
    }
    let mut store = Store::open_or_create(store_dir)
        .unwrap_or_else(|e| die(&format!("cannot open store {store_dir}: {e}")));
    let set = Arc::new(set);
    let out = build(world, &set, metric, cfg);
    save(&set, &mut store, "dataset").unwrap_or_else(|e| die(&e.to_string()));
    (out.graph.save(&mut store, "knng")).unwrap_or_else(|e| die(&e.to_string()));
    (store, out.report)
}

fn main() {
    let args = Args::parse();
    let input: String = args.get("input", String::new());
    if input.is_empty() {
        die("--input <file|preset:NAME> is required");
    }
    let store_dir: String = args.get("store", String::new());
    if store_dir.is_empty() {
        die("--store <dir> is required");
    }
    let k: usize = args.get("k", 10);
    let ranks: usize = args.get("ranks", 8);
    let n: usize = args.get("n", 2_000);
    let seed: u64 = args.get("seed", 0xD00D);
    let metric_name: String = args.get("metric", "l2".to_string());
    let elem_name: String = args.get("elem", "f32".to_string());
    let (rho, delta): (f64, f64) = (args.get("rho", 0.8), args.get("delta", 0.001));
    let batch_size: u64 = args.get("batch-size", 1u64 << 16);
    let (unoptimized, no_shuffle) = (args.flag("unoptimized"), args.flag("no-shuffle"));
    let outs = ObsOuts::parse(&args);
    let fault_profile: String = args.get("fault-profile", String::new());
    let sim_seed: u64 = args.get("sim-seed", 0);
    args.finish();

    // The builders assert their parameter domains; a flag outside them is
    // the user's error, reported before anything is created.
    let elem = Elem::from_name(&elem_name)
        .unwrap_or_else(|| die(&format!("--elem must be f32 or u8 (got {elem_name:?})")));
    if !METRIC_NAMES.contains(&metric_name.as_str()) {
        die(&format!(
            "unknown metric {metric_name:?} (expected one of {METRIC_NAMES:?})"
        ));
    }
    if elem == Elem::U8 && metric_name != "l2" {
        die("u8 datasets support --metric l2 only");
    }
    for (flag, value) in [
        ("k", k as u64),
        ("ranks", ranks as u64),
        ("batch-size", batch_size),
    ] {
        if value == 0 {
            die(&format!("--{flag} must be at least 1 (got 0)"));
        }
    }
    if !(rho > 0.0 && rho <= 1.0) {
        die(&format!("--rho must be above 0 and at most 1 (got {rho})"));
    }
    if !(delta >= 0.0 && delta.is_finite()) {
        die(&format!("--delta must be finite and >= 0 (got {delta})"));
    }
    let plan = parse_fault_plan(&fault_profile, sim_seed);

    let mut cfg = DnndConfig::new(k)
        .seed(seed)
        .rho(rho)
        .delta(delta)
        .batch_size(batch_size);
    if unoptimized {
        cfg = cfg.comm_opts(CommOpts::unoptimized());
    }
    if no_shuffle {
        cfg = cfg.shuffle_reverse(false);
    }

    let tracer = if outs.any() {
        let t = Arc::new(obs::Tracer::new(ranks));
        t.set_flows_enabled(outs.flows);
        Some(t)
    } else {
        None
    };

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

    let (mut store, report) = match elem {
        Elem::F32 => {
            let set = load_f32(&input, n, seed);
            println!(
                "dataset: {} points x {} dims (f32), metric {metric_name}",
                set.len(),
                set.dim()
            );
            let save = PointSet::<Vec<f32>>::save;
            match metric_name.as_str() {
                "l2" => construct(&world, set, &dataset::L2, cfg, &store_dir, save),
                "sql2" => construct(&world, set, &dataset::SquaredL2, cfg, &store_dir, save),
                "cosine" => construct(&world, set, &dataset::Cosine, cfg, &store_dir, save),
                "l1" => construct(&world, set, &dataset::L1, cfg, &store_dir, save),
                other => unreachable!("{other:?} is in METRIC_NAMES and has no arm"),
            }
        }
        Elem::U8 => {
            let set = load_u8(&input, n, seed);
            println!(
                "dataset: {} points x {} dims (u8), metric l2",
                set.len(),
                set.dim()
            );
            let save = PointSet::<Vec<u8>>::save;
            construct(&world, set, &dataset::L2, cfg, &store_dir, save)
        }
    };

    store
        .put("meta/k", &(k as u64))
        .unwrap_or_else(|e| die(&e.to_string()));
    store
        .put("meta/elem", &elem.name().to_string())
        .unwrap_or_else(|e| die(&e.to_string()));
    store
        .put("meta/metric", &metric_name)
        .unwrap_or_else(|e| die(&e.to_string()));

    let (mk, me, mm) = read_meta(&store);
    println!(
        "constructed k={mk} ({me:?}, {mm}) on {ranks} simulated ranks: \
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

    if let Some(t) = &tracer {
        if !outs.trace.is_empty() {
            dnnd::obs_report::write_trace(&outs.trace, t)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.trace)));
            println!(
                "trace written to {} ({} spans dropped)",
                outs.trace,
                t.dropped_events()
            );
        }
        if outs.wants_report() {
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
            dnnd::obs_report::attach_histograms(&mut rr, Some(t));
            dnnd::obs_report::attach_series(&mut rr, Some(t));
            if !outs.report.is_empty() {
                dnnd::obs_report::write_report(&outs.report, &rr)
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.report)));
                println!("run report written to {}", outs.report);
            }
            if !outs.dashboard.is_empty() {
                dnnd::obs_report::write_dashboard(&outs.dashboard, &rr)
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.dashboard)));
                println!("dashboard written to {}", outs.dashboard);
            }
        }
    }
}
