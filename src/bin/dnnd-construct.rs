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
use dnnd::{build, CommOpts, DnndConfig};
use dnnd_repro::cli::{die, load_f32, load_u8, parse_fault_plan, read_meta, Elem, ObsOuts};
use metall::Store;
use std::sync::Arc;
use ygm::World;

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
    let elem = if args.get::<String>("elem", "f32".into()) == "u8" {
        Elem::U8
    } else {
        Elem::F32
    };

    let mut cfg = DnndConfig::new(k)
        .seed(seed)
        .rho(args.get("rho", 0.8))
        .delta(args.get("delta", 0.001))
        .batch_size(args.get("batch-size", 1u64 << 16));
    if args.flag("unoptimized") {
        cfg = cfg.comm_opts(CommOpts::unoptimized());
    }
    if args.flag("no-shuffle") {
        cfg = cfg.shuffle_reverse(false);
    }

    let outs = ObsOuts::parse(&args);
    let tracer = if outs.any() {
        let t = Arc::new(obs::Tracer::new(ranks));
        t.set_flows_enabled(outs.flows);
        Some(t)
    } else {
        None
    };

    let fault_profile: String = args.get("fault-profile", String::new());
    let sim_seed: u64 = args.get("sim-seed", 0);
    args.finish();
    let plan = parse_fault_plan(&fault_profile, sim_seed);
    let mut store = Store::open_or_create(&store_dir)
        .unwrap_or_else(|e| die(&format!("cannot open store {store_dir}: {e}")));

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

    let report = match elem {
        Elem::F32 => {
            let set = Arc::new(load_f32(&input, n, seed));
            println!(
                "dataset: {} points x {} dims (f32), metric {metric_name}",
                set.len(),
                set.dim()
            );
            let out = match metric_name.as_str() {
                "l2" => build(&world, &set, &dataset::L2, cfg),
                "sql2" => build(&world, &set, &dataset::SquaredL2, cfg),
                "cosine" => build(&world, &set, &dataset::Cosine, cfg),
                "l1" => build(&world, &set, &dataset::L1, cfg),
                other => die(&format!("unknown metric {other:?}")),
            };
            set.save(&mut store, "dataset")
                .unwrap_or_else(|e| die(&e.to_string()));
            out.graph
                .save(&mut store, "knng")
                .unwrap_or_else(|e| die(&e.to_string()));
            out.report
        }
        Elem::U8 => {
            let set = Arc::new(load_u8(&input, n, seed));
            println!(
                "dataset: {} points x {} dims (u8), metric l2",
                set.len(),
                set.dim()
            );
            if metric_name != "l2" {
                die("u8 datasets support --metric l2 only");
            }
            let out = build(&world, &set, &dataset::L2, cfg);
            set.save(&mut store, "dataset")
                .unwrap_or_else(|e| die(&e.to_string()));
            out.graph
                .save(&mut store, "knng")
                .unwrap_or_else(|e| die(&e.to_string()));
            out.report
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
