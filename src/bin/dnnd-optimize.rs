//! `dnnd-optimize` — the paper's graph-optimization executable (Sections
//! 4.5 / 5.1.3): reopens the store written by `dnnd-construct` and runs
//! one of two optimization modes selected by `--opt-mode`:
//!
//! * `reverse-prune` (default) — merge reverse edges, prune neighborhoods
//!   to `ceil(k * m)`, optionally diversify; written back under `opt/`.
//! * `rnn` — distributed RNN-Descent: `--t1` outer rounds of up to `--t2`
//!   inner neighbor-update rounds with relative-neighborhood (occlusion)
//!   pruning, reverse-edge adds at outer-round boundaries, and a final
//!   `--k0` out-degree cap, run over `--ranks` simulated ranks; written
//!   back under `rnn/`. The result is bit-identical across reruns and
//!   rank counts.
//!
//! ```text
//! dnnd-optimize --store /tmp/deep-store --m 1.5
//! dnnd-optimize --store ./store --m 1.5 --diversify 0.3
//! dnnd-optimize --store ./store --opt-mode rnn --k0 10 --ranks 4
//! ```
//!
//! `--trace-out trace.json` emits a Chrome-trace span timeline of the
//! optimization passes; `--report-out report.json` a unified run report;
//! `--dashboard-out dash.html` a self-contained HTML dashboard.

use bench::Args;
use dnnd::obs_report::{fill_rnn, report_from_rnn_dist};
use dnnd::rnn_optimize_distributed;
use dnnd_repro::cli::{die, read_meta, Elem, ObsOuts};
use metall::Store;
use nnd::rnn::RnnParams;
use nnd::{diversify, KnnGraph};
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let store_dir: String = args.get("store", String::new());
    if store_dir.is_empty() {
        die("--store <dir> is required");
    }
    let mode: String = args.get("opt-mode", "reverse-prune".to_string());
    match mode.as_str() {
        "reverse-prune" | "rnn" => {}
        other => die(&format!(
            "unknown --opt-mode {other:?} (expected \"reverse-prune\" or \"rnn\")"
        )),
    }
    let outs = ObsOuts::parse(&args);

    let mut store =
        Store::open(&store_dir).unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
    let (k, elem, metric_name) = read_meta(&store);
    let graph = KnnGraph::load(&store, "knng").unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "loaded k-NNG: {} vertices, {} edges (k={k}, {}, {metric_name})",
        graph.len(),
        graph.edge_count(),
        elem.name()
    );

    if mode == "rnn" {
        rnn_mode(
            &args,
            &mut store,
            &store_dir,
            k,
            elem,
            &metric_name,
            &graph,
            &outs,
        );
    } else {
        reverse_prune_mode(
            &args,
            &mut store,
            &store_dir,
            k,
            elem,
            &metric_name,
            graph,
            &outs,
        );
    }
}

/// The default Section 4.5 pass: reverse merge + optional diversify +
/// degree prune, written to `opt/`.
#[allow(clippy::too_many_arguments)]
fn reverse_prune_mode(
    args: &Args,
    store: &mut Store,
    store_dir: &str,
    k: usize,
    elem: Elem,
    metric_name: &str,
    graph: KnnGraph,
    outs: &ObsOuts,
) {
    let m: f64 = args.get("m", 1.5);
    let keep: f64 = args.get("diversify", 1.0);
    args.finish();
    // Graph optimization is a driver-side (single-process) pass, so the
    // trace has one track.
    let tracer = if outs.any() {
        let t = obs::Tracer::new(1);
        t.set_flows_enabled(outs.flows);
        Some(t)
    } else {
        None
    };
    let span = |name: &'static str, f: &mut dyn FnMut() -> KnnGraph| {
        if let Some(t) = &tracer {
            t.begin(0, name, t.wall_ns());
            let g = f();
            t.end(0, name, t.wall_ns());
            g
        } else {
            f()
        }
    };

    let start = std::time::Instant::now();
    let merged = span("merge_reverse", &mut || graph.merge_reverse());
    let diversified = if keep < 1.0 {
        match elem {
            Elem::F32 => {
                let base = dataset::PointSet::<Vec<f32>>::load(store, "dataset")
                    .unwrap_or_else(|e| die(&e.to_string()));
                match metric_name {
                    "l2" => span("diversify", &mut || {
                        diversify(&merged, &base, &dataset::L2, keep)
                    }),
                    "sql2" => span("diversify", &mut || {
                        diversify(&merged, &base, &dataset::SquaredL2, keep)
                    }),
                    "cosine" => span("diversify", &mut || {
                        diversify(&merged, &base, &dataset::Cosine, keep)
                    }),
                    "l1" => span("diversify", &mut || {
                        diversify(&merged, &base, &dataset::L1, keep)
                    }),
                    other => die(&format!("unknown metric {other:?}")),
                }
            }
            Elem::U8 => {
                let base = dataset::PointSet::<Vec<u8>>::load(store, "dataset")
                    .unwrap_or_else(|e| die(&e.to_string()));
                span("diversify", &mut || {
                    diversify(&merged, &base, &dataset::L2, keep)
                })
            }
        }
    } else {
        merged
    };
    let optimized = span("prune", &mut || {
        diversified.prune((k as f64 * m).ceil() as usize)
    });
    let secs = start.elapsed().as_secs_f64();

    optimized
        .save(store, "opt")
        .unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "optimized in {secs:.2}s: {} edges (max degree {}), m={m}, diversify keep={keep}",
        optimized.edge_count(),
        optimized.max_degree()
    );
    println!("search graph written to {store_dir}/opt");

    if let Some(t) = &tracer {
        if !outs.trace.is_empty() {
            std::fs::write(&outs.trace, obs::chrome::chrome_trace_json(t))
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.trace)));
            println!("trace written to {}", outs.trace);
        }
        if outs.wants_report() {
            let mut rr = obs::RunReport::new("dnnd-optimize");
            rr.n_ranks = 1;
            rr.wall_secs = secs;
            rr.param("store", store_dir)
                .param("opt_mode", "reverse-prune")
                .param("m", m)
                .param("diversify", keep)
                .param("metric", metric_name);
            rr.extra
                .push(("edges".into(), optimized.edge_count() as f64));
            rr.extra
                .push(("max_degree".into(), optimized.max_degree() as f64));
            rr.metric("store_high_water_bytes", store.high_water_bytes() as f64);
            rr.add_histograms(&t.hist_snapshots());
            rr.set_dropped_spans(t.dropped_events() as u64);
            write_outs(outs, &rr);
        }
    }
}

/// The RNN-Descent mode: distributed occlusion pruning over `--ranks`
/// simulated ranks, written to `rnn/`.
#[allow(clippy::too_many_arguments)]
fn rnn_mode(
    args: &Args,
    store: &mut Store,
    store_dir: &str,
    k: usize,
    elem: Elem,
    metric_name: &str,
    graph: &KnnGraph,
    outs: &ObsOuts,
) {
    let k0: usize = args.get("k0", k);
    let mut params = RnnParams::new(k0)
        .t1(args.get("t1", 3usize))
        .t2(args.get("t2", 8usize));
    let r: usize = args.get("r", params.r);
    params = params.r(r);
    let ranks: usize = args.get("ranks", 4usize);
    args.finish();
    if ranks == 0 {
        die("--ranks must be >= 1");
    }
    let world = World::new(ranks);

    let start = std::time::Instant::now();
    let (optimized, report) = match elem {
        Elem::F32 => {
            let base = Arc::new(
                dataset::PointSet::<Vec<f32>>::load(store, "dataset")
                    .unwrap_or_else(|e| die(&e.to_string())),
            );
            match metric_name {
                "l2" => rnn_optimize_distributed(&world, &base, &dataset::L2, graph, params),
                "sql2" => {
                    rnn_optimize_distributed(&world, &base, &dataset::SquaredL2, graph, params)
                }
                "cosine" => {
                    rnn_optimize_distributed(&world, &base, &dataset::Cosine, graph, params)
                }
                "l1" => rnn_optimize_distributed(&world, &base, &dataset::L1, graph, params),
                other => die(&format!("unknown metric {other:?}")),
            }
        }
        Elem::U8 => {
            let base = Arc::new(
                dataset::PointSet::<Vec<u8>>::load(store, "dataset")
                    .unwrap_or_else(|e| die(&e.to_string())),
            );
            rnn_optimize_distributed(&world, &base, &dataset::L2, graph, params)
        }
    };
    let secs = start.elapsed().as_secs_f64();

    optimized
        .save(store, "rnn")
        .unwrap_or_else(|e| die(&e.to_string()));
    let rounds = report.stats.rounds.len();
    println!(
        "rnn-optimized in {secs:.2}s over {ranks} ranks: {} edges (max degree {}), \
         t1={} t2={} k0={} r={}, {rounds} rounds, {} distance evals",
        optimized.edge_count(),
        optimized.max_degree(),
        params.t1,
        params.t2,
        params.k0,
        params.r,
        report.stats.dist_evals,
    );
    println!("search graph written to {store_dir}/rnn");

    if outs.wants_report() {
        let mut rr = report_from_rnn_dist("dnnd-optimize", params, &report);
        rr.wall_secs = secs;
        rr.param("store", store_dir)
            .param("opt_mode", "rnn")
            .param("metric", metric_name)
            .param("ranks", ranks);
        rr.extra
            .push(("edges".into(), optimized.edge_count() as f64));
        rr.extra
            .push(("max_degree".into(), optimized.max_degree() as f64));
        rr.metric("store_high_water_bytes", store.high_water_bytes() as f64);
        // Keep the section filled even if a future report path drops it.
        if rr.rnn.is_none() {
            fill_rnn(&mut rr, params, &report.stats);
        }
        write_outs(outs, &rr);
    }
    if !outs.trace.is_empty() {
        eprintln!("note: --trace-out is not supported by --opt-mode rnn (simulated world)");
    }
}

fn write_outs(outs: &ObsOuts, rr: &obs::RunReport) {
    if !outs.report.is_empty() {
        std::fs::write(&outs.report, rr.to_json_string())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.report)));
        println!("run report written to {}", outs.report);
    }
    if !outs.dashboard.is_empty() {
        std::fs::write(&outs.dashboard, obs::dashboard::dashboard_html(rr))
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.dashboard)));
        println!("dashboard written to {}", outs.dashboard);
    }
}
