//! `dnnd-optimize` — the paper's graph-optimization executable (Sections
//! 4.5 / 5.1.3): reopens the store written by `dnnd-construct` and runs
//! one of two optimization modes selected by `--opt-mode`:
//!
//! * `reverse-prune` (default) — merge reverse edges and prune
//!   neighborhoods to `ceil(k * m)` in one pass; written back under `opt/`.
//! * `rnn` — distributed RNN-Descent: `--t1` outer rounds of up to `--t2`
//!   inner neighbor-update rounds with relative-neighborhood (occlusion)
//!   pruning, reverse-edge adds at outer-round boundaries, and a final
//!   `--k0` out-degree cap, run over `--ranks` simulated ranks; written
//!   back under `rnn/`. The result is bit-identical across reruns and
//!   rank counts.
//!
//! ```text
//! dnnd-optimize --store /tmp/deep-store --m 1.5
//! dnnd-optimize --store ./store --opt-mode rnn --k0 10 --ranks 4
//! ```
//!
//! `--trace-out trace.json` emits a Chrome trace: one span of the
//! reverse-prune pass, or every rank's `rnn_round` spans of the simulated
//! rnn run; `--report-out report.json` a unified run report;
//! `--dashboard-out dash.html` a self-contained HTML dashboard.

use bench::{Args, ObsOuts};
use dnnd::obs_report::{fill_rnn, report_from_world};
use dnnd::rnn_optimize_distributed;
use dnnd_repro::cli::{die, or_die, require_at_least_1, store_flag, Session};
use nnd::rnn::RnnParams;
use nnd::KnnGraph;
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let store_dir = store_flag(&args);
    let mode: String = args.get("opt-mode", "reverse-prune".to_string());
    let outs = ObsOuts::parse(&args);
    let run = match mode.as_str() {
        "reverse-prune" => reverse_prune_mode,
        "rnn" => rnn_mode,
        other => die(&format!(
            "unknown --opt-mode {other:?} (expected \"reverse-prune\" or \"rnn\")"
        )),
    };

    let mut s = Session::open(&store_dir);
    let graph = s.graph("knng");
    println!(
        "loaded k-NNG: {} vertices, {} edges (k={}, {}, {})",
        graph.len(),
        graph.edge_count(),
        s.k,
        s.elem.name(),
        s.metric
    );
    run(&args, &mut s, &store_dir, graph, &outs);
}

/// The default Section 4.5 pass: reverse merge + degree prune to
/// `ceil(k * m)` in one [`KnnGraph::optimize`] call, written to `opt/`.
fn reverse_prune_mode(
    args: &Args,
    s: &mut Session,
    store_dir: &str,
    graph: KnnGraph,
    outs: &ObsOuts,
) {
    let m: f64 = args.get("m", nnd::PRUNE_M);
    args.finish();
    or_die(nnd::prune_limit(s.k, m));
    // Graph optimization is a driver-side (single-process) pass, so the
    // trace has one track.
    let tracer = outs.tracer(1);

    let start = std::time::Instant::now();
    if let Some(t) = &tracer {
        t.begin(0, "optimize", t.wall_ns());
    }
    let optimized = graph.optimize(s.k, m);
    if let Some(t) = &tracer {
        t.end(0, "optimize", t.wall_ns());
    }
    let secs = start.elapsed().as_secs_f64();

    or_die(optimized.save(&mut s.store, "opt"));
    println!(
        "optimized in {secs:.2}s: {} edges (max degree {}), m={m}",
        optimized.edge_count(),
        optimized.max_degree()
    );
    println!("search graph written to {store_dir}/opt");

    let run_report = || {
        let mut rr = obs::RunReport::new("dnnd-optimize");
        rr.n_ranks = 1;
        rr.wall_secs = secs;
        rr.param("store", store_dir)
            .param("opt_mode", "reverse-prune")
            .param("m", m)
            .param("metric", &s.metric);
        rr.extra
            .push(("edges".into(), optimized.edge_count() as f64));
        rr.extra
            .push(("max_degree".into(), optimized.max_degree() as f64));
        rr.metric("store_high_water_bytes", s.store.high_water_bytes() as f64);
        rr
    };
    or_die(outs.write(tracer.as_deref(), run_report));
}

/// The RNN-Descent mode: distributed occlusion pruning over `--ranks`
/// simulated ranks, written to `rnn/`.
fn rnn_mode(args: &Args, s: &mut Session, store_dir: &str, graph: KnnGraph, outs: &ObsOuts) {
    // The defaults are `RnnParams::new(k0)`'s (`r` scales with `k0`; a
    // `k0` of 0 is left for `validate` to refuse).
    let k0: usize = args.get("k0", s.k);
    let defaults = RnnParams::new(k0.max(1));
    let params = RnnParams {
        k0,
        t1: args.get("t1", defaults.t1),
        t2: args.get("t2", defaults.t2),
        r: args.get("r", defaults.r),
    };
    let ranks: usize = args.get("ranks", 4);
    args.finish();
    require_at_least_1("ranks", ranks);
    or_die(params.validate());
    let tracer = outs.tracer(ranks);
    let mut world = World::new(ranks);
    if let Some(t) = &tracer {
        world = world.tracer(Arc::clone(t));
    }

    let start = std::time::Instant::now();
    let (optimized, stats, world_report) = or_die(
        dataset::with_metric!(s.elem.name(), s.metric.as_str(), P, metric => {
            let base = Arc::new(s.base::<P>());
            rnn_optimize_distributed(&world, &base, &metric, &graph, params)
        }),
    );
    let secs = start.elapsed().as_secs_f64();

    or_die(optimized.save(&mut s.store, "rnn"));
    let rounds = stats.rounds.len();
    println!(
        "rnn-optimized in {secs:.2}s over {ranks} ranks: {} edges (max degree {}), \
         t1={} t2={} k0={} r={}, {rounds} rounds, {} distance evals",
        optimized.edge_count(),
        optimized.max_degree(),
        params.t1,
        params.t2,
        params.k0,
        params.r,
        stats.dist_evals,
    );
    println!("search graph written to {store_dir}/rnn");

    let run_report = || {
        let mut rr = report_from_world("dnnd-optimize", ranks, &world_report);
        fill_rnn(&mut rr, params, &stats);
        rr.wall_secs = secs;
        rr.param("store", store_dir)
            .param("opt_mode", "rnn")
            .param("metric", &s.metric)
            .param("ranks", ranks);
        rr.extra
            .push(("edges".into(), optimized.edge_count() as f64));
        rr.extra
            .push(("max_degree".into(), optimized.max_degree() as f64));
        rr.metric("store_high_water_bytes", s.store.high_water_bytes() as f64);
        rr
    };
    or_die(outs.write(tracer.as_deref(), run_report));
}
