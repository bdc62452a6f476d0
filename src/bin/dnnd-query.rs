//! `dnnd-query` — the query program (paper Section 5.3.1): loads the
//! dataset and the optimized graph from a store, answers queries in
//! parallel, and reports recall@l versus exact ground truth plus the qps
//! throughput the paper's Figure 2 plots.
//!
//! Queries come from a file (`--queries q.fvecs`, with optional
//! `--gt truth.ivecs`) or by self-evaluation (`--self-queries 100` holds
//! out dataset members re-queried as unseen points; exact ground truth is
//! computed by brute force).
//!
//! ```text
//! dnnd-query --store /tmp/deep-store --self-queries 100 --l 10 --epsilon 0.2
//! dnnd-query --store ./store --queries q.fvecs --gt gt.ivecs --l 10
//! ```
//!
//! `--trace-out`, `--report-out`, and `--dashboard-out` emit the Chrome
//! trace, unified run report, and self-contained HTML dashboard.

use bench::{Args, ObsOuts};
use dataset::batch::BatchMetric;
use dataset::io;
use dataset::{brute_force_queries, mean_recall, PointSet};
use dnnd_repro::cli::{die, or_die, query_pool, store_flag, Session, StoredPoint};
use nnd::{search_batch_traced, KnnGraph, SearchParams};

/// Numbers main needs back from the generic query run for the run report.
struct QuerySummary {
    n_queries: usize,
    qps: f64,
    secs: f64,
    distance_evals: u64,
    recall: f64,
}

fn run<P: StoredPoint, M: BatchMetric<P>>(
    base: PointSet<P>,
    graph: &KnnGraph,
    metric: M,
    queries: PointSet<P>,
    gt_ids: Option<Vec<Vec<u32>>>,
    params: SearchParams,
    tracer: Option<&obs::Tracer>,
) -> QuerySummary {
    let (l, epsilon) = (params.l, params.epsilon);
    let batch = search_batch_traced(graph, &base, &metric, &queries, params, tracer);
    println!(
        "answered {} queries at {:.0} qps ({} distance evals total)",
        queries.len(),
        batch.qps,
        batch.distance_evals
    );
    let truth_ids: Vec<Vec<u32>> = match gt_ids {
        Some(ids) => ids,
        None => {
            println!("computing exact ground truth by brute force...");
            if let Some(t) = tracer {
                t.begin(0, "ground_truth", t.wall_ns());
            }
            let ids = brute_force_queries(&base, &queries, &metric, l).ids;
            if let Some(t) = tracer {
                t.end(0, "ground_truth", t.wall_ns());
            }
            ids
        }
    };
    let truth = dataset::GroundTruth {
        dists: truth_ids.iter().map(|r| vec![0.0; r.len()]).collect(),
        ids: truth_ids,
    };
    let recall = mean_recall(&batch.ids, &truth);
    println!("recall@{l} = {recall:.4} (epsilon {epsilon})");
    QuerySummary {
        n_queries: queries.len(),
        qps: batch.qps,
        secs: batch.secs,
        distance_evals: batch.distance_evals,
        recall,
    }
}

fn main() {
    let args = Args::parse();
    let store_dir = store_flag(&args);
    // The search the flags describe, judged by its own `validate`.
    let defaults = SearchParams::new(10).epsilon(0.2).entry_candidates(32);
    let params = SearchParams {
        l: args.get("l", defaults.l),
        epsilon: args.get("epsilon", defaults.epsilon),
        entry_candidates: args.get("entries", defaults.entry_candidates),
        ..defaults
    };
    or_die(params.validate());
    let self_queries: usize = args.get("self-queries", 0);
    let query_file: String = args.get("queries", String::new());
    let gt_file: String = args.get("gt", String::new());
    let outs = ObsOuts::parse(&args);
    args.finish();
    // The query program is shared-memory (the paper runs it on one fat
    // node), so the trace has a single track.
    let tracer = outs.tracer(1);

    let s = Session::open(&store_dir);
    let graph_key = if s.store.contains("opt/offsets") {
        "opt"
    } else {
        "knng"
    };
    let graph = s.graph(graph_key);
    or_die(nnd::check_l(params.l, graph.len()));
    println!(
        "serving {} graph: {} vertices, {} edges ({}, {})",
        graph_key,
        graph.len(),
        graph.edge_count(),
        s.elem.name(),
        s.metric
    );

    let gt_ids = if gt_file.is_empty() {
        None
    } else {
        Some(io::read_ivecs(&gt_file).unwrap_or_else(|e| die(&format!("bad --gt file: {e}"))))
    };

    let dispatch = dataset::with_metric!(s.elem.name(), s.metric.as_str(), P, metric => {
        let base = s.base::<P>();
        // Trimming the graph to hold points out is not valid (ids shift),
        // so self-evaluation re-queries *member* points.
        let queries = query_pool(&base, &query_file, self_queries, "self-queries");
        run(
            base,
            &graph,
            metric,
            queries,
            gt_ids,
            params,
            tracer.as_deref(),
        )
    });
    let summary = or_die(dispatch);

    let run_report = || {
        let mut rr = obs::RunReport::new("dnnd-query");
        rr.n_ranks = 1;
        rr.wall_secs = summary.secs;
        rr.distance_evals = summary.distance_evals;
        rr.recall = Some(summary.recall);
        rr.param("store", &store_dir)
            .param("l", params.l)
            .param("epsilon", params.epsilon)
            .param("entries", params.entry_candidates)
            .param("metric", &s.metric)
            .param("graph", graph_key);
        rr.extra.push(("qps".into(), summary.qps));
        rr.extra
            .push(("n_queries".into(), summary.n_queries as f64));
        rr
    };
    or_die(outs.write(tracer.as_deref(), run_report));
}
