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

use bench::Args;
use dataset::batch::BatchMetric;
use dataset::io;
use dataset::point::Point;
use dataset::{brute_force_queries, mean_recall, PointSet};
use dnnd_repro::cli::{die, read_meta, Elem, ObsOuts};
use metall::Store;
use nnd::{search_batch_traced, KnnGraph, SearchParams};

/// Numbers main needs back from the generic query run for the run report.
struct QuerySummary {
    n_queries: usize,
    qps: f64,
    secs: f64,
    distance_evals: u64,
    recall: f64,
}

#[allow(clippy::too_many_arguments)]
fn run<P: Point, M: BatchMetric<P>>(
    base: PointSet<P>,
    graph: &KnnGraph,
    metric: M,
    queries: PointSet<P>,
    gt_ids: Option<Vec<Vec<u32>>>,
    l: usize,
    epsilon: f32,
    entries: usize,
    tracer: Option<&obs::Tracer>,
) -> QuerySummary {
    let params = SearchParams::new(l)
        .epsilon(epsilon)
        .entry_candidates(entries);
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
    let store_dir: String = args.get("store", String::new());
    if store_dir.is_empty() {
        die("--store <dir> is required");
    }
    let l: usize = args.get("l", 10);
    let epsilon: f32 = args.get("epsilon", 0.2);
    if !epsilon.is_finite() || epsilon < 0.0 {
        die(&format!(
            "--epsilon must be finite and >= 0 (got {epsilon})"
        ));
    }
    let entries: usize = args.get("entries", 32);
    let self_queries: usize = args.get("self-queries", 0);
    let query_file: String = args.get("queries", String::new());
    let gt_file: String = args.get("gt", String::new());
    let outs = ObsOuts::parse(&args);
    args.finish();
    // The query program is shared-memory (the paper runs it on one fat
    // node), so the trace has a single track.
    let tracer = if outs.any() {
        let t = obs::Tracer::new(1);
        t.set_flows_enabled(outs.flows);
        Some(t)
    } else {
        None
    };

    let store = Store::open(&store_dir).unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
    let (_, elem, metric_name) = read_meta(&store);
    let graph_key = if store.contains("opt/offsets") {
        "opt"
    } else {
        "knng"
    };
    let graph = KnnGraph::load(&store, graph_key).unwrap_or_else(|e| die(&e.to_string()));
    if l < 1 || l > graph.len() {
        die(&format!(
            "--l must be between 1 and the dataset size {} (got {l})",
            graph.len()
        ));
    }
    println!(
        "serving {} graph: {} vertices, {} edges ({}, {metric_name})",
        graph_key,
        graph.len(),
        graph.edge_count(),
        elem.name()
    );

    let gt_ids = if gt_file.is_empty() {
        None
    } else {
        Some(io::read_ivecs(&gt_file).unwrap_or_else(|e| die(&format!("bad --gt file: {e}"))))
    };

    let summary = match elem {
        Elem::F32 => {
            let base = PointSet::<Vec<f32>>::load(&store, "dataset")
                .unwrap_or_else(|e| die(&e.to_string()));
            let (base, queries, graph) = if self_queries > 0 {
                // Hold out the tail of the dataset as queries; trim the
                // graph rows accordingly is NOT valid (ids shift), so for
                // self-evaluation we re-query *member* points instead.
                let queries = PointSet::new(base.points()[base.len() - self_queries..].to_vec());
                (base, queries, graph)
            } else if query_file.is_empty() {
                die("provide --queries <file> or --self-queries <n>")
            } else {
                let queries = io::read_fvecs(&query_file)
                    .unwrap_or_else(|e| die(&format!("bad --queries file: {e}")));
                (base, queries, graph)
            };
            match metric_name.as_str() {
                "l2" => run(
                    base,
                    &graph,
                    dataset::L2,
                    queries,
                    gt_ids,
                    l,
                    epsilon,
                    entries,
                    tracer.as_ref(),
                ),
                "sql2" => run(
                    base,
                    &graph,
                    dataset::SquaredL2,
                    queries,
                    gt_ids,
                    l,
                    epsilon,
                    entries,
                    tracer.as_ref(),
                ),
                "cosine" => run(
                    base,
                    &graph,
                    dataset::Cosine,
                    queries,
                    gt_ids,
                    l,
                    epsilon,
                    entries,
                    tracer.as_ref(),
                ),
                "l1" => run(
                    base,
                    &graph,
                    dataset::L1,
                    queries,
                    gt_ids,
                    l,
                    epsilon,
                    entries,
                    tracer.as_ref(),
                ),
                other => die(&format!("unknown metric {other:?}")),
            }
        }
        Elem::U8 => {
            let base = PointSet::<Vec<u8>>::load(&store, "dataset")
                .unwrap_or_else(|e| die(&e.to_string()));
            let queries = if self_queries > 0 {
                PointSet::new(base.points()[base.len() - self_queries..].to_vec())
            } else if query_file.is_empty() {
                die("provide --queries <file> or --self-queries <n>")
            } else {
                io::read_bvecs(&query_file)
                    .unwrap_or_else(|e| die(&format!("bad --queries file: {e}")))
            };
            run(
                base,
                &graph,
                dataset::L2,
                queries,
                gt_ids,
                l,
                epsilon,
                entries,
                tracer.as_ref(),
            )
        }
    };

    if let Some(t) = &tracer {
        if !outs.trace.is_empty() {
            std::fs::write(&outs.trace, obs::chrome::chrome_trace_json(t))
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.trace)));
            println!("trace written to {}", outs.trace);
        }
        if outs.wants_report() {
            let mut rr = obs::RunReport::new("dnnd-query");
            rr.n_ranks = 1;
            rr.wall_secs = summary.secs;
            rr.distance_evals = summary.distance_evals;
            rr.recall = Some(summary.recall);
            rr.param("store", &store_dir)
                .param("l", l)
                .param("epsilon", epsilon)
                .param("entries", entries)
                .param("metric", &metric_name)
                .param("graph", graph_key);
            rr.extra.push(("qps".into(), summary.qps));
            rr.extra
                .push(("n_queries".into(), summary.n_queries as f64));
            rr.add_histograms(&t.hist_snapshots());
            rr.set_dropped_spans(t.dropped_events() as u64);
            if !outs.report.is_empty() {
                std::fs::write(&outs.report, rr.to_json_string())
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.report)));
                println!("run report written to {}", outs.report);
            }
            if !outs.dashboard.is_empty() {
                std::fs::write(&outs.dashboard, obs::dashboard::dashboard_html(&rr))
                    .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", outs.dashboard)));
                println!("dashboard written to {}", outs.dashboard);
            }
        }
    }
}
