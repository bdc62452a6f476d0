//! `dnnd-serve` — online query serving over a constructed store: a
//! deterministic open-loop workload (Poisson arrivals at `--qps`, seeded
//! by `--serve-seed`) is played against the optimized graph through the
//! distributed serving layer (`crates/serve`): adaptive micro-batching,
//! deadline and overload shedding, a quantized-key result cache, and SLO
//! telemetry into the run report.
//!
//! The run is a pure function of its flags: replaying with the same
//! `--serve-seed` (any `--ranks`) reproduces every admission decision,
//! latency, and result bit-identically — the printed digest is the proof.
//!
//! ```text
//! dnnd-serve --store ./store --pool 32 --qps 4000 --arrivals 500
//! dnnd-serve --store ./store --serve-seed 7 --fault-profile lossy --report-out run.json
//! dnnd-serve --store ./db --namespace prod --filter "bucket in {1, 2}" \
//!            --workload "filter:pct=50,sel=0.3;mutate:ins=10,del=15"
//! ```
//!
//! `--namespace` serves a `dnnd-vdb` collection instead of the bare
//! `dataset`/graph pair: `--filter` pushes a metadata predicate into the
//! distributed beam search, `mutate:` workload clauses apply online
//! inserts/deletes (with watermark-triggered deterministic compaction),
//! and the run report grows the `vdb` section.
//!
//! `--trace-out`, `--report-out`, and `--dashboard-out` emit the Chrome
//! trace, unified run report (with the `serving` section), and the HTML
//! dashboard (with the `serving` section).

use bench::{Args, ObsOuts};
use dnnd_repro::cli::{
    die, or_die, parse_fault_plan, query_pool, require_at_least_1, store_flag, Session,
};
use metall::Store;
use serve::{run_serve, run_serve_vdb, slow_query_log, ServeParams, VdbServeConfig, VdbServeStats};
use std::path::Path;
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let store_dir = store_flag(&args);
    let ranks: usize = args.get("ranks", 2);
    let pool_n: usize = args.get("pool", 32);
    let query_file: String = args.get("queries", String::new());
    require_at_least_1("ranks", ranks);

    // Serving parameters: each flag defaults to `ServeParams::default`'s
    // value, and the set is validated in one place so a bad flag dies with
    // the invariant it broke.
    let mut params = ServeParams::default();
    params.search.l = args.get("l", params.search.l);
    params.search.epsilon = args.get("epsilon", params.search.epsilon);
    params.search.entry_candidates = args.get("entries", params.search.entry_candidates);
    params.serve_seed = args.get("serve-seed", params.serve_seed);
    params.offered_qps = args.get("qps", params.offered_qps);
    params.n_arrivals = args.get("arrivals", params.n_arrivals);
    params.hot_fraction = args.get("hot-fraction", params.hot_fraction);
    params.hot_pool = args.get("hot-pool", params.hot_pool);
    params.batch = args.get("batch", params.batch);
    params.deadline_slots = args.get("deadline", params.deadline_slots);
    params.degrade_watermark = args.get("degrade", params.degrade_watermark);
    params.shed_watermark = args.get("shed", params.shed_watermark);
    params.cache_capacity = args.get("cache", params.cache_capacity);
    // Composable workload DSL, e.g.
    // `closed:n=64,think=5ms;zipf:s=1.1;burst:at=2s,x=8;tenants=gold:50%,free:50%`.
    // Empty (the default) keeps the legacy open-loop hot/cold workload.
    let workload_spec: String = args.get("workload", String::new());
    if !workload_spec.is_empty() {
        params.workload = workload_spec
            .parse()
            .unwrap_or_else(|e| die(&format!("invalid --workload spec: {e}")));
    }
    params
        .validate()
        .unwrap_or_else(|e| die(&format!("invalid serving parameters: {e}")));

    let fault_profile: String = args.get("fault-profile", String::new());
    let sim_seed: u64 = args.get("sim-seed", 0);
    let outs = ObsOuts::parse(&args);
    let tracer = outs.tracer(ranks);
    let mut world = World::new(ranks);
    if let Some(plan) = parse_fault_plan(&fault_profile, sim_seed) {
        world = world.fault_plan(plan);
    }
    if let Some(t) = &tracer {
        world = world.tracer(Arc::clone(t));
    }

    // --namespace routes serving through the vector-DB product layer: the
    // store holds a named `vdb::Collection` (own graph, vectors, metadata,
    // tombstones) instead of the bare `dataset`/graph pair, and --filter /
    // `filter:`+`mutate:` workload clauses become meaningful.
    let namespace: String = args.get("namespace", String::new());
    let filter_text: String = args.get("filter", String::new());
    let mut cfg = VdbServeConfig::default();
    cfg.compact_watermark = args.get("compact-watermark", cfg.compact_watermark);
    let graph_flag: String = args.get("graph", "auto".to_string());
    let slow_log: String = args.get("slow-query-log", String::new());
    args.finish();
    if namespace.is_empty() && !filter_text.is_empty() {
        die("--filter requires --namespace (predicates apply to collection metadata)");
    }
    or_die(cfg.validate());

    let (outcome, wr, metric_name, graph_key) = if !namespace.is_empty() {
        if !filter_text.is_empty() {
            cfg.filter = Some(
                filter_text
                    .parse()
                    .unwrap_or_else(|e| die(&format!("invalid --filter predicate: {e}"))),
            );
        }

        // One metadata-only open on the driver: metric dispatch and the
        // query pool come from here; `run_serve_vdb` re-opens per rank.
        let store =
            Store::open(&store_dir).unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
        let collection = vdb::Collection::open(&store, &namespace)
            .unwrap_or_else(|e| die(&format!("cannot open namespace {namespace:?}: {e}")));
        let metric_name = collection.metric().to_string();
        or_die(nnd::check_l(params.search.l, collection.base.len()));
        let pool = Arc::new(query_pool(&collection.base, &query_file, pool_n, "pool"));
        println!(
            "serving namespace {:?} online: {} points ({} live), epoch {}, k={} ({metric_name}, {ranks} ranks)",
            namespace,
            collection.stat().points,
            collection.stat().live,
            collection.epoch(),
            collection.k(),
        );
        drop(collection);
        drop(store);

        let dir = Path::new(&store_dir);
        let (outcome, cstat, wr) = or_die(
            dataset::with_metric!("f32", metric_name.as_str(), P, metric => {
                run_serve_vdb(&world, dir, &namespace, &pool, &metric, &params, &cfg)
            }),
        );
        println!(
            "namespace after run: {} points ({} live, {} tombstones, {} dead), epoch {}",
            cstat.points, cstat.live, cstat.tombstones, cstat.dead, cstat.epoch
        );
        (outcome, wr, metric_name, "vdb")
    } else {
        let s = Session::open(&store_dir);
        let graph_key = graph_prefix(&graph_flag, |prefix| {
            s.store.contains(&format!("{prefix}/offsets"))
        })
        .unwrap_or_else(|e| die(&e));
        let graph = s.graph(graph_key);
        or_die(nnd::check_l(params.search.l, graph.len()));
        println!(
            "serving {} graph online: {} vertices, {} edges ({}, {}, {ranks} ranks)",
            graph_key,
            graph.len(),
            graph.edge_count(),
            s.elem.name(),
            s.metric
        );

        let dispatch = dataset::with_metric!(s.elem.name(), s.metric.as_str(), P, metric => {
            let base = s.base::<P>();
            let pool = query_pool(&base, &query_file, pool_n, "pool");
            run_serve(
                &world,
                &Arc::new(base),
                &Arc::new(graph),
                &Arc::new(pool),
                &metric,
                &params,
            )
        });
        let (outcome, wr) = or_die(dispatch);
        (outcome, wr, s.metric, graph_key)
    };

    let s = &outcome.stats;
    println!(
        "offered {} queries over {} slots of {} ms: {} answered ({} cache hits), \
         {} shed on deadline, {} shed on overload, {} degraded",
        s.offered,
        s.slots,
        s.slot_ns as f64 / 1e6,
        s.total_answered(),
        s.cache_hits,
        s.shed_deadline,
        s.shed_overload,
        s.degraded
    );
    println!(
        "latency p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms (mean {:.2} ms); max queue depth {}",
        s.percentile_ns(0.50) as f64 / 1e6,
        s.percentile_ns(0.95) as f64 / 1e6,
        s.percentile_ns(0.99) as f64 / 1e6,
        s.mean_latency_ns() / 1e6,
        s.max_queue_depth
    );
    println!(
        "client-perceived p50 {:.2} ms, p99 {:.2} ms (includes shed-retry time under closed loops)",
        s.client_percentile_ns(0.50) as f64 / 1e6,
        s.client_percentile_ns(0.99) as f64 / 1e6,
    );
    for t in &s.tenants {
        println!(
            "tenant {} ({}%): {} offered, {} answered ({} cache hits), \
             {} shed overload, {} shed deadline, SLO {:.1}%, p99 {:.2} ms",
            t.name,
            t.share_pct,
            t.offered,
            t.total_answered(),
            t.cache_hits,
            t.shed_overload,
            t.shed_deadline,
            t.slo_attainment() * 100.0,
            t.percentile_ns(0.99, s.slot_ns) as f64 / 1e6,
        );
    }
    if let Some(v) = &s.vdb {
        println!(
            "vdb {:?}: {} inserts, {} deletes, {} compactions; {} filtered queries, \
             {} cache ids suppressed by tombstones",
            v.namespace, v.inserts, v.deletes, v.compactions, v.filtered, v.cache_suppressed
        );
    }
    println!(
        "result digest {:016x} (serve seed {}, bit-identical on replay)",
        s.result_digest, s.serve_seed
    );
    let f = &outcome.forensics;
    println!(
        "forensics: {} queries profiled, {} retained ({} slowest-per-window, {} exemplars), \
         digest {:016x}",
        f.considered, f.retained, f.retained_slow, f.retained_exemplar, f.digest
    );

    // Tail-sampled slow-query log: one JSON object per retained record,
    // with the home rank derived for *this* run's rank count.
    if !slow_log.is_empty() {
        std::fs::write(&slow_log, slow_query_log(f, ranks))
            .unwrap_or_else(|e| die(&format!("cannot write {slow_log}: {e}")));
        println!("slow-query log written to {slow_log}");
    }

    let run_report = || {
        let mut rr = dnnd::obs_report::report_from_world("dnnd-serve", ranks, &wr);
        rr.serving = Some(s.to_section());
        rr.query_forensics = Some(f.clone());
        rr.vdb = s.vdb.as_ref().map(VdbServeStats::to_section);
        rr.param("store", &store_dir)
            .param("l", params.search.l)
            .param("epsilon", params.search.epsilon)
            .param("serve_seed", params.serve_seed)
            .param("qps", params.offered_qps)
            .param("arrivals", params.n_arrivals)
            .param("batch", params.batch)
            .param("deadline_slots", params.deadline_slots)
            .param("metric", &metric_name)
            .param("graph", graph_key);
        if !workload_spec.is_empty() {
            rr.param("workload", params.workload.to_string());
        }
        if !namespace.is_empty() {
            rr.param("namespace", &namespace);
        }
        if !filter_text.is_empty() {
            rr.param("filter", &filter_text);
        }
        if !fault_profile.is_empty() && fault_profile != "none" {
            rr.param("fault_profile", &fault_profile);
        }
        rr
    };
    or_die(outs.write(tracer.as_deref(), run_report));
}

/// The store prefix `--graph` names: `knng` (the raw NN-Descent output),
/// `opt` (the Section 4.5 pass) or `rnn` (`dnnd-optimize --opt-mode rnn`),
/// each an error when the store lacks it; `auto` takes the sparsest graph
/// the store holds, `rnn` over `opt` over `knng`. `has` reports whether a
/// prefix holds a saved graph.
fn graph_prefix(flag: &str, has: impl Fn(&str) -> bool) -> Result<&'static str, String> {
    const AUTO_ORDER: [&str; 3] = ["rnn", "opt", "knng"];
    if flag == "auto" {
        return Ok(AUTO_ORDER.into_iter().find(|p| has(p)).unwrap_or("knng"));
    }
    let Some(prefix) = AUTO_ORDER.into_iter().find(|&p| p == flag) else {
        return Err(format!(
            "unknown --graph {flag:?} (expected one of {:?})",
            ["auto", "rnn", "opt", "knng"]
        ));
    };
    if has(prefix) {
        Ok(prefix)
    } else {
        let hint = if prefix == "rnn" {
            " --opt-mode rnn"
        } else {
            ""
        };
        Err(format!(
            "store has no {prefix:?} graph (run dnnd-optimize{hint} first)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::graph_prefix;

    #[test]
    fn graph_names_resolve_and_unknown_ones_are_refused() {
        for name in ["rnn", "opt", "knng"] {
            assert_eq!(graph_prefix(name, |_| true).unwrap(), name);
        }
        let err = graph_prefix("hnsw", |_| true).unwrap_err();
        assert_eq!(
            err,
            "unknown --graph \"hnsw\" (expected one of [\"auto\", \"rnn\", \"opt\", \"knng\"])"
        );
    }

    #[test]
    fn auto_prefers_rnn_then_opt_then_knng() {
        assert_eq!(graph_prefix("auto", |_| true).unwrap(), "rnn");
        assert_eq!(graph_prefix("auto", |p| p != "rnn").unwrap(), "opt");
        assert_eq!(graph_prefix("auto", |p| p == "knng").unwrap(), "knng");
        // Even an empty store resolves auto to knng — the load itself will
        // report the missing graph.
        assert_eq!(graph_prefix("auto", |_| false).unwrap(), "knng");
    }

    #[test]
    fn explicit_graphs_fail_when_absent() {
        let only_knng = |p: &str| p == "knng";
        assert_eq!(graph_prefix("knng", only_knng).unwrap(), "knng");
        let err = graph_prefix("rnn", only_knng).unwrap_err();
        assert!(err.contains("--opt-mode rnn"), "{err}");
        assert!(graph_prefix("opt", only_knng).is_err());
    }
}
