//! **Extension harness** — the two graph-optimization modes head to head:
//! the paper's Section 4.5 reverse-prune pass vs the RNN-Descent
//! (occlusion-pruning) mode, on the same raw k-NNG, compared on edge
//! count, mean/max out-degree, served recall at equal beam width, and
//! served tail latency through the online serving layer.
//!
//! The fixture is the pipeline-test preset (DEEP-like 600 points, k=8,
//! seed 7, unoptimized protocol), so every number in the emitted report —
//! including the `rnn` section — is bit-stable and serves as
//! the committed `BENCH_7.json` regression baseline (gated softly by
//! `dnnd-report-diff` in CI: `rnn.*` counters gate exactly).
//!
//! ```text
//! rnn --smoke --report-out BENCH_7.candidate.json   # CI shape
//! rnn --ranks 4 --dashboard-out rnn.html
//! ```
//!
//! `--smoke` additionally self-checks the tentpole claims: the RNN graph
//! must be strictly sparser at equal-or-better served recall, and the
//! distributed pass must be bit-identical across ranks {1, 2, 4} and
//! across a rerun.

use bench::{or_die, require_at_least_1, Args, ObsOuts, Table};
use dataset::ground_truth::brute_force_queries;
use dataset::metric::L2;
use dataset::presets;
use dataset::synth::split_queries;
use dnnd::{build, rnn_optimize_distributed, CommOpts, DnndConfig};
use nnd::rnn::RnnParams;
use nnd::KnnGraph;
use serve::{run_serve, ServeParams};
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let n: usize = args.get("n", 600);
    let pool_n: usize = args.get("pool", 32);
    let k: usize = args.get("k", 8);
    let seed: u64 = args.get("seed", 7);
    let ranks: usize = args.get("ranks", 2);
    let mut serve_params = ServeParams::default()
        .n_arrivals(if smoke { 120 } else { 300 })
        .batch(4)
        .watermarks(16, 48)
        .cache(16, 1e-3);
    serve_params.search.l = args.get("l", 12);
    // The defaults are `RnnParams::new(k0)`'s; a `k0` of 0 is left for
    // `validate` to refuse.
    let k0: usize = args.get("k0", 10);
    let defaults = RnnParams::new(k0.max(1));
    let params = RnnParams {
        k0,
        t1: args.get("t1", defaults.t1),
        t2: args.get("t2", defaults.t2),
        ..defaults
    };
    let m: f64 = args.get("m", nnd::PRUNE_M);
    let (dir, outs) = (args.out_dir(), ObsOuts::parse(&args));
    args.finish();
    require_at_least_1("ranks", ranks);
    require_at_least_1("pool", pool_n);
    or_die(nnd::check_k(k, n));
    or_die(params.validate());
    or_die(nnd::prune_limit(k, m));
    or_die(
        serve_params
            .validate()
            .and_then(|()| nnd::check_l(serve_params.search.l, n)),
    );
    let l = serve_params.search.l;

    let (base, pool) = split_queries(presets::deep1b_like(n + pool_n, seed), pool_n);
    let base = Arc::new(base);
    let pool = Arc::new(pool);
    println!(
        "optimization-mode comparison: DEEP-like n={n}, pool {pool_n}, k={k}, seed {seed}, \
         {ranks} ranks"
    );

    // Raw k-NNG under the bit-deterministic path (unoptimized protocol, no
    // post-pass) — the input both optimization modes start from.
    let out = build(
        &World::new(ranks),
        &base,
        &L2,
        DnndConfig::new(k)
            .seed(seed)
            .comm_opts(CommOpts::unoptimized()),
    );
    let raw = out.graph;

    // Mode A — Section 4.5 reverse-prune (what `dnnd-optimize` defaults
    // to): reverse merge then prune to ceil(k * m).
    let rp_graph = raw.optimize(k, m);

    // Mode B — RNN-Descent over the same raw graph, distributed.
    let (rnn_graph, rnn_stats, rnn_run) =
        rnn_optimize_distributed(&World::new(ranks), &base, &L2, &raw, params);

    // Equal-beam-width serving comparison: identical workload and search
    // parameters, only the graph differs.
    let truth = brute_force_queries(&base, &pool, &L2, k);
    let serve_one = |graph: &KnnGraph| {
        let (outcome, _) = run_serve(
            &World::new(ranks),
            &base,
            &Arc::new(graph.clone()),
            &pool,
            &L2,
            &serve_params,
        );
        let recall = outcome.answered_recall(&truth.ids);
        (outcome, recall)
    };
    let (rp_serve, rp_recall) = serve_one(&rp_graph);
    let (rnn_serve, rnn_recall) = serve_one(&rnn_graph);

    let mean_deg = |g: &KnnGraph| g.edge_count() as f64 / g.len() as f64;
    let mut t = Table::new(
        "Optimization modes on the same raw k-NNG",
        &[
            "Mode",
            "Edges",
            "Mean deg",
            "Max deg",
            "Recall@k",
            "Served p99 ms",
        ],
    );
    for (name, g, recall, serve) in [
        ("reverse-prune", &rp_graph, rp_recall, &rp_serve),
        ("rnn", &rnn_graph, rnn_recall, &rnn_serve),
    ] {
        t.row(&[
            &name,
            &g.edge_count(),
            &format!("{:.2}", mean_deg(g)),
            &g.max_degree(),
            &format!("{recall:.4}"),
            &format!("{:.2}", serve.stats.percentile_ns(0.99) as f64 / 1e6),
        ]);
    }
    t.print();
    t.write_csv(&dir, "rnn").expect("csv");
    println!("\ncsv: {}/rnn.csv", dir.display());

    // The emitted report is anchored on the RNN pass (tags, phases, the
    // `rnn` section) with the comparison as extras and the RNN
    // serving section attached for the SLO gates.
    let mut rr = dnnd::obs_report::report_from_world("rnn", ranks, &rnn_run);
    dnnd::obs_report::fill_rnn(&mut rr, params, &rnn_stats);
    rr.serving = Some(rnn_serve.stats.to_section());
    rr.recall = Some(rnn_recall);
    rr.param("mode", if smoke { "smoke" } else { "full" })
        .param("n", n)
        .param("pool", pool_n)
        .param("k", k)
        .param("seed", seed)
        .param("l", l)
        .param("ranks", ranks)
        .param("t1", params.t1)
        .param("t2", params.t2)
        .param("k0", params.k0)
        .param("r", params.r)
        .param("m", m);
    rr.metric("rp_edges", rp_graph.edge_count() as f64);
    rr.metric("rp_mean_degree", mean_deg(&rp_graph));
    rr.metric("rp_max_degree", rp_graph.max_degree() as f64);
    rr.metric("rp_recall", rp_recall);
    rr.metric("rp_p99_ms", rp_serve.stats.percentile_ns(0.99) as f64 / 1e6);
    rr.metric("rnn_edges", rnn_graph.edge_count() as f64);
    rr.metric("rnn_mean_degree", mean_deg(&rnn_graph));
    rr.metric("rnn_max_degree", rnn_graph.max_degree() as f64);
    rr.metric("rnn_recall", rnn_recall);
    rr.metric(
        "rnn_p99_ms",
        rnn_serve.stats.percentile_ns(0.99) as f64 / 1e6,
    );

    if smoke {
        // Tentpole self-checks. Sparsity: strictly fewer edges and lower
        // mean out-degree than reverse-prune. Quality: equal-or-better
        // served recall at the same beam width.
        assert!(
            rnn_graph.edge_count() < rp_graph.edge_count(),
            "rnn graph is not sparser: {} vs {} edges",
            rnn_graph.edge_count(),
            rp_graph.edge_count()
        );
        assert!(
            mean_deg(&rnn_graph) < mean_deg(&rp_graph),
            "rnn mean degree did not drop"
        );
        assert!(
            rnn_recall >= rp_recall,
            "rnn served recall {rnn_recall:.4} below reverse-prune {rp_recall:.4}"
        );
        // Bit-identity across rank counts and a rerun.
        for check_ranks in [1usize, 2, 4] {
            let (g2, s2, _) =
                rnn_optimize_distributed(&World::new(check_ranks), &base, &L2, &raw, params);
            assert_eq!(g2, rnn_graph, "rnn graph diverged at {check_ranks} ranks");
            assert_eq!(s2, rnn_stats, "rnn stats diverged at {check_ranks} ranks");
        }
        // The `rnn` section must round-trip through JSON.
        let parsed = obs::RunReport::parse(&rr.to_json_string()).expect("report round-trip");
        let section = parsed.rnn.expect("rnn section present");
        assert_eq!(section.k0 as usize, params.k0);
        assert_eq!(section.dist_evals, rnn_stats.dist_evals);
        assert!(!section.rounds.is_empty(), "no rnn rounds recorded");
        println!(
            "smoke OK: rnn sparser ({} < {} edges) at recall {rnn_recall:.4} >= {rp_recall:.4}, \
             bit-identical across ranks 1/2/4, schema v{} rnn section round-trips",
            rnn_graph.edge_count(),
            rp_graph.edge_count(),
            obs::report::SCHEMA_VERSION
        );
    }

    bench::write_baseline_outputs(&outs, &rr);
}
