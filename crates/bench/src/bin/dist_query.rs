//! **Extension harness** — the distributed query engine (`dnnd::query`)
//! vs. the paper's shared-memory query program on the same graphs.
//!
//! The paper gathers the k-NNG and queries it shared-memory (Section
//! 5.3.1); its conclusion motivates frameworks where the graph never fits
//! one node. This harness quantifies what that costs: recall parity and
//! the virtual-time/traffic profile of fully distributed serving.
//!
//! `--trace-out trace.json` / `--report-out report.json` capture the
//! 8-rank distributed run's span timeline and unified run report (the
//! flags are `bench::ObsOuts`').

use bench::{die, or_die, require_at_least_1, Args, ObsOuts, Table};
use dataset::ground_truth::brute_force_queries;
use dataset::metric::L2;
use dataset::presets;
use dataset::recall::mean_recall;
use dataset::synth::split_queries;
use dnnd::{build, distributed_search_batch, DistSearchParams, DnndConfig};
use nnd::{search_batch, SearchParams};
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 4_000 } else { 1_500 });
    let n_queries: usize = args.get("queries", 150);
    let k: usize = args.get("k", 10);
    let seed: u64 = args.get("seed", 91);
    let (dir, outs) = (args.out_dir(), ObsOuts::parse(&args));
    args.finish();
    require_at_least_1("queries", n_queries);
    or_die(nnd::check_k(k, n));

    let (base, queries) = split_queries(presets::deep1b_like(n + n_queries, seed), n_queries);
    let base = Arc::new(base);
    let queries = Arc::new(queries);
    println!("distributed serving: DEEP-like n={n}, {n_queries} queries, k={k}");

    let out = build(
        &World::new(8),
        &base,
        &L2,
        DnndConfig::new(k).seed(seed).graph_opt(nnd::PRUNE_M),
    );
    let graph = Arc::new(out.graph);
    let truth = brute_force_queries(&base, &queries, &L2, k);

    // Shared-memory reference (the paper's query program).
    let shared = search_batch(
        &graph,
        &base,
        &L2,
        &queries,
        SearchParams::new(k)
            .epsilon(0.2)
            .entry_candidates(32)
            .seed(seed),
    );
    let r_shared = mean_recall(&shared.ids, &truth);

    let mut t = Table::new(
        "Distributed vs shared-memory query serving",
        &[
            "Engine",
            "Ranks",
            "Recall@k",
            "Virtual secs",
            "Wall secs",
            "Messages",
            "MB",
        ],
    );
    t.row(&[
        &"shared-memory",
        &1usize,
        &format!("{r_shared:.4}"),
        &"-",
        &format!("{:.3}", shared.secs),
        &0u64,
        &0.0,
    ]);

    for ranks in [2usize, 4, 8, 16] {
        // Observe the 8-rank run: one track per rank in the trace.
        let tracer = (ranks == 8).then(|| outs.tracer(ranks)).flatten();
        let mut world = World::new(ranks);
        if let Some(t) = &tracer {
            world = world.tracer(Arc::clone(t));
        }
        let (ids, report) = distributed_search_batch(
            &world,
            &base,
            &graph,
            &queries,
            &L2,
            DistSearchParams::new(k)
                .epsilon(0.2)
                .entry_candidates(32)
                .seed(seed),
        );
        let recall = mean_recall(&ids, &truth);
        t.row(&[
            &"distributed",
            &ranks,
            &format!("{recall:.4}"),
            &format!("{:.4}", report.sim_secs),
            &format!("{:.3}", report.wall_secs),
            &report.total.count,
            &format!("{:.1}", report.total.bytes as f64 / 1e6),
        ]);
        if let Some(t) = tracer.as_deref() {
            let run_report = || {
                let mut rr =
                    dnnd::obs_report::report_from_world("bench-dist-query", ranks, &report);
                rr.recall = Some(recall);
                rr.param("n", n).param("queries", n_queries).param("k", k);
                rr
            };
            outs.write(Some(t), run_report).unwrap_or_else(|e| die(&e));
        }
    }
    t.print();
    t.write_csv(&dir, "dist_query").expect("csv");
    println!("\ncsv: {}/dist_query.csv", dir.display());
}
