//! **Section 7 profiling** — "further performance profiling is required to
//! identify bottlenecks, such as finding how much the computation or
//! communication is heavier than the other."
//!
//! This harness builds the same graph across rank counts and prints the
//! virtual-clock decomposition (compute vs. communication vs. barrier) per
//! configuration — showing where DNND's time goes as the job scales out,
//! i.e. why the Figure 3 curves flatten.
//!
//! `--trace-out trace.json` attaches a tracer to the representative
//! 8-rank build and writes its Chrome-trace span timeline; `--report-out
//! report.json` writes the unified run report for the same build (the flags
//! are `bench::ObsOuts`', so `--dashboard-out` works too).

use bench::{die, pct, Args, ObsOuts, Table};
use dataset::metric::L2;
use dataset::presets;
use dnnd::{build, CommOpts, DnndConfig};
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 3_000 } else { 1_200 });
    let k: usize = args.get("k", 10);
    let seed: u64 = args.get("seed", 71);
    let (dir, outs) = (args.out_dir(), ObsOuts::parse(&args));
    args.finish();

    let set = Arc::new(presets::deep1b_like(n, seed));
    println!("Section 7 profile: DEEP-like n={n} k={k}");
    let mut t = Table::new(
        "Virtual-time decomposition per rank count (optimized protocol)",
        &[
            "Ranks",
            "Total s",
            "Compute s",
            "Comm s",
            "Barrier s",
            "Comm share",
        ],
    );
    for ranks in [2usize, 4, 8, 16, 32] {
        let out = build(&World::new(ranks), &set, &L2, DnndConfig::new(k).seed(seed));
        let b = out.report.breakdown;
        t.row(&[
            &ranks,
            &format!("{:.4}", b.total_secs()),
            &format!("{:.4}", b.compute_secs),
            &format!("{:.4}", b.comm_secs),
            &format!("{:.4}", b.barrier_secs),
            &pct(b.comm_secs + b.barrier_secs, b.total_secs()),
        ]);
    }
    t.print();
    t.write_csv(&dir, "profile_breakdown").expect("csv");

    let mut t2 = Table::new(
        "Decomposition per protocol (8 ranks)",
        &[
            "Protocol",
            "Total s",
            "Compute s",
            "Comm s",
            "Barrier s",
            "Comm share",
        ],
    );
    for (label, opts) in [
        ("unoptimized", CommOpts::unoptimized()),
        ("optimized", CommOpts::optimized()),
    ] {
        let out = build(
            &World::new(8),
            &set,
            &L2,
            DnndConfig::new(k).seed(seed).comm_opts(opts),
        );
        let b = out.report.breakdown;
        t2.row(&[
            &label,
            &format!("{:.4}", b.total_secs()),
            &format!("{:.4}", b.compute_secs),
            &format!("{:.4}", b.comm_secs),
            &format!("{:.4}", b.barrier_secs),
            &pct(b.comm_secs + b.barrier_secs, b.total_secs()),
        ]);
    }
    t2.print();
    t2.write_csv(&dir, "profile_protocols").expect("csv");

    // Per-phase trace for one representative build: shows the heavy
    // neighbor-check phases against the light sampling/collective ones.
    let tracer = outs.tracer(8);
    let mut world = World::new(8);
    if let Some(t) = &tracer {
        world = world.tracer(Arc::clone(t));
    }
    let out = build(&world, &set, &L2, DnndConfig::new(k).seed(seed));
    let mut t3 = Table::new(
        "Per-phase trace (8 ranks, optimized; heaviest 12 phases by time)",
        &["Phase", "Total ms", "Compute ms", "Comm ms", "Msgs", "MB"],
    );
    let mut phases = out.report.phases.clone();
    phases.sort_by(|a, b| b.total_secs().total_cmp(&a.total_secs()));
    for p in phases.iter().take(12) {
        t3.row(&[
            &p.index,
            &format!("{:.3}", p.total_secs() * 1e3),
            &format!("{:.3}", p.compute_secs * 1e3),
            &format!("{:.3}", p.comm_secs * 1e3),
            &p.msgs,
            &format!("{:.2}", p.bytes as f64 / 1e6),
        ]);
    }
    t3.print();
    t3.write_csv(&dir, "profile_phases").expect("csv");
    println!(
        "\n{} phases total; csv written to {}",
        out.report.phases.len(),
        dir.display()
    );

    let run_report = || {
        let mut rr = dnnd::obs_report::report_from_build("bench-profile", &out.report);
        rr.param("n", n).param("k", k).param("seed", seed);
        rr
    };
    outs.write(tracer.as_deref(), run_report)
        .unwrap_or_else(|e| die(&e));
}
