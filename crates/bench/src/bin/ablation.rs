//! **Ablations** — the design choices DESIGN.md calls out, beyond the
//! paper's own unoptimized-vs-optimized comparison:
//!
//! 1. each Section 4.3 communication-saving technique toggled individually,
//! 2. reverse-exchange destination shuffling on/off (Section 4.2),
//! 3. batch-size sweep (Section 4.4),
//! 4. rho / delta sensitivity (Algorithm 1's quality-vs-cost dials),
//! 5. RP-forest vs random initialization (PyNNDescent extension, shared-
//!    memory engine).

use bench::{Args, Table};
use dataset::ground_truth::brute_force_knng;
use dataset::metric::L2;
use dataset::presets;
use dataset::recall::mean_recall;
use dnnd::{build, CommOpts, DnndConfig};
use std::sync::Arc;
use ygm::World;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 2_500 } else { 1_000 });
    let k: usize = args.get("k", 10);
    let ranks: usize = args.get("ranks", 8);
    let seed: u64 = args.get("seed", 61);
    let dir = args.out_dir();
    args.finish();

    let set = Arc::new(presets::deep1b_like(n, seed));
    println!("ablation dataset: DEEP-like n={n} k={k} ranks={ranks}");
    let truth = brute_force_knng(&set, &L2, k);

    // --- 1. communication-saving techniques, one at a time ---
    let mut t1 = Table::new(
        "Ablation 1: Section 4.3 techniques (cumulative from none to all)",
        &[
            "Config",
            "Check msgs",
            "Check bytes",
            "Recall",
            "Virtual secs",
        ],
    );
    let variants: [(&str, CommOpts); 4] = [
        ("none (Fig 1a)", CommOpts::unoptimized()),
        (
            "+one-sided",
            CommOpts {
                one_sided: true,
                skip_redundant: false,
                prune_distance: false,
            },
        ),
        (
            "+redundant-skip",
            CommOpts {
                one_sided: true,
                skip_redundant: true,
                prune_distance: false,
            },
        ),
        ("+dist-pruning (Fig 1b)", CommOpts::optimized()),
    ];
    for (label, opts) in variants {
        println!("running {label}...");
        let res = build(
            &World::new(ranks),
            &set,
            &L2,
            DnndConfig::new(k).seed(seed).comm_opts(opts),
        );
        let traffic = res.report.check_traffic();
        let recall = mean_recall(&res.graph.neighbor_ids(), &truth);
        t1.row(&[
            &label,
            &traffic.count,
            &traffic.bytes,
            &format!("{recall:.4}"),
            &format!("{:.4}", res.report.sim_secs),
        ]);
    }
    t1.print();
    t1.write_csv(&dir, "ablation_comm_saving").expect("csv");

    // --- 2. reverse-exchange shuffle ---
    let mut t2 = Table::new(
        "Ablation 2: reverse-exchange destination shuffle (Section 4.2)",
        &["Shuffle", "Recall", "Virtual secs"],
    );
    for on in [true, false] {
        let res = build(
            &World::new(ranks),
            &set,
            &L2,
            DnndConfig::new(k).seed(seed).shuffle_reverse(on),
        );
        let recall = mean_recall(&res.graph.neighbor_ids(), &truth);
        t2.row(&[
            &on,
            &format!("{recall:.4}"),
            &format!("{:.4}", res.report.sim_secs),
        ]);
    }
    t2.print();
    t2.write_csv(&dir, "ablation_shuffle").expect("csv");

    // --- 3. batch size sweep ---
    let mut t3 = Table::new(
        "Ablation 3: communication batch size (Section 4.4; paper uses 2^25-2^30)",
        &["Batch size", "Recall", "Virtual secs", "Wall secs"],
    );
    for shift in [8u32, 12, 16, 20] {
        let res = build(
            &World::new(ranks),
            &set,
            &L2,
            DnndConfig::new(k).seed(seed).batch_size(1 << shift),
        );
        let recall = mean_recall(&res.graph.neighbor_ids(), &truth);
        t3.row(&[
            &format!("2^{shift}"),
            &format!("{recall:.4}"),
            &format!("{:.4}", res.report.sim_secs),
            &format!("{:.2}", res.report.wall_secs),
        ]);
    }
    t3.print();
    t3.write_csv(&dir, "ablation_batch").expect("csv");

    // --- 4. rho / delta sensitivity ---
    let mut t4 = Table::new(
        "Ablation 4: rho and delta sensitivity",
        &["rho", "delta", "Recall", "Iterations", "Distance evals"],
    );
    for &rho in &[0.4f64, 0.8, 1.0] {
        for &delta in &[0.01f64, 0.001] {
            let res = build(
                &World::new(ranks),
                &set,
                &L2,
                DnndConfig::new(k).seed(seed).rho(rho).delta(delta),
            );
            let recall = mean_recall(&res.graph.neighbor_ids(), &truth);
            t4.row(&[
                &rho,
                &delta,
                &format!("{recall:.4}"),
                &res.report.iterations,
                &res.report.distance_evals,
            ]);
        }
    }
    t4.print();
    t4.write_csv(&dir, "ablation_rho_delta").expect("csv");

    // --- 5. RP-forest vs random init (shared-memory engine) ---
    let mut t5 = Table::new(
        "Ablation 5: RP-forest vs random initialization (shared-memory nnd)",
        &[
            "Init",
            "Recall",
            "Iterations",
            "First-iter updates",
            "Distance evals",
        ],
    );
    let params = nnd::NnDescentParams::new(k).seed(seed);
    let (g_rand, s_rand) = nnd::build(&set, &L2, params);
    let cands = nnd::rp_forest_candidates(&set, nnd::RpForestParams::for_k(k));
    let (g_rp, s_rp) = nnd::build_with_init(&set, &L2, params, Some(&cands));
    for (label, g, s) in [("random", &g_rand, &s_rand), ("rp-forest", &g_rp, &s_rp)] {
        t5.row(&[
            &label,
            &format!("{:.4}", mean_recall(&g.neighbor_ids(), &truth)),
            &s.iterations,
            &s.updates_per_iter.first().copied().unwrap_or(0),
            &s.distance_evals,
        ]);
    }
    t5.print();
    t5.write_csv(&dir, "ablation_init").expect("csv");

    println!("\ncsv written to {}", dir.display());
}
