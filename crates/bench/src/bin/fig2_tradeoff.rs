//! **Figure 2** — recall@10 vs. query throughput trade-off.
//!
//! The paper queries the graphs built for Figure 3 with 10,000 held-out
//! queries (10 ground-truth neighbors each), sweeping the search parameter:
//! `epsilon` in {0.0, 0.1, 0.125, ..., 0.4} for DNND graphs and `ef` for
//! Hnswlib. Findings: DNND k20 matches Hnswlib's best graphs, DNND k30
//! beats them (Figures 2c/2d zoom into recall >= 0.9).
//!
//! This harness rebuilds all six indices per dataset at `--n` scale and
//! prints one (recall, qps) series per index. qps is wall-clock over the
//! parallel batch, as in the paper's query program.

use bench::{Args, Table};
use dataset::ground_truth::brute_force_queries;
use dataset::metric::L2;
use dataset::point::Point;
use dataset::presets;
use dataset::recall::mean_recall;
use dataset::set::PointSet;
use dataset::synth::split_queries;
use dnnd::{build, DnndConfig};
use hnsw::{HnswIndex, HnswParams};
use nnd::{search_batch, SearchParams};
use std::sync::Arc;
use ygm::World;

fn epsilon_sweep() -> Vec<f32> {
    // epsilon = 0 plus 0.1..=0.4 step 0.025 (Section 5.3.1).
    let mut eps = vec![0.0f32];
    let mut e = 0.1f32;
    while e <= 0.4 + 1e-6 {
        eps.push(e);
        e += 0.025;
    }
    eps
}

#[allow(clippy::too_many_arguments)]
fn dataset_section<P: Point, M: dataset::batch::BatchMetric<P>>(
    name: &str,
    full: PointSet<P>,
    metric: M,
    hnsw_cfgs: [(&'static str, usize, usize); 2],
    n_queries: usize,
    ranks: usize,
    seed: u64,
    out: &mut Table,
) {
    let (base, queries) = split_queries(full, n_queries);
    let base = Arc::new(base);
    println!("{name}: computing ground truth for {n_queries} queries...");
    let truth = brute_force_queries(&base, &queries, &metric, 10);

    // --- DNND k10/k20/k30 graphs (optimized, m = 1.5, as in the paper) ---
    for &k in &[10usize, 20, 30] {
        println!("{name}: building DNND k{k}...");
        let world = World::new(ranks);
        let res = build(
            &world,
            &base,
            &metric,
            DnndConfig::new(k).seed(seed).graph_opt(1.5),
        );
        for &eps in &epsilon_sweep() {
            let batch = search_batch(
                &res.graph,
                &base,
                &metric,
                &queries,
                SearchParams::new(10)
                    .epsilon(eps)
                    .seed(seed)
                    .entry_candidates(32),
            );
            let recall = mean_recall(&batch.ids, &truth);
            out.row(&[
                &name,
                &format!("DNND k{k}"),
                &format!("eps={eps:.3}"),
                &format!("{recall:.4}"),
                &format!("{:.0}", batch.qps),
            ]);
        }
    }

    // --- Hnswlib stand-ins ---
    for (label, m, efc) in hnsw_cfgs {
        println!("{name}: building {label} (M={m}, efc={efc})...");
        let idx = HnswIndex::build(&base, metric.clone(), HnswParams::new(m, efc).seed(seed));
        for ef in [20usize, 40, 80, 160, 320, 640, 1200] {
            let start = std::time::Instant::now();
            let (ids, qps) = idx.search_batch(&queries, 10, ef);
            let _ = start;
            let recall = mean_recall(&ids, &truth);
            out.row(&[
                &name,
                &label,
                &format!("ef={ef}"),
                &format!("{recall:.4}"),
                &format!("{qps:.0}"),
            ]);
        }
    }
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 5_000 } else { 2_000 });
    let n_queries: usize = args.get("queries", 200);
    let ranks: usize = args.get("ranks", 8);
    let seed: u64 = args.get("seed", 21);
    let dir = args.out_dir();
    args.finish();

    println!("Figure 2 reproduction: n={n} queries={n_queries} ranks={ranks}");
    let mut t = Table::new(
        "Figure 2: recall@10 vs query throughput (each row = one sweep point)",
        &["Dataset", "Index", "Sweep", "Recall@10", "QPS"],
    );

    dataset_section(
        "DEEP-like",
        presets::deep1b_like(n + n_queries, 31),
        L2,
        [("Hnsw A", 64, 50), ("Hnsw B", 64, 200)],
        n_queries,
        ranks,
        seed,
        &mut t,
    );
    dataset_section(
        "BigANN-like",
        presets::bigann_like(n + n_queries, 31),
        L2,
        [("Hnsw C", 32, 25), ("Hnsw D", 64, 200)],
        n_queries,
        ranks,
        seed,
        &mut t,
    );

    t.print();
    let path = t.write_csv(&dir, "fig2_tradeoff").expect("csv");
    println!("\ncsv: {}", path.display());
    println!(
        "\nPaper shape to check: larger k dominates the high-recall regime\n\
         (k30 > k20 > k10 at equal qps near recall 0.9+), and DNND k20/k30\n\
         reach recall levels comparable to or beyond the best Hnsw curves."
    );
}
