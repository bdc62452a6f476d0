//! **Section 5.2** — preliminary NN-graph quality evaluation.
//!
//! The paper builds k-NNGs (k = 100) over the six small Table 1 datasets
//! and scores them against brute-force ground truth, reporting mean recall
//! 0.93 (NYTimes), 0.98 (Last.fm), and >= 0.99 elsewhere. This harness does
//! the same over the scaled synthetic stand-ins, with DNND running on
//! `--ranks` simulated ranks.
//!
//! Defaults are sized for minutes-scale runs: `--n 1200 --k 20`. Use
//! `--k 100 --n 4000` (slower) to mirror the paper's k exactly.

use bench::{Args, Table};
use dataset::ground_truth::brute_force_knng;
use dataset::metric::{Cosine, Jaccard, L2};
use dataset::point::Point;
use dataset::presets;
use dataset::recall::mean_recall;
use dataset::set::PointSet;
use dnnd::{build, DnndConfig};
use std::sync::Arc;
use ygm::World;

/// Paper-reported recall for each dataset (Section 5.2 text).
fn paper_recall(name: &str) -> &'static str {
    match name {
        "NYTimes" => "0.93",
        "Last.fm" => "0.98",
        _ => ">=0.99",
    }
}

fn run_one<P: Point, M: dataset::batch::BatchMetric<P>>(
    name: &'static str,
    set: PointSet<P>,
    metric: M,
    k: usize,
    ranks: usize,
    seed: u64,
    table: &mut Table,
) {
    let set = Arc::new(set);
    let world = World::new(ranks);
    let start = std::time::Instant::now();
    let out = build(&world, &set, &metric, DnndConfig::new(k).seed(seed));
    let build_secs = start.elapsed().as_secs_f64();
    let truth = brute_force_knng(&set, &metric, k);
    let recall = mean_recall(&out.graph.neighbor_ids(), &truth);
    table.row(&[
        &name,
        &set.len(),
        &metric.name(),
        &k,
        &paper_recall(name),
        &format!("{recall:.4}"),
        &out.report.iterations,
        &format!("{build_secs:.1}s"),
    ]);
    println!(
        "  {name}: recall {recall:.4} ({} iterations)",
        out.report.iterations
    );
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 4_000 } else { 1_200 });
    let k: usize = args.get("k", if args.flag("full") { 100 } else { 20 });
    let ranks: usize = args.get("ranks", 4);
    let seed: u64 = args.get("seed", 5);
    let dir = args.out_dir();
    args.finish();

    println!("Section 5.2 quality check: n={n} k={k} ranks={ranks}");
    let mut t = Table::new(
        "Section 5.2: DNND k-NNG recall vs brute force",
        &[
            "Dataset",
            "N",
            "Metric",
            "k",
            "Paper recall",
            "Measured recall",
            "Iterations",
            "Build (wall)",
        ],
    );

    run_one(
        "Fashion-MNIST",
        presets::fashion_mnist_like(n, seed),
        L2,
        k,
        ranks,
        seed,
        &mut t,
    );
    run_one(
        "GloVe 25",
        presets::glove25_like(n, seed),
        Cosine,
        k,
        ranks,
        seed,
        &mut t,
    );
    run_one(
        "Kosarak",
        presets::kosarak_like(n, seed),
        Jaccard,
        k,
        ranks,
        seed,
        &mut t,
    );
    run_one(
        "MNIST",
        presets::mnist_like(n, seed),
        L2,
        k,
        ranks,
        seed,
        &mut t,
    );
    run_one(
        "NYTimes",
        presets::nytimes_like(n, seed),
        Cosine,
        k,
        ranks,
        seed,
        &mut t,
    );
    run_one(
        "Last.fm",
        presets::lastfm_like(n, seed),
        Cosine,
        k,
        ranks,
        seed,
        &mut t,
    );

    t.print();
    let path = t.write_csv(&dir, "recall_small").expect("write csv");
    println!("\ncsv: {}", path.display());
}
