//! **Dataset diagnostics** — LID / contrast profile of every synthetic
//! stand-in, plus its NN-Descent difficulty (iterations and distance
//! evaluations to converge). Complements Table 1: it shows the stand-ins
//! have genuine local structure (LID well below ambient dimension,
//! expansion > 1) rather than being degenerate uniform noise.

use bench::{Args, Table};
use dataset::ground_truth::brute_force_knng;
use dataset::metric::{Cosine, Jaccard, L2};
use dataset::point::Point;
use dataset::presets;
use dataset::recall::mean_recall;
use dataset::set::PointSet;
use dataset::{analysis, GroundTruth};
use nnd::{build, NnDescentParams};

fn report_one<P: Point, M: dataset::batch::BatchMetric<P>>(
    name: &str,
    set: PointSet<P>,
    metric: M,
    ambient_dim: usize,
    k: usize,
    seed: u64,
    t: &mut Table,
) {
    let truth: GroundTruth = brute_force_knng(&set, &metric, k);
    let p = analysis::profile(&truth);
    let (g, stats) = build(&set, &metric, NnDescentParams::new(k).seed(seed));
    let recall = mean_recall(&g.neighbor_ids(), &truth);
    t.row(&[
        &name,
        &set.len(),
        &ambient_dim,
        &format!("{:.1}", p.mean_lid),
        &format!("{:.1}", p.median_lid),
        &format!("{:.2}", p.expansion),
        &stats.iterations,
        &stats.distance_evals,
        &format!("{recall:.4}"),
    ]);
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 2_000 } else { 800 });
    let k: usize = args.get("k", 15);
    let seed: u64 = args.get("seed", 13);
    let dir = args.out_dir();
    args.finish();

    println!("dataset diagnostics: n={n} k={k}");
    let mut t = Table::new(
        "Synthetic stand-in profiles (LID = local intrinsic dimensionality)",
        &[
            "Dataset",
            "N",
            "Ambient dim",
            "Mean LID",
            "Median LID",
            "Expansion",
            "NN-D iters",
            "NN-D dist evals",
            "NN-D recall",
        ],
    );
    report_one(
        "Fashion-MNIST-like",
        presets::fashion_mnist_like(n, seed),
        L2,
        784,
        k,
        seed,
        &mut t,
    );
    report_one(
        "GloVe25-like",
        presets::glove25_like(n, seed),
        Cosine,
        25,
        k,
        seed,
        &mut t,
    );
    report_one(
        "Kosarak-like",
        presets::kosarak_like(n, seed),
        Jaccard,
        27_983,
        k,
        seed,
        &mut t,
    );
    report_one(
        "MNIST-like",
        presets::mnist_like(n, seed),
        L2,
        784,
        k,
        seed,
        &mut t,
    );
    report_one(
        "NYTimes-like",
        presets::nytimes_like(n, seed),
        Cosine,
        256,
        k,
        seed,
        &mut t,
    );
    report_one(
        "Lastfm-like",
        presets::lastfm_like(n, seed),
        Cosine,
        65,
        k,
        seed,
        &mut t,
    );
    report_one(
        "DEEP-like",
        presets::deep1b_like(n, seed),
        L2,
        96,
        k,
        seed,
        &mut t,
    );
    report_one(
        "BigANN-like",
        presets::bigann_like(n, seed),
        L2,
        128,
        k,
        seed,
        &mut t,
    );

    t.print();
    let path = t.write_csv(&dir, "dataset_report").expect("csv");
    println!("\ncsv: {}", path.display());
}
