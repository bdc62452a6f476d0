//! **Table 2** — Hnswlib parameter survey.
//!
//! The paper surveys Hnswlib's `M` and `ef_construction` and selects, for
//! each DNND graph, the cheapest Hnswlib build of comparable quality
//! (Section 5.3.2), arriving at Hnsw A (M=64, efc=50), B (M=64, efc=200),
//! C (M=32, efc=25), D (M=64, efc=200). This harness reruns the survey on
//! the DEEP-like and BigANN-like stand-ins: every (M, efc) cell is built,
//! queried over an `ef` sweep, and reported with its construction cost so
//! the same selection logic can be applied.

use bench::{Args, Table};
use dataset::ground_truth::brute_force_queries;
use dataset::metric::L2;
use dataset::point::Point;
use dataset::presets;
use dataset::recall::mean_recall;
use dataset::set::PointSet;
use dataset::synth::split_queries;
use hnsw::{HnswIndex, HnswParams};

fn survey<P: Point, M: dataset::batch::BatchMetric<P>>(
    name: &str,
    full: PointSet<P>,
    metric: M,
    n_queries: usize,
    seed: u64,
    out: &mut Table,
) {
    let (base, queries) = split_queries(full, n_queries);
    let truth = brute_force_queries(&base, &queries, &metric, 10);
    for m in [16usize, 32, 64] {
        for efc in [25usize, 50, 100, 200] {
            println!("{name}: M={m} efc={efc}...");
            let start = std::time::Instant::now();
            let idx = HnswIndex::build(&base, metric.clone(), HnswParams::new(m, efc).seed(seed));
            let build_secs = start.elapsed().as_secs_f64();
            for ef in [20usize, 100, 400] {
                let (ids, qps) = idx.search_batch(&queries, 10, ef);
                let recall = mean_recall(&ids, &truth);
                out.row(&[
                    &name,
                    &m,
                    &efc,
                    &ef,
                    &format!("{recall:.4}"),
                    &format!("{qps:.0}"),
                    &format!("{build_secs:.2}"),
                    &idx.build_distance_evals,
                ]);
            }
        }
    }
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 4_000 } else { 1_500 });
    let n_queries: usize = args.get("queries", 150);
    let seed: u64 = args.get("seed", 41);
    let dir = args.out_dir();
    args.finish();

    println!("Table 2 parameter survey: n={n} queries={n_queries}");
    println!(
        "Paper's selected cells: Hnsw A (M=64, efc=50), B (M=64, efc=200) on DEEP;\n\
         Hnsw C (M=32, efc=25), D (M=64, efc=200) on BigANN; ef sweeps 20-1200."
    );
    let mut t = Table::new(
        "Table 2 survey: HNSW build cost and query quality per (M, efc, ef)",
        &[
            "Dataset",
            "M",
            "efc",
            "ef",
            "Recall@10",
            "QPS",
            "Build secs",
            "Build dist evals",
        ],
    );
    survey(
        "DEEP-like",
        presets::deep1b_like(n + n_queries, 51),
        L2,
        n_queries,
        seed,
        &mut t,
    );
    survey(
        "BigANN-like",
        presets::bigann_like(n + n_queries, 51),
        L2,
        n_queries,
        seed,
        &mut t,
    );
    t.print();
    let path = t.write_csv(&dir, "table2_hnsw_survey").expect("csv");
    println!("\ncsv: {}", path.display());
}
