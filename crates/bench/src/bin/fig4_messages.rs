//! **Figure 4** — effectiveness of the neighbor-check communication-saving
//! techniques.
//!
//! The paper constructs k = 10 graphs for DEEP-1B and BigANN on 16 nodes
//! with the unoptimized (Type 1 + Type 2) and optimized (Type 1 +
//! Type 2+ + Type 3) protocols and reports that both the number of
//! messages (Fig. 4a) and the total message volume (Fig. 4b) drop by
//! about 50%, with BigANN's volume smaller than DEEP's because its
//! vectors are `u8`.
//!
//! This harness reproduces both panels at `--n` scale on `--ranks`
//! simulated ranks, printing per-tag breakdowns and the reduction ratios.

use bench::{pct, Args, Table};
use dataset::metric::L2;
use dataset::point::Point;
use dataset::presets;
use dataset::set::PointSet;
use dnnd::msgs::{TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3};
use dnnd::{build, BuildReport, CommOpts, DnndConfig};
use std::sync::Arc;
use ygm::World;

fn run<P: Point, M: dataset::batch::BatchMetric<P>>(
    set: &Arc<PointSet<P>>,
    metric: &M,
    k: usize,
    ranks: usize,
    seed: u64,
    opts: CommOpts,
) -> BuildReport {
    let world = World::new(ranks);
    build(
        &world,
        set,
        metric,
        DnndConfig::new(k).seed(seed).comm_opts(opts),
    )
    .report
}

#[allow(clippy::too_many_arguments)]
fn report_dataset<P: Point, M: dataset::batch::BatchMetric<P>>(
    name: &str,
    set: PointSet<P>,
    metric: M,
    k: usize,
    ranks: usize,
    seed: u64,
    counts: &mut Table,
    volumes: &mut Table,
    tags: &mut Table,
) {
    println!("building {name} unoptimized...");
    let set = Arc::new(set);
    let unopt = run(&set, &metric, k, ranks, seed, CommOpts::unoptimized());
    println!("building {name} optimized...");
    let opt = run(&set, &metric, k, ranks, seed, CommOpts::optimized());

    let tu = unopt.check_traffic();
    let to = opt.check_traffic();
    counts.row(&[
        &name,
        &tu.count,
        &to.count,
        &pct(to.count as f64, tu.count as f64),
    ]);
    volumes.row(&[
        &name,
        &tu.bytes,
        &to.bytes,
        &pct(to.bytes as f64, tu.bytes as f64),
    ]);
    for (label, rep) in [("unoptimized", &unopt), ("optimized", &opt)] {
        for tag in [TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3] {
            let s = rep.tag(tag);
            if s.count > 0 {
                let tag_name = match tag {
                    TAG_TYPE1 => "Type 1",
                    TAG_TYPE2 => "Type 2",
                    TAG_TYPE2_PLUS => "Type 2+",
                    _ => "Type 3",
                };
                tags.row(&[&name, &label, &tag_name, &s.count, &s.bytes]);
            }
        }
    }
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", if args.flag("full") { 4_000 } else { 1_500 });
    let k: usize = args.get("k", 10); // the paper's Figure 4 uses k = 10
    let ranks: usize = args.get("ranks", 16); // and 16 nodes
    let seed: u64 = args.get("seed", 9);
    let dir = args.out_dir();
    args.finish();

    println!("Figure 4 reproduction: n={n} k={k} ranks={ranks}");
    let mut counts = Table::new(
        "Figure 4a: neighbor-check messages (paper: optimized ~= 50% of unoptimized)",
        &[
            "Dataset",
            "Unoptimized",
            "Optimized",
            "Optimized/Unoptimized",
        ],
    );
    let mut volumes = Table::new(
        "Figure 4b: neighbor-check message volume in bytes (BigANN < DEEP: u8 vectors)",
        &[
            "Dataset",
            "Unoptimized",
            "Optimized",
            "Optimized/Unoptimized",
        ],
    );
    let mut tags = Table::new(
        "Per-tag breakdown",
        &["Dataset", "Protocol", "Tag", "Messages", "Bytes"],
    );

    report_dataset(
        "DEEP-like (96d f32)",
        presets::deep1b_like(n, seed),
        L2,
        k,
        ranks,
        seed,
        &mut counts,
        &mut volumes,
        &mut tags,
    );
    report_dataset(
        "BigANN-like (128d u8)",
        presets::bigann_like(n, seed),
        L2,
        k,
        ranks,
        seed,
        &mut counts,
        &mut volumes,
        &mut tags,
    );

    counts.print();
    volumes.print();
    tags.print();
    counts.write_csv(&dir, "fig4a_messages").expect("csv");
    volumes.write_csv(&dir, "fig4b_volume").expect("csv");
    tags.write_csv(&dir, "fig4_tags").expect("csv");
    println!("\ncsv written to {}", dir.display());
}
