//! **Table 1** — datasets used in the evaluation.
//!
//! Prints the paper's inventory next to the synthetic stand-ins this
//! reproduction generates (dimensions and element types match; entry
//! counts are scaled by `--n`).

use bench::{Args, Table};
use dataset::presets;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 2_000);
    let seed: u64 = args.get("seed", 1);
    let dir = args.out_dir();
    args.finish();

    let mut t = Table::new(
        "Table 1: Datasets used in the evaluation (paper vs. synthetic stand-in)",
        &[
            "Dataset",
            "Dimensions",
            "Entries (paper)",
            "Metric",
            "Elem",
            "Stand-in entries",
            "Stand-in bytes",
        ],
    );

    // Generate each stand-in at the requested scale to report its true size.
    let sizes: Vec<(usize, usize)> = vec![
        {
            let s = presets::fashion_mnist_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::glove25_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::kosarak_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::mnist_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::nytimes_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::lastfm_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::deep1b_like(n, seed);
            (s.len(), s.storage_bytes())
        },
        {
            let s = presets::bigann_like(n, seed);
            (s.len(), s.storage_bytes())
        },
    ];

    for (info, (sn, sb)) in presets::TABLE1.iter().zip(sizes) {
        t.row(&[
            &info.name,
            &info.dim,
            &info.paper_entries,
            &info.metric,
            &info.elem,
            &sn,
            &sb,
        ]);
    }
    t.print();
    let path = t.write_csv(&dir, "table1").expect("write csv");
    println!("\ncsv: {}", path.display());
}
