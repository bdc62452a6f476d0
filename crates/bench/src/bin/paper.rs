//! **The paper's evaluation**, one section per table or figure:
//!
//! | section | what it regenerates |
//! |---|---|
//! | `table1` | Table 1, and each stand-in's LID / NN-Descent difficulty |
//! | `recall` | §5.2: DNND k-NNG recall against brute force |
//! | `table2` | Table 2: the Hnswlib (M, efc) × ef survey |
//! | `fig2` | Figure 2: recall@10 against query throughput |
//! | `fig3` | Figure 3 / Table 3: construction time against node count |
//! | `fig4` | Figure 4: neighbor-check messages and bytes, per tag |
//! | `ablation` | the design choices DESIGN.md §6 names |
//! | `profile` | §7: compute / communication / barrier time per rank count |
//!
//! `paper` runs every section at the size EXPERIMENTS.md records;
//! `--section <name>` runs one, and `--n` overrides the size of every
//! section that runs. Seeds, `k`, rank and query counts are each
//! section's constants. Every table is printed and written as CSV under
//! `--out` (default `results/`). `--trace-out`, `--report-out` and
//! `--dashboard-out` record the `profile` section's 8-rank build.
//!
//! ```text
//! cargo run --release -p bench --bin paper -- --section fig4
//! ```

use bench::{die, pct, Args, ObsOuts, Table};
use dataset::metric::{Cosine, Jaccard, L2};
use dataset::presets::{self, DatasetInfo};
use dataset::synth::split_queries;
use dataset::{analysis, brute_force_knng, brute_force_queries, mean_recall};
use dataset::{BatchMetric, GroundTruth, Point, PointId, PointSet};
use dnnd::msgs::{TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3};
use dnnd::{build, CommOpts, DnndConfig, DnndOutput};
use hnsw::{HnswIndex, HnswParams};
use nnd::{search_batch, NnDescentParams, SearchParams};
use std::fmt::Display;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use ygm::{ClockBreakdown, CostModel, World};

/// A section's body: its size, the CSV directory, the observability
/// outputs (only `profile` writes them).
type Section = fn(usize, &Path, &ObsOuts);

/// The largest `k` a section builds (Figures 2 and 3's DNND k30): every
/// size must exceed it.
const MAX_K: usize = 30;

/// Every section in run order, with its default size.
const SECTIONS: [(&str, usize, Section); 8] = [
    ("table1", 2_000, table1),
    ("recall", 1_500, recall),
    ("table2", 1_200, table2),
    ("fig2", 2_000, fig2),
    ("fig3", 1_500, fig3),
    ("fig4", 2_000, fig4),
    ("ablation", 1_000, ablation),
    ("profile", 1_200, profile),
];

fn main() {
    let args = Args::parse();
    let section: String = args.get("section", "all".into());
    let n: Option<usize> = args.opt("n");
    let (dir, outs) = (args.out_dir(), ObsOuts::parse(&args));
    args.finish();

    let run: Vec<_> = (SECTIONS.iter())
        .filter(|(name, ..)| section == "all" || *name == section)
        .collect();
    if run.is_empty() {
        let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
        die(&format!(
            "unknown section {section:?} (all, {})",
            names.join(", ")
        ));
    }
    if n.is_some_and(|n| n <= MAX_K) {
        die(&format!(
            "--n must exceed {MAX_K}, the largest k a section builds"
        ));
    }
    let observed = [&outs.trace, &outs.report, &outs.dashboard];
    if observed.iter().any(|p| !p.is_empty()) && !run.iter().any(|s| s.0 == "profile") {
        die("--trace-out, --report-out and --dashboard-out record the profile section's build: run it with --section profile or all");
    }
    for (name, default_n, body) in run {
        let n = n.unwrap_or(*default_n);
        println!("\n#### paper --section {name} --n {n}");
        body(n, &dir, &outs);
    }
}

/// What a section does with one stand-in. A trait, not a closure: a
/// closure cannot be generic over the point type.
trait Visit {
    fn visit<P: Point, M: BatchMetric<P>>(
        &mut self,
        info: &DatasetInfo,
        stand_in: &str,
        set: PointSet<P>,
        metric: M,
    );
}

/// Table 1's rows: the six small datasets, then DEEP and BigANN.
const SMALL: Range<usize> = 0..6;
const BILLION: Range<usize> = 6..8;
const ALL: Range<usize> = 0..8;

/// Visit the stand-ins of Table 1's `rows` in its order, each `n` points
/// from `seed`, with its metric.
fn walk(rows: Range<usize>, n: usize, seed: u64, v: &mut impl Visit) {
    macro_rules! walk {
        ($($row:literal $stand_in:literal $gen:ident $metric:ident;)*) => {$(
            if rows.contains(&$row) {
                let set = presets::$gen(n, seed);
                v.visit(&presets::TABLE1[$row], $stand_in, set, $metric);
            }
        )*};
    }
    walk! {
        0 "Fashion-MNIST-like" fashion_mnist_like L2;
        1 "GloVe25-like" glove25_like Cosine;
        2 "Kosarak-like" kosarak_like Jaccard;
        3 "MNIST-like" mnist_like L2;
        4 "NYTimes-like" nytimes_like Cosine;
        5 "Lastfm-like" lastfm_like Cosine;
        6 "DEEP-like" deep1b_like L2;
        7 "BigANN-like" bigann_like L2;
    }
}

/// A DNND build on `ranks` simulated ranks, and its graph's mean recall
/// against `truth`.
fn build_scored<P: Point, M: BatchMetric<P>>(
    set: &Arc<PointSet<P>>,
    metric: &M,
    ranks: usize,
    cfg: DnndConfig,
    truth: &GroundTruth,
) -> (DnndOutput, f64) {
    let out = build(&World::new(ranks), set, metric, cfg);
    let recall = mean_recall(&out.graph.neighbor_ids(), truth);
    (out, recall)
}

/// Print `t`, write it as `dir/<name>.csv`, and say where.
fn emit(t: &Table, dir: &Path, name: &str) {
    t.print();
    match t.write_csv(dir, name) {
        Ok(path) => println!("csv: {}", path.display()),
        Err(e) => die(&format!(
            "cannot write {name}.csv in {}: {e}",
            dir.display()
        )),
    }
}

/// Hold the last `queries` points out; the base, the queries, and each
/// query's 10 true neighbors in the base.
fn held_out<P: Point, M: BatchMetric<P>>(
    full: PointSet<P>,
    queries: usize,
    metric: &M,
) -> (Arc<PointSet<P>>, PointSet<P>, GroundTruth) {
    let (base, queries) = split_queries(full, queries);
    let truth = brute_force_queries(&base, &queries, metric, 10);
    (Arc::new(base), queries, truth)
}

/// A billion-point stand-in's two Table 2 Hnswlib cells (label, M, efc),
/// and Table 3's paper hours at [`NODES`] for those cells (one node) and
/// for DNND k = 10, 20, 30; `None` where the paper has no point.
#[allow(clippy::type_complexity)]
fn paper_configs(stand_in: &str) -> ([(&'static str, usize, usize); 2], [[Option<f64>; 5]; 5]) {
    const NO: Option<f64> = None;
    if stand_in == "DEEP-like" {
        let hours = [
            [Some(5.90), NO, NO, NO, NO],
            [Some(22.60), NO, NO, NO, NO],
            [NO, Some(6.96), Some(3.87), Some(1.84), Some(1.50)],
            [NO, NO, Some(10.62), Some(5.18), Some(3.74)],
            [NO, NO, NO, Some(10.29), Some(6.58)],
        ];
        ([("Hnsw A", 64, 50), ("Hnsw B", 64, 200)], hours)
    } else {
        let hours = [
            [Some(1.70), NO, NO, NO, NO],
            [Some(16.50), NO, NO, NO, NO],
            [NO, Some(5.45), Some(2.92), Some(1.27), Some(1.24)],
            [NO, NO, Some(8.19), Some(3.50), Some(3.05)],
            [NO, NO, NO, Some(6.84), Some(5.83)],
        ];
        ([("Hnsw C", 32, 25), ("Hnsw D", 64, 200)], hours)
    }
}

/// **Table 1** — the paper's datasets next to their stand-ins (dimension,
/// metric and element type match; entry counts are `n`), and each
/// stand-in's profile: LID well below the ambient dimension and expansion
/// above 1 show local structure, not uniform noise.
fn table1(n: usize, dir: &Path, _: &ObsOuts) {
    const K: usize = 15;
    const SEED: u64 = 1;
    struct Rows(Table, Table);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            info: &DatasetInfo,
            stand_in: &str,
            set: PointSet<P>,
            metric: M,
        ) {
            self.0.row(&[
                &info.name,
                &info.dim,
                &info.paper_entries,
                &info.metric,
                &info.elem,
                &set.len(),
                &set.storage_bytes(),
            ]);
            let truth = brute_force_knng(&set, &metric, K);
            let p = analysis::profile(&truth);
            let (g, stats) = nnd::build(&set, &metric, NnDescentParams::new(K).seed(SEED));
            self.1.row(&[
                &stand_in,
                &set.len(),
                &info.dim,
                &format!("{:.1}", p.mean_lid),
                &format!("{:.1}", p.median_lid),
                &format!("{:.2}", p.expansion),
                &stats.iterations,
                &stats.distance_evals,
                &format!("{:.4}", mean_recall(&g.neighbor_ids(), &truth)),
            ]);
        }
    }
    let mut rows = Rows(
        Table::new(
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
        ),
        Table::new(
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
        ),
    );
    walk(ALL, n, SEED, &mut rows);
    emit(&rows.0, dir, "table1");
    emit(&rows.1, dir, "dataset_report");
}

/// **§5.2** — k-NNGs over the six small datasets, scored against brute
/// force. The paper reports 0.93 (NYTimes), 0.98 (Last.fm) and >= 0.99
/// elsewhere at k = 100 on the full data.
fn recall(n: usize, dir: &Path, _: &ObsOuts) {
    const K: usize = 20;
    const SEED: u64 = 5;
    struct Rows(Table);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            info: &DatasetInfo,
            _: &str,
            set: PointSet<P>,
            metric: M,
        ) {
            let set = Arc::new(set);
            let truth = brute_force_knng(&set, &metric, K);
            let cfg = DnndConfig::new(K).seed(SEED);
            let (out, recall) = build_scored(&set, &metric, 4, cfg, &truth);
            let paper = match info.name {
                "NYTimes" => "0.93",
                "Last.fm" => "0.98",
                _ => ">=0.99",
            };
            self.0.row(&[
                &info.name,
                &set.len(),
                &metric.name(),
                &K,
                &paper,
                &format!("{recall:.4}"),
                &out.report.iterations,
                &format!("{:.1}s", out.report.wall_secs),
            ]);
        }
    }
    let mut rows = Rows(Table::new(
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
    ));
    walk(SMALL, n, SEED, &mut rows);
    emit(&rows.0, dir, "recall_small");
}

/// **Table 2** — every Hnswlib (M, efc) cell built, queried over an `ef`
/// sweep, and reported with its construction cost: the data the paper's
/// selection of Hnsw A–D (§5.3.2) is made from.
fn table2(n: usize, dir: &Path, _: &ObsOuts) {
    const QUERIES: usize = 120;
    const SEED: u64 = 41;
    struct Rows(Table);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            _: &DatasetInfo,
            stand_in: &str,
            full: PointSet<P>,
            metric: M,
        ) {
            let (base, queries, truth) = held_out(full, QUERIES, &metric);
            for m in [16usize, 32, 64] {
                for efc in [25usize, 50, 100, 200] {
                    let start = Instant::now();
                    let params = HnswParams::new(m, efc).seed(SEED);
                    let idx = HnswIndex::build(&base, metric.clone(), params);
                    let build_secs = start.elapsed().as_secs_f64();
                    for ef in [20usize, 100, 400] {
                        let (ids, qps) = idx.search_batch(&queries, 10, ef);
                        self.0.row(&[
                            &stand_in,
                            &m,
                            &efc,
                            &ef,
                            &format!("{:.4}", mean_recall(&ids, &truth)),
                            &format!("{qps:.0}"),
                            &format!("{build_secs:.2}"),
                            &idx.build_distance_evals,
                        ]);
                    }
                }
            }
        }
    }
    let mut rows = Rows(Table::new(
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
    ));
    walk(BILLION, n + QUERIES, 51, &mut rows);
    emit(&rows.0, dir, "table2_hnsw_survey");
}

/// **Figure 2** — held-out queries against DNND k10/k20/k30 graphs
/// (optimized, m = 1.5) over the paper's ε sweep, and against its two
/// Hnswlib cells over an `ef` sweep; QPS is the fastest of
/// [`FIG2_REPS`] runs of the batch.
fn fig2(n: usize, dir: &Path, _: &ObsOuts) {
    const QUERIES: usize = 150;
    const SEED: u64 = 21;
    struct Rows(Table);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            _: &DatasetInfo,
            stand_in: &str,
            full: PointSet<P>,
            metric: M,
        ) {
            let (base, queries, truth) = held_out(full, QUERIES, &metric);
            let t = &mut self.0;
            let mut point = |index: &dyn Display, sweep: String, recall: f64, qps: f64| {
                let (recall, qps) = (format!("{recall:.4}"), format!("{qps:.0}"));
                t.row(&[&stand_in, index, &sweep, &recall, &qps]);
            };
            for k in [10usize, 20, 30] {
                let cfg = DnndConfig::new(k).seed(SEED).graph_opt(nnd::PRUNE_M);
                let graph = build(&World::new(8), &base, &metric, cfg).graph;
                // ε = 0, then 0.1 ..= 0.4 in steps of 0.025 (§5.3.1).
                let steps = std::iter::successors(Some(0.1f32), |e| Some(e + 0.025));
                for eps in std::iter::once(0.0).chain(steps.take_while(|e| *e <= 0.4 + 1e-6)) {
                    let params = SearchParams::new(10).epsilon(eps).seed(SEED);
                    let params = params.entry_candidates(32);
                    let (ids, qps) = fastest_of_reps(|| {
                        let batch = search_batch(&graph, &base, &metric, &queries, params);
                        (batch.ids, batch.qps)
                    });
                    let recall = mean_recall(&ids, &truth);
                    point(&format!("DNND k{k}"), format!("eps={eps:.3}"), recall, qps);
                }
            }
            for (label, m, efc) in paper_configs(stand_in).0 {
                let params = HnswParams::new(m, efc).seed(SEED);
                let idx = HnswIndex::build(&base, metric.clone(), params);
                for ef in [20usize, 40, 80, 160, 320, 640, 1200] {
                    let (ids, qps) = fastest_of_reps(|| idx.search_batch(&queries, 10, ef));
                    point(&label, format!("ef={ef}"), mean_recall(&ids, &truth), qps);
                }
            }
        }
    }
    let mut rows = Rows(Table::new(
        "Figure 2: recall@10 vs query throughput (each row = one sweep point)",
        &["Dataset", "Index", "Sweep", "Recall@10", "QPS"],
    ));
    walk(BILLION, n + QUERIES, 31, &mut rows);
    emit(&rows.0, dir, "fig2_tradeoff");
}

/// Runs per Figure 2 cell. One batch is a few milliseconds of work, so a
/// single timing moves severalfold between runs.
const FIG2_REPS: usize = 5;

/// Run a query batch [`FIG2_REPS`] times: its ids (the same every run) and
/// its fastest throughput, since interference only adds time.
fn fastest_of_reps(mut run: impl FnMut() -> (Vec<Vec<PointId>>, f64)) -> (Vec<Vec<PointId>>, f64) {
    let (ids, mut qps) = run();
    for _ in 1..FIG2_REPS {
        let (again, q) = run();
        assert_eq!(again, ids, "a query batch answered differently on a rerun");
        qps = qps.max(q);
    }
    (ids, qps)
}

/// Node counts of Table 3's columns.
const NODES: [usize; 5] = [1, 4, 8, 16, 32];

/// Cores per Mammoth node (dual 64-core EPYC).
const NODE_CORES: f64 = 128.0;

/// Per-evaluation memory-stall penalty for HNSW inserts, nanoseconds of
/// core time. HNSW construction chases pointers through a graph spread
/// over hundreds of GiB at the paper's scale, so every candidate fetch is
/// a DRAM/TLB miss rather than the streaming access NN-Descent's batched
/// checks enjoy. Fitted against the seed commit's DNND times so Hnsw A
/// landed near DNND k10 on 4 nodes, the paper's Table 3a relation, and not
/// re-fitted since; EXPERIMENTS.md records where it places HNSW today.
const HNSW_MEM_NS: f64 = 1_200.0;

/// **Figure 3 / Table 3** — construction time against node count: DNND
/// k = 10, 20, 30 where the paper has a point, and the two single-node
/// Hnswlib cells.
///
/// Time basis: the ygm virtual clock with one simulated rank standing for
/// one 128-core node (the per-element distance cost divided by 128).
/// Hnswlib times are modeled from its measured distance evaluations at the
/// same per-node arithmetic throughput plus [`HNSW_MEM_NS`]. The stand-ins
/// are ~10³ points, not 10⁹, so the target is the shape — scaling slope,
/// flattening, who wins — not the paper's hours.
fn fig3(n: usize, dir: &Path, _: &ObsOuts) {
    const SEED: u64 = 3;
    struct Rows(Vec<Table>, Table);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            _: &DatasetInfo,
            stand_in: &str,
            set: PointSet<P>,
            metric: M,
        ) {
            let (set, elem_ns) = (Arc::new(set), CostModel::mammoth_like().dist_elem_ns);
            let mut node = CostModel::mammoth_like();
            node.dist_elem_ns /= NODE_CORES;
            let mut t = Table::new(
                &format!("Table 3, {stand_in}: construction time (paper hours | virtual secs)"),
                &[
                    "Config", "1 node", "4 nodes", "8 nodes", "16 nodes", "32 nodes",
                ],
            );
            let (hnsw, hours) = paper_configs(stand_in);
            for (row, hours) in hours.iter().enumerate() {
                let k = 10 * row.saturating_sub(1);
                let label = match hnsw.get(row) {
                    Some(cell) => cell.0.to_owned(),
                    None => format!("DNND k{k}"),
                };
                let mut cells = vec![label.clone()];
                for (&nodes, hours) in NODES.iter().zip(hours) {
                    let Some(hours) = hours else {
                        cells.push("-".into());
                        continue;
                    };
                    let start = Instant::now();
                    let secs = if let Some(&(_, m, efc)) = hnsw.get(row) {
                        let params = HnswParams::new(m, efc).seed(SEED);
                        let evals =
                            HnswIndex::build(&set, metric.clone(), params).build_distance_evals;
                        let per_eval_ns = (set.dim() as f64 * elem_ns + HNSW_MEM_NS) / NODE_CORES;
                        evals as f64 * per_eval_ns / 1e9
                    } else {
                        let world = World::new(nodes).cost_model(node);
                        let cfg = DnndConfig::new(k).seed(SEED).graph_opt(nnd::PRUNE_M);
                        build(&world, &set, &metric, cfg).report.sim_secs
                    };
                    let wall = start.elapsed().as_secs_f64();
                    cells.push(format!("{hours:.2} | {secs:.3}"));
                    self.1.row(&[&stand_in, &label, &nodes, &secs, &wall]);
                }
                t.row(&cells.iter().map(|c| c as &dyn Display).collect::<Vec<_>>());
            }
            self.0.push(t);
        }
    }
    let csv = Table::new(
        "raw",
        &["dataset", "config", "nodes", "virtual_secs", "wall_secs"],
    );
    let mut rows = Rows(Vec::new(), csv);
    walk(BILLION, n, 11, &mut rows);
    rows.0.iter().for_each(Table::print);
    emit(&rows.1, dir, "fig3_scaling");
}

/// **Figure 4** — k = 10 graphs on 16 ranks with the unoptimized protocol
/// (Type 1 and 2) and the optimized one (Type 1, 2+ and 3): messages (4a)
/// and bytes (4b) of the neighbor checks, and their per-tag split. The
/// paper reports both near 50 %, BigANN's bytes below DEEP's (u8).
fn fig4(n: usize, dir: &Path, _: &ObsOuts) {
    const SEED: u64 = 9;
    struct Rows([Table; 3]);
    impl Visit for Rows {
        fn visit<P: Point, M: BatchMetric<P>>(
            &mut self,
            info: &DatasetInfo,
            stand_in: &str,
            set: PointSet<P>,
            metric: M,
        ) {
            let name = format!("{stand_in} ({}d {})", info.dim, info.elem);
            let set = Arc::new(set);
            let [counts, volumes, tags] = &mut self.0;
            let run = |opts| {
                let cfg = DnndConfig::new(10).seed(SEED).comm_opts(opts);
                build(&World::new(16), &set, &metric, cfg).report
            };
            let (unopt, opt) = (run(CommOpts::unoptimized()), run(CommOpts::optimized()));
            let (tu, to) = (unopt.check_traffic(), opt.check_traffic());
            let ratio = |o: u64, u: u64| pct(o as f64, u as f64);
            counts.row(&[&name, &tu.count, &to.count, &ratio(to.count, tu.count)]);
            volumes.row(&[&name, &tu.bytes, &to.bytes, &ratio(to.bytes, tu.bytes)]);
            for (protocol, report) in [("unoptimized", &unopt), ("optimized", &opt)] {
                for (tag, label) in [
                    (TAG_TYPE1, "Type 1"),
                    (TAG_TYPE2, "Type 2"),
                    (TAG_TYPE2_PLUS, "Type 2+"),
                    (TAG_TYPE3, "Type 3"),
                ] {
                    let s = report.tag(tag);
                    if s.count > 0 {
                        tags.row(&[&name, &protocol, &label, &s.count, &s.bytes]);
                    }
                }
            }
        }
    }
    let headers = [
        "Dataset",
        "Unoptimized",
        "Optimized",
        "Optimized/Unoptimized",
    ];
    let mut rows = Rows([
        Table::new(
            "Figure 4a: neighbor-check messages (paper: optimized ~= 50% of unoptimized)",
            &headers,
        ),
        Table::new(
            "Figure 4b: neighbor-check message volume in bytes (BigANN < DEEP: u8 vectors)",
            &headers,
        ),
        Table::new(
            "Per-tag breakdown",
            &["Dataset", "Protocol", "Tag", "Messages", "Bytes"],
        ),
    ]);
    walk(BILLION, n, SEED, &mut rows);
    for (t, name) in rows
        .0
        .iter()
        .zip(["fig4a_messages", "fig4b_volume", "fig4_tags"])
    {
        emit(t, dir, name);
    }
}

/// **Ablations** beyond the paper's own unoptimized-vs-optimized
/// comparison, on the DEEP-like stand-in: each §4.3 technique added in
/// turn (the [`CommOpts`] ladder), the §4.4 batch size, ρ / δ, and
/// RP-forest against random initialization (shared-memory engine).
fn ablation(n: usize, dir: &Path, _: &ObsOuts) {
    const K: usize = 10;
    const SEED: u64 = 61;
    let set = Arc::new(presets::deep1b_like(n, SEED));
    let truth = brute_force_knng(&set, &L2, K);
    let run = |cfg: DnndConfig| build_scored(&set, &L2, 8, cfg.seed(SEED), &truth);
    let cfg = DnndConfig::new(K);

    let mut t = Table::new(
        "Ablation 1: Section 4.3 techniques (cumulative from none to all)",
        &[
            "Config",
            "Check msgs",
            "Check bytes",
            "Recall",
            "Virtual secs",
        ],
    );
    for (label, opts) in [
        ("none (Fig 1a)", CommOpts::Unoptimized),
        ("+one-sided", CommOpts::OneSided),
        ("+redundant-skip", CommOpts::SkipRedundant),
        ("+dist-pruning (Fig 1b)", CommOpts::Optimized),
    ] {
        let (out, recall) = run(cfg.comm_opts(opts));
        let traffic = out.report.check_traffic();
        t.row(&[
            &label,
            &traffic.count,
            &traffic.bytes,
            &format!("{recall:.4}"),
            &format!("{:.4}", out.report.sim_secs),
        ]);
    }
    emit(&t, dir, "ablation_comm_saving");

    let mut t = Table::new(
        "Ablation 2: communication batch size (Section 4.4; paper uses 2^25-2^30)",
        &["Batch size", "Recall", "Virtual secs", "Wall secs"],
    );
    for shift in [8u32, 12, 16, 20] {
        let (out, recall) = run(cfg.batch_size(1 << shift));
        t.row(&[
            &format!("2^{shift}"),
            &format!("{recall:.4}"),
            &format!("{:.4}", out.report.sim_secs),
            &format!("{:.2}", out.report.wall_secs),
        ]);
    }
    emit(&t, dir, "ablation_batch");

    let mut t = Table::new(
        "Ablation 3: rho and delta sensitivity",
        &["rho", "delta", "Recall", "Iterations", "Distance evals"],
    );
    for rho in [0.4f64, 0.8, 1.0] {
        for delta in [0.01f64, 0.001] {
            let (out, recall) = run(cfg.rho(rho).delta(delta));
            let r = &out.report;
            let recall = format!("{recall:.4}");
            t.row(&[&rho, &delta, &recall, &r.iterations, &r.distance_evals]);
        }
    }
    emit(&t, dir, "ablation_rho_delta");

    let mut t = Table::new(
        "Ablation 4: RP-forest vs random initialization (shared-memory nnd)",
        &[
            "Init",
            "Recall",
            "Iterations",
            "First-iter updates",
            "Distance evals",
        ],
    );
    let params = NnDescentParams::new(K).seed(SEED);
    let forest = nnd::rp_forest_candidates(&set, nnd::RpForestParams::for_k(K));
    for (label, init) in [("random", None), ("rp-forest", Some(forest.as_slice()))] {
        let (g, s) = nnd::build_with_init(&set, &L2, params, init);
        t.row(&[
            &label,
            &format!("{:.4}", mean_recall(&g.neighbor_ids(), &truth)),
            &s.iterations,
            &s.updates_per_iter.first().copied().unwrap_or(0),
            &s.distance_evals,
        ]);
    }
    emit(&t, dir, "ablation_init");
}

/// **§7 profile** — "finding how much the computation or communication is
/// heavier than the other": the virtual clock's compute / communication /
/// barrier split of one DEEP-like build per rank count and per protocol,
/// and the heaviest phases of the 8-rank build, which is also the one
/// `--trace-out` / `--report-out` / `--dashboard-out` record.
fn profile(n: usize, dir: &Path, outs: &ObsOuts) {
    const K: usize = 10;
    const SEED: u64 = 71;
    let set = Arc::new(presets::deep1b_like(n, SEED));
    let run = |world: &World, opts: CommOpts| {
        build(
            world,
            &set,
            &L2,
            DnndConfig::new(K).seed(SEED).comm_opts(opts),
        )
    };
    let split = |first: &str, title: &str| {
        let cols = [
            first,
            "Total s",
            "Compute s",
            "Comm s",
            "Barrier s",
            "Comm share",
        ];
        Table::new(title, &cols)
    };
    let split_row = |t: &mut Table, label: &dyn Display, b: ClockBreakdown| {
        t.row(&[
            label,
            &format!("{:.4}", b.total_secs()),
            &format!("{:.4}", b.compute_secs),
            &format!("{:.4}", b.comm_secs),
            &format!("{:.4}", b.barrier_secs),
            &pct(b.comm_secs + b.barrier_secs, b.total_secs()),
        ]);
    };

    let mut t = split(
        "Ranks",
        "Virtual-time decomposition per rank count (optimized protocol)",
    );
    for ranks in [2usize, 4, 8, 16, 32] {
        let out = run(&World::new(ranks), CommOpts::optimized());
        split_row(&mut t, &ranks, out.report.breakdown);
    }
    emit(&t, dir, "profile_breakdown");

    let mut t = split("Protocol", "Decomposition per protocol (8 ranks)");
    for (label, opts) in [
        ("unoptimized", CommOpts::unoptimized()),
        ("optimized", CommOpts::optimized()),
    ] {
        split_row(&mut t, &label, run(&World::new(8), opts).report.breakdown);
    }
    emit(&t, dir, "profile_protocols");

    let tracer = outs.tracer(8);
    let mut world = World::new(8);
    if let Some(t) = &tracer {
        world = world.tracer(Arc::clone(t));
    }
    let out = run(&world, CommOpts::optimized());
    let mut t = Table::new(
        "Per-phase trace (8 ranks, optimized; heaviest 12 phases by time)",
        &["Phase", "Total ms", "Compute ms", "Comm ms", "Msgs", "MB"],
    );
    let mut phases = out.report.phases.clone();
    phases.sort_by(|a, b| b.total_secs().total_cmp(&a.total_secs()));
    for p in phases.iter().take(12) {
        t.row(&[
            &p.index,
            &format!("{:.3}", p.total_secs() * 1e3),
            &format!("{:.3}", p.compute_secs * 1e3),
            &format!("{:.3}", p.comm_secs * 1e3),
            &p.msgs,
            &format!("{:.2}", p.bytes as f64 / 1e6),
        ]);
    }
    emit(&t, dir, "profile_phases");
    println!("{} phases in the 8-rank build", out.report.phases.len());

    let run_report = || {
        let mut rr = dnnd::obs_report::report_from_build("paper", &out.report);
        rr.param("n", n).param("k", K).param("seed", SEED);
        rr
    };
    outs.write(tracer.as_deref(), run_report)
        .unwrap_or_else(|e| die(&e));
}
