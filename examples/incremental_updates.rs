//! The paper's Section 7 future work, working: "new data points may be
//! added/deleted, followed by a short graph refinement phase, which will
//! fit NN-Descent's iterative nature well."
//!
//! This example builds a graph, then (a) streams in new points with short
//! refinement passes instead of rebuilding, and (b) deletes points in place
//! with local repair and a refinement of the rows the deletion shortened —
//! comparing cost and quality against a from-scratch build at every step.
//! A refinement joins only what the change flagged new, so its cost
//! follows the batch, not the graph. Last, (c) times the same two mutations
//! on a served `vdb::Collection` (DEEP-like, k = 10) at three sizes: short
//! in evaluations is not yet short in wall time.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{brute_force_knng, mean_recall, presets, PointId, PointSet, L2};
use nnd::{build, refine, remove_points, KnnGraph, NnDescentParams};
use std::ops::Range;
use std::time::{Duration, Instant};
use vdb::{Collection, MetaRecord};

const K: usize = 10;

fn main() {
    let full = gaussian_mixture(MixtureParams::embedding_like(2_000, 16), 77);
    let params = NnDescentParams::new(K).seed(5);

    // Start with 1,400 points.
    let mut base = PointSet::new(full.points()[..1_400].to_vec());
    let (mut graph, initial_stats) = build(&base, &L2, params);
    println!(
        "initial build: {} points, {} iterations, {} distance evals",
        base.len(),
        initial_stats.iterations,
        initial_stats.distance_evals
    );

    // Stream in 3 batches of 200 points each, refining instead of rebuilding.
    for step in 0..3 {
        let new_len = 1_400 + (step + 1) * 200;
        let grown = PointSet::new(full.points()[..new_len].to_vec());
        let (g2, refine_stats) = refine(&graph, &grown, &L2, params, 3, &[]);
        let (_, rebuild_stats) = build(&grown, &L2, params);
        let truth = brute_force_knng(&grown, &L2, K);
        let recall = mean_recall(&g2.neighbor_ids(), &truth);
        println!(
            "insert batch {}: {} -> {} points | refine {} evals vs rebuild {} evals ({:.1}x cheaper) | recall {:.4}",
            step + 1,
            base.len(),
            grown.len(),
            refine_stats.distance_evals,
            rebuild_stats.distance_evals,
            rebuild_stats.distance_evals as f64 / refine_stats.distance_evals.max(1) as f64,
            recall,
        );
        assert!(recall > 0.9, "refined recall dropped to {recall}");
        base = grown;
        graph = g2;
    }

    // Delete 150 points, repair locally, then a short refinement of the rows
    // that lost a neighbor. Ids stay put: the live rows are scored against
    // the exact neighbors among the survivors.
    let gone: Vec<u32> = (0..150).map(|i| i * 13).collect();
    let (repaired, shortened) = remove_points(&graph, &base, &L2, &gone, K);
    let live: Vec<u32> = (0..2_000).filter(|v| !gone.contains(v)).collect();
    let survivors = PointSet::new(live.iter().map(|&v| base.point(v).clone()).collect());
    let mut truth = brute_force_knng(&survivors, &L2, K);
    for id in truth.ids.iter_mut().flatten() {
        *id = live[*id as usize];
    }
    let live_recall = |g: &KnnGraph| {
        let ids = g.neighbor_ids();
        let rows: Vec<_> = live.iter().map(|&v| ids[v as usize].clone()).collect();
        mean_recall(&rows, &truth)
    };
    let repaired_recall = live_recall(&repaired);
    let (refined, refine_stats) = refine(&repaired, &base, &L2, params, 2, &shortened);
    let refined_recall = live_recall(&refined);
    println!(
        "delete {} points: {} rows shortened | repair-only recall {:.4} -> after {} refinement iters ({} evals) {:.4}",
        gone.len(),
        shortened.len(),
        repaired_recall,
        refine_stats.iterations,
        refine_stats.distance_evals,
        refined_recall
    );
    assert!(refined_recall >= 0.98 && refined_recall > repaired_recall);

    for n in [1_000, 4_000, 16_000] {
        time_collection_mutations(n);
    }
    println!("incremental updates OK");
}

/// `f`'s result and the wall time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// Wall time of one `Collection::create` over `n` DEEP-like points, the
/// median of five 10-point ingests into it, and one compaction after 10
/// deletes.
fn time_collection_mutations(n: usize) {
    const BATCH: usize = 10;
    let meta = |ids: Range<usize>| {
        ids.map(|id| MetaRecord::bucket_record(3, id as u64))
            .collect()
    };
    let (base, extra) = split_queries(presets::deep1b_like(n + 5 * BATCH, 3), 5 * BATCH);
    let (create, mut col) =
        timed(|| Collection::create("timed", base, meta(0..n), "l2", K, 1).expect("create"));
    let mut ingests: Vec<Duration> = extra
        .points()
        .chunks(BATCH)
        .zip((n..).step_by(BATCH))
        .map(|(batch, first)| {
            let (points, meta) = (batch.to_vec(), meta(first..first + BATCH));
            timed(|| col.ingest(points, meta).expect("ingest")).0
        })
        .collect();
    ingests.sort();
    let gone: Vec<PointId> = (0..n as PointId).step_by(n / BATCH).collect();
    assert_eq!(col.delete(&gone).expect("delete"), BATCH);
    let (compaction, _) = timed(|| col.compact().expect("compact"));
    println!(
        "collection n = {n}: create {:.2} s | ingest of {BATCH} points {:.2} ms (median of {}) \
         | compaction after {BATCH} deletes {:.1} ms",
        create.as_secs_f64(),
        ingests[ingests.len() / 2].as_secs_f64() * 1e3,
        ingests.len(),
        compaction.as_secs_f64() * 1e3
    );
}
