//! The paper's Section 7 future work, working: "new data points may be
//! added/deleted, followed by a short graph refinement phase, which will
//! fit NN-Descent's iterative nature well."
//!
//! This example builds a graph and keeps its k-NN rows (`nnd::KnnRows`),
//! then (a) streams in new points with short refinement passes instead of
//! rebuilding, and (b) deletes points in place with local repair and a
//! refinement of the rows the deletion shortened — comparing cost and
//! quality against a from-scratch build at every step. A refinement joins
//! only what the change flagged new, in place, so its cost follows the
//! batch, not the graph. Last, (c) times the same two mutations on a served
//! `vdb::Collection` (DEEP-like, k = 10) at four sizes, 1 000 to 64 000
//! points. The served graph is derived from the kept rows again only where
//! they moved, so a compaction's wall time follows the batch too; an
//! ingest's is mostly the search that locates each new point, which from
//! random entries grows with the number of clusters.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{brute_force_knng, mean_recall, presets, PointId, PointSet, L2};
use nnd::{build, refine, remove_points, KnnGraph, KnnRows, NnDescentParams};
use std::ops::Range;
use std::time::{Duration, Instant};
use vdb::{Collection, MetaRecord};

const K: usize = 10;

fn main() {
    let full = gaussian_mixture(MixtureParams::embedding_like(2_000, 16), 77);
    let params = NnDescentParams::new(K).seed(5);

    // Start with 1,400 points.
    let mut base = PointSet::new(full.points()[..1_400].to_vec());
    let (graph, initial_stats) = build(&base, &L2, params);
    let mut knn = KnnRows::new(&graph, K).expect("a k-NN graph");
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
        // New points are located by a search of the rows as they stand.
        let located = knn.to_graph();
        let refine_stats = refine(&mut knn, &located, &grown, &L2, params, 3, &[]);
        let (_, rebuild_stats) = build(&grown, &L2, params);
        let truth = brute_force_knng(&grown, &L2, K);
        let recall = mean_recall(&knn.to_graph().neighbor_ids(), &truth);
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
    }

    // Delete 150 points, repair locally, then a short refinement of the rows
    // that lost a neighbor. Ids stay put: the live rows are scored against
    // the exact neighbors among the survivors.
    let gone: Vec<u32> = (0..150).map(|i| i * 13).collect();
    let shortened = remove_points(&mut knn, &base, &L2, &gone);
    let repaired = knn.to_graph();
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
    let refine_stats = refine(&mut knn, &repaired, &base, &L2, params, 2, &shortened);
    let refined_recall = live_recall(&knn.to_graph());
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

    for n in [1_000, 4_000, 16_000, 64_000] {
        time_collection_mutations(n);
    }
    println!("incremental updates OK");
}

/// The median time and the median evaluation count of five runs.
fn medians(runs: Vec<(Duration, u64)>) -> (Duration, u64) {
    let (mut times, mut evals): (Vec<Duration>, Vec<u64>) = runs.into_iter().unzip();
    times.sort();
    evals.sort();
    (times[times.len() / 2], evals[evals.len() / 2])
}

/// `f`'s result and the wall time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

/// The distance evaluations of the refinement `col`'s next mutation runs —
/// an ingest growing the base to `base`, or a compaction — on copies, seeded
/// from the epoch as `Collection` seeds it. The compaction's top-up
/// distances are not counted.
fn refine_evals(col: &Collection, base: &PointSet<Vec<f32>>) -> u64 {
    let params = NnDescentParams::new(K).seed(col.epoch().wrapping_mul(0x9E37_79B9) | 1);
    let mut knn = col.knn().clone();
    let shortened = remove_points(&mut knn, base, &L2, col.tombstones());
    refine(&mut knn, &col.graph, base, &L2, params, 1, &shortened).distance_evals
}

/// Wall time of one `Collection::create` over `n` DEEP-like points, and the
/// median wall time and distance evaluations of five 10-point ingests into
/// it and of five compactions, each after 10 deletes.
fn time_collection_mutations(n: usize) {
    const BATCH: usize = 10;
    let meta = |ids: Range<usize>| {
        ids.map(|id| MetaRecord::bucket_record(3, id as u64))
            .collect()
    };
    let (base, extra) = split_queries(presets::deep1b_like(n + 5 * BATCH, 3), 5 * BATCH);
    let (create, mut col) =
        timed(|| Collection::create("timed", base, meta(0..n), "l2", K, 1).expect("create"));
    let ingests: Vec<(Duration, u64)> = extra
        .points()
        .chunks(BATCH)
        .zip((n..).step_by(BATCH))
        .map(|(batch, first)| {
            let mut grown = col.base.clone();
            grown.extend(batch.iter().cloned());
            let evals = refine_evals(&col, &grown);
            let (points, meta) = (batch.to_vec(), meta(first..first + BATCH));
            (timed(|| col.ingest(points, meta).expect("ingest")).0, evals)
        })
        .collect();
    let compactions: Vec<(Duration, u64)> = (0..5)
        .map(|round| {
            let gone: Vec<PointId> = (round..n as PointId).step_by(n / BATCH).collect();
            assert_eq!(col.delete(&gone).expect("delete"), BATCH);
            let evals = refine_evals(&col, &col.base);
            (timed(|| col.compact().expect("compact")).0, evals)
        })
        .collect();
    let (ingest, ingest_evals) = medians(ingests);
    let (compaction, compaction_evals) = medians(compactions);
    println!(
        "collection n = {n}: create {:.2} s | ingest of {BATCH} points {:.2} ms, {ingest_evals} evals \
         | compaction after {BATCH} deletes {:.1} ms, {compaction_evals} evals (medians of 5)",
        create.as_secs_f64(),
        ingest.as_secs_f64() * 1e3,
        compaction.as_secs_f64() * 1e3
    );
}
