//! Integration tests pinned to the paper's quantitative claims, at reduced
//! scale: Section 5.2 recall floors, Figure 4's ~50% traffic reduction,
//! Figure 3's strong-scaling mechanism, and the Figure 2 quality ordering
//! between DNND and the HNSW baseline.

use dataset::metric::{Cosine, Jaccard, L2};
use dataset::synth::split_queries;
use dataset::{brute_force_knng, brute_force_queries, mean_recall, presets};
use dnnd::{build, CommOpts, DnndConfig};
use hnsw::{HnswIndex, HnswParams};
use nnd::{search_batch, SearchParams};
use std::sync::Arc;
use ygm::World;

/// Section 5.2: DNND builds high-recall graphs on all small-dataset
/// metrics. The paper reports 0.93-0.99+ at k=100 on the full datasets;
/// at toy scale with k=10 we pin a floor per metric family.
#[test]
fn section_5_2_recall_floors() {
    let n = 600;
    let k = 10;
    let seed = 3;

    let deep = Arc::new(presets::glove25_like(n, seed));
    let out = build(
        &World::new(4),
        &deep,
        &Cosine,
        DnndConfig::new(k).seed(seed),
    );
    let truth = brute_force_knng(&deep, &Cosine, k);
    let r = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(r > 0.9, "glove-like cosine recall {r}");

    let ny = Arc::new(presets::nytimes_like(n, seed));
    let out = build(&World::new(4), &ny, &Cosine, DnndConfig::new(k).seed(seed));
    let truth = brute_force_knng(&ny, &Cosine, k);
    let r = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(r > 0.85, "nytimes-like cosine recall {r}");

    let kos = Arc::new(presets::kosarak_like(400, seed));
    let out = build(
        &World::new(4),
        &kos,
        &Jaccard,
        DnndConfig::new(k).seed(seed),
    );
    let truth = brute_force_knng(&kos, &Jaccard, k);
    let r = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(r > 0.55, "kosarak-like jaccard recall {r}");
}

/// Figure 4: the optimized protocol cuts neighbor-check messages and bytes
/// by roughly half on both the f32 and the u8 billion-scale stand-ins, and
/// the u8 dataset moves fewer bytes than the f32 one.
#[test]
fn figure_4_traffic_reduction_and_u8_asymmetry() {
    let k = 10;
    let seed = 17;
    let ranks = 8;
    let deep = Arc::new(presets::deep1b_like(700, seed));
    let big = Arc::new(presets::bigann_like(700, seed));

    let mut volumes = Vec::new();
    for (label, opts) in [
        ("unopt", CommOpts::unoptimized()),
        ("opt", CommOpts::optimized()),
    ] {
        let d = build(
            &World::new(ranks),
            &deep,
            &L2,
            DnndConfig::new(k).seed(seed).comm_opts(opts),
        );
        let b = build(
            &World::new(ranks),
            &big,
            &L2,
            DnndConfig::new(k).seed(seed).comm_opts(opts),
        );
        let dt = d.report.check_traffic();
        let bt = b.report.check_traffic();
        // Figure 4b asymmetry: u8 vectors (128d) are lighter on the wire
        // than f32 vectors (96d): 128 B vs 384 B per vector.
        assert!(
            bt.bytes < dt.bytes,
            "{label}: BigANN bytes {} !< DEEP bytes {}",
            bt.bytes,
            dt.bytes
        );
        volumes.push((dt, bt));
    }
    let (deep_unopt, big_unopt) = volumes[0];
    let (deep_opt, big_opt) = volumes[1];
    for (label, unopt, opt) in [
        ("deep", deep_unopt, deep_opt),
        ("bigann", big_unopt, big_opt),
    ] {
        let count_ratio = opt.count as f64 / unopt.count as f64;
        let byte_ratio = opt.bytes as f64 / unopt.bytes as f64;
        assert!(
            (0.3..=0.7).contains(&count_ratio),
            "{label}: message reduction {count_ratio} outside ~50% band"
        );
        assert!(
            (0.3..=0.7).contains(&byte_ratio),
            "{label}: volume reduction {byte_ratio} outside ~50% band"
        );
    }
}

/// Figure 3 mechanism: virtual construction time falls monotonically with
/// rank count over the paper's 4 -> 32 range, with strongly sublinear
/// (diminishing-returns) aggregate speedup. Per-octave speedup ratios are
/// no longer compared: the row-batched check protocol ships each vector
/// once per destination rank, so small worlds start from a much lower
/// traffic baseline than per-pair messaging did.
#[test]
fn figure_3_strong_scaling_shape() {
    let set = Arc::new(presets::deep1b_like(700, 23));
    let mut times = Vec::new();
    for ranks in [4usize, 8, 16, 32] {
        let out = build(&World::new(ranks), &set, &L2, DnndConfig::new(10).seed(23));
        times.push(out.report.sim_secs);
    }
    for w in times.windows(2) {
        assert!(w[1] < w[0], "virtual time must fall with ranks: {times:?}");
    }
    // 8x the ranks buys a real speedup, but well under 8x: communication
    // and barrier overheads eat the rest (the Figure 3 flattening).
    let total_speedup = times[0] / times[3];
    assert!(
        (1.4..=4.0).contains(&total_speedup),
        "4->32 speedup {total_speedup} outside the diminishing-returns band: {times:?}"
    );
}

/// Figure 2 ordering: on the same dataset, a DNND k30 graph answers
/// queries at least as accurately as a DNND k10 graph, and reaches the
/// recall band of a strong HNSW index.
#[test]
fn figure_2_quality_ordering() {
    let (base, queries) = split_queries(presets::deep1b_like(900, 31), 80);
    let base = Arc::new(base);
    let truth = brute_force_queries(&base, &queries, &L2, 10);

    let mut recalls = Vec::new();
    for k in [10usize, 30] {
        let out = build(
            &World::new(4),
            &base,
            &L2,
            DnndConfig::new(k).seed(31).graph_opt(1.5),
        );
        let batch = search_batch(
            &out.graph,
            &base,
            &L2,
            &queries,
            SearchParams::new(10)
                .epsilon(0.2)
                .entry_candidates(32)
                .seed(1),
        );
        recalls.push(mean_recall(&batch.ids, &truth));
    }
    let (r10, r30) = (recalls[0], recalls[1]);
    assert!(r30 >= r10 - 0.01, "k30 ({r30}) must not trail k10 ({r10})");

    let idx = HnswIndex::build(&base, L2, HnswParams::new(16, 100).seed(31));
    let (ids, _) = idx.search_batch(&queries, 10, 100);
    let r_hnsw = mean_recall(&ids, &truth);
    assert!(
        r30 >= r_hnsw - 0.05,
        "DNND k30 ({r30}) should reach the HNSW band ({r_hnsw})"
    );
}

/// The RNN-Descent extension's claim (after GRNND): occlusion pruning
/// yields a graph that matches or beats the Section 4.5 reverse-prune pass
/// on search recall *at equal beam width* while carrying strictly fewer
/// edges. Fixture mirrors the pipeline golden preset (DEEP-like 600 base
/// points, k=8, seed 7, unoptimized protocol) and the serving layer's
/// default search parameters.
#[test]
fn rnn_mode_recall_parity_with_fewer_edges() {
    let (n, pool_n, k, seed) = (600usize, 32usize, 8u32, 7u64);
    let (base, queries) = split_queries(presets::deep1b_like(n + pool_n, seed), pool_n);
    let base = Arc::new(base);

    let out = build(
        &World::new(2),
        &base,
        &L2,
        DnndConfig::new(k as usize)
            .seed(seed)
            .comm_opts(CommOpts::unoptimized()),
    );
    let raw = out.graph;

    // Section 4.5 pass at its dnnd-optimize default (prune to ceil(k*1.5)).
    let rp = raw.optimize(k as usize, 1.5);
    // RNN-Descent at its default schedule, k0 = 10.
    let (rnn, _, _) = dnnd::rnn_optimize_distributed(
        &World::new(2),
        &base,
        &L2,
        &raw,
        nnd::rnn::RnnParams::new(10),
    );

    assert!(
        rnn.edge_count() < rp.edge_count(),
        "rnn graph not sparser: {} vs {} edges",
        rnn.edge_count(),
        rp.edge_count()
    );

    // Equal beam width (the serving layer's defaults): only the graph
    // differs between the two searches.
    let truth = brute_force_queries(&base, &queries, &L2, k as usize);
    let search = |g: &nnd::KnnGraph| {
        let batch = search_batch(
            g,
            &base,
            &L2,
            &queries,
            SearchParams::new(12).epsilon(0.1).entry_candidates(24),
        );
        let ids: Vec<Vec<u32>> = batch
            .ids
            .iter()
            .map(|row| row.iter().take(k as usize).copied().collect())
            .collect();
        mean_recall(&ids, &truth)
    };
    let rp_recall = search(&rp);
    let rnn_recall = search(&rnn);
    assert!(
        rnn_recall >= rp_recall,
        "rnn recall {rnn_recall:.4} below reverse-prune {rp_recall:.4} at equal beam width"
    );
    assert!(
        rnn_recall > 0.9,
        "rnn absolute recall floor: {rnn_recall:.4}"
    );
}

/// The paper's Section 4.4 rationale: batched barriers do not change the
/// result, only the communication schedule. The optimized protocol's checks
/// read the rows each iteration opened with, so the graph is the same at
/// every batch size, bit for bit.
#[test]
fn batching_is_schedule_only() {
    let set = Arc::new(presets::deep1b_like(400, 37));
    let graphs = [1u64 << 8, 1 << 14, 1 << 20].map(|batch| {
        let cfg = DnndConfig::new(6).seed(37).batch_size(batch);
        build(&World::new(4), &set, &L2, cfg).graph
    });
    assert!(
        graphs.windows(2).all(|w| w[0] == w[1]),
        "batch size changed the graph"
    );
}
