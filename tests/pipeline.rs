//! Cross-crate integration: the full paper workflow — distributed
//! construction (dnnd + ygm) → persistence (metall) → reopen → graph
//! optimization → ANN search (nnd) — plus store durability properties.

use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{brute_force_queries, mean_recall, PointSet, L2};
use dnnd::{build, CommOpts, DnndConfig};
use metall::Store;
use nnd::KnnGraph as DigestGraph;
use nnd::{search_batch, KnnGraph, SearchParams};
use std::sync::Arc;
use ygm::World;

use testutil::TmpDir;

fn tmpdir(tag: &str) -> TmpDir {
    TmpDir::new(tag)
}

#[test]
fn construct_persist_reopen_optimize_query() {
    let dir = tmpdir("full");
    let full = gaussian_mixture(MixtureParams::embedding_like(900, 16), 2);
    let (base, queries) = split_queries(full, 60);

    // Stage 1: distributed construction + persist.
    let graph_edges;
    {
        let base = Arc::new(base.clone());
        let out = build(&World::new(4), &base, &L2, DnndConfig::new(8).seed(1));
        let mut store = Store::create(&dir).unwrap();
        base.save(&mut store, "dataset").unwrap();
        out.graph.save(&mut store, "knng").unwrap();
        graph_edges = out.graph.edge_count();
    }

    // Stage 2: separate "executable" — reopen, optimize, persist.
    {
        let mut store = Store::open(&dir).unwrap();
        let graph = KnnGraph::load(&store, "knng").unwrap();
        assert_eq!(
            graph.edge_count(),
            graph_edges,
            "graph round-trip changed edges"
        );
        let optimized = graph.optimize(8, 1.5);
        assert!(optimized.max_degree() <= 12);
        optimized.save(&mut store, "opt").unwrap();
    }

    // Stage 3: query program.
    {
        let store = Store::open(&dir).unwrap();
        let base2 = PointSet::<Vec<f32>>::load(&store, "dataset").unwrap();
        assert_eq!(base2, base, "dataset round-trip must be exact");
        let graph = KnnGraph::load(&store, "opt").unwrap();
        let truth = brute_force_queries(&base2, &queries, &L2, 8);
        let batch = search_batch(
            &graph,
            &base2,
            &L2,
            &queries,
            SearchParams::new(8).epsilon(0.2).entry_candidates(48),
        );
        let recall = mean_recall(&batch.ids, &truth);
        assert!(recall > 0.85, "end-to-end recall {recall}");
    }
    Store::destroy(&dir).unwrap();
}

#[test]
fn snapshot_preserves_a_queryable_index() {
    let dir = tmpdir("snap");
    let snap_dir = tmpdir("snap-dst");
    let base = Arc::new(gaussian_mixture(MixtureParams::embedding_like(400, 8), 3));
    let out = build(&World::new(2), &base, &L2, DnndConfig::new(5).seed(9));

    let mut store = Store::create(&dir).unwrap();
    base.save(&mut store, "ds").unwrap();
    out.graph.save(&mut store, "g").unwrap();
    let snap = store.snapshot(&snap_dir).unwrap();
    drop(store);
    Store::destroy(&dir).unwrap(); // original gone; snapshot must suffice

    let base2 = PointSet::<Vec<f32>>::load(&snap, "ds").unwrap();
    let graph = KnnGraph::load(&snap, "g").unwrap();
    let r = nnd::search(
        &graph,
        &base2,
        &L2,
        base2.point(7),
        SearchParams::new(3).entry_candidates(64),
    );
    assert_eq!(r.neighbors[0].0, 7);
    Store::destroy(&snap_dir).unwrap();
}

#[test]
fn u8_dataset_full_pipeline() {
    let dir = tmpdir("u8");
    let base = Arc::new(dataset::presets::bigann_like(500, 7));
    let out = build(
        &World::new(3),
        &base,
        &L2,
        DnndConfig::new(6).seed(5).graph_opt(1.5),
    );

    let mut store = Store::create(&dir).unwrap();
    base.save(&mut store, "ds").unwrap();
    out.graph.save(&mut store, "g").unwrap();
    drop(store);

    let store = Store::open(&dir).unwrap();
    let base2 = PointSet::<Vec<u8>>::load(&store, "ds").unwrap();
    let graph = KnnGraph::load(&store, "g").unwrap();
    let r = nnd::search(
        &graph,
        &base2,
        &L2,
        base2.point(123),
        SearchParams::new(5).entry_candidates(32),
    );
    assert_eq!(r.neighbors[0].0, 123, "member query must find itself");
    Store::destroy(&dir).unwrap();
}

#[test]
fn sparse_jaccard_full_pipeline() {
    let dir = tmpdir("sparse");
    let base = Arc::new(dataset::presets::kosarak_like(300, 11));
    let out = build(
        &World::new(2),
        &base,
        &dataset::Jaccard,
        DnndConfig::new(5).seed(13),
    );
    let mut store = Store::create(&dir).unwrap();
    base.save(&mut store, "ds").unwrap();
    out.graph.save(&mut store, "g").unwrap();
    drop(store);

    let store = Store::open(&dir).unwrap();
    let base2 = PointSet::<dataset::SparseVec>::load(&store, "ds").unwrap();
    assert_eq!(&base2, base.as_ref());
    let graph = KnnGraph::load(&store, "g").unwrap();
    assert_eq!(graph.len(), 300);
    Store::destroy(&dir).unwrap();
}

/// FNV-1a over every row: id, then the raw bit pattern of each neighbor
/// edge. Any single changed bit anywhere in the graph changes the digest.
fn graph_digest(g: &DigestGraph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for v in 0..g.len() as u32 {
        mix(g.neighbors(v).len() as u64);
        for &(u, d) in g.neighbors(v) {
            mix(u as u64);
            mix(d.to_bits() as u64);
        }
    }
    h
}

/// Bit-identity oracle for the batched kernel rework (paper Sec. 4.2's
/// unoptimized exchange): with the unoptimized protocol the delivered
/// pair multiset — and therefore the final graph and the distance-eval
/// count — is a pure function of (dataset, k, seed). Batching only
/// regroups pairs into rows, and every batched evaluation is bit-identical
/// to the scalar reference, so the graph must not change by a single bit
/// across rank counts or kernel dispatch paths. The hardcoded golden
/// digest pins the result across future refactors: any accidental change
/// to accumulation order, message grouping, or tie-breaking fails here.
#[test]
fn unoptimized_construction_bit_identical_across_ranks_and_dispatch() {
    const GOLDEN_DIGEST: u64 = 0x8188_d886_1334_5170;
    const GOLDEN_DIST_EVALS: u64 = 234_452;

    let base = Arc::new(dataset::presets::deep1b_like(600, 7));
    let cfg = || {
        DnndConfig::new(8)
            .seed(7)
            .comm_opts(CommOpts::unoptimized())
    };

    for n_ranks in [1usize, 2, 4] {
        let out = build(&World::new(n_ranks), &base, &L2, cfg());
        assert_eq!(
            graph_digest(&out.graph),
            GOLDEN_DIGEST,
            "graph diverged from golden at n_ranks={n_ranks}"
        );
        assert_eq!(
            out.report.distance_evals, GOLDEN_DIST_EVALS,
            "distance-eval count diverged at n_ranks={n_ranks}"
        );
    }

    // Forcing the scalar kernel path must reproduce the same bits (the
    // SIMD paths share the scalar accumulation order by construction).
    let before = dataset::kernel::dispatch();
    dataset::kernel::force_dispatch(Some(dataset::kernel::Dispatch::Scalar));
    let out = build(&World::new(2), &base, &L2, cfg());
    dataset::kernel::force_dispatch(Some(before));
    assert_eq!(
        graph_digest(&out.graph),
        GOLDEN_DIGEST,
        "forced-scalar dispatch changed the graph"
    );
    assert_eq!(out.report.distance_evals, GOLDEN_DIST_EVALS);
}

/// The paper's optimized protocol (Sec. 4.3: Type 1 / 2+ / 3) is a pure
/// function of its inputs too: its redundant-check skips read the rows the
/// iteration opened with, and pruning drops only replies the row would
/// reject. So one golden holds at every rank count, and in a world that
/// cuts frames sixteen times smaller — where a frame ends decides neither
/// the meeting that carries a message nor its place in the queue, so the
/// two worlds send the same messages too.
#[test]
fn optimized_construction_replays_bit_identically() {
    // (graph digest, distance evaluations)
    const GOLDEN: (u64, u64) = (0x68b0_9eb6_4b2e_caf3, 103_999);

    let base = Arc::new(dataset::presets::deep1b_like(600, 7));
    let cfg = || DnndConfig::new(8).seed(7).comm_opts(CommOpts::optimized());

    for n_ranks in [1usize, 2, 4] {
        let worlds = [
            World::new(n_ranks),
            World::new(n_ranks).flush_threshold(4096),
        ];
        let outs = worlds.map(|world| build(&world, &base, &L2, cfg()));
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(
                (graph_digest(&out.graph), out.report.distance_evals),
                GOLDEN,
                "optimized build {i} diverged from golden at n_ranks={n_ranks}"
            );
        }
        assert_eq!(
            outs[0].report.total.count, outs[1].report.total.count,
            "the frame size moved the messages at n_ranks={n_ranks}"
        );
    }
}

/// The same oracle for the RNN-Descent optimization mode, run as the
/// paper's second executable runs it — a pass over the built graph on the
/// same world: every pruning decision consults canonical `(dist, id)` row
/// state only, flagged pairs are a pure function of that state, and
/// inserts/reverse edges are applied in canonical order after each
/// synchronous round — so the optimized graph *and* the exact distance-eval
/// count (construction + RNN pass) are pinned across rank counts and kernel
/// dispatch. The constants were generated by this very configuration; any
/// drift in the occlusion rule, round schedule, or connectivity repair
/// fails here.
#[test]
fn rnn_mode_bit_identical_across_ranks_and_dispatch() {
    const RNN_GOLDEN_DIGEST: u64 = 0x0067_62d4_0e10_2fe5;
    const RNN_GOLDEN_DIST_EVALS: u64 = 342_928;

    let base = Arc::new(dataset::presets::deep1b_like(600, 7));
    let build_and_optimize = |n_ranks: usize| {
        let world = World::new(n_ranks);
        let cfg = DnndConfig::new(8)
            .seed(7)
            .comm_opts(CommOpts::unoptimized());
        let out = build(&world, &base, &L2, cfg);
        let params = nnd::rnn::RnnParams::new(10);
        let (graph, stats, _) =
            dnnd::rnn_optimize_distributed(&world, &base, &L2, &out.graph, params);
        (graph, out.report.distance_evals + stats.dist_evals, stats)
    };

    for n_ranks in [1usize, 2, 4] {
        let (graph, evals, stats) = build_and_optimize(n_ranks);
        assert_eq!(
            graph_digest(&graph),
            RNN_GOLDEN_DIGEST,
            "rnn graph diverged from golden at n_ranks={n_ranks}"
        );
        assert_eq!(
            evals, RNN_GOLDEN_DIST_EVALS,
            "distance-eval count diverged at n_ranks={n_ranks}"
        );
        assert_eq!(stats.reverse_added.len(), 3, "t1=3 reverse exchanges");
        assert!(graph.max_degree() <= 10, "k0 cap violated");
    }

    let before = dataset::kernel::dispatch();
    dataset::kernel::force_dispatch(Some(dataset::kernel::Dispatch::Scalar));
    let (graph, evals, _) = build_and_optimize(2);
    dataset::kernel::force_dispatch(Some(before));
    assert_eq!(
        graph_digest(&graph),
        RNN_GOLDEN_DIGEST,
        "forced-scalar dispatch changed the rnn graph"
    );
    assert_eq!(evals, RNN_GOLDEN_DIST_EVALS);
}

#[test]
fn presets_are_reproducible_across_processes() {
    // Seeds fully determine every preset, so a persisted dataset can be
    // regenerated instead of shipped.
    let a = dataset::presets::deep1b_like(256, 99);
    let b = dataset::presets::deep1b_like(256, 99);
    assert_eq!(a, b);
    let ka = dataset::presets::kosarak_like(128, 7);
    let kb = dataset::presets::kosarak_like(128, 7);
    assert_eq!(ka, kb);
}
