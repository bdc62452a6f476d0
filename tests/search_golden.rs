//! Golden pins for every search path: shared-memory `nnd::search` /
//! `nnd::search_batch`, `hnsw::HnswIndex::{build, search}`, and
//! `dnnd::distributed_search_batch` — and for `nnd::build`, whose graph
//! every fixture here searches.
//!
//! Every constant below was captured at commit `fe3900b` (the parent of the
//! PR that folded the duplicated beam-search loops into one per index),
//! *before* any search code was edited. Search results, distance-eval
//! counts and the HNSW structure are pure functions of `(data, params,
//! seed)`, so a refactor of any search loop must leave every one of them
//! untouched. A deliberate algorithm change re-captures them and says so.

use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{PointId, PointSet, L2};
use dnnd::{distributed_search_batch, DistSearchParams};
use hnsw::index::{HnswIndex, HnswParams};
use nnd::{build, search, search_batch, KnnGraph, NnDescentParams, SearchParams};
use std::sync::Arc;
use ygm::World;

/// FNV-1a over a stream of words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of per-query id rows: row length, then every id, in order.
fn rows_digest(rows: &[Vec<PointId>]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        h.mix(row.len() as u64);
        row.iter().for_each(|&id| h.mix(id as u64));
    }
    h.0
}

/// Compare a digest, printing the one found in hex so a deliberate
/// re-capture can paste it.
#[track_caller]
fn pin(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: got {got:#018x}");
}

/// 1 160 base points + 40 held-out queries (f32, d = 12) and the serial
/// NN-Descent graph over the base after the Section 4.5 optimization.
fn f32_fixture() -> (PointSet<Vec<f32>>, PointSet<Vec<f32>>, KnnGraph) {
    let full = gaussian_mixture(MixtureParams::embedding_like(1200, 12), 13);
    let (base, queries) = split_queries(full, 40);
    let (g, _) = build(&base, &L2, NnDescentParams::new(10).seed(3));
    (base, queries, g.optimize(10, 1.5))
}

/// Captured at commit `15133d0` (the parent of the PR that split
/// `nnd::build` into its initialization and the descent loop `nnd::refine`
/// shares, and made that loop skip vertices with nothing new), *before* any
/// edit: the graph, the evaluation count and the per-iteration update
/// counts of the serial builder do not depend on which vertices the loop
/// visits.
#[test]
fn nnd_build_is_pinned() {
    fn check<P: dataset::Point, M: dataset::BatchMetric<P>>(
        what: &str,
        set: &PointSet<P>,
        metric: &M,
        params: NnDescentParams,
        (digest, evals, updates): (u64, u64, &[u64]),
    ) {
        let (g, stats) = build(set, metric, params);
        let mut h = Fnv::new();
        for v in 0..g.len() as PointId {
            let row = g.neighbors(v);
            h.mix(row.len() as u64);
            for &(id, d) in row {
                h.mix(id as u64);
                h.mix(d.to_bits() as u64);
            }
        }
        pin(what, h.0, digest);
        assert_eq!(stats.distance_evals, evals, "{what}");
        assert_eq!(stats.updates_per_iter, updates, "{what}");
        assert_eq!(stats.iterations, updates.len(), "{what}");
    }

    check(
        "deep1b_like",
        &dataset::presets::deep1b_like(1000, 17),
        &L2,
        NnDescentParams::new(10).seed(5),
        (
            0xa554_bbae_37d3_beaf,
            331_643,
            &[28_968, 11_030, 3_172, 735, 150, 31, 8],
        ),
    );
    check(
        "bigann_like",
        &dataset::presets::bigann_like(1000, 19),
        &L2,
        NnDescentParams::new(8).seed(6),
        (
            0xe459_7b46_470a_020a,
            220_035,
            &[20_684, 9_603, 3_854, 1_209, 397, 119, 43, 7],
        ),
    );
}

#[test]
fn nnd_search_probes_are_pinned() {
    const GOLDEN_DIGEST: u64 = 0xda98_3671_48c5_a406;
    const GOLDEN_DIST_EVALS: u64 = 536;

    let (base, _, graph) = f32_fixture();
    let params = SearchParams::new(6)
        .epsilon(0.15)
        .entry_candidates(24)
        .seed(9);
    let mut h = Fnv::new();
    let mut evals = 0;
    for probe in [0u32, 37, 600, 1159] {
        let r = search(&graph, &base, &L2, base.point(probe), params);
        evals += r.distance_evals;
        h.mix(r.neighbors.len() as u64);
        for &(id, d) in &r.neighbors {
            h.mix(id as u64);
            h.mix(d.to_bits() as u64);
        }
    }
    pin("probes", h.0, GOLDEN_DIGEST);
    assert_eq!(evals, GOLDEN_DIST_EVALS);
}

#[test]
fn nnd_search_batch_is_pinned() {
    // (epsilon, entry_candidates, ids digest, distance evals)
    const GOLDEN: [(f32, usize, u64, u64); 4] = [
        (0.0, 0, 0x1346_51a3_6922_d04f, 4_061),
        (0.0, 256, 0x5327_8a30_3c77_3906, 12_782),
        (0.2, 0, 0x198b_21f1_b020_3140, 8_295),
        (0.2, 256, 0x0ab7_48fe_bc67_bd57, 15_999),
    ];
    const GOLDEN_U8: (u64, u64) = (0x8a70_5cdd_a181_055f, 7_904);

    let (base, queries, graph) = f32_fixture();
    for (epsilon, entries, digest, evals) in GOLDEN {
        let params = SearchParams::new(10)
            .epsilon(epsilon)
            .entry_candidates(entries)
            .seed(21);
        let r = search_batch(&graph, &base, &L2, &queries, params);
        let what = format!("epsilon {epsilon}, entry_candidates {entries}");
        pin(&what, rows_digest(&r.ids), digest);
        assert_eq!(r.distance_evals, evals, "{what}");
    }

    // The u8 kernel goes through the same loop.
    let (base, queries) = split_queries(dataset::presets::bigann_like(640, 5), 40);
    let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(4));
    let params = SearchParams::new(8).epsilon(0.2).entry_candidates(64);
    let r = search_batch(&g.optimize(8, 1.5), &base, &L2, &queries, params);
    pin("u8", rows_digest(&r.ids), GOLDEN_U8.0);
    assert_eq!(r.distance_evals, GOLDEN_U8.1);
}

#[test]
fn hnsw_structure_and_search_are_pinned() {
    const GOLDEN_STRUCTURE: u64 = 0x1f15_663f_c8d5_1ca3;
    const GOLDEN_BUILD_EVALS: u64 = 587_280;
    // (ef, ids digest)
    const GOLDEN_SEARCH: [(usize, u64); 2] =
        [(10, 0x7d2b_9c19_1174_c2c1), (100, 0x0ab7_48fe_bc67_bd57)];

    let (base, queries, _) = f32_fixture();
    let index = HnswIndex::build(&base, L2, HnswParams::new(8, 60).seed(5));

    let mut h = Fnv::new();
    h.mix(index.max_layer() as u64);
    h.mix(index.entry_point() as u64);
    for layer in 0..=index.max_layer() {
        h.mix(index.layer_links(layer) as u64);
    }
    for row in index.layer0_graph() {
        h.mix(row.len() as u64);
        for (id, d) in row {
            h.mix(id as u64);
            h.mix(d.to_bits() as u64);
        }
    }
    pin("structure", h.0, GOLDEN_STRUCTURE);
    assert_eq!(index.build_distance_evals, GOLDEN_BUILD_EVALS);

    for (ef, digest) in GOLDEN_SEARCH {
        let ids = |q| index.search(q, 10, ef).into_iter().map(|(id, _)| id);
        let rows: Vec<Vec<PointId>> = queries.points().iter().map(|q| ids(q).collect()).collect();
        pin(&format!("ef {ef}"), rows_digest(&rows), digest);
        // The batch driver is the same search per query.
        assert_eq!(index.search_batch(&queries, 10, ef).0, rows);
    }
}

#[test]
fn distributed_search_is_pinned_across_rank_counts() {
    const GOLDEN_DIGEST: u64 = 0x0ab7_48fe_bc67_bd57;

    let (base, queries, graph) = f32_fixture();
    let (base, queries, graph) = (Arc::new(base), Arc::new(queries), Arc::new(graph));
    let params = DistSearchParams::new(10)
        .epsilon(0.2)
        .entry_candidates(48)
        .seed(17);
    for ranks in [1usize, 2, 4] {
        let (ids, _) =
            distributed_search_batch(&World::new(ranks), &base, &graph, &queries, &L2, params);
        pin(&format!("{ranks} ranks"), rows_digest(&ids), GOLDEN_DIGEST);
    }
}

// ---------------------------------------------------------------------------
// Seed-admission pins. Every constant below was captured at commit `80d3c4d`
// (the parent of the PR that replaced the entry-point sampler and made seed
// admission bounded), *before* any search code was edited: the cases sit on
// the edges that change touches — `starts` clamped up to `l`, `l = n`, pure
// greedy over 256 seeds, exact distance ties at the seed bound, and the u8
// kernel under 256 seeds.
// ---------------------------------------------------------------------------

/// `(l, epsilon, entry_candidates, ids digest, distance evals)`.
type AdmissionPin = (usize, f32, usize, u64, u64);

#[track_caller]
fn check_admission<P: dataset::Point, M: dataset::BatchMetric<P>>(
    what: &str,
    graph: &KnnGraph,
    base: &PointSet<P>,
    metric: &M,
    queries: &PointSet<P>,
    pins: &[AdmissionPin],
) {
    for &(l, epsilon, entries, digest, evals) in pins {
        let params = SearchParams::new(l)
            .epsilon(epsilon)
            .entry_candidates(entries)
            .seed(33);
        let r = search_batch(graph, base, metric, queries, params);
        let what = format!("{what}: l {l}, epsilon {epsilon}, entry_candidates {entries}");
        pin(&what, rows_digest(&r.ids), digest);
        assert_eq!(r.distance_evals, evals, "{what}");
    }
}

#[test]
fn seed_admission_edges_are_pinned() {
    // entry_candidates < l, so `starts` is clamped up to `l`; then pure
    // greedy and relaxed descent from 256 seeds with `l` above the graph's k.
    const GOLDEN_F32: [AdmissionPin; 4] = [
        (20, 0.1, 5, 0x61ee_996a_619f_22a3, 8_124),
        (20, 0.0, 0, 0xe6f5_84b4_7269_db0d, 5_920),
        (25, 0.0, 256, 0x3821_4718_0e66_3a2d, 14_703),
        (3, 0.3, 256, 0x2fe2_8686_4782_393e, 14_997),
    ];
    let (base, queries, graph) = f32_fixture();
    check_admission("f32", &graph, &base, &L2, &queries, &GOLDEN_F32);

    // l = n: every point is a seed and every point is returned.
    const GOLDEN_ALL: [AdmissionPin; 2] = [
        (150, 0.0, 0, 0x78ba_e019_2327_f905, 3_000),
        (150, 0.25, 256, 0x78ba_e019_2327_f905, 3_000),
    ];
    let small = gaussian_mixture(MixtureParams::embedding_like(170, 6), 29);
    let (base, queries) = split_queries(small, 20);
    assert_eq!(base.len(), 150);
    let (g, _) = build(&base, &L2, NnDescentParams::new(6).seed(8));
    check_admission(
        "l = n",
        &g.optimize(6, 1.5),
        &base,
        &L2,
        &queries,
        &GOLDEN_ALL,
    );
}

#[test]
fn seed_admission_ties_are_decided_by_id() {
    // 300 distinct points followed by copies of the first 64: each of the 64
    // member queries sees its two copies at distance exactly 0, so an odd `l`
    // puts an exact tie on the seed bound (l = 1: the bound *is* the tie),
    // and 256 of 364 points are seeds.
    const GOLDEN_TIES: [AdmissionPin; 4] = [
        (1, 0.0, 256, 0xc34b_8ab7_254e_ea5b, 16_611),
        (1, 0.2, 256, 0x3b7a_dafb_3e9a_b95d, 16_619),
        (3, 0.0, 256, 0xa784_2641_033c_ee7a, 16_713),
        (2, 0.1, 364, 0x96b8_a164_f475_dc25, 23_296),
    ];
    let distinct = gaussian_mixture(MixtureParams::embedding_like(300, 8), 41);
    let mut points = distinct.points().to_vec();
    points.extend_from_slice(&distinct.points()[..64]);
    let base = PointSet::new(points);
    let queries = PointSet::new(distinct.points()[..64].to_vec());
    let (g, _) = build(&base, &L2, NnDescentParams::new(8).seed(6));
    check_admission(
        "ties",
        &g.optimize(8, 1.5),
        &base,
        &L2,
        &queries,
        &GOLDEN_TIES,
    );
}

#[test]
fn u8_search_with_256_entries_is_pinned() {
    const GOLDEN_U8_256: [AdmissionPin; 2] = [
        (10, 0.2, 256, 0xa018_47ac_708c_7668, 24_129),
        (10, 0.0, 256, 0x5da0_1bc7_0119_5300, 18_997),
    ];
    let (base, queries) = split_queries(dataset::presets::bigann_like(900, 17), 60);
    let (g, _) = build(&base, &L2, NnDescentParams::new(10).seed(2));
    check_admission(
        "u8",
        &g.optimize(10, 1.5),
        &base,
        &L2,
        &queries,
        &GOLDEN_U8_256,
    );
}

#[test]
fn distributed_search_with_256_entries_is_pinned_across_rank_counts() {
    const GOLDEN_DIGEST: u64 = 0x3df7_3ede_cbe0_3a46;
    // (ranks, messages, bytes): the traffic is a pure function of the
    // visited sets and the owner grouping.
    const GOLDEN_TRAFFIC: [(usize, u64, u64); 3] = [
        (1, 1_692, 227_660),
        (2, 2_514, 262_184),
        (4, 3_668, 310_652),
    ];

    let (base, queries, graph) = f32_fixture();
    let (base, queries, graph) = (Arc::new(base), Arc::new(queries), Arc::new(graph));
    let params = DistSearchParams::new(10).entry_candidates(256).seed(5);
    for (ranks, messages, bytes) in GOLDEN_TRAFFIC {
        let (ids, report) =
            distributed_search_batch(&World::new(ranks), &base, &graph, &queries, &L2, params);
        pin(&format!("{ranks} ranks"), rows_digest(&ids), GOLDEN_DIGEST);
        assert_eq!(
            (report.total.count, report.total.bytes),
            (messages, bytes),
            "traffic at {ranks} ranks"
        );
    }
}

/// The fixture's 40 held-out queries and its first 80 base points: enough
/// queries for every worker of a batch to take several chunks.
fn many_queries(base: &PointSet<Vec<f32>>, held_out: &PointSet<Vec<f32>>) -> PointSet<Vec<f32>> {
    let members = base.points()[..80].iter();
    PointSet::new(held_out.points().iter().chain(members).cloned().collect())
}

#[test]
fn a_parallel_batch_is_the_one_query_searches() {
    let (base, held_out, graph) = f32_fixture();
    let queries = many_queries(&base, &held_out);
    let params = SearchParams::new(10)
        .epsilon(0.1)
        .entry_candidates(256)
        .seed(8);
    let batch = search_batch(&graph, &base, &L2, &queries, params);
    let mut evals = 0;
    for (qi, q) in queries.points().iter().enumerate() {
        let r = search(&graph, &base, &L2, q, params.seed(8 ^ ((qi as u64) << 17)));
        assert_eq!(batch.ids[qi], r.ids(), "query {qi}");
        evals += r.distance_evals;
    }
    assert_eq!(batch.distance_evals, evals);
}

#[test]
fn a_parallel_hnsw_batch_is_the_one_query_searches() {
    let (base, held_out, _) = f32_fixture();
    let queries = many_queries(&base, &held_out);
    let index = HnswIndex::build(&base, L2, HnswParams::new(8, 60).seed(5));
    let ids = |q| index.search(q, 10, 40).into_iter().map(|(id, _)| id);
    let rows: Vec<Vec<PointId>> = queries.points().iter().map(|q| ids(q).collect()).collect();
    assert_eq!(index.search_batch(&queries, 10, 40).0, rows);
}
