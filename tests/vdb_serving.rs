//! Integration tests of the vector-DB product layer under distributed
//! serving (`crates/vdb` + `serve::run_serve_vdb`):
//!
//! * the tombstone-visibility contract — once an id is deleted, it never
//!   appears in any result set again, before *or* after compaction;
//! * filter-pushed search is bit-identical across reruns, rank counts
//!   {1, 2, 4}, and kernel dispatch (cached-norm batched kernels vs the
//!   scalar pair-by-pair path);
//! * online inserts/deletes with watermark-triggered compaction replay
//!   bit-identically and keep the liveness classes partitioning the id
//!   space;
//! * mutations never resurrect — after any sequence of deletes,
//!   compactions and ingests every dead row is empty and no row holds a
//!   dead id — and a long schedule of them leaves the live rows accurate.

use dataset::batch::BatchMetric;
use dataset::metric::Metric;
use dataset::set::{PointId, PointSet};
use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::L2;
use metall::Store;
use serve::{run_serve_vdb, ServeParams, VdbServeConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use testutil::TmpDir;
use vdb::Collection;
use ygm::World;

const NS: &str = "it";

/// One collection + query-pool fixture: the collection indexes the base
/// split with deterministic per-id `bucket` metadata.
fn fixture(n: usize, pool_n: usize, k: usize, seed: u64) -> (Collection, Arc<PointSet<Vec<f32>>>) {
    let full = gaussian_mixture(MixtureParams::embedding_like(n, 12), seed);
    let (base, queries) = split_queries(full, pool_n);
    let meta = (0..base.len() as u64)
        .map(|id| vdb::MetaRecord::bucket_record(seed, id))
        .collect();
    let collection = Collection::create(NS, base, meta, "l2", k, seed).expect("create");
    (collection, Arc::new(queries))
}

/// (Re-)persist `c` as the only namespace of a fresh store at `dir`.
fn persist(dir: &Path, c: &Collection) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut store = Store::create(dir).expect("store");
    c.save(&mut store).expect("save");
}

fn base_params(arrivals: usize) -> ServeParams {
    ServeParams::new(8)
        .serve_seed(0xBD8)
        .n_arrivals(arrivals)
        .offered_qps(3_000.0)
}

/// A deleted id must never be served again: not from the graph, not from
/// the cache, not before compaction, not after it.
#[test]
fn tombstoned_ids_never_returned_before_or_after_compaction() {
    let (collection, pool) = fixture(240, 24, 8, 11);
    let dir = TmpDir::new("vdb-tombstone");
    let params = base_params(160);
    let cfg = VdbServeConfig::default();

    persist(dir.path(), &collection);
    let (before, _, _) = run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    assert!(before.stats.total_answered() > 0, "nothing answered");

    // Delete the three ids the unfiltered run returned most often — the
    // worst case for both the beam search and the result cache.
    let mut freq: BTreeMap<PointId, usize> = BTreeMap::new();
    for (_, _, ids) in &before.answers {
        for &id in ids {
            *freq.entry(id).or_default() += 1;
        }
    }
    let mut by_freq: Vec<(usize, PointId)> = freq.iter().map(|(&id, &n)| (n, id)).collect();
    by_freq.sort_unstable_by(|a, b| b.cmp(a));
    let victims: Vec<PointId> = by_freq.iter().take(3).map(|&(_, id)| id).collect();
    assert_eq!(victims.len(), 3, "fixture too small to pick victims");

    let mut deleted = collection.clone();
    assert_eq!(deleted.delete(&victims).expect("delete"), 3);

    // Pre-compaction: tombstones are masked out at the home rank and
    // filtered from cache hits.
    persist(dir.path(), &deleted);
    let (masked, _, _) = run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    assert!(
        masked.stats.total_answered() > 0,
        "masked run answered none"
    );
    for (idx, _, ids) in &masked.answers {
        for v in &victims {
            assert!(
                !ids.contains(v),
                "tombstoned id {v} returned pre-compaction for arrival {idx}"
            );
        }
    }

    // Post-compaction: the ids are now dead (adjacency rewritten, epoch
    // bumped) and must stay invisible.
    let report = deleted.compact().expect("compact");
    assert_eq!(report.tombstones_cleared, 3);
    persist(dir.path(), &deleted);
    let (compacted, stat, _) =
        run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    assert!(compacted.stats.total_answered() > 0);
    assert_eq!(stat.dead, 3);
    assert_eq!(stat.tombstones, 0);
    for (idx, _, ids) in &compacted.answers {
        for v in &victims {
            assert!(
                !ids.contains(v),
                "dead id {v} returned post-compaction for arrival {idx}"
            );
        }
    }
}

/// The scalar pair-by-pair fallback path of [`BatchMetric`]: same metric
/// bits as [`L2`], no cached-norm kernels.
#[derive(Debug, Clone, Copy)]
struct ScalarL2;

impl Metric<Vec<f32>> for ScalarL2 {
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        L2.distance(a, b)
    }
    fn name(&self) -> &'static str {
        "l2"
    }
}

// All default methods: empty norm cache, pair-by-pair evaluation.
impl BatchMetric<Vec<f32>> for ScalarL2 {}

/// Filter-pushed distributed search is a pure function of the serve seed:
/// bit-identical across reruns, across rank counts, and across kernel
/// dispatch (batched cached-norm vs scalar evaluation).
#[test]
fn filtered_search_is_bit_identical_across_reruns_ranks_and_kernels() {
    let (collection, pool) = fixture(240, 24, 8, 13);
    let dir = TmpDir::new("vdb-identity");
    persist(dir.path(), &collection);

    // Static predicate AND-ed with per-query filter: traffic.
    let cfg = VdbServeConfig {
        filter: Some("bucket in [0 .. 59]".parse().expect("predicate")),
        ..VdbServeConfig::default()
    };
    let params = base_params(140).workload_str("filter:pct=60,sel=0.4");

    let (reference, _, _) =
        run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    let v = reference.stats.vdb.as_ref().expect("vdb stats");
    assert!(v.filtered > 0, "no query carried a predicate");
    assert!(
        !v.selectivity_hist.is_empty(),
        "filtered dispatches recorded no selectivity"
    );

    // Rerun: the store is unmutated, so the same dir replays exactly.
    let (rerun, _, _) = run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    assert_eq!(rerun, reference, "rerun diverged");

    // Rank counts: the mask is evaluated at each query's home rank, but
    // the outcome is replicated and slot-clocked.
    for ranks in [1usize, 4] {
        let (other, _, _) = run_serve_vdb(
            &World::new(ranks),
            dir.path(),
            NS,
            &pool,
            &L2,
            &params,
            &cfg,
        );
        assert_eq!(
            other, reference,
            "filtered outcome changed between 2 and {ranks} ranks"
        );
    }

    // Kernel dispatch: the scalar path must reproduce the batched path
    // bit for bit (the BatchMetric contract, now under masking).
    let (scalar, _, _) = run_serve_vdb(
        &World::new(2),
        dir.path(),
        NS,
        &pool,
        &ScalarL2,
        &params,
        &cfg,
    );
    assert_eq!(
        scalar, reference,
        "scalar kernel dispatch diverged from batched"
    );
}

/// Online inserts/deletes and the watermark-triggered compaction replay
/// bit-identically from a pristine store, keep the liveness classes
/// partitioning the id space, and persist the mutated namespace.
#[test]
fn online_mutations_replay_bit_identically_and_persist() {
    let (collection, pool) = fixture(240, 24, 8, 17);
    let dir = TmpDir::new("vdb-mutate");
    let initial_points = collection.stat().points;
    let cfg = VdbServeConfig {
        compact_watermark: 0.01,
        ..VdbServeConfig::default()
    };
    let params = base_params(200).workload_str("filter:pct=50,sel=0.3;mutate:ins=9,del=6");

    persist(dir.path(), &collection);
    let (reference, stat, _) =
        run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    let v = reference.stats.vdb.as_ref().expect("vdb stats");
    assert!(v.inserts > 0, "schedule applied no inserts");
    assert!(v.deletes > 0, "schedule applied no deletes");
    assert!(v.compactions > 0, "watermark never triggered compaction");
    assert_eq!(
        stat.live + stat.tombstones + stat.dead,
        stat.points,
        "liveness classes must partition the id space"
    );
    assert_eq!(stat.points, initial_points + v.inserts);
    assert!(stat.epoch > 0, "ingest/compact must bump the epoch");

    // The mutated namespace was saved back: reopening shows the final
    // counters the run reported.
    let store = Store::open(dir.path()).expect("reopen");
    let persisted = Collection::open(&store, NS).expect("open");
    assert_eq!(persisted.stat(), stat);
    drop(store);

    // Pristine store -> the whole mutation schedule replays exactly.
    persist(dir.path(), &collection);
    let (replay, replay_stat, _) =
        run_serve_vdb(&World::new(2), dir.path(), NS, &pool, &L2, &params, &cfg);
    assert_eq!(replay, reference, "mutating run diverged on replay");
    assert_eq!(replay_stat, stat);
}

/// The "mutations never resurrect" invariant: every compacted-dead row is
/// empty and no other row — live, tombstoned or freshly ingested — holds
/// a dead id.
#[track_caller]
fn assert_never_resurrected(c: &Collection) {
    let dead = c.dead();
    for v in 0..c.graph.len() as PointId {
        let row = c.graph.neighbors(v);
        if dead.binary_search(&v).is_ok() {
            assert!(row.is_empty(), "dead row {v} was refilled: {row:?}");
        } else {
            let held = row.iter().find(|(u, _)| dead.binary_search(u).is_ok());
            assert_eq!(held, None, "row {v} holds a dead id");
        }
    }
}

/// Share of the live points' exact `k` nearest live neighbors that their
/// rows hold among their first `k` live entries.
fn live_row_recall(c: &Collection, k: usize) -> f64 {
    let live: Vec<PointId> = (0..c.base.len() as PointId)
        .filter(|&v| c.is_live(v))
        .collect();
    let (mut found, mut wanted) = (0, 0);
    for &v in &live {
        let mut exact: Vec<(f32, PointId)> = (live.iter().filter(|&&u| u != v))
            .map(|&u| (L2.distance(c.base.point(v), c.base.point(u)), u))
            .collect();
        exact.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        exact.truncate(k);
        let row = c.graph.neighbors(v).iter().map(|&(u, _)| u);
        let row: Vec<PointId> = row.filter(|&u| c.is_live(u)).take(k).collect();
        found += exact.iter().filter(|(_, u)| row.contains(u)).count();
        wanted += exact.len();
    }
    found as f64 / wanted as f64
}

/// `VdbState::on_slot`'s schedule (`mutate:ins=4,del=3`, compaction armed
/// at `watermark` and fired 1-8 slots later) applied straight to `c`, drawn
/// from the same PRF family: what `slots` slots of serving do to a
/// collection, without the queries.
fn mutate_for(
    c: &mut Collection,
    pool: &PointSet<Vec<f32>>,
    seed: u64,
    slots: u64,
    watermark: f64,
) {
    let prf = |salt: u64, x: u64| ygm::fault::mix(seed, salt, x, 0, 0);
    let (mut compact_at, mut armed) = (None, 0);
    for slot in 1..=slots {
        if slot % 4 == 0 {
            let pick = (prf(1, slot) % pool.len() as u64) as PointId;
            let rec = vdb::MetaRecord::bucket_record(seed, c.stat().points);
            c.ingest(vec![pool.point(pick).clone()], vec![rec])
                .expect("ingest");
        }
        if slot % 3 == 0 && c.n_live() > 1 {
            let j = (prf(2, slot) % c.n_live() as u64) as usize;
            let live = (0..c.base.len() as PointId).filter(|&i| c.is_live(i));
            let id = { live }.nth(j).expect("j-th live id");
            c.delete(&[id]).expect("delete");
        }
        if compact_at.is_none() && c.tombstone_ratio() >= watermark {
            compact_at = Some(slot + 1 + prf(3, armed) % 8);
            armed += 1;
        }
        if compact_at == Some(slot) {
            compact_at = None;
            c.compact().expect("compact");
        }
        assert_never_resurrected(c);
    }
}

/// Delete -> compact -> ingest, by hand, by the served schedule and by a
/// long run of it: dead vertices stay out of the graph, and the live rows
/// stay close to their exact neighbors. (At the parent of the PR that
/// added this, the first ingest after a compaction refilled every dead row
/// and 600 slots left the live rows at recall 0.62-0.90.)
#[test]
fn mutations_never_resurrect() {
    let (collection, pool) = fixture(300, 60, 8, 23);

    // By hand: the ingest right after a compaction is the one that used to
    // top every dead row up with random ids.
    let mut c = collection.clone();
    let victims: Vec<PointId> = (0..240).step_by(7).collect();
    c.delete(&victims).expect("delete");
    c.compact().expect("compact");
    assert_eq!(c.dead(), &victims[..]);
    assert_never_resurrected(&c);
    for (i, p) in pool.points().iter().take(12).enumerate() {
        let rec = vdb::MetaRecord::bucket_record(23, c.stat().points);
        let ids = c.ingest(vec![p.clone()], vec![rec]).expect("ingest");
        assert_never_resurrected(&c);
        let linked = !c.graph.neighbors(ids.start).is_empty();
        assert!(linked, "ingest {i} left its point out of the graph");
    }
    c.delete(&[240, 241, 245]).expect("delete");
    assert_never_resurrected(&c);
    c.compact().expect("compact");
    assert_never_resurrected(&c);
    assert!(live_row_recall(&c, 8) >= 0.95);

    // Served: the benchmark's schedule, replayed at every rank count and
    // through the scalar kernels; the mutated namespace is what was saved.
    let dir = TmpDir::new("vdb-resurrect");
    let cfg = VdbServeConfig {
        compact_watermark: 0.02,
        ..VdbServeConfig::default()
    };
    let params = base_params(240).workload_str("filter:pct=50,sel=0.3;mutate:ins=4,del=3");
    let serve = |ranks: usize, scalar: bool| {
        persist(dir.path(), &collection);
        let world = World::new(ranks);
        let (outcome, stat, _) = match scalar {
            false => run_serve_vdb(&world, dir.path(), NS, &pool, &L2, &params, &cfg),
            true => run_serve_vdb(&world, dir.path(), NS, &pool, &ScalarL2, &params, &cfg),
        };
        let store = Store::open(dir.path()).expect("reopen");
        let served = Collection::open(&store, NS).expect("open");
        assert_eq!(served.stat(), stat);
        (outcome, served)
    };
    let (reference, served) = serve(2, false);
    let v = reference.stats.vdb.as_ref().expect("vdb stats");
    assert!(
        v.inserts >= 5 && v.deletes >= 5 && v.compactions >= 2,
        "schedule too short to matter: {v:?}"
    );
    assert_never_resurrected(&served);
    assert!(live_row_recall(&served, 8) >= 0.95);
    for (ranks, scalar) in [(1, false), (4, false), (2, true)] {
        let (other, persisted) = serve(ranks, scalar);
        assert_eq!(other, reference, "{ranks} ranks, scalar {scalar}");
        assert_eq!(
            persisted.graph, served.graph,
            "{ranks} ranks, scalar {scalar}"
        );
    }

    // Long: 600 slots turn over two thirds of the collection.
    let mut c = collection.clone();
    mutate_for(&mut c, &pool, 23, 600, 0.02);
    assert!(c.dead().len() >= 150, "{:?}", c.stat());
    let recall = live_row_recall(&c, 8);
    assert!(recall >= 0.95, "live-row recall after 600 slots: {recall}");
}

/// FNV-1a over every row of `c`'s graph: its length, then each edge's id
/// and the bit pattern of its distance.
fn graph_digest(c: &Collection) -> u64 {
    let mut bytes = Vec::new();
    for v in 0..c.graph.len() as PointId {
        let row = c.graph.neighbors(v);
        bytes.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for &(u, d) in row {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&d.to_bits().to_le_bytes());
        }
    }
    metall::checksum::fnv1a(&bytes)
}

/// Compaction golden: a fixed create -> delete -> compact -> ingest ->
/// delete -> compact sequence, pinned by the digest of the graph rows, the
/// rows each compaction repaired and the epoch. The second compaction runs
/// with dead ids already in the graph. Holds under both kernel dispatches.
/// The digests were re-captured once, when `nnd::build` and `nnd::refine`'s
/// descent took the distributed engine's per-vertex rules (the sample
/// sorted before its shuffle, the reverse union new before old, the update
/// count a set difference); the repaired-row counts and epochs did not move.
/// They were re-captured once more, with the repaired-row counts, when the
/// collection began to keep its k-NN rows and derive the served graph from
/// them: deletion repairs and refines the k-NN rows, not the served rows,
/// so fewer rows hold a deleted id (141 → 121 and 66 → 58), and a new
/// point is located among the kept points only. Before:
/// `((141, 1, 0xCA7F_53D5_FCF1_2C44), 0x00F1_85DD_CB94_355B,
/// (66, 3, 0x99A0_D15D_6B4D_88A4))`.
#[test]
fn compaction_is_pinned() {
    let (mut c, pool) = fixture(300, 40, 8, 31);
    let victims: Vec<PointId> = (3..260).step_by(11).collect();
    c.delete(&victims).expect("delete");
    let first = c.compact().expect("compact");
    let after_first = graph_digest(&c);
    let points = pool.points()[..12].to_vec();
    let meta = (0..12)
        .map(|i| vdb::MetaRecord::bucket_record(31, 260 + i))
        .collect();
    let ids = c.ingest(points, meta).expect("ingest");
    let after_ingest = graph_digest(&c);
    let mut more: Vec<PointId> = vec![1, 2, 40, 41, 42, ids.start, ids.start + 5];
    more.sort_unstable();
    c.delete(&more).expect("delete");
    let second = c.compact().expect("compact");
    let got = (
        (first.rows_repaired, first.epoch, after_first),
        after_ingest,
        (second.rows_repaired, second.epoch, graph_digest(&c)),
    );
    let want = (
        (121, 1, 0x47D2_9DF9_B632_F753),
        0xF088_0F96_D07B_5B1B,
        (58, 3, 0xE7EC_3790_9355_4601),
    );
    assert_eq!(got, want);
}
