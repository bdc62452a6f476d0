//! The serve-mutate stage: writes beside reads. The timed call is
//! `serve::serve_vdb_on_comm` at one rank over an in-memory replica of the
//! collection: a closed loop with filtered queries, slot-boundary
//! inserts/deletes and compaction. The store is not in the timed call (its
//! fsyncs vary 2x from minute to minute on a shared disk); a traced run
//! replays the session through `serve::run_serve_vdb` and a store to check
//! that the persisted path gives the same answers, and prices the store
//! per layer.

use super::serve_open::{search, tally_checks, Tally};
use super::{mean_recall, recall_floor, BenchPoint, K};
use crate::harness::{all_equal, timed, Ctx, Seeds};
use crate::spans::Recorder;
use dataset::ground_truth::brute_force_queries;
use dataset::set::PointId;
use dataset::synth::split_queries;
use dataset::{PointSet, L2};
use nnd::SearchParams;
use serve::{ServeParams, ServingStats, VdbServeConfig};
use std::path::Path;
use std::sync::Arc;
use vdb::{Collection, CollectionStat, MetaRecord};
use ygm::World;

pub const NAMESPACE: &str = "bench";
/// 32 closed-loop clients with 2 ms think time; half the queries carry a
/// 30 %-selective predicate; inserts and deletes land on slot boundaries.
const WORKLOAD: &str = "closed:n=32,think=2ms;filter:pct=50,sel=0.3;mutate:ins=4,del=3";
const COMPACT_WATERMARK: f64 = 0.02;
/// The mutated graph must still answer live-only queries.
const RECALL_FLOOR: f64 = 0.90;

pub struct Sizes {
    /// Points in the collection.
    pub n: usize,
    /// Held-out points its clients query (and insert).
    pub pool: usize,
    pub arrivals: usize,
    /// Fewest inserts and deletes the run must apply.
    pub min_mutations: u64,
}

pub const FULL: Sizes = Sizes {
    n: 300,
    pool: 200,
    arrivals: 800,
    min_mutations: 10,
};
pub const SMOKE: Sizes = Sizes {
    n: 150,
    pool: 60,
    arrivals: 150,
    min_mutations: 1,
};

pub struct Input {
    pub collection: Collection,
    pub pool: Arc<PointSet<Vec<f32>>>,
}

fn widened<P: BenchPoint>(set: &PointSet<P>) -> PointSet<Vec<f32>> {
    PointSet::new(set.points().iter().map(P::widen).collect())
}

/// A fresh collection over its own small set of the workload's preset (as
/// f32, the only form `vdb` holds) and the pool its clients query. A set of
/// its own, not a slice of the searched base: 300 points of a mixture sized
/// for 5 000 would be sixteen per cluster, and a k=10 graph over them falls
/// apart.
pub fn input<P: BenchPoint>(rec: &mut Recorder, seeds: Seeds, sizes: &Sizes) -> Input {
    let (points, pool) = rec.span("setup.gen", -1, (sizes.n + sizes.pool) as u64, || {
        let (base, pool) = split_queries(P::preset(sizes.n + sizes.pool, seeds.data), sizes.pool);
        (widened(&base), widened(&pool))
    });
    let meta: Vec<MetaRecord> = (0..sizes.n as u64)
        .map(|id| MetaRecord::bucket_record(seeds.data, id))
        .collect();
    let collection = rec.span("vdb.create", -1, sizes.n as u64, || {
        Collection::create(NAMESPACE, points, meta, "l2", K, seeds.build).expect("valid collection")
    });
    Input {
        collection,
        pool: Arc::new(pool),
    }
}

pub fn params(sizes: &Sizes, serve_seed: u64, query_seed: u64) -> ServeParams {
    let mut p = ServeParams::new(K)
        .serve_seed(serve_seed)
        .n_arrivals(sizes.arrivals)
        .workload_str(WORKLOAD);
    p.search = search(query_seed);
    p
}

pub fn config() -> VdbServeConfig {
    VdbServeConfig {
        compact_watermark: COMPACT_WATERMARK,
        ..VdbServeConfig::default()
    }
}

/// Recall@10 of plain beam search over a mutated collection's graph, live
/// ids only on both sides. The search asks for `2 k` neighbours from `2 k`
/// entry points (5 % of the collection, so the graph and not the seeding has
/// to find the answers) and keeps the first `k` live ones.
pub fn live_recall(c: &Collection, pool: &PointSet<Vec<f32>>, seed: u64) -> Result<f64, String> {
    let gone = c.tombstones().len() + c.dead().len();
    let live_first = |ids: Vec<PointId>| -> Vec<PointId> {
        ids.into_iter()
            .filter(|&id| c.is_live(id))
            .take(K)
            .collect()
    };
    let truth: Vec<Vec<PointId>> = brute_force_queries(&c.base, pool, &L2, K + gone)
        .ids
        .into_iter()
        .map(live_first)
        .collect();
    let params = SearchParams::new(2 * K)
        .epsilon(super::query::EPSILON)
        .seed(seed);
    let answers: Vec<Vec<PointId>> = nnd::search_batch(&c.graph, &c.base, &L2, pool, params)
        .ids
        .into_iter()
        .map(live_first)
        .collect();
    recall_floor(
        "mutated collection",
        mean_recall(&answers, &truth),
        RECALL_FLOOR,
    )
}

/// What the timed reps leave behind.
#[derive(Default)]
pub struct Reps {
    pub first: Option<ServingStats>,
    tallies: Vec<Tally>,
    stats: Vec<CollectionStat>,
    /// The collection as the last rep left it.
    pub last: Option<Collection>,
}

impl Reps {
    pub fn rep(
        &mut self,
        rec: &mut Recorder,
        sizes: &Sizes,
        seeds: Seeds,
        input: &Input,
        rep: i64,
    ) -> f64 {
        let p = params(sizes, seeds.serve, seeds.query);
        let cfg = config();
        let world = World::new(1);
        let open = rec.begin("serve.run_vdb", rep);
        let (wall, mut report) = timed(|| {
            world.run(|comm| {
                let replica = input.collection.clone();
                serve::serve_vdb_on_comm(comm, replica, &input.pool, &L2, &p, &cfg)
            })
        });
        let (outcome, collection) = report.results.pop().expect("one rank");
        rec.end(open, outcome.stats.offered);
        if rep >= 0 {
            self.tallies.push(Tally::of(&outcome));
            self.stats.push(collection.stat());
            self.first.get_or_insert(outcome.stats);
            self.last = Some(collection);
        }
        wall
    }

    /// Exact replay from the same collection (digests and the final
    /// `CollectionStat`), the liveness partition, the mutation counts, and
    /// recall over the mutated collection.
    pub fn finish(&self, ctx: &mut Ctx, sizes: &Sizes, input: &Input) {
        let ledger = &mut ctx.ledger;
        tally_checks(ledger, &self.tallies);
        ledger.check(all_equal("final CollectionStat", &self.stats));
        let stat = &self.stats[0];
        ledger.ensure(
            stat.live + stat.tombstones + stat.dead == stat.points,
            || format!("liveness does not partition the ids: {stat:?}"),
        );
        let v = self.vdb_stats();
        ledger.ensure(
            v.inserts >= sizes.min_mutations
                && v.deletes >= sizes.min_mutations
                && v.compactions >= 1,
            || {
                format!(
                    "mutation surface not exercised: {} inserts, {} deletes, {} compactions",
                    v.inserts, v.deletes, v.compactions
                )
            },
        );
        println!(
            "serve-mutate: {} inserts, {} deletes, {} compactions",
            v.inserts, v.deletes, v.compactions
        );
        let last = self.last.as_ref().expect("at least one rep");
        let seed = ctx.seeds.query;
        let recall = ctx
            .rec
            .span("check.live_recall", -1, input.pool.len() as u64, || {
                live_recall(last, &input.pool, seed)
            });
        if let Some(recall) = ctx.ledger.check(recall) {
            ctx.ledger.set("serve_mutate_recall_at_10", recall);
        }
    }

    pub fn vdb_stats(&self) -> &serve::VdbServeStats {
        let first = self.first.as_ref().expect("at least one rep");
        first
            .vdb
            .as_ref()
            .expect("namespaced run reports vdb stats")
    }

    /// The same session through a store under `dir`: `run_serve_vdb` opens
    /// the namespace, serves and saves it back. Its digests, final stat and
    /// the reopened collection's recall must equal the in-memory reps'.
    /// Returns the wall seconds of the call.
    pub fn store_replay(
        &self,
        ctx: &mut Ctx,
        sizes: &Sizes,
        input: &Input,
        dir: &Path,
    ) -> Result<f64, String> {
        let seeds = ctx.seeds;
        let _ = std::fs::remove_dir_all(dir);
        let mut store = metall::Store::create(dir).map_err(|e| format!("create store: {e}"))?;
        input.collection.save(&mut store)?;
        drop(store);
        let p = params(sizes, seeds.serve, seeds.query);
        let (wall, (outcome, stat, _)) = ctx.rec.span("serve.run_vdb.store", -1, 1, || {
            timed(|| {
                serve::run_serve_vdb(
                    &World::new(1),
                    dir,
                    NAMESPACE,
                    &input.pool,
                    &L2,
                    &p,
                    &config(),
                )
            })
        });
        let stored = Tally::of(&outcome);
        all_equal(
            "in-memory vs store-backed (result digest, forensics digest)",
            &[self.tallies[0].digests(), stored.digests()],
        )?;
        all_equal(
            "in-memory vs store-backed final CollectionStat",
            &[&self.stats[0], &stat],
        )?;
        let store = metall::Store::open(dir).map_err(|e| format!("reopen store: {e}"))?;
        let reopened = Collection::open(&store, NAMESPACE)?;
        let recall = live_recall(&reopened, &input.pool, seeds.query)?;
        let in_memory = ctx.ledger.metrics.get("serve_mutate_recall_at_10");
        if in_memory != Some(&recall) {
            return Err(format!(
                "persisted collection recall {recall} differs from the in-memory one {in_memory:?}"
            ));
        }
        Ok(wall)
    }
}
