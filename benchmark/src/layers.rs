//! The per-layer ledger of a traced run: each program layer called in
//! isolation at the workloads' shapes, the counts the public reports
//! already carry, and the shares computed from the two. Runs after the
//! timed rounds, never inside them.

use crate::harness::{splitmix64, timed, Ctx};
use crate::stages::query::{search_params, ENTRY_CANDIDATES};
use crate::stages::serve_open::{self, params as serve_params, search as dist_search};
use crate::stages::{
    construct, mean_recall, query, serve_mutate, BenchPoint, GraphSetup, Inputs, Sizes, K,
};
use crate::stats::{median, percentile_sorted};
use bytes::{Bytes, BytesMut};
use dataset::kernel;
use dataset::set::PointId;
use dataset::{presets, BatchMetric, Metric, Point, PointSet, L2};
use dnnd::msgs::Type2;
use dnnd::BuildReport;
use hnsw::index::{HnswIndex, HnswParams};
use nnd::{KnnGraph, NeighborHeap, SearchParams};
use serve::ServingStats;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use vdb::{Collection, Predicate};
use ygm::{CostModel, Wire, World, WorldReport};

/// Messages per `ygm.comm.*` measurement (plus one barrier).
const COMM_MESSAGES: usize = 200_000;
const BENCH_TAG: u16 = 1;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    (
        values.iter().copied().fold(f64::INFINITY, f64::min),
        values.iter().copied().fold(0.0, f64::max),
    )
}

/// Median over `reps` runs of `f`, in nanoseconds per item.
fn median_ns_per(reps: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).0).collect();
    median(&times) * 1e9 / items as f64
}

// ---------------------------------------------------------------- dataset

/// 64 queries x 4096 candidates through the batched 1xN entry point (host
/// dispatch, cached norms), or pair by pair through the forced-scalar kernel.
fn kernel_ns_per_pair<P: Point>(set: &PointSet<P>, batched: bool) -> f64
where
    L2: BatchMetric<P>,
{
    let n_q = 64;
    let cands: Vec<PointId> = (n_q as PointId..set.len() as PointId).collect();
    let queries = &set.points()[..n_q];
    let pairs = n_q * cands.len();
    if batched {
        let cache = L2.preprocess(set);
        let mut out = Vec::with_capacity(cands.len());
        median_ns_per(5, pairs, || {
            for q in queries {
                L2.distance_one_to_many(q, set, &cache, &cands, &mut out);
                black_box(&out);
            }
        })
    } else {
        let host = kernel::dispatch();
        kernel::force_dispatch(Some(kernel::Dispatch::Scalar));
        let ns = median_ns_per(3, pairs, || {
            for q in queries {
                for &u in &cands {
                    black_box(L2.distance(q, set.point(u)));
                }
            }
        });
        kernel::force_dispatch(Some(host));
        ns
    }
}

// -------------------------------------------------------------------- nnd

/// `checked_insert` into a k=10 heap fed uniform random distances, a fresh
/// heap every 256 inserts: about one insert in six is accepted, the rest
/// take the reject path, as in a descent iteration.
fn heap_insert_ns() -> f64 {
    const BLOCK: usize = 256;
    const BLOCKS: usize = 4_000;
    let draws: Vec<(PointId, f32)> = (0..BLOCK * BLOCKS)
        .map(|i| {
            let r = splitmix64(i as u64);
            ((r >> 40) as PointId, (r & 0xFF_FFFF) as f32 / 16_777_216.0)
        })
        .collect();
    median_ns_per(3, draws.len(), || {
        for block in draws.chunks(BLOCK) {
            let mut heap = NeighborHeap::new(K);
            for &(id, dist) in block {
                black_box(heap.checked_insert(id, dist, true));
            }
        }
    })
}

// -------------------------------------------------------------------- ygm

/// A `Type2` join row as the engine ships it: one vector, 8 endpoint ids.
fn type2_row<P: Point>(set: &PointSet<P>) -> Type2<P> {
    Type2 {
        u1: 0,
        u2s: (1..=8).collect(),
        vec: set.point(0).clone(),
    }
}

/// `(encode ns, decode ns, wire bytes)` of one message.
fn codec_ns<M: Wire>(msg: &M) -> (f64, f64, usize) {
    const N: usize = 200_000;
    let mut buf = BytesMut::with_capacity(msg.wire_size());
    let encode = median_ns_per(3, N, || {
        for _ in 0..N {
            buf.clear();
            black_box(msg).encode(&mut buf);
            black_box(&buf);
        }
    });
    let wire: Bytes = ygm::codec::encode_to_bytes(msg);
    let decode = median_ns_per(3, N, || {
        for _ in 0..N {
            let mut b = wire.clone();
            black_box(M::decode(&mut b));
        }
    });
    (encode, decode, wire.len())
}

/// Wall nanoseconds per message, send to dispatch including the codec,
/// and the bytes per message the world accounted for it: every rank sends
/// its share of [`COMM_MESSAGES`] copies of `msg` to the next rank, then
/// one barrier delivers them.
fn comm_ns_per_msg<M: Wire + Sync>(ranks: usize, msg: &M) -> (f64, f64) {
    let per_rank = COMM_MESSAGES / ranks;
    let (wall, report) = timed(|| {
        World::new(ranks).run(|comm| {
            let seen = Rc::new(Cell::new(0usize));
            let counter = Rc::clone(&seen);
            comm.register::<M, _>(BENCH_TAG, move |_, m| {
                black_box(m);
                counter.set(counter.get() + 1);
            });
            let dest = (comm.rank() + 1) % comm.n_ranks();
            for _ in 0..per_rank {
                comm.async_send(dest, BENCH_TAG, msg);
            }
            comm.barrier();
            seen.get()
        })
    });
    assert!(
        report.results.iter().all(|&n| n == per_rank),
        "every message must be dispatched by the barrier"
    );
    let sent = (per_rank * ranks) as f64;
    (wall * 1e9 / sent, report.total.bytes as f64 / sent)
}

/// Transport cost as a line through the two measured message sizes of one
/// rank count: `ns = per_msg_ns + per_byte_ns * bytes`.
#[derive(Debug, Clone, Copy)]
pub struct TransportModel {
    pub per_msg_ns: f64,
    pub per_byte_ns: f64,
}

impl TransportModel {
    fn through(small: (f64, f64), row: (f64, f64)) -> TransportModel {
        let per_byte_ns = (row.0 - small.0) / (row.1 - small.1);
        TransportModel {
            per_msg_ns: small.0 - per_byte_ns * small.1,
            per_byte_ns,
        }
    }

    /// Wall seconds the model charges for `messages` carrying `bytes`.
    fn seconds(&self, messages: f64, bytes: f64) -> f64 {
        (messages * self.per_msg_ns + bytes * self.per_byte_ns) / 1e9
    }
}

/// Microseconds per empty barrier on one fresh world, as rank 0 sees it.
fn barrier_us(ranks: usize, barriers: usize) -> f64 {
    let report = World::new(ranks).run(|comm| {
        let t = Instant::now();
        for _ in 0..barriers {
            comm.barrier();
        }
        t.elapsed().as_secs_f64()
    });
    report.results[0] * 1e6 / barriers as f64
}

/// The isolated-layer measurements every traced run carries: the shapes do
/// not depend on the workload, so the same numbers explain both.
/// Returns the transport model at one rank, where every timed stage runs.
fn isolated(ctx: &mut Ctx) -> TransportModel {
    let open = ctx.rec.begin("layers.isolated", -1);
    let data_seed = ctx.seeds.data;

    let f32_set = presets::deep1b_like(4_096 + 64, data_seed);
    let u8_set = presets::bigann_like(4_096 + 64, data_seed);
    let f32_batch = ctx.rec.span("dataset.kernel", -1, 3, || {
        let f32_batch = kernel_ns_per_pair(&f32_set, true);
        let l = &mut ctx.ledger;
        l.set("dataset.kernel.f32_d96.batch_ns_per_pair", f32_batch);
        l.set(
            "dataset.kernel.f32_d96.scalar_ns_per_pair",
            kernel_ns_per_pair(&f32_set, false),
        );
        l.set(
            "dataset.kernel.u8_d128.batch_ns_per_pair",
            kernel_ns_per_pair(&u8_set, true),
        );
        f32_batch
    });
    let model = CostModel::default().dist_elem_ns;
    ctx.ledger.set("ygm.cost.dist_elem_ns_model", model);
    ctx.ledger.set(
        "ygm.cost.dist_elem_ns_measured",
        f32_batch / f32_set.dim() as f64,
    );

    let ns = ctx.rec.span("nnd.heap", -1, 1, heap_insert_ns);
    ctx.ledger.set("nnd.heap.insert_ns", ns);

    let f32_row = type2_row(&f32_set);
    let u8_row = type2_row(&u8_set);
    ctx.rec.span("ygm.codec", -1, 2, || {
        let l = &mut ctx.ledger;
        let (enc, dec, bytes) = codec_ns(&f32_row);
        l.set("ygm.codec.type2_f32.encode_ns", enc);
        l.set("ygm.codec.type2_f32.decode_ns", dec);
        l.set("ygm.codec.type2_f32.bytes_per_msg", bytes as f64);
        let (enc, dec, _) = codec_ns(&u8_row);
        l.set("ygm.codec.type2_u8.encode_ns", enc);
        l.set("ygm.codec.type2_u8.decode_ns", dec);
    });
    let transport = ctx.rec.span("ygm.comm", -1, 4 * COMM_MESSAGES as u64, || {
        let l = &mut ctx.ledger;
        let (small1, small2) = (comm_ns_per_msg(1, &7u64), comm_ns_per_msg(2, &7u64));
        let (row1, row2) = (comm_ns_per_msg(1, &f32_row), comm_ns_per_msg(2, &f32_row));
        l.set("ygm.comm.r1.ns_per_msg", small1.0);
        l.set("ygm.comm.r2.ns_per_msg", small2.0);
        l.set("ygm.comm.r1.row_ns_per_msg", row1.0);
        l.set("ygm.comm.r2.row_ns_per_msg", row2.0);
        TransportModel::through(small1, row1)
    });
    ctx.rec.span("ygm.barrier", -1, 7, || {
        let l = &mut ctx.ledger;
        l.set("ygm.barrier.r1_us", barrier_us(1, 20_000));
        // Two ranks: bimodal by thread placement, so min and max over
        // fresh worlds, never compared.
        let r2: Vec<f64> = (0..6).map(|_| barrier_us(2, 1_000)).collect();
        let (lo, hi) = min_max(&r2);
        l.set("ygm.barrier.r2_us_min", lo);
        l.set("ygm.barrier.r2_us_max", hi);
        let spawns: Vec<f64> = (0..20)
            .map(|_| timed(|| World::new(2).run(|_| ())).0 * 1e6)
            .collect();
        l.set("ygm.world.spawn_us.r2", median(&spawns));
    });
    ctx.rec.end(open, 0);
    transport
}

// ------------------------------------------------------------------- core

/// Counts of the last timed build, and where its wall time went: each
/// share is computed (count x isolated unit cost / wall), not measured,
/// and the residual is what the engine's own bookkeeping is left with.
fn construct_ledger<P: Point>(
    ctx: &mut Ctx,
    transport_model: TransportModel,
    sizes: &construct::Sizes,
    set: &Arc<PointSet<P>>,
    report: &BuildReport,
) where
    L2: BatchMetric<P>,
{
    let cfg = sizes.config(ctx.seeds.build);
    let wall_s = ctx.ledger.metrics["construct_wall_s"];
    let n = set.len() as f64;
    let l = &mut ctx.ledger;
    let messages = report.total.count as f64;
    let phases = report.phases.len() as f64;
    let evals = report.distance_evals as f64;
    l.set("core.build.iterations", report.iterations as f64);
    l.set("core.build.dist_evals", evals);
    l.set("core.build.evals_per_point", evals / n);
    l.set("core.build.messages", messages);
    l.set("core.build.bytes", report.total.bytes as f64);
    l.set("core.build.phases", phases);
    l.set("core.build.sim_s", report.sim_secs);
    l.set("core.build.wall_over_sim", ratio(wall_s, report.sim_secs));
    l.set("core.build.ns_per_msg", ratio(wall_s * 1e9, messages));

    let kernel_ns = l.metrics[sizes.kernel_metric];
    let barrier_us = l.metrics["ygm.barrier.r1_us"];
    let kernel = evals * kernel_ns / (wall_s * 1e9);
    let transport = transport_model.seconds(messages, report.total.bytes as f64) / wall_s;
    let barrier = phases * barrier_us / (wall_s * 1e6);
    l.set("core.build.kernel_share", kernel);
    l.set("core.build.transport_share", transport);
    l.set("core.build.barrier_share", barrier);
    l.set(
        "core.build.engine_residual_share",
        1.0 - kernel - transport - barrier,
    );

    let json_ms = ctx.rec.span("obs.report.to_json", -1, 1, || {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let (s, json) = timed(|| {
                    dnnd::obs_report::report_from_build("dnnd-bench", report).to_json_string()
                });
                l.set("obs.report.json_kb", json.len() as f64 / 1e3);
                s * 1e3
            })
            .collect();
        median(&times)
    });
    l.set("obs.report.to_json_ms", json_ms);

    // What a second rank thread buys: the same build on two ranks. The host
    // moves the two vCPUs around, and with them the cost of every
    // cross-thread hand-off, so min and max over fresh worlds, never compared.
    let r2: Vec<f64> = ctx.rec.span("core.build.r2", -1, 3 * set.len() as u64, || {
        (0..3)
            .map(|_| timed(|| dnnd::build(&World::new(2), set, &L2, cfg)).0)
            .collect()
    });
    let (lo, hi) = min_max(&r2);
    ctx.ledger.set("core.build.r2_wall_s_min", lo);
    ctx.ledger.set("core.build.r2_wall_s_max", hi);
    ctx.ledger.set("core.build.r2_over_r1", lo / wall_s);

    // What the program's own tracer costs: the stage's build with it attached.
    let tracer = Arc::new(obs::Tracer::new(1));
    let world = World::new(1).tracer(Arc::clone(&tracer));
    let traced = ctx.rec.span("obs.tracer", -1, set.len() as u64, || {
        timed(|| dnnd::build(&world, set, &L2, cfg)).0
    });
    let l = &mut ctx.ledger;
    l.set("obs.tracer.overhead_frac", traced / wall_s - 1.0);
    l.set("obs.tracer.events", tracer.total_events() as f64);
    l.set("obs.tracer.dropped_events", tracer.dropped_events() as f64);
}

// ----------------------------------------------------------------- metall

/// Save and reload the construct stage's points and graph through one store.
fn metall_ledger<P: BenchPoint>(ctx: &mut Ctx, set: &PointSet<P>, graph: &KnnGraph) {
    let dir = ctx.scratch().join("ledger-store");
    let _ = std::fs::remove_dir_all(&dir);
    let user_bytes = (set.storage_bytes() + graph.storage_bytes()) as f64;
    let save_s = ctx.rec.span("metall.save", -1, user_bytes as u64, || {
        timed(|| {
            let mut store = metall::Store::create(&dir).expect("scratch store");
            P::save_set(set, &mut store, "points").expect("save points");
            graph.save(&mut store, "graph").expect("save graph");
        })
        .0
    });
    let (load_s, stored) = ctx.rec.span("metall.open_load", -1, user_bytes as u64, || {
        timed(|| {
            let store = metall::Store::open(&dir).expect("reopen store");
            let points = P::load_set(&store, "points").expect("load points");
            let g = KnnGraph::load(&store, "graph").expect("load graph");
            assert_eq!((points.len(), g.len()), (set.len(), graph.len()));
            store.total_bytes()
        })
    });
    let l = &mut ctx.ledger;
    l.set("metall.save_mb_per_s", user_bytes / 1e6 / save_s);
    l.set("metall.open_load_mb_per_s", user_bytes / 1e6 / load_s);
    l.set(
        "metall.stored_bytes_per_user_byte",
        stored as f64 / user_bytes,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 1 000 puts then 1 000 gets of 64-byte objects in one store: the per-put
/// fsync and MANIFEST-rewrite cost, on the same directory as the replayed
/// store.
fn metall_small_objects(ctx: &mut Ctx) {
    const OBJECTS: usize = 1_000;
    let dir = ctx.scratch().join("small-objects");
    let _ = std::fs::remove_dir_all(&dir);
    let payload = [0xA5u8; 64];
    let (put_s, get_s) = ctx
        .rec
        .span("metall.small_objects", -1, 2 * OBJECTS as u64, || {
            let mut store = metall::Store::create(&dir).expect("scratch store");
            let (put_s, ()) = timed(|| {
                for i in 0..OBJECTS {
                    store.put_bytes(&format!("obj/{i}"), &payload).expect("put");
                }
            });
            let (get_s, ()) = timed(|| {
                for i in 0..OBJECTS {
                    black_box(store.get_bytes(&format!("obj/{i}")).expect("get"));
                }
            });
            (put_s, get_s)
        });
    ctx.ledger.set(
        "metall.put_us_per_object.n1000",
        put_s * 1e6 / OBJECTS as f64,
    );
    ctx.ledger.set(
        "metall.get_us_per_object.n1000",
        get_s * 1e6 / OBJECTS as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ nnd search

/// Search-layer numbers of the query stage, the single-query latency
/// distribution, and the HNSW baseline on the same input.
fn query_ledger<P: Point>(ctx: &mut Ctx, s: &GraphSetup<P>, evals: u64)
where
    L2: BatchMetric<P>,
{
    let params: SearchParams = search_params(ctx.seeds.query, ENTRY_CANDIDATES);
    let wall_s = ctx.ledger.metrics["query_wall_s"];
    let n_q = s.queries.len();
    let evals_per_query = evals as f64 / n_q as f64;
    let l = &mut ctx.ledger;
    l.set("nnd.search.evals_per_query", evals_per_query);
    l.set("nnd.search.ns_per_eval", ratio(wall_s * 1e9, evals as f64));
    l.set(
        "nnd.search.seed_evals_frac",
        ratio(ENTRY_CANDIDATES.max(K) as f64, evals_per_query),
    );
    l.set("nnd.build.dist_evals", s.build_dist_evals as f64);

    // One query at a time, three passes: 3 x queries latency samples.
    let mut lat_us = Vec::with_capacity(3 * n_q);
    ctx.rec.span("nnd.search.single", -1, 3 * n_q as u64, || {
        for _ in 0..3 {
            for q in s.queries.points() {
                let (t, r) = timed(|| nnd::search(&s.graph, &s.base, &L2, q, params));
                black_box(r);
                lat_us.push(t * 1e6);
            }
        }
    });
    lat_us.sort_by(f64::total_cmp);
    ctx.ledger.set(
        "nnd.search.latency_us_p50",
        percentile_sorted(&lat_us, 0.50),
    );
    ctx.ledger.set(
        "nnd.search.latency_us_p99",
        percentile_sorted(&lat_us, 0.99),
    );

    // HNSW (M=16, efc=100) at the smallest beam that reaches recall 0.95:
    // no workload serves it; it keeps the paper's baseline in view.
    let (build_s, index) = ctx.rec.span("hnsw.build", -1, s.base.len() as u64, || {
        timed(|| HnswIndex::build(&s.base, L2, HnswParams::new(16, 100).seed(ctx.seeds.build)))
    });
    ctx.ledger.set("hnsw.build_s", build_s);
    ctx.rec.span("hnsw.search", -1, n_q as u64, || {
        for ef in [10, 20, 40, 80, 160, 320] {
            let (t, (ids, _)) = timed(|| index.search_batch(&s.queries, K, ef));
            let recall = mean_recall(&ids, &s.truth.ids);
            let l = &mut ctx.ledger;
            l.set("hnsw.search.us_per_query", t * 1e6 / n_q as f64);
            l.set("hnsw.search.recall_at_10", recall);
            l.set("hnsw.search.ef", ef as f64);
            if recall >= 0.95 {
                break;
            }
        }
    });
}

// ------------------------------------------------------------------ serve

/// Slot-loop counts of the serve-open stage's first timed rep (all reps are
/// identical, checked) and the world report of the last.
fn serve_ledger(ctx: &mut Ctx, stats: &ServingStats, report: &WorldReport<()>) {
    let l = &mut ctx.ledger;
    let wall_s = l.metrics["serve_open_wall_s"];
    let phases = report.phases.len() as f64;
    let barrier_us = l.metrics["ygm.barrier.r1_us"];
    l.set("serve.slots", stats.slots as f64);
    l.set("serve.phases", phases);
    l.set("serve.messages", report.total.count as f64);
    l.set("serve.us_per_phase", ratio(wall_s * 1e6, phases));
    l.set("serve.phase_share", phases * barrier_us / (wall_s * 1e6));
    l.set(
        "serve.cache_hit_frac",
        ratio(stats.cache_hits as f64, stats.offered as f64),
    );
    l.set(
        "serve.searched_per_slot",
        ratio(stats.answered as f64, stats.slots as f64),
    );
    l.set(
        "serve.us_per_searched_query",
        ratio(wall_s * 1e6, stats.answered as f64),
    );
    l.set("serve.sim_s", report.sim_secs);
    l.set(
        "serve.virt_latency_ms_p99",
        stats.percentile_ns(0.99) as f64 / 1e6,
    );
    l.set(
        "serve.shed_frac",
        ratio(serve_open::shed(stats) as f64, stats.offered as f64),
    );
}

/// The distributed query path against the shared-memory one on the same
/// queries, and the two-rank figures nothing is gated on.
fn serve_open_refs<P: BenchPoint>(ctx: &mut Ctx, s: &GraphSetup<P>, sizes: &serve_open::Sizes)
where
    L2: BatchMetric<P>,
{
    let seeds = ctx.seeds;
    let n_q = s.queries.len();
    let params = dist_search(seeds.query);
    let ((wall, report), shared_s) = ctx.rec.span("core.query.r1", -1, n_q as u64, || {
        let dist = timed(|| {
            dnnd::distributed_search_batch(
                &World::new(1),
                &s.base,
                &s.graph,
                &s.queries,
                &L2,
                params,
            )
            .1
        });
        let shared = search_params(seeds.query, ENTRY_CANDIDATES);
        let shared_s = timed(|| nnd::search_batch(&s.graph, &s.base, &L2, &s.queries, shared)).0;
        (dist, shared_s)
    });
    let l = &mut ctx.ledger;
    l.set("core.query.r1.us_per_query", wall * 1e6 / n_q as f64);
    l.set(
        "core.query.r1.msgs_per_query",
        report.total.count as f64 / n_q as f64,
    );
    l.set(
        "core.query.r1.phases_per_query",
        report.phases.len() as f64 / n_q as f64,
    );
    l.set("core.query.over_shared", wall / shared_s);

    // Two ranks cross a barrier per search round; its cost is bimodal by
    // thread placement, so these are min/max over fresh worlds.
    let few = n_q.min(100);
    let subset = Arc::new(PointSet::new(s.queries.points()[..few].to_vec()));
    let r2: Vec<f64> = ctx.rec.span("core.query.r2", -1, 3 * few as u64, || {
        (0..3)
            .map(|_| {
                let world = World::new(2);
                timed(|| {
                    dnnd::distributed_search_batch(&world, &s.base, &s.graph, &subset, &L2, params)
                })
                .0 * 1e6
                    / few as f64
            })
            .collect()
    });
    let (lo, hi) = min_max(&r2);
    ctx.ledger.set("core.query.r2.us_per_query_min", lo);
    ctx.ledger.set("core.query.r2.us_per_query_max", hi);

    let p = serve_params(sizes, sizes.arrivals.min(150), seeds.serve, seeds.query);
    let r2: Vec<f64> = ctx.rec.span("serve.r2", -1, 2 * p.n_arrivals as u64, || {
        (0..2)
            .map(|_| {
                let world = World::new(2);
                timed(|| serve::run_serve(&world, &s.base, &s.graph, &s.queries, &L2, &p)).0
            })
            .collect()
    });
    let (lo, hi) = min_max(&r2);
    ctx.ledger.set("serve.r2.wall_s_min", lo);
    ctx.ledger.set("serve.r2.wall_s_max", hi);
}

// -------------------------------------------------------------------- vdb

/// Product-layer counts of the serve-mutate stage's first timed rep, the
/// same session replayed through a store (checked equal), and the store
/// round trip (`Store::open` + `Collection::open` + `save`, no serving) that
/// a store-backed session pays on top of the in-memory one.
fn vdb_ledger(
    ctx: &mut Ctx,
    sizes: &serve_mutate::Sizes,
    input: &serve_mutate::Input,
    reps: &serve_mutate::Reps,
) {
    let stats = reps.first.as_ref().expect("at least one rep");
    let v = reps.vdb_stats();
    let l = &mut ctx.ledger;
    let wall_s = l.metrics["serve_mutate_wall_s"];
    l.set("vdb.inserts", v.inserts as f64);
    l.set("vdb.deletes", v.deletes as f64);
    l.set("vdb.compactions", v.compactions as f64);
    l.set(
        "vdb.filtered_frac",
        ratio(v.filtered as f64, stats.offered as f64),
    );
    l.set(
        "serve.virt_client_latency_ms_p99",
        stats.client_percentile_ns(0.99) as f64 / 1e6,
    );

    let pred = Predicate::parse("bucket in [0 .. 29]").expect("valid predicate");
    let compile_us = ctx.rec.span("vdb.mask.compile", -1, 50, || {
        let times: Vec<f64> = (0..50)
            .map(|_| {
                let (t, mask) = timed(|| input.collection.compile_mask(Some(&pred)));
                black_box(mask);
                t * 1e6
            })
            .collect();
        median(&times)
    });
    ctx.ledger.set("vdb.mask.compile_us", compile_us);

    let dir = ctx.scratch().join("served");
    let replay = reps.store_replay(ctx, sizes, input, &dir);
    if let Some(store_run_s) = ctx.ledger.check(replay) {
        ctx.ledger.set("vdb.store_run_s", store_run_s);
    }
    // The replay left the mutated collection in the store: round-trip that.
    let (roundtrip_s, objects) = ctx.rec.span("vdb.store_roundtrip", -1, 1, || {
        timed(|| {
            let mut store = metall::Store::open(&dir).expect("open store");
            let c = Collection::open(&store, serve_mutate::NAMESPACE).expect("open namespace");
            c.save(&mut store).expect("save namespace");
            store.len()
        })
    });
    let l = &mut ctx.ledger;
    l.set("vdb.store_roundtrip_ms", roundtrip_s * 1e3);
    l.set("vdb.store_share", roundtrip_s / (roundtrip_s + wall_s));
    l.set("vdb.objects", objects as f64);
    let _ = std::fs::remove_dir_all(&dir);

    metall_small_objects(ctx);
}

// --------------------------------------------------------------- pipeline

/// The whole per-layer ledger of a traced run, after the timed rounds.
pub fn pipeline_ledger<P: BenchPoint>(
    ctx: &mut Ctx,
    sizes: &Sizes,
    inputs: &Inputs<P>,
    construct: &construct::Reps,
    query: &query::Reps,
    serve_open: &serve_open::Reps,
    serve_mutate: &serve_mutate::Reps,
) where
    L2: BatchMetric<P>,
{
    let transport = isolated(ctx);
    let report = construct.last_report.as_ref().expect("at least one rep");
    let set = &inputs.construct.set;
    construct_ledger(ctx, transport, &sizes.construct, set, report);
    let graph = construct.last_graph.as_ref().expect("at least one rep");
    metall_ledger(ctx, set, graph);
    query_ledger(ctx, &inputs.graph, query.evals);
    let first = serve_open.first.as_ref().expect("at least one rep");
    let report = serve_open.last_report.as_ref().expect("at least one rep");
    serve_ledger(ctx, &first.stats, report);
    serve_open_refs(ctx, &inputs.graph, &sizes.serve_open);
    vdb_ledger(ctx, &sizes.serve_mutate, &inputs.collection, serve_mutate);
}
