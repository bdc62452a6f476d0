//! The pipeline a workload runs -- construct, query, serve (reads), serve
//! (writes beside reads) -- one timed stage each, over inputs of the
//! workload's point type, and what the stages share: sizes, the set-up,
//! recall scoring.

pub mod construct;
pub mod query;
pub mod serve_mutate;
pub mod serve_open;

use crate::harness::{Ctx, Seeds, Stage};
use crate::layers;
use crate::spans::Recorder;
use dataset::ground_truth::{brute_force_queries, GroundTruth};
use dataset::set::PointId;
use dataset::synth::split_queries;
use dataset::{presets, recall_single, BatchMetric, Point, PointSet, L2};
use metall::{Result as StoreResult, Store};
use nnd::{KnnGraph, NnDescentParams};
use serve::QuantizeKey;
use std::sync::Arc;

/// Neighbors per vertex and per answer everywhere in the benchmark.
pub const K: usize = 10;

/// What the pipeline needs from a point type beyond the program's own
/// traits: the preset that generates it, the per-type store functions, and
/// the f32 form `vdb::Collection` holds.
pub trait BenchPoint: Point + QuantizeKey {
    fn preset(n: usize, seed: u64) -> PointSet<Self>;
    fn widen(&self) -> Vec<f32>;
    fn save_set(set: &PointSet<Self>, store: &mut Store, prefix: &str) -> StoreResult<()>;
    fn load_set(store: &Store, prefix: &str) -> StoreResult<PointSet<Self>>;
}

impl BenchPoint for Vec<f32> {
    fn preset(n: usize, seed: u64) -> PointSet<Self> {
        presets::deep1b_like(n, seed)
    }
    fn widen(&self) -> Vec<f32> {
        self.clone()
    }
    fn save_set(set: &PointSet<Self>, store: &mut Store, prefix: &str) -> StoreResult<()> {
        set.save(store, prefix)
    }
    fn load_set(store: &Store, prefix: &str) -> StoreResult<PointSet<Self>> {
        PointSet::<Self>::load(store, prefix)
    }
}

impl BenchPoint for Vec<u8> {
    fn preset(n: usize, seed: u64) -> PointSet<Self> {
        presets::bigann_like(n, seed)
    }
    fn widen(&self) -> Vec<f32> {
        self.iter().map(|&b| f32::from(b)).collect()
    }
    fn save_set(set: &PointSet<Self>, store: &mut Store, prefix: &str) -> StoreResult<()> {
        set.save(store, prefix)
    }
    fn load_set(store: &Store, prefix: &str) -> StoreResult<PointSet<Self>> {
        PointSet::<Self>::load(store, prefix)
    }
}

/// Input sizes of one workload. Fixed here; nothing is derived from the
/// machine at run time.
pub struct Sizes {
    /// Base points of the searched graph.
    pub n: usize,
    /// Held-out points: the query stage's queries and the serving pool.
    pub queries: usize,
    pub construct: construct::Sizes,
    pub serve_open: serve_open::Sizes,
    pub serve_mutate: serve_mutate::Sizes,
}

/// `deep-f32-opt`: DEEP-like f32 d=96; construction with the optimized
/// protocol (Type 1/2+/3).
pub const DEEP_F32_OPT: Sizes = Sizes {
    n: 4_000,
    queries: 1_000,
    construct: construct::F32_OPT,
    serve_open: serve_open::FULL,
    serve_mutate: serve_mutate::FULL,
};
/// `bigann-u8-unopt`: BIGANN-like u8 d=128; construction with the
/// unoptimized protocol (Type 1/2) pinned to 6 iterations, the bit-exact path.
pub const BIGANN_U8_UNOPT: Sizes = Sizes {
    construct: construct::U8_UNOPT,
    ..DEEP_F32_OPT
};

impl Sizes {
    /// About a tenth of the size: same code paths and checks.
    pub fn smoke(&self) -> Sizes {
        Sizes {
            n: self.n / 10,
            queries: self.queries / 10,
            construct: self.construct.smoke(),
            serve_open: serve_open::SMOKE,
            serve_mutate: serve_mutate::SMOKE,
        }
    }
}

/// Mean share of each truth row's ids found in the matching answer row.
pub fn mean_recall(answers: &[Vec<PointId>], truth: &[Vec<PointId>]) -> f64 {
    assert_eq!(answers.len(), truth.len());
    let total: f64 = answers
        .iter()
        .zip(truth)
        .map(|(a, t)| recall_single(a, t))
        .sum();
    total / truth.len() as f64
}

/// `Err` when `recall` is under `floor`.
pub fn recall_floor(what: &str, recall: f64, floor: f64) -> Result<f64, String> {
    if recall >= floor {
        Ok(recall)
    } else {
        Err(format!(
            "{what}: recall@{K} {recall:.4} is under the floor {floor}"
        ))
    }
}

/// Base points, held-out queries with brute-force truth, and the
/// shared-memory NN-Descent graph optimized as the paper's query program
/// expects (`optimize(k, 1.5)`): what the query and serve-open stages search.
pub struct GraphSetup<P> {
    pub base: Arc<PointSet<P>>,
    pub queries: Arc<PointSet<P>>,
    pub graph: Arc<KnnGraph>,
    pub truth: GroundTruth,
    pub build_dist_evals: u64,
}

/// [`GraphSetup`] over an already split set.
pub fn graph_setup_of<P: Point>(
    rec: &mut Recorder,
    seeds: Seeds,
    base: PointSet<P>,
    queries: PointSet<P>,
) -> GraphSetup<P>
where
    L2: BatchMetric<P>,
{
    let n = base.len();
    let (raw, stats) = rec.span("nnd.build", -1, n as u64, || {
        nnd::build(&base, &L2, NnDescentParams::new(K).seed(seeds.build))
    });
    let graph = rec.span("nnd.optimize", -1, n as u64, || raw.optimize(K, 1.5));
    let truth = rec.span("setup.truth", -1, queries.len() as u64, || {
        brute_force_queries(&base, &queries, &L2, K)
    });
    GraphSetup {
        base: Arc::new(base),
        queries: Arc::new(queries),
        graph: Arc::new(graph),
        truth,
        build_dist_evals: stats.distance_evals,
    }
}

/// Everything one set-up produces: a pure function of the seed and the sizes.
pub struct Inputs<P> {
    pub construct: construct::Input<P>,
    pub graph: GraphSetup<P>,
    pub collection: serve_mutate::Input,
}

fn setup<P: BenchPoint>(rec: &mut Recorder, seeds: Seeds, sizes: &Sizes) -> Inputs<P>
where
    L2: BatchMetric<P>,
{
    let held_out = sizes.queries;
    let (base, queries) = rec.span("setup.gen", -1, (sizes.n + held_out) as u64, || {
        split_queries(P::preset(sizes.n + held_out, seeds.data), held_out)
    });
    Inputs {
        construct: construct::input(rec, &base, sizes.construct.n),
        collection: serve_mutate::input::<P>(rec, seeds, &sizes.serve_mutate),
        graph: graph_setup_of(rec, seeds, base, queries),
    }
}

/// Run the pipeline of one workload: measure the four stages round-robin,
/// run their checks, and in a traced run fill the per-layer ledger.
pub fn run<P: BenchPoint>(ctx: &mut Ctx, full: &Sizes)
where
    L2: BatchMetric<P>,
{
    let smoke;
    let sizes = if ctx.smoke {
        smoke = full.smoke();
        &smoke
    } else {
        full
    };
    let seeds = ctx.seeds;
    let mut construct = construct::Reps::default();
    let mut query = query::Reps::default();
    let mut serve_open = serve_open::Reps::default();
    let mut serve_mutate = serve_mutate::Reps::default();

    let inputs: Inputs<P> = ctx.measure(
        |rec| setup(rec, seeds, sizes),
        &mut [
            Stage {
                metric: "construct_wall_s",
                spread_metric: "run.construct_iqr_frac",
                rep: Box::new(|rec, s: &Inputs<P>, rep| {
                    construct.rep(rec, &sizes.construct, seeds, &s.construct, rep)
                }),
            },
            Stage {
                metric: "query_wall_s",
                spread_metric: "run.query_iqr_frac",
                rep: Box::new(|rec, s: &Inputs<P>, rep| query.rep(rec, seeds, &s.graph, rep)),
            },
            Stage {
                metric: "serve_open_wall_s",
                spread_metric: "run.serve_open_iqr_frac",
                rep: Box::new(|rec, s: &Inputs<P>, rep| {
                    serve_open.rep(rec, &sizes.serve_open, seeds, &s.graph, rep)
                }),
            },
            Stage {
                metric: "serve_mutate_wall_s",
                spread_metric: "run.serve_mutate_iqr_frac",
                rep: Box::new(|rec, s: &Inputs<P>, rep| {
                    serve_mutate.rep(rec, &sizes.serve_mutate, seeds, &s.collection, rep)
                }),
            },
        ],
    );

    construct.finish(&mut ctx.ledger, &sizes.construct);
    query.finish(&mut ctx.ledger, &inputs.graph);
    serve_open.finish(ctx, &sizes.serve_open, &inputs.graph);
    serve_mutate.finish(ctx, &sizes.serve_mutate, &inputs.collection);

    if ctx.trace {
        layers::pipeline_ledger(
            ctx,
            sizes,
            &inputs,
            &construct,
            &query,
            &serve_open,
            &serve_mutate,
        );
    }
}
