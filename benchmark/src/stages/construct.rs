//! The construct stage: the timed call is `dnnd::build` on a fresh one-rank
//! `World` per rep -- the paper's headline, construction time. One rank,
//! because two rank threads on this host's two vCPUs run 0.22 s or 0.30 s
//! per build for minutes at a time, whichever way the host has placed the
//! vCPUs: a traced run reports the two-rank build per layer instead.

use super::{mean_recall, recall_floor, K};
use crate::harness::{all_equal, graph_digest, timed, Ledger, Seeds};
use crate::spans::Recorder;
use crate::stats;
use dataset::ground_truth::brute_force_queries;
use dataset::set::PointId;
use dataset::{BatchMetric, Point, PointSet, L2};
use dnnd::{BuildReport, CommOpts, DnndConfig};
use nnd::KnnGraph;
use std::sync::Arc;
use ygm::World;

/// Graph rows are scored against brute force on this many evenly spaced
/// vertices.
const SAMPLE: usize = 1_000;
const RECALL_FLOOR: f64 = 0.90;

#[derive(Clone, Copy)]
pub struct Sizes {
    /// The build runs over the first `n` base points.
    pub n: usize,
    /// `Some(cap)`: unoptimized protocol (Type 1/2 only) with the iteration
    /// count pinned, the bit-deterministic path. `None`: optimized protocol.
    pub unoptimized_iters: Option<usize>,
    /// The isolated kernel measurement that prices this input's distance
    /// evaluations in the computed shares.
    pub kernel_metric: &'static str,
}

pub const F32_OPT: Sizes = Sizes {
    n: 2_000,
    unoptimized_iters: None,
    kernel_metric: "dataset.kernel.f32_d96.batch_ns_per_pair",
};
pub const U8_UNOPT: Sizes = Sizes {
    n: 1_500,
    unoptimized_iters: Some(6),
    kernel_metric: "dataset.kernel.u8_d128.batch_ns_per_pair",
};

impl Sizes {
    pub fn smoke(&self) -> Sizes {
        Sizes {
            n: self.n / 10,
            ..*self
        }
    }

    pub fn config(&self, seed: u64) -> DnndConfig {
        let cfg = DnndConfig::new(K).seed(seed);
        match self.unoptimized_iters {
            Some(cap) => cfg.comm_opts(CommOpts::unoptimized()).max_iters(cap),
            None => cfg,
        }
    }
}

pub struct Input<P> {
    pub set: Arc<PointSet<P>>,
    sample: Vec<PointId>,
    truth: Vec<Vec<PointId>>,
}

/// The first `n` points of `base` and the exact k-NN rows of a sample of
/// them.
pub fn input<P: Point>(rec: &mut Recorder, base: &PointSet<P>, n: usize) -> Input<P>
where
    L2: BatchMetric<P>,
{
    let set = PointSet::new(base.points()[..n].to_vec());
    let m = SAMPLE.min(n);
    let sample: Vec<PointId> = (0..m).map(|i| (i * n / m) as PointId).collect();
    let truth = rec.span("setup.truth", -1, m as u64, || {
        let queries = PointSet::new(sample.iter().map(|&v| set.point(v).clone()).collect());
        // k + 1 nearest, minus the vertex itself, is its exact k-NN row.
        let gt = brute_force_queries(&set, &queries, &L2, K + 1);
        gt.ids
            .into_iter()
            .zip(&sample)
            .map(|(row, &v)| row.into_iter().filter(|&u| u != v).take(K).collect())
            .collect()
    });
    Input {
        set: Arc::new(set),
        sample,
        truth,
    }
}

/// What the timed reps leave behind for the checks and the ledger.
#[derive(Default)]
pub struct Reps {
    recalls: Vec<f64>,
    /// `(graph digest, dist_evals, messages, bytes)` of every rep.
    pins: Vec<(u64, u64, u64, u64)>,
    pub last_report: Option<BuildReport>,
    pub last_graph: Option<KnnGraph>,
}

impl Reps {
    pub fn rep<P: Point>(
        &mut self,
        rec: &mut Recorder,
        sizes: &Sizes,
        seeds: Seeds,
        input: &Input<P>,
        rep: i64,
    ) -> f64
    where
        L2: BatchMetric<P>,
    {
        let cfg = sizes.config(seeds.build);
        let world = World::new(1);
        let open = rec.begin("core.build", rep);
        let (wall, out) = timed(|| dnnd::build(&world, &input.set, &L2, cfg));
        rec.end(open, sizes.n as u64);
        if rep >= 0 {
            let rows: Vec<Vec<PointId>> = input
                .sample
                .iter()
                .map(|&v| out.graph.neighbors(v).iter().map(|e| e.0).collect())
                .collect();
            self.recalls.push(mean_recall(&rows, &input.truth));
            self.pins.push((
                graph_digest(&out.graph),
                out.report.distance_evals,
                out.report.total.count,
                out.report.total.bytes,
            ));
            self.last_report = Some(out.report);
            self.last_graph = Some(out.graph);
        }
        wall
    }

    /// Recall floor of every rep, exact replay on the deterministic path,
    /// and the stage's quality and traffic metrics.
    pub fn finish(&self, ledger: &mut Ledger, sizes: &Sizes) {
        let items = sizes.n as u64;
        for &recall in &self.recalls {
            ledger.attempted += items;
            if ledger
                .check(recall_floor("graph rows", recall, RECALL_FLOOR))
                .is_none()
            {
                ledger.failed += items;
            }
        }
        ledger.set("construct_recall_at_10", stats::median(&self.recalls));
        let mb: Vec<f64> = self.pins.iter().map(|p| p.3 as f64 / 1e6).collect();
        ledger.set("construct_traffic_mb", stats::median(&mb));
        // On one rank both protocols replay bit for bit.
        ledger.check(all_equal(
            "(graph digest, dist_evals, messages, bytes)",
            &self.pins,
        ));
        let (_, evals, messages, _) = self.pins[0];
        println!("construct: {evals} distance evaluations, {messages} messages in rep 0");
    }
}
