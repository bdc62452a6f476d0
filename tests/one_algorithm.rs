//! One Algorithm 1: `nnd::build` (shared memory) and `dnnd::build` (the
//! distributed engine) call the same per-vertex rules, so under the
//! one-sided protocol they build the same graph — ids and distance bits —
//! with the same evaluation count, update counts and iteration count, at
//! every rank count and under every fault profile. The unoptimized
//! protocol builds that graph too, evaluating every checked pair twice;
//! the redundant-check skips build a graph of their own with fewer
//! evaluations.

use dataset::batch::BatchMetric;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use dataset::L2;
use dnnd::{CommOpts, DnndConfig, DnndOutput};
use nnd::{BuildStats, KnnGraph, NnDescentParams};
use std::sync::Arc;
use ygm::{FaultPlan, FaultProfile, World};

/// Equal ids and equal distance bits, row by row.
fn same_bits(a: &KnnGraph, b: &KnnGraph) -> bool {
    let bits = |g: &KnnGraph| -> Vec<Vec<(PointId, u32)>> {
        let rows = (0..g.len() as PointId).map(|v| g.neighbors(v));
        rows.map(|r| r.iter().map(|&(u, d)| (u, d.to_bits())).collect())
            .collect()
    };
    bits(a) == bits(b)
}

/// `dnnd::build` on `ranks` ranks under `plan`, with `params` as its
/// descent parameters.
fn distributed<P: Point, M: BatchMetric<P>>(
    set: &Arc<PointSet<P>>,
    metric: &M,
    params: NnDescentParams,
    opts: CommOpts,
    ranks: usize,
    plan: Option<FaultPlan>,
) -> DnndOutput {
    let cfg = DnndConfig {
        descent: params,
        ..DnndConfig::new(params.k)
    };
    let world = match plan {
        Some(plan) => World::new(ranks).fault_plan(plan),
        None => World::new(ranks),
    };
    dnnd::build(&world, set, metric, cfg.comm_opts(opts))
}

/// The one-sided and unoptimized builds against `nnd::build` at each of
/// `ranks` under each of `plans`; returns the shared-memory build.
fn check_equal<P: Point, M: BatchMetric<P>>(
    what: &str,
    set: &Arc<PointSet<P>>,
    metric: &M,
    params: NnDescentParams,
    ranks: &[usize],
    plans: &[Option<FaultPlan>],
) -> (KnnGraph, BuildStats) {
    let (shared, stats) = nnd::build(set, metric, params);
    let init = (set.len() * params.k) as u64;
    for &r in ranks {
        for &plan in plans {
            let at = format!(
                "{what}, {r} ranks, faults {:?}",
                plan.map(|p| p.profile.name())
            );
            let one = distributed(set, metric, params, CommOpts::OneSided, r, plan);
            if let (Some(faults), true) = (&one.report.faults, r > 1) {
                assert!(faults.injected() > 0, "{at}: nothing injected");
            }
            assert!(same_bits(&one.graph, &shared), "{at}: one-sided graph");
            assert_eq!(one.report.distance_evals, stats.distance_evals, "{at}");
            assert_eq!(one.report.updates_per_iter, stats.updates_per_iter, "{at}");
            assert_eq!(one.report.iterations, stats.iterations, "{at}");

            // Both endpoints evaluate every pair; the initial rows once.
            let unopt = distributed(set, metric, params, CommOpts::Unoptimized, r, plan);
            assert!(same_bits(&unopt.graph, &shared), "{at}: unoptimized graph");
            let evals = 2 * (stats.distance_evals - init) + init;
            assert_eq!(unopt.report.distance_evals, evals, "{at}: unoptimized");
            assert_eq!(
                unopt.report.updates_per_iter, stats.updates_per_iter,
                "{at}"
            );
            assert_eq!(unopt.report.iterations, stats.iterations, "{at}");
        }
    }
    (shared, stats)
}

/// The §4.3.2 skips drop pairs the rows held as the iteration opened:
/// fewer evaluations than `nnd::build`, and a graph of their own — one
/// graph at every rank count, which pruning (§4.3.3) does not change.
fn check_skips<P: Point, M: BatchMetric<P>>(
    what: &str,
    set: &Arc<PointSet<P>>,
    metric: &M,
    params: NnDescentParams,
    (shared, stats): &(KnnGraph, BuildStats),
) {
    let skip = distributed(set, metric, params, CommOpts::SkipRedundant, 1, None);
    assert!(skip.report.distance_evals < stats.distance_evals, "{what}");
    assert!(
        !same_bits(&skip.graph, shared),
        "{what}: nnd::build's graph"
    );
    for ranks in [1, 2, 4] {
        for opts in [CommOpts::SkipRedundant, CommOpts::Optimized] {
            let at = format!("{what}, {opts:?}, {ranks} ranks");
            let out = distributed(set, metric, params, opts, ranks, None);
            assert!(same_bits(&out.graph, &skip.graph), "{at}");
            assert_eq!(
                out.report.distance_evals, skip.report.distance_evals,
                "{at}"
            );
        }
    }
}

#[test]
fn one_sided_dnnd_is_nnd_build_on_both_presets() {
    let plans = [
        None,
        Some(FaultPlan::new(FaultProfile::lossy(), 9)),
        Some(FaultPlan::new(FaultProfile::stormy(), 5)),
    ];
    let ranks = [1, 2, 4, 16];
    let deep = Arc::new(dataset::presets::deep1b_like(400, 7));
    let params = NnDescentParams::new(8).seed(3);
    let run = check_equal("deep1b_like", &deep, &L2, params, &ranks, &plans);
    check_skips("deep1b_like", &deep, &L2, params, &run);

    let bigann = Arc::new(dataset::presets::bigann_like(400, 7));
    let params = NnDescentParams::new(10).seed(7);
    let run = check_equal("bigann_like", &bigann, &L2, params, &ranks, &plans);
    check_skips("bigann_like", &bigann, &L2, params, &run);
}

/// Inputs at the edges of the domain, each built both ways at ranks 1, 2
/// and 4: the smallest `n` for `k`, all points equal (every distance a tie
/// decided by id), one dimension with duplicates, one dimension distinct.
#[test]
fn degenerate_inputs_build_one_graph_both_ways() {
    let k = 6;
    let params = NnDescentParams::new(k).seed(11);
    let ranks = [1, 2, 4];
    let smallest = Arc::new(dataset::presets::deep1b_like(k + 1, 3));
    check_equal("n = k + 1", &smallest, &L2, params, &ranks, &[None]);
    let equal = Arc::new(PointSet::new(vec![vec![0.25f32; 8]; 50]));
    let (graph, _) = check_equal("50 equal points", &equal, &L2, params, &ranks, &[None]);
    for v in 0..50 {
        assert!(graph.neighbors(v).iter().all(|&(u, d)| u != v && d == 0.0));
    }
    let line = |value: fn(usize) -> f32| {
        Arc::new(PointSet::new((0..300).map(|i| vec![value(i)]).collect()))
    };
    check_equal(
        "dim 1, i % 17",
        &line(|i| (i % 17) as f32),
        &L2,
        params,
        &ranks,
        &[None],
    );
    check_equal(
        "dim 1, distinct",
        &line(|i| i as f32 * 0.5),
        &L2,
        params,
        &ranks,
        &[None],
    );
}
