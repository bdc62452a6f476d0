//! Behavioral tests of the distributed engine: graph validity, quality
//! parity with brute force and with the shared-memory implementation, the
//! paper's rank-count-invariance claim (Section 5.3.3), and the Figure 4
//! communication-saving effects.

use dataset::batch::BatchMetric;
use dataset::ground_truth::brute_force_knng;
use dataset::metric::{Jaccard, L2};
use dataset::point::Point;
use dataset::recall::mean_recall;
use dataset::set::{PointId, PointSet};
use dataset::synth::{gaussian_mixture, MixtureParams};
use dnnd::msgs::{TAG_TYPE1, TAG_TYPE2, TAG_TYPE2_PLUS, TAG_TYPE3};
use dnnd::{build, CommOpts, DnndConfig};
use std::sync::Arc;
use ygm::World;

fn clustered(n: usize, dim: usize, seed: u64) -> Arc<PointSet<Vec<f32>>> {
    Arc::new(gaussian_mixture(
        MixtureParams::embedding_like(n, dim),
        seed,
    ))
}

#[test]
fn every_vertex_gets_k_valid_neighbors() {
    let set = clustered(250, 8, 1);
    let out = build(&World::new(3), &set, &L2, DnndConfig::new(6).seed(2));
    assert_eq!(out.graph.len(), 250);
    for v in 0..250u32 {
        let row = out.graph.neighbors(v);
        assert_eq!(row.len(), 6, "vertex {v}");
        let ids: Vec<PointId> = row.iter().map(|&(id, _)| id).collect();
        assert!(!ids.contains(&v), "self edge at {v}");
        let mut d = ids.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), ids.len(), "duplicate at {v}");
        assert!(row.windows(2).all(|w| w[0].1 <= w[1].1), "unsorted at {v}");
    }
}

#[test]
fn distances_match_metric() {
    let set = clustered(150, 4, 3);
    let out = build(&World::new(2), &set, &L2, DnndConfig::new(4));
    for v in 0..150u32 {
        for &(u, d) in out.graph.neighbors(v) {
            let expect = dataset::Metric::<Vec<f32>>::distance(&L2, set.point(v), set.point(u));
            assert!((d - expect).abs() < 1e-5);
        }
    }
}

#[test]
fn reaches_high_recall_vs_brute_force() {
    let set = clustered(500, 12, 5);
    let out = build(&World::new(4), &set, &L2, DnndConfig::new(10).seed(7));
    let truth = brute_force_knng(&set, &L2, 10);
    let recall = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(recall > 0.93, "distributed recall {recall}");
}

#[test]
fn quality_is_rank_count_invariant() {
    // Section 5.3.3: "DNND was able to produce the same quality graphs
    // regardless of the number of compute nodes used."
    let set = clustered(400, 10, 9);
    let truth = brute_force_knng(&set, &L2, 8);
    let mut recalls = Vec::new();
    for ranks in [1, 2, 4, 8] {
        let out = build(&World::new(ranks), &set, &L2, DnndConfig::new(8).seed(11));
        recalls.push(mean_recall(&out.graph.neighbor_ids(), &truth));
    }
    for (i, r) in recalls.iter().enumerate() {
        assert!(*r > 0.9, "ranks config {i} recall {r}");
    }
    let spread = recalls.iter().cloned().fold(f64::MIN, f64::max)
        - recalls.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.05,
        "recall spread {spread} across ranks: {recalls:?}"
    );
}

#[test]
fn optimized_protocol_halves_check_traffic_at_equal_quality() {
    // The Figure 4 claim: ~50% fewer messages and bytes in the neighbor
    // check phase, with no quality loss.
    let set = clustered(400, 16, 13);
    let truth = brute_force_knng(&set, &L2, 8);

    let unopt = build(
        &World::new(4),
        &set,
        &L2,
        DnndConfig::new(8)
            .seed(3)
            .comm_opts(CommOpts::unoptimized()),
    );
    let opt = build(
        &World::new(4),
        &set,
        &L2,
        DnndConfig::new(8).seed(3).comm_opts(CommOpts::optimized()),
    );

    let r_unopt = mean_recall(&unopt.graph.neighbor_ids(), &truth);
    let r_opt = mean_recall(&opt.graph.neighbor_ids(), &truth);
    assert!(r_unopt > 0.9 && r_opt > 0.9, "recalls {r_unopt} {r_opt}");
    assert!(
        (r_unopt - r_opt).abs() < 0.05,
        "protocols disagree on quality: {r_unopt} vs {r_opt}"
    );

    let t_unopt = unopt.report.check_traffic();
    let t_opt = opt.report.check_traffic();
    assert!(
        (t_opt.count as f64) < 0.7 * t_unopt.count as f64,
        "message count not reduced: {} -> {}",
        t_unopt.count,
        t_opt.count
    );
    assert!(
        (t_opt.bytes as f64) < 0.7 * t_unopt.bytes as f64,
        "byte volume not reduced: {} -> {}",
        t_unopt.bytes,
        t_opt.bytes
    );

    // Tag usage matches Figure 1: unoptimized never sends 2+/3, optimized
    // never sends plain Type 2.
    assert_eq!(unopt.report.tag(TAG_TYPE2_PLUS).count, 0);
    assert_eq!(unopt.report.tag(TAG_TYPE3).count, 0);
    assert!(unopt.report.tag(TAG_TYPE2).count > 0);
    assert_eq!(opt.report.tag(TAG_TYPE2).count, 0);
    assert!(opt.report.tag(TAG_TYPE2_PLUS).count > 0);
    assert!(opt.report.tag(TAG_TYPE3).count > 0);
    // One-sided: optimized sends half the Type 1 messages.
    assert!(opt.report.tag(TAG_TYPE1).count <= unopt.report.tag(TAG_TYPE1).count);
}

#[test]
fn type3_pruning_cuts_replies() {
    let set = clustered(300, 8, 17);
    let (no_prune, with_prune) = (CommOpts::SkipRedundant, CommOpts::Optimized);
    let a = build(
        &World::new(3),
        &set,
        &L2,
        DnndConfig::new(6).seed(5).comm_opts(no_prune),
    );
    let b = build(
        &World::new(3),
        &set,
        &L2,
        DnndConfig::new(6).seed(5).comm_opts(with_prune),
    );
    assert!(
        b.report.tag(TAG_TYPE3).count < a.report.tag(TAG_TYPE3).count,
        "pruning did not reduce Type 3: {} vs {}",
        a.report.tag(TAG_TYPE3).count,
        b.report.tag(TAG_TYPE3).count
    );
}

/// The §4.3 ladder, rung by rung, on both element types: each rung sends
/// no more check messages or bytes and evaluates no more distances than
/// the rung below it; each rung builds one graph with one evaluation count
/// at every rank count; the one-sided rung builds the unoptimized graph and
/// pruning builds the redundant-check rung's graph, bit for bit.
#[test]
fn comm_opts_ladder_never_costs_more_and_every_rung_builds_one_graph() {
    const RUNGS: [CommOpts; 4] = [
        CommOpts::Unoptimized,
        CommOpts::OneSided,
        CommOpts::SkipRedundant,
        CommOpts::Optimized,
    ];
    fn climb<P: Point, M: BatchMetric<P>>(name: &str, set: Arc<PointSet<P>>, metric: &M) {
        let mut reference = None;
        for ranks in [1usize, 4] {
            let runs: Vec<_> = (RUNGS.iter())
                .map(|&opts| {
                    let cfg = DnndConfig::new(8).seed(3).comm_opts(opts);
                    build(&World::new(ranks), &set, metric, cfg)
                })
                .collect();
            for (pair, rungs) in runs.windows(2).zip(RUNGS.windows(2)) {
                let (lo, hi) = (&pair[0].report, &pair[1].report);
                let (t_lo, t_hi) = (lo.check_traffic(), hi.check_traffic());
                let at = format!("{name}, {ranks} ranks, {:?} -> {:?}", rungs[0], rungs[1]);
                assert!(t_hi.count <= t_lo.count, "{at}: check messages rose");
                assert!(t_hi.bytes <= t_lo.bytes, "{at}: check bytes rose");
                assert!(
                    hi.distance_evals <= lo.distance_evals,
                    "{at}: evaluations rose"
                );
            }
            let got: Vec<_> = (runs.iter())
                .map(|r| (r.graph.clone(), r.report.distance_evals))
                .collect();
            let want = reference.get_or_insert_with(|| got.clone());
            for (rung, (got, want)) in RUNGS.iter().zip(got.iter().zip(want.iter())) {
                assert!(
                    got.0 == want.0,
                    "{name}: {rung:?} graph moved at {ranks} ranks"
                );
                assert_eq!(
                    got.1, want.1,
                    "{name}: {rung:?} evaluations moved at {ranks} ranks"
                );
            }
            assert!(
                runs[1].graph == runs[0].graph,
                "{name}: one-sided graph differs at {ranks} ranks"
            );
            assert!(
                runs[3].graph == runs[2].graph,
                "{name}: pruning changed the graph at {ranks} ranks"
            );
            assert_eq!(
                runs[3].report.distance_evals, runs[2].report.distance_evals,
                "{name}: pruning changed the evaluations at {ranks} ranks"
            );
        }
    }
    climb(
        "deep1b_like",
        Arc::new(dataset::presets::deep1b_like(400, 5)),
        &L2,
    );
    climb(
        "bigann_like",
        Arc::new(dataset::presets::bigann_like(400, 5)),
        &L2,
    );
}

#[test]
fn graph_opt_bounds_degree_and_adds_reverse_edges() {
    let set = clustered(300, 8, 19);
    let k = 6;
    let out = build(
        &World::new(3),
        &set,
        &L2,
        DnndConfig::new(k).seed(23).graph_opt(1.5),
    );
    let limit = (k as f64 * 1.5).ceil() as usize;
    assert!(out.graph.max_degree() <= limit);
    // Reverse-merge should give some vertices more than k neighbors.
    assert!(
        out.graph.edge_count() > 300 * k,
        "optimization added no edges"
    );
}

/// The in-build Section 4.5 pass is `KnnGraph::optimize` of the graph the
/// same build returns without it — row for row, distances included — at
/// every rank count and under both protocols.
#[test]
fn in_build_graph_opt_equals_knn_graph_optimize() {
    let set = clustered(300, 8, 19);
    let k = 6;
    for ranks in [1usize, 2, 4] {
        for opts in [CommOpts::optimized(), CommOpts::unoptimized()] {
            let cfg = DnndConfig::new(k).seed(23).comm_opts(opts);
            let raw = build(&World::new(ranks), &set, &L2, cfg).graph;
            let opt = build(&World::new(ranks), &set, &L2, cfg.graph_opt(1.5)).graph;
            assert!(
                opt == raw.optimize(k, 1.5),
                "{ranks} ranks, {opts:?}: the in-build pass differs from KnnGraph::optimize"
            );
        }
    }
}

#[test]
fn distributed_matches_shared_memory_quality() {
    let set = clustered(400, 12, 29);
    let truth = brute_force_knng(&set, &L2, 8);
    let (shared_graph, _) = nnd::build(&set, &L2, nnd::NnDescentParams::new(8).seed(4));
    let dist = build(&World::new(4), &set, &L2, DnndConfig::new(8).seed(4));
    let r_shared = mean_recall(&shared_graph.neighbor_ids(), &truth);
    let r_dist = mean_recall(&dist.graph.neighbor_ids(), &truth);
    assert!(
        (r_shared - r_dist).abs() < 0.05,
        "shared {r_shared} vs distributed {r_dist}"
    );
}

#[test]
fn works_with_jaccard_sparse_data() {
    let set = Arc::new(dataset::presets::kosarak_like(200, 31));
    let out = build(&World::new(3), &set, &Jaccard, DnndConfig::new(5).seed(37));
    let truth = brute_force_knng(&set, &Jaccard, 5);
    let recall = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(recall > 0.5, "jaccard distributed recall {recall}");
}

#[test]
fn works_with_u8_vectors() {
    let set = Arc::new(dataset::presets::bigann_like(250, 41));
    let out = build(&World::new(3), &set, &L2, DnndConfig::new(6).seed(43));
    let truth = brute_force_knng(&set, &L2, 6);
    let recall = mean_recall(&out.graph.neighbor_ids(), &truth);
    assert!(recall > 0.85, "u8 distributed recall {recall}");
}

#[test]
fn single_rank_works() {
    let set = clustered(120, 4, 47);
    let out = build(&World::new(1), &set, &L2, DnndConfig::new(4));
    assert_eq!(out.graph.len(), 120);
    // Single rank: all traffic is rank-local.
    assert_eq!(out.report.total.remote_count, 0);
}

#[test]
fn small_batch_size_only_adds_barriers() {
    let set = clustered(200, 6, 53);
    let truth = brute_force_knng(&set, &L2, 5);
    let big = build(
        &World::new(2),
        &set,
        &L2,
        DnndConfig::new(5).seed(6).batch_size(1 << 20),
    );
    let tiny = build(
        &World::new(2),
        &set,
        &L2,
        DnndConfig::new(5).seed(6).batch_size(64),
    );
    let r_big = mean_recall(&big.graph.neighbor_ids(), &truth);
    let r_tiny = mean_recall(&tiny.graph.neighbor_ids(), &truth);
    assert!(
        (r_big - r_tiny).abs() < 0.06,
        "batching changed quality: {r_big} vs {r_tiny}"
    );
    // Smaller batches mean more barriers, which cost virtual time.
    assert!(tiny.report.sim_secs >= big.report.sim_secs);
}

#[test]
fn sim_time_shows_strong_scaling() {
    // The Figure 3 mechanism in miniature: more ranks, less virtual time.
    let set = clustered(400, 24, 59);
    let t2 = build(&World::new(2), &set, &L2, DnndConfig::new(8).seed(8))
        .report
        .sim_secs;
    let t8 = build(&World::new(8), &set, &L2, DnndConfig::new(8).seed(8))
        .report
        .sim_secs;
    assert!(
        t8 < t2,
        "virtual construction time must shrink with ranks: t2={t2} t8={t8}"
    );
}

#[test]
fn updates_counter_terminates_descent() {
    let set = clustered(200, 6, 61);
    let out = build(&World::new(2), &set, &L2, DnndConfig::new(5).delta(0.5));
    // A huge delta should stop after very few iterations.
    assert!(
        out.report.iterations <= 3,
        "iterations {}",
        out.report.iterations
    );
    assert_eq!(out.report.iterations, out.report.updates_per_iter.len());
}
