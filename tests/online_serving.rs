//! Integration tests of the online serving layer (`crates/serve`): the
//! determinism contract (same seed => bit-identical serving runs across
//! reruns *and* rank counts) and the overload behavior (shedding keeps
//! tail latency bounded while answered-query quality holds).

use dataset::set::PointSet;
use dataset::synth::{gaussian_mixture, split_queries, MixtureParams};
use dataset::{brute_force_queries, L2};
use dnnd::{build, DnndConfig};
use nnd::graph::KnnGraph;
use nnd::RnnParams;
use proptest::prelude::*;
use serve::{run_serve, slow_query_log, ServeParams, SLOT_NS};
use std::sync::Arc;
use ygm::World;

type Setup = (
    Arc<PointSet<Vec<f32>>>,
    Arc<KnnGraph>,
    Arc<PointSet<Vec<f32>>>,
);

/// One shared base/graph/query-pool fixture (building the graph dominates
/// test cost; serving runs against it are cheap).
fn setup(n: usize, pool: usize, seed: u64) -> Setup {
    let full = gaussian_mixture(MixtureParams::embedding_like(n, 12), seed);
    let (base, queries) = split_queries(full, pool);
    let base = Arc::new(base);
    let out = build(
        &World::new(2),
        &base,
        &L2,
        DnndConfig::new(10).seed(7).graph_opt(1.5),
    );
    (base, Arc::new(out.graph), Arc::new(queries))
}

#[test]
fn same_seed_is_bit_identical_across_reruns_and_rank_counts() {
    let (base, graph, pool) = setup(600, 48, 3);
    let params = ServeParams::new(10)
        .serve_seed(0xC0FFEE)
        .n_arrivals(150)
        .offered_qps(3_000.0);

    let (reference, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    assert!(reference.stats.total_answered() > 0, "nothing answered");

    // Rerun at the same rank count: every replicated field must match.
    let (rerun, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    assert_eq!(rerun, reference, "rerun diverged");

    // The serving section is measured on the slot clock, so it is also
    // identical across rank counts — admitted/shed/cache-hit sets,
    // latencies, and the result digest included.
    for ranks in [1usize, 4] {
        let (other, _) = run_serve(&World::new(ranks), &base, &graph, &pool, &L2, &params);
        assert_eq!(
            other, reference,
            "serving outcome changed between 2 and {ranks} ranks"
        );
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let (base, graph, pool) = setup(400, 32, 5);
    let params = ServeParams::new(10).n_arrivals(80).offered_qps(2_000.0);
    let (a, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    let (b, _) = run_serve(
        &World::new(2),
        &base,
        &graph,
        &pool,
        &L2,
        &params.clone().serve_seed(0xBEEF),
    );
    assert_ne!(
        a.stats.fingerprint(),
        b.stats.fingerprint(),
        "two seeds produced identical serving runs"
    );
}

#[test]
fn overload_sheds_but_keeps_tail_latency_bounded_and_quality_high() {
    let (base, graph, pool) = setup(600, 48, 9);
    let truth = brute_force_queries(&base, &pool, &L2, 10);

    // Unloaded baseline: gentle trickle, nothing shed.
    let unloaded = ServeParams::new(10)
        .n_arrivals(100)
        .offered_qps(500.0)
        .batch(4);
    let (calm, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &unloaded);
    assert_eq!(calm.stats.shed_overload, 0, "trickle load shed queries");
    let calm_recall = calm.answered_recall(&truth.ids);
    assert!(calm_recall > 0.8, "unloaded recall {calm_recall}");

    // Overload: ~2x the arrival rate the frontend can drain. Shedding and
    // degradation must engage, the deadline must cap answered latency,
    // and the queries that *are* answered must stay close to baseline
    // quality (degrade shrinks epsilon/beam, it does not break search).
    let slam = ServeParams::new(10)
        .n_arrivals(300)
        .offered_qps(20_000.0)
        .batch(4)
        .watermarks(12, 32)
        .deadline_slots(6);
    let (hot, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &slam);
    let s = &hot.stats;
    assert!(
        s.shed_overload + s.shed_deadline > 0,
        "overload engaged no shedding: {s:?}"
    );
    assert!(s.max_queue_depth <= 32, "queue blew past shed watermark");
    // A query older than deadline_slots is shed, so answered latency is
    // capped at deadline_slots + 1 slots (fault-free run: no penalties).
    let bound_ns = (slam.deadline_slots + 1) * SLOT_NS;
    assert!(
        s.percentile_ns(0.99) <= bound_ns,
        "p99 {} ns exceeds deadline bound {} ns",
        s.percentile_ns(0.99),
        bound_ns
    );
    let hot_recall = hot.answered_recall(&truth.ids);
    assert!(
        hot_recall >= calm_recall - 0.05,
        "answered-query recall collapsed under load: {hot_recall} vs {calm_recall}"
    );
}

#[test]
fn faults_surface_as_latency_penalties_not_different_answers() {
    let (base, graph, pool) = setup(400, 32, 13);
    let params = ServeParams::new(10).n_arrivals(60).offered_qps(1_500.0);
    let (clean, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    let world = World::new(2).fault_plan(ygm::FaultPlan::new(ygm::FaultProfile::lossy(), 42));
    let (faulty, _) = run_serve(&world, &base, &graph, &pool, &L2, &params);
    // Same answers (reliable delivery + replicated control plane) ...
    assert_eq!(faulty.answers, clean.answers);
    assert_eq!(faulty.stats.result_digest, clean.stats.result_digest);
    // ... but retransmits are charged against query latency.
    assert!(
        faulty.stats.fault_penalty_slots >= clean.stats.fault_penalty_slots,
        "faulty run reported less penalty than clean"
    );
}

#[test]
fn forensics_stage_sums_are_exact_and_deadline_misses_hit_the_slow_log() {
    let (base, graph, pool) = setup(600, 48, 9);
    // Overload hard enough that both shed paths and deadline misses fire.
    let params = ServeParams::new(10)
        .serve_seed(0xF04E_51C5)
        .n_arrivals(300)
        .offered_qps(20_000.0)
        .batch(4)
        .watermarks(12, 32)
        .deadline_slots(6);
    let (out, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    let f = &out.forensics;

    // Every arrival got a record, and the sampler kept something.
    assert_eq!(f.considered, out.stats.offered, "considered != offered");
    assert!(!f.exemplars.is_empty(), "nothing retained under overload");
    assert_ne!(f.digest, 0, "forensics digest is zero");

    // The five-stage waterfall sums exactly to end-to-end latency and the
    // done slot is arrival + latency, for every retained record.
    for r in &f.exemplars {
        assert_eq!(r.stage_sum(), r.latency_slots, "stage sum drifted: {r:?}");
        assert_eq!(r.done_slot - r.arrived_slot, r.latency_slots, "{r:?}");
        assert!(!r.why.is_empty(), "retained record with empty why: {r:?}");
    }

    // Deadline misses are retained *unconditionally*: every deadline-shed
    // query has a record, and each shows up in the slow-query log.
    let deadline_shed = f
        .exemplars
        .iter()
        .filter(|r| r.verdict == "shed_deadline")
        .count() as u64;
    assert_eq!(
        deadline_shed, out.stats.shed_deadline,
        "deadline-shed query missing"
    );
    let log = slow_query_log(f, 2);
    for r in &f.exemplars {
        if r.deadline_miss {
            assert!(r.why.split('|').any(|w| w == "deadline_miss"), "{r:?}");
            assert!(
                log.contains(&format!("\"idx\":{},", r.idx)),
                "deadline miss idx {} absent from slow-query log",
                r.idx
            );
        }
    }
    // Each log line is `pool_id % n_ranks` at the *writing* rank count.
    for line in log.lines() {
        assert!(line.contains("\"home_rank\":"), "log line lost home rank");
    }

    // The forensics block — sampler decisions, histograms, digest — is a
    // pure function of the slot clock: bit-identical across reruns and
    // rank counts.
    let (rerun, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    assert_eq!(
        rerun.forensics, out.forensics,
        "forensics diverged on rerun"
    );
    for ranks in [1usize, 4] {
        let (other, _) = run_serve(&World::new(ranks), &base, &graph, &pool, &L2, &params);
        assert_eq!(
            other.forensics, out.forensics,
            "forensics changed between 2 and {ranks} ranks"
        );
    }
}

#[test]
fn rnn_graph_serving_pins_fingerprint_and_forensics_digest_across_ranks() {
    // `--graph rnn` interplay: serve the same workload over the raw
    // NN-Descent graph and over its RNN-Descent optimization. Both must
    // be rank-count-invariant; the two graphs must disagree (different
    // topology => different beam behavior => different forensics).
    let (base, graph, pool) = setup(600, 48, 3);
    let (rnn_graph, _, _) =
        dnnd::rnn_optimize_distributed(&World::new(2), &base, &L2, &graph, RnnParams::new(10));
    let rnn_graph = Arc::new(rnn_graph);
    let params = ServeParams::new(10)
        .serve_seed(0xC0FFEE)
        .n_arrivals(150)
        .offered_qps(3_000.0);

    let (on_knng, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    let (on_rnn, _) = run_serve(&World::new(2), &base, &rnn_graph, &pool, &L2, &params);
    assert!(
        on_rnn.stats.total_answered() > 0,
        "rnn graph answered nothing"
    );

    // Same fingerprint and digest at 1, 2, and 4 ranks over the rnn graph.
    for ranks in [1usize, 4] {
        let (other, _) = run_serve(&World::new(ranks), &base, &rnn_graph, &pool, &L2, &params);
        assert_eq!(
            other.stats.fingerprint(),
            on_rnn.stats.fingerprint(),
            "rnn-mode serving fingerprint changed at {ranks} ranks"
        );
        assert_eq!(
            other.forensics.digest, on_rnn.forensics.digest,
            "rnn-mode forensics digest changed at {ranks} ranks"
        );
    }

    // The workload plan (arrivals, admission) is graph-independent, but
    // the search telemetry inside the records is not: the sparser rnn
    // graph must leave a different forensics digest than the raw knng.
    assert_eq!(on_rnn.stats.offered, on_knng.stats.offered);
    assert_ne!(
        on_rnn.forensics.digest, on_knng.forensics.digest,
        "forensics digest blind to the graph being served"
    );
}

/// The ISSUE-9 acceptance scenario, pinned: a closed-loop Zipfian
/// flash-crowd workload with two tenant classes is bit-identical — the
/// minted arrival log, every admission verdict, the per-tenant SLO
/// counters, and the forensics digest — across reruns and rank counts
/// {1, 2, 4}.
#[test]
fn closed_loop_flash_crowd_with_tenants_is_bit_identical_across_ranks() {
    let (base, graph, pool) = setup(600, 48, 3);
    let params = ServeParams::new(10)
        .serve_seed(0xF1A5_4C20)
        .n_arrivals(160)
        .batch(4)
        .deadline_slots(6)
        .watermarks(8, 20)
        .cache(8, 1e-3)
        .workload_str(
            "closed:n=48,think=3ms;zipf:s=1.1;burst:at=8ms,x=16,dur=40ms;\
             tenants=gold:50%,free:50%",
        );
    let (reference, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    let s = &reference.stats;

    // The scenario genuinely exercises every DSL axis before we pin it.
    assert_eq!(s.tenants.len(), 2, "two tenant classes expected");
    assert_eq!(s.tenants[0].name, "gold");
    assert_eq!(s.tenants[1].name, "free");
    assert!(
        s.shed_overload > 0,
        "flash crowd engaged no overload shedding: {s:?}"
    );
    assert!(s.cache_hits > 0, "zipf workload produced no cache hits");
    // Tenant counters partition the run's totals exactly.
    assert_eq!(s.tenants.iter().map(|t| t.offered).sum::<u64>(), s.offered);
    assert_eq!(
        s.tenants.iter().map(|t| t.shed_overload).sum::<u64>(),
        s.shed_overload
    );
    assert_eq!(
        s.tenants.iter().map(|t| t.total_answered()).sum::<u64>(),
        s.total_answered()
    );
    // Both classes carry real traffic and get real answers (the
    // gold-vs-free SLO *ordering* under priority drain is asserted by the
    // bench flash-crowd smoke, where the sample is large enough for the
    // quota split to dominate draw noise).
    for t in &s.tenants {
        assert!(t.offered > 0, "tenant {} was offered nothing", t.name);
        assert!(t.total_answered() > 0, "tenant {} answered nothing", t.name);
        assert_eq!(
            t.latency_hist.iter().map(|&(_, c)| c).sum::<u64>(),
            t.total_answered(),
            "tenant {} histogram mass != answered",
            t.name
        );
    }
    // Closed-loop retries exist: some minted arrival re-issues an earlier
    // first attempt, so client-perceived latency can accumulate.
    assert!(
        reference
            .arrivals
            .iter()
            .any(|a| a.first_issue_slot < a.slot),
        "no shed query was ever retried"
    );
    assert!(reference.arrivals.len() as u64 >= s.offered);

    // Pin: the full outcome — stats (tenant counters included), answers,
    // the minted arrival log, and forensics — is replicated exactly.
    let (rerun, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
    assert_eq!(rerun, reference, "flash-crowd scenario diverged on rerun");
    for ranks in [1usize, 4] {
        let (other, _) = run_serve(&World::new(ranks), &base, &graph, &pool, &L2, &params);
        assert_eq!(
            other, reference,
            "flash-crowd outcome changed between 2 and {ranks} ranks"
        );
    }
}

/// Coordinated omission, made visible: the same Zipfian flash-crowd shape
/// driven open-loop vs closed-loop sheds in both modes, but only the
/// closed loop's *client-perceived* p99 diverges upward from the answered
/// p99 — open-loop measurement never sees shed-and-retry wait.
#[test]
fn coordinated_omission_closed_loop_client_p99_diverges_from_open_loop() {
    let (base, graph, pool) = setup(600, 48, 3);
    let shape = "zipf:s=1.1;burst:at=5ms,x=16,dur=60ms";
    let common = |spec: String| {
        ServeParams::new(10)
            .serve_seed(0xC0_0111)
            .n_arrivals(200)
            .offered_qps(6_000.0)
            .batch(4)
            .deadline_slots(6)
            .watermarks(6, 12)
            .cache(8, 1e-3)
            .workload_str(&spec)
    };
    let open_params = common(format!("open;{shape}"));
    let closed_params = common(format!("closed:n=64,think=1ms;{shape}"));
    let (open, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &open_params);
    let (closed, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &closed_params);

    // Both modes saturate the same admission ladder.
    assert!(open.stats.shed_overload > 0, "open-loop burst never shed");
    assert!(
        closed.stats.shed_overload > 0,
        "closed-loop burst never shed"
    );

    // Open loop: a shed query is simply lost; what remains is measured
    // from its only issue, so the client view *is* the server view.
    assert_eq!(
        open.stats.client_hist, open.stats.latency_hist,
        "open-loop client histogram must equal the answered histogram"
    );

    // Closed loop: shed queries are re-issued with their first-issue slot
    // preserved, so retry wait accumulates into the client view and the
    // client p99 is strictly higher than the answered p99.
    let answered_p99 = closed.stats.percentile_ns(0.99);
    let client_p99 = closed.stats.client_percentile_ns(0.99);
    assert!(
        client_p99 > answered_p99,
        "closed-loop client p99 {client_p99} ns did not diverge above \
         answered p99 {answered_p99} ns under saturation"
    );
}

/// A Zipfian pool concentrates traffic on a few hot keys, so the
/// quantized-key LRU cache hits far more often than under a uniform pool
/// of the same size — and both hit counts are exact replicated integers.
#[test]
fn zipf_pool_beats_uniform_on_cache_hits_with_exact_replicated_counts() {
    let (base, graph, pool) = setup(600, 48, 3);
    let common = |spec: &str| {
        ServeParams::new(10)
            .serve_seed(0x2F01)
            .n_arrivals(200)
            .offered_qps(2_000.0)
            .cache(8, 1e-3)
            .workload_str(spec)
    };
    // `zipf:s=0` is the uniform distribution over the same pool.
    let (uniform, _) = run_serve(
        &World::new(2),
        &base,
        &graph,
        &pool,
        &L2,
        &common("zipf:s=0"),
    );
    let (zipf, _) = run_serve(
        &World::new(2),
        &base,
        &graph,
        &pool,
        &L2,
        &common("zipf:s=1.1"),
    );
    assert!(
        zipf.stats.cache_hits > uniform.stats.cache_hits,
        "zipf hit the cache {} times, uniform {} — skew should win",
        zipf.stats.cache_hits,
        uniform.stats.cache_hits
    );
    assert!(zipf.stats.cache_hits > 0);

    // "Exact" means exact: reruns and other rank counts reproduce the
    // same integer hit counts (and the whole stats block with them).
    for (params, first) in [
        (common("zipf:s=0"), &uniform),
        (common("zipf:s=1.1"), &zipf),
    ] {
        let (rerun, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
        assert_eq!(rerun.stats, first.stats, "stats diverged on rerun");
        let (one, _) = run_serve(&World::new(1), &base, &graph, &pool, &L2, &params);
        assert_eq!(
            one.stats.cache_hits, first.stats.cache_hits,
            "cache hit count changed at 1 rank"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property: for any serve seed, a 1-rank and a 2-rank run agree on
    /// every replicated serving field.
    #[test]
    fn any_seed_agrees_across_rank_counts(seed in 0u64..1_000_000) {
        let (base, graph, pool) = setup(300, 24, 1);
        let params = ServeParams::new(8)
            .serve_seed(seed)
            .n_arrivals(60)
            .offered_qps(4_000.0);
        let (one, _) = run_serve(&World::new(1), &base, &graph, &pool, &L2, &params);
        let (two, _) = run_serve(&World::new(2), &base, &graph, &pool, &L2, &params);
        prop_assert_eq!(one, two);
    }
}
