//! **Extension harness** — the online serving layer under an offered-load
//! sweep: throughput vs. tail latency, shedding, and answered-query
//! quality as the frontend moves from idle to 2x overload.
//!
//! Each sweep point replays the same deterministic workload shape at a
//! different offered load against the same graph, so the emitted run
//! report is bit-stable and serves as the committed `BENCH_5.json`
//! regression baseline (gated softly by `dnnd-report-diff` in CI: the
//! `serving.*` counters must not grow, answered queries must not shrink).
//!
//! ```text
//! serve --smoke --report-out BENCH_5.candidate.json   # CI shape
//! serve --n 4000 --arrivals 1200 --dashboard-out serve.html
//! serve --flash --smoke --report-out BENCH_9.candidate.json
//! ```
//!
//! `--smoke` shrinks the fixture to CI size and self-checks the report
//! (serving section present, round-trips, digest stable). `--report-out`
//! writes the report's summary — no per-barrier or per-exemplar lists —
//! because it exists to be a committed baseline; `--dashboard-out` renders
//! the full report.
//!
//! `--flash` swaps the offered-load sweep for the flash-crowd scenario:
//! a closed-loop Zipfian two-tenant workload
//! (`closed:n=24,think=3ms;zipf:s=1.1;burst:at=10ms,x=8,dur=30ms;`
//! `tenants=gold:50%,free:50%`) replayed under escalating transport-fault
//! profiles (none → lossy → stormy). The faulted point's serving section
//! — per-tenant shed counters included — is the committed `BENCH_9.json`
//! baseline; the report self-checks bit-identity across an in-process
//! rerun before it is written.
//!
//! `--vdb` swaps the sweep for the vector-DB product-layer scenario: the
//! same DEEP-like points become a namespaced collection (deterministic
//! per-id `bucket` metadata), and a filtered-workload ladder runs from
//! unfiltered through 10%-selective predicates to a mixed
//! insert/delete/compact point. The mutating point's report — serving
//! *and* `vdb` sections — is the committed `BENCH_10.json`
//! baseline; the smoke shape also asserts the unfiltered point matches
//! legacy (non-vdb) serving over the identical base + graph bit for bit.

use bench::{or_die, require_at_least_1, Args, ObsOuts, Table};
use dataset::ground_truth::brute_force_queries;
use dataset::metric::L2;
use dataset::presets;
use dataset::set::PointId;
use dataset::synth::split_queries;
use dnnd::{build, CommOpts, DnndConfig};
use serve::{
    run_serve, run_serve_vdb, ServeOutcome, ServeParams, VdbServeConfig, VdbServeStats, SLOT_NS,
};
use std::path::Path;
use std::sync::Arc;
use vdb::{Collection, MetaRecord};
use ygm::World;

/// The flash-crowd scenario spec (`BENCH_9.json`): closed-loop clients on
/// a Zipfian pool, one 8x flash-crowd window, two 50/50 tenant classes.
const FLASH_SPEC: &str =
    "closed:n=48,think=3ms;zipf:s=1.1;burst:at=8ms,x=16,dur=40ms;tenants=gold:50%,free:50%";

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let flash = args.flag("flash");
    let n: usize = args.get("n", if smoke { 500 } else { 1_500 });
    let pool_n: usize = args.get("pool", 32);
    let arrivals: usize = args.get("arrivals", if smoke { 150 } else { 400 });
    let k: usize = args.get("k", 10);
    let seed: u64 = args.get("seed", 91);
    let serve_seed: u64 = args.get("serve-seed", 0x5E27E);
    let ranks: usize = args.get("ranks", 2);
    let vdb = args.flag("vdb");
    let (dir, outs) = (args.out_dir(), ObsOuts::parse(&args));
    args.finish();
    require_at_least_1("ranks", ranks);
    require_at_least_1("pool", pool_n);
    // Every point serves this shape over `n` points, at its own rate and
    // cache: judged once, here, by the library.
    or_die(nnd::check_k(k, n));
    let mut shape = (ServeParams::new(k).serve_seed(serve_seed))
        .batch(4)
        .deadline_slots(6)
        .watermarks(8, 20);
    shape.n_arrivals = arrivals;
    or_die(shape.validate());

    if vdb {
        return vdb_sweep(&dir, &outs, smoke, n, pool_n, k, seed, &shape, ranks);
    }

    let (base, pool) = split_queries(presets::deep1b_like(n + pool_n, seed), pool_n);
    let base = Arc::new(base);
    let pool = Arc::new(pool);
    println!("online serving sweep: DEEP-like n={n}, pool {pool_n}, k={k}, {ranks} ranks");

    // The committed BENCH_5.json baseline was taken over this graph —
    // unoptimized protocol, pinned iteration count, the same bits at every
    // rank count — and its serving result digest gates on those bytes.
    let out = build(
        &World::new(ranks),
        &base,
        &L2,
        DnndConfig::new(k)
            .seed(seed)
            .comm_opts(CommOpts::unoptimized())
            .max_iters(8)
            .graph_opt(nnd::PRUNE_M),
    );
    let graph = Arc::new(out.graph);
    let truth = brute_force_queries(&base, &pool, &L2, k);

    if flash {
        return flash_crowd(
            &dir, &outs, smoke, k, &shape, ranks, &base, &graph, &pool, &truth.ids,
        );
    }

    // Nominal drain capacity: one micro-batch per slot. The sweep offers
    // 0.25x (idle) through 2x (overload) of that.
    let batch = shape.batch;
    let capacity_qps = batch as f64 * 1e9 / SLOT_NS as f64;
    // Degrade level 2 doubles drain capacity, so 2x is absorbed by
    // degradation alone; 4x is past what the ladder can drain and forces
    // overload shedding.
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];

    let mut t = Table::new(
        "Online serving: offered load vs SLOs",
        &[
            "Offered qps",
            "Answered",
            "Cache hits",
            "Shed",
            "Degraded",
            "p50 ms",
            "p99 ms",
            "Recall@k",
        ],
    );
    let mut sweep: Vec<(f64, ServeOutcome, f64)> = Vec::new();
    let mut last_wr = None;
    for factor in factors {
        let qps = capacity_qps * factor;
        let params = shape.clone().offered_qps(qps).cache(16, 1e-3);
        let (outcome, wr) = run_serve(&World::new(ranks), &base, &graph, &pool, &L2, &params);
        let recall = outcome.answered_recall(&truth.ids);
        let s = &outcome.stats;
        t.row(&[
            &format!("{qps:.0}"),
            &s.total_answered(),
            &s.cache_hits,
            &(s.shed_deadline + s.shed_overload),
            &s.degraded,
            &format!("{:.2}", s.percentile_ns(0.50) as f64 / 1e6),
            &format!("{:.2}", s.percentile_ns(0.99) as f64 / 1e6),
            &format!("{recall:.4}"),
        ]);
        sweep.push((qps, outcome, recall));
        last_wr = Some(wr);
    }
    t.print();
    t.write_csv(&dir, "serve").expect("csv");
    println!("\ncsv: {}/serve.csv", dir.display());

    // The emitted report carries the overload (2x) point's serving section
    // — the one whose shedding/degrade counters the regression gate should
    // watch — plus the whole sweep as extras for the dashboard's
    // throughput-latency chart.
    let (_, overload, overload_recall) = sweep.last().expect("sweep is non-empty");
    let mut rr =
        dnnd::obs_report::report_from_world("serve", ranks, last_wr.as_ref().expect("ran"));
    rr.serving = Some(overload.stats.to_section());
    rr.recall = Some(*overload_recall);
    rr.param("mode", if smoke { "smoke" } else { "full" })
        .param("n", n)
        .param("pool", pool_n)
        .param("arrivals", arrivals)
        .param("k", k)
        .param("serve_seed", serve_seed)
        .param("batch", batch)
        .param("ranks", ranks);
    for (i, (qps, outcome, recall)) in sweep.iter().enumerate() {
        rr.extra.push((format!("sweep_qps_{i}"), *qps));
        rr.extra.push((
            format!("sweep_p99_ms_{i}"),
            outcome.stats.percentile_ns(0.99) as f64 / 1e6,
        ));
        rr.extra.push((format!("sweep_recall_{i}"), *recall));
        rr.extra.push((
            format!("sweep_answered_{i}"),
            outcome.stats.total_answered() as f64,
        ));
    }

    if smoke {
        // Self-checks: a serving section that round-trips (`parse` accepts
        // `SCHEMA_VERSION` only), and the overload point must actually
        // exercise the admission ladder.
        let parsed = obs::RunReport::parse(&rr.to_json_string()).expect("report round-trip");
        let section = parsed.serving.expect("serving section present");
        assert_eq!(section, overload.stats.to_section());
        assert!(
            section.shed_deadline + section.shed_overload + section.degraded > 0,
            "2x overload exercised no shedding/degradation"
        );
        println!(
            "smoke OK: schema v{} serving report round-trips, digest {:016x}",
            obs::report::SCHEMA_VERSION,
            section.result_digest
        );
    }

    bench::write_baseline_outputs(&outs, &rr);
}

/// Flash-crowd-with-faults scenario (`--flash`): the pinned closed-loop
/// Zipfian two-tenant workload replayed under escalating transport-fault
/// profiles. The faulted (`lossy`) point's report is the `BENCH_9.json`
/// regression baseline: its per-tenant shed counters gate exactly in
/// `dnnd-report-diff`.
#[allow(clippy::too_many_arguments)]
fn flash_crowd(
    dir: &Path,
    outs: &ObsOuts,
    smoke: bool,
    k: usize,
    shape: &ServeParams,
    ranks: usize,
    base: &Arc<dataset::PointSet<Vec<f32>>>,
    graph: &Arc<nnd::KnnGraph>,
    pool: &Arc<dataset::PointSet<Vec<f32>>>,
    truth: &[Vec<PointId>],
) {
    let (batch, arrivals, serve_seed) = (shape.batch, shape.n_arrivals, shape.serve_seed);
    let params = (shape.clone())
        .offered_qps(batch as f64 * 1e9 / SLOT_NS as f64)
        .cache(8, 1e-3)
        .workload_str(FLASH_SPEC);
    println!("flash crowd scenario: {FLASH_SPEC}");

    let run_profile = |profile: &str| {
        let mut world = World::new(ranks);
        if profile != "none" {
            let p = ygm::FaultProfile::by_name(profile).expect("known fault profile");
            world = world.fault_plan(ygm::FaultPlan::new(p, serve_seed));
        }
        run_serve(&world, base, graph, pool, &L2, &params)
    };

    let profiles = ["none", "lossy", "stormy"];
    let mut t = Table::new(
        "Flash crowd (closed-loop zipf, gold/free tenants) under faults",
        &[
            "Profile",
            "Answered",
            "Cache",
            "ShedOver",
            "ShedDdl",
            "gold SLO",
            "free SLO",
            "p99 ms",
            "client p99 ms",
            "Recall@k",
        ],
    );
    let mut sweep: Vec<(&str, ServeOutcome, f64)> = Vec::new();
    let mut faulted_wr = None;
    for profile in profiles {
        let (outcome, wr) = run_profile(profile);
        let recall = outcome.answered_recall(truth);
        let s = &outcome.stats;
        assert_eq!(s.tenants.len(), 2, "scenario declares gold+free");
        t.row(&[
            &profile,
            &s.total_answered(),
            &s.cache_hits,
            &s.shed_overload,
            &s.shed_deadline,
            &format!("{:.1}%", s.tenants[0].slo_attainment() * 100.0),
            &format!("{:.1}%", s.tenants[1].slo_attainment() * 100.0),
            &format!("{:.2}", s.percentile_ns(0.99) as f64 / 1e6),
            &format!("{:.2}", s.client_percentile_ns(0.99) as f64 / 1e6),
            &format!("{recall:.4}"),
        ]);
        if profile == "lossy" {
            faulted_wr = Some(wr);
        }
        sweep.push((profile, outcome, recall));
    }
    t.print();
    t.write_csv(dir, "serve_flash").expect("csv");
    println!("\ncsv: {}/serve_flash.csv", dir.display());

    // The report carries the lossy point: a flash crowd *and* transport
    // faults, the regression gate's most load-bearing configuration.
    let (_, faulted, faulted_recall) = sweep
        .iter()
        .find(|(p, _, _)| *p == "lossy")
        .expect("lossy point ran");
    let mut rr = dnnd::obs_report::report_from_world(
        "serve-flash",
        ranks,
        faulted_wr.as_ref().expect("ran"),
    );
    rr.serving = Some(faulted.stats.to_section());
    rr.recall = Some(*faulted_recall);
    rr.param("mode", if smoke { "smoke" } else { "full" })
        .param("scenario", FLASH_SPEC)
        .param("arrivals", arrivals)
        .param("k", k)
        .param("serve_seed", serve_seed)
        .param("batch", batch)
        .param("ranks", ranks)
        .param("fault_profile", "lossy");
    for (i, (profile, outcome, recall)) in sweep.iter().enumerate() {
        let s = &outcome.stats;
        rr.param(format!("flash_profile_{i}"), profile);
        rr.extra
            .push((format!("flash_shed_overload_{i}"), s.shed_overload as f64));
        rr.extra
            .push((format!("flash_shed_deadline_{i}"), s.shed_deadline as f64));
        rr.extra.push((
            format!("flash_client_p99_ms_{i}"),
            s.client_percentile_ns(0.99) as f64 / 1e6,
        ));
        rr.extra.push((format!("flash_recall_{i}"), *recall));
    }

    if smoke {
        // Self-checks: the scenario must actually flash (overload sheds
        // fire), both tenant classes must be accounted exactly, the
        // serving section must round-trip, and an in-process rerun of the
        // faulted point must be bit-identical (arrival plan, verdicts,
        // per-tenant counters, forensics digest all fold into the
        // fingerprint and the two digests).
        let s = &faulted.stats;
        assert!(
            s.shed_overload > 0,
            "flash crowd engaged no overload shedding"
        );
        let gold = &s.tenants[0];
        let free = &s.tenants[1];
        assert_eq!(gold.name, "gold");
        assert_eq!(free.name, "free");
        assert_eq!(
            gold.offered + free.offered,
            s.offered,
            "tenant offered counts must partition the workload"
        );
        assert_eq!(
            gold.shed_overload + free.shed_overload,
            s.shed_overload,
            "tenant shed counts must partition the sheds"
        );
        // Priority drain: the gold class's SLO attainment cannot trail free.
        assert!(
            gold.slo_attainment() >= free.slo_attainment(),
            "gold ({:.3}) must not trail free ({:.3})",
            gold.slo_attainment(),
            free.slo_attainment()
        );
        let parsed = obs::RunReport::parse(&rr.to_json_string()).expect("report round-trip");
        let section = parsed.serving.expect("serving section present");
        assert_eq!(section, s.to_section());
        assert_eq!(section.tenants.len(), 2);
        let (replay, _) = run_profile("lossy");
        assert_eq!(
            replay.stats.fingerprint(),
            s.fingerprint(),
            "flash scenario must replay bit-identically"
        );
        assert_eq!(replay.stats.result_digest, s.result_digest);
        assert_eq!(replay.forensics.digest, faulted.forensics.digest);
        println!(
            "smoke OK: flash scenario replays bit-identically, digest {:016x}",
            s.result_digest
        );
    }

    bench::write_baseline_outputs(outs, &rr);
}

/// Vector-DB scenario (`--vdb`, `BENCH_10.json`): a filtered-workload
/// ladder over a namespaced collection, from unfiltered through sharply
/// selective predicates to a mixed insert/delete point that crosses the
/// compaction watermark. The mutating point's serving + `vdb` sections
/// are the committed regression baseline.
#[allow(clippy::too_many_arguments)]
fn vdb_sweep(
    dir: &Path,
    outs: &ObsOuts,
    smoke: bool,
    n: usize,
    pool_n: usize,
    k: usize,
    seed: u64,
    shape: &ServeParams,
    ranks: usize,
) {
    let (batch, arrivals, serve_seed) = (shape.batch, shape.n_arrivals, shape.serve_seed);
    let (base, pool) = split_queries(presets::deep1b_like(n + pool_n, seed), pool_n);
    let meta: Vec<MetaRecord> = (0..base.len() as u64)
        .map(|id| MetaRecord::bucket_record(seed, id))
        .collect();
    let collection = Collection::create("bench", base, meta, "l2", k, seed).expect("collection");
    let pool = Arc::new(pool);
    println!(
        "vdb filtered-serving sweep: namespace \"bench\", n={n}, pool {pool_n}, k={k}, \
         {ranks} ranks"
    );

    // Every sweep point starts from the same pristine persisted namespace
    // (the mutating point writes its changes back, so the store is rebuilt
    // between points).
    let store_dir = std::env::temp_dir().join(format!("dnnd_serve_vdb_{serve_seed:x}"));
    let reset = |c: &Collection| {
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut store = metall::Store::open_or_create(&store_dir).expect("bench store");
        c.save(&mut store).expect("save collection");
    };

    let params_for = |spec: &str| {
        let p = (shape.clone())
            .offered_qps(batch as f64 * 1e9 / SLOT_NS as f64)
            .cache(16, 1e-3);
        if spec.is_empty() {
            p
        } else {
            p.workload_str(spec)
        }
    };
    // A low watermark so the smoke-sized mutating point actually crosses
    // it and exercises the deterministic compaction schedule.
    let cfg = VdbServeConfig {
        compact_watermark: 0.005,
        ..VdbServeConfig::default()
    };

    const MUTATING_SPEC: &str = "filter:pct=50,sel=0.3;mutate:ins=10,del=7";
    let scenarios: [(&str, &str); 5] = [
        ("plain", ""),
        ("sel10", "filter:pct=100,sel=0.1"),
        ("sel30", "filter:pct=100,sel=0.3"),
        ("sel100", "filter:pct=100,sel=1"),
        ("mutating", MUTATING_SPEC),
    ];

    let mut t = Table::new(
        "Vector-DB serving: filter selectivity and online mutations",
        &[
            "Scenario", "Answered", "Cache", "Filtered", "Ins", "Del", "Compact", "p99 ms",
        ],
    );
    let mut sweep: Vec<(&str, ServeOutcome)> = Vec::new();
    let mut mutating_wr = None;
    for (name, spec) in scenarios {
        reset(&collection);
        let (outcome, _, wr) = run_serve_vdb(
            &World::new(ranks),
            &store_dir,
            "bench",
            &pool,
            &L2,
            &params_for(spec),
            &cfg,
        );
        let s = &outcome.stats;
        let v = s.vdb.as_ref().expect("vdb serving stats present");
        t.row(&[
            &name,
            &s.total_answered(),
            &s.cache_hits,
            &v.filtered,
            &v.inserts,
            &v.deletes,
            &v.compactions,
            &format!("{:.2}", s.percentile_ns(0.99) as f64 / 1e6),
        ]);
        if name == "mutating" {
            mutating_wr = Some(wr);
        }
        sweep.push((name, outcome));
    }
    t.print();
    t.write_csv(dir, "serve_vdb").expect("csv");
    println!("\ncsv: {}/serve_vdb.csv", dir.display());

    let (_, mutating) = sweep.last().expect("sweep is non-empty");
    let mut rr =
        dnnd::obs_report::report_from_world("serve-vdb", ranks, mutating_wr.as_ref().expect("ran"));
    rr.serving = Some(mutating.stats.to_section());
    rr.vdb = mutating.stats.vdb.as_ref().map(VdbServeStats::to_section);
    rr.param("mode", if smoke { "smoke" } else { "full" })
        .param("scenario", MUTATING_SPEC)
        .param("namespace", "bench")
        .param("n", n)
        .param("pool", pool_n)
        .param("arrivals", arrivals)
        .param("k", k)
        .param("serve_seed", serve_seed)
        .param("batch", batch)
        .param("ranks", ranks);
    for (i, (name, outcome)) in sweep.iter().enumerate() {
        let s = &outcome.stats;
        let v = s.vdb.as_ref().expect("vdb stats");
        rr.param(format!("vdb_scenario_{i}"), name);
        rr.extra
            .push((format!("vdb_answered_{i}"), s.total_answered() as f64));
        rr.extra
            .push((format!("vdb_filtered_{i}"), v.filtered as f64));
        rr.extra.push((
            format!("vdb_p99_ms_{i}"),
            s.percentile_ns(0.99) as f64 / 1e6,
        ));
    }

    if smoke {
        // Self-check 1 — product-layer overhead is *zero* when unused: the
        // unfiltered, mutation-free point must reproduce legacy (non-vdb)
        // serving over the identical base + graph bit for bit.
        let (_, plain) = &sweep[0];
        let (legacy, _) = run_serve(
            &World::new(ranks),
            &Arc::new(collection.base.clone()),
            &Arc::new(collection.graph.clone()),
            &pool,
            &L2,
            &params_for(""),
        );
        assert_eq!(
            plain.answers, legacy.answers,
            "unfiltered vdb serving must answer exactly like legacy serving"
        );
        assert_eq!(plain.stats.result_digest, legacy.stats.result_digest);
        assert_eq!(plain.stats.cache_hits, legacy.stats.cache_hits);
        assert_eq!(
            plain.stats.shed_deadline + plain.stats.shed_overload,
            legacy.stats.shed_deadline + legacy.stats.shed_overload
        );

        // Self-check 2 — the mutating point exercised the whole mutation
        // surface: inserts, deletes, a compaction pass, filtered queries.
        let v = mutating.stats.vdb.as_ref().expect("vdb stats");
        assert!(v.inserts > 0, "mutating point applied no inserts");
        assert!(v.deletes > 0, "mutating point applied no deletes");
        assert!(v.compactions > 0, "watermark never triggered compaction");
        assert!(v.filtered > 0, "filtered traffic never drew a predicate");
        assert!(
            !v.selectivity_hist.is_empty(),
            "filtered queries recorded no selectivity"
        );

        // Self-check 3 — the report round-trips with the vdb section.
        let parsed = obs::RunReport::parse(&rr.to_json_string()).expect("report round-trip");
        assert_eq!(parsed.vdb, Some(v.to_section()));

        // Self-check 4 — the mutating point replays bit-identically from
        // the same pristine store.
        reset(&collection);
        let (replay, _, _) = run_serve_vdb(
            &World::new(ranks),
            &store_dir,
            "bench",
            &pool,
            &L2,
            &params_for(MUTATING_SPEC),
            &cfg,
        );
        assert_eq!(
            replay.stats.fingerprint(),
            mutating.stats.fingerprint(),
            "mutating vdb scenario must replay bit-identically"
        );
        assert_eq!(replay.answers, mutating.answers);
        println!(
            "smoke OK: vdb scenario replays bit-identically, digest {:016x}",
            mutating.stats.result_digest
        );
    }

    bench::write_baseline_outputs(outs, &rr);
}
