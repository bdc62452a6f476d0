//! Integration tests for the tracing/metrics subsystem: deterministic span
//! timelines across same-seed runs, RunReport counters matching the runtime
//! `Stats` exactly, Chrome-trace structural validity, the streamed
//! exports and their write errors, and the `--trace-out` / `--report-out`
//! CLI flags end to end.

use bench::ObsOuts;
use dataset::{synth, L2};
use dnnd::obs_report::report_from_build;
use dnnd::{build, BuildReport, CommOpts, DnndConfig};
use obs::chrome::write_chrome_trace;
use obs::{JsonValue, RunReport, Tracer};

use std::io::Write;
use std::process::Command;
use std::sync::Arc;
use testutil::{FailAfter, TmpDir};
use ygm::World;

/// The Chrome-trace document of `t`, streamed into memory and parsed.
fn trace_doc(t: &Tracer) -> JsonValue {
    let mut buf = Vec::new();
    write_chrome_trace(t, &mut buf).expect("a Vec takes every byte");
    JsonValue::parse(std::str::from_utf8(&buf).unwrap()).expect("trace parses")
}

fn traced_build(seed: u64) -> (Arc<Tracer>, BuildReport) {
    let set = Arc::new(synth::uniform(400, 8, 7));
    let tracer = Arc::new(Tracer::new(4));
    let world = World::new(4).tracer(Arc::clone(&tracer));
    let out = build(
        &world,
        &set,
        &L2,
        DnndConfig::new(6).seed(seed).graph_opt(1.5),
    );
    (tracer, out.report)
}

#[test]
fn same_seed_runs_emit_identical_span_sequences() {
    // The whole span log of the paper's optimized protocol, nothing filtered
    // out: engine control flow, every flush and dispatch, both halves of
    // every flow arrow, virtual timestamps included. The protocol's pruning
    // reads the live bound when a Type 1 arrives (paper Section 4.3.3), so
    // which replies travel depends on arrival order — not the graph — and a
    // rank's messages arrive in an order fixed by what every rank flushed
    // before the last meeting; the virtual clock only advances while every
    // rank sits inside one.
    //
    // "iter_updates" is in the log as a regression test: the accepted-update
    // counter `c` counts end-of-iteration heap survivors, not transient
    // insertions.
    let (t1, t2) = (traced_build(11).0, traced_build(11).0);
    let (a, b) = (t1.span_log(), t2.span_log());
    assert_eq!(a.len(), 4);
    for (rank, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert!(
            ra.len() > 20,
            "rank {rank} recorded only {} events",
            ra.len()
        );
        assert_eq!(ra, rb, "rank {rank} span log diverged between runs");
    }
}

#[test]
fn run_report_counters_match_runtime_stats_exactly() {
    let (t, report) = traced_build(5);
    let mut rr = report_from_build("it", &report);
    rr.add_histograms(&t.hist_snapshots());

    // Per-tag counts and bytes carry over from the Stats aggregation
    // untouched, under the registration-time names.
    assert_eq!(rr.tags.len(), report.tags.len());
    for (tag, name, s) in &report.tags {
        let tr = rr
            .tags
            .iter()
            .find(|x| x.tag == *tag as u64)
            .unwrap_or_else(|| panic!("tag {tag} missing from report"));
        assert_eq!(&tr.name, name);
        assert_eq!(tr.count, s.count);
        assert_eq!(tr.bytes, s.bytes);
        assert_eq!(tr.remote_count, s.remote_count);
        assert_eq!(tr.remote_bytes, s.remote_bytes);
    }
    assert_eq!(rr.total_count, report.total.count);
    assert_eq!(rr.total_bytes, report.total.bytes);
    assert_eq!(rr.total_remote_bytes, report.total.remote_bytes);

    // The optimized protocol's Figure 4 names are the paper's.
    for name in ["Type 1", "Type 2+", "Type 3"] {
        assert!(
            rr.tags.iter().any(|t| t.name == name),
            "missing paper tag name {name:?}"
        );
    }

    // Convergence trajectory and phase records came along.
    assert_eq!(rr.convergence.len(), report.updates_per_iter.len());
    assert_eq!(rr.phases.len(), report.phases.len());
    assert!(rr
        .histograms
        .iter()
        .any(|h| h.name == "dist_evals_per_item" && h.count > 0));

    // And the whole thing survives a JSON round trip bit for bit.
    let back = RunReport::parse(&rr.to_json_string()).expect("report JSON parses");
    assert_eq!(back, rr);
}

#[test]
fn chrome_trace_has_per_rank_tracks_and_all_engine_phases() {
    let (t, report) = traced_build(3);
    let doc = trace_doc(&t);
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents array");

    // One named, sort-indexed track per rank.
    let track_names: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(String::from))
        .collect();
    assert_eq!(track_names, vec!["rank 0", "rank 1", "rank 2", "rank 3"]);

    // Every barrier-to-barrier engine phase shows up as a complete span,
    // and none of them were left unterminated.
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for phase in [
        "init",
        "iteration",
        "sample",
        "reverse_exchange",
        "union_sample",
        "gen_pairs",
        "neighbor_check",
        "graph_optimize",
        "barrier",
        "all_reduce",
        "dispatch",
    ] {
        assert!(span_names.contains(&phase), "missing engine span {phase:?}");
    }
    let unterminated = events
        .iter()
        .filter(|e| e.get("args").and_then(|a| a.get("unterminated")).is_some())
        .count();
    assert_eq!(unterminated, 0, "all instrumented spans must close");

    // One "iteration" span per rank per descent iteration.
    let iter_spans = span_names.iter().filter(|n| **n == "iteration").count();
    assert_eq!(iter_spans, report.iterations * report.n_ranks);
}

/// One traced *unoptimized* build — the protocol that reads no row state to
/// decide what to send, so its delivered-message multiset (and thus
/// telemetry) is the same in any arrival order — fault-free unless a fault
/// profile is named.
fn unopt_traced_run(n_ranks: usize, profile: Option<&str>) -> (Arc<Tracer>, BuildReport) {
    let set = Arc::new(synth::uniform(300, 8, 7));
    let tracer = Arc::new(Tracer::new(n_ranks));
    let mut world = World::new(n_ranks).tracer(Arc::clone(&tracer));
    if let Some(p) = profile {
        let prof = ygm::FaultProfile::by_name(p).expect("known profile");
        world = world.fault_plan(ygm::FaultPlan::new(prof, 5));
    }
    let out = build(
        &world,
        &set,
        &L2,
        DnndConfig::new(6)
            .seed(11)
            .comm_opts(CommOpts::unoptimized())
            .max_iters(4),
    );
    (tracer, out.report)
}

#[test]
fn telemetry_series_and_matrix_replay_bit_identically() {
    // Gauges are sampled at barrier entry on the virtual clock, and
    // message dispatch only happens inside barriers — so under the
    // unoptimized protocol both the sample timestamps and the sampled
    // values must be bit-identical across same-seed runs, at every rank
    // count.
    for ranks in [1usize, 2, 4] {
        let (t1, r1) = unopt_traced_run(ranks, None);
        let (t2, r2) = unopt_traced_run(ranks, None);
        let (s1, s2) = (t1.series_snapshot(), t2.series_snapshot());
        assert!(!s1.is_empty(), "no series recorded at n_ranks={ranks}");
        assert_eq!(s1, s2, "series diverged between runs at n_ranks={ranks}");
        assert_eq!(
            r1.matrix, r2.matrix,
            "traffic matrix diverged between runs at n_ranks={ranks}"
        );
        // Every rank contributes one track of each runtime and engine gauge.
        for name in RUNTIME_GAUGES.iter().chain(&["heap_updates", "dist_evals"]) {
            let on: Vec<u64> = (s1.iter().filter(|s| s.name == *name))
                .map(|s| s.rank)
                .collect();
            assert_eq!(
                on,
                (0..ranks as u64).collect::<Vec<_>>(),
                "gauge {name:?} at n_ranks={ranks}"
            );
        }
    }
}

/// What `ygm::Comm` samples on every rank of a fault-free world.
const RUNTIME_GAUGES: [&str; 3] = ["send_buf_bytes", "send_buf_max_bytes", "send_buf_dests"];

#[test]
fn series_stay_linear_in_ranks() {
    // A rank samples a fixed set of gauges, never one per peer: at 32 ranks
    // no track is named for a destination, every rank carries each runtime
    // gauge exactly once, and the engine adds a fixed few per rank.
    let ranks = 32;
    let (t, _) = unopt_traced_run(ranks, None);
    let series = t.series_snapshot();
    assert!(
        series.iter().all(|s| !s.name.contains(".d")),
        "a per-destination track"
    );
    for name in RUNTIME_GAUGES {
        let on: Vec<u64> = (series.iter().filter(|s| s.name == name))
            .map(|s| s.rank)
            .collect();
        assert_eq!(on, (0..ranks as u64).collect::<Vec<_>>(), "{name}");
    }
    assert!(series.len() <= 6 * ranks, "{} tracks", series.len());
}

#[test]
fn matrix_sums_equal_reported_tag_totals() {
    // The rank×rank matrix includes the diagonal (rank-local sends), so
    // each tag's cells must sum to the per-tag totals exactly, and the
    // off-diagonal part to the remote totals — for the optimized protocol
    // too, whose Type 3 traffic depends on the bound each Type 1 reads.
    let (_, report) = traced_build(5);
    let n = report.n_ranks;
    assert_eq!(report.matrix.n_ranks, n as u64);
    assert_eq!(report.matrix.tags.len(), report.tags.len());
    for (tag, _, s) in &report.tags {
        let m = report
            .matrix
            .tags
            .iter()
            .find(|mt| mt.tag == u64::from(*tag))
            .unwrap_or_else(|| panic!("tag {tag} missing from matrix"));
        assert_eq!(m.counts.iter().sum::<u64>(), s.count, "tag {tag} counts");
        assert_eq!(m.bytes.iter().sum::<u64>(), s.bytes, "tag {tag} bytes");
        let off_diag = |cells: &[u64]| -> u64 {
            cells
                .iter()
                .enumerate()
                .filter(|(i, _)| i / n != i % n)
                .map(|(_, v)| v)
                .sum()
        };
        assert_eq!(off_diag(&m.counts), s.remote_count, "tag {tag} remote");
        assert_eq!(off_diag(&m.bytes), s.remote_bytes, "tag {tag} remote bytes");
    }

    // The invariant carries through the RunReport translation.
    let rr = dnnd::obs_report::report_from_build("it", &report);
    let ms = rr
        .matrix
        .as_ref()
        .expect("construct reports carry a matrix");
    assert_eq!(ms.total_counts().iter().sum::<u64>(), rr.total_count);
    assert_eq!(ms.total_bytes().iter().sum::<u64>(), rr.total_bytes);
}

/// Pull the `(id, name, tid)` triples of one flow-arrow half out of an
/// exported Chrome trace.
fn flow_halves(events: &[JsonValue], ph: &str) -> Vec<(String, String, u64)> {
    events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(JsonValue::as_str) == Some("flow")
                && e.get("ph").and_then(JsonValue::as_str) == Some(ph)
        })
        .map(|e| {
            (
                e.get("id").unwrap().as_str().unwrap().to_string(),
                e.get("name").unwrap().as_str().unwrap().to_string(),
                e.get("tid").unwrap().as_u64().unwrap(),
            )
        })
        .collect()
}

#[test]
fn flow_event_halves_pair_exactly() {
    // Reliable delivery means every flushed frame's tagged payload is
    // dispatched exactly once — so the exported trace must contain a
    // bijection between flow sends and flow recvs on id: no orphan recv
    // (a message from nowhere) and no orphan send (a lost message).
    let (t, _) = traced_build(3);
    let doc = trace_doc(&t);
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let sends = flow_halves(events, "s");
    let recvs = flow_halves(events, "f");
    assert!(!sends.is_empty(), "no flow arrows recorded");

    let mut send_ids: Vec<&str> = sends.iter().map(|(id, _, _)| id.as_str()).collect();
    let mut recv_ids: Vec<&str> = recvs.iter().map(|(id, _, _)| id.as_str()).collect();
    send_ids.sort_unstable();
    recv_ids.sort_unstable();
    let unique = send_ids.windows(2).all(|w| w[0] != w[1]);
    assert!(unique, "flow ids must be minted once per arrow");
    assert_eq!(send_ids, recv_ids, "flow sends and recvs must pair 1:1");

    // The optimized protocol's paper tags all draw arrows; the plain
    // Type 2 arrow is covered by the unoptimized run below.
    for tag in ["Type 1", "Type 2+", "Type 3"] {
        assert!(
            sends.iter().any(|(_, n, _)| n == tag),
            "no flow arrows for {tag:?}"
        );
    }
    // Cross-rank arrows exist (tid differs between the two halves).
    let send_rank: std::collections::HashMap<&str, u64> = sends
        .iter()
        .map(|(id, _, tid)| (id.as_str(), *tid))
        .collect();
    assert!(
        recvs
            .iter()
            .any(|(id, _, tid)| send_rank.get(id.as_str()) != Some(tid)),
        "expected at least one cross-rank arrow"
    );

    // The unoptimized protocol draws the plain Type 2 arrows, and its
    // pairing is exact too.
    let (t, _) = unopt_traced_run(4, None);
    let doc = trace_doc(&t);
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let sends = flow_halves(events, "s");
    let recvs = flow_halves(events, "f");
    for tag in ["Type 1", "Type 2"] {
        assert!(
            sends.iter().any(|(_, n, _)| n == tag),
            "no flow arrows for {tag:?}"
        );
    }
    let mut send_ids: Vec<&str> = sends.iter().map(|(id, _, _)| id.as_str()).collect();
    let mut recv_ids: Vec<&str> = recvs.iter().map(|(id, _, _)| id.as_str()).collect();
    send_ids.sort_unstable();
    recv_ids.sort_unstable();
    assert_eq!(send_ids, recv_ids);
}

/// FNV-1a over every flow event of `t`'s Chrome export as sorted `(id,
/// name, tid)` triples: which arrows a run draws, free of timestamps and of
/// the order the ranks recorded them in.
fn flow_identity(t: &Tracer) -> (usize, u64) {
    let doc = trace_doc(t);
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut flows = [flow_halves(events, "s"), flow_halves(events, "f")].concat();
    flows.sort();
    let mut bytes = Vec::new();
    for (id, name, tid) in &flows {
        bytes.extend_from_slice(id.as_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&tid.to_le_bytes());
    }
    (flows.len(), metall::checksum::fnv1a(&bytes))
}

#[test]
fn flow_identity_is_pinned() {
    // An arrow's id is its tag, source, destination and the frame's number
    // on that edge, which both halves compute on their own. These digests
    // pin every arrow of a 4-rank build per protocol and of a lossy one,
    // whose retransmits and duplicates must each still draw their frame's
    // arrow exactly once: a change to how frames are numbered moves them.
    let (optimized, _) = traced_build(3);
    let (unoptimized, _) = unopt_traced_run(4, None);
    let (lossy, report) = unopt_traced_run(4, Some("lossy"));
    let f = report.faults.as_ref().expect("fault section");
    assert!(f.retransmits > 0 && f.duplicated > 0, "{f:?}");
    let got = [
        flow_identity(&optimized),
        flow_identity(&unoptimized),
        flow_identity(&lossy),
    ];
    let want = [
        (1_152, 0x95a1_c784_3d1f_2e35),
        (528, 0x2411_f705_767e_cd75),
        (7_360, 0xdb80_ae90_1b39_c688),
    ];
    assert_eq!(got, want, "{got:x?}");
}

/// An untraced unoptimized build, optionally under a fault plan — the
/// configuration whose critical-path report must replay bit-identically.
fn unopt_report(n_ranks: usize, profile: Option<&str>) -> BuildReport {
    let set = Arc::new(synth::uniform(300, 8, 7));
    let mut world = World::new(n_ranks);
    if let Some(p) = profile {
        let prof = ygm::FaultProfile::by_name(p).expect("known profile");
        world = world.fault_plan(ygm::FaultPlan::new(prof, 5));
    }
    build(
        &world,
        &set,
        &L2,
        DnndConfig::new(6)
            .seed(11)
            .comm_opts(CommOpts::unoptimized())
            .max_iters(4),
    )
    .report
}

#[test]
fn critical_path_report_is_bit_identical_and_sums_exactly() {
    // The entire section is a pure function of the seeds, sim seed
    // included: fault decisions are a PRF of (src, dest, frame seq,
    // attempt), and frame sequence numbers, the round a frame is dispatched
    // in and the epoch a retransmit fires at follow from what the ranks
    // flushed, so rerunning reproduces every transport charge — and with
    // them the per-phase critical rank, every bucket and sim_ns — bit for
    // bit. In every configuration the attribution must also sum to the
    // run's own virtual clock with zero error, per phase and overall.
    for ranks in [1usize, 2, 4] {
        for profile in [None, Some("lossy")] {
            let r1 = unopt_report(ranks, profile);
            let r2 = unopt_report(ranks, profile);
            let a = dnnd::obs_report::report_from_build("it", &r1);
            let b = dnnd::obs_report::report_from_build("it", &r2);
            let ca = a.critical_path.as_ref().expect("section present");
            let cb = b.critical_path.as_ref().expect("section present");
            assert_eq!(
                ca, cb,
                "critical path diverged at n_ranks={ranks} profile={profile:?}"
            );
            assert_eq!(r1.faults, r2.faults);

            assert_eq!(ca.n_ranks as usize, ranks);
            assert_eq!(ca.critical_path_ns, r1.sim_ns, "path length = clock");
            assert_eq!(
                ca.attribution_sum_ns(),
                ca.critical_path_ns,
                "attribution must sum exactly at n_ranks={ranks} profile={profile:?}"
            );
            for p in &ca.phase_attribution {
                assert_eq!(
                    p.compute_ns + p.comm_ns + p.stall_ns + p.retransmit_ns,
                    p.total_ns,
                    "phase {} buckets must sum to its clock increment",
                    p.index
                );
            }
            // Under faults the transport charge shows up on the path.
            if profile.is_some() && ranks > 1 {
                assert!(
                    r1.faults.as_ref().is_some_and(|f| f.retransmits > 0),
                    "lossy profile should retransmit at n_ranks={ranks}"
                );
            }
            // The section survives the JSON round trip bit for bit.
            let back = RunReport::parse(&a.to_json_string()).unwrap();
            assert_eq!(back.critical_path.as_ref(), Some(ca));
        }
    }
}

fn tmpdir(tag: &str) -> TmpDir {
    TmpDir::new(tag)
}

/// One seeded 4-rank build of the paper's optimized protocol, observed and
/// written through `outs`; its tracer and its report as read back from the
/// file, with the wall clock zeroed.
fn observed_build(outs: &ObsOuts) -> (Arc<Tracer>, RunReport) {
    let tracer = outs.tracer(4).expect("an output was asked for");
    let set = Arc::new(synth::uniform(400, 8, 7));
    let world = World::new(4).tracer(Arc::clone(&tracer));
    let out = build(&world, &set, &L2, DnndConfig::new(6).seed(11));
    outs.write(Some(&tracer), || report_from_build("it", &out.report))
        .expect("outputs written");
    let text = std::fs::read_to_string(&outs.report).unwrap();
    let mut report = RunReport::parse(&text).expect("report parses");
    report.wall_secs = 0.0;
    (tracer, report)
}

#[test]
fn the_report_does_not_depend_on_the_trace() {
    let dir = tmpdir("report-only");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let report_only = ObsOuts {
        report: path("alone.json"),
        ..ObsOuts::default()
    };
    let traced = ObsOuts {
        trace: path("trace.json"),
        report: path("traced.json"),
        ..ObsOuts::default()
    };
    let (spanless, alone) = observed_build(&report_only);
    let (spans, with_trace) = observed_build(&traced);
    // A report-only run records no span; the histograms and gauge series
    // the report reads are recorded all the same.
    assert_eq!(spanless.total_events(), 0);
    assert!(spans.total_events() > 1_000, "{}", spans.total_events());
    assert!(!alone.histograms.is_empty() && !alone.series.is_empty());
    assert_eq!(alone, with_trace);
    // The span-ring overflow lives in the trace, per rank.
    let doc = JsonValue::parse(&std::fs::read_to_string(&traced.trace).unwrap()).unwrap();
    let other = doc.get("otherData").unwrap();
    assert_eq!(
        other.get("dropped_events").and_then(JsonValue::as_u64),
        Some(0)
    );
    let per_rank = other
        .get("dropped_events_per_rank")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(per_rank, vec![JsonValue::Int(0); 4]);
}

#[test]
fn streamed_exports_are_the_documents_and_write_errors_are_returned() {
    let full = include_str!("fixtures/report_full.json");
    let report = RunReport::parse(full).unwrap();
    let dir = tmpdir("streamed");
    let outs = ObsOuts {
        report: dir.join("r.json").to_str().unwrap().to_string(),
        ..ObsOuts::default()
    };
    outs.write_report(&report).unwrap();
    assert_eq!(
        std::fs::read_to_string(&outs.report).unwrap(),
        report.to_json_string()
    );
    assert_eq!(report.to_json_string(), full);

    // A writer that fails part-way is an error from either exporter, at
    // every cut, and never a panic.
    let (tracer, _) = traced_build(3);
    let mut trace = Vec::new();
    write_chrome_trace(&tracer, &mut trace).unwrap();
    fails_at_every_cut(full.len(), |mut w| write!(w, "{:#}", report.to_json()));
    fails_at_every_cut(trace.len(), |w| write_chrome_trace(&tracer, w));
}

/// `export` of a `len`-byte document into a writer that takes fewer bytes
/// returns the writer's error, and into one that takes them all succeeds.
fn fails_at_every_cut(len: usize, export: impl Fn(FailAfter) -> std::io::Result<()>) {
    for budget in [0, 1, 100, len / 2, len - 1] {
        let err = export(FailAfter { budget }).unwrap_err();
        assert_eq!(err.to_string(), "disk full", "cut at {budget} of {len}");
    }
    assert!(export(FailAfter { budget: len }).is_ok());
}

/// A full disk: `ObsOuts::write` returns the one-line reason for whichever
/// file it could not finish.
#[cfg(target_os = "linux")]
#[test]
fn a_full_disk_is_the_one_line_reason() {
    let (tracer, build) = traced_build(3);
    let report = || report_from_build("it", &build);
    for outs in [
        ObsOuts {
            trace: "/dev/full".into(),
            ..ObsOuts::default()
        },
        ObsOuts {
            report: "/dev/full".into(),
            ..ObsOuts::default()
        },
    ] {
        let err = outs.write(Some(&tracer), report).unwrap_err();
        assert!(err.starts_with("cannot write /dev/full: "), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }
}

#[test]
fn cli_trace_and_report_flags_emit_valid_json() {
    let dir = tmpdir("cli");
    let store = dir.join("store");
    let trace = dir.join("trace.json");
    let report = dir.join("report.json");

    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-construct"))
        .args([
            "--input",
            "preset:deep1b",
            "--n",
            "400",
            "--k",
            "6",
            "--ranks",
            "4",
            "--seed",
            "9",
            "--store",
            store.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--report-out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dnnd-construct");
    assert!(
        out.status.success(),
        "construct failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = JsonValue::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace JSON");
    let n_ranks = doc
        .get("otherData")
        .and_then(|o| o.get("n_ranks"))
        .and_then(|v| v.as_u64());
    assert_eq!(n_ranks, Some(4));

    let rr = RunReport::parse(&std::fs::read_to_string(&report).unwrap()).expect("report JSON");
    assert_eq!(rr.binary, "dnnd-construct");
    assert_eq!(rr.n_ranks, 4);
    assert!(rr.total_bytes > 0);
    assert!(rr.tags.iter().any(|t| t.name == "Type 2+"));
    assert!(rr.iterations >= 1);
    assert!(!rr.histograms.is_empty());
}

#[test]
fn cli_dashboard_is_self_contained_with_all_sections() {
    let dir = tmpdir("dash");
    let store = dir.join("store");
    let dash = dir.join("dash.html");
    let report = dir.join("report.json");

    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-construct"))
        .args([
            "--input",
            "preset:deep1b",
            "--n",
            "400",
            "--k",
            "6",
            "--ranks",
            "4",
            "--seed",
            "9",
            "--store",
            store.to_str().unwrap(),
            "--dashboard-out",
            dash.to_str().unwrap(),
            "--report-out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dnnd-construct");
    assert!(
        out.status.success(),
        "construct failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let html = std::fs::read_to_string(&dash).expect("dashboard written");
    // Self-contained: renders offline with no network fetches or scripts.
    for forbidden in ["http://", "https://", "<script", "src=", "@import", "url("] {
        assert!(
            !html.contains(forbidden),
            "dashboard must not contain {forbidden:?}"
        );
    }
    // Every part of the report is a section named by its key: the charted
    // lists (phase timeline, rank×rank heatmap under the matrix's tags,
    // convergence, telemetry series) and the per-tag traffic table.
    for section in [
        "phases",
        "matrix",
        "matrix.tags",
        "convergence",
        "series",
        "tags",
        "critical_path",
        "params",
    ] {
        let id = format!("<section id=\"{section}\">");
        assert!(html.contains(&id), "dashboard missing {id}");
    }
    assert!(html.contains("destination rank →"), "heatmap missing");
    assert!(html.contains("send_buf_bytes"), "telemetry series missing");
    assert!(html.contains("<td>Type 2+</td>"), "per-tag table missing");

    // The JSON report next to it carries the telemetry
    // the dashboard rendered, plus the store's allocation high-water.
    let rr = RunReport::parse(&std::fs::read_to_string(&report).unwrap()).expect("report JSON");
    assert!(!rr.series.is_empty(), "report missing series");
    assert!(rr.matrix.is_some(), "report missing traffic matrix");
    assert!(
        rr.extra
            .iter()
            .any(|(k, v)| k == "store_high_water_bytes" && *v > 0.0),
        "report missing store_high_water_bytes"
    );
}
