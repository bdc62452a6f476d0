//! The RunReport document is pinned byte for byte: a fully populated
//! report and a minimal one serialize to the committed fixture text and
//! parse back equal, every key of the document is required and typed, a
//! document of another schema version is told to regenerate, and every
//! committed `BENCH_*.json` is a current summary. The fixtures were
//! captured from the hand-written `to_json` this table replaced, so the
//! next schema change has to touch them on purpose.

use obs::report::{HistReport, SCHEMA_VERSION};
use obs::{
    ConvergencePoint, CriticalPathSection, FaultSection, JsonValue as J, MatrixSection,
    MatrixTagReport, PhaseAttribution, PhaseReport, QueryExemplar, QueryForensicsSection,
    RnnRoundReport, RnnSection, RunReport, SeriesPoint, SeriesSnapshot, ServingSection, TagReport,
    TenantSloSection, VdbNamespaceSection, VdbSection,
};
use proptest::prelude::*;

const FULL: &str = include_str!("fixtures/report_full.json");
const MINIMAL: &str = include_str!("fixtures/report_minimal.json");

fn tenant(name: &str, offered: u64, shed: u64, attainment: f64) -> TenantSloSection {
    TenantSloSection {
        name: name.into(),
        share_pct: 50,
        offered,
        admitted: offered - shed - 10,
        answered: offered - shed - 30,
        cache_hits: 20,
        shed_overload: shed,
        shed_deadline: 10,
        degraded: 12,
        slo_attainment: attainment,
        p50_ns: 500_000,
        p99_ns: 2_000_000,
        latency_hist: vec![(1, 180), (2, 35)],
    }
}

fn exemplar(idx: u64, verdict: &str, why: &str, hash: u64, miss: bool) -> QueryExemplar {
    QueryExemplar {
        idx,
        pool_id: idx * 2 + 7,
        tenant: idx % 2,
        verdict: verdict.into(),
        why: why.into(),
        degrade_level: idx % 3,
        cache_key_hash: hash,
        arrived_slot: 10,
        done_slot: 17,
        admission_slots: 0,
        batch_wait_slots: 2,
        dispatch_slots: 4,
        search_slots: 1,
        response_slots: 0,
        latency_slots: 7,
        expansions: 12,
        dist_evals: 340,
        rounds: 13,
        deadline_miss: miss,
    }
}

fn namespace(name: &str, points: u64, epoch: u64) -> VdbNamespaceSection {
    VdbNamespaceSection {
        name: name.into(),
        points,
        live: points - 70,
        tombstones: 20,
        dead: 50,
        epoch,
        inserts: 12,
        deletes: 70,
        compactions: 2,
    }
}

/// Every section present, every list non-empty, both digests above 2^53.
fn full_report() -> RunReport {
    let mut r = RunReport::new("dnnd-golden");
    r.param("input", "preset:deep1b,n=600")
        .param("seed", 7)
        .param("note", "a \"quoted\" \\ value\nwith a newline");
    r.n_ranks = 2;
    r.iterations = 6;
    r.distance_evals = 123_456;
    r.sim_secs = 1.5;
    r.wall_secs = 0.25;
    r.compute_secs = 0.9;
    r.comm_secs = 0.4;
    r.barrier_secs = 0.2;
    r.tags = vec![
        TagReport {
            tag: 14,
            name: "Type 1".into(),
            count: 100,
            bytes: 6_400,
            remote_count: 75,
            remote_bytes: 4_800,
        },
        TagReport {
            tag: 16,
            name: "Type 2+".into(),
            count: 40,
            bytes: 16_000,
            remote_count: 20,
            remote_bytes: 8_000,
        },
    ];
    r.total_count = 140;
    r.total_bytes = 22_400;
    r.total_remote_count = 95;
    r.total_remote_bytes = 12_800;
    r.phases = vec![
        PhaseReport {
            index: 0,
            compute_secs: 0.1,
            comm_secs: 0.05,
            barrier_secs: 0.01,
            msgs: 10,
            bytes: 640,
        },
        PhaseReport {
            index: 1,
            compute_secs: 0.8,
            comm_secs: 0.35,
            barrier_secs: 0.19,
            msgs: 130,
            bytes: 21_760,
        },
    ];
    r.convergence = vec![
        ConvergencePoint {
            iteration: 0,
            updates: 500,
        },
        ConvergencePoint {
            iteration: 1,
            updates: 17,
        },
    ];
    r.recall = Some(0.97);
    r.histograms = vec![HistReport {
        name: "flush_bytes".into(),
        count: 100,
        mean: 50.5,
        min: 1,
        max: 100,
        p50: 50,
        p95: 95,
        p99: 99,
    }];
    r.metric("queries_per_sec", 1234.5)
        .metric("store_high_water_bytes", 273_637.0);
    r.faults = Some(FaultSection {
        sim_seed: 424_242,
        profile: "stormy".into(),
        dropped: 12,
        duplicated: 3,
        delayed: 9,
        stalls: 2,
        jittered_flushes: 40,
        retransmits: 15,
        dedup_discards: 5,
        forced_deliveries: 1,
    });
    r.series = vec![
        SeriesSnapshot {
            name: "send_buf_bytes".into(),
            rank: 0,
            points: vec![
                SeriesPoint {
                    t_ns: 10_000,
                    value: 128.0,
                },
                SeriesPoint {
                    t_ns: 20_000,
                    value: 96.5,
                },
            ],
        },
        SeriesSnapshot {
            name: "send_buf_bytes".into(),
            rank: 1,
            points: vec![SeriesPoint {
                t_ns: 10_000,
                value: 64.0,
            }],
        },
    ];
    r.matrix = Some(MatrixSection {
        n_ranks: 2,
        tags: vec![
            MatrixTagReport {
                tag: 14,
                name: "Type 1".into(),
                counts: vec![10, 20, 30, 40],
                bytes: vec![100, 200, 300, 5_800],
            },
            MatrixTagReport {
                tag: 16,
                name: "Type 2+".into(),
                counts: vec![20, 5, 15, 0],
                bytes: vec![8_000, 2_000, 6_000, 0],
            },
        ],
    });
    r.serving = Some(ServingSection {
        serve_seed: 777,
        slot_ns: 250_000,
        slots: 64,
        offered: 500,
        admitted: 430,
        answered: 400,
        cache_hits: 50,
        cache_evictions: 7,
        shed_deadline: 20,
        shed_overload: 30,
        degraded: 35,
        max_queue_depth: 48,
        p50_ns: 500_000,
        p95_ns: 1_750_000,
        p99_ns: 2_500_000,
        mean_latency_ns: 612_500.25,
        latency_hist: vec![(1, 300), (2, 80), (7, 15), (10, 5)],
        client_p50_ns: 750_000,
        client_p99_ns: 3_250_000,
        client_hist: vec![(1, 280), (3, 100), (13, 20)],
        tenants: vec![tenant("gold", 250, 5, 0.98), tenant("free", 250, 25, 0.82)],
        result_digest: 0xDEAD_BEEF_CAFE_F00D,
    });
    r.critical_path = Some(CriticalPathSection {
        n_ranks: 2,
        phases: 2,
        critical_path_ns: 12_000,
        collective_ns: 1_220,
        compute_ns: 7_000,
        comm_ns: 2_780,
        stall_ns: 600,
        retransmit_ns: 400,
        rank_slack_ns: vec![0.0, 5_644.5],
        rank_critical_phases: vec![2, 0],
        straggler_score: 0.25,
        phase_attribution: vec![
            PhaseAttribution {
                index: 0,
                total_ns: 10_003,
                compute_ns: 7_000,
                comm_ns: 2_003,
                stall_ns: 600,
                retransmit_ns: 400,
                critical_rank: 0,
            },
            PhaseAttribution {
                index: 1,
                total_ns: 777,
                compute_ns: 0,
                comm_ns: 777,
                stall_ns: 0,
                retransmit_ns: 0,
                critical_rank: 1,
            },
        ],
    });
    r.rnn = Some(RnnSection {
        t1: 3,
        t2: 8,
        k0: 10,
        r: 30,
        rounds: vec![
            RnnRoundReport {
                outer: 0,
                inner: 0,
                pairs: 4_200,
                pruned: 310,
                added: 295,
            },
            RnnRoundReport {
                outer: 0,
                inner: 1,
                pairs: 900,
                pruned: 40,
                added: 12,
            },
        ],
        reverse_added: vec![1_800, 120, 7],
        dist_evals: 5_100,
        repaired: 2,
    });
    r.query_forensics = Some(QueryForensicsSection {
        window_slots: 8,
        slow_n: 4,
        considered: 150,
        retained: 2,
        retained_slow: 1,
        retained_exemplar: 1,
        stage_hists: vec![
            ("admission".into(), vec![(0, 150)]),
            ("batch_wait".into(), vec![(0, 100), (2, 50)]),
            ("dispatch".into(), vec![(0, 140), (4, 10)]),
            ("search".into(), vec![(1, 150)]),
            ("response".into(), vec![(0, 150)]),
        ],
        exemplars: vec![
            exemplar(3, "shed_overload", "shed", 1, false),
            exemplar(
                17,
                "answered",
                "slow|deadline_miss",
                0xABCD_EF01_2345_6789,
                true,
            ),
        ],
        digest: 0xFEED_FACE_0123_4567,
    });
    r.vdb = Some(VdbSection {
        namespaces: vec![namespace("prod", 1_000, 3), namespace("staging", 240, 5)],
        filtered_queries: 44,
        cache_suppressed_ids: 5,
        selectivity_hist: vec![(1, 10), (4, 30), (9, 4)],
    });
    r
}

/// Every optional part absent: no section, no list entry, no recall.
fn minimal_report() -> RunReport {
    RunReport::new("dnnd-minimal")
}

#[test]
fn full_and_minimal_reports_match_the_committed_text_and_parse_back() {
    for (report, text) in [(full_report(), FULL), (minimal_report(), MINIMAL)] {
        assert_eq!(report.to_json_string(), text, "{} drifted", report.binary);
        assert_eq!(RunReport::parse(text).unwrap(), report);
        // The compact emission carries the same document.
        assert_eq!(
            RunReport::parse(&report.to_json().to_string()).unwrap(),
            report
        );
    }
    let full = RunReport::parse(FULL).unwrap();
    let m = full.matrix.as_ref().unwrap();
    assert_eq!(m.total_counts(), vec![30, 25, 45, 40]);
    assert_eq!(m.total_bytes().iter().sum::<u64>(), full.total_bytes);
    let q = full.query_forensics.as_ref().unwrap();
    assert!(q.exemplars.iter().all(|e| e.stage_sum() == e.latency_slots));
    assert_eq!(
        full.critical_path.as_ref().unwrap().attribution_sum_ns(),
        12_000
    );
}

/// Keys whose absence is a run kind, not damage: the optional sections
/// and the omit-when-empty list.
const OPTIONAL: &[&str] = &[
    "matrix",
    "serving",
    "serving.tenants",
    "critical_path",
    "rnn",
    "query_forensics",
    "vdb",
    "faults",
];

#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Path of every object key in the document, depth first.
fn key_paths(v: &J, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        J::Obj(fields) => {
            for (k, child) in fields {
                at.push(Step::Key(k.clone()));
                out.push(at.clone());
                key_paths(child, at, out);
                at.pop();
            }
        }
        J::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                at.push(Step::Index(i));
                key_paths(child, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'a>(root: &'a mut J, path: &[Step]) -> &'a mut J {
    path.iter().fold(root, |node, step| match (node, step) {
        (J::Obj(fields), Step::Key(k)) => &mut fields.iter_mut().find(|(fk, _)| fk == k).unwrap().1,
        (J::Arr(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("path does not fit the document"),
    })
}

fn dotted(path: &[Step]) -> String {
    let keys: Vec<&str> = path
        .iter()
        .filter_map(|s| match s {
            Step::Key(k) => Some(k.as_str()),
            Step::Index(_) => None,
        })
        .collect();
    keys.join(".")
}

#[test]
fn every_key_is_required_and_typed() {
    let doc = J::parse(FULL).unwrap();
    let mut paths = Vec::new();
    key_paths(&doc, &mut Vec::new(), &mut paths);
    assert!(paths.len() > 300, "walked only {} keys", paths.len());
    for path in &paths {
        let name = dotted(path);
        let (last, parent) = path.split_last().unwrap();
        let Step::Key(key) = last else { unreachable!() };

        // Retyped: never a default, whatever the key.
        let mut retyped = doc.clone();
        let node = node_mut(&mut retyped, path);
        *node = match node {
            J::Bool(_) => J::Int(7),
            _ => J::Bool(true),
        };
        assert!(
            RunReport::from_json(&retyped).is_err(),
            "retyped '{name}' was accepted"
        );

        // Deleted: an error, except where absence is part of the schema.
        // `params` / `extra` entries are free-form, not keys of the schema.
        if name.starts_with("params.") || name.starts_with("extra.") {
            continue;
        }
        let mut deleted = doc.clone();
        let J::Obj(fields) = node_mut(&mut deleted, parent) else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != key);
        let parsed = RunReport::from_json(&deleted);
        if OPTIONAL.contains(&name.as_str()) {
            // Absent stays absent: nothing is filled in on the way through.
            assert_eq!(parsed.unwrap().to_json(), deleted, "'{name}' came back");
        } else {
            assert!(parsed.is_err(), "document without '{name}' was accepted");
        }
    }
}

#[test]
fn damaged_values_are_errors_not_defaults() {
    let damage = |from: &str, to: &str| {
        assert!(FULL.contains(from), "fixture lost {from}");
        RunReport::parse(&FULL.replacen(from, to, 1))
    };
    // A digest that is not 16 hex digits' worth of u64.
    assert!(damage("\"deadbeefcafef00d\"", "\"not-a-digest\"").is_err());
    // A matrix row that lost a cell.
    let mut short = full_report();
    short.matrix.as_mut().unwrap().tags[0].counts.pop();
    assert!(RunReport::parse(&short.to_json_string()).is_err());
    // n_ranks² must not wrap to "zero cells expected".
    let mut hostile = minimal_report();
    hostile.matrix = Some(MatrixSection {
        n_ranks: 1 << 32,
        tags: Vec::new(),
    });
    assert!(RunReport::parse(&hostile.to_json_string()).is_err());
    // A negative or fractional counter.
    assert!(damage("\"iterations\": 6", "\"iterations\": -6").is_err());
    assert!(damage("\"iterations\": 6", "\"iterations\": 6.5").is_err());
}

#[test]
fn a_document_of_another_schema_version_is_told_to_regenerate() {
    let stamp = format!("\"schema_version\": {SCHEMA_VERSION}");
    for other in [4, SCHEMA_VERSION + 1] {
        let text = FULL.replacen(&stamp, &format!("\"schema_version\": {other}"), 1);
        let err = RunReport::parse(&text).unwrap_err().to_string();
        assert!(err.contains(&format!("schema_version {other}")), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }
}

/// Drivers whose `--report-out` exists to be a baseline write summaries.
const SWEEP_DRIVERS: &[&str] = &["kernels", "rnn", "serve", "serve-flash", "serve-vdb"];

#[test]
fn committed_baselines_are_current_summaries_within_the_size_budget() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 6, "baselines went missing: {names:?}");
    let mut total_bytes = 0;
    for name in &names {
        let text = std::fs::read_to_string(root.join(name)).unwrap();
        total_bytes += text.len();
        let doc = J::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(J::as_u64),
            Some(SCHEMA_VERSION),
            "{name}: regenerate it (README \"RunReport schema\")"
        );
        let r = RunReport::from_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        if SWEEP_DRIVERS.contains(&r.binary.as_str()) {
            let events = r.phases.len()
                + r.series.len()
                + r.critical_path
                    .as_ref()
                    .map_or(0, |c| c.phase_attribution.len())
                + r.query_forensics.as_ref().map_or(0, |q| q.exemplars.len());
            assert_eq!(events, 0, "{name} carries per-event lists");
        }
    }
    assert!(
        total_bytes <= 100_000,
        "BENCH_*.json total {total_bytes} bytes (budget 100 000)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serialize → parse is the identity whichever optional parts are
    /// present, however long the lists are, and for full-range digests.
    #[test]
    fn round_trip_property(
        present in 0u32..256,
        counts in proptest::collection::vec(0u64..(1 << 53), 0..12),
        digest in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let mut r = full_report();
        let keep = |bit: u32| present & (1 << bit) != 0;
        r.recall = keep(0).then_some(frac);
        if !keep(1) { r.matrix = None; }
        if !keep(2) { r.critical_path = None; }
        if !keep(3) { r.rnn = None; }
        if !keep(4) { r.query_forensics = None; }
        if !keep(5) { r.vdb = None; }
        if !keep(6) { r.faults = None; }
        r.serving = keep(7).then(|| ServingSection {
            serve_seed: counts.first().copied().unwrap_or(0),
            offered: counts.len() as u64,
            mean_latency_ns: frac * 1e9,
            latency_hist: counts.iter().enumerate().map(|(i, &c)| (i as u64, c)).collect(),
            tenants: counts.iter().take(3).map(|&c| tenant("t", c | 64, 1, frac)).collect(),
            result_digest: digest,
            ..Default::default()
        });
        if let Some(q) = &mut r.query_forensics {
            q.digest = !digest;
            q.exemplars = counts
                .iter()
                .map(|&c| exemplar(c, "answered", "slow", digest ^ c, c % 2 == 0))
                .collect();
        }
        if let Some(rnn) = &mut r.rnn {
            rnn.reverse_added = counts.clone();
        }
        r.series[0].points = counts
            .iter()
            .map(|&c| SeriesPoint { t_ns: c, value: c as f64 * frac })
            .collect();
        r.extra = counts.iter().map(|&c| (format!("m{c}"), c as f64 / 16.0)).collect();
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        prop_assert_eq!(back, r);
    }
}
