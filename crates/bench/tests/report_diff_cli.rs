//! End-to-end tests for the `dnnd-report-diff` regression gate: a report
//! diffed against itself passes, a clean run diffed against a stormy
//! (fault-injected) run of the same workload fails with a readable delta
//! table, and a damaged or out-of-date document is one `error:` line.

use dataset::{synth, L2};
use dnnd::obs_report::report_from_build;
use dnnd::{build, CommOpts, DnndConfig};
use obs::JsonValue as J;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use testutil::TmpDir;
use ygm::{FaultPlan, FaultProfile, World};

/// Build once (optionally under a fault plan) and write its RunReport.
fn write_run(path: &Path, plan: Option<FaultPlan>) {
    let set = Arc::new(synth::uniform(300, 8, 7));
    let mut world = World::new(4);
    if let Some(p) = plan {
        world = world.fault_plan(p);
    }
    let out = build(
        &world,
        &set,
        &L2,
        DnndConfig::new(6)
            .seed(11)
            .comm_opts(CommOpts::unoptimized())
            .max_iters(3),
    );
    let rr = report_from_build("e2e", &out.report);
    std::fs::write(path, rr.to_json_string()).unwrap();
}

fn diff_output(base: &Path, cand: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
        .args([base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("spawn dnnd-report-diff");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn diff(base: &Path, cand: &Path) -> (Option<i32>, String) {
    let (code, stdout, _) = diff_output(base, cand);
    (code, stdout)
}

#[test]
fn self_diff_passes_and_storm_diff_fails_readably() {
    let dir = TmpDir::new("report-diff-gate");
    let clean = dir.join("clean.json");
    let stormy = dir.join("stormy.json");
    write_run(&clean, None);
    write_run(
        &stormy,
        Some(FaultPlan::new(FaultProfile::by_name("stormy").unwrap(), 1)),
    );

    // A report is always within threshold of itself.
    let (code, stdout) = diff(&clean, &clean);
    assert_eq!(code, Some(0), "self-diff must exit 0:\n{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");

    // The stormy run retransmits (virtual time up, fault counters up from
    // zero): the gate must trip, exit 1, and name the offenders in an
    // aligned table.
    let (code, stdout) = diff(&clean, &stormy);
    assert_eq!(code, Some(1), "storm diff must exit 1:\n{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(
        stdout.contains("faults.retransmits"),
        "fault counters must appear in the delta table:\n{stdout}"
    );
    // Table header + per-metric rows are present and readable.
    for col in [
        "metric",
        "baseline",
        "candidate",
        "delta",
        "threshold",
        "status",
    ] {
        assert!(stdout.contains(col), "missing column {col:?}:\n{stdout}");
    }
}

#[test]
fn flags_may_stand_before_between_or_after_the_paths() {
    let dir = TmpDir::new("report-diff-flag-order");
    let clean = dir.join("clean.json");
    write_run(&clean, None);
    let (r, out) = (clean.to_str().unwrap(), dir.join("csv"));
    let out = out.to_str().unwrap();
    for line in [
        vec!["--threshold", "0", r, r],
        vec!["--out", out, r, r],
        vec![r, "--threshold", "0", r, "--out", out],
        vec![r, r, "--threshold", "0", "--out", out],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
            .args(&line)
            .output()
            .expect("spawn dnnd-report-diff");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{line:?}: {stderr}");
    }
}

#[test]
fn usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-report-diff"))
        .output()
        .expect("spawn dnnd-report-diff");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `doc` with the value under `section` → `key` replaced (or added).
fn with_value(doc: &J, section: &str, key: &str, value: J) -> String {
    let mut doc = doc.clone();
    let J::Obj(top) = &mut doc else {
        unreachable!()
    };
    let fields = match top.iter_mut().find(|(k, _)| k == section) {
        Some((_, J::Obj(fields))) => fields,
        _ => top,
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), value));
    doc.pretty()
}

#[test]
fn damaged_or_outdated_documents_exit_two_with_one_error_line() {
    let dir = TmpDir::new("report-diff-damaged");
    let clean = dir.join("clean.json");
    write_run(&clean, None);
    let doc = J::parse(&std::fs::read_to_string(&clean).unwrap()).unwrap();
    let no_tags = J::Obj(vec![
        ("n_ranks".into(), J::Num(4_294_967_296.0)),
        ("tags".into(), J::Arr(Vec::new())),
    ]);
    let cases = [
        // 200 000 open brackets: the parser used to recurse once per
        // bracket and overflow the stack (exit 134).
        ("deep", "[".repeat(200_000), "nesting deeper than 128"),
        // Baselines are regenerated, not parsed through old versions.
        (
            "v4",
            with_value(&doc, "", "schema_version", J::Int(4)),
            "schema_version 4 is not 9: regenerate",
        ),
        // These three used to read as "", 0.0 and "zero cells expected".
        (
            "param",
            with_value(&doc, "params", "seed", J::Int(7)),
            "'params.seed': expected a string",
        ),
        (
            "extra",
            with_value(&doc, "extra", "qps", J::str("fast")),
            "'extra.qps': expected a number",
        ),
        (
            "matrix",
            with_value(&doc, "", "matrix", no_tags),
            "'matrix.n_ranks': expected a rank count whose square fits",
        ),
        (
            "missing",
            with_value(&doc, "total", "bytes", J::Null),
            "'total.bytes': expected a non-negative integer",
        ),
    ];
    for (name, text, want) in cases {
        let bad = dir.join(&format!("{name}.json"));
        std::fs::write(&bad, text).unwrap();
        for (base, cand) in [(&clean, &bad), (&bad, &clean)] {
            let (code, stdout, stderr) = diff_output(base, cand);
            assert_eq!(code, Some(2), "{name}: {stderr}");
            assert_eq!(stdout, "", "{name}");
            let lines: Vec<&str> = stderr.lines().collect();
            assert_eq!(lines.len(), 1, "{name}: {stderr}");
            assert!(
                lines[0].starts_with("error: cannot parse"),
                "{name}: {stderr}"
            );
            assert!(lines[0].contains(want), "{name}: {stderr}");
        }
    }
}
