//! `dnnd-report-diff` — the RunReport regression gate.
//!
//! Compares a candidate report against a baseline metric-by-metric with
//! per-metric relative thresholds, prints an aligned delta table, and
//! exits nonzero when any gated metric regressed. Which values are
//! compared, under what names and against which thresholds is declared
//! once, in `obs::report`'s field tables ([`RunReport::leaves`]); this
//! tool joins two leaf lists and does the arithmetic.
//!
//! ```text
//! dnnd-report-diff baseline.json candidate.json [--threshold 0.05] [--out results/]
//! ```
//!
//! The flags may stand anywhere: before, between or after the two paths.
//!
//! Exit codes: `0` within thresholds, `1` regression detected, `2` usage
//! or I/O error. Virtual-clock metrics are gated (they are deterministic
//! under `--sim-seed`); `wall_secs` is reported but never gated because
//! real time depends on the host. `--threshold` overrides every gated
//! metric's threshold at once (tightening or loosening the whole gate).

use bench::{Args, Table};
use obs::report::{Gate, Leaf};
use obs::RunReport;
use std::process::ExitCode;

/// One compared value: a leaf both reports were asked for, joined by path.
#[derive(Debug, Clone)]
struct MetricRow {
    name: String,
    base: f64,
    cand: f64,
    /// The leaf's gate, with `--threshold` applied.
    gate: Gate,
}

impl MetricRow {
    /// Signed relative delta `(cand - base) / base`; `None` when the
    /// baseline is zero and the candidate moved (infinite relative change).
    fn rel_delta(&self) -> Option<f64> {
        match (self.base == 0.0, self.cand == 0.0) {
            (true, true) => Some(0.0),
            (true, false) => None,
            _ => Some((self.cand - self.base) / self.base),
        }
    }

    /// Relative threshold of a gated row (0.05 = 5% movement allowed).
    fn threshold(&self) -> Option<f64> {
        match self.gate {
            Gate::Rise(t) | Gate::Fall(t) => Some(t),
            Gate::Info | Gate::Section => None,
        }
    }

    fn regressed(&self) -> bool {
        match (self.gate, self.rel_delta()) {
            (Gate::Info | Gate::Section, _) => false,
            // 0 -> nonzero: infinite relative growth.
            (_, None) => self.cand > self.base,
            (Gate::Rise(t), Some(d)) => d > t,
            (Gate::Fall(t), Some(d)) => -d > t,
        }
    }
}

/// Join the two reports' leaves by path into rows, in the baseline's
/// document order with candidate-only leaves after. One rule for every
/// part of the document: a row appears when either report carries the
/// leaf, and the side without it reads as zero — so a section only the
/// candidate has (new fault activity, say) gates as growth from zero.
/// `thr` overrides every gated row's threshold.
///
/// The second list names the optional parts the baseline carries and the
/// candidate lacks. A producer silently dropping a section must not slip
/// past the gate as "nothing to compare", so those are a hard failure;
/// their rows (against zeros) are context for it.
fn collect(base: &RunReport, cand: &RunReport, thr: Option<f64>) -> (Vec<MetricRow>, Vec<String>) {
    let (base, cand) = (base.leaves(), cand.leaves());
    let value = |side: &[Leaf], path: &str| side.iter().find(|l| l.path == path).map(|l| l.value);
    let cand_only = cand.iter().filter(|l| value(&base, &l.path).is_none());
    let (mut rows, mut missing) = (Vec::new(), Vec::new());
    for leaf in base.iter().chain(cand_only) {
        let (b, c) = (value(&base, &leaf.path), value(&cand, &leaf.path));
        let gate = match (leaf.gate, thr) {
            (Gate::Section, _) => {
                if c.is_none() {
                    missing.push(leaf.path.clone());
                }
                continue;
            }
            (Gate::Rise(_), Some(t)) => Gate::Rise(t),
            (Gate::Fall(_), Some(t)) => Gate::Fall(t),
            (gate, _) => gate,
        };
        rows.push(MetricRow {
            name: leaf.path.clone(),
            base: b.unwrap_or(0.0),
            cand: c.unwrap_or(0.0),
            gate,
        });
    }
    (rows, missing)
}

/// Bit-identity hard check: the forensics digest is a pure function of
/// the serve seed and parameters, so when both reports carry the section
/// the digests must match verbatim. Compared as the original `u64` (a
/// relative-delta row would round through `f64` and could miss drift in
/// the low bits).
fn forensics_digest_drift(base: &RunReport, cand: &RunReport) -> Option<(u64, u64)> {
    match (&base.query_forensics, &cand.query_forensics) {
        (Some(b), Some(c)) if b.digest != c.digest => Some((b.digest, c.digest)),
        _ => None,
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_delta(r: &MetricRow) -> String {
    let finite = |d: f64| format!("{:+.2}%", d * 100.0);
    r.rel_delta().map_or("+inf%".into(), finite)
}

fn status(r: &MetricRow) -> &'static str {
    match r.threshold() {
        None => "info",
        Some(_) if r.regressed() => "REGRESSION",
        Some(_) => "ok",
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse();
    let [base_path, cand_path] = match args.positionals() {
        [b, c] => [b.clone(), c.clone()],
        _ => {
            return Err("usage: dnnd-report-diff <baseline.json> <candidate.json> \
                 [--threshold <rel>] [--out <dir>]"
                .into())
        }
    };
    let thr: Option<f64> = args.opt("threshold");
    let csv_dir = args.opt::<String>("out").map(|_| args.out_dir());
    args.finish();
    if let Some(t) = thr {
        if !(t.is_finite() && t >= 0.0) {
            return Err(format!("--threshold must be a nonnegative number, got {t}"));
        }
    }

    let load = |path: &str| -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunReport::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let base = load(&base_path)?;
    let cand = load(&cand_path)?;

    if base.n_ranks != cand.n_ranks {
        eprintln!(
            "note: rank counts differ (baseline {} vs candidate {}); \
             traffic metrics are not directly comparable",
            base.n_ranks, cand.n_ranks
        );
    }

    let (rows, missing) = collect(&base, &cand, thr);
    let mut table = Table::new(
        &format!("report diff: {base_path} -> {cand_path}"),
        &[
            "metric",
            "baseline",
            "candidate",
            "delta",
            "threshold",
            "status",
        ],
    );
    for r in &rows {
        let (b, c, d) = (fmt_value(r.base), fmt_value(r.cand), fmt_delta(r));
        let t = r
            .threshold()
            .map_or("-".to_string(), |t| format!("{:.0}%", t * 100.0));
        table.row(&[&r.name, &b, &c, &d, &t, &status(r)]);
    }
    table.print();
    if let Some(dir) = csv_dir {
        let path = table
            .write_csv(&dir, "report_diff")
            .map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }

    let digest_drift = forensics_digest_drift(&base, &cand);
    let regressed: Vec<&MetricRow> = rows.iter().filter(|r| r.regressed()).collect();
    if !missing.is_empty() {
        println!(
            "\nFAIL: candidate report is missing section(s) present in the baseline: {}",
            missing.join(", ")
        );
    }
    if let Some((b, c)) = digest_drift {
        println!(
            "\nFAIL: query_forensics digest drifted: {b:016x} -> {c:016x} \
             (the section is seed-deterministic; any drift means the \
             lifecycle records changed)"
        );
    }
    if !regressed.is_empty() {
        println!("\nFAIL: {} metric(s) regressed:", regressed.len());
        for r in &regressed {
            println!(
                "  {}: {} -> {} ({}, threshold {:.0}%)",
                r.name,
                fmt_value(r.base),
                fmt_value(r.cand),
                fmt_delta(r),
                r.threshold().unwrap_or(0.0) * 100.0
            );
        }
    }
    let pass = missing.is_empty() && regressed.is_empty() && digest_drift.is_none();
    if pass {
        println!("\nPASS: all gated metrics within thresholds");
    }
    Ok(pass)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sim_secs: f64, evals: u64) -> RunReport {
        let mut r = RunReport::new("test");
        r.n_ranks = 2;
        r.iterations = 5;
        r.distance_evals = evals;
        r.sim_secs = sim_secs;
        r.compute_secs = sim_secs * 0.7;
        r.comm_secs = sim_secs * 0.2;
        r.barrier_secs = sim_secs * 0.1;
        r.total_count = 1_000;
        r.total_bytes = 64_000;
        r.total_remote_count = 750;
        r.total_remote_bytes = 48_000;
        r
    }

    fn rows(base: &RunReport, cand: &RunReport) -> Vec<MetricRow> {
        collect(base, cand, None).0
    }

    fn missing(base: &RunReport, cand: &RunReport) -> Vec<String> {
        collect(base, cand, None).1
    }

    fn row_named<'a>(rows: &'a [MetricRow], name: &str) -> &'a MetricRow {
        rows.iter().find(|r| r.name == name).unwrap()
    }

    fn regressed(rows: &[MetricRow], prefix: &str) -> Vec<String> {
        let under = rows.iter().filter(|r| r.name.starts_with(prefix));
        under
            .filter(|r| r.regressed())
            .map(|r| r.name.clone())
            .collect()
    }

    /// Every gate survived the move from `threshold_for` into the field
    /// tables: for the fully populated report the rows are, name for name,
    /// value for value and threshold for threshold, the ones the
    /// hand-written `collect` produced (captured from it before it was
    /// deleted; the order is now the document's, so compare sorted).
    #[test]
    fn gate_golden_every_row_threshold_and_direction_survived() {
        let full = include_str!("../../../../tests/fixtures/report_full.json");
        let full = RunReport::parse(full).unwrap();
        let mut got: Vec<String> = rows(&full, &full)
            .iter()
            .map(|r| match r.gate {
                Gate::Rise(t) => format!("{} {} {t} higher-is-worse", r.name, r.base),
                Gate::Fall(t) => format!("{} {} {t} lower-is-worse", r.name, r.base),
                Gate::Info => format!("{} {} - info", r.name, r.base),
                Gate::Section => unreachable!("markers are not rows"),
            })
            .collect();
        let mut want: Vec<&str> = include_str!("../../tests/fixtures/gate_rows.txt")
            .lines()
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert!(missing(&full, &full).is_empty());
    }

    #[test]
    fn identical_reports_pass_every_gate() {
        let r = report(1.5, 100_000);
        let rows = rows(&r, &r);
        assert!(rows.iter().all(|m| !m.regressed()));
        assert!(rows.iter().any(|m| m.name == "wall_secs"));
        // Sections neither report carries have no rows.
        for section in ["faults.", "serving.", "rnn.", "query_forensics.", "vdb."] {
            assert!(!rows.iter().any(|m| m.name.starts_with(section)));
        }
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let base = report(1.0, 100_000);
        let cand = report(1.5, 100_000); // +50% sim time vs 10% gate
        let rows = rows(&base, &cand);
        assert!(row_named(&rows, "sim_secs").regressed());
        assert!(!row_named(&rows, "distance_evals").regressed());
    }

    #[test]
    fn improvement_never_regresses_higher_is_worse() {
        let base = report(2.0, 100_000);
        let cand = report(1.0, 50_000);
        assert!(rows(&base, &cand).iter().all(|m| !m.regressed()));
    }

    #[test]
    fn recall_gates_downward_only() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.recall = Some(0.95);
        cand.recall = Some(0.90); // -5.3% vs 2% gate
        assert!(row_named(&rows(&base, &cand), "recall").regressed());
        // Upward recall is fine.
        assert!(!row_named(&rows(&cand, &base), "recall").regressed());
        // A candidate that stopped measuring it reads as zero.
        cand.recall = None;
        assert!(row_named(&rows(&base, &cand), "recall").regressed());
    }

    #[test]
    fn growth_from_zero_is_a_regression() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.faults = Some(obs::FaultSection::default());
        cand.faults = Some(obs::FaultSection {
            retransmits: 7,
            ..Default::default()
        });
        let rows = rows(&base, &cand);
        let r = row_named(&rows, "faults.retransmits");
        assert_eq!(r.rel_delta(), None);
        assert!(r.regressed());
    }

    /// The one presence rule: a part of the document only the candidate
    /// carries has rows against zeros (growth from zero gates), and one
    /// only the baseline carries is named as missing.
    #[test]
    fn one_presence_rule_for_every_optional_part() {
        let base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        cand.faults = Some(obs::FaultSection {
            retransmits: 7,
            ..Default::default()
        });
        cand.critical_path = Some(obs::CriticalPathSection {
            critical_path_ns: 1_000,
            ..Default::default()
        });
        cand.vdb = Some(obs::VdbSection {
            cache_suppressed_ids: 3,
            ..Default::default()
        });
        cand.serving = Some(obs::ServingSection {
            client_p99_ns: 4_000_000,
            tenants: vec![tenant("gold", 2, 98)],
            ..Default::default()
        });
        let rows = rows(&base, &cand);
        for grown in [
            "faults.retransmits",
            "critical_path.critical_path_ns",
            "vdb.cache_suppressed_ids",
            "serving.client_p99_ns",
            "serving.tenant.gold.shed_overload",
        ] {
            let r = row_named(&rows, grown);
            assert_eq!(r.base, 0.0, "{grown}");
            assert!(r.regressed(), "{grown}");
        }
        assert!(missing(&base, &cand).is_empty());
        assert_eq!(
            missing(&cand, &base),
            [
                "serving",
                "serving.tenants",
                "critical_path",
                "vdb",
                "faults"
            ]
        );
        // The rows are still there, as context for the failure.
        assert_eq!(row_named(&self::rows(&cand, &base), "vdb.epoch").cand, 0.0);
        // The matrix has no compared value, and is named all the same.
        let mut with_matrix = report(1.0, 1);
        with_matrix.matrix = Some(obs::MatrixSection::default());
        assert_eq!(missing(&with_matrix, &base), ["matrix"]);
    }

    #[test]
    fn serving_counters_gate_exactly_and_answered_gates_downward() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.serving = Some(obs::ServingSection {
            offered: 100,
            answered: 90,
            shed_overload: 0,
            p99_ns: 4_000_000,
            client_p50_ns: 500_000,
            client_p99_ns: 4_000_000,
            ..Default::default()
        });
        cand.serving = Some(obs::ServingSection {
            offered: 100,
            answered: 80, // fewer answered: regression
            shed_overload: 5,
            p99_ns: 4_100_000, // +2.5%, inside the 10% latency gate
            client_p50_ns: 500_000,
            client_p99_ns: 4_800_000, // +20% trips it
            ..Default::default()
        });
        assert_eq!(
            regressed(&rows(&base, &cand), "serving."),
            [
                "serving.answered",
                "serving.shed_overload",
                "serving.client_p99_ns"
            ]
        );
        // The reverse direction (more answered, less shedding) is fine.
        assert!(regressed(&rows(&cand, &base), "serving.").is_empty());
    }

    fn tenant(name: &str, shed_overload: u64, answered: u64) -> obs::TenantSloSection {
        obs::TenantSloSection {
            name: name.into(),
            share_pct: 50,
            offered: 100,
            admitted: answered,
            answered,
            shed_overload,
            slo_attainment: answered as f64 / 100.0,
            p50_ns: 500_000,
            p99_ns: 2_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn tenant_counters_gate_exactly_by_class_name() {
        let serving = |tenants| obs::ServingSection {
            offered: 200,
            tenants,
            ..Default::default()
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.serving = Some(serving(vec![tenant("gold", 0, 98), tenant("free", 10, 80)]));
        // Identical per-tenant counters: every row inside the gate.
        cand.serving = base.serving.clone();
        assert!(regressed(&rows(&base, &cand), "serving.tenant.").is_empty());
        // One extra shed + one fewer answered in `free` gates both ways;
        // `gold` stays clean, whatever order the classes come in.
        cand.serving = Some(serving(vec![tenant("free", 11, 79), tenant("gold", 0, 98)]));
        assert_eq!(
            regressed(&rows(&base, &cand), "serving.tenant."),
            [
                "serving.tenant.free.admitted",
                "serving.tenant.free.answered",
                "serving.tenant.free.shed_overload",
                "serving.tenant.free.slo_attainment"
            ]
        );
        // A candidate that dropped the breakdown entirely hard-fails.
        cand.serving = Some(serving(Vec::new()));
        assert_eq!(missing(&base, &cand), ["serving.tenants"]);
    }

    #[test]
    fn vdb_counters_gate_exactly_summed_over_namespaces() {
        let namespace = |live: u64, epoch: u64| obs::VdbNamespaceSection {
            name: format!("ns{epoch}"),
            points: 1_000,
            live,
            tombstones: 1_000 - live,
            epoch,
            inserts: 5,
            deletes: 1_000 - live,
            compactions: 1,
            ..Default::default()
        };
        let section = |live: u64, filtered: u64, suppressed: u64| obs::VdbSection {
            namespaces: vec![namespace(live, 2), namespace(900, 4)],
            filtered_queries: filtered,
            cache_suppressed_ids: suppressed,
            selectivity_hist: vec![(3, filtered)],
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.vdb = Some(section(950, 40, 0));
        cand.vdb = base.vdb.clone();
        let same = rows(&base, &cand);
        assert!(regressed(&same, "vdb.").is_empty());
        assert_eq!(row_named(&same, "vdb.live").base, 1_850.0);
        assert_eq!(row_named(&same, "vdb.epoch").base, 4.0);
        // Fewer live points / filtered queries regress, and so does growth
        // of tombstone debt and cache suppression.
        cand.vdb = Some(section(940, 30, 3));
        assert_eq!(
            regressed(&rows(&base, &cand), "vdb."),
            [
                "vdb.live",
                "vdb.tombstones",
                "vdb.deletes",
                "vdb.filtered_queries",
                "vdb.cache_suppressed_ids"
            ]
        );
    }

    #[test]
    fn rnn_counters_gate_exactly() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        let section = |pruned: u64, evals: u64| obs::RnnSection {
            t1: 2,
            t2: 5,
            k0: 10,
            r: 30,
            rounds: vec![obs::RnnRoundReport {
                outer: 0,
                inner: 0,
                pairs: evals,
                pruned,
                added: 12,
            }],
            reverse_added: vec![100],
            dist_evals: evals,
            repaired: 1,
        };
        base.rnn = Some(section(40, 5_000));
        cand.rnn = Some(section(40, 5_000));
        assert!(regressed(&rows(&base, &cand), "rnn.").is_empty());
        // Any drift in the deterministic counters gates (threshold 0).
        cand.rnn = Some(section(41, 5_001));
        assert_eq!(
            regressed(&rows(&base, &cand), "rnn."),
            ["rnn.pruned_total", "rnn.dist_evals"]
        );
        // A candidate that silently dropped the section hard-fails.
        cand.rnn = None;
        assert_eq!(missing(&base, &cand), ["rnn"]);
    }

    #[test]
    fn forensics_counters_gate_exactly_and_digest_drift_hard_fails() {
        let section = |retained: u64, digest: u64| obs::QueryForensicsSection {
            window_slots: 8,
            slow_n: 4,
            considered: 150,
            retained,
            retained_slow: retained,
            digest,
            ..Default::default()
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.query_forensics = Some(section(12, 0xAB));
        cand.query_forensics = Some(section(12, 0xAB));
        assert!(regressed(&rows(&base, &cand), "query_forensics.").is_empty());
        assert!(forensics_digest_drift(&base, &cand).is_none());
        // Lost sampler coverage gates (threshold 0, downward).
        cand.query_forensics = Some(section(11, 0xAB));
        assert_eq!(
            regressed(&rows(&base, &cand), "query_forensics."),
            ["query_forensics.retained", "query_forensics.retained_slow"]
        );
        // Digest drift is a hard failure even when every counter agrees.
        cand.query_forensics = Some(section(12, 0xCD));
        assert!(regressed(&rows(&base, &cand), "query_forensics.").is_empty());
        assert_eq!(forensics_digest_drift(&base, &cand), Some((0xAB, 0xCD)));
        // A candidate that silently dropped the section hard-fails.
        cand.query_forensics = None;
        assert_eq!(missing(&base, &cand), ["query_forensics"]);
        assert!(forensics_digest_drift(&base, &cand).is_none());
    }

    #[test]
    fn critical_path_metrics_gate_with_their_own_thresholds() {
        let section = |path_ns: u64, stall_ns: u64, score: f64| obs::CriticalPathSection {
            critical_path_ns: path_ns,
            compute_ns: path_ns - stall_ns,
            stall_ns,
            straggler_score: score,
            ..Default::default()
        };
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.critical_path = Some(section(1_000_000_000, 100_000_000, 0.10));
        // +15% path length trips the 10% gate; +20% stall stays inside its
        // 25% slack; the score needs >15% growth to trip.
        cand.critical_path = Some(section(1_150_000_000, 120_000_000, 0.11));
        let rows = rows(&base, &cand);
        assert!(row_named(&rows, "critical_path.critical_path_ns").regressed());
        assert!(!row_named(&rows, "critical_path.stall_ns").regressed());
        assert!(!row_named(&rows, "critical_path.straggler_score").regressed());
        let mut worse = report(1.0, 1);
        worse.critical_path = Some(section(1_000_000_000, 100_000_000, 0.20));
        let rows = self::rows(&base, &worse);
        assert!(row_named(&rows, "critical_path.straggler_score").regressed());
    }

    #[test]
    fn threshold_override_loosens_the_gate() {
        let base = report(1.0, 100_000);
        let cand = report(1.5, 100_000);
        let (rows, _) = collect(&base, &cand, Some(0.6));
        assert!(rows.iter().all(|m| !m.regressed()));
        // ... and tightens it.
        let cand = report(1.01, 100_000);
        let (rows, _) = collect(&base, &cand, Some(0.001));
        assert!(row_named(&rows, "sim_secs").regressed());
    }

    #[test]
    fn wall_clock_and_free_form_metrics_are_informational_even_when_wild() {
        let mut base = report(1.0, 1);
        let mut cand = report(1.0, 1);
        base.wall_secs = 0.1;
        cand.wall_secs = 99.0;
        base.metric("qps", 9_000.0);
        cand.metric("qps", 1.0).metric("new_metric", 5.0);
        let (rows, _) = collect(&base, &cand, Some(0.0));
        for name in ["wall_secs", "extra.qps", "extra.new_metric"] {
            assert!(!row_named(&rows, name).regressed());
            assert_eq!(status(row_named(&rows, name)), "info");
        }
    }
}
