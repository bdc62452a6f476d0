//! Bridges from runtime/engine result types to [`obs::RunReport`], plus
//! file emission for the `--trace-out` / `--report-out` CLI flags.
//!
//! `obs` itself is dependency-free, so the translation from `ygm`'s
//! `TagStats` / `PhaseRecord` / `ClockBreakdown` (and the engine's
//! `BuildReport`) into the report schema lives here, where both sides are
//! in scope. Every binary and bench driver funnels through these helpers
//! so reports stay structurally identical across producers.

use crate::engine::BuildReport;
use obs::{
    ConvergencePoint, FaultSection, MatrixSection, MatrixTagReport, PhaseReport, RunReport,
    TagReport, Tracer,
};
use std::fs;
use std::io;
use std::path::Path;
use ygm::{ClockBreakdown, FaultReport, PhaseRecord, TagStats, TrafficMatrix, WorldReport};

fn fill_tags(report: &mut RunReport, tags: &[(u16, String, TagStats)], total: &TagStats) {
    report.tags = tags
        .iter()
        .map(|(tag, name, s)| TagReport {
            tag: *tag as u64,
            name: name.clone(),
            count: s.count,
            bytes: s.bytes,
            remote_count: s.remote_count,
            remote_bytes: s.remote_bytes,
        })
        .collect();
    report.total_count = total.count;
    report.total_bytes = total.bytes;
    report.total_remote_count = total.remote_count;
    report.total_remote_bytes = total.remote_bytes;
}

fn fill_matrix(report: &mut RunReport, m: &TrafficMatrix) {
    report.matrix = Some(MatrixSection {
        n_ranks: m.n_ranks as u64,
        tags: m
            .tags
            .iter()
            .map(|t| MatrixTagReport {
                tag: t.tag as u64,
                name: t.name.clone(),
                counts: t.counts.clone(),
                bytes: t.bytes.clone(),
            })
            .collect(),
    });
}

fn fill_phases(report: &mut RunReport, phases: &[PhaseRecord]) {
    report.phases = phases
        .iter()
        .map(|p| PhaseReport {
            index: p.index as u64,
            compute_secs: p.compute_secs,
            comm_secs: p.comm_secs,
            barrier_secs: p.barrier_secs,
            msgs: p.msgs,
            bytes: p.bytes,
        })
        .collect();
}

/// Run the happens-before critical-path analysis over the clock's phase
/// records and attach the resulting section. `sim_ns` must be the exact
/// final clock reading so collective time attributes with zero error.
fn fill_critical_path(report: &mut RunReport, phases: &[PhaseRecord], sim_ns: u64, n_ranks: usize) {
    let costs: Vec<obs::PhaseCost> = phases
        .iter()
        .map(|p| obs::PhaseCost {
            index: p.index as u64,
            total_ns: p.total_ns,
            barrier_ns: p.barrier_secs * 1e9,
            rank_compute_ns: p.rank_compute_ns().to_vec(),
            rank_send_ns: p.rank_send_ns().to_vec(),
            rank_recv_ns: p.rank_recv_ns().to_vec(),
            rank_transport_send_ns: p.rank_transport_send_ns().to_vec(),
            rank_transport_recv_ns: p.rank_transport_recv_ns().to_vec(),
            rank_fault_ns: p.rank_fault_ns().to_vec(),
        })
        .collect();
    report.critical_path = Some(obs::critical_path::analyze(&costs, sim_ns, n_ranks));
}

fn fill_breakdown(report: &mut RunReport, b: &ClockBreakdown) {
    report.compute_secs = b.compute_secs;
    report.comm_secs = b.comm_secs;
    report.barrier_secs = b.barrier_secs;
}

fn fill_faults(report: &mut RunReport, faults: Option<&FaultReport>) {
    report.faults = faults.map(|f| FaultSection {
        sim_seed: f.sim_seed,
        profile: f.profile.clone(),
        dropped: f.dropped,
        duplicated: f.duplicated,
        delayed: f.delayed,
        stalls: f.stalls,
        jittered_flushes: f.jittered_flushes,
        retransmits: f.retransmits,
        dedup_discards: f.dedup_discards,
        forced_deliveries: f.forced_deliveries,
    });
}

/// Fill the `rnn` section from the RNN pass's knobs and
/// all-reduced stats (the binaries call this whenever `--opt-mode rnn`
/// ran; the section is the deterministic fingerprint of the pass).
pub fn fill_rnn(report: &mut RunReport, params: nnd::rnn::RnnParams, stats: &nnd::rnn::RnnStats) {
    report.rnn = Some(obs::RnnSection {
        t1: params.t1 as u64,
        t2: params.t2 as u64,
        k0: params.k0 as u64,
        r: params.r as u64,
        rounds: stats
            .rounds
            .iter()
            .map(|rd| obs::RnnRoundReport {
                outer: rd.outer,
                inner: rd.inner,
                pairs: rd.pairs,
                pruned: rd.pruned,
                added: rd.added,
            })
            .collect(),
        reverse_added: stats.reverse_added.clone(),
        dist_evals: stats.dist_evals,
        repaired: stats.repaired,
    });
}

/// Start a [`RunReport`] from a construction run's [`BuildReport`],
/// including the convergence trajectory.
pub fn report_from_build(binary: &str, r: &BuildReport) -> RunReport {
    let mut report = RunReport::new(binary);
    report.n_ranks = r.n_ranks as u64;
    report.iterations = r.iterations as u64;
    report.distance_evals = r.distance_evals;
    report.sim_secs = r.sim_secs;
    report.wall_secs = r.wall_secs;
    fill_breakdown(&mut report, &r.breakdown);
    fill_tags(&mut report, &r.tags, &r.total);
    fill_matrix(&mut report, &r.matrix);
    fill_phases(&mut report, &r.phases);
    fill_critical_path(&mut report, &r.phases, r.sim_ns, r.n_ranks);
    fill_faults(&mut report, r.faults.as_ref());
    report.convergence = r
        .updates_per_iter
        .iter()
        .enumerate()
        .map(|(i, &u)| ConvergencePoint {
            iteration: i as u64,
            updates: u,
        })
        .collect();
    report
}

/// Start a [`RunReport`] from a standalone distributed RNN-Descent pass
/// (`dnnd-optimize --opt-mode rnn`), including the `rnn`
/// section.
pub fn report_from_rnn_dist(
    binary: &str,
    params: nnd::rnn::RnnParams,
    r: &crate::rnn_dist::RnnDistReport,
) -> RunReport {
    let mut report = RunReport::new(binary);
    report.n_ranks = r.n_ranks as u64;
    report.distance_evals = r.stats.dist_evals;
    report.sim_secs = r.sim_secs;
    report.wall_secs = r.wall_secs;
    fill_breakdown(&mut report, &r.breakdown);
    fill_tags(&mut report, &r.tags, &r.total);
    fill_matrix(&mut report, &r.matrix);
    fill_phases(&mut report, &r.phases);
    fill_critical_path(&mut report, &r.phases, r.sim_ns, r.n_ranks);
    fill_faults(&mut report, r.faults.as_ref());
    fill_rnn(&mut report, params, &r.stats);
    report
}

/// Start a [`RunReport`] from any [`WorldReport`] (e.g. a query run).
pub fn report_from_world<T>(binary: &str, n_ranks: usize, r: &WorldReport<T>) -> RunReport {
    let mut report = RunReport::new(binary);
    report.n_ranks = n_ranks as u64;
    report.sim_secs = r.sim_secs;
    report.wall_secs = r.wall_secs;
    fill_breakdown(&mut report, &r.breakdown);
    fill_tags(&mut report, &r.tags, &r.total);
    fill_matrix(&mut report, &r.matrix);
    fill_phases(&mut report, &r.phases);
    fill_critical_path(&mut report, &r.phases, r.sim_ns, n_ranks);
    fill_faults(&mut report, r.faults.as_ref());
    report
}

/// Fold what `tracer` recorded into `report`: its histogram summaries, the
/// span-ring overflow counters (a nonzero `dropped_spans` means the trace is
/// incomplete and is warned about; the per-rank split shows *which* ring
/// overflowed) and its virtual-clock gauge series. `bench::ObsOuts::write`
/// calls it for every run that had a tracer.
pub fn attach_tracer(report: &mut RunReport, tracer: &Tracer) {
    report.add_histograms(&tracer.hist_snapshots());
    report.set_dropped_spans_per_rank(tracer.dropped_events_per_rank());
    report.series = tracer.series_snapshot();
}

/// Write the self-contained HTML dashboard for `report` to `path`.
pub fn write_dashboard(path: impl AsRef<Path>, report: &RunReport) -> io::Result<()> {
    fs::write(path, obs::dashboard::dashboard_html(report))
}

/// Write the Chrome-trace JSON for `tracer` to `path`.
pub fn write_trace(path: impl AsRef<Path>, tracer: &Tracer) -> io::Result<()> {
    fs::write(path, obs::chrome::chrome_trace_json(tracer))
}

/// Write `report` as pretty-printed JSON to `path`.
pub fn write_report(path: impl AsRef<Path>, report: &RunReport) -> io::Result<()> {
    fs::write(path, report.to_json_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ygm::TagStats;

    fn tag(t: u16, count: u64, bytes: u64) -> (u16, String, TagStats) {
        (
            t,
            format!("tag{t}"),
            TagStats {
                count,
                bytes,
                remote_count: count / 2,
                remote_bytes: bytes / 2,
            },
        )
    }

    #[test]
    fn build_report_totals_carry_over_exactly() {
        let tags = vec![tag(14, 10, 640), tag(16, 4, 4_000)];
        let total = TagStats {
            count: 14,
            bytes: 4_640,
            remote_count: 7,
            remote_bytes: 2_320,
        };
        let br = BuildReport {
            n_ranks: 4,
            iterations: 3,
            updates_per_iter: vec![100, 40, 2],
            distance_evals: 777,
            sim_secs: 1.25,
            sim_ns: 1_250_000_000,
            breakdown: ClockBreakdown {
                compute_secs: 1.0,
                comm_secs: 0.2,
                barrier_secs: 0.05,
            },
            phases: vec![PhaseRecord {
                index: 0,
                compute_secs: 0.5,
                comm_secs: 0.1,
                barrier_secs: 0.01,
                msgs: 7,
                bytes: 2_320,
                total_ns: 610_000_000,
                rank_ns: [
                    [500_000_000.0, 450_000_000.0], // compute
                    [90_000_000.0, 80_000_000.0],   // send
                    [10_000_000.0, 20_000_000.0],   // recv
                    [0.0, 1_000_000.0],             // transport send
                    [1_000_000.0, 0.0],             // transport recv
                    [0.0, 0.0],                     // fault
                ]
                .concat(),
            }],
            wall_secs: 0.5,
            tags,
            total,
            matrix: TrafficMatrix {
                n_ranks: 2,
                tags: vec![ygm::TagMatrix {
                    tag: 14,
                    name: "tag14".into(),
                    counts: vec![3, 2, 1, 4],
                    bytes: vec![192, 128, 64, 256],
                }],
            },
            faults: Some(FaultReport {
                sim_seed: 99,
                profile: "lossy".into(),
                dropped: 2,
                retransmits: 3,
                ..FaultReport::default()
            }),
            rnn: None,
        };
        let r = report_from_build("dnnd-construct", &br);
        assert_eq!(r.total_bytes, 4_640);
        // Critical-path section: exact attribution against the clock total.
        let cp = r.critical_path.as_ref().unwrap();
        assert_eq!(cp.critical_path_ns, 1_250_000_000);
        assert_eq!(cp.attribution_sum_ns(), 1_250_000_000);
        assert_eq!(cp.collective_ns, 1_250_000_000 - 610_000_000);
        assert_eq!(cp.phase_attribution.len(), 1);
        assert_eq!(cp.phase_attribution[0].critical_rank, 0);
        let fs = r.faults.as_ref().unwrap();
        assert_eq!(fs.sim_seed, 99);
        assert_eq!(fs.profile, "lossy");
        assert_eq!(fs.dropped, 2);
        assert_eq!(fs.retransmits, 3);
        assert_eq!(r.tags.len(), 2);
        assert_eq!(r.tags[1].bytes, 4_000);
        assert_eq!(r.convergence.len(), 3);
        assert_eq!(r.convergence[2].updates, 2);
        assert_eq!(r.phases[0].msgs, 7);
        let mx = r.matrix.as_ref().unwrap();
        assert_eq!(mx.n_ranks, 2);
        assert_eq!(mx.tags[0].counts, vec![3, 2, 1, 4]);
        assert_eq!(mx.total_bytes(), vec![192, 128, 64, 256]);
        // Round-trips through JSON untouched.
        let back = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }
}
