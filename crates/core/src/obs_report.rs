//! Fills an [`obs::RunReport`] from a run's results.
//!
//! The runtime already records faults, the traffic matrix, phases and RNN
//! rounds in `obs`'s own types, so most of a report is assignment; what is
//! translated here is the per-tag rows, the clock's split and the engine's
//! convergence trajectory. Every binary and bench driver funnels through
//! these helpers so reports stay structurally identical across producers;
//! `bench::ObsOuts` writes the files.

use crate::engine::BuildReport;
use nnd::rnn::{RnnParams, RnnStats};
use obs::critical_path::analyze;
use obs::{ConvergencePoint, PhaseRecord, PhaseReport, RnnSection, RunReport, TagReport};
use ygm::{ClockBreakdown, TagStats, WorldReport};

/// Fill the clock's part of a report: the rank count, the time split, and
/// one row per phase with the critical path through them. `sim_ns` must be
/// the exact final clock reading so collective time attributes with zero
/// error.
fn fill_clock(
    report: &mut RunReport,
    n_ranks: usize,
    b: &ClockBreakdown,
    phases: &[PhaseRecord],
    sim_ns: u64,
) {
    report.n_ranks = n_ranks as u64;
    report.compute_secs = b.compute_secs;
    report.comm_secs = b.comm_secs;
    report.barrier_secs = b.barrier_secs;
    report.phases = phases.iter().map(PhaseReport::from).collect();
    report.critical_path = Some(analyze(phases, sim_ns, n_ranks));
}

fn fill_tags(report: &mut RunReport, tags: &[(u16, String, TagStats)], total: &TagStats) {
    report.tags = tags
        .iter()
        .map(|(tag, name, s)| TagReport {
            tag: u64::from(*tag),
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

/// Fill the `rnn` section — the deterministic fingerprint of an RNN pass —
/// from the pass's knobs and all-reduced stats; the pass's distance
/// evaluations are the run's.
pub fn fill_rnn(report: &mut RunReport, params: RnnParams, stats: &RnnStats) {
    report.distance_evals = stats.dist_evals;
    report.rnn = Some(RnnSection {
        t1: params.t1 as u64,
        t2: params.t2 as u64,
        k0: params.k0 as u64,
        r: params.r as u64,
        rounds: stats.rounds.clone(),
        reverse_added: stats.reverse_added.clone(),
        dist_evals: stats.dist_evals,
        repaired: stats.repaired,
    });
}

/// Start a [`RunReport`] from a construction run's [`BuildReport`],
/// including the convergence trajectory.
pub fn report_from_build(binary: &str, r: &BuildReport) -> RunReport {
    let mut report = RunReport::new(binary);
    fill_clock(&mut report, r.n_ranks, &r.breakdown, &r.phases, r.sim_ns);
    fill_tags(&mut report, &r.tags, &r.total);
    report.iterations = r.iterations as u64;
    report.distance_evals = r.distance_evals;
    report.sim_secs = r.sim_secs;
    report.wall_secs = r.wall_secs;
    report.matrix = Some(r.matrix.clone());
    report.faults = r.faults.clone();
    report.convergence = (r.updates_per_iter.iter().enumerate())
        .map(|(i, &updates)| ConvergencePoint {
            iteration: i as u64,
            updates,
        })
        .collect();
    report
}

/// Start a [`RunReport`] from any [`WorldReport`] (a query run, a serving
/// run, an RNN pass with [`fill_rnn`]).
pub fn report_from_world<T>(binary: &str, n_ranks: usize, r: &WorldReport<T>) -> RunReport {
    let mut report = RunReport::new(binary);
    fill_clock(&mut report, n_ranks, &r.breakdown, &r.phases, r.sim_ns);
    fill_tags(&mut report, &r.tags, &r.total);
    report.sim_secs = r.sim_secs;
    report.wall_secs = r.wall_secs;
    report.matrix = Some(r.matrix.clone());
    report.faults = r.faults.clone();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
            n_ranks: 2,
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
            matrix: obs::MatrixSection {
                n_ranks: 2,
                tags: vec![obs::MatrixTagReport {
                    tag: 14,
                    name: "tag14".into(),
                    counts: vec![3, 2, 1, 4],
                    bytes: vec![192, 128, 64, 256],
                }],
            },
            faults: Some(obs::FaultSection {
                sim_seed: 99,
                profile: "lossy".into(),
                dropped: 2,
                retransmits: 3,
                ..Default::default()
            }),
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
