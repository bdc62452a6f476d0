//! Critical-path analysis over the happens-before DAG of a run.
//!
//! The simulated runtime is bulk-synchronous at the transport level: every
//! rank participates in every barrier, so the happens-before DAG on the
//! deterministic virtual clock is a chain of phase nodes — within a phase,
//! each rank's work is a parallel branch between the two enclosing barrier
//! nodes, and cross-rank message edges never skip a barrier. The longest
//! path through that DAG is therefore the sum over phases of the slowest
//! branch (the phase makespan the clock already charges) plus collective
//! synchronization time. That makes the critical-path length *exactly* the
//! final virtual clock reading — an invariant this module maintains to the
//! nanosecond and the report gate asserts (±0).
//!
//! What the analysis adds over the clock total is *attribution*: for each
//! phase, which rank the barrier waited on (the critical rank / straggler),
//! how much of the phase was compute vs communication vs stall vs
//! retransmit overhead, and how much slack every other rank had. The input
//! is the clock's own [`PhaseRecord`]s, declared here so that this crate
//! stays dependency-free and the runtime fills them directly.
//!
//! Attribution categories, per phase:
//!
//! * **compute** — the critical rank's distance-evaluation time.
//! * **comm** — the critical rank's send+receive link cost for application
//!   traffic, plus the barrier latency.
//! * **retransmit** — the critical rank's link cost for transport-level
//!   traffic (retransmitted and duplicated frames).
//! * **stall** — injected-fault time on the critical rank plus the residue
//!   of the makespan beyond the critical rank's own modelled work (time the
//!   phase was extended by *other* ranks' receive/fault maxima).
//!
//! The four buckets are integerized with a largest-remainder distribution
//! so they sum to the phase's exact clock increment; summed over phases and
//! adding collective time they reproduce the total virtual time with zero
//! error, on every rank count and fault plan.

use crate::report::{report_struct, Gate::Rise, List, Val};

/// One barrier-to-barrier phase, as the virtual clock records it — the
/// fine-grained profile behind the paper's Section 7 ask. A "phase" is
/// everything between two consecutive barriers world-wide.
///
/// Besides the makespan split, each record keeps the raw per-rank cost
/// vectors (indexed by rank) that the makespan was computed from; [`analyze`]
/// reconstructs per-rank slack and straggler attribution from exactly these
/// numbers, so the analysis is deterministic whenever the clock is.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Zero-based phase index (== barrier count so far).
    pub index: u64,
    /// Makespan attributed to compute, seconds.
    pub compute_secs: f64,
    /// Makespan attributed to communication, seconds.
    pub comm_secs: f64,
    /// Barrier latency, seconds.
    pub barrier_secs: f64,
    /// Remote messages sent world-wide during the phase.
    pub msgs: u64,
    /// Remote bytes sent world-wide during the phase.
    pub bytes: u64,
    /// Exact nanoseconds this phase added to the global clock. Summing these
    /// over all phases and subtracting from the final clock gives collective
    /// time exactly.
    pub total_ns: u64,
    /// The per-rank figures, ns: six columns of one value per rank, back to
    /// back in one allocation (a record is built at every barrier), in the
    /// order of the `rank_*_ns` accessors below.
    pub rank_ns: Vec<f64>,
}

impl PhaseRecord {
    fn column(&self, c: usize) -> &[f64] {
        let ranks = self.rank_ns.len() / 6;
        &self.rank_ns[c * ranks..(c + 1) * ranks]
    }

    /// Per-rank compute nanoseconds charged during the phase.
    pub fn rank_compute_ns(&self) -> &[f64] {
        self.column(0)
    }

    /// Per-rank send-side link cost of application traffic, ns.
    pub fn rank_send_ns(&self) -> &[f64] {
        self.column(1)
    }

    /// Per-rank receive-side link cost of application traffic, ns.
    pub fn rank_recv_ns(&self) -> &[f64] {
        self.column(2)
    }

    /// Per-rank send-side link cost of transport traffic (retransmits,
    /// duplicates), ns.
    pub fn rank_transport_send_ns(&self) -> &[f64] {
        self.column(3)
    }

    /// Per-rank receive-side link cost of transport traffic, ns.
    pub fn rank_transport_recv_ns(&self) -> &[f64] {
        self.column(4)
    }

    /// Per-rank injected-fault time (frame delays, stalls), ns.
    pub fn rank_fault_ns(&self) -> &[f64] {
        self.column(5)
    }

    /// Total virtual seconds this phase contributed.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.comm_secs + self.barrier_secs
    }

    /// Total modelled work (compute + send + recv + transport + fault) of
    /// `rank` during this phase, ns. The rank maximizing this is the
    /// phase's critical rank — the straggler the barrier waited on.
    pub fn rank_work_ns(&self, rank: usize) -> f64 {
        (0..6).map(|c| self.column(c)[rank]).sum()
    }
}

report_struct! {
    /// One phase's integerized time attribution. The four buckets sum exactly
    /// to `total_ns`.
    pub struct PhaseAttribution {
        pub index: u64 => Val;
        /// Exact clock increment of the phase, ns.
        pub total_ns: u64 => Val;
        pub compute_ns: u64 => Val;
        pub comm_ns: u64 => Val;
        pub stall_ns: u64 => Val;
        pub retransmit_ns: u64 => Val;
        /// The rank with the most modelled work this phase — the straggler the
        /// barrier waited on. Ties break to the lowest rank.
        pub critical_rank: u64 => Val;
    }
}

report_struct! {
    /// The `critical_path` report section: happens-before critical-path
    /// length, overall and per-phase time attribution, per-rank slack, and
    /// the straggler-imbalance score. The path length and its dominant
    /// buckets follow the virtual-time gates; the small noisy buckets (stall
    /// residue, retransmit charge) and the imbalance score get extra slack
    /// so a cost-model tweak does not trip them.
    pub struct CriticalPathSection {
        pub n_ranks: u64 => Val;
        /// Barrier-to-barrier phases analyzed.
        pub phases: u64 => Val;
        /// Longest path through the happens-before DAG, ns. Equals the final
        /// virtual clock reading exactly (see module docs).
        pub critical_path_ns: u64 => Val, Rise(0.10);
        /// Collective-only clock advances (allreduce/allgather synchronization
        /// outside message phases), ns.
        pub collective_ns: u64 => Val, Rise(0.10);
        /// Overall attribution; `compute + comm + stall + retransmit +
        /// collective == critical_path_ns` exactly.
        pub compute_ns: u64 => Val, Rise(0.10);
        pub comm_ns: u64 => Val, Rise(0.10);
        pub stall_ns: u64 => Val, Rise(0.25);
        pub retransmit_ns: u64 => Val, Rise(0.25);
        /// Per-rank slack: virtual ns the rank spent waiting at barriers for
        /// the per-phase critical rank, summed over phases.
        pub rank_slack_ns: Vec<f64> => List;
        /// Number of phases in which each rank was the critical rank.
        pub rank_critical_phases: Vec<u64> => List;
        /// Straggler-imbalance score in `[0, 1]`:
        /// `Σ_phases (max_work − mean_work) / Σ_phases max_work`. 0 means
        /// perfectly balanced phases; values near 1 mean one rank does all the
        /// waiting-for.
        pub straggler_score: f64 => Val, Rise(0.15);
        /// Per-phase attribution, in phase order.
        pub phase_attribution: Vec<PhaseAttribution> => List;
    }
}

/// Distribute `total` integer nanoseconds across buckets proportionally to
/// the non-negative `weights`, using largest-remainder rounding so the
/// shares sum to `total` exactly. Ties in the remainder break to the lowest
/// bucket index, keeping the result deterministic. All-zero weights put the
/// whole total in bucket 0 (only reachable when `total` itself is 0 in
/// practice, since the barrier weight is part of bucket construction).
fn largest_remainder(total: u64, weights: &[f64]) -> Vec<u64> {
    let clamped: Vec<f64> = weights.iter().map(|w| w.max(0.0)).collect();
    let sum: f64 = clamped.iter().sum();
    if sum <= 0.0 {
        let mut out = vec![0u64; weights.len()];
        if let Some(first) = out.first_mut() {
            *first = total;
        }
        return out;
    }
    let exact: Vec<f64> = clamped.iter().map(|w| w / sum * total as f64).collect();
    let mut shares: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
    let assigned: u64 = shares.iter().sum();
    let mut leftover = total.saturating_sub(assigned);
    // Hand the leftover units to the buckets with the largest fractional
    // remainders; stable sort + index tiebreak keeps it deterministic.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    let mut next = 0usize;
    while leftover > 0 {
        shares[order[next % order.len()]] += 1;
        next += 1;
        leftover -= 1;
    }
    shares
}

/// Analyze the phase records of a finished run on `n_ranks` ranks.
///
/// `total_virt_ns` is the final virtual clock reading; the difference
/// between it and the summed phase totals is attributed to collectives
/// (which advance the clock without producing a phase record).
pub fn analyze(phases: &[PhaseRecord], total_virt_ns: u64, n_ranks: usize) -> CriticalPathSection {
    let mut section = CriticalPathSection {
        n_ranks: n_ranks as u64,
        phases: phases.len() as u64,
        rank_slack_ns: vec![0.0; n_ranks],
        rank_critical_phases: vec![0u64; n_ranks],
        ..Default::default()
    };
    let mut phase_total: u64 = 0;
    let mut sum_max_work = 0.0f64;
    let mut sum_imbalance = 0.0f64;
    for p in phases {
        phase_total += p.total_ns;
        // Critical rank: most modelled work, ties to the lowest rank.
        let mut critical = 0usize;
        let mut max_work = f64::MIN;
        let mut work_sum = 0.0f64;
        for r in 0..n_ranks {
            let w = p.rank_work_ns(r);
            work_sum += w;
            if w > max_work {
                max_work = w;
                critical = r;
            }
        }
        if n_ranks == 0 {
            continue;
        }
        let mean_work = work_sum / n_ranks as f64;
        sum_max_work += max_work;
        sum_imbalance += max_work - mean_work;
        section.rank_critical_phases[critical] += 1;
        for r in 0..n_ranks {
            section.rank_slack_ns[r] += max_work - p.rank_work_ns(r);
        }
        // Four-bucket split of the exact phase increment (see module docs).
        let compute_w = p.rank_compute_ns()[critical];
        let comm_w = p.rank_send_ns()[critical] + p.rank_recv_ns()[critical] + p.barrier_secs * 1e9;
        let retransmit_w =
            p.rank_transport_send_ns()[critical] + p.rank_transport_recv_ns()[critical];
        let fault_w = p.rank_fault_ns()[critical];
        let modelled = compute_w + comm_w + retransmit_w + fault_w;
        let residue = (p.total_ns as f64 - modelled).max(0.0);
        let stall_w = fault_w + residue;
        let shares = largest_remainder(p.total_ns, &[compute_w, comm_w, stall_w, retransmit_w]);
        section.compute_ns += shares[0];
        section.comm_ns += shares[1];
        section.stall_ns += shares[2];
        section.retransmit_ns += shares[3];
        section.phase_attribution.push(PhaseAttribution {
            index: p.index,
            total_ns: p.total_ns,
            compute_ns: shares[0],
            comm_ns: shares[1],
            stall_ns: shares[2],
            retransmit_ns: shares[3],
            critical_rank: critical as u64,
        });
    }
    section.collective_ns = total_virt_ns.saturating_sub(phase_total);
    section.critical_path_ns = phase_total + section.collective_ns;
    section.straggler_score = if sum_max_work > 0.0 {
        sum_imbalance / sum_max_work
    } else {
        0.0
    };
    section
}

impl CriticalPathSection {
    /// The exactness invariant: overall buckets plus collective time equal
    /// the critical-path length, which equals total virtual time.
    pub fn attribution_sum_ns(&self) -> u64 {
        self.compute_ns + self.comm_ns + self.stall_ns + self.retransmit_ns + self.collective_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(index: u64, total_ns: u64, barrier_ns: f64, work: &[[f64; 6]]) -> PhaseRecord {
        PhaseRecord {
            index,
            compute_secs: 0.0,
            comm_secs: 0.0,
            barrier_secs: barrier_ns / 1e9,
            msgs: 0,
            bytes: 0,
            total_ns,
            rank_ns: (0..6)
                .flat_map(|c| work.iter().map(move |w| w[c]))
                .collect(),
        }
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        for total in [0u64, 1, 7, 1_000, 999_999_999] {
            for weights in [
                vec![1.0, 1.0, 1.0],
                vec![0.3, 0.3, 0.4],
                vec![0.0, 0.0, 5.0],
                vec![1e-9, 2e9, 3.7],
            ] {
                let shares = largest_remainder(total, &weights);
                assert_eq!(shares.iter().sum::<u64>(), total, "{total} {weights:?}");
            }
        }
        // Degenerate all-zero weights still conserve the total.
        assert_eq!(largest_remainder(42, &[0.0, 0.0]).iter().sum::<u64>(), 42);
    }

    #[test]
    fn attribution_is_exact_per_phase_and_overall() {
        let phases = vec![
            phase(
                0,
                10_003,
                500.0,
                &[
                    [7_000.0, 1_000.0, 200.0, 0.0, 0.0, 0.0],
                    [1_000.0, 100.0, 900.0, 300.0, 100.0, 55.5],
                ],
            ),
            phase(
                1,
                777,
                777.0,
                &[[0.0; 6], [0.0; 6]], // barrier-only phase
            ),
        ];
        let s = analyze(&phases, 12_000, 2);
        for p in &s.phase_attribution {
            assert_eq!(
                p.compute_ns + p.comm_ns + p.stall_ns + p.retransmit_ns,
                p.total_ns,
                "phase {} buckets must sum exactly",
                p.index
            );
        }
        assert_eq!(s.collective_ns, 12_000 - 10_003 - 777);
        assert_eq!(s.critical_path_ns, 12_000);
        assert_eq!(s.attribution_sum_ns(), 12_000);
        // Phase 0's critical rank is the compute-heavy rank 0.
        assert_eq!(s.phase_attribution[0].critical_rank, 0);
        assert_eq!(s.rank_critical_phases[0], 2); // tie in phase 1 → rank 0
                                                  // A barrier-only phase is all comm.
        assert_eq!(s.phase_attribution[1].comm_ns, 777);
        // Slack: rank 1 waited for rank 0 in phase 0.
        assert!(s.rank_slack_ns[1] > 0.0);
        assert_eq!(s.rank_slack_ns[0], 0.0);
        assert!(s.straggler_score > 0.0 && s.straggler_score < 1.0);
    }

    #[test]
    fn retransmit_traffic_is_attributed_separately() {
        let p = phase(0, 2_000, 0.0, &[[500.0, 250.0, 250.0, 600.0, 400.0, 0.0]]);
        let s = analyze(&[p], 2_000, 1);
        let a = &s.phase_attribution[0];
        assert!(a.retransmit_ns >= 900, "transport share dominates: {a:?}");
        assert_eq!(
            a.compute_ns + a.comm_ns + a.stall_ns + a.retransmit_ns,
            2_000
        );
    }

    #[test]
    fn fault_time_lands_in_stall() {
        let p = phase(0, 1_000, 0.0, &[[0.0, 0.0, 0.0, 0.0, 0.0, 1_000.0]]);
        let s = analyze(&[p], 1_000, 1);
        assert_eq!(s.stall_ns, 1_000);
        assert_eq!(s.compute_ns + s.comm_ns + s.retransmit_ns, 0);
    }

    #[test]
    fn empty_run_is_all_collective() {
        let s = analyze(&[], 5_000, 4);
        assert_eq!(s.collective_ns, 5_000);
        assert_eq!(s.critical_path_ns, 5_000);
        assert_eq!(s.attribution_sum_ns(), 5_000);
        assert_eq!(s.straggler_score, 0.0);
        assert_eq!(s.rank_slack_ns, vec![0.0; 4]);
    }

    #[test]
    fn perfectly_balanced_phases_score_zero() {
        let p = phase(
            0,
            1_000,
            0.0,
            &[
                [400.0, 50.0, 50.0, 0.0, 0.0, 0.0],
                [400.0, 50.0, 50.0, 0.0, 0.0, 0.0],
            ],
        );
        let s = analyze(&[p], 1_000, 2);
        assert_eq!(s.straggler_score, 0.0);
        assert_eq!(s.rank_slack_ns, vec![0.0, 0.0]);
    }

    #[test]
    fn analysis_is_deterministic() {
        let phases = vec![
            phase(
                0,
                9_999,
                123.0,
                &[
                    [3_000.0, 111.0, 22.0, 3.0, 4.0, 5.0],
                    [2_999.0, 112.0, 23.0, 4.0, 5.0, 6.0],
                ],
            );
            3
        ];
        let a = analyze(&phases, 40_000, 2);
        let b = analyze(&phases, 40_000, 2);
        assert_eq!(a, b);
    }
}
