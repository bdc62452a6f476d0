//! Virtual time model.
//!
//! The paper measures wall-clock hours on the Mammoth cluster (dual 64-core
//! EPYC nodes, Omni-Path interconnect, up to 32 nodes x 128 ranks). This
//! reproduction runs all ranks inside one process on one machine, so
//! wall-clock time cannot exhibit distributed strong scaling. Instead the
//! runtime maintains a deterministic *virtual clock*:
//!
//! * Each rank accrues **compute cost** — the application charges a cost per
//!   distance evaluation (proportional to vector dimension), mirroring where
//!   nearly all of NN-Descent's CPU time goes.
//! * Each rank accrues **communication cost** for remote traffic: a
//!   per-message overhead `alpha` plus `bytes / bandwidth` (the classic
//!   alpha-beta model), on both the send and the receive side.
//! * At every barrier the global clock advances by the **phase makespan**:
//!   the maximum over ranks of (compute + send cost) plus the maximum of
//!   receive-side cost, plus a `log2(P)` barrier latency.
//!
//! Strong scaling then emerges for the same reason it does on real hardware:
//! per-rank compute shrinks roughly as `1/P` while per-message overheads,
//! barrier latencies, and load imbalance (captured exactly by the `max` over
//! real per-rank counters) do not.

use crate::stats::Stats;
use obs::PhaseRecord;

/// Alpha-beta cost model constants. All times in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-message overhead charged to both sender and receiver (ns). This
    /// models YGM's per-RPC handling cost, not an MPI message: YGM aggregates
    /// many RPCs per MPI send, so this is small.
    pub alpha_ns: f64,
    /// Link bandwidth in bytes per nanosecond (1.0 == 1 GB/s is 1e0? No:
    /// bytes/ns; 12.5 bytes/ns == 100 Gb/s, the Omni-Path class).
    pub bytes_per_ns: f64,
    /// Latency of one barrier/allreduce hop (ns); total barrier cost is
    /// `barrier_hop_ns * ceil(log2(P))`.
    pub barrier_hop_ns: f64,
    /// Cost of evaluating one distance element (one dimension of a vector
    /// pair), in ns. Multiplied by vector dimension per distance call.
    pub dist_elem_ns: f64,
}

impl CostModel {
    /// Constants loosely calibrated to the paper's Mammoth cluster: 100 Gb/s
    /// class interconnect, microsecond-scale collectives, and a few tenths of
    /// a nanosecond per vector element on a 2.25 GHz EPYC core.
    pub fn mammoth_like() -> Self {
        CostModel {
            alpha_ns: 120.0,
            bytes_per_ns: 12.5,
            barrier_hop_ns: 15_000.0,
            dist_elem_ns: 0.6,
        }
    }

    /// A model with zero communication cost; useful to isolate compute
    /// scaling in ablations.
    pub fn free_network() -> Self {
        CostModel {
            alpha_ns: 0.0,
            bytes_per_ns: f64::INFINITY,
            barrier_hop_ns: 0.0,
            dist_elem_ns: 0.6,
        }
    }

    /// Virtual cost of one distance evaluation over vectors of `dim`
    /// dimensions, in nanoseconds.
    #[inline]
    pub fn distance_cost_ns(&self, dim: usize) -> u64 {
        (self.dist_elem_ns * dim as f64).ceil() as u64
    }

    /// Virtual cost of holding a frame on the wire (or stalling a rank)
    /// for `epochs` synchronization epochs under fault injection. An epoch
    /// corresponds to one barrier round, so the hop latency is the natural
    /// unit; `free_network` keeps fault runs free, preserving ablations.
    #[inline]
    pub fn delay_cost_ns(&self, epochs: u32) -> u64 {
        (self.barrier_hop_ns * epochs as f64).ceil() as u64
    }

    fn link_cost_ns(&self, msgs: u64, bytes: u64) -> f64 {
        self.alpha_ns * msgs as f64 + bytes as f64 / self.bytes_per_ns
    }

    fn barrier_cost_ns(&self, n_ranks: usize) -> f64 {
        let hops = (n_ranks.max(1) as f64).log2().ceil().max(0.0);
        self.barrier_hop_ns * hops
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::mammoth_like()
    }
}

/// Decomposition of elapsed virtual time into its cost-model components —
/// the "how much is computation vs communication" profile the paper's
/// Section 7 calls for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockBreakdown {
    /// Makespan contribution of per-rank compute (max over ranks, summed
    /// over phases), seconds.
    pub compute_secs: f64,
    /// Contribution of the alpha-beta communication terms, seconds.
    pub comm_secs: f64,
    /// Contribution of barrier/collective latency, seconds.
    pub barrier_secs: f64,
}

impl ClockBreakdown {
    /// Total seconds across components.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.comm_secs + self.barrier_secs
    }
}

/// The global virtual clock: plain integers inside the rendezvous
/// (`crate::world`), advanced only by the last rank to arrive at a meeting —
/// by the phase makespan computed from the per-rank phase counters in
/// [`Stats`], or by a collective's latency.
#[derive(Default)]
pub struct VirtualClock {
    now_ns: u64,
    compute_ns: u64,
    comm_ns: u64,
    barrier_ns: u64,
    phases: Vec<PhaseRecord>,
}

impl VirtualClock {
    /// Current virtual time in nanoseconds since world start.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Advance the clock by one phase. Called after quiescence, before the
    /// phase counters are reset.
    pub(crate) fn advance_phase(&mut self, stats: &Stats, cost: &CostModel, n_ranks: usize) {
        let mut max_compute = 0.0f64;
        let mut max_send = 0.0f64;
        let mut max_recv = 0.0f64;
        let mut max_fault = 0.0f64;
        let mut phase_msgs = 0u64;
        let mut phase_bytes = 0u64;
        let ranks = stats.phase.len();
        let mut rank_ns = vec![0.0; 6 * ranks];
        for (rank, p) in stats.phase.iter().enumerate() {
            let compute = p.compute_ns as f64;
            phase_msgs += p.msgs_out;
            phase_bytes += p.bytes_out;
            // Makespan terms are computed from the SUMMED counters (counter
            // sums are exact in u64), so splitting transport traffic into
            // its own cells never changes phase totals.
            let send = cost.link_cost_ns(p.msgs_out + p.tr_msgs_out, p.bytes_out + p.tr_bytes_out);
            let recv = cost.link_cost_ns(p.msgs_in + p.tr_msgs_in, p.bytes_in + p.tr_bytes_in);
            let fault = p.fault_ns as f64;
            max_compute = max_compute.max(compute + send); // send charged with compute below
            max_send = max_send.max(send);
            max_recv = max_recv.max(recv);
            max_fault = max_fault.max(fault);
            let app_send = cost.link_cost_ns(p.msgs_out, p.bytes_out);
            let app_recv = cost.link_cost_ns(p.msgs_in, p.bytes_in);
            let figures = [
                compute,
                app_send,
                app_recv,
                send - app_send,
                recv - app_recv,
                fault,
            ];
            for (c, ns) in figures.into_iter().enumerate() {
                rank_ns[c * ranks + rank] = ns;
            }
        }
        // Attribution: the makespan adds max(compute + send) + max(recv) +
        // barrier. Count the send share inside the comm bucket, along with
        // any injected-fault time (frame delays, stalls) — the slowest
        // straggler's lost time extends the phase, as it would on a real
        // network.
        let compute_part = (max_compute - max_send).max(0.0);
        let comm_part = max_send + max_recv + max_fault;
        let barrier_part = cost.barrier_cost_ns(n_ranks);
        self.compute_ns += compute_part.ceil() as u64;
        self.comm_ns += comm_part.ceil() as u64;
        self.barrier_ns += barrier_part.ceil() as u64;
        let phase = compute_part + comm_part + barrier_part;
        let total_ns = phase.ceil() as u64;
        self.now_ns += total_ns;
        self.phases.push(PhaseRecord {
            index: self.phases.len() as u64,
            compute_secs: compute_part / 1e9,
            comm_secs: comm_part / 1e9,
            barrier_secs: barrier_part / 1e9,
            msgs: phase_msgs,
            bytes: phase_bytes,
            total_ns,
            rank_ns,
        });
    }

    /// Advance by a collective's synchronization cost only (all-reduce and
    /// broadcast bypass the message path).
    pub(crate) fn advance_collective(&mut self, cost: &CostModel, n_ranks: usize) {
        let ns = cost.barrier_cost_ns(n_ranks).ceil() as u64;
        self.barrier_ns += ns;
        self.now_ns += ns;
    }

    /// Per-phase records accumulated so far (one per barrier).
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Where the elapsed virtual time went (Section 7-style profile).
    pub fn breakdown(&self) -> ClockBreakdown {
        ClockBreakdown {
            compute_secs: self.compute_ns as f64 / 1e9,
            comm_secs: self.comm_ns as f64 / 1e9,
            barrier_secs: self.barrier_ns as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{merge_one, Tally};

    /// Charge `ns` of compute to `rank` the way a rank's barrier does.
    fn charge_compute(stats: &mut Stats, rank: usize, ns: u64) {
        let mut tally = Tally::new(stats.phase.len());
        tally.compute_ns = ns;
        stats.merge(rank, &mut tally);
    }

    #[test]
    fn distance_cost_scales_with_dim() {
        let c = CostModel::mammoth_like();
        assert!(c.distance_cost_ns(128) > c.distance_cost_ns(32));
        assert_eq!(c.distance_cost_ns(0), 0);
    }

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let mut clock = VirtualClock::default();
        assert_eq!(clock.now_ns(), 0);
        let mut stats = Stats::new(2);
        charge_compute(&mut stats, 0, 1_000);
        charge_compute(&mut stats, 1, 5_000);
        let cost = CostModel::free_network();
        clock.advance_phase(&stats, &cost, 2);
        // Makespan is the max over ranks, not the sum.
        assert_eq!(clock.now_ns(), 5_000);
    }

    #[test]
    fn phase_cost_includes_comm_terms() {
        let mut clock = VirtualClock::default();
        let mut stats = Stats::new(2);
        merge_one(&mut stats, 0, 1_000_000, 0, 1); // 1 MB remote
        let cost = CostModel {
            alpha_ns: 100.0,
            bytes_per_ns: 1.0,
            barrier_hop_ns: 0.0,
            dist_elem_ns: 1.0,
        };
        clock.advance_phase(&stats, &cost, 2);
        // send side: 100 + 1e6, recv side: 100 + 1e6
        assert_eq!(clock.now_ns(), 2 * (100 + 1_000_000));
    }

    #[test]
    fn barrier_cost_grows_with_ranks() {
        let c = CostModel::mammoth_like();
        assert!(c.barrier_cost_ns(32) > c.barrier_cost_ns(4));
        assert_eq!(c.barrier_cost_ns(1), 0.0);
    }

    #[test]
    fn phase_log_records_every_barrier() {
        let mut clock = VirtualClock::default();
        let mut stats = Stats::new(2);
        let cost = CostModel::mammoth_like();
        merge_one(&mut stats, 0, 500, 0, 1);
        clock.advance_phase(&stats, &cost, 2);
        stats.reset_phase();
        clock.advance_phase(&stats, &cost, 2);
        let phases = clock.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].index, 0);
        assert_eq!(phases[0].msgs, 1);
        assert_eq!(phases[0].bytes, 500);
        assert_eq!(phases[1].msgs, 0);
        let total: f64 = phases.iter().map(PhaseRecord::total_secs).sum();
        assert!((total - clock.now_secs()).abs() < 1e-7);
    }

    #[test]
    fn phase_records_carry_exact_totals_and_rank_vectors() {
        let mut clock = VirtualClock::default();
        let mut stats = Stats::new(2);
        charge_compute(&mut stats, 0, 10_000);
        merge_one(&mut stats, 0, 1_000, 0, 1);
        let mut retransmit = Tally::new(2); // of the same frame
        retransmit.add_transport(1, 1_000);
        stats.merge(0, &mut retransmit);
        let mut delayed = Tally::new(2);
        delayed.fault_ns = 777;
        stats.merge(1, &mut delayed);
        let cost = CostModel {
            alpha_ns: 100.0,
            bytes_per_ns: 1.0,
            barrier_hop_ns: 500.0,
            dist_elem_ns: 1.0,
        };
        clock.advance_phase(&stats, &cost, 2);
        stats.reset_phase();
        clock.advance_phase(&stats, &cost, 2);
        let phases = clock.phases();
        // total_ns is exactly what the clock advanced by.
        let sum: u64 = phases.iter().map(|p| p.total_ns).sum();
        assert_eq!(sum, clock.now_ns());
        let p0 = &phases[0];
        assert_eq!(p0.rank_compute_ns(), [10_000.0, 0.0]);
        assert_eq!(p0.rank_send_ns(), [1_100.0, 0.0]); // alpha + bytes
        assert_eq!(p0.rank_recv_ns(), [0.0, 1_100.0]);
        assert_eq!(p0.rank_transport_send_ns(), [1_100.0, 0.0]);
        assert_eq!(p0.rank_transport_recv_ns(), [0.0, 1_100.0]);
        assert_eq!(p0.rank_fault_ns(), [0.0, 777.0]);
        // Rank work makes rank 0 (compute-heavy) the critical rank here.
        assert!(p0.rank_work_ns(0) > p0.rank_work_ns(1));
        // Transport traffic charged virtual time: the phase is longer than
        // compute + app traffic alone would make it.
        assert!(p0.total_ns > 10_000 + 2 * 1_100);
    }

    #[test]
    fn breakdown_attributes_components() {
        let mut clock = VirtualClock::default();
        let mut stats = Stats::new(2);
        charge_compute(&mut stats, 0, 10_000);
        merge_one(&mut stats, 0, 1_000, 0, 1);
        let cost = CostModel {
            alpha_ns: 100.0,
            bytes_per_ns: 1.0,
            barrier_hop_ns: 500.0,
            dist_elem_ns: 1.0,
        };
        clock.advance_phase(&stats, &cost, 2);
        let b = clock.breakdown();
        assert!(b.compute_secs > 0.0);
        assert!(b.comm_secs > 0.0);
        assert!(b.barrier_secs > 0.0);
        assert!((b.total_secs() - clock.now_secs()).abs() < 1e-8);
    }

    #[test]
    fn breakdown_empty_is_zero() {
        let clock = VirtualClock::default();
        let b = clock.breakdown();
        assert_eq!(b, ClockBreakdown::default());
    }

    #[test]
    fn free_network_charges_nothing_for_messages() {
        let mut clock = VirtualClock::default();
        let mut stats = Stats::new(2);
        merge_one(&mut stats, 0, 1 << 20, 0, 1);
        clock.advance_phase(&stats, &CostModel::free_network(), 2);
        assert_eq!(clock.now_ns(), 0);
    }
}
