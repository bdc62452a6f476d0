//! Deterministic fault injection for the simulated runtime.
//!
//! A real YGM deployment at the paper's scale (32 nodes x 128 ranks over
//! Omni-Path) sees dropped and duplicated MPI-level frames (retried by the
//! transport), stragglers, and wildly reordered handler execution. The
//! in-process runtime normally delivers every aggregation buffer exactly
//! once, in order, instantly — so the happy path is all the engine is ever
//! tested against. This module turns the simulated transport hostile, in the
//! style of FoundationDB's deterministic simulation testing:
//!
//! * **Frame faults** — each flushed aggregation buffer (a *frame*) can be
//!   dropped, duplicated, or delayed by a bounded number of sync epochs.
//! * **Rank stalls** — a rank can skip dispatching for a barrier round,
//!   creating stragglers and reordering across ranks.
//! * **Flush jitter** — sends can trigger an early flush, perturbing frame
//!   boundaries and thus the fault coordinates of every later frame on the
//!   edge (a boundary by itself reorders nothing: every frame a rank flushed
//!   before a meeting travels with that meeting, in flush order).
//!
//! Every decision is a pure function of one **sim seed** and the fault
//! coordinates — `(source, destination, frame sequence number, delivery
//! attempt)` for frame faults, `(rank, epoch)` for stalls — drawn through a
//! ChaCha generator seeded per decision. The coordinates do not depend on
//! thread scheduling either — a frame's number and the epoch a rank is in
//! follow from what the ranks flushed, and frames and acks travel only
//! through the world's meetings — so re-running with the same `--sim-seed`
//! replays the exact same injected fault for the exact same frame, and the
//! same recovery after it: delays and stalls are this repo's source of
//! reordering, not the scheduler, which is what makes a failing seed a
//! complete bug report.
//!
//! On top of the injected faults, [`crate::Comm`] runs a reliable-delivery
//! protocol (per-destination sequence numbers, acks that ride the next
//! meeting, epoch-based retransmission with capped exponential backoff,
//! receive-side dedup against a rank-private watermark per source) so that
//! every application message is still processed *exactly once* and the
//! termination-detection barrier still completes. See `DESIGN.md` §"Fault
//! model & simulation testing".

use obs::FaultSection;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Probabilities and bounds for one class of hostile run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Per-attempt probability that a frame is dropped in transit.
    pub drop: f64,
    /// Probability that a delivered frame arrives twice.
    pub dup: f64,
    /// Probability that a delivered frame is delayed.
    pub delay: f64,
    /// Maximum delay, in sync epochs (uniform in `1..=max_delay_epochs`).
    pub max_delay_epochs: u32,
    /// Per-(rank, epoch) probability that the rank skips one dispatch
    /// round (a transient straggler).
    pub stall: f64,
    /// Probability that an `async_send` forces an early flush, perturbing
    /// frame boundaries.
    pub flush_jitter: f64,
    /// Delivery attempts that may be dropped before the transport forces
    /// the frame through fault-free. Bounds barrier spin time; retries have
    /// already charged virtual time by then.
    pub max_faulty_attempts: u32,
}

impl FaultProfile {
    /// No faults at all — the reliable-delivery layer still runs (sequence
    /// numbers, acks, dedup), so `clean` exercises the protocol machinery
    /// itself without injected adversity.
    pub fn clean() -> Self {
        FaultProfile {
            drop: 0.0,
            dup: 0.0,
            delay: 0.0,
            max_delay_epochs: 0,
            stall: 0.0,
            flush_jitter: 0.0,
            max_faulty_attempts: 0,
        }
    }

    /// Mild adversity: occasional drops, dups, short delays.
    pub fn lossy() -> Self {
        FaultProfile {
            drop: 0.05,
            dup: 0.02,
            delay: 0.10,
            max_delay_epochs: 3,
            stall: 0.02,
            flush_jitter: 0.05,
            max_faulty_attempts: 8,
        }
    }

    /// Heavy adversity: the acceptance bar from the issue — up to 10%
    /// drop plus reorder, delay, stalls, and jittered flushes.
    pub fn stormy() -> Self {
        FaultProfile {
            drop: 0.10,
            dup: 0.05,
            delay: 0.25,
            max_delay_epochs: 6,
            stall: 0.05,
            flush_jitter: 0.15,
            max_faulty_attempts: 12,
        }
    }

    /// Profile by CLI name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "clean" => Some(Self::clean()),
            "lossy" => Some(Self::lossy()),
            "stormy" => Some(Self::stormy()),
            _ => None,
        }
    }

    /// The canonical profile names accepted by [`Self::by_name`].
    pub const NAMES: [&'static str; 3] = ["clean", "lossy", "stormy"];

    /// The canonical name of this profile, or `"custom"`.
    pub fn name(&self) -> &'static str {
        for n in Self::NAMES {
            if Self::by_name(n).unwrap() == *self {
                return n;
            }
        }
        "custom"
    }

    /// Whether this profile can actually injure traffic.
    pub fn is_hostile(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.delay > 0.0
            || self.stall > 0.0
            || self.flush_jitter > 0.0
    }
}

/// A fault profile bound to the sim seed that drives every decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The fault classes and rates to inject.
    pub profile: FaultProfile,
    /// Seed of the decision PRF. The **only** source of randomness: two
    /// runs with equal plans inject identical faults on identical frames.
    pub sim_seed: u64,
}

impl FaultPlan {
    /// Bind `profile` to `sim_seed`.
    pub fn new(profile: FaultProfile, sim_seed: u64) -> Self {
        FaultPlan { profile, sim_seed }
    }

    // Domain-separation salts for the decision PRF.
    const SALT_DROP: u64 = 0x44_52_4F_50; // "DROP"
    const SALT_DUP: u64 = 0x44_55_50; // "DUP"
    const SALT_DELAY: u64 = 0x44_4C_41_59; // "DLAY"
    const SALT_STALL: u64 = 0x53_54_41_4C; // "STAL"
    const SALT_JITTER: u64 = 0x4A_49_54; // "JIT"

    /// One ChaCha generator per decision, keyed by `(sim_seed, salt,
    /// coordinates)`. Schedule-independent by construction.
    fn rng(&self, salt: u64, a: u64, b: u64, c: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(mix(self.sim_seed, salt, a, b, c))
    }

    /// Should delivery attempt `attempt` of frame `(src, dest, seq)` be
    /// dropped? Always `false` once `attempt` reaches the profile's
    /// `max_faulty_attempts`, so retransmission terminates.
    pub fn drop_frame(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> bool {
        if self.profile.drop <= 0.0 || attempt >= self.profile.max_faulty_attempts {
            return false;
        }
        self.rng(Self::SALT_DROP, edge(src, dest), seq, attempt as u64)
            .gen_bool(self.profile.drop)
    }

    /// Should this delivery of frame `(src, dest, seq)` arrive twice?
    pub fn duplicate_frame(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> bool {
        self.profile.dup > 0.0
            && self
                .rng(Self::SALT_DUP, edge(src, dest), seq, attempt as u64)
                .gen_bool(self.profile.dup)
    }

    /// Epochs to hold frame `(src, dest, seq)` before delivery (0 = now).
    pub fn delay_epochs(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> u32 {
        if self.profile.delay <= 0.0 || self.profile.max_delay_epochs == 0 {
            return 0;
        }
        let mut r = self.rng(Self::SALT_DELAY, edge(src, dest), seq, attempt as u64);
        if r.gen_bool(self.profile.delay) {
            r.gen_range(1..=self.profile.max_delay_epochs)
        } else {
            0
        }
    }

    /// Does `rank` stall (skip one dispatch round) at `epoch`?
    pub fn stall(&self, rank: usize, epoch: u64) -> bool {
        self.profile.stall > 0.0
            && self
                .rng(Self::SALT_STALL, rank as u64, epoch, 0)
                .gen_bool(self.profile.stall)
    }

    /// Does the `nth` send on edge `(src, dest)` force an early flush?
    pub fn jitter_flush(&self, src: usize, dest: usize, nth: u64) -> bool {
        self.profile.flush_jitter > 0.0
            && self
                .rng(Self::SALT_JITTER, edge(src, dest), nth, 0)
                .gen_bool(self.profile.flush_jitter)
    }
}

#[inline]
fn edge(src: usize, dest: usize) -> u64 {
    ((src as u64) << 32) | dest as u64
}

/// SplitMix64-style avalanche over the decision coordinates.
///
/// Public so other deterministic plans (e.g. the serving layer's arrival
/// and shedding PRFs) can key independent `ChaCha8Rng` streams on their
/// own `(seed, salt, coordinates)` tuples with the same guarantee: every
/// decision is a pure function of its coordinates, independent of
/// schedule, rank count, and evaluation order.
pub fn mix(seed: u64, salt: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for v in [a, b, c] {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// The counters of a [`FaultSection`] (which documents each) while a run
/// tallies them, without the plan's identity. Each rank counts its own
/// events in its [`crate::stats::Tally`]; the world's copy lives inside the
/// rendezvous and absorbs the ranks' whenever they meet.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub stalls: u64,
    pub jittered_flushes: u64,
    pub retransmits: u64,
    pub dedup_discards: u64,
    pub forced_deliveries: u64,
}

impl FaultCounters {
    /// Add `from`'s counts to these and leave `from` zeroed.
    pub(crate) fn absorb(&mut self, from: &mut FaultCounters) {
        let from = std::mem::take(from);
        self.dropped += from.dropped;
        self.duplicated += from.duplicated;
        self.delayed += from.delayed;
        self.stalls += from.stalls;
        self.jittered_flushes += from.jittered_flushes;
        self.retransmits += from.retransmits;
        self.dedup_discards += from.dedup_discards;
        self.forced_deliveries += from.forced_deliveries;
    }

    /// These counts as the run report's `faults` section under `plan`.
    pub fn report(&self, plan: &FaultPlan) -> FaultSection {
        FaultSection {
            sim_seed: plan.sim_seed,
            profile: plan.profile.name().to_string(),
            dropped: self.dropped,
            duplicated: self.duplicated,
            delayed: self.delayed,
            stalls: self.stalls,
            jittered_flushes: self.jittered_flushes,
            retransmits: self.retransmits,
            dedup_discards: self.dedup_discards,
            forced_deliveries: self.forced_deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve_by_name() {
        for name in FaultProfile::NAMES {
            let p = FaultProfile::by_name(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(FaultProfile::by_name("chaotic-evil").is_none());
        assert!(!FaultProfile::clean().is_hostile());
        assert!(FaultProfile::lossy().is_hostile());
        assert!(FaultProfile::stormy().drop >= 0.10);
    }

    #[test]
    fn decisions_are_deterministic_in_plan() {
        let a = FaultPlan::new(FaultProfile::stormy(), 42);
        let b = FaultPlan::new(FaultProfile::stormy(), 42);
        for seq in 0..200u64 {
            assert_eq!(a.drop_frame(0, 1, seq, 0), b.drop_frame(0, 1, seq, 0));
            assert_eq!(
                a.duplicate_frame(2, 3, seq, 1),
                b.duplicate_frame(2, 3, seq, 1)
            );
            assert_eq!(a.delay_epochs(1, 0, seq, 0), b.delay_epochs(1, 0, seq, 0));
            assert_eq!(a.stall(3, seq), b.stall(3, seq));
            assert_eq!(a.jitter_flush(0, 2, seq), b.jitter_flush(0, 2, seq));
        }
    }

    #[test]
    fn seeds_decorrelate_decisions() {
        // Different sim seeds must give different fault schedules.
        let a = FaultPlan::new(FaultProfile::stormy(), 1);
        let b = FaultPlan::new(FaultProfile::stormy(), 2);
        let diff = (0..500u64)
            .filter(|&s| a.drop_frame(0, 1, s, 0) != b.drop_frame(0, 1, s, 0))
            .count();
        assert!(diff > 10, "schedules nearly identical across seeds: {diff}");
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(FaultProfile::stormy(), 7);
        let n = 4000u64;
        let drops = (0..n).filter(|&s| plan.drop_frame(0, 1, s, 0)).count() as f64;
        let rate = drops / n as f64;
        assert!(
            (rate - 0.10).abs() < 0.03,
            "observed drop rate {rate} far from 0.10"
        );
    }

    #[test]
    fn attempts_past_cap_never_drop() {
        let plan = FaultPlan::new(FaultProfile::stormy(), 9);
        let cap = plan.profile.max_faulty_attempts;
        for seq in 0..500u64 {
            assert!(!plan.drop_frame(0, 1, seq, cap));
            assert!(!plan.drop_frame(0, 1, seq, cap + 3));
        }
    }

    #[test]
    fn delays_respect_bound() {
        let plan = FaultPlan::new(FaultProfile::stormy(), 11);
        let max = plan.profile.max_delay_epochs;
        let mut saw_delay = false;
        for seq in 0..500u64 {
            let d = plan.delay_epochs(1, 2, seq, 0);
            assert!(d <= max);
            saw_delay |= d > 0;
        }
        assert!(saw_delay, "stormy profile never delayed anything");
    }

    #[test]
    fn clean_profile_injects_nothing() {
        let plan = FaultPlan::new(FaultProfile::clean(), 1234);
        for seq in 0..200u64 {
            assert!(!plan.drop_frame(0, 1, seq, 0));
            assert!(!plan.duplicate_frame(0, 1, seq, 0));
            assert_eq!(plan.delay_epochs(0, 1, seq, 0), 0);
            assert!(!plan.stall(0, seq));
            assert!(!plan.jitter_flush(0, 1, seq));
        }
    }

    #[test]
    fn report_snapshot_carries_identity() {
        let plan = FaultPlan::new(FaultProfile::lossy(), 99);
        let mut c = FaultCounters::default();
        let mut rank = FaultCounters {
            dropped: 3,
            retransmits: 4,
            ..FaultCounters::default()
        };
        c.absorb(&mut rank);
        assert_eq!(rank, FaultCounters::default());
        let r = c.report(&plan);
        assert_eq!(r.sim_seed, 99);
        assert_eq!(r.profile, "lossy");
        assert_eq!(r.dropped, 3);
        assert_eq!(r.retransmits, 4);
        assert_eq!(r.injected(), 3);
    }
}
