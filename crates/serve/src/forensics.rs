//! Per-query forensics: lifecycle records, tail-based sampling, and the
//! slow-query log.
//!
//! Every arrival — answered, cache hit, or shed — leaves one
//! [`QueryRecord`] behind: its admission verdict, degrade level,
//! quantized cache-key hash, search-effort counters, and a per-stage
//! virtual-time waterfall (admission → batch wait → dispatch → beam
//! search → response) whose stages **sum exactly** to the end-to-end
//! latency in slots. All values derive from the replicated control plane
//! and the slot clock, so the records — and everything computed from
//! them — are bit-identical across reruns and across rank counts.
//!
//! Retaining every record in the run report would dwarf the aggregates,
//! so a deterministic *tail-based sampler* keeps only the interesting
//! ones: the slowest `slow_n` per `window_slots`-wide window of the slot
//! axis (ties broken by a pure PRF of the serve seed, never by map
//! order), plus **every** shed, degraded, and deadline-missing query as
//! unconditional exemplars. Aggregate per-stage histograms still cover
//! *all* queries, so the sampled exemplars never bias the dashboard's
//! stage waterfall.
//!
//! Records deliberately do **not** carry the home rank: `pool_id %
//! n_ranks` depends on the rank count and would break the bit-identity
//! contract. The JSONL slow-query log ([`QueryForensics::slow_query_log`])
//! derives it at write time for the run it describes.

use obs::{QueryExemplar, QueryForensicsSection, RunReport};
use std::collections::BTreeMap;

/// Attach a finalized forensics value to `report` as its
/// `query_forensics` section.
pub fn attach_forensics(report: &mut RunReport, forensics: &QueryForensics) {
    report.query_forensics = Some(forensics.to_section());
}

/// PRF salt for slow-sample tie-breaking, disjoint from the salts used
/// by `ygm::fault` and the workload generator.
const SALT_FORENSICS: u64 = 0x05EB_FE03;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv_seed() -> u64 {
    FNV_OFFSET
}

pub(crate) fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of a quantized cache key — the compact fingerprint a
/// record carries instead of the full coordinate vector.
pub fn hash_quantized_key(key: &[i64]) -> u64 {
    let mut h = fnv_seed();
    for &v in key {
        h = fnv_u64(h, v as u64);
    }
    h
}

/// How the frontend disposed of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Verdict {
    /// Answered from the result cache in the arrival slot.
    CacheHit,
    /// Dispatched and answered by a search.
    #[default]
    Answered,
    /// Dropped at admission: queue above the shed watermark.
    ShedOverload,
    /// Dropped from the queue after exceeding its deadline budget.
    ShedDeadline,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::CacheHit => "cache_hit",
            Verdict::Answered => "answered",
            Verdict::ShedOverload => "shed_overload",
            Verdict::ShedDeadline => "shed_deadline",
        }
    }
}

/// Why the sampler retained a record (bitflags).
pub const WHY_SLOW: u32 = 1;
pub const WHY_SHED: u32 = 2;
pub const WHY_DEGRADED: u32 = 4;
pub const WHY_DEADLINE_MISS: u32 = 8;

/// Render a `WHY_*` bitmask as a stable `"|"`-joined string.
pub fn why_string(why: u32) -> String {
    let mut parts = Vec::new();
    if why & WHY_SLOW != 0 {
        parts.push("slow");
    }
    if why & WHY_SHED != 0 {
        parts.push("shed");
    }
    if why & WHY_DEGRADED != 0 {
        parts.push("degraded");
    }
    if why & WHY_DEADLINE_MISS != 0 {
        parts.push("deadline_miss");
    }
    parts.join("|")
}

/// The full lifecycle of one query through the serving loop. Built from
/// replicated state only — identical on every rank and across rank
/// counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRecord {
    /// Arrival index (position in the workload plan).
    pub idx: u64,
    /// Query-pool id. The home rank is `pool_id % n_ranks` *for a given
    /// run*; it is derived at log-write time, never stored.
    pub pool_id: u64,
    /// Tenant class index (0 when the workload declares no classes).
    pub tenant: u64,
    pub verdict: Verdict,
    /// Degrade level the answering dispatch ran at (0 when not answered
    /// by a search).
    pub degrade_level: u64,
    /// FNV-1a hash of the quantized cache key.
    pub cache_key_hash: u64,
    pub arrived_slot: u64,
    /// Slot the verdict landed (`arrived_slot + latency_slots`, always).
    pub done_slot: u64,
    /// Stage waterfall, in slots. The five stages sum exactly to
    /// `latency_slots` for every record — asserted at construction.
    pub admission_slots: u64,
    pub batch_wait_slots: u64,
    pub dispatch_slots: u64,
    pub search_slots: u64,
    pub response_slots: u64,
    pub latency_slots: u64,
    /// Beam expansions executed by the answering search (0 otherwise).
    pub expansions: u64,
    /// Distance evaluations charged to the answering search.
    pub dist_evals: u64,
    /// Search rounds (frontier waves) of the answering search.
    pub rounds: u64,
    /// Shed past the deadline, or answered later than the deadline
    /// budget allows.
    pub deadline_miss: bool,
}

impl QueryRecord {
    /// Sum of the five waterfall stages — equals `latency_slots` by
    /// construction.
    pub fn stage_sum(&self) -> u64 {
        self.admission_slots
            + self.batch_wait_slots
            + self.dispatch_slots
            + self.search_slots
            + self.response_slots
    }

    fn check(self) -> Self {
        debug_assert_eq!(self.stage_sum(), self.latency_slots);
        debug_assert_eq!(self.done_slot - self.arrived_slot, self.latency_slots);
        self
    }

    /// Fold every field into an FNV-1a accumulator.
    fn digest_into(&self, mut h: u64) -> u64 {
        for v in [
            self.idx,
            self.pool_id,
            self.tenant,
            self.verdict as u64,
            self.degrade_level,
            self.cache_key_hash,
            self.arrived_slot,
            self.done_slot,
            self.admission_slots,
            self.batch_wait_slots,
            self.dispatch_slots,
            self.search_slots,
            self.response_slots,
            self.latency_slots,
            self.expansions,
            self.dist_evals,
            self.rounds,
            self.deadline_miss as u64,
        ] {
            h = fnv_u64(h, v);
        }
        h
    }
}

/// Collects one [`QueryRecord`] per arrival during a serving run; call
/// [`Self::finalize`] after the loop drains to run the tail sampler.
#[derive(Debug, Clone)]
pub struct ForensicsCollector {
    serve_seed: u64,
    window_slots: u64,
    slow_n: u64,
    deadline_slots: u64,
    records: Vec<QueryRecord>,
}

impl ForensicsCollector {
    pub fn new(serve_seed: u64, window_slots: u64, slow_n: u64, deadline_slots: u64) -> Self {
        assert!(window_slots >= 1, "forensics window must be >= 1 slot");
        ForensicsCollector {
            serve_seed,
            window_slots,
            slow_n,
            deadline_slots,
            records: Vec::new(),
        }
    }

    /// Answered from the cache in the arrival slot: every stage is 0.
    pub fn cache_hit(&mut self, idx: u64, pool_id: u64, tenant: u64, key_hash: u64, slot: u64) {
        self.records.push(
            QueryRecord {
                idx,
                pool_id,
                tenant,
                verdict: Verdict::CacheHit,
                cache_key_hash: key_hash,
                arrived_slot: slot,
                done_slot: slot,
                ..QueryRecord::default()
            }
            .check(),
        );
    }

    /// Refused at admission: the verdict lands in the arrival slot.
    pub fn shed_overload(&mut self, idx: u64, pool_id: u64, tenant: u64, key_hash: u64, slot: u64) {
        self.records.push(
            QueryRecord {
                idx,
                pool_id,
                tenant,
                verdict: Verdict::ShedOverload,
                cache_key_hash: key_hash,
                arrived_slot: slot,
                done_slot: slot,
                ..QueryRecord::default()
            }
            .check(),
        );
    }

    /// Shed from the queue after aging out: all its latency was batch
    /// wait.
    pub fn shed_deadline(
        &mut self,
        idx: u64,
        pool_id: u64,
        tenant: u64,
        key_hash: u64,
        arrived_slot: u64,
        slot: u64,
    ) {
        let wait = slot - arrived_slot;
        self.records.push(
            QueryRecord {
                idx,
                pool_id,
                tenant,
                verdict: Verdict::ShedDeadline,
                cache_key_hash: key_hash,
                arrived_slot,
                done_slot: slot,
                batch_wait_slots: wait,
                latency_slots: wait,
                deadline_miss: true,
                ..QueryRecord::default()
            }
            .check(),
        );
    }

    /// Answered by a dispatched search. The waterfall decomposes the
    /// engine's latency accounting exactly: queueing time is batch wait,
    /// the search itself is the dispatch slot (1), and transport-fault
    /// penalties are dispatch overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn answered(
        &mut self,
        idx: u64,
        pool_id: u64,
        tenant: u64,
        key_hash: u64,
        arrived_slot: u64,
        slot: u64,
        penalty_slots: u64,
        degrade_level: u64,
        expansions: u64,
        dist_evals: u64,
        rounds: u64,
    ) {
        let wait = slot - arrived_slot;
        let latency = wait + 1 + penalty_slots;
        self.records.push(
            QueryRecord {
                idx,
                pool_id,
                tenant,
                verdict: Verdict::Answered,
                degrade_level,
                cache_key_hash: key_hash,
                arrived_slot,
                done_slot: arrived_slot + latency,
                admission_slots: 0,
                batch_wait_slots: wait,
                dispatch_slots: penalty_slots,
                response_slots: 0,
                search_slots: 1,
                latency_slots: latency,
                expansions,
                dist_evals,
                rounds,
                deadline_miss: latency > self.deadline_slots,
            }
            .check(),
        );
    }

    /// Run the tail sampler and aggregate the stage histograms.
    pub fn finalize(mut self) -> QueryForensics {
        let considered = self.records.len() as u64;
        self.records.sort_unstable_by_key(|r| r.idx);

        // Aggregate waterfall over ALL records (the sampler only thins
        // the exemplar list, never the histograms).
        let mut hists: [BTreeMap<u64, u64>; 5] = Default::default();
        for r in &self.records {
            for (h, v) in hists.iter_mut().zip([
                r.admission_slots,
                r.batch_wait_slots,
                r.dispatch_slots,
                r.search_slots,
                r.response_slots,
            ]) {
                *h.entry(v).or_insert(0) += 1;
            }
        }
        let stage_hists: Vec<(String, Vec<(u64, u64)>)> = STAGE_NAMES
            .iter()
            .zip(hists)
            .map(|(n, h)| (n.to_string(), h.into_iter().collect()))
            .collect();

        // Tail-based retention: slowest `slow_n` per window of the slot
        // axis, ties broken by a PRF of the serve seed so the choice is
        // seed-deterministic, not incidental.
        let mut why: Vec<u32> = vec![0; self.records.len()];
        let mut by_window: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            by_window
                .entry(r.done_slot / self.window_slots)
                .or_default()
                .push(i);
        }
        for (_, mut idxs) in by_window {
            idxs.sort_unstable_by_key(|&i| {
                let r = &self.records[i];
                (
                    std::cmp::Reverse(r.latency_slots),
                    ygm::fault::mix(self.serve_seed, SALT_FORENSICS, r.idx, 0, 0),
                    r.idx,
                )
            });
            for &i in idxs.iter().take(self.slow_n as usize) {
                why[i] |= WHY_SLOW;
            }
        }
        // Unconditional exemplars: every shed, degraded, and
        // deadline-missing query is kept regardless of speed.
        for (i, r) in self.records.iter().enumerate() {
            if matches!(r.verdict, Verdict::ShedOverload | Verdict::ShedDeadline) {
                why[i] |= WHY_SHED;
            }
            if r.degrade_level > 0 {
                why[i] |= WHY_DEGRADED;
            }
            if r.deadline_miss {
                why[i] |= WHY_DEADLINE_MISS;
            }
        }

        let sampled: Vec<(QueryRecord, u32)> = self
            .records
            .into_iter()
            .zip(why)
            .filter(|&(_, w)| w != 0)
            .collect();
        let retained_slow = sampled.iter().filter(|&&(_, w)| w & WHY_SLOW != 0).count() as u64;
        let retained_exemplar = sampled.len() as u64 - retained_slow;

        let mut digest = fnv_seed();
        for v in [self.window_slots, self.slow_n, considered] {
            digest = fnv_u64(digest, v);
        }
        for (stage, buckets) in &stage_hists {
            digest = fnv_u64(digest, stage.len() as u64);
            for &(s, c) in buckets {
                digest = fnv_u64(digest, s);
                digest = fnv_u64(digest, c);
            }
        }
        for (r, w) in &sampled {
            digest = r.digest_into(fnv_u64(digest, *w as u64));
        }

        QueryForensics {
            window_slots: self.window_slots,
            slow_n: self.slow_n,
            considered,
            retained_slow,
            retained_exemplar,
            sampled,
            stage_hists,
            digest,
        }
    }
}

/// Waterfall stage names, in pipeline order.
pub const STAGE_NAMES: [&str; 5] = ["admission", "batch_wait", "dispatch", "search", "response"];

/// Finalized forensics of one serving run: the sampled records, the
/// all-query stage histograms, and a digest folded into the cross-rank
/// fingerprint check. Replicated — identical on every rank and across
/// rank counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryForensics {
    pub window_slots: u64,
    pub slow_n: u64,
    /// Every arrival got a record; this is how many the sampler saw.
    pub considered: u64,
    pub retained_slow: u64,
    pub retained_exemplar: u64,
    /// Retained records with their `WHY_*` masks, in arrival order.
    pub sampled: Vec<(QueryRecord, u32)>,
    /// `(stage name, exact histogram over ALL records)` per stage.
    pub stage_hists: Vec<(String, Vec<(u64, u64)>)>,
    /// FNV-1a digest over the sampler configuration, histograms, and
    /// sampled records.
    pub digest: u64,
}

impl QueryForensics {
    /// Translate into the run report's `query_forensics`
    /// section.
    pub fn to_section(&self) -> QueryForensicsSection {
        QueryForensicsSection {
            window_slots: self.window_slots,
            slow_n: self.slow_n,
            considered: self.considered,
            retained: self.sampled.len() as u64,
            retained_slow: self.retained_slow,
            retained_exemplar: self.retained_exemplar,
            stage_hists: self.stage_hists.clone(),
            exemplars: self
                .sampled
                .iter()
                .map(|(r, w)| QueryExemplar {
                    idx: r.idx,
                    pool_id: r.pool_id,
                    tenant: r.tenant,
                    verdict: r.verdict.as_str().to_string(),
                    why: why_string(*w),
                    degrade_level: r.degrade_level,
                    cache_key_hash: r.cache_key_hash,
                    arrived_slot: r.arrived_slot,
                    done_slot: r.done_slot,
                    admission_slots: r.admission_slots,
                    batch_wait_slots: r.batch_wait_slots,
                    dispatch_slots: r.dispatch_slots,
                    search_slots: r.search_slots,
                    response_slots: r.response_slots,
                    latency_slots: r.latency_slots,
                    expansions: r.expansions,
                    dist_evals: r.dist_evals,
                    rounds: r.rounds,
                    deadline_miss: r.deadline_miss,
                })
                .collect(),
            digest: self.digest,
        }
    }

    /// Render the sampled records as a JSONL slow-query log: one compact
    /// JSON object per line, in arrival order. `n_ranks` is the rank
    /// count of *this* run — the home rank is derived here precisely
    /// because storing it would break rank-count bit-identity.
    pub fn slow_query_log(&self, n_ranks: usize) -> String {
        let mut out = String::new();
        for (r, w) in &self.sampled {
            out.push_str(&format!(
                concat!(
                    "{{\"idx\":{},\"pool_id\":{},\"tenant\":{},\"home_rank\":{},\"verdict\":\"{}\",",
                    "\"why\":\"{}\",\"degrade_level\":{},\"cache_key_hash\":\"{:016x}\",",
                    "\"arrived_slot\":{},\"done_slot\":{},\"admission_slots\":{},",
                    "\"batch_wait_slots\":{},\"dispatch_slots\":{},\"search_slots\":{},",
                    "\"response_slots\":{},\"latency_slots\":{},\"expansions\":{},",
                    "\"dist_evals\":{},\"rounds\":{},\"deadline_miss\":{}}}\n"
                ),
                r.idx,
                r.pool_id,
                r.tenant,
                r.pool_id as usize % n_ranks,
                r.verdict.as_str(),
                why_string(*w),
                r.degrade_level,
                r.cache_key_hash,
                r.arrived_slot,
                r.done_slot,
                r.admission_slots,
                r.batch_wait_slots,
                r.dispatch_slots,
                r.search_slots,
                r.response_slots,
                r.latency_slots,
                r.expansions,
                r.dist_evals,
                r.rounds,
                r.deadline_miss,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> ForensicsCollector {
        ForensicsCollector::new(42, 8, 2, 8)
    }

    #[test]
    fn stage_sums_equal_latency_for_every_verdict() {
        let mut c = collector();
        c.cache_hit(0, 5, 0, 0xAA, 3);
        c.shed_overload(1, 6, 0, 0xBB, 3);
        c.shed_deadline(2, 7, 1, 0xCC, 3, 12);
        c.answered(3, 8, 1, 0xDD, 3, 7, 2, 1, 10, 200, 11);
        let f = c.finalize();
        assert_eq!(f.considered, 4);
        for (r, _) in &f.sampled {
            assert_eq!(r.stage_sum(), r.latency_slots);
            assert_eq!(r.done_slot - r.arrived_slot, r.latency_slots);
        }
    }

    #[test]
    fn answered_waterfall_decomposes_engine_latency() {
        let mut c = collector();
        // arrived 3, dispatched at slot 7, 2 penalty slots:
        // latency = (7-3) + 1 + 2 = 7.
        c.answered(0, 1, 0, 0, 3, 7, 2, 0, 5, 80, 6);
        let f = c.finalize();
        let (r, _) = &f.sampled[0];
        assert_eq!(r.batch_wait_slots, 4);
        assert_eq!(r.dispatch_slots, 2);
        assert_eq!(r.search_slots, 1);
        assert_eq!(r.latency_slots, 7);
        assert_eq!(r.done_slot, 10);
    }

    #[test]
    fn deadline_miss_flags_follow_the_budget() {
        let mut c = ForensicsCollector::new(1, 8, 0, 4);
        c.answered(0, 1, 0, 0, 0, 2, 0, 0, 1, 1, 1); // latency 3 <= 4
        c.answered(1, 2, 0, 0, 0, 4, 1, 0, 1, 1, 1); // latency 6 > 4
        c.shed_deadline(2, 3, 0, 0, 0, 5);
        let f = c.finalize();
        // slow_n = 0: only exemplars retained, and both deadline misses
        // are among them.
        let misses: Vec<u64> = f
            .sampled
            .iter()
            .filter(|(r, _)| r.deadline_miss)
            .map(|(r, _)| r.idx)
            .collect();
        assert_eq!(misses, vec![1, 2]);
        assert!(f.sampled.iter().all(|&(_, w)| w & WHY_SLOW == 0));
    }

    #[test]
    fn sampler_keeps_slowest_n_per_window() {
        let mut c = ForensicsCollector::new(7, 100, 1, 100);
        // Three answered queries in one window; latencies 1, 5, 3.
        c.answered(0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1);
        c.answered(1, 2, 0, 0, 0, 4, 0, 0, 1, 1, 1);
        c.answered(2, 3, 0, 0, 2, 4, 0, 0, 1, 1, 1);
        let f = c.finalize();
        assert_eq!(f.retained_slow, 1);
        assert_eq!(f.retained_exemplar, 0);
        assert_eq!(f.sampled.len(), 1);
        assert_eq!(f.sampled[0].0.idx, 1); // the latency-5 query
        assert_eq!(f.sampled[0].1, WHY_SLOW);
        // Histograms still cover all three records.
        assert_eq!(f.considered, 3);
        let search = &f.stage_hists[3];
        assert_eq!(search.0, "search");
        assert_eq!(search.1, vec![(1, 3)]);
    }

    #[test]
    fn shed_and_degraded_are_unconditional_exemplars() {
        let mut c = ForensicsCollector::new(7, 8, 0, 100);
        c.shed_overload(0, 1, 0, 0, 0);
        c.answered(1, 2, 0, 0, 0, 0, 0, 2, 1, 1, 1);
        c.cache_hit(2, 3, 0, 0, 1);
        let f = c.finalize();
        assert_eq!(f.sampled.len(), 2);
        assert_eq!(f.sampled[0].1, WHY_SHED);
        assert_eq!(f.sampled[1].1, WHY_DEGRADED);
        assert_eq!(f.retained_exemplar, 2);
    }

    #[test]
    fn finalize_is_deterministic_and_digest_covers_records() {
        let fill = |c: &mut ForensicsCollector| {
            c.cache_hit(0, 5, 0, 0xAA, 0);
            c.answered(1, 6, 0, 0xBB, 0, 3, 1, 1, 4, 60, 5);
            c.shed_deadline(2, 7, 0, 0xCC, 1, 10);
        };
        let mut a = collector();
        let mut b = collector();
        fill(&mut a);
        fill(&mut b);
        let fa = a.finalize();
        assert_eq!(fa, b.clone().finalize());
        // Perturbing one record changes the digest.
        b.records[1].dist_evals += 1;
        assert_ne!(fa.digest, b.finalize().digest);
    }

    #[test]
    fn tie_break_is_a_prf_of_the_seed() {
        // Two equal-latency queries, one slot. Which survives depends
        // only on the seed.
        let run = |seed: u64| {
            let mut c = ForensicsCollector::new(seed, 8, 1, 100);
            c.answered(0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1);
            c.answered(1, 2, 0, 0, 0, 0, 0, 0, 1, 1, 1);
            c.finalize().sampled[0].0.idx
        };
        let picks: Vec<u64> = (0..64).map(run).collect();
        assert!(picks.contains(&0) && picks.contains(&1));
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn section_translation_and_log_derive_home_rank() {
        let mut c = collector();
        c.answered(3, 10, 1, 0xFEED, 0, 9, 0, 1, 2, 30, 3);
        let f = c.finalize();
        let s = f.to_section();
        assert_eq!(s.considered, 1);
        assert_eq!(s.exemplars.len(), 1);
        let e = &s.exemplars[0];
        assert_eq!(e.verdict, "answered");
        assert_eq!(e.tenant, 1);
        assert!(e.why.contains("slow") && e.why.contains("degraded"));
        assert!(e.deadline_miss); // latency 10 > deadline 8
        assert_eq!(e.stage_sum(), e.latency_slots);
        assert_eq!(s.digest, f.digest);

        let log = f.slow_query_log(4);
        let line = log.lines().next().unwrap();
        assert!(line.contains("\"home_rank\":2")); // 10 % 4
        assert!(line.contains("\"tenant\":1"));
        assert!(line.contains("\"cache_key_hash\":\"000000000000feed\""));
        assert!(line.contains("\"deadline_miss\":true"));
        // One JSON object per line, parseable.
        obs::json::JsonValue::parse(line).unwrap();
        assert_ne!(f.slow_query_log(3), log); // home rank is per-run
    }

    #[test]
    fn why_string_orders_flags_stably() {
        assert_eq!(why_string(WHY_SLOW), "slow");
        assert_eq!(
            why_string(WHY_SLOW | WHY_SHED | WHY_DEADLINE_MISS),
            "slow|shed|deadline_miss"
        );
        assert_eq!(why_string(0), "");
    }
}
