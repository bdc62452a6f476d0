//! Per-query forensics: lifecycle records, tail-based sampling, and the
//! slow-query log.
//!
//! Every arrival — answered, cache hit, or shed — leaves one record behind,
//! written by [`ForensicsCollector::record`] from the slot loop's one
//! settle step: its verdict, degrade level, quantized cache-key hash,
//! search-effort counters, and a per-stage virtual-time waterfall
//! (admission → batch wait → dispatch → beam search → response) whose
//! stages **sum exactly** to the end-to-end latency in slots. The record's
//! row is the report's own [`QueryExemplar`]. All values derive from the
//! replicated control plane and the slot clock, so the records — and
//! everything computed from them — are bit-identical across reruns and
//! across rank counts.
//!
//! Retaining every record in the run report would dwarf the aggregates,
//! so a deterministic *tail-based sampler* keeps only the interesting
//! ones: the slowest `slow_n` per `window_slots`-wide window of the slot
//! axis (ties broken by a pure PRF of the serve seed, never by map
//! order), plus **every** shed, degraded, and deadline-missing query as
//! unconditional exemplars. Aggregate per-stage histograms still cover
//! *all* queries, so the sampled exemplars never bias the dashboard's
//! stage waterfall. [`ForensicsCollector::finalize`] returns the report's
//! `query_forensics` section.
//!
//! Records deliberately do **not** carry the home rank: `pool_id %
//! n_ranks` depends on the rank count and would break the bit-identity
//! contract. The JSONL slow-query log ([`slow_query_log`]) derives it at
//! write time for the run it describes.

use crate::workload::Arrival;
use dnnd::QueryProfile;
use obs::report::Value;
use obs::{JsonValue, QueryExemplar, QueryForensicsSection};
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Answered from the result cache in the arrival slot.
    CacheHit,
    /// Answered by a search dispatched at degrade `level`, its dispatch
    /// window charged `penalty` whole slots of transport retransmits.
    Answered {
        level: u8,
        penalty: u64,
        profile: QueryProfile,
    },
    /// Dropped at admission: queue above the shed watermark.
    ShedOverload,
    /// Dropped from the queue after exceeding its deadline budget.
    ShedDeadline,
}

impl Verdict {
    /// Whether the query was dropped unanswered.
    pub(crate) fn is_shed(self) -> bool {
        matches!(self, Verdict::ShedOverload | Verdict::ShedDeadline)
    }

    /// The verdict's code in the digest and its name in the report.
    fn code(self) -> (u64, &'static str) {
        match self {
            Verdict::CacheHit => (0, "cache_hit"),
            Verdict::Answered { .. } => (1, "answered"),
            Verdict::ShedOverload => (2, "shed_overload"),
            Verdict::ShedDeadline => (3, "shed_deadline"),
        }
    }
}

/// Why the sampler retained a record (bitflags).
const WHY_SLOW: u32 = 1;
const WHY_SHED: u32 = 2;
const WHY_DEGRADED: u32 = 4;
const WHY_DEADLINE_MISS: u32 = 8;

/// Render a `WHY_*` bitmask as a stable `"|"`-joined string.
fn why_string(why: u32) -> String {
    let flags = [
        (WHY_SLOW, "slow"),
        (WHY_SHED, "shed"),
        (WHY_DEGRADED, "degraded"),
        (WHY_DEADLINE_MISS, "deadline_miss"),
    ];
    let set: Vec<&str> = flags
        .iter()
        .filter(|&&(flag, _)| why & flag != 0)
        .map(|&(_, name)| name)
        .collect();
    set.join("|")
}

/// Waterfall stage names, in pipeline order.
const STAGE_NAMES: [&str; 5] = ["admission", "batch_wait", "dispatch", "search", "response"];

/// The sampler's and the digest's working row: the exemplar the report
/// will carry (its `why` is filled by the sampler) and the verdict it
/// records.
#[derive(Debug, Clone, PartialEq)]
struct QueryRecord {
    verdict: Verdict,
    row: QueryExemplar,
}

impl QueryRecord {
    /// Fold every field into an FNV-1a accumulator.
    fn digest_into(&self, mut h: u64) -> u64 {
        let r = &self.row;
        for v in [
            r.idx,
            r.pool_id,
            r.tenant,
            self.verdict.code().0,
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
            r.deadline_miss as u64,
        ] {
            h = fnv_u64(h, v);
        }
        h
    }
}

/// Collects one record per arrival during a serving run; call
/// [`Self::finalize`] after the loop drains to run the tail sampler.
#[derive(Debug, Clone)]
pub(crate) struct ForensicsCollector {
    serve_seed: u64,
    window_slots: u64,
    slow_n: u64,
    deadline_slots: u64,
    records: Vec<QueryRecord>,
}

impl ForensicsCollector {
    pub(crate) fn new(
        serve_seed: u64,
        window_slots: u64,
        slow_n: u64,
        deadline_slots: u64,
    ) -> Self {
        assert!(window_slots >= 1, "forensics window must be >= 1 slot");
        ForensicsCollector {
            serve_seed,
            window_slots,
            slow_n,
            deadline_slots,
            records: Vec::new(),
        }
    }

    /// Record query `q` (arrived in `q.slot`), settled by `verdict` in
    /// `done_slot`. The verdict decides how the latency splits into
    /// stages: a cache hit or an overload shed lands in its arrival slot
    /// with none; a deadline shed spent all of it waiting in the queue; an
    /// answered query waited, paid its fault penalty as dispatch overhead,
    /// and searched for one slot.
    pub(crate) fn record(&mut self, q: &Arrival, key_hash: u64, verdict: Verdict, done_slot: u64) {
        let latency = done_slot - q.slot;
        let mut row = QueryExemplar {
            idx: q.idx,
            pool_id: q.pool_id as u64,
            tenant: q.tenant as u64,
            verdict: verdict.code().1.to_string(),
            cache_key_hash: key_hash,
            arrived_slot: q.slot,
            done_slot,
            latency_slots: latency,
            ..QueryExemplar::default()
        };
        match verdict {
            Verdict::CacheHit | Verdict::ShedOverload => {}
            Verdict::ShedDeadline => {
                row.batch_wait_slots = latency;
                row.deadline_miss = true;
            }
            Verdict::Answered {
                level,
                penalty,
                profile,
            } => {
                row.degrade_level = level as u64;
                row.batch_wait_slots = latency - 1 - penalty;
                row.dispatch_slots = penalty;
                row.search_slots = 1;
                row.expansions = profile.expansions;
                row.dist_evals = profile.dist_evals;
                row.rounds = profile.rounds;
                row.deadline_miss = latency > self.deadline_slots;
            }
        }
        debug_assert_eq!(row.stage_sum(), row.latency_slots);
        self.records.push(QueryRecord { verdict, row });
    }

    /// Run the tail sampler and aggregate the stage histograms into the
    /// report's `query_forensics` section.
    pub(crate) fn finalize(mut self) -> QueryForensicsSection {
        let considered = self.records.len() as u64;
        self.records.sort_unstable_by_key(|r| r.row.idx);

        // Aggregate waterfall over ALL records (the sampler only thins
        // the exemplar list, never the histograms).
        let mut hists: [BTreeMap<u64, u64>; 5] = Default::default();
        for QueryRecord { row: r, .. } in &self.records {
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
                .entry(r.row.done_slot / self.window_slots)
                .or_default()
                .push(i);
        }
        for (_, mut idxs) in by_window {
            idxs.sort_unstable_by_key(|&i| {
                let r = &self.records[i].row;
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
            if r.verdict.is_shed() {
                why[i] |= WHY_SHED;
            }
            if r.row.degrade_level > 0 {
                why[i] |= WHY_DEGRADED;
            }
            if r.row.deadline_miss {
                why[i] |= WHY_DEADLINE_MISS;
            }
        }

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
        let mut retained_slow = 0;
        let mut exemplars = Vec::new();
        for (r, w) in self.records.into_iter().zip(why).filter(|&(_, w)| w != 0) {
            digest = r.digest_into(fnv_u64(digest, w as u64));
            retained_slow += u64::from(w & WHY_SLOW != 0);
            let why = why_string(w);
            exemplars.push(QueryExemplar { why, ..r.row });
        }

        QueryForensicsSection {
            window_slots: self.window_slots,
            slow_n: self.slow_n,
            considered,
            retained: exemplars.len() as u64,
            retained_slow,
            retained_exemplar: exemplars.len() as u64 - retained_slow,
            stage_hists,
            exemplars,
            digest,
        }
    }
}

/// Render a run's retained records as a JSONL slow-query log: each
/// exemplar as the report writes it, compact, one per line in arrival
/// order, with its `home_rank` inserted after `tenant`. `n_ranks` is the
/// rank count of *this* run — the home rank is derived here precisely
/// because storing it would break rank-count bit-identity.
pub fn slow_query_log(forensics: &QueryForensicsSection, n_ranks: usize) -> String {
    let mut out = String::new();
    for e in &forensics.exemplars {
        let JsonValue::Obj(mut fields) = e.to_json() else {
            unreachable!("an exemplar is an object")
        };
        let at = fields
            .iter()
            .position(|(k, _)| k == "tenant")
            .map_or(0, |i| i + 1);
        let home_rank = JsonValue::uint(e.pool_id % n_ranks as u64);
        fields.insert(at, ("home_rank".into(), home_rank));
        out.push_str(&format!("{}\n", JsonValue::Obj(fields)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> ForensicsCollector {
        ForensicsCollector::new(42, 8, 2, 8)
    }

    /// Query `idx` of `pool_id` / `tenant`, arrived in `slot`.
    fn query(idx: u64, pool_id: usize, tenant: usize, slot: u64) -> Arrival {
        let (client, first_issue_slot) = (idx, slot);
        Arrival {
            idx,
            slot,
            pool_id,
            tenant,
            client,
            first_issue_slot,
        }
    }

    /// Answered at degrade `level` after `penalty` fault slots, with
    /// `(expansions, dist_evals, rounds)` of search.
    fn answered(
        level: u8,
        penalty: u64,
        (expansions, dist_evals, rounds): (u64, u64, u64),
    ) -> Verdict {
        let profile = QueryProfile {
            expansions,
            dist_evals,
            rounds,
        };
        Verdict::Answered {
            level,
            penalty,
            profile,
        }
    }

    /// Dispatched in `slot` and answered: done one search slot plus the
    /// penalty later.
    fn answer(c: &mut ForensicsCollector, q: Arrival, slot: u64, level: u8, penalty: u64) {
        c.record(
            &q,
            0,
            answered(level, penalty, (1, 1, 1)),
            slot + 1 + penalty,
        );
    }

    #[test]
    fn stage_sums_equal_latency_for_every_verdict() {
        let mut c = collector();
        c.record(&query(0, 5, 0, 3), 0xAA, Verdict::CacheHit, 3);
        c.record(&query(1, 6, 0, 3), 0xBB, Verdict::ShedOverload, 3);
        c.record(&query(2, 7, 1, 3), 0xCC, Verdict::ShedDeadline, 12);
        c.record(&query(3, 8, 1, 3), 0xDD, answered(1, 2, (10, 200, 11)), 10);
        let f = c.finalize();
        assert_eq!(f.considered, 4);
        for e in &f.exemplars {
            assert_eq!(e.stage_sum(), e.latency_slots);
            assert_eq!(e.done_slot - e.arrived_slot, e.latency_slots);
        }
    }

    #[test]
    fn answered_waterfall_decomposes_engine_latency() {
        let mut c = collector();
        // arrived 3, dispatched at slot 7, 2 penalty slots:
        // latency = (7-3) + 1 + 2 = 7.
        answer(&mut c, query(0, 1, 0, 3), 7, 0, 2);
        let f = c.finalize();
        let e = &f.exemplars[0];
        assert_eq!(e.batch_wait_slots, 4);
        assert_eq!(e.dispatch_slots, 2);
        assert_eq!(e.search_slots, 1);
        assert_eq!(e.latency_slots, 7);
        assert_eq!(e.done_slot, 10);
    }

    #[test]
    fn deadline_miss_flags_follow_the_budget() {
        let mut c = ForensicsCollector::new(1, 8, 0, 4);
        answer(&mut c, query(0, 1, 0, 0), 2, 0, 0); // latency 3 <= 4
        answer(&mut c, query(1, 2, 0, 0), 4, 0, 1); // latency 6 > 4
        c.record(&query(2, 3, 0, 0), 0, Verdict::ShedDeadline, 5);
        let f = c.finalize();
        // slow_n = 0: only exemplars retained, and both deadline misses
        // are among them.
        let misses: Vec<u64> = f
            .exemplars
            .iter()
            .filter(|e| e.deadline_miss)
            .map(|e| e.idx)
            .collect();
        assert_eq!(misses, vec![1, 2]);
        assert!(f.exemplars.iter().all(|e| !e.why.contains("slow")));
    }

    #[test]
    fn sampler_keeps_slowest_n_per_window() {
        let mut c = ForensicsCollector::new(7, 100, 1, 100);
        // Three answered queries in one window; latencies 1, 5, 3.
        answer(&mut c, query(0, 1, 0, 0), 0, 0, 0);
        answer(&mut c, query(1, 2, 0, 0), 4, 0, 0);
        answer(&mut c, query(2, 3, 0, 2), 4, 0, 0);
        let f = c.finalize();
        assert_eq!(f.retained_slow, 1);
        assert_eq!(f.retained_exemplar, 0);
        assert_eq!(f.exemplars.len(), 1);
        assert_eq!(f.exemplars[0].idx, 1); // the latency-5 query
        assert_eq!(f.exemplars[0].why, "slow");
        // Histograms still cover all three records.
        assert_eq!(f.considered, 3);
        let search = &f.stage_hists[3];
        assert_eq!(search.0, "search");
        assert_eq!(search.1, vec![(1, 3)]);
    }

    #[test]
    fn shed_and_degraded_are_unconditional_exemplars() {
        let mut c = ForensicsCollector::new(7, 8, 0, 100);
        c.record(&query(0, 1, 0, 0), 0, Verdict::ShedOverload, 0);
        answer(&mut c, query(1, 2, 0, 0), 0, 2, 0);
        c.record(&query(2, 3, 0, 1), 0, Verdict::CacheHit, 1);
        let f = c.finalize();
        assert_eq!(f.exemplars.len(), 2);
        assert_eq!(f.exemplars[0].why, "shed");
        assert_eq!(f.exemplars[1].why, "degraded");
        assert_eq!(f.retained_exemplar, 2);
    }

    #[test]
    fn finalize_is_deterministic_and_digest_covers_records() {
        let fill = |c: &mut ForensicsCollector| {
            c.record(&query(0, 5, 0, 0), 0xAA, Verdict::CacheHit, 0);
            c.record(&query(1, 6, 0, 0), 0xBB, answered(1, 1, (4, 60, 5)), 5);
            c.record(&query(2, 7, 0, 1), 0xCC, Verdict::ShedDeadline, 10);
        };
        let mut a = collector();
        let mut b = collector();
        fill(&mut a);
        fill(&mut b);
        let fa = a.finalize();
        assert_eq!(fa, b.clone().finalize());
        // Perturbing one record changes the digest.
        b.records[1].row.dist_evals += 1;
        assert_ne!(fa.digest, b.finalize().digest);
    }

    #[test]
    fn tie_break_is_a_prf_of_the_seed() {
        // Two equal-latency queries, one slot. Which survives depends
        // only on the seed.
        let run = |seed: u64| {
            let mut c = ForensicsCollector::new(seed, 8, 1, 100);
            answer(&mut c, query(0, 1, 0, 0), 0, 0, 0);
            answer(&mut c, query(1, 2, 0, 0), 0, 0, 0);
            c.finalize().exemplars[0].idx
        };
        let picks: Vec<u64> = (0..64).map(run).collect();
        assert!(picks.contains(&0) && picks.contains(&1));
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn section_rows_and_log_derive_home_rank() {
        let mut c = collector();
        c.record(&query(3, 10, 1, 0), 0xFEED, answered(1, 0, (2, 30, 3)), 10);
        let f = c.finalize();
        assert_eq!(f.considered, 1);
        assert_eq!(f.exemplars.len(), 1);
        let e = &f.exemplars[0];
        assert_eq!(e.verdict, "answered");
        assert_eq!(e.tenant, 1);
        assert!(e.why.contains("slow") && e.why.contains("degraded"));
        assert!(e.deadline_miss); // latency 10 > deadline 8
        assert_eq!(e.stage_sum(), e.latency_slots);

        let log = slow_query_log(&f, 4);
        let line = log.lines().next().unwrap();
        // The log line is the report's exemplar with the home rank
        // (10 % 4) after the tenant, byte for byte.
        assert_eq!(
            line,
            "{\"idx\":3,\"pool_id\":10,\"tenant\":1,\"home_rank\":2,\"verdict\":\"answered\",\
             \"why\":\"slow|degraded|deadline_miss\",\"degrade_level\":1,\
             \"cache_key_hash\":\"000000000000feed\",\"arrived_slot\":0,\"done_slot\":10,\
             \"admission_slots\":0,\"batch_wait_slots\":9,\"dispatch_slots\":0,\
             \"search_slots\":1,\"response_slots\":0,\"latency_slots\":10,\"expansions\":2,\
             \"dist_evals\":30,\"rounds\":3,\"deadline_miss\":true}"
        );
        assert_ne!(slow_query_log(&f, 3), log); // home rank is per-run
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
