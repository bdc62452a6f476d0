//! The slot-driven serving engine.
//!
//! ## Two clocks
//!
//! The `ygm` virtual clock measures *resource cost* and legitimately
//! differs across rank counts (more ranks, more parallel compute). The
//! *serving clock* is a slot counter layered on top of it
//! ([`ygm::SlotTimer`] pins one loop iteration to [`SLOT_NS`] of virtual
//! time): arrivals, batch ages, deadlines, and reported latencies are all
//! measured in slots. Everything SLO-visible therefore depends only on the
//! slot axis — which is identical across rank counts — never on raw
//! virtual timestamps.
//!
//! ## Replicated control plane, distributed data plane
//!
//! Every rank runs the *same* deterministic state machine over the same
//! global logical queue: arrivals (a pure PRF of the serve seed), cache
//! probes, deadline/watermark shedding, degrade-level selection, and batch
//! formation are computed identically everywhere with zero communication —
//! the same philosophy as `ygm::fault`'s replicated fault plans. Only
//! search execution is distributed: each dispatched query is homed on
//! `pool_id % n_ranks` and answered by the reusable
//! [`dnnd::query::SearchEngine`] cascade; results are then replicated to
//! all ranks with an all-gather so every rank's cache and statistics stay
//! bit-identical (asserted at the end of the run — the built-in
//! determinism check).
//!
//! Under a hostile fault profile, transport retransmits observed during a
//! dispatch window are charged against that batch's queries as whole-slot
//! latency penalties (capped), so injected faults surface in the latency
//! SLOs without ever perturbing the control-plane decision sequence.
//!
//! ## One settle step
//!
//! A query leaves the loop by one of four verdicts — cache hit, overload
//! shed, deadline shed, answered — and each is one call of
//! `Ledger::settle`, which counts it into its tenant class's row and the
//! histograms, writes its forensics row, closes its trace span and tells
//! its client. The class rows are the run's only counters: `ServingStats`'
//! totals are their sum, folded once after the loop.

use crate::cache::{QuantizeKey, ResultCache};
use crate::forensics::{fnv_seed, fnv_u64, hash_quantized_key, ForensicsCollector, Verdict};
use crate::params::{ServeParams, SLOT_NS};
use crate::workload::{
    Arrival, ArrivalPlan, ArrivalProcess, PoolPicker, WorkloadSpec, SALT_COMPACT, SALT_MUTATE,
    SALT_THINK,
};
use dataset::batch::BatchMetric;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use dnnd::query::{IdMask, SearchEngine};
use dnnd::{DistSearchParams, QueryProfile};
use nnd::graph::KnnGraph;
use obs::{
    QueryForensicsSection, ServingSection, TenantSloSection, VdbNamespaceSection, VdbSection,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use vdb::{Collection, CollectionStat, MetaRecord, Predicate, Term};
use ygm::fault::mix;
use ygm::{all_gather, Comm, SlotTimer, World, WorldReport};

/// Tag for replicating each dispatch's results to every rank.
pub const TAG_RESULTS: u16 = 40;
/// Tag for the end-of-run cross-rank statistics fingerprint check.
pub const TAG_FINGERPRINT: u16 = 41;

/// Most whole-slot latency penalty one dispatch window can absorb from
/// transport retransmits.
const FAULT_PENALTY_CAP_SLOTS: u64 = 4;

/// A non-empty queue dispatches once its oldest query is this many slots
/// old, even short of a full micro-batch.
const FLUSH_AGE_SLOTS: u64 = 2;

/// Width, in slots, of each tail-sampling window of the forensics
/// collector.
const FORENSICS_WINDOW_SLOTS: u64 = 8;

/// Slowest queries the forensics collector retains per window, beside the
/// unconditional shed/degraded/deadline-miss exemplars.
const FORENSICS_SLOW_N: u64 = 4;

/// High-bit namespace for per-query causal flow ids, OR'd with the query's
/// arrival index. The transport-level ids minted by `ygm::comm::flow_id`
/// carry the message tag in their top 6 bits and the origin rank in the
/// next 13, so one that landed here would be tag 63 sent from rank 6 792;
/// no protocol in this workspace registers a tag above 50.
const QUERY_FLOW_BASE: u64 = 0xFF51_0000_0000_0000;

/// Replicated statistics of one serving run. Identical on every rank and
/// across rank counts for a given `(serve seed, parameters, graph)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ServingStats {
    pub serve_seed: u64,
    pub slot_ns: u64,
    /// Serving slots executed (arrivals span plus the drain tail).
    pub slots: u64,
    pub offered: u64,
    pub admitted: u64,
    pub answered: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub shed_deadline: u64,
    pub shed_overload: u64,
    /// Queries answered at degrade level >= 1.
    pub degraded: u64,
    pub max_queue_depth: u64,
    /// Whole-slot latency penalties charged for transport retransmits.
    pub fault_penalty_slots: u64,
    /// Exact latency histogram `(latency_slots, count)`, sorted by
    /// latency. Cache hits land in bucket 0.
    pub latency_hist: Vec<(u64, u64)>,
    /// Exact *client-perceived* latency histogram: done slot minus the
    /// issuing client's **first** attempt at the query, so closed-loop
    /// shed-and-retry time accumulates. Equal to `latency_hist` for an
    /// open loop — the divergence under saturation is coordinated
    /// omission made visible.
    pub client_hist: Vec<(u64, u64)>,
    /// Per-tenant-class SLO accounting, in declaration (priority) order.
    /// Empty when the workload declares no tenant classes.
    pub tenants: Vec<TenantStats>,
    /// Vector-DB product-layer counters; `None` for legacy (namespace-less)
    /// runs.
    pub vdb: Option<VdbServeStats>,
    /// FNV-1a digest over `(arrival idx, result ids)` in arrival order.
    pub result_digest: u64,
}

/// Replicated vector-DB counters of one namespaced serving run: the final
/// collection state plus mutation, filter, and cache-suppression totals.
/// Identical on every rank (asserted via the stats fingerprint).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VdbServeStats {
    /// Namespace served.
    pub namespace: String,
    /// Final collection counters (see [`vdb::CollectionStat`]).
    pub points: u64,
    pub live: u64,
    pub tombstones: u64,
    pub dead: u64,
    pub epoch: u64,
    /// Online inserts applied on slot boundaries.
    pub inserts: u64,
    /// Online deletes (tombstones placed) on slot boundaries.
    pub deletes: u64,
    /// Background compaction passes executed.
    pub compactions: u64,
    /// Offered queries that carried a metadata predicate.
    pub filtered: u64,
    /// Ids stripped from cache hits because a tombstone landed after the
    /// entry was cached (deletes do not bump the epoch).
    pub cache_suppressed: u64,
    /// Decile histogram `(decile, count)` of dispatched filtered queries'
    /// mask selectivity, sorted by decile.
    pub selectivity_hist: Vec<(u64, u64)>,
}

impl VdbServeStats {
    /// Translate into the run report's `vdb` section.
    pub fn to_section(&self) -> VdbSection {
        VdbSection {
            namespaces: vec![VdbNamespaceSection {
                name: self.namespace.clone(),
                points: self.points,
                live: self.live,
                tombstones: self.tombstones,
                dead: self.dead,
                epoch: self.epoch,
                inserts: self.inserts,
                deletes: self.deletes,
                compactions: self.compactions,
            }],
            filtered_queries: self.filtered,
            cache_suppressed_ids: self.cache_suppressed,
            selectivity_hist: self.selectivity_hist.clone(),
        }
    }
}

/// Per-tenant-class slice of a run's SLO accounting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TenantStats {
    pub name: String,
    pub share_pct: u64,
    pub offered: u64,
    pub admitted: u64,
    pub answered: u64,
    pub cache_hits: u64,
    pub shed_overload: u64,
    pub shed_deadline: u64,
    pub degraded: u64,
    /// Exact latency histogram of this class's answered queries (cache
    /// hits in bucket 0).
    pub latency_hist: Vec<(u64, u64)>,
}

impl TenantStats {
    /// Queries of this class that received an answer (search + cache).
    pub fn total_answered(&self) -> u64 {
        self.answered + self.cache_hits
    }

    /// SLO attainment: fraction of offered queries answered (0 when
    /// nothing was offered).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.total_answered() as f64 / self.offered as f64
        }
    }

    /// Exact latency percentile of this class in virtual nanoseconds.
    pub fn percentile_ns(&self, q: f64, slot_ns: u64) -> u64 {
        hist_percentile_slots(&self.latency_hist, q).unwrap_or(0) * slot_ns
    }
}

/// Exact percentile over a `(slots, count)` histogram; `None` when empty.
fn hist_percentile_slots(hist: &[(u64, u64)], q: f64) -> Option<u64> {
    let total: u64 = hist.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let want = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0;
    for &(slots, count) in hist {
        cum += count;
        if cum >= want {
            return Some(slots);
        }
    }
    hist.last().map(|&(s, _)| s)
}

impl ServingStats {
    /// Total queries that received an answer (search + cache).
    pub fn total_answered(&self) -> u64 {
        self.answered + self.cache_hits
    }

    /// Exact latency percentile in virtual nanoseconds (`q` in `[0, 1]`);
    /// 0 when nothing was answered.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        hist_percentile_slots(&self.latency_hist, q).unwrap_or(0) * self.slot_ns
    }

    /// Exact *client-perceived* latency percentile in virtual
    /// nanoseconds: measured from each query's first issue, so
    /// closed-loop retry time counts. Diverges upward from
    /// [`Self::percentile_ns`] exactly when coordinated omission would
    /// hide queueing pain.
    pub fn client_percentile_ns(&self, q: f64) -> u64 {
        hist_percentile_slots(&self.client_hist, q).unwrap_or(0) * self.slot_ns
    }

    /// Mean answered latency in virtual nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        let total: u64 = self.latency_hist.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .latency_hist
            .iter()
            .map(|&(s, c)| (s * self.slot_ns) as f64 * c as f64)
            .sum();
        sum / total as f64
    }

    /// Fingerprint of every replicated field — what the ranks compare to
    /// prove they ran the same control plane. Derived from `Hash`, so it is
    /// only meaningful compared within one build (every caller compares it
    /// within one process).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Translate into the run report's `serving` section.
    pub fn to_section(&self) -> ServingSection {
        ServingSection {
            serve_seed: self.serve_seed,
            slot_ns: self.slot_ns,
            slots: self.slots,
            offered: self.offered,
            admitted: self.admitted,
            answered: self.answered,
            cache_hits: self.cache_hits,
            cache_evictions: self.cache_evictions,
            shed_deadline: self.shed_deadline,
            shed_overload: self.shed_overload,
            degraded: self.degraded,
            max_queue_depth: self.max_queue_depth,
            p50_ns: self.percentile_ns(0.50),
            p95_ns: self.percentile_ns(0.95),
            p99_ns: self.percentile_ns(0.99),
            mean_latency_ns: self.mean_latency_ns(),
            latency_hist: self.latency_hist.clone(),
            client_p50_ns: self.client_percentile_ns(0.50),
            client_p99_ns: self.client_percentile_ns(0.99),
            client_hist: self.client_hist.clone(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSloSection {
                    name: t.name.clone(),
                    share_pct: t.share_pct,
                    offered: t.offered,
                    admitted: t.admitted,
                    answered: t.answered,
                    cache_hits: t.cache_hits,
                    shed_overload: t.shed_overload,
                    shed_deadline: t.shed_deadline,
                    degraded: t.degraded,
                    slo_attainment: t.slo_attainment(),
                    p50_ns: t.percentile_ns(0.50, self.slot_ns),
                    p99_ns: t.percentile_ns(0.99, self.slot_ns),
                    latency_hist: t.latency_hist.clone(),
                })
                .collect(),
            result_digest: self.result_digest,
        }
    }
}

/// Everything one rank returns from a serving run. All fields are
/// replicated (identical on every rank).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeOutcome {
    pub stats: ServingStats,
    /// Every answered query: `(arrival idx, pool id, result ids)` in
    /// arrival order. Cache hits carry the cached ids.
    pub answers: Vec<(u64, usize, Vec<PointId>)>,
    /// Every arrival the run actually issued, in issue order: the static
    /// plan for an open loop, the minted log for closed-loop clients
    /// (retries included). Part of the replicated state the cross-rank
    /// equality assertion covers.
    pub arrivals: Vec<Arrival>,
    /// The report's `query_forensics` section: the tail-sampled records,
    /// stage waterfalls, and their digest (folded into the cross-rank
    /// fingerprint check).
    pub forensics: QueryForensicsSection,
}

impl ServeOutcome {
    /// Mean recall of the answered queries against one `truth` row per pool id.
    pub fn answered_recall(&self, truth: &[Vec<PointId>]) -> f64 {
        let recalls =
            (self.answers.iter()).map(|(_, q, ids)| dataset::recall_single(ids, &truth[*q]));
        recalls.sum::<f64>() / self.answers.len().max(1) as f64
    }
}

/// Count `n` more queries at `slots` in the sorted histogram `hist`.
fn bump(hist: &mut Vec<(u64, u64)>, slots: u64, n: u64) {
    match hist.binary_search_by_key(&slots, |&(s, _)| s) {
        Ok(i) => hist[i].1 += n,
        Err(i) => hist.insert(i, (slots, n)),
    }
}

/// What a run has settled so far, and who hears of each verdict: one SLO
/// row per tenant class (one implicit class when the workload declares
/// none), the client-perceived histogram, the forensics rows, the answers,
/// and the arrival source whose clients issue their next query.
struct Ledger<'a> {
    comm: &'a Comm,
    rows: Vec<TenantStats>,
    client_hist: Vec<(u64, u64)>,
    forensics: ForensicsCollector,
    source: ArrivalSource,
    answers: Vec<(u64, usize, Vec<PointId>)>,
}

impl<'a> Ledger<'a> {
    fn new(comm: &'a Comm, params: &ServeParams, pool_len: usize) -> Self {
        let classes = &params.workload.tenants;
        let row = |name: &str, share_pct| TenantStats {
            name: name.to_string(),
            share_pct,
            ..TenantStats::default()
        };
        Ledger {
            comm,
            rows: if classes.is_empty() {
                vec![row("", 100)]
            } else {
                classes.iter().map(|c| row(&c.name, c.share_pct)).collect()
            },
            client_hist: Vec::new(),
            forensics: ForensicsCollector::new(
                params.serve_seed,
                FORENSICS_WINDOW_SLOTS,
                FORENSICS_SLOW_N,
                params.deadline_slots,
            ),
            source: ArrivalSource::new(params, pool_len),
            answers: Vec::new(),
        }
    }

    /// Settle query `q` (arrived in `q.slot`, cache key `key`) by
    /// `verdict` in `done_slot`; an answer's result is `ids`.
    fn settle(
        &mut self,
        q: &Arrival,
        key: &[i64],
        verdict: Verdict,
        done_slot: u64,
        ids: Vec<PointId>,
    ) {
        let row = &mut self.rows[q.tenant];
        match verdict {
            Verdict::CacheHit => row.cache_hits += 1,
            Verdict::ShedOverload => row.shed_overload += 1,
            Verdict::ShedDeadline => row.shed_deadline += 1,
            Verdict::Answered { level, .. } => {
                row.answered += 1;
                row.degraded += u64::from(level > 0);
            }
        }
        if !verdict.is_shed() {
            bump(&mut row.latency_hist, done_slot - q.slot, 1);
            // Client-perceived latency anchors on the first issue, so
            // closed-loop shed-and-retry time is charged in full.
            bump(&mut self.client_hist, done_slot - q.first_issue_slot, 1);
            self.answers.push((q.idx, q.pool_id, ids));
        }
        self.forensics
            .record(q, hash_quantized_key(key), verdict, done_slot);
        if self.comm.rank() == 0 {
            self.comm.trace_async_end("query", QUERY_FLOW_BASE | q.idx);
        }
        self.source.on_complete(q, done_slot, verdict.is_shed());
    }

    /// Cache hits, sheds and degraded answers settled so far; rank 0
    /// gauges their growth per slot.
    fn gauged(&self) -> [u64; 3] {
        let sum = |f: fn(&TenantStats) -> u64| self.rows.iter().map(f).sum();
        [
            sum(|r| r.cache_hits),
            sum(|r| r.shed_overload + r.shed_deadline),
            sum(|r| r.degraded),
        ]
    }

    /// Fold the class rows into `stats`' totals and latency histogram (the
    /// rows themselves become `stats.tenants` when the workload declared
    /// classes), and hand over the run's record.
    fn close(self, mut stats: ServingStats, classes_declared: bool) -> ServeOutcome {
        for row in &self.rows {
            stats.offered += row.offered;
            stats.admitted += row.admitted;
            stats.answered += row.answered;
            stats.cache_hits += row.cache_hits;
            stats.shed_overload += row.shed_overload;
            stats.shed_deadline += row.shed_deadline;
            stats.degraded += row.degraded;
            for &(slots, n) in &row.latency_hist {
                bump(&mut stats.latency_hist, slots, n);
            }
        }
        if classes_declared {
            stats.tenants = self.rows;
        }
        stats.client_hist = self.client_hist;
        let mut answers = self.answers;
        answers.sort_unstable_by_key(|&(idx, _, _)| idx);
        let mut digest = fnv_seed();
        for (idx, _, ids) in &answers {
            digest = fnv_u64(digest, *idx);
            for &id in ids {
                digest = fnv_u64(digest, id as u64);
            }
        }
        stats.result_digest = digest;
        ServeOutcome {
            stats,
            answers,
            arrivals: self.source.into_log(),
            forensics: self.forensics.finalize(),
        }
    }
}

/// Where the engine gets its arrivals: the pregenerated open-loop plan,
/// or closed-loop clients minting queries as their predecessors complete.
enum ArrivalSource {
    Open { arrivals: Vec<Arrival>, next: usize },
    Closed(Box<ClosedLoop>),
}

impl ArrivalSource {
    fn new(params: &ServeParams, pool_len: usize) -> ArrivalSource {
        match params.workload.arrival {
            ArrivalProcess::Open => ArrivalSource::Open {
                arrivals: ArrivalPlan::try_generate(params, pool_len)
                    .unwrap_or_else(|e| panic!("invalid workload: {e}"))
                    .arrivals,
                next: 0,
            },
            ArrivalProcess::Closed { clients, think_ns } => ArrivalSource::Closed(Box::new(
                ClosedLoop::new(params, pool_len, clients, think_ns),
            )),
        }
    }

    /// Whether more queries can still arrive (the slot loop additionally
    /// drains the queues before exiting).
    fn has_more(&self) -> bool {
        match self {
            ArrivalSource::Open { arrivals, next } => *next < arrivals.len(),
            ArrivalSource::Closed(c) => c.issued < c.budget,
        }
    }

    /// Append the arrivals landing in `slot`, in deterministic order.
    fn poll(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        match self {
            ArrivalSource::Open { arrivals, next } => {
                while *next < arrivals.len() && arrivals[*next].slot <= slot {
                    out.push(arrivals[*next]);
                    *next += 1;
                }
            }
            ArrivalSource::Closed(c) => c.poll(slot, out),
        }
    }

    /// Query `q` reached its verdict (answered, cache hit, or shed) at
    /// `done_slot`. Closed-loop clients schedule their next issue here —
    /// retrying shed queries with the original first-issue slot, so
    /// client-perceived latency keeps accumulating across retries.
    fn on_complete(&mut self, q: &Arrival, done_slot: u64, shed: bool) {
        if let ArrivalSource::Closed(c) = self {
            c.on_complete(q, done_slot, shed);
        }
    }

    /// Every arrival the run issued, for [`ServeOutcome::arrivals`].
    fn into_log(self) -> Vec<Arrival> {
        match self {
            ArrivalSource::Open { arrivals, .. } => arrivals,
            ArrivalSource::Closed(c) => c.log,
        }
    }
}

/// Closed-loop client population. Every state transition is driven by
/// replicated slot-clock events and pure PRF draws, so the minted arrival
/// sequence is identical across reruns and rank counts.
struct ClosedLoop {
    serve_seed: u64,
    think_ns: u64,
    /// Total issues the run may make (`ServeParams::n_arrivals`),
    /// retries of shed queries included.
    budget: u64,
    issued: u64,
    spec: WorkloadSpec,
    picker: PoolPicker,
    clients: Vec<ClientState>,
    log: Vec<Arrival>,
}

struct ClientState {
    tenant: usize,
    /// Earliest slot this client may issue its next query.
    next_issue: u64,
    /// Think-time draws consumed (streams the think PRF per client).
    seq: u64,
    /// Shed query to reissue: `(pool_id, first_issue_slot)`.
    retry: Option<(usize, u64)>,
    in_flight: bool,
}

impl ClosedLoop {
    fn new(params: &ServeParams, pool_len: usize, clients: u64, think_ns: u64) -> ClosedLoop {
        let mut cl = ClosedLoop {
            serve_seed: params.serve_seed,
            think_ns,
            budget: params.n_arrivals as u64,
            issued: 0,
            spec: params.workload.clone(),
            picker: PoolPicker::new(params, pool_len),
            clients: Vec::new(),
            log: Vec::new(),
        };
        for c in 0..clients {
            let tenant = cl.spec.tenant_of(params.serve_seed, c);
            // Stagger initial issues by one think draw so the population
            // doesn't stampede slot 0 (think 0 starts everyone at 0).
            let next_issue = cl.think_slots(c, 0, 0);
            cl.clients.push(ClientState {
                tenant,
                next_issue,
                seq: 1,
                retry: None,
                in_flight: false,
            });
        }
        cl
    }

    /// Exponential think time in slots, scaled *down* by the rate
    /// modulators: a flash crowd makes closed-loop clients more eager —
    /// the analogue of thinning's rate boost for the open loop.
    fn think_slots(&self, client: u64, seq: u64, now_slot: u64) -> u64 {
        if self.think_ns == 0 {
            return 0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.serve_seed, SALT_THINK, client, seq, 0));
        let u: f64 = rng.gen_range(0.0..1.0);
        let mult = self.spec.multiplier(now_slot * SLOT_NS).max(1e-9);
        (-(1.0 - u).ln() * self.think_ns as f64 / mult / SLOT_NS as f64) as u64
    }

    fn poll(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        for c in 0..self.clients.len() {
            if self.issued >= self.budget {
                break;
            }
            let st = &self.clients[c];
            if st.in_flight || st.next_issue > slot {
                continue;
            }
            let idx = self.issued;
            self.issued += 1;
            let (pool_id, first_issue_slot) = match self.clients[c].retry.take() {
                Some((p, f)) => (p, f),
                None => (self.picker.pick(self.serve_seed, idx), slot),
            };
            self.clients[c].in_flight = true;
            let a = Arrival {
                idx,
                slot,
                pool_id,
                tenant: self.clients[c].tenant,
                client: c as u64,
                first_issue_slot,
            };
            self.log.push(a);
            out.push(a);
        }
    }

    fn on_complete(&mut self, q: &Arrival, done_slot: u64, shed: bool) {
        let seq = self.clients[q.client as usize].seq;
        let think = self.think_slots(q.client, seq, done_slot);
        let st = &mut self.clients[q.client as usize];
        st.in_flight = false;
        st.seq += 1;
        st.retry = shed.then_some((q.pool_id, q.first_issue_slot));
        st.next_issue = done_slot + 1 + think;
    }
}

/// Search parameters at a degrade level: level 1 halves epsilon and trims
/// the entry beam to 3/4; level 2 drops to pure greedy on half the beam.
fn degraded_search(base: &DistSearchParams, level: u8) -> DistSearchParams {
    let entries = if base.entry_candidates == 0 {
        base.l
    } else {
        base.entry_candidates
    };
    match level {
        0 => *base,
        1 => DistSearchParams {
            epsilon: base.epsilon * 0.5,
            entry_candidates: (entries * 3 / 4).max(1),
            ..*base
        },
        _ => DistSearchParams {
            epsilon: 0.0,
            entry_candidates: (entries / 2).max(1),
            ..*base
        },
    }
}

/// Dispatch capacity at a degrade level: B, 3B/2, 2B — a loaded frontend
/// trades per-query quality for drain rate.
fn dispatch_capacity(batch: usize, level: u8) -> usize {
    batch * (2 + level as usize) / 2
}

/// The vector-DB extension points of the slot loop. The legacy
/// (namespace-less) engine runs with the no-op [`NoVdb`] impl, which keeps
/// every control-plane decision, cache key, and search call byte-identical
/// to the pre-vdb engine; [`VdbState`] implements the namespaced product
/// layer. All methods are replicated: every rank calls them with the same
/// arguments in the same order and must get the same answers.
trait VdbHooks<P: Point> {
    /// Called at the top of every slot, before arrivals. Applies any
    /// scheduled mutations (online inserts/deletes, background
    /// compaction); returns the new `(base, graph)` when the adjacency
    /// changed and the search engine must be rebuilt.
    fn on_slot(&mut self, slot: u64) -> Option<(Arc<PointSet<P>>, Arc<KnnGraph>)>;
    /// Called once per offered arrival (filtered-traffic accounting).
    fn on_arrival(&mut self, idx: u64);
    /// Result-cache key prefix for arrival `idx` — empty in legacy mode,
    /// `[namespace fnv, predicate fnv, graph epoch]` in vdb mode.
    /// Recomputed at every use so an epoch bump between a query's arrival
    /// and its answer lands in the key it is cached under.
    fn key_prefix(&mut self, idx: u64) -> Vec<i64>;
    /// Allow-list for a *dispatched* query, compiled at dispatch time so
    /// tombstones placed after admission are honored. `None` = unmasked
    /// (the byte-identical legacy search path).
    fn mask_for(&mut self, idx: u64) -> Option<Arc<IdMask>>;
    /// Strip ids no longer visible from a cache hit's result (deletes do
    /// not bump the epoch, so live entries can hold tombstoned ids).
    fn filter_cached(&mut self, ids: &mut Vec<PointId>);
    /// Final counters for [`ServingStats::vdb`]; `None` in legacy mode.
    fn take_stats(&mut self) -> Option<VdbServeStats>;
}

/// The legacy no-op hooks: no mutations, no prefixes, no masks.
struct NoVdb;

impl<P: Point> VdbHooks<P> for NoVdb {
    fn on_slot(&mut self, _slot: u64) -> Option<(Arc<PointSet<P>>, Arc<KnnGraph>)> {
        None
    }
    fn on_arrival(&mut self, _idx: u64) {}
    fn key_prefix(&mut self, _idx: u64) -> Vec<i64> {
        Vec::new()
    }
    fn mask_for(&mut self, _idx: u64) -> Option<Arc<IdMask>> {
        None
    }
    fn filter_cached(&mut self, _ids: &mut Vec<PointId>) {}
    fn take_stats(&mut self) -> Option<VdbServeStats> {
        None
    }
}

/// Run the serving loop on a live comm (SPMD: all ranks call together
/// inside one `world.run`). Returns the replicated outcome.
pub fn serve_on_comm<P, M>(
    comm: &Comm,
    base: &Arc<PointSet<P>>,
    graph: &Arc<KnnGraph>,
    pool: &Arc<PointSet<P>>,
    metric: &M,
    params: &ServeParams,
) -> ServeOutcome
where
    P: Point + QuantizeKey,
    M: BatchMetric<P>,
{
    serve_loop(comm, base, graph, pool, metric, params, &mut NoVdb)
}

/// The slot loop shared by the legacy and vdb engines; `hooks` is the only
/// thing that differs between them.
fn serve_loop<P, M, H>(
    comm: &Comm,
    base: &Arc<PointSet<P>>,
    graph: &Arc<KnnGraph>,
    pool: &Arc<PointSet<P>>,
    metric: &M,
    params: &ServeParams,
    hooks: &mut H,
) -> ServeOutcome
where
    P: Point + QuantizeKey,
    M: BatchMetric<P>,
    H: VdbHooks<P>,
{
    params
        .validate()
        .unwrap_or_else(|e| panic!("invalid ServeParams: {e}"));
    let mut ledger = Ledger::new(comm, params, pool.len());
    // Per-class queue quota: ceil(share% of the shed watermark), at least
    // 1. The implicit single class holds 100 %, the whole watermark, which
    // makes the quota check coincide exactly with the legacy global one.
    let quotas: Vec<usize> = (ledger.rows.iter())
        .map(|r| ((params.shed_watermark as u64 * r.share_pct).div_ceil(100)).max(1) as usize)
        .collect();
    let mut engine = SearchEngine::new(comm, Arc::clone(base), Arc::clone(graph), metric.clone());
    comm.name_tag(TAG_RESULTS, "serve_results");
    comm.name_tag(TAG_FINGERPRINT, "serve_fingerprint");

    let mut timer = SlotTimer::new(SLOT_NS);
    // One FIFO per tenant class; dispatch drains them in declaration
    // (priority) order. A queued arrival's `slot` is the slot it arrived in.
    let mut queues: Vec<VecDeque<Arrival>> = quotas.iter().map(|_| VecDeque::new()).collect();
    let mut cache = ResultCache::new(params.cache_capacity);
    let mut stats = ServingStats {
        serve_seed: params.serve_seed,
        slot_ns: SLOT_NS,
        ..ServingStats::default()
    };
    // The cache key is the hooks prefix (empty in legacy mode) followed by
    // the quantized query vector, so a namespace, a predicate, or an epoch
    // bump each isolate their own entries. It is computed at each verdict,
    // so an epoch bump since arrival lands in the key.
    let key_of = |hooks: &mut H, q: &Arrival| {
        let mut key = hooks.key_prefix(q.idx);
        key.extend(pool.point(q.pool_id as PointId).quantize(params.quant_step));
        key
    };
    let mut arrivals_now: Vec<Arrival> = Vec::new();
    let mut slot = 0u64;
    let mut last_retransmits = comm.fault_retransmits();
    let me = comm.rank();
    let n_ranks = comm.n_ranks();

    while ledger.source.has_more() || queues.iter().any(|q| !q.is_empty()) {
        comm.trace_begin_arg("serve_slot", slot);
        // Vdb mutations land on the slot boundary, before arrivals. An
        // adjacency change (ingest/compaction) rebuilds the search engine;
        // `ygm` handler registration is last-write-wins, so re-registering
        // the query protocol mid-run is safe.
        if let Some((b, g)) = hooks.on_slot(slot) {
            engine = SearchEngine::new(comm, b, g, metric.clone());
        }
        let gauged_before = ledger.gauged();

        // --- arrivals + cache probes + admission -------------------------
        arrivals_now.clear();
        ledger.source.poll(slot, &mut arrivals_now);
        for &a in &arrivals_now {
            let a = Arrival { slot, ..a };
            ledger.rows[a.tenant].offered += 1;
            hooks.on_arrival(a.idx);
            let key = key_of(hooks, &a);
            // Rank 0 stands in for the frontend: one async lifecycle
            // span per query, opened at arrival and closed at the
            // verdict, joining the per-query flow arrows in the trace.
            if me == 0 {
                comm.trace_async_begin("query", QUERY_FLOW_BASE | a.idx);
            }
            let depth: usize = queues.iter().map(VecDeque::len).sum();
            if let Some(mut ids) = cache.get(&key) {
                // Same-epoch entries can still hold ids tombstoned after
                // they were cached (deletes don't bump the epoch); strip
                // them at hit time so a delete is honored immediately.
                hooks.filter_cached(&mut ids);
                ledger.settle(&a, &key, Verdict::CacheHit, slot, ids);
            } else if depth >= params.shed_watermark || queues[a.tenant].len() >= quotas[a.tenant] {
                ledger.settle(&a, &key, Verdict::ShedOverload, slot, Vec::new());
            } else {
                queues[a.tenant].push_back(a);
                ledger.rows[a.tenant].admitted += 1;
            }
        }
        let depth: usize = queues.iter().map(VecDeque::len).sum();
        stats.max_queue_depth = stats.max_queue_depth.max(depth as u64);

        // --- deadline shedding -------------------------------------------
        for q in &mut queues {
            while let Some(p) = q.pop_front_if(|p| slot - p.slot > params.deadline_slots) {
                let key = key_of(hooks, &p);
                ledger.settle(&p, &key, Verdict::ShedDeadline, slot, Vec::new());
            }
        }

        // --- degrade ladder ----------------------------------------------
        let depth: usize = queues.iter().map(VecDeque::len).sum();
        let level2_mark = params.degrade_watermark.midpoint(params.shed_watermark);
        let level: u8 = if depth >= level2_mark && depth >= params.degrade_watermark {
            2
        } else if depth >= params.degrade_watermark {
            1
        } else {
            0
        };

        // --- adaptive micro-batch flush ----------------------------------
        let oldest_age = queues
            .iter()
            .filter_map(|q| q.front().map(|p| slot - p.slot))
            .max()
            .unwrap_or(0);
        let flush = depth > 0 && (depth >= params.batch || oldest_age >= FLUSH_AGE_SLOTS);
        let mut dispatched = 0u64;
        if flush {
            let take = dispatch_capacity(params.batch, level).min(depth);
            // Priority drain: higher classes (declared earlier) fill the
            // dispatch window first; within a class, FIFO.
            let mut items: Vec<Arrival> = Vec::with_capacity(take);
            for q in queues.iter_mut() {
                let n = (take - items.len()).min(q.len());
                items.extend(q.drain(..n));
            }
            dispatched = items.len() as u64;
            let sp = degraded_search(&params.search, level);

            // Causal chain per dispatched query: the replicated frontend
            // (rank 0 stands in for it) records the origin half of a flow
            // arrow; the executing home rank records the terminating half
            // below. Pure trace output — stats and the result fingerprint
            // are untouched.
            if me == 0 {
                for p in &items {
                    comm.trace_flow_send("query", QUERY_FLOW_BASE | p.idx, TAG_RESULTS as u64);
                }
            }

            // Masks are compiled at dispatch time (not admission), on
            // every rank for every item — so tombstones placed while a
            // query sat in the queue are honored, and the hooks' filter
            // accounting stays replicated across ranks.
            let masks_all: Vec<Option<Arc<IdMask>>> =
                items.iter().map(|p| hooks.mask_for(p.idx)).collect();

            // Distributed data plane: each query executes on its home rank.
            let mine_at: Vec<usize> = (0..items.len())
                .filter(|&i| items[i].pool_id % n_ranks == me)
                .collect();
            let mine: Vec<(u64, P)> = mine_at
                .iter()
                .map(|&i| {
                    (
                        items[i].idx,
                        pool.point(items[i].pool_id as PointId).clone(),
                    )
                })
                .collect();
            let mine_masks: Vec<Option<Arc<IdMask>>> =
                mine_at.iter().map(|&i| masks_all[i].clone()).collect();
            for (idx, _) in &mine {
                comm.trace_flow_recv("query", QUERY_FLOW_BASE | *idx, TAG_RESULTS as u64);
            }
            let (my_ids, my_profiles) = engine.run_batch(comm, &mine, &mine_masks, sp);
            let my_results: Vec<(u64, Vec<PointId>, QueryProfile)> = mine
                .iter()
                .map(|(idx, _)| *idx)
                .zip(my_ids.into_iter().zip(my_profiles))
                .map(|(idx, (ids, prof))| (idx, ids, prof))
                .collect();

            // Replicate results so every rank's cache and stats agree.
            let mut all: Vec<(u64, Vec<PointId>, QueryProfile)> =
                all_gather(comm, TAG_RESULTS, &my_results)
                    .into_iter()
                    .flatten()
                    .collect();
            all.sort_unstable_by_key(|&(idx, ..)| idx);

            // Transport retransmits during this window surface as
            // whole-slot latency penalties (stable after the gather's
            // barrier, identical on every rank).
            let rtx = comm.fault_retransmits();
            let penalty = (rtx - last_retransmits).min(FAULT_PENALTY_CAP_SLOTS);
            last_retransmits = rtx;
            stats.fault_penalty_slots += penalty * all.len() as u64;

            for (idx, ids, profile) in all {
                let p = items
                    .iter()
                    .find(|p| p.idx == idx)
                    .expect("result for undispatched query");
                let key = key_of(hooks, p);
                let verdict = Verdict::Answered {
                    level,
                    penalty,
                    profile,
                };
                // Searched in this slot, answered one slot later plus the
                // window's fault penalty.
                ledger.settle(p, &key, verdict, slot + 1 + penalty, ids.clone());
                cache.insert(key, ids);
            }
        }

        // --- telemetry + slot alignment ----------------------------------
        if me == 0 {
            let gauged = ledger.gauged();
            let settled = |i: usize| (gauged[i] - gauged_before[i]) as f64;
            comm.gauge(
                "serve_queue_depth",
                queues.iter().map(VecDeque::len).sum::<usize>() as f64,
            );
            comm.gauge("serve_dispatched", dispatched as f64);
            comm.gauge("serve_cache_hits", settled(0));
            comm.gauge("serve_shed", settled(1));
            comm.gauge("serve_degraded", settled(2));
        }
        timer.align(comm);
        comm.barrier();
        comm.trace_end("serve_slot");
        slot += 1;
    }

    stats.slots = slot;
    stats.cache_evictions = cache.evictions();
    stats.vdb = hooks.take_stats();
    let outcome = ledger.close(stats, !params.workload.tenants.is_empty());

    // Built-in determinism check: every rank must have produced the exact
    // same replicated state — the forensics digest is folded in so a
    // divergent lifecycle record trips the assertion too.
    let fingerprint = fnv_u64(outcome.stats.fingerprint(), outcome.forensics.digest);
    let fps = all_gather(comm, TAG_FINGERPRINT, &fingerprint);
    assert!(
        fps.iter().all(|&f| f == fps[0]),
        "serving control plane diverged across ranks: {fps:?}"
    );
    outcome
}

/// Run a full serving session on `world`. Returns the replicated outcome
/// (identical on every rank, asserted) plus the world report for
/// virtual-time and traffic accounting.
pub fn run_serve<P, M>(
    world: &World,
    base: &Arc<PointSet<P>>,
    graph: &Arc<KnnGraph>,
    pool: &Arc<PointSet<P>>,
    metric: &M,
    params: &ServeParams,
) -> (ServeOutcome, WorldReport<()>)
where
    P: Point + QuantizeKey,
    M: BatchMetric<P>,
{
    world
        .run(|comm| serve_on_comm(comm, base, graph, pool, metric, params))
        .into_replicated("serving outcome")
}

/// Configuration of a namespaced (vector-DB) serving run, on top of the
/// usual [`ServeParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct VdbServeConfig {
    /// Static predicate AND-ed into every query's filter (the
    /// `dnnd-serve --filter` flag). `None` = only workload-synthesized
    /// filters (the `filter:` clause), if any.
    pub filter: Option<Predicate>,
    /// Tombstone ratio at which a background compaction is armed; it then
    /// fires on a PRF-drawn slot boundary within the next 8 slots.
    pub compact_watermark: f64,
}

impl Default for VdbServeConfig {
    fn default() -> VdbServeConfig {
        VdbServeConfig {
            filter: None,
            compact_watermark: 0.25,
        }
    }
}

impl VdbServeConfig {
    /// The configuration's domain: a compaction watermark in `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let w = self.compact_watermark;
        if !(w > 0.0 && w <= 1.0) {
            return Err(format!("compact_watermark must be in (0, 1] (got {w})"));
        }
        Ok(())
    }
}

/// The namespaced product layer behind [`VdbHooks`]: one replicated
/// [`vdb::Collection`] per rank, mutated on slot boundaries by pure PRFs
/// of the serve seed, with a mask cache keyed on the canonical predicate
/// string (cleared on any state change).
struct VdbState {
    collection: Collection,
    filter: Option<Predicate>,
    compact_watermark: f64,
    serve_seed: u64,
    spec: WorkloadSpec,
    ns_fnv: u64,
    pool: Arc<PointSet<Vec<f32>>>,
    mask_cache: BTreeMap<String, Arc<IdMask>>,
    /// Slot a pending compaction fires at, once armed.
    compact_at: Option<u64>,
    /// Compactions armed so far (streams the compaction-jitter PRF).
    arm_seq: u64,
    inserts: u64,
    deletes: u64,
    compactions: u64,
    filtered: u64,
    cache_suppressed: u64,
    sel_hist: BTreeMap<u64, u64>,
}

impl VdbState {
    /// The full predicate query `idx` carries: the static `--filter`
    /// terms AND-ed with the workload-synthesized `bucket` range, when the
    /// filter-traffic PRF selects this query. `None` = unfiltered.
    fn predicate_for(&self, idx: u64) -> Option<Predicate> {
        let lo = self.spec.filter_bucket_of(self.serve_seed, idx);
        if lo.is_none() && self.filter.is_none() {
            return None;
        }
        let mut terms: Vec<Term> = self
            .filter
            .iter()
            .flat_map(|p| p.terms().iter().cloned())
            .collect();
        if let Some(lo) = lo {
            let w = self
                .spec
                .filter
                .expect("bucket draw implies a filter clause")
                .width();
            terms.push(
                Term::range("bucket", lo as i64, (lo + w - 1) as i64)
                    .expect("'bucket' is a valid field"),
            );
        }
        Some(Predicate::new(terms).expect("at least one term"))
    }
}

impl VdbHooks<Vec<f32>> for VdbState {
    fn on_slot(&mut self, slot: u64) -> Option<(Arc<PointSet<Vec<f32>>>, Arc<KnnGraph>)> {
        let mut rewired = false;
        let m = self.spec.mutate.unwrap_or_default();
        if m.ins_every > 0 && slot > 0 && slot.is_multiple_of(m.ins_every) {
            // One online insert: the vector is drawn from the query pool
            // by a pure PRF, the metadata is the synthetic bucket record.
            let pick =
                (mix(self.serve_seed, SALT_MUTATE, slot, 0, 0) % self.pool.len() as u64) as PointId;
            let new_id = self.collection.stat().points;
            let rec = MetaRecord::bucket_record(self.serve_seed, new_id);
            self.collection
                .ingest(vec![self.pool.point(pick).clone()], vec![rec])
                .unwrap_or_else(|e| panic!("online ingest: {e}"));
            self.inserts += 1;
            rewired = true;
        }
        if m.del_every > 0 && slot > 0 && slot.is_multiple_of(m.del_every) {
            let n_live = self.collection.n_live() as u64;
            // Keep at least one live point: an empty collection serves
            // nothing and `k` would be out of range forever after.
            if n_live > 1 {
                let j = mix(self.serve_seed, SALT_MUTATE, slot, 1, 0) % n_live;
                let id = (0..self.collection.stat().points as PointId)
                    .filter(|&i| self.collection.is_live(i))
                    .nth(j as usize)
                    .expect("j-th live id exists");
                self.collection
                    .delete(&[id])
                    .unwrap_or_else(|e| panic!("online delete: {e}"));
                self.deletes += 1;
                self.mask_cache.clear();
            }
        }
        // Compaction: armed at the tombstone-ratio watermark, scheduled
        // onto a nearby slot boundary by a pure PRF of the serve seed.
        if self.compact_at.is_none() && self.collection.tombstone_ratio() >= self.compact_watermark
        {
            self.compact_at =
                Some(slot + 1 + mix(self.serve_seed, SALT_COMPACT, self.arm_seq, 0, 0) % 8);
            self.arm_seq += 1;
        }
        if self.compact_at == Some(slot) {
            self.compact_at = None;
            self.collection
                .compact()
                .unwrap_or_else(|e| panic!("compaction: {e}"));
            self.compactions += 1;
            rewired = true;
        }
        if rewired {
            self.mask_cache.clear();
            Some((
                Arc::new(self.collection.base.clone()),
                Arc::new(self.collection.graph.clone()),
            ))
        } else {
            None
        }
    }

    fn on_arrival(&mut self, idx: u64) {
        if self.predicate_for(idx).is_some() {
            self.filtered += 1;
        }
    }

    fn key_prefix(&mut self, idx: u64) -> Vec<i64> {
        let pred_fnv = self.predicate_for(idx).map(|p| p.fnv()).unwrap_or(0);
        vec![
            self.ns_fnv as i64,
            pred_fnv as i64,
            self.collection.epoch() as i64,
        ]
    }

    fn mask_for(&mut self, idx: u64) -> Option<Arc<IdMask>> {
        let pred = self.predicate_for(idx);
        if pred.is_none() && self.collection.n_live() as u64 == self.collection.stat().points {
            // Unfiltered query, nothing tombstoned: the legacy search
            // path is already exact.
            return None;
        }
        let cache_key = pred.as_ref().map(|p| p.to_string()).unwrap_or_default();
        let collection = &self.collection;
        let mask = self
            .mask_cache
            .entry(cache_key)
            .or_insert_with(|| Arc::new(collection.compile_mask(pred.as_ref())))
            .clone();
        if pred.is_some() {
            // Selectivity decile of the mask (predicate ∧ live), exact.
            let decile = if mask.is_empty() {
                0
            } else {
                (mask.allowed() as u64 * 10 / mask.len() as u64).min(9)
            };
            *self.sel_hist.entry(decile).or_insert(0) += 1;
        }
        Some(mask)
    }

    fn filter_cached(&mut self, ids: &mut Vec<PointId>) {
        let before = ids.len();
        ids.retain(|&id| self.collection.is_live(id));
        self.cache_suppressed += (before - ids.len()) as u64;
    }

    fn take_stats(&mut self) -> Option<VdbServeStats> {
        let s = self.collection.stat();
        Some(VdbServeStats {
            namespace: s.name,
            points: s.points,
            live: s.live,
            tombstones: s.tombstones,
            dead: s.dead,
            epoch: s.epoch,
            inserts: self.inserts,
            deletes: self.deletes,
            compactions: self.compactions,
            filtered: self.filtered,
            cache_suppressed: self.cache_suppressed,
            selectivity_hist: std::mem::take(&mut self.sel_hist).into_iter().collect(),
        })
    }
}

/// Run the namespaced serving loop on a live comm: [`serve_on_comm`]'s
/// semantics plus metadata-filtered search, online inserts/deletes, and
/// deterministic background compaction over `collection`. Every rank
/// passes its own (identical) replica of the collection and gets the
/// mutated replica back with the outcome.
///
/// `metric` must match `collection.metric()` — dispatch with
/// `vdb`'s metric-name convention before calling.
pub fn serve_vdb_on_comm<M>(
    comm: &Comm,
    collection: Collection,
    pool: &Arc<PointSet<Vec<f32>>>,
    metric: &M,
    params: &ServeParams,
    cfg: &VdbServeConfig,
) -> (ServeOutcome, Collection)
where
    M: BatchMetric<Vec<f32>>,
{
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid VdbServeConfig: {e}"));
    let base = Arc::new(collection.base.clone());
    let graph = Arc::new(collection.graph.clone());
    let ns_fnv = metall::checksum::fnv1a(collection.name().as_bytes());
    let mut hooks = VdbState {
        collection,
        filter: cfg.filter.clone(),
        compact_watermark: cfg.compact_watermark,
        serve_seed: params.serve_seed,
        spec: params.workload.clone(),
        ns_fnv,
        pool: Arc::clone(pool),
        mask_cache: BTreeMap::new(),
        compact_at: None,
        arm_seq: 0,
        inserts: 0,
        deletes: 0,
        compactions: 0,
        filtered: 0,
        cache_suppressed: 0,
        sel_hist: BTreeMap::new(),
    };
    let outcome = serve_loop(comm, &base, &graph, pool, metric, params, &mut hooks);
    (outcome, hooks.collection)
}

/// Run a full namespaced serving session on `world`: each rank opens its
/// own replica of namespace `namespace` from the store at `dir`, serves,
/// and rank 0 saves the mutated collection back. Returns the replicated
/// outcome (identical on every rank, asserted), the final collection
/// counters, and the world report.
pub fn run_serve_vdb<M>(
    world: &World,
    dir: &Path,
    namespace: &str,
    pool: &Arc<PointSet<Vec<f32>>>,
    metric: &M,
    params: &ServeParams,
    cfg: &VdbServeConfig,
) -> (ServeOutcome, CollectionStat, WorldReport<()>)
where
    M: BatchMetric<Vec<f32>>,
{
    let report = world.run(|comm| {
        let mut store = metall::Store::open(dir)
            .unwrap_or_else(|e| panic!("open store {}: {e}", dir.display()));
        let collection =
            Collection::open(&store, namespace).unwrap_or_else(|e| panic!("open namespace: {e}"));
        let (outcome, collection) = serve_vdb_on_comm(comm, collection, pool, metric, params, cfg);
        if comm.rank() == 0 {
            collection
                .save(&mut store)
                .unwrap_or_else(|e| panic!("save namespace: {e}"));
        }
        comm.barrier();
        (outcome, collection.stat())
    });
    let ((outcome, stat), report) = report.into_replicated("vdb serving outcome");
    (outcome, stat, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdb_config_validate_states_the_watermark_at_its_edges() {
        for (w, accepted) in [
            (0.0, false),
            (f64::MIN_POSITIVE, true),
            (1.0, true),
            (1.0 + f64::EPSILON, false),
            (f64::NAN, false),
        ] {
            let cfg = VdbServeConfig {
                compact_watermark: w,
                ..VdbServeConfig::default()
            };
            let verdict = cfg.validate();
            assert_eq!(verdict.is_ok(), accepted, "{w}: {verdict:?}");
            if let Err(e) = verdict {
                assert_eq!(e, format!("compact_watermark must be in (0, 1] (got {w})"));
            }
        }
    }

    #[test]
    fn degrade_ladder_shapes() {
        let base = DistSearchParams::new(10).epsilon(0.2).entry_candidates(32);
        let l0 = degraded_search(&base, 0);
        assert_eq!(l0, base);
        let l1 = degraded_search(&base, 1);
        assert!((l1.epsilon - 0.1).abs() < 1e-6);
        assert_eq!(l1.entry_candidates, 24);
        let l2 = degraded_search(&base, 2);
        assert_eq!(l2.epsilon, 0.0);
        assert_eq!(l2.entry_candidates, 16);
        // Degradation never invalidates the parameters.
        l1.validate().unwrap();
        l2.validate().unwrap();
        // Entry beam never collapses to zero.
        let tiny = DistSearchParams::new(1).entry_candidates(1);
        assert_eq!(degraded_search(&tiny, 2).entry_candidates, 1);
    }

    #[test]
    fn dispatch_capacity_ladder() {
        assert_eq!(dispatch_capacity(8, 0), 8);
        assert_eq!(dispatch_capacity(8, 1), 12);
        assert_eq!(dispatch_capacity(8, 2), 16);
    }

    #[test]
    fn percentiles_on_exact_hist() {
        let stats = ServingStats {
            slot_ns: 1_000,
            latency_hist: vec![(1, 90), (2, 9), (10, 1)],
            ..ServingStats::default()
        };
        assert_eq!(stats.percentile_ns(0.50), 1_000);
        assert_eq!(stats.percentile_ns(0.95), 2_000);
        assert_eq!(stats.percentile_ns(0.99), 2_000);
        assert_eq!(stats.percentile_ns(1.0), 10_000);
        let mean = stats.mean_latency_ns();
        assert!((mean - (90.0 * 1_000.0 + 9.0 * 2_000.0 + 10_000.0) / 100.0).abs() < 1e-9);
        // Empty histogram reports zeros, not NaN.
        let empty = ServingStats::default();
        assert_eq!(empty.percentile_ns(0.99), 0);
        assert_eq!(empty.mean_latency_ns(), 0.0);
    }

    #[test]
    fn fingerprint_covers_the_histogram() {
        let a = ServingStats {
            latency_hist: vec![(1, 5)],
            ..ServingStats::default()
        };
        let b = ServingStats {
            latency_hist: vec![(1, 6)],
            ..ServingStats::default()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn section_translation_is_faithful() {
        let stats = ServingStats {
            serve_seed: 7,
            slot_ns: 500,
            slots: 12,
            offered: 30,
            answered: 25,
            cache_hits: 3,
            shed_deadline: 1,
            shed_overload: 1,
            latency_hist: vec![(0, 3), (1, 20), (3, 5)],
            result_digest: 42,
            ..ServingStats::default()
        };
        let s = stats.to_section();
        assert_eq!(s.serve_seed, 7);
        assert_eq!(s.offered, 30);
        assert_eq!(s.p50_ns, stats.percentile_ns(0.5));
        assert_eq!(s.latency_hist, stats.latency_hist);
        assert_eq!(s.result_digest, 42);
        let mut report = obs::RunReport::new("t");
        report.serving = Some(stats.to_section());
        // It survives the JSON round trip.
        let back = obs::RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(back.serving.unwrap(), s);
    }
}
