//! Deterministic workload generation: the composable scenario DSL.
//!
//! A scenario ([`WorkloadSpec`]) composes four orthogonal pieces, every
//! one a pure PRF of the serve seed:
//!
//! - an **arrival process** — open-loop Poisson at `offered_qps` (arrivals
//!   keep coming during saturation, measuring server-perceived latency),
//!   or closed-loop (`N` clients with exponential think time, the next
//!   query issued only when the previous completes — the shape that
//!   exposes coordinated omission);
//! - **rate modulators** — a diurnal sine and flash-crowd burst windows.
//!   Open-loop arrivals realize them by thinning a homogeneous Poisson
//!   stream at the peak rate; closed-loop clients scale their think time
//!   down by the same multiplier;
//! - a **query-pool distribution** — the legacy hot/cold mix
//!   (`hot_fraction`/`hot_pool`) or a Zipfian over the whole pool
//!   (`zipf:s=1.1` concentrates traffic on a few hot keys, which is what
//!   makes the quantized-key LRU earn its keep);
//! - **tenant classes** — named priority classes with integer-percent
//!   shares; each arrival (open loop) or client (closed loop) is assigned
//!   a class by a weighted PRF draw, and the engine enforces per-class
//!   queue quotas at admission.
//!
//! Inter-arrival gaps are exponential draws stamped onto the virtual
//! clock, each produced by an independent ChaCha stream keyed with
//! [`ygm::fault::mix`] on `(serve_seed, salt, index)` — the same pure-PRF
//! construction the fault injector uses for its schedules, so the
//! workload is a pure function of the seed: no generator state threads
//! through the run, and any arrival can be recomputed in isolation.

use crate::params::{ServeParams, SLOT_NS};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ygm::fault::mix;

/// Salt for the inter-arrival gap stream (per open-loop candidate).
pub const SALT_GAP: u64 = 0x05EB_FE01;
/// Salt for the query-pool pick stream (hot/cold and Zipfian draws).
pub const SALT_POOL: u64 = 0x05EB_FE02;
// 0x05EB_FE03 is the forensics tie-break salt (serve::forensics).
/// Salt for the thinning accept/reject stream of modulated arrivals.
pub const SALT_THIN: u64 = 0x05EB_FE04;
/// Salt for tenant-class assignment (keyed by arrival index for the open
/// loop, by client id for the closed loop).
pub const SALT_TENANT: u64 = 0x05EB_FE05;
/// Salt for closed-loop client think-time draws.
pub const SALT_THINK: u64 = 0x05EB_FE06;
/// Salt for filtered-traffic draws: whether an arrival carries a
/// predicate, and the rotation offset of its synthetic bucket range.
pub const SALT_FILTER: u64 = 0x05EB_FE07;
/// Salt for the mutation schedule (insert vector picks and delete
/// target draws, keyed by slot).
pub const SALT_MUTATE: u64 = 0x05EB_FE08;
/// Salt for the compaction-phase scheduling draw of the vdb serving loop
/// (the slot-boundary delay after the tombstone watermark trips).
pub const SALT_COMPACT: u64 = 0x05EB_FE09;

/// Thinning gives up after this many candidates per accepted arrival, so
/// a degenerate spec (acceptance probability driven toward zero) errors
/// cleanly instead of spinning.
const MAX_THIN_CANDIDATES_PER_ARRIVAL: u64 = 65_536;

/// How arrivals are issued.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalProcess {
    /// Open-loop Poisson at `offered_qps`: the generator never waits for
    /// the server, so saturation shows up as queueing and shedding.
    #[default]
    Open,
    /// Closed-loop: `clients` concurrent clients, each issuing its next
    /// query one exponential think time (mean `think_ns` of virtual time)
    /// after its previous query completes; shed queries are retried with
    /// their original first-issue slot preserved, so client-perceived
    /// latency accumulates across retries.
    Closed { clients: u64, think_ns: u64 },
}

/// Where query vectors are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PoolDist {
    /// The legacy hot/cold mix driven by
    /// `ServeParams::{hot_fraction, hot_pool}`.
    #[default]
    HotCold,
    /// Zipfian over the whole pool: pool id `i` has weight `1/(i+1)^s`.
    /// `s = 0` is uniform; `s = 1.1` concentrates most traffic on a few
    /// hot keys.
    Zipf { s: f64 },
}

/// Diurnal sine modulator: the offered rate is scaled by
/// `1 + amp * sin(2π t / period)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    pub period_ns: u64,
    /// In `[0, 0.9]` so the rate never reaches zero.
    pub amp: f64,
}

/// Flash-crowd burst window: the offered rate is multiplied by `x` for
/// `t ∈ [at, at + dur)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    pub at_ns: u64,
    pub dur_ns: u64,
    pub x: f64,
}

/// Bucket count of the synthetic filtered-traffic predicate space: each
/// point of a vdb collection carries a `bucket` metadata field in
/// `[0, FILTER_BUCKETS)`, and a filtered query's predicate is a rotated
/// contiguous range over it.
pub const FILTER_BUCKETS: u64 = 100;

/// Synthetic filtered traffic: `pct`% of arrivals carry a metadata
/// predicate of selectivity ≈ `sel`, realized in vdb mode as a rotated
/// `bucket in [lo .. hi]` range term (the rotation spreads distinct
/// predicates — and therefore distinct cache keys — across queries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterTraffic {
    /// Percent of arrivals carrying a predicate, in `[1, 100]`.
    pub pct: u64,
    /// Target selectivity of each predicate, in `(0, 1]`.
    pub sel: f64,
}

impl FilterTraffic {
    /// Width of the rotated bucket range: `round(sel · FILTER_BUCKETS)`,
    /// clamped to `[1, FILTER_BUCKETS]`.
    pub fn width(&self) -> u64 {
        ((self.sel * FILTER_BUCKETS as f64).round() as u64).clamp(1, FILTER_BUCKETS)
    }
}

/// Online mutation traffic on the slot clock: one insert every
/// `ins_every` slots and one delete every `del_every` slots (0 disables
/// either kind). The vdb serving loop realizes the schedule with pure
/// PRF draws keyed by [`SALT_MUTATE`] and the slot number, so a mixed
/// insert/query/delete trace replays exactly from the serve seed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MutateTraffic {
    pub ins_every: u64,
    pub del_every: u64,
}

/// One tenant priority class. Declaration order is priority order: the
/// first class dispatches first and classes hold
/// `ceil(share_pct% · shed_watermark)` of the queue at most.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    pub name: String,
    /// Integer percent of traffic (shares across classes sum to 100).
    pub share_pct: u64,
}

/// One composed workload scenario — see the module docs. Parsed from a
/// `--workload` spec string by [`std::str::FromStr`] (grammar in
/// `serve::params`); [`Default`] is the pre-DSL behavior (open-loop,
/// hot/cold pool, no modulators, no tenant classes), for which generation
/// is byte-identical to the legacy generator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSpec {
    pub arrival: ArrivalProcess,
    pub pool: PoolDist,
    pub diurnal: Option<Diurnal>,
    pub bursts: Vec<BurstWindow>,
    /// Synthetic filtered traffic (vdb mode only; inert otherwise).
    pub filter: Option<FilterTraffic>,
    /// Online insert/delete schedule (vdb mode only; inert otherwise).
    pub mutate: Option<MutateTraffic>,
    pub tenants: Vec<TenantClass>,
}

impl WorkloadSpec {
    /// Check every invariant the parser enforces (for specs filled
    /// directly). Degenerate shapes — a zero-width burst window, a sine
    /// that can null the rate, an empty or non-100% tenant split — are
    /// errors here so they never reach the slot loop.
    pub fn validate(&self) -> Result<(), String> {
        if let ArrivalProcess::Closed { clients, .. } = self.arrival {
            if clients < 1 {
                return Err("closed-loop clients must be >= 1".into());
            }
            if clients > 100_000 {
                return Err(format!(
                    "closed-loop clients must be <= 100000 (got {clients})"
                ));
            }
        }
        if let PoolDist::Zipf { s } = self.pool {
            if !s.is_finite() || !(0.0..=8.0).contains(&s) {
                return Err(format!("zipf exponent s must be in [0, 8] (got {s})"));
            }
        }
        if let Some(d) = self.diurnal {
            if d.period_ns == 0 {
                return Err("sine period must be positive".into());
            }
            if !d.amp.is_finite() || !(0.0..=0.9).contains(&d.amp) {
                return Err(format!(
                    "sine amplitude must be in [0, 0.9] so the rate never \
                     reaches zero (got {})",
                    d.amp
                ));
            }
        }
        for b in &self.bursts {
            if b.dur_ns == 0 {
                return Err("burst window has zero width (dur must be positive): the \
                     spec would generate no burst arrivals"
                    .into());
            }
            if !b.x.is_finite() || !(1.0..=64.0).contains(&b.x) {
                return Err(format!(
                    "burst multiplier x must be in [1, 64] (got {})",
                    b.x
                ));
            }
        }
        if let Some(f) = self.filter {
            if !(1..=100).contains(&f.pct) {
                return Err(format!("filter pct must be in [1, 100] (got {})", f.pct));
            }
            if !f.sel.is_finite() || f.sel <= 0.0 || f.sel > 1.0 {
                return Err(format!("filter sel must be in (0, 1] (got {})", f.sel));
            }
        }
        if let Some(m) = self.mutate {
            if m.ins_every == 0 && m.del_every == 0 {
                return Err("mutate clause declares no mutations (ins and del both 0)".into());
            }
        }
        if !self.tenants.is_empty() {
            if self.tenants.len() > 8 {
                return Err(format!(
                    "at most 8 tenant classes (got {})",
                    self.tenants.len()
                ));
            }
            let mut sum = 0u64;
            for (i, t) in self.tenants.iter().enumerate() {
                if t.name.is_empty()
                    || !t
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(format!(
                        "tenant name must be non-empty [A-Za-z0-9_-] (got {:?})",
                        t.name
                    ));
                }
                if self.tenants[..i].iter().any(|o| o.name == t.name) {
                    return Err(format!("duplicate tenant class {:?}", t.name));
                }
                if t.share_pct < 1 {
                    return Err(format!("tenant {:?} share must be >= 1%", t.name));
                }
                sum += t.share_pct;
            }
            if sum != 100 {
                return Err(format!("tenant shares must sum to 100% (got {sum}%)"));
            }
        }
        Ok(())
    }

    /// Rate multiplier at virtual time `t_ns`: the diurnal sine times the
    /// largest burst window covering `t_ns` (1 outside every window).
    pub fn multiplier(&self, t_ns: u64) -> f64 {
        let mut m = 1.0;
        if let Some(d) = self.diurnal {
            let phase = 2.0 * std::f64::consts::PI * t_ns as f64 / d.period_ns as f64;
            m *= 1.0 + d.amp * phase.sin();
        }
        let burst = self
            .bursts
            .iter()
            .filter(|b| t_ns >= b.at_ns && t_ns < b.at_ns.saturating_add(b.dur_ns))
            .map(|b| b.x)
            .fold(1.0, f64::max);
        m * burst
    }

    /// Upper bound of [`Self::multiplier`] over all `t_ns` — the rate the
    /// thinning generator draws candidates at (1 with no modulator).
    pub fn peak_multiplier(&self) -> f64 {
        let amp = self.diurnal.map_or(0.0, |d| d.amp);
        let burst = self.bursts.iter().map(|b| b.x).fold(1.0, f64::max);
        (1.0 + amp) * burst
    }

    /// Tenant class of `key` (arrival index for the open loop, client id
    /// for the closed loop): a share-weighted pure PRF draw. 0 when no
    /// classes are declared.
    pub fn tenant_of(&self, serve_seed: u64, key: u64) -> usize {
        if self.tenants.is_empty() {
            return 0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(serve_seed, SALT_TENANT, key, 0, 0));
        let u = rng.gen_range(0..100u64);
        let mut cum = 0u64;
        for (i, t) in self.tenants.iter().enumerate() {
            cum += t.share_pct;
            if u < cum {
                return i;
            }
        }
        self.tenants.len() - 1
    }

    /// Filtered-traffic draw for arrival `idx`: `Some(lo)` — the low
    /// bucket of the rotated `[lo .. lo + width - 1]` range — when the
    /// arrival carries a predicate, `None` otherwise. A pure PRF of
    /// `(serve_seed, idx)`, so every rank (and every rerun) agrees on
    /// which queries are filtered and by what.
    pub fn filter_bucket_of(&self, serve_seed: u64, idx: u64) -> Option<u64> {
        let f = self.filter?;
        let mut rng = ChaCha8Rng::seed_from_u64(mix(serve_seed, SALT_FILTER, idx, 0, 0));
        if rng.gen_range(0..100u64) >= f.pct {
            return None;
        }
        Some(rng.gen_range(0..(FILTER_BUCKETS - f.width() + 1)))
    }
}

/// Normalized cumulative Zipfian distribution over `pool_len` ranks:
/// `cdf[i]` is the probability mass of pool ids `0..=i`, with id `i`
/// weighted `1/(i+1)^s`. Pure function of `(pool_len, s)`.
pub fn zipf_cdf(pool_len: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(pool_len);
    let mut acc = 0.0f64;
    for i in 0..pool_len {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Draws pool ids for arrivals. Everything is a pure PRF of
/// `(serve_seed, arrival idx)` except the legacy cold-set round-robin
/// cursor, which advances in arrival-index order (both the plan generator
/// and the closed-loop minting engine consume indexes in order).
pub struct PoolPicker {
    dist: PoolDist,
    pool_len: usize,
    hot_fraction: f64,
    hot_pool: usize,
    cold_cursor: usize,
    /// Precomputed CDF for [`PoolDist::Zipf`]; empty otherwise.
    zipf: Vec<f64>,
}

impl PoolPicker {
    pub fn new(params: &ServeParams, pool_len: usize) -> PoolPicker {
        assert!(pool_len >= 1, "query pool must not be empty");
        let dist = params.workload.pool;
        PoolPicker {
            dist,
            pool_len,
            hot_fraction: params.hot_fraction,
            hot_pool: params.hot_pool,
            cold_cursor: 0,
            zipf: match dist {
                PoolDist::Zipf { s } => zipf_cdf(pool_len, s),
                PoolDist::HotCold => Vec::new(),
            },
        }
    }

    /// Pool id of arrival `idx`.
    pub fn pick(&mut self, serve_seed: u64, idx: u64) -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(serve_seed, SALT_POOL, idx, 0, 0));
        match self.dist {
            PoolDist::HotCold => {
                // The pre-DSL path, byte-identical: hot pick with
                // probability hot_fraction, else cold round-robin.
                let hot_pool = self.hot_pool.min(self.pool_len);
                if rng.gen_bool(self.hot_fraction) {
                    rng.gen_range(0..hot_pool)
                } else {
                    let id = hot_pool + self.cold_cursor;
                    self.cold_cursor =
                        (self.cold_cursor + 1) % self.pool_len.saturating_sub(hot_pool).max(1);
                    id.min(self.pool_len - 1)
                }
            }
            PoolDist::Zipf { .. } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                self.zipf
                    .partition_point(|&c| c <= u)
                    .min(self.pool_len - 1)
            }
        }
    }
}

/// One generated query arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival index (0-based, also the query's stable id and seed key).
    pub idx: u64,
    /// Slot on the serving clock in which the query arrives.
    pub slot: u64,
    /// Index into the query pool set for the query vector.
    pub pool_id: usize,
    /// Tenant class index (0 when no classes are declared).
    pub tenant: usize,
    /// Issuing closed-loop client (== `idx` for open-loop arrivals).
    pub client: u64,
    /// Slot of the issuing client's *first* attempt at this query — equal
    /// to `slot` except for closed-loop retries of shed queries, where it
    /// anchors client-perceived latency.
    pub first_issue_slot: u64,
}

/// The full arrival schedule of a run, sorted by slot (then index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalPlan {
    pub arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    /// Generate the open-loop schedule for `params` against a query pool
    /// of `pool_len` vectors. Pure function of `(params.serve_seed,
    /// params.workload, params.offered_qps, params.n_arrivals,
    /// params.hot_fraction, params.hot_pool, pool_len)`.
    ///
    /// Errors instead of producing an empty or unboundedly-thinned plan:
    /// a degenerate spec (zero arrivals, non-positive rate, a thinning
    /// acceptance rate collapsed toward zero, a closed-loop process that
    /// has no static plan) is reported cleanly here, never as a panic in
    /// the slot loop.
    pub fn try_generate(params: &ServeParams, pool_len: usize) -> Result<ArrivalPlan, String> {
        if pool_len == 0 {
            return Err("query pool must not be empty".into());
        }
        params.workload.validate()?;
        if let ArrivalProcess::Closed { .. } = params.workload.arrival {
            return Err(
                "closed-loop arrivals are minted by the engine when queries \
                 complete; no static plan exists"
                    .into(),
            );
        }
        if params.n_arrivals == 0 {
            return Err("degenerate workload: n_arrivals is 0 (empty plan)".into());
        }
        if !params.offered_qps.is_finite() || params.offered_qps <= 0.0 {
            return Err(format!(
                "degenerate workload: offered rate must be finite and > 0 \
                 (got {} qps)",
                params.offered_qps
            ));
        }
        let spec = &params.workload;
        let n = params.n_arrivals as u64;
        let mut picker = PoolPicker::new(params, pool_len);
        let mut arrivals = Vec::with_capacity(params.n_arrivals);
        // Draw a homogeneous candidate stream at the peak rate, then thin
        // each candidate `c` with an independent accept draw at probability
        // multiplier(t)/peak — the classic deterministic construction for
        // inhomogeneous Poisson processes, still a pure PRF per candidate
        // index. With no modulator the peak and every multiplier are 1, so
        // every candidate is accepted and candidate `c` is arrival `c`.
        let peak = spec.peak_multiplier();
        let mean_gap_ns = 1e9 / (params.offered_qps * peak);
        let budget = n.saturating_mul(MAX_THIN_CANDIDATES_PER_ARRIVAL);
        let mut t_ns = 0.0f64;
        let mut accepted = 0u64;
        let mut c = 0u64;
        while accepted < n {
            if c >= budget {
                return Err(format!(
                    "degenerate workload spec: thinning accepted only \
                     {accepted}/{n} arrivals after {c} candidates \
                     (acceptance rate collapsed toward zero)"
                ));
            }
            let mut gap_rng = ChaCha8Rng::seed_from_u64(mix(params.serve_seed, SALT_GAP, c, 0, 0));
            // Inverse-CDF exponential draw; 1-u keeps ln's argument away
            // from zero.
            let u: f64 = gap_rng.gen_range(0.0..1.0);
            t_ns += -(1.0 - u).ln() * mean_gap_ns;
            let mut thin_rng =
                ChaCha8Rng::seed_from_u64(mix(params.serve_seed, SALT_THIN, c, 0, 0));
            let keep: f64 = thin_rng.gen_range(0.0..1.0);
            c += 1;
            if keep * peak >= spec.multiplier(t_ns as u64) {
                continue;
            }
            let slot = t_ns as u64 / SLOT_NS;
            arrivals.push(Arrival {
                idx: accepted,
                slot,
                pool_id: picker.pick(params.serve_seed, accepted),
                tenant: spec.tenant_of(params.serve_seed, accepted),
                client: accepted,
                first_issue_slot: slot,
            });
            accepted += 1;
        }
        if arrivals.is_empty() {
            return Err("degenerate workload spec produced an empty arrival plan".into());
        }
        Ok(ArrivalPlan { arrivals })
    }

    /// [`Self::try_generate`], panicking with the clean error message on a
    /// degenerate spec (callers that validated `params` first never hit
    /// this).
    pub fn generate(params: &ServeParams, pool_len: usize) -> ArrivalPlan {
        Self::try_generate(params, pool_len).unwrap_or_else(|e| panic!("invalid workload: {e}"))
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the plan is empty. [`Self::try_generate`] never returns an
    /// empty plan; this (and [`Self::last_slot`]) stay total anyway so a
    /// hand-built empty plan cannot panic downstream.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The last arrival's slot (0 for an empty plan).
    pub fn last_slot(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(qps: f64, n: usize) -> ServeParams {
        ServeParams::new(5)
            .offered_qps(qps)
            .n_arrivals(n)
            .hot_set(0.4, 4)
    }

    #[test]
    fn same_seed_same_plan() {
        let p = params(5_000.0, 300);
        let a = ArrivalPlan::generate(&p, 64);
        let b = ArrivalPlan::generate(&p, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = params(5_000.0, 300);
        let a = ArrivalPlan::generate(&p, 64);
        let b = ArrivalPlan::generate(&p.clone().serve_seed(99), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn slots_are_monotone_and_rate_is_plausible() {
        let p = params(2_000.0, 1_000); // 2k qps, 1 ms slots => ~2/slot
        let plan = ArrivalPlan::generate(&p, 64);
        assert!(plan
            .arrivals
            .windows(2)
            .all(|w| w[0].slot <= w[1].slot && w[0].idx < w[1].idx));
        // 1000 arrivals at 2 per slot should span roughly 500 slots; allow
        // a generous band for exponential variance.
        let span = plan.last_slot();
        assert!(
            (250..=1_000).contains(&span),
            "implausible span {span} slots"
        );
    }

    #[test]
    fn hot_fraction_skews_pool_ids() {
        let p = params(2_000.0, 2_000);
        let plan = ArrivalPlan::generate(&p, 64);
        let hot = plan.arrivals.iter().filter(|a| a.pool_id < 4).count();
        let frac = hot as f64 / plan.len() as f64;
        assert!(
            (0.3..0.5).contains(&frac),
            "hot fraction {frac} far from configured 0.4"
        );
        // Every pool id stays in range.
        assert!(plan.arrivals.iter().all(|a| a.pool_id < 64));
    }

    #[test]
    fn pool_smaller_than_hot_pool_still_in_range() {
        let p = params(1_000.0, 100).hot_set(0.9, 1_000);
        let plan = ArrivalPlan::generate(&p, 3);
        assert!(plan.arrivals.iter().all(|a| a.pool_id < 3));
    }

    #[test]
    fn empty_plan_edge_cases_are_total() {
        // A degenerate (hand-built) empty plan must not panic anywhere.
        let empty = ArrivalPlan { arrivals: vec![] };
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.last_slot(), 0);
    }

    #[test]
    fn degenerate_specs_error_cleanly() {
        // Zero arrivals (rate exists but the plan would be empty).
        let mut p = params(1_000.0, 10);
        p.n_arrivals = 0;
        let err = ArrivalPlan::try_generate(&p, 8).unwrap_err();
        assert!(err.contains("empty plan"), "{err}");
        // Rate 0 (directly-filled params bypassing the builder assert).
        let mut p = params(1_000.0, 10);
        p.offered_qps = 0.0;
        let err = ArrivalPlan::try_generate(&p, 8).unwrap_err();
        assert!(err.contains("rate"), "{err}");
        // Zero-width burst window.
        let mut p = params(1_000.0, 10);
        p.workload.bursts.push(BurstWindow {
            at_ns: 0,
            dur_ns: 0,
            x: 8.0,
        });
        let err = ArrivalPlan::try_generate(&p, 8).unwrap_err();
        assert!(err.contains("zero width"), "{err}");
        // Closed-loop specs have no static plan.
        let mut p = params(1_000.0, 10);
        p.workload.arrival = ArrivalProcess::Closed {
            clients: 4,
            think_ns: 0,
        };
        let err = ArrivalPlan::try_generate(&p, 8).unwrap_err();
        assert!(err.contains("closed-loop"), "{err}");
        // Empty pool.
        let err = ArrivalPlan::try_generate(&params(1_000.0, 10), 0).unwrap_err();
        assert!(err.contains("pool"), "{err}");
    }

    #[test]
    fn default_spec_matches_legacy_generator_shape() {
        // The default WorkloadSpec must leave the legacy fields in charge.
        let spec = WorkloadSpec::default();
        assert_eq!(spec.arrival, ArrivalProcess::Open);
        assert_eq!(spec.pool, PoolDist::HotCold);
        assert_eq!(spec.peak_multiplier(), 1.0);
        assert_eq!(spec.tenant_of(7, 123), 0);
        spec.validate().unwrap();
    }

    /// With no modulator every thinning candidate is accepted (candidate
    /// `c` is arrival `c`); a burst of `x = 1` modulates nothing and must
    /// give the same plan.
    #[test]
    fn a_unit_burst_leaves_the_default_plan_unchanged() {
        let p = params(2_000.0, 400);
        let mut unit = p.clone();
        unit.workload = "open;burst:at=50ms,x=1,dur=100ms".parse().unwrap();
        assert_eq!(unit.workload.bursts.len(), 1);
        let plan = ArrivalPlan::generate(&p, 64);
        assert_eq!(plan, ArrivalPlan::generate(&unit, 64));
        assert!(plan
            .arrivals
            .iter()
            .enumerate()
            .all(|(i, a)| a.idx == i as u64));
    }

    #[test]
    fn burst_window_concentrates_arrivals() {
        let mut p = params(2_000.0, 2_000); // ~2 per 1ms slot baseline
        p.workload.bursts.push(BurstWindow {
            at_ns: 100_000_000, // 100 ms in
            dur_ns: 50_000_000, // 50 ms wide
            x: 8.0,
        });
        let plan = ArrivalPlan::generate(&p, 64);
        // Arrival density inside the window must far exceed outside.
        let in_window = plan
            .arrivals
            .iter()
            .filter(|a| (100..150).contains(&a.slot))
            .count() as f64
            / 50.0;
        let before = plan.arrivals.iter().filter(|a| a.slot < 100).count().max(1) as f64 / 100.0;
        assert!(
            in_window > 3.0 * before,
            "burst density {in_window:.2}/slot vs baseline {before:.2}/slot"
        );
        assert!(plan.arrivals.windows(2).all(|w| w[0].slot <= w[1].slot));
    }

    #[test]
    fn diurnal_sine_modulates_rate() {
        let mut p = params(2_000.0, 4_000);
        p.workload.diurnal = Some(Diurnal {
            period_ns: 1_000_000_000, // 1 s
            amp: 0.9,
        });
        let plan = ArrivalPlan::generate(&p, 64);
        // First quarter-period (rising sine) must be denser than the
        // third quarter (falling below baseline).
        let count = |lo: u64, hi: u64| {
            plan.arrivals
                .iter()
                .filter(|a| (lo..hi).contains(&a.slot))
                .count()
        };
        let crest = count(125, 375); // around t = period/4
        let trough = count(625, 875); // around t = 3*period/4
        assert!(
            crest > 2 * trough.max(1),
            "sine crest {crest} not denser than trough {trough}"
        );
    }

    #[test]
    fn zipf_pool_concentrates_on_hot_keys() {
        let mut p = params(2_000.0, 2_000);
        p.workload.pool = PoolDist::Zipf { s: 1.1 };
        let plan = ArrivalPlan::generate(&p, 64);
        let head = plan.arrivals.iter().filter(|a| a.pool_id < 4).count() as f64;
        assert!(
            head / plan.len() as f64 > 0.4,
            "zipf s=1.1 put only {head} of {} arrivals on the 4 hottest keys",
            plan.len()
        );
        assert!(plan.arrivals.iter().all(|a| a.pool_id < 64));
    }

    #[test]
    fn tenant_assignment_follows_shares() {
        let mut p = params(2_000.0, 2_000);
        p.workload.tenants = vec![
            TenantClass {
                name: "gold".into(),
                share_pct: 75,
            },
            TenantClass {
                name: "free".into(),
                share_pct: 25,
            },
        ];
        let plan = ArrivalPlan::generate(&p, 64);
        let gold = plan.arrivals.iter().filter(|a| a.tenant == 0).count() as f64;
        let frac = gold / plan.len() as f64;
        assert!(
            (0.70..0.80).contains(&frac),
            "gold fraction {frac} far from configured 0.75"
        );
    }

    #[test]
    fn filter_draws_follow_pct_and_stay_in_range() {
        let mut spec = WorkloadSpec::default();
        assert_eq!(spec.filter_bucket_of(7, 0), None, "no clause, no filters");
        spec.filter = Some(FilterTraffic { pct: 30, sel: 0.2 });
        spec.validate().unwrap();
        let width = spec.filter.unwrap().width();
        assert_eq!(width, 20);
        let n = 4_000u64;
        let mut filtered = 0u64;
        for idx in 0..n {
            if let Some(lo) = spec.filter_bucket_of(42, idx) {
                filtered += 1;
                assert!(lo + width <= FILTER_BUCKETS, "range overflows: lo {lo}");
                // Pure PRF: the draw replays exactly.
                assert_eq!(spec.filter_bucket_of(42, idx), Some(lo));
            }
        }
        let frac = filtered as f64 / n as f64;
        assert!(
            (0.25..0.35).contains(&frac),
            "filtered fraction {frac} far from configured 0.30"
        );
        // A different seed draws a different filtered set.
        let other: Vec<_> = (0..64).map(|i| spec.filter_bucket_of(43, i)).collect();
        let this: Vec<_> = (0..64).map(|i| spec.filter_bucket_of(42, i)).collect();
        assert_ne!(this, other);
    }

    #[test]
    fn filter_and_mutate_validation() {
        let mut spec = WorkloadSpec {
            filter: Some(FilterTraffic { pct: 0, sel: 0.5 }),
            ..WorkloadSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("[1, 100]"));
        spec.filter = Some(FilterTraffic { pct: 50, sel: 0.0 });
        assert!(spec.validate().unwrap_err().contains("(0, 1]"));
        spec.filter = Some(FilterTraffic { pct: 100, sel: 1.0 });
        spec.validate().unwrap();
        // Full-selectivity predicates cover every bucket from offset 0.
        assert_eq!(spec.filter_bucket_of(1, 0), Some(0));
        spec.filter = None;
        spec.mutate = Some(MutateTraffic {
            ins_every: 0,
            del_every: 0,
        });
        assert!(spec.validate().unwrap_err().contains("no mutations"));
        spec.mutate = Some(MutateTraffic {
            ins_every: 40,
            del_every: 0,
        });
        spec.validate().unwrap();
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let cdf = zipf_cdf(100, 1.1);
        assert_eq!(cdf.len(), 100);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        // s = 0 is uniform.
        let uni = zipf_cdf(4, 0.0);
        assert!((uni[0] - 0.25).abs() < 1e-12);
    }
}
