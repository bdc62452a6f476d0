//! Validated serving parameters.
//!
//! Everything that shapes a serving run — the open-loop workload, the
//! micro-batching policy, the admission-control ladder, and the result
//! cache — lives in one [`ServeParams`] value, so one `--serve-seed` plus
//! one parameter set replays a run exactly (see the determinism contract
//! in the crate docs).

use crate::workload::{
    ArrivalProcess, BurstWindow, Diurnal, FilterTraffic, MutateTraffic, PoolDist, TenantClass,
    WorkloadSpec,
};
use dnnd::DistSearchParams;
use std::fmt;

/// Virtual duration of one serving slot, nanoseconds (1 ms). The frontend
/// wakes once per slot; arrivals, batch ages, deadlines and latencies are
/// all measured in slots.
pub const SLOT_NS: u64 = 1_000_000;

/// Parameters of one online serving run. Construct with [`ServeParams::new`]
/// and the builder methods (each returns a value that passes
/// [`ServeParams::validate`]), or start from [`Default`], adjust, and
/// validate.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeParams {
    /// Search quality at degrade level 0 (`l`, `epsilon`,
    /// `entry_candidates`, search seed).
    pub search: DistSearchParams,
    /// Seed of the whole serving run: arrivals, hot-set picks, and every
    /// admission decision are a pure function of it.
    pub serve_seed: u64,
    /// Offered load of the Poisson arrival process, queries per second of
    /// virtual time.
    pub offered_qps: f64,
    /// Total queries the workload generator emits.
    pub n_arrivals: usize,
    /// Probability that an arrival draws from the hot pool (drives cache
    /// hits); in `[0, 1]`.
    pub hot_fraction: f64,
    /// Size of the hot pool (first `hot_pool` queries of the pool set).
    pub hot_pool: usize,
    /// Micro-batch flush size B: the queue dispatches when it holds at
    /// least B queries, or when the oldest queued query is two slots old,
    /// whichever happens first.
    pub batch: usize,
    /// Deadline budget: a query still queued after this many slots is
    /// shed (too stale to answer within its SLO).
    pub deadline_slots: u64,
    /// Queue depth at which search degrades (level 1; level 2 at the
    /// midpoint between this and `shed_watermark`).
    pub degrade_watermark: usize,
    /// Queue depth above which the newest queries are dropped outright.
    pub shed_watermark: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Quantization step for cache keys (coordinates are bucketed by this
    /// step; queries in the same bucket share a cache entry).
    pub quant_step: f32,
    /// The composed workload scenario (arrival process, rate modulators,
    /// pool distribution, tenant classes). The default spec reproduces
    /// the pre-DSL behavior bit-for-bit; parse richer scenarios from a
    /// `--workload` string (grammar below).
    pub workload: WorkloadSpec,
}

impl ServeParams {
    /// Serving defaults around a `DistSearchParams::new(l)` search.
    pub fn new(l: usize) -> Self {
        ServeParams {
            search: DistSearchParams::new(l).epsilon(0.1).entry_candidates(24),
            serve_seed: 0x5E27E,
            offered_qps: 2_000.0,
            n_arrivals: 200,
            hot_fraction: 0.3,
            hot_pool: 8,
            batch: 8,
            deadline_slots: 8,
            degrade_watermark: 24,
            shed_watermark: 64,
            cache_capacity: 32,
            quant_step: 1e-3,
            workload: WorkloadSpec::default(),
        }
    }

    /// Set the workload scenario.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = spec;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Parse and set the workload scenario from a `--workload` spec
    /// string (grammar in the module docs of [`crate::workload`] and the
    /// [`std::str::FromStr`] impl below).
    pub fn workload_str(mut self, spec: &str) -> Self {
        self.workload = spec
            .parse()
            .unwrap_or_else(|e| panic!("ServeParams: invalid workload spec: {e}"));
        self
    }

    /// Set the serve seed.
    pub fn serve_seed(mut self, s: u64) -> Self {
        self.serve_seed = s;
        self
    }

    /// Set the offered load.
    pub fn offered_qps(mut self, qps: f64) -> Self {
        self.offered_qps = qps;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the workload length.
    pub fn n_arrivals(mut self, n: usize) -> Self {
        self.n_arrivals = n;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the hot-pool skew: draw fraction and pool size.
    pub fn hot_set(mut self, fraction: f64, pool: usize) -> Self {
        self.hot_fraction = fraction;
        self.hot_pool = pool;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the micro-batch size B.
    pub fn batch(mut self, b: usize) -> Self {
        self.batch = b;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the per-query deadline budget in slots.
    pub fn deadline_slots(mut self, s: u64) -> Self {
        self.deadline_slots = s;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the degrade/shed queue-depth watermarks.
    pub fn watermarks(mut self, degrade: usize, shed: usize) -> Self {
        self.degrade_watermark = degrade;
        self.shed_watermark = shed;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Set the cache capacity (0 disables) and key quantization step.
    pub fn cache(mut self, capacity: usize, quant_step: f32) -> Self {
        self.cache_capacity = capacity;
        self.quant_step = quant_step;
        nnd::checked(self, "ServeParams", Self::validate)
    }

    /// Check every invariant of a parameter set — the one statement of
    /// each, which the builders and the CLI (filling fields directly) both
    /// call.
    pub fn validate(&self) -> Result<(), String> {
        self.search.validate()?;
        if !self.offered_qps.is_finite() || self.offered_qps <= 0.0 {
            return Err(format!(
                "offered_qps must be finite and > 0 (got {})",
                self.offered_qps
            ));
        }
        if self.n_arrivals < 1 {
            return Err("n_arrivals must be >= 1".into());
        }
        if !self.hot_fraction.is_finite() || !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(format!(
                "hot_fraction must be in [0, 1] (got {})",
                self.hot_fraction
            ));
        }
        if self.hot_pool < 1 {
            return Err("hot_pool must be >= 1".into());
        }
        if self.batch < 1 {
            return Err("batch must be >= 1".into());
        }
        if self.deadline_slots < 1 {
            return Err("deadline_slots must be >= 1".into());
        }
        if self.degrade_watermark < 1 || self.shed_watermark < self.degrade_watermark {
            return Err(format!(
                "watermarks must satisfy 1 <= degrade <= shed (got degrade {}, shed {})",
                self.degrade_watermark, self.shed_watermark
            ));
        }
        if !self.quant_step.is_finite() || self.quant_step <= 0.0 {
            return Err(format!(
                "quant_step must be finite and > 0 (got {})",
                self.quant_step
            ));
        }
        self.workload.validate()?;
        let slots = self.expected_slots();
        if slots > MAX_SCHEDULE_SLOTS as f64 {
            return Err(format!(
                "the schedule spans about {slots:.3e} slots, more than the \
                 {MAX_SCHEDULE_SLOTS} a run may take (raise the rate or \
                 shorten the think time)"
            ));
        }
        Ok(())
    }

    /// Slots the schedule is expected to span, at the least: its issues
    /// times their mean spacing at the rate modulators' peak — the mean
    /// arrival gap of the open loop, each closed-loop client's mean think
    /// time.
    fn expected_slots(&self) -> f64 {
        let n = self.n_arrivals as f64;
        let slot_ns = SLOT_NS as f64 * self.workload.peak_multiplier();
        let (issues, slots_apart) = match self.workload.arrival {
            ArrivalProcess::Open => (n, 1e9 / (self.offered_qps * slot_ns)),
            ArrivalProcess::Closed { clients, think_ns } => {
                ((n / clients as f64).ceil(), think_ns as f64 / slot_ns)
            }
        };
        issues * slots_apart
    }
}

/// Most slots a schedule may be expected to span. Every slot costs each
/// rank a barrier and the clock a phase record, idle or not, so a sparser
/// schedule serves its few queries over minutes (or never finishes).
const MAX_SCHEDULE_SLOTS: u64 = 1 << 20;

impl Default for ServeParams {
    /// `l = 10` search under the standard serving shape.
    fn default() -> Self {
        ServeParams::new(10)
    }
}

// --- the `--workload` spec-string grammar ---
//
//   spec    := clause (';' clause)*
//   clause  := 'open'                          open-loop Poisson (default)
//            | 'closed' ':' kv-list            n=<int>, think=<dur>
//            | 'pool'                          legacy hot/cold mix (default)
//            | 'zipf'   ':' kv-list            s=<float>
//            | 'sine'   ':' kv-list            period=<dur>, amp=<float>
//            | 'burst'  ':' kv-list            at=<dur>, x=<float>,
//                                              dur=<dur> (default 500ms)
//            | 'filter' ':' kv-list            pct=<1..100>, sel=<(0,1]>
//                                              (vdb mode: pct% of queries
//                                              carry a predicate of the
//                                              given selectivity)
//            | 'mutate' ':' kv-list            ins=<int>, del=<int>
//                                              (vdb mode: one insert /
//                                              delete every N slots;
//                                              0 or absent disables)
//            | 'tenants' '=' tenant (',' tenant)*
//   tenant  := name ':' <int> '%'?             shares sum to 100
//   dur     := <int> ('ns'|'us'|'ms'|'s')?     bare integers are ns
//
// e.g. `closed:n=64,think=5ms;zipf:s=1.1;burst:at=2s,x=8;tenants=gold:50%,free:50%`
// or   `filter:pct=30,sel=0.2;mutate:ins=40,del=25` for a vdb run

/// Parse a duration like `5ms`, `2s`, `250us`, `100` (bare = ns) to ns.
fn parse_dur_ns(v: &str) -> Result<u64, String> {
    let v = v.trim();
    let (num, unit) = if let Some(n) = v.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (v, 1)
    };
    let base: u64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid duration {v:?} (want e.g. 5ms, 2s, 250us, 100ns)"))?;
    base.checked_mul(unit)
        .ok_or_else(|| format!("duration {v:?} overflows u64 nanoseconds"))
}

/// Render `ns` with the largest unit that divides it exactly, so
/// `Display` → `FromStr` round-trips bit-for-bit.
fn fmt_dur_ns(ns: u64) -> String {
    if ns > 0 && ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns > 0 && ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns > 0 && ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Split a `k=v,k=v` tail, rejecting malformed or unknown keys.
fn parse_kvs<'a>(
    clause: &str,
    tail: &'a str,
    keys: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    for kv in tail.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("{clause}: expected key=value, got {kv:?}"))?;
        let (k, v) = (k.trim(), v.trim());
        if !keys.contains(&k) {
            return Err(format!("{clause}: unknown key {k:?} (valid: {keys:?})"));
        }
        if out.iter().any(|&(seen, _)| seen == k) {
            return Err(format!("{clause}: duplicate key {k:?}"));
        }
        out.push((k, v));
    }
    Ok(out)
}

fn kv_get<'a>(kvs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    kvs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn parse_f64(clause: &str, key: &str, v: &str) -> Result<f64, String> {
    v.parse()
        .map_err(|_| format!("{clause}: {key} must be a number (got {v:?})"))
}

impl std::str::FromStr for WorkloadSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut spec = WorkloadSpec::default();
        let (mut saw_arrival, mut saw_pool, mut saw_sine, mut saw_tenants) =
            (false, false, false, false);
        let (mut saw_filter, mut saw_mutate) = (false, false);
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            if let Some(rest) = clause.strip_prefix("tenants=") {
                if saw_tenants {
                    return Err("duplicate tenants clause".into());
                }
                saw_tenants = true;
                for t in rest.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                    let (name, share) = t
                        .split_once(':')
                        .ok_or_else(|| format!("tenants: expected name:share%, got {t:?}"))?;
                    let share = share.trim().trim_end_matches('%');
                    let share_pct: u64 = share.parse().map_err(|_| {
                        format!("tenants: share for {name:?} must be an integer percent")
                    })?;
                    spec.tenants.push(TenantClass {
                        name: name.trim().to_string(),
                        share_pct,
                    });
                }
                if spec.tenants.is_empty() {
                    return Err("tenants clause declares no classes".into());
                }
                continue;
            }
            let (head, tail) = match clause.split_once(':') {
                Some((h, t)) => (h.trim(), t),
                None => (clause, ""),
            };
            match head {
                "open" => {
                    if saw_arrival {
                        return Err("duplicate arrival clause (open/closed)".into());
                    }
                    saw_arrival = true;
                    parse_kvs("open", tail, &[])?;
                    spec.arrival = ArrivalProcess::Open;
                }
                "closed" => {
                    if saw_arrival {
                        return Err("duplicate arrival clause (open/closed)".into());
                    }
                    saw_arrival = true;
                    let kvs = parse_kvs("closed", tail, &["n", "think"])?;
                    let clients = kv_get(&kvs, "n")
                        .ok_or("closed: missing n=<clients>")?
                        .parse::<u64>()
                        .map_err(|_| "closed: n must be an integer".to_string())?;
                    let think_ns = match kv_get(&kvs, "think") {
                        Some(v) => parse_dur_ns(v)?,
                        None => 0,
                    };
                    spec.arrival = ArrivalProcess::Closed { clients, think_ns };
                }
                "pool" => {
                    if saw_pool {
                        return Err("duplicate pool clause (pool/zipf)".into());
                    }
                    saw_pool = true;
                    parse_kvs("pool", tail, &[])?;
                    spec.pool = PoolDist::HotCold;
                }
                "zipf" => {
                    if saw_pool {
                        return Err("duplicate pool clause (pool/zipf)".into());
                    }
                    saw_pool = true;
                    let kvs = parse_kvs("zipf", tail, &["s"])?;
                    let s = parse_f64(
                        "zipf",
                        "s",
                        kv_get(&kvs, "s").ok_or("zipf: missing s=<exponent>")?,
                    )?;
                    spec.pool = PoolDist::Zipf { s };
                }
                "sine" => {
                    if saw_sine {
                        return Err("duplicate sine clause".into());
                    }
                    saw_sine = true;
                    let kvs = parse_kvs("sine", tail, &["period", "amp"])?;
                    let period_ns =
                        parse_dur_ns(kv_get(&kvs, "period").ok_or("sine: missing period=<dur>")?)?;
                    let amp = parse_f64(
                        "sine",
                        "amp",
                        kv_get(&kvs, "amp").ok_or("sine: missing amp=<0..0.9>")?,
                    )?;
                    spec.diurnal = Some(Diurnal { period_ns, amp });
                }
                "burst" => {
                    let kvs = parse_kvs("burst", tail, &["at", "x", "dur"])?;
                    let at_ns = parse_dur_ns(kv_get(&kvs, "at").ok_or("burst: missing at=<dur>")?)?;
                    let x = parse_f64(
                        "burst",
                        "x",
                        kv_get(&kvs, "x").ok_or("burst: missing x=<multiplier>")?,
                    )?;
                    let dur_ns = match kv_get(&kvs, "dur") {
                        Some(v) => parse_dur_ns(v)?,
                        None => 500_000_000, // 500 ms default window
                    };
                    spec.bursts.push(BurstWindow { at_ns, dur_ns, x });
                }
                "filter" => {
                    if saw_filter {
                        return Err("duplicate filter clause".into());
                    }
                    saw_filter = true;
                    let kvs = parse_kvs("filter", tail, &["pct", "sel"])?;
                    let pct = kv_get(&kvs, "pct")
                        .ok_or("filter: missing pct=<1..100>")?
                        .parse::<u64>()
                        .map_err(|_| "filter: pct must be an integer".to_string())?;
                    let sel = parse_f64(
                        "filter",
                        "sel",
                        kv_get(&kvs, "sel").ok_or("filter: missing sel=<(0,1]>")?,
                    )?;
                    spec.filter = Some(FilterTraffic { pct, sel });
                }
                "mutate" => {
                    if saw_mutate {
                        return Err("duplicate mutate clause".into());
                    }
                    saw_mutate = true;
                    let kvs = parse_kvs("mutate", tail, &["ins", "del"])?;
                    let parse_every = |key: &str| -> Result<u64, String> {
                        match kv_get(&kvs, key) {
                            Some(v) => v
                                .parse::<u64>()
                                .map_err(|_| format!("mutate: {key} must be an integer")),
                            None => Ok(0),
                        }
                    };
                    spec.mutate = Some(MutateTraffic {
                        ins_every: parse_every("ins")?,
                        del_every: parse_every("del")?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown workload clause {other:?} (valid: open, closed, \
                         pool, zipf, sine, burst, filter, mutate, tenants)"
                    ));
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for WorkloadSpec {
    /// Canonical spec string: `parse(format!("{spec}")) == spec` exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arrival {
            ArrivalProcess::Open => write!(f, "open")?,
            ArrivalProcess::Closed { clients, think_ns } => {
                write!(f, "closed:n={clients},think={}", fmt_dur_ns(think_ns))?
            }
        }
        if let PoolDist::Zipf { s } = self.pool {
            write!(f, ";zipf:s={s}")?;
        }
        if let Some(d) = self.diurnal {
            write!(f, ";sine:period={},amp={}", fmt_dur_ns(d.period_ns), d.amp)?;
        }
        for b in &self.bursts {
            write!(
                f,
                ";burst:at={},x={},dur={}",
                fmt_dur_ns(b.at_ns),
                b.x,
                fmt_dur_ns(b.dur_ns)
            )?;
        }
        if let Some(ft) = self.filter {
            write!(f, ";filter:pct={},sel={}", ft.pct, ft.sel)?;
        }
        if let Some(m) = self.mutate {
            write!(f, ";mutate:")?;
            match (m.ins_every, m.del_every) {
                (i, 0) => write!(f, "ins={i}")?,
                (0, d) => write!(f, "del={d}")?,
                (i, d) => write!(f, "ins={i},del={d}")?,
            }
        }
        if !self.tenants.is_empty() {
            write!(f, ";tenants=")?;
            for (i, t) in self.tenants.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}:{}%", t.name, t.share_pct)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_valid() {
        ServeParams::default().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "offered_qps")]
    fn nan_qps_is_rejected() {
        let _ = ServeParams::new(10).offered_qps(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "hot_fraction")]
    fn out_of_range_hot_fraction_is_rejected() {
        let _ = ServeParams::new(10).hot_set(1.5, 4);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn inverted_watermarks_are_rejected() {
        let _ = ServeParams::new(10).watermarks(64, 8);
    }

    #[test]
    #[should_panic(expected = "quant_step")]
    fn negative_quant_step_is_rejected() {
        let _ = ServeParams::new(10).cache(8, -1.0);
    }

    #[test]
    fn workload_spec_parses_the_issue_example() {
        let spec: WorkloadSpec =
            "closed:n=64,think=5ms;zipf:s=1.1;burst:at=2s,x=8;tenants=gold:50%,free:50%"
                .parse()
                .unwrap();
        assert_eq!(
            spec.arrival,
            ArrivalProcess::Closed {
                clients: 64,
                think_ns: 5_000_000
            }
        );
        assert_eq!(spec.pool, PoolDist::Zipf { s: 1.1 });
        assert_eq!(
            spec.bursts,
            vec![BurstWindow {
                at_ns: 2_000_000_000,
                dur_ns: 500_000_000,
                x: 8.0
            }]
        );
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(spec.tenants[0].name, "gold");
        assert_eq!(spec.tenants[1].share_pct, 50);
        // ...and round-trips through the canonical Display form.
        let rt: WorkloadSpec = spec.to_string().parse().unwrap();
        assert_eq!(rt, spec);
    }

    #[test]
    fn workload_spec_defaults_and_empty_string() {
        let spec: WorkloadSpec = "".parse().unwrap();
        assert_eq!(spec, WorkloadSpec::default());
        let spec: WorkloadSpec = "open".parse().unwrap();
        assert_eq!(spec, WorkloadSpec::default());
        assert_eq!(spec.to_string(), "open");
    }

    #[test]
    fn workload_spec_rejects_malformed_strings() {
        for (s, want) in [
            ("bogus", "unknown workload clause"),
            ("closed:think=5ms", "missing n"),
            ("closed:n=0", "clients must be >= 1"),
            ("zipf:s=9", "[0, 8]"),
            ("zipf:s=nope", "must be a number"),
            ("sine:period=1s,amp=2", "[0, 0.9]"),
            ("sine:amp=0.5", "missing period"),
            ("burst:at=1s,x=8,dur=0", "zero width"),
            ("burst:at=1s,x=128", "[1, 64]"),
            ("burst:x=8,at=1q", "invalid duration"),
            ("tenants=gold:60%,free:50%", "sum to 100"),
            ("tenants=gold:50%,gold:50%", "duplicate tenant"),
            ("tenants=:100%", "tenant name"),
            ("open;closed:n=4", "duplicate arrival"),
            ("zipf:s=1;pool", "duplicate pool"),
            ("burst:at=1s,x=8,x=9", "duplicate key"),
            ("sine:period=1s,amp=0.5,phase=3", "unknown key"),
            ("filter:sel=0.2", "missing pct"),
            ("filter:pct=30", "missing sel"),
            ("filter:pct=0,sel=0.5", "[1, 100]"),
            ("filter:pct=30,sel=1.5", "(0, 1]"),
            (
                "filter:pct=30,sel=0.2;filter:pct=10,sel=0.5",
                "duplicate filter",
            ),
            ("mutate:", "no mutations"),
            ("mutate:ins=nope", "must be an integer"),
            ("mutate:ins=4;mutate:del=2", "duplicate mutate"),
            ("mutate:ins=4,freq=2", "unknown key"),
        ] {
            let err = s.parse::<WorkloadSpec>().unwrap_err();
            assert!(
                err.contains(want),
                "spec {s:?}: error {err:?} lacks {want:?}"
            );
        }
    }

    #[test]
    fn filter_and_mutate_clauses_round_trip() {
        let spec: WorkloadSpec = "filter:pct=30,sel=0.2;mutate:ins=40,del=25"
            .parse()
            .unwrap();
        assert_eq!(spec.filter, Some(FilterTraffic { pct: 30, sel: 0.2 }));
        assert_eq!(
            spec.mutate,
            Some(MutateTraffic {
                ins_every: 40,
                del_every: 25
            })
        );
        let rt: WorkloadSpec = spec.to_string().parse().unwrap();
        assert_eq!(rt, spec);
        // Single-sided mutate clauses round-trip without the zero key.
        for s in ["mutate:ins=8", "mutate:del=5"] {
            let spec: WorkloadSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), format!("open;{s}"));
            let rt: WorkloadSpec = spec.to_string().parse().unwrap();
            assert_eq!(rt, spec);
        }
    }

    #[test]
    fn workload_durations_round_trip_at_every_unit() {
        for (s, ns) in [
            ("7ns", 7),
            ("250us", 250_000),
            ("5ms", 5_000_000),
            ("2s", 2_000_000_000),
            ("42", 42),
        ] {
            let spec: WorkloadSpec = format!("closed:n=1,think={s}").parse().unwrap();
            assert_eq!(
                spec.arrival,
                ArrivalProcess::Closed {
                    clients: 1,
                    think_ns: ns
                }
            );
            let rt: WorkloadSpec = spec.to_string().parse().unwrap();
            assert_eq!(rt, spec);
        }
    }

    #[test]
    fn params_validate_covers_the_workload() {
        let p = ServeParams {
            workload: WorkloadSpec {
                bursts: vec![BurstWindow {
                    at_ns: 0,
                    dur_ns: 0,
                    x: 8.0,
                }],
                ..WorkloadSpec::default()
            },
            ..ServeParams::default()
        };
        assert!(p.validate().unwrap_err().contains("zero width"));
        let p = ServeParams::default().workload_str("zipf:s=1.1;tenants=gold:50,free:50");
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn workload_str_builder_rejects_bad_specs() {
        let _ = ServeParams::default().workload_str("burst:at=1s,x=999");
    }

    #[test]
    fn a_schedule_past_the_slot_budget_is_refused() {
        // Every slot is a barrier, so these ran for minutes or never ended.
        for (qps, spec) in [
            (1e-300, "open"),
            (0.1, "open"),
            (2_000.0, "closed:n=1,think=100000s"),
        ] {
            let p = ServeParams {
                offered_qps: qps,
                workload: spec.parse().unwrap(),
                ..ServeParams::default()
            };
            let err = p.validate().unwrap_err();
            assert!(err.contains("a run may take"), "{qps} {spec}: {err}");
        }
        // A burst's peak rate counts: 200 arrivals at 0.15 qps span about
        // 670 000 slots at a doubled rate, 1.3 M at the base one.
        let p = ServeParams {
            offered_qps: 0.15,
            ..ServeParams::default()
        };
        assert!(p.validate().is_err());
        p.workload_str("burst:at=0s,x=2").validate().unwrap();
    }

    #[test]
    fn validate_catches_directly_filled_fields() {
        let p = ServeParams {
            deadline_slots: 0,
            ..ServeParams::default()
        };
        assert!(p.validate().unwrap_err().contains("deadline_slots"));
        let mut p = ServeParams::default();
        p.search.epsilon = f32::NAN;
        assert!(p.validate().is_err());
    }
}
