//! The unified run report: one JSON document per run consolidating message
//! statistics, phase records, convergence trajectory, histograms, and
//! (for query runs) recall.
//!
//! All field types are local to `obs` so the crate stays dependency-free.
//! The records a run measures — fault counters, the traffic matrix, RNN
//! rounds — are these types already: the runtime fills them directly, and
//! the clock's [`PhaseRecord`]s become [`PhaseReport`] rows here.
//!
//! **Every field is declared once.** Each struct of the document is
//! declared through [`report_struct!`]: a field's line carries its type,
//! its codec (how the value is written to and read from JSON) and, for a
//! value `dnnd-report-diff` compares, its [`Gate`] — in document order.
//! [`RunReport::to_json`], [`RunReport::from_json`] and
//! [`RunReport::leaves`] are derived from those lines; nothing else in the
//! workspace knows a key, and the diff tool knows no field at all. Reading
//! is strict: a listed key is required and typed, and only the keys whose
//! codec says so ([`Opt`], [`NonEmpty`]) may be absent.

use crate::critical_path::{CriticalPathSection, PhaseRecord};
use crate::hist::Histogram;
use crate::json::JsonValue as J;
use crate::timeseries::SeriesSnapshot;
use std::fmt;
use Gate::{Fall, Info, Rise};

/// The one report schema this build writes and reads. Bump it on a layout
/// change and regenerate the committed `BENCH_*.json` in the same commit
/// (README "RunReport schema" has the command per baseline;
/// `tests/report_golden.rs` fails until they are).
pub const SCHEMA_VERSION: u64 = 9;

/// How `dnnd-report-diff` treats one compared value. Thresholds are
/// relative (`0.05` allows 5 % movement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Shown for context, never gated (wall clock, free-form metrics).
    Info,
    /// Growth beyond the threshold regresses (times, message counts).
    Rise(f64),
    /// Shrinkage beyond the threshold regresses (recall, answered queries).
    Fall(f64),
    /// Not a value: marks a part of the document that only some run kinds
    /// produce as present. A baseline that carries the marker and a
    /// candidate that lacks it is a hard failure naming the path.
    Section,
}

/// One compared value of a report, flattened (`serving.shed_overload`).
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    pub path: String,
    pub value: f64,
    pub gate: Gate,
}

/// Why a document is not a report of this build.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The text is not JSON (the parser's message, with its byte offset).
    Json(String),
    /// The document was written at another schema version.
    Schema(u64),
    /// A key is missing or does not hold what its field table says.
    Field {
        path: String,
        expected: &'static str,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(msg) => f.write_str(msg),
            ReportError::Schema(found) => write!(
                f,
                "schema_version {found} is not {SCHEMA_VERSION}: regenerate the document \
                 with this build (README \"RunReport schema\" lists the command per baseline)"
            ),
            ReportError::Field { path, expected } => write!(f, "'{path}': expected {expected}"),
        }
    }
}

fn bad(path: &str, expected: &'static str) -> ReportError {
    let path = path.to_string();
    ReportError::Field { path, expected }
}

/// Path of `key` inside the value at `at` (the document itself is `""`).
pub(crate) fn join(at: &str, key: &str) -> String {
    let dot = if at.is_empty() { "" } else { "." };
    format!("{at}{dot}{key}")
}

/// What one JSON value can hold: a number, a string, a boolean, or — for a
/// struct declared through [`report_struct!`] — an object. Public so that a
/// row of the report written on its own (a slow-query log line) is written
/// by the same codec.
pub trait Value: Sized {
    fn to_json(&self) -> J;
    /// Back from the JSON value at path `at`.
    fn from_json(j: &J, at: &str) -> Result<Self, ReportError>;
    /// The compared values of a struct at path `at` (a scalar has none of
    /// its own: whether it is compared is its field's gate).
    fn push_leaves(&self, _at: &str, _out: &mut Vec<Leaf>) {}
}

/// `(type, what a reader expects, to JSON, from JSON)`.
macro_rules! scalar_values {
    ($($ty:ty, $expected:literal, $to:expr, $from:expr;)+) => {$(
        impl Value for $ty {
            fn to_json(&self) -> J {
                $to(self)
            }
            fn from_json(j: &J, at: &str) -> Result<Self, ReportError> {
                $from(j).ok_or_else(|| bad(at, $expected))
            }
        }
    )+};
}

scalar_values! {
    u64, "a non-negative integer", |v: &u64| J::uint(*v), J::as_u64;
    f64, "a number", |v: &f64| J::Num(*v), J::as_f64;
    String, "a string", J::str, |j: &J| j.as_str().map(str::to_string);
    bool, "a boolean", |v: &bool| J::Bool(*v), J::as_bool;
}

/// An optional scalar under a required key: `null` when `None`.
impl<T: Value> Value for Option<T> {
    fn to_json(&self) -> J {
        self.as_ref().map_or(J::Null, T::to_json)
    }
    fn from_json(j: &J, at: &str) -> Result<Self, ReportError> {
        (*j != J::Null).then(|| T::from_json(j, at)).transpose()
    }
}

/// How a field of type `T` travels: what follows `=>` on its line.
pub(crate) trait Codec<T> {
    /// The JSON value, or `None` to omit the key.
    fn write(&self, v: &T) -> Option<J>;
    /// Back from the JSON value at path `at`; `None` is an absent key.
    fn read(&self, j: Option<&J>, at: &str) -> Result<T, ReportError>;
    /// The compared values under this field (none for most codecs).
    fn leaves(&self, _v: &T, _at: &str, _gate: Option<Gate>, _out: &mut Vec<Leaf>) {}
}

/// Declare a struct of the document, fields and field table in one place:
/// each line is a public field as usual, then `=>` and how it travels:
///
/// ```text
/// pub field: Type => [[in "object"] [as "key"]:] codec [, gate] [=> ["leaf" = |field| value, gate; ..]];
/// ```
///
/// The JSON key is the field's name unless `as` renames it, and `in` nests
/// it one object deeper (`in "total" as "count"`). A field without a gate
/// is not compared. The trailing `=>` list declares compared values
/// *derived* from the field (a list's length, a sum over its rows) next to
/// the list they summarise. The struct derives `Debug`, `Clone`,
/// `PartialEq` and `Default`; its [`Value`] impl is three loops over this
/// one list, so a field cannot exist without being written, read and — if
/// it has a gate — compared.
macro_rules! report_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {$(
            $(#[$field_meta:meta])*
            pub $field:ident: $field_ty:ty =>
                $($(in $group:literal)? $(as $key:literal)? :)? $codec:expr $(, $gate:expr)?
                $(=> [$($leaf:literal = $value:expr, $leaf_gate:expr);+])?;
        )+}
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct $name {$(
            $(#[$field_meta])*
            pub $field: $field_ty,
        )+}

        impl $crate::report::Value for $name {
            fn to_json(&self) -> $crate::json::JsonValue {
                let mut out = Vec::with_capacity([$(stringify!($field)),+].len());
                $(if let Some(j) = $crate::report::Codec::write(&$codec, &self.$field) {
                    let key = [$($($key,)?)? stringify!($field)][0];
                    $crate::report::slot(&mut out, &[$($($group)?)?]).push((key.into(), j));
                })+
                $crate::json::JsonValue::Obj(out)
            }

            fn from_json(
                obj: &$crate::json::JsonValue,
                at: &str,
            ) -> Result<Self, $crate::report::ReportError> {
                Ok($name {$($field: {
                    let key = [$($($key,)?)? stringify!($field)][0];
                    let (j, at) = $crate::report::lookup(obj, at, &[$($($group)?)?], key)?;
                    $crate::report::Codec::read(&$codec, j, &at)?
                },)+})
            }

            fn push_leaves(&self, at: &str, out: &mut Vec<$crate::report::Leaf>) {
                $(
                    let gate: &[$crate::report::Gate] = &[$($gate)?];
                    let path = $crate::report::join(at, stringify!($field));
                    let gate = gate.first().copied();
                    $crate::report::Codec::leaves(&$codec, &self.$field, &path, gate, out);
                    $($(out.push($crate::report::Leaf {
                        path: $crate::report::join(at, $leaf),
                        value: $crate::report::derive(&self.$field, $value),
                        gate: $leaf_gate,
                    });)+)?
                )+
            }
        }
    };
}
pub(crate) use report_struct;

/// The object a field is written into: the struct's own, or — for a field
/// declared `in "group"` — the nested object of that name, opened by the
/// first field of the group.
pub(crate) fn slot<'a>(out: &'a mut Vec<(String, J)>, group: &[&str]) -> &'a mut Vec<(String, J)> {
    let Some(&group) = group.first() else {
        return out;
    };
    if out.last().is_none_or(|(key, _)| key != group) {
        out.push((group.into(), J::Obj(Vec::new())));
    }
    match out.last_mut() {
        Some((_, J::Obj(fields))) => fields,
        _ => unreachable!("a group is an object"),
    }
}

/// The value of `key` (in `group`, if any) of the object `obj`, and its path.
pub(crate) fn lookup<'a>(
    obj: &'a J,
    at: &str,
    group: &[&str],
    key: &str,
) -> Result<(Option<&'a J>, String), ReportError> {
    let (holder, at) = match group.first() {
        Some(group) => (obj.get(group), join(at, group)),
        None => (Some(obj), at.to_string()),
    };
    match holder {
        Some(holder @ J::Obj(_)) => Ok((holder.get(key), join(&at, key))),
        _ => Err(bad(&at, "an object")),
    }
}

/// Apply a derived leaf's closure to its field (a function, so that the
/// closure's argument type is inferred from the field).
pub(crate) fn derive<T: ?Sized>(field: &T, value: impl Fn(&T) -> f64) -> f64 {
    value(field)
}

fn sum<T>(rows: &[T], of: impl Fn(&T) -> u64) -> f64 {
    rows.iter().map(of).sum::<u64>() as f64
}

fn items<'a>(j: Option<&'a J>, at: &str) -> Result<&'a [J], ReportError> {
    j.and_then(J::as_arr).ok_or_else(|| bad(at, "an array"))
}

/// The leaf that says "this optional part of the document is present".
fn marker(at: &str) -> Leaf {
    let (path, value, gate) = (at.to_string(), 1.0, Gate::Section);
    Leaf { path, value, gate }
}

/// A required value. A gated number is one compared value.
pub(crate) struct Val;

impl<T: Value> Codec<T> for Val {
    fn write(&self, v: &T) -> Option<J> {
        Some(v.to_json())
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<T, ReportError> {
        let j = j.ok_or_else(|| bad(at, "a value (the key is missing)"))?;
        T::from_json(j, at)
    }
    fn leaves(&self, v: &T, at: &str, gate: Option<Gate>, out: &mut Vec<Leaf>) {
        if let Some((gate, value)) = gate.and_then(|g| Some((g, v.to_json().as_f64()?))) {
            let path = at.to_string();
            out.push(Leaf { path, value, gate });
        }
    }
}

/// A section only some run kinds produce: the key is omitted when `None`
/// (that is not versioning — the version is [`SCHEMA_VERSION`] either
/// way). Present, it contributes its [`Gate::Section`] marker and its
/// fields' leaves under `<key>.`.
pub(crate) struct Opt;

impl<T: Value> Codec<Option<T>> for Opt {
    fn write(&self, v: &Option<T>) -> Option<J> {
        v.as_ref().map(T::to_json)
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Option<T>, ReportError> {
        j.map(|j| T::from_json(j, at)).transpose()
    }
    fn leaves(&self, v: &Option<T>, at: &str, _gate: Option<Gate>, out: &mut Vec<Leaf>) {
        if let Some(section) = v {
            out.push(marker(at));
            section.push_leaves(at, out);
        }
    }
}

/// A full-range 64-bit digest as 16 hex digits: a JSON number is an `f64`
/// and would round it.
pub(crate) struct Hex;

impl Codec<u64> for Hex {
    fn write(&self, v: &u64) -> Option<J> {
        Some(J::str(format!("{v:016x}")))
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<u64, ReportError> {
        j.and_then(J::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad(at, "a 64-bit hex digest string"))
    }
}

/// A list of values: numbers, or nested rows `[{..}, ..]`.
pub(crate) struct List;

impl<T: Value> Codec<Vec<T>> for List {
    fn write(&self, v: &Vec<T>) -> Option<J> {
        Some(J::Arr(v.iter().map(T::to_json).collect()))
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Vec<T>, ReportError> {
        let item = |(i, x): (usize, &J)| T::from_json(x, &format!("{at}[{i}]"));
        items(j, at)?.iter().enumerate().map(item).collect()
    }
}

/// A free-form `{name: scalar}` object kept in insertion order: `params`
/// (strings) and `extra` (numbers, each an `extra.<name>` leaf).
pub(crate) struct Map;

impl<T: Value> Codec<Vec<(String, T)>> for Map {
    fn write(&self, v: &Vec<(String, T)>) -> Option<J> {
        let entry = |(k, x): &(String, T)| (k.clone(), x.to_json());
        Some(J::Obj(v.iter().map(entry).collect()))
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Vec<(String, T)>, ReportError> {
        let Some(J::Obj(fields)) = j else {
            return Err(bad(at, "an object"));
        };
        let entry = |(k, x): &(String, J)| Ok((k.clone(), T::from_json(x, &join(at, k))?));
        fields.iter().map(entry).collect()
    }
    fn leaves(&self, v: &Vec<(String, T)>, at: &str, gate: Option<Gate>, out: &mut Vec<Leaf>) {
        for (k, x) in v {
            Val.leaves(x, &join(at, k), gate, out);
        }
    }
}

/// A list of `(A, B)` tuples as `[{<a>: .., <b>: ..}, ..]`: each half's key
/// and codec.
pub(crate) struct Pairs<A, B>(pub &'static str, pub A, pub &'static str, pub B);

/// Exact histogram buckets `(slots, count)`.
const BUCKETS: Pairs<Val, Val> = Pairs("slots", Val, "count", Val);

impl<A, B, CA: Codec<A>, CB: Codec<B>> Codec<Vec<(A, B)>> for Pairs<CA, CB> {
    fn write(&self, v: &Vec<(A, B)>) -> Option<J> {
        let Pairs(key_a, a, key_b, b) = self;
        let half = |key: &str, j: Option<J>| (key.to_string(), j.unwrap_or(J::Null));
        let pair = |(x, y): &(A, B)| J::Obj(vec![half(key_a, a.write(x)), half(key_b, b.write(y))]);
        Some(J::Arr(v.iter().map(pair).collect()))
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Vec<(A, B)>, ReportError> {
        let Pairs(key_a, a, key_b, b) = self;
        let pair = |(i, pair): (usize, &J)| {
            let x = a.read(pair.get(key_a), &format!("{at}[{i}].{key_a}"))?;
            let y = b.read(pair.get(key_b), &format!("{at}[{i}].{key_b}"))?;
            Ok((x, y))
        };
        items(j, at)?.iter().enumerate().map(pair).collect()
    }
}

/// A list whose key is omitted while it is empty.
pub(crate) struct NonEmpty<C>(pub C);

impl<T, C: Codec<Vec<T>>> Codec<Vec<T>> for NonEmpty<C> {
    fn write(&self, v: &Vec<T>) -> Option<J> {
        (!v.is_empty()).then(|| self.0.write(v)).flatten()
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Vec<T>, ReportError> {
        j.map_or(Ok(Vec::new()), |x| self.0.read(Some(x), at))
    }
    fn leaves(&self, v: &Vec<T>, at: &str, gate: Option<Gate>, out: &mut Vec<Leaf>) {
        self.0.leaves(v, at, gate, out);
    }
}

/// A [`List`] of rows compared row by row, matched by name: a non-empty
/// list contributes its [`Gate::Section`] marker, and each row its own
/// leaves under `<singular>.<row name>.` (`serving.tenant.gold.offered`).
/// The arguments are the singular and the row's name.
pub(crate) struct Named<T>(pub &'static str, pub fn(&T) -> &str);

impl<T: Value> Codec<Vec<T>> for Named<T> {
    fn write(&self, v: &Vec<T>) -> Option<J> {
        List.write(v)
    }
    fn read(&self, j: Option<&J>, at: &str) -> Result<Vec<T>, ReportError> {
        List.read(j, at)
    }
    fn leaves(&self, v: &Vec<T>, at: &str, _gate: Option<Gate>, out: &mut Vec<Leaf>) {
        if v.is_empty() {
            return;
        }
        out.push(marker(at));
        let Named(singular, name) = *self;
        let section = at.rsplit_once('.').map_or("", |(section, _)| section);
        for row in v {
            row.push_leaves(&join(&join(section, singular), name(row)), out);
        }
    }
}

report_struct! {
    /// Per-message-tag traffic totals (mirrors `ygm`'s `TagStats` plus identity).
    pub struct TagReport {
        pub tag: u64 => Val;
        pub name: String => Val;
        pub count: u64 => Val;
        pub bytes: u64 => Val;
        pub remote_count: u64 => Val;
        pub remote_bytes: u64 => Val;
    }
}

report_struct! {
    /// One barrier-to-barrier phase of virtual time.
    pub struct PhaseReport {
        pub index: u64 => Val;
        pub compute_secs: f64 => Val;
        pub comm_secs: f64 => Val;
        pub barrier_secs: f64 => Val;
        pub msgs: u64 => Val;
        pub bytes: u64 => Val;
    }
}

impl From<&PhaseRecord> for PhaseReport {
    fn from(p: &PhaseRecord) -> Self {
        PhaseReport {
            index: p.index,
            compute_secs: p.compute_secs,
            comm_secs: p.comm_secs,
            barrier_secs: p.barrier_secs,
            msgs: p.msgs,
            bytes: p.bytes,
        }
    }
}

report_struct! {
    /// One NN-Descent iteration's convergence sample.
    pub struct ConvergencePoint {
        pub iteration: u64 => Val;
        /// Successful heap updates (the paper's `c` termination counter).
        pub updates: u64 => Val;
    }
}

report_struct! {
    /// Summary statistics of one named histogram.
    pub struct HistReport {
        pub name: String => Val;
        pub count: u64 => Val;
        pub mean: f64 => Val;
        pub min: u64 => Val;
        pub max: u64 => Val;
        pub p50: u64 => Val;
        pub p95: u64 => Val;
        pub p99: u64 => Val;
    }
}

impl HistReport {
    pub fn from_snapshot(name: &str, s: &Histogram) -> Self {
        HistReport {
            name: name.to_string(),
            count: s.count,
            mean: s.mean(),
            min: s.min,
            max: s.max,
            p50: s.p50(),
            p95: s.p95(),
            p99: s.p99(),
        }
    }
}

report_struct! {
    /// A run's injected faults and reliable-delivery work, as the runtime
    /// counts them. Present only when the producing world ran under a fault
    /// plan. Every counter gates exactly: new fault activity in a candidate
    /// is growth from zero.
    pub struct FaultSection {
        /// Seed that replays this run's fault schedule (`--sim-seed`).
        pub sim_seed: u64 => Val;
        /// Fault profile name (`clean` / `lossy` / `stormy` / `custom`).
        pub profile: String => Val;
        /// Frames dropped in transit (each later retransmitted).
        pub dropped: u64 => Val, Rise(0.0);
        /// Extra frame copies injected.
        pub duplicated: u64 => Val, Rise(0.0);
        /// Frames held past their send epoch.
        pub delayed: u64 => Val, Rise(0.0);
        /// Rank-rounds skipped by stall injection.
        pub stalls: u64 => Val, Rise(0.0);
        /// Early flushes forced by jitter.
        pub jittered_flushes: u64 => Val, Rise(0.0);
        /// Frames retransmitted by the reliable-delivery layer.
        pub retransmits: u64 => Val, Rise(0.0);
        /// Received frames discarded as already delivered (dups and
        /// retransmit/ack races).
        pub dedup_discards: u64 => Val, Rise(0.0);
        /// Frames that exhausted the profile's faulty attempts and were
        /// forced through fault-free.
        pub forced_deliveries: u64 => Val, Rise(0.0);
    }
}

impl FaultSection {
    /// Total injected fault events (excludes the recovery-side counters).
    pub fn injected(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.stalls + self.jittered_flushes
    }
}

report_struct! {
    /// Online query-serving SLO telemetry. Produced by the serving engine;
    /// every counter and bucket is deterministic in the serve seed and
    /// independent of the rank count, so the section doubles as the replay
    /// fingerprint of a serving run. Counters of the deterministic control
    /// plane gate exactly (answered / cache-hit shrinkage is the regression
    /// side); latency percentiles get 10 % slack for search-cost tweaks.
    pub struct ServingSection {
        /// Seed that replays this run's workload and every serving decision
        /// (`--serve-seed`).
        pub serve_seed: u64 => Val;
        /// Virtual duration of one serving slot, nanoseconds.
        pub slot_ns: u64 => Val;
        /// Serving slots executed (including the drain tail past the last
        /// arrival).
        pub slots: u64 => Val;
        /// Queries generated by the open-loop arrival process.
        pub offered: u64 => Val, Rise(0.0);
        /// Queries admitted to a frontend queue (offered − shed_overload
        /// − cache_hits, before deadline shedding).
        pub admitted: u64 => Val, Rise(0.0);
        /// Queries answered with search results (excludes cache hits).
        pub answered: u64 => Val, Fall(0.0);
        /// Queries answered straight from the result cache.
        pub cache_hits: u64 => Val, Fall(0.0);
        /// Cache entries evicted by the LRU policy.
        pub cache_evictions: u64 => Val, Rise(0.0);
        /// Queries dropped because their deadline expired while queued.
        pub shed_deadline: u64 => Val, Rise(0.0);
        /// Queries dropped by the queue-depth high watermark.
        pub shed_overload: u64 => Val, Rise(0.0);
        /// Queries answered at a degraded search level (shrunk epsilon/beam).
        pub degraded: u64 => Val, Rise(0.0);
        /// High-water mark of the logical queue depth.
        pub max_queue_depth: u64 => Val, Rise(0.0);
        /// Answered-query latency percentiles, virtual nanoseconds.
        pub p50_ns: u64 => Val, Rise(0.10);
        pub p95_ns: u64 => Val, Rise(0.10);
        pub p99_ns: u64 => Val, Rise(0.10);
        /// Mean answered-query latency, virtual nanoseconds.
        pub mean_latency_ns: f64 => Val;
        /// Exact latency histogram: `(latency_slots, count)` sorted by
        /// latency. Bit-identical across reruns and rank counts.
        pub latency_hist: Vec<(u64, u64)> => BUCKETS;
        /// Client-perceived latency percentiles: measured from each query's
        /// *first* issue slot, so closed-loop shed-and-retry time accumulates.
        /// Equal to the answered percentiles for open loops; the divergence
        /// under saturation is coordinated omission made visible.
        pub client_p50_ns: u64 => Val, Rise(0.10);
        pub client_p99_ns: u64 => Val, Rise(0.10);
        /// Exact client-perceived latency histogram.
        pub client_hist: Vec<(u64, u64)> => BUCKETS;
        /// Per-tenant-class SLO attainment, in declaration (priority) order.
        /// Empty — and omitted from the JSON — when the workload declares no
        /// tenant classes.
        pub tenants: Vec<TenantSloSection> =>
            NonEmpty(Named("tenant", |t: &TenantSloSection| t.name.as_str()));
        /// FNV-1a digest over every answered query's `(query_id, result ids)`
        /// in query-id order — the bit-identity fingerprint of the answers.
        pub result_digest: u64 => Hex;
    }
}

report_struct! {
    /// One tenant class's slice of the serving SLO accounting. Deterministic
    /// in the serve seed and independent of the rank count, like every other
    /// serving field: the admission ladder's counters gate exactly per class,
    /// only the latency percentiles get slack.
    pub struct TenantSloSection {
        /// Class name from the workload spec (e.g. `gold`).
        pub name: String => Val;
        /// Declared traffic share, integer percent.
        pub share_pct: u64 => Val;
        pub offered: u64 => Val, Rise(0.0);
        pub admitted: u64 => Val, Fall(0.0);
        pub answered: u64 => Val, Fall(0.0);
        pub cache_hits: u64 => Val, Fall(0.0);
        pub shed_overload: u64 => Val, Rise(0.0);
        pub shed_deadline: u64 => Val, Rise(0.0);
        pub degraded: u64 => Val, Rise(0.0);
        /// Fraction of offered queries answered (search + cache); 0 when the
        /// class offered nothing.
        pub slo_attainment: f64 => Val, Fall(0.0);
        /// Answered-latency percentiles of this class, virtual nanoseconds.
        pub p50_ns: u64 => Val, Rise(0.10);
        pub p99_ns: u64 => Val, Rise(0.10);
        /// Exact per-class latency histogram `(latency_slots, count)`.
        pub latency_hist: Vec<(u64, u64)> => BUCKETS;
    }
}

report_struct! {
    /// One RNN-Descent inner round's global counters. Every value is
    /// all-reduced and deterministic.
    pub struct RnnRoundReport {
        /// Outer-round index (`0..t1`).
        pub outer: u64 => Val;
        /// Inner-round index within the outer round (`0..t2`).
        pub inner: u64 => Val;
        /// Flagged pairs checked this round == distance evaluations.
        pub pairs: u64 => Val;
        /// Edges removed by the occlusion rule.
        pub pruned: u64 => Val;
        /// Redirected edges that survived the canonical apply step.
        pub added: u64 => Val;
    }
}

report_struct! {
    /// RNN-Descent optimization telemetry: the T1/T2/K0/R knobs, per-round
    /// counters, reverse-edge merge sizes, and the pass's distance
    /// evaluations. Bit-identical across reruns and rank counts, so every
    /// aggregate gates exactly: any drift means the occlusion rule or the
    /// round schedule changed.
    pub struct RnnSection {
        /// Outer rounds (`T1`).
        pub t1: u64 => Val;
        /// Max inner rounds per outer round (`T2`).
        pub t2: u64 => Val;
        /// Final out-degree cap (`K0`).
        pub k0: u64 => Val;
        /// Working-row capacity (`R >= K0`).
        pub r: u64 => Val;
        /// Inner rounds actually executed (early exit on convergence).
        pub rounds: Vec<RnnRoundReport> => List => [
            "rounds" = |rounds| rounds.len() as f64, Rise(0.0);
            "pruned_total" = |rounds| sum(rounds, |r| r.pruned), Rise(0.0);
            "added_total" = |rounds| sum(rounds, |r| r.added), Rise(0.0)
        ];
        /// Surviving inserts of each reverse-edge exchange; index 0 is the
        /// seed merge, later entries the outer-round boundaries.
        pub reverse_added: Vec<u64> => List => ["reverse_added_total" = |added| sum(added, |&a| a), Rise(0.0)];
        /// Distance evaluations of the RNN pass alone.
        pub dist_evals: u64 => Val, Rise(0.0);
        /// Zero-in-degree vertices reconnected by the post-cap connectivity
        /// repair.
        pub repaired: u64 => Val, Rise(0.0);
    }
}

report_struct! {
    /// One sampled per-query lifecycle record. Every field is a pure function
    /// of the serve seed and parameters — slot-clock times, replicated
    /// verdicts, and search-cost counters — so records are bit-identical
    /// across reruns *and* rank counts. (The executing home rank is
    /// intentionally absent here: it is `pool_id % n_ranks`, which depends on
    /// the rank count; the JSONL slow-query log derives it per run.)
    pub struct QueryExemplar {
        /// Arrival index of the query within the workload.
        pub idx: u64 => Val;
        /// Query-pool id (the vector served).
        pub pool_id: u64 => Val;
        /// Tenant class index (0 when the workload declares no classes).
        pub tenant: u64 => Val;
        /// Final verdict: `answered` / `cache_hit` / `shed_overload` /
        /// `shed_deadline`.
        pub verdict: String => Val;
        /// Why the sampler retained this record: `|`-joined subset of
        /// `slow`, `shed`, `degraded`, `deadline_miss`.
        pub why: String => Val;
        /// Degrade level the query was answered at (0 = full quality).
        pub degrade_level: u64 => Val;
        /// FNV-1a hash of the quantized cache key.
        pub cache_key_hash: u64 => Hex;
        /// Slot the query arrived in / slot its lifecycle ended in.
        pub arrived_slot: u64 => Val;
        pub done_slot: u64 => Val;
        /// Per-stage virtual-time breakdown in slots. The invariant the CI
        /// asserts: these five always sum exactly to `latency_slots`.
        pub admission_slots: u64 => Val;
        pub batch_wait_slots: u64 => Val;
        pub dispatch_slots: u64 => Val;
        pub search_slots: u64 => Val;
        pub response_slots: u64 => Val;
        /// End-to-end latency in slots (0 for cache hits and overload sheds).
        pub latency_slots: u64 => Val;
        /// Search cost: beam expansions, distance evaluations, greedy rounds
        /// (all zero for cache hits and shed queries).
        pub expansions: u64 => Val;
        pub dist_evals: u64 => Val;
        pub rounds: u64 => Val;
        /// Whether the query missed its deadline (shed stale, or answered past
        /// `deadline_slots` due to fault penalties).
        pub deadline_miss: bool => Val;
    }
}

impl QueryExemplar {
    /// Sum of the five per-stage slot counts; must equal
    /// [`Self::latency_slots`] (asserted by the producer and CI).
    pub fn stage_sum(&self) -> u64 {
        self.admission_slots
            + self.batch_wait_slots
            + self.dispatch_slots
            + self.search_slots
            + self.response_slots
    }
}

report_struct! {
    /// Per-query forensics from the serving layer: stage-latency histograms
    /// over every offered query, the tail sampler's exemplar records, sampler
    /// counters, and a digest pinning the whole section. Bit-identical across
    /// reruns and rank counts (the sampler is a pure PRF of the serve seed),
    /// so the sampler counters gate exactly in both directions — fewer
    /// retained records means the sampler lost coverage. Bit-identity of the
    /// records themselves is the diff's digest hard check, not a threshold.
    pub struct QueryForensicsSection {
        /// Tail-sampling window length in slots.
        pub window_slots: u64 => Val, Rise(0.0);
        /// Slowest-N retained per window.
        pub slow_n: u64 => Val, Rise(0.0);
        /// Lifecycle records considered (== offered queries).
        pub considered: u64 => Val, Fall(0.0);
        /// Records retained by the sampler (slow ∪ exemplar classes); a full
        /// report lists them in `exemplars`.
        pub retained: u64 => Val, Fall(0.0);
        /// Records retained for being among their window's slowest-N.
        pub retained_slow: u64 => Val, Fall(0.0);
        /// Records retained unconditionally (shed / degraded / deadline-miss).
        pub retained_exemplar: u64 => Val, Fall(0.0);
        /// Per-stage latency histograms over *all* queries (not just sampled):
        /// `(stage name, [(slots, count)...])`, buckets sorted by slots.
        pub stage_hists: Vec<(String, Vec<(u64, u64)>)> => Pairs("stage", Val, "buckets", BUCKETS);
        /// Sampled records, sorted by arrival index.
        pub exemplars: Vec<QueryExemplar> => List;
        /// FNV-1a digest over counters, histograms, and every exemplar field —
        /// the bit-identity fingerprint of the section.
        pub digest: u64 => Hex;
    }
}

report_struct! {
    /// One namespace's vector-DB counters: how many points the collection
    /// holds, how many are masked by tombstones, how many were folded into
    /// the dead set by compaction, and the online-mutation totals from the
    /// serving run that produced this report.
    pub struct VdbNamespaceSection {
        /// Namespace (collection) name.
        pub name: String => Val;
        /// Total point slots ever allocated (live + tombstoned + dead).
        pub points: u64 => Val;
        /// Points visible to search (`points - tombstones - dead`).
        pub live: u64 => Val;
        /// Deleted but not yet compacted — masked out of every result.
        pub tombstones: u64 => Val;
        /// Deleted and folded away by compaction.
        pub dead: u64 => Val;
        /// Versioned graph epoch; bumped by ingest and compaction, which
        /// invalidates result-cache entries keyed on the previous epoch.
        pub epoch: u64 => Val;
        /// Online inserts applied during the serving run.
        pub inserts: u64 => Val;
        /// Online deletes (tombstones placed) during the serving run.
        pub deletes: u64 => Val;
        /// Background compaction passes executed during the serving run.
        pub compactions: u64 => Val;
    }
}

report_struct! {
    /// Vector-DB product-layer telemetry: per-namespace counters plus
    /// filtered-query accounting. `None` for runs without a namespace.
    /// Bit-identical across reruns and rank counts (mutation and compaction
    /// schedules are pure PRFs of the serve seed), so every counter gates
    /// exactly: shrinking live points / filtered coverage is the regression
    /// side, growth of tombstone debt, cache suppression or mutation counts
    /// is drift from the pinned schedule.
    pub struct VdbSection {
        // Compared summed over namespaces; the epoch as the maximum.
        /// Per-namespace counters, sorted by name.
        pub namespaces: Vec<VdbNamespaceSection> => List => [
            "points" = |ns| sum(ns, |n| n.points), Rise(0.0);
            "live" = |ns| sum(ns, |n| n.live), Fall(0.0);
            "tombstones" = |ns| sum(ns, |n| n.tombstones), Rise(0.0);
            "dead" = |ns| sum(ns, |n| n.dead), Rise(0.0);
            "epoch" = |ns| ns.iter().map(|n| n.epoch).max().unwrap_or(0) as f64, Rise(0.0);
            "inserts" = |ns| sum(ns, |n| n.inserts), Rise(0.0);
            "deletes" = |ns| sum(ns, |n| n.deletes), Rise(0.0);
            "compactions" = |ns| sum(ns, |n| n.compactions), Rise(0.0)
        ];
        /// Dispatched queries that carried a metadata predicate.
        pub filtered_queries: u64 => Val, Fall(0.0);
        /// Result ids suppressed from cache hits because a tombstone landed
        /// after the entry was cached (deletes do not bump the epoch).
        pub cache_suppressed_ids: u64 => Val, Rise(0.0);
        /// Decile histogram of filtered-query selectivity: `hist[d]` counts
        /// dispatched filtered queries whose mask allowed `[d*10%, (d+1)*10%)`
        /// of the collection (the last bucket is closed at 100%).
        pub selectivity_hist: Vec<(u64, u64)> => Pairs("decile", Val, "count", Val);
    }
}

report_struct! {
    /// One tag's rank×rank traffic counts (mirrors `ygm`'s traffic matrix).
    ///
    /// `counts[src * n_ranks + dest]` / `bytes[...]` hold message and byte
    /// totals for this tag on the (src → dest) edge, *including* the diagonal
    /// (rank-local sends), so each tag's matrix sums to the corresponding
    /// [`TagReport::count`] / [`TagReport::bytes`].
    pub struct MatrixTagReport {
        pub tag: u64 => Val;
        pub name: String => Val;
        /// Row-major `n_ranks × n_ranks` message counts.
        pub counts: Vec<u64> => List;
        /// Row-major `n_ranks × n_ranks` byte totals.
        pub bytes: Vec<u64> => List;
    }
}

report_struct! {
    /// The full rank×rank×tag traffic matrix of a run.
    pub struct MatrixSection {
        pub n_ranks: u64 => Val;
        /// Per-tag matrices, sorted by tag; tags with no traffic are omitted.
        pub tags: Vec<MatrixTagReport> => List;
    }
}

impl MatrixSection {
    /// Message counts summed over tags, row-major `n_ranks × n_ranks`.
    pub fn total_counts(&self) -> Vec<u64> {
        self.sum_over_tags(|t| &t.counts)
    }

    /// Byte totals summed over tags, row-major `n_ranks × n_ranks`.
    pub fn total_bytes(&self) -> Vec<u64> {
        self.sum_over_tags(|t| &t.bytes)
    }

    /// `n_ranks²`, unless that overflows.
    fn cells(&self) -> Option<usize> {
        let cells = self.n_ranks.checked_mul(self.n_ranks)?;
        usize::try_from(cells).ok()
    }

    fn sum_over_tags(&self, f: impl Fn(&MatrixTagReport) -> &Vec<u64>) -> Vec<u64> {
        let mut out = vec![0u64; self.cells().expect("n_ranks² overflows")];
        for t in &self.tags {
            for (acc, v) in out.iter_mut().zip(f(t)) {
                *acc += v;
            }
        }
        out
    }

    /// A parsed matrix holds `n_ranks²` cells per tag — a short row is an
    /// error, not a silently truncated matrix.
    fn check(&self) -> Result<(), ReportError> {
        let Some(cells) = self.cells() else {
            return Err(bad("matrix.n_ranks", "a rank count whose square fits"));
        };
        let short = |t: &MatrixTagReport| t.counts.len() != cells || t.bytes.len() != cells;
        match self.tags.iter().position(short) {
            Some(i) => Err(bad(&format!("matrix.tags[{i}]"), "n_ranks x n_ranks cells")),
            None => Ok(()),
        }
    }
}

report_struct! {
    /// The consolidated per-run report; the document opens with
    /// `schema_version`, then these fields in this order. Counters of a
    /// deterministic simulation get tight gates; virtual times a little
    /// slack (cost-model tweaks shift them slightly); recall its own quality
    /// gate; the wall clock depends on the host and a free-form metric's
    /// direction is unknown, so both are informational.
    pub struct RunReport {
        /// Producing binary or driver (e.g. `dnnd-construct`).
        pub binary: String => Val;
        /// Free-form string parameters (dataset path, metric, seed, ...).
        pub params: Vec<(String, String)> => Map;
        pub n_ranks: u64 => Val;
        /// Descent iterations executed (0 for pure query runs).
        pub iterations: u64 => Val, Rise(0.0);
        pub distance_evals: u64 => Val, Rise(0.05);
        /// Virtual (simulated cluster) time, seconds.
        pub sim_secs: f64 => Val, Rise(0.10);
        /// Real wall-clock time, seconds.
        pub wall_secs: f64 => Val, Info;
        pub compute_secs: f64 => in "breakdown": Val, Rise(0.10);
        pub comm_secs: f64 => in "breakdown": Val, Rise(0.10);
        pub barrier_secs: f64 => in "breakdown": Val, Rise(0.10);
        /// Per-tag traffic, sorted by tag.
        pub tags: Vec<TagReport> => List;
        /// Traffic totals over all tags.
        pub total_count: u64 => in "total" as "count": Val, Rise(0.05);
        pub total_bytes: u64 => in "total" as "bytes": Val, Rise(0.05);
        pub total_remote_count: u64 => in "total" as "remote_count": Val, Rise(0.05);
        pub total_remote_bytes: u64 => in "total" as "remote_bytes": Val, Rise(0.05);
        pub phases: Vec<PhaseReport> => List;
        pub convergence: Vec<ConvergencePoint> => List;
        /// Recall@k against ground truth, when measured.
        pub recall: Option<f64> => Val, Fall(0.02);
        pub histograms: Vec<HistReport> => List;
        /// Free-form numeric metrics (e.g. `queries_per_sec`).
        pub extra: Vec<(String, f64)> => Map, Info;
        /// Per-rank gauge series sampled on the virtual clock; empty when the
        /// run was not traced.
        pub series: Vec<SeriesSnapshot> => List;
        /// Rank×rank×tag traffic matrix; `None` when the producer did not
        /// record one (single-report tools).
        pub matrix: Option<MatrixSection> => Opt;
        /// Online-serving SLO telemetry; `None` for non-serving runs.
        pub serving: Option<ServingSection> => Opt;
        /// Critical-path analysis over the happens-before DAG; `None` for
        /// runs without phase records.
        pub critical_path: Option<CriticalPathSection> => Opt;
        /// RNN-Descent optimization counters; `None` for runs that did not
        /// use the RNN optimization mode.
        pub rnn: Option<RnnSection> => Opt;
        /// Per-query forensics from the serving layer; `None` for non-serving
        /// runs.
        pub query_forensics: Option<QueryForensicsSection> => Opt;
        /// Vector-DB product-layer counters; `None` for runs without a
        /// namespace.
        pub vdb: Option<VdbSection> => Opt;
        /// Fault-injection counters; `None` for fault-free runs.
        pub faults: Option<FaultSection> => Opt;
    }
}

const VERSION_KEY: &str = "schema_version";

impl RunReport {
    pub fn new(binary: impl Into<String>) -> Self {
        RunReport {
            binary: binary.into(),
            ..Default::default()
        }
    }

    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.extra.push((key.into(), value));
        self
    }

    /// Append histogram summaries from tracer snapshots.
    pub fn add_histograms(&mut self, snaps: &[(String, Histogram)]) -> &mut Self {
        for (name, s) in snaps {
            self.histograms.push(HistReport::from_snapshot(name, s));
        }
        self
    }

    /// The report without its per-event lists — `phases`, `series`, the
    /// critical path's `phase_attribution`, the forensics `exemplars` —
    /// which is what a committed baseline carries. Every total, counter
    /// and digest those lists were folded into stays, so the gate reads
    /// the same rows; an empty list is a valid document, not a second
    /// format.
    pub fn summary(&self) -> RunReport {
        let mut summary = self.clone();
        summary.phases.clear();
        summary.series.clear();
        if let Some(c) = &mut summary.critical_path {
            c.phase_attribution.clear();
        }
        if let Some(q) = &mut summary.query_forensics {
            q.exemplars.clear();
        }
        summary
    }

    pub fn to_json(&self) -> J {
        let mut doc = Value::to_json(self);
        if let J::Obj(fields) = &mut doc {
            fields.insert(0, (VERSION_KEY.into(), J::uint(SCHEMA_VERSION)));
        }
        doc
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Rebuild a report from its JSON form (inverse of [`Self::to_json`]).
    /// Strict: a document of another schema version, a missing key and a
    /// value of the wrong type are all errors — nothing is defaulted.
    pub fn from_json(v: &J) -> Result<RunReport, ReportError> {
        let version: u64 = Val.read(v.get(VERSION_KEY), VERSION_KEY)?;
        if version != SCHEMA_VERSION {
            return Err(ReportError::Schema(version));
        }
        let report: RunReport = Value::from_json(v, "")?;
        if let Some(m) = &report.matrix {
            m.check()?;
        }
        Ok(report)
    }

    /// Parse a report from JSON text.
    pub fn parse(text: &str) -> Result<RunReport, ReportError> {
        RunReport::from_json(&J::parse(text).map_err(ReportError::Json)?)
    }

    /// Every value `dnnd-report-diff` compares, in document order, with
    /// its gate; plus a [`Gate::Section`] marker per optional part present.
    pub fn leaves(&self) -> Vec<Leaf> {
        let mut out = Vec::new();
        self.push_leaves("", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf<'a>(leaves: &'a [Leaf], path: &str) -> Option<&'a Leaf> {
        leaves.iter().find(|l| l.path == path)
    }

    #[test]
    fn grouped_fields_share_one_nested_object() {
        let mut r = RunReport::new("t");
        r.comm_secs = 0.5;
        r.total_bytes = 7;
        let v = r.to_json();
        let J::Obj(fields) = &v else { unreachable!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.iter().filter(|k| **k == "breakdown").count(), 1);
        assert_eq!(keys.iter().filter(|k| **k == "total").count(), 1);
        let comm = v.get("breakdown").and_then(|b| b.get("comm_secs"));
        assert_eq!(comm.and_then(J::as_f64), Some(0.5));
        assert_eq!(
            v.get("total")
                .and_then(|t| t.get("bytes"))
                .and_then(J::as_u64),
            Some(7)
        );
        assert_eq!(RunReport::from_json(&v).unwrap(), r);
    }

    #[test]
    fn errors_name_the_path_and_the_expected_type() {
        let mut r = RunReport::new("t");
        r.tags = vec![TagReport::default(), TagReport::default()];
        r.tags[1].remote_bytes = 4242;
        r.metric("qps", 1.0);
        let text = r.to_json_string();
        let err = |from: &str, to: &str| {
            assert!(text.contains(from), "{from}");
            RunReport::parse(&text.replacen(from, to, 1)).unwrap_err()
        };
        assert_eq!(
            err("\"qps\": 1.0", "\"qps\": \"fast\""),
            bad("extra.qps", "a number")
        );
        assert_eq!(
            err("\"breakdown\": {", "\"breakdown\": 3, \"was\": {"),
            bad("breakdown", "an object")
        );
        assert_eq!(
            err("\"remote_bytes\": 4242", "\"remote_bytes\": -1"),
            bad("tags[1].remote_bytes", "a non-negative integer")
        );
        assert_eq!(
            RunReport::parse("[").unwrap_err().to_string(),
            J::parse("[").unwrap_err()
        );
        assert_eq!(
            RunReport::parse("[]").unwrap_err(),
            bad("schema_version", "a value (the key is missing)")
        );
    }

    #[test]
    fn leaves_follow_the_tables_and_mark_optional_parts() {
        let mut r = RunReport::new("t");
        r.metric("qps", 2.5);
        let bare = r.leaves();
        assert!(bare.iter().all(|l| l.gate != Gate::Section));
        assert!(leaf(&bare, "recall").is_none());
        assert_eq!(leaf(&bare, "total_count").unwrap().gate, Rise(0.05));
        assert_eq!(leaf(&bare, "extra.qps").unwrap().gate, Info);
        assert!(
            leaf(&bare, "n_ranks").is_none(),
            "ungated fields are not compared"
        );

        r.recall = Some(0.5);
        r.serving = Some(ServingSection {
            tenants: vec![TenantSloSection {
                name: "gold".into(),
                answered: 9,
                ..Default::default()
            }],
            ..Default::default()
        });
        r.rnn = Some(RnnSection {
            rounds: vec![RnnRoundReport::default(); 3],
            reverse_added: vec![4, 5],
            ..Default::default()
        });
        let leaves = r.leaves();
        assert_eq!(leaf(&leaves, "recall").unwrap().value, 0.5);
        assert_eq!(leaf(&leaves, "serving").unwrap().gate, Gate::Section);
        assert_eq!(
            leaf(&leaves, "serving.tenants").unwrap().gate,
            Gate::Section
        );
        let answered = leaf(&leaves, "serving.tenant.gold.answered").unwrap();
        assert_eq!((answered.value, answered.gate), (9.0, Fall(0.0)));
        assert_eq!(leaf(&leaves, "rnn.rounds").unwrap().value, 3.0);
        assert_eq!(leaf(&leaves, "rnn.reverse_added_total").unwrap().value, 9.0);
        assert!(leaf(&leaves, "serving.result_digest").is_none());
    }

    #[test]
    fn summary_drops_the_per_event_lists_and_nothing_else() {
        let mut r = RunReport::new("t");
        r.phases = vec![PhaseReport::default(); 4];
        r.series = vec![SeriesSnapshot::default()];
        r.convergence = vec![ConvergencePoint::default()];
        r.critical_path = Some(CriticalPathSection {
            phases: 4,
            critical_path_ns: 10,
            phase_attribution: vec![Default::default(); 4],
            ..Default::default()
        });
        r.query_forensics = Some(QueryForensicsSection {
            retained: 1,
            exemplars: vec![QueryExemplar::default()],
            digest: 0xAB,
            ..Default::default()
        });
        let s = r.summary();
        assert!(s.phases.is_empty() && s.series.is_empty());
        assert!(s
            .critical_path
            .as_ref()
            .unwrap()
            .phase_attribution
            .is_empty());
        assert!(s.query_forensics.as_ref().unwrap().exemplars.is_empty());
        assert_eq!(s.leaves(), r.leaves(), "the gate reads the same rows");
        assert_eq!(s.convergence, r.convergence);
        assert_eq!(RunReport::parse(&s.to_json_string()).unwrap(), s);
    }

    #[test]
    fn matrix_totals_sum_over_tags() {
        let m = MatrixSection {
            n_ranks: 2,
            tags: vec![
                MatrixTagReport {
                    counts: vec![1, 2, 3, 4],
                    bytes: vec![10, 20, 30, 40],
                    ..Default::default()
                },
                MatrixTagReport {
                    counts: vec![1, 1, 1, 1],
                    bytes: vec![0, 0, 0, 5],
                    ..Default::default()
                },
            ],
        };
        assert_eq!(m.total_counts(), vec![2, 3, 4, 5]);
        assert_eq!(m.total_bytes(), vec![10, 20, 30, 45]);
        assert!(m.check().is_ok());
    }

    #[test]
    fn histogram_summary_fields() {
        let mut h = crate::hist::Histogram::new();
        for i in 1..=100 {
            h.record(i);
        }
        let mut r = RunReport::new("t");
        r.add_histograms(&[("flush_bytes".into(), h)]);
        let h = &r.histograms[0];
        assert_eq!((h.count, h.min, h.max), (100, 1, 100));
        assert!(h.p50 >= 45 && h.p50 <= 50);
    }
}
