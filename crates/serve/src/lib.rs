//! Distributed online query serving over the partitioned k-NN graph.
//!
//! Construction (the `dnnd` crate) answers "how do we *build* the
//! neighborhood graph at scale"; this crate answers "how do we *serve* it
//! online": queries arrive continuously at some offered load, each one has
//! a latency budget, and the fleet must keep its SLOs under overload by
//! degrading gracefully instead of collapsing.
//!
//! The layer is built from four deterministic pieces:
//!
//! - [`workload::ArrivalPlan`] — an open-loop Poisson workload stamped on
//!   the virtual clock, a pure PRF of one serve seed (the same
//!   construction `ygm::fault` uses for its fault plans);
//! - [`params::ServeParams`] — one validated value holding the workload
//!   shape, micro-batching policy, admission-control ladder, and cache
//!   configuration;
//! - [`cache::ResultCache`] — an exact-LRU result cache keyed on
//!   quantized query vectors;
//! - [`engine::serve_on_comm`] — the per-slot frontend loop: adaptive
//!   micro-batching (flush at batch size B or at a virtual-time age,
//!   whichever first), deadline and watermark shedding, a degrade ladder
//!   that trades per-query search quality for drain rate, and SLO
//!   telemetry into the run report (`serving` section).
//!
//! A query leaves the loop by one of four verdicts — cache hit, overload
//! shed, deadline shed, answered — and each verdict is settled in one
//! step: it is counted into its tenant class's row (one implicit class
//! when the workload declares none) and the latency histograms, recorded
//! as one [`forensics`] row, its trace span is closed and its client
//! learns of it. The class rows are the only counters; the run's totals
//! are their sum. [`ServeOutcome::forensics`] is the report's own
//! `query_forensics` section, and [`forensics::slow_query_log`] writes its
//! exemplars with the report's codec. A caller assigns the sections to its
//! report: `stats.to_section()`, `outcome.forensics`, and — for a
//! namespaced run — `stats.vdb`'s.
//!
//! ## Determinism contract
//!
//! For a fixed `(serve seed, ServeParams, base set, graph, query pool)`,
//! a serving run is **bit-identical** across reruns *and across rank
//! counts*: the admitted/shed/cache-hit sets, every latency measurement,
//! and the result digest are all reproduced exactly. Two mechanisms make
//! this hold:
//!
//! 1. **Replicated control plane.** Every rank computes the same
//!    decisions from the same seed over the same global logical queue;
//!    only search execution is distributed, and its results are gathered
//!    back to all ranks. The engine asserts cross-rank equality of a
//!    statistics fingerprint at the end of every run.
//! 2. **The slot clock.** SLO-visible quantities are measured in serving
//!    slots (fixed spans of virtual time pinned by [`ygm::SlotTimer`]),
//!    never in raw virtual nanoseconds, which legitimately differ across
//!    rank counts.
//!
//! Injected transport faults (`ygm::fault`) do not perturb the decision
//! sequence; they surface purely as capped whole-slot latency penalties
//! on the affected dispatch windows.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod forensics;
pub mod params;
pub mod workload;

pub use cache::{QuantizeKey, ResultCache};
pub use engine::{
    run_serve, run_serve_vdb, serve_on_comm, serve_vdb_on_comm, ServeOutcome, ServingStats,
    TenantStats, VdbServeConfig, VdbServeStats,
};
pub use forensics::slow_query_log;
pub use params::{ServeParams, SLOT_NS};
pub use workload::{
    zipf_cdf, Arrival, ArrivalPlan, ArrivalProcess, BurstWindow, Diurnal, FilterTraffic,
    MutateTraffic, PoolDist, PoolPicker, TenantClass, WorkloadSpec, FILTER_BUCKETS,
};
