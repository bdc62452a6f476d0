//! Observability for the DNND simulation: span tracing, histogram metrics,
//! Chrome-trace export, and unified JSON run reports.
//!
//! The crate is dependency-free and knows nothing about `ygm` or the engine;
//! callers push events keyed to *both* clocks (wall time measured here,
//! virtual simulation time passed in) and record a run in the report's own
//! types — the runtime fills [`FaultSection`], [`MatrixSection`] and
//! [`PhaseRecord`]s, the RNN pass [`RnnRoundReport`]s — which
//! [`report::RunReport`] carries as they are.
//!
//! Hot-path design: each simulated rank runs on its own OS thread and what
//! it records is its own — one slot of the [`Tracer`] per rank holding a
//! plain event ring ([`ring::Ring`]), plain-integer histograms and that
//! rank's gauge series, behind a lock no other rank takes, so a recording
//! call is an uncontended lock and a write and no rank touches another's
//! cache lines. The slots are added up only at export time.
//!
//! Zero-cost when disabled: instrumented code holds an
//! `Option<Arc<Tracer>>` (or `Option<&Tracer>`) and skips all of this with
//! one branch when tracing is off.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod critical_path;
pub mod dashboard;
pub mod hist;
pub mod json;
pub mod report;
pub mod ring;
pub mod timeseries;
pub mod tracer;

pub use critical_path::{CriticalPathSection, PhaseAttribution, PhaseRecord};
pub use hist::Histogram;
pub use json::JsonValue;
pub use report::{
    ConvergencePoint, FaultSection, MatrixSection, MatrixTagReport, PhaseReport, QueryExemplar,
    QueryForensicsSection, RnnRoundReport, RnnSection, RunReport, ServingSection, TagReport,
    TenantSloSection, VdbNamespaceSection, VdbSection,
};
pub use ring::{EventKind, TraceEvent};
pub use timeseries::{SeriesPoint, SeriesSnapshot};
pub use tracer::Tracer;
