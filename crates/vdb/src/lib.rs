//! # vdb — the vector-database product layer
//!
//! Turns the DNND pipeline's frozen anonymous snapshot into namespaced,
//! mutable, metadata-aware **collections** — the product surface the
//! source paper's Section 7 anticipates ("new data points may be
//! added/deleted, followed by a short graph refinement phase"):
//!
//! * [`Collection`] — a named namespace persisted through
//!   [`metall::Store`]: point vectors, k-NNG adjacency, one typed
//!   [`MetaRecord`] per point, tombstone/dead sets, and a graph epoch;
//! * [`Predicate`] — a small AND-of-terms filter language (`field == v`,
//!   `field in {…}`, `field in [lo .. hi]`) with a canonical
//!   `Display`↔`parse` round trip and an FNV-1a hash of the canonical
//!   form for cache keying;
//! * filter-pushed search — [`Collection::compile_mask`] compiles a
//!   predicate plus the live set into a [`dnnd::IdMask`] that the
//!   distributed query engine consults *inside* the beam expansion
//!   (best-heap admission at the home rank), never as a post-filter;
//! * online mutation — [`Collection::ingest`] appends at the tail via
//!   `nnd::refine` (the `examples/incremental_updates.rs` path),
//!   [`Collection::delete`] tombstones ids out of every mask immediately,
//!   and [`Collection::compact`] deterministically rewires the adjacency
//!   around the dead vertices without renumbering ids and refines the
//!   rows that lost an edge, bumping the epoch that invalidates the
//!   serving layer's cached results. Mutations never resurrect: a
//!   compacted-dead row stays empty and no row links to it again.
//!
//! The serving integration (mutations in the slot loop, PRF-scheduled
//! compaction, epoch-keyed cache) lives in `crates/serve`; the admin
//! surface is the `dnnd-vdb` CLI.

#![forbid(unsafe_code)]

pub mod collection;
pub mod meta;
pub mod predicate;

pub use collection::{valid_namespace, Collection, CollectionStat, CompactReport};
pub use meta::MetaRecord;
pub use predicate::{valid_atom, valid_field, Predicate, Term, Value};
