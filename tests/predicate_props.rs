//! Tier-1 run of the `vdb` predicate property suite: `cargo test` at the
//! root builds only the root package's tests, so the suite that holds the
//! filter language to its canonical form — `parse(display(p)) == p`, and a
//! cache hash that is a function of that string — is included here by
//! path. One copy of the properties, run under both `-p vdb` and the root.

#[path = "../crates/vdb/tests/predicate_props.rs"]
mod predicate_props;
