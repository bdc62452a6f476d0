//! Tier-1 run of two `nnd` property suites: `cargo test` at the root builds
//! only the root package's tests, so the suites that guard the orders every
//! neighbor list is kept in — the bounded heap's kept set under arbitrary
//! insertion orders, and RNN-Descent's canonical `(distance, id)` rows —
//! are included here by path. One copy of the properties, run under both
//! `-p nnd` and the root.

#[path = "../crates/nnd/tests/heap_properties.rs"]
mod heap_properties;
#[path = "../crates/nnd/tests/rnn_properties.rs"]
mod rnn_properties;
