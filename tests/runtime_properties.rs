//! Tier-1 run of the `ygm` runtime property suite: `cargo test` at the root
//! builds only the root package's tests, so the suite that guards the rank
//! rendezvous — message conservation, the accounting equivalence battery,
//! panic propagation out of barriers and collectives — is included here by
//! path. One copy of the properties, run under both `-p ygm` and the root.

#[path = "../crates/ygm/tests/runtime_properties.rs"]
mod runtime_properties;
