//! Tier-1 run of the `serve` workload-DSL property suite: `cargo test` at
//! the root builds only the root package's tests, so the suite that holds
//! the spec grammar's `Display` / `FromStr` round trip, the arrival plan's
//! purity in its inputs and the Zipfian pool draws' exact counts is
//! included here by path. One copy of the properties, run under both
//! `-p serve` and the root.

#[path = "../crates/serve/tests/workload_dsl.rs"]
mod workload_dsl;
