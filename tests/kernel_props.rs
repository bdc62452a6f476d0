//! Tier-1 run of the distance-kernel property suite: `cargo test` at the
//! root builds only the root package's tests, so the suite that pins every
//! batched kernel path to the scalar reference is included here by path —
//! one copy of the properties, run under both `-p dataset` and the root.

#[path = "../crates/dataset/tests/kernel_props.rs"]
mod kernel_props;
