//! Tier-1 run of the `ygm` codec property suite: `cargo test` at the root
//! builds only the root package's tests, so the suite that holds every
//! `Encode` / `Wire` implementation to its exact `wire_size`, the slice codec
//! to the per-element format and a tuple of borrows to the owned struct is
//! included here by path. It takes the byte buffers from `ygm::codec`, so the
//! root manifest needs no `bytes`. One copy of the properties, run under both
//! `-p ygm` and the root.

#[path = "../crates/ygm/tests/codec_properties.rs"]
mod codec_properties;
