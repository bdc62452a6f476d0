//! # dnnd-repro — facade crate
//!
//! Reproduction of *"Towards A Massive-Scale Distributed Neighborhood Graph
//! Construction"* (Iwabuchi, Steil, Priest, Pearce, Sanders — SC-W 2023).
//!
//! This root crate re-exports the workspace members and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`). See
//! `README.md` for the tour, `DESIGN.md` for the system inventory and the
//! simulation substitutions, and `EXPERIMENTS.md` for paper-vs-measured
//! results for every table and figure.
//!
//! * [`ygm`] — simulated asynchronous communication runtime (YGM stand-in)
//! * [`metall`] — persistent named-object datastore (Metall stand-in)
//! * [`dataset`] — points, metrics, synthetic Table 1 presets, ground truth
//! * [`nnd`] — shared-memory NN-Descent, k-NNG type, ANN search
//! * [`hnsw`] — HNSW baseline (Hnswlib stand-in)
//! * [`dnnd`] — the paper's contribution: distributed NN-Descent

#![forbid(unsafe_code)]

pub mod cli;

pub use dataset;
pub use dnnd;
pub use hnsw;
pub use metall;
pub use nnd;
pub use ygm;
