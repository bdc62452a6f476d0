//! # hnsw — the Hnswlib stand-in baseline
//!
//! A from-scratch Rust implementation of Hierarchical Navigable Small World
//! graphs (Malkov & Yashunin, TPAMI 2018). The DNND paper compares its
//! distributed NN-Descent against Hnswlib (Section 5.3.2) because both are
//! graph-based ANN indices supporting arbitrary metrics; this crate plays
//! that role in the reproduced Figures 2 and 3 and the Table 2 parameter
//! survey.
//!
//! ```
//! use dataset::{synth, L2};
//! use hnsw::{HnswIndex, HnswParams};
//!
//! let set = synth::uniform(500, 8, 7);
//! let index = HnswIndex::build(&set, L2, HnswParams::new(8, 50));
//! let hits = index.search(set.point(3), 5, 40);
//! assert_eq!(hits[0].0, 3); // a member query finds itself first
//! ```

#![forbid(unsafe_code)]

pub mod index;

pub use index::{HnswIndex, HnswParams};
