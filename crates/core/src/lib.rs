//! # dnnd — Distributed NN-Descent
//!
//! The primary contribution of *"Towards A Massive-Scale Distributed
//! Neighborhood Graph Construction"* (Iwabuchi et al., SC-W 2023),
//! reproduced over the simulated [`ygm`] runtime:
//!
//! * hash-partitioned vertices and feature vectors ([`partition`]),
//! * asynchronous distributed k-NNG initialization,
//! * the reverse-neighbor exchange with destination shuffling (paper §4.2),
//! * neighbor checks under the unoptimized (Type 1 + Type 2) or optimized
//!   (Type 1 + Type 2+ + Type 3) protocol with the three communication-
//!   saving techniques (§4.3),
//! * globally batched communication separated by barriers (§4.4),
//! * the distributed graph optimization: reverse-edge merge and degree
//!   pruning (§4.5),
//! * distributed RNN-Descent over a built graph ([`rnn_optimize_distributed`],
//!   the `dnnd-optimize --opt-mode rnn` pass),
//! * a fully distributed query engine over the partitioned graph
//!   ([`query`], the "massive-scale NNG framework" step the paper's
//!   conclusion anticipates).
//!
//! The graph leaves [`build`] assembled; executables hand it to one another
//! through a [`metall`] store with `nnd::KnnGraph::save` / `load` (§5.1.3).
//!
//! ```
//! use dataset::{synth, L2};
//! use dnnd::{build, DnndConfig};
//! use std::sync::Arc;
//! use ygm::World;
//!
//! let set = Arc::new(synth::uniform(300, 8, 42));
//! let world = World::new(4); // four simulated ranks
//! let out = build(&world, &set, &L2, DnndConfig::new(5).graph_opt(1.5));
//! assert_eq!(out.graph.len(), 300);
//! assert!(out.report.iterations >= 1);
//! // The optimized protocol used Type 2+ / Type 3 messages:
//! assert!(out.report.tag(dnnd::msgs::TAG_TYPE2_PLUS).count > 0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod msgs;
pub mod obs_report;
pub mod partition;
pub mod query;
pub mod rnn_dist;

pub use config::{CommOpts, DnndConfig};
pub use engine::{build, BuildReport, DnndOutput};
pub use partition::Partitioner;
pub use query::{distributed_search_batch, DistSearchParams, IdMask, QueryProfile, SearchEngine};
pub use rnn_dist::rnn_optimize_distributed;
