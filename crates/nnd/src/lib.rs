//! # nnd — shared-memory NN-Descent and k-NNG tooling
//!
//! The single-node half of the DNND reproduction:
//!
//! * [`heap`] — bounded neighbor rows (`G[v]` of Algorithm 1): one row
//!   algorithm, the one-row [`NeighborHeap`] and the `k`-strided
//!   [`NeighborTable`] both builders run on;
//! * [`nndescent`] — NN-Descent construction (Dong et al. WWW'11, with
//!   PyNNDescent's sampling discipline): one deterministic loop with
//!   exclusive access to its table, no lock and no atomic;
//! * [`graph`] — the [`KnnGraph`] output type, the Section 4.5 graph
//!   optimizations (reverse-edge merge + degree pruning), and persistence
//!   into a [`metall::Store`];
//! * [`mod@search`] — the Section 3.3 greedy ANN search with PyNNDescent's
//!   `epsilon` relaxation: one expansion loop over reusable scratch,
//!   reached through [`search()`] (one query) and [`search_batch`] (one
//!   scratch reused across the batch);
//! * [`rptree`] — random-projection-forest initialization (extension);
//! * [`mod@refine`] — incremental maintenance (the paper's Section 7 future
//!   work) on the rows a [`KnnRows`] keeps, in place: [`remove_points`]
//!   deletes without renumbering and names the rows it shortened,
//!   [`refine()`] inserts and re-converges — only what changed flagged new,
//!   then [`nndescent`]'s own descent loop over the rows that take part —
//!   and [`KnnRows::rederive`] keeps a served graph derived from the rows;
//! * [`rnn`] — RNN-Descent (relative-neighborhood descent with occlusion
//!   pruning, after GRNND / `mini_rnn`): the second graph-optimization
//!   mode, producing sparser graphs at equal recall (extension).
//!
//! The distributed engine in the `dnnd` crate reuses [`heap`], [`graph`]
//! and [`nndescent`]'s per-vertex rules ([`NnDescentParams`],
//! [`OpenedRows`]), so the two implementations differ only in *where*
//! vertices live and how neighbor checks travel: under the one-sided
//! protocol they build the same graph.
//!
//! ```
//! use dataset::{synth, L2};
//! use nnd::{build, NnDescentParams, search, SearchParams};
//!
//! let set = synth::uniform(500, 8, 42);
//! let (graph, stats) = build(&set, &L2, NnDescentParams::new(10));
//! assert!(stats.iterations >= 1);
//!
//! let optimized = graph.optimize(10, 1.5);
//! let result = search(&optimized, &set, &L2, set.point(0), SearchParams::new(5));
//! assert_eq!(result.neighbors[0].0, 0); // a member query finds itself
//! ```

#![forbid(unsafe_code)]

pub mod graph;
pub mod heap;
pub mod nndescent;
pub mod refine;
pub mod rnn;
pub mod rptree;
pub mod search;

pub use graph::{prune_limit, Edge, KnnGraph, PRUNE_M};
pub use heap::{Neighbor, NeighborHeap, NeighborTable};
pub use nndescent::{build, build_with_init, check_k, BuildStats, NnDescentParams, OpenedRows};
pub use refine::{refine, remove_points, KnnRows};
pub use rnn::{rnn_optimize, RnnParams, RnnStats};
pub use rptree::{rp_forest_candidates, RpForestParams};
pub use search::{
    check_l, search, search_batch, search_batch_traced, BatchResult, EntrySampler, SearchParams,
    SearchResult,
};

/// A parameter builder's one check: `value` if its `validate` accepts it,
/// else a panic naming the type and the invariant it broke.
pub fn checked<T>(value: T, what: &str, validate: fn(&T) -> Result<(), String>) -> T {
    if let Err(e) = validate(&value) {
        panic!("{what}: {e}");
    }
    value
}
