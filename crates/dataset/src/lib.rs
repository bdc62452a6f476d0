//! # dataset — feature vectors, metrics, and benchmark data for k-NNG work
//!
//! Everything the DNND reproduction needs to feed NN-Descent:
//!
//! * [`point`] — dense `f32`/`u8` vectors and sparse sets, all wire-encodable
//!   for distributed neighbor checks.
//! * [`metric`] — L2, squared L2, cosine, inner product, Jaccard, Hamming;
//!   NN-Descent treats these as black boxes, which is the paper's stated
//!   reason for choosing the algorithm.
//! * [`set`] — [`PointSet`], the dataset `V` with `u32` point ids, plus
//!   persistence into a [`metall::Store`].
//! * [`synth`] / [`presets`] — deterministic synthetic stand-ins for the
//!   paper's eight evaluation datasets (Table 1), at caller-chosen scale.
//! * [`io`] — fvecs/bvecs/ivecs and Big-ANN fbin/u8bin readers and writers.
//! * [`ground_truth`] / [`recall`] — exact brute-force k-NN and the paper's
//!   recall scores.
//! * [`marks`] — epoch-stamped visited marks for graph walks.
//! * [`par`] — the data-parallel map the shared-memory loops over
//!   independent items (query batches, truth sweeps, preset transforms) run
//!   through, and the ordered pipeline of `nnd::build`'s neighbor check.

pub mod analysis;
pub mod batch;
pub mod ground_truth;
pub mod io;
pub mod kernel;
pub mod marks;
pub mod metric;
pub mod order;
pub mod par;
pub mod point;
pub mod presets;
pub mod recall;
pub mod set;
pub mod synth;

pub use analysis::{lid_mle, profile, DatasetProfile};
pub use batch::{BatchMetric, NormCache};
pub use ground_truth::{brute_force_knng, brute_force_queries, brute_force_sample, GroundTruth};
pub use metric::{Chebyshev, Cosine, Hamming, InnerProduct, Jaccard, Metric, SquaredL2, L1, L2};
pub use order::DistKey;
pub use point::{Point, SparseVec};
pub use recall::{mean_recall, mean_recall_at, recall_single};
pub use set::{PointId, PointSet};
