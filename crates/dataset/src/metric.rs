//! Distance metrics.
//!
//! NN-Descent's selling point (and the reason the paper picks it over
//! HNSW-style indices specialized for L2) is that it only ever touches the
//! data through a black-box distance function `theta(v1, v2) -> [0, inf)`,
//! assumed symmetric (Section 2). Every metric here returns a *distance*
//! (smaller = closer); similarity measures are converted (`1 - cos`,
//! `1 - jaccard`).

use crate::kernel;
use crate::point::SparseVec;

/// A symmetric distance function over points of type `P`.
pub trait Metric<P>: Clone + Send + Sync + 'static {
    /// Distance between two points; must be symmetric and non-negative.
    fn distance(&self, a: &P, b: &P) -> f32;

    /// Human-readable metric name for reports (matches Table 1 labels).
    fn name(&self) -> &'static str;
}

/// Euclidean (L2) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2;

/// Squared Euclidean distance. Rank-equivalent to [`L2`] but cheaper; the
/// recall of a k-NNG is identical under either, so construction may use
/// this while reports quote L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredL2;

/// Cosine distance `1 - cos(a, b)`, the ANN-Benchmarks "Angular"/cosine
/// metric used by GloVe, NYTimes, and Last.fm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

/// Negative inner product shifted to be non-negative is not well-defined in
/// general; following common ANN practice this returns `-dot(a, b)` and is
/// only rank-meaningful (maximum inner-product search). Provided as an
/// example of NN-Descent's tolerance of non-metric similarity functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InnerProduct;

/// Jaccard distance `1 - |A ∩ B| / |A ∪ B|` over sparse sets (Kosarak).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

/// Hamming distance over dense `u8` vectors (count of differing bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hamming;

/// Manhattan (L1) distance — ANN-Benchmarks' other Minkowski metric;
/// exercises NN-Descent's metric-genericity beyond the paper's set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1;

/// Chebyshev (L-infinity) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric<Vec<f32>> for L2 {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        SquaredL2.distance(a, b).sqrt()
    }
    fn name(&self) -> &'static str {
        "L2"
    }
}

impl Metric<Vec<u8>> for L2 {
    #[inline]
    fn distance(&self, a: &Vec<u8>, b: &Vec<u8>) -> f32 {
        (kernel::sq_l2_u8(a, b) as f32).sqrt()
    }
    fn name(&self) -> &'static str {
        "L2"
    }
}

impl Metric<Vec<f32>> for SquaredL2 {
    // Canonical dot form `||a||² + ||b||² − 2a·b` — the exact arithmetic
    // the batched cached-norm kernels use, so per-pair bits never depend
    // on whether a norm came from a cache or was just computed.
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        kernel::sq_l2_from_dot(kernel::norm_sq(a), kernel::norm_sq(b), kernel::dot(a, b))
    }
    fn name(&self) -> &'static str {
        "SquaredL2"
    }
}

impl Metric<Vec<f32>> for Cosine {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        kernel::cosine_from_dot(kernel::norm_sq(a), kernel::norm_sq(b), kernel::dot(a, b))
    }
    fn name(&self) -> &'static str {
        "Cosine"
    }
}

impl Metric<Vec<f32>> for InnerProduct {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        -kernel::dot(a, b)
    }
    fn name(&self) -> &'static str {
        "InnerProduct"
    }
}

impl Metric<SparseVec> for Jaccard {
    #[inline]
    fn distance(&self, a: &SparseVec, b: &SparseVec) -> f32 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection_size(b);
        let union = a.len() + b.len() - inter;
        1.0 - inter as f32 / union as f32
    }
    fn name(&self) -> &'static str {
        "Jaccard"
    }
}

impl Metric<Vec<f32>> for L1 {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        kernel::l1(a, b)
    }
    fn name(&self) -> &'static str {
        "L1"
    }
}

impl Metric<Vec<f32>> for Chebyshev {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }
    fn name(&self) -> &'static str {
        "Chebyshev"
    }
}

impl Metric<Vec<u8>> for Hamming {
    #[inline]
    fn distance(&self, a: &Vec<u8>, b: &Vec<u8>) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        kernel::hamming_u8(a, b) as f32
    }
    fn name(&self) -> &'static str {
        "Hamming"
    }
}

/// The metric names a store records for dense data (`meta/metric`, a
/// collection's `info/metric`): the names [`with_metric!`](crate::with_metric)
/// has an `f32` arm for.
pub const METRIC_NAMES: &[&str] = &["l2", "sql2", "cosine", "l1"];

/// Why [`with_metric!`](crate::with_metric) has no arm for a stored pair.
pub fn unknown_metric(elem: &str, metric: &str) -> String {
    if METRIC_NAMES.contains(&metric) {
        format!("{elem} datasets support --metric l2 only")
    } else {
        format!("unknown metric {metric:?} (expected one of {METRIC_NAMES:?})")
    }
}

/// The one dispatch from a stored `(elem, metric)` name pair to a
/// monomorphized call: `$body` is expanded once per arm with `$P` aliased
/// to the point type (`Vec<f32>` / `Vec<u8>`) and `$m` bound to the metric
/// value. Evaluates to `Ok($body)`, or `Err(`[`unknown_metric`]`)` for a
/// pair without an arm.
#[macro_export]
macro_rules! with_metric {
    ($elem:expr, $metric:expr, $P:ident, $m:ident => $body:expr) => {{
        let (elem, metric): (&str, &str) = ($elem, $metric);
        match elem {
            "f32" => {
                #[allow(dead_code)]
                type $P = Vec<f32>;
                match metric {
                    "l2" => $crate::with_metric!(@arm $m = $crate::L2, $body),
                    "sql2" => $crate::with_metric!(@arm $m = $crate::SquaredL2, $body),
                    "cosine" => $crate::with_metric!(@arm $m = $crate::Cosine, $body),
                    "l1" => $crate::with_metric!(@arm $m = $crate::L1, $body),
                    _ => Err($crate::metric::unknown_metric(elem, metric)),
                }
            }
            "u8" => {
                #[allow(dead_code)]
                type $P = Vec<u8>;
                match metric {
                    "l2" => $crate::with_metric!(@arm $m = $crate::L2, $body),
                    _ => Err($crate::metric::unknown_metric(elem, metric)),
                }
            }
            _ => Err(format!("unknown element type {elem:?}")),
        }
    }};
    (@arm $m:ident = $value:expr, $body:expr) => {
        Ok({
            let $m = $value;
            $body
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stored_pair_dispatches_and_nothing_else_does() {
        fn name<P, M: Metric<P>>(m: M) -> &'static str {
            m.name()
        }
        for &metric in METRIC_NAMES {
            assert!(with_metric!("f32", metric, P, m => name::<P, _>(m)).is_ok());
        }
        assert_eq!(with_metric!("u8", "l2", P, m => name::<P, _>(m)), Ok("L2"));
        assert_eq!(
            with_metric!("u8", "cosine", P, m => name::<P, _>(m)),
            Err("u8 datasets support --metric l2 only".into())
        );
        assert_eq!(
            with_metric!("f32", "nope", P, m => name::<P, _>(m)),
            Err(
                "unknown metric \"nope\" (expected one of [\"l2\", \"sql2\", \"cosine\", \"l1\"])"
                    .into()
            )
        );
        assert!(with_metric!("u16", "l2", P, m => name::<P, _>(m)).is_err());
    }

    #[test]
    fn l2_basics() {
        let m = L2;
        assert_eq!(m.distance(&vec![0.0, 0.0], &vec![3.0, 4.0]), 5.0);
        assert_eq!(m.distance(&vec![1.0, 1.0], &vec![1.0, 1.0]), 0.0);
    }

    #[test]
    fn l2_u8_matches_f32() {
        let mu = L2;
        let mf = L2;
        let a8 = vec![0u8, 10, 200];
        let b8 = vec![5u8, 10, 100];
        let af: Vec<f32> = a8.iter().map(|&x| f32::from(x)).collect();
        let bf: Vec<f32> = b8.iter().map(|&x| f32::from(x)).collect();
        let du = Metric::<Vec<u8>>::distance(&mu, &a8, &b8);
        let df = Metric::<Vec<f32>>::distance(&mf, &af, &bf);
        assert!((du - df).abs() < 1e-4);
    }

    #[test]
    fn squared_l2_is_rank_equivalent_to_l2() {
        let a = vec![0.0f32, 0.0];
        let near = vec![1.0f32, 0.0];
        let far = vec![5.0f32, 5.0];
        assert!(SquaredL2.distance(&a, &near) < SquaredL2.distance(&a, &far));
        let d = Metric::<Vec<f32>>::distance(&L2, &a, &far);
        assert!((SquaredL2.distance(&a, &far) - d * d).abs() < 1e-4);
    }

    #[test]
    fn cosine_range_and_identity() {
        let m = Cosine;
        let a = vec![1.0f32, 0.0];
        let b = vec![0.0f32, 1.0];
        let c = vec![-1.0f32, 0.0];
        assert!((m.distance(&a, &a)).abs() < 1e-6);
        assert!((m.distance(&a, &b) - 1.0).abs() < 1e-6);
        assert!((m.distance(&a, &c) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vectors() {
        let m = Cosine;
        let z = vec![0.0f32, 0.0];
        let a = vec![1.0f32, 0.0];
        assert_eq!(m.distance(&z, &z), 0.0);
        assert_eq!(m.distance(&z, &a), 1.0);
        assert_eq!(m.distance(&a, &z), 1.0);
    }

    #[test]
    fn jaccard_basics() {
        let m = Jaccard;
        let a = SparseVec::new(vec![1, 2, 3]);
        let b = SparseVec::new(vec![2, 3, 4]);
        // |∩| = 2, |∪| = 4 → distance = 0.5
        assert!((m.distance(&a, &b) - 0.5).abs() < 1e-6);
        assert_eq!(m.distance(&a, &a), 0.0);
        let empty = SparseVec::default();
        assert_eq!(m.distance(&empty, &empty), 0.0);
        assert_eq!(m.distance(&a, &empty), 1.0);
    }

    #[test]
    fn hamming_counts_differing_bytes() {
        let m = Hamming;
        assert_eq!(m.distance(&vec![1u8, 2, 3], &vec![1u8, 9, 3]), 1.0);
        assert_eq!(m.distance(&vec![0u8; 4], &vec![1u8; 4]), 4.0);
    }

    #[test]
    fn inner_product_prefers_aligned() {
        let m = InnerProduct;
        let q = vec![1.0f32, 1.0];
        assert!(m.distance(&q, &vec![2.0, 2.0]) < m.distance(&q, &vec![0.1, 0.1]));
    }

    #[test]
    fn l1_and_chebyshev_basics() {
        let a = vec![0.0f32, 0.0];
        let b = vec![3.0f32, -4.0];
        assert_eq!(L1.distance(&a, &b), 7.0);
        assert_eq!(Chebyshev.distance(&a, &b), 4.0);
        assert_eq!(L1.distance(&a, &a), 0.0);
        assert_eq!(Chebyshev.distance(&b, &b), 0.0);
        // Minkowski ordering: L-inf <= L2 <= L1.
        let l2 = Metric::<Vec<f32>>::distance(&L2, &a, &b);
        assert!(Chebyshev.distance(&a, &b) <= l2);
        assert!(l2 <= L1.distance(&a, &b));
    }

    #[test]
    fn zero_length_vectors_are_identical_under_every_dense_metric() {
        let e: Vec<f32> = vec![];
        assert_eq!(Metric::<Vec<f32>>::distance(&L2, &e, &e), 0.0);
        assert_eq!(SquaredL2.distance(&e, &e), 0.0);
        // Zero-dimensional vectors are zero vectors: cosine's degenerate
        // branch applies.
        assert_eq!(Cosine.distance(&e, &e), 0.0);
        assert_eq!(InnerProduct.distance(&e, &e), 0.0);
        assert_eq!(L1.distance(&e, &e), 0.0);
        assert_eq!(Chebyshev.distance(&e, &e), 0.0);
        let eu: Vec<u8> = vec![];
        assert_eq!(Hamming.distance(&eu, &eu), 0.0);
        assert_eq!(Metric::<Vec<u8>>::distance(&L2, &eu, &eu), 0.0);
    }

    #[test]
    fn jaccard_disjoint_and_identical_sparse_sets() {
        let m = Jaccard;
        let a = SparseVec::new(vec![1, 3, 5, 7]);
        let disjoint = SparseVec::new(vec![2, 4, 6]);
        assert_eq!(m.distance(&a, &disjoint), 1.0);
        assert_eq!(m.distance(&disjoint, &a), 1.0);
        let identical = SparseVec::new(vec![1, 3, 5, 7]);
        assert_eq!(m.distance(&a, &identical), 0.0);
        // Subset: |∩| = 2, |∪| = 4 → 0.5.
        let subset = SparseVec::new(vec![3, 7]);
        assert!((m.distance(&a, &subset) - 0.5).abs() < 1e-6);
        assert_eq!(m.distance(&a, &subset), m.distance(&subset, &a));
    }

    #[test]
    fn chebyshev_and_hamming_symmetry() {
        let a = vec![0.5f32, -2.0, 3.25, 0.0, 9.5];
        let b = vec![-1.5f32, 4.0, 3.25, 2.0, -0.5];
        assert_eq!(Chebyshev.distance(&a, &b), Chebyshev.distance(&b, &a));
        assert_eq!(Chebyshev.distance(&a, &b), 10.0);
        let x = vec![0u8, 255, 17, 4];
        let y = vec![1u8, 255, 18, 4];
        assert_eq!(Hamming.distance(&x, &y), Hamming.distance(&y, &x));
        assert_eq!(Hamming.distance(&x, &y), 2.0);
        assert_eq!(L1.distance(&a, &b), L1.distance(&b, &a));
    }

    #[test]
    fn symmetry_across_metrics() {
        let a = vec![0.3f32, -1.2, 4.0];
        let b = vec![2.0f32, 0.0, -1.0];
        assert_eq!(
            Metric::<Vec<f32>>::distance(&L2, &a, &b),
            Metric::<Vec<f32>>::distance(&L2, &b, &a)
        );
        assert_eq!(Cosine.distance(&a, &b), Cosine.distance(&b, &a));
        assert_eq!(SquaredL2.distance(&a, &b), SquaredL2.distance(&b, &a));
    }
}
