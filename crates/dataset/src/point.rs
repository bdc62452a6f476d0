//! Point types: the feature-vector representations DNND operates on.
//!
//! The paper's datasets use three representations (Table 1):
//!
//! * dense `f32` vectors (DEEP-1B, GloVe, NYTimes, Last.fm, ...),
//! * dense `u8` vectors (BigANN) — half the wire size per dimension, which
//!   is why BigANN's message volume in Figure 4b is smaller,
//! * sparse sets of item ids (Kosarak, Jaccard similarity).
//!
//! All point types implement [`ygm::Wire`] so they can travel in Type 2 /
//! Type 2+ neighbor-check messages, and expose `storage_bytes` so data-size
//! accounting matches the paper's `N x dim x E` formula (Section 2).

use ygm::Wire;

/// A feature vector usable as a dataset point.
pub trait Point: Clone + Wire + Send + Sync + 'static {
    /// Number of dimensions (dense) or stored ids (sparse).
    fn dim(&self) -> usize;
    /// Bytes this point occupies in memory/storage (the paper's `dim x E`).
    fn storage_bytes(&self) -> usize;
}

impl Point for Vec<f32> {
    fn dim(&self) -> usize {
        self.len()
    }
    fn storage_bytes(&self) -> usize {
        self.len() * 4
    }
}

impl Point for Vec<u8> {
    fn dim(&self) -> usize {
        self.len()
    }
    fn storage_bytes(&self) -> usize {
        self.len()
    }
}

/// A sparse binary vector: the sorted, deduplicated set of present item ids.
/// Used for Jaccard-metric datasets such as Kosarak.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseVec {
    ids: Vec<u32>,
}

impl SparseVec {
    /// Build from arbitrary ids; sorts and deduplicates.
    pub fn new(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        SparseVec { ids }
    }

    /// Build from ids already sorted strictly ascending.
    ///
    /// # Panics
    /// In debug builds, panics if `ids` is not strictly ascending.
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        SparseVec { ids }
    }

    /// The sorted item ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of present items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Size of the intersection with `other` (both sorted: linear merge).
    pub fn intersection_size(&self, other: &SparseVec) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        let (a, b) = (&self.ids, &other.ids);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

ygm::wire_struct!(SparseVec { ids });

impl Point for SparseVec {
    fn dim(&self) -> usize {
        self.ids.len()
    }
    fn storage_bytes(&self) -> usize {
        self.ids.len() * 4
    }
}

/// Dense vector helpers shared by metrics and generators.
///
/// The floating-point reductions delegate to [`crate::kernel`], the
/// runtime-dispatched 8-lane kernel module with a fixed accumulation
/// order (see its module docs for the determinism contract). Distance
/// evaluation is >95% of NN-Descent's CPU time, so that is the kernel
/// that matters; `sq_l2` survives here as the *direct-form* squared
/// distance (diff-then-square) used by generators and sanity tests —
/// the metrics themselves use the dot form via `kernel`.
pub mod dense {
    use crate::kernel;

    const LANES: usize = kernel::LANES;

    /// Euclidean norm of a dense f32 vector.
    pub fn norm(v: &[f32]) -> f32 {
        kernel::norm_sq(v).sqrt()
    }

    /// Direct-form squared Euclidean distance with 8-lane chunked
    /// accumulation. Numerically friendlier than the dot form for
    /// far-apart points, but NOT bit-identical to it — metrics use the
    /// dot form (`kernel::sq_l2_from_dot`) so cached norms stay exact.
    #[inline]
    pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; LANES];
        let chunks = a.len() / LANES;
        for i in 0..chunks {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let j = i * LANES + lane;
                let d = a[j] - b[j];
                *slot += d * d;
            }
        }
        let mut total = acc.iter().sum::<f32>();
        for j in chunks * LANES..a.len() {
            let d = a[j] - b[j];
            total += d * d;
        }
        total
    }

    /// Dot product (8-lane fixed-order accumulation, runtime-dispatched).
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        kernel::dot(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ygm::codec::{decode_from_bytes, encode_to_bytes, Bytes};
    use ygm::Encode;

    #[test]
    fn dense_point_dims_and_bytes() {
        let f = vec![1.0f32, 2.0, 3.0];
        assert_eq!(f.dim(), 3);
        assert_eq!(f.storage_bytes(), 12);
        let b = vec![1u8, 2, 3, 4];
        assert_eq!(b.dim(), 4);
        assert_eq!(b.storage_bytes(), 4);
    }

    #[test]
    fn sparse_new_sorts_and_dedups() {
        let s = SparseVec::new(vec![5, 1, 3, 1, 5]);
        assert_eq!(s.ids(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sparse_intersection() {
        let a = SparseVec::new(vec![1, 2, 3, 10]);
        let b = SparseVec::new(vec![2, 3, 4]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&SparseVec::default()), 0);
    }

    #[test]
    fn sparse_wire_round_trip() {
        let s = SparseVec::new(vec![7, 3, 9]);
        let enc = encode_to_bytes(&s);
        assert_eq!(enc.len(), s.wire_size());
        let back: SparseVec = decode_from_bytes(enc);
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn sparse_oversized_prefix_is_an_underflow_not_an_allocation() {
        // Length prefix claims 4 Gi ids; nothing follows.
        SparseVec::decode(&mut Bytes::from(vec![0xff; 4]));
    }

    #[test]
    fn dense_helpers() {
        assert_eq!(dense::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((dense::norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(dense::sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn chunked_kernels_match_naive_on_odd_lengths() {
        // Lengths around the 4-lane boundary exercise the remainder loop.
        for len in [1usize, 3, 4, 5, 7, 8, 9, 96, 97] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32) * 0.37 - 3.0).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32) * -0.11 + 1.0).collect();
            let naive_sq: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (dense::sq_l2(&a, &b) - naive_sq).abs() < naive_sq.abs() * 1e-5 + 1e-5,
                "len {len}"
            );
            assert!(
                (dense::dot(&a, &b) - naive_dot).abs() < naive_dot.abs() * 1e-5 + 1e-5,
                "len {len}"
            );
        }
    }
}
