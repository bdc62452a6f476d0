//! The total `(distance, id)` order, packed into one integer.
//!
//! `f32` is not `Ord`, and every heap, ground-truth selection and neighbor
//! list in this workspace orders by distance under `f32::total_cmp` with
//! ties broken by point id. [`DistKey`] is that pair as a `u64` whose
//! integer order *is* that order, so a sift or a sort step is one integer
//! compare: the distance's bits go in the high word, sign-flipped into
//! unsigned order (a negative float has all its bits flipped, a positive
//! one only its sign bit — the same map `total_cmp` applies before its
//! signed compare), the id in the low word.

use crate::set::PointId;
use std::collections::BinaryHeap;

/// `(distance, id)` ordered by `(f32::total_cmp, id)`. Every bit pattern
/// round-trips: `-0.0 < 0.0`, NaNs sort outside the infinities by sign and
/// payload, and `Eq` agrees with `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DistKey(u64);

impl DistKey {
    /// Pack `(dist, id)`.
    #[inline]
    pub fn new(dist: f32, id: PointId) -> DistKey {
        let bits = dist.to_bits();
        // All ones for a negative float, only the sign bit otherwise.
        let flip = ((bits as i32 >> 31) as u32) | 0x8000_0000;
        DistKey((u64::from(bits ^ flip) << 32) | u64::from(id))
    }

    /// The distance, bit for bit as packed.
    #[inline]
    pub fn dist(self) -> f32 {
        let hi = (self.0 >> 32) as u32;
        // The sign bit of `hi` is set exactly when the float was positive.
        let flip = (!(hi as i32 >> 31) as u32) | 0x8000_0000;
        f32::from_bits(hi ^ flip)
    }

    /// The point id.
    #[inline]
    pub fn id(self) -> PointId {
        self.0 as PointId
    }
}

/// Offer `key` to a max-heap that keeps the `k` smallest keys it has seen
/// (the largest kept on top).
#[inline]
pub fn offer_bounded(heap: &mut BinaryHeap<DistKey>, k: usize, key: DistKey) {
    if heap.len() < k {
        heap.push(key);
    } else if let Some(mut top) = heap.peek_mut().filter(|top| key < **top) {
        *top = key;
    }
}

/// Sort `(id, distance)` edges ascending by `(distance, id)` — the order of
/// every neighbor list.
pub fn sort_edges(edges: &mut [(PointId, f32)]) {
    edges.sort_unstable_by_key(|&(id, d)| DistKey::new(d, id));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_ordinary_and_special_values_totally() {
        let ascending = [
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            0.5,
            1e30,
            f32::INFINITY,
            f32::NAN,
        ];
        for w in ascending.windows(2) {
            assert!(DistKey::new(w[0], 9) < DistKey::new(w[1], 0), "{w:?}");
        }
        // `Eq` agrees with `Ord` where the float's own `==` does not.
        assert_ne!(DistKey::new(-0.0, 1), DistKey::new(0.0, 1));
        assert_eq!(DistKey::new(f32::NAN, 1), DistKey::new(f32::NAN, 1));
        assert!(DistKey::new(2.0, 3) < DistKey::new(2.0, 4));
    }

    #[test]
    fn sort_edges_is_distance_then_id() {
        let mut row = vec![(7, 2.0), (1, 0.5), (3, 2.0), (0, f32::INFINITY)];
        sort_edges(&mut row);
        assert_eq!(row, vec![(1, 0.5), (3, 2.0), (7, 2.0), (0, f32::INFINITY)]);
    }
}
