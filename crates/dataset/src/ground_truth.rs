//! Exact k-nearest-neighbor ground truth by brute force.
//!
//! The paper's Section 5.2 validates DNND's graphs against a brute-force
//! all-pairs computation on the six small datasets; Section 5.3 uses the
//! published query ground truth. Here both come from this module:
//! [`brute_force_knng`] builds the exact k-NNG over a base set (excluding
//! self-edges, as a k-NNG has no self loops), and [`brute_force_queries`]
//! answers held-out queries.
//!
//! Both are one sequential sweep: eight queries at a time against columns
//! of [`BLOCK`] candidates, through [`BatchMetric::distance_many_to_many`]
//! (which the dot family and `L2` over bytes answer reading each candidate
//! row once per eight queries; the rest score a pair at a time). Each query selects
//! from its own row of distances in id order, so the result is the one a
//! one-query-at-a-time scan gives, bit for bit.

use crate::batch::BatchMetric;
use crate::kernel::LANES;
use crate::order::{offer_bounded, DistKey};
use crate::point::Point;
use crate::set::{PointId, PointSet};
use std::collections::BinaryHeap;

/// Candidate-column width: big enough to amortize the per-call query
/// scalars, small enough that the distance buffer stays in cache.
const BLOCK: usize = 256;

/// Exact nearest neighbors: for query `q`, `ids[q]` are the `k` closest
/// base ids ascending by `(distance, id)`, and `dists[q]` the distances.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Neighbor ids per query, closest first.
    pub ids: Vec<Vec<PointId>>,
    /// Distances per query, matching `ids`.
    pub dists: Vec<Vec<f32>>,
}

impl GroundTruth {
    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no queries are covered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Neighbors of one query.
    pub fn neighbors(&self, q: usize) -> &[PointId] {
        &self.ids[q]
    }
}

/// Exact `k` nearest `base` points of each of `queries`. With `members`,
/// query `i` is base point `i` and never its own neighbor (k-NNG case).
fn sweep<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    metric: &M,
    queries: &[P],
    members: bool,
    k: usize,
) -> GroundTruth {
    let cache = metric.preprocess(base);
    let all_ids: Vec<PointId> = (0..base.len() as PointId).collect();
    let (mut ids, mut dists) = (Vec::new(), Vec::new());
    let mut dbuf: Vec<f32> = Vec::with_capacity(LANES * BLOCK);
    for (b, block) in queries.chunks(LANES).enumerate() {
        // One max-heap of the k best per query, so the worst is peekable.
        let mut heaps = vec![BinaryHeap::<DistKey>::with_capacity(k); block.len()];
        for column in all_ids.chunks(BLOCK) {
            metric.distance_many_to_many(block, base, &cache, column, &mut dbuf);
            for (i, (heap, row)) in heaps.iter_mut().zip(dbuf.chunks(column.len())).enumerate() {
                let own = (b * LANES + i) as PointId;
                for (&id, &d) in column.iter().zip(row) {
                    if !(members && id == own) {
                        offer_bounded(heap, k, DistKey::new(d, id));
                    }
                }
            }
        }
        for heap in heaps {
            let keys = heap.into_sorted_vec();
            ids.push(keys.iter().map(|key| key.id()).collect());
            dists.push(keys.iter().map(|key| key.dist()).collect());
        }
    }
    GroundTruth { ids, dists }
}

/// Exact k-NNG over `base` (no self edges). `O(N^2)` distances — the
/// baseline NN-Descent's `O(n^1.14)` empirical cost is measured against.
pub fn brute_force_knng<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    metric: &M,
    k: usize,
) -> GroundTruth {
    assert!(k < base.len(), "k must be smaller than the dataset");
    sweep(base, metric, base.points(), true, k)
}

/// Exact k nearest base neighbors for each held-out query.
pub fn brute_force_queries<P: Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    queries: &PointSet<P>,
    metric: &M,
    k: usize,
) -> GroundTruth {
    assert!(k <= base.len(), "k must not exceed the dataset size");
    sweep(base, metric, queries.points(), false, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::L2;
    use crate::synth::uniform;

    /// A tiny hand-checkable line of points at x = 0, 1, 2, 3, 4.
    fn line() -> PointSet<Vec<f32>> {
        PointSet::new((0..5).map(|i| vec![i as f32]).collect())
    }

    #[test]
    fn knng_on_a_line() {
        let gt = brute_force_knng(&line(), &L2, 2);
        // Point 0's nearest two are 1 then 2.
        assert_eq!(gt.neighbors(0), &[1, 2]);
        // Point 2's nearest are 1 and 3 (tie distance 1.0, id ascending).
        assert_eq!(gt.neighbors(2), &[1, 3]);
        assert_eq!(gt.dists[2], vec![1.0, 1.0]);
        // No self edges anywhere.
        for (q, ids) in gt.ids.iter().enumerate() {
            assert!(!ids.contains(&(q as PointId)));
        }
    }

    #[test]
    fn queries_on_a_line() {
        let base = line();
        let queries = PointSet::new(vec![vec![1.9f32], vec![-10.0]]);
        let gt = brute_force_queries(&base, &queries, &L2, 3);
        assert_eq!(gt.neighbors(0), &[2, 1, 3]);
        assert_eq!(gt.neighbors(1), &[0, 1, 2]);
        assert_eq!(gt.dists[1][0], 10.0);
    }

    #[test]
    fn results_sorted_ascending_by_distance() {
        let base = uniform(200, 4, 77);
        let gt = brute_force_knng(&base, &L2, 10);
        for d in &gt.dists {
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(d.len(), 10);
        }
    }

    #[test]
    fn query_membership_includes_identical_point() {
        // A query identical to a base point finds it at distance 0.
        let base = line();
        let queries = PointSet::new(vec![vec![3.0f32]]);
        let gt = brute_force_queries(&base, &queries, &L2, 1);
        assert_eq!(gt.neighbors(0), &[3]);
        assert_eq!(gt.dists[0], vec![0.0]);
    }

    #[test]
    fn deterministic_under_parallelism() {
        let base = uniform(300, 8, 5);
        let a = brute_force_knng(&base, &L2, 5);
        let b = brute_force_knng(&base, &L2, 5);
        assert_eq!(a, b);
    }
}
