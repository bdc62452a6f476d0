//! Recall scoring.
//!
//! The paper's quality measure everywhere: "the recall score is the ratio of
//! the neighbor IDs that exist in the corresponding ground truth data"
//! (Section 5.2 for graphs, Section 5.3.3 as recall@10 for queries). The
//! mean over all points/queries is reported.

use crate::ground_truth::GroundTruth;
use crate::set::PointId;

/// Recall of one result list against one truth list: `|approx ∩ truth| /
/// |truth|`. An empty truth list scores 1.0 (nothing to find).
pub fn recall_single(approx: &[PointId], truth: &[PointId]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let truth_set: std::collections::HashSet<PointId> = truth.iter().copied().collect();
    let hit = approx.iter().filter(|id| truth_set.contains(id)).count();
    hit as f64 / truth.len() as f64
}

/// Mean recall over all queries. `approx[q]` is compared against the first
/// `at` entries of `truth.ids[q]` (recall@`at`); pass `truth.ids[q].len()`
/// sized lists and `at = k` for graph recall. An empty set of queries
/// scores 1.0, so a caller that can be asked for zero queries refuses that
/// count before it scores.
pub fn mean_recall_at(approx: &[Vec<PointId>], truth: &GroundTruth, at: usize) -> f64 {
    assert_eq!(
        approx.len(),
        truth.len(),
        "approx and truth must cover the same queries"
    );
    if approx.is_empty() {
        return 1.0;
    }
    let sum: f64 = approx
        .iter()
        .zip(&truth.ids)
        .map(|(a, t)| recall_single(a, &t[..at.min(t.len())]))
        .sum();
    sum / approx.len() as f64
}

/// Mean recall with `at` = full truth depth.
pub fn mean_recall(approx: &[Vec<PointId>], truth: &GroundTruth) -> f64 {
    mean_recall_at(approx, truth, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_recall_counts_hits() {
        assert_eq!(recall_single(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall_single(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(recall_single(&[9, 8, 7], &[1, 2, 3]), 0.0);
        assert_eq!(recall_single(&[], &[1]), 0.0);
        assert_eq!(recall_single(&[5], &[]), 1.0);
    }

    #[test]
    fn order_does_not_matter() {
        assert_eq!(recall_single(&[3, 1, 2], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn extra_entries_do_not_hurt() {
        // Searching l > k neighbors and scoring against k truths is legal.
        assert_eq!(recall_single(&[1, 2, 3, 9, 8], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn mean_recall_at_truncates_truth() {
        let truth = GroundTruth {
            ids: vec![vec![1, 2, 3, 4]],
            dists: vec![vec![0.1, 0.2, 0.3, 0.4]],
        };
        // approx found the top-2 exactly: recall@2 = 1.0, recall@4 = 0.5.
        let approx = vec![vec![1, 2]];
        assert_eq!(mean_recall_at(&approx, &truth, 2), 1.0);
        assert_eq!(mean_recall_at(&approx, &truth, 4), 0.5);
    }

    #[test]
    fn mean_over_queries() {
        let truth = GroundTruth {
            ids: vec![vec![1], vec![2]],
            dists: vec![vec![0.0], vec![0.0]],
        };
        let approx = vec![vec![1], vec![9]];
        assert_eq!(mean_recall(&approx, &truth), 0.5);
    }

    #[test]
    #[should_panic(expected = "same queries")]
    fn mismatched_lengths_panic() {
        let truth = GroundTruth {
            ids: vec![vec![1]],
            dists: vec![vec![0.0]],
        };
        mean_recall(&[], &truth);
    }
}
