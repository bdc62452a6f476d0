//! Dataset difficulty diagnostics.
//!
//! ANN-Benchmarks characterizes datasets by **local intrinsic
//! dimensionality** (LID) and relative-contrast statistics, because they —
//! not the ambient dimension — govern how hard graph-based search is and
//! how fast NN-Descent's "neighbor of a neighbor" heuristic converges.
//! This module implements the Levina–Bickel maximum-likelihood LID
//! estimator over exact k-NN distances, plus summary statistics used by
//! `paper --section table1` to sanity-check that the synthetic
//! stand-ins are *not* degenerate (uniform-random) inputs.

use crate::ground_truth::GroundTruth;

/// Maximum-likelihood LID estimate for one point from its ascending k-NN
/// distances (Levina & Bickel 2004): `-(mean of ln(d_i / d_k))^-1`.
/// Returns `None` when the distances are degenerate (fewer than two
/// strictly positive values, or all equal to the max).
pub fn lid_mle(knn_dists: &[f32]) -> Option<f64> {
    let dk = *knn_dists.last()? as f64;
    if dk <= 0.0 || dk.is_nan() {
        return None;
    }
    let logs: Vec<f64> = knn_dists
        .iter()
        .filter(|&&d| d > 0.0)
        .map(|&d| (f64::from(d) / dk).ln())
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let mean = logs.iter().sum::<f64>() / logs.len() as f64;
    if mean >= 0.0 {
        return None; // all distances equal: LID undefined (infinite)
    }
    Some(-1.0 / mean)
}

/// Summary statistics over a ground-truth k-NN structure.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Number of points profiled.
    pub n: usize,
    /// Neighbors per point used.
    pub k: usize,
    /// Mean LID over points where the estimator is defined.
    pub mean_lid: f64,
    /// Median LID.
    pub median_lid: f64,
    /// Mean distance to the nearest neighbor.
    pub mean_nn_dist: f64,
    /// Mean distance to the k-th neighbor.
    pub mean_kth_dist: f64,
    /// `mean_kth / mean_nn` — a contrast measure; near 1 means the k-NN
    /// shell is thin (hard, high-LID data), large means strong locality.
    pub expansion: f64,
}

/// Profile a dataset from its exact ground truth (see
/// [`crate::ground_truth::brute_force_knng`]).
pub fn profile(truth: &GroundTruth) -> DatasetProfile {
    assert!(!truth.is_empty(), "cannot profile empty ground truth");
    let k = truth.dists[0].len();
    assert!(k >= 2, "need at least 2 neighbors to profile");
    let mut lids: Vec<f64> = truth.dists.iter().filter_map(|d| lid_mle(d)).collect();
    lids.sort_unstable_by(|a, b| a.total_cmp(b));
    let mean_lid = if lids.is_empty() {
        f64::NAN
    } else {
        lids.iter().sum::<f64>() / lids.len() as f64
    };
    let median_lid = if lids.is_empty() {
        f64::NAN
    } else {
        lids[lids.len() / 2]
    };
    let mean_nn_dist =
        truth.dists.iter().map(|d| f64::from(d[0])).sum::<f64>() / truth.len() as f64;
    let mean_kth_dist =
        truth.dists.iter().map(|d| f64::from(d[k - 1])).sum::<f64>() / truth.len() as f64;
    DatasetProfile {
        n: truth.len(),
        k,
        mean_lid,
        median_lid,
        mean_nn_dist,
        mean_kth_dist,
        expansion: if mean_nn_dist > 0.0 {
            mean_kth_dist / mean_nn_dist
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::brute_force_knng;
    use crate::metric::L2;
    use crate::synth::{gaussian_mixture, uniform, MixtureParams};

    #[test]
    fn lid_of_geometric_distances_matches_theory() {
        // On a 1-D uniform line, k-NN distances grow ~linearly: d_i = i/k.
        // The MLE over d_i/d_k = i/k gives LID ~= 1.
        let dists: Vec<f32> = (1..=50).map(|i| i as f32 / 50.0).collect();
        let lid = lid_mle(&dists).unwrap();
        assert!((lid - 1.0).abs() < 0.15, "line LID was {lid}");
    }

    #[test]
    fn lid_scales_with_true_dimension() {
        // d-dimensional uniform data has d_i ~ (i/k)^(1/d): the estimator
        // must rank dimensions correctly.
        let mut lids = Vec::new();
        for d in [2usize, 8] {
            let set = uniform(800, d, 7);
            let truth = brute_force_knng(&set, &L2, 20);
            lids.push(profile(&truth).mean_lid);
        }
        assert!(
            lids[1] > lids[0] * 1.5,
            "LID must grow with dimension: {lids:?}"
        );
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert_eq!(lid_mle(&[]), None);
        assert_eq!(lid_mle(&[0.0, 0.0]), None);
        assert_eq!(lid_mle(&[1.0, 1.0, 1.0]), None);
        assert_eq!(lid_mle(&[0.5]), None);
    }

    #[test]
    fn clustered_data_has_lower_lid_than_uniform() {
        // Cluster structure concentrates neighbors: the effective local
        // dimension drops below the ambient one.
        let dim = 16;
        let uni = uniform(600, dim, 3);
        let clu = gaussian_mixture(
            MixtureParams {
                n: 600,
                dim,
                n_clusters: 12,
                center_spread: 30.0,
                cluster_std: 0.5,
            },
            3,
        );
        let p_uni = profile(&brute_force_knng(&uni, &L2, 15));
        let p_clu = profile(&brute_force_knng(&clu, &L2, 15));
        assert!(
            p_clu.mean_lid < p_uni.mean_lid,
            "clusters should reduce LID: {} vs {}",
            p_clu.mean_lid,
            p_uni.mean_lid
        );
    }

    #[test]
    fn profile_reports_consistent_shape() {
        let set = uniform(300, 4, 11);
        let truth = brute_force_knng(&set, &L2, 10);
        let p = profile(&truth);
        assert_eq!(p.n, 300);
        assert_eq!(p.k, 10);
        assert!(p.mean_kth_dist >= p.mean_nn_dist);
        assert!(p.expansion >= 1.0);
        assert!(p.mean_lid.is_finite());
    }
}
