//! Batched distance evaluation: the `BatchMetric` extension trait plus
//! cached-norm preprocessing.
//!
//! The NN-Descent family naturally emits 1×N ("this query against these
//! candidates") and M×N ("these queries against those candidates") shapes;
//! `BatchMetric` gives every metric those entry points while preserving the
//! per-pair bits of `Metric::distance` exactly. The dot-product family
//! (SquaredL2 / L2 / Cosine / InnerProduct) additionally exploits
//! `||a-b||² = ||a||² + ||b||² − 2a·b`: [`BatchMetric::preprocess`]
//! computes `||p||²` once per [`PointSet`] and batched evaluation reads the
//! cache instead of re-deriving norms per pair. Because the cache is filled
//! by the *same* kernel (`kernel::norm_sq`) that an uncached evaluation
//! would call, cached and uncached results are bit-identical.
//!
//! Cache invalidation contract: a [`NormCache`] is valid only for the exact
//! `PointSet` it was built from — any mutation or reordering of the set
//! requires rebuilding it. Caches are indexed by `PointId`, so they must be
//! rebuilt per set, never shared across sets (an empty cache is always
//! valid and falls back to fresh norms).

use crate::kernel;
use crate::metric::{Chebyshev, Cosine, Hamming, InnerProduct, Jaccard, Metric, SquaredL2, L1, L2};
use crate::point::{Point, SparseVec};
use crate::set::{PointId, PointSet};

/// Squared norms (`||p||²`) for every point of one `PointSet`, or empty.
///
/// An empty cache is always safe: lookups fall back to recomputing the
/// norm with the same kernel, yielding the same bits at 3× the passes.
#[derive(Debug, Clone, Default)]
pub struct NormCache {
    norms_sq: Vec<f32>,
}

impl NormCache {
    /// A cache with no entries; every lookup recomputes.
    pub fn empty() -> NormCache {
        NormCache::default()
    }

    /// Whether any norms are cached.
    pub fn is_empty(&self) -> bool {
        self.norms_sq.is_empty()
    }

    /// Number of cached norms (= set length it was built from, or 0).
    pub fn len(&self) -> usize {
        self.norms_sq.len()
    }

    /// Build from precomputed squared norms (index = `PointId`).
    pub fn from_norms_sq(norms_sq: Vec<f32>) -> NormCache {
        NormCache { norms_sq }
    }

    /// `||point(id)||²` — cached if present, else recomputed with the
    /// identical kernel (bit-identical either way).
    #[inline]
    pub fn norm_sq_of(&self, id: PointId, v: &[f32]) -> f32 {
        match self.norms_sq.get(id as usize) {
            Some(&n) => n,
            None => kernel::norm_sq(v),
        }
    }
}

/// Build the squared-norm cache for a dense f32 set.
fn dense_norm_cache(set: &PointSet<Vec<f32>>) -> NormCache {
    NormCache::from_norms_sq(set.iter().map(|(_, p)| kernel::norm_sq(p)).collect())
}

/// Batched distance evaluation over a `PointSet`.
///
/// Default methods evaluate pair-by-pair via `Metric::distance`, so every
/// metric gets the batched entry points for free; the hot dense metrics
/// override them with cached-norm kernels. **Contract:** overrides must be
/// bit-identical to the default for every pair, and `out[i]` must equal
/// the distance for `cands[i]` (row-major `qs × cands` for M×N).
pub trait BatchMetric<P: Point>: Metric<P> {
    /// One-time per-set preprocessing (e.g. squared norms). The returned
    /// cache is only valid for `set` as passed — rebuild after mutation.
    fn preprocess(&self, _set: &PointSet<P>) -> NormCache {
        NormCache::empty()
    }

    /// Distances from `q` to each of `cands` (1×N). Clears `out` and
    /// leaves `out.len() == cands.len()`.
    fn distance_one_to_many(
        &self,
        q: &P,
        set: &PointSet<P>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(cands.iter().map(|&u| self.distance(q, set.point(u))));
    }

    /// Distances for every `(q, cand)` pair (M×N), row-major: row `i`
    /// holds distances from `qs[i]`. Leaves `out.len() == qs.len() *
    /// cands.len()`.
    fn distance_many_to_many(
        &self,
        qs: &[P],
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(qs.len() * cands.len());
        let mut row = Vec::with_capacity(cands.len());
        for q in qs {
            self.distance_one_to_many(q, set, cache, cands, &mut row);
            out.extend_from_slice(&row);
        }
    }
}

/// Shared 1×N body for the squared-L2 family: one norm for the query, one
/// cached (or recomputed) norm plus one dot product per candidate.
#[inline]
fn sq_l2_one_to_many(
    q: &[f32],
    set: &PointSet<Vec<f32>>,
    cache: &NormCache,
    cands: &[PointId],
    out: &mut Vec<f32>,
) {
    out.clear();
    out.reserve(cands.len());
    let nq = kernel::norm_sq(q);
    for &u in cands {
        let p = set.point(u);
        let np = cache.norm_sq_of(u, p);
        out.push(kernel::sq_l2_from_dot(nq, np, kernel::dot(q, p)));
    }
}

impl BatchMetric<Vec<f32>> for SquaredL2 {
    fn preprocess(&self, set: &PointSet<Vec<f32>>) -> NormCache {
        dense_norm_cache(set)
    }

    fn distance_one_to_many(
        &self,
        q: &Vec<f32>,
        set: &PointSet<Vec<f32>>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        sq_l2_one_to_many(q, set, cache, cands, out);
    }
}

impl BatchMetric<Vec<f32>> for L2 {
    fn preprocess(&self, set: &PointSet<Vec<f32>>) -> NormCache {
        dense_norm_cache(set)
    }

    fn distance_one_to_many(
        &self,
        q: &Vec<f32>,
        set: &PointSet<Vec<f32>>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        sq_l2_one_to_many(q, set, cache, cands, out);
        for d in out.iter_mut() {
            *d = d.sqrt();
        }
    }
}

impl BatchMetric<Vec<f32>> for Cosine {
    fn preprocess(&self, set: &PointSet<Vec<f32>>) -> NormCache {
        dense_norm_cache(set)
    }

    fn distance_one_to_many(
        &self,
        q: &Vec<f32>,
        set: &PointSet<Vec<f32>>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(cands.len());
        let nq = kernel::norm_sq(q);
        for &u in cands {
            let p = set.point(u);
            let np = cache.norm_sq_of(u, p);
            out.push(kernel::cosine_from_dot(nq, np, kernel::dot(q, p)));
        }
    }
}

impl BatchMetric<Vec<f32>> for InnerProduct {
    fn distance_one_to_many(
        &self,
        q: &Vec<f32>,
        set: &PointSet<Vec<f32>>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(cands.iter().map(|&u| -kernel::dot(q, set.point(u))));
    }
}

impl BatchMetric<Vec<f32>> for L1 {
    fn distance_one_to_many(
        &self,
        q: &Vec<f32>,
        set: &PointSet<Vec<f32>>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(cands.iter().map(|&u| kernel::l1(q, set.point(u))));
    }
}

// Order-independent / integer metrics ride on the defaults (already batch-
// shaped; no norm cache applies).
impl BatchMetric<Vec<f32>> for Chebyshev {}
impl BatchMetric<SparseVec> for Jaccard {}

impl BatchMetric<Vec<u8>> for Hamming {
    fn distance_one_to_many(
        &self,
        q: &Vec<u8>,
        set: &PointSet<Vec<u8>>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(
            cands
                .iter()
                .map(|&u| kernel::hamming_u8(q, set.point(u)) as f32),
        );
    }
}

impl BatchMetric<Vec<u8>> for L2 {
    fn distance_one_to_many(
        &self,
        q: &Vec<u8>,
        set: &PointSet<Vec<u8>>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(
            cands
                .iter()
                .map(|&u| (kernel::sq_l2_u8(q, set.point(u)) as f32).sqrt()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn assert_bits_match_scalar<M: BatchMetric<Vec<f32>>>(m: &M, set: &PointSet<Vec<f32>>) {
        let cache = m.preprocess(set);
        let ids: Vec<PointId> = (0..set.len() as PointId).collect();
        let mut out = Vec::new();
        for q in 0..set.len().min(8) {
            let qv = set.point(q as PointId);
            m.distance_one_to_many(qv, set, &cache, &ids, &mut out);
            assert_eq!(out.len(), ids.len());
            let mut out_nocache = Vec::new();
            m.distance_one_to_many(qv, set, &NormCache::empty(), &ids, &mut out_nocache);
            for (i, &u) in ids.iter().enumerate() {
                let scalar = m.distance(qv, set.point(u));
                assert_eq!(
                    out[i].to_bits(),
                    scalar.to_bits(),
                    "{} cached batch != scalar at q={q} u={u}",
                    Metric::<Vec<f32>>::name(m),
                );
                assert_eq!(out[i].to_bits(), out_nocache[i].to_bits());
            }
        }
    }

    #[test]
    fn dense_batches_are_bit_identical_to_scalar() {
        for dim in [3, 8, 17, 64] {
            let set = synth::uniform(40, dim, 7 + dim as u64);
            assert_bits_match_scalar(&SquaredL2, &set);
            assert_bits_match_scalar(&L2, &set);
            assert_bits_match_scalar(&Cosine, &set);
            assert_bits_match_scalar(&InnerProduct, &set);
            assert_bits_match_scalar(&L1, &set);
            assert_bits_match_scalar(&Chebyshev, &set);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let set = synth::uniform(10, 16, 3);
        let cache = SquaredL2.preprocess(&set);
        let mut out = vec![1.0, 2.0];
        SquaredL2.distance_one_to_many(set.point(0), &set, &cache, &[], &mut out);
        assert!(out.is_empty());
        SquaredL2.distance_one_to_many(set.point(0), &set, &cache, &[5], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].to_bits(),
            SquaredL2.distance(set.point(0), set.point(5)).to_bits()
        );
    }

    #[test]
    fn many_to_many_is_row_major() {
        let set = synth::uniform(12, 9, 5);
        let cache = L2.preprocess(&set);
        let qs: Vec<Vec<f32>> = vec![set.point(1).clone(), set.point(4).clone()];
        let cands: Vec<PointId> = vec![0, 3, 7];
        let mut out = Vec::new();
        L2.distance_many_to_many(&qs, &set, &cache, &cands, &mut out);
        assert_eq!(out.len(), 6);
        for (qi, q) in qs.iter().enumerate() {
            for (ci, &u) in cands.iter().enumerate() {
                assert_eq!(
                    out[qi * cands.len() + ci].to_bits(),
                    L2.distance(q, set.point(u)).to_bits()
                );
            }
        }
    }

    #[test]
    fn norm_cache_matches_fresh_norms() {
        let set = synth::uniform(30, 24, 9);
        let cache = Cosine.preprocess(&set);
        assert_eq!(cache.len(), set.len());
        for (id, p) in set.iter() {
            assert_eq!(
                cache.norm_sq_of(id, p).to_bits(),
                kernel::norm_sq(p).to_bits()
            );
        }
        assert!(NormCache::empty().is_empty());
    }
}
