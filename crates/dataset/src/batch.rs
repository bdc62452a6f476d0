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

    /// The cached `||point(id)||²`, if this cache holds one.
    #[inline]
    pub fn get(&self, id: PointId) -> Option<f32> {
        self.norms_sq.get(id as usize).copied()
    }

    /// `||point(id)||²` — cached if present, else recomputed with the
    /// identical kernel (bit-identical either way).
    #[inline]
    pub fn norm_sq_of(&self, id: PointId, v: &[f32]) -> f32 {
        self.get(id).unwrap_or_else(|| kernel::norm_sq(v))
    }
}

/// Build the squared-norm cache for a dense f32 set.
fn dense_norm_cache(set: &PointSet<Vec<f32>>) -> NormCache {
    NormCache::from_norms_sq(set.iter().map(|(_, p)| kernel::norm_sq(p)).collect())
}

/// Batched distance evaluation over a `PointSet`.
///
/// There are two overridable primitives, each with its query scalars taken
/// as arguments: the 1×N [`BatchMetric::distance_one_to_many_prepared`] and
/// the M×N [`BatchMetric::distance_many_to_many_prepared`]. Their defaults
/// evaluate pair-by-pair via `Metric::distance`, so every metric gets the
/// batched entry points for free; the hot dense metrics override the 1×N
/// form with cached-norm kernels, and the dot family and `L2` over bytes the
/// M×N form too, reading each candidate row once per eight queries.
/// **Contract:** an override must be bit-identical to the default for every
/// pair, and `out[i]` must equal the distance for `cands[i]` (row-major
/// `qs × cands` for M×N).
pub trait BatchMetric<P: Point>: Metric<P> {
    /// One-time per-set preprocessing: [`BatchMetric::prepare_query`] of
    /// every point, for the metrics that use it. The returned cache is only
    /// valid for `set` as passed — rebuild after mutation.
    fn preprocess(&self, _set: &PointSet<P>) -> NormCache {
        NormCache::empty()
    }

    /// The scalar of `q` the batched kernels need on every call: `||q||²`
    /// for the dot-product family, unused (zero) elsewhere. A loop that
    /// scores one query against many batches takes it once.
    fn prepare_query(&self, _q: &P) -> f32 {
        0.0
    }

    /// Distances from `q` to each of `cands` (1×N), given
    /// `q_prep == self.prepare_query(q)`. Clears `out` and leaves
    /// `out.len() == cands.len()`.
    fn distance_one_to_many_prepared(
        &self,
        q: &P,
        _q_prep: f32,
        set: &PointSet<P>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.extend(cands.iter().map(|&u| self.distance(q, set.point(u))));
    }

    /// [`BatchMetric::distance_one_to_many_prepared`] for a caller with one
    /// batch to score: prepares `q` itself.
    fn distance_one_to_many(
        &self,
        q: &P,
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        self.distance_one_to_many_prepared(q, self.prepare_query(q), set, cache, cands, out);
    }

    /// [`BatchMetric::distance_one_to_many`] from the member `set.point(v)`:
    /// its scalar is read from `cache` when it is there.
    fn distance_member_to_many(
        &self,
        v: PointId,
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        let q_prep = member_prep(self, v, set, cache);
        self.distance_one_to_many_prepared(set.point(v), q_prep, set, cache, cands, out);
    }

    /// Distances for every `(qs[i], cands[j])` pair (M×N), given
    /// `q_preps[i] == self.prepare_query(qs[i])`: **appends** them to `out`
    /// row-major, row `i` holding the distances from `qs[i]`.
    fn distance_many_to_many_prepared(
        &self,
        qs: &[&P],
        _q_preps: &[f32],
        set: &PointSet<P>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        for q in qs {
            out.extend(cands.iter().map(|&u| self.distance(q, set.point(u))));
        }
    }

    /// [`BatchMetric::distance_many_to_many_prepared`] for queries outside
    /// the set: prepares them itself, eight at a time. Clears `out` and
    /// leaves `out.len() == qs.len() * cands.len()`.
    fn distance_many_to_many(
        &self,
        qs: &[P],
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        let prep = |i: usize| self.prepare_query(&qs[i]);
        in_query_blocks(self, qs.len(), |i| &qs[i], prep, set, cache, cands, out);
    }

    /// [`BatchMetric::distance_many_to_many`] from the members `heads` of
    /// `set`, their scalars read from `cache` when they are there.
    fn distance_members_to_many(
        &self,
        heads: &[PointId],
        set: &PointSet<P>,
        cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        let row = |i: usize| set.point(heads[i]);
        let prep = |i: usize| member_prep(self, heads[i], set, cache);
        in_query_blocks(self, heads.len(), row, prep, set, cache, cands, out);
    }
}

/// The M×N wrappers' one loop: clears `out`, then hands the prepared form
/// the `n` queries — `row(i)` with scalar `prep(i)` — eight at a time, in
/// fixed arrays so that no call allocates. A short last block fills its
/// unused slots with its last row and a zero scalar, and passes only the
/// used ones.
#[allow(clippy::too_many_arguments)]
fn in_query_blocks<'q, P: Point + 'q, M: BatchMetric<P>>(
    metric: &M,
    n: usize,
    row: impl Fn(usize) -> &'q P,
    prep: impl Fn(usize) -> f32,
    set: &PointSet<P>,
    cache: &NormCache,
    cands: &[PointId],
    out: &mut Vec<f32>,
) {
    out.clear();
    for i0 in (0..n).step_by(kernel::LANES) {
        let len = kernel::LANES.min(n - i0);
        let rows: [&P; kernel::LANES] = std::array::from_fn(|j| row(i0 + j.min(len - 1)));
        let preps: [f32; kernel::LANES] =
            std::array::from_fn(|j| if j < len { prep(i0 + j) } else { 0.0 });
        metric.distance_many_to_many_prepared(&rows[..len], &preps[..len], set, cache, cands, out);
    }
}

/// The scalar of the member `set.point(v)`: read from `cache` when it is
/// there, else prepared.
fn member_prep<P: Point, M: BatchMetric<P>>(
    metric: &M,
    v: PointId,
    set: &PointSet<P>,
    cache: &NormCache,
) -> f32 {
    cache
        .get(v)
        .unwrap_or_else(|| metric.prepare_query(set.point(v)))
}

/// The M×N form of the register-blocked overrides: appends one row per
/// query to `out`. Each full block of eight queries starting at `i0` gets
/// candidate `u`'s eight distances from `x8(i0, block, u)`; a query past
/// the last full block gets each from `one(i, u)`.
fn blocked_rows<T>(
    qs: &[&Vec<T>],
    cands: &[PointId],
    out: &mut Vec<f32>,
    x8: impl Fn(usize, &[&[T]; kernel::LANES], PointId) -> [f32; kernel::LANES],
    one: impl Fn(usize, PointId) -> f32,
) {
    let n = cands.len();
    let start = out.len();
    out.resize(start + qs.len() * n, 0.0);
    let rows = &mut out[start..];
    let full = qs.len() / kernel::LANES * kernel::LANES;
    for i0 in (0..full).step_by(kernel::LANES) {
        let block: [&[T]; kernel::LANES] = std::array::from_fn(|j| &qs[i0 + j][..]);
        for (c, &u) in cands.iter().enumerate() {
            for (j, d) in x8(i0, &block, u).into_iter().enumerate() {
                rows[(i0 + j) * n + c] = d;
            }
        }
    }
    for i in full..qs.len() {
        for (c, &u) in cands.iter().enumerate() {
            rows[i * n + c] = one(i, u);
        }
    }
}

/// The dot-product family: norms cached per set and taken once per query
/// (`nq`); per candidate one cached (or recomputed) norm and one dot product,
/// combined by `$finish(nq, np, dot)`. The M×N form scores each candidate
/// row against eight queries at a time with [`kernel::dot_x8`], so the row
/// is read once per eight queries; a remainder takes one `dot` per pair.
macro_rules! dot_family {
    ($metric:ty, $finish:expr) => {
        impl BatchMetric<Vec<f32>> for $metric {
            fn preprocess(&self, set: &PointSet<Vec<f32>>) -> NormCache {
                dense_norm_cache(set)
            }

            fn prepare_query(&self, q: &Vec<f32>) -> f32 {
                kernel::norm_sq(q)
            }

            fn distance_one_to_many_prepared(
                &self,
                q: &Vec<f32>,
                nq: f32,
                set: &PointSet<Vec<f32>>,
                cache: &NormCache,
                cands: &[PointId],
                out: &mut Vec<f32>,
            ) {
                out.clear();
                out.extend(cands.iter().map(|&u| {
                    let p = set.point(u);
                    $finish(nq, cache.norm_sq_of(u, p), kernel::dot(q, p))
                }));
            }

            fn distance_many_to_many_prepared(
                &self,
                qs: &[&Vec<f32>],
                nqs: &[f32],
                set: &PointSet<Vec<f32>>,
                cache: &NormCache,
                cands: &[PointId],
                out: &mut Vec<f32>,
            ) {
                blocked_rows(
                    qs,
                    cands,
                    out,
                    |i0, block, u| {
                        let p = set.point(u);
                        let np = cache.norm_sq_of(u, p);
                        let dots = kernel::dot_x8(p, block);
                        std::array::from_fn(|j| $finish(nqs[i0 + j], np, dots[j]))
                    },
                    |i, u| {
                        let p = set.point(u);
                        $finish(nqs[i], cache.norm_sq_of(u, p), kernel::dot(qs[i], p))
                    },
                );
            }
        }
    };
}

dot_family!(SquaredL2, kernel::sq_l2_from_dot);
dot_family!(L2, |nq, np, dot| kernel::sq_l2_from_dot(nq, np, dot).sqrt());
dot_family!(Cosine, kernel::cosine_from_dot);

/// A metric with no per-query scalar: the 1×N form is `$pair` per candidate.
macro_rules! pairwise_batch {
    ($metric:ty, $point:ty, $pair:expr) => {
        impl BatchMetric<$point> for $metric {
            fn distance_one_to_many_prepared(
                &self,
                q: &$point,
                _q_prep: f32,
                set: &PointSet<$point>,
                _cache: &NormCache,
                cands: &[PointId],
                out: &mut Vec<f32>,
            ) {
                out.clear();
                out.extend(cands.iter().map(|&u| $pair(q, set.point(u))));
            }
        }
    };
}

pairwise_batch!(InnerProduct, Vec<f32>, |q, p| -kernel::dot(q, p));
pairwise_batch!(L1, Vec<f32>, kernel::l1);
pairwise_batch!(Hamming, Vec<u8>, |q, p| kernel::hamming_u8(q, p) as f32);

/// `L2` over bytes: the 1×N form is the default, one exact
/// [`kernel::sq_l2_u8`] per pair; the M×N form reads each candidate row once
/// per eight queries through [`kernel::sq_l2_u8_x8`].
impl BatchMetric<Vec<u8>> for L2 {
    fn distance_many_to_many_prepared(
        &self,
        qs: &[&Vec<u8>],
        _q_preps: &[f32],
        set: &PointSet<Vec<u8>>,
        _cache: &NormCache,
        cands: &[PointId],
        out: &mut Vec<f32>,
    ) {
        blocked_rows(
            qs,
            cands,
            out,
            |_, block, u| kernel::sq_l2_u8_x8(set.point(u), block).map(|s| (s as f32).sqrt()),
            |i, u| self.distance(qs[i], set.point(u)),
        );
    }
}

// Order-independent / sparse metrics ride on the defaults (already batch-
// shaped; no norm cache applies).
impl BatchMetric<Vec<f32>> for Chebyshev {}
impl BatchMetric<SparseVec> for Jaccard {}

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
