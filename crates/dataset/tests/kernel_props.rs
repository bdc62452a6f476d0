//! Property tests for the batched distance-kernel subsystem: every batched
//! evaluation path (cached norms, uncached norms, whatever SIMD dispatch
//! the host picks) must be **bit-identical** to the documented 8-lane
//! chunked scalar reference (`kernel::dot_scalar` / `kernel::l1_scalar`
//! plus the shared combiners), for every metric and a dimension sweep that
//! crosses the lane boundary in every way: 1..8, 17, 64, 100, 300, 960.
//! The 1×N form takes 0..=19 candidates and the M×N form 0..=17 queries —
//! full blocks of eight and every remainder — over rows holding NaN
//! payloads, ±inf and −0.0 (a NaN result compares as NaN).
//! `L2` over bytes takes the M×N form in the same block shapes against
//! 0..=19 candidates, rows of 0 and 255 among them. The prepared 1×N form
//! (the query's scalar taken once, or read from the cache for a member)
//! must equal the one-shot form bit for bit, the members M×N form the
//! per-head 1×N form for every metric, and
//! `DistKey` — the order every consumer of these distances sorts by — must
//! be `(total_cmp, id)` over every bit pattern.

use dataset::batch::{BatchMetric, NormCache};
use dataset::kernel;
use dataset::metric::{
    Chebyshev, Cosine, Hamming, InnerProduct, Jaccard, Metric, SquaredL2, L1, L2,
};
use dataset::order::DistKey;
use dataset::point::Point;
use dataset::set::{PointId, PointSet};
use dataset::SparseVec;
use proptest::prelude::*;

const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 17, 64, 100, 300, 960];
const MAX_DIM: usize = 960;

/// Pure scalar-reference distances, written against the reference kernels
/// only (no dispatch): the oracle every batched path must match bitwise.
fn ref_sq_l2(a: &[f32], b: &[f32]) -> f32 {
    kernel::sq_l2_from_dot(
        kernel::dot_scalar(a, a),
        kernel::dot_scalar(b, b),
        kernel::dot_scalar(a, b),
    )
}

fn ref_cosine(a: &[f32], b: &[f32]) -> f32 {
    kernel::cosine_from_dot(
        kernel::dot_scalar(a, a),
        kernel::dot_scalar(b, b),
        kernel::dot_scalar(a, b),
    )
}

fn data(max: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-50.0f32..50.0, 2 * max..=2 * max)
}

/// The prepared 1×N form against the one-shot form, bit for bit: for the
/// outside query `q` (scalar from `prepare_query`) and for every member as
/// the query (scalar out of the cache, or prepared when there is none).
fn check_prepared<P: Point, M: BatchMetric<P>>(
    m: &M,
    q: &P,
    set: &PointSet<P>,
) -> Result<(), String> {
    let ids: Vec<PointId> = (0..set.len() as PointId).collect();
    let (mut one_shot, mut prepared) = (Vec::new(), Vec::new());
    for cache in [m.preprocess(set), NormCache::empty()] {
        let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<u32>>();
        m.distance_one_to_many(q, set, &cache, &ids, &mut one_shot);
        m.distance_one_to_many_prepared(q, m.prepare_query(q), set, &cache, &ids, &mut prepared);
        prop_assert_eq!(bits(&prepared), bits(&one_shot), "{}", m.name());
        for &v in &ids {
            m.distance_one_to_many(set.point(v), set, &cache, &ids, &mut one_shot);
            m.distance_member_to_many(v, set, &cache, &ids, &mut prepared);
            prop_assert_eq!(bits(&prepared), bits(&one_shot), "{} from {}", m.name(), v);
        }
        // The members M×N form against the per-head 1×N form: 17 heads (the
        // members cycled), so two full blocks of eight and a remainder. A
        // block's NaN may carry another payload than the pair's.
        let heads: Vec<PointId> = (0..17).map(|i| ids[i % ids.len()]).collect();
        let (mut block, mut per_head) = (Vec::new(), Vec::new());
        m.distance_members_to_many(&heads, set, &cache, &ids, &mut block);
        for &v in &heads {
            m.distance_member_to_many(v, set, &cache, &ids, &mut prepared);
            per_head.extend_from_slice(&prepared);
        }
        let blind = |v: &[f32]| v.iter().map(|&d| nan_blind_bits(d)).collect::<Vec<u32>>();
        prop_assert_eq!(blind(&block), blind(&per_head), "{} members M×N", m.name());
    }
    Ok(())
}

/// Entries the dot family must carry through bit for bit: two quiet NaN
/// payloads (one of them negative and signalling), both infinities, −0.0.
const SPECIAL_F32: [u32; 5] = [
    0x7fc0_1234,
    0x7f80_0000,
    0x8000_0000,
    0xffa0_0001,
    0xff80_0000,
];

/// A distance's bits, except that every NaN is one NaN. Rust leaves the
/// sign and payload of a NaN result unspecified (the compiler may swap the
/// operands of a `+` or `*`), and `kernel::dot` and `kernel::l1` already
/// disagree with their scalar references there: a row holding two NaN
/// payloads in different lanes folds to either one.
fn nan_blind_bits(d: f32) -> u32 {
    if d.is_nan() {
        f32::NAN.to_bits()
    } else {
        d.to_bits()
    }
}

/// `raw[at..at + dim]` with every third entry replaced by `SPECIAL_F32`,
/// cycled from `shift`. Rows shifted 0 and 3 put special against special at
/// the same index: two NaN payloads, +inf against −inf, −inf against −0.0.
fn special_row(raw: &[f32], at: usize, dim: usize, shift: usize) -> Vec<f32> {
    let special = |i: usize| f32::from_bits(SPECIAL_F32[(i / 3 + shift) % SPECIAL_F32.len()]);
    (raw[at..at + dim].iter().enumerate())
        .map(|(i, &x)| if i % 3 == 0 { special(i) } else { x })
        .collect()
}

/// Evaluate metric `m` batched (with and without cache) against the given
/// scalar reference, bit-for-bit, over every dim in the sweep. The set has
/// 19 rows — plain, aliased to the query, zero, and two with special
/// entries — so the 1×N form sees 0..=19 candidates and the M×N form
/// 0..=17 of the rows as queries: full blocks of eight and every remainder.
fn check_f32_metric<M, F>(m: &M, raw: &[f32], reference: F) -> Result<(), String>
where
    M: BatchMetric<Vec<f32>>,
    F: Fn(&[f32], &[f32]) -> f32,
{
    let name = Metric::<Vec<f32>>::name(m);
    let bits = |v: &[f32]| v.iter().map(|&d| nan_blind_bits(d)).collect::<Vec<u32>>();
    for &dim in DIMS {
        let q: Vec<f32> = raw[..dim].to_vec();
        let mut pts: Vec<Vec<f32>> = (0..15)
            .map(|r| raw[37 * r..37 * r + dim].to_vec())
            .collect();
        pts.push(q.clone()); // aliased: candidate identical to the query
        pts.push(vec![0.0; dim]); // zero vector (degenerate cosine branch)
        pts.push(special_row(raw, 100, dim, 0));
        pts.push(special_row(raw, 200, dim, 3));
        check_prepared(m, &q, &PointSet::new(pts[13..].to_vec()))?;
        let set = PointSet::new(pts);
        let ids: Vec<PointId> = (0..set.len() as PointId).collect();
        // want[r][u]: the reference from query row r (the outside query is
        // the last) to candidate u.
        let queries: Vec<&Vec<f32>> = set.points().iter().chain([&q]).collect();
        let want: Vec<Vec<u32>> = (queries.iter())
            .map(|qq| {
                (set.points().iter())
                    .map(|p| nan_blind_bits(reference(qq, p)))
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        for cache in [m.preprocess(&set), NormCache::empty()] {
            let cached = !cache.is_empty();
            for (r, qq) in [(set.len(), &q), (set.len() - 1, set.point(18))] {
                for c in 0..=ids.len() {
                    m.distance_one_to_many(qq, &set, &cache, &ids[..c], &mut out);
                    prop_assert_eq!(
                        bits(&out),
                        &want[r][..c],
                        "{} dim={} cached={} 1x{} from row {}",
                        name,
                        dim,
                        cached,
                        c,
                        r
                    );
                }
            }
            // Against the last seven rows: two plain, the aliased, the zero
            // and both special ones.
            for n_q in 0..=17 {
                let qs = &set.points()[..n_q];
                m.distance_many_to_many(qs, &set, &cache, &ids[12..], &mut out);
                let want_rows: Vec<&[u32]> = want[..n_q].iter().map(|row| &row[12..]).collect();
                prop_assert_eq!(
                    bits(&out),
                    want_rows.concat(),
                    "{} dim={} cached={} {}xN",
                    name,
                    dim,
                    cached,
                    n_q
                );
            }
        }
    }
    Ok(())
}

/// Widths the byte M×N sweep crosses: below, at and around one 32-byte
/// step, BigANN's 128, and a ragged 300.
const U8_DIMS: &[usize] = &[1, 7, 31, 32, 33, 128, 300];
const U8_MAX_DIM: usize = 300;

/// `L2` over bytes, M×N in block shapes: 19 rows — 17 from `bytes`, all 0
/// and all 255 — as 0..=17 queries (outside the set, and as members)
/// against 0..=19 candidates, each distance the naive integer sum's.
fn check_l2_u8_blocks(bytes: &[u8]) -> Result<(), String> {
    for &dim in U8_DIMS {
        let mut rows: Vec<Vec<u8>> = (0..17)
            .map(|r| bytes[r * dim..(r + 1) * dim].to_vec())
            .collect();
        rows.insert(3, vec![0; dim]);
        rows.insert(11, vec![255; dim]);
        let want: Vec<Vec<u32>> = (rows.iter())
            .map(|q| {
                (rows.iter())
                    .map(|p| {
                        let sum: u64 = q
                            .iter()
                            .zip(p)
                            .map(|(&x, &y)| u64::from(x.abs_diff(y)).pow(2))
                            .sum();
                        (sum as f32).sqrt().to_bits()
                    })
                    .collect()
            })
            .collect();
        let set = PointSet::new(rows);
        let ids: Vec<PointId> = (0..set.len() as PointId).collect();
        let cache = BatchMetric::<Vec<u8>>::preprocess(&L2, &set);
        let mut out = Vec::new();
        for n_q in 0..=17 {
            for n_c in 0..=ids.len() {
                let want_rows: Vec<u32> = want[..n_q]
                    .iter()
                    .flat_map(|row| row[..n_c].to_vec())
                    .collect();
                L2.distance_many_to_many(&set.points()[..n_q], &set, &cache, &ids[..n_c], &mut out);
                let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(&got, &want_rows, "d{} {}x{}", dim, n_q, n_c);
                L2.distance_members_to_many(&ids[..n_q], &set, &cache, &ids[..n_c], &mut out);
                let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(&got, &want_rows, "d{} members {}x{}", dim, n_q, n_c);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dispatched_kernels_match_scalar_reference_bitwise(raw in data(MAX_DIM)) {
        // The dispatched primitives themselves (whatever path the host
        // selected) against the reference accumulation order.
        for &dim in DIMS {
            let a = &raw[..dim];
            let b = &raw[MAX_DIM..MAX_DIM + dim];
            prop_assert_eq!(kernel::dot(a, b).to_bits(), kernel::dot_scalar(a, b).to_bits());
            prop_assert_eq!(kernel::l1(a, b).to_bits(), kernel::l1_scalar(a, b).to_bits());
            prop_assert_eq!(kernel::norm_sq(a).to_bits(), kernel::dot_scalar(a, a).to_bits());
        }
    }

    #[test]
    fn batched_sq_l2_bit_identical(raw in data(MAX_DIM)) {
        check_f32_metric(&SquaredL2, &raw, ref_sq_l2)?;
    }

    #[test]
    fn batched_l2_bit_identical(raw in data(MAX_DIM)) {
        check_f32_metric(&L2, &raw, |a, b| ref_sq_l2(a, b).sqrt())?;
    }

    #[test]
    fn batched_cosine_bit_identical(raw in data(MAX_DIM)) {
        check_f32_metric(&Cosine, &raw, ref_cosine)?;
    }

    #[test]
    fn batched_inner_product_bit_identical(raw in data(MAX_DIM)) {
        check_f32_metric(&InnerProduct, &raw, |a, b| -kernel::dot_scalar(a, b))?;
    }

    #[test]
    fn batched_l1_bit_identical(raw in data(MAX_DIM)) {
        check_f32_metric(&L1, &raw, kernel::l1_scalar)?;
    }

    #[test]
    fn batched_chebyshev_bit_identical(raw in data(MAX_DIM)) {
        // Default (per-pair) batch impl vs Metric::distance directly.
        check_f32_metric(&Chebyshev, &raw, |a, b| {
            Chebyshev.distance(&a.to_vec(), &b.to_vec())
        })?;
    }

    #[test]
    fn batched_hamming_bit_identical(bytes in prop::collection::vec(any::<u8>(), 2 * MAX_DIM..=2 * MAX_DIM)) {
        for &dim in DIMS {
            let q: Vec<u8> = bytes[..dim].to_vec();
            let set = PointSet::new(vec![
                bytes[MAX_DIM..MAX_DIM + dim].to_vec(),
                q.clone(),
            ]);
            check_prepared(&Hamming, &q, &set)?;
            check_prepared(&L2, &q, &set)?;
            let cache = BatchMetric::<Vec<u8>>::preprocess(&Hamming, &set);
            let ids: Vec<PointId> = vec![0, 1];
            let mut out = Vec::new();
            Hamming.distance_one_to_many(&q, &set, &cache, &ids, &mut out);
            for (i, &u) in ids.iter().enumerate() {
                let want = kernel::hamming_u8(&q, set.point(u)) as f32;
                prop_assert_eq!(out[i].to_bits(), want.to_bits());
                prop_assert_eq!(out[i].to_bits(), Hamming.distance(&q, set.point(u)).to_bits());
            }
            prop_assert_eq!(out[1], 0.0); // aliased candidate
        }
    }

    #[test]
    fn batched_jaccard_bit_identical(ids_a in prop::collection::vec(0u32..500, 0..40),
                                     ids_b in prop::collection::vec(0u32..500, 0..40)) {
        let q = SparseVec::new(ids_a);
        let set = PointSet::new(vec![SparseVec::new(ids_b), q.clone(), SparseVec::default()]);
        check_prepared(&Jaccard, &q, &set)?;
        let cache = BatchMetric::<SparseVec>::preprocess(&Jaccard, &set);
        let ids: Vec<PointId> = vec![0, 1, 2];
        let mut out = Vec::new();
        Jaccard.distance_one_to_many(&q, &set, &cache, &ids, &mut out);
        for (i, &u) in ids.iter().enumerate() {
            prop_assert_eq!(out[i].to_bits(), Jaccard.distance(&q, set.point(u)).to_bits());
        }
        prop_assert_eq!(out[1], 0.0); // aliased candidate
    }
}

proptest! {
    // Each case sweeps 7 widths × 18 × 20 shapes; the bytes vary, the
    // shapes do not.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batched_l2_u8_blocks_bit_identical(bytes in prop::collection::vec(any::<u8>(), 17 * U8_MAX_DIM..=17 * U8_MAX_DIM)) {
        check_l2_u8_blocks(&bytes)?;
    }
}

/// Bit patterns an arbitrary `u32` almost never hits: both zeros, both
/// infinities, the subnormal range's ends, quiet and signalling NaNs of
/// both signs with the smallest and largest payloads.
const SPECIAL_BITS: [u32; 16] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x807f_ffff,
    0x0080_0000,
    0x7f7f_ffff,
    0x7f80_0000,
    0xff80_0000,
    0x7f80_0001,
    0xff80_0001,
    0x7fc0_0000,
    0xffc0_0000,
    0x7fff_ffff,
    0xffff_ffff,
];

fn dist_bits() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), prop::sample::select(SPECIAL_BITS.to_vec())]
}

/// `DistKey` packs `(f32::from_bits(bits), id)` losslessly and compares as
/// `(total_cmp, id)` — `Eq` included.
fn check_dist_key(a: (u32, PointId), b: (u32, PointId)) -> Result<(), String> {
    let key = |(bits, id): (u32, PointId)| DistKey::new(f32::from_bits(bits), id);
    let (ka, kb) = (key(a), key(b));
    prop_assert_eq!((ka.dist().to_bits(), ka.id()), a);
    prop_assert_eq!((kb.dist().to_bits(), kb.id()), b);
    let want = f32::from_bits(a.0)
        .total_cmp(&f32::from_bits(b.0))
        .then(a.1.cmp(&b.1));
    prop_assert_eq!(ka.cmp(&kb), want, "{:x?} vs {:x?}", a, b);
    prop_assert_eq!(ka == kb, want.is_eq());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dist_key_is_total_cmp_then_id_and_round_trips(
        a in (dist_bits(), any::<u32>()),
        b in (dist_bits(), any::<u32>()),
        same_id in any::<bool>(),
    ) {
        // Half the cases tie on the id, so the distance alone decides.
        check_dist_key(a, if same_id { (b.0, a.1) } else { b })?;
        // And a tie on the distance, so the id alone decides.
        check_dist_key(a, (a.0, b.1))?;
    }
}

#[test]
fn dist_key_orders_every_special_pattern_pair() {
    for a in SPECIAL_BITS {
        for b in SPECIAL_BITS {
            for ids in [(0, 0), (0, u32::MAX), (u32::MAX, 0), (7, 8)] {
                check_dist_key((a, ids.0), (b, ids.1)).unwrap();
            }
        }
    }
}

#[test]
fn empty_batches_for_every_metric() {
    let set = PointSet::new(vec![vec![1.0f32, 2.0], vec![3.0, 4.0]]);
    let q = vec![0.5f32, 0.5];
    let mut out = vec![9.0f32; 3];
    macro_rules! check_empty {
        ($m:expr) => {
            let cache = $m.preprocess(&set);
            $m.distance_one_to_many(&q, &set, &cache, &[], &mut out);
            assert!(
                out.is_empty(),
                "{} left stale output",
                Metric::<Vec<f32>>::name(&$m)
            );
            $m.distance_many_to_many(&[], &set, &cache, &[0, 1], &mut out);
            assert!(out.is_empty());
            // A full block of queries and a remainder, with no candidates.
            $m.distance_many_to_many(&vec![q.clone(); 9], &set, &cache, &[], &mut out);
            assert!(out.is_empty());
        };
    }
    check_empty!(SquaredL2);
    check_empty!(L2);
    check_empty!(Cosine);
    check_empty!(InnerProduct);
    check_empty!(L1);
    check_empty!(Chebyshev);
}

#[test]
fn singleton_and_aliased_batches() {
    let q = vec![0.25f32, -1.5, 3.0, 0.0, 7.5];
    let set = PointSet::new(vec![q.clone(), vec![1.0; 5]]);
    let cache = SquaredL2.preprocess(&set);
    let mut out = Vec::new();
    // Singleton batch.
    SquaredL2.distance_one_to_many(&q, &set, &cache, &[1], &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to_bits(), ref_sq_l2(&q, &[1.0; 5]).to_bits());
    // Aliased query == candidate: dot form cancels to exactly zero
    // (norms and dot come from the identical kernel invocation).
    SquaredL2.distance_one_to_many(&q, &set, &cache, &[0], &mut out);
    assert_eq!(out[0], 0.0);
    Cosine.distance_one_to_many(&q, &set, &Cosine.preprocess(&set), &[0], &mut out);
    assert!(out[0].abs() <= 1e-6);
}

/// Forcing the scalar dispatch path must not change any bit. Runs both
/// paths inside one test (force_dispatch is process-global state).
#[test]
fn forced_scalar_dispatch_is_bit_identical_to_auto() {
    let set = dataset::synth::uniform(64, 100, 42);
    let q = set.point(0).clone();
    let ids: Vec<PointId> = (0..set.len() as PointId).collect();
    let cache = SquaredL2.preprocess(&set);
    let mut auto_out = Vec::new();
    SquaredL2.distance_one_to_many(&q, &set, &cache, &ids, &mut auto_out);
    let before = kernel::dispatch();
    kernel::force_dispatch(Some(kernel::Dispatch::Scalar));
    let scalar_cache = SquaredL2.preprocess(&set);
    let mut scalar_out = Vec::new();
    SquaredL2.distance_one_to_many(&q, &set, &scalar_cache, &ids, &mut scalar_out);
    kernel::force_dispatch(Some(before));
    for (a, s) in auto_out.iter().zip(&scalar_out) {
        assert_eq!(a.to_bits(), s.to_bits());
    }
}
