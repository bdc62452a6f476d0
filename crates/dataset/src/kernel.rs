//! Fixed-width batched distance kernels with a documented scalar reference.
//!
//! Every floating-point reduction in this module accumulates into **eight
//! independent lanes** (`LANES = 8`) and then folds the lanes together in
//! lane order `0, 1, .., 7`, followed by the tail elements in index order.
//! That accumulation order is the *determinism contract*: the runtime-
//! dispatched SIMD paths reproduce it exactly (vertical `mul` + `add` per
//! 8-wide chunk, then a sequential horizontal fold), so every dispatch path
//! is **bit-identical** to [`dot_scalar`] / [`l1_scalar`]. FMA is never
//! used — a fused multiply-add rounds once where `mul`+`add` rounds twice,
//! which would break the bit-identity guarantee between paths.
//!
//! Derived quantities (`||a-b||² = ||a||² + ||b||² − 2a·b`, cosine) are
//! built from these primitives via the shared combiners below so that a
//! cached-norm evaluation and a from-scratch evaluation follow the exact
//! same arithmetic and produce the same bits.
//!
//! [`dot_x8`] scores eight pairs that share one operand in one pass and
//! returns each pair's [`dot`] bits (eight accumulators, then an 8×8
//! transpose so the fold and the tail keep the reference order).
//!
//! The integer kernels ([`sq_l2_u8`], [`hamming_u8`]) need no such order:
//! an integer sum is exact, so any evaluation order gives the same integer
//! and the same `as f32`. They accumulate in `u32` over blocks of
//! [`INT_BLOCK`] elements — short enough that a block cannot overflow —
//! widen into `u64` per block, and are dispatched like the f32 kernels: a
//! portable body and an AVX2 twin behind [`dispatch`]. [`sq_l2_u8_x8`] is
//! [`dot_x8`]'s integer twin: eight pairs sharing one operand, each with
//! [`sq_l2_u8`]'s integer.

use std::sync::atomic::{AtomicU8, Ordering};

/// Accumulation width of the scalar reference (and SIMD chunk width).
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Which kernel implementation services the reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable 8-lane scalar reference (always available).
    Scalar,
    /// AVX2 256-bit path (x86-64 only, bit-identical to `Scalar`).
    Avx2,
}

impl Dispatch {
    /// Stable lowercase name, used in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Avx2 => "avx2",
        }
    }
}

const DISPATCH_UNSET: u8 = 0;
const DISPATCH_SCALAR: u8 = 1;
const DISPATCH_AVX2: u8 = 2;

static DISPATCH: AtomicU8 = AtomicU8::new(DISPATCH_UNSET);

fn detect() -> u8 {
    if std::env::var("DNND_KERNEL").as_deref() == Ok("scalar") {
        return DISPATCH_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return DISPATCH_AVX2;
        }
    }
    DISPATCH_SCALAR
}

/// The dispatch path currently in effect (detected once, then cached).
pub fn dispatch() -> Dispatch {
    let mut d = DISPATCH.load(Ordering::Relaxed);
    if d == DISPATCH_UNSET {
        d = detect();
        DISPATCH.store(d, Ordering::Relaxed);
    }
    match d {
        DISPATCH_AVX2 => Dispatch::Avx2,
        _ => Dispatch::Scalar,
    }
}

/// Force a dispatch path (tests/benches), or `None` to re-detect.
/// Process-global; callers that race only ever observe one of the two
/// bit-identical paths, so results are unaffected.
pub fn force_dispatch(d: Option<Dispatch>) {
    let v = match d {
        None => DISPATCH_UNSET,
        Some(Dispatch::Scalar) => DISPATCH_SCALAR,
        Some(Dispatch::Avx2) => DISPATCH_AVX2,
    };
    DISPATCH.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (the definition of "correct bits")
// ---------------------------------------------------------------------------

/// Scalar reference dot product: 8 independent lane accumulators over
/// full chunks (`acc[j] += a[j] * b[j]`), folded `acc[0] + acc[1] + ..
/// + acc[7]`, then tail elements added in index order.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for j in 0..LANES {
            acc[j] += a[base + j] * b[base + j];
        }
    }
    let mut s = acc[0];
    for lane in acc.iter().take(LANES).skip(1) {
        s += *lane;
    }
    for i in chunks * LANES..n {
        s += a[i] * b[i];
    }
    s
}

/// Scalar reference L1 (Manhattan) distance with the same 8-lane
/// accumulation order as [`dot_scalar`].
pub fn l1_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for j in 0..LANES {
            acc[j] += (a[base + j] - b[base + j]).abs();
        }
    }
    let mut s = acc[0];
    for lane in acc.iter().take(LANES).skip(1) {
        s += *lane;
    }
    for i in chunks * LANES..n {
        s += (a[i] - b[i]).abs();
    }
    s
}

/// Elements per block of the integer kernels. A block's sum of squared
/// byte differences is at most 256 · 255² < 2²⁴, so a `u32` accumulator
/// cannot overflow inside one.
pub const INT_BLOCK: usize = 256;

/// Portable squared L2 over bytes (the body both dispatch paths compile).
#[inline(always)]
fn sq_l2_u8_body(a: &[u8], b: &[u8]) -> u64 {
    let n = a.len().min(b.len());
    let mut total = 0u64;
    for (ca, cb) in a[..n].chunks(INT_BLOCK).zip(b[..n].chunks(INT_BLOCK)) {
        let mut acc = 0u32;
        for (&x, &y) in ca.iter().zip(cb) {
            let d = u32::from(x.abs_diff(y));
            acc += d * d;
        }
        total += u64::from(acc);
    }
    total
}

/// Portable Hamming distance over bytes (the body both dispatch paths
/// compile); a longer string's excess bytes all count as differing.
#[inline(always)]
fn hamming_u8_body(a: &[u8], b: &[u8]) -> u64 {
    let n = a.len().min(b.len());
    let mut total = (a.len().max(b.len()) - n) as u64;
    for (ca, cb) in a[..n].chunks(INT_BLOCK).zip(b[..n].chunks(INT_BLOCK)) {
        let mut acc = 0u32;
        for (&x, &y) in ca.iter().zip(cb) {
            acc += u32::from(x != y);
        }
        total += u64::from(acc);
    }
    total
}

// ---------------------------------------------------------------------------
// AVX2 kernels — bit-identical twins of the scalar reference
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    use std::array::from_fn;

    /// Fold a 256-bit accumulator in lane order 0..7, matching the scalar
    /// reference fold exactly.
    #[target_feature(enable = "avx2")]
    unsafe fn fold_lanes(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut s = lanes[0];
        for lane in lanes.iter().take(LANES).skip(1) {
            s += *lane;
        }
        s
    }

    /// AVX2 dot product. Uses `mul` then `add` (never FMA) so each lane
    /// performs the same two roundings as the scalar reference.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * LANES;
            let va = _mm256_loadu_ps(a.as_ptr().add(base));
            let vb = _mm256_loadu_ps(b.as_ptr().add(base));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut s = fold_lanes(acc);
        for i in chunks * LANES..n {
            s += a.get_unchecked(i) * b.get_unchecked(i);
        }
        s
    }

    /// Eight [`dot`]s sharing one operand, register-blocked: each 8-wide
    /// step loads `shared` once and each of `others` once, into eight
    /// accumulators; an 8×8 transpose makes the lane fold and the tail
    /// vector adds in every pair's scalar order.
    ///
    /// # Safety
    /// The CPU must support AVX2, and every one of `others` must be as long
    /// as `shared`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_x8(shared: &[f32], others: &[&[f32]; LANES]) -> [f32; LANES] {
        let n = shared.len();
        let chunks = n / LANES;
        let mut acc = [_mm256_setzero_ps(); LANES];
        for c in 0..chunks {
            let base = c * LANES;
            // SAFETY: `base + 8 <= n`, and every row is `n` long.
            let s = _mm256_loadu_ps(shared.as_ptr().add(base));
            for (acc, other) in acc.iter_mut().zip(others) {
                let o = _mm256_loadu_ps(other.as_ptr().add(base));
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(s, o));
            }
        }
        // The transpose: interleave neighbouring accumulators, then pairs of
        // them, then their 128-bit halves; `lane[i]` holds every pair's
        // lane `i`, pair `j` in lane `j`.
        let t: [__m256; LANES] = from_fn(|i| match i % 2 {
            0 => _mm256_unpacklo_ps(acc[i], acc[i + 1]),
            _ => _mm256_unpackhi_ps(acc[i - 1], acc[i]),
        });
        let s: [__m256; LANES] = from_fn(|i| {
            let a = (i & 4) + (i & 2) / 2;
            match i % 2 {
                0 => _mm256_shuffle_ps::<0x44>(t[a], t[a + 2]),
                _ => _mm256_shuffle_ps::<0xEE>(t[a], t[a + 2]),
            }
        });
        let lane: [__m256; LANES] = from_fn(|i| match i / 4 {
            0 => _mm256_permute2f128_ps::<0x20>(s[i % 4], s[i % 4 + 4]),
            _ => _mm256_permute2f128_ps::<0x31>(s[i % 4], s[i % 4 + 4]),
        });
        let mut sum = lane[1..]
            .iter()
            .fold(lane[0], |sum, &l| _mm256_add_ps(sum, l));
        for i in chunks * LANES..n {
            let s = _mm256_set1_ps(*shared.get_unchecked(i));
            let o: [f32; LANES] = from_fn(|j| *others[j].get_unchecked(i));
            let o = _mm256_loadu_ps(o.as_ptr());
            sum = _mm256_add_ps(sum, _mm256_mul_ps(s, o));
        }
        let mut out = [0.0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), sum);
        out
    }

    /// AVX2 L1 distance; |x| via sign-bit mask, same rounding as scalar.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l1(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let chunks = n / LANES;
        let sign_mask = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let base = c * LANES;
            let va = _mm256_loadu_ps(a.as_ptr().add(base));
            let vb = _mm256_loadu_ps(b.as_ptr().add(base));
            let diff = _mm256_sub_ps(va, vb);
            acc = _mm256_add_ps(acc, _mm256_andnot_ps(sign_mask, diff));
        }
        let mut s = fold_lanes(acc);
        for i in chunks * LANES..n {
            s += (a.get_unchecked(i) - b.get_unchecked(i)).abs();
        }
        s
    }

    /// AVX2 squared L2 over bytes, 32 at a time: `|a − b|` by saturating
    /// subtraction both ways, widened to 16 bits, then `madd` squares and
    /// pair-sums into eight 32-bit lanes. A lane takes at most
    /// 4 · 255² per step and a block is 8 steps, so it cannot overflow
    /// before it is widened into the `u64` total; the tail shorter than 32
    /// goes through [`super::sq_l2_u8_body`]. The sum is an exact integer,
    /// so it equals the portable body's whatever the order.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_u8(a: &[u8], b: &[u8]) -> u64 {
        const STEP: usize = 32;
        let n = a.len().min(b.len());
        let zero = _mm256_setzero_si256();
        let mut total = 0u64;
        for (ca, cb) in a[..n]
            .chunks(super::INT_BLOCK)
            .zip(b[..n].chunks(super::INT_BLOCK))
        {
            let (mut sa, mut sb) = (ca.chunks_exact(STEP), cb.chunks_exact(STEP));
            let mut acc = zero;
            for (pa, pb) in (&mut sa).zip(&mut sb) {
                // SAFETY: `chunks_exact` makes `pa` and `pb` exactly 32
                // readable bytes each; `loadu` needs no alignment.
                let va = _mm256_loadu_si256(pa.as_ptr().cast());
                let vb = _mm256_loadu_si256(pb.as_ptr().cast());
                let d = _mm256_or_si256(_mm256_subs_epu8(va, vb), _mm256_subs_epu8(vb, va));
                let lo = _mm256_unpacklo_epi8(d, zero);
                let hi = _mm256_unpackhi_epi8(d, zero);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(lo, lo));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(hi, hi));
            }
            let mut lanes = [0u32; LANES];
            // SAFETY: `lanes` is 32 writable bytes; `storeu` needs no
            // alignment.
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
            total += lanes.iter().map(|&lane| u64::from(lane)).sum::<u64>();
            total += super::sq_l2_u8_body(sa.remainder(), sb.remainder());
        }
        total
    }

    /// Eight [`sq_l2_u8`]s sharing one operand: each 32-byte step loads
    /// `shared` once and each of `others` once, into eight accumulators. At
    /// the end of a block a horizontal-add tree reduces them to the eight
    /// block sums (each at most 256 · 255² < 2³²), which widen into the
    /// `u64` totals; the tail shorter than 32 goes through
    /// [`super::sq_l2_u8_body`] per pair. Exact integers, so every pair's
    /// sum is [`sq_l2_u8`]'s.
    ///
    /// # Safety
    /// The CPU must support AVX2, and every one of `others` must be as long
    /// as `shared`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_u8_x8(shared: &[u8], others: &[&[u8]; LANES]) -> [u64; LANES] {
        const STEP: usize = 32;
        let zero = _mm256_setzero_si256();
        let mut total = [0u64; LANES];
        for (b, block) in shared.chunks(super::INT_BLOCK).enumerate() {
            let start = b * super::INT_BLOCK;
            let steps = block.len() / STEP;
            let mut acc = [zero; LANES];
            for step in 0..steps {
                let at = start + step * STEP;
                // SAFETY: `at + 32 <= shared.len()`, and every row is as
                // long; `loadu` needs no alignment.
                let s = _mm256_loadu_si256(shared.as_ptr().add(at).cast());
                for (acc, other) in acc.iter_mut().zip(others) {
                    let o = _mm256_loadu_si256(other.as_ptr().add(at).cast());
                    let d = _mm256_or_si256(_mm256_subs_epu8(s, o), _mm256_subs_epu8(o, s));
                    let lo = _mm256_unpacklo_epi8(d, zero);
                    let hi = _mm256_unpackhi_epi8(d, zero);
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(lo, lo));
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(hi, hi));
                }
            }
            // Two rounds of `hadd` leave, per 128-bit half, four pairs'
            // half-sums; adding the halves gives pair `j`'s block sum in
            // lane `j`.
            let h: [__m256i; 4] = from_fn(|i| _mm256_hadd_epi32(acc[2 * i], acc[2 * i + 1]));
            let (h03, h47) = (_mm256_hadd_epi32(h[0], h[1]), _mm256_hadd_epi32(h[2], h[3]));
            let sums = _mm256_add_epi32(
                _mm256_permute2x128_si256::<0x20>(h03, h47),
                _mm256_permute2x128_si256::<0x31>(h03, h47),
            );
            let mut lanes = [0u32; LANES];
            // SAFETY: `lanes` is 32 writable bytes; `storeu` needs no
            // alignment.
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums);
            let tail = start + steps * STEP..start + block.len();
            for ((total, &lane), other) in total.iter_mut().zip(&lanes).zip(others) {
                *total += u64::from(lane)
                    + super::sq_l2_u8_body(&shared[tail.clone()], &other[tail.clone()]);
            }
        }
        total
    }

    /// [`super::hamming_u8_body`] compiled with AVX2 enabled: the same
    /// count, from wider vectors.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hamming_u8(a: &[u8], b: &[u8]) -> u64 {
        super::hamming_u8_body(a, b)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// Dot product via the active dispatch path (bit-identical either way).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if dispatch() == Dispatch::Avx2 {
            // Safety: dispatch() only returns Avx2 when the CPU has it.
            return unsafe { avx2::dot(a, b) };
        }
    }
    dot_scalar(a, b)
}

/// `dot(shared, others[j])` for eight vectors in one pass, each with
/// [`dot`]'s bits; the scalar path (or a length mismatch) is [`dot_scalar`]
/// per pair. Which operand's NaN payload a NaN result carries is left
/// unspecified, as it is for any Rust float product.
pub fn dot_x8(shared: &[f32], others: &[&[f32]; LANES]) -> [f32; LANES] {
    #[cfg(target_arch = "x86_64")]
    if dispatch() == Dispatch::Avx2 && others.iter().all(|o| o.len() == shared.len()) {
        // Safety: dispatch() only returns Avx2 when the CPU has it, and the
        // lengths were just checked.
        return unsafe { avx2::dot_x8(shared, others) };
    }
    others.map(|o| dot_scalar(shared, o))
}

/// L1 distance via the active dispatch path (bit-identical either way).
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if dispatch() == Dispatch::Avx2 {
            // Safety: dispatch() only returns Avx2 when the CPU has it.
            return unsafe { avx2::l1(a, b) };
        }
    }
    l1_scalar(a, b)
}

/// Squared Euclidean norm `||v||² = v·v` (the cached-norm primitive).
#[inline]
pub fn norm_sq(v: &[f32]) -> f32 {
    dot(v, v)
}

// ---------------------------------------------------------------------------
// Shared combiners — one arithmetic for cached and uncached evaluation
// ---------------------------------------------------------------------------

/// `||a-b||²` from precomputed `||a||²`, `||b||²` and `a·b`. Clamped at
/// zero because catastrophic cancellation can produce a tiny negative
/// value, which would turn into NaN under a later `sqrt`.
#[inline]
pub fn sq_l2_from_dot(na_sq: f32, nb_sq: f32, dot_ab: f32) -> f32 {
    (na_sq + nb_sq - 2.0 * dot_ab).max(0.0)
}

/// Cosine distance `1 − cos(a, b)` from precomputed squared norms and the
/// dot product. Zero-vector convention matches `Metric`: two zero vectors
/// are identical (distance 0), one zero vector is maximally far (1).
#[inline]
pub fn cosine_from_dot(na_sq: f32, nb_sq: f32, dot_ab: f32) -> f32 {
    if na_sq == 0.0 || nb_sq == 0.0 {
        return if na_sq == nb_sq { 0.0 } else { 1.0 };
    }
    let cos = (dot_ab / (na_sq.sqrt() * nb_sq.sqrt())).clamp(-1.0, 1.0);
    1.0 - cos
}

/// Squared Euclidean distance over byte strings via the active dispatch
/// path: an exact integer, the same on either. The lengths must agree
/// (checked in debug builds; release compares the common prefix).
#[inline]
pub fn sq_l2_u8(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if dispatch() == Dispatch::Avx2 {
            // Safety: dispatch() only returns Avx2 when the CPU has it.
            return unsafe { avx2::sq_l2_u8(a, b) };
        }
    }
    sq_l2_u8_body(a, b)
}

/// `sq_l2_u8(shared, others[j])` for eight byte strings in one pass: the
/// same exact integers, with `shared` read once per 32-byte step. The
/// portable path (or a length mismatch) is the portable body per pair.
pub fn sq_l2_u8_x8(shared: &[u8], others: &[&[u8]; LANES]) -> [u64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if dispatch() == Dispatch::Avx2 && others.iter().all(|o| o.len() == shared.len()) {
        // Safety: dispatch() only returns Avx2 when the CPU has it, and the
        // lengths were just checked.
        return unsafe { avx2::sq_l2_u8_x8(shared, others) };
    }
    others.map(|o| sq_l2_u8_body(shared, o))
}

/// Hamming distance over byte strings via the active dispatch path: count
/// of positions whose bytes differ, plus the excess length of the longer
/// string.
#[inline]
pub fn hamming_u8(a: &[u8], b: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if dispatch() == Dispatch::Avx2 {
            // Safety: dispatch() only returns Avx2 when the CPU has it.
            return unsafe { avx2::hamming_u8(a, b) };
        }
    }
    hamming_u8_body(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
        // Small deterministic LCG; values in [-1, 1).
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1 << 23) as f32) - 1.0
        };
        let a: Vec<f32> = (0..n).map(|_| next()).collect();
        let b: Vec<f32> = (0..n).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn scalar_dot_matches_exact_on_integers() {
        let a: Vec<f32> = (1..=20).map(|i| i as f32).collect();
        let b: Vec<f32> = (1..=20).map(|i| (21 - i) as f32).collect();
        let expect: f32 = (1..=20).map(|i| (i * (21 - i)) as f32).sum();
        assert_eq!(dot_scalar(&a, &b), expect);
    }

    #[test]
    fn avx2_bit_identical_to_scalar_when_available() {
        if dispatch() != Dispatch::Avx2 {
            return; // nothing to compare on this host
        }
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 300, 960] {
            let (a, b) = vecs(n as u64 + 1, n);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                l1(&a, &b).to_bits(),
                l1_scalar(&a, &b).to_bits(),
                "l1 n={n}"
            );
        }
    }

    #[test]
    fn force_dispatch_round_trips() {
        let before = dispatch();
        force_dispatch(Some(Dispatch::Scalar));
        assert_eq!(dispatch(), Dispatch::Scalar);
        force_dispatch(Some(before));
        assert_eq!(dispatch(), before);
    }

    #[test]
    fn combiners_are_sane() {
        let (a, b) = vecs(3, 64);
        let d = sq_l2_from_dot(norm_sq(&a), norm_sq(&b), dot(&a, &b));
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((d - naive).abs() <= 1e-4 * naive.max(1.0));
        // Cancellation clamp: identical vectors never go negative.
        let same = sq_l2_from_dot(norm_sq(&a), norm_sq(&a), dot(&a, &a));
        assert!(same >= 0.0);
        assert_eq!(cosine_from_dot(0.0, 0.0, 0.0), 0.0);
        assert_eq!(cosine_from_dot(0.0, 1.0, 0.0), 1.0);
        let self_cos = cosine_from_dot(norm_sq(&a), norm_sq(&a), dot(&a, &a));
        assert!((0.0..=1e-6).contains(&self_cos));
    }

    #[test]
    fn sq_l2_u8_is_exact_across_blocks_and_paths() {
        assert_eq!(sq_l2_u8(&[0, 10], &[3, 6]), 25);
        assert_eq!(sq_l2_u8(&[], &[]), 0);
        // Longer than a block and than a 32-byte step, with a ragged tail.
        let a: Vec<u8> = (0..1_000u32).map(|i| (i * 7 % 256) as u8).collect();
        let b: Vec<u8> = (0..1_000u32).map(|i| (i * 13 % 251) as u8).collect();
        let naive: u64 = (a.iter().zip(&b))
            .map(|(&x, &y)| u64::from(x.abs_diff(y)).pow(2))
            .sum();
        assert_eq!(sq_l2_u8(&a, &b), naive);
        assert_eq!(sq_l2_u8_body(&a, &b), naive);
    }

    #[test]
    fn hamming_counts_and_length_mismatch() {
        assert_eq!(hamming_u8(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(hamming_u8(&[], &[]), 0);
        assert_eq!(hamming_u8(&[1, 2], &[1, 2, 3, 4]), 2);
        let a: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut b = a.clone();
        b[17] ^= 0xff;
        b[63] ^= 0x01;
        assert_eq!(hamming_u8(&a, &b), 2);
    }
}
