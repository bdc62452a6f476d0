//! Tier-1 pins for the two layers every query pays for before its first
//! heap update — the exact integer kernels of `dataset::kernel` and the
//! entry-point sampler of `nnd::search` — and for the brute-force ground
//! truth every recall is scored against.
//!
//! * The integer kernels, the eight-wide `sq_l2_u8_x8` pair by pair among
//!   them, must equal a naive `i64` sum on **both** dispatch paths, for every
//!   length around the block and vector boundaries and for rows long enough
//!   to overflow a `u32`.
//! * `L2` over `Vec<u8>` must give the same bits batched and per pair.
//! * `brute_force_queries` / `brute_force_knng` must give the ids and
//!   distance bits pinned below, on both dispatch paths.
//! * [`EntrySampler`] must give, for every `(seed, n, amount)`, the id
//!   sequence of the `rand` shim's `seq::index::sample` it replaced — every
//!   search digest in the repository rests on that. The deleted algorithm is
//!   written out below as the reference, `HashMap` and all.

use dataset::kernel::{self, Dispatch};
use dataset::synth::{gaussian_mixture, quantize_u8, split_queries, MixtureParams};
use dataset::{
    brute_force_knng, brute_force_queries, BatchMetric, Cosine, GroundTruth, Metric, NormCache,
    PointId, PointSet, SquaredL2, L2,
};
use nnd::EntrySampler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Mutex;

/// The dispatch paths this host can run.
fn dispatch_paths() -> Vec<Dispatch> {
    let mut paths = vec![Dispatch::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        paths.push(Dispatch::Avx2);
    }
    paths
}

/// Run `f` once under each dispatch path. The forced path is process-global,
/// so the tests of this file take turns.
fn on_each_path(mut f: impl FnMut(Dispatch)) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for path in dispatch_paths() {
        kernel::force_dispatch(Some(path));
        assert_eq!(kernel::dispatch(), path);
        f(path);
    }
    kernel::force_dispatch(None);
}

fn naive_sq_l2(a: &[u8], b: &[u8]) -> i64 {
    (a.iter().zip(b))
        .map(|(&x, &y)| (i64::from(x) - i64::from(y)).pow(2))
        .sum()
}

fn naive_hamming(a: &[u8], b: &[u8]) -> i64 {
    a.iter().zip(b).map(|(x, y)| i64::from(x != y)).sum()
}

fn random_bytes(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

#[test]
fn integer_kernels_equal_the_naive_sum_on_every_path() {
    on_each_path(|path| {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1D);
        let check = |a: &[u8], b: &[u8]| {
            let what = format!("{} at length {}", path.name(), a.len());
            assert_eq!(kernel::sq_l2_u8(a, b) as i64, naive_sq_l2(a, b), "{what}");
            assert_eq!(
                kernel::hamming_u8(a, b) as i64,
                naive_hamming(a, b),
                "{what}"
            );
        };
        for len in 0..=1025 {
            let (a, mut b) = (random_bytes(&mut rng, len), random_bytes(&mut rng, len));
            // Every third pair agrees on a stretch, so Hamming sees equal bytes.
            if len % 3 == 0 {
                b[..len / 2].copy_from_slice(&a[..len / 2]);
            }
            check(&a, &b);
        }
        // BigANN's and GIST's widths, and one whose extreme sum (70 000 · 255²)
        // does not fit a `u32`.
        for len in [128, 960, 70_000] {
            check(&random_bytes(&mut rng, len), &random_bytes(&mut rng, len));
            check(&vec![0; len], &vec![255; len]);
            check(&vec![255; len], &vec![0; len]);
        }
        assert_eq!(
            kernel::sq_l2_u8(&vec![0; 70_000], &vec![255; 70_000]),
            70_000 * 255 * 255
        );
    });
}

#[test]
fn eight_wide_sq_l2_u8_equals_the_naive_sum_on_every_path() {
    on_each_path(|path| {
        let mut rng = ChaCha8Rng::seed_from_u64(0x8E);
        let check = |shared: &[u8], others: &[Vec<u8>; 8]| {
            let got = kernel::sq_l2_u8_x8(shared, &others.each_ref().map(|o| &o[..]));
            for (j, (&got, other)) in got.iter().zip(others).enumerate() {
                let what = format!("{} at length {}, pair {j}", path.name(), shared.len());
                assert_eq!(got as i64, naive_sq_l2(shared, other), "{what}");
            }
        };
        for len in 0..=1025 {
            let shared = random_bytes(&mut rng, len);
            let mut others: [Vec<u8>; 8] = std::array::from_fn(|_| random_bytes(&mut rng, len));
            // One pair is the shared row itself, one its complement.
            others[3].clone_from(&shared);
            others[6] = shared.iter().map(|&x| !x).collect();
            check(&shared, &others);
        }
        // Rows of 0 against 255, long enough that one pair's sum (70 000 ·
        // 255²) does not fit a `u32`; half the pairs are equal rows.
        let (zeros, ones) = (vec![0u8; 70_000], vec![255u8; 70_000]);
        let mixed: [Vec<u8>; 8] = std::array::from_fn(|j| {
            if j % 2 == 0 {
                ones.clone()
            } else {
                zeros.clone()
            }
        });
        check(&zeros, &mixed);
        check(&ones, &mixed);
        let extreme = kernel::sq_l2_u8_x8(&zeros, &mixed.each_ref().map(|o| &o[..]));
        assert_eq!(extreme[0], 70_000 * 255 * 255);
    });
}

/// FNV-1a over a ground truth: per query the row length, then each id and
/// each distance's bits, in order.
fn truth_digest(h: &mut u64, gt: &GroundTruth) {
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (ids, dists) in gt.ids.iter().zip(&gt.dists) {
        mix(ids.len() as u64);
        ids.iter().for_each(|&id| mix(u64::from(id)));
        dists.iter().for_each(|d| mix(u64::from(d.to_bits())));
    }
}

/// One digest over every brute-force shape of `metric` on `(base, queries)`:
/// the 16 queries and the first 13 of them (a full block of eight and a
/// ragged one), and the k-NNG of all 300 base points and of the first 264;
/// each at `k` = 1, 10, 11. The base is wider than one 256-candidate column.
fn truth_digests<P: dataset::Point, M: BatchMetric<P>>(
    base: &PointSet<P>,
    queries: &PointSet<P>,
    metric: &M,
) -> (u64, u64) {
    let (mut q, mut g) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    let first = |set: &PointSet<P>, n: usize| PointSet::new(set.points()[..n].to_vec());
    for k in [1, 10, 11] {
        truth_digest(&mut q, &brute_force_queries(base, queries, metric, k));
        truth_digest(
            &mut q,
            &brute_force_queries(base, &first(queries, 13), metric, k),
        );
        truth_digest(&mut g, &brute_force_knng(base, metric, k));
        truth_digest(&mut g, &brute_force_knng(&first(base, 264), metric, k));
    }
    (q, g)
}

/// Every recall figure in the repository is scored against this output.
/// The constants were captured at commit `4373b7c` (the parent of the PR
/// that made the brute force score its queries eight at a time), *before*
/// any edit, and hold on both dispatch paths.
#[test]
fn ground_truth_is_pinned() {
    let (base, queries) = split_queries(
        gaussian_mixture(MixtureParams::embedding_like(316, 20), 31),
        16,
    );
    let (base_u8, queries_u8) = split_queries(
        quantize_u8(&gaussian_mixture(
            MixtureParams::embedding_like(316, 40),
            32,
        )),
        16,
    );
    #[rustfmt::skip]
    let want: [(&str, (u64, u64)); 4] = [
        ("l2", (0xfadd20ebf1efe3ff, 0x1aff6cdda85ae49e)),
        ("sql2", (0x22b0f4758ff2e811, 0x7c3613f197df8218)),
        ("cosine", (0x53168795fd3f9cc3, 0xa32f3a1e2fda3385)),
        ("l2_u8", (0xba96a475a8155757, 0x0ffe8de2ce6de34f)),
    ];
    on_each_path(|path| {
        let got = [
            truth_digests(&base, &queries, &L2),
            truth_digests(&base, &queries, &SquaredL2),
            truth_digests(&base, &queries, &Cosine),
            truth_digests(&base_u8, &queries_u8, &L2),
        ];
        let rows: Vec<String> = (want.iter().zip(got))
            .map(|((what, _), (q, g))| format!("(\"{what}\", ({q:#018x}, {g:#018x})),"))
            .collect();
        assert!(
            want.iter().map(|row| row.1).eq(got),
            "{} got:\n{}",
            path.name(),
            rows.join("\n")
        );
    });
}

#[test]
fn l2_over_bytes_is_bit_identical_batched_and_per_pair() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x2E);
    for dim in [1usize, 31, 128, 300, 960] {
        let mut rows: Vec<Vec<u8>> = (0..24).map(|_| random_bytes(&mut rng, dim)).collect();
        rows.push(vec![0; dim]);
        rows.push(vec![255; dim]);
        let set = PointSet::new(rows);
        let ids: Vec<PointId> = (0..set.len() as PointId).collect();
        // Per-pair bits on the portable path are the reference for all four
        // (path, shape) combinations.
        let mut reference: Vec<Vec<u32>> = Vec::new();
        on_each_path(|path| {
            let mut out = Vec::new();
            for (qi, q) in set.points().iter().enumerate() {
                L2.distance_one_to_many(q, &set, &NormCache::empty(), &ids, &mut out);
                let per_pair: Vec<u32> = (set.points().iter())
                    .map(|p| L2.distance(q, p).to_bits())
                    .collect();
                let batched: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                assert_eq!(batched, per_pair, "{} d{dim} q{qi}", path.name());
                let exact: Vec<u32> = (set.points().iter())
                    .map(|p| (naive_sq_l2(q, p) as f32).sqrt().to_bits())
                    .collect();
                assert_eq!(per_pair, exact, "{} d{dim} q{qi}", path.name());
                if path == Dispatch::Scalar {
                    reference.push(per_pair);
                } else {
                    assert_eq!(per_pair, reference[qi], "avx2 vs scalar d{dim} q{qi}");
                }
            }
        });
    }
}

/// The `rand` shim's `seq::index::sample` as it stood at `80d3c4d`: a
/// partial Fisher–Yates over a sparse map of displaced slots.
fn reference_sample<R: Rng>(rng: &mut R, length: usize, amount: usize) -> Vec<PointId> {
    let mut swaps: HashMap<usize, usize> = HashMap::new();
    let mut out = Vec::with_capacity(amount);
    for i in 0..amount {
        let j = rng.gen_range(i..length);
        let vj = *swaps.get(&j).unwrap_or(&j);
        let vi = *swaps.get(&i).unwrap_or(&i);
        out.push(vj as PointId);
        swaps.insert(j, vi);
    }
    out
}

#[test]
fn entry_sampler_equals_the_partial_fisher_yates_it_replaced() {
    let mut out = vec![7; 3]; // stale content must be replaced, not appended to
    for n in [1usize, 2, 3, 10, 64, 257, 4_000] {
        let mut sampler = EntrySampler::new(n);
        let amounts = [0, 1, 2, 10, n / 2, n - 1, n];
        for seed in 0..6u64 {
            for amount in amounts.map(|amount| amount.min(n)) {
                let key = seed ^ ((amount as u64) << 17) ^ ((n as u64) << 40);
                sampler.draw(&mut ChaCha8Rng::seed_from_u64(key), amount, &mut out);
                let want = reference_sample(&mut ChaCha8Rng::seed_from_u64(key), n, amount);
                assert_eq!(out, want, "seed {key:#x}, n {n}, amount {amount}");
            }
        }
    }

    // 1 000 consecutive draws from one sampler, one RNG stream: the table is
    // the identity again before every draw, and the stream is consumed one
    // word per id exactly as the reference consumes it.
    let mut sampler = EntrySampler::new(4_000);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut reference_rng = ChaCha8Rng::seed_from_u64(99);
    for round in 0..1_000 {
        let amount = [256, 10, 4_000, 0, 1][round % 5];
        sampler.draw(&mut rng, amount, &mut out);
        let want = reference_sample(&mut reference_rng, 4_000, amount);
        assert_eq!(out, want, "round {round}, amount {amount}");
    }
}

#[test]
#[should_panic(expected = "cannot sample 5 ids from 0..4")]
fn entry_sampler_rejects_an_oversized_draw() {
    EntrySampler::new(4).draw(&mut ChaCha8Rng::seed_from_u64(1), 5, &mut Vec::new());
}
