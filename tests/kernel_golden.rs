//! Tier-1 pins for the two layers every query pays for before its first
//! heap update: the exact integer kernels of `dataset::kernel` and the
//! entry-point sampler of `nnd::search`.
//!
//! * The integer kernels must equal a naive `i64` sum on **both** dispatch
//!   paths, for every length around the block and vector boundaries and for
//!   rows long enough to overflow a `u32`.
//! * `L2` over `Vec<u8>` must give the same bits batched and per pair.
//! * [`EntrySampler`] must give, for every `(seed, n, amount)`, the id
//!   sequence of the `rand` shim's `seq::index::sample` it replaced — every
//!   search digest in the repository rests on that. The deleted algorithm is
//!   written out below as the reference, `HashMap` and all.

use dataset::kernel::{self, Dispatch};
use dataset::{BatchMetric, Metric, NormCache, PointId, PointSet, L2};
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
