//! Property and exactness tests of the composable workload DSL
//! (`serve::workload` + the spec grammar in `serve::params`):
//!
//! * the canonical spec string round-trips (`Display` → `FromStr` is the
//!   identity) over *arbitrary* valid specs, not just hand-picked ones;
//! * [`ArrivalPlan::generate`] is a pure PRF of its inputs — bit-identical
//!   across repeated generation and cloned parameters;
//! * Zipfian pool draws match an *independently recomputed* inverse-CDF
//!   draw per arrival, with exact integer per-pool-id counts.

use proptest::collection::vec as pvec;
use proptest::option;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serve::workload::{SALT_POOL, SALT_TENANT};
use serve::{
    zipf_cdf, ArrivalPlan, ArrivalProcess, BurstWindow, Diurnal, FilterTraffic, MutateTraffic,
    PoolDist, ServeParams, TenantClass, WorkloadSpec,
};
use ygm::fault::mix;

// ---------------------------------------------------------------- strategies

fn arb_arrival() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        Just(ArrivalProcess::Open),
        (1u64..=100_000, 0u64..=10_000_000_000)
            .prop_map(|(clients, think_ns)| { ArrivalProcess::Closed { clients, think_ns } }),
    ]
}

fn arb_pool() -> impl Strategy<Value = PoolDist> {
    prop_oneof![
        Just(PoolDist::HotCold),
        // Finite f64 in [0, 8]; `Display` prints the shortest string that
        // re-parses to the identical bits, so no rounding is allowed here.
        (0u32..=8_000_000).prop_map(|m| PoolDist::Zipf {
            s: m as f64 / 1_000_000.0
        }),
    ]
}

fn arb_diurnal() -> impl Strategy<Value = Option<Diurnal>> {
    option::of((1u64..=86_400_000_000_000, 0u32..=900_000).prop_map(
        |(period_ns, amp_millionths)| Diurnal {
            period_ns,
            amp: amp_millionths as f64 / 1_000_000.0,
        },
    ))
}

fn arb_bursts() -> impl Strategy<Value = Vec<BurstWindow>> {
    pvec(
        (
            0u64..=10_000_000_000,
            1u64..=5_000_000_000,
            1_000u32..=64_000,
        )
            .prop_map(|(at_ns, dur_ns, x_thousandths)| BurstWindow {
                at_ns,
                dur_ns,
                x: x_thousandths as f64 / 1_000.0,
            }),
        0..3,
    )
}

fn arb_tenants() -> impl Strategy<Value = Vec<TenantClass>> {
    let class = |name: &str, share_pct| TenantClass {
        name: name.to_string(),
        share_pct,
    };
    prop_oneof![
        Just(Vec::new()),
        (1u64..=99).prop_map(move |g| vec![class("gold", g), class("free", 100 - g)]),
        (1u64..=98).prop_flat_map(move |a| {
            (1u64..=(99 - a))
                .prop_map(move |b| vec![class("a-1", a), class("b_2", b), class("c", 100 - a - b)])
        }),
    ]
}

fn arb_filter() -> impl Strategy<Value = Option<FilterTraffic>> {
    option::of(
        (1u64..=100, 1u32..=1_000).prop_map(|(pct, sel_thousandths)| FilterTraffic {
            pct,
            sel: sel_thousandths as f64 / 1_000.0,
        }),
    )
}

fn arb_mutate() -> impl Strategy<Value = Option<MutateTraffic>> {
    option::of(
        (0u64..=500, 0u64..=500)
            .prop_filter("mutate needs at least one schedule", |&(i, d)| {
                i > 0 || d > 0
            })
            .prop_map(|(ins_every, del_every)| MutateTraffic {
                ins_every,
                del_every,
            }),
    )
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        arb_arrival(),
        arb_pool(),
        arb_diurnal(),
        arb_bursts(),
        (arb_filter(), arb_mutate()),
        arb_tenants(),
    )
        .prop_map(
            |(arrival, pool, diurnal, bursts, (filter, mutate), tenants)| WorkloadSpec {
                arrival,
                pool,
                diurnal,
                bursts,
                filter,
                mutate,
                tenants,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every valid spec survives `Display` → `FromStr` bit-for-bit: the
    /// canonical string is a faithful serialization of the AST.
    #[test]
    fn spec_display_parse_round_trips(spec in arb_spec()) {
        spec.validate().expect("strategy must generate valid specs");
        let text = spec.to_string();
        let back: WorkloadSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("canonical spec {text:?} failed to re-parse: {e}"));
        prop_assert_eq!(back, spec, "round-trip of {}", text);
    }

    /// Open-loop plans are pure PRFs: regenerating (same params object,
    /// a clone, a rebuilt-from-spec-string params) yields the identical
    /// arrival vector.
    #[test]
    fn open_loop_plans_are_bit_identical_across_regeneration(
        seed in any::<u64>(),
        spec in arb_spec(),
        pool_len in 1usize..=64,
    ) {
        // Closed-loop arrivals are minted by the engine; only open-loop
        // specs have a static plan.
        let spec = WorkloadSpec { arrival: ArrivalProcess::Open, ..spec };
        let params = ServeParams::new(10)
            .serve_seed(seed)
            .n_arrivals(80)
            .offered_qps(5_000.0)
            .workload(spec.clone());
        let a = ArrivalPlan::generate(&params, pool_len);
        let b = ArrivalPlan::generate(&params, pool_len);
        prop_assert_eq!(&a, &b, "same params object");
        let c = ArrivalPlan::generate(&params.clone(), pool_len);
        prop_assert_eq!(&a, &c, "cloned params");
        let rebuilt = ServeParams::new(10)
            .serve_seed(seed)
            .n_arrivals(80)
            .offered_qps(5_000.0)
            .workload_str(&spec.to_string());
        let d = ArrivalPlan::generate(&rebuilt, pool_len);
        prop_assert_eq!(&a, &d, "params rebuilt from the canonical spec string");
    }
}

// ------------------------------------------------------------- exact counts

/// Zipf pool draws match an independently recomputed inverse-CDF draw per
/// arrival — same PRF key, same CDF, same partition-point rule — with
/// exact integer per-pool-id counts, and the empirical mass actually
/// concentrates on the head like a Zipfian should.
#[test]
fn zipf_draws_match_independently_computed_cdf_with_exact_counts() {
    const POOL: usize = 40;
    const N: usize = 400;
    const S: f64 = 1.1;
    const SEED: u64 = 0xD151;
    let params = ServeParams::new(10)
        .serve_seed(SEED)
        .n_arrivals(N)
        .offered_qps(4_000.0)
        .workload_str("zipf:s=1.1");
    let plan = ArrivalPlan::generate(&params, POOL);
    assert_eq!(plan.arrivals.len(), N);

    // Independent recomputation: this test owns its own CDF walk and PRF
    // keying, sharing only the published salt and `zipf_cdf` contract.
    let cdf = zipf_cdf(POOL, S);
    assert!((cdf[POOL - 1] - 1.0).abs() < 1e-12, "CDF must end at 1");
    let mut expected_counts = vec![0u64; POOL];
    for (i, a) in plan.arrivals.iter().enumerate() {
        let i = i as u64;
        assert_eq!(a.idx, i, "flat-rate open-loop arrivals keep index order");
        let mut rng = ChaCha8Rng::seed_from_u64(mix(SEED, SALT_POOL, i, 0, 0));
        let u: f64 = rng.gen_range(0.0..1.0);
        let want = cdf.partition_point(|&c| c <= u).min(POOL - 1);
        assert_eq!(
            a.pool_id, want,
            "arrival {i}: plan drew pool id {} but the inverse CDF says {want}",
            a.pool_id
        );
        expected_counts[want] += 1;
    }
    let mut got_counts = vec![0u64; POOL];
    for a in &plan.arrivals {
        got_counts[a.pool_id] += 1;
    }
    assert_eq!(got_counts, expected_counts, "exact per-pool-id counts");
    assert_eq!(got_counts.iter().sum::<u64>(), N as u64);

    // Zipf s=1.1 over 40 ids puts >50% of the mass on the first 4 ids
    // (analytically ~57%); uniform would put 10%. The draw stream must
    // show that skew.
    let head: u64 = got_counts[..4].iter().sum();
    assert!(
        head * 2 > N as u64,
        "zipf head mass too small: {head}/{N} on the hottest 4 of {POOL} ids"
    );
}

/// Tenant assignment is a share-weighted pure PRF of `(seed, key)`:
/// recomputing the draw independently reproduces every class index, and
/// the empirical split tracks the declared shares.
#[test]
fn tenant_assignment_matches_independent_prf_draws() {
    const N: usize = 300;
    const SEED: u64 = 0x7E7A;
    let params = ServeParams::new(10)
        .serve_seed(SEED)
        .n_arrivals(N)
        .offered_qps(4_000.0)
        .workload_str("tenants=gold:25%,free:75%");
    let plan = ArrivalPlan::generate(&params, 16);
    let mut per_class = [0u64; 2];
    for a in &plan.arrivals {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(SEED, SALT_TENANT, a.idx, 0, 0));
        let u = rng.gen_range(0..100u64);
        let want = if u < 25 { 0 } else { 1 };
        assert_eq!(a.tenant, want, "arrival {}: tenant draw mismatch", a.idx);
        per_class[a.tenant] += 1;
    }
    assert_eq!(per_class[0] + per_class[1], N as u64);
    // 25% of 300 = 75 expected gold; allow a generous PRF tolerance.
    assert!(
        (30..=120).contains(&per_class[0]),
        "gold share wildly off its 25% target: {} of {N}",
        per_class[0]
    );
}

/// The burst window visibly compresses inter-arrival gaps: the burst
/// region of a modulated plan holds a super-proportional share of the
/// arrivals, and the plan stays exactly reproducible.
#[test]
fn burst_window_concentrates_arrivals_and_stays_deterministic() {
    let params = ServeParams::new(10)
        .serve_seed(0xB0057)
        .n_arrivals(300)
        .offered_qps(2_000.0)
        .workload_str("burst:at=20ms,x=16,dur=60ms");
    let plan = ArrivalPlan::generate(&params, 16);
    assert_eq!(plan, ArrivalPlan::generate(&params, 16));
    let span_slots = plan.last_slot() + 1;
    let in_burst = plan
        .arrivals
        .iter()
        .filter(|a| (20..80).contains(&a.slot))
        .count();
    let before = plan.arrivals.iter().filter(|a| a.slot < 20).count();
    // Arrival *rate* inside the 16x window must dwarf the pre-burst rate
    // (the plan may end mid-window once n_arrivals is exhausted).
    let burst_slots = span_slots.clamp(21, 80) - 20;
    let burst_rate = in_burst as f64 / burst_slots as f64;
    let base_rate = (before.max(1)) as f64 / 20.0;
    assert!(
        before > 0 && in_burst > 0,
        "plan must straddle the burst boundary (before {before}, in {in_burst})"
    );
    assert!(
        burst_rate > base_rate * 4.0,
        "burst rate {burst_rate:.2}/slot not >> base rate {base_rate:.2}/slot"
    );
}
