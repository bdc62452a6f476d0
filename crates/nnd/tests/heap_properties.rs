//! Property tests for `nnd::heap::NeighborHeap` invariants: bounded size,
//! max-heap ordering, and new-flag semantics under arbitrary interleavings
//! of `checked_insert` (push, possibly evicting the farthest entry — the
//! heap's "pop") and `mark_old`.
//!
//! The final property — insertion-order independence for distinct ids and
//! distances — is the foundation the distributed engine's determinism
//! rests on: message-arrival order varies with thread scheduling, so the
//! per-vertex heap must converge to the same set regardless.

use nnd::heap::NeighborHeap;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// `checked_insert(id, dist, true)`.
    Insert(u32, u32),
    /// `mark_old(id)` — flips the entry's flag if present, else a no-op.
    MarkOld(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..30, 0u32..100).prop_map(|(id, d)| Op::Insert(id, d)),
        (0u32..30, 0u32..100).prop_map(|(id, d)| Op::Insert(id, d)),
        (0u32..30, 0u32..100).prop_map(|(id, d)| Op::Insert(id, d)),
        (0u32..30).prop_map(Op::MarkOld),
    ]
}

/// The `new` flag of the stored entry with `id`, if there is one.
fn flag(h: &NeighborHeap, id: u32) -> Option<bool> {
    h.iter().find(|n| n.id == id).map(|n| n.new)
}

/// Check the structural invariants that must hold after every operation.
fn assert_invariants(h: &NeighborHeap) {
    assert!(h.iter().count() <= h.cap(), "size bound violated");
    let items: Vec<_> = h.iter().copied().collect();
    // No duplicate ids.
    let mut ids: Vec<u32> = items.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    let distinct = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), distinct, "duplicate id stored");
    // Max-heap ordering: every parent's distance >= both children's.
    for (i, n) in items.iter().enumerate() {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < items.len() {
                assert!(
                    items[child].dist <= n.dist,
                    "heap order violated at index {i}"
                );
            }
        }
    }
    // max_dist is the true maximum when full, infinity otherwise.
    if h.is_full() {
        let true_max = items.iter().map(|n| n.dist).fold(f32::MIN, f32::max);
        assert_eq!(h.max_dist(), true_max);
    } else {
        assert_eq!(h.max_dist(), f32::INFINITY);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structural invariants hold after every step of an arbitrary
    /// insert/mark interleaving, a fresh insert is flagged new, and a
    /// marked entry is old.
    #[test]
    fn invariants_hold_under_arbitrary_interleavings(
        cap in 1usize..12,
        ops in prop::collection::vec(op_strategy(), 0..120),
    ) {
        let mut h = NeighborHeap::new(cap);
        for op in &ops {
            match *op {
                Op::Insert(id, d) => {
                    let present = h.contains(id);
                    let changed = h.checked_insert(id, d as f32, true);
                    prop_assert!(!(present && changed), "duplicate insert reported success");
                    if changed {
                        prop_assert_eq!(flag(&h, id), Some(true), "fresh insert not flagged new");
                    }
                }
                Op::MarkOld(id) => {
                    h.mark_old(id);
                    if h.contains(id) {
                        prop_assert_eq!(flag(&h, id), Some(false), "mark_old left it new");
                    }
                }
            }
            assert_invariants(&h);
        }
    }

    /// A rejected duplicate insert never resurrects the `new` flag: once
    /// sampled (marked old), an entry stays old until it is genuinely
    /// replaced — NN-Descent relies on this to not re-check old pairs.
    #[test]
    fn rejected_duplicates_preserve_old_flag(
        id in 0u32..10,
        d1 in 0u32..50,
        d2 in 0u32..50,
        filler in prop::collection::vec((10u32..30, 0u32..50), 0..8),
    ) {
        let mut h = NeighborHeap::new(12);
        prop_assert!(h.checked_insert(id, d1 as f32, true));
        for &(fid, fd) in &filler {
            h.checked_insert(fid, fd as f32, true);
        }
        h.mark_old(id);
        // Same id again (any distance): rejected, flag untouched.
        prop_assert!(!h.checked_insert(id, d2 as f32, true));
        prop_assert_eq!(flag(&h, id), Some(false));
    }

    /// With distinct ids and distinct distances (no tie ambiguity), the
    /// surviving set is exactly the k nearest of everything offered, in
    /// *any* insertion order — the order-independence the distributed
    /// engine's schedule-invariant replay depends on.
    #[test]
    fn converges_to_top_k_in_any_insertion_order(
        cap in 1usize..10,
        seed_dists in prop::collection::vec(0u32..10_000, 1..40),
    ) {
        // Deduplicate distances and assign distinct ids.
        let mut dists = seed_dists.clone();
        dists.sort_unstable();
        dists.dedup();
        let offers: Vec<(u32, f32)> = dists
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as u32, d as f32))
            .collect();

        let run = |order: &[(u32, f32)]| {
            let mut h = NeighborHeap::new(cap);
            for &(id, d) in order {
                h.checked_insert(id, d, true);
            }
            let mut kept: Vec<_> = h.iter().map(|n| (n.id, n.dist.to_bits(), n.new)).collect();
            // Non-negative distances: bit order is value order.
            kept.sort_unstable_by_key(|&(id, bits, _)| (bits, id));
            kept
        };

        let forward = run(&offers);
        let mut reversed = offers.clone();
        reversed.reverse();
        // A third order: odd-indexed offers first, then even-indexed.
        let mut interleaved: Vec<(u32, f32)> =
            offers.iter().skip(1).step_by(2).copied().collect();
        interleaved.extend(offers.iter().step_by(2).copied());

        prop_assert_eq!(&run(&reversed), &forward, "reversed order diverged");
        prop_assert_eq!(&run(&interleaved), &forward, "interleaved order diverged");

        // And the survivors really are the k nearest offered.
        let expect: Vec<u32> = offers
            .iter()
            .take(cap)
            .map(|&(id, _)| id)
            .collect();
        let got: Vec<u32> = forward.iter().map(|&(id, _, _)| id).collect();
        prop_assert_eq!(got, expect);
    }
}
