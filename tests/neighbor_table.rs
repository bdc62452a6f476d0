//! The row algorithm of `nnd::heap` against the one it replaced.
//!
//! `nnd::heap` tests a candidate against the root before it scans for a
//! duplicate, and `NeighborTable` answers most losers from its `bounds`
//! column without reading the row. Both are reorderings that must change
//! no outcome: the array layout of a row is what NN-Descent's sampling
//! reads, so "same stored set" is not enough — the reference below is the
//! scan-first `checked_insert` body as it was, and every row must equal it
//! entry by entry, in array order, after every step.

use nnd::heap::{Neighbor, NeighborHeap, NeighborTable};
use proptest::prelude::*;

/// The neighbor heap as it was before the bound-first insert: duplicate
/// scan first, then room, then the compare with the root. Kept verbatim as
/// the reference.
struct ScanFirstHeap {
    cap: usize,
    items: Vec<Neighbor>,
}

impl ScanFirstHeap {
    fn new(cap: usize) -> Self {
        ScanFirstHeap {
            cap,
            items: Vec::with_capacity(cap),
        }
    }

    fn max_dist(&self) -> f32 {
        if self.items.len() == self.cap {
            self.items[0].dist
        } else {
            f32::INFINITY
        }
    }

    fn contains(&self, id: u32) -> bool {
        self.items.iter().any(|n| n.id == id)
    }

    fn checked_insert(&mut self, id: u32, dist: f32, new: bool) -> bool {
        if self.contains(id) {
            return false;
        }
        if self.items.len() < self.cap {
            self.items.push(Neighbor { id, dist, new });
            self.sift_up(self.items.len() - 1);
            true
        } else if (dist, id) < (self.items[0].dist, self.items[0].id) {
            self.items[0] = Neighbor { id, dist, new };
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    fn key(n: &Neighbor) -> (f32, u32) {
        (n.dist, n.id)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::key(&self.items[i]) > Self::key(&self.items[parent]) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.items.len() && Self::key(&self.items[l]) > Self::key(&self.items[largest]) {
                largest = l;
            }
            if r < self.items.len() && Self::key(&self.items[r]) > Self::key(&self.items[largest]) {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }

    fn mark_old(&mut self, id: u32) {
        if let Some(n) = self.items.iter_mut().find(|n| n.id == id) {
            n.new = false;
        }
    }
}

const ROWS: usize = 4;

/// Few distinct distances, so ties — decided by id — and the same id
/// offered again at a better distance are the common case; both zeros
/// (equal under `<`, different bits) and `+inf` (equal to an unfilled
/// row's bound) are in.
const DISTS: [f32; 8] = [0.0, -0.0, 0.25, 0.5, 0.5, 1.0, 2.0, f32::INFINITY];

#[derive(Debug, Clone)]
enum Op {
    /// `insert(row, id, DISTS[dist], new)`.
    Insert(usize, u32, usize, bool),
    /// `mark_old(row, id)`.
    MarkOld(usize, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let insert = || {
        (0..ROWS, 0u32..14, 0..DISTS.len(), any::<bool>())
            .prop_map(|(row, id, dist, new)| Op::Insert(row, id, dist, new))
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0..ROWS, 0u32..14).prop_map(|(row, id)| Op::MarkOld(row, id)),
    ]
}

/// A row as `(id, distance bits, flag)` in array order.
fn bits<'a>(row: impl Iterator<Item = &'a Neighbor>) -> Vec<(u32, u32, bool)> {
    row.map(|n| (n.id, n.dist.to_bits(), n.new)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any interleaving of `insert` and `mark_old` over several rows,
    /// `NeighborHeap` and every `NeighborTable` row return what the
    /// scan-first reference returns and hold what it holds, slot for slot,
    /// with the same `max_dist`, after every step.
    #[test]
    fn heap_and_table_rows_equal_the_scan_first_reference(
        cap in 1usize..7,
        ops in prop::collection::vec(op_strategy(), 0..160),
    ) {
        let mut want: Vec<ScanFirstHeap> = (0..ROWS).map(|_| ScanFirstHeap::new(cap)).collect();
        let mut heaps: Vec<NeighborHeap> = (0..ROWS).map(|_| NeighborHeap::new(cap)).collect();
        let mut table = NeighborTable::new(ROWS, cap);
        prop_assert_eq!(table.n_rows(), ROWS);
        for op in &ops {
            match *op {
                // The last row sees at most `cap - 1` distinct ids: it
                // never fills, and its bound must stay infinite.
                Op::Insert(row, _, _, _) if row == ROWS - 1 && cap == 1 => {}
                Op::Insert(row, id, dist, new) => {
                    let id = if row == ROWS - 1 { id % (cap as u32 - 1) } else { id };
                    let stored = want[row].checked_insert(id, DISTS[dist], new);
                    prop_assert_eq!(heaps[row].checked_insert(id, DISTS[dist], new), stored);
                    prop_assert_eq!(table.insert(row, id, DISTS[dist], new), stored);
                }
                Op::MarkOld(row, id) => {
                    want[row].mark_old(id);
                    heaps[row].mark_old(id);
                    table.mark_old(row, id);
                }
            }
            for (row, want) in want.iter().enumerate() {
                let entries = bits(want.items.iter());
                prop_assert_eq!(&bits(heaps[row].iter()), &entries, "heap {}", row);
                prop_assert_eq!(&bits(table.row(row).iter()), &entries, "table row {}", row);
                let bound = want.max_dist().to_bits();
                prop_assert_eq!(heaps[row].max_dist().to_bits(), bound, "heap {}", row);
                prop_assert_eq!(table.max_dist(row).to_bits(), bound, "table row {}", row);
                for id in 0..14 {
                    prop_assert_eq!(heaps[row].contains(id), want.contains(id));
                }
            }
        }
        prop_assert!(table.row(ROWS - 1).len() < cap);
        prop_assert_eq!(table.max_dist(ROWS - 1), f32::INFINITY);
    }

    /// The stored set is a pure function of what was offered: distinct ids
    /// whose distances tie often (a pair's distance is a function of the
    /// pair, as in the engine), offered in three orders, leave the `k`
    /// smallest under `(distance, id)` — the property the distributed
    /// engine's schedule-invariant replay rests on.
    #[test]
    fn stored_set_is_independent_of_insertion_order(
        cap in 1usize..9,
        ids in prop::collection::vec(0u32..40, 1..60),
        rot in 0usize..60,
    ) {
        let mut offers: Vec<(u32, f32)> = ids
            .iter()
            .map(|&id| (id, ((id * 7) % 5) as f32 * 0.5))
            .collect();
        offers.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        offers.dedup();
        let expect: Vec<(u32, f32)> = offers.iter().copied().take(cap).collect();

        let mut reversed = offers.clone();
        reversed.reverse();
        let mut rotated = offers.clone();
        rotated.rotate_left(rot % offers.len());
        let mut table = NeighborTable::new(3, cap);
        for (row, order) in [&offers, &reversed, &rotated].into_iter().enumerate() {
            let mut heap = NeighborHeap::new(cap);
            for &(id, d) in order {
                let stored = heap.checked_insert(id, d, true);
                prop_assert_eq!(table.insert(row, id, d, true), stored);
            }
            let heap_row: Vec<Neighbor> = heap.iter().copied().collect();
            prop_assert_eq!(&heap_row[..], table.row(row), "heap, order {}", row);
            prop_assert_eq!(&table.sorted_edges(row), &expect, "table, order {}", row);
        }
    }
}

#[test]
#[should_panic(expected = "n * k overflows")]
fn a_table_too_large_to_address_is_refused_before_allocating() {
    let _ = NeighborTable::new(usize::MAX / 2, 3);
}
