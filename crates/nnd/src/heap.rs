//! Bounded neighbor rows — the data structure behind `G[v]` in Algorithm 1.
//!
//! A row is a max-heap over `(distance, id)` with fixed capacity `k`: the
//! farthest current neighbor is at the top so the `Update(H, (v, d, f))`
//! step of NN-Descent (pop farthest, push closer candidate) is O(log k).
//! The id tie-break makes the kept set the canonical bottom-k of everything
//! ever inserted — independent of insertion order, which the distributed
//! engine's bit-identity guarantee requires (message-arrival order is
//! scheduling-dependent). Entries carry the *new/old* flag the algorithm
//! uses to avoid re-checking pairs: freshly inserted neighbors are
//! `new = true`, and the sampling step flips sampled entries to `old`.
//!
//! There is one row algorithm — the private functions below, over a row's
//! `k` slots and the count in use — and two owners of rows: [`NeighborHeap`]
//! (one row) and [`NeighborTable`] (`n` rows, `k`-strided in one allocation:
//! what both builders run on).

use crate::graph::Edge;
use dataset::order::DistKey;
use dataset::set::PointId;

/// One neighbor entry: `(id, distance, new-flag)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Neighbor point id.
    pub id: PointId,
    /// Distance from the owning vertex.
    pub dist: f32,
    /// NN-Descent incremental-search flag: `true` until sampled as a check
    /// candidate ("new"), then `false` ("old").
    pub new: bool,
}

/// Filler for the slots past a row's length; never read as an entry.
const VACANT: Neighbor = Neighbor {
    id: PointId::MAX,
    dist: f32::INFINITY,
    new: false,
};

/// Max-heap ordering key: lexicographic `(dist, id)`. Distances are
/// never NaN (every metric returns finite or +inf), so the partial
/// tuple order is total here.
#[inline]
fn key(n: &Neighbor) -> (f32, PointId) {
    (n.dist, n.id)
}

fn sift_up(row: &mut [Neighbor], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if key(&row[i]) > key(&row[parent]) {
            row.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(row: &mut [Neighbor], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < row.len() && key(&row[l]) > key(&row[largest]) {
            largest = l;
        }
        if r < row.len() && key(&row[r]) > key(&row[largest]) {
            largest = r;
        }
        if largest == i {
            return;
        }
        row.swap(i, largest);
        i = largest;
    }
}

#[inline]
fn contains(row: &[Neighbor], id: PointId) -> bool {
    row.iter().any(|n| n.id == id)
}

/// The `Update` function of Algorithm 1 on one row — `slots` is its whole
/// capacity, the first `*len` of them in use: store `e` if its id is absent
/// and either the row has room or `(dist, id)` beats the current farthest
/// neighbor (which is then evicted). Returns `true` iff the row changed —
/// the convergence counter `c` sums these.
///
/// In a descent most candidates lose, so losing is the cheap path: a full
/// row compares the candidate with its root *first* and scans the ids for a
/// duplicate (`k` is 10–100: a scan beats a side table in time and memory)
/// only on the two paths that would store. A duplicate is refused either
/// way, so the order of the two tests changes no outcome.
#[inline]
fn insert(slots: &mut [Neighbor], len: &mut usize, e: Neighbor) -> bool {
    if *len < slots.len() {
        if contains(&slots[..*len], e.id) {
            return false;
        }
        slots[*len] = e;
        *len += 1;
        sift_up(slots, *len - 1);
        true
    } else if key(&e) < key(&slots[0]) && !contains(slots, e.id) {
        slots[0] = e;
        sift_down(slots, 0);
        true
    } else {
        false
    }
}

fn mark_old(row: &mut [Neighbor], id: PointId) {
    if let Some(n) = row.iter_mut().find(|n| n.id == id) {
        n.new = false;
    }
}

/// `row` ascending by `(distance, id)`: the neighbor-list order of a k-NNG.
fn sorted(row: &[Neighbor]) -> Vec<Neighbor> {
    let mut v = row.to_vec();
    v.sort_unstable_by_key(|n| DistKey::new(n.dist, n.id));
    v
}

/// One owned row: a fixed-capacity max-heap of neighbors by distance.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborHeap {
    /// `cap` slots, [`VACANT`] past `len`.
    slots: Vec<Neighbor>,
    len: usize,
}

impl NeighborHeap {
    /// An empty heap that will hold at most `cap` neighbors.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "neighbor heap capacity must be positive");
        NeighborHeap {
            slots: vec![VACANT; cap],
            len: 0,
        }
    }

    /// Capacity `k`.
    pub fn cap(&self) -> usize {
        self.slots.len()
    }

    /// Current number of neighbors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap holds no neighbors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the heap holds `cap` neighbors.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Distance of the farthest stored neighbor, or `f32::INFINITY` while
    /// the heap is not yet full (any candidate is accepted then). This is
    /// the bound `theta(u1, G[u1][k])` attached to Type 2+ messages.
    #[inline]
    pub fn max_dist(&self) -> f32 {
        if self.is_full() {
            self.slots[0].dist
        } else {
            f32::INFINITY
        }
    }

    /// Whether `id` is currently a neighbor (linear scan).
    #[inline]
    pub fn contains(&self, id: PointId) -> bool {
        contains(&self.slots[..self.len], id)
    }

    /// [`insert`] `(id, dist, new)` into this row.
    pub fn checked_insert(&mut self, id: PointId, dist: f32, new: bool) -> bool {
        insert(&mut self.slots, &mut self.len, Neighbor { id, dist, new })
    }

    /// All entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.slots[..self.len].iter()
    }

    /// Entries sorted ascending by `(distance, id)`.
    pub fn sorted(&self) -> Vec<Neighbor> {
        sorted(&self.slots[..self.len])
    }

    /// Ids of entries flagged `new` / `old`.
    pub fn flagged_ids(&self, new: bool) -> Vec<PointId> {
        self.iter().filter(|n| n.new == new).map(|n| n.id).collect()
    }

    /// Set the flag of the entry with `id` (if present) to `new = false`.
    pub fn mark_old(&mut self, id: PointId) {
        mark_old(&mut self.slots[..self.len], id);
    }
}

/// `n` rows of capacity `k` in one `k`-strided allocation: the neighbor
/// lists of a whole builder, indexed by vertex (in the engine, by the
/// rank-local slot of an owned vertex).
///
/// `bounds[v]` is `+inf` until row `v` is full and its root's distance from
/// then on — exact, because nothing outside this module can write a row or
/// the column. A candidate farther than that cannot be stored, and costs one
/// compare against a dense column: the row is not touched.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborTable {
    k: usize,
    slots: Vec<Neighbor>,
    lens: Vec<usize>,
    bounds: Vec<f32>,
}

impl NeighborTable {
    /// `n` empty rows that will hold at most `k` neighbors each.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1, "neighbor row capacity must be positive");
        let slots = n.checked_mul(k).expect("n * k overflows usize");
        NeighborTable {
            k,
            slots: vec![VACANT; slots],
            lens: vec![0; n],
            bounds: vec![f32::INFINITY; n],
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.lens.len()
    }

    /// Row capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The entries of row `v` in unspecified (heap) order.
    #[inline]
    pub fn row(&self, v: usize) -> &[Neighbor] {
        &self.slots[v * self.k..v * self.k + self.lens[v]]
    }

    /// Distance of row `v`'s farthest neighbor, or `f32::INFINITY` while
    /// the row is not yet full: the Type 2+ bound, read from the column.
    #[inline]
    pub fn max_dist(&self, v: usize) -> f32 {
        self.bounds[v]
    }

    /// [`insert`] `(id, dist, new)` into row `v`. The bound test is strict:
    /// an equal distance goes to the row, where the id breaks the tie.
    #[inline]
    pub fn insert(&mut self, v: usize, id: PointId, dist: f32, new: bool) -> bool {
        if dist > self.bounds[v] {
            return false;
        }
        let slots = &mut self.slots[v * self.k..(v + 1) * self.k];
        let stored = insert(slots, &mut self.lens[v], Neighbor { id, dist, new });
        if stored && self.lens[v] == self.k {
            self.bounds[v] = slots[0].dist;
        }
        stored
    }

    /// Set the flag of row `v`'s entry with `id` (if present) to old.
    pub fn mark_old(&mut self, v: usize, id: PointId) {
        let at = v * self.k;
        mark_old(&mut self.slots[at..at + self.lens[v]], id);
    }

    /// Row `v` as graph edges, ascending by `(distance, id)`.
    pub fn sorted_edges(&self, v: usize) -> Vec<Edge> {
        (sorted(self.row(v)).iter().map(|n| (n.id, n.dist))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_then_evicts_farthest() {
        let mut h = NeighborHeap::new(3);
        assert!(h.checked_insert(1, 5.0, true));
        assert!(h.checked_insert(2, 1.0, true));
        assert!(h.checked_insert(3, 3.0, true));
        assert!(h.is_full());
        assert_eq!(h.max_dist(), 5.0);
        // Farther than max: rejected.
        assert!(!h.checked_insert(4, 6.0, true));
        // Closer: evicts id 1 (dist 5).
        assert!(h.checked_insert(5, 2.0, true));
        assert_eq!(h.max_dist(), 3.0);
        assert!(!h.contains(1));
        assert!(h.contains(5));
    }

    #[test]
    fn duplicates_rejected_even_with_better_distance() {
        let mut h = NeighborHeap::new(2);
        assert!(h.checked_insert(7, 4.0, true));
        assert!(!h.checked_insert(7, 1.0, true));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn max_dist_is_infinite_until_full() {
        let mut h = NeighborHeap::new(2);
        assert_eq!(h.max_dist(), f32::INFINITY);
        h.checked_insert(1, 10.0, true);
        assert_eq!(h.max_dist(), f32::INFINITY);
        h.checked_insert(2, 20.0, true);
        assert_eq!(h.max_dist(), 20.0);
    }

    #[test]
    fn sorted_is_ascending_with_id_ties() {
        let mut h = NeighborHeap::new(4);
        h.checked_insert(9, 2.0, true);
        h.checked_insert(3, 1.0, true);
        h.checked_insert(5, 2.0, true);
        h.checked_insert(1, 0.5, true);
        let order: Vec<PointId> = h.sorted().iter().map(|n| n.id).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn flags_and_marking() {
        let mut h = NeighborHeap::new(3);
        h.checked_insert(1, 1.0, true);
        h.checked_insert(2, 2.0, false);
        h.checked_insert(3, 3.0, true);
        let mut news = h.flagged_ids(true);
        news.sort_unstable();
        assert_eq!(news, vec![1, 3]);
        h.mark_old(1);
        let mut news = h.flagged_ids(true);
        news.sort_unstable();
        assert_eq!(news, vec![3]);
        assert_eq!(h.flagged_ids(false).len(), 2);
    }

    #[test]
    fn capacity_one_tracks_single_best() {
        let mut h = NeighborHeap::new(1);
        assert!(h.checked_insert(1, 9.0, true));
        assert!(h.checked_insert(2, 4.0, true));
        assert!(!h.checked_insert(3, 5.0, true));
        assert_eq!(h.sorted()[0].id, 2);
    }

    proptest! {
        /// Heap invariants hold under arbitrary insert sequences:
        /// size bound, no duplicate ids, max_dist is the true max,
        /// and the kept set is the k best-seen under the `(dist, id)`
        /// total order.
        #[test]
        fn invariants_under_random_inserts(
            cap in 1usize..12,
            inserts in prop::collection::vec((0u32..40, 0.0f32..100.0), 0..200)
        ) {
            let mut h = NeighborHeap::new(cap);
            for &(id, dist) in &inserts {
                h.checked_insert(id, dist, true);
            }
            prop_assert!(h.len() <= cap);
            let ids: Vec<PointId> = h.iter().map(|n| n.id).collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), ids.len(), "duplicate ids in heap");
            if !h.is_empty() {
                let true_max = h.iter().map(|n| n.dist).fold(f32::MIN, f32::max);
                if h.is_full() {
                    prop_assert_eq!(h.max_dist(), true_max);
                }
                // Every distinct seen id below max_dist that is absent must
                // have arrived when the heap was already full of closer or
                // equal entries; at minimum, stored dists never exceed the
                // largest rejected candidate we can bound: just check heap
                // ordering property instead.
                for (i, n) in h.iter().enumerate() {
                    let l = 2 * i + 1;
                    let r = 2 * i + 2;
                    if l < h.len() {
                        prop_assert!(h.slots[l].dist <= n.dist);
                    }
                    if r < h.len() {
                        prop_assert!(h.slots[r].dist <= n.dist);
                    }
                }
            }
        }

        /// Tie ordering when distances arrive from a batch: feeding the
        /// heap a distance buffer in batch order must leave exactly the
        /// same state as the historical one-pair-at-a-time loop, and
        /// boundary ties resolve by id under the `(dist, id)` total
        /// order — never by arrival order.
        #[test]
        fn batch_order_ties_are_deterministic(
            base in prop::collection::vec((0u32..64, 0.0f32..4.0), 1..40),
            tie_ids in prop::collection::vec(100u32..164, 2..10)
        ) {
            // Quantize distances so exact f32 ties are common, then append
            // a run of distinct ids sharing one tied distance.
            let tie_d = 2.0f32;
            let mut stream: Vec<(u32, f32)> = base
                .iter()
                .map(|&(id, d)| (id, (d * 4.0).floor() / 4.0))
                .collect();
            for &id in &tie_ids {
                stream.push((id, tie_d));
            }

            // One-by-one insertion (the pre-batching code path).
            let mut one = NeighborHeap::new(4);
            for &(id, d) in &stream {
                one.checked_insert(id, d, true);
            }

            // Batched arrival: distances land in a buffer first, then the
            // heap replays them in batch order.
            let mut batched = NeighborHeap::new(4);
            let ids: Vec<u32> = stream.iter().map(|&(id, _)| id).collect();
            let dists: Vec<f32> = stream.iter().map(|&(_, d)| d).collect();
            for (&id, &d) in ids.iter().zip(&dists) {
                batched.checked_insert(id, d, true);
            }

            let a: Vec<_> = one.sorted().iter().map(|n| (n.id, n.dist.to_bits())).collect();
            let b: Vec<_> = batched.sorted().iter().map(|n| (n.id, n.dist.to_bits())).collect();
            prop_assert_eq!(a, b);

            // Boundary tie: with a full heap whose worst (dist, id) is
            // (tie_d, 2), a tying candidate with a higher id loses and one
            // with a lower id wins — arrival order is irrelevant.
            let mut h = NeighborHeap::new(2);
            h.checked_insert(1, 1.0, true);
            h.checked_insert(2, tie_d, true);
            prop_assert!(!h.checked_insert(3, tie_d, true), "higher id must not evict at a tie");
            prop_assert!(h.contains(2));
            prop_assert!(!h.contains(3));
            prop_assert!(h.checked_insert(0, tie_d, true), "lower id must evict at a tie");
            prop_assert!(h.contains(0));
            prop_assert!(!h.contains(2));
        }

        /// The stored set is a pure function of the inserted multiset:
        /// replaying the same inserts in reversed and rotated order leaves
        /// bit-identical heap contents. This is the property the engine's
        /// cross-rank bit-identity oracle relies on — message-arrival
        /// order varies between runs and rank counts. Distance is derived
        /// from the id, mirroring the engine (a pair's distance is a pure
        /// function of the pair, so a re-sent duplicate always ties its
        /// first arrival exactly) while making cross-id ties common.
        #[test]
        fn insertion_order_invariant(
            cap in 1usize..8,
            ids in prop::collection::vec(0u32..30, 1..80),
            rot in 0usize..80
        ) {
            let stream: Vec<(u32, f32)> = ids
                .iter()
                .map(|&id| (id, ((id * 7) % 5) as f32 * 0.5))
                .collect();
            let fill = |seq: &[(u32, f32)]| {
                let mut h = NeighborHeap::new(cap);
                for &(id, d) in seq {
                    h.checked_insert(id, d, true);
                }
                h.sorted()
                    .iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            };
            let forward = fill(&stream);
            let mut reversed = stream.clone();
            reversed.reverse();
            let mut rotated = stream.clone();
            rotated.rotate_left(rot % stream.len());
            prop_assert_eq!(&forward, &fill(&reversed));
            prop_assert_eq!(&forward, &fill(&rotated));
        }

        /// checked_insert returns true exactly when the stored set changes.
        #[test]
        fn insert_return_matches_mutation(
            inserts in prop::collection::vec((0u32..20, 0.0f32..50.0), 1..100)
        ) {
            let mut h = NeighborHeap::new(5);
            for &(id, dist) in &inserts {
                let before = h.sorted();
                let changed = h.checked_insert(id, dist, true);
                let after = h.sorted();
                let ids_before: Vec<_> = before.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                let ids_after: Vec<_> = after.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                prop_assert_eq!(changed, ids_before != ids_after);
            }
        }
    }
}
