//! Vertex ownership: DNND "distributes a k-NNG G and an input dataset V
//! equally among all MPI ranks based on the hash values of the vertex IDs"
//! (Section 4). Each vertex's feature vector and its neighbor list live on
//! the same rank.

use dataset::set::PointId;
use std::hash::{BuildHasherDefault, Hasher};

/// Finalizer from splitmix64 — a cheap, well-mixed integer hash so that
/// consecutive ids spread across ranks (the paper hashes vertex ids rather
/// than block-partitioning them).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hasher for maps keyed by [`PointId`]s (or small tuples of them): every
/// written word is folded in with one [`mix64`] — `mix64(id ^ SALT)` for a
/// single id — instead of std's SipHash, which costs more than the handler
/// work a lookup guards. The salt matters: [`Partitioner::owner`] is
/// `mix64(id) % n_ranks`, so every id a rank owns agrees on those low bits;
/// hashing with the bare `mix64` would leave a rank's map using one bucket
/// in `n_ranks`. Vertex ids are dense indices this program assigns, never
/// keys an outside party chooses, so SipHash's collision resistance buys
/// nothing here (and `mix64` is a bijection: distinct ids never share a
/// 64-bit hash).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

const ID_HASH_SALT: u64 = 0xD6E8_FEB8_6659_FD93;

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = mix64(self.0 ^ u64::from(x) ^ ID_HASH_SALT);
    }
    /// Not reached by id keys; kept correct for any other `Hash` type.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` of [`IdHasher`], for sets of ids and maps keyed by id
/// tuples. (State a rank keeps *per owned vertex* is not hashed at all: it
/// lives in `Vec`s indexed through [`Partitioner::slot_table`].)
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// Maps vertex ids to owning ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    n_ranks: usize,
}

impl Partitioner {
    /// A partitioner over `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        Partitioner { n_ranks }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The rank owning vertex `id`.
    #[inline]
    pub fn owner(&self, id: PointId) -> usize {
        (mix64(u64::from(id)) % self.n_ranks as u64) as usize
    }

    /// Group `ids` by owning rank into `out`, replacing what it held: one
    /// bucket per distinct owner, in first-seen destination order, ids in
    /// input order — the shape every "one message per destination" fan-out
    /// iterates, so message order is a pure function of the id order. The
    /// caller owns `out` and passes the same one every time, so grouping
    /// allocates only while a bucket is still growing to its widest row.
    pub fn group_into(&self, ids: &[PointId], out: &mut Buckets) {
        for dest in out.order.drain(..) {
            out.by_rank[dest].clear();
        }
        out.by_rank.resize_with(self.n_ranks, Vec::new);
        for &id in ids {
            let dest = self.owner(id);
            if out.by_rank[dest].is_empty() {
                out.order.push(dest);
            }
            out.by_rank[dest].push(id);
        }
    }

    /// All ids in `0..n` owned by `rank`, ascending.
    pub fn owned_ids(&self, n: usize, rank: usize) -> Vec<PointId> {
        (0..n as PointId)
            .filter(|&id| self.owner(id) == rank)
            .collect()
    }

    /// For every id in `0..n`, its index in its owner's
    /// [`Self::owned_ids`] list: `owned_ids(n, owner(id))[table[id]] == id`.
    /// One table serves every rank, and turns "the state of owned vertex
    /// `id`" into a `Vec` index instead of a hash lookup per message.
    pub fn slot_table(&self, n: usize) -> Vec<u32> {
        let mut next = vec![0u32; self.n_ranks];
        (0..n as PointId)
            .map(|id| {
                let slot = &mut next[self.owner(id)];
                *slot += 1;
                *slot - 1
            })
            .collect()
    }
}

/// Per-destination id buckets filled by [`Partitioner::group_into`].
#[derive(Debug, Default)]
pub struct Buckets {
    /// Destinations holding ids, in first-seen order.
    order: Vec<usize>,
    /// Ids per destination rank; empty for ranks not in `order`.
    by_rank: Vec<Vec<PointId>>,
}

impl Buckets {
    /// `(destination rank, its ids)` in first-seen destination order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[PointId])> {
        self.order
            .iter()
            .map(|&dest| (dest, self.by_rank[dest].as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_has_exactly_one_owner() {
        let p = Partitioner::new(7);
        let n = 1000;
        let mut seen = vec![0u32; n];
        for rank in 0..7 {
            for id in p.owned_ids(n, rank) {
                seen[id as usize] += 1;
                assert_eq!(p.owner(id), rank);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn group_keeps_first_seen_destination_and_input_order() {
        let p = Partitioner::new(3);
        let mut buckets = Buckets::default();
        // A wide row first: the refill below must not see its leftovers.
        p.group_into(&(0..40).collect::<Vec<PointId>>(), &mut buckets);
        for ids in [vec![9, 2, 7, 2, 0, 5, 11], vec![], vec![4]] {
            // Group k belongs to the k-th distinct owner met while walking
            // the input, and holds the input filtered to that owner.
            let mut want: Vec<(usize, Vec<PointId>)> = Vec::new();
            for &id in &ids {
                let rank = p.owner(id);
                if want.iter().all(|(r, _)| *r != rank) {
                    let of_rank = ids.iter().copied().filter(|&x| p.owner(x) == rank);
                    want.push((rank, of_rank.collect()));
                }
            }
            p.group_into(&ids, &mut buckets);
            let got: Vec<(usize, Vec<PointId>)> =
                buckets.iter().map(|(r, g)| (r, g.to_vec())).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn slot_table_indexes_each_owners_list() {
        let p = Partitioner::new(5);
        let n = 700;
        let slots = p.slot_table(n);
        for rank in 0..5 {
            for (i, id) in p.owned_ids(n, rank).into_iter().enumerate() {
                assert_eq!(slots[id as usize] as usize, i);
            }
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = Partitioner::new(1);
        assert_eq!(p.owned_ids(10, 0).len(), 10);
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let p = Partitioner::new(8);
        let n = 16_000;
        let sizes: Vec<usize> = (0..8).map(|r| p.owned_ids(n, r).len()).collect();
        let expect = n / 8;
        for (r, &s) in sizes.iter().enumerate() {
            assert!(
                (s as i64 - expect as i64).unsigned_abs() < (expect / 5) as u64,
                "rank {r} owns {s}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn hashing_scatters_consecutive_ids() {
        // Consecutive ids should not all land on the same rank.
        let p = Partitioner::new(4);
        let owners: Vec<usize> = (0..16).map(|id| p.owner(id)).collect();
        let distinct: std::collections::HashSet<usize> = owners.iter().copied().collect();
        assert!(distinct.len() >= 3, "owners of 0..16 were {owners:?}");
    }

    #[test]
    fn id_hash_is_salted_away_from_the_owner_function() {
        use std::hash::BuildHasher;
        // Ids owned by one rank share `mix64(id) % n`; their map hashes
        // must not share low bits, or a rank's map would use 1/n buckets.
        let p = Partitioner::new(4);
        let low: std::collections::HashSet<u64> = p
            .owned_ids(4_000, 0)
            .iter()
            .map(|id| IdBuildHasher::default().hash_one(id) % 4)
            .collect();
        assert_eq!(low.len(), 4);
    }

    #[test]
    fn id_hash_folds_every_word_of_a_tuple_key() {
        use std::hash::BuildHasher;
        let h = |k: (PointId, PointId)| IdBuildHasher::default().hash_one(k);
        assert_ne!(h((1, 2)), h((2, 1)));
        assert_ne!(h((1, 2)), h((1, 3)));
        assert_ne!(h((1, 2)), h((0, 2)));
    }

    #[test]
    fn mix64_is_bijective_sampling() {
        // Not a proof of bijectivity, but distinct inputs must map to
        // distinct outputs on a large sample (collision would be a bug).
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
