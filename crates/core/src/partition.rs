//! Vertex ownership: DNND "distributes a k-NNG G and an input dataset V
//! equally among all MPI ranks based on the hash values of the vertex IDs"
//! (Section 4). Each vertex's feature vector and its neighbor list live on
//! the same rank.

use dataset::set::PointId;

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

    /// Group `ids` by owning rank: one `(rank, ids)` entry per distinct
    /// owner, in first-seen destination order, ids in input order — the
    /// shape every "one message per destination" fan-out iterates, so
    /// message order is a pure function of the id order.
    pub fn group(&self, ids: &[PointId]) -> Vec<(usize, Vec<PointId>)> {
        let mut groups: Vec<(usize, Vec<PointId>)> = Vec::new();
        for &id in ids {
            let dest = self.owner(id);
            match groups.iter_mut().find(|(r, _)| *r == dest) {
                Some((_, g)) => g.push(id),
                None => groups.push((dest, vec![id])),
            }
        }
        groups
    }

    /// All ids in `0..n` owned by `rank`, ascending.
    pub fn owned_ids(&self, n: usize, rank: usize) -> Vec<PointId> {
        (0..n as PointId)
            .filter(|&id| self.owner(id) == rank)
            .collect()
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
        let ids: Vec<PointId> = vec![9, 2, 7, 2, 0, 5, 11];
        // Group k belongs to the k-th distinct owner met while walking the
        // input, and holds the input filtered to that owner.
        let mut want: Vec<(usize, Vec<PointId>)> = Vec::new();
        for &id in &ids {
            let rank = p.owner(id);
            if want.iter().all(|(r, _)| *r != rank) {
                let of_rank = ids.iter().copied().filter(|&x| p.owner(x) == rank);
                want.push((rank, of_rank.collect()));
            }
        }
        assert_eq!(p.group(&ids), want);
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
    fn mix64_is_bijective_sampling() {
        // Not a proof of bijectivity, but distinct inputs must map to
        // distinct outputs on a large sample (collision would be a bug).
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
