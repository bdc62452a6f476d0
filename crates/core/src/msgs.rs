//! Wire messages and tags for the DNND protocol.
//!
//! Tag names follow the paper's Figure 1 terminology:
//!
//! * **Type 1** — neighbor-check request from the center vertex `v` to (the
//!   owner of) `u1`, naming the join row `(u1, [u2...])`. Small: ids only.
//! * **Type 2** — unoptimized full feature-vector exchange (Figure 1a):
//!   both endpoints ship their vectors to each other.
//! * **Type 2+** — optimized vector message (Figure 1b): `u1`'s vector plus
//!   the distance to `u1`'s current farthest neighbor (the pruning bound of
//!   Section 4.3.3). The bound is "negligible in size" next to the vector.
//! * **Type 3** — distance-return message from `u2`'s owner back to `u1`.
//!
//! Since the batched-kernel rework every check message carries a *row* of
//! partner ids rather than a single pair: one Type 1 per join head, one
//! Type 2/2+ per `(head, destination-rank)` group — shipping the head's
//! vector once per destination instead of once per pair — and one Type 3
//! per answered Type 2+. Receivers evaluate each row as a single 1xN
//! batched distance call.
//!
//! Init and reverse-exchange messages round out the protocol; the tag
//! constants index the [`ygm::Stats`] counters behind Figure 4.

use dataset::set::PointId;

/// k-NNG random initialization: carry `v`'s vector to `owner(u)`.
pub const TAG_INIT_REQ: u16 = 10;
/// Initialization reply: distance from `v` to `u`.
pub const TAG_INIT_RESP: u16 = 11;
/// Reverse-neighbor exchange entry (Section 4.2), `new` lists.
pub const TAG_REV_NEW: u16 = 12;
/// Reverse-neighbor exchange entry (Section 4.2), `old` lists.
pub const TAG_REV_OLD: u16 = 13;
/// Neighbor-check request (both protocols).
pub const TAG_TYPE1: u16 = 14;
/// Unoptimized full-vector exchange.
pub const TAG_TYPE2: u16 = 15;
/// Optimized vector + pruning-bound message.
pub const TAG_TYPE2_PLUS: u16 = 16;
/// Distance return.
pub const TAG_TYPE3: u16 = 17;
/// Graph-optimization reverse-edge shipment (Section 4.5).
pub const TAG_OPT_EDGE: u16 = 18;
/// RNN-Descent pair-distance request `(v, a, [b...])` to `owner(a)`: `v`'s
/// occlusion scan needs `theta(a, b)` for every tail. Ids only.
pub const TAG_RNN_REQ: u16 = 19;
/// RNN-Descent vector forward: `owner(a)` ships `a`'s vector once per
/// destination rank holding tails (the Type 2+ analogue of the 3-hop
/// chain).
pub const TAG_RNN_VEC: u16 = 20;
/// RNN-Descent distance return `(v, a, [(b, theta(a, b))...])` back to
/// `owner(v)` (the Type 3 analogue).
pub const TAG_RNN_DIST: u16 = 21;
/// RNN-Descent redirected-edge insert `(u, [(w, theta(u, w))...])`: `v`'s
/// scan occluded `v -> w` behind `u`, so `w` joins `u`'s row.
pub const TAG_RNN_INS: u16 = 22;
/// RNN-Descent reverse edge `(w, v, d)`: `v` holds `v -> w` at `d`; ship
/// `w -> v` to `owner(w)` at an outer-round boundary.
pub const TAG_RNN_REV: u16 = 23;

/// All protocol tags with their display names. The four neighbor-check
/// messages carry the paper's exact Figure 4 labels.
pub const TAG_NAMES: [(u16, &str); 14] = [
    (TAG_INIT_REQ, "init_req"),
    (TAG_INIT_RESP, "init_resp"),
    (TAG_REV_NEW, "rev_new"),
    (TAG_REV_OLD, "rev_old"),
    (TAG_TYPE1, "Type 1"),
    (TAG_TYPE2, "Type 2"),
    (TAG_TYPE2_PLUS, "Type 2+"),
    (TAG_TYPE3, "Type 3"),
    (TAG_OPT_EDGE, "opt_edge"),
    (TAG_RNN_REQ, "rnn_req"),
    (TAG_RNN_VEC, "rnn_vec"),
    (TAG_RNN_DIST, "rnn_dist"),
    (TAG_RNN_INS, "rnn_ins"),
    (TAG_RNN_REV, "rnn_rev"),
];

/// Display name for one DNND tag.
pub fn tag_display(tag: u16) -> &'static str {
    TAG_NAMES
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, n)| *n)
        .unwrap_or("unknown")
}

/// Attach human-readable names to all DNND tags on a comm's stats.
pub fn name_tags(comm: &ygm::Comm) {
    for (tag, name) in TAG_NAMES {
        comm.name_tag(tag, name);
    }
}

/// Init request: compute `theta(v, u)` for every `u` in `us` at their
/// owner (all `us` share one destination rank) using the attached vector
/// of `v`, as one batched distance call.
///
/// Like every vector-carrying message below, this struct is what the
/// receiving handler decodes into; the sender never builds one. It sends
/// the same fields as a tuple of borrows — `&(v, &us[..], &vec)` — which
/// [`ygm::Encode`]s to the same bytes without cloning the vector.
#[derive(Debug, Clone, PartialEq)]
pub struct InitReq<P> {
    /// The vertex being initialized (reply goes to its owner).
    pub v: PointId,
    /// The randomly drawn candidate neighbors owned by the destination.
    pub us: Vec<PointId>,
    /// Feature vector of `v`.
    pub vec: P,
}

ygm::wire_struct!(InitReq<P> { v, us, vec });

/// Init reply: `(v, [(u, theta(v, u))...])` back to `owner(v)`.
pub type InitResp = (PointId, Vec<(PointId, f32)>);

/// Reverse-exchange entry `(u, v)`: "v listed u in its new/old list", sent
/// to `owner(u)`.
pub type RevEntry = (PointId, PointId);

/// Type 1: check the join row `(u1, [u2...])`, delivered to `owner(u1)`.
pub type Type1 = (PointId, Vec<PointId>);

/// Type 2 (unoptimized): `u1`'s vector shipped once to the rank owning
/// every endpoint in `u2s`; each `u2` computes its distance (one batched
/// 1xN call) and updates only its own neighbor list.
#[derive(Debug, Clone, PartialEq)]
pub struct Type2<P> {
    /// Source endpoint (vector attached).
    pub u1: PointId,
    /// Destination endpoints (all owned by the receiving rank).
    pub u2s: Vec<PointId>,
    /// Feature vector of `u1`.
    pub vec: P,
}

ygm::wire_struct!(Type2<P> { u1, u2s, vec });

/// Type 2+ (optimized): like [`Type2`] plus the pruning bound
/// `theta(u1, G[u1][k])`.
#[derive(Debug, Clone, PartialEq)]
pub struct Type2Plus<P> {
    /// Endpoint that forwarded its vector.
    pub u1: PointId,
    /// Endpoints owned by the receiving rank.
    pub u2s: Vec<PointId>,
    /// `u1`'s current farthest-neighbor distance (`f32::INFINITY` while
    /// `u1`'s heap is not full, or when pruning is disabled).
    pub bound: f32,
    /// Feature vector of `u1`.
    pub vec: P,
}

ygm::wire_struct!(Type2Plus<P> { u1, u2s, bound, vec });

/// Type 3: `(u1, [(u2, theta(u1, u2))...])` returned to `owner(u1)` — one
/// message per answered Type 2+, carrying every non-pruned distance.
pub type Type3 = (PointId, Vec<(PointId, f32)>);

/// Graph-optimization reverse edge `(u, v, d)`: v holds edge `v -> u` at
/// distance `d`; ship `u <- v` to `owner(u)` (Section 4.5).
pub type OptEdge = (PointId, PointId, f32);

/// RNN-Descent pair-distance request `(v, a, [b...])`, delivered to
/// `owner(a)`.
pub type RnnReq = (PointId, PointId, Vec<PointId>);

/// RNN-Descent vector forward: `a`'s vector shipped once to the rank
/// owning every tail in `bs`; the receiver answers `owner(v)` with one
/// batched distance row.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnVec<P> {
    /// The scanning vertex the distances are for.
    pub v: PointId,
    /// Head of the pair row (vector attached).
    pub a: PointId,
    /// Tails owned by the receiving rank.
    pub bs: Vec<PointId>,
    /// Feature vector of `a`.
    pub vec: P,
}

ygm::wire_struct!(RnnVec<P> { v, a, bs, vec });

/// RNN-Descent distance return `(v, a, [(b, theta(a, b))...])`.
pub type RnnDist = (PointId, PointId, Vec<(PointId, f32)>);

/// RNN-Descent redirected insert `(u, [(w, theta(u, w))...])`, delivered
/// to `owner(u)`.
pub type RnnIns = (PointId, Vec<(PointId, f32)>);

/// RNN-Descent reverse edge `(w, v, d)`, delivered to `owner(w)`.
pub type RnnRev = (PointId, PointId, f32);

#[cfg(test)]
mod tests {
    use super::*;
    use ygm::codec::{decode_from_bytes, encode_to_bytes};
    use ygm::Encode;

    #[test]
    fn init_req_round_trip() {
        let m = InitReq {
            v: 3,
            us: vec![9, 12, 40],
            vec: vec![1.0f32, -2.0],
        };
        let enc = encode_to_bytes(&m);
        assert_eq!(enc.len(), m.wire_size());
        let back: InitReq<Vec<f32>> = decode_from_bytes(enc);
        assert_eq!(back, m);
    }

    #[test]
    fn type2_round_trip_u8() {
        let m = Type2 {
            u1: 1,
            u2s: vec![2, 6],
            vec: vec![9u8, 8, 7],
        };
        let back: Type2<Vec<u8>> = decode_from_bytes(encode_to_bytes(&m));
        assert_eq!(back, m);
    }

    #[test]
    fn type2plus_round_trip_and_bound() {
        let m = Type2Plus {
            u1: 4,
            u2s: vec![5, 11, 19],
            bound: 2.5,
            vec: vec![0.5f32; 8],
        };
        let back: Type2Plus<Vec<f32>> = decode_from_bytes(encode_to_bytes(&m));
        assert_eq!(back, m);
        // The bound adds exactly 4 bytes over Type 2 — "negligible" next to
        // the vector, as the paper argues.
        let t2 = Type2 {
            u1: 4,
            u2s: vec![5, 11, 19],
            vec: vec![0.5f32; 8],
        };
        assert_eq!(m.wire_size(), t2.wire_size() + 4);
    }

    #[test]
    fn sparse_vectors_travel_in_checks() {
        let m = Type2Plus {
            u1: 0,
            u2s: vec![1],
            bound: f32::INFINITY,
            vec: dataset::SparseVec::new(vec![5, 1, 12]),
        };
        let back: Type2Plus<dataset::SparseVec> = decode_from_bytes(encode_to_bytes(&m));
        assert_eq!(back, m);
        assert!(back.bound.is_infinite());
    }

    /// What the engine actually sends: the owned struct's fields as a tuple
    /// of borrows. Same bytes, so the owned type decodes them.
    #[test]
    fn a_tuple_of_borrows_is_the_owned_message() {
        let (us, vec) = (vec![9u32, 12, 40], vec![1.0f32, -2.0, 0.5]);
        let init = InitReq {
            v: 3,
            us: us.clone(),
            vec: vec.clone(),
        };
        let t2 = Type2 {
            u1: 3,
            u2s: us.clone(),
            vec: vec.clone(),
        };
        let t2p = Type2Plus {
            u1: 3,
            u2s: us.clone(),
            bound: 2.5,
            vec: vec.clone(),
        };
        let rnn = RnnVec {
            v: 3,
            a: 8,
            bs: us.clone(),
            vec: vec.clone(),
        };
        assert_eq!(
            encode_to_bytes(&(3u32, us.as_slice(), &vec)),
            encode_to_bytes(&init)
        );
        assert_eq!(
            encode_to_bytes(&(3u32, us.as_slice(), &vec)),
            encode_to_bytes(&t2)
        );
        let borrowed = encode_to_bytes(&(3u32, us.as_slice(), 2.5f32, &vec));
        assert_eq!(borrowed, encode_to_bytes(&t2p));
        assert_eq!(decode_from_bytes::<Type2Plus<Vec<f32>>>(borrowed), t2p);
        assert_eq!(
            encode_to_bytes(&(3u32, 8u32, us.as_slice(), &vec)),
            encode_to_bytes(&rnn)
        );
    }

    #[test]
    fn tags_are_distinct() {
        let mut sorted: Vec<u16> = TAG_NAMES.iter().map(|&(t, _)| t).collect();
        let len = sorted.len();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), len);
        assert!(sorted.iter().all(|&t| (t as usize) < ygm::MAX_TAGS));
    }

    #[test]
    fn rnn_vec_round_trip() {
        let m = RnnVec {
            v: 7,
            a: 3,
            bs: vec![1, 4, 9],
            vec: vec![0.25f32; 6],
        };
        let enc = encode_to_bytes(&m);
        assert_eq!(enc.len(), m.wire_size());
        let back: RnnVec<Vec<f32>> = decode_from_bytes(enc);
        assert_eq!(back, m);
    }
}
