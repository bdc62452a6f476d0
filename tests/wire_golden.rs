//! Golden pins for the rank-to-rank wire format (`ygm::codec`).
//!
//! Every constant below — encoded length and FNV-1a digest of the encoded
//! bytes — was captured at commit `dc62265` (the parent of the PR that gave
//! `Vec<T>` a slice codec), *before* any codec code was edited. The wire
//! format is the per-element little-endian format with `u32` length
//! prefixes; a codec optimization must leave every byte where it was. A
//! deliberate format change re-captures them and says so.
//!
//! The vector-carrying messages are *sent* as tuples of borrows (no clone
//! of the vector); each is held to the same constants as the owned struct
//! the receiver decodes.

use dataset::SparseVec;
use dnnd::msgs::{InitReq, Type1, Type2, Type2Plus, Type3};
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Encode, Wire};

/// FNV-1a over the encoded bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Encode `value` and pin length + digest.
#[track_caller]
fn pin_bytes<T: Encode + ?Sized>(
    what: &str,
    value: &T,
    want_len: usize,
    want_digest: u64,
) -> ygm::codec::Bytes {
    let enc = encode_to_bytes(value);
    assert_eq!(enc.len(), value.wire_size(), "{what}: wire_size");
    let got = fnv(&enc);
    assert!(
        enc.len() == want_len && got == want_digest,
        "{what}: got len {} digest {got:#018x}",
        enc.len()
    );
    enc
}

/// Encode `value`, pin length + digest, and return the decoded copy.
#[track_caller]
fn pin<T: Wire>(what: &str, value: &T, want_len: usize, want_digest: u64) -> T {
    decode_from_bytes(pin_bytes(what, value, want_len, want_digest))
}

fn f32_vec(d: usize) -> Vec<f32> {
    (0..d).map(|i| i as f32 * 0.37 - 11.5).collect()
}

fn u8_vec(d: usize) -> Vec<u8> {
    (0..d).map(|i| (i * 7 + 3) as u8).collect()
}

fn dist_pairs(n: u32) -> Vec<(u32, f32)> {
    (0..n)
        .map(|i| (i * 13 + 1, i as f32 * 0.25 + 0.5))
        .collect()
}

#[test]
fn id_only_messages_are_pinned() {
    let t1: Type1 = (42, vec![7, 900_000, 3, u32::MAX]);
    assert_eq!(pin("Type1", &t1, 24, 0x5e75_0e02_b282_785f), t1);
    let row = (t1.0, t1.1.as_slice());
    pin_bytes("borrowed Type1", &row, 24, 0x5e75_0e02_b282_785f);

    let t3: Type3 = (17, dist_pairs(5));
    assert_eq!(pin("Type3", &t3, 48, 0xbddb_5854_9d48_da61), t3);
    let reply = (t3.0, t3.1.as_slice());
    pin_bytes("borrowed Type3", &reply, 48, 0xbddb_5854_9d48_da61);
}

#[test]
fn dense_vector_messages_are_pinned() {
    let t2 = Type2 {
        u1: 9,
        u2s: vec![1, 2, 3, 4],
        vec: f32_vec(96),
    };
    assert_eq!(pin("Type2<f32>", &t2, 412, 0x9bce_2c72_52c4_b5d9), t2);
    let sent = (t2.u1, t2.u2s.as_slice(), &t2.vec);
    pin_bytes("borrowed Type2<f32>", &sent, 412, 0x9bce_2c72_52c4_b5d9);

    let t2 = Type2 {
        u1: 1_000_001,
        u2s: vec![5, 6],
        vec: u8_vec(128),
    };
    assert_eq!(pin("Type2<u8>", &t2, 148, 0xe706_76a2_506d_2c7c), t2);
    let sent = (t2.u1, t2.u2s.as_slice(), &t2.vec);
    pin_bytes("borrowed Type2<u8>", &sent, 148, 0xe706_76a2_506d_2c7c);

    let t2p = Type2Plus {
        u1: 3,
        u2s: vec![11, 12, 13],
        bound: f32::INFINITY,
        vec: f32_vec(96),
    };
    let back = pin("Type2Plus<f32>", &t2p, 412, 0x47f8_1cc5_0d32_1c0b);
    assert!(back.bound.is_infinite());
    assert_eq!(back, t2p);
    let sent = (t2p.u1, t2p.u2s.as_slice(), t2p.bound, &t2p.vec);
    pin_bytes("borrowed Type2Plus<f32>", &sent, 412, 0x47f8_1cc5_0d32_1c0b);

    let init = InitReq {
        v: 77,
        us: vec![8, 800, 80_000],
        vec: f32_vec(96),
    };
    assert_eq!(pin("InitReq<f32>", &init, 408, 0x0348_5bf4_f0de_72ba), init);
    let sent = (init.v, init.us.as_slice(), &init.vec);
    pin_bytes("borrowed InitReq<f32>", &sent, 408, 0x0348_5bf4_f0de_72ba);
}

#[test]
fn sparse_vector_message_is_pinned() {
    let t2p = Type2Plus {
        u1: 0,
        u2s: vec![1],
        bound: f32::INFINITY,
        vec: SparseVec::new(vec![5, 1, 12, 70_000, 33]),
    };
    assert_eq!(
        pin("Type2Plus<SparseVec>", &t2p, 40, 0x87ee_34ce_afc5_e006),
        t2p
    );
}

#[test]
fn bare_vectors_are_pinned() {
    let empty: Vec<f32> = Vec::new();
    assert_eq!(
        pin("empty Vec<f32>", &empty, 4, 0x4d25_767f_9dce_13f5),
        empty
    );

    // NaN payload bits and a signed zero must survive bit for bit.
    let bits = [
        0x7ff8_0000_dead_beef_u64,
        0xfff0_0000_0000_0001,
        0x8000_0000_0000_0000,
        1.5f64.to_bits(),
    ];
    let v: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    let back = pin("Vec<f64> with NaN payloads", &v, 36, 0x4678_7141_7f7a_ddc7);
    let back_bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
    assert_eq!(back_bits, bits);
}
