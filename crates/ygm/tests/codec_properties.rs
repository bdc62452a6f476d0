//! Property tests for `ygm::codec::Wire`: round-trips and exact
//! `wire_size` accounting for every implementation, plus frame-level
//! length accounting with the `FRAME_HEADER_BYTES` header the runtime
//! prepends — including zero-length payloads (`()` messages) and the
//! largest routable tag (`MAX_TAGS - 1`). The slice-codec battery at the
//! bottom holds every primitive's block `encode_slice` / `decode_vec` to
//! the per-element format, for every length 0..=300.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use ygm::codec::{decode_from_bytes, encode_to_bytes};
use ygm::{Wire, FRAME_HEADER_BYTES, MAX_TAGS};

/// Encode, assert the byte count matches `wire_size` exactly, decode back.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug + Clone>(value: &T) {
    let enc = encode_to_bytes(value);
    assert_eq!(
        enc.len(),
        value.wire_size(),
        "wire_size disagrees with encoded length for {value:?}"
    );
    let back: T = decode_from_bytes(enc);
    assert_eq!(&back, value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn primitives_round_trip(
        a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(),
        e in any::<i32>(), f in any::<i64>(), g in any::<bool>(), h in any::<u64>(),
    ) {
        round_trip(&a);
        round_trip(&b);
        round_trip(&c);
        round_trip(&d);
        round_trip(&e);
        round_trip(&f);
        round_trip(&g);
        round_trip(&(h as usize));
    }

    /// Floats round-trip bit-exactly — including NaN payloads and signed
    /// zeros, which `PartialEq` would conflate.
    #[test]
    fn floats_round_trip_bit_exactly(bits32 in any::<u32>(), bits64 in any::<u64>()) {
        let x = f32::from_bits(bits32);
        let enc = encode_to_bytes(&x);
        prop_assert_eq!(enc.len(), x.wire_size());
        let back: f32 = decode_from_bytes(enc);
        prop_assert_eq!(back.to_bits(), bits32);

        let y = f64::from_bits(bits64);
        let enc = encode_to_bytes(&y);
        prop_assert_eq!(enc.len(), y.wire_size());
        let back: f64 = decode_from_bytes(enc);
        prop_assert_eq!(back.to_bits(), bits64);
    }

    #[test]
    fn collections_and_options_round_trip(
        v in prop::collection::vec(any::<u32>(), 0..40),
        nested in prop::collection::vec(prop::collection::vec(any::<u16>(), 0..8), 0..8),
        o in prop::option::of(any::<u64>()),
        oo in prop::option::of(prop::option::of(any::<u8>())),
        t in (any::<u32>(), any::<bool>(), prop::collection::vec(any::<i64>(), 0..6)),
    ) {
        round_trip(&v);
        round_trip(&nested);
        round_trip(&o);
        round_trip(&oo);
        round_trip(&t);
    }

    /// Decoding consumes *exactly* the bytes encoding produced: two values
    /// concatenated into one buffer decode back-to-back with nothing left.
    #[test]
    fn decode_consumes_exactly(
        first in prop::collection::vec((any::<u32>(), any::<u64>()), 0..12),
        second in prop::option::of(any::<i64>()),
    ) {
        let mut buf = BytesMut::new();
        first.encode(&mut buf);
        second.encode(&mut buf);
        prop_assert_eq!(buf.len(), first.wire_size() + second.wire_size());
        let mut bytes: Bytes = buf.freeze();
        let a = <Vec<(u32, u64)> as Wire>::decode(&mut bytes);
        prop_assert_eq!(bytes.len(), second.wire_size());
        let b = <Option<i64> as Wire>::decode(&mut bytes);
        prop_assert_eq!(a, first);
        prop_assert_eq!(b, second);
        prop_assert!(bytes.is_empty(), "decode left {} stray bytes", bytes.len());
    }

    /// Frame accounting mirrors `Comm::async_send`: each frame is a `u16`
    /// tag + `u32` payload-length header followed by the payload, and a
    /// whole stream of frames parses back losslessly. Covers zero-length
    /// payloads (tag-only `()` messages) and the largest routable tag.
    #[test]
    fn frame_stream_accounting(
        msgs in prop::collection::vec(
            ((0u16..MAX_TAGS as u16), prop::collection::vec(any::<u32>(), 0..10)),
            0..20,
        ),
    ) {
        let mut buf = BytesMut::new();
        let mut expect_len = 0usize;
        for (tag, payload) in &msgs {
            let sz = payload.wire_size();
            buf.put_u16_le(*tag);
            buf.put_u32_le(sz as u32);
            payload.encode(&mut buf);
            expect_len += FRAME_HEADER_BYTES + sz;
        }
        prop_assert_eq!(buf.len(), expect_len);

        let mut bytes: Bytes = buf.freeze();
        for (tag, payload) in &msgs {
            let got_tag = bytes.get_u16_le();
            let got_len = bytes.get_u32_le() as usize;
            prop_assert_eq!(got_tag, *tag);
            prop_assert_eq!(got_len, payload.wire_size());
            let before = bytes.len();
            let got = <Vec<u32> as Wire>::decode(&mut bytes);
            prop_assert_eq!(before - bytes.len(), got_len);
            prop_assert_eq!(&got, payload);
        }
        prop_assert!(bytes.is_empty());
    }
}

#[test]
fn unit_payload_is_zero_length_and_frames_to_header_only() {
    round_trip(&());
    assert_eq!(().wire_size(), 0);
    let mut buf = BytesMut::new();
    buf.put_u16_le((MAX_TAGS - 1) as u16);
    buf.put_u32_le(0);
    ().encode(&mut buf);
    assert_eq!(buf.len(), FRAME_HEADER_BYTES);
    let mut bytes = buf.freeze();
    assert_eq!(bytes.get_u16_le(), (MAX_TAGS - 1) as u16);
    assert_eq!(bytes.get_u32_le(), 0);
    assert!(bytes.is_empty());
}

#[test]
fn max_tag_value_survives_the_header() {
    // The header stores the tag as a little-endian u16; MAX_TAGS - 1 is the
    // largest tag the runtime will route. Also exercise u16::MAX to prove
    // the header field itself cannot truncate.
    for tag in [(MAX_TAGS - 1) as u16, u16::MAX] {
        let mut buf = BytesMut::new();
        buf.put_u16_le(tag);
        buf.put_u32_le(0);
        let mut bytes = buf.freeze();
        assert_eq!(bytes.get_u16_le(), tag);
    }
}

/// The slice codec of a primitive against the per-element reference, for
/// every length in `0..=300`: `encode_slice` writes exactly the
/// concatenation of the elements' `encode`s, `slice_wire_size` is that
/// length, `decode_vec` inverts it bit for bit and consumes exactly those
/// bytes — leaving whatever follows in the buffer untouched.
fn slice_codec_matches_per_element<T: Wire + Copy>(gen: impl Fn(u64) -> T) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for len in 0..=300usize {
        let items: Vec<T> = (0..len)
            .map(|_| {
                // xorshift64: any bit pattern, NaN payloads included.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                gen(x)
            })
            .collect();

        let mut reference = BytesMut::new();
        items.iter().for_each(|v| v.encode(&mut reference));
        let mut block = BytesMut::new();
        block.put_u8(0xA5); // a prefix already in the buffer must survive
        T::encode_slice(&items, &mut block);
        block.put_u8(0x5A);
        assert_eq!(&block[1..block.len() - 1], &reference[..], "len {len}");
        assert_eq!(T::slice_wire_size(&items), reference.len(), "len {len}");

        let mut bytes = block.freeze();
        assert_eq!(bytes.get_u8(), 0xA5);
        let back = T::decode_vec(len, &mut bytes);
        assert_eq!(
            bytes.len(),
            1,
            "decode_vec over- or under-consumed at {len}"
        );
        assert_eq!(bytes.get_u8(), 0x5A);
        // Compare by re-encoding: bit-exact even where `==` is not (NaN).
        let mut again = BytesMut::new();
        back.iter().for_each(|v| v.encode(&mut again));
        assert_eq!(again, reference, "len {len}");
    }
}

#[test]
fn every_primitive_slice_codec_is_the_per_element_format() {
    slice_codec_matches_per_element(|x| x as u8);
    slice_codec_matches_per_element(|x| x as u16);
    slice_codec_matches_per_element(|x| x as u32);
    slice_codec_matches_per_element(|x| x);
    slice_codec_matches_per_element(|x| x as i32);
    slice_codec_matches_per_element(|x| x as i64);
    slice_codec_matches_per_element(|x| f32::from_bits(x as u32));
    slice_codec_matches_per_element(f64::from_bits);
    // Types without an override take the default loop through the same
    // entry points.
    slice_codec_matches_per_element(|x| x & 1 == 1);
    slice_codec_matches_per_element(|x| x as usize);
    slice_codec_matches_per_element(|x| (x as u32, f32::from_bits((x >> 32) as u32)));
}

/// A block-coded `Vec<T>` nested inside the generic containers (tuple,
/// `Option`, `Vec<Vec<T>>`) still round-trips and still reports its exact
/// size, across the lengths where a chunked copy could go wrong.
#[test]
fn block_coded_vectors_nest() {
    for len in [0usize, 1, 2, 3, 7, 8, 9, 31, 32, 33, 96, 128, 255, 256, 300] {
        let f: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let w: Vec<u64> = (0..len).map(|i| (i as u64) << 40 | 7).collect();
        round_trip(&(7u32, f.clone(), 1.5f32, b.clone()));
        round_trip(&Some(f.clone()));
        round_trip(&Option::<Vec<u8>>::None);
        round_trip(&vec![b.clone(), Vec::new(), b]);
        round_trip(&vec![(1u16, w.clone()), (2, Vec::new())]);
        round_trip(&(Some(vec![f, Vec::new()]), w));
    }
}
