//! Property tests for `ygm::codec::{Encode, Wire}`: round-trips and exact
//! `wire_size` accounting for every implementation, plus frame-level
//! length accounting with the `FRAME_HEADER_BYTES` header the runtime
//! prepends — including zero-length payloads (`()` messages) and the
//! largest routable tag (`MAX_TAGS - 1`). The slice-codec battery holds
//! every primitive's block `encode_slice` / `decode_vec_into` to the
//! per-element format, for every length 0..=300, over an empty, a dirty
//! longer and a dirty shorter destination, and a property holds
//! `encode_slice` to the per-element loop for random contents behind a
//! random prefix; the last section holds
//! `decode_into` to `decode` and a tuple of borrows to the owned struct.

use proptest::prelude::*;
use ygm::codec::{decode_from_bytes, encode_to_bytes, Buf, BufMut, Bytes, BytesMut};
use ygm::{Encode, Wire, FRAME_HEADER_BYTES, MAX_TAGS};

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
/// length, `decode_vec_into` inverts it bit for bit — whether the
/// destination starts empty, holds more elements than arrive or holds
/// fewer — and consumes exactly those bytes, leaving whatever follows in
/// the buffer untouched. `Vec::decode_into` over the same dirty
/// destinations equals `Vec::decode`.
fn slice_codec_matches_per_element<T: Wire + Copy>(gen: impl Fn(u64) -> T) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64: any bit pattern, NaN payloads included.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        gen(x)
    };
    for len in 0..=300usize {
        let items: Vec<T> = (0..len).map(|_| next()).collect();

        let mut reference = BytesMut::new();
        items.iter().for_each(|v| v.encode(&mut reference));
        let mut block = BytesMut::new();
        block.put_u8(0xA5); // a prefix already in the buffer must survive
        T::encode_slice(&items, &mut block);
        block.put_u8(0x5A);
        assert_eq!(&block[1..block.len() - 1], &reference[..], "len {len}");
        assert_eq!(T::slice_wire_size(&items), reference.len(), "len {len}");
        let block = block.freeze();
        let prefixed = encode_to_bytes(&items);

        // Compare by re-encoding: bit-exact even where `==` is not (NaN).
        let same_bits = |back: &[T], what: &str| {
            let mut again = BytesMut::new();
            back.iter().for_each(|v| v.encode(&mut again));
            assert_eq!(again, reference, "{what}, len {len}");
        };
        let dirty_longer: Vec<T> = (0..len + 7).map(|_| next()).collect();
        let dirty_shorter: Vec<T> = (0..len / 2).map(|_| next()).collect();
        for scratch in [Vec::new(), dirty_longer, dirty_shorter] {
            let mut bytes = block.clone();
            assert_eq!(bytes.get_u8(), 0xA5);
            let mut back = scratch.clone();
            T::decode_vec_into(len, &mut bytes, &mut back);
            assert_eq!(
                bytes.len(),
                1,
                "decode_vec_into over- or under-consumed at {len}"
            );
            assert_eq!(bytes.get_u8(), 0x5A);
            same_bits(&back, "decode_vec_into");

            let mut bytes = prefixed.clone();
            let mut back = scratch;
            back.decode_into(&mut bytes);
            assert!(bytes.is_empty(), "decode_into left bytes at {len}");
            same_bits(&back, "decode_into");
            same_bits(&decode_from_bytes::<Vec<T>>(prefixed.clone()), "decode");
        }
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

/// Lengths on both sides of 8, 16 and 64 elements and of 64-byte
/// multiples for every element size (1, 2, 4 and 8 bytes): where an
/// unrolled or chunked encoder would go wrong.
const EDGE_LENGTHS: [usize; 14] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 97, 128, 129];

/// `encode_slice` appended after `prefix` leaves exactly `prefix` followed
/// by the per-element `encode` loop's bytes.
fn encode_slice_is_the_loop<T: Encode>(prefix: &[u8], items: &[T]) -> Result<(), String> {
    let mut want = BytesMut::new();
    want.put_slice(prefix);
    items.iter().for_each(|v| v.encode(&mut want));
    let mut got = BytesMut::new();
    got.put_slice(prefix);
    T::encode_slice(items, &mut got);
    prop_assert_eq!(got, want, "{} items", items.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every primitive's `encode_slice`, and the tuple slice's default,
    /// write the per-element bytes at every edge length.
    #[test]
    fn encode_slice_is_the_per_element_loop_at_edge_lengths(
        words in prop::collection::vec(any::<u64>(), 129..=129),
        prefix in prop::collection::vec(any::<u8>(), 0..=9),
    ) {
        for len in EDGE_LENGTHS {
            let w = &words[..len];
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| x as u8))?;
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| x as u16))?;
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| x as u32))?;
            encode_slice_is_the_loop(&prefix, w)?;
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| x as i32))?;
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| x as i64))?;
            encode_slice_is_the_loop(&prefix, &map_words(w, |x| f32::from_bits(x as u32)))?;
            encode_slice_is_the_loop(&prefix, &map_words(w, f64::from_bits))?;
            let scored = map_words(w, |x| (x as u32, f32::from_bits((x >> 32) as u32)));
            encode_slice_is_the_loop(&prefix, &scored)?;
        }
    }
}

/// `f` of each word, in order.
fn map_words<T>(words: &[u64], f: impl Fn(u64) -> T) -> Vec<T> {
    words.iter().map(|&x| f(x)).collect()
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

// ---- decode_into and borrowed sends --------------------------------------

/// A scratch value that has already held a longer and then a shorter
/// message decodes the next one exactly as a fresh `decode` does.
fn decode_into_equals_decode<T: Wire + PartialEq + std::fmt::Debug>(scratch: &mut T, value: &T) {
    let enc = encode_to_bytes(value);
    let mut bytes = enc.clone();
    scratch.decode_into(&mut bytes);
    assert!(bytes.is_empty(), "decode_into left {} bytes", bytes.len());
    assert_eq!(scratch, value);
    assert_eq!(&decode_from_bytes::<T>(enc), value);
}

#[test]
fn decode_into_over_dirty_scratch_equals_decode_for_nested_values() {
    let pairs =
        |n: u32| -> Vec<(u32, f32)> { (0..n).map(|i| (i * 7 + 1, i as f32 * 0.5)).collect() };
    let mut scratch: (u32, Vec<(u32, f32)>) = (0, Vec::new());
    for n in [40u32, 3, 0, 300, 1, 299] {
        decode_into_equals_decode(&mut scratch, &(n, pairs(n)));
    }
    let mut nested: Vec<Vec<u16>> = Vec::new();
    for n in [9usize, 2, 0, 30] {
        let value: Vec<Vec<u16>> = (0..n).map(|i| (0..i as u16 * 3).collect()).collect();
        decode_into_equals_decode(&mut nested, &value);
    }
    let mut opt: Option<Vec<u64>> = Some(vec![1, 2, 3]);
    for value in [None, Some(vec![9u64; 17]), Some(Vec::new()), None] {
        decode_into_equals_decode(&mut opt, &value);
    }
}

/// The five vector-carrying message shapes of the DNND protocols (`dnnd`
/// is not visible from here, so they are mirrored field for field).
#[derive(Debug, Clone, PartialEq, Default)]
struct InitReq<P> {
    v: u32,
    us: Vec<u32>,
    vec: P,
}
ygm::wire_struct!(InitReq<P> { v, us, vec });

#[derive(Debug, Clone, PartialEq, Default)]
struct Type2Plus<P> {
    u1: u32,
    u2s: Vec<u32>,
    bound: f32,
    vec: P,
}
ygm::wire_struct!(Type2Plus<P> { u1, u2s, bound, vec });

#[derive(Debug, Clone, PartialEq, Default)]
struct RnnVec<P> {
    v: u32,
    a: u32,
    bs: Vec<u32>,
    vec: P,
}
ygm::wire_struct!(RnnVec<P> { v, a, bs, vec });

fn borrowed_rows_equal_owned<P>(vec: P)
where
    P: Wire + Clone + PartialEq + std::fmt::Debug + Default,
{
    let mut t2p_scratch = Type2Plus::<P>::default();
    for ids in [vec![4u32, 900_000, 1], Vec::new(), vec![7; 40], vec![2]] {
        // InitReq and Type2 share one shape; Score is RnnVec's
        // (u32, u32, ids, vector).
        let init = InitReq {
            v: 9,
            us: ids.clone(),
            vec: vec.clone(),
        };
        assert_eq!(
            encode_to_bytes(&(9u32, ids.as_slice(), &vec)),
            encode_to_bytes(&init)
        );
        let t2p = Type2Plus {
            u1: 9,
            u2s: ids.clone(),
            bound: f32::INFINITY,
            vec: vec.clone(),
        };
        let borrowed = encode_to_bytes(&(9u32, ids.as_slice(), f32::INFINITY, &vec));
        assert_eq!(
            borrowed.len(),
            (9u32, ids.as_slice(), 0f32, &vec).wire_size()
        );
        assert_eq!(borrowed, encode_to_bytes(&t2p));
        // ...and the owned type decodes it, fresh or over a used scratch.
        assert_eq!(decode_from_bytes::<Type2Plus<P>>(borrowed.clone()), t2p);
        t2p_scratch.decode_into(&mut borrowed.clone());
        assert_eq!(t2p_scratch, t2p);
        let rnn = RnnVec {
            v: 1,
            a: 2,
            bs: ids.clone(),
            vec: vec.clone(),
        };
        assert_eq!(
            encode_to_bytes(&(1u32, 2u32, ids.as_slice(), &vec)),
            encode_to_bytes(&rnn)
        );
    }
}

#[test]
fn a_tuple_of_borrows_encodes_as_the_owned_struct() {
    borrowed_rows_equal_owned(
        (0..96)
            .map(|i| i as f32 * 0.37 - 11.5)
            .collect::<Vec<f32>>(),
    );
    borrowed_rows_equal_owned((0..128).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>());
    borrowed_rows_equal_owned(Vec::<f32>::new());
}

/// `ff ff ff ff` as a length prefix is the same "buffer underflow" panic
/// on the reusing path: the count is checked against the bytes present
/// before the destination is touched.
#[test]
fn oversized_prefix_through_decode_into_is_an_underflow_not_an_allocation() {
    fn attempt<T: Wire + 'static>() {
        let result = std::panic::catch_unwind(|| {
            let mut scratch: Vec<T> = Vec::new();
            scratch.decode_into(&mut Bytes::from(vec![0xff; 4]));
        });
        let payload = result.expect_err("a 4 Gi-element prefix must not decode");
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(text.contains("buffer underflow"), "panicked with {text:?}");
    }
    attempt::<f32>();
    attempt::<u8>();
    attempt::<(u32, f32)>();
    // Inside a struct, behind other fields.
    let result = std::panic::catch_unwind(|| {
        let mut enc = BytesMut::new();
        7u32.encode(&mut enc);
        enc.put_u32_le(u32::MAX);
        let mut scratch = Type2Plus::<Vec<f32>>::default();
        scratch.decode_into(&mut enc.freeze());
    });
    assert!(result.is_err());
}
