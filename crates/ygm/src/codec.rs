//! Binary wire codec for messages exchanged between ranks.
//!
//! YGM serializes C++ lambdas and their captured arguments into flat byte
//! buffers. Rust closures are not serializable, so this simulated runtime
//! splits the concept: the *function* part is a handler registered under a
//! `Tag` on every rank (see [`crate::comm::Comm::register`]), and the
//! *argument* part is a value encoded with the little-endian codec in this
//! module.
//!
//! The codec is two traits. [`Encode`] is the send half: a value appends
//! itself to a [`BytesMut`] and reports its exact size. It is implemented
//! for unsized and borrowed things too (`[T]`, `&T`), so **a borrowed
//! message is a tuple of borrows**: `&(u1, ids.as_slice(), bound, &vec)`
//! encodes to exactly the bytes of the owned struct with those fields, and
//! nothing is cloned to be sent. [`Wire`] adds the receive half for owned
//! types: `decode` builds a value from a shrinking byte cursor, and
//! `decode_into` overwrites an existing value, reusing whatever heap
//! capacity it already holds (a `Vec<T>` clears and extends). Variable-
//! length collections are prefixed with a `u32` element count.
//!
//! A `Vec<T>` (or `[T]`) moves through the slice methods `encode_slice` /
//! `slice_wire_size` / `decode_vec_into`. Their defaults are the
//! per-element loop; the primitives override them with a `to_le_bytes` /
//! `from_le_bytes` pass. Decoding is one sized loop over `chunks_exact`;
//! encoding writes byte by byte (see `impl_wire_prim!`). The bytes on the
//! wire are the per-element little-endian format either way (pinned by
//! `tests/wire_golden.rs`).

pub use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The send half of the wire format: a value that can append its encoding
/// to a buffer. Implemented for owned values, slices and references, so a
/// message can be assembled from borrows at the send site.
///
/// The runtime frames each message, so implementations never need to
/// encode their own total length.
pub trait Encode {
    /// Append the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Exact number of bytes [`Encode::encode`] will append. Used to charge
    /// the virtual network clock and to pre-reserve buffer space.
    fn wire_size(&self) -> usize;

    /// Append the encodings of `items`, in order, with no length prefix:
    /// the body of a `[Self]` on the wire.
    fn encode_slice(items: &[Self], buf: &mut BytesMut)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
    /// Exact number of bytes [`Encode::encode_slice`] will append.
    fn slice_wire_size(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(Encode::wire_size).sum()
    }
}

/// A value that can be encoded to and decoded from the rank-to-rank wire
/// format.
///
/// Implementations must round-trip: `decode(encode(x)) == x` and consume
/// exactly the bytes they produced.
pub trait Wire: Encode + Sized {
    /// Decode a value from the front of `buf`, consuming exactly the bytes
    /// produced by [`Encode::encode`].
    fn decode(buf: &mut Bytes) -> Self;
    /// Overwrite `self` with the value at the front of `buf`: equal to
    /// `*self = Self::decode(buf)` whatever `self` held before, but free
    /// to keep `self`'s heap capacity.
    fn decode_into(&mut self, buf: &mut Bytes) {
        *self = Self::decode(buf);
    }
    /// Replace the contents of `out` with `n` consecutive values decoded
    /// from the front of `buf`. `n` comes off the wire, so the reservation
    /// is capped by the bytes actually present and a short buffer panics
    /// with "buffer underflow" on the first missing element instead of
    /// asking the allocator for `n` slots.
    fn decode_vec_into(n: usize, buf: &mut Bytes, out: &mut Vec<Self>) {
        out.clear();
        out.reserve(n.min(buf.remaining()));
        for _ in 0..n {
            out.push(Self::decode(buf));
        }
    }
}

macro_rules! impl_wire_prim {
    ($t:ty, $put:ident, $get:ident, $sz:expr) => {
        impl Encode for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn wire_size(&self) -> usize {
                $sz
            }
            #[inline]
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                // `Vec::extend` takes its per-element path (a `FlatMap` is
                // not `TrustedLen`): the exact size hint std gives a flatten
                // of arrays buys at most one reservation, then the bytes are
                // written one at a time, each behind a capacity check.
                // Nothing is zeroed first.
                buf.extend(items.iter().flat_map(|v| v.to_le_bytes()));
            }
            #[inline]
            fn slice_wire_size(items: &[Self]) -> usize {
                items.len() * $sz
            }
        }
        impl Wire for $t {
            #[inline]
            fn decode(buf: &mut Bytes) -> Self {
                buf.$get()
            }
            #[inline]
            fn decode_vec_into(n: usize, buf: &mut Bytes, out: &mut Vec<Self>) {
                assert!(n <= buf.remaining() / $sz, "buffer underflow");
                out.clear();
                out.extend(buf.chunk()[..n * $sz].chunks_exact($sz).map(|c| {
                    <$t>::from_le_bytes(c.try_into().expect("chunks_exact yields SZ bytes"))
                }));
                buf.advance(n * $sz);
            }
        }
    };
}

impl_wire_prim!(u8, put_u8, get_u8, 1);
impl_wire_prim!(u16, put_u16_le, get_u16_le, 2);
impl_wire_prim!(u32, put_u32_le, get_u32_le, 4);
impl_wire_prim!(u64, put_u64_le, get_u64_le, 8);
impl_wire_prim!(i32, put_i32_le, get_i32_le, 4);
impl_wire_prim!(i64, put_i64_le, get_i64_le, 8);
impl_wire_prim!(f32, put_f32_le, get_f32_le, 4);
impl_wire_prim!(f64, put_f64_le, get_f64_le, 8);

impl Encode for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for bool {
    #[inline]
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u8() != 0
    }
}

impl Encode for usize {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for usize {
    #[inline]
    fn decode(buf: &mut Bytes) -> Self {
        buf.get_u64_le() as usize
    }
}

impl Encode for () {
    #[inline]
    fn encode(&self, _buf: &mut BytesMut) {}
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
}

impl Wire for () {
    #[inline]
    fn decode(_buf: &mut Bytes) -> Self {}
}

/// A borrow encodes as what it points at.
impl<T: Encode + ?Sized> Encode for &T {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    #[inline]
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

/// A slice is a `Vec<T>` on the wire: `u32` count, then the elements.
impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        T::encode_slice(self, buf);
    }
    fn wire_size(&self) -> usize {
        4 + T::slice_wire_size(self)
    }
}

impl<T: Encode> Encode for Vec<T> {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.as_slice().encode(buf);
    }
    #[inline]
    fn wire_size(&self) -> usize {
        self.as_slice().wire_size()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn decode(buf: &mut Bytes) -> Self {
        let mut out = Vec::new();
        out.decode_into(buf);
        out
    }
    fn decode_into(&mut self, buf: &mut Bytes) {
        let n = buf.get_u32_le() as usize;
        T::decode_vec_into(n, buf, self);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            None => buf.put_u8(0),
        }
    }
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::wire_size)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn decode(buf: &mut Bytes) -> Self {
        if buf.get_u8() != 0 {
            Some(T::decode(buf))
        } else {
            None
        }
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$idx.encode(buf);)+
            }
            fn wire_size(&self) -> usize {
                0 $(+ self.$idx.wire_size())+
            }
        }
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn decode(buf: &mut Bytes) -> Self {
                ($($name::decode(buf),)+)
            }
            fn decode_into(&mut self, buf: &mut Bytes) {
                $(self.$idx.decode_into(buf);)+
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Implement [`Encode`] and [`Wire`] for a struct as the concatenation of
/// the listed fields, in the listed order (which must be every field, in
/// declaration order): the same bytes as the tuple of those fields, and a
/// `decode_into` that goes field by field so each keeps its capacity. An
/// optional single type parameter is bounded by the trait being
/// implemented.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$p:ident>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$p: $crate::Encode>)? $crate::Encode for $name $(<$p>)? {
            fn encode(&self, buf: &mut $crate::codec::BytesMut) {
                $($crate::Encode::encode(&self.$field, buf);)+
            }
            fn wire_size(&self) -> usize {
                0 $(+ $crate::Encode::wire_size(&self.$field))+
            }
        }
        impl $(<$p: $crate::Wire>)? $crate::Wire for $name $(<$p>)? {
            fn decode(buf: &mut $crate::codec::Bytes) -> Self {
                $name { $($field: $crate::Wire::decode(buf)),+ }
            }
            fn decode_into(&mut self, buf: &mut $crate::codec::Bytes) {
                $($crate::Wire::decode_into(&mut self.$field, buf);)+
            }
        }
    };
}

/// Encode `value` into a fresh buffer. Mostly useful in tests.
pub fn encode_to_bytes<T: Encode + ?Sized>(value: &T) -> Bytes {
    let mut buf = BytesMut::with_capacity(value.wire_size());
    value.encode(&mut buf);
    buf.freeze()
}

/// Decode a value from `bytes`, asserting full consumption.
pub fn decode_from_bytes<T: Wire>(bytes: Bytes) -> T {
    let mut b = bytes;
    let v = T::decode(&mut b);
    debug_assert!(b.is_empty(), "codec did not consume the full buffer");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_to_bytes(&v);
        assert_eq!(enc.len(), v.wire_size(), "wire_size must match encoding");
        let dec: T = decode_from_bytes(enc);
        assert_eq!(dec, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
        round_trip(3.5f32);
        round_trip(-0.25f64);
        round_trip(true);
        round_trip(false);
        round_trip(12345usize);
        round_trip(());
    }

    #[test]
    fn vec_round_trip() {
        round_trip(Vec::<u32>::new());
        round_trip(vec![1u32, 2, 3, u32::MAX]);
        round_trip(vec![1.0f32, -2.5, f32::INFINITY]);
        round_trip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    /// A 4-byte payload whose length prefix claims 4 Gi elements.
    fn huge_prefix() -> Bytes {
        Bytes::from(vec![0xff; 4])
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn oversized_f32_prefix_is_an_underflow_not_an_allocation() {
        Vec::<f32>::decode(&mut huge_prefix());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn oversized_u8_prefix_is_an_underflow_not_an_allocation() {
        Vec::<u8>::decode(&mut huge_prefix());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn oversized_tuple_prefix_is_an_underflow_not_an_allocation() {
        Vec::<(u32, f32)>::decode(&mut huge_prefix());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn truncated_primitive_body_is_an_underflow() {
        // Prefix says 3 u32s, only 2 follow.
        let mut enc = BytesMut::new();
        enc.put_u32_le(3);
        enc.put_u32_le(1);
        enc.put_u32_le(2);
        Vec::<u32>::decode(&mut enc.freeze());
    }

    #[test]
    fn option_round_trip() {
        round_trip(Option::<u32>::None);
        round_trip(Some(9u64));
        round_trip(Some(vec![1u16, 2]));
    }

    #[test]
    fn tuple_round_trip() {
        round_trip((1u32,));
        round_trip((1u32, 2.5f32));
        round_trip((1u32, 2.5f32, true));
        round_trip((1u32, 2.5f32, true, vec![7u8]));
        round_trip((1u32, 2u32, 3u32, 4u32, 5u32));
        round_trip((1u32, 2u32, 3u32, 4u32, 5u32, 6u32));
    }

    #[test]
    fn nan_distance_encodes() {
        // NaN != NaN so compare bit patterns instead of using round_trip.
        let enc = encode_to_bytes(&f32::NAN);
        let dec: f32 = decode_from_bytes(enc);
        assert!(dec.is_nan());
    }

    #[test]
    fn wire_size_matches_for_nested() {
        let v = vec![(1u32, vec![1.0f32, 2.0]), (2u32, vec![])];
        assert_eq!(encode_to_bytes(&v).len(), v.wire_size());
    }
}
