//! Offline stand-in for the `bytes` crate (see `crates/shims/`).
//!
//! [`Bytes`] is a cheaply cloneable, sliceable view into shared immutable
//! storage (`Arc<Vec<u8>>` + range); [`BytesMut`] is a growable write
//! buffer. [`Buf`]/[`BufMut`] provide the little-endian accessors the wire
//! codec in `ygm::codec` relies on. Only the API surface this workspace
//! uses is implemented.
//!
//! Every method with a body is `#[inline]`: the codec reads and writes one
//! field at a time through these accessors from other crates, no workspace
//! enables LTO, and without the attribute each field is an out-of-line
//! call. The lint below keeps it that way; the shims are outside the
//! workspace, so CI runs clippy on this manifest by itself.

#![warn(clippy::missing_inline_in_public_items)]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read-side cursor over a contiguous byte region.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `n` bytes.
    fn advance(&mut self, n: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    #[inline]
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn get_i32_le(&mut self) -> i32 {
        self.get_u32_le() as i32
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    #[inline]
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write-side sink for little-endian encoding.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i32_le(&mut self, v: i32) {
        self.put_u32_le(v as u32);
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_u64_le(v as u64);
    }

    #[inline]
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Cheaply cloneable shared immutable byte slice.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    #[inline]
    pub fn new() -> Self {
        Bytes::default()
    }

    #[inline]
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off the first `n` bytes into a new `Bytes` (shared storage).
    #[inline]
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// A sub-slice view sharing the same storage.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The viewed bytes as a write buffer over the same storage, if no
    /// other `Bytes` shares it; `self` back otherwise.
    #[inline]
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = self;
        match Arc::try_unwrap(data) {
            Ok(mut inner) => {
                inner.truncate(end);
                inner.drain(..start);
                Ok(BytesMut { inner })
            }
            Err(data) => Err(Bytes { data, start, end }),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }
}

/// Growable write buffer; `split().freeze()` hands the accumulated bytes
/// off as an immutable [`Bytes`] while retaining the allocation's type.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    #[inline]
    pub fn new() -> Self {
        BytesMut::default()
    }

    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    #[inline]
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Grow (filling with `value`) or truncate to exactly `new_len` bytes.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.inner.resize(new_len, value);
    }

    /// Take the entire filled contents, leaving `self` empty (capacity may
    /// be retained by the allocator; semantics match `bytes`' use here).
    #[inline]
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            inner: std::mem::take(&mut self.inner),
        }
    }

    /// Freeze into an immutable shared [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.inner)
    }

    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.inner
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl std::fmt::Debug for BytesMut {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", self.as_slice())
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl Extend<u8> for BytesMut {
    #[inline]
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_round_trip_through_freeze() {
        let mut w = BytesMut::new();
        w.put_u16_le(0xBEEF);
        w.put_u32_le(7);
        w.put_f32_le(1.5);
        w.put_u64_le(u64::MAX);
        let mut r = w.freeze();
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_u64_le(), u64::MAX);
        assert!(r.is_empty());
    }

    #[test]
    fn split_to_shares_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
        let clone = b.clone();
        assert_eq!(clone.as_slice(), b.as_slice());
    }

    #[test]
    fn try_into_mut_needs_sole_ownership_and_keeps_the_view() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        b.advance(2);
        let shared = b.clone();
        let b = b.try_into_mut().expect_err("a clone shares the storage");
        drop(shared);
        let w = b.try_into_mut().expect("sole owner");
        assert_eq!(w.as_slice(), &[3, 4, 5]);
        assert!(w.capacity() >= 5);
    }

    #[test]
    fn resize_then_write_in_place() {
        let mut w = BytesMut::new();
        w.put_u8(9);
        w.resize(5, 0);
        w[1..5].copy_from_slice(&7u32.to_le_bytes());
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 9);
        assert_eq!(r.get_u32_le(), 7);
    }

    #[test]
    fn bytes_mut_split_empties_source() {
        let mut w = BytesMut::new();
        w.put_slice(b"abc");
        let taken = w.split();
        assert!(w.is_empty());
        assert_eq!(taken.as_slice(), b"abc");
    }
}
