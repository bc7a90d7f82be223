//! Offline stand-in for the `bytes` crate: cheaply cloneable immutable
//! [`Bytes`], growable [`BytesMut`], and the [`Buf`]/[`BufMut`] traits —
//! exactly the subset the PISA wire codec uses. Big-endian accessors
//! match the real crate's semantics.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer. It owns the `Vec` it
/// was built from, so freezing a [`BytesMut`] or converting a `Vec<u8>`
/// moves the buffer instead of copying it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::new(data.to_vec()),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write access to a byte sink (big-endian integer encodings).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read access to a byte source that advances past consumed bytes.
///
/// # Panics
///
/// Like the real crate, the `get_*` accessors panic when fewer bytes
/// remain than requested — callers bounds-check via [`Buf::remaining`].
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);
    /// Reads the next byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_big_endian() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(42);
        w.put_slice(b"xy");
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u32(), 0xdead_beef);
        assert_eq!(r.get_u64(), 42);
        assert_eq!(r, b"xy");
    }

    #[test]
    fn freezing_and_converting_keep_the_buffer() {
        let mut w = BytesMut::with_capacity(4096);
        w.put_slice(&[7; 4096]);
        let at = w.as_ptr();
        assert_eq!(w.freeze().as_ptr(), at, "freeze copied the buffer");
        let v = vec![9u8; 4096];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), at, "From<Vec<u8>> copied");
    }

    #[test]
    fn bytes_equality_and_clone() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[1..], &[2, 3]);
    }

    #[test]
    fn vec_and_bytes_mut_sinks_write_the_same_big_endian_bytes() {
        fn fill(sink: &mut impl BufMut) {
            sink.put_u8(7);
            sink.put_u32(0x0102_0304);
            sink.put_slice(&[]);
            sink.put_u64(0x0a0b_0c0d_0e0f_1011);
            sink.put_slice(b"end");
        }
        let (mut vec, mut buf) = (Vec::new(), BytesMut::new());
        fill(&mut vec);
        fill(&mut buf);
        assert_eq!(
            vec,
            [7, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 17, b'e', b'n', b'd']
        );
        assert_eq!(buf.len(), vec.len());
        assert!(!buf.is_empty());
        assert_eq!(buf.freeze(), vec);
    }

    #[test]
    fn reader_advances_and_reports_what_remains() {
        let data = [0u8, 0, 0, 9, 0xff, 1, 2];
        let mut r: &[u8] = &data;
        assert_eq!(r.remaining(), 7);
        assert_eq!(r.get_u32(), 9);
        assert_eq!(r.remaining(), 3);
        r.advance(1);
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r, &[2][..]);
        r.advance(1);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic]
    fn reading_past_the_end_panics_like_the_real_crate() {
        let mut r: &[u8] = &[1, 2, 3];
        r.get_u32();
    }

    #[test]
    fn equal_contents_hash_alike_and_views_agree() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |b: &Bytes| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        let (a, b) = (
            Bytes::from(vec![4, 5, 6]),
            Bytes::copy_from_slice(&[4, 5, 6]),
        );
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(a, &[4u8, 5, 6][..]);
        assert_eq!(a.as_ref(), Bytes::from(&[4u8, 5, 6][..]).as_ref());
        assert_ne!(a, Bytes::new());
        assert!(Bytes::new().is_empty());
        assert_eq!(format!("{a:?}"), "Bytes(3 bytes)");
    }
}
