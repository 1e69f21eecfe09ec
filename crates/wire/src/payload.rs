//! [`Payload`] — a cheap-clone, sliceable, immutable byte buffer.
//!
//! The simulation hot path moves the same bytes through many hands: an
//! MPDU payload is enqueued at the MAC, serialized into a PSDU, fanned
//! out to every receiver in the carrier-sense domain, parsed back, and
//! delivered upward. With plain `Vec<u8>` every hand-off is a fresh
//! heap allocation plus a memcpy — and broadcast fan-out multiplies
//! that by the receiver count. `Payload` is an `Arc<[u8]>` plus a byte
//! range: cloning is a reference-count bump, and [`Payload::slice`]
//! carves a zero-copy sub-view (e.g. one subframe's payload out of a
//! shared PSDU) that keeps the backing buffer alive.
//!
//! The buffer is immutable by construction. Code that must mutate
//! received bytes (the channel model's copy-on-corrupt) copies out with
//! [`Payload::to_vec`] first and wraps the damaged copy back up.

use core::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer with O(1) clone and
/// zero-copy sub-slicing.
///
/// Backed by `Arc<Vec<u8>>` rather than `Arc<[u8]>`: `Arc<[u8]>::from`
/// must re-allocate and copy the bytes (the refcounts live inline ahead
/// of the data), which charged every assembled PSDU a second full-buffer
/// memcpy on its way to the air. Wrapping the `Vec` itself makes
/// [`Payload::from(Vec<u8>)`](From) O(1) at the price of one extra
/// pointer hop on access — and accessors hand out a plain `&[u8]` once,
/// so parsers never pay the hop in their inner loops.
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Payload {
    /// An empty payload. (Still allocates the `Arc` control block —
    /// fine off the hot path, which never constructs empties.)
    pub fn empty() -> Self {
        Payload { bytes: Arc::new(Vec::new()), start: 0, len: 0 }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[self.start..self.start + self.len]
    }

    /// A zero-copy sub-view of this payload. The range is relative to
    /// this view and must lie within it.
    ///
    /// # Panics
    /// Panics if the range escapes the payload.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(range.start <= range.end && range.end <= self.len, "slice {range:?} out of bounds");
        Payload { bytes: self.bytes.clone(), start: self.start + range.start, len: range.end - range.start }
    }

    /// The zero-copy sub-view covering `sub`, a slice borrowed from this
    /// payload (e.g. the remainder a header parser returned), so parsers
    /// can work on `&[u8]` and still hand their result up without a copy.
    ///
    /// # Panics
    /// Panics if `sub` does not lie within this payload.
    pub fn slice_ref(&self, sub: &[u8]) -> Payload {
        let start = (sub.as_ptr() as usize).wrapping_sub(self.as_slice().as_ptr() as usize);
        assert!(start <= self.len && sub.len() <= self.len - start, "slice_ref: not a sub-slice");
        self.slice(start..start + sub.len())
    }

    /// Copies the bytes out into a fresh `Vec` (the mutation escape
    /// hatch for copy-on-corrupt).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// Zero-copy: adopts the `Vec`'s buffer as-is.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Payload { bytes: Arc::new(v), start: 0, len }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from(v.to_vec())
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl core::fmt::Debug for Payload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Render like a byte slice so `ScenarioSpec`-style debug-derived
        // hashes and test diagnostics stay readable.
        write!(f, "{:?}", self.as_slice())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_buffer() {
        let p = Payload::from(vec![1u8, 2, 3, 4]);
        let q = p.clone();
        assert_eq!(p, q);
        assert!(core::ptr::eq(p.as_slice().as_ptr(), q.as_slice().as_ptr()));
    }

    #[test]
    fn slice_is_zero_copy_and_relative() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = p.slice(2..5);
        assert_eq!(s, [2u8, 3, 4]);
        let ss = s.slice(1..3);
        assert_eq!(ss, [3u8, 4]);
        assert!(core::ptr::eq(ss.as_slice().as_ptr(), &p.as_slice()[3]));
    }

    #[test]
    fn slice_ref_maps_borrowed_sub_slices_back() {
        let p = Payload::from(vec![0u8, 1, 2, 3, 4, 5]).slice(1..6);
        let s = p.slice_ref(&p[2..4]);
        assert_eq!(s, [3u8, 4]);
        assert!(core::ptr::eq(s.as_slice().as_ptr(), &p.as_slice()[2]));
        assert!(p.slice_ref(&p[5..]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a sub-slice")]
    fn slice_ref_rejects_foreign_slices() {
        let p = Payload::from(vec![1u8, 2]);
        let _ = p.slice_ref(&[1u8, 2][..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let p = Payload::from(vec![1u8, 2]);
        let _ = p.slice(1..3);
    }

    #[test]
    fn empty_and_equality() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        let p = Payload::from(&b"abc"[..]);
        assert_eq!(p, b"abc".to_vec());
        assert_eq!(p, *b"abc");
        assert_ne!(p, Payload::from(&b"abd"[..]));
        assert_eq!(format!("{p:?}"), format!("{:?}", b"abc"));
    }

    #[test]
    fn to_vec_copies() {
        let p = Payload::from(vec![9u8; 8]);
        let mut v = p.to_vec();
        v[0] = 0;
        assert_eq!(p.as_slice()[0], 9, "the shared buffer is untouched");
    }
}
