//! Offline shim of the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the tiny subset of `bytes` it actually uses: an
//! immutable, reference-counted byte buffer that is cheap to clone and
//! derefs to `&[u8]`. As in the real crate, `From<Vec<u8>>` takes the
//! vector's allocation without copying. Swap this for the real crate by
//! pointing the workspace dependency back at the registry.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Data,
}

/// Where the bytes live. A copy is one allocation holding the count and
/// the bytes; a vector taken whole keeps its own allocation and puts the
/// count in a second, small one.
#[derive(Clone)]
enum Data {
    Copied(Arc<[u8]>),
    Taken(Arc<Vec<u8>>),
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new buffer of exactly its length.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: Data::Copied(data.into()),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// Returns true when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_ref().is_empty()
    }

    /// Pointer to the first byte (stable across clones: storage is shared).
    pub fn as_ptr(&self) -> *const u8 {
        self.as_ref().as_ptr()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::copy_from_slice(&[])
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        match &self.data {
            Data::Copied(bytes) => bytes,
            Data::Taken(vec) => vec,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

/// Takes `v`'s allocation, capacity included, without copying its
/// bytes: the buffer's pointer is `v.as_ptr()`. A caller that wants no
/// spare capacity kept alive passes an exact-size vector, or copies with
/// [`Bytes::copy_from_slice`].
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self {
            data: Data::Taken(Arc::new(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        let c = b.clone();
        assert_eq!(b.as_ptr(), c.as_ptr(), "clones share storage");
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);
    }

    #[test]
    fn equality_and_order_follow_the_bytes() {
        let taken = Bytes::from(vec![1u8, 2]);
        let copied = Bytes::copy_from_slice(&[1, 2]);
        assert_eq!(taken, copied);
        assert!(Bytes::copy_from_slice(&[1]) < taken);
    }

    #[test]
    fn empty() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(Vec::new()).len(), 0);
    }
}
