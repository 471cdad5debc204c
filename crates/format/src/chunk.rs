//! The chunk: Hurricane's indivisible unit of data.
//!
//! Chunks are fixed-*capacity* blocks (the paper uses 4 MB); the final
//! chunk of a stream may be shorter because records never straddle
//! boundaries. Chunks are immutable once built and cheaply cloneable
//! (reference-counted), which lets the storage layer hand the same chunk to
//! replication and to a reader without copying.

use bytes::Bytes;

/// The paper's default chunk size: 4 MB (§4.5).
///
/// Chosen there to minimize remote-access overhead, reduce internal
/// fragmentation for small bags, and avoid random disk access. Tests and
/// laptop-scale examples configure much smaller chunks through the
/// writer-side chunk capacity (`ChunkWriter::new`).
pub const DEFAULT_CHUNK_SIZE: usize = 4 * 1024 * 1024;

/// An immutable block of serialized records.
#[derive(Clone, PartialEq, Eq)]
pub struct Chunk {
    data: Bytes,
}

impl Chunk {
    /// Builds a chunk from a `Vec<u8>` without copying: the chunk keeps
    /// the vector's allocation, spare capacity included.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Self { data: data.into() }
    }

    /// Copies `data` into a chunk of exactly its size, one allocation
    /// holding the bytes and their reference count.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: Bytes::copy_from_slice(data),
        }
    }

    /// Returns the chunk payload.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Returns the payload as shared `Bytes`, cloning only the refcount.
    pub fn shared(&self) -> Bytes {
        self.data.clone()
    }

    /// Returns the payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true for a zero-length chunk.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chunk({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for Chunk {
    fn from(v: Vec<u8>) -> Self {
        Chunk::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_wraps_bytes() {
        let c = Chunk::from_vec(vec![1, 2, 3]);
        assert_eq!(c.bytes(), &[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![5u8; 64 * 1024];
        let ptr = v.as_ptr();
        let c = Chunk::from_vec(v);
        assert_eq!(c.bytes().as_ptr(), ptr, "no copy on the way in");
        assert_eq!(c.shared().as_ptr(), ptr);
    }

    #[test]
    fn clones_share_storage() {
        let c = Chunk::from_vec(vec![0u8; 1024]);
        let d = c.clone();
        assert_eq!(c.shared().as_ptr(), d.shared().as_ptr());
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::from_vec(Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn debug_shows_size() {
        assert_eq!(
            format!("{:?}", Chunk::from_vec(vec![9; 5])),
            "Chunk(5 bytes)"
        );
    }
}
