//! Storage-layer error types.

use core::fmt;
use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::CodecError;

/// Errors surfaced by storage nodes, the cluster, and bag clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The addressed storage node is down (crashed or unreachable).
    NodeDown(StorageNodeId),
    /// The addressed storage node is draining and rejects new inserts
    /// (paper §3.4: a node being removed stops accepting inserts while
    /// still serving removes).
    NodeDraining(StorageNodeId),
    /// The bag was sealed; no further inserts are allowed.
    BagSealed(BagId),
    /// The bag id is not registered with the cluster.
    UnknownBag(BagId),
    /// The bag was garbage-collected.
    BagCollected(BagId),
    /// Every replica of the addressed data is down.
    AllReplicasDown(BagId),
    /// The RPC transport to the addressed storage node is gone: its server
    /// loop shut down (or a network connection dropped). Unlike
    /// [`StorageError::NodeDown`], this is a property of the *connection*,
    /// not the node — the node may be healthy and reachable over a fresh
    /// transport.
    Disconnected(StorageNodeId),
    /// An RPC request got no reply within the client's timeout. The
    /// request may still execute at the server; callers must treat the
    /// operation's outcome as unknown.
    Timeout(StorageNodeId),
    /// A work-bag record failed to decode.
    Codec(CodecError),
    /// The node's data dir is out of space (`ENOSPC`): a segment-log
    /// append could not journal the operation. The disk stays full, so
    /// replicated writers route the data to the remaining replicas, like
    /// [`StorageError::NodeDraining`].
    DiskFull(StorageNodeId),
    /// A segment-log I/O operation failed for a reason other than space
    /// (a failed write, a read-back whose CRC no longer matches, a torn
    /// frame). Replicated callers route around the node, like
    /// [`StorageError::NodeDown`].
    DiskIo(StorageNodeId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NodeDown(n) => write!(f, "storage node {n} is down"),
            StorageError::NodeDraining(n) => {
                write!(f, "storage node {n} is draining and rejects inserts")
            }
            StorageError::BagSealed(b) => write!(f, "bag {b} is sealed against inserts"),
            StorageError::UnknownBag(b) => write!(f, "bag {b} is not registered"),
            StorageError::BagCollected(b) => write!(f, "bag {b} was garbage-collected"),
            StorageError::AllReplicasDown(b) => {
                write!(f, "all replicas holding bag {b} data are down")
            }
            StorageError::Disconnected(n) => {
                write!(f, "transport to storage node {n} is disconnected")
            }
            StorageError::Timeout(n) => {
                write!(f, "request to storage node {n} timed out")
            }
            StorageError::Codec(e) => write!(f, "work bag record corrupt: {e}"),
            StorageError::DiskFull(n) => {
                write!(f, "storage node {n} data dir is out of space")
            }
            StorageError::DiskIo(n) => {
                write!(f, "storage node {n} segment-log I/O failed")
            }
        }
    }
}

impl StorageError {
    /// Whether a replicated caller should treat this node as unusable for
    /// the operation and route to the remaining replicas: the node is
    /// down, draining, or its disk can no longer journal
    /// ([`StorageError::DiskFull`] / [`StorageError::DiskIo`]).
    pub fn routes_around(&self) -> bool {
        matches!(
            self,
            StorageError::NodeDown(_)
                | StorageError::NodeDraining(_)
                | StorageError::DiskFull(_)
                | StorageError::DiskIo(_)
        )
    }

    /// Classifies a segment-log I/O failure at `node`: `ENOSPC` becomes
    /// [`StorageError::DiskFull`], anything else [`StorageError::DiskIo`].
    pub fn from_disk_io(node: StorageNodeId, e: &std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::StorageFull || e.raw_os_error() == Some(28) {
            StorageError::DiskFull(node)
        } else {
            StorageError::DiskIo(node)
        }
    }
}

impl std::error::Error for StorageError {}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_subject() {
        assert!(StorageError::NodeDown(StorageNodeId(3))
            .to_string()
            .contains("sn3"));
        assert!(StorageError::BagSealed(BagId(9))
            .to_string()
            .contains("bag9"));
    }

    #[test]
    fn codec_error_converts() {
        let e: StorageError = CodecError::Truncated.into();
        assert!(matches!(e, StorageError::Codec(CodecError::Truncated)));
    }

    #[test]
    fn disk_errors_classify_from_io() {
        let n = StorageNodeId(2);
        let enospc = std::io::Error::from_raw_os_error(28);
        assert_eq!(
            StorageError::from_disk_io(n, &enospc),
            StorageError::DiskFull(n)
        );
        let kind = std::io::Error::new(std::io::ErrorKind::StorageFull, "full");
        assert_eq!(
            StorageError::from_disk_io(n, &kind),
            StorageError::DiskFull(n)
        );
        let other = std::io::Error::other("bad sector");
        assert_eq!(
            StorageError::from_disk_io(n, &other),
            StorageError::DiskIo(n)
        );
    }

    #[test]
    fn disk_errors_route_around() {
        let n = StorageNodeId(0);
        assert!(StorageError::DiskFull(n).routes_around());
        assert!(StorageError::DiskIo(n).routes_around());
        assert!(!StorageError::Timeout(n).routes_around());
        assert!(!StorageError::BagSealed(BagId(1)).routes_around());
    }
}
