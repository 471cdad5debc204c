//! Epoch-versioned cluster membership: the live node view that lets the
//! RPC plane grow mid-job.
//!
//! Before this module, every RPC surface froze the node set at
//! construction time: `StorageRpc::serve` snapshotted the cluster,
//! `RpcPort` held a fixed connection vector, and a node added to the
//! cluster afterwards was unreachable through them. A [`Membership`] is
//! the shared, versioned view that replaces
//! those snapshots: an ordered list of members (index = cluster node
//! index) plus an **epoch** counter bumped on every change. Holders of
//! the view — [`crate::rpc::RpcPort`] via
//! [`crate::rpc::RpcPort::refresh_membership`], and through it
//! [`crate::BagClient`] and the prefetcher — compare the epoch they last
//! saw against [`Membership::epoch`] and extend their connection sets
//! (and placement cycles) when it moved.
//!
//! Members carry a [`Connect`] factory rather than a live connection, so
//! one membership serves any number of ports: each port dials its own
//! private connections (the RPC layer's connections are not shareable —
//! they hold per-client correlation state). The factory abstracts the
//! transport exactly like [`crate::rpc::Transport`] does: in-process
//! channel servers, inline dispatch, a TCP address to dial, or a
//! fault-injection harness all plug in the same way.
//!
//! Join order is append-only and indices are never reused: a member's
//! index is its [`hurricane_common::StorageNodeId`], which placement
//! arithmetic (`primary + k` replica walks) depends on. "Leave" is
//! *draining* (paper §3.4) — the node refuses inserts, serves its
//! remaining chunks, and is decommissioned only once drained — so a
//! departed node keeps its slot; its connector simply starts failing
//! with [`StorageError::Disconnected`] once the process is gone, which
//! the replica failover path already tolerates.

use crate::error::StorageError;
use crate::rpc::Transport;
use hurricane_common::StorageNodeId;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dials one storage node: the connection factory a [`Membership`] entry
/// carries. Implementations exist for the in-process channel server
/// (`StorageRpc`), inline dispatch, the TCP transport, and test
/// harnesses.
pub trait Connect: Send + Sync {
    /// Opens a fresh connection to the node. Called once per port per
    /// member; the returned transport is owned by that port alone.
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError>;
}

/// One entry of the membership view.
#[derive(Clone)]
pub struct Member {
    /// The node's cluster identity — always equal to its index in the
    /// view (indices are never reused; see the module docs).
    pub node: StorageNodeId,
    /// Factory for private connections to the node.
    pub connector: Arc<dyn Connect>,
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member").field("node", &self.node).finish()
    }
}

#[derive(Default)]
struct Inner {
    /// Bumped on every view change. Readers cache the epoch they last
    /// acted on and refresh when it moves — one relaxed load on the hot
    /// path, no lock.
    epoch: AtomicU64,
    view: RwLock<Vec<Member>>,
}

/// A shared, epoch-versioned view of the storage node set. Cheap to
/// clone (one `Arc`); all clones observe the same view.
#[derive(Clone, Default)]
pub struct Membership {
    inner: Arc<Inner>,
}

impl Membership {
    /// Creates an empty membership (epoch 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current view version. Moves on every [`Membership::join`];
    /// equality with a cached value means the cached view is current.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Number of members ever joined (drained members keep their slot).
    pub fn len(&self) -> usize {
        self.inner.view.read().len()
    }

    /// Whether no member has joined yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a member, assigning it the next index as its node id, and
    /// bumps the epoch. Returns the assigned id.
    pub fn join(&self, connector: Arc<dyn Connect>) -> StorageNodeId {
        self.join_with(|_| connector)
    }

    /// [`Membership::join`] for a connector that names its own node:
    /// `make` gets the id being assigned, under the view's write lock, so
    /// no concurrent join can take it first.
    pub(crate) fn join_with(
        &self,
        make: impl FnOnce(StorageNodeId) -> Arc<dyn Connect>,
    ) -> StorageNodeId {
        let mut view = self.inner.view.write();
        let node = StorageNodeId(view.len() as u32);
        view.push(Member {
            node,
            connector: make(node),
        });
        // Publish the new length only after the entry is in place; the
        // write lock orders the push, the Release pairs with `epoch`'s
        // Acquire.
        self.inner.epoch.fetch_add(1, Ordering::Release);
        node
    }

    /// A snapshot of the current view, in index order.
    pub fn members(&self) -> Vec<Member> {
        self.inner.view.read().clone()
    }

    /// The member at `idx`, if joined.
    pub fn member(&self, idx: usize) -> Option<Member> {
        self.inner.view.read().get(idx).cloned()
    }
}

/// A [`Connect`] that hands out one pre-built transport, then fails.
///
/// The adapter for call sites that construct a connection by hand (a
/// loopback pair, a pre-dialed socket, a harness transport) and want it
/// in a [`Membership`]: the first dial returns the transport, every
/// later dial reports [`StorageError::Disconnected`] — which is accurate,
/// since nothing can re-create the hand-built connection.
pub struct OnceConnect {
    node: StorageNodeId,
    slot: parking_lot::Mutex<Option<Box<dyn Transport>>>,
}

impl OnceConnect {
    /// Wraps a ready transport for a one-time hand-out.
    pub fn new(transport: Box<dyn Transport>) -> Arc<Self> {
        Arc::new(Self {
            node: transport.node(),
            slot: parking_lot::Mutex::new(Some(transport)),
        })
    }
}

impl Connect for OnceConnect {
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
        self.slot
            .lock()
            .take()
            .ok_or(StorageError::Disconnected(self.node))
    }
}

impl std::fmt::Debug for OnceConnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnceConnect")
            .field("node", &self.node)
            .finish()
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("epoch", &self.epoch())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::StorageNode;
    use crate::rpc::InlineConnector;

    fn inline(id: u32) -> Arc<InlineConnector> {
        Arc::new(InlineConnector::new(Arc::new(StorageNode::new(
            StorageNodeId(id),
        ))))
    }

    #[test]
    fn join_assigns_sequential_ids_and_bumps_epoch() {
        let ms = Membership::new();
        assert_eq!(ms.epoch(), 0);
        assert!(ms.is_empty());
        let a = ms.join(inline(0));
        let b = ms.join(inline(1));
        assert_eq!((a, b), (StorageNodeId(0), StorageNodeId(1)));
        assert_eq!(ms.epoch(), 2);
        assert_eq!(ms.len(), 2);
        let view = ms.members();
        assert_eq!(view[0].node, StorageNodeId(0));
        assert_eq!(view[1].node, StorageNodeId(1));
    }

    #[test]
    fn clones_share_one_view() {
        let ms = Membership::new();
        let other = ms.clone();
        ms.join(inline(0));
        assert_eq!(other.len(), 1);
        assert_eq!(other.epoch(), ms.epoch());
    }

    #[test]
    fn member_connector_dials() {
        let ms = Membership::new();
        ms.join(inline(0));
        let member = ms.member(0).unwrap();
        let transport = member.connector.connect().unwrap();
        assert_eq!(transport.node(), StorageNodeId(0));
    }
}
