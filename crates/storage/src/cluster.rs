//! The storage cluster: node membership and bag metadata.
//!
//! The cluster object is what compute nodes are configured with (paper §3:
//! "each compute node ... is configured so that it knows the list of
//! storage nodes"). It is the **metadata authority** — the bag registry,
//! the sealed and collected flags, the replication factor, the
//! per-(bag, origin) append-ordering locks — and owns the node list the
//! in-process planes serve, with node addition and draining (paper §3.4).
//! The `tcp` plane's cluster owns no node: its nodes are remote, and its
//! node list is the endpoint's [`Membership`] alone.
//!
//! Draining aside, it talks to no node. Moving chunks and every
//! whole-bag operation (seal / rewind / discard / collect / sample /
//! snapshot) are one protocol with one implementation,
//! [`crate::rpc::RpcPort`], which flips the flags here. For in-process clients the cluster keeps a
//! [`Membership`] of inline connectors, one per node, which
//! [`StorageCluster::add_node`] joins: an inline port follows cluster
//! growth exactly like a channel or TCP one.
//!
//! Primary–backup replication (paper §4.4): with a replication factor of
//! `n + 1`, each chunk written to primary node `i` is also written to the
//! next `n` nodes in ring order, and removes mirror the primary's pointer
//! advance onto the backups so a failover resumes from (approximately)
//! the primary's position.
//!
//! A design note on failover atomicity: mirroring the pointer to backups is
//! a second message, not a distributed transaction. If the primary dies
//! between serving a remove and the mirror landing, the backup re-serves
//! one chunk. The paper's system has the same window; its applications
//! tolerate it because compute-node recovery rewinds and restarts tasks
//! whose workers crashed mid-flight.
//!
//! Mirrors carry chunk *identities*, not counts: every insert run is
//! minted a unique id ([`crate::node::next_run_id`]) before the replica
//! fan-out, and a serving replica reports which `(run, position)` tags it
//! consumed ([`crate::node::TagSegment`]). A backup whose log diverged
//! from the serving replica's — a partial replicated insert landed at one
//! but not the other — consumes exactly the served chunks and keeps the
//! marooned ones live, instead of blindly skipping `n` entries past data
//! the serving replica never saw (the double-serve hazard the fault
//! simulator used to document as modeled-away).

use crate::error::StorageError;
use crate::membership::Membership;
use crate::node::StorageNode;
use crate::rpc::{InlineConnector, RpcPort};
use crate::segment::SegmentStore;
use hurricane_common::{BagId, StorageNodeId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Total copies of each chunk (1 = no replication). Paper §4.4: "an
    /// application can tolerate n storage node failures by using n + 1
    /// replication"; the evaluation runs with replication disabled unless
    /// stated, so the default is 1.
    pub replication: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self { replication: 1 }
    }
}

/// Durable-storage settings for a cluster (`SEGMENT.md`): the segment
/// store nodes journal to, and the per-node resident-memory budget.
/// Every node journals into its own `node-<i>` namespace of the shared
/// store, so one data directory (or one in-memory virtual disk, for the
/// fault simulator) holds the whole cluster's durable state.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The shared segment-store root: a disk directory
    /// ([`SegmentStore::disk`]) or an in-memory virtual disk
    /// ([`SegmentStore::mem`]).
    pub store: SegmentStore,
    /// Per-node resident chunk-byte budget; `u64::MAX` keeps everything
    /// in memory. See [`StorageNode::durable`].
    pub spill_threshold_bytes: u64,
}

#[derive(Debug, Default)]
struct BagMeta {
    sealed: bool,
    collected: bool,
}

/// Append-ordering locks keyed by (bag, origin); see
/// [`StorageCluster::order_lock`].
type OrderLocks = HashMap<(BagId, u32), Arc<parking_lot::Mutex<()>>>;

/// The set of storage nodes plus bag metadata.
///
/// Bag metadata is read on every data-plane operation (is the bag known?
/// sealed?) but written only by control-plane calls (create / seal /
/// collect), so it lives behind an `RwLock`: concurrent workers share the
/// read lock instead of serializing on a metadata mutex.
pub struct StorageCluster {
    nodes: RwLock<Vec<Arc<StorageNode>>>,
    /// One inline connector per node, index-aligned with `nodes`: the
    /// view in-process ports dial and refresh against.
    inline: Membership,
    config: ClusterConfig,
    /// Durable-storage settings; `None` keeps every node memory-only.
    /// Kept so nodes added later ([`StorageCluster::add_node`]) journal
    /// to the same store as the founding members.
    durability: Option<DurabilityConfig>,
    bags: RwLock<HashMap<BagId, BagMeta>>,
    next_bag: AtomicU64,
    /// Per-(bag, origin) append-ordering locks, used only when
    /// replication > 1 (see [`StorageCluster::order_lock`]). With
    /// replication = 1 the map stays empty and inserts never touch it.
    repl_order: RwLock<OrderLocks>,
}

impl StorageCluster {
    /// Creates a cluster of `m` healthy storage nodes.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or if the replication factor exceeds `m`.
    pub fn new(m: usize, config: ClusterConfig) -> Arc<Self> {
        Self::build(m, config, None)
    }

    /// Creates a cluster of `m` *durable* storage nodes journaling into
    /// `durability.store`, each recovering whatever its `node-<i>`
    /// namespace already holds — a restart from an existing data
    /// directory resumes with all bag contents and consumed-pointer
    /// state intact.
    ///
    /// # Panics
    ///
    /// As [`StorageCluster::new`]; additionally panics if the segment
    /// store cannot be opened or recovered from.
    pub fn new_durable(m: usize, config: ClusterConfig, durability: DurabilityConfig) -> Arc<Self> {
        Self::build(m, config, Some(durability))
    }

    fn build(m: usize, config: ClusterConfig, durability: Option<DurabilityConfig>) -> Arc<Self> {
        assert!(m > 0, "a cluster needs at least one storage node");
        assert!(
            config.replication >= 1 && config.replication <= m,
            "replication factor must be in 1..=m"
        );
        let cluster = Self::empty(config, durability);
        // Founding members join the way later ones do.
        for _ in 0..m {
            cluster.add_node();
        }
        cluster
    }

    /// Bag metadata and no node yet. [`StorageCluster::new`] then adds
    /// the founding nodes; the `tcp` plane's cluster stays empty, its
    /// nodes being remote members of the endpoint's membership. The
    /// caller checks `config.replication` against its node count.
    pub(crate) fn empty(config: ClusterConfig, durability: Option<DurabilityConfig>) -> Arc<Self> {
        Arc::new(Self {
            nodes: RwLock::new(Vec::new()),
            inline: Membership::new(),
            config,
            durability,
            bags: RwLock::new(HashMap::new()),
            next_bag: AtomicU64::new(0),
            repl_order: RwLock::new(HashMap::new()),
        })
    }

    fn build_node(id: u32, durability: Option<&DurabilityConfig>) -> Arc<StorageNode> {
        match durability {
            Some(d) => {
                let store = d
                    .store
                    .subdir(&format!("node-{id}"))
                    .expect("create node segment-store namespace");
                Arc::new(
                    StorageNode::durable(StorageNodeId(id), store, d.spill_threshold_bytes)
                        .expect("recover storage node from segment store"),
                )
            }
            None => Arc::new(StorageNode::new(StorageNodeId(id))),
        }
    }

    /// Number of local storage nodes (including down / draining ones);
    /// 0 on a `tcp` endpoint, whose nodes are remote.
    pub fn num_nodes(&self) -> usize {
        self.nodes.read().len()
    }

    /// Returns a handle to node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> Arc<StorageNode> {
        self.nodes.read()[i].clone()
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.config.replication
    }

    /// The membership in-process ports dial: one inline connector per
    /// node, joined by [`StorageCluster::add_node`].
    pub(crate) fn inline_membership(&self) -> &Membership {
        &self.inline
    }

    /// Adds a storage node (paper §3.4). Returns its index. Existing bag
    /// clients keep their old cycle until they call
    /// `BagClient::refresh_membership`; new clients see the new node
    /// immediately.
    pub fn add_node(&self) -> usize {
        let mut nodes = self.nodes.write();
        let node = Self::build_node(nodes.len() as u32, self.durability.as_ref());
        nodes.push(node.clone());
        // Joined under the node-list lock so member `i` is node `i`.
        self.inline.join(Arc::new(InlineConnector::new(node)));
        nodes.len() - 1
    }

    /// Starts draining node `i`: it stops accepting inserts but still
    /// serves removes; it can be decommissioned once `is_drained` reports
    /// true (paper §3.4).
    pub fn drain_node(&self, i: usize) {
        self.nodes.read()[i].start_draining();
    }

    /// Allocates a fresh bag id. Bags are created lazily at nodes on first
    /// touch; the cluster records the authoritative metadata.
    pub fn create_bag(&self) -> BagId {
        let id = BagId(self.next_bag.fetch_add(1, Ordering::Relaxed));
        self.bags.write().insert(id, BagMeta::default());
        id
    }

    pub(crate) fn check_bag(&self, bag: BagId) -> Result<(), StorageError> {
        self.bag_state(bag).map(drop)
    }

    /// Validates `bag` and returns its sealed flag in one metadata-lock
    /// acquisition — the hot path's single metadata touch.
    pub(crate) fn bag_state(&self, bag: BagId) -> Result<bool, StorageError> {
        let bags = self.bags.read();
        match bags.get(&bag) {
            None => Err(StorageError::UnknownBag(bag)),
            Some(m) if m.collected => Err(StorageError::BagCollected(bag)),
            Some(m) => Ok(m.sealed),
        }
    }

    /// Returns whether `bag` is sealed (the cluster-level flag is the
    /// authority; per-node flags only reject late inserts).
    pub fn is_sealed(&self, bag: BagId) -> Result<bool, StorageError> {
        let bags = self.bags.read();
        bags.get(&bag)
            .map(|m| m.sealed)
            .ok_or(StorageError::UnknownBag(bag))
    }

    /// Applies `f` to `bag`'s metadata, refusing unknown and collected
    /// bags.
    fn update_meta(&self, bag: BagId, f: impl FnOnce(&mut BagMeta)) -> Result<(), StorageError> {
        match self.bags.write().get_mut(&bag) {
            None => Err(StorageError::UnknownBag(bag)),
            Some(m) if m.collected => Err(StorageError::BagCollected(bag)),
            Some(m) => {
                f(m);
                Ok(())
            }
        }
    }

    /// Sets `bag`'s sealed flag: the metadata half of
    /// [`RpcPort::seal_bag`] and [`RpcPort::discard_bag`].
    pub(crate) fn set_sealed(&self, bag: BagId, sealed: bool) -> Result<(), StorageError> {
        self.update_meta(bag, |m| m.sealed = sealed)
    }

    /// Marks `bag` collected and drops its ordering locks: the metadata
    /// half of [`RpcPort::collect_bag`].
    pub(crate) fn set_collected(&self, bag: BagId) -> Result<(), StorageError> {
        self.update_meta(bag, |m| m.collected = true)?;
        self.repl_order.write().retain(|(b, _), _| *b != bag);
        Ok(())
    }

    /// [`RpcPort::seal_bag`] over this cluster's own nodes. A `tcp`
    /// endpoint's cluster has none, so there this only sets the flag and
    /// the remote nodes do not hear of it: seal through a port there.
    pub fn seal_bag(self: &Arc<Self>, bag: BagId) -> Result<(), StorageError> {
        RpcPort::inline(self.clone()).seal_bag(bag)
    }

    /// Returns the append-ordering lock for `(bag, origin)`, creating it
    /// on first use. [`crate::rpc::RpcPort`] holds it across a replicated
    /// run's fan-out (only when replication > 1), so every replica's
    /// origin stream receives concurrent writers' runs in the same order.
    pub(crate) fn order_lock(&self, bag: BagId, origin: u32) -> Arc<parking_lot::Mutex<()>> {
        if let Some(l) = self.repl_order.read().get(&(bag, origin)) {
            return l.clone();
        }
        self.repl_order
            .write()
            .entry((bag, origin))
            .or_default()
            .clone()
    }
}

#[cfg(test)]
mod tests {
    //! The cluster's control operations, and the replica-group semantics
    //! they interact with, observed through a data-plane port. Every test
    //! runs once per in-process plane ([`planes`]): the protocol is the
    //! same code on both, the transports differ (caller's thread vs
    //! server threads).

    use super::*;
    use crate::endpoint::{StorageEndpoint, IN_PROCESS_PLANES};
    use crate::node::{next_run_id, NodeRemoveBatch};
    use hurricane_format::Chunk;

    fn chunk(b: &[u8]) -> Chunk {
        Chunk::from_vec(b.to_vec())
    }

    /// One endpoint per in-process plane, each over its own fresh
    /// `m`-node cluster.
    fn planes(m: usize, replication: usize) -> [StorageEndpoint; 2] {
        IN_PROCESS_PLANES.map(|make| make(StorageCluster::new(m, ClusterConfig { replication })))
    }

    fn insert(
        port: &mut RpcPort,
        primary: usize,
        bag: BagId,
        c: Chunk,
    ) -> Result<(), StorageError> {
        port.insert_batch(primary, bag, std::slice::from_ref(&c))
    }

    /// Removes at most one chunk of `primary`'s replica group.
    fn take(
        port: &mut RpcPort,
        primary: usize,
        bag: BagId,
    ) -> Result<NodeRemoveBatch, StorageError> {
        port.remove_batch(primary, bag, 1)
    }

    fn drain_all(port: &mut RpcPort, bag: BagId) -> Vec<Chunk> {
        let mut out = Vec::new();
        for idx in 0..port.num_nodes() {
            while let Some(c) = take(port, idx, bag).unwrap().chunks.pop() {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn create_seal_remove_lifecycle() {
        for ep in planes(4, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            for i in 0..8u8 {
                insert(&mut port, i as usize % 4, bag, chunk(&[i])).unwrap();
            }
            port.seal_bag(bag).unwrap();
            assert!(cluster.is_sealed(bag).unwrap());
            assert_eq!(
                insert(&mut port, 0, bag, chunk(b"late")),
                Err(StorageError::BagSealed(bag))
            );
            let got = drain_all(&mut port, bag);
            assert_eq!(got.len(), 8);
            // Fully drained + sealed => every node reports Eof.
            for idx in 0..4 {
                assert!(take(&mut port, idx, bag).unwrap().eof);
            }
        }
    }

    #[test]
    fn unsealed_empty_reports_empty_not_eof() {
        for ep in planes(2, 1) {
            let bag = ep.cluster().create_bag();
            let got = take(&mut ep.port(), 0, bag).unwrap();
            assert!(got.chunks.is_empty() && !got.eof);
        }
    }

    #[test]
    fn unknown_bag_rejected() {
        for ep in planes(2, 1) {
            assert_eq!(
                insert(&mut ep.port(), 0, BagId(99), chunk(b"x")),
                Err(StorageError::UnknownBag(BagId(99)))
            );
        }
    }

    #[test]
    fn sample_aggregates_across_nodes() {
        for ep in planes(3, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"aa")).unwrap();
            insert(&mut port, 1, bag, chunk(b"bbb")).unwrap();
            let s = port.sample_bag(bag).unwrap();
            assert_eq!(s.total_chunks, 2);
            assert_eq!(s.remaining_bytes, 5);
            assert!(!s.sealed);
            port.seal_bag(bag).unwrap();
            assert!(port.sample_bag(bag).unwrap().sealed);
        }
    }

    #[test]
    fn replication_writes_backups() {
        for ep in planes(3, 2) {
            let cluster = ep.cluster();
            let bag = cluster.create_bag();
            insert(&mut ep.port(), 0, bag, chunk(b"x")).unwrap();
            // Primary 0 and backup 1 both hold the chunk; backups store it
            // under the primary's origin stream (samples count only the
            // node's own stream, so cluster-wide sums stay exact).
            assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 1);
            assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 1);
            assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
            assert!(cluster.node(2).snapshot_from(bag, 0).unwrap().is_empty());
        }
    }

    #[test]
    fn failover_serves_from_backup() {
        for ep in planes(3, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"a")).unwrap();
            insert(&mut port, 0, bag, chunk(b"b")).unwrap();
            port.seal_bag(bag).unwrap();
            // Remove one chunk normally: backup pointer mirrors.
            assert_eq!(take(&mut port, 0, bag).unwrap().chunks, [chunk(b"a")]);
            // Kill the primary; the backup serves the remainder from the
            // mirrored position.
            cluster.node(0).fail();
            assert_eq!(take(&mut port, 0, bag).unwrap().chunks, [chunk(b"b")]);
            assert!(take(&mut port, 0, bag).unwrap().eof);
        }
    }

    #[test]
    fn all_replicas_down_is_an_error() {
        for ep in planes(2, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"a")).unwrap();
            cluster.node(0).fail();
            cluster.node(1).fail();
            assert!(matches!(
                take(&mut port, 0, bag),
                Err(StorageError::NodeDown(_) | StorageError::AllReplicasDown(_))
            ));
        }
    }

    #[test]
    fn insert_survives_one_down_replica() {
        for ep in planes(3, 2) {
            let cluster = ep.cluster();
            let bag = cluster.create_bag();
            cluster.node(0).fail();
            insert(&mut ep.port(), 0, bag, chunk(b"x")).unwrap();
            assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 1);
        }
    }

    #[test]
    fn discard_then_reuse() {
        for ep in planes(2, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            port.seal_bag(bag).unwrap();
            port.discard_bag(bag).unwrap();
            assert!(!cluster.is_sealed(bag).unwrap());
            insert(&mut port, 1, bag, chunk(b"y")).unwrap();
            let s = port.sample_bag(bag).unwrap();
            assert_eq!(s.total_chunks, 1);
        }
    }

    #[test]
    fn rewind_allows_second_pass() {
        for ep in planes(2, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            port.seal_bag(bag).unwrap();
            assert_eq!(drain_all(&mut port, bag).len(), 1);
            port.rewind_bag(bag).unwrap();
            assert!(cluster.is_sealed(bag).unwrap(), "rewind keeps the seal");
            assert_eq!(drain_all(&mut port, bag).len(), 1);
        }
    }

    #[test]
    fn collect_blocks_access() {
        for ep in planes(2, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            port.collect_bag(bag).unwrap();
            assert_eq!(
                take(&mut port, 0, bag),
                Err(StorageError::BagCollected(bag))
            );
        }
    }

    #[test]
    fn snapshot_without_replication_sees_everything() {
        for ep in planes(4, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            for i in 0..10u8 {
                insert(&mut port, i as usize % 4, bag, chunk(&[i])).unwrap();
            }
            drain_all(&mut port, bag);
            assert_eq!(port.snapshot_bag(bag).unwrap().len(), 10);
        }
    }

    #[test]
    fn snapshot_with_replication_dedups() {
        for ep in planes(3, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            for i in 0..6u8 {
                insert(&mut port, i as usize % 3, bag, chunk(&[i])).unwrap();
            }
            assert_eq!(port.snapshot_bag(bag).unwrap().len(), 6);
        }
    }

    #[test]
    fn add_node_grows_cluster() {
        for ep in planes(2, 1) {
            let cluster = ep.cluster();
            assert_eq!(cluster.num_nodes(), 2);
            let idx = ep.add_node();
            assert_eq!(idx, 2);
            assert_eq!(cluster.num_nodes(), 3);
            let bag = cluster.create_bag();
            insert(&mut ep.port(), 2, bag, chunk(b"x")).unwrap();
            assert_eq!(cluster.node(2).sample(bag).unwrap().total_chunks, 1);
        }
    }

    #[test]
    fn insert_batch_replicates_whole_batch() {
        for ep in planes(3, 2) {
            let cluster = ep.cluster();
            let bag = cluster.create_bag();
            let chunks: Vec<Chunk> = (0..6u8).map(|i| chunk(&[i])).collect();
            ep.port().insert_batch(0, bag, &chunks).unwrap();
            assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 6);
            assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 6);
        }
    }

    #[test]
    fn remove_batch_drains_and_mirrors() {
        for ep in planes(3, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            for i in 0..8u8 {
                insert(&mut port, 0, bag, chunk(&[i])).unwrap();
            }
            port.seal_bag(bag).unwrap();
            let got = port.remove_batch(0, bag, 5).unwrap();
            assert_eq!(got.chunks.len(), 5);
            assert!(!got.eof);
            // The backup's pointer followed the batch: a failover now
            // serves exactly the remaining three chunks.
            cluster.node(0).fail();
            let rest = port.remove_batch(0, bag, 100).unwrap();
            assert_eq!(rest.chunks.len(), 3);
            assert!(rest.eof);
        }
    }

    #[test]
    fn concurrent_replicated_inserts_keep_replica_order_identical() {
        // Two kinds of writers, each on its own port, r = 2 of 3 nodes.
        // Synchronous writers hammer primary 0 of one bag; coalescing
        // writers stage chunks for every primary of two bags, so each of
        // their flushes lands six (bag, origin) runs under the sorted
        // order locks while the others do the same, in opposite staging
        // orders. The mix must finish (no lock-order deadlock), and every
        // origin's stream must be identical at both of its replicas.
        const ROUNDS: u16 = 50;
        for ep in planes(3, 2) {
            let cluster = ep.cluster().clone();
            let bags = [cluster.create_bag(), cluster.create_bag()];
            let sync_ports: Vec<RpcPort> = (0..4).map(|_| ep.port()).collect();
            let staging_ports: Vec<RpcPort> = (0..4).map(|_| ep.port()).collect();
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                std::thread::scope(|s| {
                    for (t, mut port) in (0u8..).zip(sync_ports) {
                        s.spawn(move || {
                            for i in 0..500u16 {
                                let [lo, hi] = i.to_le_bytes();
                                insert(&mut port, 0, bags[0], chunk(&[0, t, lo, hi])).unwrap();
                            }
                        });
                    }
                    for (t, mut port) in (0u8..).zip(staging_ports) {
                        s.spawn(move || {
                            port.set_coalescing(6);
                            let mut streams: Vec<(BagId, usize)> = bags
                                .iter()
                                .flat_map(|&bag| (0..3).map(move |n| (bag, n)))
                                .collect();
                            if t % 2 == 1 {
                                streams.reverse();
                            }
                            for i in 0..ROUNDS {
                                let [lo, hi] = i.to_le_bytes();
                                for &(bag, n) in &streams {
                                    port.stage(n, bag, chunk(&[1, t, lo, hi])).unwrap();
                                }
                            }
                            port.flush().unwrap();
                        });
                    }
                });
                let _ = done.send(());
            });
            finished
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("replicated writers did not finish: order-lock deadlock?");
            for (b, &bag) in bags.iter().enumerate() {
                for origin in 0..3u32 {
                    let primary = cluster
                        .node(origin as usize)
                        .snapshot_from(bag, origin)
                        .unwrap();
                    let backup = cluster
                        .node((origin as usize + 1) % 3)
                        .snapshot_from(bag, origin)
                        .unwrap();
                    let staged = 4 * usize::from(ROUNDS);
                    let want = if (b, origin) == (0, 0) {
                        2000 + staged
                    } else {
                        staged
                    };
                    assert_eq!(primary.len(), want, "bag {b} origin {origin}");
                    assert_eq!(
                        primary, backup,
                        "replica append order must be identical (bag {b}, origin {origin})"
                    );
                }
            }
        }
    }

    #[test]
    fn mirrored_pointer_never_lags_under_concurrent_insert_remove() {
        // Backup-first replica writes: a chunk is only removable once the
        // backup already holds it, so every successful remove's mirror
        // finds a chunk to skip. Race inserts against removes, then kill
        // the primary and drain: nothing may be served twice.
        for ep in planes(2, 2) {
            let cluster = ep.cluster();
            let bag = cluster.create_bag();
            let total = 2000u64;
            let removed: Vec<Chunk> = std::thread::scope(|s| {
                let mut port = ep.port();
                let inserter = s.spawn(move || {
                    for i in 0..total {
                        insert(&mut port, 0, bag, chunk(&i.to_le_bytes())).unwrap();
                    }
                });
                let mut port = ep.port();
                let remover = s.spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < (total / 2) as usize {
                        match take(&mut port, 0, bag).unwrap().chunks.pop() {
                            Some(c) => got.push(c),
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                });
                inserter.join().unwrap();
                remover.join().unwrap()
            });
            let mut port = ep.port();
            port.seal_bag(bag).unwrap();
            cluster.node(0).fail();
            let mut seen: std::collections::HashSet<Vec<u8>> =
                removed.iter().map(|c| c.bytes().to_vec()).collect();
            loop {
                let got = take(&mut port, 0, bag).unwrap();
                if got.eof {
                    break;
                }
                assert_eq!(got.chunks.len(), 1, "sealed: a chunk or eof");
                assert!(
                    seen.insert(got.chunks[0].bytes().to_vec()),
                    "failover re-served an already-delivered chunk"
                );
            }
            assert_eq!(seen.len() as u64, total, "chunks lost across failover");
        }
    }

    #[test]
    fn empty_replica_does_not_mask_chunks_at_backup() {
        // Divergent logs: a value lands only at the backup (the primary
        // was down during the insert), then the primary comes back with
        // a log that never saw it. The group-level remove must keep
        // probing past the primary's empty serve and deliver the
        // marooned chunk instead of declaring a premature end-of-bag.
        for ep in planes(3, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            cluster.node(0).fail();
            insert(&mut port, 0, bag, chunk(b"marooned")).unwrap(); // backup 1 only
            cluster.node(0).recover();
            port.seal_bag(bag).unwrap();
            let got = port.remove_batch(0, bag, 8).unwrap();
            assert_eq!(got.chunks, vec![chunk(b"marooned")]);
            let end = port.remove_batch(0, bag, 8).unwrap();
            assert!(end.chunks.is_empty() && end.eof);
        }
    }

    #[test]
    fn durable_cluster_recovers_node_from_shared_store() {
        for make in IN_PROCESS_PLANES {
            let ep = make(StorageCluster::new_durable(
                2,
                ClusterConfig::default(),
                DurabilityConfig {
                    store: SegmentStore::mem(),
                    spill_threshold_bytes: u64::MAX,
                },
            ));
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            cluster.node(0).crash_lose_memory();
            cluster.node(0).restart_recover().unwrap();
            assert_eq!(take(&mut port, 0, bag).unwrap().chunks, [chunk(b"x")]);
            // Nodes added later join the same store.
            let idx = cluster.add_node();
            assert!(cluster.node(idx).is_durable());
        }
    }

    #[test]
    fn remove_batch_eof_follows_cluster_seal() {
        for ep in planes(2, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            let got = port.remove_batch(0, bag, 4).unwrap();
            assert!(got.chunks.is_empty() && !got.eof, "unsealed: pending");
            port.seal_bag(bag).unwrap();
            let got = port.remove_batch(0, bag, 4).unwrap();
            assert!(got.eof, "sealed and empty: end of bag");
        }
    }

    #[test]
    fn fallback_probe_claims_instead_of_double_serving() {
        // Reader A served the bag's chunks at the primary, but its
        // mirror to the backup is still in flight when reader B's probe
        // runs: the primary answers empty while the backup would serve
        // the same chunks again. B's claim at the primary must reveal
        // the concurrent serve so B drops them.
        for ep in planes(2, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            insert(&mut port, 0, bag, chunk(b"y")).unwrap();
            // Reader A, mid-flight: consumed at the primary, mirror pending.
            let served = cluster.node(0).remove_from_batch(bag, 0, 8).unwrap();
            assert_eq!(served.chunks.len(), 2);
            // Reader B through a port: primary empty, backup serves,
            // claim reports both chunks already delivered.
            let got = port.remove_batch(0, bag, 8).unwrap();
            assert!(
                got.chunks.is_empty(),
                "claim must drop concurrently served chunks, got {:?}",
                got.chunks
            );
            // The backup's pointer advanced with the claim-drop: the group
            // is drained for good.
            port.seal_bag(bag).unwrap();
            let end = port.remove_batch(0, bag, 8).unwrap();
            assert!(end.chunks.is_empty() && end.eof);
        }
    }

    #[test]
    fn fallback_probe_serves_chunks_the_empty_replica_never_held() {
        // The dual of the claim test: a run that landed only at the
        // backup (the primary missed the insert — a divergent log).
        // The primary's claim knows nothing of the identity, so the
        // probe delivers the marooned chunk exactly once; a replicated
        // insert of the same identity arriving at the primary later
        // lands already consumed.
        for ep in planes(2, 2) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            let run = next_run_id();
            cluster
                .node(1)
                .insert_run(bag, &[chunk(b"marooned")], 0, run)
                .unwrap();
            let got = port.remove_batch(0, bag, 8).unwrap();
            assert_eq!(got.chunks, vec![chunk(b"marooned")]);
            // The in-flight replicated copy lands at the primary after the
            // serve: the claim pre-consumed its identity, so it can never
            // be served a second time.
            cluster
                .node(0)
                .insert_run(bag, &[chunk(b"marooned")], 0, run)
                .unwrap();
            port.seal_bag(bag).unwrap();
            let end = port.remove_batch(0, bag, 8).unwrap();
            assert!(end.chunks.is_empty() && end.eof, "got {:?}", end.chunks);
        }
    }

    #[test]
    fn drain_node_rejects_inserts_but_serves() {
        for ep in planes(2, 1) {
            let (cluster, mut port) = (ep.cluster(), ep.port());
            let bag = cluster.create_bag();
            insert(&mut port, 0, bag, chunk(b"x")).unwrap();
            cluster.drain_node(0);
            assert!(matches!(
                insert(&mut port, 0, bag, chunk(b"y")),
                Err(StorageError::NodeDraining(_))
            ));
            assert_eq!(take(&mut port, 0, bag).unwrap().chunks, [chunk(b"x")]);
            assert!(cluster.node(0).is_drained().unwrap());
        }
    }
}
