//! The storage cluster: node membership, bag lifecycle, replication.
//!
//! The cluster object is what compute nodes are configured with (paper §3:
//! "each compute node ... is configured so that it knows the list of
//! storage nodes"). It owns bag metadata — the authoritative sealed flag —
//! and implements primary–backup replication (paper §4.4): with a
//! replication factor of `n + 1`, each chunk written to primary node `i`
//! is also written to the next `n` nodes in ring order, and removes mirror
//! the primary's pointer advance onto the backups so a failover resumes
//! from (approximately) the primary's position.
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
use crate::node::{next_run_id, BagSample, NodeRemove, NodeRemoveBatch, StorageNode};
use crate::segment::SegmentStore;
use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
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
/// [`StorageCluster::insert_batch`].
type OrderLocks = HashMap<(BagId, u32), Arc<parking_lot::Mutex<()>>>;

/// The set of storage nodes plus bag metadata.
///
/// Bag metadata is read on every data-plane operation (is the bag known?
/// sealed?) but written only by control-plane calls (create / seal /
/// collect), so it lives behind an `RwLock`: concurrent workers share the
/// read lock instead of serializing on a metadata mutex.
pub struct StorageCluster {
    nodes: RwLock<Vec<Arc<StorageNode>>>,
    config: ClusterConfig,
    /// Durable-storage settings; `None` keeps every node memory-only.
    /// Kept so nodes added later ([`StorageCluster::add_node`]) journal
    /// to the same store as the founding members.
    durability: Option<DurabilityConfig>,
    bags: RwLock<HashMap<BagId, BagMeta>>,
    next_bag: AtomicU64,
    /// Per-(bag, origin) append-ordering locks, used only when
    /// replication > 1: holding one across the replica fan-out
    /// guarantees every replica's origin stream receives chunks in the
    /// same order, which count-based pointer mirroring depends on. With
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
        let nodes = (0..m)
            .map(|i| Self::build_node(i as u32, durability.as_ref()))
            .collect();
        Arc::new(Self {
            nodes: RwLock::new(nodes),
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

    /// Number of storage nodes (including down / draining ones).
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

    /// Adds a storage node (paper §3.4). Returns its index. Existing bag
    /// clients keep their old cycle until they call
    /// `BagClient::refresh_membership`; new clients see the new node
    /// immediately.
    pub fn add_node(&self) -> usize {
        let mut nodes = self.nodes.write();
        let id = nodes.len() as u32;
        nodes.push(Self::build_node(id, self.durability.as_ref()));
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
        let bags = self.bags.read();
        match bags.get(&bag) {
            None => Err(StorageError::UnknownBag(bag)),
            Some(m) if m.collected => Err(StorageError::BagCollected(bag)),
            Some(_) => Ok(()),
        }
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

    /// Seals `bag` cluster-wide: no more inserts anywhere. Down nodes are
    /// skipped (they reject inserts anyway while down, and the cluster
    /// flag governs end-of-bag detection).
    pub fn seal_bag(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_bag(bag)?;
        {
            let mut bags = self.bags.write();
            bags.get_mut(&bag)
                .ok_or(StorageError::UnknownBag(bag))?
                .sealed = true;
        }
        for node in self.nodes.read().iter() {
            let _ = node.seal(bag);
        }
        Ok(())
    }

    /// Re-opens `bag` for another full read (paper §4.3 "reusing the
    /// contents of a bag"): rewinds the read pointer at every node. The
    /// sealed flag is retained, so readers still observe end-of-bag.
    pub fn rewind_bag(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_bag(bag)?;
        for node in self.nodes.read().iter() {
            match node.rewind(bag) {
                Ok(()) | Err(StorageError::NodeDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Discards all contents of `bag` and reopens it for inserts — used to
    /// clear partial outputs when restarting failed tasks (paper §4.4).
    pub fn discard_bag(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_bag(bag)?;
        {
            let mut bags = self.bags.write();
            bags.get_mut(&bag)
                .ok_or(StorageError::UnknownBag(bag))?
                .sealed = false;
        }
        for node in self.nodes.read().iter() {
            match node.discard(bag) {
                Ok(()) | Err(StorageError::NodeDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Garbage-collects `bag` cluster-wide.
    pub fn collect_bag(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_bag(bag)?;
        {
            let mut bags = self.bags.write();
            bags.get_mut(&bag)
                .ok_or(StorageError::UnknownBag(bag))?
                .collected = true;
        }
        for node in self.nodes.read().iter() {
            let _ = node.collect(bag);
        }
        self.repl_order.write().retain(|(b, _), _| *b != bag);
        Ok(())
    }

    /// Aggregated sample of `bag` across all reachable nodes — the master's
    /// input for estimating remaining work (paper §4.2).
    pub fn sample_bag(&self, bag: BagId) -> Result<BagSample, StorageError> {
        self.check_bag(bag)?;
        let mut agg = BagSample {
            sealed: true,
            ..BagSample::default()
        };
        for node in self.nodes.read().iter() {
            match node.sample(bag) {
                Ok(s) => agg.merge(&s),
                Err(StorageError::NodeDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        agg.sealed = self.is_sealed(bag)?;
        Ok(agg)
    }

    /// Replica node indices for a chunk whose primary is `primary`.
    fn replicas(&self, primary: usize, m: usize) -> impl DoubleEndedIterator<Item = usize> {
        let r = self.config.replication;
        (0..r).map(move |k| (primary + k) % m)
    }

    /// Inserts `chunk` into `bag` at primary node `primary_idx`, writing
    /// backups per the replication factor.
    ///
    /// Succeeds if the write lands on at least one replica; a fully
    /// unreachable replica set is an error.
    pub fn insert(&self, primary_idx: usize, bag: BagId, chunk: Chunk) -> Result<(), StorageError> {
        self.insert_batch(primary_idx, bag, std::slice::from_ref(&chunk))
    }

    /// Returns the append-ordering lock for `(bag, origin)`, creating it
    /// on first use. Only called when replication > 1.
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

    /// Batched [`StorageCluster::insert`]: writes every chunk of `chunks`
    /// to primary `primary_idx` with one storage-node call per replica —
    /// replication is mirrored per batch, not per chunk. The whole batch
    /// is one insert run sharing one [`next_run_id`] across replicas, so
    /// pointer mirrors can name its chunks by identity.
    ///
    /// Replicated writes take two precautions:
    ///
    /// * **Backups before primary.** A chunk only becomes removable once
    ///   it lands at the primary; writing backups first means any remove
    ///   that wins the race finds the chunk already present at every
    ///   backup, so a failover after the primary's death can always
    ///   serve what the primary served from its own log.
    /// * **Per-(bag, origin) append ordering.** Concurrent writers to the
    ///   same primary serialize their replica fan-out on a tiny ordering
    ///   lock so every replica's origin stream holds the runs in the
    ///   same order. Identity-tagged mirroring no longer *requires* this
    ///   for correctness, but converged logs keep the mirror scan O(batch)
    ///   and failover positions exact. With replication = 1 neither cost
    ///   is paid.
    pub fn insert_batch(
        &self,
        primary_idx: usize,
        bag: BagId,
        chunks: &[Chunk],
    ) -> Result<(), StorageError> {
        if self.bag_state(bag)? {
            return Err(StorageError::BagSealed(bag));
        }
        if chunks.is_empty() {
            return Ok(());
        }
        let nodes = self.nodes.read();
        let m = nodes.len();
        let origin = (primary_idx % m) as u32;
        let run = next_run_id();
        if self.config.replication > 1 {
            let lock = self.order_lock(bag, origin);
            let _held = lock.lock();
            Self::insert_batch_inner(
                &nodes,
                self.replicas(primary_idx, m),
                bag,
                chunks,
                origin,
                run,
            )
        } else {
            Self::insert_batch_inner(
                &nodes,
                self.replicas(primary_idx, m),
                bag,
                chunks,
                origin,
                run,
            )
        }
    }

    fn insert_batch_inner(
        nodes: &[Arc<StorageNode>],
        replicas: impl DoubleEndedIterator<Item = usize>,
        bag: BagId,
        chunks: &[Chunk],
        origin: u32,
        run: u64,
    ) -> Result<(), StorageError> {
        let mut landed = 0usize;
        let mut last_err = None;
        // Reverse order: backups first, primary last (see insert_batch).
        for idx in replicas.rev() {
            match nodes[idx].insert_run(bag, chunks, origin, run) {
                Ok(()) => landed += 1,
                // Down, draining, or disk-sick replicas are routed around:
                // the write still succeeds if any replica journals it
                // (see [`StorageError::routes_around`]).
                Err(e) if e.routes_around() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        if landed > 0 {
            Ok(())
        } else {
            Err(last_err.unwrap_or(StorageError::AllReplicasDown(bag)))
        }
    }

    /// Removes the next chunk of `bag` whose primary is `primary_idx`.
    ///
    /// On primary failure the first reachable backup serves the request
    /// (failover); successful removes are mirrored to the remaining live
    /// replicas so their pointers track the serving node.
    pub fn remove(&self, primary_idx: usize, bag: BagId) -> Result<NodeRemove, StorageError> {
        // Single-chunk removes ride the batch path so the mirror carries
        // the served chunk's identity tag.
        let batch = self.remove_batch(primary_idx, bag, 1)?;
        Ok(match batch.chunks.into_iter().next() {
            Some(c) => NodeRemove::Chunk(c),
            None if batch.eof => NodeRemove::Eof,
            None => NodeRemove::Empty,
        })
    }

    /// Batched [`StorageCluster::remove`]: removes up to `max_n` chunks
    /// whose primary is `primary_idx` in one storage-node call, mirroring
    /// the whole batch's pointer advance to the live backups at once.
    pub fn remove_batch(
        &self,
        primary_idx: usize,
        bag: BagId,
        max_n: usize,
    ) -> Result<NodeRemoveBatch, StorageError> {
        let sealed = self.bag_state(bag)?;
        let nodes = self.nodes.read();
        let m = nodes.len();
        let origin = (primary_idx % m) as u32;
        let mut serving = None;
        let mut first_empty: Option<NodeRemoveBatch> = None;
        let mut probed_empty: Vec<usize> = Vec::new();
        let mut disk_sick = None;
        for idx in self.replicas(primary_idx, m) {
            match nodes[idx].remove_from_batch(bag, origin, max_n) {
                // An empty serve is not authoritative: replica logs can
                // diverge — this replica restarted and recovered a log
                // missing runs that landed only at a backup while it was
                // down. Keep probing; the group is exhausted only when
                // every reachable replica comes back empty, otherwise
                // acked chunks marooned at a backup would be masked by
                // a premature end-of-bag.
                Ok(outcome) if outcome.chunks.is_empty() => {
                    probed_empty.push(idx);
                    if first_empty.is_none() {
                        first_empty = Some(outcome);
                    }
                }
                Ok(outcome) => {
                    serving = Some((idx, outcome));
                    break;
                }
                // A replica that can't serve (down, or its segment log
                // can't journal the consume) fails over to the next one.
                Err(e @ (StorageError::DiskFull(_) | StorageError::DiskIo(_))) => {
                    disk_sick = Some(e);
                }
                Err(e) if e.routes_around() => continue,
                Err(e) => return Err(e),
            }
        }
        let Some((served_by, mut outcome)) = serving else {
            let Some(mut outcome) = first_empty else {
                // A replica that is up but disk-sick still holds its
                // chunks: report its error, not "down", or a reader
                // would take the group for lost and the bag for drained.
                return Err(disk_sick.unwrap_or(StorageError::AllReplicasDown(bag)));
            };
            outcome.eof = outcome.exhausted && sealed;
            return Ok(outcome);
        };
        // Reconcile a fallback serve: a replica probed empty above may
        // have concurrently served the very same chunks to another
        // reader whose mirror hadn't landed at `served_by` yet. Claim
        // the served identities at each such replica and drop whatever
        // it reports already consumed — those chunks belong to the
        // other reader. An unreachable replica claims nothing (its
        // consumed state can't race anyone while it's down).
        for &idx in &probed_empty {
            if outcome.chunks.is_empty() {
                break;
            }
            if let Ok(already) = nodes[idx].claim_consumed(bag, origin, &outcome.tags) {
                outcome.drop_already_consumed(&already);
            }
        }
        if !outcome.chunks.is_empty() {
            for idx in self.replicas(primary_idx, m) {
                // Replicas probed empty were just claimed — the claim
                // is the mirror.
                if idx != served_by && !probed_empty.contains(&idx) {
                    let _ = nodes[idx].mirror_consumed(bag, origin, &outcome.tags);
                }
            }
        }
        // As in `remove`, the cluster-level sealed flag is the authority
        // for end-of-bag.
        outcome.eof = outcome.exhausted && sealed;
        Ok(outcome)
    }

    /// Non-destructive full scan of `bag` (replay of work bags). With
    /// replication, chunks are deduplicated by reading each primary's log
    /// only (backups hold copies of the same chunks under the same bag, so
    /// a naive scan would double-count; primaries-only is exact when all
    /// primaries are up, and falls back to backups for down primaries).
    pub fn snapshot_bag(&self, bag: BagId) -> Result<Vec<Chunk>, StorageError> {
        self.check_bag(bag)?;
        let nodes = self.nodes.read();
        let m = nodes.len();
        let mut out = Vec::new();
        if self.config.replication == 1 {
            // Unreplicated snapshots cannot route around a disk-sick
            // node — no other node holds its chunks — so only NodeDown,
            // whose data a restart may still recover, is skipped.
            for node in nodes.iter() {
                match node.snapshot(bag) {
                    Ok(chunks) => out.extend(chunks),
                    Err(StorageError::NodeDown(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            return Ok(out);
        }
        // Replicated: a chunk addressed to primary p also lives at
        // p+1..p+r-1, tagged with origin p. Reconstruct one copy per chunk
        // by reading each origin's log from the first live replica.
        for p in 0..m {
            let mut served = false;
            for k in 0..self.config.replication {
                let idx = (p + k) % m;
                match nodes[idx].snapshot_from(bag, p as u32) {
                    Ok(chunks) => {
                        out.extend(chunks);
                        served = true;
                        break;
                    }
                    Err(e) if e.routes_around() => continue,
                    Err(e) => return Err(e),
                }
            }
            if !served {
                return Err(StorageError::AllReplicasDown(bag));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(b: &[u8]) -> Chunk {
        Chunk::from_vec(b.to_vec())
    }

    fn drain_all(cluster: &StorageCluster, bag: BagId) -> Vec<Chunk> {
        let m = cluster.num_nodes();
        let mut out = Vec::new();
        for idx in 0..m {
            while let NodeRemove::Chunk(c) = cluster.remove(idx, bag).unwrap() {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn create_seal_remove_lifecycle() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        for i in 0..8u8 {
            cluster.insert(i as usize % 4, bag, chunk(&[i])).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        assert!(cluster.is_sealed(bag).unwrap());
        assert_eq!(
            cluster.insert(0, bag, chunk(b"late")),
            Err(StorageError::BagSealed(bag))
        );
        let got = drain_all(&cluster, bag);
        assert_eq!(got.len(), 8);
        // Fully drained + sealed => every node reports Eof.
        for idx in 0..4 {
            assert_eq!(cluster.remove(idx, bag).unwrap(), NodeRemove::Eof);
        }
    }

    #[test]
    fn unsealed_empty_reports_empty_not_eof() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        assert_eq!(cluster.remove(0, bag).unwrap(), NodeRemove::Empty);
    }

    #[test]
    fn unknown_bag_rejected() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        assert_eq!(
            cluster.insert(0, BagId(99), chunk(b"x")),
            Err(StorageError::UnknownBag(BagId(99)))
        );
    }

    #[test]
    fn sample_aggregates_across_nodes() {
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"aa")).unwrap();
        cluster.insert(1, bag, chunk(b"bbb")).unwrap();
        let s = cluster.sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 2);
        assert_eq!(s.remaining_bytes, 5);
        assert!(!s.sealed);
        cluster.seal_bag(bag).unwrap();
        assert!(cluster.sample_bag(bag).unwrap().sealed);
    }

    #[test]
    fn replication_writes_backups() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        // Primary 0 and backup 1 both hold the chunk; backups store it
        // under the primary's origin stream (samples count only the
        // node's own stream, so cluster-wide sums stay exact).
        assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 1);
        assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 1);
        assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
        assert!(cluster.node(2).snapshot_from(bag, 0).unwrap().is_empty());
    }

    #[test]
    fn failover_serves_from_backup() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"a")).unwrap();
        cluster.insert(0, bag, chunk(b"b")).unwrap();
        cluster.seal_bag(bag).unwrap();
        // Remove one chunk normally: backup pointer mirrors.
        assert_eq!(
            cluster.remove(0, bag).unwrap(),
            NodeRemove::Chunk(chunk(b"a"))
        );
        // Kill the primary; the backup serves the remainder from the
        // mirrored position.
        cluster.node(0).fail();
        assert_eq!(
            cluster.remove(0, bag).unwrap(),
            NodeRemove::Chunk(chunk(b"b"))
        );
        assert_eq!(cluster.remove(0, bag).unwrap(), NodeRemove::Eof);
    }

    #[test]
    fn all_replicas_down_is_an_error() {
        let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"a")).unwrap();
        cluster.node(0).fail();
        cluster.node(1).fail();
        assert_eq!(
            cluster.remove(0, bag),
            Err(StorageError::AllReplicasDown(bag))
        );
    }

    #[test]
    fn insert_survives_one_down_replica() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.node(0).fail();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 1);
    }

    #[test]
    fn discard_then_reuse() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.seal_bag(bag).unwrap();
        cluster.discard_bag(bag).unwrap();
        assert!(!cluster.is_sealed(bag).unwrap());
        cluster.insert(1, bag, chunk(b"y")).unwrap();
        let s = cluster.sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 1);
    }

    #[test]
    fn rewind_allows_second_pass() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.seal_bag(bag).unwrap();
        assert_eq!(drain_all(&cluster, bag).len(), 1);
        cluster.rewind_bag(bag).unwrap();
        assert!(cluster.is_sealed(bag).unwrap(), "rewind keeps the seal");
        assert_eq!(drain_all(&cluster, bag).len(), 1);
    }

    #[test]
    fn collect_blocks_access() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.collect_bag(bag).unwrap();
        assert_eq!(cluster.remove(0, bag), Err(StorageError::BagCollected(bag)));
    }

    #[test]
    fn snapshot_without_replication_sees_everything() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        for i in 0..10u8 {
            cluster.insert(i as usize % 4, bag, chunk(&[i])).unwrap();
        }
        drain_all(&cluster, bag);
        assert_eq!(cluster.snapshot_bag(bag).unwrap().len(), 10);
    }

    #[test]
    fn snapshot_with_replication_dedups() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        for i in 0..6u8 {
            cluster.insert(i as usize % 3, bag, chunk(&[i])).unwrap();
        }
        assert_eq!(cluster.snapshot_bag(bag).unwrap().len(), 6);
    }

    #[test]
    fn add_node_grows_cluster() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        assert_eq!(cluster.num_nodes(), 2);
        let idx = cluster.add_node();
        assert_eq!(idx, 2);
        assert_eq!(cluster.num_nodes(), 3);
        let bag = cluster.create_bag();
        cluster.insert(2, bag, chunk(b"x")).unwrap();
        assert_eq!(cluster.node(2).sample(bag).unwrap().total_chunks, 1);
    }

    #[test]
    fn insert_batch_replicates_whole_batch() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        let chunks: Vec<Chunk> = (0..6u8).map(|i| chunk(&[i])).collect();
        cluster.insert_batch(0, bag, &chunks).unwrap();
        assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 6);
        assert_eq!(cluster.node(1).snapshot_from(bag, 0).unwrap().len(), 6);
    }

    #[test]
    fn remove_batch_drains_and_mirrors() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        for i in 0..8u8 {
            cluster.insert(0, bag, chunk(&[i])).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let got = cluster.remove_batch(0, bag, 5).unwrap();
        assert_eq!(got.chunks.len(), 5);
        assert!(!got.eof);
        // The backup's pointer followed the batch: a failover now serves
        // exactly the remaining three chunks.
        cluster.node(0).fail();
        let rest = cluster.remove_batch(0, bag, 100).unwrap();
        assert_eq!(rest.chunks.len(), 3);
        assert!(rest.eof);
    }

    #[test]
    fn concurrent_replicated_inserts_keep_replica_order_identical() {
        // Count-based pointer mirroring requires every replica's origin
        // stream to hold chunks in the same order. Hammer one primary
        // from many threads and compare the full streams.
        let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let cluster = &cluster;
                s.spawn(move || {
                    for i in 0..500u16 {
                        let payload = [t, i.to_le_bytes()[0], i.to_le_bytes()[1]];
                        cluster.insert(0, bag, chunk(&payload)).unwrap();
                    }
                });
            }
        });
        let primary = cluster.node(0).snapshot_from(bag, 0).unwrap();
        let backup = cluster.node(1).snapshot_from(bag, 0).unwrap();
        assert_eq!(primary.len(), 2000);
        assert_eq!(primary, backup, "replica append order must be identical");
    }

    #[test]
    fn mirrored_pointer_never_lags_under_concurrent_insert_remove() {
        // Backup-first replica writes: a chunk is only removable once the
        // backup already holds it, so every successful remove's mirror
        // finds a chunk to skip. Race inserts against removes, then kill
        // the primary and drain: nothing may be served twice.
        let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        let total = 2000u64;
        let removed: Vec<Chunk> = std::thread::scope(|s| {
            let inserter = {
                let cluster = &cluster;
                s.spawn(move || {
                    for i in 0..total {
                        cluster.insert(0, bag, chunk(&i.to_le_bytes())).unwrap();
                    }
                })
            };
            let remover = {
                let cluster = &cluster;
                s.spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < (total / 2) as usize {
                        match cluster.remove(0, bag).unwrap() {
                            NodeRemove::Chunk(c) => got.push(c),
                            _ => std::thread::yield_now(),
                        }
                    }
                    got
                })
            };
            inserter.join().unwrap();
            remover.join().unwrap()
        });
        cluster.seal_bag(bag).unwrap();
        cluster.node(0).fail();
        let mut seen: std::collections::HashSet<Vec<u8>> =
            removed.iter().map(|c| c.bytes().to_vec()).collect();
        loop {
            match cluster.remove(0, bag).unwrap() {
                NodeRemove::Chunk(c) => {
                    assert!(
                        seen.insert(c.bytes().to_vec()),
                        "failover re-served an already-delivered chunk"
                    );
                }
                NodeRemove::Eof => break,
                NodeRemove::Empty => unreachable!("sealed"),
            }
        }
        assert_eq!(seen.len() as u64, total, "chunks lost across failover");
    }

    #[test]
    fn empty_replica_does_not_mask_chunks_at_backup() {
        // Divergent logs: a value lands only at the backup (the primary
        // was down during the insert), then the primary comes back with
        // a log that never saw it. The group-level remove must keep
        // probing past the primary's empty serve and deliver the
        // marooned chunk instead of declaring a premature end-of-bag.
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.node(0).fail();
        cluster.insert(0, bag, chunk(b"marooned")).unwrap(); // backup 1 only
        cluster.node(0).recover();
        cluster.seal_bag(bag).unwrap();
        let got = cluster.remove_batch(0, bag, 8).unwrap();
        assert_eq!(got.chunks, vec![chunk(b"marooned")]);
        let end = cluster.remove_batch(0, bag, 8).unwrap();
        assert!(end.chunks.is_empty() && end.eof);
    }

    #[test]
    fn durable_cluster_recovers_node_from_shared_store() {
        let store = SegmentStore::mem();
        let cluster = StorageCluster::new_durable(
            2,
            ClusterConfig::default(),
            DurabilityConfig {
                store,
                spill_threshold_bytes: u64::MAX,
            },
        );
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.node(0).crash_lose_memory();
        cluster.node(0).restart_recover().unwrap();
        assert_eq!(
            cluster.remove(0, bag).unwrap(),
            NodeRemove::Chunk(chunk(b"x"))
        );
        // Nodes added later join the same store.
        let idx = cluster.add_node();
        assert!(cluster.node(idx).is_durable());
    }

    #[test]
    fn remove_batch_eof_follows_cluster_seal() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let got = cluster.remove_batch(0, bag, 4).unwrap();
        assert!(got.chunks.is_empty() && !got.eof, "unsealed: pending");
        cluster.seal_bag(bag).unwrap();
        let got = cluster.remove_batch(0, bag, 4).unwrap();
        assert!(got.eof, "sealed and empty: end of bag");
    }

    #[test]
    fn fallback_probe_claims_instead_of_double_serving() {
        // Reader A served the bag's chunks at the primary, but its
        // mirror to the backup is still in flight when reader B's probe
        // runs: the primary answers empty while the backup would serve
        // the same chunks again. B's claim at the primary must reveal
        // the concurrent serve so B drops them.
        let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.insert(0, bag, chunk(b"y")).unwrap();
        // Reader A, mid-flight: consumed at the primary, mirror pending.
        let served = cluster.node(0).remove_batch(bag, 8).unwrap();
        assert_eq!(served.chunks.len(), 2);
        // Reader B via the cluster: primary empty, backup serves, claim
        // reports both chunks already delivered.
        let got = cluster.remove_batch(0, bag, 8).unwrap();
        assert!(
            got.chunks.is_empty(),
            "claim must drop concurrently served chunks, got {:?}",
            got.chunks
        );
        // The backup's pointer advanced with the claim-drop: the group
        // is drained for good.
        cluster.seal_bag(bag).unwrap();
        let end = cluster.remove_batch(0, bag, 8).unwrap();
        assert!(end.chunks.is_empty() && end.eof);
    }

    #[test]
    fn fallback_probe_serves_chunks_the_empty_replica_never_held() {
        // The dual of the claim test: a run that landed only at the
        // backup (the primary missed the insert — a divergent log).
        // The primary's claim knows nothing of the identity, so the
        // probe delivers the marooned chunk exactly once; a replicated
        // insert of the same identity arriving at the primary later
        // lands already consumed.
        let cluster = StorageCluster::new(2, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        let run = next_run_id();
        cluster
            .node(1)
            .insert_run(bag, &[chunk(b"marooned")], 0, run)
            .unwrap();
        let got = cluster.remove_batch(0, bag, 8).unwrap();
        assert_eq!(got.chunks, vec![chunk(b"marooned")]);
        // The in-flight replicated copy lands at the primary after the
        // serve: the claim pre-consumed its identity, so it can never
        // be served a second time.
        cluster
            .node(0)
            .insert_run(bag, &[chunk(b"marooned")], 0, run)
            .unwrap();
        cluster.seal_bag(bag).unwrap();
        let end = cluster.remove_batch(0, bag, 8).unwrap();
        assert!(end.chunks.is_empty() && end.eof, "got {:?}", end.chunks);
    }

    #[test]
    fn drain_node_rejects_inserts_but_serves() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.insert(0, bag, chunk(b"x")).unwrap();
        cluster.drain_node(0);
        assert!(matches!(
            cluster.insert(0, bag, chunk(b"y")),
            Err(StorageError::NodeDraining(_))
        ));
        assert_eq!(
            cluster.remove(0, bag).unwrap(),
            NodeRemove::Chunk(chunk(b"x"))
        );
        assert!(cluster.node(0).is_drained().unwrap());
    }
}
