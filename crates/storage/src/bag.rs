//! `BagClient` — the per-worker handle to one bag.
//!
//! A bag client combines a data-plane port ([`RpcPort`]: one connection
//! per storage node, over whichever transport the client's
//! [`crate::StorageEndpoint`] chose) with two private pseudorandom cyclic
//! placements (one for inserts, one for removes, paper §3.3). The client
//! decides *which replica group* each operation addresses and what a
//! round of probes adds up to (`Pending` vs `Drained`); everything inside
//! one group — replication, fail-over, mirroring — is the port's.
//! Multiple clients on the same bag interleave freely: the per-node read
//! pointers give exactly-once chunk delivery, which is the property task
//! clones rely on to partition work dynamically (late binding of chunks
//! to workers, paper §2.2).

use crate::cluster::StorageCluster;
use crate::error::StorageError;
use crate::node::BagSample;
use crate::placement::CyclicPlacement;
use crate::rpc::{PortStats, RpcPort};
use hurricane_common::{BagId, DetRng};
use hurricane_format::Chunk;
use std::sync::Arc;

/// Outcome of a bag-level batched remove attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchRemoveResult {
    /// At least one chunk was removed (up to the requested maximum).
    Chunks(Vec<Chunk>),
    /// Nothing available right now; the bag is not sealed.
    Pending,
    /// The bag is sealed and fully drained.
    Drained,
}

/// A client handle for inserting into / removing from one bag.
pub struct BagClient {
    pub(crate) port: RpcPort,
    pub(crate) bag: BagId,
    insert_cursor: CyclicPlacement,
    pub(crate) remove_cursor: CyclicPlacement,
    rng: DetRng,
    /// Per-target scratch buckets reused across `insert_batch` calls so a
    /// steady stream of batches allocates nothing.
    insert_buckets: Vec<Vec<Chunk>>,
    /// When set, every insert and remove addresses exactly this node —
    /// no cyclic spreading, no re-routing. See
    /// [`BagClient::with_pinned_node`].
    pinned: Option<usize>,
}

impl BagClient {
    /// Creates a client for `bag` over an inline port
    /// ([`RpcPort::inline`]): the storage protocol dispatched on the
    /// caller's thread. Each client should use a distinct `seed` so that
    /// placement cycles decorrelate across workers.
    pub fn new(cluster: Arc<StorageCluster>, bag: BagId, seed: u64) -> Self {
        Self::with_port(RpcPort::inline(cluster), bag, seed)
    }

    pub(crate) fn with_port(port: RpcPort, bag: BagId, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let m = port.num_nodes();
        Self {
            insert_cursor: CyclicPlacement::new(m, &mut rng),
            remove_cursor: CyclicPlacement::new(m, &mut rng),
            port,
            bag,
            rng,
            insert_buckets: Vec::new(),
            pinned: None,
        }
    }

    /// Pins this client to storage node `idx`: every insert lands there
    /// (errors propagate instead of re-routing — the caller must learn
    /// the write failed) and removes probe only that node.
    ///
    /// Bag chunks are normally *unordered* — cyclic placement spreads
    /// them across nodes and readers interleave node streams. A pinned
    /// client trades that balance for the one ordering guarantee storage
    /// does make: per-node FIFO. Spill runs in the merge plane
    /// (`core/merges.rs`) depend on it — a sorted run written through a
    /// pinned client reads back in exactly its written (sorted) order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the current membership.
    #[must_use]
    pub fn with_pinned_node(mut self, idx: usize) -> Self {
        assert!(
            idx < self.port.num_nodes(),
            "pinned node {idx} out of range"
        );
        self.pinned = Some(idx);
        self
    }

    /// The bag this client addresses.
    pub fn bag_id(&self) -> BagId {
        self.bag
    }

    /// Number of storage nodes this client's port addresses.
    pub fn num_nodes(&self) -> usize {
        self.port.num_nodes()
    }

    /// Picks up storage nodes added since this client was created
    /// (paper §3.4: the master informs compute nodes about new nodes):
    /// syncs the port's connection set with its membership view, then
    /// grows the placement cycles to cover the new nodes.
    pub fn refresh_membership(&mut self) {
        self.port.refresh_membership();
        let m = self.port.num_nodes();
        if m > self.insert_cursor.len() {
            self.insert_cursor.grow(m, &mut self.rng);
        }
        if m > self.remove_cursor.len() {
            self.remove_cursor.grow(m, &mut self.rng);
        }
    }

    /// Whether a remove error means the probed replica group is gone
    /// (down or disconnected): the probe loop moves on, and whatever the
    /// group held is unreachable until it recovers. A group that is up
    /// but cannot journal the consume ([`StorageError::DiskFull`] /
    /// [`StorageError::DiskIo`]) still holds its chunks, so that error
    /// propagates — skipping it would let a sealed bag read as drained
    /// with chunks unread. The prefetcher draws the same line.
    pub(crate) fn unreachable(e: &StorageError) -> bool {
        matches!(
            e,
            StorageError::NodeDown(_)
                | StorageError::AllReplicasDown(_)
                | StorageError::Disconnected(_)
        )
    }

    /// Inserts every chunk of `chunks` with one request per target node
    /// instead of one per chunk, all submitted before any ack is awaited
    /// (and possibly coalesced with later batches, see
    /// [`BagClient::set_coalescing`]). Each chunk targets the next storage
    /// node in this client's pseudorandom cyclic order; a bucket whose
    /// replica group refuses (down, draining, disk-sick, disconnected) is
    /// re-routed to the next nodes by the port's flush — data placement
    /// has no locality to preserve, so any node is as good as any other.
    ///
    /// The placement cursor advances chunk-by-chunk (a cheap local
    /// operation), so per-cycle balance is identical to one-chunk
    /// inserts; what is amortized is the expensive part —
    /// envelopes, storage-node lock acquisitions and replication fan-out,
    /// which happen at most once per node per batch.
    pub fn insert_batch(&mut self, chunks: &[Chunk]) -> Result<(), StorageError> {
        if chunks.is_empty() {
            return Ok(());
        }
        if let Some(p) = self.pinned {
            return self.port.insert_batch(p, self.bag, chunks);
        }
        let m = self.insert_cursor.len();
        self.insert_buckets.resize_with(m, Vec::new);
        for bucket in &mut self.insert_buckets {
            bucket.clear();
        }
        for chunk in chunks {
            self.insert_buckets[self.insert_cursor.next_node()].push(chunk.clone());
        }
        self.port.insert_buckets(self.bag, &mut self.insert_buckets)
    }

    /// Inserts one chunk: the one-chunk [`BagClient::insert_batch`],
    /// taking the chunk by value. It goes to the port's staging queue for
    /// the next node in the cyclic order, and the port sends it with the
    /// rest of its window ([`BagClient::set_coalescing`]; at once when
    /// coalescing is off) or at [`BagClient::flush`], rerouting a refused
    /// run there. This is a writer's per-sealed-chunk call. A pinned
    /// client inserts synchronously instead and never re-routes: its
    /// caller must learn, at this chunk, that the node refused.
    pub fn insert(&mut self, chunk: Chunk) -> Result<(), StorageError> {
        match self.pinned {
            Some(p) => self
                .port
                .insert_batch(p, self.bag, std::slice::from_ref(&chunk)),
            None => {
                let target = self.insert_cursor.next_node();
                self.port.stage(target, self.bag, chunk)
            }
        }
    }

    /// Attempts to remove up to `max_n` chunks, probing storage nodes in
    /// cyclic order and taking as many chunks from each probed node as
    /// the budget allows — one storage round-trip per node rather than
    /// per chunk (the data-plane analog of batch sampling, paper §3.3).
    /// One chunk is `max_n = 1`. Probes up to one full cycle: near bag
    /// emptiness that needs more probing (paper §3.3), which the
    /// prefetcher amortizes with its `b` outstanding requests.
    ///
    /// The probe loop is sequential — a full-budget probe usually fills
    /// from the first non-empty node, so one message moves the whole
    /// batch. (Scattering capped sub-requests across all nodes was tried
    /// and rejected: it multiplies message count by `m` per batch.
    /// Latency hiding for reads belongs to the
    /// [`Prefetcher`](crate::prefetch::Prefetcher), whose pipeline keeps
    /// up to `b` probes in flight.)
    pub fn try_remove_batch(&mut self, max_n: usize) -> Result<BatchRemoveResult, StorageError> {
        let m = if self.pinned.is_some() {
            1
        } else {
            self.remove_cursor.len()
        };
        let mut got: Vec<Chunk> = Vec::new();
        let mut saw_pending = false;
        let mut down = 0usize;
        for _ in 0..m {
            let budget = max_n - got.len();
            if budget == 0 {
                break;
            }
            let target = self
                .pinned
                .unwrap_or_else(|| self.remove_cursor.next_node());
            match self.port.remove_batch(target, self.bag, budget) {
                Ok(batch) => {
                    saw_pending |= !batch.eof;
                    if got.is_empty() {
                        got = batch.chunks;
                    } else {
                        got.extend(batch.chunks);
                    }
                }
                Err(e) if Self::unreachable(&e) => down += 1,
                // Chunks already removed this round are delivered first;
                // the next call meets the error again if it persists.
                Err(_) if !got.is_empty() => break,
                Err(e) => return Err(e),
            }
        }
        if !got.is_empty() {
            return Ok(BatchRemoveResult::Chunks(got));
        }
        if down == m {
            return Err(StorageError::AllReplicasDown(self.bag));
        }
        Ok(if saw_pending {
            BatchRemoveResult::Pending
        } else {
            BatchRemoveResult::Drained
        })
    }

    /// Samples the bag's cluster-wide state (for progress estimation).
    pub fn sample(&mut self) -> Result<BagSample, StorageError> {
        self.port.sample_bag(self.bag)
    }

    /// Enables cross-batch insert coalescing: successive
    /// [`BagClient::insert_batch`] / [`BagClient::insert`] calls stage
    /// their chunks and the port sends one merged envelope per (node,
    /// bag) once `window_chunks` chunks are staged. Staged chunks are
    /// durable only after the next flush — call [`BagClient::flush`] at
    /// batch-boundary handoffs (the engine's writers do).
    pub fn set_coalescing(&mut self, window_chunks: usize) {
        self.port.set_coalescing(window_chunks);
    }

    /// The configured coalesce window (chunks; 0 = off).
    pub fn coalescing(&self) -> usize {
        self.port.coalescing()
    }

    /// Builder form of [`BagClient::set_coalescing`].
    #[must_use]
    pub fn with_coalescing(mut self, window_chunks: usize) -> Self {
        self.set_coalescing(window_chunks);
        self
    }

    /// Bounds the outstanding on-wire request budget of each underlying
    /// connection (writer flow control; see
    /// [`crate::rpc::NodeConnection::with_credit`]). Never reached on the
    /// inline plane, where every request is answered before `send`
    /// returns.
    pub fn set_writer_credit(&mut self, credit: usize) {
        self.port.set_writer_credit(credit);
    }

    /// Flushes any coalesced inserts still staged on the port. After this
    /// returns `Ok`, every chunk handed to `insert_batch` is durable at
    /// storage. A no-op when nothing is staged.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.port.flush()
    }

    /// Data-plane statistics of this client's port — envelope counts,
    /// staged chunks, flushes. Always `Some`: every client speaks
    /// through a port. (The `Option` is what `benchmark/` compiles
    /// against; it goes with that package's migration.)
    pub fn port_stats(&self) -> Option<PortStats> {
        Some(self.port.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::collections::HashSet;

    fn chunk(v: u64) -> Chunk {
        Chunk::from_vec(v.to_le_bytes().to_vec())
    }

    fn chunk_val(c: &Chunk) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(c.bytes());
        u64::from_le_bytes(b)
    }

    /// One chunk through the batch remove: `Some` when one was removed.
    fn take_one(client: &mut BagClient) -> Option<Chunk> {
        match client.try_remove_batch(1).unwrap() {
            BatchRemoveResult::Chunks(mut c) => c.pop(),
            BatchRemoveResult::Pending | BatchRemoveResult::Drained => None,
        }
    }

    #[test]
    fn insert_remove_roundtrip_single_client() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 1);
        for i in 0..100 {
            client.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut got = HashSet::new();
        while let Some(c) = take_one(&mut client) {
            got.insert(chunk_val(&c));
        }
        assert_eq!(got.len(), 100);
        assert_eq!(
            client.try_remove_batch(1).unwrap(),
            BatchRemoveResult::Drained
        );
    }

    #[test]
    fn inserts_spread_across_nodes() {
        let cluster = StorageCluster::new(8, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 2);
        for i in 0..800 {
            client.insert(chunk(i)).unwrap();
        }
        for idx in 0..8 {
            let s = cluster.node(idx).sample(bag).unwrap();
            assert_eq!(
                s.total_chunks, 100,
                "cyclic placement must balance perfectly per cycle"
            );
        }
    }

    #[test]
    fn two_clients_share_exactly_once() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 3);
        for i in 0..200 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut a = BagClient::new(cluster.clone(), bag, 4);
        let mut b = BagClient::new(cluster.clone(), bag, 5);
        let mut got = Vec::new();
        loop {
            let mut progressed = false;
            if let Some(c) = take_one(&mut a) {
                got.push(chunk_val(&c));
                progressed = true;
            }
            if let Some(c) = take_one(&mut b) {
                got.push(chunk_val(&c));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        got.sort_unstable();
        let expected: Vec<u64> = (0..200).collect();
        assert_eq!(got, expected, "every chunk exactly once across clients");
    }

    #[test]
    fn insert_batch_preserves_cyclic_balance() {
        let cluster = StorageCluster::new(8, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 2);
        let chunks: Vec<Chunk> = (0..800u64).map(chunk).collect();
        for batch in chunks.chunks(100) {
            client.insert_batch(batch).unwrap();
        }
        for idx in 0..8 {
            let s = cluster.node(idx).sample(bag).unwrap();
            assert_eq!(
                s.total_chunks, 100,
                "batched inserts keep per-cycle balance"
            );
        }
    }

    #[test]
    fn batch_roundtrip_exactly_once() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 3);
        let chunks: Vec<Chunk> = (0..250u64).map(chunk).collect();
        client.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut got = HashSet::new();
        let mut consumer = BagClient::new(cluster.clone(), bag, 4);
        loop {
            match consumer.try_remove_batch(64).unwrap() {
                BatchRemoveResult::Chunks(batch) => {
                    for c in batch {
                        assert!(got.insert(chunk_val(&c)), "duplicate delivery");
                    }
                }
                BatchRemoveResult::Drained => break,
                BatchRemoveResult::Pending => unreachable!("sealed bag"),
            }
        }
        assert_eq!(got.len(), 250);
    }

    #[test]
    fn batch_remove_reports_pending_then_drained() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 5);
        assert_eq!(
            client.try_remove_batch(8).unwrap(),
            BatchRemoveResult::Pending
        );
        cluster.seal_bag(bag).unwrap();
        assert_eq!(
            client.try_remove_batch(8).unwrap(),
            BatchRemoveResult::Drained
        );
    }

    #[test]
    fn insert_batch_reroutes_around_down_node() {
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.node(1).fail();
        let mut client = BagClient::new(cluster.clone(), bag, 6);
        let chunks: Vec<Chunk> = (0..30u64).map(chunk).collect();
        client.insert_batch(&chunks).unwrap();
        let total: u64 = [0, 2]
            .iter()
            .map(|&i| cluster.node(i).sample(bag).unwrap().total_chunks)
            .sum();
        assert_eq!(total, 30, "all chunks must land on live nodes");
    }

    #[test]
    fn pending_until_sealed() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 6);
        assert_eq!(
            client.try_remove_batch(1).unwrap(),
            BatchRemoveResult::Pending
        );
        cluster.seal_bag(bag).unwrap();
        assert_eq!(
            client.try_remove_batch(1).unwrap(),
            BatchRemoveResult::Drained
        );
    }

    #[test]
    fn insert_skips_down_node() {
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.node(1).fail();
        let mut client = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..30 {
            client.insert(chunk(i)).unwrap();
        }
        let total: u64 = [0, 2]
            .iter()
            .map(|&i| cluster.node(i).sample(bag).unwrap().total_chunks)
            .sum();
        assert_eq!(total, 30, "all chunks must land on live nodes");
    }

    #[test]
    fn remove_tolerates_down_node_without_replication_until_needed() {
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 8);
        for i in 0..30 {
            client.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        cluster.node(1).fail();
        // Chunks on live nodes are still retrievable; the client keeps
        // probing past the dead node.
        let mut count = 0;
        while take_one(&mut client).is_some() {
            count += 1;
        }
        assert_eq!(count, 20, "two thirds of the chunks live on healthy nodes");
    }

    #[test]
    fn all_nodes_down_is_error() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 9);
        client.insert(chunk(1)).unwrap();
        cluster.node(0).fail();
        cluster.node(1).fail();
        assert!(matches!(
            client.try_remove_batch(1),
            Err(StorageError::AllReplicasDown(_))
        ));
        assert!(matches!(
            client.insert(chunk(2)),
            Err(StorageError::NodeDown(_) | StorageError::AllReplicasDown(_))
        ));
    }

    #[test]
    fn membership_refresh_reaches_new_node() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, 10);
        cluster.add_node();
        client.refresh_membership();
        for i in 0..30 {
            client.insert(chunk(i)).unwrap();
        }
        assert!(
            cluster.node(2).sample(bag).unwrap().total_chunks >= 9,
            "new node should receive its cyclic share"
        );
    }

    #[test]
    fn rpc_membership_refresh_reaches_new_node() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let ep = crate::endpoint::StorageEndpoint::channel(cluster.clone());
        let mut client = ep.client(bag, 10);
        ep.add_node();
        client.refresh_membership();
        for i in 0..30 {
            client.insert(chunk(i)).unwrap();
        }
        assert!(
            cluster.node(2).sample(bag).unwrap().total_chunks >= 9,
            "joined node should receive its cyclic share over RPC"
        );
    }

    #[test]
    fn pinned_client_keeps_fifo_on_one_node() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagClient::new(cluster.clone(), bag, 13).with_pinned_node(2);
        for i in 0..50 {
            w.insert(chunk(i)).unwrap();
        }
        // Everything landed on the pinned node, nothing elsewhere.
        assert_eq!(cluster.node(2).sample(bag).unwrap().total_chunks, 50);
        for idx in [0, 1, 3] {
            assert_eq!(cluster.node(idx).sample(bag).unwrap().total_chunks, 0);
        }
        cluster.seal_bag(bag).unwrap();
        // A pinned reader sees the exact insertion order (per-node FIFO).
        let mut r = BagClient::new(cluster.clone(), bag, 14).with_pinned_node(2);
        let mut got = Vec::new();
        loop {
            match r.try_remove_batch(7).unwrap() {
                BatchRemoveResult::Chunks(batch) => got.extend(batch.iter().map(chunk_val)),
                BatchRemoveResult::Drained => break,
                BatchRemoveResult::Pending => unreachable!("sealed bag"),
            }
        }
        let expected: Vec<u64> = (0..50).collect();
        assert_eq!(got, expected, "pinned reads must preserve write order");
    }

    #[test]
    fn pinned_insert_propagates_node_failure() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagClient::new(cluster.clone(), bag, 15).with_pinned_node(0);
        cluster.node(0).fail();
        // No silent re-route: the caller must learn the write failed
        // even though node 1 is healthy — through either entry, and
        // whatever window a writer gave the port.
        w.set_coalescing(8);
        assert!(matches!(w.insert(chunk(1)), Err(StorageError::NodeDown(_))));
        assert!(matches!(
            w.insert_batch(&[chunk(2)]),
            Err(StorageError::NodeDown(_))
        ));
        assert_eq!(w.port.staged_chunks(), 0);
        assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
    }

    #[test]
    fn staged_chunks_go_out_by_the_window_and_keep_cyclic_balance() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagClient::new(cluster.clone(), bag, 16).with_coalescing(8);
        for i in 0..20 {
            w.insert(chunk(i)).unwrap();
        }
        // Two full windows sent, one envelope per node each; 4 staged.
        assert_eq!(w.port.staged_chunks(), 4);
        let s = RpcPort::inline(cluster.clone()).sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 16);
        w.flush().unwrap();
        assert_eq!(w.port.staged_chunks(), 0);
        let stats = w.port_stats().unwrap();
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.staged_chunks, 20);
        assert_eq!(stats.insert_envelopes, 12);
        for idx in 0..4 {
            assert_eq!(cluster.node(idx).sample(bag).unwrap().total_chunks, 5);
        }
        // A sealed bag refuses at the stage call, not at some later flush.
        cluster.seal_bag(bag).unwrap();
        assert!(matches!(
            w.insert(chunk(99)),
            Err(StorageError::BagSealed(_))
        ));
    }
}
