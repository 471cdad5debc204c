//! The storage RPC boundary: explicit messages between compute and storage.
//!
//! Hurricane's compute/storage separation (paper §3) only pays off when
//! storage is addressed through a *message* boundary rather than in-process
//! method calls: the prefetcher keeps `b` requests outstanding against
//! remote storage nodes (paper §3.3), and writers overlap replica acks —
//! neither is expressible when every operation is a blocking method call.
//! This module makes the boundary explicit.
//!
//! # The message protocol
//!
//! Every storage-node operation is one [`StorageRequest`] message answered
//! by exactly one [`StorageResponse`] (or a [`StorageError`]). Requests
//! travel inside a [`RequestEnvelope`] carrying a **correlation id**
//! assigned by the client; the reply echoes the id in its
//! [`ReplyEnvelope`]. Ids are what let a client keep many requests in
//! flight on one connection and match completions to callers — replies may
//! legitimately arrive out of order, because each node dispatches requests
//! on a small pool of server threads (and a future networked server makes
//! no ordering promises at all).
//!
//! The request set is the node's whole data and control API: one insert
//! (a run of chunks), one remove (up to `n` chunks; one chunk is `n = 1`),
//! one claim by identity (the pointer mirror and the fallback-serve
//! reconciliation), one non-destructive read (one origin stream), sampling,
//! and the bag lifecycle (seal / rewind / discard / collect). Batch messages
//! are deliberate: one envelope per *batch*, not per chunk, is what keeps
//! the boundary cheap enough to put under the hot path.
//!
//! # Layers
//!
//! * [`Transport`] — one bidirectional connection to one storage node:
//!   non-blocking `send`, polled receive. [`ChannelTransport`] is the
//!   in-process implementation over crossbeam channels; a network
//!   transport implements the same trait over a socket (serialize the
//!   envelope, write; read, deserialize) and **nothing above this trait
//!   changes** — `NodeConnection`, `RpcPort`, `BagClient`, and the
//!   prefetcher are all transport-agnostic.
//! * [`NodeServerHandle`] — the per-node server: a small pool of dispatch
//!   threads draining one MPMC request queue into the sharded
//!   [`StorageNode`]. Shutdown is *draining*: every request already
//!   submitted is answered before the loops exit, then clients observe
//!   disconnection on their next send.
//! * [`NodeConnection`] — the client-side correlation layer: assigns ids,
//!   parks out-of-order replies, and exposes completion *tokens*
//!   ([`CompletionToken`]) so callers can submit now and collect later.
//!   It owns retransmission, with one knob, the request timeout: a token
//!   whose attempt sees no reply in time sends the same envelope again,
//!   up to [`REQUEST_ATTEMPTS`], and then fails with
//!   [`StorageError::Timeout`].
//! * [`RpcPort`] — a per-owner set of connections (one per node) plus the
//!   cluster metadata handle; implements the cluster-level data plane
//!   (replica fan-out with backups-first ordering, failover, pointer
//!   mirroring) and every whole-bag control operation (seal, rewind,
//!   discard, collect, sample, snapshot: one fan-out to every node) on
//!   top of submit/wait. Every [`crate::BagClient`] holds one; the
//!   cluster object keeps only metadata, which the port reads and flips.
//! * [`StorageRpc`] — the `channel` plane's servers, one per cluster
//!   node, and the membership of channel connectors over them; held by
//!   [`crate::StorageEndpoint::channel`], which mints the ports.
//!
//! # Replication over RPC
//!
//! Every insert run — a flush's, a synchronous `insert_batch`'s, a
//! reroute's — lands through one fan-out, `RpcPort::land_runs`, which
//! states the backups-first and append-order invariants once: backups
//! are written — concurrently, overlapping their acks — and
//! *acknowledged* before the primary write is issued, so anything a
//! reader could have been served from the primary already exists on
//! every backup. Every run's envelopes share one writer-minted **run
//! id** ([`crate::next_run_id`]), giving each chunk the same `(run, k)`
//! identity at every replica; pointer mirrors then consume by identity
//! ([`StorageRequest::ClaimConsumed`]), which stays exactly-once even
//! when replica logs diverged after a partial insert. The two phases
//! overlap every run of the call, so a replicated flush pays one
//! round-trip of latency for all its backups plus one for all its
//! primaries, however many runs and replicas it carries.
//!
//! # The amortized data plane
//!
//! Message boundaries only pay off when per-message costs are amortized
//! across batches instead of paid per bucket (the same discipline as the
//! paper's batch sampling, §3.3 Eq. 1). Three layers of this module
//! implement that amortization on the write path:
//!
//! ```text
//!  BagWriter (seals records into chunks; holds no sealed chunk)
//!        │  BagClient::insert, one sealed chunk at a time
//!        │  (or BagClient::insert_batch, a slice at a time)
//!        │  cyclic placement (origin = target node)
//!        ▼
//!  ┌─ RpcPort ──────────────────────────────────────────────────────┐
//!  │ insert COALESCER: per-node staging queues — the one buffer of  │
//!  │ sealed chunks — merge successive calls into one run per        │
//!  │ (node, bag); flushed when staged chunks reach the coalesce     │
//!  │ window, or by flush().                                         │
//!  │        │  one InsertBatch envelope per (node, bag) per flush   │
//!  │        ▼                                                       │
//!  │ ChunkRun retransmit buffers: each envelope carries an          │
//!  │ Arc<[Chunk]> view; replica fan-out and rerouting after a       │
//!  │ refused node clone ONE refcount, never the chunks.             │
//!  └────────┬───────────────────────────────────────────────────────┘
//!           ▼
//!  ┌─ NodeConnection (one per node) ────────────────────────────────┐
//!  │ SLAB correlation table: completion tokens are reusable slots   │
//!  │ (index ‖ generation), no per-request map churn; stale replies  │
//!  │ to abandoned slots die on a generation mismatch.               │
//!  │ WRITER CREDIT: submit blocks (pumping replies) once            │
//!  │ `credit` requests are on the wire unanswered — a stalled node  │
//!  │ bounds the lane instead of accumulating unbounded queue.       │
//!  │ RETRANSMISSION: each pending slot keeps its request; a late    │
//!  │ reply re-sends the same envelope (same id, same seq).          │
//!  └────────┬───────────────────────────────────────────────────────┘
//!           ▼
//!       Transport (channel / inline / socket)
//! ```
//!
//! Coalescing is **off by default** (`coalesce window = 0` flushes every
//! call, preserving call-synchronous semantics); a `BagWriter` opens its
//! port's window to its write batch factor `b`, the engine's task
//! writers to `2b`, and the contended microbenches opt in. With a window
//! of `w`, successive batches of `n` chunks over `m` nodes send `m`
//! envelopes per `w` staged chunks instead of `m` per `n` — an `w /
//! n`-fold envelope reduction — at the cost of deferred completion:
//! staged chunks are durable only after the next flush, so writers must
//! [`RpcPort::flush`] before sealing the bag or handing off to readers.
//! Reads and synchronous inserts through the same port flush first, so
//! a port always reads its own writes.

use crate::cluster::StorageCluster;
use crate::error::StorageError;
use crate::node::{next_run_id, BagSample, NodeRemoveBatch, StorageNode, TagSegment};
use crossbeam::channel::{unbounded, Receiver, Sender};
use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default client-side request timeout. Generous: in-process dispatch is
/// microseconds, so a timeout here means the server is gone or wedged.
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Default dispatch threads per node server. More than one so replies can
/// genuinely reorder (keeping the correlation layer honest) and so
/// operations on different bags exploit the node's per-bag sharding.
pub const DEFAULT_DISPATCH_THREADS: usize = 2;

/// Default per-connection writer credit: how many requests may be on the
/// wire unanswered before [`NodeConnection::submit`] blocks. Sized well
/// above the prefetcher's self-limit (one request per node) and the
/// insert fan-out (one envelope per bag per node per flush) so healthy
/// traffic never stalls, while a wedged node bounds its lane at a few
/// dozen envelopes instead of accumulating unbounded queue.
pub const DEFAULT_WRITER_CREDIT: usize = 64;

/// A refcounted, immutable run of chunks — the insert data plane's unit
/// of transfer and retransmission.
///
/// An [`StorageRequest::InsertBatch`] envelope carries one run. Because
/// the backing store is an `Arc<[Chunk]>`, fanning a run out to `r`
/// replicas or rerouting it after a refused node clones **one refcount**,
/// not one per chunk (let alone the payload): the same buffer serves as
/// the retransmit buffer for every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRun {
    chunks: Arc<[Chunk]>,
}

impl ChunkRun {
    /// Wraps an owned chunk vector (moves the chunks; no per-chunk clone).
    pub fn new(chunks: Vec<Chunk>) -> Self {
        Self {
            chunks: chunks.into(),
        }
    }

    /// Builds a run from borrowed chunks (one refcount bump per chunk —
    /// the entry point for callers that keep ownership).
    pub fn from_slice(chunks: &[Chunk]) -> Self {
        Self {
            chunks: chunks.to_vec().into(),
        }
    }
}

impl From<Vec<Chunk>> for ChunkRun {
    fn from(chunks: Vec<Chunk>) -> Self {
        Self::new(chunks)
    }
}

impl std::ops::Deref for ChunkRun {
    type Target = [Chunk];

    fn deref(&self) -> &[Chunk] {
        &self.chunks
    }
}

/// One storage-node operation, as a message: exactly the node API that
/// [`dispatch`] calls. A single chunk is an `n = 1` batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageRequest {
    /// Append `chunks` to `bag` under origin stream `origin`
    /// ([`StorageNode::insert_run`]).
    InsertBatch {
        /// Target bag.
        bag: BagId,
        /// Primary index the chunks are addressed to.
        origin: u32,
        /// Writer-minted run id ([`next_run_id`]), identical across the
        /// replica fan-out of this run: chunk `k` lands with identity
        /// tag `(run, k)` at every replica.
        run: u64,
        /// Chunks to append, in order (shared retransmit buffer).
        chunks: ChunkRun,
    },
    /// Remove up to `max_n` chunks of origin stream `origin`
    /// ([`StorageNode::remove_from_batch`]).
    RemoveBatch {
        /// Target bag.
        bag: BagId,
        /// Origin stream to read.
        origin: u32,
        /// Maximum chunks to remove.
        max_n: usize,
    },
    /// Sample `bag`'s state at this node ([`StorageNode::sample`]).
    Sample {
        /// Target bag.
        bag: BagId,
    },
    /// Copy every chunk of `bag` whose origin is `origin`
    /// ([`StorageNode::snapshot_from`]).
    SnapshotFrom {
        /// Target bag.
        bag: BagId,
        /// Origin stream to copy.
        origin: u32,
    },
    /// Seal `bag` against inserts ([`StorageNode::seal`]).
    Seal {
        /// Target bag.
        bag: BagId,
    },
    /// Rewind `bag`'s read pointers ([`StorageNode::rewind`]).
    Rewind {
        /// Target bag.
        bag: BagId,
    },
    /// Discard `bag`'s contents and reopen it ([`StorageNode::discard`]).
    Discard {
        /// Target bag.
        bag: BagId,
    },
    /// Garbage-collect `bag` ([`StorageNode::collect`]).
    Collect {
        /// Target bag.
        bag: BagId,
    },
    /// Liveness probe; answered with [`StorageResponse::Pong`].
    Ping,
    /// Mark identities consumed and learn which already were
    /// ([`StorageNode::claim_consumed`]). Two senders: the pointer mirror
    /// a serving replica's remove fans out to the rest of the replica
    /// set (its echo is ignored), and the reconciliation step a reader
    /// runs against replicas that answered empty before another replica
    /// served it chunks, so a concurrent serve of the same chunks
    /// elsewhere is detected instead of double-delivered.
    ClaimConsumed {
        /// Target bag.
        bag: BagId,
        /// Origin stream the claimed chunks belong to.
        origin: u32,
        /// Identity of the chunks about to be delivered.
        tags: Vec<TagSegment>,
    },
}

impl StorageRequest {
    /// Whether re-executing this request is harmless.
    ///
    /// Idempotent requests may be retried (and even executed twice by a
    /// duplicated envelope) without changing the outcome; non-idempotent
    /// ones must pass through the server's dedup window ([`ServerDedup`])
    /// so a retransmission replays the first execution's result instead of
    /// executing again. The classification is deliberately conservative:
    /// `Rewind` / `Discard` / `Collect` are idempotent *with themselves*
    /// but not commutative with interleaved removes (a delayed duplicate
    /// `Rewind` arriving after fresh removes would resurrect consumed
    /// chunks), so they are classified non-idempotent and deduplicated.
    /// `ClaimConsumed` is likewise identity-idempotent with itself but a
    /// delayed duplicate arriving after a `Rewind` would re-consume the
    /// resurrected chunks, so it stays deduplicated too.
    pub fn is_idempotent(&self) -> bool {
        match self {
            StorageRequest::InsertBatch { .. }
            | StorageRequest::RemoveBatch { .. }
            | StorageRequest::ClaimConsumed { .. }
            | StorageRequest::Rewind { .. }
            | StorageRequest::Discard { .. }
            | StorageRequest::Collect { .. } => false,
            StorageRequest::Sample { .. }
            | StorageRequest::SnapshotFrom { .. }
            | StorageRequest::Seal { .. }
            | StorageRequest::Ping => true,
        }
    }
}

/// The success payload of one [`StorageRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageResponse {
    /// Acknowledges [`StorageRequest::InsertBatch`].
    Inserted,
    /// Answers [`StorageRequest::RemoveBatch`].
    Removed(NodeRemoveBatch),
    /// Answers [`StorageRequest::Sample`].
    Sampled(BagSample),
    /// Answers [`StorageRequest::SnapshotFrom`].
    Chunks(Vec<Chunk>),
    /// Acknowledges a lifecycle request (seal / rewind / discard / collect).
    Done,
    /// Answers [`StorageRequest::Ping`].
    Pong,
    /// Answers [`StorageRequest::ClaimConsumed`]: the sub-segments of
    /// the claimed tags that were already consumed at the node.
    Claimed(Vec<TagSegment>),
}

/// A request tagged with its client-assigned correlation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Correlation id: one per logical request on its connection (a
    /// slab slot and that slot's generation). A retransmission sends the
    /// same envelope again, this id included, so the reply to any copy
    /// completes the request.
    pub id: u64,
    /// Process-unique client identity, assigned per [`NodeConnection`] —
    /// the namespace of the server's dedup window.
    pub client: u64,
    /// Client-assigned request sequence number, stable across
    /// retransmissions of the same logical request. `(client, seq)` is the
    /// key the server deduplicates non-idempotent requests on.
    pub seq: u64,
    /// The operation.
    pub request: StorageRequest,
}

/// A reply carrying the correlation id of the request it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyEnvelope {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Outcome of the operation at the server.
    pub result: Result<StorageResponse, StorageError>,
}

/// Executes one request against a node. This is the *entire* server-side
/// semantics: a network server deserializes an envelope, calls this, and
/// serializes the reply.
pub fn dispatch(
    node: &StorageNode,
    request: StorageRequest,
) -> Result<StorageResponse, StorageError> {
    match request {
        StorageRequest::InsertBatch {
            bag,
            origin,
            run,
            chunks,
        } => node
            .insert_run(bag, &chunks, origin, run)
            .map(|()| StorageResponse::Inserted),
        StorageRequest::RemoveBatch { bag, origin, max_n } => node
            .remove_from_batch(bag, origin, max_n)
            .map(StorageResponse::Removed),
        StorageRequest::Sample { bag } => node.sample(bag).map(StorageResponse::Sampled),
        StorageRequest::SnapshotFrom { bag, origin } => {
            node.snapshot_from(bag, origin).map(StorageResponse::Chunks)
        }
        StorageRequest::Seal { bag } => node.seal(bag).map(|()| StorageResponse::Done),
        StorageRequest::Rewind { bag } => node.rewind(bag).map(|()| StorageResponse::Done),
        StorageRequest::Discard { bag } => node.discard(bag).map(|()| StorageResponse::Done),
        StorageRequest::Collect { bag } => node.collect(bag).map(|()| StorageResponse::Done),
        StorageRequest::Ping => Ok(StorageResponse::Pong),
        StorageRequest::ClaimConsumed { bag, origin, tags } => node
            .claim_consumed(bag, origin, &tags)
            .map(StorageResponse::Claimed),
    }
}

/// Completed dedup entries retained per client. Retransmissions arrive
/// within [`REQUEST_ATTEMPTS`] × timeout of the original, during which a
/// healthy client completes far fewer than this many later requests
/// (writer credit bounds it at [`DEFAULT_WRITER_CREDIT`] in flight).
const DEDUP_WINDOW: usize = 256;

/// Client windows retained per node server before the least recently
/// active client is evicted wholesale.
const DEDUP_MAX_CLIENTS: usize = 256;

/// What [`ServerDedup::begin`] decided about an arriving envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served {
    /// First sighting of `(client, seq)`: execute the request, then record
    /// the outcome with [`ServerDedup::complete`].
    Execute,
    /// A retransmission of a completed request: reply with the first
    /// execution's recorded outcome, do NOT execute again.
    Replayed(Result<StorageResponse, StorageError>),
    /// A duplicate racing the original's in-progress execution (another
    /// dispatch thread holds it): drop the envelope without replying — the
    /// client retransmits after its timeout and hits the replay path.
    Suppressed,
}

/// One request's state in a client's dedup window.
#[derive(Debug)]
enum DedupEntry {
    /// Execution in progress on some dispatch thread.
    Running,
    /// Execution finished with this outcome. Errors are cached too: the
    /// first execution's outcome is THE outcome of the request, and a
    /// retransmission must not get a second roll of the dice.
    Done(Result<StorageResponse, StorageError>),
}

#[derive(Debug, Default)]
struct ClientWindow {
    entries: HashMap<u64, DedupEntry>,
    /// Completed seqs in completion order, for window eviction.
    completed: std::collections::VecDeque<u64>,
    /// Last-activity stamp for whole-client LRU eviction.
    stamp: u64,
}

/// Server-side duplicate suppression for non-idempotent requests: a
/// bounded per-client window of `(seq → outcome)` entries.
///
/// The client reuses one sequence number across every retransmission of a
/// logical request (see [`NodeConnection`]), so whichever copy
/// arrives first executes and every later copy is answered from the
/// window ([`Served::Replayed`]) or dropped while the first is still
/// running ([`Served::Suppressed`]). This is what makes a timed-out
/// `InsertBatch` safe to send again — a duplicated or retransmitted
/// envelope can never double-insert — and what lets a lost `RemoveBatch`
/// be sent again without losing the chunks the original may have
/// consumed (the recorded reply carries them).
///
/// The window is part of the node's durable state in the same sense as
/// its chunk logs: a simulated crash/restart ([`StorageNode::fail`] /
/// [`StorageNode::recover`], or the faultsim crate's message-level crash)
/// keeps it, modeling a write-ahead-logged window on disk.
#[derive(Debug, Default)]
pub struct ServerDedup {
    inner: Mutex<DedupInner>,
}

#[derive(Debug, Default)]
struct DedupInner {
    clients: HashMap<u64, ClientWindow>,
    clock: u64,
}

impl ServerDedup {
    /// Creates an empty window set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies an arriving `(client, seq)` pair. On [`Served::Execute`]
    /// the caller owns the execution and must call
    /// [`ServerDedup::complete`] with the outcome.
    pub fn begin(&self, client: u64, seq: u64) -> Served {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if !inner.clients.contains_key(&client) && inner.clients.len() >= DEDUP_MAX_CLIENTS {
            // Evict the least recently active client wholesale.
            if let Some((&oldest, _)) = inner.clients.iter().min_by_key(|(_, w)| w.stamp) {
                inner.clients.remove(&oldest);
            }
        }
        let window = inner.clients.entry(client).or_default();
        window.stamp = stamp;
        match window.entries.get(&seq) {
            Some(DedupEntry::Running) => Served::Suppressed,
            Some(DedupEntry::Done(result)) => Served::Replayed(result.clone()),
            None => {
                window.entries.insert(seq, DedupEntry::Running);
                Served::Execute
            }
        }
    }

    /// Records the outcome of an execution admitted by
    /// [`ServerDedup::begin`], evicting the oldest completed entries
    /// beyond the window bound.
    pub fn complete(&self, client: u64, seq: u64, result: &Result<StorageResponse, StorageError>) {
        let mut inner = self.inner.lock();
        let Some(window) = inner.clients.get_mut(&client) else {
            // The whole client window was LRU-evicted mid-execution;
            // nothing to record (a late duplicate would re-execute, which
            // the eviction bound accepts as out-of-window).
            return;
        };
        window.entries.insert(seq, DedupEntry::Done(result.clone()));
        window.completed.push_back(seq);
        while window.completed.len() > DEDUP_WINDOW {
            if let Some(old) = window.completed.pop_front() {
                window.entries.remove(&old);
            }
        }
    }
}

/// How [`serve_deduped_traced`] handled an envelope — the observable
/// server-side classification, used by fault-injection harnesses to
/// assert that a duplicated envelope was resolved by the dedup window
/// rather than executed again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedKind {
    /// Idempotent request: dispatched directly, no dedup bookkeeping.
    Idempotent,
    /// First delivery of a non-idempotent request: executed and recorded.
    Executed,
    /// Retransmission of a completed request: recorded outcome replayed.
    Replayed,
    /// Duplicate racing a still-running execution: dropped without reply.
    Suppressed,
}

/// Executes one envelope against a node with duplicate suppression: the
/// full server-side semantics of the retry-safe protocol. Idempotent
/// requests dispatch directly; non-idempotent ones pass through `dedup`
/// so retransmissions replay the recorded outcome. Returns `None` when
/// the envelope must be dropped without a reply ([`Served::Suppressed`]).
pub fn serve_deduped(
    node: &StorageNode,
    dedup: &ServerDedup,
    env: RequestEnvelope,
) -> Option<ReplyEnvelope> {
    serve_deduped_traced(node, dedup, env).0
}

/// [`serve_deduped`] also reporting how the envelope was classified.
pub fn serve_deduped_traced(
    node: &StorageNode,
    dedup: &ServerDedup,
    env: RequestEnvelope,
) -> (Option<ReplyEnvelope>, ServedKind) {
    let RequestEnvelope {
        id,
        client,
        seq,
        request,
    } = env;
    if request.is_idempotent() {
        let result = dispatch(node, request);
        return (Some(ReplyEnvelope { id, result }), ServedKind::Idempotent);
    }
    match dedup.begin(client, seq) {
        Served::Replayed(result) => (Some(ReplyEnvelope { id, result }), ServedKind::Replayed),
        Served::Suppressed => (None, ServedKind::Suppressed),
        Served::Execute => {
            let result = dispatch(node, request);
            dedup.complete(client, seq, &result);
            (Some(ReplyEnvelope { id, result }), ServedKind::Executed)
        }
    }
}

/// One bidirectional connection to one storage node.
///
/// `send` must not block on the server (enqueue and return); receives are
/// polled. Implementations map their transport's failure modes onto
/// [`StorageError::Disconnected`].
pub trait Transport: Send {
    /// The node this connection addresses.
    fn node(&self) -> StorageNodeId;

    /// Enqueues a request. Fails only when the server side is gone.
    fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError>;

    /// Returns the next buffered reply, if any, without blocking.
    fn try_recv(&mut self) -> Option<ReplyEnvelope>;

    /// Waits up to `timeout` for the next reply.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<ReplyEnvelope>;
}

/// A request on the wire of the channel transport: the envelope plus the
/// sending connection's reply lane (the in-process stand-in for "the
/// socket the request arrived on").
struct WireRequest {
    env: RequestEnvelope,
    reply_tx: Sender<ReplyEnvelope>,
}

/// What flows through a node server's request queue.
enum WireMsg {
    /// A client request to dispatch.
    Request(WireRequest),
    /// The circulating shutdown token: exactly one exists per shutdown.
    /// The receiving worker drains the queue, hands the token to the next
    /// worker, and exits — prompt, drained teardown with no flag polling.
    Shutdown,
}

/// The crossbeam-channel [`Transport`]: an unbounded request lane shared
/// with the node's server pool and a private reply lane.
pub struct ChannelTransport {
    node: StorageNodeId,
    req_tx: Sender<WireMsg>,
    reply_tx: Sender<ReplyEnvelope>,
    reply_rx: Receiver<ReplyEnvelope>,
}

impl Transport for ChannelTransport {
    fn node(&self) -> StorageNodeId {
        self.node
    }

    fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError> {
        self.req_tx
            .send(WireMsg::Request(WireRequest {
                env,
                reply_tx: self.reply_tx.clone(),
            }))
            .map_err(|_| StorageError::Disconnected(self.node))
    }

    fn try_recv(&mut self) -> Option<ReplyEnvelope> {
        self.reply_rx.try_recv().ok()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<ReplyEnvelope> {
        self.reply_rx.recv_timeout(timeout).ok()
    }
}

/// The serving side of one storage node: a pool of dispatch threads
/// draining a shared request queue into the node.
pub struct NodeServerHandle {
    node: Arc<StorageNode>,
    req_tx: Sender<WireMsg>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl NodeServerHandle {
    /// Starts serving `node` on `dispatch_threads` loop threads.
    ///
    /// # Panics
    ///
    /// Panics if `dispatch_threads` is zero.
    pub fn spawn(node: Arc<StorageNode>, dispatch_threads: usize) -> Self {
        assert!(dispatch_threads > 0, "a server needs at least one thread");
        let (req_tx, req_rx) = unbounded::<WireMsg>();
        // One dedup window shared by the whole pool: duplicates racing on
        // different dispatch threads serialize on its lock, never on the
        // node.
        let dedup = Arc::new(ServerDedup::new());
        let workers = (0..dispatch_threads)
            .map(|i| {
                let node = node.clone();
                let dedup = dedup.clone();
                let req_rx = req_rx.clone();
                let req_tx = req_tx.clone();
                std::thread::Builder::new()
                    .name(format!("storage-rpc-{}-{i}", node.id()))
                    .spawn(move || server_loop(&node, &dedup, &req_rx, &req_tx))
                    .expect("spawning storage rpc server thread")
            })
            .collect();
        Self {
            node,
            req_tx,
            workers: Mutex::new(workers),
        }
    }

    /// The node being served.
    pub fn node(&self) -> &Arc<StorageNode> {
        &self.node
    }

    /// Opens a new connection to this server. Connections are cheap: a
    /// clone of the request lane plus a private reply lane.
    pub fn connect(&self) -> ChannelTransport {
        let (reply_tx, reply_rx) = unbounded();
        ChannelTransport {
            node: self.node.id(),
            req_tx: self.req_tx.clone(),
            reply_tx,
            reply_rx,
        }
    }

    /// Stops the server, *draining* first: every request submitted before
    /// the loops exit is dispatched and answered. After this returns,
    /// client sends fail with [`StorageError::Disconnected`].
    pub fn shutdown(&self) {
        // One shutdown token circulates worker to worker; the last one
        // drops it into a dead channel.
        let _ = self.req_tx.send(WireMsg::Shutdown);
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for NodeServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn server_loop(
    node: &StorageNode,
    dedup: &ServerDedup,
    req_rx: &Receiver<WireMsg>,
    req_tx: &Sender<WireMsg>,
) {
    loop {
        match req_rx.recv() {
            Ok(WireMsg::Request(w)) => serve_one(node, dedup, w),
            Ok(WireMsg::Shutdown) => {
                // Drain: answer everything already in the queue, then pass
                // the token(s) on and exit. Requests submitted after the
                // queue empties race the disconnect and fail at the
                // client's next send. Tokens drained alongside requests
                // (e.g. concurrent shutdown calls) are forwarded too, so
                // every remaining worker still gets its wake-up.
                let mut tokens = 1usize;
                while let Ok(m) = req_rx.try_recv() {
                    match m {
                        WireMsg::Request(w) => serve_one(node, dedup, w),
                        WireMsg::Shutdown => tokens += 1,
                    }
                }
                for _ in 0..tokens {
                    let _ = req_tx.send(WireMsg::Shutdown);
                }
                return;
            }
            Err(_) => return,
        }
    }
}

fn serve_one(node: &StorageNode, dedup: &ServerDedup, w: WireRequest) {
    // A send failure means the requesting client is gone; the work is
    // already done (storage ops are not transactional), so just drop it.
    if let Some(reply) = serve_deduped(node, dedup, w.env) {
        let _ = w.reply_tx.send(reply);
    }
}

/// A client-held handle for one in-flight request.
///
/// Tokens are minted by [`NodeConnection::submit`] and redeemed — in any
/// order — with [`NodeConnection::wait`] or [`NodeConnection::try_poll`].
/// The id encodes a slab slot index in the low 32 bits and that slot's
/// generation in the high 32, so slot reuse can never confuse a stale
/// reply with a fresh request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionToken {
    id: u64,
}

impl CompletionToken {
    /// The correlation id this token tracks.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One reusable correlation slot in a connection's slab.
#[derive(Debug)]
struct Slot {
    /// Bumped on every allocation and on abandonment, so an id is never
    /// valid across two uses of the same slot.
    generation: u32,
    state: SlotState,
}

#[derive(Debug)]
enum SlotState {
    /// Free for reuse.
    Vacant,
    /// Request on the wire, no reply yet.
    Pending(Sent),
    /// Reply parked, waiting for its token to claim it.
    Ready(Result<StorageResponse, StorageError>),
}

/// What a pending slot put on the wire: everything a retransmission
/// sends again.
#[derive(Debug)]
struct Sent {
    request: StorageRequest,
    seq: u64,
    /// When the current attempt went on the wire.
    at: Instant,
    /// Attempts made so far, `1..=REQUEST_ATTEMPTS`.
    attempt: u32,
}

/// How many times a request goes on the wire before its token gives up
/// with [`StorageError::Timeout`]: the first send and seven
/// retransmissions, each after one request timeout without a reply. A
/// node that stays silent therefore holds a synchronous call for
/// `REQUEST_ATTEMPTS` timeouts — 80 s at [`DEFAULT_REQUEST_TIMEOUT`] —
/// before the caller sees `Timeout`. A submit blocked on writer credit
/// is not retransmitted and gives up after one timeout.
pub const REQUEST_ATTEMPTS: u32 = 8;

/// How long one pump slice lasts while a submit waits for writer credit.
const CREDIT_PUMP_SLICE: Duration = Duration::from_micros(200);

/// Mints process-unique client identities for [`NodeConnection`]s — the
/// namespace of server-side dedup windows.
static NEXT_CLIENT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The correlation layer over one [`Transport`], built on a **slab** of
/// reusable token slots instead of per-request map entries: a steady
/// request stream allocates nothing after warm-up, and matching a reply
/// is an index plus a generation compare. The slab also enforces the
/// per-connection **writer credit**: once `credit` requests are on the
/// wire unanswered, [`NodeConnection::submit`] becomes a blocking acquire
/// (pumping replies while it waits) instead of growing the lane — the
/// flow-control bound a stalled node is held to.
///
/// The connection owns retransmission. A pending slot keeps the request
/// it sent, and redeeming its token ([`NodeConnection::wait`] or
/// [`NodeConnection::try_poll`]) applies one rule: an attempt that sees
/// no reply within the connection's timeout sends the **same envelope**
/// again — same `id`, same `seq` — up to [`REQUEST_ATTEMPTS`] in all,
/// after which the slot is abandoned and the call returns
/// [`StorageError::Timeout`]. The server's dedup window ([`ServerDedup`])
/// resolves the copies to at most one execution, and whichever copy's
/// reply arrives first completes the token, because a reply is parked
/// only in a pending slot of the same generation. Retransmissions go to
/// the same node by construction — rerouting a timed-out non-idempotent
/// request elsewhere would escape its dedup window.
pub struct NodeConnection {
    transport: Box<dyn Transport>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Tokens minted but not yet redeemed or abandoned.
    unredeemed: usize,
    /// Pending slots: requests sent whose replies have not been
    /// received (what the server-side lane can be holding); the quantity
    /// credit bounds. A retransmission does not add to it.
    on_wire: usize,
    credit: usize,
    /// How long one attempt waits for its reply, and how long a credit
    /// acquire may block before surfacing `Timeout`.
    timeout: Duration,
    /// Total envelopes ever sent, retransmissions included — the counter
    /// the coalescing benchmarks and tests read.
    requests_sent: u64,
    /// Process-unique identity carried in every envelope: the namespace
    /// of the server's dedup window.
    client_id: u64,
    /// Next request sequence number. Allocated once per logical request
    /// and carried by every retransmission of it.
    next_seq: u64,
}

impl NodeConnection {
    /// Wraps `transport` in a fresh correlation space with the default
    /// writer credit.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        Self::with_credit(transport, DEFAULT_WRITER_CREDIT)
    }

    /// Wraps `transport` with an explicit writer credit (outstanding
    /// on-wire request budget).
    ///
    /// # Panics
    ///
    /// Panics if `credit` is zero: a connection that can never send is
    /// meaningless.
    pub fn with_credit(transport: Box<dyn Transport>, credit: usize) -> Self {
        assert!(credit > 0, "writer credit must be at least 1");
        Self {
            transport,
            slots: Vec::new(),
            free: Vec::new(),
            unredeemed: 0,
            on_wire: 0,
            credit,
            timeout: DEFAULT_REQUEST_TIMEOUT,
            requests_sent: 0,
            client_id: NEXT_CLIENT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            next_seq: 0,
        }
    }

    /// The node this connection addresses.
    pub fn node(&self) -> StorageNodeId {
        self.transport.node()
    }

    /// Number of requests submitted but not yet redeemed or abandoned.
    pub fn outstanding(&self) -> usize {
        self.unredeemed
    }

    /// Requests currently on the wire (sent, reply not yet received).
    pub fn on_wire(&self) -> usize {
        self.on_wire
    }

    /// Re-bounds the writer credit.
    ///
    /// # Panics
    ///
    /// Panics if `credit` is zero.
    pub fn set_credit(&mut self, credit: usize) {
        assert!(credit > 0, "writer credit must be at least 1");
        self.credit = credit;
    }

    /// Sets the request timeout (default [`DEFAULT_REQUEST_TIMEOUT`]):
    /// how long each attempt of a request waits for its reply before the
    /// envelope is sent again, and how long a credit acquire may block
    /// before surfacing [`StorageError::Timeout`]. A request to a silent
    /// node fails after [`REQUEST_ATTEMPTS`] times this.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Total envelopes ever sent on this connection, retransmissions
    /// included.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Blocks until the on-wire count drops below the credit, pumping
    /// replies while waiting. A node that answers nothing within the
    /// timeout surfaces as [`StorageError::Timeout`] — the backpressure
    /// contract: a stalled node blocks (then fails) the writer instead
    /// of accumulating unbounded lane queue.
    fn acquire_credit(&mut self) -> Result<(), StorageError> {
        if self.on_wire < self.credit {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        while self.on_wire >= self.credit {
            let now = Instant::now();
            if now >= deadline {
                return Err(StorageError::Timeout(self.node()));
            }
            if let Some(reply) = self
                .transport
                .recv_timeout((deadline - now).min(CREDIT_PUMP_SLICE))
            {
                self.park(reply);
            }
        }
        Ok(())
    }

    /// Sends `request` without waiting, returning its completion token.
    /// Blocks first if the writer credit is exhausted (see
    /// [`NodeConnection::with_credit`]). The slot keeps the request, so
    /// the token's redemption can send it again.
    pub fn submit(&mut self, request: StorageRequest) -> Result<CompletionToken, StorageError> {
        self.acquire_credit()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state: SlotState::Vacant,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        let id = u64::from(idx) | (u64::from(slot.generation) << 32);
        slot.state = SlotState::Pending(Sent {
            request,
            seq,
            at: Instant::now(),
            attempt: 1,
        });
        match self.send(id) {
            Ok(()) => {
                self.unredeemed += 1;
                self.on_wire += 1;
                Ok(CompletionToken { id })
            }
            Err(e) => {
                self.slots[idx as usize].state = SlotState::Vacant;
                self.free.push(idx);
                Err(e)
            }
        }
    }

    /// Puts pending slot `id`'s envelope on the wire: its `id`, the
    /// connection's client identity, its `seq` and a copy of its request.
    fn send(&mut self, id: u64) -> Result<(), StorageError> {
        let Some(Slot {
            state: SlotState::Pending(sent),
            ..
        }) = self.slots.get((id & u64::from(u32::MAX)) as usize)
        else {
            unreachable!("only a pending slot is sent");
        };
        self.transport.send(RequestEnvelope {
            id,
            client: self.client_id,
            seq: sent.seq,
            request: sent.request.clone(),
        })?;
        self.requests_sent += 1;
        Ok(())
    }

    /// The slot `id` names, if its generation still matches.
    fn slot_mut(&mut self, id: u64) -> Option<&mut Slot> {
        let generation = (id >> 32) as u32;
        self.slots
            .get_mut((id & u64::from(u32::MAX)) as usize)
            .filter(|slot| slot.generation == generation)
    }

    /// Parks `reply` in its slot if that slot is still pending under the
    /// reply's generation. Anything else — the reply to an abandoned or
    /// reused slot, or a second copy's reply after the first completed
    /// the request — is dropped.
    fn park(&mut self, reply: ReplyEnvelope) {
        if let Some(slot) = self.slot_mut(reply.id) {
            if matches!(slot.state, SlotState::Pending(_)) {
                slot.state = SlotState::Ready(reply.result);
                self.on_wire -= 1;
            }
        }
    }

    /// Parks every reply already received, then claims `id`'s if it is
    /// there.
    fn claim(&mut self, id: u64) -> Option<Result<StorageResponse, StorageError>> {
        while let Some(reply) = self.transport.try_recv() {
            self.park(reply);
        }
        let slot = self.slot_mut(id)?;
        if !matches!(slot.state, SlotState::Ready(_)) {
            return None;
        }
        let SlotState::Ready(result) = std::mem::replace(&mut slot.state, SlotState::Vacant) else {
            unreachable!("checked Ready above");
        };
        self.free.push((id & u64::from(u32::MAX)) as u32);
        self.unredeemed -= 1;
        Some(result)
    }

    /// Gives up on `id`: frees its slot (bumping the generation so a late
    /// reply dies on the mismatch) and returns its credit.
    fn abandon(&mut self, id: u64) {
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        if matches!(slot.state, SlotState::Pending(_)) {
            slot.state = SlotState::Vacant;
            slot.generation = slot.generation.wrapping_add(1);
            self.unredeemed -= 1;
            self.on_wire -= 1;
            self.free.push((id & u64::from(u32::MAX)) as u32);
        }
    }

    /// What is left of the current attempt of pending `id`; zero for a
    /// token that names no pending slot.
    fn remaining(&mut self, id: u64) -> Duration {
        let timeout = self.timeout;
        match self.slot_mut(id) {
            Some(Slot {
                state: SlotState::Pending(sent),
                ..
            }) => timeout.saturating_sub(sent.at.elapsed()),
            _ => Duration::ZERO,
        }
    }

    /// The current attempt of `id` saw no reply in time: sends the same
    /// envelope again, or — after the last attempt, or when the send
    /// fails — abandons the request and returns
    /// [`StorageError::Timeout`].
    ///
    /// A failed retransmission is a `Timeout` too, never the transport's
    /// `Disconnected`: the first copy left, so the node may have executed
    /// it before the connection died, and the port re-routes a
    /// `Disconnected` insert to another replica group — which would land
    /// the run twice once the dead node recovers its log. Only a first
    /// send that fails ([`NodeConnection::submit`]) means "never sent".
    fn expire(&mut self, id: u64) -> Result<(), StorageError> {
        let node = self.node();
        match self.slot_mut(id) {
            Some(Slot {
                state: SlotState::Pending(sent),
                ..
            }) if sent.attempt < REQUEST_ATTEMPTS => {
                sent.attempt += 1;
                sent.at = Instant::now();
            }
            _ => {
                self.abandon(id);
                return Err(StorageError::Timeout(node));
            }
        }
        self.send(id).map_err(|_| {
            self.abandon(id);
            StorageError::Timeout(node)
        })
    }

    /// Non-blocking completion check. `Ok(None)` means the reply has not
    /// arrived yet; `Err` carries the server's error reply, or
    /// [`StorageError::Timeout`] once every attempt timed out or a
    /// retransmission could not be sent. A check past the current
    /// attempt's timeout retransmits (see [`NodeConnection`]).
    pub fn try_poll(
        &mut self,
        token: CompletionToken,
    ) -> Result<Option<StorageResponse>, StorageError> {
        if let Some(result) = self.claim(token.id) {
            return result.map(Some);
        }
        if self.remaining(token.id).is_zero() {
            self.expire(token.id)?;
        }
        Ok(None)
    }

    /// Blocks until `token`'s reply arrives, retransmitting after each
    /// attempt that times out (see [`NodeConnection`]). After the last
    /// attempt the request is *abandoned* — its outcome is unknown and a
    /// late reply is discarded — and the call returns
    /// [`StorageError::Timeout`].
    pub fn wait(&mut self, token: CompletionToken) -> Result<StorageResponse, StorageError> {
        loop {
            if let Some(result) = self.claim(token.id) {
                return result;
            }
            let left = self.remaining(token.id);
            // A transport that returns empty-handed before the budget
            // ends has nothing coming for this attempt: a simulated
            // network whose virtual clock ran the budget out, or a closed
            // connection, whose retransmission then fails and ends the
            // wait with `Timeout` (see `expire`).
            if left.is_zero() || !self.pump(left) {
                self.expire(token.id)?;
            }
        }
    }

    /// Waits up to `timeout` for *any* reply to arrive and parks it for
    /// its token to claim. Returns whether one arrived. Unlike
    /// [`NodeConnection::wait`], nothing is retransmitted or abandoned —
    /// this is the blocking primitive for pipelines polling many tokens.
    pub fn pump(&mut self, timeout: Duration) -> bool {
        match self.transport.recv_timeout(timeout) {
            Some(reply) => {
                self.park(reply);
                true
            }
            None => false,
        }
    }

    /// Synchronous convenience: [`NodeConnection::submit`] then
    /// [`NodeConnection::wait`].
    pub fn call(&mut self, request: StorageRequest) -> Result<StorageResponse, StorageError> {
        let token = self.submit(request)?;
        self.wait(token)
    }
}

/// A [`Transport`] for colocated compute and storage: the full message
/// protocol (envelopes, correlation ids, one reply per request) with the
/// dispatch executed inline on the sending thread — no server threads, no
/// scheduler round-trip. `send` runs the request against the node and
/// queues the reply; receives pop it.
///
/// This is the transport to use when the "remote" node lives in the same
/// process and the caller does not need genuine request concurrency (the
/// prefetcher's pipeline degenerates to eager execution). It exists so
/// the RPC boundary costs nearly nothing in colocated deployments: the
/// architectural seam stays, the context switches go.
pub struct InlineTransport {
    node: Arc<StorageNode>,
    dedup: ServerDedup,
    replies: std::collections::VecDeque<ReplyEnvelope>,
}

impl InlineTransport {
    /// Creates a transport dispatching directly into `node`.
    pub fn new(node: Arc<StorageNode>) -> Self {
        Self {
            node,
            dedup: ServerDedup::new(),
            replies: std::collections::VecDeque::new(),
        }
    }
}

impl Transport for InlineTransport {
    fn node(&self) -> StorageNodeId {
        self.node.id()
    }

    fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError> {
        // Same server semantics as the threaded pool, dedup included, so
        // the inline path stays protocol-identical.
        if let Some(reply) = serve_deduped(&self.node, &self.dedup, env) {
            self.replies.push_back(reply);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<ReplyEnvelope> {
        self.replies.pop_front()
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Option<ReplyEnvelope> {
        // Replies are produced synchronously by `send`: if none is queued
        // now, none will ever arrive — don't block.
        self.replies.pop_front()
    }
}

/// A [`crate::membership::Connect`] that dials an in-process node with an
/// [`InlineTransport`]. [`StorageCluster`] keeps one per node in the
/// membership every inline port is built over.
pub struct InlineConnector {
    node: Arc<StorageNode>,
}

impl InlineConnector {
    /// A connector dispatching into `node` on the caller's thread.
    pub fn new(node: Arc<StorageNode>) -> Self {
        Self { node }
    }
}

impl crate::membership::Connect for InlineConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
        Ok(Box::new(InlineTransport::new(self.node.clone())))
    }
}

/// The placeholder connection for a membership member whose dial failed:
/// behaves exactly like a connection whose peer died mid-conversation —
/// every send reports [`StorageError::Disconnected`], so replica
/// failover and insert rerouting route around the slot while `conns[i]`
/// ↔ member `i` alignment is preserved. Replaced with a live connection
/// when a later epoch-moving refresh re-dials the member successfully.
struct DeadTransport {
    node: StorageNodeId,
}

impl Transport for DeadTransport {
    fn node(&self) -> StorageNodeId {
        self.node
    }

    fn send(&mut self, _env: RequestEnvelope) -> Result<(), StorageError> {
        Err(StorageError::Disconnected(self.node))
    }

    fn try_recv(&mut self) -> Option<ReplyEnvelope> {
        None
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Option<ReplyEnvelope> {
        // Nothing was ever sent, so nothing will ever arrive — don't
        // block a caller draining pre-timeout replies.
        None
    }
}

/// A test / tooling server end created by [`loopback`]: receives the raw
/// envelopes a [`ChannelTransport`] sends and lets the caller reply in any
/// order — the seam for exercising correlation, timeouts, and slow
/// servers without threads.
pub struct LoopbackServer {
    req_rx: Receiver<WireMsg>,
    reply_lanes: HashMap<u64, Sender<ReplyEnvelope>>,
}

impl LoopbackServer {
    /// Receives the next request envelope, waiting up to `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Option<RequestEnvelope> {
        loop {
            match self.req_rx.recv_timeout(timeout).ok()? {
                WireMsg::Request(w) => {
                    self.reply_lanes.insert(w.env.id, w.reply_tx);
                    return Some(w.env);
                }
                WireMsg::Shutdown => continue,
            }
        }
    }

    /// Number of requests currently queued (sent but not yet received).
    pub fn queued(&self) -> usize {
        self.req_rx.len()
    }

    /// Replies to request `id`. Returns false if `id` was never received
    /// or the client is gone.
    pub fn reply(&mut self, id: u64, result: Result<StorageResponse, StorageError>) -> bool {
        match self.reply_lanes.remove(&id) {
            Some(tx) => tx.send(ReplyEnvelope { id, result }).is_ok(),
            None => false,
        }
    }
}

/// Creates a connected ([`ChannelTransport`], [`LoopbackServer`]) pair
/// with no server threads: the caller plays the server.
pub fn loopback(node: StorageNodeId) -> (ChannelTransport, LoopbackServer) {
    let (req_tx, req_rx) = unbounded();
    let (reply_tx, reply_rx) = unbounded();
    (
        ChannelTransport {
            node,
            req_tx,
            reply_tx,
            reply_rx,
        },
        LoopbackServer {
            req_rx,
            reply_lanes: HashMap::new(),
        },
    )
}

/// A [`crate::membership::Connect`] that dials an in-process
/// [`NodeServerHandle`]: connecting is a clone of the server's request
/// lane plus a private reply lane.
struct ChannelConnector {
    server: Arc<NodeServerHandle>,
}

impl crate::membership::Connect for ChannelConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
        Ok(Box::new(self.server.connect()))
    }
}

/// The channel plane's servers: one [`NodeServerHandle`] per storage
/// node, registered in an epoch-versioned [`crate::Membership`] that
/// [`crate::StorageEndpoint::channel`] mints its ports over.
///
/// The node set is **live**, not snapshotted: after
/// [`StorageCluster::add_node`], call [`StorageRpc::sync`] to serve the
/// new node and publish it in the membership — every existing port picks
/// it up at its next [`RpcPort::refresh_membership`] (clients and the
/// prefetcher refresh automatically), and newly minted ports see it
/// immediately.
pub struct StorageRpc {
    cluster: Arc<StorageCluster>,
    /// Server handles, kept for draining shutdown; `servers[i]` serves
    /// cluster node `i` and is also reachable through `membership`.
    servers: Mutex<Vec<Arc<NodeServerHandle>>>,
    membership: crate::membership::Membership,
    dispatch_threads: usize,
}

impl StorageRpc {
    /// Serves every node of `cluster` with `dispatch_threads` server
    /// threads per node.
    pub fn serve(cluster: Arc<StorageCluster>, dispatch_threads: usize) -> Self {
        let rpc = Self {
            cluster,
            servers: Mutex::new(Vec::new()),
            membership: crate::membership::Membership::new(),
            dispatch_threads,
        };
        rpc.sync();
        rpc
    }

    /// Serves every cluster node not yet served and publishes it in the
    /// membership — the call that makes [`StorageCluster::add_node`]
    /// visible to the channel plane. Idempotent; cheap when nothing
    /// changed.
    pub fn sync(&self) {
        let mut servers = self.servers.lock();
        for i in servers.len()..self.cluster.num_nodes() {
            let handle = Arc::new(NodeServerHandle::spawn(
                self.cluster.node(i),
                self.dispatch_threads,
            ));
            servers.push(handle.clone());
            self.membership
                .join(Arc::new(ChannelConnector { server: handle }));
        }
    }

    /// The live membership view ports refresh against.
    pub fn membership(&self) -> &crate::membership::Membership {
        &self.membership
    }

    /// Shuts every node server down (draining in-flight requests).
    pub fn shutdown(&self) {
        for s in self.servers.lock().iter() {
            s.shutdown();
        }
    }
}

/// Data-plane statistics of one [`RpcPort`] — what the coalescing tests
/// and microbenches read to assert envelope amortization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// `InsertBatch` envelopes put on the wire (including replica fan-out
    /// and reroute retries).
    pub insert_envelopes: u64,
    /// Chunks that passed through the insert coalescer's staging queues.
    pub staged_chunks: u64,
    /// Staged-data flushes (threshold-triggered or explicit).
    pub flushes: u64,
}

/// A per-owner data-plane handle: one connection per node plus the
/// cluster metadata. This is the one implementation of the replica-group
/// protocol — replication fan-out with backups-first ordering, fail-over,
/// empty-probe reconciliation, pointer mirroring, sealed-flag end-of-bag —
/// spoken as correlated messages over whatever transport the connections
/// wrap, with the cross-batch insert coalescer of the module docs in
/// front of the wire.
pub struct RpcPort {
    cluster: Arc<StorageCluster>,
    conns: Vec<NodeConnection>,
    timeout: Duration,
    /// The live node view this port refreshes against.
    membership: crate::membership::Membership,
    /// The membership epoch the connection set was last synced to.
    epoch_seen: u64,
    /// Indices whose member could not be dialed at the last sync; they
    /// hold dead placeholder connections (so `conns[i]` ↔ member `i`
    /// stays aligned and failover routes around them) and are re-dialed
    /// whenever the membership epoch moves.
    unreachable: Vec<usize>,
    /// Writer credit applied to connections opened by a refresh (set_*
    /// calls keep it in sync with the live connections).
    credit: usize,
    /// Coalesce window in chunks; `0` flushes every `insert_buckets` call
    /// (call-synchronous semantics, the default).
    coalesce_chunks: usize,
    /// Per-node staging queues: at most one pending run per (node, bag),
    /// in first-staged order, so one flush sends at most one envelope per
    /// (bag, origin) stream and can never reorder within it.
    staged: Vec<Vec<(BagId, Vec<Chunk>)>>,
    /// Chunks currently staged across all nodes.
    staged_len: usize,
    stats: PortStats,
}

/// An in-flight remove against one replica group: what
/// [`RpcPort::submit_remove`] hands back and [`RpcPort::poll_remove`]
/// finishes.
#[derive(Debug)]
pub(crate) struct RemoveProbe {
    primary: usize,
    bag: BagId,
    max_n: usize,
    /// Cluster sealed flag read before the submit (a retransmission is
    /// the same logical request, so it keeps the flag).
    sealed: bool,
    /// The request's token at the primary, or why it could not be sent.
    token: Result<CompletionToken, StorageError>,
}

impl RemoveProbe {
    fn request(&self) -> StorageRequest {
        StorageRequest::RemoveBatch {
            bag: self.bag,
            origin: self.primary as u32,
            max_n: self.max_n,
        }
    }
}

/// One run's progress through `RpcPort::land_runs`.
struct Landing {
    primary: usize,
    bag: BagId,
    run_id: u64,
    run: ChunkRun,
    /// Whether any replica acknowledged the run.
    landed: bool,
    /// The last replica that could not take part
    /// (`RpcPort::replica_unreachable`).
    soft_err: Option<StorageError>,
    /// Any other error, which fails the run.
    hard_err: Option<StorageError>,
}

impl Landing {
    /// The run's envelope body, the same at every replica.
    fn request(&self) -> StorageRequest {
        StorageRequest::InsertBatch {
            bag: self.bag,
            origin: self.primary as u32,
            run: self.run_id,
            chunks: self.run.clone(),
        }
    }

    fn outcome(self) -> Result<(), StorageError> {
        match self.hard_err {
            Some(e) => Err(e),
            None if self.landed => Ok(()),
            None => Err(self
                .soft_err
                .unwrap_or(StorageError::AllReplicasDown(self.bag))),
        }
    }
}

impl RpcPort {
    /// Builds a port whose every connection is an [`InlineTransport`]:
    /// the message protocol without server threads, for colocated
    /// compute and storage. The port is built over the cluster's own
    /// membership of inline connectors, so it follows
    /// [`StorageCluster::add_node`] at its next
    /// [`RpcPort::refresh_membership`] like any other plane's port.
    pub fn inline(cluster: Arc<StorageCluster>) -> Self {
        let membership = cluster.inline_membership().clone();
        Self::from_membership(cluster, membership, DEFAULT_REQUEST_TIMEOUT)
    }

    /// Builds a port over a live [`crate::Membership`]: one connection is
    /// dialed per current member, and [`RpcPort::refresh_membership`]
    /// extends the set when the membership grows. A member whose dial
    /// fails gets a dead placeholder connection — index alignment with
    /// the view is preserved, every operation on it reports
    /// [`StorageError::Disconnected`] (so replica failover and insert
    /// rerouting route around it), and it is re-dialed at the next
    /// epoch-moving refresh.
    pub fn from_membership(
        cluster: Arc<StorageCluster>,
        membership: crate::membership::Membership,
        timeout: Duration,
    ) -> Self {
        let mut port = Self {
            cluster,
            conns: Vec::new(),
            timeout,
            membership,
            epoch_seen: 0,
            unreachable: Vec::new(),
            credit: DEFAULT_WRITER_CREDIT,
            coalesce_chunks: 0,
            staged: Vec::new(),
            staged_len: 0,
            stats: PortStats::default(),
        };
        port.refresh_membership();
        port
    }

    /// Syncs the connection set with the attached membership: dials every
    /// member joined since the last sync, applying the port's credit and
    /// timeout to the new connections. Returns whether the port grew. A
    /// no-op (one atomic load) when the epoch has not moved, so callers
    /// poll it freely.
    pub fn refresh_membership(&mut self) -> bool {
        let epoch = self.membership.epoch();
        if epoch == self.epoch_seen {
            return false;
        }
        let members = self.membership.members();
        // The epoch moved, so the view changed: re-dial members that were
        // unreachable at an earlier sync (e.g. a process restarted behind
        // the same membership slot).
        let credit = self.credit;
        let timeout = self.timeout;
        let conns = &mut self.conns;
        self.unreachable.retain(|&idx| {
            let Ok(transport) = members[idx].connector.connect() else {
                return true;
            };
            let mut conn = NodeConnection::with_credit(transport, credit);
            conn.set_timeout(timeout);
            conns[idx] = conn;
            false
        });
        let mut grown = false;
        for (idx, member) in members.iter().enumerate().skip(self.conns.len()) {
            let mut conn = match member.connector.connect() {
                Ok(transport) => NodeConnection::with_credit(transport, self.credit),
                Err(_) => {
                    // Keep `conns[i]` ↔ member `i` alignment with a dead
                    // placeholder; failover treats it exactly like a node
                    // that died mid-conversation.
                    self.unreachable.push(idx);
                    NodeConnection::with_credit(
                        Box::new(DeadTransport { node: member.node }),
                        self.credit,
                    )
                }
            };
            conn.set_timeout(self.timeout);
            self.conns.push(conn);
            self.staged.push(Vec::new());
            grown = true;
        }
        self.epoch_seen = epoch;
        grown
    }

    /// Number of nodes this port can address.
    pub fn num_nodes(&self) -> usize {
        self.conns.len()
    }

    /// Sets the insert-coalescing window: buckets from successive
    /// [`RpcPort::insert_buckets`] calls are merged into per-node staging
    /// queues and flushed once `window_chunks` chunks are staged (or on
    /// [`RpcPort::flush`]). `0` (the default) flushes every call.
    ///
    /// Coalescing defers completion: staged chunks are durable — and
    /// errors for them surface — only at the next flush. Flush before
    /// sealing the bag or handing off to readers on other ports.
    pub fn set_coalescing(&mut self, window_chunks: usize) {
        self.coalesce_chunks = window_chunks;
    }

    /// The configured coalesce window (chunks; 0 = off).
    pub fn coalescing(&self) -> usize {
        self.coalesce_chunks
    }

    /// Sets the writer credit of every connection of this port (current
    /// and future: refresh-opened connections inherit it).
    pub fn set_writer_credit(&mut self, credit: usize) {
        self.credit = credit;
        for conn in &mut self.conns {
            conn.set_credit(credit);
        }
    }

    /// Data-plane statistics (envelope counts, staged chunks, flushes).
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Chunks currently staged and not yet flushed.
    pub fn staged_chunks(&self) -> usize {
        self.staged_len
    }

    /// Whether `e` marks a replica as unable to take part (fail over /
    /// reroute) rather than a hard protocol error: it is down, draining,
    /// disk-sick ([`StorageError::routes_around`]) or disconnected.
    ///
    /// `Disconnected` qualifies: a connection reports it only for a first
    /// send that never left, and server shutdown *drains* (every accepted
    /// request is answered before the loops exit), so a disconnect means
    /// the request was never executed and sending it elsewhere cannot
    /// duplicate it. `Timeout` deliberately does NOT: a request whose
    /// every attempt timed out, or whose connection died after the first
    /// copy left, has an unknown outcome — sending an insert
    /// elsewhere could duplicate chunks and a remove could lose them — so
    /// timeouts propagate as hard errors for the caller's recovery
    /// machinery (task restart) to handle.
    fn replica_unreachable(e: &StorageError) -> bool {
        e.routes_around() || matches!(e, StorageError::Disconnected(_))
    }

    /// Whether an insert error means "try the next replica group": the
    /// addressed one refused at every replica
    /// (`RpcPort::replica_unreachable`) or is wholly unreachable.
    /// Anything else (sealed, collected, codec, timeout) is a caller
    /// error and propagates.
    fn reroutes(e: &StorageError) -> bool {
        Self::replica_unreachable(e) || matches!(e, StorageError::AllReplicasDown(_))
    }

    /// Writes `chunks` as one run to the replica set of `primary_idx`
    /// (see `RpcPort::land_runs` for the fan-out). Succeeds if the run
    /// lands on at least one replica; a replica set that cannot take it
    /// is an error the caller may reroute. Flushes any staged coalesced
    /// inserts first, so the port's writes stay ordered across the two
    /// paths.
    pub fn insert_batch(
        &mut self,
        primary_idx: usize,
        bag: BagId,
        chunks: &[Chunk],
    ) -> Result<(), StorageError> {
        self.flush()?;
        self.ensure_unsealed(bag)?;
        if chunks.is_empty() {
            return Ok(());
        }
        let run = ChunkRun::from_slice(chunks);
        self.land_runs(&[(primary_idx, bag, run)]).remove(0)
    }

    /// The one insert fan-out: lands each of `runs` — `(primary, bag,
    /// chunks)`, at most one run per (bag, origin) — on its replica
    /// group and returns one outcome per run, in order. Every
    /// `InsertBatch` envelope of the data plane is submitted here, in two
    /// overlapped phases:
    ///
    /// 1. every backup envelope of every run, then every backup ack;
    /// 2. the primary envelope of every run whose backups raised no hard
    ///    error, then every primary ack.
    ///
    /// A run succeeds if it landed on at least one replica. A replica
    /// that cannot take part (`RpcPort::replica_unreachable`) is skipped;
    /// a run no replica took fails with that error (or
    /// [`StorageError::AllReplicasDown`]) for the caller to reroute, and
    /// any other error fails the run as is. Each run is the shared
    /// retransmit buffer of its envelopes — every envelope clones one
    /// refcount — and every replica receives the same freshly minted run
    /// id, so the chunks carry identical `(run, k)` identity tags at
    /// every replica. Bag-state checks are the caller's job (entry points
    /// and the coalescer check at staging time).
    ///
    /// Replicated writes keep two invariants:
    ///
    /// * **Backups before primary.** A chunk only becomes removable once
    ///   it lands at the primary; writing backups first means any remove
    ///   that wins the race finds the chunk already present at every
    ///   backup, so a failover after the primary's death can always
    ///   serve what the primary served from its own log.
    /// * **Per-(bag, origin) append order.** The call holds
    ///   [`StorageCluster::order_lock`] of every (bag, origin) it writes
    ///   across both phases, so concurrent writers' runs reach every
    ///   replica's origin stream in the same order. The locks are taken
    ///   in sorted (bag, origin) order, so two calls that share streams
    ///   cannot deadlock. Identity-tagged mirroring does not *require*
    ///   the order for correctness, but converged logs keep the mirror
    ///   scan O(batch) and failover positions exact.
    ///
    /// With replication = 1 there are no backups and no locks.
    fn land_runs(&mut self, runs: &[(usize, BagId, ChunkRun)]) -> Vec<Result<(), StorageError>> {
        let m = self.conns.len();
        let r = self.cluster.replication();
        let mut landings: Vec<Landing> = runs
            .iter()
            .map(|(primary, bag, run)| Landing {
                primary: primary % m,
                bag: *bag,
                run_id: next_run_id(),
                run: run.clone(),
                landed: false,
                soft_err: None,
                hard_err: None,
            })
            .collect();
        let mut streams: Vec<(BagId, u32)> = landings
            .iter()
            .filter(|_| r > 1)
            .map(|l| (l.bag, l.primary as u32))
            .collect();
        streams.sort_unstable();
        streams.dedup();
        debug_assert!(
            r == 1 || streams.len() == landings.len(),
            "one run per stream"
        );
        let locks: Vec<_> = streams
            .into_iter()
            .map(|(bag, origin)| self.cluster.order_lock(bag, origin))
            .collect();
        let _held: Vec<_> = locks.iter().map(|l| l.lock()).collect();

        let backups = (0..landings.len())
            .flat_map(|i| (1..r).map(move |k| (i, k)))
            .map(|(i, k)| (i, (landings[i].primary + k) % m))
            .collect();
        self.land_phase(&mut landings, backups);
        let primaries = landings
            .iter()
            .enumerate()
            .filter(|(_, l)| l.hard_err.is_none())
            .map(|(i, l)| (i, l.primary))
            .collect();
        self.land_phase(&mut landings, primaries);
        landings.into_iter().map(Landing::outcome).collect()
    }

    /// One phase of `RpcPort::land_runs`: submits (and counts) an
    /// envelope of run `i` to node `idx` for every `(i, idx)` of
    /// `targets`, then collects every ack into its run.
    fn land_phase(&mut self, landings: &mut [Landing], targets: Vec<(usize, usize)>) {
        let tokens: Vec<_> = targets
            .into_iter()
            .map(|(i, idx)| {
                self.stats.insert_envelopes += 1;
                (i, idx, self.conns[idx].submit(landings[i].request()))
            })
            .collect();
        for (i, idx, token) in tokens {
            let landing = &mut landings[i];
            match token.and_then(|t| self.conns[idx].wait(t)) {
                Ok(_) => landing.landed = true,
                Err(e) if Self::replica_unreachable(&e) => landing.soft_err = Some(e),
                Err(e) => landing.hard_err = Some(e),
            }
        }
    }

    /// Stages pre-bucketed chunk runs — `buckets[i]` destined for node
    /// `i`, drained by value — into the per-node coalescing queues, then
    /// flushes if the staged total reached the coalesce window (always,
    /// when coalescing is off).
    pub fn insert_buckets(
        &mut self,
        bag: BagId,
        buckets: &mut [Vec<Chunk>],
    ) -> Result<(), StorageError> {
        self.ensure_unsealed(bag)?;
        debug_assert!(buckets.len() <= self.conns.len());
        for (target, bucket) in buckets.iter_mut().enumerate() {
            self.stage_run(target, bag, std::mem::take(bucket).into_iter());
        }
        self.flush_at_window()
    }

    /// Stages one chunk destined for node `target`: what a writer calls
    /// per sealed chunk, so the staging queues are the only buffer
    /// between a task and the wire. Same sealed-bag check, run merge and
    /// window flush as [`RpcPort::insert_buckets`]. With coalescing off
    /// the chunk is its own flush, so it lands at once as a run of one,
    /// rerouted like a flushed run: the trip through the staging queues
    /// cost a one-chunk insert about a tenth more.
    pub fn stage(&mut self, target: usize, bag: BagId, chunk: Chunk) -> Result<(), StorageError> {
        self.ensure_unsealed(bag)?;
        if self.coalesce_chunks == 0 {
            let run = ChunkRun::new(vec![chunk]);
            return match self.land_runs(&[(target, bag, run.clone())]).remove(0) {
                Err(e) if Self::reroutes(&e) => self.insert_run_rerouting(target, bag, run, e),
                outcome => outcome,
            };
        }
        self.stage_run(target, bag, std::iter::once(chunk));
        self.flush_at_window()
    }

    fn ensure_unsealed(&self, bag: BagId) -> Result<(), StorageError> {
        if self.cluster.bag_state(bag)? {
            return Err(StorageError::BagSealed(bag));
        }
        Ok(())
    }

    /// Appends `chunks` to node `target`'s pending run for `bag`. Within
    /// a node, chunks for the same bag merge into one pending run
    /// regardless of which call staged them: that is the cross-batch
    /// amortization, and it is also what keeps per-(bag, origin) order —
    /// one envelope per stream per flush.
    fn stage_run(
        &mut self,
        target: usize,
        bag: BagId,
        chunks: impl ExactSizeIterator<Item = Chunk>,
    ) {
        if chunks.len() == 0 {
            return;
        }
        self.staged_len += chunks.len();
        self.stats.staged_chunks += chunks.len() as u64;
        let stage = &mut self.staged[target];
        match stage.iter_mut().find(|(b, _)| *b == bag) {
            Some((_, run)) => run.extend(chunks),
            None => stage.push((bag, chunks.collect())),
        }
    }

    fn flush_at_window(&mut self) -> Result<(), StorageError> {
        if self.coalesce_chunks == 0 || self.staged_len >= self.coalesce_chunks {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes every staged run: one `InsertBatch` envelope per
    /// (node, bag) and replica, all landed by one `RpcPort::land_runs`
    /// call, so the wire carries the merged batches while the servers
    /// work in parallel and a replicated flush waits out two round trips
    /// in all, not two per run. Runs no replica group took are then
    /// rerouted to the next nodes in index order — sharing the same
    /// [`ChunkRun`] buffer, not a copy.
    ///
    /// Returns once every staged chunk is acknowledged (or an error is
    /// surfaced); a no-op when nothing is staged.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.staged_len == 0 {
            return Ok(());
        }
        self.stats.flushes += 1;
        self.staged_len = 0;
        let mut runs: Vec<(usize, BagId, ChunkRun)> = Vec::new();
        for (target, stage) in self.staged.iter_mut().enumerate() {
            for (bag, chunks) in stage.drain(..) {
                runs.push((target, bag, ChunkRun::new(chunks)));
            }
        }
        let outcomes = self.land_runs(&runs);
        let mut refused = Vec::new();
        for (run, outcome) in runs.into_iter().zip(outcomes) {
            match outcome {
                Ok(()) => {}
                Err(e) if Self::reroutes(&e) => refused.push((run, e)),
                Err(e) => return Err(e),
            }
        }
        for ((target, bag, run), e) in refused {
            self.insert_run_rerouting(target, bag, run, e)?;
        }
        Ok(())
    }

    /// Lands a run the replica group of `refused` could not take (with
    /// error `err`), walking the nodes after it until a reachable one
    /// accepts it (placement has no locality to preserve — any node is
    /// as good as any other, paper §3.3). Every attempt reuses the run's
    /// shared buffer.
    fn insert_run_rerouting(
        &mut self,
        refused: usize,
        bag: BagId,
        run: ChunkRun,
        err: StorageError,
    ) -> Result<(), StorageError> {
        let m = self.conns.len();
        let mut last_err = err;
        for offset in 1..m {
            let idx = (refused + offset) % m;
            match self.land_runs(&[(idx, bag, run.clone())]).remove(0) {
                Ok(()) => return Ok(()),
                Err(e) if Self::reroutes(&e) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Removes up to `max_n` chunks whose primary is `primary_idx` with
    /// one request to the serving replica: `RpcPort::submit_remove`, a
    /// blocking wait for the primary's answer, then
    /// `RpcPort::finish_remove` for everything the replica group adds.
    pub fn remove_batch(
        &mut self,
        primary_idx: usize,
        bag: BagId,
        max_n: usize,
    ) -> Result<NodeRemoveBatch, StorageError> {
        let probe = self.submit_remove(primary_idx, bag, max_n)?;
        let first = probe
            .token
            .clone()
            .and_then(|t| self.conns[probe.primary].wait(t));
        self.finish_remove(&probe, first)
    }

    /// First half of a remove: reads the cluster sealed flag, then puts
    /// the `RemoveBatch` request to the group's primary on the wire and
    /// returns without waiting, so a pipeline can keep probes to several
    /// groups in flight ([`RpcPort::poll_remove`] collects them). Staged
    /// coalesced inserts are flushed first so a port always reads its
    /// own writes. Fails only on bag metadata (unknown / collected bag)
    /// or a failed flush; a primary that cannot be reached is recorded in
    /// the probe and handled as a fail-over when the probe is finished.
    pub(crate) fn submit_remove(
        &mut self,
        primary_idx: usize,
        bag: BagId,
        max_n: usize,
    ) -> Result<RemoveProbe, StorageError> {
        self.flush()?;
        // Sealed-before-probe is what makes an `exhausted && sealed`
        // conclusion safe: a sealed bag rejects inserts, so nothing can
        // land after a pre-probe sealed read; a post-completion read
        // would race a concurrent insert-then-seal and drop the chunk.
        let sealed = self.cluster.bag_state(bag)?;
        let primary = primary_idx % self.conns.len();
        let request = StorageRequest::RemoveBatch {
            bag,
            origin: primary as u32,
            max_n,
        };
        Ok(RemoveProbe {
            primary,
            bag,
            max_n,
            sealed,
            token: self.conns[primary].submit(request),
        })
    }

    /// Non-blocking second half of [`RpcPort::submit_remove`]: `None`
    /// while the primary's answer is outstanding, otherwise the finished
    /// remove.
    ///
    /// The primary's connection retransmits a probe whose reply is late
    /// (see [`NodeConnection`]); the server's dedup window either executes
    /// the copy (original lost) or replays the recorded reply, chunks
    /// included (reply lost), so nothing is ever consumed twice or
    /// dropped. A primary whose every attempt timed out is written off as
    /// disconnected, and the group fails over.
    pub(crate) fn poll_remove(
        &mut self,
        probe: &RemoveProbe,
    ) -> Option<Result<NodeRemoveBatch, StorageError>> {
        let first = match &probe.token {
            Err(e) => Err(e.clone()),
            Ok(token) => match self.conns[probe.primary].try_poll(*token) {
                Ok(None) => return None,
                Ok(Some(response)) => Ok(response),
                Err(StorageError::Timeout(node)) => Err(StorageError::Disconnected(node)),
                Err(e) => Err(e),
            },
        };
        Some(self.finish_remove(probe, first))
    }

    /// Blocks up to `wait` for a reply to arrive on `probe`'s primary
    /// connection — what a pipeline does instead of spinning when no
    /// probe has completed.
    pub(crate) fn pump_remove(&mut self, probe: &RemoveProbe, wait: Duration) {
        self.conns[probe.primary].pump(wait);
    }

    /// Everything a replica group adds to the primary's answer `first`:
    /// failover across the replica set, reconciliation of a fallback
    /// serve, pointer mirroring onto the live backups, and the cluster
    /// sealed flag (as read before the probe went out) as the end-of-bag
    /// authority.
    fn finish_remove(
        &mut self,
        probe: &RemoveProbe,
        first: Result<StorageResponse, StorageError>,
    ) -> Result<NodeRemoveBatch, StorageError> {
        let &RemoveProbe {
            primary,
            bag,
            sealed,
            ..
        } = probe;
        let m = self.conns.len();
        let origin = primary as u32;
        let r = self.cluster.replication();
        let mut serving = None;
        let mut first_empty: Option<NodeRemoveBatch> = None;
        let mut probed_empty: Vec<usize> = Vec::new();
        let mut soft_err = None;
        let mut disk_sick = None;
        let mut first = Some(first);
        for k in 0..r {
            let idx = (primary + k) % m;
            let answer = match first.take() {
                Some(answer) => answer,
                None => self.conns[idx].call(probe.request()),
            };
            match answer {
                // An empty serve is not authoritative: replica logs can
                // diverge — this replica restarted and recovered a log
                // missing runs that landed only at a backup while it was
                // down. Keep probing; the group is exhausted only when
                // every reachable replica comes back empty, otherwise
                // acked chunks marooned at a backup would be masked by
                // a premature end-of-bag.
                Ok(StorageResponse::Removed(batch)) if batch.chunks.is_empty() => {
                    probed_empty.push(idx);
                    if first_empty.is_none() {
                        first_empty = Some(batch);
                    }
                }
                Ok(StorageResponse::Removed(batch)) => {
                    serving = Some((idx, batch));
                    break;
                }
                Ok(other) => return Err(protocol_violation(self.conns[idx].node(), &other)),
                // A replica that can't serve (down, or its segment log
                // can't journal the consume) fails over to the next one.
                Err(e @ (StorageError::DiskFull(_) | StorageError::DiskIo(_))) => {
                    disk_sick = Some(e);
                }
                Err(e) if Self::replica_unreachable(&e) => soft_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        let Some((served_by, mut batch)) = serving else {
            let Some(mut batch) = first_empty else {
                return Err(Self::group_unserved(bag, disk_sick, soft_err));
            };
            batch.eof = batch.exhausted && sealed;
            return Ok(batch);
        };
        // Reconcile the fallback serve: a replica that answered empty
        // above may have concurrently served these very chunks to
        // another reader whose mirror hadn't reached `served_by` yet.
        // Claim the served identities at each such replica and drop
        // whatever it reports already consumed — those chunks belong
        // to the other reader. An unreachable replica claims nothing
        // (its consumed state can't race anyone while it's down).
        for &idx in &probed_empty {
            if batch.chunks.is_empty() {
                break;
            }
            let request = StorageRequest::ClaimConsumed {
                bag,
                origin,
                tags: batch.tags.clone(),
            };
            match self.conns[idx].call(request) {
                Ok(StorageResponse::Claimed(already)) => batch.drop_already_consumed(&already),
                Ok(other) => return Err(protocol_violation(self.conns[idx].node(), &other)),
                Err(e) if Self::replica_unreachable(&e) => {}
                Err(e) => return Err(e),
            }
        }
        if !batch.chunks.is_empty() && r > 1 {
            // Mirror the served chunks' identities onto the other
            // replicas with the same claim, its echo ignored: all mirrors
            // submitted first, acks collected afterwards (one overlapped
            // round trip, not `r − 1`). Acks are awaited (cheap) so a
            // subsequent failover cannot observe a lagging pointer;
            // unreachable replicas are skipped. Replicas probed empty
            // were just claimed above.
            let request = StorageRequest::ClaimConsumed {
                bag,
                origin,
                tags: batch.tags.clone(),
            };
            let tokens: Vec<_> = (0..r)
                .map(|k| (primary + k) % m)
                .filter(|idx| *idx != served_by && !probed_empty.contains(idx))
                .map(|idx| (idx, self.conns[idx].submit(request.clone())))
                .collect();
            for (idx, token) in tokens {
                let _ = token.and_then(|t| self.conns[idx].wait(t));
            }
        }
        batch.eof = batch.exhausted && sealed;
        Ok(batch)
    }

    /// The one body of every whole-bag control operation: flushes this
    /// port's staged inserts (so the operation sees them), submits
    /// `request(i)` on every connection `i`, then waits each token in
    /// index order. Returns one outcome per node; the caller does the
    /// bag-metadata half first and decides which node errors it skips.
    /// The tolerance, stated once:
    ///
    /// | operation | a node error that is skipped | anything else |
    /// |---|---|---|
    /// | seal, collect | every error: the cluster flag governs | — |
    /// | rewind, discard | down | propagates (a disk error) |
    /// | sample | down | propagates |
    /// | snapshot | unreachable ([`RpcPort::replica_unreachable`]): origin `p` is read from its next replica; an origin no replica serves fails the call ([`RpcPort::group_unserved`]) | propagates |
    ///
    /// "Down" is [`StorageError::NodeDown`], or over the wire
    /// [`StorageError::Disconnected`].
    fn fan_out(
        &mut self,
        request: impl Fn(usize) -> StorageRequest,
    ) -> Result<Vec<Result<StorageResponse, StorageError>>, StorageError> {
        self.flush()?;
        let tokens: Vec<_> = (0..self.conns.len())
            .map(|idx| self.conns[idx].submit(request(idx)))
            .collect();
        Ok(tokens
            .into_iter()
            .enumerate()
            .map(|(idx, token)| token.and_then(|t| self.conns[idx].wait(t)))
            .collect())
    }

    /// A node's outcome with "down" (see [`RpcPort::fan_out`]) read as
    /// `None`.
    fn unless_down(
        outcome: Result<StorageResponse, StorageError>,
    ) -> Result<Option<StorageResponse>, StorageError> {
        match outcome {
            Err(StorageError::NodeDown(_) | StorageError::Disconnected(_)) => Ok(None),
            other => other.map(Some),
        }
    }

    /// Seals `bag`: the cluster flag (end-of-bag), then every node.
    pub fn seal_bag(&mut self, bag: BagId) -> Result<(), StorageError> {
        self.cluster.set_sealed(bag, true)?;
        self.fan_out(|_| StorageRequest::Seal { bag })?;
        Ok(())
    }

    /// Rewinds every node's read pointer for another full read (paper
    /// §4.3); the seal is kept.
    pub fn rewind_bag(&mut self, bag: BagId) -> Result<(), StorageError> {
        self.cluster.check_bag(bag)?;
        for outcome in self.fan_out(|_| StorageRequest::Rewind { bag })? {
            Self::unless_down(outcome)?;
        }
        Ok(())
    }

    /// Empties and unseals `bag` — recovery's reset of a restarted
    /// task's outputs (paper §4.4).
    pub fn discard_bag(&mut self, bag: BagId) -> Result<(), StorageError> {
        self.cluster.set_sealed(bag, false)?;
        for outcome in self.fan_out(|_| StorageRequest::Discard { bag })? {
            Self::unless_down(outcome)?;
        }
        Ok(())
    }

    /// Garbage-collects `bag` cluster-wide.
    pub fn collect_bag(&mut self, bag: BagId) -> Result<(), StorageError> {
        self.cluster.set_collected(bag)?;
        self.fan_out(|_| StorageRequest::Collect { bag })?;
        Ok(())
    }

    /// Aggregated sample of `bag` across every reachable node — the
    /// master's input for estimating remaining work (paper §4.2).
    pub fn sample_bag(&mut self, bag: BagId) -> Result<BagSample, StorageError> {
        self.cluster.check_bag(bag)?;
        let mut agg = BagSample::default();
        for (idx, outcome) in self
            .fan_out(|_| StorageRequest::Sample { bag })?
            .into_iter()
            .enumerate()
        {
            match Self::unless_down(outcome)? {
                Some(StorageResponse::Sampled(s)) => agg.merge(&s),
                Some(other) => return Err(protocol_violation(self.conns[idx].node(), &other)),
                None => {}
            }
        }
        agg.sealed = self.cluster.is_sealed(bag)?;
        Ok(agg)
    }

    /// Non-destructive full read of `bag`, consumed chunks included, at
    /// every replication factor: each origin's stream is read with
    /// `SnapshotFrom` from its first live replica, in remove-failover
    /// order (at replication 1 the origin's own node, which holds only
    /// that stream). An origin no replica can serve fails the call
    /// rather than come back short. A replica whose log missed runs
    /// while it was down hides them once it is back: `SnapshotFrom`
    /// carries no identity tags to union replicas by (removes reconcile).
    pub fn snapshot_bag(&mut self, bag: BagId) -> Result<Vec<Chunk>, StorageError> {
        self.cluster.check_bag(bag)?;
        let r = self.cluster.replication();
        let m = self.conns.len();
        let from = |p: usize| StorageRequest::SnapshotFrom {
            bag,
            origin: p as u32,
        };
        let mut out = Vec::new();
        // Every origin's primary at once; the backups only for origins
        // whose primary cannot answer.
        for (p, first) in self.fan_out(from)?.into_iter().enumerate() {
            let (mut disk_sick, mut soft_err) = (None, None);
            let mut answer = Some(first);
            for k in 0..r {
                let idx = (p + k) % m;
                match answer
                    .take()
                    .unwrap_or_else(|| self.conns[idx].call(from(p)))
                {
                    Ok(StorageResponse::Chunks(chunks)) => {
                        out.extend(chunks);
                        break;
                    }
                    Ok(other) => return Err(protocol_violation(self.conns[idx].node(), &other)),
                    Err(e @ (StorageError::DiskFull(_) | StorageError::DiskIo(_))) => {
                        disk_sick = Some(e);
                    }
                    Err(e) if Self::replica_unreachable(&e) => soft_err = Some(e),
                    Err(e) => return Err(e),
                }
                if k + 1 == r {
                    return Err(Self::group_unserved(bag, disk_sick, soft_err));
                }
            }
        }
        Ok(out)
    }

    /// The error for a replica group of `bag` that no replica could
    /// serve: a disk error first — a replica that is up but disk-sick
    /// still holds its chunks, so reporting "down" would let a reader
    /// take the group for lost and the bag for drained — else the
    /// unreachable error, else [`StorageError::AllReplicasDown`].
    fn group_unserved(
        bag: BagId,
        disk_sick: Option<StorageError>,
        soft_err: Option<StorageError>,
    ) -> StorageError {
        disk_sick
            .or(soft_err)
            .unwrap_or(StorageError::AllReplicasDown(bag))
    }
}

impl Drop for RpcPort {
    fn drop(&mut self) {
        // Best effort: a port dropped with staged chunks still owes them
        // to the wire. Errors are unreportable here, and a destructor
        // must not hang teardown on a wedged node — cap the per-request
        // wait (flush's reroute walk is bounded by nodes × this cap).
        // Callers that need the outcome flush explicitly (the engine's
        // writers do).
        if self.staged_len > 0 {
            self.timeout = self.timeout.min(Duration::from_millis(500));
            let _ = self.flush();
        }
    }
}

/// Maps an off-protocol reply (wrong response variant for the request —
/// impossible with [`dispatch`], conceivable with a buggy remote server)
/// onto a transport-level error.
fn protocol_violation(node: StorageNodeId, _got: &StorageResponse) -> StorageError {
    StorageError::Disconnected(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn chunk(v: u8) -> Chunk {
        Chunk::from_vec(vec![v])
    }

    /// A port over hand-built transports, one per node in index order.
    fn port_over(cluster: Arc<StorageCluster>, transports: Vec<Box<dyn Transport>>) -> RpcPort {
        let membership = crate::membership::Membership::new();
        for transport in transports {
            membership.join(crate::membership::OnceConnect::new(transport));
        }
        RpcPort::from_membership(cluster, membership, DEFAULT_REQUEST_TIMEOUT)
    }

    #[test]
    fn dispatch_covers_roundtrip() {
        let node = StorageNode::new(StorageNodeId(0));
        let bag = BagId(1);
        let r = dispatch(
            &node,
            StorageRequest::InsertBatch {
                bag,
                origin: 0,
                run: next_run_id(),
                chunks: vec![chunk(1), chunk(2)].into(),
            },
        )
        .unwrap();
        assert_eq!(r, StorageResponse::Inserted);
        match dispatch(&node, StorageRequest::Sample { bag }).unwrap() {
            StorageResponse::Sampled(s) => assert_eq!(s.total_chunks, 2),
            other => panic!("wrong response {other:?}"),
        }
        match dispatch(
            &node,
            StorageRequest::RemoveBatch {
                bag,
                origin: 0,
                max_n: 8,
            },
        )
        .unwrap()
        {
            StorageResponse::Removed(b) => assert_eq!(b.chunks.len(), 2),
            other => panic!("wrong response {other:?}"),
        }
        assert_eq!(
            dispatch(&node, StorageRequest::Ping).unwrap(),
            StorageResponse::Pong
        );
    }

    #[test]
    fn dispatch_reports_node_errors() {
        let node = StorageNode::new(StorageNodeId(3));
        node.fail();
        let e = dispatch(&node, StorageRequest::Sample { bag: BagId(0) }).unwrap_err();
        assert_eq!(e, StorageError::NodeDown(StorageNodeId(3)));
    }

    #[test]
    fn server_roundtrip_over_channel_transport() {
        let node = Arc::new(StorageNode::new(StorageNodeId(0)));
        let server = NodeServerHandle::spawn(node, 2);
        let mut conn = NodeConnection::new(Box::new(server.connect()));
        let bag = BagId(9);
        let t = conn
            .submit(StorageRequest::InsertBatch {
                bag,
                origin: 0,
                run: next_run_id(),
                chunks: vec![chunk(7)].into(),
            })
            .unwrap();
        assert_eq!(conn.wait(t).unwrap(), StorageResponse::Inserted);
        match conn
            .call(StorageRequest::RemoveBatch {
                bag,
                origin: 0,
                max_n: 4,
            })
            .unwrap()
        {
            StorageResponse::Removed(b) => assert_eq!(b.chunks, vec![chunk(7)]),
            other => panic!("wrong response {other:?}"),
        }
        server.shutdown();
        assert!(matches!(
            conn.submit(StorageRequest::Ping),
            Err(StorageError::Disconnected(_))
        ));
    }

    #[test]
    fn out_of_order_replies_correlate() {
        let (transport, mut server) = loopback(StorageNodeId(5));
        let mut conn = NodeConnection::new(Box::new(transport));
        let a = conn.submit(StorageRequest::Ping).unwrap();
        let b = conn
            .submit(StorageRequest::Sample { bag: BagId(0) })
            .unwrap();
        let ea = server.recv(Duration::from_millis(100)).unwrap();
        let eb = server.recv(Duration::from_millis(100)).unwrap();
        // Reply to b first, then a — tokens must still match.
        let sampled = StorageResponse::Sampled(BagSample::default());
        assert!(server.reply(eb.id, Ok(sampled.clone())));
        assert!(server.reply(ea.id, Ok(StorageResponse::Pong)));
        assert_eq!(conn.wait(a).unwrap(), StorageResponse::Pong);
        assert_eq!(conn.wait(b).unwrap(), sampled);
        assert_eq!(conn.outstanding(), 0);
    }

    #[test]
    fn wait_times_out_and_discards_late_reply() {
        let (transport, mut server) = loopback(StorageNodeId(1));
        let mut conn = NodeConnection::new(Box::new(transport));
        conn.set_timeout(Duration::from_millis(5));
        let t = conn.submit(StorageRequest::Ping).unwrap();
        assert_eq!(conn.wait(t), Err(StorageError::Timeout(StorageNodeId(1))));
        assert_eq!((conn.outstanding(), conn.on_wire()), (0, 0));
        // Every attempt sent the same envelope.
        let env = server.recv(Duration::from_millis(100)).unwrap();
        for _ in 1..REQUEST_ATTEMPTS {
            assert_eq!(server.recv(Duration::from_millis(100)).unwrap(), env);
        }
        assert_eq!(server.queued(), 0);
        // A late reply to the abandoned request must not leak into the
        // next token's completion.
        assert!(server.reply(env.id, Ok(StorageResponse::Pong)));
        conn.set_timeout(Duration::from_secs(1));
        let t2 = conn
            .submit(StorageRequest::Sample { bag: BagId(0) })
            .unwrap();
        let env2 = server.recv(Duration::from_millis(100)).unwrap();
        assert_ne!(env2.id, env.id, "the abandoned slot's generation moved on");
        let sampled = StorageResponse::Sampled(BagSample::default());
        assert!(server.reply(env2.id, Ok(sampled.clone())));
        assert_eq!(conn.wait(t2).unwrap(), sampled);
    }

    #[test]
    fn port_grows_with_membership() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let channel = crate::StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut port = channel.port();
        assert_eq!(port.num_nodes(), 2);
        assert!(!port.refresh_membership(), "no change, no growth");
        // A node joins mid-job: served and published by the endpoint,
        // picked up by the existing port at its next refresh.
        let idx = channel.add_node();
        assert!(port.refresh_membership());
        assert_eq!(port.num_nodes(), 3);
        port.insert_batch(idx, bag, &[chunk(9)]).unwrap();
        assert_eq!(cluster.node(idx).sample(bag).unwrap().total_chunks, 1);
        let got = port.remove_batch(idx, bag, 4).unwrap();
        assert_eq!(got.chunks, vec![chunk(9)]);
    }

    #[test]
    fn undialable_member_gets_placeholder_and_redials_on_epoch_move() {
        use crate::membership::{Connect, Membership};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Refuses dials until `up` flips, then connects inline.
        struct Flaky {
            node: Arc<StorageNode>,
            up: AtomicBool,
        }
        impl std::fmt::Debug for Flaky {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct("Flaky")
                    .field("node", &self.node.id())
                    .finish()
            }
        }
        impl Connect for Flaky {
            fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
                if self.up.load(Ordering::Acquire) {
                    Ok(Box::new(InlineTransport::new(self.node.clone())))
                } else {
                    Err(StorageError::Disconnected(self.node.id()))
                }
            }
        }

        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let membership = Membership::new();
        membership.join(Arc::new(Flaky {
            node: cluster.node(0),
            up: AtomicBool::new(true),
        }));
        let flaky = Arc::new(Flaky {
            node: cluster.node(1),
            up: AtomicBool::new(false),
        });
        membership.join(flaky.clone());

        // The dead member does not truncate the connection set: the port
        // covers the full view, with a placeholder that fails over.
        let mut port =
            RpcPort::from_membership(cluster.clone(), membership.clone(), Duration::from_secs(5));
        assert_eq!(port.num_nodes(), 2);
        assert_eq!(
            port.insert_batch(1, bag, &[chunk(7)]).unwrap_err(),
            StorageError::Disconnected(StorageNodeId(1))
        );
        port.insert_batch(0, bag, &[chunk(7)]).unwrap();

        // Node 1 comes up and the view changes (a third member joins):
        // the refresh re-dials the placeholder slot.
        flaky.up.store(true, Ordering::Release);
        let idx = cluster.add_node();
        membership.join(Arc::new(Flaky {
            node: cluster.node(idx),
            up: AtomicBool::new(true),
        }));
        assert!(port.refresh_membership());
        assert_eq!(port.num_nodes(), 3);
        port.insert_batch(1, bag, &[chunk(8)]).unwrap();
        assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 1);
    }

    #[test]
    fn fresh_port_sees_synced_nodes_immediately() {
        let channel =
            crate::StorageEndpoint::channel(StorageCluster::new(1, ClusterConfig::default()));
        assert_eq!(channel.port().num_nodes(), 1);
        channel.add_node();
        assert_eq!(channel.membership().len(), 2);
        assert_eq!(channel.port().num_nodes(), 2);
    }

    #[test]
    fn chunk_run_clones_share_backing_storage() {
        let run = ChunkRun::new(vec![chunk(1), chunk(2)]);
        let copy = run.clone();
        // Slice pointer equality: the clone views the same Arc'd buffer —
        // replica fan-out and reroutes never duplicate the chunks.
        assert_eq!(run.as_ptr(), copy.as_ptr());
        assert_eq!(&run[..], &copy[..]);
    }

    #[test]
    fn slab_reuses_correlation_slots() {
        let node = Arc::new(StorageNode::new(StorageNodeId(4)));
        let mut conn = NodeConnection::new(Box::new(InlineTransport::new(node)));
        for round in 0..100u64 {
            let t = conn.submit(StorageRequest::Ping).unwrap();
            assert_eq!(
                t.id() & u64::from(u32::MAX),
                0,
                "sequential submit/wait must reuse slot 0 (round {round})"
            );
            assert_eq!(conn.wait(t).unwrap(), StorageResponse::Pong);
        }
        assert_eq!(conn.requests_sent(), 100);
        assert_eq!(conn.outstanding(), 0);
    }

    #[test]
    fn coalescer_merges_cross_batch_runs_per_bag_stream() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag_a = cluster.create_bag();
        let bag_b = cluster.create_bag();
        let mut port = RpcPort::inline(cluster.clone());
        port.set_coalescing(1000);
        // Three staging calls interleaving two bags; nothing flushes yet.
        port.insert_buckets(bag_a, &mut [vec![chunk(0)], vec![chunk(1)]])
            .unwrap();
        port.insert_buckets(bag_b, &mut [vec![chunk(10)], vec![]])
            .unwrap();
        port.insert_buckets(bag_a, &mut [vec![chunk(2)], vec![chunk(3)]])
            .unwrap();
        assert_eq!(port.staged_chunks(), 5);
        assert_eq!(port.stats().insert_envelopes, 0, "still staged");
        port.flush().unwrap();
        // One envelope per (node, bag): node 0 carries bag_a and bag_b,
        // node 1 carries bag_a — three envelopes for five chunks across
        // three calls, and per-stream order is preserved.
        assert_eq!(port.stats().insert_envelopes, 3);
        assert_eq!(port.stats().flushes, 1);
        assert_eq!(
            cluster.node(0).snapshot_from(bag_a, 0).unwrap(),
            vec![chunk(0), chunk(2)]
        );
        assert_eq!(
            cluster.node(1).snapshot_from(bag_a, 1).unwrap(),
            vec![chunk(1), chunk(3)]
        );
        assert_eq!(
            cluster.node(0).snapshot_from(bag_b, 0).unwrap(),
            vec![chunk(10)]
        );
    }

    #[test]
    fn coalesced_port_reads_its_own_writes() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut port = RpcPort::inline(cluster.clone());
        port.set_coalescing(1_000_000);
        port.insert_buckets(bag, &mut [vec![chunk(1)], vec![chunk(2)]])
            .unwrap();
        assert_eq!(port.staged_chunks(), 2);
        // A read through the same port flushes the stage first.
        let got = port.remove_batch(0, bag, 10).unwrap();
        assert_eq!(got.chunks, vec![chunk(1)]);
        assert_eq!(port.staged_chunks(), 0);
        // Sampling likewise sees staged inserts.
        port.insert_buckets(bag, &mut [vec![chunk(3)], vec![]])
            .unwrap();
        let s = port.sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 3);
    }

    #[test]
    fn dropping_a_port_flushes_staged_inserts() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        {
            let mut port = RpcPort::inline(cluster.clone());
            port.set_coalescing(1_000_000);
            port.insert_buckets(bag, &mut [vec![chunk(7)], vec![chunk(8)]])
                .unwrap();
        }
        let s = RpcPort::inline(cluster).sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 2);
    }

    #[test]
    fn port_sample_merges_nodes() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut port = crate::StorageEndpoint::channel(cluster).port();
        port.insert_batch(0, bag, &[chunk(1)]).unwrap();
        port.insert_batch(1, bag, &[chunk(2), chunk(3)]).unwrap();
        let s = port.sample_bag(bag).unwrap();
        assert_eq!(s.total_chunks, 3);
        assert!(!s.sealed);
    }

    #[test]
    fn duplicated_insert_envelope_is_suppressed() {
        let node = StorageNode::new(StorageNodeId(0));
        let dedup = ServerDedup::new();
        let bag = BagId(1);
        let env = RequestEnvelope {
            id: 77,
            client: 5,
            seq: 0,
            request: StorageRequest::InsertBatch {
                bag,
                origin: 0,
                run: next_run_id(),
                chunks: vec![chunk(1), chunk(2)].into(),
            },
        };
        // First delivery executes.
        let r1 = serve_deduped(&node, &dedup, env.clone()).unwrap();
        assert_eq!(r1.result, Ok(StorageResponse::Inserted));
        // An exact duplicate of the same envelope replays, never
        // re-executes: the node still holds exactly two chunks.
        let r2 = serve_deduped(&node, &dedup, env.clone()).unwrap();
        assert_eq!(r2.result, Ok(StorageResponse::Inserted));
        // So does any envelope under the same `(client, seq)`, whatever
        // its correlation id: the window keys on the sequence number.
        let retry = RequestEnvelope { id: 99, ..env };
        let r3 = serve_deduped(&node, &dedup, retry).unwrap();
        assert_eq!(r3.id, 99);
        assert_eq!(r3.result, Ok(StorageResponse::Inserted));
        assert_eq!(
            node.sample(bag).unwrap().total_chunks,
            2,
            "no double insert"
        );
    }

    #[test]
    fn default_client_suppresses_a_duplicated_insert_envelope() {
        // An inline-endpoint client is what `HurricaneApp::start` mints
        // with `storage_rpc` off, the default: it is covered by the same
        // `(client, seq)` window as a networked one.
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = crate::StorageEndpoint::inline(cluster.clone()).client(bag, 1);
        let request = StorageRequest::InsertBatch {
            bag,
            origin: 0,
            run: next_run_id(),
            chunks: vec![chunk(7)].into(),
        };
        let conn = &mut client.port.conns[0];
        let token = conn.submit(request).unwrap();
        // The same envelope again, as a duplicating network or a
        // retransmission delivers it: acknowledged, not re-executed.
        conn.expire(token.id()).unwrap();
        assert_eq!(conn.requests_sent(), 2);
        assert_eq!(conn.wait(token).unwrap(), StorageResponse::Inserted);
        assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 1);
    }

    #[test]
    fn dedup_replays_remove_results_and_errors() {
        let node = StorageNode::new(StorageNodeId(0));
        let dedup = ServerDedup::new();
        let bag = BagId(2);
        dispatch(
            &node,
            StorageRequest::InsertBatch {
                bag,
                origin: 0,
                run: next_run_id(),
                chunks: vec![chunk(9)].into(),
            },
        )
        .unwrap();
        let env = RequestEnvelope {
            id: 1,
            client: 8,
            seq: 0,
            request: StorageRequest::RemoveBatch {
                bag,
                origin: 0,
                max_n: 4,
            },
        };
        let first = serve_deduped(&node, &dedup, env.clone()).unwrap();
        // A lost-reply retransmission recovers the *same* chunks instead
        // of consuming (and losing) a fresh batch.
        let replay = serve_deduped(&node, &dedup, RequestEnvelope { id: 2, ..env }).unwrap();
        assert_eq!(first.result, replay.result);
        // Errors are cached too: the first outcome is the outcome, even
        // if the node recovers before the retransmission arrives.
        node.fail();
        let bad = RequestEnvelope {
            id: 3,
            client: 8,
            seq: 1,
            request: StorageRequest::RemoveBatch {
                bag,
                origin: 0,
                max_n: 1,
            },
        };
        let e1 = serve_deduped(&node, &dedup, bad.clone()).unwrap();
        node.recover();
        let e2 = serve_deduped(&node, &dedup, RequestEnvelope { id: 4, ..bad }).unwrap();
        assert!(e1.result.is_err());
        assert_eq!(e1.result, e2.result);
    }

    #[test]
    fn dedup_suppresses_duplicate_racing_a_running_execution() {
        let dedup = ServerDedup::new();
        assert_eq!(dedup.begin(1, 0), Served::Execute);
        // The duplicate arrives while the original still runs on another
        // dispatch thread: dropped without a reply.
        assert_eq!(dedup.begin(1, 0), Served::Suppressed);
        dedup.complete(1, 0, &Ok(StorageResponse::Inserted));
        assert!(matches!(dedup.begin(1, 0), Served::Replayed(_)));
        // A different client's seq 0 is a different request.
        assert_eq!(dedup.begin(2, 0), Served::Execute);
    }

    #[test]
    fn dedup_window_evicts_oldest_completed_entries() {
        let dedup = ServerDedup::new();
        for seq in 0..(super::DEDUP_WINDOW as u64 + 8) {
            assert_eq!(dedup.begin(3, seq), Served::Execute);
            dedup.complete(3, seq, &Ok(StorageResponse::Done));
        }
        // Seq 0 fell out of the window: a (very) late duplicate would
        // re-execute, which the bounded window accepts.
        assert_eq!(dedup.begin(3, 0), Served::Execute);
        // Recent entries still replay.
        assert!(matches!(
            dedup.begin(3, super::DEDUP_WINDOW as u64 + 7),
            Served::Replayed(_)
        ));
    }

    #[test]
    fn a_late_reply_resends_the_same_envelope() {
        let (transport, mut server) = loopback(StorageNodeId(2));
        let mut conn = NodeConnection::new(Box::new(transport));
        conn.set_timeout(Duration::from_millis(50));
        let server_thread = std::thread::spawn(move || {
            // Swallow the first attempt, answer the second.
            let first = server.recv(Duration::from_secs(2)).unwrap();
            let second = server.recv(Duration::from_secs(2)).unwrap();
            assert_eq!(first, second, "same id, same client, same seq");
            assert!(server.reply(second.id, Ok(StorageResponse::Pong)));
        });
        let got = conn.call(StorageRequest::Ping);
        assert_eq!(got, Ok(StorageResponse::Pong));
        assert_eq!(conn.requests_sent(), 2);
        server_thread.join().unwrap();
    }

    #[test]
    fn a_poll_past_the_timeout_resends_then_gives_up() {
        let (transport, server) = loopback(StorageNodeId(6));
        let mut conn = NodeConnection::new(Box::new(transport));
        conn.set_timeout(Duration::ZERO);
        let t = conn.submit(StorageRequest::Ping).unwrap();
        for attempt in 2..=REQUEST_ATTEMPTS {
            assert_eq!(conn.try_poll(t), Ok(None));
            assert_eq!(conn.requests_sent(), u64::from(attempt));
        }
        assert_eq!(
            conn.try_poll(t),
            Err(StorageError::Timeout(StorageNodeId(6)))
        );
        assert_eq!((conn.outstanding(), conn.on_wire()), (0, 0));
        assert_eq!(server.queued(), REQUEST_ATTEMPTS as usize);
        // A redeemed token stays redeemed.
        assert_eq!(
            conn.try_poll(t),
            Err(StorageError::Timeout(StorageNodeId(6)))
        );
    }

    /// A connection to a node that crashes mid-request, as a TCP
    /// transport sees it: the node executes the first envelope, the
    /// socket dies before the reply leaves, the reply side closes, and
    /// every later send fails with `Disconnected`.
    struct DiesAfterExecuting {
        node: Arc<StorageNode>,
        dead: bool,
    }

    impl Transport for DiesAfterExecuting {
        fn node(&self) -> StorageNodeId {
            self.node.id()
        }
        fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError> {
            if self.dead {
                return Err(StorageError::Disconnected(self.node.id()));
            }
            self.dead = true;
            let _ = dispatch(&self.node, env.request);
            Ok(())
        }
        fn try_recv(&mut self) -> Option<ReplyEnvelope> {
            None
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Option<ReplyEnvelope> {
            None
        }
    }

    #[test]
    fn a_connection_dying_mid_request_times_out_and_is_not_rerouted() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let dying = |cluster: &Arc<StorageCluster>| {
            Box::new(DiesAfterExecuting {
                node: cluster.node(0),
                dead: false,
            })
        };
        let timeout = StorageError::Timeout(StorageNodeId(0));

        // The request left, so its outcome is unknown: `Timeout`, not the
        // failed retransmission's `Disconnected`.
        let mut conn = NodeConnection::new(dying(&cluster));
        let request = StorageRequest::InsertBatch {
            bag,
            origin: 0,
            run: next_run_id(),
            chunks: vec![chunk(1)].into(),
        };
        assert_eq!(conn.call(request), Err(timeout.clone()));
        assert_eq!((conn.outstanding(), conn.on_wire()), (0, 0));

        // A port surfaces it and re-routes nothing to node 1, through a
        // synchronous insert, an uncoalesced stage and a window flush.
        let port = |cluster: &Arc<StorageCluster>| {
            let transports: Vec<Box<dyn Transport>> = vec![
                dying(cluster),
                Box::new(InlineTransport::new(cluster.node(1))),
            ];
            port_over(cluster.clone(), transports)
        };
        assert_eq!(
            port(&cluster).insert_batch(0, bag, &[chunk(2)]),
            Err(timeout.clone())
        );
        assert_eq!(port(&cluster).stage(0, bag, chunk(3)), Err(timeout.clone()));
        let mut coalescing = port(&cluster);
        coalescing.set_coalescing(1);
        assert_eq!(coalescing.stage(0, bag, chunk(4)), Err(timeout));
        // Every run executed once, at node 0 only.
        assert_eq!(cluster.node(0).sample(bag).unwrap().total_chunks, 4);
        assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
    }

    #[test]
    fn idempotency_classification_covers_the_request_set() {
        let bag = BagId(0);
        assert!(!StorageRequest::InsertBatch {
            bag,
            origin: 0,
            run: 1,
            chunks: vec![].into()
        }
        .is_idempotent());
        assert!(!StorageRequest::RemoveBatch {
            bag,
            origin: 0,
            max_n: 1
        }
        .is_idempotent());
        assert!(!StorageRequest::ClaimConsumed {
            bag,
            origin: 0,
            tags: vec![TagSegment {
                run: 1,
                start: 0,
                len: 1
            }]
        }
        .is_idempotent());
        assert!(!StorageRequest::Rewind { bag }.is_idempotent());
        assert!(!StorageRequest::Discard { bag }.is_idempotent());
        assert!(!StorageRequest::Collect { bag }.is_idempotent());
        assert!(StorageRequest::Sample { bag }.is_idempotent());
        assert!(StorageRequest::SnapshotFrom { bag, origin: 0 }.is_idempotent());
        assert!(StorageRequest::Seal { bag }.is_idempotent());
        assert!(StorageRequest::Ping.is_idempotent());
    }

    /// A memory disk that can be made to refuse every append, read and
    /// truncate with `ENOSPC`: a node whose log can no longer journal.
    struct SickLog {
        inner: crate::segment::SegmentLog,
        sick: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SickLog {
        fn check(&self) -> std::io::Result<()> {
            match self.sick.load(std::sync::atomic::Ordering::Relaxed) {
                true => Err(std::io::Error::from_raw_os_error(28)),
                false => Ok(()),
            }
        }
    }

    impl crate::segment::LogBackend for SickLog {
        fn append(&self, frame: &[u8]) -> std::io::Result<u64> {
            self.check()?;
            self.inner.append(frame)
        }
        fn read(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
            self.check()?;
            self.inner.read(offset, len)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read_all(&self) -> std::io::Result<Vec<u8>> {
            self.check()?;
            self.inner.read_all()
        }
        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.check()?;
            self.inner.truncate(len)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.inner.sync()
        }
    }

    /// The cluster store: node 1 journals to a [`SickLog`], the rest to
    /// healthy memory.
    struct SickNodeOne {
        mem: crate::segment::SegmentStore,
        sick: Arc<std::sync::atomic::AtomicBool>,
    }

    impl crate::segment::StoreBackend for SickNodeOne {
        fn open_log(&self, name: &str) -> std::io::Result<crate::segment::SegmentLog> {
            Ok(crate::segment::SegmentLog::custom(Arc::new(SickLog {
                inner: self.mem.open_log(name)?,
                sick: self.sick.clone(),
            })))
        }
        fn list_logs(&self) -> std::io::Result<Vec<String>> {
            self.mem.list_logs()
        }
        fn subdir(&self, name: &str) -> std::io::Result<crate::segment::SegmentStore> {
            let mem = self.mem.subdir(name)?;
            Ok(match name {
                "node-1" => crate::segment::SegmentStore::custom(Arc::new(SickNodeOne {
                    mem,
                    sick: self.sick.clone(),
                })),
                _ => mem,
            })
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Fault {
        Failed,
        DiskSick,
        DeadConnection,
    }

    /// A 3-node durable cluster holding two chunks at every node (one of
    /// node 1's already consumed), then node 1 made unusable by `fault`,
    /// and a port over it.
    fn faulty_cluster(fault: Fault, replication: usize) -> (RpcPort, BagId) {
        let sick = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let store = crate::segment::SegmentStore::custom(Arc::new(SickNodeOne {
            mem: crate::segment::SegmentStore::mem(),
            sick: sick.clone(),
        }));
        let cluster = StorageCluster::new_durable(
            3,
            ClusterConfig { replication },
            crate::cluster::DurabilityConfig {
                store,
                // Nothing resident: a snapshot reads the log.
                spill_threshold_bytes: 0,
            },
        );
        let bag = cluster.create_bag();
        let mut port = RpcPort::inline(cluster.clone());
        for i in 0..3u8 {
            port.insert_batch(i as usize, bag, &[chunk(2 * i), chunk(2 * i + 1)])
                .unwrap();
        }
        assert_eq!(port.remove_batch(1, bag, 1).unwrap().chunks.len(), 1);
        match fault {
            Fault::Failed => cluster.node(1).fail(),
            Fault::DiskSick => sick.store(true, std::sync::atomic::Ordering::Relaxed),
            Fault::DeadConnection => {
                let transports = (0..3)
                    .map(|i| -> Box<dyn Transport> {
                        match i {
                            1 => Box::new(DeadTransport {
                                node: StorageNodeId(1),
                            }),
                            _ => Box::new(InlineTransport::new(cluster.node(i))),
                        }
                    })
                    .collect();
                port = port_over(cluster, transports);
            }
        }
        (port, bag)
    }

    #[test]
    fn control_fan_out_tolerates_what_its_table_says() {
        type Op = fn(&mut RpcPort, BagId) -> Result<u64, StorageError>;
        type Row = (&'static str, Op, [Result<u64, StorageError>; 3]);
        let sick = Err(StorageError::DiskFull(StorageNodeId(1)));
        // Per operation, the outcome with node 1 fail()ed, disk-sick, or
        // behind a dead connection. Counts are chunks; a down node's two
        // are missing from a sample, a disk-sick node still reports its
        // counters, and a snapshot that cannot read origin 1 fails.
        let table: [Row; 6] = [
            (
                "seal",
                |p, b| p.seal_bag(b).map(|()| 0),
                [Ok(0), Ok(0), Ok(0)],
            ),
            (
                "rewind",
                |p, b| p.rewind_bag(b).map(|()| 0),
                [Ok(0), sick.clone(), Ok(0)],
            ),
            (
                "discard",
                |p, b| p.discard_bag(b).map(|()| 0),
                [Ok(0), sick.clone(), Ok(0)],
            ),
            (
                "collect",
                |p, b| p.collect_bag(b).map(|()| 0),
                [Ok(0), Ok(0), Ok(0)],
            ),
            (
                "sample",
                |p, b| p.sample_bag(b).map(|s| s.total_chunks),
                [Ok(4), Ok(6), Ok(4)],
            ),
            (
                "snapshot",
                |p, b| p.snapshot_bag(b).map(|c| c.len() as u64),
                [
                    Err(StorageError::NodeDown(StorageNodeId(1))),
                    sick.clone(),
                    Err(StorageError::Disconnected(StorageNodeId(1))),
                ],
            ),
        ];
        let faults = [Fault::Failed, Fault::DiskSick, Fault::DeadConnection];
        for (name, op, want) in table {
            for (fault, want) in faults.into_iter().zip(want) {
                let (mut port, bag) = faulty_cluster(fault, 1);
                assert_eq!(op(&mut port, bag), want, "{name} with node 1 {fault:?}");
            }
        }
        // Replicated, every origin is read from a live replica.
        for fault in faults {
            let (mut port, bag) = faulty_cluster(fault, 2);
            let got = port.snapshot_bag(bag).unwrap();
            let mut values: Vec<u8> = got.iter().map(|c| c.bytes()[0]).collect();
            values.sort_unstable();
            assert_eq!(values, (0..6).collect::<Vec<u8>>(), "{fault:?}");
        }
    }
}
