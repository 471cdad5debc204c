//! Task-facing runtime API: ports, contexts, and control.
//!
//! A worker executing a task (or a clone of it — same code, paper §2.1)
//! receives a [`TaskCtx`] giving chunk-level access to the task's input
//! bags (via prefetching readers, i.e. batch sampling) and output bags.
//! Between chunks the context transparently does two control-plane jobs:
//!
//! * **Cancellation** — it polls the shared [`KillSwitch`]; a worker whose
//!   `(task, generation)` has been killed (node-failure recovery) or whose
//!   node has been failed observes [`EngineError::Cancelled`] and unwinds
//!   without emitting a done record.
//! * **Overload signalling** — a worker that has been continuously busy
//!   for the clone interval sends a [`ControlMsg::CloneRequest`] to the
//!   master (paper §4.2: "a compute node generates a clone message
//!   periodically, when the CPU or its local network interface is
//!   saturated ... at least 2 seconds apart").

use crate::error::EngineError;
use crossbeam::channel::Sender;
use hurricane_common::{BagId, TaskInstanceId};
use hurricane_format::{Chunk, ChunkBuf, Record, RecordView};
use hurricane_storage::prefetch::Prefetcher;
use hurricane_storage::{BagClient, RpcPort, StorageCluster};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a worker sends when it asks for its task to be cloned: who it
/// is, and the three measurements of Eq. 2 only it can take (see
/// [`crate::heuristic`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneRequest {
    /// Task blueprint id.
    pub task: u32,
    /// Task generation the worker is executing.
    pub generation: u32,
    /// Compute node issuing the request.
    pub node: u32,
    /// Inputs (by index) the worker has removed chunks from: the
    /// work a clone would share, and the only inputs the master samples
    /// for what is left. Its other inputs it reads whole
    /// (`snapshot_input*`) and never removes from, so they are state a
    /// clone must load — paid for in `startup` — not work that is left.
    /// Shared with the sender's context: a request costs a refcount,
    /// not an allocation.
    pub consumed: Arc<[u32]>,
    /// Time since the worker's unit started.
    pub busy: Duration,
    /// Time from unit start to the worker's first `next_chunk` call:
    /// opening ports, `snapshot_input`, allocating tables — what a
    /// clone repeats before it shares any work. Never above `busy`.
    pub startup: Duration,
    /// Bytes of the chunks the worker has taken from its consumed
    /// inputs; over `busy − startup` it is the worker's own drain rate.
    pub taken_bytes: u64,
}

/// Control-plane messages from compute nodes to the application master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// A worker reports sustained load and asks for its task to be cloned.
    CloneRequest(CloneRequest),
    /// A compute node failed (detected or injected).
    NodeFailed {
        /// The failed node.
        node: u32,
    },
    /// A worker hit an unrecoverable application error; the master aborts
    /// the run and reports it.
    Fatal {
        /// Task whose worker failed.
        task: u32,
        /// Human-readable failure description.
        message: String,
    },
    /// Test hook: make the master thread exit immediately, losing all of
    /// its in-memory state (its durable state lives in the work bags).
    CrashMaster,
}

/// Cluster-wide cancellation state shared by master and workers.
///
/// Killing `(task, generation)` cancels every worker executing that task at
/// that generation or older; newer generations (restarts) are unaffected.
///
/// Workers poll [`KillSwitch::is_killed`] between chunks, which makes it
/// part of the record hot path's fixed overhead. The common case — nothing
/// has ever been killed — is served by one relaxed atomic load (`epoch ==
/// 0`); the RwLock + map lookup only runs once a kill or shutdown has
/// actually happened.
#[derive(Debug, Default)]
pub struct KillSwitch {
    killed: RwLock<HashMap<u32, u32>>,
    /// Bumped (release) on every kill/shutdown; a zero read means the map
    /// is empty and no shutdown was requested, so polling can skip the
    /// lock entirely.
    epoch: AtomicU64,
    shutdown: AtomicBool,
}

impl KillSwitch {
    /// Creates a switch with nothing killed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancels generations `<= generation` of `task`.
    pub fn kill(&self, task: u32, generation: u32) {
        let mut map = self.killed.write();
        let entry = map.entry(task).or_insert(generation);
        *entry = (*entry).max(generation);
        drop(map);
        // Publish after the map write so a poller that observes a nonzero
        // epoch and takes the slow path sees the new entry (the RwLock
        // acquire orders it regardless; the bump is the wake-up flag).
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Returns whether `(task, generation)` is cancelled.
    ///
    /// Fast path: a single relaxed load when nothing was ever killed.
    /// Relaxed suffices — a poller racing a concurrent kill may miss it
    /// this round, but cache coherence delivers the bump by the next poll
    /// (the "observed within one chunk" guarantee the tests pin down is
    /// about polls *after* the kill call returns, which the release bump
    /// plus the subsequent acquire-free read on the same cache line
    /// satisfies in practice; the slow path re-checks under the lock).
    pub fn is_killed(&self, task: u32, generation: u32) -> bool {
        if self.epoch.load(Ordering::Relaxed) == 0 {
            return false;
        }
        if self.shutdown.load(Ordering::Relaxed) {
            return true;
        }
        self.killed
            .read()
            .get(&task)
            .is_some_and(|&g| generation <= g)
    }

    /// Cancels everything — application shutdown, the runtime's one stop
    /// signal: it also ends every worker loop.
    pub fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Returns whether global shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A sequential reader over one (sealed) bag, with batch-sampling
/// prefetch driven by its own [`BagReader::next_chunk`] calls: no thread,
/// and no chunk claimed before the first call, so an input a task only
/// snapshots is never removed from.
pub struct BagReader {
    prefetcher: Prefetcher,
    bytes_read: u64,
    chunks_read: u64,
    cancel: Option<CancelProbe>,
}

/// The cancellation context a reader polls between chunks.
#[derive(Clone)]
pub struct CancelProbe {
    /// Shared kill map.
    pub kill: Arc<KillSwitch>,
    /// Task blueprint id of the executing worker.
    pub task: u32,
    /// Generation of the executing worker.
    pub generation: u32,
    /// The hosting compute node's liveness flag.
    pub node_alive: Arc<AtomicBool>,
}

impl CancelProbe {
    /// Returns whether the owning worker should abort.
    pub fn cancelled(&self) -> bool {
        !self.node_alive.load(Ordering::Relaxed) || self.kill.is_killed(self.task, self.generation)
    }
}

impl BagReader {
    /// Opens a reader over `bag` on the inline plane
    /// ([`BagClient::new`]) holding at most `batch_factor` chunks in
    /// flight.
    pub fn open(
        cluster: Arc<StorageCluster>,
        bag: BagId,
        seed: u64,
        batch_factor: usize,
        cancel: Option<CancelProbe>,
    ) -> Self {
        Self::open_client(BagClient::new(cluster, bag, seed), batch_factor, cancel)
    }

    /// Opens a reader over an existing bag client. The prefetcher spreads
    /// its `batch_factor`-chunk budget over probes to distinct storage
    /// nodes; with a client minted from a channel or TCP endpoint
    /// (`StorageEndpoint::client`) those probes are genuinely in flight
    /// together, and stay in flight while the caller works on the chunk
    /// a `next_chunk` returned.
    pub fn open_client(
        client: BagClient,
        batch_factor: usize,
        cancel: Option<CancelProbe>,
    ) -> Self {
        Self {
            prefetcher: Prefetcher::new(client, batch_factor),
            bytes_read: 0,
            chunks_read: 0,
            cancel,
        }
    }

    /// Returns the next chunk, or `None` once the bag is drained.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk>, EngineError> {
        if let Some(c) = &self.cancel {
            if c.cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        match self.prefetcher.recv()? {
            Some(chunk) => {
                self.bytes_read += chunk.len() as u64;
                self.chunks_read += 1;
                Ok(Some(chunk))
            }
            None => Ok(None),
        }
    }

    /// Bytes delivered so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Chunks delivered so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }
}

/// A buffering writer into one bag: records accumulate into chunks of the
/// configured size (never splitting a record), and each sealed chunk is
/// staged on the client's port for the next storage node in pseudorandom
/// cyclic order ([`BagClient::insert`]). The port's staging queues are
/// the one buffer of sealed chunks: they go out as one envelope per
/// node once the port's window fills — one storage call per node per
/// window instead of one per chunk — or at [`BagWriter::flush`].
pub struct BagWriter {
    client: BagClient,
    /// The shared single-pass chunk-building core: the boundary
    /// invariant, encode headroom, and overflow-carry protocol live in
    /// `hurricane_format::ChunkBuf`, not here.
    body: ChunkBuf,
    bytes_written: u64,
    chunks_written: u64,
}

impl BagWriter {
    /// Opens a writer targeting `bag` with the given chunk capacity,
    /// inserting each chunk as it is sealed (write batch factor 1).
    pub fn open(cluster: Arc<StorageCluster>, bag: BagId, seed: u64, chunk_size: usize) -> Self {
        Self::open_batched(cluster, bag, seed, chunk_size, 1)
    }

    /// Opens a writer that holds up to `batch_factor` sealed chunks and
    /// inserts them with batched storage calls.
    pub fn open_batched(
        cluster: Arc<StorageCluster>,
        bag: BagId,
        seed: u64,
        chunk_size: usize,
        batch_factor: usize,
    ) -> Self {
        Self::open_batched_client(BagClient::new(cluster, bag, seed), chunk_size, batch_factor)
    }

    /// Opens a batched writer over an existing bag client, whose port
    /// window becomes at least `batch_factor` chunks (a wider window the
    /// client already carries is kept: the engine's task writers come
    /// with `2 * batch_factor`). With a client minted from a channel or
    /// TCP endpoint, replicated batch flushes overlap their backup acks
    /// on the wire. A pinned client ignores the window: each sealed
    /// chunk is inserted synchronously, so writes land, and fail, in
    /// emission order.
    pub fn open_batched_client(
        mut client: BagClient,
        chunk_size: usize,
        batch_factor: usize,
    ) -> Self {
        client.set_coalescing(client.coalescing().max(batch_factor));
        Self {
            client,
            body: ChunkBuf::new(chunk_size),
            bytes_written: 0,
            chunks_written: 0,
        }
    }

    /// Appends one record, sealing a chunk (and, when that fills the
    /// port's window, inserting the staged chunks) when full.
    ///
    /// Encoding is single-pass: the record serializes straight into the
    /// chunk buffer (no sizing pass first). On capacity
    /// overflow the freshly written bytes are carried into the next
    /// chunk's buffer; an oversized record is rolled back and reported as
    /// [`hurricane_format::CodecError::RecordTooLarge`], leaving the
    /// writer usable.
    #[inline]
    pub fn write_record<T: Record>(&mut self, record: &T) -> Result<(), EngineError> {
        let start = self.body.len();
        record.encode(self.body.encode_buf());
        if let Some(chunk) = self.body.commit(start).map_err(EngineError::Codec)? {
            self.stage(chunk)?;
        }
        Ok(())
    }

    /// Appends a run of records: the same chunks, bytes and boundaries
    /// as a [`BagWriter::write_record`] loop over `records`, built by
    /// [`ChunkBuf::push_run`], which writes integer records and
    /// all-integer tuples with one word-store loop. An oversized record
    /// fails the call as it would fail the loop: the records before it
    /// are written and the writer stays usable.
    pub fn write_run<T: Record>(&mut self, records: &[T]) -> Result<(), EngineError> {
        let mut rest = records;
        while !rest.is_empty() {
            let (taken, sealed) = self.body.push_run(rest).map_err(EngineError::Codec)?;
            rest = &rest[taken..];
            if let Some(chunk) = sealed {
                self.stage(chunk)?;
            }
        }
        Ok(())
    }

    /// Appends one `(key, value)` record whose key is already encoded:
    /// `key`'s bytes verbatim, then `value` serialized straight after
    /// them in the chunk buffer. The same bytes, chunks and errors as
    /// [`BagWriter::write_record`] of the pair, with no owned key.
    #[inline]
    pub fn write_keyed<V: Record>(&mut self, key: &[u8], value: &V) -> Result<(), EngineError> {
        let start = self.body.len();
        let buf = self.body.encode_buf();
        buf.extend_from_slice(key);
        value.encode(buf);
        if let Some(chunk) = self.body.commit(start).map_err(EngineError::Codec)? {
            self.stage(chunk)?;
        }
        Ok(())
    }

    /// Inserts a pre-built chunk directly (bypassing the record buffer).
    /// Buffered records are sealed first so framing is preserved.
    pub fn emit_chunk(&mut self, chunk: Chunk) -> Result<(), EngineError> {
        self.seal_chunk()?;
        self.stage(chunk)
    }

    /// Seals buffered records into a chunk and stages it.
    fn seal_chunk(&mut self) -> Result<(), EngineError> {
        match self.body.take() {
            Some(chunk) => self.stage(chunk),
            None => Ok(()),
        }
    }

    /// Counts and inserts one complete chunk. Cold: runs once per chunk,
    /// which keeps it out of the record loops `write_record` inlines
    /// into.
    #[cold]
    fn stage(&mut self, chunk: Chunk) -> Result<(), EngineError> {
        self.bytes_written += chunk.len() as u64;
        self.chunks_written += 1;
        self.client.insert(chunk)?;
        Ok(())
    }

    /// Seals buffered records and inserts every chunk still staged on the
    /// client's port. After `flush` returns, all written data is visible
    /// in the bag.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.seal_chunk()?;
        self.client.flush()?;
        Ok(())
    }

    /// The bag this writer targets.
    pub fn bag_id(&self) -> BagId {
        self.client.bag_id()
    }

    /// Bytes in the chunks sealed so far, whether or not the port has
    /// sent them yet.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Chunks sealed so far.
    pub fn chunks_written(&self) -> u64 {
        self.chunks_written
    }
}

/// Everything a worker's task logic can touch.
pub struct TaskCtx {
    pub(crate) inputs: Vec<BagReader>,
    pub(crate) outputs: Vec<BagWriter>,
    pub(crate) input_bags: Vec<BagId>,
    /// The port [`TaskCtx::snapshot_input`] reads through, opened once
    /// per unit.
    pub(crate) control: RpcPort,
    pub(crate) instance: TaskInstanceId,
    pub(crate) node: u32,
    pub(crate) generation: u32,
    pub(crate) clone_tx: Option<Sender<ControlMsg>>,
    pub(crate) clone_interval: Duration,
    pub(crate) last_ping: Instant,
    /// When the worker's unit started (before its ports were opened).
    pub(crate) started: Instant,
    /// `started` to the first `next_chunk` call, once it has been made.
    pub(crate) startup: Option<Duration>,
    /// Inputs `next_chunk` has been called on, reported with each clone
    /// request; rebuilt only when a new input is first touched.
    pub(crate) consumed: Arc<[u32]>,
}

impl TaskCtx {
    /// The executing task instance (task + clone index).
    pub fn instance(&self) -> TaskInstanceId {
        self.instance
    }

    /// The compute node this worker runs on.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The configured chunk capacity in bytes
    /// ([`HurricaneConfig::chunk_size`](crate::HurricaneConfig)), which
    /// every output writer seals its chunks at: for a task that builds
    /// chunks itself and forwards them with [`TaskCtx::emit_chunk`] or
    /// [`TaskCtx::splat_chunk`].
    pub fn chunk_size(&self) -> usize {
        // Graph validation gives every task at least one output.
        self.outputs[0].body.chunk_size()
    }

    /// Removes the next chunk from input `i`, or `None` once drained.
    ///
    /// Also performs the periodic overload ping: a worker that keeps
    /// getting chunks without waiting is continuously busy, and every
    /// `clone_interval` it asks the master to consider cloning its task.
    pub fn next_chunk(&mut self, i: usize) -> Result<Option<Chunk>, EngineError> {
        if !self.consumed.contains(&(i as u32)) {
            self.consumed = self.consumed.iter().copied().chain([i as u32]).collect();
        }
        let startup = *self.startup.get_or_insert_with(|| self.started.elapsed());
        self.maybe_ping(startup);
        self.inputs[i].next_chunk()
    }

    /// Appends `record` to output `o`.
    pub fn write_record<T: Record>(&mut self, o: usize, record: &T) -> Result<(), EngineError> {
        self.outputs[o].write_record(record)
    }

    /// Inserts a pre-built chunk into output `o`.
    pub fn emit_chunk(&mut self, o: usize, chunk: Chunk) -> Result<(), EngineError> {
        self.outputs[o].emit_chunk(chunk)
    }

    /// Copies `chunk` verbatim into every output in `outs`.
    ///
    /// Chunks are refcounted, so each copy is an `Arc` bump — no decode,
    /// no re-encode, no byte copy. This is the cheapest possible fan-out
    /// for tasks that forward an input chunk to k outputs unchanged
    /// (e.g. PageRank's per-iteration edge copies). Record framing is
    /// preserved: each writer seals its buffered records first.
    pub fn splat_chunk(&mut self, outs: &[usize], chunk: &Chunk) -> Result<(), EngineError> {
        for &o in outs {
            self.outputs[o].emit_chunk(chunk.clone())?;
        }
        Ok(())
    }

    /// Decodes every record of input `i`'s next chunk, or `None` at end.
    ///
    /// This is the *owned* read loop: one `Vec<T>` (plus any per-record
    /// heap fields) per chunk. For hot loops that only inspect records,
    /// prefer [`TaskCtx::for_each_record`] / [`TaskCtx::fold_records`],
    /// which stream borrowed views and allocate nothing.
    pub fn next_records<T: Record>(&mut self, i: usize) -> Result<Option<Vec<T>>, EngineError> {
        match self.next_chunk(i)? {
            None => Ok(None),
            Some(c) => Ok(Some(hurricane_format::decode_all::<T>(&c)?)),
        }
    }

    /// Streams every remaining record of input `i` through `f` as a
    /// borrowed view ([`RecordView`]), draining the input. Returns the
    /// record count.
    ///
    /// Zero per-record allocation: views borrow each chunk's bytes, and
    /// the chunk is released before the next is fetched. Cancellation and
    /// overload pings keep their per-chunk cadence. The closure cannot
    /// touch `self` (the context is driving the iteration) — for
    /// read-then-write loops, hold the chunk yourself via
    /// [`TaskCtx::next_chunk`] and iterate it with
    /// [`hurricane_format::try_for_each_view`], writing through `self`
    /// from inside the closure.
    pub fn for_each_record<T, F>(&mut self, i: usize, mut f: F) -> Result<u64, EngineError>
    where
        T: RecordView,
        F: for<'a> FnMut(T::View<'a>),
    {
        let mut n = 0;
        while let Some(chunk) = self.next_chunk(i)? {
            n += hurricane_format::ChunkReader::<T>::new(&chunk).for_each(&mut f)?;
        }
        Ok(n)
    }

    /// Folds every remaining record of input `i` into an accumulator via
    /// borrowed views, draining the input.
    pub fn fold_records<T, Acc, F>(
        &mut self,
        i: usize,
        init: Acc,
        mut f: F,
    ) -> Result<Acc, EngineError>
    where
        T: RecordView,
        F: for<'a> FnMut(Acc, T::View<'a>) -> Acc,
    {
        let mut acc = init;
        while let Some(chunk) = self.next_chunk(i)? {
            acc = hurricane_format::ChunkReader::<T>::new(&chunk).fold(acc, &mut f)?;
        }
        Ok(acc)
    }

    /// Reads *all* of input `i` non-destructively, without advancing the
    /// shared read pointer, and streams every record through `f` as a
    /// borrowed view ([`RecordView`]). Returns the record count.
    ///
    /// This is the bag API's concurrent-full-scan mode (paper §4.3:
    /// "allowing multiple workers to read an entire bag concurrently").
    /// Use it for broadcast-style inputs that every clone needs in full —
    /// e.g. the sorted build side of a hash join, or the rank vector in a
    /// PageRank iteration — while the *other* input is consumed chunk-by-
    /// chunk to partition the work among clones. Like
    /// [`TaskCtx::for_each_record`], it owns nothing per record: a task
    /// that folds the snapshot into its own tables never holds a copy of
    /// it.
    pub fn for_each_snapshot_record<T, F>(&mut self, i: usize, mut f: F) -> Result<u64, EngineError>
    where
        T: RecordView,
        F: for<'a> FnMut(T::View<'a>),
    {
        self.fold_snapshot::<T, F>(i, &mut f, |f, view| f(view), |_, _| {})
    }

    /// Reads *all* of input `i` as owned records: the
    /// [`TaskCtx::for_each_snapshot_record`] fold collecting into a `Vec`.
    ///
    /// The `Vec` is reserved once, after the first chunk is decoded, for
    /// that chunk's records per byte times the bag's bytes, plus 1/32 so
    /// that chunk-to-chunk noise does not end in a doubling on the last
    /// push. That is the bag's own encoding density, which
    /// `size_of::<T>()` is no guide to (a `(u32, (f64, u32))` is 24 bytes
    /// in memory and about 12.5 on the wire). It is a hint, not a bound:
    /// a bag whose later chunks encode denser than its first grows the
    /// `Vec` as any push does.
    pub fn snapshot_input<T: RecordView>(&mut self, i: usize) -> Result<Vec<T>, EngineError> {
        let mut out = Vec::new();
        self.fold_snapshot::<T, _>(
            i,
            &mut out,
            |out, view| out.push(T::view_to_owned(view)),
            |out, hint| out.reserve_exact(hint.saturating_sub(out.len())),
        )?;
        Ok(out)
    }

    /// The one snapshot path: reads every chunk of input `i` through the
    /// control port and folds each record's view into `state` with
    /// `record`. After the first chunk, `first_chunk` is handed the
    /// record count the bag would hold at that chunk's density (see
    /// [`TaskCtx::snapshot_input`]).
    fn fold_snapshot<T, S>(
        &mut self,
        i: usize,
        state: &mut S,
        mut record: impl for<'a> FnMut(&mut S, T::View<'a>),
        first_chunk: impl FnOnce(&mut S, usize),
    ) -> Result<u64, EngineError>
    where
        T: RecordView,
    {
        let chunks = self.control.snapshot_bag(self.input_bags[i])?;
        let bytes: usize = chunks.iter().map(Chunk::len).sum();
        let mut first_chunk = Some(first_chunk);
        let mut n = 0;
        for c in &chunks {
            let records = hurricane_format::for_each_view::<T, _>(c, |view| record(state, view))?;
            n += records;
            if let Some(hint) = first_chunk.take() {
                let expected = (records as usize).saturating_mul(bytes) / c.len().max(1);
                // A record is at least a byte, which bounds the estimate.
                hint(state, (expected + expected / 32).min(bytes));
            }
        }
        Ok(n)
    }

    /// Flushes all output writers. Called by the worker after the logic
    /// returns; exposed for logic that interleaves phases.
    pub fn flush_outputs(&mut self) -> Result<(), EngineError> {
        for w in &mut self.outputs {
            w.flush()?;
        }
        Ok(())
    }

    fn maybe_ping(&mut self, startup: Duration) {
        let Some(tx) = &self.clone_tx else { return };
        if self.last_ping.elapsed() >= self.clone_interval {
            self.last_ping = Instant::now();
            let _ = tx.send(ControlMsg::CloneRequest(CloneRequest {
                task: self.instance.task.0,
                generation: self.generation,
                node: self.node,
                consumed: Arc::clone(&self.consumed),
                busy: self.started.elapsed(),
                startup,
                // Only consumed inputs are read through their readers;
                // snapshots go through the control port.
                taken_bytes: self.inputs.iter().map(BagReader::bytes_read).sum(),
            }));
        }
    }
}

/// Task code: what one circle in the application graph executes. Clones run
/// the same logic on the same input bag(s); the bag's exactly-once chunk
/// delivery partitions the work among them dynamically.
pub trait TaskLogic: Send + Sync + 'static {
    /// Runs the task body. Loop over `ctx.next_chunk(..)` until `None`;
    /// return `Err(EngineError::Cancelled)` bubbles untouched.
    fn run(&self, ctx: &mut TaskCtx) -> Result<(), EngineError>;
}

impl<F> TaskLogic for F
where
    F: Fn(&mut TaskCtx) -> Result<(), EngineError> + Send + Sync + 'static,
{
    fn run(&self, ctx: &mut TaskCtx) -> Result<(), EngineError> {
        self(ctx)
    }
}

/// Where a bounded merge parks accumulator state that no longer fits in
/// its memory budget.
///
/// A *run* is a scratch bag holding one sorted `(key, partial)` record
/// stream. The sink owns run lifecycle: [`SpillSink::create_run`] mints a
/// writer over a fresh scratch bag whose chunks read back in insertion
/// order (the manager pins each run to one storage node — bags are
/// unordered *across* nodes but FIFO within one), [`SpillSink::open_run`]
/// seals a finished run and returns an in-order reader, and
/// [`SpillSink::release_run`] reclaims a run's storage once it has been
/// folded into a later round. Runs not released by the merge (error
/// unwind) are discarded by the sink's owner when the merge task ends.
/// The sink sees every run a merge creates, so it is where spills are
/// counted.
pub trait SpillSink {
    /// Creates a fresh scratch run and returns a writer over it.
    fn create_run(&mut self) -> Result<BagWriter, EngineError>;
    /// Seals run `bag` and opens an in-insertion-order reader over it.
    fn open_run(&mut self, bag: BagId) -> Result<BagReader, EngineError>;
    /// Reclaims run `bag`'s storage.
    fn release_run(&mut self, bag: BagId) -> Result<(), EngineError>;
}

/// Application-specified merge: reconciles the partial outputs of a task's
/// clones into the single output an uncloned run would have produced
/// (paper §2.3).
pub trait MergeLogic: Send + Sync + 'static {
    /// Merges the per-clone partials for output index `output_index` into
    /// `out`. `partials[i]` reads clone `i`'s partial output bag.
    fn merge(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError>;

    /// Like [`MergeLogic::merge`], but bounded: implementations that
    /// accumulate per-key state may hold at most ~`budget` bytes of it in
    /// memory, draining overflow into scratch runs via `sink` and
    /// re-folding the runs in additional rounds until the result fits.
    ///
    /// The contract is unchanged — the output must be byte-identical to
    /// the unbounded [`MergeLogic::merge`] at any budget. The default
    /// simply runs the unbounded merge (correct for merges whose state
    /// does not grow with key cardinality: concat and reduce);
    /// `KeyedMerge` overrides it with a real external aggregation.
    fn merge_bounded(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
        _budget: u64,
        _sink: &mut dyn SpillSink,
    ) -> Result<(), EngineError> {
        self.merge(output_index, partials, out)
    }
}

impl<F> MergeLogic for F
where
    F: Fn(usize, &mut [BagReader], &mut BagWriter) -> Result<(), EngineError>
        + Send
        + Sync
        + 'static,
{
    fn merge(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        self(output_index, partials, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_storage::ClusterConfig;

    #[test]
    fn killswitch_generations() {
        let ks = KillSwitch::new();
        assert!(!ks.is_killed(1, 0));
        ks.kill(1, 2);
        assert!(ks.is_killed(1, 0));
        assert!(ks.is_killed(1, 2));
        assert!(!ks.is_killed(1, 3), "newer generation survives");
        assert!(!ks.is_killed(2, 0), "other tasks unaffected");
        // Kill level never regresses.
        ks.kill(1, 1);
        assert!(ks.is_killed(1, 2));
    }

    #[test]
    fn killswitch_shutdown_kills_all() {
        let ks = KillSwitch::new();
        ks.shutdown_all();
        assert!(ks.is_killed(7, 99));
        assert!(ks.is_shutdown());
    }

    #[test]
    fn killswitch_fast_path_stays_correct_after_first_kill() {
        let ks = KillSwitch::new();
        // Fresh switch: the epoch==0 fast path answers for every query.
        for t in 0..100 {
            assert!(!ks.is_killed(t, 0));
        }
        // After any kill, unrelated tasks must still (correctly) take the
        // slow path and come back unkilled.
        ks.kill(3, 1);
        assert!(ks.is_killed(3, 0));
        assert!(!ks.is_killed(4, 0), "unrelated task unaffected");
        assert!(!ks.is_killed(3, 2), "newer generation unaffected");
    }

    #[test]
    fn kill_is_observed_by_the_very_next_poll() {
        // The cancellation contract the epoch fast path must preserve:
        // once kill() returns, the next is_killed poll (i.e. within one
        // chunk of reading) observes it — from another thread too.
        let ks = Arc::new(KillSwitch::new());
        let ks2 = ks.clone();
        let t = std::thread::spawn(move || ks2.kill(9, 5));
        t.join().unwrap();
        assert!(ks.is_killed(9, 5), "poll after kill joined must observe it");
    }

    #[test]
    fn writer_reader_roundtrip() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open(cluster.clone(), bag, 1, 64);
        for i in 0..100u64 {
            w.write_record(&(i, i * 3)).unwrap();
        }
        w.flush().unwrap();
        cluster.seal_bag(bag).unwrap();
        assert!(w.chunks_written() > 1);
        let mut r = BagReader::open(cluster, bag, 2, 4, None);
        let mut seen = Vec::new();
        while let Some(c) = r.next_chunk().unwrap() {
            seen.extend(hurricane_format::decode_all::<(u64, u64)>(&c).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen[99], (99, 297));
        assert_eq!(r.chunks_read(), w.chunks_written());
    }

    #[test]
    fn writer_rejects_oversized_record() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open(cluster, bag, 1, 8);
        let err = w.write_record(&"way too long for eight bytes".to_string());
        assert!(matches!(err, Err(EngineError::Codec(_))));
    }

    #[test]
    fn reader_cancellation() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open(cluster.clone(), bag, 1, 32);
        for i in 0..10u64 {
            w.write_record(&i).unwrap();
        }
        w.flush().unwrap();
        cluster.seal_bag(bag).unwrap();
        let kill = Arc::new(KillSwitch::new());
        let probe = CancelProbe {
            kill: kill.clone(),
            task: 5,
            generation: 0,
            node_alive: Arc::new(AtomicBool::new(true)),
        };
        let mut r = BagReader::open(cluster, bag, 2, 2, Some(probe));
        assert!(r.next_chunk().unwrap().is_some());
        kill.kill(5, 0);
        assert_eq!(r.next_chunk(), Err(EngineError::Cancelled));
    }

    #[test]
    fn reader_node_death_cancels() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        cluster.seal_bag(bag).unwrap();
        let alive = Arc::new(AtomicBool::new(true));
        let probe = CancelProbe {
            kill: Arc::new(KillSwitch::new()),
            task: 1,
            generation: 0,
            node_alive: alive.clone(),
        };
        let mut r = BagReader::open(cluster, bag, 3, 2, Some(probe));
        alive.store(false, Ordering::Relaxed);
        assert_eq!(r.next_chunk(), Err(EngineError::Cancelled));
    }

    /// Chunks `bag` holds across the cluster, staged ones not included.
    fn chunks_in(cluster: &Arc<StorageCluster>, bag: BagId) -> u64 {
        let s = RpcPort::inline(cluster.clone()).sample_bag(bag).unwrap();
        s.total_chunks
    }

    #[test]
    fn batched_writer_defers_then_delivers_all() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open_batched(cluster.clone(), bag, 1, 64, 8);
        for i in 0..20u8 {
            w.emit_chunk(Chunk::from_vec(vec![i])).unwrap();
        }
        // 20 chunks sealed at window 8: two full windows went out, 4
        // are still staged on the port.
        assert_eq!(w.chunks_written(), 20);
        assert_eq!(chunks_in(&cluster, bag), 16);
        assert_eq!(w.client.port_stats().unwrap().flushes, 2);
        w.flush().unwrap();
        // N chunks at window W cost ⌈N / W⌉ flushes, every chunk went
        // through the staging queues once, and none is left in them.
        let stats = w.client.port_stats().unwrap();
        assert_eq!(stats.flushes, 20u64.div_ceil(8));
        assert_eq!(stats.staged_chunks, 20);
        assert_eq!(chunks_in(&cluster, bag), 20);
        // A flush with nothing staged costs nothing.
        w.flush().unwrap();
        assert_eq!(w.client.port_stats().unwrap().flushes, 3);
    }

    #[test]
    fn writer_keeps_a_wider_client_window() {
        // The engine's shape: the client arrives with a 2b window and
        // the writer is opened at b — one flush per 2b chunks.
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let client = BagClient::new(cluster.clone(), bag, 1).with_coalescing(8);
        let mut w = BagWriter::open_batched_client(client, 64, 4);
        for i in 0..20u8 {
            w.emit_chunk(Chunk::from_vec(vec![i])).unwrap();
        }
        assert_eq!(chunks_in(&cluster, bag), 16);
        w.flush().unwrap();
        assert_eq!(w.client.port_stats().unwrap().flushes, 3);
        assert_eq!(chunks_in(&cluster, bag), 20);
    }

    #[test]
    fn batched_writer_record_roundtrip() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open_batched(cluster.clone(), bag, 1, 16, 4);
        for i in 0..200u64 {
            w.write_record(&i).unwrap();
        }
        w.flush().unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut r = BagReader::open(cluster, bag, 2, 4, None);
        let mut seen = Vec::new();
        while let Some(c) = r.next_chunk().unwrap() {
            seen.extend(hurricane_format::decode_all::<u64>(&c).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..200u64).collect::<Vec<_>>());
        assert_eq!(r.chunks_read(), w.chunks_written());
        let stats = w.client.port_stats().unwrap();
        assert_eq!(stats.staged_chunks, w.chunks_written());
        assert_eq!(stats.flushes, w.chunks_written().div_ceil(4));
    }

    /// Builds a bare context over `cluster` for exercising the streaming
    /// APIs without a full runtime.
    fn test_ctx(
        cluster: &Arc<StorageCluster>,
        inputs: Vec<hurricane_common::BagId>,
        outputs: Vec<hurricane_common::BagId>,
    ) -> TaskCtx {
        TaskCtx {
            inputs: inputs
                .iter()
                .map(|&b| BagReader::open(cluster.clone(), b, 900 + b.0, 2, None))
                .collect(),
            outputs: outputs
                .iter()
                .map(|&b| BagWriter::open(cluster.clone(), b, 500 + b.0, 64))
                .collect(),
            input_bags: inputs,
            control: RpcPort::inline(cluster.clone()),
            instance: TaskInstanceId::original(hurricane_common::TaskId(0)),
            node: 0,
            generation: 0,
            clone_tx: None,
            clone_interval: Duration::from_secs(3600),
            last_ping: Instant::now(),
            started: Instant::now(),
            startup: None,
            consumed: Arc::new([]),
        }
    }

    fn filled_bag(cluster: &Arc<StorageCluster>, records: impl IntoIterator<Item = u64>) -> BagId {
        filled_bag_of(cluster, records, 64)
    }

    fn filled_bag_of<T: Record>(
        cluster: &Arc<StorageCluster>,
        records: impl IntoIterator<Item = T>,
        chunk_size: usize,
    ) -> BagId {
        let bag = cluster.create_bag();
        let mut w = BagWriter::open(cluster.clone(), bag, 1, chunk_size);
        for r in records {
            w.write_record(&r).unwrap();
        }
        w.flush().unwrap();
        cluster.seal_bag(bag).unwrap();
        bag
    }

    #[test]
    fn for_each_and_fold_stream_the_input() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let input = filled_bag(&cluster, 0..1000);
        let mut ctx = test_ctx(&cluster, vec![input], vec![]);
        let mut sum = 0u64;
        let n = ctx.for_each_record::<u64, _>(0, |v| sum += v).unwrap();
        assert_eq!(n, 1000);
        assert_eq!(sum, 999 * 1000 / 2);

        let input2 = filled_bag(&cluster, 0..100);
        let mut ctx2 = test_ctx(&cluster, vec![input2], vec![]);
        let max = ctx2
            .fold_records::<u64, u64, _>(0, 0, |acc, v| acc.max(v))
            .unwrap();
        assert_eq!(max, 99);
    }

    #[test]
    fn a_dangling_tuple_field_surfaces_as_a_codec_error() {
        // Seven varints in one chunk, read as pairs: three tuples, then
        // the typed error — not three tuples and `Ok`.
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let inputs = vec![filled_bag(&cluster, 0..7), filled_bag(&cluster, 0..7)];
        let truncated = EngineError::Codec(hurricane_format::CodecError::Truncated);
        let mut ctx = test_ctx(&cluster, inputs, vec![]);
        let mut seen = Vec::new();
        let end = ctx.for_each_record::<(u32, u32), _>(0, |pair| seen.push(pair));
        assert_eq!(end, Err(truncated.clone()));
        assert_eq!(seen, [(0, 1), (2, 3), (4, 5)]);
        let end = ctx.fold_records::<(u32, u32), u32, _>(1, 0, |n, _| n + 1);
        assert_eq!(end, Err(truncated));
    }

    #[test]
    fn splat_chunk_is_refcount_copy() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let outs: Vec<BagId> = (0..3).map(|_| cluster.create_bag()).collect();
        let mut ctx = test_ctx(&cluster, vec![], outs.clone());
        let chunk = Chunk::from_vec(vec![1, 2, 3, 4]);
        ctx.splat_chunk(&[0, 1, 2], &chunk).unwrap();
        ctx.flush_outputs().unwrap();
        for &bag in &outs {
            let chunks = RpcPort::inline(cluster.clone()).snapshot_bag(bag).unwrap();
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].bytes(), chunk.bytes());
            // Same backing storage: the splat cloned the refcount, not
            // the bytes.
            assert_eq!(chunks[0].shared().as_ptr(), chunk.shared().as_ptr());
        }
    }

    #[test]
    fn splat_chunk_seals_buffered_records_first() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let out = cluster.create_bag();
        let mut ctx = test_ctx(&cluster, vec![], vec![out]);
        ctx.write_record(0, &7u64).unwrap();
        ctx.splat_chunk(&[0], &Chunk::from_vec(vec![9])).unwrap();
        ctx.flush_outputs().unwrap();
        let chunks = RpcPort::inline(cluster.clone()).snapshot_bag(out).unwrap();
        assert_eq!(chunks.len(), 2, "buffered record sealed before splat");
    }

    #[test]
    fn snapshot_input_reads_everything_and_removes_nothing() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let input = filled_bag(&cluster, 0..500);
        let mut ctx = test_ctx(&cluster, vec![input], vec![]);
        let mut got: Vec<u64> = ctx.snapshot_input(0).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        // Non-destructive: a second snapshot sees the same records.
        assert_eq!(ctx.snapshot_input::<u64>(0).unwrap().len(), 500);
    }

    #[test]
    fn snapshot_view_fold_sees_what_snapshot_input_sees() {
        // Heap payloads (a string per record) and a bag over three nodes:
        // the fold sees every record, in the order snapshot_input lists
        // them, and leaves the bag for the next reader.
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let records = (0..700u32).map(|i| (i * 7 % 701, format!("v{i}")));
        let input = filled_bag_of(&cluster, records, 96);
        let mut ctx = test_ctx(&cluster, vec![input], vec![]);
        let mut folded: Vec<(u32, String)> = Vec::new();
        let n = ctx
            .for_each_snapshot_record::<(u32, String), _>(0, |(k, s)| folded.push((k, s.into())))
            .unwrap();
        assert_eq!(n, 700);
        assert_eq!(folded, ctx.snapshot_input::<(u32, String)>(0).unwrap());
        let mut keys: Vec<u32> = folded.iter().map(|&(k, _)| k).collect();
        let mut want: Vec<u32> = (0..700u32).map(|i| i * 7 % 701).collect();
        keys.sort_unstable();
        want.sort_unstable();
        assert_eq!(keys, want);
        // Nothing was removed: the consuming reader still gets it all.
        let mut consumed = 0;
        while let Some(chunk) = ctx.next_chunk(0).unwrap() {
            consumed += hurricane_format::decode_all::<(u32, String)>(&chunk)
                .unwrap()
                .len();
        }
        assert_eq!(consumed, 700);
    }

    #[test]
    fn snapshot_input_reserves_from_the_bags_own_density() {
        // `pagerank_rmat`'s rank table (24 bytes in memory, about 12 on
        // the wire, written in vertex order so the first chunk's ids are
        // the short ones) and plain words of every width.
        const N: u32 = 1 << 17;
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ranks = filled_bag_of(
            &cluster,
            (0..N).map(|v| (v, (1.0 / N as f64, v % 9))),
            64 * 1024,
        );
        let words = filled_bag_of(
            &cluster,
            (0..N as u64).map(|i| hurricane_common::SplitMix64::mix(i) >> (i % 57)),
            64 * 1024,
        );
        let mut ctx = test_ctx(&cluster, vec![ranks, words], vec![]);
        let table = ctx.snapshot_input::<(u32, (f64, u32))>(0).unwrap();
        let plain = ctx.snapshot_input::<u64>(1).unwrap();
        for (len, capacity) in [
            (table.len(), table.capacity()),
            (plain.len(), plain.capacity()),
        ] {
            assert_eq!(len, N as usize);
            // Never below `len`; above it by the hint's error (8% for the
            // table's short first ids, under 1% for the words) and its
            // 3% of slack. A `Vec` that outgrew its hint has doubled.
            assert!(
                capacity * 8 <= len * 9,
                "capacity {capacity} for {len} records"
            );
        }
    }

    #[test]
    fn clone_request_names_only_the_inputs_removed_from() {
        // The PageRank / HashJoin shape: input 0 read whole, input 1
        // consumed chunk by chunk.
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let state = filled_bag(&cluster, 0..100);
        let work = filled_bag(&cluster, 0..100);
        let mut ctx = test_ctx(&cluster, vec![state, work], vec![]);
        let (tx, rx) = crossbeam::channel::unbounded();
        ctx.clone_tx = Some(tx);
        ctx.clone_interval = Duration::ZERO;
        let _: Vec<u64> = ctx.snapshot_input(0).unwrap();
        let first = ctx.next_chunk(1).unwrap().expect("work is not empty");
        let request = |msg| match msg {
            ControlMsg::CloneRequest(r) => r,
            other => panic!("unexpected message {other:?}"),
        };
        // The ping precedes the fetch: the first request has taken
        // nothing yet, and its start-up covers the snapshot load.
        let r = request(rx.try_recv().unwrap());
        assert_eq!(*r.consumed, [1]);
        assert_eq!(r.taken_bytes, 0);
        assert!(r.startup <= r.busy);
        // The second reports the first chunk's bytes against the same
        // start-up.
        ctx.next_chunk(1).unwrap();
        let r2 = request(rx.try_recv().unwrap());
        assert_eq!(r2.taken_bytes, first.len() as u64);
        assert_eq!(r2.startup, r.startup);
        assert!(r2.busy >= r.busy);
    }

    #[test]
    fn emit_chunk_flushes_buffer_first() {
        // Interleaving write_record and emit_chunk must preserve record
        // framing: the buffered records are sealed before the raw chunk.
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut w = BagWriter::open(cluster.clone(), bag, 1, 1024);
        w.write_record(&1u64).unwrap();
        w.emit_chunk(Chunk::from_vec(vec![9])).unwrap();
        w.flush().unwrap();
        cluster.seal_bag(bag).unwrap();
        assert_eq!(w.chunks_written(), 2);
    }
}
