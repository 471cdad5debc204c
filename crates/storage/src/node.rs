//! A single storage node.
//!
//! Paper §4.3: bags are implemented at each storage node as append-only
//! files; an insert atomically appends a chunk, and a remove reads the next
//! chunk sequentially, advancing a file pointer so the same chunk is never
//! returned twice. End-of-file means all chunks stored *at this node* have
//! been removed. The bag API additionally supports rewinding (reuse of a
//! bag's contents), non-destructive reads (multiple workers scanning a full
//! bag concurrently), sampling the amount of data remaining, and garbage
//! collection.
//!
//! Concurrency: node state is sharded per bag. The bag directory is an
//! `RwLock<HashMap<BagId, Arc<BagFile>>>` — the hot path takes a *read*
//! lock only long enough to clone the bag's `Arc`, then operates under
//! that bag's own mutex. Concurrent workers touching different bags never
//! contend, and workers on the same bag contend only with each other,
//! which is what lets task clones (paper §4.2) scale with worker count.
//! Each stream keeps running counters (`live`, `remaining_bytes`,
//! `total_bytes`) so [`StorageNode::sample`] reads the node's own stream
//! under the bag lock in O(1) instead of scanning unread chunks.
//!
//! Durability ([`StorageNode::durable`], `SEGMENT.md`): a node given a
//! [`SegmentStore`] journals every append, consumed-pointer advance, and
//! lifecycle event to one segment log per bag under the same per-bag
//! locks, and [`StorageNode::restart_recover`] rebuilds bags, running
//! counters, and consumed-pointer state by scanning those logs — the
//! paper's disk-backed storage nodes, where a process crash loses no
//! acknowledged data. A bag's log is created by the first frame
//! journaled for it: looking a bag up, probing or sampling it touches no
//! file, and an insert's frames are encoded before the bag lock is
//! taken, so the lock covers one append. The journal doubles as a spill
//! target: above a configurable resident-byte threshold the node drops
//! in-memory chunk copies coldest-bag-first and re-reads them from their
//! recorded frame locations on demand, so bags larger than RAM degrade
//! to disk serves instead of falling over.
//!
//! The node also supports fault injection ([`StorageNode::fail`] /
//! [`StorageNode::recover`]) used by the fault-tolerance tests and the
//! Figure 11 reproduction, and a draining mode used for dynamic node
//! removal (paper §3.4).

use crate::error::StorageError;
use crate::segment::{self, SegmentLog, SegmentStore};
use hurricane_common::metrics::Counter;
use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time estimate of a bag's contents at one node (or summed
/// across the cluster). This is the "sampling" operation the application
/// master uses to estimate `T`, the remaining task time, in the cloning
/// heuristic (paper §4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BagSample {
    /// Chunks ever inserted.
    pub total_chunks: u64,
    /// Chunks already removed (pointer position).
    pub removed_chunks: u64,
    /// Chunks still removable.
    pub remaining_chunks: u64,
    /// Bytes still removable.
    pub remaining_bytes: u64,
    /// Bytes ever inserted. Spilled (non-resident) chunks count here in
    /// full — the running counters describe the bag's *contents*, not
    /// its memory footprint.
    pub total_bytes: u64,
    /// Bytes of this bag currently held in memory at the node (all
    /// streams, primary and mirrored). The gap to `total_bytes` is spill
    /// pressure: chunks serving from the segment logs instead of RAM.
    pub resident_bytes: u64,
    /// Whether the bag is sealed against further inserts.
    pub sealed: bool,
}

impl BagSample {
    /// Merges a per-node sample into a cluster-wide aggregate.
    pub fn merge(&mut self, other: &BagSample) {
        self.total_chunks += other.total_chunks;
        self.removed_chunks += other.removed_chunks;
        self.remaining_chunks += other.remaining_chunks;
        self.remaining_bytes += other.remaining_bytes;
        self.total_bytes += other.total_bytes;
        self.resident_bytes += other.resident_bytes;
        self.sealed &= other.sealed;
    }

    /// Fraction of inserted chunks already removed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_chunks == 0 {
            0.0
        } else {
            self.removed_chunks as f64 / self.total_chunks as f64
        }
    }
}

/// Outcome of a batched remove at one node (or, via the cluster, at one
/// replica group): the removed chunks plus the stream state where the
/// batch stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRemoveBatch {
    /// Chunks removed, in pointer order. May be empty.
    pub chunks: Vec<Chunk>,
    /// Identity of the removed chunks (run-contiguous ranges, in serve
    /// order). Mirrors forward these so backups consume exactly the
    /// served chunks — see [`TagSegment`].
    pub tags: Vec<TagSegment>,
    /// True when the stream had no further chunk at batch end (the batch
    /// came back short). False when the batch filled `max_n`.
    pub exhausted: bool,
    /// True when `exhausted` *and* the bag is sealed: end-of-file.
    pub eof: bool,
}

impl NodeRemoveBatch {
    /// Drops every chunk whose identity falls in `already` — chunks a
    /// claim ([`StorageNode::claim_consumed`]) revealed were delivered
    /// by another replica's concurrent serve — rebuilding `tags` to
    /// match the surviving chunks.
    ///
    /// `tags` expands positionally to one identity per chunk in serve
    /// order, which is how the kept chunks are matched back up.
    pub fn drop_already_consumed(&mut self, already: &[TagSegment]) {
        if already.is_empty() || self.chunks.is_empty() {
            return;
        }
        let hit = |run: u64, k: u32| {
            already
                .iter()
                .any(|s| s.run == run && k >= s.start && k - s.start < s.len)
        };
        let ids = self
            .tags
            .iter()
            .flat_map(|s| (0..s.len).map(move |j| (s.run, s.start + j)));
        let mut kept_tags = Vec::new();
        let mut kept = Vec::with_capacity(self.chunks.len());
        for (chunk, (run, k)) in std::mem::take(&mut self.chunks).into_iter().zip(ids) {
            if !hit(run, k) {
                push_tag(&mut kept_tags, (run, k));
                kept.push(chunk);
            }
        }
        self.chunks = kept;
        self.tags = kept_tags;
    }
}

/// Identity of a contiguous range of chunks from one insert run: chunks
/// `start .. start + len` of run `run`.
///
/// Every insert run (one batched append fanned out to a replica group)
/// is minted a process-globally unique id by [`next_run_id`], carried by
/// all replicas of that run. A chunk's identity within its origin stream
/// is `(run, k)` — its run id plus its position within the run. Pointer
/// mirroring names the *identities* a serving replica consumed rather
/// than a count, so replicas whose logs diverged after a partial
/// replicated insert (one replica missed a run the other recorded) can
/// never skip past a chunk the serving replica did not actually serve —
/// the double-serve hazard of the old count-based protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagSegment {
    /// Insert-run id ([`next_run_id`]).
    pub run: u64,
    /// First in-run position covered.
    pub start: u32,
    /// Number of consecutive positions covered.
    pub len: u32,
}

/// Mints a process-globally unique insert-run id (never 0).
///
/// Writers mint one id per logical insert run *before* the replica
/// fan-out, so every replica stores the run's chunks under identical
/// `(run, k)` tags. Retransmissions of the same request reuse the id —
/// a retransmitted run is the same logical run.
///
/// Run ids are unique within one writer process. The cluster model has a
/// single driver process minting all inserts (cluster metadata is
/// likewise process-local); a multi-driver deployment would need a
/// writer-id prefix here.
pub fn next_run_id() -> u64 {
    static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// Location of one journaled frame in its bag's segment log: the spill
/// index entry that lets a dropped chunk be re-read on demand.
#[derive(Debug, Clone, Copy)]
struct FrameLoc {
    /// Offset of the frame's length prefix in the log.
    offset: u64,
    /// Total encoded frame length.
    frame_len: u32,
}

/// One entry of a stream's append-only log: the chunk itself when
/// resident, or just its journal location once spilled.
#[derive(Debug)]
enum Slot {
    /// Chunk held in memory; `at` is its journal location (present on
    /// durable nodes) so it can be spilled later.
    Resident { chunk: Chunk, at: Option<FrameLoc> },
    /// Chunk dropped from memory; `len` is its payload length, kept so
    /// byte accounting never needs a disk read.
    Spilled { at: FrameLoc, len: u32 },
}

impl Slot {
    fn len(&self) -> u64 {
        match self {
            Slot::Resident { chunk, .. } => chunk.len() as u64,
            Slot::Spilled { len, .. } => u64::from(*len),
        }
    }
}

/// One replicated chunk stream within a bag file: the chunks addressed
/// to one *origin* (primary node), each carrying its `(run, k)` identity
/// tag, with a consumption bitmap, a consumed-prefix pointer, and
/// running counts of live entries and unread and total bytes — the
/// own-origin stream's counters are what [`StorageNode::sample`] reads.
///
/// Consumption is *hole-tolerant*: a mirror of a remove served by
/// another replica marks the served chunks' tags consumed wherever they
/// sit in this log, which may leave unconsumed chunks *before* consumed
/// ones when replica logs diverged (a partial replicated insert landed
/// here but not at the serving replica). Serving skips consumed entries,
/// so the marooned chunks are still served exactly once on failover.
///
/// On a durable node every mutation is journaled to the bag's log under
/// this stream's origin first: appends as `DATA` frames (before the
/// insert is acknowledged), serves and mirrors as `CONSUME` frames,
/// rewinds as `REWIND` — replaying the log deterministically rebuilds
/// the stream, consumed pointer included.
#[derive(Debug, Default)]
struct Stream {
    slots: Vec<Slot>,
    /// `(run, k)` identity per entry, parallel to `slots`.
    tags: Vec<(u64, u32)>,
    /// Per-entry consumption marks, parallel to `slots`. Set by a local
    /// serve or by a mirror naming the entry's tag; never cleared except
    /// by rewind/discard.
    consumed: Vec<bool>,
    /// Index of the first entry that may still be unconsumed (everything
    /// before it is consumed). Lazily advanced over the consumed prefix.
    next: usize,
    /// Entries not yet consumed, anywhere in the log (O(1) drain check).
    live: usize,
    /// Sum of unconsumed chunk lengths, maintained on every append,
    /// remove, mirror, and rewind.
    remaining_bytes: u64,
    /// Sum of all chunk lengths ever appended to this stream. Kept per
    /// stream (not per file) so sampling the own stream never counts
    /// bytes mirrored here for other primaries. Spilled chunks count in
    /// full.
    total_bytes: u64,
    /// Identities named consumed (by a mirror or a claim) before this
    /// log recorded their insert — a claim racing a replicated insert
    /// still in flight, or a serve of a run this replica missed. An
    /// appended chunk matching one lands already consumed: whoever's
    /// serve named the identity delivered that chunk, so serving it
    /// here again would break exactly-once.
    pre_consumed: HashSet<(u64, u32)>,
}

/// What one [`Stream::consume_tags`] call did.
#[derive(Debug, Default)]
struct ConsumeOutcome {
    /// Entries newly marked consumed.
    newly: u64,
    /// Byte total of the newly consumed entries.
    bytes: u64,
    /// Identities newly remembered as pre-consumed (named by the
    /// request but never recorded in this log).
    pre: u64,
    /// Sub-segments of the request that were already consumed here
    /// before this call — each chunk a concurrent or earlier serve at
    /// this node delivered.
    already: Vec<TagSegment>,
}

/// Appends identity `(run, k)` to a segment list, extending the last
/// segment when run-contiguous.
fn push_tag(tags: &mut Vec<TagSegment>, (run, k): (u64, u32)) {
    match tags.last_mut() {
        Some(seg) if seg.run == run && seg.start + seg.len == k => seg.len += 1,
        _ => tags.push(TagSegment {
            run,
            start: k,
            len: 1,
        }),
    }
}

/// Upper bound on the identity positions one consume/claim request may
/// name and still get per-identity bookkeeping (already-consumed
/// reporting, pre-consume recording). Far above any legitimate serve
/// batch; a hostile request naming more falls back to the plain
/// containment scan so it cannot balloon memory.
const CLAIM_POSITIONS_CAP: u64 = 1 << 16;

impl Stream {
    /// Appends a chunk already journaled at `at` (or memory-only when
    /// `None`), already consumed if its identity was claimed before the
    /// insert arrived (see [`Stream::pre_consumed`]). Returns the chunk's
    /// length, the caller's resident-byte delta.
    fn push(&mut self, chunk: Chunk, run: u64, k: u32, at: Option<FrameLoc>) -> u64 {
        let len = chunk.len() as u64;
        self.total_bytes += len;
        self.slots.push(Slot::Resident { chunk, at });
        self.tags.push((run, k));
        let claimed = self.pre_consumed.remove(&(run, k));
        self.consumed.push(claimed);
        if !claimed {
            self.live += 1;
            self.remaining_bytes += len;
        }
        len
    }

    /// Rebuilds one entry from a recovery scan: the chunk stays in the
    /// log (recovered streams start fully spilled, resident bytes zero).
    fn recover_entry(&mut self, at: FrameLoc, len: u32, run: u64, k: u32) {
        self.total_bytes += u64::from(len);
        self.slots.push(Slot::Spilled { at, len });
        self.tags.push((run, k));
        let claimed = self.pre_consumed.remove(&(run, k));
        self.consumed.push(claimed);
        if !claimed {
            self.live += 1;
            self.remaining_bytes += u64::from(len);
        }
    }

    /// The chunk at `i`, re-read from the bag's segment log `log` when
    /// spilled. A failed or CRC-corrupt read-back is an error, not a
    /// panic — the caller refuses the serve and the chunk stays live for
    /// a retry (transient corruption) or a replica failover.
    fn chunk_at(&self, i: usize, log: Option<&SegmentLog>) -> io::Result<Chunk> {
        match &self.slots[i] {
            Slot::Resident { chunk, .. } => Ok(chunk.clone()),
            Slot::Spilled { at, .. } => {
                let log = log.ok_or_else(|| io::Error::other("spilled slot without a log"))?;
                let frame = log.read(at.offset, at.frame_len as usize)?;
                let (.., payload) = segment::decode_data_frame(&frame).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "spilled frame failed CRC on read-back",
                    )
                })?;
                Ok(Chunk::copy_from_slice(payload))
            }
        }
    }

    /// Indices of the next up-to-`max_n` live entries past the consumed
    /// prefix, **without consuming them**. Serves scan first, then
    /// journal the consume, then commit ([`Stream::commit_consumed`]) —
    /// a failure in between leaves every scanned chunk still live.
    fn peek_live(&self, max_n: usize, picked: &mut Vec<usize>) {
        let mut i = self.next;
        while picked.len() < max_n && i < self.slots.len() {
            if !self.consumed[i] {
                picked.push(i);
            }
            i += 1;
        }
    }

    /// Marks the entries scanned by [`Stream::peek_live`] consumed and
    /// advances the counters. Infallible: all I/O happened earlier.
    fn commit_consumed(&mut self, picked: &[usize]) {
        for &i in picked {
            self.consumed[i] = true;
            self.live -= 1;
            self.remaining_bytes -= self.slots[i].len();
        }
        while self.next < self.slots.len() && self.consumed[self.next] {
            self.next += 1;
        }
    }

    /// Marks the chunks identified by `segs` consumed (the mirror of a
    /// remove served by another replica, or a fallback reader's claim).
    /// Entries already consumed are left alone — and reported back via
    /// [`ConsumeOutcome::already`] — so reapplying a mirror is
    /// idempotent and a claimer learns which chunks a concurrent serve
    /// here already delivered. Identities this log never recorded are
    /// remembered as pre-consumed: if their replicated insert lands
    /// later it arrives already consumed (the serve that named the
    /// identity delivered the chunk).
    fn consume_tags(&mut self, segs: &[TagSegment]) -> ConsumeOutcome {
        let mut out = ConsumeOutcome::default();
        let want: u64 = segs.iter().map(|s| u64::from(s.len)).sum();
        if want > CLAIM_POSITIONS_CAP {
            // Defensive path for requests naming absurdly many
            // identities: containment scan only, no per-identity
            // bookkeeping a hostile request could balloon.
            let mut i = self.next;
            while i < self.slots.len() && out.newly < want {
                if !self.consumed[i] {
                    let (run, k) = self.tags[i];
                    if segs
                        .iter()
                        .any(|s| s.run == run && k >= s.start && k - s.start < s.len)
                    {
                        self.consumed[i] = true;
                        self.live -= 1;
                        out.bytes += self.slots[i].len();
                        out.newly += 1;
                    }
                }
                i += 1;
            }
        } else {
            // Expand the request into its individual identities; the
            // set tracks which are still unaccounted for.
            let mut wanted: HashSet<(u64, u32)> = HashSet::with_capacity(want as usize);
            for seg in segs {
                for j in 0..seg.len {
                    if let Some(k) = seg.start.checked_add(j) {
                        wanted.insert((seg.run, k));
                    }
                }
            }
            // Fast scan from the consumed-prefix pointer — the common
            // mirror case names only entries at or past it.
            for i in self.next..self.slots.len() {
                if wanted.is_empty() {
                    break;
                }
                if wanted.remove(&self.tags[i]) {
                    if self.consumed[i] {
                        push_tag(&mut out.already, self.tags[i]);
                    } else {
                        self.consumed[i] = true;
                        self.live -= 1;
                        out.bytes += self.slots[i].len();
                        out.newly += 1;
                    }
                }
            }
            // Anything left sits in the consumed prefix (served here
            // earlier) or was never recorded here at all.
            if !wanted.is_empty() {
                for i in 0..self.next {
                    if wanted.remove(&self.tags[i]) {
                        push_tag(&mut out.already, self.tags[i]);
                    }
                }
                for id in wanted {
                    if self.pre_consumed.insert(id) {
                        out.pre += 1;
                    } else {
                        // A previous claim already named it: that
                        // claimer delivered (or is delivering) the
                        // chunk, so it counts as already consumed.
                        push_tag(&mut out.already, id);
                    }
                }
            }
        }
        while self.next < self.slots.len() && self.consumed[self.next] {
            self.next += 1;
        }
        self.remaining_bytes -= out.bytes;
        out
    }

    fn rewind(&mut self) {
        self.next = 0;
        self.consumed.iter_mut().for_each(|c| *c = false);
        self.live = self.slots.len();
        self.remaining_bytes = self.total_bytes;
        // A rewind restarts the bag's exactly-once epoch: claims made
        // against the previous pass no longer apply.
        self.pre_consumed.clear();
    }

    /// Drops in-memory copies of journaled chunks front-to-back until
    /// `need` bytes are freed (or the stream has nothing left to spill).
    /// Returns the bytes actually freed. Memory-only entries (no journal
    /// location) cannot be spilled and are skipped.
    fn spill(&mut self, need: &mut u64) -> u64 {
        let mut freed = 0u64;
        for slot in self.slots.iter_mut() {
            if *need == 0 {
                break;
            }
            if let Slot::Resident {
                chunk,
                at: Some(at),
            } = slot
            {
                let len = chunk.len() as u64;
                let spilled = Slot::Spilled {
                    at: *at,
                    len: chunk.len() as u32,
                };
                *slot = spilled;
                freed += len;
                *need = need.saturating_sub(len);
            }
        }
        freed
    }
}

/// One bag's state at one node: per-origin append-only chunk streams.
///
/// A node acting as primary stores chunks under its own index; acting as
/// a backup it stores mirrored chunks under the *primary's* index. Each
/// stream keeps its own read pointer — a backup's pointer is advanced by
/// mirror messages so that a failover resumes near the primary's
/// position, and a primary's reads can never consume (or double-serve)
/// another primary's mirrored data.
#[derive(Debug, Default)]
struct BagFileInner {
    streams: HashMap<u32, Stream>,
    sealed: bool,
    collected: bool,
    /// Bytes of this bag held in memory at the node, every stream
    /// (primary and mirrored): what sampling reports as spill pressure.
    resident_bytes: u64,
    log: BagLog,
}

/// One bag's segment log at a durable node (see [`StorageNode::journal`]).
#[derive(Debug, Default)]
struct BagLog {
    /// The open log, once a frame has been journaled for the bag (or
    /// recovery found one): `None` on a memory-only node and for a bag
    /// that has journaled nothing yet.
    handle: Option<SegmentLog>,
    /// Set when an append to the log failed: it may end in torn bytes,
    /// so every further append is refused — a later success would bury
    /// the tear *inside* the log, past the recovery scan's torn-tail
    /// cut, corrupting everything after it. Cleared when a discard or
    /// collect truncates the log, tear included.
    poisoned: bool,
}

/// One bag's state behind its own lock: operations on different bags at
/// the same node proceed fully in parallel.
#[derive(Debug, Default)]
struct BagFile {
    inner: Mutex<BagFileInner>,
    /// Last-touch stamp from the node's logical clock; the spill policy
    /// evicts coldest-bag-first so hot bags stay resident.
    touch: AtomicU64,
}

/// Hot-path statistics for one storage node.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Chunks appended.
    pub inserts: Counter,
    /// Chunks removed (served to workers).
    pub removes: Counter,
    /// Remove probes that found nothing (the probing cost near bag
    /// emptiness discussed in paper §3.3).
    pub empty_probes: Counter,
    /// Bytes appended.
    pub bytes_in: Counter,
    /// Bytes served.
    pub bytes_out: Counter,
    /// Batched operations served (each covers ≥ 1 chunk).
    pub batch_ops: Counter,
}

/// A storage node: the Hurricane server process of paper §3.
pub struct StorageNode {
    id: StorageNodeId,
    down: AtomicBool,
    draining: AtomicBool,
    bags: RwLock<HashMap<BagId, Arc<BagFile>>>,
    stats: NodeStats,
    /// Segment-log medium on a durable node; `None` keeps the node
    /// memory-only with exactly the pre-durability behavior.
    store: Option<SegmentStore>,
    /// Resident-byte budget: above it, [`StorageNode::maybe_spill`]
    /// drops journaled in-memory chunk copies coldest-bag-first.
    spill_threshold: u64,
    /// Bytes of chunk payload currently resident across all bags.
    resident: AtomicU64,
    /// Logical clock for bag touch stamps (spill recency ordering).
    touch_clock: AtomicU64,
}

impl StorageNode {
    /// Creates an empty, healthy, memory-only node.
    pub fn new(id: StorageNodeId) -> Self {
        Self {
            id,
            down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            bags: RwLock::new(HashMap::new()),
            stats: NodeStats::default(),
            store: None,
            spill_threshold: u64::MAX,
            resident: AtomicU64::new(0),
            touch_clock: AtomicU64::new(0),
        }
    }

    /// Creates a durable node journaling to `store`, recovering whatever
    /// state the store already holds (the restart path — a fresh data
    /// dir recovers to empty). `spill_threshold_bytes` bounds resident
    /// chunk memory; `u64::MAX` keeps everything resident.
    pub fn durable(
        id: StorageNodeId,
        store: SegmentStore,
        spill_threshold_bytes: u64,
    ) -> io::Result<Self> {
        let mut node = Self::new(id);
        node.store = Some(store);
        node.spill_threshold = spill_threshold_bytes;
        node.restart_recover()?;
        Ok(node)
    }

    /// This node's identifier.
    pub fn id(&self) -> StorageNodeId {
        self.id
    }

    /// Access to the node's statistics counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether this node journals to a segment store.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Bytes of chunk payload currently resident in memory across all
    /// bags (the quantity [`StorageNode::durable`]'s threshold bounds).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Marks the node as crashed: every subsequent operation fails with
    /// [`StorageError::NodeDown`] until [`StorageNode::recover`].
    pub fn fail(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Brings a crashed node back. Its in-memory data is intact — the
    /// process survived. A crash that loses the process's memory is
    /// [`StorageNode::crash_lose_memory`] followed by
    /// [`StorageNode::restart_recover`] from the segment store.
    pub fn recover(&self) {
        self.down.store(false, Ordering::Release);
    }

    /// Simulates losing the process: drops every bag and all resident
    /// chunk memory. What survives is exactly the segment store — the
    /// fault simulator's `Crash` uses this so a subsequent
    /// [`StorageNode::restart_recover`] proves recovery reads only the
    /// journal. Memory-only nodes lose everything.
    pub fn crash_lose_memory(&self) {
        self.bags.write().clear();
        self.resident.store(0, Ordering::Relaxed);
    }

    /// Rebuilds all bag state from the segment store: replays each bag's
    /// log in order (appends, consumed-pointer advances and rewinds per
    /// origin stream; seal and collect for the bag), truncating any torn
    /// tail a mid-append crash left. Recovered chunks start spilled —
    /// resident memory is zero until reads warm nothing (serves read
    /// through from the log). Memory-only nodes are a no-op. A store
    /// holding the per-stream layout this format replaced is refused
    /// with [`io::ErrorKind::InvalidData`] ([`segment::parse_log_name`]).
    pub fn restart_recover(&self) -> io::Result<()> {
        let Some(store) = self.store.clone() else {
            return Ok(());
        };
        let mut bags = HashMap::new();
        for name in store.list_logs()? {
            let Some(bag) = segment::parse_log_name(&name)? else {
                continue;
            };
            let log = store.open_log(&name)?;
            let bytes = log.read_all()?;
            let (frames, valid) = segment::scan(&bytes);
            if valid < bytes.len() as u64 {
                log.truncate(valid)?;
            }
            let mut inner = BagFileInner::default();
            inner.log.handle = Some(log);
            for frame in frames {
                match frame.record {
                    segment::Record::Data {
                        origin,
                        run,
                        k,
                        payload_len,
                    } => inner.streams.entry(origin).or_default().recover_entry(
                        FrameLoc {
                            offset: frame.offset,
                            frame_len: frame.frame_len,
                        },
                        payload_len,
                        run,
                        k,
                    ),
                    segment::Record::Consume { origin, tags } => {
                        inner.streams.entry(origin).or_default().consume_tags(&tags);
                    }
                    segment::Record::Rewind { origin } => {
                        inner.streams.entry(origin).or_default().rewind();
                    }
                    segment::Record::Seal => inner.sealed = true,
                    segment::Record::Collect => inner.collected = true,
                }
            }
            let file = BagFile {
                inner: Mutex::new(inner),
                touch: AtomicU64::new(0),
            };
            bags.insert(bag, Arc::new(file));
        }
        *self.bags.write() = bags;
        self.resident.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes every open segment log to stable storage (the fsync a
    /// graceful shutdown owes; routine appends ride the OS page cache,
    /// which survives a process kill but not a host failure).
    pub fn sync_all(&self) -> io::Result<()> {
        let files: Vec<Arc<BagFile>> = self.bags.read().values().cloned().collect();
        for file in files {
            if let Some(log) = &file.inner.lock().log.handle {
                log.sync()?;
            }
        }
        Ok(())
    }

    /// Returns whether the node is currently down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Puts the node into draining mode: inserts are rejected, removes
    /// still served (paper §3.4, storage-node removal).
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Returns whether the node is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Returns true when every bag at this node has been fully removed,
    /// i.e. a draining node can now be decommissioned.
    pub fn is_drained(&self) -> Result<bool, StorageError> {
        self.check_up()?;
        let bags: Vec<Arc<BagFile>> = self.bags.read().values().cloned().collect();
        Ok(bags.iter().all(|b| {
            let inner = b.inner.lock();
            inner.collected || inner.streams.values().all(|s| s.live == 0)
        }))
    }

    fn check_up(&self) -> Result<(), StorageError> {
        if self.is_down() {
            Err(StorageError::NodeDown(self.id))
        } else {
            Ok(())
        }
    }

    /// Classifies a segment-log I/O failure at this node (`ENOSPC` →
    /// [`StorageError::DiskFull`], else [`StorageError::DiskIo`]).
    fn disk_err(&self, e: &io::Error) -> StorageError {
        StorageError::from_disk_io(self.id, e)
    }

    /// Returns `bag`'s file, creating it on first touch — in memory
    /// only: the bag's log is created by its first journaled frame
    /// ([`StorageNode::journal`]), never by a lookup. The read lock is
    /// the only directory-level synchronization on the hot path.
    fn bag_file(&self, bag: BagId) -> Arc<BagFile> {
        if let Some(file) = self.bags.read().get(&bag) {
            return file.clone();
        }
        self.bags.write().entry(bag).or_default().clone()
    }

    /// Appends `frames` (one or more encoded frames) to `bag`'s segment
    /// log, opening — creating — the log if this is the bag's first
    /// append, and returns the offset they start at. A no-op on a
    /// memory-only node (the data plane does not even encode its frames
    /// there). Callers journal **before** mutating any in-memory state,
    /// so a refused journal refuses the whole operation and the log
    /// never disagrees with served state. A failed append *poisons* the
    /// bag (see [`BagLog::poisoned`]); a log that cannot be created
    /// refuses the operation and leaves nothing behind to poison.
    fn journal(&self, log: &mut BagLog, bag: BagId, frames: &[u8]) -> Result<u64, StorageError> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        if log.poisoned {
            return Err(self.disk_err(&io::Error::other(
                "bag log poisoned by an earlier failed append",
            )));
        }
        let handle = match &log.handle {
            Some(handle) => handle,
            None => log.handle.insert(
                store
                    .open_log(&segment::log_name(bag))
                    .map_err(|e| self.disk_err(&e))?,
            ),
        };
        handle.append(frames).map_err(|e| {
            log.poisoned = true;
            self.disk_err(&e)
        })
    }

    /// Stamps `file` as the most recently touched bag (spill recency).
    fn touch(&self, file: &BagFile) {
        if self.store.is_some() {
            file.touch.store(
                self.touch_clock.fetch_add(1, Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
    }

    /// Enforces the resident-byte budget: while over threshold, spills
    /// journaled chunks of the coldest bags (by touch stamp) back to
    /// their segment logs. Called outside the bag locks after inserts —
    /// the only operation that grows residency.
    fn maybe_spill(&self) {
        if self.store.is_none() {
            return;
        }
        let mut over = self
            .resident
            .load(Ordering::Relaxed)
            .saturating_sub(self.spill_threshold);
        if over == 0 {
            return;
        }
        let mut files: Vec<(u64, Arc<BagFile>)> = self
            .bags
            .read()
            .values()
            .map(|f| (f.touch.load(Ordering::Relaxed), f.clone()))
            .collect();
        files.sort_by_key(|(touched, _)| *touched);
        for (_, file) in files {
            if over == 0 {
                break;
            }
            let mut need = over;
            let mut freed = 0u64;
            {
                let mut inner = file.inner.lock();
                for stream in inner.streams.values_mut() {
                    if need == 0 {
                        break;
                    }
                    freed += stream.spill(&mut need);
                }
                inner.resident_bytes -= freed;
            }
            if freed > 0 {
                self.resident.fetch_sub(freed, Ordering::Relaxed);
                over = over.saturating_sub(freed);
            }
        }
    }

    /// Appends one insert run under its writer-minted id (see
    /// [`next_run_id`]): chunk `k` of the run is stored with identity
    /// tag `(run, k)`, identical at every replica the run is fanned out
    /// to — the identity pointer mirroring consumes by. On a durable
    /// node every chunk is journaled before the call returns, so an
    /// acknowledged insert survives a crash.
    pub fn insert_run(
        &self,
        bag: BagId,
        chunks: &[Chunk],
        origin: u32,
        run: u64,
    ) -> Result<(), StorageError> {
        self.check_up()?;
        if self.is_draining() {
            return Err(StorageError::NodeDraining(self.id));
        }
        if chunks.is_empty() {
            return Ok(());
        }
        // Encode the whole run before taking the bag lock — sizing,
        // the one payload copy and the CRCs happen here — so the lock
        // covers the state checks, one append and the pushes.
        let frames = self
            .is_durable()
            .then(|| segment::data_run(origin, run, chunks));
        let file = self.bag_file(bag);
        self.touch(&file);
        let mut inner = file.inner.lock();
        if inner.collected {
            return Err(StorageError::BagCollected(bag));
        }
        if inner.sealed {
            return Err(StorageError::BagSealed(bag));
        }
        // Journal the run as one append *before* touching any in-memory
        // state: a refused or short append fails the insert cleanly with
        // nothing landed (all-or-nothing), and the caller re-routes the
        // batch to a healthy node.
        let BagFileInner {
            streams,
            log,
            resident_bytes,
            ..
        } = &mut *inner;
        let mut offset = match &frames {
            Some((buf, _)) => self.journal(log, bag, buf)?,
            None => 0,
        };
        let mut bytes = 0u64;
        let stream = streams.entry(origin).or_default();
        for (k, chunk) in chunks.iter().enumerate() {
            let at = frames.as_ref().map(|(_, lens)| FrameLoc {
                offset,
                frame_len: lens[k],
            });
            offset += at.map_or(0, |at| u64::from(at.frame_len));
            bytes += stream.push(chunk.clone(), run, k as u32, at);
        }
        *resident_bytes += bytes;
        drop(inner);
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.stats.bytes_in.add(bytes);
        self.stats.inserts.add(chunks.len() as u64);
        self.stats.batch_ops.incr();
        self.maybe_spill();
        Ok(())
    }

    /// Removes up to `max_n` chunks of origin-stream `origin` — a node's
    /// own stream, or a dead primary's on the failover read path —
    /// advancing the pointer once per chunk but paying the lock and
    /// directory lookup once per batch.
    pub fn remove_from_batch(
        &self,
        bag: BagId,
        origin: u32,
        max_n: usize,
    ) -> Result<NodeRemoveBatch, StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        self.touch(&file);
        let mut inner = file.inner.lock();
        if inner.collected {
            return Err(StorageError::BagCollected(bag));
        }
        let sealed = inner.sealed;
        let BagFileInner { streams, log, .. } = &mut *inner;
        let stream = streams.entry(origin).or_default();
        // Scan (without consuming) → read → journal → commit: a failed
        // read-back or consume journal refuses the whole batch with
        // every chunk still live.
        let mut picked = Vec::new();
        stream.peek_live(max_n, &mut picked);
        let mut chunks = Vec::with_capacity(picked.len());
        let mut tags: Vec<TagSegment> = Vec::new();
        let mut bytes = 0u64;
        for &i in &picked {
            let chunk = stream
                .chunk_at(i, log.handle.as_ref())
                .map_err(|e| self.disk_err(&e))?;
            bytes += chunk.len() as u64;
            chunks.push(chunk);
            push_tag(&mut tags, stream.tags[i]);
        }
        if !tags.is_empty() && self.is_durable() {
            self.journal(log, bag, &segment::consume_frame(origin, &tags))?;
        }
        stream.commit_consumed(&picked);
        let exhausted = chunks.len() < max_n;
        drop(inner);
        if chunks.is_empty() {
            self.stats.empty_probes.incr();
        } else {
            self.stats.removes.add(chunks.len() as u64);
            self.stats.bytes_out.add(bytes);
            self.stats.batch_ops.incr();
        }
        Ok(NodeRemoveBatch {
            chunks,
            tags,
            exhausted,
            eof: exhausted && sealed,
        })
    }

    /// Marks the chunks identified by `tags` consumed in origin-stream
    /// `origin` without returning data, and reports back which of them
    /// were **already** consumed here before the call. It has two uses:
    ///
    /// * **Pointer mirror.** After a replica serves a remove, the port
    ///   sends the served identities to the group's other live replicas
    ///   so a failover resumes from the right position (paper §4.4:
    ///   "Each bag ... is replicated along with bag state, such as the
    ///   current file pointer"); the echo is ignored there.
    /// * **Fallback-serve reconciliation.** A reader that found this
    ///   replica empty and then received chunks from another replica
    ///   claims their identities here before delivering. Segments echoed
    ///   back were concurrently served *by this node* — another reader
    ///   already has those chunks, so the claimer must drop them.
    ///
    /// Consuming by *identity* rather than count makes this safe against
    /// divergent replica logs: chunks this log holds that the serving
    /// replica missed stay live, reapplying the same tags (a
    /// retransmission) is idempotent, and tags this log never recorded
    /// claim nothing, are not echoed, and are remembered as pre-consumed,
    /// so a late-arriving replicated insert of the same identity lands
    /// already consumed instead of being double-served. The same
    /// properties make the journaled claim replay-safe: recovery
    /// re-applies the full requested tag set against the same stream
    /// state and marks the same entries.
    pub fn claim_consumed(
        &self,
        bag: BagId,
        origin: u32,
        tags: &[TagSegment],
    ) -> Result<Vec<TagSegment>, StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let mut inner = file.inner.lock();
        // Journal before mutating: a refused journal refuses the whole
        // claim. Replaying the full tag set is idempotent, so journaling
        // even a no-change request is safe (and cheaper than pre-scanning
        // to find out).
        if !tags.is_empty() && self.is_durable() {
            self.journal(&mut inner.log, bag, &segment::consume_frame(origin, tags))?;
        }
        Ok(inner
            .streams
            .entry(origin)
            .or_default()
            .consume_tags(tags)
            .already)
    }

    /// Returns every chunk of `bag` stored here whose origin is `origin`.
    /// A backup serving a snapshot for a dead primary filters to exactly
    /// the chunks it mirrors for that primary.
    pub fn snapshot_from(&self, bag: BagId, origin: u32) -> Result<Vec<Chunk>, StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let inner = file.inner.lock();
        if inner.collected {
            return Err(StorageError::BagCollected(bag));
        }
        let log = inner.log.handle.as_ref();
        inner
            .streams
            .get(&origin)
            .map(|s| {
                (0..s.slots.len())
                    .map(|i| s.chunk_at(i, log))
                    .collect::<io::Result<Vec<Chunk>>>()
            })
            .unwrap_or_else(|| Ok(Vec::new()))
            .map_err(|e| self.disk_err(&e))
    }

    /// Seals `bag`: no further inserts. Sealing is what turns "empty" into
    /// "end-of-file" and lets workers terminate (paper §3.1).
    pub fn seal(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let mut inner = file.inner.lock();
        if !inner.sealed {
            // Journal before mutating: a bag whose seal cannot be made
            // durable is not sealed.
            self.journal(&mut inner.log, bag, &segment::seal_frame())?;
            inner.sealed = true;
        }
        Ok(())
    }

    /// Resets the read pointer to the beginning ("reusing the contents of a
    /// bag", paper §4.3; also used to rewind input bags when recovering
    /// from a compute-node failure, §4.4).
    pub fn rewind(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let mut inner = file.inner.lock();
        if inner.collected {
            return Err(StorageError::BagCollected(bag));
        }
        // Journal every stream's rewind in one append, then rewind them
        // all: a refused journal refuses the whole rewind. A stream with
        // nothing consumed has nothing to reset, so rewinding a bag that
        // was never read journals nothing.
        let BagFileInner { streams, log, .. } = &mut *inner;
        if self.is_durable() {
            let frames: Vec<u8> = streams
                .iter()
                .filter(|(_, s)| s.live < s.slots.len() || !s.pre_consumed.is_empty())
                .flat_map(|(&origin, _)| segment::rewind_frame(origin))
                .collect();
            if !frames.is_empty() {
                self.journal(log, bag, &frames)?;
            }
        }
        streams.values_mut().for_each(Stream::rewind);
        Ok(())
    }

    /// Empties `bag` under its lock: truncates its log to zero, then
    /// drops every stream and clears the seal and collect flags — an
    /// empty log *is* an unsealed, uncollected, empty bag, so the one
    /// truncation is the whole durable discard. The truncation also
    /// removes whatever tear poisoned the log. A failed truncation
    /// refuses with the in-memory bag intact. Returns the resident
    /// bytes freed, for the caller to settle after unlocking.
    fn clear(&self, inner: &mut BagFileInner) -> Result<u64, StorageError> {
        if let Some(log) = &inner.log.handle {
            log.truncate(0).map_err(|e| self.disk_err(&e))?;
        }
        inner.log.poisoned = false;
        inner.streams = HashMap::new();
        inner.sealed = false;
        inner.collected = false;
        Ok(std::mem::take(&mut inner.resident_bytes))
    }

    /// Discards all chunks of `bag` and reopens it for inserts. Used to
    /// clear the partial output bags of tasks restarted after a compute
    /// node failure (paper §4.4). On a durable node the bag's log is
    /// truncated, so the discard itself survives a restart.
    pub fn discard(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let freed = self.clear(&mut file.inner.lock())?;
        self.resident.fetch_sub(freed, Ordering::Relaxed);
        Ok(())
    }

    /// Garbage-collects `bag`: frees its chunks; subsequent access fails.
    /// A discard followed by a journaled `COLLECT`: if that append is
    /// refused the bag is left discarded — empty in memory as on disk —
    /// and the caller may retry.
    pub fn collect(&self, bag: BagId) -> Result<(), StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let mut inner = file.inner.lock();
        let freed = self.clear(&mut inner)?;
        self.resident.fetch_sub(freed, Ordering::Relaxed);
        self.journal(&mut inner.log, bag, &segment::collect_frame())?;
        inner.collected = true;
        Ok(())
    }

    /// Samples `bag`'s state at this node in O(1): one bag-lock
    /// acquisition reads the own (primary) stream's running counters and
    /// the bag's flags. The lock makes the reading consistent
    /// (`removed ≤ total`, exactly `remaining = total - removed`), so
    /// per-node samples sum to a consistent cluster sample.
    pub fn sample(&self, bag: BagId) -> Result<BagSample, StorageError> {
        self.check_up()?;
        let file = self.bag_file(bag);
        let inner = file.inner.lock();
        if inner.collected {
            return Err(StorageError::BagCollected(bag));
        }
        let mut sample = BagSample {
            resident_bytes: inner.resident_bytes,
            sealed: inner.sealed,
            ..BagSample::default()
        };
        // Only the node's own (primary) stream is counted — chunks *and*
        // bytes: with replication, summing primaries across nodes yields
        // exact cluster-wide totals without double-counting backups.
        // `resident_bytes` is the exception (it reports this node's
        // physical footprint for the bag, mirrored streams included).
        if let Some(own) = inner.streams.get(&self.id.0) {
            sample.total_chunks = own.slots.len() as u64;
            sample.removed_chunks = (own.slots.len() - own.live) as u64;
            sample.remaining_chunks = own.live as u64;
            sample.remaining_bytes = own.remaining_bytes;
            sample.total_bytes = own.total_bytes;
        }
        Ok(sample)
    }

    /// Number of distinct bags with state at this node.
    pub fn bag_count(&self) -> usize {
        self.bags.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(bytes: &[u8]) -> Chunk {
        Chunk::from_vec(bytes.to_vec())
    }

    fn node() -> StorageNode {
        StorageNode::new(StorageNodeId(0))
    }

    /// Appends `chunks` to `n`'s own stream as one fresh run.
    fn put(n: &StorageNode, bag: BagId, chunks: &[Chunk]) -> Result<(), StorageError> {
        n.insert_run(bag, chunks, n.id().0, next_run_id())
    }

    /// Removes up to `max_n` chunks of `n`'s own stream.
    fn take(n: &StorageNode, bag: BagId, max_n: usize) -> Result<NodeRemoveBatch, StorageError> {
        n.remove_from_batch(bag, n.id().0, max_n)
    }

    /// Samples racing a writer must never observe a mid-update counter
    /// combination: `removed` ahead of `total` (summed across nodes that
    /// skew made cluster samples report more removed than inserted), or
    /// `remaining` disagreeing with `total - removed`. Pins the one
    /// locked reading in [`StorageNode::sample`].
    #[test]
    fn samples_stay_internally_consistent_under_concurrent_load() {
        let n = node();
        let bag = BagId(33);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for round in 0..300u64 {
                    for v in 0..16u64 {
                        put(&n, bag, &[chunk(&(round * 16 + v).to_le_bytes())]).unwrap();
                    }
                    let _ = take(&n, bag, 16).unwrap();
                }
            });
            while !writer.is_finished() {
                let s = n.sample(bag).unwrap();
                assert!(
                    s.removed_chunks <= s.total_chunks,
                    "sample saw removed {} ahead of total {}",
                    s.removed_chunks,
                    s.total_chunks
                );
                assert_eq!(s.remaining_chunks, s.total_chunks - s.removed_chunks);
                assert!(s.remaining_bytes <= s.total_bytes);
            }
            writer.join().unwrap();
        });
        let s = n.sample(bag).unwrap();
        assert_eq!((s.total_chunks, s.removed_chunks), (4800, 4800));
    }

    #[test]
    fn insert_then_remove_fifo() {
        let n = node();
        let bag = BagId(1);
        put(&n, bag, &[chunk(b"a")]).unwrap();
        put(&n, bag, &[chunk(b"b")]).unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"a")]);
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"b")]);
        let empty = take(&n, bag, 1).unwrap();
        assert!(
            empty.chunks.is_empty() && !empty.eof,
            "unsealed: empty, not eof"
        );
        n.seal(bag).unwrap();
        assert!(take(&n, bag, 1).unwrap().eof);
    }

    #[test]
    fn exactly_once_per_chunk() {
        let n = node();
        let bag = BagId(1);
        for i in 0..100u8 {
            put(&n, bag, &[chunk(&[i])]).unwrap();
        }
        n.seal(bag).unwrap();
        let mut seen = Vec::new();
        loop {
            let got = take(&n, bag, 1).unwrap();
            if got.eof {
                break;
            }
            assert_eq!(got.chunks.len(), 1, "sealed bag cannot be empty");
            seen.push(got.chunks[0].bytes()[0]);
        }
        let expected: Vec<u8> = (0..100).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn sealed_bag_rejects_inserts() {
        let n = node();
        let bag = BagId(2);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        n.seal(bag).unwrap();
        assert_eq!(
            put(&n, bag, &[chunk(b"y")]),
            Err(StorageError::BagSealed(bag))
        );
    }

    #[test]
    fn down_node_rejects_everything() {
        let n = node();
        let bag = BagId(3);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        n.fail();
        assert!(matches!(
            put(&n, bag, &[chunk(b"y")]),
            Err(StorageError::NodeDown(_))
        ));
        assert!(matches!(take(&n, bag, 1), Err(StorageError::NodeDown(_))));
        assert!(matches!(n.sample(bag), Err(StorageError::NodeDown(_))));
        n.recover();
        // Data survives the crash.
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"x")]);
    }

    #[test]
    fn draining_rejects_inserts_serves_removes() {
        let n = node();
        let bag = BagId(4);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        n.start_draining();
        assert!(matches!(
            put(&n, bag, &[chunk(b"y")]),
            Err(StorageError::NodeDraining(_))
        ));
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"x")]);
        assert!(n.is_drained().unwrap());
    }

    #[test]
    fn rewind_replays_contents() {
        let n = node();
        let bag = BagId(5);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks.len(), 1);
        n.rewind(bag).unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"x")]);
    }

    #[test]
    fn rewind_restores_remaining_bytes() {
        let n = node();
        let bag = BagId(5);
        put(&n, bag, &[chunk(b"abc")]).unwrap();
        put(&n, bag, &[chunk(b"de")]).unwrap();
        take(&n, bag, 1).unwrap();
        assert_eq!(n.sample(bag).unwrap().remaining_bytes, 2);
        n.rewind(bag).unwrap();
        assert_eq!(n.sample(bag).unwrap().remaining_bytes, 5);
    }

    #[test]
    fn discard_clears_and_reopens() {
        let n = node();
        let bag = BagId(6);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        n.seal(bag).unwrap();
        n.discard(bag).unwrap();
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_chunks, 0);
        assert!(!s.sealed);
        put(&n, bag, &[chunk(b"z")]).unwrap();
    }

    #[test]
    fn collect_frees_and_blocks() {
        let n = node();
        let bag = BagId(7);
        put(&n, bag, &[chunk(b"x")]).unwrap();
        n.collect(bag).unwrap();
        assert_eq!(take(&n, bag, 1), Err(StorageError::BagCollected(bag)));
        assert_eq!(
            put(&n, bag, &[chunk(b"y")]),
            Err(StorageError::BagCollected(bag))
        );
    }

    #[test]
    fn sample_tracks_pointer() {
        let n = node();
        let bag = BagId(8);
        put(&n, bag, &[chunk(b"abc")]).unwrap();
        put(&n, bag, &[chunk(b"de")]).unwrap();
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_chunks, 2);
        assert_eq!(s.remaining_bytes, 5);
        assert_eq!(s.resident_bytes, 5);
        assert_eq!(s.progress(), 0.0);
        take(&n, bag, 1).unwrap();
        let s = n.sample(bag).unwrap();
        assert_eq!(s.removed_chunks, 1);
        assert_eq!(s.remaining_bytes, 2);
        assert_eq!(s.progress(), 0.5);
    }

    #[test]
    fn mirror_consumed_skips_served_chunks() {
        let n = node();
        let bag = BagId(9);
        n.insert_run(bag, &[chunk(b"a"), chunk(b"b")], 0, 700)
            .unwrap();
        n.claim_consumed(
            bag,
            0,
            &[TagSegment {
                run: 700,
                start: 0,
                len: 1,
            }],
        )
        .unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"b")]);
    }

    #[test]
    fn snapshot_ignores_pointer() {
        let n = node();
        let bag = BagId(10);
        put(&n, bag, &[chunk(b"a"), chunk(b"b")]).unwrap();
        take(&n, bag, 1).unwrap();
        let snap = n.snapshot_from(bag, 0).unwrap();
        assert_eq!(snap, [chunk(b"a"), chunk(b"b")]);
        // The snapshot consumed nothing: the next remove serves "b".
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"b")]);
    }

    #[test]
    fn stats_count_traffic() {
        let n = node();
        let bag = BagId(12);
        put(&n, bag, &[chunk(b"abcd")]).unwrap();
        take(&n, bag, 1).unwrap();
        take(&n, bag, 1).unwrap(); // Empty probe.
        assert_eq!(n.stats().inserts.get(), 1);
        assert_eq!(n.stats().removes.get(), 1);
        assert_eq!(n.stats().empty_probes.get(), 1);
        assert_eq!(n.stats().bytes_in.get(), 4);
        assert_eq!(n.stats().bytes_out.get(), 4);
        // A single-chunk remove is a batch of one: the insert and the
        // serving remove each count, the empty probe does not.
        assert_eq!(n.stats().batch_ops.get(), 2);
    }

    #[test]
    fn insert_batch_lands_all_chunks_in_order() {
        let n = node();
        let bag = BagId(13);
        let chunks: Vec<Chunk> = (0..10u8).map(|i| chunk(&[i])).collect();
        put(&n, bag, &chunks).unwrap();
        n.seal(bag).unwrap();
        let got = take(&n, bag, 64).unwrap();
        assert_eq!(got.chunks, chunks);
        assert!(got.exhausted);
        assert!(got.eof);
        assert_eq!(n.stats().inserts.get(), 10);
        assert_eq!(n.stats().removes.get(), 10);
    }

    #[test]
    fn remove_batch_respects_max_n() {
        let n = node();
        let bag = BagId(14);
        for i in 0..10u8 {
            put(&n, bag, &[chunk(&[i])]).unwrap();
        }
        let got = take(&n, bag, 4).unwrap();
        assert_eq!(got.chunks.len(), 4);
        assert!(!got.exhausted);
        assert!(!got.eof);
        let rest = take(&n, bag, 100).unwrap();
        assert_eq!(rest.chunks.len(), 6);
        assert!(rest.exhausted);
        assert!(!rest.eof, "unsealed bag never reports eof");
    }

    #[test]
    fn remove_batch_on_empty_unsealed_is_empty_not_eof() {
        let n = node();
        let bag = BagId(15);
        let got = take(&n, bag, 8).unwrap();
        assert!(got.chunks.is_empty());
        assert!(got.exhausted && !got.eof);
        n.seal(bag).unwrap();
        let got = take(&n, bag, 8).unwrap();
        assert!(got.eof);
    }

    #[test]
    fn batch_insert_to_sealed_bag_is_atomic_noop() {
        let n = node();
        let bag = BagId(16);
        n.seal(bag).unwrap();
        let chunks = vec![chunk(b"a"), chunk(b"b")];
        assert_eq!(put(&n, bag, &chunks), Err(StorageError::BagSealed(bag)));
        assert_eq!(n.stats().inserts.get(), 0, "no partial batch landed");
    }

    #[test]
    fn mirror_consumed_advances_in_bulk() {
        let n = node();
        let bag = BagId(17);
        let chunks: Vec<Chunk> = (0..5u8).map(|i| chunk(&[i])).collect();
        n.insert_run(bag, &chunks, 0, 900).unwrap();
        n.claim_consumed(
            bag,
            0,
            &[TagSegment {
                run: 900,
                start: 0,
                len: 3,
            }],
        )
        .unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(&[3])]);
        assert_eq!(n.sample(bag).unwrap().removed_chunks, 4);
    }

    #[test]
    fn mirror_consumed_is_idempotent() {
        let n = node();
        let bag = BagId(18);
        let chunks: Vec<Chunk> = (0..4u8).map(|i| chunk(&[i])).collect();
        n.insert_run(bag, &chunks, 0, 901).unwrap();
        let seg = TagSegment {
            run: 901,
            start: 0,
            len: 2,
        };
        n.claim_consumed(bag, 0, &[seg]).unwrap();
        n.claim_consumed(bag, 0, &[seg]).unwrap(); // Retransmission.
        assert_eq!(n.sample(bag).unwrap().removed_chunks, 2);
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(&[2])]);
    }

    #[test]
    fn mirror_consumed_tolerates_divergent_logs() {
        // A backup recorded run 10 (a partial replicated insert the
        // primary missed) *before* run 11. The primary serves run 11's
        // chunks; mirroring that consumption must leave run 10's chunk
        // live here — the old count-based skip would have consumed it.
        let n = node();
        let bag = BagId(19);
        n.insert_run(bag, &[chunk(b"X")], 0, 10).unwrap();
        n.insert_run(bag, &[chunk(b"y"), chunk(b"z")], 0, 11)
            .unwrap();
        n.claim_consumed(
            bag,
            0,
            &[TagSegment {
                run: 11,
                start: 0,
                len: 2,
            }],
        )
        .unwrap();
        // Failover serves exactly the marooned chunk, once.
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"X")]);
        n.seal(bag).unwrap();
        assert!(take(&n, bag, 1).unwrap().eof);
    }

    #[test]
    fn mirror_consumed_ignores_unknown_tags() {
        // Tags for a run this log never recorded (it missed the insert)
        // are a no-op; the chunks it does hold stay live.
        let n = node();
        let bag = BagId(20);
        n.insert_run(bag, &[chunk(b"a")], 0, 30).unwrap();
        n.claim_consumed(
            bag,
            0,
            &[TagSegment {
                run: 31,
                start: 0,
                len: 5,
            }],
        )
        .unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"a")]);
    }

    #[test]
    fn claim_consumed_reports_already_served_chunks() {
        let n = node();
        let bag = BagId(26);
        n.insert_run(bag, &[chunk(b"a"), chunk(b"b"), chunk(b"c")], 0, 50)
            .unwrap();
        // Two chunks served locally (by "another reader").
        assert_eq!(take(&n, bag, 2).unwrap().chunks.len(), 2);
        let already = n
            .claim_consumed(
                bag,
                0,
                &[TagSegment {
                    run: 50,
                    start: 0,
                    len: 3,
                }],
            )
            .unwrap();
        let hit = |k: u32| {
            already
                .iter()
                .any(|s| s.run == 50 && k >= s.start && k - s.start < s.len)
        };
        assert!(hit(0) && hit(1), "served chunks must be echoed back");
        assert!(!hit(2), "the live chunk is newly claimed, not echoed");
        // The claim consumed the third chunk: nothing is left to serve.
        n.seal(bag).unwrap();
        assert!(take(&n, bag, 1).unwrap().eof);
    }

    #[test]
    fn claimed_identity_lands_consumed_when_insert_arrives_late() {
        // A claim can race the replicated insert it names: the claim
        // runs first, the insert lands after. The chunk must arrive
        // already consumed — its identity was served elsewhere.
        let n = node();
        let bag = BagId(27);
        let seg = TagSegment {
            run: 51,
            start: 0,
            len: 1,
        };
        assert!(n.claim_consumed(bag, 0, &[seg]).unwrap().is_empty());
        n.insert_run(bag, &[chunk(b"late")], 0, 51).unwrap();
        let s = n.sample(bag).unwrap();
        assert_eq!((s.total_chunks, s.removed_chunks), (1, 1));
        assert_eq!(s.remaining_bytes, 0);
        n.seal(bag).unwrap();
        assert!(take(&n, bag, 1).unwrap().eof);
        // Re-claiming the now-landed identity reports it consumed.
        assert_eq!(n.claim_consumed(bag, 0, &[seg]).unwrap(), vec![seg]);
    }

    #[test]
    fn remove_batch_reports_run_tags() {
        let n = node();
        let bag = BagId(21);
        n.insert_run(bag, &[chunk(b"a"), chunk(b"b")], 0, 40)
            .unwrap();
        n.insert_run(bag, &[chunk(b"c")], 0, 41).unwrap();
        let got = take(&n, bag, 10).unwrap();
        assert_eq!(got.chunks.len(), 3);
        assert_eq!(
            got.tags,
            vec![
                TagSegment {
                    run: 40,
                    start: 0,
                    len: 2
                },
                TagSegment {
                    run: 41,
                    start: 0,
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn concurrent_bags_do_not_serialize_results() {
        // Smoke test: many threads on distinct bags all complete with
        // exact per-bag counts (the sharded-map correctness property; the
        // performance claim lives in the contended microbenches).
        let n = Arc::new(node());
        let handles: Vec<_> = (0..8u64)
            .map(|b| {
                let n = n.clone();
                std::thread::spawn(move || {
                    let bag = BagId(100 + b);
                    for i in 0..200u8 {
                        put(&n, bag, &[chunk(&[i])]).unwrap();
                    }
                    let got = take(&n, bag, 500).unwrap();
                    assert_eq!(got.chunks.len(), 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.stats().inserts.get(), 8 * 200);
    }

    #[test]
    fn sample_stays_consistent_under_concurrent_writers() {
        // Hammer one bag from four writer threads while a sampler polls,
        // then verify the quiesced sample is exact.
        let n = Arc::new(node());
        let bag = BagId(42);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let n = n.clone();
                std::thread::spawn(move || {
                    let chunks: Vec<Chunk> = (0..16u8).map(|i| chunk(&[i])).collect();
                    for _ in 0..200 {
                        put(&n, bag, &chunks).unwrap();
                        let _ = take(&n, bag, 16).unwrap();
                    }
                })
            })
            .collect();
        let sampler = {
            let n = n.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = n.sample(bag).unwrap();
                    // Saturating read: never a torn underflow.
                    assert!(s.remaining_chunks <= s.total_chunks);
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap();
        // Racing removers can come up short mid-run; drain the remainder,
        // then the quiesced sample must be exact.
        while !take(&n, bag, 1024).unwrap().chunks.is_empty() {}
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_chunks, 4 * 200 * 16);
        assert_eq!(s.removed_chunks, 4 * 200 * 16);
        assert_eq!(s.remaining_chunks, 0);
        assert_eq!(s.remaining_bytes, 0);
    }

    #[test]
    fn bag_sample_merge() {
        let mut a = BagSample {
            total_chunks: 2,
            removed_chunks: 1,
            remaining_chunks: 1,
            remaining_bytes: 10,
            total_bytes: 20,
            resident_bytes: 20,
            sealed: true,
        };
        let b = BagSample {
            total_chunks: 3,
            removed_chunks: 0,
            remaining_chunks: 3,
            remaining_bytes: 30,
            total_bytes: 30,
            resident_bytes: 5,
            sealed: false,
        };
        a.merge(&b);
        assert_eq!(a.total_chunks, 5);
        assert_eq!(a.remaining_bytes, 40);
        assert_eq!(a.resident_bytes, 25);
        assert!(!a.sealed, "merge must AND the sealed flags");
    }

    // -- durability ------------------------------------------------------

    fn durable_node(store: &SegmentStore) -> StorageNode {
        StorageNode::durable(StorageNodeId(0), store.clone(), u64::MAX).unwrap()
    }

    #[test]
    fn durable_restart_recovers_contents_and_pointer() {
        let store = SegmentStore::mem();
        let bag = BagId(1);
        {
            let n = durable_node(&store);
            for i in 0..5u8 {
                put(&n, bag, &[chunk(&[i])]).unwrap();
            }
            assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(&[0])]);
            assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(&[1])]);
        }
        let n = durable_node(&store);
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_chunks, 5);
        assert_eq!(s.removed_chunks, 2);
        assert_eq!(s.remaining_bytes, 3);
        assert_eq!(s.resident_bytes, 0, "recovered chunks start spilled");
        // The consumed pointer survived: the next serve is chunk 2.
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(&[2])]);
    }

    #[test]
    fn durable_restart_recovers_seal_and_mirror_state() {
        let store = SegmentStore::mem();
        let bag = BagId(2);
        {
            let n = durable_node(&store);
            n.insert_run(bag, &[chunk(b"a"), chunk(b"b")], 3, 500)
                .unwrap();
            n.claim_consumed(
                bag,
                3,
                &[TagSegment {
                    run: 500,
                    start: 0,
                    len: 1,
                }],
            )
            .unwrap();
            n.seal(bag).unwrap();
        }
        let n = durable_node(&store);
        assert!(n.sample(bag).unwrap().sealed);
        // The mirrored stream's pointer survived: only "b" is live.
        let got = n.remove_from_batch(bag, 3, 10).unwrap();
        assert_eq!(got.chunks, vec![chunk(b"b")]);
        assert!(got.eof);
    }

    #[test]
    fn durable_restart_respects_rewind_and_discard() {
        let store = SegmentStore::mem();
        let bag = BagId(3);
        {
            let n = durable_node(&store);
            put(&n, bag, &[chunk(b"x")]).unwrap();
            take(&n, bag, 1).unwrap();
            n.rewind(bag).unwrap();
        }
        {
            let n = durable_node(&store);
            // Rewind survived: the consumed chunk is live again.
            assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"x")]);
            n.discard(bag).unwrap();
            n.seal(bag).unwrap();
        }
        let n = durable_node(&store);
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_chunks, 0, "discard survived restart");
        assert!(s.sealed, "seal after discard survived restart");
    }

    #[test]
    fn crash_lose_memory_then_recover_round_trips() {
        let store = SegmentStore::mem();
        let bag = BagId(4);
        let n = durable_node(&store);
        put(&n, bag, &[chunk(b"hello")]).unwrap();
        n.crash_lose_memory();
        assert_eq!(n.bag_count(), 0);
        n.restart_recover().unwrap();
        assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"hello")]);
    }

    #[test]
    fn spill_bounds_resident_memory_and_serves_from_log() {
        let store = SegmentStore::mem();
        let n = StorageNode::durable(StorageNodeId(0), store, 256).unwrap();
        let bag = BagId(5);
        let payload = [7u8; 64];
        for _ in 0..32 {
            put(&n, bag, &[chunk(&payload)]).unwrap();
        }
        // 2 KiB inserted under a 256-byte budget: residency is bounded by
        // the threshold plus at most one in-flight batch.
        assert!(
            n.resident_bytes() <= 256 + 64,
            "resident {} exceeds budget",
            n.resident_bytes()
        );
        let s = n.sample(bag).unwrap();
        assert_eq!(s.total_bytes, 32 * 64, "spilled chunks still count");
        assert!(s.resident_bytes <= 256 + 64);
        // Every chunk still serves, byte-exact, from the log.
        n.seal(bag).unwrap();
        let got = take(&n, bag, 64).unwrap();
        assert_eq!(got.chunks.len(), 32);
        assert!(got.chunks.iter().all(|c| c.bytes() == payload));
        assert!(got.eof);
    }

    /// Every operation that journals nothing, against bags that hold
    /// nothing: probes, samples, rewinds, drains, reads, discards.
    fn touch_without_journaling(n: &StorageNode) {
        for b in 0..4u64 {
            let bag = BagId(b);
            assert!(take(n, bag, 8).unwrap().chunks.is_empty());
            assert!(n.remove_from_batch(bag, 3, 8).unwrap().chunks.is_empty());
            assert_eq!(n.sample(bag).unwrap().total_chunks, 0);
            assert!(n.snapshot_from(bag, 0).unwrap().is_empty());
            assert!(n.snapshot_from(bag, 3).unwrap().is_empty());
            assert!(n.claim_consumed(bag, 3, &[]).unwrap().is_empty());
            n.rewind(bag).unwrap();
            n.discard(bag).unwrap();
            put(n, bag, &[]).unwrap();
        }
        n.is_drained().unwrap();
        n.sync_all().unwrap();
    }

    /// Each operation that does journal creates exactly its own bag's
    /// log, with its first frame. Returns the bags journaled for.
    fn first_frames(n: &StorageNode) -> Vec<BagId> {
        let seg = TagSegment {
            run: 9,
            start: 0,
            len: 1,
        };
        put(n, BagId(10), &[chunk(b"x")]).unwrap();
        n.seal(BagId(11)).unwrap();
        n.collect(BagId(12)).unwrap();
        n.claim_consumed(BagId(13), 3, &[seg]).unwrap();
        (10..14).map(BagId).collect()
    }

    #[test]
    fn reads_do_not_write_to_the_store() {
        let store = SegmentStore::mem();
        let n = durable_node(&store);
        touch_without_journaling(&n);
        assert!(
            store.list_logs().unwrap().is_empty(),
            "an operation that journals nothing created {:?}",
            store.list_logs().unwrap()
        );
        let mut expect: Vec<String> = first_frames(&n)
            .into_iter()
            .map(segment::log_name)
            .collect();
        let mut logs = store.list_logs().unwrap();
        logs.sort();
        expect.sort();
        assert_eq!(logs, expect, "one log per journaled bag");
        // Probing the bags that now exist still writes nothing new.
        touch_without_journaling(&n);
        assert_eq!(store.list_logs().unwrap().len(), expect.len());
    }

    #[test]
    fn reads_create_no_filesystem_object() {
        let root = std::env::temp_dir().join(format!("hurricane-node-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let n = durable_node(&SegmentStore::disk(&root).unwrap());
        let entries = || -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&root)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        touch_without_journaling(&n);
        assert!(
            entries().is_empty(),
            "created without journaling: {:?}",
            entries()
        );
        let mut expect: Vec<String> = first_frames(&n)
            .into_iter()
            .map(segment::log_name)
            .collect();
        expect.sort();
        assert_eq!(entries(), expect, "one flat file per journaled bag");
        assert!(std::fs::read_dir(&root).unwrap().all(|e| e
            .unwrap()
            .file_type()
            .unwrap()
            .is_file()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewind_journals_only_streams_with_something_to_reset() {
        let store = SegmentStore::mem();
        let n = durable_node(&store);
        let bag = BagId(1);
        n.insert_run(bag, &[chunk(b"a")], 0, 1).unwrap();
        n.insert_run(bag, &[chunk(b"b")], 3, 2).unwrap();
        let log = store.open_log(&segment::log_name(bag)).unwrap();
        let before = log.len();
        n.rewind(bag).unwrap();
        assert_eq!(
            log.len(),
            before,
            "nothing was consumed: nothing to journal"
        );
        n.remove_from_batch(bag, 3, 1).unwrap();
        n.rewind(bag).unwrap();
        let (frames, _) = segment::scan(&log.read_all().unwrap());
        assert_eq!(
            frames.last().unwrap().record,
            segment::Record::Rewind { origin: 3 },
            "only the consumed stream is rewound in the log"
        );
        assert_eq!(frames.len(), 4, "DATA, DATA, CONSUME, REWIND");
        let n = durable_node(&store);
        assert_eq!(
            n.remove_from_batch(bag, 3, 1).unwrap().chunks,
            [chunk(b"b")]
        );
    }

    #[test]
    fn streams_of_one_bag_share_one_log_and_recover_apart() {
        let store = SegmentStore::mem();
        let bag = BagId(8);
        {
            let n = durable_node(&store);
            n.insert_run(bag, &[chunk(b"own0"), chunk(b"own1")], 0, 1)
                .unwrap();
            n.insert_run(bag, &[chunk(b"mir0")], 2, 2).unwrap();
            n.insert_run(bag, &[chunk(b"own2")], 0, 3).unwrap();
            assert_eq!(take(&n, bag, 1).unwrap().chunks, [chunk(b"own0")]);
            n.seal(bag).unwrap();
        }
        assert_eq!(store.list_logs().unwrap(), vec![segment::log_name(bag)]);
        let n = durable_node(&store);
        let s = n.sample(bag).unwrap();
        assert_eq!(
            (s.total_chunks, s.removed_chunks),
            (3, 1),
            "own stream only"
        );
        assert!(s.sealed);
        let own = take(&n, bag, 8).unwrap();
        assert_eq!(own.chunks, vec![chunk(b"own1"), chunk(b"own2")]);
        let mirrored = n.remove_from_batch(bag, 2, 8).unwrap();
        assert_eq!(mirrored.chunks, vec![chunk(b"mir0")]);
        assert!(own.eof && mirrored.eof);
    }

    #[test]
    fn collect_survives_restart_and_leaves_one_record() {
        let store = SegmentStore::mem();
        let bag = BagId(9);
        {
            let n = durable_node(&store);
            put(&n, bag, &[chunk(b"gone")]).unwrap();
            n.seal(bag).unwrap();
            n.collect(bag).unwrap();
            assert_eq!(n.resident_bytes(), 0);
        }
        let log = store.open_log(&segment::log_name(bag)).unwrap();
        assert_eq!(log.read_all().unwrap(), segment::collect_frame());
        let n = durable_node(&store);
        assert_eq!(take(&n, bag, 1), Err(StorageError::BagCollected(bag)));
        assert_eq!(n.sample(bag), Err(StorageError::BagCollected(bag)));
    }

    /// A recovery that skipped the per-stream layout's `bag-<id>/`
    /// directories as "unparsable names" would bring an upgraded node up
    /// empty; it must refuse instead, naming the layout.
    #[test]
    fn old_per_stream_layout_is_refused_not_ignored() {
        let store = SegmentStore::mem();
        store.open_log("bag-3/seg-0.log").unwrap();
        store.open_log("bag-3/meta.log").unwrap();
        let err = StorageNode::durable(StorageNodeId(0), store, u64::MAX)
            .err()
            .expect("old layout accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bag-3/"), "{err}");

        let root = std::env::temp_dir().join(format!("hurricane-node-old-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("bag-7")).unwrap();
        std::fs::write(root.join("bag-7").join("meta.log"), b"").unwrap();
        std::fs::write(root.join("notes.txt"), b"unrelated files are skipped").unwrap();
        let err = StorageNode::durable(
            StorageNodeId(0),
            SegmentStore::disk(&root).unwrap(),
            u64::MAX,
        )
        .err()
        .expect("old layout accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bag-7/"), "{err}");
        std::fs::remove_dir_all(root.join("bag-7")).unwrap();
        durable_node(&SegmentStore::disk(&root).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn memory_only_node_never_spills() {
        let n = node();
        let bag = BagId(6);
        put(&n, bag, &[chunk(&[1u8; 128])]).unwrap();
        assert!(!n.is_durable());
        assert_eq!(n.resident_bytes(), 128);
        assert_eq!(n.sample(bag).unwrap().resident_bytes, 128);
    }
}
