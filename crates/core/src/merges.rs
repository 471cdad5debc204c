//! A library of typical merge operations (paper §2.3).
//!
//! "For convenience, Hurricane provides a library of typical merge
//! operations." The merge paradigm is more general than shuffle-and-sort:
//! records for the same key may be processed on multiple nodes
//! simultaneously and reconciled here, and non commutative-associative
//! outputs (unique counts, medians, sorted output) are supported because
//! the merge sees whole partial outputs, not per-key streams.
//!
//! All merges in this module uphold the contract that merging the partial
//! outputs of `n` clones produces output equal (as a multiset of records,
//! or exactly where ordering is the point, as in [`KeyedMerge`]'s
//! ascending keys) to what a single uncloned task would have produced.
//!
//! # The two merge cost classes
//!
//! The merge plane is the convergence point of the paper's skew story:
//! every record a cloned task emits flows through here, so merges are
//! tiered by how much of the record they ever materialize:
//!
//! * **Forward chunks verbatim** — [`ConcatMerge`] moves whole chunks
//!   from partials to the output as refcount bumps: no decode, no
//!   re-encode, no byte copy. This is also why chunk *splatting*
//!   (`TaskCtx::splat_chunk`) composes with the default merge for free —
//!   a splatted chunk forwarded by `ConcatMerge` is never re-encoded
//!   anywhere on its path from producer to final bag.
//! * **Fold borrowed views, own only accumulators** — [`ReduceMerge`]
//!   and [`KeyedMerge`] stream every record as a [`RecordView`] borrowed
//!   straight from the chunk bytes and fold it into accumulators in
//!   place. Only the *surviving* state is owned: one accumulator for a
//!   reduce; for a keyed merge of ascending partials one accumulator at
//!   a time (see "Streaming keyed merge" below), and otherwise one flat
//!   table (`keyed_table`) — every distinct key's encoded bytes back to
//!   back in one arena, one `(key end, accumulator)` entry per key in
//!   arrival order, and an open-addressing index of `(hash tag, entry
//!   number)` slots over them — so a new key costs three appends and no
//!   allocation. The records themselves — including string payloads and
//!   nested sequences — are never copied out of the chunk.
//!
//! A merge that must compare whole records — a sort, distinct values,
//! top-k, a median — is a closure: [`MergeLogic`] is implemented for
//! every `Fn(usize, &mut [BagReader], &mut BagWriter)`, which collects
//! the partials' records and writes what it computes from all of them.
//!
//! Results re-encode through the single-pass writer path
//! (`BagWriter::write_record` serializes straight into the chunk
//! buffer); a keyed merge re-encodes only accumulators, each after its
//! key's bytes copied verbatim (`BagWriter::write_keyed`).
//!
//! # Streaming keyed merge
//!
//! Partials written from ordered task state — a `for v in 0..n` loop,
//! another keyed merge's output — hold ascending keys, and every chunk
//! of them is written in key order. A bag spread over storage nodes
//! hands those chunks back in storage order, not in key order, but
//! ordering a partial's chunks by their first keys recovers the stream.
//! So [`KeyedMerge::merge_bounded`] first takes every partial's chunks
//! (refcounted, not copied) and counts their bytes against the budget;
//! orders each partial's chunks by first key; and checks, decoding keys
//! and stepping over values, that the partial's keys then strictly
//! ascend. If every partial does, one k-way pass merges them: per
//! output record, one key compare per other cursor and one fold per
//! partial holding the key, from the value view its cursor decoded when
//! it reached the record, ties folded in partial order. Nothing is
//! hashed, sorted or tabled.
//!
//! Anything else — a partial with a key out of order or repeated, a
//! record that does not decode, chunks whose bytes exceed the budget —
//! takes the table path, which folds the chunks already taken first, in
//! the order the readers delivered them, and releases each once folded.
//! Both paths fold each key's values partial by partial in delivery
//! order and write the keys ascending through the same writer, so their
//! output bytes are identical at every budget (the
//! `props_streaming_merge` property test). The table emit takes arrival
//! order as it is when that is already ascending, and otherwise sorts
//! `(key, entry)` pairs with the stable, run-adaptive sort.
//!
//! # Execution model: parallel outputs
//!
//! Whatever the cost class, one merge phase's *outputs* are independent:
//! output `j` folds only the partials targeted at `j`, into a writer no
//! other output touches. The runtime exploits this via [`merge_outputs`]
//! — a scoped worker pool (bounded by the `merge_parallelism` config
//! knob) through which the manager dispatches output indices. Merge
//! implementations therefore must tolerate concurrent merge calls on
//! one logic instance, which the `Send + Sync` bound on [`MergeLogic`]
//! already demands.
//!
//! # Bounded merges: the spill contract
//!
//! Every merge output runs [`MergeLogic::merge_bounded`] under the
//! configured budget (`merge_memory_budget`); at the default `u64::MAX`
//! nothing spills and the sink is never touched. [`KeyedMerge`]'s
//! accumulator table grows with key cardinality, so a skewed-enough
//! group-by could exceed any fixed memory. Its `merge_bounded` survives
//! *any* cardinality under the budget by external aggregation — and its
//! `merge` is the same code at an unbounded budget:
//!
//! * **Budget arithmetic.** A streaming merge holds its partials'
//!   chunks, and takes the table path once their bytes exceed the
//!   budget. The table's residency is counted exactly:
//!   key arena bytes + entries x `size_of::<(usize, Option<V>)>()` +
//!   index slots x 8, the index a power of two kept at most half full.
//!   Per distinct key of `(u32, u64)` records that is the key's 1–5
//!   bytes, a 24-byte entry and 16–32 bytes of index. Not counted: heap
//!   payloads *inside* an accumulator (a `Vec` value's elements) and
//!   the vectors' spare capacity.
//! * **Partial-record format.** When that count crosses the budget
//!   (checked at chunk boundaries, so residency overshoots by at most
//!   one chunk's new entries), the whole table drains into a scratch
//!   *run* and releases its memory. A run is `(key,
//!   partial-accumulator)` records in the canonical codec — the exact
//!   encoding the final output uses — in ascending key order. Runs land
//!   in scratch bags pinned to one storage node so their chunks read
//!   back in insertion (i.e. key) order.
//! * **Round invariants.** After the inputs drain, the surviving table
//!   spills as the final run. While more than `RUN_FANIN` runs exist, the
//!   oldest `RUN_FANIN` are k-way merged by the streaming merge's loop
//!   — equal keys folded oldest-run first — into one new run that re-enters the queue at the *front*,
//!   keeping the queue ordered oldest-to-newest. Each round therefore
//!   holds only `RUN_FANIN` cursors plus one accumulator in memory, and
//!   the run count strictly decreases: termination at any cardinality.
//!   The last ≤ `RUN_FANIN` runs merge directly into the output writer.
//! * **Determinism / byte-identity.** Within a run, each key's partial
//!   folded its values in arrival order; across runs, partials fold
//!   oldest-run first — so for an *associative* fold (which the merge
//!   contract already requires for clone reconciliation to be
//!   order-insensitive) every key's final accumulator equals the
//!   unbounded table's. Spilling or not, the merge then emits the same
//!   `(key, value)` records in the same ascending key order through the same
//!   [`BagWriter`] chunking, so the output chunk stream is byte-identical
//!   at any budget — pinned by the `spilled_merge_agrees_with_in_memory`
//!   property test.

use crate::error::EngineError;
use crate::keyed_table::KeyTable;
use crate::task::{BagReader, BagWriter, MergeLogic, SpillSink};
use hurricane_common::BagId;
use hurricane_format::{Chunk, ChunkReader, CodecError, RecordView};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Fan-in of one spill-merge round: how many scratch runs a bounded
/// [`KeyedMerge`] re-folds at a time. Bounds a round's memory at this
/// many run cursors (one chunk each) plus one accumulator.
const RUN_FANIN: usize = 8;

/// The default merge: concatenates all partial chunks into the output.
///
/// Correct whenever record order and grouping do not matter — map-style
/// tasks, filters, selects (paper §2.3). Chunks forward verbatim (an
/// `Arc` bump each): this merge never decodes or re-encodes a byte, so
/// chunks fanned out by splatting stay shared all the way down.
pub struct ConcatMerge;

impl MergeLogic for ConcatMerge {
    fn merge(
        &self,
        _output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        for p in partials {
            while let Some(chunk) = p.next_chunk()? {
                out.emit_chunk(chunk)?;
            }
        }
        Ok(())
    }
}

/// How a merge folds record views into an owned accumulator.
///
/// The accumulator is `Option<T>` so the fold owns initialization too:
/// `None` means no record has been folded yet. Implementations must be
/// *initialization-neutral* — folding a single record into `None` yields
/// exactly that record — so that merging one uncloned partial is the
/// identity.
///
/// Obtained via [`ReduceMerge::new`]/[`KeyedMerge::new`] (owned binary
/// combiner, converts each view to an owned record first) or
/// [`ReduceMerge::folding`]/[`KeyedMerge::folding`] (in-place borrowed
/// fold — the allocation-free path for accumulators with heap fields).
pub trait ViewFold<T: RecordView>: Send + Sync + 'static {
    /// Folds one record view into the accumulator.
    fn fold(&self, acc: &mut Option<T>, view: T::View<'_>);
}

/// [`ViewFold`] adapter over an owned binary combiner `Fn(T, T) -> T`.
///
/// Every record is converted to an owned value before combining — free
/// for `Copy` records, one conversion per record for heap-backed ones.
/// Prefer the `folding` constructors when the accumulator can absorb
/// views in place.
pub struct OwnedCombine<C>(C);

impl<T, C> ViewFold<T> for OwnedCombine<C>
where
    T: RecordView + Send + Sync + 'static,
    C: Fn(T, T) -> T + Send + Sync + 'static,
{
    fn fold(&self, acc: &mut Option<T>, view: T::View<'_>) {
        let owned = T::view_to_owned(view);
        *acc = Some(match acc.take() {
            None => owned,
            Some(a) => (self.0)(a, owned),
        });
    }
}

/// [`ViewFold`] adapter over an in-place borrowed fold
/// `Fn(&mut T, T::View<'_>)`.
///
/// The first record initializes the accumulator (via
/// [`RecordView::view_to_owned`]); every further record is handed to the
/// closure as a borrowed view, so nothing else is ever copied out of the
/// chunk.
pub struct InPlaceFold<C>(C);

impl<T, C> ViewFold<T> for InPlaceFold<C>
where
    T: RecordView + Send + Sync + 'static,
    C: for<'a> Fn(&mut T, T::View<'a>) + Send + Sync + 'static,
{
    fn fold(&self, acc: &mut Option<T>, view: T::View<'_>) {
        match acc {
            Some(a) => (self.0)(a, view),
            None => *acc = Some(T::view_to_owned(view)),
        }
    }
}

/// Reduces *all* records across all partials into a single record — the
/// shape of the paper's Phase 2 (`partial1 | partial2`) and Phase 3
/// (`partial1 + partial2`) merges.
///
/// Records stream through as borrowed views; only the single surviving
/// accumulator is owned.
pub struct ReduceMerge<T, F> {
    fold: F,
    _marker: PhantomData<fn(&T)>,
}

impl<T, C> ReduceMerge<T, OwnedCombine<C>>
where
    T: RecordView + Send + Sync + 'static,
    C: Fn(T, T) -> T + Send + Sync + 'static,
{
    /// Creates a reduce merge with owned binary combiner `combine`.
    pub fn new(combine: C) -> Self {
        Self {
            fold: OwnedCombine(combine),
            _marker: PhantomData,
        }
    }
}

impl<T, C> ReduceMerge<T, InPlaceFold<C>>
where
    T: RecordView + Send + Sync + 'static,
    C: for<'a> Fn(&mut T, T::View<'a>) + Send + Sync + 'static,
{
    /// Creates a reduce merge that folds borrowed views into the
    /// accumulator in place — no per-record owned conversion. The first
    /// record initializes the accumulator.
    pub fn folding(fold: C) -> Self {
        Self {
            fold: InPlaceFold(fold),
            _marker: PhantomData,
        }
    }
}

impl<T, F> MergeLogic for ReduceMerge<T, F>
where
    T: RecordView + Send + Sync + 'static,
    F: ViewFold<T>,
{
    fn merge(
        &self,
        _output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        let mut acc: Option<T> = None;
        for p in partials {
            while let Some(chunk) = p.next_chunk()? {
                ChunkReader::<T>::new(&chunk).for_each(|v| self.fold.fold(&mut acc, v))?;
            }
        }
        if let Some(a) = acc {
            out.write_record(&a)?;
            out.flush()?;
        }
        Ok(())
    }
}

/// Merges keyed records by combining values of equal keys — the merge
/// combiner shape (group-by aggregation) generalized to clone partials.
///
/// The output is written in ascending key order, each key's bytes copied
/// back verbatim, so results are deterministic. Partials whose keys
/// ascend stream through one k-way pass (the module doc's "Streaming
/// keyed merge"). Any others fold into a table, where the hot loop never
/// materializes a record: each `(key, value)` pair is decoded as
/// borrowed views, the key's *encoded bytes* (which are equal iff the
/// keys are equal — the codec is canonical) index one flat
/// arrival-ordered table (`KeyTable`: key arena, entry vector, tag index
/// — no allocation per key), and the value view folds into that key's
/// accumulator in place; keys are decoded only at emit time, to order
/// the output.
pub struct KeyedMerge<K, V, F> {
    fold: F,
    _marker: PhantomData<fn(&K, &V)>,
}

impl<K, V, C> KeyedMerge<K, V, OwnedCombine<C>>
where
    K: RecordView + Ord + Send + Sync + 'static,
    V: RecordView + Send + Sync + 'static,
    C: Fn(V, V) -> V + Send + Sync + 'static,
{
    /// Creates a keyed merge with owned per-key value combiner `combine`.
    pub fn new(combine: C) -> Self {
        Self {
            fold: OwnedCombine(combine),
            _marker: PhantomData,
        }
    }
}

impl<K, V, C> KeyedMerge<K, V, InPlaceFold<C>>
where
    K: RecordView + Ord + Send + Sync + 'static,
    V: RecordView + Send + Sync + 'static,
    C: for<'a> Fn(&mut V, V::View<'a>) + Send + Sync + 'static,
{
    /// Creates a keyed merge whose values fold into the per-key
    /// accumulator as borrowed views, in place. The first value of each
    /// key initializes its accumulator.
    pub fn folding(fold: C) -> Self {
        Self {
            fold: InPlaceFold(fold),
            _marker: PhantomData,
        }
    }
}

/// Where a k-way merge cursor's chunks come from: a partial's held
/// chunks in key order, or a spill run's reader.
trait ChunkSource {
    fn next_chunk(&mut self) -> Result<Option<Chunk>, EngineError>;
}

impl ChunkSource for std::vec::IntoIter<Chunk> {
    fn next_chunk(&mut self) -> Result<Option<Chunk>, EngineError> {
        Ok(self.next())
    }
}

impl ChunkSource for BagReader {
    fn next_chunk(&mut self) -> Result<Option<Chunk>, EngineError> {
        BagReader::next_chunk(self)
    }
}

/// One input of the k-way loop: a strictly ascending `(key, value)`
/// stream read chunk by chunk from its source. `chunk` is the chunk
/// being read (`None` once the source is spent) and `pos` the offset of
/// its first unmerged record.
struct Cursor<S> {
    source: S,
    chunk: Option<Chunk>,
    pos: usize,
}

impl<S: ChunkSource> Cursor<S> {
    fn new(source: S) -> Self {
        Self {
            source,
            chunk: None,
            pos: 0,
        }
    }

    /// Moves to the source's next non-empty chunk, or to its end.
    fn refill(&mut self) -> Result<(), EngineError> {
        self.pos = 0;
        loop {
            self.chunk = self.source.next_chunk()?;
            if !self.chunk.as_ref().is_some_and(Chunk::is_empty) {
                return Ok(());
            }
        }
    }

    /// Whether every record of the current chunk has been merged.
    fn spent(&self) -> bool {
        self.chunk.as_ref().is_some_and(|c| self.pos == c.len())
    }
}

/// A cursor's current record, decoded once: the key (owned, for the
/// compare), the value view the fold reads, the record's bytes onward
/// (`at`, of which the key is the first `key_len`), and the bytes past
/// it (`next`).
struct Head<'a, K, V: RecordView> {
    key: K,
    value: V::View<'a>,
    at: &'a [u8],
    key_len: usize,
    next: &'a [u8],
}

impl<'a, K: RecordView, V: RecordView> Head<'a, K, V> {
    /// Decodes the record at the front of `at`, which is not empty.
    fn read(at: &'a [u8]) -> Result<Self, CodecError> {
        let mut next = at;
        let key = K::decode(&mut next)?;
        let key_len = at.len() - next.len();
        let value = V::decode_view(&mut next)?;
        Ok(Self {
            key,
            value,
            at,
            key_len,
            next,
        })
    }

    /// Moves to the next record of the chunk, decoding it in place;
    /// `false`, with `at` empty, at the end of the chunk. (Rebuilding the
    /// head through [`Head::read`] instead moves it through the stack on
    /// every record, which made the k-way loop about 1.7 times slower.)
    #[inline]
    fn advance(&mut self) -> Result<bool, CodecError> {
        let at = self.next;
        self.at = at;
        if at.is_empty() {
            return Ok(false);
        }
        let mut next = at;
        self.key = K::decode(&mut next)?;
        self.key_len = at.len() - next.len();
        self.value = V::decode_view(&mut next)?;
        self.next = next;
        Ok(true)
    }

    /// The current record's key, as encoded.
    fn key_bytes(&self) -> &'a [u8] {
        &self.at[..self.key_len]
    }
}

impl<K, V, F> KeyedMerge<K, V, F>
where
    K: RecordView + Ord + Send + Sync + 'static,
    V: RecordView + Send + Sync + 'static,
    F: ViewFold<V>,
{
    /// `chunks` (one partial, in delivery order) reordered by their first
    /// keys, or `None` unless the partial's keys then strictly ascend.
    ///
    /// Task state written in key order — a `for v in 0..n` loop, another
    /// keyed merge's output — is written in ascending chunks, which a bag
    /// spread over storage nodes hands back in storage order; ordering
    /// the chunks by their first keys recovers the stream. The check
    /// decodes every key and steps over every value. A record that does
    /// not decode also answers `None`: the table path then meets it in
    /// delivery order and reports it as it always has.
    fn ascending_chunks(chunks: &[Chunk]) -> Option<Vec<Chunk>> {
        let mut order: Vec<(K, usize)> = Vec::with_capacity(chunks.len());
        for (i, c) in chunks.iter().enumerate() {
            if !c.is_empty() {
                order.push((K::decode(&mut c.bytes()).ok()?, i));
            }
        }
        order.sort_by(|a, b| a.0.cmp(&b.0));
        let mut prev: Option<K> = None;
        for &(_, i) in &order {
            let mut rest = chunks[i].bytes();
            while !rest.is_empty() {
                let key = K::decode(&mut rest).ok()?;
                V::decode_view(&mut rest).ok()?;
                if prev.as_ref().is_some_and(|p| *p >= key) {
                    return None;
                }
                prev = Some(key);
            }
        }
        Some(order.into_iter().map(|(_, i)| chunks[i].clone()).collect())
    }

    /// K-way merges strictly ascending cursors into `out`, folding equal
    /// keys in cursor order: partial order for held partials, oldest run
    /// first for spill runs. Each record's key and value are decoded once
    /// into its cursor's head, and each output record is the least key's
    /// bytes verbatim and the folded value ([`BagWriter::write_keyed`]).
    fn merge_cursors<S: ChunkSource>(
        &self,
        cursors: &mut [Cursor<S>],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        for c in cursors.iter_mut() {
            c.refill()?;
        }
        while self.merge_until_a_chunk_ends(cursors, out)? {
            for c in cursors.iter_mut().filter(|c| c.spent()) {
                c.refill()?;
            }
        }
        Ok(())
    }

    /// The k-way loop over the cursors' current chunks, whose heads
    /// borrow those chunks: it runs until a cursor's chunk is spent, then
    /// records each cursor's position and returns `true` so that the
    /// caller can fetch the next chunk. Returns `false` once every cursor
    /// is at its end.
    fn merge_until_a_chunk_ends<S>(
        &self,
        cursors: &mut [Cursor<S>],
        out: &mut BagWriter,
    ) -> Result<bool, EngineError> {
        // The live cursors' heads, in cursor order, and whose they are.
        let mut owners = Vec::with_capacity(cursors.len());
        let mut heads = Vec::with_capacity(cursors.len());
        for (i, c) in cursors.iter().enumerate() {
            if let Some(chunk) = &c.chunk {
                owners.push(i);
                heads.push(Head::<K, V>::read(&chunk.bytes()[c.pos..])?);
            }
        }
        if heads.is_empty() {
            return Ok(false);
        }
        let live = heads.len();
        let mut chunk_ended = false;
        while !chunk_ended {
            // The least key, at its first head `m`, and how many heads
            // hold it: one compare per other head.
            let (mut m, mut ties) = (0, 1);
            for i in 1..live {
                match heads[i].key.cmp(&heads[m].key) {
                    Ordering::Less => (m, ties) = (i, 1),
                    Ordering::Equal => ties += 1,
                    Ordering::Greater => {}
                }
            }
            // Ties fold in cursor order, each from its decoded view; the
            // least head moves on last, so that the others compare with
            // its key. When every head holds the key, none needs a
            // compare.
            let mut acc: Option<V> = None;
            let (least, later) = heads[m..].split_first_mut().expect("m is a head");
            self.fold.fold(&mut acc, least.value);
            let mut tied = ties - 1;
            for h in later.iter_mut() {
                if tied == 0 {
                    break;
                }
                if ties == live || h.key == least.key {
                    self.fold.fold(&mut acc, h.value);
                    chunk_ended |= !h.advance()?;
                    tied -= 1;
                }
            }
            let acc = acc.expect("at least one value folded");
            out.write_keyed(least.key_bytes(), &acc)?;
            chunk_ended |= !least.advance()?;
        }
        let unmerged: Vec<usize> = heads.iter().map(|h| h.at.len()).collect();
        drop(heads);
        for (&i, unmerged) in owners.iter().zip(unmerged) {
            let c = &mut cursors[i];
            c.pos = c.chunk.as_ref().map_or(0, Chunk::len) - unmerged;
        }
        Ok(true)
    }

    /// Folds one chunk of `(key, value)` records into the table.
    ///
    /// Keyed by the key's encoded bytes rather than the decoded key:
    /// equal keys encode identically (and vice versa), so no owned
    /// key — and no Hash bridge between K and its view — is needed on
    /// the per-record path. The manual span walk (instead of a
    /// ChunkReader driver) is what exposes each key's byte range.
    fn fold_chunk(&self, chunk: &Chunk, table: &mut KeyTable<V>) -> Result<(), EngineError> {
        let mut rest = chunk.bytes();
        while !rest.is_empty() {
            let record_start = rest;
            K::decode_view(&mut rest).map_err(EngineError::Codec)?;
            let key_bytes = &record_start[..record_start.len() - rest.len()];
            let value = V::decode_view(&mut rest).map_err(EngineError::Codec)?;
            self.fold.fold(table.slot(key_bytes), value);
        }
        Ok(())
    }

    /// The order that emits the table by ascending key, as `(key, entry)`
    /// pairs — or `None` when arrival order already is that order.
    ///
    /// Partials written from ordered task state (a `for v in 0..n` loop,
    /// the output of another keyed merge, a spill run) arrive as
    /// ascending runs. One such partial, or several over the same keys,
    /// fills the table in key order and needs no sort at all; the check
    /// for that decodes keys only until the first descent. Otherwise the
    /// sort is the run-adaptive stable one, which merges the runs that
    /// arrival order kept intact instead of starting from hash order.
    fn key_order(table: &KeyTable<V>) -> Option<Vec<(K, u32)>> {
        let decode =
            |i: usize| K::decode(&mut table.key(i)).expect("key bytes were validated on ingest");
        let mut prev: Option<K> = None;
        let ascending = (0..table.len()).all(|i| {
            let key = decode(i);
            let ok = prev.as_ref().is_none_or(|p| *p < key);
            prev = Some(key);
            ok
        });
        if ascending {
            return None;
        }
        // Entry numbers fit u32: the table's index holds them as such.
        let mut order: Vec<(K, u32)> = (0..table.len()).map(|i| (decode(i), i as u32)).collect();
        order.sort_by(|a, b| a.0.cmp(&b.0));
        Some(order)
    }

    /// Writes the table to `out` in ascending key order — what the
    /// terminal emit and every spill run share. Each record is the key's
    /// bytes as ingested (the codec is canonical, so these are the bytes
    /// re-encoding the decoded key would produce) followed by the
    /// encoded accumulator.
    fn write_sorted(table: &KeyTable<V>, out: &mut BagWriter) -> Result<(), EngineError> {
        let mut write = |i: usize| out.write_keyed(table.key(i), table.value(i));
        match Self::key_order(table) {
            None => (0..table.len()).try_for_each(write),
            Some(order) => order.iter().try_for_each(|&(_, i)| write(i as usize)),
        }
    }

    /// Drains the table into a fresh sorted scratch run; returns its bag.
    fn spill_table(
        table: &mut KeyTable<V>,
        sink: &mut dyn SpillSink,
    ) -> Result<BagId, EngineError> {
        let mut w = sink.create_run()?;
        Self::write_sorted(table, &mut w)?;
        w.flush()?;
        table.clear();
        Ok(w.bag_id())
    }

    /// K-way merges sorted `runs` into `out`, folding equal keys in run
    /// (i.e. oldest-first) order.
    fn merge_runs(
        &self,
        runs: &[BagId],
        sink: &mut dyn SpillSink,
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        let mut cursors = runs
            .iter()
            .map(|&bag| sink.open_run(bag).map(Cursor::new))
            .collect::<Result<Vec<_>, _>>()?;
        self.merge_cursors(&mut cursors, out)
    }

    /// The table path: every record folds into one hash table, which
    /// spills into sorted runs past `budget` (the module doc's spill
    /// contract). `held` — chunks already taken from the partials, in
    /// delivery order — folds first, each chunk released once folded;
    /// then the rest of `partials`.
    fn merge_by_table(
        &self,
        held: Vec<Vec<Chunk>>,
        partials: &mut [BagReader],
        out: &mut BagWriter,
        budget: u64,
        sink: &mut dyn SpillSink,
    ) -> Result<(), EngineError> {
        let mut table = KeyTable::new();
        let mut runs: VecDeque<BagId> = VecDeque::new();
        let mut fold = |chunk: Chunk, table: &mut KeyTable<V>| -> Result<(), EngineError> {
            self.fold_chunk(&chunk, table)?;
            // Budget check at chunk boundaries: residency overshoots by
            // at most the entries one chunk introduced. (An empty table
            // counts 0 bytes, so it never spills.)
            if table.bytes() > budget {
                runs.push_back(Self::spill_table(table, sink)?);
            }
            Ok(())
        };
        for chunk in held.into_iter().flatten() {
            fold(chunk, &mut table)?;
        }
        for p in partials.iter_mut() {
            while let Some(chunk) = p.next_chunk()? {
                fold(chunk, &mut table)?;
            }
        }
        if runs.is_empty() {
            // Nothing spilled: the table is the whole result.
            Self::write_sorted(&table, out)?;
            return out.flush();
        }
        if !table.is_empty() {
            runs.push_back(Self::spill_table(&mut table, sink)?);
        }
        // The re-fold rounds hold cursors, not the table.
        drop(table);
        // Hierarchical re-fold: merge the RUN_FANIN *oldest* runs into
        // one that re-enters at the front, keeping the queue (and thus
        // per-key fold order) oldest-first. Run count strictly
        // decreases, so this terminates at any cardinality while
        // holding only RUN_FANIN cursors in memory.
        while runs.len() > RUN_FANIN {
            let batch: Vec<BagId> = runs.drain(..RUN_FANIN).collect();
            let mut w = sink.create_run()?;
            self.merge_runs(&batch, sink, &mut w)?;
            w.flush()?;
            let merged = w.bag_id();
            for bag in batch {
                sink.release_run(bag)?;
            }
            runs.push_front(merged);
        }
        let batch: Vec<BagId> = runs.into();
        self.merge_runs(&batch, sink, out)?;
        for bag in batch {
            sink.release_run(bag)?;
        }
        out.flush()
    }
}

impl<K, V, F> MergeLogic for KeyedMerge<K, V, F>
where
    K: RecordView + Ord + Send + Sync + 'static,
    V: RecordView + Send + Sync + 'static,
    F: ViewFold<V>,
{
    /// The unbounded case of [`KeyedMerge::merge_bounded`]: one code path
    /// serves both.
    fn merge(
        &self,
        output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
    ) -> Result<(), EngineError> {
        self.merge_bounded(output_index, partials, out, u64::MAX, &mut Unspilled)
    }

    /// Holds every partial's chunks while their bytes fit `budget`, and
    /// streams them when every partial ascends; otherwise the table path
    /// (see the module doc's streaming and spill sections).
    fn merge_bounded(
        &self,
        _output_index: usize,
        partials: &mut [BagReader],
        out: &mut BagWriter,
        budget: u64,
        sink: &mut dyn SpillSink,
    ) -> Result<(), EngineError> {
        let mut held: Vec<Vec<Chunk>> = Vec::with_capacity(partials.len());
        let mut held_bytes = 0u64;
        for p in 0..partials.len() {
            let mut chunks = Vec::new();
            while let Some(chunk) = partials[p].next_chunk()? {
                held_bytes += chunk.len() as u64;
                chunks.push(chunk);
                if held_bytes > budget {
                    held.push(chunks);
                    return self.merge_by_table(held, &mut partials[p..], out, budget, sink);
                }
            }
            held.push(chunks);
        }
        let ordered: Option<Vec<Vec<Chunk>>> =
            held.iter().map(|c| Self::ascending_chunks(c)).collect();
        let Some(ordered) = ordered else {
            return self.merge_by_table(held, &mut [], out, budget, sink);
        };
        // The ordered copies hold the only references from here on, so
        // each chunk is released as its cursor leaves it.
        drop(held);
        let mut cursors: Vec<_> = ordered
            .into_iter()
            .map(|chunks| Cursor::new(chunks.into_iter()))
            .collect();
        self.merge_cursors(&mut cursors, out)?;
        out.flush()
    }
}

/// The sink of a merge at an unbounded budget, which never spills.
struct Unspilled;

impl SpillSink for Unspilled {
    fn create_run(&mut self) -> Result<BagWriter, EngineError> {
        unreachable!("a merge at an unbounded budget never spills")
    }

    fn open_run(&mut self, _bag: BagId) -> Result<BagReader, EngineError> {
        unreachable!("a merge at an unbounded budget never spills")
    }

    fn release_run(&mut self, _bag: BagId) -> Result<(), EngineError> {
        unreachable!("a merge at an unbounded budget never spills")
    }
}

/// Runs one merge phase's output jobs, dispatching independent output
/// indices across up to `parallelism` scoped worker threads.
///
/// Each job is `(output_index, partial readers, output writer)` and runs
/// [`MergeLogic::merge_bounded`] under `budget` with its own
/// [`SpillSink`], minted by `make_sink`, so concurrent outputs never
/// share run state. At `u64::MAX` nothing spills and no sink is touched.
/// Outputs of one merge never share a reader or writer, so they are
/// embarrassingly parallel — the only shared state is the
/// [`MergeLogic`] instance itself (`Send + Sync` by trait bound).
/// Workers claim jobs from a shared queue, so a skewed output (one hot
/// key range) does not stall the rest. With `parallelism <= 1` or a
/// single job the jobs run inline on the calling thread.
///
/// On failure the first error wins: remaining queued jobs are abandoned,
/// in-flight ones run to completion, and that error is returned.
pub fn merge_outputs(
    merge: &dyn MergeLogic,
    parallelism: usize,
    jobs: Vec<(usize, Vec<BagReader>, BagWriter)>,
    budget: u64,
    make_sink: &(dyn Fn() -> Box<dyn SpillSink> + Sync),
) -> Result<(), EngineError> {
    let run = |(out_idx, mut partials, mut out): (usize, Vec<BagReader>, BagWriter)| {
        let mut sink = make_sink();
        merge.merge_bounded(out_idx, &mut partials, &mut out, budget, sink.as_mut())?;
        out.flush()
    };
    if parallelism <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().try_for_each(run);
    }
    let workers = parallelism.min(jobs.len());
    let queue = Mutex::new(jobs.into_iter());
    let failure: Mutex<Option<EngineError>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if failure.lock().is_some() {
                    return;
                }
                let Some(job) = queue.lock().next() else {
                    return;
                };
                if let Err(e) = run(job) {
                    failure.lock().get_or_insert(e);
                    return;
                }
            });
        }
    });
    failure.into_inner().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_format::{decode_all, FixedU64, Record, SeqView};
    use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster};
    use std::sync::Arc;

    /// Builds `n` partial bags, fills each with `fill(i)`, seals them, and
    /// runs `merge` into a fresh output bag; returns the decoded output.
    fn run_merge<T, M>(n: usize, fill: impl Fn(usize) -> Vec<T>, merge: M) -> Vec<T>
    where
        T: Record + Clone + std::fmt::Debug,
        M: MergeLogic,
    {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let mut readers = Vec::new();
        for i in 0..n {
            let bag = cluster.create_bag();
            let mut w = BagWriter::open(cluster.clone(), bag, i as u64, 128);
            for rec in fill(i) {
                w.write_record(&rec).unwrap();
            }
            w.flush().unwrap();
            cluster.seal_bag(bag).unwrap();
            readers.push(BagReader::open(
                cluster.clone(),
                bag,
                1000 + i as u64,
                4,
                None,
            ));
        }
        let out_bag = cluster.create_bag();
        let mut out = BagWriter::open(cluster.clone(), out_bag, 77, 128);
        merge.merge(0, &mut readers, &mut out).unwrap();
        out.flush().unwrap();
        cluster.seal_bag(out_bag).unwrap();
        read_bag(&cluster, out_bag)
    }

    fn read_bag<T: Record>(cluster: &Arc<StorageCluster>, bag: hurricane_common::BagId) -> Vec<T> {
        let mut out = Vec::new();
        for c in RpcPort::inline(cluster.clone()).snapshot_bag(bag).unwrap() {
            out.extend(decode_all::<T>(&c).unwrap());
        }
        out
    }

    #[test]
    fn concat_preserves_multiset() {
        let mut got: Vec<u64> =
            run_merge(3, |i| vec![i as u64 * 10, i as u64 * 10 + 1], ConcatMerge);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 10, 11, 20, 21]);
    }

    #[test]
    fn reduce_sums_counts() {
        // Paper Phase 3 merge: output.insert(partial1 + partial2).
        let got: Vec<u64> = run_merge(
            4,
            |i| vec![(i as u64 + 1) * 100],
            ReduceMerge::new(|a: u64, b: u64| a + b),
        );
        assert_eq!(got, vec![1000]);
    }

    #[test]
    fn reduce_ors_bitsets() {
        // Paper Phase 2 merge: output.insert(partial1 | partial2), with a
        // bitset encoded as Vec<u64> words of possibly different lengths.
        let or = |a: Vec<u64>, b: Vec<u64>| -> Vec<u64> {
            let (mut long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            for (i, w) in short.into_iter().enumerate() {
                long[i] |= w;
            }
            long
        };
        let got: Vec<Vec<u64>> = run_merge(
            3,
            |i| vec![vec![1u64 << i, if i == 2 { 0b100 } else { 0 }]],
            ReduceMerge::new(or),
        );
        assert_eq!(got, vec![vec![0b111, 0b100]]);
    }

    #[test]
    fn reduce_folding_ors_bitsets_in_place() {
        // The borrowed-fold path: word views OR straight into the
        // accumulator, no owned Vec per record.
        fn or_into(acc: &mut Vec<u64>, words: SeqView<'_, u64>) {
            if words.len() > acc.len() {
                acc.resize(words.len(), 0);
            }
            for (slot, w) in acc.iter_mut().zip(words.iter()) {
                *slot |= w;
            }
        }
        let got: Vec<Vec<u64>> = run_merge(
            3,
            |i| vec![vec![1u64 << i, if i == 2 { 0b100 } else { 0 }]],
            ReduceMerge::folding(or_into),
        );
        assert_eq!(got, vec![vec![0b111, 0b100]]);
    }

    #[test]
    fn reduce_folding_over_fixed_words() {
        fn or_into(acc: &mut Vec<FixedU64>, words: SeqView<'_, FixedU64>) {
            if words.len() > acc.len() {
                acc.resize(words.len(), FixedU64(0));
            }
            for (slot, w) in acc.iter_mut().zip(words.iter()) {
                slot.0 |= w.0;
            }
        }
        let got: Vec<Vec<FixedU64>> = run_merge(
            4,
            |i| vec![vec![FixedU64(1 << i)]],
            ReduceMerge::folding(or_into),
        );
        assert_eq!(got, vec![vec![FixedU64(0b1111)]]);
    }

    #[test]
    fn reduce_single_partial_is_identity() {
        let got: Vec<u64> = run_merge(1, |_| vec![42], ReduceMerge::new(|a: u64, b: u64| a + b));
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn reduce_empty_partials_is_empty() {
        let got: Vec<u64> = run_merge(3, |_| vec![], ReduceMerge::new(|a: u64, b: u64| a + b));
        assert!(got.is_empty());
    }

    #[test]
    fn keyed_merge_combines_per_key() {
        let got: Vec<(String, u64)> = run_merge(
            2,
            |i| vec![("usa".to_string(), 10 + i as u64), (format!("only{i}"), 1)],
            KeyedMerge::<String, u64, _>::new(|a, b| a + b),
        );
        let usa = got.iter().find(|(k, _)| k == "usa").unwrap();
        assert_eq!(usa.1, 21);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn keyed_merge_emits_in_key_order() {
        let got: Vec<(u32, u64)> = run_merge(
            3,
            |i| (0..10u32).rev().map(|k| (k, i as u64 + 1)).collect(),
            KeyedMerge::<u32, u64, _>::new(|a, b| a + b),
        );
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "keys ascending");
        assert!(got.iter().all(|&(_, v)| v == 6), "1+2+3 per key");
    }

    #[test]
    fn keyed_merge_folding_combines_in_place() {
        let got: Vec<(String, (u64, u64))> = run_merge(
            2,
            |i| {
                vec![
                    ("a".to_string(), (i as u64, 1)),
                    ("b".to_string(), (10, i as u64)),
                ]
            },
            KeyedMerge::<String, (u64, u64), _>::folding(|acc, v: (u64, u64)| {
                acc.0 += v.0;
                acc.1 = acc.1.max(v.1);
            }),
        );
        assert_eq!(
            got,
            vec![("a".to_string(), (1, 1)), ("b".to_string(), (20, 1)),]
        );
    }

    /// The sink factory of every unbounded [`merge_outputs`] call here:
    /// its sink panics on any method, so the unbounded driver can never
    /// reach a sink unseen.
    fn unspilled() -> Box<dyn SpillSink> {
        Box::new(Unspilled)
    }

    /// Builds an `instances x outputs` grid of partial bags (each filled
    /// with keyed records skewed per instance), runs `merge_outputs` at
    /// the given parallelism, and returns the raw chunk byte-streams of
    /// every output bag in output order.
    fn keyed_grid_merge(parallelism: usize, instances: usize, outputs: usize) -> Vec<Vec<Vec<u8>>> {
        let cluster = StorageCluster::new(3, ClusterConfig::default());
        let mut jobs = Vec::new();
        let mut out_bags = Vec::new();
        for out_idx in 0..outputs {
            let partials: Vec<BagReader> = (0..instances)
                .map(|i| {
                    let bag = cluster.create_bag();
                    let seed = (out_idx * instances + i) as u64;
                    let mut w = BagWriter::open(cluster.clone(), bag, seed, 128);
                    // Skewed row counts so outputs finish at different
                    // times; overlapping keys so the merge must combine.
                    for r in 0..(i + 1) * 7 {
                        let key = format!("k{:02}", r % 5);
                        w.write_record(&(key, (out_idx * 100 + r) as u64)).unwrap();
                    }
                    w.flush().unwrap();
                    cluster.seal_bag(bag).unwrap();
                    BagReader::open(cluster.clone(), bag, 1000 + seed, 4, None)
                })
                .collect();
            let out_bag = cluster.create_bag();
            let out = BagWriter::open(cluster.clone(), out_bag, 500 + out_idx as u64, 128);
            out_bags.push(out_bag);
            jobs.push((out_idx, partials, out));
        }
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);
        merge_outputs(&merge, parallelism, jobs, u64::MAX, &unspilled).unwrap();
        out_bags
            .into_iter()
            .map(|bag| {
                cluster.seal_bag(bag).unwrap();
                RpcPort::inline(cluster.clone())
                    .snapshot_bag(bag)
                    .unwrap()
                    .iter()
                    .map(|c| c.bytes().to_vec())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parallel_outputs_byte_identical_to_sequential() {
        // The knob changes wall-clock only: every output bag's chunk
        // stream must match the sequential run byte for byte.
        let sequential = keyed_grid_merge(1, 3, 5);
        for par in [2, 4, 8] {
            assert_eq!(
                keyed_grid_merge(par, 3, 5),
                sequential,
                "merge_parallelism {par} changed output bytes"
            );
        }
    }

    #[test]
    fn merge_outputs_propagates_first_error() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let failing = |idx: usize, partials: &mut [BagReader], out: &mut BagWriter| {
            if idx == 3 {
                return Err(EngineError::TaskFailed {
                    task: hurricane_common::TaskId(3),
                    message: "injected".into(),
                });
            }
            ConcatMerge.merge(idx, partials, out)
        };
        for par in [1usize, 4] {
            let jobs: Vec<_> = (0..6)
                .map(|out_idx| {
                    let bag = cluster.create_bag();
                    let mut w = BagWriter::open(cluster.clone(), bag, out_idx as u64, 128);
                    w.write_record(&(out_idx as u64)).unwrap();
                    w.flush().unwrap();
                    cluster.seal_bag(bag).unwrap();
                    (
                        out_idx,
                        vec![BagReader::open(cluster.clone(), bag, 1, 4, None)],
                        BagWriter::open(cluster.clone(), cluster.create_bag(), 9, 128),
                    )
                })
                .collect();
            let err = merge_outputs(&failing, par, jobs, u64::MAX, &unspilled).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::TaskFailed {
                        task: hurricane_common::TaskId(3),
                        ..
                    }
                ),
                "parallelism {par}: wrong error {err:?}"
            );
        }
    }

    /// A [`SpillSink`] over an in-process cluster: every run pinned to
    /// node 0 (insertion-order read-back) with shared lifecycle tracking
    /// so tests can assert no scratch outlives the merge. It counts what
    /// the merge spilled: every run it creates, and apart the runs created
    /// after a release — only a re-fold round writes a run once folding
    /// has begun, so a nonzero count means the runs took more than one
    /// intermediate round.
    struct TestSink {
        cluster: Arc<StorageCluster>,
        chunk_size: usize,
        seed: u64,
        live: Arc<Mutex<Vec<BagId>>>,
        created: Arc<Mutex<usize>>,
        released: bool,
        created_after_release: usize,
    }

    impl TestSink {
        fn new(cluster: &Arc<StorageCluster>, chunk_size: usize) -> Self {
            Self {
                cluster: cluster.clone(),
                chunk_size,
                seed: 9000,
                live: Arc::new(Mutex::new(Vec::new())),
                created: Arc::new(Mutex::new(0)),
                released: false,
                created_after_release: 0,
            }
        }
    }

    impl SpillSink for TestSink {
        fn create_run(&mut self) -> Result<BagWriter, EngineError> {
            let bag = self.cluster.create_bag();
            self.live.lock().push(bag);
            *self.created.lock() += 1;
            self.created_after_release += usize::from(self.released);
            self.seed += 1;
            let client = hurricane_storage::BagClient::new(self.cluster.clone(), bag, self.seed)
                .with_pinned_node(0);
            Ok(BagWriter::open_batched_client(client, self.chunk_size, 1))
        }

        fn open_run(&mut self, bag: BagId) -> Result<BagReader, EngineError> {
            self.cluster.seal_bag(bag)?;
            self.seed += 1;
            Ok(BagReader::open(
                self.cluster.clone(),
                bag,
                self.seed,
                1,
                None,
            ))
        }

        fn release_run(&mut self, bag: BagId) -> Result<(), EngineError> {
            RpcPort::inline(self.cluster.clone()).collect_bag(bag)?;
            self.live.lock().retain(|&b| b != bag);
            self.released = true;
            Ok(())
        }
    }

    /// Builds `n` sealed partial bags filled by `fill` and returns their
    /// readers.
    fn string_partials(
        cluster: &Arc<StorageCluster>,
        n: usize,
        fill: &dyn Fn(usize) -> Vec<(String, u64)>,
    ) -> Vec<BagReader> {
        (0..n)
            .map(|i| {
                let bag = cluster.create_bag();
                let mut w = BagWriter::open(cluster.clone(), bag, i as u64, 128);
                for rec in fill(i) {
                    w.write_record(&rec).unwrap();
                }
                w.flush().unwrap();
                cluster.seal_bag(bag).unwrap();
                BagReader::open(cluster.clone(), bag, 1000 + i as u64, 4, None)
            })
            .collect()
    }

    /// Runs `merge` over identical inputs once unbounded and once bounded
    /// at `budget`; returns (unbounded chunks, bounded chunks, sink) for
    /// comparison.
    fn bounded_vs_unbounded<M: MergeLogic>(
        merge: &M,
        budget: u64,
        chunk_size: usize,
        n: usize,
        fill: &dyn Fn(usize) -> Vec<(String, u64)>,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, TestSink) {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let chunks_of = |bag| {
            cluster.seal_bag(bag).unwrap();
            RpcPort::inline(cluster.clone())
                .snapshot_bag(bag)
                .unwrap()
                .iter()
                .map(|c| c.bytes().to_vec())
                .collect::<Vec<_>>()
        };
        let mut readers = string_partials(&cluster, n, fill);
        let plain_bag = cluster.create_bag();
        let mut plain_out = BagWriter::open(cluster.clone(), plain_bag, 77, chunk_size);
        merge.merge(0, &mut readers, &mut plain_out).unwrap();
        plain_out.flush().unwrap();

        let mut readers = string_partials(&cluster, n, fill);
        let bounded_bag = cluster.create_bag();
        let mut bounded_out = BagWriter::open(cluster.clone(), bounded_bag, 77, chunk_size);
        let mut sink = TestSink::new(&cluster, chunk_size);
        merge
            .merge_bounded(0, &mut readers, &mut bounded_out, budget, &mut sink)
            .unwrap();
        bounded_out.flush().unwrap();
        (chunks_of(plain_bag), chunks_of(bounded_bag), sink)
    }

    fn skewed_fill(i: usize) -> Vec<(String, u64)> {
        // Overlapping hot keys plus per-partial distinct keys, unsorted.
        (0..120)
            .map(|r| (format!("k{:03}", (r * 7 + i * 3) % 60), (r + i) as u64))
            .collect()
    }

    #[test]
    fn bounded_keyed_merge_is_byte_identical_across_budgets() {
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);
        for budget in [0, 1, 300, 4 * 1024, u64::MAX] {
            let (plain, bounded, sink) = bounded_vs_unbounded(&merge, budget, 128, 3, &skewed_fill);
            assert_eq!(plain, bounded, "budget {budget} changed output bytes");
            if budget < 300 {
                assert!(*sink.created.lock() > 0, "tiny budget {budget} must spill");
            }
            assert!(
                sink.live.lock().is_empty(),
                "budget {budget} leaked scratch runs"
            );
        }
    }

    #[test]
    fn spill_run_write_fails_at_the_chunk_its_node_refuses() {
        // A run is pinned for its read-back order, so its writer must
        // not re-route, and must report the refusal at the chunk that
        // met it (no window hides it until a later flush).
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let mut sink = TestSink::new(&cluster, 64);
        let mut run = sink.create_run().unwrap();
        let bag = run.bag_id();
        run.emit_chunk(hurricane_format::Chunk::from_vec(vec![1]))
            .unwrap();
        cluster.node(0).fail();
        let refused = run.emit_chunk(hurricane_format::Chunk::from_vec(vec![2]));
        assert!(
            matches!(
                refused,
                Err(EngineError::Storage(
                    hurricane_storage::StorageError::NodeDown(_)
                ))
            ),
            "{refused:?}"
        );
        assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
    }

    #[test]
    fn bounded_keyed_merge_folding_is_byte_identical() {
        let merge = KeyedMerge::<String, u64, _>::folding(|acc, v: u64| *acc += v);
        let (plain, bounded, sink) = bounded_vs_unbounded(&merge, 0, 96, 2, &skewed_fill);
        assert_eq!(plain, bounded);
        assert!(*sink.created.lock() > 0);
        assert!(sink.live.lock().is_empty());
    }

    #[test]
    fn bounded_merge_refolds_hierarchically_past_run_fanin() {
        // Budget 0 spills once per input chunk; small chunks make far
        // more runs than RUN_FANIN, forcing intermediate re-merge rounds.
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);
        let fill = |i: usize| {
            (0..400)
                .map(|r| (format!("key{:04}", (r * 13 + i) % 250), r as u64))
                .collect::<Vec<_>>()
        };
        let (plain, bounded, sink) = bounded_vs_unbounded(&merge, 0, 64, 2, &fill);
        assert_eq!(plain, bounded);
        let created = *sink.created.lock();
        assert!(
            created > RUN_FANIN,
            "need > RUN_FANIN runs to exercise re-folding, got {created}"
        );
        assert!(
            sink.created_after_release > 0,
            "expected intermediate rounds"
        );
        assert!(sink.live.lock().is_empty());
    }

    #[test]
    fn unbounded_budget_never_touches_the_sink() {
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);
        let (plain, bounded, sink) = bounded_vs_unbounded(&merge, u64::MAX, 128, 3, &skewed_fill);
        assert_eq!(plain, bounded);
        assert_eq!(*sink.created.lock(), 0, "no scratch bag may be created");
    }

    #[test]
    fn bounded_merge_of_empty_partials_is_empty() {
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);
        let (plain, bounded, sink) = bounded_vs_unbounded(&merge, 0, 128, 3, &|_| Vec::new());
        assert_eq!(plain, bounded);
        assert!(plain.is_empty());
        assert_eq!(*sink.created.lock(), 0);
    }

    #[test]
    fn default_merge_bounded_falls_back_to_unbounded() {
        // Merges without per-key state (here: concat) use the default
        // method — unbounded behavior, no sink traffic.
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let mut readers = string_partials(&cluster, 2, &skewed_fill);
        let out_bag = cluster.create_bag();
        let mut out = BagWriter::open(cluster.clone(), out_bag, 77, 128);
        let mut sink = TestSink::new(&cluster, 128);
        ConcatMerge
            .merge_bounded(0, &mut readers, &mut out, 0, &mut sink)
            .unwrap();
        out.flush().unwrap();
        assert_eq!(*sink.created.lock(), 0);
        cluster.seal_bag(out_bag).unwrap();
        assert_eq!(
            read_bag::<(String, u64)>(&cluster, out_bag).len(),
            2 * skewed_fill(0).len()
        );
    }

    #[test]
    fn spilling_outputs_match_unbounded_outputs() {
        // The driver-level check: a multi-output keyed merge spilling
        // under a tiny budget produces the same bytes per output as the
        // same driver unbounded, and releases every scratch run.
        let build_jobs = |cluster: &Arc<StorageCluster>| -> (Vec<_>, Vec<BagId>) {
            let mut jobs = Vec::new();
            let mut out_bags = Vec::new();
            for out_idx in 0..4usize {
                let partials: Vec<BagReader> = (0..3)
                    .map(|i| {
                        let bag = cluster.create_bag();
                        let seed = (out_idx * 3 + i) as u64;
                        let mut w = BagWriter::open(cluster.clone(), bag, seed, 128);
                        for r in 0..80 {
                            w.write_record(&(format!("k{:02}", (r + i) % 40), r as u64))
                                .unwrap();
                        }
                        w.flush().unwrap();
                        cluster.seal_bag(bag).unwrap();
                        BagReader::open(cluster.clone(), bag, 1000 + seed, 4, None)
                    })
                    .collect();
                let out_bag = cluster.create_bag();
                let out = BagWriter::open(cluster.clone(), out_bag, 500 + out_idx as u64, 128);
                out_bags.push(out_bag);
                jobs.push((out_idx, partials, out));
            }
            (jobs, out_bags)
        };
        let collect = |cluster: &Arc<StorageCluster>, bags: Vec<BagId>| -> Vec<Vec<Vec<u8>>> {
            bags.into_iter()
                .map(|bag| {
                    cluster.seal_bag(bag).unwrap();
                    RpcPort::inline(cluster.clone())
                        .snapshot_bag(bag)
                        .unwrap()
                        .iter()
                        .map(|c| c.bytes().to_vec())
                        .collect()
                })
                .collect()
        };
        let merge = KeyedMerge::<String, u64, _>::new(|a, b| a + b);

        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let (jobs, out_bags) = build_jobs(&cluster);
        merge_outputs(&merge, 2, jobs, u64::MAX, &unspilled).unwrap();
        let plain = collect(&cluster, out_bags);

        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let (jobs, out_bags) = build_jobs(&cluster);
        let live: Arc<Mutex<Vec<BagId>>> = Arc::new(Mutex::new(Vec::new()));
        let created = Arc::new(Mutex::new(0));
        let make_sink = || -> Box<dyn SpillSink> {
            let mut sink = TestSink::new(&cluster, 128);
            sink.live = live.clone();
            sink.created = created.clone();
            Box::new(sink)
        };
        merge_outputs(&merge, 2, jobs, 64, &make_sink).unwrap();
        assert!(*created.lock() > 0, "tiny budget must spill");
        assert!(live.lock().is_empty(), "scratch runs leaked");
        assert_eq!(collect(&cluster, out_bags), plain);
    }
}
