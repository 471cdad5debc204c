//! Chunk-boundary-respecting record streams.
//!
//! [`ChunkWriter`] packs a stream of records into chunks of at most
//! `chunk_size` bytes, closing a chunk whenever the next record would not
//! fit. [`ChunkReader`] iterates the records of one chunk. Together they
//! uphold the invariant from paper §2.2: *records never cross chunk
//! boundaries*, so any subset of a bag's chunks — the subset a task clone
//! happens to remove — decodes independently.

use crate::chunk::Chunk;
use crate::codec::{CodecError, Record};
use crate::view::{FixedStride, RecordView, StrideSlice};
use core::marker::PhantomData;

/// Serializes records into fixed-capacity chunks.
///
/// # Examples
///
/// ```
/// use hurricane_format::ChunkWriter;
///
/// let mut w = ChunkWriter::<u64>::new(16);
/// let mut chunks = Vec::new();
/// for i in 0..100u64 {
///     chunks.extend(w.push(&i).unwrap());
/// }
/// chunks.extend(w.finish());
/// assert!(chunks.iter().all(|c| c.len() <= 16));
/// ```
pub struct ChunkWriter<T: Record> {
    body: ChunkBuf,
    records_in_buf: u64,
    records_total: u64,
    chunks_emitted: u64,
    _marker: PhantomData<fn(&T)>,
}

/// The type-free core of single-pass chunk building: a byte buffer plus
/// the never-cross-a-chunk-boundary protocol.
///
/// Both [`ChunkWriter`] (typed, this crate) and `hurricane-core`'s
/// `BagWriter` build chunks the same way — serialize one record's bytes
/// into the buffer, then enforce the boundary invariant — so the
/// protocol lives here once: the encode-headroom capacity policy, the
/// seal that keeps the overflowing record for the next chunk, and the
/// truncate rollback (with capacity release) for oversized records.
///
/// Usage per record: append exactly one record's encoding to
/// [`ChunkBuf::encode_buf`], then call [`ChunkBuf::commit`] with the
/// pre-append length. A returned `Ok(Some(chunk))` is a completed chunk.
///
/// One build buffer lives as long as the `ChunkBuf`. A seal copies the
/// chunk's bytes once, into an allocation of exactly their size
/// ([`Chunk::copy_from_slice`]), and the build buffer is reused: a
/// stored chunk never keeps the build buffer's headroom alive.
#[derive(Debug)]
pub struct ChunkBuf {
    chunk_size: usize,
    buf: Vec<u8>,
}

impl ChunkBuf {
    /// Headroom reserved beyond the chunk capacity so that single-pass
    /// encoding of the record that overflows a chunk (its bytes land in
    /// the buffer *before* the boundary check) does not reallocate the
    /// nearly-full buffer. Records up to this size never trigger a
    /// mid-encode realloc; capped at `chunk_size` so tiny test chunks
    /// don't over-allocate.
    ///
    /// The same headroom keeps [`crate::varint::encode`] on its word
    /// store, which wants eight spare bytes: between seals the buffer
    /// holds at most `chunk_size` bytes plus the record being written.
    /// (With fewer spare bytes it encodes per byte; nothing breaks.)
    const ENCODE_HEADROOM: usize = 4096;

    fn normal_capacity(chunk_size: usize) -> usize {
        chunk_size + Self::ENCODE_HEADROOM.min(chunk_size)
    }

    /// Creates an empty buffer for chunks of at most `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            chunk_size,
            buf: Vec::with_capacity(Self::normal_capacity(chunk_size)),
        }
    }

    /// The configured chunk capacity.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The raw buffer to serialize one record into. Callers must append
    /// exactly one record's encoding and then [`ChunkBuf::commit`] it.
    #[inline]
    pub fn encode_buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Enforces the boundary invariant for the record appended since
    /// `start` (the buffer length before the append). Returns the
    /// previous contents sealed as a chunk if the record overflowed the
    /// capacity (the record stays in the buffer, as the next chunk's
    /// first), or [`CodecError::RecordTooLarge`] (rolled back; the buffer
    /// stays usable) if the record alone can never fit a chunk.
    #[inline]
    pub fn commit(&mut self, start: usize) -> Result<Option<Chunk>, CodecError> {
        // One branch on the hot path: an in-capacity append needs no
        // other bookkeeping. Overflow (once per chunk) and the oversized-
        // record error share the cold path.
        if self.buf.len() > self.chunk_size {
            return self.overflow(start);
        }
        Ok(None)
    }

    /// Cold: runs once per sealed chunk (or on an oversized record),
    /// keeping `commit`'s hot body small enough to inline into record
    /// loops.
    #[cold]
    fn overflow(&mut self, start: usize) -> Result<Option<Chunk>, CodecError> {
        let len = self.buf.len() - start;
        if len > self.chunk_size {
            self.buf.truncate(start);
            // The oversized encode may have grown the buffer well past
            // its normal capacity; release that transient spike rather
            // than carrying it until the next seal.
            self.buf.shrink_to(Self::normal_capacity(self.chunk_size));
            return Err(CodecError::RecordTooLarge {
                record: len,
                chunk: self.chunk_size,
            });
        }
        debug_assert!(start > 0, "overflow implies a non-empty prefix");
        let sealed = Chunk::copy_from_slice(&self.buf[..start]);
        self.buf.drain(..start);
        // An overflowing record larger than the headroom grew the buffer;
        // give that back rather than keep it for the writer's lifetime.
        self.buf.shrink_to(Self::normal_capacity(self.chunk_size));
        Ok(Some(sealed))
    }

    /// Appends records from the front of `records` until one seals a
    /// chunk or the slice ends, and returns how many it took with the
    /// sealed chunk, if any: the run form of an `encode` +
    /// [`ChunkBuf::commit`] loop, with the same chunk bytes and the same
    /// boundaries.
    ///
    /// A record that is nothing but varints ([`Record::VARINTS`] of them)
    /// is at most `VARINTS × MAX_VARINT_LEN` bytes, so while at least
    /// one such bound fits before the chunk size, the records that surely
    /// fit go through one word-store loop ([`crate::varint`]'s run
    /// encoder) and need no boundary check. Records near the boundary,
    /// and every other type, take the per-record commit.
    ///
    /// `Err(RecordTooLarge)` means `records[0]` alone cannot fit a chunk:
    /// nothing was taken and the buffer stays usable. A later record that
    /// cannot ends the call just before it, so the next call reports it.
    pub fn push_run<T: Record>(
        &mut self,
        records: &[T],
    ) -> Result<(usize, Option<Chunk>), CodecError> {
        let bound = T::VARINTS * crate::varint::MAX_VARINT_LEN;
        let mut taken = 0;
        while let Some(record) = records.get(taken) {
            // Zero for a type with no bound: the per-record path.
            let room = self.chunk_size.saturating_sub(self.buf.len());
            let fit = room.checked_div(bound).unwrap_or(0);
            let fit = fit.min(records.len() - taken);
            if fit > 0 {
                crate::varint::encode_run(&records[taken..taken + fit], &mut self.buf);
                taken += fit;
                continue;
            }
            let start = self.buf.len();
            record.encode(&mut self.buf);
            match self.commit(start) {
                Ok(None) => taken += 1,
                Ok(Some(chunk)) => return Ok((taken + 1, Some(chunk))),
                Err(e) if taken == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok((taken, None))
    }

    /// Appends one pre-serialized record, sealing first if it would not
    /// fit — the fan-out primitive's byte layer.
    #[inline]
    pub fn append_encoded(&mut self, bytes: &[u8]) -> Result<Option<Chunk>, CodecError> {
        if bytes.len() > self.chunk_size {
            return Err(CodecError::RecordTooLarge {
                record: bytes.len(),
                chunk: self.chunk_size,
            });
        }
        let mut completed = None;
        if self.buf.len() + bytes.len() > self.chunk_size {
            completed = self.take();
        }
        self.buf.extend_from_slice(bytes);
        Ok(completed)
    }

    /// Seals the buffered records as a completed (possibly short)
    /// chunk, leaving the build buffer empty; `None` when nothing is
    /// buffered.
    pub fn take(&mut self) -> Option<Chunk> {
        if self.buf.is_empty() {
            return None;
        }
        let sealed = Chunk::copy_from_slice(&self.buf);
        self.buf.clear();
        Some(sealed)
    }
}

impl<T: Record> ChunkWriter<T> {
    /// Creates a writer emitting chunks of at most `chunk_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        Self {
            body: ChunkBuf::new(chunk_size),
            records_in_buf: 0,
            records_total: 0,
            chunks_emitted: 0,
            _marker: PhantomData,
        }
    }

    /// Appends one record; returns a completed chunk if this record closed
    /// one.
    ///
    /// Encoding is single-pass: the record is serialized directly into the
    /// chunk buffer (no pre-measurement traversal). If that
    /// overflows the capacity, the freshly written bytes are moved into
    /// the next chunk's buffer and the previous contents are sealed.
    ///
    /// Returns [`CodecError::RecordTooLarge`] if the record alone exceeds
    /// the chunk capacity — such a record could never be stored without
    /// crossing a boundary. The oversized bytes are rolled back with
    /// `truncate`, so the writer stays usable (note the record is fully
    /// serialized before rejection; the rollback also releases the
    /// transient capacity the encode forced).
    #[inline]
    pub fn push(&mut self, record: &T) -> Result<Option<Chunk>, CodecError> {
        let start = self.body.len();
        record.encode(self.body.encode_buf());
        let completed = self.body.commit(start)?.map(|chunk| self.sealed(chunk));
        self.records_in_buf += 1;
        self.records_total += 1;
        Ok(completed)
    }

    /// Appends one pre-serialized record. The bytes must be exactly one
    /// record's encoding; the boundary invariant is enforced the same way
    /// as [`ChunkWriter::push`]. This is the fan-out primitive: encode a
    /// record once, then feed the same bytes to many writers.
    #[inline]
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<Option<Chunk>, CodecError> {
        let completed = self
            .body
            .append_encoded(bytes)?
            .map(|chunk| self.sealed(chunk));
        self.records_in_buf += 1;
        self.records_total += 1;
        Ok(completed)
    }

    /// Counts a sealed chunk.
    fn sealed(&mut self, chunk: Chunk) -> Chunk {
        self.records_in_buf = 0;
        self.chunks_emitted += 1;
        chunk
    }

    /// Flushes any buffered records into a final (possibly short) chunk.
    pub fn finish(mut self) -> Option<Chunk> {
        self.seal()
    }

    /// Flushes buffered records without consuming the writer.
    pub fn flush(&mut self) -> Option<Chunk> {
        self.seal()
    }

    fn seal(&mut self) -> Option<Chunk> {
        let chunk = self.body.take()?;
        Some(self.sealed(chunk))
    }

    /// Number of records accepted so far.
    pub fn records_written(&self) -> u64 {
        self.records_total
    }

    /// Number of chunks sealed so far (not counting the buffered tail).
    pub fn chunks_emitted(&self) -> u64 {
        self.chunks_emitted
    }

    /// Number of records buffered but not yet sealed into a chunk.
    pub fn buffered_records(&self) -> u64 {
        self.records_in_buf
    }
}

/// Iterates the records of one chunk.
///
/// Yields `Err` once (and then `None`) if the chunk is corrupt; well-formed
/// chunks produced by [`ChunkWriter`] always decode cleanly.
pub struct ChunkReader<'a, T: Record> {
    rest: &'a [u8],
    failed: bool,
    _marker: PhantomData<fn() -> T>,
}

impl<'a, T: Record> ChunkReader<'a, T> {
    /// Creates a reader over `chunk`.
    pub fn new(chunk: &'a Chunk) -> Self {
        Self {
            rest: chunk.bytes(),
            failed: false,
            _marker: PhantomData,
        }
    }

    /// Bytes not yet decoded.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

impl<'a, T: Record> Iterator for ChunkReader<'a, T> {
    type Item = Result<T, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        match T::decode(&mut self.rest) {
            Ok(v) => Some(Ok(v)),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

impl<'a, T: RecordView> ChunkReader<'a, T> {
    /// Drives `f` over every record of the chunk as a borrowed view —
    /// no `Vec`, no owned values, no per-record allocation. Returns the
    /// record count.
    ///
    /// This is the steady-state read loop: where `decode_all` pays an
    /// owned `String`/`Vec` per record plus the collecting `Vec`, the
    /// view path hands `f` data that points straight into the chunk.
    pub fn for_each(mut self, mut f: impl FnMut(T::View<'a>)) -> Result<u64, CodecError> {
        T::decode_run(&mut self.rest, |view| {
            f(view);
            Ok(())
        })
    }

    /// Like [`ChunkReader::for_each`] but the closure is fallible; the
    /// first error aborts the iteration. `E` absorbs decode errors too,
    /// so task loops can mix decoding and writing under one error type.
    pub fn try_for_each<E: From<CodecError>>(
        mut self,
        f: impl FnMut(T::View<'a>) -> Result<(), E>,
    ) -> Result<u64, E> {
        T::decode_run(&mut self.rest, f)
    }

    /// Folds the chunk's record views into an accumulator.
    pub fn fold<Acc>(
        mut self,
        init: Acc,
        mut f: impl FnMut(Acc, T::View<'a>) -> Acc,
    ) -> Result<Acc, CodecError> {
        let mut acc = Some(init);
        T::decode_run(&mut self.rest, |view| {
            acc = acc.take().map(|a| f(a, view));
            Ok::<(), CodecError>(())
        })?;
        Ok(acc.expect("the accumulator is put back after every record"))
    }
}

/// Decodes every record in `chunk`, failing on any corruption.
pub fn decode_all<T: Record>(chunk: &Chunk) -> Result<Vec<T>, CodecError> {
    ChunkReader::<T>::new(chunk).collect()
}

/// Drives `f` over every record view in `chunk`. Free-function sugar for
/// [`ChunkReader::for_each`].
pub fn for_each_view<T, F>(chunk: &Chunk, f: F) -> Result<u64, CodecError>
where
    T: RecordView,
    F: for<'a> FnMut(T::View<'a>),
{
    ChunkReader::<T>::new(chunk).for_each(f)
}

/// Fallible-closure variant of [`for_each_view`].
pub fn try_for_each_view<T, E, F>(chunk: &Chunk, f: F) -> Result<u64, E>
where
    T: RecordView,
    E: From<CodecError>,
    F: for<'a> FnMut(T::View<'a>) -> Result<(), E>,
{
    ChunkReader::<T>::new(chunk).try_for_each(f)
}

/// Folds every record view in `chunk` into an accumulator. Free-function
/// sugar for [`ChunkReader::fold`].
pub fn fold_views<T, Acc, F>(chunk: &Chunk, init: Acc, f: F) -> Result<Acc, CodecError>
where
    T: RecordView,
    F: for<'a> FnMut(Acc, T::View<'a>) -> Acc,
{
    ChunkReader::<T>::new(chunk).fold(init, f)
}

/// Types `chunk` as a run of fixed-stride records with O(1) random
/// access — no validating decode pass at all.
///
/// Because records never cross chunk boundaries and a [`FixedStride`]
/// type's every value occupies exactly `STRIDE` bytes, a chunk of such
/// records is well-formed iff its length divides evenly; the returned
/// [`StrideSlice`] then reads any record by offset arithmetic. This is
/// the batch-loop entry point for int-tuple chunks (e.g. a hash join's
/// partitioned `(key, payload)` pairs).
pub fn stride_records<T: FixedStride>(chunk: &Chunk) -> Result<StrideSlice<'_, T>, CodecError> {
    StrideSlice::new(chunk.bytes())
}

/// Encodes `records` into a sequence of chunks of at most `chunk_size`
/// bytes. Convenience for workload generators and tests.
pub fn encode_all<T: Record>(
    records: impl IntoIterator<Item = T>,
    chunk_size: usize,
) -> Result<Vec<Chunk>, CodecError> {
    let mut w = ChunkWriter::new(chunk_size);
    let mut chunks = Vec::new();
    for r in records {
        if let Some(c) = w.push(&r)? {
            chunks.push(c);
        }
    }
    chunks.extend(w.finish());
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_respect_capacity_and_roundtrip() {
        let records: Vec<(u64, String)> = (0..500).map(|i| (i, format!("value-{i}"))).collect();
        let chunks = encode_all(records.clone(), 64).unwrap();
        assert!(chunks.len() > 1, "should have split into several chunks");
        for c in &chunks {
            assert!(c.len() <= 64, "chunk overflow: {} bytes", c.len());
            assert!(!c.is_empty());
        }
        let back: Vec<(u64, String)> = chunks
            .iter()
            .flat_map(|c| decode_all::<(u64, String)>(c).unwrap())
            .collect();
        assert_eq!(back, records);
    }

    #[test]
    fn every_chunk_decodes_independently() {
        let chunks = encode_all((0..1000u64).map(|i| (i, i * 2)), 37).unwrap();
        let mut total = 0usize;
        for c in &chunks {
            // Decoding each chunk in isolation must succeed: that is the
            // property that lets clones process disjoint chunk subsets.
            total += decode_all::<(u64, u64)>(c).unwrap().len();
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut w = ChunkWriter::<String>::new(8);
        let err = w.push(&"this is far too long".to_string()).unwrap_err();
        assert!(matches!(err, CodecError::RecordTooLarge { .. }));
        // The writer stays usable for records that fit.
        assert!(w.push(&"ok".to_string()).unwrap().is_none());
        assert_eq!(w.records_written(), 1);
    }

    #[test]
    fn record_exactly_chunk_size_fits() {
        // "abcdef" encodes as 1 length byte + 6 payload bytes = 7.
        let mut w = ChunkWriter::<String>::new(7);
        assert!(w.push(&"abcdef".to_string()).unwrap().is_none());
        let c = w.finish().unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(decode_all::<String>(&c).unwrap(), vec!["abcdef"]);
    }

    #[test]
    fn sealed_chunks_hold_exactly_their_bytes() {
        // Both seals, overflow and take, hand out a copy of exactly the
        // records before the boundary and keep building in the same
        // buffer.
        let mut body = ChunkBuf::new(16);
        let build = body.encode_buf().as_ptr();
        let (mut sealed, mut want, mut pending) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..40u64 {
            let start = body.len();
            (i, i * 3).encode(body.encode_buf());
            let record = body.encode_buf()[start..].to_vec();
            if let Some(chunk) = body.commit(start).unwrap() {
                want.push(std::mem::take(&mut pending));
                sealed.push(chunk);
            }
            pending.extend_from_slice(&record);
        }
        sealed.extend(body.take());
        want.push(pending);
        assert!(sealed.len() > 2);
        assert_eq!(sealed.len(), want.len());
        for (chunk, want) in sealed.iter().zip(&want) {
            assert_eq!(chunk.bytes(), &want[..]);
            assert_ne!(chunk.bytes().as_ptr(), build);
        }
        assert_eq!(
            body.encode_buf().as_ptr(),
            build,
            "the build buffer is reused"
        );
    }

    #[test]
    fn push_run_seals_where_commit_does() {
        // Every encoded length, at chunk sizes around the run bound (one
        // or two ten-byte varints): the run loop writes into the buffer's
        // headroom, small enough for Miri.
        let values: Vec<(u64, u32)> = (0..96u64)
            .map(|i| {
                let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64);
                (v, v as u32)
            })
            .collect();
        for chunk_size in 1..=40 {
            let (mut by_commit, mut by_run) =
                (ChunkBuf::new(chunk_size), ChunkBuf::new(chunk_size));
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for r in &values {
                let start = by_commit.len();
                r.encode(by_commit.encode_buf());
                match by_commit.commit(start) {
                    Ok(chunk) => want.extend(chunk),
                    Err(e) => want.push(Chunk::from_vec(format!("{e}").into_bytes())),
                }
            }
            want.extend(by_commit.take());
            let mut rest = &values[..];
            while !rest.is_empty() {
                match by_run.push_run(rest) {
                    Ok((taken, chunk)) => {
                        got.extend(chunk);
                        rest = &rest[taken..];
                    }
                    Err(e) => {
                        got.push(Chunk::from_vec(format!("{e}").into_bytes()));
                        rest = &rest[1..];
                    }
                }
            }
            got.extend(by_run.take());
            let bytes = |chunks: &[Chunk]| {
                chunks
                    .iter()
                    .map(|c| c.bytes().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bytes(&got), bytes(&want), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn finish_on_empty_writer_is_none() {
        let w = ChunkWriter::<u64>::new(16);
        assert!(w.finish().is_none());
    }

    #[test]
    fn flush_resets_buffer() {
        let mut w = ChunkWriter::<u64>::new(1024);
        w.push(&1).unwrap();
        w.push(&2).unwrap();
        assert_eq!(w.buffered_records(), 2);
        let c = w.flush().unwrap();
        assert_eq!(decode_all::<u64>(&c).unwrap(), vec![1, 2]);
        assert_eq!(w.buffered_records(), 0);
        assert!(w.flush().is_none());
        assert_eq!(w.chunks_emitted(), 1);
    }

    #[test]
    fn reader_reports_corruption_once() {
        let c = Chunk::from_vec(vec![0x80, 0x80]); // Truncated varint.
        let mut r = ChunkReader::<u64>::new(&c);
        assert!(matches!(r.next(), Some(Err(CodecError::Truncated))));
        assert!(r.next().is_none());
    }

    #[test]
    fn empty_chunk_yields_nothing() {
        let c = Chunk::from_vec(Vec::new());
        assert_eq!(decode_all::<u64>(&c).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn push_encoded_matches_push() {
        // The same stream through push and push_encoded produces the
        // same chunk boundaries and the same bytes.
        let records: Vec<(u64, String)> = (0..300).map(|i| (i, format!("r{i}"))).collect();
        let mut by_push = ChunkWriter::<(u64, String)>::new(48);
        let mut by_bytes = ChunkWriter::<(u64, String)>::new(48);
        let mut chunks_a = Vec::new();
        let mut chunks_b = Vec::new();
        let mut scratch = Vec::new();
        for r in &records {
            chunks_a.extend(by_push.push(r).unwrap());
            scratch.clear();
            r.encode(&mut scratch);
            chunks_b.extend(by_bytes.push_encoded(&scratch).unwrap());
        }
        chunks_a.extend(by_push.finish());
        chunks_b.extend(by_bytes.finish());
        assert_eq!(chunks_a.len(), chunks_b.len());
        for (a, b) in chunks_a.iter().zip(&chunks_b) {
            assert_eq!(a.bytes(), b.bytes());
        }
    }

    #[test]
    fn oversized_record_rollback_releases_capacity() {
        // An oversized record is fully serialized before rejection; the
        // rollback must release the transient buffer growth rather than
        // carrying a record-sized capacity until the next seal.
        let mut w = ChunkWriter::<Vec<u8>>::new(64);
        let baseline_cap = 64 + 64; // chunk_size + capped headroom
        let oversized = if cfg!(miri) { 1 << 14 } else { 1 << 20 }; // Miri is ~100x slower
        let err = w.push(&vec![0u8; oversized]).unwrap_err();
        assert!(matches!(err, CodecError::RecordTooLarge { .. }));
        assert!(
            w.body.encode_buf().capacity() <= baseline_cap,
            "rollback must shed the transient: capacity {}",
            w.body.encode_buf().capacity()
        );
        // Writer still fully usable afterwards.
        assert!(w.push(&vec![1, 2, 3]).unwrap().is_none());
        assert_eq!(
            decode_all::<Vec<u8>>(&w.finish().unwrap()).unwrap(),
            vec![vec![1, 2, 3]]
        );
    }

    #[test]
    fn push_encoded_rejects_oversized() {
        let mut w = ChunkWriter::<u64>::new(4);
        let err = w.push_encoded(&[0u8; 9]).unwrap_err();
        assert!(matches!(err, CodecError::RecordTooLarge { record: 9, .. }));
        // Writer still usable.
        assert!(w.push_encoded(&[1, 2]).unwrap().is_none());
        assert_eq!(w.records_written(), 1);
    }

    #[test]
    fn single_pass_overflow_carries_the_record() {
        // Capacity 8: three 3-byte records overflow on the third; the
        // sealed chunk holds two records and the third starts the next.
        let mut w = ChunkWriter::<String>::new(8);
        assert!(w.push(&"ab".to_string()).unwrap().is_none());
        assert!(w.push(&"cd".to_string()).unwrap().is_none());
        let sealed = w.push(&"ef".to_string()).unwrap().unwrap();
        assert_eq!(decode_all::<String>(&sealed).unwrap(), vec!["ab", "cd"]);
        assert_eq!(w.buffered_records(), 1);
        let tail = w.finish().unwrap();
        assert_eq!(decode_all::<String>(&tail).unwrap(), vec!["ef"]);
    }

    #[test]
    fn for_each_streams_views_without_vec() {
        let chunks = encode_all((0..500u64).map(|i| (i, format!("s{i}"))), 64).unwrap();
        let mut n = 0u64;
        let mut name_bytes = 0usize;
        for c in &chunks {
            n += ChunkReader::<(u64, String)>::new(c)
                .for_each(|(_, s)| name_bytes += s.len())
                .unwrap();
        }
        assert_eq!(n, 500);
        assert_eq!(
            name_bytes,
            (0..500).map(|i| format!("s{i}").len()).sum::<usize>()
        );
    }

    #[test]
    fn fold_accumulates_views() {
        let chunks = encode_all(0..100u64, 32).unwrap();
        let total: u64 = chunks
            .iter()
            .map(|c| fold_views::<u64, u64, _>(c, 0, |acc, v| acc + v).unwrap())
            .sum();
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn try_for_each_surfaces_closure_errors() {
        #[derive(Debug, PartialEq)]
        enum E {
            Codec(CodecError),
            App,
        }
        impl From<CodecError> for E {
            fn from(e: CodecError) -> Self {
                E::Codec(e)
            }
        }
        let chunks = encode_all(0..10u64, 1024).unwrap();
        let r =
            try_for_each_view::<u64, E, _>(
                &chunks[0],
                |v| {
                    if v == 3 {
                        Err(E::App)
                    } else {
                        Ok(())
                    }
                },
            );
        assert_eq!(r, Err(E::App));
        // And decode errors surface through the same type.
        let corrupt = Chunk::from_vec(vec![0x80, 0x80]);
        let r = try_for_each_view::<u64, E, _>(&corrupt, |_| Ok(()));
        assert_eq!(r, Err(E::Codec(CodecError::Truncated)));
    }

    #[test]
    fn view_drivers_report_corruption() {
        let corrupt = Chunk::from_vec(vec![0x80, 0x80]);
        assert!(for_each_view::<u64, _>(&corrupt, |_| ()).is_err());
        assert!(fold_views::<u64, u64, _>(&corrupt, 0, |a, v| a + v).is_err());
    }

    #[test]
    fn writer_counts_match() {
        let mut w = ChunkWriter::<u64>::new(4);
        let mut chunks = 0;
        for i in 0..100u64 {
            if w.push(&i).unwrap().is_some() {
                chunks += 1;
            }
        }
        assert_eq!(w.records_written(), 100);
        assert_eq!(w.chunks_emitted(), chunks);
    }
}
