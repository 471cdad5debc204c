//! Property tests for the serialization layer: the roundtrip law and the
//! never-cross-a-chunk-boundary invariant, over arbitrary record streams.

use hurricane_format::{
    decode_all, encode_all, stride_records, Chunk, ChunkBuf, ChunkReader, ChunkWriter, CodecError,
    FixedU32, FixedU64, Record, RecordView, StrideSlice,
};
use proptest::prelude::*;
use proptest::TestCaseError;

fn record_strategy() -> impl Strategy<Value = (u64, i64, String, Vec<u32>)> {
    (
        any::<u64>(),
        any::<i64>(),
        "[a-zA-Z0-9 ]{0,40}",
        prop::collection::vec(any::<u32>(), 0..8),
    )
}

/// A nested record exercising every view shape at once: tuple of
/// (int, (string, option of (int, string)), vec of (int, string)).
type NestedRec = (u64, (String, Option<(i64, String)>), Vec<(u32, String)>);

/// The raw material for a [`NestedRec`]: the option is folded in from a
/// bool because the proptest shim has no Option strategy.
type NestedRaw = (u64, String, (bool, i64, String), Vec<(u32, String)>);

fn nested_raw_strategy() -> impl Strategy<Value = NestedRaw> {
    (
        any::<u64>(),
        "[a-zA-Z0-9 ]{0,24}",
        (any::<bool>(), any::<i64>(), "[a-z]{0,12}"),
        prop::collection::vec((any::<u32>(), "[A-Z]{0,6}"), 0..5),
    )
}

fn build_nested(raw: NestedRaw) -> NestedRec {
    let (a, s, (some, oi, os), v) = raw;
    (a, (s, some.then_some((oi, os))), v)
}

/// What a chunk's run drivers (`for_each`, `fold`, [`RecordView::
/// decode_run`] itself) must reproduce: a loop of single-record decodes
/// over the same bytes — the same views in the same order, then the same
/// count or the same error kind. Checked against both single-record
/// readings, `decode_view` and the owned `Iterator`.
fn run_matches_single_records<T>(chunk: &Chunk) -> Result<(), TestCaseError>
where
    T: for<'a> RecordView<View<'a> = T> + PartialEq + std::fmt::Debug,
{
    let mut single = Vec::new();
    let mut at = chunk.bytes();
    let single_end = loop {
        if at.is_empty() {
            break Ok(single.len() as u64);
        }
        match T::decode_view(&mut at) {
            Ok(v) => single.push(v),
            Err(e) => break Err(e),
        }
    };
    // The `Iterator` impl decodes one owned record per `next`.
    let mut owned = Vec::new();
    let mut owned_end = Ok(());
    for record in ChunkReader::<T>::new(chunk) {
        match record {
            Ok(v) => owned.push(v),
            Err(e) => owned_end = Err(e),
        }
    }
    prop_assert_eq!(&owned, &single);
    prop_assert_eq!(owned_end, single_end.map(|_| ()));

    let mut run = Vec::new();
    let run_end = T::decode_run(&mut chunk.bytes(), |v| {
        run.push(v);
        Ok::<(), CodecError>(())
    });
    prop_assert_eq!(&run, &single);
    prop_assert_eq!(run_end, single_end);
    let mut driven = Vec::new();
    let driven_end = ChunkReader::<T>::new(chunk).for_each(|v| driven.push(v));
    prop_assert_eq!(&driven, &single);
    prop_assert_eq!(driven_end, single_end);
    let folded = ChunkReader::<T>::new(chunk).fold(0u64, |n, _| n + 1);
    prop_assert_eq!(folded, single_end);
    Ok(())
}

/// Writes `values`, `arity` at a time through `build`, into chunks of
/// `chunk_size` with a [`ChunkWriter`], and checks that every chunk's run
/// decode is its single-record decode and that the chunks concatenate
/// back to the records written.
fn written_runs_match<T>(
    values: &[u64],
    arity: usize,
    chunk_size: usize,
    build: impl Fn(&[u64]) -> T,
) -> Result<(), TestCaseError>
where
    T: for<'a> RecordView<View<'a> = T> + PartialEq + std::fmt::Debug,
{
    let records: Vec<T> = values.chunks_exact(arity).map(build).collect();
    let mut writer = ChunkWriter::<T>::new(chunk_size);
    let mut chunks = Vec::new();
    for r in &records {
        chunks.extend(writer.push(r).unwrap());
    }
    chunks.extend(writer.finish());
    let mut back = Vec::new();
    for c in &chunks {
        run_matches_single_records::<T>(c)?;
        ChunkReader::<T>::new(c).for_each(|v| back.push(v)).unwrap();
    }
    prop_assert_eq!(back, records);
    Ok(())
}

/// The values as back-to-back varints: a chunk of bare integers, or of
/// integer tuples of any arity.
fn varints(values: impl IntoIterator<Item = u64>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for v in values {
        hurricane_format::varint::encode(v, &mut bytes);
    }
    bytes
}

/// Every tuple arity with a run decoder, over mixed widths and signs, and
/// one shape that takes the per-record fallback.
fn tuple_runs_match_single_records(chunk: &Chunk) -> Result<(), TestCaseError> {
    run_matches_single_records::<(u32,)>(chunk)?;
    run_matches_single_records::<(u32, u32)>(chunk)?;
    run_matches_single_records::<(u64, u16, i32)>(chunk)?;
    run_matches_single_records::<(i64, u32, u32, u16)>(chunk)?;
    run_matches_single_records::<(u16, i16, usize, i32, u64)>(chunk)?;
    run_matches_single_records::<(i32, u64, u16, i64, u32, i16)>(chunk)?;
    run_matches_single_records::<(u32, (FixedU64, u32))>(chunk)
}

/// A signed reading of a raw test value that keeps small values small
/// and uses the low bit as the sign, so encoded lengths stay mixed.
fn signed(v: u64) -> i64 {
    let magnitude = (v >> 1) as i64;
    if v & 1 == 1 {
        -magnitude
    } else {
        magnitude
    }
}

/// Writes `records` into chunks of `chunk_size` twice, with one
/// `encode` + `commit` per record and with `ChunkBuf::push_run` over
/// pieces of `piece` records, and checks that both give the same chunks
/// byte for byte (so the same boundaries) and fail with the same
/// `RecordTooLarge` at the same records. Each failing record is skipped
/// and writing goes on, so the buffer is reused after every failure.
fn push_run_matches_commit<T: Record>(
    records: &[T],
    chunk_size: usize,
    piece: usize,
) -> Result<(), TestCaseError> {
    let mut body = ChunkBuf::new(chunk_size);
    let (mut want, mut want_errors) = (Vec::new(), Vec::new());
    for (i, r) in records.iter().enumerate() {
        let start = body.len();
        r.encode(body.encode_buf());
        match body.commit(start) {
            Ok(chunk) => want.extend(chunk),
            Err(e) => want_errors.push((i, e)),
        }
    }
    want.extend(body.take());

    let mut body = ChunkBuf::new(chunk_size);
    let (mut got, mut got_errors) = (Vec::new(), Vec::new());
    for (base, piece) in (0..).step_by(piece).zip(records.chunks(piece)) {
        let mut at = 0;
        while at < piece.len() {
            match body.push_run(&piece[at..]) {
                Ok((taken, chunk)) => {
                    prop_assert!(taken > 0, "a call on records must take one");
                    at += taken;
                    got.extend(chunk);
                }
                Err(e) => {
                    got_errors.push((base + at, e));
                    at += 1;
                }
            }
        }
    }
    got.extend(body.take());

    prop_assert_eq!(got_errors, want_errors, "chunk size {}", chunk_size);
    prop_assert_eq!(got.len(), want.len(), "chunk size {}", chunk_size);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g.bytes(), w.bytes(), "chunk {} of size {}", i, chunk_size);
    }
    Ok(())
}

/// Every shape `push_run_matches_commit` is held to, built from raw
/// values: bare `u32`, `u64` (full-range values are nine or ten bytes),
/// zig-zag `i32`, two- and three-field all-varint tuples, and `String`,
/// which takes the per-record path. A string's length is its value's
/// low byte, so chunk sizes under 256 meet oversized ones.
fn push_run_matches_commit_for_every_shape(
    values: &[u64],
    chunk_size: usize,
    piece: usize,
) -> Result<(), TestCaseError> {
    let pairs = values.chunks_exact(2);
    let triples = values.chunks_exact(3);
    push_run_matches_commit(
        &values.iter().map(|&v| v as u32).collect::<Vec<_>>(),
        chunk_size,
        piece,
    )?;
    push_run_matches_commit(values, chunk_size, piece)?;
    push_run_matches_commit(
        &values.iter().map(|&v| signed(v) as i32).collect::<Vec<_>>(),
        chunk_size,
        piece,
    )?;
    push_run_matches_commit(
        &pairs
            .map(|v| (v[0] as u32, v[1] as u32))
            .collect::<Vec<_>>(),
        chunk_size,
        piece,
    )?;
    push_run_matches_commit(
        &triples
            .map(|v| (v[0], v[1] as u32, signed(v[2]) as i32))
            .collect::<Vec<_>>(),
        chunk_size,
        piece,
    )?;
    push_run_matches_commit(
        &values
            .iter()
            .map(|&v| "s".repeat(v as u8 as usize))
            .collect::<Vec<_>>(),
        chunk_size,
        piece,
    )
}

/// Raw values of every encoded length, in a fixed order: `2^(7k) ± 1`
/// for every length boundary and `i` shifted right by a varying amount.
fn mixed_lengths(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            match i % 4 {
                0 => x >> (x % 64),
                1 => (1 << (7 * (x % 10))) - (x & 1),
                2 => x,
                _ => x >> 40,
            }
        })
        .collect()
}

/// `push_run` against the `commit` loop at every chunk size from 1 to
/// 256 (the eight-byte tail guard's sizes 24 and 64 among them), in pieces of one
/// record, of a few and of the whole input; and at 4096 and 65536, over
/// enough records to seal several 64 KB chunks.
#[test]
fn push_run_matches_commit_at_every_chunk_size() {
    let values = mixed_lengths(1_200);
    for chunk_size in 1..=256 {
        for piece in [1, 7, values.len()] {
            push_run_matches_commit_for_every_shape(&values, chunk_size, piece).unwrap();
        }
    }
    let values = mixed_lengths(60_000);
    for chunk_size in [4096, 65536] {
        for piece in [8192, values.len()] {
            push_run_matches_commit_for_every_shape(&values, chunk_size, piece).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `push_run` against the `commit` loop on arbitrary values, chunk
    /// sizes (the tail-guard sizes 24 and 64 twice as likely) and piece
    /// lengths.
    #[test]
    fn push_run_matches_commit_on_any_values(
        values in prop::collection::vec((any::<u64>(), 0u32..64), 0..300),
        size in 0usize..11,
        piece in 1usize..64,
    ) {
        let chunk_size = [1, 9, 10, 11, 20, 24, 24, 64, 64, 100, 256][size];
        let v: Vec<u64> = values.iter().map(|&(v, shift)| v >> shift).collect();
        push_run_matches_commit_for_every_shape(&v, chunk_size, piece)?;
    }

    /// Encoding then decoding any record stream through chunking restores
    /// it exactly, and every chunk respects the capacity.
    #[test]
    fn chunked_roundtrip(
        records in prop::collection::vec(record_strategy(), 0..200),
        chunk_size in 64usize..2048,
    ) {
        let chunks = encode_all(records.iter().cloned(), chunk_size);
        prop_assume!(chunks.is_ok()); // Tiny chunk sizes may reject a record.
        let chunks = chunks.unwrap();
        for c in &chunks {
            prop_assert!(c.len() <= chunk_size, "chunk overflow");
            prop_assert!(!c.is_empty());
        }
        let back: Vec<_> = chunks
            .iter()
            .flat_map(|c| decode_all::<(u64, i64, String, Vec<u32>)>(c).unwrap())
            .collect();
        prop_assert_eq!(back, records);
    }

    /// Every chunk decodes independently — the property clones rely on.
    #[test]
    fn chunks_decode_independently(
        records in prop::collection::vec(any::<(u64, u64)>(), 1..300),
        chunk_size in 32usize..256,
    ) {
        let chunks = encode_all(records.iter().cloned(), chunk_size).unwrap();
        let mut total = 0;
        // Decode in reverse order: no chunk depends on a predecessor.
        for c in chunks.iter().rev() {
            total += decode_all::<(u64, u64)>(c).unwrap().len();
        }
        prop_assert_eq!(total, records.len());
    }

    /// The view law over whole chunk streams: decoding a chunk through
    /// borrowed views ([`RecordView::decode_view`]) agrees record-for-
    /// record with the owned decoder, for nested tuple/string/option/vec
    /// records, across arbitrary chunk boundaries. This is the property
    /// that makes the borrowed hot path a drop-in reading of the same
    /// wire format.
    #[test]
    fn borrowed_view_decode_agrees_with_owned(
        raw in prop::collection::vec(nested_raw_strategy(), 0..120),
        chunk_size in 48usize..1024,
    ) {
        let records: Vec<NestedRec> = raw.into_iter().map(build_nested).collect();
        let chunks = encode_all(records.iter().cloned(), chunk_size);
        prop_assume!(chunks.is_ok()); // Tiny capacities may reject a record.
        let chunks = chunks.unwrap();
        let mut viewed: Vec<NestedRec> = Vec::new();
        let mut owned: Vec<NestedRec> = Vec::new();
        for c in &chunks {
            // Each chunk decodes independently on the view path too.
            let n = ChunkReader::<NestedRec>::new(c)
                .for_each(|v| viewed.push(<NestedRec as RecordView>::view_to_owned(v)))
                .unwrap();
            let own = decode_all::<NestedRec>(c).unwrap();
            prop_assert_eq!(n as usize, own.len(), "view path record count");
            owned.extend(own);
        }
        prop_assert_eq!(&viewed, &owned, "view decode must equal owned decode");
        prop_assert_eq!(&viewed, &records, "and both must equal the input");
    }

    /// Sequence iteration ([`hurricane_format::SeqView::iter`], which
    /// re-reads a span validated at view construction) agrees
    /// element-for-element with the owned decoder, for varint and string
    /// element types, across arbitrary chunk boundaries.
    #[test]
    fn seq_iteration_agrees_with_owned(
        words in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..12),
            1..60,
        ),
        names in prop::collection::vec(
            prop::collection::vec("[a-zA-Z0-9]{0,9}", 0..6),
            1..40,
        ),
        chunk_size in 256usize..2048,
    ) {
        let chunks = encode_all(words.iter().cloned(), chunk_size);
        prop_assume!(chunks.is_ok());
        let mut got: Vec<Vec<u64>> = Vec::new();
        for c in &chunks.unwrap() {
            ChunkReader::<Vec<u64>>::new(c)
                .for_each(|seq| got.push(seq.iter().collect()))
                .unwrap();
        }
        prop_assert_eq!(&got, &words);

        let chunks = encode_all(names.iter().cloned(), chunk_size);
        prop_assume!(chunks.is_ok());
        let mut got: Vec<Vec<String>> = Vec::new();
        for c in &chunks.unwrap() {
            ChunkReader::<Vec<String>>::new(c)
                .for_each(|seq| got.push(seq.iter().map(str::to_string).collect()))
                .unwrap();
        }
        prop_assert_eq!(&got, &names);
    }

    /// Fixed-stride random access: `SeqView::get(i)` equals sequential
    /// iteration at position `i`, and iteration yields the encoded words.
    #[test]
    fn fixed_stride_random_access_agrees(
        words in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let fixed: Vec<FixedU64> = words.iter().copied().map(FixedU64).collect();
        let mut buf = Vec::new();
        fixed.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        for (i, w) in seq.iter().enumerate() {
            prop_assert_eq!(seq.get(i), w);
        }
        prop_assert_eq!(seq.iter().collect::<Vec<_>>(), fixed);
    }

    /// A chunk of fixed-stride records types as a [`hurricane_format::
    /// StrideSlice`] whose random access agrees with the validating owned
    /// decoder — for every chunk boundary placement.
    #[test]
    fn stride_records_agree_with_owned_decode(
        tuples in prop::collection::vec(any::<(u32, u64)>(), 1..300),
        chunk_size in 24usize..512,
    ) {
        let fixed: Vec<(FixedU32, FixedU64)> = tuples
            .iter()
            .map(|&(k, v)| (FixedU32(k), FixedU64(v)))
            .collect();
        let chunks = encode_all(fixed.iter().copied(), chunk_size).unwrap();
        let mut strided = Vec::new();
        for c in &chunks {
            let s = stride_records::<(FixedU32, FixedU64)>(c).unwrap();
            let owned = decode_all::<(FixedU32, FixedU64)>(c).unwrap();
            prop_assert_eq!(s.len(), owned.len());
            for (i, rec) in owned.iter().enumerate() {
                prop_assert_eq!(s.get(i), *rec);
            }
            strided.extend((0..s.len()).map(|i| s.get(i)));
        }
        prop_assert_eq!(strided, fixed);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let chunk = Chunk::from_vec(bytes);
        let _ = decode_all::<(u64, String)>(&chunk); // Must not panic.
        let _ = decode_all::<Vec<u64>>(&chunk);
        let _ = decode_all::<(bool, Option<i64>)>(&chunk);
    }

    /// The writer never emits a record split across two chunks: the
    /// concatenation of per-chunk decodes equals the in-order stream.
    #[test]
    fn no_record_straddles_chunks(
        count in 1usize..500,
        chunk_size in 16usize..128,
    ) {
        let records: Vec<u64> = (0..count as u64).collect();
        let mut writer = ChunkWriter::<u64>::new(chunk_size);
        let mut chunks = Vec::new();
        for r in &records {
            if let Some(c) = writer.push(r).unwrap() {
                chunks.push(c);
            }
        }
        chunks.extend(writer.finish());
        let mut restored = Vec::new();
        for c in &chunks {
            restored.extend(decode_all::<u64>(c).unwrap());
        }
        prop_assert_eq!(restored, records);
    }

    /// Integer chunks decode as one varint run (a word at a time); the
    /// run drivers must see exactly what the record-at-a-time iterator
    /// sees on the same bytes — the same values, then the same error or
    /// the same end — for every width and for zig-zag, on arbitrary
    /// (mostly malformed) bytes and on well-formed runs alike.
    #[test]
    fn integer_runs_decode_like_single_records(
        junk in prop::collection::vec(any::<u8>(), 0..64),
        values in prop::collection::vec((any::<u64>(), 0u32..64), 0..32),
    ) {
        let well_formed = varints(values.iter().map(|&(v, shift)| v >> shift));
        for bytes in [junk, well_formed] {
            let chunk = Chunk::from_vec(bytes);
            run_matches_single_records::<u16>(&chunk)?;
            run_matches_single_records::<u32>(&chunk)?;
            run_matches_single_records::<u64>(&chunk)?;
            run_matches_single_records::<usize>(&chunk)?;
            run_matches_single_records::<i16>(&chunk)?;
            run_matches_single_records::<i32>(&chunk)?;
            run_matches_single_records::<i64>(&chunk)?;
        }
    }

    /// A chunk of all-integer tuples is one varint run too, ARITY values
    /// to a tuple. (a) What a `ChunkWriter` wrote decodes through the run
    /// path to the same views, in the same order, with the same count as
    /// a loop of `decode_view` — at chunk sizes small enough that the
    /// eight-byte tail guard's per-byte path is a real share of each chunk.
    #[test]
    fn written_tuple_runs_decode_like_single_records(
        values in prop::collection::vec((any::<u64>(), 0u32..64), 0..240),
        chunk_size in 64usize..512,
    ) {
        let v: Vec<u64> = values.iter().map(|&(v, shift)| v >> shift).collect();
        written_runs_match(&v, 1, chunk_size, |v| (v[0] as u32,))?;
        written_runs_match(&v, 2, chunk_size, |v| (v[0] as u32, v[1] as u32))?;
        written_runs_match(&v, 3, chunk_size, |v| (v[0], v[1] as u16, signed(v[2]) as i32))?;
        written_runs_match(&v, 4, chunk_size, |v| {
            (signed(v[0]), v[1] as u32, v[2] as u32, v[3] as u16)
        })?;
        written_runs_match(&v, 5, chunk_size, |v| {
            (v[0] as u16, signed(v[1]) as i16, v[2] as usize, signed(v[3]) as i32, v[4])
        })?;
        written_runs_match(&v, 6, chunk_size, |v| {
            (
                signed(v[0]) as i32,
                v[1],
                v[2] as u16,
                signed(v[3]),
                v[4] as u32,
                signed(v[5]) as i16,
            )
        })?;
        written_runs_match(&v, 2, chunk_size, |v| {
            (v[0] as u32, (FixedU64(v[1]), v[0] as u32))
        })?;
    }

    /// (b) On *arbitrary* bytes both readings return the same `Ok(count)`
    /// or the same `CodecError` kind, having handed out the same prefix
    /// of tuples: `decoder_is_total`'s junk; a valid stream cut at every
    /// byte (inside a varint, between two fields, between two tuples —
    /// so with value counts that are no multiple of the arity); the same
    /// stream with one value widened past every field type; and nine-
    /// and ten-byte encodings, which full-range values mostly are.
    #[test]
    fn tuple_runs_decode_like_single_records(
        junk in prop::collection::vec(any::<u8>(), 0..256),
        values in prop::collection::vec((any::<u64>(), 0u32..64), 0..40),
        narrow in prop::collection::vec(0u64..1 << 15, 12..40),
        widen_at in 0usize..40,
    ) {
        tuple_runs_match_single_records(&Chunk::from_vec(junk))?;
        let mixed = varints(values.iter().map(|&(v, shift)| v >> shift));
        // Values every field type accepts, so a whole stream decodes...
        let valid = varints(narrow.iter().copied());
        // ...until one of them is too wide for anything but a `u64`.
        let widened = varints(narrow.iter().enumerate().map(|(i, &v)| {
            if i == widen_at % narrow.len() { v | 1 << 40 } else { v }
        }));
        for stream in [mixed, valid, widened] {
            for cut in 0..=stream.len() {
                tuple_runs_match_single_records(&Chunk::from_vec(stream[..cut].to_vec()))?;
            }
        }
    }

    /// The varint decoder returns the encoded value and consumes exactly
    /// its bytes on every encoded length (1..=10 bytes) at every distance
    /// from the end of the slice — covering the 8-byte word path and the
    /// per-byte path that nine- and ten-byte encodings and the last bytes
    /// of a slice take.
    #[test]
    fn swar_decode_agrees_with_scalar(
        len in 1usize..11,
        pad in 0usize..17,
        seed in any::<u64>(),
    ) {
        // A value whose canonical encoding is exactly `len` bytes.
        let low = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
        let high = if len >= 10 { u64::MAX } else { (1u64 << (7 * len)) - 1 };
        let value = low + seed % (high - low + 1);

        let mut buf = Vec::new();
        hurricane_format::varint::encode(value, &mut buf);
        prop_assert_eq!(buf.len(), len);
        buf.extend(std::iter::repeat_n(0xEEu8, pad));

        let mut at = buf.as_slice();
        prop_assert_eq!(hurricane_format::varint::decode(&mut at).unwrap(), value);
        prop_assert_eq!(at.len(), pad, "consumed length differs");
    }

    /// The batch kernels (OR, popcount, strided gather) agree with plain
    /// iteration over arbitrary runs, at every length.
    #[test]
    fn kernels_agree_with_plain_iteration(
        words in prop::collection::vec(any::<u64>(), 0..70),
        acc_seed in prop::collection::vec(any::<u64>(), 0..70),
        tuples in prop::collection::vec(any::<(u32, u64)>(), 0..70),
    ) {
        let fixed: Vec<FixedU64> = words.iter().copied().map(FixedU64).collect();
        let mut buf = Vec::new();
        fixed.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<FixedU64>::decode_view(&mut slice).unwrap();

        prop_assert_eq!(
            seq.popcount(),
            words.iter().map(|w| w.count_ones() as u64).sum::<u64>()
        );
        let mut acc: Vec<FixedU64> = acc_seed.iter().copied().map(FixedU64).collect();
        let mut expect: Vec<u64> = acc_seed.clone();
        if expect.len() < words.len() {
            expect.resize(words.len(), 0);
        }
        for (slot, w) in expect.iter_mut().zip(words.iter()) {
            *slot |= w;
        }
        seq.or_into(&mut acc);
        prop_assert_eq!(acc.into_iter().map(|w| w.0).collect::<Vec<_>>(), expect);

        let mut buf = Vec::new();
        for &(k, v) in &tuples {
            (FixedU32(k), FixedU64(v)).encode(&mut buf);
        }
        let run = StrideSlice::<(FixedU32, FixedU64)>::new(&buf).unwrap();
        let mut keys = Vec::new();
        run.gather_prefix_u32_into(&mut keys);
        prop_assert_eq!(keys, tuples.iter().map(|t| t.0).collect::<Vec<_>>());
    }
}
