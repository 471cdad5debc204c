//! Property tests for the serialization layer: the roundtrip law and the
//! never-cross-a-chunk-boundary invariant, over arbitrary record streams.

use hurricane_format::{
    decode_all, encode_all, stride_records, ChunkReader, ChunkWriter, FixedU32, FixedU64, Record,
    RecordView, StrideSlice,
};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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

    /// Trusted sequence iteration ([`hurricane_format::SeqView::iter`],
    /// which re-reads a validated span with unchecked decodes) agrees
    /// element-for-element with the owned decoder, for varint, string,
    /// and fixed-width element types, across arbitrary chunk boundaries.
    #[test]
    fn trusted_seq_iteration_agrees_with_owned(
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
    /// iteration at position `i`, and any `split_at` concatenates back
    /// to the whole sequence.
    #[test]
    fn fixed_stride_random_access_agrees(
        words in prop::collection::vec(any::<u64>(), 0..64),
        split in 0usize..256,
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
        let mid = split % (seq.len() + 1);
        let (a, b) = seq.split_at(mid);
        let mut rejoined: Vec<FixedU64> = a.iter().collect();
        rejoined.extend(b.iter());
        prop_assert_eq!(rejoined, fixed);
    }

    /// A chunk of fixed-stride records types as a [`hurricane_format::
    /// StrideSlice`] whose random access and iteration agree with the
    /// validating owned decoder — for every chunk boundary placement.
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
            strided.extend(s.iter());
        }
        prop_assert_eq!(strided, fixed);
    }

    /// `encoded_len` is exact for every record the stream writer accepts.
    #[test]
    fn encoded_len_is_exact(rec in record_strategy()) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        prop_assert_eq!(buf.len(), rec.encoded_len());
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let chunk = hurricane_format::Chunk::from_vec(bytes);
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
        fn check<T>(chunk: &hurricane_format::Chunk) -> Result<(), proptest::TestCaseError>
        where
            T: for<'a> RecordView<View<'a> = T> + PartialEq + std::fmt::Debug,
        {
            // The `Iterator` impl decodes one record per `next`.
            let mut single = Vec::new();
            let mut single_end = Ok(());
            for record in ChunkReader::<T>::new(chunk) {
                match record {
                    Ok(v) => single.push(v),
                    Err(e) => single_end = Err(e),
                }
            }
            let mut run = Vec::new();
            let run_end = ChunkReader::<T>::new(chunk).for_each(|v| run.push(v));
            prop_assert_eq!(&run, &single);
            prop_assert_eq!(run_end.map(|_| ()), single_end);
            let folded = ChunkReader::<T>::new(chunk).fold(0u64, |n, _| n + 1);
            prop_assert_eq!(folded.ok(), run_end.ok());
            Ok(())
        }
        let mut well_formed = Vec::new();
        for &(v, shift) in &values {
            hurricane_format::varint::encode(v >> shift, &mut well_formed);
        }
        for bytes in [junk, well_formed] {
            let chunk = hurricane_format::Chunk::from_vec(bytes);
            check::<u16>(&chunk)?;
            check::<u32>(&chunk)?;
            check::<u64>(&chunk)?;
            check::<usize>(&chunk)?;
            check::<i16>(&chunk)?;
            check::<i32>(&chunk)?;
            check::<i64>(&chunk)?;
        }
    }

    /// The SWAR trusted varint decoder agrees with the validating scalar
    /// decoder on every encoded length (1..=10 bytes) at every distance
    /// from the end of the slice — covering the 8-byte fast path, the
    /// >8-byte hybrid path, and the near-the-tail scalar fallback.
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

        let mut validating = buf.as_slice();
        prop_assert_eq!(
            hurricane_format::varint::decode(&mut validating).unwrap(),
            value
        );
        let mut trusted = buf.as_slice();
        // SAFETY: the validating decode just accepted this position.
        let got = unsafe { hurricane_format::varint::decode_trusted(&mut trusted) };
        prop_assert_eq!(got, value);
        prop_assert_eq!(trusted.len(), validating.len(), "consumed length differs");
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
