//! Property tests for the segment log (`SEGMENT.md`): whatever sequence
//! of records is written — chunks, consumes and rewinds of several
//! origin streams interleaved with seals and collects in one bag log —
//! and wherever a torn write cuts it, the recovery scan returns exactly
//! the intact frame prefix (every preceding frame byte-for-byte, only
//! the tail dropped, never a phantom record) and a node recovering from
//! it holds exactly what replaying that prefix against a model gives.
//! A seeded mutation driver (truncations, bit flips, splices) holds the
//! scanner to the same contract on logs no writer produced.

use hurricane_common::{BagId, DetRng, StorageNodeId};
use hurricane_format::Chunk;
use hurricane_storage::node::TagSegment;
use hurricane_storage::segment::{
    collect_frame, consume_frame, crc32, crc32_table, crc32_update, data_frame, decode_data_frame,
    log_name, rewind_frame, scan, seal_frame, Record, ScannedFrame,
};
use hurricane_storage::{SegmentStore, StorageError, StorageNode};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// Origins a generated log spreads its streams over (the recovering
/// node is origin 0, so 1 and 2 are mirrored streams).
const ORIGINS: u32 = 3;

/// One generated record before encoding: `(kind, origin, run, start,
/// payload)`. Runs and positions are drawn from a handful of values so
/// consumes hit chunks that exist, chunks that come later in the log,
/// and chunks that never come.
type Spec = (usize, u32, u64, u32, Vec<u8>);

fn spec_strategy(max_payload: usize) -> impl Strategy<Value = Spec> {
    (
        0usize..8,
        0u32..ORIGINS,
        1u64..4,
        0u32..4,
        prop::collection::vec(any::<u8>(), 0..max_payload),
    )
}

/// Encodes `specs` in order. `DATA` identities are made unique per
/// stream (the `k` of a chunk is how many chunks its `(origin, run)` has
/// seen), as the write path guarantees.
fn build_frames(specs: &[Spec]) -> Vec<(Vec<u8>, Record)> {
    let mut next_k: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    specs
        .iter()
        .map(|(kind, origin, run, start, payload)| {
            let (origin, run) = (*origin, *run);
            match kind {
                // Half the records are chunks.
                0..=3 => {
                    let k = next_k.entry((origin, run)).or_default();
                    let frame = data_frame(origin, run, *k, payload);
                    let record = Record::Data {
                        origin,
                        run,
                        k: *k,
                        payload_len: payload.len() as u32,
                    };
                    *k += 1;
                    (frame, record)
                }
                4 | 5 => {
                    // Derive a small tag list from the same inputs so
                    // consume frames vary in length without a dedicated
                    // strategy.
                    let tags: Vec<TagSegment> = (0..(payload.len() % 3))
                        .map(|i| TagSegment {
                            run: 1 + (run + i as u64) % 3,
                            start: *start,
                            len: 1 + i as u32,
                        })
                        .collect();
                    (
                        consume_frame(origin, &tags),
                        Record::Consume { origin, tags },
                    )
                }
                6 => (rewind_frame(origin), Record::Rewind { origin }),
                // Seals are common, collects rare (a collected bag
                // refuses every read, which would blind the comparison).
                _ if payload.len() % 4 == 0 => (collect_frame(), Record::Collect),
                _ => (seal_frame(), Record::Seal),
            }
        })
        .collect()
}

/// Concatenates `frames` and remembers each frame's `(offset, len)`.
fn concat(frames: &[(Vec<u8>, Record)]) -> (Vec<u8>, Vec<(u64, u32)>) {
    let mut log = Vec::new();
    let mut extents = Vec::new();
    for (bytes, _) in frames {
        extents.push((log.len() as u64, bytes.len() as u32));
        log.extend_from_slice(bytes);
    }
    (log, extents)
}

/// One chunk of a model stream.
#[derive(Debug)]
struct Entry {
    id: (u64, u32),
    payload: Vec<u8>,
    consumed: bool,
}

/// What a bag holds after replaying a record sequence: the reference the
/// recovered node is compared against.
#[derive(Debug, Default)]
struct Model {
    /// Per origin: every chunk in log order.
    streams: BTreeMap<u32, Vec<Entry>>,
    /// Per origin: identities consumed before their chunk was recorded.
    pre_consumed: BTreeMap<u32, HashSet<(u64, u32)>>,
    sealed: bool,
    collected: bool,
}

impl Model {
    fn replay(frames: &[(Vec<u8>, Record)], payloads: &[&[u8]]) -> Self {
        let mut m = Model::default();
        for ((_, record), payload) in frames.iter().zip(payloads) {
            match record {
                Record::Data { origin, run, k, .. } => {
                    let claimed = m
                        .pre_consumed
                        .entry(*origin)
                        .or_default()
                        .remove(&(*run, *k));
                    m.streams.entry(*origin).or_default().push(Entry {
                        id: (*run, *k),
                        payload: payload.to_vec(),
                        consumed: claimed,
                    });
                }
                Record::Consume { origin, tags } => {
                    let stream = m.streams.entry(*origin).or_default();
                    for t in tags {
                        for k in t.start..t.start + t.len {
                            match stream.iter_mut().find(|e| e.id == (t.run, k)) {
                                Some(entry) => entry.consumed = true,
                                None => {
                                    m.pre_consumed
                                        .entry(*origin)
                                        .or_default()
                                        .insert((t.run, k));
                                }
                            }
                        }
                    }
                }
                Record::Rewind { origin } => {
                    for entry in m.streams.entry(*origin).or_default() {
                        entry.consumed = false;
                    }
                    m.pre_consumed.remove(origin);
                }
                Record::Seal => m.sealed = true,
                Record::Collect => m.collected = true,
            }
        }
        m
    }
}

/// Recovers a node (origin 0) from a store whose only log is `bytes` and
/// checks it against `model`; `valid_len` is what the log must have been
/// truncated to.
fn check_recovery(
    bytes: &[u8],
    valid_len: u64,
    model: &Model,
) -> Result<(), proptest::TestCaseError> {
    let bag = BagId(1);
    let store = SegmentStore::mem();
    let log = store.open_log(&log_name(bag)).expect("mem log");
    log.append(bytes).expect("mem append");
    let node = StorageNode::durable(StorageNodeId(0), store, u64::MAX).expect("recover");
    prop_assert_eq!(
        log.len(),
        valid_len,
        "torn tail not truncated to a frame boundary"
    );
    prop_assert_eq!(
        node.resident_bytes(),
        0,
        "recovered chunks must start spilled"
    );

    if model.collected {
        prop_assert_eq!(node.sample(bag), Err(StorageError::BagCollected(bag)));
        prop_assert_eq!(
            node.remove_from_batch(bag, 0, 8).map(|b| b.chunks.len()),
            Err(StorageError::BagCollected(bag))
        );
        return Ok(());
    }
    let own = model.streams.get(&0).map_or(&[][..], Vec::as_slice);
    let sample = node.sample(bag).expect("sample");
    prop_assert_eq!(sample.sealed, model.sealed);
    prop_assert_eq!(sample.total_chunks, own.len() as u64);
    prop_assert_eq!(
        sample.removed_chunks,
        own.iter().filter(|e| e.consumed).count() as u64
    );
    for origin in 0..ORIGINS {
        let stream = model.streams.get(&origin).map_or(&[][..], Vec::as_slice);
        let chunk = |e: &Entry| Chunk::from_vec(e.payload.clone());
        let all: Vec<Chunk> = stream.iter().map(chunk).collect();
        let live: Vec<Chunk> = stream.iter().filter(|e| !e.consumed).map(chunk).collect();
        prop_assert_eq!(
            node.snapshot_from(bag, origin).expect("snapshot"),
            all,
            "origin {} holds different chunks",
            origin
        );
        let drained = node
            .remove_from_batch(bag, origin, usize::MAX)
            .expect("drain");
        prop_assert_eq!(drained.chunks, live, "origin {} serves differently", origin);
        prop_assert_eq!(drained.eof, model.sealed);
    }
    // Identities consumed ahead of their chunk stay claimed: the late
    // insert lands already consumed.
    for (&origin, ids) in &model.pre_consumed {
        for &(run, k) in ids {
            // Only position 0 can be inserted alone under a fresh run.
            if k == 0 && !model.sealed {
                node.insert_run(bag, &[Chunk::from_vec(vec![0xEE])], origin, run)
                    .expect("late insert");
                let after = node.remove_from_batch(bag, origin, 8).expect("probe");
                prop_assert!(
                    after.chunks.is_empty(),
                    "pre-consumed identity ({}, {}) of origin {} was served",
                    run,
                    k,
                    origin
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The dispatching CRC (carry-less-multiply kernel where the CPU has
    /// one) equals the byte-table loop on arbitrary byte strings, whole
    /// and split at an arbitrary point.
    #[test]
    fn crc32_kernel_equals_table_loop(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        cut_seed in any::<u64>(),
    ) {
        let want = crc32_table(&bytes);
        prop_assert_eq!(crc32(&bytes), want);
        let (a, b) = bytes.split_at((cut_seed % (bytes.len() as u64 + 1)) as usize);
        prop_assert_eq!(crc32_update(crc32(a), b), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip with a torn tail: truncating the log at an arbitrary
    /// byte recovers every frame that fits entirely before the cut and
    /// nothing else, and reports the valid length as the end of the
    /// last intact frame.
    #[test]
    fn torn_log_recovers_exact_frame_prefix(
        specs in prop::collection::vec(spec_strategy(48), 0..10),
        cut_seed in any::<u64>(),
    ) {
        let frames = build_frames(&specs);
        let (log, extents) = concat(&frames);
        let cut = (cut_seed % (log.len() as u64 + 1)) as usize;

        let (scanned, valid_len) = scan(&log[..cut]);

        // Exactly the frames that fit before the cut survive.
        let intact: Vec<&(u64, u32)> = extents
            .iter()
            .filter(|(off, len)| off + *len as u64 <= cut as u64)
            .collect();
        prop_assert_eq!(scanned.len(), intact.len(), "wrong number of recovered frames");
        let expect_valid = intact.last().map_or(0, |(off, len)| off + *len as u64);
        prop_assert_eq!(valid_len, expect_valid, "valid length not at a frame boundary");

        for (i, frame) in scanned.iter().enumerate() {
            let (off, len) = *intact[i];
            let expect = ScannedFrame {
                offset: off,
                frame_len: len,
                record: frames[i].1.clone(),
            };
            prop_assert_eq!(frame, &expect, "frame {} decoded differently", i);
            // Data payloads survive byte-exactly and re-verify their CRC
            // when re-read from the log — the spill read path.
            if let Record::Data { origin, run, k, .. } = frames[i].1 {
                let raw = &log[off as usize..(off + len as u64) as usize];
                let (o, r, kk, payload) = decode_data_frame(raw).expect("re-decode spilled frame");
                prop_assert_eq!((o, r, kk), (origin, run, k));
                prop_assert_eq!(payload, &specs[i].4[..]);
            }
        }
    }

    /// Corrupting any single byte never yields a phantom record: the
    /// scan returns some prefix of the clean decode (the corrupted
    /// frame and everything after it drop out; frames before it are
    /// untouched), and a node recovering from the corrupted log holds
    /// exactly what that prefix replays to.
    #[test]
    fn corrupt_byte_only_truncates(
        specs in prop::collection::vec(spec_strategy(32), 1..8),
        pos_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let frames = build_frames(&specs);
        let (mut log, extents) = concat(&frames);
        let pos = (pos_seed % log.len() as u64) as usize;
        log[pos] ^= flip;

        let (scanned, valid_len) = scan(&log);

        // Every frame fully before the corrupted byte must survive; the
        // containing frame must not decode to something else.
        let clean_before = extents
            .iter()
            .take_while(|(off, len)| off + *len as u64 <= pos as u64)
            .count();
        prop_assert!(
            scanned.len() >= clean_before,
            "corruption at byte {} destroyed {} intact preceding frames",
            pos,
            clean_before - scanned.len()
        );
        for (i, frame) in scanned.iter().enumerate() {
            prop_assert_eq!(&frame.record, &frames[i].1, "frame {} changed", i);
        }
        // The scan never reads past the last frame it vouches for.
        prop_assert!(valid_len <= log.len() as u64);

        let payloads: Vec<&[u8]> = specs.iter().map(|s| &s.4[..]).collect();
        let model = Model::replay(&frames[..scanned.len()], &payloads);
        check_recovery(&log, valid_len, &model)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One bag log interleaving the chunks, consumes and rewinds of
    /// three origin streams with seals and collects, cut at **every**
    /// byte: a node recovering from the cut log truncates it to the
    /// intact frame prefix and holds, per origin, exactly the chunks and
    /// consumed marks a model replay of that prefix gives — including
    /// consumes that name a chunk recorded later in the same log.
    #[test]
    fn merged_log_cut_anywhere_recovers_the_model_replay(
        specs in prop::collection::vec(spec_strategy(24), 1..10),
    ) {
        let frames = build_frames(&specs);
        let (log, extents) = concat(&frames);
        let payloads: Vec<&[u8]> = specs.iter().map(|s| &s.4[..]).collect();
        for cut in 0..=log.len() {
            let intact = extents
                .iter()
                .take_while(|(off, len)| off + *len as u64 <= cut as u64)
                .count();
            let valid_len = extents[..intact].last().map_or(0, |(off, len)| off + *len as u64);
            let model = Model::replay(&frames[..intact], &payloads);
            check_recovery(&log[..cut], valid_len, &model)?;
        }
    }
}

/// One seeded mutation of a valid log `bytes`: bit flips, a splice of a
/// slice of `donor` (another valid log) or of random bytes, a
/// truncation, or several of these in a row.
fn mutate(rng: &mut DetRng, bytes: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=rng.gen_range(3) {
        let at = rng.gen_range(out.len() as u64 + 1) as usize;
        match rng.gen_range(4) {
            0 if !out.is_empty() => {
                for _ in 0..=rng.gen_range(4) {
                    let i = rng.gen_range(out.len() as u64) as usize;
                    out[i] ^= 1 << rng.gen_range(8);
                }
            }
            1 => {
                let from = rng.gen_range(donor.len() as u64 + 1) as usize;
                let to = from + rng.gen_range((donor.len() - from) as u64 + 1) as usize;
                let cut = at + rng.gen_range((out.len() - at) as u64 + 1) as usize;
                out.splice(at..cut, donor[from..to].iter().copied());
            }
            2 => {
                let junk: Vec<u8> = (0..rng.gen_range(12))
                    .map(|_| rng.next_u32() as u8)
                    .collect();
                out.splice(at..at, junk);
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// The scanner's contract on arbitrary bytes, given the clean log
/// `clean` the bytes were mutated from and its frames `frames`: `scan`
/// returns without panicking; its frames tile `[0, valid_len)` with
/// `valid_len` inside the buffer; each frame decodes alone to the same
/// record (a `DATA` frame also through the spill read path); the valid
/// prefix rescans to itself; every clean frame that ends before the
/// first changed byte survives unchanged; and a node recovering from
/// the bytes truncates to `valid_len` and, when the recovered frames
/// name each chunk identity once, holds what replaying them gives.
fn scan_keeps_its_contract(
    bytes: &[u8],
    clean: &[u8],
    frames: &[(Vec<u8>, Record)],
) -> Result<(), proptest::TestCaseError> {
    let scanned = std::panic::catch_unwind(|| scan(bytes));
    prop_assert!(scanned.is_ok(), "scan panicked on {:?}", bytes);
    let (scanned, valid_len) = scanned.unwrap();
    prop_assert!(
        valid_len <= bytes.len() as u64,
        "valid length past the buffer"
    );
    let mut end = 0u64;
    let mut recovered = Vec::with_capacity(scanned.len());
    let mut ids = HashSet::new();
    let mut unique = true;
    for f in &scanned {
        prop_assert_eq!(f.offset, end, "frames do not tile the prefix");
        end += u64::from(f.frame_len);
        let raw = &bytes[f.offset as usize..end as usize];
        let (alone, alone_len) = scan(raw);
        prop_assert_eq!(alone_len, raw.len() as u64);
        prop_assert_eq!(
            &alone[0].record,
            &f.record,
            "frame decodes differently alone"
        );
        let mut payload = &[][..];
        if let Record::Data { origin, run, k, .. } = f.record {
            let (o, r, kk, p) = decode_data_frame(raw).expect("scanned DATA frame re-decodes");
            prop_assert_eq!((o, r, kk), (origin, run, k));
            unique &= ids.insert((origin, run, k));
            payload = p;
        }
        recovered.push(((raw.to_vec(), f.record.clone()), payload));
    }
    prop_assert_eq!(end, valid_len, "valid length is not the last frame's end");
    prop_assert_eq!(
        scan(&bytes[..valid_len as usize]),
        (scanned.clone(), valid_len)
    );

    let changed = bytes
        .iter()
        .zip(clean)
        .position(|(a, b)| a != b)
        .unwrap_or(bytes.len().min(clean.len()));
    let mut offset = 0;
    for (i, (frame, record)) in frames.iter().enumerate() {
        offset += frame.len();
        if offset > changed {
            break;
        }
        prop_assert!(i < scanned.len(), "untouched frame {} dropped", i);
        prop_assert_eq!(&scanned[i].record, record, "untouched frame {} changed", i);
    }

    if unique {
        let (frames, payloads): (Vec<_>, Vec<_>) = recovered.into_iter().unzip();
        check_recovery(bytes, valid_len, &Model::replay(&frames, &payloads))?;
    } else {
        let store = SegmentStore::mem();
        let log = store.open_log(&log_name(BagId(1))).expect("mem log");
        log.append(bytes).expect("mem append");
        StorageNode::durable(StorageNodeId(0), store, u64::MAX).expect("recover");
        prop_assert_eq!(log.len(), valid_len, "torn tail not truncated");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncated, bit-flipped and spliced logs — including splices of
    /// whole frames from another valid log, which pass every CRC — keep
    /// the scanner's contract (`scan_keeps_its_contract`): a valid
    /// prefix, never a panic or a read past the buffer (the segment
    /// scanner's fuzz leg, seed-replayable).
    #[test]
    fn mutated_logs_scan_to_a_valid_prefix(
        specs in prop::collection::vec(spec_strategy(24), 0..8),
        donor_specs in prop::collection::vec(spec_strategy(24), 0..6),
        seed in any::<u64>(),
    ) {
        let frames = build_frames(&specs);
        let (log, _) = concat(&frames);
        let (donor, _) = concat(&build_frames(&donor_specs));
        let mut rng = DetRng::new(seed);
        for _ in 0..16 {
            scan_keeps_its_contract(&mutate(&mut rng, &log, &donor), &log, &frames)?;
        }
    }
}

/// The ordering the proptest reaches only by chance, pinned: a `CONSUME`
/// journaled before the `DATA` it names (a claim that raced the
/// replicated insert) recovers with the chunk already consumed, while
/// its neighbour in the same run stays live.
#[test]
fn consume_before_its_data_in_one_log_lands_pre_consumed() {
    let bag = BagId(4);
    let store = SegmentStore::mem();
    let log = store.open_log(&log_name(bag)).unwrap();
    let claim = TagSegment {
        run: 7,
        start: 1,
        len: 1,
    };
    log.append(&consume_frame(2, &[claim])).unwrap();
    log.append(&data_frame(0, 7, 1, b"own stream, same identity"))
        .unwrap();
    log.append(&data_frame(2, 7, 0, b"live")).unwrap();
    log.append(&data_frame(2, 7, 1, b"claimed")).unwrap();
    log.append(&seal_frame()).unwrap();

    let node = StorageNode::durable(StorageNodeId(0), store, u64::MAX).unwrap();
    let mirrored = node.remove_from_batch(bag, 2, 8).unwrap();
    assert_eq!(mirrored.chunks, vec![Chunk::from_vec(b"live".to_vec())]);
    assert!(mirrored.eof);
    // The claim named origin 2 only: origin 0's chunk with the same
    // (run, k) is untouched.
    let own = node.remove_from_batch(bag, 0, 8).unwrap();
    assert_eq!(own.chunks.len(), 1);
    assert_eq!(
        node.claim_consumed(bag, 2, &[claim]).unwrap(),
        vec![claim],
        "the recovered claim reports its identity consumed"
    );
}
