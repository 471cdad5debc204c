//! Property tests for the storage RPC wire format: envelope round-trips
//! through framing under arbitrary socket fragmentation, vectored frame
//! writes that put exactly the reference bytes on the wire under short
//! writes, rejection (never a panic, never a bogus decode, never an
//! allocation sized by an announced length) of truncated or oversized
//! frames, totality of both envelope decoders over seeded mutations of
//! valid encodings, and the tags wire version 3 retired staying retired.

use hurricane_common::{BagId, DetRng, StorageNodeId};
use hurricane_format::{Chunk, CodecError};
use hurricane_storage::wire::{self, FrameReader, FrameWriter, MAX_FRAME_LEN, READ_WINDOW};
use hurricane_storage::{
    BagSample, ChunkRun, NodeRemoveBatch, ReplyEnvelope, RequestEnvelope, StorageError,
    StorageRequest, StorageResponse, TagSegment,
};
use proptest::prelude::*;
use std::io::{self, IoSlice, Read, Write};

/// Raw material for one arbitrary request: a discriminant plus every
/// field any variant might need (the shim has no `prop_oneof`, so
/// variants are folded from a tag).
type RawRequest = ((u8, u64, u32, u64, u64), Vec<Vec<u8>>, Vec<(u64, u32, u32)>);

fn raw_request() -> impl Strategy<Value = RawRequest> {
    (
        (
            0u8..10,
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            0u64..1_000_000,
        ),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..5),
        prop::collection::vec((any::<u64>(), any::<u32>(), 0u32..1_000_000), 0..5),
    )
}

fn build_request(raw: RawRequest) -> StorageRequest {
    let ((tag, bag, origin, run, n), blobs, raw_tags) = raw;
    let bag = BagId(bag);
    let chunks: Vec<Chunk> = blobs.into_iter().map(Chunk::from_vec).collect();
    let tags: Vec<TagSegment> = raw_tags
        .into_iter()
        .map(|(run, start, len)| TagSegment { run, start, len })
        .collect();
    match tag {
        0 => StorageRequest::InsertBatch {
            bag,
            origin,
            run,
            chunks: ChunkRun::new(chunks),
        },
        1 => StorageRequest::RemoveBatch {
            bag,
            origin,
            max_n: n as usize,
        },
        2 => StorageRequest::Sample { bag },
        3 => StorageRequest::SnapshotFrom { bag, origin },
        4 => StorageRequest::Seal { bag },
        5 => StorageRequest::Rewind { bag },
        6 => StorageRequest::Discard { bag },
        7 => StorageRequest::Collect { bag },
        8 => StorageRequest::ClaimConsumed { bag, origin, tags },
        _ => StorageRequest::Ping,
    }
}

/// Raw material for one arbitrary reply result.
type RawReply = (
    u8,
    u64,
    u32,
    Vec<Vec<u8>>,
    Vec<(u64, u32, u32)>,
    (bool, bool),
);

fn raw_reply() -> impl Strategy<Value = RawReply> {
    (
        0u8..11,
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..5),
        prop::collection::vec((any::<u64>(), any::<u32>(), 0u32..1_000_000), 0..4),
        (any::<bool>(), any::<bool>()),
    )
}

fn build_reply_result(raw: RawReply) -> Result<StorageResponse, StorageError> {
    let (tag, big, small, blobs, raw_tags, (flag_a, flag_b)) = raw;
    let chunks: Vec<Chunk> = blobs.into_iter().map(Chunk::from_vec).collect();
    let tags: Vec<TagSegment> = raw_tags
        .into_iter()
        .map(|(run, start, len)| TagSegment { run, start, len })
        .collect();
    match tag {
        0 => Ok(StorageResponse::Inserted),
        1 => Ok(StorageResponse::Removed(NodeRemoveBatch {
            chunks,
            tags,
            exhausted: flag_a,
            eof: flag_a && flag_b,
        })),
        2 => Ok(StorageResponse::Sampled(BagSample {
            total_chunks: big,
            removed_chunks: big / 2,
            remaining_chunks: big - big / 2,
            remaining_bytes: big.wrapping_mul(3),
            total_bytes: big.wrapping_mul(7),
            resident_bytes: big.wrapping_mul(5),
            sealed: flag_a,
        })),
        3 => Ok(StorageResponse::Chunks(chunks)),
        4 => Ok(StorageResponse::Done),
        5 => Ok(StorageResponse::Pong),
        6 => Ok(StorageResponse::Claimed(tags)),
        7 => Err(StorageError::NodeDown(StorageNodeId(small))),
        8 => Err(StorageError::BagSealed(BagId(big))),
        9 => Err(StorageError::Timeout(StorageNodeId(small))),
        _ => Err(StorageError::Codec(CodecError::InvalidTag(tag))),
    }
}

/// A `Read` over `bytes` that hands out between 1 and `max` bytes per
/// call, sizes drawn from a seeded generator, and fails its first call
/// with `Interrupted`.
struct SeededRead<'a> {
    bytes: &'a [u8],
    rng: DetRng,
    max: u64,
    interrupt: bool,
}

impl Read for SeededRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.interrupt) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let step = 1 + self.rng.gen_range(self.max) as usize;
        let n = step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn seeded_reader(bytes: &[u8], seed: u64, max: u64) -> FrameReader<SeededRead<'_>> {
    FrameReader::new(SeededRead {
        bytes,
        rng: DetRng::new(seed),
        max,
        interrupt: true,
    })
}

/// Every frame of `stream`, read with seeded read sizes, until a clean
/// end of stream.
fn read_frames(stream: &[u8], seed: u64, max: u64) -> io::Result<Vec<Vec<u8>>> {
    let mut r = seeded_reader(stream, seed, max);
    let mut frames = Vec::new();
    while let Some(payload) = r.next_frame()? {
        frames.push(payload.to_vec());
    }
    Ok(frames)
}

/// The `CodecError` an `InvalidData` frame error carries.
fn codec_error(err: &io::Error) -> Option<CodecError> {
    err.get_ref()?.downcast_ref().cloned()
}

/// A `Write` that takes between 1 and `max` bytes per call, sizes drawn
/// from a seeded generator, from at most 1,024 slices (a socket's
/// `IOV_MAX`), and fails its first call with `Interrupted`.
struct SeededWrite {
    out: Vec<u8>,
    rng: DetRng,
    max: u64,
    interrupt: bool,
}

impl Write for SeededWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if std::mem::take(&mut self.interrupt) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let step = 1 + self.rng.gen_range(self.max) as usize;
        let mut left = step;
        for b in bufs.iter().take(1024) {
            let n = left.min(b.len());
            self.out.extend_from_slice(&b[..n]);
            left -= n;
        }
        Ok(step - left)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One seeded mutation of a valid encoding `bytes`: bit flips, a splice
/// of a slice of `donor` (another valid encoding) or of random bytes, a
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

/// Decodes `bytes` as a request and as a reply. Each decoder must return
/// `Ok` or a `CodecError` — a panic fails with the input to commit as a
/// regression case — and whatever decodes must survive re-encoding.
fn decoders_are_total(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
    let request = std::panic::catch_unwind(|| wire::decode_request(&mut &bytes[..]));
    prop_assert!(request.is_ok(), "decode_request panicked on {:?}", bytes);
    if let Ok(Ok(env)) = request {
        let mut again = Vec::new();
        wire::encode_request(&env, &mut again);
        prop_assert_eq!(wire::decode_request(&mut again.as_slice()), Ok(env));
    }
    let reply = std::panic::catch_unwind(|| wire::decode_reply(&mut &bytes[..]));
    prop_assert!(reply.is_ok(), "decode_reply panicked on {:?}", bytes);
    if let Ok(Ok(env)) = reply {
        let mut again = Vec::new();
        wire::encode_reply(&env, &mut again);
        prop_assert_eq!(wire::decode_reply(&mut again.as_slice()), Ok(env));
    }
    Ok(())
}

/// Request tags 2, 4 and 5 (`MirrorConsumed`, `ReadAt`, `Snapshot`) and
/// response tags 2 and 4 (`Mirrored`, `ChunkAt`) were retired in wire
/// version 3, request tags 11 and 12 (`Drain`, `IsDrained`) and response
/// tag 7 (`Drained`) in version 4, and none is ever reused: an envelope
/// carrying one is a typed `InvalidTag` error whatever the bytes after it
/// (here: a retired variant's old fields, nothing, and junk).
#[test]
fn retired_tags_decode_to_invalid_tag() {
    let tails: [&[u8]; 3] = [&[4, 2, 0], &[], &[0xFF; 12]];
    for tail in tails {
        for tag in [2u8, 4, 5, 11, 12] {
            // id, client, seq, then the body's tag.
            let mut req = vec![1, 7, 9, tag];
            req.extend_from_slice(tail);
            assert_eq!(
                wire::decode_request(&mut req.as_slice()),
                Err(CodecError::InvalidTag(tag)),
                "request tag {tag}"
            );
        }
        for tag in [2u8, 4, 7] {
            // id, `Ok`, then the response's tag.
            let mut rep = vec![1, 1, tag];
            rep.extend_from_slice(tail);
            assert_eq!(
                wire::decode_reply(&mut rep.as_slice()),
                Err(CodecError::InvalidTag(tag)),
                "response tag {tag}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipped, spliced and truncated request and reply envelopes decode
    /// to `Ok` or a typed `CodecError`, never a panic (the wire codec's
    /// fuzz leg, seed-replayable).
    #[test]
    fn mutated_envelopes_never_panic_the_decoders(
        raw_req in raw_request(),
        raw_rep in raw_reply(),
        seed in any::<u64>(),
    ) {
        let mut request = Vec::new();
        let req = RequestEnvelope { id: seed, client: 7, seq: 9, request: build_request(raw_req) };
        wire::encode_request(&req, &mut request);
        let mut reply = Vec::new();
        let rep = ReplyEnvelope { id: seed, result: build_reply_result(raw_rep) };
        wire::encode_reply(&rep, &mut reply);
        let mut rng = DetRng::new(seed);
        for _ in 0..16 {
            decoders_are_total(&mutate(&mut rng, &request, &reply))?;
            decoders_are_total(&mutate(&mut rng, &reply, &request))?;
        }
    }

    /// Any request envelope survives encode → frame → arbitrarily
    /// fragmented delivery → decode, byte-exact.
    #[test]
    fn request_roundtrips_through_fragmented_frames(
        raw in raw_request(),
        id in any::<u64>(),
        client in any::<u64>(),
        seq in any::<u64>(),
        seed in any::<u64>(),
        max in 1u64..200,
    ) {
        let env = RequestEnvelope { id, client, seq, request: build_request(raw) };
        let mut payload = Vec::new();
        wire::encode_request(&env, &mut payload);
        let mut stream = Vec::new();
        wire::frame(&payload, &mut stream);

        let frames = read_frames(&stream, seed, max).unwrap();
        prop_assert_eq!(frames.len(), 1);
        let mut slice = frames[0].as_slice();
        let back = wire::decode_request(&mut slice).unwrap();
        prop_assert!(slice.is_empty(), "decode must consume the whole frame");
        prop_assert_eq!(back, env);
    }

    /// A stream of several framed envelopes — requests and replies mixed
    /// by direction never are, but frames are direction-agnostic —
    /// reassembles in order however the reads split or coalesce.
    #[test]
    fn coalesced_streams_preserve_frame_order(
        raws in prop::collection::vec(raw_reply(), 1..6),
        seed in any::<u64>(),
        max in 1u64..2_000,
    ) {
        let envs: Vec<ReplyEnvelope> = raws
            .into_iter()
            .enumerate()
            .map(|(i, raw)| ReplyEnvelope { id: i as u64, result: build_reply_result(raw) })
            .collect();
        let mut stream = Vec::new();
        let mut payload = Vec::new();
        for env in &envs {
            payload.clear();
            wire::encode_reply(env, &mut payload);
            wire::frame(&payload, &mut stream);
        }

        // A clean end of stream after the last frame: no stray bytes.
        let frames = read_frames(&stream, seed, max).unwrap();
        prop_assert_eq!(frames.len(), envs.len());
        for (frame, want) in frames.iter().zip(&envs) {
            let mut slice = frame.as_slice();
            let back = wire::decode_reply(&mut slice).unwrap();
            prop_assert!(slice.is_empty());
            prop_assert_eq!(&back, want);
        }
    }

    /// Requests and replies written by a `FrameWriter` through seeded
    /// short writes (and one `Interrupted`) put exactly
    /// `frame(encode_*(env))` on the wire, and read back through a
    /// `FrameReader` as the same envelopes.
    #[test]
    fn vectored_frames_are_byte_identical(
        raw_req in raw_request(),
        raw_rep in raw_reply(),
        id in any::<u64>(),
        seed in any::<u64>(),
        max in 1u64..300,
    ) {
        let req = RequestEnvelope { id, client: 3, seq: 5, request: build_request(raw_req) };
        let rep = ReplyEnvelope { id, result: build_reply_result(raw_rep) };
        let (mut want, mut payload) = (Vec::new(), Vec::new());
        wire::encode_request(&req, &mut payload);
        wire::frame(&payload, &mut want);
        payload.clear();
        wire::encode_reply(&rep, &mut payload);
        wire::frame(&payload, &mut want);

        let mut sink = SeededWrite { out: Vec::new(), rng: DetRng::new(seed), max, interrupt: true };
        let mut w = FrameWriter::new();
        w.write_request(&mut sink, &req).unwrap();
        w.write_reply(&mut sink, &rep).unwrap();
        prop_assert_eq!(&sink.out, &want);

        let mut r = seeded_reader(&sink.out, seed ^ 1, max);
        let mut first = r.next_frame().unwrap().unwrap();
        prop_assert_eq!(wire::decode_request(&mut first), Ok(req));
        prop_assert!(first.is_empty());
        let mut second = r.next_frame().unwrap().unwrap();
        prop_assert_eq!(wire::decode_reply(&mut second), Ok(rep));
        prop_assert!(second.is_empty());
        prop_assert!(r.next_frame().unwrap().is_none());
    }

    /// Every strict prefix of an encoded envelope fails to decode — and
    /// never panics. (Totality over adversarial truncation.)
    #[test]
    fn truncated_payloads_are_rejected(
        raw in raw_request(),
        cut_seed in any::<u64>(),
    ) {
        let env = RequestEnvelope { id: 1, client: 2, seq: 3, request: build_request(raw) };
        let mut payload = Vec::new();
        wire::encode_request(&env, &mut payload);
        let cut = (cut_seed as usize) % payload.len().max(1);
        let mut slice = &payload[..cut];
        prop_assert!(wire::decode_request(&mut slice).is_err());
    }

    /// Arbitrary junk fed to the frame reader yields frames or a typed
    /// error, an `InvalidData` carrying its `CodecError` or an
    /// `UnexpectedEof`; it never panics. An invalid prefix, or a
    /// declared length above `MAX_FRAME_LEN`, is always fatal before
    /// the buffer grows past its first read window.
    #[test]
    fn frame_reader_is_total_over_junk(
        junk in prop::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
        max in 1u64..600,
    ) {
        if let Err(err) = read_frames(&junk, seed, max) {
            let typed = match err.kind() {
                io::ErrorKind::UnexpectedEof => true,
                io::ErrorKind::InvalidData => codec_error(&err).is_some(),
                _ => false,
            };
            prop_assert!(typed, "untyped frame error {:?}", err);
        }

        let mut oversized = Vec::new();
        hurricane_format::varint::encode(MAX_FRAME_LEN as u64 + 1, &mut oversized);
        let invalid = vec![0x80; hurricane_format::varint::MAX_VARINT_LEN];
        for (prefix, want) in [
            (oversized, CodecError::LengthOverflow),
            (invalid, CodecError::InvalidVarint),
        ] {
            let stream = [prefix, junk.clone()].concat();
            let mut r = seeded_reader(&stream, seed, max);
            let err = r.next_frame().unwrap_err();
            prop_assert_eq!(codec_error(&err), Some(want));
            prop_assert!(r.capacity() <= READ_WINDOW);
        }
    }
}

/// A prefix announcing `MAX_FRAME_LEN` followed by fewer bytes and the
/// end of the stream fails with `UnexpectedEof`, having grown the buffer
/// only with the bytes that arrived: within one read window of them
/// while they fit a window, within twice them plus a window after.
#[test]
fn an_announced_max_frame_reserves_only_what_arrives() {
    for sent in [0, 1, 4_000, READ_WINDOW - 4, 300_000, 2_000_000] {
        for seed in 0..4 {
            let mut stream = Vec::new();
            hurricane_format::varint::encode(MAX_FRAME_LEN as u64, &mut stream);
            stream.resize(stream.len() + sent, 0x5A);
            let mut r = seeded_reader(&stream, seed, 1 + (seed + 1) * 100_000);
            let err = r.next_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            let (received, capacity) = (stream.len(), r.capacity());
            assert!(
                capacity <= 2 * received + READ_WINDOW,
                "{received} B in, {capacity} B held"
            );
            if received <= READ_WINDOW {
                assert!(
                    capacity <= received + READ_WINDOW,
                    "{received} B in, {capacity} B held"
                );
            }
        }
    }
}
