//! The storage RPC wire format: hurricane-format varint encoding of
//! [`RequestEnvelope`] and [`ReplyEnvelope`], plus length-prefixed
//! framing for stream transports.
//!
//! The in-process transports move envelopes as Rust values; the TCP
//! transport ([`crate::tcp`]) needs them as bytes. This module is the
//! byte layer, built on the same LEB128 varint primitives as the record
//! format ([`hurricane_format::varint`]) — no serialization framework,
//! every field hand-placed, so the wire layout is an explicit, versioned
//! contract (documented in `WIRE.md` at the repo root).
//!
//! Layout rules:
//!
//! * Integers are unsigned LEB128 varints (u32 fields widen to u64).
//! * `bool` is one byte, `0` or `1`; anything else is
//!   [`CodecError::InvalidTag`].
//! * Enum variants carry a one-byte tag followed by their fields in
//!   declaration order.
//! * Byte strings and collections carry a varint count prefix.
//! * A frame is `varint(payload_len) ++ payload`; payloads longer than
//!   [`MAX_FRAME_LEN`] are rejected on both ends, which bounds the
//!   memory a malformed or hostile peer can make a node allocate.
//!
//! One encoder serves two sinks. Into a `Vec<u8>`
//! ([`encode_request`], [`encode_reply`]) it writes the reference
//! encoding. Into a [`FrameWriter`] it writes every field except chunk
//! payloads into a small reused head buffer, and the frame goes out as
//! one vectored write that sends each payload from its chunk's own
//! buffer. [`FrameReader`] reads each frame into one reused buffer, and
//! the decoder copies each chunk out of it into an allocation of exactly
//! the chunk's size, the only user-space copy of a chunk byte on a hop.
//!
//! Decoding is *total*: arbitrary bytes either decode or return a
//! [`CodecError`]; nothing panics. Decoders run on exactly one frame's
//! payload, so "declared length exceeds remaining input" is always
//! [`CodecError::Truncated`], never a blocking read.

use crate::error::StorageError;
use crate::node::{BagSample, NodeRemoveBatch, TagSegment};
use crate::rpc::{ChunkRun, ReplyEnvelope, RequestEnvelope, StorageRequest, StorageResponse};
use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::varint;
use hurricane_format::{Chunk, CodecError};
use std::io::{self, IoSlice, Read, Write};

/// Hard ceiling on one frame's payload size (64 MiB + slack).
///
/// The largest legitimate frame is an `InsertBatch` of coalesced 4 MB
/// chunks; default coalescing keeps that well under this cap. A length
/// prefix above the cap is a protocol violation, reported as
/// [`CodecError::LengthOverflow`] before any allocation happens.
pub const MAX_FRAME_LEN: usize = 80 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Primitive field helpers.
// ---------------------------------------------------------------------------

fn put_u64(value: u64, out: &mut Vec<u8>) {
    varint::encode(value, out);
}

fn put_u32(value: u32, out: &mut Vec<u8>) {
    varint::encode(value as u64, out);
}

fn put_bool(value: bool, out: &mut Vec<u8>) {
    out.push(value as u8);
}

fn get_u64(input: &mut &[u8]) -> Result<u64, CodecError> {
    varint::decode(input)
}

fn get_u32(input: &mut &[u8]) -> Result<u32, CodecError> {
    let v = varint::decode(input)?;
    u32::try_from(v).map_err(|_| CodecError::LengthOverflow)
}

fn get_usize(input: &mut &[u8]) -> Result<usize, CodecError> {
    let v = varint::decode(input)?;
    usize::try_from(v).map_err(|_| CodecError::LengthOverflow)
}

fn get_bool(input: &mut &[u8]) -> Result<bool, CodecError> {
    match get_tag(input)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(CodecError::InvalidTag(t)),
    }
}

fn get_tag(input: &mut &[u8]) -> Result<u8, CodecError> {
    let (&byte, rest) = input.split_first().ok_or(CodecError::Truncated)?;
    *input = rest;
    Ok(byte)
}

/// Reads a count prefix for a collection whose elements occupy at least
/// `min_elem` bytes each — the remaining input bounds the count, so a
/// hostile length can never drive a huge allocation.
fn get_count(input: &mut &[u8], min_elem: usize) -> Result<usize, CodecError> {
    let count = get_usize(input)?;
    if count.saturating_mul(min_elem.max(1)) > input.len() {
        return Err(CodecError::Truncated);
    }
    Ok(count)
}

fn get_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = get_count(input, 1)?;
    let (head, rest) = input.split_at(len);
    *input = rest;
    Ok(head)
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

/// Where the envelope encoder puts its bytes: every field except a
/// chunk's payload goes to [`Sink::head`], and each chunk payload goes
/// through [`Sink::chunk`], in wire order.
trait Sink<'a> {
    fn head(&mut self) -> &mut Vec<u8>;
    fn chunk(&mut self, payload: &'a [u8]);
}

/// The reference encoding: payloads are appended in place.
impl<'a> Sink<'a> for Vec<u8> {
    fn head(&mut self) -> &mut Vec<u8> {
        self
    }

    fn chunk(&mut self, payload: &'a [u8]) {
        self.extend_from_slice(payload);
    }
}

/// A frame being built for a vectored write: the head holds everything
/// but the chunk payloads, and each payload is recorded with the head
/// offset it follows.
struct Spliced<'a> {
    head: Vec<u8>,
    chunks: Vec<(usize, &'a [u8])>,
}

impl<'a> Sink<'a> for Spliced<'a> {
    fn head(&mut self) -> &mut Vec<u8> {
        &mut self.head
    }

    fn chunk(&mut self, payload: &'a [u8]) {
        if !payload.is_empty() {
            self.chunks.push((self.head.len(), payload));
        }
    }
}

// ---------------------------------------------------------------------------
// Composite fields.
// ---------------------------------------------------------------------------

fn put_chunks<'a>(chunks: &'a [Chunk], sink: &mut impl Sink<'a>) {
    put_u64(chunks.len() as u64, sink.head());
    for c in chunks {
        put_u64(c.len() as u64, sink.head());
        sink.chunk(c.bytes());
    }
}

fn get_chunks(input: &mut &[u8]) -> Result<Vec<Chunk>, CodecError> {
    let count = get_count(input, 1)?;
    let mut chunks = Vec::with_capacity(count);
    for _ in 0..count {
        chunks.push(Chunk::copy_from_slice(get_bytes(input)?));
    }
    Ok(chunks)
}

fn put_tags(tags: &[TagSegment], out: &mut Vec<u8>) {
    put_u64(tags.len() as u64, out);
    for t in tags {
        put_u64(t.run, out);
        put_u32(t.start, out);
        put_u32(t.len, out);
    }
}

fn get_tags(input: &mut &[u8]) -> Result<Vec<TagSegment>, CodecError> {
    let count = get_count(input, 3)?;
    let mut tags = Vec::with_capacity(count);
    for _ in 0..count {
        tags.push(TagSegment {
            run: get_u64(input)?,
            start: get_u32(input)?,
            len: get_u32(input)?,
        });
    }
    Ok(tags)
}

fn put_bag(bag: BagId, out: &mut Vec<u8>) {
    put_u64(bag.0, out);
}

fn get_bag(input: &mut &[u8]) -> Result<BagId, CodecError> {
    Ok(BagId(get_u64(input)?))
}

fn put_node(node: StorageNodeId, out: &mut Vec<u8>) {
    put_u32(node.0, out);
}

fn get_node(input: &mut &[u8]) -> Result<StorageNodeId, CodecError> {
    Ok(StorageNodeId(get_u32(input)?))
}

fn put_sample(s: &BagSample, out: &mut Vec<u8>) {
    put_u64(s.total_chunks, out);
    put_u64(s.removed_chunks, out);
    put_u64(s.remaining_chunks, out);
    put_u64(s.remaining_bytes, out);
    put_u64(s.total_bytes, out);
    put_u64(s.resident_bytes, out);
    put_bool(s.sealed, out);
}

fn get_sample(input: &mut &[u8]) -> Result<BagSample, CodecError> {
    Ok(BagSample {
        total_chunks: get_u64(input)?,
        removed_chunks: get_u64(input)?,
        remaining_chunks: get_u64(input)?,
        remaining_bytes: get_u64(input)?,
        total_bytes: get_u64(input)?,
        resident_bytes: get_u64(input)?,
        sealed: get_bool(input)?,
    })
}

fn put_remove_batch<'a>(b: &'a NodeRemoveBatch, sink: &mut impl Sink<'a>) {
    put_chunks(&b.chunks, sink);
    let out = sink.head();
    put_tags(&b.tags, out);
    put_bool(b.exhausted, out);
    put_bool(b.eof, out);
}

fn get_remove_batch(input: &mut &[u8]) -> Result<NodeRemoveBatch, CodecError> {
    Ok(NodeRemoveBatch {
        chunks: get_chunks(input)?,
        tags: get_tags(input)?,
        exhausted: get_bool(input)?,
        eof: get_bool(input)?,
    })
}

// ---------------------------------------------------------------------------
// StorageRequest.
// ---------------------------------------------------------------------------

// Tags 2, 4 and 5 were retired in wire version 3, and 11 and 12 (the
// node-drain requests, which nothing sent) in version 4: never sent and
// never reused (WIRE.md); decoding one is an `InvalidTag` error like any
// unknown tag.
const REQ_INSERT_BATCH: u8 = 0;
const REQ_REMOVE_BATCH: u8 = 1;
const REQ_SAMPLE: u8 = 3;
const REQ_SNAPSHOT_FROM: u8 = 6;
const REQ_SEAL: u8 = 7;
const REQ_REWIND: u8 = 8;
const REQ_DISCARD: u8 = 9;
const REQ_COLLECT: u8 = 10;
const REQ_PING: u8 = 13;
const REQ_CLAIM_CONSUMED: u8 = 14;

fn put_request_body<'a>(req: &'a StorageRequest, sink: &mut impl Sink<'a>) {
    let out = sink.head();
    match req {
        StorageRequest::InsertBatch {
            bag,
            origin,
            run,
            chunks,
        } => {
            out.push(REQ_INSERT_BATCH);
            put_bag(*bag, out);
            put_u32(*origin, out);
            put_u64(*run, out);
            put_chunks(chunks, sink);
        }
        StorageRequest::RemoveBatch { bag, origin, max_n } => {
            out.push(REQ_REMOVE_BATCH);
            put_bag(*bag, out);
            put_u32(*origin, out);
            put_u64(*max_n as u64, out);
        }
        StorageRequest::Sample { bag } => {
            out.push(REQ_SAMPLE);
            put_bag(*bag, out);
        }
        StorageRequest::SnapshotFrom { bag, origin } => {
            out.push(REQ_SNAPSHOT_FROM);
            put_bag(*bag, out);
            put_u32(*origin, out);
        }
        StorageRequest::Seal { bag } => {
            out.push(REQ_SEAL);
            put_bag(*bag, out);
        }
        StorageRequest::Rewind { bag } => {
            out.push(REQ_REWIND);
            put_bag(*bag, out);
        }
        StorageRequest::Discard { bag } => {
            out.push(REQ_DISCARD);
            put_bag(*bag, out);
        }
        StorageRequest::Collect { bag } => {
            out.push(REQ_COLLECT);
            put_bag(*bag, out);
        }
        StorageRequest::Ping => out.push(REQ_PING),
        StorageRequest::ClaimConsumed { bag, origin, tags } => {
            out.push(REQ_CLAIM_CONSUMED);
            put_bag(*bag, out);
            put_u32(*origin, out);
            put_tags(tags, out);
        }
    }
}

fn get_request_body(input: &mut &[u8]) -> Result<StorageRequest, CodecError> {
    Ok(match get_tag(input)? {
        REQ_INSERT_BATCH => StorageRequest::InsertBatch {
            bag: get_bag(input)?,
            origin: get_u32(input)?,
            run: get_u64(input)?,
            chunks: ChunkRun::new(get_chunks(input)?),
        },
        REQ_REMOVE_BATCH => StorageRequest::RemoveBatch {
            bag: get_bag(input)?,
            origin: get_u32(input)?,
            max_n: get_usize(input)?,
        },
        REQ_SAMPLE => StorageRequest::Sample {
            bag: get_bag(input)?,
        },
        REQ_SNAPSHOT_FROM => StorageRequest::SnapshotFrom {
            bag: get_bag(input)?,
            origin: get_u32(input)?,
        },
        REQ_SEAL => StorageRequest::Seal {
            bag: get_bag(input)?,
        },
        REQ_REWIND => StorageRequest::Rewind {
            bag: get_bag(input)?,
        },
        REQ_DISCARD => StorageRequest::Discard {
            bag: get_bag(input)?,
        },
        REQ_COLLECT => StorageRequest::Collect {
            bag: get_bag(input)?,
        },
        REQ_PING => StorageRequest::Ping,
        REQ_CLAIM_CONSUMED => StorageRequest::ClaimConsumed {
            bag: get_bag(input)?,
            origin: get_u32(input)?,
            tags: get_tags(input)?,
        },
        t => return Err(CodecError::InvalidTag(t)),
    })
}

// ---------------------------------------------------------------------------
// StorageResponse.
// ---------------------------------------------------------------------------

// Tags 2 and 4 were retired in wire version 3 and tag 7 in version 4,
// like the requests they answered.
const RESP_INSERTED: u8 = 0;
const RESP_REMOVED: u8 = 1;
const RESP_SAMPLED: u8 = 3;
const RESP_CHUNKS: u8 = 5;
const RESP_DONE: u8 = 6;
const RESP_PONG: u8 = 8;
const RESP_CLAIMED: u8 = 9;

fn put_response<'a>(resp: &'a StorageResponse, sink: &mut impl Sink<'a>) {
    let out = sink.head();
    match resp {
        StorageResponse::Inserted => out.push(RESP_INSERTED),
        StorageResponse::Removed(batch) => {
            out.push(RESP_REMOVED);
            put_remove_batch(batch, sink);
        }
        StorageResponse::Sampled(sample) => {
            out.push(RESP_SAMPLED);
            put_sample(sample, out);
        }
        StorageResponse::Chunks(chunks) => {
            out.push(RESP_CHUNKS);
            put_chunks(chunks, sink);
        }
        StorageResponse::Done => out.push(RESP_DONE),
        StorageResponse::Pong => out.push(RESP_PONG),
        StorageResponse::Claimed(tags) => {
            out.push(RESP_CLAIMED);
            put_tags(tags, out);
        }
    }
}

fn get_response(input: &mut &[u8]) -> Result<StorageResponse, CodecError> {
    Ok(match get_tag(input)? {
        RESP_INSERTED => StorageResponse::Inserted,
        RESP_REMOVED => StorageResponse::Removed(get_remove_batch(input)?),
        RESP_SAMPLED => StorageResponse::Sampled(get_sample(input)?),
        RESP_CHUNKS => StorageResponse::Chunks(get_chunks(input)?),
        RESP_DONE => StorageResponse::Done,
        RESP_PONG => StorageResponse::Pong,
        RESP_CLAIMED => StorageResponse::Claimed(get_tags(input)?),
        t => return Err(CodecError::InvalidTag(t)),
    })
}

// ---------------------------------------------------------------------------
// StorageError and CodecError.
// ---------------------------------------------------------------------------

const ERR_NODE_DOWN: u8 = 0;
const ERR_NODE_DRAINING: u8 = 1;
const ERR_BAG_SEALED: u8 = 2;
const ERR_UNKNOWN_BAG: u8 = 3;
const ERR_BAG_COLLECTED: u8 = 4;
const ERR_ALL_REPLICAS_DOWN: u8 = 5;
const ERR_DISCONNECTED: u8 = 6;
const ERR_TIMEOUT: u8 = 7;
// Tag 8 is retired: never sent and never reused (WIRE.md); decoding it
// is an `InvalidTag` error like any unknown tag.
const ERR_CODEC: u8 = 9;
const ERR_DISK_FULL: u8 = 10;
const ERR_DISK_IO: u8 = 11;

const CODEC_TRUNCATED: u8 = 0;
const CODEC_INVALID_VARINT: u8 = 1;
const CODEC_INVALID_UTF8: u8 = 2;
const CODEC_INVALID_TAG: u8 = 3;
const CODEC_RECORD_TOO_LARGE: u8 = 4;
const CODEC_LENGTH_OVERFLOW: u8 = 5;

fn put_error(err: &StorageError, out: &mut Vec<u8>) {
    match err {
        StorageError::NodeDown(n) => {
            out.push(ERR_NODE_DOWN);
            put_node(*n, out);
        }
        StorageError::NodeDraining(n) => {
            out.push(ERR_NODE_DRAINING);
            put_node(*n, out);
        }
        StorageError::BagSealed(b) => {
            out.push(ERR_BAG_SEALED);
            put_bag(*b, out);
        }
        StorageError::UnknownBag(b) => {
            out.push(ERR_UNKNOWN_BAG);
            put_bag(*b, out);
        }
        StorageError::BagCollected(b) => {
            out.push(ERR_BAG_COLLECTED);
            put_bag(*b, out);
        }
        StorageError::AllReplicasDown(b) => {
            out.push(ERR_ALL_REPLICAS_DOWN);
            put_bag(*b, out);
        }
        StorageError::Disconnected(n) => {
            out.push(ERR_DISCONNECTED);
            put_node(*n, out);
        }
        StorageError::Timeout(n) => {
            out.push(ERR_TIMEOUT);
            put_node(*n, out);
        }
        StorageError::Codec(c) => {
            out.push(ERR_CODEC);
            match c {
                CodecError::Truncated => out.push(CODEC_TRUNCATED),
                CodecError::InvalidVarint => out.push(CODEC_INVALID_VARINT),
                CodecError::InvalidUtf8 => out.push(CODEC_INVALID_UTF8),
                CodecError::InvalidTag(t) => {
                    out.push(CODEC_INVALID_TAG);
                    out.push(*t);
                }
                CodecError::RecordTooLarge { record, chunk } => {
                    out.push(CODEC_RECORD_TOO_LARGE);
                    put_u64(*record as u64, out);
                    put_u64(*chunk as u64, out);
                }
                CodecError::LengthOverflow => out.push(CODEC_LENGTH_OVERFLOW),
            }
        }
        StorageError::DiskFull(n) => {
            out.push(ERR_DISK_FULL);
            put_node(*n, out);
        }
        StorageError::DiskIo(n) => {
            out.push(ERR_DISK_IO);
            put_node(*n, out);
        }
    }
}

fn get_error(input: &mut &[u8]) -> Result<StorageError, CodecError> {
    Ok(match get_tag(input)? {
        ERR_NODE_DOWN => StorageError::NodeDown(get_node(input)?),
        ERR_NODE_DRAINING => StorageError::NodeDraining(get_node(input)?),
        ERR_BAG_SEALED => StorageError::BagSealed(get_bag(input)?),
        ERR_UNKNOWN_BAG => StorageError::UnknownBag(get_bag(input)?),
        ERR_BAG_COLLECTED => StorageError::BagCollected(get_bag(input)?),
        ERR_ALL_REPLICAS_DOWN => StorageError::AllReplicasDown(get_bag(input)?),
        ERR_DISCONNECTED => StorageError::Disconnected(get_node(input)?),
        ERR_TIMEOUT => StorageError::Timeout(get_node(input)?),
        ERR_CODEC => StorageError::Codec(match get_tag(input)? {
            CODEC_TRUNCATED => CodecError::Truncated,
            CODEC_INVALID_VARINT => CodecError::InvalidVarint,
            CODEC_INVALID_UTF8 => CodecError::InvalidUtf8,
            CODEC_INVALID_TAG => CodecError::InvalidTag(get_tag(input)?),
            CODEC_RECORD_TOO_LARGE => CodecError::RecordTooLarge {
                record: get_usize(input)?,
                chunk: get_usize(input)?,
            },
            CODEC_LENGTH_OVERFLOW => CodecError::LengthOverflow,
            t => return Err(CodecError::InvalidTag(t)),
        }),
        ERR_DISK_FULL => StorageError::DiskFull(get_node(input)?),
        ERR_DISK_IO => StorageError::DiskIo(get_node(input)?),
        t => return Err(CodecError::InvalidTag(t)),
    })
}

// ---------------------------------------------------------------------------
// Envelopes.
// ---------------------------------------------------------------------------

fn put_request<'a>(env: &'a RequestEnvelope, sink: &mut impl Sink<'a>) {
    let out = sink.head();
    put_u64(env.id, out);
    put_u64(env.client, out);
    put_u64(env.seq, out);
    put_request_body(&env.request, sink);
}

/// Appends the wire encoding of a request envelope (payload only, no
/// frame header) to `out`.
pub fn encode_request(env: &RequestEnvelope, out: &mut Vec<u8>) {
    put_request(env, out);
}

/// Decodes a request envelope from the front of `input`, advancing it.
/// Callers decoding a whole frame should verify `input` is empty after.
pub fn decode_request(input: &mut &[u8]) -> Result<RequestEnvelope, CodecError> {
    Ok(RequestEnvelope {
        id: get_u64(input)?,
        client: get_u64(input)?,
        seq: get_u64(input)?,
        request: get_request_body(input)?,
    })
}

fn put_reply<'a>(env: &'a ReplyEnvelope, sink: &mut impl Sink<'a>) {
    let out = sink.head();
    put_u64(env.id, out);
    match &env.result {
        Ok(resp) => {
            put_bool(true, out);
            put_response(resp, sink);
        }
        Err(err) => {
            put_bool(false, out);
            put_error(err, out);
        }
    }
}

/// Appends the wire encoding of a reply envelope (payload only, no frame
/// header) to `out`.
pub fn encode_reply(env: &ReplyEnvelope, out: &mut Vec<u8>) {
    put_reply(env, out);
}

/// Decodes a reply envelope from the front of `input`, advancing it.
pub fn decode_reply(input: &mut &[u8]) -> Result<ReplyEnvelope, CodecError> {
    let id = get_u64(input)?;
    let result = if get_bool(input)? {
        Ok(get_response(input)?)
    } else {
        Err(get_error(input)?)
    };
    Ok(ReplyEnvelope { id, result })
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Appends one frame — `varint(payload.len()) ++ payload` — to `out`.
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`]; local encoders never
/// produce such a payload (insert coalescing bounds batch size), so an
/// oversized frame is a programming error, not a runtime condition.
pub fn frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload {} exceeds MAX_FRAME_LEN",
        payload.len()
    );
    varint::encode(payload.len() as u64, out);
    out.extend_from_slice(payload);
}

/// Room kept at the front of a [`FrameWriter`]'s head for the frame's
/// length prefix, which is known only once the envelope is encoded.
const PREFIX_ROOM: usize = varint::MAX_VARINT_LEN;

/// Writes framed envelopes to a byte stream, each chunk payload straight
/// from its chunk's own buffer.
///
/// The encoder writes the frame prefix and every other field into one
/// head buffer, reused across frames, and the frame goes out as one
/// vectored write of `[prefix + head, chunk, head, chunk, …]`. The bytes
/// on the wire are exactly `frame(encode_*(env))`.
#[derive(Debug, Default)]
pub struct FrameWriter {
    head: Vec<u8>,
}

impl FrameWriter {
    /// Creates a writer with an empty head buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one request frame to `w`.
    ///
    /// Panics if the payload exceeds [`MAX_FRAME_LEN`], as [`frame`]
    /// does.
    pub fn write_request(&mut self, w: &mut impl Write, env: &RequestEnvelope) -> io::Result<()> {
        let mut sink = self.sink();
        put_request(env, &mut sink);
        self.send(w, sink)
    }

    /// Writes one reply frame to `w`.
    ///
    /// Panics if the payload exceeds [`MAX_FRAME_LEN`], as [`frame`]
    /// does.
    pub fn write_reply(&mut self, w: &mut impl Write, env: &ReplyEnvelope) -> io::Result<()> {
        let mut sink = self.sink();
        put_reply(env, &mut sink);
        self.send(w, sink)
    }

    fn sink<'a>(&mut self) -> Spliced<'a> {
        let mut head = std::mem::take(&mut self.head);
        head.clear();
        head.resize(PREFIX_ROOM, 0);
        Spliced {
            head,
            chunks: Vec::new(),
        }
    }

    fn send(&mut self, w: &mut impl Write, sink: Spliced<'_>) -> io::Result<()> {
        let Spliced { mut head, chunks } = sink;
        let len = head.len() - PREFIX_ROOM + chunks.iter().map(|(_, c)| c.len()).sum::<usize>();
        assert!(
            len <= MAX_FRAME_LEN,
            "frame payload {len} exceeds MAX_FRAME_LEN"
        );
        // Encode the prefix after the head, then move it into the room
        // left for it, so that prefix and head go out as one slice.
        let end = head.len();
        varint::encode(len as u64, &mut head);
        let start = PREFIX_ROOM - (head.len() - end);
        head.copy_within(end.., start);
        head.truncate(end);

        let mut slices = Vec::with_capacity(2 * chunks.len() + 1);
        let mut from = start;
        for &(at, payload) in &chunks {
            slices.push(IoSlice::new(&head[from..at]));
            slices.push(IoSlice::new(payload));
            from = at;
        }
        if from < head.len() {
            slices.push(IoSlice::new(&head[from..]));
        }
        let sent = write_all_vectored(w, &mut slices);
        drop(slices);
        self.head = head;
        sent
    }
}

/// `write_all` over a slice list: writes every byte of `slices`, looping
/// over short writes (a socket takes at most `IOV_MAX` slices per call)
/// and `Interrupted`.
fn write_all_vectored(w: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A [`FrameReader`]'s first buffer size and smallest growth step, so
/// that small frames arriving together are read together.
pub const READ_WINDOW: usize = 64 * 1024;

/// Reads frames from a byte stream into one buffer reused across frames.
///
/// Bytes land in that buffer straight from `read`, and each payload is
/// handed out where it landed. Between frames a read asks for all the
/// buffer's free room (at least [`READ_WINDOW`] bytes); inside a frame
/// it asks for no more than the frame's remaining bytes, so a frame
/// never straddles a compaction and the only bytes ever moved are an
/// incomplete length prefix.
///
/// A length prefix is checked against [`MAX_FRAME_LEN`] before any of
/// its payload is read, and the buffer grows only as bytes arrive: by at
/// most the bytes it holds, and at least one window. Its size stays
/// under twice the bytes received plus one window, whatever a prefix
/// announced.
///
/// Errors are fatal to the stream, since frame boundaries can no longer
/// be trusted: an invalid or oversized prefix is `InvalidData` carrying
/// the [`CodecError`], and an end of stream inside a frame is
/// `UnexpectedEof`. An `Interrupted` read is retried.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// `buf[pos..end]` is received and not yet handed out; `buf[end..]`
    /// is room the next read fills. Zeroed once when it grows.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; no buffer is allocated until the first read.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            pos: 0,
            end: 0,
        }
    }

    /// The buffer's size in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Reads the next frame and returns its payload, or `Ok(None)` when
    /// the stream ends cleanly between frames.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        }
        let (len, prefix) = loop {
            let mut rest = &self.buf[self.pos..self.end];
            match varint::decode(&mut rest) {
                Ok(len) => break (len, self.end - self.pos - rest.len()),
                // Fewer than MAX_VARINT_LEN bytes and no terminator yet:
                // the prefix may still complete.
                Err(CodecError::Truncated) => {}
                Err(e) => return Err(invalid(e)),
            }
            self.buf.copy_within(self.pos..self.end, 0);
            (self.pos, self.end) = (0, self.end - self.pos);
            if self.fill(usize::MAX)? == 0 {
                return match self.end {
                    0 => Ok(None),
                    _ => Err(io::ErrorKind::UnexpectedEof.into()),
                };
            }
        };
        if len > MAX_FRAME_LEN as u64 {
            return Err(invalid(CodecError::LengthOverflow));
        }
        let start = self.pos + prefix;
        let stop = start + len as usize;
        while self.end < stop {
            if self.fill(stop - self.end)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        self.pos = stop;
        Ok(Some(&self.buf[start..stop]))
    }

    /// One read of at most `limit` bytes into the buffer's room, growing
    /// it first if it is full. Returns the bytes read; 0 is end of stream.
    fn fill(&mut self, limit: usize) -> io::Result<usize> {
        if self.end == self.buf.len() {
            let grow = limit.min(self.end).max(READ_WINDOW);
            self.buf.reserve_exact(grow);
            self.buf.resize(self.end + grow, 0);
        }
        let stop = self.buf.len().min(self.end.saturating_add(limit));
        loop {
            match self.inner.read(&mut self.buf[self.end..stop]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn invalid(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestEnvelope {
        RequestEnvelope {
            id: 7,
            client: 99,
            seq: 3,
            request: StorageRequest::InsertBatch {
                bag: BagId(4),
                origin: 2,
                run: 11,
                chunks: ChunkRun::new(vec![
                    Chunk::from_vec(vec![1, 2, 3]),
                    Chunk::from_vec(Vec::new()),
                ]),
            },
        }
    }

    #[test]
    fn request_roundtrips() {
        let env = sample_request();
        let mut buf = Vec::new();
        encode_request(&env, &mut buf);
        let mut slice = buf.as_slice();
        let back = decode_request(&mut slice).unwrap();
        assert!(slice.is_empty(), "decode must consume the whole payload");
        assert_eq!(back, env);
    }

    #[test]
    fn reply_roundtrips_ok_and_err() {
        for result in [
            Ok(StorageResponse::Removed(NodeRemoveBatch {
                chunks: vec![Chunk::from_vec(vec![9])],
                tags: vec![TagSegment {
                    run: 5,
                    start: 0,
                    len: 1,
                }],
                exhausted: true,
                eof: false,
            })),
            Ok(StorageResponse::Chunks(vec![Chunk::from_vec(vec![4, 2])])),
            Err(StorageError::NodeDraining(StorageNodeId(3))),
            Err(StorageError::Codec(CodecError::RecordTooLarge {
                record: 10,
                chunk: 4,
            })),
            Err(StorageError::DiskFull(StorageNodeId(7))),
            Err(StorageError::DiskIo(StorageNodeId(1))),
        ] {
            let env = ReplyEnvelope { id: 42, result };
            let mut buf = Vec::new();
            encode_reply(&env, &mut buf);
            let mut slice = buf.as_slice();
            let back = decode_reply(&mut slice).unwrap();
            assert!(slice.is_empty());
            assert_eq!(back, env);
        }
    }

    #[test]
    fn retired_error_tag_8_is_a_typed_decode_error() {
        // id 42, `Err`, error tag 8.
        let mut buf = Vec::new();
        put_u64(42, &mut buf);
        put_bool(false, &mut buf);
        buf.push(8);
        assert_eq!(
            decode_reply(&mut buf.as_slice()),
            Err(CodecError::InvalidTag(8))
        );
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let mut buf = Vec::new();
        encode_request(&sample_request(), &mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                decode_request(&mut slice).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A deterministic junk stream; totality is the property.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let junk: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..64 {
            let mut slice = &junk[start..];
            let _ = decode_request(&mut slice);
            let mut slice = &junk[start..];
            let _ = decode_reply(&mut slice);
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        // InsertBatch claiming u64::MAX chunks in a 20-byte payload.
        let mut buf = Vec::new();
        put_u64(1, &mut buf); // id
        put_u64(1, &mut buf); // client
        put_u64(1, &mut buf); // seq
        buf.push(REQ_INSERT_BATCH);
        put_u64(4, &mut buf); // bag
        put_u32(0, &mut buf); // origin
        put_u64(9, &mut buf); // run
        put_u64(u64::MAX, &mut buf); // chunk count
        let mut slice = buf.as_slice();
        assert!(decode_request(&mut slice).is_err());
    }

    /// A `Read` over `bytes` handing out at most `step` bytes per call;
    /// its first call fails with `Interrupted` when `interrupt` is set.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn reader(bytes: &[u8], step: usize) -> FrameReader<Trickle<'_>> {
        FrameReader::new(Trickle {
            bytes,
            step,
            interrupt: false,
        })
    }

    /// Every frame until a clean end of stream.
    fn frames<R: Read>(r: &mut FrameReader<R>) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(payload) = r.next_frame()? {
            out.push(payload.to_vec());
        }
        Ok(out)
    }

    fn codec_error(err: &io::Error) -> Option<&CodecError> {
        err.get_ref()?.downcast_ref()
    }

    #[test]
    fn frames_reassemble_across_splits() {
        let mut payload_a = Vec::new();
        encode_request(&sample_request(), &mut payload_a);
        let payload_b = vec![0xAB; 300];
        let mut stream = Vec::new();
        frame(&payload_a, &mut stream);
        frame(&payload_b, &mut stream);
        // Byte-at-a-time and whole-stream delivery.
        for step in [1, stream.len()] {
            let got = frames(&mut reader(&stream, step)).unwrap();
            assert_eq!(got, vec![payload_a.clone(), payload_b.clone()]);
        }
    }

    #[test]
    fn oversized_frame_is_fatal() {
        let mut stream = Vec::new();
        varint::encode(MAX_FRAME_LEN as u64 + 1, &mut stream);
        stream.extend_from_slice(&[7; 100]);
        let mut r = reader(&stream, stream.len());
        let err = r.next_frame().unwrap_err();
        assert_eq!(codec_error(&err), Some(&CodecError::LengthOverflow));
        assert!(r.capacity() <= READ_WINDOW, "nothing sized by the prefix");
    }

    #[test]
    fn malformed_length_prefix_is_fatal() {
        let err = reader(&[0x80; 11], 11).next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(codec_error(&err), Some(&CodecError::InvalidVarint));
    }

    #[test]
    fn incomplete_frame_waits_for_more() {
        let mut stream = Vec::new();
        frame(&[1, 2, 3, 4], &mut stream);
        assert_eq!(
            frames(&mut reader(&stream, 3)).unwrap(),
            vec![vec![1, 2, 3, 4]]
        );
        // The stream ends instead: a partial frame is an error, not a
        // clean end.
        let err = frames(&mut reader(&stream[..3], 3)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_interrupted_read_still_delivers_the_frame() {
        let mut stream = Vec::new();
        frame(&[9; 40], &mut stream);
        let mut r = FrameReader::new(Trickle {
            bytes: &stream,
            step: 16,
            interrupt: true,
        });
        assert_eq!(frames(&mut r).unwrap(), vec![vec![9; 40]]);
    }

    /// A `Write` that takes at most `step` bytes and, as a socket does,
    /// at most 1,024 slices per call, and fails its first call with
    /// `Interrupted`.
    struct Choppy {
        out: Vec<u8>,
        step: usize,
        interrupt: bool,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut left = self.step;
            for b in bufs.iter().take(1024) {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.step - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frames_match_the_reference_bytes() {
        // Zero-length chunks, and a reply of more slices than one
        // vectored write takes.
        let many: Vec<Chunk> = (0..1500u32)
            .map(|i| Chunk::from_vec(vec![i as u8; (i % 3) as usize]))
            .collect();
        let reply = ReplyEnvelope {
            id: 5,
            result: Ok(StorageResponse::Chunks(many)),
        };
        let mut want = Vec::new();
        let (mut payload, mut framed) = (Vec::new(), Vec::new());
        encode_request(&sample_request(), &mut payload);
        frame(&payload, &mut want);
        payload.clear();
        encode_reply(&reply, &mut payload);
        frame(&payload, &mut framed);
        want.extend_from_slice(&framed);
        for step in [1, 7, 4096, usize::MAX] {
            let mut sink = Choppy {
                out: Vec::new(),
                step,
                interrupt: true,
            };
            let mut w = FrameWriter::new();
            w.write_request(&mut sink, &sample_request()).unwrap();
            w.write_reply(&mut sink, &reply).unwrap();
            assert_eq!(sink.out, want, "step {step}");
        }
    }
}
