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

fn put_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    varint::encode(bytes.len() as u64, out);
    out.extend_from_slice(bytes);
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
// Composite fields.
// ---------------------------------------------------------------------------

fn put_chunks(chunks: &[Chunk], out: &mut Vec<u8>) {
    put_u64(chunks.len() as u64, out);
    for c in chunks {
        put_bytes(c.bytes(), out);
    }
}

fn get_chunks(input: &mut &[u8]) -> Result<Vec<Chunk>, CodecError> {
    let count = get_count(input, 1)?;
    let mut chunks = Vec::with_capacity(count);
    for _ in 0..count {
        chunks.push(Chunk::from_vec(get_bytes(input)?.to_vec()));
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

fn put_remove_batch(b: &NodeRemoveBatch, out: &mut Vec<u8>) {
    put_chunks(&b.chunks, out);
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

// Tags 2, 4 and 5 were retired in wire version 3: never sent and never
// reused (WIRE.md); decoding one is an `InvalidTag` error like any
// unknown tag.
const REQ_INSERT_BATCH: u8 = 0;
const REQ_REMOVE_BATCH: u8 = 1;
const REQ_SAMPLE: u8 = 3;
const REQ_SNAPSHOT_FROM: u8 = 6;
const REQ_SEAL: u8 = 7;
const REQ_REWIND: u8 = 8;
const REQ_DISCARD: u8 = 9;
const REQ_COLLECT: u8 = 10;
const REQ_DRAIN: u8 = 11;
const REQ_IS_DRAINED: u8 = 12;
const REQ_PING: u8 = 13;
const REQ_CLAIM_CONSUMED: u8 = 14;

fn put_request_body(req: &StorageRequest, out: &mut Vec<u8>) {
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
            put_chunks(chunks, out);
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
        StorageRequest::Drain => out.push(REQ_DRAIN),
        StorageRequest::IsDrained => out.push(REQ_IS_DRAINED),
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
        REQ_DRAIN => StorageRequest::Drain,
        REQ_IS_DRAINED => StorageRequest::IsDrained,
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

// Tags 2 and 4 were retired in wire version 3, like the requests they
// answered.
const RESP_INSERTED: u8 = 0;
const RESP_REMOVED: u8 = 1;
const RESP_SAMPLED: u8 = 3;
const RESP_CHUNKS: u8 = 5;
const RESP_DONE: u8 = 6;
const RESP_DRAINED: u8 = 7;
const RESP_PONG: u8 = 8;
const RESP_CLAIMED: u8 = 9;

fn put_response(resp: &StorageResponse, out: &mut Vec<u8>) {
    match resp {
        StorageResponse::Inserted => out.push(RESP_INSERTED),
        StorageResponse::Removed(batch) => {
            out.push(RESP_REMOVED);
            put_remove_batch(batch, out);
        }
        StorageResponse::Sampled(sample) => {
            out.push(RESP_SAMPLED);
            put_sample(sample, out);
        }
        StorageResponse::Chunks(chunks) => {
            out.push(RESP_CHUNKS);
            put_chunks(chunks, out);
        }
        StorageResponse::Done => out.push(RESP_DONE),
        StorageResponse::Drained(flag) => {
            out.push(RESP_DRAINED);
            put_bool(*flag, out);
        }
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
        RESP_DRAINED => StorageResponse::Drained(get_bool(input)?),
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

/// Appends the wire encoding of a request envelope (payload only, no
/// frame header) to `out`.
pub fn encode_request(env: &RequestEnvelope, out: &mut Vec<u8>) {
    put_u64(env.id, out);
    put_u64(env.client, out);
    put_u64(env.seq, out);
    put_request_body(&env.request, out);
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

/// Appends the wire encoding of a reply envelope (payload only, no frame
/// header) to `out`.
pub fn encode_reply(env: &ReplyEnvelope, out: &mut Vec<u8>) {
    put_u64(env.id, out);
    match &env.result {
        Ok(resp) => {
            put_bool(true, out);
            put_response(resp, out);
        }
        Err(err) => {
            put_bool(false, out);
            put_error(err, out);
        }
    }
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

/// Incremental frame reassembly for a byte stream.
///
/// Feed arbitrary slices (however the socket delivered them) with
/// [`FrameBuffer::push`]; pull complete frame payloads with
/// [`FrameBuffer::next_frame`]. Frames split across pushes, or several
/// frames coalesced into one push, reassemble identically. A malformed
/// length prefix or one above [`MAX_FRAME_LEN`] is a fatal protocol
/// error — the connection carrying it must be dropped, since frame
/// boundaries can no longer be trusted.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so each byte is moved
    /// at most a constant number of times.
    start: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame payload, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes". An error means the stream is
    /// unrecoverable: an invalid or oversized length prefix.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        let avail = &self.buf[self.start..];
        let mut cursor = avail;
        let len = match varint::decode(&mut cursor) {
            Ok(len) => len,
            // Fewer than MAX_VARINT_LEN bytes buffered and no terminator
            // yet: the prefix may still complete. (A full-length prefix
            // with no terminator already decodes to InvalidVarint.)
            Err(CodecError::Truncated) => return Ok(None),
            Err(e) => return Err(e),
        };
        if len > MAX_FRAME_LEN as u64 {
            return Err(CodecError::LengthOverflow);
        }
        let len = len as usize;
        if cursor.len() < len {
            return Ok(None);
        }
        let header = avail.len() - cursor.len();
        let frame = avail[header..header + len].to_vec();
        self.start += header + len;
        // Compact once the dead prefix dominates the buffer.
        if self.start >= 64 * 1024 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
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

    #[test]
    fn frames_reassemble_across_splits() {
        let mut payload_a = Vec::new();
        encode_request(&sample_request(), &mut payload_a);
        let payload_b = vec![0xAB; 300];
        let mut stream = Vec::new();
        frame(&payload_a, &mut stream);
        frame(&payload_b, &mut stream);
        // Byte-at-a-time delivery.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &stream {
            fb.push(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![payload_a.clone(), payload_b.clone()]);
        assert_eq!(fb.pending(), 0);
        // Whole-stream delivery.
        let mut fb = FrameBuffer::new();
        fb.push(&stream);
        assert_eq!(fb.next_frame().unwrap().unwrap(), payload_a);
        assert_eq!(fb.next_frame().unwrap().unwrap(), payload_b);
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_fatal() {
        let mut fb = FrameBuffer::new();
        let mut header = Vec::new();
        varint::encode(MAX_FRAME_LEN as u64 + 1, &mut header);
        fb.push(&header);
        assert_eq!(fb.next_frame(), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn malformed_length_prefix_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.push(&[0x80; 11]);
        assert_eq!(fb.next_frame(), Err(CodecError::InvalidVarint));
    }

    #[test]
    fn incomplete_frame_waits_for_more() {
        let mut fb = FrameBuffer::new();
        let mut stream = Vec::new();
        frame(&[1, 2, 3, 4], &mut stream);
        fb.push(&stream[..3]);
        assert_eq!(fb.next_frame().unwrap(), None);
        fb.push(&stream[3..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), vec![1, 2, 3, 4]);
    }
}
