//! Durable segment logs: the on-disk form of a bag (`SEGMENT.md`).
//!
//! Each bag a [`crate::StorageNode`] holds is backed by one append-only
//! *segment log*, `bag-<id>.log`, created by the first frame journaled
//! for the bag: the chunks, consumed-pointer advances and rewinds of
//! every `(bag, origin)` stream plus the bag's seal / collect events, in
//! the order they were acknowledged. Every record is a length-prefixed
//! frame reusing the wire codec's varints (`WIRE.md`) with a CRC32
//! trailer, so a restart can rebuild bags, running counters, and
//! consumed-pointer state by scanning the log — and a torn tail (the
//! process died mid-append) is detected and truncated rather than
//! misparsed.
//!
//! Frame layout (all integers little-endian; varints are LEB128):
//!
//! ```text
//! frame   := varint(len(body)) body crc32(body)   -- crc is 4 bytes LE
//! body    := DATA | CONSUME | REWIND | SEAL | COLLECT
//! DATA    := 0x01 varint(origin) varint(run) varint(k) payload
//! CONSUME := 0x02 varint(origin) varint(n)
//!            { varint(run) varint(start) varint(len) }*n
//! REWIND  := 0x03 varint(origin)
//! SEAL    := 0x04
//! COLLECT := 0x05
//! ```
//!
//! A discard has no record: it truncates the log to zero, and an empty
//! log *is* an unsealed, uncollected, empty bag.
//!
//! `DATA` frames double as the spill index: a node over its resident
//! budget drops the in-memory copy and keeps only `(offset, frame_len)`,
//! re-reading the frame on demand — the frame locations recorded at
//! append time give fixed-stride-free random access without a separate
//! index file.
//!
//! The medium is abstracted by [`SegmentStore`]: a directory on disk
//! (`hurricane-node --data-dir`) or a process-shared in-memory map
//! ([`SegmentStore::mem`]) that the fault simulator uses as a *virtual
//! disk* — crash/restart scenarios then exercise the real recovery scan
//! with zero real I/O.
//!
//! Appends go through the OS page cache (which survives SIGKILL; fsync
//! happens on graceful shutdown via [`crate::StorageNode::sync_all`]).
//! An append or spilled-read I/O error is *not* fatal: it surfaces as a
//! typed [`crate::StorageError`] (`DiskFull` for `ENOSPC`, `DiskIo`
//! otherwise) and the failed operation is refused — journal-before-
//! mutate ordering means refused operations leave no unjournaled state
//! behind, and replicated callers route around the sick node. A bag
//! whose append failed is *poisoned* against further appends so a later
//! success cannot bury torn bytes inside the log (see `SEGMENT.md`,
//! "Error handling").
//!
//! The checksum is computed by a carry-less-multiply kernel where the
//! CPU has one ([`crc32`]); the byte-table loop ([`crc32_table`]) is the
//! fallback for short inputs, tails and other targets, and the
//! reference the tests hold the kernel to.

use crate::node::TagSegment;
use hurricane_common::BagId;
use hurricane_format::{varint, Chunk};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

/// Record tag: one chunk of an origin stream with its `(run, k)`
/// identity.
pub const REC_DATA: u8 = 0x01;
/// Record tag: consumed-pointer advance of an origin stream (a local
/// serve or a mirror).
pub const REC_CONSUME: u8 = 0x02;
/// Record tag: read pointer reset of an origin stream.
pub const REC_REWIND: u8 = 0x03;
/// Record tag: the bag was sealed.
pub const REC_SEAL: u8 = 0x04;
/// Record tag: the bag was garbage-collected (the log was truncated to
/// zero first, so this is the only record of a collected bag).
pub const REC_COLLECT: u8 = 0x05;

/// Upper bound on one frame's body, mirroring the wire codec's
/// [`crate::wire::MAX_FRAME_LEN`]: a scanned length prefix above this is
/// treated as a torn tail, not an allocation request.
pub const MAX_BODY_LEN: usize = 80 * 1024 * 1024;

// -- CRC32 (IEEE 802.3, the zlib polynomial) ------------------------------

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// One byte-table step per input byte over the raw (inverted) CRC
/// register.
fn table_fold(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC32 (IEEE) of `bytes` by the byte-table loop alone: what
/// [`crc32`] computes for inputs under 64 bytes, for the sub-16-byte
/// tail and on targets without a carry-less multiply, and the reference
/// the tests check the kernel against.
pub fn crc32_table(bytes: &[u8]) -> u32 {
    !table_fold(!0, bytes)
}

/// CRC32 (IEEE) of `bytes` — the per-frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC32 of some prefix, over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, so a frame's checksum
/// can be taken over its header and its payload where each lies.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut state = !crc;
    let mut rest = bytes;
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (lanes, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: PCLMULQDQ was just detected (SSE2 is the x86_64
        // baseline).
        state = unsafe { clmul::fold(state, lanes) };
        rest = tail;
    }
    !table_fold(state, rest)
}

/// The PCLMULQDQ kernel (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", with the constants zlib and
/// Chromium use for the reflected polynomial `0xEDB88320`): four 128-bit
/// lanes folded 64 bytes per iteration, folded to one lane, then
/// Barrett-reduced to the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^(4*128+32) mod P`, `x^(4*128-32) mod P`: fold across 64 bytes.
    const K1K2: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
    /// `x^(128+32) mod P`, `x^(128-32) mod P`: fold across 16 bytes.
    const K3K4: (i64, i64) = (0x01_7519_97d0, 0x00_ccaa_009e);
    /// `x^64 mod P`: 96 bits to 64.
    const K5: i64 = 0x01_63cd_6124;
    /// `P` and `floor(x^64 / P)`, bit-reflected: the Barrett pair.
    const POLY_MU: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);

    /// Folds `lanes` into the raw CRC register `state`. Safe to call
    /// wherever PCLMULQDQ is enabled; anywhere else the call is `unsafe`
    /// and the caller must have detected the feature.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` holds at least 64 bytes and a whole number
    /// of 16-byte lanes.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, lanes: &[u8]) -> u32 {
        assert!(lanes.len() >= 64 && lanes.len().is_multiple_of(16));
        let load = |lane: &[u8]| {
            assert_eq!(lane.len(), 16);
            // SAFETY: `lane` is 16 readable bytes, and `_mm_loadu_si128`
            // has no alignment requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
        };
        // `x` advanced across the distance `k` folds over, plus `next`.
        let step = |x: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(x, k);
            let hi = _mm_clmulepi64_si128::<0x11>(x, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        };

        let (first, rest) = lanes.split_at(64);
        let mut x = [_mm_setzero_si128(); 4];
        for (x, lane) in x.iter_mut().zip(first.chunks_exact(16)) {
            *x = load(lane);
        }
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (x, lane) in x.iter_mut().zip(block.chunks_exact(16)) {
                *x = step(*x, k1k2, load(lane));
            }
        }

        let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut x1 = x[0];
        for &next in &x[1..] {
            x1 = step(x1, k3k4, next);
        }
        for lane in blocks.remainder().chunks_exact(16) {
            x1 = step(x1, k3k4, load(lane));
        }

        // 128 bits to 64, then to the 32-bit register.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5));
        x1 = _mm_xor_si128(x1, x2);

        let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly_mu);
        let x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), poly_mu);
        x1 = _mm_xor_si128(x1, x2);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(x1)) as u32
    }
}

// -- frame codec ----------------------------------------------------------

/// Encoded length of the frame whose body is `body_len` bytes.
fn frame_len(body_len: usize) -> usize {
    varint::encoded_len(body_len as u64) + body_len + 4
}

/// One framed record (`varint(len) ++ body ++ crc32(body)`) built from a
/// small body; `DATA` frames are written in place instead
/// ([`data_run`]).
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(body.len()));
    varint::encode(body.len() as u64, &mut out);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Length of the `DATA` body bytes that precede the payload.
fn data_head_len(origin: u32, run: u64, k: u32) -> usize {
    1 + varint::encoded_len(u64::from(origin))
        + varint::encoded_len(run)
        + varint::encoded_len(u64::from(k))
}

/// Writes one `DATA` frame into `out` in place — prefix, tag, identity,
/// payload, CRC — copying the payload exactly once. The checksum runs
/// over the header where it was just written and over the payload in
/// the chunk it came from.
fn push_data_frame(origin: u32, run: u64, k: u32, payload: &[u8], out: &mut Vec<u8>) {
    let body_len = data_head_len(origin, run, k) + payload.len();
    varint::encode(body_len as u64, out);
    let body_at = out.len();
    out.push(REC_DATA);
    varint::encode(u64::from(origin), out);
    varint::encode(run, out);
    varint::encode(u64::from(k), out);
    let crc = crc32_update(crc32(&out[body_at..]), payload);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One encoded `DATA` frame: chunk `payload` of stream `origin`, tagged
/// `(run, k)`.
pub fn data_frame(origin: u32, run: u64, k: u32, payload: &[u8]) -> Vec<u8> {
    let len = frame_len(data_head_len(origin, run, k) + payload.len());
    let mut out = Vec::with_capacity(len);
    push_data_frame(origin, run, k, payload, &mut out);
    out
}

/// A whole insert run — chunk `k` of `chunks` tagged `(run, k)` — as
/// consecutive `DATA` frames in one exactly-sized buffer, so the run is
/// journaled by a single append. Also returns each frame's encoded
/// length, in order (the spill index entries, relative to wherever the
/// append lands).
pub fn data_run(origin: u32, run: u64, chunks: &[Chunk]) -> (Vec<u8>, Vec<u32>) {
    let lens: Vec<u32> = chunks
        .iter()
        .enumerate()
        .map(|(k, c)| frame_len(data_head_len(origin, run, k as u32) + c.len()) as u32)
        .collect();
    let mut out = Vec::with_capacity(lens.iter().map(|&l| l as usize).sum());
    for (k, chunk) in chunks.iter().enumerate() {
        push_data_frame(origin, run, k as u32, chunk.bytes(), &mut out);
    }
    (out, lens)
}

/// One encoded `CONSUME` frame naming the chunk identities of stream
/// `origin` that were consumed.
pub fn consume_frame(origin: u32, tags: &[TagSegment]) -> Vec<u8> {
    let mut body = Vec::with_capacity((2 + tags.len() * 3) * varint::MAX_VARINT_LEN);
    body.push(REC_CONSUME);
    varint::encode(u64::from(origin), &mut body);
    varint::encode(tags.len() as u64, &mut body);
    for t in tags {
        varint::encode(t.run, &mut body);
        varint::encode(u64::from(t.start), &mut body);
        varint::encode(u64::from(t.len), &mut body);
    }
    framed(&body)
}

/// One encoded `REWIND` frame for stream `origin`.
pub fn rewind_frame(origin: u32) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + varint::MAX_VARINT_LEN);
    body.push(REC_REWIND);
    varint::encode(u64::from(origin), &mut body);
    framed(&body)
}

/// One encoded `SEAL` frame.
pub fn seal_frame() -> Vec<u8> {
    framed(&[REC_SEAL])
}

/// One encoded `COLLECT` frame.
pub fn collect_frame() -> Vec<u8> {
    framed(&[REC_COLLECT])
}

/// A decoded segment-log record, payload left in place (the scan hands
/// back lengths, not copies — recovered chunks start spilled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// One chunk: its stream, identity tag and payload length (the
    /// payload itself stays in the log until read on demand).
    Data {
        /// Origin stream the chunk belongs to.
        origin: u32,
        /// Insert-run id.
        run: u64,
        /// Position within the run.
        k: u32,
        /// Chunk payload length in bytes — the body's last bytes.
        payload_len: u32,
    },
    /// Consumed-pointer advance: the identities a serve consumed.
    Consume {
        /// Origin stream the identities belong to.
        origin: u32,
        /// The consumed identities.
        tags: Vec<TagSegment>,
    },
    /// Read-pointer reset of one origin stream.
    Rewind {
        /// The stream rewound.
        origin: u32,
    },
    /// The bag was sealed.
    Seal,
    /// The bag was garbage-collected.
    Collect,
}

/// One frame recovered by [`scan`]: its location (the spill index) plus
/// the decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedFrame {
    /// Byte offset of the frame's start (the length prefix) in the log.
    pub offset: u64,
    /// Total encoded frame length (prefix + body + CRC).
    pub frame_len: u32,
    /// The decoded record.
    pub record: Record,
}

fn decode_u32(input: &mut &[u8]) -> Option<u32> {
    u32::try_from(varint::decode(input).ok()?).ok()
}

fn decode_record(body: &[u8]) -> Option<Record> {
    let (&tag, mut rest) = body.split_first()?;
    match tag {
        REC_DATA => Some(Record::Data {
            origin: decode_u32(&mut rest)?,
            run: varint::decode(&mut rest).ok()?,
            k: decode_u32(&mut rest)?,
            payload_len: u32::try_from(rest.len()).ok()?,
        }),
        REC_CONSUME => {
            let origin = decode_u32(&mut rest)?;
            let n = varint::decode(&mut rest).ok()?;
            // Hostile-length guard, as in the wire codec: each tag costs
            // at least 3 bytes, so a huge count in a short body is torn.
            if n > (rest.len() / 3) as u64 {
                return None;
            }
            let mut tags = Vec::with_capacity(n as usize);
            for _ in 0..n {
                tags.push(TagSegment {
                    run: varint::decode(&mut rest).ok()?,
                    start: decode_u32(&mut rest)?,
                    len: decode_u32(&mut rest)?,
                });
            }
            rest.is_empty().then_some(Record::Consume { origin, tags })
        }
        REC_REWIND => {
            let origin = decode_u32(&mut rest)?;
            rest.is_empty().then_some(Record::Rewind { origin })
        }
        REC_SEAL => rest.is_empty().then_some(Record::Seal),
        REC_COLLECT => rest.is_empty().then_some(Record::Collect),
        _ => None,
    }
}

/// Walks one frame at `offset`: returns the body's byte range and the
/// total frame length when the frame is intact (CRC included), `None`
/// when the bytes there are a torn tail.
fn frame_at(data: &[u8], offset: usize) -> Option<(std::ops::Range<usize>, usize)> {
    let mut input = &data[offset..];
    let before = input.len();
    let body_len = usize::try_from(varint::decode(&mut input).ok()?).ok()?;
    if body_len > MAX_BODY_LEN || input.len() < body_len + 4 {
        return None;
    }
    let prefix_len = before - input.len();
    let body_start = offset + prefix_len;
    let body = &data[body_start..body_start + body_len];
    let crc_bytes = &data[body_start + body_len..body_start + body_len + 4];
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    (crc == crc32(body)).then_some((body_start..body_start + body_len, prefix_len + body_len + 4))
}

/// Decodes one `DATA` frame read back from a log (a spilled-chunk read):
/// verifies the CRC and returns `(origin, run, k, payload)`. `None` means
/// the bytes do not hold an intact `DATA` frame.
pub fn decode_data_frame(frame: &[u8]) -> Option<(u32, u64, u32, &[u8])> {
    let (body, _) = frame_at(frame, 0)?;
    let body = &frame[body];
    match decode_record(body)? {
        Record::Data {
            origin,
            run,
            k,
            payload_len,
        } => Some((origin, run, k, &body[body.len() - payload_len as usize..])),
        _ => None,
    }
}

/// Scans a segment log from the start, returning every intact frame and
/// the byte length of the valid prefix. The first ill-formed frame — a
/// truncated or absurd length prefix, a short body, a CRC mismatch, or
/// an unknown record — ends the scan: everything from that offset on is
/// a torn tail the opener must truncate away.
pub fn scan(data: &[u8]) -> (Vec<ScannedFrame>, u64) {
    let mut frames = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        let Some((body, frame_len)) = frame_at(data, offset) else {
            break;
        };
        let Some(record) = decode_record(&data[body]) else {
            break;
        };
        frames.push(ScannedFrame {
            offset: offset as u64,
            frame_len: frame_len as u32,
            record,
        });
        offset += frame_len;
    }
    (frames, offset as u64)
}

// -- log naming -----------------------------------------------------------

/// Store-relative name of `bag`'s segment log.
pub fn log_name(bag: BagId) -> String {
    format!("bag-{}.log", bag.0)
}

/// Parses a name reported by [`SegmentStore::list_logs`]: `Ok(Some)` for
/// a name produced by [`log_name`], `Ok(None)` for anything unrelated
/// (editor droppings, future formats — the recovery scan skips those).
///
/// A `bag-<id>/` directory is the layout this format replaced (one
/// `seg-<origin>.log` per stream plus a `meta.log`, with different
/// record bodies). It is refused with [`io::ErrorKind::InvalidData`]:
/// skipping it would silently recover an upgraded node to empty.
pub fn parse_log_name(name: &str) -> io::Result<Option<BagId>> {
    let Some(rest) = name.strip_prefix("bag-") else {
        return Ok(None);
    };
    if let Some((id, _)) = rest.split_once('/') {
        if id.parse::<u64>().is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "`{name}` belongs to the per-stream segment layout \
                     (bag-<id>/seg-<origin>.log + meta.log), which this version cannot \
                     read; it journals one bag-<id>.log per bag"
                ),
            ));
        }
    }
    Ok(rest
        .strip_suffix(".log")
        .and_then(|id| id.parse().ok())
        .map(BagId))
}

// -- the store ------------------------------------------------------------

/// The shared in-memory medium behind [`SegmentStore::mem`]: a map of
/// store-relative names to byte buffers. The fault simulator holds one
/// per cluster as its virtual disk — node memory is wiped on a crash
/// while the `MemDisk` (held by the simulation, i.e. "the platter")
/// survives for the restart's recovery scan.
#[derive(Default)]
pub struct MemDisk {
    files: Mutex<HashMap<String, Arc<Mutex<Vec<u8>>>>>,
}

/// A pluggable store medium, for wrapping a real store with
/// instrumentation — the fault simulator's `FaultyStore` injects disk
/// faults this way ([`SegmentStore::custom`]). Implementations mirror
/// the corresponding [`SegmentStore`] methods.
pub trait StoreBackend: Send + Sync {
    /// As [`SegmentStore::open_log`].
    fn open_log(&self, name: &str) -> io::Result<SegmentLog>;
    /// As [`SegmentStore::list_logs`].
    fn list_logs(&self) -> io::Result<Vec<String>>;
    /// As [`SegmentStore::subdir`].
    fn subdir(&self, name: &str) -> io::Result<SegmentStore>;
}

/// A pluggable log behind a [`SegmentLog`] handle
/// ([`SegmentLog::custom`]). Implementations mirror the corresponding
/// [`SegmentLog`] methods.
#[allow(clippy::len_without_is_empty)] // mirrors SegmentLog::len, a byte offset
pub trait LogBackend: Send + Sync {
    /// As [`SegmentLog::append`].
    fn append(&self, frame: &[u8]) -> io::Result<u64>;
    /// As [`SegmentLog::read`].
    fn read(&self, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// As [`SegmentLog::len`].
    fn len(&self) -> u64;
    /// As [`SegmentLog::read_all`].
    fn read_all(&self) -> io::Result<Vec<u8>>;
    /// As [`SegmentLog::truncate`].
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// As [`SegmentLog::sync`].
    fn sync(&self) -> io::Result<()>;
}

#[derive(Clone)]
enum Medium {
    Disk(PathBuf),
    Mem(Arc<MemDisk>, String),
    Custom(Arc<dyn StoreBackend>),
}

/// A durable medium for segment logs: a directory on disk, or a shared
/// in-memory map (the fault simulator's virtual disk). Cloning shares
/// the medium.
#[derive(Clone)]
pub struct SegmentStore {
    medium: Medium,
}

impl SegmentStore {
    /// A store rooted at directory `root`, created if missing.
    pub fn disk(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            medium: Medium::Disk(root),
        })
    }

    /// A fresh in-memory store (see [`MemDisk`]).
    pub fn mem() -> Self {
        Self {
            medium: Medium::Mem(Arc::new(MemDisk::default()), String::new()),
        }
    }

    /// A store driven by a custom [`StoreBackend`] — the fault
    /// simulator's injection hook.
    pub fn custom(backend: Arc<dyn StoreBackend>) -> Self {
        Self {
            medium: Medium::Custom(backend),
        }
    }

    /// A namespaced view inside this store (e.g. `node-3`): same medium,
    /// names prefixed. Disk stores create the subdirectory.
    pub fn subdir(&self, name: &str) -> io::Result<Self> {
        let medium = match &self.medium {
            Medium::Disk(root) => {
                let dir = root.join(name);
                fs::create_dir_all(&dir)?;
                Medium::Disk(dir)
            }
            Medium::Mem(disk, prefix) => Medium::Mem(disk.clone(), format!("{prefix}{name}/")),
            Medium::Custom(backend) => return backend.subdir(name),
        };
        Ok(Self { medium })
    }

    /// Opens (creating if absent) the log at store-relative `name`.
    /// Appends resume at the current end; torn-tail truncation is the
    /// recovery scan's job ([`crate::StorageNode::restart_recover`]),
    /// not the opener's.
    pub fn open_log(&self, name: &str) -> io::Result<SegmentLog> {
        match &self.medium {
            Medium::Disk(root) => {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(root.join(name))?;
                let len = file.metadata()?.len();
                Ok(SegmentLog {
                    inner: Arc::new(LogInner::Disk {
                        file,
                        append: Mutex::new(len),
                    }),
                })
            }
            Medium::Mem(disk, prefix) => {
                let key = format!("{prefix}{name}");
                let data = disk.files.lock().entry(key).or_default().clone();
                Ok(SegmentLog {
                    inner: Arc::new(LogInner::Mem { data }),
                })
            }
            Medium::Custom(backend) => backend.open_log(name),
        }
    }

    /// Store-relative names of everything directly under this store, for
    /// the recovery scan: each log by its name, each directory by its
    /// name plus a trailing `/` (so [`parse_log_name`] can tell a
    /// foreign layout from a log). Order is unspecified.
    pub fn list_logs(&self) -> io::Result<Vec<String>> {
        match &self.medium {
            Medium::Disk(root) => {
                let mut out = Vec::new();
                for entry in fs::read_dir(root)? {
                    let entry = entry?;
                    let mut name = entry.file_name().to_string_lossy().into_owned();
                    if entry.file_type()?.is_dir() {
                        name.push('/');
                    }
                    out.push(name);
                }
                Ok(out)
            }
            Medium::Mem(disk, prefix) => Ok(disk
                .files
                .lock()
                .keys()
                .filter_map(|k| k.strip_prefix(prefix.as_str()))
                .map(str::to_owned)
                .collect()),
            Medium::Custom(backend) => backend.list_logs(),
        }
    }
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.medium {
            Medium::Disk(root) => f.debug_tuple("SegmentStore::Disk").field(root).finish(),
            Medium::Mem(_, prefix) => f.debug_tuple("SegmentStore::Mem").field(prefix).finish(),
            Medium::Custom(_) => f.debug_tuple("SegmentStore::Custom").finish(),
        }
    }
}

enum LogInner {
    Disk {
        file: File,
        /// Append cursor; holding it serializes appends while positioned
        /// reads (`FileExt::read_at`) proceed lock-free.
        append: Mutex<u64>,
    },
    Mem {
        data: Arc<Mutex<Vec<u8>>>,
    },
    Custom(Arc<dyn LogBackend>),
}

/// One append-only log inside a [`SegmentStore`]. Cloning shares the
/// underlying file. Appends are serialized; positioned reads are
/// concurrent with appends (frames are immutable once written).
#[derive(Clone)]
pub struct SegmentLog {
    inner: Arc<LogInner>,
}

impl SegmentLog {
    /// A log driven by a custom [`LogBackend`] — the fault simulator's
    /// injection hook.
    pub fn custom(backend: Arc<dyn LogBackend>) -> Self {
        Self {
            inner: Arc::new(LogInner::Custom(backend)),
        }
    }

    /// Appends an encoded frame, returning the offset it starts at.
    ///
    /// On failure the log is restored to its pre-append length
    /// (best-effort): a short write must not leave torn bytes *inside*
    /// the log where a later successful append would bury them beyond
    /// the recovery scan's torn-tail cut.
    pub fn append(&self, frame: &[u8]) -> io::Result<u64> {
        match &*self.inner {
            LogInner::Disk { file, append } => {
                let mut end = append.lock();
                let offset = *end;
                if let Err(e) = file.write_all_at(frame, offset) {
                    let _ = file.set_len(offset);
                    return Err(e);
                }
                *end = offset + frame.len() as u64;
                Ok(offset)
            }
            LogInner::Mem { data } => {
                let mut data = data.lock();
                let offset = data.len() as u64;
                data.extend_from_slice(frame);
                Ok(offset)
            }
            LogInner::Custom(b) => b.append(frame),
        }
    }

    /// Reads exactly `len` bytes starting at `offset` (a spilled-frame
    /// read against the locations [`scan`] / [`Self::append`] reported).
    pub fn read(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        match &*self.inner {
            LogInner::Disk { file, .. } => file.read_exact_at(&mut buf, offset)?,
            LogInner::Mem { data } => {
                let data = data.lock();
                let start = usize::try_from(offset)
                    .ok()
                    .filter(|&s| s + len <= data.len())
                    .ok_or(io::ErrorKind::UnexpectedEof)?;
                buf.copy_from_slice(&data[start..start + len]);
            }
            LogInner::Custom(b) => return b.read(offset, len),
        }
        Ok(buf)
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        match &*self.inner {
            LogInner::Disk { append, .. } => *append.lock(),
            LogInner::Mem { data } => data.lock().len() as u64,
            LogInner::Custom(b) => b.len(),
        }
    }

    /// Whether the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full log contents (the recovery scan's input).
    pub fn read_all(&self) -> io::Result<Vec<u8>> {
        match &*self.inner {
            LogInner::Disk { file, append } => {
                let len = *append.lock();
                let mut buf = vec![0u8; usize::try_from(len).expect("log fits in memory")];
                file.read_exact_at(&mut buf, 0)?;
                Ok(buf)
            }
            LogInner::Mem { data } => Ok(data.lock().clone()),
            LogInner::Custom(b) => b.read_all(),
        }
    }

    /// Truncates the log to `len` bytes (torn-tail removal on recovery;
    /// `0` on discard/collect).
    pub fn truncate(&self, len: u64) -> io::Result<()> {
        match &*self.inner {
            LogInner::Disk { file, append } => {
                let mut end = append.lock();
                file.set_len(len)?;
                *end = len;
                Ok(())
            }
            LogInner::Mem { data } => {
                let mut data = data.lock();
                let len = usize::try_from(len).unwrap_or(data.len());
                data.truncate(len);
                Ok(())
            }
            LogInner::Custom(b) => b.truncate(len),
        }
    }

    /// Flushes the log to stable storage (fsync; no-op for memory).
    pub fn sync(&self) -> io::Result<()> {
        match &*self.inner {
            LogInner::Disk { file, .. } => file.sync_all(),
            LogInner::Mem { .. } => Ok(()),
            LogInner::Custom(b) => b.sync(),
        }
    }
}

impl std::fmt::Debug for SegmentLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLog")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A buffer with no period the kernel's 16- or 64-byte strides could
    /// hide behind.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// The dispatching `crc32` equals the byte-table loop on every
    /// length 0..=1100 at every start offset 0..16 of one buffer: every
    /// alignment, and every position of the 64-byte block, 16-byte lane
    /// and byte-tail boundaries.
    #[test]
    fn crc32_kernel_matches_table_at_every_length_and_alignment() {
        let buf = noise(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_table(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_kernel_matches_table_around_a_chunk_and_on_constant_input() {
        const CHUNK: usize = 64 * 1024;
        let buf = noise(CHUNK + 15);
        for len in CHUNK - 15..=CHUNK + 15 {
            assert_eq!(crc32(&buf[..len]), crc32_table(&buf[..len]), "len {len}");
        }
        for fill in [0x00u8, 0xFF] {
            let buf = vec![fill; CHUNK + 15];
            for len in [0, 1, 15, 16, 63, 64, 65, 127, 128, 1024, CHUNK, CHUNK + 15] {
                assert_eq!(
                    crc32(&buf[..len]),
                    crc32_table(&buf[..len]),
                    "fill {fill:#x}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_update_splits_anywhere() {
        let buf = noise(300);
        let whole = crc32_table(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "cut at {cut}");
        }
    }

    #[test]
    fn data_frame_round_trips() {
        let frame = data_frame(2, 7, 3, b"payload");
        let (origin, run, k, payload) = decode_data_frame(&frame).expect("intact frame");
        assert_eq!((origin, run, k, payload), (2, 7, 3, &b"payload"[..]));
        let (frames, valid) = scan(&frame);
        assert_eq!(valid, frame.len() as u64);
        assert_eq!(
            frames[0].record,
            Record::Data {
                origin: 2,
                run: 7,
                k: 3,
                payload_len: 7
            }
        );
    }

    /// The batched encoder is the single-frame encoder run back to back,
    /// in a buffer sized exactly, with the frame lengths it reports.
    #[test]
    fn data_run_is_consecutive_data_frames_exactly_sized() {
        let chunks: Vec<Chunk> = [&b""[..], b"a", &noise(200), &noise(70_000)]
            .iter()
            .map(|b| Chunk::from_vec(b.to_vec()))
            .collect();
        let (buf, lens) = data_run(5, 1 << 40, &chunks);
        assert_eq!(buf.len(), buf.capacity(), "run buffer over-allocated");
        let mut expect = Vec::new();
        for (k, c) in chunks.iter().enumerate() {
            let frame = data_frame(5, 1 << 40, k as u32, c.bytes());
            assert_eq!(lens[k] as usize, frame.len());
            expect.extend_from_slice(&frame);
        }
        assert_eq!(buf, expect);
        let (frames, valid) = scan(&buf);
        assert_eq!((frames.len(), valid), (chunks.len(), buf.len() as u64));
    }

    #[test]
    fn scan_recovers_sequence_and_locations() {
        let tags = vec![TagSegment {
            run: 1,
            start: 0,
            len: 1,
        }];
        let mut log = Vec::new();
        log.extend_from_slice(&data_frame(0, 1, 0, b"aa"));
        let second_at = log.len() as u64;
        log.extend_from_slice(&consume_frame(0, &tags));
        log.extend_from_slice(&rewind_frame(3));
        log.extend_from_slice(&seal_frame());
        log.extend_from_slice(&collect_frame());
        let (frames, valid) = scan(&log);
        assert_eq!(valid, log.len() as u64);
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[1].offset, second_at);
        assert_eq!(frames[1].record, Record::Consume { origin: 0, tags });
        assert_eq!(frames[2].record, Record::Rewind { origin: 3 });
        assert_eq!(frames[3].record, Record::Seal);
        assert_eq!(frames[4].record, Record::Collect);
        // The recorded location re-reads the first chunk.
        let first = &log[..frames[0].frame_len as usize];
        assert_eq!(decode_data_frame(first).unwrap().3, b"aa");
    }

    #[test]
    fn torn_tail_is_cut_at_frame_boundary() {
        let mut log = Vec::new();
        log.extend_from_slice(&data_frame(0, 1, 0, b"intact"));
        log.extend_from_slice(&seal_frame());
        let boundary = log.len() as u64;
        log.extend_from_slice(&data_frame(0, 1, 1, b"torn"));
        log.truncate(log.len() - 3); // lose part of the CRC
        let (frames, valid) = scan(&log);
        assert_eq!(frames.len(), 2);
        assert_eq!(valid, boundary);
    }

    #[test]
    fn corrupt_byte_fails_crc() {
        let mut frame = data_frame(0, 9, 0, b"bits");
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        assert!(decode_data_frame(&frame).is_none());
        assert_eq!(scan(&frame).0.len(), 0);
    }

    #[test]
    fn lifecycle_records_round_trip_with_torn_tail() {
        let mut log = Vec::new();
        log.extend_from_slice(&seal_frame());
        log.extend_from_slice(&collect_frame());
        let full = log.len() as u64;
        log.push(0x06); // torn: a length prefix with no body
        let (frames, valid) = scan(&log);
        let records: Vec<Record> = frames.into_iter().map(|f| f.record).collect();
        assert_eq!(records, vec![Record::Seal, Record::Collect]);
        assert_eq!(valid, full);
        // A spilled-chunk read that lands on a lifecycle frame is refused.
        assert!(decode_data_frame(&seal_frame()).is_none());
        assert!(decode_data_frame(&rewind_frame(0)).is_none());
    }

    #[test]
    fn log_names_round_trip() {
        let bag = BagId(12);
        assert_eq!(parse_log_name(&log_name(bag)).unwrap(), Some(bag));
        assert_eq!(parse_log_name("bag-1.log.tmp").unwrap(), None);
        assert_eq!(parse_log_name("bag-x.log").unwrap(), None);
        assert_eq!(parse_log_name("lost+found/").unwrap(), None);
        assert_eq!(parse_log_name("node-3/").unwrap(), None);
        for old in ["bag-12/", "bag-12/seg-3.log", "bag-12/meta.log"] {
            let err = parse_log_name(old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{old}");
            assert!(err.to_string().contains("seg-<origin>.log"), "{err}");
        }
    }

    #[test]
    fn mem_store_appends_survive_handle_drop() {
        let store = SegmentStore::mem();
        let node = store.subdir("node-0").unwrap();
        {
            let log = node.open_log("bag-0.log").unwrap();
            log.append(&data_frame(0, 1, 0, b"x")).unwrap();
        }
        // A fresh handle (the restart) sees the bytes.
        let log = node.open_log("bag-0.log").unwrap();
        let (frames, _) = scan(&log.read_all().unwrap());
        assert_eq!(frames.len(), 1);
        assert_eq!(node.list_logs().unwrap(), vec!["bag-0.log"]);
    }

    #[test]
    fn disk_store_round_trips() {
        let root =
            std::env::temp_dir().join(format!("hurricane-segment-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = SegmentStore::disk(&root).unwrap();
        let log = store.open_log("bag-4.log").unwrap();
        let at = log.append(&data_frame(1, 2, 0, b"disk")).unwrap();
        assert_eq!(at, 0);
        let frame = log.read(0, log.len() as usize).unwrap();
        assert_eq!(decode_data_frame(&frame).unwrap().3, b"disk");
        // Directories are listed with a trailing slash.
        store.subdir("node-9").unwrap();
        let mut listed = store.list_logs().unwrap();
        listed.sort();
        assert_eq!(listed, vec!["bag-4.log", "node-9/"]);
        // Reopen resumes at the end.
        let again = store.open_log("bag-4.log").unwrap();
        let at2 = again.append(&data_frame(1, 2, 1, b"more")).unwrap();
        assert_eq!(at2, frame.len() as u64);
        let (frames, valid) = scan(&again.read_all().unwrap());
        assert_eq!(frames.len(), 2);
        assert_eq!(valid, again.len());
        fs::remove_dir_all(&root).unwrap();
    }
}
