//! Chunked serialization for Hurricane.
//!
//! Hurricane stores all input and intermediate data in *bags* of fixed-size
//! *chunks* (paper §2.2). A chunk is the indivisible unit of data transfer:
//! workers remove whole chunks from bags, deserialize them into records,
//! compute, and insert whole chunks of output. Because clones of a task may
//! process any subset of a bag's chunks, the serialization layer guarantees
//! that **no record ever crosses a chunk boundary** — each chunk is
//! independently decodable.
//!
//! This crate provides:
//!
//! * [`chunk::Chunk`] — an immutable, cheaply-cloneable block of bytes.
//! * [`codec::Record`] — the typed-record trait, with implementations for
//!   integers, floats, booleans, strings, byte blobs, options, vectors, and
//!   tuples (nested composition gives "nested tuples" as in the paper).
//! * [`view::RecordView`] — the borrowed half of the codec: decode a
//!   record as a view whose `&str`/`&[u8]` fields point straight into the
//!   chunk, for allocation-free hot loops. Every read, a re-read of a
//!   span validated once included, goes through the one checked
//!   decoder, and [`view::FixedStride`] types ([`codec::FixedU32`]/
//!   [`codec::FixedU64`], floats, tuples of them) get O(1) random access
//!   into sequences and whole chunks ([`view::StrideSlice`]) by slicing
//!   out `STRIDE` bytes. See the [`view`] module docs for when to use
//!   `Record` vs `RecordView`.
//! * [`kernels`] — the three batch kernels with callers (word OR,
//!   popcount, strided column gather) over the flat byte runs
//!   fixed-stride sequences expose: safe loops, one build. Surfaced as
//!   methods on [`view::SeqView`] / [`view::StrideSlice`].
//! * [`stream::ChunkWriter`] / [`stream::ChunkReader`] — the typed
//!   iterators that serialize a record stream into boundary-respecting
//!   chunks (single-pass encoding, with [`stream::ChunkWriter::push_encoded`]
//!   for pre-serialized fan-out) and back. The reader's
//!   [`stream::ChunkReader::for_each`] / [`stream::ChunkReader::fold`]
//!   drivers stream borrowed views without materializing a `Vec`.
//!
//! Only [`varint`] may hold `unsafe` code: its two encoders store whole
//! words into a `Vec`'s spare capacity and then `set_len`. Every other
//! module forbids it, so the compiler keeps it there.
//!
//! # Examples
//!
//! ```
//! use hurricane_format::{ChunkWriter, decode_all};
//!
//! let mut writer = ChunkWriter::<(u64, String)>::new(64);
//! let mut chunks = Vec::new();
//! for i in 0..100u64 {
//!     chunks.extend(writer.push(&(i, format!("record-{i}"))).unwrap());
//! }
//! chunks.extend(writer.finish());
//!
//! // Every chunk decodes independently; concatenation restores the stream.
//! let records: Vec<(u64, String)> = chunks
//!     .iter()
//!     .flat_map(|c| decode_all::<(u64, String)>(c).unwrap())
//!     .collect();
//! assert_eq!(records.len(), 100);
//! assert_eq!(records[7], (7, "record-7".to_string()));
//! ```

#[forbid(unsafe_code)]
pub mod chunk;
#[forbid(unsafe_code)]
pub mod codec;
#[forbid(unsafe_code)]
pub mod kernels;
#[forbid(unsafe_code)]
pub mod stream;
pub mod varint;
#[forbid(unsafe_code)]
pub mod view;

pub use chunk::{Chunk, DEFAULT_CHUNK_SIZE};
pub use codec::{Blob, CodecError, FixedU32, FixedU64, Record};
pub use stream::{
    decode_all, encode_all, fold_views, for_each_view, stride_records, try_for_each_view, ChunkBuf,
    ChunkReader, ChunkWriter,
};
pub use view::{FixedStride, RecordView, SeqIter, SeqView, StrideSlice};
