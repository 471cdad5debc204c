//! Borrowed record decoding: views straight out of chunk bytes.
//!
//! [`crate::Record::decode`] materializes an *owned* value per record —
//! for a `(u64, String)` that is a heap allocation per record, and for
//! the steady-state task loop (decode → inspect → maybe re-emit) the
//! allocation usually outlives a single closure call by nanoseconds. The
//! paper's typed-iterator framing (§2.2) never requires ownership: a task
//! iterating a chunk only needs to *look at* each record, and a chunk is
//! immutable for as long as any reader holds it.
//!
//! [`RecordView`] is the borrowed half of the codec plane. For a record
//! type `T`, `T::View<'a>` is the zero-copy shape of one decoded record
//! whose string/byte fields point directly into the chunk:
//!
//! | owned type       | `View<'a>`                 |
//! |------------------|----------------------------|
//! | integers, floats, `bool`, `()` | the value itself (`Copy`) |
//! | [`FixedU32`], [`FixedU64`] | the value itself (`Copy`) |
//! | `String`         | `&'a str`                  |
//! | [`Blob`]         | `&'a [u8]`                 |
//! | `Option<T>`      | `Option<T::View<'a>>`      |
//! | tuples           | tuple of field views       |
//! | `Vec<T>`         | [`SeqView<'a, T>`] (lazy)  |
//!
//! # When to use `Record` vs `RecordView`
//!
//! * Use **`Record`** (owned decode) when the record must outlive the
//!   chunk it came from: buffering into a hash table, a snapshot the task
//!   keeps across chunks, a merge accumulator.
//! * Use **`RecordView`** (borrowed decode) for the per-record hot loop:
//!   scan, filter, aggregate into pre-sized arrays, or re-emit. The view
//!   borrows the chunk, so nothing is allocated per record and string
//!   payloads are never copied.
//!
//! The two decoders are two readings of one wire format. Every
//! implementation must uphold the **view law**: for any well-formed
//! input, `decode_view` consumes exactly the same bytes as
//! [`Record::decode`], and [`RecordView::view_to_owned`] of the view
//! equals the owned decode. `tests/props_format.rs` pins this down by
//! property test across arbitrary chunk boundaries.
//!
//! There is one decoder per shape, and it is the checked one: every read
//! of chunk bytes goes through `decode_view`, including the second read
//! of a span that was already validated. A [`SeqView`] walks its
//! elements once at construction (to validate them and find the
//! sequence's end) and [`SeqView::iter`] decodes each again; the second
//! pass cannot fail, so it `expect`s.
//!
//! # Fixed stride: random access by slicing
//!
//! Varint encodings are value-dependent, so element `i` of a sequence is
//! only reachable by decoding elements `0..i`. Types whose encoding is a
//! compile-time constant size — floats, [`FixedU32`]/[`FixedU64`], and
//! tuples of such — implement [`FixedStride`], and their sequences gain
//! O(1) random access ([`SeqView::get`]) and whole-chunk access via
//! [`StrideSlice`] (every record in a chunk of fixed-stride records sits
//! at a known offset). Record `i` is the bounds-checked slice of `STRIDE`
//! bytes at `i * STRIDE`, read with `decode_view`; any `STRIDE` bytes of
//! these types decode, so that read cannot fail either. The layout is
//! flat little-endian bytes, which the batch [`kernels`] fold whole.
//!
//! # Runs
//!
//! [`crate::ChunkReader`] and the `for_each_view` family do not call
//! `decode_view` themselves; they hand the whole chunk to
//! [`RecordView::decode_run`], so a record shape with a cheaper way to
//! decode many records than one at a time can supply it. Two shapes do:
//!
//! * the **varint integers** (`u16`, `u32`, `u64`, `usize`, `i16`, `i32`,
//!   `i64`): a chunk of them is one LEB128 run, and `varint::decode_run`
//!   serves every varint that ends inside a loaded word from that one
//!   load (see "Runs" in the [`varint`] module docs);
//! * **tuples of them**, arity 1 to 6, widths and signs mixed freely —
//!   an edge list of `(u32, u32)`, a `(u64, u16, i32)` fact row. A tuple
//!   is its fields back to back and a chunk is its records back to back,
//!   with no framing at either level (the [`crate::codec`] module docs
//!   state this), so one eight-byte load usually holds a whole record:
//!   `varint::split_record` decodes it from that load, one record per
//!   load, with no loop whose trip count depends on the data (the word
//!   walk bare integers use would mispredict about once per word on
//!   edges). A record that does not end inside the word — near the
//!   chunk's end, over eight bytes, with a nine- or ten-byte field, or
//!   malformed — is decoded field by field with `varint::decode`. Each
//!   field gets its width check before the next one is read
//!   (`InvalidVarint`), and a stream that ends between two fields of a
//!   tuple is `Truncated`, exactly as the per-record loop reports them.
//!
//! Every other shape — a tuple with a string, float, `Option`, `Vec`,
//! fixed-width or nested-tuple field, such as `(u32, (f64, u32))` — takes
//! the **fallback**, the default `decode_run`: a loop of `decode_view`.
//! It is the reference the overrides are tested against
//! (`tests/props_format.rs`, and on exact-size allocations in this
//! module's tests for Miri).
//!
//! # Lifetimes: borrowing from the chunk
//!
//! A [`crate::Chunk`] is refcounted and immutable, so a `T::View<'a>`
//! borrows the chunk's payload for `'a` — the chunk (or the buffer it
//! wraps) must stay alive while views of it are in scope. The drivers in
//! [`crate::stream`] ([`crate::ChunkReader::for_each`] and friends) keep
//! that containment structural: the closure receives each view in turn
//! and nothing borrowed can escape the iteration.
//!
//! # Examples
//!
//! ```
//! use hurricane_format::{encode_all, ChunkReader};
//!
//! let chunks = encode_all(
//!     (0..100u64).map(|i| (i, format!("name-{i}"))),
//!     1 << 16,
//! )
//! .unwrap();
//! // Count records whose name ends in "7" without allocating a single
//! // String: the `&str` view points into the chunk.
//! let mut hits = 0u64;
//! for chunk in &chunks {
//!     ChunkReader::<(u64, String)>::new(chunk)
//!         .for_each(|(_, name)| {
//!             if name.ends_with('7') {
//!                 hits += 1;
//!             }
//!         })
//!         .unwrap();
//! }
//! assert_eq!(hits, 10);
//! ```

use crate::codec::{take, unzigzag, Blob, CodecError, FixedU32, FixedU64, Record};
use crate::{kernels, varint};
use core::marker::PhantomData;

/// Record `i` of a run of back-to-back `T` records: the `STRIDE` bytes at
/// `i * STRIDE`, decoded. Panics when they are out of bounds or fail to
/// decode, both of which a correct [`FixedStride`] impl rules out.
#[inline]
fn stride_at<T: FixedStride>(bytes: &[u8], i: usize) -> T::View<'_> {
    let mut at = &bytes[i * T::STRIDE..][..T::STRIDE];
    T::decode_view(&mut at).expect("a FixedStride type decodes any STRIDE bytes")
}

/// The per-record run loop: [`RecordView::decode_run`]'s default, and the
/// fallback of every override that applies to some shapes only.
#[inline]
fn record_run<'a, T: RecordView, E: From<CodecError>>(
    input: &mut &'a [u8],
    mut f: impl FnMut(T::View<'a>) -> Result<(), E>,
) -> Result<u64, E> {
    let mut count = 0;
    while !input.is_empty() {
        f(T::decode_view(input)?)?;
        count += 1;
    }
    Ok(count)
}

/// A record type with a borrowed decoded form.
///
/// The supertrait bound keeps the two planes coherent: every viewable
/// type also has an owned codec, and the pair must satisfy the view law
/// (see the [module docs](self)) — `decode_view` advances the input by
/// exactly the bytes [`Record::decode`] would consume, and
/// `view_to_owned(decode_view(b)) == Record::decode(b)`.
pub trait RecordView: Record {
    /// The borrowed form of one decoded record, valid while the source
    /// bytes (typically a [`crate::Chunk`]) are alive.
    type View<'a>: Copy;

    /// Decodes one record from the front of `input` as a borrowed view,
    /// advancing the input exactly as [`Record::decode`] would.
    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<Self::View<'a>, CodecError>;

    /// Decodes back-to-back records until `input` is empty, handing each
    /// view to `f`; returns the record count. Equivalent to a loop of
    /// [`RecordView::decode_view`] calls (which is what the default does)
    /// and stops at the first error, the decoder's or `f`'s. This is the
    /// loop [`crate::ChunkReader`] drives, so a type with a cheaper way
    /// to decode a run than one record at a time overrides it — the
    /// varint integers do, and so do tuples of them (see "Runs" in the
    /// [module docs](self)).
    #[inline]
    fn decode_run<'a, E: From<CodecError>>(
        input: &mut &'a [u8],
        f: impl FnMut(Self::View<'a>) -> Result<(), E>,
    ) -> Result<u64, E> {
        record_run::<Self, E>(input, f)
    }

    /// Whether a record is exactly one varint on the wire; set, with
    /// [`RecordView::from_varint`], by the varint integers only. It is
    /// how a tuple learns that a chunk of it is a flat varint stream.
    #[doc(hidden)]
    const VARINT: bool = false;

    /// The checked view of a decoded varint: the width check (and
    /// un-zig-zag) `decode_view` applies after [`varint::decode`].
    /// Called only where [`RecordView::VARINT`] is set.
    #[doc(hidden)]
    fn from_varint<'a>(_raw: u64) -> Result<Self::View<'a>, CodecError> {
        unreachable!("from_varint is called only on types that set VARINT")
    }

    /// Rebuilds the owned record from a view. The bridge back to the
    /// owned plane — and the instrument the view-law property tests use.
    fn view_to_owned(view: Self::View<'_>) -> Self;
}

/// Marker for record types whose encoding is a compile-time constant
/// number of bytes — the precondition for random access into sequences
/// and chunks of them.
///
/// An implementation promises two properties, which this crate's tests
/// check for every impl it has:
///
/// * **Constant size**: every value encodes to exactly `STRIDE` bytes
///   (`STRIDE > 0`), and both decoders consume exactly `STRIDE` bytes.
/// * **Totality**: *every* `STRIDE`-byte pattern is a valid encoding —
///   `decode`/`decode_view` on any `STRIDE` bytes succeeds. (This is why
///   `bool` — whose decoder rejects tag bytes other than 0/1 — does not
///   implement `FixedStride` even though its encoding is one byte.)
///
/// Together they make offset arithmetic a substitute for sequential
/// validation: [`StrideSlice::get`] and [`SeqView::get`] read record `i`
/// from the `STRIDE` bytes at `i * STRIDE` and treat a decode error as a
/// bug. An impl that breaks either property makes those reads panic.
pub trait FixedStride: RecordView {
    /// Exact encoded size of every value, in bytes. Always positive.
    const STRIDE: usize;
}

macro_rules! self_view {
    ($($ty:ty),+ $(,)?) => {$(
        impl RecordView for $ty {
            type View<'a> = $ty;

            #[inline]
            fn decode_view(input: &mut &[u8]) -> Result<$ty, CodecError> {
                <$ty as Record>::decode(input)
            }

            fn view_to_owned(view: $ty) -> $ty {
                view
            }
        }
    )+};
}

self_view!(u8, f32, f64, bool, (), FixedU32, FixedU64);

/// The integers whose wire form is one varint (`$wide` undoes zig-zag for
/// the signed ones). Self views like the types above, plus the run
/// decoder: a chunk of them is one long varint run, which
/// [`varint::decode_run`] decodes a word at a time.
macro_rules! varint_view {
    ($($ty:ty => $wide:expr),+ $(,)?) => {$(
        impl RecordView for $ty {
            type View<'a> = $ty;

            #[inline]
            fn decode_view(input: &mut &[u8]) -> Result<$ty, CodecError> {
                <$ty as Record>::decode(input)
            }

            #[inline]
            fn decode_run<'a, E: From<CodecError>>(
                input: &mut &'a [u8],
                mut f: impl FnMut(Self::View<'a>) -> Result<(), E>,
            ) -> Result<u64, E> {
                varint::decode_run(input, |raw| f(Self::from_varint(raw)?))
            }

            const VARINT: bool = true;

            #[inline]
            fn from_varint<'a>(raw: u64) -> Result<Self::View<'a>, CodecError> {
                <$ty>::try_from($wide(raw)).map_err(|_| CodecError::InvalidVarint)
            }

            fn view_to_owned(view: $ty) -> $ty {
                view
            }
        }
    )+};
}

varint_view! {
    u16 => core::convert::identity,
    u32 => core::convert::identity,
    u64 => core::convert::identity,
    usize => core::convert::identity,
    i16 => unzigzag,
    i32 => unzigzag,
    i64 => unzigzag,
}

// One byte always, and `u8::decode` accepts any byte (total).
impl FixedStride for u8 {
    const STRIDE: usize = 1;
}

// Fixed-width little-endian floats; every bit pattern is a valid
// IEEE-754 value (including NaNs), so the decoders are total.
impl FixedStride for f32 {
    const STRIDE: usize = 4;
}

// As for `f32`.
impl FixedStride for f64 {
    const STRIDE: usize = 8;
}

// Fixed four-byte little-endian; any bit pattern is a valid u32.
impl FixedStride for FixedU32 {
    const STRIDE: usize = 4;
}

// Fixed eight-byte little-endian; any bit pattern is a valid u64.
impl FixedStride for FixedU64 {
    const STRIDE: usize = 8;
}

impl RecordView for String {
    type View<'a> = &'a str;

    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<&'a str, CodecError> {
        let len = varint::decode_len(input)?;
        if len > input.len() as u64 {
            return Err(CodecError::Truncated);
        }
        let bytes = take(input, len as usize)?;
        core::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }

    fn view_to_owned(view: &str) -> String {
        view.to_string()
    }
}

impl RecordView for Blob {
    type View<'a> = &'a [u8];

    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
        let len = varint::decode_len(input)?;
        if len > input.len() as u64 {
            return Err(CodecError::Truncated);
        }
        take(input, len as usize)
    }

    fn view_to_owned(view: &[u8]) -> Blob {
        Blob(view.to_vec())
    }
}

impl<T: RecordView> RecordView for Option<T> {
    type View<'a> = Option<T::View<'a>>;

    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<Self::View<'a>, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode_view(input)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }

    fn view_to_owned(view: Self::View<'_>) -> Self {
        view.map(T::view_to_owned)
    }
}

/// A lazily decoded sequence view — the borrowed form of `Vec<T>`.
///
/// `decode_view` walks the elements once to validate them and find the
/// sequence's end (no allocation); [`SeqView::iter`] then decodes each
/// element again on demand, with the same checked `decode_view`.
/// Iteration is infallible because the bytes were validated at
/// view-construction time.
///
/// For element types with a [`FixedStride`] encoding the view is also
/// randomly accessible: [`SeqView::get`] indexes by offset arithmetic
/// instead of sequential decoding.
pub struct SeqView<'a, T: RecordView> {
    /// The validated payload: exactly `len` back-to-back encoded records.
    bytes: &'a [u8],
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: RecordView> core::fmt::Debug for SeqView<'_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SeqView({} elems, {} bytes)", self.len, self.bytes.len())
    }
}

impl<T: RecordView> Clone for SeqView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: RecordView> Copy for SeqView<'_, T> {}

impl<'a, T: RecordView> SeqView<'a, T> {
    /// Number of elements in the sequence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true for an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw encoded payload (without the length prefix).
    pub fn payload(&self) -> &'a [u8] {
        self.bytes
    }

    /// Iterates the element views. Infallible: the span was validated
    /// when this view was constructed, so the checked re-read of each
    /// element cannot fail.
    pub fn iter(&self) -> SeqIter<'a, T> {
        SeqIter {
            rest: self.bytes,
            remaining: self.len,
            _marker: PhantomData,
        }
    }

    /// Collects the elements into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().map(T::view_to_owned).collect()
    }
}

impl<'a, T: FixedStride> SeqView<'a, T> {
    /// Returns element `i` in O(1) by offset arithmetic — no sequential
    /// decode of the preceding elements.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> T::View<'a> {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        stride_at::<T>(self.bytes, i)
    }
}

impl SeqView<'_, FixedU64> {
    /// ORs this word sequence into `acc` (growing it to cover every
    /// word) via the batch kernels ([`crate::kernels::or_le64`]): the
    /// bitset-merge fold.
    pub fn or_into(&self, acc: &mut Vec<FixedU64>) {
        if self.len > acc.len() {
            acc.resize(self.len, FixedU64(0));
        }
        kernels::or_le64(acc, self.bytes);
    }

    /// Counts the set bits across all words
    /// ([`crate::kernels::popcount_le64`]).
    pub fn popcount(&self) -> u64 {
        kernels::popcount_le64(self.bytes)
    }
}

impl<'a, T: RecordView> IntoIterator for SeqView<'a, T> {
    type Item = T::View<'a>;
    type IntoIter = SeqIter<'a, T>;

    fn into_iter(self) -> SeqIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`SeqView`]'s element views.
pub struct SeqIter<'a, T: RecordView> {
    rest: &'a [u8],
    remaining: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<'a, T: RecordView> Iterator for SeqIter<'a, T> {
    type Item = T::View<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(T::decode_view(&mut self.rest).expect("validated when the view was built"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: RecordView> ExactSizeIterator for SeqIter<'_, T> {}

impl<T: RecordView> RecordView for Vec<T> {
    type View<'a> = SeqView<'a, T>;

    fn decode_view<'a>(input: &mut &'a [u8]) -> Result<Self::View<'a>, CodecError> {
        let len = varint::decode_len(input)?;
        // Mirrors the owned decoder: each element consumes at least one
        // byte, so a longer declared length is corrupt.
        if len > input.len() as u64 {
            return Err(CodecError::LengthOverflow);
        }
        let start = *input;
        for _ in 0..len {
            T::decode_view(input)?;
        }
        let consumed = start.len() - input.len();
        Ok(SeqView {
            bytes: &start[..consumed],
            len: len as usize,
            _marker: PhantomData,
        })
    }

    fn view_to_owned(view: Self::View<'_>) -> Self {
        view.to_vec()
    }
}

macro_rules! tuple_view {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: RecordView),+> RecordView for ($($name,)+) {
            type View<'a> = ($($name::View<'a>,)+);

            #[inline]
            fn decode_view<'a>(input: &mut &'a [u8]) -> Result<Self::View<'a>, CodecError> {
                Ok(($($name::decode_view(input)?,)+))
            }

            /// A tuple whose fields are all single varints decodes one
            /// record per load (`varint::split_record`); a record that
            /// does not end inside the loaded word is decoded field by
            /// field. Any other tuple takes the per-record loop.
            #[inline]
            fn decode_run<'a, Er: From<CodecError>>(
                input: &mut &'a [u8],
                mut f: impl FnMut(Self::View<'a>) -> Result<(), Er>,
            ) -> Result<u64, Er> {
                const ARITY: usize = [$($idx),+].len();
                if !($($name::VARINT)&&+) {
                    return record_run::<Self, Er>(input, f);
                }
                let mut count = 0;
                while !input.is_empty() {
                    // Each field is width-checked before the next one is
                    // read, the order `decode_view` checks in.
                    let record = match varint::split_record::<ARITY>(input) {
                        Some((raw, len)) => {
                            *input = &input[len..];
                            ($($name::from_varint(raw[$idx])?,)+)
                        }
                        None => ($($name::from_varint(varint::decode(input)?)?,)+),
                    };
                    f(record)?;
                    count += 1;
                }
                Ok(count)
            }

            fn view_to_owned(view: Self::View<'_>) -> Self {
                ($($name::view_to_owned(view.$idx),)+)
            }
        }

        // A tuple of constant-size total encodings is itself a
        // constant-size total encoding (fields concatenate; each field
        // accepts any bytes of its width).
        impl<$($name: FixedStride),+> FixedStride for ($($name,)+) {
            const STRIDE: usize = 0 $(+ $name::STRIDE)+;
        }
    };
}

tuple_view!(A: 0);
tuple_view!(A: 0, B: 1);
tuple_view!(A: 0, B: 1, C: 2);
tuple_view!(A: 0, B: 1, C: 2, D: 3);
tuple_view!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_view!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// A typed fixed-stride window over raw encoded bytes: `k` back-to-back
/// records of a [`FixedStride`] type, randomly accessible without any
/// prior validating decode.
///
/// Where [`SeqView`] is the borrowed form of a `Vec<T>` *record* (length
/// prefix on the wire, validated at view construction), a `StrideSlice`
/// types a *bare* byte run — most usefully a whole chunk whose records
/// are all fixed-stride, where the only well-formedness condition is
/// that the length divides evenly (every `STRIDE` bytes of a
/// `FixedStride` type decode). This is the random-access path for
/// int-tuple chunks: `get(i)` slices out record `i`'s `STRIDE` bytes and
/// decodes them.
pub struct StrideSlice<'a, T: FixedStride> {
    bytes: &'a [u8],
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: FixedStride> core::fmt::Debug for StrideSlice<'_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "StrideSlice({} elems x {} bytes)", self.len, T::STRIDE)
    }
}

impl<T: FixedStride> Clone for StrideSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: FixedStride> Copy for StrideSlice<'_, T> {}

impl<'a, T: FixedStride> StrideSlice<'a, T> {
    /// Types `bytes` as a run of fixed-stride records. Fails with
    /// [`CodecError::Truncated`] when the length is not a multiple of
    /// the stride (a partial trailing record).
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodecError> {
        const { assert!(T::STRIDE > 0, "FixedStride::STRIDE must be positive") };
        if !bytes.len().is_multiple_of(T::STRIDE) {
            return Err(CodecError::Truncated);
        }
        Ok(Self {
            bytes,
            len: bytes.len() / T::STRIDE,
            _marker: PhantomData,
        })
    }

    /// Number of records in the slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when the slice holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Returns record `i` in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> T::View<'a> {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        stride_at::<T>(self.bytes, i)
    }

    /// Gathers the leading little-endian `u32` of every record into
    /// `out` ([`crate::kernels::gather_stride_u32`]) — the column
    /// extraction for key-first fixed tuples, e.g. densifying a join's
    /// probe keys out of interleaved 12-byte records.
    ///
    /// # Panics
    ///
    /// Panics when `T::STRIDE < 4` (the record cannot start with a
    /// 4-byte key).
    pub fn gather_prefix_u32_into(&self, out: &mut Vec<u32>) {
        kernels::gather_stride_u32(self.bytes, T::STRIDE, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::fmt;
    use proptest::prelude::*;

    /// Asserts the view law on one value: same bytes consumed, equal
    /// owned reconstruction.
    fn view_law<T: RecordView + PartialEq + fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut owned_slice = buf.as_slice();
        let owned = T::decode(&mut owned_slice).unwrap();
        let mut view_slice = buf.as_slice();
        let view = T::decode_view(&mut view_slice).unwrap();
        assert_eq!(
            owned_slice.len(),
            view_slice.len(),
            "decode_view must consume exactly decode's bytes for {v:?}"
        );
        assert_eq!(T::view_to_owned(view), owned);
        assert_eq!(owned, v);
    }

    #[test]
    fn primitive_views_obey_the_law() {
        view_law(0u8);
        view_law(u64::MAX);
        view_law(-42i64);
        view_law(3.5f64);
        view_law(true);
        view_law(());
        view_law(FixedU32(u32::MAX));
        view_law(FixedU64(0x0123_4567_89ab_cdef));
    }

    #[test]
    fn string_view_borrows_in_place() {
        let mut buf = Vec::new();
        "hurricane".to_string().encode(&mut buf);
        let mut slice = buf.as_slice();
        let view = String::decode_view(&mut slice).unwrap();
        assert_eq!(view, "hurricane");
        // The view points into the encoded buffer: zero copies.
        assert_eq!(view.as_ptr(), buf[1..].as_ptr());
        view_law("héllo ✓".to_string());
        view_law(String::new());
    }

    #[test]
    fn blob_view_borrows_in_place() {
        let payload = vec![0xde, 0xad, 0xbe, 0xef];
        let mut buf = Vec::new();
        Blob(payload.clone()).encode(&mut buf);
        let mut slice = buf.as_slice();
        let view = Blob::decode_view(&mut slice).unwrap();
        assert_eq!(view, &payload[..]);
        assert_eq!(view.as_ptr(), buf[1..].as_ptr());
    }

    #[test]
    fn nested_views_obey_the_law() {
        view_law((7u64, "key".to_string()));
        view_law(Some((1u32, "x".to_string())));
        view_law(None::<String>);
        view_law(vec!["a".to_string(), String::new(), "ccc".to_string()]);
        view_law(((1u64, 2u64), ("k".to_string(), vec![9u32, 10])));
        view_law((1u8, 2u16, 3u32, 4u64, 5i64, 6.0f64));
        view_law(vec![vec![1u64, 2], vec![], vec![3]]);
        view_law(vec![FixedU64(u64::MAX), FixedU64(0), FixedU64(42)]);
        view_law((FixedU32(1), FixedU64(2), "s".to_string()));
    }

    #[test]
    fn seq_view_iterates_lazily_and_exactly() {
        let v = vec![(1u64, "one".to_string()), (2, "two".to_string())];
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<(u64, String)>::decode_view(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(seq.len(), 2);
        assert!(!seq.is_empty());
        let items: Vec<(u64, &str)> = seq.iter().collect();
        assert_eq!(items, vec![(1, "one"), (2, "two")]);
        // Copy semantics: iterating twice works on the same view.
        assert_eq!(seq.iter().count(), 2);
        assert_eq!(seq.to_vec(), v);
        assert_eq!(seq.iter().size_hint(), (2, Some(2)));
    }

    #[test]
    fn seq_iteration_matches_owned_decode() {
        // Iterating a SeqView re-reads a span validated at construction:
        // it must yield exactly what owned decoding yields, for varint
        // and string element types.
        let words: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut buf = Vec::new();
        words.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<u64>::decode_view(&mut slice).unwrap();
        let got: Vec<u64> = seq.iter().collect();
        assert_eq!(got, words);

        let names: Vec<String> = (0..50).map(|i| format!("name-{i}")).collect();
        let mut buf = Vec::new();
        names.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<String>::decode_view(&mut slice).unwrap();
        let got: Vec<String> = seq.iter().map(str::to_string).collect();
        assert_eq!(got, names);
    }

    #[test]
    fn fixed_stride_constants_compose() {
        assert_eq!(u8::STRIDE, 1);
        assert_eq!(f32::STRIDE, 4);
        assert_eq!(f64::STRIDE, 8);
        assert_eq!(FixedU32::STRIDE, 4);
        assert_eq!(FixedU64::STRIDE, 8);
        assert_eq!(<(FixedU32, FixedU64)>::STRIDE, 12);
        assert_eq!(<(f64, f64, u8)>::STRIDE, 17);
    }

    /// The two [`FixedStride`] properties on `bytes`, the first `STRIDE`
    /// of them repeated as often as needed: both decoders accept them and
    /// consume exactly `STRIDE`, and the value encodes back to them.
    fn check_stride<T: FixedStride + fmt::Debug>(bytes: &[u8]) {
        let exact: Vec<u8> = bytes.iter().copied().cycle().take(T::STRIDE).collect();
        let name = core::any::type_name::<T>();
        let mut at = &exact[..];
        let view =
            T::decode_view(&mut at).unwrap_or_else(|e| panic!("{name} on {exact:02x?}: {e:?}"));
        assert!(at.is_empty(), "{name} decode_view consumes STRIDE bytes");
        let mut at = &exact[..];
        T::decode(&mut at).unwrap_or_else(|e| panic!("{name} on {exact:02x?}: {e:?}"));
        assert!(at.is_empty(), "{name} decode consumes STRIDE bytes");
        let mut again = Vec::new();
        T::view_to_owned(view).encode(&mut again);
        assert_eq!(again, exact, "{name} re-encodes to the same STRIDE bytes");
    }

    /// Every `FixedStride` impl in the crate: the five scalars and one
    /// tuple of each arity.
    fn check_every_stride(bytes: &[u8]) {
        check_stride::<u8>(bytes);
        check_stride::<f32>(bytes);
        check_stride::<f64>(bytes);
        check_stride::<FixedU32>(bytes);
        check_stride::<FixedU64>(bytes);
        check_stride::<(u8,)>(bytes);
        check_stride::<(FixedU32, FixedU64)>(bytes);
        check_stride::<(f64, f64, u8)>(bytes);
        check_stride::<(u8, f32, FixedU32, FixedU64)>(bytes);
        check_stride::<(f32, u8, f64, FixedU32, u8)>(bytes);
        check_stride::<(u8, u8, u8, u8, u8, (FixedU64,))>(bytes);
    }

    #[test]
    fn fixed_stride_decodes_all_zero_and_all_one_bytes() {
        check_every_stride(&[0x00]);
        check_every_stride(&[0xff]);
    }

    #[test]
    fn seq_view_random_access_matches_iteration() {
        let words: Vec<FixedU64> = (0..100u64).map(|i| FixedU64(i * 3)).collect();
        let mut buf = Vec::new();
        words.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        for (i, w) in seq.iter().enumerate() {
            assert_eq!(seq.get(i), w);
        }
        assert_eq!(seq.get(99), FixedU64(297));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn seq_view_get_out_of_bounds_panics() {
        let words = vec![FixedU64(1)];
        let mut buf = Vec::new();
        words.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        let _ = seq.get(1);
    }

    #[test]
    fn stride_slice_types_raw_bytes() {
        type Rec = (FixedU32, FixedU64);
        let mut buf = Vec::new();
        for i in 0..20u32 {
            (FixedU32(i), FixedU64(i as u64 * 7)).encode(&mut buf);
        }
        let s = StrideSlice::<Rec>::new(&buf).unwrap();
        assert_eq!(s.len(), 20);
        assert!(!s.is_empty());
        assert_eq!(s.get(5), (FixedU32(5), FixedU64(35)));
        assert_eq!(s.get(19), (FixedU32(19), FixedU64(133)));
        assert_eq!(s.bytes(), &buf[..]);
        // A partial trailing record is rejected.
        assert!(StrideSlice::<Rec>::new(&buf[..buf.len() - 1]).is_err());
        // Empty is fine.
        assert!(StrideSlice::<Rec>::new(&[]).unwrap().is_empty());
    }

    #[test]
    fn seq_view_kernels_match_iteration() {
        let words: Vec<FixedU64> = (0..37u64)
            .map(|i| FixedU64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut buf = Vec::new();
        words.encode(&mut buf);
        let mut slice = buf.as_slice();
        let seq = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        assert_eq!(
            seq.popcount(),
            words.iter().map(|w| w.0.count_ones() as u64).sum::<u64>()
        );
        let mut acc = vec![FixedU64(0xF0F0); 10];
        seq.or_into(&mut acc);
        assert_eq!(acc.len(), 37, "accumulator grows to the view");
        for (i, slot) in acc.iter().enumerate() {
            let seed = if i < 10 { 0xF0F0 } else { 0 };
            assert_eq!(slot.0, seed | words[i].0);
        }
    }

    #[test]
    fn stride_slice_kernels_and_gather() {
        type Rec = (FixedU32, FixedU64);
        let mut buf = Vec::new();
        for i in 0..21u32 {
            (FixedU32(i * 3), FixedU64(1u64 << (i % 64))).encode(&mut buf);
        }
        let s = StrideSlice::<Rec>::new(&buf).unwrap();
        let mut keys = Vec::new();
        s.gather_prefix_u32_into(&mut keys);
        assert_eq!(keys, (0..21u32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn view_decode_detects_corruption() {
        // Truncated string payload.
        let mut buf = Vec::new();
        varint::encode(10, &mut buf);
        buf.extend_from_slice(b"abc");
        let mut slice = buf.as_slice();
        assert_eq!(String::decode_view(&mut slice), Err(CodecError::Truncated));
        // Overlong vector length.
        let mut buf = Vec::new();
        varint::encode(u64::MAX, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(
            Vec::<u64>::decode_view(&mut slice).unwrap_err(),
            CodecError::LengthOverflow
        );
        // Bad option tag.
        let mut slice: &[u8] = &[9];
        assert_eq!(
            Option::<u64>::decode_view(&mut slice),
            Err(CodecError::InvalidTag(9))
        );
        // Invalid UTF-8 stays an error on the borrowed path too.
        let mut buf = Vec::new();
        varint::encode(2, &mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = buf.as_slice();
        assert_eq!(
            String::decode_view(&mut slice),
            Err(CodecError::InvalidUtf8)
        );
        // Truncated fixed-width int.
        let mut slice: &[u8] = &[1, 2, 3];
        assert_eq!(
            FixedU32::decode_view(&mut slice),
            Err(CodecError::Truncated)
        );
    }

    /// `decode_run` against a loop of `decode_view` on an exact-size
    /// allocation (a read past the end is out of bounds for Miri, not
    /// just for the slice): the same views in the same order, then the
    /// same count or the same error.
    fn check_run<T>(bytes: &[u8])
    where
        T: for<'a> RecordView<View<'a> = T> + PartialEq + fmt::Debug,
    {
        let exact: Box<[u8]> = bytes.into();
        let mut want = Vec::new();
        let mut at = &exact[..];
        let want_end = loop {
            if at.is_empty() {
                break Ok(want.len() as u64);
            }
            match T::decode_view(&mut at) {
                Ok(view) => want.push(view),
                Err(e) => break Err(e),
            }
        };
        let mut got = Vec::new();
        let got_end = T::decode_run(&mut &exact[..], |view| {
            got.push(view);
            Ok::<(), CodecError>(())
        });
        assert_eq!(got, want, "{} on {bytes:02x?}", core::any::type_name::<T>());
        assert_eq!(
            got_end,
            want_end,
            "{} on {bytes:02x?}",
            core::any::type_name::<T>()
        );
    }

    /// Every arity the run decoder covers, over mixed widths and signs,
    /// and one shape that takes the fallback.
    fn check_tuple_runs(bytes: &[u8]) {
        check_run::<(u32,)>(bytes);
        check_run::<(u32, u32)>(bytes);
        check_run::<(u64, u16, i32)>(bytes);
        check_run::<(i64, u32, u32, u16)>(bytes);
        check_run::<(u16, i16, usize, i32, u64)>(bytes);
        check_run::<(i32, u64, u16, i64, u32, i16)>(bytes);
        check_run::<(u32, (FixedU64, u32))>(bytes);
    }

    fn varints(values: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for v in values {
            varint::encode(v, &mut bytes);
        }
        bytes
    }

    #[test]
    fn tuple_runs_match_the_record_loop_on_edge_streams() {
        // One value on each side of every width a field can have (zig-zag
        // maps a signed type onto the same raw range as the unsigned one),
        // a nine- and a ten-byte encoding.
        let edges = [
            0,
            1,
            0x7f,
            0x80,
            u16::MAX as u64,
            u16::MAX as u64 + 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            1 << 56,
            u64::MAX,
        ];
        // Small values between the edges, so most tuples pass their width
        // checks and each edge lands on every field of every arity; the
        // 13 and 14 value streams are a multiple of almost no arity.
        // (Miri, ~100x slower, takes every fifth rotation.)
        for len in [12, 13, 14] {
            for rot in (0..edges.len()).step_by(if cfg!(miri) { 5 } else { 1 }) {
                let stream = varints((0..len).map(|i| {
                    if i % 5 == rot % 5 {
                        edges[(rot + i) % edges.len()]
                    } else {
                        7 * i as u64
                    }
                }));
                // Cut at every byte: inside a varint, between two fields,
                // between two tuples.
                for cut in 0..=stream.len() {
                    check_tuple_runs(&stream[..cut]);
                }
            }
        }
        // Padded (non-canonical) encodings: 5 in two, nine and ten bytes.
        let nine = [&[0x85][..], &[0x80; 7], &[0x00]].concat();
        let ten = [&[0x85][..], &[0x80; 8], &[0x00]].concat();
        let padded = [&[0x85, 0x00][..], &nine, &ten, &[0x03], &nine, &ten].concat();
        for cut in 0..=padded.len() {
            check_tuple_runs(&padded[..cut]);
        }
        // Records of exactly eight bytes (one load), nine, and with a
        // nine-byte first field (field by field), each at every start
        // offset mod 8 between records of one- and two-byte fields, so
        // both paths and the hand-over between them run away from the
        // tail as well as near it.
        let records: [(&[u64], usize); 4] = [
            (&[1 << 21, (1 << 28) - 1], 8),
            (&[1 << 21, u32::MAX as u64], 9),
            (&[0x80, 0x3fff, 0x80, 0x3fff], 8),
            (&[1 << 56, 7, 0x7f], 11),
        ];
        for (record, len) in records {
            assert_eq!(varints(record.iter().copied()).len(), len);
            // `n` bytes of records of this arity, fields one or two bytes.
            let filler = |n: usize| {
                let arity = record.len();
                let count = n.div_ceil(2 * arity);
                let mut wide = n - count * arity;
                (0..count * arity).map(move |i| {
                    let two = wide > 0;
                    wide -= two as usize;
                    if two {
                        0x80
                    } else {
                        i as u64 % 0x80
                    }
                })
            };
            for offset in 8..16 {
                assert_eq!(varints(filler(offset)).len(), offset);
                let stream = varints(
                    filler(offset)
                        .chain(record.iter().copied())
                        .chain(filler(16)),
                );
                check_tuple_runs(&stream);
            }
        }
    }

    #[test]
    fn dangling_field_is_a_typed_error() {
        // 2k + 1 varints read as pairs: k tuples, then `Truncated` —
        // never k tuples and `Ok`, never a panic — from the run decoder,
        // the record loop and every chunk driver alike.
        for k in [0u32, 1, 2, 7, 100] {
            let bytes = varints((0..2 * k as u64 + 1).map(|i| i * 1_000));
            check_run::<(u32, u32)>(&bytes);
            let mut seen = 0;
            let end = <(u32, u32)>::decode_run(&mut &bytes[..], |_| {
                seen += 1;
                Ok::<(), CodecError>(())
            });
            assert_eq!((seen, end), (k, Err(CodecError::Truncated)));
            let chunk = crate::Chunk::from_vec(bytes);
            let reader = || crate::ChunkReader::<(u32, u32)>::new(&chunk);
            assert_eq!(reader().fold(0, |n, _| n + 1), Err(CodecError::Truncated));
            assert_eq!(reader().for_each(|_| ()), Err(CodecError::Truncated));
        }
    }

    proptest! {
        // Miri runs these too (the CI `miri` job); it is ~100x slower.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 512 }))]

        /// The run decoder for integer tuples agrees with the record loop
        /// on arbitrary (mostly malformed) bytes and on well-formed
        /// varint streams of every length mix, cut anywhere — so with
        /// widened fields, nine- and ten-byte encodings and value counts
        /// that are no multiple of the arity.
        #[test]
        fn tuple_runs_decode_like_single_records(
            junk in prop::collection::vec(any::<u8>(), 0..64),
            values in prop::collection::vec((any::<u64>(), 0u32..64), 0..32),
            cut in 0usize..8,
        ) {
            check_tuple_runs(&junk);
            let mut stream = varints(values.iter().map(|&(v, shift)| v >> shift));
            stream.truncate(stream.len().saturating_sub(cut));
            check_tuple_runs(&stream);
        }

        /// Totality, the property `StrideSlice::get` and `SeqView::get`
        /// rest on: any `STRIDE` bytes decode, whatever they are.
        #[test]
        fn fixed_stride_decodes_any_bytes(
            bytes in prop::collection::vec(any::<u8>(), 1..64),
        ) {
            check_every_stride(&bytes);
        }
    }

    #[test]
    fn truncation_detected_everywhere_on_view_path() {
        let mut buf = Vec::new();
        (12345u64, "abcdef".to_string(), 2.5f64).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            let r = <(u64, String, f64)>::decode_view(&mut slice);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }
}
