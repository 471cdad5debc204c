//! Typed record codecs.
//!
//! The paper (§2.2): "Hurricane provides a number of typed iterators for
//! serializing and deserializing common formats (integers, floats, strings,
//! tuples, etc.), which can be combined to represent more complex data
//! types (e.g., nested tuples)." [`Record`] is that composition mechanism:
//! primitives implement it directly, and tuples / options / vectors compose
//! any implementors, so `(u64, Vec<(String, f64)>)` is a record type with
//! no extra code.
//!
//! Integers use LEB128 varints (zig-zag for signed) so the common case —
//! small ids and counts — stays compact; floats are fixed-width
//! little-endian IEEE-754.
//!
//! **No framing.** A tuple encodes as its fields back to back — no tag,
//! no field count, no record length — and a chunk is records back to
//! back the same way. The run decoders rely on it: a chunk of integers
//! *is* a flat varint stream, decoded a word at a time, and a chunk of
//! all-integer tuples is one too, decoded a record per load
//! ([`crate::RecordView::decode_run`]). A change that put anything
//! between fields or records would have to revisit `decode_run`.

use crate::varint;
use core::fmt;

/// Errors produced while encoding or decoding records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a record.
    Truncated,
    /// A varint was overlong or overflowed 64 bits.
    InvalidVarint,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// A tag byte (bool / option discriminant) held an invalid value.
    InvalidTag(u8),
    /// A single encoded record exceeds the chunk capacity, so it can never
    /// be stored without crossing a chunk boundary.
    RecordTooLarge {
        /// Encoded size of the offending record.
        record: usize,
        /// Capacity of the chunks being written.
        chunk: usize,
    },
    /// A declared collection length does not fit in memory bounds.
    LengthOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-record"),
            CodecError::InvalidVarint => write!(f, "invalid varint encoding"),
            CodecError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            CodecError::RecordTooLarge { record, chunk } => write!(
                f,
                "record of {record} bytes cannot fit a {chunk}-byte chunk"
            ),
            CodecError::LengthOverflow => write!(f, "declared length exceeds input"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A value that can be serialized into / deserialized from a chunk.
///
/// Implementations must satisfy the roundtrip law: for every value `v`,
/// decoding the bytes produced by `encode` yields a value equal to `v` and
/// consumes exactly those bytes. The chunk writer encodes a record
/// straight into its chunk buffer and measures what was appended, so no
/// record is sized before it is written.
pub trait Record: Sized {
    /// Appends this record's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one record from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// How many varints a record's encoding is when it is nothing else:
    /// one for the varint integers, the sum of the fields for a tuple of
    /// such types, and zero (the default) for every other type.
    /// [`crate::ChunkBuf::push_run`] writes runs of such records with one
    /// word-store loop instead of one `encode` per record. Types outside
    /// this crate keep the default.
    #[doc(hidden)]
    const VARINTS: usize = 0;

    /// The record's varints in wire order, [`Record::VARINTS`] of them:
    /// their LEB128 encodings, back to back, are what `encode` appends.
    /// Read only where `VARINTS` is nonzero.
    #[doc(hidden)]
    fn varints(&self) -> impl Iterator<Item = u64> {
        core::iter::empty()
    }
}

/// Maps a signed value onto an unsigned one with small absolute values
/// staying small (zig-zag).
const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`]. `pub(crate)` so the view plane's run decoders
/// can share the mapping.
pub(crate) const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

impl Record for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(input, 1)?[0])
    }
}

macro_rules! varint_record {
    ($ty:ty) => {
        impl Record for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                varint::encode(*self as u64, out);
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let v = varint::decode(input)?;
                <$ty>::try_from(v).map_err(|_| CodecError::InvalidVarint)
            }

            const VARINTS: usize = 1;

            #[inline]
            fn varints(&self) -> impl Iterator<Item = u64> {
                core::iter::once(*self as u64)
            }
        }
    };
}

varint_record!(u16);
varint_record!(u32);
varint_record!(u64);
varint_record!(usize);

macro_rules! zigzag_record {
    ($ty:ty) => {
        impl Record for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                varint::encode(zigzag(*self as i64), out);
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let v = unzigzag(varint::decode(input)?);
                <$ty>::try_from(v).map_err(|_| CodecError::InvalidVarint)
            }

            const VARINTS: usize = 1;

            #[inline]
            fn varints(&self) -> impl Iterator<Item = u64> {
                core::iter::once(zigzag(*self as i64))
            }
        }
    };
}

zigzag_record!(i16);
zigzag_record!(i32);
zigzag_record!(i64);

impl Record for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let b = take(input, 4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Record for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let b = take(input, 8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_le_bytes(arr))
    }
}

impl Record for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl Record for String {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = varint::decode_len(input)?;
        if len > input.len() as u64 {
            return Err(CodecError::Truncated);
        }
        let bytes = take(input, len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

/// An owned byte string with a length-prefixed wire form.
///
/// `Blob` is byte-for-byte wire-compatible with both `String` (minus the
/// UTF-8 requirement) and `Vec<u8>`: a varint length followed by the raw
/// payload. It exists so binary payloads get a borrowed view —
/// [`crate::view::RecordView::decode_view`] yields `&[u8]` pointing
/// straight into the chunk, where `Vec<u8>`'s element-wise view would
/// iterate bytes one at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Blob(pub Vec<u8>);

impl Record for Blob {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_len(self.0.len(), out);
        out.extend_from_slice(&self.0);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = varint::decode_len(input)?;
        if len > input.len() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(Blob(take(input, len as usize)?.to_vec()))
    }
}

/// A `u32` with a fixed four-byte little-endian wire form.
///
/// The varint codecs optimize for *small* values; data whose values are
/// dense bit patterns (hash keys, bitset words, packed ids) pays 5–10
/// varint bytes per word *and* a data-dependent decode loop. The fixed
/// forms trade those bytes for a constant-size encoding, which is what
/// makes a sequence of them [`crate::view::FixedStride`]: random access
/// by offset multiplication and branch-free batch loops over chunk bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct FixedU32(pub u32);

/// A `u64` with a fixed eight-byte little-endian wire form.
///
/// See [`FixedU32`] for when to prefer the fixed forms over varints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct FixedU64(pub u64);

macro_rules! fixed_le_record {
    ($ty:ty, $inner:ty, $bytes:literal) => {
        impl Record for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.0.to_le_bytes());
            }

            // Inline, as the varint decoders are: random access
            // (`StrideSlice::get`, `SeqView::get`) decodes one record per
            // call, from the caller's crate.
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let b = take(input, $bytes)?;
                let mut arr = [0u8; $bytes];
                arr.copy_from_slice(b);
                Ok(Self(<$inner>::from_le_bytes(arr)))
            }
        }
    };
}

fixed_le_record!(FixedU32, u32, 4);
fixed_le_record!(FixedU64, u64, 8);

impl From<u32> for FixedU32 {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<u64> for FixedU64 {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl<T: Record> Record for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(CodecError::InvalidTag(t)),
        }
    }
}

impl<T: Record> Record for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::encode_len(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = varint::decode_len(input)?;
        // Each element consumes at least one byte, so a declared length
        // beyond the remaining input is corrupt, not just large.
        if len > input.len() as u64 {
            return Err(CodecError::LengthOverflow);
        }
        let mut items = Vec::with_capacity(len as usize);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

macro_rules! tuple_record {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Record),+> Record for ($($name,)+) {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }

            // Fields concatenate with no framing, so a tuple of varint
            // types is a varint sequence too.
            const VARINTS: usize = if true $(&& $name::VARINTS > 0)+ {
                0 $(+ $name::VARINTS)+
            } else {
                0
            };

            #[inline]
            fn varints(&self) -> impl Iterator<Item = u64> {
                core::iter::empty() $(.chain(self.$idx.varints()))+
            }
        }
    };
}

tuple_record!(A: 0);
tuple_record!(A: 0, B: 1);
tuple_record!(A: 0, B: 1, C: 2);
tuple_record!(A: 0, B: 1, C: 2, D: 3);
tuple_record!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_record!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl Record for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: Record>(v: T) -> Vec<u8> {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        buf
    }

    fn roundtrip<T: Record + PartialEq + fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty(), "decode must consume exactly the record");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(-1i64);
        roundtrip(0.0f32);
        roundtrip(-1234.5f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let mut buf = Vec::new();
        f64::NAN.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = f64::decode(&mut slice).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn string_roundtrips() {
        roundtrip(String::new());
        roundtrip("hello".to_string());
        roundtrip("héllo wörld — ünïcodé ✓".to_string());
        roundtrip("x".repeat(10_000));
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        varint::encode(2, &mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = buf.as_slice();
        assert_eq!(String::decode(&mut slice), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn blob_roundtrips_and_matches_string_wire_form() {
        roundtrip(Blob(Vec::new()));
        roundtrip(Blob(vec![0xff, 0x00, 0x80]));
        roundtrip(Blob(vec![7u8; 5_000]));
        // Blob("hi") and "hi".to_string() share a wire form.
        let mut a = Vec::new();
        Blob(b"hi".to_vec()).encode(&mut a);
        let mut b = Vec::new();
        "hi".to_string().encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_ints_roundtrip_at_constant_width() {
        roundtrip(FixedU32(0));
        roundtrip(FixedU32(u32::MAX));
        roundtrip(FixedU64(0));
        roundtrip(FixedU64(u64::MAX));
        // Unlike varints, width never depends on the value.
        assert_eq!(encoded(FixedU32(0)).len(), 4);
        assert_eq!(encoded(FixedU32(u32::MAX)).len(), 4);
        assert_eq!(encoded(FixedU64(1)).len(), 8);
        assert_eq!(encoded(FixedU64(u64::MAX)).len(), 8);
        roundtrip((FixedU32(7), FixedU64(1 << 60)));
        roundtrip(vec![FixedU64(3), FixedU64(u64::MAX), FixedU64(0)]);
        assert_eq!(FixedU64::from(9u64), FixedU64(9));
        assert_eq!(FixedU32::from(9u32), FixedU32(9));
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip((42u64, "ip".to_string()));
        roundtrip((1u32, 2i64, 3.5f64));
        roundtrip(Some((7u64, vec![1u8, 2, 3])));
        roundtrip(None::<u64>);
        roundtrip(vec![(1u64, "a".to_string()), (2, "b".to_string())]);
        // Nested tuples, the paper's example of composition.
        roundtrip(((1u64, 2u64), ("k".to_string(), vec![9u32])));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64, 6.0f64));
    }

    #[test]
    fn small_ints_encode_small() {
        assert_eq!(encoded(7u64).len(), 1);
        assert_eq!(encoded(-3i64).len(), 1);
        assert_eq!(encoded(300u64).len(), 2);
    }

    #[test]
    fn signed_range_check_on_decode() {
        // i64::MAX zig-zagged does not fit i16.
        let mut buf = Vec::new();
        i64::MAX.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(i16::decode(&mut slice), Err(CodecError::InvalidVarint));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut buf = Vec::new();
        (12345u64, "abcdef".to_string(), 2.5f64).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            let r = <(u64, String, f64)>::decode(&mut slice);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn vec_length_overflow_rejected() {
        let mut buf = Vec::new();
        varint::encode(u64::MAX, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(
            Vec::<u8>::decode(&mut slice),
            Err(CodecError::LengthOverflow)
        );
    }

    #[test]
    fn bool_rejects_bad_tag() {
        let mut slice: &[u8] = &[2];
        assert_eq!(bool::decode(&mut slice), Err(CodecError::InvalidTag(2)));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::RecordTooLarge {
            record: 100,
            chunk: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
    }
}
