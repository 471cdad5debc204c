//! LEB128 variable-length integer encoding.
//!
//! Integer records and string/blob/vector length prefixes are unsigned
//! LEB128: seven payload bits per byte, continuation bit in the MSB, so
//! small values stay short. The wire form is fixed (`WIRE.md`); this
//! module only decides how fast it is produced and consumed, and it does
//! so without a branch on the value's length — on skewed keys, where
//! one-, two- and three-byte encodings mix, a per-byte loop's exit
//! branch mispredicts about once per varint.
//!
//! # Checked word decode
//!
//! [`decode`] loads eight bytes at once. `!word & 0x8080…` marks every
//! byte whose continuation bit is clear; the lowest mark is the
//! terminator, its `trailing_zeros` the length, `mark ^ (mark - 1)` the
//! mask of the encoding's own bytes, and three masked shift-merge steps
//! (`compact7`) pack the seven-bit lanes into the value. Finding a
//! terminator inside the loaded word is the *whole* validation:
//!
//! * **not truncated** — the terminator is one of eight bytes that are
//!   all inside the slice;
//! * **not overlong** — at most eight bytes, under [`MAX_VARINT_LEN`];
//! * **no overflow** — at most 8 × 7 = 56 payload bits, so the check on
//!   the tenth byte (`shift == 63 && payload > 1`) cannot apply.
//!
//! Everything else takes the per-byte loop (`decode_bytes`, the one
//! `#[cold]` slow path, unchanged from when it was the only decoder):
//! varints that start within eight bytes of the slice end, nine- and
//! ten-byte encodings, and every input that is rejected. Non-canonical
//! padded encodings (`80 00`) are accepted on both paths, as before. So
//! the accepted and rejected inputs, the error kinds and the bytes
//! consumed are exactly what they were.
//!
//! **Tail-guard rule** — an eight-byte load is issued only when the
//! slice holds at least eight bytes (`first_chunk`, a checked access), so
//! no byte past the slice is read, not even speculatively.
//!
//! # Runs
//!
//! One varint per load still leaves a load → length → next address →
//! load dependency per varint. A chunk of records pays it once per load
//! instead, in one of two shapes:
//!
//! * **Bare integers** — `decode_run` serves every varint that
//!   terminates inside a loaded word from that one load, walking the
//!   terminator marks. Several keys share a word, and on the keys the
//!   workloads store (uniform three-byte keys, or mostly short skewed
//!   ones) the number per word is regular enough to predict.
//! * **All-integer tuples** — `split_record::<ARITY>` serves one whole
//!   record from one load: it clears the lowest `ARITY - 1` marks to
//!   learn whether the record ends inside the word, then extracts each
//!   field with the same own-mask and `compact7` step, a fixed number of
//!   times. A word walk over tuples would run its inner loop as many
//!   times as varints happen to end in the word — two to four for
//!   R-MAT edges, with no pattern — and mispredict its exit about once
//!   per word; the record step has no data-dependent loop. A record
//!   that does not end inside the word (the tail, a record over eight
//!   bytes, a nine- or ten-byte field, malformed bytes) is decoded field
//!   by field with [`decode`] ([`crate::RecordView::decode_run`]).
//!
//! # Encode
//!
//! [`encode`] is the inverse: length from `leading_zeros`, `expand7`
//! spreading the value into seven-bit lanes, continuation bits from a
//! mask, one eight-byte store into spare capacity and `set_len`. Values
//! of 2^56 and up (nine or ten bytes) and buffers with fewer than eight
//! spare bytes take the per-byte `push` loop. Called on a `u16` or `u32`
//! the upper bits are known zero after inlining and the compiler drops
//! the spread steps that would move them. The emitted bytes are
//! unchanged.
//!
//! The run encoder (`encode_run`) writes a run of integer records, or of
//! all-integer tuples, under one capacity check: it reserves
//! [`MAX_VARINT_LEN`] bytes per value plus one store's reach, stores one
//! word per value (two for nine and ten bytes, so it has no per-byte
//! path) and sets the length once. [`crate::ChunkBuf::push_run`] calls
//! it for the records that surely fit the chunk.
//!
//! # What the constant cost costs
//!
//! The word paths take the same few nanoseconds whatever the length, and
//! that is the point: a key distribution cannot make them slow. A
//! per-byte loop is cheaper still when every length is one byte *and*
//! predictable (field tags, tiny counters), because the predictor then
//! hides the whole dependency; record integers give that case up. Length
//! prefixes do not — `encode_len` and `decode_len` keep a one-byte
//! shortcut, since lengths really are short and regular.

use crate::codec::{CodecError, Record};
use core::mem::MaybeUninit;

/// All continuation bits of an 8-byte word (bit 7 of every byte).
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// All payload bits of an 8-byte word (low seven bits of every byte).
const PAYLOAD_BITS: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Maximum encoded size of a `u64` varint (10 bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Longest encoding the word paths handle: eight bytes, 56 payload bits.
const WORD_LEN: usize = 8;

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
pub fn encode(value: u64, out: &mut Vec<u8>) {
    if value >> (7 * WORD_LEN) == 0 {
        if let Some(dst) = out.spare_capacity_mut().first_chunk_mut::<WORD_LEN>() {
            let (word, n) = join_word(value);
            *dst = word.to_le_bytes().map(MaybeUninit::new);
            let len = out.len();
            debug_assert!(len + n <= out.capacity());
            // SAFETY: the eight bytes after `len` were just initialised
            // inside the spare capacity, and `n <= 8` of them are kept.
            unsafe { out.set_len(len + n) };
            return;
        }
    }
    encode_bytes(value, out)
}

/// The word step of the encoders, [`split_word`]'s inverse: the
/// encoding of `value < 2^56` as the low bytes of a little-endian word,
/// and how many of them it is.
#[inline(always)]
fn join_word(value: u64) -> (u64, usize) {
    debug_assert!(value >> (7 * WORD_LEN) == 0);
    let n = encoded_len(value);
    // A continuation bit on every byte before the last.
    let cont = CONT_BITS & !(u64::MAX << (8 * (n - 1)));
    (expand7(value) | cont, n)
}

/// How far past the start of its encoding a value's stores reach in
/// [`encode_run`]: two words for nine and ten bytes.
const RUN_REACH: usize = 2 * WORD_LEN;

/// The spare capacity [`encode_run`] takes for `count` values: the last
/// one starts at most `count - 1` maximal encodings in, and its stores
/// reach [`RUN_REACH`] bytes past that.
const fn run_room(count: usize) -> usize {
    count * MAX_VARINT_LEN + (RUN_REACH - MAX_VARINT_LEN)
}

/// Appends the encodings of `records`, each [`Record::VARINTS`] varints
/// long: the run form of a loop of [`Record::encode`] calls, with the
/// same bytes.
///
/// One capacity check covers the run ([`run_room`] for every varint of
/// it, so a buffer that already has that room never reallocates), every
/// value is one eight-byte store (two for nine and ten bytes) and the
/// length is set once at the end. Nothing about the records is trusted:
/// each value advances the cursor by its own length, at most
/// [`MAX_VARINT_LEN`], and no record gives more than `VARINTS` values.
#[inline]
pub(crate) fn encode_run<R: Record>(records: &[R], out: &mut Vec<u8>) {
    let room = run_room(records.len() * R::VARINTS);
    out.reserve(room);
    let len = out.len();
    // Every store goes through this pointer, whose provenance is the
    // `room` spare bytes (the slice panics if there are fewer).
    let dst = out.spare_capacity_mut()[..room].as_mut_ptr().cast::<u8>();
    let mut at = 0;
    for record in records {
        for value in record.varints().take(R::VARINTS) {
            debug_assert!(at + RUN_REACH <= room);
            let low = value & ((1 << (7 * WORD_LEN)) - 1);
            if low == value {
                let (word, n) = join_word(value);
                // SAFETY: fewer than `records.len() * VARINTS` values came
                // before this one, each advancing `at` by at most
                // MAX_VARINT_LEN, so `at + RUN_REACH <= room`: the store
                // stays inside the spare bytes `dst` points into.
                unsafe { dst.add(at).cast::<u64>().write_unaligned(word.to_le()) };
                at += n;
            } else {
                // Nine or ten bytes: the low 56 bits as eight continued
                // bytes, then what is left (one or two bytes) as a varint.
                let (tail, n) = join_word(value >> (7 * WORD_LEN));
                // SAFETY: as above; the two stores cover `at..at + RUN_REACH`.
                unsafe {
                    dst.add(at)
                        .cast::<u64>()
                        .write_unaligned((expand7(low) | CONT_BITS).to_le());
                    dst.add(at + WORD_LEN)
                        .cast::<u64>()
                        .write_unaligned(tail.to_le());
                }
                at += WORD_LEN + n;
            }
        }
    }
    // SAFETY: `at <= records.len() * VARINTS * MAX_VARINT_LEN <= room`
    // bytes past `len` are in the spare capacity, and each value's stores
    // initialised the bytes from its start to at least its end, so
    // `len..len + at` is initialised.
    unsafe { out.set_len(len + at) };
}

/// The per-byte encoder: nine- and ten-byte encodings, and buffers with
/// fewer than eight spare bytes.
#[cold]
fn encode_bytes(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Returns the encoded length of `value` without encoding it.
#[inline]
pub fn encoded_len(value: u64) -> usize {
    // ceil(bits / 7) for 1..=64 significant bits (zero counts as one) is
    // (9 * bits + 64) / 64: no division and no branch on the value.
    let bits = 64 - (value | 1).leading_zeros() as usize;
    (9 * bits + 64) >> 6
}

/// Loads the first eight bytes of `input` as a little-endian word, or
/// `None` within eight bytes of its end (the tail-guard rule).
#[inline(always)]
fn load_word(input: &[u8]) -> Option<u64> {
    input
        .first_chunk::<WORD_LEN>()
        .map(|bytes| u64::from_le_bytes(*bytes))
}

/// The word step of [`decode`]: the value and encoded length of the
/// varint at the low end of `word`, or `None` when all eight bytes carry
/// continuation bits (a nine- or ten-byte encoding, or garbage).
#[inline(always)]
fn split_word(word: u64) -> Option<(u64, usize)> {
    let term = !word & CONT_BITS;
    if term == 0 {
        return None;
    }
    // The lowest mark is bit 7 of the terminating byte; `own` is every
    // bit up to and including it.
    let len = (term.trailing_zeros() as usize >> 3) + 1;
    let own = term ^ (term - 1);
    Some((compact7(word & own & PAYLOAD_BITS), len))
}

/// Compacts the eight 7-bit payload lanes of `x` (one per byte,
/// continuation bits already cleared) into the low 56 bits: three
/// masked shift-merge steps take 8×7-bit lanes to 4×14, 2×28, 1×56.
#[inline]
const fn compact7(x: u64) -> u64 {
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Inverse of [`compact7`]: spreads the low 56 bits of `x` into eight
/// 7-bit lanes, one per byte, continuation bits clear.
#[inline]
const fn expand7(x: u64) -> u64 {
    let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1)
}

/// Decodes a LEB128 value from the front of `input`, advancing it.
///
/// Rejects encodings longer than [`MAX_VARINT_LEN`] and encodings whose
/// final byte overflows 64 bits, so every `u64` has exactly one accepted
/// canonical-length ceiling.
#[inline]
pub fn decode(input: &mut &[u8]) -> Result<u64, CodecError> {
    let (value, len) = match load_word(input).and_then(split_word) {
        Some(hit) => hit,
        None => decode_bytes(input)?,
    };
    *input = &input[len..];
    Ok(value)
}

/// The per-byte validating decoder: varints that start within eight
/// bytes of the slice end, nine- and ten-byte encodings, and every
/// rejected input. Returns the value and its encoded length; taking the
/// slice by value keeps the caller's cursor in registers.
#[cold]
fn decode_bytes(input: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(CodecError::InvalidVarint);
        }
        let payload = (byte & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return Err(CodecError::InvalidVarint);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::Truncated)
}

/// Decodes back-to-back varints until `input` is empty, handing each
/// value to `f` and returning how many there were. Accepts and rejects
/// exactly what a loop of [`decode`] calls would, in the same order; on
/// an error (the decoder's or `f`'s) the position of `input` is
/// unspecified.
#[inline]
pub(crate) fn decode_run<E: From<CodecError>>(
    input: &mut &[u8],
    mut f: impl FnMut(u64) -> Result<(), E>,
) -> Result<u64, E> {
    let mut count = 0;
    while !input.is_empty() {
        // Within eight bytes of the end there is no word; all-ones reads
        // as "no terminator here", the same per-byte step a nine- or
        // ten-byte encoding takes.
        let word = load_word(input).unwrap_or(u64::MAX);
        let mut term = !word & CONT_BITS;
        if term == 0 {
            let (value, len) = decode_bytes(input)?;
            f(value)?;
            count += 1;
            *input = &input[len..];
            continue;
        }
        // Every varint that terminates inside the word, lowest first;
        // the next load starts after the last of them.
        let used = WORD_LEN - (term.leading_zeros() as usize >> 3);
        let mut start = 0;
        while term != 0 {
            let own = term ^ (term - 1);
            f(compact7(((word & own) >> start) & PAYLOAD_BITS))?;
            count += 1;
            start = term.trailing_zeros() + 1;
            term &= term - 1;
        }
        *input = &input[used..];
    }
    Ok(count)
}

/// The values and byte length of the `ARITY` back-to-back varints at
/// the front of `input`, from one eight-byte load, or `None` unless all
/// of them terminate inside that word: within eight bytes of the end
/// (the tail-guard rule), a record longer than eight bytes, a nine- or
/// ten-byte field, and malformed bytes. Accepts nothing [`decode`]
/// rejects: each value is one of its word-path hits.
#[inline(always)]
pub(crate) fn split_record<const ARITY: usize>(input: &[u8]) -> Option<([u64; ARITY], usize)> {
    let word = load_word(input)?;
    let mut term = !word & CONT_BITS;
    // Clearing the lowest ARITY - 1 marks leaves the last field's.
    let mut last = term;
    for _ in 1..ARITY {
        last &= last.wrapping_sub(1);
    }
    if last == 0 {
        return None;
    }
    let mut start = 0;
    let values = core::array::from_fn(|_| {
        let own = term ^ (term - 1);
        let value = compact7(((word & own) >> start) & PAYLOAD_BITS);
        start = term.trailing_zeros() + 1;
        term &= term - 1;
        value
    });
    Some((values, (last.trailing_zeros() as usize >> 3) + 1))
}

/// Appends a length prefix (`String`, `Blob`, `Vec`).
///
/// Lengths differ from record integers in two ways: nearly all are
/// under 128, so one byte and predictably so; and a decoded length's
/// *value*, not only its encoded size, decides the next address. So
/// `encode_len` and `decode_len` put a one-byte shortcut in front of the
/// general paths — same bytes, same accepted inputs.
#[inline]
pub(crate) fn encode_len(len: usize, out: &mut Vec<u8>) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        encode(len as u64, out);
    }
}

/// [`decode`] for a length prefix; see [`encode_len`].
#[inline]
pub(crate) fn decode_len(input: &mut &[u8]) -> Result<u64, CodecError> {
    match input.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *input = rest;
            Ok(byte as u64)
        }
        _ => decode(input),
    }
}

#[cfg(test)]
mod tests {
    //! The per-byte loops (`decode_bytes`, `encode_bytes`) are the bodies
    //! `decode` and `encode` had before the word paths existed, kept as
    //! the cold paths; the equivalence tests below use them as the
    //! reference the word paths must match.

    use super::*;
    use crate::codec::Record;
    use proptest::prelude::*;

    fn encoded(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_bytes(v, &mut buf);
        buf
    }

    /// `2^(7k) - 1`, `2^(7k)`, `2^(7k) + 1` for every length boundary,
    /// plus the width and word-path edges.
    fn edge_values() -> Vec<u64> {
        let mut values = vec![0, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for k in 1..=9 {
            let p = 1u64 << (7 * k);
            values.extend([p - 1, p, p + 1]);
        }
        values
    }

    /// Runs every decoder on `bytes` and checks them against the
    /// per-byte reference: same value or error kind, same remainder.
    fn check_decoders(bytes: &[u8]) {
        // An exact-size allocation, so a read past the end is out of
        // bounds for Miri and not just for the slice.
        let exact: Box<[u8]> = bytes.into();
        let want = decode_bytes(&exact);
        for checked in [decode, decode_len] {
            let mut at = &exact[..];
            let got = checked(&mut at);
            assert_eq!(got, want.map(|(v, _)| v), "bytes {bytes:02x?}");
            let consumed = want.map_or(0, |(_, len)| len);
            assert_eq!(at, &exact[consumed..], "remainder of {bytes:02x?}");
        }
        if let Ok((value, len)) = want {
            assert!(encoded_len(value) <= len, "never shorter than canonical");
        }
    }

    /// `decode_run` against a loop of reference decodes: the same values
    /// in the same order, then the same count or the same error.
    fn check_run(bytes: &[u8]) {
        let exact: Box<[u8]> = bytes.into();
        let mut want = Vec::new();
        let mut at = &exact[..];
        let want_end = loop {
            if at.is_empty() {
                break Ok(want.len() as u64);
            }
            match decode_bytes(at) {
                Ok((value, len)) => {
                    want.push(value);
                    at = &at[len..];
                }
                Err(e) => break Err(e),
            }
        };
        let mut got = Vec::new();
        let got_end = decode_run(&mut &exact[..], |v| {
            got.push(v);
            Ok::<(), CodecError>(())
        });
        assert_eq!(got, want, "bytes {bytes:02x?}");
        assert_eq!(got_end, want_end, "bytes {bytes:02x?}");
    }

    #[test]
    fn roundtrips_edge_values() {
        for v in edge_values() {
            let mut buf = Vec::new();
            encode(v, &mut buf);
            assert_eq!(buf.len(), encoded_len(v), "length mismatch for {v}");
            let mut slice = buf.as_slice();
            assert_eq!(decode(&mut slice).unwrap(), v);
            assert!(slice.is_empty(), "decode must consume exactly the varint");
        }
    }

    #[test]
    fn decode_leaves_trailing_bytes() {
        let mut buf = Vec::new();
        encode(300, &mut buf);
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let mut slice = buf.as_slice();
        assert_eq!(decode(&mut slice).unwrap(), 300);
        assert_eq!(slice, &[0xAA, 0xBB]);
    }

    #[test]
    fn truncated_input_errors() {
        let mut slice: &[u8] = &[0x80, 0x80];
        assert_eq!(decode(&mut slice), Err(CodecError::Truncated));
        let mut empty: &[u8] = &[];
        assert_eq!(decode(&mut empty), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let mut slice: &[u8] = &[0x80; 11];
        assert_eq!(decode(&mut slice), Err(CodecError::InvalidVarint));
        // A 10th byte with payload > 1 overflows 64 bits.
        let mut overflow: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(decode(&mut overflow), Err(CodecError::InvalidVarint));
    }

    #[test]
    fn decoders_match_the_reference_at_every_tail_distance() {
        let mut cases: Vec<Vec<u8>> = edge_values().into_iter().map(encoded).collect();
        cases.extend([
            vec![],
            vec![0x80, 0x00],                            // 0, padded
            vec![0x81, 0x00],                            // 1, padded
            vec![0xff, 0x80, 0x00],                      // 0x7f, padded
            vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x00],    // 0 in six bytes
            [&[0x85][..], &[0x80; 7], &[0x00]].concat(), // 5 in nine bytes
            [&[0x85][..], &[0x80; 8], &[0x00]].concat(), // 5 in ten bytes
            [&[0xff; 9][..], &[0x02]].concat(),          // tenth byte overflows
            vec![0x80; 10],                              // ten bytes, no terminator
            vec![0x80; 11],                              // eleven continuation bytes
            vec![0x80, 0x80],                            // truncated
        ]);
        for case in &cases {
            // The varint at every distance 0..=16 from the slice end: the
            // word paths (slack after it) and the tail guard (none). The
            // continuation-bit padding also turns each case into the
            // prefix of a longer, differently judged input.
            for pad in 0..=16 {
                for fill in [0x00, 0x6e, 0xee] {
                    let mut bytes = case.clone();
                    bytes.resize(case.len() + pad, fill);
                    check_decoders(&bytes);
                    check_run(&bytes);
                }
            }
        }
    }

    #[test]
    fn encode_matches_the_reference_at_any_spare_capacity() {
        for v in edge_values() {
            let want = encoded(v);
            assert_eq!(encoded_len(v), want.len(), "encoded_len of {v}");
            // 0, 1 and 7 spare bytes take the per-byte path, 8 and up the
            // word store; a non-empty prefix must survive both.
            for spare in [0, 1, 7, 8, 9, 64] {
                let mut buf = Vec::with_capacity(3 + spare);
                buf.extend_from_slice(&[0xde, 0xad, 0xbe]);
                encode(v, &mut buf);
                assert_eq!(&buf[..3], &[0xde, 0xad, 0xbe]);
                assert_eq!(&buf[3..], &want[..], "value {v}, {spare} spare bytes");
                if let Ok(len) = usize::try_from(v) {
                    buf.truncate(3);
                    encode_len(len, &mut buf);
                    assert_eq!(&buf[3..], &want[..], "length {len}");
                }
            }
        }
    }

    #[test]
    fn narrow_types_reject_wide_values_on_every_path() {
        // Five bytes, a terminator inside the first word, and a value one
        // past u32::MAX: the word path decodes it, the width check fails.
        let mut bytes = encoded(u32::MAX as u64 + 1);
        assert_eq!(bytes.len(), 5);
        bytes.resize(16, 0x00);
        assert_eq!(u32::decode(&mut &bytes[..]), Err(CodecError::InvalidVarint));
        assert_eq!(
            u32::decode(&mut &bytes[..5]),
            Err(CodecError::InvalidVarint)
        );
        let chunk = crate::Chunk::from_vec(bytes);
        let run = crate::for_each_view::<u32, _>(&chunk, |_| ());
        assert_eq!(run, Err(CodecError::InvalidVarint));
        assert_eq!(crate::for_each_view::<u64, _>(&chunk, |_| ()), Ok(12));
    }

    /// The run encoder into an exact-capacity `Vec`, at every run length
    /// up to 24 and with values of every encoded length, the ten-byte
    /// ones last where their second store reaches furthest: a store past
    /// the reserved room is an out-of-bounds write under Miri, not only a
    /// wrong byte. Small enough for the CI `miri` job.
    #[test]
    fn encode_run_stays_inside_its_room() {
        let mut values = edge_values();
        values.sort_unstable();
        for count in 0..=24 {
            for (shift, prefix) in [(0, 0), (7, 3), (57, 1)] {
                let take: Vec<u64> = values[values.len() - count..]
                    .iter()
                    .map(|v| v >> shift)
                    .collect();
                let mut want = vec![0xa5; prefix];
                take.iter().for_each(|&v| encode_bytes(v, &mut want));
                let mut out = Vec::with_capacity(prefix + run_room(count));
                out.resize(prefix, 0xa5);
                let cap = out.capacity();
                encode_run(&take, &mut out);
                assert_eq!(out, want, "{count} values >> {shift}");
                assert_eq!(out.capacity(), cap, "the run must not reallocate");
                let pairs: Vec<(u64, u64)> = take.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                let mut out = Vec::with_capacity(run_room(2 * pairs.len()));
                encode_run(&pairs, &mut out);
                assert_eq!(&out[..], &want[prefix..prefix + out.len()], "pairs");
            }
        }
    }

    /// A record that claims one varint and yields three: the run takes
    /// only the one, so the reserved room still bounds every store.
    #[test]
    fn encode_run_takes_no_more_varints_than_declared() {
        struct Liar;
        impl Record for Liar {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(1);
            }
            fn decode(_: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(Liar)
            }
            const VARINTS: usize = 1;
            fn varints(&self) -> impl Iterator<Item = u64> {
                [1, u64::MAX, u64::MAX].into_iter()
            }
        }
        let mut out = Vec::with_capacity(run_room(4));
        encode_run(&[Liar, Liar, Liar, Liar], &mut out);
        assert_eq!(out, [1, 1, 1, 1]);
    }

    #[test]
    fn compact7_and_expand7_are_inverses() {
        assert_eq!(compact7(0x0100), 1 << 7, "lane i lands at bit 7 * i");
        assert_eq!(compact7(PAYLOAD_BITS), (1u64 << 56) - 1);
        for v in edge_values() {
            let v = v & ((1 << 56) - 1);
            assert_eq!(expand7(v) & CONT_BITS, 0);
            assert_eq!(compact7(expand7(v)), v);
        }
    }

    proptest! {
        // Miri runs these too (the CI `miri` job); it is ~100x slower.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 1024 }))]

        /// Arbitrary bytes: mostly malformed, with terminators wherever
        /// chance puts them.
        #[test]
        fn arbitrary_bytes_decode_like_the_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            check_decoders(&bytes);
            check_run(&bytes);
        }

        /// Well-formed runs of every length mix, then cut anywhere.
        #[test]
        fn value_runs_decode_like_the_reference(
            values in prop::collection::vec((any::<u64>(), 0u32..64), 0..24),
            cut in 0usize..8,
        ) {
            let mut bytes = Vec::new();
            for &(v, shift) in &values {
                let before = bytes.clone();
                encode(v >> shift, &mut bytes);
                let mut want = before;
                encode_bytes(v >> shift, &mut want);
                prop_assert_eq!(&bytes, &want);
            }
            bytes.truncate(bytes.len().saturating_sub(cut));
            check_decoders(&bytes);
            check_run(&bytes);
        }
    }
}
