//! Batch kernels over flat little-endian byte runs.
//!
//! The fixed-stride layout ([`crate::FixedStride`]) exists so that hot
//! loops can treat chunk payloads as flat arrays; these kernels are the
//! loops. Each one takes raw encoded bytes (a [`crate::SeqView`] payload
//! or a [`crate::StrideSlice`] byte run) and folds them whole.
//!
//! There are three because three have callers: word-wise OR and popcount
//! (ClickLog's region-bitset merge and count, through
//! [`crate::SeqView::or_into`] and [`crate::SeqView::popcount`]) and the
//! strided column gather (the hash join's probe keys, through
//! [`crate::StrideSlice::gather_prefix_u32_into`]). Each is one safe,
//! bounds-checked loop over `chunks_exact`, the same code on every
//! platform and in every build. The OR folds into the [`FixedU64`] words
//! the bitset merge accumulates, in place.
//!
//! Hand-written SSE2/AVX2 versions of these loops were measured against
//! them end to end and removed: four alternating 4 s pairs per workload
//! read `makespan_s` 0.166 s with the loops below against 0.171 s with
//! the intrinsics on `clicklog_skew` (loops faster 4/4), 0.168 against
//! 0.174 on `clicklog_uniform` (3/4) and 0.803 against 0.787 on
//! `hashjoin_skew` (2/4). A ClickLog job folds a few 512-word bitsets
//! per merge beside ten million record decodes, so the fold instruction
//! does not set its time.

use crate::codec::FixedU64;

/// ORs the little-endian `u64` words of `src` into `acc[..src.len()/8]`.
///
/// # Panics
///
/// Panics when `src.len()` is not a multiple of 8 or decodes to more
/// words than `acc` holds.
pub fn or_le64(acc: &mut [FixedU64], src: &[u8]) {
    let n = checked_words(src, 8);
    assert!(n <= acc.len(), "OR source ({n} words) exceeds accumulator");
    for (slot, w) in acc.iter_mut().zip(src.chunks_exact(8)) {
        slot.0 |= u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
    }
}

/// Counts the set bits across the little-endian `u64` words of `src`.
///
/// # Panics
///
/// Panics when `src.len()` is not a multiple of 8.
pub fn popcount_le64(src: &[u8]) -> u64 {
    checked_words(src, 8);
    src.chunks_exact(8)
        .map(|w| {
            u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")).count_ones()
                as u64
        })
        .sum()
}

/// Gathers the leading little-endian `u32` of every `stride`-byte record
/// in `src`, appending `src.len() / stride` values to `out` — the column
/// extraction that turns an interleaved fixed-stride run into a dense
/// key vector (e.g. the probe keys of a join's 12-byte tuples).
///
/// # Panics
///
/// Panics when `stride < 4` or `src.len()` is not a multiple of
/// `stride`.
pub fn gather_stride_u32(src: &[u8], stride: usize, out: &mut Vec<u32>) {
    assert!(stride >= 4, "stride {stride} cannot hold a u32 prefix");
    checked_words(src, stride);
    out.extend(
        src.chunks_exact(stride).map(|rec| {
            u32::from_le_bytes(rec[..4].try_into().expect("stride is at least 4 bytes"))
        }),
    );
}

/// Asserts `src` divides into `width`-byte words and returns the count.
fn checked_words(src: &[u8], width: usize) -> usize {
    assert!(
        src.len().is_multiple_of(width),
        "kernel input of {} bytes is not a whole number of {width}-byte words",
        src.len()
    );
    src.len() / width
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize) -> Vec<u8> {
        (0..n as u64)
            .flat_map(|i| hurricane_mix(i).to_le_bytes().into_iter())
            .collect()
    }

    fn hurricane_mix(mut x: u64) -> u64 {
        // SplitMix64 finalizer, inlined to keep this crate dependency-free.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn le_words(src: &[u8]) -> impl Iterator<Item = u64> + '_ {
        src.chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
    }

    #[test]
    fn or_matches_scalar_reference() {
        // Empty, one word, and lengths around every power of two a
        // blocked loop would split at.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100] {
            let src = words(n);
            let mut acc: Vec<FixedU64> = (0..n as u64)
                .map(|i| FixedU64(hurricane_mix(i ^ 0xA5A5)))
                .collect();
            let want: Vec<FixedU64> = acc
                .iter()
                .zip(le_words(&src))
                .map(|(a, w)| FixedU64(a.0 | w))
                .collect();
            or_le64(&mut acc, &src);
            assert_eq!(acc, want, "n = {n}");
        }
    }

    #[test]
    fn or_accepts_shorter_source() {
        let src = words(3);
        let mut acc = vec![FixedU64(!0); 5];
        or_le64(&mut acc, &src);
        assert_eq!(
            &acc[3..],
            &[FixedU64(!0), FixedU64(!0)],
            "words past the source untouched"
        );
    }

    #[test]
    fn popcount_matches_scalar_reference() {
        for n in [0usize, 1, 2, 3, 4, 5, 8, 15, 33, 64, 127] {
            let src = words(n);
            let want: u64 = le_words(&src).map(|w| w.count_ones() as u64).sum();
            assert_eq!(popcount_le64(&src), want, "n = {n}");
        }
    }

    #[test]
    fn gather_extracts_stride_prefixes() {
        for (stride, n) in [(4usize, 9usize), (12, 20), (17, 5), (8, 0)] {
            let src: Vec<u8> = (0..stride * n)
                .map(|i| hurricane_mix(i as u64) as u8)
                .collect();
            let mut got = vec![0xFFFF_FFFFu32]; // pre-existing content kept
            let mut want = got.clone();
            for i in 0..n {
                let at = i * stride;
                want.push(u32::from_le_bytes(src[at..at + 4].try_into().unwrap()));
            }
            gather_stride_u32(&src, stride, &mut got);
            assert_eq!(got, want, "stride {stride}, n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn ragged_input_panics() {
        popcount_le64(&[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "exceeds accumulator")]
    fn oversized_or_source_panics() {
        or_le64(&mut [FixedU64(0); 1], &[0u8; 16]);
    }
}
