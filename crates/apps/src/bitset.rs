//! A growable bitset with a chunk-friendly wire form.
//!
//! ClickLog's Phase 2 represents the set of distinct IPs as a bitset
//! (paper Figure 3: `distinct |= ip`), and its merge is a word-wise OR of
//! partial bitsets. The wire form is `Vec<FixedU64>` words: a populated
//! bitset's words are dense bit patterns that varints would spend 9–10
//! bytes (and a data-dependent decode loop) on, while the fixed form is
//! eight flat little-endian bytes per word — constant-stride, so the
//! Phase 3 bit count and the Phase 2 OR-merge run branch-free loops over
//! the word views ([`hurricane_format::FixedStride`]).

use hurricane_format::{FixedU64, SeqView};

/// A fixed-capacity bitset indexed by `u32` keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitset with room for `bits` bits preallocated.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Sets bit `i`, growing as needed.
    pub fn set(&mut self, i: u32) {
        let word = (i / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    /// Returns whether bit `i` is set.
    pub fn get(&self, i: u32) -> bool {
        let word = (i / 64) as usize;
        self.words
            .get(word)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of set bits (the distinct count of ClickLog's Phase 3).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Word-wise OR with another bitset — the Phase 2 merge
    /// (`output.insert(partial1 | partial2)`).
    pub fn or_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Consumes into the fixed-stride wire form (see the module docs).
    pub fn into_fixed_words(self) -> Vec<FixedU64> {
        self.words.into_iter().map(FixedU64).collect()
    }

    /// Builds from the fixed-stride wire form.
    pub fn from_fixed_words(words: Vec<FixedU64>) -> Self {
        Self {
            words: words.into_iter().map(|w| w.0).collect(),
        }
    }

    /// ORs a borrowed word-sequence view into an owned accumulator — the
    /// Phase 2 merge fold for `hurricane_core::merges::ReduceMerge::
    /// folding`: the partial bitset is read straight out of the chunk
    /// through the word-OR kernel (`hurricane_format::kernels`), never
    /// materialized as an owned `Vec`.
    pub fn or_fixed_words_into(acc: &mut Vec<FixedU64>, words: SeqView<'_, FixedU64>) {
        words.or_into(acc);
    }

    /// Counts the set bits of a borrowed fixed-word view — Phase 3's
    /// per-record fold, running the popcount kernel over the eight-byte
    /// little-endian words in place.
    pub fn count_fixed_words(words: SeqView<'_, FixedU64>) -> u64 {
        words.popcount()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut bs = BitSet::new();
        assert!(!bs.get(100));
        bs.set(0);
        bs.set(63);
        bs.set(64);
        bs.set(1000);
        assert!(bs.get(0) && bs.get(63) && bs.get(64) && bs.get(1000));
        assert!(!bs.get(1));
        assert_eq!(bs.count(), 4);
    }

    #[test]
    fn duplicate_sets_are_idempotent() {
        let mut bs = BitSet::new();
        bs.set(42);
        bs.set(42);
        assert_eq!(bs.count(), 1);
    }

    #[test]
    fn or_merges_distinct_sets() {
        let mut a = BitSet::new();
        a.set(1);
        a.set(100);
        let mut b = BitSet::new();
        b.set(2);
        b.set(100);
        b.set(5000);
        a.or_with(&b);
        assert_eq!(a.count(), 4);
        assert!(a.get(5000));
    }

    #[test]
    fn or_words_handles_length_mismatch() {
        // The shorter side is padded with zero words, either way round.
        let short = BitSet::from_fixed_words(vec![FixedU64(0b1)]);
        let long = BitSet::from_fixed_words(vec![FixedU64(0b10), FixedU64(0b100)]);
        let want = vec![FixedU64(0b11), FixedU64(0b100)];
        let mut a = short.clone();
        a.or_with(&long);
        assert_eq!(a.into_fixed_words(), want);
        let mut b = long;
        b.or_with(&short);
        assert_eq!(b.into_fixed_words(), want);
    }

    #[test]
    fn wire_roundtrip() {
        let mut bs = BitSet::with_capacity(256);
        bs.set(7);
        bs.set(200);
        let fixed = bs.clone().into_fixed_words();
        assert_eq!(BitSet::from_fixed_words(fixed), bs);
    }

    #[test]
    fn fixed_word_fold_matches_owned_or() {
        use hurricane_format::{Record, RecordView};
        let mut a = BitSet::new();
        a.set(1);
        a.set(100);
        let mut b = BitSet::new();
        b.set(2);
        b.set(5000);
        // Encode b's fixed words, view them, and OR into a's words.
        let b_words = b.clone().into_fixed_words();
        let mut buf = Vec::new();
        b_words.encode(&mut buf);
        let mut slice = buf.as_slice();
        let view = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        let mut acc = a.clone().into_fixed_words();
        BitSet::or_fixed_words_into(&mut acc, view);
        let merged = BitSet::from_fixed_words(acc);
        let mut expect = a.clone();
        expect.or_with(&b);
        assert_eq!(merged, expect);
        // And the borrowed count agrees with the owned count.
        let mut buf = Vec::new();
        merged.clone().into_fixed_words().encode(&mut buf);
        let mut slice = buf.as_slice();
        let view = Vec::<FixedU64>::decode_view(&mut slice).unwrap();
        assert_eq!(BitSet::count_fixed_words(view), expect.count());
    }
}
