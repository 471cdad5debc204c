//! The keyed-merge accumulator table: encoded key bytes → accumulator.
//!
//! One flat table per merge, laid out for the shape a cloned job's merge
//! actually has — about as many distinct keys as records per partial —
//! where a node-per-key map pays an allocation, a rehash-grown insert and
//! a free for every key:
//!
//! * **Arena** — every key's encoded bytes, appended back to back in
//!   arrival order. No per-key allocation; a key is a byte range.
//! * **Entries** — one `(key end offset, accumulator)` per distinct key,
//!   in *arrival order*. Entry `i`'s key starts where entry `i - 1`'s
//!   ends, so the drain is a sequential walk of two vectors and a partial
//!   written in key order is read back in key order.
//! * **Index** — a power-of-two open-addressing array of 8-byte slots,
//!   each a 32-bit hash tag plus a 32-bit entry number (0 = empty),
//!   linearly probed and kept at most half full. A probe compares tags
//!   first and touches an entry's key bytes only on a tag match. Growth
//!   rehashes from the slots alone — a slot's home position is the top
//!   bits of its tag — so it never re-reads a key.
//!
//! [`KeyTable::bytes`] is the exact size of those three parts, which is
//! what the spill budget of `merges::KeyedMerge` is compared against.

/// One distinct key's state: where its bytes end in the arena (they start
/// where the previous entry's end) and its accumulator. The accumulator
/// is an `Option` because a `merges::ViewFold` owns initialization; it is
/// `Some` from the first fold on.
struct Entry<V> {
    key_end: usize,
    value: Option<V>,
}

/// See the module doc.
pub(crate) struct KeyTable<V> {
    arena: Vec<u8>,
    entries: Vec<Entry<V>>,
    /// `tag << 32 | entry number + 1`, or 0 for an empty slot. Empty
    /// (no allocation) until the first insert.
    index: Vec<u64>,
    /// `32 - log2(index.len())`: a tag's home slot is `tag >> shift`.
    shift: u32,
}

/// Slots of the first index allocation.
const MIN_SLOTS: usize = 16;

/// Hashes a key's encoded bytes to the 32-bit tag the index stores.
///
/// Keys are short encoded records hashed once per record of every
/// partial, so the common lengths (≤ 8 bytes: every integer key) take one
/// branch-free load and one folded multiply — no per-call setup, no
/// byte loop. The fold (high half xor low half of the 128-bit product)
/// mixes every input bit into every tag bit, which the top-bits slot
/// choice relies on for dense integer keys.
fn tag_of(key: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    fn mix(x: u64) -> u64 {
        let m = u128::from(x).wrapping_mul(u128::from(K));
        (m as u64) ^ ((m >> 64) as u64)
    }
    fn word(b: &[u8]) -> u64 {
        // 1..=8 bytes as one word: overlapping reads of the two ends.
        let n = b.len();
        if n >= 4 {
            let lo = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(b[n - 4..].try_into().expect("4 bytes"));
            u64::from(hi) << 32 | u64::from(lo)
        } else {
            u64::from(b[0]) << 16 | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1])
        }
    }
    // Seeding with the length keeps a key distinct from its zero-padded
    // extensions.
    let mut h = mix(key.len() as u64 ^ K);
    let mut rest = key;
    while rest.len() > 8 {
        let (head, tail) = rest.split_at(8);
        h = mix(h ^ word(head));
        rest = tail;
    }
    if !rest.is_empty() {
        h = mix(h ^ word(rest));
    }
    (h >> 32) as u32
}

impl<V> KeyTable<V> {
    /// Creates an empty table; nothing is allocated until the first key.
    pub(crate) fn new() -> Self {
        Self {
            arena: Vec::new(),
            entries: Vec::new(),
            index: Vec::new(),
            shift: 32,
        }
    }

    /// Number of distinct keys held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact bytes the table's contents occupy: key arena, entries and
    /// index slots. Heap payloads *inside* an accumulator (a `Vec`
    /// value's elements) are not visible from here and are not counted,
    /// nor is the vectors' spare capacity.
    pub(crate) fn bytes(&self) -> u64 {
        (self.arena.len()
            + self.entries.len() * std::mem::size_of::<Entry<V>>()
            + self.index.len() * std::mem::size_of::<u64>()) as u64
    }

    /// The accumulator slot of `key`, inserted empty (`None`) in arrival
    /// order if the key is new.
    #[inline]
    pub(crate) fn slot(&mut self, key: &[u8]) -> &mut Option<V> {
        let tag = tag_of(key);
        let i = match self.find(tag, key) {
            Ok(i) => i,
            Err(pos) => self.insert(tag, key, pos),
        };
        &mut self.entries[i].value
    }

    /// Probes for `key`: its entry number, or the empty slot its probe
    /// sequence ended at.
    #[inline]
    fn find(&self, tag: u32, key: &[u8]) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut pos = (tag >> self.shift) as usize;
        loop {
            let s = self.index[pos];
            if s == 0 {
                return Err(pos);
            }
            if (s >> 32) as u32 == tag {
                let i = (s as u32 - 1) as usize;
                if self.key(i) == key {
                    return Ok(i);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Appends `key` as the next entry and points the empty slot `pos`
    /// (from [`Self::find`]) at it, growing the index first when the
    /// entry would take it past half full.
    fn insert(&mut self, tag: u32, key: &[u8], mut pos: usize) -> usize {
        let i = self.entries.len();
        // 2^31 keys half-fill the 2^32 slots a 32-bit tag can address.
        assert!(i < 1 << 31, "a keyed-merge table holds at most 2^31 keys");
        // A slot's low half holds i + 1; 0 means empty.
        let number = (i + 1) as u32;
        if (i + 1) * 2 > self.index.len() {
            self.grow();
            pos = self
                .find(tag, key)
                .expect_err("a key being inserted is not in the table");
        }
        self.arena.extend_from_slice(key);
        self.entries.push(Entry {
            key_end: self.arena.len(),
            value: None,
        });
        self.index[pos] = u64::from(tag) << 32 | u64::from(number);
        i
    }

    /// Doubles the index (or makes the first one) and re-homes every
    /// slot from its tag.
    #[cold]
    fn grow(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.index, vec![0; slots]);
        self.shift = 32 - slots.trailing_zeros();
        let mask = slots - 1;
        for s in old.into_iter().filter(|&s| s != 0) {
            let mut pos = ((s >> 32) as u32 >> self.shift) as usize;
            while self.index[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.index[pos] = s;
        }
    }

    /// Encoded bytes of the `i`-th key in arrival order.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |p| self.entries[p].key_end);
        &self.arena[start..self.entries[i].key_end]
    }

    /// Accumulator of the `i`-th key in arrival order.
    #[inline]
    pub(crate) fn value(&self, i: usize) -> &V {
        self.entries[i]
            .value
            .as_ref()
            .expect("every slot is folded into right after it is inserted")
    }

    /// Empties the table and releases its memory. The spill path drains
    /// one table many times, each time because it outgrew the budget: the
    /// next fill starts from nothing, counted as nothing.
    pub(crate) fn clear(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Applies `ops` (`key`, addend) to the table and to the model, then
    /// checks contents, arrival order and the byte account.
    fn check_against_model(table: &mut KeyTable<u64>, ops: &[(Vec<u8>, u64)]) {
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut arrival: Vec<Vec<u8>> = Vec::new();
        for (key, add) in ops {
            *table.slot(key).get_or_insert(0) += add;
            if model
                .insert(key.clone(), model.get(key).unwrap_or(&0) + add)
                .is_none()
            {
                arrival.push(key.clone());
            }
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        for (i, key) in arrival.iter().enumerate() {
            assert_eq!(table.key(i), &key[..], "entry {i} out of arrival order");
            assert_eq!(*table.value(i), model[key], "entry {i} accumulator");
        }
        let key_bytes: usize = arrival.iter().map(Vec::len).sum();
        assert_eq!(
            table.bytes() as usize,
            key_bytes + model.len() * std::mem::size_of::<Entry<u64>>() + table.index.len() * 8
        );
        assert!(model.is_empty() || table.index.len() >= 2 * model.len());
    }

    /// A key of one of the codec shapes a merge sees: `()` (zero bytes),
    /// a 1–8 byte integer, or a string longer than a word.
    fn key_of(shape: u8, n: u64, width: usize) -> Vec<u8> {
        match shape {
            0 => Vec::new(),
            1 => n.to_le_bytes()[..width].to_vec(),
            _ => format!("a-key-longer-than-one-word-{n}").into_bytes(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn agrees_with_hashmap_model_across_drains(
            rounds in prop::collection::vec(
                prop::collection::vec((0u8..3, 0u64..40, 1usize..9, 0u64..1000), 0..200),
                1..4,
            ),
        ) {
            // One table drained and refilled, as the spill path does.
            let mut table = KeyTable::new();
            for round in &rounds {
                let ops: Vec<(Vec<u8>, u64)> = round
                    .iter()
                    .map(|&(shape, n, width, add)| (key_of(shape, n, width), add))
                    .collect();
                check_against_model(&mut table, &ops);
                table.clear();
                prop_assert!(table.is_empty());
            }
        }
    }

    #[test]
    fn grows_through_many_index_resizes() {
        let mut table = KeyTable::new();
        assert_eq!(table.bytes(), 0, "an empty table owns nothing");
        let ops: Vec<(Vec<u8>, u64)> = (0..5000u64)
            .chain(0..5000)
            .map(|k| (k.to_le_bytes()[..3].to_vec(), k))
            .collect();
        check_against_model(&mut table, &ops);
        let resizes = (table.index.len() / MIN_SLOTS).trailing_zeros();
        assert!(resizes >= 3, "only {resizes} index resizes");
    }

    #[test]
    fn colliding_keys_stay_distinct() {
        // Adversarial keys: a few hundred sharing one home slot at every
        // index size up to 2^12 (equal top 12 tag bits), and pairs with
        // the whole 32-bit tag equal but different bytes.
        let mut by_tag: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut same_home = Vec::new();
        let mut same_tag = Vec::new();
        for n in 0u32..400_000 {
            let key = n.to_le_bytes().to_vec();
            let tag = tag_of(&key);
            if tag >> 20 == 0xABC {
                same_home.push(key.clone());
            }
            if let Some(other) = by_tag.insert(tag, key.clone()) {
                same_tag.extend([other, key]);
            }
        }
        assert!(
            same_home.len() >= 64,
            "found {} clustered keys",
            same_home.len()
        );
        assert!(!same_tag.is_empty(), "no full-tag collision in 400k keys");
        let ops: Vec<(Vec<u8>, u64)> = same_home
            .iter()
            .chain(&same_tag)
            .chain(&same_home)
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u64))
            .collect();
        let mut table = KeyTable::new();
        check_against_model(&mut table, &ops);
        table.clear();
        check_against_model(&mut table, &ops);
    }

    #[test]
    fn tag_separates_lengths_and_bytes() {
        assert_ne!(tag_of(b""), tag_of(b"\0"));
        assert_ne!(tag_of(b"a"), tag_of(b"b"));
        assert_ne!(tag_of(b"abc"), tag_of(b"abcd"));
        assert_ne!(tag_of(&[0; 3]), tag_of(&[0; 4]));
        assert_ne!(tag_of(&[0; 8]), tag_of(&[0; 9]));
        assert_ne!(tag_of(b"hurricane-1"), tag_of(b"hurricane-2"));
        assert_eq!(tag_of(b"hurricane"), tag_of(b"hurricane"));
    }
}
