//! Deterministic random number generation.
//!
//! Hurricane's data plane is intentionally randomized: chunk placement walks
//! a pseudorandom cyclic permutation of the storage nodes, batch sampling
//! probes random subsets, and every synthetic workload (Zipf click logs,
//! RMAT graphs) is sampled. To make experiments and tests reproducible, all
//! of that randomness flows through the generators in this module, seeded
//! explicitly and forked into labelled substreams — never through ambient
//! thread-local state.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and hashing.
//! * [`DetRng`] — a xoshiro256**-based generator with the convenience
//!   methods the rest of the workspace needs (ranges, floats, shuffles,
//!   permutations). It supports O(1) `fork`ing into statistically
//!   independent substreams, which lets each node / worker / bag derive its
//!   own stream from one experiment seed.

/// A SplitMix64 generator.
///
/// Used for seed expansion (turning one `u64` seed into many) and as a
/// cheap stateless hash. Passes BigCrush when used as a generator; its main
/// role here is producing well-distributed seeds for [`DetRng`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hashes `x` through one SplitMix64 round (stateless).
    ///
    /// This is the mixing function used to derive substream seeds and to map
    /// keys to pseudorandom values (e.g. the simulated geolocation function).
    pub const fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic xoshiro256** generator with forkable substreams.
///
/// # Examples
///
/// ```
/// use hurricane_common::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked substreams are independent of the parent and of each other.
/// let mut s1 = a.fork(1);
/// let mut s2 = a.fork(2);
/// assert_ne!(s1.next_u64(), s2.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
    seed: u64,
}

impl DetRng {
    /// Creates a generator from `seed`, expanding it via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // Xoshiro must not start in the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s, seed }
    }

    /// Returns the seed this generator was created from.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives a statistically independent substream labelled by `tag`.
    ///
    /// Forking is pure: it depends only on the original seed and the tag,
    /// not on how many values have been drawn from `self`, so components
    /// can fork their streams in any order without perturbing each other.
    pub fn fork(&self, tag: u64) -> DetRng {
        DetRng::new(SplitMix64::mix(self.seed ^ SplitMix64::mix(tag)))
    }

    /// Returns the next 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform value in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range requires n > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range_in requires lo < hi");
        lo + self.gen_range(hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Returns a pseudorandom permutation of `0..n`.
    ///
    /// This is the permutation that drives cyclic chunk placement across
    /// storage nodes (paper §3.3): each bag client walks its own permutation
    /// so load spreads uniformly without coordination.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Picks `k` distinct values uniformly from `0..n` (k ≤ n), in random
    /// order. Used by batch sampling to pick probe targets.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        // Partial Fisher–Yates: only the first k positions are needed.
        let mut p: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.gen_range((n - i) as u64) as usize;
            p.swap(i, j);
        }
        p.truncate(k);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be essentially disjoint");
    }

    #[test]
    fn fork_is_order_independent() {
        let rng = DetRng::new(123);
        let mut f1 = rng.fork(5);
        let mut rng2 = DetRng::new(123);
        rng2.next_u64(); // Drawing from the parent must not change forks.
        let mut f2 = rng2.fork(5);
        for _ in 0..16 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = DetRng::new(1);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let v = rng.gen_range(7);
            assert!(v < 7);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 7, "all residues should appear");
    }

    #[test]
    fn gen_range_unbiased_roughly() {
        let mut rng = DetRng::new(99);
        let n = 5u64;
        let trials = 100_000;
        let mut counts = [0u32; 5];
        for _ in 0..trials {
            counts[rng.gen_range(n) as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for c in counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = DetRng::new(11);
        for n in [0usize, 1, 2, 17, 64] {
            let p = rng.permutation(n);
            let set: HashSet<_> = p.iter().copied().collect();
            assert_eq!(p.len(), n);
            assert_eq!(set.len(), n);
            assert!(p.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn sample_distinct_yields_distinct() {
        let mut rng = DetRng::new(13);
        for _ in 0..100 {
            let s = rng.sample_distinct(32, 10);
            let set: HashSet<_> = s.iter().copied().collect();
            assert_eq!(set.len(), 10);
            assert!(s.iter().all(|&x| x < 32));
        }
    }

    #[test]
    fn splitmix_mix_is_stateless_and_stable() {
        assert_eq!(SplitMix64::mix(0), SplitMix64::mix(0));
        assert_ne!(SplitMix64::mix(1), SplitMix64::mix(2));
    }
}
