//! Zipf sampling and region-mass analysis.
//!
//! The paper's skew knob is a Zipf distribution with parameter
//! `s ∈ {0, 0.2, 0.5, 0.8, 1.0}` over a key range that is then split into
//! equal adjacent ranges ("regions"). [`ZipfSampler`] draws keys exactly
//! (inverse-CDF over the precomputed mass table); [`region_masses`]
//! computes the expected fraction of records landing in each region, which
//! the simulator uses directly instead of materializing terabytes of
//! records.
//!
//! # The guide table
//!
//! A draw maps a uniform `u ∈ [0, 1)` to the first key whose CDF value is
//! not below `u`. A binary search over the whole `8n`-byte CDF takes
//! `log2 n` steps, each a cache miss once the table outgrows the cache
//! (18 of them at the benchmark's 2^18 keys). [`ZipfSampler`] keeps a
//! guide table beside it (Chen & Asau 1974, indexed search): `m + 1`
//! `u32` entries, `m` the power of two `n.next_power_of_two() / 4` (at
//! least 1), where entry `j` is the number of CDF values below `j / m`.
//! A draw reads bucket `j = ⌊u·m⌋` and searches only
//! `cdf[guide[j]..guide[j + 1]]`.
//!
//! The answer is the one the full search gives, for every `u`. Scaling
//! by a power of two is exact in `f64`, so `j / m ≤ u < (j + 1) / m`
//! holds exactly. The CDF is non-decreasing, so every value before
//! `guide[j]` is below `j / m` and hence below `u`, and every value from
//! `guide[j + 1]` on is at least `(j + 1) / m` and hence not below `u`.
//! The full search's answer therefore lies in the bucket's range, where
//! the narrow search finds it.
//!
//! The table costs `4(m + 1)` bytes beside the CDF's `8n`; as
//! `m ≤ max(n / 2, 1)`, that is about a quarter of the CDF at most. Each
//! bucket spans `1 / m` of probability, so at `s = 0` a bucket holds
//! `n / m ≤ 4` keys, and a draw costs one guide load, one CDF cache line
//! and a search of two or three steps, whatever `n` is. Under skew the
//! dense head buckets hold fewer keys (many share one), and the light
//! tail buckets hold more but are seldom drawn.

use hurricane_common::DetRng;

/// An exact Zipf(s) sampler over keys `0..n`.
///
/// Key `k` (0-based) has probability proportional to `(k + 1)^-s`.
/// `s = 0` is the uniform distribution; `s = 1` is the paper's "high
/// skew" setting.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// `guide[j]` is the number of CDF values below `j / m`, for
    /// `j ∈ 0..=m` (`m = guide.len() - 1`, a power of two).
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` keys with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX`, or if `s` is negative or not
    /// finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one key");
        assert!(u32::try_from(n).is_ok(), "Zipf keys must fit a u32");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating point drift at the top end.
        *cdf.last_mut().expect("n > 0") = 1.0;
        // One merge pass: bucket edges `j / m` rise with `j`, so the count
        // of CDF values below each edge only moves forward.
        let m = (n.next_power_of_two() / 4).max(1);
        let mut guide = Vec::with_capacity(m + 1);
        let mut below = 0;
        for j in 0..=m {
            let edge = j as f64 / m as f64;
            while below < n && cdf[below] < edge {
                below += 1;
            }
            guide.push(below as u32);
        }
        Self { cdf, guide }
    }

    /// Number of keys.
    pub fn num_keys(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.index_of(rng.gen_f64())
    }

    /// The key `u ∈ [0, 1)` maps to: the first whose CDF value is not
    /// below `u`, searched for in `u`'s guide bucket only.
    fn index_of(&self, u: f64) -> usize {
        let m = self.guide.len() - 1;
        let j = (u * m as f64) as usize;
        // Every guide entry is below `n`: the last CDF value is 1.0, which
        // is not below any edge, so the answer is always a key.
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }

    /// Probability of key `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Total probability mass of keys in `[lo, hi)`.
    pub fn mass(&self, lo: usize, hi: usize) -> f64 {
        if lo >= hi {
            return 0.0;
        }
        let upper = self.cdf[hi - 1];
        let lower = if lo == 0 { 0.0 } else { self.cdf[lo - 1] };
        upper - lower
    }
}

/// Expected fraction of records in each of `regions` equal adjacent key
/// ranges under Zipf(`s`) over `num_keys` keys — the paper's partitioning
/// scheme ("we generate partitions by dividing the key range into equal
/// parts, so that adjacent keys are placed in each partition").
///
/// # Panics
///
/// Panics if `regions == 0` or `regions > num_keys`.
pub fn region_masses(num_keys: usize, regions: usize, s: f64) -> Vec<f64> {
    assert!(regions > 0 && regions <= num_keys);
    let sampler = ZipfSampler::new(num_keys, s);
    let mut out = Vec::with_capacity(regions);
    for r in 0..regions {
        let lo = r * num_keys / regions;
        let hi = (r + 1) * num_keys / regions;
        out.push(sampler.mass(lo, hi));
    }
    out
}

/// Ratio of the largest to the smallest region mass — the paper's
/// "imbalance between the largest and smallest region".
pub fn imbalance(masses: &[f64]) -> f64 {
    let max = masses.iter().copied().fold(f64::MIN, f64::max);
    let min = masses.iter().copied().fold(f64::MAX, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Fraction of all records in the largest region (19.6 % at s = 1 in the
/// paper's configuration).
pub fn largest_fraction(masses: &[f64]) -> f64 {
    let total: f64 = masses.iter().sum();
    let max = masses.iter().copied().fold(f64::MIN, f64::max);
    max / total
}

/// Amdahl's-law best-case speedup when the largest region is the serial
/// fraction (paper §5.1): `1 / (f + (1 - f)/machines)`.
pub fn amdahl_speedup(largest_fraction: f64, machines: usize) -> f64 {
    1.0 / (largest_fraction + (1.0 - largest_fraction) / machines as f64)
}

/// The paper's best-case *slowdown* relative to a perfectly parallel
/// uniform run: `machines / amdahl_speedup` (7.1× for f = 19.6 % on 32
/// machines).
pub fn amdahl_slowdown(largest_fraction: f64, machines: usize) -> f64 {
    machines as f64 / amdahl_speedup(largest_fraction, machines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat() {
        let m = region_masses(1 << 16, 32, 0.0);
        for &w in &m {
            assert!((w - 1.0 / 32.0).abs() < 1e-9);
        }
        assert!((imbalance(&m) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn masses_sum_to_one() {
        for s in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let m = region_masses(100_000, 32, s);
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "s={s} sum={sum}");
        }
    }

    #[test]
    fn imbalance_grows_with_s() {
        let mut prev = 0.0;
        for s in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let m = region_masses(1 << 20, 32, s);
            let imb = imbalance(&m);
            assert!(imb > prev, "imbalance must grow with s (s={s}, imb={imb})");
            prev = imb;
        }
    }

    #[test]
    fn head_region_is_heaviest() {
        let m = region_masses(1 << 18, 32, 1.0);
        assert!(m[0] > m[31] * 10.0, "head range dominates under s=1");
        assert_eq!(
            m.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0,
            0
        );
    }

    #[test]
    fn sampler_matches_pmf() {
        let n = 64;
        let z = ZipfSampler::new(n, 1.0);
        let mut rng = DetRng::new(7);
        let draws = 200_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 20, 63] {
            let expect = z.pmf(k) * draws as f64;
            let got = counts[k] as f64;
            let tol = 4.0 * expect.sqrt() + 6.0;
            assert!(
                (got - expect).abs() < tol,
                "key {k}: got {got}, expect {expect:.1}"
            );
        }
    }

    #[test]
    fn sample_is_in_range_and_deterministic() {
        let z = ZipfSampler::new(1000, 0.8);
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            let x = z.sample(&mut a);
            assert!(x < 1000);
            assert_eq!(x, z.sample(&mut b));
        }
    }

    #[test]
    fn mass_is_consistent_with_pmf() {
        let z = ZipfSampler::new(100, 0.5);
        let direct: f64 = (10..20).map(|k| z.pmf(k)).sum();
        assert!((z.mass(10, 20) - direct).abs() < 1e-12);
        assert_eq!(z.mass(5, 5), 0.0);
        assert!((z.mass(0, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_matches_paper_numbers() {
        // Paper §5.1: f = 19.6 %, 32 machines ⇒ speedup ≈ 4.5×,
        // best-case slowdown ≈ 7.1×.
        let speedup = amdahl_speedup(0.196, 32);
        assert!((speedup - 4.5).abs() < 0.05, "speedup {speedup}");
        let slowdown = amdahl_slowdown(0.196, 32);
        assert!((slowdown - 7.1).abs() < 0.1, "slowdown {slowdown}");
    }

    /// The whole-table search the guided one must agree with.
    fn full_search(z: &ZipfSampler, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    /// Every `u ∈ [0, 1)` a guide table could get wrong: both ends, each
    /// bucket edge and the value just below it, and each CDF value with
    /// its two neighbours.
    fn adversarial_draws(z: &ZipfSampler) -> Vec<f64> {
        let m = z.guide.len() - 1;
        let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for j in 0..=m {
            let edge = j as f64 / m as f64;
            us.extend([edge, edge.next_down()]);
        }
        for &c in &z.cdf {
            us.extend([c.next_down(), c, c.next_up()]);
        }
        us.retain(|u| (0.0..1.0).contains(u));
        us
    }

    #[test]
    fn guided_search_equals_full_search() {
        let mut rng = DetRng::new(0x61DE);
        let mut cases = vec![
            (1, 0.0),
            (1, 3.0),
            (3, 0.0),
            (1000, 3.0),
            (1 << 18, 0.0),
            ((1 << 18) + 1, 1.0),
            ((1 << 18) + 1, 3.0),
        ];
        for _ in 0..32 {
            cases.push((1 + rng.gen_range(5000) as usize, 3.0 * rng.gen_f64()));
        }
        for (n, s) in cases {
            let z = ZipfSampler::new(n, s);
            assert!((z.guide.len() - 1).is_power_of_two());
            let random = (0..10_000).map(|_| rng.gen_f64());
            for u in adversarial_draws(&z).into_iter().chain(random) {
                assert_eq!(
                    z.index_of(u),
                    full_search(&z, u),
                    "n = {n}, s = {s}, u = {u:e}"
                );
            }
        }
    }

    #[test]
    fn large_exponents_have_equal_cdf_neighbours() {
        // Past some key the tail increments fall below half an ulp of the
        // running sum, so the CDF ends in a run of equal values (all 1.0
        // once normalised): the `((1 << 18) + 1, 3.0)` case above checks
        // that draws just below 1 land on the first of the run.
        let z = ZipfSampler::new((1 << 18) + 1, 3.0);
        let first_one = z.cdf.partition_point(|&c| c < 1.0);
        assert!(first_one + 1000 < z.cdf.len(), "run starts at {first_one}");
        assert_eq!(z.index_of(1.0 - f64::EPSILON / 2.0), first_one);
    }

    #[test]
    fn single_key_degenerate() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = DetRng::new(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.pmf(0), 1.0);
    }
}
