//! Join-relation generation (paper §5.3, HashJoin).
//!
//! "Given two relations and an equality operator between values, for each
//! distinct value of the join attribute, return the set of tuples in each
//! relation that have that value. ... we introduce skew in the first
//! (smaller) relation, causing a much larger hit rate for some keys."
//!
//! The small relation R draws its join keys from Zipf(s); the large
//! relation S draws keys uniformly. Under s = 1 a few keys appear very
//! often in R, so the join output for those keys (|R_k| × |S_k|) explodes
//! — the hit-rate skew that breaks static partitioning.

use crate::zipf::ZipfSampler;
use hurricane_common::DetRng;

/// One relation tuple: `(join_key, payload)`.
pub type Tuple = (u32, u64);

/// Parameters for a pair of join relations.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Distinct join-key values.
    pub num_keys: usize,
    /// Tuples in the smaller relation R.
    pub small_tuples: u64,
    /// Tuples in the larger relation S.
    pub large_tuples: u64,
    /// Zipf skew applied to R's keys (0 = uniform).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for JoinSpec {
    fn default() -> Self {
        Self {
            num_keys: 1 << 12,
            small_tuples: 10_000,
            large_tuples: 100_000,
            skew: 0.0,
            seed: 0x101A,
        }
    }
}

/// Generates the smaller relation R (skewed keys).
pub fn small_relation(spec: &JoinSpec) -> Vec<Tuple> {
    let sampler = ZipfSampler::new(spec.num_keys, spec.skew);
    let mut rng = DetRng::new(spec.seed).fork(1);
    (0..spec.small_tuples)
        .map(|i| (sampler.sample(&mut rng) as u32, i))
        .collect()
}

/// Generates the larger relation S (uniform keys).
pub fn large_relation(spec: &JoinSpec) -> Vec<Tuple> {
    let mut rng = DetRng::new(spec.seed).fork(2);
    (0..spec.large_tuples)
        .map(|i| (rng.gen_range(spec.num_keys as u64) as u32, i))
        .collect()
}

/// Reference nested-loop join (small inputs only): for each matching key
/// pair, emits `(key, r_payload, s_payload)`. Used as the correctness
/// oracle for the engine implementations.
pub fn reference_join(r: &[Tuple], s: &[Tuple]) -> Vec<(u32, u64, u64)> {
    use std::collections::HashMap;
    let mut by_key: HashMap<u32, Vec<u64>> = HashMap::new();
    for &(k, p) in r {
        by_key.entry(k).or_default().push(p);
    }
    let mut out = Vec::new();
    for &(k, sp) in s {
        if let Some(rps) = by_key.get(&k) {
            for &rp in rps {
                out.push((k, rp, sp));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(skew: f64) -> JoinSpec {
        JoinSpec {
            num_keys: 256,
            small_tuples: 2_000,
            large_tuples: 8_000,
            skew,
            seed: 77,
        }
    }

    #[test]
    fn relations_have_requested_sizes() {
        let s = spec(0.0);
        assert_eq!(small_relation(&s).len(), 2_000);
        assert_eq!(large_relation(&s).len(), 8_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(1.0);
        assert_eq!(small_relation(&s), small_relation(&s));
        assert_eq!(large_relation(&s), large_relation(&s));
    }

    #[test]
    fn skew_concentrates_small_relation_keys() {
        let uniform = small_relation(&spec(0.0));
        let skewed = small_relation(&spec(1.0));
        let top_count = |rel: &[Tuple]| {
            let mut counts = std::collections::HashMap::new();
            for &(k, _) in rel {
                *counts.entry(k).or_insert(0u64) += 1;
            }
            counts.values().copied().max().unwrap()
        };
        assert!(
            top_count(&skewed) > top_count(&uniform) * 5,
            "skewed top key must be much hotter"
        );
    }

    #[test]
    fn reference_join_is_exact_on_a_tiny_case() {
        let r = vec![(1, 10), (1, 11), (2, 20)];
        let s = vec![(1, 100), (3, 300), (2, 200), (1, 101)];
        let mut out = reference_join(&r, &s);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![
                (1, 10, 100),
                (1, 10, 101),
                (1, 11, 100),
                (1, 11, 101),
                (2, 20, 200)
            ]
        );
    }
}
