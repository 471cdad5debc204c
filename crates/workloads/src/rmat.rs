//! R-MAT graph generation (paper §5.3, PageRank inputs).
//!
//! "We use the RMAT graph generator \[15\] to generate real-world power-law
//! input graphs, i.e. graphs whose degree distribution is skewed." The
//! paper's sizes: RMAT-24 (16 M vertices, 256 M edges), RMAT-27 (128 M
//! vertices, 2 B edges), RMAT-30 (1 B vertices, 16 B edges) — all with the
//! standard edge factor of 16.
//!
//! Each edge is placed by recursively descending the adjacency matrix with
//! quadrant probabilities `(a, b, c, d)`; the Graph500 defaults
//! `(0.57, 0.19, 0.19, 0.05)` are used.
//!
//! One level of the descent is one uniform `u ∈ [0, 1)` cut at the
//! cumulative thresholds `a`, `a + b` and `a + b + c`. The step computes
//! both bits from comparisons instead of choosing a quadrant: the source
//! bit is `u ≥ a + b` (quadrants c and d), the destination bit is
//! `a ≤ u < a + b` or `u ≥ a + b + c` (quadrants b and d). The thresholds
//! are the same left-associated `f64` sums a quadrant-by-quadrant `if`
//! chain compares against, so every edge is the one that chain draws; the
//! step has no branch for the random draw to mispredict, and an edge
//! costs its `scale` random numbers.

use hurricane_common::DetRng;

/// Standard R-MAT quadrant probabilities (Graph500).
pub const RMAT_A: f64 = 0.57;
/// Probability of the top-right quadrant.
pub const RMAT_B: f64 = 0.19;
/// Probability of the bottom-left quadrant.
pub const RMAT_C: f64 = 0.19;
/// The paper's edge factor: edges = 16 × vertices.
pub const EDGE_FACTOR: u64 = 16;

/// Parameters for one R-MAT graph.
#[derive(Debug, Clone, Copy)]
pub struct RmatSpec {
    /// log₂ of the vertex count (RMAT-`scale`).
    pub scale: u32,
    /// Number of edges (use [`RmatSpec::with_edge_factor`] for the
    /// standard 16×).
    pub edges: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatSpec {
    /// The paper's configuration: `2^scale` vertices, 16 edges per vertex.
    pub fn with_edge_factor(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edges: EDGE_FACTOR << scale,
            seed,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn vertices(&self) -> u64 {
        1 << self.scale
    }
}

/// A deterministic stream of directed edges `(src, dst)`.
pub struct RmatGen {
    spec: RmatSpec,
    rng: DetRng,
    emitted: u64,
}

impl RmatGen {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or greater than 40.
    pub fn new(spec: RmatSpec) -> Self {
        assert!(spec.scale >= 1 && spec.scale <= 40, "unreasonable scale");
        Self {
            rng: DetRng::new(spec.seed),
            spec,
            emitted: 0,
        }
    }

    /// The generator's spec.
    pub fn spec(&self) -> &RmatSpec {
        &self.spec
    }

    fn one_edge(&mut self) -> (u64, u64) {
        let mut src = 0u64;
        let mut dst = 0u64;
        for _ in 0..self.spec.scale {
            let (s, d) = quadrant_bits(self.rng.gen_f64());
            src = (src << 1) | s;
            dst = (dst << 1) | d;
        }
        (src, dst)
    }
}

/// The `(src, dst)` bits of the quadrant `u ∈ [0, 1)` falls in.
fn quadrant_bits(u: f64) -> (u64, u64) {
    let src = u >= RMAT_A + RMAT_B;
    let dst = (RMAT_A..RMAT_A + RMAT_B).contains(&u) | (u >= RMAT_A + RMAT_B + RMAT_C);
    (src as u64, dst as u64)
}

impl Iterator for RmatGen {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.emitted >= self.spec.edges {
            return None;
        }
        self.emitted += 1;
        Some(self.one_edge())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.spec.edges - self.emitted).ok();
        (left.unwrap_or(usize::MAX), left)
    }
}

impl ExactSizeIterator for RmatGen {}

/// Out-degree counts for a small graph (analysis/testing helper).
pub fn out_degrees(edges: &[(u64, u64)], vertices: u64) -> Vec<u64> {
    let mut deg = vec![0u64; vertices as usize];
    for &(s, _) in edges {
        deg[s as usize] += 1;
    }
    deg
}

/// Expected fraction of edges whose source falls in each of `partitions`
/// equal vertex ranges — the simulator's load model for PageRank
/// partitions. R-MAT with a > d concentrates edges in low vertex ids, so
/// partition 0 is the heavy one.
pub fn partition_edge_weights(scale: u32, partitions: usize) -> Vec<f64> {
    assert!(partitions.is_power_of_two() && partitions > 0);
    assert!((partitions as u64) <= (1u64 << scale));
    // The source vertex's top log2(partitions) bits decide its partition;
    // each bit is 1 with probability c + d = 0.24 independently (by the
    // recursive construction's per-level marginal for the source bit).
    let bits = partitions.trailing_zeros();
    let p1 = RMAT_C + (1.0 - RMAT_A - RMAT_B - RMAT_C);
    let mut out = vec![0.0f64; partitions];
    for (p, slot) in out.iter_mut().enumerate() {
        let mut w = 1.0;
        for b in 0..bits {
            let bit = (p >> (bits - 1 - b)) & 1;
            w *= if bit == 1 { p1 } else { 1.0 - p1 };
        }
        *slot = w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_requested_edge_count() {
        let spec = RmatSpec::with_edge_factor(10, 1);
        assert_eq!(spec.vertices(), 1024);
        assert_eq!(spec.edges, 16 * 1024);
        let edges: Vec<_> = RmatGen::new(spec).collect();
        assert_eq!(edges.len(), 16 * 1024);
        for &(s, d) in &edges {
            assert!(s < 1024 && d < 1024);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<_> = RmatGen::new(RmatSpec::with_edge_factor(8, 3)).collect();
        let b: Vec<_> = RmatGen::new(RmatSpec::with_edge_factor(8, 3)).collect();
        let c: Vec<_> = RmatGen::new(RmatSpec::with_edge_factor(8, 4)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let spec = RmatSpec::with_edge_factor(12, 5);
        let edges: Vec<_> = RmatGen::new(spec).collect();
        let mut deg = out_degrees(&edges, spec.vertices());
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = deg.iter().sum();
        let top_1pct: u64 = deg[..deg.len() / 100].iter().sum();
        let share = top_1pct as f64 / total as f64;
        assert!(
            share > 0.2,
            "top 1% of vertices should hold a large edge share, got {share:.3}"
        );
        // And a long tail of low-degree vertices exists.
        let zeros = deg.iter().filter(|&&d| d == 0).count();
        assert!(zeros > deg.len() / 10, "many vertices have no out-edges");
    }

    /// The quadrant-by-quadrant `if` chain the branch-free step replaces.
    fn chain_bits(u: f64) -> (u64, u64) {
        if u < RMAT_A {
            (0, 0)
        } else if u < RMAT_A + RMAT_B {
            (0, 1)
        } else if u < RMAT_A + RMAT_B + RMAT_C {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn branch_free_step_matches_the_if_chain() {
        let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for t in [RMAT_A, RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C] {
            us.extend([t.next_down(), t, t.next_up()]);
        }
        let mut rng = DetRng::new(11);
        us.extend((0..100_000).map(|_| rng.gen_f64()));
        for u in us {
            assert_eq!(quadrant_bits(u), chain_bits(u), "u = {u:e}");
        }
    }

    #[test]
    fn partition_weights_sum_to_one_and_skew_to_zero() {
        for parts in [2usize, 8, 32] {
            let w = partition_edge_weights(20, parts);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(
                w[0] > w[parts - 1] * 2.0,
                "partition 0 must be heavy: {w:?}"
            );
        }
    }

    #[test]
    fn partition_weights_match_observed_edges() {
        let spec = RmatSpec::with_edge_factor(14, 9);
        let parts = 8usize;
        let expect = partition_edge_weights(spec.scale, parts);
        let mut counts = vec![0u64; parts];
        let shift = spec.scale - 3;
        for (s, _) in RmatGen::new(spec) {
            counts[(s >> shift) as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        for p in 0..parts {
            let got = counts[p] as f64 / total as f64;
            assert!(
                (got - expect[p]).abs() < 0.02,
                "partition {p}: observed {got:.3} vs analytic {:.3}",
                expect[p]
            );
        }
    }
}
