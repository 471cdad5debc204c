//! Batch-sampling math (paper §3.3, Eq. 1).
//!
//! With `m` storage nodes and each compute node keeping `b` outstanding
//! requests spread over distinct random nodes, the cluster carries `b·m`
//! outstanding requests, and the probability that a given storage node has
//! at least one request — its expected utilization — is
//!
//! ```text
//! ρ(b, m) = 1 − (1 − 1/m)^(b·m)          (Eq. 1)
//! ```
//!
//! The paper picks `b = 10`, giving > 99 % utilization "even for thousands
//! of storage nodes". This module implements the analytic bound and a
//! Monte-Carlo estimator used to validate it (experiment E13).

use hurricane_common::DetRng;

/// The utilization lower bound of Eq. 1: `1 − (1 − 1/m)^(b·m)`.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn utilization(b: u32, m: u32) -> f64 {
    assert!(m > 0, "utilization needs at least one storage node");
    if b == 0 {
        return 0.0;
    }
    let m = f64::from(m);
    1.0 - (1.0 - 1.0 / m).powf(f64::from(b) * m)
}

/// Monte-Carlo estimate of storage utilization under batch sampling.
///
/// Each of `m` compute nodes repeatedly holds `b` outstanding requests to
/// `b` *distinct* storage nodes chosen uniformly (the paper's scheme).
/// Returns the fraction of storage nodes with ≥ 1 pending request averaged
/// over `rounds` independent placements.
///
/// The analytic bound models requests as independent (not distinct per
/// compute node), so the simulated utilization should meet or exceed
/// [`utilization`] — distinctness can only spread load better.
pub fn simulate_utilization(b: u32, m: u32, rounds: u32, rng: &mut DetRng) -> f64 {
    assert!(m > 0 && rounds > 0);
    let b_eff = (b as usize).min(m as usize);
    let mut busy_total = 0u64;
    let mut hit = vec![false; m as usize];
    for _ in 0..rounds {
        hit.fill(false);
        for _compute in 0..m {
            for node in rng.sample_distinct(m as usize, b_eff) {
                hit[node] = true;
            }
        }
        busy_total += hit.iter().filter(|&&h| h).count() as u64;
    }
    busy_total as f64 / (u64::from(m) * u64::from(rounds)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_reference_points() {
        // Paper §3.3: "With b = 1 outstanding requests, the utilization is
        // at least 63%, with b = 2, the utilization is 86%, and with b = 3,
        // the utilization is 95%."
        let m = 1000;
        assert!((utilization(1, m) - 0.632).abs() < 0.01);
        assert!((utilization(2, m) - 0.865).abs() < 0.01);
        assert!((utilization(3, m) - 0.950).abs() < 0.01);
        // "we pick b = 10, which ensures over 99% utilization even for
        // thousands of storage nodes."
        assert!(utilization(10, 1000) > 0.99);
        assert!(utilization(10, 10_000) > 0.99);
    }

    #[test]
    fn monotone_in_b() {
        for m in [2u32, 8, 32, 512] {
            let mut prev = 0.0;
            for b in 1..16 {
                let u = utilization(b, m);
                assert!(u > prev, "utilization must rise with b (m={m}, b={b})");
                prev = u;
            }
        }
    }

    #[test]
    fn bounded_by_one() {
        for m in [1u32, 2, 32, 4096] {
            for b in [0u32, 1, 10, 64] {
                let u = utilization(b, m);
                assert!((0.0..=1.0).contains(&u));
            }
        }
    }

    #[test]
    fn single_node_always_fully_utilized() {
        assert!((utilization(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_batch_reasonable() {
        // On 1,000 nodes: b = 1 already passes 60 %, b = 3 is the first
        // to reach 95 %, and the paper's b = 10 clears 99 %.
        assert!(utilization(1, 1000) >= 0.6);
        assert!(utilization(2, 1000) < 0.95 && utilization(3, 1000) >= 0.95);
        assert!(utilization(10, 1000) >= 0.99);
    }

    #[test]
    fn simulation_meets_analytic_bound() {
        let mut rng = DetRng::new(42);
        for (b, m) in [(1u32, 32u32), (2, 32), (3, 32), (10, 32), (2, 128)] {
            let sim = simulate_utilization(b, m, 200, &mut rng);
            let bound = utilization(b, m);
            assert!(
                sim >= bound - 0.03,
                "b={b} m={m}: simulated {sim:.3} below bound {bound:.3}"
            );
        }
    }

    #[test]
    fn simulation_with_b_at_least_m_is_total() {
        let mut rng = DetRng::new(7);
        // With b >= m, every compute node probes every storage node.
        let u = simulate_utilization(32, 8, 50, &mut rng);
        assert!((u - 1.0).abs() < 1e-12);
    }
}
