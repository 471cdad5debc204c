//! Property tests for the workload generators: distribution invariants
//! the skew experiments depend on.

use hurricane_common::DetRng;
use hurricane_workloads::clicklog::{ClickLogGen, ClickLogSpec};
use hurricane_workloads::rmat::{RmatGen, RmatSpec};
use hurricane_workloads::zipf::{imbalance, largest_fraction, region_masses};
use hurricane_workloads::{RegionWeights, ZipfSampler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Zipf CDF is monotone, normalized, and pmf-consistent.
    #[test]
    fn zipf_cdf_well_formed(n in 1usize..5000, s in 0.0f64..1.5) {
        let z = ZipfSampler::new(n, s);
        let mut acc = 0.0;
        for k in 0..n {
            let p = z.pmf(k);
            prop_assert!(p >= 0.0);
            acc += p;
        }
        prop_assert!((acc - 1.0).abs() < 1e-9, "pmf sums to {acc}");
        prop_assert!((z.mass(0, n) - 1.0).abs() < 1e-9);
    }

    /// Zipf pmf is non-increasing in rank for any positive exponent.
    #[test]
    fn zipf_pmf_monotone(n in 2usize..2000, s in 0.01f64..1.5) {
        let z = ZipfSampler::new(n, s);
        for k in 1..n.min(64) {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
    }

    /// Samples always land in range; the same seed replays identically.
    #[test]
    fn zipf_sampling_total_and_deterministic(
        n in 1usize..1000,
        s in 0.0f64..1.2,
        seed in any::<u64>(),
    ) {
        let z = ZipfSampler::new(n, s);
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..50 {
            let x = z.sample(&mut a);
            prop_assert!(x < n);
            prop_assert_eq!(x, z.sample(&mut b));
        }
    }

    /// Region masses partition the unit mass, and skew monotonically
    /// raises the imbalance.
    #[test]
    fn region_masses_partition(num_keys in 64usize..10_000, regions in 1usize..33) {
        prop_assume!(regions <= num_keys);
        let uniform = region_masses(num_keys, regions, 0.0);
        let skewed = region_masses(num_keys, regions, 1.0);
        prop_assert!((uniform.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!((skewed.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(imbalance(&skewed) + 1e-9 >= imbalance(&uniform));
        prop_assert!(largest_fraction(&skewed) <= 1.0);
    }

    /// `RegionWeights::split` conserves totals exactly for any weights.
    #[test]
    fn split_conserves(
        raw in prop::collection::vec(0.001f64..100.0, 1..64),
        total in 0u64..1_000_000_000,
    ) {
        let w = RegionWeights::from_raw(raw);
        let parts = w.split(total);
        prop_assert_eq!(parts.iter().sum::<u64>(), total);
    }

    /// `with_imbalance` hits its target ratio.
    #[test]
    fn imbalance_target_is_hit(regions in 2usize..64, target in 1.0f64..200.0) {
        let w = RegionWeights::with_imbalance(regions, target);
        prop_assert!((w.imbalance() - target).abs() / target < 1e-6);
    }

    /// Both generators report exactly how many items are left before,
    /// during and after a run, and `collect` yields exactly that many.
    #[test]
    fn generators_report_exact_lengths(
        total in 0u64..3000,
        split in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let taken = (split % (total + 1)) as usize;
        let left = total as usize - taken;
        let clicks = || ClickLogGen::new(ClickLogSpec {
            num_ips: 1000,
            regions: 8,
            skew: 1.0,
            records: total,
            seed,
        });
        let edges = || RmatGen::new(RmatSpec { scale: 10, edges: total, seed });

        let mut c = clicks();
        prop_assert_eq!(c.size_hint(), (total as usize, Some(total as usize)));
        prop_assert_eq!(c.by_ref().take(taken).count(), taken);
        prop_assert_eq!(c.size_hint(), (left, Some(left)));
        prop_assert_eq!(c.by_ref().count(), left);
        prop_assert_eq!(c.len(), 0);
        prop_assert_eq!(clicks().collect::<Vec<_>>().len(), total as usize);

        let mut e = edges();
        prop_assert_eq!(e.len(), total as usize);
        prop_assert_eq!(e.by_ref().take(taken).count(), taken);
        prop_assert_eq!(e.size_hint(), (left, Some(left)));
        prop_assert_eq!(e.by_ref().count(), left);
        prop_assert_eq!(e.size_hint(), (0, Some(0)));
        prop_assert_eq!(edges().collect::<Vec<_>>().len(), total as usize);
    }

    /// R-MAT edges stay inside the vertex space and replay by seed.
    #[test]
    fn rmat_edges_in_range(scale in 1u32..16, seed in any::<u64>()) {
        let spec = RmatSpec { scale, edges: 200, seed };
        let n = spec.vertices();
        let a: Vec<_> = RmatGen::new(spec).collect();
        let b: Vec<_> = RmatGen::new(spec).collect();
        prop_assert_eq!(&a, &b);
        for &(s, d) in &a {
            prop_assert!(s < n && d < n);
        }
    }
}

/// An order-sensitive 64-bit fold of a stream (FNV-1a over whole values):
/// one changed, dropped or reordered value changes the result.
fn fold64(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |acc, v| {
        (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first 1M ClickLog records at the benchmark's key range (2^18 IPs)
/// replay bit for bit from uniform to past the paper's highest skew: a
/// faster sampler must draw exactly the keys the inverse-CDF search
/// draws, or every benchmark input, reference and checksum moves.
#[test]
fn clicklog_streams_are_pinned() {
    let golden = [
        (0.0, 0x25d1_9ede_df11_26a7u64),
        (0.5, 0xded5_d9b9_e854_a7ab),
        (1.0, 0x0913_55a6_3c8e_9df6),
        (1.4, 0x05ce_a734_8238_9af0),
    ];
    for (skew, want) in golden {
        let stream = ClickLogGen::new(ClickLogSpec {
            num_ips: 1 << 18,
            regions: 8,
            skew,
            records: 1_000_000,
            seed: 5,
        });
        let got = fold64(stream.map(u64::from));
        assert_eq!(got, want, "s = {skew}: fold {got:#018x}");
    }
}

/// The first 200k R-MAT-17 edges replay bit for bit.
#[test]
fn rmat_stream_is_pinned() {
    let edges = RmatGen::new(RmatSpec::with_edge_factor(17, 5)).take(200_000);
    let got = fold64(edges.map(|(s, d)| (s << 32) | d));
    assert_eq!(got, 0x389b_9abd_3241_8e35, "fold {got:#018x}");
}

/// Both join relations replay bit for bit at s = 1.0.
#[test]
fn join_relations_are_pinned() {
    use hurricane_workloads::join::{large_relation, small_relation, JoinSpec};
    let spec = JoinSpec {
        skew: 1.0,
        ..JoinSpec::default()
    };
    let fold = |rel: Vec<(u32, u64)>| fold64(rel.into_iter().flat_map(|(k, p)| [u64::from(k), p]));
    let small = fold(small_relation(&spec));
    let large = fold(large_relation(&spec));
    assert_eq!(
        (small, large),
        (0x2b1b_6b3c_71e1_cbe9, 0xf440_3033_75bd_361c),
        "folds {small:#018x} {large:#018x}"
    );
}
