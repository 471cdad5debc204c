//! Property pins for Eq. 2 (`heuristic` module doc). The invariant is
//! Reshape's repayment rule: a mitigation's overhead must be repaid
//! within the operator's remaining time — a granted clone is expected to
//! finish the task sooner than no clone — and anything unmeasured
//! refuses.

use hurricane_core::heuristic::CloneDecision;
use proptest::prelude::*;
use std::time::Duration;

/// `T`, and a `T_IO` spread around the Eq. 2 threshold `T / (k + 1)`.
fn around_threshold(k: u32, remaining_s: f64, factor: f64) -> CloneDecision {
    CloneDecision {
        instances: k,
        remaining_s,
        overhead_s: remaining_s / (k as f64 + 1.0) * factor,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_granted_clone_is_repaid(k in 1u32..64, t in 1e-6f64..100.0, factor in 0.0f64..2.0) {
        let d = around_threshold(k, t, factor);
        prop_assume!(d.should_clone());
        prop_assert!(d.cloned_remaining() < d.remaining_s, "{:?}", d);
    }

    #[test]
    fn refusal_is_monotone_in_k_and_in_overhead(
        k in 1u32..64,
        t in 1e-6f64..100.0,
        factor in 0.0f64..2.0,
        more_k in 0u32..64,
        more_overhead in 0.0f64..10.0,
    ) {
        let d = around_threshold(k, t, factor);
        prop_assume!(!d.should_clone());
        let crowded = CloneDecision { instances: k + more_k, ..d };
        prop_assert!(!crowded.should_clone(), "{:?}", crowded);
        let dearer = CloneDecision { overhead_s: d.overhead_s + more_overhead, ..d };
        prop_assert!(!dearer.should_clone(), "{:?}", dearer);
    }

    #[test]
    fn unmeasured_sides_refuse(
        k in 1u32..64,
        good in 0.0f64..100.0,
        which in 0usize..4,
        on_overhead in prop::bool::ANY,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -good - 1e-9][which];
        let d = if on_overhead {
            CloneDecision { instances: k, remaining_s: good, overhead_s: bad }
        } else {
            CloneDecision { instances: k, remaining_s: bad, overhead_s: 0.0 }
        };
        prop_assert!(!d.should_clone(), "{:?}", d);
    }

    #[test]
    fn a_request_without_a_rate_refuses(
        k in 1u32..64,
        remaining in any::<u64>(),
        taken in any::<u64>(),
        busy_us in 0u64..1_000_000,
        startup_us in 0u64..1_000_000,
    ) {
        let (busy, startup) = (Duration::from_micros(busy_us), Duration::from_micros(startup_us));
        // No bytes taken: whatever the clock says, there is no rate.
        let idle = CloneDecision::measured(k, remaining, 0, busy, startup, 0.0);
        prop_assert!(!idle.should_clone(), "{:?}", idle);
        // No time after the start-up to have taken them in.
        let raced = CloneDecision::measured(k, remaining, taken, busy.min(startup), startup, 0.0);
        prop_assert!(!raced.should_clone(), "{:?}", raced);
    }
}
