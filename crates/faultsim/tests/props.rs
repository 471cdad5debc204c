//! Proptest-driven schedule exploration: arbitrary fault schedules
//! against the real port/prefetcher/coalescer stack. A failing case
//! prints its case seed and the generated inputs — that tuple is the
//! repro.

use std::time::Duration;

use hurricane_faultsim::net::{FaultAction, SimConfig, TraceEvent};
use hurricane_faultsim::scenario::{assert_exactly_once, chunk_of, drain_all, value_of, FaultSim};
use proptest::prelude::*;

/// `(at_us, action kind, node)` tuples decoded into a fault schedule.
fn apply_schedule(sim: &FaultSim, schedule: &[(u64, usize, usize)]) {
    for &(at_us, kind, node) in schedule {
        let action = match kind % 8 {
            0 => FaultAction::Partition(node),
            1 => FaultAction::Heal(node),
            2 => FaultAction::Crash(node),
            3 => FaultAction::Restart(node),
            4 => FaultAction::Fail(node),
            5 => FaultAction::Recover(node),
            6 => FaultAction::AddNode,
            _ => FaultAction::DrainNode(node),
        };
        sim.net.schedule(at_us, action);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary drop/duplicate/partition/crash schedules over an
    /// unreplicated cluster: whatever the wire does, no value is ever
    /// applied twice, every acknowledged insert survives, and nothing
    /// materializes that was never sent.
    #[test]
    fn faulty_schedule_preserves_exactly_once(
        seed in any::<u64>(),
        drop_pm in 0u32..200,
        dup_pm in 0u32..200,
        schedule in prop::collection::vec(
            (0u64..40_000, 0usize..8, 0usize..3),
            0..6,
        ),
    ) {
        const N: u64 = 50;
        let mut cfg = SimConfig::reliable(seed);
        cfg.timeout = Duration::from_millis(10);
        cfg.drop_per_mille = drop_pm;
        cfg.dup_per_mille = dup_pm;
        let sim = FaultSim::new(3, 1, cfg);
        apply_schedule(&sim, &schedule);

        let mut writer = sim.client(seed);
        let mut attempted = Vec::new();
        let mut acked = Vec::new();
        for v in 0..N {
            attempted.push(v);
            if writer.insert(chunk_of(v)).is_ok() {
                acked.push(v);
            }
        }

        // Close the fault window before judging end state: what matters
        // is that the *surviving* state is consistent, not that every
        // insert went through mid-outage.
        sim.net.heal_all();
        let stored = sim.stored_values();
        for w in stored.windows(2) {
            prop_assert_ne!(w[0], w[1], "value double-inserted");
        }

        sim.seal();
        let mut reader = sim.client(seed ^ 7);
        let drained = drain_all(&mut reader).unwrap();
        assert_exactly_once(&attempted, &acked, &drained);
    }

    /// Duplicated and delayed (but lossless) wire under replication 2:
    /// every insert acks, both replicas converge to exactly one copy per
    /// value, and a replicated drain still delivers exactly once.
    #[test]
    fn replicated_duplicates_converge(
        seed in any::<u64>(),
        dup_pm in 0u32..500,
    ) {
        const N: u64 = 40;
        let mut cfg = SimConfig::reliable(seed);
        cfg.dup_per_mille = dup_pm;
        let sim = FaultSim::new(3, 2, cfg);

        let mut writer = sim.client(seed);
        for v in 0..N {
            writer.insert(chunk_of(v)).unwrap();
        }

        let stored = sim.stored_values();
        let mut expect: Vec<u64> = (0..N).flat_map(|v| [v, v]).collect();
        expect.sort_unstable();
        prop_assert_eq!(stored, expect, "replicas diverged under duplication");

        sim.seal();
        let mut reader = sim.client(seed ^ 9);
        let drained = drain_all(&mut reader).unwrap();
        let attempted: Vec<u64> = (0..N).collect();
        assert_exactly_once(&attempted, &attempted, &drained);
        prop_assert_eq!(drained.len() as u64, N);
    }

    /// Determinism: the same seed, config, and schedule produce the same
    /// event trace, twice — the property the printed-seed repro workflow
    /// rests on.
    #[test]
    fn same_seed_schedules_replay_identically(
        seed in any::<u64>(),
        drop_pm in 0u32..150,
        dup_pm in 0u32..150,
        schedule in prop::collection::vec(
            (0u64..20_000, 0usize..8, 0usize..3),
            0..4,
        ),
    ) {
        let run = |_tag: u64| -> Vec<TraceEvent> {
            const N: u64 = 25;
            let mut cfg = SimConfig::reliable(seed);
            cfg.timeout = Duration::from_millis(10);
            cfg.drop_per_mille = drop_pm;
            cfg.dup_per_mille = dup_pm;
            let sim = FaultSim::new(3, 1, cfg);
            apply_schedule(&sim, &schedule);
            let mut writer = sim.client(seed);
            for v in 0..N {
                let _ = writer.insert(chunk_of(v));
            }
            sim.net.heal_all();
            sim.seal();
            let mut reader = sim.client(seed ^ 11);
            let _ = drain_all(&mut reader).unwrap();
            sim.net.trace()
        };
        let a = run(0);
        let b = run(1);
        prop_assert_eq!(a, b, "same-seed traces diverged");
    }
}

/// Non-prop sanity: the trace helper used by scenario assertions sees
/// wire faults when rates are maxed.
#[test]
fn trace_records_wire_faults() {
    let mut cfg = SimConfig::reliable(0xBEEF);
    cfg.drop_per_mille = 500;
    cfg.dup_per_mille = 500;
    cfg.timeout = Duration::from_millis(5);
    let sim = FaultSim::new(2, 1, cfg);
    let mut writer = sim.client(1);
    for v in 0..30 {
        let _ = writer.insert(chunk_of(v));
    }
    let trace = sim.net.trace();
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Dropped { .. })));
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Duplicated { .. })));
    // Nothing double-applied even at 50% duplication.
    let stored = sim.stored_values();
    stored
        .windows(2)
        .for_each(|w| assert_ne!(w[0], w[1], "double insert"));
    let _ = value_of(&chunk_of(7));
}
