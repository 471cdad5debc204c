//! Scripted fault scenarios against the real RPC protocol stack.
//!
//! Every scenario prints its seed (`faultsim: seed = …`); rerun a
//! failure with `FAULTSIM_SEED=<seed> cargo test -p hurricane-faultsim
//! <name> -- --nocapture`.

use std::time::Duration;

use hurricane_common::DetRng;
use hurricane_faultsim::net::{FaultAction, SimConfig, SimNet, TraceEvent};
use hurricane_faultsim::scenario::{
    assert_exactly_once, chunk_of, drain_all, scenario_seed, sweep_seeds, value_of, FaultSim,
};
use hurricane_storage::bag::BatchRemoveResult;
use hurricane_storage::prefetch::Prefetcher;
use hurricane_storage::rpc::{NodeConnection, ServedKind, StorageRequest, REQUEST_ATTEMPTS};
use hurricane_storage::{next_run_id, StorageResponse};

/// Crash a storage node mid-replicated-insert-burst — after backups have
/// started acking but with primary writes still in flight — restart it a
/// few virtual ms later, and require that retransmissions carry every
/// insert across the outage with no loss and no double-apply on either
/// replica.
#[test]
fn crash_primary_mid_replicated_insert() {
    let seed = scenario_seed(0xC0A5);
    let trace = run_crash_scenario(seed);
    // Same seed, same script: the whole protocol interaction replays
    // bit-identically (the scenario is single-threaded).
    let replay = run_crash_scenario(seed);
    assert_eq!(trace, replay, "same-seed replay diverged");
}

fn run_crash_scenario(seed: u64) -> Vec<TraceEvent> {
    const N: u64 = 200;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(10);
    let sim = FaultSim::new(3, 2, cfg);
    // The crash window opens mid-burst (the first few dozen inserts have
    // completed their replicated fan-out; more are in flight) and closes
    // well inside a request's 8 attempts × 10 ms.
    sim.net.schedule(2_000, FaultAction::Crash(1));
    sim.net.schedule(30_000, FaultAction::Restart(1));

    let mut writer = sim.client(seed);
    let mut attempted = Vec::new();
    let mut acked = Vec::new();
    for v in 0..N {
        attempted.push(v);
        writer
            .insert(chunk_of(v))
            .unwrap_or_else(|e| panic!("insert {v} failed despite retransmission: {e:?}"));
        acked.push(v);
    }

    // The outage must actually have eaten messages; otherwise the
    // scenario silently stopped testing anything.
    let trace = sim.net.trace();
    let dropped = trace
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::DropUnreachable { node: 1, .. }
                    | TraceEvent::ReplyDropUnreachable { node: 1, .. }
            )
        })
        .count();
    assert!(dropped > 0, "crash window missed the insert burst");

    // Replica convergence: with replication 2 and every insert acked,
    // both copies of every value exist — a retransmitted envelope that
    // double-applied would show up as a third copy here.
    sim.net.heal_all();
    let stored = sim.stored_values();
    let mut expect: Vec<u64> = (0..N).flat_map(|v| [v, v]).collect();
    expect.sort_unstable();
    assert_eq!(
        stored, expect,
        "replicas diverged after crash + retransmission"
    );

    // Exactly-once drain through the protocol as well.
    sim.seal();
    let mut reader = sim.client(seed ^ 1);
    let drained = drain_all(&mut reader).expect("drain");
    assert_exactly_once(&attempted, &acked, &drained);
    assert_eq!(drained.len() as u64, N);
    sim.net.trace()
}

/// Seal a populated bag, partition a node, and let the prefetcher
/// pipeline run dry on the reachable nodes; heal mid-prefetch and
/// require the pipeline to recover the partitioned node's chunks via
/// same-envelope retransmission — every chunk delivered exactly once.
#[test]
fn partition_heals_mid_prefetch() {
    let seed = scenario_seed(0x9A47);
    const N: u64 = 180;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(20);
    let sim = FaultSim::new(3, 1, cfg);

    let mut writer = sim.client(seed);
    for v in 0..N {
        writer.insert(chunk_of(v)).expect("populate");
    }
    sim.seal();

    // Cyclic placement spreads 180 chunks 60/60/60, so the two
    // reachable nodes hold 120: consuming 100 keeps the heal genuinely
    // mid-prefetch.
    sim.net.apply(FaultAction::Partition(1));
    let mut prefetcher = Prefetcher::new(sim.client(seed ^ 2), 4);
    let mut drained = Vec::new();
    while drained.len() < 100 {
        match prefetcher.recv().expect("prefetch recv") {
            Some(c) => drained.push(value_of(&c)),
            None => panic!("prefetcher drained early: partitioned data lost"),
        }
    }
    sim.net.apply(FaultAction::Heal(1));
    while let Some(c) = prefetcher.recv().expect("prefetch recv after heal") {
        drained.push(value_of(&c));
    }

    let attempted: Vec<u64> = (0..N).collect();
    assert_exactly_once(&attempted, &attempted, &drained);
    assert_eq!(drained.len() as u64, N);
    let dropped_on_partitioned = sim
        .net
        .trace()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::DropUnreachable { node: 1, .. }
                    | TraceEvent::ReplyDropUnreachable { node: 1, .. }
            )
        })
        .count();
    assert!(
        dropped_on_partitioned > 0,
        "partition never intercepted a prefetch request"
    );
}

/// Duplicate every envelope on the wire (dup rate 1000‰) and require the
/// server-side dedup window to resolve each duplicate by replay — no
/// double-insert, no double-remove, and the trace proves duplicates
/// actually reached the server.
#[test]
fn duplicated_envelopes_are_suppressed() {
    let seed = scenario_seed(0xD0B1);
    const N: u64 = 100;
    let mut cfg = SimConfig::reliable(seed);
    cfg.dup_per_mille = 1000;
    let sim = FaultSim::new(2, 1, cfg);

    let mut writer = sim.client(seed);
    for v in 0..N {
        writer.insert(chunk_of(v)).expect("insert");
    }

    // Every value stored exactly once despite every insert envelope
    // having been delivered twice.
    let stored = sim.stored_values();
    let expect: Vec<u64> = (0..N).collect();
    assert_eq!(stored, expect, "a duplicated envelope double-inserted");

    let trace = sim.net.trace();
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Duplicated { .. })),
        "wire never duplicated a request"
    );
    assert!(
        trace.iter().any(|e| matches!(
            e,
            TraceEvent::Delivered {
                served: ServedKind::Replayed | ServedKind::Suppressed,
                ..
            }
        )),
        "no duplicate was resolved by the dedup window"
    );

    sim.seal();
    let mut reader = sim.client(seed ^ 3);
    let drained = drain_all(&mut reader).expect("drain");
    assert_exactly_once(&expect, &expect, &drained);
    assert_eq!(drained.len() as u64, N);
}

/// A timed-out request's slot must be unusable by its late replies. Long
/// link delays make every attempt of the first request time out, so it is
/// abandoned and its slot reused by a second request with a
/// distinguishable answer; the late replies to the first must be
/// discarded, not delivered to the reused slot.
#[test]
fn late_reply_cannot_reach_a_reused_slot() {
    let seed = scenario_seed(0x1A7E);
    let mut cfg = SimConfig::reliable(seed);
    // One-way delay 100 ms: a 200 ms round trip against 8 attempts of
    // 20 ms, so every reply arrives after the last attempt gave up.
    cfg.delay_min_us = 100_000;
    cfg.delay_max_us = 100_000;
    let sim = FaultSim::new(1, 1, cfg);
    let node = sim.cluster.node(0);
    let run = [chunk_of(111), chunk_of(222)];
    node.insert_run(sim.bag, &run, 0, next_run_id()).unwrap();

    // Two one-chunk removes: the late reply carries 111, the reused
    // slot's own reply 222.
    let take_one = StorageRequest::RemoveBatch {
        bag: sim.bag,
        origin: 0,
        max_n: 1,
    };
    let net: &SimNet = &sim.net;
    let mut conn = NodeConnection::new(Box::new(net.transport(0)));
    conn.set_timeout(Duration::from_millis(20));
    let t1 = conn.submit(take_one.clone()).unwrap();
    let err = conn.wait(t1).unwrap_err();
    assert!(matches!(err, hurricane_storage::StorageError::Timeout(_)));
    let given_up_at = net.now_us();

    // The second request reuses the abandoned slot (single-slot slab
    // reuse is LIFO); one attempt of it spans the delivery of every
    // reply.
    conn.set_timeout(Duration::from_millis(300));
    let t2 = conn.submit(take_one).unwrap();
    let resp = conn.wait(t2).unwrap();
    let StorageResponse::Removed(batch) = resp else {
        panic!("expected chunk reply, got {resp:?}");
    };
    assert_eq!(
        batch.chunks.iter().map(value_of).collect::<Vec<_>>(),
        [222],
        "late reply for the abandoned request leaked into the reused slot"
    );

    // Every reply really was delivered to the endpoint, the first of
    // them after the abandon — the stale ones were discarded by the
    // generation check, not lost by the wire.
    let replies: Vec<u64> = sim
        .net
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ReplyDelivered { at_us, .. } => Some(*at_us),
            _ => None,
        })
        .collect();
    assert_eq!(
        replies.len(),
        REQUEST_ATTEMPTS as usize + 1,
        "test setup no longer delivers every late reply"
    );
    assert!(replies[0] > given_up_at, "a reply beat the abandon");
}

/// The reply to attempt 1 arrives during attempt 2 and completes the
/// token: a retransmission is the same envelope (same `id`, same `seq`),
/// so whichever copy's reply lands first answers the request, and the
/// dedup window replays the copy that reaches the server second.
#[test]
fn a_reply_to_an_earlier_attempt_completes_the_token() {
    let seed = scenario_seed(0xA77E);
    let mut cfg = SimConfig::reliable(seed);
    // One-way delay 15 ms against a 20 ms attempt: attempt 1's reply
    // lands at 30 ms, inside attempt 2 (20–40 ms), whose own reply
    // cannot land before 50 ms.
    cfg.delay_min_us = 15_000;
    cfg.delay_max_us = 15_000;
    let sim = FaultSim::new(1, 1, cfg);
    let mut conn = NodeConnection::new(Box::new(sim.net.transport(0)));
    conn.set_timeout(Duration::from_millis(20));
    let t0 = sim.net.now_us();
    let resp = conn
        .call(StorageRequest::InsertBatch {
            bag: sim.bag,
            origin: 0,
            run: next_run_id(),
            chunks: vec![chunk_of(7)].into(),
        })
        .unwrap();
    assert_eq!(resp, StorageResponse::Inserted);
    let done = sim.net.now_us() - t0;
    assert!(
        (30_000..40_000).contains(&done),
        "completed at {done} µs, not inside attempt 2"
    );
    assert_eq!(conn.requests_sent(), 2);

    let trace = sim.net.trace();
    let sends: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(sends.len(), 2);
    assert_eq!(sends[0], sends[1], "a retransmission keeps its seq");
    let served: Vec<ServedKind> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Delivered { served, .. } => Some(*served),
            _ => None,
        })
        .collect();
    assert_eq!(served, [ServedKind::Executed]);
    let replies = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReplyDelivered { .. }))
        .count();
    assert_eq!(replies, 1, "only attempt 1's reply can have landed");

    // Attempt 2 still reaches the server: replayed, not re-executed.
    sim.net.advance(40_000);
    assert!(sim.net.trace().iter().any(|e| matches!(
        e,
        TraceEvent::Delivered {
            served: ServedKind::Replayed,
            ..
        }
    )));
    assert_eq!(sim.stored_values(), [7]);
}

/// Lost `InsertBatch` replies on a lossy link, and a client that sets
/// nothing but the request timeout: the connection sends each timed-out
/// insert again under its `(client, seq)`, so every insert is acked and
/// stored exactly once, and the server's dedup window resolves the
/// copies whose first execution's reply was lost.
#[test]
fn lost_insert_replies_are_resent_without_a_retry_setting() {
    let seed = scenario_seed(0x10_5E);
    const N: u64 = 100;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(10);
    cfg.drop_per_mille = 100;
    let sim = FaultSim::new(2, 1, cfg);

    let mut writer = sim.client(seed);
    for v in 0..N {
        writer
            .insert(chunk_of(v))
            .unwrap_or_else(|e| panic!("insert {v} failed: {e:?}"));
    }
    let trace = sim.net.trace();
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::ReplyDropped { .. })),
        "the wire lost no insert reply"
    );
    assert!(
        trace.iter().any(|e| matches!(
            e,
            TraceEvent::Delivered {
                served: ServedKind::Replayed | ServedKind::Suppressed,
                ..
            }
        )),
        "no retransmission was resolved by the dedup window"
    );

    sim.net.heal_all();
    let expect: Vec<u64> = (0..N).collect();
    assert_eq!(
        sim.stored_values(),
        expect,
        "an insert landed twice or not at all"
    );
    sim.seal();
    let drained = drain_all(&mut sim.client(seed ^ 1)).expect("drain");
    assert_exactly_once(&expect, &expect, &drained);
    assert_eq!(drained.len() as u64, N);
}

/// Elasticity under the endpoint API (paper §3.4): a node joins
/// mid-insert ([`FaultAction::AddNode`]), an original node leaves by
/// draining ([`FaultAction::DrainNode`]), and the combined run still
/// delivers every value exactly once — with the joined node provably
/// carrying data and the draining node provably refusing it.
#[test]
fn membership_churn_add_and_drain_preserve_exactly_once() {
    let seed = scenario_seed(0xADD0);
    const BEFORE: u64 = 60;
    const AFTER: u64 = 120;
    const TOTAL: u64 = AFTER + 30;
    let cfg = SimConfig::reliable(seed);
    let sim = FaultSim::new(2, 1, cfg);

    let mut writer = sim.client(seed);
    for v in 0..BEFORE {
        writer.insert(chunk_of(v)).expect("insert before join");
    }

    // A third node joins; the writer observes the epoch bump on refresh
    // (prefetching readers refresh automatically each iteration).
    sim.net.apply(FaultAction::AddNode);
    writer.refresh_membership();
    assert_eq!(
        sim.cluster.node(2).sample(sim.bag).unwrap().total_chunks,
        0,
        "joined node started non-empty"
    );
    for v in BEFORE..AFTER {
        writer.insert(chunk_of(v)).expect("insert after join");
    }
    let joined = sim.cluster.node(2).sample(sim.bag).unwrap().total_chunks;
    assert!(
        joined >= (AFTER - BEFORE) / 6,
        "joined node received no cyclic share: {joined} chunks"
    );

    // Node 0 leaves paper-style: it drains. New inserts reroute around
    // it without erroring...
    let frozen = sim.cluster.node(0).sample(sim.bag).unwrap().total_chunks;
    sim.net.apply(FaultAction::DrainNode(0));
    for v in AFTER..TOTAL {
        writer.insert(chunk_of(v)).expect("insert during drain");
    }
    assert_eq!(
        sim.cluster.node(0).sample(sim.bag).unwrap().total_chunks,
        frozen,
        "draining node accepted an insert"
    );

    // ...while its stored chunks still serve, so a full drain sees
    // everything exactly once and empties the leaving node.
    sim.seal();
    let mut reader = sim.client(seed ^ 1);
    let drained = drain_all(&mut reader).expect("drain");
    let attempted: Vec<u64> = (0..TOTAL).collect();
    assert_exactly_once(&attempted, &attempted, &drained);
    assert_eq!(drained.len() as u64, TOTAL);
    assert!(
        sim.cluster.node(0).is_drained().unwrap(),
        "leaving node not drained to empty"
    );
}

/// Pin for the identity-based pointer-mirroring protocol: replica logs
/// that *diverged* during a partition (lost acks leave a value on the
/// backup but not the primary, shifting every later log index) must not
/// confuse consumed-pointer mirroring. Half the bag is consumed — each
/// remove mirrors the consumed chunk *identities*, not a count — then
/// a node fails and the drain completes through failover replicas with
/// no chunk served twice and no acknowledged chunk lost.
#[test]
fn mirror_identity_survives_divergent_replica_logs() {
    let seed = scenario_seed(0x3144);
    const N: u64 = 120;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(5);
    let sim = FaultSim::new(3, 2, cfg);

    // Phase 1: insert through a partition window. For chunks whose
    // *primary* is the partitioned node, the backup write can land and
    // ack while the primary write is lost — the insert times out
    // (unacked) but one replica keeps the value: divergent logs.
    sim.net.schedule(1_000, FaultAction::Partition(1));
    let mut writer = sim.client(seed);
    let mut attempted = Vec::new();
    let mut acked = Vec::new();
    for v in 0..N / 2 {
        attempted.push(v);
        if writer.insert(chunk_of(v)).is_ok() {
            acked.push(v);
        }
    }
    let intercepted = sim
        .net
        .trace()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::DropUnreachable { node: 1, .. }
                    | TraceEvent::ReplyDropUnreachable { node: 1, .. }
            )
        })
        .count();
    assert!(intercepted > 0, "partition window missed the insert burst");

    // Phase 2: heal and stack ordinary inserts on the divergent prefix.
    sim.net.heal_all();
    for v in N / 2..N {
        attempted.push(v);
        if writer.insert(chunk_of(v)).is_ok() {
            acked.push(v);
        }
    }

    // Phase 3: consume half the bag. Every remove mirrors the consumed
    // identities to the surviving replicas.
    sim.seal();
    let mut reader = sim.client(seed ^ 1);
    let mut drained = Vec::new();
    while drained.len() < (N as usize) / 2 {
        match reader.try_remove_batch(4).expect("remove") {
            BatchRemoveResult::Chunks(chunks) => drained.extend(chunks.iter().map(value_of)),
            BatchRemoveResult::Pending => {}
            BatchRemoveResult::Drained => break,
        }
    }

    // Phase 4: fail a node; failover serves its share from backups whose
    // read pointers advanced by identity. A count-based mirror would
    // re-serve (or skip) chunks around every divergence point.
    sim.net.apply(FaultAction::Fail(0));
    drained.extend(drain_all(&mut reader).expect("drain through failover"));
    assert_exactly_once(&attempted, &acked, &drained);
}

/// CI sweep: a crash landing *between* a backup's ack and the primary's
/// — the insert times out unacked while the only live copy sits in the
/// crashed node's segment logs — must never lose an acknowledged value
/// nor duplicate any value across restart recovery. The crash instant
/// and victim vary per seed; the window outlasts a request's attempts, so
/// some inserts genuinely fail with their surviving copy marooned on a
/// node that has to recover it from its logs (and a replica whose
/// recovered log is shorter than its peer's must not mask that copy at
/// drain time).
#[test]
fn restart_recovers_unacked_inserts() {
    for seed in sweep_seeds(0x57A7_0000) {
        eprintln!("faultsim: seed = {seed} (override with FAULTSIM_SEED)");
        run_restart_recovery_run(seed);
    }
}

fn run_restart_recovery_run(seed: u64) {
    const N: u64 = 120;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(5);
    let sim = FaultSim::new(3, 2, cfg);

    // The crash opens mid-burst and the restart lands beyond a request's
    // attempts (8 × 5 ms), so inserts racing the window can ack on the
    // backup yet time out overall.
    let mut rng = DetRng::new(seed).fork(0x57);
    let victim = rng.gen_range(3) as usize;
    let at = rng.gen_range_in(500, 5_000);
    sim.net.schedule(at, FaultAction::Crash(victim));
    sim.net.schedule(at + 60_000, FaultAction::Restart(victim));

    let mut writer = sim.client(seed);
    let mut attempted = Vec::new();
    let mut acked = Vec::new();
    for v in 0..N {
        attempted.push(v);
        if writer.insert(chunk_of(v)).is_ok() {
            acked.push(v);
        }
    }

    // heal_all restarts any still-crashed node through log-scan recovery.
    sim.net.heal_all();

    // Recovery must not manufacture copies: nothing may be stored more
    // than `replication` times, however the retransmissions interleaved with the
    // crash.
    let stored = sim.stored_values();
    stored.windows(3).for_each(|w| {
        assert_ne!(
            w[0], w[2],
            "value {} stored {}+ times after recovery (seed {seed})",
            w[0], 3
        );
    });

    // And the drain sees every acknowledged value exactly once — even
    // ones whose only pre-restart copy lived on the crashed node.
    sim.seal();
    let mut reader = sim.client(seed ^ 7);
    let drained = drain_all(&mut reader).expect("drain after restart");
    assert_exactly_once(&attempted, &acked, &drained);
}

/// CI sweep: N seeds (FAULTSIM_SWEEP, default 4) of a randomized
/// drop/dup/crash/partition run, each printing its seed before running
/// so a failing log names the exact repro.
#[test]
fn seed_sweep_random_faults_preserve_exactly_once() {
    for seed in sweep_seeds(0xFA57_0000) {
        eprintln!("faultsim: seed = {seed} (override with FAULTSIM_SEED)");
        run_random_fault_run(seed);
    }
}

fn run_random_fault_run(seed: u64) {
    const N: u64 = 80;
    let mut cfg = SimConfig::reliable(seed);
    cfg.timeout = Duration::from_millis(10);
    cfg.drop_per_mille = 80;
    cfg.dup_per_mille = 80;
    let sim = FaultSim::new(3, 1, cfg);

    // A short random schedule of reachability and availability faults.
    let mut rng = DetRng::new(seed).fork(0xFA);
    for _ in 0..4 {
        let at = rng.gen_range_in(500, 30_000);
        let node = rng.gen_range(3) as usize;
        let action = match rng.gen_range(8) {
            0 => FaultAction::Partition(node),
            1 => FaultAction::Heal(node),
            2 => FaultAction::Crash(node),
            3 => FaultAction::Restart(node),
            4 => FaultAction::Fail(node),
            5 => FaultAction::Recover(node),
            6 => FaultAction::AddNode,
            _ => FaultAction::DrainNode(node),
        };
        sim.net.schedule(at, action);
    }

    let mut writer = sim.client(seed);
    let mut attempted = Vec::new();
    let mut acked = Vec::new();
    for v in 0..N {
        attempted.push(v);
        if writer.insert(chunk_of(v)).is_ok() {
            acked.push(v);
        }
    }

    sim.net.heal_all();

    // No value may exist twice in storage, acked or not: duplicate
    // suppression must hold for every retransmission path.
    let stored = sim.stored_values();
    stored.windows(2).for_each(|w| {
        assert_ne!(w[0], w[1], "value {} double-inserted (seed {seed})", w[0]);
    });

    sim.seal();
    let mut reader = sim.client(seed ^ 5);
    let drained = drain_all(&mut reader).expect("drain");
    assert_exactly_once(&attempted, &acked, &drained);
}
