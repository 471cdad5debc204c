//! Disk-fault scenarios: storage nodes whose segment logs fail
//! (ENOSPC, EIO, torn frames, fsync failure, read corruption) while the
//! network and processes stay healthy. Every scenario prints its seed;
//! rerun a failure with `FAULTSIM_SEED=<seed> cargo test -p
//! hurricane-faultsim <name> -- --nocapture`.

use std::collections::BTreeMap;
use std::sync::Arc;

use hurricane_common::{BagId, DetRng, StorageNodeId};
use hurricane_core::graph::GraphBuilder;
use hurricane_core::merges::KeyedMerge;
use hurricane_core::task::TaskCtx;
use hurricane_core::{EngineError, HurricaneApp, HurricaneConfig};
use hurricane_faultsim::net::{FaultAction, SimConfig};
use hurricane_faultsim::scenario::{
    assert_exactly_once, chunk_of, drain_all, scenario_seed, sweep_seeds, FaultSim,
};
use hurricane_faultsim::store::{DiskFaultConfig, DiskFaults, FaultyStore};
use hurricane_storage::cluster::{ClusterConfig, DurabilityConfig, StorageCluster};
use hurricane_storage::segment::SegmentStore;
use hurricane_storage::{next_run_id, StorageEndpoint, StorageError, StorageNode};

/// A full disk is not a dead node: with one storage node answering
/// ENOSPC on every journal append, inserts must route around it (the
/// non-retryable [`hurricane_storage::StorageError::DiskFull`] routes
/// around), the full node must hold nothing, and a drain still sees
/// every value exactly once. Healing the disk brings the node back into
/// placement with no client surgery.
#[test]
fn failover_routes_around_full_disk() {
    let seed = scenario_seed(0xF0_11);
    const N: u64 = 90;
    let cfg = SimConfig::reliable(seed);
    let sim = FaultSim::new_with_disk(
        3,
        1,
        cfg,
        DiskFaultConfig {
            enospc_per_mille: 1000,
            ..DiskFaultConfig::off()
        },
    );
    sim.net.apply(FaultAction::DiskFault(1));

    let mut writer = sim.client(seed);
    for v in 0..N {
        writer
            .insert(chunk_of(v))
            .unwrap_or_else(|e| panic!("insert {v} failed instead of routing around: {e:?}"));
    }
    let disk = sim.disk.as_ref().expect("disk controller");
    assert!(
        disk.counts().enospc > 0,
        "the full disk never refused an append"
    );
    assert_eq!(
        sim.cluster.node(1).sample(sim.bag).unwrap().total_chunks,
        0,
        "a full-disk node accepted chunks"
    );

    // Heal the disk. The tested bag's append stream on node 1 stays
    // poisoned for good — its failed appends could have left torn bytes,
    // so the node refuses that stream forever (`SEGMENT.md`) — but a
    // *fresh bag* opens fresh streams: the healed node takes its cyclic
    // share again with no client surgery.
    sim.net.apply(FaultAction::DiskHeal(1));
    let bag2 = sim.cluster.create_bag();
    let mut writer2 = sim.endpoint().client(bag2, seed ^ 9);
    for v in N..N + 30 {
        writer2.insert(chunk_of(v)).expect("insert after disk heal");
    }
    assert!(
        sim.cluster.node(1).sample(bag2).unwrap().total_chunks > 0,
        "healed node still refused its cyclic share"
    );

    sim.seal();
    let mut reader = sim.client(seed ^ 1);
    let drained = drain_all(&mut reader).expect("drain");
    let attempted: Vec<u64> = (0..N).collect();
    assert_exactly_once(&attempted, &attempted, &drained);
    assert_eq!(drained.len() as u64, N);

    sim.cluster.seal_bag(bag2).expect("seal bag2");
    let mut reader2 = sim.endpoint().client(bag2, seed ^ 2);
    let drained2 = drain_all(&mut reader2).expect("drain bag2");
    let attempted2: Vec<u64> = (N..N + 30).collect();
    assert_exactly_once(&attempted2, &attempted2, &drained2);
    assert_eq!(drained2.len() as u64, 30);
}

/// A torn `SEAL` append leaves the bag unsealed and its log poisoned:
/// every later operation that must journal to that bag is refused, on a
/// healed disk too, because a later success would bury the tear inside
/// the log. The tear is a tail, so a restart cuts it and recovers
/// everything acknowledged before it; a discard or collect truncates it
/// away and the bag journals again.
#[test]
fn torn_seal_leaves_bag_unsealed_and_poisoned_until_truncated() {
    let seed = scenario_seed(0x5E_A1);
    let faults = DiskFaults::new(
        seed,
        DiskFaultConfig {
            short_write_per_mille: 1000,
            ..DiskFaultConfig::off()
        },
    );
    let root = FaultyStore::wrap(SegmentStore::mem(), faults.clone());
    let id = StorageNodeId(0);
    let open = || {
        let store = root.subdir("node-0").expect("node namespace");
        StorageNode::durable(id, store, u64::MAX).expect("recover")
    };
    let node = open();
    let (discarded, collected, bystander) = (BagId(1), BagId(2), BagId(3));
    for bag in [discarded, collected] {
        node.insert_run(bag, &[chunk_of(1)], 0, next_run_id())
            .unwrap();
        faults.arm(0);
        assert_eq!(node.seal(bag), Err(StorageError::DiskIo(id)));
        faults.disarm(0);
        assert!(
            !node.sample(bag).unwrap().sealed,
            "a seal that is not durable is not a seal"
        );
        // The disk is healthy again; the bag is not.
        assert_eq!(node.seal(bag), Err(StorageError::DiskIo(id)));
        assert_eq!(
            node.insert_run(bag, &[chunk_of(2)], 0, next_run_id()),
            Err(StorageError::DiskIo(id))
        );
        assert_eq!(
            node.remove_from_batch(bag, 0, 1),
            Err(StorageError::DiskIo(id)),
            "a serve that cannot journal its consume must be refused"
        );
        assert_eq!(node.sample(bag).unwrap().remaining_chunks, 1);
    }
    assert_eq!(faults.counts().short_writes, 2);
    // Poison is per bag: the same node journals other bags normally.
    node.insert_run(bystander, &[chunk_of(7)], 0, next_run_id())
        .unwrap();
    node.seal(bystander).unwrap();

    // The tear is a tail: a restart cuts it and recovers the chunk
    // acknowledged before it, unsealed.
    let restarted = open();
    for bag in [discarded, collected] {
        let s = restarted.sample(bag).unwrap();
        assert_eq!((s.total_chunks, s.removed_chunks, s.sealed), (1, 0, false));
    }
    assert!(restarted.sample(bystander).unwrap().sealed);
    drop(restarted);

    // Truncation removes the tear with everything else.
    node.discard(discarded).unwrap();
    node.insert_run(discarded, &[chunk_of(3)], 0, next_run_id())
        .unwrap();
    node.seal(discarded).unwrap();
    assert_eq!(
        node.remove_from_batch(discarded, 0, 1).unwrap().chunks,
        [chunk_of(3)]
    );
    node.collect(collected).unwrap();
    let restarted = open();
    let s = restarted.sample(discarded).unwrap();
    assert_eq!((s.total_chunks, s.removed_chunks, s.sealed), (1, 1, true));
    assert_eq!(
        restarted.sample(collected),
        Err(StorageError::BagCollected(collected))
    );
}

/// A node whose bag log is poisoned still holds its chunks but can
/// serve none of them (every serve journals its consume first). A
/// reader has to surface that as the typed disk error, on the inline
/// plane (the engine's default) as on the simulated network: skipping
/// the node like a dead one and calling the sealed bag drained is a
/// silently short answer — what the 32-seed sweep below caught at seed
/// 3512467485 (a torn `CONSUME`, in the direct-call data plane that has
/// since been deleted).
#[test]
fn poisoned_node_fails_the_drain_instead_of_shortening_it() {
    let seed = scenario_seed(0xD2_A1);
    const N: u64 = 60;
    for inline in [true, false] {
        let sim = FaultSim::new_with_disk(
            3,
            1,
            SimConfig::reliable(seed),
            DiskFaultConfig {
                short_write_per_mille: 1000,
                ..DiskFaultConfig::off()
            },
        );
        let client = |seed| {
            if inline {
                StorageEndpoint::inline(sim.cluster.clone()).client(sim.bag, seed)
            } else {
                sim.client(seed)
            }
        };
        let mut writer = client(seed);
        for v in 0..N {
            writer.insert(chunk_of(v)).unwrap();
        }
        sim.seal();
        let held = sim.cluster.node(1).sample(sim.bag).unwrap().total_chunks;
        assert!(held > 0, "node 1 took no share of the bag");

        // Node 1's first serve tears its CONSUME append.
        sim.net.apply(FaultAction::DiskFault(1));
        let err = drain_all(&mut client(seed ^ 1)).expect_err("a short drain passed for complete");
        assert_eq!(
            err,
            StorageError::DiskIo(StorageNodeId(1)),
            "inline = {inline}"
        );
        // Healing the disk does not heal the bag, and still nothing is
        // reported drained.
        sim.net.apply(FaultAction::DiskHeal(1));
        let err = drain_all(&mut client(seed ^ 2)).expect_err("poison forgotten");
        assert_eq!(
            err,
            StorageError::DiskIo(StorageNodeId(1)),
            "inline = {inline}"
        );
        assert_eq!(
            sim.cluster
                .node(1)
                .sample(sim.bag)
                .unwrap()
                .remaining_chunks,
            held,
            "a refused serve consumed chunks"
        );
    }
}

/// CI sweep: the bounded (spilling) keyed merge over storage whose
/// disks inject ENOSPC / EIO / torn frames / fsync failures / read
/// corruption on one victim node. Per seed the job must either complete
/// with output *exactly* equal to the fault-free answer (spill rounds
/// included — the budget forces them), or fail with a clean typed
/// engine error. Never a panic, never a wrong answer.
#[test]
fn disk_fault_sweep_spilled_merge_stays_exact() {
    let mut completed = 0u32;
    let mut failed_cleanly = 0u32;
    let mut injected = 0u64;
    let seeds = sweep_seeds(0xD15C_0000);
    for &seed in &seeds {
        eprintln!("faultsim: seed = {seed} (override with FAULTSIM_SEED)");
        match run_spill_merge_under_disk_faults(seed) {
            Ok(faults) => {
                completed += 1;
                injected += faults;
            }
            Err((e, faults)) => {
                // The fault surfaced as a typed storage/task error — the
                // clean-failure contract. Wrong output already panicked
                // inside the run.
                assert!(
                    !matches!(e, EngineError::InvalidGraph(_)),
                    "disk fault misreported as a graph defect: {e} (seed {seed})"
                );
                failed_cleanly += 1;
                injected += faults;
            }
        }
    }
    eprintln!(
        "faultsim: disk sweep over {} seeds: {completed} exact completions, \
         {failed_cleanly} clean failures, {injected} faults injected",
        seeds.len()
    );
    assert!(
        completed > 0,
        "every seed failed — rerouting absorbed no disk faults at all"
    );
    assert!(
        injected > 0,
        "no disk fault ever fired — the sweep tested nothing"
    );
}

/// One sweep run: a count-by-key job with distinct-key state ≫ the merge
/// budget (so the merge spills and re-folds through scratch runs on the
/// same faulty storage tier), a resident-memory budget small enough that
/// reads go back to the faulty disk, and one victim node armed for the
/// whole run. Returns the injected-fault total on success, or the engine
/// error (with the total) on a clean failure.
fn run_spill_merge_under_disk_faults(seed: u64) -> Result<u64, (EngineError, u64)> {
    const NODES: usize = 4;
    const KEYS: u64 = 64;
    const N: usize = 6_000;

    let faults = DiskFaults::new(
        seed,
        DiskFaultConfig {
            enospc_per_mille: 20,
            eio_per_mille: 20,
            short_write_per_mille: 8,
            sync_fail_per_mille: 8,
            corrupt_read_per_mille: 6,
        },
    );
    let mut rng = DetRng::new(seed).fork(0xD1);
    let victim = rng.gen_range(NODES as u64) as usize;
    faults.arm(victim);

    let cluster = StorageCluster::new_durable(
        NODES,
        ClusterConfig::default(),
        DurabilityConfig {
            store: FaultyStore::wrap(SegmentStore::mem(), faults.clone()),
            // Evict aggressively so chunk reads return to the (faulty)
            // logs instead of staying resident.
            spill_threshold_bytes: 16 * 1024,
        },
    );

    // Uniform-random keys: every partial's table holds all 64 keys
    // (64 × ~76 bytes ≈ 4.9 KB ≫ the 512-byte budget), so every merge
    // output spills and re-folds through scratch runs.
    let sample: Vec<u32> = (0..N).map(|_| rng.gen_range(KEYS) as u32).collect();
    let mut expect: BTreeMap<u32, u64> = BTreeMap::new();
    for &k in &sample {
        *expect.entry(k).or_default() += 1;
    }
    let expect: Vec<(u32, u64)> = expect.into_iter().collect();

    let mut g = GraphBuilder::new();
    let input = g.source("keys");
    let counts = g.bag("counts");
    g.task_with_merge(
        "count-by-key",
        &[input],
        &[counts],
        move |ctx: &mut TaskCtx| {
            let mut local: BTreeMap<u32, u64> = BTreeMap::new();
            while let Some(recs) = ctx.next_records::<u32>(0)? {
                for k in recs {
                    *local.entry(k).or_default() += 1;
                }
            }
            for (k, n) in local {
                ctx.write_record(0, &(k, n))?;
            }
            Ok(())
        },
        KeyedMerge::<u32, u64, _>::new(|a, b| a + b),
    );
    let config = HurricaneConfig {
        compute_nodes: 2,
        worker_slots: 2,
        chunk_size: 1024,
        merge_memory_budget: 512,
        ..Default::default()
    };
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config)
        .map_err(|e| (e, faults.counts().total()))?;
    app.fill_source(input, sample.iter().copied())
        .map_err(|e| (e, faults.counts().total()))?;
    match app.run() {
        Ok(_report) => {
            let got: Vec<(u32, u64)> = app
                .read_records(counts)
                .map_err(|e| (e, faults.counts().total()))?;
            assert_eq!(
                got, expect,
                "spilled merge under disk faults produced wrong output (seed {seed})"
            );
            Ok(faults.counts().total())
        }
        Err(e) => Err((e, faults.counts().total())),
    }
}

/// A torn spill-run append must fail the merge as a typed error and
/// reclaim every scratch bag — not hang, not panic, not emit a
/// truncated output. All appends on every node tear, so the first
/// spill write is guaranteed to hit.
#[test]
fn torn_spill_write_fails_the_job_cleanly() {
    let seed = scenario_seed(0x70_12);
    const NODES: usize = 3;
    let faults = DiskFaults::new(
        seed,
        DiskFaultConfig {
            short_write_per_mille: 1000,
            ..DiskFaultConfig::off()
        },
    );
    let cluster = StorageCluster::new_durable(
        NODES,
        ClusterConfig::default(),
        DurabilityConfig {
            store: FaultyStore::wrap(SegmentStore::mem(), faults.clone()),
            spill_threshold_bytes: u64::MAX,
        },
    );

    let mut g = GraphBuilder::new();
    let input = g.source("keys");
    let counts = g.bag("counts");
    g.task_with_merge(
        "count-by-key",
        &[input],
        &[counts],
        move |ctx: &mut TaskCtx| {
            let mut local: BTreeMap<u32, u64> = BTreeMap::new();
            while let Some(recs) = ctx.next_records::<u32>(0)? {
                for k in recs {
                    *local.entry(k).or_default() += 1;
                }
            }
            for (k, n) in local {
                ctx.write_record(0, &(k, n))?;
            }
            Ok(())
        },
        KeyedMerge::<u32, u64, _>::new(|a, b| a + b),
    );
    let config = HurricaneConfig {
        compute_nodes: 2,
        worker_slots: 1,
        chunk_size: 512,
        merge_memory_budget: 256,
        ..Default::default()
    };
    let mut app = HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap();
    let sample: Vec<u32> = (0..4_000u32).map(|i| i % 48).collect();
    app.fill_source(input, sample.iter().copied()).unwrap();

    // Arm only after the source is filled: the input lands intact, and
    // the first disk write the job itself makes is free to tear.
    for n in 0..NODES {
        faults.arm(n);
    }
    let err = app
        .run()
        .expect_err("every append tears; the job cannot succeed");
    assert!(
        !matches!(err, EngineError::InvalidGraph(_) | EngineError::MasterGone),
        "expected a storage-rooted failure, got: {err}"
    );
    assert!(
        faults.counts().short_writes > 0,
        "no append ever tore — the scenario tested nothing"
    );
}

/// `FaultAction::DiskFault` is a first-class scheduled fault: armed at a
/// virtual time like any partition or crash, recorded in the trace, and
/// disarmed by `heal_all` so post-heal recovery reads a clean disk.
#[test]
fn scheduled_disk_fault_window_fires_and_heals() {
    let seed = scenario_seed(0x5C_ED);
    let cfg = SimConfig::reliable(seed);
    let sim = FaultSim::new_with_disk(2, 1, cfg, DiskFaultConfig::hostile());
    let disk = sim.disk.clone().expect("disk controller");

    sim.net.schedule(2_000, FaultAction::DiskFault(0));
    assert!(!disk.is_armed(0));
    sim.net.advance(3_000);
    assert!(disk.is_armed(0), "scheduled disk fault never armed");

    sim.net.heal_all();
    assert!(!disk.is_armed(0), "heal_all left the disk armed");
    let armed_in_trace = sim.net.trace().iter().any(|e| {
        matches!(
            e,
            hurricane_faultsim::net::TraceEvent::Fault {
                action: FaultAction::DiskFault(0),
                ..
            }
        )
    });
    assert!(armed_in_trace, "disk fault missing from the trace");
}

/// Keep `Arc<StorageCluster>` in scope for deploy signatures.
#[allow(dead_code)]
fn _types(_: Arc<StorageCluster>) {}
