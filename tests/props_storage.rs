//! Property tests for the storage layer: exactly-once delivery under
//! arbitrary client interleavings, placement balance, and the Eq. 1
//! utilization bound.

use hurricane_common::DetRng;
use hurricane_format::Chunk;
use hurricane_storage::bag::{BagClient, BatchRemoveResult};
use hurricane_storage::batch;
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageEndpoint};
use proptest::prelude::*;
use std::collections::HashSet;

fn chunk(v: u64) -> Chunk {
    Chunk::from_vec(v.to_le_bytes().to_vec())
}

fn chunk_val(c: &Chunk) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(c.bytes());
    u64::from_le_bytes(b)
}

/// One chunk through the batch remove: `Some` when one was removed.
fn take_one(client: &mut BagClient) -> Option<Chunk> {
    match client.try_remove_batch(1).unwrap() {
        BatchRemoveResult::Chunks(mut c) => c.pop(),
        BatchRemoveResult::Pending | BatchRemoveResult::Drained => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However many clients interleave removals in whatever order, each
    /// chunk is delivered exactly once and nothing is lost.
    #[test]
    fn exactly_once_under_interleaving(
        nodes in 1usize..6,
        items in 1u64..300,
        clients in 1usize..5,
        schedule in prop::collection::vec(0usize..4, 0..600),
        seed in any::<u64>(),
    ) {
        let cluster = StorageCluster::new(nodes, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, seed);
        for i in 0..items {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut handles: Vec<BagClient> = (0..clients)
            .map(|c| BagClient::new(cluster.clone(), bag, seed ^ (c as u64 + 1)))
            .collect();
        let mut seen = HashSet::new();
        // Drive clients in the arbitrary order proptest chose...
        for &pick in &schedule {
            let client = &mut handles[pick % clients];
            if let Some(c) = take_one(client) {
                prop_assert!(seen.insert(chunk_val(&c)), "duplicate delivery");
            }
        }
        // ...then drain whatever remains.
        for client in &mut handles {
            while let Some(c) = take_one(client) {
                prop_assert!(seen.insert(chunk_val(&c)), "duplicate delivery");
            }
        }
        prop_assert_eq!(seen.len() as u64, items, "lost chunks");
    }

    /// Replication preserves exactly-once semantics and failover serves
    /// the full remainder after any prefix of removals.
    #[test]
    fn failover_preserves_remainder(
        items in 1u64..100,
        consumed_before_crash in 0u64..100,
        seed in any::<u64>(),
    ) {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, seed);
        for i in 0..items {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut consumer = BagClient::new(cluster.clone(), bag, seed ^ 1);
        let mut seen = HashSet::new();
        for _ in 0..consumed_before_crash.min(items) {
            match take_one(&mut consumer) {
                Some(c) => {
                    prop_assert!(seen.insert(chunk_val(&c)));
                }
                None => break,
            }
        }
        cluster.node(0).fail();
        while let Some(c) = take_one(&mut consumer) {
            prop_assert!(seen.insert(chunk_val(&c)), "failover duplicate");
        }
        prop_assert_eq!(seen.len() as u64, items, "failover lost chunks");
    }

    /// Cyclic placement balances perfectly within each full cycle.
    #[test]
    fn placement_balances_full_cycles(
        nodes in 1usize..16,
        cycles in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cluster = StorageCluster::new(nodes, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, seed);
        for i in 0..(nodes * cycles) as u64 {
            client.insert(chunk(i)).unwrap();
        }
        for n in 0..nodes {
            let s = cluster.node(n).sample(bag).unwrap();
            prop_assert_eq!(s.total_chunks as usize, cycles);
        }
    }

    /// Eq. 1 bounds: ρ is within (0, 1], increases with b, and the
    /// Monte-Carlo estimate respects the analytic lower bound.
    #[test]
    fn utilization_bound_holds(b in 1u32..12, m in 1u32..64, seed in any::<u64>()) {
        let rho = batch::utilization(b, m);
        prop_assert!(rho > 0.0 && rho <= 1.0);
        prop_assert!(batch::utilization(b + 1, m) >= rho);
        let mut rng = DetRng::new(seed);
        let sim = batch::simulate_utilization(b, m, 60, &mut rng);
        prop_assert!(sim >= rho - 0.08, "b={b} m={m}: sim {sim:.3} < bound {rho:.3}");
    }

    /// The insert coalescer preserves per-(bag, origin) chunk order and
    /// exactly-once delivery across arbitrary interleavings of batch
    /// sizes, flush thresholds, explicit flushes, reroutes, and a
    /// mid-stream node failure, unreplicated and at replication 2.
    ///
    /// Exactly-once holds unconditionally. At replication 2 it is read
    /// while the failed node is still down: a recovered primary's
    /// snapshot hides the runs acked at its backup alone (snapshots carry
    /// no identities to union replicas by). The full per-stream order
    /// check, and at replication 2 the backup-equals-primary check,
    /// apply to failure-free schedules: a reroute re-origins the whole
    /// refused run onto another node's stream (interleaving two streams'
    /// values), so after a failure the invariant is per-run contiguity,
    /// which the deterministic reroute tests pin down.
    #[test]
    fn coalescer_preserves_order_and_exactly_once(
        nodes in 2usize..6,
        replication in 1usize..3,
        window in 0usize..96,
        batch_sizes in prop::collection::vec(1usize..40, 1..12),
        fail_at in 0usize..24,
        fail_node in 0usize..6,
        seed in any::<u64>(),
    ) {
        let cluster = StorageCluster::new(nodes, ClusterConfig { replication });
        let bag = cluster.create_bag();
        let mut client = StorageEndpoint::inline(cluster.clone())
            .client(bag, seed)
            .with_coalescing(window);
        let failed = fail_at < batch_sizes.len();
        let fail_node = fail_node % nodes;
        let mut next_val = 0u64;
        for (i, &n) in batch_sizes.iter().enumerate() {
            if i == fail_at {
                cluster.node(fail_node).fail();
            }
            let chunks: Vec<Chunk> = (0..n as u64).map(|k| chunk(next_val + k)).collect();
            next_val += n as u64;
            // Both staging entries share one set of queues: whole batches
            // and a writer's chunk-at-a-time calls interleave.
            if i % 2 == 0 {
                client.insert_batch(&chunks).unwrap();
            } else {
                for c in chunks {
                    client.insert(c).unwrap();
                }
            }
        }
        client.flush().unwrap();
        // Unreplicated, the failed node's chunks are nowhere else: bring
        // it back before reading.
        if failed && replication == 1 {
            cluster.node(fail_node).recover();
        }
        // Exactly once: every staged value landed somewhere, none twice.
        let landed = RpcPort::inline(cluster.clone()).snapshot_bag(bag).unwrap();
        let vals: Vec<u64> = landed.iter().map(chunk_val).collect();
        let set: HashSet<u64> = vals.iter().copied().collect();
        prop_assert_eq!(vals.len() as u64, next_val, "chunk lost or duplicated");
        prop_assert_eq!(set.len() as u64, next_val, "duplicate delivery");
        if !failed {
            // A single client stages each stream's values in increasing
            // order; coalescing across batches must preserve it.
            for n in 0..nodes {
                let stream = cluster.node(n).snapshot_from(bag, n as u32).unwrap();
                let v: Vec<u64> = stream.iter().map(chunk_val).collect();
                prop_assert!(
                    v.windows(2).all(|w| w[0] < w[1]),
                    "stream order violated at node {}: {:?}", n, v
                );
                if replication == 2 {
                    let backup = cluster.node((n + 1) % nodes).snapshot_from(bag, n as u32).unwrap();
                    prop_assert_eq!(&backup, &stream, "backup of origin {} diverged", n);
                }
            }
        }
    }

    /// Sealing is permanent for contents: a drained sealed bag stays
    /// drained no matter how clients keep probing.
    #[test]
    fn sealed_empty_is_stable(items in 0u64..50, probes in 0usize..20, seed in any::<u64>()) {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut client = BagClient::new(cluster.clone(), bag, seed);
        for i in 0..items {
            client.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        while take_one(&mut client).is_some() {}
        for _ in 0..probes {
            prop_assert_eq!(client.try_remove_batch(1).unwrap(), BatchRemoveResult::Drained);
        }
    }
}
