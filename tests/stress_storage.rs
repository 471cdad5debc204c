//! Concurrency stress tests for the sharded storage hot path.
//!
//! The bag abstraction's whole value (paper §2.2) is that any number of
//! task clones can share one input bag with zero coordination because the
//! storage layer guarantees exactly-once chunk delivery. These tests hammer
//! one bag with concurrent batched inserters and removers — the exact
//! traffic pattern task cloning creates — and assert the invariant holds:
//! every chunk delivered exactly once, nothing lost, and `BagSample`
//! (which the master's cloning heuristic polls) stays consistent
//! throughout and exact at the end.

use hurricane_format::Chunk;
use hurricane_storage::bag::{BagClient, BatchRemoveResult};
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageEndpoint};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const NODES: usize = 8;
const INSERTERS: u64 = 4;
const REMOVERS: u64 = 4;
const CHUNKS_PER_INSERTER: u64 = 2_000;
const INSERT_BATCH: usize = 7;
const REMOVE_BATCH: usize = 13;

fn chunk(v: u64) -> Chunk {
    Chunk::from_vec(v.to_le_bytes().to_vec())
}

fn chunk_val(c: &Chunk) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(c.bytes());
    u64::from_le_bytes(b)
}

/// Runs the stress pattern on `cluster` and checks exactly-once delivery
/// plus exact final sample totals. `make_client` decides the transport
/// under the clients' ports: inline dispatch on each client's own thread
/// (`BagClient::new`), or the channel plane's per-node server pools.
fn stress_with(
    cluster: Arc<StorageCluster>,
    make_client: impl Fn(hurricane_common::BagId, u64) -> BagClient + Send + Sync,
) {
    let bag = cluster.create_bag();
    let total = INSERTERS * CHUNKS_PER_INSERTER;

    // Concurrent sampler: BagSample invariants must hold at every instant
    // while inserters and removers race (the master polls mid-flight).
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let mut port = RpcPort::inline(cluster.clone());
        let sampling = sampling.clone();
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while sampling.load(Ordering::Relaxed) {
                let s = port.sample_bag(bag).unwrap();
                assert_eq!(
                    s.remaining_chunks,
                    s.total_chunks - s.removed_chunks,
                    "sample arithmetic must be internally consistent"
                );
                assert!(s.remaining_bytes <= s.total_bytes);
                assert!((0.0..=1.0).contains(&s.progress()));
                polls += 1;
            }
            polls
        })
    };

    let scope_result = std::thread::scope(|s| {
        let inserters: Vec<_> = (0..INSERTERS)
            .map(|t| {
                let make_client = &make_client;
                s.spawn(move || {
                    let mut client = make_client(bag, 1000 + t);
                    let ids = (t * CHUNKS_PER_INSERTER)..((t + 1) * CHUNKS_PER_INSERTER);
                    let chunks: Vec<Chunk> = ids.map(chunk).collect();
                    for batch in chunks.chunks(INSERT_BATCH) {
                        client.insert_batch(batch).unwrap();
                    }
                })
            })
            .collect();

        let removers: Vec<_> = (0..REMOVERS)
            .map(|t| {
                let make_client = &make_client;
                s.spawn(move || {
                    let mut client = make_client(bag, 2000 + t);
                    let mut got = Vec::new();
                    loop {
                        match client.try_remove_batch(REMOVE_BATCH).unwrap() {
                            BatchRemoveResult::Chunks(chunks) => {
                                got.extend(chunks.iter().map(chunk_val));
                            }
                            BatchRemoveResult::Pending => std::thread::yield_now(),
                            BatchRemoveResult::Drained => return got,
                        }
                    }
                })
            })
            .collect();

        for h in inserters {
            h.join().unwrap();
        }
        cluster.seal_bag(bag).unwrap();

        let mut seen = HashSet::with_capacity(total as usize);
        let mut delivered = 0u64;
        for h in removers {
            for v in h.join().unwrap() {
                delivered += 1;
                assert!(seen.insert(v), "chunk {v} delivered more than once");
            }
        }
        (seen, delivered)
    });
    let (seen, delivered) = scope_result;
    sampling.store(false, Ordering::Relaxed);
    let polls = sampler.join().unwrap();
    assert!(polls > 0, "sampler must have raced the data plane");

    assert_eq!(delivered, total, "no chunk may be lost");
    assert_eq!(seen.len() as u64, total);

    // Final sample: exact totals, fully drained, sealed.
    let s = RpcPort::inline(cluster).sample_bag(bag).unwrap();
    assert_eq!(s.total_chunks, total);
    assert_eq!(s.removed_chunks, total);
    assert_eq!(s.remaining_chunks, 0);
    assert_eq!(s.remaining_bytes, 0);
    assert_eq!(s.total_bytes, total * 8);
    assert!(s.sealed);
}

#[test]
fn concurrent_batched_insert_remove_is_exactly_once() {
    // Inline plane: every client thread runs the node side of its own
    // requests, so the storage nodes' shard locks see real contention.
    let cluster = StorageCluster::new(NODES, ClusterConfig::default());
    let c2 = cluster.clone();
    stress_with(cluster, move |bag, seed| {
        BagClient::new(c2.clone(), bag, seed)
    });
}

#[test]
fn concurrent_batched_insert_remove_with_replication() {
    // Replication factor 2: every batch is mirrored to a backup and every
    // batched remove advances the backup pointer. Exactly-once and exact
    // sample totals must survive the extra traffic.
    let cluster = StorageCluster::new(NODES, ClusterConfig { replication: 2 });
    let c2 = cluster.clone();
    stress_with(cluster, move |bag, seed| {
        BagClient::new(c2.clone(), bag, seed)
    });
}

#[test]
fn concurrent_insert_remove_over_rpc_is_exactly_once() {
    // The same traffic pattern on the channel plane: correlated messages
    // to per-node server pools, concurrent clients each on their own
    // connections.
    let cluster = StorageCluster::new(NODES, ClusterConfig::default());
    let endpoint = StorageEndpoint::channel(cluster.clone());
    stress_with(cluster, move |bag, seed| endpoint.client(bag, seed));
}

#[test]
fn concurrent_insert_remove_over_rpc_with_replication() {
    // Channel plane with replication: genuinely overlapped backup-ack
    // writes and mirrored pointer advances must preserve exactly-once
    // delivery and exact sample totals.
    let cluster = StorageCluster::new(NODES, ClusterConfig { replication: 2 });
    let endpoint = StorageEndpoint::channel(cluster.clone());
    stress_with(cluster, move |bag, seed| endpoint.client(bag, seed));
}

#[test]
fn mixed_single_and_batched_clients_share_exactly_once() {
    // Batched and unbatched clients on the same bag: the pointer-advance
    // paths must compose (a batch is not a separate namespace).
    let cluster = StorageCluster::new(NODES, ClusterConfig::default());
    let bag = cluster.create_bag();
    let total = 4_000u64;

    let producer = {
        let cluster = cluster.clone();
        std::thread::spawn(move || {
            let mut batched = BagClient::new(cluster.clone(), bag, 1);
            let mut single = BagClient::new(cluster, bag, 2);
            let chunks: Vec<Chunk> = (0..total).map(chunk).collect();
            for (i, run) in chunks.chunks(16).enumerate() {
                if i % 2 == 0 {
                    batched.insert_batch(run).unwrap();
                } else {
                    for c in run {
                        single.insert(c.clone()).unwrap();
                    }
                }
            }
        })
    };

    let consumers: Vec<_> = (0..2u64)
        .map(|t| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let mut client = BagClient::new(cluster, bag, 10 + t);
                // One consumer takes eight chunks a call, the other one.
                let max_n = if t == 0 { 8 } else { 1 };
                let mut got = Vec::new();
                loop {
                    match client.try_remove_batch(max_n).unwrap() {
                        BatchRemoveResult::Chunks(chunks) => {
                            got.extend(chunks.iter().map(chunk_val))
                        }
                        BatchRemoveResult::Pending => std::thread::yield_now(),
                        BatchRemoveResult::Drained => return got,
                    }
                }
            })
        })
        .collect();

    producer.join().unwrap();
    cluster.seal_bag(bag).unwrap();
    let mut seen = HashSet::new();
    let mut delivered = 0u64;
    for h in consumers {
        for v in h.join().unwrap() {
            delivered += 1;
            assert!(seen.insert(v), "chunk {v} delivered more than once");
        }
    }
    assert_eq!(delivered, total);
    assert_eq!(seen.len() as u64, total);
}
