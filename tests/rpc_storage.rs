//! Integration tests of the storage RPC boundary: correlation-id matching
//! under concurrent outstanding requests, request timeouts, server-loop
//! shutdown draining, the prefetcher's `b`-outstanding-requests pipeline,
//! and transport-error surfacing.

use hurricane_common::{BagId, StorageNodeId};
use hurricane_format::Chunk;
use hurricane_storage::bag::BagClient;
use hurricane_storage::prefetch::Prefetcher;
use hurricane_storage::rpc::{
    dispatch, loopback, LoopbackServer, NodeConnection, NodeServerHandle, RpcPort, StorageRequest,
    StorageResponse,
};
use hurricane_storage::{
    next_run_id, ClusterConfig, Membership, OnceConnect, StorageCluster, StorageEndpoint,
    StorageError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chunk(v: u64) -> Chunk {
    Chunk::from_vec(v.to_le_bytes().to_vec())
}

fn chunk_val(c: &Chunk) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(c.bytes());
    u64::from_le_bytes(b)
}

/// Correlation under load: many requests outstanding on ONE connection to
/// a server pool that dispatches on several threads (so replies really do
/// reorder), redeemed in reverse submit order. Every token must resolve to
/// exactly its own request's payload.
#[test]
fn correlation_matches_under_concurrent_outstanding_requests() {
    let node = Arc::new(hurricane_storage::StorageNode::new(StorageNodeId(0)));
    let bag = BagId(1);
    // Origin stream `i` holds one chunk, `i`: each snapshot of one
    // origin has a payload of its own.
    for i in 0..64u32 {
        node.insert_run(bag, &[chunk(i.into())], i, next_run_id())
            .unwrap();
    }
    let server = NodeServerHandle::spawn(node, 4);
    let mut conn = NodeConnection::new(Box::new(server.connect()));
    let tokens: Vec<_> = (0..64u32)
        .map(|origin| {
            conn.submit(StorageRequest::SnapshotFrom { bag, origin })
                .unwrap()
        })
        .collect();
    assert_eq!(conn.outstanding(), 64);
    for (i, token) in tokens.into_iter().enumerate().rev() {
        match conn.wait(token).unwrap() {
            StorageResponse::Chunks(chunks) => {
                assert_eq!(
                    chunks.iter().map(chunk_val).collect::<Vec<_>>(),
                    [i as u64],
                    "token {i} got someone else's reply"
                );
            }
            other => panic!("wrong response for token {i}: {other:?}"),
        }
    }
    assert_eq!(conn.outstanding(), 0);
}

/// A request that never gets a reply, at any of its attempts, times out
/// with an explicit error.
#[test]
fn request_timeout_surfaces_through_the_port() {
    let cluster = StorageCluster::new(1, ClusterConfig::default());
    let bag = cluster.create_bag();
    BagClient::new(cluster.clone(), bag, 1)
        .insert(chunk(1))
        .unwrap();
    // A port whose single connection leads to a server nobody runs.
    let (transport, _server) = loopback(StorageNodeId(0));
    let membership = Membership::new();
    membership.join(OnceConnect::new(Box::new(transport)));
    let mut port = RpcPort::from_membership(cluster.clone(), membership, Duration::from_millis(30));
    let err = port.remove_batch(0, bag, 4).unwrap_err();
    assert_eq!(err, StorageError::Timeout(StorageNodeId(0)));
}

/// Shutdown must *drain*: every request submitted before shutdown is
/// answered; requests after shutdown fail with `Disconnected`.
#[test]
fn server_shutdown_drains_in_flight_requests() {
    let node = Arc::new(hurricane_storage::StorageNode::new(StorageNodeId(2)));
    let bag = BagId(7);
    let server = NodeServerHandle::spawn(node.clone(), 1);
    let mut conn = NodeConnection::new(Box::new(server.connect()));
    let tokens: Vec<_> = (0..200u64)
        .map(|i| {
            conn.submit(StorageRequest::InsertBatch {
                bag,
                origin: 2,
                run: hurricane_storage::next_run_id(),
                chunks: vec![chunk(i)].into(),
            })
            .unwrap()
        })
        .collect();
    // Shut down immediately: most of the 200 requests are still queued.
    server.shutdown();
    for token in tokens {
        assert_eq!(
            conn.wait(token).unwrap(),
            StorageResponse::Inserted,
            "a drained shutdown must answer every submitted request"
        );
    }
    // Every insert actually executed.
    assert_eq!(node.sample(bag).unwrap().total_chunks, 200);
    // The boundary is now closed.
    assert_eq!(
        conn.submit(StorageRequest::Ping).unwrap_err(),
        StorageError::Disconnected(StorageNodeId(2))
    );
}

/// The paper's pipeline claim, made observable: against a stalled
/// transport (the test plays a server that accepts but does not answer),
/// a consumer's first `recv` puts exactly `b` concurrently outstanding
/// requests on the wire, spread over distinct nodes — not one request
/// at a time.
#[test]
fn prefetcher_keeps_b_requests_in_flight() {
    const NODES: usize = 8;
    const B: usize = 6;
    let cluster = StorageCluster::new(NODES, ClusterConfig::default());
    let bag = cluster.create_bag();
    let mut loader = BagClient::new(cluster.clone(), bag, 1);
    let chunks: Vec<Chunk> = (0..200u64).map(chunk).collect();
    loader.insert_batch(&chunks).unwrap();
    cluster.seal_bag(bag).unwrap();

    let membership = Membership::new();
    let mut servers: Vec<LoopbackServer> = Vec::new();
    for i in 0..NODES {
        let (transport, server) = loopback(StorageNodeId(i as u32));
        membership.join(OnceConnect::new(Box::new(transport)));
        servers.push(server);
    }
    let endpoint = StorageEndpoint::custom(cluster.clone(), membership)
        .with_request_timeout(Duration::from_secs(10));
    let mut pf = Prefetcher::new(endpoint.client(bag, 2), B);
    // Nothing goes on the wire before the consumer asks.
    assert_eq!(servers.iter().map(|s| s.queued()).sum::<usize>(), 0);
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Some(c) = pf.recv().unwrap() {
            got.push(chunk_val(&c));
        }
        got
    });

    // With no server answering, the pipeline must stall at exactly its
    // outstanding budget: B requests queued across B distinct nodes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let queued: usize = servers.iter().map(|s| s.queued()).sum();
        assert!(queued <= B, "pipeline exceeded its outstanding budget");
        if queued == B {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prefetcher never reached {B} outstanding requests (got {queued})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Each outstanding request sits on a distinct node.
    assert_eq!(servers.iter().filter(|s| s.queued() == 1).count(), B);

    // Now play the server: dispatch every request against the real nodes
    // until the consumer has drained the bag.
    while !consumer.is_finished() {
        for (i, server) in servers.iter_mut().enumerate() {
            while let Some(env) = server.recv(Duration::from_millis(2)) {
                let result = dispatch(&cluster.node(i), env.request);
                server.reply(env.id, result);
            }
        }
    }
    let mut got = consumer.join().unwrap();
    got.sort_unstable();
    assert_eq!(
        got,
        (0..200u64).collect::<Vec<_>>(),
        "exactly once, nothing lost"
    );
}

/// Losing the transport mid-stream must surface as an error to the
/// consumer — never as a silent end-of-bag.
#[test]
fn prefetcher_surfaces_disconnect_not_silent_eof() {
    let cluster = StorageCluster::new(2, ClusterConfig::default());
    let endpoint = StorageEndpoint::channel(cluster.clone());
    let bag = cluster.create_bag();
    let mut producer = endpoint.client(bag, 1);
    for i in 0..10u64 {
        producer.insert(chunk(i)).unwrap();
    }
    // NOT sealed: after consuming everything the prefetcher keeps polling.
    let mut pf = Prefetcher::new(endpoint.client(bag, 2), 4);
    for _ in 0..10 {
        assert!(pf.recv().unwrap().is_some());
    }
    // Kill the server loops while the reader has probes in flight. A dead
    // connection classifies like an unreachable node, so with every
    // server gone the pipeline surfaces all-replicas-down — an explicit
    // error either way, never a silent end-of-bag.
    endpoint.shutdown();
    match pf.recv() {
        Err(
            StorageError::Disconnected(_)
            | StorageError::AllReplicasDown(_)
            | StorageError::Timeout(_),
        ) => {}
        other => panic!("disconnect must surface as an error, got {other:?}"),
    }
}

/// One dead server among live ones must behave like one down node: the
/// client reroutes inserts and keeps removing from the reachable nodes
/// instead of hard-failing.
#[test]
fn one_dead_server_reroutes_like_a_down_node() {
    let cluster = StorageCluster::new(3, ClusterConfig::default());
    let servers: Vec<_> = (0..3)
        .map(|i| NodeServerHandle::spawn(cluster.node(i), 1))
        .collect();
    let membership = Membership::new();
    for s in &servers {
        membership.join(OnceConnect::new(Box::new(s.connect())));
    }
    let endpoint = StorageEndpoint::custom(cluster.clone(), membership)
        .with_request_timeout(Duration::from_secs(5));
    let bag = cluster.create_bag();
    let mut client = endpoint.client(bag, 9);
    servers[1].shutdown();
    let chunks: Vec<Chunk> = (0..30u64).map(chunk).collect();
    client.insert_batch(&chunks).unwrap();
    cluster.seal_bag(bag).unwrap();
    let mut got = 0u64;
    loop {
        use hurricane_storage::BatchRemoveResult;
        match client.try_remove_batch(8).unwrap() {
            BatchRemoveResult::Chunks(c) => got += c.len() as u64,
            BatchRemoveResult::Pending => std::thread::yield_now(),
            BatchRemoveResult::Drained => break,
        }
    }
    assert_eq!(got, 30, "all chunks land on and drain from live nodes");
    // Nothing leaked onto the dead server's node through the back door.
    assert_eq!(cluster.node(1).sample(bag).unwrap().total_chunks, 0);
}

/// Full data-plane roundtrip through RPC clients: concurrent producers
/// and consumers, replication on, exactly-once delivery.
#[test]
fn rpc_clients_share_exactly_once_with_replication() {
    let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
    let endpoint = Arc::new(StorageEndpoint::channel(cluster.clone()));
    let bag = cluster.create_bag();
    let total = 3_000u64;

    let producers: Vec<_> = (0..3u64)
        .map(|t| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = endpoint.client(bag, 100 + t);
                let ids = (t * 1000)..((t + 1) * 1000);
                let chunks: Vec<Chunk> = ids.map(chunk).collect();
                for batch in chunks.chunks(16) {
                    client.insert_batch(batch).unwrap();
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..2u64)
        .map(|t| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut client = endpoint.client(bag, 200 + t);
                loop {
                    use hurricane_storage::BatchRemoveResult;
                    match client.try_remove_batch(32).unwrap() {
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
    for p in producers {
        p.join().unwrap();
    }
    cluster.seal_bag(bag).unwrap();
    let mut seen = std::collections::HashSet::new();
    let mut delivered = 0u64;
    for c in consumers {
        for v in c.join().unwrap() {
            delivered += 1;
            assert!(seen.insert(v), "chunk {v} delivered more than once");
        }
    }
    assert_eq!(delivered, total);
    assert_eq!(seen.len() as u64, total);
}

/// The coalescer's whole point, asserted: the same insert traffic sends a
/// fraction of the envelopes. Four 64-chunk batches over 8 nodes cost
/// 8 envelopes with a 256-chunk window (one per node for the merged run)
/// versus 32 eager (one per node per batch).
#[test]
fn coalescer_reduces_insert_envelope_count() {
    let cluster = StorageCluster::new(8, ClusterConfig::default());
    let chunks: Vec<Chunk> = (0..256u64).map(chunk).collect();

    let inline = StorageEndpoint::inline(cluster.clone());
    let eager_bag = cluster.create_bag();
    let mut eager = inline.client(eager_bag, 7);
    for batch in chunks.chunks(64) {
        eager.insert_batch(batch).unwrap();
    }
    let eager_stats = eager.port_stats().unwrap();
    assert_eq!(eager_stats.insert_envelopes, 32, "8 nodes x 4 batches");
    assert_eq!(eager_stats.flushes, 4);

    let bag = cluster.create_bag();
    let mut coalesced = inline.client(bag, 7).with_coalescing(256);
    for batch in chunks.chunks(64) {
        coalesced.insert_batch(batch).unwrap();
    }
    coalesced.flush().unwrap();
    let stats = coalesced.port_stats().unwrap();
    assert_eq!(stats.staged_chunks, 256);
    assert_eq!(
        stats.insert_envelopes, 8,
        "one merged envelope per node for the whole window"
    );
    assert_eq!(stats.flushes, 1);
    // Same data landed, same cyclic balance (identical seed).
    for i in 0..8 {
        assert_eq!(cluster.node(i).sample(bag).unwrap().total_chunks, 32);
    }
}

/// Writer flow control (ROADMAP item): against a stalled node, a writer's
/// submits block at the configured credit instead of growing the request
/// lane unboundedly — and resume as soon as a reply frees credit.
#[test]
fn writer_credit_bounds_the_lane_on_a_stalled_node() {
    let (transport, mut server) = loopback(StorageNodeId(0));
    let mut conn = NodeConnection::with_credit(Box::new(transport), 4);
    for _ in 0..4 {
        conn.submit(StorageRequest::Ping).unwrap();
    }
    assert_eq!(conn.on_wire(), 4);
    assert_eq!(server.queued(), 4);
    // The fifth submit must block (the server answers nothing).
    let blocked = std::thread::spawn(move || {
        conn.submit(StorageRequest::Ping).unwrap();
        conn
    });
    std::thread::sleep(Duration::from_millis(60));
    assert!(
        !blocked.is_finished(),
        "submit must block at the credit, not grow the lane"
    );
    assert_eq!(server.queued(), 4, "stalled lane bounded at the credit");
    // Answer one request: credit frees, the blocked submit completes.
    let env = server.recv(Duration::from_secs(1)).unwrap();
    assert!(server.reply(env.id, Ok(StorageResponse::Pong)));
    let conn = blocked.join().unwrap();
    assert_eq!(conn.on_wire(), 4, "one freed, one newly sent");
}

/// A coalesced window split across a mid-stream node failure: staged runs
/// refused at flush reroute to live nodes, with nothing lost or doubled.
#[test]
fn coalesced_flush_reroutes_around_mid_stream_failure() {
    let cluster = StorageCluster::new(4, ClusterConfig::default());
    let bag = cluster.create_bag();
    let mut client = StorageEndpoint::inline(cluster.clone())
        .client(bag, 11)
        .with_coalescing(10_000);
    let first: Vec<Chunk> = (0..40u64).map(chunk).collect();
    client.insert_batch(&first).unwrap();
    // Node 2 dies while the window is still staged.
    cluster.node(2).fail();
    let second: Vec<Chunk> = (40..80u64).map(chunk).collect();
    client.insert_batch(&second).unwrap();
    client.flush().unwrap();
    // Exactly once across the three live nodes. A snapshot reads every
    // origin, so node 2 is back (empty) before it runs.
    cluster.node(2).recover();
    let landed = RpcPort::inline(cluster.clone()).snapshot_bag(bag).unwrap();
    let mut vals: Vec<u64> = landed.iter().map(chunk_val).collect();
    vals.sort_unstable();
    assert_eq!(vals, (0..80u64).collect::<Vec<_>>());
    assert_eq!(
        cluster.node(2).sample(bag).unwrap().total_chunks,
        0,
        "nothing landed on the dead node"
    );
}
