//! Chunk prefetching: the runtime analog of batch sampling.
//!
//! Paper §3.3 keeps `b` outstanding storage requests per compute node so
//! that storage stays busy and workers are never starved — "essentially
//! overlapping computation and communication through prefetching of
//! chunks". The prefetcher runs one background fetcher thread per
//! consuming worker and delivers chunks through a bounded queue.
//!
//! There is one fetch loop, whatever transport the client's port wraps.
//! The fetcher keeps up to `min(b, m)` remove probes *concurrently
//! outstanding* against distinct replica groups (walking the client's
//! pseudorandom cyclic order; `RpcPort::submit_remove`) and collects
//! completions as they arrive (`RpcPort::poll_remove`), so storage-side
//! latency is overlapped across nodes exactly as the paper describes. On
//! the inline plane a probe is answered before `submit_remove` returns
//! and the pipeline degenerates to eager execution; nothing else differs.
//! Everything inside one replica group — fail-over, mirroring, the
//! sealed-flag end-of-bag — is the port's; this module only schedules
//! probes and adds their answers up.
//!
//! # The late-binding invariant: a reader holds at most `b` chunks in flight
//!
//! A chunk a probe has claimed is bound to this reader and is invisible
//! to every other one — to a clone the master is about to create, and to
//! the master's sample that decides whether to create it. Late binding
//! (paper §2.2) is only worth anything while the unread work is still in
//! the bag, so the fetcher's claim is bounded by the paper's `b`, not by
//! `b` per node: each probe asks for `⌈b / min(b, m)⌉` chunks, so the
//! probes in flight never request more than `b + min(b, m) − 1` chunks
//! together (exactly `b` when `min(b, m)` divides `b`), and no new probe
//! goes out while the fetcher is parked on a full handoff queue (at most
//! `HANDOFF_RUNS` = 2 answered probes waiting for the consumer).
//!
//! Transport failures are *surfaced*: a fetcher that loses its connection
//! mid-stream sends the error to the consumer rather than ending the
//! stream, and a stream that ends without the fetcher's explicit
//! end-of-bag mark is reported as [`StorageError::PrefetchAborted`] — a
//! drained bag and a dead fetcher are never confused.
//!
//! The fetcher→consumer handoff is **batched**: each completed probe (a
//! whole `RemoveBatch` reply) crosses the bounded queue as one run, not
//! one channel operation per chunk. The consumer side buffers the current
//! run and serves [`Prefetcher::recv`] from it, so per-chunk delivery
//! cost is a `VecDeque` pop, and the channel's synchronization is paid
//! once per batch.

use crate::bag::BagClient;
use crate::error::StorageError;
use crate::rpc::{RemoveProbe, RpcPort};
use crossbeam::channel::{bounded, Receiver, Sender};
use hurricane_format::Chunk;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many chunk runs the fetcher→consumer queue buffers. Two gives
/// double buffering (the fetcher refills one run while the consumer
/// drains another); the pipeline depth proper lives in the fetcher's
/// outstanding-request budget, not in this queue.
const HANDOFF_RUNS: usize = 2;

/// A handle to a prefetching consumer of one bag.
///
/// Dropping the handle stops the fetcher promptly and race-free: drop
/// raises a dedicated shutdown flag, then closes the receiving side of
/// the data channel. A fetcher parked on a full queue observes the
/// disconnect (its blocked `send` fails immediately), and a fetcher
/// mid-probe observes the flag before its next send — there is no window
/// in which it can keep running.
pub struct Prefetcher {
    rx: Option<Receiver<Result<Vec<Chunk>, StorageError>>>,
    /// The run currently being served to the consumer.
    buffered: VecDeque<Chunk>,
    shutdown: Arc<AtomicBool>,
    /// Set by the fetcher before every intentional exit (drained bag or
    /// explicitly delivered error). A disconnected channel without this
    /// mark means the fetcher died: surfaced as `PrefetchAborted`.
    ended: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns a fetcher over `client` holding at most `batch_factor`
    /// chunks in flight, spread over up to `batch_factor` concurrently
    /// outstanding probes (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `batch_factor` is zero.
    pub fn spawn(client: BagClient, batch_factor: usize) -> Self {
        assert!(batch_factor > 0, "batch factor must be at least 1");
        let (tx, rx) = bounded(HANDOFF_RUNS);
        let shutdown = Arc::new(AtomicBool::new(false));
        let ended = Arc::new(AtomicBool::new(false));
        let shutdown2 = shutdown.clone();
        let ended2 = ended.clone();
        let handle = std::thread::Builder::new()
            .name(format!("prefetch-{}", client.bag_id()))
            .spawn(move || fetch(client, batch_factor, &tx, &shutdown2, &ended2))
            .expect("spawning prefetch thread");
        Self {
            rx: Some(rx),
            buffered: VecDeque::new(),
            shutdown,
            ended,
            handle: Some(handle),
        }
    }

    fn rx(&self) -> &Receiver<Result<Vec<Chunk>, StorageError>> {
        self.rx.as_ref().expect("receiver lives until drop")
    }

    /// Receives the next chunk, blocking until one is available or the bag
    /// drains (`Ok(None)`). Serves from the buffered run when one is in
    /// hand; whole runs cross the fetcher boundary once.
    pub fn recv(&mut self) -> Result<Option<Chunk>, StorageError> {
        loop {
            if let Some(c) = self.buffered.pop_front() {
                return Ok(Some(c));
            }
            match self.rx().recv() {
                Ok(Ok(run)) => self.buffered = run.into(),
                Ok(Err(e)) => return Err(e),
                // Fetcher exited. Only an intentional exit means "drained".
                Err(_) if self.ended.load(Ordering::Acquire) => return Ok(None),
                Err(_) => return Err(StorageError::PrefetchAborted),
            }
        }
    }

    /// Non-blocking receive; `Ok(None)` means nothing buffered *right now*
    /// (the bag may or may not be drained — use [`Prefetcher::recv`] for
    /// termination detection).
    pub fn try_recv(&mut self) -> Result<Option<Chunk>, StorageError> {
        loop {
            if let Some(c) = self.buffered.pop_front() {
                return Ok(Some(c));
            }
            match self.rx().try_recv() {
                Ok(Ok(run)) => self.buffered = run.into(),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Ok(None),
            }
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Order matters: raise the flag first so a fetcher that is *about*
        // to probe again stops, then drop the receiver so a fetcher parked
        // on a full queue fails its blocked send and exits. Both paths
        // converge without ever re-entering the send loop.
        self.shutdown.store(true, Ordering::Release);
        drop(self.rx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What the last completed probe of a replica group reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeLast {
    /// No completion yet.
    Unknown,
    /// Returned chunks.
    Chunks,
    /// Exhausted with nothing to give, bag not at end-of-file there.
    Empty,
    /// End-of-file: sealed and exhausted. The group is done for good.
    Eof,
    /// Unreachable (node down / all its replicas down).
    Down,
}

/// How long the collector blocks when no completion is ready anywhere —
/// short, so top-up latency stays bounded.
const PUMP_WAIT: Duration = Duration::from_micros(200);

/// The fetch loop: keeps up to `min(b, m)` remove probes outstanding
/// against distinct replica groups, `b` chunks requested between them,
/// and collects completions out of order.
fn fetch(
    mut client: BagClient,
    b: usize,
    tx: &Sender<Result<Vec<Chunk>, StorageError>>,
    shutdown: &AtomicBool,
    ended: &AtomicBool,
) {
    let bag = client.bag;
    let mut m = client.remove_cursor.len();
    let mut target = b.min(m).max(1);
    // At most one outstanding probe per group (the paper spreads the `b`
    // requests over distinct nodes); `probes[i]` is the one whose primary
    // is node i.
    let mut probes: Vec<Option<RemoveProbe>> = (0..m).map(|_| None).collect();
    let mut last: Vec<NodeLast> = vec![NodeLast::Unknown; m];
    let mut outstanding = 0usize;
    let mut empty_streak = 0usize;
    let mut backoff_us = 10u64;

    macro_rules! fail {
        ($e:expr) => {{
            let _ = tx.send(Err($e));
            ended.store(true, Ordering::Release);
            return;
        }};
    }

    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        // Pick up nodes that joined mid-stream (epoch check: one atomic
        // load when nothing changed). New nodes start Unknown, so the
        // top-up probes them like any other node.
        client.refresh_membership();
        let grown = client.remove_cursor.len();
        if grown > m {
            probes.resize_with(grown, || None);
            last.resize(grown, NodeLast::Unknown);
            m = grown;
            target = b.min(m).max(1);
        }
        let port: &mut RpcPort = &mut client.port;

        // Top up: probe non-EOF groups without a probe in flight,
        // following the cyclic placement order. The per-probe budget
        // keeps the chunks requested across all probes at `b` (the
        // late-binding invariant of the module docs).
        let mut scanned = 0;
        while outstanding < target && scanned < m {
            let node = client.remove_cursor.next_node();
            scanned += 1;
            if probes[node].is_some() || last[node] == NodeLast::Eof {
                continue;
            }
            match port.submit_remove(node, bag, b.div_ceil(target)) {
                Ok(probe) => {
                    probes[node] = Some(probe);
                    outstanding += 1;
                }
                Err(e) => fail!(e),
            }
        }

        if outstanding == 0 && last.iter().all(|&s| s == NodeLast::Eof) {
            // Nothing in flight and every group is at end-of-file: the
            // bag is drained. (Mixtures involving unreachable nodes fall
            // through to the classification below.)
            ended.store(true, Ordering::Release);
            return;
        }

        // Collect completions (any order).
        let mut completed = 0usize;
        let mut delivered = false;
        for node in 0..m {
            let Some(probe) = probes[node].as_mut() else {
                continue;
            };
            let Some(result) = port.poll_remove(probe) else {
                continue;
            };
            probes[node] = None;
            outstanding -= 1;
            completed += 1;
            match result {
                Ok(batch) if !batch.chunks.is_empty() => {
                    delivered = true;
                    last[node] = NodeLast::Chunks;
                    // The whole drained reply crosses the consumer
                    // boundary once.
                    if tx.send(Ok(batch.chunks)).is_err() {
                        return;
                    }
                }
                Ok(batch) if batch.eof => last[node] = NodeLast::Eof,
                Ok(_) => last[node] = NodeLast::Empty,
                // A group that is gone is skipped like a down node; one
                // that is up but disk-sick still holds its chunks, so its
                // error ends the stream (see `BagClient::unreachable`).
                Err(e) if BagClient::unreachable(&e) => last[node] = NodeLast::Down,
                Err(e) => fail!(e),
            }
        }

        // A whole cluster of unreachable nodes is an error, not a drain —
        // parity with `BagClient::try_remove_batch`.
        if last.iter().all(|&s| s == NodeLast::Down) {
            fail!(StorageError::AllReplicasDown(bag));
        }
        // Every group at end-of-file (which the port only reports under
        // the cluster's sealed flag) or unreachable: the reachable data
        // is exhausted. Chunks marooned on a down node without replicas
        // are unreachable until it recovers.
        if last
            .iter()
            .all(|&s| matches!(s, NodeLast::Eof | NodeLast::Down))
        {
            ended.store(true, Ordering::Release);
            return;
        }

        if delivered {
            empty_streak = 0;
            backoff_us = 10;
        } else if completed > 0 {
            empty_streak += completed;
            if empty_streak >= m {
                // A full round of empty completions: the bag is (locally)
                // empty but unsealed. Back off.
                std::thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = (backoff_us * 2).min(1000);
                empty_streak = 0;
            }
        } else if let Some(probe) = probes.iter().flatten().next() {
            // Nothing completed this sweep: block briefly on one
            // in-flight connection instead of spinning.
            port.pump_remove(probe, PUMP_WAIT);
        } else {
            // Nothing in flight (unreachable nodes being re-probed).
            std::thread::sleep(Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(1000);
        }
    }
}

#[cfg(test)]
mod tests {
    //! One fetch loop, two in-process transports: clients opened with
    //! `BagClient::new` run it on the inline plane (probes answered on
    //! the fetcher's own thread), clients minted from a `channel`
    //! endpoint on server threads (the `pipelined_*` legs).

    use super::*;
    use crate::cluster::{ClusterConfig, StorageCluster};
    use crate::endpoint::{StorageEndpoint, IN_PROCESS_PLANES};

    fn chunk(v: u64) -> Chunk {
        Chunk::from_vec(v.to_le_bytes().to_vec())
    }

    #[test]
    fn reader_claims_at_most_b_chunks_ahead_of_its_consumer() {
        // The late-binding invariant: with nobody consuming, the fetcher
        // parks holding `b` chunks in probes plus the handoff queue — not
        // `b` per node — and everything else stays in the bag for other
        // readers (and for the master's sample) to see.
        const B: usize = 4;
        for make in IN_PROCESS_PLANES {
            let ep = make(StorageCluster::new(2, ClusterConfig::default()));
            let bag = ep.cluster().create_bag();
            let chunks: Vec<Chunk> = (0..100).map(chunk).collect();
            ep.client(bag, 1).insert_batch(&chunks).unwrap();
            ep.cluster().seal_bag(bag).unwrap();
            let mut pf = Prefetcher::spawn(ep.client(bag, 2), B);
            let per_probe = B.div_ceil(2);
            let bound = (B + HANDOFF_RUNS * per_probe) as u64;
            // Parked means the claim count stopped moving.
            let mut held = 0;
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(5));
                let now = ep.port().sample_bag(bag).unwrap().removed_chunks;
                if now == held && now > 0 {
                    break;
                }
                held = now;
            }
            assert!(
                (1..=bound).contains(&held),
                "an idle reader holds {held} chunks, bound {bound}"
            );
            let mut n = 0;
            while pf.recv().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 100, "the bound must not cost a chunk");
            ep.shutdown();
        }
    }

    #[test]
    fn prefetcher_drains_bag() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 1);
        for i in 0..100 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 2), 10);
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn pipelined_prefetcher_drains_bag() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 1);
        let chunks: Vec<Chunk> = (0..100).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(ep.client(bag, 2), 8);
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn pipelined_prefetcher_sees_concurrent_producer() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(ep.client(bag, 3), 4);
        let cluster2 = cluster.clone();
        let producer = std::thread::spawn(move || {
            let mut p = BagClient::new(cluster2.clone(), bag, 4);
            for i in 0..50 {
                p.insert(chunk(i)).unwrap();
            }
            cluster2.seal_bag(bag).unwrap();
        });
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        producer.join().unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn pipelined_prefetcher_with_replication_mirrors() {
        let cluster = StorageCluster::new(3, ClusterConfig { replication: 2 });
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 5);
        let chunks: Vec<Chunk> = (0..60).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        {
            let mut pf = Prefetcher::spawn(ep.client(bag, 6), 4);
            let mut n = 0;
            while let Some(_c) = pf.recv().unwrap() {
                n += 1;
            }
            assert_eq!(n, 60);
        }
        // The pipeline mirrored its pointer advances: failing a primary
        // now serves nothing a second time.
        cluster.node(0).fail();
        let rest = ep.port().remove_batch(0, bag, 100).unwrap();
        assert!(rest.chunks.is_empty() && rest.eof, "no chunk served twice");
    }

    #[test]
    fn pipelined_prefetcher_picks_up_joined_node() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(ep.client(bag, 3), 4);
        // A node joins while the prefetcher is already streaming; the
        // producer (fresh client) spreads chunks over all three nodes.
        let idx = ep.add_node();
        let mut producer = ep.client(bag, 4);
        let before = cluster.node(idx).sample(bag).unwrap().total_chunks;
        assert_eq!(before, 0);
        for i in 0..60 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        // All 60 delivered — including the joined node's share, which the
        // prefetcher can only reach by refreshing its membership.
        assert_eq!(n, 60);
    }

    #[test]
    fn prefetcher_pipelines_concurrent_producer() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 3), 4);
        let cluster2 = cluster.clone();
        let t = std::thread::spawn(move || {
            let mut p = BagClient::new(cluster2.clone(), bag, 4);
            for i in 0..50 {
                p.insert(chunk(i)).unwrap();
            }
            cluster2.seal_bag(bag).unwrap();
        });
        let mut n = 0;
        while let Some(_c) = pf.recv().unwrap() {
            n += 1;
        }
        t.join().unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn dropping_prefetcher_mid_stream_does_not_hang() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 5);
        for i in 0..1000 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 6), 2);
        let _first = pf.recv().unwrap();
        drop(pf); // Must join cleanly even with 998 chunks unread.
    }

    #[test]
    fn dropping_pipelined_prefetcher_mid_stream_does_not_hang() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 5);
        let chunks: Vec<Chunk> = (0..1000).map(chunk).collect();
        producer.insert_batch(&chunks).unwrap();
        cluster.seal_bag(bag).unwrap();
        let mut pf = Prefetcher::spawn(ep.client(bag, 6), 3);
        let _first = pf.recv().unwrap();
        drop(pf);
    }

    #[test]
    fn repeated_drop_mid_stream_is_race_free() {
        // Regression scope for the old drain-then-swap shutdown race:
        // spawn and drop many prefetchers at random consumption depths;
        // every drop must join (the test would hang, not fail, if the
        // fetcher missed the shutdown signal).
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..500 {
            producer.insert(chunk(i)).unwrap();
        }
        for round in 0..50 {
            let mut pf = Prefetcher::spawn(
                BagClient::new(cluster.clone(), bag, 100 + round),
                1 + (round as usize % 4),
            );
            for _ in 0..(round % 3) {
                let _ = pf.try_recv();
            }
            drop(pf);
        }
    }

    #[test]
    fn two_prefetchers_share_exactly_once() {
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..200 {
            producer.insert(chunk(i)).unwrap();
        }
        cluster.seal_bag(bag).unwrap();
        let mut a = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 8), 5);
        let mut b = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 9), 5);
        let ta = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(_c) = a.recv().unwrap() {
                n += 1;
            }
            n
        });
        let tb = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(_c) = b.recv().unwrap() {
                n += 1;
            }
            n
        });
        let total = ta.join().unwrap() + tb.join().unwrap();
        assert_eq!(total, 200);
    }

    #[test]
    fn error_propagates() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 10);
        producer.insert(chunk(1)).unwrap();
        cluster.node(0).fail();
        let mut pf = Prefetcher::spawn(BagClient::new(cluster.clone(), bag, 11), 2);
        assert!(pf.recv().is_err());
    }

    #[test]
    fn pipelined_error_propagates_on_all_down() {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let ep = StorageEndpoint::channel(cluster.clone());
        let bag = cluster.create_bag();
        let mut producer = ep.client(bag, 12);
        producer.insert(chunk(1)).unwrap();
        cluster.node(0).fail();
        cluster.node(1).fail();
        let mut pf = Prefetcher::spawn(ep.client(bag, 13), 4);
        assert!(matches!(
            pf.recv(),
            Err(StorageError::AllReplicasDown(_) | StorageError::NodeDown(_))
        ));
    }
}
