//! Chunk prefetching: the runtime analog of batch sampling.
//!
//! Paper §3.3 keeps `b` outstanding storage requests per consumer so that
//! storage stays busy and workers are never starved — "essentially
//! overlapping computation and communication through prefetching of
//! chunks". A [`Prefetcher`] is a plain struct its consumer drives, with
//! no thread of its own. A [`Prefetcher::recv`] that finds its buffer empty
//! tops up to `min(b, m)` remove probes against distinct replica groups
//! (walking the client's pseudorandom cyclic order;
//! `RpcPort::submit_remove`), collects whichever have answered
//! (`RpcPort::poll_remove`) into the buffer, and tops the probes up
//! again before it returns the first chunk. So on the channel and TCP
//! planes the next probes are in flight while the worker computes, and
//! storage-side latency overlaps across nodes as the paper describes. On
//! the inline plane a probe is answered before `submit_remove` returns
//! and the pipeline degenerates to eager execution; nothing else
//! differs. Everything inside one replica group — fail-over, mirroring,
//! the sealed-flag end-of-bag — is the port's; this module only
//! schedules probes and adds their answers up.
//!
//! Nothing goes on the wire before the first `recv`: a reader that is
//! opened and never read (an input its task only snapshots) claims no
//! chunk.
//!
//! # The late-binding invariant: a reader holds at most two rounds of `b`
//!
//! A chunk a probe has claimed is bound to this reader and is invisible
//! to every other one — to a clone the master is about to create, and to
//! the master's sample that decides whether to create it. Late binding
//! (paper §2.2) is only worth anything while the unread work is still in
//! the bag, so the claim is bounded by the paper's `b`, not by `b` per
//! node: each probe asks for `⌈b / min(b, m)⌉` chunks, so the probes in
//! flight request at most `b + min(b, m) − 1` chunks together (exactly
//! `b` when `min(b, m)` divides `b`). The buffer holds one collected
//! round of them and is refilled only once it is empty, so an unread
//! reader holds nothing and a reading one at most twice that: the
//! buffer plus the probes in flight.
//!
//! # Where it waits
//!
//! Only inside a `recv` whose buffer is empty: for up to 200 µs on one
//! in-flight probe's connection when no probe has answered, and for an
//! exponential back-off (10 µs doubling to 1 ms) after a full round of
//! empty answers from a bag that is not sealed, or when nothing is in
//! flight.
//!
//! # Failures
//!
//! A replica group that is gone (down, or its connection dead) is
//! skipped and re-probed. A group that is up but disk-sick still holds
//! its chunks, so its error ends the stream (see `BagClient::unreachable`),
//! as does a cluster whose every group is gone. End-of-bag is reported
//! only once every group has answered end-of-file — which the port
//! reports only under the cluster's sealed flag — or is gone. Chunks
//! collected before an error are served first; the error is then
//! returned by every later `recv`.

use crate::bag::BagClient;
use crate::error::StorageError;
use crate::rpc::RemoveProbe;
use hurricane_format::Chunk;
use std::collections::VecDeque;
use std::time::Duration;

/// A consumer of one bag that keeps up to `b` chunks of remove probes in
/// flight (see the [module docs](self)).
pub struct Prefetcher {
    client: BagClient,
    /// The paper's `b`: chunks requested across all probes in flight.
    b: usize,
    /// At most one probe per replica group (the paper spreads the `b`
    /// requests over distinct nodes); `probes[i]` is the one whose
    /// primary is node i.
    probes: Vec<Option<RemoveProbe>>,
    /// What each group's last answered probe reported.
    last: Vec<NodeLast>,
    /// Collected chunks not yet handed to the consumer.
    buffered: VecDeque<Chunk>,
    /// How the stream ended, once it has: drained or failed. Served
    /// after `buffered`.
    end: Option<Result<(), StorageError>>,
    /// Empty answers since the last chunk arrived or the last back-off.
    empty_streak: usize,
    backoff_us: u64,
}

/// What the last completed probe of a replica group reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeLast {
    /// Nothing yet, chunks, or an empty answer before end-of-file: the
    /// group may hold more.
    Open,
    /// End-of-file: sealed and exhausted. The group is done for good.
    Eof,
    /// Unreachable (node down / all its replicas down).
    Down,
}

/// How long a `recv` blocks on one in-flight probe when none has
/// answered — short, so top-up latency stays bounded.
const PUMP_WAIT: Duration = Duration::from_micros(200);

impl Prefetcher {
    /// A reader of `client`'s bag holding at most `batch_factor` chunks
    /// in flight, spread over up to `batch_factor` concurrently
    /// outstanding probes. Sends nothing until the first
    /// [`Prefetcher::recv`].
    ///
    /// # Panics
    ///
    /// Panics if `batch_factor` is zero.
    pub fn new(client: BagClient, batch_factor: usize) -> Self {
        assert!(batch_factor > 0, "batch factor must be at least 1");
        Self {
            client,
            b: batch_factor,
            probes: Vec::new(),
            last: Vec::new(),
            buffered: VecDeque::new(),
            end: None,
            empty_streak: 0,
            backoff_us: 10,
        }
    }

    /// Receives the next chunk, blocking until one is available or the
    /// bag drains (`Ok(None)`).
    pub fn recv(&mut self) -> Result<Option<Chunk>, StorageError> {
        loop {
            if let Some(c) = self.buffered.pop_front() {
                return Ok(Some(c));
            }
            match &self.end {
                None => {
                    if let Err(e) = self.fetch() {
                        self.end = Some(Err(e));
                    }
                }
                Some(Ok(())) => return Ok(None),
                Some(Err(e)) => return Err(e.clone()),
            }
        }
    }

    /// Keeps `min(b, m)` probes outstanding against distinct replica
    /// groups, `b` chunks requested between them, following the cyclic
    /// placement order. Groups at end-of-file are not probed again.
    fn top_up(&mut self) -> Result<(), StorageError> {
        // Pick up nodes that joined mid-stream (one atomic load when
        // nothing changed). New nodes start Open, so they are probed
        // like any other.
        self.client.refresh_membership();
        let m = self.client.remove_cursor.len();
        self.probes.resize_with(m, || None);
        self.last.resize(m, NodeLast::Open);
        let target = self.b.min(m).max(1);
        let mut outstanding = self.probes.iter().flatten().count();
        let mut scanned = 0;
        while outstanding < target && scanned < m {
            let node = self.client.remove_cursor.next_node();
            scanned += 1;
            if self.probes[node].is_some() || self.last[node] == NodeLast::Eof {
                continue;
            }
            let probe =
                self.client
                    .port
                    .submit_remove(node, self.client.bag, self.b.div_ceil(target))?;
            self.probes[node] = Some(probe);
            outstanding += 1;
        }
        Ok(())
    }

    /// One round, run only while the buffer is empty: top up, collect
    /// the answered probes (in any order), and classify. A round that
    /// collected chunks tops up again before it returns; one that did
    /// not waits (see the [module docs](self#where-it-waits)).
    fn fetch(&mut self) -> Result<(), StorageError> {
        self.top_up()?;
        let mut completed = 0usize;
        for (slot, last) in self.probes.iter_mut().zip(&mut self.last) {
            let Some(probe) = slot.as_mut() else {
                continue;
            };
            let Some(result) = self.client.port.poll_remove(probe) else {
                continue;
            };
            *slot = None;
            completed += 1;
            *last = match result {
                Ok(batch) if batch.chunks.is_empty() && batch.eof => NodeLast::Eof,
                Ok(batch) => {
                    self.buffered.extend(batch.chunks);
                    NodeLast::Open
                }
                Err(e) if BagClient::unreachable(&e) => NodeLast::Down,
                Err(e) => return Err(e),
            };
        }
        // A whole cluster of unreachable nodes is an error, not a drain —
        // parity with `BagClient::try_remove_batch`.
        if self.last.iter().all(|&s| s == NodeLast::Down) {
            return Err(StorageError::AllReplicasDown(self.client.bag));
        }
        // Every group at end-of-file or unreachable: the reachable data
        // is exhausted. Chunks marooned on a down node without replicas
        // are unreachable until it recovers.
        if self
            .last
            .iter()
            .all(|&s| matches!(s, NodeLast::Eof | NodeLast::Down))
        {
            self.end = Some(Ok(()));
            return Ok(());
        }
        if !self.buffered.is_empty() {
            self.empty_streak = 0;
            self.backoff_us = 10;
            // Keep probes in flight while the consumer works through the
            // buffer.
            return self.top_up();
        }
        if completed > 0 {
            self.empty_streak += completed;
            if self.empty_streak < self.probes.len() {
                return Ok(());
            }
            // A full round of empty answers: the bag is (locally) empty
            // but unsealed.
            self.empty_streak = 0;
        } else if let Some(probe) = self.probes.iter().flatten().next() {
            // Nothing answered: block briefly on one in-flight connection
            // instead of spinning.
            self.client.port.pump_remove(probe, PUMP_WAIT);
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(self.backoff_us));
        self.backoff_us = (self.backoff_us * 2).min(1000);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! One pipeline, two in-process transports: clients opened with
    //! `BagClient::new` run it on the inline plane (probes answered on
    //! the consumer's own thread), clients minted from a `channel`
    //! endpoint on server threads (the `pipelined_*` legs).

    use super::*;
    use crate::cluster::{ClusterConfig, StorageCluster};
    use crate::endpoint::{StorageEndpoint, IN_PROCESS_PLANES};
    use crate::rpc::RpcPort;

    fn chunk(v: u64) -> Chunk {
        Chunk::from_vec(v.to_le_bytes().to_vec())
    }

    #[test]
    fn reader_claims_at_most_b_chunks_ahead_of_its_consumer() {
        // The late-binding invariant: an unread reader claims nothing,
        // and one that has handed out a chunk holds its buffer plus its
        // probes in flight — not `b` per node — while everything else
        // stays in the bag for other readers (and for the master's
        // sample) to see.
        const B: usize = 4;
        for make in IN_PROCESS_PLANES {
            let ep = make(StorageCluster::new(2, ClusterConfig::default()));
            let bag = ep.cluster().create_bag();
            let chunks: Vec<Chunk> = (0..100).map(chunk).collect();
            ep.client(bag, 1).insert_batch(&chunks).unwrap();
            ep.cluster().seal_bag(bag).unwrap();
            let claimed = || ep.port().sample_bag(bag).unwrap().removed_chunks;
            let mut pf = Prefetcher::new(ep.client(bag, 2), B);
            assert_eq!(claimed(), 0, "an unread reader claims nothing");
            assert!(pf.recv().unwrap().is_some());
            // On the channel plane the top-up's probes may still be
            // executing: held means the claim count stopped moving.
            let mut held = claimed();
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(5));
                let now = claimed();
                if now == held {
                    break;
                }
                held = now;
            }
            assert!(
                (1..=8).contains(&held),
                "a reader one chunk in holds {held} chunks, bound 8"
            );
            let mut n = 1;
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
        let mut pf = Prefetcher::new(BagClient::new(cluster.clone(), bag, 2), 10);
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
        let mut pf = Prefetcher::new(ep.client(bag, 2), 8);
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
        let mut pf = Prefetcher::new(ep.client(bag, 3), 4);
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
            let mut pf = Prefetcher::new(ep.client(bag, 6), 4);
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
        let mut pf = Prefetcher::new(ep.client(bag, 3), 4);
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
        let mut pf = Prefetcher::new(BagClient::new(cluster.clone(), bag, 3), 4);
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
        let mut pf = Prefetcher::new(BagClient::new(cluster.clone(), bag, 6), 2);
        let _first = pf.recv().unwrap();
        drop(pf); // 998 chunks unread.
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
        let mut pf = Prefetcher::new(ep.client(bag, 6), 3);
        let _first = pf.recv().unwrap();
        drop(pf);
    }

    #[test]
    fn repeated_drop_mid_stream_is_race_free() {
        // Open and drop many readers at different consumption depths:
        // a drop with probes in flight or chunks buffered leaves the
        // bag usable for the next reader.
        let cluster = StorageCluster::new(4, ClusterConfig::default());
        let bag = cluster.create_bag();
        let mut producer = BagClient::new(cluster.clone(), bag, 7);
        for i in 0..500 {
            producer.insert(chunk(i)).unwrap();
        }
        for round in 0..50 {
            let mut pf = Prefetcher::new(
                BagClient::new(cluster.clone(), bag, 100 + round),
                1 + (round as usize % 4),
            );
            for _ in 0..(round % 3) {
                let _ = pf.recv().unwrap();
            }
            drop(pf);
        }
        // The dropped readers lost exactly the chunks they had claimed.
        cluster.seal_bag(bag).unwrap();
        let claimed = RpcPort::inline(cluster.clone())
            .sample_bag(bag)
            .unwrap()
            .removed_chunks;
        let mut rest = Prefetcher::new(BagClient::new(cluster.clone(), bag, 99), 4);
        let mut n = 0;
        while rest.recv().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n + claimed, 500);
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
        let mut a = Prefetcher::new(BagClient::new(cluster.clone(), bag, 8), 5);
        let mut b = Prefetcher::new(BagClient::new(cluster.clone(), bag, 9), 5);
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
        let mut pf = Prefetcher::new(BagClient::new(cluster.clone(), bag, 11), 2);
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
        let mut pf = Prefetcher::new(ep.client(bag, 13), 4);
        assert!(matches!(
            pf.recv(),
            Err(StorageError::AllReplicasDown(_) | StorageError::NodeDown(_))
        ));
    }
}
