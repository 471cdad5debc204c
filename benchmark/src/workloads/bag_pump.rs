//! `bag_pump_tcp`: no engine, no task logic — one client pumps opaque
//! chunks through a replicated bag on two in-process `TcpNodeServer`s.
//! The only way to reach the TCP plane: `HurricaneApp::start` offers the
//! direct and channel planes only. One round is one "job".

use super::{fold_checksum, Scale};
use crate::harness::{
    fresh_heap, JobSample, SetupFacts, Variant, Workload, CHUNK_SIZE, STORAGE_NODES,
};
use crate::report::Metrics;
use crate::sys;
use crate::trace::Tracer;
use hurricane_common::{DetRng, StorageNodeId};
use hurricane_format::Chunk;
use hurricane_storage::{
    BatchRemoveResult, ClusterConfig, StorageEndpoint, StorageError, StorageNode, TcpNodeServer,
};
use std::sync::Arc;
use std::time::Instant;

/// Chunks per round at full size (800 x 64 KB = 52 MB).
const CHUNKS: u64 = 800;
/// Chunks per `insert_batch` / `try_remove_batch` call: the engine's
/// default batch factor.
const BATCH: usize = 10;
/// Copies of every chunk: one per node.
const REPLICATION: usize = 2;

/// Chunk count plus an order-independent checksum of the chunks' bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkDigest {
    /// Chunks.
    pub chunks: u64,
    /// Wrapping sum of a per-chunk hash over 8-byte words.
    pub checksum: u64,
}

impl ChunkDigest {
    /// Digests `chunks` in any order.
    pub fn of<'a>(chunks: impl IntoIterator<Item = &'a Chunk>) -> Self {
        let mut d = Self::default();
        for c in chunks {
            let words = c.bytes().chunks(8).map(|w| {
                let mut buf = [0u8; 8];
                buf[..w.len()].copy_from_slice(w);
                u64::from_le_bytes(buf)
            });
            d.chunks += 1;
            d.checksum = d
                .checksum
                .wrapping_add(u64::from(fold_checksum(words)) + c.len() as u64);
        }
        d
    }
}

/// The TCP pump set up from a seed.
pub struct BagPump {
    chunks: Vec<Chunk>,
    reference: ChunkDigest,
    facts: SetupFacts,
}

impl BagPump {
    /// Generates `CHUNKS / scale` chunks of seeded random bytes.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let t = Instant::now();
        let mut rng = DetRng::new(seed);
        let chunks: Vec<Chunk> = (0..scale.of(CHUNKS).max(BATCH as u64))
            .map(|_| {
                let mut bytes = Vec::with_capacity(CHUNK_SIZE);
                while bytes.len() < CHUNK_SIZE {
                    bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                Chunk::from_vec(bytes)
            })
            .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let reference = ChunkDigest::of(&chunks);
        let facts = SetupFacts {
            gen_s,
            // There is no app here, so no app reference to time.
            reference_s: 0.0,
            records: chunks.len() as u64,
            largest_partition_share: 0.0,
            input_checksum: reference.checksum as u32,
        };
        Self {
            chunks,
            reference,
            facts,
        }
    }

    /// Runs one round and returns the chunks it drained, unchecked. The
    /// servers are bound fresh per round and torn down after it, both
    /// untimed: the TCP plane has no client-side discard, so a node kept
    /// across rounds grows by the round's bytes each time.
    pub fn execute(&self, tr: &mut Tracer) -> Result<(Vec<Chunk>, JobSample), String> {
        let nodes: Vec<Arc<StorageNode>> = (0..STORAGE_NODES as u32)
            .map(|i| Arc::new(StorageNode::new(StorageNodeId(i))))
            .collect();
        let servers = nodes
            .iter()
            .map(|n| TcpNodeServer::bind(n.clone(), "127.0.0.1:0"))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let endpoint = StorageEndpoint::tcp(
            addrs,
            ClusterConfig {
                replication: REPLICATION,
            },
        );
        let pumped = self.pump(&endpoint, tr);
        endpoint.shutdown();
        servers.into_iter().for_each(TcpNodeServer::shutdown);
        let (drained, mut sample) = pumped.map_err(|e| format!("pump: {e}"))?;

        let mut fullest = 0;
        for node in &nodes {
            sample.storage.absorb(node);
            fullest = fullest.max(node.stats().inserts.get());
        }
        // Share of the stored chunks on the fuller node.
        sample.largest_partition_share =
            Some(fullest as f64 / (sample.storage.inserts as f64).max(1.0));
        Ok((drained, sample))
    }

    /// The timed interval: first insert to `Drained`.
    fn pump(
        &self,
        endpoint: &StorageEndpoint,
        tr: &mut Tracer,
    ) -> Result<(Vec<Chunk>, JobSample), StorageError> {
        let bag = endpoint.cluster().create_bag();
        let mut client = endpoint.client(bag, 1);
        let per_call = tr.enabled();
        let mut sample = JobSample {
            source_bytes: self.chunks.iter().map(|c| c.len() as u64).sum(),
            ..Default::default()
        };
        let mut drained = Vec::with_capacity(self.chunks.len());
        let micros = |t: Option<Instant>| t.map(|t| t.elapsed().as_secs_f64() * 1e6);

        fresh_heap();
        let (cpu0, steal0) = (sys::process_cpu_seconds(), sys::steal_seconds());
        let job = tr.enter("job");
        let span = tr.enter("storage.insert");
        for batch in self.chunks.chunks(BATCH) {
            let t = per_call.then(Instant::now);
            client.insert_batch(batch)?;
            sample.insert_call_us.extend(micros(t));
        }
        client.flush()?;
        tr.exit(span);
        let span = tr.enter("storage.seal");
        endpoint.cluster().seal_bag(bag)?;
        tr.exit(span);
        let span = tr.enter("storage.remove");
        loop {
            let t = per_call.then(Instant::now);
            match client.try_remove_batch(BATCH)? {
                BatchRemoveResult::Chunks(got) => {
                    sample.remove_call_us.extend(micros(t));
                    drained.extend(got);
                }
                BatchRemoveResult::Pending => std::thread::yield_now(),
                BatchRemoveResult::Drained => break,
            }
        }
        tr.exit(span);
        sample.makespan_s = tr.exit(job);
        sample.cpu_s = sys::process_cpu_seconds() - cpu0;
        sample.steal_s = sys::steal_seconds() - steal0;
        sample.peak_rss_mb = sys::peak_rss_mb();
        sample.port = client.port_stats();
        Ok((drained, sample))
    }

    /// Checks that exactly the inserted chunks came back: count and
    /// byte checksum.
    pub fn check(&self, drained: &[Chunk]) -> Result<(), String> {
        let got = ChunkDigest::of(drained);
        if got == self.reference {
            Ok(())
        } else {
            Err(format!("drained {got:?}, inserted {:?}", self.reference))
        }
    }
}

impl Workload for BagPump {
    fn run_job(&self, _variant: Variant, tr: &mut Tracer) -> Result<JobSample, String> {
        let (drained, sample) = self.execute(tr)?;
        self.check(&drained)?;
        Ok(sample)
    }

    fn has_engine(&self) -> bool {
        false
    }

    fn facts(&self) -> SetupFacts {
        self.facts
    }

    /// Nothing to replay: the chunks are opaque (no `format` work), and
    /// the round itself is the storage replay — its per-call timings
    /// give the per-chunk times.
    fn replay(&self, _m: &mut Metrics) -> Result<(), String> {
        Ok(())
    }
}
