//! Scenario plumbing: a cluster + simulated network bundle, chunk
//! helpers, drain loops, and the seed discipline shared by scripted
//! scenarios, the proptest schedules, and the CI seed sweep.

use std::sync::Arc;

use hurricane_common::BagId;
use hurricane_format::Chunk;
use hurricane_storage::bag::{BagClient, BatchRemoveResult};
use hurricane_storage::cluster::{ClusterConfig, DurabilityConfig, StorageCluster};
use hurricane_storage::endpoint::StorageEndpoint;
use hurricane_storage::error::StorageError;
use hurricane_storage::segment::SegmentStore;

use crate::net::{SimConfig, SimNet};
use crate::store::{DiskFaultConfig, DiskFaults, FaultyStore};

/// A cluster with its simulated network and one bag under test.
pub struct FaultSim {
    /// The real storage cluster the simulation runs against.
    pub cluster: Arc<StorageCluster>,
    /// The simulated wire every minted port speaks over.
    pub net: SimNet,
    /// The bag scenarios insert into and drain from.
    pub bag: BagId,
    /// Disk-fault controller when built with
    /// [`FaultSim::new_with_disk`]; `None` means every virtual disk is
    /// perfect.
    pub disk: Option<Arc<DiskFaults>>,
}

impl FaultSim {
    /// Builds an `m`-node cluster with the given replication factor over
    /// a fresh simulated network.
    ///
    /// Every node is durable over an in-memory virtual disk
    /// ([`SegmentStore::mem`]): a [`crate::net::FaultAction::Crash`]
    /// wipes the node's memory but the segment logs survive, and
    /// [`crate::net::FaultAction::Restart`] recovers from them exactly
    /// like a real process restarting from its `--data-dir`.
    pub fn new(m: usize, replication: usize, cfg: SimConfig) -> Self {
        let cluster = StorageCluster::new_durable(
            m,
            ClusterConfig { replication },
            DurabilityConfig {
                store: SegmentStore::mem(),
                spill_threshold_bytes: u64::MAX,
            },
        );
        let bag = cluster.create_bag();
        let net = SimNet::new(cluster.clone(), cfg);
        Self {
            cluster,
            net,
            bag,
            disk: None,
        }
    }

    /// As [`FaultSim::new`], but the virtual disks roll faults at
    /// `disk_cfg`'s rates once armed — by
    /// [`crate::net::FaultAction::DiskFault`] on the wire's schedule, or
    /// directly through the returned sim's [`disk`](Self::disk)
    /// controller. [`SimNet::heal_all`] disarms every disk before it
    /// restarts crashed nodes.
    pub fn new_with_disk(
        m: usize,
        replication: usize,
        cfg: SimConfig,
        disk_cfg: DiskFaultConfig,
    ) -> Self {
        let disk = DiskFaults::new(cfg.seed, disk_cfg);
        let cluster = StorageCluster::new_durable(
            m,
            ClusterConfig { replication },
            DurabilityConfig {
                store: FaultyStore::wrap(SegmentStore::mem(), disk.clone()),
                spill_threshold_bytes: u64::MAX,
            },
        );
        let bag = cluster.create_bag();
        let net = SimNet::new(cluster.clone(), cfg);
        net.attach_disk(disk.clone());
        Self {
            cluster,
            net,
            bag,
            disk: Some(disk),
        }
    }

    /// A bag client over a fresh simulated port, minted through a
    /// [`StorageEndpoint`] on the custom plane — the same endpoint API
    /// real deployments use, with the simulated membership plugged in.
    pub fn client(&self, seed: u64) -> BagClient {
        self.endpoint().client(self.bag, seed)
    }

    /// A [`StorageEndpoint`] over the simulated network: custom plane,
    /// the net's membership and its timeout.
    pub fn endpoint(&self) -> StorageEndpoint {
        StorageEndpoint::custom(self.cluster.clone(), self.net.membership())
            .with_request_timeout(self.net.timeout())
    }

    /// Seals the bag through the cluster authority (control plane — not
    /// the protocol under test).
    pub fn seal(&self) {
        self.cluster.seal_bag(self.bag).expect("seal");
    }

    /// Every value currently stored for the bag, across all nodes and
    /// origin streams, read directly off the node logs (bypasses read
    /// pointers). With replication `r` and converged replicas, each
    /// inserted value appears exactly `r` times.
    pub fn stored_values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let m = self.cluster.num_nodes();
        for i in 0..m {
            for origin in 0..m as u32 {
                let chunks = self
                    .cluster
                    .node(i)
                    .snapshot_from(self.bag, origin)
                    .expect("snapshot");
                out.extend(chunks.iter().map(value_of));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Encodes a test value as a one-record chunk.
pub fn chunk_of(v: u64) -> Chunk {
    Chunk::from_vec(v.to_le_bytes().to_vec())
}

/// Decodes a chunk produced by [`chunk_of`].
pub fn value_of(c: &Chunk) -> u64 {
    let bytes: [u8; 8] = c.bytes()[..8].try_into().expect("test chunk payload");
    u64::from_le_bytes(bytes)
}

/// Drains the (sealed) bag to exhaustion through `client`, returning
/// every removed value in removal order. Panics rather than spinning
/// forever if the bag stays `Pending` — scenarios call this only after
/// healing the network, so pending here means lost data.
pub fn drain_all(client: &mut BagClient) -> Result<Vec<u64>, StorageError> {
    let mut out = Vec::new();
    let mut pending_budget = 10_000u32;
    loop {
        match client.try_remove_batch(8)? {
            BatchRemoveResult::Chunks(chunks) => {
                pending_budget = 10_000;
                out.extend(chunks.iter().map(value_of));
            }
            BatchRemoveResult::Pending => {
                pending_budget -= 1;
                assert!(
                    pending_budget > 0,
                    "bag stayed pending on a healed network: data lost?"
                );
            }
            BatchRemoveResult::Drained => return Ok(out),
        }
    }
}

/// Asserts the exactly-once contract over one fault run:
///
/// * nothing drained twice (`drained` has no duplicates),
/// * every acknowledged insert survived (`acked ⊆ drained`),
/// * nothing materialized out of thin air (`drained ⊆ attempted`).
///
/// `attempted` may exceed `acked`: a timed-out insert has an unknown
/// outcome and is allowed to have landed or not — but never twice.
pub fn assert_exactly_once(attempted: &[u64], acked: &[u64], drained: &[u64]) {
    let mut sorted = drained.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).for_each(|w| {
        assert_ne!(w[0], w[1], "value {} drained twice", w[0]);
    });
    for v in acked {
        assert!(
            sorted.binary_search(v).is_ok(),
            "acknowledged value {v} was lost"
        );
    }
    let mut attempted_sorted = attempted.to_vec();
    attempted_sorted.sort_unstable();
    for v in &sorted {
        assert!(
            attempted_sorted.binary_search(v).is_ok(),
            "value {v} drained but never inserted"
        );
    }
}

/// Resolves the seed for a scripted scenario: `FAULTSIM_SEED` overrides
/// the scenario's default, and either way the seed is printed so a CI
/// failure is reproducible locally with
/// `FAULTSIM_SEED=<seed> cargo test -p hurricane-faultsim <name>`.
pub fn scenario_seed(default: u64) -> u64 {
    let seed = std::env::var("FAULTSIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    eprintln!("faultsim: seed = {seed} (override with FAULTSIM_SEED)");
    seed
}

/// The seed list for the CI sweep: `FAULTSIM_SWEEP` picks how many
/// consecutive seeds to run (default 4 for local test runs; CI sets it
/// higher). Each seed is printed as it starts, so the last line of a
/// failing log names the offender.
pub fn sweep_seeds(base: u64) -> Vec<u64> {
    let n: u64 = std::env::var("FAULTSIM_SWEEP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    (0..n).map(|i| base + i).collect()
}
