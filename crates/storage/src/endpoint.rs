//! One unified way to reach storage: the [`StorageEndpoint`] builder.
//!
//! There is one data plane — the storage protocol of [`crate::rpc`],
//! spoken by an [`RpcPort`] — and four *planes* that differ only in the
//! transport under it. A `StorageEndpoint` picks the plane, holds the
//! shared knobs, and mints as many clients and ports as needed.
//!
//! | constructor | transport | use |
//! |---|---|---|
//! | [`StorageEndpoint::inline`] | dispatch on the caller's thread | single-process runs (the engine's default), tests, benches |
//! | [`StorageEndpoint::channel`] | in-process channel servers, per-node dispatch pools | single-process runs with real request concurrency |
//! | [`StorageEndpoint::tcp`] | sockets to `hurricane-node` processes | real clusters |
//! | [`StorageEndpoint::custom`] | caller-supplied connectors | fault simulation, harnesses |
//!
//! [`StorageEndpoint::direct`] is an alias of `inline`, kept because
//! `benchmark/` still calls it by that name.
//!
//! Every plane is membership-backed, and the membership is the one node
//! list its ports, joins and placement read: clients and prefetchers
//! observe [`Membership`] epoch bumps and extend themselves to nodes that
//! join mid-job (`tcp` via [`JoinServer`], `inline` straight from
//! [`StorageCluster::add_node`], `channel` once
//! [`StorageEndpoint::add_node`] has started the new node's server). The
//! `tcp` plane's cluster holds bag metadata and no node.
//!
//! One knob, the request timeout, set with the consuming builder method
//! [`StorageEndpoint::with_request_timeout`] before sharing the endpoint:
//! every connection of a minted port retransmits a request whose reply
//! is later than that, up to [`crate::rpc::REQUEST_ATTEMPTS`] attempts
//! (see [`crate::rpc::NodeConnection`]). A client sets its own
//! coalescing window ([`BagClient::with_coalescing`]). Writer credit
//! defaults to [`crate::rpc::DEFAULT_WRITER_CREDIT`];
//! [`RpcPort::set_writer_credit`] and [`BagClient::set_writer_credit`]
//! override it per port, for the `rpc_credit` microbench. The channel
//! servers' dispatch pool is a constant of [`crate::rpc`].
//!
//! ```
//! use hurricane_storage::{ClusterConfig, StorageCluster, StorageEndpoint};
//! use std::time::Duration;
//!
//! let cluster = StorageCluster::new(4, ClusterConfig::default());
//! let bag = cluster.create_bag();
//! let endpoint = StorageEndpoint::channel(cluster)
//!     .with_request_timeout(Duration::from_secs(5));
//! let mut client = endpoint.client(bag, 7);
//! client.insert(hurricane_format::Chunk::from_vec(vec![1, 2, 3])).unwrap();
//! endpoint.shutdown();
//! ```

use crate::bag::BagClient;
use crate::cluster::{ClusterConfig, StorageCluster};
use crate::membership::Membership;
use crate::rpc::{RpcPort, StorageRpc, DEFAULT_DISPATCH_THREADS, DEFAULT_REQUEST_TIMEOUT};
use crate::tcp::{JoinServer, TcpConnector};
use hurricane_common::BagId;
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Which transport an endpoint's ports reach storage over.
enum Plane {
    /// Envelopes dispatched inline on the caller's thread, over the
    /// cluster's own membership of inline connectors.
    Inline(Arc<StorageCluster>),
    /// RPC over in-process channel servers; the [`StorageRpc`] is built
    /// on first use.
    Channel {
        cluster: Arc<StorageCluster>,
        rpc: Mutex<Option<StorageRpc>>,
    },
    /// RPC over a live membership of caller-reachable nodes: TCP members
    /// ([`TcpConnector`]) or custom connectors (fault simulation).
    Mesh {
        cluster: Arc<StorageCluster>,
        membership: Membership,
        join: Mutex<Option<JoinServer>>,
    },
}

/// The one way to reach bag storage: a plane plus the request timeout.
/// See the [module docs](self) for the plane table.
pub struct StorageEndpoint {
    plane: Plane,
    timeout: Duration,
}

impl StorageEndpoint {
    fn with_plane(plane: Plane) -> Self {
        Self {
            plane,
            timeout: DEFAULT_REQUEST_TIMEOUT,
        }
    }

    /// [`StorageEndpoint::inline`] under the name `benchmark/` still
    /// calls; goes with that package's migration.
    pub fn direct(cluster: Arc<StorageCluster>) -> Self {
        Self::inline(cluster)
    }

    /// The storage protocol with inline dispatch: envelopes are built
    /// and served on the caller's thread. The full protocol — dedup,
    /// correlation, replica fan-out — without the thread hops, for
    /// colocated compute and storage.
    pub fn inline(cluster: Arc<StorageCluster>) -> Self {
        Self::with_plane(Plane::Inline(cluster))
    }

    /// RPC over in-process channel servers: per-node dispatch pools,
    /// real concurrency, no sockets. The servers start on first use.
    pub fn channel(cluster: Arc<StorageCluster>) -> Self {
        Self::with_plane(Plane::Channel {
            cluster,
            rpc: Mutex::new(None),
        })
    }

    /// RPC over TCP to `hurricane-node` processes at `addrs` (one data
    /// address per node, in node-id order).
    ///
    /// The local cluster holds bag metadata only — the registry, the
    /// sealed and collected flags, the replication factor and the order
    /// locks — and no node: the nodes are the membership's TCP members,
    /// and every operation of a port goes over the sockets. Call
    /// [`StorageEndpoint::serve_joins`] to let more nodes join mid-job.
    ///
    /// # Panics
    ///
    /// Panics if the replication factor is not in `1..=addrs.len()`.
    pub fn tcp<I, S>(addrs: I, config: ClusterConfig) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let membership = Membership::new();
        for addr in addrs {
            let addr = addr.into();
            membership.join_with(|node| Arc::new(TcpConnector { node, addr }));
        }
        assert!(
            config.replication >= 1 && config.replication <= membership.len(),
            "replication factor must be in 1..=m"
        );
        let cluster = StorageCluster::empty(config, None);
        Self::with_plane(Plane::Mesh {
            cluster,
            membership,
            join: Mutex::new(None),
        })
    }

    /// RPC over caller-supplied connectors: `membership` must hold one
    /// [`crate::Connect`] per cluster node, index-aligned. The seam for
    /// fault-injection harnesses and hand-built transports
    /// ([`crate::membership::OnceConnect`]).
    pub fn custom(cluster: Arc<StorageCluster>, membership: Membership) -> Self {
        Self::with_plane(Plane::Mesh {
            cluster,
            membership,
            join: Mutex::new(None),
        })
    }

    // -- knobs ------------------------------------------------------------

    /// Per-attempt reply timeout (default 10 s): a request whose reply is
    /// later is sent again, and one whose every attempt timed out fails
    /// with `Timeout` — after [`crate::rpc::REQUEST_ATTEMPTS`] timeouts,
    /// so 80 s at the default for a node that stays silent. Never reached
    /// on the inline plane, where a request is answered before `send`
    /// returns.
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    // -- accessors --------------------------------------------------------

    /// The cluster holding this endpoint's metadata authority.
    pub fn cluster(&self) -> &Arc<StorageCluster> {
        match &self.plane {
            Plane::Inline(cluster)
            | Plane::Channel { cluster, .. }
            | Plane::Mesh { cluster, .. } => cluster,
        }
    }

    /// The live membership view this endpoint's ports refresh against.
    pub fn membership(&self) -> Membership {
        match &self.plane {
            Plane::Inline(cluster) => cluster.inline_membership().clone(),
            Plane::Channel { cluster, rpc } => rpc
                .lock()
                .get_or_insert_with(|| StorageRpc::serve(cluster.clone(), DEFAULT_DISPATCH_THREADS))
                .membership()
                .clone(),
            Plane::Mesh { membership, .. } => membership.clone(),
        }
    }

    /// Opens a fresh data-plane port: one private connection to every
    /// current member, at the endpoint's request timeout.
    pub fn port(&self) -> RpcPort {
        RpcPort::from_membership(self.cluster().clone(), self.membership(), self.timeout)
    }

    /// Opens a bag client for `bag`. Give each client a distinct `seed`
    /// so placement cycles decorrelate across workers.
    pub fn client(&self, bag: BagId, seed: u64) -> BagClient {
        BagClient::with_port(self.port(), bag, seed)
    }

    // -- membership control ----------------------------------------------

    /// Adds a storage node and publishes it to the RPC plane. Returns
    /// the new node's index. Existing clients pick it up on their next
    /// membership refresh. Not for the `tcp` plane, where nodes join
    /// themselves via [`StorageEndpoint::serve_joins`].
    pub fn add_node(&self) -> usize {
        // The cluster joins the node to the inline membership; the
        // channel plane must also start its server.
        let idx = self.cluster().add_node();
        if let Plane::Channel { rpc, .. } = &self.plane {
            if let Some(rpc) = rpc.lock().as_ref() {
                rpc.sync();
            }
        }
        idx
    }

    /// Starts the join listener on `listen` (`tcp` plane): starting
    /// `hurricane-node --join` processes announce themselves here and
    /// enter the membership live. Returns the bound address.
    ///
    /// # Errors
    ///
    /// On non-`tcp`/`custom` planes, or when the listener cannot bind.
    pub fn serve_joins(&self, listen: &str) -> io::Result<SocketAddr> {
        let Plane::Mesh {
            membership, join, ..
        } = &self.plane
        else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "join server requires a tcp/custom endpoint",
            ));
        };
        let server = JoinServer::bind(membership.clone(), listen)?;
        let addr = server.local_addr();
        *join.lock() = Some(server);
        Ok(addr)
    }

    /// Tears the endpoint down: stops channel servers and the join
    /// listener. Remote `hurricane-node` processes are *not* stopped —
    /// they serve other drivers' connections independently.
    pub fn shutdown(&self) {
        match &self.plane {
            Plane::Channel { rpc, .. } => {
                if let Some(rpc) = rpc.lock().as_ref() {
                    rpc.shutdown();
                }
            }
            Plane::Mesh { join, .. } => {
                if let Some(server) = join.lock().take() {
                    server.shutdown();
                }
            }
            Plane::Inline(_) => {}
        }
    }
}

impl std::fmt::Debug for StorageEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.plane {
            Plane::Inline(_) => "inline",
            Plane::Channel { .. } => "channel",
            Plane::Mesh { .. } => "mesh",
        };
        f.debug_struct("StorageEndpoint")
            .field("mode", &mode)
            .field("timeout", &self.timeout)
            .finish()
    }
}

/// The in-process planes, for tests that run one body over each.
#[cfg(test)]
pub(crate) const IN_PROCESS_PLANES: [fn(Arc<StorageCluster>) -> StorageEndpoint; 2] =
    [StorageEndpoint::inline, StorageEndpoint::channel];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use hurricane_common::StorageNodeId;
    use hurricane_format::Chunk;

    fn chunk(v: u64) -> Chunk {
        Chunk::from_vec(v.to_le_bytes().to_vec())
    }

    fn roundtrip(endpoint: &StorageEndpoint, n: u64) {
        let bag = endpoint.cluster().create_bag();
        let mut client = endpoint.client(bag, 7);
        for v in 0..n {
            client.insert(chunk(v)).unwrap();
        }
        endpoint.port().seal_bag(bag).unwrap();
        let mut reader = crate::prefetch::Prefetcher::new(client, 4);
        let mut got = 0;
        while reader.recv().unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, n);
    }

    #[test]
    fn every_in_process_plane_roundtrips() {
        for make in IN_PROCESS_PLANES {
            let cluster = StorageCluster::new(3, ClusterConfig::default());
            let endpoint = make(cluster);
            roundtrip(&endpoint, 40);
            endpoint.shutdown();
        }
    }

    #[test]
    fn every_plane_mints_a_port() {
        for make in IN_PROCESS_PLANES {
            let endpoint = make(StorageCluster::new(2, ClusterConfig::default()));
            assert_eq!(endpoint.port().num_nodes(), 2);
            assert_eq!(endpoint.membership().len(), 2);
            let bag = endpoint.cluster().create_bag();
            assert!(endpoint.client(bag, 1).port_stats().is_some());
            endpoint.shutdown();
        }
    }

    #[test]
    fn channel_add_node_is_visible_to_refreshed_clients() {
        for make in IN_PROCESS_PLANES {
            let cluster = StorageCluster::new(2, ClusterConfig::default());
            let bag = cluster.create_bag();
            let endpoint = make(cluster.clone());
            let mut client = endpoint.client(bag, 3);
            let idx = endpoint.add_node();
            client.refresh_membership();
            for v in 0..30 {
                client.insert(chunk(v)).unwrap();
            }
            assert!(
                cluster.node(idx).sample(bag).unwrap().total_chunks >= 9,
                "added node must receive its cyclic share"
            );
            endpoint.shutdown();
        }
    }

    #[test]
    fn tcp_endpoint_reaches_real_sockets() {
        use crate::node::StorageNode;
        use crate::tcp::TcpNodeServer;

        let nodes: Vec<Arc<StorageNode>> = (0..2)
            .map(|i| Arc::new(StorageNode::new(StorageNodeId(i))))
            .collect();
        let servers: Vec<TcpNodeServer> = nodes
            .iter()
            .map(|n| TcpNodeServer::bind(n.clone(), "127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let endpoint = StorageEndpoint::tcp(addrs, ClusterConfig::default())
            .with_request_timeout(Duration::from_secs(5));
        roundtrip(&endpoint, 24);
        // No local node exists: the node list is the membership, and the
        // data sits at the remote nodes.
        let bag = endpoint.cluster().create_bag();
        let mut client = endpoint.client(bag, 9);
        for v in 0..4 {
            client.insert(chunk(v)).unwrap();
        }
        assert_eq!(endpoint.cluster().num_nodes(), 0);
        assert_eq!(endpoint.membership().len(), 2);
        let remote: u64 = nodes
            .iter()
            .map(|n| n.sample(bag).unwrap().total_chunks)
            .sum();
        assert_eq!(remote, 4);
        endpoint.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn tcp_control_operations_answer_from_the_remote_nodes() {
        use crate::node::StorageNode;
        use crate::tcp::TcpNodeServer;
        use crate::workbag::WorkBag;

        let serve = || -> Vec<TcpNodeServer> {
            (0..2)
                .map(|i| {
                    let node = Arc::new(StorageNode::new(StorageNodeId(i)));
                    TcpNodeServer::bind(node, "127.0.0.1:0").unwrap()
                })
                .collect()
        };
        let tcp = |servers: &[TcpNodeServer], replication| {
            let addrs = servers.iter().map(|s| s.local_addr().to_string());
            StorageEndpoint::tcp(addrs, ClusterConfig { replication })
                .with_request_timeout(Duration::from_secs(5))
        };
        let values = |chunks: Vec<Chunk>| -> Vec<u64> {
            let mut v: Vec<u64> = chunks
                .iter()
                .map(|c| u64::from_le_bytes(c.bytes().try_into().unwrap()))
                .collect();
            v.sort_unstable();
            v
        };

        let servers = serve();
        let endpoint = tcp(&servers, 1);
        let bag = endpoint.cluster().create_bag();
        let mut client = endpoint.client(bag, 9);
        for v in 0..10 {
            client.insert(chunk(v)).unwrap();
        }
        let mut port = endpoint.port();
        assert_eq!(
            values(port.snapshot_bag(bag).unwrap()),
            (0..10).collect::<Vec<_>>()
        );
        let s = port.sample_bag(bag).unwrap();
        assert_eq!((s.total_chunks, s.remaining_chunks), (10, 10));
        // A scan sees claimed items too.
        let work = endpoint.cluster().create_bag();
        let mut wb = WorkBag::<u64>::with_client(endpoint.client(work, 3));
        wb.insert_batch(&[5, 6, 7, 8]).unwrap();
        assert!(!wb.try_take_batch(1).unwrap().is_empty());
        let mut items = wb.scan_all().unwrap();
        items.sort_unstable();
        assert_eq!(items, vec![5, 6, 7, 8]);
        // Seal reaches the remote nodes: a chunk staged before it is
        // refused there when flushed after it.
        let mut late = endpoint.client(bag, 11).with_coalescing(1_000);
        late.insert(chunk(99)).unwrap();
        port.seal_bag(bag).unwrap();
        assert_eq!(late.flush(), Err(StorageError::BagSealed(bag)));
        endpoint.shutdown();
        drop(servers);

        // Replicated, one server gone: each origin is read from its
        // first live replica, so every chunk comes back exactly once.
        let mut servers = serve();
        let endpoint = tcp(&servers, 2);
        let bag = endpoint.cluster().create_bag();
        let mut client = endpoint.client(bag, 4);
        for v in 0..12 {
            client.insert(chunk(v)).unwrap();
        }
        servers.pop().unwrap().shutdown();
        assert_eq!(
            values(endpoint.port().snapshot_bag(bag).unwrap()),
            (0..12).collect::<Vec<_>>()
        );
        endpoint.shutdown();
    }

    #[test]
    #[should_panic(expected = "replication factor must be in 1..=m")]
    fn tcp_refuses_more_replicas_than_addresses() {
        // Nothing is dialed before a port is minted.
        StorageEndpoint::tcp(["127.0.0.1:1"], ClusterConfig { replication: 2 });
    }

    #[test]
    fn serve_joins_rejects_in_process_planes() {
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let endpoint = StorageEndpoint::inline(cluster);
        assert!(endpoint.serve_joins("127.0.0.1:0").is_err());
    }
}
