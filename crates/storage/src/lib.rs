//! Hurricane's decentralized bag storage layer.
//!
//! All input, intermediate, and output data in Hurricane lives in *bags*
//! (paper §3.3): unordered collections of fixed-size chunks spread
//! uniformly across every storage node. Bags expose two core operations —
//! `insert(chunk)` and `remove() -> chunk` — with the guarantee that each
//! inserted chunk is removed **exactly once**, which is what lets any
//! number of task clones share one input bag without coordination.
//!
//! Layout of this crate:
//!
//! * [`node`] — one storage node: append-only chunk logs per bag, a
//!   sequential read pointer (exactly-once removal), sampling, rewind,
//!   sealing, and fault injection. Its data API is exactly what
//!   [`rpc::dispatch`] calls, one form each: put a run
//!   ([`StorageNode::insert_run`]), take up to `n` chunks of one origin
//!   stream ([`StorageNode::remove_from_batch`]), claim identities
//!   consumed ([`StorageNode::claim_consumed`]: the pointer mirror and
//!   the fallback-serve reconciliation), and read one origin stream in
//!   full ([`StorageNode::snapshot_from`]).
//! * [`cluster`] — bag metadata (the sealed-flag authority) plus the
//!   in-process planes' storage nodes, with dynamic node addition /
//!   draining (paper §3.4); a `tcp` endpoint's cluster has no node. It
//!   moves no chunks and sends no requests.
//! * [`placement`] — the pseudorandom cyclic permutation policy that
//!   decides which node receives each insert / serves each remove. Pure,
//!   shared with the simulator.
//! * [`batch`] — batch-sampling math: the utilization lower bound of
//!   paper Eq. 1 and a Monte-Carlo counterpart used to validate it.
//! * [`rpc`] — the data and control planes, and the explicit message
//!   boundary between compute and storage. [`RpcPort`] is the one
//!   implementation of primary–backup replication, failover, pointer
//!   mirroring (paper §4.4) and the whole-bag operations (seal / rewind /
//!   discard / collect / sample / snapshot). A snapshot reads each origin
//!   from its first live replica at every replication factor, and an
//!   origin no replica can serve fails it instead of coming back short.
//!   Under the port sit request/response enums mirroring the node API, a
//!   [`rpc::Transport`]
//!   trait (inline dispatch, in-process channels, sockets), per-node
//!   server loops, the correlation layer that lets
//!   clients keep many requests in flight, and retry-safe request
//!   semantics (bounded retransmission under a server-side dedup window,
//!   so a duplicated or retried envelope can never double-insert or lose
//!   a removed chunk).
//! * [`bag`] — `BagClient`, the per-worker handle combining placement with
//!   a port; [`prefetch`] adds the b-outstanding-requests pipeline, a
//!   plain struct its consumer drives (no thread of its own).
//! * [`endpoint`] — picks the transport under the ports (inline, channel
//!   servers, TCP, custom) and carries the shared client knobs. Every
//!   port is built over a [`Membership`], the one node list a port, a
//!   join or a placement reads.
//! * [`segment`] — the durable storage plane (`SEGMENT.md`): append-only
//!   CRC-framed segment logs, one per bag, on disk or on the fault
//!   simulator's in-memory virtual disk. Durable nodes
//!   ([`StorageNode::durable`]) journal every append, pointer advance,
//!   and lifecycle event, recover all of it by log scan on restart, and
//!   spill cold chunks back to the log under a resident-memory budget.
//! * [`workbag`] — typed bags of task descriptors used for decentralized
//!   scheduling (ready / running / done, paper §4.1).

pub mod bag;
pub mod batch;
pub mod cluster;
pub mod endpoint;
pub mod error;
pub mod membership;
pub mod node;
pub mod placement;
pub mod prefetch;
pub mod rpc;
pub mod segment;
pub mod tcp;
pub mod wire;
pub mod workbag;

pub use bag::{BagClient, BatchRemoveResult};
pub use cluster::{ClusterConfig, DurabilityConfig, StorageCluster};
pub use endpoint::StorageEndpoint;
pub use error::StorageError;
pub use membership::{Connect, Member, Membership, OnceConnect};
pub use node::{next_run_id, BagSample, NodeRemoveBatch, StorageNode, TagSegment};
pub use rpc::{
    ChunkRun, PortStats, ReplyEnvelope, RequestEnvelope, RpcPort, ServedKind, ServerDedup,
    StorageRequest, StorageResponse, Transport,
};
pub use segment::{SegmentLog, SegmentStore};
pub use tcp::{join_cluster, JoinServer, TcpConnector, TcpNodeServer, TcpTransport};
pub use workbag::WorkBag;
