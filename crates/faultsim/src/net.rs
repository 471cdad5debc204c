//! The simulated wire: a virtual-clock event queue behind the real
//! [`Transport`] trait.
//!
//! One [`SimNet`] models the whole network of a storage cluster. Every
//! connection minted from it ([`SimNet::port`] / [`SimNet::transport`])
//! is an *endpoint* with a private reply inbox; requests and replies
//! travel as events on one shared queue ordered by `(virtual time,
//! insertion tick)`. Server dispatch happens inline at request-delivery
//! time through [`serve_deduped_traced`] — the exact code path the
//! threaded server pool runs — so the protocol under test is the real
//! one, minus the threads.
//!
//! # Virtual clock
//!
//! The clock (`now_us`, virtual microseconds) only advances when an
//! endpoint waits: `recv_timeout` converts its real-duration budget into
//! virtual time, runs every event due inside that budget, and advances
//! the clock to the earliest of "reply arrived", "next event", or the
//! budget's end. Waiting therefore costs almost no wall-clock time — a
//! 50 ms request timeout elapses in microseconds — while preserving the
//! causal order of deliveries, timeouts, and scheduled faults.
//!
//! Real-clock jitter must not leak into the virtual schedule: callers
//! compute residual timeouts from `Instant::now()`, so two runs hand the
//! transport slightly different durations (49.98 ms vs 49.99 ms). Budgets
//! are quantized up to a multiple of [`SimConfig::quantum_us`] (default
//! 1 ms), which absorbs sub-quantum jitter and keeps single-threaded
//! schedules bit-identical across runs.
//!
//! # Fault model
//!
//! Wire faults (drop / duplicate / delay) are decided per message at
//! *send* time from a per-link [`DetRng`] fork, so each (endpoint, node)
//! link has its own reproducible randomness stream. Reachability faults
//! ([`FaultAction::Partition`] / [`FaultAction::Crash`]) are checked at
//! *delivery* time: a message in flight when the partition lands is lost,
//! and a partition healing before delivery lets the message through —
//! both directions, requests and replies alike. [`FaultAction::Fail`] is
//! different in kind: the node stays reachable but answers every request
//! with `NodeDown`, the protocol-visible failure that triggers client
//! rerouting. A crash wipes the node's *memory*
//! ([`StorageNode::crash_lose_memory`]); its segment logs live on the
//! cluster's shared in-memory virtual disk
//! ([`hurricane_storage::SegmentStore::mem`]) and survive, and a restart
//! recovers all bag state from them by log scan — the same code path a
//! real `hurricane-node` takes restarting from its `--data-dir`. The
//! server-side dedup window lives beside the logs in the simulation's
//! shared state and is modeled durable too (see `SEGMENT.md` for the
//! caveat).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::Duration;

use hurricane_common::{DetRng, StorageNodeId};
use hurricane_storage::cluster::StorageCluster;
use hurricane_storage::error::StorageError;
use hurricane_storage::membership::{Connect, Membership};
use hurricane_storage::node::StorageNode;
use hurricane_storage::rpc::{
    serve_deduped_traced, ReplyEnvelope, RequestEnvelope, RpcPort, ServedKind, ServerDedup,
    Transport,
};
use parking_lot::Mutex;

/// Knobs of one simulated network, all reproducible from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Root seed; every per-link randomness stream is forked from it.
    pub seed: u64,
    /// Minimum one-way link delay (virtual µs).
    pub delay_min_us: u64,
    /// Maximum one-way link delay (virtual µs, inclusive).
    pub delay_max_us: u64,
    /// Per-message wire-loss probability in per-mille (0..=1000).
    pub drop_per_mille: u32,
    /// Per-message duplication probability in per-mille (0..=1000).
    pub dup_per_mille: u32,
    /// Wait-budget quantization step (virtual µs). Budgets handed to
    /// `recv_timeout` are rounded up to a multiple of this, absorbing
    /// the real-clock jitter in residual-timeout computations.
    pub quantum_us: u64,
    /// Request timeout for ports minted by [`SimNet::port`].
    pub timeout: Duration,
}

impl SimConfig {
    /// A fault-free network (delays only) — the baseline configuration;
    /// raise the fault rates or schedule [`FaultAction`]s from here.
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            delay_min_us: 20,
            delay_max_us: 200,
            drop_per_mille: 0,
            dup_per_mille: 0,
            quantum_us: 1000,
            timeout: Duration::from_millis(20),
        }
    }
}

/// One scripted fault, applied immediately or at a scheduled virtual
/// time. Node indices are taken modulo the cluster size, so randomly
/// generated schedules are always in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Bidirectional network partition: messages to *and* from the node
    /// are lost at delivery time. The node itself keeps running.
    Partition(usize),
    /// Removes the node's partition.
    Heal(usize),
    /// SIGKILL-equivalent: like a partition at the transport level, but
    /// semantically the process is gone — anything in flight vanishes
    /// and the node's in-memory bag state is wiped
    /// ([`StorageNode::crash_lose_memory`]). Its segment logs (and the
    /// dedup window) survive on the virtual disk.
    Crash(usize),
    /// Brings a crashed node back, recovering every bag — chunks,
    /// consumed pointers, seal state — from its segment logs by log scan
    /// ([`StorageNode::restart_recover`]).
    Restart(usize),
    /// Protocol-visible failure ([`StorageNode::fail`]): the node stays
    /// reachable and answers `NodeDown`, the error clients reroute on.
    Fail(usize),
    /// Undoes [`FaultAction::Fail`] ([`StorageNode::recover`]).
    Recover(usize),
    /// Elastic growth (paper §3.4): a fresh node joins the cluster and
    /// the membership view mid-run. Clients pick it up on their next
    /// membership refresh; placement immediately includes it in new
    /// cycles.
    AddNode,
    /// Elastic shrink, paper-style "leave": the node starts *draining* —
    /// it refuses new inserts (placement skips it) but keeps serving its
    /// remaining chunks until empty. The slot is never reused.
    DrainNode(usize),
    /// The node's *disk* starts misbehaving: segment-log appends, syncs,
    /// and positioned reads roll faults at the attached
    /// [`DiskFaults`](crate::store::DiskFaults) controller's rates
    /// (ENOSPC, EIO, torn frames, fsync failure, read corruption). The
    /// node and the network stay healthy — only its storage medium lies.
    /// A no-op unless the simulation was built over a
    /// [`FaultyStore`](crate::store::FaultyStore)
    /// ([`FaultSim::new_with_disk`](crate::scenario::FaultSim::new_with_disk)).
    DiskFault(usize),
    /// Heals the node's disk: stops injecting new faults (bytes already
    /// torn or corrupt replies already served stay in history).
    DiskHeal(usize),
}

/// One observable simulation event, recorded in virtual-time order.
/// Endpoints are identified by their creation index (stable across
/// replays of the same construction sequence — unlike connection client
/// ids, which come from a process-global counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An endpoint handed a request to the wire.
    Send {
        /// Virtual time (µs).
        at_us: u64,
        /// Sending endpoint.
        endpoint: usize,
        /// Target storage node.
        node: u32,
        /// The envelope's retry-stable sequence number.
        seq: u64,
    },
    /// The wire lost the request.
    Dropped {
        /// Virtual time (µs).
        at_us: u64,
        /// Sending endpoint.
        endpoint: usize,
        /// Target storage node.
        node: u32,
        /// The envelope's retry-stable sequence number.
        seq: u64,
    },
    /// The wire duplicated the request (a second delivery was scheduled).
    Duplicated {
        /// Virtual time (µs).
        at_us: u64,
        /// Sending endpoint.
        endpoint: usize,
        /// Target storage node.
        node: u32,
        /// The envelope's retry-stable sequence number.
        seq: u64,
    },
    /// The request reached the node and was served.
    Delivered {
        /// Virtual time (µs).
        at_us: u64,
        /// Sending endpoint.
        endpoint: usize,
        /// Serving storage node.
        node: u32,
        /// The envelope's retry-stable sequence number.
        seq: u64,
        /// How the server classified it (executed / replayed / …).
        served: ServedKind,
    },
    /// The request arrived while the node was partitioned or crashed.
    DropUnreachable {
        /// Virtual time (µs).
        at_us: u64,
        /// Sending endpoint.
        endpoint: usize,
        /// Target storage node.
        node: u32,
        /// The envelope's retry-stable sequence number.
        seq: u64,
    },
    /// The wire lost the reply.
    ReplyDropped {
        /// Virtual time (µs).
        at_us: u64,
        /// Destination endpoint.
        endpoint: usize,
        /// Replying storage node.
        node: u32,
    },
    /// The wire duplicated the reply.
    ReplyDuplicated {
        /// Virtual time (µs).
        at_us: u64,
        /// Destination endpoint.
        endpoint: usize,
        /// Replying storage node.
        node: u32,
    },
    /// The reply reached the endpoint's inbox.
    ReplyDelivered {
        /// Virtual time (µs).
        at_us: u64,
        /// Destination endpoint.
        endpoint: usize,
        /// Replying storage node.
        node: u32,
    },
    /// The reply was in flight when its node became unreachable.
    ReplyDropUnreachable {
        /// Virtual time (µs).
        at_us: u64,
        /// Destination endpoint.
        endpoint: usize,
        /// Replying storage node.
        node: u32,
    },
    /// A fault action fired.
    Fault {
        /// Virtual time (µs).
        at_us: u64,
        /// The action applied.
        action: FaultAction,
    },
}

impl TraceEvent {
    /// The storage node this event concerns.
    pub fn node(&self) -> Option<u32> {
        match *self {
            TraceEvent::Send { node, .. }
            | TraceEvent::Dropped { node, .. }
            | TraceEvent::Duplicated { node, .. }
            | TraceEvent::Delivered { node, .. }
            | TraceEvent::DropUnreachable { node, .. }
            | TraceEvent::ReplyDropped { node, .. }
            | TraceEvent::ReplyDuplicated { node, .. }
            | TraceEvent::ReplyDelivered { node, .. }
            | TraceEvent::ReplyDropUnreachable { node, .. } => Some(node),
            TraceEvent::Fault { .. } => None,
        }
    }
}

/// A message or fault waiting on the virtual-time queue.
enum Event {
    DeliverRequest {
        endpoint: usize,
        node: u32,
        env: RequestEnvelope,
    },
    DeliverReply {
        endpoint: usize,
        node: u32,
        reply: ReplyEnvelope,
    },
    Fault(FaultAction),
}

struct SimInner {
    cfg: SimConfig,
    cluster: Arc<StorageCluster>,
    /// The live node view ports are minted from; grows on
    /// [`FaultAction::AddNode`]. Connectors hold a `Weak` back-reference,
    /// so the membership living here creates no `Arc` cycle.
    membership: Membership,
    /// Back-reference handed to connectors minted for joined nodes.
    self_weak: Weak<Mutex<SimInner>>,
    nodes: Vec<Arc<StorageNode>>,
    /// Per-node dedup windows — durable state, surviving crash/restart.
    dedups: Vec<ServerDedup>,
    /// Disk-fault controller, when the cluster was built over a
    /// [`FaultyStore`](crate::store::FaultyStore); routes
    /// [`FaultAction::DiskFault`] / [`FaultAction::DiskHeal`].
    disk: Option<Arc<crate::store::DiskFaults>>,
    now_us: u64,
    /// Queue tiebreak: same-instant events run in insertion order.
    next_tick: u64,
    queue: BTreeMap<(u64, u64), Event>,
    inboxes: Vec<VecDeque<ReplyEnvelope>>,
    link_rngs: HashMap<(usize, u32), DetRng>,
    partitioned: Vec<bool>,
    crashed: Vec<bool>,
    trace: Vec<TraceEvent>,
}

impl SimInner {
    fn unreachable(&self, node: u32) -> bool {
        self.partitioned[node as usize] || self.crashed[node as usize]
    }

    fn link_rng(&mut self, endpoint: usize, node: u32) -> &mut DetRng {
        let seed = self.cfg.seed;
        self.link_rngs
            .entry((endpoint, node))
            .or_insert_with(|| DetRng::new(seed).fork(((endpoint as u64) << 32) ^ u64::from(node)))
    }

    /// One fault roll on the link's stream. Zero-rate rolls draw nothing
    /// so a reliable phase does not consume link randomness.
    fn roll(&mut self, endpoint: usize, node: u32, per_mille: u32) -> bool {
        per_mille > 0 && self.link_rng(endpoint, node).gen_range(1000) < u64::from(per_mille)
    }

    fn link_delay(&mut self, endpoint: usize, node: u32) -> u64 {
        let (lo, hi) = (self.cfg.delay_min_us, self.cfg.delay_max_us);
        if hi <= lo {
            lo
        } else {
            self.link_rng(endpoint, node).gen_range_in(lo, hi + 1)
        }
    }

    fn push_event(&mut self, at_us: u64, ev: Event) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.queue.insert((at_us, tick), ev);
    }

    fn quantize(&self, timeout: Duration) -> u64 {
        let q = self.cfg.quantum_us.max(1);
        let us = u64::try_from(timeout.as_micros()).unwrap_or(u64::MAX / 2);
        us.div_ceil(q).max(1).saturating_mul(q)
    }

    /// Runs every queued event due at or before `t_us`, then advances
    /// the clock to `t_us`. Events spawned while running (replies) join
    /// the same pass if they land inside the window.
    fn run_until(&mut self, t_us: u64) {
        while let Some((&key, _)) = self.queue.iter().next() {
            if key.0 > t_us {
                break;
            }
            let ev = self.queue.remove(&key).expect("event vanished");
            self.now_us = self.now_us.max(key.0);
            self.handle(ev);
        }
        self.now_us = self.now_us.max(t_us);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Fault(action) => self.apply_action(action),
            Event::DeliverRequest {
                endpoint,
                node,
                env,
            } => {
                let seq = env.seq;
                if self.unreachable(node) {
                    self.trace.push(TraceEvent::DropUnreachable {
                        at_us: self.now_us,
                        endpoint,
                        node,
                        seq,
                    });
                    return;
                }
                let (reply, served) = serve_deduped_traced(
                    &self.nodes[node as usize],
                    &self.dedups[node as usize],
                    env,
                );
                self.trace.push(TraceEvent::Delivered {
                    at_us: self.now_us,
                    endpoint,
                    node,
                    seq,
                    served,
                });
                if let Some(reply) = reply {
                    self.send_reply(endpoint, node, reply);
                }
            }
            Event::DeliverReply {
                endpoint,
                node,
                reply,
            } => {
                if self.unreachable(node) {
                    self.trace.push(TraceEvent::ReplyDropUnreachable {
                        at_us: self.now_us,
                        endpoint,
                        node,
                    });
                    return;
                }
                self.trace.push(TraceEvent::ReplyDelivered {
                    at_us: self.now_us,
                    endpoint,
                    node,
                });
                self.inboxes[endpoint].push_back(reply);
            }
        }
    }

    /// Puts a freshly produced reply on the wire (same drop / duplicate /
    /// delay treatment as requests — the protocol must survive lost and
    /// doubled acks too).
    fn send_reply(&mut self, endpoint: usize, node: u32, reply: ReplyEnvelope) {
        let cfg = self.cfg;
        if self.roll(endpoint, node, cfg.drop_per_mille) {
            self.trace.push(TraceEvent::ReplyDropped {
                at_us: self.now_us,
                endpoint,
                node,
            });
            return;
        }
        let dup = self.roll(endpoint, node, cfg.dup_per_mille);
        let d = self.link_delay(endpoint, node);
        let at = self.now_us + d;
        if dup {
            self.trace.push(TraceEvent::ReplyDuplicated {
                at_us: self.now_us,
                endpoint,
                node,
            });
            let d2 = self.link_delay(endpoint, node);
            let at2 = self.now_us + d2;
            self.push_event(
                at2,
                Event::DeliverReply {
                    endpoint,
                    node,
                    reply: reply.clone(),
                },
            );
        }
        self.push_event(
            at,
            Event::DeliverReply {
                endpoint,
                node,
                reply,
            },
        );
    }

    fn apply_action(&mut self, action: FaultAction) {
        let m = self.nodes.len();
        // Canonicalize the node index so arbitrary (proptest-generated)
        // schedules are always valid, and the trace records what ran.
        let canonical = |n: usize| n % m;
        let action = match action {
            FaultAction::Partition(n) => FaultAction::Partition(canonical(n)),
            FaultAction::Heal(n) => FaultAction::Heal(canonical(n)),
            FaultAction::Crash(n) => FaultAction::Crash(canonical(n)),
            FaultAction::Restart(n) => FaultAction::Restart(canonical(n)),
            FaultAction::Fail(n) => FaultAction::Fail(canonical(n)),
            FaultAction::Recover(n) => FaultAction::Recover(canonical(n)),
            FaultAction::AddNode => FaultAction::AddNode,
            FaultAction::DrainNode(n) => FaultAction::DrainNode(canonical(n)),
            FaultAction::DiskFault(n) => FaultAction::DiskFault(canonical(n)),
            FaultAction::DiskHeal(n) => FaultAction::DiskHeal(canonical(n)),
        };
        self.trace.push(TraceEvent::Fault {
            at_us: self.now_us,
            action,
        });
        match action {
            FaultAction::Partition(n) => self.partitioned[n] = true,
            FaultAction::Heal(n) => self.partitioned[n] = false,
            FaultAction::Crash(n) => {
                self.crashed[n] = true;
                self.nodes[n].crash_lose_memory();
            }
            FaultAction::Restart(n) => {
                self.nodes[n]
                    .restart_recover()
                    .expect("recover node from virtual disk");
                self.crashed[n] = false;
            }
            FaultAction::Fail(n) => self.nodes[n].fail(),
            FaultAction::Recover(n) => self.nodes[n].recover(),
            FaultAction::AddNode => self.add_node(),
            FaultAction::DrainNode(n) => self.nodes[n].start_draining(),
            FaultAction::DiskFault(n) => {
                if let Some(disk) = &self.disk {
                    disk.arm(n);
                }
            }
            FaultAction::DiskHeal(n) => {
                if let Some(disk) = &self.disk {
                    disk.disarm(n);
                }
            }
        }
    }

    /// Grows the cluster, the simulation's per-node state, and the
    /// membership view by one node — the AddNode fault. Ports observe the
    /// epoch bump on their next membership refresh.
    fn add_node(&mut self) {
        let idx = self.cluster.add_node();
        debug_assert_eq!(idx, self.nodes.len(), "sim state misaligned");
        self.nodes.push(self.cluster.node(idx));
        self.dedups.push(ServerDedup::new());
        self.partitioned.push(false);
        self.crashed.push(false);
        self.membership.join(Arc::new(SimConnector {
            inner: self.self_weak.clone(),
            node: StorageNodeId(idx as u32),
        }));
    }
}

/// Handle to one simulated network. Clones share the network; every
/// transport minted from it shares the virtual clock and event queue.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Mutex<SimInner>>,
}

impl SimNet {
    /// Builds a simulated network over `cluster`'s nodes.
    pub fn new(cluster: Arc<StorageCluster>, cfg: SimConfig) -> Self {
        let m = cluster.num_nodes();
        let nodes: Vec<_> = (0..m).map(|i| cluster.node(i)).collect();
        let dedups = (0..m).map(|_| ServerDedup::new()).collect();
        let membership = Membership::new();
        let inner = Arc::new_cyclic(|weak: &Weak<Mutex<SimInner>>| {
            Mutex::new(SimInner {
                cfg,
                cluster,
                membership: membership.clone(),
                self_weak: weak.clone(),
                nodes,
                dedups,
                disk: None,
                now_us: 0,
                next_tick: 0,
                queue: BTreeMap::new(),
                inboxes: Vec::new(),
                link_rngs: HashMap::new(),
                partitioned: vec![false; m],
                crashed: vec![false; m],
                trace: Vec::new(),
            })
        });
        for i in 0..m {
            membership.join(Arc::new(SimConnector {
                inner: Arc::downgrade(&inner),
                node: StorageNodeId(i as u32),
            }));
        }
        Self { inner }
    }

    /// Mints one raw endpoint connected to node `node_idx`.
    pub fn transport(&self, node_idx: usize) -> SimTransport {
        let mut inner = self.inner.lock();
        let node = inner.nodes[node_idx].id();
        let endpoint = inner.inboxes.len();
        inner.inboxes.push(VecDeque::new());
        SimTransport {
            inner: self.inner.clone(),
            endpoint,
            node,
        }
    }

    /// The live membership view over the simulated wire — one
    /// [`SimConnector`] per node, growing on [`FaultAction::AddNode`].
    /// This is what [`hurricane_storage::StorageEndpoint::custom`] takes.
    pub fn membership(&self) -> Membership {
        self.inner.lock().membership.clone()
    }

    /// The configured request timeout for ports over this network.
    pub fn timeout(&self) -> Duration {
        self.inner.lock().cfg.timeout
    }

    /// Mints an [`RpcPort`] with one fresh endpoint per storage node —
    /// the full data-plane stack (coalescer, replica fan-out, failover)
    /// over the simulated wire. The port is membership-backed: after an
    /// [`FaultAction::AddNode`], a refresh extends it to the new node.
    pub fn port(&self) -> RpcPort {
        let (cluster, membership, timeout) = {
            let inner = self.inner.lock();
            (
                inner.cluster.clone(),
                inner.membership.clone(),
                inner.cfg.timeout,
            )
        };
        RpcPort::from_membership(cluster, membership, timeout)
    }

    /// Attaches a disk-fault controller so [`FaultAction::DiskFault`] /
    /// [`FaultAction::DiskHeal`] (and [`SimNet::heal_all`]) reach it.
    /// Called by [`FaultSim::new_with_disk`](crate::scenario::FaultSim::new_with_disk).
    pub fn attach_disk(&self, disk: Arc<crate::store::DiskFaults>) {
        self.inner.lock().disk = Some(disk);
    }

    /// Applies a fault right now.
    pub fn apply(&self, action: FaultAction) {
        self.inner.lock().apply_action(action);
    }

    /// Schedules a fault at virtual time `at_us` (fires immediately if
    /// the clock is already past it).
    pub fn schedule(&self, at_us: u64, action: FaultAction) {
        let mut inner = self.inner.lock();
        if at_us <= inner.now_us {
            inner.apply_action(action);
        } else {
            inner.push_event(at_us, Event::Fault(action));
        }
    }

    /// Restores a fully healthy, reliable network: clears partitions,
    /// restarts crashed nodes (recovering them from their segment logs),
    /// recovers failed nodes, cancels scheduled faults, and zeroes the
    /// wire drop/duplicate rates. Used by scenarios to close the fault
    /// window before asserting end-state invariants.
    pub fn heal_all(&self) {
        let mut inner = self.inner.lock();
        inner.queue.retain(|_, ev| !matches!(ev, Event::Fault(_)));
        // Disks heal first: a crashed node's restart below re-reads its
        // segment logs, and recovery must not roll fresh read faults.
        if let Some(disk) = &inner.disk {
            disk.disarm_all();
        }
        for i in 0..inner.nodes.len() {
            inner.partitioned[i] = false;
            if inner.crashed[i] {
                inner.nodes[i]
                    .restart_recover()
                    .expect("recover node from virtual disk");
                inner.crashed[i] = false;
            }
            inner.nodes[i].recover();
        }
        inner.cfg.drop_per_mille = 0;
        inner.cfg.dup_per_mille = 0;
    }

    /// Advances the virtual clock by `us`, running everything due.
    pub fn advance(&self, us: u64) {
        let mut inner = self.inner.lock();
        let t = inner.now_us + us;
        inner.run_until(t);
    }

    /// Current virtual time (µs).
    pub fn now_us(&self) -> u64 {
        self.inner.lock().now_us
    }

    /// Snapshot of the event trace so far.
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.inner.lock().trace.clone()
    }
}

/// One endpoint of the simulated network, implementing the storage
/// [`Transport`] trait. `send` never fails (the simulated wire has no
/// local failure mode — loss shows up as a timeout, exactly like UDP);
/// receives drive the virtual clock.
pub struct SimTransport {
    inner: Arc<Mutex<SimInner>>,
    endpoint: usize,
    node: StorageNodeId,
}

/// A [`Connect`] that mints [`SimTransport`] endpoints for one node —
/// the membership entry for a simulated node. Holds the network weakly:
/// once the [`SimNet`] is gone the connector reports
/// [`StorageError::Disconnected`], and the membership living inside the
/// network never forms a reference cycle.
pub struct SimConnector {
    inner: Weak<Mutex<SimInner>>,
    node: StorageNodeId,
}

impl Connect for SimConnector {
    fn connect(&self) -> Result<Box<dyn Transport>, StorageError> {
        let inner = self
            .inner
            .upgrade()
            .ok_or(StorageError::Disconnected(self.node))?;
        let endpoint = {
            let mut g = inner.lock();
            let e = g.inboxes.len();
            g.inboxes.push(VecDeque::new());
            e
        };
        Ok(Box::new(SimTransport {
            inner,
            endpoint,
            node: self.node,
        }))
    }
}

impl std::fmt::Debug for SimConnector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConnector")
            .field("node", &self.node)
            .finish()
    }
}

impl Transport for SimTransport {
    fn node(&self) -> StorageNodeId {
        self.node
    }

    fn send(&mut self, env: RequestEnvelope) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        let cfg = inner.cfg;
        let node = self.node.0;
        let now = inner.now_us;
        let seq = env.seq;
        inner.trace.push(TraceEvent::Send {
            at_us: now,
            endpoint: self.endpoint,
            node,
            seq,
        });
        if inner.roll(self.endpoint, node, cfg.drop_per_mille) {
            inner.trace.push(TraceEvent::Dropped {
                at_us: now,
                endpoint: self.endpoint,
                node,
                seq,
            });
            return Ok(());
        }
        let dup = inner.roll(self.endpoint, node, cfg.dup_per_mille);
        let d = inner.link_delay(self.endpoint, node);
        if dup {
            inner.trace.push(TraceEvent::Duplicated {
                at_us: now,
                endpoint: self.endpoint,
                node,
                seq,
            });
            let d2 = inner.link_delay(self.endpoint, node);
            inner.push_event(
                now + d2,
                Event::DeliverRequest {
                    endpoint: self.endpoint,
                    node,
                    env: env.clone(),
                },
            );
        }
        inner.push_event(
            now + d,
            Event::DeliverRequest {
                endpoint: self.endpoint,
                node,
                env,
            },
        );
        Ok(())
    }

    fn try_recv(&mut self) -> Option<ReplyEnvelope> {
        let mut inner = self.inner.lock();
        let now = inner.now_us;
        inner.run_until(now);
        inner.inboxes[self.endpoint].pop_front()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<ReplyEnvelope> {
        let deadline = {
            let mut inner = self.inner.lock();
            if let Some(r) = inner.inboxes[self.endpoint].pop_front() {
                return Some(r);
            }
            let budget = inner.quantize(timeout);
            inner.now_us.saturating_add(budget)
        };
        loop {
            {
                let mut inner = self.inner.lock();
                // Run everything due inside the budget; stop as soon as a
                // reply lands in our inbox.
                loop {
                    if let Some(r) = inner.inboxes[self.endpoint].pop_front() {
                        return Some(r);
                    }
                    match inner.queue.keys().next().copied() {
                        Some((t, _)) if t <= deadline => inner.run_until(t),
                        _ => break,
                    }
                }
                if inner.now_us >= deadline {
                    return None;
                }
                // Idle: advance one quantum, then release the lock so a
                // concurrent endpoint (another client thread, say) can
                // inject events into the window.
                let step = inner.cfg.quantum_us.max(1).min(deadline - inner.now_us);
                let t = inner.now_us + step;
                inner.run_until(t);
            }
            std::thread::sleep(Duration::from_micros(10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_common::BagId;
    use hurricane_storage::cluster::ClusterConfig;
    use hurricane_storage::rpc::{NodeConnection, StorageRequest, REQUEST_ATTEMPTS};
    use hurricane_storage::StorageResponse;

    fn net(seed: u64) -> (Arc<StorageCluster>, SimNet) {
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let net = SimNet::new(cluster.clone(), SimConfig::reliable(seed));
        (cluster, net)
    }

    #[test]
    fn ping_round_trips_on_virtual_time() {
        let (_cluster, net) = net(7);
        let mut conn = NodeConnection::new(Box::new(net.transport(0)));
        conn.set_timeout(Duration::from_millis(50));
        let t0 = net.now_us();
        let resp = conn.call(StorageRequest::Ping).unwrap();
        assert_eq!(resp, StorageResponse::Pong);
        let dt = net.now_us() - t0;
        // One round trip costs two link delays of 20..=200 µs each; the
        // wait only advanced the clock to the delivery events.
        assert!((40..=400).contains(&dt), "round trip took {dt} virtual µs");
    }

    #[test]
    fn partitioned_node_times_out_then_heals() {
        let (_cluster, net) = net(8);
        let mut conn = NodeConnection::new(Box::new(net.transport(0)));
        conn.set_timeout(Duration::from_millis(20));
        net.apply(FaultAction::Partition(0));
        let err = conn.call(StorageRequest::Ping).unwrap_err();
        assert!(matches!(err, StorageError::Timeout(_)), "{err:?}");
        // The wait advanced the virtual clock by every attempt's budget.
        assert!(net.now_us() >= u64::from(REQUEST_ATTEMPTS) * 20_000);
        net.apply(FaultAction::Heal(0));
        let resp = conn.call(StorageRequest::Ping).unwrap();
        assert_eq!(resp, StorageResponse::Pong);
        assert!(net
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::DropUnreachable { node: 0, .. })));
    }

    #[test]
    fn failed_node_answers_node_down() {
        let (_cluster, net) = net(9);
        let mut conn = NodeConnection::new(Box::new(net.transport(1)));
        net.apply(FaultAction::Fail(1));
        let err = conn
            .call(StorageRequest::Sample { bag: BagId(0) })
            .unwrap_err();
        assert!(matches!(err, StorageError::NodeDown(_)), "{err:?}");
    }

    #[test]
    fn scheduled_fault_fires_at_virtual_time() {
        let (_cluster, net) = net(10);
        net.schedule(5_000, FaultAction::Partition(0));
        assert!(!net.inner.lock().partitioned[0]);
        net.advance(4_000);
        assert!(!net.inner.lock().partitioned[0]);
        net.advance(2_000);
        assert!(net.inner.lock().partitioned[0]);
    }
}
