//! Task managers: the compute-node side of the runtime.
//!
//! Paper §3.1/§4.1: each compute node claims task descriptors from the
//! distributed *ready* work bag and executes them on its worker slots. A
//! compute node is its slots: [`spawn_manager`] starts `worker_slots`
//! persistent worker threads, and they are all the threads the node
//! has. Each worker loops: claim a descriptor (fully decentralized — the
//! bag's exactly-once chunk delivery guarantees no double execution
//! without any coordinator in the claim path), append a
//! [`RunningRecord`], run the unit on its own thread — its input readers
//! prefetch on that thread too (`hurricane_storage::prefetch`) — and
//! append a [`DoneRecord`]. A unit that errors or panics fails the job
//! through [`ControlMsg::Fatal`]; the worker survives it. Between chunks
//! workers poll the [`KillSwitch`] so that failure recovery can cancel
//! them promptly, and each worker loop ends once the kill switch is shut
//! down. Workers and the master share one [`Runtime`].
//!
//! # Every wait in the compute plane
//!
//! What a clock seam must reach, and all of it is wall-clock:
//!
//! * a worker whose ready-bag claim came back empty waits on the
//!   [`Doorbell`], which every ready-bag insert rings (the master's
//!   schedule burst, a clone grant, a merge, a restart, a worker's
//!   requeue), for at most 500 µs; it sleeps 500 µs while its node is
//!   failed and 1 ms after a failed claim, until the kill switch is shut
//!   down (`worker_loop`);
//! * a reader whose buffer is empty blocks up to 200 µs on one in-flight
//!   probe, or backs off 10 µs–1 ms on an unsealed empty bag or with
//!   nothing in flight (`Prefetcher::fetch`, `storage/src/prefetch.rs`);
//! * the master blocks on its control channel between rounds, for at
//!   most `master_poll` (`Master::run`): a worker sends
//!   [`ControlMsg::UnitDone`] once its done record is in and its slot
//!   is free, so the poll is only a backstop; while cancelled workers
//!   quiesce it waits on the [`RunningRegistry`], woken by each
//!   deregistration, for at most 5 s (`Master::restart_task`);
//! * a merge waits for its scoped output workers
//!   (`merges::merge_outputs`);
//! * `RunningApp` joins the master (`RunningApp::wait`, and
//!   `RunningApp::crash_and_recover_master` on a crash) and then, after
//!   `Runtime::shutdown`, every slot (in `wait`, via
//!   `ComputeNodeHandle::join`);
//! * every storage request's token is redeemed in one place of
//!   `storage/src/rpc.rs`: `NodeConnection::wait` blocks for the reply
//!   and `NodeConnection::try_poll` checks for it (a reader's probes),
//!   and both send the same envelope again after each request timeout,
//!   up to 8 attempts, reading the send time kept in the token's slot;
//!   a writer out of credit pumps replies until one returns
//!   (`NodeConnection::acquire_credit`).

use crate::config::HurricaneConfig;
use crate::descriptor::{Descriptor, DoneRecord, RunningRecord, KIND_MERGE, KIND_TASK};
use crate::error::EngineError;
use crate::graph::AppGraph;
use crate::merges::{self, ConcatMerge};
use crate::task::{
    BagReader, BagWriter, CancelProbe, ControlMsg, KillSwitch, MergeLogic, SpillSink, TaskCtx,
};
use crossbeam::channel::Sender;
use hurricane_common::BagId;
use hurricane_storage::{BagClient, RpcPort, StorageEndpoint, WorkBag};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The physical ids of the application's scheduling bags.
#[derive(Debug, Clone, Copy)]
pub struct WorkBagIds {
    /// Descriptors awaiting a worker.
    pub ready: BagId,
    /// Claim records.
    pub running: BagId,
    /// Completion records.
    pub done: BagId,
}

/// Locks `m`, recovering the data of a holder that panicked (every
/// critical section below is a single map or counter update).
fn lock<T>(m: &std::sync::Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker slots' wake-up: an epoch under a mutex and a condvar.
/// Whoever inserts into the ready bag rings it; a slot that found the
/// ready bag empty waits on it.
///
/// A waiter reads [`Doorbell::epoch`] *before* it looks for work and
/// waits only while the epoch is still the one it read, so a ring that
/// lands between the empty look and the wait is not lost.
#[derive(Debug, Default)]
pub struct Doorbell {
    epoch: std::sync::Mutex<u64>,
    rung: Condvar,
}

impl Doorbell {
    /// The number of rings so far.
    pub fn epoch(&self) -> u64 {
        *lock(&self.epoch)
    }

    /// Wakes every waiter.
    pub fn ring(&self) {
        *lock(&self.epoch) += 1;
        self.rung.notify_all();
    }

    /// Waits until the epoch moves past `seen` or `timeout` passes, and
    /// returns whether it moved.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let (epoch, _) = self
            .rung
            .wait_timeout_while(lock(&self.epoch), timeout, |e| *e == seen)
            .unwrap_or_else(PoisonError::into_inner);
        *epoch != seen
    }
}

type UnitKey = (u32, u32, u32, u8);

/// Soft-state registry of units currently executing on some worker.
///
/// This is the in-process analog of the heartbeat visibility the paper's
/// master gets from its cluster: the clone gate reads the busy slots
/// from it, and recovery waits on it until cancelled workers have
/// actually unwound before rewinding their input bags.
#[derive(Debug, Default)]
pub struct RunningRegistry {
    inner: std::sync::Mutex<HashMap<UnitKey, u32>>,
    deregistered: Condvar,
}

fn active_upto(units: &HashMap<UnitKey, u32>, task: u32, generation: u32) -> bool {
    units
        .keys()
        .any(|&(t, g, _, _)| t == task && g <= generation)
}

impl RunningRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn register(&self, task: u32, generation: u32, clone: u32, kind: u8, node: u32) {
        lock(&self.inner).insert((task, generation, clone, kind), node);
    }

    pub(crate) fn deregister(&self, task: u32, generation: u32, clone: u32, kind: u8) {
        lock(&self.inner).remove(&(task, generation, clone, kind));
        self.deregistered.notify_all();
    }

    /// Number of units currently executing cluster-wide.
    pub fn active(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Returns whether any unit of `task` at generation ≤ `generation` is
    /// still executing.
    pub fn task_active_upto(&self, task: u32, generation: u32) -> bool {
        active_upto(&lock(&self.inner), task, generation)
    }

    /// Waits until no unit of `task` at generation ≤ `generation` is
    /// executing, woken by each deregistration, or until `deadline`;
    /// returns whether they all quiesced.
    pub fn wait_quiesced(&self, task: u32, generation: u32, deadline: Instant) -> bool {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (units, _) = self
            .deregistered
            .wait_timeout_while(lock(&self.inner), timeout, |units| {
                active_upto(units, task, generation)
            })
            .unwrap_or_else(PoisonError::into_inner);
        !active_upto(&units, task, generation)
    }
}

/// RAII guard ensuring deregistration on every worker exit path.
struct RegistryGuard<'a> {
    registry: &'a RunningRegistry,
    key: (u32, u32, u32, u8),
}

impl Drop for RegistryGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .deregister(self.key.0, self.key.1, self.key.2, self.key.3);
    }
}

/// Monotonic seed source for bag clients (placement decorrelation).
#[derive(Debug)]
pub struct SeedGen {
    base: u64,
    next: AtomicU64,
}

impl SeedGen {
    /// Creates a generator rooted at `base`.
    pub fn new(base: u64) -> Self {
        Self {
            base,
            next: AtomicU64::new(1),
        }
    }

    /// Returns a fresh seed.
    pub fn next(&self) -> u64 {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        hurricane_common::SplitMix64::mix(self.base ^ n)
    }
}

/// The control plane of one running application, built once by
/// [`HurricaneApp::start`](crate::HurricaneApp::start) and held as an
/// `Arc<Runtime>` by the master, every worker slot and the
/// [`RunningApp`](crate::RunningApp) handle. Its one stop signal is
/// `Runtime::shutdown`: it shuts the kill switch down, which cancels
/// every unit and ends every worker loop.
pub struct Runtime {
    /// The application graph (blueprints live here).
    pub graph: Arc<AppGraph>,
    /// The storage endpoint every bag client and control port is minted
    /// from: the channel plane (per-node server threads) when
    /// `HurricaneConfig::storage_rpc` is set, the inline plane (the same
    /// protocol served on the caller's thread) otherwise.
    pub endpoint: StorageEndpoint,
    /// Runtime configuration.
    pub config: Arc<HurricaneConfig>,
    /// Shared cancellation state, and the stop signal.
    pub kill: Arc<KillSwitch>,
    /// Running-unit soft state (busy slots, and quiesce detection during
    /// recovery).
    pub registry: RunningRegistry,
    /// Rung after every ready-bag insert; idle worker slots wait on it.
    pub doorbell: Doorbell,
    /// Channel to the application master.
    pub control_tx: Sender<ControlMsg>,
    /// The scheduling bags.
    pub workbags: WorkBagIds,
    /// Mapping from graph bag index to physical bag id.
    pub bag_map: Arc<Vec<BagId>>,
    /// Seed source.
    pub seeds: Arc<SeedGen>,
}

impl Runtime {
    /// Opens a bag client for `bag` over the deployment's storage
    /// endpoint.
    pub(crate) fn bag_client(&self, bag: BagId) -> BagClient {
        self.endpoint.client(bag, self.seeds.next())
    }

    /// A bag client for a task-output writer: like
    /// [`Runtime::bag_client`], plus an insert-coalescing window of
    /// two write batches, so a port sends one envelope per node per `2b`
    /// sealed chunks. Only task-output writers coalesce — work-bag
    /// scheduling traffic stays call-synchronous so claims are
    /// immediately visible. Writers flush at task boundaries
    /// ([`BagWriter::flush`] drains the port), so deferred completion
    /// never leaks past a task.
    pub(crate) fn writer_client(&self, bag: BagId) -> BagClient {
        self.bag_client(bag)
            .with_coalescing(2 * self.config.batch_factor)
    }

    /// Opens a typed work bag over the deployment's storage endpoint.
    pub(crate) fn workbag<T: hurricane_format::Record>(&self, bag: BagId) -> WorkBag<T> {
        WorkBag::with_client(self.bag_client(bag))
    }

    /// Stops the application: shuts the kill switch down and rings the
    /// doorbell, so idle slots see it at once.
    pub(crate) fn shutdown(&self) {
        self.kill.shutdown_all();
        self.doorbell.ring();
    }
}

/// Handle to one compute node: its worker slots.
pub struct ComputeNodeHandle {
    /// The node's id.
    pub id: u32,
    alive: Arc<AtomicBool>,
    slots: Vec<JoinHandle<()>>,
}

impl ComputeNodeHandle {
    /// Fails the node: it stops claiming work and its running workers
    /// observe cancellation. (The caller separately notifies the master
    /// via [`ControlMsg::NodeFailed`], mirroring failure detection.)
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// Brings a failed node back (paper §3.4: compute nodes can be added
    /// at any point; a restarted node is a new, idle node).
    pub fn restart(&self) {
        self.alive.store(true, Ordering::Relaxed);
    }

    /// Joins the node's worker slots (call after `Runtime::shutdown`).
    pub fn join(self) {
        for slot in self.slots {
            let _ = slot.join();
        }
    }
}

/// Starts compute node `node_id`: one persistent worker thread per
/// `worker_slots`.
pub fn spawn_manager(node_id: u32, rt: &Arc<Runtime>) -> ComputeNodeHandle {
    let alive = Arc::new(AtomicBool::new(true));
    let slots = (0..rt.config.worker_slots)
        .map(|slot| {
            let rt = rt.clone();
            let alive = alive.clone();
            std::thread::Builder::new()
                .name(format!("worker-cn{node_id}-{slot}"))
                .spawn(move || worker_loop(node_id, &rt, &alive))
                .expect("spawning worker")
        })
        .collect();
    ComputeNodeHandle {
        id: node_id,
        alive,
        slots,
    }
}

/// How long an idle slot waits on the doorbell before it looks at the
/// ready bag again: only a backstop, since every insert rings.
const IDLE_WAIT: Duration = Duration::from_micros(500);

/// One worker slot: claims a descriptor from the ready bag and hands it
/// to [`run_claimed`], until the kill switch shuts the application down.
/// A slot that finds the ready bag empty waits on the doorbell.
fn worker_loop(node_id: u32, rt: &Arc<Runtime>, alive: &Arc<AtomicBool>) {
    let mut ready: WorkBag<Descriptor> = rt.workbag(rt.workbags.ready);
    let mut running: WorkBag<RunningRecord> = rt.workbag(rt.workbags.running);
    // Consecutive ready-bag claim failures. Transient storage errors
    // (a node mid-failover, a disk hiccup) deserve a retry; a *persistent*
    // failure — e.g. a poisoned work-bag log after a failed journal
    // append — would otherwise spin this loop silently forever while the
    // master waits for progress that can never come.
    let mut claim_errors: u32 = 0;
    const CLAIM_ERROR_LIMIT: u32 = 2_000; // ≈2 s of 1 ms retries
    while !rt.kill.is_shutdown() {
        if !alive.load(Ordering::Relaxed) {
            std::thread::sleep(IDLE_WAIT);
            continue;
        }
        let seen = rt.doorbell.epoch();
        match ready.try_take_batch(1).map(|mut claimed| claimed.pop()) {
            Ok(Some(desc)) => {
                claim_errors = 0;
                run_claimed(node_id, desc, rt, alive, &mut ready, &mut running);
            }
            Ok(None) => {
                claim_errors = 0;
                rt.doorbell.wait(seen, IDLE_WAIT);
            }
            Err(e) => {
                claim_errors += 1;
                if claim_errors == CLAIM_ERROR_LIMIT {
                    // No task to pin the failure on — the claim itself
                    // is what fails. The sentinel id still aborts the
                    // run with the storage error in hand.
                    let _ = rt.control_tx.send(ControlMsg::Fatal {
                        task: u32::MAX,
                        message: format!(
                            "compute node {node_id} cannot claim work \
                             ({CLAIM_ERROR_LIMIT} consecutive failures): {e}"
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Skips a claimed descriptor whose generation was killed, else appends
/// its claim record and runs the unit on this thread. The node's flag is
/// read again once the record is in: a restart that scanned the running
/// bag before the record existed missed this unit, so a failed node puts
/// the descriptor back rather than run it, cancel and leave the master
/// waiting forever. (A restart that saw the record bumped the generation,
/// so the requeued copy is skipped as stale.)
fn run_claimed(
    node_id: u32,
    desc: Descriptor,
    rt: &Arc<Runtime>,
    alive: &Arc<AtomicBool>,
    ready: &mut WorkBag<Descriptor>,
    running: &mut WorkBag<RunningRecord>,
) {
    let task = desc.instance_id().task.0;
    if rt.kill.is_killed(task, desc.generation) {
        return; // Stale descriptor from a restarted task.
    }
    let rec = RunningRecord {
        kind: desc.kind,
        instance: desc.instance,
        generation: desc.generation,
        node: node_id,
    };
    // Storage refusing the claim record is the other reason to put the
    // unit back rather than run it untracked.
    if running.insert(&rec).is_err() || !alive.load(Ordering::Relaxed) {
        // If the ready bag refuses too the descriptor is gone — fail the
        // job loudly instead of letting the master poll forever for a
        // unit nobody holds.
        match ready.insert(&desc) {
            Ok(()) => rt.doorbell.ring(),
            Err(e) => {
                let _ = rt.control_tx.send(ControlMsg::Fatal {
                    task,
                    message: format!("work descriptor lost on requeue: {e}"),
                });
            }
        }
        return;
    }
    // A panicking task fails the job like an erroring one; the slot
    // survives to claim the next unit.
    let unit = AssertUnwindSafe(|| run_unit(node_id, desc, rt, alive));
    if let Err(panic) = std::panic::catch_unwind(unit) {
        let what = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string payload");
        let _ = rt.control_tx.send(ControlMsg::Fatal {
            task,
            message: format!("task panicked: {what}"),
        });
    }
}

/// Executes one claimed unit (task instance or merge) to completion.
/// Once its done record is in and its registry entry is gone, it tells
/// the master with [`ControlMsg::UnitDone`]: the master's next round
/// then sees both the completion and the free slot.
fn run_unit(node_id: u32, desc: Descriptor, rt: &Arc<Runtime>, node_alive: &Arc<AtomicBool>) {
    let started = Instant::now();
    let inst = desc.instance_id();
    let key = (inst.task.0, desc.generation, inst.clone.0, desc.kind);
    rt.registry.register(key.0, key.1, key.2, key.3, node_id);
    let guard = RegistryGuard {
        registry: &rt.registry,
        key,
    };
    let probe = CancelProbe {
        kill: rt.kill.clone(),
        task: inst.task.0,
        generation: desc.generation,
        node_alive: node_alive.clone(),
    };
    let outcome = match desc.kind {
        KIND_TASK => run_task(node_id, &desc, rt, &probe, started),
        KIND_MERGE => run_merge(&desc, rt, &probe),
        _ => Err(EngineError::InvalidGraph(format!(
            "unknown descriptor kind {}",
            desc.kind
        ))),
    };
    match outcome {
        Ok(()) => {
            if probe.cancelled() {
                return; // Cancelled at the finish line: no done record.
            }
            let mut done: WorkBag<DoneRecord> = rt.workbag(rt.workbags.done);
            // A completion that can't be recorded is indistinguishable
            // from a unit that never finished: the master would wait
            // forever. Surface the storage failure instead of hanging
            // the job (seen with injected disk faults eating the done
            // bag's journal append).
            let msg = match done.insert(&DoneRecord {
                kind: desc.kind,
                instance: desc.instance,
                generation: desc.generation,
                node: node_id,
                outputs: desc.outputs.clone(),
                elapsed_us: started.elapsed().as_micros() as u64,
            }) {
                Ok(()) => ControlMsg::UnitDone,
                Err(e) => ControlMsg::Fatal {
                    task: inst.task.0,
                    message: format!("completion record lost: {e}"),
                },
            };
            drop(guard);
            let _ = rt.control_tx.send(msg);
        }
        Err(EngineError::Cancelled) => {}
        Err(e) => {
            let _ = rt.control_tx.send(ControlMsg::Fatal {
                task: inst.task.0,
                message: e.to_string(),
            });
        }
    }
}

fn run_task(
    node_id: u32,
    desc: &Descriptor,
    rt: &Runtime,
    probe: &CancelProbe,
    started: Instant,
) -> Result<(), EngineError> {
    let inst = desc.instance_id();
    let logic = rt.graph.task(inst.task).logic.clone();
    let inputs = desc
        .inputs
        .iter()
        .map(|&b| {
            BagReader::open_client(
                rt.bag_client(BagId(b)),
                rt.config.batch_factor,
                Some(probe.clone()),
            )
        })
        .collect();
    let outputs = desc
        .outputs
        .iter()
        .map(|&b| {
            BagWriter::open_batched_client(
                rt.writer_client(BagId(b)),
                rt.config.chunk_size,
                rt.config.batch_factor,
            )
        })
        .collect();
    let mut ctx = TaskCtx {
        inputs,
        outputs,
        input_bags: desc.inputs.iter().map(|&b| BagId(b)).collect(),
        control: rt.endpoint.port(),
        instance: inst,
        node: node_id,
        generation: desc.generation,
        clone_tx: rt.config.cloning_enabled.then(|| rt.control_tx.clone()),
        clone_interval: rt.config.clone_interval,
        last_ping: None,
        started,
        startup: None,
        consumed: Arc::new([]),
    };
    logic.run(&mut ctx)?;
    ctx.flush_outputs()?;
    Ok(())
}

/// The manager's [`SpillSink`]: scratch runs are cluster bags pinned to
/// one storage node each (bags are unordered *across* nodes but FIFO
/// within one, so a pinned run reads back in key order), created and
/// reclaimed through the normal bag lifecycle, sealed and collected
/// through the sink's own control port — opened on the first
/// [`SpillSink::open_run`] or [`SpillSink::release_run`], so a merge that
/// never spills opens none. Every live run is also recorded in a
/// registry shared across the merge task's sinks, so [`run_merge`] can
/// reclaim leftovers on *any* exit path — a failed spill write fails the
/// merge cleanly and its scratch never leaks.
struct ClusterSpillSink {
    rt: Arc<Runtime>,
    control: Option<RpcPort>,
    probe: CancelProbe,
    /// All unreleased runs of the owning merge task (shared across the
    /// task's per-output sinks).
    scratch: Arc<Mutex<Vec<BagId>>>,
    /// Next storage node to pin a run to (cycled for spread).
    next_pin: usize,
}

impl ClusterSpillSink {
    fn control(&mut self) -> &mut RpcPort {
        self.control.get_or_insert_with(|| self.rt.endpoint.port())
    }
}

impl SpillSink for ClusterSpillSink {
    fn create_run(&mut self) -> Result<BagWriter, EngineError> {
        let bag = self.rt.endpoint.cluster().create_bag();
        self.scratch.lock().push(bag);
        let client = self.rt.bag_client(bag);
        let pin = self.next_pin % client.num_nodes();
        self.next_pin = self.next_pin.wrapping_add(1);
        let client = client.with_pinned_node(pin);
        // Write batch factor 1: chunks insert (and thus read back) in
        // emission order. No coalescing — a spill failure must surface
        // inside the merge, not at some later flush.
        Ok(BagWriter::open_batched_client(
            client,
            self.rt.config.chunk_size,
            1,
        ))
    }

    fn open_run(&mut self, bag: BagId) -> Result<BagReader, EngineError> {
        self.control().seal_bag(bag)?;
        // Batch factor 1 keeps delivery strictly in insertion order.
        Ok(BagReader::open_client(
            self.rt.bag_client(bag),
            1,
            Some(self.probe.clone()),
        ))
    }

    fn release_run(&mut self, bag: BagId) -> Result<(), EngineError> {
        self.control().collect_bag(bag)?;
        self.scratch.lock().retain(|&b| b != bag);
        Ok(())
    }
}

fn run_merge(desc: &Descriptor, rt: &Arc<Runtime>, probe: &CancelProbe) -> Result<(), EngineError> {
    let inst = desc.instance_id();
    let stride = desc.outputs.len();
    debug_assert!(stride > 0 && desc.inputs.len().is_multiple_of(stride));
    let instances = desc.inputs.len() / stride;
    let merge: Arc<dyn MergeLogic> = if instances == 1 {
        // A single partial is definitionally the final output: identity.
        Arc::new(ConcatMerge)
    } else {
        rt.graph
            .task(inst.task)
            .merge
            .clone()
            .unwrap_or(Arc::new(ConcatMerge))
    };
    // Open every output's readers and writer here, in output order, so
    // client minting stays deterministic (seed draws, port allocation)
    // regardless of how the jobs are later scheduled; the workers only
    // ever touch their own job's handles.
    let jobs: Vec<(usize, Vec<BagReader>, BagWriter)> = desc
        .outputs
        .iter()
        .enumerate()
        .map(|(out_idx, &out_bag)| {
            let partials: Vec<BagReader> = (0..instances)
                .map(|i| {
                    BagReader::open_client(
                        rt.bag_client(BagId(desc.inputs[i * stride + out_idx])),
                        rt.config.batch_factor,
                        Some(probe.clone()),
                    )
                })
                .collect();
            let out = BagWriter::open_batched_client(
                rt.writer_client(BagId(out_bag)),
                rt.config.chunk_size,
                rt.config.batch_factor,
            );
            (out_idx, partials, out)
        })
        .collect();
    // Every output gets its own sink; the shared scratch registry lets us
    // reclaim any runs the merge left behind (error or cancellation
    // unwind) so scratch storage never outlives the task.
    let scratch: Arc<Mutex<Vec<BagId>>> = Arc::default();
    let make_sink = || -> Box<dyn SpillSink> {
        Box::new(ClusterSpillSink {
            rt: rt.clone(),
            control: None,
            probe: probe.clone(),
            scratch: scratch.clone(),
            next_pin: 0,
        })
    };
    let result = merges::merge_outputs(
        &*merge,
        rt.config.merge_parallelism,
        jobs,
        rt.config.merge_memory_budget,
        &make_sink,
    );
    let leftovers = std::mem::take(&mut *scratch.lock());
    if !leftovers.is_empty() {
        let mut control = rt.endpoint.port();
        for bag in leftovers {
            let _ = control.collect_bag(bag);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_common::{TaskId, TaskInstanceId};
    use hurricane_storage::{ClusterConfig, StorageCluster};

    #[test]
    fn a_node_failed_before_its_claim_record_landed_requeues_the_unit() {
        let ran = Arc::new(AtomicBool::new(false));
        let mut g = AppGraph::builder();
        let input = g.source("in");
        let out = g.bag("out");
        let flag = ran.clone();
        g.task("t", &[input], &[out], move |_: &mut TaskCtx| {
            flag.store(true, Ordering::Relaxed);
            Ok(())
        });
        let graph = g.build().unwrap();
        let cluster = StorageCluster::new(1, ClusterConfig::default());
        let bag_map: Vec<BagId> = (0..graph.num_bags())
            .map(|_| cluster.create_bag())
            .collect();
        cluster.seal_bag(bag_map[input.0]).unwrap();
        let workbags = WorkBagIds {
            ready: cluster.create_bag(),
            running: cluster.create_bag(),
            done: cluster.create_bag(),
        };
        let desc = Descriptor {
            kind: KIND_TASK,
            instance: TaskInstanceId::original(TaskId(0)).pack(),
            generation: 0,
            inputs: vec![bag_map[input.0].raw()],
            outputs: vec![bag_map[out.0].raw()],
        };
        let rt = Arc::new(Runtime {
            graph: Arc::new(graph),
            endpoint: StorageEndpoint::inline(cluster),
            config: Arc::new(HurricaneConfig::default()),
            kill: Arc::new(KillSwitch::new()),
            registry: RunningRegistry::new(),
            doorbell: Doorbell::default(),
            control_tx: crossbeam::channel::unbounded().0,
            workbags,
            bag_map: Arc::new(bag_map),
            seeds: Arc::new(SeedGen::new(1)),
        });
        let mut ready = rt.workbag(workbags.ready);
        let mut running = rt.workbag(workbags.running);
        let mut done: WorkBag<DoneRecord> = rt.workbag(workbags.done);
        // The node failed between the claim and the claim record.
        let alive = Arc::new(AtomicBool::new(false));
        run_claimed(0, desc.clone(), &rt, &alive, &mut ready, &mut running);
        assert_eq!(
            ready.try_take_batch(8).unwrap(),
            std::slice::from_ref(&desc)
        );
        assert!(!ran.load(Ordering::Relaxed), "no unit ran");
        assert!(done.scan_all().unwrap().is_empty());
        // On a live node the same claim runs the unit to its done record.
        alive.store(true, Ordering::Relaxed);
        run_claimed(0, desc, &rt, &alive, &mut ready, &mut running);
        assert!(ran.load(Ordering::Relaxed));
        assert!(ready.try_take_batch(8).unwrap().is_empty());
        assert_eq!(done.scan_all().unwrap().len(), 1);
    }

    #[test]
    fn registry_tracks_and_clears() {
        let r = RunningRegistry::new();
        r.register(1, 0, 0, KIND_TASK, 3);
        r.register(1, 0, 1, KIND_TASK, 4);
        assert_eq!(r.active(), 2);
        assert!(r.task_active_upto(1, 0));
        assert!(r.task_active_upto(1, 5), "older gens included");
        assert!(!r.task_active_upto(2, 0));
        r.deregister(1, 0, 0, KIND_TASK);
        r.deregister(1, 0, 1, KIND_TASK);
        assert_eq!(r.active(), 0);
        assert!(!r.task_active_upto(1, 0));
    }

    #[test]
    fn registry_generation_filter() {
        let r = RunningRegistry::new();
        r.register(1, 3, 0, KIND_TASK, 0);
        assert!(!r.task_active_upto(1, 2), "newer gen is not 'upto 2'");
        assert!(r.task_active_upto(1, 3));
    }

    #[test]
    fn registry_guard_deregisters_on_drop() {
        let r = RunningRegistry::new();
        r.register(5, 0, 0, KIND_MERGE, 1);
        {
            let _g = RegistryGuard {
                registry: &r,
                key: (5, 0, 0, KIND_MERGE),
            };
        }
        assert_eq!(r.active(), 0);
    }

    #[test]
    fn a_ring_before_the_wait_is_not_lost() {
        let bell = Doorbell::default();
        let seen = bell.epoch();
        bell.ring();
        let t = Instant::now();
        assert!(bell.wait(seen, Duration::from_secs(10)));
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
    }

    #[test]
    fn a_parked_waiter_wakes_on_a_ring_before_its_timeout() {
        let bell = Arc::new(Doorbell::default());
        let seen = bell.epoch();
        let waiter = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                let t = Instant::now();
                (bell.wait(seen, Duration::from_secs(10)), t.elapsed())
            })
        };
        // The sleep makes it likely that the waiter is parked when the
        // ring lands, the case this test is for; a ring that lands first
        // is the test above.
        std::thread::sleep(Duration::from_millis(20));
        bell.ring();
        let (rung, waited) = waiter.join().unwrap();
        assert!(rung);
        assert!(waited < Duration::from_secs(5), "{waited:?}");
    }

    #[test]
    fn an_unrung_wait_returns_at_its_timeout() {
        let bell = Doorbell::default();
        let t = Instant::now();
        assert!(!bell.wait(bell.epoch(), Duration::from_millis(20)));
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn quiescing_is_woken_by_the_last_deregistration() {
        let r = Arc::new(RunningRegistry::new());
        r.register(1, 0, 0, KIND_TASK, 0);
        r.register(2, 0, 0, KIND_TASK, 0);
        let t = Instant::now();
        let unwinding = {
            let r = r.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                r.deregister(1, 0, 0, KIND_TASK);
            })
        };
        assert!(r.wait_quiesced(1, 0, t + Duration::from_secs(10)));
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
        unwinding.join().unwrap();
        // Task 2's unit never leaves: the wait ends at its deadline.
        assert!(!r.wait_quiesced(2, 0, Instant::now() + Duration::from_millis(20)));
    }

    #[test]
    fn seedgen_yields_distinct_seeds() {
        let s = SeedGen::new(42);
        let a = s.next();
        let b = s.next();
        assert_ne!(a, b);
        // Same base, fresh generator: deterministic sequence.
        let s2 = SeedGen::new(42);
        assert_eq!(s2.next(), a);
        assert_eq!(s2.next(), b);
    }
}
