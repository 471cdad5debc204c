//! The application master (paper §3.1, §3.2, §4.2, §4.4).
//!
//! The master drives the application: it schedules tasks once their input
//! bags are complete, monitors the done bag for completions, arbitrates
//! clone requests with the Eq. 2 heuristic, injects merge tasks when a
//! cloned task requires reconciliation, and recovers from compute-node
//! failures by restarting affected tasks at a bumped *generation*.
//!
//! The master is deliberately lightweight: all durable scheduling state
//! lives in the work bags (ready / running / done) spread across the
//! storage nodes. A crashed master is recovered by replaying those bags —
//! [`Master::recover`] rebuilds clone counts, partial-bag allocations, and
//! completion state from non-destructive snapshots, after which compute
//! nodes (which kept working during the outage) never notice.
//!
//! Bag lifecycle. A graph bag is created at deploy, filled (a source
//! before the run, any other bag by its producer's instances, or by its
//! merge for a task with one), sealed when its producer completes, and
//! read by its one consumer (`BagDef::consumer`). When that consumer
//! completes, the master collects the bag: the storage nodes free its
//! chunks and every later access fails with `BagCollected`. Clone
//! partials are created by the master when it schedules an instance,
//! sealed when it schedules the merge, and collected when the task
//! completes. Sinks and the ready, running and done bags are never
//! collected. Collection runs after the schedule burst that completion
//! unlocked, is best-effort (a storage node that is down keeps its copy)
//! and idempotent (a recovered master seals and collects again).
//!
//! The master reaches the workers only through the [`Runtime`] it shares
//! with them: the work bags, the kill switch and the control channel.
//! When the job completes or a unit fails it, the master shuts the kill
//! switch down, which cancels every unit and ends every worker loop.

use crate::app::AppReport;
use crate::descriptor::{Descriptor, DoneRecord, RunningRecord, KIND_MERGE, KIND_TASK};
use crate::error::EngineError;
use crate::heuristic::{CloneDecision, MIN_REMAINING_CHUNKS_TO_CLONE};
use crate::manager::Runtime;
use crate::task::{CloneRequest, ControlMsg};
use crossbeam::channel::Receiver;
use hurricane_common::{BagId, TaskId, TaskInstanceId};
use hurricane_storage::{RpcPort, StorageError, WorkBag};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gate that decided one clone request, in the order the master
/// checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloneVerdict {
    /// A clone was scheduled.
    Granted,
    /// The task has nothing running a clone could join: cloning is off,
    /// it is unknown, unscheduled or completed, the request comes from a
    /// restarted generation, or every instance is already done.
    NotRunning,
    /// The task already has `HurricaneConfig::instance_cap` instances.
    AtInstanceCap,
    /// Less than `clone_interval` since the task's previous clone.
    Interval,
    /// Every worker slot in the cluster is executing a unit.
    NoCapacity,
    /// Fewer than `MIN_REMAINING_CHUNKS_TO_CLONE` chunks are left in the
    /// inputs the requester consumes.
    TooFewChunks,
    /// Eq. 2 refused: `remaining_s ≤ (k + 1) · (startup_s + reconcile_s)`,
    /// or a side of it is unmeasured.
    Eq2,
}

/// One clone request and what the master made of it.
///
/// The sampled and derived fields (`remaining_*`, `reconcile_s`) are
/// zero when a gate before the sample decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneLogEntry {
    /// When the request was handled, since the master started.
    pub at: Duration,
    /// Task blueprint id.
    pub task: u32,
    /// Compute node that asked.
    pub node: u32,
    /// Instances of the task when it asked (`k`).
    pub instances: u32,
    /// Bytes left in the inputs the requester consumes.
    pub remaining_bytes: u64,
    /// Chunks left in those inputs.
    pub remaining_chunks: u64,
    /// Eq. 2's `T`, from the requester's drain rate.
    pub remaining_s: f64,
    /// The requester's measured start-up.
    pub startup_s: f64,
    /// The reconcile cost charged: zero without a merge, else the job's
    /// observed mean, else (cold start) the start-up again.
    pub reconcile_s: f64,
    /// The gate that decided.
    pub verdict: CloneVerdict,
}

impl std::fmt::Display for CloneLogEntry {
    /// One line per request, times in milliseconds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "+{:>8.1} ms  task {:>2} node {} k={}  left {:>9} B / {:>4} chunks  \
             T {:>8.2} ms  startup {:>6.2} ms  reconcile {:>6.2} ms  {:?}",
            self.at.as_secs_f64() * 1e3,
            self.task,
            self.node,
            self.instances,
            self.remaining_bytes,
            self.remaining_chunks,
            self.remaining_s * 1e3,
            self.startup_s * 1e3,
            self.reconcile_s * 1e3,
            self.verdict,
        )
    }
}

/// How a master run ended.
pub enum MasterOutcome {
    /// All tasks completed; the master's counters attached (the caller
    /// fills in `elapsed` and `master_recoveries`).
    Completed(AppReport),
    /// The master was crashed (test hook); its state is recoverable from
    /// the work bags via [`Master::recover`]. The control-channel receiver
    /// is handed back so the recovered master keeps hearing the workers'
    /// existing sender endpoints.
    Crashed(Receiver<ControlMsg>),
}

#[derive(Debug, Default)]
struct TaskState {
    scheduled: bool,
    completed: bool,
    generation: u32,
    instances: u32,
    done: HashSet<u32>,
    /// Per-clone partial output bags (merge-bearing tasks only).
    partials: BTreeMap<u32, Vec<u64>>,
    merge_scheduled: bool,
    merge_done: bool,
    last_clone: Option<Instant>,
}

/// The application master.
pub struct Master {
    rt: Arc<Runtime>,
    control_rx: Receiver<ControlMsg>,
    state: Vec<TaskState>,
    ready: WorkBag<Descriptor>,
    done_bag: WorkBag<DoneRecord>,
    running_bag: WorkBag<RunningRecord>,
    /// The port every whole-bag operation of the master goes through.
    control: RpcPort,
    report: AppReport,
    start: Instant,
    /// Total and count of the `elapsed_us` of this job's completed
    /// merges over more than one partial: the measured reconcile cost.
    /// A sum, so replaying the done bag in any order rebuilds it.
    reconcile_us: u64,
    reconciles: u32,
}

impl Master {
    /// Creates a fresh master for a newly deployed application.
    pub fn new(rt: Arc<Runtime>, control_rx: Receiver<ControlMsg>) -> Self {
        let state = (0..rt.graph.num_tasks())
            .map(|_| TaskState::default())
            .collect();
        Self {
            ready: rt.workbag(rt.workbags.ready),
            done_bag: rt.workbag(rt.workbags.done),
            running_bag: rt.workbag(rt.workbags.running),
            control: rt.endpoint.port(),
            state,
            report: AppReport::default(),
            start: Instant::now(),
            reconcile_us: 0,
            reconciles: 0,
            rt,
            control_rx,
        }
    }

    /// Rebuilds a master after a crash by replaying the work bags
    /// (paper §4.4, "Application Master Failure").
    ///
    /// The ready bag's full history (claimed descriptors included — bag
    /// snapshots ignore the read pointer) is the schedule log: it yields
    /// the current generation, instance count, and partial-bag allocation
    /// of every task. The done bag yields completions. Compute nodes and
    /// storage nodes are untouched.
    pub fn recover(
        rt: Arc<Runtime>,
        control_rx: Receiver<ControlMsg>,
    ) -> Result<Self, EngineError> {
        let mut master = Master::new(rt, control_rx);
        let descriptors = master.ready.scan_all()?;
        // Pass 1: current generation per task = max generation scheduled.
        for d in &descriptors {
            let t = d.instance_id().task.index();
            let st = &mut master.state[t];
            st.generation = st.generation.max(d.generation);
        }
        // Pass 2: rebuild instance/partial/merge state at current gen.
        for d in &descriptors {
            let inst = d.instance_id();
            let st = &mut master.state[inst.task.index()];
            if d.generation != st.generation {
                continue;
            }
            st.scheduled = true;
            match d.kind {
                KIND_TASK => {
                    st.instances = st.instances.max(inst.clone.0 + 1);
                    if master.rt.graph.task(inst.task).merge.is_some() {
                        st.partials.insert(inst.clone.0, d.outputs.clone());
                    }
                }
                KIND_MERGE => st.merge_scheduled = true,
                _ => {}
            }
        }
        // Pass 3: replay completions.
        for rec in master.done_bag.scan_all()? {
            master.handle_done(rec);
        }
        Ok(master)
    }

    /// Runs the master to completion (or crash).
    pub fn run(mut self) -> Result<MasterOutcome, EngineError> {
        loop {
            while let Ok(msg) = self.control_rx.try_recv() {
                match msg {
                    ControlMsg::CloneRequest(req) => self.handle_clone_request(&req)?,
                    ControlMsg::NodeFailed { node } => self.handle_node_failure(node)?,
                    ControlMsg::Fatal { task, message } => {
                        self.rt.kill.shutdown_all();
                        return Err(EngineError::TaskFailed {
                            task: TaskId(task),
                            message,
                        });
                    }
                    ControlMsg::CrashMaster => return Ok(MasterOutcome::Crashed(self.control_rx)),
                }
            }
            // Batched claim: completions arrive in bursts when clones
            // finish together; one storage pass drains the whole burst.
            loop {
                let recs = self.done_bag.try_take_batch(32)?;
                if recs.is_empty() {
                    break;
                }
                for rec in recs {
                    self.handle_done(rec);
                }
            }
            self.progress()?;
            if self.state.iter().all(|s| s.completed) {
                self.rt.kill.shutdown_all();
                self.report.count_clones();
                return Ok(MasterOutcome::Completed(self.report));
            }
            std::thread::sleep(self.rt.config.master_poll);
        }
    }

    fn physical(&self, graph_bag: usize) -> BagId {
        self.rt.bag_map[graph_bag]
    }

    fn task_input_bags(&self, t: TaskId) -> Vec<u64> {
        self.rt
            .graph
            .task(t)
            .inputs
            .iter()
            .map(|&b| self.physical(b).raw())
            .collect()
    }

    fn task_output_bags(&self, t: TaskId) -> Vec<u64> {
        self.rt
            .graph
            .task(t)
            .outputs
            .iter()
            .map(|&b| self.physical(b).raw())
            .collect()
    }

    /// Advances the execution graph: schedules tasks whose inputs are
    /// complete, injects merges, seals outputs of finished tasks.
    ///
    /// Newly runnable tasks are gathered across the whole pass and their
    /// descriptors inserted with one batched work-bag write: at
    /// application start (and whenever one completion unlocks several
    /// dependents) the schedule burst costs one storage round-trip per
    /// node instead of one per task.
    ///
    /// A completed task's dead bags ([`Master::complete_task`]) are
    /// collected after the burst is inserted.
    fn progress(&mut self) -> Result<(), EngineError> {
        let mut burst: Vec<Descriptor> = Vec::new();
        let mut dead: Vec<BagId> = Vec::new();
        for idx in 0..self.state.len() {
            let t = TaskId(idx as u32);
            if self.state[idx].completed {
                continue;
            }
            if !self.state[idx].scheduled {
                let ready = self
                    .rt
                    .graph
                    .task(t)
                    .inputs
                    .iter()
                    .map(|&b| self.rt.endpoint.cluster().is_sealed(self.physical(b)))
                    .collect::<Result<Vec<bool>, _>>()?
                    .into_iter()
                    .all(|s| s);
                if ready {
                    burst.push(self.make_instance_descriptor(t, 0));
                }
                continue;
            }
            let st = &self.state[idx];
            let all_done = st.done.len() as u32 == st.instances && st.instances > 0;
            if !all_done {
                continue;
            }
            let has_merge = self.rt.graph.task(t).merge.is_some();
            if has_merge {
                if !st.merge_scheduled {
                    // Partials from every instance must be known before the
                    // merge can be assembled.
                    if st.partials.len() as u32 == st.instances {
                        self.schedule_merge(t)?;
                    }
                } else if st.merge_done {
                    dead.extend(self.complete_task(t)?);
                }
            } else {
                dead.extend(self.complete_task(t)?);
            }
        }
        self.ready.insert_batch(&burst)?;
        // Freeing memory waits until the newly runnable tasks are out.
        for bag in dead {
            unless_collected(self.control.collect_bag(bag))?;
        }
        Ok(())
    }

    /// Seals `t`'s outputs and marks it completed. Returns the bags no
    /// task will read again: every input of `t`, since a bag has at most
    /// one consumer and a completed task is never restarted, and every
    /// clone partial of its merge.
    fn complete_task(&mut self, t: TaskId) -> Result<Vec<BagId>, EngineError> {
        for &b in &self.rt.graph.task(t).outputs {
            unless_collected(self.control.seal_bag(self.physical(b)))?;
        }
        self.state[t.index()].completed = true;
        let mut dead = self.task_input_bags(t);
        dead.extend(self.partial_bags(t));
        Ok(dead.into_iter().map(BagId).collect())
    }

    /// Builds the descriptor for instance `clone_id` of task `t` at its
    /// current generation and records it in the task's in-memory state.
    /// The caller inserts the descriptor into the ready bag (singly or as
    /// part of a batch); master state is purely in-memory and is rebuilt
    /// from the bags on crash recovery, so a crash between this call and
    /// the insert simply leaves the task unscheduled.
    fn make_instance_descriptor(&mut self, t: TaskId, clone_id: u32) -> Descriptor {
        let has_merge = self.rt.graph.task(t).merge.is_some();
        let outputs: Vec<u64> = if has_merge {
            // Allocate (or reuse, after a restart) this instance's partial
            // output bags — one per declared output.
            let n_out = self.rt.graph.task(t).outputs.len();
            let st = &mut self.state[t.index()];
            if let Some(existing) = st.partials.get(&clone_id) {
                existing.clone()
            } else {
                let bags: Vec<u64> = (0..n_out)
                    .map(|_| self.rt.endpoint.cluster().create_bag().raw())
                    .collect();
                st.partials.insert(clone_id, bags.clone());
                bags
            }
        } else {
            self.task_output_bags(t)
        };
        let st = &self.state[t.index()];
        let desc = Descriptor {
            kind: KIND_TASK,
            instance: TaskInstanceId::clone_of(t, clone_id).pack(),
            generation: st.generation,
            inputs: self.task_input_bags(t),
            outputs,
        };
        let st = &mut self.state[t.index()];
        st.scheduled = true;
        st.instances = st.instances.max(clone_id + 1);
        desc
    }

    /// Schedules instance `clone_id` of task `t` at its current generation.
    fn schedule_instance(&mut self, t: TaskId, clone_id: u32) -> Result<(), EngineError> {
        let desc = self.make_instance_descriptor(t, clone_id);
        self.ready.insert(&desc)?;
        Ok(())
    }

    /// Seals partials and schedules the merge reconciling them
    /// (paper §3.2: "Once all the clones complete, we execute the merge
    /// task to produce the reconciled output").
    fn schedule_merge(&mut self, t: TaskId) -> Result<(), EngineError> {
        let partials = self.partial_bags(t);
        for &b in &partials {
            self.control.seal_bag(BagId(b))?;
        }
        let desc = Descriptor {
            kind: KIND_MERGE,
            instance: TaskInstanceId::original(t).pack(),
            generation: self.state[t.index()].generation,
            inputs: partials,
            outputs: self.task_output_bags(t),
        };
        self.ready.insert(&desc)?;
        self.state[t.index()].merge_scheduled = true;
        Ok(())
    }

    fn handle_done(&mut self, rec: DoneRecord) {
        let inst = TaskInstanceId::unpack(rec.instance);
        let Some(st) = self.state.get_mut(inst.task.index()) else {
            return;
        };
        if rec.generation != st.generation {
            return; // Stale completion from a restarted generation.
        }
        match rec.kind {
            KIND_MERGE if st.merge_scheduled && !st.merge_done => {
                st.merge_done = true;
                self.report.merges_run += 1;
                // A merge over one partial is the identity concat: it
                // says nothing about what reconciling a clone costs.
                if st.instances > 1 {
                    self.reconcile_us += rec.elapsed_us;
                    self.reconciles += 1;
                }
            }
            KIND_TASK => {
                let c = inst.clone.0;
                if c >= st.instances {
                    // A clone scheduled by a previous master incarnation in
                    // the narrow insert-before-crash window: adopt it.
                    st.instances = c + 1;
                }
                if self.rt.graph.task(inst.task).merge.is_some() {
                    st.partials.entry(c).or_insert_with(|| rec.outputs.clone());
                }
                st.done.insert(c);
            }
            _ => {}
        }
    }

    /// Mean duration of this job's merges over more than one partial, in
    /// seconds; `None` until one has completed.
    fn observed_reconcile(&self) -> Option<f64> {
        (self.reconciles > 0).then(|| self.reconcile_us as f64 * 1e-6 / self.reconciles as f64)
    }

    /// Applies the cloning policy to one worker request (paper §4.2) and
    /// logs the verdict.
    ///
    /// Only the inputs the worker removes chunks from (`req.consumed`)
    /// hold work a clone could share, so only they are sampled. Every
    /// other input is read by snapshot — it never drains, so counting it
    /// as remaining would keep the minimum-chunks gate open forever and
    /// grant clones after the consumed inputs ran dry; loading it is
    /// part of the start-up the worker measured.
    fn handle_clone_request(&mut self, req: &CloneRequest) -> Result<(), EngineError> {
        let entry = self.decide_clone(req)?;
        if entry.verdict == CloneVerdict::Granted {
            let t = TaskId(req.task);
            self.state[t.index()].last_clone = Some(Instant::now());
            self.schedule_instance(t, entry.instances)?;
        }
        self.report.clone_log.push(entry);
        Ok(())
    }

    /// Runs `req` through the gates in order; the entry is filled in as
    /// far as they got.
    fn decide_clone(&mut self, req: &CloneRequest) -> Result<CloneLogEntry, EngineError> {
        use CloneVerdict::*;
        let mut entry = CloneLogEntry {
            at: self.start.elapsed(),
            task: req.task,
            node: req.node,
            instances: 0,
            remaining_bytes: 0,
            remaining_chunks: 0,
            remaining_s: 0.0,
            startup_s: req.startup.as_secs_f64(),
            reconcile_s: 0.0,
            verdict: NotRunning,
        };
        let verdict = |verdict, entry| Ok(CloneLogEntry { verdict, ..entry });
        let t = TaskId(req.task);
        let Some(st) = self.state.get(t.index()) else {
            return verdict(NotRunning, entry);
        };
        entry.instances = st.instances;
        let config = &self.rt.config;
        if !config.cloning_enabled
            || !st.scheduled
            || st.completed
            || req.generation != st.generation
            || st.done.len() as u32 >= st.instances
        {
            return verdict(NotRunning, entry);
        }
        if st.instances >= config.instance_cap() as u32 {
            return verdict(AtInstanceCap, entry);
        }
        if st
            .last_clone
            .is_some_and(|at| at.elapsed() < config.clone_interval)
        {
            return verdict(Interval, entry);
        }
        if self.rt.registry.active() >= config.compute_nodes * config.worker_slots {
            return verdict(NoCapacity, entry);
        }
        // Paper: "T is estimated by sampling the input bag ... to
        // estimate how much data is left and how fast it is emptying".
        // How much is left is the sample; how fast is the requester's.
        let task = self.rt.graph.task(t);
        for &b in req
            .consumed
            .iter()
            .filter_map(|&i| task.inputs.get(i as usize))
        {
            let s = self.control.sample_bag(self.physical(b))?;
            entry.remaining_bytes += s.remaining_bytes;
            entry.remaining_chunks += s.remaining_chunks;
        }
        entry.reconcile_s = match (&task.merge, self.observed_reconcile()) {
            (None, _) => 0.0,
            (Some(_), Some(observed)) => observed,
            (Some(_), None) => entry.startup_s,
        };
        let decision = CloneDecision::measured(
            st.instances,
            entry.remaining_bytes,
            req.taken_bytes,
            req.busy,
            req.startup,
            entry.reconcile_s,
        );
        entry.remaining_s = decision.remaining_s;
        if entry.remaining_chunks < MIN_REMAINING_CHUNKS_TO_CLONE {
            return verdict(TooFewChunks, entry);
        }
        if !decision.should_clone() {
            return verdict(Eq2, entry);
        }
        verdict(Granted, entry)
    }

    /// Restarts every task that had an unfinished unit on the failed node
    /// (paper §4.4, "Compute Node Failure").
    fn handle_node_failure(&mut self, node: u32) -> Result<(), EngineError> {
        let running = self.running_bag.scan_all()?;
        let mut affected: Vec<TaskId> = Vec::new();
        for rec in &running {
            if rec.node != node {
                continue;
            }
            let inst = TaskInstanceId::unpack(rec.instance);
            let Some(st) = self.state.get(inst.task.index()) else {
                continue;
            };
            if rec.generation != st.generation || st.completed {
                continue;
            }
            let finished = match rec.kind {
                KIND_MERGE => st.merge_done,
                _ => st.done.contains(&inst.clone.0),
            };
            if !finished && !affected.contains(&inst.task) {
                affected.push(inst.task);
            }
        }
        for t in affected {
            self.restart_task(t)?;
        }
        Ok(())
    }

    /// Every partial output bag of task `t`, laid out `[instance][output]`
    /// as a merge descriptor lists them.
    fn partial_bags(&self, t: TaskId) -> Vec<u64> {
        self.state[t.index()]
            .partials
            .values()
            .flatten()
            .copied()
            .collect()
    }

    fn restart_task(&mut self, t: TaskId) -> Result<(), EngineError> {
        let old_gen = self.state[t.index()].generation;
        // Cancel every worker of the old generation, then wait for them to
        // unwind before touching their bags: a zombie writer inserting
        // into a discarded output bag would corrupt the retry.
        self.rt.kill.kill(t.0, old_gen);
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.rt.registry.task_active_upto(t.0, old_gen) {
            if Instant::now() > deadline {
                return Err(EngineError::TaskFailed {
                    task: t,
                    message: "cancelled workers failed to quiesce".into(),
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let rt = Arc::clone(&self.rt);
        let task = rt.graph.task(t);
        let outputs = task.outputs.iter().map(|&b| rt.bag_map[b]);
        let partials = self.partial_bags(t).into_iter().map(BagId);
        let st = &self.state[t.index()];
        let merge_phase_restart = task.merge.is_some()
            && st.merge_scheduled
            && !st.merge_done
            && st.done.len() as u32 == st.instances;
        if merge_phase_restart {
            // The clones finished; only the merge died. Rerun just the
            // merge: discard its (partial) writes to the real outputs and
            // rewind the sealed partial inputs.
            for b in outputs {
                self.control.discard_bag(b)?;
            }
            for b in partials {
                self.control.rewind_bag(b)?;
                self.control.seal_bag(b)?;
            }
            let st = &mut self.state[t.index()];
            st.generation += 1;
            st.merge_scheduled = false;
            st.merge_done = false;
            // progress() reschedules the merge at the new generation.
        } else {
            // Task-phase restart: discard all outputs (real or partial),
            // rewind inputs, and rerun from a single original instance.
            if task.merge.is_some() {
                for b in partials {
                    self.control.discard_bag(b)?;
                }
            } else {
                for b in outputs {
                    self.control.discard_bag(b)?;
                }
            }
            for &b in &task.inputs {
                self.control.rewind_bag(rt.bag_map[b])?;
            }
            let st = &mut self.state[t.index()];
            st.generation += 1;
            st.instances = 0;
            st.done.clear();
            st.merge_scheduled = false;
            st.merge_done = false;
            // Keep only instance 0's (now discarded, reusable) partials.
            st.partials.retain(|&clone, _| clone == 0);
            st.last_clone = None;
            self.schedule_instance(t, 0)?;
        }
        self.report.restarts += 1;
        Ok(())
    }
}

/// `result`, with "already collected" read as success. A master rebuilt
/// by [`Master::recover`] replays every completion, so it seals the
/// outputs and collects the dead bags of tasks an earlier incarnation
/// completed, and some of those bags are collected already.
fn unless_collected(result: Result<(), StorageError>) -> Result<(), StorageError> {
    match result {
        Err(StorageError::BagCollected(_)) => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HurricaneConfig;
    use crate::graph::AppGraph;
    use crate::manager::{RunningRegistry, SeedGen, WorkBagIds};
    use crate::merges::ReduceMerge;
    use crate::task::{BagWriter, KillSwitch, TaskCtx};
    use hurricane_storage::{BagClient, ClusterConfig, StorageCluster, StorageEndpoint};

    /// Inserts `chunks` chunks of one 8-byte record each into `bag`.
    fn fill(cluster: &Arc<StorageCluster>, bag: BagId, chunks: u64) {
        let mut w = BagWriter::open(cluster.clone(), bag, 1, 8);
        for i in 0..chunks {
            w.write_record(&hurricane_format::FixedU64(i)).unwrap();
        }
        w.flush().unwrap();
    }

    /// Removes `chunks` chunks from `bag`, as a worker reading it would.
    fn take(cluster: &Arc<StorageCluster>, bag: BagId, chunks: u64) {
        let mut worker = BagClient::new(cluster.clone(), bag, 2);
        for _ in 0..chunks {
            worker.try_remove_batch(1).unwrap();
        }
    }

    /// A master over the PageRank-iteration shape — one task reading
    /// input 0 (`state_chunks` chunks) by snapshot and consuming input 1
    /// (`work_chunks` chunks), with a merge or without — scheduled, with
    /// `drained` work chunks already removed. No manager runs; the
    /// master is driven by hand.
    fn master_over(state_chunks: u64, work_chunks: u64, drained: u64, merge: bool) -> Master {
        let mut g = AppGraph::builder();
        let state = g.source("state");
        let work = g.source("work");
        let out = g.bag("out");
        let body = |_: &mut TaskCtx| Ok(());
        if merge {
            let sum = ReduceMerge::new(|a: u64, b: u64| a + b);
            g.task_with_merge("iter", &[state, work], &[out], body, sum);
        } else {
            g.task("iter", &[state, work], &[out], body);
        }
        let graph = Arc::new(g.build().expect("two sources, one task"));
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag_map: Vec<BagId> = (0..graph.num_bags())
            .map(|_| cluster.create_bag())
            .collect();
        for (bag, chunks) in [(state, state_chunks), (work, work_chunks)] {
            fill(&cluster, bag_map[bag.0], chunks);
            cluster.seal_bag(bag_map[bag.0]).unwrap();
        }
        take(&cluster, bag_map[work.0], drained);
        let workbags = WorkBagIds {
            ready: cluster.create_bag(),
            running: cluster.create_bag(),
            done: cluster.create_bag(),
        };
        let (control_tx, rx) = crossbeam::channel::unbounded();
        let rt = Runtime {
            graph,
            endpoint: StorageEndpoint::inline(cluster),
            config: Arc::new(HurricaneConfig::default()),
            kill: Arc::new(KillSwitch::new()),
            registry: RunningRegistry::new(),
            control_tx,
            workbags,
            bag_map: Arc::new(bag_map),
            seeds: Arc::new(SeedGen::new(7)),
        };
        let mut master = Master::new(Arc::new(rt), rx);
        master.progress().expect("schedules the task");
        assert!(master.state[0].scheduled);
        master
    }

    /// A worker of the task, `busy_ms` into its unit, that spent
    /// `startup_ms` before its first chunk and has taken `taken_chunks`
    /// of the work input (8 bytes each).
    fn request(busy_ms: u64, startup_ms: u64, taken_chunks: u64) -> CloneRequest {
        CloneRequest {
            task: 0,
            generation: 0,
            node: 1,
            consumed: Arc::new([1]),
            busy: Duration::from_millis(busy_ms),
            startup: Duration::from_millis(startup_ms),
            taken_bytes: 8 * taken_chunks,
        }
    }

    fn ask(master: &mut Master, req: CloneRequest) -> CloneLogEntry {
        master.handle_clone_request(&req).unwrap();
        master.report.count_clones();
        *master
            .report
            .clone_log
            .last()
            .expect("one entry per request")
    }

    #[test]
    fn snapshot_input_is_not_remaining_work() {
        // The consumed input is empty; 35 chunks of snapshot state never
        // drain. A worker draining fast, with a free start-up, gets no
        // clone: there is nothing left to share ...
        let mut master = master_over(35, 8, 8, false);
        let e = ask(&mut master, request(10, 0, 8));
        assert_eq!(e.verdict, CloneVerdict::TooFewChunks);
        assert_eq!((e.remaining_chunks, e.node, e.instances), (0, 1, 1));
        assert_eq!(master.report.clone_rejections, 1);
        // ... and only naming the state input as consumed would make its
        // 35 chunks count.
        let wrong = CloneRequest {
            consumed: Arc::new([0, 1]),
            ..request(10, 0, 8)
        };
        let e = ask(&mut master, wrong);
        assert_eq!(e.verdict, CloneVerdict::Granted);
        assert_eq!(e.remaining_chunks, 35);
        assert_eq!(master.report.total_clones, 1);
    }

    #[test]
    fn min_remaining_chunks_gate_counts_consumed_inputs_only() {
        let min = MIN_REMAINING_CHUNKS_TO_CLONE;
        // One chunk short of the gate on the consumed input: refused,
        // whatever the snapshot input holds.
        let mut master = master_over(35, 8, 8 - (min - 1), false);
        assert_eq!(
            ask(&mut master, request(10, 0, 5)).verdict,
            CloneVerdict::TooFewChunks
        );
        // At the gate: a merge-less task that started at once has no
        // overhead to repay, so any measured T clears Eq. 2 — the gate
        // is what keeps the last chunks from drawing a clone.
        let mut master = master_over(35, 8, 8 - min, false);
        let e = ask(&mut master, request(10, 0, 4));
        assert_eq!(e.verdict, CloneVerdict::Granted);
        assert_eq!((e.startup_s, e.reconcile_s), (0.0, 0.0));
        assert_eq!(master.report.total_clones, 1);
        assert_eq!(master.report.clone_rejections, 0);
    }

    #[test]
    fn first_request_is_decided_from_its_own_measurements() {
        // 10 of 160 chunks taken in the 19 ms after a 1 ms start-up:
        // 150 chunks at that rate are T = 285 ms against a cold-start
        // overhead of 1 + 1 ms. No earlier request, no master-side rate.
        let mut master = master_over(35, 160, 10, true);
        let e = ask(&mut master, request(20, 1, 10));
        assert_eq!(e.verdict, CloneVerdict::Granted);
        assert!((e.remaining_s - 0.285).abs() < 1e-9, "{e:?}");
        assert_eq!((e.startup_s, e.reconcile_s), (0.001, 0.001));
        // The same first request with nothing taken yet has no rate: T is
        // unmeasured, and unmeasured refuses at the inequality.
        let mut master = master_over(35, 160, 0, true);
        let e = ask(&mut master, request(20, 1, 0));
        assert_eq!(e.verdict, CloneVerdict::Eq2);
        assert!(e.remaining_s.is_infinite());
        assert_eq!(e.remaining_chunks, 160);
    }

    #[test]
    fn late_clone_of_a_stateful_task_is_refused() {
        // The PageRank iteration: a 28 ms task asks at +20 ms, 2 ms of
        // which went into loading the rank snapshot; 30 of 160 chunks are
        // left. T = 30/130 · 18 ms ≈ 4.2 ms cannot repay 2 · (2 + 2) ms.
        let mut master = master_over(35, 160, 130, true);
        let e = ask(&mut master, request(20, 2, 130));
        assert_eq!(e.verdict, CloneVerdict::Eq2);
        assert!((e.remaining_s - 0.018 * 30.0 / 130.0).abs() < 1e-9);
        // Early in the same task the cold-start rule grants: 153 chunks
        // at 7 per ms are 21.9 ms against the same 8 ms ...
        let mut early = master_over(35, 160, 7, true);
        assert_eq!(
            ask(&mut early, request(3, 2, 7)).verdict,
            CloneVerdict::Granted
        );
        // ... but not once the job has seen what reconciling a partial of
        // this shape costs: 21.9 ms < 2 · (2 + 15) ms.
        let mut taught = master_over(35, 160, 7, true);
        taught.reconcile_us = 15_000;
        taught.reconciles = 1;
        let e = ask(&mut taught, request(3, 2, 7));
        assert_eq!(e.verdict, CloneVerdict::Eq2);
        assert_eq!(e.reconcile_s, 0.015);
    }

    #[test]
    fn gates_before_the_sample_name_themselves() {
        let mut master = master_over(35, 160, 10, false);
        let stale = CloneRequest {
            generation: 7,
            ..request(20, 0, 10)
        };
        assert_eq!(ask(&mut master, stale).verdict, CloneVerdict::NotRunning);
        assert_eq!(
            ask(&mut master, request(20, 0, 10)).verdict,
            CloneVerdict::Granted
        );
        // Straight after a grant the interval gate answers, and it left
        // the bags unsampled.
        let e = ask(&mut master, request(21, 0, 11));
        assert_eq!(e.verdict, CloneVerdict::Interval);
        assert_eq!((e.instances, e.remaining_chunks), (2, 0));
        assert_eq!(master.report.clone_requests, 3);
        assert_eq!(master.report.clone_rejections, 2);
    }

    /// A completion of the harness task's unit `clone` (or of its merge),
    /// written to the done bag for [`Master::recover`] and handed to
    /// `master` as its run loop would.
    fn complete(master: &mut Master, kind: u8, clone: u32, elapsed_us: u64) {
        let outputs = match master.state[0].partials.get(&clone) {
            Some(partials) if kind == KIND_TASK => partials.clone(),
            _ => master.task_output_bags(TaskId(0)),
        };
        let rec = DoneRecord {
            kind,
            instance: TaskInstanceId::clone_of(TaskId(0), clone).pack(),
            generation: 0,
            node: clone,
            outputs,
            elapsed_us,
        };
        master.done_bag.insert(&rec).unwrap();
        master.handle_done(rec);
    }

    #[test]
    fn merges_over_clones_teach_the_reconcile_cost_and_recovery_replays_it() {
        let mut master = master_over(35, 160, 10, true);
        assert_eq!(
            ask(&mut master, request(20, 1, 10)).verdict,
            CloneVerdict::Granted
        );
        complete(&mut master, KIND_TASK, 0, 28_000);
        complete(&mut master, KIND_TASK, 1, 9_000);
        assert_eq!(
            master.observed_reconcile(),
            None,
            "task units are not merges"
        );
        master.progress().expect("schedules the merge");
        assert!(master.state[0].merge_scheduled);
        complete(&mut master, KIND_MERGE, 0, 15_000);
        assert_eq!(master.observed_reconcile(), Some(0.015));
        // A recovered master replays the ready and done bags and holds
        // later requests to the same estimate.
        let (_tx, rx) = crossbeam::channel::unbounded();
        let recovered = Master::recover(master.rt.clone(), rx).unwrap();
        assert_eq!(recovered.report.merges_run, 1);
        assert_eq!(recovered.observed_reconcile(), Some(0.015));
    }

    #[test]
    fn identity_merge_of_an_uncloned_task_teaches_nothing() {
        let mut master = master_over(35, 160, 160, true);
        complete(&mut master, KIND_TASK, 0, 28_000);
        master.progress().expect("schedules the merge");
        complete(&mut master, KIND_MERGE, 0, 1_400);
        assert_eq!(master.report.merges_run, 1);
        assert_eq!(master.observed_reconcile(), None);
    }

    /// Chunks left to remove from `bag`, chunks it holds, and whether it
    /// is sealed.
    fn bag_state(master: &mut Master, bag: BagId) -> (u64, u64, bool) {
        let s = master.control.sample_bag(bag).unwrap();
        let sealed = master.rt.endpoint.cluster().is_sealed(bag).unwrap();
        (s.remaining_chunks, s.total_chunks, sealed)
    }

    #[test]
    fn a_merge_phase_restart_reruns_only_the_merge() {
        let mut master = master_over(35, 160, 10, true);
        let cluster = master.rt.endpoint.cluster().clone();
        let granted = ask(&mut master, request(20, 0, 10)).verdict;
        assert_eq!(granted, CloneVerdict::Granted);
        let partials: Vec<BagId> = master
            .partial_bags(TaskId(0))
            .into_iter()
            .map(BagId)
            .collect();
        assert_eq!(partials.len(), 2, "one output per instance");
        for &b in &partials {
            fill(&cluster, b, 3);
        }
        complete(&mut master, KIND_TASK, 0, 28_000);
        complete(&mut master, KIND_TASK, 1, 9_000);
        master.progress().expect("schedules the merge");
        assert!(master.state[0].merge_scheduled);
        // The merge took a chunk of each partial and wrote one to the real
        // output before its node failed.
        let out = BagId(master.task_output_bags(TaskId(0))[0]);
        for &b in &partials {
            take(&cluster, b, 1);
        }
        fill(&cluster, out, 1);

        master.restart_task(TaskId(0)).unwrap();
        assert_eq!(bag_state(&mut master, out), (0, 0, false), "discarded");
        for &b in &partials {
            assert_eq!(bag_state(&mut master, b), (3, 3, true), "rewound, sealed");
        }
        let st = &master.state[0];
        assert_eq!((st.generation, st.merge_scheduled), (1, false));
        assert_eq!(
            (st.instances, st.done.len()),
            (2, 2),
            "the clones stay done"
        );
        assert!(master.rt.kill.is_killed(0, 0));
        assert_eq!(master.report.restarts, 1);
        // The next round schedules the merge again, at the new generation.
        master.progress().unwrap();
        let mut merges: Vec<u32> = master
            .ready
            .scan_all()
            .unwrap()
            .iter()
            .filter(|d| d.kind == KIND_MERGE)
            .map(|d| d.generation)
            .collect();
        merges.sort_unstable();
        assert_eq!(merges, [0, 1]);
    }

    #[test]
    fn a_task_phase_restart_reruns_the_task_from_instance_0() {
        for merge in [true, false] {
            let mut master = master_over(35, 160, 10, merge);
            let cluster = master.rt.endpoint.cluster().clone();
            let granted = ask(&mut master, request(20, 0, 10)).verdict;
            assert_eq!(granted, CloneVerdict::Granted);
            let kept = master.state[0].partials.get(&0).cloned();
            // Each instance wrote two chunks; the clone finished.
            let outputs: Vec<BagId> = if merge {
                master.partial_bags(TaskId(0))
            } else {
                master.task_output_bags(TaskId(0))
            }
            .into_iter()
            .map(BagId)
            .collect();
            for &b in &outputs {
                fill(&cluster, b, 2);
            }
            complete(&mut master, KIND_TASK, 1, 9_000);

            master.restart_task(TaskId(0)).unwrap();
            for &b in &outputs {
                assert_eq!(bag_state(&mut master, b), (0, 0, false), "merge {merge}");
            }
            for (b, chunks) in master.task_input_bags(TaskId(0)).into_iter().zip([35, 160]) {
                let rewound = bag_state(&mut master, BagId(b));
                assert_eq!(rewound, (chunks, chunks, true), "merge {merge}");
            }
            let st = &master.state[0];
            assert_eq!((st.generation, st.instances), (1, 1), "merge {merge}");
            assert!(st.done.is_empty() && !st.merge_scheduled && st.last_clone.is_none());
            assert_eq!(
                st.partials.get(&0),
                kept.as_ref(),
                "instance 0's partials kept"
            );
            assert_eq!(st.partials.len(), kept.iter().len());
            let fresh: Vec<Descriptor> = master
                .ready
                .scan_all()
                .unwrap()
                .into_iter()
                .filter(|d| d.generation == 1)
                .collect();
            assert_eq!(fresh.len(), 1, "merge {merge}");
            assert_eq!(fresh[0].instance_id(), TaskInstanceId::original(TaskId(0)));
            let outputs = kept.unwrap_or_else(|| master.task_output_bags(TaskId(0)));
            assert_eq!(fresh[0].outputs, outputs);
        }
    }
}
