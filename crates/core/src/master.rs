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

use crate::config::HurricaneConfig;
use crate::descriptor::{Descriptor, DoneRecord, RunningRecord, KIND_MERGE, KIND_TASK};
use crate::error::EngineError;
use crate::graph::AppGraph;
use crate::heuristic::{
    CloneDecision, RateTracker, MIN_REMAINING_CHUNKS_TO_CLONE, MODELED_IO_BANDWIDTH,
};
use crate::manager::{RunningRegistry, SeedGen, WorkBagIds};
use crate::task::{ControlMsg, KillSwitch};
use crossbeam::channel::Receiver;
use hurricane_common::{BagId, TaskId, TaskInstanceId};
use hurricane_storage::{StorageCluster, StorageEndpoint, WorkBag};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Final statistics from a completed run.
#[derive(Debug, Clone, Default)]
pub struct MasterReport {
    /// Clones created per task (blueprint id → clones beyond the original).
    pub clones_per_task: HashMap<u32, u32>,
    /// Total clones created.
    pub total_clones: u32,
    /// Merge tasks executed.
    pub merges_run: u32,
    /// Task restarts due to compute-node failures.
    pub restarts: u32,
    /// Clone requests received from workers.
    pub clone_requests: u64,
    /// Clone requests rejected (heuristic, caps, capacity, rate limit).
    pub clone_rejections: u64,
}

/// How a master run ended.
pub enum MasterOutcome {
    /// All tasks completed; statistics attached.
    Completed(MasterReport),
    /// The master was crashed (test hook); its state is recoverable from
    /// the work bags via [`Master::recover`]. The control-channel receiver
    /// is handed back so the recovered master keeps hearing the workers'
    /// existing sender endpoints.
    Crashed(Receiver<ControlMsg>),
}

/// Everything the master needs, shared with the rest of the runtime.
#[derive(Clone)]
pub struct MasterDeps {
    /// The application graph.
    pub graph: Arc<AppGraph>,
    /// The storage cluster.
    pub cluster: Arc<StorageCluster>,
    /// The storage endpoint bag clients are minted from (the channel or
    /// the inline plane, per `HurricaneConfig::storage_rpc`).
    pub endpoint: Arc<StorageEndpoint>,
    /// Runtime configuration.
    pub config: Arc<HurricaneConfig>,
    /// Shared cancellation state.
    pub kill: Arc<KillSwitch>,
    /// Running-unit soft state (quiesce detection during recovery).
    pub registry: Arc<RunningRegistry>,
    /// The scheduling bags.
    pub workbags: WorkBagIds,
    /// Mapping from graph bag index to physical bag id.
    pub bag_map: Arc<Vec<BagId>>,
    /// Seed source.
    pub seeds: Arc<SeedGen>,
    /// Set by the master when the application finishes (managers exit).
    pub app_done: Arc<AtomicBool>,
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
    rate: RateTracker,
}

/// The application master.
pub struct Master {
    deps: MasterDeps,
    control_rx: Receiver<ControlMsg>,
    state: Vec<TaskState>,
    ready: WorkBag<Descriptor>,
    done_bag: WorkBag<DoneRecord>,
    running_bag: WorkBag<RunningRecord>,
    report: MasterReport,
    start: Instant,
}

impl MasterDeps {
    /// Opens a typed work bag over the deployment's storage endpoint.
    fn workbag<T: hurricane_format::Record>(&self, bag: BagId) -> WorkBag<T> {
        WorkBag::with_client(self.endpoint.client(bag, self.seeds.next()))
    }
}

impl Master {
    /// Creates a fresh master for a newly deployed application.
    pub fn new(deps: MasterDeps, control_rx: Receiver<ControlMsg>) -> Self {
        let state = (0..deps.graph.num_tasks())
            .map(|_| TaskState::default())
            .collect();
        Self {
            ready: deps.workbag(deps.workbags.ready),
            done_bag: deps.workbag(deps.workbags.done),
            running_bag: deps.workbag(deps.workbags.running),
            state,
            report: MasterReport::default(),
            start: Instant::now(),
            deps,
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
        deps: MasterDeps,
        control_rx: Receiver<ControlMsg>,
    ) -> Result<Self, EngineError> {
        let mut master = Master::new(deps, control_rx);
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
                    if master.deps.graph.task(inst.task).merge.is_some() {
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
                    ControlMsg::CloneRequest {
                        task,
                        generation,
                        consumed,
                        ..
                    } => self.handle_clone_request(task, generation, &consumed)?,
                    ControlMsg::NodeFailed { node } => self.handle_node_failure(node)?,
                    ControlMsg::Fatal { task, message } => {
                        self.deps.kill.shutdown_all();
                        self.deps.app_done.store(true, Ordering::Relaxed);
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
                self.deps.app_done.store(true, Ordering::Relaxed);
                return Ok(MasterOutcome::Completed(self.report));
            }
            std::thread::sleep(self.deps.config.master_poll);
        }
    }

    fn now_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn physical(&self, graph_bag: usize) -> BagId {
        self.deps.bag_map[graph_bag]
    }

    fn task_input_bags(&self, t: TaskId) -> Vec<u64> {
        self.deps
            .graph
            .task(t)
            .inputs
            .iter()
            .map(|&b| self.physical(b).raw())
            .collect()
    }

    fn task_output_bags(&self, t: TaskId) -> Vec<u64> {
        self.deps
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
    fn progress(&mut self) -> Result<(), EngineError> {
        let mut burst: Vec<Descriptor> = Vec::new();
        for idx in 0..self.state.len() {
            let t = TaskId(idx as u32);
            if self.state[idx].completed {
                continue;
            }
            if !self.state[idx].scheduled {
                let ready = self
                    .deps
                    .graph
                    .task(t)
                    .inputs
                    .iter()
                    .map(|&b| self.deps.cluster.is_sealed(self.physical(b)))
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
            let has_merge = self.deps.graph.task(t).merge.is_some();
            if has_merge {
                if !st.merge_scheduled {
                    // Partials from every instance must be known before the
                    // merge can be assembled.
                    if st.partials.len() as u32 == st.instances {
                        self.schedule_merge(t)?;
                    }
                } else if st.merge_done {
                    self.complete_task(t)?;
                }
            } else {
                self.complete_task(t)?;
            }
        }
        self.ready.insert_batch(&burst)?;
        Ok(())
    }

    fn complete_task(&mut self, t: TaskId) -> Result<(), EngineError> {
        for &b in &self.deps.graph.task(t).outputs {
            self.deps.cluster.seal_bag(self.physical(b))?;
        }
        self.state[t.index()].completed = true;
        Ok(())
    }

    /// Builds the descriptor for instance `clone_id` of task `t` at its
    /// current generation and records it in the task's in-memory state.
    /// The caller inserts the descriptor into the ready bag (singly or as
    /// part of a batch); master state is purely in-memory and is rebuilt
    /// from the bags on crash recovery, so a crash between this call and
    /// the insert simply leaves the task unscheduled.
    fn make_instance_descriptor(&mut self, t: TaskId, clone_id: u32) -> Descriptor {
        let has_merge = self.deps.graph.task(t).merge.is_some();
        let outputs: Vec<u64> = if has_merge {
            // Allocate (or reuse, after a restart) this instance's partial
            // output bags — one per declared output.
            let n_out = self.deps.graph.task(t).outputs.len();
            let st = &mut self.state[t.index()];
            if let Some(existing) = st.partials.get(&clone_id) {
                existing.clone()
            } else {
                let bags: Vec<u64> = (0..n_out)
                    .map(|_| self.deps.cluster.create_bag().raw())
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
        let st = &self.state[t.index()];
        let stride = self.deps.graph.task(t).outputs.len();
        let mut flattened = Vec::with_capacity(st.instances as usize * stride);
        for (_, bags) in st.partials.iter() {
            for &b in bags {
                flattened.push(b);
            }
        }
        for &b in &flattened {
            self.deps.cluster.seal_bag(BagId(b))?;
        }
        let desc = Descriptor {
            kind: KIND_MERGE,
            instance: TaskInstanceId::original(t).pack(),
            generation: st.generation,
            inputs: flattened,
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
            }
            KIND_TASK => {
                let c = inst.clone.0;
                if c >= st.instances {
                    // A clone scheduled by a previous master incarnation in
                    // the narrow insert-before-crash window: adopt it.
                    st.instances = c + 1;
                }
                if self.deps.graph.task(inst.task).merge.is_some() {
                    st.partials.entry(c).or_insert_with(|| rec.outputs.clone());
                }
                st.done.insert(c);
            }
            _ => {}
        }
    }

    /// Applies the cloning policy to one worker request (paper §4.2).
    ///
    /// `consumed` lists the task inputs the worker removes chunks from;
    /// only those hold work a clone could share. Every other input is
    /// read by snapshot — it never drains, so counting it as remaining
    /// would keep the minimum-chunks gate open forever and grant clones
    /// after the consumed inputs ran dry — and is charged to `T_IO` once,
    /// as state the clone loads. An empty `consumed` (sender unknown)
    /// counts every input as consumed.
    fn handle_clone_request(
        &mut self,
        task: u32,
        generation: u32,
        consumed: &[u32],
    ) -> Result<(), EngineError> {
        self.report.clone_requests += 1;
        let t = TaskId(task);
        let Some(st) = self.state.get(t.index()) else {
            self.report.clone_rejections += 1;
            return Ok(());
        };
        let cap = self.deps.config.instance_cap() as u32;
        let capacity = self.deps.config.compute_nodes * self.deps.config.worker_slots;
        let gate_ok = self.deps.config.cloning_enabled
            && st.scheduled
            && !st.completed
            && generation == st.generation
            && (st.done.len() as u32) < st.instances
            && st.instances < cap
            && st
                .last_clone
                .is_none_or(|at| at.elapsed() >= self.deps.config.clone_interval)
            && self.deps.registry.active() < capacity;
        if !gate_ok {
            self.report.clone_rejections += 1;
            return Ok(());
        }
        // Estimate T and T_IO from input-bag samples (paper: "T is
        // estimated by sampling the input bag ... to estimate how much
        // data is left and how fast it is emptying").
        let mut remaining_bytes = 0u64;
        let mut remaining_chunks = 0u64;
        let mut removed_bytes = 0u64;
        let mut state_bytes = 0u64;
        for (i, &b) in self.deps.graph.task(t).inputs.iter().enumerate() {
            let s = self.deps.cluster.sample_bag(self.physical(b))?;
            if consumed.is_empty() || consumed.contains(&(i as u32)) {
                remaining_bytes += s.remaining_bytes;
                remaining_chunks += s.remaining_chunks;
                removed_bytes += s.total_bytes - s.remaining_bytes;
            } else {
                state_bytes += s.total_bytes;
            }
        }
        let now = self.now_secs();
        let st = &mut self.state[t.index()];
        let rate = st.rate.observe(removed_bytes, now);
        let decision = CloneDecision {
            instances: st.instances,
            remaining_bytes,
            state_bytes,
            drain_rate: rate,
            io_bandwidth: MODELED_IO_BANDWIDTH,
        };
        if remaining_chunks < MIN_REMAINING_CHUNKS_TO_CLONE || !decision.should_clone() {
            self.report.clone_rejections += 1;
            return Ok(());
        }
        let clone_id = st.instances;
        st.last_clone = Some(Instant::now());
        self.schedule_instance(t, clone_id)?;
        *self.report.clones_per_task.entry(task).or_insert(0) += 1;
        self.report.total_clones += 1;
        Ok(())
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

    fn restart_task(&mut self, t: TaskId) -> Result<(), EngineError> {
        let old_gen = self.state[t.index()].generation;
        // Cancel every worker of the old generation, then wait for them to
        // unwind before touching their bags: a zombie writer inserting
        // into a discarded output bag would corrupt the retry.
        self.deps.kill.kill(t.0, old_gen);
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.deps.registry.task_active_upto(t.0, old_gen) {
            if Instant::now() > deadline {
                return Err(EngineError::TaskFailed {
                    task: t,
                    message: "cancelled workers failed to quiesce".into(),
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let has_merge = self.deps.graph.task(t).merge.is_some();
        let st = &self.state[t.index()];
        let merge_phase_restart = has_merge
            && st.merge_scheduled
            && !st.merge_done
            && st.done.len() as u32 == st.instances;
        if merge_phase_restart {
            // The clones finished; only the merge died. Rerun just the
            // merge: discard its (partial) writes to the real outputs and
            // rewind the sealed partial inputs.
            for &b in &self.deps.graph.task(t).outputs.clone() {
                self.deps.cluster.discard_bag(self.physical(b))?;
            }
            let partials: Vec<u64> = self.state[t.index()]
                .partials
                .values()
                .flatten()
                .copied()
                .collect();
            for b in partials {
                self.deps.cluster.rewind_bag(BagId(b))?;
                self.deps.cluster.seal_bag(BagId(b))?;
            }
            let st = &mut self.state[t.index()];
            st.generation += 1;
            st.merge_scheduled = false;
            st.merge_done = false;
            // progress() reschedules the merge at the new generation.
        } else {
            // Task-phase restart: discard all outputs (real or partial),
            // rewind inputs, and rerun from a single original instance.
            if has_merge {
                let partials: Vec<u64> = self.state[t.index()]
                    .partials
                    .values()
                    .flatten()
                    .copied()
                    .collect();
                for b in partials {
                    self.deps.cluster.discard_bag(BagId(b))?;
                }
            } else {
                for &b in &self.deps.graph.task(t).outputs.clone() {
                    self.deps.cluster.discard_bag(self.physical(b))?;
                }
            }
            for &b in &self.deps.graph.task(t).inputs.clone() {
                self.deps.cluster.rewind_bag(self.physical(b))?;
            }
            let st = &mut self.state[t.index()];
            st.generation += 1;
            st.instances = 0;
            st.done.clear();
            st.merge_scheduled = false;
            st.merge_done = false;
            // Keep only instance 0's (now discarded, reusable) partials.
            let keep = st.partials.get(&0).cloned();
            st.partials.clear();
            if let Some(bags) = keep {
                st.partials.insert(0, bags);
            }
            st.rate = RateTracker::new();
            st.last_clone = None;
            self.schedule_instance(t, 0)?;
        }
        self.report.restarts += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{BagWriter, TaskCtx};
    use hurricane_storage::{BagClient, ClusterConfig};

    /// A master over the PageRank-iteration shape — one task reading
    /// input 0 (`state_chunks` chunks) by snapshot and consuming input 1
    /// (`work_chunks` chunks) — scheduled, with `drained` work chunks
    /// already removed. No manager runs; the master is driven by hand.
    fn master_over(state_chunks: u64, work_chunks: u64, drained: u64) -> Master {
        let mut g = AppGraph::builder();
        let state = g.source("state");
        let work = g.source("work");
        let out = g.bag("out");
        g.task("iter", &[state, work], &[out], |_: &mut TaskCtx| Ok(()));
        let graph = Arc::new(g.build().expect("two sources, one task"));
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let bag_map: Vec<BagId> = (0..graph.num_bags())
            .map(|_| cluster.create_bag())
            .collect();
        for (bag, chunks) in [(state, state_chunks), (work, work_chunks)] {
            // One 8-byte record per 8-byte chunk.
            let mut w = BagWriter::open(cluster.clone(), bag_map[bag.0], 1, 8);
            for i in 0..chunks {
                w.write_record(&hurricane_format::FixedU64(i)).unwrap();
            }
            w.flush().unwrap();
            cluster.seal_bag(bag_map[bag.0]).unwrap();
        }
        let mut worker = BagClient::new(cluster.clone(), bag_map[work.0], 2);
        for _ in 0..drained {
            worker.try_remove().unwrap();
        }
        let deps = MasterDeps {
            graph,
            endpoint: Arc::new(StorageEndpoint::inline(cluster.clone())),
            config: Arc::new(HurricaneConfig::default()),
            kill: Arc::new(KillSwitch::new()),
            registry: Arc::new(RunningRegistry::new()),
            workbags: WorkBagIds {
                ready: cluster.create_bag(),
                running: cluster.create_bag(),
                done: cluster.create_bag(),
            },
            bag_map: Arc::new(bag_map),
            seeds: Arc::new(SeedGen::new(7)),
            app_done: Arc::new(AtomicBool::new(false)),
            cluster,
        };
        let (_tx, rx) = crossbeam::channel::unbounded();
        let mut master = Master::new(deps, rx);
        master.progress().expect("schedules the task");
        assert!(master.state[0].scheduled);
        master
    }

    #[test]
    fn snapshot_input_is_not_remaining_work() {
        // The consumed input is empty; 35 chunks of snapshot state never
        // drain. A worker that says which input it consumes gets no clone
        // ...
        let mut master = master_over(35, 8, 8);
        master.handle_clone_request(0, 0, &[1]).unwrap();
        assert_eq!(master.report.total_clones, 0);
        assert_eq!(master.report.clone_rejections, 1);
        // ... while a request that does not say (the fallback) counts
        // every input as consumed and sees 35 chunks left.
        master.handle_clone_request(0, 0, &[]).unwrap();
        assert_eq!(master.report.total_clones, 1);
    }

    #[test]
    fn min_remaining_chunks_gate_counts_consumed_inputs_only() {
        let min = MIN_REMAINING_CHUNKS_TO_CLONE;
        // One chunk short of the gate on the consumed input: refused,
        // whatever the snapshot input holds.
        let mut master = master_over(35, 8, 8 - (min - 1));
        master.handle_clone_request(0, 0, &[1]).unwrap();
        assert_eq!(master.report.total_clones, 0);
        // At the gate: granted (first request, no drain rate yet, so T
        // is unbounded and Eq. 2 accepts).
        let mut master = master_over(35, 8, 8 - min);
        master.handle_clone_request(0, 0, &[1]).unwrap();
        assert_eq!(master.report.total_clones, 1);
        assert_eq!(master.report.clone_rejections, 0);
    }
}
