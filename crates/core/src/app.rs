//! Application deployment and orchestration.
//!
//! [`HurricaneApp`] owns one application's physical resources: the mapping
//! from graph bags to storage bags, the three scheduling work bags, and
//! the shared control plane. `deploy → fill sources → run → read sinks`
//! is the whole lifecycle; the run collects every bag a completed task
//! read, so sinks are what is left to read:
//!
//! ```
//! use hurricane_core::{AppGraph, HurricaneApp, HurricaneConfig, TaskCtx, EngineError};
//! use hurricane_storage::{ClusterConfig, StorageCluster};
//!
//! let mut g = AppGraph::builder();
//! let input = g.source("numbers");
//! let doubled = g.bag("doubled");
//! g.task("double", &[input], &[doubled], |ctx: &mut TaskCtx| {
//!     while let Some(recs) = ctx.next_records::<u64>(0)? {
//!         for r in recs {
//!             ctx.write_record(0, &(r * 2))?;
//!         }
//!     }
//!     Ok(())
//! });
//!
//! let cluster = StorageCluster::new(2, ClusterConfig::default());
//! let mut app =
//!     HurricaneApp::deploy(g.build().unwrap(), cluster, HurricaneConfig::default()).unwrap();
//! app.fill_source(input, 0..10u64).unwrap();
//! let report = app.run().unwrap();
//! assert_eq!(report.restarts, 0);
//! let mut out: Vec<u64> = app.read_records(doubled).unwrap();
//! out.sort_unstable();
//! assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
//! ```

use crate::config::HurricaneConfig;
use crate::error::EngineError;
use crate::graph::{AppGraph, BagKind, GraphBag};
use crate::manager::{
    spawn_manager, ComputeNodeHandle, RunningRegistry, Runtime, SeedGen, WorkBagIds,
};
use crate::master::{CloneLogEntry, CloneVerdict, Master, MasterOutcome};
use crate::task::{BagWriter, ControlMsg, KillSwitch};
use crossbeam::channel::unbounded;
use hurricane_common::BagId;
use hurricane_format::{decode_all, Chunk, Record};
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageEndpoint};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records a fill lane encodes per hand-off: large enough that a hand-off
/// costs little beside the encoding, small enough that input under one
/// run starts no thread.
const FILL_RUN: usize = 8192;

/// Runs queued per fill helper before the caller waits for it.
const FILL_QUEUE: usize = 2;

/// Statistics returned by a completed run.
#[derive(Debug, Clone, Default)]
pub struct AppReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Clones created per task.
    pub clones_per_task: std::collections::HashMap<u32, u32>,
    /// Total clones created.
    pub total_clones: u32,
    /// Merge tasks executed.
    pub merges_run: u32,
    /// Task restarts due to failures.
    pub restarts: u32,
    /// Clone requests the master handled, granted or declined.
    pub clone_requests: u64,
    /// Clone requests the master declined.
    pub clone_rejections: u64,
    /// Master recoveries performed during the run.
    pub master_recoveries: u32,
    /// Every clone request the (last) master handled, in arrival order,
    /// with the Eq. 2 inputs it was decided on and the gate that decided.
    pub clone_log: Vec<CloneLogEntry>,
}

impl AppReport {
    /// Sets the clone counters from `clone_log`, which holds one entry
    /// per request.
    pub(crate) fn count_clones(&mut self) {
        self.clones_per_task.clear();
        for e in &self.clone_log {
            if e.verdict == CloneVerdict::Granted {
                *self.clones_per_task.entry(e.task).or_insert(0) += 1;
            }
        }
        self.total_clones = self.clones_per_task.values().sum();
        self.clone_requests = self.clone_log.len() as u64;
        self.clone_rejections = self.clone_requests - u64::from(self.total_clones);
    }
}

/// A deployed Hurricane application.
pub struct HurricaneApp {
    graph: Arc<AppGraph>,
    cluster: Arc<StorageCluster>,
    config: Arc<HurricaneConfig>,
    bag_map: Arc<Vec<BagId>>,
    workbags: WorkBagIds,
    seeds: Arc<SeedGen>,
}

impl HurricaneApp {
    /// Creates the application's bags on `cluster` and prepares it to run.
    pub fn deploy(
        graph: AppGraph,
        cluster: Arc<StorageCluster>,
        config: HurricaneConfig,
    ) -> Result<Self, EngineError> {
        let bag_map: Vec<BagId> = (0..graph.num_bags())
            .map(|_| cluster.create_bag())
            .collect();
        let workbags = WorkBagIds {
            ready: cluster.create_bag(),
            running: cluster.create_bag(),
            done: cluster.create_bag(),
        };
        let seeds = Arc::new(SeedGen::new(config.seed));
        Ok(Self {
            graph: Arc::new(graph),
            cluster,
            config: Arc::new(config),
            bag_map: Arc::new(bag_map),
            workbags,
            seeds,
        })
    }

    /// As [`HurricaneApp::deploy`], but builds the storage cluster from
    /// the config itself: `storage_nodes` in-memory nodes by default,
    /// durable nodes journaling under
    /// [`HurricaneConfig::data_dir`](crate::HurricaneConfig) (with the
    /// configured spill threshold) when it is set.
    ///
    /// # Panics
    ///
    /// When `data_dir` is set but the segment store cannot be created
    /// there — a deployment that asked for durability and cannot have it
    /// must not start.
    pub fn deploy_with_storage(
        graph: AppGraph,
        storage_nodes: usize,
        storage: ClusterConfig,
        config: HurricaneConfig,
    ) -> Result<Self, EngineError> {
        let cluster = match config
            .durability()
            .expect("create segment store under data_dir")
        {
            None => StorageCluster::new(storage_nodes, storage),
            Some(d) => StorageCluster::new_durable(storage_nodes, storage, d),
        };
        Self::deploy(graph, cluster, config)
    }

    /// The physical bag backing a graph bag.
    pub fn physical_bag(&self, bag: GraphBag) -> BagId {
        self.bag_map[bag.0]
    }

    /// The application graph.
    pub fn graph(&self) -> &Arc<AppGraph> {
        &self.graph
    }

    /// The storage cluster.
    pub fn cluster(&self) -> &Arc<StorageCluster> {
        &self.cluster
    }

    /// Opens a writer for filling a source bag before the run. Bulk
    /// loading batches inserts at the configured batch factor, so a
    /// source fill issues one storage call per node per `b` chunks.
    ///
    /// Each writer seals its own chunks, so a source filled through
    /// several writers (as [`HurricaneApp::fill_source`] does, one per
    /// lane) has chunk boundaries that depend on how many there were:
    /// what the bag holds is guaranteed only as a multiset of records.
    pub fn source_writer(&self, bag: GraphBag) -> Result<BagWriter, EngineError> {
        if self.graph.bag(bag).kind != BagKind::Source {
            return Err(EngineError::InvalidGraph(format!(
                "bag '{}' is not a source",
                self.graph.bag(bag).name
            )));
        }
        Ok(BagWriter::open_batched(
            self.cluster.clone(),
            self.physical_bag(bag),
            self.seeds.next(),
            self.config.chunk_size,
            self.config.batch_factor,
        ))
    }

    /// Fills a source bag from a record iterator and returns the bytes
    /// written.
    ///
    /// No worker runs before [`HurricaneApp::start`], so the fill encodes
    /// on up to `min(compute_nodes × worker_slots, available_parallelism)`
    /// lanes: the caller pulls the iterator into runs of a fixed record
    /// count and hands them round-robin to itself and to scoped helper
    /// threads, each lane writing through its own
    /// [`HurricaneApp::source_writer`]. Input shorter than one run, or a
    /// single lane, starts no thread.
    ///
    /// The bag holds the same multiset of records, in the same number of
    /// bytes, as a [`BagWriter::write_record`] loop would write; its chunk
    /// boundaries depend on the lane count (see `source_writer`). Every
    /// lane flushes before this returns. On failure the first lane error
    /// is returned: a helper that fails drops its run queue, so the
    /// caller's next hand-off fails and it stops, and every helper is
    /// joined before the call returns.
    pub fn fill_source<T: Record + Send>(
        &self,
        bag: GraphBag,
        records: impl IntoIterator<Item = T>,
    ) -> Result<u64, EngineError> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let slots = self.config.compute_nodes * self.config.worker_slots;
        self.fill_on_lanes(bag, records, slots.min(cores))
    }

    /// [`HurricaneApp::fill_source`] on at most `lanes` lanes.
    fn fill_on_lanes<T: Record + Send>(
        &self,
        bag: GraphBag,
        records: impl IntoIterator<Item = T>,
        lanes: usize,
    ) -> Result<u64, EngineError> {
        let mut records = records.into_iter();
        let mut run: Vec<T> = records.by_ref().take(FILL_RUN).collect();
        let helpers = if run.len() < FILL_RUN {
            0
        } else {
            lanes.saturating_sub(1)
        };
        let mut caller = self.source_writer(bag)?;
        let writers = (0..helpers)
            .map(|_| self.source_writer(bag))
            .collect::<Result<Vec<_>, _>>()?;
        // The first error any lane meets; later ones are dropped.
        let failed = Mutex::new(None);
        let fail = |e: EngineError| {
            failed
                .lock()
                .expect("no lane panics holding the error slot")
                .get_or_insert(e);
        };
        let bytes = std::thread::scope(|s| {
            let mut queues = Vec::with_capacity(helpers);
            let mut lanes = Vec::with_capacity(helpers);
            for (i, mut w) in writers.into_iter().enumerate() {
                let (tx, rx) = mpsc::sync_channel::<Vec<T>>(FILL_QUEUE);
                let lane = move || {
                    // Returning drops `rx`, so the caller's next send fails.
                    for run in rx {
                        w.write_run(&run)?;
                    }
                    w.flush()?;
                    Ok::<_, EngineError>(w.bytes_written())
                };
                let lane = std::thread::Builder::new()
                    .name(format!("fill-lane-{}", i + 1))
                    .spawn_scoped(s, move || lane().map_err(fail))
                    .expect("spawning a fill lane");
                queues.push(tx);
                lanes.push(lane);
            }
            // Round-robin over the helpers' queues, then the caller's turn.
            let mut turn = 0;
            while !run.is_empty() {
                if turn < queues.len() {
                    let next = records.by_ref().take(FILL_RUN).collect();
                    if queues[turn]
                        .send(std::mem::replace(&mut run, next))
                        .is_err()
                    {
                        break; // That helper failed and recorded why.
                    }
                    turn += 1;
                } else {
                    if let Err(e) = caller.write_run(&run) {
                        fail(e);
                        break;
                    }
                    run.clear();
                    run.extend(records.by_ref().take(FILL_RUN));
                    turn = 0;
                }
            }
            drop(queues);
            let mut bytes = 0;
            for lane in lanes {
                match lane.join() {
                    Ok(written) => bytes += written.unwrap_or(0),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            bytes
        });
        if let Some(e) = failed
            .into_inner()
            .expect("no lane panics holding the error slot")
        {
            return Err(e);
        }
        caller.flush()?;
        Ok(bytes + caller.bytes_written())
    }

    /// Starts the application: seals sources, spawns task managers and the
    /// master. Returns a handle for waiting and fault injection.
    pub fn start(&self) -> Result<RunningApp, EngineError> {
        let mut port = RpcPort::inline(self.cluster.clone());
        for bag in self.graph.sources() {
            port.seal_bag(self.physical_bag(bag))?;
        }
        // The storage endpoint every worker and the master mint their bag
        // clients from. One protocol either way; `storage_rpc` only picks
        // who runs the node side of it — per-node server threads, or the
        // caller's own thread.
        let plane = if self.config.storage_rpc {
            StorageEndpoint::channel
        } else {
            StorageEndpoint::inline
        };
        let (control_tx, control_rx) = unbounded();
        let rt = Arc::new(Runtime {
            graph: self.graph.clone(),
            endpoint: plane(self.cluster.clone()),
            config: self.config.clone(),
            kill: Arc::new(KillSwitch::new()),
            registry: RunningRegistry::new(),
            control_tx,
            workbags: self.workbags,
            bag_map: self.bag_map.clone(),
            seeds: self.seeds.clone(),
        });
        let managers: Vec<ComputeNodeHandle> = (0..self.config.compute_nodes)
            .map(|i| spawn_manager(i as u32, &rt))
            .collect();
        let master = Master::new(rt.clone(), control_rx);
        let master_thread = std::thread::Builder::new()
            .name("app-master".into())
            .spawn(move || master.run())
            .expect("spawning master");
        Ok(RunningApp {
            rt,
            managers,
            master: Some(master_thread),
            start: Instant::now(),
            recoveries: 0,
            finished: None,
        })
    }

    /// Runs the application to completion (blocking).
    pub fn run(&mut self) -> Result<AppReport, EngineError> {
        self.start()?.wait()
    }

    /// Reads every record of a bag non-destructively.
    ///
    /// After [`HurricaneApp::run`] only sinks ([`AppGraph::sinks`], the
    /// bags no task consumes) can be read: the master collects every
    /// other bag once the task reading it completes, and reading one
    /// fails with `StorageError::BagCollected`.
    pub fn read_records<T: Record>(&self, bag: GraphBag) -> Result<Vec<T>, EngineError> {
        let mut out = Vec::new();
        for c in &self.read_chunks(bag)? {
            out.extend(decode_all::<T>(c)?);
        }
        Ok(out)
    }

    /// Reads every chunk of a bag non-destructively, through an inline
    /// port over the cluster. After the run only sinks can be read (see
    /// [`HurricaneApp::read_records`]).
    pub fn read_chunks(&self, bag: GraphBag) -> Result<Vec<Chunk>, EngineError> {
        let bag = self.physical_bag(bag);
        Ok(RpcPort::inline(self.cluster.clone()).snapshot_bag(bag)?)
    }
}

/// A running application: join handle plus fault-injection hooks.
pub struct RunningApp {
    /// Also keeps the storage endpoint (and, on the channel plane, its
    /// server loops) alive for the run's duration; it is shut down
    /// (draining in-flight requests) once everything has joined.
    rt: Arc<Runtime>,
    managers: Vec<ComputeNodeHandle>,
    master: Option<JoinHandle<Result<MasterOutcome, EngineError>>>,
    start: Instant,
    recoveries: u32,
    finished: Option<AppReport>,
}

impl RunningApp {
    /// Fails compute node `i`: it stops claiming work, its workers observe
    /// cancellation, and the master is notified (failure detection).
    pub fn kill_compute_node(&self, i: usize) {
        self.managers[i].kill();
        let _ = self.rt.control_tx.send(ControlMsg::NodeFailed {
            node: self.managers[i].id,
        });
    }

    /// Brings compute node `i` back as a fresh idle node.
    pub fn restart_compute_node(&self, i: usize) {
        self.managers[i].restart();
    }

    /// Crashes the application master, losing its in-memory state, then
    /// recovers it by replaying the work bags. Compute nodes keep working
    /// throughout (paper §4.4: "Neither compute nodes nor storage nodes
    /// need to be aware of an application master failure").
    pub fn crash_and_recover_master(&mut self) -> Result<(), EngineError> {
        if self.finished.is_some() {
            return Ok(()); // Already completed: nothing to crash.
        }
        let _ = self.rt.control_tx.send(ControlMsg::CrashMaster);
        let handle = self.master.take().ok_or(EngineError::MasterGone)?;
        let rx = match handle.join().map_err(|_| EngineError::MasterGone)?? {
            MasterOutcome::Crashed(rx) => rx,
            MasterOutcome::Completed(report) => {
                // The app finished before the crash landed, and the
                // master has stopped the workers; nothing to recover.
                // Park the report where wait() will find it.
                self.finished = Some(report);
                return Ok(());
            }
        };
        // The recovered master inherits the same control receiver, so every
        // worker's existing sender endpoint keeps working.
        let master = Master::recover(self.rt.clone(), rx)?;
        self.master = Some(
            std::thread::Builder::new()
                .name("app-master-recovered".into())
                .spawn(move || master.run())
                .expect("spawning recovered master"),
        );
        self.recoveries += 1;
        Ok(())
    }

    /// Waits for completion and returns the run report.
    pub fn wait(mut self) -> Result<AppReport, EngineError> {
        let outcome = if let Some(report) = self.finished.take() {
            Ok(MasterOutcome::Completed(report))
        } else {
            let handle = self.master.take().ok_or(EngineError::MasterGone)?;
            handle.join().map_err(|_| EngineError::MasterGone)?
        };
        // Whatever happened, release the workers.
        self.rt.kill.shutdown_all();
        for m in self.managers.drain(..) {
            m.join();
        }
        self.rt.endpoint.shutdown();
        match outcome? {
            MasterOutcome::Completed(report) => Ok(AppReport {
                elapsed: self.start.elapsed(),
                master_recoveries: self.recoveries,
                ..report
            }),
            MasterOutcome::Crashed(_) => Err(EngineError::MasterGone),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_format::CodecError;

    /// An app whose graph is `n` unconsumed sources, over two in-memory
    /// storage nodes, with small chunks so a fill seals many.
    fn sources(n: usize, config: HurricaneConfig) -> (HurricaneApp, Vec<GraphBag>) {
        let mut g = AppGraph::builder();
        let bags = (0..n).map(|i| g.source(format!("s{i}"))).collect();
        let cluster = StorageCluster::new(2, ClusterConfig::default());
        let config = HurricaneConfig {
            chunk_size: 1024,
            ..config
        };
        (
            HurricaneApp::deploy(g.build().unwrap(), cluster, config).unwrap(),
            bags,
        )
    }

    /// Today's fill: one writer, one `write_record` per record.
    fn sequential_fill<T: Record>(app: &HurricaneApp, bag: GraphBag, records: &[T]) -> u64 {
        let mut w = app.source_writer(bag).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.flush().unwrap();
        w.bytes_written()
    }

    fn sorted_chunks(app: &HurricaneApp, bag: GraphBag) -> Vec<Vec<u8>> {
        let mut chunks: Vec<Vec<u8>> = app
            .read_chunks(bag)
            .unwrap()
            .iter()
            .map(|c| c.bytes().to_vec())
            .collect();
        chunks.sort();
        chunks
    }

    /// Keys of mixed encoded lengths, enough for several runs and a
    /// short last one.
    fn keys() -> Vec<u64> {
        (0..(3 * FILL_RUN + 123) as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64))
            .collect()
    }

    #[test]
    fn a_multi_lane_fill_holds_the_sequential_fills_records_and_bytes() {
        let (app, bags) = sources(2, HurricaneConfig::default());
        let keys = keys();
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k as u32, (k >> 32) as u32)).collect();
        for lanes in [2, 3] {
            let (app, bags) = sources(4, HurricaneConfig::default());
            let bytes = app
                .fill_on_lanes(bags[0], keys.iter().copied(), lanes)
                .unwrap();
            assert_eq!(bytes, sequential_fill(&app, bags[1], &keys));
            let mut got: Vec<u64> = app.read_records(bags[0]).unwrap();
            got.sort_unstable();
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(got, want, "{lanes} lanes");
            // Each lane seals its own last chunk: the lanes really ran.
            let chunks = app.read_chunks(bags[0]).unwrap().len();
            assert!(chunks > app.read_chunks(bags[1]).unwrap().len());

            let bytes = app
                .fill_on_lanes(bags[2], pairs.iter().copied(), lanes)
                .unwrap();
            assert_eq!(bytes, sequential_fill(&app, bags[3], &pairs));
            let mut got: Vec<(u32, u32)> = app.read_records(bags[2]).unwrap();
            got.sort_unstable();
            let mut want = pairs.clone();
            want.sort_unstable();
            assert_eq!(got, want, "{lanes} lanes");
        }
        // Input under one run starts no lane: the same chunks as today.
        let short = &keys[..FILL_RUN - 1];
        app.fill_on_lanes(bags[0], short.iter().copied(), 3)
            .unwrap();
        sequential_fill(&app, bags[1], short);
        assert_eq!(sorted_chunks(&app, bags[0]), sorted_chunks(&app, bags[1]));
    }

    #[test]
    fn a_one_lane_config_fills_todays_chunks() {
        let config = HurricaneConfig {
            compute_nodes: 1,
            worker_slots: 1,
            ..Default::default()
        };
        let (app, bags) = sources(2, config);
        let keys = keys();
        let bytes = app.fill_source(bags[0], keys.iter().copied()).unwrap();
        assert_eq!(bytes, sequential_fill(&app, bags[1], &keys));
        assert_eq!(sorted_chunks(&app, bags[0]), sorted_chunks(&app, bags[1]));
    }

    #[test]
    fn an_oversized_record_fails_the_fill_on_any_lane() {
        // With three lanes, run 1 goes to the second helper and run 2 to
        // the caller: a helper's failure and the caller's both surface.
        for lanes in [1, 3] {
            for run in [1, 2] {
                let (app, bags) = sources(1, HurricaneConfig::default());
                let mut records = vec!["short".to_string(); 5 * FILL_RUN];
                records[run * FILL_RUN + 5] = "x".repeat(2000);
                let err = app.fill_on_lanes(bags[0], records, lanes).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EngineError::Codec(CodecError::RecordTooLarge {
                            record: 2002,
                            chunk: 1024
                        })
                    ),
                    "{lanes} lanes, run {run}: {err}"
                );
            }
        }
    }
}
