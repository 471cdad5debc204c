//! Application deployment and orchestration.
//!
//! [`HurricaneApp`] owns one application's physical resources: the mapping
//! from graph bags to storage bags, the three scheduling work bags, and
//! the shared control plane. `deploy → fill sources → run → read sinks`
//! is the whole lifecycle:
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
    spawn_manager, ComputeNodeHandle, ManagerDeps, RunningRegistry, SeedGen, WorkBagIds,
};
use crate::master::{CloneLogEntry, CloneVerdict, Master, MasterDeps, MasterOutcome};
use crate::task::{BagWriter, ControlMsg, KillSwitch};
use crossbeam::channel::{unbounded, Sender};
use hurricane_common::BagId;
use hurricane_format::{decode_all, Chunk, Record};
use hurricane_storage::{ClusterConfig, RpcPort, StorageCluster, StorageEndpoint};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Clone requests received / rejected.
    pub clone_requests: u64,
    /// Clone requests the master declined.
    pub clone_rejections: u64,
    /// Master recoveries performed during the run.
    pub master_recoveries: u32,
    /// Every clone request the (last) master handled, in arrival order,
    /// with the Eq. 2 inputs it was decided on and the gate that decided.
    pub clone_log: Vec<CloneLogEntry>,
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

    /// Fills a source bag from a record iterator.
    pub fn fill_source<T: Record>(
        &self,
        bag: GraphBag,
        records: impl IntoIterator<Item = T>,
    ) -> Result<u64, EngineError> {
        let mut w = self.source_writer(bag)?;
        for r in records {
            w.write_record(&r)?;
        }
        w.flush()?;
        Ok(w.bytes_written())
    }

    /// Starts the application: seals sources, spawns task managers and the
    /// master. Returns a handle for waiting and fault injection.
    pub fn start(&self) -> Result<RunningApp, EngineError> {
        let mut port = RpcPort::inline(self.cluster.clone());
        for bag in self.graph.sources() {
            port.seal_bag(self.physical_bag(bag))?;
        }
        let kill = Arc::new(KillSwitch::new());
        let registry = Arc::new(RunningRegistry::new());
        let app_done = Arc::new(AtomicBool::new(false));
        let (control_tx, control_rx) = unbounded();
        // The storage endpoint every worker and the master mint their bag
        // clients from. One protocol either way; `storage_rpc` only picks
        // who runs the node side of it — per-node server threads, or the
        // caller's own thread.
        let plane = if self.config.storage_rpc {
            StorageEndpoint::channel
        } else {
            StorageEndpoint::inline
        };
        let endpoint = Arc::new(plane(self.cluster.clone()));
        let mdeps = ManagerDeps {
            graph: self.graph.clone(),
            endpoint: endpoint.clone(),
            config: self.config.clone(),
            kill: kill.clone(),
            registry: registry.clone(),
            control_tx: control_tx.clone(),
            workbags: self.workbags,
            seeds: self.seeds.clone(),
            app_done: app_done.clone(),
        };
        let managers: Vec<ComputeNodeHandle> = (0..self.config.compute_nodes)
            .map(|i| spawn_manager(i as u32, mdeps.clone()))
            .collect();
        let master_deps = MasterDeps {
            graph: self.graph.clone(),
            endpoint,
            config: self.config.clone(),
            kill: kill.clone(),
            registry: registry.clone(),
            workbags: self.workbags,
            bag_map: self.bag_map.clone(),
            seeds: self.seeds.clone(),
            app_done: app_done.clone(),
        };
        let master = Master::new(master_deps.clone(), control_rx);
        let master_thread = std::thread::Builder::new()
            .name("app-master".into())
            .spawn(move || master.run())
            .expect("spawning master");
        Ok(RunningApp {
            managers,
            master: Some(master_thread),
            master_deps,
            control_tx,
            app_done,
            start: Instant::now(),
            recoveries: 0,
            finished: None,
        })
    }

    /// Runs the application to completion (blocking).
    pub fn run(&mut self) -> Result<AppReport, EngineError> {
        self.start()?.wait()
    }

    /// Reads every record of a bag non-destructively (typically a sink,
    /// after the run).
    pub fn read_records<T: Record>(&self, bag: GraphBag) -> Result<Vec<T>, EngineError> {
        let mut out = Vec::new();
        for c in &self.read_chunks(bag)? {
            out.extend(decode_all::<T>(c)?);
        }
        Ok(out)
    }

    /// Reads every chunk of a bag non-destructively, through an inline
    /// port over the cluster.
    pub fn read_chunks(&self, bag: GraphBag) -> Result<Vec<Chunk>, EngineError> {
        let bag = self.physical_bag(bag);
        Ok(RpcPort::inline(self.cluster.clone()).snapshot_bag(bag)?)
    }
}

/// A running application: join handle plus fault-injection hooks.
pub struct RunningApp {
    managers: Vec<ComputeNodeHandle>,
    master: Option<JoinHandle<Result<MasterOutcome, EngineError>>>,
    /// Also keeps the storage endpoint (and, on the channel plane, its
    /// server loops) alive for the run's duration; it is shut down
    /// (draining in-flight requests) once everything has joined.
    master_deps: MasterDeps,
    control_tx: Sender<ControlMsg>,
    app_done: Arc<AtomicBool>,
    start: Instant,
    recoveries: u32,
    finished: Option<AppReport>,
}

impl RunningApp {
    /// Fails compute node `i`: it stops claiming work, its workers observe
    /// cancellation, and the master is notified (failure detection).
    pub fn kill_compute_node(&self, i: usize) {
        self.managers[i].kill();
        let _ = self.control_tx.send(ControlMsg::NodeFailed {
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
        let _ = self.control_tx.send(ControlMsg::CrashMaster);
        let handle = self.master.take().ok_or(EngineError::MasterGone)?;
        let rx = match handle.join().map_err(|_| EngineError::MasterGone)?? {
            MasterOutcome::Crashed(rx) => rx,
            MasterOutcome::Completed(report) => {
                // The app finished before the crash landed; nothing to
                // recover. Park the report where wait() will find it.
                self.app_done.store(true, Ordering::Relaxed);
                self.finished = Some(report);
                return Ok(());
            }
        };
        // The recovered master inherits the same control receiver, so every
        // worker's existing sender endpoint keeps working.
        let master = Master::recover(self.master_deps.clone(), rx)?;
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
        // Whatever happened, release the managers.
        self.app_done.store(true, Ordering::Relaxed);
        self.master_deps.kill.shutdown_all();
        for m in self.managers.drain(..) {
            m.join();
        }
        self.master_deps.endpoint.shutdown();
        match outcome? {
            MasterOutcome::Completed(report) => {
                let refused = report
                    .clone_log
                    .iter()
                    .filter(|e| e.verdict != CloneVerdict::Granted)
                    .count();
                assert_eq!(
                    report.clone_rejections, refused as u64,
                    "one log entry per request"
                );
                Ok(AppReport {
                    elapsed: self.start.elapsed(),
                    master_recoveries: self.recoveries,
                    ..report
                })
            }
            MasterOutcome::Crashed(_) => Err(EngineError::MasterGone),
        }
    }
}
