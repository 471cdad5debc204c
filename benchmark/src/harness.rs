//! The load model every workload shares: a closed loop with one client.
//! A single harness thread runs one job at a time, and starts the next
//! only after the previous one finished and its output was checked.

use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{self, ratio};
use crate::sys;
use crate::trace::{self, Tracer};
use hurricane_core::{AppGraph, AppReport, EngineError, HurricaneApp, HurricaneConfig};
use hurricane_storage::{ClusterConfig, StorageCluster};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Storage nodes of every engine job and of the TCP pump.
pub const STORAGE_NODES: usize = 2;
/// Chunk capacity of every workload.
pub const CHUNK_SIZE: usize = 64 * 1024;
/// Jobs run and checked, but not timed, before the timed jobs.
pub const WARMUP_JOBS: usize = 3;
/// Inputs are generated this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// A job (or a set-up) is *quiet* when the hypervisor gave at most this
/// share of the CPU time its interval offered (`duration x nproc`) to
/// other guests. Only quiet jobs are timed: on a shared host a stolen
/// job measures the neighbours, at up to five times the quiet time.
pub const QUIET_STEAL_SHARE: f64 = 0.03;
/// Fewest samples a median is taken over. A run that ends with fewer
/// quiet jobs reports its least-stolen ones instead.
pub const MIN_QUIET_JOBS: usize = 5;
/// A time-boxed run waits for quiet jobs for at most this many times its
/// `--seconds`, stolen jobs included. No more, because the host can steal
/// for an hour on end, and every run of a benchmark session waiting that
/// much must still fit the session's time limit.
pub const WAIT_FACTOR: f64 = 1.5;
/// Extra jobs with cloning disabled in a traced run.
const NO_CLONING_JOBS: usize = 5;
/// Extra jobs on empty sources in a traced run.
const EMPTY_JOBS: usize = 3;

/// Which flavour of a workload's job to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as described.
    Normal,
    /// Same job with `HurricaneConfig::without_cloning()`.
    NoCloning,
    /// Same graph on empty sources: the control-plane floor.
    EmptyInput,
}

/// Which data plane and durability an engine workload runs on.
#[derive(Debug, Clone)]
pub struct EngineEnv {
    /// `Some(dir)`: channel RPC plane, journaling under a fresh
    /// sub-directory of `dir` per job. `None`: the default plane, in
    /// memory.
    pub rpc_durable_root: Option<PathBuf>,
    jobs_started: Cell<u64>,
}

impl EngineEnv {
    /// The default plane, in memory.
    pub fn in_memory() -> Self {
        Self {
            rpc_durable_root: None,
            jobs_started: Cell::new(0),
        }
    }

    /// Channel RPC plane with segment logs under `root`.
    pub fn rpc_durable(root: PathBuf) -> Self {
        Self {
            rpc_durable_root: Some(root),
            jobs_started: Cell::new(0),
        }
    }

    /// A directory no earlier job of this process journaled into.
    fn next_data_dir(&self) -> Option<PathBuf> {
        let root = self.rpc_durable_root.as_ref()?;
        let n = self.jobs_started.get();
        self.jobs_started.set(n + 1);
        Some(root.join(format!("job-{n}")))
    }
}

/// The engine under test, pinned to the machine this benchmark is sized
/// for (2 cores). Every field not named here is the engine's default, so
/// a changed default shows up as a changed number. Plane and durability
/// go through builder methods only.
pub fn engine_config(variant: Variant, data_dir: Option<&Path>) -> HurricaneConfig {
    let mut cfg = HurricaneConfig {
        compute_nodes: 2,
        worker_slots: 1,
        merge_parallelism: 2,
        chunk_size: CHUNK_SIZE,
        clone_interval: Duration::from_millis(20),
        master_poll: Duration::from_millis(1),
        ..Default::default()
    };
    if let Some(dir) = data_dir {
        cfg = cfg.with_storage_rpc().with_data_dir(dir);
    }
    if variant == Variant::NoCloning {
        cfg = cfg.without_cloning();
    }
    cfg
}

/// `StorageNode::stats()` summed over a job's nodes, plus what the
/// nodes held when the job ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCounters {
    /// Chunks appended.
    pub inserts: u64,
    /// Chunks served.
    pub removes: u64,
    /// Batched operations served.
    pub batch_ops: u64,
    /// Bytes appended.
    pub bytes_in: u64,
    /// Bytes served.
    pub bytes_out: u64,
    /// Remove probes that found nothing.
    pub empty_probes: u64,
    /// `StorageNode::resident_bytes()` at job end.
    pub resident_bytes: u64,
    /// Bytes under the job's data directory at job end.
    pub journal_bytes: u64,
}

impl StorageCounters {
    /// Adds one node's counters.
    pub fn absorb(&mut self, node: &hurricane_storage::StorageNode) {
        let s = node.stats();
        self.inserts += s.inserts.get();
        self.removes += s.removes.get();
        self.batch_ops += s.batch_ops.get();
        self.bytes_in += s.bytes_in.get();
        self.bytes_out += s.bytes_out.get();
        self.empty_probes += s.empty_probes.get();
        self.resident_bytes += node.resident_bytes();
    }
}

/// What one finished, verified job measured.
#[derive(Debug, Clone, Default)]
pub struct JobSample {
    /// Wall time of the timed interval.
    pub makespan_s: f64,
    /// Process CPU time over the same interval.
    pub cpu_s: f64,
    /// CPU time the hypervisor gave to other guests over the same
    /// interval, summed over this machine's CPUs.
    pub steal_s: f64,
    /// Peak resident memory during the interval.
    pub peak_rss_mb: f64,
    /// `start()` through `wait()` (engine workloads).
    pub run_s: f64,
    /// Bytes the job wrote into its source bags.
    pub source_bytes: u64,
    /// Partition skew read off the job itself, where the input alone does
    /// not show it (join output rows, chunks per TCP node); overrides
    /// [`SetupFacts::largest_partition_share`].
    pub largest_partition_share: Option<f64>,
    /// The engine's own report (engine workloads).
    pub report: AppReport,
    /// Storage-node counters after the job.
    pub storage: StorageCounters,
    /// `BagClient::port_stats()` of the pump's client (TCP pump).
    pub port: Option<hurricane_storage::PortStats>,
    /// Per-call `insert_batch` times, microseconds (TCP pump, traced).
    pub insert_call_us: Vec<f64>,
    /// Per-call `try_remove_batch` times, microseconds (TCP pump, traced).
    pub remove_call_us: Vec<f64>,
}

impl JobSample {
    /// Share of the CPU time the job's interval offered that went to
    /// other guests of the host.
    pub fn steal_share(&self) -> f64 {
        steal_share(self.steal_s, self.makespan_s)
    }
}

/// `steal_s` over the CPU time `elapsed_s` offered on this machine.
pub fn steal_share(steal_s: f64, elapsed_s: f64) -> f64 {
    ratio(steal_s, elapsed_s * sys::nproc() as f64)
}

/// Facts about a workload's generated input, fixed at set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupFacts {
    /// Time in the `hurricane-workloads` generators.
    pub gen_s: f64,
    /// Time in the app's single-threaded reference on the same input.
    pub reference_s: f64,
    /// Input records (chunks for the TCP pump).
    pub records: u64,
    /// Share of the input in its largest region / partition / range.
    pub largest_partition_share: f64,
    /// Order-sensitive 32-bit fold of the generated input.
    pub input_checksum: u32,
}

/// One of the six workloads, set up from a seed.
pub trait Workload {
    /// Runs one job from deploy to the last sink read, checks its output
    /// against the reference outside the timed interval, and returns
    /// what it measured — or why the job counts as failed.
    fn run_job(&self, variant: Variant, tr: &mut Tracer) -> Result<JobSample, String>;

    /// Whether the job goes through `HurricaneApp` (the no-cloning and
    /// empty-input variants exist only then).
    fn has_engine(&self) -> bool {
        true
    }

    /// What set-up measured.
    fn facts(&self) -> SetupFacts;

    /// Single-layer replays of a traced run: format encode/decode,
    /// storage insert/remove, merge, static baseline.
    fn replay(&self, m: &mut Metrics) -> Result<(), String>;
}

/// Runs one engine job. The timed interval — the `job` span — covers
/// `deploy`, `fill`, `start()…wait()` and `read`; counters are collected
/// after it. `fill` returns the bytes it wrote.
pub fn engine_job<O>(
    tr: &mut Tracer,
    env: &EngineEnv,
    variant: Variant,
    graph: AppGraph,
    fill: impl FnOnce(&HurricaneApp) -> Result<u64, EngineError>,
    read: impl FnOnce(&HurricaneApp) -> Result<O, EngineError>,
) -> Result<(O, JobSample), String> {
    let data_dir = env.next_data_dir();
    let cfg = engine_config(variant, data_dir.as_deref());
    let err = |what: &str, e: EngineError| format!("{what}: {e}");

    fresh_heap();
    let (cpu0, steal0) = (sys::process_cpu_seconds(), sys::steal_seconds());
    let job = tr.enter("job");
    let span = tr.enter("core.deploy");
    let app =
        HurricaneApp::deploy_with_storage(graph, STORAGE_NODES, ClusterConfig::default(), cfg)
            .map_err(|e| err("deploy", e))?;
    tr.exit(span);
    let span = tr.enter("core.fill");
    let source_bytes = fill(&app).map_err(|e| err("fill_source", e))?;
    tr.exit(span);
    let span = tr.enter("core.run");
    let report = app
        .start()
        .and_then(|running| running.wait())
        .map_err(|e| err("run", e))?;
    let run_s = tr.exit(span);
    let span = tr.enter("core.read");
    let output = read(&app).map_err(|e| err("read_records", e))?;
    tr.exit(span);
    let makespan_s = tr.exit(job);
    let cpu_s = sys::process_cpu_seconds() - cpu0;
    let steal_s = sys::steal_seconds() - steal0;
    let peak_rss_mb = sys::peak_rss_mb();

    let mut storage = cluster_counters(app.cluster());
    drop(app);
    if let Some(dir) = &data_dir {
        storage.journal_bytes = sys::dir_bytes(dir);
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let sample = JobSample {
        makespan_s,
        cpu_s,
        steal_s,
        peak_rss_mb,
        run_s,
        source_bytes,
        report,
        storage,
        ..Default::default()
    };
    Ok((output, sample))
}

/// Untimed, before every job: hands freed heap back to the OS and
/// restarts the peak-RSS watermark, so that each job is measured from
/// the state a fresh process would be in, whatever ran before it.
pub fn fresh_heap() {
    sys::trim_heap();
    sys::reset_peak_rss();
}

/// Counters of every node of `cluster`, summed.
pub fn cluster_counters(cluster: &StorageCluster) -> StorageCounters {
    let mut c = StorageCounters::default();
    for i in 0..cluster.num_nodes() {
        c.absorb(&cluster.node(i));
    }
    c
}

/// When the timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum RunLength {
    /// After this many timed jobs — identical on any two commits.
    Jobs(usize),
    /// After the first quiet job that ends past this many seconds of
    /// quiet jobs (at least [`MIN_QUIET_JOBS`]), as the benchmark driver
    /// asks — or, while the host keeps stealing, after [`WAIT_FACTOR`]
    /// times as long in jobs of either kind.
    Seconds(f64),
}

/// How far the timed loop has come.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    jobs: usize,
    quiet_jobs: usize,
    in_jobs: Duration,
    in_quiet_jobs: Duration,
}

impl Progress {
    fn count(&mut self, took: Duration, quiet: bool) {
        self.jobs += 1;
        self.in_jobs += took;
        if quiet {
            self.quiet_jobs += 1;
            self.in_quiet_jobs += took;
        }
    }
}

impl RunLength {
    /// Whether `1/fraction` of the run is over.
    fn done(&self, p: &Progress, fraction: u32) -> bool {
        match *self {
            RunLength::Jobs(n) => p.jobs >= n.div_ceil(fraction as usize),
            RunLength::Seconds(s) => {
                let part = s / f64::from(fraction);
                p.quiet_jobs >= MIN_QUIET_JOBS.div_ceil(fraction as usize)
                    && p.in_quiet_jobs.as_secs_f64() >= part
                    || p.in_jobs.as_secs_f64() >= WAIT_FACTOR * part
            }
        }
    }
}

/// Jobs attempted and failed, and the samples of those that passed. A
/// failed job (engine error, or output ≠ reference) is counted and
/// logged; it never contributes a time.
#[derive(Default)]
pub struct Tally {
    /// Jobs run, warm-up included.
    pub attempted: u64,
    /// Jobs that errored or produced a wrong output.
    pub failed: u64,
    /// Samples of the timed jobs that passed.
    pub samples: Vec<JobSample>,
}

impl Tally {
    /// Counts one job; keeps its sample when it passed and `timed`.
    pub fn record(&mut self, outcome: Result<JobSample, String>, timed: bool) {
        self.attempted += 1;
        match outcome {
            Ok(sample) if timed => self.samples.push(sample),
            Ok(_) => {}
            Err(why) => {
                self.failed += 1;
                eprintln!("job {} FAILED: {why}", self.attempted);
            }
        }
    }

    /// Drops the samples of stolen jobs and returns how many those were.
    /// When fewer than [`MIN_QUIET_JOBS`] were quiet, the least-stolen
    /// jobs stand in for them.
    pub fn keep_quiet(&mut self) -> usize {
        let before = self.samples.len();
        self.samples
            .sort_by(|a, b| a.steal_share().total_cmp(&b.steal_share()));
        let quiet = self
            .samples
            .partition_point(|s| s.steal_share() <= QUIET_STEAL_SHARE);
        self.samples.truncate(quiet.max(MIN_QUIET_JOBS));
        before - self.samples.len()
    }

    fn column(&self, f: impl Fn(&JobSample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn median(&self, f: impl Fn(&JobSample) -> f64) -> f64 {
        stats::median(&self.column(f))
    }
}

/// Result of a run: the counts for the result line, and its metrics.
pub struct RunOutcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// A workload that can be set up again from the same seed, timing
/// each set-up. The [`SETUP_REPS`] set-ups of a run are spread over it
/// (before the warm-up, before the timed jobs, halfway through them)
/// rather than done back to back, so that one stall of the machine
/// cannot taint the median.
pub struct Rebuilt<'a> {
    build: &'a dyn Fn() -> Box<dyn Workload>,
    current: Option<Box<dyn Workload>>,
    /// Seconds each set-up took, and its steal share.
    pub times: Vec<(f64, f64)>,
}

impl<'a> Rebuilt<'a> {
    /// Sets the workload up for the first time.
    pub fn new(build: &'a dyn Fn() -> Box<dyn Workload>) -> Self {
        let mut this = Self {
            build,
            current: None,
            times: Vec::with_capacity(SETUP_REPS),
        };
        this.again();
        this
    }

    /// Sets the workload up again: same seed, so identical inputs.
    pub fn again(&mut self) {
        // Free the previous inputs first: the process should hold one
        // input's worth of memory, not two.
        self.current = None;
        let (t, steal0) = (Instant::now(), sys::steal_seconds());
        self.current = Some((self.build)());
        let took = t.elapsed().as_secs_f64();
        let stolen = sys::steal_seconds() - steal0;
        self.times.push((took, steal_share(stolen, took)));
    }

    /// `setup_s`: the median over the quiet set-ups, or over all of
    /// them when none was quiet.
    pub fn setup_s(&self) -> f64 {
        let times = |quiet_only: bool| -> Vec<f64> {
            let kept = self.times.iter();
            kept.filter(|&&(_, share)| !quiet_only || share <= QUIET_STEAL_SHARE)
                .map(|&(took, _)| took)
                .collect()
        };
        let mut kept = times(true);
        if kept.is_empty() {
            kept = times(false);
        }
        stats::median(&kept)
    }

    /// The current copy.
    pub fn workload(&self) -> &dyn Workload {
        self.current.as_deref().expect("set up in new()")
    }
}

fn warm_up(w: &dyn Workload, tally: &mut Tally, jobs: usize) {
    let mut tr = Tracer::new(false);
    for _ in 0..jobs {
        tr.begin_job();
        tally.record(w.run_job(Variant::Normal, &mut tr), false);
    }
}

/// The untraced run: warm-up, then timed jobs; the four end-to-end
/// metrics. Time spent setting up again is not part of the run length.
pub fn run_end_to_end(
    setup: &mut Rebuilt,
    warmup: usize,
    length: RunLength,
) -> Result<RunOutcome, String> {
    let mut tally = Tally::default();
    warm_up(setup.workload(), &mut tally, warmup);
    setup.again();
    let mut tr = Tracer::new(false);
    let mut progress = Progress::default();
    while !length.done(&progress, 1) {
        if setup.times.len() < SETUP_REPS && length.done(&progress, 2) {
            setup.again();
        }
        let t = Instant::now();
        tr.begin_job();
        let outcome = setup.workload().run_job(Variant::Normal, &mut tr);
        // A failed job counts as quiet: a run of failures ends on time.
        let quiet = !matches!(&outcome, Ok(s) if s.steal_share() > QUIET_STEAL_SHARE);
        tally.record(outcome, true);
        progress.count(t.elapsed(), quiet);
    }
    if tally.samples.is_empty() {
        return Err("every timed job failed; there is nothing to report".into());
    }
    let stolen = tally.keep_quiet();
    let mut m = Metrics::new(END_TO_END);
    m.set("makespan_s", tally.median(|s| s.makespan_s));
    m.set("cpu_s", tally.median(|s| s.cpu_s));
    m.set("setup_s", setup.setup_s());
    m.set("peak_rss_mb", tally.median(|s| s.peak_rss_mb));
    let spans = stats::sorted(tally.column(|s| s.makespan_s));
    eprintln!(
        "{} timed jobs ({stolen} more set aside as stolen from), makespan median {:.4} s \
         (min {:.4}, max {:.4}), largest steal share {:.3}",
        spans.len(),
        m.get("makespan_s"),
        spans[0],
        spans[spans.len() - 1],
        tally.samples.last().map_or(0.0, JobSample::steal_share),
    );
    Ok(RunOutcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// The traced run: timed jobs alternating span recording on and off
/// (their difference is the tracing overhead), the no-cloning and
/// empty-input variants, the single-layer replays; spans go to
/// `spans_path` as JSON lines and reduce to the per-layer metrics.
pub fn run_traced(
    w: &dyn Workload,
    warmup: usize,
    length: RunLength,
    spans_path: &Path,
) -> Result<RunOutcome, String> {
    let mut tally = Tally::default();
    warm_up(w, &mut tally, warmup);

    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut progress = Progress::default();
    while !length.done(&progress, 1) {
        let record_spans = progress.jobs % 2 == 0;
        let t = Instant::now();
        tr.set_enabled(record_spans);
        tr.begin_job();
        let outcome = w.run_job(Variant::Normal, &mut tr);
        if let (Ok(s), false) = (&outcome, record_spans) {
            untraced.push(s.makespan_s);
        }
        // Only traced jobs feed the per-layer table, so that it and the
        // span file describe the same jobs.
        tally.record(outcome, record_spans);
        // The per-layer numbers are not gated: stolen jobs stay in.
        progress.count(t.elapsed(), true);
    }
    if tally.samples.is_empty() {
        return Err("every traced job failed; there is nothing to report".into());
    }
    if let Some(dir) = spans_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    trace::write_jsonl(spans_path, tr.spans())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let mut m = Metrics::new(PER_LAYER);
    let makespan_s = tally.median(|s| s.makespan_s);
    for (name, value) in span_metrics(tr.spans()) {
        m.set(name, value);
    }
    if !untraced.is_empty() {
        let base = stats::median(&untraced);
        m.set("trace_overhead_share", (makespan_s - base) / base);
    }
    let tail_input = stats::sorted(tally.column(|s| s.makespan_s));
    let (tail_pct, tail_s) = stats::tail(&tail_input);
    m.set("core.makespan_tail_s", tail_s);
    m.set("core.makespan_tail_pct", tail_pct);
    m.set("core.jobs", tally.samples.len() as f64);
    counter_metrics(&mut m, &tally);

    let facts = w.facts();
    m.set("workloads.gen_s", facts.gen_s);
    m.set("workloads.records", facts.records as f64);
    m.set(
        "workloads.input_mb",
        tally.median(|s| s.source_bytes as f64) / 1e6,
    );
    let measured_share = tally.samples.iter().find_map(|s| s.largest_partition_share);
    m.set(
        "workloads.largest_partition_share",
        measured_share.unwrap_or(facts.largest_partition_share),
    );
    m.set("workloads.input_checksum", f64::from(facts.input_checksum));
    m.set("apps.reference_s", facts.reference_s);
    m.set(
        "apps.speedup_vs_reference",
        ratio(facts.reference_s, makespan_s),
    );

    if w.has_engine() {
        let run_s = m.get("core.run_s");
        let mut off = Tracer::new(false);
        let mut variant_median = |variant, jobs, pick: fn(&JobSample) -> f64| {
            let mut t = Tally::default();
            for _ in 0..jobs {
                off.begin_job();
                t.record(w.run_job(variant, &mut off), true);
            }
            tally.attempted += t.attempted;
            tally.failed += t.failed;
            if t.samples.is_empty() {
                0.0
            } else {
                t.median(pick)
            }
        };
        let nc_run_s = variant_median(Variant::NoCloning, NO_CLONING_JOBS, |s| s.run_s);
        m.set("core.nc_run_s", nc_run_s);
        m.set("core.clone_gain_x", ratio(nc_run_s, run_s));
        let empty_s = variant_median(Variant::EmptyInput, EMPTY_JOBS, |s| s.makespan_s);
        m.set("core.empty_job_s", empty_s);
        m.set("core.empty_job_share", ratio(empty_s, makespan_s));
    }
    w.replay(&mut m)?;
    let static_s = m.get("baseline.static_makespan_s");
    m.set("baseline.speedup_vs_static", ratio(static_s, makespan_s));
    Ok(RunOutcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// Span name and the metric its median duration is reported as.
const PHASE_SPANS: &[(&str, &str)] = &[
    ("core.deploy", "core.deploy_s"),
    ("core.fill", "core.fill_s"),
    ("core.run", "core.run_s"),
    ("core.read", "core.read_s"),
];

/// The metrics that come from spans alone: the phases present in
/// `spans` and the unattributed share of the `job` spans. `--reduce`
/// recomputes exactly these from the span file.
pub fn span_metrics(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let table = trace::reduce(spans);
    let mut out: Vec<(&'static str, f64)> = PHASE_SPANS
        .iter()
        .filter_map(|&(span, metric)| Some((metric, table.get(span)?.median_s)))
        .collect();
    out.push((
        "core.unattributed_share",
        trace::unattributed_share(spans, "job"),
    ));
    out
}

/// Medians of the per-job counters: `AppReport`, `StorageNode::stats()`,
/// `BagClient::port_stats()`, journal and resident bytes.
fn counter_metrics(m: &mut Metrics, tally: &Tally) {
    let med = |f: fn(&JobSample) -> f64| tally.median(f);
    let requests = med(|s| s.report.clone_requests as f64);
    let rejections = med(|s| s.report.clone_rejections as f64);
    m.set("core.clones", med(|s| f64::from(s.report.total_clones)));
    m.set("core.clone_requests", requests);
    m.set("core.clone_rejections", rejections);
    m.set(
        "core.clone_accept_ratio",
        ratio(requests - rejections, requests),
    );
    m.set("core.merges_run", med(|s| f64::from(s.report.merges_run)));
    // A restart is a fault; the benchmark injects none, so the worst job
    // is reported, not the median.
    let restarts = tally.samples.iter().map(|s| s.report.restarts).max();
    m.set("core.restarts", f64::from(restarts.unwrap_or(0)));

    let (inserts, removes) = (
        med(|s| s.storage.inserts as f64),
        med(|s| s.storage.removes as f64),
    );
    let batch_ops = med(|s| s.storage.batch_ops as f64);
    let empty = med(|s| s.storage.empty_probes as f64);
    let bytes_in = med(|s| s.storage.bytes_in as f64);
    let journal = med(|s| s.storage.journal_bytes as f64);
    m.set("storage.inserts", inserts);
    m.set("storage.removes", removes);
    m.set("storage.batch_ops", batch_ops);
    m.set("storage.bytes_in_mb", bytes_in / 1e6);
    m.set(
        "storage.bytes_out_mb",
        med(|s| s.storage.bytes_out as f64) / 1e6,
    );
    m.set("storage.empty_probes", empty);
    m.set("storage.empty_probe_ratio", ratio(empty, removes + empty));
    m.set(
        "storage.chunks_per_batch_op",
        ratio(inserts + removes, batch_ops),
    );
    m.set("storage.journal_mb", journal / 1e6);
    m.set("storage.journal_amplification", ratio(journal, bytes_in));
    m.set(
        "storage.resident_mb",
        med(|s| s.storage.resident_bytes as f64) / 1e6,
    );

    if tally.samples.iter().all(|s| s.port.is_some()) {
        let port = |f: fn(&hurricane_storage::PortStats) -> u64| {
            tally.median(|s| f(s.port.as_ref().expect("checked above")) as f64) as u64
        };
        let medians = hurricane_storage::PortStats {
            insert_envelopes: port(|p| p.insert_envelopes),
            staged_chunks: port(|p| p.staged_chunks),
            flushes: port(|p| p.flushes),
        };
        // Node-side inserts count every replica, as envelopes do.
        set_port_metrics(m, &medians, inserts);
    }
    // The TCP pump times its own calls. Per chunk pumped they are what
    // `storage_replay` measures for the engine workloads.
    for (name, calls) in [
        (
            "insert",
            (|s| &s.insert_call_us) as fn(&JobSample) -> &Vec<f64>,
        ),
        ("remove", |s| &s.remove_call_us),
    ] {
        let all = stats::sorted(tally.samples.iter().flat_map(calls).copied().collect());
        if all.is_empty() {
            continue;
        }
        let per_job = tally.median(|s| calls(s).iter().sum());
        m.set(
            &format!("storage.{name}_us_per_chunk"),
            ratio(per_job, removes),
        );
        m.set(
            &format!("storage.{name}_batch_p50_us"),
            stats::percentile(&all, 50.0),
        );
        m.set(
            &format!("storage.{name}_batch_p99_us"),
            stats::percentile(&all, 99.0),
        );
    }
}

/// The `BagClient::port_stats()` metrics of a client that sent
/// `chunks_sent` chunks (replicas included).
pub fn set_port_metrics(m: &mut Metrics, port: &hurricane_storage::PortStats, chunks_sent: f64) {
    let envelopes = port.insert_envelopes as f64;
    m.set("storage.insert_envelopes", envelopes);
    m.set("storage.staged_chunks", port.staged_chunks as f64);
    m.set("storage.flushes", port.flushes as f64);
    m.set("storage.chunks_per_envelope", ratio(chunks_sent, envelopes));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(makespan_s: f64, steal_share: f64) -> JobSample {
        JobSample {
            makespan_s,
            steal_s: steal_share * makespan_s * sys::nproc() as f64,
            ..Default::default()
        }
    }

    #[test]
    fn stolen_jobs_are_set_aside() {
        let mut tally = Tally::default();
        let jobs = [
            (1.0, 0.0),
            (5.0, 0.4),
            (1.1, 0.01),
            (0.9, 0.0),
            (3.0, 0.2),
            (1.2, 0.02),
            (0.8, 0.025),
        ];
        for (makespan_s, share) in jobs {
            tally.record(Ok(job(makespan_s, share)), true);
        }
        assert_eq!(tally.keep_quiet(), 2);
        assert_eq!(tally.attempted, 7);
        assert_eq!(tally.median(|s| s.makespan_s), 1.0);
    }

    #[test]
    fn least_stolen_jobs_stand_in_when_too_few_were_quiet() {
        let mut tally = Tally::default();
        for hundredths in [50, 0, 10, 40, 20, 60, 30] {
            let share = f64::from(hundredths) / 100.0;
            tally.record(Ok(job(1.0 + share, share)), true);
        }
        assert_eq!(tally.keep_quiet(), 7 - MIN_QUIET_JOBS);
        assert_eq!(tally.column(|s| s.makespan_s), [1.0, 1.1, 1.2, 1.3, 1.4]);
    }

    #[test]
    fn a_time_boxed_run_waits_for_quiet_jobs_but_not_for_ever() {
        let length = RunLength::Seconds(10.0);
        let mut p = Progress::default();
        for _ in 0..9 {
            p.count(Duration::from_secs(1), true);
        }
        assert!(!length.done(&p, 1) && length.done(&p, 2));
        p.count(Duration::from_secs(1), true);
        assert!(length.done(&p, 1));

        let mut stolen = Progress::default();
        for _ in 0..14 {
            stolen.count(Duration::from_secs(1), false);
        }
        assert!(!length.done(&stolen, 1));
        stolen.count(Duration::from_secs(1), false);
        assert!(length.done(&stolen, 1));

        let fixed = RunLength::Jobs(4);
        assert!(fixed.done(&stolen, 1) && !fixed.done(&Progress::default(), 1));
    }
}
