//! Runtime configuration.

use std::path::PathBuf;
use std::time::Duration;

/// Tunables for a Hurricane deployment.
///
/// Defaults are scaled for in-process, laptop-scale execution: the paper's
/// 4 MB chunks and 2-second clone interval become 64 KB and 50 ms so tests
/// and examples exercise the same code paths in milliseconds. The
/// benchmark harness overrides these to paper values where an experiment
/// depends on them.
#[derive(Debug, Clone)]
pub struct HurricaneConfig {
    /// Number of compute nodes (task managers) to run.
    pub compute_nodes: usize,
    /// Worker slots per compute node (the paper's machines run one worker
    /// per core; workers may be multi-threaded, ours are single-threaded).
    pub worker_slots: usize,
    /// Chunk capacity in bytes (paper default: 4 MB).
    pub chunk_size: usize,
    /// Batch-sampling factor `b`: outstanding storage requests per
    /// consumer (paper picks 10).
    pub batch_factor: usize,
    /// Minimum spacing between clone requests from one worker (paper: 2 s).
    pub clone_interval: Duration,
    /// Maximum instances (original + clones) per task. The paper clones
    /// until a task "runs on every compute node"; `None` uses the number
    /// of compute nodes.
    pub max_clones_per_task: Option<usize>,
    /// Modeled I/O bandwidth in bytes/s used by the cloning heuristic to
    /// estimate `T_IO` (reading remaining state + merging outputs).
    pub io_bandwidth: f64,
    /// Do not clone when fewer than this many chunks remain in the input:
    /// the master's cheap proxy for "too close to completion".
    pub min_remaining_chunks_to_clone: u64,
    /// Disable cloning entirely (the paper's HurricaneNC configuration).
    pub cloning_enabled: bool,
    /// Master poll period for the done bag / control messages.
    pub master_poll: Duration,
    /// Who runs the storage-node side of the data plane. Every bag
    /// client speaks the same storage protocol (envelopes, `(client,
    /// seq)` dedup, replica fan-out — `hurricane_storage::rpc`); this
    /// flag only picks the transport under it. `true`: per-node server
    /// threads behind in-process channels, so the prefetcher's probes
    /// and a writer's replica acks genuinely overlap. `false` (the
    /// default): each request is served on the caller's own thread
    /// before `send` returns — no thread hop, nothing in flight.
    pub storage_rpc: bool,
    /// Dispatch threads per storage-node server. Inert on the inline
    /// plane (`storage_rpc` off), which has no server threads.
    pub rpc_dispatch_threads: usize,
    /// Insert-coalescing window (chunks) for task writers, on either
    /// plane:
    /// buckets from successive batch flushes stage on the port and go out
    /// as one merged envelope per (node, bag) once this many chunks are
    /// staged. `0` disables coalescing (every batch call flushes). A
    /// nonzero window below two write batches cannot merge anything, so
    /// the engine clamps the effective window to `2 * batch_factor` (see
    /// [`HurricaneConfig::effective_coalesce_window`]). Only task-output
    /// writers coalesce — work-bag scheduling traffic stays
    /// call-synchronous so claims are immediately visible.
    pub rpc_coalesce_chunks: usize,
    /// Per-connection writer credit: how many requests may be on the
    /// wire unanswered before a writer blocks (flow control; a stalled
    /// storage node bounds its lane at this many envelopes instead of
    /// accumulating unbounded queue). Inert on the inline plane, where
    /// nothing is ever on the wire unanswered.
    pub rpc_writer_credit: usize,
    /// Client-side request timeout: how long a caller waits for one
    /// reply before abandoning the request (its outcome then unknown).
    /// The per-connection credit-acquire timeout is aligned with this
    /// automatically when ports are minted, so flow control never fails
    /// faster than a request wait would. Inert on the inline plane: a
    /// reply exists by the time the request is sent.
    pub rpc_request_timeout: Duration,
    /// Total attempts per request: `1` (the default) fails fast on
    /// timeout; higher values retransmit a timed-out request under its
    /// original sequence number, which the server-side dedup window
    /// resolves to at most one execution (see
    /// `hurricane_storage::rpc::RetryPolicy`). Inert on the inline
    /// plane, which never times out.
    pub rpc_retry_attempts: u32,
    /// Root directory for durable segment logs (`SEGMENT.md`). `None`
    /// (the default) keeps storage nodes purely in-memory; when set,
    /// every storage node journals its bag contents into
    /// `<data_dir>/node-<i>/` and recovers them by log scan on startup.
    pub data_dir: Option<PathBuf>,
    /// Resident-memory budget per durable storage node, in bytes. When
    /// the bytes held in memory exceed this threshold, cold bags are
    /// spilled back to their segment logs and re-read on demand. Only
    /// meaningful when `data_dir` is set; the default (`u64::MAX`)
    /// keeps everything resident.
    pub spill_threshold_bytes: u64,
    /// Memory budget, in bytes, for one merge output's accumulator state
    /// (the keyed-merge table). When the estimated residency crosses the
    /// budget the table drains into sorted scratch runs on the storage
    /// tier and the merge re-folds them in additional rounds — see the
    /// spill contract in `merges`. Output bytes are identical at any
    /// setting; only memory/IO trade off. The default (`u64::MAX`)
    /// never spills.
    pub merge_memory_budget: u64,
    /// Worker threads a merge task may spread its output indices across
    /// (see `merges::merge_outputs`). Outputs of one merge are
    /// independent, so they scale embarrassingly; `1` runs them
    /// sequentially on the calling worker (the pre-parallel behavior),
    /// and the default uses every available core. Output *content* is
    /// identical at any setting — only wall-clock changes.
    pub merge_parallelism: usize,
    /// Deterministic seed for placement permutations and tie-breaking.
    pub seed: u64,
}

impl Default for HurricaneConfig {
    fn default() -> Self {
        Self {
            compute_nodes: 4,
            worker_slots: 2,
            chunk_size: 64 * 1024,
            batch_factor: 10,
            clone_interval: Duration::from_millis(50),
            max_clones_per_task: None,
            io_bandwidth: 4.0e9,
            min_remaining_chunks_to_clone: 4,
            cloning_enabled: true,
            master_poll: Duration::from_millis(2),
            storage_rpc: false,
            rpc_dispatch_threads: 2,
            // Nonzero = coalescing on; the effective window is clamped
            // to at least two write batches whatever batch_factor is
            // (see effective_coalesce_window), so this default tracks
            // batch_factor rather than duplicating its value.
            rpc_coalesce_chunks: 1,
            rpc_writer_credit: hurricane_storage::rpc::DEFAULT_WRITER_CREDIT,
            rpc_request_timeout: hurricane_storage::rpc::DEFAULT_REQUEST_TIMEOUT,
            rpc_retry_attempts: 1,
            data_dir: None,
            spill_threshold_bytes: u64::MAX,
            merge_memory_budget: u64::MAX,
            merge_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: 0xD1CE,
        }
    }
}

impl HurricaneConfig {
    /// The effective per-task instance cap.
    pub fn instance_cap(&self) -> usize {
        self.max_clones_per_task
            .unwrap_or(self.compute_nodes)
            .max(1)
    }

    /// Returns a copy with cloning disabled (HurricaneNC, paper §5.2).
    pub fn without_cloning(mut self) -> Self {
        self.cloning_enabled = false;
        self
    }

    /// Returns a copy with the storage nodes served by their own threads
    /// (the channel plane) instead of inline on each caller's.
    pub fn with_storage_rpc(mut self) -> Self {
        self.storage_rpc = true;
        self
    }

    /// Returns a copy with durable segment logs rooted at `dir`.
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Returns a copy with the per-output merge memory budget set.
    pub fn with_merge_memory_budget(mut self, bytes: u64) -> Self {
        self.merge_memory_budget = bytes;
        self
    }

    /// Returns a copy with the deployment environment's memory knobs
    /// applied: `HURRICANE_MERGE_MEMORY_BUDGET` overrides
    /// [`merge_memory_budget`](Self::merge_memory_budget) and
    /// `HURRICANE_SPILL_THRESHOLD_BYTES` overrides
    /// [`spill_threshold_bytes`](Self::spill_threshold_bytes) (both in
    /// bytes). Unset or unparsable variables leave the config untouched.
    /// Harnesses that build their configs in code route through this so
    /// one environment can squeeze a whole suite under a tiny budget —
    /// CI's low-memory stress leg runs the runtime tests exactly this
    /// way.
    pub fn with_env_overrides(mut self) -> Self {
        fn read(var: &str) -> Option<u64> {
            std::env::var(var).ok()?.parse().ok()
        }
        if let Some(v) = read("HURRICANE_MERGE_MEMORY_BUDGET") {
            self.merge_memory_budget = v;
        }
        if let Some(v) = read("HURRICANE_SPILL_THRESHOLD_BYTES") {
            self.spill_threshold_bytes = v;
        }
        self
    }

    /// The storage durability settings implied by this config: `None`
    /// when [`data_dir`](Self::data_dir) is unset, otherwise a
    /// [`DurabilityConfig`](hurricane_storage::DurabilityConfig) whose
    /// segment store is rooted at the directory (created if absent).
    pub fn durability(&self) -> std::io::Result<Option<hurricane_storage::DurabilityConfig>> {
        let Some(dir) = &self.data_dir else {
            return Ok(None);
        };
        Ok(Some(hurricane_storage::DurabilityConfig {
            store: hurricane_storage::SegmentStore::disk(dir)?,
            spill_threshold_bytes: self.spill_threshold_bytes,
        }))
    }

    /// The insert-coalescing window task writers actually use: `0` when
    /// coalescing is disabled, otherwise at least two write batches — a
    /// smaller window could never merge across batches, silently
    /// degenerating to the eager path when `batch_factor` is raised.
    pub fn effective_coalesce_window(&self) -> usize {
        if self.rpc_coalesce_chunks == 0 {
            0
        } else {
            self.rpc_coalesce_chunks.max(2 * self.batch_factor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = HurricaneConfig::default();
        assert!(c.compute_nodes > 0);
        assert!(c.worker_slots > 0);
        assert!(c.chunk_size > 0);
        assert_eq!(c.instance_cap(), c.compute_nodes);
        assert!(c.cloning_enabled);
        assert_eq!(
            c.rpc_request_timeout,
            hurricane_storage::rpc::DEFAULT_REQUEST_TIMEOUT
        );
        assert_eq!(c.rpc_retry_attempts, 1);
    }

    #[test]
    fn cap_override() {
        let c = HurricaneConfig {
            max_clones_per_task: Some(7),
            ..Default::default()
        };
        assert_eq!(c.instance_cap(), 7);
    }

    #[test]
    fn without_cloning_flips_flag() {
        let c = HurricaneConfig::default().without_cloning();
        assert!(!c.cloning_enabled);
    }

    #[test]
    fn env_overrides_apply_and_default_to_identity() {
        // Env mutation is process-global: keep both halves in one test
        // (cargo runs tests concurrently) and restore before returning.
        let c = HurricaneConfig::default().with_env_overrides();
        assert_eq!(c.merge_memory_budget, u64::MAX, "unset vars must no-op");
        assert_eq!(c.spill_threshold_bytes, u64::MAX);

        std::env::set_var("HURRICANE_MERGE_MEMORY_BUDGET", "512");
        std::env::set_var("HURRICANE_SPILL_THRESHOLD_BYTES", "4096");
        let c = HurricaneConfig::default().with_env_overrides();
        std::env::remove_var("HURRICANE_MERGE_MEMORY_BUDGET");
        std::env::remove_var("HURRICANE_SPILL_THRESHOLD_BYTES");
        assert_eq!(c.merge_memory_budget, 512);
        assert_eq!(c.spill_threshold_bytes, 4096);
    }

    #[test]
    fn durability_follows_data_dir() {
        let c = HurricaneConfig::default();
        assert!(c.data_dir.is_none());
        assert!(c.durability().unwrap().is_none());

        let dir = std::env::temp_dir().join(format!("hurricane-cfg-test-{}", std::process::id()));
        let c = c.with_data_dir(&dir);
        let d = c.durability().unwrap().expect("durability config");
        assert_eq!(d.spill_threshold_bytes, u64::MAX);
        std::fs::remove_dir_all(&dir).ok();
    }
}
