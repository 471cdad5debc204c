//! Runtime configuration.

use std::path::PathBuf;
use std::time::Duration;

/// Tunables for a Hurricane deployment.
///
/// Defaults are scaled for in-process, laptop-scale execution: the paper's
/// 4 MB chunks and 2-second clone interval become 64 KB and 50 ms so tests
/// and examples exercise the same code paths in milliseconds. Every field
/// is one some test, example, binary or benchmark workload sets; what
/// nothing set is a constant next to the code that reads it (the Eq. 2
/// terms in [`crate::heuristic`], credit / timeout / retry / dispatch
/// threads in `hurricane_storage::rpc`).
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
    /// Minimum spacing between clone requests from one worker (paper: 2 s),
    /// and between the clones the master grants one task. A worker's
    /// first request does not wait for it: it goes out with the worker's
    /// first chunk.
    pub clone_interval: Duration,
    /// Disable cloning entirely (the paper's HurricaneNC configuration).
    pub cloning_enabled: bool,
    /// The longest the master waits between rounds. It is woken at once
    /// by every control message (a unit's completion, a clone request, a
    /// node failure), so this is a backstop against a lost wake-up, not a
    /// period.
    pub master_poll: Duration,
    /// Who runs the storage-node side of the data plane. Every bag
    /// client speaks the same storage protocol (envelopes, `(client,
    /// seq)` dedup, replica fan-out — `hurricane_storage::rpc`); this
    /// flag only picks the transport under it. `true`: per-node server
    /// threads behind in-process channels, so the prefetcher's probes
    /// and a writer's replica acks genuinely overlap. `false` (the
    /// default): each request is served on the caller's own thread
    /// before `send` returns — no thread hop, nothing in flight, so
    /// writer credit, the request timeout and retries are never reached.
    pub storage_rpc: bool,
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
            cloning_enabled: true,
            master_poll: Duration::from_millis(2),
            storage_rpc: false,
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
    /// The per-task instance cap (original + clones): the paper clones
    /// until a task "runs on every compute node".
    pub fn instance_cap(&self) -> usize {
        self.compute_nodes.max(1)
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

    /// Returns a copy with the deployment environment's memory knobs
    /// applied: `HURRICANE_MERGE_MEMORY_BUDGET` overrides
    /// [`merge_memory_budget`](Self::merge_memory_budget) and
    /// `HURRICANE_SPILL_THRESHOLD_BYTES` overrides
    /// [`spill_threshold_bytes`](Self::spill_threshold_bytes) (both in
    /// bytes). Unset variables leave the config untouched. Harnesses that
    /// build their configs in code route through this so one environment
    /// can squeeze a whole suite under a tiny budget — CI's low-memory
    /// stress leg runs the runtime tests exactly this way.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when one is set to
    /// something that is not a byte count: a suite meant to run squeezed
    /// must not run unsqueezed and pass.
    pub fn with_env_overrides(mut self) -> Self {
        fn read(var: &str) -> Option<u64> {
            let value = std::env::var_os(var)?;
            let bytes = value.to_str().and_then(|v| v.parse().ok());
            Some(bytes.unwrap_or_else(|| panic!("{var}={value:?} is not a byte count (u64)")))
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
    }

    #[test]
    fn every_field_is_listed_here() {
        // Exhaustive on purpose: a new field does not compile until it is
        // named here, next to the count of options this config carries.
        let HurricaneConfig {
            compute_nodes: _,
            worker_slots: _,
            chunk_size: _,
            batch_factor: _,
            clone_interval: _,
            cloning_enabled: _,
            master_poll: _,
            storage_rpc: _,
            data_dir: _,
            spill_threshold_bytes: _,
            merge_memory_budget: _,
            merge_parallelism: _,
            seed: _,
        } = HurricaneConfig::default();
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

        // Set but unparsable: refused by name, not silently ignored.
        for (var, value) in [
            ("HURRICANE_MERGE_MEMORY_BUDGET", "512B"),
            ("HURRICANE_SPILL_THRESHOLD_BYTES", ""),
        ] {
            std::env::set_var(var, value);
            let refused =
                std::panic::catch_unwind(|| HurricaneConfig::default().with_env_overrides());
            std::env::remove_var(var);
            let message = *refused
                .expect_err("unparsable override must panic")
                .downcast::<String>()
                .expect("panic message");
            assert!(
                message.contains(var) && message.contains(&format!("{value:?}")),
                "{message}"
            );
        }
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
