//! The cloning heuristic (paper §4.2, Eq. 2).
//!
//! Hurricane clones a task only when cloning is expected to shorten its
//! completion. With `k` current instances, expected remaining time `T`
//! without a new clone, and `T_IO` the overhead the clone introduces
//! (loading task state, merging its output), adding a clone yields
//! `T_C = k/(k+1) · T + T_IO`, so cloning pays off iff
//!
//! ```text
//! T > (k + 1) · T_IO            (Eq. 2)
//! ```
//!
//! Both sides are seconds, and in the threaded engine both are seconds
//! *this job measured* — no modeled bandwidth enters. Who measures what:
//!
//! * `T = remaining_bytes / (k · r)`. The master samples the inputs the
//!   task *consumes* for `remaining_bytes` — the only work a clone can
//!   share; inputs read by snapshot never drain and are not work. The
//!   requesting worker reports, with every request, the bytes it has
//!   taken from those inputs and the time it has spent taking them, so
//!   `r = taken_bytes / (busy − startup)` is its own per-instance drain
//!   rate, known on its first request.
//! * `T_IO = startup + reconcile`. `startup` is the requester's time
//!   from unit start to its first chunk: opening ports, loading snapshot
//!   inputs, allocating tables — exactly what a clone repeats before it
//!   shares any work. `reconcile` is zero for a task without a merge
//!   (its clones write straight into the shared outputs); otherwise it
//!   is what the master has seen this job's merges over more than one
//!   partial take (`DoneRecord::elapsed_us`).
//! * **Cold start.** Until the job has run one such merge, `reconcile`
//!   is taken to be the requester's own `startup`: reconciling a partial
//!   is at least one more pass over state-sized data — the paper's "two
//!   times ... (for input and output)" applied to a measured time
//!   instead of a modeled bandwidth. Its stated limit: a task that
//!   aggregates and only then emits has written nothing when it asks, so
//!   the size of its partial can be learned but not predicted; when its
//!   start-up is cheap and its merge is not, the clones granted before
//!   the job's first cloned merge completes are optimistic, and every
//!   later request is held to the merges those clones caused. A worker
//!   asks at its first chunk, so when a job's stages run one after the
//!   other the optimistic clone goes to its first stage with a merge: on
//!   PageRank that is `init`, within a millisecond of its start, and
//!   every `iter.*` request is then charged what merging `init`'s
//!   partials cost. Its CPU cost is small: on `pagerank_rmat` (2 × 1
//!   slots, one `init` clone per job) `cpu_s` read 2% below the parent's,
//!   where the first request came a full `clone_interval` in and `init`
//!   was not cloned (10 alternating pairs, 6 lower).
//!
//! Anything unmeasured refuses: no bytes taken, no time spent taking
//! them, or a non-finite side means "not yet", never "unbounded, so
//! clone". This module is pure and shared by the threaded runtime and
//! the discrete-event simulator, which derives both times from its own
//! spec.

use std::time::Duration;

/// The master does not clone a task with fewer than this many chunks
/// left in the inputs it consumes: a clone claims whole chunks, and with
/// a measured overhead of zero (a merge-less task that starts at once)
/// Eq. 2 alone would grant a clone with nothing left for it to claim.
pub const MIN_REMAINING_CHUNKS_TO_CLONE: u64 = 4;

/// Inputs to one cloning decision: both sides of Eq. 2, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct CloneDecision {
    /// Current number of instances processing the task (k ≥ 1).
    pub instances: u32,
    /// `T`: expected remaining time with the current instances.
    pub remaining_s: f64,
    /// `T_IO`: what one more clone costs before and after it shares the
    /// remaining work (start-up plus reconciling its partial output).
    pub overhead_s: f64,
}

impl CloneDecision {
    /// Builds the decision from one request's measurements: the
    /// requester took `taken_bytes` in `busy − startup`, `k` instances
    /// drain `remaining_bytes` at `k` times that rate, and a clone costs
    /// `startup + reconcile_s`. Unmeasured inputs (nothing taken, no
    /// time spent) leave `remaining_s` infinite or NaN, which
    /// [`CloneDecision::should_clone`] refuses.
    pub fn measured(
        instances: u32,
        remaining_bytes: u64,
        taken_bytes: u64,
        busy: Duration,
        startup: Duration,
        reconcile_s: f64,
    ) -> Self {
        let rate = taken_bytes as f64 / busy.saturating_sub(startup).as_secs_f64();
        Self {
            instances,
            remaining_s: remaining_bytes as f64 / (instances as f64 * rate),
            overhead_s: startup.as_secs_f64() + reconcile_s,
        }
    }

    /// Eq. 2: clone iff `T > (k + 1) · T_IO`, with both sides measured:
    /// a NaN, infinite or negative side refuses.
    pub fn should_clone(&self) -> bool {
        self.remaining_s.is_finite()
            && self.overhead_s >= 0.0
            && self.remaining_s > (self.instances as f64 + 1.0) * self.overhead_s
    }

    /// Expected completion time if the clone is added:
    /// `T_C = k/(k+1) · T + T_IO`.
    pub fn cloned_remaining(&self) -> f64 {
        let k = self.instances as f64;
        k / (k + 1.0) * self.remaining_s + self.overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(k: u32, remaining_s: f64, overhead_s: f64) -> CloneDecision {
        CloneDecision {
            instances: k,
            remaining_s,
            overhead_s,
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn paper_worked_example() {
        // Paper §4.2: 4 clones, 10 seconds remaining; a fifth clone brings
        // completion to 8s + T_IO, so cloning helps iff T_IO < 2s.
        assert!(decision(4, 10.0, 1.99).should_clone());
        assert!(!decision(4, 10.0, 2.01).should_clone());
    }

    #[test]
    fn never_clone_empty_bag() {
        assert!(!decision(1, 0.0, 0.0).should_clone());
        let drained = CloneDecision::measured(1, 0, 1000, 10 * MS, MS, 0.0);
        assert!(!drained.should_clone());
    }

    #[test]
    fn unknown_rate_refuses() {
        // No bytes taken yet: the rate is zero, T is unbounded, and an
        // unbounded T is not evidence — however cheap the clone.
        let d = CloneDecision::measured(1, 1_000_000, 0, 10 * MS, MS, 0.0);
        assert!(d.remaining_s.is_infinite());
        assert_eq!(d.overhead_s, 0.001);
        assert!(!d.should_clone());
        // Bytes but no time to have taken them in (the request raced the
        // first chunk): the rate is unbounded, T is zero.
        let d = CloneDecision::measured(1, 1_000_000, 4096, MS, MS, 0.0);
        assert_eq!(d.remaining_s, 0.0);
        assert!(!d.should_clone());
    }

    #[test]
    fn no_information_declines() {
        // Nothing taken in no time: 0/0.
        let d = CloneDecision::measured(1, 1_000_000, 0, MS, MS, 0.0);
        assert!(d.remaining_s.is_nan());
        assert!(!d.should_clone());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(!decision(1, bad, 0.0).should_clone(), "T = {bad}");
            assert!(!decision(1, 10.0, bad).should_clone(), "T_IO = {bad}");
        }
    }

    #[test]
    fn more_clones_raise_the_bar() {
        // Same task state; at some k the heuristic must start refusing.
        // T = 10s, T_IO = 1s: Eq. 2 accepts while k + 1 < 10.
        let accepts: Vec<bool> = (1..50)
            .map(|k| decision(k, 10.0, 1.0).should_clone())
            .collect();
        assert!(accepts[0], "k=1 should clone (T=10s, T_IO=1s)");
        let first_reject = accepts.iter().position(|a| !a);
        assert_eq!(first_reject, Some(8), "k = 9: 10 > 10 is false");
        // Monotone: once it refuses, it keeps refusing for larger k.
        assert!(accepts[8..].iter().all(|a| !a));
    }

    #[test]
    fn near_completion_rejects() {
        // 10 ms left against a 10 ms clone: 0.01 > 2·0.01 is false.
        assert!(!decision(1, 0.01, 0.01).should_clone());
    }

    #[test]
    fn state_is_charged_once_to_io_time_and_never_to_remaining() {
        // 100 B taken in the 10 s after a 9.5 s start-up (loading the
        // snapshot state): r = 10 B/s, and 100 B left are T = 10 s. The
        // start-up is no part of the time the bytes were taken in ...
        let heavy = CloneDecision::measured(
            1,
            100,
            100,
            Duration::from_millis(19_500),
            Duration::from_millis(9_500),
            0.0,
        );
        assert!((heavy.remaining_s - 10.0).abs() < 1e-9);
        // ... and is charged to T_IO once, where it refuses the clone a
        // stateless task with the same rate gets.
        assert!((heavy.overhead_s - 9.5).abs() < 1e-9);
        assert!(!heavy.should_clone());
        let lean =
            CloneDecision::measured(1, 100, 100, Duration::from_secs(10), Duration::ZERO, 1.0);
        assert_eq!(lean.remaining_s, heavy.remaining_s);
        assert!(lean.should_clone());
        // k instances drain k times as fast.
        let two =
            CloneDecision::measured(2, 100, 100, Duration::from_secs(10), Duration::ZERO, 1.0);
        assert!((two.remaining_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cloned_remaining_matches_formula() {
        let d = decision(4, 10.0, 0.5);
        let tc = d.cloned_remaining();
        assert!((tc - (0.8 * 10.0 + 0.5)).abs() < 1e-9);
        assert!(d.should_clone());
        assert!(tc < d.remaining_s);
    }
}
