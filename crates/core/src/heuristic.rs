//! The cloning heuristic (paper §4.2, Eq. 2).
//!
//! Hurricane clones a task only when cloning is expected to shorten its
//! completion. With `k` current instances, expected remaining time `T`
//! without a new clone, and `T_IO` the extra I/O the clone introduces
//! (loading task state, merging its output), adding a clone yields
//! `T_C = k/(k+1) · T + T_IO`, so cloning pays off iff
//!
//! ```text
//! T > (k + 1) · T_IO            (Eq. 2)
//! ```
//!
//! `T` is estimated by sampling the input bag (how much data is left, how
//! fast it drains); `T_IO` is estimated as *two times* the remaining input
//! the task will read (once for input, once for output), plus once the
//! state every clone loads in full before it can start (inputs the task
//! snapshots instead of consuming), divided by I/O bandwidth. This module
//! is pure and shared by the threaded runtime and the discrete-event
//! simulator.

/// The I/O bandwidth, in bytes/s, the threaded engine's master models
/// when it estimates `T_IO` (reading remaining state + merging outputs).
/// The simulator models its own per task.
pub const MODELED_IO_BANDWIDTH: f64 = 4.0e9;

/// The master does not clone a task with fewer than this many chunks
/// left in the inputs it consumes: its cheap proxy, checked before
/// Eq. 2, for "too close to completion".
pub const MIN_REMAINING_CHUNKS_TO_CLONE: u64 = 4;

/// Inputs to one cloning decision.
#[derive(Debug, Clone, Copy)]
pub struct CloneDecision {
    /// Current number of instances processing the task (k ≥ 1).
    pub instances: u32,
    /// Bytes remaining in the input bag(s) the task consumes — the work
    /// clones share.
    pub remaining_bytes: u64,
    /// Bytes of task state a new clone loads whole before it does any
    /// work: the inputs the task reads by snapshot (PageRank's rank
    /// vector, a join's build side). They never drain, so they are no
    /// part of `remaining_bytes`; they cost a clone one read.
    pub state_bytes: u64,
    /// Observed drain rate of the input bag(s), bytes/second.
    pub drain_rate: f64,
    /// Modeled I/O bandwidth available for clone state + merge, bytes/s.
    pub io_bandwidth: f64,
}

impl CloneDecision {
    /// Expected remaining time without cloning, `T = remaining / rate`.
    ///
    /// An unobserved (zero) drain rate yields `f64::INFINITY`: with no
    /// evidence of progress, remaining time is unbounded and cloning is
    /// always worthwhile — the paper's heuristic only needs rough
    /// estimates and errs toward parallelism early in a task.
    pub fn expected_remaining(&self) -> f64 {
        if self.drain_rate <= 0.0 {
            if self.remaining_bytes == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.remaining_bytes as f64 / self.drain_rate
        }
    }

    /// Estimated clone overhead `T_IO ≈ (2 · remaining + state) /
    /// io_bandwidth` (paper §4.2: "loading task state, merging its
    /// output ... we estimate it as two times the size of the remaining
    /// portion of the input bag that the task will read (for input and
    /// output)"; the state term is the snapshot inputs, read once).
    pub fn io_time(&self) -> f64 {
        if self.io_bandwidth <= 0.0 {
            return f64::INFINITY;
        }
        (2.0 * self.remaining_bytes as f64 + self.state_bytes as f64) / self.io_bandwidth
    }

    /// Eq. 2: clone iff `T > (k + 1) · T_IO`.
    pub fn should_clone(&self) -> bool {
        if self.remaining_bytes == 0 {
            return false;
        }
        let t = self.expected_remaining();
        let tio = self.io_time();
        if t.is_infinite() && tio.is_infinite() {
            // No information at all: decline, we cannot bound the cost.
            return false;
        }
        t > (self.instances as f64 + 1.0) * tio
    }

    /// Expected completion time if the clone is added:
    /// `T_C = k/(k+1) · T + T_IO`.
    pub fn cloned_remaining(&self) -> f64 {
        let k = self.instances as f64;
        k / (k + 1.0) * self.expected_remaining() + self.io_time()
    }
}

/// A simple rate tracker: observes (bytes_removed, time) samples of a bag
/// and reports the drain rate over the most recent interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateTracker {
    last_removed: u64,
    last_time: f64,
    rate: f64,
    initialized: bool,
}

impl RateTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation: cumulative `removed_bytes` at time `now`
    /// (seconds, any epoch). Returns the current rate estimate.
    pub fn observe(&mut self, removed_bytes: u64, now: f64) -> f64 {
        if !self.initialized {
            self.initialized = true;
            self.last_removed = removed_bytes;
            self.last_time = now;
            return 0.0;
        }
        let dt = now - self.last_time;
        if dt > 1e-9 {
            let delta = removed_bytes.saturating_sub(self.last_removed) as f64;
            let instant = delta / dt;
            // Light smoothing keeps one quiet poll from zeroing the rate.
            self.rate = if self.rate == 0.0 {
                instant
            } else {
                0.5 * self.rate + 0.5 * instant
            };
            self.last_removed = removed_bytes;
            self.last_time = now;
        }
        self.rate
    }

    /// The current rate estimate (bytes/second).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(k: u32, remaining: u64, rate: f64, bw: f64) -> CloneDecision {
        CloneDecision {
            instances: k,
            remaining_bytes: remaining,
            state_bytes: 0,
            drain_rate: rate,
            io_bandwidth: bw,
        }
    }

    #[test]
    fn paper_worked_example() {
        // Paper §4.2: 4 clones, 10 seconds remaining; a fifth clone brings
        // completion to 8s + T_IO, so cloning helps iff T_IO < 2s.
        // Construct T = 10s (remaining 100 bytes at 10 B/s).
        // T_IO < 2s ⇔ 2·100/bw < 2 ⇔ bw > 100.
        let cheap = decision(4, 100, 10.0, 101.0);
        assert!(cheap.should_clone());
        let expensive = decision(4, 100, 10.0, 99.0);
        assert!(!expensive.should_clone());
    }

    #[test]
    fn never_clone_empty_bag() {
        assert!(!decision(1, 0, 10.0, 1e9).should_clone());
    }

    #[test]
    fn unknown_rate_clones_when_io_is_cheap() {
        let d = decision(1, 1_000_000, 0.0, 1e9);
        assert!(d.expected_remaining().is_infinite());
        assert!(d.should_clone());
    }

    #[test]
    fn no_information_declines() {
        let d = decision(1, 1_000_000, 0.0, 0.0);
        assert!(!d.should_clone());
    }

    #[test]
    fn more_clones_raise_the_bar() {
        // Same task state; at some k the heuristic must start refusing.
        // T = 10s, T_IO = 1s: Eq. 2 accepts while k + 1 < 10.
        let accepts: Vec<bool> = (1..50)
            .map(|k| decision(k, 1000, 100.0, 2000.0).should_clone())
            .collect();
        assert!(accepts[0], "k=1 should clone (T=10s, T_IO=1s)");
        let first_reject = accepts.iter().position(|a| !a);
        assert!(first_reject.is_some(), "heuristic must eventually refuse");
        // Monotone: once it refuses, it keeps refusing for larger k.
        let idx = first_reject.unwrap();
        assert!(accepts[idx..].iter().all(|a| !a));
    }

    #[test]
    fn near_completion_rejects() {
        // Tiny remaining input: T small, (k+1)·T_IO dominates.
        // T = 10/1000 = 0.01s; T_IO = 2·10/2000 = 0.01s; 0.01 > 2·0.01 is
        // false, so the clone is refused.
        let d = decision(1, 10, 1000.0, 2000.0);
        assert!(!d.should_clone());
    }

    #[test]
    fn state_is_charged_once_to_io_time_and_never_to_remaining() {
        // T = 100 B / 10 B/s = 10 s. Without state T_IO = 2·100/200 = 1 s
        // and k = 1 clones (10 > 2). 1 900 B of snapshot state add
        // 1900/200 = 9.5 s to T_IO once — not twice, and not to T.
        let lean = decision(1, 100, 10.0, 200.0);
        let heavy = CloneDecision {
            state_bytes: 1900,
            ..lean
        };
        assert!((heavy.io_time() - (lean.io_time() + 9.5)).abs() < 1e-9);
        assert_eq!(heavy.expected_remaining(), lean.expected_remaining());
        assert!(lean.should_clone());
        assert!(!heavy.should_clone());
        // State alone is not work: nothing left to share, nothing to clone.
        let drained = CloneDecision {
            remaining_bytes: 0,
            ..heavy
        };
        assert!(!drained.should_clone());
    }

    #[test]
    fn cloned_remaining_matches_formula() {
        let d = decision(4, 1000, 100.0, 1e6);
        let t = d.expected_remaining();
        let tc = d.cloned_remaining();
        assert!((t - 10.0).abs() < 1e-9);
        assert!((tc - (0.8 * 10.0 + d.io_time())).abs() < 1e-9);
        assert!(tc < t);
    }

    #[test]
    fn rate_tracker_converges() {
        let mut rt = RateTracker::new();
        rt.observe(0, 0.0);
        for i in 1..=10 {
            rt.observe(i * 100, i as f64);
        }
        assert!((rt.rate() - 100.0).abs() < 1.0, "rate {}", rt.rate());
    }

    #[test]
    fn rate_tracker_ignores_zero_dt() {
        let mut rt = RateTracker::new();
        rt.observe(0, 0.0);
        rt.observe(100, 1.0);
        let r1 = rt.rate();
        rt.observe(200, 1.0); // Same timestamp: must not divide by zero.
        assert_eq!(rt.rate(), r1);
    }

    #[test]
    fn rate_tracker_handles_rewind() {
        // A rewound bag makes the cumulative counter go backwards; the
        // tracker must not panic or produce negative rates.
        let mut rt = RateTracker::new();
        rt.observe(1000, 0.0);
        rt.observe(100, 1.0);
        assert!(rt.rate() >= 0.0);
    }
}
