//! Counters and throughput time series.
//!
//! The runtime uses [`Counter`]s for hot-path statistics (chunks moved,
//! probes issued, clone requests) and [`TimeSeries`] to reconstruct the
//! paper's throughput-over-time plots (Figures 9 and 11): raw `(time,
//! bytes)` events are recorded during execution and bucketized into
//! one-second aggregate-throughput samples afterwards.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A raw event series of `(time_seconds, value)` pairs.
///
/// The simulator appends one event per modelled I/O completion; the bench
/// harness then calls [`TimeSeries::bucketize`] to obtain the per-second
/// aggregate throughput that Figures 9 and 11 plot.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    events: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` at time `t` (seconds). Events may arrive unsorted.
    pub fn record(&mut self, t: f64, value: f64) {
        self.events.push((t, value));
    }

    /// Returns the number of raw events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the raw events.
    pub fn events(&self) -> &[(f64, f64)] {
        &self.events
    }

    /// Sums event values into fixed-width time buckets.
    ///
    /// Returns `(bucket_start_time, sum_of_values / bucket_width)` pairs —
    /// i.e. average rate per bucket — covering `[0, end]` where `end` is the
    /// latest event time. Empty buckets yield zero, which is what makes
    /// crash dips visible in the Figure 11 reproduction.
    pub fn bucketize(&self, bucket_width: f64) -> Vec<(f64, f64)> {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        if self.events.is_empty() {
            return Vec::new();
        }
        let end = self.events.iter().map(|&(t, _)| t).fold(0.0f64, f64::max);
        let n = (end / bucket_width).floor() as usize + 1;
        let mut sums = vec![0.0f64; n];
        for &(t, v) in &self.events {
            let idx = ((t / bucket_width).floor() as usize).min(n - 1);
            sums[idx] += v;
        }
        sums.into_iter()
            .enumerate()
            .map(|(i, s)| (i as f64 * bucket_width, s / bucket_width))
            .collect()
    }

    /// Total of all event values (e.g. total bytes moved).
    pub fn total(&self) -> f64 {
        self.events.iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn timeseries_bucketize_rates() {
        let mut ts = TimeSeries::new();
        ts.record(0.1, 10.0);
        ts.record(0.9, 10.0);
        ts.record(2.5, 30.0);
        let buckets = ts.bucketize(1.0);
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].1 - 20.0).abs() < 1e-9);
        assert!((buckets[1].1 - 0.0).abs() < 1e-9, "gap bucket must be zero");
        assert!((buckets[2].1 - 30.0).abs() < 1e-9);
        assert!((ts.total() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_unsorted_events_ok() {
        let mut ts = TimeSeries::new();
        ts.record(5.0, 1.0);
        ts.record(0.0, 1.0);
        let buckets = ts.bucketize(1.0);
        assert_eq!(buckets.len(), 6);
        assert!((buckets[5].1 - 1.0).abs() < 1e-9);
    }
}
