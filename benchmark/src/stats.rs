//! Order statistics over job samples.

/// Sorts `samples` ascending (NaN-free by construction: every sample is
/// a measured duration or count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// The `p`-th percentile (0..=100) of an ascending slice, interpolating
/// linearly between neighbouring ranks. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The highest percentile that still has at least ten samples beyond
/// it, and its value: `(percentile, value)`. With fewer than twenty
/// samples no percentile above the median qualifies, so the median is
/// returned and the caller reports the sample count beside it.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 20 {
        return (50.0, percentile(sorted, 50.0));
    }
    // sorted[n - 11] has exactly ten samples above it.
    let idx = n - 11;
    (100.0 * idx as f64 / (n - 1) as f64, sorted[idx])
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of two counters
/// that both stayed at zero is reported as 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert!((percentile(&s, 25.0) - 17.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&s);
        assert_eq!(value, 90.0);
        assert_eq!(s.iter().filter(|&&v| v > value).count(), 10);
        assert!((pct - 100.0 * 89.0 / 99.0).abs() < 1e-12);
        // Too few samples for any tail above the median.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 8.0));
    }

    #[test]
    fn ratio_of_zero_counters_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
