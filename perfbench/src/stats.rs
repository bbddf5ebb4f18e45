//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle samples for an even count);
/// NaN for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `xs`: the smallest sample with at least
/// `q`% of the samples at or below it. NaN for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), q) - 1]
}

/// Percentiles a tail metric may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile, at most `max_q`, that still has at least ten
/// samples beyond it, as `(percentile, value)`. A tail read from fewer
/// samples than that is one or two outliers, not a tail. `None` when even
/// the median lacks ten samples above it (fewer than 20 samples).
pub fn tail(xs: &[f64], max_q: f64) -> Option<(f64, f64)> {
    let n = xs.len();
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= max_q)
        .find(|&q| n - rank(n, q) >= 10)
        .map(|q| (q, percentile(xs, q)))
}

/// 1-based nearest rank of percentile `q` in `n` samples (0 when `n == 0`).
/// `q * n` first keeps the product exact for whole percentiles.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0).ceil() as usize).max(1).min(n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: rank 990 leaves exactly ten beyond p99.
        assert_eq!(tail(&xs(1000), 99.0), Some((99.0, 990.0)));
        // One fewer and p99 has only nine beyond it; p95 is next.
        assert_eq!(tail(&xs(999), 99.0), Some((95.0, 950.0)));
        // 200 samples: p99 and p95 have 2 and 10 beyond them.
        assert_eq!(tail(&xs(200), 99.0), Some((95.0, 190.0)));
        // The cap is honoured even when a higher rung qualifies.
        assert_eq!(tail(&xs(1000), 90.0), Some((90.0, 900.0)));
        // 20 samples support only the median; 19 support nothing.
        assert_eq!(tail(&xs(20), 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&xs(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }
}
