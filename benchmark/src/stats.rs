//! The benchmark's arithmetic: percentiles of operation samples, the
//! median-of-rounds rule, spreads and counter deltas per operation.

use dcgn_simtime::percentile;

/// `p`-th percentile (linear interpolation) of nanosecond samples, in µs.
/// An empty sample set reads 0.
pub fn percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    let as_us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    percentile(&as_us, p).unwrap_or(0.0)
}

/// Median of a few values (the per-round values of one metric); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    dcgn_simtime::stats::median(values).unwrap_or(0.0)
}

/// `(max − min) ÷ median × 100`: how far the rounds of one run disagree.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid * 100.0
}

/// `part ÷ whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A counter delta (or any total) per operation; 0 when nothing ran.
pub fn per_op(total: u64, ops: u64) -> f64 {
    ratio(total as f64, ops as f64)
}

/// How much worse `second` is than `first`, as a share of `first`, for a
/// metric where `lower_is_better` (negative = it got better).
pub fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first;
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_hand_made_samples() {
        // 1..=100 µs: the interpolated median sits between 50 and 51.
        let samples: Vec<u64> = (1..=100).map(|us| us * 1000).collect();
        assert_eq!(percentile_us(&samples, 50.0), 50.5);
        assert!((percentile_us(&samples, 90.0) - 90.1).abs() < 1e-9);
        assert_eq!(percentile_us(&samples, 100.0), 100.0);
        // Order of arrival does not matter, a single sample is every
        // percentile, and no samples read 0.
        assert_eq!(percentile_us(&[3000, 1000, 2000], 50.0), 2.0);
        assert_eq!(percentile_us(&[7000], 99.0), 7.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        assert_eq!(median(&[205.0, 390.0, 208.0]), 208.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread_pct(&[200.0, 210.0, 190.0]) - 10.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[]), 0.0);
    }

    #[test]
    fn counter_delta_per_op() {
        assert_eq!(per_op(64, 32), 2.0);
        assert_eq!(per_op(0, 32), 0.0);
        assert_eq!(per_op(5, 0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, false) + 0.12).abs() < 1e-12);
        assert!((worsening(1000.0, 900.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }
}
