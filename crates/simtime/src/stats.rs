//! Measurement helpers used by the benchmark harness.

/// Linear-interpolated percentile of a sample set.  `p` is in `[0, 100]`.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median helper built on [`percentile`].
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints_and_median() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 100.0), Some(5.0));
        assert_eq!(median(&data), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert_eq!(percentile(&data, 25.0), Some(2.5));
        assert_eq!(percentile(&data, 75.0), Some(7.5));
    }
}
