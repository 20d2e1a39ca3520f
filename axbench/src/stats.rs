//! Order statistics for timings.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (need not be sorted).
///
/// Returns `None` for an empty sample, and for a tail (`q > 0.5`)
/// with fewer than [`MIN_BEYOND_TAIL`] samples beyond it: a p90 needs
/// at least 100 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (the lower middle for even sizes); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine = &hundred[..99];
        assert_eq!(
            percentile(ninety_nine, 0.9),
            None,
            "only 9 samples beyond p90"
        );
        assert_eq!(
            percentile(&hundred[..20], 0.5),
            Some(10.0),
            "medians need no tail"
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
