//! Order statistics for the benchmark's timings.

/// Fewest samples that must lie beyond a reported tail percentile: a tail
/// resting on fewer is the noise of a handful of samples, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (the mean of the middle two for an even count), or
/// `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    let mid = *sorted.get(n / 2)?;
    Some(if n % 2 == 1 {
        mid
    } else {
        (sorted[n / 2 - 1] + mid) / 2.0
    })
}

/// The nearest-rank `pct`-th percentile of `values` and the number of
/// samples beyond it, or `None` when there are none.
fn ranked(values: &[f64], pct: usize) -> Option<(f64, usize)> {
    assert!(pct > 0 && pct < 100, "percentile must lie in (0, 100)");
    let sorted = sorted(values);
    let n = sorted.len();
    // 1-based nearest rank: ceil(pct · n / 100).
    let rank = (pct * n).div_ceil(100);
    let value = *sorted.get(rank.checked_sub(1)?)?;
    Some((value, n - rank))
}

/// The nearest-rank `pct`-th percentile of `values`.
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    ranked(values, pct).map(|(value, _)| value)
}

/// The nearest-rank `pct`-th percentile of `values` and the number of
/// samples beyond it, or `None` when fewer than [`MIN_BEYOND`] lie beyond
/// it.
pub fn tail(values: &[f64], pct: usize) -> Option<(f64, usize)> {
    ranked(values, pct).filter(|&(_, beyond)| beyond >= MIN_BEYOND)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // reversed, so the helpers have to sort
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&ramp(8), 25), Some(2.0));
        assert_eq!(percentile(&ramp(8), 75), Some(6.0));
        assert_eq!(percentile(&[], 75), None);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 100 samples has 1 beyond it; of 999, 9; of 1000, 10
        assert_eq!(tail(&ramp(100), 99), None);
        assert_eq!(tail(&ramp(999), 99), None);
        assert_eq!(tail(&ramp(1000), 99), Some((990.0, 10)));
        assert_eq!(tail(&ramp(1500), 99), Some((1485.0, 15)));
        assert_eq!(tail(&[], 99), None);
        // a lower percentile needs fewer samples
        assert_eq!(tail(&ramp(100), 90), Some((90.0, 10)));
    }
}
