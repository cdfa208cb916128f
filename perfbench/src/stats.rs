//! Order statistics for host-time samples.

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The nearest-rank `pct`-th percentile of `sorted` (ascending, non-empty):
/// the value at rank `ceil(pct/100 · n)`.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile of `n` samples with at least
/// [`TAIL_BEYOND`] samples beyond its nearest-rank value, or `None` when
/// `n` is too small for any percentile to qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100).min(n) >= TAIL_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // The three grids: 110, 33 and 40 cells.
        assert_eq!(tail_percentile(110), Some(90));
        assert_eq!(tail_percentile(33), Some(69));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..500 {
            let p = tail_percentile(n).expect("qualifies") as usize;
            let beyond = |p: usize| n - (p * n).div_ceil(100);
            assert!(beyond(p) >= TAIL_BEYOND, "n={n} p={p}");
            assert!(
                p == 99 || beyond(p + 1) < TAIL_BEYOND,
                "n={n} p={p} not highest"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 90), 99.0);
        assert_eq!(percentile(&sorted, 50), 55.0);
        assert_eq!(percentile(&sorted, 100), 110.0);
        assert_eq!(percentile(&[4.0], 1), 4.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
    }
}
