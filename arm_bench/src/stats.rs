//! Medians, percentiles and spreads — the arithmetic every reported number
//! goes through, kept in one place so the unit tests cover all of it.

/// Samples that must lie beyond a percentile for it to be reported: with
/// fewer, the figure is one or two outliers, not a property of the run.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `sorted` by nearest rank, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize; // 1-based nearest rank
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// [`percentile`] of unsorted samples, 0 when the sample does not support it
/// (metrics are never absent from the output; 0 reads as "not measured").
pub fn percentile_or_zero(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, q).unwrap_or(0.0)
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is how the acceptance check
/// measures run-to-run spread. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it; p99 has one.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        // 19 samples: the median has 9 beyond — refused; 21 has 10.
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..21], 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_or_zero_sorts_first() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile_or_zero(&mut v, 0.99), 990.0);
        assert_eq!(percentile_or_zero(&mut [3.0, 1.0], 0.5), 0.0);
    }

    #[test]
    fn median_of_three_windows_ignores_the_outlier() {
        assert_eq!(median(&[1.9, 88.0, 2.1]), 2.1);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
