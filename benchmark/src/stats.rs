//! Order statistics used for every reported number.

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one op.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses — the driver computes its
/// spreads with that function, so `--repeat-check` must agree with it.
///
/// # Panics
///
/// Panics with fewer than two samples (as the Python function raises).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the driver's
/// steadiness measure.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Samples strictly beyond the `p`-th percentile position of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
}

/// Whether `p` is a percentile `n` samples support: at least ten samples
/// must lie beyond it, or the number describes a handful of outliers.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// The tail percentiles a run may report, highest first: p90 where the op
/// count supports it, as on `serve_mixed`, where it is the median plan-miss.
const TAIL_LADDER: [f64; 3] = [90.0, 85.0, 80.0];

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support, if
/// any: 90 from 100 samples, 85 from 67, 80 from 50.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// Geometric mean of positive ratios.
pub fn geo_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 4.6);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(!percentile_supported(100, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert_eq!(samples_beyond(5, 100.0), 0);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported_percentile(4680), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(85.0));
        assert_eq!(highest_supported_percentile(90), Some(85.0));
        assert_eq!(highest_supported_percentile(78), Some(85.0));
        assert_eq!(highest_supported_percentile(66), Some(80.0));
        assert_eq!(highest_supported_percentile(49), None);
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geo_mean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
    }
}
