//! Order statistics over the handful of samples a run produces.

/// Median of `samples` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest sample; `NaN` for an empty slice.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest sample; `NaN` for an empty slice.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, so a spread
/// computed here matches the one the benchmark's contract is checked with.
/// Fewer than two samples have no spread: both quartiles are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        n => {
            let cut = |q: usize| {
                let pos = q * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(3))
        }
    }
}

/// Distance between the quartiles; 0 for fewer than two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    if samples.len() < 2 {
        0.0
    } else {
        q3 - q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(iqr(&[5.0]), 0.0);
    }
}
