//! Descriptive statistics.
//!
//! The experiment harness repeats every (message size, process count) point
//! many times and reports means; the stress-test figures additionally need
//! minima, maxima and quantiles to expose the straggler connections of
//! Fig. 3. [`Summary`] computes all of that in one pass over a slice.

use crate::error::StatsError;

/// One-pass summary of a sample: count, mean, variance, extrema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n−1) sample variance; zero when `count < 2`.
    pub variance: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty slice.
    ///
    /// Returns [`StatsError::InsufficientData`] on an empty slice and
    /// [`StatsError::NonFiniteInput`] if any value is NaN or infinite.
    pub fn of(values: &[f64]) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }
        // Welford's update: one pass, numerically stable.
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        }
        Ok(Self {
            count: values.len(),
            mean,
            variance: if values.len() < 2 {
                0.0
            } else {
                m2 / (values.len() - 1) as f64
            },
            min,
            max,
        })
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between
/// order statistics (type-7, the R/NumPy default).
///
/// The input does not need to be sorted; a sorted copy is made internally.
pub fn quantile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) || values.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (0.5-quantile).
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    quantile(values, 0.5)
}

/// Arithmetic mean of a non-empty slice.
pub fn mean(values: &[f64]) -> Result<f64, StatsError> {
    Summary::of(values).map(|s| s.mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        // var = ((1.5)^2 + (0.5)^2 + (0.5)^2 + (1.5)^2) / 3 = 5/3
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(matches!(
            Summary::of(&[]),
            Err(StatsError::InsufficientData { .. })
        ));
        assert!(matches!(
            Summary::of(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        ));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert!((quantile(&v, 0.5).unwrap() - 2.5).abs() < 1e-12);
        // position 0.25 * 3 = 0.75 → 1 + 0.75 * (2 - 1)
        assert!((quantile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_sample_is_middle_element() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }

    #[test]
    fn std_error_shrinks_with_count() {
        let small = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let data: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let large = Summary::of(&data).unwrap();
        assert!(large.std_error() < small.std_error());
    }
}
