//! Batch and streaming descriptive statistics.
//!
//! The experiment harness repeats every (message size, process count) point
//! many times and reports means; the stress-test figures additionally need
//! minima, maxima and quantiles to expose the straggler connections of
//! Fig. 3. [`Summary`] computes all of that in one pass over a slice, and
//! [`OnlineStats`] (Welford's algorithm) accumulates the same moments without
//! storing samples, which the simulator uses for per-link utilisation
//! counters.

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
        let mut online = OnlineStats::new();
        for &v in values {
            online.push(v);
        }
        Ok(Self {
            count: online.count(),
            mean: online.mean(),
            variance: online.variance(),
            min: online.min(),
            max: online.max(),
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

/// Welford's online mean/variance accumulator with extrema tracking.
///
/// Numerically stable for long streams (per-packet link occupancy samples can
/// run into the millions), and mergeable so the parallel sweep runner can
/// combine per-thread accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Current mean; zero for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; zero when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+inf` for an empty accumulator.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` for an empty accumulator.
    pub fn max(&self) -> f64 {
        self.max
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
    fn online_merge_equals_batch() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &data[..37] {
            left.push(v);
        }
        for &v in &data[37..] {
            right.push(v);
        }
        left.merge(&right);
        let batch = Summary::of(&data).unwrap();
        assert_eq!(left.count(), 100);
        assert!((left.mean() - batch.mean).abs() < 1e-10);
        assert!((left.variance() - batch.variance).abs() < 1e-10);
        assert_eq!(left.min(), batch.min);
        assert_eq!(left.max(), batch.max);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
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
