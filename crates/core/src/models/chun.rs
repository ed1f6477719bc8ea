//! Chun's size-dependent latency model.

use super::CompletionModel;

/// Chun treats contention as a component of latency: the per-message
/// latency `L(m)` takes different values for different message-size classes
/// (larger messages cause, and suffer, more contention). Applied to the
/// All-to-All's rounds:
///
/// ```text
/// T(n, m) = (n−1) · (L(m) + β·m)
/// ```
///
/// The paper's criticism (§2, §6): `L(m)` ignores *how many* messages are in
/// flight and the link capacity, both of which drive real contention.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunModel {
    /// Size classes as `(upper_bound_inclusive, latency_secs)`, sorted by
    /// bound; the last entry should use `u64::MAX` as a catch-all.
    latency_classes: Vec<(u64, f64)>,
    /// Per-byte gap in seconds.
    pub beta_secs_per_byte: f64,
}

impl ChunModel {
    /// Builds the model from latency classes.
    ///
    /// # Panics
    /// Panics if `latency_classes` is empty or not sorted by bound.
    pub fn new(latency_classes: Vec<(u64, f64)>, beta_secs_per_byte: f64) -> Self {
        assert!(!latency_classes.is_empty(), "need at least one class");
        assert!(
            latency_classes.windows(2).all(|w| w[0].0 < w[1].0),
            "classes must be sorted by upper bound"
        );
        Self {
            latency_classes,
            beta_secs_per_byte,
        }
    }

    /// The latency class for a message of `m` bytes.
    pub fn latency_for(&self, m: u64) -> f64 {
        for &(bound, latency) in &self.latency_classes {
            if m <= bound {
                return latency;
            }
        }
        // Above every bound: use the largest class.
        self.latency_classes.last().expect("non-empty").1
    }
}

impl CompletionModel for ChunModel {
    fn name(&self) -> &'static str {
        "chun-latency"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        (n - 1) as f64 * (self.latency_for(m) + m as f64 * self.beta_secs_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_steps_by_class() {
        let model = ChunModel::new(
            vec![(1024, 50e-6), (65536, 120e-6), (u64::MAX, 400e-6)],
            8e-9,
        );
        assert_eq!(model.latency_for(100), 50e-6);
        assert_eq!(model.latency_for(1024), 50e-6);
        assert_eq!(model.latency_for(1025), 120e-6);
        assert_eq!(model.latency_for(10_000_000), 400e-6);
    }

    #[test]
    fn prediction_uses_class_latency() {
        let model = ChunModel::new(vec![(1024, 1e-3), (u64::MAX, 2e-3)], 0.0);
        assert!((model.predict(3, 100) - 2.0 * 1e-3).abs() < 1e-15);
        assert!((model.predict(3, 4096) - 2.0 * 2e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_classes_rejected() {
        let _ = ChunModel::new(vec![(2048, 1e-6), (1024, 2e-6)], 1e-9);
    }
}
