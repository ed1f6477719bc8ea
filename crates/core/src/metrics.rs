//! Prediction-quality metrics.
//!
//! The paper reports estimation error as `(measured/estimated − 1) × 100 %`
//! (Figs. 8, 11, 14) and claims errors "usually smaller than 10 % when
//! there are enough processes to saturate the network".

/// The paper's estimation error in percent: `(measured/estimated − 1)·100`.
/// Positive means the model was optimistic (reality slower than predicted).
pub fn estimation_error_percent(measured: f64, estimated: f64) -> f64 {
    debug_assert!(estimated > 0.0, "estimated time must be positive");
    (measured / estimated - 1.0) * 100.0
}

/// One point of an accuracy report: a `(n, m)` cell with measured and
/// predicted times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// Process count.
    pub n: usize,
    /// Message size in bytes.
    pub message_bytes: u64,
    /// Measured completion time, seconds.
    pub measured_secs: f64,
    /// Model-predicted completion time, seconds.
    pub predicted_secs: f64,
}

impl AccuracyPoint {
    /// The paper's error metric for this point.
    pub fn error_percent(&self) -> f64 {
        estimation_error_percent(self.measured_secs, self.predicted_secs)
    }

    /// Whether the prediction is within `tolerance_percent` of measured.
    pub fn within(&self, tolerance_percent: f64) -> bool {
        self.error_percent().abs() <= tolerance_percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_sign_convention_matches_paper() {
        // Measured slower than estimated → positive error.
        assert!((estimation_error_percent(1.1, 1.0) - 10.0).abs() < 1e-9);
        // Measured faster → negative.
        assert!((estimation_error_percent(0.5, 1.0) + 50.0).abs() < 1e-9);
        // Perfect prediction → zero.
        assert_eq!(estimation_error_percent(2.0, 2.0), 0.0);
    }

    #[test]
    fn accuracy_point_roundtrip() {
        let p = AccuracyPoint {
            n: 24,
            message_bytes: 65_536,
            measured_secs: 0.105,
            predicted_secs: 0.100,
        };
        assert!((p.error_percent() - 5.0).abs() < 1e-9);
        assert!(p.within(10.0));
        assert!(!p.within(1.0));
    }
}
