//! The §6 "throughput under contention" approach.
//!
//! Saturating the network with simultaneous point-to-point connections
//! (paper Fig. 3) exposes two per-byte gaps: a contention-free `βF` (the
//! fast connections) and a contended `βC` (the stragglers stalled by TCP
//! loss recovery — the paper's measured values were `βF = 8.502×10⁻⁹ s/B`
//! and `βC = 8.498×10⁻⁸ s/B` on Gigabit Ethernet). Assuming a proportion
//! `ρ` of connections suffer contention, the synthetic gap
//!
//! ```text
//! β = (1 − ρ)·βF + ρ·βC
//! ```
//!
//! plugs into the Proposition 1 formula. The paper uses `ρ = 0.5`
//! ("supposing that at most one of each two connections will be delayed").

use crate::error::ModelError;
use crate::hockney::HockneyParams;

/// The throughput-under-contention model (paper §6, eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    /// Start-up latency α in seconds (from an uncontended ping-pong).
    pub alpha_secs: f64,
    /// Contention-free gap `βF` in seconds per byte.
    pub beta_free: f64,
    /// Contended gap `βC` in seconds per byte.
    pub beta_contended: f64,
    /// Proportion of connections assumed delayed by contention.
    pub rho: f64,
}

impl ThroughputModel {
    /// Builds the model from explicit parameters.
    ///
    /// # Panics
    /// Panics if `rho` is outside `[0, 1]` or the gaps are non-positive.
    pub fn new(alpha_secs: f64, beta_free: f64, beta_contended: f64, rho: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho is a proportion");
        assert!(beta_free > 0.0 && beta_contended > 0.0);
        Self {
            alpha_secs,
            beta_free,
            beta_contended,
            rho,
        }
    }

    /// Estimates `βF`/`βC` from a stress run: per-connection completion
    /// times for `bytes`-sized transfers (paper Fig. 3). `βF` comes from the
    /// fastest connection, `βC` from the slowest — the same reading the
    /// paper takes off its figure.
    pub fn from_stress_times(
        alpha_secs: f64,
        bytes: u64,
        times_secs: &[f64],
        rho: f64,
    ) -> Result<Self, ModelError> {
        if times_secs.len() < 2 {
            return Err(ModelError::InsufficientSamples {
                needed: 2,
                got: times_secs.len(),
            });
        }
        if times_secs.iter().any(|t| !t.is_finite() || *t <= 0.0) {
            return Err(ModelError::InvalidInput("non-positive stress time"));
        }
        if bytes == 0 {
            return Err(ModelError::InvalidInput("zero-byte stress transfer"));
        }
        let min = times_secs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times_secs.iter().cloned().fold(0.0, f64::max);
        Ok(Self::new(
            alpha_secs,
            min / bytes as f64,
            max / bytes as f64,
            rho,
        ))
    }

    /// The synthetic gap `β = (1−ρ)·βF + ρ·βC` (paper eq. 3).
    pub fn synthetic_beta(&self) -> f64 {
        (1.0 - self.rho) * self.beta_free + self.rho * self.beta_contended
    }

    /// The synthetic Hockney parameters this model predicts with.
    pub fn synthetic_params(&self) -> HockneyParams {
        HockneyParams::new(self.alpha_secs, self.synthetic_beta())
    }

    /// Predicted completion time for `n` processes and `m`-byte messages:
    /// Proposition 1 under the synthetic gap.
    pub fn predict(&self, n: usize, m: u64) -> f64 {
        self.synthetic_params().alltoall_lower_bound(n, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_reproduce_paper_beta() {
        // §6: βF = 8.502e-9, βC = 8.498189e-8, ρ = 0.5 → β = 4.6742e-8.
        let model = ThroughputModel::new(50e-6, 8.502e-9, 8.498189e-8, 0.5);
        assert!((model.synthetic_beta() - 4.674194e-8).abs() < 1e-12);
    }

    #[test]
    fn rho_zero_is_contention_free() {
        let model = ThroughputModel::new(0.0, 1e-9, 1e-8, 0.0);
        assert_eq!(model.synthetic_beta(), 1e-9);
    }

    #[test]
    fn rho_one_is_fully_contended() {
        let model = ThroughputModel::new(0.0, 1e-9, 1e-8, 1.0);
        assert_eq!(model.synthetic_beta(), 1e-8);
    }

    #[test]
    fn from_stress_times_uses_extremes() {
        let bytes = 32 * 1024 * 1024u64;
        let times = [0.27, 0.30, 0.29, 1.62, 0.28];
        let model = ThroughputModel::from_stress_times(40e-6, bytes, &times, 0.5).unwrap();
        assert!((model.beta_free - 0.27 / bytes as f64).abs() < 1e-18);
        assert!((model.beta_contended - 1.62 / bytes as f64).abs() < 1e-18);
    }

    #[test]
    fn stress_estimation_rejects_bad_input() {
        assert!(ThroughputModel::from_stress_times(0.0, 100, &[0.1], 0.5).is_err());
        assert!(ThroughputModel::from_stress_times(0.0, 100, &[0.1, -1.0], 0.5).is_err());
        assert!(ThroughputModel::from_stress_times(0.0, 0, &[0.1, 0.2], 0.5).is_err());
    }

    #[test]
    fn prediction_scales_like_proposition_1() {
        let model = ThroughputModel::new(50e-6, 8.5e-9, 8.5e-8, 0.5);
        let t = model.predict(40, 1_048_576);
        let expected = 39.0 * (50e-6 + 1_048_576.0 * model.synthetic_beta());
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn predict_is_monotone_in_n_and_m() {
        let model = ThroughputModel::new(50e-6, 8.502e-9, 8.498189e-8, 0.5);
        let base = model.predict(8, 64 * 1024);
        assert!(base > 0.0);
        assert!(model.predict(16, 64 * 1024) > base);
        assert!(model.predict(8, 1024 * 1024) > base);
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn invalid_rho_panics() {
        let _ = ThroughputModel::new(0.0, 1e-9, 1e-8, 1.5);
    }
}
