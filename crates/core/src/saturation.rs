//! An intermediate model for half-saturated networks — the paper's other
//! future-work item ("to propose an intermediate performance model for
//! half-saturate networks").
//!
//! The plain signature assumes the network is saturated: γ is constant in
//! `n`. Below saturation the real ratio ramps from ≈1 (a couple of nodes
//! cannot congest a fabric) up to the saturated γ∞ — which is exactly why
//! the paper's Figs. 11 and 14 show large negative errors at small `n`.
//! This model makes the ramp explicit:
//!
//! ```text
//! γ(n) = 1 + (γ∞ − 1)·(1 − exp(−(n−1)/n_half))
//! T(n, m) = (n−1)·(α + m·β)·γ(n)   [+ (n−1)·δ above the cutoff]
//! ```
//!
//! `n_half` is the node scale at which contention has reached ~63 % of its
//! saturated value. Fitted from measurements at several node counts by a
//! grid search over `n_half` with a closed-form inner fit for γ∞.

use crate::error::ModelError;
use crate::hockney::HockneyParams;

/// A saturation-aware contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationModel {
    /// Contention-free point-to-point parameters.
    pub hockney: HockneyParams,
    /// Saturated contention ratio γ∞.
    pub gamma_saturated: f64,
    /// Node scale of the saturation ramp.
    pub n_half: f64,
    /// Residual sum of squares of the fit.
    pub rss: f64,
}

impl SaturationModel {
    /// The effective contention ratio at `n` processes.
    pub fn gamma_at(&self, n: usize) -> f64 {
        if n < 2 {
            return 1.0;
        }
        let ramp = 1.0 - (-((n - 1) as f64) / self.n_half).exp();
        1.0 + (self.gamma_saturated - 1.0) * ramp
    }

    /// Predicted completion time for `n` processes and `m`-byte messages:
    /// the ramp over Proposition 1's bound.
    pub fn predict(&self, n: usize, m: u64) -> f64 {
        self.predict_from(self.hockney.alltoall_lower_bound(n, m), n)
    }

    /// The ramp over any lower bound: `bound·γ(n)`.
    pub fn predict_from(&self, bound: f64, n: usize) -> f64 {
        bound * self.gamma_at(n)
    }

    /// Fits `(γ∞, n_half)` from measurements spanning several node counts:
    /// `(n, message bytes, seconds)` triples. Needs at least two distinct
    /// node counts and four points (same requirement as the signature).
    pub fn fit(hockney: HockneyParams, samples: &[(usize, u64, f64)]) -> Result<Self, ModelError> {
        if samples.len() < 4 {
            return Err(ModelError::InsufficientSamples {
                needed: 4,
                got: samples.len(),
            });
        }
        let mut node_counts: Vec<usize> = samples.iter().map(|&(n, _, _)| n).collect();
        node_counts.sort_unstable();
        node_counts.dedup();
        if node_counts.len() < 2 {
            return Err(ModelError::InvalidInput(
                "saturation fit needs at least two distinct node counts",
            ));
        }
        // Observed ratios y_i = T_i / bound_i = 1 + (γ∞−1)·ramp(n_i).
        let mut ratios = Vec::with_capacity(samples.len());
        for &(n, m, t) in samples {
            let bound = hockney.alltoall_lower_bound(n, m);
            if !bound.is_finite() || bound <= 0.0 || !t.is_finite() || t <= 0.0 {
                return Err(ModelError::InvalidInput("non-positive time or bound"));
            }
            ratios.push((n, t / bound));
        }
        // Grid over n_half (log-spaced 1..10·max n); inner closed-form
        // least squares for (γ∞ − 1): minimize Σ (y−1 − g·r(n))².
        let max_n = *node_counts.last().expect("non-empty") as f64;
        let mut best: Option<(f64, f64, f64)> = None; // (rss, n_half, gamma)
        let mut n_half = 1.0f64;
        while n_half <= max_n * 10.0 {
            let mut num = 0.0;
            let mut den = 0.0;
            for &(n, y) in &ratios {
                let r = 1.0 - (-((n - 1) as f64) / n_half).exp();
                num += (y - 1.0) * r;
                den += r * r;
            }
            if den > 0.0 {
                let g = (num / den).max(0.0);
                let rss: f64 = ratios
                    .iter()
                    .map(|&(n, y)| {
                        let r = 1.0 - (-((n - 1) as f64) / n_half).exp();
                        let e = y - 1.0 - g * r;
                        e * e
                    })
                    .sum();
                if best.is_none_or(|(b, _, _)| rss < b) {
                    best = Some((rss, n_half, g));
                }
            }
            n_half *= 1.1;
        }
        let (rss, n_half, g) = best.expect("grid is non-empty");
        Ok(Self {
            hockney,
            gamma_saturated: 1.0 + g,
            n_half,
            rss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HockneyParams {
        HockneyParams::new(50e-6, 8.5e-9)
    }

    fn synth(gamma_sat: f64, n_half: f64) -> Vec<(usize, u64, f64)> {
        let h = params();
        let mut samples = Vec::new();
        for n in [4usize, 8, 16, 24, 32, 40, 48] {
            for m in [131_072u64, 524_288, 1_048_576] {
                let ramp = 1.0 - (-((n - 1) as f64) / n_half).exp();
                let gamma = 1.0 + (gamma_sat - 1.0) * ramp;
                samples.push((n, m, h.alltoall_lower_bound(n, m) * gamma));
            }
        }
        samples
    }

    #[test]
    fn recovers_planted_ramp() {
        let model = SaturationModel::fit(params(), &synth(4.4, 12.0)).unwrap();
        assert!(
            (model.gamma_saturated - 4.4).abs() < 0.05,
            "gamma_sat = {}",
            model.gamma_saturated
        );
        assert!(
            (model.n_half - 12.0).abs() < 1.5,
            "n_half = {}",
            model.n_half
        );
    }

    #[test]
    fn gamma_ramps_from_one_to_saturated() {
        let model = SaturationModel {
            hockney: params(),
            gamma_saturated: 4.0,
            n_half: 10.0,
            rss: 0.0,
        };
        assert_eq!(model.gamma_at(1), 1.0);
        assert!(model.gamma_at(2) < model.gamma_at(8));
        assert!(model.gamma_at(8) < model.gamma_at(64));
        assert!(model.gamma_at(1000) < 4.0 + 1e-6);
        assert!(model.gamma_at(1000) > 3.99);
    }

    fn ramp() -> SaturationModel {
        SaturationModel {
            hockney: params(),
            gamma_saturated: 3.0,
            n_half: 8.0,
            rss: 0.0,
        }
    }

    #[test]
    fn predict_is_monotone_in_n_and_m() {
        let model = ramp();
        let base = model.predict(8, 64 * 1024);
        assert!(base > 0.0);
        assert!(model.predict(16, 64 * 1024) > base);
        assert!(model.predict(8, 1024 * 1024) > base);
    }

    #[test]
    fn predict_is_predict_from_over_proposition_1() {
        let model = ramp();
        for n in [0usize, 1, 2, 8, 40] {
            for m in [0u64, 1024, 1_048_576] {
                let bound = model.hockney.alltoall_lower_bound(n, m);
                assert_eq!(
                    model.predict(n, m).to_bits(),
                    model.predict_from(bound, n).to_bits()
                );
            }
        }
    }

    #[test]
    fn beats_flat_signature_below_saturation() {
        // Data with a ramp; the flat-γ model fitted at n'=40 overshoots
        // small n, while the saturation model tracks it.
        let data = synth(4.4, 12.0);
        let h = params();
        let model = SaturationModel::fit(h, &data).unwrap();
        let flat_gamma = 4.24; // what a saturated fit would give
        let (n, m) = (6usize, 524_288u64);
        let truth = data
            .iter()
            .find(|&&(dn, dm, _)| dn == 8 && dm == m)
            .map(|&(_, _, t)| t)
            .unwrap();
        let _ = truth;
        let ramp_pred = model.predict(n, m);
        let flat_pred = h.alltoall_lower_bound(n, m) * flat_gamma;
        let ramp = 1.0 - (-((n - 1) as f64) / 12.0).exp();
        let true_t = h.alltoall_lower_bound(n, m) * (1.0 + 3.4 * ramp);
        assert!(
            (ramp_pred - true_t).abs() < (flat_pred - true_t).abs(),
            "ramp {ramp_pred} vs flat {flat_pred} vs truth {true_t}"
        );
    }

    #[test]
    fn needs_two_distinct_node_counts() {
        let h = params();
        let samples = vec![
            (8usize, 1024u64, 0.01),
            (8, 2048, 0.02),
            (8, 4096, 0.04),
            (8, 8192, 0.08),
        ];
        assert!(matches!(
            SaturationModel::fit(h, &samples),
            Err(ModelError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_insufficient_points() {
        assert!(matches!(
            SaturationModel::fit(params(), &[(4, 1024, 0.1), (8, 1024, 0.2)]),
            Err(ModelError::InsufficientSamples { .. })
        ));
    }
}
