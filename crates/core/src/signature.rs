//! The contention signature — the paper's headline contribution (§7).
//!
//! The hypothesis: network contention depends mostly on the physical
//! network (cards, links, switches), so the *ratio* between the Proposition
//! 1 lower bound and the real completion time is a property of the network
//! — its **contention signature** — measurable once at a sample process
//! count `n′` and reusable for any `(n, m)` on that network:
//!
//! ```text
//! T(n, m) = (n−1)·(α + m·β)·γ                 if m <  M     (eq. 4/5)
//! T(n, m) = (n−1)·((α + m·β)·γ + δ)           if m ≥  M
//! ```
//!
//! `γ` is the contention ratio, `δ` the per-round start-up overload
//! ("each simultaneous communication induces an overload of 8.23 ms"), and
//! `M` the message-size cutoff below which the affine term vanishes.
//! Fitted by least squares over at least four measurement points, with the
//! breakpoint chosen by model selection.

use crate::error::ModelError;
use crate::hockney::HockneyParams;
use crate::regression::least_squares;

/// A fitted contention signature `(γ, δ, M)` over Hockney parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionSignature {
    /// Contention-free point-to-point parameters the bound is built on.
    pub hockney: HockneyParams,
    /// Contention ratio γ: measured time over the lower bound.
    pub gamma: f64,
    /// Per-round start-up overload δ in seconds (applied `n−1` times for
    /// messages of at least `cutoff_bytes`).
    pub delta_secs: f64,
    /// Message-size cutoff `M`; `None` when the pure-ratio model fits best
    /// (the Myrinet case, δ ≈ 0).
    pub cutoff_bytes: Option<u64>,
    /// Sample process count `n′` the signature was fitted at.
    pub sample_n: usize,
    /// Goodness of fit (R²) at the sample points.
    pub fit_r_squared: f64,
}

impl ContentionSignature {
    /// Fits a signature from All-to-All measurements at one process count.
    ///
    /// `samples` are `(message_bytes, measured_seconds)` pairs; the paper
    /// requires "at least four measurement points in order to better fit
    /// the performance curve". Candidate 0 is the pure ratio `T = γ·L`;
    /// then each distinct sample size is tried as the cutoff `M`, adding
    /// the column `n′−1` from `M` up. A cutoff needs at least two stepped
    /// points, a singular candidate is skipped, and `δ < 0` is rejected (a
    /// negative start-up overload is non-physical). The lowest AIC wins;
    /// on a tie the earlier candidate stays.
    pub fn fit(
        hockney: HockneyParams,
        sample_n: usize,
        samples: &[(u64, f64)],
    ) -> Result<Self, ModelError> {
        if sample_n < 2 {
            return Err(ModelError::InvalidInput("need at least two processes"));
        }
        if samples.len() < 4 {
            return Err(ModelError::InsufficientSamples {
                needed: 4,
                got: samples.len(),
            });
        }
        let observations: Vec<f64> = samples.iter().map(|&(_, t)| t).collect();
        let slope: Vec<f64> = samples
            .iter()
            .map(|&(m, _)| hockney.alltoall_lower_bound(sample_n, m))
            .collect();
        if slope.iter().chain(&observations).any(|v| !v.is_finite()) {
            return Err(ModelError::NonFiniteSamples);
        }
        let n = samples.len();
        let step = (sample_n - 1) as f64;

        // Candidate 0: the pure ratio T = γ·L.
        let design: Vec<[f64; 1]> = slope.iter().map(|&l| [l]).collect();
        let linear = least_squares(&design, &observations).ok_or(ModelError::SingularFit)?;
        let (mut gamma, mut delta, mut cutoff) = (linear.coefficients[0], 0.0, None);
        let mut r_squared = linear.r_squared;
        let mut best_aic = aic(n, linear.rss, 1);

        // Candidate cutoffs: every distinct message size. A cutoff at the
        // smallest size means every sample pays the step (the Fast Ethernet
        // case, where M is below the sampled sizes).
        let mut cutoffs: Vec<f64> = samples.iter().map(|&(m, _)| m as f64).collect();
        cutoffs.sort_by(f64::total_cmp);
        cutoffs.dedup();
        for &cut in &cutoffs {
            let stepped = |m: u64| m as f64 >= cut;
            if samples.iter().filter(|&&(m, _)| stepped(m)).count() < 2 {
                continue; // a single stepped point cannot constrain δ
            }
            let design: Vec<[f64; 2]> = samples
                .iter()
                .zip(&slope)
                .map(|(&(m, _), &l)| [l, if stepped(m) { step } else { 0.0 }])
                .collect();
            let Some(fit) = least_squares(&design, &observations) else {
                continue; // step column ∝ slope column
            };
            let [g, d] = fit.coefficients;
            if d < 0.0 {
                continue;
            }
            let candidate_aic = aic(n, fit.rss, 2);
            if candidate_aic < best_aic {
                best_aic = candidate_aic;
                (gamma, delta, cutoff, r_squared) = (g, d, Some(cut), fit.r_squared);
            }
        }
        if gamma <= 0.0 {
            return Err(ModelError::NonPhysical {
                parameter: "gamma",
                value: gamma,
            });
        }
        Ok(Self {
            hockney,
            gamma,
            delta_secs: delta,
            cutoff_bytes: cutoff.map(|c| c as u64),
            sample_n,
            fit_r_squared: r_squared,
        })
    }

    /// Evaluates eq. 5 for `n` processes and `m`-byte messages: the
    /// signature over Proposition 1's bound.
    pub fn predict(&self, n: usize, m: u64) -> f64 {
        self.predict_from(self.lower_bound(n, m), n, m)
    }

    /// Eq. 5 over any lower bound: `bound·γ`, plus `(n−1)·δ` once δ is
    /// active at `m`. Every prediction the signature makes goes through
    /// here, whatever bound the cell is scored against.
    pub fn predict_from(&self, bound: f64, n: usize, m: u64) -> f64 {
        let delta = if self.delta_active(m) {
            n.saturating_sub(1) as f64 * self.delta_secs
        } else {
            0.0
        };
        bound * self.gamma + delta
    }

    /// The lower bound this signature is expressed against.
    pub fn lower_bound(&self, n: usize, m: u64) -> f64 {
        self.hockney.alltoall_lower_bound(n, m)
    }

    /// Whether the affine δ term applies at message size `m`.
    pub fn delta_active(&self, m: u64) -> bool {
        matches!(self.cutoff_bytes, Some(cut) if m >= cut && self.delta_secs > 0.0)
    }
}

/// Gaussian-likelihood AIC of a `k`-coefficient fit over `n` points, up to
/// constants; an exact fit's zero RSS is floored.
fn aic(n: usize, rss: f64, k: usize) -> f64 {
    let n_f = n as f64;
    n_f * (rss.max(1e-300) / n_f).ln() + 2.0 * k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gige_hockney() -> HockneyParams {
        HockneyParams::new(50e-6, 8.5e-9)
    }

    /// Synthesizes measurements from known (γ, δ, M) and checks recovery.
    #[test]
    fn fit_recovers_planted_signature() {
        let h = gige_hockney();
        let (n, gamma, delta, cut) = (40usize, 4.3628, 4.93e-3, 8192u64);
        let sizes = [1024u64, 4096, 8192, 65_536, 262_144, 524_288, 1_048_576];
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| {
                let t =
                    (n - 1) as f64 * (h.p2p_time(m) * gamma + if m >= cut { delta } else { 0.0 });
                (m, t)
            })
            .collect();
        let sig = ContentionSignature::fit(h, n, &samples).unwrap();
        assert!((sig.gamma - gamma).abs() < 1e-6, "gamma = {}", sig.gamma);
        assert!((sig.delta_secs - delta).abs() < 1e-9);
        assert_eq!(sig.cutoff_bytes, Some(cut));
        assert!(sig.fit_r_squared > 0.999999);
    }

    #[test]
    fn fit_without_step_finds_pure_gamma() {
        // The Myrinet case: δ below measurement noise → pure ratio.
        let h = HockneyParams::new(10e-6, 4e-9);
        let n = 24;
        let sizes = [65_536u64, 131_072, 262_144, 524_288, 1_048_576];
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| (m, h.alltoall_lower_bound(n, m) * 2.49754))
            .collect();
        let sig = ContentionSignature::fit(h, n, &samples).unwrap();
        assert!((sig.gamma - 2.49754).abs() < 1e-9);
        assert_eq!(sig.cutoff_bytes, None);
        assert_eq!(sig.delta_secs, 0.0);
    }

    #[test]
    fn prediction_extrapolates_across_n() {
        let h = gige_hockney();
        let sig = ContentionSignature {
            hockney: h,
            gamma: 4.3628,
            delta_secs: 4.93e-3,
            cutoff_bytes: Some(8192),
            sample_n: 40,
            fit_r_squared: 1.0,
        };
        // Eq. 5 by hand at n = 16, m = 1 MiB.
        let m = 1_048_576u64;
        let expected = 15.0 * (h.p2p_time(m) * 4.3628 + 4.93e-3);
        assert!((sig.predict(16, m) - expected).abs() < 1e-12);
        // Below the cutoff, no δ.
        let expected_small = 15.0 * h.p2p_time(4096) * 4.3628;
        assert!((sig.predict(16, 4096) - expected_small).abs() < 1e-12);
        assert!(sig.delta_active(8192));
        assert!(!sig.delta_active(4096));
    }

    #[test]
    fn gamma_one_delta_zero_equals_lower_bound() {
        let h = gige_hockney();
        let sig = ContentionSignature {
            hockney: h,
            gamma: 1.0,
            delta_secs: 0.0,
            cutoff_bytes: None,
            sample_n: 8,
            fit_r_squared: 1.0,
        };
        for &(n, m) in &[(4usize, 1024u64), (24, 65_536), (50, 1_048_576)] {
            assert!((sig.predict(n, m) - sig.lower_bound(n, m)).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_requires_four_points() {
        let h = gige_hockney();
        let samples = vec![(1024u64, 0.1), (2048, 0.2), (4096, 0.4)];
        assert!(matches!(
            ContentionSignature::fit(h, 8, &samples),
            Err(ModelError::InsufficientSamples { needed: 4, .. })
        ));
    }

    #[test]
    fn fit_rejects_non_finite_samples() {
        let h = gige_hockney();
        let samples = vec![
            (1024u64, 0.1),
            (2048, 0.2),
            (4096, f64::INFINITY),
            (8192, 0.8),
        ];
        assert_eq!(
            ContentionSignature::fit(h, 8, &samples),
            Err(ModelError::NonFiniteSamples)
        );
    }

    #[test]
    fn fit_tolerates_measurement_noise() {
        let h = gige_hockney();
        let n = 24;
        let sizes: Vec<u64> = (1..=10).map(|i| i * 131_072).collect();
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let noise = if i % 2 == 0 { 1.03 } else { 0.97 };
                (m, h.alltoall_lower_bound(n, m) * 1.9 * noise)
            })
            .collect();
        let sig = ContentionSignature::fit(h, n, &samples).unwrap();
        assert!((sig.gamma - 1.9).abs() < 0.1, "gamma = {}", sig.gamma);
    }

    fn paper_gige() -> ContentionSignature {
        ContentionSignature {
            hockney: gige_hockney(),
            gamma: 2.0,
            delta_secs: 8.23e-3,
            cutoff_bytes: Some(32 * 1024),
            sample_n: 8,
            fit_r_squared: 1.0,
        }
    }

    #[test]
    fn predict_is_monotone_in_n_and_m() {
        let sig = paper_gige();
        let base = sig.predict(8, 64 * 1024);
        assert!(base > 0.0);
        assert!(sig.predict(16, 64 * 1024) > base);
        assert!(sig.predict(8, 1024 * 1024) > base);
    }

    #[test]
    fn predict_is_predict_from_over_proposition_1() {
        let sig = paper_gige();
        for n in [0usize, 1, 2, 8, 40] {
            for m in [0u64, 1024, 32 * 1024, 1_048_576] {
                let bound = sig.hockney.alltoall_lower_bound(n, m);
                assert_eq!(
                    sig.predict(n, m).to_bits(),
                    sig.predict_from(bound, n, m).to_bits()
                );
            }
        }
    }

    #[test]
    fn degenerate_n_predicts_zero() {
        let sig = ContentionSignature {
            hockney: gige_hockney(),
            gamma: 2.0,
            delta_secs: 0.0,
            cutoff_bytes: None,
            sample_n: 8,
            fit_r_squared: 1.0,
        };
        assert_eq!(sig.predict(1, 1024), 0.0);
    }
}
