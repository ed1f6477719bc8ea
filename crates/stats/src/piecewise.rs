//! Piecewise-affine least squares with breakpoint search.
//!
//! The contention-signature model (paper §7, eq. 5) is
//!
//! ```text
//! T(m) = γ·L(m)              if m <  M
//! T(m) = γ·L(m) + δ·s        if m ≥  M
//! ```
//!
//! where `L(m)` is the contention-free lower bound and `s` the per-round
//! multiplier of the start-up overhead (the paper uses `s = n−1`: "each
//! simultaneous communication induces an overload of 8.23 ms"). Given
//! measurements at one node count, this module fits `(γ, δ)` by least
//! squares for every candidate breakpoint `M` drawn from the observed
//! message sizes and selects the breakpoint by AIC, so a pure-linear model
//! (Myrinet: δ ≈ 0) is preferred when the step buys nothing.

use crate::error::StatsError;
use crate::matrix::Matrix;
use crate::regression::ols;

/// Inputs for the piecewise fit. All slices are indexed per observation.
#[derive(Debug, Clone, Copy)]
pub struct PiecewiseSpec<'a> {
    /// Abscissa used for breakpoint ordering (message size `m_i`).
    pub abscissa: &'a [f64],
    /// Multiplier of the slope coefficient γ (the lower bound `L(m_i)`).
    pub slope_basis: &'a [f64],
    /// Multiplier of the step coefficient δ once `m_i ≥ M` (typically `n−1`).
    pub step_basis: &'a [f64],
    /// Observed completion times `T_i`.
    pub observations: &'a [f64],
}

/// Result of the piecewise fit.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseAffineFit {
    /// Slope coefficient (the contention ratio γ).
    pub gamma: f64,
    /// Step coefficient (the per-round start-up overhead δ, in observation
    /// units); zero when no breakpoint was selected.
    pub delta: f64,
    /// Chosen breakpoint `M`; `None` when the pure-linear model won.
    pub cutoff: Option<f64>,
    /// Residual sum of squares of the winning model.
    pub rss: f64,
    /// R² of the winning model.
    pub r_squared: f64,
}

impl PiecewiseAffineFit {
    /// Evaluates the fitted model for one point.
    pub fn predict(&self, abscissa: f64, slope_basis: f64, step_basis: f64) -> f64 {
        let step = match self.cutoff {
            Some(m) if abscissa >= m => self.delta * step_basis,
            _ => 0.0,
        };
        self.gamma * slope_basis + step
    }
}

fn aic(n: usize, rss: f64, k: usize) -> f64 {
    // Gaussian-likelihood AIC up to constants; guard rss=0 exact fits.
    let n_f = n as f64;
    n_f * (rss.max(1e-300) / n_f).ln() + 2.0 * k as f64
}

/// Fits the piecewise model, searching breakpoints over the distinct
/// abscissa values. Set `nonnegative_delta` to reject step fits with δ < 0
/// (a "negative start-up cost" is physically meaningless in the paper's
/// model, and arises only from noise).
pub fn fit_piecewise(
    spec: &PiecewiseSpec<'_>,
    nonnegative_delta: bool,
) -> Result<PiecewiseAffineFit, StatsError> {
    let n = spec.observations.len();
    if spec.abscissa.len() != n || spec.slope_basis.len() != n || spec.step_basis.len() != n {
        return Err(StatsError::LengthMismatch {
            left: spec.abscissa.len(),
            right: n,
        });
    }
    // The paper: "comparing at least four measurement points in order to
    // better fit the performance curve".
    if n < 4 {
        return Err(StatsError::InsufficientData { needed: 4, got: n });
    }
    if spec
        .abscissa
        .iter()
        .chain(spec.slope_basis)
        .chain(spec.step_basis)
        .chain(spec.observations)
        .any(|v| !v.is_finite())
    {
        return Err(StatsError::NonFiniteInput);
    }

    // Candidate 0: pure proportional model T = γ·L.
    let rows: Vec<Vec<f64>> = spec.slope_basis.iter().map(|&l| vec![l]).collect();
    let design = Matrix::from_rows(&rows)?;
    let linear = ols(&design, spec.observations)?;
    let mut best = PiecewiseAffineFit {
        gamma: linear.coefficients[0],
        delta: 0.0,
        cutoff: None,
        rss: linear.rss,
        r_squared: linear.r_squared,
    };
    let mut best_aic = aic(n, linear.rss, 1);

    // Candidate breakpoints: every distinct abscissa value. A breakpoint at
    // the minimum means every observation pays the step (the Fast Ethernet
    // case, where M is below the sampled sizes).
    let mut cutoffs: Vec<f64> = spec.abscissa.to_vec();
    cutoffs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cutoffs.dedup();

    for &m_cut in &cutoffs {
        let active: usize = spec.abscissa.iter().filter(|&&a| a >= m_cut).count();
        if active < 2 {
            continue; // a single stepped point cannot constrain δ
        }
        let rows: Vec<Vec<f64>> = spec
            .abscissa
            .iter()
            .zip(spec.slope_basis)
            .zip(spec.step_basis)
            .map(|((&a, &l), &s)| vec![l, if a >= m_cut { s } else { 0.0 }])
            .collect();
        let design = Matrix::from_rows(&rows)?;
        let fit = match ols(&design, spec.observations) {
            Ok(f) => f,
            Err(StatsError::SingularMatrix) => continue, // step column ∝ slope
            Err(e) => return Err(e),
        };
        let delta = fit.coefficients[1];
        if nonnegative_delta && delta < 0.0 {
            continue;
        }
        let candidate_aic = aic(n, fit.rss, 2);
        if candidate_aic < best_aic {
            best_aic = candidate_aic;
            best = PiecewiseAffineFit {
                gamma: fit.coefficients[0],
                delta,
                cutoff: Some(m_cut),
                rss: fit.rss,
                r_squared: fit.r_squared,
            };
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(
        abscissa: &'a [f64],
        slope: &'a [f64],
        step: &'a [f64],
        obs: &'a [f64],
    ) -> PiecewiseSpec<'a> {
        PiecewiseSpec {
            abscissa,
            slope_basis: slope,
            step_basis: step,
            observations: obs,
        }
    }

    #[test]
    fn pure_linear_data_selects_no_cutoff() {
        let m: Vec<f64> = (1..=8).map(|i| i as f64 * 1000.0).collect();
        let l: Vec<f64> = m.iter().map(|&v| 2.0 + v * 0.001).collect();
        let s = vec![23.0; 8];
        let obs: Vec<f64> = l.iter().map(|&v| 2.5 * v).collect();
        let fit = fit_piecewise(&spec(&m, &l, &s, &obs), true).unwrap();
        assert!(fit.cutoff.is_none());
        assert!((fit.gamma - 2.5).abs() < 1e-9);
        assert_eq!(fit.delta, 0.0);
    }

    #[test]
    fn recovers_step_and_cutoff() {
        // γ = 4.36, δ = 0.005 per unit step basis, M = 8192.
        let m: Vec<f64> = vec![1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 65536.0, 262144.0];
        let l: Vec<f64> = m.iter().map(|&v| 39.0 * (50e-6 + v * 8.5e-9)).collect();
        let s = vec![39.0; m.len()];
        let obs: Vec<f64> = m
            .iter()
            .zip(&l)
            .map(|(&mi, &li)| 4.36 * li + if mi >= 8192.0 { 0.005 * 39.0 } else { 0.0 })
            .collect();
        let fit = fit_piecewise(&spec(&m, &l, &s, &obs), true).unwrap();
        assert_eq!(fit.cutoff, Some(8192.0));
        assert!((fit.gamma - 4.36).abs() < 1e-6, "gamma = {}", fit.gamma);
        assert!((fit.delta - 0.005).abs() < 1e-9, "delta = {}", fit.delta);
    }

    #[test]
    fn cutoff_at_minimum_means_all_points_stepped() {
        // Affine everywhere: T = γL + δs for every point.
        let m: Vec<f64> = vec![16.0, 32.0, 64.0, 128.0, 256.0];
        let l: Vec<f64> = m.iter().map(|&v| v * 0.01).collect();
        let s = vec![23.0; m.len()];
        let obs: Vec<f64> = l.iter().map(|&li| 1.02 * li + 0.00823 * 23.0).collect();
        let fit = fit_piecewise(&spec(&m, &l, &s, &obs), true).unwrap();
        assert_eq!(fit.cutoff, Some(16.0));
        assert!((fit.gamma - 1.02).abs() < 1e-6);
        assert!((fit.delta - 0.00823).abs() < 1e-9);
    }

    #[test]
    fn nonnegative_constraint_rejects_negative_step() {
        let m: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let l = m.clone();
        let s = vec![1.0; m.len()];
        // Step *down* after m ≥ 4 — disallowed, so expect the plain fit.
        let obs: Vec<f64> = m
            .iter()
            .map(|&mi| 2.0 * mi - if mi >= 4.0 { 1.0 } else { 0.0 })
            .collect();
        let constrained = fit_piecewise(&spec(&m, &l, &s, &obs), true).unwrap();
        assert!(constrained.delta >= 0.0);
        let unconstrained = fit_piecewise(&spec(&m, &l, &s, &obs), false).unwrap();
        assert_eq!(unconstrained.cutoff, Some(4.0));
        assert!(unconstrained.delta < 0.0);
        assert!(unconstrained.rss <= constrained.rss);
    }

    #[test]
    fn too_few_points_rejected() {
        let m = [1.0, 2.0, 3.0];
        let fit = fit_piecewise(&spec(&m, &m, &m, &m), true);
        assert!(matches!(fit, Err(StatsError::InsufficientData { .. })));
    }

    #[test]
    fn predict_applies_step_only_at_or_above_cutoff() {
        let fit = PiecewiseAffineFit {
            gamma: 2.0,
            delta: 0.5,
            cutoff: Some(10.0),
            rss: 0.0,
            r_squared: 1.0,
        };
        assert_eq!(fit.predict(5.0, 1.0, 4.0), 2.0);
        assert_eq!(fit.predict(10.0, 1.0, 4.0), 4.0);
        assert_eq!(fit.predict(20.0, 3.0, 4.0), 8.0);
    }

    #[test]
    fn noisy_step_data_still_close() {
        let m: Vec<f64> = (1..=12).map(|i| i as f64 * 8192.0).collect();
        let l: Vec<f64> = m.iter().map(|&v| 23.0 * (60e-6 + v * 8e-8)).collect();
        let s = vec![23.0; m.len()];
        let obs: Vec<f64> = m
            .iter()
            .zip(&l)
            .enumerate()
            .map(|(i, (&mi, &li))| {
                let noise = if i % 2 == 0 { 1.002 } else { 0.998 };
                (1.02 * li
                    + if mi >= 3.0 * 8192.0 {
                        0.008 * 23.0
                    } else {
                        0.0
                    })
                    * noise
            })
            .collect();
        let fit = fit_piecewise(&spec(&m, &l, &s, &obs), true).unwrap();
        assert!((fit.gamma - 1.02).abs() < 0.02);
        assert!(fit.cutoff.is_some());
    }
}
