//! Ordinary, weighted and generalized least squares.
//!
//! The paper obtains its contention parameters "through a linear regression
//! with the Generalized Least Squares method, comparing at least four
//! measurement points" (§8). [`gls`] implements exactly that; [`ols`] and
//! [`wls`] are the standard special cases (identity / diagonal covariance),
//! used for the Hockney α/β fit and for repetition-count-weighted fits.

use crate::error::StatsError;
use crate::matrix::Matrix;

/// Result of a linear least-squares fit `y ≈ X·coef`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Fitted coefficients, one per design-matrix column.
    pub coefficients: Vec<f64>,
    /// Residuals `y − X·coef` per observation.
    pub residuals: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Coefficient of determination R² (1 − RSS/TSS); 1.0 for a perfect fit
    /// of constant data.
    pub r_squared: f64,
}

impl LinearFit {
    fn from_solution(design: &Matrix, y: &[f64], coefficients: Vec<f64>) -> Self {
        let fitted = design
            .mul_vec(&coefficients)
            .expect("design/coefficient dimensions agree by construction");
        let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(obs, fit)| obs - fit).collect();
        let rss: f64 = residuals.iter().map(|r| r * r).sum();
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let tss: f64 = y.iter().map(|v| (v - mean_y) * (v - mean_y)).sum();
        let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };
        Self {
            coefficients,
            residuals,
            rss,
            r_squared,
        }
    }

    /// Predicted value for one row of regressors.
    pub fn predict(&self, regressors: &[f64]) -> f64 {
        regressors
            .iter()
            .zip(&self.coefficients)
            .map(|(x, c)| x * c)
            .sum()
    }
}

fn validate(design: &Matrix, y: &[f64]) -> Result<(), StatsError> {
    if design.rows() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: design.rows(),
            right: y.len(),
        });
    }
    if design.rows() < design.cols() {
        return Err(StatsError::InsufficientData {
            needed: design.cols(),
            got: design.rows(),
        });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    Ok(())
}

/// Ordinary least squares: solves the normal equations `XᵀX c = Xᵀy`.
pub fn ols(design: &Matrix, y: &[f64]) -> Result<LinearFit, StatsError> {
    validate(design, y)?;
    let xt = design.transpose();
    let xtx = xt.mul(design)?;
    let xty = xt.mul_vec(y)?;
    let coef = xtx.cholesky_solve(&xty)?;
    Ok(LinearFit::from_solution(design, y, coef))
}

/// Weighted least squares with per-observation weights `w_i > 0`
/// (equivalent to a diagonal covariance `Σ = diag(1/w_i)`).
pub fn wls(design: &Matrix, y: &[f64], weights: &[f64]) -> Result<LinearFit, StatsError> {
    validate(design, y)?;
    if weights.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: weights.len(),
            right: y.len(),
        });
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            return Err(StatsError::InvalidWeight { index: i });
        }
    }
    // Whiten: multiply each row and observation by sqrt(w).
    let mut wdesign = Matrix::zeros(design.rows(), design.cols());
    let mut wy = vec![0.0; y.len()];
    for i in 0..design.rows() {
        let s = weights[i].sqrt();
        for j in 0..design.cols() {
            wdesign[(i, j)] = design[(i, j)] * s;
        }
        wy[i] = y[i] * s;
    }
    let fit = ols(&wdesign, &wy)?;
    // Report residuals/R² in the original (unweighted) space.
    Ok(LinearFit::from_solution(design, y, fit.coefficients))
}

/// Generalized least squares with a full observation covariance matrix `Σ`:
/// solves `XᵀΣ⁻¹X c = XᵀΣ⁻¹y`.
///
/// `sigma` must be symmetric positive-definite. With `Σ = I` this reduces to
/// [`ols`]; with diagonal `Σ` it reduces to [`wls`].
pub fn gls(design: &Matrix, y: &[f64], sigma: &Matrix) -> Result<LinearFit, StatsError> {
    validate(design, y)?;
    let n = y.len();
    if sigma.rows() != n || sigma.cols() != n {
        return Err(StatsError::DimensionMismatch {
            context: "gls: covariance must be n×n",
        });
    }
    // Σ⁻¹X column by column, and Σ⁻¹y, via Cholesky solves.
    let mut sinv_x = Matrix::zeros(n, design.cols());
    for j in 0..design.cols() {
        let col: Vec<f64> = (0..n).map(|i| design[(i, j)]).collect();
        let solved = sigma.cholesky_solve(&col)?;
        for i in 0..n {
            sinv_x[(i, j)] = solved[i];
        }
    }
    let sinv_y = sigma.cholesky_solve(y)?;
    let xt = design.transpose();
    let lhs = xt.mul(&sinv_x)?;
    let rhs = xt.mul_vec(&sinv_y)?;
    let coef = lhs.cholesky_solve(&rhs).or_else(|_| lhs.lu_solve(&rhs))?;
    Ok(LinearFit::from_solution(design, y, coef))
}

/// Convenience: fits `y = a + b·x` and returns `(a, b, fit)`.
pub fn simple_affine(x: &[f64], y: &[f64]) -> Result<(f64, f64, LinearFit), StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![1.0, v]).collect();
    let design = Matrix::from_rows(&rows)?;
    let fit = ols(&design, y)?;
    Ok((fit.coefficients[0], fit.coefficients[1], fit))
}

/// Convenience: fits `y = b·x` through the origin and returns `(b, fit)`.
pub fn simple_proportional(x: &[f64], y: &[f64]) -> Result<(f64, LinearFit), StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
    let design = Matrix::from_rows(&rows)?;
    let fit = ols(&design, y)?;
    Ok((fit.coefficients[0], fit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 + 3.0 * v).collect();
        let (a, b, fit) = simple_affine(&x, &y).unwrap();
        assert!((a - 2.0).abs() < 1e-10);
        assert!((b - 3.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ols_on_noisy_line_has_small_residuals() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 5.0 + 0.5 * v + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let (a, b, fit) = simple_affine(&x, &y).unwrap();
        assert!((a - 5.0).abs() < 0.1);
        assert!((b - 0.5).abs() < 0.02);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn proportional_fit_through_origin() {
        let x = [1.0, 2.0, 4.0];
        let y = [2.5, 5.0, 10.0];
        let (b, _) = simple_proportional(&x, &y).unwrap();
        assert!((b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn wls_downweights_outlier() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y: Vec<f64> = x.iter().map(|v| 1.0 * v).collect();
        y[4] = 100.0; // gross outlier
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let design = Matrix::from_rows(&rows).unwrap();
        let heavy = wls(&design, &y, &[1.0, 1.0, 1.0, 1.0, 1e-9]).unwrap();
        assert!((heavy.coefficients[0] - 1.0).abs() < 1e-3);
        let uniform = ols(&design, &y).unwrap();
        assert!(uniform.coefficients[0] > 2.0); // outlier drags OLS away
    }

    #[test]
    fn gls_with_identity_matches_ols() {
        let x = [1.0, 2.0, 3.0, 5.0, 8.0];
        let y = [2.0, 4.1, 5.9, 10.2, 16.1];
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![1.0, v]).collect();
        let design = Matrix::from_rows(&rows).unwrap();
        let fit_ols = ols(&design, &y).unwrap();
        let fit_gls = gls(&design, &y, &Matrix::identity(5)).unwrap();
        for (a, b) in fit_ols.coefficients.iter().zip(&fit_gls.coefficients) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn gls_with_correlated_noise_still_recovers_signal() {
        // y = 3x with an AR-like covariance; GLS should land near 3.
        let x: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let n = x.len();
        let mut sigma = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                sigma[(i, j)] = 0.5f64.powi((i as i32 - j as i32).abs()) * 2.0;
            }
        }
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let design = Matrix::from_rows(&rows).unwrap();
        let fit = gls(&design, &y, &sigma).unwrap();
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn underdetermined_system_rejected() {
        let design = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            ols(&design, &[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn collinear_design_rejected() {
        // Second column is 2× the first.
        let design = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        assert_eq!(
            ols(&design, &[1.0, 2.0, 3.0]),
            Err(StatsError::SingularMatrix)
        );
    }

    #[test]
    fn invalid_weights_rejected() {
        let design = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            wls(&design, &[1.0, 2.0], &[1.0, 0.0]),
            Err(StatsError::InvalidWeight { index: 1 })
        ));
        assert!(matches!(
            wls(&design, &[1.0, 2.0], &[1.0, f64::NAN]),
            Err(StatsError::InvalidWeight { index: 1 })
        ));
    }

    #[test]
    fn predict_matches_design_row() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 5.0, 7.0]; // y = 1 + 2x
        let (_, _, fit) = simple_affine(&x, &y).unwrap();
        assert!((fit.predict(&[1.0, 10.0]) - 21.0).abs() < 1e-9);
    }
}
