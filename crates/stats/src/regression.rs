//! Ordinary least squares.
//!
//! The paper obtains its contention parameters "through a linear regression
//! with the Generalized Least Squares method, comparing at least four
//! measurement points" (§8). Every fit in this workspace — the Hockney α/β
//! fit and each candidate breakpoint of the signature fit — weights its
//! points equally, i.e. runs the identity-covariance special case, [`ols`].

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
    fn predict_matches_design_row() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 5.0, 7.0]; // y = 1 + 2x
        let (_, _, fit) = simple_affine(&x, &y).unwrap();
        assert!((fit.predict(&[1.0, 10.0]) - 21.0).abs() < 1e-9);
    }
}
