//! Least squares for the two fits the models run (§8): Hockney's α/β over
//! the design `[1, m]`, and each candidate of the signature's breakpoint
//! search over `[L]` or `[L, step]`. The paper asks for "a linear
//! regression with the Generalized Least Squares method"; every fit here
//! weights its points equally, so that is ordinary least squares, solved
//! through the normal equations `XᵀX c = Xᵀy` by Cholesky on fixed-size
//! arrays of one or two regressors.

/// A least-squares fit `y ≈ X·c` over `P` regressors.
#[derive(Debug, PartialEq)]
pub(crate) struct LeastSquares<const P: usize> {
    /// One coefficient per design column.
    pub coefficients: [f64; P],
    /// Residual sum of squares.
    pub rss: f64,
    /// R² = 1 − RSS/TSS; 1 for constant observations.
    pub r_squared: f64,
}

/// Fits `y ≈ X·c` for the design rows `design` (one per observation).
/// `None` when `XᵀX` is not positive definite: collinear columns, a zero
/// column, fewer distinct rows than regressors, or an overflow.
pub(crate) fn least_squares<const P: usize>(
    design: &[[f64; P]],
    y: &[f64],
) -> Option<LeastSquares<P>> {
    debug_assert_eq!(design.len(), y.len());
    // XᵀX accumulated row by row; a zero entry adds nothing and is skipped.
    let mut xtx = [[0.0; P]; P];
    for (i, out) in xtx.iter_mut().enumerate() {
        for row in design {
            let a = row[i];
            if a == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(row) {
                *o += a * x;
            }
        }
    }
    let xty: [f64; P] =
        std::array::from_fn(|i| design.iter().zip(y).map(|(row, v)| row[i] * v).sum());
    let coefficients = cholesky_solve(&xtx, &xty)?;

    let rss: f64 = design
        .iter()
        .zip(y)
        .map(|(row, obs)| {
            let fitted: f64 = row.iter().zip(&coefficients).map(|(a, c)| a * c).sum();
            let r = obs - fitted;
            r * r
        })
        .sum();
    let mean_y = y.iter().sum::<f64>() / y.len() as f64;
    let tss: f64 = y.iter().map(|v| (v - mean_y) * (v - mean_y)).sum();
    let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };
    Some(LeastSquares {
        coefficients,
        rss,
        r_squared,
    })
}

/// Solves `a·x = b` for symmetric positive-definite `a`: `a = L·Lᵀ`, then
/// forward and back substitution. `None` on a non-positive or non-finite
/// pivot.
#[allow(clippy::needless_range_loop)] // the triangular index bounds are the algorithm
fn cholesky_solve<const P: usize>(a: &[[f64; P]; P], b: &[f64; P]) -> Option<[f64; P]> {
    let mut l = [[0.0f64; P]; P];
    for i in 0..P {
        for j in 0..=i {
            let mut sum = a[i][j];
            for k in 0..j {
                sum -= l[i][k] * l[j][k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[i][i] = sum.sqrt();
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    // Forward substitution: L z = b.
    let mut z = [0.0f64; P];
    for i in 0..P {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i][k] * z[k];
        }
        z[i] = sum / l[i][i];
    }
    // Back substitution: Lᵀ x = z.
    let mut x = [0.0f64; P];
    for i in (0..P).rev() {
        let mut sum = z[i];
        for k in (i + 1)..P {
            sum -= l[k][i] * x[k];
        }
        x[i] = sum / l[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn affine(x: &[f64], y: &[f64]) -> Option<LeastSquares<2>> {
        let design: Vec<[f64; 2]> = x.iter().map(|&v| [1.0, v]).collect();
        least_squares(&design, y)
    }

    #[test]
    fn ols_recovers_exact_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 + 3.0 * v).collect();
        let fit = affine(&x, &y).unwrap();
        let [a, b] = fit.coefficients;
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
        let fit = affine(&x, &y).unwrap();
        let [a, b] = fit.coefficients;
        assert!((a - 5.0).abs() < 0.1);
        assert!((b - 0.5).abs() < 0.02);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn underdetermined_system_rejected() {
        assert_eq!(least_squares(&[[1.0, 2.0]], &[1.0]), None);
    }

    #[test]
    fn collinear_design_rejected() {
        // Second column is 2× the first.
        let design = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]];
        assert_eq!(least_squares(&design, &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a = [[4.0, 2.0], [2.0, 3.0]];
        let [x0, x1] = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        assert!((4.0 * x0 + 2.0 * x1 - 10.0).abs() < 1e-10);
        assert!((2.0 * x0 + 3.0 * x1 - 8.0).abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        assert_eq!(cholesky_solve(&[[0.0, 1.0], [1.0, 0.0]], &[1.0, 1.0]), None);
    }

    proptest! {
        /// The residuals are orthogonal to both regressors: the normal
        /// equations, checked directly.
        #[test]
        fn ols_residuals_orthogonal_to_design(
            points in prop::collection::vec((-100.0f64..100.0, -1e6f64..1e6), 3..40),
        ) {
            let (x, y): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
            // Skip degenerate (all-equal x) designs.
            let Some(fit) = affine(&x, &y) else { return Ok(()); };
            let [a, b] = fit.coefficients;
            let residuals: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| yi - (a + b * xi)).collect();
            for column in [vec![1.0; x.len()], x] {
                let dot: f64 = column.iter().zip(&residuals).map(|(c, r)| c * r).sum();
                let scale: f64 = column.iter().map(|c| c.abs()).sum::<f64>() + 1.0;
                prop_assert!(dot.abs() / scale < 1e-6, "dot {}", dot);
            }
        }
    }
}
