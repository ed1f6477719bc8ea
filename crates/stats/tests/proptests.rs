//! Property-based tests for the statistics and fitting machinery.

use contention_stats::descriptive::{quantile, Summary};
use contention_stats::matrix::Matrix;
use contention_stats::piecewise::{fit_piecewise, PiecewiseSpec};
use contention_stats::regression::{ols, simple_affine};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// Quantiles are bounded by the extremes and monotone in q.
    #[test]
    fn quantiles_bounded_and_monotone(data in finite_vec(1..100), qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let s = Summary::of(&data).unwrap();
        let vlo = quantile(&data, lo).unwrap();
        let vhi = quantile(&data, hi).unwrap();
        prop_assert!(vlo >= s.min - 1e-9);
        prop_assert!(vhi <= s.max + 1e-9);
        prop_assert!(vlo <= vhi + 1e-9);
    }

    /// OLS recovers a planted affine relationship exactly (no noise).
    #[test]
    fn ols_recovers_planted_line(
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
        xs in prop::collection::btree_set(-1000i64..1000, 3..30),
    ) {
        let xs: Vec<f64> = xs.into_iter().map(|v| v as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a + b * x).collect();
        let (fa, fb, fit) = simple_affine(&xs, &ys).unwrap();
        prop_assert!((fa - a).abs() < 1e-6 * (1.0 + a.abs()), "a: {} vs {}", fa, a);
        prop_assert!((fb - b).abs() < 1e-6 * (1.0 + b.abs()), "b: {} vs {}", fb, b);
        prop_assert!(fit.rss < 1e-6);
    }

    /// The OLS residuals are orthogonal to every design column (the normal
    /// equations, checked directly).
    #[test]
    fn ols_residuals_orthogonal_to_design(
        rows in prop::collection::vec(
            (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| vec![1.0, x, y]),
            4..40,
        ),
        ys in finite_vec(4..40),
    ) {
        let n = rows.len().min(ys.len());
        let design = Matrix::from_rows(&rows[..n]).unwrap();
        let y = &ys[..n];
        // Skip degenerate (collinear) designs.
        let Ok(fit) = ols(&design, y) else { return Ok(()); };
        for j in 0..design.cols() {
            let dot: f64 = (0..n).map(|i| design[(i, j)] * fit.residuals[i]).sum();
            let scale: f64 = (0..n).map(|i| design[(i, j)].abs()).sum::<f64>() + 1.0;
            prop_assert!(dot.abs() / scale < 1e-6, "column {} dot {}", j, dot);
        }
    }

    /// Cholesky solve really solves: A x = b for random SPD A = LLᵀ + εI.
    #[test]
    fn cholesky_solves_random_spd(
        seedrows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 4), 4),
        b in prop::collection::vec(-100.0f64..100.0, 4),
    ) {
        let l = Matrix::from_rows(&seedrows).unwrap();
        let mut a = l.mul(&l.transpose()).unwrap();
        for i in 0..4 {
            a[(i, i)] += 1.0; // guarantee positive definiteness
        }
        let x = a.cholesky_solve(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        for (bi, bbi) in b.iter().zip(&back) {
            prop_assert!((bi - bbi).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    /// The piecewise fitter recovers a planted (γ, δ, M) signature from
    /// clean data, for any plausible parameter combination.
    #[test]
    fn piecewise_recovers_planted_signature(
        gamma in 0.5f64..8.0,
        delta in 0.0005f64..0.05,
        cut_idx in 1usize..5,
    ) {
        let ms: Vec<f64> = (1..=8).map(|i| (i * 131_072) as f64).collect();
        let cut = ms[cut_idx];
        let slope: Vec<f64> = ms.iter().map(|&m| 23.0 * (60e-6 + m * 8e-8)).collect();
        let step = vec![23.0f64; ms.len()];
        let obs: Vec<f64> = ms
            .iter()
            .zip(&slope)
            .map(|(&m, &l)| gamma * l + if m >= cut { delta * 23.0 } else { 0.0 })
            .collect();
        let fit = fit_piecewise(
            &PiecewiseSpec {
                abscissa: &ms,
                slope_basis: &slope,
                step_basis: &step,
                observations: &obs,
            },
            true,
        )
        .unwrap();
        prop_assert!((fit.gamma - gamma).abs() < 1e-6 * gamma, "gamma {} vs {}", fit.gamma, gamma);
        prop_assert!((fit.delta - delta).abs() < 1e-9 + 1e-6 * delta);
        prop_assert_eq!(fit.cutoff, Some(cut));
    }

    /// Piecewise prediction is monotone in the slope basis for fixed step
    /// state.
    #[test]
    fn piecewise_prediction_monotone(gamma in 0.1f64..10.0, delta in 0.0f64..1.0) {
        let fit = contention_stats::piecewise::PiecewiseAffineFit {
            gamma,
            delta,
            cutoff: Some(100.0),
            rss: 0.0,
            r_squared: 1.0,
        };
        prop_assert!(fit.predict(50.0, 2.0, 1.0) <= fit.predict(50.0, 3.0, 1.0));
        prop_assert!(fit.predict(150.0, 2.0, 1.0) >= fit.predict(50.0, 2.0, 1.0));
    }
}
