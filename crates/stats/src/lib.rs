//! Statistics and least-squares machinery for the contention-model workspace.
//!
//! The paper fits its contention signature "through a linear regression with
//! the Generalized Least Squares method, comparing at least four measurement
//! points" (§8). This crate provides the equal-weight case every fit here
//! runs, from scratch:
//!
//! * [`descriptive`] — one-pass summaries and quantiles;
//! * [`matrix`] — a small dense matrix with a Cholesky solve;
//! * [`regression`] — ordinary least squares;
//! * [`piecewise`] — the piecewise-affine fit with breakpoint search used to
//!   recover the paper's `(γ, δ, M)` signature.
//!
//! Everything is `f64`-based and allocation-light; fitting a signature from a
//! dozen measurement points is microseconds of work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod error;
pub mod matrix;
pub mod piecewise;
pub mod regression;

pub use descriptive::Summary;
pub use error::StatsError;
pub use matrix::Matrix;
pub use piecewise::{PiecewiseAffineFit, PiecewiseSpec};
pub use regression::{ols, LinearFit};
