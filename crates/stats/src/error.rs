//! Error type shared by the fitting routines.

use std::fmt;

/// Errors produced by the statistics and fitting routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Not enough observations for the requested operation (needed, got).
    InsufficientData {
        /// Minimum number of observations required.
        needed: usize,
        /// Number of observations supplied.
        got: usize,
    },
    /// Input slices that must be the same length were not.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A matrix operation received incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
    /// The normal-equations matrix was singular (collinear regressors,
    /// a zero-variance column, or duplicated abscissae).
    SingularMatrix,
    /// Input contained NaN or infinite values.
    NonFiniteInput,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InsufficientData { needed, got } => {
                write!(
                    f,
                    "insufficient data: need at least {needed} points, got {got}"
                )
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StatsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StatsError::SingularMatrix => write!(f, "singular matrix in least-squares solve"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for StatsError {}
