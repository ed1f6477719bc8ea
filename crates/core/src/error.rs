//! Error type for model construction and fitting.

use std::fmt;

/// Errors raised while fitting or evaluating performance models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A measured time (or a signature's lower bound) was NaN or infinite.
    NonFiniteSamples,
    /// The least-squares normal equations were singular: every sample at
    /// one message size, or a lower bound that is zero everywhere.
    SingularFit,
    /// A fitted parameter came out non-physical (e.g. negative bandwidth).
    NonPhysical {
        /// Which parameter.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Not enough measurement points for the requested fit.
    InsufficientSamples {
        /// Minimum required.
        needed: usize,
        /// Provided.
        got: usize,
    },
    /// Inputs contained NaN/inf or were otherwise malformed.
    InvalidInput(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonFiniteSamples => {
                write!(
                    f,
                    "least-squares fit failed: input contains NaN or infinite values"
                )
            }
            ModelError::SingularFit => {
                write!(
                    f,
                    "least-squares fit failed: singular matrix in least-squares solve"
                )
            }
            ModelError::NonPhysical { parameter, value } => {
                write!(f, "non-physical fitted parameter {parameter} = {value}")
            }
            ModelError::InsufficientSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            ModelError::InvalidInput(what) => write!(f, "invalid input: {what}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_failures_keep_their_messages() {
        assert_eq!(
            ModelError::NonFiniteSamples.to_string(),
            "least-squares fit failed: input contains NaN or infinite values"
        );
        assert_eq!(
            ModelError::SingularFit.to_string(),
            "least-squares fit failed: singular matrix in least-squares solve"
        );
    }
}
