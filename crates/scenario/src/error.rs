//! The session-level error hierarchy.
//!
//! [`SpecError`] stays the spec layer's error (a
//! TOML document or a builder chain that does not describe a runnable
//! scenario); [`CtnError`] is what the [`Session`](crate::session::Session)
//! facade returns, classifying every failure by the *phase* it happened
//! in — spec construction, session configuration, or calibration — so
//! embedders can branch on the variant instead of parsing strings. A cell
//! that fails is not an error: it is a status row in the report (see
//! [`CellStatus`](crate::executor::CellStatus)).

use crate::spec::SpecError;

/// Any failure a [`Session`](crate::session::Session) run can produce.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtnError {
    /// The scenario description itself is unusable (TOML parse error,
    /// missing field, inconsistent grid, unknown algorithm, …).
    Spec(SpecError),
    /// The session configuration (not any scenario) is unusable — e.g.
    /// zero workers.
    Config {
        /// What is wrong with the configuration.
        detail: String,
    },
    /// A calibration on the scenario's fabric failed (Hockney ping-pong
    /// fit, contention-signature or saturation regression).
    Calibration {
        /// Scenario whose calibration failed.
        scenario: String,
        /// What went wrong, human-readable.
        detail: String,
    },
    /// The run was aborted through its
    /// [`CancelToken`](crate::session::CancelToken) before every cell
    /// finished.
    Cancelled,
}

impl CtnError {
    /// Convenience constructor for [`CtnError::Calibration`].
    pub(crate) fn calibration(scenario: &str, detail: impl Into<String>) -> Self {
        CtnError::Calibration {
            scenario: scenario.to_string(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CtnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtnError::Spec(e) => write!(f, "{e}"),
            CtnError::Config { detail } => write!(f, "invalid session config: {detail}"),
            CtnError::Calibration { scenario, detail } => {
                write!(f, "calibration failed for {scenario:?}: {detail}")
            }
            CtnError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for CtnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtnError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for CtnError {
    fn from(e: SpecError) -> Self {
        CtnError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_classify_and_display() {
        let spec = CtnError::from(SpecError::Invalid("bad grid".into()));
        assert!(matches!(spec, CtnError::Spec(_)));
        assert_eq!(spec.to_string(), "invalid scenario: bad grid");

        let cal = CtnError::calibration("s", "Hockney fit failed");
        assert_eq!(
            cal.to_string(),
            "calibration failed for \"s\": Hockney fit failed"
        );

        let cfg = CtnError::Config {
            detail: "zero workers".into(),
        };
        assert_eq!(cfg.to_string(), "invalid session config: zero workers");
        assert_eq!(CtnError::Cancelled.to_string(), "run cancelled");
    }

    #[test]
    fn source_chains_to_spec_error() {
        use std::error::Error as _;
        let e = CtnError::from(SpecError::Invalid("x".into()));
        assert!(e.source().is_some());
        assert!(CtnError::Cancelled.source().is_none());
    }
}
