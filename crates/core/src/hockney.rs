//! Hockney's point-to-point transmission model and the paper's lower bound.
//!
//! The paper's transmission model (§4): sending `w` bytes costs
//! `α + w·β`, where `α` is the start-up latency and `1/β` the link
//! bandwidth. Proposition 1 then bounds the All-to-All:
//!
//! > If message forwarding is not allowed, and all messages have size m, and
//! > both bandwidth and latency are identical (for) any connection, the time
//! > to complete a total exchange is at least `(n−1)·α + (n−1)·β·m`.

use crate::error::ModelError;
use crate::regression::least_squares;

/// Hockney parameters: start-up `α` (seconds) and gap `β` (seconds/byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HockneyParams {
    /// Per-message start-up latency in seconds.
    pub alpha_secs: f64,
    /// Per-byte gap (inverse bandwidth) in seconds.
    pub beta_secs_per_byte: f64,
}

impl HockneyParams {
    /// Constructs parameters directly.
    ///
    /// # Panics
    /// Panics on negative or non-finite values — these are programmer
    /// errors, not data-dependent conditions ([`HockneyParams::fit`] returns
    /// errors instead).
    pub fn new(alpha_secs: f64, beta_secs_per_byte: f64) -> Self {
        assert!(alpha_secs >= 0.0 && alpha_secs.is_finite());
        assert!(beta_secs_per_byte >= 0.0 && beta_secs_per_byte.is_finite());
        Self {
            alpha_secs,
            beta_secs_per_byte,
        }
    }

    /// Point-to-point time for `bytes`: `α + bytes·β`.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        self.alpha_secs + bytes as f64 * self.beta_secs_per_byte
    }

    /// Proposition 1: the contention-free All-to-All lower bound
    /// `(n−1)·(α + m·β)` for `n` processes and `m`-byte messages.
    pub fn alltoall_lower_bound(&self, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        (n - 1) as f64 * self.p2p_time(m)
    }

    /// Fits `α`, `β` from one-way point-to-point measurements
    /// `(size, seconds)` by ordinary least squares.
    ///
    /// Rejects fits that produce a negative bandwidth term; a slightly
    /// negative intercept (possible when all sampled sizes are large) is
    /// clamped to zero, since `α ≥ 0` by definition.
    pub fn fit(points: &[(u64, f64)]) -> Result<Self, ModelError> {
        if points.len() < 2 {
            return Err(ModelError::InsufficientSamples {
                needed: 2,
                got: points.len(),
            });
        }
        let y: Vec<f64> = points.iter().map(|&(_, t)| t).collect();
        if y.iter().any(|t| !t.is_finite()) {
            return Err(ModelError::NonFiniteSamples);
        }
        let design: Vec<[f64; 2]> = points.iter().map(|&(s, _)| [1.0, s as f64]).collect();
        let [alpha, beta] = least_squares(&design, &y)
            .ok_or(ModelError::SingularFit)?
            .coefficients;
        if beta <= 0.0 {
            return Err(ModelError::NonPhysical {
                parameter: "beta",
                value: beta,
            });
        }
        Ok(Self {
            alpha_secs: alpha.max(0.0),
            beta_secs_per_byte: beta,
        })
    }

    /// Link bandwidth `1/β` in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        1.0 / self.beta_secs_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_time_is_affine() {
        let h = HockneyParams::new(50e-6, 8e-9);
        assert!((h.p2p_time(0) - 50e-6).abs() < 1e-15);
        assert!((h.p2p_time(1_000_000) - (50e-6 + 8e-3)).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_matches_proposition_1() {
        let h = HockneyParams::new(60e-6, 8e-8);
        let n = 24;
        let m = 1_048_576;
        let expected = 23.0 * (60e-6 + 1_048_576.0 * 8e-8);
        assert!((h.alltoall_lower_bound(n, m) - expected).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_degenerate_cases() {
        let h = HockneyParams::new(1e-6, 1e-9);
        assert_eq!(h.alltoall_lower_bound(0, 100), 0.0);
        assert_eq!(h.alltoall_lower_bound(1, 100), 0.0);
        assert!(h.alltoall_lower_bound(2, 100) > 0.0);
    }

    #[test]
    fn fit_recovers_exact_parameters() {
        let h = HockneyParams::new(25e-6, 8.5e-9);
        let points: Vec<(u64, f64)> = [1024u64, 8192, 65536, 1_048_576]
            .iter()
            .map(|&s| (s, h.p2p_time(s)))
            .collect();
        let fitted = HockneyParams::fit(&points).unwrap();
        assert!((fitted.alpha_secs - 25e-6).abs() < 1e-12);
        assert!((fitted.beta_secs_per_byte - 8.5e-9).abs() < 1e-15);
    }

    #[test]
    fn fit_clamps_small_negative_intercept() {
        // All-large sizes with noise can push the intercept slightly below
        // zero; α must stay non-negative.
        let points = vec![
            (1_000_000u64, 0.00850),
            (2_000_000u64, 0.01699),
            (4_000_000u64, 0.03399),
        ];
        let fitted = HockneyParams::fit(&points).unwrap();
        assert!(fitted.alpha_secs >= 0.0);
    }

    #[test]
    fn fit_rejects_negative_bandwidth() {
        let points = vec![(1000u64, 1.0), (2000u64, 0.5), (4000u64, 0.25)];
        assert!(matches!(
            HockneyParams::fit(&points),
            Err(ModelError::NonPhysical {
                parameter: "beta",
                ..
            })
        ));
    }

    #[test]
    fn fit_needs_two_points() {
        assert!(matches!(
            HockneyParams::fit(&[(1000, 0.001)]),
            Err(ModelError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn fit_rejects_non_finite_times() {
        let points = vec![(1000u64, 0.001), (2000u64, f64::NAN), (4000u64, 0.004)];
        assert_eq!(
            HockneyParams::fit(&points),
            Err(ModelError::NonFiniteSamples)
        );
    }

    #[test]
    fn fit_of_one_size_is_singular() {
        let points = vec![(1000u64, 0.001), (1000u64, 0.002), (1000u64, 0.003)];
        assert_eq!(HockneyParams::fit(&points), Err(ModelError::SingularFit));
    }

    #[test]
    fn bandwidth_inverts_beta() {
        let h = HockneyParams::new(0.0, 8e-9);
        assert!((h.bandwidth_bytes_per_sec() - 1.25e8).abs() < 1.0);
    }
}
