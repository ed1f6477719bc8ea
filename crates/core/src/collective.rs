//! Contention signatures for collectives beyond the All-to-All — the
//! paper's stated future work ("we expect to extend our models to other
//! collective communication operations").
//!
//! The methodology transfers unchanged: each collective has a
//! contention-free lower bound built from Hockney parameters; the ratio of
//! measured time to that bound, fitted once, predicts the collective at
//! other scales. What changes per collective is only the bound.

use crate::error::ModelError;
use crate::hockney::HockneyParams;
use contention_stats::regression::simple_proportional;

/// The collective shapes we can bound and fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveShape {
    /// One-to-all, same payload (tree forwarding allowed).
    Broadcast,
    /// One-to-all, personalized blocks.
    Scatter,
    /// All-to-one, personalized blocks.
    Gather,
    /// All-to-all replication of per-rank blocks.
    AllGather,
    /// The total exchange itself (Proposition 1).
    AllToAll,
}

impl CollectiveShape {
    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveShape::Broadcast => "broadcast",
            CollectiveShape::Scatter => "scatter",
            CollectiveShape::Gather => "gather",
            CollectiveShape::AllGather => "allgather",
            CollectiveShape::AllToAll => "alltoall",
        }
    }

    /// Contention-free lower bound for `n` ranks and block size `m`.
    ///
    /// * broadcast: `⌈log₂ n⌉` forwarding steps of `α + mβ` (binomial tree);
    /// * scatter/gather: the root must move `(n−1)·m` bytes through its one
    ///   port plus at least `⌈log₂ n⌉` start-ups;
    /// * all-gather: every rank must receive `(n−1)·m` bytes plus
    ///   `⌈log₂ n⌉` start-ups;
    /// * all-to-all: Proposition 1.
    pub fn lower_bound(&self, params: &HockneyParams, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let log_n = (usize::BITS - (n - 1).leading_zeros()) as f64;
        let alpha = params.alpha_secs;
        let beta = params.beta_secs_per_byte;
        let volume = (n - 1) as f64 * m as f64 * beta;
        match self {
            CollectiveShape::Broadcast => log_n * (alpha + m as f64 * beta),
            CollectiveShape::Scatter | CollectiveShape::Gather => log_n * alpha + volume,
            CollectiveShape::AllGather => log_n * alpha + volume,
            CollectiveShape::AllToAll => params.alltoall_lower_bound(n, m),
        }
    }
}

/// A fitted contention ratio for one collective on one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveSignature {
    /// Which collective.
    pub shape: CollectiveShape,
    /// Hockney parameters the bound uses.
    pub hockney: HockneyParams,
    /// Measured-over-bound ratio.
    pub gamma: f64,
    /// Sample rank count the ratio was fitted at.
    pub sample_n: usize,
    /// Goodness of fit at the sample points.
    pub fit_r_squared: f64,
}

impl CollectiveSignature {
    /// Fits γ by least squares through the origin: `T ≈ γ·bound(m)` over
    /// `(block size, measured seconds)` samples at one rank count.
    pub fn fit(
        shape: CollectiveShape,
        hockney: HockneyParams,
        sample_n: usize,
        samples: &[(u64, f64)],
    ) -> Result<Self, ModelError> {
        if samples.len() < 2 {
            return Err(ModelError::InsufficientSamples {
                needed: 2,
                got: samples.len(),
            });
        }
        let bounds: Vec<f64> = samples
            .iter()
            .map(|&(m, _)| shape.lower_bound(&hockney, sample_n, m))
            .collect();
        let times: Vec<f64> = samples.iter().map(|&(_, t)| t).collect();
        let (gamma, fit) = simple_proportional(&bounds, &times)?;
        if gamma <= 0.0 {
            return Err(ModelError::NonPhysical {
                parameter: "gamma",
                value: gamma,
            });
        }
        Ok(Self {
            shape,
            hockney,
            gamma,
            sample_n,
            fit_r_squared: fit.r_squared,
        })
    }

    /// Predicted completion for `n` ranks and block size `m`.
    pub fn predict(&self, n: usize, m: u64) -> f64 {
        self.shape.lower_bound(&self.hockney, n, m) * self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HockneyParams {
        HockneyParams::new(50e-6, 8e-9)
    }

    #[test]
    fn bounds_scale_sensibly() {
        let h = params();
        let m = 1_000_000;
        // Broadcast is logarithmic in n; scatter is linear in volume.
        let b8 = CollectiveShape::Broadcast.lower_bound(&h, 8, m);
        let b64 = CollectiveShape::Broadcast.lower_bound(&h, 64, m);
        assert!((b64 / b8 - 2.0).abs() < 1e-9, "log2(64)/log2(8) = 2");
        let s8 = CollectiveShape::Scatter.lower_bound(&h, 8, m);
        let s64 = CollectiveShape::Scatter.lower_bound(&h, 64, m);
        assert!(s64 / s8 > 8.0, "scatter volume is (n−1)m");
    }

    #[test]
    fn alltoall_shape_defers_to_proposition_1() {
        let h = params();
        assert_eq!(
            CollectiveShape::AllToAll.lower_bound(&h, 24, 65_536),
            h.alltoall_lower_bound(24, 65_536)
        );
    }

    #[test]
    fn degenerate_n_is_zero() {
        let h = params();
        for shape in [
            CollectiveShape::Broadcast,
            CollectiveShape::Scatter,
            CollectiveShape::Gather,
            CollectiveShape::AllGather,
            CollectiveShape::AllToAll,
        ] {
            assert_eq!(shape.lower_bound(&h, 1, 100), 0.0, "{}", shape.name());
        }
    }

    #[test]
    fn fit_recovers_planted_ratio() {
        let h = params();
        let shape = CollectiveShape::AllGather;
        let gamma = 1.8;
        let samples: Vec<(u64, f64)> = [65_536u64, 262_144, 1_048_576]
            .iter()
            .map(|&m| (m, shape.lower_bound(&h, 16, m) * gamma))
            .collect();
        let sig = CollectiveSignature::fit(shape, h, 16, &samples).unwrap();
        assert!((sig.gamma - gamma).abs() < 1e-9);
        assert!(
            (sig.predict(32, 131_072) - shape.lower_bound(&h, 32, 131_072) * gamma).abs() < 1e-12
        );
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        let h = params();
        assert!(matches!(
            CollectiveSignature::fit(CollectiveShape::Broadcast, h, 8, &[(1024, 0.1)]),
            Err(ModelError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn gather_and_scatter_bounds_match() {
        let h = params();
        assert_eq!(
            CollectiveShape::Scatter.lower_bound(&h, 24, 4096),
            CollectiveShape::Gather.lower_bound(&h, 24, 4096)
        );
    }
}
