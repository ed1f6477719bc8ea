//! Bruck et al.'s slowdown-factor correction.

use super::CompletionModel;
use crate::hockney::HockneyParams;

/// Bruck et al. "suggested the use of a slowdown factor to correct the
/// performance predictions" (§2): an empirically measured multiplier on the
/// contention-free model. Structurally this is the paper's γ without the
/// affine δ refinement — the signature model strictly generalizes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruckSlowdownModel {
    params: HockneyParams,
    /// The measured slowdown multiplier (≥ 1 in practice).
    pub slowdown: f64,
}

impl BruckSlowdownModel {
    /// Builds the model.
    ///
    /// # Panics
    /// Panics on a non-positive slowdown.
    pub fn new(params: HockneyParams, slowdown: f64) -> Self {
        assert!(slowdown > 0.0, "slowdown must be positive");
        Self { params, slowdown }
    }
}

impl CompletionModel for BruckSlowdownModel {
    fn name(&self) -> &'static str {
        "bruck-slowdown"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        self.params.alltoall_lower_bound(n, m) * self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_lower_bound() {
        let h = HockneyParams::new(1e-6, 1e-9);
        let model = BruckSlowdownModel::new(h, 2.5);
        assert!((model.predict(10, 1000) - 2.5 * h.alltoall_lower_bound(10, 1000)).abs() < 1e-15);
    }
}
