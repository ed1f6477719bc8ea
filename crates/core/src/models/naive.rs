//! The contention-blind baseline (paper eq. 1).

use super::CompletionModel;
use crate::hockney::HockneyParams;

/// Christara / Pjesivac-Grbovic-style model: the All-to-All as `n−1`
/// parallel scatters, `T = (n−1)·(α + β·m)` — identical to the Proposition 1
/// lower bound, and therefore systematically optimistic once the network
/// saturates. This is the model the contention signature corrects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveLinearModel {
    params: HockneyParams,
}

impl NaiveLinearModel {
    /// Builds the model from Hockney parameters.
    pub fn new(params: HockneyParams) -> Self {
        Self { params }
    }

    /// The underlying Hockney parameters.
    pub fn params(&self) -> &HockneyParams {
        &self.params
    }
}

impl CompletionModel for NaiveLinearModel {
    fn name(&self) -> &'static str {
        "naive-linear"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        self.params.alltoall_lower_bound(n, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_lower_bound() {
        let h = HockneyParams::new(60e-6, 8e-8);
        let model = NaiveLinearModel::new(h);
        assert_eq!(model.predict(24, 65536), h.alltoall_lower_bound(24, 65536));
    }
}
