//! Labarta et al.'s bus-serialization approximation (DiP / Dimemas).

use super::CompletionModel;
use crate::hockney::HockneyParams;

/// Labarta et al. approximate contention by assuming that when `k` messages
/// are ready and only `b` "buses" exist, the messages serialize into
/// `⌈k/b⌉` communication waves. In each All-to-All round, all `n` processes
/// have a message ready, so:
///
/// ```text
/// T(n, m) = (n−1) · ⌈n/b⌉ · (α + β·m)
/// ```
///
/// With `b ≥ n` this degenerates to the naive linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabartaModel {
    params: HockneyParams,
    /// Number of simultaneously usable "buses" (crossbar paths).
    pub buses: usize,
}

impl LabartaModel {
    /// Builds the model.
    ///
    /// # Panics
    /// Panics if `buses == 0`.
    pub fn new(params: HockneyParams, buses: usize) -> Self {
        assert!(buses > 0, "at least one bus");
        Self { params, buses }
    }
}

impl CompletionModel for LabartaModel {
    fn name(&self) -> &'static str {
        "labarta-waves"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let waves = n.div_ceil(self.buses) as f64;
        (n - 1) as f64 * waves * self.params.p2p_time(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enough_buses_degenerates_to_naive() {
        let h = HockneyParams::new(1e-6, 1e-9);
        let model = LabartaModel::new(h, 64);
        assert_eq!(model.predict(8, 1000), h.alltoall_lower_bound(8, 1000));
    }

    #[test]
    fn wave_count_ceils() {
        let h = HockneyParams::new(0.0, 1e-9);
        let model = LabartaModel::new(h, 3);
        // n = 7 → ⌈7/3⌉ = 3 waves.
        let expected = 6.0 * 3.0 * h.p2p_time(100);
        assert!((model.predict(7, 100) - expected).abs() < 1e-15);
    }
}
