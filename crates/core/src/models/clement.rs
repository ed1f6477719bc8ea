//! Clement, Steed and Crandall's shared-network contention factor
//! (paper eq. 2).

use super::CompletionModel;

/// Clement et al. model a transmission on a shared (non-switched) network
/// as `T = l + b·γ/W` with the contention factor `γ` equal to the number of
/// communicating processes — all `n` processes share the single medium.
/// Applied to the All-to-All's `n−1` rounds:
///
/// ```text
/// T(n, m) = (n−1) · (l + m·n / W)
/// ```
///
/// Accurate on hubs and bus networks; pessimistic on switched fabrics,
/// which is exactly the gap the paper's measured signature closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClementModel {
    /// Link latency `l` in seconds.
    pub latency_secs: f64,
    /// Link bandwidth `W` in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl ClementModel {
    /// Builds the model from link latency and bandwidth.
    ///
    /// # Panics
    /// Panics on non-positive bandwidth.
    pub fn new(latency_secs: f64, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0);
        Self {
            latency_secs,
            bandwidth_bytes_per_sec,
        }
    }
}

impl CompletionModel for ClementModel {
    fn name(&self) -> &'static str {
        "clement-shared"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let gamma = n as f64; // all processes share the medium
        (n - 1) as f64 * (self.latency_secs + m as f64 * gamma / self.bandwidth_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_factor_scales_with_n() {
        let model = ClementModel::new(0.0, 1e8);
        let t4 = model.predict(4, 1_000_000);
        let t8 = model.predict(8, 1_000_000);
        // (n−1)·n scaling: 8·7 / (4·3) = 14/3 ≈ 4.67.
        assert!((t8 / t4 - 56.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_n() {
        assert_eq!(ClementModel::new(1e-6, 1e8).predict(1, 100), 0.0);
    }
}
