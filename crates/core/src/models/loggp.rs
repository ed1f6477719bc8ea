//! A LogGP-based All-to-All model (related work: LoGPC's base model).

use super::CompletionModel;

/// LogGP parameters: latency `L`, per-message overhead `o`, per-message gap
/// `g`, per-byte gap `G`. The direct-exchange All-to-All under 1-port
/// sending is gap-limited:
///
/// ```text
/// T(n, m) = (n−1) · max(g, o + m·G) + L + o
/// ```
///
/// Like the Hockney-based eq. 1, this is contention-blind (LoGPC's
/// contention extension required a k-ary n-cube analysis the paper deems
/// impractical, which motivates the measured-signature approach).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpModel {
    /// Network latency `L` in seconds.
    pub latency_secs: f64,
    /// Per-message CPU overhead `o` in seconds.
    pub overhead_secs: f64,
    /// Minimum inter-message gap `g` in seconds.
    pub gap_secs: f64,
    /// Per-byte gap `G` in seconds.
    pub gap_per_byte_secs: f64,
}

impl LogGpModel {
    /// Builds the model from the four LogGP parameters.
    pub fn new(
        latency_secs: f64,
        overhead_secs: f64,
        gap_secs: f64,
        gap_per_byte_secs: f64,
    ) -> Self {
        Self {
            latency_secs,
            overhead_secs,
            gap_secs,
            gap_per_byte_secs,
        }
    }
}

impl CompletionModel for LogGpModel {
    fn name(&self) -> &'static str {
        "loggp"
    }

    fn predict(&self, n: usize, m: u64) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let per_message =
            (self.overhead_secs + m as f64 * self.gap_per_byte_secs).max(self.gap_secs);
        (n - 1) as f64 * per_message + self.latency_secs + self.overhead_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_gap_limited() {
        let model = LogGpModel::new(10e-6, 1e-6, 20e-6, 1e-9);
        // o + mG = 1µs + 1µs ≪ g = 20µs → gap dominates.
        let t = model.predict(5, 1000);
        assert!((t - (4.0 * 20e-6 + 10e-6 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn large_messages_are_bandwidth_limited() {
        let model = LogGpModel::new(10e-6, 1e-6, 20e-6, 1e-9);
        let t = model.predict(5, 1_000_000);
        assert!((t - (4.0 * (1e-6 + 1e-3) + 10e-6 + 1e-6)).abs() < 1e-12);
    }
}
