//! The interface every All-to-All completion-time model implements.
//!
//! [`CompletionModel`]: given a process count `n` and a per-pair message
//! size `m`, predict the collective's completion time. The paper's three
//! predictors implement it — the §6 throughput model, the §7 contention
//! signature and the saturation ramp.

/// A model predicting All-to-All completion time.
pub trait CompletionModel {
    /// Short identifier used in benchmark and experiment output.
    fn name(&self) -> &'static str;

    /// Predicted completion time in seconds for `n` processes exchanging
    /// `m`-byte messages.
    fn predict(&self, n: usize, m: u64) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hockney::HockneyParams;
    use crate::saturation::SaturationModel;
    use crate::signature::ContentionSignature;
    use crate::throughput::ThroughputModel;

    fn models() -> Vec<Box<dyn CompletionModel>> {
        let hockney = HockneyParams::new(50e-6, 8.5e-9);
        vec![
            Box::new(ThroughputModel::new(50e-6, 8.502e-9, 8.498189e-8, 0.5)),
            Box::new(ContentionSignature {
                hockney,
                gamma: 2.0,
                delta_secs: 8.23e-3,
                cutoff_bytes: Some(32 * 1024),
                sample_n: 8,
                fit_r_squared: 1.0,
            }),
            Box::new(SaturationModel {
                hockney,
                gamma_saturated: 3.0,
                n_half: 8.0,
                rss: 0.0,
            }),
        ]
    }

    /// Every model must be monotone in both n and m on sane inputs.
    #[test]
    fn all_models_are_monotone() {
        for model in &models() {
            let base = model.predict(8, 64 * 1024);
            assert!(base > 0.0, "{}", model.name());
            assert!(
                model.predict(16, 64 * 1024) > base,
                "{} not monotone in n",
                model.name()
            );
            assert!(
                model.predict(8, 1024 * 1024) > base,
                "{} not monotone in m",
                model.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let models = models();
        let names: std::collections::HashSet<_> = models.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), models.len());
    }
}
