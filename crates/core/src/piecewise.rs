//! Tests of the piecewise-affine breakpoint search that
//! [`ContentionSignature::fit`](crate::signature::ContentionSignature::fit)
//! runs inline, and of the step its prediction applies: hand-built sweeps
//! with a known ratio, step and cutoff (or none) go through the public fit.

mod tests {
    use crate::error::ModelError;
    use crate::hockney::HockneyParams;
    use crate::signature::ContentionSignature;

    /// Samples `(m, (n−1)·((α + mβ)·γ + δ))` with δ paid from `cut` up.
    fn planted(
        h: HockneyParams,
        n: usize,
        sizes: &[u64],
        (gamma, delta, cut): (f64, f64, u64),
    ) -> Vec<(u64, f64)> {
        sizes
            .iter()
            .map(|&m| {
                let step = if m >= cut { delta } else { 0.0 };
                (m, (n - 1) as f64 * (h.p2p_time(m) * gamma + step))
            })
            .collect()
    }

    #[test]
    fn pure_linear_data_selects_no_cutoff() {
        // T = 2.5·L exactly: no cutoff beats the pure ratio.
        let h = HockneyParams::new(2.0, 0.001);
        let samples: Vec<(u64, f64)> = (1..=8u64)
            .map(|i| i * 1000)
            .map(|m| (m, 2.5 * h.alltoall_lower_bound(2, m)))
            .collect();
        let sig = ContentionSignature::fit(h, 2, &samples).unwrap();
        assert!(sig.cutoff_bytes.is_none());
        assert!((sig.gamma - 2.5).abs() < 1e-9);
        assert_eq!(sig.delta_secs, 0.0);
    }

    #[test]
    fn recovers_step_and_cutoff() {
        // γ = 4.36, δ = 0.005 s per round, M = 8192, at n′ = 40.
        let h = HockneyParams::new(50e-6, 8.5e-9);
        let sizes = [1024u64, 2048, 4096, 8192, 16384, 65536, 262144];
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| {
                let step = if m >= 8192 { 0.005 * 39.0 } else { 0.0 };
                (m, 4.36 * h.alltoall_lower_bound(40, m) + step)
            })
            .collect();
        let sig = ContentionSignature::fit(h, 40, &samples).unwrap();
        assert_eq!(sig.cutoff_bytes, Some(8192));
        assert!((sig.gamma - 4.36).abs() < 1e-6, "gamma = {}", sig.gamma);
        assert!(
            (sig.delta_secs - 0.005).abs() < 1e-9,
            "delta = {}",
            sig.delta_secs
        );
    }

    #[test]
    fn cutoff_at_minimum_means_all_points_stepped() {
        // Affine everywhere: every sample pays δ.
        let h = HockneyParams::new(0.0, 1e-2);
        let samples = planted(h, 24, &[16, 32, 64, 128, 256], (1.02, 0.00823, 16));
        let sig = ContentionSignature::fit(h, 24, &samples).unwrap();
        assert_eq!(sig.cutoff_bytes, Some(16));
        assert!((sig.gamma - 1.02).abs() < 1e-6);
        assert!((sig.delta_secs - 0.00823).abs() < 1e-9);
    }

    #[test]
    fn nonnegative_constraint_rejects_negative_step() {
        // The best unconstrained fit steps *down* from m = 4: δ < 0.
        let h = HockneyParams::new(0.0, 1.0);
        let samples = planted(h, 2, &[1, 2, 3, 4, 5, 6], (2.0, -1.0, 4));
        let sig = ContentionSignature::fit(h, 2, &samples).unwrap();
        assert!(sig.delta_secs >= 0.0);
        assert_ne!(sig.cutoff_bytes, Some(4));
    }

    #[test]
    fn a_step_proportional_to_the_slope_is_skipped() {
        // β = 0 makes the bound constant (exactly 1 here), so the step
        // column of the smallest cutoff, paid by every sample, is 4× the
        // slope column: that candidate is singular and skipped, and the
        // real cutoff is still found.
        let h = HockneyParams::new(0.25, 0.0);
        let samples = planted(h, 5, &[1024, 2048, 4096, 8192], (3.0, 2e-3, 4096));
        let sig = ContentionSignature::fit(h, 5, &samples).unwrap();
        assert_eq!(sig.cutoff_bytes, Some(4096));
        assert!((sig.gamma - 3.0).abs() < 1e-9);
        assert!((sig.delta_secs - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn too_few_points_rejected() {
        // Three points on an exact line are still one short of the search.
        let h = HockneyParams::new(0.0, 1.0);
        let samples = [(1u64, 1.0), (2, 2.0), (3, 3.0)];
        assert_eq!(
            ContentionSignature::fit(h, 2, &samples),
            Err(ModelError::InsufficientSamples { needed: 4, got: 3 })
        );
    }

    #[test]
    fn predict_applies_step_only_at_or_above_cutoff() {
        // γ = 2, δ = 0.5 from M = 10 up, n = 5: the step adds 4·δ = 2.
        let sig = ContentionSignature {
            hockney: HockneyParams::new(50e-6, 8.5e-9),
            gamma: 2.0,
            delta_secs: 0.5,
            cutoff_bytes: Some(10),
            sample_n: 5,
            fit_r_squared: 1.0,
        };
        assert_eq!(sig.predict_from(1.0, 5, 5), 2.0);
        assert_eq!(sig.predict_from(1.0, 5, 10), 4.0);
        assert_eq!(sig.predict_from(3.0, 5, 20), 8.0);
    }

    #[test]
    fn noisy_step_data_still_close() {
        let h = HockneyParams::new(60e-6, 8e-8);
        let sizes: Vec<u64> = (1..=12).map(|i| i * 8192).collect();
        let samples: Vec<(u64, f64)> = planted(h, 24, &sizes, (1.02, 0.008, 3 * 8192))
            .into_iter()
            .enumerate()
            .map(|(i, (m, t))| (m, t * if i % 2 == 0 { 1.002 } else { 0.998 }))
            .collect();
        let sig = ContentionSignature::fit(h, 24, &samples).unwrap();
        assert!((sig.gamma - 1.02).abs() < 0.02);
        assert!(sig.cutoff_bytes.is_some());
    }
}
