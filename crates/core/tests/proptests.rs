//! Property-based tests of the modeling layer: MED bounds, signature
//! fitting, and model sanity across randomized inputs.

use contention_model::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Claim 3 on the uniform All-to-All MED equals Proposition 1, for any
    /// size, count and parameters.
    #[test]
    fn claim3_equals_proposition1_on_uniform_alltoall(
        n in 2usize..40,
        m in 1u64..10_000_000,
        alpha_us in 1.0f64..1000.0,
        beta_ns in 0.5f64..100.0,
    ) {
        let params = HockneyParams::new(alpha_us * 1e-6, beta_ns * 1e-9);
        let med = Med::uniform_alltoall(n, m);
        let lhs = med.time_lower_bound(&params);
        let rhs = params.alltoall_lower_bound(n, m);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs));
    }

    /// Adding a message to a MED never lowers any bound (monotonicity).
    #[test]
    fn med_bounds_monotone_under_message_addition(
        msgs in prop::collection::vec((0usize..6, 0usize..6, 1u64..100_000), 1..20),
        extra in (0usize..6, 0usize..6, 1u64..100_000),
    ) {
        let beta = 1e-9;
        let params = HockneyParams::new(1e-6, beta);
        let mut med = Med::new(6);
        for &(s, d, w) in &msgs {
            if s != d {
                med.add_message(s, d, w);
            }
        }
        let before_bw = med.bandwidth_bound(beta);
        let before_su = med.min_startups();
        let before_t = med.time_lower_bound(&params);
        let (s, d, w) = extra;
        if s != d {
            med.add_message(s, d, w);
            prop_assert!(med.bandwidth_bound(beta) >= before_bw);
            prop_assert!(med.min_startups() >= before_su);
            prop_assert!(med.time_lower_bound(&params) >= before_t);
        }
    }

    /// A fitted signature reproduces its own training points when the data
    /// is noise-free, for any planted parameters.
    #[test]
    fn signature_fit_is_self_consistent(
        n in 4usize..64,
        gamma in 0.8f64..8.0,
        delta_ms in 0.0f64..20.0,
        cut_idx in 0usize..6,
    ) {
        let h = HockneyParams::new(60e-6, 8e-9);
        let sizes: Vec<u64> = (1..=8).map(|i| i * 131_072).collect();
        let cut = sizes[cut_idx];
        let delta = delta_ms * 1e-3;
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| {
                let t = (n - 1) as f64
                    * (h.p2p_time(m) * gamma + if m >= cut { delta } else { 0.0 });
                (m, t)
            })
            .collect();
        let sig = ContentionSignature::fit(h, n, &samples).unwrap();
        for &(m, t) in &samples {
            let p = sig.predict(n, m);
            prop_assert!((p - t).abs() < 1e-6 * (1.0 + t), "m={}: {} vs {}", m, p, t);
        }
    }

    /// Signature predictions scale linearly in (n−1) by construction: the
    /// extrapolation rule the paper relies on.
    #[test]
    fn signature_scales_linearly_in_rounds(
        gamma in 0.8f64..8.0,
        delta_ms in 0.0f64..20.0,
        m in 1024u64..2_000_000,
        n1 in 2usize..30,
        n2 in 2usize..30,
    ) {
        let sig = ContentionSignature {
            hockney: HockneyParams::new(60e-6, 8e-9),
            gamma,
            delta_secs: delta_ms * 1e-3,
            cutoff_bytes: Some(8192),
            sample_n: 8,
            fit_r_squared: 1.0,
        };
        let t1 = sig.predict(n1, m);
        let t2 = sig.predict(n2, m);
        let ratio_t = t1 / t2;
        let ratio_n = (n1 - 1) as f64 / (n2 - 1) as f64;
        prop_assert!((ratio_t - ratio_n).abs() < 1e-9 * (1.0 + ratio_n));
    }

    /// The throughput model's synthetic β interpolates βF..βC for any ρ.
    #[test]
    fn synthetic_beta_interpolates(
        bf_ns in 1.0f64..50.0,
        extra_ns in 1.0f64..500.0,
        rho in 0.0f64..1.0,
    ) {
        let bf = bf_ns * 1e-9;
        let bc = bf + extra_ns * 1e-9;
        let model = ThroughputModel::new(1e-6, bf, bc, rho);
        let beta = model.synthetic_beta();
        prop_assert!(beta >= bf - 1e-18);
        prop_assert!(beta <= bc + 1e-18);
    }

    /// The paper's error metric is antisymmetric-ish around perfect
    /// prediction and zero exactly there.
    #[test]
    fn error_metric_sign_convention(measured in 0.001f64..100.0, estimated in 0.001f64..100.0) {
        let e = estimation_error_percent(measured, estimated);
        if measured > estimated {
            prop_assert!(e > 0.0);
        } else if measured < estimated {
            prop_assert!(e < 0.0);
        } else {
            prop_assert_eq!(e, 0.0);
        }
    }

    /// The Hockney fit recovers a planted line `t = a + b·size` exactly.
    #[test]
    fn ols_recovers_planted_line(
        a in 0.0f64..100.0,
        b in 0.001f64..100.0,
        sizes in prop::collection::btree_set(0u64..2000, 3..30),
    ) {
        let points: Vec<(u64, f64)> = sizes.into_iter().map(|s| (s, a + b * s as f64)).collect();
        let fit = HockneyParams::fit(&points).unwrap();
        prop_assert!((fit.alpha_secs - a).abs() < 1e-6 * (1.0 + a), "a: {} vs {}", fit.alpha_secs, a);
        prop_assert!((fit.beta_secs_per_byte - b).abs() < 1e-6 * (1.0 + b), "b: {} vs {}", fit.beta_secs_per_byte, b);
    }

    /// The signature fit recovers a planted `(γ, δ, M)` from clean data,
    /// for any plausible parameter combination.
    #[test]
    fn piecewise_recovers_planted_signature(
        gamma in 0.5f64..8.0,
        delta in 0.0005f64..0.05,
        cut_idx in 1usize..5,
    ) {
        let h = HockneyParams::new(60e-6, 8e-8);
        let sizes: Vec<u64> = (1..=8).map(|i| i * 131_072).collect();
        let cut = sizes[cut_idx];
        let samples: Vec<(u64, f64)> = sizes
            .iter()
            .map(|&m| {
                let step = if m >= cut { delta * 23.0 } else { 0.0 };
                (m, gamma * h.alltoall_lower_bound(24, m) + step)
            })
            .collect();
        let sig = ContentionSignature::fit(h, 24, &samples).unwrap();
        prop_assert!((sig.gamma - gamma).abs() < 1e-6 * gamma, "gamma {} vs {}", sig.gamma, gamma);
        prop_assert!((sig.delta_secs - delta).abs() < 1e-9 + 1e-6 * delta);
        prop_assert_eq!(sig.cutoff_bytes, Some(cut));
    }

    /// Eq. 5 is monotone in the bound for a fixed step state, and the step
    /// only ever adds.
    #[test]
    fn piecewise_prediction_monotone(gamma in 0.1f64..10.0, delta in 0.0f64..1.0) {
        let sig = ContentionSignature {
            hockney: HockneyParams::new(0.0, 1e-9),
            gamma,
            delta_secs: delta,
            cutoff_bytes: Some(100),
            sample_n: 2,
            fit_r_squared: 1.0,
        };
        prop_assert!(sig.predict_from(2.0, 2, 50) <= sig.predict_from(3.0, 2, 50));
        prop_assert!(sig.predict_from(2.0, 2, 150) >= sig.predict_from(2.0, 2, 50));
    }

    /// Hockney fitting round-trips through noise-free synthetic data.
    #[test]
    fn hockney_fit_roundtrips(
        alpha_us in 0.0f64..1000.0,
        beta_ns in 0.5f64..100.0,
    ) {
        let h = HockneyParams::new(alpha_us * 1e-6, beta_ns * 1e-9);
        let points: Vec<(u64, f64)> = [1024u64, 32_768, 262_144, 1_048_576]
            .iter()
            .map(|&s| (s, h.p2p_time(s)))
            .collect();
        let fit = HockneyParams::fit(&points).unwrap();
        prop_assert!((fit.alpha_secs - h.alpha_secs).abs() < 1e-9 + 1e-6 * h.alpha_secs);
        prop_assert!((fit.beta_secs_per_byte - h.beta_secs_per_byte).abs() < 1e-12);
    }
}
