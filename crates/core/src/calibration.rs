//! The end-to-end calibration pipeline (paper §8), data side.
//!
//! The paper's procedure on each network: (1) measure `α`, `β` with "a
//! simple point-to-point measure"; (2) run the All-to-All at one sample
//! process count `n′` across message sizes; (3) regress `(γ, δ, M)` from
//! the gap between measurement and lower bound. This module performs steps
//! 1 and 3 from plain data, so the crate stays independent of any
//! particular measurement source; the paper-figure drivers and the
//! scenario engine run the simulator that produces the inputs.

use crate::error::ModelError;
use crate::hockney::HockneyParams;
use crate::signature::ContentionSignature;

/// Raw measurements feeding a calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationInput {
    /// Ping-pong one-way times: `(payload bytes, seconds)`.
    pub pingpong: Vec<(u64, f64)>,
    /// Sample process count `n′` of the All-to-All measurements.
    pub sample_n: usize,
    /// All-to-All completion times at `sample_n`: `(message bytes, seconds)`.
    pub alltoall: Vec<(u64, f64)>,
}

/// A completed calibration: Hockney parameters plus the fitted signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Point-to-point parameters from step 1.
    pub hockney: HockneyParams,
    /// The network's contention signature from step 3.
    pub signature: ContentionSignature,
}

impl Calibration {
    /// Runs steps 1 and 3 of the paper's procedure on raw measurements.
    pub fn from_measurements(input: &CalibrationInput) -> Result<Self, ModelError> {
        let hockney = HockneyParams::fit(&input.pingpong)?;
        let signature = ContentionSignature::fit(hockney, input.sample_n, &input.alltoall)?;
        Ok(Self { hockney, signature })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_recovers_planted_parameters() {
        let true_h = HockneyParams::new(60e-6, 8e-8);
        let pingpong: Vec<(u64, f64)> = [1024u64, 16_384, 131_072, 1_048_576]
            .iter()
            .map(|&s| (s, true_h.p2p_time(s)))
            .collect();
        let (n, gamma, delta, cut) = (24usize, 1.0195, 8.23e-3, 2048u64);
        let alltoall: Vec<(u64, f64)> = [2048u64, 16_384, 131_072, 524_288, 1_048_576]
            .iter()
            .map(|&m| {
                let t = (n - 1) as f64
                    * (true_h.p2p_time(m) * gamma + if m >= cut { delta } else { 0.0 });
                (m, t)
            })
            .collect();
        let cal = Calibration::from_measurements(&CalibrationInput {
            pingpong,
            sample_n: n,
            alltoall,
        })
        .unwrap();
        assert!((cal.hockney.alpha_secs - 60e-6).abs() < 1e-10);
        assert!((cal.signature.gamma - gamma).abs() < 1e-4);
        assert!((cal.signature.delta_secs - delta).abs() < 1e-6);
        // Every sampled size is ≥ the true cutoff, so the fitter reports
        // the smallest observed size as the breakpoint.
        assert_eq!(cal.signature.cutoff_bytes, Some(2048));
    }

    #[test]
    fn bad_pingpong_propagates_error() {
        let input = CalibrationInput {
            pingpong: vec![(1024, 0.001)],
            sample_n: 8,
            alltoall: vec![(1024, 0.1); 4],
        };
        assert!(Calibration::from_measurements(&input).is_err());
    }
}
