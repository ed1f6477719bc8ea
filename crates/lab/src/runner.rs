//! Measurement drivers: the paper's §8 procedure executed against the
//! simulator.

use crate::descriptive::median;
use contention_model::calibration::{Calibration, CalibrationInput};
use contention_model::error::ModelError;
use contention_model::hockney::HockneyParams;
use simmpi::prelude::*;
use simmpi::presets::ClusterPreset;

/// Repetition and seeding policy for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Discarded warm-up repetitions per point.
    pub warmup: usize,
    /// Measured repetitions per point (averaged).
    pub reps: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// The `MPI_Alltoall` implementation under test. Defaults to the
    /// post-everything nonblocking Direct Exchange, which is what LAM-MPI
    /// and MPICH1 actually execute (the paper: "all communications are
    /// started simultaneously"); Algorithm 1's rounds give the rotated
    /// *posting order*.
    pub algorithm: AllToAllAlgorithm,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            warmup: 1,
            reps: 3,
            seed: 42,
            algorithm: AllToAllAlgorithm::DirectExchangeNonblocking,
        }
    }
}

/// Message sizes used to fit signatures: 64 KiB – 1 MiB, the linear regime
/// of the paper's Figs. 6/9/12 (six points, comfortably above the "at least
/// four" the fit requires).
pub fn default_sample_sizes() -> Vec<u64> {
    vec![
        64 * 1024,
        128 * 1024,
        256 * 1024,
        512 * 1024,
        768 * 1024,
        1024 * 1024,
    ]
}

/// Measures one-way point-to-point times on the cluster: for each size,
/// several single-round-trip runs, keeping the **median** (robust against
/// scheduling hiccups, like taking the typical of 100 runs).
pub fn measure_pingpong_points(preset: &ClusterPreset, seed: u64) -> Vec<(u64, f64)> {
    let runs_per_size = 5;
    HockneyParams::FIT_SIZES
        .iter()
        .map(|&size| {
            let samples: Vec<f64> = (0..runs_per_size)
                .map(|r| {
                    let mut w = preset.build_world(2, seed.wrapping_add(r as u64 * 7919));
                    ping_pong(&mut w, 0, 1, &[size], 1)[0].half_rtt_secs
                })
                .collect();
            (size, median(&samples).expect("non-empty samples"))
        })
        .collect()
}

/// Fits Hockney parameters from a cluster's ping-pong measurements.
pub fn measure_hockney(preset: &ClusterPreset, seed: u64) -> Result<HockneyParams, ModelError> {
    HockneyParams::fit(&measure_pingpong_points(preset, seed))
}

/// Mean Direct Exchange All-to-All completion time at each message size,
/// on one warm world of `n` ranks.
pub fn measure_alltoall_curve(
    preset: &ClusterPreset,
    n: usize,
    sizes: &[u64],
    cfg: &SweepConfig,
) -> Vec<(u64, f64)> {
    let mut world = preset.build_world(n, cfg.seed);
    sizes
        .iter()
        .map(|&m| {
            let times = alltoall_times(&mut world, cfg.algorithm, m, cfg.warmup, cfg.reps);
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            (m, mean)
        })
        .collect()
}

/// Mean Direct Exchange completion at a single `(n, m)` point.
pub fn measure_alltoall_point(preset: &ClusterPreset, n: usize, m: u64, cfg: &SweepConfig) -> f64 {
    let mut world = preset.build_world(n, cfg.seed);
    let times = alltoall_times(&mut world, cfg.algorithm, m, cfg.warmup, cfg.reps);
    times.iter().sum::<f64>() / times.len() as f64
}

/// A calibration together with the raw measurements that produced it.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Fitted Hockney parameters and contention signature.
    pub calibration: Calibration,
    /// The measurements behind the fit.
    pub input: CalibrationInput,
}

/// The paper's full calibration: ping-pong → Hockney fit → sample
/// All-to-All sweep at `sample_n` → signature regression. Returns the raw
/// measurements too, so figures can plot measured vs fitted.
pub fn calibrate_report(
    preset: &ClusterPreset,
    sample_n: usize,
    sizes: &[u64],
    seed: u64,
) -> Result<CalibrationReport, ModelError> {
    let pingpong = measure_pingpong_points(preset, seed);
    // The sample curve anchors every later prediction, so average more
    // repetitions here than in ordinary sweeps (the paper averages 100
    // measures per point; RTO-stall quantization makes single runs lumpy).
    let cfg = SweepConfig {
        seed,
        reps: 6,
        ..SweepConfig::default()
    };
    let alltoall = measure_alltoall_curve(preset, sample_n, sizes, &cfg);
    let input = CalibrationInput {
        pingpong,
        sample_n,
        alltoall,
    };
    let calibration = Calibration::from_measurements(&input)?;
    Ok(CalibrationReport { calibration, input })
}

/// [`calibrate_report`] without the raw measurements.
pub fn calibrate_signature(
    preset: &ClusterPreset,
    sample_n: usize,
    sizes: &[u64],
    seed: u64,
) -> Result<Calibration, ModelError> {
    calibrate_report(preset, sample_n, sizes, seed).map(|r| r.calibration)
}

/// A default [`SweepConfig`] with the given seed.
pub fn fit_cfg_for(seed: u64) -> SweepConfig {
    SweepConfig {
        seed,
        ..SweepConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_measurement_is_affine_ish() {
        let preset = ClusterPreset::myrinet();
        let points = measure_pingpong_points(&preset, 5);
        // Times strictly increase with size.
        for w in points.windows(2) {
            assert!(w[1].1 > w[0].1, "{points:?}");
        }
        let h = HockneyParams::fit(&points).unwrap();
        // Myrinet: 250 MB/s wire → β ≈ 4 ns/B within 50 %.
        assert!(
            (h.beta_secs_per_byte - 4e-9).abs() < 2e-9,
            "beta = {}",
            h.beta_secs_per_byte
        );
    }

    #[test]
    fn alltoall_curve_is_increasing() {
        let preset = ClusterPreset::myrinet();
        let cfg = SweepConfig {
            warmup: 0,
            reps: 1,
            seed: 9,
            ..SweepConfig::default()
        };
        let curve = measure_alltoall_curve(&preset, 6, &[16 * 1024, 256 * 1024], &cfg);
        assert!(curve[1].1 > curve[0].1);
    }
}
