//! Figures 6, 9 and 12: fitting the contention signature on one network —
//! measured Direct Exchange vs lower bound vs fitted prediction, at the
//! paper's sample node count n′ ([`ClusterPreset::sample_nodes`]).
//!
//! [`calibrate_testbed`] is the one calibration of a testbed: these
//! figures, the surfaces and error grids (Figs. 7/10/13, 8/11/14) and
//! `params` all fit through it, so one scale gives one "our γ" per network.

use super::{paper, ExperimentOutput, Profile, Scale};
use crate::report::{ascii_chart, Series, Table};
use crate::runner::{calibrate_report, default_sample_sizes, CalibrationReport};
use simmpi::presets::ClusterPreset;

/// Message-size grid for the fit figures.
pub fn fit_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => default_sample_sizes(),
        Scale::Full => vec![
            16 * 1024,
            32 * 1024,
            64 * 1024,
            128 * 1024,
            256 * 1024,
            384 * 1024,
            512 * 1024,
            640 * 1024,
            768 * 1024,
            896 * 1024,
            1024 * 1024,
            1200 * 1024,
        ],
    }
}

/// The paper's calibration of `preset`: at its n′, over [`fit_sizes`].
pub fn calibrate_testbed(
    preset: &ClusterPreset,
    profile: &Profile,
) -> Result<CalibrationReport, String> {
    let sizes = fit_sizes(profile.scale);
    calibrate_report(preset, preset.sample_nodes, &sizes, profile.seed)
        .map_err(|e| format!("calibration failed on {}: {e}", preset.name))
}

/// The fit figure: calibrate `preset` and tabulate measured / bound /
/// prediction across message sizes.
pub fn run(preset: &ClusterPreset, profile: &Profile) -> ExperimentOutput {
    let report = match calibrate_testbed(preset, profile) {
        Ok(r) => r,
        Err(e) => return ExperimentOutput::failed(e),
    };
    let sample_n = preset.sample_nodes;
    let cal = report.calibration;
    let sig = cal.signature;

    let mut table = Table::new(
        format!(
            "{} fit at n'={sample_n} (measured vs bound vs prediction)",
            preset.name
        ),
        &[
            "message_bytes",
            "measured_s",
            "lower_bound_s",
            "prediction_s",
            "measured_over_bound",
        ],
    );
    let mut meas_series = Vec::new();
    let mut bound_series = Vec::new();
    let mut pred_series = Vec::new();
    for &(m, t) in &report.input.alltoall {
        let bound = cal.hockney.alltoall_lower_bound(sample_n, m);
        let pred = sig.predict(sample_n, m);
        table.push_row(vec![
            m.to_string(),
            format!("{t:.6}"),
            format!("{bound:.6}"),
            format!("{pred:.6}"),
            format!("{:.4}", t / bound),
        ]);
        let x = m as f64;
        meas_series.push((x, t));
        bound_series.push((x, bound));
        pred_series.push((x, pred));
    }
    let chart = ascii_chart(
        &[
            Series {
                label: "m measured".into(),
                points: meas_series,
            },
            Series {
                label: "b lower-bound".into(),
                points: bound_series,
            },
            Series {
                label: "p prediction".into(),
                points: pred_series,
            },
        ],
        64,
        16,
    );

    let paper = paper::testbed(preset.network);
    let notes = vec![
        format!(
            "fitted: gamma={:.4} delta={:.3}ms M={:?} (R2={:.4}); hockney alpha={:.1}us beta={:.3}ns/B",
            sig.gamma,
            sig.delta_secs * 1e3,
            sig.cutoff_bytes,
            sig.fit_r_squared,
            cal.hockney.alpha_secs * 1e6,
            cal.hockney.beta_secs_per_byte * 1e9,
        ),
        format!(
            "paper:  gamma={:.4} delta={:.3}ms M={:?}",
            paper.gamma,
            paper.delta_secs * 1e3,
            paper.cutoff,
        ),
    ];

    ExperimentOutput {
        table: Some(table),
        chart: Some(chart),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_uses_finer_grid() {
        assert!(fit_sizes(Scale::Full).len() > fit_sizes(Scale::Quick).len());
    }
}
