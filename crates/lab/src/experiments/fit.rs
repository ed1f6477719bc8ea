//! Figures 6, 9 and 12: fitting the contention signature on one network —
//! measured Direct Exchange vs lower bound vs fitted prediction, at the
//! paper's sample node count.

use super::{ExperimentOutput, Profile, Scale};
use crate::report::{ascii_chart, Series, Table};
use crate::runner::{calibrate_report, default_sample_sizes};
use simmpi::presets::ClusterPreset;

/// Paper-reported signature values for the comparison notes.
pub struct PaperSignature {
    /// Paper's fitted γ.
    pub gamma: f64,
    /// Paper's fitted δ in seconds.
    pub delta_secs: f64,
    /// Paper's cutoff `M` in bytes (`None` for "no affine term").
    pub cutoff: Option<u64>,
}

/// The paper's quoted values per network (§8).
pub fn paper_signature(preset: &ClusterPreset) -> PaperSignature {
    match preset.name {
        "fast-ethernet" => PaperSignature {
            gamma: 1.0195,
            delta_secs: 8.23e-3,
            cutoff: Some(2 * 1024),
        },
        "gigabit-ethernet" => PaperSignature {
            gamma: 4.3628,
            delta_secs: 4.93e-3,
            cutoff: Some(8 * 1024),
        },
        _ => PaperSignature {
            gamma: 2.49754,
            delta_secs: 1e-6,
            cutoff: None,
        },
    }
}

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

/// Generic fit figure: calibrate on `preset` at `sample_n` and tabulate
/// measured / bound / prediction across message sizes.
pub fn run_generic(preset: &ClusterPreset, sample_n: usize, profile: &Profile) -> ExperimentOutput {
    let sizes = fit_sizes(profile.scale);
    let report = match calibrate_report(preset, sample_n, &sizes, profile.seed) {
        Ok(r) => r,
        Err(e) => {
            let mut out = ExperimentOutput::default();
            out.notes
                .push(format!("calibration failed on {}: {e}", preset.name));
            return out;
        }
    };
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

    let paper = paper_signature(preset);
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
        tables: vec![table],
        charts: vec![chart],
        notes,
    }
}

/// Figure 6: Fast Ethernet at 24 machines.
pub fn run_fast_ethernet(profile: &Profile) -> ExperimentOutput {
    run_generic(&ClusterPreset::fast_ethernet(), 24, profile)
}

/// Figure 9: Gigabit Ethernet at 40 machines.
pub fn run_gigabit_ethernet(profile: &Profile) -> ExperimentOutput {
    run_generic(&ClusterPreset::gigabit_ethernet(), 40, profile)
}

/// Figure 12: Myrinet at 24 processes.
pub fn run_myrinet(profile: &Profile) -> ExperimentOutput {
    run_generic(&ClusterPreset::myrinet(), 24, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_the_text() {
        let fe = paper_signature(&ClusterPreset::fast_ethernet());
        assert_eq!(fe.gamma, 1.0195);
        let ge = paper_signature(&ClusterPreset::gigabit_ethernet());
        assert_eq!(ge.cutoff, Some(8192));
        let my = paper_signature(&ClusterPreset::myrinet());
        assert!(my.cutoff.is_none());
    }

    #[test]
    fn full_scale_uses_finer_grid() {
        assert!(fit_sizes(Scale::Full).len() > fit_sizes(Scale::Quick).len());
    }
}
