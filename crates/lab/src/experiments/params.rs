//! The "T1" parameter table: every fitted constant the paper quotes in its
//! text, side by side with our measured equivalents — §6's βF/βC/β and
//! §8's per-network (γ, δ, M). Ours come from the same measurements as the
//! figures: [`fit::calibrate_testbed`] (Figs. 6/9/12) and
//! [`stress::throughput_model`] (Fig. 4); the paper's from
//! [`paper::testbed`].

use super::{fit, paper, stress, ExperimentOutput, Profile};
use crate::report::Table;
use simmpi::presets::{ClusterPreset, NetworkKind};

/// Runs the parameter reproduction table.
pub fn run(profile: &Profile) -> ExperimentOutput {
    let mut table = Table::new(
        "params: fitted constants vs the paper",
        &["network", "parameter", "ours", "paper"],
    );
    let mut push = |network: &str, rows: Vec<(&str, String, String)>| {
        for (parameter, ours, paper) in rows {
            table.push_row(vec![network.into(), parameter.into(), ours, paper]);
        }
    };
    let mut notes = Vec::new();

    for preset in ClusterPreset::all() {
        let cal = match fit::calibrate_testbed(&preset, profile) {
            Ok(report) => report.calibration,
            Err(e) => {
                notes.push(e);
                continue;
            }
        };
        let (hockney, sig) = (cal.hockney, cal.signature);
        let paper = paper::testbed(preset.network);
        push(
            preset.name,
            vec![
                (
                    "alpha_us",
                    format!("{:.1}", hockney.alpha_secs * 1e6),
                    "-".into(),
                ),
                (
                    "beta_ns_per_B",
                    format!("{:.3}", hockney.beta_secs_per_byte * 1e9),
                    "-".into(),
                ),
                (
                    "gamma",
                    format!("{:.4}", sig.gamma),
                    format!("{:.4}", paper.gamma),
                ),
                (
                    "delta_ms",
                    format!("{:.3}", sig.delta_secs * 1e3),
                    format!("{:.3}", paper.delta_secs * 1e3),
                ),
                (
                    "M_bytes",
                    format!("{:?}", sig.cutoff_bytes),
                    format!("{:?}", paper.cutoff),
                ),
            ],
        );
    }

    // §6's βF/βC from the Gigabit Ethernet stress test; α does not enter them.
    let gbe = ClusterPreset::gigabit_ethernet();
    let paper = paper::testbed(NetworkKind::GigabitEthernet)
        .stress
        .expect("§6 measured Gigabit Ethernet");
    if let Ok(model) = stress::throughput_model(profile, 0.0) {
        push(
            gbe.name,
            vec![
                (
                    "betaF_s_per_B",
                    format!("{:.3e}", model.beta_free),
                    format!("{:.3e}", paper.beta_free),
                ),
                (
                    "betaC_s_per_B",
                    format!("{:.3e}", model.beta_contended),
                    format!("{:.3e}", paper.beta_contended),
                ),
                (
                    "synthetic_beta",
                    format!("{:.3e}", model.synthetic_beta()),
                    format!("{:.3e}", paper.synthetic_beta),
                ),
            ],
        );
    }

    notes.push(
        "shape targets: gamma(FE) ≈ 1 < gamma(Myrinet) < gamma(GbE); \
         delta(FE) > delta(GbE) >> delta(Myrinet) ≈ 0"
            .into(),
    );
    ExperimentOutput {
        table: Some(table),
        chart: None,
        notes,
    }
}
