//! The "T1" parameter table: every fitted constant the paper quotes in its
//! text, side by side with our measured equivalents — §6's βF/βC/β and
//! §8's per-network (γ, δ, M).

use super::{fit, ExperimentOutput, Profile};
use crate::report::Table;
use crate::runner::{calibrate_report, default_sample_sizes};
use contention_model::throughput::ThroughputModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simmpi::harness::stress_run;
use simmpi::presets::ClusterPreset;

/// Runs the parameter reproduction table.
pub fn run(profile: &Profile) -> ExperimentOutput {
    let mut table = Table::new(
        "params: fitted constants vs the paper",
        &["network", "parameter", "ours", "paper"],
    );
    let mut notes = Vec::new();

    for preset in ClusterPreset::all() {
        let sample_n = match preset.name {
            "gigabit-ethernet" => 40,
            _ => 24,
        };
        match calibrate_report(&preset, sample_n, &default_sample_sizes(), profile.seed) {
            Ok(report) => {
                let cal = report.calibration;
                let paper = fit::paper_signature(&preset);
                table.push_row(vec![
                    preset.name.into(),
                    "alpha_us".into(),
                    format!("{:.1}", cal.hockney.alpha_secs * 1e6),
                    "-".into(),
                ]);
                table.push_row(vec![
                    preset.name.into(),
                    "beta_ns_per_B".into(),
                    format!("{:.3}", cal.hockney.beta_secs_per_byte * 1e9),
                    "-".into(),
                ]);
                table.push_row(vec![
                    preset.name.into(),
                    "gamma".into(),
                    format!("{:.4}", cal.signature.gamma),
                    format!("{:.4}", paper.gamma),
                ]);
                table.push_row(vec![
                    preset.name.into(),
                    "delta_ms".into(),
                    format!("{:.3}", cal.signature.delta_secs * 1e3),
                    format!("{:.3}", paper.delta_secs * 1e3),
                ]);
                table.push_row(vec![
                    preset.name.into(),
                    "M_bytes".into(),
                    format!("{:?}", cal.signature.cutoff_bytes),
                    format!("{:?}", paper.cutoff),
                ]);
            }
            Err(e) => notes.push(format!("{}: calibration failed: {e}", preset.name)),
        }
    }

    // §6's βF/βC from the Gigabit Ethernet stress test.
    let preset = ClusterPreset::gigabit_ethernet();
    let bytes = super::stress::transfer_bytes(profile.scale);
    let k = 40;
    let mut world = preset.build_world(2 * k, profile.seed ^ 0xBEEF);
    let mut ranks: Vec<usize> = (0..2 * k).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(profile.seed ^ 0xBEEF);
    ranks.shuffle(&mut rng);
    let pairs: Vec<(usize, usize)> = ranks.chunks(2).map(|c| (c[0], c[1])).collect();
    let stress = stress_run(&mut world, &pairs, bytes);
    if let Ok(model) = ThroughputModel::from_stress_times(0.0, bytes, &stress.times_secs, 0.5) {
        table.push_row(vec![
            "gigabit-ethernet".into(),
            "betaF_s_per_B".into(),
            format!("{:.3e}", model.beta_free),
            "8.502e-9".into(),
        ]);
        table.push_row(vec![
            "gigabit-ethernet".into(),
            "betaC_s_per_B".into(),
            format!("{:.3e}", model.beta_contended),
            "8.498e-8".into(),
        ]);
        table.push_row(vec![
            "gigabit-ethernet".into(),
            "synthetic_beta".into(),
            format!("{:.3e}", model.synthetic_beta()),
            "4.674e-8".into(),
        ]);
    }

    notes.push(
        "shape targets: gamma(FE) ≈ 1 < gamma(Myrinet) < gamma(GbE); \
         delta(FE) > delta(GbE) >> delta(Myrinet) ≈ 0"
            .into(),
    );
    ExperimentOutput {
        tables: vec![table],
        charts: vec![],
        notes,
    }
}
