//! Figures 8, 11 and 14: estimation error `(measured/estimated − 1)·100 %`
//! vs process count, one curve per message size — the paper's accuracy
//! claim ("usually smaller than 10 % when there are enough processes to
//! saturate the network"). Measured on the same grid, with the same
//! signature, as the preset's surface ([`surface::measure_surface`]).

use super::{surface, ExperimentOutput, Profile};
use crate::report::{ascii_chart, Series, Table};
use simmpi::presets::ClusterPreset;

/// The error-grid figure of `preset`.
pub fn run(preset: &ClusterPreset, profile: &Profile) -> ExperimentOutput {
    let (points, cal) = match surface::measure_surface(preset, profile) {
        Ok(x) => x,
        Err(e) => return ExperimentOutput::failed(e),
    };
    let sample_n = preset.sample_nodes;
    let mut table = Table::new(
        format!("{} estimation error vs process count", preset.name),
        &["nodes", "message_bytes", "error_pct"],
    );
    let mut sizes: Vec<u64> = points.iter().map(|p| p.message_bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut series = Vec::new();
    for (i, &m) in sizes.iter().enumerate() {
        let glyph = char::from(b'a' + (i % 26) as u8);
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.message_bytes == m)
            .map(|p| (p.n as f64, p.error_percent()))
            .collect();
        series.push(Series {
            label: format!("{glyph} {} KiB", m / 1024),
            points: pts,
        });
    }
    for p in &points {
        table.push_row(vec![
            p.n.to_string(),
            p.message_bytes.to_string(),
            format!("{:+.2}", p.error_percent()),
        ]);
    }
    let saturated: Vec<&contention_model::metrics::AccuracyPoint> = points
        .iter()
        .filter(|p| p.n >= sample_n.saturating_sub(8))
        .collect();
    let within = saturated.iter().filter(|p| p.within(12.0)).count();
    let notes = vec![
        format!(
            "signature from n'={sample_n}: gamma={:.4} delta={:.3}ms",
            cal.signature.gamma,
            cal.signature.delta_secs * 1e3
        ),
        format!(
            "near/above the sample count, {within}/{} points within 12% \
             (paper: errors shrink once the network saturates)",
            saturated.len()
        ),
    ];
    ExperimentOutput {
        table: Some(table),
        chart: Some(ascii_chart(&series, 64, 16)),
        notes,
    }
}
