//! Figures 7, 10 and 13: prediction surfaces — measured vs predicted
//! completion over a (node count × message size) grid, with the signature
//! fitted once by [`fit::calibrate_testbed`] at the paper's n′, up to the
//! paper's node ceiling ([`paper::PaperTestbed::surface_max_nodes`]).

use super::{fit, paper, ExperimentOutput, Profile, Scale};
use crate::report::Table;
use crate::runner::{fit_cfg_for, measure_alltoall_curve};
use contention_model::calibration::Calibration;
use contention_model::metrics::AccuracyPoint;
use simmpi::presets::ClusterPreset;
use simmpi::runner::parallel_map;

/// Node-count grids per figure.
pub fn surface_nodes(preset: &ClusterPreset, scale: Scale) -> Vec<usize> {
    let max = paper::testbed(preset.network).surface_max_nodes;
    match scale {
        Scale::Quick => vec![8, 16, 24, 36, 48]
            .into_iter()
            .filter(|&n| n <= max)
            .collect(),
        Scale::Full => (4..=max).step_by(4).collect(),
    }
}

/// Message-size grid for the surfaces.
pub fn surface_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![128 * 1024, 512 * 1024, 1024 * 1024],
        Scale::Full => vec![
            64 * 1024,
            128 * 1024,
            256 * 1024,
            384 * 1024,
            512 * 1024,
            768 * 1024,
            1024 * 1024,
            1200 * 1024,
        ],
    }
}

/// Measures the full `(n, m)` grid in parallel (one world per node count)
/// and returns accuracy points against the fitted signature.
pub fn measure_surface(
    preset: &ClusterPreset,
    profile: &Profile,
) -> Result<(Vec<AccuracyPoint>, Calibration), String> {
    let cal = fit::calibrate_testbed(preset, profile)?.calibration;
    let ns = surface_nodes(preset, profile.scale);
    let ms = surface_sizes(profile.scale);
    let seed = profile.seed;
    let preset = *preset;
    let ms_for_worker = ms.clone();
    let per_n: Vec<Vec<(u64, f64)>> = parallel_map(ns.clone(), profile.workers, move |n| {
        let cfg = fit_cfg_for(seed ^ (n as u64).wrapping_mul(0x9E37_79B9));
        measure_alltoall_curve(&preset, n, &ms_for_worker, &cfg)
    });
    let mut points = Vec::with_capacity(ns.len() * ms.len());
    for (n, curve) in ns.iter().zip(per_n) {
        for (m, t) in curve {
            points.push(AccuracyPoint {
                n: *n,
                message_bytes: m,
                measured_secs: t,
                predicted_secs: cal.signature.predict(*n, m),
            });
        }
    }
    Ok((points, cal))
}

/// The surface figure of `preset`.
pub fn run(preset: &ClusterPreset, profile: &Profile) -> ExperimentOutput {
    let (points, cal) = match measure_surface(preset, profile) {
        Ok(x) => x,
        Err(e) => return ExperimentOutput::failed(e),
    };
    let mut table = Table::new(
        format!(
            "{} prediction surface (signature from n'={})",
            preset.name, preset.sample_nodes
        ),
        &[
            "nodes",
            "message_bytes",
            "measured_s",
            "predicted_s",
            "error_pct",
        ],
    );
    for p in &points {
        table.push_row(vec![
            p.n.to_string(),
            p.message_bytes.to_string(),
            format!("{:.6}", p.measured_secs),
            format!("{:.6}", p.predicted_secs),
            format!("{:+.2}", p.error_percent()),
        ]);
    }
    let within = points.iter().filter(|p| p.within(10.0)).count();
    let notes = vec![
        format!(
            "signature: gamma={:.4} delta={:.3}ms M={:?}",
            cal.signature.gamma,
            cal.signature.delta_secs * 1e3,
            cal.signature.cutoff_bytes
        ),
        format!(
            "{within}/{} grid points within 10% (paper: <10% error once saturated)",
            points.len()
        ),
    ];
    ExperimentOutput {
        table: Some(table),
        chart: None,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_respect_cluster_capacity() {
        for preset in ClusterPreset::all() {
            let ceiling = paper::testbed(preset.network).surface_max_nodes;
            assert!(ceiling <= preset.max_hosts(), "{}", preset.name);
            for scale in [Scale::Quick, Scale::Full] {
                let ns = surface_nodes(&preset, scale);
                assert!(ns.iter().all(|&n| n <= ceiling), "{}", preset.name);
                // The grid reaches the paper's n′, where the signature is fitted.
                assert!(ns.last() >= Some(&preset.sample_nodes), "{}", preset.name);
            }
        }
    }

    #[test]
    fn full_grid_is_denser() {
        let p = ClusterPreset::gigabit_ethernet();
        assert!(surface_nodes(&p, Scale::Full).len() > surface_nodes(&p, Scale::Quick).len());
    }
}
