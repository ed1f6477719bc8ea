//! Figure 4: the §6 throughput-under-contention approach — predicting the
//! n′-process (40) All-to-All on Gigabit Ethernet with the synthetic
//! `β = (1−ρ)·βF + ρ·βC` from stress-test extremes
//! ([`stress::throughput_model`]), against the measured Direct Exchange and
//! the contention-free lower bound.
//!
//! The figure's point is a *partial* success: good at large messages,
//! wrong below ~64 KiB, motivating the §7 signature model.

use super::{paper, stress, ExperimentOutput, Profile, Scale};
use crate::report::{ascii_chart, Series, Table};
use crate::runner::{fit_cfg_for, measure_alltoall_curve, measure_hockney};
use simmpi::presets::ClusterPreset;

/// Message sizes, deliberately including the small range where the
/// synthetic-β model misses.
fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![
            4 * 1024,
            16 * 1024,
            64 * 1024,
            256 * 1024,
            512 * 1024,
            1024 * 1024,
        ],
        Scale::Full => vec![
            2 * 1024,
            4 * 1024,
            8 * 1024,
            16 * 1024,
            32 * 1024,
            64 * 1024,
            128 * 1024,
            256 * 1024,
            512 * 1024,
            768 * 1024,
            1024 * 1024,
            1200 * 1024,
        ],
    }
}

/// Runs figure 4.
pub fn run(profile: &Profile) -> ExperimentOutput {
    let preset = ClusterPreset::gigabit_ethernet();
    let n = preset.sample_nodes;
    let hockney = match measure_hockney(&preset, profile.seed) {
        Ok(h) => h,
        Err(e) => return ExperimentOutput::failed(format!("hockney fit failed: {e}")),
    };
    let model = match stress::throughput_model(profile, hockney.alpha_secs) {
        Ok(m) => m,
        Err(e) => return ExperimentOutput::failed(format!("stress estimation failed: {e}")),
    };
    let paper = paper::testbed(preset.network)
        .stress
        .expect("§6 measured Gigabit Ethernet");

    let curve = measure_alltoall_curve(
        &preset,
        n,
        &sizes(profile.scale),
        &fit_cfg_for(profile.seed),
    );
    let mut table = Table::new(
        format!("fig4: throughput-under-contention prediction at {n} processes (GbE)"),
        &[
            "message_bytes",
            "measured_s",
            "synthetic_beta_pred_s",
            "lower_bound_s",
        ],
    );
    let (mut meas, mut pred, mut bound) = (Vec::new(), Vec::new(), Vec::new());
    for (m, t) in curve {
        let p = model.predict(n, m);
        let b = hockney.alltoall_lower_bound(n, m);
        table.push_row(vec![
            m.to_string(),
            format!("{t:.6}"),
            format!("{p:.6}"),
            format!("{b:.6}"),
        ]);
        meas.push((m as f64, t));
        pred.push((m as f64, p));
        bound.push((m as f64, b));
    }
    let chart = ascii_chart(
        &[
            Series {
                label: "m measured".into(),
                points: meas,
            },
            Series {
                label: "s synthetic-beta".into(),
                points: pred,
            },
            Series {
                label: "b lower-bound".into(),
                points: bound,
            },
        ],
        64,
        16,
    );
    ExperimentOutput {
        table: Some(table),
        chart: Some(chart),
        notes: vec![
            format!(
                "betaF={:.3e} s/B, betaC={:.3e} s/B, rho=0.5 → synthetic beta={:.3e} s/B \
                 (paper §6: {:.3e}, {:.3e} → {:.3e})",
                model.beta_free,
                model.beta_contended,
                model.synthetic_beta(),
                paper.beta_free,
                paper.beta_contended,
                paper.synthetic_beta,
            ),
            "paper fig4: the synthetic-beta curve tracks large messages but misses below ~64 KiB"
                .into(),
        ],
    }
}
