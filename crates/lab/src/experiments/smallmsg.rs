//! Figure 5: the small-message non-linearity map on Gigabit Ethernet —
//! completion time over (nodes × message size) at fine message-size steps,
//! showing the regime where the linear model breaks (eager/rendezvous
//! switching, per-message overheads, ACK dynamics).

use super::{ExperimentOutput, Profile, Scale};
use crate::report::{ascii_chart, Series, Table};
use crate::runner::{fit_cfg_for, measure_alltoall_curve, SweepConfig};
use simmpi::presets::ClusterPreset;
use simmpi::runner::parallel_map;

/// Node counts (the paper's fig. 5 spans 4–16).
fn nodes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![4, 8, 12, 16],
        Scale::Full => (4..=16).step_by(2).collect(),
    }
}

/// Message sizes: the paper samples every 256 B up to ~16 KiB.
fn sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => (1..=16).map(|i| i * 1024).collect(),
        Scale::Full => (1..=64).map(|i| i * 256).collect(),
    }
}

/// Runs figure 5.
pub fn run(profile: &Profile) -> ExperimentOutput {
    let preset = ClusterPreset::gigabit_ethernet();
    let ns = nodes(profile.scale);
    let ms = sizes(profile.scale);
    let seed = profile.seed;
    let ms_worker = ms.clone();
    let curves: Vec<Vec<(u64, f64)>> = parallel_map(ns.clone(), profile.workers, move |n| {
        let cfg = SweepConfig {
            reps: 2,
            ..fit_cfg_for(seed ^ (n as u64) << 16)
        };
        measure_alltoall_curve(&preset, n, &ms_worker, &cfg)
    });

    let mut table = Table::new(
        "fig5: small-message completion map (GbE)",
        &["nodes", "message_bytes", "time_s"],
    );
    for (n, curve) in ns.iter().zip(&curves) {
        for &(m, t) in curve {
            table.push_row(vec![n.to_string(), m.to_string(), format!("{t:.6}")]);
        }
    }

    // Chart the largest node count, where non-linearity is most visible,
    // against a linear reference anchored at the largest sampled size.
    let last = curves.last().expect("at least one node count");
    let pts: Vec<(f64, f64)> = last.iter().map(|&(m, t)| (m as f64, t)).collect();
    let (m_ref, t_ref) = *last.last().expect("non-empty curve");
    let linear: Vec<(f64, f64)> = last
        .iter()
        .map(|&(m, _)| (m as f64, t_ref * m as f64 / m_ref as f64))
        .collect();
    let chart = ascii_chart(
        &[
            Series {
                label: "m measured".into(),
                points: pts,
            },
            Series {
                label: "l linear-ref".into(),
                points: linear,
            },
        ],
        64,
        14,
    );

    // Quantify non-linearity: max deviation of measured from the
    // through-origin linear reference.
    let max_dev = last
        .iter()
        .map(|&(m, t)| {
            let lin = t_ref * m as f64 / m_ref as f64;
            ((t - lin) / lin).abs()
        })
        .fold(0.0, f64::max);
    ExperimentOutput {
        table: Some(table),
        chart: Some(chart),
        notes: vec![format!(
            "max deviation from proportional scaling at n={}: {:.0}% \
             (paper fig5: strongly non-linear below ~16 KiB)",
            ns.last().unwrap(),
            max_dev * 100.0
        )],
    }
}
