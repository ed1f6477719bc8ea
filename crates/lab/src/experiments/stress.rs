//! Figures 2 and 3: the §3 network stress test on Gigabit Ethernet —
//! simultaneous point-to-point connections flooding the fabric.
//!
//! Fig. 2 plots the *average* per-connection bandwidth against the number
//! of connections; Fig. 3 plots the individual transmission times, whose
//! long tail (stragglers ≈ 6× the fastest) is the TCP-retransmission
//! fingerprint the whole paper builds on.
//!
//! [`throughput_model`] is §6's one stress run, the source of βF/βC for
//! figure 4 and `params`.

use super::{ExperimentOutput, Profile, Scale};
use crate::descriptive::Summary;
use crate::report::{ascii_chart, Series, Table};
use contention_model::error::ModelError;
use contention_model::throughput::ThroughputModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simmpi::harness::{stress_run, StressResult};
use simmpi::presets::ClusterPreset;

/// Connection counts swept (the paper samples 1..60).
pub fn connection_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 4, 8, 16, 24, 32, 48, 60],
        Scale::Full => vec![
            1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60,
        ],
    }
}

/// Transfer size per connection.
pub fn transfer_bytes(scale: Scale) -> u64 {
    match scale {
        // The paper uses 32 MB; a quarter of that keeps the quick profile
        // fast while staying far above every window/buffer scale.
        Scale::Quick => 8 * 1024 * 1024,
        Scale::Full => 32 * 1024 * 1024,
    }
}

/// `k` simultaneous `bytes`-sized transfers on Gigabit Ethernet: `2k`
/// hosts (world seeded by `world_seed`) paired off at random (`pair_seed`).
fn paired_stress(k: usize, bytes: u64, world_seed: u64, pair_seed: u64) -> StressResult {
    let mut world = ClusterPreset::gigabit_ethernet().build_world(2 * k, world_seed);
    // Random pairing over scattered hosts: like grabbing 2k nodes from the
    // batch scheduler, most pairs cross switches.
    let mut ranks: Vec<usize> = (0..2 * k).collect();
    ranks.shuffle(&mut rand::rngs::StdRng::seed_from_u64(pair_seed));
    let pairs: Vec<(usize, usize)> = ranks.chunks(2).map(|c| (c[0], c[1])).collect();
    stress_run(&mut world, &pairs, bytes)
}

/// Runs the stress sweep: for each connection count `k`, `2k` hosts are
/// paired off randomly (seeded), all transfers start simultaneously.
pub fn stress_sweep(profile: &Profile) -> Vec<(usize, StressResult)> {
    let bytes = transfer_bytes(profile.scale);
    connection_counts(profile.scale)
        .into_iter()
        .map(|k| {
            let world_seed = profile.seed ^ (k as u64) << 8;
            let pair_seed = profile.seed ^ 0xF00D ^ k as u64;
            (k, paired_stress(k, bytes, world_seed, pair_seed))
        })
        .collect()
}

/// §6's throughput-under-contention model on Gigabit Ethernet: one
/// saturating stress run with a connection per process of the n′-process
/// All-to-All it predicts, βF/βC read off its fastest and slowest
/// connections (as the paper reads fig. 3), ρ = 0.5. `alpha_secs` only
/// enters the model's predictions.
pub fn throughput_model(profile: &Profile, alpha_secs: f64) -> Result<ThroughputModel, ModelError> {
    let k = ClusterPreset::gigabit_ethernet().sample_nodes;
    let bytes = transfer_bytes(profile.scale);
    let seed = profile.seed ^ 0xBEEF;
    let stress = paired_stress(k, bytes, seed, seed);
    ThroughputModel::from_stress_times(alpha_secs, bytes, &stress.times_secs, 0.5)
}

/// Figure 2: average per-connection bandwidth vs connection count.
pub fn run_fig2(profile: &Profile) -> ExperimentOutput {
    let sweep = stress_sweep(profile);
    let mut table = Table::new(
        "fig2: average bandwidth vs simultaneous connections (GbE)",
        &["connections", "mean_MBps", "min_MBps", "max_MBps"],
    );
    let mut pts = Vec::new();
    for (k, result) in &sweep {
        let bws: Vec<f64> = result
            .times_secs
            .iter()
            .map(|&t| result.bytes as f64 / t / 1e6)
            .collect();
        let s = Summary::of(&bws).expect("non-empty");
        table.push_row(vec![
            k.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.min),
            format!("{:.2}", s.max),
        ]);
        pts.push((*k as f64, s.mean));
    }
    let chart = ascii_chart(
        &[Series {
            label: "B avg MB/s".into(),
            points: pts,
        }],
        64,
        14,
    );
    ExperimentOutput {
        table: Some(table),
        chart: Some(chart),
        notes: vec![
            "paper fig2: single connection ≈ 112 MB/s, degrading steadily with more connections"
                .into(),
        ],
    }
}

/// Figure 3: individual transmission times vs connection count.
pub fn run_fig3(profile: &Profile) -> ExperimentOutput {
    let sweep = stress_sweep(profile);
    let mut table = Table::new(
        "fig3: individual transmission times (GbE stress)",
        &["connections", "connection_idx", "time_s"],
    );
    let mut individual = Vec::new();
    let mut average = Vec::new();
    let mut max_straggler: f64 = 1.0;
    for (k, result) in &sweep {
        let s = Summary::of(&result.times_secs).expect("non-empty");
        average.push((*k as f64, s.mean));
        max_straggler = max_straggler.max(result.straggler_factor());
        for (i, &t) in result.times_secs.iter().enumerate() {
            table.push_row(vec![k.to_string(), i.to_string(), format!("{t:.4}")]);
            individual.push((*k as f64, t));
        }
    }
    let chart = ascii_chart(
        &[
            Series {
                label: ". individual".into(),
                points: individual,
            },
            Series {
                label: "A average".into(),
                points: average,
            },
        ],
        64,
        16,
    );
    ExperimentOutput {
        table: Some(table),
        chart: Some(chart),
        notes: vec![format!(
            "worst straggler factor (slowest/fastest within a run): {max_straggler:.1}x \
             (paper: some connections take almost six times longer)"
        )],
    }
}
