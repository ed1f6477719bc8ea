//! One module per paper figure, all registered in [`registry`].
//!
//! Figures 6/9/12 (fit), 7/10/13 (prediction surface) and 8/11/14
//! (estimation error) have identical structure across the three networks:
//! each is one function of the preset, which carries the paper's n′
//! ([`ClusterPreset::sample_nodes`]); the registry binds the preset. What
//! the paper reported on each testbed is [`paper::testbed`].

pub mod error_grid;
pub mod fit;
pub mod paper;
pub mod params;
pub mod smallmsg;
pub mod stress;
pub mod surface;
pub mod throughput_fig;

use crate::report::Table;
use simmpi::presets::ClusterPreset;
use std::path::PathBuf;

/// How large a grid an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grids sized for a small machine (minutes, not hours).
    Quick,
    /// The paper's grids.
    Full,
}

/// Execution profile shared by all experiments.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Grid size.
    pub scale: Scale,
    /// Base seed; every experiment derives its own streams from it.
    pub seed: u64,
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
    /// Worker threads for parallel sweeps.
    pub workers: usize,
}

impl Default for Profile {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 42,
            out_dir: PathBuf::from("results"),
            workers: simmpi::runner::default_workers(),
        }
    }
}

/// What an experiment produces: its table (also written as CSV), an
/// optional pre-rendered chart and notes for the terminal.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// The result table, written as `{id}.csv`.
    pub table: Option<Table>,
    /// ASCII chart to print.
    pub chart: Option<String>,
    /// Free-form notes (fitted parameters, paper comparison).
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// An experiment that could not measure: no table, one note saying why.
    pub fn failed(note: String) -> Self {
        Self {
            notes: vec![note],
            ..Self::default()
        }
    }
}

/// A registered, reproducible experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable identifier (`fig2` … `fig14`, `params`).
    pub id: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// What the paper shows in this figure.
    pub paper_claim: &'static str,
    /// Runner.
    pub run: fn(&Profile) -> ExperimentOutput,
}

/// Every reproducible experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            title: "Average per-connection bandwidth vs simultaneous connections (GbE)",
            paper_claim: "average throughput drops drastically as connections increase",
            run: stress::run_fig2,
        },
        Experiment {
            id: "fig3",
            title: "Individual 32 MB transmission times vs connections (GbE)",
            paper_claim: "most connections finish near the mean; stragglers take ~6x longer",
            run: stress::run_fig3,
        },
        Experiment {
            id: "fig4",
            title: "Throughput-under-contention prediction, 40 processes (GbE)",
            paper_claim: "synthetic beta from rho=0.5 tracks large messages, misses small ones",
            run: throughput_fig::run,
        },
        Experiment {
            id: "fig5",
            title: "Small-message non-linearity map (GbE, 256 B steps)",
            paper_claim: "completion time is non-linear below ~16 KiB",
            run: smallmsg::run,
        },
        Experiment {
            id: "fig6",
            title: "Fitting MPI_Alltoall on Fast Ethernet (24 machines)",
            paper_claim: "gamma=1.0195, delta=8.23 ms for m >= 2 KiB: affine, near the bound",
            run: |p| fit::run(&ClusterPreset::fast_ethernet(), p),
        },
        Experiment {
            id: "fig7",
            title: "Prediction surface on Fast Ethernet",
            paper_claim: "signature fitted at n'=24 predicts other node counts",
            run: |p| surface::run(&ClusterPreset::fast_ethernet(), p),
        },
        Experiment {
            id: "fig8",
            title: "Estimation error vs process count on Fast Ethernet",
            paper_claim: "error < ~10% once the network is saturated",
            run: |p| error_grid::run(&ClusterPreset::fast_ethernet(), p),
        },
        Experiment {
            id: "fig9",
            title: "Fitting MPI_Alltoall on Gigabit Ethernet (40 machines)",
            paper_claim: "gamma=4.3628, delta=4.93 ms for m >= 8 KiB: far above the bound",
            run: |p| fit::run(&ClusterPreset::gigabit_ethernet(), p),
        },
        Experiment {
            id: "fig10",
            title: "Prediction surface on Gigabit Ethernet",
            paper_claim: "signature fitted at n'=40 predicts other node counts",
            run: |p| surface::run(&ClusterPreset::gigabit_ethernet(), p),
        },
        Experiment {
            id: "fig11",
            title: "Estimation error vs process count on Gigabit Ethernet",
            paper_claim: "large negative error below saturation, < ~10% above",
            run: |p| error_grid::run(&ClusterPreset::gigabit_ethernet(), p),
        },
        Experiment {
            id: "fig12",
            title: "Fitting MPI_Alltoall on Myrinet (24 processes)",
            paper_claim: "gamma=2.49754, delta below 1 us: pure ratio, no affine term",
            run: |p| fit::run(&ClusterPreset::myrinet(), p),
        },
        Experiment {
            id: "fig13",
            title: "Prediction surface on Myrinet",
            paper_claim: "signature fitted at n'=24 predicts other node counts",
            run: |p| surface::run(&ClusterPreset::myrinet(), p),
        },
        Experiment {
            id: "fig14",
            title: "Estimation error vs process count on Myrinet",
            paper_claim: "saturation only beyond ~40 processes; error shrinks there",
            run: |p| error_grid::run(&ClusterPreset::myrinet(), p),
        },
        Experiment {
            id: "params",
            title: "Fitted parameter table (alpha, beta, betaF, betaC, gamma, delta, M)",
            paper_claim: "the quoted parameter values of sections 6 and 8",
            run: params::run,
        },
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_figure_and_params() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        for fig in 2..=14 {
            assert!(
                ids.contains(&format!("fig{fig}").as_str()),
                "fig{fig} missing"
            );
        }
        assert!(ids.contains(&"params"));
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(by_id("fig9").unwrap().id, "fig9");
        assert!(by_id("fig99").is_none());
    }
}
