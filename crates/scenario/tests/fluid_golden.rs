//! Fluid-backend byte golden: the `--backend fluid` CSV of every
//! packet-capable builtin at seed 42, each trimmed to the one cheap cell
//! `fluid_validation.rs` cross-validates (smallest node count, first
//! message size, one rep, no warm-up), must equal the checked-in bytes.
//! A change to the fluid engine or its MPI interpreter that claims to
//! keep behaviour shows here as an unchanged golden.
//!
//! Regenerate the golden only for an intentional change in fluid
//! results, and say which rows moved and why:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p contention-scenario --test fluid_golden
//! ```

use contention_scenario::prelude::*;

const GOLDEN: &str = include_str!("golden/fluid_backend_seed42.csv");

/// One cheap fluid cell per builtin, as in `fluid_validation.rs`.
fn trimmed_fluid(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.sweep.nodes = vec![*spec.sweep.nodes.iter().min().unwrap()];
    spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
    spec.sweep.reps = 1;
    spec.sweep.warmup = 0;
    spec.backend = Backend::Fluid;
    spec
}

#[test]
fn fluid_backend_rows_match_the_golden_bytes() {
    let specs: Vec<ScenarioSpec> = registry::builtin()
        .into_iter()
        .filter(|spec| spec.backend == Backend::Packet)
        .map(trimmed_fluid)
        .collect();
    let csv = Session::builder()
        .workers(2)
        .base_seed(42)
        .build()
        .expect("session builds")
        .run_many(&specs)
        .expect("fluid cells run")
        .render(ReportFormat::Csv);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fluid_backend_seed42.csv"
        );
        std::fs::write(path, &csv).expect("write golden");
        panic!("regenerated {path}; re-run without REGEN_GOLDEN");
    }
    assert_eq!(
        csv, GOLDEN,
        "fluid rows diverged from tests/golden/fluid_backend_seed42.csv"
    );
}
