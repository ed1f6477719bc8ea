//! Session determinism: every one of the 13 packet builtin scenarios
//! must be byte-identical across worker counts 1/2/8 — and the
//! incast-burst full grid must reproduce the golden captured before the
//! hot-path overhaul (interned routes, packed packets, cost-aware
//! scheduling) exactly. That golden is the regression oracle for every
//! engine refactor's "no behavioral change" guarantee — the event queue
//! and the transmitter bands have been rebuilt twice under it;
//! regenerate it only for an *intentional* semantic change:
//!
//! ```text
//! ctnsim run incast-burst --workers 1 \
//!     --out crates/scenario/tests/golden/incast-burst_seed42_workers_any.csv
//! ```
//!
//! Together with the per-cell determinism contract (a cell depends only
//! on `(scenario, seed, n, m)`, never on its grid neighbours), the
//! trimmed one-cell sweeps below cover the full builtin grids: any
//! engine-level divergence would move these cells too.

use contention_scenario::prelude::*;
use std::sync::Arc;

/// Captured at the pre-refactor engine (seed 42, any worker count).
const GOLDEN: &str = include_str!("golden/incast-burst_seed42_workers_any.csv");

fn session(workers: usize, cache: &Arc<CalibrationCache>) -> Session {
    Session::builder()
        .workers(workers)
        .base_seed(42)
        .shared_cache(Arc::clone(cache))
        .build()
        .expect("session builds")
}

#[test]
fn incast_full_grid_through_the_session_matches_the_prerefactor_golden() {
    let spec = registry::by_name("incast-burst").expect("built-in");
    let cache = Arc::new(CalibrationCache::new());
    for workers in [1usize, 2, 8] {
        let report = session(workers, &cache).run(&spec).expect("runs");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(
            report.render(ReportFormat::Csv),
            GOLDEN,
            "workers={workers}: Session report diverged from the pre-refactor golden"
        );
    }
}

#[test]
fn all_thirteen_packet_builtins_are_byte_identical_across_workers() {
    // The huge-fabric fluid builtins are covered by fluid_validation and
    // the CI smoke run; this oracle pins the packet tier's byte-identity.
    let all: Vec<_> = registry::builtin()
        .into_iter()
        .filter(|s| s.backend == Backend::Packet)
        .collect();
    assert_eq!(
        all.len(),
        13,
        "packet builtin count moved; update this oracle"
    );
    let cache = Arc::new(CalibrationCache::new());
    for mut spec in all {
        // One cheap cell per builtin: enough to cross calibration, world
        // building, placement, workload generation and the whole engine.
        spec.sweep.nodes = vec![*spec.sweep.nodes.first().unwrap()];
        spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
        spec.sweep.reps = 1;
        spec.sweep.warmup = 0;
        let mut renders = Vec::new();
        for workers in [1usize, 2, 8] {
            let report = session(workers, &cache)
                .run(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            renders.push((workers, report.render(ReportFormat::Csv)));
        }
        let (_, first) = &renders[0];
        for (workers, render) in &renders[1..] {
            assert_eq!(
                render, first,
                "{}: workers={workers} diverged from workers=1",
                spec.name
            );
        }
    }
}
