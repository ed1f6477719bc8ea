//! Scheduler-determinism oracle for the non-tree fabrics: a `Session`
//! report must be byte-identical across worker counts under every model.
//! (The pre-refactor capture `golden/incast-burst_seed42_workers_any.csv`
//! is pinned through the same path by
//! `session_determinism::incast_full_grid_through_the_session_matches_the_prerefactor_golden`.)

use contention_scenario::prelude::*;
use std::sync::Arc;

/// The non-tree fabrics (torus, dragonfly) and non-scatter placements
/// obey the same determinism contract: one trimmed cell of each new
/// builtin, run under every model, must be byte-identical across worker
/// counts.
#[test]
fn new_fabric_scenarios_are_deterministic_across_workers_and_models() {
    for name in [
        "torus-neighbor-exchange",
        "torus3d-random-permutation",
        "dragonfly-adversarial-uniform",
        "packed-vs-scattered-fattree",
    ] {
        let mut spec = registry::by_name(name).expect("built-in scenario");
        // One cheap cell: enough to cross the whole engine, small enough
        // for CI (model calibrations dominate, so the three worker counts
        // share one cache and each fit runs once).
        spec.sweep.nodes = vec![*spec.sweep.nodes.first().unwrap()];
        spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
        spec.sweep.reps = 1;
        spec.sweep.warmup = 0;
        let cache = Arc::new(CalibrationCache::new());
        for model in [ModelKind::Med, ModelKind::Signature, ModelKind::Saturation] {
            let reports: Vec<String> = [1usize, 2, 8]
                .into_iter()
                .map(|workers| {
                    Session::builder()
                        .workers(workers)
                        .base_seed(42)
                        .model(model)
                        .shared_cache(Arc::clone(&cache))
                        .build()
                        .expect("session builds")
                        .run(&spec)
                        .expect("scenario runs")
                        .render(ReportFormat::Csv)
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{name}/{}: w1 vs w2", model.name());
            assert_eq!(reports[0], reports[2], "{name}/{}: w1 vs w8", model.name());
        }
    }
}
