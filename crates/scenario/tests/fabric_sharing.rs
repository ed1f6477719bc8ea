//! One fabric per scenario: a batch builds each generated topology once
//! and shares it across the Hockney fit and every cell. Sharing is a
//! schedule-level optimization, so it must not move a single report byte
//! — the oracle here is a report assembled the way the executor worked
//! before sharing existed: every cell on its own from-scratch
//! `build_world` / `build_fluid_fabric` call.

use contention_model::metrics::estimation_error_percent;
use contention_scenario::executor::cell_seed;
use contention_scenario::prelude::*;
use contention_scenario::{topology, workload};
use simmpi::FluidWorld;
use simnet::guard::RunGuard;

const SEED: u64 = 42;

fn is_preset(spec: &ScenarioSpec) -> bool {
    matches!(spec.topology, TopologySpec::Preset { .. })
}

/// Smallest node count, first two message sizes, one repetition: two
/// cells that share the scenario's fabric with its Hockney fit.
fn trimmed(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.sweep.nodes = vec![*spec.sweep.nodes.iter().min().unwrap()];
    spec.sweep.message_bytes.truncate(2);
    spec.sweep.reps = 1;
    spec.sweep.warmup = 0;
    spec
}

fn session(workers: usize) -> Session {
    Session::builder()
        .workers(workers)
        .base_seed(SEED)
        .build()
        .expect("session builds")
}

/// The MED-model report of `spec` with nothing shared: a cold Hockney fit
/// on a fabric of its own, then a from-scratch world (packet) or fabric
/// (fluid) per cell.
fn from_scratch_report(spec: &ScenarioSpec) -> Report {
    let hockney = session(1).calibrate_hockney(spec).expect("hockney fit");
    let mut cells = Vec::new();
    for &n in &spec.sweep.nodes {
        for &m in &spec.sweep.message_bytes {
            let seed = cell_seed(&spec.name, SEED, n, m);
            let programs = workload::programs(&spec.workload, n, m, seed);
            let times: Vec<f64> = if spec.backend == Backend::Fluid {
                let (topo, hosts, mpi) =
                    topology::build_fluid_fabric(spec, n, seed).expect("fabric builds");
                let run = FluidWorld::new(&topo, hosts, mpi)
                    .try_run(programs, RunGuard::unlimited())
                    .expect("fluid cell completes");
                vec![run.duration_secs()]
            } else {
                let mut world = topology::build_world(spec, n, seed).expect("world builds");
                let runs = spec.sweep.warmup + spec.sweep.reps;
                let mut times: Vec<f64> = (0..runs)
                    .map(|_| {
                        world
                            .try_run(programs.clone())
                            .expect("packet cell completes")
                            .duration_secs()
                    })
                    .collect();
                times.split_off(spec.sweep.warmup)
            };
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let model_secs = workload::model_bound(&spec.workload, n, m, seed, &hockney);
            cells.push(CellResult {
                scenario: spec.name.clone(),
                workload: spec.workload.kind().to_string(),
                topology: spec.topology.kind().to_string(),
                n,
                message_bytes: m,
                cell_seed: seed,
                mean_secs: mean,
                min_secs: times.iter().cloned().fold(f64::INFINITY, f64::min),
                max_secs: times.iter().cloned().fold(0.0f64, f64::max),
                model_secs,
                error_percent: estimation_error_percent(mean, model_secs),
                status: CellStatus::Ok,
            });
        }
    }
    Report::new(vec![BatchResult {
        scenario: spec.name.clone(),
        alpha_secs: hockney.alpha_secs,
        beta_secs_per_byte: hockney.beta_secs_per_byte,
        cells,
    }])
}

/// Session reports at each worker count against the from-scratch oracle,
/// byte for byte, with exactly one fabric build per run.
fn assert_sharing_is_invisible(spec: &ScenarioSpec, worker_counts: &[usize]) {
    let expected = from_scratch_report(spec);
    for &workers in worker_counts {
        let session = session(workers);
        let report = session.run(spec).expect("session runs");
        for format in [ReportFormat::Json, ReportFormat::Csv] {
            assert_eq!(
                report.render(format),
                expected.render(format),
                "{} (workers={workers}): sharing the fabric moved report bytes",
                spec.name
            );
        }
        let metrics = session.metrics().expect("snapshot");
        assert_eq!(
            metrics.fabric_builds,
            1,
            "{} (workers={workers}): one Hockney fit and {} cells share one build",
            spec.name,
            metrics.cells.len()
        );
        assert!(metrics.fabric_build_secs > 0.0, "{}", spec.name);
    }
}

#[test]
fn packet_builtins_match_per_cell_from_scratch_worlds() {
    let generated: Vec<_> = registry::builtin()
        .into_iter()
        .filter(|s| s.backend == Backend::Packet && !is_preset(s))
        .collect();
    assert_eq!(generated.len(), 10, "generated packet builtins moved");
    for spec in generated {
        assert_sharing_is_invisible(&trimmed(spec), &[1, 2, 8]);
    }
}

#[test]
fn fluid_backend_matches_per_cell_from_scratch_fabrics() {
    for name in [
        "dragonfly-adversarial-uniform",
        "torus3d-random-permutation",
    ] {
        let mut spec = trimmed(registry::by_name(name).expect("built-in"));
        spec.backend = Backend::Fluid;
        assert_sharing_is_invisible(&spec, &[1, 2, 8]);
    }
}

/// The two fluid-native builtins exactly as shipped. Each is a single
/// cell — the executor spawns `min(workers, cells)` threads, so one
/// worker count covers them — and one test each lets the pair run side
/// by side: a 1024- or 4096-host fabric is seconds of debug-build work,
/// three times over (the oracle's fit, the oracle's cell, the
/// session).
fn assert_shipped_fluid_builtin_is_unmoved(name: &str) {
    let spec = registry::by_name(name).expect("built-in");
    assert_eq!(spec.backend, Backend::Fluid, "{name}");
    assert!(!is_preset(&spec), "{name}");
    assert_sharing_is_invisible(&spec, &[8]);
}

#[test]
fn fat_tree_1024_as_shipped_matches_from_scratch_fabrics() {
    assert_shipped_fluid_builtin_is_unmoved("fat-tree-1024-alltoall");
}

#[test]
fn dragonfly_4k_as_shipped_matches_from_scratch_fabrics() {
    assert_shipped_fluid_builtin_is_unmoved("dragonfly-4k-adversarial");
}

#[test]
fn a_batch_builds_one_fabric_per_generated_scenario_and_none_for_presets() {
    let specs: Vec<_> = registry::builtin()
        .into_iter()
        .filter(|s| s.backend == Backend::Packet)
        .map(trimmed)
        .collect();
    let generated = specs.iter().filter(|s| !is_preset(s)).count() as u64;
    assert!(generated > 0 && generated < specs.len() as u64);

    let cold = session(2);
    cold.run_many(&specs).expect("cold batch runs");
    let metrics = cold.metrics().expect("snapshot");
    assert_eq!(metrics.fabric_builds, generated);
    // What a build per calibration and per cell used to cost.
    assert!((metrics.cells.len() as u64 + metrics.cache.misses) >= 3 * generated);

    // A warm calibration cache answers every fit from the memo; the
    // fabrics are still built — once each, by the first cell — and stay
    // out of the cache counters.
    let warm = Session::builder()
        .workers(2)
        .base_seed(SEED)
        .shared_cache(cold.cache())
        .build()
        .expect("session builds");
    warm.run_many(&specs).expect("warm batch runs");
    let metrics = warm.metrics().expect("snapshot");
    assert_eq!(metrics.fabric_builds, generated);
    assert_eq!(metrics.cache.misses, 0);
    assert_eq!(metrics.cache.hit_rate(), 1.0);

    let doc = metrics.render_json();
    assert!(
        doc.contains(&format!("\"fabric_builds\": {generated},")),
        "{doc}"
    );
}
