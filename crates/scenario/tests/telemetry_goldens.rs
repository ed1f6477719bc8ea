//! Telemetry transparency goldens: attaching a *recording* `Recorder`
//! must not move a single output byte. Every one of the 13 builtin
//! scenarios runs with telemetry on at workers 1/2/8 and must render the
//! same CSV as the plain session; the incast-burst full grid must still
//! reproduce the pre-refactor golden capture. On top of the byte
//! contract, the [`SessionMetrics`] snapshot and its two export formats
//! (metrics JSON, Chrome trace-event JSON) are checked for shape and
//! JSON validity (`simnet::obs::json::parse` accepts them).

use contention_scenario::prelude::*;
use simnet::obs::json;
use std::sync::Arc;

/// Captured at the pre-refactor engine (seed 42, any worker count).
const GOLDEN: &str = include_str!("golden/incast-burst_seed42_workers_any.csv");

fn session(workers: usize, telemetry: bool, cache: &Arc<CalibrationCache>) -> Session {
    Session::builder()
        .workers(workers)
        .base_seed(42)
        .telemetry(telemetry)
        .shared_cache(Arc::clone(cache))
        .build()
        .expect("session builds")
}

/// What `--metrics` exports for every cell of `metrics`: a positive
/// simulated span, and a `busy_frac` in (0, 1] on every link it lists —
/// no link is busy for longer than the run it was busy in.
fn assert_link_busy_fractions(metrics: &SessionMetrics, what: &str) {
    let doc = json::parse(&metrics.render_json()).expect("metrics JSON parses");
    let Some(json::Value::Array(cells)) = doc.get("cells") else {
        panic!("{what}: no cells array");
    };
    for cell in cells {
        let engine = cell.get("engine").expect("engine telemetry");
        let sim_secs = engine.get("sim_secs").and_then(json::Value::as_f64);
        assert!(
            sim_secs.is_some_and(|s| s > 0.0),
            "{what}: sim_secs {sim_secs:?}"
        );
        let Some(json::Value::Array(links)) = engine.get("links") else {
            panic!("{what}: no links array");
        };
        assert!(!links.is_empty(), "{what}: no busy links");
        for link in links {
            let frac = link.get("busy_frac").and_then(json::Value::as_f64);
            assert!(
                frac.is_some_and(|f| f > 0.0 && f <= 1.0),
                "{what}: tx {:?} busy_frac {frac:?}",
                link.get("tx")
            );
        }
    }
}

fn trimmed(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.sweep.nodes = vec![*spec.sweep.nodes.first().unwrap()];
    spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
    spec.sweep.reps = 1;
    spec.sweep.warmup = 0;
    spec
}

#[test]
fn incast_full_grid_with_telemetry_matches_the_prerefactor_golden() {
    let spec = registry::by_name("incast-burst").expect("built-in");
    let cache = Arc::new(CalibrationCache::new());
    for workers in [1usize, 2, 8] {
        let s = session(workers, true, &cache);
        let report = s.run(&spec).expect("runs");
        assert_eq!(
            report.render(ReportFormat::Csv),
            GOLDEN,
            "workers={workers}: recording telemetry moved report bytes"
        );
        let metrics = s.metrics().expect("snapshot exists after a run");
        assert_eq!(metrics.cells.len(), report.cell_count());
        assert!(
            metrics.cells.iter().all(|c| c.engine.is_some()),
            "telemetry sessions attach engine telemetry to every cell"
        );
    }
}

#[test]
fn all_thirteen_packet_builtins_are_byte_identical_with_a_recording_recorder() {
    // Fluid builtins run grids far too large for a debug-mode triple run;
    // fluid telemetry transparency is covered in fluid_validation.
    let all: Vec<_> = registry::builtin()
        .into_iter()
        .filter(|s| s.backend == Backend::Packet)
        .collect();
    assert_eq!(
        all.len(),
        13,
        "packet builtin count moved; update this oracle"
    );
    let plain_cache = Arc::new(CalibrationCache::new());
    let telem_cache = Arc::new(CalibrationCache::new());
    for spec in all {
        let spec = trimmed(spec);
        let plain = session(1, false, &plain_cache)
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
            .render(ReportFormat::Csv);
        for workers in [1usize, 2, 8] {
            let s = session(workers, true, &telem_cache);
            let report = s
                .run(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(
                report.render(ReportFormat::Csv),
                plain,
                "{}: workers={workers} with telemetry diverged from the plain session",
                spec.name
            );
            // The verified traffic the engine's event queue was measured
            // on (`simnet::event`, a radix heap). Bucket k ≥ 1 of the
            // log2 histogram counts pops that left [2^(k-1), 2^k) events
            // pending. Measured at the *full* default grids: twelve of the
            // thirteen packet builtins never leave 2 048 pending (bucket
            // 11 at most: 5–9 % of pops on the two Ethernet presets, 0.2 %
            // on paper-myrinet, 30 % on oversubscribed-tree-skewed, under
            // 0.1 % on fat-tree-uniform and sparse-star; buckets 7–10 top
            // the rest), and the deepest, permutation-lossless, spends
            // 3.4 % of its pops in bucket 12 and none above. A workload
            // that breaks this bound is the evidence a deeper-queue
            // structure would need — shown on `ctnbench`'s end-to-end
            // metrics, not on a queue micro-benchmark.
            let metrics = s.metrics().expect("snapshot after the run");
            assert_link_busy_fractions(&metrics, &spec.name);
            for cell in &metrics.cells {
                let hist = &cell.engine.as_ref().expect("telemetry").pop_queue_hist;
                assert!(
                    hist.len() <= 13,
                    "{}: a pop left 4 096 or more events pending: {hist:?}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn session_metrics_snapshot_has_schedule_workers_and_cache_counters() {
    let spec = registry::by_name("incast-burst").expect("built-in");
    let cache = Arc::new(CalibrationCache::new());
    let s = session(2, true, &cache);
    assert!(s.metrics().is_none(), "no snapshot before the first run");
    let report = s.run(&spec).expect("runs");
    let metrics = s.metrics().expect("snapshot after the run");

    assert!(metrics.wall_secs > 0.0);
    assert_eq!(metrics.cells.len(), report.cell_count());
    // Schedule indexes are a permutation of 0..cells, reported in order.
    let schedule: Vec<usize> = metrics.cells.iter().map(|c| c.schedule_index).collect();
    assert_eq!(schedule, (0..metrics.cells.len()).collect::<Vec<_>>());
    // Worker occupancy accounts for every cell.
    assert_eq!(
        metrics.workers.iter().map(|w| w.cells).sum::<usize>(),
        metrics.cells.len()
    );
    assert!(metrics.workers.iter().all(|w| w.busy_secs >= 0.0));
    // First run on a fresh cache: misses only.
    assert_eq!(metrics.cache.hits, 0);
    assert!(metrics.cache.misses >= 1);
    assert_eq!(metrics.cache.inserts, metrics.cache.misses);
    for cell in &metrics.cells {
        assert!(cell.wall_secs >= 0.0 && cell.start_secs >= 0.0);
        let engine = cell.engine.as_ref().expect("telemetry session");
        assert!(engine.events > 0, "{}: no events recorded", cell.scenario);
        assert!(
            engine.links.iter().any(|l| l.busy_ns > 0),
            "{}: no busy links",
            cell.scenario
        );
    }

    // Second run over the same spec: everything is memoized.
    s.run(&spec).expect("runs again");
    let again = s.metrics().expect("snapshot replaced");
    assert_eq!(again.cache.misses, 0);
    assert!(again.cache.hits >= 1);
}

#[test]
fn metrics_and_trace_exports_pass_the_shared_json_lint() {
    let spec = trimmed(registry::by_name("incast-burst").expect("built-in"));
    let cache = Arc::new(CalibrationCache::new());
    let s = session(2, true, &cache);
    s.run(&spec).expect("runs");
    let metrics = s.metrics().expect("snapshot");

    let doc = metrics.render_json();
    json::parse(&doc).unwrap_or_else(|e| panic!("metrics JSON invalid: {e}\n{doc}"));
    assert!(doc.contains("\"metrics_schema_version\": 1"));
    assert!(doc.contains("\"cells\""));

    let trace = metrics.render_chrome_trace();
    json::parse(&trace).unwrap_or_else(|e| panic!("trace JSON invalid: {e}\n{trace}"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""), "cell spans present");
    assert!(trace.contains("\"ph\":\"M\""), "metadata records present");
}

#[test]
fn disabled_telemetry_still_snapshots_wall_clock_and_schedule() {
    let spec = trimmed(registry::by_name("incast-burst").expect("built-in"));
    let cache = Arc::new(CalibrationCache::new());
    let s = session(1, false, &cache);
    s.run(&spec).expect("runs");
    let metrics = s.metrics().expect("snapshot exists without telemetry");
    assert_eq!(metrics.cells.len(), 1);
    assert!(metrics.cells[0].engine.is_none(), "no recorder attached");
    assert!(metrics.wall_secs > 0.0);
    // The no-engine document still parses.
    json::parse(&metrics.render_json()).expect("valid JSON");
    json::parse(&metrics.render_chrome_trace()).expect("valid trace JSON");
}
