//! Supervised-execution integration tests: deadlines, budgets, the
//! stall/deadlock detector, panic isolation, mid-run cancellation, and
//! randomized fault plans.
//!
//! The headline scenario is the paper's GM-on-finite-buffer trap: GM
//! never retransmits, so tail drops at a small shared-buffer switch
//! leave ranks waiting on data that can never arrive. Under supervision
//! that is a *detected outcome* (`status = deadlocked`), not a hang.

use contention_scenario::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// GM transport pushing a large window through a 16 KiB shared-buffer
/// switch under 3-to-1 incast: drops are certain, retransmits never
/// happen. The buffer is big enough that the single-flow calibration
/// ping-pong survives — only the contended cells fall into the trap.
fn deadlocking_spec() -> ScenarioSpec {
    ScenarioBuilder::new("gm-finite-buffer-trap")
        .single_switch(
            4,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig {
                shared_buffer_bytes: 16 * 1024,
                per_port_cap_bytes: 8 * 1024,
            },
        )
        .gm(1 << 20)
        .incast(1)
        .nodes([4])
        .message_bytes([256 * 1024])
        .reps(1)
        .warmup(0)
        .build()
        .expect("valid spec")
}

/// A small, healthy 2x2 grid used by the fault-injection tests.
fn healthy_spec() -> ScenarioSpec {
    ScenarioBuilder::new("supervised-grid")
        .single_switch(
            8,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .uniform("direct")
        .nodes([2, 4])
        .message_bytes([1024, 4096])
        .reps(1)
        .warmup(0)
        .build()
        .expect("valid spec")
}

fn statuses(report: &Report) -> Vec<(usize, u64, String, String)> {
    report.batches[0]
        .cells
        .iter()
        .map(|c| {
            (
                c.n,
                c.message_bytes,
                c.status.name().to_string(),
                c.status.detail(),
            )
        })
        .collect()
}

#[test]
fn gm_on_finite_buffer_is_detected_as_deadlock_not_a_hang() {
    let session = Session::builder().workers(1).base_seed(7).build().unwrap();
    let started = Instant::now();
    let report = session.run(&deadlocking_spec()).expect("run terminates");
    // The stall detector fires as soon as the event queue drains with
    // unacked bytes outstanding — no wall-clock limit was configured.
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "detector should fire promptly"
    );
    let cell = &report.batches[0].cells[0];
    assert_eq!(cell.status.name(), "deadlocked", "{:?}", cell.status);
    assert!(
        !cell.status.detail().is_empty(),
        "deadlock rows carry the blocked-rank diagnostic"
    );
    assert!(cell.mean_secs.is_nan(), "no measurement for a stopped cell");
    // Any non-ok row upgrades the report to the supervised schema.
    assert_eq!(report.schema_version, SUPERVISED_SCHEMA_VERSION);
    assert!(report.has_failures());
    let json = report.render(ReportFormat::Json);
    assert!(json.contains("\"status\": \"deadlocked\""), "{json}");
}

#[test]
fn deadlock_is_still_detected_under_a_wall_clock_deadline() {
    // A generous deadline must not mask the detector: the queue drains
    // long before 60 s of wall clock, so the diagnosis stays precise.
    let session = Session::builder()
        .workers(1)
        .base_seed(7)
        .limits(GuardLimits {
            deadline: Some(Duration::from_secs(60)),
            ..GuardLimits::default()
        })
        .build()
        .unwrap();
    let report = session.run(&deadlocking_spec()).expect("run terminates");
    let cell = &report.batches[0].cells[0];
    assert_eq!(cell.status.name(), "deadlocked", "{:?}", cell.status);
    // Configured limits force the supervised schema even before any row
    // goes bad.
    assert_eq!(report.schema_version, SUPERVISED_SCHEMA_VERSION);
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let spec = healthy_spec();
    let plan = FaultPlan::new().panic_cell(&spec.name, 4, 1024);
    let session = Session::builder()
        .workers(2)
        .base_seed(11)
        .inject_faults(plan)
        .build()
        .unwrap();
    let report = session
        .run(&spec)
        .expect("batch completes around the panic");
    let rows = statuses(&report);
    assert_eq!(rows.len(), 4);
    for (n, m, status, detail) in &rows {
        if (*n, *m) == (4, 1024) {
            assert_eq!(status, "panicked", "{detail}");
            assert!(detail.contains("injected fault"), "{detail}");
        } else {
            assert_eq!(status, "ok", "sibling cell n={n} m={m} must complete");
        }
    }
    // Sibling cells carry real measurements.
    let ok_cell = report.batches[0]
        .cells
        .iter()
        .find(|c| c.status.is_ok())
        .expect("some cell completed");
    assert!(ok_cell.mean_secs.is_finite() && ok_cell.mean_secs > 0.0);
    assert_eq!(report.schema_version, SUPERVISED_SCHEMA_VERSION);
}

#[test]
fn injected_stall_trips_the_wall_clock_deadline() {
    let spec = healthy_spec();
    let plan = FaultPlan::new().stall_cell(&spec.name, 2, 1024);
    let session = Session::builder()
        .workers(2)
        .base_seed(11)
        .limits(GuardLimits {
            deadline: Some(Duration::from_millis(300)),
            ..GuardLimits::default()
        })
        .inject_faults(plan)
        .build()
        .unwrap();
    let started = Instant::now();
    let report = session.run(&spec).expect("deadline unsticks the stall");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "stalled cell must be bounded by its deadline"
    );
    let rows = statuses(&report);
    let (_, _, status, detail) = rows
        .iter()
        .find(|(n, m, ..)| (*n, *m) == (2, 1024))
        .expect("stalled cell reported");
    assert_eq!(status, "timed-out", "{detail}");
    assert!(detail.contains("wall-clock deadline"), "{detail}");
}

#[test]
fn tiny_event_budget_stops_cells_as_budget_exceeded() {
    let spec = ScenarioBuilder::new("budgeted")
        .single_switch(
            8,
            LinkConfig::gigabit_ethernet(),
            SwitchConfig::commodity_ethernet(),
        )
        .uniform("direct")
        .nodes([8])
        .message_bytes([256 * 1024])
        .reps(1)
        .warmup(0)
        .build()
        .expect("valid spec");
    let session = Session::builder()
        .workers(1)
        .base_seed(3)
        .limits(GuardLimits {
            event_budget: Some(16),
            ..GuardLimits::default()
        })
        .build()
        .unwrap();
    let report = session.run(&spec).expect("budget stop is not an error");
    let cell = &report.batches[0].cells[0];
    assert_eq!(cell.status.name(), "budget-exceeded", "{:?}", cell.status);
    assert!(cell.status.detail().contains("16"), "{:?}", cell.status);
}

#[test]
fn mid_run_cancellation_is_honored_mid_cell_and_fills_the_rest() {
    // One worker, every cell stalled: the first popped cell parks until
    // the watchdog raises the token; the worker then refuses further
    // cells and the executor synthesizes `cancelled` rows for them.
    let spec = healthy_spec();
    let plan = FaultPlan::new()
        .stall_cell(&spec.name, 2, 1024)
        .stall_cell(&spec.name, 2, 4096)
        .stall_cell(&spec.name, 4, 1024)
        .stall_cell(&spec.name, 4, 4096);
    // Pre-warm a shared calibration cache so the supervised run reaches
    // its first cell immediately — cancellation during the calibration
    // phase is (by design) the hard `Err(Cancelled)` path instead.
    let cache = std::sync::Arc::new(CalibrationCache::new());
    Session::builder()
        .workers(1)
        .base_seed(5)
        .shared_cache(cache.clone())
        .build()
        .unwrap()
        .run(&spec)
        .expect("warm-up run");
    let token = CancelToken::new();
    let session = Session::builder()
        .workers(1)
        .base_seed(5)
        .shared_cache(cache)
        .cancel_token(token.clone())
        .inject_faults(plan)
        .build()
        .unwrap();
    let watchdog = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let started = Instant::now();
    let report = session
        .run(&spec)
        .expect("mid-run cancel returns a partial report, not an error");
    watchdog.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation latency must be bounded"
    );
    let rows = statuses(&report);
    assert_eq!(rows.len(), 4);
    for (n, m, status, _) in &rows {
        assert_eq!(status, "cancelled", "cell n={n} m={m}");
    }
    assert!(report.has_failures());
}

#[test]
fn mid_run_cancellation_of_two_scenarios_keeps_both_grids_whole() {
    // One worker, two scenarios in one queue, cancelled from the observer
    // on the first finished cell. Every cell but the one the schedule pops
    // first (the costliest, first in grid order) is stalled, so whether or
    // not the worker reaches a second cell before the token is raised,
    // exactly one row is measured — and both batches are put together
    // from a grid that is mostly cells nobody ever started.
    let specs = ["first", "second"].map(|name| ScenarioSpec {
        name: name.to_string(),
        ..healthy_spec()
    });
    let grid = [(2, 1024), (2, 4096), (4, 1024), (4, 4096)];
    let mut plan = FaultPlan::new();
    for (spec, &(n, m)) in specs.iter().flat_map(|s| grid.iter().map(move |c| (s, c))) {
        if (spec.name.as_str(), n, m) != ("first", 4, 4096) {
            plan = plan.stall_cell(&spec.name, n, m);
        }
    }
    let token = CancelToken::new();
    let session = Session::builder()
        .workers(1)
        .base_seed(5)
        .cancel_token(token.clone())
        .inject_faults(plan)
        // Only so that a schedule change fails this test instead of
        // hanging it on a stalled first cell.
        .limits(GuardLimits {
            deadline: Some(Duration::from_secs(30)),
            ..GuardLimits::default()
        })
        .build()
        .unwrap();
    let report = session
        .run_many_with(&specs, &mut |event: RunEvent<'_>| {
            if let RunEvent::CellFinished { .. } = event {
                token.cancel();
            }
        })
        .expect("mid-run cancel returns a partial report, not an error");
    assert_eq!(report.batches.len(), 2);
    for (spec, batch) in specs.iter().zip(&report.batches) {
        assert_eq!(batch.scenario, spec.name);
        let rows: Vec<(usize, u64)> = batch.cells.iter().map(|c| (c.n, c.message_bytes)).collect();
        assert_eq!(rows, grid, "{}: full grid, nodes-major", spec.name);
        for cell in &batch.cells {
            let (n, m) = (cell.n, cell.message_bytes);
            let seed = contention_scenario::executor::cell_seed(&spec.name, 5, n, m);
            assert_eq!(cell.cell_seed, seed, "{} n={n} m={m}", spec.name);
            if (spec.name.as_str(), n, m) == ("first", 4, 4096) {
                assert!(cell.status.is_ok() && cell.mean_secs > 0.0, "{cell:?}");
            } else {
                assert_eq!(cell.status.name(), "cancelled", "{} n={n} m={m}", spec.name);
            }
        }
    }
}

#[test]
fn calibration_failures_are_reported_in_spec_order_at_any_worker_count() {
    // Both traps stall in the signature fit's sample All-to-Alls; the run
    // must name the first in spec order however the fits were scheduled.
    let traps = ["a", "b"].map(|name| ScenarioSpec {
        name: name.to_string(),
        ..deadlocking_spec()
    });
    for workers in [1, 4] {
        let session = Session::builder()
            .workers(workers)
            .model(ModelKind::Signature)
            .build()
            .unwrap();
        match session.run_many(&traps) {
            Err(CtnError::Calibration { scenario, detail }) => {
                assert_eq!(scenario, "a", "workers={workers}");
                assert!(detail.contains("deadlock"), "{detail}");
            }
            other => panic!("workers={workers}: expected a calibration error, got {other:?}"),
        }
    }
}

/// The unsupervised baseline the proptest compares against, computed
/// once: same spec, same seed, no limits, no faults.
fn baseline() -> &'static Vec<CellResult> {
    static BASELINE: OnceLock<Vec<CellResult>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let session = Session::builder().workers(2).base_seed(11).build().unwrap();
        let report = session.run(&healthy_spec()).expect("baseline runs");
        report.batches[0].cells.clone()
    })
}

/// Per-cell injected fault chosen by proptest: `None`, a panic, or a
/// wall-clock slowdown (which must not change simulated results).
/// `Stall` is excluded — unsupervised stalls park forever by design, and
/// this property runs without a deadline.
fn fault_strategy() -> impl Strategy<Value = Option<u8>> {
    // 0 => panic, 1 => slow, anything else => no fault (weighted 3:1:1).
    (0u8..5).prop_map(|draw| match draw {
        0 => Some(0u8),
        1 => Some(1u8),
        _ => None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Every supervised batch terminates; injected faults surface as
    /// their own status; untouched cells stay byte-identical to an
    /// unsupervised run.
    #[test]
    fn randomized_fault_plans_terminate_with_matching_statuses(
        faults in proptest::collection::vec(fault_strategy(), 4),
        slow_ms in 0u64..3,
    ) {
        let spec = healthy_spec();
        let grid: Vec<(usize, u64)> =
            vec![(2, 1024), (2, 4096), (4, 1024), (4, 4096)];
        let mut plan = FaultPlan::new();
        for ((n, m), fault) in grid.iter().zip(&faults) {
            plan = match fault {
                Some(0) => plan.panic_cell(&spec.name, *n, *m),
                Some(_) => {
                    plan.slow_cell(&spec.name, *n, *m, Duration::from_millis(slow_ms))
                }
                None => plan,
            };
        }
        let session = Session::builder()
            .workers(2)
            .base_seed(11)
            .inject_faults(plan)
            .build()
            .unwrap();
        let report = session.run(&spec).expect("supervised batch terminates");
        let cells = &report.batches[0].cells;
        prop_assert_eq!(cells.len(), grid.len());
        for (cell, fault) in cells.iter().zip(&faults) {
            match fault {
                Some(0) => prop_assert_eq!(cell.status.name(), "panicked"),
                _ => {
                    // Untouched and slowed cells run normally and match
                    // the unsupervised baseline bit-for-bit.
                    prop_assert_eq!(cell.status.name(), "ok");
                    let base = baseline()
                        .iter()
                        .find(|b| b.n == cell.n && b.message_bytes == cell.message_bytes)
                        .expect("baseline cell");
                    prop_assert_eq!(cell.cell_seed, base.cell_seed);
                    prop_assert_eq!(cell.mean_secs.to_bits(), base.mean_secs.to_bits());
                    prop_assert_eq!(cell.min_secs.to_bits(), base.min_secs.to_bits());
                    prop_assert_eq!(cell.max_secs.to_bits(), base.max_secs.to_bits());
                    prop_assert_eq!(cell.model_secs.to_bits(), base.model_secs.to_bits());
                    prop_assert_eq!(
                        cell.error_percent.to_bits(),
                        base.error_percent.to_bits()
                    );
                }
            }
        }
    }
}
