//! Cross-validation of the fluid flow-level tier against the packet
//! engine: every packet-backend builtin runs its cheapest cell through
//! both backends, and the fluid completion time must land inside the
//! documented per-scenario error band. The bands are measured facts, not
//! aspirations — they are quoted in the README "Backends" section so a
//! user picking the fluid tier knows exactly how far it sits from the
//! calibrated packet reference on each traffic class.
//!
//! Alongside the bands, this suite pins the fluid tier's engine
//! contracts: repeat-determinism, telemetry transparency (a recording
//! session must not move a byte), and the up-front typed rejection of
//! the GM-on-finite-buffers caveat.

use contention_scenario::error::CtnError;
use contention_scenario::prelude::*;
use simnet::obs::json;
use std::sync::Arc;

/// Documented fluid/packet completion-time ratio bands, measured on the
/// trimmed one-cell grids below at seed 42. A fluid run outside its band
/// is a regression in either tier.
/// Two regimes emerge (see the README "Backends" table):
///
/// * **Equilibrium-dominated** scenarios (lossless GM fabrics, deep
///   buffers, latency-bound exchanges) sit within ~2× of the packet
///   engine — the fluid max-min shares are exactly the bandwidth split
///   the packet transport converges to.
/// * **Timeout-dominated** scenarios (TCP on shallow-buffer switches,
///   where completion time is set by RTO stalls after drops — the
///   paper's straggler phenomenon) sit 100–300× below the packet
///   engine, because a loss-free fluid equilibrium has no drops and no
///   timers. Their bands are honest about that: the fluid tier answers
///   "how long would this take under ideal congestion control", not
///   "how long does lossy TCP take". Use the packet tier there.
const BANDS: &[(&str, f64, f64)] = &[
    // Equilibrium-dominated: fluid tracks the packet engine closely.
    ("paper-fast-ethernet", 0.35, 0.65),        // measured 0.478
    ("paper-gigabit-ethernet", 0.35, 0.65),     // measured 0.482
    ("paper-myrinet", 0.80, 1.05),              // measured 0.923
    ("incast-burst", 0.50, 0.90),               // measured 0.705
    ("permutation-lossless", 0.80, 1.05),       // measured 0.927
    ("torus-neighbor-exchange", 0.60, 1.00),    // measured 0.824
    ("torus3d-random-permutation", 0.50, 0.90), // measured 0.705
    ("dragonfly-adversarial-uniform", 0.45, 0.80), // measured 0.612
    // Timeout-dominated: packet time ≈ one RTO stall (~1 s), fluid sees
    // only the loss-free transfer time. Wide bands, by design.
    ("fat-tree-uniform", 0.001, 0.02),            // measured 0.004
    ("oversubscribed-tree-skewed", 0.001, 0.05),  // measured 0.007
    ("sparse-star", 0.001, 0.02),                 // measured 0.003
    ("mixed-phases-tree", 0.001, 0.05),           // measured 0.008
    ("packed-vs-scattered-fattree", 0.001, 0.05), // measured 0.006
];

fn band(name: &str) -> (f64, f64) {
    BANDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, lo, hi)| (lo, hi))
        .unwrap_or_else(|| panic!("{name}: new builtin needs a documented error band"))
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

/// One cheap cell per builtin: smallest node count, first message size.
fn trimmed(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.sweep.nodes = vec![*spec.sweep.nodes.iter().min().unwrap()];
    spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
    spec.sweep.reps = 1;
    spec.sweep.warmup = 0;
    spec
}

fn session(cache: &Arc<CalibrationCache>) -> Session {
    Session::builder()
        .workers(2)
        .base_seed(42)
        .shared_cache(Arc::clone(cache))
        .build()
        .expect("session builds")
}

#[test]
fn fluid_tracks_the_packet_engine_within_documented_bands() {
    let cache = Arc::new(CalibrationCache::new());
    let mut table = Vec::new();
    for spec in registry::builtin() {
        if spec.backend != Backend::Packet {
            continue;
        }
        let packet = trimmed(spec);
        let mut fluid = packet.clone();
        fluid.backend = Backend::Fluid;
        let p = session(&cache).run(&packet).expect("packet runs");
        let f = session(&cache).run(&fluid).expect("fluid runs");
        let p_secs = p.batches[0].cells[0].mean_secs;
        let f_secs = f.batches[0].cells[0].mean_secs;
        let ratio = f_secs / p_secs;
        let (lo, hi) = band(&packet.name);
        let ok = ratio >= lo && ratio <= hi;
        table.push(format!(
            "{} {:<32} packet={p_secs:.6}s fluid={f_secs:.6}s ratio={ratio:.3} band=[{lo}, {hi}]",
            if ok { "ok  " } else { "FAIL" },
            packet.name
        ));
    }
    eprintln!("{}", table.join("\n"));
    assert!(
        table.iter().all(|row| row.starts_with("ok")),
        "fluid/packet ratios outside their documented bands:\n{}",
        table.join("\n")
    );
}

#[test]
fn fluid_cells_are_deterministic_and_telemetry_transparent() {
    let cache = Arc::new(CalibrationCache::new());
    let mut spec = trimmed(registry::by_name("fat-tree-uniform").expect("built-in"));
    spec.backend = Backend::Fluid;
    let plain = session(&cache).run(&spec).expect("runs");
    let again = session(&cache).run(&spec).expect("runs again");
    assert_eq!(
        plain.render(ReportFormat::Csv),
        again.render(ReportFormat::Csv),
        "fluid runs must be deterministic"
    );
    // Fluid cells are deterministic, so one run fills all three columns.
    let cell = &plain.batches[0].cells[0];
    assert_eq!(cell.mean_secs, cell.min_secs);
    assert_eq!(cell.mean_secs, cell.max_secs);
    for workers in [1usize, 2, 8] {
        let s = Session::builder()
            .workers(workers)
            .base_seed(42)
            .telemetry(true)
            .shared_cache(Arc::clone(&cache))
            .build()
            .expect("session builds");
        let report = s.run(&spec).expect("telemetry run");
        assert_eq!(
            report.render(ReportFormat::Csv),
            plain.render(ReportFormat::Csv),
            "workers={workers}: recording telemetry moved fluid report bytes"
        );
        let metrics = s.metrics().expect("snapshot");
        let engine = metrics.cells[0].engine.as_ref().expect("engine telemetry");
        assert!(
            engine.links.iter().any(|l| l.busy_ns > 0),
            "fluid rates must surface as link-utilization samples"
        );
        assert_link_busy_fractions(&metrics, &format!("fluid, workers={workers}"));
    }
}

#[test]
fn fluid_rejects_gm_on_finite_buffers_up_front() {
    let mut spec = registry::by_name("oversubscribed-tree-skewed").expect("built-in");
    spec.transport = TransportSpec::Gm {
        window_bytes: 64 * 1024,
    };
    spec.backend = Backend::Fluid;
    let err = spec
        .validate()
        .expect_err("finite-buffer GM must be rejected");
    assert!(
        matches!(&err, SpecError::Invalid(m) if m.contains("deadlock")),
        "unexpected error: {err}"
    );
    // Through the session the same gate surfaces as the typed CtnError.
    let session = Session::builder().workers(1).base_seed(1).build().unwrap();
    match session.run(&spec) {
        Err(CtnError::Spec(SpecError::Invalid(m))) => {
            assert!(m.contains("fluid"), "message should name the backend: {m}")
        }
        other => panic!("expected CtnError::Spec, got {other:?}"),
    }
    // The packet tier still accepts the same fabric (the caveat is
    // calibration-specific), and lossless-grade buffers clear the gate.
    spec.backend = Backend::Packet;
    spec.validate().expect("packet tier unaffected");
    let mut lossless = registry::by_name("permutation-lossless").expect("built-in");
    lossless.backend = Backend::Fluid;
    lossless.validate().expect("lossless GM fabric is fine");
}

#[test]
fn huge_fluid_builtins_validate_and_reject_packet_scale_docs() {
    for name in ["fat-tree-1024-alltoall", "dragonfly-4k-adversarial"] {
        let spec = registry::by_name(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(spec.backend, Backend::Fluid, "{name}");
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            spec.sweep.nodes.iter().all(|&n| n >= 1024),
            "{name} is the huge-fabric tier"
        );
        // The TOML round-trip keeps the backend axis.
        let reparsed = ScenarioSpec::from_toml_str(&spec.to_toml_string())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, spec, "{name}");
    }
}
