//! CI gate on the telemetry and supervision taxes (see `crates/obs`,
//! `simnet::guard`), measured on `hotpath::gate_case` (8 hosts, TCP,
//! 64 KiB all-to-all — the most event-dense regime per byte) and, for the
//! fluid tier, on `hotpath::fluid_gate_case` (a 128-host fat-tree
//! all-to-all whose advances nearly all follow a finish wave).
//!
//! Three timing checks, each a ratio between two configurations sampled
//! *interleaved* in one loop so machine-speed drift over the sampling
//! window cancels — only that makes a single-digit tolerance trustworthy
//! on a box whose speed oscillates between epochs minutes apart:
//!
//! 1. **Recording overhead** — `EngineRecorder` against `NoopRecorder`,
//!    within [`RECORDING_PCT`].
//! 2. **Guard overhead** — the engine with the supervision guard a
//!    `Session` installs by default (a cancel-flag-only `RunGuard`,
//!    polled at the preemption point every `GUARD_CHECK_INTERVAL`
//!    events) against the unguarded engine, within [`GUARD_PCT`].
//! 3. **Fluid recording overhead** — the fluid solver with
//!    `EngineRecorder` against `NoopRecorder`, within
//!    [`FLUID_RECORDING_PCT`]: recording reads each slot's load off the
//!    solver's residuals, so it walks the slots once per advance and
//!    never the flows.
//!
//! And the structural half of the zero-cost-when-disabled claim, which
//! needs no clock: a recorder observes and never schedules, so the no-op
//! and the recording side of every pair must process the same number of
//! events (the fluid pair: rate solves) — and so must both sides of the
//! guard pair, whose guard never trips. (The hooks themselves sit behind
//! `R::ENABLED`, a constant the no-op monomorphisation folds away; what a
//! *change* to the no-op engine costs is `ctnbench`'s
//! `simnet.engine.ns_per_event`, measured against the parent commit in
//! alternating pairs, not against a snapshot taken at another time on
//! another epoch of the box.)
//!
//! ```text
//! cargo run --release -p contention-bench --bin overhead_gate
//! ```
//!
//! Exits 0 when all checks pass, 1 otherwise. Run in release: the
//! tolerances were sized on the release engine.

use contention_bench::hotpath::{
    build_alltoall, build_fabric, drive_alltoall, drive_fluid, fluid_gate_case, gate_case,
};
use simnet::guard::RunGuard;
use simnet::obs::{EngineRecorder, NoopRecorder, Recorder};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Recording tolerance, percent over the no-op engine. Recording adds
/// ~23 ns per event on this case (two histogram updates plus link
/// accounting per event), ~25 % of the no-op engine: the median of 51
/// gate runs at PR 18 was 25.2 %, plus five points of CI headroom. The
/// check is a ratio over the no-op engine, so a *faster engine* raises it
/// with an unchanged recorder — the gate also prints what the recorder
/// adds in absolute ns per event, and that is the number to compare
/// before touching this constant (PR 18, 29 alternating parent/change
/// gate runs: 22.1 → 23.3 ns/event, inside a 9 ns interquartile spread,
/// while the ratio went 21.7 % → 25.2 % because the no-op engine under it
/// went 2.1 → 1.9 ms).
const RECORDING_PCT: f64 = 30.0;
/// Guard tolerance, percent over the unguarded engine: one predictable
/// branch per event plus a flag load every `GUARD_CHECK_INTERVAL` events
/// measures well under 1 %; 2 % is what every `Session` cell may pay for
/// being cancellable.
const GUARD_PCT: f64 = 2.0;
/// Fluid recording tolerance, percent over the no-op solver. Walking the
/// slots once per advance (≈ 770 on the 8-ary fat-tree) read +12.1 …
/// +17.0 % in 14 gate runs on a 2-core 2.0 GHz Xeon, ≈ 8 µs per solve;
/// summing the flows' rates into their slots once per solve instead read
/// +151 … +196 % there. 30 % keeps the first with CI headroom and fails
/// the second.
const FLUID_RECORDING_PCT: f64 = 30.0;

const WARMUP_ITERS: usize = 3;
/// Iterations per side of each interleaved pair. The ratio tolerances
/// (2% guard, 30% recording) sit close to the box's per-iteration
/// jitter, and each extra pair costs only ~5 ms, so buying down the
/// variance of the two minimums is cheap.
const SAMPLE_ITERS: usize = 40;

/// One timed build-and-drive of the gate case with the given recorder
/// and (optionally) the cancel-flag-only guard a `Session` installs.
/// Returns `(elapsed_ns, events_processed)`.
fn one_iter<R: Recorder>(recorder: R, guarded: bool) -> (u64, u64) {
    let case = &gate_case();
    let (mut sim, conns) = build_alltoall(case, recorder);
    if guarded {
        sim.set_guard(RunGuard::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(false))));
    }
    let start = Instant::now();
    let events = drive_alltoall(case, &mut sim, &conns);
    (start.elapsed().as_nanos() as u64, events)
}

/// One timed fluid all-to-all of [`fluid_gate_case`] over its prebuilt
/// fabric with the given recorder. Returns `(elapsed_ns, rate_solves)`.
fn one_fluid_iter<R: Recorder>(
    recorder: R,
    topo: &simnet::prelude::Topology,
    hosts: &[simnet::prelude::HostId],
) -> (u64, u64) {
    let start = Instant::now();
    let solves = drive_fluid(&fluid_gate_case(), topo, hosts, recorder);
    (start.elapsed().as_nanos() as u64, solves)
}

/// Interleaved pair measurement for the ratio checks. The two sides
/// alternate within one loop, so each back-to-back pair shares machine
/// state (~5 ms apart) and its `b/a` ratio is immune to both slow drift
/// and one-off bursts hitting the other pairs; the *median* of the
/// per-pair ratios then discards the pairs a burst did land inside.
/// A min-vs-min ratio is not robust here: one lucky iteration on a
/// single side skews it by the full jitter magnitude.
fn measure_pair(a: impl Fn() -> (u64, u64), b: impl Fn() -> (u64, u64)) -> Pair {
    for _ in 0..WARMUP_ITERS {
        a();
        b();
    }
    let (mut min_a, mut min_b) = (u64::MAX, u64::MAX);
    let mut ratios = Vec::with_capacity(SAMPLE_ITERS);
    let mut added = Vec::with_capacity(SAMPLE_ITERS);
    let mut same_events = true;
    for _ in 0..SAMPLE_ITERS {
        let ((na, events_a), (nb, events)) = (a(), b());
        same_events &= events_a == events;
        min_a = min_a.min(na);
        min_b = min_b.min(nb);
        ratios.push(nb as f64 / na as f64);
        added.push((nb as f64 - na as f64) / events as f64);
    }
    Pair {
        min_a,
        min_b,
        ratio: median(ratios),
        added_ns_per_event: median(added),
        same_events,
    }
}

/// What [`measure_pair`] reads off its interleaved samples.
struct Pair {
    /// Fastest iteration of each side, nanoseconds.
    min_a: u64,
    min_b: u64,
    /// Median of the per-pair `b / a` ratios — what the tolerances gate.
    ratio: f64,
    /// Median of the per-pair `(b − a) / events_processed`: what side `b`
    /// adds in absolute terms. A ratio moves when its denominator does, so
    /// this is the number to compare across engine changes.
    added_ns_per_event: f64,
    /// Both sides processed the same number of events in every pair.
    same_events: bool,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|x, y| x.total_cmp(y));
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn main() -> std::process::ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("overhead_gate: warning: debug build; the tolerances assume release");
    }
    let recording = measure_pair(
        || one_iter(NoopRecorder, false),
        || one_iter(EngineRecorder::default(), false),
    );
    let guard = measure_pair(
        || one_iter(NoopRecorder, false),
        || one_iter(NoopRecorder, true),
    );
    let fluid_case = fluid_gate_case();
    let (topo, hosts) = build_fabric(fluid_case.fabric, fluid_case.hosts);
    let fluid = measure_pair(
        || one_fluid_iter(NoopRecorder, &topo, &hosts),
        || one_fluid_iter(EngineRecorder::default(), &topo, &hosts),
    );
    let recording_pct = (recording.ratio - 1.0) * 100.0;
    let guard_pct = (guard.ratio - 1.0) * 100.0;
    let fluid_pct = (fluid.ratio - 1.0) * 100.0;
    println!("overhead_gate: case {}", gate_case().name);
    println!(
        "  noop recorder:    {} ns  (recording-pair baseline, interleaved)",
        recording.min_a
    );
    println!(
        "  engine recorder:  {} ns  ({recording_pct:+.2}% vs noop, median of per-pair ratios, tolerance {RECORDING_PCT}%)",
        recording.min_b
    );
    println!(
        "  recorder adds:    {:.2} ns/event  (median of per-pair (recording - noop) / events)",
        recording.added_ns_per_event
    );
    println!(
        "  unguarded engine: {} ns  (guard-pair baseline, interleaved)",
        guard.min_a
    );
    println!(
        "  session guard:    {} ns  ({guard_pct:+.2}% vs unguarded, median of per-pair ratios, tolerance {GUARD_PCT}%)",
        guard.min_b
    );
    println!("overhead_gate: fluid case {}", fluid_case.name);
    println!(
        "  noop recorder:    {} ns  (fluid-pair baseline, interleaved)",
        fluid.min_a
    );
    println!(
        "  engine recorder:  {} ns  ({fluid_pct:+.2}% vs noop, median of per-pair ratios, tolerance {FLUID_RECORDING_PCT}%)",
        fluid.min_b
    );
    println!(
        "  recorder adds:    {:.0} ns/solve  (median of per-pair (recording - noop) / solves)",
        fluid.added_ns_per_event
    );

    let mut ok = true;
    if !(recording.same_events && guard.same_events) {
        eprintln!("overhead_gate: FAIL: a recorder or an untripped guard changed how many events the engine processed");
        ok = false;
    }
    if !fluid.same_events {
        eprintln!(
            "overhead_gate: FAIL: a recorder changed how many rate solves the fluid solver made"
        );
        ok = false;
    }
    if recording_pct > RECORDING_PCT {
        eprintln!("overhead_gate: FAIL: recording telemetry costs more than the budget");
        ok = false;
    }
    if guard_pct > GUARD_PCT {
        eprintln!("overhead_gate: FAIL: supervision guard costs more than the budget");
        ok = false;
    }
    if fluid_pct > FLUID_RECORDING_PCT {
        eprintln!("overhead_gate: FAIL: fluid recording costs more than the budget");
        ok = false;
    }
    if ok {
        println!("overhead_gate: OK");
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
