//! CI gate on the telemetry tax (see `crates/obs`): the engine's hot
//! path must stay fast with the default no-op recorder, and a recording
//! recorder must stay cheap.
//!
//! Three checks, all on the first `engine_hotpath` case (8 hosts, TCP,
//! 64 KiB all-to-all — the most event-dense regime per byte):
//!
//! 1. **No-op regression** — the engine with `NoopRecorder` (the default
//!    every simulation runs with) against the tracked
//!    `BENCH_engine.json` median. The recorder hooks are compiled behind
//!    `R::ENABLED`, so this holds the zero-cost-when-disabled claim to a
//!    number. This is the one check that compares across *time* (current
//!    run vs. when the snapshot was captured), so its tolerance must
//!    absorb machine-speed drift between those two moments — shared CI
//!    boxes have been observed swinging ±25% between epochs minutes
//!    apart. Tolerance: `--noop-pct` / `OVERHEAD_GATE_NOOP_PCT`
//!    (default 10: catches real hot-path regressions, which land well
//!    above that, without tripping on epoch drift; the tight
//!    single-digit claims live in the per-run ratio checks below).
//! 2. **Recording overhead** — `EngineRecorder` against `NoopRecorder`.
//!    Recording adds ~23 ns per event on this most-event-dense case (two
//!    histogram updates plus link accounting per event), which is ~25%
//!    of the no-op engine; tolerance: `--recording-pct` /
//!    `OVERHEAD_GATE_RECORDING_PCT` (default 30: the median of 51 gate
//!    runs at PR 18, 25.2%, plus five points of CI headroom). The
//!    check is a ratio over the no-op engine, so a *faster engine* raises
//!    it with an unchanged recorder — the gate also prints what the
//!    recorder adds in absolute ns per event, and that is the number to
//!    compare before touching this default (PR 18, 29 alternating
//!    parent/change gate runs: 22.1 → 23.3 ns/event, inside a 9 ns
//!    interquartile spread, while the ratio went 21.7% → 25.2% because
//!    the no-op engine under it went 2.1 → 1.9 ms).
//! 3. **Guard overhead** — the engine with the supervision guard a
//!    `Session` installs by default (a cancel-flag-only `RunGuard`,
//!    polled at the preemption point every `GUARD_CHECK_INTERVAL`
//!    events) against the unguarded engine. Tolerance: `--guard-pct` /
//!    `OVERHEAD_GATE_GUARD_PCT` (default 2).
//!
//! Checks 2 and 3 are ratios between two configurations measured in this
//! process; their two sides are sampled *interleaved* in one loop so
//! machine-speed drift over the sampling window cancels out of the
//! ratio. Only the interleaving makes a single-digit tolerance
//! trustworthy on a box whose speed oscillates between epochs.
//!
//! All comparisons use the minimum over the sample iterations: on a
//! noisy CI box the minimum estimates the true cost far more stably than
//! a mean, and a *regression* can only raise it.
//!
//! ```text
//! cargo run --release -p contention-bench --bin overhead_gate [-- --snapshot PATH]
//! ```
//!
//! Exits 0 when all checks pass, 1 otherwise (or if the snapshot is
//! missing/unreadable). Run in release: a debug engine is ~20× slower
//! and the snapshot was captured in release.

use contention_bench::hotpath::{build_alltoall, cases, drive_alltoall};
use simnet::guard::RunGuard;
use simnet::obs::json::{self, Value};
use simnet::obs::{EngineRecorder, NoopRecorder, Recorder, TelemetryConfig};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

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
    let case = &cases()[0];
    let (mut sim, conns) = build_alltoall(case, recorder);
    if guarded {
        sim.set_guard(RunGuard::unlimited().with_cancel_flag(Arc::new(AtomicBool::new(false))));
    }
    let start = Instant::now();
    let events = drive_alltoall(case, &mut sim, &conns);
    (start.elapsed().as_nanos() as u64, events)
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
    for _ in 0..SAMPLE_ITERS {
        let ((na, _), (nb, events)) = (a(), b());
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

/// The snapshot's `median_ns` for a benchmark name (`None` also when the
/// snapshot is not the `{"benchmarks": [{"name": …, "median_ns": …}]}`
/// document `--save-json` writes).
fn snapshot_median_ns(text: &str, bench: &str) -> Option<u64> {
    let doc = json::parse(text).ok()?;
    let Value::Array(rows) = doc.get("benchmarks")? else {
        return None;
    };
    rows.iter()
        .find(|row| row.get("name").and_then(Value::as_str) == Some(bench))?
        .get("median_ns")?
        .as_u64()
}

fn tolerance_pct(flag: &str, env: &str, args: &[String], default: f64) -> f64 {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if let Some(v) = args.get(pos + 1).and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var(env)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let snapshot_path = args
        .iter()
        .position(|a| a == "--snapshot")
        .and_then(|pos| args.get(pos + 1).cloned())
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let noop_pct = tolerance_pct("--noop-pct", "OVERHEAD_GATE_NOOP_PCT", &args, 10.0);
    let recording_pct = tolerance_pct(
        "--recording-pct",
        "OVERHEAD_GATE_RECORDING_PCT",
        &args,
        30.0,
    );
    let guard_pct = tolerance_pct("--guard-pct", "OVERHEAD_GATE_GUARD_PCT", &args, 2.0);
    if cfg!(debug_assertions) {
        eprintln!("overhead_gate: warning: debug build; the snapshot check will not be meaningful");
    }

    let bench = format!("engine_hotpath/{}", cases()[0].name);
    let snapshot = match std::fs::read_to_string(&snapshot_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("overhead_gate: cannot read {snapshot_path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let Some(snapshot_ns) = snapshot_median_ns(&snapshot, &bench) else {
        eprintln!("overhead_gate: {snapshot_path} has no median_ns for {bench}");
        return std::process::ExitCode::FAILURE;
    };

    let recording = measure_pair(
        || one_iter(NoopRecorder, false),
        || one_iter(EngineRecorder::new(TelemetryConfig::default()), false),
    );
    let guard = measure_pair(
        || one_iter(NoopRecorder, false),
        || one_iter(NoopRecorder, true),
    );
    let (noop_ns, recording_ns) = (recording.min_a, recording.min_b);
    let (unguarded_ns, guarded_ns) = (guard.min_a, guard.min_b);

    let noop_vs_snapshot = noop_ns as f64 / snapshot_ns as f64 - 1.0;
    let recording_vs_noop = recording.ratio - 1.0;
    let guarded_vs_unguarded = guard.ratio - 1.0;
    println!("overhead_gate: case {bench}");
    println!("  snapshot median:  {snapshot_ns} ns");
    println!(
        "  noop recorder:    {noop_ns} ns  ({:+.2}% vs snapshot, tolerance {noop_pct}%)",
        noop_vs_snapshot * 100.0
    );
    println!(
        "  engine recorder:  {recording_ns} ns  ({:+.2}% vs noop, median of per-pair ratios, tolerance {recording_pct}%)",
        recording_vs_noop * 100.0
    );
    println!(
        "  recorder adds:    {:.2} ns/event  (median of per-pair (recording - noop) / events)",
        recording.added_ns_per_event
    );
    println!("  unguarded engine: {unguarded_ns} ns  (guard-pair baseline, interleaved)",);
    println!(
        "  session guard:    {guarded_ns} ns  ({:+.2}% vs unguarded, median of per-pair ratios, tolerance {guard_pct}%)",
        guarded_vs_unguarded * 100.0
    );

    let mut ok = true;
    if noop_vs_snapshot * 100.0 > noop_pct {
        eprintln!("overhead_gate: FAIL: no-op recorder hot path regressed past the snapshot");
        ok = false;
    }
    if recording_vs_noop * 100.0 > recording_pct {
        eprintln!("overhead_gate: FAIL: recording telemetry costs more than the budget");
        ok = false;
    }
    if guarded_vs_unguarded * 100.0 > guard_pct {
        eprintln!("overhead_gate: FAIL: supervision guard costs more than the budget");
        ok = false;
    }
    if ok {
        println!("overhead_gate: OK");
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
