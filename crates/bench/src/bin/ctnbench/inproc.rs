//! The in-process side: the operation `ctnsim run` performs, its
//! end-to-end measurement, and the traced replay that walks the same
//! computation one public call at a time.

use crate::catalog::{spec_text, Path, Workload};
use crate::spans::SpanLog;
use crate::{procfs, stats, Layers, Outcome};
use contention_model::metrics::estimation_error_percent;
use contention_scenario::executor::{cell_seed, BatchResult, CellResult, CellStatus, ModelKind};
use contention_scenario::metrics::SessionMetrics;
use contention_scenario::report::{Report, ReportFormat};
use contention_scenario::session::{CalibrationCache, Session};
use contention_scenario::spec::{Backend, ScenarioSpec};
use contention_scenario::{topology, workload};
use simmpi::ops::Op;
use simmpi::FluidWorld;
use simnet::fluid::FluidSim;
use simnet::guard::RunGuard;
use simnet::ids::HostId;
use simnet::stats::NetStats;
use simnet::topology::Topology;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::Instant;

/// One finished operation.
pub struct Operation {
    pub wall_s: f64,
    /// The rendered JSON report.
    pub report: String,
    pub metrics: SessionMetrics,
}

/// One complete user-visible job, exactly what `ctnsim run` does: pinned
/// TOML text → parse → validate → a fresh `Session` (so calibration is
/// cold, as it is for every CLI invocation) → `run_many` → JSON report.
pub fn operation(w: &Workload, workers: usize, seed: u64) -> Result<Operation, String> {
    let start = Instant::now();
    let mut specs = Vec::with_capacity(w.specs.len());
    for stem in w.specs {
        let spec = ScenarioSpec::from_toml_str(spec_text(stem)).map_err(|e| e.to_string())?;
        spec.validate().map_err(|e| e.to_string())?;
        specs.push(spec);
    }
    let session = Session::builder()
        .workers(workers)
        .base_seed(seed)
        .model(w.model)
        .build()
        .map_err(|e| e.to_string())?;
    let report = session.run_many(&specs).map_err(|e| e.to_string())?;
    let rendered = report.render(ReportFormat::Json);
    let wall_s = start.elapsed().as_secs_f64();
    if report.has_failures() {
        return Err("a cell finished with a status other than ok".to_string());
    }
    let metrics = session.metrics().ok_or("session kept no metrics")?;
    Ok(Operation {
        wall_s,
        report: rendered,
        metrics,
    })
}

/// FNV-1a over the report bytes: recorded with every result so two result
/// sets can tell whether the simulated output changed.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The CLI path's end-to-end measurement. The process's first operation
/// is a few percent slower than the rest (the heap is still growing) and
/// is what a `ctnsim` user pays on every invocation, so it is timed apart:
/// its wall time comes back first, as part of the set-up. Operations then
/// run back to back until `seconds` have passed; wall and CPU time are
/// medians over those, so one disturbed operation moves neither, while
/// `runs_per_s` is the window's count over its length and shows every
/// stall. With `seconds` at 0 the first operation is the only sample.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<(f64, Outcome), String> {
    debug_assert_eq!(w.path, Path::Cli);
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first_report: Option<String> = None;
    // The window opens when the first operation ends.
    let mut window: Option<Instant> = None;
    while window.is_none_or(|w| w.elapsed().as_secs_f64() < seconds) {
        out.attempted += 1;
        let cpu_before = procfs::cpu_secs("self")?;
        let op = operation(w, w.workers, seed);
        window.get_or_insert_with(Instant::now);
        match op {
            Ok(op) => match &first_report {
                Some(first) if *first != op.report => {
                    out.fail("report bytes differ between operations of one run");
                }
                _ => {
                    first_report.get_or_insert(op.report);
                    walls.push(op.wall_s);
                    cpus.push(procfs::cpu_secs("self")? - cpu_before);
                }
            },
            // Without a first operation there is no set-up time to report.
            Err(e) if out.attempted == 1 => return Err(e),
            Err(e) => out.fail(&e),
        }
    }
    let in_window_s = window.map_or(0.0, |w| w.elapsed().as_secs_f64());
    let first_op_s = walls[0];
    let timed = |all: &[f64]| stats::median(if all.len() > 1 { &all[1..] } else { all });
    out.report_digest = first_report.as_deref().map(|r| digest(r.as_bytes()));
    out.samples = walls.len().saturating_sub(1).max(1);
    out.push("wall_s", timed(&walls));
    out.push("cpu_s", timed(&cpus));
    out.push("peak_rss_mb", procfs::peak_rss_mb("self")?);
    out.push(
        "runs_per_s",
        if walls.len() > 1 {
            (walls.len() - 1) as f64 / in_window_s
        } else {
            1.0 / first_op_s
        },
    );
    Ok((first_op_s, out))
}

/// A fluid cell kept for the solver-isolation pass.
struct FluidCell {
    topo: Topology,
    hosts: Vec<HostId>,
    programs: Vec<Vec<Op>>,
}

/// Counters the replay accumulates besides its spans.
#[derive(Default)]
struct Counts {
    cells: u64,
    ops: u64,
    messages: u64,
    net: NetStats,
}

fn add_net(total: &mut NetStats, s: &NetStats) {
    total.events_processed += s.events_processed;
    total.data_packets_sent += s.data_packets_sent;
    total.ack_packets_sent += s.ack_packets_sent;
    total.packets_dropped += s.packets_dropped;
    total.retransmissions += s.retransmissions;
    total.timeouts += s.timeouts;
    total.fast_retransmits += s.fast_retransmits;
    total.max_queue_depth = total.max_queue_depth.max(s.max_queue_depth);
}

fn sends_in(programs: &[Vec<Op>]) -> u64 {
    programs
        .iter()
        .flatten()
        .map(|op| match op {
            Op::Transfer { sends, .. } => sends.len() as u64,
            Op::Barrier => 0,
        })
        .sum()
}

/// The traced pass of an in-process operation: walks the grid itself,
/// calling each layer's public functions one by one with a span around
/// each call, and rebuilds the report from the pieces. The rebuilt report
/// must equal `expected` byte for byte, which proves the replay timed the
/// same computation the session runs. Returns the per-layer values and the
/// replayed operation's wall time in seconds.
pub fn replay(
    w: &Workload,
    seed: u64,
    expected: &str,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(Layers, f64), String> {
    let mut counts = Counts::default();
    let mut fluid_cells: Vec<FluidCell> = Vec::new();

    let op = log.begin("operation", None, w.name);
    let mut specs = Vec::with_capacity(w.specs.len());
    for stem in w.specs {
        let text = spec_text(stem);
        let spec = log
            .time("scenario.spec.parse", Some(op), || {
                ScenarioSpec::from_toml_str(text)
            })
            .map_err(|e| e.to_string())?;
        log.time("scenario.spec.validate", Some(op), || spec.validate())
            .map_err(|e| e.to_string())?;
        specs.push(spec);
    }
    let session = Session::builder()
        .workers(1)
        .base_seed(seed)
        .model(w.model)
        .build()
        .map_err(|e| e.to_string())?;
    let mut batches = Vec::with_capacity(specs.len());
    for spec in &specs {
        let hockney = log
            .time("scenario.calib.hockney_miss", Some(op), || {
                session.calibrate_hockney(spec)
            })
            .map_err(|e| e.to_string())?;
        let signature = match w.model {
            ModelKind::Signature => Some(
                log.time("scenario.calib.signature_miss", Some(op), || {
                    session.calibrate_signature(spec)
                })
                .map_err(|e| e.to_string())?,
            ),
            _ => None,
        };
        let mut cells = Vec::new();
        for &n in &spec.sweep.nodes {
            for &m in &spec.sweep.message_bytes {
                let cseed = cell_seed(&spec.name, seed, n, m);
                let cell = log.begin(
                    "scenario.executor.cell",
                    Some(op),
                    &format!("{} n={n} m={m}", spec.name),
                );
                counts.cells += 1;
                let programs = log.time("scenario.workload.programs", Some(cell), || {
                    workload::programs(&spec.workload, n, m, cseed)
                });
                counts.ops += programs.iter().map(|p| p.len() as u64).sum::<u64>();
                let times: Vec<f64> = if spec.backend == Backend::Fluid {
                    let (topo, hosts, mpi) = log
                        .time("scenario.topology.build", Some(cell), || {
                            topology::build_fluid_fabric(spec, n, cseed)
                        })
                        .map_err(|e| e.to_string())?;
                    counts.messages += sends_in(&programs);
                    let secs = {
                        let world = FluidWorld::new(&topo, hosts.clone(), mpi);
                        let fresh = programs.clone();
                        log.time("simmpi.fluid.run", Some(cell), || {
                            world.try_run(fresh, RunGuard::unlimited())
                        })
                        .map_err(|e| e.to_string())?
                        .duration_secs()
                    };
                    fluid_cells.push(FluidCell {
                        topo,
                        hosts,
                        programs,
                    });
                    vec![secs]
                } else {
                    let mut world = log
                        .time("scenario.topology.build", Some(cell), || {
                            topology::build_world(spec, n, cseed)
                        })
                        .map_err(|e| e.to_string())?;
                    let runs = spec.sweep.warmup + spec.sweep.reps;
                    counts.messages += sends_in(&programs) * runs as u64;
                    let mut times = Vec::with_capacity(runs);
                    for _ in 0..runs {
                        let fresh = programs.clone();
                        let result = log
                            .time("simmpi.world.run", Some(cell), || world.try_run(fresh))
                            .map_err(|e| e.to_string())?;
                        times.push(result.duration_secs());
                    }
                    add_net(&mut counts.net, world.sim().stats());
                    times.split_off(spec.sweep.warmup)
                };
                let med_bound = log.time("core.model.predict", Some(cell), || {
                    workload::model_bound(&spec.workload, n, m, cseed, &hockney)
                });
                // The executor's predictor arithmetic, restated: every
                // model scales the workload's MED bound.
                let model_secs = match &signature {
                    Some(sig) => {
                        let delta = if sig.delta_active(m) {
                            n.saturating_sub(1) as f64 * sig.delta_secs
                        } else {
                            0.0
                        };
                        med_bound * sig.gamma + delta
                    }
                    None => med_bound,
                };
                let mean = times.iter().sum::<f64>() / times.len() as f64;
                cells.push(CellResult {
                    scenario: spec.name.clone(),
                    workload: spec.workload.kind().to_string(),
                    topology: spec.topology.kind().to_string(),
                    n,
                    message_bytes: m,
                    cell_seed: cseed,
                    mean_secs: mean,
                    min_secs: times.iter().cloned().fold(f64::INFINITY, f64::min),
                    max_secs: times.iter().cloned().fold(0.0f64, f64::max),
                    model_secs,
                    error_percent: estimation_error_percent(mean, model_secs),
                    status: CellStatus::Ok,
                });
                log.end(cell);
            }
        }
        batches.push(BatchResult {
            scenario: spec.name.clone(),
            alpha_secs: hockney.alpha_secs,
            beta_secs_per_byte: hockney.beta_secs_per_byte,
            cells,
        });
    }
    let report = Report::new(batches);
    let json = log.time("scenario.report.render_json", Some(op), || {
        report.render(ReportFormat::Json)
    });
    log.end(op);

    out.attempted += 1;
    if json != expected {
        out.fail("the replayed report differs from the session's report");
    }

    // Measured after the operation, outside its span: not part of what a
    // user's run does.
    let csv = log.time("scenario.report.render_csv", None, || {
        report.render(ReportFormat::Csv)
    });
    std::hint::black_box(csv);
    for spec in &specs {
        log.time("scenario.calib.hockney_hit", None, || {
            session.calibrate_hockney(spec)
        })
        .map_err(|e| e.to_string())?;
    }
    let mut flows = 0u64;
    let mut recomputes = 0u64;
    for cell in &fluid_cells {
        // Exact only when every flow of the cell starts together, i.e.
        // each rank's program is one transfer (true of `direct-nb`).
        if cell.programs.iter().any(|p| p.len() != 1) {
            continue;
        }
        let mut sim = FluidSim::new(&cell.topo);
        sim.set_finish_window(1e-2);
        for (src, program) in cell.programs.iter().enumerate() {
            for op in program {
                if let Op::Transfer { sends, .. } = op {
                    for &(dst, bytes) in sends {
                        sim.start_flow(cell.hosts[src], cell.hosts[dst], bytes, flows);
                        flows += 1;
                    }
                }
            }
        }
        let done = log.time("simnet.fluid.solve", None, || sim.run_to_completion());
        std::hint::black_box(done);
        recomputes += sim.recomputes();
    }

    let op_s = log.duration_us(op) * 1e-6;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let world_run_s = log.total_secs("simmpi.world.run");
    let fluid_run_s = log.total_secs("simmpi.fluid.run");
    let solve_s = log.total_secs("simnet.fluid.solve");
    let build_s = log.total_secs("scenario.topology.build");
    let net = &counts.net;
    let mut layers = Layers::new();
    for (metric, span, scale) in [
        ("scenario.spec.parse_us", "scenario.spec.parse", 1e6),
        ("scenario.spec.validate_us", "scenario.spec.validate", 1e6),
        (
            "scenario.calib.hockney_miss_ms",
            "scenario.calib.hockney_miss",
            1e3,
        ),
        (
            "scenario.calib.hockney_hit_us",
            "scenario.calib.hockney_hit",
            1e6,
        ),
        (
            "scenario.calib.signature_miss_ms",
            "scenario.calib.signature_miss",
            1e3,
        ),
        ("scenario.topology.build_s", "scenario.topology.build", 1.0),
        (
            "scenario.workload.programs_s",
            "scenario.workload.programs",
            1.0,
        ),
        ("core.model.predict_us", "core.model.predict", 1e6),
        (
            "scenario.report.render_json_us",
            "scenario.report.render_json",
            1e6,
        ),
        (
            "scenario.report.render_csv_us",
            "scenario.report.render_csv",
            1e6,
        ),
        ("simmpi.world.run_s", "simmpi.world.run", 1.0),
        ("simmpi.fluid.run_s", "simmpi.fluid.run", 1.0),
        ("simnet.fluid.solve_s", "simnet.fluid.solve", 1.0),
    ] {
        layers.set(metric, log.total_secs(span) * scale);
    }
    layers.set("scenario.executor.cells", counts.cells as f64);
    layers.set("scenario.topology.build_share", ratio(build_s, op_s));
    layers.set("scenario.workload.ops", counts.ops as f64);
    layers.set("scenario.report.bytes", json.len() as f64);
    layers.set("simmpi.world.messages", counts.messages as f64);
    layers.set("simnet.engine.events", net.events_processed as f64);
    layers.set(
        "simnet.engine.ns_per_event",
        ratio(world_run_s * 1e9, net.events_processed as f64),
    );
    layers.set("simnet.engine.data_packets", net.data_packets_sent as f64);
    layers.set("simnet.engine.ack_packets", net.ack_packets_sent as f64);
    layers.set("simnet.engine.drops", net.packets_dropped as f64);
    layers.set(
        "simnet.engine.max_queue_depth_bytes",
        net.max_queue_depth as f64,
    );
    layers.set(
        "simnet.transport.retransmissions",
        net.retransmissions as f64,
    );
    layers.set("simnet.transport.timeouts", net.timeouts as f64);
    layers.set(
        "simnet.transport.fast_retransmits",
        net.fast_retransmits as f64,
    );
    // The isolated solve repeats the flow set of the cells it could
    // rebuild; what the interpreter adds on top is the difference.
    layers.set(
        "simmpi.fluid.self_s",
        if solve_s > 0.0 {
            fluid_run_s - solve_s
        } else {
            0.0
        },
    );
    layers.set("simnet.fluid.flows", flows as f64);
    layers.set("simnet.fluid.recomputes", recomputes as f64);
    layers.set(
        "simnet.fluid.us_per_recompute",
        ratio(solve_s * 1e6, recomputes as f64),
    );
    layers.set("simnet.fluid.flows_per_s", ratio(flows as f64, solve_s));
    Ok((layers, op_s))
}

/// Executor metrics read off a real session's telemetry. `calib_s` is the
/// replay's cold calibration time (the session does not time its own).
pub fn executor_layers(layers: &mut Layers, op: &Operation, calib_s: f64) {
    let m = &op.metrics;
    let busy: f64 = m.workers.iter().map(|w| w.busy_secs).sum();
    let busiest = m.workers.iter().map(|w| w.busy_secs).fold(0.0, f64::max);
    layers.set(
        "scenario.executor.cell_wall_sum_s",
        m.cells.iter().map(|c| c.wall_secs).sum(),
    );
    layers.set(
        "scenario.executor.worker_busy_share",
        busy / (m.wall_secs * m.workers.len().max(1) as f64),
    );
    layers.set(
        "scenario.executor.overhead_s",
        m.wall_secs - calib_s - busiest,
    );
    layers.set("scenario.calib.cache_hit_rate", m.cache.hit_rate());
}

/// `obs.recorder.recording_ratio`: wall time of one spec with engine
/// telemetry recording over wall time without, as the median of
/// alternating pairs on a warm calibration cache.
pub fn recording_ratio(stem: &str, model: ModelKind, seed: u64) -> Result<f64, String> {
    let spec = ScenarioSpec::from_toml_str(spec_text(stem)).map_err(|e| e.to_string())?;
    let cache = Arc::new(CalibrationCache::new());
    let timed = |telemetry: bool| -> Result<f64, String> {
        let session = Session::builder()
            .workers(1)
            .base_seed(seed)
            .model(model)
            .shared_cache(Arc::clone(&cache))
            .telemetry(telemetry)
            .build()
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        session.run(&spec).map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    };
    timed(false)?;
    let mut ratios = Vec::new();
    for pair in 0..5 {
        let (on, off) = if pair % 2 == 0 {
            let on = timed(true)?;
            (on, timed(false)?)
        } else {
            let off = timed(false)?;
            (timed(true)?, off)
        };
        ratios.push(on / off);
    }
    Ok(stats::median(&ratios))
}

/// `scenario.cli.wall_s`: one real `ctnsim run` of the workload's specs,
/// whose output file must hold the in-process report byte for byte.
pub fn ctnsim_run(
    ctnsim: &FsPath,
    w: &Workload,
    seed: u64,
    expected: &str,
    scratch: &FsPath,
    out: &mut Outcome,
) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", scratch.display());
    std::fs::create_dir_all(scratch).map_err(io)?;
    let mut files = Vec::new();
    for stem in w.specs {
        let path = scratch.join(format!("{stem}.toml"));
        std::fs::write(&path, spec_text(stem)).map_err(io)?;
        files.push(path);
    }
    let report_path = scratch.join("ctnsim-report.json");
    let start = Instant::now();
    let status = std::process::Command::new(ctnsim)
        .arg("run")
        .args(&files)
        .args(["--model", w.model.name()])
        .args(["--workers", &w.workers.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--format", "json", "--out"])
        .arg(&report_path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", ctnsim.display()))?;
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let written = std::fs::read_to_string(&report_path).unwrap_or_default();
    if !status.success() {
        out.fail(&format!("ctnsim run exited with {status}"));
    } else if written != expected {
        out.fail("ctnsim wrote a report that differs from the in-process one");
    }
    Ok(wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }

    #[test]
    fn the_replay_rebuilds_the_sessions_report_byte_for_byte() {
        // The cheapest workload whose replay still walks parse, validate,
        // calibration, topology, programs, the packet engine and render.
        let w = catalog::workload("daemon_small").unwrap();
        let op = operation(w, 1, 7).unwrap();
        let mut log = SpanLog::new();
        let mut out = Outcome::default();
        let (layers, op_s) = replay(w, 7, &op.report, &mut log, &mut out).unwrap();
        assert!(op_s > 0.0);
        assert_eq!((out.attempted, out.failed), (1, 0), "{:?}", out.failures);
        assert_eq!(layers.get("scenario.executor.cells"), Some(1.0));
        assert_eq!(layers.get("simmpi.world.messages"), Some(3.0));
        assert!(layers.get("simnet.engine.events").unwrap() > 0.0);
        assert_eq!(
            layers.get("scenario.report.bytes"),
            Some(op.report.len() as f64)
        );
        // Same seed, same counts; another seed, another report.
        let other = operation(w, 8, 7).map(|o| o.report).unwrap();
        assert_eq!(other, op.report, "workers never change the bytes");
        assert_ne!(operation(w, 1, 8).unwrap().report, op.report);
    }
}
