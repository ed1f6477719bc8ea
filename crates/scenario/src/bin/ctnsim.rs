//! `ctnsim` — run contention scenarios from the command line.
//!
//! ```text
//! ctnsim list
//! ctnsim run <name|file.toml>... [--workers N] [--seed S] [--format text|csv|json] [--out FILE]
//! ctnsim sweep <name|file.toml> --nodes 4,8 --sizes 65536,262144 [--reps R] [--workers N]
//! ctnsim show <name>
//! ```
//!
//! A thin shell over the library's [`Session`] facade: argument parsing
//! and I/O live here, everything else (calibration caching, streaming
//! progress, report rendering) is the same code an embedder calls.
//!
//! Exit codes: `0` success, `1` runtime failure (unknown scenario,
//! invalid spec, simulation or I/O error), `2` usage error (unknown
//! command, flag or flag value), `3` partial failure (the run finished
//! and the report was emitted, but some cells were stopped by a
//! supervision limit, a deadlock, a panic or a cancellation — see the
//! report's `status` column).

use contention_scenario::prelude::*;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "ctnsim — contention scenario runner

USAGE:
    ctnsim list
        Show the built-in scenarios.

    ctnsim run <name|file.toml>... [OPTIONS]
        Run one or more scenarios (built-in names or TOML spec files) and
        emit per-cell results with model-error columns.

    ctnsim sweep <name|file.toml> --nodes N1,N2 --sizes B1,B2 [OPTIONS]
        Run a scenario with its grid replaced from the command line.

    ctnsim show <name>
        Print a built-in scenario as TOML (a template for custom specs).

OPTIONS:
    --workers N       Worker threads (default: available parallelism)
    --seed S          Base seed (default 42); results are deterministic per
                      (scenario, seed, cell) and independent of --workers
    --model NAME      Predictor behind the model_secs/error_percent
                      columns: med (default; the MED lower bound),
                      signature (fitted (γ, δ, M) contention signature) or
                      saturation (γ(n) ramp for half-saturated networks)
    --placement NAME  Override how ranks map onto the fabric: scatter
                      (round-robin across edge groups), pack (fill groups
                      in order) or random (seeded partial permutation).
                      Not available on preset topologies.
    --backend NAME    Override which simulation tier runs the cells:
                      packet (per-packet discrete events, the calibrated
                      reference) or fluid (flow-level max-min fair
                      sharing; orders of magnitude faster on 1k+-host
                      fabrics, see the README error bands)
    --format NAME     Output format: text, csv (default) or json
    --out FILE        Write the report to FILE instead of stdout
    --progress        Stream per-cell progress to stderr while running,
                      then a run summary (wall clock, cache hit rate)
    --metrics FILE    Write per-run telemetry (cell spans, worker
                      occupancy, link utilization series, protocol event
                      marks) as a JSON document to FILE
    --trace FILE      Write a Chrome trace-event timeline to FILE; open
                      it in Perfetto (ui.perfetto.dev) or chrome://tracing
    --reps R          Measured repetitions per cell (override)
    --warmup W        Warm-up repetitions per cell (override)
    --deadline SECS   Wall-clock ceiling per cell; a cell that exceeds it
                      is stopped at the engine's next preemption point and
                      reported with status timed-out while its siblings
                      finish (exit code 3 marks the partial failure)
    --event-budget N  Engine-event ceiling per cell (rate recomputations
                      on the fluid backend); exhausted cells report
                      status budget-exceeded

Exit codes: 0 success; 1 runtime failure; 2 usage error; 3 partial
failure — the report was emitted but some cells carry a non-ok status
(timed-out, budget-exceeded, deadlocked, panicked or cancelled).
";

/// Runtime failure (unknown scenario, invalid spec, simulation error).
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("ctnsim: {msg}");
    ExitCode::FAILURE
}

/// Usage error (unknown command, flag, or flag value).
fn fail_usage(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("ctnsim: {msg}");
    ExitCode::from(2)
}

struct Options {
    workers: Option<usize>,
    seed: u64,
    model: ModelKind,
    placement: Option<Placement>,
    backend: Option<Backend>,
    format: ReportFormat,
    out: Option<String>,
    progress: bool,
    metrics: Option<String>,
    trace: Option<String>,
    nodes: Option<Vec<usize>>,
    sizes: Option<Vec<u64>>,
    reps: Option<usize>,
    warmup: Option<usize>,
    deadline: Option<Duration>,
    event_budget: Option<u64>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workers: None,
        seed: 42,
        model: ModelKind::Med,
        placement: None,
        backend: None,
        format: ReportFormat::Csv,
        out: None,
        progress: false,
        metrics: None,
        trace: None,
        nodes: None,
        sizes: None,
        reps: None,
        warmup: None,
        deadline: None,
        event_budget: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                o.workers = Some(
                    value_of("--workers")?
                        .parse()
                        .map_err(|_| "--workers expects a positive integer".to_string())?,
                )
            }
            "--seed" => {
                o.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--model" => {
                let name = value_of("--model")?;
                o.model = ModelKind::parse(&name).ok_or_else(|| {
                    format!("unknown model {name:?} (expected med, signature or saturation)")
                })?;
            }
            "--placement" => {
                let name = value_of("--placement")?;
                o.placement = Some(Placement::parse(&name).ok_or_else(|| {
                    format!("unknown placement {name:?} (expected scatter, pack or random)")
                })?);
            }
            "--backend" => {
                let name = value_of("--backend")?;
                o.backend = Some(Backend::parse(&name).ok_or_else(|| {
                    format!("unknown backend {name:?} (expected packet or fluid)")
                })?);
            }
            "--format" => {
                let name = value_of("--format")?;
                o.format = ReportFormat::parse(&name).ok_or_else(|| {
                    format!("unknown format {name:?} (expected text, csv or json)")
                })?;
            }
            "--out" => o.out = Some(value_of("--out")?),
            "--progress" => o.progress = true,
            "--metrics" => o.metrics = Some(value_of("--metrics")?),
            "--trace" => o.trace = Some(value_of("--trace")?),
            "--nodes" => o.nodes = Some(parse_list(&value_of("--nodes")?, "--nodes")?),
            "--sizes" => {
                o.sizes = Some(
                    parse_list(&value_of("--sizes")?, "--sizes")?
                        .into_iter()
                        .map(|v| v as u64)
                        .collect(),
                )
            }
            "--reps" => {
                o.reps = Some(
                    value_of("--reps")?
                        .parse()
                        .map_err(|_| "--reps expects a positive integer".to_string())?,
                )
            }
            "--warmup" => {
                o.warmup = Some(
                    value_of("--warmup")?
                        .parse()
                        .map_err(|_| "--warmup expects an integer".to_string())?,
                )
            }
            "--deadline" => {
                let secs: f64 = value_of("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects seconds (a positive number)".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline expects seconds (a positive number)".to_string());
                }
                o.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--event-budget" => {
                o.event_budget = Some(
                    value_of("--event-budget")?
                        .parse()
                        .map_err(|_| "--event-budget expects a non-negative integer".to_string())?,
                )
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            name => o.positional.push(name.to_string()),
        }
    }
    Ok(o)
}

fn parse_list(text: &str, flag: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("{flag}: {part:?} is not a positive integer"))
        })
        .collect()
}

fn load_spec(name_or_path: &str) -> Result<ScenarioSpec, String> {
    if let Some(spec) = registry::by_name(name_or_path) {
        return Ok(spec);
    }
    if name_or_path.ends_with(".toml") {
        let text = std::fs::read_to_string(name_or_path)
            .map_err(|e| format!("cannot read {name_or_path}: {e}"))?;
        return ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{name_or_path}: {e}"));
    }
    Err(format!(
        "unknown scenario {name_or_path:?}; `ctnsim list` shows built-ins, or pass a .toml file"
    ))
}

fn emit(options: &Options, report: &Report) -> Result<(), String> {
    let text = report.render(options.format);
    match &options.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {} scenario(s), {} cell(s) to {path}",
                report.batches.len(),
                report.cell_count()
            );
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_list() -> ExitCode {
    let all = registry::builtin();
    println!(
        "{:<28} {:>5}  {:<7}  DESCRIPTION",
        "NAME", "CELLS", "BACKEND"
    );
    let mut fluid_only = 0usize;
    for spec in &all {
        let backend = match spec.backend {
            Backend::Fluid => {
                fluid_only += 1;
                "fluid"
            }
            Backend::Packet => "any",
        };
        println!(
            "{:<28} {:>5}  {:<7}  {}",
            spec.name,
            spec.sweep.nodes.len() * spec.sweep.message_bytes.len(),
            backend,
            spec.description
        );
    }
    println!(
        "\n{} scenarios; `ctnsim run <name>` executes one.",
        all.len()
    );
    if fluid_only > 0 {
        println!(
            "Scenarios marked `fluid` are sized for the fluid backend; forcing \
             `--backend packet` on them is rejected or impractically slow."
        );
    }
    ExitCode::SUCCESS
}

/// Streams per-cell progress lines to stderr as the session runs.
fn progress_observer(event: RunEvent<'_>) {
    match event {
        RunEvent::BatchStarted { scenario, cells } => {
            eprintln!("ctnsim: {scenario}: {cells} cell(s) queued");
        }
        RunEvent::CellFinished {
            scenario,
            cell,
            completed,
            total,
            ..
        } => {
            let err = if cell.error_percent.is_finite() {
                format!("{:+.1}%", cell.error_percent)
            } else {
                "-".to_string()
            };
            let status = if cell.status.is_ok() {
                String::new()
            } else {
                format!(" status={}", cell.status.name())
            };
            eprintln!(
                "ctnsim: {scenario}: [{completed}/{total}] n={} m={} mean={:.6}s err={err}{status}",
                cell.n, cell.message_bytes, cell.mean_secs
            );
        }
        RunEvent::BatchFinished { scenario, .. } => {
            eprintln!("ctnsim: {scenario}: done");
        }
    }
}

fn run_specs(mut specs: Vec<ScenarioSpec>, options: &Options) -> ExitCode {
    for spec in &mut specs {
        if let Some(nodes) = &options.nodes {
            spec.sweep.nodes = nodes.clone();
        }
        if let Some(sizes) = &options.sizes {
            spec.sweep.message_bytes = sizes.clone();
        }
        if let Some(reps) = options.reps {
            spec.sweep.reps = reps;
        }
        if let Some(warmup) = options.warmup {
            spec.sweep.warmup = warmup;
        }
        if let Some(placement) = options.placement {
            spec.placement = placement;
        }
        if let Some(backend) = options.backend {
            spec.backend = backend;
        }
    }
    let mut builder = Session::builder()
        .base_seed(options.seed)
        .model(options.model)
        .telemetry(options.metrics.is_some() || options.trace.is_some());
    if let Some(workers) = options.workers {
        builder = builder.workers(workers);
    }
    builder = builder.limits(GuardLimits {
        deadline: options.deadline,
        event_budget: options.event_budget,
        sim_horizon: None,
    });
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => return fail_usage(e),
    };
    let outcome = if options.progress {
        session.run_many_with(&specs, &mut progress_observer)
    } else {
        session.run_many(&specs)
    };
    match outcome {
        Ok(report) => {
            if let Err(e) = emit(options, &report) {
                return fail(e);
            }
            match export_telemetry(options, &session) {
                Ok(()) if report.has_failures() => ExitCode::from(3),
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        Err(e) => fail(e),
    }
}

/// Writes `--metrics`/`--trace` exports and, under `--progress`, the run
/// summary line. The [`SessionMetrics`] snapshot exists after every
/// successful run; the flags only decide what gets written where.
fn export_telemetry(options: &Options, session: &Session) -> Result<(), String> {
    let Some(metrics) = session.metrics() else {
        return Ok(());
    };
    if options.progress {
        let busy: f64 = metrics.workers.iter().map(|w| w.busy_secs).sum();
        eprintln!(
            "ctnsim: {} cell(s) on {} worker(s) in {:.3}s wall ({:.3}s simulating); \
             calibration cache: {} hit(s), {} miss(es) ({:.0}% hit rate)",
            metrics.cells.len(),
            metrics.workers.len(),
            metrics.wall_secs,
            busy,
            metrics.cache.hits,
            metrics.cache.misses,
            metrics.cache.hit_rate() * 100.0
        );
    }
    if let Some(path) = &options.metrics {
        std::fs::write(path, metrics.render_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote run metrics to {path}");
    }
    if let Some(path) = &options.trace {
        std::fs::write(path, metrics.render_chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote trace timeline to {path} (open in Perfetto or chrome://tracing)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => return fail_usage(e),
    };
    match command.as_str() {
        "list" => cmd_list(),
        "show" => {
            let Some(name) = options.positional.first() else {
                return fail_usage("show needs a scenario name");
            };
            match registry::by_name(name) {
                Some(spec) => {
                    print!("{}", spec.to_toml_string());
                    ExitCode::SUCCESS
                }
                None => fail(format!("unknown built-in {name:?}")),
            }
        }
        "run" => {
            if options.positional.is_empty() {
                return fail_usage("run needs at least one scenario name or .toml file");
            }
            let mut specs = Vec::new();
            for name in &options.positional {
                match load_spec(name) {
                    Ok(s) => specs.push(s),
                    Err(e) => return fail(e),
                }
            }
            run_specs(specs, &options)
        }
        "sweep" => {
            let Some(name) = options.positional.first() else {
                return fail_usage("sweep needs a scenario name or .toml file");
            };
            if options.positional.len() > 1 {
                return fail_usage("sweep takes exactly one scenario");
            }
            if options.nodes.is_none() && options.sizes.is_none() {
                return fail_usage("sweep needs --nodes and/or --sizes overrides");
            }
            match load_spec(name) {
                Ok(spec) => run_specs(vec![spec], &options),
                Err(e) => fail(e),
            }
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail_usage(format!("unknown command {other:?}; see `ctnsim help`")),
    }
}
