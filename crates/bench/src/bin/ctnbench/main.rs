//! `ctnbench` — the end-to-end + per-layer benchmark every performance
//! claim about this repository is measured with. See `README.md` beside
//! this file for the workloads, the metrics and the rule for claims.
//!
//! One run measures one workload in its own process:
//!
//! ```text
//! ctnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints each metric by name with its unit, then, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics and writes a
//! Chrome trace under `results/ctnbench/`.

#![forbid(unsafe_code)]

mod catalog;
mod compare;
mod daemon;
mod http;
mod inproc;
mod json;
mod procfs;
mod spans;
mod stats;

use catalog::{Path, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use simnet::obs::json as emit;
use spans::SpanLog;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "ctnbench — end-to-end + per-layer benchmark

USAGE:
    ctnbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    ctnbench all [--seed N] [--seconds S] [--runs N] [--traced] [--out FILE]
    ctnbench smoke [--seed N]
    ctnbench compare BASE.jsonl CHANGE.jsonl
    ctnbench list

    run      one workload in this process; the last stdout line is the result JSON
    all      every workload, each in its own process (--runs N: seeds S..S+N-1;
             --traced: also the per-layer pass); --out appends one row per run
    smoke    every workload at one operation / a 1 s window, all checks on (< 20 s)
    compare  two files written with --out, judged against the regression bounds
    list     workload and metric names

Defaults: --seed 42, --seconds 12, --trace 0, --runs 1.
Build first with `cargo build --release`: ctnd and ctnsim are taken from the
directory ctnbench itself runs from.
";

/// Where the traced pass writes (`results/` is git-ignored).
const TRACE_DIR: &str = "results/ctnbench";

/// Repetitions of a daemon workload's set-up (spawn, health check,
/// warm-up operation: milliseconds each) whose median is `setup_s`. The
/// CLI path's warm-up operation takes seconds of a run that has about
/// twenty, so it happens once.
const SETUP_REPS_DAEMON: usize = 5;

/// What one run found: the contract's `attempted`/`failed` plus the
/// metric values in reporting order.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the human-readable part.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations behind the timing medians.
    pub samples: usize,
    pub report_digest: Option<u64>,
    /// Where generator and daemon ran; `Free` for in-process workloads.
    pub placement: daemon::Placement,
}

impl Outcome {
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why.to_string());
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Per-layer values by metric name.
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    /// # Panics
    /// Panics on a name the catalog does not declare: a typo must not
    /// silently report 0 under the declared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::per_layer(name).is_some(),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[derive(Debug)]
struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// The directory `ctnbench` runs from, where the same `cargo build` put
/// `ctnd` and `ctnsim`.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; run `cargo build --release` first",
            path.display()
        ))
    }
}

/// Median wall time of `reps` repetitions of `setup`, and the last
/// repetition's product. Earlier products are handed to `discard`.
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            discard(previous)?;
        }
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        stats::median(&times),
        kept.expect("at least one repetition"),
    ))
}

fn run_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let (setup_s, mut out) = match w.path {
        Path::Cli => {
            let start = Instant::now();
            catalog::check_pinned()?;
            let checked_s = start.elapsed().as_secs_f64();
            let (first_op_s, out) = inproc::end_to_end(w, args.seed, args.seconds)?;
            (checked_s + first_op_s, out)
        }
        Path::DaemonToml | Path::DaemonJson => {
            if args.seconds == 0.0 {
                return Err("a daemon workload needs a window: --seconds above 0".to_string());
            }
            let launcher = daemon::Launcher::new(sibling("ctnd")?, w);
            catalog::check_pinned()?;
            let job = daemon::Job::new(w, args.seed)?;
            let (setup_s, running) = timed_setup(
                SETUP_REPS_DAEMON,
                || {
                    catalog::check_pinned()?;
                    launcher.start(w, &job)
                },
                daemon::Ctnd::stop,
            )?;
            let mut out = daemon::end_to_end(running, &job, args.seconds)?;
            out.placement = launcher.placement;
            (setup_s, out)
        }
    };
    out.metrics.insert(0, ("setup_s", setup_s));
    Ok(out)
}

fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    catalog::check_pinned()?;
    let mut out = Outcome::default();
    let mut log = SpanLog::new();

    // The untraced reference: one real operation on one worker, whose
    // report the replay must rebuild and whose wall time the replay's is
    // compared with.
    out.attempted += 1;
    let reference = inproc::operation(w, 1, args.seed)?;
    let (mut layers, replay_s) =
        inproc::replay(w, args.seed, &reference.report, &mut log, &mut out)?;
    let calib_s = log.total_secs("scenario.calib.hockney_miss")
        + log.total_secs("scenario.calib.signature_miss");
    inproc::executor_layers(&mut layers, &reference, calib_s);
    out.report_digest = Some(inproc::digest(reference.report.as_bytes()));
    out.samples = 1;

    match w.path {
        Path::Cli => {
            if w.workers > 1 {
                out.attempted += 1;
                let parallel = inproc::operation(w, w.workers, args.seed)?;
                if parallel.report != reference.report {
                    out.fail("report bytes depend on the worker count");
                }
                inproc::executor_layers(&mut layers, &parallel, calib_s);
                layers.set(
                    "scenario.executor.speedup_2w",
                    reference.wall_s / parallel.wall_s,
                );
            }
            layers.set(
                "trace.overhead_pct",
                100.0 * (replay_s / reference.wall_s - 1.0),
            );
            layers.set("latency_p50_ms", 1e3 * reference.wall_s);
            if let Some(stem) = w.recorder_spec {
                layers.set(
                    "obs.recorder.recording_ratio",
                    inproc::recording_ratio(stem, w.model, args.seed)?,
                );
                let scratch = PathBuf::from(TRACE_DIR).join(w.name);
                layers.set(
                    "scenario.cli.wall_s",
                    inproc::ctnsim_run(
                        &sibling("ctnsim")?,
                        w,
                        args.seed,
                        &reference.report,
                        &scratch,
                        &mut out,
                    )?,
                );
            }
        }
        Path::DaemonToml | Path::DaemonJson => {
            let job = daemon::Job::new(w, args.seed)?;
            daemon::traced(
                &daemon::Launcher::new(sibling("ctnd")?, w),
                w,
                &job,
                args.seconds,
                &mut log,
                &mut out,
                &mut layers,
            )?;
        }
    }

    let trace_path = PathBuf::from(TRACE_DIR).join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| {
            std::fs::write(
                &trace_path,
                log.chrome_trace(&format!("ctnbench {}", w.name)),
            )
        })
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "ctnbench: wrote {} spans to {}",
        log.len(),
        trace_path.display()
    );

    // Every declared per-layer metric is reported; a layer the workload
    // never entered reads 0.
    out.metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).unwrap_or(0.0)))
        .collect();
    Ok(out)
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// The contract's result object.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                emit::string(name),
                emit::number(*value),
                emit::string(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// One `--out` row: the result with what it was measured on.
fn row_json(args: &RunArgs, out: &Outcome) -> String {
    let machine = procfs::machine();
    let binaries: Vec<String> = ["ctnd", "ctnsim"]
        .iter()
        .filter_map(|name| sibling(name).ok())
        .filter_map(|path| procfs::binary_info(&path).ok())
        .map(|b| {
            format!(
                "{{\"name\": {}, \"bytes\": {}, \"mtime_unix\": {}, \"stale\": {}}}",
                emit::string(&b.name),
                b.bytes,
                b.mtime_unix,
                b.stale
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"report_digest\": {}, \
         \"placement\": {}, \"machine\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}}}, \
         \"binaries\": [{}], \"result\": {}}}",
        emit::string(args.workload.name),
        args.seed,
        emit::number(args.seconds),
        u8::from(args.trace),
        emit::string(
            &out.report_digest
                .map_or(String::new(), |d| format!("{d:016x}"))
        ),
        emit::string(out.placement.name()),
        machine.nproc,
        emit::string(&machine.cpu_model),
        emit::string(&machine.kernel),
        emit::string(&machine.rustc),
        binaries.join(", "),
        result_json(out)
    )
}

fn warn_stale_binaries() {
    for name in ["ctnd", "ctnsim"] {
        if let Some(info) = sibling(name)
            .ok()
            .and_then(|p| procfs::binary_info(&p).ok())
        {
            if info.stale {
                eprintln!(
                    "ctnbench: warning: {name} is older than ctnbench; run `cargo build --release` \
                     so all three come from one commit"
                );
            }
        }
    }
}

fn cmd_run(args: &RunArgs) -> Result<ExitCode, String> {
    warn_stale_binaries();
    let started = Instant::now();
    let out = if args.trace {
        run_traced(args)?
    } else {
        run_end_to_end(args)?
    };
    let w = args.workload;
    println!(
        "workload {}  seed {}  seconds {}  trace {}  ({} operations timed, {:.1} s in all)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.samples,
        started.elapsed().as_secs_f64()
    );
    for (name, value) in &out.metrics {
        // In the readable part a layer the workload never entered is
        // left out rather than shown as 0.
        if !args.trace || *value != 0.0 {
            println!("  {name:<40} {value:>16.6} {}", unit_of(name));
        }
    }
    println!(
        "  {:<40} {:>16.6} ratio  ({} failed of {} attempted)",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(d) = out.report_digest {
        println!("  {:<40} {:>16x}", "report_digest", d);
    }
    if w.path != Path::Cli {
        println!("  {:<40} {:>16}", "placement", out.placement.name());
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", row_json(args, &out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_json(&out));
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `ctnbench run …` for one workload in a child process, so peak
/// memory is per workload, passing its output through.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&PathBuf>,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("spawning ctnbench: {e}"))?;
    Ok(status.success())
}

fn cmd_all(
    seed: u64,
    seconds: f64,
    runs: u64,
    traced: bool,
    out: Option<PathBuf>,
) -> Result<ExitCode, String> {
    let mut clean = true;
    for w in WORKLOADS {
        for run in 0..runs {
            clean &= child_run(w.name, seed + run, seconds, false, out.as_ref())?;
            if traced {
                clean &= child_run(w.name, seed + run, seconds, true, out.as_ref())?;
            }
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload at its smallest: one operation on the CLI path, a 1 s
/// window on the daemon path, every correctness check on.
fn cmd_smoke(seed: u64) -> Result<ExitCode, String> {
    let mut clean = true;
    for w in WORKLOADS {
        let seconds = if w.path == Path::Cli { 0.0 } else { 1.0 };
        clean &= child_run(w.name, seed, seconds, false, None)?;
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in END_TO_END {
        println!(
            "  {:<40} {:<6} better {:<7} may worsen by {:.0} %",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in PER_LAYER {
        println!(
            "  {:<40} {:<6} better {:<7}{}",
            m.name,
            m.unit,
            m.better.name(),
            if m.exact { " exact" } else { "" }
        );
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "smoke" | "compare" | "list")) => (c, &argv[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        _ => ("run", argv),
    };
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut runs = 1u64;
    let mut traced = false;
    let mut out = None;
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = parse(arg, it.next())?;
                workload = Some(
                    catalog::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = parse(arg, it.next())?,
            "--seconds" => seconds = parse(arg, it.next())?,
            "--trace" => {
                trace = match parse::<u8>(arg, it.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => runs = parse(arg, it.next())?,
            "--traced" => traced = true,
            "--out" => out = Some(PathBuf::from(parse::<String>(arg, it.next())?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must not be negative".to_string());
    }
    match command {
        "run" => cmd_run(&RunArgs {
            workload: workload.ok_or("run needs --workload (see `ctnbench list`)")?,
            seed,
            seconds,
            trace,
            out,
        }),
        "all" => cmd_all(seed, seconds, runs.max(1), traced, out),
        "smoke" => cmd_smoke(seed),
        "compare" => match files.as_slice() {
            [base, change] => compare::run(base, change),
            _ => Err("compare needs two result files".to_string()),
        },
        "list" => {
            cmd_list();
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!("command was matched above"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ctnbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|item| {
                item.get("name")
                    .and_then(Value::as_str)
                    .expect("every entry is named")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` must declare exactly what `ctnbench list` prints:
    /// the snapshot-freshness contract, extended to the benchmark manifest.
    #[test]
    fn the_manifest_lists_exactly_the_catalog() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let own = |items: Vec<&str>| items.into_iter().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            names(&doc, "workloads"),
            own(WORKLOADS.iter().map(|w| w.name).collect())
        );
        assert_eq!(
            names(&doc, "end_to_end"),
            own(END_TO_END.iter().map(|m| m.name).collect())
        );
        assert_eq!(
            names(&doc, "per_layer"),
            own(PER_LAYER.iter().map(|m| m.name).collect())
        );
        for (entry, m) in doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        for (entry, m) in doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
        }
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
        }
        assert_eq!(
            doc.get("paths")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
    }

    /// The standalone package beside this file must compile the libraries
    /// as the workspace does, or the in-process workloads would measure
    /// another build than `ctnsim` and `ctnd` are.
    #[test]
    fn the_standalone_package_copies_the_workspace_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }

    #[test]
    fn the_result_line_has_the_contract_shape() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.push("wall_s", 1.25);
        out.push("runs_per_s", 0.8);
        let doc = json::parse(&result_json(&out)).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.number_at(&["metrics", "wall_s", "value"]), Some(1.25));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("runs_per_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("1/s")
        );
        out.fail("x");
        let doc = json::parse(&result_json(&out)).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn timed_setup_keeps_the_last_product_and_discards_the_rest() {
        let mut made = 0;
        let mut discarded = Vec::new();
        let (median, kept) = timed_setup(
            3,
            || {
                made += 1;
                Ok(made)
            },
            |p| {
                discarded.push(p);
                Ok(())
            },
        )
        .unwrap();
        assert!(median >= 0.0);
        assert_eq!((kept, discarded), (3, vec![1, 2]));
    }
}
