//! Integration tests of the `ctnsim` binary: exit codes, stderr
//! diagnostics, and output formats, via the real executable
//! (`CARGO_BIN_EXE_ctnsim`).
//!
//! Exit-code contract: `0` success, `1` runtime failure (unknown
//! scenario, invalid spec, simulation/I-O error), `2` usage error
//! (unknown command, flag, or flag value), `3` partial failure (the
//! report was emitted but some cells carry a non-ok supervision
//! status).

use simnet::obs::json;
use std::process::{Command, Output};

fn ctnsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ctnsim"))
        .args(args)
        .output()
        .expect("ctnsim spawns")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("ctnsim exits normally")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = ctnsim(&[]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("USAGE"), "{}", stderr(&out));
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = ctnsim(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown command \"frobnicate\""), "{err}");
    assert!(err.contains("ctnsim help"), "{err}");
}

#[test]
fn unknown_scenario_name_is_a_runtime_error() {
    let out = ctnsim(&["run", "no-such-scenario"]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(
        err.contains("unknown scenario \"no-such-scenario\""),
        "{err}"
    );
    assert!(err.contains("ctnsim list"), "{err}");
}

#[test]
fn bad_model_value_is_a_usage_error() {
    let out = ctnsim(&["run", "incast-burst", "--model", "quantum"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown model \"quantum\""), "{err}");
    assert!(err.contains("med, signature or saturation"), "{err}");
}

#[test]
fn bad_placement_value_is_a_usage_error() {
    let out = ctnsim(&["run", "incast-burst", "--placement", "teleport"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown placement \"teleport\""), "{err}");
    assert!(err.contains("scatter, pack or random"), "{err}");
}

#[test]
fn bad_format_value_is_a_usage_error() {
    let out = ctnsim(&["run", "incast-burst", "--format", "yaml"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown format \"yaml\""), "{err}");
    assert!(err.contains("text, csv or json"), "{err}");
}

#[test]
fn flag_without_value_and_unknown_flag_are_usage_errors() {
    let out = ctnsim(&["run", "incast-burst", "--model"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("--model needs a value"),
        "{}",
        stderr(&out)
    );
    let out = ctnsim(&["run", "incast-burst", "--frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("unknown option --frobnicate"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn sweep_without_overrides_is_a_usage_error() {
    let out = ctnsim(&["sweep", "incast-burst"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("--nodes and/or --sizes"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn show_unknown_builtin_is_a_runtime_error() {
    let out = ctnsim(&["show", "no-such-builtin"]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("unknown built-in \"no-such-builtin\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn list_names_every_builtin() {
    let out = ctnsim(&["list"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    for spec in contention_scenario::registry::builtin() {
        assert!(text.contains(&spec.name), "list misses {}", spec.name);
    }
}

/// Backend-restricted builtins are flagged in the listing so nobody
/// submits a 1k–4k-host fluid scenario to the packet tier and discovers
/// the mistake an hour later: every fluid-only row carries `fluid` in
/// the BACKEND column, every unrestricted row carries `any`, and the
/// footnote explains the restriction.
#[test]
fn list_flags_backend_restricted_builtins() {
    use contention_scenario::prelude::Backend;
    let out = ctnsim(&["list"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("BACKEND"), "missing column header:\n{text}");
    let mut fluid_rows = 0;
    for spec in contention_scenario::registry::builtin() {
        let row = text
            .lines()
            .find(|l| l.starts_with(&spec.name))
            .unwrap_or_else(|| panic!("no row for {}", spec.name));
        match spec.backend {
            Backend::Fluid => {
                fluid_rows += 1;
                assert!(row.contains(" fluid "), "unflagged fluid row: {row}");
            }
            Backend::Packet => {
                assert!(row.contains(" any "), "packet row not `any`: {row}");
            }
        }
    }
    assert_eq!(fluid_rows, 2, "the registry has two fluid-only builtins");
    assert!(
        text.contains("fluid backend"),
        "missing footnote about the restriction:\n{text}"
    );
}

/// One tiny real run per format: the json output must parse as strict
/// JSON, the csv output carry the fixed header, the text output the
/// version banner; `--progress` streams cell lines to stderr without
/// touching stdout.
#[test]
fn run_emits_all_three_formats_and_streams_progress() {
    let base = [
        "run",
        "incast-burst",
        "--nodes",
        "4",
        "--sizes",
        "16384",
        "--reps",
        "1",
        "--warmup",
        "0",
        "--workers",
        "2",
    ];
    let json = ctnsim(&[&base[..], &["--format", "json"]].concat());
    assert_eq!(code(&json), 0, "{}", stderr(&json));
    let json_text = stdout(&json);
    json::parse(&json_text).expect("ctnsim --format json emits valid JSON");
    assert!(json_text.contains("\"schema_version\": 1"), "{json_text}");

    let csv = ctnsim(&[&base[..], &["--format", "csv"]].concat());
    assert_eq!(code(&csv), 0);
    assert!(
        stdout(&csv).starts_with("scenario,topology,workload,n,"),
        "{}",
        stdout(&csv)
    );

    let text = ctnsim(&[&base[..], &["--format", "text", "--progress"]].concat());
    assert_eq!(code(&text), 0);
    assert!(
        stdout(&text).starts_with("report v1\n"),
        "{}",
        stdout(&text)
    );
    let progress = stderr(&text);
    assert!(progress.contains("[1/1]"), "{progress}");
    assert!(progress.contains("incast-burst: done"), "{progress}");
    assert!(
        progress.contains("hit rate"),
        "--progress ends with the run summary line: {progress}"
    );
}

/// `--metrics` and `--trace` write valid JSON next to an unchanged
/// report: the metrics document carries its schema version and the cell
/// list, the trace file is Chrome trace-event JSON with span events.
#[test]
fn metrics_and_trace_flags_write_valid_json_files() {
    let dir = std::env::temp_dir().join(format!("ctnsim-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics_path = dir.join("metrics.json");
    let trace_path = dir.join("trace.json");
    let out = ctnsim(&[
        "run",
        "incast-burst",
        "--nodes",
        "4",
        "--sizes",
        "16384",
        "--reps",
        "1",
        "--warmup",
        "0",
        "--workers",
        "2",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(
        stdout(&out).starts_with("scenario,topology,workload,n,"),
        "report still lands on stdout: {}",
        stdout(&out)
    );

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    json::parse(&metrics).expect("--metrics emits valid JSON");
    assert!(
        metrics.contains("\"metrics_schema_version\": 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\"engine\": {"),
        "telemetry attached: {metrics}"
    );
    assert!(
        metrics.contains("\"fabric_builds\": 1,"),
        "one shared fabric for the fit and the cell: {metrics}"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    json::parse(&trace).expect("--trace emits valid JSON");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(
        trace.contains("\"ph\":\"X\""),
        "cell spans present: {trace}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The GM-on-finite-buffer trap as a TOML spec: the run terminates,
/// emits a schema-v2 report with `deadlocked` rows, and exits 3
/// (partial failure) instead of hanging.
#[test]
fn deadlocking_spec_exits_3_with_deadlocked_status() {
    let dir = std::env::temp_dir().join(format!("ctnsim-supervision-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("gm-trap.toml");
    std::fs::write(
        &spec_path,
        r#"name = "gm-finite-buffer-trap"

[sweep]
message_bytes = [262144]
nodes = [4]
reps = 1
warmup = 0

[topology]
hosts = 4
kind = "single-switch"

[topology.link]
bandwidth_bytes_per_sec = 125000000.0
latency_ns = 20000

[topology.switch]
per_port_cap_bytes = 8192
shared_buffer_bytes = 16384

[transport]
kind = "gm"
window_bytes = 1048576

[workload]
kind = "incast"
receivers = 1
"#,
    )
    .expect("write spec");
    let out = ctnsim(&[
        "run",
        spec_path.to_str().unwrap(),
        "--format",
        "json",
        "--workers",
        "1",
        "--deadline",
        "60",
    ]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    let json = stdout(&out);
    json::parse(&json).expect("partial-failure report is still valid JSON");
    assert!(json.contains("\"schema_version\": 2"), "{json}");
    assert!(json.contains("\"status\": \"deadlocked\""), "{json}");

    // Under `--model signature` the same trap springs earlier, in the
    // fit's sample All-to-Alls, before any cell exists to carry a status:
    // a runtime error with the stall diagnostic, not a panic (exit 101).
    let out = ctnsim(&["run", spec_path.to_str().unwrap(), "--model", "signature"]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("calibration") && err.contains("deadlock"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Parameters no generator accepts are a spec error naming the field
/// (they used to pass validation and panic in the generator, exit 101).
#[test]
fn a_fabric_no_generator_accepts_exits_1_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("ctnsim-unwired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("unwired.toml");
    for builtin in ["sparse-star", "mixed-phases-tree"] {
        let shown = stdout(&ctnsim(&["show", builtin]));
        let unwired = shown.replace("uplinks_per_leaf = 2", "uplinks_per_leaf = 0");
        assert_ne!(shown, unwired, "{builtin} has two uplinks per leaf");
        std::fs::write(&spec_path, unwired).expect("write spec");
        let out = ctnsim(&["run", spec_path.to_str().unwrap()]);
        assert_eq!(code(&out), 1, "{builtin}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("topology.uplinks_per_leaf"),
            "{builtin}: {err}"
        );
        assert!(!err.contains("panicked"), "{builtin}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Supervision flags reject malformed values as usage errors.
#[test]
fn bad_supervision_flag_values_are_usage_errors() {
    for args in [
        ["run", "incast-burst", "--deadline", "zero"],
        ["run", "incast-burst", "--deadline", "-1"],
        ["run", "incast-burst", "--event-budget", "many"],
    ] {
        let out = ctnsim(&args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
    }
}
