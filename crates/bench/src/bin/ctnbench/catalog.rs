//! The benchmark's fixed vocabulary: workloads, pinned inputs and metric
//! definitions. `BENCHMARK.json` at the repository root must list exactly
//! these names (a unit test pins that).

use contention_scenario::executor::ModelKind;
use contention_scenario::spec::ScenarioSpec;

/// How a workload's operation reaches the code under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// What `ctnsim run` does, in-process: parse → validate → fresh
    /// `Session` → `run_many` → render JSON.
    Cli,
    /// `POST /v1/runs?seed=` with the TOML text as the body.
    DaemonToml,
    /// `POST /v1/runs` with a `{"spec_toml": …, "seed": …}` envelope.
    DaemonJson,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub why: &'static str,
    pub path: Path,
    /// Pinned spec files (by stem) one operation runs, in order.
    pub specs: &'static [&'static str],
    pub model: ModelKind,
    /// Session workers of the operation (daemon: `--session-workers`).
    pub workers: usize,
    /// The one workload that stands for the `ctnsim` binary and the
    /// telemetry recorder in the traced pass names the spec the recorder's
    /// overhead is measured on.
    pub recorder_spec: Option<&'static str>,
    /// Daemon workloads: confine the load generator to one CPU and `ctnd`
    /// to another (see `daemon::Launcher`). Off where the run workers
    /// need every CPU.
    pub split_cpus: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_presets",
        why: "the paper's three single-switch clusters, packet engine on one thread with cold signature calibration: isolates per-event cost",
        path: Path::Cli,
        specs: &[
            "paper-fast-ethernet-1rep",
            "paper-gigabit-ethernet-1rep",
            "paper-myrinet-1rep",
        ],
        model: ModelKind::Signature,
        workers: 1,
        recorder_spec: Some("paper-myrinet-1rep"),
        split_cpus: false,
    },
    Workload {
        name: "multihop_mix",
        why: "seven multi-hop builtins as one run_many on two workers: routing, irregular and multi-phase programs, and the executor's LPT queue",
        path: Path::Cli,
        specs: &[
            "fat-tree-uniform",
            "oversubscribed-tree-skewed",
            "sparse-star",
            "mixed-phases-tree",
            "dragonfly-adversarial-uniform",
            "packed-vs-scattered-fattree",
            "torus3d-random-permutation",
        ],
        model: ModelKind::Med,
        workers: 2,
        recorder_spec: None,
        split_cpus: false,
    },
    Workload {
        name: "fluid_fattree",
        why: "one 686-host fat-tree all-to-all on the fluid backend: max-min recompute over ~470k concurrent flows is nearly all the time and memory",
        path: Path::Cli,
        specs: &["fluid-fattree-686"],
        model: ModelKind::Med,
        workers: 1,
        recorder_spec: None,
        split_cpus: false,
    },
    Workload {
        name: "fluid_sweep",
        why: "192 small fluid cells on a 128-host dragonfly: per-cell fabric build, program generation and matching outweigh the solver; 52 KB report",
        path: Path::Cli,
        specs: &["fluid-dragonfly-sweep"],
        model: ModelKind::Med,
        workers: 1,
        recorder_spec: None,
        split_cpus: false,
    },
    Workload {
        name: "daemon_small",
        why: "0.1 ms runs through ctnd by two closed-loop clients (TOML body): the serving path is nearly all the latency, the engine is noise",
        path: Path::DaemonToml,
        specs: &["incast-tiny"],
        model: ModelKind::Med,
        workers: 1,
        recorder_spec: None,
        split_cpus: true,
    },
    Workload {
        name: "daemon_heavy",
        why: "140 ms runs through ctnd by two closed-loop clients (JSON envelope): both run workers saturated, so serving CPU shows as lost throughput",
        path: Path::DaemonJson,
        specs: &["mixed-phases-tree"],
        model: ModelKind::Med,
        workers: 1,
        recorder_spec: None,
        split_cpus: false,
    },
];

/// Closed-loop clients of the daemon workloads, and `ctnd --run-workers`.
/// Both equal the reference box's core count; the generator never runs
/// more threads or connections than this.
pub const DAEMON_CLIENTS: usize = 2;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

macro_rules! pinned {
    ($($stem:literal),* $(,)?) => {
        &[$(($stem, include_str!(concat!("workloads/", $stem, ".toml")))),*]
    };
}

/// The pinned inputs, compiled in: a missing file fails the build, and a
/// later registry edit cannot change what the benchmark runs.
const PINNED: &[(&str, &str)] = pinned![
    "paper-fast-ethernet-1rep",
    "paper-gigabit-ethernet-1rep",
    "paper-myrinet-1rep",
    "fat-tree-uniform",
    "oversubscribed-tree-skewed",
    "sparse-star",
    "mixed-phases-tree",
    "dragonfly-adversarial-uniform",
    "packed-vs-scattered-fattree",
    "torus3d-random-permutation",
    "fluid-fattree-686",
    "fluid-dragonfly-sweep",
    "incast-tiny",
];

pub fn spec_text(stem: &str) -> &'static str {
    PINNED
        .iter()
        .find(|(s, _)| *s == stem)
        .map(|(_, text)| *text)
        .unwrap_or_else(|| panic!("workload names unpinned spec {stem:?}"))
}

/// Parses and validates every pinned spec, and checks each file is the
/// canonical rendering of what it parses to (so it reads back exactly as
/// `ctnsim show` would print it). The benchmark refuses to start
/// otherwise.
pub fn check_pinned() -> Result<(), String> {
    for (stem, text) in PINNED {
        let spec = ScenarioSpec::from_toml_str(text)
            .map_err(|e| format!("workloads/{stem}.toml does not parse: {e}"))?;
        spec.validate()
            .map_err(|e| format!("workloads/{stem}.toml is invalid: {e}"))?;
        if spec.name != *stem {
            return Err(format!(
                "workloads/{stem}.toml names its scenario {:?}",
                spec.name
            ));
        }
        if spec.to_toml_string() != *text {
            return Err(format!(
                "workloads/{stem}.toml is not in canonical form; expected:\n{}",
                spec.to_toml_string()
            ));
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every bound is the most the benchmark driver allows. It wants each
/// bound at three times the ten-seed interquartile spread, and on the
/// shared two-core reference box that spread has reached 8–13 % on the
/// timings and 18 % on `peak_rss_mb` (README, "Why the bounds are this
/// wide"). The bounds catch a gross regression; claims use the paired rule.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced pass. Times and counts are
/// what the workload spent or did in that layer, so a workload that never
/// enters a layer reports 0 for it.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats bit-for-bit for a given seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("scenario.spec.parse_us", "us", Lower),
    layer("scenario.spec.validate_us", "us", Lower),
    layer("scenario.calib.hockney_miss_ms", "ms", Lower),
    layer("scenario.calib.hockney_hit_us", "us", Lower),
    layer("scenario.calib.signature_miss_ms", "ms", Lower),
    layer("scenario.calib.cache_hit_rate", "ratio", Higher),
    exact("scenario.executor.cells"),
    layer("scenario.executor.cell_wall_sum_s", "s", Lower),
    layer("scenario.executor.worker_busy_share", "ratio", Higher),
    layer("scenario.executor.overhead_s", "s", Lower),
    layer("scenario.executor.speedup_2w", "ratio", Higher),
    layer("scenario.topology.build_s", "s", Lower),
    layer("scenario.topology.build_share", "ratio", Lower),
    layer("scenario.workload.programs_s", "s", Lower),
    exact("scenario.workload.ops"),
    layer("core.model.predict_us", "us", Lower),
    layer("scenario.report.render_json_us", "us", Lower),
    layer("scenario.report.render_csv_us", "us", Lower),
    exact("scenario.report.bytes"),
    layer("simmpi.world.run_s", "s", Lower),
    exact("simmpi.world.messages"),
    exact("simnet.engine.events"),
    layer("simnet.engine.ns_per_event", "ns", Lower),
    exact("simnet.engine.data_packets"),
    exact("simnet.engine.ack_packets"),
    exact("simnet.engine.drops"),
    exact("simnet.engine.max_queue_depth_bytes"),
    exact("simnet.transport.retransmissions"),
    exact("simnet.transport.timeouts"),
    exact("simnet.transport.fast_retransmits"),
    layer("simmpi.fluid.run_s", "s", Lower),
    layer("simmpi.fluid.self_s", "s", Lower),
    layer("simnet.fluid.solve_s", "s", Lower),
    exact("simnet.fluid.flows"),
    exact("simnet.fluid.recomputes"),
    layer("simnet.fluid.us_per_recompute", "us", Lower),
    layer("simnet.fluid.flows_per_s", "1/s", Higher),
    layer("obs.recorder.recording_ratio", "ratio", Lower),
    layer("scenario.cli.wall_s", "s", Lower),
    layer("ctnd.http.healthz_rtt_ms", "ms", Lower),
    layer("ctnd.client.connect_ms_p50", "ms", Lower),
    layer("ctnd.server.http_requests", "count", Lower),
    layer("ctnd.exec.submit_ms_p50", "ms", Lower),
    layer("ctnd.exec.wait_ms_p50", "ms", Lower),
    layer("ctnd.exec.rejected", "count", Lower),
    layer("ctnd.exec.cache_hit_rate", "ratio", Higher),
    layer("ctnd.registry.fetch_ms_p50", "ms", Lower),
    layer("ctnd.registry.drift", "ratio", Higher),
    layer("ctnd.metrics.render_ms", "ms", Lower),
    layer("ctnd.session.busy_s", "s", Lower),
    layer("ctnd.session.busy_share", "ratio", Higher),
    layer("ctnd.proc.cpu_ms_per_run", "ms", Lower),
    layer("ctnd.proc.idle_cpu_pct", "%", Lower),
    layer("latency_p50_ms", "ms", Lower),
    layer("latency_p90_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("loadgen.cpu_share", "ratio", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_specs_parse_validate_and_are_canonical() {
        check_pinned().unwrap();
    }

    #[test]
    fn every_workload_names_only_pinned_specs() {
        for w in WORKLOADS {
            for stem in w.specs {
                assert!(!spec_text(stem).is_empty(), "{} / {stem}", w.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
