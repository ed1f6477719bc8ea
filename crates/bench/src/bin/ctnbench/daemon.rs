//! The daemon side: `ctnd` as a real subprocess, the submit → events →
//! report operation, and the closed-loop load generator.

use crate::catalog::{spec_text, Path, Workload, DAEMON_CLIENTS};
use crate::http::{self, Exchange};
use crate::json::{self, Value};
use crate::spans::SpanLog;
use crate::{inproc, procfs, stats, Layers, Outcome};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path as FsPath, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the two sides of a daemon workload run. Recorded with every
/// result: numbers measured under different placements are not comparable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The scheduler's choice among all allowed CPUs, for both sides.
    #[default]
    Free,
    /// The load generator confined to one CPU and `ctnd` to this other one.
    Split { ctnd: usize },
}

impl Placement {
    pub fn name(self) -> &'static str {
        match self {
            Placement::Free => "free",
            Placement::Split { .. } => "split",
        }
    }
}

/// How daemons are started: the `ctnd` binary and where it runs.
///
/// A workload asks for [`Placement::Split`] (`Workload::split_cpus`) when
/// its operation is so short that a cross-CPU wake-up shows in it. Left to
/// the scheduler, the clients and `ctnd`'s threads either stack on one CPU
/// or spread over two, decided by whatever ran before and kept for the
/// whole window; spread, every request costs cross-CPU wake-ups, which on
/// a virtual machine reads as +22 % latency and +40 % CPU per run on
/// `daemon_small`. Confined, clients never share the daemon's core (as
/// real callers would not) and the generator's CPU is not taken from the
/// daemon. A workload whose run workers need every CPU (`daemon_heavy`)
/// stays [`Placement::Free`]: its generator uses under 1 % of a CPU.
pub struct Launcher {
    ctnd_bin: PathBuf,
    pub placement: Placement,
}

impl Launcher {
    /// For a split workload, confines this process (all threads, and those
    /// it starts later) to the first CPU it is allowed on and plans `ctnd`
    /// on the second. Falls back to [`Placement::Free`], with a warning,
    /// where that is not possible (one allowed CPU, no `taskset`).
    pub fn new(ctnd_bin: PathBuf, w: &Workload) -> Launcher {
        let mut placement = Placement::Free;
        if w.split_cpus {
            if let [loadgen, ctnd, ..] = procfs::allowed_cpus()[..] {
                let confined = Command::new("taskset")
                    .args(["-a", "-cp", &loadgen.to_string()])
                    .arg(std::process::id().to_string())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .is_ok_and(|s| s.success());
                if confined {
                    placement = Placement::Split { ctnd };
                }
            }
            if placement == Placement::Free {
                eprintln!(
                    "ctnbench: warning: cannot give ctnd and the load generator a CPU each \
                     (needs two allowed CPUs and taskset); results are marked placement=free \
                     and do not compare with split ones"
                );
            }
        }
        Launcher {
            ctnd_bin,
            placement,
        }
    }

    /// Everything that makes a daemon workload ready to measure: the
    /// process up, answering `/healthz`, and one warm-up operation behind
    /// it, so the shared calibration cache is filled (the daemon's steady
    /// state).
    pub fn start(&self, w: &Workload, job: &Job) -> Result<Ctnd, String> {
        let daemon = Ctnd::spawn(&self.ctnd_bin, w.workers, self.placement)?;
        let health = http::request(daemon.addr, "GET", "/healthz", None, b"")?;
        if health.response.status != 200 {
            return Err(format!("/healthz answered {}", health.response.status));
        }
        match operation(daemon.addr, job) {
            Ok(_) => Ok(daemon),
            Err(Refusal::Rejected(code)) => Err(format!("warm-up operation was rejected ({code})")),
            Err(Refusal::Failed(e)) => Err(format!("warm-up operation failed: {e}")),
        }
    }
}

/// A running `ctnd` child. Dropping it kills the process, so no error
/// path leaves a daemon behind; [`Ctnd::stop`] is the graceful way out.
pub struct Ctnd {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl Ctnd {
    /// Starts `ctnd` on an ephemeral port and reads the bound address
    /// from its "listening on" line. Every other setting is the shipped
    /// default; in particular reports are retained for the default 600 s,
    /// so the registry grows through the window as it does for any caller.
    fn spawn(bin: &FsPath, session_workers: usize, placement: Placement) -> Result<Ctnd, String> {
        let mut command = match placement {
            Placement::Split { ctnd } => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &ctnd.to_string()]).arg(bin);
                taskset
            }
            Placement::Free => Command::new(bin),
        };
        let mut child = command
            .args(["--addr", "127.0.0.1:0"])
            .args(["--run-workers", &DAEMON_CLIENTS.to_string()])
            .args(["--session-workers", &session_workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("ctnd exited before listening: {}", seen.trim()));
            }
            if let Some(addr) = line
                .split_once("listening on http://")
                .and_then(|(_, rest)| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok())
            {
                break addr;
            }
            seen.push_str(&line);
        };
        Ok(Ctnd {
            child,
            stderr,
            addr,
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// `kill -TERM`, then waits for the drain; anything but exit code 0
    /// within ten seconds is an error.
    pub fn stop(mut self) -> Result<(), String> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !sent.success() {
            return Err(format!("kill -TERM {} failed", self.pid()));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    let mut log = String::new();
                    let _ = self.stderr.read_to_string(&mut log);
                    return Err(format!("ctnd exited with {status}: {}", log.trim()));
                }
                None if Instant::now() >= deadline => {
                    return Err("ctnd did not exit within 10 s of SIGTERM".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Ctnd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What every operation of a daemon workload submits and must get back.
pub struct Job {
    path: String,
    content_type: &'static str,
    body: Vec<u8>,
    /// The in-process `Session` report for the same spec, seed and model.
    pub expected: String,
}

impl Job {
    pub fn new(w: &Workload, seed: u64) -> Result<Job, String> {
        let text = spec_text(w.specs[0]);
        let expected = inproc::operation(w, w.workers, seed)?.report;
        let (path, content_type, body) = match w.path {
            Path::DaemonToml => (
                format!("/v1/runs?seed={seed}"),
                "application/toml",
                text.as_bytes().to_vec(),
            ),
            Path::DaemonJson => (
                "/v1/runs".to_string(),
                "application/json",
                format!(
                    "{{\"spec_toml\": {}, \"seed\": {seed}}}",
                    simnet::obs::json::string(text)
                )
                .into_bytes(),
            ),
            Path::Cli => return Err(format!("{} is not a daemon workload", w.name)),
        };
        Ok(Job {
            path,
            content_type,
            body,
            expected,
        })
    }
}

/// The three exchanges of one completed operation.
pub struct Served {
    submit: Exchange,
    events: Exchange,
    report: Exchange,
}

impl Served {
    pub fn latency_s(&self) -> f64 {
        (self.report.last_byte - self.submit.start).as_secs_f64()
    }
}

/// Why an operation did not complete.
pub enum Refusal {
    /// 429 or 503: admission control turned the submission away.
    Rejected(u16),
    Failed(String),
}

/// One complete user-visible job: `POST /v1/runs` → `GET …/events` until
/// the stream closes → `GET …/report` with the bytes in hand, which must
/// equal the in-process report.
pub fn operation(addr: SocketAddr, job: &Job) -> Result<Served, Refusal> {
    let failed = Refusal::Failed;
    let submit = http::request(addr, "POST", &job.path, Some(job.content_type), &job.body)
        .map_err(failed)?;
    match submit.response.status {
        202 => {}
        code @ (429 | 503) => return Err(Refusal::Rejected(code)),
        code => return Err(failed(format!("POST {} answered {code}", job.path))),
    }
    let run_id = std::str::from_utf8(&submit.response.body)
        .ok()
        .and_then(|body| json::parse(body).ok())
        .and_then(|v| v.get("run_id").and_then(Value::as_str).map(str::to_string))
        .ok_or_else(|| failed("202 body carries no run_id".to_string()))?;
    let events = http::request(addr, "GET", &format!("/v1/runs/{run_id}/events"), None, b"")
        .map_err(failed)?;
    if events.response.status != 200 {
        return Err(failed(format!(
            "GET events answered {}",
            events.response.status
        )));
    }
    let finished_ok = events
        .response
        .body
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
        .filter_map(|line| json::parse(line).ok())
        .any(|e| {
            e.get("event").and_then(Value::as_str) == Some("run-finished")
                && e.get("outcome").and_then(Value::as_str) == Some("ok")
        });
    if !finished_ok {
        return Err(failed(
            "event stream closed without an ok outcome".to_string(),
        ));
    }
    let report = http::request(addr, "GET", &format!("/v1/runs/{run_id}/report"), None, b"")
        .map_err(failed)?;
    if report.response.status != 200 {
        return Err(failed(format!(
            "GET report answered {}",
            report.response.status
        )));
    }
    if report.response.body != job.expected.as_bytes() {
        return Err(failed(
            "daemon report differs from the in-process report".to_string(),
        ));
    }
    Ok(Served {
        submit,
        events,
        report,
    })
}

/// How many equal slices a load window is cut into: `ctnd`'s CPU clock is
/// read at each boundary, and the first and last slice give the drift.
const SLICES: usize = 6;

/// What one load window observed.
pub struct Window {
    pub served: Vec<(usize, Served)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// From the first submission to the last client going idle.
    pub elapsed_s: f64,
    /// Per slice: operations served in it and `ctnd` CPU seconds. An
    /// operation that straddles a boundary counts in each slice by the
    /// share of its duration that falls there.
    slices: Vec<(f64, f64)>,
    /// CPU seconds of this process (the load generator) over the window.
    pub loadgen_cpu_s: f64,
}

impl Window {
    pub fn latencies_s(&self) -> Vec<f64> {
        self.served.iter().map(|(_, s)| s.latency_s()).collect()
    }

    /// Completed operations ÷ window, all clients. A stalled second
    /// counts: that is what a caller's sweep would lose.
    pub fn runs_per_s(&self) -> f64 {
        self.served.len() as f64 / self.elapsed_s
    }

    /// Operations served in the last slice ÷ in the first: 1 when the
    /// daemon serves its ten-thousandth run as fast as its first. `ctnd`
    /// retains every report for its TTL and its acceptor sweeps the whole
    /// registry on each idle millisecond, so today this falls with every
    /// run served.
    pub fn drift(&self) -> Option<f64> {
        let (first, last) = (self.slices.first()?.0, self.slices.last()?.0);
        (first > 0.0).then(|| last / first)
    }

    /// `ctnd` CPU seconds over the window ÷ operations completed in it.
    /// Cost per run rises through the window (see [`Window::drift`]), so a
    /// middle slice would stand for no run in particular; the window's
    /// total is what the caller's sweep cost the host.
    pub fn daemon_cpu_s_per_run(&self) -> Option<f64> {
        let done: f64 = self.slices.iter().map(|s| s.0).sum();
        let cpu: f64 = self.slices.iter().map(|s| s.1).sum();
        (done > 0.0).then(|| cpu / done)
    }
}

/// Closed loop: each of [`DAEMON_CLIENTS`] clients submits its next run
/// only after it holds the previous report (callers are sweep scripts
/// that wait for their answer). No new operation starts after `seconds`.
pub fn load(daemon: &Ctnd, job: &Job, seconds: f64) -> Result<Window, String> {
    let pid = daemon.pid();
    let loadgen_cpu_before = procfs::cpu_secs("self")?;
    let slice_s = seconds / SLICES as f64;
    let start = Instant::now();
    let (per_client, cpu_marks) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..DAEMON_CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut refused = Vec::new();
                    let mut first = true;
                    while first || start.elapsed().as_secs_f64() < seconds {
                        first = false;
                        match operation(daemon.addr, job) {
                            Ok(s) => served.push((client + 1, s)),
                            Err(r) => refused.push(r),
                        }
                    }
                    (served, refused)
                })
            })
            .collect();
        // This thread reads the daemon's CPU clock at every slice boundary.
        let cpu_marks: Result<Vec<f64>, String> = (0..=SLICES)
            .map(|i| {
                let due = start + Duration::from_secs_f64(slice_s * i as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                procfs::cpu_secs(&pid)
            })
            .collect();
        let per_client: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (per_client, cpu_marks)
    });
    let cpu_marks = cpu_marks?;
    let mut window = Window {
        served: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        elapsed_s: start.elapsed().as_secs_f64(),
        slices: cpu_marks.windows(2).map(|w| (0.0, w[1] - w[0])).collect(),
        loadgen_cpu_s: procfs::cpu_secs("self")? - loadgen_cpu_before,
    };
    for (served, refused) in per_client {
        window.attempted += (served.len() + refused.len()) as u64;
        for (_, s) in &served {
            attribute(
                &mut window.slices,
                slice_s,
                (s.submit.start - start).as_secs_f64(),
                (s.report.last_byte - start).as_secs_f64(),
            );
        }
        window.served.extend(served);
        window.failures.extend(refused.into_iter().map(|r| match r {
            Refusal::Rejected(code) => format!("submission rejected ({code})"),
            Refusal::Failed(e) => e,
        }));
    }
    Ok(window)
}

/// Counts one operation lasting from `began` to `ended` (seconds into the
/// window) in every slice it overlaps, by the share of its duration that
/// falls there. What runs past the last slice counts nowhere.
fn attribute(slices: &mut [(f64, f64)], slice_s: f64, began: f64, ended: f64) {
    for (i, slice) in slices.iter_mut().enumerate() {
        let overlap = ended.min(slice_s * (i + 1) as f64) - began.max(slice_s * i as f64);
        if overlap > 0.0 {
            slice.0 += overlap / (ended - began);
        }
    }
}

fn absorb(out: &mut Outcome, window: &Window) {
    out.attempted += window.attempted;
    for f in &window.failures {
        out.fail(f);
    }
}

/// Stops the daemon and counts a bad exit as one more failed check.
fn stop_checked(daemon: Ctnd, out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = daemon.stop() {
        out.fail(&e);
    }
}

/// The end-to-end metrics of a daemon workload over one load window.
pub fn end_to_end(daemon: Ctnd, job: &Job, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let window = load(&daemon, job, seconds)?;
    absorb(&mut out, &window);
    let peak_rss = procfs::peak_rss_mb(&daemon.pid())?;
    stop_checked(daemon, &mut out);
    let latencies = window.latencies_s();
    if latencies.is_empty() {
        return Err(format!(
            "no operation succeeded: {}",
            out.failures.join("; ")
        ));
    }
    out.report_digest = Some(inproc::digest(job.expected.as_bytes()));
    out.samples = latencies.len();
    out.push("wall_s", stats::median(&latencies));
    out.push(
        "cpu_s",
        window
            .daemon_cpu_s_per_run()
            .ok_or("no operation completed inside the window")?,
    );
    out.push("peak_rss_mb", peak_rss);
    out.push("runs_per_s", window.runs_per_s());
    Ok(out)
}

fn metrics_doc(daemon: &Ctnd) -> Result<(Value, Exchange), String> {
    let exchange = http::request(daemon.addr, "GET", "/metrics", None, b"")?;
    if exchange.response.status != 200 {
        return Err(format!("/metrics answered {}", exchange.response.status));
    }
    let doc = std::str::from_utf8(&exchange.response.body)
        .map_err(|_| "/metrics is not UTF-8".to_string())
        .and_then(json::parse)?;
    Ok((doc, exchange))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

/// The traced pass of a daemon workload: idle cost, `/healthz` round
/// trips, an untraced window, then a window whose every exchange is kept
/// as client-side spans, bracketed by `/metrics` and `/proc` readings.
/// Each window gets a freshly started daemon, so both start from the same
/// registry and cache state.
pub fn traced(
    launcher: &Launcher,
    w: &Workload,
    job: &Job,
    seconds: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    out.placement = launcher.placement;
    let daemon = launcher.start(w, job)?;
    let pid = daemon.pid();

    const IDLE_SECS: f64 = 2.0;
    let idle_before = procfs::cpu_secs(&pid)?;
    std::thread::sleep(Duration::from_secs_f64(IDLE_SECS.min(seconds)));
    let idle_cpu = procfs::cpu_secs(&pid)? - idle_before;
    layers.set(
        "ctnd.proc.idle_cpu_pct",
        100.0 * idle_cpu / IDLE_SECS.min(seconds),
    );

    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let x = http::request(daemon.addr, "GET", "/healthz", None, b"")?;
        rtts.push(ms(x.last_byte - x.start));
    }
    layers.set("ctnd.http.healthz_rtt_ms", stats::median(&rtts));

    let window_s = ((seconds - IDLE_SECS) / 2.0).max(1.0);
    let plain = load(&daemon, job, window_s)?;
    absorb(out, &plain);
    stop_checked(daemon, out);
    let plain_latencies = plain.latencies_s();

    let daemon = launcher.start(w, job)?;
    let (before, _) = metrics_doc(&daemon)?;
    let traced = load(&daemon, job, window_s)?;
    let (after, metrics_exchange) = metrics_doc(&daemon)?;
    absorb(out, &traced);
    stop_checked(daemon, out);
    if plain_latencies.is_empty() || traced.served.is_empty() {
        return Err(format!(
            "no operation succeeded: {}",
            out.failures.join("; ")
        ));
    }

    for (client, served) in &traced.served {
        let track = *client as u64;
        let op = log.record(
            "operation",
            None,
            track,
            served.submit.start,
            served.report.last_byte,
        );
        for (name, x) in [
            ("ctnd.exec.submit", &served.submit),
            ("ctnd.exec.wait", &served.events),
            ("ctnd.registry.fetch", &served.report),
        ] {
            let request = log.record(name, Some(op), track, x.start, x.last_byte);
            log.record(
                "ctnd.client.connect",
                Some(request),
                track,
                x.start,
                x.connected,
            );
            log.record(
                "ctnd.client.write",
                Some(request),
                track,
                x.connected,
                x.written,
            );
            log.record(
                "ctnd.client.first_byte",
                Some(request),
                track,
                x.written,
                x.first_byte,
            );
            log.record(
                "ctnd.client.body",
                Some(request),
                track,
                x.first_byte,
                x.last_byte,
            );
        }
    }

    let runs = traced.served.len() as f64;
    let delta = |path: &[&str]| -> f64 {
        after.number_at(path).unwrap_or(0.0) - before.number_at(path).unwrap_or(0.0)
    };
    let exchanges = || {
        traced
            .served
            .iter()
            .flat_map(|(_, s)| [&s.submit, &s.events, &s.report])
    };
    layers.set(
        "ctnd.client.connect_ms_p50",
        p50(exchanges().map(|x| ms(x.connected - x.start))),
    );
    // Between the two readings the daemon also served one `/metrics`.
    layers.set(
        "ctnd.server.http_requests",
        (delta(&["daemon", "http_requests"]) - 1.0) / runs,
    );
    layers.set(
        "ctnd.exec.submit_ms_p50",
        p50(traced
            .served
            .iter()
            .map(|(_, s)| ms(s.submit.last_byte - s.submit.start))),
    );
    layers.set(
        "ctnd.exec.wait_ms_p50",
        p50(traced
            .served
            .iter()
            .map(|(_, s)| ms(s.events.last_byte - s.submit.last_byte))),
    );
    layers.set(
        "ctnd.exec.rejected",
        delta(&["daemon", "rejected_queue_full"]) + delta(&["daemon", "rejected_draining"]),
    );
    let hits = delta(&["daemon", "cache_hits"]);
    let lookups = hits + delta(&["daemon", "cache_misses"]);
    layers.set(
        "ctnd.exec.cache_hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    layers.set(
        "ctnd.registry.fetch_ms_p50",
        p50(traced
            .served
            .iter()
            .map(|(_, s)| ms(s.report.last_byte - s.events.last_byte))),
    );
    layers.set("ctnd.registry.drift", traced.drift().unwrap_or(0.0));
    layers.set(
        "ctnd.metrics.render_ms",
        ms(metrics_exchange.last_byte - metrics_exchange.start),
    );
    let busy_s = delta(&["sessions", "wall_secs"]);
    layers.set("ctnd.session.busy_s", busy_s);
    layers.set(
        "ctnd.session.busy_share",
        busy_s / (traced.elapsed_s * DAEMON_CLIENTS as f64),
    );
    layers.set(
        "ctnd.proc.cpu_ms_per_run",
        1e3 * traced.daemon_cpu_s_per_run().unwrap_or(0.0),
    );
    layers.set("latency_p50_ms", 1e3 * stats::median(&plain_latencies));
    layers.set(
        "latency_p90_ms",
        stats::percentile(&plain_latencies, 0.90).map_or(0.0, |p| 1e3 * p),
    );
    layers.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced.latencies_s()) / stats::median(&plain_latencies) - 1.0),
    );
    layers.set("loadgen.cpu_share", plain.loadgen_cpu_s / plain.elapsed_s);
    out.samples = plain_latencies.len();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_count_in_slices_by_share_of_duration() {
        let mut slices = vec![(0.0, 0.0); 3];
        attribute(&mut slices, 1.0, 0.25, 0.75);
        assert_eq!(slices[0].0, 1.0, "inside one slice");
        attribute(&mut slices, 1.0, 0.5, 2.5);
        assert_eq!(
            slices.iter().map(|s| s.0).collect::<Vec<_>>(),
            [1.25, 0.5, 0.25],
            "a straddling operation is split"
        );
        attribute(&mut slices, 1.0, 2.5, 4.5);
        assert_eq!(slices[2].0, 0.5, "the part past the window is dropped");
        attribute(&mut slices, 1.0, 3.5, 4.0);
        assert_eq!(
            slices[2].0, 0.5,
            "an operation wholly past it counts nowhere"
        );
    }
}
