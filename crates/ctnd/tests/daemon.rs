//! End-to-end tests of the daemon over real sockets: concurrent
//! submissions multiplexed onto the bounded worker pool, byte-identity
//! of served reports against the `ctnsim` CLI, admission control
//! (429/503), mid-run cancellation, TTL eviction and `/metrics`.

use contention_obs::json;
use contention_scenario::prelude::{LinkConfig, ScenarioBuilder, SwitchConfig};
use ctnd::client::{request, HttpResponse};
use ctnd::{Daemon, DaemonConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A fast single-cell spec (4-node incast, 16 KiB) on the same fabric
/// as [`SLOW_SPEC`], so one run of either warms the calibration cache
/// for the other.
const TINY_SPEC: &str = r#"
name = "ctnd-smoke"
description = "small single-switch incast for daemon tests"

[sweep]
message_bytes = [16384]
nodes = [4]
reps = 1
warmup = 0

[topology]
hosts = 16
kind = "single-switch"

[topology.link]
bandwidth_bytes_per_sec = 125000000.0
latency_ns = 20000

[topology.switch]
per_port_cap_bytes = 65536
shared_buffer_bytes = 262144

[transport]
kind = "tcp"
window_bytes = 65536

[workload]
kind = "incast"
receivers = 1
"#;

/// A multi-cell spec slow enough (in a debug build) that a DELETE
/// lands while later cells are still pending.
const SLOW_SPEC: &str = r#"
name = "ctnd-slow"
description = "multi-cell incast used to test cancellation and 429s"

[sweep]
message_bytes = [262144, 524288]
nodes = [8, 16]
reps = 2
warmup = 0

[topology]
hosts = 16
kind = "single-switch"

[topology.link]
bandwidth_bytes_per_sec = 125000000.0
latency_ns = 20000

[topology.switch]
per_port_cap_bytes = 65536
shared_buffer_bytes = 262144

[transport]
kind = "tcp"
window_bytes = 65536

[workload]
kind = "incast"
receivers = 1
"#;

fn daemon(cfg: DaemonConfig) -> Daemon {
    Daemon::spawn(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        ..cfg
    })
    .expect("daemon binds an ephemeral port")
}

fn post_toml(addr: SocketAddr, spec: &str, query: &str) -> HttpResponse {
    let path = format!("/v1/runs{query}");
    request(
        addr,
        "POST",
        &path,
        Some("application/toml"),
        spec.as_bytes(),
    )
    .expect("POST /v1/runs")
}

/// Extracts `"run_id": "N"` from a 202 submission response.
fn run_id(resp: &HttpResponse) -> String {
    assert_eq!(resp.status, 202, "submission rejected: {}", resp.body);
    let doc = json::parse(&resp.body).expect("submission response is JSON");
    doc.get("run_id")
        .and_then(|v| v.as_str())
        .expect("run_id present")
        .to_string()
}

/// Polls `GET /v1/runs/{id}` until the outcome is non-null; returns the
/// parsed status document.
fn wait_done(addr: SocketAddr, id: &str) -> json::Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = request(addr, "GET", &format!("/v1/runs/{id}"), None, b"").expect("GET status");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).expect("status response is JSON");
        if doc.get("outcome").is_some_and(|o| o.as_str().is_some()) {
            return doc;
        }
        assert!(Instant::now() < deadline, "run {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn status_field<'a>(doc: &'a json::Value, key: &str) -> &'a str {
    doc.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("status field {key} missing"))
}

/// The `ctnsim` binary, located next to `ctnd` in the target dir (the
/// workspace build produces both; `CARGO_BIN_EXE_*` only covers this
/// package's own binaries).
fn ctnsim_path() -> std::path::PathBuf {
    let mut path = std::path::PathBuf::from(env!("CARGO_BIN_EXE_ctnd"));
    path.set_file_name(format!("ctnsim{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "ctnsim not found at {} — build it first (a workspace `cargo test` does; \
         `cargo test -p ctnd` alone does not build other crates' binaries)",
        path.display()
    );
    path
}

/// The daemon's report bytes must equal `ctnsim run --format json` for
/// the same spec and seed — even when several identical submissions are
/// multiplexed concurrently onto the shared worker pool and cache.
#[test]
fn concurrent_submissions_serve_reports_byte_identical_to_the_cli() {
    let spec_path =
        std::env::temp_dir().join(format!("ctnd-determinism-{}.toml", std::process::id()));
    std::fs::write(&spec_path, TINY_SPEC).expect("write spec file");
    let cli = std::process::Command::new(ctnsim_path())
        .args([
            "run",
            spec_path.to_str().expect("utf-8 temp path"),
            "--seed",
            "42",
            "--workers",
            "2",
            "--format",
            "json",
        ])
        .output()
        .expect("ctnsim spawns");
    let _ = std::fs::remove_file(&spec_path);
    assert!(
        cli.status.success(),
        "ctnsim failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_report = String::from_utf8(cli.stdout).expect("ctnsim emits UTF-8");

    let d = daemon(DaemonConfig {
        run_workers: 2,
        session_workers: 2,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let id = run_id(&post_toml(addr, TINY_SPEC, "?seed=42"));
                    // The events stream blocks until the run finishes —
                    // and exercises chunked streaming along the way.
                    let events = request(addr, "GET", &format!("/v1/runs/{id}/events"), None, b"")
                        .expect("GET events");
                    assert_eq!(events.status, 200);
                    assert!(
                        events.body.contains("\"event\": \"batch-started\""),
                        "{}",
                        events.body
                    );
                    assert!(
                        events.body.contains("\"event\": \"run-finished\""),
                        "{}",
                        events.body
                    );
                    let report = request(addr, "GET", &format!("/v1/runs/{id}/report"), None, b"")
                        .expect("GET report");
                    assert_eq!(report.status, 200, "{}", report.body);
                    report.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for served in &reports {
        assert_eq!(
            served, &cli_report,
            "daemon report differs from ctnsim output"
        );
    }
    d.shutdown();
}

/// With one worker and a queue of one, the third concurrent submission
/// must bounce with 429 and a `Retry-After` hint.
#[test]
fn queue_overflow_answers_429_with_retry_after() {
    let d = daemon(DaemonConfig {
        run_workers: 1,
        session_workers: 1,
        queue_depth: 1,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    let first = run_id(&post_toml(addr, SLOW_SPEC, ""));
    // Wait until the worker has popped it, so the queue is empty again.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = request(addr, "GET", &format!("/v1/runs/{first}"), None, b"").unwrap();
        let doc = json::parse(&resp.body).unwrap();
        if status_field(&doc, "status") != "queued" {
            break;
        }
        assert!(Instant::now() < deadline, "run never left the queue");
        std::thread::sleep(Duration::from_millis(10));
    }
    let second = run_id(&post_toml(addr, TINY_SPEC, ""));
    let third = post_toml(addr, TINY_SPEC, "");
    assert_eq!(third.status, 429, "{}", third.body);
    assert_eq!(third.header("retry-after"), Some("1"));
    assert!(third.body.contains("queue full"), "{}", third.body);
    for id in [first, second] {
        let del = request(addr, "DELETE", &format!("/v1/runs/{id}"), None, b"").unwrap();
        assert_eq!(del.status, 202, "{}", del.body);
    }
    d.shutdown();
}

/// DELETE mid-run cancels via the run's token; the flushed partial
/// report carries `cancelled` status rows for the interrupted cells.
#[test]
fn delete_mid_run_yields_cancelled_outcome_with_partial_report() {
    let d = daemon(DaemonConfig {
        run_workers: 1,
        session_workers: 1,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    // Warm the calibration cache on this fabric so the slow run reaches
    // its first cell quickly (a cancel during calibration is the hard
    // no-report path — legal, but not what this test is about).
    let warm = run_id(&post_toml(addr, TINY_SPEC, ""));
    wait_done(addr, &warm);

    let id = run_id(&post_toml(addr, SLOW_SPEC, ""));
    // Let it get past batch-started, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = request(addr, "GET", &format!("/v1/runs/{id}"), None, b"").unwrap();
        let doc = json::parse(&resp.body).unwrap();
        let events = doc.get("events").and_then(|v| v.as_u64()).unwrap_or(0);
        if events >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "run never emitted an event");
        std::thread::sleep(Duration::from_millis(10));
    }
    let del = request(addr, "DELETE", &format!("/v1/runs/{id}"), None, b"").unwrap();
    assert_eq!(del.status, 202, "{}", del.body);
    assert!(del.body.contains("\"cancelling\": true"), "{}", del.body);

    let doc = wait_done(addr, &id);
    assert_eq!(status_field(&doc, "outcome"), "cancelled");
    // A post-calibration cancel flushes a partial report whose pending
    // cells were synthesized as `cancelled`.
    let report = request(addr, "GET", &format!("/v1/runs/{id}/report"), None, b"").unwrap();
    if report.status == 200 {
        assert!(
            report.body.contains("cancelled"),
            "partial report has no cancelled rows: {}",
            report.body
        );
    } else {
        assert_eq!(report.status, 409, "{}", report.body);
    }
    d.shutdown();
}

/// Draining: health flips, new submissions bounce with 503, existing
/// state stays readable.
#[test]
fn draining_rejects_submissions_but_keeps_serving_reads() {
    let d = daemon(DaemonConfig::default());
    let addr = d.addr();
    let id = run_id(&post_toml(addr, TINY_SPEC, ""));
    wait_done(addr, &id);

    d.begin_drain();
    let health = request(addr, "GET", "/healthz", None, b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"draining\""), "{}", health.body);
    let rejected = post_toml(addr, TINY_SPEC, "");
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    // Completed runs are still readable during the drain window.
    let resp = request(addr, "GET", &format!("/v1/runs/{id}/report"), None, b"").unwrap();
    assert_eq!(resp.status, 200);
    d.shutdown();
}

/// Completed runs expire after the TTL and then 404.
#[test]
fn completed_runs_expire_after_ttl() {
    let d = daemon(DaemonConfig {
        ttl: Duration::from_millis(100),
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    let id = run_id(&post_toml(addr, TINY_SPEC, ""));
    wait_done(addr, &id);
    std::thread::sleep(Duration::from_millis(350));
    let resp = request(addr, "GET", &format!("/v1/runs/{id}"), None, b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("expire"), "{}", resp.body);
    d.shutdown();
}

/// The acceptor blocks in `accept`; shutdown has to get it out, also
/// when the listener is on an address nobody can connect *to*.
#[test]
fn an_idle_daemon_shuts_down_at_once() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let d = Daemon::spawn(DaemonConfig {
            addr: addr.to_string(),
            ..DaemonConfig::default()
        })
        .expect("daemon binds an ephemeral port");
        let began = Instant::now();
        d.shutdown();
        let took = began.elapsed();
        assert!(took < Duration::from_secs(1), "{addr}: {took:?}");
    }
}

/// `/metrics` is strictly valid JSON and shows both the daemon counters
/// and the shared-cache effect of multiplexing identical runs: the
/// second run's calibration hits the cache the first one filled.
#[test]
fn metrics_aggregate_sessions_and_expose_cache_hit_rate() {
    let d = daemon(DaemonConfig {
        run_workers: 2,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    for _ in 0..2 {
        let id = run_id(&post_toml(addr, TINY_SPEC, ""));
        wait_done(addr, &id);
    }
    let resp = request(addr, "GET", "/metrics", None, b"").unwrap();
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.body).expect("/metrics emits strictly valid JSON");
    assert_eq!(
        doc.get("ctnd_metrics_schema_version")
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    let daemon_counters = doc.get("daemon").expect("daemon section");
    assert_eq!(
        daemon_counters.get("runs_ok").and_then(|v| v.as_u64()),
        Some(2),
        "{}",
        resp.body
    );
    let hits = daemon_counters
        .get("cache_hits")
        .and_then(|v| v.as_u64())
        .expect("cache_hits counter");
    assert!(hits > 0, "second identical run should hit the shared cache");
    assert!(
        daemon_counters.get("cache_hit_rate").is_some(),
        "{}",
        resp.body
    );
    let sessions = doc.get("sessions").expect("sessions section");
    assert_eq!(
        sessions
            .get("metrics_schema_version")
            .and_then(|v| v.as_u64()),
        Some(1),
        "aggregated SessionMetrics document keeps its schema: {}",
        resp.body
    );
    // One fabric per run, cache hit or not: builds are counted beside
    // the calibration-cache counters, never in them.
    assert_eq!(
        sessions.get("fabric_builds").and_then(|v| v.as_u64()),
        Some(2),
        "{}",
        resp.body
    );
    assert!(sessions.get("fabric_build_secs").is_some(), "{}", resp.body);
    d.shutdown();
}

/// Protocol edges: unknown paths, wrong methods, malformed bodies and
/// unknown envelope fields all answer with typed JSON errors.
#[test]
fn a_deadlock_during_calibration_fails_the_run_and_spares_the_worker() {
    // The signature fit's sample All-to-Alls run before any cell, outside
    // the per-cell panic isolation: their deadlock has to come back as the
    // run's error, and the one run worker has to survive it.
    // CI's robustness trap: a GM window far beyond an 8 KiB / 16 KiB
    // switch. GM never retransmits, so every contended exchange stalls.
    let trap = ScenarioBuilder::new("gm-finite-buffer-trap")
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
        .build()
        .expect("valid spec")
        .to_toml_string();
    let d = daemon(DaemonConfig {
        run_workers: 1,
        ..DaemonConfig::default()
    });
    let addr = d.addr();
    let id = run_id(&post_toml(addr, &trap, "?model=signature"));
    let doc = wait_done(addr, &id);
    assert_eq!(status_field(&doc, "outcome"), "failed");
    let error = status_field(&doc, "error");
    assert!(
        error.contains("calibration") && error.contains("deadlock"),
        "{error}"
    );

    let id = run_id(&post_toml(addr, TINY_SPEC, ""));
    assert_eq!(status_field(&wait_done(addr, &id), "outcome"), "ok");
    d.shutdown();
}

#[test]
fn protocol_errors_answer_with_typed_json() {
    let d = daemon(DaemonConfig::default());
    let addr = d.addr();

    let resp = request(addr, "GET", "/nope", None, b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = request(addr, "PUT", "/v1/runs", None, b"{}").unwrap();
    assert_eq!(resp.status, 405);
    let resp = request(addr, "GET", "/v1/runs/999", None, b"").unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    for not_an_id in ["not-a-number", "%2B1"] {
        let resp = request(addr, "GET", &format!("/v1/runs/{not_an_id}"), None, b"").unwrap();
        assert_eq!(resp.status, 400, "{not_an_id}: {}", resp.body);
    }
    let resp = post_toml(addr, TINY_SPEC, "?seed=%2B5");
    assert_eq!(resp.status, 400, "{}", resp.body);
    // Parameters no generator accepts are refused at the door, by field
    // name (they used to be queued and then panic the run worker).
    for builtin in ["sparse-star", "mixed-phases-tree"] {
        let shown = contention_scenario::registry::by_name(builtin)
            .expect("registered")
            .to_toml_string();
        let unwired = shown.replace("uplinks_per_leaf = 2", "uplinks_per_leaf = 0");
        assert_ne!(shown, unwired, "{builtin} has two uplinks per leaf");
        let resp = post_toml(addr, &unwired, "");
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body.contains("topology.uplinks_per_leaf"),
            "{}",
            resp.body
        );
    }
    // A fabric too big to index is refused the same way, before any of
    // it is allocated.
    let huge = TINY_SPEC.replace("hosts = 16", "hosts = 100000");
    let resp = post_toml(addr, &huge, "");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("topology.hosts"), "{}", resp.body);
    // A 120 KB nested value used to overflow a connection worker's stack,
    // which aborts the daemon; it is a parse error like any other.
    let deep = format!("a = {}{}", "[".repeat(60_000), "]".repeat(60_000));
    let resp = post_toml(addr, &deep, "");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nest too deep"), "{}", resp.body);

    let resp = request(
        addr,
        "POST",
        "/v1/runs",
        Some("application/json"),
        b"{not json",
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = request(
        addr,
        "POST",
        "/v1/runs",
        Some("application/json"),
        br#"{"scenario": "incast-burst", "frobnicate": 1}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("frobnicate"), "{}", resp.body);
    let resp = request(
        addr,
        "POST",
        "/v1/runs",
        Some("application/json"),
        br#"{"scenario": "no-such-builtin"}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    for (resp, what) in [
        (
            request(addr, "GET", "/v1/runs/1/report", None, b"").unwrap(),
            "report",
        ),
        (
            request(addr, "GET", "/v1/runs/1/events", None, b"").unwrap(),
            "events",
        ),
    ] {
        assert_eq!(
            resp.status, 404,
            "unsubmitted run has no {what}: {}",
            resp.body
        );
    }

    // JSON numbers are exact only below 2^53: an envelope seed beyond that
    // is refused by name, never run as a neighbouring seed. The query
    // string of a TOML body carries the full u64 range.
    for seed in [
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
    ] {
        let body = format!("{{\"scenario\": \"incast-burst\", \"seed\": {seed}}}");
        let resp = request(
            addr,
            "POST",
            "/v1/runs",
            Some("application/json"),
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(resp.status, 400, "seed {seed}: {}", resp.body);
        assert!(resp.body.contains("\\\"seed\\\""), "{}", resp.body);
    }
    let resp = post_toml(addr, TINY_SPEC, "?seed=18446744073709551615");
    let id = run_id(&resp);
    let doc = wait_done(addr, &id);
    assert_eq!(status_field(&doc, "outcome"), "ok");
    let report = request(addr, "GET", &format!("/v1/runs/{id}/report"), None, b"").unwrap();
    let expected_seed = contention_scenario::executor::cell_seed("ctnd-smoke", u64::MAX, 4, 16384);
    assert!(
        report
            .body
            .contains(&format!("\"cell_seed\": {expected_seed}")),
        "{}",
        report.body
    );
    d.shutdown();
}
