//! The HTTP front end: acceptor, bounded connection pool, router and
//! wire-format parsing.
//!
//! ## API
//!
//! | Method & path              | Purpose                                        |
//! |----------------------------|------------------------------------------------|
//! | `POST /v1/runs`            | Submit a spec (TOML body, or a JSON envelope)  |
//! | `GET /v1/runs/{id}`        | Status + embedded report once done             |
//! | `GET /v1/runs/{id}/report` | The raw report document, byte-exact            |
//! | `GET /v1/runs/{id}/events` | Chunked NDJSON stream of progress events       |
//! | `DELETE /v1/runs/{id}`     | Cancel (mid-run ⇒ partial report)              |
//! | `GET /healthz`             | Liveness (`ok` / `draining`)                   |
//! | `GET /metrics`             | Daemon counters + aggregated session metrics   |
//!
//! A JSON submission is an object with `scenario` (builtin name) *or*
//! `spec_toml` (inline TOML document), plus optional `deadline_ms`,
//! `event_budget`, `sim_horizon_ms`, `seed`, `model` and `backend`. A
//! raw TOML body takes the same options as query parameters. Unknown
//! JSON fields are rejected — admission control starts with the
//! envelope — and so are envelope integers of 2^53 or more, which a JSON
//! number cannot carry exactly (the query string takes the full `u64`
//! range).

use crate::exec::{AdmitError, Executive};
use crate::http::{self, decimal_u64, ChunkedWriter, HttpError, Request, Response};
use crate::registry::Run;
use contention_obs::json::{self, Value};
use contention_scenario::prelude::*;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pending (accepted, unserved) connections beyond this are answered
/// 503 by the acceptor itself.
const CONN_BACKLOG: usize = 128;

/// Per-connection socket timeouts (event streams re-arm on every
/// chunk, so a live stream never trips this).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// The bounded pool of connection-serving threads. Waiting connections
/// are served oldest first, so a client's wait is bounded by the work
/// ahead of it at arrival, not by what arrives after.
#[derive(Debug)]
pub struct ConnPool {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    stop: AtomicBool,
}

impl ConnPool {
    /// A pool with empty backlog.
    pub fn new() -> Arc<Self> {
        Arc::new(ConnPool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
        })
    }

    /// Starts `workers` serving threads.
    pub fn spawn_workers(
        self: &Arc<Self>,
        exec: &Arc<Executive>,
        workers: usize,
    ) -> Vec<JoinHandle<()>> {
        (0..workers)
            .map(|i| {
                let pool = Arc::clone(self);
                let exec = Arc::clone(exec);
                std::thread::Builder::new()
                    .name(format!("ctnd-conn-{i}"))
                    .spawn(move || pool.worker_loop(&exec))
                    .expect("spawn connection worker")
            })
            .collect()
    }

    /// Hands a fresh connection to the pool; answers 503 inline when
    /// the backlog is full.
    pub fn dispatch(&self, stream: TcpStream) {
        let mut queue = self.queue.lock().expect("conn queue lock");
        if queue.len() >= CONN_BACKLOG {
            drop(queue);
            let mut stream = stream;
            let _ = Response::json(
                503,
                "{\"error\": \"connection backlog full\"}\n".to_string(),
            )
            .write_to(&mut stream);
            return;
        }
        queue.push_back(stream);
        drop(queue);
        self.available.notify_one();
    }

    /// Stops the workers once the backlog drains.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// The longest-waiting connection, blocking while the backlog is
    /// empty; `None` once the pool is stopped and drained.
    fn next_connection(&self) -> Option<TcpStream> {
        let mut queue = self.queue.lock().expect("conn queue lock");
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            let (next, _timeout) = self
                .available
                .wait_timeout(queue, Duration::from_millis(200))
                .expect("conn queue lock");
            queue = next;
        }
    }

    fn worker_loop(self: Arc<Self>, exec: &Arc<Executive>) {
        while let Some(stream) = self.next_connection() {
            serve_connection(stream, exec);
        }
    }
}

/// Serves one connection: parse, route, respond, close.
fn serve_connection(mut stream: TcpStream, exec: &Arc<Executive>) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let request = match http::read_request(&mut stream, exec.cfg.max_body_bytes) {
        Ok(req) => req,
        Err(HttpError::BadRequest(detail)) => {
            let _ = Response::json(400, error_body(&detail)).write_to(&mut stream);
            return;
        }
        Err(HttpError::BodyTooLarge) => {
            let _ = Response::json(413, error_body("request body too large")).write_to(&mut stream);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    exec.note_request();
    route(request, &mut stream, exec);
}

/// `{"error": "..."}` with a trailing newline (curl-friendly).
fn error_body(detail: &str) -> String {
    format!("{{\"error\": {}}}\n", json::string(detail))
}

fn route(req: Request, stream: &mut TcpStream, exec: &Arc<Executive>) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let response = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(
            200,
            format!(
                "{{\"status\": \"{}\"}}\n",
                if exec.is_draining() { "draining" } else { "ok" }
            ),
        ),
        ("GET", ["metrics"]) => Response::json(200, exec.metrics_json()),
        ("POST", ["v1", "runs"]) => handle_submit(&req, exec),
        ("GET", ["v1", "runs", id]) => with_run(exec, id, status_response),
        ("GET", ["v1", "runs", id, "report"]) => with_run(exec, id, report_response),
        ("GET", ["v1", "runs", id, "events"]) => {
            // Streaming: takes over the stream, no Response to write.
            match lookup(exec, id) {
                Ok(run) => {
                    stream_events(&run, stream);
                    return;
                }
                Err(resp) => resp,
            }
        }
        ("DELETE", ["v1", "runs", id]) => with_run(exec, id, |run| {
            run.cancel.cancel();
            let phase = run.state().phase;
            Response::json(
                202,
                format!(
                    "{{\"run_id\": \"{}\", \"status\": {}, \"cancelling\": true}}\n",
                    run.id,
                    json::string(phase.name())
                ),
            )
        }),
        (_, ["healthz" | "metrics"]) | (_, ["v1", "runs"]) | (_, ["v1", "runs", ..]) => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("not found")),
    };
    let _ = response.write_to(stream);
}

/// Parses `{id}` and looks the run up; `Err` carries the 400/404.
fn lookup(exec: &Arc<Executive>, id: &str) -> Result<Arc<Run>, Response> {
    let id = decimal_u64(id)
        .ok_or_else(|| Response::json(400, error_body("run id must be a decimal integer")))?;
    exec.registry
        .get(id)
        .ok_or_else(|| Response::json(404, error_body("no such run (completed runs expire)")))
}

fn with_run(exec: &Arc<Executive>, id: &str, f: impl FnOnce(&Run) -> Response) -> Response {
    match lookup(exec, id) {
        Ok(run) => f(&run),
        Err(resp) => resp,
    }
}

/// `GET /v1/runs/{id}` — status envelope, embedding the report (as raw
/// JSON, not a string) once the run is done.
fn status_response(run: &Run) -> Response {
    let st = run.state();
    let mut body = String::from("{");
    body.push_str(&format!("\"run_id\": \"{}\", ", run.id));
    body.push_str(&format!("\"scenario\": {}, ", json::string(&run.spec.name)));
    body.push_str(&format!("\"status\": {}, ", json::string(st.phase.name())));
    body.push_str(&format!("\"events\": {}, ", st.events.len()));
    match &st.outcome {
        None => body.push_str("\"outcome\": null, \"report\": null"),
        Some(outcome) => {
            body.push_str(&format!("\"outcome\": {}, ", json::string(outcome.name())));
            if let crate::registry::RunOutcome::Failed { error } = outcome {
                body.push_str(&format!("\"error\": {}, ", json::string(error)));
            }
            match outcome.report_json() {
                Some(json) => body.push_str(&format!("\"report\": {json}")),
                None => body.push_str("\"report\": null"),
            }
        }
    }
    body.push_str("}\n");
    Response::json(200, body)
}

/// `GET /v1/runs/{id}/report` — the rendered report document, byte-for-
/// byte what `ctnsim run --format json` emits for the same spec, seed,
/// model and limits.
fn report_response(run: &Run) -> Response {
    let st = run.state();
    match &st.outcome {
        None => Response::json(
            409,
            error_body("run not finished (poll /v1/runs/{id} or stream /events)"),
        ),
        Some(outcome) => match outcome.report_json() {
            Some(json) => Response::json(200, json.to_string()),
            None => Response::json(
                409,
                error_body(&format!("run ended {} with no report", outcome.name())),
            ),
        },
    }
}

/// `GET /v1/runs/{id}/events` — replays the progress log, then follows
/// it live until the run completes; chunked so each line is visible as
/// it happens.
fn stream_events(run: &Run, stream: &mut TcpStream) {
    let mut writer = match ChunkedWriter::start(stream, 200, "application/x-ndjson") {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut from = 0usize;
    loop {
        let (lines, closed) = run.wait_events(from);
        for line in &lines {
            let mut framed = line.clone();
            framed.push('\n');
            if writer.chunk(framed.as_bytes()).is_err() {
                return; // subscriber went away
            }
        }
        from += lines.len();
        if closed && lines.is_empty() {
            break;
        }
    }
    let outcome = run
        .state()
        .outcome
        .as_ref()
        .map(|o| o.name())
        .unwrap_or("unknown");
    let _ = writer.chunk(
        format!(
            "{{\"event\": \"run-finished\", \"outcome\": {}}}\n",
            json::string(outcome)
        )
        .as_bytes(),
    );
    let _ = writer.finish();
}

/// `POST /v1/runs` — parse, validate, admit.
fn handle_submit(req: &Request, exec: &Arc<Executive>) -> Response {
    let submission = match parse_submission(req, exec.cfg.base_seed) {
        Ok(s) => s,
        Err(detail) => return Response::json(400, error_body(&detail)),
    };
    match exec.submit(
        submission.spec,
        submission.limits,
        submission.seed,
        submission.model,
    ) {
        Ok((run, depth)) => Response::json(
            202,
            format!(
                "{{\"run_id\": \"{}\", \"status\": \"queued\", \"location\": \
                 \"/v1/runs/{}\", \"queue_depth\": {}}}\n",
                run.id, run.id, depth
            ),
        ),
        Err(AdmitError::QueueFull { depth }) => Response::json(
            429,
            format!("{{\"error\": \"run queue full\", \"queue_depth\": {depth}}}\n"),
        )
        .with_header("Retry-After", "1"),
        Err(AdmitError::Draining) => {
            Response::json(503, error_body("daemon is draining, not admitting runs"))
        }
    }
}

/// A fully parsed, validated submission.
struct Submission {
    spec: ScenarioSpec,
    limits: GuardLimits,
    seed: u64,
    model: ModelKind,
}

/// JSON envelope fields (anything else is rejected).
const JSON_FIELDS: &[&str] = &[
    "scenario",
    "spec_toml",
    "deadline_ms",
    "event_budget",
    "sim_horizon_ms",
    "seed",
    "model",
    "backend",
];

fn parse_submission(req: &Request, default_seed: u64) -> Result<Submission, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    if body.trim().is_empty() {
        return Err("empty body: send a TOML spec or a JSON envelope".to_string());
    }
    let is_json = match req.header("content-type") {
        Some(ct) if ct.to_ascii_lowercase().contains("json") => true,
        Some(ct) if ct.to_ascii_lowercase().contains("toml") => false,
        _ => body.trim_start().starts_with('{'),
    };
    if is_json {
        parse_json_submission(body, default_seed)
    } else {
        parse_toml_submission(body, req, default_seed)
    }
}

fn parse_json_submission(body: &str, default_seed: u64) -> Result<Submission, String> {
    let doc = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    if !matches!(doc, Value::Object(_)) {
        return Err("JSON body must be an object".to_string());
    }
    if let Some(unknown) = doc.keys().iter().find(|k| !JSON_FIELDS.contains(k)) {
        return Err(format!(
            "unknown field {unknown:?} (expected one of {JSON_FIELDS:?})"
        ));
    }
    let mut spec = match (doc.get("scenario"), doc.get("spec_toml")) {
        (Some(_), Some(_)) => {
            return Err("send either \"scenario\" or \"spec_toml\", not both".to_string())
        }
        (Some(name), None) => {
            let name = name
                .as_str()
                .ok_or_else(|| "\"scenario\" must be a string".to_string())?;
            registry::by_name(name).ok_or_else(|| format!("unknown builtin scenario {name:?}"))?
        }
        (None, Some(toml)) => {
            let text = toml
                .as_str()
                .ok_or_else(|| "\"spec_toml\" must be a string".to_string())?;
            ScenarioSpec::from_toml_str(text).map_err(|e| format!("invalid spec: {e}"))?
        }
        (None, None) => {
            return Err("missing \"scenario\" (builtin name) or \"spec_toml\"".to_string())
        }
    };
    if let Some(backend) = doc.get("backend") {
        apply_backend(&mut spec, backend.as_str().unwrap_or_default())?;
    }
    let limits = GuardLimits {
        deadline: field_ms(&doc, "deadline_ms")?,
        event_budget: field_u64(&doc, "event_budget")?,
        sim_horizon: field_ms(&doc, "sim_horizon_ms")?,
    };
    let seed = field_u64(&doc, "seed")?.unwrap_or(default_seed);
    let model = match doc.get("model") {
        None => ModelKind::Med,
        Some(v) => parse_model(v.as_str().unwrap_or_default())?,
    };
    Ok(Submission {
        spec,
        limits,
        seed,
        model,
    })
}

fn parse_toml_submission(
    body: &str,
    req: &Request,
    default_seed: u64,
) -> Result<Submission, String> {
    let mut spec =
        ScenarioSpec::from_toml_str(body).map_err(|e| format!("invalid TOML spec: {e}"))?;
    if let Some(backend) = req.query_param("backend") {
        apply_backend(&mut spec, backend)?;
    }
    let limits = GuardLimits {
        deadline: query_ms(req, "deadline_ms")?,
        event_budget: query_u64(req, "event_budget")?,
        sim_horizon: query_ms(req, "sim_horizon_ms")?,
    };
    let seed = query_u64(req, "seed")?.unwrap_or(default_seed);
    let model = match req.query_param("model") {
        None => ModelKind::Med,
        Some(name) => parse_model(name)?,
    };
    Ok(Submission {
        spec,
        limits,
        seed,
        model,
    })
}

fn apply_backend(spec: &mut ScenarioSpec, name: &str) -> Result<(), String> {
    let backend = Backend::parse(name)
        .ok_or_else(|| format!("unknown backend {name:?} (expected packet or fluid)"))?;
    spec.backend = backend;
    spec.validate()
        .map_err(|e| format!("spec invalid under backend {name:?}: {e}"))
}

fn parse_model(name: &str) -> Result<ModelKind, String> {
    ModelKind::parse(name)
        .ok_or_else(|| format!("unknown model {name:?} (expected med, signature or saturation)"))
}

fn field_u64(doc: &Value, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer below 2^53")),
    }
}

fn field_ms(doc: &Value, key: &str) -> Result<Option<Duration>, String> {
    Ok(field_u64(doc, key)?.map(Duration::from_millis))
}

fn query_u64(req: &Request, key: &str) -> Result<Option<u64>, String> {
    match req.query_param(key) {
        None => Ok(None),
        Some(raw) => decimal_u64(raw)
            .map(Some)
            .ok_or_else(|| format!("query parameter {key:?} must be a non-negative integer")),
    }
}

fn query_ms(req: &Request, key: &str) -> Result<Option<Duration>, String> {
    Ok(query_u64(req, key)?.map(Duration::from_millis))
}

/// The acceptor loop: non-blocking accept so it can poll the stop flag,
/// sweep expired runs while idle, and hand live connections to the
/// pool.
pub fn accept_loop(
    listener: std::net::TcpListener,
    pool: Arc<ConnPool>,
    exec: Arc<Executive>,
    stop: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => pool.dispatch(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                exec.registry.evict_expired();
                // 1ms poll: bounds idle accept latency (three round
                // trips — submit, events, report — pay it each) while
                // keeping the idle loop negligible.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn waiting_connections_are_handed_out_in_arrival_order() {
        // No workers: the three connections wait in the backlog, as they
        // do in production while every worker is held by an event stream.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let pool = ConnPool::new();
        let mut clients = Vec::new();
        for _ in 0..3 {
            let client = TcpStream::connect(addr).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            pool.dispatch(accepted);
            clients.push(client);
        }
        pool.stop();
        for client in &clients {
            let served = pool.next_connection().expect("a waiting connection");
            assert_eq!(
                served.peer_addr().expect("peer address"),
                client.local_addr().expect("client address")
            );
        }
        assert!(pool.next_connection().is_none(), "stopped and drained");
    }
}
