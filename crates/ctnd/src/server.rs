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
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pending (accepted, unserved) connections beyond this are answered
/// 503 by the acceptor itself.
const CONN_BACKLOG: usize = 128;

/// Per-connection socket timeouts: a request has this long to arrive in
/// full, and so has each write (an event stream re-arms on every chunk,
/// so a live stream never trips this).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection worker with nothing to serve waits before it
/// sweeps the registry and looks again.
const IDLE_WAKE: Duration = Duration::from_millis(200);

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
    /// empty and calling `on_idle` each [`IDLE_WAKE`] that passes so;
    /// `None` once the pool is stopped and drained.
    fn wait_connection(&self, on_idle: impl Fn()) -> Option<TcpStream> {
        let mut queue = self.queue.lock().expect("conn queue lock");
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            let (next, wait) = self
                .available
                .wait_timeout(queue, IDLE_WAKE)
                .expect("conn queue lock");
            queue = next;
            if wait.timed_out() {
                drop(queue);
                on_idle();
                queue = self.queue.lock().expect("conn queue lock");
            }
        }
    }

    /// Serves connections oldest first. An idle worker is also what
    /// lets completed runs go when no request comes to do it: submits
    /// and lookups sweep the registry as they pass.
    fn worker_loop(self: Arc<Self>, exec: &Arc<Executive>) {
        while let Some(stream) = self.wait_connection(|| {
            exec.registry.sweep();
        }) {
            serve_connection(stream, exec);
        }
    }
}

/// A connection whose reads share one deadline. A socket read timeout
/// alone re-arms on every `read`, so a peer trickling one byte at a time
/// could hold a connection worker for the timeout times the bytes in a
/// request; here each read gets only what is left of the whole budget.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> Deadlined<'a> {
    fn new(stream: &'a TcpStream, budget: Duration) -> Self {
        Deadlined {
            stream,
            deadline: Instant::now() + budget,
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf).map_err(|e| match e.kind() {
            // How a lapsed socket timeout reads on Unix.
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Serves one connection: parse, route, respond, close.
fn serve_connection(mut stream: TcpStream, exec: &Arc<Executive>) {
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut deadlined = Deadlined::new(&stream, SOCKET_TIMEOUT);
    let request = match http::read_request(&mut deadlined, exec.cfg.max_body_bytes) {
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
    body.push_str(&format!("\"scenario\": {}, ", json::string(&run.scenario)));
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
/// it happens. The head goes out at once, in one write with the lines
/// already logged; after that, every line that is ready goes out in one
/// chunk, and the closing `run-finished` line rides with the last of them
/// and the terminator. A run that has finished is answered in one write.
fn stream_events<W: Write>(run: &Run, stream: W) {
    let Ok(mut writer) = ChunkedWriter::start(stream, 200, "application/x-ndjson") else {
        return;
    };
    let (mut lines, mut closed) = run.events_since(0);
    let mut from = 0usize;
    loop {
        from += lines.len();
        let mut batch = String::new();
        for line in &lines {
            batch.push_str(line);
            batch.push('\n');
        }
        if closed {
            // The outcome is set in the same critical section that
            // closes the log.
            let outcome = run.state().outcome.as_ref().map_or("unknown", |o| o.name());
            batch.push_str(&format!(
                "{{\"event\": \"run-finished\", \"outcome\": {}}}\n",
                json::string(outcome)
            ));
        }
        if writer.chunk(batch.as_bytes()).is_err() {
            return;
        }
        if closed {
            break;
        }
        if writer.send().is_err() {
            return; // subscriber went away
        }
        (lines, closed) = run.wait_events(from);
    }
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

/// The acceptor loop: blocks in `accept` and hands each connection to
/// the pool, so a request waits for a thread wake-up, not for a poll
/// interval, and an idle daemon costs nothing. It sees the stop flag
/// when the next connection arrives, which [`wake_acceptor`] makes sure
/// one does. The only sleep is the back-off after a failed `accept`
/// (out of descriptors, say), which would otherwise spin.
pub fn accept_loop(listener: TcpListener, pool: Arc<ConnPool>, stop: Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => pool.dispatch(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Gets an acceptor whose stop flag was just set out of `accept`, with
/// one connection to its own port — on loopback when the daemon listens
/// on the unspecified address, which is not one to connect to. `false`
/// if that connection could not be made (the acceptor is then still
/// blocked and must not be joined).
pub fn wake_acceptor(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::DaemonConfig;

    impl ConnPool {
        fn next_connection(&self) -> Option<TcpStream> {
            self.wait_connection(|| {})
        }
    }

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

    #[test]
    fn an_evicted_run_answers_the_same_404_whichever_bound_took_it() {
        let finish_one = |exec: &Arc<Executive>| {
            let run = exec.registry.create(
                "gone".to_string(),
                GuardLimits::default(),
                42,
                ModelKind::Med,
            );
            (exec.registry).finish(&run, crate::registry::RunOutcome::Cancelled { json: None });
        };
        let not_found = |exec: &Arc<Executive>| {
            let resp = lookup(exec, "1").expect_err("run 1 is gone");
            assert_eq!(resp.status, 404);
            String::from_utf8(resp.body).unwrap()
        };
        let lapsed = Executive::new(DaemonConfig {
            ttl: Duration::ZERO,
            ..DaemonConfig::default()
        });
        finish_one(&lapsed);
        let crowded_out = Executive::new(DaemonConfig::default());
        for _ in 0..=crate::registry::RETAINED_RUNS_LIMIT {
            finish_one(&crowded_out);
        }
        assert!(lookup(&crowded_out, "2").is_ok());
        assert_eq!(not_found(&crowded_out), not_found(&lapsed));
        assert_eq!(
            not_found(&lapsed),
            "{\"error\": \"no such run (completed runs expire)\"}\n"
        );
    }

    /// A stream that keeps each `write` apart and calls `after` with the
    /// number of writes so far once each has landed.
    struct Writes<F: FnMut(usize)> {
        writes: Vec<Vec<u8>>,
        after: F,
    }

    impl<F: FnMut(usize)> Write for Writes<F> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            (self.after)(self.writes.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const EVENTS_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                               Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";

    fn chunk(data: &str) -> String {
        format!("{:x}\r\n{data}\r\n", data.len())
    }

    #[test]
    fn a_finished_runs_event_stream_is_one_write() {
        let exec = Executive::new(DaemonConfig::default());
        let run = exec.registry.create(
            "done".to_string(),
            GuardLimits::default(),
            42,
            ModelKind::Med,
        );
        run.push_event("{\"event\": \"a\"}".to_string());
        run.push_event("{\"event\": \"b\"}".to_string());
        let outcome = crate::registry::RunOutcome::Ok { json: "{}".into() };
        exec.registry.finish(&run, outcome);
        let mut out = Writes {
            writes: Vec::new(),
            after: |_| {},
        };
        stream_events(&run, &mut out);
        let lines = "{\"event\": \"a\"}\n{\"event\": \"b\"}\n\
                     {\"event\": \"run-finished\", \"outcome\": \"ok\"}\n";
        let expected = format!("{EVENTS_HEAD}{}0\r\n\r\n", chunk(lines));
        assert_eq!(out.writes, [expected.into_bytes()]);
    }

    #[test]
    fn a_live_runs_event_stream_sends_its_last_lines_with_the_terminator() {
        let exec = Executive::new(DaemonConfig::default());
        let run = exec.registry.create(
            "live".to_string(),
            GuardLimits::default(),
            42,
            ModelKind::Med,
        );
        run.push_event("{\"event\": \"a\"}".to_string());
        // The run logs its last line and finishes right after the head
        // went out, while the stream is still live.
        let mut out = Writes {
            writes: Vec::new(),
            after: |writes| {
                if writes == 1 {
                    run.push_event("{\"event\": \"b\"}".to_string());
                    let outcome = crate::registry::RunOutcome::Ok { json: "{}".into() };
                    exec.registry.finish(&run, outcome);
                }
            },
        };
        stream_events(&run, &mut out);
        let head = format!("{EVENTS_HEAD}{}", chunk("{\"event\": \"a\"}\n"));
        let last = format!(
            "{}0\r\n\r\n",
            chunk("{\"event\": \"b\"}\n{\"event\": \"run-finished\", \"outcome\": \"ok\"}\n")
        );
        assert_eq!(out.writes, [head.into_bytes(), last.into_bytes()]);
    }

    #[test]
    fn a_trickling_peer_runs_out_of_request_time_not_just_read_time() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        // A byte every 5 ms never trips a 50 ms *read* timeout; the
        // request as a whole must still be over 50 ms after it began.
        let trickle = std::thread::spawn(move || {
            for byte in b"GET /healthz HTTP/1.1\r\nHost: a-very-patient-peer\r\n"
                .iter()
                .cycle()
            {
                if client.write_all(&[*byte]).is_err() {
                    break; // the server hung up
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let began = Instant::now();
        let mut deadlined = Deadlined::new(&served, Duration::from_millis(50));
        match http::read_request(&mut deadlined, 1024) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a timeout, got {other:?}"),
        }
        let took = began.elapsed();
        assert!(took >= Duration::from_millis(50), "gave up early: {took:?}");
        assert!(took < Duration::from_secs(2), "deadline re-armed: {took:?}");
        drop(served);
        trickle.join().expect("trickling peer");
    }

    #[test]
    fn a_request_inside_its_deadline_is_read_and_answered_through_the_wrapper() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        client
            .write_all(
                b"POST /v1/runs HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
            )
            .unwrap();
        let body = std::thread::spawn(move || {
            let mut interim = [0u8; 25];
            client.read_exact(&mut interim).expect("interim response");
            assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
            client.write_all(b"ok").unwrap();
        });
        let mut deadlined = Deadlined::new(&served, SOCKET_TIMEOUT);
        let request = http::read_request(&mut deadlined, 1024).expect("a whole request");
        assert_eq!(request.body, b"ok");
        body.join().expect("client");
    }
}
