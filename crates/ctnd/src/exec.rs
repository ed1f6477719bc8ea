//! The multiplexing executive: admission control, the session worker
//! pool, and cross-run metrics aggregation.
//!
//! Concurrent HTTP submissions land in one bounded queue; `N` session
//! workers pop runs and execute each in a **fresh**
//! [`Session`](contention_scenario::prelude::Session) — fresh because a
//! `CancelToken` is one-shot (a cancelled session stays cancelled), but
//! all sharing a single [`CalibrationCache`], so a fabric calibrated
//! once is never refitted no matter which worker serves the next run on
//! it. Per-run [`GuardLimits`] keep a hostile spec from wedging a
//! worker; the report stays byte-identical to a direct `ctnsim run` of
//! the same spec because limits, seed and model are the only knobs a
//! request can turn and each is part of the determinism contract's key.

use crate::registry::{Run, RunOutcome, RunRegistry, RETAINED_RUNS_LIMIT};
use contention_obs::CounterSet;
use contention_scenario::prelude::*;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cells retained in the aggregated metrics document. Every completed
/// run appends its per-cell telemetry; a long-lived daemon keeps the
/// most recent window and counts what it dropped (`agg_cells_dropped`
/// in `/metrics`), so truncation is never silent.
const AGG_CELLS_LIMIT: usize = 512;

/// Daemon configuration — every admission-control and execution knob.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (port 0 binds ephemeral).
    pub addr: String,
    /// Session workers executing runs in parallel.
    pub run_workers: usize,
    /// Workers *inside* each run's session: the run worker's own thread
    /// plus `session_workers − 1` helpers, spawned only for runs with
    /// more than one cell (reports are byte-identical for any value).
    pub session_workers: usize,
    /// Queued-run ceiling; submissions beyond it are answered 429.
    pub queue_depth: usize,
    /// How long completed runs (and their reports) stay queryable.
    pub ttl: Duration,
    /// Base seed when a request does not send one.
    pub base_seed: u64,
    /// Wall-clock deadline applied when a request sends none. `None`
    /// (the default) leaves such runs unlimited, which keeps their
    /// reports byte-identical to `ctnsim run` defaults.
    pub default_deadline: Option<Duration>,
    /// Request-body cap in bytes.
    pub max_body_bytes: usize,
    /// Threads serving HTTP connections (an event-stream subscriber
    /// occupies one for its run's whole lifetime).
    pub conn_workers: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:7411".to_string(),
            run_workers: 2,
            session_workers: 2,
            queue_depth: 16,
            ttl: Duration::from_secs(600),
            base_seed: 42,
            default_deadline: None,
            max_body_bytes: 1 << 20,
            conn_workers: 8,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The run queue is at `queue_depth`: answer 429 + `Retry-After`.
    QueueFull {
        /// Queued runs at rejection time.
        depth: usize,
    },
    /// The daemon is draining: answer 503.
    Draining,
}

/// Lifetime counters, all monotonic (mirrored into `/metrics`).
#[derive(Debug, Default)]
struct Counters {
    http_requests: AtomicU64,
    runs_submitted: AtomicU64,
    runs_admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_draining: AtomicU64,
    runs_ok: AtomicU64,
    runs_partial: AtomicU64,
    runs_cancelled: AtomicU64,
    runs_failed: AtomicU64,
    agg_cells_dropped: AtomicU64,
}

/// The shared core of the daemon (HTTP handlers and workers both hold
/// an `Arc` of it).
#[derive(Debug)]
pub struct Executive {
    /// The daemon's configuration.
    pub cfg: DaemonConfig,
    /// Every submitted run.
    pub registry: RunRegistry,
    /// Admitted runs, each with the spec its worker will execute and
    /// drop: the spec is not part of what the registry retains.
    queue: Mutex<VecDeque<(Arc<Run>, ScenarioSpec)>>,
    queue_cv: Condvar,
    cache: Arc<CalibrationCache>,
    draining: AtomicBool,
    counters: Counters,
    agg: Mutex<SessionMetrics>,
    running: AtomicU64,
    started: Instant,
}

impl Executive {
    /// A fresh executive (no workers yet — [`Executive::spawn_workers`]).
    pub fn new(cfg: DaemonConfig) -> Arc<Self> {
        Arc::new(Executive {
            registry: RunRegistry::new(cfg.ttl),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cache: Arc::new(CalibrationCache::new()),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            agg: Mutex::new(SessionMetrics::default()),
            running: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// The shared calibration cache.
    pub fn cache(&self) -> Arc<CalibrationCache> {
        Arc::clone(&self.cache)
    }

    /// True once draining began.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Counts one HTTP request (any endpoint).
    pub fn note_request(&self) {
        self.counters.http_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control: registers and enqueues a run, or rejects it.
    pub fn submit(
        self: &Arc<Self>,
        spec: ScenarioSpec,
        limits: GuardLimits,
        seed: u64,
        model: ModelKind,
    ) -> Result<(Arc<Run>, usize), AdmitError> {
        self.counters.runs_submitted.fetch_add(1, Ordering::Relaxed);
        if self.is_draining() {
            self.counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Draining);
        }
        let mut limits = limits;
        if limits.deadline.is_none() {
            limits.deadline = self.cfg.default_deadline;
        }
        let mut queue = self.queue.lock().expect("run queue lock");
        if queue.len() >= self.cfg.queue_depth {
            self.counters
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::QueueFull { depth: queue.len() });
        }
        let run = self.registry.create(spec.name.clone(), limits, seed, model);
        queue.push_back((Arc::clone(&run), spec));
        let depth = queue.len();
        drop(queue);
        self.counters.runs_admitted.fetch_add(1, Ordering::Relaxed);
        self.queue_cv.notify_one();
        Ok((run, depth))
    }

    /// Starts the session worker pool.
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.cfg.run_workers)
            .map(|i| {
                let exec = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("ctnd-run-{i}"))
                    .spawn(move || exec.worker_loop())
                    .expect("spawn run worker")
            })
            .collect()
    }

    /// Stops admitting, cancels every queued and in-flight run (the
    /// registry never evicts either, so it knows them all), and wakes
    /// the workers so they drain the queue (each cancelled run still
    /// flushes its partial report through the normal completion path).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        for run in self.registry.all() {
            run.cancel.cancel();
        }
        self.queue_cv.notify_all();
    }

    /// Worker body: pop → execute, until draining *and* the queue is
    /// empty.
    fn worker_loop(self: Arc<Self>) {
        loop {
            let (run, spec) = {
                let mut queue = self.queue.lock().expect("run queue lock");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.is_draining() {
                        return;
                    }
                    let (next, _timeout) = self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(200))
                        .expect("run queue lock");
                    queue = next;
                }
            };
            self.running.fetch_add(1, Ordering::Relaxed);
            self.isolated(&run, |run| self.execute(run, &spec));
            self.running.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Runs `body` on `run` inside a panic boundary. A session isolates
    /// panics per cell, but calibration and the first fabric build run
    /// outside that, and a run worker that unwinds is lost for good with
    /// its run stranded as `running` (at `--run-workers 1` every later run
    /// stays `queued`). A panic here finishes the run as `failed` with the
    /// panic message instead, and the worker keeps looping.
    fn isolated(&self, run: &Run, body: impl FnOnce(&Run)) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(run))) {
            let message = (payload.downcast_ref::<&str>().copied())
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            self.counters.runs_failed.fetch_add(1, Ordering::Relaxed);
            self.registry.finish(
                run,
                RunOutcome::Failed {
                    error: format!("run worker panicked: {message}"),
                },
            );
        }
    }

    /// Executes one run in a fresh session sharing the daemon cache.
    fn execute(&self, run: &Run, spec: &ScenarioSpec) {
        run.mark_running();
        let session = Session::builder()
            .workers(self.cfg.session_workers)
            .base_seed(run.seed)
            .model(run.model)
            .shared_cache(self.cache())
            .cancel_token(run.cancel.clone())
            .limits(run.limits)
            .build();
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                self.counters.runs_failed.fetch_add(1, Ordering::Relaxed);
                self.registry.finish(
                    run,
                    RunOutcome::Failed {
                        error: e.to_string(),
                    },
                );
                return;
            }
        };

        let mut observer = |event: RunEvent<'_>| {
            run.push_event(event_line(&event));
        };
        let result = session.run_with(spec, &mut observer);

        if let Some(metrics) = session.metrics() {
            let mut agg = self.agg.lock().expect("metrics aggregate lock");
            agg.merge(&metrics);
            if agg.cells.len() > AGG_CELLS_LIMIT {
                let drop = agg.cells.len() - AGG_CELLS_LIMIT;
                agg.cells.drain(..drop);
                self.counters
                    .agg_cells_dropped
                    .fetch_add(drop as u64, Ordering::Relaxed);
            }
        }

        let outcome = match result {
            Ok(report) => {
                let json = report.render(ReportFormat::Json);
                if run.cancel.is_cancelled() {
                    self.counters.runs_cancelled.fetch_add(1, Ordering::Relaxed);
                    RunOutcome::Cancelled { json: Some(json) }
                } else if report.has_failures() {
                    self.counters.runs_partial.fetch_add(1, Ordering::Relaxed);
                    RunOutcome::Partial { json }
                } else {
                    self.counters.runs_ok.fetch_add(1, Ordering::Relaxed);
                    RunOutcome::Ok { json }
                }
            }
            Err(CtnError::Cancelled) => {
                self.counters.runs_cancelled.fetch_add(1, Ordering::Relaxed);
                RunOutcome::Cancelled { json: None }
            }
            Err(e) => {
                self.counters.runs_failed.fetch_add(1, Ordering::Relaxed);
                RunOutcome::Failed {
                    error: e.to_string(),
                }
            }
        };
        self.registry.finish(run, outcome);
    }

    /// The `/metrics` document: daemon counters, lifetime cache
    /// counters of the shared calibration cache, and the aggregated
    /// per-session metrics (schema 1 documents merged with
    /// `SessionMetrics::merge`).
    pub fn metrics_json(&self) -> String {
        let queue_len = self.queue.lock().expect("run queue lock").len();
        let cache = self.cache.stats();
        let mut daemon = CounterSet::new();
        daemon.gauge("uptime_secs", self.started.elapsed().as_secs_f64());
        daemon.flag("draining", self.is_draining());
        daemon.count("queue_depth", queue_len as u64);
        daemon.count("queue_capacity", self.cfg.queue_depth as u64);
        daemon.count("runs_active", self.running.load(Ordering::Relaxed));
        let registry = self.registry.stats();
        daemon.count("runs_registered", registry.registered as u64);
        daemon.count("runs_retained_limit", RETAINED_RUNS_LIMIT as u64);
        daemon.count("runs_evicted_ttl", registry.evicted_ttl);
        daemon.count("runs_evicted_capacity", registry.evicted_capacity);
        let c = &self.counters;
        daemon.count("http_requests", c.http_requests.load(Ordering::Relaxed));
        daemon.count("runs_submitted", c.runs_submitted.load(Ordering::Relaxed));
        daemon.count("runs_admitted", c.runs_admitted.load(Ordering::Relaxed));
        daemon.count(
            "rejected_queue_full",
            c.rejected_queue_full.load(Ordering::Relaxed),
        );
        daemon.count(
            "rejected_draining",
            c.rejected_draining.load(Ordering::Relaxed),
        );
        daemon.count("runs_ok", c.runs_ok.load(Ordering::Relaxed));
        daemon.count("runs_partial", c.runs_partial.load(Ordering::Relaxed));
        daemon.count("runs_cancelled", c.runs_cancelled.load(Ordering::Relaxed));
        daemon.count("runs_failed", c.runs_failed.load(Ordering::Relaxed));
        daemon.count(
            "agg_cells_dropped",
            c.agg_cells_dropped.load(Ordering::Relaxed),
        );
        daemon.count("cache_hits", cache.hits);
        daemon.count("cache_misses", cache.misses);
        daemon.count("cache_inserts", cache.inserts);
        daemon.gauge("cache_hit_rate", cache.hit_rate());

        let sessions = self
            .agg
            .lock()
            .expect("metrics aggregate lock")
            .render_json();
        format!(
            "{{\n\"ctnd_metrics_schema_version\": 1,\n\"daemon\": {},\n\"sessions\": {}}}\n",
            daemon.render_json(),
            sessions
        )
    }
}

/// Renders one streaming progress line (NDJSON — one object per line).
fn event_line(event: &RunEvent<'_>) -> String {
    use contention_obs::json;
    match event {
        RunEvent::BatchStarted { scenario, cells } => format!(
            "{{\"event\": \"batch-started\", \"scenario\": {}, \"cells\": {}}}",
            json::string(scenario),
            cells
        ),
        RunEvent::CellFinished {
            scenario,
            cell,
            completed,
            total,
            ..
        } => format!(
            "{{\"event\": \"cell-finished\", \"scenario\": {}, \"n\": {}, \"message_bytes\": {}, \
             \"status\": {}, \"completed\": {}, \"total\": {}}}",
            json::string(scenario),
            cell.n,
            cell.message_bytes,
            json::string(cell.status.name()),
            completed,
            total
        ),
        RunEvent::BatchFinished { scenario, batch } => format!(
            "{{\"event\": \"batch-finished\", \"scenario\": {}, \"cells\": {}}}",
            json::string(scenario),
            batch.cells.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(name: &str) -> ScenarioSpec {
        ScenarioBuilder::new(name)
            .single_switch(
                2,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .uniform(AllToAllAlgorithm::DirectExchange)
            .nodes([2])
            .message_bytes([1024])
            .build()
            .expect("valid spec")
    }

    fn test_cfg() -> DaemonConfig {
        DaemonConfig {
            run_workers: 1,
            session_workers: 1,
            queue_depth: 2,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn admission_rejects_beyond_queue_depth_and_when_draining() {
        // No workers: everything submitted stays queued.
        let exec = Executive::new(test_cfg());
        let defaults = (GuardLimits::default(), 42, ModelKind::Med);
        for i in 0..2 {
            let (run, depth) = exec
                .submit(tiny_spec("q"), defaults.0, defaults.1, defaults.2)
                .expect("admitted");
            assert_eq!(run.id, i + 1);
            assert_eq!(depth, i as usize + 1);
        }
        assert_eq!(
            exec.submit(tiny_spec("q"), defaults.0, defaults.1, defaults.2)
                .err(),
            Some(AdmitError::QueueFull { depth: 2 })
        );
        exec.begin_drain();
        assert_eq!(
            exec.submit(tiny_spec("q"), defaults.0, defaults.1, defaults.2)
                .err(),
            Some(AdmitError::Draining)
        );
        let doc = exec.metrics_json();
        assert!(doc.contains("\"rejected_queue_full\": 1"));
        assert!(doc.contains("\"rejected_draining\": 1"));
        assert!(doc.contains("\"draining\": true"));
    }

    #[test]
    fn workers_execute_queued_runs_and_aggregate_metrics() {
        let exec = Executive::new(test_cfg());
        let workers = exec.spawn_workers();
        let (run_a, _) = exec
            .submit(
                tiny_spec("exec-a"),
                GuardLimits::default(),
                42,
                ModelKind::Med,
            )
            .expect("admitted");
        let (run_b, _) = exec
            .submit(
                tiny_spec("exec-a"),
                GuardLimits::default(),
                42,
                ModelKind::Med,
            )
            .expect("admitted");
        let out_a = run_a.wait_done();
        let out_b = run_b.wait_done();
        assert_eq!(out_a.name(), "ok");
        // Identical spec+seed ⇒ byte-identical reports through the
        // daemon path.
        assert_eq!(out_a.report_json(), out_b.report_json());
        // The second run's calibration must have hit the shared cache.
        assert!(exec.cache().stats().hits > 0, "no cache sharing");
        {
            let st = run_a.state();
            assert!(st.events_closed);
            assert!(
                st.events.iter().any(|l| l.contains("cell-finished")),
                "missing progress lines: {:?}",
                st.events
            );
        }
        let doc = exec.metrics_json();
        assert!(doc.contains("\"runs_ok\": 2"), "metrics: {doc}");
        assert!(doc.contains("\"metrics_schema_version\": 1"));
        exec.begin_drain();
        for w in workers {
            w.join().expect("worker joins");
        }
    }

    #[test]
    fn a_panicking_run_fails_and_its_worker_serves_the_next_run() {
        let exec = Executive::new(test_cfg());
        let submit = |name: &str| {
            exec.submit(tiny_spec(name), GuardLimits::default(), 42, ModelKind::Med)
                .expect("admitted")
                .0
        };
        // Take the doomed run off the queue the way a worker would, and
        // give it a body that panics the way an unforeseen bug in
        // calibration or a fabric build would.
        let doomed = submit("doomed");
        exec.queue.lock().unwrap().pop_front();
        exec.isolated(&doomed, |run| {
            run.mark_running();
            panic!("boom in calibration");
        });
        match doomed.wait_done() {
            RunOutcome::Failed { error } => assert!(error.contains("panicked: boom"), "{error}"),
            other => panic!("expected a failed run, got {}", other.name()),
        }
        assert!(doomed.state().events_closed);
        assert!(exec.metrics_json().contains("\"runs_failed\": 1"));
        // `isolated` returned instead of unwinding — what keeps the loop
        // around it alive — so the executive's one worker serves the next run.
        let workers = exec.spawn_workers();
        assert_eq!(submit("healthy").wait_done().name(), "ok");
        exec.begin_drain();
        for w in workers {
            w.join().expect("worker joins");
        }
    }

    /// The `daemon` section of `/metrics`, by counter name.
    fn daemon_counter(exec: &Executive, name: &str) -> u64 {
        let doc = contention_obs::json::parse(&exec.metrics_json()).expect("valid JSON");
        let section = doc.get("daemon").expect("daemon section");
        (section.get(name).and_then(|v| v.as_u64())).unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn retention_counters_account_for_every_admitted_run() {
        let accounted = |exec: &Executive| {
            assert_eq!(
                daemon_counter(exec, "runs_admitted")
                    - daemon_counter(exec, "runs_evicted_ttl")
                    - daemon_counter(exec, "runs_evicted_capacity"),
                daemon_counter(exec, "runs_registered")
            );
        };
        let over = 4;
        let admit_and_finish = |ttl: Duration| {
            // No workers: this test is the one taking runs off the queue.
            let exec = Executive::new(DaemonConfig {
                ttl,
                queue_depth: RETAINED_RUNS_LIMIT + over,
                ..test_cfg()
            });
            for _ in 0..RETAINED_RUNS_LIMIT + over {
                exec.submit(tiny_spec("r"), GuardLimits::default(), 42, ModelKind::Med)
                    .expect("admitted");
            }
            accounted(&exec);
            let admitted = std::mem::take(&mut *exec.queue.lock().unwrap());
            for (run, _spec) in admitted.iter().skip(1) {
                exec.registry
                    .finish(run, RunOutcome::Cancelled { json: None });
            }
            exec
        };

        let exec = admit_and_finish(Duration::from_secs(600));
        assert_eq!(
            daemon_counter(&exec, "runs_evicted_capacity"),
            over as u64 - 1
        );
        assert_eq!(daemon_counter(&exec, "runs_evicted_ttl"), 0);
        assert_eq!(
            daemon_counter(&exec, "runs_retained_limit"),
            RETAINED_RUNS_LIMIT as u64
        );
        // The limit's worth of completed runs, and the one still queued.
        assert_eq!(
            daemon_counter(&exec, "runs_registered"),
            RETAINED_RUNS_LIMIT as u64 + 1
        );
        accounted(&exec);

        // TTL zero: `runs_registered` sweeps before it counts.
        let exec = admit_and_finish(Duration::ZERO);
        assert_eq!(daemon_counter(&exec, "runs_registered"), 1);
        assert_eq!(
            daemon_counter(&exec, "runs_evicted_ttl"),
            RETAINED_RUNS_LIMIT as u64
        );
        accounted(&exec);
    }

    #[test]
    fn default_deadline_applies_only_when_request_sends_none() {
        let cfg = DaemonConfig {
            default_deadline: Some(Duration::from_secs(30)),
            ..test_cfg()
        };
        let exec = Executive::new(cfg);
        let (run, _) = exec
            .submit(tiny_spec("d"), GuardLimits::default(), 1, ModelKind::Med)
            .expect("admitted");
        assert_eq!(run.limits.deadline, Some(Duration::from_secs(30)));
        let explicit = GuardLimits {
            deadline: Some(Duration::from_millis(5)),
            ..GuardLimits::default()
        };
        let (run, _) = exec
            .submit(tiny_spec("d"), explicit, 1, ModelKind::Med)
            .expect("admitted");
        assert_eq!(run.limits.deadline, Some(Duration::from_millis(5)));
    }
}
