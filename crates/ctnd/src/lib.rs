//! # ctnd — the simulation-serving daemon
//!
//! Serves the scenario engine over HTTP: clients `POST` scenario specs,
//! a bounded pool of session workers executes them — every worker's
//! session sharing one calibration cache — and clients poll or stream
//! until the deterministic report is ready. The substrate is the
//! library's [`Session`](contention_scenario::prelude::Session) facade;
//! the daemon adds what a long-running, multi-tenant process needs:
//!
//! * **admission control** — a bounded run queue; overflow answers
//!   `429` + `Retry-After`, draining answers `503`;
//! * **per-run supervision** — requests carry `deadline_ms` /
//!   `event_budget` ([`GuardLimits`](contention_scenario::prelude::GuardLimits)),
//!   so a hostile spec times out instead of wedging a worker;
//! * **cancellation** — `DELETE /v1/runs/{id}` fires the run's
//!   `CancelToken`; a mid-run cancel still yields a partial report whose
//!   interrupted cells carry `cancelled` status rows;
//! * **streaming progress** — `GET /v1/runs/{id}/events` follows the
//!   run's `RunEvent` log as chunked NDJSON;
//! * **aggregated metrics** — `GET /metrics` merges every session's
//!   `SessionMetrics` (via `SessionMetrics::merge`) and adds daemon
//!   counters (queue depth, rejections, cache hit rate);
//! * **bounded retention** — completed reports stay queryable for a
//!   configurable TTL or as the most recent [`RETAINED_RUNS_LIMIT`],
//!   then evict (and `/metrics` counts which bound took them);
//! * **graceful shutdown** — SIGTERM/ctrl-c stops admission, cancels
//!   in-flight runs, flushes their partial reports and exits 0.
//!
//! Determinism survives the trip: a report fetched from
//! `GET /v1/runs/{id}/report` is byte-identical to `ctnsim run
//! --format json` of the same spec, seed, model and limits.
//!
//! ```
//! use ctnd::{Daemon, DaemonConfig};
//!
//! let daemon = Daemon::spawn(DaemonConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..DaemonConfig::default()
//! })
//! .expect("bind");
//! let health = ctnd::client::request(daemon.addr(), "GET", "/healthz", None, b"").unwrap();
//! assert_eq!(health.status, 200);
//! assert!(health.body.contains("\"ok\""));
//! daemon.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod exec;
pub mod http;
mod registry;
mod server;
pub mod signal;

pub use exec::{AdmitError, DaemonConfig, Executive};
pub use registry::{RegistryStats, Run, RunOutcome, RunPhase, RunRegistry, RETAINED_RUNS_LIMIT};

use server::ConnPool;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running daemon: listener + connection pool + session workers.
///
/// [`Daemon::shutdown`] performs the full graceful-drain sequence; the
/// `ctnd` binary calls it when SIGTERM/SIGINT trips the
/// [`signal`] flag. Dropping a `Daemon` without calling `shutdown`
/// leaves its threads serving (they hold their own `Arc`s) — fine for
/// a process about to exit, wrong for anything else.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    exec: Arc<Executive>,
    pool: Arc<ConnPool>,
    accept_stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    run_workers: Vec<JoinHandle<()>>,
    conn_workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the worker pools and starts serving.
    pub fn spawn(cfg: DaemonConfig) -> io::Result<Daemon> {
        for (name, value) in [
            ("run_workers", cfg.run_workers),
            ("session_workers", cfg.session_workers),
            ("queue_depth", cfg.queue_depth),
            ("conn_workers", cfg.conn_workers),
        ] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{name} must be at least 1"),
                ));
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let exec = Executive::new(cfg.clone());
        let run_workers = exec.spawn_workers();
        let pool = ConnPool::new();
        let conn_workers = pool.spawn_workers(&exec, cfg.conn_workers);
        let accept_stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&accept_stop);
            std::thread::Builder::new()
                .name("ctnd-accept".to_string())
                .spawn(move || server::accept_loop(listener, pool, stop))
                .expect("spawn acceptor")
        };
        Ok(Daemon {
            addr,
            exec,
            pool,
            accept_stop,
            acceptor,
            run_workers,
            conn_workers,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for tests and benches that want to introspect
    /// counters or submit without HTTP.
    pub fn executive(&self) -> &Arc<Executive> {
        &self.exec
    }

    /// Stops admission and cancels every queued and in-flight run, but
    /// keeps serving reads — clients can still fetch the partial
    /// reports the drain flushes. [`Daemon::shutdown`] completes the
    /// sequence.
    pub fn begin_drain(&self) {
        self.exec.begin_drain();
    }

    /// Graceful shutdown: drain (stop admitting, cancel in-flight runs),
    /// wait for the workers to flush every partial report, then stop
    /// the listener and connection pool. The acceptor blocks in
    /// `accept`, so it is told to stop and then handed one last
    /// connection to notice it by.
    pub fn shutdown(self) {
        self.exec.begin_drain();
        for w in self.run_workers {
            let _ = w.join();
        }
        self.accept_stop.store(true, Ordering::Release);
        if server::wake_acceptor(self.addr) {
            let _ = self.acceptor.join();
        }
        self.pool.stop();
        for w in self.conn_workers {
            let _ = w.join();
        }
    }
}
