//! Per-run telemetry: cell/worker/cache metrics and their two export
//! formats (a metrics JSON document and a Chrome trace-event timeline).
//!
//! Every [`Session`](crate::session::Session) run assembles a
//! [`SessionMetrics`] snapshot — wall-clock spans, LPT schedule
//! positions, worker occupancy and calibration-cache counters are always
//! collected (they cost a few atomic increments and `Instant` reads per
//! cell); per-cell **engine** telemetry (link utilization series, event
//! marks, queue histograms) is attached only when the session was built
//! with [`SessionBuilder::telemetry`](crate::session::SessionBuilder::telemetry),
//! because it threads a recording `Recorder` through the simulator.
//!
//! The numbers here are observational: wall-clock times vary run to run,
//! and none of them feed back into simulation results — the byte-identity
//! determinism contract is unaffected by collecting or exporting them.

use simnet::obs::json;
use simnet::obs::{EngineTelemetry, TraceBuilder};

/// Schema version stamped into the metrics JSON document.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Per-link sample series beyond this many links are summarized without
/// their point series (busiest links keep theirs) to bound document size.
const SERIES_LINKS_LIMIT: usize = 16;

/// Event marks exported per cell (the recorder's ring usually holds more).
const MARKS_EXPORT_LIMIT: usize = 512;

/// Links at or above this utilization (permille) count as saturated in
/// the trace timeline.
const SATURATION_PERMILLE: u16 = 950;

/// Calibration-cache counters over one run (or cumulative, from
/// [`CalibrationCache::stats`](crate::session::CalibrationCache::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fits answered from the memo.
    pub hits: u64,
    /// Fits that had to run.
    pub misses: u64,
    /// Fits inserted into the memo (≤ misses; racing sessions may insert
    /// the same key once each).
    pub inserts: u64,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; zero lookups count as 0.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Counter-wise difference (`self` minus `earlier`), for per-run
    /// deltas over a shared cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            inserts: self.inserts - earlier.inserts,
        }
    }

    /// Counter-wise sum — the inverse of [`CacheStats::since`]: adding
    /// every per-run delta over a shared cache reconstructs the lifetime
    /// counters.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            inserts: self.inserts + other.inserts,
        }
    }
}

/// Telemetry for one finished grid cell.
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// Scenario name.
    pub scenario: String,
    /// Rank count.
    pub n: usize,
    /// Per-pair message size in bytes.
    pub message_bytes: u64,
    /// Worker that ran the cell (0 is the thread that started the run).
    pub worker: usize,
    /// Position in the cost-aware (LPT) schedule: 0 started first.
    pub schedule_index: usize,
    /// Wall-clock start, seconds since the run began.
    pub start_secs: f64,
    /// Wall-clock duration of the cell (warmup + measured reps).
    pub wall_secs: f64,
    /// Terminal status name (`ok`, `timed-out`, `budget-exceeded`,
    /// `deadlocked`, `panicked`, `cancelled`) — the supervision outcome
    /// of the cell this telemetry describes.
    pub status: String,
    /// Engine telemetry, present when the session records telemetry.
    pub engine: Option<EngineTelemetry>,
}

impl CellMetrics {
    /// `scenario n=… m=…` — the label used in exports.
    pub fn label(&self) -> String {
        format!("{} n={} m={}", self.scenario, self.n, self.message_bytes)
    }
}

/// Per-worker occupancy over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerMetrics {
    /// Worker index (0 is the thread that started the run).
    pub worker: usize,
    /// Cells this worker completed.
    pub cells: usize,
    /// Wall-clock seconds spent simulating cells.
    pub busy_secs: f64,
}

/// Snapshot of one [`Session`](crate::session::Session) run, retrievable
/// via [`Session::metrics`](crate::session::Session::metrics).
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// Total wall-clock of the run (calibration through assembly).
    pub wall_secs: f64,
    /// Per-worker occupancy, indexed by worker thread.
    pub workers: Vec<WorkerMetrics>,
    /// Calibration-cache activity during this run.
    pub cache: CacheStats,
    /// Routed topologies built during this run — exact: one per scenario
    /// with a generated topology, shared by its calibrations and every
    /// cell (presets wire a few switches per cell and are not counted).
    /// Deliberately not a [`CacheStats`] counter: a fabric is built once
    /// per batch whatever the calibration cache holds, and `hit_rate`
    /// keeps meaning "fits answered from the memo".
    pub fabric_builds: u64,
    /// Wall-clock seconds spent in those builds (generation and the
    /// per-root routing BFS).
    pub fabric_build_secs: f64,
    /// One entry per finished cell, in LPT schedule order.
    pub cells: Vec<CellMetrics>,
}

impl SessionMetrics {
    /// Folds another run's snapshot into this one, for aggregation
    /// across sessions (a daemon serving many runs wants one cumulative
    /// document, not one per session):
    ///
    /// * `wall_secs` accumulates (total serving time across runs);
    /// * `workers` merge **by worker index** — occupancy of worker *k*
    ///   across runs sums into one entry, kept sorted by index;
    /// * `cache` counters sum (feed per-run *deltas* from
    ///   [`CacheStats::since`] when runs share one cache, or the
    ///   per-run snapshots when each session owns its cache);
    /// * `fabric_builds` / `fabric_build_secs` sum;
    /// * `cells` append in merge order.
    ///
    /// Merging is associative — any fold order over the same snapshots
    /// yields the same aggregate — and `SessionMetrics::default()` is
    /// its identity, so a running aggregate can start empty.
    pub fn merge(&mut self, other: &SessionMetrics) {
        self.wall_secs += other.wall_secs;
        for w in &other.workers {
            match self.workers.iter_mut().find(|m| m.worker == w.worker) {
                Some(mine) => {
                    mine.cells += w.cells;
                    mine.busy_secs += w.busy_secs;
                }
                None => self.workers.push(*w),
            }
        }
        self.workers.sort_by_key(|w| w.worker);
        self.cache = self.cache.merged(&other.cache);
        self.fabric_builds += other.fabric_builds;
        self.fabric_build_secs += other.fabric_build_secs;
        self.cells.extend(other.cells.iter().cloned());
    }

    /// Renders the metrics JSON document (schema
    /// [`METRICS_SCHEMA_VERSION`]). Link series are capped to the
    /// busiest `SERIES_LINKS_LIMIT` (16) links per cell; the cap is
    /// recorded in the document so truncation is never silent.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "\"metrics_schema_version\": {METRICS_SCHEMA_VERSION},\n"
        ));
        out.push_str(&format!(
            "\"wall_secs\": {},\n",
            json::number(self.wall_secs)
        ));
        out.push_str(&format!(
            "\"cache\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \"hit_rate\": {}}},\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.inserts,
            json::number(self.cache.hit_rate())
        ));
        out.push_str(&format!(
            "\"fabric_builds\": {},\n\"fabric_build_secs\": {},\n",
            self.fabric_builds,
            json::number(self.fabric_build_secs)
        ));
        out.push_str("\"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"worker\": {}, \"cells\": {}, \"busy_secs\": {}}}",
                w.worker,
                w.cells,
                json::number(w.busy_secs)
            ));
        }
        out.push_str("],\n\"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&render_cell_json(c));
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders a Chrome trace-event timeline (loadable in
    /// `chrome://tracing` and Perfetto): cell spans on a wall-clock
    /// process (one row per worker) and link-saturation intervals plus
    /// protocol event marks on a simulated-time process (one row per
    /// cell).
    pub fn render_chrome_trace(&self) -> String {
        let mut t = TraceBuilder::new();
        const WALL_PID: u64 = 1;
        const SIM_PID: u64 = 2;
        t.process_name(WALL_PID, "ctnsim executor (wall clock)");
        t.process_name(SIM_PID, "simulated time (per cell)");
        for w in &self.workers {
            t.thread_name(WALL_PID, w.worker as u64, &format!("worker {}", w.worker));
        }
        for (idx, c) in self.cells.iter().enumerate() {
            t.span(
                WALL_PID,
                c.worker as u64,
                &c.label(),
                "cell",
                c.start_secs * 1e6,
                c.wall_secs * 1e6,
                &[
                    ("schedule_index", c.schedule_index.to_string()),
                    ("n", c.n.to_string()),
                    ("message_bytes", c.message_bytes.to_string()),
                ],
            );
            let Some(engine) = &c.engine else { continue };
            t.thread_name(SIM_PID, idx as u64, &c.label());
            for link in busiest_links(engine) {
                for (start, end) in
                    link.saturated_intervals(SATURATION_PERMILLE, engine.sample_interval_ns)
                {
                    t.span(
                        SIM_PID,
                        idx as u64,
                        &format!("tx{} saturated", link.tx),
                        "link-saturation",
                        start as f64 / 1e3,
                        (end - start) as f64 / 1e3,
                        &[("tx", link.tx.to_string())],
                    );
                }
            }
            for m in engine.marks.iter().take(MARKS_EXPORT_LIMIT) {
                t.instant(
                    SIM_PID,
                    idx as u64,
                    &format!("{} #{}", m.kind.as_str(), m.id),
                    "mark",
                    m.t_ns as f64 / 1e3,
                );
            }
        }
        t.finish()
    }
}

/// Active links of a cell, busiest first, capped at
/// [`SERIES_LINKS_LIMIT`].
fn busiest_links(engine: &EngineTelemetry) -> Vec<&simnet::obs::LinkTelemetry> {
    let mut links: Vec<_> = engine
        .links
        .iter()
        .filter(|l| l.busy_ns > 0 || l.max_queue_bytes > 0 || l.drops > 0)
        .collect();
    links.sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then(a.tx.cmp(&b.tx)));
    links.truncate(SERIES_LINKS_LIMIT);
    links
}

fn render_cell_json(c: &CellMetrics) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"scenario\": {}, ", json::string(&c.scenario)));
    out.push_str(&format!(
        "\"n\": {}, \"message_bytes\": {}, \"worker\": {}, \"schedule_index\": {}, ",
        c.n, c.message_bytes, c.worker, c.schedule_index
    ));
    out.push_str(&format!(
        "\"start_secs\": {}, \"wall_secs\": {}, \"status\": {}, ",
        json::number(c.start_secs),
        json::number(c.wall_secs),
        json::string(&c.status)
    ));
    out.push_str("\"engine\": ");
    match &c.engine {
        None => out.push_str("null"),
        Some(e) => out.push_str(&render_engine_json(e, c.wall_secs)),
    }
    out.push('}');
    out
}

fn render_engine_json(e: &EngineTelemetry, wall_secs: f64) -> String {
    let events_per_sec = if wall_secs > 0.0 {
        e.events as f64 / wall_secs
    } else {
        0.0
    };
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"events\": {}, \"pushes\": {}, \"sim_secs\": {}, \"events_per_wall_sec\": {}, \
         \"sample_interval_ns\": {}, ",
        e.events,
        e.pushes,
        json::number(e.sim_span_secs()),
        json::number(events_per_sec),
        e.sample_interval_ns
    ));
    out.push_str(&format!(
        "\"pop_queue_hist\": {}, \"push_queue_hist\": {}, ",
        render_u64_array(&e.pop_queue_hist),
        render_u64_array(&e.push_queue_hist)
    ));
    out.push_str(&format!(
        "\"marks_dropped\": {}, \"marks\": [",
        e.marks_dropped
    ));
    for (i, m) in e.marks.iter().take(MARKS_EXPORT_LIMIT).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"t_ns\": {}, \"kind\": {}, \"id\": {}, \"value\": {}}}",
            m.t_ns,
            json::string(m.kind.as_str()),
            m.id,
            m.value
        ));
    }
    let series = busiest_links(e);
    out.push_str(&format!(
        "], \"series_links_limit\": {SERIES_LINKS_LIMIT}, \"links\": ["
    ));
    let sim_ns = e.last_event_ns.saturating_sub(e.first_event_ns).max(1);
    for (i, l) in series.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"tx\": {}, \"busy_frac\": {}, \"max_queue_bytes\": {}, \"drops\": {}, \
             \"samples_dropped\": {}, \"samples\": [",
            l.tx,
            json::number(l.busy_ns as f64 / sim_ns as f64),
            l.max_queue_bytes,
            l.drops,
            l.samples_dropped
        ));
        for (j, s) in l.samples.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[{}, {}, {}]",
                s.t_ns, s.util_permille, s.queue_bytes
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn render_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(with_engine: bool) -> SessionMetrics {
        let engine = with_engine.then(|| EngineTelemetry {
            sample_interval_ns: 1000,
            events: 42,
            pushes: 40,
            first_event_ns: 0,
            last_event_ns: 5000,
            pop_queue_hist: vec![1, 2, 3],
            push_queue_hist: vec![4],
            links: vec![simnet::obs::LinkTelemetry {
                tx: 3,
                busy_ns: 4000,
                max_queue_bytes: 3000,
                drops: 1,
                samples: vec![simnet::obs::Sample {
                    t_ns: 1000,
                    util_permille: 990,
                    queue_bytes: 1500,
                }],
                samples_dropped: 0,
            }],
            marks: vec![simnet::obs::Mark {
                t_ns: 500,
                kind: simnet::obs::MarkKind::Timeout,
                id: 2,
                value: 0,
            }],
            marks_dropped: 0,
        });
        SessionMetrics {
            wall_secs: 1.5,
            workers: vec![WorkerMetrics {
                worker: 0,
                cells: 1,
                busy_secs: 1.2,
            }],
            cache: CacheStats {
                hits: 3,
                misses: 1,
                inserts: 1,
            },
            fabric_builds: 1,
            fabric_build_secs: 0.25,
            cells: vec![CellMetrics {
                scenario: "quote\"me".to_string(),
                n: 4,
                message_bytes: 65536,
                worker: 0,
                schedule_index: 0,
                start_secs: 0.1,
                wall_secs: 1.2,
                status: "ok".to_string(),
                engine,
            }],
        }
    }

    #[test]
    fn cache_stats_hit_rate_and_delta() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            inserts: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let later = CacheStats {
            hits: 5,
            misses: 1,
            inserts: 1,
        };
        assert_eq!(
            later.since(&s),
            CacheStats {
                hits: 2,
                misses: 0,
                inserts: 0
            }
        );
    }

    /// A snapshot with dyadic-rational wall-clock values so f64 addition
    /// is exact and associativity can be asserted with `==`.
    fn dyadic_metrics(worker: usize, wall: f64, hits: u64, scenario: &str) -> SessionMetrics {
        SessionMetrics {
            wall_secs: wall,
            workers: vec![WorkerMetrics {
                worker,
                cells: 1,
                busy_secs: wall / 2.0,
            }],
            cache: CacheStats {
                hits,
                misses: 1,
                inserts: 1,
            },
            fabric_builds: 1,
            fabric_build_secs: wall / 4.0,
            cells: vec![CellMetrics {
                scenario: scenario.to_string(),
                n: 2,
                message_bytes: 1024,
                worker,
                schedule_index: 0,
                start_secs: 0.0,
                wall_secs: wall / 2.0,
                status: "ok".to_string(),
                engine: None,
            }],
        }
    }

    #[test]
    fn merge_is_associative_with_default_identity() {
        let a = dyadic_metrics(0, 0.5, 2, "a");
        let b = dyadic_metrics(1, 0.25, 3, "b");
        let c = dyadic_metrics(0, 2.0, 5, "c");

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.render_json(), right.render_json());

        // Identity on both sides.
        let mut from_empty = SessionMetrics::default();
        from_empty.merge(&a);
        let mut onto_empty = a.clone();
        onto_empty.merge(&SessionMetrics::default());
        assert_eq!(from_empty.render_json(), a.render_json());
        assert_eq!(onto_empty.render_json(), a.render_json());
    }

    #[test]
    fn merge_sums_worker_occupancy_by_index() {
        let mut total = SessionMetrics::default();
        for run in [
            dyadic_metrics(1, 0.5, 0, "x"),
            dyadic_metrics(0, 0.25, 0, "y"),
            dyadic_metrics(1, 0.125, 0, "z"),
        ] {
            total.merge(&run);
        }
        total.workers.sort_by_key(|w| w.worker); // already sorted; assert it
        assert_eq!(total.workers.len(), 2);
        assert_eq!(total.workers[0].worker, 0);
        assert_eq!(total.workers[0].cells, 1);
        assert_eq!(total.workers[1].worker, 1);
        assert_eq!(total.workers[1].cells, 2);
        assert_eq!(total.workers[1].busy_secs, 0.25 + 0.0625);
        assert_eq!(total.wall_secs, 0.875);
        assert_eq!(total.fabric_builds, 3);
        assert_eq!(total.fabric_build_secs, 0.875 / 4.0);
        assert_eq!(total.cells.len(), 3);
        assert_eq!(total.cells[0].scenario, "x");
        assert_eq!(total.cells[2].scenario, "z");
    }

    #[test]
    fn cache_stats_merged_sums_per_run_deltas_back_to_lifetime() {
        // Three snapshots of one shared cache's lifetime counters …
        let s0 = CacheStats::default();
        let s1 = CacheStats {
            hits: 3,
            misses: 2,
            inserts: 2,
        };
        let s2 = CacheStats {
            hits: 9,
            misses: 3,
            inserts: 2,
        };
        // … whose per-run deltas sum back to the lifetime total.
        let run1 = s1.since(&s0);
        let run2 = s2.since(&s1);
        assert_eq!(run1.merged(&run2), s2.since(&s0));
        assert_eq!(run1.merged(&CacheStats::default()), run1);
        // merge() feeds cache counters through the same sum.
        let mut m = SessionMetrics {
            cache: run1,
            ..SessionMetrics::default()
        };
        m.merge(&SessionMetrics {
            cache: run2,
            ..SessionMetrics::default()
        });
        assert_eq!(m.cache, s2);
    }

    #[test]
    fn metrics_json_escapes_names_and_carries_series() {
        let doc = sample_metrics(true).render_json();
        assert!(doc.contains(r#""scenario": "quote\"me""#));
        assert!(doc.contains("\"metrics_schema_version\": 1"));
        assert!(doc.contains("\"hit_rate\": 0.75"));
        assert!(doc.contains("\"fabric_builds\": 1,\n\"fabric_build_secs\": 0.25,"));
        assert!(doc.contains(r#""status": "ok""#));
        assert!(doc.contains("[1000, 990, 1500]"), "sample triplet: {doc}");
        assert!(doc.contains(r#""kind": "timeout""#));
    }

    #[test]
    fn metrics_json_without_engine_telemetry_is_null() {
        let doc = sample_metrics(false).render_json();
        assert!(doc.contains("\"engine\": null"));
    }

    #[test]
    fn chrome_trace_has_cell_span_and_saturation_interval() {
        let doc = sample_metrics(true).render_chrome_trace();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains(r#""name":"quote\"me n=4 m=65536""#));
        assert!(doc.contains("link-saturation"));
        assert!(doc.contains("tx3 saturated"));
        assert!(doc.contains(r#""name":"timeout #2""#));
    }
}
