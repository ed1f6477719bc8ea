//! The run registry: every submitted run's lifecycle, progress log and
//! final report, with TTL-based eviction of completed entries.
//!
//! A [`Run`] is shared between the HTTP handlers (status polls, event
//! streams, cancellation) and the session worker executing it, so its
//! mutable state lives behind one mutex with a condvar for the two
//! blocking consumers: event streamers waiting for the next progress
//! line and anything waiting for completion. Ids are a plain counter —
//! they identify, they do not authenticate.

use contention_scenario::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a run is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Admitted, waiting for a session worker.
    Queued,
    /// A session worker is executing it.
    Running,
    /// Finished (see [`RunOutcome`]); eligible for TTL eviction.
    Done,
}

impl RunPhase {
    /// The stable name rendered in status documents.
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Queued => "queued",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
        }
    }
}

/// How a finished run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every cell completed; `json` is the rendered report document.
    Ok {
        /// The report, rendered as JSON.
        json: String,
    },
    /// The report exists but carries non-`ok` rows (supervision limits,
    /// deadlocks, panics) — and the run was *not* cancelled.
    Partial {
        /// The report, rendered as JSON.
        json: String,
    },
    /// The run was cancelled. A cancellation that landed mid-run still
    /// produced a partial report with `cancelled` rows; one that landed
    /// before anything started has none.
    Cancelled {
        /// The partial report, when the run got far enough to have one.
        json: Option<String>,
    },
    /// The run failed before producing a report.
    Failed {
        /// The session's error, human-readable.
        error: String,
    },
}

impl RunOutcome {
    /// The stable name rendered in status documents.
    pub fn name(&self) -> &'static str {
        match self {
            RunOutcome::Ok { .. } => "ok",
            RunOutcome::Partial { .. } => "partial",
            RunOutcome::Cancelled { .. } => "cancelled",
            RunOutcome::Failed { .. } => "failed",
        }
    }

    /// The rendered report document, when this outcome carries one.
    pub fn report_json(&self) -> Option<&str> {
        match self {
            RunOutcome::Ok { json } | RunOutcome::Partial { json } => Some(json),
            RunOutcome::Cancelled { json } => json.as_deref(),
            RunOutcome::Failed { .. } => None,
        }
    }
}

/// The mutable half of a [`Run`].
#[derive(Debug)]
pub struct RunState {
    /// Lifecycle phase.
    pub phase: RunPhase,
    /// Set exactly once, when `phase` becomes [`RunPhase::Done`].
    pub outcome: Option<RunOutcome>,
    /// Progress log: one JSON line per `RunEvent`, in arrival order.
    pub events: Vec<String>,
    /// True once no further events can arrive.
    pub events_closed: bool,
    /// When the run completed, for TTL eviction.
    pub finished_at: Option<Instant>,
}

/// One submitted run, shared between HTTP handlers and its worker.
#[derive(Debug)]
pub struct Run {
    /// Registry-assigned id.
    pub id: u64,
    /// The scenario to execute (already validated at admission).
    pub spec: ScenarioSpec,
    /// Per-request supervision limits.
    pub limits: GuardLimits,
    /// Base seed for this run.
    pub seed: u64,
    /// Predictor model for this run.
    pub model: ModelKind,
    /// Cancellation handle — `DELETE /v1/runs/{id}` fires it; the
    /// session polls it at engine preemption points.
    pub cancel: CancelToken,
    state: Mutex<RunState>,
    progress: Condvar,
}

impl Run {
    fn new(id: u64, spec: ScenarioSpec, limits: GuardLimits, seed: u64, model: ModelKind) -> Self {
        Run {
            id,
            spec,
            limits,
            seed,
            model,
            cancel: CancelToken::new(),
            state: Mutex::new(RunState {
                phase: RunPhase::Queued,
                outcome: None,
                events: Vec::new(),
                events_closed: false,
                finished_at: None,
            }),
            progress: Condvar::new(),
        }
    }

    /// Locks and returns the mutable state.
    pub fn state(&self) -> MutexGuard<'_, RunState> {
        self.state.lock().expect("run state lock")
    }

    /// Marks the run running.
    pub fn mark_running(&self) {
        self.state().phase = RunPhase::Running;
        self.progress.notify_all();
    }

    /// Appends one progress line and wakes streamers.
    pub fn push_event(&self, line: String) {
        self.state().events.push(line);
        self.progress.notify_all();
    }

    /// Marks the run done with `outcome`, closes the event log and wakes
    /// every waiter.
    pub fn finish(&self, outcome: RunOutcome) {
        let mut st = self.state();
        st.phase = RunPhase::Done;
        st.outcome = Some(outcome);
        st.events_closed = true;
        st.finished_at = Some(Instant::now());
        drop(st);
        self.progress.notify_all();
    }

    /// Blocks until events beyond `from` exist or the log closes;
    /// returns the new lines and whether the log is closed. A closed log
    /// with no new lines returns `(empty, true)` immediately.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = self.state();
        loop {
            if st.events.len() > from || st.events_closed {
                let lines = st.events[from.min(st.events.len())..].to_vec();
                return (lines, st.events_closed);
            }
            let (next, _timeout) = self
                .progress
                .wait_timeout(st, Duration::from_secs(1))
                .expect("run state lock");
            st = next;
        }
    }

    /// Blocks until the run completes; returns its outcome.
    pub fn wait_done(&self) -> RunOutcome {
        let mut st = self.state();
        loop {
            if let Some(outcome) = &st.outcome {
                return outcome.clone();
            }
            let (next, _timeout) = self
                .progress
                .wait_timeout(st, Duration::from_secs(1))
                .expect("run state lock");
            st = next;
        }
    }
}

/// Id-ordered map of every live run, plus the eviction policy.
#[derive(Debug)]
pub struct RunRegistry {
    runs: Mutex<BTreeMap<u64, Arc<Run>>>,
    next_id: AtomicU64,
    ttl: Duration,
}

impl RunRegistry {
    /// An empty registry whose completed entries live for `ttl` after
    /// finishing.
    pub fn new(ttl: Duration) -> Self {
        RunRegistry {
            runs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            ttl,
        }
    }

    /// Creates and registers a run.
    pub fn create(
        &self,
        spec: ScenarioSpec,
        limits: GuardLimits,
        seed: u64,
        model: ModelKind,
    ) -> Arc<Run> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = Arc::new(Run::new(id, spec, limits, seed, model));
        self.runs
            .lock()
            .expect("registry lock")
            .insert(id, Arc::clone(&run));
        run
    }

    /// Looks a run up, evicting it instead when its TTL has lapsed (the
    /// caller sees `None`, exactly as if a sweep had already removed it).
    pub fn get(&self, id: u64) -> Option<Arc<Run>> {
        let mut runs = self.runs.lock().expect("registry lock");
        let run = runs.get(&id).cloned()?;
        if self.expired(&run) {
            runs.remove(&id);
            return None;
        }
        Some(run)
    }

    /// Removes every completed entry older than the TTL; returns how
    /// many were evicted.
    pub fn evict_expired(&self) -> usize {
        let mut runs = self.runs.lock().expect("registry lock");
        let before = runs.len();
        runs.retain(|_, run| !self.expired(run));
        before - runs.len()
    }

    /// Every live run, id-ordered.
    pub fn all(&self) -> Vec<Arc<Run>> {
        self.runs
            .lock()
            .expect("registry lock")
            .values()
            .cloned()
            .collect()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.runs.lock().expect("registry lock").len()
    }

    /// True when no runs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn expired(&self, run: &Run) -> bool {
        run.state()
            .finished_at
            .is_some_and(|at| at.elapsed() >= self.ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_scenario::prelude::ScenarioBuilder;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioBuilder::new("reg-test")
            .single_switch(
                2,
                LinkConfig::gigabit_ethernet(),
                SwitchConfig::commodity_ethernet(),
            )
            .uniform("direct")
            .nodes([2])
            .message_bytes([1024])
            .build()
            .expect("valid spec")
    }

    fn registry_with_run(ttl: Duration) -> (RunRegistry, Arc<Run>) {
        let reg = RunRegistry::new(ttl);
        let run = reg.create(tiny_spec(), GuardLimits::default(), 42, ModelKind::Med);
        (reg, run)
    }

    #[test]
    fn lifecycle_and_event_log() {
        let (reg, run) = registry_with_run(Duration::from_secs(60));
        assert_eq!(run.id, 1);
        assert_eq!(run.state().phase, RunPhase::Queued);
        run.mark_running();
        run.push_event("{\"event\":\"batch-started\"}".to_string());
        let (lines, closed) = run.wait_events(0);
        assert_eq!(lines.len(), 1);
        assert!(!closed);
        run.finish(RunOutcome::Ok {
            json: "{}".to_string(),
        });
        let (lines, closed) = run.wait_events(1);
        assert!(lines.is_empty());
        assert!(closed);
        assert_eq!(run.wait_done().name(), "ok");
        assert!(reg.get(1).is_some(), "fresh completion is not evicted");
    }

    #[test]
    fn ttl_evicts_completed_runs_only() {
        let (reg, run) = registry_with_run(Duration::ZERO);
        // Unfinished runs never expire, even at TTL zero.
        assert_eq!(reg.evict_expired(), 0);
        assert!(reg.get(run.id).is_some());
        run.finish(RunOutcome::Failed {
            error: "x".to_string(),
        });
        // Lookup-side eviction: the lapsed entry vanishes on access.
        assert!(reg.get(run.id).is_none());
        assert!(reg.is_empty());
        // Sweep-side eviction on a second registry.
        let (reg2, run2) = registry_with_run(Duration::ZERO);
        run2.finish(RunOutcome::Cancelled { json: None });
        assert_eq!(reg2.evict_expired(), 1);
        assert_eq!(reg2.len(), 0);
    }

    #[test]
    fn outcome_report_json_accessors() {
        let ok = RunOutcome::Ok {
            json: "{\"a\":1}".to_string(),
        };
        assert_eq!(ok.report_json(), Some("{\"a\":1}"));
        assert_eq!(RunOutcome::Cancelled { json: None }.report_json(), None);
        assert_eq!(
            RunOutcome::Failed {
                error: "e".to_string()
            }
            .report_json(),
            None
        );
    }
}
