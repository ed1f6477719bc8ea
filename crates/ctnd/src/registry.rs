//! The run registry: every submitted run's lifecycle, progress log and
//! final report, with bounded retention of completed entries.
//!
//! A [`Run`] is shared between the HTTP handlers (status polls, event
//! streams, cancellation) and the session worker executing it, so its
//! mutable state lives behind one mutex with a condvar for the two
//! blocking consumers: event streamers waiting for the next progress
//! line and anything waiting for completion. Ids are a plain counter —
//! they identify, they do not authenticate.
//!
//! Completed runs stay queryable for the TTL **or** as the most recent
//! [`RETAINED_RUNS_LIMIT`], whichever ends first. Both bounds are kept
//! by one finish-ordered queue: [`RunRegistry::finish`] stamps and
//! appends under the registry lock, so the queue is ordered by finish
//! time and eviction only ever pops its front — a sweep costs the
//! entries it evicts, not the entries it keeps, and looks at no run's
//! state. Queued and running runs are not in the queue and are never
//! evicted.

use contention_scenario::prelude::*;
use std::collections::{BTreeMap, VecDeque};
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
    /// Finished (see [`RunOutcome`]); eligible for eviction.
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
}

impl RunState {
    /// The lines beyond `from` and whether the log is closed.
    fn since(&self, from: usize) -> (Vec<String>, bool) {
        let lines = self.events[from.min(self.events.len())..].to_vec();
        (lines, self.events_closed)
    }
}

/// One submitted run, shared between HTTP handlers and its worker. It
/// carries the scenario's name, not its `ScenarioSpec`: the spec rides
/// the run queue to the worker that executes it and is dropped there,
/// so a retained run costs its report and event log, nothing else.
#[derive(Debug)]
pub struct Run {
    /// Registry-assigned id.
    pub id: u64,
    /// Name of the scenario submitted (already validated at admission).
    pub scenario: String,
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
    fn new(id: u64, scenario: String, limits: GuardLimits, seed: u64, model: ModelKind) -> Self {
        Run {
            id,
            scenario,
            limits,
            seed,
            model,
            cancel: CancelToken::new(),
            state: Mutex::new(RunState {
                phase: RunPhase::Queued,
                outcome: None,
                events: Vec::new(),
                events_closed: false,
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
    pub fn push_event(&self, mut line: String) {
        line.shrink_to_fit();
        self.state().events.push(line);
        self.progress.notify_all();
    }

    /// Marks the run done with `outcome`, closes the event log and wakes
    /// every waiter. What stays behind is retained for the TTL, so the
    /// report and the log give back the capacity they grew into.
    fn finish(&self, mut outcome: RunOutcome) {
        match &mut outcome {
            RunOutcome::Ok { json }
            | RunOutcome::Partial { json }
            | RunOutcome::Cancelled { json: Some(json) } => json.shrink_to_fit(),
            RunOutcome::Failed { error } => error.shrink_to_fit(),
            RunOutcome::Cancelled { json: None } => {}
        }
        let mut st = self.state();
        st.phase = RunPhase::Done;
        st.outcome = Some(outcome);
        st.events_closed = true;
        st.events.shrink_to_fit();
        drop(st);
        self.progress.notify_all();
    }

    /// The lines beyond `from` and whether the log is closed, without
    /// waiting.
    pub fn events_since(&self, from: usize) -> (Vec<String>, bool) {
        self.state().since(from)
    }

    /// Blocks until events beyond `from` exist or the log closes;
    /// returns the new lines and whether the log is closed. A closed log
    /// with no new lines returns `(empty, true)` immediately.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = self.state();
        loop {
            if st.events.len() > from || st.events_closed {
                return st.since(from);
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

/// Completed runs retained at most, whatever the TTL: past this the
/// oldest-finished is evicted (and counted, `runs_evicted_capacity` in
/// `/metrics`). A daemon serving thousands of sub-millisecond runs a
/// second would otherwise hold a TTL's worth of reports — gigabytes at
/// the default 600 s. A constant in the family of `AGG_CELLS_LIMIT` and
/// `CONN_BACKLOG`, not an option.
pub const RETAINED_RUNS_LIMIT: usize = 4096;

/// What the registry holds and what retention has dropped, read under
/// one lock: `registered` plus the two eviction counts is every run
/// ever created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Live entries (queued, running and retained).
    pub registered: usize,
    /// Completed runs evicted because their TTL lapsed.
    pub evicted_ttl: u64,
    /// Completed runs evicted to stay within [`RETAINED_RUNS_LIMIT`].
    pub evicted_capacity: u64,
}

#[derive(Debug, Default)]
struct Entries {
    /// Every live run, id-ordered.
    runs: BTreeMap<u64, Arc<Run>>,
    /// Completed runs, oldest finish first.
    finished: VecDeque<(Instant, u64)>,
    evicted_ttl: u64,
    evicted_capacity: u64,
}

impl Entries {
    fn pop_oldest_finished(&mut self) {
        if let Some((_, id)) = self.finished.pop_front() {
            self.runs.remove(&id);
        }
    }

    /// Evicts every completed run that finished `ttl` or longer ago;
    /// returns how many.
    fn sweep(&mut self, ttl: Duration) -> u64 {
        let now = Instant::now();
        let mut evicted = 0;
        while (self.finished.front()).is_some_and(|&(at, _)| now.duration_since(at) >= ttl) {
            self.pop_oldest_finished();
            evicted += 1;
        }
        self.evicted_ttl += evicted;
        evicted
    }
}

/// Id-ordered map of every live run, plus the retention policy.
#[derive(Debug)]
pub struct RunRegistry {
    entries: Mutex<Entries>,
    next_id: AtomicU64,
    ttl: Duration,
}

impl RunRegistry {
    /// An empty registry whose completed entries live for `ttl` after
    /// finishing, or until [`RETAINED_RUNS_LIMIT`] newer ones finished.
    pub fn new(ttl: Duration) -> Self {
        RunRegistry {
            entries: Mutex::new(Entries::default()),
            next_id: AtomicU64::new(1),
            ttl,
        }
    }

    /// Locks the entries with everything past its TTL already evicted,
    /// so no reader ever sees a lapsed run.
    fn swept(&self) -> MutexGuard<'_, Entries> {
        let mut entries = self.entries.lock().expect("registry lock");
        entries.sweep(self.ttl);
        entries
    }

    /// Creates and registers a run of the scenario called `scenario`.
    pub fn create(
        &self,
        scenario: String,
        limits: GuardLimits,
        seed: u64,
        model: ModelKind,
    ) -> Arc<Run> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = Arc::new(Run::new(id, scenario, limits, seed, model));
        self.swept().runs.insert(id, Arc::clone(&run));
        run
    }

    /// Marks `run` done with `outcome` (closing its event log and waking
    /// every waiter) and starts its retention: it joins the back of the
    /// finish queue, and the front gives way if that makes more than
    /// [`RETAINED_RUNS_LIMIT`].
    pub fn finish(&self, run: &Run, outcome: RunOutcome) {
        run.finish(outcome);
        let mut entries = self.entries.lock().expect("registry lock");
        entries.finished.push_back((Instant::now(), run.id));
        if entries.finished.len() > RETAINED_RUNS_LIMIT {
            entries.pop_oldest_finished();
            entries.evicted_capacity += 1;
        }
    }

    /// Looks a run up; one whose retention has ended is gone.
    pub fn get(&self, id: u64) -> Option<Arc<Run>> {
        self.swept().runs.get(&id).cloned()
    }

    /// Removes every completed entry older than the TTL; returns how
    /// many this call evicted. Costs the entries evicted, not the
    /// entries kept.
    pub fn sweep(&self) -> u64 {
        let mut entries = self.entries.lock().expect("registry lock");
        entries.sweep(self.ttl)
    }

    /// Every live run, id-ordered.
    pub fn all(&self) -> Vec<Arc<Run>> {
        self.swept().runs.values().cloned().collect()
    }

    /// Entry and eviction counts, after a sweep.
    pub fn stats(&self) -> RegistryStats {
        let entries = self.swept();
        RegistryStats {
            registered: entries.runs.len(),
            evicted_ttl: entries.evicted_ttl,
            evicted_capacity: entries.evicted_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(reg: &RunRegistry) -> Arc<Run> {
        reg.create(
            "reg-test".to_string(),
            GuardLimits::default(),
            42,
            ModelKind::Med,
        )
    }

    fn finish(reg: &RunRegistry, run: &Run) {
        reg.finish(
            run,
            RunOutcome::Ok {
                json: "{}".to_string(),
            },
        );
    }

    #[test]
    fn lifecycle_and_event_log() {
        let reg = RunRegistry::new(Duration::from_secs(60));
        let run = create(&reg);
        assert_eq!(run.id, 1);
        assert_eq!(run.state().phase, RunPhase::Queued);
        run.mark_running();
        run.push_event("{\"event\":\"batch-started\"}".to_string());
        let (lines, closed) = run.wait_events(0);
        assert_eq!(lines.len(), 1);
        assert!(!closed);
        finish(&reg, &run);
        let (lines, closed) = run.wait_events(1);
        assert!(lines.is_empty());
        assert!(closed);
        assert_eq!(run.wait_done().name(), "ok");
        assert!(reg.get(1).is_some(), "fresh completion is not evicted");
    }

    #[test]
    fn ttl_evicts_completed_runs_only() {
        let reg = RunRegistry::new(Duration::ZERO);
        let (queued, running, done) = (create(&reg), create(&reg), create(&reg));
        running.mark_running();
        // Unfinished runs never expire, even at TTL zero.
        assert_eq!(reg.sweep(), 0);
        assert!(reg.get(queued.id).is_some());
        assert!(reg.get(running.id).is_some());
        reg.finish(
            &done,
            RunOutcome::Failed {
                error: "x".to_string(),
            },
        );
        // Lookup-side eviction: the lapsed entry is gone on access.
        assert!(reg.get(done.id).is_none());
        assert_eq!(reg.stats().registered, 2);
        // Sweep-side eviction.
        reg.finish(&running, RunOutcome::Cancelled { json: None });
        assert_eq!(reg.sweep(), 1);
        assert_eq!(
            reg.stats(),
            RegistryStats {
                registered: 1,
                evicted_ttl: 2,
                evicted_capacity: 0
            }
        );
        assert!(reg.get(queued.id).is_some());
    }

    #[test]
    fn eviction_follows_finish_order_not_id_order() {
        let reg = RunRegistry::new(Duration::from_secs(600));
        let (lower_id, higher_id) = (create(&reg), create(&reg));
        finish(&reg, &higher_id);
        finish(&reg, &lower_id);
        // One more completed run than the limit: the first to finish
        // goes, though its id is not the lowest.
        for _ in 0..RETAINED_RUNS_LIMIT - 1 {
            finish(&reg, &create(&reg));
        }
        assert!(reg.get(higher_id.id).is_none());
        assert!(reg.get(lower_id.id).is_some());
        assert_eq!(reg.stats().evicted_capacity, 1);
    }

    #[test]
    fn retention_is_capped_at_the_most_recent_completed_runs() {
        let reg = RunRegistry::new(Duration::from_secs(600));
        let queued = create(&reg);
        for _ in 0..5000 {
            finish(&reg, &create(&reg));
        }
        let stats = reg.stats();
        assert_eq!(stats.registered, RETAINED_RUNS_LIMIT + 1);
        assert_eq!(stats.evicted_capacity, 5000 - RETAINED_RUNS_LIMIT as u64);
        assert_eq!(stats.evicted_ttl, 0);
        assert!(reg.get(5001).is_some(), "the newest is fetchable");
        assert!(reg.get(2).is_none(), "the oldest finished is gone");
        let oldest_kept = 5001 - RETAINED_RUNS_LIMIT as u64 + 1;
        assert!(reg.get(oldest_kept).is_some());
        assert!(reg.get(oldest_kept - 1).is_none());
        assert!(
            reg.get(queued.id).is_some(),
            "a queued run is never evicted"
        );
    }

    #[test]
    fn a_sweep_with_nothing_due_locks_no_run_state() {
        let reg = Arc::new(RunRegistry::new(Duration::from_secs(600)));
        let runs: Vec<_> = (0..10_000).map(|_| create(&reg)).collect();
        for run in &runs[..RETAINED_RUNS_LIMIT] {
            finish(&reg, run);
        }
        // Every run's state is locked here, so a sweep that probed even
        // one of them would never report back.
        let held: Vec<_> = runs.iter().map(|run| run.state()).collect();
        let (done, swept) = std::sync::mpsc::channel();
        let sweeper = Arc::clone(&reg);
        let sweep = std::thread::spawn(move || done.send(sweeper.sweep()));
        assert_eq!(swept.recv_timeout(Duration::from_secs(5)), Ok(0));
        sweep.join().expect("sweeper").expect("result was received");
        drop(held);
        assert_eq!(reg.stats().registered, 10_000);
    }

    #[test]
    fn finished_runs_give_back_spare_capacity() {
        let reg = RunRegistry::new(Duration::from_secs(60));
        let run = create(&reg);
        let mut line = String::with_capacity(256);
        line.push_str("{}");
        run.push_event(line);
        let mut json = String::with_capacity(4096);
        json.push_str("{\"cells\": []}");
        reg.finish(&run, RunOutcome::Ok { json });
        let st = run.state();
        assert!(st.events[0].capacity() < 256);
        assert_eq!(st.events.capacity(), 1);
        let report = st.outcome.as_ref().and_then(RunOutcome::report_json);
        assert_eq!(report, Some("{\"cells\": []}"));
        match &st.outcome {
            Some(RunOutcome::Ok { json }) => assert!(json.capacity() < 4096),
            other => panic!("expected an ok outcome, got {other:?}"),
        }
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
