//! The batch executor: a grid of cells, a schedule over it, and the one
//! path a cell takes from simulation to report row.
//!
//! What this file owns, in order: the row and status types
//! ([`CellResult`], [`BatchResult`], [`CellStatus`], [`ModelKind`]);
//! supervision ([`GuardLimits`], and the test-only [`FaultPlan`]);
//! `BatchFabrics`, the one routed fabric per scenario; the cell path
//! (`simulate` → `run_cell` → `Scenario::row`, the only place a report row
//! is made); and `execute`, which keeps the grid and the schedule. It is
//! still the crate's largest file because those five share one contract
//! that is easiest to audit in one place: the public row types are what
//! the cell path fills, supervision is what stops it, and the schedule is
//! only correct because rows are a pure function of their cell.
//! Calibration (the paper's §8 sequence) lives in `calibrate.rs`; the one
//! way to run any of it is a [`Session`].
//!
//! Determinism contract: a cell's result depends only on `(scenario name,
//! base seed, n, message bytes)` — never on the worker count, the
//! schedule, the calibration cache's state, or whether anyone observes
//! the run — so `--workers 1` and `--workers 8` produce byte-identical
//! reports. The work queue is one flat LIFO across *all* scenarios of a
//! batch, so a wide scenario cannot serialize a narrow one behind it.
//!
//! Workers: the thread that calls `execute` is worker 0 and runs the
//! same pop–simulate–record loop as the `workers − 1` scoped helpers it
//! spawns, so a one-worker run spawns no thread. The worker that finishes
//! a cell records it — row, metrics, observer event, batch assembly,
//! fabric release — under one lock.
//!
//! Three schedule-level optimizations ride on top of that contract (none
//! can change a single output byte):
//!
//! * **cost-aware ordering** — cells vary ~100× in simulation cost, so the
//!   queue is sorted by a predicted cost key (`rounds · n² ·
//!   ceil(m/mtu) · reps`) and the workers start the most expensive cells
//!   first. The classic LPT heuristic: the makespan is no longer hostage
//!   to a megabyte-grid cell popping last. Rows land in a flat vector
//!   indexed like the grid, so grid order needs no regrouping.
//! * **calibration caching** — every fit is a pure function of the fabric
//!   (topology + transport + MPI overrides) and its derived seed, so a
//!   [`CalibrationCache`](crate::session::CalibrationCache) keyed by
//!   (fabric fingerprint, seed) means repeated runs over the same specs
//!   fit each fabric once. The cache is *session-owned*; nothing in this
//!   crate is process-global.
//! * **one fabric per scenario** — a generated topology is a pure function
//!   of its spec (the seed enters through placement and the MPI/transport
//!   streams, never the wiring or the routes), and building it —
//!   generation plus routing — used to be repeated by the Hockney fit,
//!   every sample All-to-All and every cell (45 % of a 192-cell sweep on a
//!   128-host dragonfly). Each scenario of a batch now has one lazily
//!   built [`Fabric`] slot that all of them share *by reference*: packet
//!   simulators clone the `Arc<Topology>`, fluid worlds borrow it, nothing
//!   copies its routing tables. Lifetime rule: the slot fills on first use
//!   and is released when the scenario's last cell has reported, so a
//!   batch of large fabrics keeps only the ones still in use; nothing
//!   outlives the batch — a longer-lived fabric cache would need a size
//!   bound someone has to tune. Presets wire a handful of switches as a
//!   function of the rank count and keep doing so per cell.

use crate::calibrate::{calibrate, Calibration};
use crate::error::CtnError;
use crate::metrics::{CellMetrics, SessionMetrics, WorkerMetrics};
use crate::session::{CancelToken, RunEvent, Session};
use crate::spec::{fnv1a, Backend, ScenarioSpec, SpecError};
use crate::topology::Fabric;
use crate::workload;
use contention_model::metrics::estimation_error_percent;
use simmpi::runner::parallel_map;
use simmpi::world::RunInterrupt;
use simmpi::Op;
use simnet::guard::{GuardStop, RunGuard};
use simnet::obs::{EngineRecorder, EngineTelemetry, NoopRecorder, Recorder};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which completion-time predictor fills the `model_secs` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// The MED lower bound (Claims 1–3) under the fitted Hockney
    /// parameters — the paper's distance-from-bound baseline.
    #[default]
    Med,
    /// The contention signature (§7): `γ · MED + (n−1)·δ` above the fitted
    /// cutoff, calibrated on the scenario's own fabric.
    Signature,
    /// The saturation-ramp model: `MED · γ(n)` with γ ramping from 1 to
    /// γ∞ as the node count saturates the fabric.
    Saturation,
}

impl ModelKind {
    /// Parses the CLI's `--model` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "med" => Some(ModelKind::Med),
            "signature" => Some(ModelKind::Signature),
            "saturation" => Some(ModelKind::Saturation),
            _ => None,
        }
    }

    /// The stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Med => "med",
            ModelKind::Signature => "signature",
            ModelKind::Saturation => "saturation",
        }
    }
}

/// Per-cell supervision limits. The default is **unlimited**: no limit
/// is checked, every run behaves (and renders) exactly as an
/// unsupervised one — which is what keeps the goldens byte-identical.
///
/// Each limit covers one whole cell — warmup plus every measured
/// repetition — and a tripped limit stops that cell only; the rest of
/// the batch completes and the report carries the stopped cell as a
/// status row (see [`CellStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardLimits {
    /// Wall-clock ceiling per cell; a cell that exceeds it is stopped at
    /// the engine's next preemption point with status `timed-out`.
    pub deadline: Option<Duration>,
    /// Engine-event budget per cell (rate recomputations in the fluid
    /// tier); an exhausted budget reports status `budget-exceeded`.
    pub event_budget: Option<u64>,
    /// Simulated-time ceiling per cell; crossing it reports status
    /// `timed-out` with the horizon as provenance.
    pub sim_horizon: Option<Duration>,
}

impl GuardLimits {
    /// True when no limit is set (the default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.event_budget.is_none() && self.sim_horizon.is_none()
    }

    /// The engine guard for one cell. The deadline is anchored at the
    /// call (`now + deadline`), so `run_cell` builds the guard first: the
    /// limit covers program generation and placement too.
    /// The session's cancellation flag is always wired in — that is what
    /// makes cancellation preempt a cell *mid-run* at the engine's check
    /// points instead of only between cells.
    fn guard(&self, cancel: &CancelToken) -> RunGuard {
        let mut guard = RunGuard::unlimited().with_cancel_flag(cancel.flag());
        if let Some(deadline) = self.deadline {
            guard = guard.with_deadline(Instant::now() + deadline);
        }
        if let Some(budget) = self.event_budget {
            guard = guard.with_event_budget(budget);
        }
        if let Some(horizon) = self.sim_horizon {
            guard = guard.with_horizon_ns(horizon.as_nanos().min(u64::MAX as u128) as u64);
        }
        guard
    }

    /// Provenance string for a tripped wall-clock deadline.
    fn deadline_limit(&self) -> String {
        match self.deadline {
            Some(d) => format!("wall-clock deadline {d:?}"),
            None => "wall-clock deadline".to_string(),
        }
    }

    /// Maps an engine interruption to the cell status it reports,
    /// attaching the limit that stopped the cell as provenance.
    fn status_of(&self, interrupt: RunInterrupt) -> CellStatus {
        match interrupt {
            RunInterrupt::Guard(GuardStop::Deadline) => CellStatus::TimedOut {
                limit: self.deadline_limit(),
            },
            RunInterrupt::Guard(GuardStop::Horizon { horizon_ns }) => CellStatus::TimedOut {
                limit: format!("simulated-time horizon {horizon_ns} ns"),
            },
            RunInterrupt::Guard(GuardStop::Budget { budget }) => {
                CellStatus::BudgetExceeded { budget }
            }
            RunInterrupt::Guard(GuardStop::Cancelled) => CellStatus::Cancelled,
            RunInterrupt::Deadlocked { detail, .. } => CellStatus::Deadlocked { detail },
        }
    }
}

/// Terminal status of one grid cell under supervision.
///
/// `Ok` rows carry measurements. Every other status marks a cell the
/// supervision layer stopped: its measurement columns are `NaN` (CSV
/// renders them as `NaN`, JSON as `null`, text as `-`) and the variant
/// carries the limit or diagnostic that stopped it. A report containing
/// any non-`Ok` row renders under schema v2, which adds the `status` /
/// `status_detail` columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CellStatus {
    /// The cell ran to completion.
    #[default]
    Ok,
    /// A wall-clock deadline or simulated-time horizon stopped the cell.
    TimedOut {
        /// The limit that tripped, with its configured value.
        limit: String,
    },
    /// The event budget (packet tier) or rate-recompute budget (fluid
    /// tier) ran out.
    BudgetExceeded {
        /// The exhausted budget.
        budget: u64,
    },
    /// The engine stalled: unfinished ranks, but no pending event, timer
    /// or flow that could ever unblock them (e.g. the GM transport's
    /// tail-dropped data on a finite-buffer switch — GM never
    /// retransmits).
    Deadlocked {
        /// The stall detector's blocked-rank/connection diagnostic.
        detail: String,
    },
    /// The cell's worker panicked; the panic was isolated to this cell
    /// and the rest of the batch completed.
    Panicked {
        /// The panic payload, when it carried a message.
        detail: String,
    },
    /// The run was cancelled before or while this cell executed.
    Cancelled,
}

impl CellStatus {
    /// True for a cell that ran to completion.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }

    /// The stable kebab-case name rendered in reports and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::TimedOut { .. } => "timed-out",
            CellStatus::BudgetExceeded { .. } => "budget-exceeded",
            CellStatus::Deadlocked { .. } => "deadlocked",
            CellStatus::Panicked { .. } => "panicked",
            CellStatus::Cancelled => "cancelled",
        }
    }

    /// The status's provenance or diagnostic (empty for `Ok` and
    /// `Cancelled`, which need none).
    pub fn detail(&self) -> String {
        match self {
            CellStatus::Ok | CellStatus::Cancelled => String::new(),
            CellStatus::TimedOut { limit } => limit.clone(),
            CellStatus::BudgetExceeded { budget } => format!("event budget {budget}"),
            CellStatus::Deadlocked { detail } | CellStatus::Panicked { detail } => detail.clone(),
        }
    }
}

/// What a [`FaultPlan`] injects into one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Panic inside the per-cell isolation boundary.
    Panic,
    /// Park the worker until the cell's deadline or the session's
    /// cancellation fires (a stall under no limit stalls for real —
    /// that is what a stall means; supervised tests always set one).
    Stall,
    /// Sleep before running the cell normally: wall-clock noise only,
    /// the simulated results stay byte-identical.
    Slow(Duration),
}

/// Deterministic, test-only fault injection for the supervision layer.
///
/// A plan maps `(scenario, n, message_bytes)` cells to faults; the
/// executor's worker consults it just before simulating each cell.
/// Untouched cells run exactly as without a plan — injection happens
/// outside the engine, so it can never perturb a cell it does not name.
/// Install a plan with
/// [`SessionBuilder::inject_faults`](crate::session::SessionBuilder::inject_faults).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: HashMap<(String, usize, u64), Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Panics the named cell's worker (surfaces as status `panicked`).
    pub fn panic_cell(mut self, scenario: &str, n: usize, message_bytes: u64) -> Self {
        self.faults
            .insert((scenario.to_string(), n, message_bytes), Fault::Panic);
        self
    }

    /// Stalls the named cell until its deadline or a cancellation fires
    /// (surfaces as status `timed-out` or `cancelled`).
    pub fn stall_cell(mut self, scenario: &str, n: usize, message_bytes: u64) -> Self {
        self.faults
            .insert((scenario.to_string(), n, message_bytes), Fault::Stall);
        self
    }

    /// Delays the named cell by `delay` before running it normally (the
    /// cell still reports `ok` with byte-identical measurements).
    pub fn slow_cell(
        mut self,
        scenario: &str,
        n: usize,
        message_bytes: u64,
        delay: Duration,
    ) -> Self {
        self.faults
            .insert((scenario.to_string(), n, message_bytes), Fault::Slow(delay));
        self
    }

    fn fault_for(&self, scenario: &str, n: usize, message_bytes: u64) -> Option<Fault> {
        self.faults
            .get(&(scenario.to_string(), n, message_bytes))
            .copied()
    }
}

/// One grid cell's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: String,
    /// Workload family (`uniform`, `incast`, …).
    pub workload: String,
    /// Topology family (`fat-tree`, `preset`, …).
    pub topology: String,
    /// Rank count.
    pub n: usize,
    /// Per-pair message size in bytes.
    pub message_bytes: u64,
    /// The cell's derived seed (reproduce with `ctnsim sweep … --seed`).
    pub cell_seed: u64,
    /// Mean simulated completion over the measured repetitions, seconds.
    pub mean_secs: f64,
    /// Fastest repetition, seconds.
    pub min_secs: f64,
    /// Slowest repetition, seconds.
    pub max_secs: f64,
    /// The selected model's prediction (the MED lower bound under the
    /// scenario's Hockney fit by default), seconds.
    pub model_secs: f64,
    /// The paper's estimation error `(measured/estimated − 1)·100`.
    pub error_percent: f64,
    /// Terminal status under supervision; non-`Ok` rows carry `NaN`
    /// measurements and the limit or diagnostic that stopped them.
    pub status: CellStatus,
}

/// A whole scenario's results plus its calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Scenario name.
    pub scenario: String,
    /// Fitted Hockney α in seconds (per-message startup).
    pub alpha_secs: f64,
    /// Fitted Hockney β in seconds/byte.
    pub beta_secs_per_byte: f64,
    /// One row per grid cell, in grid order (nodes-major).
    pub cells: Vec<CellResult>,
}

/// SplitMix64-style mixing for per-cell seeds.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic seed of one cell: a pure function of scenario name,
/// base seed and the cell's coordinates (not its position in the grid, so
/// adding grid points does not reseed existing ones).
pub fn cell_seed(scenario: &str, base_seed: u64, n: usize, message_bytes: u64) -> u64 {
    mix(base_seed
        .wrapping_add(fnv1a(scenario.as_bytes()))
        .wrapping_add(mix(n as u64).rotate_left(17))
        .wrapping_add(mix(message_bytes).rotate_left(31)))
}

/// One point of the batch's grid.
struct Cell {
    /// Index of the cell's scenario in the batch.
    scenario: usize,
    n: usize,
    message_bytes: u64,
    seed: u64,
}

/// Predicted relative cost of a cell: `rounds · n² · packets-per-pair ·
/// measured repetitions`. Only the *ordering* matters (longest cells are
/// started first), so crude is fine; `u128` keeps megabyte × high-n grids
/// from overflowing.
fn cell_cost(spec: &ScenarioSpec, cell: &Cell) -> u128 {
    let mtu = spec.transport.to_kind().mtu().max(1) as u64;
    let packets = cell.message_bytes.div_ceil(mtu).max(1);
    let rounds = match &spec.workload {
        crate::spec::WorkloadSpec::Phases { phases } => phases.len().max(1),
        _ => 1,
    } as u128;
    let reps = (spec.sweep.warmup + spec.sweep.reps).max(1) as u128;
    rounds * (cell.n as u128) * (cell.n as u128) * packets as u128 * reps
}

/// One batch's scenarios and their shared fabrics: a lazily built slot
/// per scenario.
///
/// Lifetime rule: a slot fills on first use — a calibration fit on a cache
/// miss, else the scenario's first cell — and is released when the
/// scenario's last cell has reported, so a batch of several large fabrics
/// holds only those with cells still outstanding. Workers hold an `Arc`
/// for the duration of a cell; nothing outlives the batch.
pub(crate) struct BatchFabrics<'a> {
    specs: &'a [ScenarioSpec],
    slots: Vec<Mutex<Option<Arc<Fabric>>>>,
    /// Routed topologies built (presets wire per cell and do not count).
    builds: AtomicU64,
    build_nanos: AtomicU64,
}

impl<'a> BatchFabrics<'a> {
    pub(crate) fn new(specs: &'a [ScenarioSpec]) -> Self {
        Self {
            specs,
            slots: specs.iter().map(|_| Mutex::new(None)).collect(),
            builds: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
        }
    }

    /// The fabric of scenario `spec_idx`, built on first use. Concurrent
    /// first users of one scenario serialize on its slot — one builds, the
    /// rest wait for it — while other scenarios' slots stay independent.
    pub(crate) fn get(&self, spec_idx: usize) -> Result<Arc<Fabric>, SpecError> {
        let mut slot = self.slot(spec_idx);
        if let Some(fabric) = slot.as_ref() {
            return Ok(Arc::clone(fabric));
        }
        let start = Instant::now();
        let fabric = Arc::new(Fabric::build(&self.specs[spec_idx])?);
        if fabric.shared_topology().is_some() {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.build_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        *slot = Some(Arc::clone(&fabric));
        Ok(fabric)
    }

    /// Drops the batch's reference to scenario `spec_idx`'s fabric.
    fn release(&self, spec_idx: usize) {
        self.slot(spec_idx).take();
    }

    /// A slot is written in one assignment, so it is valid even if a
    /// build panicked under the lock: a poisoned slot is still empty, and
    /// the next cell retries the build inside its own panic isolation
    /// (and reports the build's panic, not a lock error).
    fn slot(&self, spec_idx: usize) -> std::sync::MutexGuard<'_, Option<Arc<Fabric>>> {
        self.slots[spec_idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What every cell of one scenario is scored against, and where its rows
/// sit in the batch's grid.
struct Scenario<'a> {
    spec: &'a ScenarioSpec,
    calibration: Calibration,
    /// The scenario's cells: a contiguous, nodes-major run of the grid.
    cells: Range<usize>,
}

impl Scenario<'_> {
    /// The report row of one cell — the only place one is made. `Ok`
    /// carries the measured repetitions' completion times in seconds and
    /// the cell's MED bound; `Err` the status of a cell that produced none
    /// (stopped by a guard, stalled, panicked, or never started), whose
    /// row is coordinates and status with `NaN` measurements. The model
    /// columns are computed the same way for both backends, so the error
    /// column reads as distance-from-bound in both tiers.
    fn row(&self, cell: &Cell, outcome: Result<(&[f64], f64), CellStatus>) -> CellResult {
        let (status, [mean, min, max, model, error]) = match outcome {
            Err(status) => (status, [f64::NAN; 5]),
            Ok((times, bound)) => {
                let mean = times.iter().sum::<f64>() / times.len() as f64;
                let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = times.iter().cloned().fold(0.0f64, f64::max);
                let model = self
                    .calibration
                    .ctx
                    .predict(bound, cell.n, cell.message_bytes);
                // The mean of k equal times may round an ulp or so past
                // them, hence the slack.
                let slack = max * f64::EPSILON * times.len() as f64;
                debug_assert!(
                    !times.is_empty()
                        && times.iter().all(|t| t.is_finite() && *t > 0.0)
                        && min - slack <= mean
                        && mean <= max + slack
                        && model.is_finite()
                        && model > 0.0,
                    "{} n={} m={}: times {times:?}, model {model}",
                    self.spec.name,
                    cell.n,
                    cell.message_bytes,
                );
                let error = estimation_error_percent(mean, model);
                (CellStatus::Ok, [mean, min, max, model, error])
            }
        };
        CellResult {
            scenario: self.spec.name.clone(),
            workload: self.spec.workload.kind().to_string(),
            topology: self.spec.topology.kind().to_string(),
            n: cell.n,
            message_bytes: cell.message_bytes,
            cell_seed: cell.seed,
            mean_secs: mean,
            min_secs: min,
            max_secs: max,
            model_secs: model,
            error_percent: error,
            status,
        }
    }
}

/// Simulates one cell's `programs` and returns its measured completion
/// times, or the interrupt that stopped it, plus the recorder. Generic over
/// the recorder so the `NoopRecorder` instance is the exact engine the
/// goldens pin.
///
/// The packet engine runs warmup plus every repetition on one world under
/// one guard — budgets and the horizon accumulate across them — and stops
/// at the first interrupt. The fluid interpreter is fully deterministic
/// and stateless across repetitions (no queues or transport windows
/// survive a run), so warmup and repeats would reproduce the same number:
/// it runs once.
fn simulate<R: Recorder>(
    spec: &ScenarioSpec,
    fabric: &Fabric,
    cell: &Cell,
    programs: Vec<Vec<Op>>,
    recorder: R,
    guard: RunGuard,
) -> (Result<Vec<f64>, RunInterrupt>, R) {
    match spec.backend {
        Backend::Fluid => {
            let (topo, hosts, mpi) = fabric.fluid_cell(cell.n, cell.seed);
            let (run, recorder) =
                simmpi::FluidWorld::new(&topo, hosts, mpi).try_run_with(programs, recorder, guard);
            (run.map(|r| vec![r.duration_secs()]), recorder)
        }
        Backend::Packet => {
            let mut world = fabric.world_with(cell.n, cell.seed, recorder);
            world.sim_mut().set_guard(guard);
            let mut run = || world.try_run(programs.clone()).map(|r| r.duration_secs());
            let times = (0..spec.sweep.warmup)
                .try_for_each(|_| run().map(drop))
                .and_then(|()| (0..spec.sweep.reps).map(|_| run()).collect());
            (times, world.into_recorder())
        }
    }
}

/// Runs one cell to its report row: derives its traffic once — the
/// programs it simulates and the bound its row is scored against — and
/// picks the recorder: none wanted is the no-op recorder, and both choices
/// produce byte-identical rows. A cell an engine guard stops (or the stall
/// detector flags) comes back with a non-`Ok` [`CellStatus`].
fn run_cell(
    scenario: &Scenario<'_>,
    fabric: &Fabric,
    cell: &Cell,
    session: &Session,
) -> (CellResult, Option<EngineTelemetry>) {
    let guard = session.limits.guard(&session.cancel);
    let spec = scenario.spec;
    let (programs, bound) =
        workload::traffic(&spec.workload, cell.n, cell.message_bytes, cell.seed)
            .scored(&scenario.calibration.hockney);
    let (times, engine) = if session.telemetry {
        let recorder = EngineRecorder::default();
        let (times, mut recorder) = simulate(spec, fabric, cell, programs, recorder, guard);
        (times, Some(recorder.take_telemetry()))
    } else {
        (
            simulate(spec, fabric, cell, programs, NoopRecorder, guard).0,
            None,
        )
    };
    let row = match times {
        Ok(times) => scenario.row(cell, Ok((&times, bound))),
        Err(interrupt) => scenario.row(cell, Err(session.limits.status_of(interrupt))),
    };
    (row, engine)
}

/// The injected-stall cell body: parks the worker until the cell's
/// deadline or the session's cancellation fires, then reports the
/// corresponding status — the analogue of host-side code hanging
/// *outside* the engine, where no event-loop preemption point can reach.
fn stall(limits: &GuardLimits, cancel: &CancelToken) -> CellStatus {
    let deadline = limits.deadline.map(|d| Instant::now() + d);
    loop {
        if cancel.is_cancelled() {
            return CellStatus::Cancelled;
        }
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return CellStatus::TimedOut {
                limit: limits.deadline_limit(),
            };
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What the workers of one run record as their cells finish: one lock
/// guards all of it, observer included, so whichever worker finishes a
/// cell files its row and metrics, tells the observer and, on a batch's
/// last cell, assembles the batch — and no two observer calls overlap.
struct Collected<'o> {
    /// Grid-indexed rows; `None` until the cell reports.
    rows: Vec<Option<CellResult>>,
    /// Each scenario's batch, once its last cell has reported.
    batches: Vec<Option<BatchResult>>,
    workers: Vec<WorkerMetrics>,
    /// Per-cell spans in completion order.
    cells: Vec<CellMetrics>,
    observer: &'o mut (dyn FnMut(RunEvent<'_>) + Send),
}

/// The streaming executor core behind every [`Session`] run: calibrates
/// each scenario, lays the batch's cells out once in grid order, shards an
/// LPT-ordered queue of their indices over `session.workers` workers —
/// the calling thread and `workers − 1` scoped helpers, so one worker
/// spawns no thread — and assembles each batch from the grid-indexed rows.
///
/// Events: `BatchStarted` goes out on the calling thread before any cell
/// runs; each `CellFinished`, and a batch's `BatchFinished` after its last
/// one, goes out on the thread of the worker that finished the cell, in
/// completion order, one call at a time (see `Collected`).
///
/// Supervision: each cell runs under `session.limits` (engine guard)
/// inside a `catch_unwind` isolation boundary, so a cell that times out,
/// exhausts its budget, deadlocks, panics or is cancelled becomes a
/// status row in its batch while its siblings complete normally. Invalid
/// specs and calibration errors fail the whole run with a [`CtnError`],
/// the first in spec order; a run cancelled before any cell started
/// returns [`CtnError::Cancelled`].
///
/// Alongside the batches it returns the run's [`SessionMetrics`] — wall
/// clock, worker occupancy, cache-counter deltas and per-cell spans are
/// always collected; per-cell engine telemetry is attached only when the
/// session records it.
///
/// Every scenario's fabric is built once per batch and shared by its
/// calibration and cells (see [`BatchFabrics`], which also carries the
/// batch's specs).
pub(crate) fn execute(
    session: &Session,
    fabrics: &BatchFabrics<'_>,
    observer: &mut (dyn FnMut(RunEvent<'_>) + Send),
) -> Result<(Vec<BatchResult>, SessionMetrics), CtnError> {
    let specs = fabrics.specs;
    let cancel = &session.cancel;
    let run_start = Instant::now();
    let cache_before = session.cache.stats();
    for spec in specs {
        spec.validate().map_err(CtnError::Spec)?;
    }
    // Uncached fits shard across the workers; errors surface in spec order.
    // Cancellation covers this phase too — an uncached model fit runs
    // whole sample All-to-Alls, so "prompt" must not mean "after tens of
    // seconds of fitting a run nobody wants anymore".
    let calibrations: Vec<Calibration> = parallel_map(
        specs.iter().enumerate().collect(),
        session.workers,
        |(i, spec)| {
            if cancel.is_cancelled() {
                return Err(CtnError::Cancelled);
            }
            let fabric = || fabrics.get(i);
            calibrate(
                &session.cache,
                spec,
                session.base_seed,
                session.model,
                fabric,
            )
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()?;

    let mut grid: Vec<Cell> = Vec::new();
    let mut scenarios: Vec<Scenario<'_>> = Vec::with_capacity(specs.len());
    for (scenario, (spec, calibration)) in specs.iter().zip(calibrations).enumerate() {
        let first = grid.len();
        for &n in &spec.sweep.nodes {
            for &message_bytes in &spec.sweep.message_bytes {
                grid.push(Cell {
                    scenario,
                    n,
                    message_bytes,
                    seed: cell_seed(&spec.name, session.base_seed, n, message_bytes),
                });
            }
        }
        let cells = first..grid.len();
        observer(RunEvent::BatchStarted {
            scenario: &spec.name,
            cells: cells.len(),
        });
        scenarios.push(Scenario {
            spec,
            calibration,
            cells,
        });
    }

    // Cost-aware schedule: workers pop from the *end* of the queue, so
    // ascending cost hands them the most expensive cells first
    // (longest-processing-time order); equal-cost cells pop in grid order.
    // Purely a schedule: rows are stored by grid index, so output bytes
    // cannot depend on it.
    let mut queue: Vec<usize> = (0..grid.len()).collect();
    queue.sort_by_cached_key(|&i| (cell_cost(&specs[grid[i].scenario], &grid[i]), Reverse(i)));
    let queue = Mutex::new(queue);

    // A row still missing when its batch is assembled belongs to a cell a
    // mid-run cancellation left unpopped: it reads `cancelled`, so the
    // partial report still covers the full grid.
    let assemble = |scenario: &Scenario<'_>, rows: &mut [Option<CellResult>]| BatchResult {
        scenario: scenario.spec.name.clone(),
        alpha_secs: scenario.calibration.hockney.alpha_secs,
        beta_secs_per_byte: scenario.calibration.hockney.beta_secs_per_byte,
        cells: (scenario.cells.clone())
            .map(|i| {
                let never_started = || scenario.row(&grid[i], Err(CellStatus::Cancelled));
                rows[i].take().unwrap_or_else(never_started)
            })
            .collect(),
    };
    let spawned = session.workers.min(grid.len());
    let collected = Mutex::new(Collected {
        rows: grid.iter().map(|_| None).collect(),
        batches: specs.iter().map(|_| None).collect(),
        workers: (0..spawned)
            .map(|worker| WorkerMetrics {
                worker,
                ..WorkerMetrics::default()
            })
            .collect(),
        cells: Vec::with_capacity(grid.len()),
        observer,
    });

    let work = |worker: usize| loop {
        if cancel.is_cancelled() {
            break;
        }
        // The popped cell's distance from the end of the schedule is its
        // schedule index (0 popped first). Telemetry only.
        let (index, schedule_index) = {
            let mut queue = queue.lock().expect("queue lock");
            let Some(index) = queue.pop() else { break };
            (index, grid.len() - 1 - queue.len())
        };
        let cell = &grid[index];
        let batch = cell.scenario;
        let scenario = &scenarios[batch];
        let name = &scenario.spec.name;
        let start_secs = run_start.elapsed().as_secs_f64();
        let fault =
            (session.faults.as_ref()).and_then(|f| f.fault_for(name, cell.n, cell.message_bytes));
        // Panic isolation: a panicking cell (injected or real) becomes a
        // `panicked` status row; its siblings keep running on the
        // surviving workers.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(Fault::Panic) => panic!(
                    "injected fault: forced panic in cell {name} n={} m={}",
                    cell.n, cell.message_bytes
                ),
                Some(Fault::Stall) => {
                    let status = stall(&session.limits, cancel);
                    return (scenario.row(cell, Err(status)), None);
                }
                Some(Fault::Slow(delay)) => std::thread::sleep(delay),
                None => {}
            }
            // `execute` validated the spec, and a spec that validates
            // builds (generator_proptests pins it).
            let fabric = fabrics
                .get(batch)
                .unwrap_or_else(|e| panic!("validated spec failed to build: {e}"));
            run_cell(scenario, &fabric, cell, session)
        }));
        let (row, engine) = caught.unwrap_or_else(|payload| {
            let detail = panic_detail(payload.as_ref());
            (
                scenario.row(cell, Err(CellStatus::Panicked { detail })),
                None,
            )
        });
        let metrics = CellMetrics {
            scenario: name.clone(),
            n: cell.n,
            message_bytes: cell.message_bytes,
            worker,
            schedule_index,
            start_secs,
            wall_secs: run_start.elapsed().as_secs_f64() - start_secs,
            status: row.status.name().to_string(),
            engine,
        };
        // The finishing worker records its cell and tells the observer,
        // all under one lock: events go out as rows land, one at a time.
        let mut done = collected.lock().expect("collected cells lock");
        let Collected {
            rows,
            batches,
            workers,
            cells,
            observer,
        } = &mut *done;
        let total = scenario.cells.len();
        let completed = 1 + rows[scenario.cells.clone()].iter().flatten().count();
        observer(RunEvent::CellFinished {
            scenario: name,
            cell: &row,
            metrics: &metrics,
            completed,
            total,
        });
        rows[index] = Some(row);
        let w = &mut workers[worker];
        w.cells += 1;
        w.busy_secs += metrics.wall_secs;
        cells.push(metrics);
        if completed == total {
            // Nothing will ask for this scenario's fabric again, so let it
            // go before the rest of the batch runs on.
            fabrics.release(batch);
            observer(RunEvent::BatchFinished {
                scenario: name,
                batch: batches[batch].insert(assemble(scenario, rows)),
            });
        }
    };
    // The calling thread is worker 0; only the other workers get threads,
    // so a one-worker run spawns none.
    std::thread::scope(|scope| {
        for worker in 1..spawned {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });

    let Collected {
        mut rows,
        batches,
        workers: worker_metrics,
        cells: mut cell_metrics,
        ..
    } = collected.into_inner().expect("collected cells lock");
    let batches = (batches.into_iter().zip(&scenarios))
        .map(|(batch, scenario)| {
            batch.unwrap_or_else(|| {
                debug_assert!(cancel.is_cancelled(), "only cancellation drops cells");
                assemble(scenario, &mut rows)
            })
        })
        .collect();
    // Cells arrived in completion order; report them in schedule order so
    // the LPT decisions read straight off the snapshot.
    cell_metrics.sort_by_key(|c| c.schedule_index);
    let metrics = SessionMetrics {
        wall_secs: run_start.elapsed().as_secs_f64(),
        workers: worker_metrics,
        cache: session.cache.stats().since(&cache_before),
        fabric_builds: fabrics.builds.load(Ordering::Relaxed),
        fabric_build_secs: fabrics.build_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        cells: cell_metrics,
    };
    Ok((batches, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::by_name;
    use crate::report::ReportFormat;
    use crate::session::Session;

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = by_name("incast-burst").unwrap();
        let s1 = Session::builder().workers(1).base_seed(7).build().unwrap();
        let s4 = Session::builder().workers(4).base_seed(7).build().unwrap();
        let r1 = s1.run(&spec).unwrap();
        let r4 = s4.run(&spec).unwrap();
        assert_eq!(r1.batches, r4.batches);
        let csv1 = r1.render(ReportFormat::Csv);
        let csv4 = r4.render(ReportFormat::Csv);
        assert_eq!(csv1, csv4, "CSV must be byte-identical across workers");
    }

    /// A cheap four-cell incast under `name`.
    fn small_incast(name: &str) -> ScenarioSpec {
        let mut spec = by_name("incast-burst").unwrap();
        spec.name = name.to_string();
        spec.sweep.nodes = vec![4, 8];
        spec.sweep.message_bytes = vec![16 * 1024, 64 * 1024];
        spec.sweep.reps = 1;
        spec.sweep.warmup = 0;
        spec
    }

    #[test]
    fn a_one_worker_session_calls_the_observer_on_the_calling_thread() {
        let session = Session::builder().workers(1).build().unwrap();
        let caller = std::thread::current().id();
        let mut calls = 0usize;
        session
            .run_many_with(&[small_incast("a"), small_incast("b")], &mut |_| {
                assert_eq!(std::thread::current().id(), caller);
                calls += 1;
            })
            .unwrap();
        // Two batches: a start, four cells and a finish each.
        assert_eq!(calls, 12);
        let metrics = session.metrics().unwrap();
        assert_eq!(metrics.workers.len(), 1);
        assert_eq!(metrics.workers[0].cells, 8);
    }

    #[test]
    fn observer_calls_never_overlap() {
        let session = Session::builder().workers(2).build().unwrap();
        let inside = std::sync::atomic::AtomicBool::new(false);
        session
            .run_many_with(&[small_incast("a"), small_incast("b")], &mut |_| {
                assert!(!inside.swap(true, Ordering::SeqCst), "observer re-entered");
                // Widen the window another worker's event would hit.
                std::thread::sleep(Duration::from_millis(2));
                inside.store(false, Ordering::SeqCst);
            })
            .unwrap();
    }

    #[test]
    fn each_batch_counts_its_cells_in_order_and_finishes_after_them() {
        let session = Session::builder().workers(2).build().unwrap();
        let specs = [small_incast("a"), small_incast("b")];
        // Per scenario: the `completed` counts seen, then `None` for its
        // `BatchFinished`.
        let mut seen: HashMap<String, Vec<Option<usize>>> = HashMap::new();
        session
            .run_many_with(&specs, &mut |event| match event {
                RunEvent::BatchStarted { .. } => {}
                RunEvent::CellFinished {
                    scenario,
                    completed,
                    total,
                    ..
                } => {
                    assert_eq!(total, 4);
                    seen.entry(scenario.to_string())
                        .or_default()
                        .push(Some(completed));
                }
                RunEvent::BatchFinished { scenario, batch } => {
                    assert_eq!(batch.cells.len(), 4);
                    seen.entry(scenario.to_string()).or_default().push(None);
                }
            })
            .unwrap();
        assert_eq!(seen.len(), 2);
        for (scenario, events) in seen {
            assert_eq!(
                events,
                [Some(1), Some(2), Some(3), Some(4), None],
                "{scenario}"
            );
        }
    }

    #[test]
    fn a_deadlock_during_calibration_is_a_typed_error() {
        // CI's robustness trap: GM never retransmits, so a window larger
        // than an 8 KiB / 16 KiB switch stalls any contended exchange —
        // including the signature fit's sample All-to-Alls, which run
        // before (and outside the panic isolation of) every cell.
        let trap = crate::builder::ScenarioBuilder::new("gm-finite-buffer-trap")
            .single_switch(
                4,
                simnet::config::LinkConfig::gigabit_ethernet(),
                simnet::config::SwitchConfig {
                    shared_buffer_bytes: 16 * 1024,
                    per_port_cap_bytes: 8 * 1024,
                },
            )
            .gm(1 << 20)
            .incast(1)
            .nodes([4])
            .message_bytes([256 * 1024])
            .build()
            .unwrap();
        let session = Session::builder()
            .workers(1)
            .model(ModelKind::Signature)
            .build()
            .unwrap();
        match session.run(&trap) {
            Err(CtnError::Calibration { scenario, detail }) => {
                assert_eq!(scenario, "gm-finite-buffer-trap");
                assert!(detail.contains("deadlock"), "{detail}");
            }
            other => panic!("expected a calibration error, got {other:?}"),
        }
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a = cell_seed("x", 1, 4, 1024);
        assert_eq!(a, cell_seed("x", 1, 4, 1024));
        assert_ne!(a, cell_seed("x", 1, 8, 1024));
        assert_ne!(a, cell_seed("x", 1, 4, 2048));
        assert_ne!(a, cell_seed("y", 1, 4, 1024));
        assert_ne!(a, cell_seed("x", 2, 4, 1024));
    }

    #[test]
    fn batch_grid_is_complete_and_ordered() {
        let spec = by_name("incast-burst").unwrap();
        let session = Session::builder().workers(2).base_seed(3).build().unwrap();
        let r = &session.run(&spec).unwrap().batches[0];
        assert_eq!(
            r.cells.len(),
            spec.sweep.nodes.len() * spec.sweep.message_bytes.len()
        );
        let mut expected = Vec::new();
        for &n in &spec.sweep.nodes {
            for &m in &spec.sweep.message_bytes {
                expected.push((n, m));
            }
        }
        let got: Vec<(usize, u64)> = r.cells.iter().map(|c| (c.n, c.message_bytes)).collect();
        assert_eq!(got, expected);
        for c in &r.cells {
            assert!(c.mean_secs > 0.0 && c.model_secs > 0.0);
            assert!(c.min_secs <= c.mean_secs && c.mean_secs <= c.max_secs);
            assert!(
                c.mean_secs >= c.model_secs * 0.99,
                "simulation beat the lower bound: {c:?}"
            );
        }
    }

    #[test]
    fn a_finished_scenarios_fabric_is_released_before_the_batch_ends() {
        // Two generated fabrics in one batch on one worker. Whichever
        // scenario reports its last cell first must have given its
        // fabric back by the time its `BatchFinished` goes out — while
        // the other still has cells to run — and every slot is empty at
        // the end.
        let trimmed = |name: &str| {
            let mut spec = by_name(name).unwrap();
            spec.sweep.nodes.truncate(2);
            spec.sweep.message_bytes.truncate(1);
            spec.sweep.reps = 1;
            spec.sweep.warmup = 0;
            spec.backend = Backend::Fluid;
            spec
        };
        let specs = [
            trimmed("dragonfly-adversarial-uniform"),
            trimmed("torus-neighbor-exchange"),
        ];
        let fabrics = BatchFabrics::new(&specs);
        let built = |i: usize| fabrics.slot(i).is_some();
        let session = Session::builder().workers(1).build().unwrap();
        let mut finished: Vec<String> = Vec::new();
        let mut observer = |event: RunEvent<'_>| {
            if let RunEvent::BatchFinished { scenario, .. } = event {
                let idx = specs.iter().position(|s| s.name == scenario).unwrap();
                assert!(!built(idx), "{scenario}: fabric outlived its last cell");
                if finished.is_empty() {
                    assert!(
                        built(1 - idx),
                        "the other scenario still has cells, hence a fabric"
                    );
                }
                finished.push(scenario.to_string());
            }
        };
        let (batches, metrics) = execute(&session, &fabrics, &mut observer).unwrap();
        assert_eq!(finished.len(), 2);
        assert_eq!(batches.len(), 2);
        assert_eq!(metrics.fabric_builds, 2);
        assert!(!built(0) && !built(1));
    }

    #[test]
    fn concurrent_first_users_of_a_scenario_build_its_fabric_once() {
        let specs = [by_name("fat-tree-uniform").unwrap()];
        let fabrics = BatchFabrics::new(&specs);
        let start = std::sync::Barrier::new(4);
        let got: Vec<Arc<Fabric>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        fabrics.get(0).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(fabrics.builds.load(Ordering::Relaxed), 1);
        for fabric in &got[1..] {
            assert!(Arc::ptr_eq(fabric, &got[0]));
        }
        // The slot and the four users hold the only references, and the
        // routed topology itself is never copied.
        assert_eq!(Arc::strong_count(&got[0]), 5);
        assert_eq!(Arc::strong_count(got[0].shared_topology().unwrap()), 1);
    }

    #[test]
    fn calibration_cache_is_transparent() {
        let spec = by_name("incast-burst").unwrap();
        let cache = Arc::new(crate::session::CalibrationCache::new());
        let fit = |seed: u64| {
            let session = Session::builder()
                .base_seed(seed)
                .shared_cache(Arc::clone(&cache));
            session.build().unwrap().calibrate_hockney(&spec).unwrap()
        };
        let a = fit(123);
        let b = fit(123);
        assert_eq!(a, b, "memoized fit must equal the fresh fit");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        let c = fit(124);
        assert_ne!(a, c, "different seed must not hit the same cache entry");
        assert_eq!(cache.hockney_entries(), 2);
    }

    #[test]
    fn cost_key_orders_big_cells_first() {
        let spec = by_name("incast-burst").unwrap();
        let cell = |n: usize, message_bytes: u64| Cell {
            scenario: 0,
            n,
            message_bytes,
            seed: 0,
        };
        assert!(cell_cost(&spec, &cell(16, 512 * 1024)) > cell_cost(&spec, &cell(4, 128 * 1024)));
    }

    #[test]
    fn signature_prediction_is_independent_of_the_sweep_grid() {
        // The signature is a property of the network: the same (scenario,
        // seed, n, m) cell must get the same prediction no matter what
        // other grid points ride along.
        let base = by_name("incast-burst").unwrap();
        let session = Session::builder()
            .workers(1)
            .base_seed(11)
            .model(ModelKind::Signature)
            .build()
            .unwrap();
        let mut narrow = base.clone();
        narrow.sweep.nodes = vec![4];
        narrow.sweep.message_bytes = vec![64 * 1024];
        narrow.sweep.reps = 1;
        narrow.sweep.warmup = 0;
        let mut wide = base.clone();
        wide.sweep.nodes = vec![4, 16];
        wide.sweep.message_bytes = vec![64 * 1024];
        wide.sweep.reps = 1;
        wide.sweep.warmup = 0;
        let narrow_r = session.run(&narrow).unwrap();
        let wide_r = session.run(&wide).unwrap();
        assert_eq!(
            narrow_r.batches[0].cells[0], wide_r.batches[0].cells[0],
            "widening the grid must not move an existing cell's prediction"
        );
    }

    #[test]
    fn signature_and_saturation_models_produce_finite_errors() {
        let mut spec = by_name("incast-burst").unwrap();
        // One cheap cell is enough to exercise the predictors.
        spec.sweep.nodes = vec![4];
        spec.sweep.message_bytes = vec![64 * 1024];
        spec.sweep.reps = 1;
        spec.sweep.warmup = 0;
        let med_session = Session::builder().workers(1).base_seed(5).build().unwrap();
        let med = med_session.run(&spec).unwrap();
        for model in [ModelKind::Signature, ModelKind::Saturation] {
            let session = Session::builder()
                .workers(1)
                .base_seed(5)
                .model(model)
                .build()
                .unwrap();
            let r = session.run(&spec).unwrap();
            let cell = &r.batches[0].cells[0];
            assert!(
                cell.model_secs.is_finite() && cell.model_secs > 0.0,
                "{}: {cell:?}",
                model.name()
            );
            assert!(cell.error_percent.is_finite());
            // The measured columns must not depend on the model choice.
            assert_eq!(
                cell.mean_secs,
                med.batches[0].cells[0].mean_secs,
                "{}",
                model.name()
            );
            // Contention-aware predictors never undercut the lower bound.
            assert!(
                cell.model_secs >= med.batches[0].cells[0].model_secs * 0.999,
                "{}: {} < MED {}",
                model.name(),
                cell.model_secs,
                med.batches[0].cells[0].model_secs
            );
        }
    }
}
