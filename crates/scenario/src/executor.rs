//! The parallel batch executor: expands scenario × grid products into
//! cells, shards them across worker threads, and attaches model-error
//! columns.
//!
//! Determinism contract: a cell's result depends only on `(scenario name,
//! base seed, n, message bytes)` — never on the worker count, the
//! schedule, the calibration cache's state, or whether anyone observes
//! the run — so `--workers 1` and `--workers 8` produce byte-identical
//! reports. The work queue is one flat LIFO across *all* scenarios of a
//! batch, so a wide scenario cannot serialize a narrow one behind it.
//!
//! Three schedule-level optimizations ride on top of that contract (none
//! can change a single output byte):
//!
//! * **cost-aware ordering** — cells vary ~100× in simulation cost, so the
//!   queue is sorted by a predicted cost key (`rounds · n² ·
//!   ceil(m/mtu) · reps`) and the workers start the most expensive cells
//!   first. The classic LPT heuristic: the makespan is no longer hostage
//!   to a megabyte-grid cell popping last. Results are regrouped into
//!   grid order afterwards.
//! * **calibration caching** — every fit is a pure function of the fabric
//!   (topology + transport + MPI overrides) and its derived seed, so a
//!   [`CalibrationCache`] keyed by (fabric fingerprint, seed) means
//!   repeated runs over the same specs fit each fabric once. The cache is
//!   *session-owned* (see [`crate::session`]); nothing in this crate is
//!   process-global.
//! * **one fabric per scenario** — a generated topology is a pure function
//!   of its spec (the seed enters through placement and the MPI/transport
//!   streams, never the wiring or the routes), and building it — BFS plus
//!   the all-pairs route table — used to be repeated by the Hockney fit,
//!   every sample All-to-All and every cell (45 % of a 192-cell sweep on a
//!   128-host dragonfly). Each scenario of a batch now has one lazily
//!   built [`Fabric`] slot that all of them share *by reference*: packet
//!   simulators clone the `Arc<Topology>`, fluid worlds borrow it, nothing
//!   copies the route table. Lifetime rule: the slot fills on first use
//!   and is released when the scenario's last cell has reported, so a
//!   batch of large fabrics keeps only the ones still in use; nothing
//!   outlives the batch — a longer-lived fabric cache would need a size
//!   bound someone has to tune. Presets wire a handful of switches as a
//!   function of the rank count and keep doing so per cell.
//!
//! This module is the cell-level machinery; the one way to run it is a
//! [`Session`](crate::session::Session).

use crate::error::CtnError;
use crate::metrics::{CellMetrics, SessionMetrics, WorkerMetrics};
use crate::session::{CalibrationCache, CancelToken, RunEvent};
use crate::spec::{Backend, ScenarioSpec, SpecError};
use crate::topology::{self, Fabric};
use crate::workload;
use contention_model::hockney::HockneyParams;
use contention_model::metrics::estimation_error_percent;
use contention_model::saturation::SaturationModel;
use contention_model::signature::ContentionSignature;
use simmpi::harness::try_ping_pong;
use simmpi::runner::parallel_map;
use simmpi::world::{RunInterrupt, World};
use simnet::guard::{GuardStop, RunGuard};
use simnet::obs::{EngineRecorder, EngineTelemetry, NoopRecorder, Recorder, TelemetryConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// Wall-clock ceiling per cell.
    pub deadline: Option<Duration>,
    /// Engine-event budget per cell (rate recomputations in the fluid
    /// tier).
    pub event_budget: Option<u64>,
    /// Simulated-time ceiling per cell.
    pub sim_horizon: Option<Duration>,
}

impl GuardLimits {
    /// True when no limit is set (the default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.event_budget.is_none() && self.sim_horizon.is_none()
    }

    /// The engine guard for one cell. The deadline is anchored at the
    /// call (`now + deadline`), so build the guard when the cell starts.
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

/// Executor configuration: the policy a
/// [`Session`](crate::session::Session) is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads sharing the cell queue.
    pub workers: usize,
    /// Base seed; every cell derives its own stream.
    pub base_seed: u64,
    /// Predictor behind the `model_secs` / `error_percent` columns.
    pub model: ModelKind,
    /// Per-cell supervision limits (default unlimited).
    pub limits: GuardLimits,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            workers: simmpi::runner::default_workers(),
            base_seed: 42,
            model: ModelKind::Med,
            limits: GuardLimits::default(),
        }
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
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn name_hash(name: &str) -> u64 {
    crate::spec::fnv1a(name.as_bytes())
}

/// The deterministic seed of one cell: a pure function of scenario name,
/// base seed and the cell's coordinates (not its position in the grid, so
/// adding grid points does not reseed existing ones).
pub fn cell_seed(scenario: &str, base_seed: u64, n: usize, message_bytes: u64) -> u64 {
    mix(base_seed
        .wrapping_add(name_hash(scenario))
        .wrapping_add(mix(n as u64).rotate_left(17))
        .wrapping_add(mix(message_bytes).rotate_left(31)))
}

struct Cell {
    spec_idx: usize,
    /// Position in the deterministic nodes-major output order, across the
    /// whole batch.
    flat_idx: usize,
    /// Position in the cost-aware execution schedule (0 pops first);
    /// assigned after the LPT sort. Telemetry only — never affects output.
    schedule_index: usize,
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

/// The message of a fabric-build [`SpecError`] without its `invalid
/// scenario:` display prefix: it becomes the `detail` of a
/// [`CtnError::Calibration`] / [`CtnError::Execution`], whose own display
/// already says which phase failed and for which scenario.
fn spec_error_detail(e: SpecError) -> String {
    match e {
        SpecError::Invalid(m) => m,
        other => other.to_string(),
    }
}

/// One batch's scenarios and their shared fabrics: a lazily built slot
/// per scenario, next to `hockneys[spec_idx]` / `ctxs[spec_idx]`.
///
/// Lifetime rule: a slot fills on first use — the Hockney fit on a cache
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

/// The fabric source of a calibration outside any batch: built from
/// scratch if the fit misses the cache, dropped with the fit's world.
pub(crate) fn fresh_fabric(
    spec: &ScenarioSpec,
) -> impl FnOnce() -> Result<Arc<Fabric>, SpecError> + '_ {
    move || Fabric::build(spec).map(Arc::new)
}

/// Measures the scenario's Hockney parameters: a 2-rank ping-pong on the
/// scenario's own fabric across the standard fit sizes. Cheap (seconds of
/// simulated time on two hosts) and faithful to the paper's procedure.
/// Fits are memoized per (fabric fingerprint, seed) in `cache`; `fabric`
/// is only called on a miss.
pub(crate) fn hockney_fit(
    cache: &CalibrationCache,
    spec: &ScenarioSpec,
    base_seed: u64,
    fabric: impl FnOnce() -> Result<Arc<Fabric>, SpecError>,
) -> Result<HockneyParams, CtnError> {
    let seed = mix(base_seed ^ name_hash(&spec.name));
    let key = (spec.fabric_fingerprint(), seed);
    if let Some(hit) = cache.hockney.lock().expect("cache lock").get(&key) {
        cache.note_hit();
        return Ok(*hit);
    }
    cache.note_miss();
    let sizes = [1024u64, 16 * 1024, 131_072, 524_288, 1_048_576];
    let fabric = fabric().map_err(|e| CtnError::calibration(&spec.name, spec_error_detail(e)))?;
    let mut world = fabric.world_with(2, seed, NoopRecorder);
    let points: Vec<(u64, f64)> = try_ping_pong(&mut world, 0, 1, &sizes, 3)
        .map_err(|i| CtnError::calibration(&spec.name, format!("Hockney ping-pong: {i}")))?
        .into_iter()
        .map(|p| (p.size, p.half_rtt_secs))
        .collect();
    let fit = HockneyParams::fit(&points)
        .map_err(|e| CtnError::calibration(&spec.name, format!("Hockney fit failed: {e}")))?;
    cache.hockney.lock().expect("cache lock").insert(key, fit);
    cache.note_insert();
    Ok(fit)
}

/// A per-scenario prediction context: the Hockney fit plus whatever extra
/// calibration the selected model needs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ModelCtx {
    Med,
    Signature(ContentionSignature),
    Saturation(SaturationModel),
}

/// Uniform direct All-to-All completion times on the scenario's fabric —
/// the sample measurements the signature and saturation fits regress on
/// (the paper's §8 procedure: the signature belongs to the *network*, so
/// it is always fitted on the uniform exchange). A sample that stalls — GM
/// on a finite-buffer fabric never retransmits — is the calibration's
/// failure, carrying the stall diagnostic; it runs outside any cell's
/// panic isolation, so it must not panic.
fn sample_alltoall(
    spec: &ScenarioSpec,
    fabric: &Fabric,
    n: usize,
    sizes: &[u64],
    seed: u64,
) -> Result<Vec<(u64, f64)>, CtnError> {
    let algo = workload::algorithm_by_name("direct").expect("built-in algorithm");
    let mut world = fabric.world_with(n, seed, NoopRecorder);
    sizes
        .iter()
        .map(|&m| {
            let run = world.try_run(algo.programs(n, m)).map_err(|i| {
                CtnError::calibration(&spec.name, format!("sample All-to-All ({n} x {m} B): {i}"))
            })?;
            Ok((m, run.duration_secs()))
        })
        .collect()
}

/// Fits (or recalls) the extra calibration the selected model needs. The
/// signature and saturation fits run whole sample All-to-Alls (~100× a
/// ping-pong), so the memo in `cache` matters even more than for the
/// Hockney fit. Sound because the fit depends only on the fabric (its
/// capacity-derived sample sizes included) and the derived seed — never
/// on the sweep grid. `fabric` is only called on a miss.
pub(crate) fn model_ctx(
    cache: &CalibrationCache,
    spec: &ScenarioSpec,
    hockney: HockneyParams,
    base_seed: u64,
    model: ModelKind,
    fabric: impl FnOnce() -> Result<Arc<Fabric>, SpecError>,
) -> Result<ModelCtx, CtnError> {
    if matches!(model, ModelKind::Med) {
        return Ok(ModelCtx::Med);
    }
    let seed = mix(base_seed ^ name_hash(&spec.name) ^ 0x5160_2A7E);
    let key = (spec.fabric_fingerprint(), seed, model.name());
    if let Some(hit) = cache.model.lock().expect("cache lock").get(&key) {
        cache.note_hit();
        return Ok(*hit);
    }
    cache.note_miss();
    let fit_err = |e: contention_model::error::ModelError| {
        CtnError::calibration(&spec.name, format!("{} fit failed: {e}", model.name()))
    };
    let capacity = topology::capacity(&spec.topology).map_err(CtnError::Spec)?;
    let fabric = fabric().map_err(|e| CtnError::calibration(&spec.name, spec_error_detail(e)))?;
    let ctx = match model {
        ModelKind::Med => unreachable!("handled above"),
        ModelKind::Signature => {
            // One sample node count (the paper's n′), ≥4 message sizes.
            // Derived from the fabric's capacity — never from the sweep
            // grid — so the same (scenario, seed, n, m) cell keeps the
            // same prediction no matter what else the grid contains.
            let sample_n = capacity.clamp(2, 8);
            let sizes = [64 * 1024u64, 128 * 1024, 256 * 1024, 512 * 1024, 1_048_576];
            let samples = sample_alltoall(spec, &fabric, sample_n, &sizes, seed)?;
            ContentionSignature::fit(hockney, sample_n, &samples)
                .map(ModelCtx::Signature)
                .map_err(fit_err)?
        }
        ModelKind::Saturation => {
            // Several node counts so the γ(n) ramp is identifiable. On
            // tiny fabrics the standard rungs collapse to [2]; fall back
            // to the capacity itself so any ≥3-host topology still fits.
            let mut ladder: Vec<usize> = [2usize, 4, 8]
                .into_iter()
                .filter(|&n| n <= capacity)
                .collect();
            if ladder.len() < 2 && capacity >= 3 && !ladder.contains(&capacity) {
                ladder.push(capacity);
            }
            if ladder.len() < 2 {
                return Err(CtnError::calibration(
                    &spec.name,
                    format!("topology capacity {capacity} too small for a saturation fit"),
                ));
            }
            let sizes = [128 * 1024u64, 512 * 1024, 1_048_576];
            let mut samples = Vec::with_capacity(ladder.len() * sizes.len());
            for &n in &ladder {
                for (m, t) in sample_alltoall(spec, &fabric, n, &sizes, mix(seed ^ n as u64))? {
                    samples.push((n, m, t));
                }
            }
            SaturationModel::fit(hockney, &samples)
                .map(ModelCtx::Saturation)
                .map_err(fit_err)?
        }
    };
    cache.model.lock().expect("cache lock").insert(key, ctx);
    cache.note_insert();
    Ok(ctx)
}

impl ModelCtx {
    /// The selected model's completion-time prediction for one cell. Every
    /// predictor scales the workload's MED bound, so irregular exchanges
    /// are handled uniformly; for the uniform All-to-All the signature
    /// form reduces exactly to the paper's eq. 5.
    fn predict(&self, med_bound: f64, n: usize, m: u64) -> f64 {
        match self {
            ModelCtx::Med => med_bound,
            ModelCtx::Signature(sig) => {
                let delta = if sig.delta_active(m) {
                    (n.saturating_sub(1)) as f64 * sig.delta_secs
                } else {
                    0.0
                };
                med_bound * sig.gamma + delta
            }
            ModelCtx::Saturation(sat) => med_bound * sat.gamma_at(n),
        }
    }
}

/// The report row of a cell the supervision layer stopped: coordinates
/// and status only, `NaN` measurements.
fn stopped_cell(spec: &ScenarioSpec, cell: &Cell, status: CellStatus) -> CellResult {
    CellResult {
        scenario: spec.name.clone(),
        workload: spec.workload.kind().to_string(),
        topology: spec.topology.kind().to_string(),
        n: cell.n,
        message_bytes: cell.message_bytes,
        cell_seed: cell.seed,
        mean_secs: f64::NAN,
        min_secs: f64::NAN,
        max_secs: f64::NAN,
        model_secs: f64::NAN,
        error_percent: f64::NAN,
        status,
    }
}

/// What every cell of one scenario runs on: the spec, its shared fabric
/// and its calibration.
#[derive(Clone, Copy)]
struct Scenario<'a> {
    spec: &'a ScenarioSpec,
    fabric: &'a Fabric,
    hockney: &'a HockneyParams,
    ctx: &'a ModelCtx,
}

/// Simulates one cell, dispatching on the spec's backend and on whether
/// telemetry is wanted. The packet/`None` arm runs the no-op recorder —
/// the exact engine the goldens pin — and both telemetry arms produce
/// byte-identical [`CellResult`]s. A cell an engine guard stops (or the
/// stall detector flags) comes back with a non-`Ok` [`CellStatus`].
fn run_cell(
    scenario: Scenario<'_>,
    cell: &Cell,
    telemetry: Option<&TelemetryConfig>,
    limits: &GuardLimits,
    cancel: &CancelToken,
) -> (CellResult, Option<EngineTelemetry>) {
    if scenario.spec.backend == Backend::Fluid {
        return run_cell_fluid(scenario, cell, telemetry, limits, cancel);
    }
    match telemetry {
        None => {
            let (result, _world) = run_cell_in(scenario, cell, NoopRecorder, limits, cancel);
            (result, None)
        }
        Some(cfg) => {
            let recorder = EngineRecorder::new(cfg.clone());
            let (result, mut world) = run_cell_in(scenario, cell, recorder, limits, cancel);
            let engine = world.sim_mut().recorder_mut().take_telemetry();
            (result, Some(engine))
        }
    }
}

/// The fluid-tier cell path: borrows the scenario's routed topology and
/// interprets the cell's programs flow-by-flow. The fluid interpreter is fully
/// deterministic and stateless across repetitions (no queues or
/// transport windows survive a run), so warmup and repeated measurements
/// would reproduce the same number — one run fills mean = min = max.
/// Model columns are computed exactly as on the packet path, so the
/// error column reads as distance-from-bound in both tiers.
fn run_cell_fluid(
    scenario: Scenario<'_>,
    cell: &Cell,
    telemetry: Option<&TelemetryConfig>,
    limits: &GuardLimits,
    cancel: &CancelToken,
) -> (CellResult, Option<EngineTelemetry>) {
    let Scenario {
        spec,
        fabric,
        hockney,
        ctx,
    } = scenario;
    let (topo, hosts, mpi) = fabric.fluid_cell(cell.n, cell.seed);
    let world = simmpi::FluidWorld::new(&topo, hosts, mpi);
    let programs = workload::programs(&spec.workload, cell.n, cell.message_bytes, cell.seed);
    let guard = limits.guard(cancel);
    let (outcome, engine) = match telemetry {
        None => (world.try_run(programs, guard), None),
        Some(cfg) => {
            let (outcome, mut recorder) =
                world.try_run_with(programs, EngineRecorder::new(cfg.clone()), guard);
            (outcome, Some(recorder.take_telemetry()))
        }
    };
    let result = match outcome {
        Ok(r) => r,
        Err(interrupt) => {
            return (
                stopped_cell(spec, cell, limits.status_of(interrupt)),
                engine,
            );
        }
    };
    let secs = result.duration_secs();
    let med_bound = workload::model_bound(
        &spec.workload,
        cell.n,
        cell.message_bytes,
        cell.seed,
        hockney,
    );
    let model = ctx.predict(med_bound, cell.n, cell.message_bytes);
    let result = CellResult {
        scenario: spec.name.clone(),
        workload: spec.workload.kind().to_string(),
        topology: spec.topology.kind().to_string(),
        n: cell.n,
        message_bytes: cell.message_bytes,
        cell_seed: cell.seed,
        mean_secs: secs,
        min_secs: secs,
        max_secs: secs,
        model_secs: model,
        error_percent: estimation_error_percent(secs, model),
        status: CellStatus::Ok,
    };
    (result, engine)
}

fn run_cell_in<R: Recorder>(
    scenario: Scenario<'_>,
    cell: &Cell,
    recorder: R,
    limits: &GuardLimits,
    cancel: &CancelToken,
) -> (CellResult, World<R>) {
    let Scenario {
        spec,
        fabric,
        hockney,
        ctx,
    } = scenario;
    let mut world = fabric.world_with(cell.n, cell.seed, recorder);
    // One guard installation spans the whole cell: budgets and the
    // horizon accumulate across warmup and every repetition.
    world.sim_mut().set_guard(limits.guard(cancel));
    let programs = workload::programs(&spec.workload, cell.n, cell.message_bytes, cell.seed);
    let mut interrupted = None;
    for _ in 0..spec.sweep.warmup {
        if let Err(i) = world.try_run(programs.clone()) {
            interrupted = Some(i);
            break;
        }
    }
    let mut times: Vec<f64> = Vec::with_capacity(spec.sweep.reps);
    if interrupted.is_none() {
        for _ in 0..spec.sweep.reps {
            match world.try_run(programs.clone()) {
                Ok(r) => times.push(r.duration_secs()),
                Err(i) => {
                    interrupted = Some(i);
                    break;
                }
            }
        }
    }
    if let Some(interrupt) = interrupted {
        return (stopped_cell(spec, cell, limits.status_of(interrupt)), world);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let med_bound = workload::model_bound(
        &spec.workload,
        cell.n,
        cell.message_bytes,
        cell.seed,
        hockney,
    );
    let model = ctx.predict(med_bound, cell.n, cell.message_bytes);
    let result = CellResult {
        scenario: spec.name.clone(),
        workload: spec.workload.kind().to_string(),
        topology: spec.topology.kind().to_string(),
        n: cell.n,
        message_bytes: cell.message_bytes,
        cell_seed: cell.seed,
        mean_secs: mean,
        min_secs: min,
        max_secs: max,
        model_secs: model,
        error_percent: estimation_error_percent(mean, model),
        status: CellStatus::Ok,
    };
    (result, world)
}

/// The injected-stall cell body: parks the worker until the cell's
/// deadline or the session's cancellation fires, then reports the
/// corresponding status — the analogue of host-side code hanging
/// *outside* the engine, where no event-loop preemption point can reach.
fn stalled_cell(
    spec: &ScenarioSpec,
    cell: &Cell,
    limits: &GuardLimits,
    cancel: &CancelToken,
) -> CellResult {
    let deadline = limits.deadline.map(|d| Instant::now() + d);
    loop {
        if cancel.is_cancelled() {
            return stopped_cell(spec, cell, CellStatus::Cancelled);
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return stopped_cell(
                    spec,
                    cell,
                    CellStatus::TimedOut {
                        limit: limits.deadline_limit(),
                    },
                );
            }
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

/// One worker's report of one simulated cell: the measurement plus the
/// telemetry meta the collector folds into [`SessionMetrics`].
struct CellReport {
    spec_idx: usize,
    flat_idx: usize,
    worker: usize,
    schedule_index: usize,
    start_secs: f64,
    wall_secs: f64,
    outcome: Result<(CellResult, Option<EngineTelemetry>), CtnError>,
}

/// The streaming executor core behind every [`Session`] run: calibrates,
/// queues the flat LPT-ordered cell list, shards it over `cfg.workers`
/// scoped threads, forwards [`RunEvent`]s to `observer` (on the calling
/// thread, in completion order) as results land, and reassembles batches
/// in deterministic nodes-major order.
///
/// Supervision: each cell runs under `cfg.limits` (engine guard) inside
/// a `catch_unwind` isolation boundary, so a cell that times out,
/// exhausts its budget, deadlocks, panics or is cancelled becomes a
/// status row in its batch while its siblings complete normally. Hard
/// failures (invalid builds, calibration errors) still fail the whole
/// run with a [`CtnError`]; a run cancelled before anything started
/// still returns [`CtnError::Cancelled`].
///
/// Alongside the batches it returns the run's [`SessionMetrics`] — wall
/// clock, worker occupancy, cache-counter deltas and per-cell spans are
/// always collected; per-cell engine telemetry is attached only when
/// `telemetry` is set (the `None` path runs the no-op recorder the
/// goldens pin).
///
/// Every scenario's fabric is built once per batch and shared by its
/// calibrations and cells (see [`BatchFabrics`], which also carries the
/// batch's specs).
///
/// [`Session`]: crate::session::Session
pub(crate) fn execute(
    fabrics: &BatchFabrics<'_>,
    cfg: &BatchConfig,
    cache: &CalibrationCache,
    telemetry: Option<&TelemetryConfig>,
    faults: Option<&FaultPlan>,
    observer: &mut dyn FnMut(RunEvent<'_>),
    cancel: &CancelToken,
) -> Result<(Vec<BatchResult>, SessionMetrics), CtnError> {
    let specs = fabrics.specs;
    assert!(cfg.workers > 0, "need at least one worker");
    let run_start = Instant::now();
    let cache_before = cache.stats();
    for spec in specs {
        spec.validate().map_err(CtnError::Spec)?;
    }
    // Cancellation covers the calibration phase too — uncached model fits
    // run whole sample All-to-Alls, so "prompt" must not mean "after tens
    // of seconds of fitting a run nobody wants anymore".
    let check_cancel = || {
        if cancel.is_cancelled() {
            Err(CtnError::Cancelled)
        } else {
            Ok(())
        }
    };
    check_cancel()?;
    // Hockney calibrations are tiny 2-rank sims (and memoized); folding
    // them into the parallel queue would be overkill — run them first, in
    // order.
    let hockneys: Vec<HockneyParams> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            check_cancel()?;
            hockney_fit(cache, s, cfg.base_seed, || fabrics.get(i))
        })
        .collect::<Result<_, _>>()?;
    // Model calibrations run whole sample All-to-Alls (unlike the cheap
    // ping-pongs above), so uncached fits shard across the workers; the
    // memo cache covers repeated runs over the same specs.
    let ctxs: Vec<ModelCtx> = parallel_map(
        specs.iter().zip(&hockneys).enumerate().collect::<Vec<_>>(),
        cfg.workers,
        |(i, (s, &h))| {
            check_cancel()?;
            model_ctx(cache, s, h, cfg.base_seed, cfg.model, || fabrics.get(i))
        },
    )
    .into_iter()
    .collect::<Result<_, _>>()?;

    let grid_sizes: Vec<usize> = specs
        .iter()
        .map(|s| s.sweep.nodes.len() * s.sweep.message_bytes.len())
        .collect();
    let mut offsets = Vec::with_capacity(specs.len());
    let mut flat_idx = 0usize;
    let mut cells = Vec::new();
    for (spec_idx, spec) in specs.iter().enumerate() {
        offsets.push(flat_idx);
        for &n in &spec.sweep.nodes {
            for &m in &spec.sweep.message_bytes {
                cells.push(Cell {
                    spec_idx,
                    flat_idx,
                    schedule_index: 0,
                    n,
                    message_bytes: m,
                    seed: cell_seed(&spec.name, cfg.base_seed, n, m),
                });
                flat_idx += 1;
            }
        }
    }
    let total = cells.len();
    for (spec, &cells_of) in specs.iter().zip(&grid_sizes) {
        observer(RunEvent::BatchStarted {
            scenario: &spec.name,
            cells: cells_of,
        });
    }

    // Cost-aware schedule: the shared queue pops from the *end* of the
    // vector, so sorting by ascending cost hands workers the most
    // expensive cells first (longest-processing-time order). Ties keep
    // descending flat order so equal-cost cells still pop in grid order.
    // Purely a schedule change: results are re-scattered into grid order
    // below, so output bytes cannot depend on it.
    cells.sort_by(|a, b| {
        cell_cost(&specs[a.spec_idx], a)
            .cmp(&cell_cost(&specs[b.spec_idx], b))
            .then(b.flat_idx.cmp(&a.flat_idx))
    });
    // Workers pop from the end, so the last element is schedule slot 0.
    for (i, cell) in cells.iter_mut().rev().enumerate() {
        cell.schedule_index = i;
    }

    let mut slots: Vec<Vec<Option<Result<CellResult, CtnError>>>> = grid_sizes
        .iter()
        .map(|&c| (0..c).map(|_| None).collect())
        .collect();
    let mut batches: Vec<Option<BatchResult>> = (0..specs.len()).map(|_| None).collect();
    let mut received = 0usize;
    let mut completed: Vec<usize> = vec![0; specs.len()];
    let spawned = cfg.workers.min(total);
    let mut worker_metrics: Vec<WorkerMetrics> = (0..spawned)
        .map(|worker| WorkerMetrics {
            worker,
            ..WorkerMetrics::default()
        })
        .collect();
    let mut cell_metrics: Vec<CellMetrics> = Vec::with_capacity(total);

    let queue = Mutex::new(cells);
    let (sender, receiver) = mpsc::channel::<CellReport>();
    std::thread::scope(|scope| {
        for worker in 0..spawned {
            let sender = sender.clone();
            let queue = &queue;
            let hockneys = &hockneys;
            let ctxs = &ctxs;
            scope.spawn(move || loop {
                if cancel.is_cancelled() {
                    break;
                }
                let cell = queue.lock().expect("queue lock").pop();
                let Some(cell) = cell else { break };
                let spec = &specs[cell.spec_idx];
                let start_secs = run_start.elapsed().as_secs_f64();
                let fault =
                    faults.and_then(|f| f.fault_for(&spec.name, cell.n, cell.message_bytes));
                // Panic isolation: a panicking cell (injected or real)
                // becomes a `panicked` status row; its siblings keep
                // running on the surviving workers.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    match fault {
                        Some(Fault::Panic) => panic!(
                            "injected fault: forced panic in cell {} n={} m={}",
                            spec.name, cell.n, cell.message_bytes
                        ),
                        Some(Fault::Stall) => {
                            return Ok((stalled_cell(spec, &cell, &cfg.limits, cancel), None));
                        }
                        Some(Fault::Slow(delay)) => std::thread::sleep(delay),
                        None => {}
                    }
                    let fabric = fabrics
                        .get(cell.spec_idx)
                        .map_err(|e| CtnError::execution(&spec.name, spec_error_detail(e)))?;
                    let scenario = Scenario {
                        spec,
                        fabric: &fabric,
                        hockney: &hockneys[cell.spec_idx],
                        ctx: &ctxs[cell.spec_idx],
                    };
                    Ok(run_cell(scenario, &cell, telemetry, &cfg.limits, cancel))
                }));
                let outcome = match caught {
                    Ok(outcome) => outcome,
                    Err(payload) => Ok((
                        stopped_cell(
                            spec,
                            &cell,
                            CellStatus::Panicked {
                                detail: panic_detail(payload.as_ref()),
                            },
                        ),
                        None,
                    )),
                };
                let report = CellReport {
                    spec_idx: cell.spec_idx,
                    flat_idx: cell.flat_idx,
                    worker,
                    schedule_index: cell.schedule_index,
                    start_secs,
                    wall_secs: run_start.elapsed().as_secs_f64() - start_secs,
                    outcome,
                };
                if sender.send(report).is_err() {
                    break;
                }
            });
        }
        drop(sender);
        // The calling thread is the collector: events stream to the
        // observer while workers are still simulating.
        for report in receiver {
            let spec_idx = report.spec_idx;
            let spec = &specs[spec_idx];
            received += 1;
            let slot = &mut slots[spec_idx][report.flat_idx - offsets[spec_idx]];
            match report.outcome {
                Err(e) => *slot = Some(Err(e)),
                Ok((cell, engine)) => {
                    completed[spec_idx] += 1;
                    let metrics = CellMetrics {
                        scenario: spec.name.clone(),
                        n: cell.n,
                        message_bytes: cell.message_bytes,
                        worker: report.worker,
                        schedule_index: report.schedule_index,
                        start_secs: report.start_secs,
                        wall_secs: report.wall_secs,
                        status: cell.status.name().to_string(),
                        engine,
                    };
                    observer(RunEvent::CellFinished {
                        scenario: &spec.name,
                        cell: &cell,
                        metrics: &metrics,
                        completed: completed[spec_idx],
                        total: grid_sizes[spec_idx],
                    });
                    let w = &mut worker_metrics[report.worker];
                    w.cells += 1;
                    w.busy_secs += report.wall_secs;
                    cell_metrics.push(metrics);
                    *slot = Some(Ok(cell));
                }
            }
            if completed[spec_idx] == grid_sizes[spec_idx] {
                // Every cell of this scenario produced a row (measured
                // or status): nothing will ask for its fabric again, so
                // let it go before the rest of the batch runs on. Then
                // assemble the batch in grid order and announce it.
                fabrics.release(spec_idx);
                let cells: Vec<CellResult> = slots[spec_idx]
                    .iter_mut()
                    .map(|s| {
                        s.take()
                            .expect("completed batch has every slot filled")
                            .expect("completed batch has no failed cells")
                    })
                    .collect();
                batches[spec_idx] = Some(BatchResult {
                    scenario: spec.name.clone(),
                    alpha_secs: hockneys[spec_idx].alpha_secs,
                    beta_secs_per_byte: hockneys[spec_idx].beta_secs_per_byte,
                    cells,
                });
                observer(RunEvent::BatchFinished {
                    scenario: &spec.name,
                    batch: batches[spec_idx].as_ref().expect("just assembled"),
                });
            }
        }
    });

    // Hard failures (invalid builds, calibration errors surfacing at
    // cell level) still fail the whole run, in deterministic grid order.
    // By this point assembled batches have already taken their slots, so
    // only incomplete batches' slots remain.
    for spec_slots in &mut slots {
        for slot in spec_slots.iter_mut() {
            if matches!(slot, Some(Err(_))) {
                match slot.take() {
                    Some(Err(e)) => return Err(e),
                    _ => unreachable!("just matched an Err slot"),
                }
            }
        }
    }
    if received < total {
        // Only a mid-run cancellation leaves cells unpopped (a run
        // cancelled before anything started returned CtnError::Cancelled
        // above). The unstarted cells become `cancelled` status rows so
        // the partial-failure report still covers the full grid.
        debug_assert!(cancel.is_cancelled(), "only cancellation drops cells");
        for (spec_idx, spec) in specs.iter().enumerate() {
            if batches[spec_idx].is_some() {
                continue;
            }
            let sizes = spec.sweep.message_bytes.len();
            let cells: Vec<CellResult> = slots[spec_idx]
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| match slot.take() {
                    Some(Ok(cell)) => cell,
                    Some(Err(_)) => unreachable!("hard failures returned above"),
                    None => {
                        let n = spec.sweep.nodes[i / sizes];
                        let m = spec.sweep.message_bytes[i % sizes];
                        let cell = Cell {
                            spec_idx,
                            flat_idx: offsets[spec_idx] + i,
                            schedule_index: 0,
                            n,
                            message_bytes: m,
                            seed: cell_seed(&spec.name, cfg.base_seed, n, m),
                        };
                        stopped_cell(spec, &cell, CellStatus::Cancelled)
                    }
                })
                .collect();
            batches[spec_idx] = Some(BatchResult {
                scenario: spec.name.clone(),
                alpha_secs: hockneys[spec_idx].alpha_secs,
                beta_secs_per_byte: hockneys[spec_idx].beta_secs_per_byte,
                cells,
            });
        }
    }
    let batches = batches
        .into_iter()
        .map(|b| b.expect("complete run assembles every batch"))
        .collect();
    // Cells arrived in completion order; report them in schedule order so
    // the LPT decisions read straight off the snapshot.
    cell_metrics.sort_by_key(|c| c.schedule_index);
    let metrics = SessionMetrics {
        wall_secs: run_start.elapsed().as_secs_f64(),
        workers: worker_metrics,
        cache: cache.stats().since(&cache_before),
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
        let cfg = BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        };
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
        let (batches, metrics) = execute(
            &fabrics,
            &cfg,
            &CalibrationCache::new(),
            None,
            None,
            &mut observer,
            &CancelToken::new(),
        )
        .unwrap();
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
        let cache = CalibrationCache::new();
        let a = hockney_fit(&cache, &spec, 123, fresh_fabric(&spec)).unwrap();
        let b = hockney_fit(&cache, &spec, 123, fresh_fabric(&spec)).unwrap();
        assert_eq!(a, b, "memoized fit must equal the fresh fit");
        let c = hockney_fit(&cache, &spec, 124, fresh_fabric(&spec)).unwrap();
        assert_ne!(a, c, "different seed must not hit the same cache entry");
        assert_eq!(cache.hockney_entries(), 2);
    }

    #[test]
    fn cost_key_orders_big_cells_first() {
        let spec = by_name("incast-burst").unwrap();
        let small = Cell {
            spec_idx: 0,
            flat_idx: 0,
            schedule_index: 0,
            n: 4,
            message_bytes: 128 * 1024,
            seed: 0,
        };
        let big = Cell {
            spec_idx: 0,
            flat_idx: 1,
            schedule_index: 0,
            n: 16,
            message_bytes: 512 * 1024,
            seed: 0,
        };
        assert!(cell_cost(&spec, &big) > cell_cost(&spec, &small));
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
