//! The owned [`Session`] facade: the embeddable, concurrency-safe entry
//! point to the simulate → calibrate → predict → score workflow.
//!
//! A session owns three things, none of them process-global:
//!
//! * an **execution policy** (worker count, base seed, predictor model),
//! * an **instance-owned [`CalibrationCache`]** — the Hockney and
//!   signature/saturation memo. Each session defaults to a private cache;
//!   embedders that want sharing pass the same [`Arc`] to several sessions
//!   via [`SessionBuilder::shared_cache`], and drop it when they are done
//!   — lifetime and sharing are theirs to control,
//! * a **[`CancelToken`]** that aborts a sweep between cells.
//!
//! Execution streams: [`Session::run_with`] delivers [`RunEvent`]s to an
//! observer closure as cells finish (live progress for `ctnsim`, early
//! abort for sweeps, the hook `ctnd` multiplexes on), while the final
//! [`Report`] stays byte-identical for any worker count.
//!
//! ## Example
//!
//! ```
//! use contention_scenario::prelude::*;
//!
//! let spec = ScenarioBuilder::new("doc-session")
//!     .single_switch(4, LinkConfig::gigabit_ethernet(), SwitchConfig::commodity_ethernet())
//!     .uniform(AllToAllAlgorithm::DirectExchange)
//!     .nodes([2])
//!     .message_bytes([16 * 1024])
//!     .build()
//!     .expect("valid spec");
//!
//! let session = Session::builder().workers(2).base_seed(7).build().unwrap();
//! let mut finished = 0usize;
//! let report = session
//!     .run_with(&spec, &mut |event: RunEvent<'_>| {
//!         if let RunEvent::CellFinished { .. } = event {
//!             finished += 1;
//!         }
//!     })
//!     .expect("runs");
//! assert_eq!(finished, 1);
//! assert_eq!(report.batches[0].cells.len(), 1);
//! ```

use crate::calibrate::{self, Calibration, ModelCtx};
use crate::error::CtnError;
use crate::executor::{
    self, BatchFabrics, BatchResult, CellResult, FaultPlan, GuardLimits, ModelKind,
};
use crate::metrics::{CacheStats, CellMetrics, SessionMetrics};
use crate::report::Report;
use crate::spec::ScenarioSpec;
use contention_model::hockney::HockneyParams;
use contention_model::saturation::SaturationModel;
use contention_model::signature::ContentionSignature;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An instance-owned memo of calibration fits, keyed by `(fabric
/// fingerprint, derived seed)` (plus the model kind for the
/// signature/saturation fits).
///
/// Every fit is a pure function of its key, so a cache hit is
/// byte-for-byte the fit a fresh run would produce — the cache can only
/// change how *fast* a session runs, never what it reports. Sessions
/// default to a private cache; wrap one in an [`Arc`] and hand it to
/// several builders to share fits across sessions.
#[derive(Debug, Default)]
pub struct CalibrationCache {
    hockney: Mutex<HashMap<(u64, u64), HockneyParams>>,
    model: Mutex<HashMap<(u64, u64, &'static str), ModelCtx>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized Hockney fits.
    pub fn hockney_entries(&self) -> usize {
        self.hockney.lock().expect("cache lock").len()
    }

    /// Number of memoized signature/saturation fits.
    pub fn model_entries(&self) -> usize {
        self.model.lock().expect("cache lock").len()
    }

    /// Lifetime hit/miss/insert counters across every session using this
    /// cache. Subtract two snapshots ([`CacheStats::since`]) for a
    /// per-run delta.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }

    /// The memoized Hockney fit under `key`, else `fit`'s — see
    /// [`CalibrationCache::memo`].
    pub(crate) fn hockney(
        &self,
        key: (u64, u64),
        fit: impl FnOnce() -> Result<HockneyParams, CtnError>,
    ) -> Result<HockneyParams, CtnError> {
        self.memo(&self.hockney, key, fit)
    }

    /// The memoized signature/saturation fit under `key`, else `fit`'s.
    pub(crate) fn model(
        &self,
        key: (u64, u64, &'static str),
        fit: impl FnOnce() -> Result<ModelCtx, CtnError>,
    ) -> Result<ModelCtx, CtnError> {
        self.memo(&self.model, key, fit)
    }

    /// Looks `key` up; on a miss runs `fit` *outside* the lock (a fit is
    /// whole simulations — other scenarios' lookups must not queue behind
    /// it) and memoizes a success. Two threads missing on one key both
    /// fit; the fits are equal, so the second insert changes nothing.
    fn memo<K: Hash + Eq, V: Copy>(
        &self,
        map: &Mutex<HashMap<K, V>>,
        key: K,
        fit: impl FnOnce() -> Result<V, CtnError>,
    ) -> Result<V, CtnError> {
        if let Some(hit) = map.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = fit()?;
        map.lock().expect("cache lock").insert(key, value);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }
}

/// A cloneable handle that aborts a running sweep.
///
/// Workers check the token before starting each cell, and the engines
/// poll it at their preemption points (every few thousand events), so
/// cancellation lands with bounded latency even mid-cell. A run
/// cancelled before anything started returns [`CtnError::Cancelled`]; a
/// run cancelled in flight still returns its [`Report`], with the
/// interrupted and unstarted cells carried as `cancelled` status rows.
///
/// Cancellation is **one-shot and permanent** (like other cancellation
/// tokens, there is deliberately no reset — clearing a flag other
/// threads are racing to observe invites lost cancellations): a
/// cancelled token also cancels every *future* run of the session it is
/// installed in. To keep working after an abort, build a fresh session —
/// `Session::builder().shared_cache(old.cache())` carries the calibration
/// cache over, so nothing refits.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// The raw shared flag, for wiring into an engine guard
    /// (`RunGuard::with_cancel_flag`) — the engines only ever read it.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// One streaming progress event of a [`Session`] run.
///
/// Events borrow from the run in flight; copy out what must outlive the
/// observer call. `CellFinished` events arrive in *completion* order
/// (worker-dependent), never in grid order — the final [`Report`] is the
/// deterministic artifact, the events are the live view.
#[derive(Debug)]
pub enum RunEvent<'a> {
    /// A scenario's grid has been calibrated and queued.
    BatchStarted {
        /// Scenario name.
        scenario: &'a str,
        /// Cells in this scenario's grid.
        cells: usize,
    },
    /// One grid cell finished simulating.
    CellFinished {
        /// Scenario name.
        scenario: &'a str,
        /// The finished cell's measurements.
        cell: &'a CellResult,
        /// Telemetry for the cell: wall-clock span, worker, schedule
        /// position, and (when the session records telemetry) engine
        /// counters.
        metrics: &'a CellMetrics,
        /// Finished cells of this scenario so far (including this one).
        completed: usize,
        /// Total cells in this scenario's grid.
        total: usize,
    },
    /// Every cell of a scenario finished; the batch is assembled in
    /// deterministic grid order.
    BatchFinished {
        /// Scenario name.
        scenario: &'a str,
        /// The assembled, grid-ordered result.
        batch: &'a BatchResult,
    },
}

/// Configures and builds a [`Session`].
#[derive(Debug, Default)]
pub struct SessionBuilder {
    workers: Option<usize>,
    base_seed: Option<u64>,
    model: ModelKind,
    cache: Option<Arc<CalibrationCache>>,
    cancel: Option<CancelToken>,
    telemetry: bool,
    limits: GuardLimits,
    faults: Option<FaultPlan>,
}

impl SessionBuilder {
    /// Worker threads sharing the cell queue. Defaults to the machine's
    /// available parallelism. Zero is rejected by [`SessionBuilder::build`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Base seed every cell derives its stream from (default 42). Results
    /// are deterministic per `(scenario, seed, cell)` and independent of
    /// the worker count.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = Some(seed);
        self
    }

    /// Predictor behind the `model_secs` / `error_percent` columns
    /// (default [`ModelKind::Med`]).
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Shares a calibration cache with other sessions instead of owning a
    /// private one. Hits are byte-identical to fresh fits, so sharing only
    /// changes speed, never reports.
    pub fn shared_cache(mut self, cache: Arc<CalibrationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a cancellation token; keep a clone to abort runs from
    /// another thread. A fresh token is created when absent.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables (or disables) engine telemetry with default settings:
    /// every cell's simulator runs with a recording `Recorder`, and
    /// [`Session::metrics`] carries per-cell
    /// [`EngineTelemetry`](simnet::obs::EngineTelemetry). Off by default —
    /// the no-op recorder compiles down to the uninstrumented engine.
    /// Telemetry observes only; reports stay byte-identical either way.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Sets the per-cell supervision limits (see [`GuardLimits`]). A
    /// stopped cell becomes a status row and its siblings keep running;
    /// setting any limit stamps reports with the supervised schema (v2),
    /// which adds the status columns.
    pub fn limits(mut self, limits: GuardLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Installs a deterministic [`FaultPlan`] — **test-only**: it exists
    /// so the supervision layer's status taxonomy can be exercised
    /// end-to-end (injected panics, stalls and slowdowns) without
    /// modifying the engine. Cells the plan does not name run exactly as
    /// without a plan.
    pub fn inject_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the session. Fails with [`CtnError::Config`] when `workers`
    /// was set to zero.
    pub fn build(self) -> Result<Session, CtnError> {
        let workers = self.workers.unwrap_or_else(simmpi::runner::default_workers);
        if workers == 0 {
            return Err(CtnError::Config {
                detail: "session needs at least one worker".to_string(),
            });
        }
        Ok(Session {
            workers,
            base_seed: self.base_seed.unwrap_or(42),
            model: self.model,
            limits: self.limits,
            cache: self.cache.unwrap_or_default(),
            cancel: self.cancel.unwrap_or_default(),
            telemetry: self.telemetry,
            faults: self.faults,
            metrics: Mutex::new(None),
        })
    }
}

/// An owned handle on the scenario engine: policy + calibration cache +
/// cancellation, with streaming or plain execution.
///
/// Sessions are cheap to construct and internally synchronized — share
/// one behind an [`Arc`] across threads, or build one per request; the
/// determinism contract (reports depend only on `(scenario, seed, cell)`,
/// never on workers or cache state) holds either way.
#[derive(Debug)]
pub struct Session {
    pub(crate) workers: usize,
    pub(crate) base_seed: u64,
    pub(crate) model: ModelKind,
    pub(crate) limits: GuardLimits,
    pub(crate) cache: Arc<CalibrationCache>,
    pub(crate) cancel: CancelToken,
    pub(crate) telemetry: bool,
    pub(crate) faults: Option<FaultPlan>,
    metrics: Mutex<Option<SessionMetrics>>,
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session with default policy (all cores, seed 42, MED model) and a
    /// private cache.
    pub fn new() -> Self {
        Self::builder().build().expect("default session is valid")
    }

    /// Worker threads this session runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The session's base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The session's predictor model.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The session's supervision limits (unlimited by default).
    pub fn limits(&self) -> GuardLimits {
        self.limits
    }

    /// The session's calibration cache, shareable with other builders.
    pub fn cache(&self) -> Arc<CalibrationCache> {
        Arc::clone(&self.cache)
    }

    /// A clone of the session's cancellation token. Cancelling it aborts
    /// the in-flight run *and all future runs* of this session (see
    /// [`CancelToken`]); recover by building a new session around
    /// [`Session::cache`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs one scenario's full grid to a versioned [`Report`].
    pub fn run(&self, spec: &ScenarioSpec) -> Result<Report, CtnError> {
        self.run_many(std::slice::from_ref(spec))
    }

    /// Runs several scenarios as one flat cell queue (a wide scenario
    /// cannot serialize a narrow one behind it).
    pub fn run_many(&self, specs: &[ScenarioSpec]) -> Result<Report, CtnError> {
        self.run_many_with(specs, &mut |_| {})
    }

    /// Like [`Session::run`], streaming [`RunEvent`]s to `observer` — on
    /// the calling thread, once per event — as the run progresses.
    pub fn run_with(
        &self,
        spec: &ScenarioSpec,
        observer: &mut dyn FnMut(RunEvent<'_>),
    ) -> Result<Report, CtnError> {
        self.run_many_with(std::slice::from_ref(spec), observer)
    }

    /// Like [`Session::run_many`], streaming [`RunEvent`]s to `observer`.
    pub fn run_many_with(
        &self,
        specs: &[ScenarioSpec],
        observer: &mut dyn FnMut(RunEvent<'_>),
    ) -> Result<Report, CtnError> {
        let (batches, metrics) = executor::execute(self, &BatchFabrics::new(specs), observer)?;
        *self.metrics.lock().expect("metrics lock") = Some(metrics);
        // A session with supervision limits stamps the supervised schema
        // even when every cell passed (the consumer asked for the status
        // column); an unlimited session's report upgrades only when a
        // fault actually produced a non-Ok row, so default runs stay
        // byte-identical to the v1 goldens.
        if self.limits.is_unlimited() {
            Ok(Report::new(batches))
        } else {
            Ok(Report::supervised(batches))
        }
    }

    /// Telemetry snapshot of the most recent completed run: wall clock,
    /// worker occupancy, calibration-cache counters and per-cell spans
    /// (always collected), plus per-cell engine telemetry when the
    /// session was built with [`SessionBuilder::telemetry`]. `None`
    /// before the first successful run.
    pub fn metrics(&self) -> Option<SessionMetrics> {
        self.metrics.lock().expect("metrics lock").clone()
    }

    /// Measures (or recalls from the cache) the scenario fabric's Hockney
    /// parameters — the paper's 2-rank ping-pong fit.
    pub fn calibrate_hockney(&self, spec: &ScenarioSpec) -> Result<HockneyParams, CtnError> {
        Ok(self.calibration(spec, ModelKind::Med)?.hockney)
    }

    /// Fits (or recalls) the fabric's contention signature `(γ, δ, M)`:
    /// the paper's §8 procedure on the scenario's own fabric, sampled at a
    /// capacity-derived node count.
    pub fn calibrate_signature(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<ContentionSignature, CtnError> {
        match self.calibration(spec, ModelKind::Signature)?.ctx {
            ModelCtx::Signature(sig) => Ok(sig),
            _ => unreachable!("signature calibration returns a signature context"),
        }
    }

    /// Fits (or recalls) the fabric's saturation-ramp model `γ(n)`.
    pub fn calibrate_saturation(&self, spec: &ScenarioSpec) -> Result<SaturationModel, CtnError> {
        match self.calibration(spec, ModelKind::Saturation)?.ctx {
            ModelCtx::Saturation(sat) => Ok(sat),
            _ => unreachable!("saturation calibration returns a saturation context"),
        }
    }

    /// `model`'s calibration outside any batch, on one fabric built at
    /// most once (and only if a fit misses the cache).
    fn calibration(&self, spec: &ScenarioSpec, model: ModelKind) -> Result<Calibration, CtnError> {
        let fabrics = BatchFabrics::new(std::slice::from_ref(spec));
        calibrate::calibrate(&self.cache, spec, self.base_seed, model, || fabrics.get(0))
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::by_name;

    fn trimmed(name: &str) -> ScenarioSpec {
        let mut spec = by_name(name).expect("built-in");
        spec.sweep.nodes = vec![*spec.sweep.nodes.first().unwrap()];
        spec.sweep.message_bytes = vec![*spec.sweep.message_bytes.first().unwrap()];
        spec.sweep.reps = 1;
        spec.sweep.warmup = 0;
        spec
    }

    #[test]
    fn streaming_observer_sees_every_cell_and_batch_boundaries() {
        let spec = trimmed("incast-burst");
        let session = Session::builder().workers(4).base_seed(3).build().unwrap();
        let mut started = Vec::new();
        let mut cells = 0usize;
        let mut finished = Vec::new();
        let report = session
            .run_with(&spec, &mut |event: RunEvent<'_>| match event {
                RunEvent::BatchStarted { scenario, cells: c } => {
                    started.push((scenario.to_string(), c))
                }
                RunEvent::CellFinished {
                    completed, total, ..
                } => {
                    cells += 1;
                    assert!(completed <= total);
                }
                RunEvent::BatchFinished { scenario, batch } => {
                    assert_eq!(scenario, batch.scenario);
                    finished.push(batch.cells.len());
                }
            })
            .unwrap();
        assert_eq!(started, vec![("incast-burst".to_string(), 1)]);
        assert_eq!(cells, 1);
        assert_eq!(finished, vec![1]);
        assert_eq!(report.batches.len(), 1);
    }

    #[test]
    fn cancellation_aborts_between_cells() {
        let spec = by_name("incast-burst").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let session = Session::builder()
            .workers(2)
            .cancel_token(token.clone())
            .build()
            .unwrap();
        assert!(token.is_cancelled());
        assert!(matches!(session.run(&spec), Err(CtnError::Cancelled)));
        // Cancellation covers the calibration phase: a pre-cancelled run
        // must not have fitted anything.
        assert_eq!(session.cache().hockney_entries(), 0);
        assert_eq!(session.cache().model_entries(), 0);
    }

    #[test]
    fn shared_cache_is_reused_across_sessions() {
        let spec = trimmed("incast-burst");
        let cache = Arc::new(CalibrationCache::new());
        let a = Session::builder()
            .workers(1)
            .shared_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let b = Session::builder()
            .workers(2)
            .shared_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let ra = a.run(&spec).unwrap();
        assert_eq!(cache.hockney_entries(), 1, "first run fits once");
        let rb = b.run(&spec).unwrap();
        assert_eq!(cache.hockney_entries(), 1, "second session reuses the fit");
        assert_eq!(ra.batches, rb.batches, "cache sharing never changes bytes");
    }

    #[test]
    fn session_calibrations_expose_the_models() {
        let spec = by_name("incast-burst").unwrap();
        let session = Session::builder().workers(2).build().unwrap();
        let hockney = session.calibrate_hockney(&spec).unwrap();
        assert!(hockney.alpha_secs > 0.0);
        let sig = session.calibrate_signature(&spec).unwrap();
        assert!(sig.gamma >= 1.0, "contention never beats the bound");
        let sat = session.calibrate_saturation(&spec).unwrap();
        assert!(sat.gamma_at(8).is_finite());
        assert_eq!(session.cache().model_entries(), 2);
    }

    #[test]
    fn zero_workers_is_a_typed_config_error() {
        assert!(matches!(
            Session::builder().workers(0).build(),
            Err(CtnError::Config { .. })
        ));
    }
}
