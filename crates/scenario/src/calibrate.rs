//! The paper's §8 calibration, run once per network and reused for every
//! prediction on it: a 2-rank ping-pong → the Hockney `(α, β)` fit → (for
//! the signature and saturation models) uniform direct All-to-Alls sampled
//! at a capacity-derived node count `n′` → the `(γ, δ, M)` or `γ(n)`
//! regression. [`calibrate`] is that whole sequence and the only function
//! that runs it; a batch calls it once per scenario, and
//! `Session::calibrate_*` call it for one.
//!
//! Both fits are memoized in the session's [`CalibrationCache`], keyed by
//! `(fabric fingerprint, derived seed)` plus the model's name for the
//! second. That is sound because a fit depends only on the fabric —
//! topology, transport and MPI overrides, its capacity-derived sample
//! sizes included — and the seed, never on the sweep grid, so a hit is
//! byte-for-byte the fit a fresh run would produce.
//!
//! Fits must not panic: a calibration runs before (and outside the panic
//! isolation of) every cell, so a sample that stalls — GM on a
//! finite-buffer fabric never retransmits — or a regression that fails is
//! a [`CtnError::Calibration`] carrying the diagnostic.

use crate::error::CtnError;
use crate::executor::{mix, ModelKind};
use crate::session::CalibrationCache;
use crate::spec::{fnv1a, ScenarioSpec, SpecError};
use crate::topology::{self, Fabric};
use contention_model::hockney::HockneyParams;
use contention_model::saturation::SaturationModel;
use contention_model::signature::ContentionSignature;
use simmpi::alltoall::AllToAllAlgorithm;
use simmpi::harness::try_ping_pong;
use simnet::obs::NoopRecorder;
use std::sync::Arc;

/// What one scenario's cells are scored against: the fabric's Hockney fit
/// plus whatever extra calibration the selected model needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Calibration {
    pub(crate) hockney: HockneyParams,
    pub(crate) ctx: ModelCtx,
}

/// The selected model's fitted parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ModelCtx {
    Med,
    Signature(ContentionSignature),
    Saturation(SaturationModel),
}

impl ModelCtx {
    /// The selected model's completion-time prediction for one cell. Every
    /// predictor scales the workload's MED bound, so irregular exchanges
    /// are handled uniformly; for the uniform All-to-All the signature
    /// form reduces exactly to the paper's eq. 5.
    pub(crate) fn predict(&self, med_bound: f64, n: usize, m: u64) -> f64 {
        match self {
            ModelCtx::Med => med_bound,
            ModelCtx::Signature(sig) => sig.predict_from(med_bound, n, m),
            ModelCtx::Saturation(sat) => sat.predict_from(med_bound, n),
        }
    }
}

/// Calibrates `model` on the scenario's fabric (or recalls it from
/// `cache`). `fabric` is only called when a fit misses the cache, once per
/// sampled world, so hand it a memoizing source: they all share one build.
pub(crate) fn calibrate(
    cache: &CalibrationCache,
    spec: &ScenarioSpec,
    base_seed: u64,
    model: ModelKind,
    fabric: impl Fn() -> Result<Arc<Fabric>, SpecError>,
) -> Result<Calibration, CtnError> {
    let fail = |detail: String| CtnError::calibration(&spec.name, detail);
    // A fabric-build error loses its `invalid scenario:` display prefix:
    // the calibration error's own display already names the phase.
    let fabric = || {
        fabric().map_err(|e| match e {
            SpecError::Invalid(m) => fail(m),
            other => fail(other.to_string()),
        })
    };
    let fingerprint = spec.fabric_fingerprint();

    // A 2-rank ping-pong on the scenario's own fabric across the standard
    // fit sizes: seconds of simulated time on two hosts.
    let name_hash = fnv1a(spec.name.as_bytes());
    let seed = mix(base_seed ^ name_hash);
    let hockney = cache.hockney((fingerprint, seed), || {
        let mut world = fabric()?.world_with(2, seed, NoopRecorder);
        let points: Vec<(u64, f64)> = try_ping_pong(&mut world, 0, 1, &HockneyParams::FIT_SIZES, 3)
            .map_err(|i| fail(format!("Hockney ping-pong: {i}")))?
            .into_iter()
            .map(|p| (p.size, p.half_rtt_secs))
            .collect();
        HockneyParams::fit(&points).map_err(|e| fail(format!("Hockney fit failed: {e}")))
    })?;

    // The signature belongs to the *network*, so it is always fitted on
    // the uniform direct exchange — whole All-to-Alls, ~100× a ping-pong,
    // which is why the memo matters even more here.
    let seed = mix(base_seed ^ name_hash ^ 0x5160_2A7E);
    let key = (fingerprint, seed, model.name());
    let fit_err =
        |e: contention_model::error::ModelError| fail(format!("{} fit failed: {e}", model.name()));
    let capacity = || topology::capacity(&spec.topology).map_err(CtnError::Spec);
    let algo = AllToAllAlgorithm::DirectExchange;
    let sample = |n: usize, sizes: &[u64], seed: u64| {
        let mut world = fabric()?.world_with(n, seed, NoopRecorder);
        sizes
            .iter()
            .map(|&m| match world.try_run(algo.programs(n, m)) {
                Ok(run) => Ok((m, run.duration_secs())),
                Err(i) => Err(fail(format!("sample All-to-All ({n} x {m} B): {i}"))),
            })
            .collect::<Result<Vec<(u64, f64)>, CtnError>>()
    };
    let ctx = match model {
        ModelKind::Med => ModelCtx::Med,
        ModelKind::Signature => cache.model(key, || {
            // One sample node count (the paper's n′), ≥4 message sizes.
            // Derived from the fabric's capacity — never from the sweep
            // grid — so the same (scenario, seed, n, m) cell keeps the
            // same prediction no matter what else the grid contains.
            let sample_n = capacity()?.clamp(2, 8);
            let sizes = [64 * 1024u64, 128 * 1024, 256 * 1024, 512 * 1024, 1_048_576];
            ContentionSignature::fit(hockney, sample_n, &sample(sample_n, &sizes, seed)?)
                .map(ModelCtx::Signature)
                .map_err(fit_err)
        })?,
        ModelKind::Saturation => cache.model(key, || {
            // Several node counts so the γ(n) ramp is identifiable. On
            // tiny fabrics the standard rungs collapse to [2]; fall back
            // to the capacity itself so any ≥3-host topology still fits.
            let capacity = capacity()?;
            let mut ladder: Vec<usize> = [2usize, 4, 8]
                .into_iter()
                .filter(|&n| n <= capacity)
                .collect();
            if ladder.len() < 2 && capacity >= 3 && !ladder.contains(&capacity) {
                ladder.push(capacity);
            }
            if ladder.len() < 2 {
                return Err(fail(format!(
                    "topology capacity {capacity} too small for a saturation fit"
                )));
            }
            let sizes = [128 * 1024u64, 512 * 1024, 1_048_576];
            let mut samples = Vec::with_capacity(ladder.len() * sizes.len());
            for &n in &ladder {
                for (m, t) in sample(n, &sizes, mix(seed ^ n as u64))? {
                    samples.push((n, m, t));
                }
            }
            SaturationModel::fit(hockney, &samples)
                .map(ModelCtx::Saturation)
                .map_err(fit_err)
        })?,
    };
    Ok(Calibration { hockney, ctx })
}
