//! The survey description and the sharded execution engine.
//!
//! A [`Survey`] is the unit the paper's production workload is made of: one
//! velocity model, one receiver set, many shots. [`run_survey`] executes all
//! shots exactly once, sharded across the `tempest-par` fleet, with the
//! shot-independent precomputation ([`tempest_core::ShotAssets`]) built once
//! and shared:
//!
//! * the `c3` coefficient volume (model + damping) and the sponge
//!   profiles, shared by every shot's solver, and FD axis weights,
//! * the receiver-gather precompute (grid-aligned positions + weights),
//! * the shared Ricker wavelet samples.
//!
//! Per-shot cost is then only the source-bundle precompute and a fresh
//! wavefield ring. Shots shard across the fleet, and each shot solve runs
//! under [`tempest_par::with_thread_budget`]`(available_threads(), …)`, so
//! its tile dispatches are published to the pool's board: a thread whose
//! shots are done joins whichever shot is still running instead of idling.
//! Gathers stay bitwise-identical across thread caps and tile shapes —
//! every receiver-footprint product has its own trace slot
//! ([`tempest_core::trace`]).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tempest_core::operator::{Schedule, SparseMode};
use tempest_core::sources::SourceBundle;
use tempest_core::{Acoustic, Execution, ShotAssets, SimConfig, WaveSolver};
use tempest_grid::{Array2, Model};
use tempest_obs as obs;
use tempest_par::{available_threads, with_thread_budget, Policy};
use tempest_sparse::SparsePoints;
use tempest_tiling::{autotune, spaceblock_candidates, TileCache};

use crate::shard::{shard, CancelFlag};

/// One shot of a survey: a physical source position plus an optional
/// per-shot wavelet (`None` uses the survey's shared Ricker at `cfg.f0`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShotSpec {
    /// Off-the-grid physical source position (metres).
    pub position: [f32; 3],
    /// Per-timestep source samples; must have exactly `cfg.nt` entries.
    pub wavelet: Option<Vec<f32>>,
}

impl ShotSpec {
    /// A shot firing the survey's shared Ricker wavelet.
    pub fn at(position: [f32; 3]) -> Self {
        ShotSpec {
            position,
            wavelet: None,
        }
    }

    /// A shot firing an explicit per-timestep wavelet.
    pub fn with_wavelet(position: [f32; 3], wavelet: Vec<f32>) -> Self {
        ShotSpec {
            position,
            wavelet: Some(wavelet),
        }
    }
}

/// A seismic survey: one shared velocity model and receiver set, many
/// shots. All shots share the model, so the engine precomputes
/// [`ShotAssets`] once per run and batches autotuning.
#[derive(Debug, Clone)]
pub struct Survey {
    model: Model,
    cfg: SimConfig,
    receivers: Option<SparsePoints>,
    shots: Vec<ShotSpec>,
}

impl Survey {
    /// A survey with no receivers and no shots yet.
    pub fn new(model: Model, cfg: SimConfig) -> Self {
        assert_eq!(
            model.shape(),
            cfg.shape(),
            "model and config must share a grid"
        );
        Survey {
            model,
            cfg,
            receivers: None,
            shots: Vec::new(),
        }
    }

    /// Attach the common receiver set (each shot records into its own
    /// gather at these positions).
    pub fn with_receivers(mut self, receivers: SparsePoints) -> Self {
        self.receivers = Some(receivers);
        self
    }

    /// Append one shot.
    pub fn add_shot(&mut self, shot: ShotSpec) -> &mut Self {
        self.shots.push(shot);
        self
    }

    /// Append `n` shots on a horizontal line along x at depth fraction
    /// `z_frac`, evenly spread and avoiding the domain faces — the
    /// survey-geometry counterpart of `SparsePoints::receiver_line`.
    pub fn add_shot_line(&mut self, n: usize, z_frac: f32) -> &mut Self {
        let ext = self.cfg.domain.extent();
        let origin = self.cfg.domain.origin();
        for s in 0..n {
            let fx = (s as f32 + 1.0) / (n as f32 + 1.0);
            self.shots.push(ShotSpec::at([
                origin[0] + fx * ext[0],
                origin[1] + 0.5 * ext[1],
                origin[2] + z_frac * ext[2],
            ]));
        }
        self
    }

    /// The shared velocity model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The shared simulation configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// The common receiver set, if any.
    pub fn receivers(&self) -> Option<&SparsePoints> {
        self.receivers.as_ref()
    }

    /// The shot list.
    pub fn shots(&self) -> &[ShotSpec] {
        &self.shots
    }

    /// Number of shots.
    pub fn len(&self) -> usize {
        self.shots.len()
    }

    /// Whether the survey has no shots.
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }
}

/// How a survey executes.
#[derive(Debug, Clone)]
pub struct SurveyOptions {
    /// Per-shot execution (schedule, sparse path, tile policy, kernels).
    pub exec: Execution,
    /// Shot-level fleet policy (how shots shard across workers).
    pub policy: Policy,
    /// Shots per batch (`0` = one batch). Batches run in order with a join
    /// between them; errors and cancellation stop at batch boundaries.
    pub batch_size: usize,
    /// Autotune the space-block shape once per run on a short probe solve,
    /// reusing the result for every shot and batch (counted by
    /// `Counter::BatchAutotune`). Only applies to
    /// [`Schedule::SpaceBlocked`]; the tuned shape never changes results
    /// (block decomposition is bitwise-invariant on wavefields and gathers).
    pub tune: bool,
    /// Fault injection for watchdog validation: `Some((shot, ms))` sleeps
    /// `ms` milliseconds after shot `shot` is started but before it makes
    /// any progress — a silent stall the telemetry heartbeat cannot see.
    /// The shot then solves normally, so the run still completes. `None`
    /// (the default) injects nothing.
    pub inject_hang: Option<(usize, u64)>,
    /// Shared per-tile result cache for incremental recomputation. When set
    /// (and enabled), shots running a fused sparse path solve via
    /// [`WaveSolver::run_incremental`] keyed by their shot index, so a
    /// resubmitted survey with a nudged source reuses every tile outside the
    /// change's causal cone; the autotuner also memoises its probe result
    /// here. `None` (the default) keeps the exact pre-cache execution path.
    /// Classic-sparse shots never take the incremental path — their
    /// per-timestep sparse operators have no per-tile identity.
    pub cache: Option<Arc<TileCache>>,
}

impl Default for SurveyOptions {
    fn default() -> Self {
        SurveyOptions {
            exec: Execution::baseline(),
            policy: Policy::default(),
            batch_size: 0,
            tune: false,
            inject_hang: None,
            cache: None,
        }
    }
}

/// One completed shot: its index and (if the survey has receivers) the
/// recorded gather `[nt × num_receivers]`.
#[derive(Debug, Clone)]
pub struct ShotResult {
    /// Shot index within the survey.
    pub index: usize,
    /// The receiver gather, `None` when the survey has no receivers.
    pub gather: Option<Array2<f32>>,
}

/// A failed shot: the lowest-indexed shot that errored and why.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotError {
    /// Shot index within the survey.
    pub shot: usize,
    /// Human-readable failure reason (validation message or panic payload).
    pub message: String,
}

impl std::fmt::Display for ShotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shot {}: {}", self.shot, self.message)
    }
}

/// How a streaming survey run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveyOutcome {
    /// Shots that ran to completion (and were streamed to the sink).
    pub completed: usize,
    /// Whether cancellation was observed; remaining shots were skipped.
    pub cancelled: bool,
}

/// Run every shot of `survey` exactly once and return results ordered by
/// shot index. Fails with the lowest-indexed [`ShotError`] if any shot is
/// invalid or panics (remaining batches are skipped).
pub fn run_survey(survey: &Survey, opts: &SurveyOptions) -> Result<Vec<ShotResult>, ShotError> {
    let slots: Mutex<Vec<Option<ShotResult>>> =
        Mutex::new((0..survey.len()).map(|_| None).collect());
    run_survey_streaming(survey, opts, None, |r| {
        let slot = r.index;
        slots.lock().unwrap()[slot] = Some(r);
    })?;
    Ok(slots.into_inner().unwrap().into_iter().flatten().collect())
}

/// Like [`run_survey`], but streams each [`ShotResult`] to `on_shot` as it
/// completes (from worker threads, in completion order) instead of holding
/// all gathers until the end, and honours cooperative cancellation: the
/// `cancel` flag is checked at shot start and between batches, so a
/// cancelled run skips every shot not yet started and reports
/// [`SurveyOutcome::cancelled`].
pub fn run_survey_streaming<F>(
    survey: &Survey,
    opts: &SurveyOptions,
    cancel: Option<&CancelFlag>,
    on_shot: F,
) -> Result<SurveyOutcome, ShotError>
where
    F: Fn(ShotResult) + Sync,
{
    let n = survey.len();
    let was_cancelled = || cancel.is_some_and(CancelFlag::is_cancelled);
    if n == 0 {
        return Ok(SurveyOutcome {
            completed: 0,
            cancelled: was_cancelled(),
        });
    }
    let assets = ShotAssets::new(
        survey.model(),
        survey.cfg().clone(),
        survey.receivers().cloned(),
    );
    let exec = tuned_exec(survey, opts);
    exec.validate();

    let completed = AtomicUsize::new(0);
    let errors: Mutex<Vec<ShotError>> = Mutex::new(Vec::new());
    let shots = survey.shots();
    let stop = || was_cancelled() || !errors.lock().unwrap().is_empty();
    shard(opts.policy, n, opts.batch_size, stop, |i| {
        if was_cancelled() {
            return;
        }
        obs::add(obs::Counter::ShotStarted, 1);
        obs::metrics::heartbeat(1);
        let _sp = obs::span(obs::SpanKind::Shot, obs::SpanArgs::shot(i));
        if let Some((hang_shot, ms)) = opts.inject_hang {
            if i == hang_shot {
                // Deliberately no heartbeat across this gap: the sleep
                // is indistinguishable from a hung solve.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        let solved = catch_unwind(AssertUnwindSafe(|| {
            with_thread_budget(available_threads(), || {
                solve_one(&assets, &shots[i], &exec, opts.cache.as_deref(), i as u64)
            })
        }));
        match solved {
            Ok(Ok(gather)) => {
                obs::add(obs::Counter::ShotCompleted, 1);
                obs::metrics::heartbeat(1);
                completed.fetch_add(1, Ordering::Relaxed);
                on_shot(ShotResult { index: i, gather });
            }
            Ok(Err(message)) => errors.lock().unwrap().push(ShotError { shot: i, message }),
            Err(payload) => errors.lock().unwrap().push(ShotError {
                shot: i,
                message: panic_message(payload),
            }),
        }
    });

    let mut errs = errors.into_inner().unwrap();
    errs.sort_by_key(|e| e.shot);
    if let Some(first) = errs.into_iter().next() {
        return Err(first);
    }
    Ok(SurveyOutcome {
        completed: completed.into_inner(),
        cancelled: was_cancelled(),
    })
}

/// Validate a shot against the survey configuration. Deterministic — the
/// same shot fails the same way under every policy and thread cap.
pub(crate) fn validate_shot(cfg: &SimConfig, spec: &ShotSpec) -> Result<(), String> {
    if !spec.position.iter().all(|v| v.is_finite()) || !cfg.domain.contains_point(spec.position) {
        return Err(format!(
            "shot position {:?} is outside the model domain",
            spec.position
        ));
    }
    if let Some(w) = &spec.wavelet {
        if w.len() != cfg.nt {
            return Err(format!(
                "custom wavelet has {} samples, expected nt = {}",
                w.len(),
                cfg.nt
            ));
        }
    }
    Ok(())
}

/// Build a propagator for one shot from shared assets.
pub(crate) fn build_solver(assets: &ShotAssets, spec: &ShotSpec) -> Result<Acoustic, String> {
    validate_shot(assets.config(), spec)?;
    let sources = SparsePoints::new(&assets.config().domain, vec![spec.position]);
    Ok(match &spec.wavelet {
        None => Acoustic::from_assets(assets, sources),
        Some(w) => {
            let w = tempest_sparse::wavelet::wavelet_matrix(w, 1);
            let src = SourceBundle::new(&assets.config().domain, sources, w);
            Acoustic::from_assets_with_sources(assets, src)
        }
    })
}

fn solve_one(
    assets: &ShotAssets,
    spec: &ShotSpec,
    exec: &Execution,
    cache: Option<&TileCache>,
    shot_key: u64,
) -> Result<Option<Array2<f32>>, String> {
    let mut solver = build_solver(assets, spec)?;
    match cache {
        // The incremental path only serves fused sparse runs; the default
        // classic baseline keeps the exact pre-cache execution path.
        Some(c) if c.enabled() && exec.sparse != SparseMode::Classic => {
            let _ = solver.run_incremental(exec, c, shot_key);
        }
        _ => {
            let _ = solver.run(exec);
        }
    }
    Ok(solver.trace())
}

/// Memo key for the autotune probe: the probe's timing verdict depends on
/// the grid and the discretisation, not on shot positions, so one tuned
/// shape serves every resubmission of the survey.
fn tune_key(survey: &Survey) -> u64 {
    let shape = survey.cfg().shape();
    let mut h = DefaultHasher::new();
    h.write_usize(shape.nx);
    h.write_usize(shape.ny);
    h.write_usize(shape.nz);
    h.write_usize(survey.cfg().space_order);
    h.finish()
}

/// Resolve the execution for this run, autotuning the space-block shape on
/// a short probe solve when requested. The tuned result is shared by every
/// shot and batch of the run — `Counter::BatchAutotune` counts once.
fn tuned_exec(survey: &Survey, opts: &SurveyOptions) -> Execution {
    let mut exec = opts.exec;
    if !opts.tune || survey.is_empty() {
        return exec;
    }
    let Schedule::SpaceBlocked { .. } = exec.schedule else {
        return exec;
    };
    let probe_shot = &survey.shots()[0];
    let cfg = survey.cfg();
    if validate_shot(cfg, &ShotSpec::at(probe_shot.position)).is_err() {
        return exec; // the per-shot error path will report it
    }
    // Cache-aware candidate skip: a prior run of the same grid already paid
    // for the probe sweep — reuse its verdict (and record no new
    // `BatchAutotune` pass, since none ran).
    let key = tune_key(survey);
    if let Some((block_x, block_y)) = opts.cache.as_deref().and_then(|c| c.tune_lookup(key)) {
        exec.schedule = Schedule::SpaceBlocked { block_x, block_y };
        return exec;
    }
    let probe_cfg = cfg.clone().with_nt(cfg.nt.clamp(2, 6));
    let probe_assets = ShotAssets::new(survey.model(), probe_cfg, None);
    let shape = cfg.shape();
    let best = autotune(&spaceblock_candidates(shape.nx, shape.ny), |c| {
        let mut probe = Acoustic::from_assets(
            &probe_assets,
            SparsePoints::new(&probe_assets.config().domain, vec![probe_shot.position]),
        );
        let trial = Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: c.block_x,
                block_y: c.block_y,
            },
            ..exec
        };
        probe.run(&trial).elapsed
    })
    .best;
    obs::add(obs::Counter::BatchAutotune, 1);
    exec.schedule = Schedule::SpaceBlocked {
        block_x: best.block_x,
        block_y: best.block_y,
    };
    if let Some(cache) = opts.cache.as_deref() {
        cache.tune_store(key, (best.block_x, best.block_y));
    }
    exec
}

/// Render a panic payload as an error message (best effort).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shot solve panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_core::config::EquationKind;
    use tempest_grid::{Domain, Shape};

    fn small_survey(n_shots: usize) -> Survey {
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 40.0)
            .with_nt(6)
            .with_boundary(3, 0.3);
        let mut s = Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(
            &domain, 5, 0.2,
        ));
        s.add_shot_line(n_shots, 0.1);
        s
    }

    #[test]
    fn survey_builder_places_shots_in_domain() {
        let s = small_survey(4);
        assert_eq!(s.len(), 4);
        for shot in s.shots() {
            assert!(s.cfg().domain.contains_point(shot.position));
            assert!(validate_shot(s.cfg(), shot).is_ok());
        }
    }

    #[test]
    fn run_survey_returns_ordered_gathers() {
        let s = small_survey(3);
        let results = run_survey(&s, &SurveyOptions::default()).unwrap();
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            let g = r.gather.as_ref().expect("receivers attached");
            assert_eq!(g.dims(), [s.cfg().nt, 5]);
            assert!(g.as_slice().iter().any(|&v| v != 0.0), "gather is silent");
        }
    }

    #[test]
    fn invalid_shot_yields_lowest_indexed_error() {
        let mut s = small_survey(2);
        s.add_shot(ShotSpec::at([1e9, 0.0, 0.0]));
        s.add_shot(ShotSpec::with_wavelet([50.0, 50.0, 50.0], vec![0.0; 3]));
        let err = run_survey(&s, &SurveyOptions::default()).unwrap_err();
        assert_eq!(err.shot, 2, "lowest failing index wins: {err}");
        assert!(err.message.contains("outside"), "{err}");
    }

    #[test]
    fn empty_survey_completes_with_no_shots() {
        let s = small_survey(0);
        assert!(s.is_empty());
        let out = run_survey_streaming(&s, &SurveyOptions::default(), None, |_| {
            panic!("no shots should stream")
        })
        .unwrap();
        assert_eq!(
            out,
            SurveyOutcome {
                completed: 0,
                cancelled: false
            }
        );
    }

    #[test]
    fn pre_cancelled_run_skips_every_shot() {
        let s = small_survey(4);
        let flag = CancelFlag::new();
        flag.cancel();
        let out = run_survey_streaming(&s, &SurveyOptions::default(), Some(&flag), |_| {
            panic!("cancelled run must not stream results")
        })
        .unwrap();
        assert_eq!(
            out,
            SurveyOutcome {
                completed: 0,
                cancelled: true
            }
        );
    }

    #[test]
    fn tuned_run_matches_untuned_fields() {
        // Tuning only changes the block shape, which no gather sees.
        let s = small_survey(2);
        let plain = run_survey(&s, &SurveyOptions::default()).unwrap();
        let tuned = run_survey(
            &s,
            &SurveyOptions {
                tune: true,
                ..SurveyOptions::default()
            },
        )
        .unwrap();
        for (a, b) in plain.iter().zip(&tuned) {
            assert_eq!(
                a.gather.as_ref().unwrap().as_slice(),
                b.gather.as_ref().unwrap().as_slice()
            );
        }
    }
}
