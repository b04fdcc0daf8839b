//! Survey-scale reverse-time migration on the checkpointed-restart
//! primitives of `tempest-core`.
//!
//! Per shot, the driver follows the classic zero-lag imaging recipe (the
//! reference path of `tests/rtm.rs`):
//!
//! 1. **Forward** on the smooth model *with* receivers → the direct
//!    (modelled) gather, plus the forward wavefield history sampled every
//!    [`RtmOptions::every`] steps.
//! 2. **Adjoint**: the time-reversed residual (observed − direct) is
//!    re-injected at the receiver positions as per-source wavelets, and the
//!    adjoint history is sampled on the same stride.
//! 3. **Imaging**: `image += s[si] · r[pairs−1−si]`, summed over snapshot
//!    pairs in ascending `si`.
//!
//! With [`RtmOptions::checkpoint_stride`] set, step 1 stores only sparse
//! [`RingCheckpoint`]s (one per stride, the ring's two wavefield levels each)
//! instead of the full `nt/every` snapshot history, and step 3
//! re-materialises each forward segment on a *receiver-free twin* of the
//! forward propagator via `restore_checkpoint` + `run_range` +
//! `field_after`, correlating on the fly. The twin must be receiver-free
//! because ring checkpoints cover the wavefield only: replaying a segment
//! on the original solver would re-record (and double-count) its receiver
//! traces. Both paths are bitwise-identical — `run_range` decomposes
//! exactly and `field_after` reproduces what `run_recording` stores.
//!
//! Shots shard across the fleet like [`run_survey`](crate::run_survey)
//! (same counters, `SpanKind::Shot` spans and whole-pool budget per shot);
//! partial images are summed in ascending shot order, so with bitwise
//! gathers the image is the same bits at every thread cap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use tempest_core::shared::RingCheckpoint;
use tempest_core::{Acoustic, Execution, ShotAssets, WaveSolver};
use tempest_grid::{Array2, Array3};
use tempest_obs as obs;
use tempest_par::{available_threads, with_thread_budget, FlushGuard, Policy};

use crate::engine::{build_solver, panic_message, ShotError, ShotSpec, Survey};
use crate::shard::shard;

/// How an RTM survey executes.
#[derive(Debug, Clone)]
pub struct RtmOptions {
    /// Wavefield sampling stride (timesteps per snapshot pair).
    pub every: usize,
    /// Forward-pass checkpoint stride in timesteps; must be a positive
    /// multiple of `every`. `0` disables checkpointing (the forward history
    /// is stored densely, `nt/every` volumes per shot in flight).
    pub checkpoint_stride: usize,
    /// Per-shot execution, under any schedule: snapshots and checkpoints
    /// are taken between `run_range` segments, which always end flat.
    pub exec: Execution,
    /// Shot-level fleet policy.
    pub policy: Policy,
}

impl RtmOptions {
    /// Sequential space-blocked defaults with the given snapshot stride.
    pub fn new(every: usize) -> Self {
        assert!(every >= 1, "snapshot stride must be positive");
        RtmOptions {
            every,
            checkpoint_stride: 0,
            exec: Execution::baseline().sequential(),
            policy: Policy::default(),
        }
    }

    /// Enable checkpointed forward storage with the given stride.
    pub fn with_checkpoint_stride(mut self, stride: usize) -> Self {
        assert!(
            stride > 0 && stride.is_multiple_of(self.every),
            "checkpoint stride must be a positive multiple of `every`"
        );
        self.checkpoint_stride = stride;
        self
    }

    /// Override the shot-level fleet policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }
}

/// Migrate a survey: cross-correlate forward and adjoint wavefields of
/// every shot against the `observed` gathers (one `[nt × num_receivers]`
/// gather per shot, e.g. from [`run_survey`](crate::run_survey) on the
/// true model) and return the stacked image. `survey` carries the *smooth*
/// (migration) model and must have receivers.
pub fn rtm_image(
    survey: &Survey,
    observed: &[Array2<f32>],
    opts: &RtmOptions,
) -> Result<Array3<f32>, ShotError> {
    // Residuals, correlation and the stack are arithmetic on wavefields:
    // one mode for the shots' threads and for the stack on this one.
    let _fp = FlushGuard::enter();
    let n = survey.len();
    assert_eq!(observed.len(), n, "one observed gather per shot");
    let receivers = survey
        .receivers()
        .expect("RTM needs a receiver set on the survey");
    opts.exec.validate();

    let shape = survey.cfg().shape();
    let mut image = Array3::<f32>::zeros(shape.nx, shape.ny, shape.nz);
    if n == 0 {
        return Ok(image);
    }
    // Shot-independent precompute, shared across the fleet: one set of
    // coefficients, seen with the receiver bundle (forward pass, and the
    // adjoint's source footprint) and without it (adjoint + recompute twin).
    let fwd_assets = ShotAssets::new(
        survey.model(),
        survey.cfg().clone(),
        Some(receivers.clone()),
    );
    let norec_assets = fwd_assets.without_receivers();

    let partials: Mutex<Vec<Option<Array3<f32>>>> = Mutex::new((0..n).map(|_| None).collect());
    let errors: Mutex<Vec<ShotError>> = Mutex::new(Vec::new());
    let shots = survey.shots();
    shard(
        opts.policy,
        n,
        0,
        || false,
        |i| {
            obs::add(obs::Counter::ShotStarted, 1);
            let _sp = obs::span(obs::SpanKind::Shot, obs::SpanArgs::shot(i));
            let solved = catch_unwind(AssertUnwindSafe(|| {
                with_thread_budget(available_threads(), || {
                    image_one_shot(&fwd_assets, &norec_assets, &shots[i], &observed[i], opts)
                })
            }));
            match solved {
                Ok(Ok(partial)) => {
                    obs::add(obs::Counter::ShotCompleted, 1);
                    partials.lock().unwrap()[i] = Some(partial);
                }
                Ok(Err(message)) => errors.lock().unwrap().push(ShotError { shot: i, message }),
                Err(payload) => errors.lock().unwrap().push(ShotError {
                    shot: i,
                    message: panic_message(payload),
                }),
            }
        },
    );

    let mut errs = errors.into_inner().unwrap();
    errs.sort_by_key(|e| e.shot);
    if let Some(first) = errs.into_iter().next() {
        return Err(first);
    }
    // Stack in ascending shot order: a deterministic f32 reduction.
    for partial in partials.into_inner().unwrap().into_iter().flatten() {
        for (o, v) in image.as_mut_slice().iter_mut().zip(partial.as_slice()) {
            *o += v;
        }
    }
    Ok(image)
}

/// Forward + adjoint + imaging for one shot; returns its partial image.
fn image_one_shot(
    fwd_assets: &ShotAssets,
    norec_assets: &ShotAssets,
    shot: &ShotSpec,
    observed: &Array2<f32>,
    opts: &RtmOptions,
) -> Result<Array3<f32>, String> {
    let cfg = fwd_assets.config();
    let nt = cfg.nt;
    let every = opts.every;
    let nrec = fwd_assets
        .receivers()
        .expect("forward assets carry receivers")
        .num_receivers();
    if observed.dims() != [nt, nrec] {
        return Err(format!(
            "observed gather is {:?}, expected [{nt}, {nrec}]",
            observed.dims()
        ));
    }
    let exec = &opts.exec;

    // 1. Forward on the smooth model, recording the direct gather. With
    //    checkpointing, store one ring checkpoint per stride instead of the
    //    dense snapshot history.
    let mut fwd = build_solver(fwd_assets, shot)?;
    let mut s_snaps: Vec<Array3<f32>> = Vec::new();
    let mut checkpoints: Vec<(usize, RingCheckpoint)> = Vec::new();
    let stride = opts.checkpoint_stride;
    if stride == 0 {
        s_snaps = fwd.run_recording(exec, every);
    } else {
        fwd.run_range(exec, 0, 0); // reset only: entering-step-0 state
        let mut k = 0;
        while k < nt {
            if k.is_multiple_of(stride) {
                checkpoints.push((k, fwd.checkpoint()));
            }
            let k1 = (k + every).min(nt);
            fwd.run_range(exec, k, k1);
            k = k1;
        }
    }

    // 2. Adjoint: re-inject the time-reversed residual at the receivers.
    let r_snaps = adjoint(fwd, norec_assets, observed).run_recording(exec, every);

    // 3. Zero-lag imaging over snapshot pairs, ascending si.
    let s_count = if stride == 0 {
        s_snaps.len()
    } else {
        nt / every
    };
    let pairs = s_count.min(r_snaps.len());
    let shape = cfg.shape();
    let mut image = Array3::<f32>::zeros(shape.nx, shape.ny, shape.nz);
    let mut correlate = |si: usize, s: &Array3<f32>| {
        let r = &r_snaps[pairs - 1 - si];
        for (o, (a, b)) in image
            .as_mut_slice()
            .iter_mut()
            .zip(s.as_slice().iter().zip(r.as_slice()))
        {
            *o += a * b;
        }
    };
    if stride == 0 {
        for (si, s) in s_snaps.iter().enumerate().take(pairs) {
            correlate(si, s);
        }
    } else {
        // Re-materialise the forward history segment by segment on a
        // receiver-free twin (same source, same wavelet, no gathers).
        let mut twin = build_solver(norec_assets, shot)?;
        for (ck, cp) in &checkpoints {
            if *ck >= pairs * every {
                break;
            }
            twin.restore_checkpoint(cp);
            let seg_end = (ck + stride).min(nt);
            let mut k = *ck;
            while k < seg_end {
                let k1 = (k + every).min(nt);
                twin.run_range(exec, k, k1);
                if k1.is_multiple_of(every) {
                    let si = k1 / every - 1;
                    if si < pairs {
                        correlate(si, &twin.field_after(k1 - 1));
                    }
                }
                k = k1;
            }
        }
    }
    Ok(image)
}

/// The adjoint of a finished forward solve: the time-reversed residual
/// (observed − its direct gather) injected at its receivers, decomposed onto
/// their footprint, on a receiver-free propagator over `norec_assets`.
fn adjoint(fwd: Acoustic, norec_assets: &ShotAssets, observed: &Array2<f32>) -> Acoustic {
    let direct = fwd.trace().expect("forward solver has receivers");
    let [nt, nrec] = observed.dims();
    let mut reversed = Array2::<f32>::zeros(nt, nrec);
    for t in 0..nt {
        for r in 0..nrec {
            reversed.set(
                t,
                r,
                observed.get(nt - 1 - t, r) - direct.get(nt - 1 - t, r),
            );
        }
    }
    let src = fwd
        .receivers()
        .expect("forward solver has receivers")
        .adjoint_sources(reversed);
    drop(fwd); // before the adjoint's wavefield is allocated
    Acoustic::from_assets_with_sources(norec_assets, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_survey, SurveyOptions};
    use std::sync::Arc;
    use tempest_core::config::EquationKind;
    use tempest_core::sources::SourceBundle;
    use tempest_core::SimConfig;
    use tempest_grid::{Domain, Model, Shape};
    use tempest_sparse::SparsePoints;

    fn surveys() -> (Survey, Survey) {
        let n = 16;
        let domain = Domain::uniform(Shape::cube(n), 10.0);
        // Different direct-arrival velocities guarantee a non-zero residual
        // within the short window, on top of the reflector.
        let true_model = Model::two_layer(domain, 1500.0, 2500.0, 0.4);
        let smooth = Model::homogeneous(domain, 1800.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 3000.0, 150.0)
            .with_f0(45.0)
            .with_nt(40)
            .with_boundary(3, 0.3);
        let rec = SparsePoints::receiver_line(&domain, 5, 0.1);
        let mut t = Survey::new(true_model, cfg.clone()).with_receivers(rec.clone());
        t.add_shot_line(2, 0.08);
        let mut s = Survey::new(smooth, cfg).with_receivers(rec);
        s.add_shot_line(2, 0.08);
        (t, s)
    }

    #[test]
    fn checkpointed_image_is_bitwise_equal_to_dense() {
        let (true_sv, smooth_sv) = surveys();
        let observed: Vec<Array2<f32>> = run_survey(&true_sv, &SurveyOptions::default())
            .unwrap()
            .into_iter()
            .map(|r| r.gather.unwrap())
            .collect();
        let dense = rtm_image(&smooth_sv, &observed, &RtmOptions::new(2)).unwrap();
        assert!(dense.max_abs() > 0.0, "image is empty");
        let ckpt = rtm_image(
            &smooth_sv,
            &observed,
            &RtmOptions::new(2).with_checkpoint_stride(4),
        )
        .unwrap();
        assert_eq!(dense.as_slice(), ckpt.as_slice());
        // A stride that does not divide nt exercises the ragged tail.
        let ragged = rtm_image(
            &smooth_sv,
            &observed,
            &RtmOptions::new(2).with_checkpoint_stride(12),
        )
        .unwrap();
        assert_eq!(dense.as_slice(), ragged.as_slice());
    }

    /// The adjoint injects through the forward receiver bundle's footprint
    /// (shared, not rebuilt), and its decomposed residual is the one a
    /// source bundle built afresh over the receiver points gets, bit for bit.
    #[test]
    fn adjoint_shares_the_receiver_footprint() {
        let (_, smooth_sv) = surveys();
        let cfg = smooth_sv.cfg();
        let rec = smooth_sv.receivers().unwrap();
        let fwd_assets = ShotAssets::new(smooth_sv.model(), cfg.clone(), Some(rec.clone()));
        let mut fwd = build_solver(&fwd_assets, &smooth_sv.shots()[0]).unwrap();
        fwd.run(&RtmOptions::new(2).exec);
        let direct = fwd.trace().unwrap();
        assert!(direct.as_slice().iter().any(|&v| v != 0.0));
        let (nt, nrec) = (cfg.nt, rec.len());
        let mut observed = Array2::<f32>::zeros(nt, nrec);
        for t in 0..nt {
            for r in 0..nrec {
                observed.set(t, r, ((t * 7 + r * 13) % 19) as f32 * 0.37 - 3.1);
            }
        }
        let adj = adjoint(fwd, &fwd_assets.without_receivers(), &observed);
        let shared = &fwd_assets.receivers().unwrap().footprint;
        assert!(Arc::ptr_eq(&adj.sources().pre.footprint, shared));

        let mut reversed = Array2::<f32>::zeros(nt, nrec);
        for t in 0..nt {
            for r in 0..nrec {
                let res = observed.get(nt - 1 - t, r) - direct.get(nt - 1 - t, r);
                reversed.set(t, r, res);
            }
        }
        let fresh = SourceBundle::new(&cfg.domain, rec.clone(), reversed);
        let bits = |b: &SourceBundle| -> Vec<u32> {
            b.pre
                .src_dcmp
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(adj.sources()), bits(&fresh));
        assert!(adj.receivers().is_none());
    }

    #[test]
    fn empty_survey_images_to_zero() {
        let (_, mut smooth_sv) = surveys();
        smooth_sv = Survey::new(smooth_sv.model().clone(), smooth_sv.cfg().clone())
            .with_receivers(smooth_sv.receivers().unwrap().clone());
        let img = rtm_image(&smooth_sv, &[], &RtmOptions::new(2)).unwrap();
        assert_eq!(img.max_abs(), 0.0);
    }

    #[test]
    fn gather_shape_mismatch_is_reported() {
        let (_, smooth_sv) = surveys();
        let bad = vec![Array2::<f32>::zeros(3, 2), Array2::<f32>::zeros(3, 2)];
        let err = rtm_image(&smooth_sv, &bad, &RtmOptions::new(2)).unwrap_err();
        assert_eq!(err.shot, 0);
        assert!(err.message.contains("expected"), "{err}");
    }
}
