//! End-to-end survey-scale RTM: the `tempest-survey` driver must be
//! bitwise-equal to the sum of per-shot images computed the way
//! `tests/rtm.rs` does it — hand-driven forward / adjoint / zero-lag
//! correlation on the raw `tempest-core` API — at thread caps 1/2/4 for the
//! shot fleet and for each shot's own dispatches, with and without
//! mid-survey ring checkpoint/restore — and checkpointed on the wave-front.

use tempest::core::config::EquationKind;
use tempest::core::operator::Schedule;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Array2, Array3, Domain, Model, Shape};
use tempest::par::{FlushGuard, Policy};
use tempest::sparse::wavelet::wavelet_matrix;
use tempest::sparse::SparsePoints;
use tempest::survey::{rtm_image, run_survey, RtmOptions, Survey, SurveyOptions};

const N: usize = 20;
const NT: usize = 30;
const EVERY: usize = 2;
const NSHOT: usize = 3;
const NREC: usize = 6;

struct Setup {
    domain: Domain,
    true_model: Model,
    smooth: Model,
    cfg: SimConfig,
    rec: SparsePoints,
    shots: Vec<[f32; 3]>,
}

fn setup() -> Setup {
    let domain = Domain::uniform(Shape::cube(N), 10.0);
    // Velocity contrast in the direct arrival keeps the residual alive
    // within the short window; the reflector adds structure.
    let true_model = Model::two_layer(domain, 1500.0, 2600.0, 0.45);
    let smooth = Model::homogeneous(domain, 1700.0);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 3000.0, 150.0)
        .with_f0(45.0)
        .with_nt(NT)
        .with_boundary(4, 0.3);
    let rec = SparsePoints::receiver_line(&domain, NREC, 0.08);
    let ext = domain.extent();
    let shots = (0..NSHOT)
        .map(|s| {
            [
                (s as f32 + 1.0) / (NSHOT as f32 + 1.0) * ext[0],
                0.5 * ext[1],
                0.08 * ext[2],
            ]
        })
        .collect();
    Setup {
        domain,
        true_model,
        smooth,
        cfg,
        rec,
        shots,
    }
}

fn surveys(s: &Setup) -> (Survey, Survey) {
    let mut true_sv =
        Survey::new(s.true_model.clone(), s.cfg.clone()).with_receivers(s.rec.clone());
    let mut smooth_sv = Survey::new(s.smooth.clone(), s.cfg.clone()).with_receivers(s.rec.clone());
    true_sv.add_shot_line(NSHOT, 0.08);
    smooth_sv.add_shot_line(NSHOT, 0.08);
    // The builder must reproduce the hand-placed geometry exactly.
    for (spec, pos) in true_sv.shots().iter().zip(&s.shots) {
        assert_eq!(&spec.position, pos, "shot-line geometry drifted");
    }
    (true_sv, smooth_sv)
}

/// The reference: per shot, the `tests/rtm.rs` recipe on raw core APIs —
/// observed gather on the true model, forward history + direct gather on
/// the smooth model, time-reversed residual re-injected at the receivers,
/// zero-lag correlation — summed over shots in index order.
fn reference_images_and_gathers(s: &Setup) -> (Array3<f32>, Vec<Array2<f32>>) {
    // `rtm_image` correlates and stacks in the system's floating-point
    // environment (DESIGN.md §17); so must arithmetic it is compared with bit
    // for bit.
    let _fp = FlushGuard::enter();
    let exec = Execution::baseline().sequential();
    let mut image = Array3::<f32>::zeros(N, N, N);
    let mut observed_all = Vec::new();
    for pos in &s.shots {
        let src = SparsePoints::new(&s.domain, vec![*pos]);

        // Observed data: true model, same receivers.
        let mut obs_fwd = Acoustic::new(
            &s.true_model,
            s.cfg.clone(),
            src.clone(),
            Some(s.rec.clone()),
        );
        obs_fwd.run(&exec);
        let observed = obs_fwd.trace().unwrap();

        // Forward on the smooth model: history + direct gather.
        let mut fwd = Acoustic::new(&s.smooth, s.cfg.clone(), src, Some(s.rec.clone()));
        let s_snaps = fwd.run_recording(&exec, EVERY);
        let direct = fwd.trace().unwrap();

        // Time-reversed residual re-injected at the receiver positions.
        let mut reversed = Array2::<f32>::zeros(NT, NREC);
        for t in 0..NT {
            for r in 0..NREC {
                reversed.set(
                    t,
                    r,
                    observed.get(NT - 1 - t, r) - direct.get(NT - 1 - t, r),
                );
            }
        }
        let mut adj =
            Acoustic::new_with_wavelets(&s.smooth, s.cfg.clone(), s.rec.clone(), reversed, None);
        let r_snaps = adj.run_recording(&exec, EVERY);

        // Zero-lag imaging, ascending snapshot index, into this shot's own
        // partial image; the stack is then the sum of per-shot images in
        // shot order.
        let mut shot_image = Array3::<f32>::zeros(N, N, N);
        let pairs = s_snaps.len().min(r_snaps.len());
        for si in 0..pairs {
            let sf = &s_snaps[si];
            let rf = &r_snaps[pairs - 1 - si];
            for (o, (a, b)) in shot_image
                .as_mut_slice()
                .iter_mut()
                .zip(sf.as_slice().iter().zip(rf.as_slice()))
            {
                *o += a * b;
            }
        }
        for (o, v) in image.as_mut_slice().iter_mut().zip(shot_image.as_slice()) {
            *o += v;
        }
        observed_all.push(observed);
    }
    (image, observed_all)
}

#[test]
fn survey_rtm_matches_per_shot_reference_bitwise() {
    let s = setup();
    let (true_sv, smooth_sv) = surveys(&s);
    let (reference, ref_observed) = reference_images_and_gathers(&s);
    assert!(reference.max_abs() > 0.0, "reference image is empty");

    for threads in [1usize, 2, 4] {
        let policy = Policy::Capped { threads };
        // Observed data through the survey engine must equal the per-shot
        // reference gathers byte for byte.
        let observed: Vec<Array2<f32>> = run_survey(
            &true_sv,
            &SurveyOptions {
                policy,
                ..SurveyOptions::default()
            },
        )
        .unwrap()
        .into_iter()
        .map(|r| r.gather.unwrap())
        .collect();
        for (got, want) in observed.iter().zip(&ref_observed) {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "gather differs (cap {threads})"
            );
        }

        // Dense-history survey RTM, each shot's blocks dispatched under the
        // same cap as the fleet.
        let mut opts = RtmOptions::new(EVERY).with_policy(policy);
        opts.exec.policy = policy;
        let dense = rtm_image(&smooth_sv, &observed, &opts).unwrap();
        assert_eq!(
            reference.as_slice(),
            dense.as_slice(),
            "dense survey image differs from per-shot reference (cap {threads})"
        );

        // Checkpointed forward storage: mid-survey ring checkpoint/restore
        // must re-materialise the identical history. A stride that does
        // not divide nt (30 % 8 != 0) exercises the ragged tail too.
        for stride in [8usize, 10] {
            let opts = opts.clone().with_checkpoint_stride(stride);
            let ckpt = rtm_image(&smooth_sv, &observed, &opts).unwrap();
            assert_eq!(
                reference.as_slice(),
                ckpt.as_slice(),
                "checkpointed (stride {stride}) image differs (cap {threads})"
            );
        }
    }
}

/// Checkpointed RTM on the wave-front: every snapshot and checkpoint is
/// taken between plan segments, which end flat even where they cut a time
/// tile, so the image is the dense baseline's bit for bit.
#[test]
fn checkpointed_wavefront_image_matches_dense_baseline() {
    let s = setup();
    let (true_sv, smooth_sv) = surveys(&s);
    let observed: Vec<Array2<f32>> = run_survey(&true_sv, &SurveyOptions::default())
        .unwrap()
        .into_iter()
        .map(|r| r.gather.unwrap())
        .collect();
    let dense = rtm_image(&smooth_sv, &observed, &RtmOptions::new(EVERY)).unwrap();
    assert!(dense.max_abs() > 0.0, "dense image is empty");
    let mut opts = RtmOptions::new(EVERY).with_checkpoint_stride(8);
    opts.exec = Execution {
        schedule: Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 12,
            tile_t: 3,
            block_x: 4,
            block_y: 4,
        },
        policy: Policy::Capped { threads: 2 },
        ..Execution::wavefront_default()
    };
    let ckpt = rtm_image(&smooth_sv, &observed, &opts).unwrap();
    assert_eq!(dense.as_slice(), ckpt.as_slice());
}

/// The survey engine's custom-wavelet shots reproduce the shared-Ricker
/// path bitwise when handed the same samples — the RTM adjoint relies on
/// exactly this equivalence.
#[test]
fn custom_wavelet_shot_matches_shared_ricker() {
    let s = setup();
    let ricker = tempest::sparse::wavelet::ricker(s.cfg.f0, s.cfg.dt, s.cfg.nt);
    let pos = s.shots[0];

    let mut shared = Survey::new(s.smooth.clone(), s.cfg.clone()).with_receivers(s.rec.clone());
    shared.add_shot(tempest::survey::ShotSpec::at(pos));
    let mut custom = Survey::new(s.smooth.clone(), s.cfg.clone()).with_receivers(s.rec.clone());
    custom.add_shot(tempest::survey::ShotSpec::with_wavelet(pos, ricker.clone()));

    let a = run_survey(&shared, &SurveyOptions::default()).unwrap();
    let b = run_survey(&custom, &SurveyOptions::default()).unwrap();
    assert_eq!(
        a[0].gather.as_ref().unwrap().as_slice(),
        b[0].gather.as_ref().unwrap().as_slice()
    );

    // And the explicit-wavelet core constructor agrees with both.
    let src = SparsePoints::new(&s.domain, vec![pos]);
    let mut core = Acoustic::new_with_wavelets(
        &s.smooth,
        s.cfg.clone(),
        src,
        wavelet_matrix(&ricker, 1),
        Some(s.rec.clone()),
    );
    core.run(&Execution::baseline().sequential());
    assert_eq!(
        a[0].gather.as_ref().unwrap().as_slice(),
        core.trace().unwrap().as_slice()
    );
}
