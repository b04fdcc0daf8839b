//! One floating-point environment, whatever route a solve takes (DESIGN.md
//! §17).
//!
//! A point source whose front is still inside the grid leaves a shell of
//! values below `f32::MIN_POSITIVE` ahead of it — 40 cells out at 128³, and
//! within a 32³ grid once the source is faint (the wavelets here are scaled
//! by 1e-22; the wavefield is linear in them). A thread that steps, injects
//! or gathers there in the default mode computes different bits from one in
//! flush mode, so running the *same* solve down every route the workspace
//! offers and comparing bits finds a route that missed the mode: the calling
//! thread under `Policy::Sequential`, the pool's workers, a survey's shot
//! fleet, the survey service's scheduler thread, `run_range` segments,
//! cached cold and warm sweeps, a DSL operator's solves. The receivers cross
//! the shell, so gathers (the only output a survey returns) see it too.
//!
//! There is no switch that runs a solve *outside* the mode, so what proves
//! the fixtures reach the subnormal range is the control in
//! `tests/step_reference.rs` plus the mutation checks recorded in CHANGES.md
//! (PR 20): removing one guard placement at a time fails this file.
#![cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]

mod common;

use std::sync::Arc;

use common::{solvers_on, trace_bitwise, AcousticDsl};
use tempest::core::config::EquationKind;
use tempest::core::operator::SparseMode;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Array3, Domain, Model, Shape};
use tempest::par::{subnormals_flushed, Policy};
use tempest::sparse::wavelet::wavelet_matrix;
use tempest::sparse::{ricker, SparsePoints};
use tempest::survey::{
    run_survey, JobSpec, JobState, ShotSpec, Survey, SurveyOptions, SurveyService,
};
use tempest::tiling::TileCache;

const N: usize = 32;
const NT: usize = 10;
/// One receiver per cell along x: the line crosses the shell twice a step.
const NREC: usize = 32;
/// Source amplitude: faint enough that the front's leading edge underflows
/// inside the grid.
const FAINT: f32 = 1e-22;

fn subnormals(values: &[f32]) -> usize {
    values.iter().filter(|v| v.is_subnormal()).count()
}

/// The front is inside the grid — cells it has not reached are exactly zero,
/// cells behind it are not — and nothing in `field` is subnormal.
fn assert_flushed_front(field: &Array3<f32>, what: &str) {
    let zeros = field.as_slice().iter().filter(|&&v| v == 0.0).count();
    assert!(zeros > 0, "{what}: the front has left the grid");
    assert!(zeros < field.len(), "{what}: the field was never excited");
    assert_eq!(
        subnormals(field.as_slice()),
        0,
        "{what}: subnormal field values"
    );
}

struct Fixture {
    domain: Domain,
    model: Model,
    cfg: SimConfig,
    position: [f32; 3],
    wavelet: Vec<f32>,
    rec: SparsePoints,
}

impl Fixture {
    fn new() -> Self {
        let domain = Domain::uniform(Shape::cube(N), 10.0);
        let ext = domain.extent();
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2800.0, 50.0)
            .with_nt(NT)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        Fixture {
            domain,
            model: Model::two_layer(domain, 1600.0, 2800.0, 0.5),
            position: [0.5137 * ext[0], 0.5 * ext[1], 0.5 * ext[2]],
            wavelet: ricker(25.0, cfg.dt, NT)
                .into_iter()
                .map(|a| a * FAINT)
                .collect(),
            cfg,
            rec: SparsePoints::receiver_line(&domain, NREC, 0.4),
        }
    }

    fn solver(&self) -> Acoustic {
        Acoustic::new_with_wavelets(
            &self.model,
            self.cfg.clone(),
            SparsePoints::new(&self.domain, vec![self.position]),
            wavelet_matrix(&self.wavelet, 1),
            Some(self.rec.clone()),
        )
    }

    /// The same shot `shots` times over, so a fleet has work for every thread.
    fn survey(&self, shots: usize) -> Arc<Survey> {
        let mut s =
            Survey::new(self.model.clone(), self.cfg.clone()).with_receivers(self.rec.clone());
        for _ in 0..shots {
            s.add_shot(ShotSpec::with_wavelet(self.position, self.wavelet.clone()));
        }
        Arc::new(s)
    }
}

#[test]
fn every_route_computes_the_same_bits() {
    assert!(
        !subnormals_flushed(),
        "a test thread starts in the default mode"
    );
    let fx = Fixture::new();
    let classic = Execution::baseline();
    assert_eq!(classic.sparse, SparseMode::Classic);
    let fused = Execution::wavefront_default();

    // The anchor: space-blocked, classic sparse operators, one thread.
    let mut s = fx.solver();
    s.run(&classic.sequential());
    let (field, gather) = (s.final_field(), s.trace().unwrap());
    assert_flushed_front(&field, "sequential run");
    assert_eq!(
        subnormals(gather.as_slice()),
        0,
        "sequential run: subnormal traces"
    );
    assert!(
        gather.as_slice().iter().any(|&v| v != 0.0),
        "receivers saw nothing"
    );
    assert!(!subnormals_flushed(), "`run` left its caller in flush mode");

    let same_field = |s: &mut Acoustic, what: &str| {
        let f = s.final_field();
        assert!(
            field.bit_equal(&f),
            "{what}: max diff {:e}",
            field.max_abs_diff(&f)
        );
    };

    // The pool: the classic gather still runs on the caller, in step order.
    for policy in [Policy::Parallel, Policy::Capped { threads: 2 }] {
        let what = format!("run {policy:?}");
        s.run(&Execution { policy, ..classic });
        same_field(&mut s, &what);
        trace_bitwise(&gather, &s.trace().unwrap(), &what);
    }

    // `run_range` segments (checkpointed RTM's forward pass) and snapshot
    // recording (its dense one).
    s.run_range(&classic.sequential(), 0, 3);
    s.run_range(&classic, 3, 7);
    s.run_range(&classic.sequential(), 7, NT);
    same_field(&mut s, "run_range segments");
    trace_bitwise(&gather, &s.trace().unwrap(), "run_range segments");
    let snaps = s.run_recording(&classic, NT / 2);
    assert!(
        field.bit_equal(snaps.last().unwrap()),
        "run_recording's last snapshot"
    );
    trace_bitwise(&gather, &s.trace().unwrap(), "run_recording");

    // The plan executor, fused sparse operators: plain, cached cold, cached
    // warm. Fused gathers equal the classic ones bit for bit at every cap.
    for policy in [
        Policy::Sequential,
        Policy::Parallel,
        Policy::Capped { threads: 2 },
    ] {
        let exec = Execution { policy, ..fused };
        let cache = TileCache::with_capacity_mb(64);
        for mode in ["plain", "cold", "warm"] {
            let what = format!("wave-front {policy:?} {mode}");
            if mode == "plain" {
                s.run(&exec);
            } else {
                let rep = s.run_incremental(&exec, &cache, 0);
                assert_eq!(rep.cold, mode == "cold", "{what}");
                assert_eq!(
                    rep.reused,
                    if rep.cold { 0 } else { rep.total_tiles },
                    "{what}"
                );
            }
            same_field(&mut s, &what);
            trace_bitwise(&gather, &s.trace().unwrap(), &what);
        }
    }
    assert!(
        !subnormals_flushed(),
        "a solve left its caller in flush mode"
    );

    // A survey's shot fleet: shots on pool workers and on the caller.
    for policy in [Policy::Sequential, Policy::Parallel] {
        let opts = SurveyOptions {
            policy,
            ..SurveyOptions::default()
        };
        assert_eq!(opts.exec.sparse, SparseMode::Classic);
        let shots = run_survey(&fx.survey(4), &opts).unwrap();
        assert_eq!(shots.len(), 4);
        for shot in shots {
            let what = format!("run_survey {policy:?} shot {}", shot.index);
            trace_bitwise(&gather, &shot.gather.unwrap(), &what);
        }
    }
    assert!(
        !subnormals_flushed(),
        "`run_survey` left its caller in flush mode"
    );

    // The survey service: the same fleet under its scheduler thread.
    let svc = SurveyService::start();
    let id = svc.submit(JobSpec::new(fx.survey(3)));
    assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
    for (i, g) in svc.take_gathers(id).unwrap().into_iter().enumerate() {
        trace_bitwise(&gather, &g.unwrap(), &format!("service shot {i}"));
    }
}

/// Point-source solves of all three propagators leave nothing subnormal in
/// the field or the traces, under both schedules.
#[test]
fn guarded_runs_leave_no_subnormal_value() {
    for mut s in solvers_on(N, 8, 6, 0.37, NREC) {
        for exec in [
            Execution::baseline().sequential(),
            Execution::baseline(),
            Execution::wavefront_default().sequential(),
            Execution::wavefront_default(),
        ] {
            let what = format!("{} {}", s.name(), exec.schedule_label());
            s.run(&exec);
            assert_flushed_front(&s.final_field(), &what);
            let t = s.trace().unwrap();
            assert_eq!(subnormals(t.as_slice()), 0, "{what}: subnormal traces");
        }
    }
    assert!(!subnormals_flushed());
}

/// The classic operators run on the caller between one-step plan segments,
/// in the mode too: a source whose every sample is subnormal injects nothing
/// and its receivers record nothing, under every policy.
#[test]
fn classic_operators_between_segments_run_in_flush_mode() {
    let fx = Fixture::new();
    let wavelet: Vec<f32> = fx.wavelet.iter().map(|a| a * 1e-15).collect();
    assert!(wavelet.iter().all(|a| a.is_subnormal()), "{wavelet:?}");
    let mut s = Acoustic::new_with_wavelets(
        &fx.model,
        fx.cfg.clone(),
        SparsePoints::new(&fx.domain, vec![fx.position]),
        wavelet_matrix(&wavelet, 1),
        Some(fx.rec.clone()),
    );
    for policy in [Policy::Sequential, Policy::Capped { threads: 2 }] {
        s.run(&Execution {
            policy,
            ..Execution::baseline()
        });
        let what = format!("classic {policy:?}");
        assert_eq!(s.final_field().max_abs(), 0.0, "{what}: field");
        let t = s.trace().unwrap();
        assert!(t.as_slice().iter().all(|&v| v == 0.0), "{what}: traces");
    }
    assert!(!subnormals_flushed());
}

/// A DSL operator has no run code of its own: its solves take the mode from
/// the executors like any propagator's, on the calling thread and on the
/// pool.
#[test]
fn dsl_solves_share_the_mode() {
    let mut dsl = AcousticDsl::new(N, 4, NT);
    let domain = dsl.cfg.domain;
    dsl.inject(&SparsePoints::single_center(&domain, 0.37), FAINT);
    let mut op = dsl.op;
    op.set_interpolation(dsl.u, &SparsePoints::receiver_line(&domain, NREC, 0.4));

    op.run(&Execution::baseline().sequential());
    let field = op.final_field();
    assert_flushed_front(&field, "dsl sequential baseline");
    for exec in [
        Execution::baseline().sequential(),
        Execution::baseline(),
        Execution::wavefront_default().sequential(),
        Execution::wavefront_default(),
    ] {
        let what = format!("dsl {} {:?}", exec.schedule_label(), exec.policy);
        op.run(&exec);
        assert!(field.bit_equal(&op.final_field()), "{what}: field");
        let t = op.trace().unwrap();
        assert_eq!(subnormals(t.as_slice()), 0, "{what}: subnormal traces");
    }
    assert!(
        !subnormals_flushed(),
        "the DSL left its caller in flush mode"
    );
}
