//! Exact-count observability oracles for the survey engine.
//!
//! The shot-level counters have closed-form oracles, and — like the tile
//! counters in `tests/observability.rs` — they must be identical across
//! worker caps:
//!
//! * `ShotStarted == ShotCompleted == number of shots` on a clean run,
//! * a failing shot counts started-but-not-completed, and later batches
//!   never start,
//! * a pre-cancelled run starts nothing,
//! * `BatchAutotune` counts once per run that tuned, zero otherwise,
//! * one `SpanKind::Shot` span per executed shot, carrying its index.
//!
//! Compiled only with `--features obs`; counters are process-global, so
//! every test serialises on one mutex and resets the registry. The CI
//! `survey` job runs this suite at `TEMPEST_THREADS` 1/2/4.

#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard};

use tempest::core::config::EquationKind;
use tempest::core::SimConfig;
use tempest::grid::{Domain, Model, Shape};
use tempest::obs::{self, Counter, SpanKind};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{
    run_survey, run_survey_streaming, CancelFlag, ShotSpec, Survey, SurveyOptions,
};

/// Global-counter tests cannot overlap: the registry is process-wide.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::trace::set_enabled(true);
    obs::reset();
    g
}

fn survey_with(n_shots: usize) -> Survey {
    let domain = Domain::uniform(Shape::cube(12), 10.0);
    let model = Model::homogeneous(domain, 2000.0);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let mut s =
        Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&domain, 3, 0.2));
    s.add_shot_line(n_shots, 0.1);
    s
}

fn shot_counters() -> (u64, u64, u64) {
    let p = obs::snapshot();
    (
        p.counter(Counter::ShotStarted),
        p.counter(Counter::ShotCompleted),
        p.counter(Counter::BatchAutotune),
    )
}

fn caps() -> [Policy; 3] {
    [
        Policy::Capped { threads: 1 },
        Policy::Capped { threads: 2 },
        Policy::Capped { threads: 4 },
    ]
}

/// Clean run: started == completed == shots, no autotune, one Shot span
/// per shot with the shot index riding in `vt` — identical at caps 1/2/4.
#[test]
fn clean_run_counts_every_shot_once_at_every_cap() {
    const SHOTS: usize = 5;
    let survey = survey_with(SHOTS);
    let mut seen: Vec<(u64, u64, u64, usize)> = Vec::new();
    for policy in caps() {
        let _g = guard();
        let opts = SurveyOptions {
            policy,
            batch_size: 2,
            ..SurveyOptions::default()
        };
        run_survey(&survey, &opts).unwrap();
        let (started, completed, tuned) = shot_counters();
        let trace = obs::snapshot().trace;
        assert_eq!(started, SHOTS as u64, "{policy:?}");
        assert_eq!(completed, SHOTS as u64, "{policy:?}");
        assert_eq!(tuned, 0, "{policy:?}: no autotune requested");
        assert_eq!(trace.count(SpanKind::Shot), SHOTS, "{policy:?}");
        let mut indices: Vec<i32> = trace
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Shot)
            .map(|e| e.args.vt)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..SHOTS as i32).collect::<Vec<_>>(), "{policy:?}");
        seen.push((started, completed, tuned, trace.count(SpanKind::Shot)));
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "oracle drifted across caps: {seen:?}"
    );
}

/// A failing shot is started-but-not-completed; shots in its batch still
/// run, later batches never start. Deterministic at every cap.
#[test]
fn failed_shot_accounting_is_deterministic() {
    let mut survey = survey_with(3);
    // Shot index 3 fails; with batch_size 2 the batches are [0,1], [2,3]
    // (the failing one), and [4] which must never start.
    survey.add_shot(ShotSpec::at([-50.0, 0.0, 0.0]));
    survey.add_shot_line(1, 0.3);
    assert_eq!(survey.len(), 5);
    for policy in caps() {
        let _g = guard();
        let opts = SurveyOptions {
            policy,
            batch_size: 2,
            ..SurveyOptions::default()
        };
        let err = run_survey(&survey, &opts).unwrap_err();
        assert_eq!(err.shot, 3);
        let (started, completed, _) = shot_counters();
        assert_eq!(started, 4, "{policy:?}: batches [0,1] and [2,3] start");
        assert_eq!(completed, 3, "{policy:?}: all but the failing shot finish");
        assert_eq!(obs::snapshot().trace.count(SpanKind::Shot), 4, "{policy:?}");
    }
}

/// A run cancelled before it starts counts nothing at any cap.
#[test]
fn pre_cancelled_run_counts_nothing() {
    let survey = survey_with(4);
    for policy in caps() {
        let _g = guard();
        let flag = CancelFlag::new();
        flag.cancel();
        let opts = SurveyOptions {
            policy,
            ..SurveyOptions::default()
        };
        let out = run_survey_streaming(&survey, &opts, Some(&flag), |_| {}).unwrap();
        assert!(out.cancelled);
        assert_eq!(shot_counters(), (0, 0, 0), "{policy:?}");
        assert_eq!(obs::snapshot().trace.count(SpanKind::Shot), 0, "{policy:?}");
    }
}

/// Autotuning counts exactly once per tuned run — not per shot, not per
/// batch (later batches reuse the result) — at every cap.
#[test]
fn batch_autotune_counts_once_per_tuned_run() {
    const SHOTS: usize = 4;
    let survey = survey_with(SHOTS);
    for policy in caps() {
        let _g = guard();
        let opts = SurveyOptions {
            policy,
            batch_size: 1, // four batches; tuning must still count once
            tune: true,
            ..SurveyOptions::default()
        };
        run_survey(&survey, &opts).unwrap();
        let (started, completed, tuned) = shot_counters();
        assert_eq!(tuned, 1, "{policy:?}");
        assert_eq!(started, SHOTS as u64, "{policy:?}: probes are not shots");
        assert_eq!(completed, SHOTS as u64, "{policy:?}");
    }
}
