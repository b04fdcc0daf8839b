//! Deterministic seeded stress test of the survey job queue.
//!
//! A paused [`SurveyService`] makes the whole protocol deterministic: N
//! jobs with seeded random surveys, priorities, thread caps, batch sizes,
//! and cancellations are submitted first, then [`drain`] executes the
//! survivors in strict (priority desc, id asc) order on the calling
//! thread. The invariants under test:
//!
//! * every job reaches **exactly one** terminal state
//!   (`terminal_transitions == 1`),
//! * cancelled jobs never run and never expose receiver traces,
//! * failed jobs carry an error payload and expose no traces,
//! * completed gathers are **byte-identical** across shot-fleet thread
//!   caps (`Capped {1, 2, 4}`) and to a direct sequential `run_survey` of
//!   the same survey.
//!
//! The CI `survey` job additionally re-runs this suite under different
//! `TEMPEST_THREADS` pool sizes; nothing here may depend on the cap.

use std::sync::Arc;

use tempest::core::config::EquationKind;
use tempest::core::SimConfig;
use tempest::grid::{Domain, Model, Rng64, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{
    run_survey, JobSpec, JobState, ShotSpec, Survey, SurveyOptions, SurveyService,
};

const JOBS: usize = 120;
const SEED: u64 = 0x5EED_CAB5;

/// The pool of survey shapes jobs draw from. Index 3 contains an
/// out-of-domain shot and must fail deterministically.
fn survey_pool() -> Vec<Arc<Survey>> {
    let domain = Domain::uniform(Shape::cube(12), 10.0);
    let model = Model::homogeneous(domain, 2000.0);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let rec = SparsePoints::receiver_line(&domain, 3, 0.2);
    let mut pool = Vec::new();
    for shots in 1..=3 {
        let mut s = Survey::new(model.clone(), cfg.clone()).with_receivers(rec.clone());
        s.add_shot_line(shots, 0.1);
        pool.push(Arc::new(s));
    }
    let mut bad = Survey::new(model, cfg).with_receivers(rec);
    bad.add_shot(ShotSpec::at([-50.0, 0.0, 0.0]));
    pool.push(Arc::new(bad));
    pool
}

/// One job's deterministic outcome: terminal state, error presence, and
/// the flattened gather bytes of a completed job.
#[derive(Debug, PartialEq)]
struct Outcome {
    state: JobState,
    has_error: bool,
    gathers: Option<Vec<Vec<f32>>>,
}

/// Run the seeded stress schedule with the given shot-fleet policy and
/// return per-job outcomes in submission order.
fn stress_run(fleet_policy: Policy) -> Vec<Outcome> {
    let pool = survey_pool();
    let svc = SurveyService::paused();
    let mut rng = Rng64::new(SEED);
    let mut ids = Vec::with_capacity(JOBS);
    let mut cancelled = Vec::with_capacity(JOBS);
    for _ in 0..JOBS {
        let survey = Arc::clone(&pool[rng.range_usize(0, pool.len())]);
        let shots = survey.len();
        let opts = SurveyOptions {
            policy: fleet_policy,
            batch_size: rng.range_usize(0, shots + 1),
            ..SurveyOptions::default()
        };
        let spec = JobSpec::new(survey)
            .with_opts(opts)
            .with_priority(rng.range_usize(0, 7) as i32 - 3)
            .with_threads([0, 1, 2][rng.range_usize(0, 3)]);
        let id = svc.submit(spec);
        // A quarter of the jobs are cancelled while still queued — the
        // deterministic cancellation path (same RNG stream every run).
        let cancel = rng.chance(0.25);
        if cancel {
            assert!(svc.cancel(id), "queued job must accept cancellation");
        }
        ids.push(id);
        cancelled.push(cancel);
    }
    let ran = svc.drain();
    let expected_live = cancelled.iter().filter(|&&c| !c).count();
    assert_eq!(ran, expected_live, "drain must run exactly the live jobs");

    ids.iter()
        .zip(&cancelled)
        .map(|(&id, &was_cancelled)| {
            let st = svc.poll(id).expect("job record");
            // Exactly one terminal state, exactly once.
            assert!(st.state.is_terminal(), "job {id} not terminal");
            assert_eq!(st.terminal_transitions, 1, "job {id} transitions");
            if was_cancelled {
                assert_eq!(st.state, JobState::Cancelled, "job {id}");
                assert_eq!(st.shots_done, 0, "cancelled job {id} ran shots");
            }
            // Cancelled and failed jobs never expose traces.
            let gathers = svc.take_gathers(id);
            match st.state {
                JobState::Completed => {
                    assert!(st.error.is_none());
                    assert_eq!(st.shots_done, st.shots_total);
                }
                JobState::Cancelled | JobState::Failed => {
                    assert!(gathers.is_none(), "job {id} leaked traces");
                    assert_eq!(
                        st.state == JobState::Failed,
                        st.error.is_some(),
                        "error payload iff failed (job {id})"
                    );
                }
                _ => unreachable!(),
            }
            Outcome {
                state: st.state,
                has_error: st.error.is_some(),
                gathers: gathers.map(|g| {
                    g.into_iter()
                        .map(|og| og.expect("receivers attached").as_slice().to_vec())
                        .collect()
                }),
            }
        })
        .collect()
}

/// The headline invariant: the full stress schedule is byte-identical
/// across shot-fleet thread caps 1/2/4 and the sequential policy.
#[test]
fn stress_schedule_is_deterministic_across_thread_caps() {
    let reference = stress_run(Policy::Sequential);
    assert_eq!(reference.len(), JOBS);
    // Sanity: the schedule exercises all three terminal states.
    assert!(reference.iter().any(|o| o.state == JobState::Completed));
    assert!(reference.iter().any(|o| o.state == JobState::Cancelled));
    assert!(reference.iter().any(|o| o.state == JobState::Failed));
    for threads in [1usize, 2, 4] {
        let got = stress_run(Policy::Capped { threads });
        assert_eq!(
            got, reference,
            "outcomes differ between Capped{{{threads}}} and sequential"
        );
    }
}

/// Completed stress gathers equal a direct sequential `run_survey` of the
/// same survey — the queue adds orchestration, never different physics.
#[test]
fn queue_gathers_match_direct_engine_runs() {
    let pool = survey_pool();
    let direct: Vec<Vec<Vec<f32>>> = pool[..3]
        .iter()
        .map(|s| {
            run_survey(
                s,
                &SurveyOptions {
                    policy: Policy::Sequential,
                    ..SurveyOptions::default()
                },
            )
            .unwrap()
            .into_iter()
            .map(|r| r.gather.unwrap().as_slice().to_vec())
            .collect()
        })
        .collect();

    let svc = SurveyService::paused();
    let ids: Vec<_> = pool[..3]
        .iter()
        .map(|s| svc.submit(JobSpec::new(Arc::clone(s))))
        .collect();
    svc.drain();
    for (i, &id) in ids.iter().enumerate() {
        let gathers: Vec<Vec<f32>> = svc
            .take_gathers(id)
            .expect("completed job")
            .into_iter()
            .map(|g| g.unwrap().as_slice().to_vec())
            .collect();
        assert_eq!(gathers, direct[i], "survey {i} gathers differ via queue");
    }
}

/// The live (threaded) service upholds exactly-once terminal accounting
/// even though its timing is nondeterministic.
#[test]
fn live_service_terminal_accounting() {
    let pool = survey_pool();
    let svc = SurveyService::start();
    let mut ids = Vec::new();
    for round in 0..6 {
        let id = svc
            .submit(JobSpec::new(Arc::clone(&pool[round % 3])).with_priority((round % 3) as i32));
        if round % 3 == 2 {
            svc.cancel(id); // may land while queued or running — both legal
        }
        ids.push(id);
    }
    for id in ids {
        let st = svc.wait(id).expect("job record");
        assert!(st.state.is_terminal());
        assert_eq!(st.terminal_transitions, 1);
        if st.state != JobState::Completed {
            assert!(svc.take_gathers(id).is_none());
        }
    }
}
