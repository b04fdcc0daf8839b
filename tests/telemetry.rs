//! Exact-count oracles for the live telemetry layer (DESIGN.md §15).
//!
//! Telemetry must be *deterministic where it claims to be*: the heartbeat
//! count mirrors the accounting counters exactly (`ParTasks` +
//! `ShotStarted` + `ShotCompleted`, plus one admission beat per job run by
//! the service), the queue gauges are recomputed from queue state under its
//! lock (exact levels, not samples), and everything scraped from `/metrics`
//! must agree with an in-process snapshot — identically across worker caps.
//! The wall-clock side (heartbeat *age*, the stall watchdog) is validated
//! with seeded fault injection: a hang wedged between two shots must trip
//! the watchdog exactly once, and a clean run must never trip it.
//!
//! Telemetry follows the one recording switch: with it off nothing is
//! recorded and no endpoint starts; with it on, heartbeats and gauges are
//! recorded, and an endpoint starts only where an address is known.
//!
//! Compiled only with `--features obs`; counters and gauges are
//! process-global, so every test serialises on one mutex and resets the
//! registries. The CI `telemetry` job runs this suite at `TEMPEST_THREADS`
//! 1/2/4.

#![cfg(feature = "obs")]

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use tempest::core::config::EquationKind;
use tempest::core::SimConfig;
use tempest::grid::{Domain, Model, Shape};
use tempest::obs::metrics::{self, Gauge};
use tempest::obs::{self, serve, Counter};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{
    run_survey, JobSpec, JobState, ServiceConfig, ShotSpec, Survey, SurveyOptions, SurveyService,
};

/// Global-counter tests cannot overlap: the registries are process-wide.
static LOCK: Mutex<()> = Mutex::new(());

/// Serialise, set the switch to record + events (`recording`) or off, and
/// zero every registry.
fn guard(recording: bool) -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(false);
    obs::trace::set_enabled(recording);
    obs::reset();
    metrics::reset_metrics();
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

/// A survey whose single shot is out of the domain: fails deterministically.
fn failing_survey() -> Survey {
    let domain = Domain::uniform(Shape::cube(12), 10.0);
    let model = Model::homogeneous(domain, 2000.0);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let mut s =
        Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&domain, 3, 0.2));
    s.add_shot(ShotSpec::at([-50.0, 0.0, 0.0]));
    s
}

fn caps() -> [usize; 3] {
    [1, 2, 4]
}

/// The closed-form heartbeat oracle for work done so far: every parallel
/// batch item, plus the shot start/completion boundaries, plus one
/// admission beat per job the service ran.
fn heartbeat_oracle(jobs_run: u64) -> u64 {
    let p = obs::snapshot();
    p.counter(Counter::ParTasks)
        + p.counter(Counter::ShotStarted)
        + p.counter(Counter::ShotCompleted)
        + jobs_run
}

/// Engine-direct runs: heartbeats mirror the counters exactly, and the
/// whole tuple is identical at caps 1/2/4.
#[test]
fn engine_heartbeats_match_counter_oracle_at_every_cap() {
    const SHOTS: usize = 5;
    let survey = survey_with(SHOTS);
    let mut seen: Vec<u64> = Vec::new();
    for threads in caps() {
        let _g = guard(true);
        let opts = SurveyOptions {
            policy: Policy::Capped { threads },
            batch_size: 2,
            ..SurveyOptions::default()
        };
        run_survey(&survey, &opts).unwrap();
        let beats = metrics::heartbeats();
        assert!(beats > 0, "cap {threads}: no heartbeats recorded");
        assert_eq!(beats, heartbeat_oracle(0), "cap {threads}");
        assert!(metrics::heartbeat_age().is_some(), "cap {threads}");
        seen.push(beats);
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "heartbeat oracle drifted across caps: {seen:?}"
    );
}

/// The queue gauges are exact levels recomputed under the queue lock: a
/// paused service makes every transition deterministic.
#[test]
fn service_gauges_track_queue_states_exactly() {
    let _g = guard(true);
    let svc = SurveyService::paused();
    let a = svc.submit(JobSpec::new(Arc::new(survey_with(2))));
    let b = svc.submit(JobSpec::new(Arc::new(survey_with(1))));
    let c = svc.submit(JobSpec::new(Arc::new(failing_survey())));
    let d = svc.submit(JobSpec::new(Arc::new(survey_with(1))));
    assert_eq!(metrics::gauge(Gauge::QueueDepth), 4);
    assert_eq!(metrics::gauge(Gauge::RunningJobs), 0);

    assert!(svc.cancel(d), "queued job must accept cancellation");
    assert_eq!(metrics::gauge(Gauge::QueueDepth), 3);
    assert_eq!(metrics::gauge(Gauge::CancelledJobs), 1);

    assert_eq!(svc.drain(), 3);
    assert_eq!(metrics::gauge(Gauge::QueueDepth), 0);
    assert_eq!(metrics::gauge(Gauge::RunningJobs), 0);
    assert_eq!(metrics::gauge(Gauge::CompletedJobs), 2);
    assert_eq!(metrics::gauge(Gauge::FailedJobs), 1);
    assert_eq!(metrics::gauge(Gauge::CancelledJobs), 1);
    assert_eq!(metrics::gauge(Gauge::StalledJobs), 0);
    for (id, want) in [
        (a, JobState::Completed),
        (b, JobState::Completed),
        (c, JobState::Failed),
        (d, JobState::Cancelled),
    ] {
        assert_eq!(svc.poll(id).unwrap().state, want, "job {id}");
    }
}

/// Pull one unlabelled sample value out of a Prometheus exposition text.
fn sample_value(text: &str, name: &str) -> f64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().unwrap_or_else(|e| {
                    panic!("unparseable sample {name} {v:?}: {e}");
                });
            }
        }
    }
    panic!("sample {name} not found in exposition:\n{text}");
}

/// What `/metrics` serves must agree with the in-process snapshot, and the
/// deterministic counters scraped from it must be identical across caps.
#[test]
fn scraped_metrics_match_snapshot_oracles_across_caps() {
    const JOBS: u64 = 2;
    let mut seen: Vec<(u64, u64, u64)> = Vec::new();
    for threads in caps() {
        let _g = guard(true);
        let svc = SurveyService::start_with(ServiceConfig {
            endpoint_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        });
        let addr = svc.telemetry_addr().expect("ephemeral endpoint must bind");
        let ids = [
            svc.submit(JobSpec::new(Arc::new(survey_with(3))).with_threads(threads)),
            svc.submit(JobSpec::new(Arc::new(survey_with(2))).with_threads(threads)),
        ];
        for id in ids {
            assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
        }

        let (code, text) = serve::http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(code, 200);
        serve::validate_exposition(&text).expect("valid exposition");

        let p = obs::snapshot();
        let started = sample_value(&text, "tempest_shot_started_total") as u64;
        let completed = sample_value(&text, "tempest_shot_completed_total") as u64;
        let par_tasks = sample_value(&text, "tempest_par_tasks_total") as u64;
        let beats = sample_value(&text, "tempest_heartbeats_total") as u64;
        assert_eq!(started, p.counter(Counter::ShotStarted), "cap {threads}");
        assert_eq!(
            completed,
            p.counter(Counter::ShotCompleted),
            "cap {threads}"
        );
        assert_eq!(par_tasks, p.counter(Counter::ParTasks), "cap {threads}");
        assert_eq!(beats, metrics::heartbeats(), "cap {threads}");
        assert_eq!(beats, heartbeat_oracle(JOBS), "cap {threads}");
        assert_eq!(
            sample_value(&text, "tempest_completed_jobs") as u64,
            JOBS,
            "cap {threads}"
        );
        seen.push((started, completed, beats));
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "scraped oracle drifted across caps: {seen:?}"
    );
}

/// `/jobs` reflects terminal progress through the registered provider.
#[test]
fn jobs_endpoint_serves_progress_json() {
    let _g = guard(true);
    let svc = SurveyService::start_with(ServiceConfig {
        endpoint_addr: Some("127.0.0.1:0".into()),
        ..ServiceConfig::default()
    });
    let addr = svc.telemetry_addr().expect("ephemeral endpoint must bind");
    let id = svc.submit(JobSpec::new(Arc::new(survey_with(2))));
    assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);

    let (code, body) = serve::http_get(addr, "/healthz").expect("scrape /healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, body) = serve::http_get(addr, "/jobs").expect("scrape /jobs");
    assert_eq!(code, 200);
    let doc = obs::json::Value::parse(&body).expect("valid /jobs JSON");
    let jobs = doc
        .get("jobs")
        .and_then(|v| v.as_arr())
        .expect("jobs array");
    assert_eq!(jobs.len(), 1);
    let j = &jobs[0];
    assert_eq!(j.get("state").and_then(|v| v.as_str()), Some("Completed"));
    assert_eq!(j.get("progress").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(j.get("stalled").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(
        doc.get("heartbeats").and_then(|v| v.as_u64()),
        Some(metrics::heartbeats())
    );
}

/// Seeded fault injection: a hang wedged between two shots goes silent
/// past `stall_after`, so the watchdog must flag the running job exactly
/// once — and clear the flag when the job completes anyway.
#[test]
fn watchdog_trips_exactly_once_on_injected_hang() {
    let _g = guard(true);
    let svc = SurveyService::start_with(ServiceConfig {
        stall_after: Duration::from_millis(250),
        watchdog_interval: Duration::from_millis(25),
        ..ServiceConfig::default()
    });
    let id = svc.submit(
        JobSpec::new(Arc::new(survey_with(3)))
            .with_threads(1)
            .with_opts(SurveyOptions {
                policy: Policy::Sequential,
                batch_size: 1,
                // Sleep 1.5 s before shot 1 starts solving — far past the
                // 250 ms stall threshold, with no heartbeat across the gap.
                inject_hang: Some((1, 1_500)),
                ..SurveyOptions::default()
            }),
    );

    let mut observed_stalled = false;
    let mut observed_gauge = 0i64;
    loop {
        let st = svc.poll(id).expect("job record");
        observed_stalled |= st.stalled;
        observed_gauge = observed_gauge.max(metrics::gauge(Gauge::StalledJobs));
        if st.state.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let st = svc.wait(id).unwrap();
    assert_eq!(
        st.state,
        JobState::Completed,
        "hang is a delay, not a failure"
    );
    assert!(observed_stalled, "watchdog never flagged the hung job");
    assert_eq!(observed_gauge, 1, "StalledJobs gauge while hung");
    assert_eq!(st.stall_events, 1, "one hang = one stall episode");
    assert!(!st.stalled, "terminal jobs are not stalled");
    assert_eq!(
        metrics::gauge(Gauge::StalledJobs),
        0,
        "gauge cleared at terminal"
    );
}

/// A clean run never trips the watchdog, even at a tight threshold.
#[test]
fn clean_run_never_trips_watchdog() {
    let _g = guard(true);
    let svc = SurveyService::start_with(ServiceConfig {
        stall_after: Duration::from_millis(250),
        watchdog_interval: Duration::from_millis(25),
        ..ServiceConfig::default()
    });
    let ids = [
        svc.submit(JobSpec::new(Arc::new(survey_with(3)))),
        svc.submit(JobSpec::new(Arc::new(survey_with(2))).with_threads(1)),
    ];
    for id in ids {
        let st = svc.wait(id).unwrap();
        assert_eq!(st.state, JobState::Completed);
        assert_eq!(st.stall_events, 0, "job {id} flagged on a clean run");
        assert!(!st.stalled, "job {id}");
    }
    assert_eq!(metrics::gauge(Gauge::StalledJobs), 0);
}

/// With recording off the whole layer is inert: no heartbeats, no gauges,
/// no endpoint — even when the config names an address.
#[test]
fn telemetry_off_records_nothing() {
    let _g = guard(false);
    let svc = SurveyService::start_with(ServiceConfig {
        endpoint_addr: Some("127.0.0.1:0".into()),
        ..ServiceConfig::default()
    });
    assert!(
        svc.telemetry_addr().is_none(),
        "endpoint with recording off"
    );
    let id = svc.submit(JobSpec::new(Arc::new(survey_with(2))));
    assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
    assert_eq!(metrics::heartbeats(), 0, "heartbeats with recording off");
    assert!(metrics::heartbeat_age().is_none());
    for g in Gauge::ALL {
        assert_eq!(
            metrics::gauge(g),
            0,
            "gauge {} with recording off",
            g.name()
        );
    }
    assert!(obs::snapshot().is_empty(), "counters with recording off");
}

/// With recording on and no address anywhere, heartbeats and gauges are
/// recorded but no endpoint starts.
#[test]
fn recording_without_an_address_serves_nothing() {
    if serve::env_addr().is_some() {
        eprintln!("TEMPEST_TELEMETRY names an address: the no-address case cannot run");
        return;
    }
    let _g = guard(true);
    let svc = SurveyService::start();
    assert!(
        svc.telemetry_addr().is_none(),
        "endpoint without an address"
    );
    let id = svc.submit(JobSpec::new(Arc::new(survey_with(2))));
    assert_eq!(svc.wait(id).unwrap().state, JobState::Completed);
    assert!(metrics::heartbeats() > 0);
    assert_eq!(metrics::heartbeats(), heartbeat_oracle(1));
    assert!(metrics::heartbeat_age().is_some());
    assert_eq!(metrics::gauge(Gauge::CompletedJobs), 1);
}

/// Dropping one service must not take `/jobs` away from another that is
/// still running: only the registration a service made can be cleared by
/// it.
#[test]
fn dropping_a_service_keeps_the_live_ones_jobs() {
    let _g = guard(true);
    let ephemeral = || {
        SurveyService::start_with(ServiceConfig {
            endpoint_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        })
    };
    let first = ephemeral();
    let second = ephemeral();
    let addr = second
        .telemetry_addr()
        .expect("ephemeral endpoint must bind");
    let id = second.submit(JobSpec::new(Arc::new(survey_with(1))));
    assert_eq!(second.wait(id).unwrap().state, JobState::Completed);
    drop(first);

    let (code, body) = serve::http_get(addr, "/jobs").expect("scrape /jobs");
    assert_eq!(code, 200);
    let doc = obs::json::Value::parse(&body).expect("valid /jobs JSON");
    let jobs = doc
        .get("jobs")
        .and_then(|v| v.as_arr())
        .expect("jobs array");
    assert_eq!(jobs.len(), 1, "the live service's job vanished: {body}");
    let (_, text) = serve::http_get(addr, "/metrics").expect("scrape /metrics");
    assert!(
        text.contains(&format!("tempest_job_progress{{job=\"{id}\"}} 1")),
        "{text}"
    );
}
