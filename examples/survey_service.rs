//! Survey-scale shot orchestration through the async job queue — the
//! production shape of the workload the paper motivates (§I): many shots
//! into a shared model, each recorded at a receiver line, scheduled by
//! priority with live polling and cancellation.
//!
//! ```text
//! cargo run --release --example survey_service --features obs
//! # with the live telemetry endpoint (DESIGN.md §15):
//! TEMPEST_TELEMETRY=1 cargo run --release --example survey_service --features obs
//! curl http://127.0.0.1:9464/metrics
//! ```
//!
//! Three surveys are submitted to a live [`SurveyService`]: a high-priority
//! production batch, a low-priority background sweep, and a speculative job
//! that is cancelled mid-flight. The example polls the queue like a client
//! would — including the per-job progress/ETA gauges — then prints the
//! terminal state, shot progress, and gather energy of every job.
//!
//! The example turns recording on, so with `--features obs` the queue
//! gauges, heartbeats and stall watchdog run. With `TEMPEST_TELEMETRY` set
//! the service also exports `/metrics` (Prometheus text), `/jobs` (JSON)
//! and `/healthz` over HTTP; the example scrapes its own endpoint and
//! validates both documents. Set `TEMPEST_TELEMETRY=host:port` to choose
//! the bind address, and `TEMPEST_TELEMETRY_HOLD=<seconds>` to keep the
//! process (and endpoint) alive after the jobs drain so an external client
//! can scrape it. Without `TEMPEST_TELEMETRY` no endpoint starts, and
//! heartbeats follow the recording switch — the example asserts both.

use std::sync::Arc;

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Execution, SimConfig};
use tempest::grid::{Domain, Model, Shape};
use tempest::obs;
use tempest::obs::metrics::Gauge;
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{JobSpec, JobState, Survey, SurveyOptions, SurveyService};

fn build_survey(shots: usize, f0: f32) -> Arc<Survey> {
    let n = 48;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::two_layer(domain, 1500.0, 2800.0, 0.55);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, model.vmax(), 120.0)
        .with_f0(f0)
        .with_boundary(8, 0.3);
    let rec = SparsePoints::receiver_line(&domain, 16, 0.08);
    let mut s = Survey::new(model, cfg).with_receivers(rec);
    s.add_shot_line(shots, 0.08);
    Arc::new(s)
}

/// A small survey whose shot line sits at `shot_frac` — re-built at a
/// slightly different fraction it is "the same survey, sources nudged",
/// the canonical incremental-rework delta (DESIGN.md §16).
fn build_nudged_survey(shot_frac: f32) -> Arc<Survey> {
    let n = 32;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::two_layer(domain, 1500.0, 2800.0, 0.55);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, model.vmax(), 60.0)
        .with_f0(15.0)
        .with_boundary(4, 0.3);
    let rec = SparsePoints::receiver_line(&domain, 8, 0.08);
    let mut s = Survey::new(model, cfg).with_receivers(rec);
    s.add_shot_line(2, shot_frac);
    Arc::new(s)
}

fn main() {
    obs::set_enabled(true);

    let svc = SurveyService::start();
    match svc.telemetry_addr() {
        Some(addr) => println!("telemetry endpoint: http://{addr}  (/metrics /jobs /healthz)"),
        None => println!("no telemetry endpoint (set TEMPEST_TELEMETRY=1 for /metrics + /jobs)"),
    }

    // A production batch (high priority), a background sweep (low), and a
    // speculative job we will cancel. Priorities order the queue; the
    // per-job thread budget caps how much of the fleet each one takes.
    let production = svc.submit(
        JobSpec::new(build_survey(4, 15.0))
            .with_priority(10)
            .with_opts(SurveyOptions {
                policy: Policy::Parallel,
                batch_size: 2,
                ..SurveyOptions::default()
            }),
    );
    let background = svc.submit(
        JobSpec::new(build_survey(3, 10.0))
            .with_priority(-5)
            .with_threads(1),
    );
    let speculative = svc.submit(JobSpec::new(build_survey(6, 20.0)).with_priority(0));
    println!(
        "submitted: production={production} background={background} speculative={speculative}"
    );

    // Cancel the speculative job. Depending on timing it is still queued
    // (cancelled immediately) or already running (cooperative cancel at the
    // next batch boundary) — either way it ends Cancelled with no gathers.
    let accepted = svc.cancel(speculative);
    println!("cancel(speculative) accepted: {accepted}");

    // Poll like a client: non-blocking status reads until all terminal,
    // reporting the live progress/ETA gauges along the way.
    let jobs = [production, background, speculative];
    let mut ticks = 0u32;
    loop {
        let mut all_done = true;
        for id in jobs {
            let st = svc.poll(id).expect("job record");
            if !st.state.is_terminal() {
                all_done = false;
                if ticks.is_multiple_of(10) && st.state == JobState::Running {
                    println!(
                        "  job {id}: {:>5.1}% done, eta {}",
                        100.0 * st.progress,
                        st.eta_s.map_or("?".into(), |e| format!("{e:.2}s")),
                    );
                }
            }
        }
        if all_done {
            break;
        }
        ticks += 1;
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    println!("\n job  prio  state      shots  error");
    for id in jobs {
        let st = svc.wait(id).expect("job record");
        println!(
            "  {:>2}  {:>4}  {:<9}  {}/{}  {}",
            st.id,
            st.priority,
            format!("{:?}", st.state),
            st.shots_done,
            st.shots_total,
            st.error.as_deref().unwrap_or("-"),
        );
        if st.state == JobState::Completed {
            let gathers = svc.take_gathers(id).expect("completed gathers");
            for (shot, g) in gathers.iter().enumerate() {
                let g = g.as_ref().expect("receivers attached");
                let energy: f64 = g.as_slice().iter().map(|v| (*v as f64) * (*v as f64)).sum();
                let [nt, nrec] = g.dims();
                println!("       shot {shot}: gather {nt}x{nrec}, energy {energy:.3e}");
            }
        }
    }

    // Interactive rework: submit a survey, then resubmit it with the shot
    // line nudged. Fused-sparse shots under a tile-plannable schedule route
    // through the incremental engine (DESIGN.md §16), and the service lends
    // one TileCache across jobs — so the rerun restores every tile outside
    // the nudge's causal cone instead of recomputing it.
    let inc_opts = SurveyOptions {
        exec: Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::Parallel,
            kernel: KernelPath::default(),
        },
        ..SurveyOptions::default()
    };
    let cold = svc.submit(JobSpec::new(build_nudged_survey(0.08)).with_opts(inc_opts.clone()));
    svc.wait(cold);
    let before = svc.tile_cache().map(|c| c.stats());
    let warm = svc.submit(JobSpec::new(build_nudged_survey(0.085)).with_opts(inc_opts));
    svc.wait(warm);
    match (before, svc.tile_cache().map(|c| c.stats())) {
        (Some(b), Some(a)) => {
            let restored = a.hits - b.hits;
            assert!(
                restored > 0,
                "nudged rerun restored no tiles from the service cache"
            );
            println!(
                "\nnudged-source rerun: {restored} tiles restored bitwise from the \
                 service cache ({} entries / {} KiB, lifetime hit rate {:.1}%)",
                a.entries,
                a.bytes / 1024,
                a.hit_rate_pct(),
            );
        }
        _ => println!("\ntile cache disabled (TEMPEST_CACHE_MB=0): rerun recomputed everything"),
    }

    if obs::enabled() {
        let p = obs::snapshot();
        println!(
            "\nshot counters: started {}, completed {}",
            p.counter(obs::Counter::ShotStarted),
            p.counter(obs::Counter::ShotCompleted),
        );
    }

    if let Some(addr) = svc.telemetry_addr() {
        // Scrape our own endpoint and validate both documents end-to-end:
        // the exposition-format checker for /metrics, a JSON parse for
        // /jobs. This is exactly what the CI telemetry job relies on.
        let (code, metrics) = obs::serve::http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(code, 200, "GET /metrics -> {code}");
        obs::serve::validate_exposition(&metrics).expect("valid Prometheus exposition");
        let jobs_doc = {
            let (code, body) = obs::serve::http_get(addr, "/jobs").expect("scrape /jobs");
            assert_eq!(code, 200, "GET /jobs -> {code}");
            obs::json::Value::parse(&body).expect("valid /jobs JSON")
        };
        let njobs = jobs_doc
            .get("jobs")
            .and_then(|v| v.as_arr())
            .map_or(0, |a| a.len());
        println!(
            "self-scrape ok: /metrics {} lines (valid exposition), /jobs {} jobs, \
             heartbeats {}, completed gauge {}",
            metrics.lines().count(),
            njobs,
            obs::metrics::heartbeats(),
            obs::metrics::gauge(Gauge::CompletedJobs),
        );

        if let Ok(hold) = std::env::var("TEMPEST_TELEMETRY_HOLD") {
            let secs: u64 = hold.parse().unwrap_or(30);
            println!("holding endpoint open for {secs}s (TEMPEST_TELEMETRY_HOLD) …");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    } else {
        // No endpoint means no address was given (a failed bind is an
        // error here), and heartbeats and gauges follow the recording
        // switch alone: on with `--features obs`, compiled out without.
        assert!(
            obs::serve::env_addr().is_none(),
            "TEMPEST_TELEMETRY set but no endpoint"
        );
        let beats = obs::metrics::heartbeats();
        assert_eq!(
            beats > 0,
            obs::enabled(),
            "heartbeats follow the recording switch"
        );
        let completed = obs::metrics::gauge(Gauge::CompletedJobs);
        assert_eq!(
            completed > 0,
            obs::enabled(),
            "gauges follow the recording switch"
        );
        println!(
            "no endpoint (no TEMPEST_TELEMETRY); recording {}: heartbeats {beats}, \
             completed gauge {completed}",
            if obs::enabled() { "on" } else { "off" }
        );
    }
}
