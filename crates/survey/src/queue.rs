//! The async job-queue front of the survey engine: `submit` / `poll` /
//! `cancel` with priorities, per-job thread caps, and terminal states
//! carrying error payloads.
//!
//! ## Protocol (DESIGN.md §14)
//!
//! A job moves `Queued → Running → {Completed, Cancelled, Failed}` and
//! reaches **exactly one** terminal state, exactly once — enforced by an
//! assertion on every transition and observable through
//! [`JobStatus::terminal_transitions`]. Cancellation is cooperative:
//! cancelling a `Queued` job retires it immediately; cancelling a `Running`
//! job raises its [`CancelFlag`], which the engine observes at shot
//! boundaries. A cancelled or failed job never exposes receiver traces —
//! any gathers streamed before the flag was observed are purged at the
//! terminal transition.
//!
//! Scheduling is strict priority (higher first), FIFO within a priority
//! (lower id first), one job at a time — each job is itself a fleet, so
//! running two concurrently would just split the same workers. A service
//! built with [`SurveyService::start`] processes jobs on a background
//! scheduler thread; one built with [`SurveyService::paused`] holds every
//! submission until [`drain`](SurveyService::drain) runs them on the
//! calling thread — submissions and cancellations against a paused service
//! are therefore fully deterministic, which is what the seeded stress suite
//! leans on.
//!
//! ## Live telemetry (DESIGN.md §15)
//!
//! When recording is on (`TEMPEST_PROFILE`, `TEMPEST_TELEMETRY` or
//! `obs::set_enabled(true)`, `obs` feature compiled in), the queue keeps the
//! global [`tempest_obs::metrics`] gauges in sync with its state on every
//! transition, and a live service registers a `/jobs` snapshot provider
//! and runs a **stall watchdog**: a running job whose tile-completion
//! heartbeat stays silent past [`ServiceConfig::stall_after`] is flagged
//! [`JobStatus::stalled`] (and counted in `tempest_stalled_jobs`) until the
//! heartbeat resumes or the job terminates. The watchdog never kills work —
//! a stall flag is a diagnosis, not a verdict; each distinct silence
//! episode increments [`JobStatus::stall_events`]. The HTTP endpoint also
//! needs an address: [`ServiceConfig::endpoint_addr`] or
//! `TEMPEST_TELEMETRY`. With recording off (or the `obs` feature compiled
//! out) none of this spawns: no endpoint, no watchdog thread.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tempest_grid::Array2;
use tempest_obs as obs;
use tempest_obs::metrics::{Gauge, JobSnapshot};
use tempest_par::{flush_subnormals_on_this_thread, with_thread_budget};
use tempest_tiling::TileCache;

use crate::engine::{panic_message, run_survey_streaming, Survey, SurveyOptions};
use crate::shard::CancelFlag;

/// Monotonically increasing job handle, unique per service.
pub type JobId = u64;

/// Lifecycle of a job. `Completed`, `Cancelled` and `Failed` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting to be scheduled.
    Queued,
    /// Executing on the fleet.
    Running,
    /// All shots ran; gathers are available via
    /// [`SurveyService::take_gathers`].
    Completed,
    /// Cancelled before or during execution; no traces are exposed.
    Cancelled,
    /// A shot failed or panicked; see [`JobStatus::error`]. No traces are
    /// exposed.
    Failed,
}

impl JobState {
    /// Whether this state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A survey submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The survey to run (shared, so submissions are cheap).
    pub survey: Arc<Survey>,
    /// Engine options for this job.
    pub opts: SurveyOptions,
    /// Higher runs first; ties break FIFO by submission order.
    pub priority: i32,
    /// Per-job thread cap: the whole job (shot fleet *and* per-shot tile
    /// parallelism) runs under `with_thread_budget(threads)`. `0` = no cap.
    pub threads: usize,
}

impl JobSpec {
    /// A default-priority, uncapped job with default engine options.
    pub fn new(survey: Arc<Survey>) -> Self {
        JobSpec {
            survey,
            opts: SurveyOptions::default(),
            priority: 0,
            threads: 0,
        }
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Cap the job's thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replace the engine options.
    pub fn with_opts(mut self, opts: SurveyOptions) -> Self {
        self.opts = opts;
        self
    }
}

/// Configuration for a live service: watchdog thresholds and the endpoint
/// address. All of it is inert unless the `obs` feature is compiled in
/// *and* recording is on at runtime.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Flag a running job as stalled when its heartbeat has been silent
    /// this long.
    pub stall_after: Duration,
    /// How often the watchdog re-checks the heartbeat.
    pub watchdog_interval: Duration,
    /// Endpoint bind address (`host:port`; port 0 = ephemeral). `None`
    /// takes the address from `TEMPEST_TELEMETRY`
    /// ([`tempest_obs::serve::env_addr`]); with neither, no endpoint starts.
    pub endpoint_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            stall_after: Duration::from_secs(5),
            watchdog_interval: Duration::from_millis(250),
            endpoint_addr: None,
        }
    }
}

/// A point-in-time view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job handle.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: i32,
    /// Shots in the job's survey.
    pub shots_total: usize,
    /// Shots completed so far (streams up while `Running`).
    pub shots_done: usize,
    /// Failure reason, set iff the state is [`JobState::Failed`].
    pub error: Option<String>,
    /// How many times the job entered a terminal state. The queue's
    /// exactly-once invariant says this is `1` for every finished job —
    /// the stress suite asserts it.
    pub terminal_transitions: u32,
    /// Fraction of the job's virtual timesteps completed, in `[0, 1]`
    /// (shots are the completion unit; every shot covers `cfg.nt` steps).
    pub progress: f64,
    /// Estimated seconds to completion, extrapolated from elapsed time and
    /// progress. `None` until a running job completes its first shot, and
    /// for every non-running state.
    pub eta_s: Option<f64>,
    /// True while the stall watchdog considers this job's heartbeat
    /// silent. Always false when the watchdog is not running.
    pub stalled: bool,
    /// Distinct silence episodes the watchdog flagged on this job. Kept
    /// across the terminal transition — a job that stalled once and then
    /// completed reports `1` forever.
    pub stall_events: u32,
}

struct Job {
    survey: Arc<Survey>,
    opts: SurveyOptions,
    priority: i32,
    threads: usize,
    state: JobState,
    cancel: Arc<CancelFlag>,
    gathers: Vec<Option<Array2<f32>>>,
    shots_done: usize,
    error: Option<String>,
    terminal_transitions: u32,
    /// When the job entered `Running` (ETA extrapolation origin).
    started_at: Option<Instant>,
    /// Watchdog flag: heartbeat currently silent past the threshold.
    stalled: bool,
    /// Distinct silence episodes flagged by the watchdog.
    stall_events: u32,
}

impl Job {
    fn progress(&self) -> f64 {
        let total = self.survey.len();
        if self.state == JobState::Completed || total == 0 {
            // An empty survey completes having done everything it had.
            f64::from(u8::from(self.state == JobState::Completed))
        } else {
            self.shots_done as f64 / total as f64
        }
    }

    /// ETA by linear extrapolation: `elapsed × (1 − p) / p`. Only
    /// meaningful mid-run, so `None` for every non-running state and for a
    /// running job that has not completed a shot yet.
    fn eta_s(&self) -> Option<f64> {
        if self.state != JobState::Running {
            return None;
        }
        let p = self.progress();
        if p <= 0.0 {
            return None;
        }
        let elapsed = self.started_at?.elapsed().as_secs_f64();
        Some((elapsed * (1.0 - p) / p).max(0.0))
    }

    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            state: self.state,
            priority: self.priority,
            shots_total: self.survey.len(),
            shots_done: self.shots_done,
            error: self.error.clone(),
            terminal_transitions: self.terminal_transitions,
            progress: self.progress(),
            eta_s: self.eta_s(),
            stalled: self.stalled,
            stall_events: self.stall_events,
        }
    }

    fn snapshot(&self, id: JobId) -> JobSnapshot {
        let nt = self.survey.cfg().nt as u64;
        JobSnapshot {
            id,
            state: format!("{:?}", self.state),
            priority: self.priority,
            shots_done: self.shots_done,
            shots_total: self.survey.len(),
            vsteps_done: self.shots_done as u64 * nt,
            vsteps_total: self.survey.len() as u64 * nt,
            progress: self.progress(),
            eta_s: self.eta_s(),
            stalled: self.stalled,
            stall_events: self.stall_events,
        }
    }

    /// The single place a job may become terminal. Panics if it already is
    /// — the exactly-once invariant. Non-`Completed` terminals purge any
    /// gathers streamed before cancellation/failure was observed.
    fn set_terminal(&mut self, state: JobState, error: Option<String>) {
        assert!(state.is_terminal());
        assert!(
            !self.state.is_terminal(),
            "job reached a second terminal state: {:?} after {:?}",
            state,
            self.state
        );
        self.terminal_transitions += 1;
        if state != JobState::Completed {
            self.gathers.clear();
            self.shots_done = 0;
        }
        self.state = state;
        self.error = error;
        // A terminal job is by definition not stalled; the episode count
        // stays as the historical record.
        self.stalled = false;
    }
}

struct ServiceState {
    next_id: JobId,
    jobs: BTreeMap<JobId, Job>,
    pending: Vec<JobId>,
    shutdown: bool,
}

/// Recompute every queue-owned gauge from this service's state. Absolute
/// levels (not deltas), so the gauges self-heal and always describe the
/// most recently active service when several coexist (tests). A no-op when
/// recording is off — [`obs::metrics::gauge_set`] is runtime-gated.
fn refresh_gauges(st: &ServiceState) {
    if !obs::enabled() {
        return;
    }
    let mut running = 0i64;
    let (mut completed, mut failed, mut cancelled, mut stalled) = (0i64, 0i64, 0i64, 0i64);
    for job in st.jobs.values() {
        match job.state {
            JobState::Running => running += 1,
            JobState::Completed => completed += 1,
            JobState::Failed => failed += 1,
            JobState::Cancelled => cancelled += 1,
            JobState::Queued => {}
        }
        if job.stalled {
            stalled += 1;
        }
    }
    obs::metrics::gauge_set(Gauge::QueueDepth, st.pending.len() as i64);
    obs::metrics::gauge_set(Gauge::RunningJobs, running);
    obs::metrics::gauge_set(Gauge::CompletedJobs, completed);
    obs::metrics::gauge_set(Gauge::FailedJobs, failed);
    obs::metrics::gauge_set(Gauge::CancelledJobs, cancelled);
    obs::metrics::gauge_set(Gauge::StalledJobs, stalled);
}

struct Inner {
    state: Mutex<ServiceState>,
    /// Wakes the scheduler on submit / shutdown.
    work_cv: Condvar,
    /// Wakes [`SurveyService::wait`]ers on terminal transitions.
    done_cv: Condvar,
    /// Service-wide tile cache (sized by `TEMPEST_CACHE_MB`) lent to jobs
    /// that don't bring their own, so a resubmitted survey with a nudged
    /// source reuses the previous job's tile outputs. `None` when
    /// `TEMPEST_CACHE_MB=0` disables it.
    cache: Option<Arc<TileCache>>,
}

/// The survey job queue. See the module docs for the protocol.
pub struct SurveyService {
    inner: Arc<Inner>,
    scheduler: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    /// Keeps the `/metrics`+`/jobs` endpoint alive for the service's
    /// lifetime; dropping the service stops it.
    telemetry: Option<obs::serve::TelemetryServer>,
    /// The token of this service's `/jobs` provider registration, which it
    /// deregisters on drop (a no-op if a later service replaced it).
    provider: Option<u64>,
}

impl SurveyService {
    fn new_inner(cache: Option<Arc<TileCache>>) -> Arc<Inner> {
        Arc::new(Inner {
            state: Mutex::new(ServiceState {
                next_id: 0,
                jobs: BTreeMap::new(),
                pending: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache,
        })
    }

    /// The env-sized service cache, or `None` when `TEMPEST_CACHE_MB=0`
    /// disables it (an always-miss cache would add bookkeeping for nothing).
    fn env_cache() -> Option<Arc<TileCache>> {
        let cache = TileCache::from_env();
        cache.enabled().then(|| Arc::new(cache))
    }

    /// A paused service: submissions queue up until [`drain`](Self::drain)
    /// runs them synchronously. Deterministic by construction. No watchdog
    /// or endpoint — the telemetry gauges still track its transitions when
    /// telemetry is on, and the service tile cache is kept (drained reruns
    /// reuse tiles just like live ones).
    pub fn paused() -> Self {
        SurveyService {
            inner: Self::new_inner(Self::env_cache()),
            scheduler: None,
            watchdog: None,
            telemetry: None,
            provider: None,
        }
    }

    /// A live service with the default [`ServiceConfig`]: a background
    /// scheduler thread picks jobs by (priority desc, id asc) and runs
    /// them one at a time; with recording on, the watchdog (and, given an
    /// address, the endpoint) come up too.
    pub fn start() -> Self {
        Self::start_with(ServiceConfig::default())
    }

    /// A live service with explicit watchdog/endpoint configuration.
    pub fn start_with(cfg: ServiceConfig) -> Self {
        let inner = Self::new_inner(Self::env_cache());
        let worker = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("tempest-survey-scheduler".into())
            .spawn(move || scheduler_loop(worker))
            .expect("spawn survey scheduler");

        // Everything below is live telemetry — none of it exists when
        // recording is off (which is always the case without the `obs`
        // feature), so such a service is exactly the plain queue.
        let (mut provider, mut telemetry, mut watchdog) = (None, None, None);
        if obs::enabled() {
            let weak = Arc::downgrade(&inner);
            provider = Some(obs::metrics::set_jobs_provider(move || {
                match weak.upgrade() {
                    Some(inner) => {
                        let st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                        st.jobs.iter().map(|(&id, j)| j.snapshot(id)).collect()
                    }
                    None => Vec::new(),
                }
            }));
            let addr = cfg.endpoint_addr.as_deref().or(obs::serve::env_addr());
            telemetry = addr.and_then(|addr| {
                obs::serve::TelemetryServer::start(addr)
                    .map_err(|e| eprintln!("tempest-survey: telemetry bind failed on {addr}: {e}"))
                    .ok()
            });
            let w = Arc::clone(&inner);
            let (stall_after, interval) = (cfg.stall_after, cfg.watchdog_interval);
            watchdog = Some(
                std::thread::Builder::new()
                    .name("tempest-survey-watchdog".into())
                    .spawn(move || watchdog_loop(w, stall_after, interval))
                    .expect("spawn survey watchdog"),
            );
        }

        SurveyService {
            inner,
            scheduler: Some(scheduler),
            watchdog,
            telemetry,
            provider,
        }
    }

    /// The bound address of this service's telemetry endpoint, if one is
    /// running (recording on, an address known, and the bind succeeded).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(|t| t.local_addr())
    }

    /// The service-wide tile cache lent to jobs, if one is active
    /// (`TEMPEST_CACHE_MB` nonzero).
    /// Exposes hit/eviction statistics for monitoring and tests.
    pub fn tile_cache(&self) -> Option<&Arc<TileCache>> {
        self.inner.cache.as_ref()
    }

    /// Submit a job; returns immediately with its handle.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        let shots = spec.survey.len();
        st.jobs.insert(
            id,
            Job {
                survey: spec.survey,
                opts: spec.opts,
                priority: spec.priority,
                threads: spec.threads,
                state: JobState::Queued,
                cancel: Arc::new(CancelFlag::new()),
                gathers: (0..shots).map(|_| None).collect(),
                shots_done: 0,
                error: None,
                terminal_transitions: 0,
                started_at: None,
                stalled: false,
                stall_events: 0,
            },
        );
        st.pending.push(id);
        refresh_gauges(&st);
        drop(st);
        self.inner.work_cv.notify_one();
        id
    }

    /// Current status of a job, or `None` for an unknown id.
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|j| j.status(id))
    }

    /// Request cancellation. Returns `true` if the job existed and was not
    /// yet terminal: a `Queued` job retires to `Cancelled` immediately, a
    /// `Running` job stops at its next shot boundary (its terminal state is
    /// set by the executor). Cancelling a terminal or unknown job is a
    /// no-op returning `false`.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        if job.state.is_terminal() {
            return false;
        }
        job.cancel.cancel();
        if job.state == JobState::Queued {
            job.set_terminal(JobState::Cancelled, None);
            st.pending.retain(|&p| p != id);
            refresh_gauges(&st);
            drop(st);
            self.inner.done_cv.notify_all();
        }
        true
    }

    /// Block until the job is terminal and return its final status, or
    /// `None` for an unknown id. On a paused service only jobs already
    /// retired (e.g. cancelled while queued) return without a prior
    /// [`drain`](Self::drain).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let job = st.jobs.get(&id)?;
            if job.state.is_terminal() {
                return Some(job.status(id));
            }
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Run queued jobs on the calling thread until the queue is empty, in
    /// (priority desc, id asc) order; returns how many jobs it executed.
    /// This is the deterministic execution path of a paused service (and a
    /// way to lend the caller's thread to a live one).
    pub fn drain(&self) -> usize {
        let mut ran = 0;
        loop {
            let picked = {
                let mut st = self.inner.state.lock().unwrap();
                pick(&mut st)
            };
            let Some(id) = picked else {
                return ran;
            };
            run_job(&self.inner, id);
            ran += 1;
        }
    }

    /// Take the gathers of a `Completed` job (one slot per shot, `None`
    /// where the survey had no receivers). Returns `None` for unknown,
    /// unfinished, cancelled, or failed jobs, and for a second take —
    /// cancelled jobs never expose traces.
    pub fn take_gathers(&self, id: JobId) -> Option<Vec<Option<Array2<f32>>>> {
        let mut st = self.inner.state.lock().unwrap();
        let job = st.jobs.get_mut(&id)?;
        if job.state != JobState::Completed || job.gathers.is_empty() {
            return None;
        }
        Some(std::mem::take(&mut job.gathers))
    }
}

impl Drop for SurveyService {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        // The watchdog parks on done_cv; wake it so shutdown is prompt.
        self.inner.done_cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        if let Some(token) = self.provider {
            obs::metrics::clear_jobs_provider(token);
        }
        // `self.telemetry` drops here, stopping the endpoint threads.
    }
}

/// Highest priority first, FIFO (lowest id) within a priority.
fn pick(st: &mut ServiceState) -> Option<JobId> {
    let (slot, _) = st
        .pending
        .iter()
        .enumerate()
        .min_by_key(|&(_, &id)| (std::cmp::Reverse(st.jobs[&id].priority), id))?;
    Some(st.pending.remove(slot))
}

fn scheduler_loop(inner: Arc<Inner>) {
    // Every job's solves run on or under this thread: one floating-point
    // environment for all of them, whatever runs between dispatches.
    flush_subnormals_on_this_thread();
    loop {
        let id = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = pick(&mut st) {
                    break id;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        run_job(&inner, id);
    }
}

/// Execute one picked job to its terminal state.
fn run_job(inner: &Arc<Inner>, id: JobId) {
    let (survey, opts, threads, cancel) = {
        let mut st = inner.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        // A concurrent cancel() may have retired the job between pick()
        // and here; the state check keeps the terminal transition unique.
        if job.state != JobState::Queued {
            return;
        }
        if job.cancel.is_cancelled() {
            job.set_terminal(JobState::Cancelled, None);
            refresh_gauges(&st);
            drop(st);
            inner.done_cv.notify_all();
            return;
        }
        job.state = JobState::Running;
        job.started_at = Some(Instant::now());
        let mut opts = job.opts.clone();
        if opts.cache.is_none() {
            // Lend the service cache so consecutive jobs over the same
            // geometry reuse each other's tiles; a job-supplied cache wins.
            opts.cache = inner.cache.clone();
        }
        let picked = (
            Arc::clone(&job.survey),
            opts,
            job.threads,
            Arc::clone(&job.cancel),
        );
        refresh_gauges(&st);
        picked
    };
    // Seed the liveness clock at job admission: the watchdog must measure
    // silence from "this job began", not from whatever ran before it.
    obs::metrics::heartbeat(1);

    // Stream each gather into the job record as the shot lands, so pollers
    // see `shots_done` rise while the job runs.
    let sink_inner = Arc::clone(inner);
    let sink = move |r: crate::engine::ShotResult| {
        let mut st = sink_inner.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            job.gathers[r.index] = r.gather;
            job.shots_done += 1;
        }
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let run = || run_survey_streaming(&survey, &opts, Some(&cancel), &sink);
        if threads > 0 {
            with_thread_budget(threads, run)
        } else {
            run()
        }
    }));

    let mut st = inner.state.lock().unwrap();
    let job = st.jobs.get_mut(&id).expect("running job record");
    match outcome {
        Err(payload) => job.set_terminal(JobState::Failed, Some(panic_message(payload))),
        Ok(Err(e)) => job.set_terminal(JobState::Failed, Some(e.to_string())),
        Ok(Ok(out)) if out.cancelled => job.set_terminal(JobState::Cancelled, None),
        Ok(Ok(_)) => job.set_terminal(JobState::Completed, None),
    }
    refresh_gauges(&st);
    drop(st);
    inner.done_cv.notify_all();
}

/// The stall watchdog: every `interval`, compare the running job's
/// heartbeat age against `stall_after` and flip its `stalled` flag on the
/// silence edges. Flagging is level-triggered per episode — a job stays
/// flagged while silent and is counted once per episode in
/// `stall_events`, however many watchdog ticks the silence spans.
fn watchdog_loop(inner: Arc<Inner>, stall_after: Duration, interval: Duration) {
    let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if st.shutdown {
            return;
        }
        let age = obs::metrics::heartbeat_age();
        let silent = matches!(age, Some(a) if a > stall_after);
        let mut changed = false;
        for job in st.jobs.values_mut() {
            if job.state != JobState::Running {
                continue;
            }
            if silent && !job.stalled {
                job.stalled = true;
                job.stall_events += 1;
                changed = true;
            } else if !silent && job.stalled {
                job.stalled = false;
                changed = true;
            }
        }
        if changed {
            refresh_gauges(&st);
        }
        let (guard, _) = inner
            .done_cv
            .wait_timeout(st, interval)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShotSpec;
    use tempest_core::config::EquationKind;
    use tempest_core::SimConfig;
    use tempest_grid::{Domain, Model, Shape};
    use tempest_sparse::SparsePoints;

    fn tiny_survey(n_shots: usize) -> Arc<Survey> {
        let domain = Domain::uniform(Shape::cube(12), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
            .with_nt(4)
            .with_boundary(2, 0.3);
        let mut s =
            Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&domain, 3, 0.2));
        s.add_shot_line(n_shots, 0.1);
        Arc::new(s)
    }

    #[test]
    fn paused_service_completes_on_drain() {
        let svc = SurveyService::paused();
        let id = svc.submit(JobSpec::new(tiny_survey(2)));
        assert_eq!(svc.poll(id).unwrap().state, JobState::Queued);
        assert_eq!(svc.drain(), 1);
        let st = svc.poll(id).unwrap();
        assert_eq!(st.state, JobState::Completed);
        assert_eq!(st.shots_done, 2);
        assert_eq!(st.terminal_transitions, 1);
        let gathers = svc.take_gathers(id).unwrap();
        assert_eq!(gathers.len(), 2);
        assert!(gathers.iter().all(|g| g.is_some()));
        // Second take yields nothing.
        assert!(svc.take_gathers(id).is_none());
    }

    #[test]
    fn priority_beats_fifo_and_ties_break_by_id() {
        let svc = SurveyService::paused();
        let a = svc.submit(JobSpec::new(tiny_survey(1)).with_priority(0));
        let b = svc.submit(JobSpec::new(tiny_survey(1)).with_priority(5));
        let c = svc.submit(JobSpec::new(tiny_survey(1)).with_priority(5));
        let order = Mutex::new(Vec::new());
        {
            let mut st = svc.inner.state.lock().unwrap();
            let mut o = order.lock().unwrap();
            while let Some(id) = pick(&mut st) {
                o.push(id);
                // put it back as if executed
                st.jobs
                    .get_mut(&id)
                    .unwrap()
                    .set_terminal(JobState::Cancelled, None);
            }
        }
        assert_eq!(*order.lock().unwrap(), vec![b, c, a]);
    }

    #[test]
    fn cancel_queued_job_never_runs_or_exposes_traces() {
        let svc = SurveyService::paused();
        let id = svc.submit(JobSpec::new(tiny_survey(3)));
        assert!(svc.cancel(id));
        assert!(!svc.cancel(id), "second cancel is a no-op");
        assert_eq!(svc.drain(), 0, "cancelled job must not be picked");
        let st = svc.poll(id).unwrap();
        assert_eq!(st.state, JobState::Cancelled);
        assert_eq!(st.terminal_transitions, 1);
        assert_eq!(st.shots_done, 0);
        assert!(svc.take_gathers(id).is_none());
    }

    #[test]
    fn failed_job_carries_error_payload() {
        let svc = SurveyService::paused();
        let domain = Domain::uniform(Shape::cube(12), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
            .with_nt(4)
            .with_boundary(2, 0.3);
        let mut s = Survey::new(model, cfg);
        s.add_shot(ShotSpec::at([-5.0, 0.0, 0.0]));
        let id = svc.submit(JobSpec::new(Arc::new(s)));
        svc.drain();
        let st = svc.poll(id).unwrap();
        assert_eq!(st.state, JobState::Failed);
        let err = st.error.expect("failure payload");
        assert!(err.contains("outside"), "unexpected payload: {err}");
        assert!(svc.take_gathers(id).is_none());
    }

    #[test]
    fn live_service_processes_submissions() {
        let svc = SurveyService::start();
        let lo = svc.submit(JobSpec::new(tiny_survey(1)).with_priority(-1));
        let hi = svc.submit(
            JobSpec::new(tiny_survey(2))
                .with_priority(9)
                .with_threads(2),
        );
        let hi_st = svc.wait(hi).unwrap();
        let lo_st = svc.wait(lo).unwrap();
        assert_eq!(hi_st.state, JobState::Completed);
        assert_eq!(lo_st.state, JobState::Completed);
        assert_eq!(hi_st.shots_done, 2);
        assert_eq!(svc.take_gathers(lo).unwrap().len(), 1);
    }

    #[test]
    fn unknown_ids_are_refused() {
        let svc = SurveyService::paused();
        assert!(svc.poll(42).is_none());
        assert!(!svc.cancel(42));
        assert!(svc.take_gathers(42).is_none());
    }
}
