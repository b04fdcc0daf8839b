//! Live telemetry primitives: lock-free gauges, a tile-completion heartbeat
//! and a job-snapshot provider registry.
//!
//! Where the counters and span times in the crate root are folded after a
//! run by [`crate::snapshot`], everything here is read **while the run is in
//! flight** — by the HTTP endpoint in [`crate::serve`] and by the survey
//! stall watchdog. Gauges and heartbeats record at the crate's *record*
//! level (the same switch as the counters) and compile to empty functions
//! without the `enabled` feature.
//!
//! Gauges are a single global array of relaxed `AtomicI64`s — unlike the
//! sharded counters there is no per-thread state to fold, because gauges
//! are *levels* (queue depth, running jobs, active workers), not
//! accumulating event counts, and their writers are the low-frequency
//! control plane (queue transitions, worker park/unpark), not the stencil
//! hot loop.
//!
//! The heartbeat is the liveness signal the watchdog consumes: every
//! executed parallel batch item and every shot start/completion bumps a
//! monotonic count and stamps a timestamp. The *count* is deterministic for
//! a given workload (it mirrors `ParTasks` + `ShotStarted` +
//! `ShotCompleted` exactly — see `tests/telemetry.rs`); the *age* is the
//! wall-clock side channel: a running job whose heartbeat goes silent is
//! stalled, not slow.

// ---------------------------------------------------------------------------
// Gauge taxonomy
// ---------------------------------------------------------------------------

/// Instantaneous levels exported at `/metrics`. Semantics:
///
/// * `QueueDepth` — jobs waiting in the survey service's pending queue.
/// * `RunningJobs` — jobs currently executing (the service runs one at a
///   time today, so this is 0 or 1; the gauge does not hard-code that).
/// * `CompletedJobs` / `FailedJobs` / `CancelledJobs` — jobs that reached
///   each terminal state since service start (levels, not sharded
///   counters: the queue recomputes them from its own state under its
///   lock, so they are exact, not sampled).
/// * `StalledJobs` — running jobs whose heartbeat is currently silent past
///   the watchdog threshold. Falls back to 0 when the heartbeat resumes.
/// * `PoolWorkers` — worker threads owned by the shared tile pool.
/// * `ActiveWorkers` — pool workers currently inside a claimed job (not
///   parked on the publication board).
/// * `CacheHitRatePct` — `TileCache` lifetime hit rate in whole percent
///   (hits × 100 / lookups); 0 until the first lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Gauge {
    QueueDepth = 0,
    RunningJobs,
    CompletedJobs,
    FailedJobs,
    CancelledJobs,
    StalledJobs,
    PoolWorkers,
    ActiveWorkers,
    CacheHitRatePct,
}

impl Gauge {
    pub const COUNT: usize = 9;
    pub const ALL: [Gauge; Self::COUNT] = [
        Gauge::QueueDepth,
        Gauge::RunningJobs,
        Gauge::CompletedJobs,
        Gauge::FailedJobs,
        Gauge::CancelledJobs,
        Gauge::StalledJobs,
        Gauge::PoolWorkers,
        Gauge::ActiveWorkers,
        Gauge::CacheHitRatePct,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::QueueDepth => "queue_depth",
            Gauge::RunningJobs => "running_jobs",
            Gauge::CompletedJobs => "completed_jobs",
            Gauge::FailedJobs => "failed_jobs",
            Gauge::CancelledJobs => "cancelled_jobs",
            Gauge::StalledJobs => "stalled_jobs",
            Gauge::PoolWorkers => "pool_workers",
            Gauge::ActiveWorkers => "active_workers",
            Gauge::CacheHitRatePct => "cache_hit_rate_pct",
        }
    }
}

// ---------------------------------------------------------------------------
// Job snapshots (always compiled — serve/tests name this type)
// ---------------------------------------------------------------------------

/// One job's live state as exported at `/jobs`. Produced by the provider a
/// service registers with [`set_jobs_provider`]; consumed by the HTTP
/// endpoint and the example's poll loop.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSnapshot {
    pub id: u64,
    /// Job state name (`Queued`, `Running`, `Completed`, …).
    pub state: String,
    pub priority: i32,
    pub shots_done: usize,
    pub shots_total: usize,
    /// Completed virtual timesteps (`shots_done × nt`) — the unit progress
    /// and ETA are derived from.
    pub vsteps_done: u64,
    pub vsteps_total: u64,
    /// Fraction of virtual steps completed, in `[0, 1]`.
    pub progress: f64,
    /// Estimated seconds to completion; `None` until the job has run long
    /// enough to extrapolate (or once it is terminal).
    pub eta_s: Option<f64>,
    /// True while the watchdog considers this job's heartbeat silent.
    pub stalled: bool,
    /// How many distinct silence episodes the watchdog flagged.
    pub stall_events: u32,
}

// ---------------------------------------------------------------------------
// Recording API — real implementation (feature = "enabled")
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use super::{Gauge, JobSnapshot};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    static GAUGES: [AtomicI64; Gauge::COUNT] = [const { AtomicI64::new(0) }; Gauge::COUNT];
    static HEARTBEATS: AtomicU64 = AtomicU64::new(0);
    /// The latest heartbeat in nanoseconds since the crate epoch, plus one
    /// (so a beat in the very first nanosecond differs from "never", 0).
    static LAST_BEAT_NS: AtomicU64 = AtomicU64::new(0);

    type Provider = Box<dyn Fn() -> Vec<JobSnapshot> + Send + Sync>;
    /// The registered provider and the token its registration returned.
    static PROVIDER: Mutex<Option<(u64, Provider)>> = Mutex::new(None);
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Add `delta` (may be negative) to gauge `g`.
    #[inline]
    pub fn gauge_add(g: Gauge, delta: i64) {
        if crate::enabled() {
            GAUGES[g as usize].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Set gauge `g` to an absolute level.
    #[inline]
    pub fn gauge_set(g: Gauge, value: i64) {
        if crate::enabled() {
            GAUGES[g as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Current level of gauge `g`.
    #[inline]
    pub fn gauge(g: Gauge) -> i64 {
        GAUGES[g as usize].load(Ordering::Relaxed)
    }

    /// Record `n` units of forward progress (batch items, shots) and stamp
    /// the liveness clock the watchdog reads.
    #[inline]
    pub fn heartbeat(n: u64) {
        if crate::enabled() {
            HEARTBEATS.fetch_add(n, Ordering::Relaxed);
            LAST_BEAT_NS.store(crate::imp::now_ns() + 1, Ordering::Relaxed);
        }
    }

    /// Total heartbeat units since start/reset.
    pub fn heartbeats() -> u64 {
        HEARTBEATS.load(Ordering::Relaxed)
    }

    /// Time since the most recent heartbeat; `None` if none was ever
    /// recorded (a watchdog must not flag a job that has not begun work).
    pub fn heartbeat_age() -> Option<Duration> {
        match LAST_BEAT_NS.load(Ordering::Relaxed) {
            0 => None,
            last => Some(Duration::from_nanos(
                (crate::imp::now_ns() + 1).saturating_sub(last),
            )),
        }
    }

    /// Zero every gauge and the heartbeat state (test isolation; the
    /// counters, span times and events are [`crate::reset`]'s).
    pub fn reset_metrics() {
        for g in &GAUGES {
            g.store(0, Ordering::Relaxed);
        }
        HEARTBEATS.store(0, Ordering::Relaxed);
        LAST_BEAT_NS.store(0, Ordering::Relaxed);
    }

    /// Register the closure `/jobs` snapshots come from, replacing any
    /// earlier one (latest service wins). Returns the token that
    /// [`clear_jobs_provider`] needs to deregister it.
    pub fn set_jobs_provider<F>(f: F) -> u64
    where
        F: Fn() -> Vec<JobSnapshot> + Send + Sync + 'static,
    {
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        *PROVIDER.lock().unwrap_or_else(|e| e.into_inner()) = Some((token, Box::new(f)));
        token
    }

    /// Drop the provider registered under `token` (a stopping service
    /// deregisters so the endpoint never polls freed queue state). A no-op
    /// when a later registration replaced it — the service that made that
    /// one is still running.
    pub fn clear_jobs_provider(token: u64) {
        let mut guard = PROVIDER.lock().unwrap_or_else(|e| e.into_inner());
        if guard.as_ref().is_some_and(|(t, _)| *t == token) {
            *guard = None;
        }
    }

    /// Current job snapshots; empty when no provider is registered.
    pub fn jobs_snapshot() -> Vec<JobSnapshot> {
        let guard = PROVIDER.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(|(_, f)| f()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Recording API — no-op implementation (feature off)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Gauge, JobSnapshot};
    use std::time::Duration;

    #[inline(always)]
    pub fn gauge_add(_g: Gauge, _delta: i64) {}

    #[inline(always)]
    pub fn gauge_set(_g: Gauge, _value: i64) {}

    #[inline(always)]
    pub fn gauge(_g: Gauge) -> i64 {
        0
    }

    #[inline(always)]
    pub fn heartbeat(_n: u64) {}

    #[inline(always)]
    pub fn heartbeats() -> u64 {
        0
    }

    #[inline(always)]
    pub fn heartbeat_age() -> Option<Duration> {
        None
    }

    #[inline(always)]
    pub fn reset_metrics() {}

    #[inline(always)]
    pub fn set_jobs_provider<F>(_f: F) -> u64
    where
        F: Fn() -> Vec<JobSnapshot> + Send + Sync + 'static,
    {
        0
    }

    #[inline(always)]
    pub fn clear_jobs_provider(_token: u64) {}

    #[inline(always)]
    pub fn jobs_snapshot() -> Vec<JobSnapshot> {
        Vec::new()
    }
}

pub use imp::{
    clear_jobs_provider, gauge, gauge_add, gauge_set, heartbeat, heartbeat_age, heartbeats,
    jobs_snapshot, reset_metrics, set_jobs_provider,
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_names_are_unique() {
        for (i, a) in Gauge::ALL.iter().enumerate() {
            for b in &Gauge::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(Gauge::ALL.len(), Gauge::COUNT);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        crate::set_enabled(true);
        gauge_add(Gauge::QueueDepth, 5);
        heartbeat(3);
        assert_eq!(gauge(Gauge::QueueDepth), 0);
        assert_eq!(heartbeats(), 0);
        assert_eq!(heartbeat_age(), None);
        set_jobs_provider(Vec::new);
        assert!(jobs_snapshot().is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_build_records_and_resets() {
        let _g = crate::tests::lock();
        crate::set_enabled(true);
        reset_metrics();
        gauge_add(Gauge::QueueDepth, 3);
        gauge_add(Gauge::QueueDepth, -1);
        gauge_set(Gauge::PoolWorkers, 7);
        heartbeat(2);
        heartbeat(1);
        assert_eq!(gauge(Gauge::QueueDepth), 2);
        assert_eq!(gauge(Gauge::PoolWorkers), 7);
        assert_eq!(heartbeats(), 3);
        let age = heartbeat_age().expect("beat recorded");
        assert!(age < std::time::Duration::from_secs(5));
        reset_metrics();
        assert_eq!(gauge(Gauge::QueueDepth), 0);
        assert_eq!(heartbeats(), 0);
        assert_eq!(heartbeat_age(), None);
        crate::set_enabled(false);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn runtime_gate_blocks_recording() {
        let _g = crate::tests::lock();
        crate::set_enabled(false);
        reset_metrics();
        gauge_add(Gauge::RunningJobs, 1);
        heartbeat(5);
        assert_eq!(gauge(Gauge::RunningJobs), 0);
        assert_eq!(heartbeats(), 0);
        assert_eq!(heartbeat_age(), None);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn jobs_provider_registration_and_replacement() {
        let _g = crate::tests::lock();
        let snap = JobSnapshot {
            id: 9,
            state: "Running".into(),
            priority: 1,
            shots_done: 2,
            shots_total: 8,
            vsteps_done: 32,
            vsteps_total: 128,
            progress: 0.25,
            eta_s: Some(1.5),
            stalled: false,
            stall_events: 0,
        };
        let s2 = snap.clone();
        let first = set_jobs_provider(move || vec![s2.clone()]);
        assert_eq!(jobs_snapshot(), vec![snap.clone()]);
        // A later registration replaces the first; the first's token can
        // no longer clear it.
        let s3 = snap.clone();
        let second = set_jobs_provider(move || vec![s3.clone(), s3.clone()]);
        clear_jobs_provider(first);
        assert_eq!(
            jobs_snapshot().len(),
            2,
            "a stale token cleared a live provider"
        );
        clear_jobs_provider(second);
        assert!(jobs_snapshot().is_empty());
    }
}
