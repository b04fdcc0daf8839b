//! Runtime telemetry: one span primitive, one per-thread record, one switch.
//!
//! Every timed region opens a [`span`]. When its guard drops, the elapsed
//! time is added to this thread's total for the span's [`SpanKind`]; with
//! event capture on, the span is also appended to the same thread's event
//! list. Counters ([`add`]) live in that record too, so one [`snapshot`]
//! folds counters, span times and events into a [`Profile`] and one
//! [`reset`] zeroes them all. A cancelled span ([`Span::cancel`]) records
//! neither its time nor its event.
//!
//! The switch has three levels, read from the environment once, on first
//! use:
//!
//! * **off** — nothing is recorded;
//! * **record** — counters, span times, gauges and heartbeats
//!   (`TEMPEST_PROFILE` or [`set_enabled`]; `TEMPEST_TELEMETRY`, the
//!   endpoint's bind address, also turns it on);
//! * **record + events** — also every span as a [`TraceEvent`]
//!   (`TEMPEST_TRACE` or [`trace::set_enabled`]).
//!
//! Without the `enabled` cargo feature every recording entry point is an
//! `#[inline(always)]` empty function and [`Span`] is a unit type, so
//! instrumented call sites (and the arithmetic feeding them) are
//! dead-code-eliminated. With it, a span or counter below its level costs
//! one relaxed load. Recording never contends: each thread owns an
//! `Arc<Shard>` of relaxed atomics (registered once in a global list), and
//! only [`snapshot`] and [`reset`] walk the list.

use std::fmt::Write as _;
use std::path::PathBuf;

pub mod json;
pub mod metrics;
pub mod serve;
pub mod trace;

pub use trace::{SpanArgs, SpanKind, Trace, TraceEvent};

// ---------------------------------------------------------------------------
// Counter taxonomy
// ---------------------------------------------------------------------------

/// Monotonic event counters. Semantics (see DESIGN.md §9):
///
/// * `StencilUpdates` — grid points given a new value by a stencil sweep,
///   counted once per point per virtual timestep (TTI counts its coupled
///   p/q pair as one update; elastic counts each of its two phases).
/// * `SourceInjections` — point-sparse additions into the wavefield: one per
///   masked grid point per timestep in the fused paths, one per stencil
///   nonzero in the classic scatter path.
/// * `ReceiverGathers` — wavefield-sample contributions accumulated into the
///   trace buffer: one per (receiver, footprint-nonzero) pair per timestep.
/// * `ParTasks` — items and graph nodes run by a `tempest_par` dispatch,
///   counted on the thread that ran them (the caller participates).
/// * `ParPublications` — jobs published to the board for workers to claim.
/// * `WavefrontTiles` — tile nodes computed by the plan executor.
/// * `DataflowReady` — tiles made ready by `tempest_par::run_dataflow`
///   (its roots plus every dependency-counter zero transition); equals the
///   number of executed tiles, so it is deterministic across thread
///   policies.
/// * `DataflowSteals` — tiles a dataflow participant claimed from another
///   participant's deque. Depends on runtime timing, so it is *not*
///   deterministic across runs or thread caps.
/// * `PencilRows` — contiguous z-rows computed by the row-granularity
///   vector backends (portable pencil or AVX2); zero when a run uses the
///   scalar per-point path.
///   Deterministic for a given schedule and grid, independent of the thread
///   policy.
/// * `ShotStarted` / `ShotCompleted` — shot solves begun / finished by the
///   survey engine (`tempest-survey`). A shot that panics is started but
///   never completed; a cancelled job's unrun shots count as neither. Both
///   are deterministic across thread caps for a given survey.
/// * `BatchAutotune` — batch-level autotune passes run by the survey engine:
///   one per shot batch that tuned a schedule (subsequent batches sharing
///   the model reuse the result and do not count).
/// * `BackendScalar` / `BackendPortable` / `BackendAvx2` — which dense
///   kernel backend served a run: the propagators bump exactly one of these
///   by 1 per `run`/`run_recording`/`run_range` call, after resolving the
///   `KernelPath` (so an `Auto` run records the backend it actually
///   dispatched to). Deterministic for a given host + `TEMPEST_KERNEL` /
///   `--kernel` selection.
/// * `TilesReused` / `TilesRecomputed` — incremental-executor outcomes: a
///   tile node either restored its cached output or recomputed it; the two
///   always sum to the number of tiles the plan enumerates (the exact-count
///   oracle of `tests/incremental.rs`). `TilesReused` is deterministic for a
///   given cache state; a cold run records zero.
/// * `TilesWrittenBack` — restored tile nodes whose payload was also copied
///   into the wavefield rings, because a recomputed node within reading
///   distance or the sweep's end state needs it (the rest only replayed
///   their receiver gathers). At most `TilesReused`; a function of the plan
///   and the delta, so deterministic across thread caps.
/// * `CacheEvictions` — `TileCache` entries dropped to hold the
///   `TEMPEST_CACHE_MB` budget (LRU order). Depends on insertion order, so
///   not deterministic across thread caps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    StencilUpdates = 0,
    SourceInjections,
    ReceiverGathers,
    ParTasks,
    ParPublications,
    WavefrontTiles,
    DataflowReady,
    DataflowSteals,
    PencilRows,
    ShotStarted,
    ShotCompleted,
    BatchAutotune,
    BackendScalar,
    BackendPortable,
    BackendAvx2,
    TilesReused,
    TilesRecomputed,
    TilesWrittenBack,
    CacheEvictions,
}

impl Counter {
    pub const COUNT: usize = 19;
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::StencilUpdates,
        Counter::SourceInjections,
        Counter::ReceiverGathers,
        Counter::ParTasks,
        Counter::ParPublications,
        Counter::WavefrontTiles,
        Counter::DataflowReady,
        Counter::DataflowSteals,
        Counter::PencilRows,
        Counter::ShotStarted,
        Counter::ShotCompleted,
        Counter::BatchAutotune,
        Counter::BackendScalar,
        Counter::BackendPortable,
        Counter::BackendAvx2,
        Counter::TilesReused,
        Counter::TilesRecomputed,
        Counter::TilesWrittenBack,
        Counter::CacheEvictions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::StencilUpdates => "stencil_updates",
            Counter::SourceInjections => "source_injections",
            Counter::ReceiverGathers => "receiver_gathers",
            Counter::ParTasks => "par_tasks",
            Counter::ParPublications => "par_publications",
            Counter::WavefrontTiles => "wavefront_tiles",
            Counter::DataflowReady => "dataflow_ready",
            Counter::DataflowSteals => "dataflow_steals",
            Counter::PencilRows => "pencil_rows",
            Counter::ShotStarted => "shot_started",
            Counter::ShotCompleted => "shot_completed",
            Counter::BatchAutotune => "batch_autotune",
            Counter::BackendScalar => "backend_scalar",
            Counter::BackendPortable => "backend_portable",
            Counter::BackendAvx2 => "backend_avx2",
            Counter::TilesReused => "tiles_reused",
            Counter::TilesRecomputed => "tiles_recomputed",
            Counter::TilesWrittenBack => "tiles_written_back",
            Counter::CacheEvictions => "cache_evictions",
        }
    }
}

// ---------------------------------------------------------------------------
// Recording API — real implementation (feature = "enabled")
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, Profile, SpanArgs, SpanKind, ThreadProfile, TraceEvent};
    use crate::trace::DEFAULT_CAPACITY;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    const OFF: u8 = 0;
    const RECORD: u8 = 1;
    const EVENTS: u8 = 2;

    /// One thread's record. Only the owning thread writes it; `snapshot`
    /// and `reset` take the event mutex briefly from the aggregating
    /// thread, so it is uncontended on the hot path.
    struct Shard {
        /// Registration order: the `tid` of this thread's events.
        tid: u32,
        label: String,
        counters: [AtomicU64; Counter::COUNT],
        times_ns: [AtomicU64; SpanKind::COUNT],
        events: Mutex<Vec<TraceEvent>>,
        /// Events refused because `events` was at capacity.
        dropped: AtomicU64,
    }

    /// What the environment said at first use.
    struct Env {
        /// Origin of every span and heartbeat timestamp.
        epoch: Instant,
        /// The endpoint's bind address (`TEMPEST_TELEMETRY`).
        addr: Option<String>,
    }

    static LEVEL: AtomicU8 = AtomicU8::new(OFF);
    static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
    static ENV: OnceLock<Env> = OnceLock::new();
    static NEXT_TID: AtomicU32 = AtomicU32::new(0);
    static REGISTRY: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());

    thread_local! {
        static SHARD: Arc<Shard> = register_shard();
    }

    fn env() -> &'static Env {
        ENV.get_or_init(from_env)
    }

    /// The one reader of the switch's environment: `TEMPEST_TRACE` sets
    /// record + events; `TEMPEST_PROFILE` or `TEMPEST_TELEMETRY` sets
    /// record (any value but empty or `0`). A `TEMPEST_TELEMETRY` value
    /// containing `:` is the endpoint's bind address, any other binds
    /// [`crate::serve::DEFAULT_ADDR`]. `TEMPEST_TRACE_CAP` sizes the
    /// per-thread event list. Runs before any setter can store a level.
    fn from_env() -> Env {
        let set = |key| {
            std::env::var(key)
                .ok()
                .filter(|v| !v.is_empty() && v != "0")
        };
        let addr = set("TEMPEST_TELEMETRY").map(|v| {
            if v.contains(':') {
                v
            } else {
                crate::serve::DEFAULT_ADDR.to_string()
            }
        });
        let level = if set("TEMPEST_TRACE").is_some() {
            EVENTS
        } else if set("TEMPEST_PROFILE").is_some() || addr.is_some() {
            RECORD
        } else {
            OFF
        };
        LEVEL.store(level, Relaxed);
        if let Some(cap) = set("TEMPEST_TRACE_CAP").and_then(|v| v.parse::<usize>().ok()) {
            CAPACITY.store(cap.max(1), Relaxed);
        }
        Env {
            epoch: Instant::now(),
            addr,
        }
    }

    #[inline]
    fn level() -> u8 {
        env();
        LEVEL.load(Relaxed)
    }

    /// Is recording on (at either level)?
    #[inline]
    pub fn enabled() -> bool {
        level() >= RECORD
    }

    /// Programmatic `TEMPEST_PROFILE`: `true` turns recording on (event
    /// capture stays as it is), `false` turns everything off.
    pub fn set_enabled(on: bool) {
        env();
        if on {
            LEVEL.fetch_max(RECORD, Relaxed);
        } else {
            LEVEL.store(OFF, Relaxed);
        }
    }

    /// Is event capture on?
    #[inline]
    pub fn events_enabled() -> bool {
        level() == EVENTS
    }

    /// Programmatic `TEMPEST_TRACE`: `true` turns recording and event
    /// capture on, `false` turns event capture off and keeps recording.
    pub fn set_events_enabled(on: bool) {
        env();
        if on {
            LEVEL.store(EVENTS, Relaxed);
        } else {
            LEVEL.fetch_min(RECORD, Relaxed);
        }
    }

    /// Per-thread event capacity in effect (`TEMPEST_TRACE_CAP`, default
    /// [`DEFAULT_CAPACITY`]).
    pub fn capacity() -> usize {
        env();
        CAPACITY.load(Relaxed)
    }

    /// Override the per-thread event capacity (applies to every thread's
    /// later events; recorded ones are kept). Mainly for tests.
    pub fn set_capacity(cap: usize) {
        env();
        CAPACITY.store(cap.max(1), Relaxed);
    }

    /// The endpoint bind address `TEMPEST_TELEMETRY` named, if it is set.
    pub fn env_addr() -> Option<&'static str> {
        env().addr.as_deref()
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub(crate) fn now_ns() -> u64 {
        env().epoch.elapsed().as_nanos() as u64
    }

    fn register_shard() -> Arc<Shard> {
        let cur = std::thread::current();
        let label = cur
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("{:?}", cur.id()));
        let shard = Arc::new(Shard {
            tid: NEXT_TID.fetch_add(1, Relaxed),
            label,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            times_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&shard));
        shard
    }

    /// Add `n` to counter `c` on this thread's shard.
    #[inline]
    pub fn add(c: Counter, n: u64) {
        if enabled() {
            SHARD.with(|s| s.counters[c as usize].fetch_add(n, Relaxed));
        }
    }

    /// Open a span of `kind`; it records when the guard drops (or
    /// [`Span::stop`] runs), unless cancelled.
    #[inline]
    pub fn span(kind: SpanKind, args: SpanArgs) -> Span {
        Span(enabled().then(|| (kind, args, now_ns())))
    }

    /// An open span (see [`span`]).
    pub struct Span(Option<(SpanKind, SpanArgs, u64)>);

    impl Span {
        /// Explicit stop; equivalent to dropping the guard.
        #[inline]
        pub fn stop(self) {}

        /// Discard the span: neither its time nor its event is recorded
        /// (a pencil that turned out to have no sparse work, a cache probe
        /// that missed).
        #[inline]
        pub fn cancel(&mut self) {
            self.0 = None;
        }
    }

    impl Drop for Span {
        #[inline]
        fn drop(&mut self) {
            let Some((kind, args, t0_ns)) = self.0.take() else {
                return;
            };
            let dur_ns = now_ns().saturating_sub(t0_ns);
            let events = LEVEL.load(Relaxed) == EVENTS;
            SHARD.with(|s| {
                s.times_ns[kind as usize].fetch_add(dur_ns, Relaxed);
                if events {
                    let mut evs = s.events.lock().unwrap_or_else(|e| e.into_inner());
                    if evs.len() < CAPACITY.load(Relaxed) {
                        let tid = s.tid;
                        evs.push(TraceEvent {
                            tid,
                            kind,
                            t0_ns,
                            dur_ns,
                            args,
                        });
                    } else {
                        // Drop the newest: a truncated trace stays a
                        // faithful prefix.
                        s.dropped.fetch_add(1, Relaxed);
                    }
                }
            });
        }
    }

    /// Zero every registered shard: counters, span times, events and drop
    /// counts (the registry itself is kept — live threads hold `Arc`s to
    /// their shards).
    pub fn reset() {
        for s in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            for a in s.counters.iter().chain(&s.times_ns) {
                a.store(0, Relaxed);
            }
            s.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
            s.dropped.store(0, Relaxed);
        }
    }

    /// The single aggregation point: fold every shard into a [`Profile`].
    /// Shards that recorded nothing are skipped; events are sorted by
    /// (thread, start time, longest first).
    pub fn snapshot() -> Profile {
        let mut p = Profile::default();
        p.trace.capacity = capacity();
        for s in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let counters: [u64; Counter::COUNT] =
                std::array::from_fn(|i| s.counters[i].load(Relaxed));
            let timers_ns: [u64; SpanKind::COUNT] =
                std::array::from_fn(|i| s.times_ns[i].load(Relaxed));
            let events = s.events.lock().unwrap_or_else(|e| e.into_inner());
            let dropped = s.dropped.load(Relaxed);
            let traced = !events.is_empty() || dropped != 0;
            if traced {
                p.trace.threads.push((s.tid, s.label.clone()));
                p.trace.events.extend_from_slice(&events);
                p.trace.dropped += dropped;
            }
            if traced || counters.iter().chain(&timers_ns).any(|&v| v != 0) {
                p.threads.push(ThreadProfile {
                    tid: s.tid,
                    label: s.label.clone(),
                    counters,
                    timers_ns,
                });
            }
        }
        p.threads.sort_by(|a, b| a.label.cmp(&b.label));
        p.trace.threads.sort_by_key(|&(tid, _)| tid);
        p.trace
            .events
            .sort_by_key(|e| (e.tid, e.t0_ns, std::cmp::Reverse(e.end_ns())));
        p
    }
}

// ---------------------------------------------------------------------------
// Recording API — no-op implementation (feature off)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, Profile, SpanArgs, SpanKind};
    use crate::trace::DEFAULT_CAPACITY;

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    #[inline(always)]
    pub fn events_enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_events_enabled(_on: bool) {}

    #[inline(always)]
    pub fn capacity() -> usize {
        DEFAULT_CAPACITY
    }

    #[inline(always)]
    pub fn set_capacity(_cap: usize) {}

    #[inline(always)]
    pub fn env_addr() -> Option<&'static str> {
        None
    }

    #[inline(always)]
    pub fn add(_c: Counter, _n: u64) {}

    pub struct Span;

    impl Span {
        #[inline(always)]
        pub fn stop(self) {}

        #[inline(always)]
        pub fn cancel(&mut self) {}
    }

    #[inline(always)]
    pub fn span(_kind: SpanKind, _args: SpanArgs) -> Span {
        Span
    }

    #[inline(always)]
    pub fn reset() {}

    #[inline(always)]
    pub fn snapshot() -> Profile {
        Profile::default()
    }
}

pub use imp::{add, enabled, reset, set_enabled, snapshot, span, Span};

// ---------------------------------------------------------------------------
// Aggregated profile (always compiled — bench/examples name these types)
// ---------------------------------------------------------------------------

/// One thread's counters and span times.
#[derive(Clone, Debug, Default)]
pub struct ThreadProfile {
    /// Registration-order thread id, the `tid` of this thread's events.
    pub tid: u32,
    pub label: String,
    pub counters: [u64; Counter::COUNT],
    /// Summed duration of the thread's spans, per [`SpanKind`].
    pub timers_ns: [u64; SpanKind::COUNT],
}

impl ThreadProfile {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn timer_ns(&self, k: SpanKind) -> u64 {
        self.timers_ns[k as usize]
    }

    /// Barrier-wait time as a share of this thread's total span time.
    pub fn barrier_wait_share(&self) -> f64 {
        share(
            self.timer_ns(SpanKind::BarrierWait),
            self.timers_ns.iter().sum(),
        )
    }
}

/// Run metadata attached to a rendered/serialised profile.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Report name; also the JSON file stem under `target/profile/`.
    pub name: String,
    /// Human label of the schedule that ran (e.g. `wavefront 32x32x4/8x8`).
    pub schedule: String,
    pub nt: usize,
    pub grid_points: u64,
    pub elapsed_s: f64,
}

impl RunMeta {
    pub fn new(name: &str, schedule: &str, nt: usize, grid_points: u64, elapsed_s: f64) -> Self {
        RunMeta {
            name: name.to_string(),
            schedule: schedule.to_string(),
            nt,
            grid_points,
            elapsed_s,
        }
    }

    /// Giga grid-point updates per second over the whole run. Guarded so a
    /// zero/negative/non-finite elapsed time yields 0.0, never NaN or inf —
    /// this value flows straight into serialised reports.
    pub fn gpts_per_s(&self) -> f64 {
        if !self.elapsed_s.is_finite() || self.elapsed_s <= 0.0 {
            0.0
        } else {
            fin(self.grid_points as f64 * self.nt as f64 / self.elapsed_s / 1e9)
        }
    }
}

/// Aggregated view of every shard, produced by [`snapshot`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    pub threads: Vec<ThreadProfile>,
    /// The run's spans, one event each; empty unless event capture was on.
    pub trace: Trace,
}

impl Profile {
    /// Sum of counter `c` across all threads.
    pub fn counter(&self, c: Counter) -> u64 {
        self.threads.iter().map(|t| t.counter(c)).sum()
    }

    /// Summed duration of `k` spans across all threads, in nanoseconds.
    pub fn timer_ns(&self, k: SpanKind) -> u64 {
        self.threads.iter().map(|t| t.timer_ns(k)).sum()
    }

    fn total_ns(&self) -> u64 {
        SpanKind::ALL.iter().map(|&k| self.timer_ns(k)).sum()
    }

    /// Barrier-wait time as a share of all span time, across all threads.
    /// This is the tie-breaker signal the autotuner consumes.
    pub fn barrier_wait_share(&self) -> f64 {
        share(self.timer_ns(SpanKind::BarrierWait), self.total_ns())
    }

    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Human-readable per-kind table.
    pub fn render(&self, meta: &RunMeta) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "── tempest profile: {} ──", meta.name);
        let _ = writeln!(
            out,
            "schedule {} · nt {} · grid {} pts · {:.3} ms · {:.3} GPts/s",
            meta.schedule,
            meta.nt,
            meta.grid_points,
            meta.elapsed_s * 1e3,
            meta.gpts_per_s()
        );

        let _ = writeln!(out, "counters:");
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                let _ = writeln!(out, "  {:<20} {:>14}", c.name(), v);
            }
        }

        let timed = self.total_ns();
        let _ = writeln!(out, "span times (thread-summed):");
        for k in SpanKind::ALL {
            let ns = self.timer_ns(k);
            if ns != 0 {
                let pct = 100.0 * share(ns, timed);
                let _ = writeln!(
                    out,
                    "  {:<14} {:>10.3} ms  {:>5.1}%",
                    k.name(),
                    ns as f64 / 1e6,
                    pct
                );
            }
        }
        // `Sparse` nests inside `Stencil`; report the dense-only remainder.
        let dense = self
            .timer_ns(SpanKind::Stencil)
            .saturating_sub(self.timer_ns(SpanKind::Sparse));
        if dense != 0 && self.timer_ns(SpanKind::Sparse) != 0 {
            let _ = writeln!(
                out,
                "  {:<14} {:>10.3} ms  (stencil − sparse)",
                "dense-only",
                dense as f64 / 1e6
            );
        }

        let _ = writeln!(out, "per-thread:");
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>14} {:>8}",
            "thread", "tasks", "barrier-wait", "share"
        );
        for t in &self.threads {
            let _ = writeln!(
                out,
                "  {:<22} {:>10} {:>11.3} ms {:>7.1}%",
                t.label,
                t.counter(Counter::ParTasks),
                t.timer_ns(SpanKind::BarrierWait) as f64 / 1e6,
                100.0 * t.barrier_wait_share()
            );
        }
        out
    }

    /// JSON document (hand-rolled; schema in DESIGN.md §9).
    pub fn to_json(&self, meta: &RunMeta) -> String {
        let counters = |s: &mut String, get: &dyn Fn(Counter) -> u64| {
            let fields: Vec<String> = Counter::ALL
                .iter()
                .map(|&c| format!("\"{}\": {}", c.name(), get(c)))
                .collect();
            let _ = write!(s, "\"counters\": {{{}}}", fields.join(", "));
        };
        let timers = |s: &mut String, get: &dyn Fn(SpanKind) -> u64| {
            let fields: Vec<String> = SpanKind::ALL
                .iter()
                .map(|&k| format!("\"{}\": {}", k.name(), get(k)))
                .collect();
            let _ = write!(s, "\"timers_ns\": {{{}}}", fields.join(", "));
        };
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"name\": \"{}\",", escape(&meta.name));
        let _ = writeln!(s, "  \"schedule\": \"{}\",", escape(&meta.schedule));
        let _ = writeln!(s, "  \"nt\": {},", meta.nt);
        let _ = writeln!(s, "  \"grid_points\": {},", meta.grid_points);
        let _ = writeln!(s, "  \"elapsed_s\": {:.9},", fin(meta.elapsed_s));
        let _ = writeln!(s, "  \"gpts_per_s\": {:.6},", fin(meta.gpts_per_s()));
        let _ = writeln!(
            s,
            "  \"barrier_wait_share\": {:.6},",
            fin(self.barrier_wait_share())
        );
        s.push_str("  ");
        counters(&mut s, &|c| self.counter(c));
        s.push_str(",\n  ");
        timers(&mut s, &|k| self.timer_ns(k));
        s.push_str(",\n  \"threads\": [\n");
        for (ti, t) in self.threads.iter().enumerate() {
            let _ = write!(s, "    {{\"label\": \"{}\", ", escape(&t.label));
            counters(&mut s, &|c| t.counter(c));
            s.push_str(", ");
            timers(&mut s, &|k| t.timer_ns(k));
            s.push('}');
            if ti + 1 < self.threads.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write the JSON report to `target/profile/{name}__{schedule}.json`
    /// (honouring `CARGO_TARGET_DIR`), creating directories as needed. The
    /// schedule is part of the stem so profiles of different schedules on
    /// the same solver do not overwrite each other; both labels are passed
    /// through [`sanitize_label`], so separator runs collapse to one `_`.
    /// Returns the path.
    pub fn write_json(&self, meta: &RunMeta) -> std::io::Result<PathBuf> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let dir = PathBuf::from(target).join("profile");
        std::fs::create_dir_all(&dir)?;
        let stem = if meta.schedule.is_empty() {
            sanitize_label(&meta.name)
        } else {
            format!(
                "{}__{}",
                sanitize_label(&meta.name),
                sanitize_label(&meta.schedule)
            )
        };
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, self.to_json(meta))?;
        Ok(path)
    }
}

/// Turn a free-form label (solver name, schedule description) into a
/// filename-safe stem: ASCII alphanumerics and `-` pass through, every run
/// of anything else collapses to a single `_`, with no leading/trailing
/// separator. `"wavefront-dflow 32x32 t4 / 8x8"` becomes
/// `"wavefront-dflow_32x32_t4_8x8"` — one canonical separator, so writers
/// joining name and schedule with `__` produce unambiguous stems.
pub fn sanitize_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut pending_sep = false;
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '-' {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c);
        } else {
            pending_sep = true;
        }
    }
    if out.is_empty() {
        "unnamed".to_string()
    } else {
        out
    }
}

/// `part / total`, 0 when nothing was timed.
fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Clamp a float to a finite value for serialisation: NaN and ±inf become
/// 0.0 so hand-rolled JSON writers can never emit tokens a parser rejects.
pub(crate) fn fin(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Minimal JSON string escaping for labels/names.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording tests share the process-global switch and shards, so every
    /// module's recording tests serialise on this lock.
    #[cfg(feature = "enabled")]
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_profile() -> (Profile, RunMeta) {
        let mut a = ThreadProfile {
            label: "main".into(),
            ..Default::default()
        };
        a.counters[Counter::StencilUpdates as usize] = 1000;
        a.counters[Counter::ParTasks as usize] = 10;
        a.timers_ns[SpanKind::Stencil as usize] = 8_000_000;
        a.timers_ns[SpanKind::Sparse as usize] = 1_000_000;
        a.timers_ns[SpanKind::BarrierWait as usize] = 1_000_000;
        let mut b = ThreadProfile {
            tid: 1,
            label: "tempest-par-0".into(),
            ..Default::default()
        };
        b.counters[Counter::ParTasks as usize] = 6;
        b.timers_ns[SpanKind::BarrierWait as usize] = 2_000_000;
        let profile = Profile {
            threads: vec![a, b],
            trace: Trace::default(),
        };
        let meta = RunMeta::new("unit-test", "wavefront 32x32x4", 8, 64 * 64 * 64, 0.005);
        (profile, meta)
    }

    #[test]
    fn aggregation_sums_across_threads() {
        let (p, _) = sample_profile();
        assert_eq!(p.counter(Counter::ParTasks), 16);
        assert_eq!(p.counter(Counter::StencilUpdates), 1000);
        assert_eq!(p.timer_ns(SpanKind::BarrierWait), 3_000_000);
        // barrier 3ms of 12ms total timed work
        assert!((p.barrier_wait_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_thread_barrier_share() {
        let (p, _) = sample_profile();
        // worker thread spent all its timed ns waiting
        assert!((p.threads[1].barrier_wait_share() - 1.0).abs() < 1e-12);
        assert!((p.threads[0].barrier_wait_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn meta_gpts() {
        let meta = RunMeta::new("x", "s", 10, 1_000_000, 0.01);
        assert!((meta.gpts_per_s() - 1.0).abs() < 1e-12);
        assert_eq!(RunMeta::new("x", "s", 10, 1_000_000, 0.0).gpts_per_s(), 0.0);
    }

    #[test]
    fn render_mentions_phases_and_threads() {
        let (p, meta) = sample_profile();
        let table = p.render(&meta);
        assert!(table.contains("unit-test"));
        assert!(table.contains("stencil_updates"));
        assert!(table.contains("barrier_wait"));
        assert!(table.contains("tempest-par-0"));
        assert!(table.contains("GPts/s"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let (p, meta) = sample_profile();
        let js = p.to_json(&meta);
        let v = json::Value::parse(&js).expect("profile JSON parses");
        for key in [
            "name",
            "schedule",
            "gpts_per_s",
            "barrier_wait_share",
            "counters",
            "timers_ns",
            "threads",
        ] {
            assert!(v.get(key).is_some(), "missing {key} in {js}");
        }
        let t = &v.get("threads").unwrap().as_arr().unwrap()[1];
        assert_eq!(
            t.get("counters")
                .unwrap()
                .get("par_tasks")
                .unwrap()
                .as_u64(),
            Some(6)
        );
        assert_eq!(
            t.get("timers_ns")
                .unwrap()
                .get("barrier_wait")
                .unwrap()
                .as_u64(),
            Some(2_000_000)
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn sanitize_collapses_separator_runs() {
        assert_eq!(
            sanitize_label("wavefront-dflow 32x32 t4 / 8x8"),
            "wavefront-dflow_32x32_t4_8x8"
        );
        assert_eq!(sanitize_label("spaceblocked 8x8"), "spaceblocked_8x8");
        assert_eq!(sanitize_label("  lead/trail  "), "lead_trail");
        assert_eq!(sanitize_label("a__b"), "a_b");
        assert_eq!(sanitize_label("///"), "unnamed");
        assert_eq!(sanitize_label("acoustic-so4"), "acoustic-so4");
    }

    #[test]
    fn gpts_never_nan_or_inf() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = RunMeta::new("x", "s", 10, 1_000_000, bad);
            assert_eq!(m.gpts_per_s(), 0.0, "elapsed_s = {bad}");
        }
    }

    #[test]
    fn json_has_no_nonfinite_tokens_for_degenerate_meta() {
        let p = Profile::default();
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            let meta = RunMeta::new("x", "s", 0, 0, bad);
            let js = p.to_json(&meta);
            assert!(!js.contains("NaN") && !js.contains("inf"), "bad JSON: {js}");
            assert!(json::Value::parse(&js).is_ok(), "unparseable: {js}");
        }
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!enabled());
        set_enabled(true);
        trace::set_enabled(true);
        assert!(!enabled() && !trace::enabled());
        add(Counter::StencilUpdates, 5);
        span(SpanKind::Stencil, SpanArgs::step(0)).stop();
        let p = snapshot();
        assert!(p.is_empty() && p.trace.is_empty());
        assert_eq!(p.counter(Counter::StencilUpdates), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_build_records_and_resets() {
        let _g = lock();
        set_enabled(true);
        trace::set_enabled(false);
        reset();
        add(Counter::StencilUpdates, 5);
        add(Counter::StencilUpdates, 7);
        let sp = span(SpanKind::Stencil, SpanArgs::step(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.stop();
        let h = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| add(Counter::ParTasks, 3))
            .unwrap();
        h.join().unwrap();
        let p = snapshot();
        assert_eq!(p.counter(Counter::StencilUpdates), 12);
        assert_eq!(p.counter(Counter::ParTasks), 3);
        assert!(p.timer_ns(SpanKind::Stencil) >= 1_000_000);
        assert!(p.threads.iter().any(|t| t.label == "obs-test-worker"));
        assert!(p.trace.is_empty(), "the record level captures no events");

        // the switch off: nothing recorded
        set_enabled(false);
        reset();
        add(Counter::StencilUpdates, 99);
        span(SpanKind::Stencil, SpanArgs::step(0)).stop();
        assert!(snapshot().is_empty());
    }

    /// The two setters move one level: events imply recording, dropping
    /// events keeps recording, switching recording off drops both.
    #[cfg(feature = "enabled")]
    #[test]
    fn one_switch_three_levels() {
        let _g = lock();
        set_enabled(false);
        assert!(!enabled() && !trace::enabled());
        trace::set_enabled(true);
        assert!(enabled() && trace::enabled());
        set_enabled(true);
        assert!(trace::enabled(), "record keeps events on");
        trace::set_enabled(false);
        assert!(enabled() && !trace::enabled());
        trace::set_enabled(true);
        set_enabled(false);
        assert!(!enabled() && !trace::enabled());
    }
}
