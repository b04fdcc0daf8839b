//! Runtime-telemetry subsystem: per-thread sharded counters and monotonic
//! phase timers with a single aggregation point.
//!
//! Two gates keep the hot path clean:
//!
//! 1. **Compile-time** — without the `enabled` cargo feature every recording
//!    entry point ([`add`], [`start`], …) is an `#[inline(always)]` empty
//!    function, so instrumented call sites (and the arithmetic feeding them)
//!    are dead-code-eliminated.
//! 2. **Run-time** — with the feature compiled in, recording is still off
//!    unless `TEMPEST_PROFILE` is set (or [`set_enabled`] was called); the
//!    check is one `Once` fast-path plus a relaxed bool load per call site.
//!
//! Recording is wait-free per thread: each thread owns an `Arc<Shard>` of
//! relaxed `AtomicU64`s (registered once in a global list), so there is no
//! cross-thread contention on the hot path. [`snapshot`] is the single
//! aggregation point — it walks the registry and folds all shards into a
//! [`Profile`], which renders a human table ([`Profile::render`]) and JSON
//! ([`Profile::write_json`] → `target/profile/*.json`).

use std::fmt::Write as _;
use std::path::PathBuf;

pub mod analysis;
pub mod json;
pub mod metrics;
pub mod serve;
pub mod trace;

// ---------------------------------------------------------------------------
// Counter / Phase taxonomies
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
/// * `ParTasks` — batch items executed by `tempest_par::run_batch`, counted
///   on the thread that ran them (the caller participates).
/// * `ParPublications` — jobs published to the board for workers to claim.
/// * `WavefrontTiles` — tile nodes computed by the plan executor.
/// * `DataflowReady` — tiles pushed onto a ready deque by the dataflow
///   executor (initial roots plus every dependency-counter zero
///   transition); equals the number of executed tiles, so it is
///   deterministic across thread policies.
/// * `DataflowSteals` — tiles a dataflow participant claimed from another
///   participant's deque. Depends on runtime timing, so it is *not*
///   deterministic across runs or thread caps.
/// * `SpaceSweeps` — per-virtual-timestep sweeps of the space-blocked
///   executor.
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
    SpaceSweeps,
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
    pub const COUNT: usize = 20;
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::StencilUpdates,
        Counter::SourceInjections,
        Counter::ReceiverGathers,
        Counter::ParTasks,
        Counter::ParPublications,
        Counter::WavefrontTiles,
        Counter::DataflowReady,
        Counter::DataflowSteals,
        Counter::SpaceSweeps,
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
            Counter::SpaceSweeps => "space_sweeps",
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

/// Wall-clock phases timed by [`start`]. `Stencil` spans a whole region
/// update including its fused sparse work; `Sparse` nests inside it (the
/// dense-only share is `Stencil − Sparse`). `BarrierWait` is the time a
/// `run_batch` caller spends waiting for workers after exhausting the batch,
/// plus the time any `run_dataflow` participant spends idle with no ready
/// tile to claim. `Sweep` is one virtual timestep of the space-blocked
/// executor; `Dataflow` is the caller-side span of one whole plan sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Phase {
    Stencil = 0,
    Sparse,
    BarrierWait,
    Dataflow,
    Sweep,
}

impl Phase {
    pub const COUNT: usize = 5;
    pub const ALL: [Phase; Self::COUNT] = [
        Phase::Stencil,
        Phase::Sparse,
        Phase::BarrierWait,
        Phase::Dataflow,
        Phase::Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Stencil => "stencil",
            Phase::Sparse => "sparse",
            Phase::BarrierWait => "barrier_wait",
            Phase::Dataflow => "dataflow",
            Phase::Sweep => "sweep",
        }
    }
}

// ---------------------------------------------------------------------------
// Recording API — real implementation (feature = "enabled")
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, Phase, Profile, ThreadProfile};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, Once, OnceLock};
    use std::time::Instant;

    struct Shard {
        label: String,
        counters: [AtomicU64; Counter::COUNT],
        timers_ns: [AtomicU64; Phase::COUNT],
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static ENV_INIT: Once = Once::new();
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();

    thread_local! {
        static SHARD: Arc<Shard> = register_shard();
    }

    fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn register_shard() -> Arc<Shard> {
        let cur = std::thread::current();
        let label = cur
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("{:?}", cur.id()));
        let shard = Arc::new(Shard {
            label,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timers_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&shard));
        shard
    }

    /// Is recording on? First call resolves `TEMPEST_PROFILE` (any value
    /// other than empty or `0` enables); after that it is one relaxed load.
    #[inline]
    pub fn enabled() -> bool {
        ENV_INIT.call_once(|| {
            let on = std::env::var("TEMPEST_PROFILE")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            if on {
                ENABLED.store(true, Ordering::Relaxed);
            }
        });
        ENABLED.load(Ordering::Relaxed)
    }

    /// Programmatic override of the `TEMPEST_PROFILE` gate.
    pub fn set_enabled(on: bool) {
        let _ = enabled(); // settle the env init so it cannot overwrite us
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Add `n` to counter `c` on this thread's shard.
    #[inline]
    pub fn add(c: Counter, n: u64) {
        if !enabled() {
            return;
        }
        SHARD.with(|s| s.counters[c as usize].fetch_add(n, Ordering::Relaxed));
    }

    /// Start timing `p`; the elapsed nanoseconds land on this thread's shard
    /// when the returned guard is dropped (or [`Stopwatch::stop`] is called).
    #[inline]
    pub fn start(p: Phase) -> Stopwatch {
        if !enabled() {
            return Stopwatch(None);
        }
        Stopwatch(Some((p, Instant::now())))
    }

    pub struct Stopwatch(Option<(Phase, Instant)>);

    impl Stopwatch {
        /// Explicit stop; equivalent to dropping the guard.
        #[inline]
        pub fn stop(self) {}
    }

    impl Drop for Stopwatch {
        #[inline]
        fn drop(&mut self) {
            if let Some((p, t0)) = self.0.take() {
                let ns = t0.elapsed().as_nanos() as u64;
                SHARD.with(|s| s.timers_ns[p as usize].fetch_add(ns, Ordering::Relaxed));
            }
        }
    }

    /// Zero every registered shard (the registry itself is kept: live
    /// threads hold `Arc`s to their shards).
    pub fn reset() {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for shard in reg.iter() {
            for c in &shard.counters {
                c.store(0, Ordering::Relaxed);
            }
            for t in &shard.timers_ns {
                t.store(0, Ordering::Relaxed);
            }
        }
    }

    /// The single aggregation point: fold every shard into a [`Profile`].
    /// Shards that recorded nothing are skipped.
    pub fn snapshot() -> Profile {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let mut threads = Vec::new();
        for shard in reg.iter() {
            let counters: [u64; Counter::COUNT] =
                std::array::from_fn(|i| shard.counters[i].load(Ordering::Relaxed));
            let timers_ns: [u64; Phase::COUNT] =
                std::array::from_fn(|i| shard.timers_ns[i].load(Ordering::Relaxed));
            if counters.iter().all(|&v| v == 0) && timers_ns.iter().all(|&v| v == 0) {
                continue;
            }
            threads.push(ThreadProfile {
                label: shard.label.clone(),
                counters,
                timers_ns,
            });
        }
        threads.sort_by(|a, b| a.label.cmp(&b.label));
        Profile { threads }
    }
}

// ---------------------------------------------------------------------------
// Recording API — no-op implementation (feature off)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, Phase, Profile};

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub fn set_enabled(_on: bool) {}

    #[inline(always)]
    pub fn add(_c: Counter, _n: u64) {}

    pub struct Stopwatch;

    impl Stopwatch {
        #[inline(always)]
        pub fn stop(self) {}
    }

    #[inline(always)]
    pub fn start(_p: Phase) -> Stopwatch {
        Stopwatch
    }

    #[inline(always)]
    pub fn reset() {}

    #[inline(always)]
    pub fn snapshot() -> Profile {
        Profile::default()
    }
}

pub use imp::{add, enabled, reset, set_enabled, snapshot, start, Stopwatch};

// ---------------------------------------------------------------------------
// Aggregated profile (always compiled — bench/examples name these types)
// ---------------------------------------------------------------------------

/// One thread's aggregated counters and timers.
#[derive(Clone, Debug, Default)]
pub struct ThreadProfile {
    pub label: String,
    pub counters: [u64; Counter::COUNT],
    pub timers_ns: [u64; Phase::COUNT],
}

impl ThreadProfile {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn timer_ns(&self, p: Phase) -> u64 {
        self.timers_ns[p as usize]
    }

    /// Barrier-wait time as a share of this thread's total timed work.
    pub fn barrier_wait_share(&self) -> f64 {
        let total: u64 = self.timers_ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.timer_ns(Phase::BarrierWait) as f64 / total as f64
        }
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
}

impl Profile {
    /// Sum of counter `c` across all threads.
    pub fn counter(&self, c: Counter) -> u64 {
        self.threads.iter().map(|t| t.counter(c)).sum()
    }

    /// Sum of timer `p` across all threads, in nanoseconds.
    pub fn timer_ns(&self, p: Phase) -> u64 {
        self.threads.iter().map(|t| t.timer_ns(p)).sum()
    }

    /// Barrier-wait time as a share of all timed work, across all threads.
    /// This is the tie-breaker signal the autotuner consumes.
    pub fn barrier_wait_share(&self) -> f64 {
        let total: u64 = Phase::ALL.iter().map(|&p| self.timer_ns(p)).sum();
        if total == 0 {
            0.0
        } else {
            self.timer_ns(Phase::BarrierWait) as f64 / total as f64
        }
    }

    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Human-readable per-phase table.
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

        let timed: u64 = Phase::ALL.iter().map(|&p| self.timer_ns(p)).sum();
        let _ = writeln!(out, "phase times (thread-summed):");
        for p in Phase::ALL {
            let ns = self.timer_ns(p);
            if ns == 0 {
                continue;
            }
            let pct = if timed == 0 {
                0.0
            } else {
                100.0 * ns as f64 / timed as f64
            };
            let _ = writeln!(out, "  {:<14} {:>10.3} ms  {:>5.1}%", p.name(), ns as f64 / 1e6, pct);
        }
        // `Sparse` nests inside `Stencil`; report the dense-only remainder.
        let dense = self
            .timer_ns(Phase::Stencil)
            .saturating_sub(self.timer_ns(Phase::Sparse));
        if dense != 0 && self.timer_ns(Phase::Sparse) != 0 {
            let _ = writeln!(out, "  {:<14} {:>10.3} ms  (stencil − sparse)", "dense-only", dense as f64 / 1e6);
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
                t.timer_ns(Phase::BarrierWait) as f64 / 1e6,
                100.0 * t.barrier_wait_share()
            );
        }
        out
    }

    /// JSON document (hand-rolled; schema in DESIGN.md §9).
    pub fn to_json(&self, meta: &RunMeta) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"name\": \"{}\",", escape(&meta.name));
        let _ = writeln!(s, "  \"schedule\": \"{}\",", escape(&meta.schedule));
        let _ = writeln!(s, "  \"nt\": {},", meta.nt);
        let _ = writeln!(s, "  \"grid_points\": {},", meta.grid_points);
        let _ = writeln!(s, "  \"elapsed_s\": {:.9},", fin(meta.elapsed_s));
        let _ = writeln!(s, "  \"gpts_per_s\": {:.6},", fin(meta.gpts_per_s()));
        let _ = writeln!(s, "  \"barrier_wait_share\": {:.6},", fin(self.barrier_wait_share()));

        s.push_str("  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", c.name(), self.counter(*c));
        }
        s.push_str("},\n");

        s.push_str("  \"timers_ns\": {");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", p.name(), self.timer_ns(*p));
        }
        s.push_str("},\n");

        s.push_str("  \"threads\": [\n");
        for (ti, t) in self.threads.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(s, "\"label\": \"{}\", ", escape(&t.label));
            s.push_str("\"counters\": {");
            for (i, c) in Counter::ALL.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", c.name(), t.counter(*c));
            }
            s.push_str("}, \"timers_ns\": {");
            for (i, p) in Phase::ALL.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", p.name(), t.timer_ns(*p));
            }
            s.push_str("}}");
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
            format!("{}__{}", sanitize_label(&meta.name), sanitize_label(&meta.schedule))
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

    fn sample_profile() -> (Profile, RunMeta) {
        let mut a = ThreadProfile {
            label: "main".into(),
            ..Default::default()
        };
        a.counters[Counter::StencilUpdates as usize] = 1000;
        a.counters[Counter::ParTasks as usize] = 10;
        a.timers_ns[Phase::Stencil as usize] = 8_000_000;
        a.timers_ns[Phase::Sparse as usize] = 1_000_000;
        a.timers_ns[Phase::BarrierWait as usize] = 1_000_000;
        let mut b = ThreadProfile {
            label: "tempest-par-0".into(),
            ..Default::default()
        };
        b.counters[Counter::ParTasks as usize] = 6;
        b.timers_ns[Phase::BarrierWait as usize] = 2_000_000;
        let profile = Profile { threads: vec![a, b] };
        let meta = RunMeta::new("unit-test", "wavefront 32x32x4", 8, 64 * 64 * 64, 0.005);
        (profile, meta)
    }

    #[test]
    fn aggregation_sums_across_threads() {
        let (p, _) = sample_profile();
        assert_eq!(p.counter(Counter::ParTasks), 16);
        assert_eq!(p.counter(Counter::StencilUpdates), 1000);
        assert_eq!(p.timer_ns(Phase::BarrierWait), 3_000_000);
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
        // structural sanity: balanced braces/brackets, expected keys
        assert_eq!(js.matches('{').count(), js.matches('}').count());
        assert_eq!(js.matches('[').count(), js.matches(']').count());
        for key in [
            "\"name\"",
            "\"schedule\"",
            "\"gpts_per_s\"",
            "\"barrier_wait_share\"",
            "\"counters\"",
            "\"timers_ns\"",
            "\"threads\"",
            "\"stencil_updates\"",
            "\"barrier_wait\"",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
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
        assert!(!enabled());
        add(Counter::StencilUpdates, 5);
        start(Phase::Stencil).stop();
        let p = snapshot();
        assert!(p.is_empty());
        assert_eq!(p.counter(Counter::StencilUpdates), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_build_records_and_resets() {
        set_enabled(true);
        reset();
        add(Counter::StencilUpdates, 5);
        add(Counter::StencilUpdates, 7);
        let sw = start(Phase::Stencil);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sw.stop();
        let h = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| add(Counter::ParTasks, 3))
            .unwrap();
        h.join().unwrap();
        let p = snapshot();
        assert_eq!(p.counter(Counter::StencilUpdates), 12);
        assert_eq!(p.counter(Counter::ParTasks), 3);
        assert!(p.timer_ns(Phase::Stencil) >= 1_000_000);
        assert!(p.threads.iter().any(|t| t.label == "obs-test-worker"));

        // runtime gate: disabled → nothing recorded
        set_enabled(false);
        reset();
        add(Counter::StencilUpdates, 99);
        start(Phase::Stencil).stop();
        assert_eq!(snapshot().counter(Counter::StencilUpdates), 0);
        set_enabled(true);
    }
}
