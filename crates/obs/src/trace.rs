//! The span vocabulary and the event level: who ran which tile, when, on
//! which thread.
//!
//! A span's time always lands in its thread's per-[`SpanKind`] total (crate
//! docs); at the event level it is also kept as a [`TraceEvent`], so
//! diagonal load imbalance, barrier convoys and wave-front pipeline
//! fill/drain become visible (DESIGN.md §11). Each thread keeps at most
//! [`capacity`] events (default [`DEFAULT_CAPACITY`], `TEMPEST_TRACE_CAP` or
//! [`set_capacity`]); past it the newest event is dropped and counted, so a
//! truncated trace is still a faithful prefix. The events reach a
//! [`Profile`](crate::Profile) as its [`Trace`], which exports Chrome
//! trace-event JSON loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{escape, sanitize_label, RunMeta};

/// Default per-thread event capacity (events, not bytes). Sized so the
/// repo's standard example runs (128³ wavefront with per-region stencil
/// spans) fit with headroom; a 64³×8 tiled run uses a few thousand.
pub const DEFAULT_CAPACITY: usize = 262_144;

// ---------------------------------------------------------------------------
// Event vocabulary (always compiled)
// ---------------------------------------------------------------------------

/// What a span measures. `Tile` is one space-time tile computed by the plan
/// executor (one `(step, block)` of the space-blocked baseline);
/// `Dataflow` the coordinator-side span of one whole plan sweep;
/// `Stencil`/`Sparse` the propagator phases; `BarrierWait` the publishing
/// caller's wait in a `tempest_par` dispatch, for stragglers or a ready tile; `Shot` one whole shot solve of the survey engine
/// (the shot index rides in `vt`); `CacheRestore` one tile node whose output
/// the incremental executor restored from the `TileCache` instead of
/// recomputing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanKind {
    Tile = 0,
    Dataflow,
    Stencil,
    Sparse,
    BarrierWait,
    Shot,
    CacheRestore,
}

impl SpanKind {
    pub const COUNT: usize = 7;
    pub const ALL: [SpanKind; Self::COUNT] = [
        SpanKind::Tile,
        SpanKind::Dataflow,
        SpanKind::Stencil,
        SpanKind::Sparse,
        SpanKind::BarrierWait,
        SpanKind::Shot,
        SpanKind::CacheRestore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tile => "tile",
            SpanKind::Dataflow => "dataflow",
            SpanKind::Stencil => "stencil",
            SpanKind::Sparse => "sparse",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::Shot => "shot",
            SpanKind::CacheRestore => "cache_restore",
        }
    }
}

/// Structured span arguments; `-1` encodes "not applicable" and is omitted
/// from the exported JSON. Kept `Copy` and fixed-size so recording never
/// allocates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanArgs {
    /// Anti-diagonal index `tx + ty` (tile spans).
    pub diagonal: i32,
    /// Tile index along x.
    pub tx: i32,
    /// Tile index along y.
    pub ty: i32,
    /// First virtual timestep covered (inclusive).
    pub t0: i32,
    /// Last virtual timestep covered (exclusive).
    pub t1: i32,
    /// Single virtual timestep (stencil/sparse spans).
    pub vt: i32,
}

impl Default for SpanArgs {
    fn default() -> Self {
        SpanArgs {
            diagonal: -1,
            tx: -1,
            ty: -1,
            t0: -1,
            t1: -1,
            vt: -1,
        }
    }
}

impl SpanArgs {
    /// No arguments (barrier waits).
    pub fn none() -> Self {
        Self::default()
    }

    /// One space-time tile of a plan: its wave-front coordinates
    /// `(xt + yt, xt, yt)` and virtual-step range.
    pub fn tile(diagonal: usize, tx: usize, ty: usize, t0: usize, t1: usize) -> Self {
        SpanArgs {
            diagonal: diagonal as i32,
            tx: tx as i32,
            ty: ty as i32,
            t0: t0 as i32,
            t1: t1 as i32,
            vt: -1,
        }
    }

    /// A per-virtual-timestep span (stencil region update, sparse phase).
    pub fn step(vt: usize) -> Self {
        SpanArgs {
            vt: vt as i32,
            ..Self::default()
        }
    }

    /// One shot solve of the survey engine; the shot index rides in `vt`.
    pub fn shot(index: usize) -> Self {
        Self::step(index)
    }
}

/// One recorded span: 40 bytes, `Copy`, no heap.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Registration-order thread id (stable within a process run).
    pub tid: u32,
    pub kind: SpanKind,
    /// Start, nanoseconds since the process trace epoch.
    pub t0_ns: u64,
    pub dur_ns: u64,
    pub args: SpanArgs,
}

impl TraceEvent {
    /// End of the span, nanoseconds since the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.t0_ns + self.dur_ns
    }
}

/// The event level of the switch (crate docs): `enabled` says whether it
/// is on, `set_enabled(true)` turns recording and event capture on,
/// `set_enabled(false)` turns event capture off and keeps recording.
pub use crate::imp::{
    capacity, events_enabled as enabled, set_capacity, set_events_enabled as set_enabled,
};

// ---------------------------------------------------------------------------
// Aggregated trace + Chrome trace-event export (always compiled)
// ---------------------------------------------------------------------------

/// Every thread's events, carried by the [`Profile`](crate::Profile) that
/// [`crate::snapshot`] returns.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All recorded spans, sorted by (tid, start).
    pub events: Vec<TraceEvent>,
    /// `(tid, thread label)` for every thread that recorded events.
    pub threads: Vec<(u32, String)>,
    /// Spans discarded because a ring was full.
    pub dropped: u64,
    /// Per-thread capacity that was in effect at snapshot time.
    pub capacity: usize,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of spans of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Iterate over spans of one kind.
    pub fn events_of(&self, kind: SpanKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Chrome trace-event JSON (the "JSON Array Format" with complete `X`
    /// events plus thread-name metadata), loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are microseconds with nanosecond
    /// resolution kept in the fraction.
    pub fn to_chrome_json(&self, meta: &RunMeta) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"displayTimeUnit\": \"ms\",");
        s.push_str("  \"otherData\": {");
        let _ = write!(
            s,
            "\"name\": \"{}\", \"schedule\": \"{}\", \"nt\": {}, \"dropped\": {}, \"capacity\": {}",
            escape(&meta.name),
            escape(&meta.schedule),
            meta.nt,
            self.dropped,
            self.capacity
        );
        s.push_str("},\n");
        s.push_str("  \"traceEvents\": [\n");
        let mut first = true;
        for (tid, label) in &self.threads {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                tid,
                escape(label)
            );
        }
        for ev in &self.events {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"cat\": \"tempest\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {{",
                ev.kind.name(),
                ev.tid,
                ev.t0_ns / 1_000,
                ev.t0_ns % 1_000,
                ev.dur_ns / 1_000,
                ev.dur_ns % 1_000,
            );
            let mut first_arg = true;
            for (key, v) in [
                ("diagonal", ev.args.diagonal),
                ("tx", ev.args.tx),
                ("ty", ev.args.ty),
                ("t0", ev.args.t0),
                ("t1", ev.args.t1),
                ("vt", ev.args.vt),
            ] {
                if v < 0 {
                    continue;
                }
                if !first_arg {
                    s.push_str(", ");
                }
                first_arg = false;
                let _ = write!(s, "\"{key}\": {v}");
            }
            s.push_str("}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Write the Chrome trace to `<dir>/<name>__<schedule>.trace.json`
    /// with sanitized labels, creating directories as needed.
    pub fn write_chrome_json_in(&self, dir: &Path, meta: &RunMeta) -> std::io::Result<PathBuf> {
        if self.dropped > 0 {
            // Once per process, not per export: a sweep exporting dozens of
            // truncated traces should flag the lossage without spamming.
            static DROP_WARNING: std::sync::Once = std::sync::Once::new();
            DROP_WARNING.call_once(|| {
                eprintln!(
                    "tempest-obs: trace ring overflowed ({} spans dropped; capacity {}) — \
                     exported traces are lower bounds; raise TEMPEST_TRACE_CAP to keep more",
                    self.dropped, self.capacity
                );
            });
        }
        std::fs::create_dir_all(dir)?;
        let stem = if meta.schedule.is_empty() {
            sanitize_label(&meta.name)
        } else {
            format!(
                "{}__{}",
                sanitize_label(&meta.name),
                sanitize_label(&meta.schedule)
            )
        };
        let path = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&path, self.to_chrome_json(meta))?;
        Ok(path)
    }

    /// Write the Chrome trace under the standard trace directory:
    /// `TEMPEST_TRACE_DIR` if set, else `results/trace/`.
    pub fn write_chrome_json(&self, meta: &RunMeta) -> std::io::Result<PathBuf> {
        let dir = std::env::var("TEMPEST_TRACE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results").join("trace"));
        self.write_chrome_json_in(&dir, meta)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u32, kind: SpanKind, t0: u64, dur: u64, args: SpanArgs) -> TraceEvent {
        TraceEvent {
            tid,
            kind,
            t0_ns: t0,
            dur_ns: dur,
            args,
        }
    }

    fn sample_trace() -> (Trace, RunMeta) {
        let trace = Trace {
            events: vec![
                ev(
                    0,
                    SpanKind::Dataflow,
                    0,
                    5_000,
                    SpanArgs {
                        t0: 0,
                        t1: 4,
                        ..SpanArgs::default()
                    },
                ),
                ev(0, SpanKind::Tile, 100, 4_000, SpanArgs::tile(0, 0, 0, 0, 4)),
                ev(1, SpanKind::Tile, 200, 3_000, SpanArgs::tile(1, 1, 0, 0, 4)),
                ev(1, SpanKind::BarrierWait, 4_000, 500, SpanArgs::none()),
            ],
            threads: vec![(0, "main".into()), (1, "tempest-par-0".into())],
            dropped: 0,
            capacity: DEFAULT_CAPACITY,
        };
        let meta = RunMeta::new("unit-test", "wavefront-dflow 32x32 t4 / 8x8", 8, 64, 0.001);
        (trace, meta)
    }

    #[test]
    fn counts_and_filters() {
        let (t, _) = sample_trace();
        assert_eq!(t.count(SpanKind::Tile), 2);
        assert_eq!(t.count(SpanKind::Stencil), 0);
        assert_eq!(t.events_of(SpanKind::BarrierWait).count(), 1);
        assert!(!t.is_empty());
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn chrome_json_shape() {
        let (t, meta) = sample_trace();
        let js = t.to_chrome_json(&meta);
        let v = crate::json::Value::parse(&js).expect("chrome trace must be valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread-name metadata records + 4 spans
        assert_eq!(evs.len(), 6);
        let meta_evs: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta_evs.len(), 2);
        let tile = evs
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("tile"))
            .unwrap();
        assert_eq!(
            tile.get("args").unwrap().get("diagonal").unwrap().as_i64(),
            Some(0)
        );
        assert_eq!(
            tile.get("args").unwrap().get("tx").unwrap().as_i64(),
            Some(0)
        );
        // ts is µs with ns fraction: 100ns → 0.100
        assert!((tile.get("ts").unwrap().as_f64().unwrap() - 0.1).abs() < 1e-9);
        assert!((tile.get("dur").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
        // barrier span has no args
        let bw = evs
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("barrier_wait"))
            .unwrap();
        assert_eq!(bw.get("args").unwrap().as_obj().map(<[_]>::len), Some(0));
        assert_eq!(
            v.get("otherData").unwrap().get("dropped").unwrap().as_u64(),
            Some(0)
        );
    }

    #[test]
    fn empty_trace_exports_valid_json() {
        let js = Trace::default().to_chrome_json(&RunMeta::default());
        let v = crate::json::Value::parse(&js).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn write_sanitizes_stem() {
        let (t, meta) = sample_trace();
        let dir = std::env::temp_dir().join("tempest-obs-trace-test");
        let path = t.write_chrome_json_in(&dir, &meta).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "unit-test__wavefront-dflow_32x32_t4_8x8.trace.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(crate::json::Value::parse(&body).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_inert() {
        set_enabled(true);
        assert!(!enabled());
        let mut sp = crate::span(SpanKind::Tile, SpanArgs::tile(0, 0, 0, 0, 1));
        sp.cancel();
        crate::span(SpanKind::Stencil, SpanArgs::step(0)).stop();
        assert!(crate::snapshot().trace.is_empty());
    }

    /// Event-level recording, serialised with every other recording test
    /// of the crate.
    #[cfg(feature = "enabled")]
    mod recording {
        use super::super::*;
        use crate::{reset, span};

        fn events() -> Trace {
            crate::snapshot().trace
        }

        fn guard() -> std::sync::MutexGuard<'static, ()> {
            let g = crate::tests::lock();
            set_enabled(true);
            reset();
            g
        }

        #[test]
        fn records_spans_with_args_and_resets() {
            let _g = guard();
            {
                let _sp = span(SpanKind::Tile, SpanArgs::tile(3, 1, 2, 0, 4));
                span(SpanKind::Stencil, SpanArgs::step(2)).stop();
            }
            let t = events();
            assert_eq!(t.count(SpanKind::Tile), 1);
            assert_eq!(t.count(SpanKind::Stencil), 1);
            let tile = t.events_of(SpanKind::Tile).next().unwrap();
            assert_eq!(tile.args.diagonal, 3);
            assert_eq!(tile.args.tx, 1);
            assert_eq!(tile.args.ty, 2);
            // the stencil span opened inside the tile span nests within it
            let st = t.events_of(SpanKind::Stencil).next().unwrap();
            assert!(st.t0_ns >= tile.t0_ns && st.end_ns() <= tile.end_ns());
            // one clock: each kind's time is its events' summed duration
            let p = crate::snapshot();
            for k in [SpanKind::Tile, SpanKind::Stencil] {
                let evs: u64 = p.trace.events_of(k).map(|e| e.dur_ns).sum();
                assert_eq!(p.timer_ns(k), evs, "{k:?}");
            }
            reset();
            assert!(crate::snapshot().is_empty());
            set_enabled(false);
        }

        #[test]
        fn cancel_discards_the_span() {
            let _g = guard();
            let mut sp = span(SpanKind::Sparse, SpanArgs::step(0));
            std::thread::sleep(std::time::Duration::from_millis(1));
            sp.cancel();
            drop(sp);
            let p = crate::snapshot();
            assert_eq!(p.trace.count(SpanKind::Sparse), 0, "no event");
            assert_eq!(p.timer_ns(SpanKind::Sparse), 0, "no time");
            set_enabled(false);
        }

        #[test]
        fn overflow_drops_newest_and_counts() {
            let _g = guard();
            let prior = capacity();
            set_capacity(8);
            for i in 0..20usize {
                span(SpanKind::Stencil, SpanArgs::step(i)).stop();
            }
            let t = events();
            let mine: Vec<_> = t.events_of(SpanKind::Stencil).collect();
            assert_eq!(mine.len(), 8, "ring holds exactly its capacity");
            // earliest events survive untouched, in order
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.args.vt, i as i32);
            }
            assert_eq!(t.dropped, 12);
            // drops clear on reset
            set_capacity(prior);
            reset();
            assert_eq!(events().dropped, 0);
            set_enabled(false);
        }

        #[test]
        fn runtime_gate_off_records_nothing() {
            let _g = guard();
            set_enabled(false);
            span(SpanKind::Tile, SpanArgs::tile(0, 0, 0, 0, 1)).stop();
            assert!(events().is_empty());
            assert!(crate::enabled(), "dropping events keeps recording");
            crate::set_enabled(false);
        }
    }
}
