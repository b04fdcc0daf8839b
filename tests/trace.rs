//! Integration tests for the event level of `tempest-obs` (spans kept as
//! events, DESIGN.md §11).
//!
//! The acceptance case: a traced 64³×8 run of each propagator under the
//! wave-front plan must produce one `tile` span per executed space-time tile
//! with correct `(diagonal, tx, ty)` arguments, the stencil and sparse
//! phases under them, drop nothing at the default capacity, and export
//! Chrome trace-event JSON that parses back. Span time and events come from
//! one clock: per thread and kind, the recorded time is the events' summed
//! duration. Dropping the event level keeps recording, and a build without
//! `--features obs` records nothing.
//!
//! Shards are process-global, so every recording test serialises on a mutex
//! and resets before running.

#[cfg(feature = "obs")]
mod common;

use std::sync::{Mutex, MutexGuard};

use tempest::core::config::EquationKind;
#[cfg(feature = "obs")]
use tempest::core::operator::Schedule;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::obs;
#[cfg(feature = "obs")]
use tempest::obs::SpanKind;
use tempest::sparse::SparsePoints;

#[cfg(feature = "obs")]
const N: usize = 64;
#[cfg(feature = "obs")]
const NT: usize = 8;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::trace::set_enabled(true);
    obs::reset();
    g
}

/// The acceptance workload: acoustic, 64³ grid, 8 timesteps, SO 4.
#[cfg(feature = "obs")]
fn acoustic64() -> Acoustic {
    let d = Domain::uniform(Shape::cube(N), 10.0);
    let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(NT)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let rec = SparsePoints::receiver_line(&d, 4, 0.2);
    Acoustic::new(&model, cfg, src, Some(rec))
}

/// Events of one thread must be properly nested: sorted by start (ties by
/// longest-first), every span either contains or is disjoint from its
/// predecessor on the stack. Span guards are scoped values, so anything else
/// means timestamps or ring order are corrupt.
#[cfg(feature = "obs")]
fn assert_well_nested(trace: &obs::trace::Trace) {
    for &(tid, ref label) in &trace.threads {
        let mut evs: Vec<_> = trace.events.iter().filter(|e| e.tid == tid).collect();
        evs.sort_by_key(|e| (e.t0_ns, std::cmp::Reverse(e.end_ns())));
        let mut stack: Vec<u64> = Vec::new(); // open span end times
        for e in evs {
            while let Some(&end) = stack.last() {
                if end <= e.t0_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                assert!(
                    e.end_ns() <= end,
                    "thread {tid} ({label}): span {:?} [{}, {}) straddles an \
                     enclosing span ending at {end}",
                    e.kind,
                    e.t0_ns,
                    e.end_ns()
                );
            }
            stack.push(e.end_ns());
        }
    }
}

#[cfg(feature = "obs")]
#[test]
fn traced_wavefront_run_covers_every_tile_and_roundtrips() {
    let _g = guard();
    for mut s in common::solvers_on(N, 4, NT, 0.37, 4) {
        traced_wavefront_run(&mut *s);
    }
    obs::trace::set_enabled(false);
}

/// The acceptance run for one propagator: every tile traced with its
/// coordinates, the stencil and sparse phases under them, nothing dropped,
/// and the export parses back.
#[cfg(feature = "obs")]
fn traced_wavefront_run(s: &mut dyn WaveSolver) {
    let exec = Execution::wavefront_default();
    let (stats, profile, meta) = s.run_profiled(&exec);
    let trace = &profile.trace;
    let name = s.name();
    assert_eq!(stats.nt, NT);
    assert!(!trace.is_empty(), "event capture is on");

    // Zero drops at the default ring capacity (DESIGN.md §11 sizing claim).
    assert_eq!(trace.dropped, 0, "{name}: 64³×8 must fit the default ring");
    assert_eq!(trace.capacity, obs::trace::DEFAULT_CAPACITY);

    // One tile span per space-time tile of the schedule, each carrying its
    // (diagonal, tx, ty, t0, t1) coordinates, in the propagator's own
    // virtual steps and at its own dependency radius.
    let spec = exec.wavefront_spec(s.radius(), s.phases());
    let mut expected = Vec::new();
    tempest::tiling::wavefront::for_each_tile(Shape::cube(N), NT * s.phases(), &spec, |t| {
        expected.push(*t)
    });
    assert!(expected.len() > 1, "the case must actually tile");
    assert_eq!(trace.count(SpanKind::Tile), expected.len(), "{name}");
    for t in &expected {
        let found = trace.events_of(SpanKind::Tile).any(|e| {
            e.args.diagonal == t.diagonal() as i32
                && e.args.tx == t.xt as i32
                && e.args.ty == t.yt as i32
                && e.args.t0 == t.t0 as i32
                && e.args.t1 == t.t1 as i32
        });
        assert!(found, "no tile span for {t:?}");
    }
    for e in trace.events_of(SpanKind::Tile) {
        assert_eq!(e.args.diagonal, e.args.tx + e.args.ty, "diagonal is xt+yt");
    }
    // One whole-sweep coordinator span — the single join per sweep is
    // visible in the trace shape — and the propagator phases show up under
    // the tiles, even though tiles complete in a work-stealing order.
    assert_eq!(trace.count(SpanKind::Dataflow), 1);
    assert!(
        trace.count(SpanKind::Stencil) > 0,
        "{name}: stencil phases traced"
    );
    assert!(
        trace.count(SpanKind::Sparse) > 0,
        "{name}: sparse phases traced"
    );
    assert_well_nested(trace);

    // Export → parse back. The stem uses sanitized labels: separator runs
    // collapse to single underscores.
    let dir = std::env::temp_dir().join("tempest-trace-int-roundtrip");
    let path = trace.write_chrome_json_in(&dir, &meta).unwrap();
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        format!("{name}-so4__wavefront-dflow_16x16_t8_8x8.trace.json")
    );
    let body = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let v = obs::json::Value::parse(&body).expect("exported trace must be valid JSON");
    let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
    // One complete ("X") event per recorded span plus one thread-name
    // metadata ("M") record per thread.
    let spans: Vec<_> = evs
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
        .collect();
    let names: Vec<_> = evs
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
        .collect();
    assert_eq!(spans.len(), trace.events.len());
    assert_eq!(names.len(), trace.threads.len());
    // Every span's tid maps to a named thread, so Perfetto groups per-thread
    // tracks; tile spans round-trip their args.
    let tids: Vec<i64> = names
        .iter()
        .map(|e| e.get("tid").unwrap().as_i64().unwrap())
        .collect();
    let mut tiles_in_json = 0;
    for e in &spans {
        assert!(tids.contains(&e.get("tid").unwrap().as_i64().unwrap()));
        if e.get("name").unwrap().as_str() == Some("tile") {
            tiles_in_json += 1;
            let args = e.get("args").unwrap();
            let d = args.get("diagonal").unwrap().as_i64().unwrap();
            let tx = args.get("tx").unwrap().as_i64().unwrap();
            let ty = args.get("ty").unwrap().as_i64().unwrap();
            assert_eq!(d, tx + ty);
        }
    }
    assert_eq!(tiles_in_json, expected.len());
    assert_eq!(
        v.get("otherData").unwrap().get("dropped").unwrap().as_u64(),
        Some(0)
    );
}

#[cfg(feature = "obs")]
#[test]
fn baseline_run_records_one_tile_span_per_step_and_block() {
    // The classic baseline runs one plan segment per timestep: one
    // `Dataflow` span per step and one `Tile` span per (step, block), each
    // labelled with its absolute step.
    let _g = guard();
    let mut s = acoustic64();
    let exec = Execution::baseline();
    let trace = s.run_profiled(&exec).1.trace;
    let Schedule::SpaceBlocked { block_x, block_y } = exec.schedule else {
        unreachable!("the baseline is space-blocked")
    };
    let blocks = N.div_ceil(block_x) * N.div_ceil(block_y);
    assert_eq!(trace.count(SpanKind::Dataflow), NT, "one segment a step");
    assert_eq!(trace.count(SpanKind::Tile), NT * blocks);
    for t in 0..NT as i32 {
        let tiles: Vec<_> = trace
            .events_of(SpanKind::Tile)
            .filter(|e| e.args.t0 == t)
            .collect();
        assert_eq!(tiles.len(), blocks, "step {t}");
        assert!(tiles.iter().all(|e| e.args.t1 == t + 1), "step {t}");
    }
    assert_well_nested(&trace);
    obs::trace::set_enabled(false);
}

/// One clock: with events on and nothing dropped, every thread's recorded
/// time of every span kind is exactly the summed duration of its events of
/// that kind — the phase times *are* the spans. Covers the three
/// propagators and the DSL operator, both schedules, fused and classic
/// sparse operators, the pool's barrier waits and a cache restore.
#[cfg(feature = "obs")]
#[test]
fn span_times_equal_event_durations_per_thread_and_kind() {
    fn check(p: &obs::Profile, what: &str) {
        assert_eq!(p.trace.dropped, 0, "{what}");
        assert!(!p.trace.is_empty(), "{what}: events are on");
        for t in &p.threads {
            for k in SpanKind::ALL {
                let events: u64 = p
                    .trace
                    .events
                    .iter()
                    .filter(|e| e.tid == t.tid && e.kind == k)
                    .map(|e| e.dur_ns)
                    .sum();
                assert_eq!(t.timer_ns(k), events, "{what}: thread {} {k:?}", t.label);
            }
        }
    }
    let _g = guard();
    let mut solvers = common::solvers_on(32, 4, NT, 0.37, 4);
    solvers.push(Box::new(
        common::AcousticDsl::centred(32, 4, NT, 0.37, 4).op,
    ));
    let classic = Execution {
        sparse: tempest::core::operator::SparseMode::Classic,
        ..Execution::baseline()
    };
    for s in &mut solvers {
        for exec in [
            Execution::wavefront_default(),
            Execution::baseline(),
            classic,
        ] {
            let (_, p, _) = s.run_profiled(&exec);
            assert!(
                p.timer_ns(SpanKind::Sparse) > 0,
                "{}: sparse spans",
                s.name()
            );
            check(&p, &format!("{} {}", s.name(), exec.schedule_label()));
        }
    }
    // A warm rerun restores tiles from the cache instead of computing them.
    let cache = tempest::tiling::TileCache::with_capacity_mb(128);
    let mut s = acoustic64();
    let exec = Execution::wavefront_default();
    s.run_incremental(&exec, &cache, 0);
    obs::reset();
    s.run_incremental(&exec, &cache, 0);
    let p = obs::snapshot();
    assert!(
        p.trace.count(SpanKind::CacheRestore) > 0,
        "warm rerun restores"
    );
    check(&p, "warm rerun");
}

/// With the feature compiled in but the event level off, runs record
/// counters and span times but no events.
#[cfg(feature = "obs")]
#[test]
fn trace_gate_off_records_counters_but_no_events() {
    let _g = guard();
    obs::trace::set_enabled(false);
    let mut s = acoustic64();
    let (_, profile, _) = s.run_profiled(&Execution::wavefront_default());
    assert!(!profile.is_empty(), "recording stays on without events");
    assert!(
        profile.timer_ns(SpanKind::Tile) > 0,
        "span times are recorded"
    );
    assert!(
        profile.trace.is_empty(),
        "event level off must record no events"
    );
    assert_eq!(profile.trace.dropped, 0);
}

/// DESIGN.md §9's overhead bound, extended to events: with the event level
/// off, the instrumented hot loops must cost no more than with event
/// capture on (generous 3×+20ms noise bound — CI boxes jitter; the
/// true no-feature comparison is documented in DESIGN.md, not measurable in
/// one binary).
#[cfg(feature = "obs")]
#[test]
fn trace_disabled_costs_no_more_than_enabled() {
    use std::time::{Duration, Instant};
    let _g = guard();
    let d = Domain::uniform(Shape::cube(32), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(8)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.4);
    let mut s = Acoustic::new(&model, cfg, src, None);
    let exec = Execution::wavefront_default().sequential();
    s.run(&exec); // warm-up
    let mut median = |on: bool| {
        obs::trace::set_enabled(on);
        obs::reset();
        let mut times: Vec<Duration> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                s.run(&exec);
                t0.elapsed()
            })
            .collect();
        times.sort();
        times[1]
    };
    let enabled = median(true);
    let disabled = median(false);
    assert!(
        disabled <= enabled * 3 + Duration::from_millis(20),
        "trace-disabled run slower than enabled: {disabled:?} vs {enabled:?}"
    );
}

/// Without the `obs` feature the whole trace layer is compiled out: even
/// with the runtime switch forced on, a run yields an empty trace.
#[cfg(not(feature = "obs"))]
#[test]
fn no_feature_build_records_nothing() {
    let _g = guard();
    obs::trace::set_enabled(true);
    assert!(
        !obs::trace::enabled(),
        "no-feature build cannot enable tracing"
    );
    let d = Domain::uniform(Shape::cube(16), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(4)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.4);
    let mut s = Acoustic::new(&model, cfg, src, None);
    let (_, profile, _) = s.run_profiled(&Execution::wavefront_default());
    assert!(profile.is_empty());
    assert!(profile.trace.is_empty());
    assert_eq!(profile.trace.dropped, 0);
}
