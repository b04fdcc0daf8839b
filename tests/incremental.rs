//! Incremental recomputation suite (DESIGN.md §16): dirty-cone
//! invalidation plus the per-tile result cache.
//!
//! The correctness bar is *bitwise equivalence*: an incremental rerun after
//! a delta (moved source, changed receivers) must reproduce the wavefield a
//! cold full rerun computes, bit for bit, while recomputing strictly fewer
//! tiles. Receiver traces are bitwise too, at every thread cap — exactly
//! the determinism contract the non-incremental schedules already satisfy.
//!
//! The cone is the delta's domain of influence — the changed rectangles
//! dilated by `radius · vt` — and is property-tested over square and
//! non-square wavefront and tile_t = 1 (spaceblocked) tile graphs against a
//! cell-level brute force and against the successor closure it must be a subset of
//! (the third oracle, payload equality of two independent cold runs, needs
//! the session keys and lives in `tempest-core`'s `runpath` unit tests).
//!
//! Every fixture but one has a single source, so every clean tile there is
//! all zeros and a restore that wrote nothing back would pass; the busy-field
//! fixture (six sources, one nudged) is what pins *what a restore writes*.
//!
//! The CI `incremental` job re-runs this suite under `TEMPEST_THREADS` of
//! 1, 2 and 4; nothing here may depend on the pool size.

mod common;

use std::sync::{Arc, RwLock, RwLockReadGuard};

use common::trace_bitwise;
use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{
    run_survey, JobSpec, JobState, ShotSpec, Survey, SurveyOptions, SurveyService,
};
use tempest::tiling::{dirty_cone, DirtyRect, TileCache, TilePlan, WavefrontSpec};

const N: usize = 32;
const NT: usize = 6;

/// The standard problems — acoustic, TTI and elastic with one off-grid
/// source near the centre (nudged sub-cell by `frac`) and a 4-receiver line.
fn problems(frac: f32) -> Vec<Box<dyn WaveSolver>> {
    problems_with_receivers(frac, 4)
}

fn problems_with_receivers(frac: f32, receivers: usize) -> Vec<Box<dyn WaveSolver>> {
    common::solvers_on(N, 4, NT, frac, receivers)
}

/// Every schedule the incremental path supports, with tile shapes small
/// enough that a sub-cell source nudge leaves part of the graph clean, and
/// `tile_t ≤ NT − 3` so the first time band holds no ring level still live
/// when the sweep ends.
fn schedules() -> Vec<(&'static str, Schedule)> {
    vec![
        (
            "spaceblocked",
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
        ),
        (
            "wavefront-dataflow",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            },
        ),
        (
            "wavefront-xy",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 12,
                tile_t: 3,
                block_x: 4,
                block_y: 2,
            },
        ),
    ]
}

/// The obs counters are process-wide. The exact-count tests (`counters`,
/// `--features obs`) hold this lock exclusively and every other test that
/// runs a solve holds it shared, so none records into a counted window.
static COUNTERS: RwLock<()> = RwLock::new(());

fn solving() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(|e| e.into_inner())
}

fn exec(schedule: Schedule, policy: Policy) -> Execution {
    Execution {
        schedule,
        sparse: SparseMode::FusedCompressed,
        policy,
        kernel: KernelPath::default(),
    }
}

// ---------------------------------------------------------------------------
// Cone-oracle property tests
// ---------------------------------------------------------------------------

/// Cheap deterministic LCG so the rect sample is reproducible (the CI
/// `incremental` job runs this at several thread caps; the sample must not
/// vary).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// Cell-level brute force of the cone: the cells that can differ at `vt` are
/// those within `radius` of a cell that could differ at `vt − 1`, plus the
/// rects (sources fire at every step); a node is dirty iff one of its slabs
/// holds such a cell.
fn cone_by_cells(plan: &TilePlan, shape: Shape, rects: &[DirtyRect]) -> Vec<bool> {
    let r = plan.radius;
    let mut levels: Vec<Vec<bool>> = Vec::with_capacity(plan.nvt);
    for vt in 0..plan.nvt {
        let mut cells = vec![false; shape.nx * shape.ny];
        if vt > 0 {
            for x in 0..shape.nx {
                for y in 0..shape.ny {
                    if levels[vt - 1][x * shape.ny + y] {
                        for nx in x.saturating_sub(r)..(x + r + 1).min(shape.nx) {
                            for ny in y.saturating_sub(r)..(y + r + 1).min(shape.ny) {
                                cells[nx * shape.ny + ny] = true;
                            }
                        }
                    }
                }
            }
        }
        for rect in rects {
            for x in rect.x0..rect.x1 {
                for y in rect.y0..rect.y1 {
                    cells[x * shape.ny + y] = true;
                }
            }
        }
        levels.push(cells);
    }
    plan.slabs
        .iter()
        .map(|slabs| {
            slabs.iter().any(|s| {
                (s.range.x0..s.range.x1)
                    .any(|x| (s.range.y0..s.range.y1).any(|y| levels[s.vt][x * shape.ny + y]))
            })
        })
        .collect()
}

/// The graph closure the cone used to be: nodes whose slabs hold a changed
/// cell, and every node reachable from them over the successor edges.
fn successor_closure(plan: &TilePlan, rects: &[DirtyRect]) -> Vec<bool> {
    let mut dirty: Vec<bool> = plan
        .slabs
        .iter()
        .map(|slabs| {
            slabs
                .iter()
                .any(|s| rects.iter().any(|r| r.overlaps(&s.range)))
        })
        .collect();
    let mut queue: Vec<usize> = (0..plan.len()).filter(|&i| dirty[i]).collect();
    while let Some(i) = queue.pop() {
        for &s in plan.graph.succs(i) {
            if !std::mem::replace(&mut dirty[s as usize], true) {
                queue.push(s as usize);
            }
        }
    }
    dirty
}

/// `dirty_cone` must equal the cell-level brute force, and stay inside the
/// successor closure, over every plan family — wavefront parallelograms on
/// square and non-square tiles and the degenerate tile_t = 1 (spaceblocked)
/// plan — for corner-touching, full-domain and random deltas alike.
#[test]
fn dirty_cone_matches_oracle_across_plans() {
    let shape = Shape::new(23, 17, 4);
    let plans = vec![
        (
            "wavefront",
            TilePlan::wavefront(shape, 11, &WavefrontSpec::new(8, 8, 4, 2, 4, 4), 2),
        ),
        ("tile_t1", TilePlan::spaceblocked(shape, 5, 8, 8, 2)),
        (
            "wavefront-xy",
            TilePlan::wavefront(shape, 12, &WavefrontSpec::new(8, 12, 4, 2, 4, 2), 2),
        ),
    ];
    let mut rng = Lcg(0x1CEB00DA);
    for (label, plan) in &plans {
        assert!(!plan.is_empty(), "{label}: empty plan");
        let mut cases: Vec<Vec<DirtyRect>> = vec![
            // Boundary tiles: corner cells at both extremes.
            vec![DirtyRect {
                x0: 0,
                x1: 1,
                y0: 0,
                y1: 1,
            }],
            vec![DirtyRect {
                x0: shape.nx - 1,
                x1: shape.nx,
                y0: shape.ny - 1,
                y1: shape.ny,
            }],
            // Full-domain delta: everything must go dirty.
            vec![DirtyRect {
                x0: 0,
                x1: shape.nx,
                y0: 0,
                y1: shape.ny,
            }],
        ];
        for _ in 0..12 {
            let n = 1 + rng.next() % 3;
            cases.push(
                (0..n)
                    .map(|_| {
                        let x0 = rng.next() % shape.nx;
                        let y0 = rng.next() % shape.ny;
                        DirtyRect {
                            x0,
                            x1: x0 + 1 + rng.next() % (shape.nx - x0),
                            y0,
                            y1: y0 + 1 + rng.next() % (shape.ny - y0),
                        }
                    })
                    .collect(),
            );
        }
        let mut narrower = 0;
        for rects in &cases {
            let cone = dirty_cone(plan, rects);
            assert_eq!(
                cone,
                cone_by_cells(plan, shape, rects),
                "{label}: cone disagrees with the cell-level oracle for {rects:?}"
            );
            let closure = successor_closure(plan, rects);
            for (i, (&c, &g)) in cone.iter().zip(&closure).enumerate() {
                assert!(
                    !c || g,
                    "{label}: node {i} dirty outside the closure for {rects:?}"
                );
            }
            narrower += (cone != closure) as usize;
        }
        assert!(
            narrower > 0,
            "{label}: the cone never beat the graph closure"
        );
    }
}

/// The full-domain delta dirties every tile; the empty delta dirties none.
#[test]
fn cone_extremes() {
    let shape = Shape::new(23, 17, 4);
    let plan = TilePlan::spaceblocked(shape, 5, 8, 8, 2);
    let all = dirty_cone(
        &plan,
        &[DirtyRect {
            x0: 0,
            x1: shape.nx,
            y0: 0,
            y1: shape.ny,
        }],
    );
    assert!(all.iter().all(|&d| d));
    let none = dirty_cone(&plan, &[]);
    assert!(none.iter().all(|&d| !d));
}

// ---------------------------------------------------------------------------
// Incremental rerun ≡ cold rerun, per propagator × schedule × thread cap
// ---------------------------------------------------------------------------

/// The `i`-th standard problem with the source at `frac`.
fn problem(i: usize, frac: f32, receivers: usize) -> Box<dyn WaveSolver> {
    problems_with_receivers(frac, receivers).swap_remove(i)
}

/// The acceptance criterion: after a single moved source, the warm
/// incremental rerun is bitwise-identical to a cold full rerun for every
/// propagator on every schedule at caps 1/2/4 — while recomputing strictly
/// fewer tiles, with `reused + recomputed == total`.
#[test]
fn warm_rerun_is_bitwise_and_reuses_tiles() {
    let _solving = solving();
    for (i, mut a) in problems(0.37).into_iter().enumerate() {
        for (label, schedule) in schedules() {
            for cap in [1usize, 2, 4] {
                let what = format!("{} {label} cap{cap}", a.name());
                let ex = exec(schedule, Policy::Capped { threads: cap });
                let cache = TileCache::with_capacity_mb(256);

                // Cold run populates the cache.
                let cold = a.run_incremental(&ex, &cache, 0);
                assert!(cold.cold, "{what}: first run must be cold");
                assert_eq!(cold.reused, 0, "{what}");
                assert_eq!(cold.recomputed, cold.total_tiles, "{what}");
                assert!(cold.total_tiles > 0, "{what}: no tiles enumerated");

                // Warm rerun with the source nudged sub-cell.
                let mut b = problem(i, 0.61, 4);
                let warm = b.run_incremental(&ex, &cache, 0);
                assert!(!warm.cold, "{what}: rerun must see the prior session");
                assert_eq!(warm.total_tiles, cold.total_tiles, "{what}");
                assert_eq!(
                    warm.reused + warm.recomputed,
                    warm.total_tiles,
                    "{what}: every tile is either reused or recomputed"
                );
                assert!(
                    warm.reused > 0,
                    "{what}: nudged source must leave clean tiles"
                );
                assert!(warm.recomputed > 0, "{what}: nudge must dirty its cone");

                // Reference: a cold full rerun of the nudged problem.
                let mut c = problem(i, 0.61, 4);
                c.run(&ex);
                assert!(
                    b.final_field().bit_equal(&c.final_field()),
                    "{what}: incremental field differs from cold rerun (max diff {})",
                    b.final_field().max_abs_diff(&c.final_field())
                );
                trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), &what);
            }
        }
    }
}

/// A receiver-only delta (here: the receiver line replaced by a shorter
/// one) has no stencil footprint, so the cone is empty: nothing recomputes,
/// every tile restores, and the replayed gather against the *new* receiver
/// set matches a cold run bitwise.
#[test]
fn receiver_only_delta_recomputes_nothing() {
    let _solving = solving();
    for (i, mut a) in problems(0.37).into_iter().enumerate() {
        for (label, schedule) in schedules() {
            let what = format!("{} {label}", a.name());
            let ex = exec(schedule, Policy::Sequential);
            let cache = TileCache::with_capacity_mb(256);
            a.run_incremental(&ex, &cache, 0);

            let mut b = problem(i, 0.37, 2);
            let warm = b.run_incremental(&ex, &cache, 0);
            assert!(!warm.cold, "{what}");
            assert_eq!(
                warm.recomputed, 0,
                "{what}: receiver delta dirtied stencil tiles"
            );
            assert_eq!(warm.reused, warm.total_tiles, "{what}");

            let mut c = problem(i, 0.37, 2);
            c.run(&ex);
            assert!(b.final_field().bit_equal(&c.final_field()), "{what}");
            trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), &what);
        }
    }
}

/// `TEMPEST_CACHE_MB=0` (a zero-capacity cache) must behave exactly like
/// the pre-cache code path: `run_incremental` falls back to the plain
/// executor and the wavefield + trace are bitwise-identical to `run`.
#[test]
fn disabled_cache_is_bitwise_identical_to_plain_run() {
    let _solving = solving();
    for (i, mut a) in problems(0.37).into_iter().enumerate() {
        for (label, schedule) in schedules() {
            let what = format!("{} {label}", a.name());
            let ex = exec(schedule, Policy::Sequential);
            let cache = TileCache::with_capacity_mb(0);
            assert!(!cache.enabled());
            let rep = a.run_incremental(&ex, &cache, 0);
            assert!(rep.cold, "{what}");
            assert_eq!(rep.total_tiles, 0, "{what}: fallback enumerates no tiles");
            assert_eq!(rep.reused, 0, "{what}");
            assert_eq!(rep.recomputed, 0, "{what}");

            let mut b = problem(i, 0.37, 4);
            b.run(&ex);
            assert!(a.final_field().bit_equal(&b.final_field()), "{what}");
            trace_bitwise(&a.trace().unwrap(), &b.trace().unwrap(), &what);
        }
    }
}

// ---------------------------------------------------------------------------
// Busy field: clean tiles that are not all zeros
// ---------------------------------------------------------------------------

/// Acoustic, TTI and elastic on a 40³ grid over 12 steps with six sources —
/// five fixed ones spread over the xy plane and one near a corner, `nudge`
/// cells along x from its first position — and a 9-receiver line. The fixed
/// sources fill the tiles outside the corner source's light cone with
/// non-zero values, so what a restored tile leaves in the rings (or fails
/// to) shows in every tile that reads it.
fn busy_problems(nudge: f32) -> Vec<Box<dyn WaveSolver>> {
    common::solvers_with(40, 4, 12, busy_sources(nudge), 9)
}

fn busy_sources(nudge: f32) -> impl Fn(&Domain) -> SparsePoints {
    move |d| {
        let (o, h) = (d.origin(), d.spacing());
        let cells = [
            [3.2 + nudge, 3.4, 20.3],
            [9.4, 30.6, 18.7],
            [20.5, 19.3, 21.6],
            [31.7, 8.2, 19.4],
            [30.3, 31.8, 22.1],
            [14.6, 15.9, 12.8],
        ];
        let at = |c: [f32; 3]| [o[0] + c[0] * h[0], o[1] + c[1] * h[1], o[2] + c[2] * h[2]];
        SparsePoints::new(d, cells.into_iter().map(at).collect())
    }
}

/// [`schedules`] plus its wave-front tile made taller (t5) than every ring
/// is deep.
fn busy_schedules() -> Vec<(&'static str, Schedule)> {
    let mut all = schedules();
    let tall = Schedule::WavefrontDataflow {
        tile_x: 8,
        tile_y: 8,
        tile_t: 5,
        block_x: 4,
        block_y: 4,
    };
    all.insert(2, ("wavefront t5", tall));
    all
}

/// Warm reruns on a busy field: nudge the corner source 0.3 cell, then move
/// it back. Each rerun restores the tiles outside the nudge's light cone —
/// tiles full of the other five sources' wavefield — and must leave the
/// final field bit-equal to a cold run of the same problem (traces too when
/// sequential). Fails if a restored tile a recomputed one reads is not
/// written back (one successor hop is not enough), or if the cone is one
/// cell too narrow. The cold fill runs the scalar kernels and the reruns the
/// default backend: a cached payload stays valid across a backend switch.
#[test]
fn busy_field_reruns_are_bitwise_on_every_schedule() {
    let _solving = solving();
    const NUDGE: f32 = 0.3;
    let fresh = |i: usize, nudge: f32| busy_problems(nudge).swap_remove(i);
    for i in 0..3 {
        for (label, schedule) in busy_schedules() {
            for policy in [Policy::Sequential, Policy::Capped { threads: 2 }] {
                let ex = exec(schedule, policy);
                let cache = TileCache::with_capacity_mb(256);
                let mut a = fresh(i, 0.0);
                let what = format!("{} {label} {policy:?}", a.name());
                let cold = a.run_incremental(&ex.scalar_kernels(), &cache, 0);
                assert!(cold.cold && cold.reused == 0, "{what}");
                let field = a.final_field();
                let nonzero = field.as_slice().iter().filter(|v| **v != 0.0).count();
                assert!(
                    4 * nonzero > field.len(),
                    "{what}: only {nonzero} of {} final values are non-zero",
                    field.len()
                );

                for (step, nudge) in [("nudged", NUDGE), ("moved back", 0.0)] {
                    let what = format!("{what} {step}");
                    let mut b = fresh(i, nudge);
                    let warm = b.run_incremental(&ex, &cache, 0);
                    assert!(!warm.cold, "{what}");
                    assert_eq!(warm.reused + warm.recomputed, warm.total_tiles, "{what}");
                    assert!(
                        0 < warm.reused && warm.reused < warm.total_tiles,
                        "{what}: reused {} of {}",
                        warm.reused,
                        warm.total_tiles
                    );
                    assert!(warm.written_back <= warm.reused, "{what}");

                    let mut c = fresh(i, nudge);
                    c.run(&ex);
                    assert!(
                        b.final_field().bit_equal(&c.final_field()),
                        "{what}: warm field differs from a cold run (max diff {})",
                        b.final_field().max_abs_diff(&c.final_field())
                    );
                    trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), &what);
                }
            }
        }
    }
}

/// The tile plan `run_incremental` sweeps for `solver` under `schedule`.
fn plan_of(solver: &dyn WaveSolver, schedule: Schedule) -> TilePlan {
    exec(schedule, Policy::Sequential).plan(
        solver.shape(),
        solver.num_timesteps(),
        solver.radius(),
        solver.phases(),
    )
}

/// The report states the work avoided as data. A cold fill restores nothing
/// and stores less than it stepped: one source's wavefield after six steps
/// leaves most pencils all zeros. A receiver-only delta recomputes and
/// stores nothing, and writes back exactly the nodes holding one of the
/// acoustic ring's two levels still live when the sweep ends — every other
/// restore is a gather replay. On the busy field a payload costs at
/// most the dense bytes plus 8 B per pencil, and a nudged source writes back
/// fewer nodes than it restores.
#[test]
fn report_counts_the_work_avoided() {
    let _solving = solving();
    let field_bytes = NT * N * N * N * std::mem::size_of::<f32>();
    for (label, schedule) in schedules() {
        let ex = exec(schedule, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(256);
        let mut a = problem(0, 0.37, 4);
        let cold = a.run_incremental(&ex, &cache, 0);
        assert_eq!((cold.written_back, cold.restored_bytes), (0, 0), "{label}");
        assert_eq!(cold.recomputed_bytes, field_bytes, "{label}");
        assert_eq!(cold.stored_bytes, cache.stats().bytes, "{label}");
        assert!(
            cold.stored_bytes < cold.recomputed_bytes,
            "{label}: stored {} of {} dense bytes",
            cold.stored_bytes,
            cold.recomputed_bytes
        );

        let warm = problem(0, 0.37, 2).run_incremental(&ex, &cache, 0);
        assert_eq!((warm.recomputed, warm.recomputed_bytes), (0, 0), "{label}");
        assert_eq!(warm.stored_bytes, 0, "{label}");
        assert_eq!(warm.restored_bytes, field_bytes, "{label}");
        let live = plan_of(&*a, schedule)
            .slabs
            .iter()
            .filter(|slabs| slabs.iter().any(|s| s.vt + 2 >= NT))
            .count();
        assert_eq!(warm.written_back, live, "{label}");
        assert!(warm.written_back < warm.reused, "{label}");
    }

    let ex = exec(busy_schedules()[1].1, Policy::Sequential);
    let cache = TileCache::with_capacity_mb(256);
    let cold = busy_problems(0.0)
        .swap_remove(0)
        .run_incremental(&ex, &cache, 0);
    let warm = busy_problems(0.3)
        .swap_remove(0)
        .run_incremental(&ex, &cache, 0);
    for (what, r) in [("busy cold", &cold), ("busy nudged", &warm)] {
        // One acoustic field: a captured pencil is 40 values.
        let pencils = r.recomputed_bytes / (40 * std::mem::size_of::<f32>());
        assert!(
            0 < r.stored_bytes && r.stored_bytes <= r.recomputed_bytes + 8 * pencils,
            "{what}: stored {} for {} dense bytes in {pencils} pencils",
            r.stored_bytes,
            r.recomputed_bytes
        );
    }
    assert!(
        0 < warm.written_back && warm.written_back < warm.reused,
        "busy: {} written back of {} reused",
        warm.written_back,
        warm.reused
    );
    assert_eq!(
        warm.restored_bytes + warm.recomputed_bytes,
        12 * 40 * 40 * 40 * std::mem::size_of::<f32>()
    );
}

// ---------------------------------------------------------------------------
// Tiles taller than the ring is deep
// ---------------------------------------------------------------------------

/// Regression: with `tile_t` 8 > ring depth a tile's late
/// slabs overwrite the ring slots its early slabs wrote, so a payload
/// snapshotted after the *whole* tile ran replays wrong values into the
/// gathers of fully reused tiles. Capture happens per slab now. Through the
/// survey path a shot's tiles run on every thread the fleet cap allows, and
/// gathers must be bitwise-equal to an uncached cold solve at every cap —
/// for an identical resubmission (100 % reuse) and for a nudged shot.
#[test]
fn tall_tiles_replay_gathers_bitwise_through_the_survey_path() {
    let _solving = solving();
    let d = Domain::uniform(Shape::cube(N), 10.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(16)
        .with_f0(25.0);
    let survey = |nudge: f32| {
        let mut s = Survey::new(Model::two_layer(d, 1600.0, 2800.0, 0.5), cfg.clone())
            .with_receivers(SparsePoints::receiver_line(&d, 6, 0.2));
        s.add_shot(ShotSpec::at([113.0 + nudge, 161.0, 87.0]));
        s.add_shot(ShotSpec::at([207.0, 149.0, 93.0]));
        s
    };
    let schedule = Schedule::WavefrontDataflow {
        tile_x: 16,
        tile_y: 16,
        tile_t: 8,
        block_x: 8,
        block_y: 8,
    };
    for cap in [1usize, 2, 4] {
        let cache = Arc::new(TileCache::with_capacity_mb(256));
        let opts = |cache: Option<&Arc<TileCache>>| SurveyOptions {
            exec: exec(schedule, Policy::default()),
            policy: Policy::Capped { threads: cap },
            cache: cache.cloned(),
            ..SurveyOptions::default()
        };
        run_survey(&survey(0.0), &opts(Some(&cache))).unwrap();
        let filled = cache.stats();
        for (what, nudge) in [("identical rerun", 0.0), ("nudged rerun", 3.0)] {
            let warm = run_survey(&survey(nudge), &opts(Some(&cache))).unwrap();
            let cold = run_survey(&survey(nudge), &opts(None)).unwrap();
            for (w, c) in warm.iter().zip(&cold) {
                trace_bitwise(
                    w.gather.as_ref().unwrap(),
                    c.gather.as_ref().unwrap(),
                    &format!("cap{cap} {what} shot {}", w.index),
                );
            }
            if nudge == 0.0 {
                let s = cache.stats();
                assert!(s.hits > filled.hits, "cap{cap}: rerun must restore tiles");
                assert_eq!(
                    s.misses, filled.misses,
                    "cap{cap}: identical rerun reuses 100 %"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service-level reuse across jobs
// ---------------------------------------------------------------------------

/// A paused [`SurveyService`] keeps one tile cache across jobs: submitting
/// the same fused-sparse survey twice serves the second job's tiles from
/// cache, and both jobs' gathers are byte-identical.
#[test]
fn service_reuses_tiles_across_jobs() {
    let _solving = solving();
    let svc = SurveyService::paused();
    let Some(cache) = svc.tile_cache().cloned() else {
        // TEMPEST_CACHE_MB=0 in the environment disables the service cache;
        // the disabled path is covered above.
        return;
    };

    let d = Domain::uniform(Shape::cube(16), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let mut s = Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&d, 3, 0.2));
    s.add_shot_line(2, 0.1);
    let survey = Arc::new(s);

    let opts = SurveyOptions {
        exec: exec(
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            Policy::Sequential,
        ),
        ..Default::default()
    };

    let first = svc.submit(JobSpec::new(Arc::clone(&survey)).with_opts(opts.clone()));
    assert_eq!(svc.drain(), 1);
    let after_cold = cache.stats();
    assert!(after_cold.entries > 0, "cold job must populate the cache");

    let second = svc.submit(JobSpec::new(survey).with_opts(opts));
    assert_eq!(svc.drain(), 1);
    let after_warm = cache.stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "resubmitted job must reuse tiles ({} vs {})",
        after_warm.hits,
        after_cold.hits
    );

    assert_eq!(svc.poll(first).unwrap().state, JobState::Completed);
    assert_eq!(svc.poll(second).unwrap().state, JobState::Completed);
    let ga = svc.take_gathers(first).unwrap();
    let gb = svc.take_gathers(second).unwrap();
    assert_eq!(ga.len(), gb.len());
    for (x, y) in ga.iter().zip(&gb) {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        trace_bitwise(x, y, "cross-job gather");
    }
}

// ---------------------------------------------------------------------------
// Counter mirror (obs feature only)
// ---------------------------------------------------------------------------

#[cfg(feature = "obs")]
mod counters {
    use super::*;
    use std::sync::RwLockWriteGuard;
    use tempest::obs::{self, Counter};

    /// Global-counter tests cannot overlap each other or any other solve:
    /// the registry is process-wide.
    fn guard() -> RwLockWriteGuard<'static, ()> {
        let g = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
        obs::set_enabled(true);
        obs::reset();
        g
    }

    /// Exact-count oracle: `TilesReused + TilesRecomputed` equals the
    /// tiles the plan enumerated, and each mirrors the report.
    #[test]
    fn reuse_counters_are_exact() {
        let _g = guard();
        for (label, schedule) in schedules() {
            let ex = exec(schedule, Policy::Sequential);
            let cache = TileCache::with_capacity_mb(256);
            problem(0, 0.37, 4).run_incremental(&ex, &cache, 0);
            obs::reset();
            let mut b = problem(0, 0.61, 4);
            let warm = b.run_incremental(&ex, &cache, 0);
            let p = obs::snapshot();
            assert_eq!(
                p.counter(Counter::TilesReused),
                warm.reused as u64,
                "{label}"
            );
            assert_eq!(
                p.counter(Counter::TilesRecomputed),
                warm.recomputed as u64,
                "{label}"
            );
            assert_eq!(
                p.counter(Counter::TilesReused) + p.counter(Counter::TilesRecomputed),
                warm.total_tiles as u64,
                "{label}: counter sum must equal the enumerated tile count"
            );
            assert_eq!(
                p.counter(Counter::TilesWrittenBack),
                warm.written_back as u64,
                "{label}"
            );
        }
    }

    /// `TilesWrittenBack` mirrors the report: zero on a cold fill, the live
    /// nodes on a receiver-only delta, fewer than `TilesReused` after a
    /// nudge on the busy field.
    #[test]
    fn written_back_counter_is_exact() {
        let _g = guard();
        let ex = exec(busy_schedules()[1].1, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(256);
        let run = |nudge: f32, receivers: usize| {
            obs::reset();
            let mut s =
                common::solvers_with(40, 4, 12, busy_sources(nudge), receivers).swap_remove(0);
            (s.run_incremental(&ex, &cache, 0), obs::snapshot())
        };
        let (cold, p) = run(0.0, 9);
        assert!(cold.cold);
        assert_eq!(p.counter(Counter::TilesReused), 0);
        assert_eq!(p.counter(Counter::TilesWrittenBack), 0);

        let (receivers_only, p) = run(0.0, 5);
        assert_eq!(p.counter(Counter::TilesRecomputed), 0);
        assert_eq!(
            p.counter(Counter::TilesWrittenBack),
            receivers_only.written_back as u64
        );
        assert!(receivers_only.written_back > 0);

        let (nudged, p) = run(0.3, 5);
        assert_eq!(
            p.counter(Counter::TilesWrittenBack),
            nudged.written_back as u64
        );
        assert!(p.counter(Counter::TilesWrittenBack) < p.counter(Counter::TilesReused));
    }

    /// The disabled-cache fallback records none of the new counters.
    #[test]
    fn disabled_cache_records_no_new_counters() {
        let _g = guard();
        let ex = exec(schedules()[0].1, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(0);
        problem(0, 0.37, 4).run_incremental(&ex, &cache, 0);
        let p = obs::snapshot();
        assert_eq!(p.counter(Counter::TilesReused), 0);
        assert_eq!(p.counter(Counter::TilesRecomputed), 0);
        assert_eq!(p.counter(Counter::TilesWrittenBack), 0);
        assert_eq!(p.counter(Counter::CacheEvictions), 0);
    }
}
