//! The benchmark's adapter: the one file that names `tempest_*` items.
//!
//! Everything the benchmark calls in the repository's crates goes through
//! here, so this file is the surface a refactor must keep (or precede with a
//! benchmark change). `README.md` lists it. Nothing from `crates/bench`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tempest_core::config::EquationKind;
use tempest_core::operator::{Schedule, SparseMode};
use tempest_core::{
    Acoustic, Elastic, Execution, KernelPath, ShotAssets, SimConfig, Tti, WaveSolver,
};
use tempest_grid::{Domain, ElasticModel, Field, Model, Shape, TtiModel};
use tempest_par::{for_each_index, Policy};
use tempest_sparse::interp::trilinear_all;
use tempest_sparse::wavelet::wavelet_matrix;
use tempest_sparse::{
    inject, interpolate, ricker, ReceiverPrecompute, SourcePrecompute, SparsePoints,
};
use tempest_stencil::backend::default_backend;
use tempest_stencil::metrics::{acoustic_cost, elastic_cost, tti_cost};
use tempest_stencil::Backend;
use tempest_survey::{
    run_survey, JobSpec, JobState, ShotSpec, Survey, SurveyOptions, SurveyService,
};
use tempest_tiling::autotune::quick_candidates;
use tempest_tiling::{autotune, dirty_cone, DirtyRect, TileCache, TilePlan};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Inputs, Physics, Sched, Spec, Tile};

/// Fastest velocity of every generated model (m/s); fixes the CFL timestep.
const VMAX: f32 = 3000.0;
/// How far the rerun workload nudges its shot, in grid cells along x.
const NUDGE_CELLS: f32 = 0.3;

/// Threads the pool runs on (`TEMPEST_THREADS`, set by `main`).
pub fn threads() -> usize {
    tempest_par::available_threads()
}

/// The runtime gate of the `obs` build; a no-op in the default build.
pub fn set_obs_recording(on: bool) {
    tempest_obs::set_enabled(on);
}

/// How one operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub sched: Sched,
    /// `Policy::Sequential` instead of `Policy::default()` (for a survey:
    /// the shot fleet's policy).
    pub sequential: bool,
    /// `KernelPath::Scalar` instead of runtime dispatch.
    pub scalar: bool,
    /// Lend the workload's tile cache to the run.
    pub cache: bool,
}

impl Variant {
    /// What the workload measures.
    pub fn production(spec: &Spec) -> Variant {
        Variant {
            sched: spec.sched,
            sequential: false,
            scalar: false,
            cache: spec.cache_mb > 0,
        }
    }

    /// The paper's baseline at the same thread count.
    pub fn baseline() -> Variant {
        Variant {
            sched: Sched::SpaceBlocked,
            sequential: false,
            scalar: false,
            cache: false,
        }
    }

    /// What production output is checked against: the sequential baseline
    /// (the Fig. 4b oracle), or for a cached rerun a cold solve of the same
    /// survey.
    pub fn reference(spec: &Spec) -> Variant {
        if spec.cache_mb > 0 {
            Variant {
                cache: false,
                ..Variant::production(spec)
            }
        } else {
            Variant {
                sequential: true,
                ..Variant::baseline()
            }
        }
    }

    /// The wave-front schedule at another tile shape, never cached.
    pub fn wavefront(tile: Tile) -> Variant {
        Variant {
            sched: Sched::Wavefront(tile),
            ..Variant::baseline()
        }
    }
}

fn execution(spec: &Spec, v: &Variant) -> Execution {
    let (schedule, sparse) = match v.sched {
        Sched::SpaceBlocked => (
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            SparseMode::Classic,
        ),
        Sched::Wavefront(tile) => (
            Schedule::WavefrontDataflow {
                tile_x: tile.x,
                tile_y: tile.y,
                tile_t: tile.t,
                block_x: spec.block.0,
                block_y: spec.block.1,
            },
            SparseMode::FusedCompressed,
        ),
    };
    Execution {
        schedule,
        sparse,
        policy: policy(v),
        kernel: if v.scalar {
            KernelPath::Scalar
        } else {
            KernelPath::default()
        },
    }
}

fn policy(v: &Variant) -> Policy {
    if v.sequential {
        Policy::Sequential
    } else {
        Policy::default()
    }
}

fn domain(spec: &Spec) -> Domain {
    // The paper's grid spacings: 10 m, and 20 m for TTI (§IV.B).
    let h = if spec.physics == Physics::Tti {
        20.0
    } else {
        10.0
    };
    Domain::uniform(Shape::cube(spec.n), h)
}

fn config(spec: &Spec, kind: EquationKind, vmax: f32) -> SimConfig {
    SimConfig::new(domain(spec), spec.so, kind, vmax, 512.0).with_nt(spec.nt)
}

/// Physical position of a point given as fractions of the extent.
fn position(d: &Domain, frac: [f32; 3]) -> [f32; 3] {
    let (o, e) = (d.origin(), d.extent());
    std::array::from_fn(|a| o[a] + frac[a] * e[a])
}

fn receivers(spec: &Spec, inp: &Inputs) -> SparsePoints {
    SparsePoints::receiver_line(&domain(spec), spec.receivers, inp.receiver_depth)
}

/// The first source of the workload: the solve's, or the survey's shot 0.
fn first_source(spec: &Spec, inp: &Inputs) -> [f32; 3] {
    let frac = inp.shots.first().copied().unwrap_or(inp.source);
    position(&domain(spec), frac)
}

fn acoustic_model(spec: &Spec, inp: &Inputs) -> Model {
    Model::random(domain(spec), 1500.0, VMAX, inp.model_seed)
}

fn build_solver(
    spec: &Spec,
    inp: &Inputs,
    with_receivers: bool,
    tr: &mut Tracer,
) -> Box<dyn WaveSolver> {
    let d = domain(spec);
    let src = SparsePoints::new(&d, vec![position(&d, inp.source)]);
    let rec = with_receivers.then(|| receivers(spec, inp));
    match spec.physics {
        Physics::Acoustic => {
            let (m, _) = tr.time("grid.model_build", |_| acoustic_model(spec, inp));
            let cfg = config(spec, EquationKind::Acoustic, VMAX);
            tr.time("core.solver_build", |_| {
                Box::new(Acoustic::new(&m, cfg, src, rec)) as Box<dyn WaveSolver>
            })
            .0
        }
        Physics::Tti => {
            let (m, _) = tr.time("grid.model_build", |_| {
                TtiModel::random(d, 1500.0, VMAX, inp.model_seed)
            });
            let cfg = config(spec, EquationKind::Tti, m.vmax());
            tr.time("core.solver_build", |_| {
                Box::new(Tti::new(&m, cfg, src, rec)) as Box<dyn WaveSolver>
            })
            .0
        }
        Physics::Elastic => {
            let (m, _) = tr.time("grid.model_build", |_| {
                ElasticModel::random(d, 2000.0, VMAX, inp.model_seed)
            });
            let cfg = config(spec, EquationKind::Elastic, VMAX);
            tr.time("core.solver_build", |_| {
                Box::new(Elastic::new(&m, cfg, src, rec)) as Box<dyn WaveSolver>
            })
            .0
        }
    }
}

/// What an operation produced, reduced to what the output check compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Hash of the final wavefield's bits (a single solve only; a survey
    /// returns gathers, not fields).
    pub field_hash: Option<u64>,
    /// Receiver traces: the solve's, or every shot's gather in shot order.
    pub traces: Vec<f32>,
}

fn hash_bits(values: &[f32]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Cache counters, cumulative over the cache's life.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: usize,
}

pub struct SurveyProblem {
    /// Two descriptions of the survey. A cached rerun nudges shot 2 between
    /// them, so that resubmitting them in turn is a real delta every time;
    /// without a cache both are the same survey.
    surveys: [Arc<Survey>; 2],
    cache: Option<Arc<TileCache>>,
    gathers: Vec<f32>,
    spec: Spec,
}

enum Kind {
    Solve(Box<dyn WaveSolver>),
    Survey(SurveyProblem),
}

/// A workload's built state: what set-up makes and operations run on.
pub struct Problem {
    spec: Spec,
    kind: Kind,
}

impl Problem {
    /// Build from scratch: model generation, sparse precompute, solver or
    /// survey construction, pool spin-up and — for a cached rerun — the cold
    /// run that fills the cache (with survey 1, so the first operation must
    /// ask for survey 0).
    pub fn build(
        spec: &Spec,
        inp: &Inputs,
        with_receivers: bool,
        tr: &mut Tracer,
    ) -> Result<Problem, String> {
        for_each_index(Policy::Parallel, threads(), |_| {});
        let kind = if spec.is_survey() {
            let (model, _) = tr.time("grid.model_build", |_| acoustic_model(spec, inp));
            let d = domain(spec);
            let cfg = config(spec, EquationKind::Acoustic, VMAX);
            let describe = |nudge: f32| {
                let mut s = Survey::new(model.clone(), cfg.clone());
                if with_receivers {
                    s = s.with_receivers(receivers(spec, inp));
                }
                for (i, frac) in inp.shots.iter().enumerate() {
                    let mut p = position(&d, *frac);
                    if i == 2 {
                        p[0] += nudge * d.spacing()[0];
                    }
                    s.add_shot(ShotSpec::at(p));
                }
                Arc::new(s)
            };
            let original = describe(0.0);
            let mut sp = SurveyProblem {
                surveys: [Arc::clone(&original), original],
                cache: None,
                gathers: Vec::new(),
                spec: spec.clone(),
            };
            if spec.cache_mb > 0 {
                sp.surveys[0] = describe(NUDGE_CELLS);
                sp.cache = Some(Arc::new(TileCache::with_capacity_mb(spec.cache_mb)));
                let opts = sp.options(&Variant::production(spec));
                tr.time("tiling.cache_fill", |_| run_survey(&sp.surveys[1], &opts))
                    .0
                    .map_err(|e| e.to_string())?;
            }
            Kind::Survey(sp)
        } else {
            Kind::Solve(build_solver(spec, inp, with_receivers, tr))
        };
        Ok(Problem {
            spec: spec.clone(),
            kind,
        })
    }

    /// One operation: a full solve, or one `run_survey` of survey `which`
    /// (0 or 1). A `ShotError` comes back as `Err`; a panic is the caller's
    /// to catch.
    pub fn run(&mut self, which: usize, v: &Variant) -> Result<(), String> {
        match &mut self.kind {
            Kind::Solve(solver) => {
                solver.run(&execution(&self.spec, v));
                Ok(())
            }
            Kind::Survey(sp) => {
                let opts = sp.options(v);
                let shots = run_survey(&sp.surveys[which % 2], &opts).map_err(|e| e.to_string())?;
                sp.gathers.clear();
                for shot in shots.iter().filter_map(|s| s.gather.as_ref()) {
                    sp.gathers.extend_from_slice(shot.as_slice());
                }
                Ok(())
            }
        }
    }

    /// What the last operation left behind.
    pub fn output(&mut self) -> Output {
        match &mut self.kind {
            Kind::Solve(solver) => Output {
                field_hash: Some(hash_bits(solver.final_field().as_slice())),
                traces: solver.trace().map_or(Vec::new(), |t| t.as_slice().to_vec()),
            },
            Kind::Survey(sp) => Output {
                field_hash: None,
                traces: sp.gathers.clone(),
            },
        }
    }

    /// The tile cache's counters, when the workload has a cache.
    pub fn cache_counts(&self) -> Option<CacheCounts> {
        let Kind::Survey(sp) = &self.kind else {
            return None;
        };
        sp.cache.as_ref().map(|c| {
            let s = c.stats();
            CacheCounts {
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                bytes: s.bytes,
            }
        })
    }

    /// Survey-only probes; `None` for a single solve.
    pub fn survey(&self) -> Option<&SurveyProblem> {
        match &self.kind {
            Kind::Survey(sp) => Some(sp),
            Kind::Solve(_) => None,
        }
    }
}

impl SurveyProblem {
    fn options(&self, v: &Variant) -> SurveyOptions {
        SurveyOptions {
            exec: execution(&self.spec, v),
            policy: policy(v),
            cache: if v.cache { self.cache.clone() } else { None },
            ..SurveyOptions::default()
        }
    }

    /// Seconds to build the shot-independent assets, and then one shot's
    /// propagator from them.
    pub fn shot_build_s(&self) -> (f64, f64) {
        let s = &self.surveys[1];
        let t0 = Instant::now();
        let assets = ShotAssets::new(s.model(), s.cfg().clone(), s.receivers().cloned());
        let assets_s = t0.elapsed().as_secs_f64();
        let src = SparsePoints::new(&s.cfg().domain, vec![s.shots()[0].position]);
        let t0 = Instant::now();
        black_box(Acoustic::from_assets(&assets, src));
        (assets_s, t0.elapsed().as_secs_f64())
    }

    /// Seconds of a one-shot survey (shot 0) under `v`, never cached: what
    /// a shard costs when nothing runs beside it.
    pub fn solo_s(&self, v: &Variant) -> Result<f64, String> {
        let s = &self.surveys[1];
        let mut one = Survey::new(s.model().clone(), s.cfg().clone());
        if let Some(r) = s.receivers() {
            one = one.with_receivers(r.clone());
        }
        one.add_shot(s.shots()[0].clone());
        let opts = self.options(&Variant { cache: false, ..*v });
        let t0 = Instant::now();
        run_survey(&one, &opts).map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Seconds from `submit` to the end of `wait` for survey `which` through
    /// a started `SurveyService`.
    pub fn service_s(&self, which: usize, v: &Variant) -> Result<f64, String> {
        let service = SurveyService::start();
        let job = JobSpec::new(Arc::clone(&self.surveys[which % 2])).with_opts(self.options(v));
        let t0 = Instant::now();
        let id = service.submit(job);
        let status = service.wait(id).ok_or("job vanished")?;
        let secs = t0.elapsed().as_secs_f64();
        match status.state {
            JobState::Completed => Ok(secs),
            other => Err(format!("job ended {other:?}: {:?}", status.error)),
        }
    }
}

pub struct SparseProbe {
    pub precompute_s: f64,
    pub affected_points: usize,
    pub overhead_mb: f64,
    pub classic_step_us: f64,
}

/// The sparse layer alone, on the workload's own points: the paper's
/// precomputation (source and receiver side), what it allocates, and one
/// classic inject + interpolate step on a standalone field.
pub fn sparse_probe(spec: &Spec, inp: &Inputs) -> SparseProbe {
    let d = domain(spec);
    let src = SparsePoints::new(&d, vec![first_source(spec, inp)]);
    let rec = receivers(spec, inp);
    let dt = config(spec, EquationKind::Acoustic, VMAX).dt;
    let wavelets = wavelet_matrix(&ricker(10.0, dt, spec.nt), src.len());

    let t0 = Instant::now();
    let sp = SourcePrecompute::build(&d, &src, &wavelets);
    let rp = ReceiverPrecompute::build(&d, &rec);
    let precompute_s = t0.elapsed().as_secs_f64();
    let receiver_bytes = rp.rm.len()
        + rp.rid.len() * 4
        + std::mem::size_of_val(&rp.points[..])
        + std::mem::size_of_val(&rp.offsets[..])
        + std::mem::size_of_val(&rp.entries[..]);

    let mut field = Field::zeros(d.shape(), spec.radius());
    let (src_st, rec_st) = (trilinear_all(&d, &src), trilinear_all(&d, &rec));
    let mut out = vec![0.0f32; rec.len()];
    const STEPS: usize = 200;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for k in 0..STEPS {
                inject(&mut field, &src_st, wavelets.row(k % spec.nt), |_, _, _| {
                    1.0
                });
                interpolate(&field, &rec_st, &mut out);
                black_box(&mut out);
            }
            t0.elapsed().as_secs_f64() * 1e6 / STEPS as f64
        })
        .collect();

    SparseProbe {
        precompute_s,
        affected_points: sp.npts() + rp.npts(),
        overhead_mb: (sp.memory_overhead_bytes() + receiver_bytes) as f64 / 1e6,
        classic_step_us: median(&samples),
    }
}

fn row_weights<const R: usize>() -> [f32; R] {
    std::array::from_fn(|k| 0.8 / (k + 1) as f32)
}

/// `(field, index of the row's first point, output row)`.
type RowKernel = Box<dyn Fn(&[f32], usize, &mut [f32])>;

/// The workload's dominant row kernel at radius `R`, on a cube of padded
/// edge `p`: the Laplacian row for acoustic, the mixed second derivative for
/// TTI's rotated Laplacian, the staggered derivative for elastic.
fn row_kernel<const R: usize>(physics: Physics, p: usize, b: Backend) -> RowKernel {
    let (sx, sy) = (p * p, p);
    let w = row_weights::<R>();
    match physics {
        Physics::Acoustic => {
            Box::new(move |u, i0, out| b.laplacian_row_r::<R>(u, i0, sx, sy, -4.1, &w, &w, &w, out))
        }
        Physics::Tti => {
            Box::new(move |u, i0, out| b.cross_diff_row_r::<R>(u, i0, sx, sy, &w, &w, out))
        }
        Physics::Elastic => {
            Box::new(move |u, i0, out| b.staggered_fwd_row_r::<R>(u, i0, sx, &w, out))
        }
    }
}

pub struct RowRates {
    /// Name of the backend runtime dispatch picks on this host.
    pub backend: &'static str,
    pub dispatched_gpts: f64,
    pub scalar_gpts: f64,
}

/// Sweep the interior of a 64³ cube (in cache: a compute rate, not a
/// bandwidth) through the workload's dominant row kernel, once with the
/// dispatched backend and once with the scalar reference.
pub fn row_rates(spec: &Spec) -> RowRates {
    const N: usize = 64;
    let r = spec.radius();
    let p = N + 2 * r;
    let u: Vec<f32> = (0..p * p * p)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1009) as f32 * 1e-3)
        .collect();
    let rate = |b: Backend| {
        let row = match r {
            2 => row_kernel::<2>(spec.physics, p, b),
            4 => row_kernel::<4>(spec.physics, p, b),
            _ => unreachable!("workloads.rs admits space orders 4 and 8 only"),
        };
        let mut out = vec![0.0f32; N];
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                for x in r..r + N {
                    for y in r..r + N {
                        row(&u, (x * p + y) * p + r, &mut out);
                        black_box(&mut out);
                    }
                }
                (N * N * N) as f64 / t0.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        median(&samples)
    };
    let dispatched = default_backend();
    RowRates {
        backend: dispatched.name(),
        dispatched_gpts: rate(dispatched),
        scalar_gpts: rate(Backend::Scalar),
    }
}

/// The repository's analytic cost model for the workload's kernel:
/// `(FLOPs, streaming bytes)` per point update. Computed, not measured.
pub fn kernel_cost(spec: &Spec) -> (f64, f64) {
    let c = match spec.physics {
        Physics::Acoustic => acoustic_cost(spec.so),
        Physics::Tti => tti_cost(spec.so),
        Physics::Elastic => elastic_cost(spec.so),
    };
    (c.flops, c.bytes_streaming)
}

pub struct PlanProbe {
    pub build_s: f64,
    pub nodes: usize,
    pub edges: usize,
    pub dirty_cone_s: f64,
    pub dirty_nodes: usize,
}

/// The tile plan of the workload's wave-front shape, and the dirty cone of
/// nudging its first source by a fraction of a cell.
pub fn plan_probe(spec: &Spec, inp: &Inputs) -> PlanProbe {
    let d = domain(spec);
    let phases = if spec.physics == Physics::Elastic {
        2
    } else {
        1
    };
    let wf = execution(spec, &Variant::wavefront(spec.tile)).wavefront_spec(spec.radius(), phases);
    let t0 = Instant::now();
    let plan = TilePlan::wavefront(d.shape(), spec.nt * phases, &wf, spec.radius());
    let build_s = t0.elapsed().as_secs_f64();

    let footprint = |p: [f32; 3]| {
        let f = d.frac_index(p);
        let (x0, y0) = (f[0] as usize, f[1] as usize);
        DirtyRect {
            x0,
            x1: (x0 + 2).min(spec.n),
            y0,
            y1: (y0 + 2).min(spec.n),
        }
    };
    let old = first_source(spec, inp);
    let mut new = old;
    new[0] += NUDGE_CELLS * d.spacing()[0];
    let rects = [footprint(old), footprint(new)];
    let t0 = Instant::now();
    let dirty = dirty_cone(&plan, &rects);
    let dirty_cone_s = t0.elapsed().as_secs_f64();

    PlanProbe {
        build_s,
        nodes: plan.len(),
        edges: plan.preds.iter().map(Vec::len).sum(),
        dirty_cone_s,
        dirty_nodes: dirty.iter().filter(|d| **d).count(),
    }
}

/// Microseconds of one empty fork/join over the pool.
pub fn dispatch_us() -> f64 {
    const CALLS: usize = 2000;
    let n = threads();
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                for_each_index(Policy::Parallel, n, |i| {
                    black_box(i);
                });
            }
            t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    median(&samples)
}

/// Let the repository's tuner pick a wave-front tile for the workload's
/// physics and grid: its quick candidate set at the workload's temporal
/// height, each timed on a receiver-free solve one temporal tile long.
pub fn tune(spec: &Spec, inp: &Inputs) -> Tile {
    let short = Spec {
        nt: spec.tile.t.max(2),
        ..spec.clone()
    };
    let mut solver = build_solver(&short, inp, false, &mut Tracer::new(false));
    let candidates = quick_candidates(spec.n, spec.n, &[spec.tile.t]);
    // One untimed solve first: it pays the page faults of the fresh fields,
    // which would otherwise count against the first candidate.
    solver.run(&execution(&short, &Variant::wavefront(spec.tile)));
    let best = autotune(&candidates, |c| {
        let tile = Tile {
            x: c.tile_x,
            y: c.tile_y,
            t: c.tile_t,
        };
        let t0 = Instant::now();
        solver.run(&execution(&short, &Variant::wavefront(tile)));
        t0.elapsed()
    })
    .best;
    Tile {
        x: best.tile_x,
        y: best.tile_y,
        t: best.tile_t,
    }
}
