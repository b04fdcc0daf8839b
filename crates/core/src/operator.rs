//! The high-level execution API: which schedule, which sparse-operator
//! path, how parallel — and the throughput statistics of a run (the
//! GPoints/s metric of the paper's Fig. 9).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::Duration;

use crate::runpath::IncrementalReport;
use crate::shared::LevelRing;
use crate::sources::{ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_grid::{Array2, Array3, Range3, Shape};
use tempest_obs as obs;
use tempest_par::Policy;
use tempest_stencil::Backend;
use tempest_tiling::{TileCache, TilePlan, WavefrontSpec};

/// How the off-grid sparse operators execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseMode {
    /// Per-timestep non-affine loops after the dense sweep (Listing 1).
    /// Only legal under [`Schedule::SpaceBlocked`]: its plan runs one
    /// timestep per segment, so the loops run between segments, when the
    /// whole grid sits at the same step. Under temporal blocking no such
    /// moment exists inside a tile row, and they would inject/measure at
    /// wrong space-time coordinates (Fig. 4b).
    Classic,
    /// Precomputed, grid-aligned, fused into the loop nest over the
    /// compressed `nnz_mask` / `Sp_SID` iteration space (Listing 5) — the
    /// paper's recommended configuration.
    FusedCompressed,
}

/// Which dense-kernel backend computes the stencil updates.
///
/// All backends are bitwise-identical by construction (asserted by the
/// kernel-equivalence and kernel-backends test suites): each one replicates
/// the scalar per-point accumulation order exactly — no reassociation, no
/// FMA contraction — so the selector changes throughput, never a single
/// output bit. Override precedence when a run starts: an explicit variant
/// here (the `--kernel` flag) beats the `TEMPEST_KERNEL` environment
/// variable, which beats CPU-feature detection; see
/// `tempest_stencil::backend` for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Runtime dispatch (the default): `TEMPEST_KERNEL` if set and
    /// runnable, else the best detected backend (AVX2 where available,
    /// portable otherwise).
    #[default]
    Auto,
    /// Per-point kernels (`tempest_stencil::kernels`): one bounds-checked
    /// call per grid point, vectorisation left to the compiler.
    Scalar,
    /// Whole-row vector bodies at four lanes (`__m128` on x86-64, where SSE2
    /// is baseline; `[f32; 4]` elsewhere): every offset window checked once
    /// per row, then one lane register per step.
    Portable,
    /// The same bodies at `__m256` through AVX2 `target_feature` entries:
    /// unaligned 256-bit loads, unfused multiply-add. Falls back to the
    /// detected best backend on hosts without AVX2.
    Avx2,
}

impl KernelPath {
    /// Resolve this selection to a concrete runnable backend, applying the
    /// documented precedence. `Auto` consults the process-wide dispatcher
    /// (`TEMPEST_KERNEL`, then CPU detection); a concrete variant is
    /// honoured when the host can run it and falls back to the detected
    /// best otherwise (never panics, never selects an unrunnable backend).
    pub fn resolve(self) -> Backend {
        match self {
            KernelPath::Auto => tempest_stencil::backend::default_backend(),
            KernelPath::Scalar => Backend::Scalar,
            KernelPath::Portable => Backend::Portable,
            KernelPath::Avx2 => {
                if Backend::Avx2.available() {
                    Backend::Avx2
                } else {
                    tempest_stencil::backend::detect_best()
                }
            }
        }
    }

    /// Parse a `--kernel` / `TEMPEST_KERNEL`-style name. Accepts the
    /// backend names (`scalar`, `portable`, `avx2`) and `auto`; rejects
    /// anything else.
    pub fn parse(name: &str) -> Option<KernelPath> {
        let s = name.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Some(KernelPath::Auto);
        }
        Backend::parse(s).map(KernelPath::from)
    }

    /// Stable lowercase label (`auto`, `scalar`, `portable`, `avx2`).
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Auto => "auto",
            KernelPath::Scalar => "scalar",
            KernelPath::Portable => "portable",
            KernelPath::Avx2 => "avx2",
        }
    }
}

impl From<Backend> for KernelPath {
    fn from(b: Backend) -> Self {
        match b {
            Backend::Scalar => KernelPath::Scalar,
            Backend::Portable => KernelPath::Portable,
            Backend::Avx2 => KernelPath::Avx2,
        }
    }
}

/// Record which backend serves a starting run: exactly one
/// `Counter::Backend*` bump per `run`/`run_recording`/`run_range` entry
/// (no-op without the `obs` feature). Called after resolving
/// `Execution::kernel`, so `Auto` runs record the backend they actually
/// dispatched to — the "which backend am I running?" signal.
pub(crate) fn record_backend_run(b: Backend) {
    obs::add(
        match b {
            Backend::Scalar => obs::Counter::BackendScalar,
            Backend::Portable => obs::Counter::BackendPortable,
            Backend::Avx2 => obs::Counter::BackendAvx2,
        },
        1,
    );
}

/// Which loop schedule traverses the space-time domain: the paper's
/// baseline and the paper's contribution, one plan constructor each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Per-timestep spatial blocking (the baseline of Fig. 9).
    SpaceBlocked {
        /// Block extent along x.
        block_x: usize,
        /// Block extent along y.
        block_y: usize,
    },
    /// Wave-front temporal blocking (§II.B): skewed parallelogram tiles run
    /// as a dependency-driven (dataflow) plan — each space-time tile carries
    /// an atomic counter of its true predecessors and workers steal
    /// freshly-ready tiles from per-worker deques, with one join per sweep
    /// as the only barrier. `tile_t` is in *timesteps* (multi-phase
    /// propagators convert to virtual steps internally); the skew is the
    /// propagator's dependency radius. Soundness of the plan is certified
    /// by `tempest_tiling::legality::check_plan`.
    WavefrontDataflow {
        /// Spatial tile extent along x (Table I `tile_x`).
        tile_x: usize,
        /// Spatial tile extent along y (Table I `tile_y`).
        tile_y: usize,
        /// Temporal tile height in timesteps.
        tile_t: usize,
        /// Intra-slab block extent along x (Table I `block_x`).
        block_x: usize,
        /// Intra-slab block extent along y (Table I `block_y`).
        block_y: usize,
    },
}

/// A complete execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The loop schedule.
    pub schedule: Schedule,
    /// The sparse-operator path.
    pub sparse: SparseMode,
    /// Thread policy for independent blocks.
    pub policy: Policy,
    /// The dense-kernel backend selection (resolved to a concrete backend
    /// when the run starts; `Auto` = runtime dispatch).
    pub kernel: KernelPath,
}

impl Execution {
    /// The paper's baseline: spatially blocked, vectorised, classic sparse
    /// operators between timesteps.
    pub fn baseline() -> Self {
        Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::Classic,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Wave-front temporal blocking at a moderate temporal height. The
    /// paper's most common tuned spatial tile is 64×64 (Table I, 512³
    /// grids); on the example grids here (96³–128³) that leaves ≤ 3 tiles
    /// per axis — fewer ready tiles than threads — so the default is the
    /// 16×16 tile measured fastest on those grids for all three propagators
    /// (CHANGES.md, PR 12).
    pub fn wavefront_default() -> Self {
        Execution {
            schedule: Schedule::WavefrontDataflow {
                tile_x: 16,
                tile_y: 16,
                tile_t: 8,
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Force sequential execution (reproducible timings on shared machines).
    pub fn sequential(mut self) -> Self {
        self.policy = Policy::Sequential;
        self
    }

    /// Select the scalar per-point kernels (the reference path, kept for
    /// ablation and equivalence testing).
    pub fn scalar_kernels(mut self) -> Self {
        self.kernel = KernelPath::Scalar;
        self
    }

    /// Select an explicit kernel backend (or `Auto` for runtime dispatch).
    pub fn with_kernel(mut self, kernel: KernelPath) -> Self {
        self.kernel = kernel;
        self
    }

    /// Convert to the tiling crate's spec given a per-virtual-step skew and
    /// phase count. Panics if the schedule is not the wave-front one.
    pub fn wavefront_spec(&self, skew: usize, phases: usize) -> WavefrontSpec {
        match self.schedule {
            Schedule::WavefrontDataflow {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            } => WavefrontSpec::new(
                tile_x,
                tile_y,
                (tile_t * phases).max(1),
                skew,
                block_x,
                block_y,
            ),
            Schedule::SpaceBlocked { .. } => panic!("not a wavefront schedule"),
        }
    }

    /// The schedule's tile plan of `nt` timesteps of a solver on `shape`
    /// with dependency radius `radius` and `phases` virtual steps per
    /// timestep.
    pub fn plan(&self, shape: Shape, nt: usize, radius: usize, phases: usize) -> TilePlan {
        let nvt = nt * phases;
        match self.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => {
                TilePlan::spaceblocked(shape, nvt, block_x, block_y, radius)
            }
            Schedule::WavefrontDataflow { .. } => {
                TilePlan::wavefront(shape, nvt, &self.wavefront_spec(radius, phases), radius)
            }
        }
    }

    /// Short human label of the schedule, used in profile reports.
    pub fn schedule_label(&self) -> String {
        match self.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => {
                format!("spaceblocked {block_x}x{block_y}")
            }
            Schedule::WavefrontDataflow {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            } => format!("wavefront-dflow {tile_x}x{tile_y} t{tile_t} / {block_x}x{block_y}"),
        }
    }

    /// Check schedule/sparse compatibility; panics on the Fig. 4b hazard.
    pub fn validate(&self) {
        if !matches!(self.schedule, Schedule::SpaceBlocked { .. })
            && self.sparse == SparseMode::Classic
        {
            panic!(
                "classic (per-timestep) sparse operators are illegal under wave-front \
                 temporal blocking: source injection would precede/miss stencil updates \
                 of blocks at different timesteps (paper Fig. 4b). Use \
                 SparseMode::FusedCompressed (the precomputation scheme of §II.A)."
            );
        }
    }
}

/// Timing and throughput of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Wall-clock time of the time loop (excludes setup/precompute).
    pub elapsed: Duration,
    /// Timesteps executed.
    pub nt: usize,
    /// Grid points per timestep.
    pub grid_points: usize,
    /// Throughput in giga point-updates per second (Fig. 9's metric).
    pub gpoints_per_s: f64,
}

impl RunStats {
    /// Compute throughput from a measured run.
    pub fn new(elapsed: Duration, nt: usize, shape: Shape) -> Self {
        let updates = (nt as f64) * (shape.len() as f64);
        let secs = elapsed.as_secs_f64().max(1e-12);
        RunStats {
            elapsed,
            nt,
            grid_points: shape.len(),
            gpoints_per_s: updates / secs / 1e9,
        }
    }

    /// Achieved GFLOP/s given a per-point-update FLOP count.
    pub fn gflops(&self, flops_per_point: f64) -> f64 {
        self.gpoints_per_s * flops_per_point
    }
}

/// Digest of a list of value vectors, bit for bit and length-delimited.
pub fn digest_values(volumes: &[&[f32]]) -> u64 {
    let mut h = DefaultHasher::new();
    for values in volumes {
        h.write_usize(values.len());
        for &v in *values {
            h.write_u32(v.to_bits());
        }
    }
    h.finish()
}

/// Common interface of the three wave propagators.
///
/// A propagator supplies its kernels and says where its wavefields live;
/// the schedule dispatch, the plan executor wiring and the per-tile result
/// cache are the provided [`run`](Self::run) and
/// [`run_incremental`](Self::run_incremental), shared by all three
/// (`crate::runpath`).
pub trait WaveSolver: Sync {
    /// Propagator name ("acoustic", "tti", "elastic").
    fn name(&self) -> &'static str;

    /// Grid shape.
    fn shape(&self) -> Shape;

    /// Number of timesteps.
    fn num_timesteps(&self) -> usize;

    /// Space order of the discretisation.
    fn space_order(&self) -> usize;

    /// Dependency radius per virtual step — the wave-front skew.
    fn radius(&self) -> usize;

    /// Virtual steps per timestep: 1, or 2 for the staggered
    /// velocity–stress update whose second phase reads the first (Fig. 8b).
    fn phases(&self) -> usize;

    /// Zero every wavefield level and the receiver traces.
    fn reset(&mut self);

    /// Compute virtual step `vt` for `region`, with the fused sparse work of
    /// `mode` (none under [`SparseMode::Classic`]).
    ///
    /// The caller is a legal schedule: concurrent calls write disjoint
    /// regions of the step's own level and read settled older levels.
    fn step_region(&self, vt: usize, region: &Range3, mode: SparseMode, kernel: KernelPath);

    /// The classic per-timestep sparse operators (Listing 1) of timestep
    /// `k`, run on one thread after every region of that timestep was
    /// stepped: between the one-timestep segments of the space-blocked
    /// plan, the only schedule that may call this (Fig. 4b).
    fn classic_after_step(&self, k: usize);

    /// The rings virtual step `vt` writes, each with the level written, in
    /// a fixed order — what a cached tile must hold to stand in for the
    /// step.
    fn written(&self, vt: usize) -> Vec<(&LevelRing, usize)>;

    /// Index into [`written(vt)`](Self::written) of the ring receivers
    /// gather from at `vt`; `None` for a phase they do not observe.
    fn gathered(&self, vt: usize) -> Option<usize>;

    /// How far back, in virtual steps, a step reads: the step at `vt` reads
    /// only values the steps `vt − read_distance()..vt` wrote. It comes from
    /// the step body, not from the ring depth: a step that overwrites its
    /// oldest level in place reads one step further back than its rings
    /// keep levels.
    fn read_distance(&self) -> usize;

    /// Every per-point parameter volume and stencil weight vector the
    /// update reads: with the sparse layout, what decides the wavefield bit
    /// for bit.
    fn coefficients(&self) -> Vec<&[f32]>;

    /// Digest of [`coefficients`](Self::coefficients) — the model's share
    /// of a tile-cache session key. Walking every value is the default;
    /// a propagator whose volumes are shared between solvers may compute it
    /// once for all of them.
    fn coefficient_digest(&self) -> u64 {
        digest_values(&self.coefficients())
    }

    /// The source bundle.
    fn sources(&self) -> &SourceBundle;

    /// The receiver bundle, when receivers were attached.
    fn receivers(&self) -> Option<&ReceiverBundle>;

    /// The buffer fused and classic gathers accumulate into.
    fn trace_buffer(&self) -> Option<&TraceBuffer>;

    /// Run the full simulation (resets state first) and return throughput.
    fn run(&mut self, exec: &Execution) -> RunStats {
        crate::runpath::solve(self, exec, 0..self.num_timesteps(), None).stats
    }

    /// Run the simulation incrementally against `cache`: diff the sparse
    /// layout against the cache's last completed run of the same session,
    /// mark the delta's light cone over the tile plan, restore every clean
    /// cached tile (its gathers always, its wavefield where something reads
    /// it) and recompute only the rest. The result — wavefield *and*
    /// traces — is bitwise-identical to a cold full run at any thread cap;
    /// only the work differs.
    ///
    /// `shot_key` distinguishes otherwise-identical solves sharing one cache
    /// (e.g. the survey engine passes the shot index). `SparseMode::Classic`
    /// is mapped to `FusedCompressed` (bitwise-identical wavefield; classic
    /// per-timestep operators have no per-tile identity to cache). With the
    /// cache disabled (`TEMPEST_CACHE_MB=0`) this is exactly
    /// [`run`](Self::run), bit-for-bit pre-cache behaviour.
    fn run_incremental(
        &mut self,
        exec: &Execution,
        cache: &TileCache,
        shot_key: u64,
    ) -> IncrementalReport {
        if !cache.enabled() {
            return crate::runpath::solve(self, exec, 0..self.num_timesteps(), None);
        }
        let mut ex = *exec;
        if ex.sparse == SparseMode::Classic {
            ex.sparse = SparseMode::FusedCompressed;
        }
        crate::runpath::solve(self, &ex, 0..self.num_timesteps(), Some((cache, shot_key)))
    }

    /// Run with telemetry: resets the recording, runs, and returns the
    /// run's [`obs::Profile`] — counters, span times and, with event
    /// capture on (`TEMPEST_TRACE` / `obs::trace::set_enabled`), its events
    /// as `profile.trace` — alongside the stats plus a [`obs::RunMeta`]
    /// ready for rendering/serialisation. With the `obs` feature off (or
    /// recording off) the profile is empty and the run costs the same as
    /// [`run`](Self::run).
    fn run_profiled(&mut self, exec: &Execution) -> (RunStats, obs::Profile, obs::RunMeta) {
        obs::reset();
        let stats = self.run(exec);
        let profile = obs::snapshot();
        let meta = obs::RunMeta::new(
            &format!("{}-so{}", self.name(), self.space_order()),
            &exec.schedule_label(),
            stats.nt,
            stats.grid_points as u64,
            stats.elapsed.as_secs_f64(),
        );
        (stats, profile, meta)
    }

    /// Snapshot of the representative final wavefield (pressure for
    /// acoustic/TTI, vz for elastic) — the object equivalence tests compare.
    fn final_field(&mut self) -> Array3<f32>;

    /// Receiver data recorded by the last run, if receivers were attached.
    fn trace(&self) -> Option<Array2<f32>> {
        self.trace_buffer().map(TraceBuffer::to_array)
    }

    /// FLOPs per point-update (roofline model input).
    fn flops_per_point(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_spaceblocked_classic() {
        let e = Execution::baseline();
        assert!(matches!(e.schedule, Schedule::SpaceBlocked { .. }));
        assert_eq!(e.sparse, SparseMode::Classic);
        e.validate();
    }

    #[test]
    fn wavefront_default_is_fused_compressed() {
        let e = Execution::wavefront_default();
        assert_eq!(e.sparse, SparseMode::FusedCompressed);
        e.validate();
        let spec = e.wavefront_spec(2, 1);
        assert_eq!(spec.skew, 2);
        assert_eq!(spec.tile_t, 8);
        // Two-phase propagators double the virtual tile height.
        assert_eq!(e.wavefront_spec(4, 2).tile_t, 16);
        assert_eq!(e.schedule_label(), "wavefront-dflow 16x16 t8 / 8x8");
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_under_wavefront_is_rejected() {
        let mut e = Execution::wavefront_default();
        e.sparse = SparseMode::Classic;
        e.validate();
    }

    #[test]
    fn stats_throughput() {
        let s = RunStats::new(Duration::from_secs(2), 100, Shape::cube(100));
        // 100 steps × 1e6 points / 2 s = 5e7 pts/s = 0.05 GPts/s
        assert!((s.gpoints_per_s - 0.05).abs() < 1e-9);
        assert!((s.gflops(40.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_override() {
        let e = Execution::baseline().sequential();
        assert_eq!(e.policy, Policy::Sequential);
    }

    #[test]
    #[should_panic(expected = "not a wavefront")]
    fn spec_conversion_checks_kind() {
        let _ = Execution::baseline().wavefront_spec(1, 1);
    }

    /// Acoustic, TTI and elastic solvers on one small grid under the
    /// absorbing layer `(nbl, damp_coeff)`.
    fn solvers(nbl: usize, damp_coeff: f32) -> [Box<dyn WaveSolver>; 3] {
        use crate::config::{EquationKind, SimConfig};
        use crate::{Acoustic, Elastic, Tti};
        use tempest_grid::{Domain, ElasticModel, Model, TtiModel};
        use tempest_sparse::SparsePoints;

        let d = Domain::uniform(Shape::new(14, 11, 13), 10.0);
        let cfg = |kind| {
            SimConfig::new(d, 4, kind, 4000.0, 10.0)
                .with_nt(2)
                .with_boundary(nbl, damp_coeff)
        };
        let src = || SparsePoints::single_center(&d, 0.5);
        [
            Box::new(Acoustic::new(
                &Model::random(d, 1500.0, 4000.0, 3),
                cfg(EquationKind::Acoustic),
                src(),
                None,
            )),
            Box::new(Tti::new(
                &TtiModel::random(d, 1500.0, 4000.0, 3),
                cfg(EquationKind::Tti),
                src(),
                None,
            )),
            Box::new(Elastic::new(
                &ElasticModel::random(d, 1500.0, 4000.0, 3),
                cfg(EquationKind::Elastic),
                src(),
                None,
            )),
        ]
    }

    #[test]
    fn cost_models_count_the_streamed_parameter_volumes() {
        use tempest_stencil::metrics::{acoustic_cost, elastic_cost, tti_cost};
        let costs = [acoustic_cost(4), tti_cost(4), elastic_cost(4)];
        for (s, cost) in solvers(3, 0.3).iter().zip(costs) {
            let volumes = s
                .coefficients()
                .iter()
                .filter(|c| c.len() == s.shape().len())
                .count();
            assert_eq!(cost.params, volumes, "{}", s.name());
        }
    }

    #[test]
    fn damping_reaches_the_coefficient_digest() {
        // The tile cache's session key sees the sponge only through the
        // digest: a different layer must never hit another's tiles.
        let digests = |nbl, coeff| solvers(nbl, coeff).map(|s| s.coefficient_digest());
        let base = digests(3, 0.3);
        for other in [digests(4, 0.3), digests(3, 0.35)] {
            for (a, b) in base.iter().zip(other) {
                assert_ne!(*a, b);
            }
        }
        assert_eq!(digests(3, 0.3), base);
    }

    #[test]
    fn memoised_digests_equal_the_coefficient_walk() {
        // Every propagator memoises its digest; the memo must be the walk
        // the default method does, on the first call and on every later one.
        for s in solvers(3, 0.3) {
            let walk = digest_values(&s.coefficients());
            assert_eq!(s.coefficient_digest(), walk, "{}", s.name());
            assert_eq!(s.coefficient_digest(), walk, "{}", s.name());
        }
    }
}
