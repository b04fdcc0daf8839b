//! Isotropic acoustic wave propagator (paper §III-A).
//!
//! Discretises `m·∂²u/∂t² + η·∂u/∂t − Δu = δ(x_s)·q(t)` (squared slowness
//! `m = 1/c²`, sponge damping `η`) with a 2nd-order leap-frog in time and an
//! even-order star Laplacian in space (Fig. 2):
//!
//! `u⁺ = c1·u − c2·u⁻ + c3·(Δu + injected source)` with `c1 = 2/(1+η)`,
//! `c2 = (1−η)/(1+η)` and `c3 = dt²/(m·(1+η))`. Only `c3` is a per-point
//! volume: `c1` and `c2` depend on a point's distance to the nearest face
//! alone, so each pencil reads them from a `Sponge` `z` profile shared
//! with most other pencils, and the update streams one coefficient per
//! point.
//!
//! The ring keeps two levels, `u` and `u⁻`, and `u⁺` overwrites `u⁻` in
//! place: `u⁻` is read only at the point being written, so the update
//! streams four volumes (`u`, `u⁻`/`u⁺` as one read-modify-write line,
//! `c3`) and no write-allocate read.
//!
//! The same region-update kernel serves every schedule and every backend;
//! the sparse source / receiver work is either skipped (classic path,
//! applied between timesteps) or fused per pencil (Listing 5) — both
//! through the shared routines of [`crate::sources`].

use std::sync::{Arc, OnceLock};

use crate::config::SimConfig;
use crate::operator::{digest_values, Execution, KernelPath, SparseMode, WaveSolver};
use crate::shared::{count_step, weights, with_scratch, LevelRing, RingCheckpoint, Sponge};
use crate::sources::{classic_step, FusedPencil, ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_obs as obs;
use tempest_grid::{Array2, Array3, Model, Range3, Shape};
use tempest_sparse::SparsePoints;
use tempest_stencil::kernels::AxisWeights;
use tempest_stencil::metrics::acoustic_cost;
use tempest_stencil::simd::LANE;
use tempest_stencil::Backend;

/// `row(u, i0, lap)` fills `lap` with the Laplacian row of `u` that starts at
/// linear index `i0`.
type LaplacianRow<'a> = dyn Fn(&[f32], usize, &mut [f32]) + 'a;

/// The isotropic acoustic propagator.
pub struct Acoustic {
    cfg: SimConfig,
    ring: LevelRing,
    c3: Arc<Array3<f32>>,
    sponge: Arc<Sponge>,
    wx: Vec<f32>,
    wy: Vec<f32>,
    wz: Vec<f32>,
    center: f32,
    radius: usize,
    /// [`WaveSolver::coefficient_digest`], filled on first use and shared
    /// with every solver built from the same [`ShotAssets`].
    digest: Arc<OnceLock<u64>>,
    src: SourceBundle,
    /// Shared with every solver built from the same [`ShotAssets`].
    rec: Option<Arc<ReceiverBundle>>,
    trace: Option<TraceBuffer>,
}

/// Everything an acoustic shot solve needs that does *not* depend on the
/// source position: the leap-frog coefficients (the `c3` volume and the
/// sponge profiles), FD axis weights, the receiver gather precomputation, and
/// the shared Ricker wavelet samples. Built once per `(model, config,
/// receiver-set)` and reused across every shot of a survey batch — the
/// batch-level reuse rule of the survey engine (DESIGN.md §14). The
/// coefficients and the receiver bundle are shared, not copied, by every
/// solver built from the assets and by `Clone`; nothing re-runs a
/// precompute.
#[derive(Clone)]
pub struct ShotAssets {
    cfg: SimConfig,
    c3: Arc<Array3<f32>>,
    sponge: Arc<Sponge>,
    wx: Vec<f32>,
    wy: Vec<f32>,
    wz: Vec<f32>,
    center: f32,
    radius: usize,
    rec: Option<Arc<ReceiverBundle>>,
    /// Ricker samples at `cfg.f0` — one column of the per-shot wavelet
    /// matrix, shared so shots do not re-evaluate the transcendentals.
    ricker: Vec<f32>,
    /// Digest of the coefficient volumes and weights above, computed by the
    /// first cached solve that asks for it and never by an uncached one.
    digest: Arc<OnceLock<u64>>,
}

impl ShotAssets {
    /// Precompute the shot-independent assets for `model` under `cfg`, with
    /// an optional shared receiver set.
    pub fn new(model: &Model, cfg: SimConfig, receivers: Option<SparsePoints>) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        let h = cfg.domain.spacing();
        let awx = AxisWeights::second_derivative(cfg.space_order, h[0]);
        let awy = AxisWeights::second_derivative(cfg.space_order, h[1]);
        let awz = AxisWeights::second_derivative(cfg.space_order, h[2]);
        let center = awx.center + awy.center + awz.center;

        let sponge = Sponge::new(shape, cfg.nbl, cfg.damp_coeff);
        let c3 = Arc::new(sponge.c3(&model.m, cfg.dt));

        let rec = receivers.map(|r| Arc::new(ReceiverBundle::new(&cfg.domain, r)));
        let ricker = tempest_sparse::ricker(cfg.f0, cfg.dt, cfg.nt);
        ShotAssets {
            cfg,
            c3,
            sponge: Arc::new(sponge),
            wx: awx.side,
            wy: awy.side,
            wz: awz.side,
            center,
            radius,
            rec,
            ricker,
            digest: Arc::default(),
        }
    }

    /// The simulation configuration the assets were built for.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The shared receiver bundle, when receivers were attached.
    pub fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_deref()
    }

    /// The same assets without receivers, sharing these coefficients (and
    /// their digest) rather than building a second set.
    pub fn without_receivers(&self) -> Self {
        ShotAssets {
            cfg: self.cfg.clone(),
            c3: Arc::clone(&self.c3),
            sponge: Arc::clone(&self.sponge),
            wx: self.wx.clone(),
            wy: self.wy.clone(),
            wz: self.wz.clone(),
            center: self.center,
            radius: self.radius,
            rec: None,
            ricker: self.ricker.clone(),
            digest: Arc::clone(&self.digest),
        }
    }
}

impl Acoustic {
    /// Build a propagator over `model` with the given sources and optional
    /// receivers. Wavelets are Ricker at `cfg.f0`.
    pub fn new(
        model: &Model,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        Self::from_assets(&ShotAssets::new(model, cfg, receivers), sources)
    }

    /// Build a propagator from precomputed [`ShotAssets`], paying only the
    /// per-shot cost (source precompute + a fresh wavefield ring). Wavelets
    /// are the assets' shared Ricker — bitwise-identical to
    /// [`new`](Self::new) on the same inputs.
    pub fn from_assets(assets: &ShotAssets, sources: SparsePoints) -> Self {
        let wavelets =
            tempest_sparse::wavelet::wavelet_matrix(&assets.ricker, sources.len());
        let src = SourceBundle::new(&assets.cfg.domain, sources, wavelets);
        Self::from_assets_with_sources(assets, src)
    }

    /// Build from precomputed [`ShotAssets`] with a ready source bundle
    /// (`cfg.nt` wavelet rows) — the adjoint/RTM shape, whose sources may
    /// share the receivers' footprint ([`ReceiverBundle::adjoint_sources`]).
    pub fn from_assets_with_sources(assets: &ShotAssets, src: SourceBundle) -> Self {
        assert_eq!(
            src.wavelets.dims()[0],
            assets.cfg.nt,
            "one wavelet row per timestep"
        );
        let cfg = assets.cfg.clone();
        let rec = assets.rec.clone();
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        Acoustic {
            ring: LevelRing::new_lane_aligned(cfg.shape(), assets.radius, 2, LANE),
            cfg,
            c3: Arc::clone(&assets.c3),
            sponge: Arc::clone(&assets.sponge),
            wx: assets.wx.clone(),
            wy: assets.wy.clone(),
            wz: assets.wz.clone(),
            center: assets.center,
            radius: assets.radius,
            digest: Arc::clone(&assets.digest),
            src,
            rec,
            trace,
        }
    }

    /// Build a propagator whose sources fire explicit per-source wavelets
    /// (`wavelets[t][s]`, `cfg.nt` rows) instead of a shared Ricker — used
    /// by adjoint/RTM passes that re-inject recorded receiver data.
    pub fn new_with_wavelets(
        model: &Model,
        cfg: SimConfig,
        sources: SparsePoints,
        wavelets: Array2<f32>,
        receivers: Option<SparsePoints>,
    ) -> Self {
        let src = SourceBundle::new(&cfg.domain, sources, wavelets);
        Self::from_assets_with_sources(&ShotAssets::new(model, cfg, receivers), src)
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The Laplacian row of `backend` at compile-time radius `R`, as
    /// [`step_rows`](Self::step_rows) takes it.
    fn laplacian_r<const R: usize>(
        &self,
        backend: Backend,
    ) -> impl Fn(&[f32], usize, &mut [f32]) + '_ {
        let (wx, wy, wz) = (weights(&self.wx), weights(&self.wy), weights(&self.wz));
        let (sx, sy, center) = (self.ring.sx(), self.ring.sy(), self.center);
        move |u, i0, lap| backend.laplacian_row_r::<R>(u, i0, sx, sy, center, &wx, &wy, &wz, lap)
    }

    /// One stencil step over `region` — the only step body, for every
    /// backend and every radius: `laplacian` computes the row (a whole-row
    /// kernel of the vector backends, the per-point kernel in a loop under
    /// `Backend::Scalar`), and a slice-zipped leap-frog combine finishes the
    /// update. Every backend replays the per-point accumulation order, so the
    /// result is the same bit for bit whichever one runs.
    ///
    /// The row is a `dyn` call on purpose: one call per row costs nothing
    /// against the row, and it keeps the three backends' row bodies out of
    /// the pencil loop — inlined there (a generic parameter), their windows
    /// and bounds checks spill the loop's own induction variables and the
    /// whole step measured ~10 % slower.
    fn step_rows(
        &self,
        k: usize,
        region: &Range3,
        mode: SparseMode,
        backend: Backend,
        laplacian: &LaplacianRow,
    ) {
        count_step(region, backend);
        // SAFETY: the schedule guarantees level k+1 holds fully computed
        // values wherever the region's Laplacian reaches, and that nothing
        // else touches the region's pencils of the slot written (legality is
        // machine-checked in tempest-tiling and cross-validated bitwise).
        let u0 = unsafe { self.ring.level(k + 1) };
        let receivers = self.rec.as_deref().zip(self.trace.as_ref());
        let zs = region.z0..region.z1;
        let n = zs.len();
        with_scratch(n, |lap| {
            for x in region.x0..region.x1 {
                for y in region.y0..region.y1 {
                    let i0 = self.ring.idx(x, y, region.z0);
                    laplacian(u0, i0, lap);
                    // SAFETY: the same contract gives this call exclusive
                    // ownership of the region's pencils at level `k + 2`,
                    // which hold level `k` until the combine replaces them.
                    let un = unsafe { self.ring.pencil_mut(k + 2, x, y) };
                    let c3r = self.c3.pencil(x, y);
                    // Every row below is `n` long, so the loop carries no
                    // bounds checks and vectorizes.
                    let u0w = &u0[i0..i0 + n];
                    let c1w = &self.sponge.c1(x, y)[zs.clone()];
                    let c2w = &self.sponge.c2(x, y)[zs.clone()];
                    let (c3w, lapw, out) = (&c3r[zs.clone()], &lap[..n], &mut un[zs.clone()]);
                    for j in 0..n {
                        out[j] = c1w[j] * u0w[j] - c2w[j] * out[j] + c3w[j] * lapw[j];
                    }
                    if let Some(mut sparse) = FusedPencil::begin(mode, k, x, y, zs.clone()) {
                        sparse.inject(&self.src, |z, amp| un[z] += c3r[z] * amp);
                        sparse.gather(receivers, &un[zs.clone()]);
                    }
                }
            }
        });
    }

    /// Run the simulation while recording interior wavefield snapshots
    /// every `every` timesteps (snapshot `s` holds the field after step
    /// `s·every`). This is the forward pass of reverse-time migration
    /// (RTM, ref. \[52\] in the paper): the stored history is cross-correlated
    /// with a backward-propagated receiver wavefield.
    ///
    /// Runs as [`run_range`](Self::run_range) segments of `every` steps under
    /// any schedule: a snapshot needs one consistent time level across the
    /// grid, and every segment ends flat.
    pub fn run_recording(&mut self, exec: &Execution, every: usize) -> Vec<Array3<f32>> {
        assert!(every >= 1);
        let nt = self.cfg.nt;
        let mut snaps = Vec::with_capacity(nt / every + 1);
        let mut k = 0;
        loop {
            let k1 = (k + every).min(nt);
            self.run_range(exec, k, k1);
            if k1 - k == every {
                snaps.push(self.field_after(k1 - 1));
            }
            if k1 == nt {
                return snaps;
            }
            k = k1;
        }
    }

    /// Advance timesteps `[k0, k1)` as one plan segment under `exec`'s
    /// schedule. `k0 == 0` resets state first; `k0 > 0` continues from
    /// wherever a previous `run_range` left the ring, so a full run
    /// decomposes exactly: `run_range(0, s)` + `run_range(s, nt)` is
    /// bit-for-bit `run_range(0, nt)`, even where `s` cuts a time tile.
    ///
    /// Together with [`checkpoint`](Self::checkpoint) /
    /// [`restore_checkpoint`](Self::restore_checkpoint) this is the
    /// checkpointed-restart primitive of RTM-style adjoint loops: snapshot
    /// the ring at step `s`, and later re-materialise `[s, nt)` instead of
    /// storing every intermediate wavefield.
    pub fn run_range(&mut self, exec: &Execution, k0: usize, k1: usize) {
        assert!(k0 <= k1 && k1 <= self.cfg.nt, "step range out of bounds");
        crate::runpath::solve(self, exec, k0..k1, None);
    }

    /// Bitwise checkpoint of the wavefield ring, taken while quiescent
    /// (between [`run_range`](Self::run_range) segments). Covers the ring
    /// only: receiver traces keep accumulating, so a restore-and-replay of
    /// recorded steps would add their trace contributions twice.
    pub fn checkpoint(&mut self) -> RingCheckpoint {
        self.ring.checkpoint()
    }

    /// Restore a [`checkpoint`](Self::checkpoint) taken on this propagator —
    /// or on any propagator of identical ring geometry (same shape, radius
    /// and alignment), which is how checkpointed RTM re-materialises forward
    /// state on a receiver-free twin without double-accumulating traces.
    pub fn restore_checkpoint(&mut self, cp: &RingCheckpoint) {
        self.ring.restore(cp);
    }

    /// Interior copy of the wavefield after timestep `k` (ring level
    /// `k + 2`), taken while quiescent between [`run_range`](Self::run_range)
    /// segments. Bitwise-identical to the snapshot
    /// [`run_recording`](Self::run_recording) would have stored at the same
    /// step, so segment-wise stepping can reproduce a recorded history
    /// exactly.
    pub fn field_after(&mut self, k: usize) -> Array3<f32> {
        self.ring.interior_copy(k + 2)
    }
}

impl WaveSolver for Acoustic {
    fn name(&self) -> &'static str {
        "acoustic"
    }

    fn shape(&self) -> Shape {
        self.cfg.shape()
    }

    fn num_timesteps(&self) -> usize {
        self.cfg.nt
    }

    fn space_order(&self) -> usize {
        self.cfg.space_order
    }

    fn radius(&self) -> usize {
        self.radius
    }

    fn phases(&self) -> usize {
        1
    }

    fn reset(&mut self) {
        self.ring.clear();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Compute timestep `k` (writing level `k + 2`) for `region`. The
    /// `KernelPath` is resolved to a concrete backend here (a cached
    /// lookup), so every schedule picks up the same dispatch decision; the
    /// radius picks the Laplacian row handed to the one step body.
    fn step_region(&self, k: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        let _sp = obs::span(obs::SpanKind::Stencil, obs::SpanArgs::step(k));
        let backend = kernel.resolve();
        let step = |laplacian: &LaplacianRow| self.step_rows(k, region, mode, backend, laplacian);
        match self.radius {
            1 => step(&self.laplacian_r::<1>(backend)),
            2 => step(&self.laplacian_r::<2>(backend)),
            3 => step(&self.laplacian_r::<3>(backend)),
            4 => step(&self.laplacian_r::<4>(backend)),
            6 => step(&self.laplacian_r::<6>(backend)),
            8 => step(&self.laplacian_r::<8>(backend)),
            // Space orders without a monomorphised kernel.
            _ => {
                let (sx, sy, center) = (self.ring.sx(), self.ring.sy(), self.center);
                step(&|u, i0, lap| {
                    backend.laplacian_row(u, i0, sx, sy, center, &self.wx, &self.wy, &self.wz, lap)
                })
            }
        }
    }

    fn classic_after_step(&self, k: usize) {
        classic_step(
            k,
            &self.src,
            self.rec.as_deref().zip(self.trace.as_ref()),
            // SAFETY: runs on one thread between sweeps, so nothing else
            // touches the freshly computed level `k + 2`.
            |c, amp| unsafe {
                self.ring.pencil_mut(k + 2, c[0], c[1])[c[2]] += self.c3.get(c[0], c[1], c[2]) * amp
            },
            |c| unsafe { self.ring.level(k + 2)[self.ring.idx(c[0], c[1], c[2])] },
        );
    }

    fn written(&self, k: usize) -> Vec<(&LevelRing, usize)> {
        vec![(&self.ring, k + 2)]
    }

    fn gathered(&self, _k: usize) -> Option<usize> {
        Some(0)
    }

    /// `u` one step back, `u⁻` — read in place — two.
    fn read_distance(&self) -> usize {
        2
    }

    fn coefficients(&self) -> Vec<&[f32]> {
        let [c1, c2] = self.sponge.leapfrog_profiles();
        vec![
            c1,
            c2,
            self.c3.as_slice(),
            &self.wx,
            &self.wy,
            &self.wz,
            std::slice::from_ref(&self.center),
        ]
    }

    fn coefficient_digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| digest_values(&self.coefficients()))
    }

    fn sources(&self) -> &SourceBundle {
        &self.src
    }

    fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_deref()
    }

    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    fn final_field(&mut self) -> Array3<f32> {
        let t = self.cfg.nt + 1;
        self.ring.interior_copy(t)
    }

    fn flops_per_point(&self) -> f64 {
        acoustic_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use tempest_grid::Domain;

    fn small_setup(so: usize, nt: usize) -> Acoustic {
        let domain = Domain::uniform(Shape::cube(24), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, 2000.0, 100.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 5, 0.25);
        Acoustic::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn wave_propagates_and_stays_stable() {
        let mut a = small_setup(4, 30);
        a.run(&Execution::baseline());
        let f = a.final_field();
        let m = f.max_abs();
        assert!(m > 0.0, "wavefield must be excited");
        assert!(m.is_finite() && m < 1e6, "CFL-stable run must stay bounded");
        // The trace records a non-trivial signal.
        let tr = a.trace().unwrap();
        let tmax = tr.as_slice().iter().fold(0.0f32, |s, &v| s.max(v.abs()));
        assert!(tmax > 0.0);
    }

    #[test]
    fn damping_reduces_boundary_energy() {
        let domain = Domain::uniform(Shape::cube(20), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let mk = |damp: f32| {
            let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 100.0)
                .with_nt(60)
                .with_f0(30.0)
                .with_boundary(if damp > 0.0 { 6 } else { 0 }, damp);
            Acoustic::new(
                &model,
                cfg,
                SparsePoints::single_center(&domain, 0.3),
                None,
            )
        };
        let mut free = mk(0.0);
        free.run(&Execution::baseline().sequential());
        let e_free = free.final_field().norm_l2();
        let mut damped = mk(0.5);
        damped.run(&Execution::baseline().sequential());
        let e_damped = damped.final_field().norm_l2();
        assert!(
            e_damped < e_free,
            "sponge must absorb energy: {e_damped} !< {e_free}"
        );
    }

    #[test]
    fn repeated_runs_are_reproducible() {
        let mut a = small_setup(4, 10);
        let e = Execution::baseline().sequential();
        a.run(&e);
        let f1 = a.final_field();
        a.run(&e);
        let f2 = a.final_field();
        assert!(f1.bit_equal(&f2), "run() must reset state");
    }

    #[test]
    fn run_recording_snapshots_are_consistent() {
        let mut a = small_setup(4, 12);
        let snaps = a.run_recording(&Execution::baseline().sequential(), 3);
        assert_eq!(snaps.len(), 4, "12 steps / every 3");
        // Last snapshot is the final field.
        let final_field = a.final_field();
        assert!(snaps[3].bit_equal(&final_field));
        // Snapshots differ over time (the wave moves).
        assert!(snaps[0].max_abs_diff(&snaps[3]) > 0.0);
        // And a plain run reproduces the same final state.
        a.run(&Execution::baseline().sequential());
        assert!(a.final_field().bit_equal(&final_field));
    }

    #[test]
    fn coefficient_digest_is_shared_by_solvers_of_one_assets() {
        let domain = Domain::uniform(Shape::cube(12), 10.0);
        let model = Model::two_layer(domain, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2800.0, 20.0)
            .with_nt(4)
            .with_boundary(2, 0.3);
        let src = |frac| SparsePoints::single_center(&domain, frac);
        let assets = ShotAssets::new(&model, cfg.clone(), None);
        let a = Acoustic::from_assets(&assets, src(0.2));
        let b = Acoustic::from_assets(&assets, src(0.7));
        assert!(
            assets.digest.get().is_none(),
            "building solvers must not walk the volumes"
        );
        // The first solver asked fills the one cell all of them read.
        let digest = a.coefficient_digest();
        assert_eq!(assets.digest.get(), Some(&digest));
        assert!(Arc::ptr_eq(&a.digest, &b.digest));
        assert_eq!(b.coefficient_digest(), digest);
        // It is the default walk, whichever constructor built the solver,
        // and it tells models apart.
        assert_eq!(digest, digest_values(&a.coefficients()));
        let fresh = Acoustic::new(&model, cfg.clone(), src(0.2), None);
        assert_eq!(fresh.coefficient_digest(), digest);
        let other = Acoustic::new(
            &Model::two_layer(domain, 1600.0, 2801.0, 0.5),
            cfg,
            src(0.2),
            None,
        );
        assert_ne!(other.coefficient_digest(), digest);
    }

    #[test]
    fn solvers_of_one_assets_share_the_coefficients() {
        let domain = Domain::uniform(Shape::cube(12), 10.0);
        let model = Model::two_layer(domain, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2800.0, 20.0)
            .with_nt(4)
            .with_boundary(2, 0.3);
        let src = |frac| SparsePoints::single_center(&domain, frac);
        let rec = SparsePoints::receiver_line(&domain, 3, 0.3);
        let assets = ShotAssets::new(&model, cfg, Some(rec));
        let norec = assets.without_receivers();
        assert!(norec.receivers().is_none() && assets.receivers().is_some());
        let a = Acoustic::from_assets(&assets, src(0.2));
        let b = Acoustic::from_assets(&assets, src(0.7));
        let c = Acoustic::from_assets(&norec, src(0.2));
        for s in [&b, &c] {
            assert!(Arc::ptr_eq(&a.c3, &s.c3), "one c3 volume");
            assert!(Arc::ptr_eq(&a.sponge, &s.sponge), "one sponge");
            assert!(Arc::ptr_eq(&a.digest, &s.digest), "one digest cell");
        }
        let bundle = assets.rec.as_ref().expect("receivers attached");
        for s in [&a, &b] {
            let rec = s.rec.as_ref().expect("the assets' receivers");
            assert!(Arc::ptr_eq(bundle, rec), "one receiver bundle");
        }
        assert!(c.rec.is_none());
    }

    #[test]
    fn custom_wavelets_equal_ricker_when_identical() {
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 40.0)
            .with_nt(10)
            .with_f0(25.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut a = Acoustic::new(&model, cfg.clone(), src.clone(), None);
        a.run(&Execution::baseline().sequential());
        let fa = a.final_field();
        // Same wavelet supplied explicitly.
        let wl = tempest_sparse::ricker(25.0, cfg.dt, 10);
        let wm = tempest_sparse::wavelet::wavelet_matrix(&wl, 1);
        let mut b = Acoustic::new_with_wavelets(&model, cfg, src, wm, None);
        b.run(&Execution::baseline().sequential());
        assert!(fa.bit_equal(&b.final_field()));
    }

}
