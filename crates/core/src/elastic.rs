//! Isotropic elastic wave propagator (paper §III-C).
//!
//! First-order velocity–stress formulation on a staggered grid (Virieux):
//!
//! ```text
//! ρ·∂v/∂t = ∇·τ
//! ∂τ/∂t   = λ·tr(∇v)·I + μ·(∇v + ∇vᵀ)
//! ```
//!
//! Nine coupled wavefields (3 particle velocities + 6 stress components) —
//! "this equation … increases the data movement drastically (one or two
//! versus nine state parameters)". Each timestep has **two phases**: the
//! velocity update reads the previous stresses, then the stress update reads
//! the *freshly computed* velocities. Under wave-front temporal blocking
//! each phase becomes its own virtual step, which shifts the wave-front
//! angle exactly as the paper's Fig. 8b prescribes for multi-grid stencils
//! with intra-timestep dependencies.
//!
//! Being first order in time, each field keeps one level and is updated in
//! place: `v[t+1]` overwrites `v[t]` and `τ[t+1]` overwrites `τ[t]`, each
//! read only at the point being written, through the pencil the update
//! writes. The stencils read the *other* phase's fields — the paper uses
//! elastic to "demonstrate that the benefits of time-blocking … are not
//! limited to a single pattern along the time dimension".
//!
//! Three per-point parameter volumes stream with the fields: `dt·λ`, `dt·μ`
//! and `dt/ρ` (`2·dt·μ` is formed in the loop, exactly). The sponge
//! multiplier `1 − η` depends on a point's distance to the nearest face
//! alone, so each pencil reads it from a `Sponge` `z` profile.

use crate::config::SimConfig;
use crate::operator::{KernelPath, SparseMode, WaveSolver};
use crate::shared::{count_step, weights, with_scratch, LevelRing, Sponge};
use crate::sources::{classic_step, FusedPencil, ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_obs as obs;
use tempest_grid::{Array3, ElasticModel, Range3, Shape};
use tempest_sparse::SparsePoints;
use tempest_stencil::kernels::staggered_weights;
use tempest_stencil::simd::LANE;
use tempest_stencil::Backend;
use tempest_stencil::metrics::elastic_cost;

/// The isotropic elastic velocity–stress propagator.
pub struct Elastic {
    cfg: SimConfig,
    vx: LevelRing,
    vy: LevelRing,
    vz: LevelRing,
    txx: LevelRing,
    tyy: LevelRing,
    tzz: LevelRing,
    txy: LevelRing,
    txz: LevelRing,
    tyz: LevelRing,
    /// `dt·λ` per point.
    lam_dt: Array3<f32>,
    /// `dt·μ` per point.
    mu_dt: Array3<f32>,
    /// `dt/ρ` (buoyancy) per point.
    dtb: Array3<f32>,
    /// The sponge multiplier `1 − η`, along each pencil.
    sponge: Sponge,
    swx: Vec<f32>,
    swy: Vec<f32>,
    swz: Vec<f32>,
    radius: usize,
    src: SourceBundle,
    rec: Option<ReceiverBundle>,
    trace: Option<TraceBuffer>,
}

impl Elastic {
    /// Build a propagator over `model`. Sources are explosive (injected into
    /// the normal stresses); receivers record `vz`.
    pub fn new(
        model: &ElasticModel,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        assert!(
            matches!(radius, 2 | 4 | 6),
            "elastic propagator supports space orders 4, 8, 12 (got {})",
            cfg.space_order
        );
        let h = cfg.domain.spacing();
        let swx = staggered_weights(cfg.space_order, h[0]);
        let swy = staggered_weights(cfg.space_order, h[1]);
        let swz = staggered_weights(cfg.space_order, h[2]);

        let dt = cfg.dt;
        let times_dt = |a: &Array3<f32>| {
            let mut out = Array3::from_shape(shape);
            for (o, &v) in out.as_mut_slice().iter_mut().zip(a.as_slice()) {
                *o = dt * v;
            }
            out
        };
        let (lam_dt, mu_dt, dtb) = (
            times_dt(&model.lam),
            times_dt(&model.mu),
            times_dt(&model.buoyancy),
        );
        let sponge = Sponge::new(shape, cfg.nbl, cfg.damp_coeff);

        let src = SourceBundle::with_ricker(&cfg.domain, sources, cfg.f0, cfg.dt, cfg.nt);
        let rec = receivers.map(|r| ReceiverBundle::new(&cfg.domain, r));
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        let ring = || LevelRing::new_lane_aligned(shape, radius, 1, LANE);
        Elastic {
            vx: ring(),
            vy: ring(),
            vz: ring(),
            txx: ring(),
            tyy: ring(),
            tzz: ring(),
            txy: ring(),
            txz: ring(),
            tyz: ring(),
            cfg,
            lam_dt,
            mu_dt,
            dtb,
            sponge,
            swx,
            swy,
            swz,
            radius,
            src,
            rec,
            trace,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Velocity update over `region`: `v[t+1] = (v[t] + dt/ρ · ∇·τ[t]) · (1−η)`
    /// — the only velocity step body, for every backend (`Backend::Scalar`
    /// runs the same row passes per point). Three staggered derivative rows
    /// per component, combined over equal-length slices in the per-point
    /// accumulation order, so the fields are the same bits whichever backend
    /// runs.
    fn vel_rows<const R: usize>(
        &self,
        t: usize,
        region: &Range3,
        mode: SparseMode,
        backend: Backend,
    ) {
        count_step(region, backend);
        // SAFETY: schedule contract (see `Acoustic::step_rows`); velocity
        // levels t+1 are written in place per disjoint region, the stencils
        // read the settled level-t stresses.
        let [txx, tyy, tzz, txy, txz, tyz] = unsafe {
            [
                self.txx.level(t),
                self.tyy.level(t),
                self.tzz.level(t),
                self.txy.level(t),
                self.txz.level(t),
                self.tyz.level(t),
            ]
        };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let (swx, swy, swz) = (weights(&self.swx), weights(&self.swy), weights(&self.swz));
        let receivers = self.rec.as_ref().zip(self.trace.as_ref());
        let zs = region.z0..region.z1;
        let n = zs.len();
        with_scratch(3 * n, |d| {
            // Three rows of exactly `n`, so the combine loops below carry no
            // bounds checks.
            let (da, r) = d.split_at_mut(n);
            let (db, r) = r.split_at_mut(n);
            let dc = &mut r[..n];
            for x in region.x0..region.x1 {
                for y in region.y0..region.y1 {
                    let i0 = self.vx.idx(x, y, region.z0);
                    let dtb = &self.dtb.pencil(x, y)[zs.clone()];
                    let fd = &self.sponge.fd(x, y)[zs.clone()];
                    // Every row is `n` long, so the loop carries no bounds
                    // checks and vectorizes.
                    let update = |vn: &mut [f32], da: &[f32], db: &[f32], dc: &[f32]| {
                        let vn = &mut vn[zs.clone()];
                        for j in 0..n {
                            vn[j] = (vn[j] + dtb[j] * (da[j] + db[j] + dc[j])) * fd[j];
                        }
                    };
                    // SAFETY: the schedule contract gives this call exclusive
                    // ownership of the region's pencils at level `t + 1`,
                    // which hold level `t` until the update replaces them.
                    let [vxn, vyn, vzn] = unsafe {
                        [
                            self.vx.pencil_mut(t + 1, x, y),
                            self.vy.pencil_mut(t + 1, x, y),
                            self.vz.pencil_mut(t + 1, x, y),
                        ]
                    };
                    // vx lives at (i+½, j, k).
                    backend.staggered_fwd_row_r::<R>(txx, i0, sx, &swx, da);
                    backend.staggered_bwd_row_r::<R>(txy, i0, sy, &swy, db);
                    backend.staggered_bwd_row_r::<R>(txz, i0, 1, &swz, dc);
                    update(vxn, da, db, dc);
                    // vy lives at (i, j+½, k).
                    backend.staggered_bwd_row_r::<R>(txy, i0, sx, &swx, da);
                    backend.staggered_fwd_row_r::<R>(tyy, i0, sy, &swy, db);
                    backend.staggered_bwd_row_r::<R>(tyz, i0, 1, &swz, dc);
                    update(vyn, da, db, dc);
                    // vz lives at (i, j, k+½).
                    backend.staggered_bwd_row_r::<R>(txz, i0, sx, &swx, da);
                    backend.staggered_bwd_row_r::<R>(tyz, i0, sy, &swy, db);
                    backend.staggered_fwd_row_r::<R>(tzz, i0, 1, &swz, dc);
                    update(vzn, da, db, dc);
                    // Receivers record the fresh `vz`.
                    if let Some(mut sparse) = FusedPencil::begin(mode, t, x, y, zs.clone()) {
                        sparse.gather(receivers, &vzn[zs.clone()]);
                    }
                }
            }
        });
    }

    /// Stress update over `region`:
    /// `τ[t+1] = (τ[t] + dt·(λ tr(ε̇) I + 2μ ε̇)) · (1−η)`, strain rates from
    /// the *fresh* `v[t+1]` (the previous virtual step) — the only stress
    /// step body, shaped like [`vel_rows`](Self::vel_rows).
    fn stress_rows<const R: usize>(
        &self,
        t: usize,
        region: &Range3,
        mode: SparseMode,
        backend: Backend,
    ) {
        count_step(region, backend);
        // SAFETY: schedule contract (see `Acoustic::step_rows`); stress levels
        // t+1 are written in place per disjoint region, the stencils read the
        // settled v[t+1].
        let [vx1, vy1, vz1] = unsafe {
            [
                self.vx.level(t + 1),
                self.vy.level(t + 1),
                self.vz.level(t + 1),
            ]
        };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let (swx, swy, swz) = (weights(&self.swx), weights(&self.swy), weights(&self.swz));
        let zs = region.z0..region.z1;
        let n = zs.len();
        with_scratch(3 * n, |d| {
            // Three rows of exactly `n`, so the combine loops below carry no
            // bounds checks.
            let (da, r) = d.split_at_mut(n);
            let (db, r) = r.split_at_mut(n);
            let dc = &mut r[..n];
            for x in region.x0..region.x1 {
                for y in region.y0..region.y1 {
                    let i0 = self.vx.idx(x, y, region.z0);
                    let lam = &self.lam_dt.pencil(x, y)[zs.clone()];
                    let mu = &self.mu_dt.pencil(x, y)[zs.clone()];
                    let fd = &self.sponge.fd(x, y)[zs.clone()];
                    // SAFETY: the schedule contract gives this call exclusive
                    // ownership of the region's pencils at level `t + 1`,
                    // which hold level `t` until the update replaces them.
                    let [txxn, tyyn, tzzn, txyn, txzn, tyzn] = unsafe {
                        [
                            self.txx.pencil_mut(t + 1, x, y),
                            self.tyy.pencil_mut(t + 1, x, y),
                            self.tzz.pencil_mut(t + 1, x, y),
                            self.txy.pencil_mut(t + 1, x, y),
                            self.txz.pencil_mut(t + 1, x, y),
                            self.tyz.pencil_mut(t + 1, x, y),
                        ]
                    };
                    // Normal stresses live at (i, j, k).
                    backend.staggered_bwd_row_r::<R>(vx1, i0, sx, &swx, da);
                    backend.staggered_bwd_row_r::<R>(vy1, i0, sy, &swy, db);
                    backend.staggered_bwd_row_r::<R>(vz1, i0, 1, &swz, dc);
                    let (xx, yy, zz) =
                        (&mut txxn[zs.clone()], &mut tyyn[zs.clone()], &mut tzzn[zs.clone()]);
                    for j in 0..n {
                        let (exx, eyy, ezz) = (da[j], db[j], dc[j]);
                        let (ldiv, mu2) = (lam[j] * (exx + eyy + ezz), 2.0 * mu[j]);
                        xx[j] = (xx[j] + ldiv + mu2 * exx) * fd[j];
                        yy[j] = (yy[j] + ldiv + mu2 * eyy) * fd[j];
                        zz[j] = (zz[j] + ldiv + mu2 * ezz) * fd[j];
                    }
                    // Shear stresses at the edge-staggered positions.
                    let shear = |tn: &mut [f32], da: &[f32], db: &[f32]| {
                        let tn = &mut tn[zs.clone()];
                        for j in 0..n {
                            tn[j] = (tn[j] + mu[j] * (da[j] + db[j])) * fd[j];
                        }
                    };
                    backend.staggered_fwd_row_r::<R>(vx1, i0, sy, &swy, da);
                    backend.staggered_fwd_row_r::<R>(vy1, i0, sx, &swx, db);
                    shear(txyn, da, db);
                    backend.staggered_fwd_row_r::<R>(vx1, i0, 1, &swz, da);
                    backend.staggered_fwd_row_r::<R>(vz1, i0, sx, &swx, db);
                    shear(txzn, da, db);
                    backend.staggered_fwd_row_r::<R>(vy1, i0, 1, &swz, da);
                    backend.staggered_fwd_row_r::<R>(vz1, i0, sy, &swy, db);
                    shear(tyzn, da, db);
                    // The explosive source goes into the normal stresses: one
                    // injection per affected point, not per component.
                    if let Some(mut sparse) = FusedPencil::begin(mode, t, x, y, zs.clone()) {
                        sparse.inject(&self.src, |z, amp| {
                            let v = self.cfg.dt * amp;
                            txxn[z] += v;
                            tyyn[z] += v;
                            tzzn[z] += v;
                        });
                    }
                }
            }
        });
    }
}

impl WaveSolver for Elastic {
    fn name(&self) -> &'static str {
        "elastic"
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

    /// Velocity then stress: two virtual steps per timestep, which doubles
    /// the temporal tile height in virtual steps (Fig. 8b).
    fn phases(&self) -> usize {
        2
    }

    fn reset(&mut self) {
        for r in [
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.txx,
            &mut self.tyy,
            &mut self.tzz,
            &mut self.txy,
            &mut self.txz,
            &mut self.tyz,
        ] {
            r.clear();
        }
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Compute virtual step `vt` for `region`. Even `vt` = velocity phase of
    /// timestep `vt/2`; odd = stress phase.
    fn step_region(&self, vt: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        let _sp = obs::span(obs::SpanKind::Stencil, obs::SpanArgs::step(vt));
        let (t, backend) = (vt >> 1, kernel.resolve());
        match (self.radius, vt & 1) {
            (2, 0) => self.vel_rows::<2>(t, region, mode, backend),
            (2, _) => self.stress_rows::<2>(t, region, mode, backend),
            (4, 0) => self.vel_rows::<4>(t, region, mode, backend),
            (4, _) => self.stress_rows::<4>(t, region, mode, backend),
            (6, 0) => self.vel_rows::<6>(t, region, mode, backend),
            (6, _) => self.stress_rows::<6>(t, region, mode, backend),
            (r, _) => unreachable!("Elastic::new admits radii 2, 4 and 6 only (got {r})"),
        }
    }

    fn classic_after_step(&self, t: usize) {
        classic_step(
            t,
            &self.src,
            self.rec.as_ref().zip(self.trace.as_ref()),
            // SAFETY: runs on one thread between sweeps, so nothing else
            // touches the freshly computed level `t + 1` of any field.
            |c, amp| unsafe {
                let v = self.cfg.dt * amp;
                self.txx.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
                self.tyy.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
                self.tzz.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
            },
            |c| unsafe { self.vz.level(t + 1)[self.vz.idx(c[0], c[1], c[2])] },
        );
    }

    fn written(&self, vt: usize) -> Vec<(&LevelRing, usize)> {
        let level = (vt >> 1) + 1;
        let rings: &[&LevelRing] = if vt & 1 == 0 {
            &[&self.vx, &self.vy, &self.vz]
        } else {
            &[&self.txx, &self.tyy, &self.tzz, &self.txy, &self.txz, &self.tyz]
        };
        rings.iter().map(|&r| (r, level)).collect()
    }

    /// Receivers record `vz`, written by the velocity phase.
    fn gathered(&self, vt: usize) -> Option<usize> {
        (vt & 1 == 0).then_some(2)
    }

    /// Either phase reads the other phase's fields one virtual step back and
    /// its own fields, in place, two.
    fn read_distance(&self) -> usize {
        2
    }

    fn coefficients(&self) -> Vec<&[f32]> {
        vec![
            self.lam_dt.as_slice(),
            self.mu_dt.as_slice(),
            self.dtb.as_slice(),
            self.sponge.elastic_profiles(),
            &self.swx,
            &self.swy,
            &self.swz,
            std::slice::from_ref(&self.cfg.dt),
        ]
    }

    fn sources(&self) -> &SourceBundle {
        &self.src
    }

    fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_ref()
    }

    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    fn final_field(&mut self) -> Array3<f32> {
        let t = self.cfg.nt;
        self.vz.interior_copy(t)
    }

    fn flops_per_point(&self) -> f64 {
        elastic_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use crate::operator::Execution;
    use tempest_grid::Domain;

    fn setup(so: usize, nt: usize) -> Elastic {
        let domain = Domain::uniform(Shape::cube(20), 10.0);
        let model = ElasticModel::homogeneous(domain, 3000.0, 1400.0, 2200.0);
        let cfg = SimConfig::new(domain, so, EquationKind::Elastic, 3000.0, 40.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 4, 0.25);
        Elastic::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn propagates_and_stable() {
        let mut e = setup(4, 30);
        e.run(&Execution::baseline());
        let f = e.final_field();
        assert!(f.max_abs() > 0.0, "vz must be excited");
        assert!(f.max_abs().is_finite() && f.max_abs() < 1e6);
        let tr = e.trace().unwrap();
        assert!(tr.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "supports space orders 4, 8, 12")]
    fn unsupported_space_order_is_rejected_at_construction() {
        let _ = setup(6, 4);
    }

    #[test]
    fn all_stress_components_respond() {
        let mut e = setup(4, 16);
        e.run(&Execution::baseline().sequential());
        let t = e.cfg.nt;
        for (name, ring) in [
            ("txx", &mut e.txx),
            ("tyy", &mut e.tyy),
            ("tzz", &mut e.tzz),
            ("txy", &mut e.txy),
            ("txz", &mut e.txz),
            ("tyz", &mut e.tyz),
        ] {
            assert!(
                ring.interior_max_abs(t) > 0.0,
                "{name} must carry energy after an explosive source"
            );
        }
    }

    #[test]
    fn shear_free_fluid_keeps_shear_stresses_small() {
        // With μ = 0 (vs = 0) the medium is a fluid: no shear stresses
        // develop from a pressure source.
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let model = ElasticModel::homogeneous(domain, 1500.0, 0.0, 1000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Elastic, 1500.0, 40.0)
            .with_nt(12)
            .with_boundary(0, 0.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut e = Elastic::new(&model, cfg, src, None);
        e.run(&Execution::baseline().sequential());
        let t = e.cfg.nt;
        assert_eq!(e.txy.interior_max_abs(t), 0.0);
        assert_eq!(e.txz.interior_max_abs(t), 0.0);
        assert_eq!(e.tyz.interior_max_abs(t), 0.0);
        assert!(e.tzz.interior_max_abs(t) > 0.0);
    }

}
