//! Anisotropic acoustic (TTI) wave propagator (paper §III-B).
//!
//! The pseudo-acoustic tilted transversely isotropic system is a coupled
//! pair of scalar PDEs in `(p, q)` with a *rotated* anisotropic Laplacian:
//! with the rotated vertical derivative
//! `D_z̄ = sinθcosφ·∂x + sinθsinφ·∂y + cosθ·∂z` (Eq. 2 gives the conjugate
//! horizontal operator) and `G_z̄z̄ = D_z̄ᵀD_z̄`, `G_h = Δ − G_z̄z̄`:
//!
//! ```text
//! m·p_tt + η·p_t = (1 + 2ε)·G_h p + √(1+2δ)·G_z̄z̄ q + src
//! m·q_tt + η·q_t = √(1+2δ)·G_h p +            G_z̄z̄ q + src
//! ```
//!
//! Expanding `G_z̄z̄` with spatially varying angles yields, per point and per
//! field, three straight second derivatives plus three *mixed* derivatives
//! whose footprint is the `(2r)²` outer product of first-derivative stencils
//! — this is why the TTI kernel "increases the operation count drastically"
//! and sits far right of the acoustic kernel on the roofline (Fig. 11).
//! Each mixed derivative is evaluated as the composition of two `2r`-tap
//! first derivatives through a per-worker row cache (see
//! [`Tti::step_region`] and DESIGN.md §10), not as the outer product. One
//! fused kernel per output pencil
//! ([`Backend::tti_update_row_r`](tempest_stencil::Backend::tti_update_row_r))
//! then forms both fields' second derivatives per point, in registers, and
//! finishes the update. The rotation is stored as three parameter volumes,
//! `2a`, `2b` and `c` with `(a, b, c) = (sinθcosφ, sinθsinφ, cosθ)`, so the
//! hot loop is trigonometry-free; the kernel forms the six products of
//! `G_z̄z̄` from them per point, in registers, to the bit the products
//! `a·a, …, 2·a·b, 2·a·c, 2·b·c` would have if stored (DESIGN.md §10). The
//! leap-frog update is acoustic's `c1·u − c2·u⁻ + c3·rhs`: `c3` and the
//! anisotropy (`1 + 2ε`, `√(1+2δ)`, the rotation) are the six per-point
//! volumes, while the damping-only `c1`, `c2` come from the `Sponge`'s
//! per-pencil `z` profiles. As in acoustic, each field's ring keeps two
//! levels and `p⁺`, `q⁺` overwrite `p⁻`, `q⁻` in place, which the update
//! reads only at the point it writes.

use std::sync::OnceLock;

use crate::config::SimConfig;
use crate::operator::{digest_values, KernelPath, SparseMode, WaveSolver};
use crate::shared::{count_step, weights, with_scratch, LevelRing, Sponge};
use crate::sources::{classic_step, FusedPencil, ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_grid::{Array3, Range3, Shape, TtiModel};
use tempest_obs as obs;
use tempest_sparse::SparsePoints;
use tempest_stencil::kernels::{
    first_derivative_weights, AxisWeights, TtiCoeffs, TtiField, TtiStencil,
};
use tempest_stencil::metrics::tti_cost;
use tempest_stencil::Backend;
use tempest_stencil::LANE;

/// The TTI pseudo-acoustic propagator.
pub struct Tti {
    cfg: SimConfig,
    p: LevelRing,
    q: LevelRing,
    c3: Array3<f32>,
    sponge: Sponge,
    /// `1 + 2ε` per point.
    eps2: Array3<f32>,
    /// `√(1 + 2δ)` per point.
    delta_bar: Array3<f32>,
    /// The rotation of `G_z̄z̄` as `[2a, 2b, c]`, with
    /// `(a, b, c) = (sinθcosφ, sinθsinφ, cosθ)`.
    rot: [Array3<f32>; 3],
    // Second-derivative axis weights (straight terms).
    wxx: AxisWeights,
    wyy: AxisWeights,
    wzz: AxisWeights,
    // First-derivative antisymmetric weights (cross terms).
    w1x: Vec<f32>,
    w1y: Vec<f32>,
    w1z: Vec<f32>,
    radius: usize,
    /// [`WaveSolver::coefficient_digest`], filled on first use: the
    /// coefficients are fixed once built.
    digest: OnceLock<u64>,
    src: SourceBundle,
    rec: Option<ReceiverBundle>,
    trace: Option<TraceBuffer>,
}

impl Tti {
    /// Build a propagator over `model` with the given sources and optional
    /// receivers (receivers record `p`).
    pub fn new(
        model: &TtiModel,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        assert!(
            matches!(radius, 2 | 4 | 6),
            "TTI propagator supports space orders 4, 8, 12 (radius {radius}, got order {})",
            cfg.space_order
        );
        let h = cfg.domain.spacing();
        let wxx = AxisWeights::second_derivative(cfg.space_order, h[0]);
        let wyy = AxisWeights::second_derivative(cfg.space_order, h[1]);
        let wzz = AxisWeights::second_derivative(cfg.space_order, h[2]);
        let w1x = first_derivative_weights(cfg.space_order, h[0]);
        let w1y = first_derivative_weights(cfg.space_order, h[1]);
        let w1z = first_derivative_weights(cfg.space_order, h[2]);

        let sponge = Sponge::new(shape, cfg.nbl, cfg.damp_coeff);
        let c3 = sponge.c3(&model.m, cfg.dt);
        let n = shape.len();
        let mut eps2 = Array3::from_shape(shape);
        let mut delta_bar = Array3::from_shape(shape);
        let mut rot: [Array3<f32>; 3] = std::array::from_fn(|_| Array3::from_shape(shape));
        for i in 0..n {
            eps2.as_mut_slice()[i] = 1.0 + 2.0 * model.epsilon.as_slice()[i];
            delta_bar.as_mut_slice()[i] = (1.0 + 2.0 * model.delta.as_slice()[i]).sqrt();
            let th = model.theta.as_slice()[i];
            let ph = model.phi.as_slice()[i];
            let (st, ct) = th.sin_cos();
            let (sp, cp) = ph.sin_cos();
            let (a, b, c) = (st * cp, st * sp, ct);
            // Doubled, not halved: `2a` stays normal where `a` is just
            // subnormal, as `2·a·c` is (DESIGN.md §10).
            for (v, x) in rot.iter_mut().zip([2.0 * a, 2.0 * b, c]) {
                v.as_mut_slice()[i] = x;
            }
        }

        let src = SourceBundle::with_ricker(&cfg.domain, sources, cfg.f0, cfg.dt, cfg.nt);
        let rec = receivers.map(|r| ReceiverBundle::new(&cfg.domain, r));
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        Tti {
            p: LevelRing::new_lane_aligned(shape, radius, 2, LANE),
            q: LevelRing::new_lane_aligned(shape, radius, 2, LANE),
            cfg,
            c3,
            sponge,
            eps2,
            delta_bar,
            rot,
            wxx,
            wyy,
            wzz,
            w1x,
            w1y,
            w1z,
            radius,
            digest: OnceLock::new(),
            src,
            rec,
            trace,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// One stencil step over `region` — the only step body, for every
    /// backend (`Backend::Scalar` runs the same passes per point).
    ///
    /// A mixed derivative is the composition of two centred first
    /// derivatives, `∂ab u = D_a(D_b u)`: the same taps and weights as their
    /// `(2R)²` outer product, associated so that it costs two `2R`-tap row
    /// passes. The outer derivative runs along `z` wherever it can, because a
    /// region is long in `z` and narrow in `x, y`, and dilating the inner
    /// rows by `R` is cheap only along `z`:
    ///
    /// 1. per *input* pencil of the region dilated by `R` along x, the row
    ///    `D_y u` over `z0−R..z1+R` of both fields goes to the worker's row
    ///    cache;
    /// 2. per *output* pencil, `∂xy = D_x(D_y u)` is a first-derivative row
    ///    *across* the cached rows, `∂yz = D_z(D_y u)` one *along* the
    ///    pencil's own cached row, and `∂xz = D_z(D_x u)` one along a `D_x u`
    ///    row computed on the spot; one fused kernel call
    ///    ([`Backend::tti_update_row_r`]) takes these three and the straight
    ///    second derivatives of both fields per point, in registers, and
    ///    finishes the update in the same pass.
    ///
    /// Every scratch value is a pure function of the level being read and is
    /// written by this call before it reads it: nothing is carried from one
    /// call to the next, and the result does not depend on how the domain is
    /// cut into regions. The read footprint is the radius-`R` box, as for the
    /// single-pass outer product this replaces.
    fn step_rows<const R: usize>(
        &self,
        k: usize,
        region: &Range3,
        mode: SparseMode,
        backend: Backend,
    ) {
        if region.is_empty() {
            return;
        }
        count_step(region, backend);
        let (nx, ny) = (region.x1 - region.x0, region.y1 - region.y0);
        // SAFETY: see `Acoustic::step_rows` — identical schedule contract, two
        // fields updated together, each in place over its level `k`.
        let p0 = unsafe { self.p.level(k + 1) };
        let q0 = unsafe { self.q.level(k + 1) };
        let (sx, sy) = (self.p.sx(), self.p.sy());
        let receivers = self.rec.as_ref().zip(self.trace.as_ref());
        let n = region.z1 - region.z0;
        // Cache layout: one slot `[D_y p | D_y q]` per input pencil, each row
        // `z0−R..z1+R`, pencils y-fastest inside an x-plane — so `D_x` across
        // the cache is a first-derivative row at stride `plane`.
        let ly = n + 2 * R;
        let plane = ny * 2 * ly;
        let cache_len = (nx + 2 * R) * plane;
        // Fixed-size weights so the row kernels unroll.
        let st = TtiStencil::<R> {
            sx,
            sy,
            plane,
            center: [self.wxx.center, self.wyy.center, self.wzz.center],
            side: [
                self.wxx.side_array(),
                self.wyy.side_array(),
                self.wzz.side_array(),
            ],
            w1x: weights(&self.w1x),
            w1z: weights(&self.w1z),
        };
        let w1y = weights::<R>(&self.w1y);
        // The `D_y` row cache and one `D_x` row per field.
        with_scratch(cache_len + 2 * ly, |scratch| {
            let (cache, dx) = scratch.split_at_mut(cache_len);
            // Pass 1. `xi` counts planes from `x0 − R`, inside the x halo.
            for xi in 0..nx + 2 * R {
                for yi in 0..ny {
                    let i0 =
                        self.p.idx(region.x0, region.y0 + yi, region.z0) + xi * sx - R * sx - R;
                    let (dyp, dyq) = cache[xi * plane + yi * 2 * ly..][..2 * ly].split_at_mut(ly);
                    backend.first_diff_row_r::<R>(p0, i0, sy, &w1y, dyp);
                    backend.first_diff_row_r::<R>(q0, i0, sy, &w1y, dyq);
                }
            }
            // Pass 2: per output pencil, the two `D_x` rows, then one fused
            // update of `p` and `q`.
            let cache = &*cache;
            let (dxp, dxq) = dx.split_at_mut(ly);
            for x in region.x0..region.x1 {
                for y in region.y0..region.y1 {
                    let i0 = self.p.idx(x, y, region.z0);
                    backend.first_diff_row_r::<R>(p0, i0 - R, sx, &st.w1x, dxp);
                    backend.first_diff_row_r::<R>(q0, i0 - R, sx, &st.w1x, dxq);
                    // This pencil's cached `D_y p` at `z0`; `D_y q` follows it.
                    let dy = (x - region.x0 + R) * plane + (y - region.y0) * 2 * ly + R;
                    let f = [
                        TtiField {
                            u: p0,
                            i0,
                            cache,
                            dy,
                            dx: dxp,
                        },
                        TtiField {
                            u: q0,
                            i0,
                            cache,
                            dy: dy + ly,
                            dx: dxq,
                        },
                    ];
                    let zs = region.z0..region.z1;
                    let c3r = self.c3.pencil(x, y);
                    let c = TtiCoeffs {
                        c1: &self.sponge.c1(x, y)[zs.clone()],
                        c2: &self.sponge.c2(x, y)[zs.clone()],
                        c3: &c3r[zs.clone()],
                        eps2: &self.eps2.pencil(x, y)[zs.clone()],
                        delta: &self.delta_bar.pencil(x, y)[zs.clone()],
                        rot: std::array::from_fn(|k| &self.rot[k].pencil(x, y)[zs.clone()]),
                    };
                    // SAFETY: the schedule contract gives this call exclusive
                    // ownership of the region's pencils at level `k + 2`,
                    // which hold level `k` until the update replaces them.
                    let pn = unsafe { self.p.pencil_mut(k + 2, x, y) };
                    let qn = unsafe { self.q.pencil_mut(k + 2, x, y) };
                    backend.tti_update_row_r::<R>(
                        &st,
                        &f,
                        &c,
                        &mut pn[zs.clone()],
                        &mut qn[zs.clone()],
                    );
                    if let Some(mut sparse) = FusedPencil::begin(mode, k, x, y, zs.clone()) {
                        // Both fields receive the source, as in Devito's TTI
                        // operator; receivers record `p`.
                        sparse.inject(&self.src, |z, amp| {
                            let v = c3r[z] * amp;
                            pn[z] += v;
                            qn[z] += v;
                        });
                        sparse.gather(receivers, &pn[zs]);
                    }
                }
            }
        });
    }
}

impl WaveSolver for Tti {
    fn name(&self) -> &'static str {
        "tti"
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
        self.p.clear();
        self.q.clear();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    fn step_region(&self, k: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        let _sp = obs::span(obs::SpanKind::Stencil, obs::SpanArgs::step(k));
        let backend = kernel.resolve();
        match self.radius {
            2 => self.step_rows::<2>(k, region, mode, backend),
            4 => self.step_rows::<4>(k, region, mode, backend),
            6 => self.step_rows::<6>(k, region, mode, backend),
            r => unreachable!("Tti::new admits radii 2, 4 and 6 only (got {r})"),
        }
    }

    fn classic_after_step(&self, k: usize) {
        classic_step(
            k,
            &self.src,
            self.rec.as_ref().zip(self.trace.as_ref()),
            // SAFETY: runs on one thread between sweeps, so nothing else
            // touches the freshly computed level `k + 2` of either field.
            |c, amp| unsafe {
                let v = self.c3.get(c[0], c[1], c[2]) * amp;
                self.p.pencil_mut(k + 2, c[0], c[1])[c[2]] += v;
                self.q.pencil_mut(k + 2, c[0], c[1])[c[2]] += v;
            },
            |c| unsafe { self.p.level(k + 2)[self.p.idx(c[0], c[1], c[2])] },
        );
    }

    fn written(&self, k: usize) -> Vec<(&LevelRing, usize)> {
        vec![(&self.p, k + 2), (&self.q, k + 2)]
    }

    /// Receivers record `p`.
    fn gathered(&self, _k: usize) -> Option<usize> {
        Some(0)
    }

    /// As acoustic: `p`, `q` one step back, `p⁻`, `q⁻` in place two.
    fn read_distance(&self) -> usize {
        2
    }

    fn coefficients(&self) -> Vec<&[f32]> {
        let [c1, c2] = self.sponge.leapfrog_profiles();
        let mut out = vec![
            c1,
            c2,
            self.c3.as_slice(),
            self.eps2.as_slice(),
            self.delta_bar.as_slice(),
        ];
        out.extend(self.rot.iter().map(|r| r.as_slice()));
        for w in [&self.wxx, &self.wyy, &self.wzz] {
            out.push(std::slice::from_ref(&w.center));
            out.push(&w.side);
        }
        out.extend([&self.w1x[..], &self.w1y, &self.w1z]);
        out
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
        self.rec.as_ref()
    }

    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    fn final_field(&mut self) -> Array3<f32> {
        let t = self.cfg.nt + 1;
        self.p.interior_copy(t)
    }

    fn flops_per_point(&self) -> f64 {
        tti_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use crate::operator::Execution;
    use tempest_grid::Domain;

    fn setup(theta: f32, so: usize, nt: usize) -> Tti {
        let domain = Domain::uniform(Shape::cube(20), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.2, 0.1, theta, 0.3);
        let cfg = SimConfig::new(domain, so, EquationKind::Tti, model.vmax(), 80.0)
            .with_nt(nt)
            .with_f0(15.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 4, 0.2);
        Tti::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn holds_six_grid_sized_parameter_volumes() {
        // `c3`, `1 + 2ε`, `√(1 + 2δ)` and the rotation as `2a`, `2b`, `c`.
        let t = setup(0.35, 8, 2);
        let coeff = t.coefficients();
        let volumes = coeff.iter().filter(|c| c.len() == t.shape().len());
        assert_eq!(volumes.count(), 6);
        let ((st, ct), (sp, cp)) = (0.35f32.sin_cos(), 0.3f32.sin_cos());
        let (a, b) = (st * cp, st * sp);
        for (k, want) in [2.0 * a, 2.0 * b, ct].into_iter().enumerate() {
            assert!(
                coeff[5 + k].iter().all(|v| v.to_bits() == want.to_bits()),
                "volume {k}"
            );
        }
    }

    #[test]
    fn propagates_and_stable() {
        let mut t = setup(0.35, 4, 25);
        t.run(&Execution::baseline());
        let f = t.final_field();
        assert!(f.max_abs() > 0.0);
        assert!(f.max_abs().is_finite() && f.max_abs() < 1e6);
    }

    #[test]
    #[should_panic(expected = "supports space orders 4, 8, 12")]
    fn unsupported_space_order_is_rejected_at_construction() {
        let _ = setup(0.35, 6, 4);
    }

    #[test]
    fn zero_angles_zero_anisotropy_reduces_to_acoustic_coupling() {
        // With ε = δ = θ = φ = 0: Gz̄z̄ = ∂zz, Gh = ∂xx + ∂yy, δ̄ = 1 and the
        // p equation becomes the isotropic acoustic one when p ≡ q. Check
        // p stays equal to q (both get the same source and updates).
        let domain = Domain::uniform(Shape::cube(16), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.0, 0.0, 0.0, 0.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Tti, 2000.0, 50.0)
            .with_nt(12)
            .with_boundary(0, 0.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut t = Tti::new(&model, cfg, src, None);
        t.run(&Execution::baseline().sequential());
        let p = t.final_field();
        let q = t.q.interior_copy(t.cfg.nt + 1);
        assert!(
            p.max_abs_diff(&q) <= 1e-6 * p.max_abs().max(1e-20),
            "p and q must evolve identically in the degenerate case"
        );
        assert!(p.max_abs() > 0.0);
    }

    #[test]
    fn anisotropy_changes_the_wavefield() {
        let mut iso = setup(0.0, 4, 15);
        let mut tilted = setup(0.5, 4, 15);
        iso.run(&Execution::baseline().sequential());
        tilted.run(&Execution::baseline().sequential());
        let a = iso.final_field();
        let b = tilted.final_field();
        assert!(
            a.max_abs_diff(&b) > 1e-8,
            "tilt angle must affect propagation"
        );
    }

    #[test]
    fn tilted_symmetry_axis_breaks_xy_symmetry() {
        // With φ=0 and θ≠0 the symmetry axis tilts in the x-z plane, so the
        // wavefield loses x↔y symmetry that the isotropic case would keep.
        let domain = Domain::uniform(Shape::cube(17), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.25, 0.05, 0.6, 0.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Tti, model.vmax(), 60.0)
            .with_nt(14)
            .with_boundary(0, 0.0);
        // exact on-grid centre source keeps the comparison clean
        let src = SparsePoints::new(&domain, vec![[160.0, 160.0, 160.0]]);
        let mut t = Tti::new(&model, cfg, src, None);
        t.run(&Execution::baseline().sequential());
        let f = t.final_field();
        let c = 8usize;
        let off = 5usize;
        let vx = f.get(c + off, c, c);
        let vy = f.get(c, c + off, c);
        assert!(
            (vx - vy).abs() > 1e-10 * f.max_abs().max(1e-20),
            "tilt in x-z must distinguish x from y: {vx} vs {vy}"
        );
    }
}
