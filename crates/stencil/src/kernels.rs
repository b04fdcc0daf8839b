//! Inner-loop finite-difference building blocks.
//!
//! Each function computes one derivative contribution at a single linear
//! index `i` of a padded field's raw slice, given the axis stride. The `z`
//! axis has stride 1, so a caller looping `z` over a contiguous pencil gets
//! unit-stride accesses that LLVM auto-vectorises — this is the "SIMD
//! vectorization over the z loop" of the paper's Listing 4.
//!
//! Weights are *premultiplied* by the `1/hᵏ` spacing factors (see
//! [`AxisWeights`]), keeping the hot path free of divisions.
//!
//! Each kernel is written once, over weight slices. A caller with a
//! compile-time radius `R` passes its `&[f32; R]` weights: once the kernel is
//! inlined the weight loop's trip count is a constant and it fully unrolls.
//! The propagators in `tempest-core` monomorphise their rows for the paper's
//! space orders 4, 8 and 12 (radii 2, 4, 6); the fused updates
//! (`velocity_at_r` … `tti_at_r`) take `R` from their terms' weight arrays.

use crate::coeffs::{central_coeffs_symmetric, central_first_antisymmetric, staggered_coeffs};

/// Premultiplied second-derivative weights along one axis.
///
/// `value = center·u[i] + Σ_k side[k−1]·(u[i+k·s] + u[i−k·s])`, already
/// scaled by `1/h²`.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisWeights {
    /// Centre-point weight (scaled by `1/h²`).
    pub center: f32,
    /// Symmetric side weights; `side[k-1]` multiplies `u(+k) + u(−k)`.
    pub side: Vec<f32>,
}

impl AxisWeights {
    /// Second-derivative weights of the given (even) space order for grid
    /// spacing `h`.
    pub fn second_derivative(order: usize, h: f32) -> Self {
        let (c, side) = central_coeffs_symmetric(order);
        let inv_h2 = 1.0 / (h as f64 * h as f64);
        AxisWeights {
            center: (c * inv_h2) as f32,
            side: side.iter().map(|&w| (w * inv_h2) as f32).collect(),
        }
    }

    /// Stencil radius along this axis.
    pub fn radius(&self) -> usize {
        self.side.len()
    }

    /// Side weights as a fixed-size array (for the compile-time-radius rows).
    ///
    /// # Panics
    /// If `R` does not equal the runtime radius.
    pub fn side_array<const R: usize>(&self) -> [f32; R] {
        assert_eq!(self.side.len(), R, "radius mismatch");
        let mut a = [0.0f32; R];
        a.copy_from_slice(&self.side);
        a
    }
}

/// Premultiplied antisymmetric first-derivative weights along one axis:
/// `value = Σ_k w[k−1]·(u[i+k·s] − u[i−k·s])`, scaled by `1/h`.
pub fn first_derivative_weights(order: usize, h: f32) -> Vec<f32> {
    central_first_antisymmetric(order)
        .iter()
        .map(|&w| (w / h as f64) as f32)
        .collect()
}

/// Premultiplied staggered first-derivative weights:
/// forward `value = Σ_k w[k]·(u[i+(k+1)·s] − u[i−k·s])` evaluates the
/// derivative at `i + ½`, scaled by `1/h`.
pub fn staggered_weights(order: usize, h: f32) -> Vec<f32> {
    staggered_coeffs(order)
        .iter()
        .map(|&w| (w / h as f64) as f32)
        .collect()
}

/// Second derivative along one axis at linear index `i` with stride `s`:
/// `center` is the axis centre weight, `side[k]` multiplies
/// `u(+k+1) + u(−k−1)`.
#[inline(always)]
pub fn second_diff_axis(u: &[f32], i: usize, s: usize, center: f32, side: &[f32]) -> f32 {
    let mut acc = center * u[i];
    for (k, &wk) in side.iter().enumerate() {
        let o = (k + 1) * s;
        acc += wk * (u[i + o] + u[i - o]);
    }
    acc
}

/// 3-D Laplacian at linear index `i` (strides `sx`, `sy`, `sz = 1`).
///
/// `center` must be the *combined* centre weight `cx + cy + cz`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn laplacian_at(
    u: &[f32],
    i: usize,
    sx: usize,
    sy: usize,
    center: f32,
    wx: &[f32],
    wy: &[f32],
    wz: &[f32],
) -> f32 {
    let mut acc = center * u[i];
    for (k, &w) in wx.iter().enumerate() {
        let o = (k + 1) * sx;
        acc += w * (u[i + o] + u[i - o]);
    }
    for (k, &w) in wy.iter().enumerate() {
        let o = (k + 1) * sy;
        acc += w * (u[i + o] + u[i - o]);
    }
    for (k, &w) in wz.iter().enumerate() {
        let o = k + 1;
        acc += w * (u[i + o] + u[i - o]);
    }
    acc
}

/// Centred first derivative along one axis (antisymmetric weights).
#[inline(always)]
pub fn first_diff_axis(u: &[f32], i: usize, s: usize, w: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (k, &wk) in w.iter().enumerate() {
        let o = (k + 1) * s;
        acc += wk * (u[i + o] - u[i - o]);
    }
    acc
}

/// Mixed second derivative `∂²/∂a∂b` at linear index `i` as the `(2r)²`-point
/// outer product of two centred first-derivative stencils (strides `s1`,
/// `s2`, antisymmetric weights `w1`, `w2`) — the cross terms of the rotated
/// TTI Laplacian (paper Eq. 2) that "increase the operation count
/// drastically". The TTI propagator does not call it: it composes two
/// [`first_diff_axis`] row passes instead, `2·2r` taps for the same value
/// up to rounding.
#[inline(always)]
pub fn cross_diff(u: &[f32], i: usize, s1: usize, s2: usize, w1: &[f32], w2: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (j, &wj) in w1.iter().enumerate() {
        let o1 = (j + 1) * s1;
        let mut inner = 0.0f32;
        for (k, &wk) in w2.iter().enumerate() {
            let o2 = (k + 1) * s2;
            inner += wk * ((u[i + o1 + o2] + u[i - o1 - o2]) - (u[i + o1 - o2] + u[i - o1 + o2]));
        }
        acc += wj * inner;
    }
    acc
}

/// Staggered first derivative evaluated at `i + ½` (forward).
#[inline(always)]
pub fn staggered_diff_fwd(u: &[f32], i: usize, s: usize, w: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (k, &wk) in w.iter().enumerate() {
        acc += wk * (u[i + (k + 1) * s] - u[i - k * s]);
    }
    acc
}

/// Staggered first derivative evaluated at `i − ½` (backward).
#[inline(always)]
pub fn staggered_diff_bwd(u: &[f32], i: usize, s: usize, w: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (k, &wk) in w.iter().enumerate() {
        acc += wk * (u[i + k * s] - u[i - (k + 1) * s]);
    }
    acc
}

/// One staggered first-derivative term of a fused elastic update: field `u`
/// along stride `s` with weights `w`, forward (at `i + ½`) or backward (at
/// `i − ½`).
#[derive(Debug, Clone, Copy)]
pub struct StaggeredTerm<'a, const R: usize> {
    /// The differentiated field (a whole padded level).
    pub u: &'a [f32],
    /// Stride of the derivative's axis.
    pub s: usize,
    /// Premultiplied staggered weights ([`staggered_weights`]).
    pub w: &'a [f32; R],
    /// Forward ([`staggered_diff_fwd`]) or backward
    /// ([`staggered_diff_bwd`]).
    pub fwd: bool,
}

impl<'a, const R: usize> StaggeredTerm<'a, R> {
    /// The forward derivative of `u` along stride `s`.
    pub fn fwd(u: &'a [f32], s: usize, w: &'a [f32; R]) -> Self {
        StaggeredTerm { u, s, w, fwd: true }
    }

    /// The backward derivative of `u` along stride `s`.
    pub fn bwd(u: &'a [f32], s: usize, w: &'a [f32; R]) -> Self {
        StaggeredTerm {
            u,
            s,
            w,
            fwd: false,
        }
    }

    /// The backward-difference centre of output index `i`: the forward
    /// difference at `i` is, term for term, the backward one at `i + s`.
    #[inline(always)]
    pub fn center(&self, i: usize) -> usize {
        if self.fwd {
            i + self.s
        } else {
            i
        }
    }

    /// The derivative at linear index `i`.
    #[inline(always)]
    pub fn at(&self, i: usize) -> f32 {
        staggered_diff_bwd(self.u, self.center(i), self.s, self.w)
    }
}

/// Fused velocity update at linear index `i`:
/// `(v + b·((D₁ + D₂) + D₃))·fd`.
#[inline(always)]
pub fn velocity_at_r<const R: usize>(
    d: &[StaggeredTerm<R>; 3],
    i: usize,
    v: f32,
    b: f32,
    fd: f32,
) -> f32 {
    (v + b * (d[0].at(i) + d[1].at(i) + d[2].at(i))) * fd
}

/// Fused normal-stress update of `t = [τxx, τyy, τzz]` at linear index `i`
/// from the strain rates `e = d.at(i)`:
/// `τₐ = ((τₐ + λ·((eₓ + e_y) + e_z)) + 2μ·eₐ)·fd`.
#[inline(always)]
pub fn normal_stress_at_r<const R: usize>(
    d: &[StaggeredTerm<R>; 3],
    i: usize,
    t: [f32; 3],
    lam: f32,
    mu: f32,
    fd: f32,
) -> [f32; 3] {
    let e = [d[0].at(i), d[1].at(i), d[2].at(i)];
    let (ldiv, mu2) = (lam * (e[0] + e[1] + e[2]), 2.0 * mu);
    [
        (t[0] + ldiv + mu2 * e[0]) * fd,
        (t[1] + ldiv + mu2 * e[1]) * fd,
        (t[2] + ldiv + mu2 * e[2]) * fd,
    ]
}

/// Fused shear-stress update at linear index `i`: `(τ + μ·(D₁ + D₂))·fd`.
#[inline(always)]
pub fn shear_stress_at_r<const R: usize>(
    d: &[StaggeredTerm<R>; 2],
    i: usize,
    t: f32,
    mu: f32,
    fd: f32,
) -> f32 {
    (t + mu * (d[0].at(i) + d[1].at(i))) * fd
}

/// The fixed geometry and weights of the fused TTI update ([`tti_at_r`]).
#[derive(Debug, Clone, Copy)]
pub struct TtiStencil<const R: usize> {
    /// The level's `x` stride.
    pub sx: usize,
    /// The level's `y` stride.
    pub sy: usize,
    /// The `x` stride of the `D_y` row cache: one cached x-plane.
    pub plane: usize,
    /// Second-derivative centre weights along `x, y, z`.
    pub center: [f32; 3],
    /// Second-derivative side weights along `x, y, z`.
    pub side: [[f32; R]; 3],
    /// First-derivative weights along `x`: `∂xy = D_x(D_y u)`.
    pub w1x: [f32; R],
    /// First-derivative weights along `z`: `∂xz = D_z(D_x u)`,
    /// `∂yz = D_z(D_y u)`.
    pub w1z: [f32; R],
}

/// One field's inputs to the fused TTI update over an output pencil: its
/// level and the two first-derivative rows its mixed derivatives are taken
/// across.
#[derive(Debug, Clone, Copy)]
pub struct TtiField<'a> {
    /// The field's level: the straight second derivatives and the centre
    /// value `u`.
    pub u: &'a [f32],
    /// Index in `u` of the pencil's first point.
    pub i0: usize,
    /// The `D_y` row cache, rows `x`-strided by [`TtiStencil::plane`].
    pub cache: &'a [f32],
    /// Index in `cache` of `D_y u` at the pencil's first point.
    pub dy: usize,
    /// `D_x u` along the pencil from `R` points before its first to `R`
    /// after its last: pencil point `j` is `dx[R + j]`.
    pub dx: &'a [f32],
}

impl TtiField<'_> {
    /// The second derivatives `[uxx, uyy, uzz, uxy, uxz, uyz]` at pencil
    /// point `j`: each straight one a [`second_diff_axis`], each mixed one
    /// a [`first_diff_axis`] across a first-derivative row.
    #[inline(always)]
    pub fn derivatives_at<const R: usize>(&self, st: &TtiStencil<R>, j: usize) -> [f32; 6] {
        let (i, y) = (self.i0 + j, self.dy + j);
        [
            second_diff_axis(self.u, i, st.sx, st.center[0], &st.side[0]),
            second_diff_axis(self.u, i, st.sy, st.center[1], &st.side[1]),
            second_diff_axis(self.u, i, 1, st.center[2], &st.side[2]),
            first_diff_axis(self.cache, y, st.plane, &st.w1x),
            first_diff_axis(self.dx, R + j, 1, &st.w1z),
            first_diff_axis(self.cache, y, 1, &st.w1z),
        ]
    }
}

/// The per-point coefficient rows of the fused TTI update, one value per
/// pencil point.
#[derive(Debug, Clone, Copy)]
pub struct TtiCoeffs<'a> {
    /// Leap-frog factor of `u`.
    pub c1: &'a [f32],
    /// Leap-frog factor of `u⁻`.
    pub c2: &'a [f32],
    /// Leap-frog factor of the right-hand side.
    pub c3: &'a [f32],
    /// `1 + 2ε`.
    pub eps2: &'a [f32],
    /// `√(1 + 2δ)`.
    pub delta: &'a [f32],
    /// The rotation of `G_z̄z̄` as `[2a, 2b, c]`, with
    /// `(a, b, c) = (sinθcosφ, sinθsinφ, cosθ)`: the update forms its six
    /// products per point ([`tti_at_r`]).
    pub rot: [&'a [f32]; 3],
}

/// Fused TTI update at pencil point `j` from `um = [p⁻, q⁻]`. From
/// `rot = [2a, 2b, c]` it forms `a = ½·2a`, `b = ½·2b` and the rotation
/// products `g = [a·a, b·b, c·c, a·2b, 2a·c, 2b·c]` — the values `a·a`, …,
/// `2·a·b`, `2·a·c`, `2·b·c` evaluate to, halving and doubling being exact
/// (DESIGN.md §10). With `gzz = g0·xx + g1·yy + g2·zz + g3·xy + g4·xz + g5·yz`
/// per field and `gh = ((pxx + pyy) + pzz) − gzz_p`, returns
/// `[(c1·p − c2·p⁻) + c3·(eps2·gh + delta·gzz_q),
///   (c1·q − c2·q⁻) + c3·(delta·gh + gzz_q)]`.
#[inline(always)]
pub fn tti_at_r<const R: usize>(
    st: &TtiStencil<R>,
    f: &[TtiField; 2],
    c: &TtiCoeffs,
    j: usize,
    um: [f32; 2],
) -> [f32; 2] {
    let [pxx, pyy, pzz, pxy, pxz, pyz] = f[0].derivatives_at(st, j);
    let [qxx, qyy, qzz, qxy, qxz, qyz] = f[1].derivatives_at(st, j);
    let [a2, b2, cc] = c.rot.map(|r| r[j]);
    let (a, b) = (0.5 * a2, 0.5 * b2);
    let [g0, g1, g2, g3, g4, g5] = [a * a, b * b, cc * cc, a * b2, a2 * cc, b2 * cc];
    let gzz_p = g0 * pxx + g1 * pyy + g2 * pzz + g3 * pxy + g4 * pxz + g5 * pyz;
    let gzz_q = g0 * qxx + g1 * qyy + g2 * qzz + g3 * qxy + g4 * qxz + g5 * qyz;
    let gh = (pxx + pyy + pzz) - gzz_p;
    let rhs_p = c.eps2[j] * gh + c.delta[j] * gzz_q;
    let rhs_q = c.delta[j] * gh + gzz_q;
    let (c1, c2, c3) = (c.c1[j], c.c2[j], c.c3[j]);
    [
        c1 * f[0].u[f[0].i0 + j] - c2 * um[0] + c3 * rhs_p,
        c1 * f[1].u[f[1].i0 + j] - c2 * um[1] + c3 * rhs_q,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample a function on a 1-D line embedded in a padded slice and return
    /// (slice, center index).
    fn line(f: impl Fn(f64) -> f64, n: usize, h: f64) -> (Vec<f32>, usize) {
        let u: Vec<f32> = (0..n).map(|k| f(k as f64 * h) as f32).collect();
        (u, n / 2)
    }

    #[test]
    fn second_diff_quadratic_exact() {
        // u = x² ⇒ u'' = 2 everywhere, exactly representable at any order.
        let h = 0.5;
        let (u, c) = line(|x| x * x, 33, h);
        for order in [2, 4, 8, 12] {
            let w = AxisWeights::second_derivative(order, h as f32);
            let v = second_diff_axis(&u, c, 1, w.center, &w.side);
            assert!((v - 2.0).abs() < 1e-3, "order {order}: {v}");
        }
    }

    #[test]
    fn second_diff_convergence_with_order() {
        // u = sin(x): higher order must be more accurate at fixed h.
        let h = 0.2;
        let (u, c) = line(|x| x.sin(), 65, h);
        let x0 = (c as f64) * h;
        let exact = -(x0.sin()) as f32;
        let mut last_err = f32::INFINITY;
        for order in [2, 4, 8] {
            let w = AxisWeights::second_derivative(order, h as f32);
            let err = (second_diff_axis(&u, c, 1, w.center, &w.side) - exact).abs();
            assert!(err < last_err, "order {order} err {err} !< {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-5);
    }

    #[test]
    fn laplacian_matches_sum_of_axes() {
        // 3-D field on a small padded grid, compare composed vs per-axis.
        let (nx, ny, nz) = (9, 9, 9);
        let sx = ny * nz;
        let sy = nz;
        let h = 1.0f32;
        let mut u = vec![0.0f32; nx * ny * nz];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    u[(x * ny + y) * nz + z] =
                        (x as f32).powi(2) * 0.3 + (y as f32).powi(2) * 0.5 + (z as f32).powi(2);
                }
            }
        }
        let w = AxisWeights::second_derivative(4, h);
        let i = (4 * ny + 4) * nz + 4;
        let lx = second_diff_axis(&u, i, sx, w.center, &w.side);
        let ly = second_diff_axis(&u, i, sy, w.center, &w.side);
        let lz = second_diff_axis(&u, i, 1, w.center, &w.side);
        let lap = laplacian_at(&u, i, sx, sy, 3.0 * w.center, &w.side, &w.side, &w.side);
        assert!((lap - (lx + ly + lz)).abs() < 1e-4);
        // Analytic: 2(0.3 + 0.5 + 1.0) = 3.6
        assert!((lap - 3.6).abs() < 1e-3, "{lap}");
    }

    #[test]
    fn cross_diff_exact_on_product() {
        // f(x, y) = x·y embedded in a 3-D grid ⇒ ∂²f/∂x∂y = 1 exactly.
        let (nx, ny, nz) = (17, 17, 3);
        let (sx, sy) = (ny * nz, nz);
        let h = 0.5f32;
        let mut u = vec![0.0f32; nx * ny * nz];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    u[(x * ny + y) * nz + z] = (x as f32 * h) * (y as f32 * h);
                }
            }
        }
        let i = (8 * ny + 8) * nz + 1;
        for order in [2, 4, 8] {
            let w = first_derivative_weights(order, h);
            let v = cross_diff(&u, i, sx, sy, &w, &w);
            assert!((v - 1.0).abs() < 1e-4, "order {order}: {v}");
        }
    }

    #[test]
    fn cross_diff_vanishes_on_separable_quadratic() {
        // f = x² + y²: all mixed derivatives are zero.
        let (nx, ny, nz) = (17, 17, 3);
        let (sx, sy) = (ny * nz, nz);
        let mut u = vec![0.0f32; nx * ny * nz];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    u[(x * ny + y) * nz + z] = (x * x + y * y) as f32;
                }
            }
        }
        let w = first_derivative_weights(4, 1.0);
        let i = (8 * ny + 8) * nz + 1;
        assert!(cross_diff(&u, i, sx, sy, &w, &w).abs() < 1e-4);
    }

    /// `D_a(D_b u)` at `i`: the outer first derivative applied to per-point
    /// inner first derivatives — the association the TTI propagator uses.
    fn composed_diff(u: &[f32], i: usize, sa: usize, sb: usize, wa: &[f32], wb: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (k, &wk) in wa.iter().enumerate() {
            let o = (k + 1) * sa;
            acc += wk * (first_diff_axis(u, i + o, sb, wb) - first_diff_axis(u, i - o, sb, wb));
        }
        acc
    }

    #[test]
    fn composed_diff_exact_on_product() {
        // f(x, y) = x·y ⇒ ∂²f/∂x∂y = 1 exactly, in either order.
        let (nx, ny, nz) = (33, 33, 3);
        let (sx, sy) = (ny * nz, nz);
        let h = 0.5f32;
        let mut u = vec![0.0f32; nx * ny * nz];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    u[(x * ny + y) * nz + z] = (x as f32 * h) * (y as f32 * h);
                }
            }
        }
        let i = (16 * ny + 16) * nz + 1;
        for order in [2, 4, 8, 12] {
            let w = first_derivative_weights(order, h);
            for (sa, sb) in [(sx, sy), (sy, sx)] {
                let v = composed_diff(&u, i, sa, sb, &w, &w);
                assert!((v - 1.0).abs() < 1e-4, "order {order}: {v}");
            }
        }
    }

    #[test]
    fn composed_diff_vanishes_on_separable_quadratic() {
        // f = x² + y²: all mixed derivatives are zero.
        let (nx, ny, nz) = (17, 17, 3);
        let (sx, sy) = (ny * nz, nz);
        let mut u = vec![0.0f32; nx * ny * nz];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    u[(x * ny + y) * nz + z] = (x * x + y * y) as f32;
                }
            }
        }
        let w = first_derivative_weights(4, 1.0);
        let i = (8 * ny + 8) * nz + 1;
        assert!(composed_diff(&u, i, sx, sy, &w, &w).abs() < 1e-4);
    }

    #[test]
    fn composed_diff_is_the_outer_product_up_to_rounding() {
        // The same taps with the same weights, associated differently: the
        // two may differ only by rounding, a few ulp of Σ|w_a·w_b·u| over
        // the shared (2r)² footprint.
        let (nx, ny, nz) = (29, 29, 29);
        let (sx, sy) = (ny * nz, nz);
        let mut rng = tempest_grid::Rng64::new(41);
        let u: Vec<f32> = (0..nx * ny * nz)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        let i = (14 * ny + 14) * nz + 14;
        for order in [4usize, 8, 12] {
            let (wa, wb) = (
                first_derivative_weights(order, 0.7),
                first_derivative_weights(order, 1.3),
            );
            for (sa, sb) in [(sx, sy), (sx, 1), (sy, 1), (1, sx), (1, sy)] {
                let mut scale = 0.0f32;
                for (j, &wj) in wa.iter().enumerate() {
                    for (k, &wk) in wb.iter().enumerate() {
                        let (oa, ob) = ((j + 1) * sa, (k + 1) * sb);
                        for t in [i + oa + ob, i + oa - ob, i - oa + ob, i - oa - ob] {
                            scale += (wj * wk * u[t]).abs();
                        }
                    }
                }
                let composed = composed_diff(&u, i, sa, sb, &wa, &wb);
                let outer = cross_diff(&u, i, sa, sb, &wa, &wb);
                assert!(
                    (composed - outer).abs() <= 8.0 * f32::EPSILON * scale,
                    "order {order} strides ({sa},{sb}): {composed} vs {outer}, scale {scale}"
                );
            }
        }
    }

    #[test]
    fn first_diff_linear_exact() {
        let h = 0.3;
        let (u, c) = line(|x| 3.0 * x + 1.0, 33, h);
        for order in [2, 4, 8, 12] {
            let w = first_derivative_weights(order, h as f32);
            let v = first_diff_axis(&u, c, 1, &w);
            assert!((v - 3.0).abs() < 1e-3, "order {order}: {v}");
        }
    }

    #[test]
    fn staggered_fwd_bwd_relationship() {
        // For u = x, both staggered derivatives are exactly 1.
        let h = 0.5;
        let (u, c) = line(|x| x, 33, h);
        for order in [2, 4, 8] {
            let w = staggered_weights(order, h as f32);
            let f = staggered_diff_fwd(&u, c, 1, &w);
            let b = staggered_diff_bwd(&u, c, 1, &w);
            assert!((f - 1.0).abs() < 1e-4, "fwd {f}");
            assert!((b - 1.0).abs() < 1e-4, "bwd {b}");
        }
    }

    #[test]
    fn staggered_bwd_is_shifted_fwd() {
        let (u, c) = line(|x| (x * 0.3).sin(), 65, 0.25);
        let w = staggered_weights(4, 0.25);
        // derivative at c − ½ computed backward from c equals forward from c−1.
        let b = staggered_diff_bwd(&u, c, 1, &w);
        let f = staggered_diff_fwd(&u, c - 1, 1, &w);
        assert!((b - f).abs() < 1e-6);
    }

    #[test]
    fn weights_scale_with_spacing() {
        let w1 = AxisWeights::second_derivative(4, 1.0);
        let w2 = AxisWeights::second_derivative(4, 2.0);
        assert!((w1.center / w2.center - 4.0).abs() < 1e-5);
        let f1 = first_derivative_weights(4, 1.0);
        let f2 = first_derivative_weights(4, 2.0);
        assert!((f1[0] / f2[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "radius mismatch")]
    fn side_array_checks_radius() {
        let w = AxisWeights::second_derivative(4, 1.0);
        let _: [f32; 3] = w.side_array();
    }
}
