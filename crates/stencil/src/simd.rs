//! Pencil-granularity SIMD kernels: explicit fixed-width lanes over whole
//! contiguous `z`-rows.
//!
//! These kernels are the `Portable` arm of every [`crate::backend::Backend`]
//! row method — one of three runtime-selectable implementations (per-point
//! `Scalar`, this module, and the explicit AVX2-intrinsics [`crate::avx2`]
//! module). Backend selection order and the `--kernel` > `TEMPEST_KERNEL` >
//! detected-best override precedence are documented in [`crate::backend`].
//!
//! The per-point kernels in [`crate::kernels`] are correct but ask a lot of
//! the compiler: every call re-proves slice bounds for `2·r·3 + 1` indexed
//! loads and re-loads the weight values, and the surrounding `z` loop only
//! vectorises when LLVM can see through all of it. This module instead works
//! at the granularity the paper's Listing 4 assumes ("SIMD vectorized over
//! the z loop"): one kernel call computes a whole contiguous pencil.
//!
//! Three ideas, in order of importance:
//!
//! 1. **Slice windows per offset.** For a row of `n` outputs starting at
//!    linear index `i0`, each stencil offset `±o` contributes the window
//!    `u[i0±o .. i0±o+n]`. All windows are materialised (and bounds-checked)
//!    *once per row*; the inner loop then runs over pre-validated slices and
//!    carries no per-point checks at all.
//! 2. **Vectorizer-friendly row loops.** With the windows hoisted, each
//!    kernel body is a single pass over `j` (compile-time radius) or one
//!    pass per stencil offset (the dynamic-radius Laplacian) whose iterations
//!    are independent — the exact shape LLVM's loop vectorizer compiles to
//!    [`LANE`]-wide vector loads, multiplies and adds. This beats hand-rolled
//!    lane values on stable Rust: an explicit `[f32; W]` dataflow gets
//!    scalarized by SROA and only partially re-vectorized by SLP (measured
//!    ~3.6× slower than the vectorizer's own output on the same loop; see
//!    `DESIGN.md` §10), whereas the loop form keeps everything in vector
//!    registers. The [`Lane`] type below pins the width-`W` semantics the
//!    vectorizer must honour and is asserted against the kernels in tests;
//!    the same per-lane semantics are realised with real 256-bit intrinsics
//!    by the [`crate::avx2`] kernels, so `Lane` is no longer "only a spec" —
//!    it is the contract both vector backends are tested against.
//! 3. **Bitwise equality.** Every output element executes *exactly* the
//!    floating-point operation sequence of the corresponding scalar kernel:
//!    the same accumulation chain (`acc += w[k] * (…)` in the same `k`
//!    order), no reassociation, no FMA contraction (vectorizing a loop of
//!    independent iterations changes neither). A pencil kernel is therefore
//!    bitwise-interchangeable with a per-point loop over its scalar twin —
//!    the property every schedule-equivalence test in this workspace is
//!    built on, asserted via `to_bits()` in the tests below.
//!
//! Alignment: the kernels accept any `i0`, but grids allocated with
//! lane-aligned `z` rows (`tempest_grid::Array3::from_shape_lane_aligned`,
//! `LevelRing::new_lane_aligned`) give every pencil the same lane phase,
//! which keeps the vector body/epilogue split uniform across rows and lets
//! aligned loads hit full cache lines.

use crate::kernels::{StaggeredTerm, TtiCoeffs, TtiField, TtiStencil};

/// The lane width the pencil kernels are laid out for: 8 × f32 = 256 bits
/// (one AVX2 register; on narrower targets LLVM splits it into two 128-bit
/// ops). Grid containers pad `z` rows to multiples of this width.
pub const LANE: usize = 8;

/// A fixed-width bundle of `W` lanes of `f32`, computed elementwise.
///
/// This is the workspace's hermetic stand-in for `std::simd::f32xW`: a plain
/// `[f32; W]` with `#[inline(always)]` elementwise arithmetic. It is the
/// *executable specification* of one vector-lane step of the pencil kernels:
/// the tests below recompute kernel rows lane-by-lane through this type and
/// assert bitwise agreement with the loop-vectorized kernels.
///
/// **No FMA contraction:** [`mul_add`](Self::mul_add) is defined as a
/// multiply followed by a separate add. Contracting it into a fused op would
/// change results and break the bitwise-equality contract with the scalar
/// kernels (which Rust compiles without contraction).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct Lane<const W: usize>(pub [f32; W]);

impl<const W: usize> Lane<W> {
    /// All lanes set to `v`.
    #[inline(always)]
    pub const fn splat(v: f32) -> Self {
        Lane([v; W])
    }

    /// Load `W` consecutive values from `src[at..at + W]` without a bounds
    /// check.
    ///
    /// # Safety
    /// `at + W <= src.len()` must hold (debug-asserted). The pencil kernels
    /// guarantee it by validating each row window once before the lane loop.
    #[inline(always)]
    pub unsafe fn load(src: &[f32], at: usize) -> Self {
        debug_assert!(at + W <= src.len(), "lane load out of bounds");
        let mut lanes = [0.0f32; W];
        std::ptr::copy_nonoverlapping(src.as_ptr().add(at), lanes.as_mut_ptr(), W);
        Lane(lanes)
    }

    /// Store the lanes to `dst[at..at + W]` without a bounds check.
    ///
    /// # Safety
    /// `at + W <= dst.len()` must hold (debug-asserted); see [`load`](Self::load).
    #[inline(always)]
    pub unsafe fn store(self, dst: &mut [f32], at: usize) {
        debug_assert!(at + W <= dst.len(), "lane store out of bounds");
        std::ptr::copy_nonoverlapping(self.0.as_ptr(), dst.as_mut_ptr().add(at), W);
    }

    /// Elementwise `self * a + b` as two separate ops (kept unfused so each
    /// lane matches the scalar kernels bitwise).
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> std::ops::$trait for Lane<W> {
            type Output = Lane<W>;
            #[inline(always)]
            fn $method(self, rhs: Lane<W>) -> Lane<W> {
                let mut out = [0.0f32; W];
                let mut i = 0;
                while i < W {
                    out[i] = self.0[i] $op rhs.0[i];
                    i += 1;
                }
                Lane(out)
            }
        }
    };
}

lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);

/// The window `u[start .. start + n]`; the single row-level bounds check of
/// each offset (panics exactly when the scalar kernel would).
#[inline(always)]
fn window(u: &[f32], start: usize, n: usize) -> &[f32] {
    &u[start..start + n]
}

/// One accumulation pass of the multipass (dynamic-radius) Laplacian:
/// `out[j] += wk * (p[j] + m[j])` over the whole row — the same term, in the
/// same chain position, the scalar kernel adds for this offset pair.
#[inline(always)]
fn axpy_sum(out: &mut [f32], wk: f32, p: &[f32], m: &[f32]) {
    for ((o, &pv), &mv) in out.iter_mut().zip(p).zip(m) {
        *o += wk * (pv + mv);
    }
}

/// The `±k` windows of one centred derivative over a pencil of `n` points,
/// bounds-checked once.
struct Taps<'a, const R: usize> {
    plus: [&'a [f32]; R],
    minus: [&'a [f32]; R],
}

impl<'a, const R: usize> Taps<'a, R> {
    #[inline(always)]
    fn new(u: &'a [f32], i: usize, s: usize, n: usize) -> Self {
        Taps {
            plus: std::array::from_fn(|k| window(u, i + (k + 1) * s, n)),
            minus: std::array::from_fn(|k| window(u, i - (k + 1) * s, n)),
        }
    }

    /// [`second_diff_axis_r`](crate::kernels::second_diff_axis_r) at point
    /// `j`, whose own value is `c`.
    #[inline(always)]
    fn second(&self, c: f32, center: f32, side: &[f32; R], j: usize) -> f32 {
        let mut acc = center * c;
        let mut k = 0;
        while k < R {
            acc += side[k] * (self.plus[k][j] + self.minus[k][j]);
            k += 1;
        }
        acc
    }

    /// [`first_diff_axis_r`](crate::kernels::first_diff_axis_r) at point `j`.
    #[inline(always)]
    fn first(&self, w: &[f32; R], j: usize) -> f32 {
        let mut acc = 0.0f32;
        let mut k = 0;
        while k < R {
            acc += w[k] * (self.plus[k][j] - self.minus[k][j]);
            k += 1;
        }
        acc
    }
}

/// Second derivative along one axis for a whole pencil, compile-time radius:
/// `out[j]` receives [`second_diff_axis_r`](crate::kernels::second_diff_axis_r)
/// at linear index `i0 + j` (stride `s`).
pub fn second_diff_pencil_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    center: f32,
    side: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    let (c, taps) = (window(u, i0, n), Taps::new(u, i0, s, n));
    for (j, o) in out.iter_mut().enumerate() {
        *o = taps.second(c[j], center, side, j);
    }
}

/// 3-D Laplacian for a whole pencil, compile-time radius: `out[j]` receives
/// [`laplacian_at_r`](crate::kernels::laplacian_at_r) at `i0 + j` (strides
/// `sx`, `sy`, `sz = 1`; `center` is the combined centre weight, as in the
/// scalar kernel).
#[allow(clippy::too_many_arguments)]
pub fn laplacian_pencil_r<const R: usize>(
    u: &[f32],
    i0: usize,
    sx: usize,
    sy: usize,
    center: f32,
    wx: &[f32; R],
    wy: &[f32; R],
    wz: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    let c = window(u, i0, n);
    let xp: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 + (k + 1) * sx, n));
    let xm: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 - (k + 1) * sx, n));
    let yp: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 + (k + 1) * sy, n));
    let ym: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 - (k + 1) * sy, n));
    let zp: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 + (k + 1), n));
    let zm: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 - (k + 1), n));
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = center * c[j];
        let mut k = 0;
        while k < R {
            acc += wx[k] * (xp[k][j] + xm[k][j]);
            k += 1;
        }
        k = 0;
        while k < R {
            acc += wy[k] * (yp[k][j] + ym[k][j]);
            k += 1;
        }
        k = 0;
        while k < R {
            acc += wz[k] * (zp[k][j] + zm[k][j]);
            k += 1;
        }
        *o = acc;
    }
}

/// 3-D Laplacian for a whole pencil, dynamic radius (mirror of
/// [`laplacian_at`](crate::kernels::laplacian_at); the fallback for space
/// orders without a monomorphised propagator kernel).
#[allow(clippy::too_many_arguments)]
pub fn laplacian_pencil(
    u: &[f32],
    i0: usize,
    sx: usize,
    sy: usize,
    center: f32,
    wx: &[f32],
    wy: &[f32],
    wz: &[f32],
    out: &mut [f32],
) {
    let n = out.len();
    let c = window(u, i0, n);
    for (o, &cv) in out.iter_mut().zip(c) {
        *o = center * cv;
    }
    for (w, s) in [(wx, sx), (wy, sy), (wz, 1)] {
        for (k, &wk) in w.iter().enumerate() {
            let o = (k + 1) * s;
            axpy_sum(out, wk, window(u, i0 + o, n), window(u, i0 - o, n));
        }
    }
}

/// Centred first derivative for a whole pencil (antisymmetric weights,
/// compile-time radius; mirror of
/// [`first_diff_axis_r`](crate::kernels::first_diff_axis_r)): one pass over
/// the row.
pub fn first_diff_pencil_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let taps = Taps::new(u, i0, s, out.len());
    for (j, o) in out.iter_mut().enumerate() {
        *o = taps.first(w, j);
    }
}

/// Mixed second derivative `∂²/∂a∂b` for a whole pencil, compile-time radius
/// (mirror of [`cross_diff_r`](crate::kernels::cross_diff_r)).
pub fn cross_diff_pencil_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s1: usize,
    s2: usize,
    w1: &[f32; R],
    w2: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    // Four (R × R) window grids: ±o1 ±o2. `i0 + o1 - o2` / `i0 - o1 + o2`
    // stay in bounds exactly when the scalar kernel's accesses do.
    let pp: [[&[f32]; R]; R] = std::array::from_fn(|j| {
        std::array::from_fn(|k| window(u, i0 + (j + 1) * s1 + (k + 1) * s2, n))
    });
    let mm: [[&[f32]; R]; R] = std::array::from_fn(|j| {
        std::array::from_fn(|k| window(u, i0 - (j + 1) * s1 - (k + 1) * s2, n))
    });
    let pm: [[&[f32]; R]; R] = std::array::from_fn(|j| {
        std::array::from_fn(|k| window(u, i0 + (j + 1) * s1 - (k + 1) * s2, n))
    });
    let mp: [[&[f32]; R]; R] = std::array::from_fn(|j| {
        std::array::from_fn(|k| window(u, i0 - (j + 1) * s1 + (k + 1) * s2, n))
    });
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        let mut j = 0;
        while j < R {
            let mut inner = 0.0f32;
            let mut k = 0;
            while k < R {
                inner += w2[k]
                    * ((pp[j][k][i] + mm[j][k][i]) - (pm[j][k][i] + mp[j][k][i]));
                k += 1;
            }
            acc += w1[j] * inner;
            j += 1;
        }
        *o = acc;
    }
}

/// Staggered forward first derivative (at `i + ½`) for a whole pencil,
/// compile-time radius (mirror of
/// [`staggered_diff_fwd_r`](crate::kernels::staggered_diff_fwd_r)).
pub fn staggered_pencil_fwd_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    let plus: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 + (k + 1) * s, n));
    let minus: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 - k * s, n));
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        let mut k = 0;
        while k < R {
            acc += w[k] * (plus[k][j] - minus[k][j]);
            k += 1;
        }
        *o = acc;
    }
}

/// Staggered backward first derivative (at `i − ½`) for a whole pencil,
/// compile-time radius (mirror of
/// [`staggered_diff_bwd_r`](crate::kernels::staggered_diff_bwd_r)).
pub fn staggered_pencil_bwd_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    let plus: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 + k * s, n));
    let minus: [&[f32]; R] = std::array::from_fn(|k| window(u, i0 - (k + 1) * s, n));
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        let mut k = 0;
        while k < R {
            acc += w[k] * (plus[k][j] - minus[k][j]);
            k += 1;
        }
        *o = acc;
    }
}

/// One [`StaggeredTerm`]'s windows over a row of `n` outputs from `i0`,
/// bounds-checked once.
struct TermWindows<'a, const R: usize> {
    plus: [&'a [f32]; R],
    minus: [&'a [f32]; R],
    w: &'a [f32; R],
}

impl<'a, const R: usize> TermWindows<'a, R> {
    #[inline(always)]
    fn new(t: &StaggeredTerm<'a, R>, i0: usize, n: usize) -> Self {
        let c = t.center(i0);
        TermWindows {
            plus: std::array::from_fn(|k| window(t.u, c + k * t.s, n)),
            minus: std::array::from_fn(|k| window(t.u, c - (k + 1) * t.s, n)),
            w: t.w,
        }
    }

    /// The derivative at output `j`, in [`StaggeredTerm::at`]'s
    /// accumulation order.
    #[inline(always)]
    fn at(&self, j: usize) -> f32 {
        let mut acc = 0.0f32;
        let mut k = 0;
        while k < R {
            acc += self.w[k] * (self.plus[k][j] - self.minus[k][j]);
            k += 1;
        }
        acc
    }
}

/// Fused staggered velocity update for a whole pencil, compile-time radius
/// (mirror of [`velocity_at_r`](crate::kernels::velocity_at_r)).
pub fn velocity_pencil_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    b: &[f32],
    fd: &[f32],
    v: &mut [f32],
) {
    let n = v.len();
    let [da, db, dc] = d.each_ref().map(|t| TermWindows::new(t, i0, n));
    let (b, fd) = (&b[..n], &fd[..n]);
    for j in 0..n {
        v[j] = (v[j] + b[j] * (da.at(j) + db.at(j) + dc.at(j))) * fd[j];
    }
}

/// Fused normal-stress update of the `τxx/τyy/τzz` pencils, compile-time
/// radius (mirror of [`normal_stress_at_r`](crate::kernels::normal_stress_at_r)).
/// The three pencils are separate parameters so the compiler knows they do
/// not alias and vectorizes the row loop.
#[allow(clippy::too_many_arguments)]
pub fn normal_stress_pencil_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    lam: &[f32],
    mu: &[f32],
    fd: &[f32],
    xx: &mut [f32],
    yy: &mut [f32],
    zz: &mut [f32],
) {
    let n = xx.len();
    let [dx, dy, dz] = d.each_ref().map(|t| TermWindows::new(t, i0, n));
    let (lam, mu, fd, yy, zz) = (&lam[..n], &mu[..n], &fd[..n], &mut yy[..n], &mut zz[..n]);
    for j in 0..n {
        let (ex, ey, ez) = (dx.at(j), dy.at(j), dz.at(j));
        let (ldiv, mu2) = (lam[j] * (ex + ey + ez), 2.0 * mu[j]);
        xx[j] = (xx[j] + ldiv + mu2 * ex) * fd[j];
        yy[j] = (yy[j] + ldiv + mu2 * ey) * fd[j];
        zz[j] = (zz[j] + ldiv + mu2 * ez) * fd[j];
    }
}

/// Fused shear-stress update for a whole pencil, compile-time radius
/// (mirror of [`shear_stress_at_r`](crate::kernels::shear_stress_at_r)).
pub fn shear_stress_pencil_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 2],
    mu: &[f32],
    fd: &[f32],
    t: &mut [f32],
) {
    let n = t.len();
    let [da, db] = d.each_ref().map(|t| TermWindows::new(t, i0, n));
    let (mu, fd) = (&mu[..n], &fd[..n]);
    for j in 0..n {
        t[j] = (t[j] + mu[j] * (da.at(j) + db.at(j))) * fd[j];
    }
}

/// One [`TtiField`]'s windows over a pencil of `n` points: its own values
/// and the taps of its six second derivatives.
struct TtiWindows<'a, const R: usize> {
    c: &'a [f32],
    d: [Taps<'a, R>; 6],
}

impl<'a, const R: usize> TtiWindows<'a, R> {
    #[inline(always)]
    fn new(f: &TtiField<'a>, st: &TtiStencil<R>, n: usize) -> Self {
        TtiWindows {
            c: window(f.u, f.i0, n),
            d: [
                Taps::new(f.u, f.i0, st.sx, n),
                Taps::new(f.u, f.i0, st.sy, n),
                Taps::new(f.u, f.i0, 1, n),
                Taps::new(f.cache, f.dy, st.plane, n),
                Taps::new(f.dx, R, 1, n),
                Taps::new(f.cache, f.dy, 1, n),
            ],
        }
    }

    /// The second derivatives at point `j`, as
    /// [`TtiField::derivatives_at`] forms them.
    #[inline(always)]
    fn at(&self, st: &TtiStencil<R>, j: usize) -> [f32; 6] {
        let [xx, yy, zz, xy, xz, yz] = &self.d;
        let c = self.c[j];
        [
            xx.second(c, st.center[0], &st.side[0], j),
            yy.second(c, st.center[1], &st.side[1], j),
            zz.second(c, st.center[2], &st.side[2], j),
            xy.first(&st.w1x, j),
            xz.first(&st.w1z, j),
            yz.first(&st.w1z, j),
        ]
    }
}

/// Fused TTI update of the `p` and `q` pencils, compile-time radius (mirror
/// of [`tti_at_r`](crate::kernels::tti_at_r)). The two pencils are separate
/// parameters so the compiler knows they do not alias and vectorizes the
/// row loop.
pub fn tti_update_pencil_r<const R: usize>(
    st: &TtiStencil<R>,
    f: &[TtiField; 2],
    c: &TtiCoeffs,
    p: &mut [f32],
    q: &mut [f32],
) {
    let n = p.len();
    let (wp, wq) = (TtiWindows::new(&f[0], st, n), TtiWindows::new(&f[1], st, n));
    let [c1, c2, c3, eps2, delta] = [c.c1, c.c2, c.c3, c.eps2, c.delta].map(|r| &r[..n]);
    let [g0, g1, g2, g3, g4, g5] = c.g.map(|g| &g[..n]);
    let q = &mut q[..n];
    for j in 0..n {
        let [pxx, pyy, pzz, pxy, pxz, pyz] = wp.at(st, j);
        let [qxx, qyy, qzz, qxy, qxz, qyz] = wq.at(st, j);
        let gzz_p =
            g0[j] * pxx + g1[j] * pyy + g2[j] * pzz + g3[j] * pxy + g4[j] * pxz + g5[j] * pyz;
        let gzz_q =
            g0[j] * qxx + g1[j] * qyy + g2[j] * qzz + g3[j] * qxy + g4[j] * qxz + g5[j] * qyz;
        let gh = (pxx + pyy + pzz) - gzz_p;
        let rhs_p = eps2[j] * gh + delta[j] * gzz_q;
        let rhs_q = delta[j] * gh + gzz_q;
        p[j] = c1[j] * wp.c[j] - c2[j] * p[j] + c3[j] * rhs_p;
        q[j] = c1[j] * wq.c[j] - c2[j] * q[j] + c3[j] * rhs_q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{
        cross_diff, first_derivative_weights, first_diff_axis, laplacian_at, laplacian_at_r,
        second_diff_axis, staggered_diff_bwd, staggered_diff_fwd, staggered_weights, AxisWeights,
    };
    use tempest_grid::Rng64;

    /// A seeded random padded volume: every value non-trivial so bitwise
    /// comparisons are meaningful.
    fn volume(seed: u64, nx: usize, ny: usize, nz: usize) -> (Vec<f32>, usize, usize) {
        let mut rng = Rng64::new(seed);
        let u: Vec<f32> = (0..nx * ny * nz)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect();
        (u, ny * nz, nz)
    }

    /// Row starts at every lane phase plus remainder lengths: unaligned
    /// bases, rows shorter than a lane, rows with a sub-lane tail.
    fn row_cases(nz: usize, r: usize) -> Vec<(usize, usize)> {
        let mut cases = vec![
            (r, nz - 2 * r),          // full interior row
            (r + 1, nz - 2 * r - 1),  // unaligned base
            (r + 3, 5),               // shorter than one lane
            (r, LANE),                // exactly one lane
            (r + 2, LANE + 3),        // lane + tail
            (r, 0),                   // empty row is a no-op
        ];
        cases.retain(|&(z0, n)| z0 + n + r <= nz);
        cases
    }

    fn arr<const R: usize>(w: &[f32]) -> [f32; R] {
        w.try_into().expect("radius mismatch")
    }

    #[test]
    fn lane_ops_are_elementwise() {
        let a = Lane::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = Lane::<4>([0.5, 0.25, -1.0, 2.0]);
        assert_eq!((a + b).0, [1.5, 2.25, 2.0, 6.0]);
        assert_eq!((a - b).0, [0.5, 1.75, 4.0, 2.0]);
        assert_eq!((a * b).0, [0.5, 0.5, -3.0, 8.0]);
        let c = Lane::<4>::splat(1.0);
        assert_eq!(a.mul_add(b, c).0, [1.5, 1.5, -2.0, 9.0]);
    }

    #[test]
    fn lane_load_store_roundtrip() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 12];
        // SAFETY: 3 + 8 <= 12 on both sides.
        unsafe { Lane::<8>::load(&src, 3).store(&mut dst, 3) };
        assert_eq!(&dst[3..11], &src[3..11]);
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[11], 0.0);
    }

    #[test]
    fn mul_add_is_unfused() {
        // Pick values where fma(a, b, c) != a*b + c in f32: the contract is
        // two roundings, exactly like the scalar kernels.
        let a = 1.0f32 + f32::EPSILON;
        let b = 1.0f32 - f32::EPSILON;
        let c = -1.0f32;
        let lane = Lane::<1>::splat(a).mul_add(Lane::splat(b), Lane::splat(c));
        assert_eq!(lane.0[0].to_bits(), (a * b + c).to_bits());
        assert_ne!(lane.0[0].to_bits(), a.mul_add(b, c).to_bits());
    }

    /// [`Lane`] is the executable spec of one vector step: recomputing a
    /// kernel row lane-by-lane through explicit `Lane` ops must reproduce the
    /// loop-vectorized kernel bit-for-bit (same chain, unfused `mul_add`).
    #[test]
    fn lane_spec_matches_laplacian_pencil_bitwise() {
        let (nx, ny, nz) = (20, 20, 40);
        let (u, sx, sy) = volume(31, nx, ny, nz);
        const R: usize = 4;
        let w = AxisWeights::second_derivative(2 * R, 4.0);
        let side: [f32; R] = w.side_array();
        let center = 3.0 * w.center;
        let n = nz - 2 * R;
        let i0 = (R * ny + R) * nz + R;
        let mut out = vec![0.0f32; n];
        laplacian_pencil_r::<R>(&u, i0, sx, sy, center, &side, &side, &side, &mut out);
        let mut spec = vec![0.0f32; n];
        let lanes = n - n % LANE;
        let mut j = 0;
        while j < lanes {
            // SAFETY: j + LANE <= n and every window offset stays in bounds
            // (the kernel call above validated the same accesses).
            unsafe {
                let mut acc = Lane::<LANE>::splat(center) * Lane::load(&u[i0..], j);
                for s in [sx, sy, 1] {
                    for (k, &wk) in side.iter().enumerate() {
                        let o = (k + 1) * s;
                        let sum = Lane::load(&u[i0 + o..], j) + Lane::load(&u[i0 - o..], j);
                        acc = acc + Lane::splat(wk) * sum;
                    }
                }
                acc.store(&mut spec, j);
            }
            j += LANE;
        }
        for (jj, sp) in spec.iter_mut().enumerate().skip(lanes) {
            *sp = laplacian_at_r::<R>(&u, i0 + jj, sx, sy, center, &side, &side, &side);
        }
        for (j, (&a, &b)) in out.iter().zip(&spec).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "lane spec diverges at j={j}");
        }
    }

    #[test]
    fn second_diff_pencil_matches_scalar_bitwise() {
        let (nx, ny, nz) = (20, 20, 37);
        let (u, sx, sy) = volume(7, nx, ny, nz);
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w = AxisWeights::second_derivative(order, 7.5);
            for s in [sx, sy, 1usize] {
                for &(z0, n) in &row_cases(nz, r) {
                    let i0 = (r * ny + r) * nz + z0;
                    let mut out = vec![0.0f32; n];
                    match r {
                        2 => second_diff_pencil_r::<2>(
                            &u, i0, s, w.center, &w.side_array(), &mut out,
                        ),
                        4 => second_diff_pencil_r::<4>(
                            &u, i0, s, w.center, &w.side_array(), &mut out,
                        ),
                        6 => second_diff_pencil_r::<6>(
                            &u, i0, s, w.center, &w.side_array(), &mut out,
                        ),
                        _ => unreachable!(),
                    }
                    for (j, &v) in out.iter().enumerate() {
                        let want = second_diff_axis(&u, i0 + j, s, &w);
                        assert_eq!(v.to_bits(), want.to_bits(), "order {order} s {s} j {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn laplacian_pencil_matches_scalar_bitwise() {
        let (nx, ny, nz) = (22, 21, 41);
        let (u, sx, sy) = volume(11, nx, ny, nz);
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w = AxisWeights::second_derivative(order, 3.0);
            let center = 3.0 * w.center;
            for &(z0, n) in &row_cases(nz, r) {
                let i0 = (r * ny + r) * nz + z0;
                let mut out = vec![0.0f32; n];
                let mut out_r = vec![0.0f32; n];
                laplacian_pencil(&u, i0, sx, sy, center, &w.side, &w.side, &w.side, &mut out);
                match r {
                    2 => {
                        let a: [f32; 2] = w.side_array();
                        laplacian_pencil_r::<2>(&u, i0, sx, sy, center, &a, &a, &a, &mut out_r);
                    }
                    4 => {
                        let a: [f32; 4] = w.side_array();
                        laplacian_pencil_r::<4>(&u, i0, sx, sy, center, &a, &a, &a, &mut out_r);
                    }
                    6 => {
                        let a: [f32; 6] = w.side_array();
                        laplacian_pencil_r::<6>(&u, i0, sx, sy, center, &a, &a, &a, &mut out_r);
                    }
                    _ => unreachable!(),
                }
                for (j, &v) in out.iter().enumerate() {
                    let want = laplacian_at(&u, i0 + j, sx, sy, center, &w.side, &w.side, &w.side);
                    assert_eq!(v.to_bits(), want.to_bits(), "order {order} j {j}");
                    assert_eq!(out_r[j].to_bits(), want.to_bits(), "order {order} j {j} (_r)");
                }
            }
        }
    }

    #[test]
    fn first_diff_pencil_matches_scalar_bitwise() {
        let (nx, ny, nz) = (20, 20, 33);
        let (u, sx, _sy) = volume(13, nx, ny, nz);
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w = first_derivative_weights(order, 2.5);
            for &(z0, n) in &row_cases(nz, r) {
                let i0 = (r * ny + r) * nz + z0;
                let mut out = vec![0.0f32; n];
                match r {
                    2 => first_diff_pencil_r::<2>(&u, i0, sx, &arr(&w), &mut out),
                    4 => first_diff_pencil_r::<4>(&u, i0, sx, &arr(&w), &mut out),
                    6 => first_diff_pencil_r::<6>(&u, i0, sx, &arr(&w), &mut out),
                    _ => unreachable!(),
                }
                for (j, &v) in out.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        first_diff_axis(&u, i0 + j, sx, &w).to_bits(),
                        "order {order} j {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_diff_pencil_matches_scalar_bitwise() {
        let (nx, ny, nz) = (22, 22, 35);
        let (u, sx, sy) = volume(17, nx, ny, nz);
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w = first_derivative_weights(order, 1.5);
            for &(z0, n) in &row_cases(nz, r) {
                let i0 = (r * ny + r) * nz + z0;
                for (s1, s2) in [(sx, sy), (sx, 1usize), (sy, 1usize)] {
                    let mut out = vec![0.0f32; n];
                    match r {
                        2 => {
                            let a: [f32; 2] = w.clone().try_into().unwrap();
                            cross_diff_pencil_r::<2>(&u, i0, s1, s2, &a, &a, &mut out);
                        }
                        4 => {
                            let a: [f32; 4] = w.clone().try_into().unwrap();
                            cross_diff_pencil_r::<4>(&u, i0, s1, s2, &a, &a, &mut out);
                        }
                        6 => {
                            let a: [f32; 6] = w.clone().try_into().unwrap();
                            cross_diff_pencil_r::<6>(&u, i0, s1, s2, &a, &a, &mut out);
                        }
                        _ => unreachable!(),
                    }
                    for (j, &v) in out.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            cross_diff(&u, i0 + j, s1, s2, &w, &w).to_bits(),
                            "order {order} strides ({s1},{s2}) j {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn staggered_pencils_match_scalar_bitwise() {
        let (nx, ny, nz) = (20, 20, 39);
        let (u, sx, sy) = volume(23, nx, ny, nz);
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w = staggered_weights(order, 5.0);
            for &(z0, n) in &row_cases(nz, r) {
                let i0 = (r * ny + r) * nz + z0;
                for s in [sx, sy, 1usize] {
                    let mut f = vec![0.0f32; n];
                    let mut b = vec![0.0f32; n];
                    match r {
                        2 => {
                            staggered_pencil_fwd_r::<2>(&u, i0, s, &arr(&w), &mut f);
                            staggered_pencil_bwd_r::<2>(&u, i0, s, &arr(&w), &mut b);
                        }
                        4 => {
                            staggered_pencil_fwd_r::<4>(&u, i0, s, &arr(&w), &mut f);
                            staggered_pencil_bwd_r::<4>(&u, i0, s, &arr(&w), &mut b);
                        }
                        6 => {
                            staggered_pencil_fwd_r::<6>(&u, i0, s, &arr(&w), &mut f);
                            staggered_pencil_bwd_r::<6>(&u, i0, s, &arr(&w), &mut b);
                        }
                        _ => unreachable!(),
                    }
                    for (j, (&vf, &vb)) in f.iter().zip(&b).enumerate() {
                        let wf = staggered_diff_fwd(&u, i0 + j, s, &w);
                        let wb = staggered_diff_bwd(&u, i0 + j, s, &w);
                        assert_eq!(vf.to_bits(), wf.to_bits(), "fwd order {order} s {s} j {j}");
                        assert_eq!(vb.to_bits(), wb.to_bits(), "bwd order {order} s {s} j {j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn window_out_of_bounds_panics_at_row_level() {
        let u = vec![0.0f32; 64];
        let mut out = vec![0.0f32; 8];
        // i0 too close to the end: the row-level window check must fire.
        laplacian_pencil(&u, 60, 16, 4, 1.0, &[0.5], &[0.5], &[0.5], &mut out);
    }
}
