//! Explicit AVX2 (256-bit) intrinsic kernels — the `Avx2` backend's row
//! bodies.
//!
//! Each function is the hand-vectorized twin of one pencil kernel in
//! [`crate::simd`]: the same hoisted offset windows, validated once per row,
//! then an 8-lane main loop of unaligned 256-bit loads
//! (`_mm256_loadu_ps`) with **separate** multiply and add intrinsics
//! (`_mm256_mul_ps` + `_mm256_add_ps`, never `_mm256_fmadd_ps`). Rust does
//! not enable floating-point contraction, so each lane executes exactly the
//! scalar kernel's accumulation chain — two roundings per `w·(a±b)` term, in
//! the same `k` order — and the results are bitwise identical to
//! [`crate::kernels`]. The sub-lane tail of every row is finished by the
//! per-point scalar kernel itself, which is bitwise-equal by definition.
//!
//! # Safety
//!
//! Every function here is `unsafe` and `#[target_feature(enable = "avx2")]`:
//! calling one on a CPU without AVX2 is undefined behaviour. The only
//! callers are the `Avx2` arms of the [`crate::backend::Backend`] row
//! methods, which assert `is_x86_feature_detected!("avx2")` before entering.
//! Bounds safety is
//! re-established inside each function by the row-level window checks (the
//! same checks, panicking at the same inputs, as the portable kernels);
//! after they pass, every pointer the lane loop dereferences is in bounds.

// Scalar tails index `out[jj]` and read `u` at `i0 + jj` with the same
// counter; the range loop keeps them visibly in lockstep with the scalar
// kernels they delegate to.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

use crate::kernels::{self, StaggeredTerm, TtiCoeffs, TtiField, TtiStencil};
use crate::simd::LANE;

/// Row-level bounds check for one offset window `u[start .. start + n]` —
/// panics exactly when the portable kernel's `window()` (and hence the
/// scalar kernel's indexing) would.
#[inline(always)]
fn check_window(u: &[f32], start: usize, n: usize) {
    let _ = &u[start..start + n];
}

/// 3-D Laplacian row, compile-time radius (twin of
/// [`crate::simd::laplacian_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub unsafe fn laplacian_row_r<const R: usize>(
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
    check_window(u, i0, n);
    for k in 0..R {
        for s in [sx, sy, 1] {
            let o = (k + 1) * s;
            check_window(u, i0 + o, n);
            check_window(u, i0 - o, n);
        }
    }
    let p = u.as_ptr();
    let vc = _mm256_set1_ps(center);
    let mut j = 0;
    while j + LANE <= n {
        let mut acc = _mm256_mul_ps(vc, _mm256_loadu_ps(p.add(i0 + j)));
        for (w, s) in [(&wx[..], sx), (&wy[..], sy), (&wz[..], 1)] {
            for (k, &wk) in w.iter().enumerate() {
                let o = (k + 1) * s;
                let sum = _mm256_add_ps(
                    _mm256_loadu_ps(p.add(i0 + o + j)),
                    _mm256_loadu_ps(p.add(i0 - o + j)),
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(wk), sum));
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::laplacian_at_r::<R>(u, i0 + jj, sx, sy, center, wx, wy, wz);
    }
}

/// 3-D Laplacian row, dynamic radius (twin of
/// [`crate::simd::laplacian_pencil`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub unsafe fn laplacian_row(
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
    check_window(u, i0, n);
    for (w, s) in [(wx, sx), (wy, sy), (wz, 1)] {
        for k in 0..w.len() {
            let o = (k + 1) * s;
            check_window(u, i0 + o, n);
            check_window(u, i0 - o, n);
        }
    }
    let p = u.as_ptr();
    let vc = _mm256_set1_ps(center);
    let mut j = 0;
    while j + LANE <= n {
        let mut acc = _mm256_mul_ps(vc, _mm256_loadu_ps(p.add(i0 + j)));
        for (w, s) in [(wx, sx), (wy, sy), (wz, 1)] {
            for (k, &wk) in w.iter().enumerate() {
                let o = (k + 1) * s;
                let sum = _mm256_add_ps(
                    _mm256_loadu_ps(p.add(i0 + o + j)),
                    _mm256_loadu_ps(p.add(i0 - o + j)),
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(wk), sum));
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::laplacian_at(u, i0 + jj, sx, sy, center, wx, wy, wz);
    }
}

/// Second derivative along one axis for a whole row, compile-time radius
/// (twin of [`crate::simd::second_diff_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn second_diff_row_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    center: f32,
    side: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    check_window(u, i0, n);
    for k in 0..R {
        let o = (k + 1) * s;
        check_window(u, i0 + o, n);
        check_window(u, i0 - o, n);
    }
    let p = u.as_ptr();
    let vc = _mm256_set1_ps(center);
    let mut j = 0;
    while j + LANE <= n {
        let mut acc = _mm256_mul_ps(vc, _mm256_loadu_ps(p.add(i0 + j)));
        for (k, &wk) in side.iter().enumerate() {
            let o = (k + 1) * s;
            let sum = _mm256_add_ps(
                _mm256_loadu_ps(p.add(i0 + o + j)),
                _mm256_loadu_ps(p.add(i0 - o + j)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(wk), sum));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::second_diff_axis_r::<R>(u, i0 + jj, s, center, side);
    }
}

/// Centred first derivative for a whole row, compile-time radius (twin of
/// [`crate::simd::first_diff_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn first_diff_row_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    for k in 0..R {
        let o = (k + 1) * s;
        check_window(u, i0 + o, n);
        check_window(u, i0 - o, n);
    }
    let p = u.as_ptr();
    // Hoisted weight broadcasts and the ×2 unroll of the staggered rows.
    let mut wv = [_mm256_setzero_ps(); R];
    for k in 0..R {
        wv[k] = _mm256_set1_ps(w[k]);
    }
    let mut j = 0;
    while j + 2 * LANE <= n {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let hi = i0 + (k + 1) * s + j;
            let lo = i0 - (k + 1) * s + j;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(p.add(hi)), _mm256_loadu_ps(p.add(lo)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(hi + LANE)),
                _mm256_loadu_ps(p.add(lo + LANE)),
            );
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wk, d0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wk, d1));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc0);
        _mm256_storeu_ps(out.as_mut_ptr().add(j + LANE), acc1);
        j += 2 * LANE;
    }
    while j + LANE <= n {
        let mut acc = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let o = (k + 1) * s;
            let diff = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(i0 + o + j)),
                _mm256_loadu_ps(p.add(i0 - o + j)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wk, diff));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::first_diff_axis_r::<R>(u, i0 + jj, s, w);
    }
}

/// Mixed second derivative `∂²/∂a∂b` for a whole row, compile-time radius
/// (twin of [`crate::simd::cross_diff_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn cross_diff_row_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s1: usize,
    s2: usize,
    w1: &[f32; R],
    w2: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    for jx in 0..R {
        let o1 = (jx + 1) * s1;
        for k in 0..R {
            let o2 = (k + 1) * s2;
            check_window(u, i0 + o1 + o2, n);
            check_window(u, i0 - o1 - o2, n);
            check_window(u, i0 + o1 - o2, n);
            check_window(u, i0 - o1 + o2, n);
        }
    }
    let p = u.as_ptr();
    let mut j = 0;
    while j + LANE <= n {
        let mut acc = _mm256_setzero_ps();
        for (jx, &wj) in w1.iter().enumerate() {
            let o1 = (jx + 1) * s1;
            let mut inner = _mm256_setzero_ps();
            for (k, &wk) in w2.iter().enumerate() {
                let o2 = (k + 1) * s2;
                let same = _mm256_add_ps(
                    _mm256_loadu_ps(p.add(i0 + o1 + o2 + j)),
                    _mm256_loadu_ps(p.add(i0 - o1 - o2 + j)),
                );
                let opposite = _mm256_add_ps(
                    _mm256_loadu_ps(p.add(i0 + o1 - o2 + j)),
                    _mm256_loadu_ps(p.add(i0 - o1 + o2 + j)),
                );
                inner = _mm256_add_ps(
                    inner,
                    _mm256_mul_ps(_mm256_set1_ps(wk), _mm256_sub_ps(same, opposite)),
                );
            }
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(wj), inner));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::cross_diff_r::<R>(u, i0 + jj, s1, s2, w1, w2);
    }
}

/// Staggered forward first derivative (at `i + ½`) for a whole row,
/// compile-time radius (twin of [`crate::simd::staggered_pencil_fwd_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn staggered_fwd_row_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    for k in 0..R {
        check_window(u, i0 + (k + 1) * s, n);
        check_window(u, i0 - k * s, n);
    }
    let p = u.as_ptr();
    // Hoist the weight broadcasts and unroll ×2: two independent
    // accumulator chains per iteration keep the load ports busy (matching
    // the ILP the autovectorizer gives the portable twin).
    let mut wv = [_mm256_setzero_ps(); R];
    for k in 0..R {
        wv[k] = _mm256_set1_ps(w[k]);
    }
    let mut j = 0;
    while j + 2 * LANE <= n {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let hi = i0 + (k + 1) * s + j;
            let lo = i0 - k * s + j;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(p.add(hi)), _mm256_loadu_ps(p.add(lo)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(hi + LANE)),
                _mm256_loadu_ps(p.add(lo + LANE)),
            );
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wk, d0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wk, d1));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc0);
        _mm256_storeu_ps(out.as_mut_ptr().add(j + LANE), acc1);
        j += 2 * LANE;
    }
    while j + LANE <= n {
        let mut acc = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let diff = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(i0 + (k + 1) * s + j)),
                _mm256_loadu_ps(p.add(i0 - k * s + j)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wk, diff));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::staggered_diff_fwd_r::<R>(u, i0 + jj, s, w);
    }
}

/// Staggered backward first derivative (at `i − ½`) for a whole row,
/// compile-time radius (twin of [`crate::simd::staggered_pencil_bwd_r`]).
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn staggered_bwd_row_r<const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    for k in 0..R {
        check_window(u, i0 + k * s, n);
        check_window(u, i0 - (k + 1) * s, n);
    }
    let p = u.as_ptr();
    // Same hoisted-broadcast ×2 unroll as the forward twin.
    let mut wv = [_mm256_setzero_ps(); R];
    for k in 0..R {
        wv[k] = _mm256_set1_ps(w[k]);
    }
    let mut j = 0;
    while j + 2 * LANE <= n {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let hi = i0 + k * s + j;
            let lo = i0 - (k + 1) * s + j;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(p.add(hi)), _mm256_loadu_ps(p.add(lo)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(hi + LANE)),
                _mm256_loadu_ps(p.add(lo + LANE)),
            );
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wk, d0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wk, d1));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc0);
        _mm256_storeu_ps(out.as_mut_ptr().add(j + LANE), acc1);
        j += 2 * LANE;
    }
    while j + LANE <= n {
        let mut acc = _mm256_setzero_ps();
        for (k, &wk) in wv.iter().enumerate() {
            let diff = _mm256_sub_ps(
                _mm256_loadu_ps(p.add(i0 + k * s + j)),
                _mm256_loadu_ps(p.add(i0 - (k + 1) * s + j)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wk, diff));
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        j += LANE;
    }
    for jj in j..n {
        out[jj] = kernels::staggered_diff_bwd_r::<R>(u, i0 + jj, s, w);
    }
}

/// One [`StaggeredTerm`] hoisted for the lane loop: windows checked, weights
/// broadcast.
struct Term<const R: usize> {
    p: *const f32,
    c: usize,
    s: usize,
    w: [__m256; R],
}

/// Check `t`'s windows over a row of `n` outputs from `i0` (panicking where
/// the portable kernel's would) and broadcast its weights.
///
/// # Safety
/// The host CPU must support AVX2.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn term<const R: usize>(t: &StaggeredTerm<R>, i0: usize, n: usize) -> Term<R> {
    let c = t.center(i0);
    for k in 0..R {
        check_window(t.u, c + k * t.s, n);
        check_window(t.u, c - (k + 1) * t.s, n);
    }
    let mut w = [_mm256_setzero_ps(); R];
    for k in 0..R {
        w[k] = _mm256_set1_ps(t.w[k]);
    }
    Term { p: t.u.as_ptr(), c, s: t.s, w }
}

/// The term's derivative at outputs `j .. j + LANE`, in
/// [`StaggeredTerm::at`]'s accumulation order.
///
/// # Safety
/// The host CPU must support AVX2, `t` must come from [`term`] over a row
/// of `n` outputs, and `j + LANE <= n`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn diff<const R: usize>(t: &Term<R>, j: usize) -> __m256 {
    let mut acc = _mm256_setzero_ps();
    for (k, &wk) in t.w.iter().enumerate() {
        let d = _mm256_sub_ps(
            _mm256_loadu_ps(t.p.add(t.c + k * t.s + j)),
            _mm256_loadu_ps(t.p.add(t.c - (k + 1) * t.s + j)),
        );
        acc = _mm256_add_ps(acc, _mm256_mul_ps(wk, d));
    }
    acc
}

/// Fused staggered velocity update for a whole row, compile-time radius
/// (twin of [`crate::simd::velocity_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2, and `b` and `fd` must be at least as long
/// as `v`.
#[target_feature(enable = "avx2")]
pub unsafe fn velocity_row_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    b: &[f32],
    fd: &[f32],
    v: &mut [f32],
) {
    let n = v.len();
    let (ta, tb, tc) = (term(&d[0], i0, n), term(&d[1], i0, n), term(&d[2], i0, n));
    let (pv, pb, pf) = (v.as_mut_ptr(), b.as_ptr(), fd.as_ptr());
    let mut j = 0;
    while j + LANE <= n {
        let sum = _mm256_add_ps(_mm256_add_ps(diff(&ta, j), diff(&tb, j)), diff(&tc, j));
        let upd = _mm256_add_ps(
            _mm256_loadu_ps(pv.add(j)),
            _mm256_mul_ps(_mm256_loadu_ps(pb.add(j)), sum),
        );
        _mm256_storeu_ps(pv.add(j), _mm256_mul_ps(upd, _mm256_loadu_ps(pf.add(j))));
        j += LANE;
    }
    for jj in j..n {
        v[jj] = kernels::velocity_at_r(d, i0 + jj, v[jj], b[jj], fd[jj]);
    }
}

/// Fused normal-stress update of the `τxx/τyy/τzz` rows, compile-time radius
/// (twin of [`crate::simd::normal_stress_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2, and every other slice must be at least
/// as long as `t[0]`.
#[target_feature(enable = "avx2")]
pub unsafe fn normal_stress_row_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    lam: &[f32],
    mu: &[f32],
    fd: &[f32],
    t: [&mut [f32]; 3],
) {
    let [xx, yy, zz] = t;
    let n = xx.len();
    let (tx, ty, tz) = (term(&d[0], i0, n), term(&d[1], i0, n), term(&d[2], i0, n));
    let (pl, pm, pf) = (lam.as_ptr(), mu.as_ptr(), fd.as_ptr());
    let (px, py, pz) = (xx.as_mut_ptr(), yy.as_mut_ptr(), zz.as_mut_ptr());
    let two = _mm256_set1_ps(2.0);
    let mut j = 0;
    while j + LANE <= n {
        let (ex, ey, ez) = (diff(&tx, j), diff(&ty, j), diff(&tz, j));
        let ldiv = _mm256_mul_ps(
            _mm256_loadu_ps(pl.add(j)),
            _mm256_add_ps(_mm256_add_ps(ex, ey), ez),
        );
        let mu2 = _mm256_mul_ps(two, _mm256_loadu_ps(pm.add(j)));
        let f = _mm256_loadu_ps(pf.add(j));
        for (p, e) in [(px, ex), (py, ey), (pz, ez)] {
            let sum = _mm256_add_ps(
                _mm256_add_ps(_mm256_loadu_ps(p.add(j)), ldiv),
                _mm256_mul_ps(mu2, e),
            );
            _mm256_storeu_ps(p.add(j), _mm256_mul_ps(sum, f));
        }
        j += LANE;
    }
    for jj in j..n {
        [xx[jj], yy[jj], zz[jj]] = kernels::normal_stress_at_r(
            d,
            i0 + jj,
            [xx[jj], yy[jj], zz[jj]],
            lam[jj],
            mu[jj],
            fd[jj],
        );
    }
}

/// Fused shear-stress update for a whole row, compile-time radius (twin of
/// [`crate::simd::shear_stress_pencil_r`]).
///
/// # Safety
/// The host CPU must support AVX2, and `mu` and `fd` must be at least as
/// long as `t`.
#[target_feature(enable = "avx2")]
pub unsafe fn shear_stress_row_r<const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 2],
    mu: &[f32],
    fd: &[f32],
    t: &mut [f32],
) {
    let n = t.len();
    let (ta, tb) = (term(&d[0], i0, n), term(&d[1], i0, n));
    let (pt, pm, pf) = (t.as_mut_ptr(), mu.as_ptr(), fd.as_ptr());
    let mut j = 0;
    while j + LANE <= n {
        let sum = _mm256_add_ps(diff(&ta, j), diff(&tb, j));
        let upd = _mm256_add_ps(
            _mm256_loadu_ps(pt.add(j)),
            _mm256_mul_ps(_mm256_loadu_ps(pm.add(j)), sum),
        );
        _mm256_storeu_ps(pt.add(j), _mm256_mul_ps(upd, _mm256_loadu_ps(pf.add(j))));
        j += LANE;
    }
    for jj in j..n {
        t[jj] = kernels::shear_stress_at_r(d, i0 + jj, t[jj], mu[jj], fd[jj]);
    }
}

/// Check `f`'s windows over a pencil of `n` points, panicking where the
/// portable kernel's would.
fn check_tti_field<const R: usize>(f: &TtiField, st: &TtiStencil<R>, n: usize) {
    check_window(f.u, f.i0, n);
    for k in 1..=R {
        for s in [st.sx, st.sy, 1] {
            check_window(f.u, f.i0 + k * s, n);
            check_window(f.u, f.i0 - k * s, n);
        }
        for s in [st.plane, 1] {
            check_window(f.cache, f.dy + k * s, n);
            check_window(f.cache, f.dy - k * s, n);
        }
        check_window(f.dx, R + k, n);
        check_window(f.dx, R - k, n);
    }
}

/// The second derivative along stride `s` of both fields at `H` lane
/// steps, `c[f] + h·LANE ..`, in [`kernels::second_diff_axis_r`]'s
/// accumulation order.
///
/// # Safety
/// The host CPU must support AVX2 and every load must be in bounds.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn second<const R: usize, const H: usize>(
    c: [*const f32; 2],
    s: usize,
    center: f32,
    side: &[f32; R],
) -> [[__m256; H]; 2] {
    let vc = _mm256_set1_ps(center);
    let mut acc = [[_mm256_setzero_ps(); H]; 2];
    for f in 0..2 {
        for h in 0..H {
            acc[f][h] = _mm256_mul_ps(vc, _mm256_loadu_ps(c[f].add(h * LANE)));
        }
    }
    for (k, &wk) in side.iter().enumerate() {
        let (o, wk) = ((k + 1) * s, _mm256_set1_ps(wk));
        for f in 0..2 {
            let (hi, lo) = (c[f].add(o), c[f].sub(o));
            for h in 0..H {
                let sum = _mm256_add_ps(
                    _mm256_loadu_ps(hi.add(h * LANE)),
                    _mm256_loadu_ps(lo.add(h * LANE)),
                );
                acc[f][h] = _mm256_add_ps(acc[f][h], _mm256_mul_ps(wk, sum));
            }
        }
    }
    acc
}

/// The first derivative along stride `s` of both fields at `H` lane steps,
/// `c[f] + h·LANE ..`, in [`kernels::first_diff_axis_r`]'s accumulation
/// order (from `0.0`).
///
/// # Safety
/// The host CPU must support AVX2 and every load must be in bounds.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn first<const R: usize, const H: usize>(
    c: [*const f32; 2],
    s: usize,
    w: &[f32; R],
) -> [[__m256; H]; 2] {
    let mut acc = [[_mm256_setzero_ps(); H]; 2];
    for (k, &wk) in w.iter().enumerate() {
        let (o, wk) = ((k + 1) * s, _mm256_set1_ps(wk));
        for f in 0..2 {
            let (hi, lo) = (c[f].add(o), c[f].sub(o));
            for h in 0..H {
                let diff = _mm256_sub_ps(
                    _mm256_loadu_ps(hi.add(h * LANE)),
                    _mm256_loadu_ps(lo.add(h * LANE)),
                );
                acc[f][h] = _mm256_add_ps(acc[f][h], _mm256_mul_ps(wk, diff));
            }
        }
    }
    acc
}

/// Update `H` lane steps of the `p` and `q` rows from `j`: the six
/// derivatives one at a time, both fields together, each folded into `gzz`
/// (and `p`'s Laplacian) as soon as it is formed, so few are live at once.
///
/// # Safety
/// The host CPU must support AVX2, the pointers must come from
/// [`tti_update_row_r`] over a row of `n` points, and `j + H·LANE <= n`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tti_lanes<const R: usize, const H: usize>(
    st: &TtiStencil<R>,
    [u, dy, dx]: [[*const f32; 2]; 3],
    g: &[*const f32; 6],
    [c1, c2, c3, eps2, delta]: [*const f32; 5],
    out: [*mut f32; 2],
    j: usize,
) {
    let at = |r: [*const f32; 2]| [r[0].add(j), r[1].add(j)];
    let mut gzz = [[_mm256_setzero_ps(); H]; 2];
    let mut fold = |k: usize, d: [[__m256; H]; 2]| {
        for h in 0..H {
            let gk = _mm256_loadu_ps(g[k].add(j + h * LANE));
            for f in 0..2 {
                let t = _mm256_mul_ps(gk, d[f][h]);
                gzz[f][h] = if k == 0 { t } else { _mm256_add_ps(gzz[f][h], t) };
            }
        }
    };
    let xx = second::<R, H>(at(u), st.sx, st.center[0], &st.side[0]);
    fold(0, xx);
    let yy = second::<R, H>(at(u), st.sy, st.center[1], &st.side[1]);
    fold(1, yy);
    let mut lap = [_mm256_setzero_ps(); H];
    for h in 0..H {
        lap[h] = _mm256_add_ps(xx[0][h], yy[0][h]);
    }
    let zz = second::<R, H>(at(u), 1, st.center[2], &st.side[2]);
    fold(2, zz);
    for h in 0..H {
        lap[h] = _mm256_add_ps(lap[h], zz[0][h]);
    }
    fold(3, first::<R, H>(at(dy), st.plane, &st.w1x));
    fold(4, first::<R, H>(at(dx), 1, &st.w1z));
    fold(5, first::<R, H>(at(dy), 1, &st.w1z));
    for h in 0..H {
        let jh = j + h * LANE;
        let gh = _mm256_sub_ps(lap[h], gzz[0][h]);
        let (e, d) = (_mm256_loadu_ps(eps2.add(jh)), _mm256_loadu_ps(delta.add(jh)));
        let rhs = [
            _mm256_add_ps(_mm256_mul_ps(e, gh), _mm256_mul_ps(d, gzz[1][h])),
            _mm256_add_ps(_mm256_mul_ps(d, gh), gzz[1][h]),
        ];
        let (k1, k2, k3) =
            (_mm256_loadu_ps(c1.add(jh)), _mm256_loadu_ps(c2.add(jh)), _mm256_loadu_ps(c3.add(jh)));
        for f in 0..2 {
            let keep = _mm256_sub_ps(
                _mm256_mul_ps(k1, _mm256_loadu_ps(u[f].add(jh))),
                _mm256_mul_ps(k2, _mm256_loadu_ps(out[f].add(jh))),
            );
            _mm256_storeu_ps(out[f].add(jh), _mm256_add_ps(keep, _mm256_mul_ps(k3, rhs[f])));
        }
    }
}

/// Fused TTI update of the `p` and `q` rows, compile-time radius (twin of
/// [`crate::simd::tti_update_pencil_r`]): two lane steps at a time, so each
/// window pointer serves two loads, then one, then the scalar tail.
///
/// # Safety
/// The host CPU must support AVX2, and `q` and every row of `c` must be at
/// least as long as `p`.
#[target_feature(enable = "avx2")]
pub unsafe fn tti_update_row_r<const R: usize>(
    st: &TtiStencil<R>,
    f: &[TtiField; 2],
    c: &TtiCoeffs,
    p: &mut [f32],
    q: &mut [f32],
) {
    let n = p.len();
    check_tti_field(&f[0], st, n);
    check_tti_field(&f[1], st, n);
    let rows = [
        f.each_ref().map(|f| f.u.as_ptr().add(f.i0)),
        f.each_ref().map(|f| f.cache.as_ptr().add(f.dy)),
        f.each_ref().map(|f| f.dx.as_ptr().add(R)),
    ];
    let g = c.g.map(<[f32]>::as_ptr);
    let coef = [c.c1, c.c2, c.c3, c.eps2, c.delta].map(<[f32]>::as_ptr);
    let out = [p.as_mut_ptr(), q.as_mut_ptr()];
    let mut j = 0;
    while j + 2 * LANE <= n {
        tti_lanes::<R, 2>(st, rows, &g, coef, out, j);
        j += 2 * LANE;
    }
    if j + LANE <= n {
        tti_lanes::<R, 1>(st, rows, &g, coef, out, j);
        j += LANE;
    }
    for jj in j..n {
        [p[jj], q[jj]] = kernels::tti_at_r(st, f, c, jj, [p[jj], q[jj]]);
    }
}
