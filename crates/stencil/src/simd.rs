//! The vector row kernels: one body per [`Backend`](crate::Backend) row
//! method, generic over a lane type — `__m256` inside the `Avx2` entries of
//! [`avx2`], [`Portable`] (four lanes) everywhere.
//!
//! A body checks each of its offset windows once per row, then walks the
//! row in steps of [`Lanes::N`] points — one base pointer per stencil term,
//! its weights broadcast once — and finishes the sub-lane tail with the
//! per-point kernel of [`crate::kernels`]. Every lane executes the per-point
//! kernel's operation sequence, each multiply and add rounded on its own
//! (the trait has no `mul_add`, and Rust does not contract), so the rows
//! are bitwise equal to the Scalar backend's.

// Lane loops index fields, lane steps and taps with one counter, in lockstep.
#![allow(clippy::needless_range_loop)]

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use crate::kernels::{self, StaggeredTerm, TtiCoeffs, TtiField, TtiStencil};

/// `N` lanes of `f32` and the operations the row bodies compute with.
pub(crate) trait Lanes: Copy {
    /// Lanes per value.
    const N: usize;
    /// The `N` values from `p`.
    ///
    /// # Safety
    /// `p .. p + N` must lie in one slice.
    unsafe fn load(p: *const f32) -> Self;
    /// Write the lanes to `p .. p + N`.
    ///
    /// # Safety
    /// `p .. p + N` must lie in one writable slice.
    unsafe fn store(self, p: *mut f32);
    fn splat(v: f32) -> Self;
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
}

/// The `Portable` backend's lane type.
#[cfg(target_arch = "x86_64")]
pub(crate) type Portable = __m128;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Portable = [f32; 4];

#[cfg(target_arch = "x86_64")]
impl Lanes for __m128 {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm_storeu_ps(p, self)
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: SSE is baseline on x86_64.
        unsafe { _mm_set1_ps(v) }
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: SSE is baseline on x86_64.
        unsafe { _mm_add_ps(self, b) }
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: SSE is baseline on x86_64.
        unsafe { _mm_sub_ps(self, b) }
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: SSE is baseline on x86_64.
        unsafe { _mm_mul_ps(self, b) }
    }
}

/// The fallback lane type. LLVM scalarizes an `[f32; W]` dataflow and only
/// partly re-vectorizes it (DESIGN.md §10), so where a target has a vector
/// type, that type implements [`Lanes`] instead.
#[cfg(any(test, not(target_arch = "x86_64")))]
impl Lanes for [f32; 4] {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<[f32; 4]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self)
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; 4]
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        std::array::from_fn(|i| self[i] + b[i])
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        std::array::from_fn(|i| self[i] - b[i])
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        std::array::from_fn(|i| self[i] * b[i])
    }
}

/// The row-level bounds check of one window `u[start .. start + n]`: it
/// panics where the per-point kernel's indexing would.
#[inline(always)]
fn check(u: &[f32], start: usize, n: usize) {
    let _ = &u[start..start + n];
}

/// Check a first difference's windows over `n` points, `u[c + shift + k·s ..]`
/// and `u[c − (k + 1)·s ..]`, `k < r` (see [`first`]), and that no offset
/// overflows, so lane pointers offset from `c` reach exactly these windows.
fn check_taps(u: &[f32], c: usize, s: usize, shift: usize, r: usize, n: usize) {
    let reach = (r + 1).checked_mul(s).and_then(|o| c.checked_add(o));
    assert!(reach.is_some() && c >= r * s, "stencil leaves its field");
    for k in 0..r {
        check(u, c + shift + k * s, n);
        check(u, c - (k + 1) * s, n);
    }
}

/// The second differences along `s` at `H` lane steps of `F` rows from
/// `c[f]`, [`kernels::second_diff_axis`] per lane.
///
/// # Safety
/// Every load, `c[f] + h·N` and `c[f] ± (k + 1)·s + h·N`, must lie in a
/// checked window.
#[inline(always)]
unsafe fn second<V: Lanes, const R: usize, const H: usize, const F: usize>(
    c: [*const f32; F],
    s: usize,
    center: f32,
    side: &[f32; R],
) -> [[V; H]; F] {
    const { assert!(R > 0, "a zero-radius stencil checks no window") };
    let vc = V::splat(center);
    let mut acc = [[vc; H]; F];
    for f in 0..F {
        for h in 0..H {
            acc[f][h] = vc.mul(V::load(c[f].add(h * V::N)));
        }
    }
    for (k, &wk) in side.iter().enumerate() {
        let (o, wk) = ((k + 1) * s, V::splat(wk));
        for f in 0..F {
            let (hi, lo) = (c[f].add(o), c[f].sub(o));
            for h in 0..H {
                let sum = V::load(hi.add(h * V::N)).add(V::load(lo.add(h * V::N)));
                acc[f][h] = acc[f][h].add(wk.mul(sum));
            }
        }
    }
    acc
}

/// The first differences `Σₖ w[k]·(c[f][shift + k·s] − c[f][−(k + 1)·s])`
/// at `H` lane steps of `F` rows, summed from `0.0` in `k` order: with
/// `shift = s`, [`kernels::first_diff_axis`]; with `shift = 0`,
/// [`kernels::staggered_diff_bwd`].
///
/// # Safety
/// Every load must lie in a window [`check_taps`] checked.
#[inline(always)]
unsafe fn first<V: Lanes, const R: usize, const H: usize, const F: usize>(
    c: [*const f32; F],
    s: usize,
    shift: usize,
    w: &[V; R],
) -> [[V; H]; F] {
    const { assert!(R > 0, "a zero-radius stencil checks no window") };
    let mut acc = [[V::splat(0.0); H]; F];
    for (k, &wk) in w.iter().enumerate() {
        for f in 0..F {
            let (hi, lo) = (c[f].add(shift + k * s), c[f].sub((k + 1) * s));
            for h in 0..H {
                let d = V::load(hi.add(h * V::N)).sub(V::load(lo.add(h * V::N)));
                acc[f][h] = acc[f][h].add(wk.mul(d));
            }
        }
    }
    acc
}

/// 3-D Laplacian, [`kernels::laplacian_at`] per point: one body for both
/// radii, the compile-time one's array weights making the slices' lengths constants.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn laplacian<V: Lanes>(
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
    let axes = [(wx, sx), (wy, sy), (wz, 1)];
    check(u, i0, n);
    for (w, s) in axes {
        for k in 1..=w.len() {
            check(u, i0 + k * s, n);
            check(u, i0 - k * s, n);
        }
    }
    let (p, vc) = (u.as_ptr(), V::splat(center));
    let mut j = 0;
    // SAFETY: every window was checked over `n` points, and each step
    // reads and writes points `j .. j + N <= n` of them.
    unsafe {
        while j + V::N <= n {
            let mut acc = vc.mul(V::load(p.add(i0 + j)));
            for (w, s) in axes {
                for (k, &wk) in w.iter().enumerate() {
                    let o = (k + 1) * s;
                    let sum = V::load(p.add(i0 + o + j)).add(V::load(p.add(i0 - o + j)));
                    acc = acc.add(V::splat(wk).mul(sum));
                }
            }
            acc.store(out.as_mut_ptr().add(j));
            j += V::N;
        }
    }
    for jj in j..n {
        out[jj] = kernels::laplacian_at(u, i0 + jj, sx, sy, center, wx, wy, wz);
    }
}

/// A row of [`first`] differences of `u` around `c`, weights broadcast once:
/// two lane steps at a time (each tap pointer serves two loads), then one, then `tail`.
#[inline(always)]
fn difference<V: Lanes, const R: usize>(
    (u, c, s, shift): (&[f32], usize, usize, usize),
    w: &[f32; R],
    out: &mut [f32],
    tail: impl Fn(usize) -> f32,
) {
    let n = out.len();
    check_taps(u, c, s, shift, R, n);
    let (p, q, w) = (u.as_ptr(), out.as_mut_ptr(), w.map(V::splat));
    let mut j = 0;
    // SAFETY: as in `laplacian`.
    unsafe {
        while j + 2 * V::N <= n {
            let [[a, b]] = first::<V, R, 2, 1>([p.add(c + j)], s, shift, &w);
            a.store(q.add(j));
            b.store(q.add(j + V::N));
            j += 2 * V::N;
        }
        if j + V::N <= n {
            let [[a]] = first::<V, R, 1, 1>([p.add(c + j)], s, shift, &w);
            a.store(q.add(j));
            j += V::N;
        }
    }
    for jj in j..n {
        out[jj] = tail(jj);
    }
}

/// Centred first derivative, [`kernels::first_diff_axis`] per point.
#[inline(always)]
pub(crate) fn first_diff<V: Lanes, const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    difference::<V, R>((u, i0, s, s), w, out, |j| {
        kernels::first_diff_axis(u, i0 + j, s, w)
    });
}

/// Staggered forward derivative, [`kernels::staggered_diff_fwd`] per point.
#[inline(always)]
pub(crate) fn staggered_fwd<V: Lanes, const R: usize>(
    u: &[f32],
    i0: usize,
    s: usize,
    w: &[f32; R],
    out: &mut [f32],
) {
    let tail = |j| kernels::staggered_diff_fwd(u, i0 + j, s, w);
    difference::<V, R>((u, i0 + s, s, 0), w, out, tail);
}

/// Mixed second derivative `∂²/∂a∂b`, [`kernels::cross_diff`] per point.
#[inline(always)]
pub(crate) fn cross_diff<V: Lanes, const R: usize>(
    u: &[f32],
    i0: usize,
    s1: usize,
    s2: usize,
    w1: &[f32; R],
    w2: &[f32; R],
    out: &mut [f32],
) {
    let n = out.len();
    // `i0 + o1 − o2` and `i0 − o1 + o2` are formed left to right, as the
    // per-point kernel forms them.
    let corners = |a: usize, b: usize| {
        let (o1, o2) = ((a + 1) * s1, (b + 1) * s2);
        [i0 + o1 + o2, i0 - o1 - o2, i0 + o1 - o2, i0 - o1 + o2]
    };
    for a in 0..R {
        for b in 0..R {
            for start in corners(a, b) {
                check(u, start, n);
            }
        }
    }
    let (p, v1, v2) = (u.as_ptr(), w1.map(V::splat), w2.map(V::splat));
    let mut j = 0;
    // SAFETY: as in `laplacian`.
    unsafe {
        while j + V::N <= n {
            let mut acc = V::splat(0.0);
            for (a, &wa) in v1.iter().enumerate() {
                let mut inner = V::splat(0.0);
                for (b, &wb) in v2.iter().enumerate() {
                    let [pp, mm, pm, mp] = corners(a, b).map(|i| V::load(p.add(i + j)));
                    inner = inner.add(wb.mul(pp.add(mm).sub(pm.add(mp))));
                }
                acc = acc.add(wa.mul(inner));
            }
            acc.store(out.as_mut_ptr().add(j));
            j += V::N;
        }
    }
    for jj in j..n {
        out[jj] = kernels::cross_diff(u, i0 + jj, s1, s2, w1, w2);
    }
}

/// One [`StaggeredTerm`] over a row of `n` outputs from `i0`: its windows
/// checked, its weights broadcast once.
struct Term<V, const R: usize> {
    p: *const f32,
    c: usize,
    s: usize,
    w: [V; R],
}

impl<V: Lanes, const R: usize> Term<V, R> {
    #[inline(always)]
    fn new(t: &StaggeredTerm<R>, i0: usize, n: usize) -> Self {
        let c = t.center(i0);
        check_taps(t.u, c, t.s, 0, R, n);
        let (p, s, w) = (t.u.as_ptr(), t.s, t.w.map(V::splat));
        Term { p, c, s, w }
    }

    /// The term's derivative at outputs `j .. j + N`, in
    /// [`StaggeredTerm::at`]'s accumulation order.
    ///
    /// # Safety
    /// `j + N` must not exceed the row's `n`.
    #[inline(always)]
    unsafe fn at(&self, j: usize) -> V {
        first::<V, R, 1, 1>([self.p.add(self.c + j)], self.s, 0, &self.w)[0][0]
    }
}

/// Fused velocity update, [`kernels::velocity_at_r`] per point.
#[inline(always)]
pub(crate) fn velocity<V: Lanes, const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    b: &[f32],
    fd: &[f32],
    v: &mut [f32],
) {
    let n = v.len();
    let [ta, tb, tc] = d.each_ref().map(|t| Term::<V, R>::new(t, i0, n));
    let (pb, pf, pv) = (b[..n].as_ptr(), fd[..n].as_ptr(), v.as_mut_ptr());
    let mut j = 0;
    // SAFETY: as in `laplacian`; `b` and `fd` hold `n` points too.
    unsafe {
        while j + V::N <= n {
            let sum = ta.at(j).add(tb.at(j)).add(tc.at(j));
            let upd = V::load(pv.add(j)).add(V::load(pb.add(j)).mul(sum));
            upd.mul(V::load(pf.add(j))).store(pv.add(j));
            j += V::N;
        }
    }
    for jj in j..n {
        v[jj] = kernels::velocity_at_r(d, i0 + jj, v[jj], b[jj], fd[jj]);
    }
}

/// Fused normal-stress update, [`kernels::normal_stress_at_r`] per point.
#[inline(always)]
pub(crate) fn normal_stress<V: Lanes, const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 3],
    lam: &[f32],
    mu: &[f32],
    fd: &[f32],
    t: [&mut [f32]; 3],
) {
    let [xx, yy, zz] = t;
    let n = xx.len();
    let [tx, ty, tz] = d.each_ref().map(|t| Term::<V, R>::new(t, i0, n));
    let [pl, pm, pf] = [lam, mu, fd].map(|r| r[..n].as_ptr());
    let out = [xx.as_mut_ptr(), yy[..n].as_mut_ptr(), zz[..n].as_mut_ptr()];
    let two = V::splat(2.0);
    let mut j = 0;
    // SAFETY: as in `laplacian`; every other row holds `n` points too.
    unsafe {
        while j + V::N <= n {
            let e = [&tx, &ty, &tz].map(|t| t.at(j));
            let ldiv = V::load(pl.add(j)).mul(e[0].add(e[1]).add(e[2]));
            let mu2 = two.mul(V::load(pm.add(j)));
            let f = V::load(pf.add(j));
            for (p, e) in out.into_iter().zip(e) {
                let sum = V::load(p.add(j)).add(ldiv).add(mu2.mul(e));
                sum.mul(f).store(p.add(j));
            }
            j += V::N;
        }
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

/// Fused shear-stress update, [`kernels::shear_stress_at_r`] per point.
#[inline(always)]
pub(crate) fn shear_stress<V: Lanes, const R: usize>(
    i0: usize,
    d: &[StaggeredTerm<R>; 2],
    mu: &[f32],
    fd: &[f32],
    t: &mut [f32],
) {
    let n = t.len();
    let [ta, tb] = d.each_ref().map(|t| Term::<V, R>::new(t, i0, n));
    let (pm, pf, pt) = (mu[..n].as_ptr(), fd[..n].as_ptr(), t.as_mut_ptr());
    let mut j = 0;
    // SAFETY: as in `laplacian`; `mu` and `fd` hold `n` points too.
    unsafe {
        while j + V::N <= n {
            let sum = ta.at(j).add(tb.at(j));
            let upd = V::load(pt.add(j)).add(V::load(pm.add(j)).mul(sum));
            upd.mul(V::load(pf.add(j))).store(pt.add(j));
            j += V::N;
        }
    }
    for jj in j..n {
        t[jj] = kernels::shear_stress_at_r(d, i0 + jj, t[jj], mu[jj], fd[jj]);
    }
}

/// The fused TTI update's row, its windows checked: both fields' levels at
/// `i0`, `D_y` caches at `dy` and `D_x` rows at `R`, the rotation rows `2a`,
/// `2b`, `c`, the rows `c1`, `c2`, `c3`, `1 + 2ε`, `√(1 + 2δ)`, and `p`, `q`.
struct Tti<'a, const R: usize> {
    st: &'a TtiStencil<R>,
    rows: [[*const f32; 2]; 3],
    rot: [*const f32; 3],
    coef: [*const f32; 5],
    out: [*mut f32; 2],
}

impl<const R: usize> Tti<'_, R> {
    /// Update `H` lane steps of `p` and `q` from `j`: the six rotation
    /// products of [`kernels::tti_at_r`] once per lane step, shared by both
    /// fields, then the six derivatives one at a time, both fields together,
    /// each folded into `gzz` (and `p`'s Laplacian) as soon as it is formed,
    /// so few are live at once.
    ///
    /// # Safety
    /// `j + H·N` must not exceed the row's `n` points.
    #[inline(always)]
    unsafe fn lanes<V: Lanes, const H: usize>(&self, j: usize) {
        let mut g = [[V::splat(0.0); H]; 6];
        let half = V::splat(0.5);
        for h in 0..H {
            let jh = j + h * V::N;
            let [a2, b2, cc] = self.rot.map(|r| V::load(r.add(jh)));
            let (a, b) = (half.mul(a2), half.mul(b2));
            for (k, [x, y]) in [[a, a], [b, b], [cc, cc], [a, b2], [a2, cc], [b2, cc]]
                .into_iter()
                .enumerate()
            {
                g[k][h] = x.mul(y);
            }
        }
        let mut gzz = [[V::splat(0.0); H]; 2];
        let mut fold = |k: usize, d: [[V; H]; 2]| {
            for h in 0..H {
                for f in 0..2 {
                    let t = g[k][h].mul(d[f][h]);
                    gzz[f][h] = if k == 0 { t } else { gzz[f][h].add(t) };
                }
            }
        };
        let (st, [u, dy, dx]) = (self.st, self.rows);
        let at = |r: [*const f32; 2]| [r[0].add(j), r[1].add(j)];
        let xx = second::<V, R, H, 2>(at(u), st.sx, st.center[0], &st.side[0]);
        fold(0, xx);
        let yy = second::<V, R, H, 2>(at(u), st.sy, st.center[1], &st.side[1]);
        fold(1, yy);
        let mut lap = [V::splat(0.0); H];
        for h in 0..H {
            lap[h] = xx[0][h].add(yy[0][h]);
        }
        let zz = second::<V, R, H, 2>(at(u), 1, st.center[2], &st.side[2]);
        fold(2, zz);
        for h in 0..H {
            lap[h] = lap[h].add(zz[0][h]);
        }
        let (w1x, w1z) = (st.w1x.map(V::splat), st.w1z.map(V::splat));
        fold(3, first::<V, R, H, 2>(at(dy), st.plane, st.plane, &w1x));
        fold(4, first::<V, R, H, 2>(at(dx), 1, 1, &w1z));
        fold(5, first::<V, R, H, 2>(at(dy), 1, 1, &w1z));
        for h in 0..H {
            let jh = j + h * V::N;
            let gh = lap[h].sub(gzz[0][h]);
            let [c1, c2, c3, e, d] = self.coef.map(|r| V::load(r.add(jh)));
            let rhs = [e.mul(gh).add(d.mul(gzz[1][h])), d.mul(gh).add(gzz[1][h])];
            for f in 0..2 {
                let keep = c1
                    .mul(V::load(u[f].add(jh)))
                    .sub(c2.mul(V::load(self.out[f].add(jh))));
                keep.add(c3.mul(rhs[f])).store(self.out[f].add(jh));
            }
        }
    }
}

/// Fused TTI update of the `p` and `q` rows, [`kernels::tti_at_r`] per
/// point: two lane steps at a time, so each window pointer serves two
/// loads, then one, then the per-point tail.
#[inline(always)]
pub(crate) fn tti_update<V: Lanes, const R: usize>(
    st: &TtiStencil<R>,
    f: &[TtiField; 2],
    c: &TtiCoeffs,
    p: &mut [f32],
    q: &mut [f32],
) {
    let n = p.len();
    for f in f {
        check(f.u, f.i0, n);
        for s in [st.sx, st.sy, 1] {
            check_taps(f.u, f.i0, s, s, R, n);
        }
        for s in [st.plane, 1] {
            check_taps(f.cache, f.dy, s, s, R, n);
        }
        check_taps(f.dx, R, 1, 1, R, n);
    }
    let coef = [c.c1, c.c2, c.c3, c.eps2, c.delta];
    for row in coef.iter().chain(&c.rot) {
        check(row, 0, n);
    }
    check(q, 0, n);
    let t = Tti {
        st,
        rows: [
            f.each_ref().map(|f| f.u.as_ptr().wrapping_add(f.i0)),
            f.each_ref().map(|f| f.cache.as_ptr().wrapping_add(f.dy)),
            f.each_ref().map(|f| f.dx.as_ptr().wrapping_add(R)),
        ],
        rot: c.rot.map(<[f32]>::as_ptr),
        coef: coef.map(<[f32]>::as_ptr),
        out: [p.as_mut_ptr(), q.as_mut_ptr()],
    };
    let mut j = 0;
    // SAFETY: every window and row was checked over `n` points, and each
    // step reads and writes points `j .. j + H·N <= n` of them.
    unsafe {
        while j + 2 * V::N <= n {
            t.lanes::<V, 2>(j);
            j += 2 * V::N;
        }
        if j + V::N <= n {
            t.lanes::<V, 1>(j);
            j += V::N;
        }
    }
    for jj in j..n {
        [p[jj], q[jj]] = kernels::tti_at_r(st, f, c, jj, [p[jj], q[jj]]);
    }
}

/// The `Avx2` backend: one `#[target_feature(enable = "avx2")]` entry per
/// row body, which runs the body at eight lanes.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::*;

    /// Eight lanes in a 256-bit register. Its methods call AVX intrinsics
    /// from functions that do not enable AVX, so a value is sound to use
    /// only on a CPU with AVX: the type is private to this module, and
    /// only the entries below, which the backend enters after its AVX2
    /// check, make one.
    #[derive(Clone, Copy)]
    struct M256(__m256);

    impl Lanes for M256 {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            M256(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: the CPU has AVX (see the type).
            M256(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: the CPU has AVX (see the type).
            M256(unsafe { _mm256_add_ps(self.0, b.0) })
        }
        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: the CPU has AVX (see the type).
            M256(unsafe { _mm256_sub_ps(self.0, b.0) })
        }
        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: the CPU has AVX (see the type).
            M256(unsafe { _mm256_mul_ps(self.0, b.0) })
        }
    }

    /// `entry<R>(args) => body;`: a `target_feature` entry that runs `body`.
    macro_rules! entries {
        ($($entry:ident $(<$R:ident>)? ($($arg:ident: $ty:ty),*) => $body:path;)*) => {$(
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            pub(crate) fn $entry $(<const $R: usize>)? ($($arg: $ty),*) {
                $body($($arg),*)
            }
        )*};
    }

    entries! {
        laplacian_r<R>(u: &[f32], i0: usize, sx: usize, sy: usize, c: f32, wx: &[f32; R], wy: &[f32; R], wz: &[f32; R], out: &mut [f32]) => super::laplacian::<M256>;
        laplacian(u: &[f32], i0: usize, sx: usize, sy: usize, c: f32, wx: &[f32], wy: &[f32], wz: &[f32], out: &mut [f32]) => super::laplacian::<M256>;
        first_diff<R>(u: &[f32], i0: usize, s: usize, w: &[f32; R], out: &mut [f32]) => super::first_diff::<M256, R>;
        cross_diff<R>(u: &[f32], i0: usize, s1: usize, s2: usize, w1: &[f32; R], w2: &[f32; R], out: &mut [f32]) => super::cross_diff::<M256, R>;
        staggered_fwd<R>(u: &[f32], i0: usize, s: usize, w: &[f32; R], out: &mut [f32]) => super::staggered_fwd::<M256, R>;
        velocity<R>(i0: usize, d: &[StaggeredTerm<R>; 3], b: &[f32], fd: &[f32], v: &mut [f32]) => super::velocity::<M256, R>;
        normal_stress<R>(i0: usize, d: &[StaggeredTerm<R>; 3], lam: &[f32], mu: &[f32], fd: &[f32], t: [&mut [f32]; 3]) => super::normal_stress::<M256, R>;
        shear_stress<R>(i0: usize, d: &[StaggeredTerm<R>; 2], mu: &[f32], fd: &[f32], t: &mut [f32]) => super::shear_stress::<M256, R>;
        tti_update<R>(st: &TtiStencil<R>, f: &[TtiField; 2], c: &TtiCoeffs, p: &mut [f32], q: &mut [f32]) => super::tti_update::<M256, R>;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v`'s lanes.
    fn get<V: Lanes>(v: V) -> Vec<f32> {
        let mut out = vec![0.0; V::N];
        // SAFETY: `out` holds `N` values.
        unsafe { v.store(out.as_mut_ptr()) };
        out
    }

    /// The lanes `a[at .. at + N]`.
    fn put<V: Lanes>(a: &[f32], at: usize) -> V {
        // SAFETY: the slice holds the `N` values.
        unsafe { V::load(a[at..at + V::N].as_ptr()) }
    }

    fn ops<V: Lanes>() {
        let a: V = put(&[1.0, 2.0, 3.0, 4.0], 0);
        let b: V = put(&[0.5, 0.25, -1.0, 2.0], 0);
        assert_eq!(get(a.add(b)), [1.5, 2.25, 2.0, 6.0]);
        assert_eq!(get(a.sub(b)), [0.5, 1.75, 4.0, 2.0]);
        assert_eq!(get(a.mul(b)), [0.5, 0.5, -3.0, 8.0]);
        assert_eq!(get(V::splat(-0.0))[3].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn lane_ops_are_elementwise() {
        ops::<[f32; 4]>();
        ops::<Portable>();
    }

    fn roundtrip<V: Lanes>() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(get(put::<V>(&src, 3)), &src[3..7]);
    }

    #[test]
    fn lane_load_store_roundtrip() {
        roundtrip::<[f32; 4]>();
        roundtrip::<Portable>();
    }

    /// A product then a sum rounds twice, as the per-point kernels do.
    fn unfused<V: Lanes>() {
        let (a, b, c) = (1.0f32 + f32::EPSILON, 1.0f32 - f32::EPSILON, -1.0f32);
        let got = get(V::splat(a).mul(V::splat(b)).add(V::splat(c)))[0];
        assert_eq!(got.to_bits(), (a * b + c).to_bits());
        assert_ne!(got.to_bits(), a.mul_add(b, c).to_bits());
    }

    #[test]
    fn mul_add_is_unfused() {
        unfused::<[f32; 4]>();
        unfused::<Portable>();
    }

    #[test]
    #[should_panic]
    fn window_out_of_bounds_panics_at_row_level() {
        let u = vec![0.0f32; 64];
        let mut out = vec![0.0f32; 8];
        // i0 too close to the end: the row-level window check must fire.
        laplacian::<Portable>(&u, 60, 16, 4, 1.0, &[0.5], &[0.5], &[0.5], &mut out);
    }
}
