//! Kernel backends and the runtime SIMD dispatcher.
//!
//! Every dense stencil update in the workspace flows through one of three
//! interchangeable row-granularity backends, the variants of [`Backend`]:
//!
//! * `Scalar` — a per-point loop over the [`crate::kernels`] building
//!   blocks. The reference semantics: every other backend must reproduce its
//!   output bit-for-bit.
//! * `Portable` — the row's vector body at four lanes: `__m128` on x86_64,
//!   where SSE2 is baseline, `[f32; 4]` on other targets. Runs anywhere.
//! * `Avx2` — the same body at `__m256`, entered through a
//!   `#[target_feature(enable = "avx2")]` function: unaligned 256-bit loads,
//!   multiply then add with no FMA contraction. Only available where
//!   `is_x86_feature_detected!("avx2")` holds.
//!
//! [`Backend`] is the `Copy` handle the propagators hold: each row kernel is
//! one method whose `match` has one arm per backend (`out[j]` receives the
//! stencil value at linear index `i0 + j`; the fused elastic and TTI updates
//! instead update their rows in place), next to the [`BackendCaps`]
//! capability metadata. The bitwise-equivalence contract is the oracle: for
//! identical inputs, every backend's row output has `to_bits()`-identical
//! elements (asserted by the tests below, at every lane type, and by the
//! workspace-level `kernel_backends` suite), so backends — like schedules —
//! are interchangeable without changing a single output bit.
//!
//! # Dispatch order and override precedence
//!
//! [`default_backend`] resolves once per process (cached in a [`OnceLock`])
//! to the best backend the host supports: `Avx2` where detected, else
//! `Portable`. Overrides, strongest first:
//!
//! 1. an explicit `--kernel` flag (an `Execution` carrying a concrete
//!    `KernelPath`, resolved by `tempest-core`),
//! 2. the [`TEMPEST_KERNEL`](KERNEL_ENV) environment variable
//!    (`scalar` | `portable` | `avx2`; `auto` for detection),
//! 3. the detected best ([`detect_best`]).
//!
//! A forced backend that the host cannot run (e.g. `TEMPEST_KERNEL=avx2` on
//! a non-AVX2 machine) falls back cleanly to [`detect_best`] with a one-time
//! warning on stderr — never UB, never a crash. A future backend (AVX-512,
//! NEON, GPU offload) is a [`Backend`] variant, a lane type or a per-point
//! loop, an arm in each kernel method, and a line in [`detect_best`].

use std::sync::OnceLock;

use crate::kernels::{self, StaggeredTerm, TtiCoeffs, TtiField, TtiStencil};
use crate::simd::{self, Lanes};

/// Capability metadata for one kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCaps {
    /// Stable lowercase name (`scalar`, `portable`, `avx2`) — used by
    /// `--kernel`, `TEMPEST_KERNEL`, report columns and obs labels.
    pub name: &'static str,
    /// f32 elements per vector step (1 = per-point).
    pub lanes: usize,
    /// CPU feature the backend needs at runtime; `None` runs anywhere.
    pub cpu_feature: Option<&'static str>,
}

/// Whether the current host supports a named CPU feature.
fn host_has_feature(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// A row method's `Portable` arm: `body::<R>(args)` at [`simd::Portable`] — in
/// this crate's tests, at `[f32; 4]` while `tests::ARRAY_LANES` is set.
macro_rules! portable {
    ($body:ident $(::<$R:ident>)? ($($arg:expr),*)) => {{
        #[cfg(test)]
        if tests::ARRAY_LANES.get() {
            return simd::$body::<[f32; 4] $(, $R)?>($($arg),*);
        }
        simd::$body::<simd::Portable $(, $R)?>($($arg),*)
    }};
}

/// A row method's `Avx2` arm: assert that the CPU has AVX2 — a mis-forced
/// selection panics with a clear message instead of executing illegal
/// instructions — then run `entry::<R>(args)`, the body at `__m256`.
macro_rules! avx2 {
    ($entry:ident $(::<$R:ident>)? ($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "avx2 kernel backend selected but the CPU does not support AVX2 \
                 (use Backend::available() / the dispatcher to pick a runnable backend)"
            );
            // SAFETY: the entry needs AVX2, asserted just above.
            unsafe { simd::avx2::$entry $(::<$R>)? ($($arg),*) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        panic!("avx2 kernel backend is only available on x86_64")
    }};
}

/// One of the three interchangeable dense-kernel implementations, selectable
/// at runtime. Radius is a const generic on the `_r` row methods
/// (monomorphised per space order by the propagators); every arm of every
/// method is bitwise-identical to the `Scalar` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// Per-point reference kernels ([`crate::kernels`]): they define the
    /// floating-point semantics the other two must match.
    Scalar,
    /// The vector bodies at four lanes; runs anywhere.
    Portable,
    /// The vector bodies at eight lanes (`__m256`); x86_64 with AVX2 only.
    Avx2,
}

impl Backend {
    /// Every backend, in preference order (best last).
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Portable, Backend::Avx2];

    /// Stable lowercase name (matches `--kernel` / `TEMPEST_KERNEL` values).
    pub fn name(self) -> &'static str {
        self.caps().name
    }

    /// Capability metadata of the selected backend.
    pub fn caps(self) -> BackendCaps {
        match self {
            Backend::Scalar => BackendCaps {
                name: "scalar",
                lanes: 1,
                cpu_feature: None,
            },
            Backend::Portable => BackendCaps {
                name: "portable",
                lanes: <simd::Portable as Lanes>::N,
                cpu_feature: None,
            },
            Backend::Avx2 => BackendCaps {
                name: "avx2",
                lanes: 8,
                cpu_feature: Some("avx2"),
            },
        }
    }

    /// Whether the selected backend can run on this host.
    pub fn available(self) -> bool {
        self.caps().cpu_feature.is_none_or(host_has_feature)
    }

    /// Parse a backend name (case-insensitive). `auto` is *not* a backend —
    /// the dispatcher handles it.
    pub fn parse(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "portable" => Some(Backend::Portable),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// 3-D Laplacian row, compile-time radius.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn laplacian_row_r<const R: usize>(
        self,
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
        match self {
            Backend::Scalar => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = kernels::laplacian_at(u, i0 + j, sx, sy, center, wx, wy, wz);
                }
            }
            Backend::Portable => portable!(laplacian(u, i0, sx, sy, center, wx, wy, wz, out)),
            Backend::Avx2 => avx2!(laplacian_r::<R>(u, i0, sx, sy, center, wx, wy, wz, out)),
        }
    }

    /// 3-D Laplacian row, dynamic radius: the acoustic propagator's row at
    /// space orders without a monomorphised kernel.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn laplacian_row(
        self,
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
        match self {
            Backend::Scalar => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = kernels::laplacian_at(u, i0 + j, sx, sy, center, wx, wy, wz);
                }
            }
            Backend::Portable => portable!(laplacian(u, i0, sx, sy, center, wx, wy, wz, out)),
            Backend::Avx2 => avx2!(laplacian(u, i0, sx, sy, center, wx, wy, wz, out)),
        }
    }

    /// Centred first derivative, compile-time radius.
    #[inline]
    pub fn first_diff_row_r<const R: usize>(
        self,
        u: &[f32],
        i0: usize,
        s: usize,
        w: &[f32; R],
        out: &mut [f32],
    ) {
        match self {
            Backend::Scalar => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = kernels::first_diff_axis(u, i0 + j, s, w);
                }
            }
            Backend::Portable => portable!(first_diff::<R>(u, i0, s, w, out)),
            Backend::Avx2 => avx2!(first_diff::<R>(u, i0, s, w, out)),
        }
    }

    /// Mixed second derivative `∂²/∂a∂b`, compile-time radius.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn cross_diff_row_r<const R: usize>(
        self,
        u: &[f32],
        i0: usize,
        s1: usize,
        s2: usize,
        w1: &[f32; R],
        w2: &[f32; R],
        out: &mut [f32],
    ) {
        match self {
            Backend::Scalar => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = kernels::cross_diff(u, i0 + j, s1, s2, w1, w2);
                }
            }
            Backend::Portable => portable!(cross_diff::<R>(u, i0, s1, s2, w1, w2, out)),
            Backend::Avx2 => avx2!(cross_diff::<R>(u, i0, s1, s2, w1, w2, out)),
        }
    }

    /// Staggered forward derivative (at `i + ½`), compile-time radius.
    #[inline]
    pub fn staggered_fwd_row_r<const R: usize>(
        self,
        u: &[f32],
        i0: usize,
        s: usize,
        w: &[f32; R],
        out: &mut [f32],
    ) {
        match self {
            Backend::Scalar => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = kernels::staggered_diff_fwd(u, i0 + j, s, w);
                }
            }
            Backend::Portable => portable!(staggered_fwd::<R>(u, i0, s, w, out)),
            Backend::Avx2 => avx2!(staggered_fwd::<R>(u, i0, s, w, out)),
        }
    }

    /// Fused staggered velocity update of one pencil, compile-time radius:
    /// `v[j] = (v[j] + b[j]·((D₁ + D₂) + D₃))·fd[j]`, each `Dₖ` the term's
    /// derivative at linear index `i0 + j` — one pass, no derivative rows.
    /// The fused kernels are never inlined, so the elastic step's pencil
    /// loop holds one call per update rather than three backends' bodies.
    ///
    /// # Panics
    /// If `b` or `fd` is not as long as `v`, or a term's stencil leaves its
    /// field.
    #[inline(never)]
    pub fn velocity_row_r<const R: usize>(
        self,
        i0: usize,
        d: &[StaggeredTerm<R>; 3],
        b: &[f32],
        fd: &[f32],
        v: &mut [f32],
    ) {
        let n = v.len();
        assert!(
            b.len() == n && fd.len() == n,
            "velocity_row_r: row lengths differ"
        );
        match self {
            Backend::Scalar => {
                for j in 0..n {
                    v[j] = kernels::velocity_at_r(d, i0 + j, v[j], b[j], fd[j]);
                }
            }
            Backend::Portable => portable!(velocity::<R>(i0, d, b, fd, v)),
            Backend::Avx2 => avx2!(velocity::<R>(i0, d, b, fd, v)),
        }
    }

    /// Fused normal-stress update of the `τxx/τyy/τzz` pencils from the
    /// strain rates `d` (`∂x vx`, `∂y vy`, `∂z vz`), compile-time radius:
    /// with `ldiv = lam·((eₓ + e_y) + e_z)` and `mu2 = 2·mu`,
    /// `τₐ[j] = ((τₐ[j] + ldiv) + mu2·eₐ)·fd[j]`.
    ///
    /// # Panics
    /// If the rows are not all as long as `t[0]`, or a term's stencil leaves
    /// its field.
    #[inline(never)]
    pub fn normal_stress_row_r<const R: usize>(
        self,
        i0: usize,
        d: &[StaggeredTerm<R>; 3],
        lam: &[f32],
        mu: &[f32],
        fd: &[f32],
        t: [&mut [f32]; 3],
    ) {
        let n = t[0].len();
        assert!(
            [lam.len(), mu.len(), fd.len(), t[1].len(), t[2].len()]
                .iter()
                .all(|&l| l == n),
            "normal_stress_row_r: row lengths differ"
        );
        match self {
            Backend::Scalar => {
                let [xx, yy, zz] = t;
                for j in 0..n {
                    [xx[j], yy[j], zz[j]] = kernels::normal_stress_at_r(
                        d,
                        i0 + j,
                        [xx[j], yy[j], zz[j]],
                        lam[j],
                        mu[j],
                        fd[j],
                    );
                }
            }
            Backend::Portable => portable!(normal_stress::<R>(i0, d, lam, mu, fd, t)),
            Backend::Avx2 => avx2!(normal_stress::<R>(i0, d, lam, mu, fd, t)),
        }
    }

    /// Fused shear-stress update of one pencil, compile-time radius:
    /// `t[j] = (t[j] + mu[j]·(D₁ + D₂))·fd[j]`.
    ///
    /// # Panics
    /// If `mu` or `fd` is not as long as `t`, or a term's stencil leaves its
    /// field.
    #[inline(never)]
    pub fn shear_stress_row_r<const R: usize>(
        self,
        i0: usize,
        d: &[StaggeredTerm<R>; 2],
        mu: &[f32],
        fd: &[f32],
        t: &mut [f32],
    ) {
        let n = t.len();
        assert!(
            mu.len() == n && fd.len() == n,
            "shear_stress_row_r: row lengths differ"
        );
        match self {
            Backend::Scalar => {
                for j in 0..n {
                    t[j] = kernels::shear_stress_at_r(d, i0 + j, t[j], mu[j], fd[j]);
                }
            }
            Backend::Portable => portable!(shear_stress::<R>(i0, d, mu, fd, t)),
            Backend::Avx2 => avx2!(shear_stress::<R>(i0, d, mu, fd, t)),
        }
    }

    /// Fused TTI update of one output pencil of `p` and `q`, compile-time
    /// radius: per point, both fields' six second derivatives
    /// ([`TtiField::derivatives_at`]), the rotated Laplacian and the
    /// leap-frog step ([`kernels::tti_at_r`]), in one pass. `p` and `q` hold
    /// `p⁻`, `q⁻` on entry and `p⁺`, `q⁺` on return.
    ///
    /// # Panics
    /// If `q` or a row of `c` is not as long as `p`, or a stencil leaves its
    /// level, cache or `D_x` row.
    #[inline(never)]
    pub fn tti_update_row_r<const R: usize>(
        self,
        st: &TtiStencil<R>,
        f: &[TtiField; 2],
        c: &TtiCoeffs,
        p: &mut [f32],
        q: &mut [f32],
    ) {
        let n = p.len();
        assert!(
            [
                q.len(),
                c.c1.len(),
                c.c2.len(),
                c.c3.len(),
                c.eps2.len(),
                c.delta.len()
            ]
            .into_iter()
            .chain(c.rot.map(<[f32]>::len))
            .all(|l| l == n),
            "tti_update_row_r: row lengths differ"
        );
        match self {
            Backend::Scalar => {
                for j in 0..n {
                    [p[j], q[j]] = kernels::tti_at_r(st, f, c, j, [p[j], q[j]]);
                }
            }
            Backend::Portable => portable!(tti_update::<R>(st, f, c, p, q)),
            Backend::Avx2 => avx2!(tti_update::<R>(st, f, c, p, q)),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Name of the environment variable the dispatcher honours.
pub const KERNEL_ENV: &str = "TEMPEST_KERNEL";

/// The best backend the current host supports: `Avx2` where detected,
/// `Portable` everywhere else. `Scalar` is never auto-selected — it exists
/// as the reference semantics and for explicit ablation.
pub fn detect_best() -> Backend {
    if Backend::Avx2.available() {
        Backend::Avx2
    } else {
        Backend::Portable
    }
}

/// Pure dispatch decision: resolve an optional override string (the value
/// of [`KERNEL_ENV`], or `None` when unset) to a runnable backend.
///
/// `auto`, an empty value, an unknown name, or a backend the host cannot
/// run all fall back cleanly to [`detect_best`]; a known, available backend
/// is honoured. Kept free of environment access so tests can cover every
/// case without process-global races.
pub fn choose(request: Option<&str>) -> Backend {
    match request.map(str::trim).filter(|s| !s.is_empty()) {
        None => detect_best(),
        Some(s) if s.eq_ignore_ascii_case("auto") => detect_best(),
        Some(s) => match Backend::parse(s) {
            Some(b) if b.available() => b,
            _ => detect_best(),
        },
    }
}

/// The process-wide default backend: [`choose`] applied to
/// [`KERNEL_ENV`], resolved once and cached in a [`OnceLock`] (later
/// environment changes are ignored). Logs a one-time stderr warning when a
/// forced value could not be honoured.
pub fn default_backend() -> Backend {
    static CHOICE: OnceLock<Backend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        let env = std::env::var(KERNEL_ENV).ok();
        let request = env.as_deref().map(str::trim).filter(|s| !s.is_empty());
        let picked = choose(request);
        if let Some(s) = request {
            if !s.eq_ignore_ascii_case("auto") {
                match Backend::parse(s) {
                    Some(req) if req.available() => {}
                    Some(req) => eprintln!(
                        "tempest: {KERNEL_ENV}={} is not available on this host; using {}",
                        req.name(),
                        picked.name()
                    ),
                    None => eprintln!(
                        "tempest: unknown {KERNEL_ENV} value {s:?}; using {}",
                        picked.name()
                    ),
                }
            }
        }
        picked
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{first_derivative_weights, staggered_weights, AxisWeights};
    use std::cell::Cell;
    use tempest_grid::Rng64;

    /// A seeded random padded volume and its `x`, `y` strides.
    fn volume(seed: u64, nx: usize, ny: usize, nz: usize) -> (Vec<f32>, usize, usize) {
        let mut rng = Rng64::new(seed);
        let u: Vec<f32> = (0..nx * ny * nz)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect();
        (u, ny * nz, nz)
    }

    thread_local! {
        /// While set, the `Portable` arms run their bodies at `[f32; 4]`.
        pub(super) static ARRAY_LANES: Cell<bool> = const { Cell::new(false) };
    }

    /// The vector bodies' lane widths: four (`Portable`, `[f32; 4]`) and
    /// eight (`Avx2`).
    const WIDTHS: [usize; 2] = [4, 8];

    /// Rows `(z0, n)` from aligned and unaligned bases `r`, `r + 1` whose
    /// lengths give a body, at every lane width `N`, two lane steps, one
    /// step and a tail, a tail only, and nothing.
    fn starts(r: usize) -> Vec<(usize, usize)> {
        let lengths = WIDTHS.iter().flat_map(|&n| [2 * n, n + 3, n - 1, 0]);
        lengths.flat_map(|n| [(r, n), (r + 1, n)]).collect()
    }

    /// Whole rows, and [`starts`].
    fn row_cases(nz: usize, r: usize) -> Vec<(usize, usize)> {
        let mut cases = vec![(r, nz - 2 * r), (r + 1, nz - 2 * r - 1)];
        cases.extend(starts(r));
        cases.retain(|&(z0, n)| z0 + n + r <= nz);
        cases
    }

    /// A row body's instance under test: a backend, and whether `Portable`
    /// runs at `[f32; 4]`.
    #[derive(Clone, Copy, Debug)]
    struct Path(Backend, bool);

    impl Path {
        /// Set this path's lane type for `Portable` on this thread; its backend.
        fn select(self) -> Backend {
            ARRAY_LANES.set(self.1);
            self.0
        }
    }

    /// The paths under test on this host: Scalar, Portable at its lane type
    /// and at `[f32; 4]`, and Avx2 where the CPU supports it.
    fn testable() -> Vec<Path> {
        let mut paths = Backend::ALL.map(|b| Path(b, false)).to_vec();
        paths.retain(|p| p.0.available());
        paths.push(Path(Backend::Portable, true));
        paths
    }

    #[test]
    fn caps_are_consistent() {
        assert_eq!(Backend::Scalar.caps().lanes, 1);
        assert_eq!(Backend::Portable.caps().lanes, 4);
        assert_eq!(Backend::Avx2.caps().cpu_feature, Some("avx2"));
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert!(Backend::Scalar.available());
        assert!(Backend::Portable.available());
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_unknown() {
        assert_eq!(Backend::parse("  AVX2 "), Some(Backend::Avx2));
        assert_eq!(Backend::parse("auto"), None);
        assert_eq!(Backend::parse("neon"), None);
        assert_eq!(Backend::parse(""), None);
    }

    #[test]
    fn detect_best_is_available_and_vectorized() {
        let b = detect_best();
        assert!(b.available());
        assert!(
            b.caps().lanes > 1,
            "auto-selected backend must be vectorized"
        );
    }

    #[test]
    fn choose_honours_requests_and_falls_back_cleanly() {
        // No request / auto / empty → detected best.
        assert_eq!(choose(None), detect_best());
        assert_eq!(choose(Some("auto")), detect_best());
        assert_eq!(choose(Some("  ")), detect_best());
        // Always-available backends are honoured verbatim.
        assert_eq!(choose(Some("scalar")), Backend::Scalar);
        assert_eq!(choose(Some("portable")), Backend::Portable);
        // Unknown names never panic, never pick an unrunnable backend.
        assert_eq!(choose(Some("gpu9000")), detect_best());
        // A forced avx2 is honoured exactly when the host supports it.
        let forced = choose(Some("avx2"));
        if Backend::Avx2.available() {
            assert_eq!(forced, Backend::Avx2);
        } else {
            assert_eq!(forced, detect_best());
        }
        assert!(forced.available());
    }

    #[test]
    fn default_backend_is_runnable() {
        assert!(default_backend().available());
    }

    #[test]
    fn all_backends_match_scalar_bitwise_on_every_row_shape() {
        let (nx, ny, nz) = (22, 21, 41);
        let (u, sx, sy) = volume(29, nx, ny, nz);
        // The grid's strides, then `(s, 1)` for every axis `s`.
        let laplacian_strides = [(sx, sy), (sx, 1), (sy, 1), (1, 1)];
        for order in [4usize, 8, 12] {
            let r = order / 2;
            let w2 = AxisWeights::second_derivative(order, 3.0);
            let center = 3.0 * w2.center;
            let w1 = first_derivative_weights(order, 1.5);
            let ws = staggered_weights(order, 5.0);
            for &(z0, n) in &row_cases(nz, r) {
                let i0 = (r * ny + r) * nz + z0;
                for path in testable() {
                    let b = path.select();
                    macro_rules! per_radius {
                        ($R:literal) => {{
                            let side: [f32; $R] = w2.side_array();
                            let w1a: [f32; $R] = w1.clone().try_into().unwrap();
                            let wsa: [f32; $R] = ws.clone().try_into().unwrap();
                            let mut got = vec![0.0f32; n];
                            let mut want = vec![0.0f32; n];
                            for (sa, sb) in laplacian_strides {
                                b.laplacian_row_r::<$R>(
                                    &u, i0, sa, sb, center, &side, &side, &side, &mut got,
                                );
                                Backend::Scalar.laplacian_row_r::<$R>(
                                    &u, i0, sa, sb, center, &side, &side, &side, &mut want,
                                );
                                assert_bits(&got, &want, path, "laplacian_row_r", order);
                            }
                            // The mixed derivative across `z` and every axis.
                            for s in [sx, sy, 1] {
                                b.cross_diff_row_r::<$R>(&u, i0, s, 1, &w1a, &w1a, &mut got);
                                Backend::Scalar
                                    .cross_diff_row_r::<$R>(&u, i0, s, 1, &w1a, &w1a, &mut want);
                                assert_bits(&got, &want, path, "cross_diff_row_r", order);
                            }
                            // The first-derivative row along every axis,
                            // then the shapes the TTI row cache gives it:
                            // the row dilated by `r` into the z halo (a
                            // length that is no lane multiple) and a stride
                            // that is the plane of a packed scratch.
                            let plane = 3 * 2 * (n + 2 * r);
                            for (i, s, len) in [
                                (i0, 1, n),
                                (i0, sy, n),
                                (i0, sx, n),
                                (i0 - r, sy, n + 2 * r),
                                (i0 - r, sx, n + 2 * r),
                                (u.len() / 2, plane, n),
                            ] {
                                let mut got = vec![0.0f32; len];
                                let mut want = vec![0.0f32; len];
                                b.first_diff_row_r::<$R>(&u, i, s, &w1a, &mut got);
                                Backend::Scalar.first_diff_row_r::<$R>(&u, i, s, &w1a, &mut want);
                                assert_bits(&got, &want, path, "first_diff_row_r", order);
                            }
                            // The staggered row along every axis elastic
                            // differentiates.
                            for s in [1, sy, sx] {
                                b.staggered_fwd_row_r::<$R>(&u, i0, s, &wsa, &mut got);
                                Backend::Scalar
                                    .staggered_fwd_row_r::<$R>(&u, i0, s, &wsa, &mut want);
                                assert_bits(&got, &want, path, "staggered_fwd_row_r", order);
                            }
                        }};
                    }
                    match r {
                        2 => per_radius!(2),
                        4 => per_radius!(4),
                        6 => per_radius!(6),
                        _ => unreachable!(),
                    }
                    // The one dynamic-radius row (acoustic at unmonomorphised
                    // space orders).
                    let mut got = vec![0.0f32; n];
                    let mut want = vec![0.0f32; n];
                    for (sa, sb) in laplacian_strides {
                        let ws = &w2.side[..];
                        b.laplacian_row(&u, i0, sa, sb, center, ws, ws, ws, &mut got);
                        Backend::Scalar
                            .laplacian_row(&u, i0, sa, sb, center, ws, ws, ws, &mut want);
                        assert_bits(&got, &want, path, "laplacian_row", order);
                    }
                }
            }
        }
    }

    /// A fused-kernel fixture: three fields on one padded grid, the
    /// staggered weights along `x, y, z`, and random per-point rows.
    struct Fused<const R: usize> {
        f: [Vec<f32>; 3],
        sx: usize,
        sy: usize,
        nz: usize,
        w: [[f32; R]; 3],
        rows: [Vec<f32>; 6],
    }

    impl<const R: usize> Fused<R> {
        fn new() -> Self {
            let (nx, ny, nz) = (2 * R + 3, 2 * R + 2, 2 * R + 3 * WIDTHS[1]);
            let f = [31, 37, 41].map(|seed| volume(seed, nx, ny, nz).0);
            let w = [2.0, 3.0, 5.0].map(|h| staggered_weights(2 * R, h).try_into().unwrap());
            let mut rng = Rng64::new(43);
            let rows = std::array::from_fn(|_| (0..nz).map(|_| rng.next_f32() - 0.25).collect());
            Fused {
                f,
                sx: ny * nz,
                sy: nz,
                nz,
                w,
                rows,
            }
        }

        /// The elastic step body's term patterns over the fixture's fields:
        /// the `vx`, `vy`, `vz` updates and the normal strain rates, then
        /// the `τxy`, `τxz`, `τyz` pairs.
        fn terms(
            &self,
        ) -> (
            [[StaggeredTerm<'_, R>; 3]; 4],
            [[StaggeredTerm<'_, R>; 2]; 3],
        ) {
            let [a, b, c] = &self.f;
            let [wx, wy, wz] = &self.w;
            let (fwd, bwd) = (StaggeredTerm::fwd, StaggeredTerm::bwd);
            let (sx, sy) = (self.sx, self.sy);
            (
                [
                    [fwd(a, sx, wx), bwd(b, sy, wy), bwd(c, 1, wz)],
                    [bwd(b, sx, wx), fwd(a, sy, wy), bwd(c, 1, wz)],
                    [bwd(c, sx, wx), bwd(b, sy, wy), fwd(a, 1, wz)],
                    [bwd(a, sx, wx), bwd(b, sy, wy), bwd(c, 1, wz)],
                ],
                [
                    [fwd(a, sy, wy), fwd(b, sx, wx)],
                    [fwd(a, 1, wz), fwd(c, sx, wx)],
                    [fwd(b, 1, wz), fwd(c, sy, wy)],
                ],
            )
        }

        /// Row starts `(i0, n)` of pencil `(R, R)`: aligned and unaligned
        /// bases × the lengths of [`starts`].
        fn rows(&self) -> Vec<(usize, usize)> {
            let base = (R * self.sx / self.sy + R) * self.nz;
            starts(R)
                .into_iter()
                .map(|(z0, n)| (base + z0, n))
                .collect()
        }

        /// Run the three fused kernels on backend `b` over row `(i0, n)`:
        /// every term pattern, updating fresh copies of the fixture rows.
        /// Returns the updated rows, velocity ones first.
        fn run(&self, b: Backend, i0: usize, n: usize) -> Vec<Vec<f32>> {
            let (triples, pairs) = self.terms();
            let r = |k: usize| self.rows[k][..n].to_vec();
            let (coef, mu, fd) = (&self.rows[0][..n], &self.rows[1][..n], &self.rows[2][..n]);
            let mut out = Vec::new();
            for d in &triples[..3] {
                let mut v = r(3);
                b.velocity_row_r::<R>(i0, d, coef, fd, &mut v);
                out.push(v);
            }
            let (mut xx, mut yy, mut zz) = (r(3), r(4), r(5));
            b.normal_stress_row_r::<R>(i0, &triples[3], coef, mu, fd, [&mut xx, &mut yy, &mut zz]);
            out.extend([xx, yy, zz]);
            for d in &pairs {
                let mut t = r(4);
                b.shear_stress_row_r::<R>(i0, d, mu, fd, &mut t);
                out.push(t);
            }
            out
        }

        /// [`run`](Self::run) on the Scalar backend, whichever `_b`.
        fn scalar(&self, _b: Backend, i0: usize, n: usize) -> Vec<Vec<f32>> {
            self.run(Backend::Scalar, i0, n)
        }

        /// [`run`](Self::run) as the step body computed it before the
        /// kernels were fused, whichever `_b`: each term's derivative row
        /// from the per-point staggered kernels, then the combine loops.
        fn two_passes(&self, _b: Backend, i0: usize, n: usize) -> Vec<Vec<f32>> {
            let (triples, pairs) = self.terms();
            let row = |t: &StaggeredTerm<R>| -> Vec<f32> {
                let diff = if t.fwd {
                    kernels::staggered_diff_fwd
                } else {
                    kernels::staggered_diff_bwd
                };
                (0..n).map(|j| diff(t.u, i0 + j, t.s, t.w)).collect()
            };
            let [coef, mu, fd, v0, t0, t1] = &self.rows;
            let mut out = Vec::new();
            for d in &triples[..3] {
                let [da, db, dc] = d.each_ref().map(row);
                out.push(
                    (0..n)
                        .map(|j| (v0[j] + coef[j] * (da[j] + db[j] + dc[j])) * fd[j])
                        .collect(),
                );
            }
            let [da, db, dc] = triples[3].each_ref().map(row);
            let (mut xx, mut yy, mut zz) = (v0[..n].to_vec(), t0[..n].to_vec(), t1[..n].to_vec());
            for j in 0..n {
                let (exx, eyy, ezz) = (da[j], db[j], dc[j]);
                let (ldiv, mu2) = (coef[j] * (exx + eyy + ezz), 2.0 * mu[j]);
                xx[j] = (xx[j] + ldiv + mu2 * exx) * fd[j];
                yy[j] = (yy[j] + ldiv + mu2 * eyy) * fd[j];
                zz[j] = (zz[j] + ldiv + mu2 * ezz) * fd[j];
            }
            out.extend([xx, yy, zz]);
            for d in &pairs {
                let [da, db] = d.each_ref().map(row);
                out.push(
                    (0..n)
                        .map(|j| (t0[j] + mu[j] * (da[j] + db[j])) * fd[j])
                        .collect(),
                );
            }
            out
        }
    }

    /// Each backend's fused rows against Scalar's, or against the two
    /// passes, for every row shape.
    fn check_fused<const R: usize>(
        what: &str,
        want: impl Fn(&Fused<R>, Backend, usize, usize) -> Vec<Vec<f32>>,
    ) {
        let fx = Fused::<R>::new();
        for path in testable() {
            let b = path.select();
            for (i0, n) in fx.rows() {
                let (got, want) = (fx.run(b, i0, n), want(&fx, b, i0, n));
                assert_eq!((got.len(), want.len()), (9, 9));
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    for (j, (g, w)) in g.iter().zip(w).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{path:?}: {what} differ, update {k} R {R} i0 {i0} n {n} j {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_updates_match_scalar_bitwise() {
        check_fused::<2>("fused rows and Scalar's", Fused::scalar);
        check_fused::<4>("fused rows and Scalar's", Fused::scalar);
        check_fused::<6>("fused rows and Scalar's", Fused::scalar);
    }

    #[test]
    fn fused_updates_equal_the_two_pass_composition() {
        check_fused::<2>("fused rows and two passes", Fused::two_passes);
        check_fused::<4>("fused rows and two passes", Fused::two_passes);
        check_fused::<6>("fused rows and two passes", Fused::two_passes);
    }

    /// A fused-TTI fixture: the two levels on one padded grid, a `D_y` row
    /// cache, the two `D_x` rows, the stencil weights and random per-point
    /// rows (eight coefficients — `c1`, `c2`, `c3`, `1 + 2ε`, `√(1 + 2δ)` and
    /// the rotation `2a`, `2b`, `c` —, then `p⁻` and `q⁻`). With `zeros`, every
    /// level, cache, `D_x` and `u⁻` value is `±0.0`, so the signs of zero
    /// each backend produces are compared too; otherwise every seventh of
    /// those values is `-0.0`.
    struct TtiFixture<const R: usize> {
        u: [Vec<f32>; 2],
        cache: Vec<f32>,
        dx: [Vec<f32>; 2],
        st: TtiStencil<R>,
        rows: [Vec<f32>; 10],
        nz: usize,
    }

    impl<const R: usize> TtiFixture<R> {
        fn new(zeros: bool) -> Self {
            let (nx, ny, nz) = (2 * R + 3, 2 * R + 2, 2 * R + 3 * WIDTHS[1]);
            let plane = 2 * nz + 3;
            let mut rng = Rng64::new(47);
            let mut field = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| match (zeros, rng.next_f32()) {
                        (true, r) if r < 0.5 => -0.0,
                        (true, _) => 0.0,
                        (false, _) if i % 7 == 3 => -0.0,
                        (false, r) => r * 2.0 - 1.0,
                    })
                    .collect()
            };
            let u = [field(nx * ny * nz), field(nx * ny * nz)];
            let cache = field((2 * R + 1) * plane);
            let dx = [field(nz), field(nz)];
            let (pm, qm) = (field(nz), field(nz));
            let mut rng = Rng64::new(53);
            let mut rows: [Vec<f32>; 10] =
                std::array::from_fn(|_| (0..nz).map(|_| rng.next_f32() - 0.25).collect());
            [rows[8], rows[9]] = [pm, qm];
            let w2 = [2.0, 3.0, 5.0].map(|h| AxisWeights::second_derivative(2 * R, h));
            let w1 = |h| first_derivative_weights(2 * R, h).try_into().unwrap();
            let st = TtiStencil {
                sx: ny * nz,
                sy: nz,
                plane,
                center: w2.each_ref().map(|w| w.center),
                side: w2.each_ref().map(AxisWeights::side_array),
                w1x: w1(2.0),
                w1z: w1(5.0),
            };
            TtiFixture {
                u,
                cache,
                dx,
                st,
                rows,
                nz,
            }
        }

        /// Pencil `(R, R)` from `z0` over `n` points: both fields, `D_y p`
        /// and `D_y q` one row of the cache apart, `D_x` rows `n + 2R` long.
        fn fields(&self, z0: usize, n: usize) -> [TtiField<'_>; 2] {
            let i0 = (R * self.st.sx / self.st.sy + R) * self.nz + z0;
            let dy = R * self.st.plane + z0;
            std::array::from_fn(|f| TtiField {
                u: &self.u[f],
                i0,
                cache: &self.cache,
                dy: dy + f * self.nz,
                dx: &self.dx[f][..n + 2 * R],
            })
        }

        fn coeffs(&self, n: usize) -> TtiCoeffs<'_> {
            let r = |k: usize| &self.rows[k][..n];
            TtiCoeffs {
                c1: r(0),
                c2: r(1),
                c3: r(2),
                eps2: r(3),
                delta: r(4),
                rot: std::array::from_fn(|k| r(5 + k)),
            }
        }

        /// Every input `+0.0` but for signed zeros that make the first
        /// derivative `∂xy p` decide an output bit at pencil point `SIGN` of
        /// rows from `z0 = R` — at every lane width `N`, in the two-step
        /// path of a `2N` row and in the one-step path of an `N + 3` row:
        /// there every term of `gzz_p` but `g3·∂xy p` is `-0.0`, and so are
        /// `c1·u − c2·u⁻` and `√(1+2δ)·gzz_q`, so `p⁺ = -0.0` exactly when
        /// `∂xy p` is `+0.0`. Each tap pair of `∂xy p` contributes `-0.0`,
        /// so a first derivative summed from `0.0`, as
        /// [`kernels::first_diff_axis`] is, gives `+0.0`, and one summed
        /// from its first product gives `-0.0`.
        fn signed_zero_first() -> Self {
            // The zero whose product with `w` is `-0.0`, and the one whose
            // product is `+0.0`.
            let neg = |w: f32| if w > 0.0 { -0.0 } else { 0.0 };
            let pos = |w: f32| if w > 0.0 { 0.0 } else { -0.0 };
            let mut fx = TtiFixture::<R>::new(true);
            let st = fx.st;
            for v in fx.u.iter_mut().chain(&mut fx.dx).chain([&mut fx.cache]) {
                v.fill(0.0);
            }
            let [c, ..] = fx.fields(R, 0).map(|f| (f.i0, f.dy));
            // One centre value serves the three straight derivatives.
            assert!(st.center.iter().all(|&w| (w > 0.0) == (st.center[0] > 0.0)));
            let (j, i, dy) = (Self::SIGN, c.0 + Self::SIGN, c.1 + Self::SIGN);
            // `∂xx p`, `∂yy p`, `∂zz p`: every product `-0.0`.
            fx.u[0][i] = neg(st.center[0]);
            for (s, a) in [(st.sx, 0), (st.sy, 1), (1, 2)] {
                for (k, &w) in st.side[a].iter().enumerate() {
                    let o = (k + 1) * s;
                    [fx.u[0][i + o], fx.u[0][i - o]] = [neg(w), neg(w)];
                }
            }
            for (k, (&wx, &wz)) in st.w1x.iter().zip(&st.w1z).enumerate() {
                let o = k + 1;
                // `∂xy p` across the cache: every tap pair `-0.0`.
                fx.cache[dy + o * st.plane] = neg(wx);
                // `∂yz p` along its cached row and `∂xz p` along its `D_x`
                // row: every tap pair `+0.0`.
                fx.cache[dy + o] = pos(wz);
                fx.dx[0][R + j + o] = pos(wz);
            }
            // `c1·u − c2·u⁻ = -0.0`; `√(1+2δ)·gzz_q = -0.0` (`gzz_q` holds
            // `a²·∂xx q = +0.0`); `1 + 2ε`, `c3` keep a sign; `2a·c`,
            // `2b·c < 0 < a·2b`.
            let [c1, c2, c3, eps2, delta, a2, b2, cc, pm, qm] = &mut fx.rows;
            let c1v = if fx.u[0][i].is_sign_negative() {
                0.75
            } else {
                -0.75
            };
            for (row, v) in [
                (c1, c1v),
                (c2, 0.5),
                (c3, 0.25),
                (eps2, 1.5),
                (delta, -1.25),
                (a2, 0.8),
                (b2, 0.6),
                (cc, -0.5),
                (pm, 0.0),
                (qm, 0.0),
            ] {
                row.fill(v);
            }
            let [p, _] = fx.run(Backend::Scalar, R, 2 * WIDTHS[1]);
            assert_eq!(
                p[j].to_bits(),
                (-0.0f32).to_bits(),
                "R {R}: the fixture's sign"
            );
            fx
        }

        /// Where [`signed_zero_first`](Self::signed_zero_first) sets its
        /// signs.
        const SIGN: usize = 3;

        /// Row starts `(z0, n)`: [`starts`].
        fn cases() -> Vec<(usize, usize)> {
            starts(R)
        }

        /// The fused kernel of `b` over row `(z0, n)`: the updated `p`, `q`.
        fn run(&self, b: Backend, z0: usize, n: usize) -> [Vec<f32>; 2] {
            let [mut p, mut q] = [self.rows[8][..n].to_vec(), self.rows[9][..n].to_vec()];
            b.tti_update_row_r::<R>(
                &self.st,
                &self.fields(z0, n),
                &self.coeffs(n),
                &mut p,
                &mut q,
            );
            [p, q]
        }

        /// [`run`](Self::run) on the Scalar backend, whichever `_b`.
        fn scalar(&self, _b: Backend, z0: usize, n: usize) -> [Vec<f32>; 2] {
            self.run(Backend::Scalar, z0, n)
        }

        /// [`run`](Self::run) as the step body computed it before the update
        /// was fused, whichever `_b`: the six derivative rows of each field
        /// from the per-point kernels, then the combine loop over the
        /// rotation products as set-up stored them: `a·a`, …, `2·a·b`,
        /// `2·a·c`, `2·b·c` with `a`, `b` the halves of the `2a`, `2b` rows.
        fn two_passes(&self, _b: Backend, z0: usize, n: usize) -> [Vec<f32>; 2] {
            use kernels::{first_diff_axis as first, second_diff_axis as second};
            let st = &self.st;
            let rows = |f: &TtiField| -> [Vec<f32>; 6] {
                let row = |d: &dyn Fn(usize) -> f32| (0..n).map(d).collect();
                let (i, y, [cx, cy, cz], [wx, wy, wz]) = (f.i0, f.dy, st.center, &st.side);
                [
                    row(&|j| second(f.u, i + j, st.sx, cx, wx)),
                    row(&|j| second(f.u, i + j, st.sy, cy, wy)),
                    row(&|j| second(f.u, i + j, 1, cz, wz)),
                    row(&|j| first(f.cache, y + j, st.plane, &st.w1x)),
                    row(&|j| first(f.dx, R + j, 1, &st.w1z)),
                    row(&|j| first(f.cache, y + j, 1, &st.w1z)),
                ]
            };
            let [fp, fq] = self.fields(z0, n);
            let [pxx, pyy, pzz, pxy, pxz, pyz] = rows(&fp);
            let [qxx, qyy, qzz, qxy, qxz, qyz] = rows(&fq);
            let [c1, c2, c3, er, dr, a2, b2, cc, pm, qm] = &self.rows;
            let (p0, q0) = (&fp.u[fp.i0..], &fq.u[fq.i0..]);
            let (mut pn, mut qn) = (pm[..n].to_vec(), qm[..n].to_vec());
            let rotation = |j: usize| {
                let (a, b, c) = (a2[j] / 2.0, b2[j] / 2.0, cc[j]);
                [a * a, b * b, c * c, 2.0 * a * b, 2.0 * a * c, 2.0 * b * c]
            };
            let [g0, g1, g2, g3, g4, g5]: [Vec<f32>; 6] =
                std::array::from_fn(|k| (0..n).map(|j| rotation(j)[k]).collect());
            for j in 0..n {
                let gzz_p = g0[j] * pxx[j]
                    + g1[j] * pyy[j]
                    + g2[j] * pzz[j]
                    + g3[j] * pxy[j]
                    + g4[j] * pxz[j]
                    + g5[j] * pyz[j];
                let gzz_q = g0[j] * qxx[j]
                    + g1[j] * qyy[j]
                    + g2[j] * qzz[j]
                    + g3[j] * qxy[j]
                    + g4[j] * qxz[j]
                    + g5[j] * qyz[j];
                let gh_p = (pxx[j] + pyy[j] + pzz[j]) - gzz_p;
                let rhs_p = er[j] * gh_p + dr[j] * gzz_q;
                let rhs_q = dr[j] * gh_p + gzz_q;
                pn[j] = c1[j] * p0[j] - c2[j] * pn[j] + c3[j] * rhs_p;
                qn[j] = c1[j] * q0[j] - c2[j] * qn[j] + c3[j] * rhs_q;
            }
            [pn, qn]
        }
    }

    /// Each backend's fused TTI rows against Scalar's, or against the two
    /// passes, for every row shape, on random inputs, on signed zeros, and
    /// on signed zeros where the sign of a zero first derivative reaches
    /// `p⁺`.
    fn check_tti<const R: usize>(
        what: &str,
        want: impl Fn(&TtiFixture<R>, Backend, usize, usize) -> [Vec<f32>; 2],
    ) {
        let fixtures = [
            ("random", TtiFixture::<R>::new(false)),
            ("zeros", TtiFixture::new(true)),
            ("zero-sign", TtiFixture::signed_zero_first()),
        ];
        for (name, fx) in &fixtures {
            for path in testable() {
                let b = path.select();
                for (z0, n) in TtiFixture::<R>::cases() {
                    let (got, want) = (fx.run(b, z0, n), want(fx, b, z0, n));
                    for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                        for (j, (g, w)) in g.iter().zip(w).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{path:?}: {what} differ, field {f} R {R} {name} \
                                 z0 {z0} n {n} j {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tti_update_matches_scalar_bitwise() {
        check_tti::<2>("fused TTI rows and Scalar's", TtiFixture::scalar);
        check_tti::<4>("fused TTI rows and Scalar's", TtiFixture::scalar);
        check_tti::<6>("fused TTI rows and Scalar's", TtiFixture::scalar);
    }

    #[test]
    fn tti_update_equals_the_two_pass_composition() {
        check_tti::<2>("fused TTI rows and two passes", TtiFixture::two_passes);
        check_tti::<4>("fused TTI rows and two passes", TtiFixture::two_passes);
        check_tti::<6>("fused TTI rows and two passes", TtiFixture::two_passes);
    }

    fn assert_bits(got: &[f32], want: &[f32], b: Path, kernel: &str, order: usize) {
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{b:?} diverges from scalar: {kernel} order {order} j {j}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn avx2_rows_keep_scalar_panic_semantics() {
        // Out-of-bounds row: whichever backend runs, the row-level window
        // check must fire like the scalar kernel's indexing would.
        let u = vec![0.0f32; 64];
        let mut out = vec![0.0f32; 8];
        let b = if Backend::Avx2.available() {
            Backend::Avx2
        } else {
            Backend::Portable
        };
        b.laplacian_row(&u, 60, 16, 4, 1.0, &[0.5], &[0.5], &[0.5], &mut out);
    }

    /// Every row method on every path: over the shortest field the Scalar
    /// row runs on, the row runs, and over the field one element shorter,
    /// where the Scalar row indexes out of bounds, it panics. The row is
    /// two eight-lane steps long, so at every lane width a lane load would
    /// read the element past the end, and only the body's row-level check
    /// stands in front of it.
    #[test]
    fn every_row_method_panics_when_a_window_leaves_its_field() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const R: usize = 2;
        let (i0, n) = (2 * R, 2 * WIDTHS[1]);
        let (field, _, _) = volume(59, 1, 1, i0 + n + 2 * R);
        let (w, row, out) = ([0.5f32, -0.25], vec![0.75f32; n], || vec![0.0f32; n]);
        let tti = TtiFixture::<R>::new(false);
        let (st, c) = (
            TtiStencil {
                sx: 1,
                sy: 1,
                plane: 1,
                ..tti.st
            },
            tti.coeffs(n),
        );
        // Method `m` over field `u`, every stride 1.
        let run = |m: usize, b: Backend, u: &[f32]| {
            let (mut o, d) = (out(), [StaggeredTerm::fwd(u, 1, &w); 3]);
            let (cache, dx) = (&tti.cache, &tti.dx[0][..n + 2 * R]);
            let f = TtiField {
                u,
                i0,
                cache,
                dy: R,
                dx,
            };
            match m {
                0 => b.laplacian_row_r(u, i0, 1, 1, 1.0, &w, &w, &w, &mut o),
                1 => b.laplacian_row(u, i0, 1, 1, 1.0, &w, &w, &w, &mut o),
                2 => b.first_diff_row_r(u, i0, 1, &w, &mut o),
                3 => b.cross_diff_row_r(u, i0, 1, 1, &w, &w, &mut o),
                4 => b.staggered_fwd_row_r(u, i0, 1, &w, &mut o),
                5 => b.velocity_row_r(i0, &d, &row, &row, &mut o),
                6 => b.normal_stress_row_r(
                    i0,
                    &d,
                    &row,
                    &row,
                    &row,
                    [&mut o, &mut out(), &mut out()],
                ),
                7 => b.shear_stress_row_r(i0, &[d[0]; 2], &row, &row, &mut o),
                _ => b.tti_update_row_r(&st, &[f; 2], &c, &mut o, &mut out()),
            }
        };
        let runs = |m, b, len| catch_unwind(AssertUnwindSafe(|| run(m, b, &field[..len]))).is_ok();
        for m in 0..9 {
            let reach = (0..=field.len())
                .find(|&len| runs(m, Backend::Scalar, len))
                .unwrap();
            assert!(
                reach > i0 + n,
                "method {m}: the Scalar row runs over {reach} elements"
            );
            for path in testable() {
                let b = path.select();
                assert!(
                    runs(m, b, reach),
                    "{path:?}: method {m} panics inside its field"
                );
                assert!(
                    !runs(m, b, reach - 1),
                    "{path:?}: method {m} reads past its field"
                );
            }
        }
    }
}
