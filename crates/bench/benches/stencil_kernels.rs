//! Micro-benchmarks of the dense FD kernels at the paper's space orders
//! 4, 8 and 12, sweeping the **full interior** of an `N³` volume (every
//! pencil, not just one centre row — a single row overstates cache locality
//! and understates the y/x-stride traffic that dominates real sweeps).
//!
//! Each kernel shape is measured once per *kernel backend* available on
//! this host — the per-point `Scalar` reference, the autovectorizer-shaped
//! `Portable` pencil path, and the explicit-intrinsics `Avx2` path — over
//! identical iteration spaces through the same `Backend` row API the
//! propagators use. All backends produce bitwise-identical results (see
//! `tests/kernel_backends.rs`), so the ratios are pure code-generation
//! ablations: hoisted bounds checks and lane structure (scalar → portable),
//! then explicit unaligned 256-bit loads (portable → avx2).
//!
//! The `tti_update_*` and `velocity_*` / `normal_stress_*` /
//! `shear_stress_*` rows time the fused kernels the TTI and elastic steps
//! call, one call per pencil; the single-derivative rows stay for the
//! benchmark's row probe and as the shapes the fused kernels are built from.
//!
//! The `*_subnormal_*` rows sweep a volume filled with subnormal values —
//! the leading edge of a point source's wavefield — once in the default
//! floating-point mode (`gradual`: every load feeds a microcode assist) and
//! once under `tempest_par::FlushGuard` (`flushed`: the mode every solve
//! runs in). Their ratio is the per-row cost that flush mode removes;
//! committed at `results/stencil_kernels_subnormal.txt`.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config, Sample};
use tempest_par::FlushGuard;
use tempest_stencil::kernels::{
    first_derivative_weights, staggered_weights, AxisWeights, StaggeredTerm, TtiCoeffs, TtiField,
    TtiStencil,
};
use tempest_stencil::Backend;

const N: usize = 64;

fn grid() -> (Vec<f32>, usize, usize) {
    let mut u = vec![0.0f32; N * N * N];
    for (i, v) in u.iter_mut().enumerate() {
        *v = ((i * 2_654_435_761) % 1000) as f32 * 1e-3 - 0.5;
    }
    (u, N * N, N)
}

/// The grid with every value subnormal (1.4e-45 … 1.2e-38, both signs).
fn subnormal_grid() -> Vec<f32> {
    (0..N * N * N)
        .map(|i| {
            let mantissa = 1 + (i * 2_654_435_761 % 0x7F_FFFE) as u32;
            f32::from_bits(mantissa | ((i as u32 & 1) << 31))
        })
        .collect()
}

/// One output row per interior pencil: `N − 2R` points.
fn row<const R: usize>() -> Vec<f32> {
    vec![0.0f32; N - 2 * R]
}

fn backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

fn report_speedups(name: &str, so: usize, rows: &[(Backend, Sample)]) {
    let scalar = rows
        .iter()
        .find(|(b, _)| *b == Backend::Scalar)
        .map(|(_, s)| s.median.as_secs_f64())
        .unwrap_or(0.0);
    for (b, s) in rows {
        if *b == Backend::Scalar {
            continue;
        }
        let sp = scalar / s.median.as_secs_f64().max(1e-12);
        println!("  {name}/so{so}: {} speedup {sp:.2}x over scalar", b.name());
    }
}

fn bench_laplacian<const R: usize>(
    shape: &str,
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
) -> Vec<(Backend, Sample)> {
    let w = AxisWeights::second_derivative(so, 10.0);
    let side: [f32; R] = w.side_array();
    let center = 3.0 * w.center;
    let mut out = row::<R>();
    bench_pencils::<R>(shape, cfg, so, |b, i0| {
        b.laplacian_row_r::<R>(black_box(u), i0, sx, sy, center, &side, &side, &side, &mut out);
        black_box(&out);
    })
}

fn bench_cross<const R: usize>(cfg: Config, so: usize, u: &[f32], sx: usize, sy: usize) {
    let w: [f32; R] = first_derivative_weights(so, 10.0)[..].try_into().expect("radius mismatch");
    let mut out = row::<R>();
    bench_pencils::<R>("cross_diff", cfg, so, |b, i0| {
        b.cross_diff_row_r::<R>(black_box(u), i0, sx, sy, &w, &w, &mut out);
        black_box(&out);
    });
}

/// The centred first-derivative row at stride `sy`: the pass that fills the
/// TTI row cache, and the shape of every composed mixed-derivative pass.
fn bench_first_diff<const R: usize>(
    shape: &str,
    cfg: Config,
    so: usize,
    u: &[f32],
    sy: usize,
) -> Vec<(Backend, Sample)> {
    let w: [f32; R] = first_derivative_weights(so, 10.0)[..].try_into().expect("radius mismatch");
    let mut out = row::<R>();
    bench_pencils::<R>(shape, cfg, so, |b, i0| {
        b.first_diff_row_r::<R>(black_box(u), i0, sy, &w, &mut out);
        black_box(&out);
    })
}

/// The Laplacian and first-derivative rows over subnormal input, outside and
/// inside flush mode, and what the mode saves per backend.
fn bench_subnormal<const R: usize>(
    cfg: Config,
    so: usize,
    tiny: &[f32],
    sx: usize,
    sy: usize,
) {
    let sweep = |mode: &str| {
        let lap = format!("laplacian_subnormal_{mode}");
        let fd = format!("first_diff_subnormal_{mode}");
        [
            bench_laplacian::<R>(&lap, cfg, so, tiny, sx, sy),
            bench_first_diff::<R>(&fd, cfg, so, tiny, sy),
        ]
    };
    let gradual = sweep("gradual");
    let flushed = {
        let _fp = FlushGuard::enter();
        sweep("flushed")
    };
    for (name, (g, f)) in ["laplacian", "first_diff"]
        .iter()
        .zip(gradual.iter().zip(&flushed))
    {
        for ((b, g), (_, f)) in g.iter().zip(f) {
            let ratio = g.median.as_secs_f64() / f.median.as_secs_f64().max(1e-12);
            println!(
                "  {name}_subnormal/so{so}: {} flushed {ratio:.2}x over gradual",
                b.name()
            );
        }
    }
}

fn bench_staggered<const R: usize>(cfg: Config, so: usize, u: &[f32]) {
    let w: [f32; R] = staggered_weights(so, 10.0)[..].try_into().expect("radius mismatch");
    let mut out = row::<R>();
    bench_pencils::<R>("staggered", cfg, so, |b, i0| {
        b.staggered_fwd_row_r::<R>(black_box(u), i0, 1, &w, &mut out);
        black_box(&out);
    });
}

/// `len` values in `[0, 1)`: coefficient rows, and the factors of the
/// in-place updates below, which stay bounded over repeated sweeps.
fn unit_row(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 2_654_435_761 + seed * 40_503) % 1000) as f32 * 1e-3)
        .collect()
}

/// Time `update(backend, i0)` once per pencil of the `N³` interior, on
/// every backend, as rows `{name}_{backend}/so{so}`.
fn bench_pencils<const R: usize>(
    name: &str,
    cfg: Config,
    so: usize,
    mut update: impl FnMut(Backend, usize),
) -> Vec<(Backend, Sample)> {
    let (lo, hi) = (R, N - R);
    let elems = ((hi - lo) * (hi - lo) * (hi - lo)) as u64;
    let mut rows = Vec::new();
    for b in backends() {
        let s = microbench::run_elems(&format!("{name}_{}/so{so}", b.name()), cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    update(b, (x * N + y) * N + lo);
                }
            }
        });
        rows.push((b, s));
    }
    report_speedups(name, so, &rows);
    rows
}

/// The fused TTI update (`Backend::tti_update_row_r`): the grid stands in
/// for both levels and the `D_y` row cache (one x-plane apart), with fixed
/// `D_x` rows.
fn bench_tti<const R: usize>(cfg: Config, so: usize, u: &[f32], sx: usize, sy: usize) {
    let w2 = AxisWeights::second_derivative(so, 20.0);
    let w1: [f32; R] = first_derivative_weights(so, 20.0)[..].try_into().expect("radius mismatch");
    let st = TtiStencil::<R> {
        sx,
        sy,
        plane: sx,
        center: [w2.center; 3],
        side: [w2.side_array(); 3],
        w1x: w1,
        w1z: w1,
    };
    let n = N - 2 * R;
    let dx = [unit_row(n + 2 * R, 1), unit_row(n + 2 * R, 2)];
    let rows: Vec<Vec<f32>> = (0..11).map(|k| unit_row(n, 3 + k)).collect();
    let c = TtiCoeffs {
        c1: &rows[0],
        c2: &rows[1],
        c3: &rows[2],
        eps2: &rows[3],
        delta: &rows[4],
        g: std::array::from_fn(|k| &rows[5 + k][..]),
    };
    let (mut p, mut q) = (unit_row(n, 20), unit_row(n, 21));
    bench_pencils::<R>("tti_update", cfg, so, |b, i0| {
        let field = |dx| TtiField { u: black_box(u), i0, cache: u, dy: i0, dx };
        b.tti_update_row_r::<R>(&st, &[field(&dx[0]), field(&dx[1])], &c, &mut p, &mut q);
        black_box((&p, &q));
    });
}

/// The three fused elastic updates, each differentiating the grid along
/// `x`, `y` and `z`.
fn bench_elastic<const R: usize>(cfg: Config, so: usize, u: &[f32], sx: usize, sy: usize) {
    let w: [f32; R] = staggered_weights(so, 10.0)[..].try_into().expect("radius mismatch");
    let (fwd, bwd) = (StaggeredTerm::fwd, StaggeredTerm::bwd);
    let triple = [fwd(u, sx, &w), bwd(u, sy, &w), bwd(u, 1, &w)];
    let pair = [fwd(u, sy, &w), fwd(u, sx, &w)];
    let n = N - 2 * R;
    let (coef, mu, fd) = (unit_row(n, 1), unit_row(n, 2), unit_row(n, 3));
    let [mut xx, mut yy, mut zz] = [4, 5, 6].map(|seed| unit_row(n, seed));
    bench_pencils::<R>("velocity", cfg, so, |b, i0| {
        b.velocity_row_r::<R>(i0, &triple, &coef, &fd, &mut xx);
        black_box(&xx);
    });
    bench_pencils::<R>("normal_stress", cfg, so, |b, i0| {
        b.normal_stress_row_r::<R>(i0, &triple, &coef, &mu, &fd, [&mut xx, &mut yy, &mut zz]);
        black_box((&xx, &yy, &zz));
    });
    bench_pencils::<R>("shear_stress", cfg, so, |b, i0| {
        b.shear_stress_row_r::<R>(i0, &pair, &mu, &fd, &mut xx);
        black_box(&xx);
    });
}

fn bench_order<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
) {
    bench_laplacian::<R>("laplacian", cfg, so, u, sx, sy);
    bench_cross::<R>(cfg, so, u, sx, sy);
    bench_first_diff::<R>("first_diff", cfg, so, u, sy);
    bench_staggered::<R>(cfg, so, u);
    bench_tti::<R>(cfg, so, u, sx, sy);
    bench_elastic::<R>(cfg, so, u, sx, sy);
}

fn main() {
    let cfg = Config::default();
    let (u, sx, sy) = grid();
    let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
    println!("stencil_kernels: full-interior sweep of a {N}^3 volume, backends: {names:?}");
    if !Backend::Avx2.available() {
        println!("  note: AVX2 unavailable on this host — avx2 rows omitted");
    }
    bench_order::<2>(cfg, 4, &u, sx, sy);
    bench_order::<4>(cfg, 8, &u, sx, sy);
    bench_order::<6>(cfg, 12, &u, sx, sy);
    let tiny = subnormal_grid();
    bench_subnormal::<2>(cfg, 4, &tiny, sx, sy);
    bench_subnormal::<4>(cfg, 8, &tiny, sx, sy);
}
