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
//! The `*_subnormal_*` rows sweep a volume filled with subnormal values —
//! the leading edge of a point source's wavefield — once in the default
//! floating-point mode (`gradual`: every load feeds a microcode assist) and
//! once under `tempest_par::FlushGuard` (`flushed`: the mode every solve
//! runs in). Their ratio is the per-row cost that flush mode removes;
//! committed at `results/stencil_kernels_subnormal.txt`.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config, Sample};
use tempest_par::FlushGuard;
use tempest_stencil::kernels::{first_derivative_weights, staggered_weights, AxisWeights};
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

/// Interior extent, elements covered, and a scratch row for row calls.
fn interior<const R: usize>() -> (usize, usize, u64, Vec<f32>) {
    let (lo, hi) = (R, N - R);
    let n = hi - lo;
    (lo, hi, (n * n * n) as u64, vec![0.0f32; n])
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
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let s = microbench::run_elems(&format!("{shape}_{}/so{so}", b.name()), cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.laplacian_row_r::<R>(
                        black_box(u),
                        i0,
                        sx,
                        sy,
                        center,
                        &side,
                        &side,
                        &side,
                        &mut out,
                    );
                    black_box(&out);
                }
            }
        });
        rows.push((b, s));
    }
    report_speedups(shape, so, &rows);
    rows
}

fn bench_cross<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
) {
    let w = first_derivative_weights(so, 10.0);
    let w: [f32; R] = w[..].try_into().expect("radius mismatch");
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let s = microbench::run_elems(&format!("cross_diff_{}/so{so}", b.name()), cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.cross_diff_row_r::<R>(black_box(u), i0, sx, sy, &w, &w, &mut out);
                    black_box(&out);
                }
            }
        });
        rows.push((b, s));
    }
    report_speedups("cross_diff", so, &rows);
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
    let w = first_derivative_weights(so, 10.0);
    let w: [f32; R] = w[..].try_into().expect("radius mismatch");
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let s = microbench::run_elems(&format!("{shape}_{}/so{so}", b.name()), cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.first_diff_row_r::<R>(black_box(u), i0, sy, &w, &mut out);
                    black_box(&out);
                }
            }
        });
        rows.push((b, s));
    }
    report_speedups(shape, so, &rows);
    rows
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
    let w = staggered_weights(so, 10.0);
    let w: [f32; R] = w[..].try_into().expect("radius mismatch");
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let s = microbench::run_elems(&format!("staggered_{}/so{so}", b.name()), cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.staggered_fwd_row_r::<R>(black_box(u), i0, 1, &w, &mut out);
                    black_box(&out);
                }
            }
        });
        rows.push((b, s));
    }
    report_speedups("staggered", so, &rows);
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
