//! The TTI step against an independent oracle, under every way of cutting
//! the domain into regions.
//!
//! `Tti::step_region` evaluates each mixed derivative as a composition of
//! two first-derivative row passes through a per-worker row cache. The
//! oracle here shares none of that: per point, no rows, no cache, no
//! regions, it composes `kernels::first_diff_axis_r` directly —
//! `∂xy = D_x(D_y u)`, `∂xz = D_z(D_x u)`, `∂yz = D_z(D_y u)` — from the
//! solver's public coefficient volumes and ring levels. The production step
//! must equal it bit for bit on every backend, and must keep doing so
//! however the same levels are stepped: whole domain, 1×1 blocks, random
//! `split_xy` shapes, z-sub-ranges, on any number of workers. Scratch
//! indexing is the risky part of the row cache: the grid is non-cubic so a
//! transposed extent cannot cancel out, and small enough that at SO 12 every
//! pencil's dilated window reaches into an x or y halo.

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, SparseMode};
use tempest::core::shared::LevelRing;
use tempest::core::{SimConfig, Tti, WaveSolver};
use tempest::grid::{Domain, Range3, Rng64, Shape, TtiModel};
use tempest::par::{for_each, Policy};
use tempest::sparse::SparsePoints;
use tempest::stencil::kernels::{first_diff_axis_r, second_diff_axis_r};
use tempest::stencil::Backend;

/// The virtual step under test: reads levels `K` and `K + 1`, writes `K + 2`.
const K: usize = 1;

fn shape() -> Shape {
    Shape::new(19, 13, 21)
}

/// A TTI propagator over a random medium (every rotation coefficient
/// non-trivial) with seeded random wavefields in the two levels step `K`
/// reads; the halos stay zero, as in a run.
fn fixture(so: usize, seed: u64) -> Tti {
    let d = Domain::uniform(shape(), 20.0);
    let model = TtiModel::random(d, 1500.0, 4500.0, seed);
    let cfg = SimConfig::new(d, so, EquationKind::Tti, model.vmax(), 40.0)
        .with_nt(4)
        .with_boundary(3, 0.3);
    let tti = Tti::new(&model, cfg, SparsePoints::single_center(&d, 0.4), None);
    let mut rng = Rng64::new(seed ^ 0x5EED);
    for (ring, _) in tti.written(K) {
        for level in [K, K + 1] {
            for x in 0..shape().nx {
                for y in 0..shape().ny {
                    // SAFETY: nothing else touches the rings here.
                    for v in unsafe { ring.pencil_mut(level, x, y) } {
                        *v = rng.range_f32(-1.0, 1.0);
                    }
                }
            }
        }
    }
    tti
}

/// The interior of level `K + 2` of the `p` and `q` rings, as bits.
fn written_bits(tti: &Tti) -> Vec<u32> {
    let s = shape();
    let mut out = Vec::with_capacity(2 * s.len());
    for (ring, level) in tti.written(K) {
        // SAFETY: no step is in flight.
        let lvl = unsafe { ring.level(level) };
        for x in 0..s.nx {
            for y in 0..s.ny {
                let base = ring.idx(x, y, 0);
                out.extend(lvl[base..base + s.nz].iter().map(|v| v.to_bits()));
            }
        }
    }
    out
}

/// Scribble over the written level so a skipped point cannot pass.
fn spoil_written(tti: &Tti) {
    for (ring, level) in tti.written(K) {
        for x in 0..shape().nx {
            for y in 0..shape().ny {
                // SAFETY: no step is in flight.
                unsafe { ring.pencil_mut(level, x, y) }.fill(f32::NAN);
            }
        }
    }
}

/// `D_outer(D_inner u)` at `i`: the outer first derivative applied to
/// per-point inner first derivatives.
fn composed<const R: usize>(
    u: &[f32],
    i: usize,
    (s_outer, w_outer): (usize, &[f32; R]),
    (s_inner, w_inner): (usize, &[f32; R]),
) -> f32 {
    let mut acc = 0.0f32;
    for (k, wk) in w_outer.iter().enumerate() {
        let o = (k + 1) * s_outer;
        acc += wk
            * (first_diff_axis_r::<R>(u, i + o, s_inner, w_inner)
                - first_diff_axis_r::<R>(u, i - o, s_inner, w_inner));
    }
    acc
}

/// Step `K` of `tti` over the whole domain, per point, as bits in
/// [`written_bits`] order.
fn naive_step<const R: usize>(tti: &Tti) -> Vec<u32> {
    let s = shape();
    let coeff = tti.coefficients();
    let [c1, c2, c3, eps2, delta_bar] = [coeff[0], coeff[1], coeff[2], coeff[3], coeff[4]];
    let g = &coeff[5..11];
    let arr = |w: &[f32]| -> [f32; R] { w.try_into().expect("radius mismatch") };
    let (cxx, wxx) = (coeff[11][0], arr(coeff[12]));
    let (cyy, wyy) = (coeff[13][0], arr(coeff[14]));
    let (czz, wzz) = (coeff[15][0], arr(coeff[16]));
    let (w1x, w1y, w1z) = (arr(coeff[17]), arr(coeff[18]), arr(coeff[19]));
    let rings: Vec<&LevelRing> = tti.written(K).into_iter().map(|(r, _)| r).collect();
    let (sx, sy) = (rings[0].sx(), rings[0].sy());
    // SAFETY: no step is in flight.
    let [p0, pm, q0, qm] = unsafe {
        [
            rings[0].level(K + 1),
            rings[0].level(K),
            rings[1].level(K + 1),
            rings[1].level(K),
        ]
    };
    let second = |u: &[f32], i: usize| {
        [
            second_diff_axis_r::<R>(u, i, sx, cxx, &wxx),
            second_diff_axis_r::<R>(u, i, sy, cyy, &wyy),
            second_diff_axis_r::<R>(u, i, 1, czz, &wzz),
            composed::<R>(u, i, (sx, &w1x), (sy, &w1y)),
            composed::<R>(u, i, (1, &w1z), (sx, &w1x)),
            composed::<R>(u, i, (1, &w1z), (sy, &w1y)),
        ]
    };
    let mut p_next = Vec::with_capacity(s.len());
    let mut q_next = Vec::with_capacity(s.len());
    for (x, y, z) in s.iter() {
        let i = rings[0].idx(x, y, z);
        let c = (x * s.ny + y) * s.nz + z;
        let [pxx, pyy, pzz, pxy, pxz, pyz] = second(p0, i);
        let [qxx, qyy, qzz, qxy, qxz, qyz] = second(q0, i);
        let gzz_p = g[0][c] * pxx
            + g[1][c] * pyy
            + g[2][c] * pzz
            + g[3][c] * pxy
            + g[4][c] * pxz
            + g[5][c] * pyz;
        let gzz_q = g[0][c] * qxx
            + g[1][c] * qyy
            + g[2][c] * qzz
            + g[3][c] * qxy
            + g[4][c] * qxz
            + g[5][c] * qyz;
        let gh_p = (pxx + pyy + pzz) - gzz_p;
        let rhs_p = eps2[c] * gh_p + delta_bar[c] * gzz_q;
        let rhs_q = delta_bar[c] * gh_p + gzz_q;
        p_next.push((c1[c] * p0[i] - c2[c] * pm[i] + c3[c] * rhs_p).to_bits());
        q_next.push((c1[c] * q0[i] - c2[c] * qm[i] + c3[c] * rhs_q).to_bits());
    }
    p_next.extend(q_next);
    p_next
}

fn naive(tti: &Tti) -> Vec<u32> {
    match tti.radius() {
        2 => naive_step::<2>(tti),
        4 => naive_step::<4>(tti),
        6 => naive_step::<6>(tti),
        r => unreachable!("radius {r}"),
    }
}

/// Cut `lo..hi` at seeded random points into parts of 1 to `max` cells.
fn random_cuts(rng: &mut Rng64, lo: usize, hi: usize, max: usize) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut a = lo;
    while a < hi {
        let b = (a + rng.range_usize(1, max + 1)).min(hi);
        cuts.push((a, b));
        a = b;
    }
    cuts
}

/// Ways of covering the domain exactly once with regions.
fn decompositions(seed: u64) -> Vec<(String, Vec<Range3>)> {
    let full = shape().full_range();
    let mut out = vec![
        ("whole domain".to_string(), vec![full]),
        ("1x1 blocks".to_string(), full.split_xy(1, 1)),
        ("8x8 blocks".to_string(), full.split_xy(8, 8)),
    ];
    let mut rng = Rng64::new(seed);
    for _ in 0..3 {
        let (bx, by) = (rng.range_usize(1, 12), rng.range_usize(1, 12));
        out.push((format!("{bx}x{by} blocks"), full.split_xy(bx, by)));
    }
    // z-sub-ranges of ragged xy parts: rows shorter than a lane, unaligned
    // row starts, and regions whose z-dilated rows end inside the z halo.
    let mut ragged = Vec::new();
    for &x in &random_cuts(&mut rng, 0, full.x1, 7) {
        for &y in &random_cuts(&mut rng, 0, full.y1, 7) {
            for &z in &random_cuts(&mut rng, 0, full.z1, 9) {
                ragged.push(Range3::new(x, y, z));
            }
        }
    }
    out.push(("ragged xyz parts".to_string(), ragged));
    out
}

fn backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

#[test]
fn step_equals_the_naive_composed_reference_under_every_decomposition() {
    let policies = [
        Policy::Sequential,
        Policy::Parallel,
        Policy::Capped { threads: 1 },
        Policy::Capped { threads: 2 },
        Policy::Capped { threads: 4 },
    ];
    for so in [4usize, 8, 12] {
        let tti = fixture(so, 11 + so as u64);
        let want = naive(&tti);
        for backend in backends() {
            for (name, regions) in decompositions(so as u64) {
                let covered: usize = regions.iter().map(Range3::len).sum();
                assert_eq!(covered, shape().len(), "{name} must cover the domain once");
                for policy in policies {
                    spoil_written(&tti);
                    for_each(policy, &regions, |r| {
                        tti.step_region(K, r, SparseMode::Classic, KernelPath::from(backend));
                    });
                    let got = written_bits(&tti);
                    let diverged = got.iter().zip(&want).position(|(g, w)| g != w);
                    assert_eq!(
                        diverged, None,
                        "so {so} {backend} {name} {policy:?}: first differing value index"
                    );
                }
            }
        }
    }
}
