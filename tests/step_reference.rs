//! Every propagator's step against an independent oracle, under every way
//! of cutting the domain into regions.
//!
//! The production step bodies work in rows: `Acoustic::step_rows` computes
//! whole Laplacian rows and combines them over slices; `Tti::step_rows`
//! writes first-derivative rows (`D_y u` of the region dilated along x, and
//! one `D_x u` row per output pencil) to a per-worker scratch, then makes
//! one fused kernel call per output pencil that forms every second
//! derivative and the six rotation products in registers;
//! `Elastic::{vel_rows, stress_rows}` make one fused kernel call per output
//! pencil (per normal-stress triple), derivatives in registers, no scratch.
//! The oracles here share none of that: per point, no rows, no scratch, no
//! regions, no fusion, they apply the per-point kernels of
//! `tempest::stencil::kernels` directly — the Laplacian for acoustic,
//! `∂xy = D_x(D_y u)`, `∂xz = D_z(D_x u)`, `∂yz = D_z(D_y u)` for TTI, the
//! staggered forward/backward differences for elastic — to the ring levels
//! and to per-point coefficients. Those the oracle builds itself from the
//! model and the dense `DampingMask::sponge` volume: the leap-frog `c1`,
//! `c2`, `c3`, TTI's rotation products `a²`, `b²`, `c²`, `2ab`, `2ac`, `2bc`
//! (from θ and φ, as set-up once stored them, outside any flush mode), and
//! elastic's `dt·λ`, `dt·μ`, `2·dt·μ`, `dt/ρ`, `1 − η`. The
//! solvers read the sponge from one `z` profile per distance to the `x`/`y`
//! faces, so this is what checks that per-pencil form point by point, under
//! layers of 0, 3 and 11 points (at 11 the `z` layers overlap: `nz < 2·nbl`).
//! TTI's `1 + 2ε`, `√(1 + 2δ)` and the stencil weights come from the
//! solver's public `coefficients()`. The production step must equal its
//! oracle bit for bit on every backend (`Scalar` included), and must keep doing so
//! however the same levels are stepped: whole domain, 1×1 blocks, random
//! `split_xy` shapes, z-sub-ranges, on any number of workers. Every step
//! writes its oldest level in place, so the oracle reads the seeded inputs
//! before the step runs, and every stepping reloads them first.
//! Scratch and window indexing are the risky part: the grid is non-cubic so
//! a transposed extent cannot cancel out, and small enough that at SO 12
//! every pencil's dilated window reaches into an x or y halo.
//!
//! Two input fixtures: O(1) random wavefields, and a *front* whose levels
//! fall from 1e-30 to 1e-45 across the grid — the leading edge of a point
//! source's wavefield, where operands and results are subnormal. The step
//! runs in the system's floating-point environment (DESIGN.md §17: subnormals
//! read as zero and flush to zero), so the oracle is evaluated under a
//! `FlushGuard` too; a control shows that the same oracle outside the guard
//! produces subnormal values from the front, i.e. that the fixture reaches
//! the range where the mode matters. A third fixture pins the rotation
//! products: a TTI medium whose tilt and azimuth make `a`, `b` or `2ab`
//! subnormal, stepped from a field odd about one x-plane, where every
//! straight derivative is zero and a single mixed-derivative term of
//! `G_z̄z̄` decides the output.

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, SparseMode};
use tempest::core::shared::LevelRing;
use tempest::core::{Acoustic, Elastic, SimConfig, Tti, WaveSolver};
use tempest::grid::{
    Array3, DampingMask, Domain, ElasticModel, Model, Range3, Rng64, Shape, TtiModel,
};
use tempest::par::{for_each, FlushGuard, Policy};
use tempest::sparse::SparsePoints;
use tempest::stencil::kernels::{
    first_diff_axis, laplacian_at, second_diff_axis, staggered_diff_bwd, staggered_diff_fwd,
};
use tempest::stencil::Backend;

/// The timestep under test: a leap-frog step reads levels `K` and `K + 1`
/// and writes `K + 2` over `K`; the staggered phases read `K` (and the fresh
/// velocities at `K + 1`) and write `K + 1` over `K`.
const K: usize = 1;

fn shape() -> Shape {
    Shape::new(19, 13, 21)
}

fn domain() -> Domain {
    Domain::uniform(shape(), 20.0)
}

/// The absorbing layers under test, in points: none, thinner than the grid,
/// and wider than half of every axis.
const NBLS: [usize; 3] = [0, 3, 11];

const DAMP: f32 = 0.3;

fn config(so: usize, kind: EquationKind, vmax: f32, nbl: usize) -> SimConfig {
    SimConfig::new(domain(), so, kind, vmax, 40.0)
        .with_nt(4)
        .with_boundary(nbl, DAMP)
}

/// The sponge `η` per point, densely indexed.
fn eta(nbl: usize) -> Vec<f32> {
    DampingMask::sponge(shape(), nbl, DAMP)
        .damp
        .as_slice()
        .to_vec()
}

/// Leap-frog coefficients per point, `[c1, c2, c3]`: `2/(1+η)`,
/// `(1−η)/(1+η)` and `dt²/(m·(1+η))` for squared slowness `m`.
fn leapfrog(cfg: &SimConfig, m: &Array3<f32>) -> Vec<Vec<f32>> {
    let dt2 = cfg.dt * cfg.dt;
    let (mut c1, mut c2, mut c3) = (Vec::new(), Vec::new(), Vec::new());
    for (&eta, &m) in eta(cfg.nbl).iter().zip(m.as_slice()) {
        let inv = 1.0 / (1.0 + eta);
        c1.push(2.0 * inv);
        c2.push((1.0 - eta) * inv);
        c3.push(dt2 / m * inv);
    }
    vec![c1, c2, c3]
}

/// The six rotation products of `G_z̄z̄` at tilt `theta`, azimuth `phi`,
/// `[a², b², c², 2ab, 2ac, 2bc]` with `(a, b, c) = (sinθcosφ, sinθsinφ,
/// cosθ)`, evaluated left to right in whatever floating-point mode the
/// caller runs in.
fn rotation(theta: f32, phi: f32) -> [f32; 6] {
    let (st, ct) = theta.sin_cos();
    let (sp, cp) = phi.sin_cos();
    let (a, b, c) = (st * cp, st * sp, ct);
    [a * a, b * b, c * c, 2.0 * a * b, 2.0 * a * c, 2.0 * b * c]
}

/// The six [`rotation`] products of `model` per point, one row each.
fn rotation_rows(model: &TtiModel) -> Vec<Vec<f32>> {
    let angles = model.theta.as_slice().iter().zip(model.phi.as_slice());
    let g: Vec<[f32; 6]> = angles.map(|(&t, &p)| rotation(t, p)).collect();
    (0..6).map(|k| g.iter().map(|g| g[k]).collect()).collect()
}

/// TTI coefficients per point: [`leapfrog`], then the [`rotation_rows`]
/// of `model`, formed in the caller's mode — outside any `FlushGuard`, as
/// set-up runs.
fn tti_params(cfg: &SimConfig, model: &TtiModel) -> Vec<Vec<f32>> {
    let mut out = leapfrog(cfg, &model.m);
    out.extend(rotation_rows(model));
    out
}

/// Elastic coefficients per point, `[dt·λ, dt·μ, 2·dt·μ, dt/ρ, 1 − η]`.
fn elastic_params(cfg: &SimConfig, model: &ElasticModel) -> Vec<Vec<f32>> {
    let dt = cfg.dt;
    let times_dt = |a: &Array3<f32>| a.as_slice().iter().map(|&v| dt * v).collect::<Vec<_>>();
    let mu = times_dt(&model.mu);
    let mu2 = mu.iter().map(|&mu| 2.0 * mu).collect();
    let fd = eta(cfg.nbl).iter().map(|&eta| 1.0 - eta).collect();
    vec![times_dt(&model.lam), mu, mu2, times_dt(&model.buoyancy), fd]
}

fn source() -> SparsePoints {
    SparsePoints::single_center(&domain(), 0.4)
}

/// What the wavefields hold before the step under test.
#[derive(Clone, Copy, Debug)]
enum Fixture {
    /// Seeded random values in `[-1, 1)`.
    Unit,
    /// A front along x: magnitudes fall from 1e-30 at `x = 0` to 1e-45 (the
    /// smallest subnormal is 1.4e-45) at the far face, random sign and
    /// mantissa — normal, then subnormal, then zero.
    Front,
    /// `2²⁰·(x − ODD_X)·(y − ODD_Y)`, every level alike: odd about the plane
    /// `x = ODD_X`, where `u`, `∂xx`, `∂yy`, `∂zz` and `∂yz` are exactly
    /// zero and `∂xy` is not; `∂xz` is zero but within the radius of a z
    /// face.
    Odd,
}

/// The plane and row [`Fixture::Odd`] is odd about: at least the largest
/// radius from every x face.
const ODD_X: usize = 9;
const ODD_Y: usize = 6;

impl Fixture {
    fn value(self, rng: &mut Rng64, x: usize, y: usize) -> f32 {
        let v = rng.range_f32(-1.0, 1.0);
        match self {
            Fixture::Unit => v,
            Fixture::Front => {
                let decades = -30.0 - 15.0 * x as f64 / (shape().nx - 1) as f64;
                (v as f64 * 10f64.powf(decades)) as f32
            }
            Fixture::Odd => {
                let d = |a: usize, b: usize| a as f32 - b as f32;
                1_048_576.0 * d(x, ODD_X) * d(y, ODD_Y)
            }
        }
    }
}

/// Every ring of `s`, in [`WaveSolver::written`] order over its phases.
fn rings(s: &dyn WaveSolver) -> Vec<&LevelRing> {
    let phases = 0..s.phases();
    phases
        .flat_map(|vt| s.written(vt))
        .map(|(ring, _)| ring)
        .collect()
}

/// Seeded wavefields for every level of every ring of `s`, interior and
/// densely indexed, in [`rings`] order.
fn inputs(s: &dyn WaveSolver, seed: u64, fixture: Fixture) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed ^ 0x5EED);
    let levels = rings(s).into_iter().flat_map(|ring| 0..ring.num_levels());
    let s = shape();
    let values = levels.map(|_| {
        s.iter()
            .map(|(x, y, _)| fixture.value(&mut rng, x, y))
            .collect()
    });
    values.collect()
}

/// Load `inputs` into the rings of `s` — every level, the halos stay zero
/// as in a run. A step writes its oldest level in place, so this is also
/// what undoes one.
fn load(s: &dyn WaveSolver, inputs: &[Vec<f32>]) {
    let nz = shape().nz;
    let levels = rings(s)
        .into_iter()
        .flat_map(|ring| (0..ring.num_levels()).map(move |l| (ring, l)));
    for ((ring, level), values) in levels.zip(inputs) {
        let pencils = (0..shape().nx).flat_map(|x| (0..shape().ny).map(move |y| (x, y)));
        for ((x, y), pencil) in pencils.zip(values.chunks_exact(nz)) {
            // SAFETY: nothing else touches the rings here.
            unsafe { ring.pencil_mut(level, x, y) }.copy_from_slice(pencil);
        }
    }
}

/// The interior of `ring` at `level`, densely indexed.
fn interior(ring: &LevelRing, level: usize) -> Vec<f32> {
    let s = shape();
    let mut out = Vec::with_capacity(s.len());
    // SAFETY: no step is in flight.
    let lvl = unsafe { ring.level(level) };
    for x in 0..s.nx {
        for y in 0..s.ny {
            let base = ring.idx(x, y, 0);
            out.extend_from_slice(&lvl[base..base + s.nz]);
        }
    }
    out
}

/// The interior of every level virtual step `vt` writes, as bits.
fn written_bits(s: &dyn WaveSolver, vt: usize) -> Vec<u32> {
    s.written(vt)
        .into_iter()
        .flat_map(|(ring, level)| interior(ring, level))
        .map(f32::to_bits)
        .collect()
}

fn arr<const R: usize>(w: &[f32]) -> [f32; R] {
    w.try_into().expect("radius mismatch")
}

/// One oracle value per written field per interior point, fields in
/// `written(vt)` order: `point(i, c)` gets the ring index and the dense
/// index of the point.
fn per_point<const F: usize>(
    ring: &LevelRing,
    point: impl Fn(usize, usize) -> [f32; F],
) -> Vec<u32> {
    let s = shape();
    let mut fields: [Vec<u32>; F] = std::array::from_fn(|_| Vec::with_capacity(s.len()));
    for (x, y, z) in s.iter() {
        let values = point(ring.idx(x, y, z), (x * s.ny + y) * s.nz + z);
        for (field, v) in fields.iter_mut().zip(values) {
            field.push(v.to_bits());
        }
    }
    fields.concat()
}

/// Acoustic step `K`: `u⁺ = c1·u − c2·u⁻ + c3·Δu`, `params` from
/// [`leapfrog`], at every space order.
fn naive_acoustic(s: &dyn WaveSolver, params: &[Vec<f32>]) -> Vec<u32> {
    let [c1, c2, c3] = [&params[0], &params[1], &params[2]];
    let coeff = s.coefficients();
    let [wx, wy, wz] = [coeff[3], coeff[4], coeff[5]];
    let center = coeff[6][0];
    let ring = s.written(K)[0].0;
    let (sx, sy) = (ring.sx(), ring.sy());
    // SAFETY: no step is in flight.
    let (u0, um) = unsafe { (ring.level(K + 1), ring.level(K)) };
    per_point(ring, |i, c| {
        let lap = laplacian_at(u0, i, sx, sy, center, wx, wy, wz);
        [c1[c] * u0[i] - c2[c] * um[i] + c3[c] * lap]
    })
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
            * (first_diff_axis(u, i + o, s_inner, w_inner)
                - first_diff_axis(u, i - o, s_inner, w_inner));
    }
    acc
}

/// TTI step `K` of the coupled `(p, q)` pair, `params` from [`tti_params`].
fn naive_tti<const R: usize>(s: &dyn WaveSolver, params: &[Vec<f32>]) -> Vec<u32> {
    let [c1, c2, c3] = [&params[0], &params[1], &params[2]];
    let g = &params[3..9];
    let coeff = s.coefficients();
    let [eps2, delta_bar] = [coeff[3], coeff[4]];
    // The stencil weights are the last nine slices.
    let [cxx, wxx, cyy, wyy, czz, wzz, w1x, w1y, w1z]: [&[f32]; 9] = coeff[coeff.len() - 9..]
        .try_into()
        .expect("nine weight slices");
    let (cxx, wxx) = (cxx[0], arr::<R>(wxx));
    let (cyy, wyy) = (cyy[0], arr::<R>(wyy));
    let (czz, wzz) = (czz[0], arr::<R>(wzz));
    let (w1x, w1y, w1z) = (arr::<R>(w1x), arr::<R>(w1y), arr::<R>(w1z));
    let rings: Vec<&LevelRing> = s.written(K).into_iter().map(|(r, _)| r).collect();
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
            second_diff_axis(u, i, sx, cxx, &wxx),
            second_diff_axis(u, i, sy, cyy, &wyy),
            second_diff_axis(u, i, 1, czz, &wzz),
            composed::<R>(u, i, (sx, &w1x), (sy, &w1y)),
            composed::<R>(u, i, (1, &w1z), (sx, &w1x)),
            composed::<R>(u, i, (1, &w1z), (sy, &w1y)),
        ]
    };
    per_point(rings[0], |i, c| {
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
        [
            c1[c] * p0[i] - c2[c] * pm[i] + c3[c] * rhs_p,
            c1[c] * q0[i] - c2[c] * qm[i] + c3[c] * rhs_q,
        ]
    })
}

/// The nine elastic rings in `[vx, vy, vz, txx, tyy, tzz, txy, txz, tyz]`
/// order, and the staggered weights along x, y, z.
fn elastic_parts<const R: usize>(s: &dyn WaveSolver) -> (Vec<&LevelRing>, [[f32; R]; 3]) {
    let rings = [2 * K, 2 * K + 1]
        .into_iter()
        .flat_map(|vt| s.written(vt))
        .map(|(ring, _)| ring)
        .collect();
    let coeff = s.coefficients();
    (rings, [arr(coeff[4]), arr(coeff[5]), arr(coeff[6])])
}

/// Elastic velocity phase of timestep `K`:
/// `v⁺ = (v + dt/ρ · ∇·τ) · (1−η)`, each component at its staggered
/// position; `params` from [`elastic_params`].
fn naive_elastic_vel<const R: usize>(s: &dyn WaveSolver, params: &[Vec<f32>]) -> Vec<u32> {
    let (dtb, fd) = (&params[3], &params[4]);
    let (rings, [swx, swy, swz]) = elastic_parts::<R>(s);
    let (sx, sy) = (rings[0].sx(), rings[0].sy());
    // SAFETY: no step is in flight.
    let [vx, vy, vz, txx, tyy, tzz, txy, txz, tyz] =
        std::array::from_fn(|f| unsafe { rings[f].level(K) });
    per_point(rings[0], |i, c| {
        let dvx = staggered_diff_fwd(txx, i, sx, &swx)
            + staggered_diff_bwd(txy, i, sy, &swy)
            + staggered_diff_bwd(txz, i, 1, &swz);
        let dvy = staggered_diff_bwd(txy, i, sx, &swx)
            + staggered_diff_fwd(tyy, i, sy, &swy)
            + staggered_diff_bwd(tyz, i, 1, &swz);
        let dvz = staggered_diff_bwd(txz, i, sx, &swx)
            + staggered_diff_bwd(tyz, i, sy, &swy)
            + staggered_diff_fwd(tzz, i, 1, &swz);
        [
            (vx[i] + dtb[c] * dvx) * fd[c],
            (vy[i] + dtb[c] * dvy) * fd[c],
            (vz[i] + dtb[c] * dvz) * fd[c],
        ]
    })
}

/// Elastic stress phase of timestep `K`:
/// `τ⁺ = (τ + dt·(λ tr(ε̇) I + 2μ ε̇)) · (1−η)`, strain rates from the
/// velocities at level `K + 1`; `params` from [`elastic_params`].
fn naive_elastic_stress<const R: usize>(s: &dyn WaveSolver, params: &[Vec<f32>]) -> Vec<u32> {
    let (lam, mu, mu2, fd) = (&params[0], &params[1], &params[2], &params[4]);
    let (rings, [swx, swy, swz]) = elastic_parts::<R>(s);
    let (sx, sy) = (rings[0].sx(), rings[0].sy());
    // SAFETY: no step is in flight.
    let [vx, vy, vz] = std::array::from_fn(|f| unsafe { rings[f].level(K + 1) });
    let [txx, tyy, tzz, txy, txz, tyz] = std::array::from_fn(|f| unsafe { rings[3 + f].level(K) });
    per_point(rings[0], |i, c| {
        let exx = staggered_diff_bwd(vx, i, sx, &swx);
        let eyy = staggered_diff_bwd(vy, i, sy, &swy);
        let ezz = staggered_diff_bwd(vz, i, 1, &swz);
        let ldiv = lam[c] * (exx + eyy + ezz);
        let mu2 = mu2[c];
        let exy = staggered_diff_fwd(vx, i, sy, &swy) + staggered_diff_fwd(vy, i, sx, &swx);
        let exz = staggered_diff_fwd(vx, i, 1, &swz) + staggered_diff_fwd(vz, i, sx, &swx);
        let eyz = staggered_diff_fwd(vy, i, 1, &swz) + staggered_diff_fwd(vz, i, sy, &swy);
        [
            (txx[i] + ldiv + mu2 * exx) * fd[c],
            (tyy[i] + ldiv + mu2 * eyy) * fd[c],
            (tzz[i] + ldiv + mu2 * ezz) * fd[c],
            (txy[i] + mu[c] * exy) * fd[c],
            (txz[i] + mu[c] * exz) * fd[c],
            (tyz[i] + mu[c] * eyz) * fd[c],
        ]
    })
}

/// An oracle: the bits a step writes, from the solver's levels and the
/// per-point coefficients the case built.
type Oracle = fn(&dyn WaveSolver, &[Vec<f32>]) -> Vec<u32>;

/// One step under test: a propagator over a random medium, the seeded
/// wavefields it steps from, the virtual step to take, and the oracle of
/// what it must write with its per-point coefficients.
struct Case {
    solver: Box<dyn WaveSolver>,
    inputs: Vec<Vec<f32>>,
    vt: usize,
    naive: Oracle,
    params: Vec<Vec<f32>>,
}

impl Case {
    /// The case with its inputs loaded into the solver's rings.
    fn new(
        solver: Box<dyn WaveSolver>,
        (seed, fixture): (u64, Fixture),
        vt: usize,
        naive: Oracle,
        params: Vec<Vec<f32>>,
    ) -> Self {
        let inputs = inputs(&*solver, seed, fixture);
        load(&*solver, &inputs);
        Case {
            solver,
            inputs,
            vt,
            naive,
            params,
        }
    }

    /// The oracle over the rings as they stand — the inputs, until a step
    /// overwrites the slot it writes — in whatever floating-point mode the
    /// caller runs in.
    fn naive(&self) -> Vec<u32> {
        (self.naive)(&*self.solver, &self.params)
    }

    /// The oracle, evaluated in the mode the step runs in.
    fn want(&self) -> Vec<u32> {
        let _fp = FlushGuard::enter();
        self.naive()
    }
}

/// The cases of space order `so` under a layer of `nbl` points: acoustic,
/// TTI and both elastic phases at the orders all three support, acoustic
/// alone (its dynamic-radius Laplacian) elsewhere.
fn cases(so: usize, fixture: Fixture, nbl: usize) -> Vec<Case> {
    let d = domain();
    let seed = 11 + so as u64;
    let model = Model::random(d, 1500.0, 4500.0, seed);
    let cfg = config(so, EquationKind::Acoustic, 4500.0, nbl);
    let params = leapfrog(&cfg, &model.m);
    let acoustic: Box<dyn WaveSolver> = Box::new(Acoustic::new(&model, cfg, source(), None));
    let mut out = vec![Case::new(
        acoustic,
        (seed, fixture),
        K,
        naive_acoustic,
        params,
    )];
    if !matches!(so, 4 | 8 | 12) {
        return out;
    }

    // Every rotation coefficient of the random TTI medium is non-trivial.
    let model = TtiModel::random(d, 1500.0, 4500.0, seed);
    out.push(tti_case(&model, so, nbl, (seed, fixture)));

    for phase in 0..2 {
        let model = ElasticModel::random(d, 1500.0, 4500.0, seed);
        let cfg = config(so, EquationKind::Elastic, 4500.0, nbl);
        let params = elastic_params(&cfg, &model);
        let elastic: Box<dyn WaveSolver> = Box::new(Elastic::new(&model, cfg, source(), None));
        let naive = match (so / 2, phase) {
            (2, 0) => naive_elastic_vel::<2>,
            (4, 0) => naive_elastic_vel::<4>,
            (_, 0) => naive_elastic_vel::<6>,
            (2, _) => naive_elastic_stress::<2>,
            (4, _) => naive_elastic_stress::<4>,
            (_, _) => naive_elastic_stress::<6>,
        };
        let vt = 2 * K + phase;
        out.push(Case::new(elastic, (seed, fixture), vt, naive, params));
    }
    out
}

/// The TTI case of space order `so` over `model` under a layer of `nbl`
/// points.
fn tti_case(model: &TtiModel, so: usize, nbl: usize, inputs: (u64, Fixture)) -> Case {
    let cfg = config(so, EquationKind::Tti, model.vmax(), nbl);
    let params = tti_params(&cfg, model);
    let tti: Box<dyn WaveSolver> = Box::new(Tti::new(model, cfg, source(), None));
    let naive = match so / 2 {
        2 => naive_tti::<2>,
        4 => naive_tti::<4>,
        _ => naive_tti::<6>,
    };
    Case::new(tti, inputs, K, naive, params)
}

/// Tilt and azimuth pairs whose rotation reaches the subnormal range:
/// `b` subnormal but `2b` normal (then `2ab` is normal), `a` subnormal but
/// `2a` normal (then `2ac` is), `a` so small that `2a` is subnormal too,
/// and `a`, `b` normal with `2ab` subnormal.
const POLES: [(f32, f32); 4] = [
    (std::f32::consts::FRAC_PI_2, 1.5 * f32::MIN_POSITIVE / 2.0),
    (1.5 * f32::MIN_POSITIVE / 2.0, 0.0),
    (f32::MIN_POSITIVE / 16.0, 1.0),
    (1e-19, std::f32::consts::FRAC_PI_4),
];

/// Which of [`POLES`] sets the angles at dense index `i` of
/// [`pole_model`]; `POLES.len()` keeps the medium's own random angles.
fn pole_at(i: usize) -> usize {
    let (y, z) = ((i / shape().nz) % shape().ny, i % shape().nz);
    (y + z) % (POLES.len() + 1)
}

/// A random TTI medium whose tilt and azimuth cycle through [`POLES`] and
/// the medium's own random angles along `y + z`.
fn pole_model(so: usize) -> TtiModel {
    let mut model = TtiModel::random(domain(), 1500.0, 4500.0, 7 + so as u64);
    let angles = model
        .theta
        .as_mut_slice()
        .iter_mut()
        .zip(model.phi.as_mut_slice());
    for (i, (theta, phi)) in angles.enumerate() {
        if let Some(&(t, p)) = POLES.get(pole_at(i)) {
            (*theta, *phi) = (t, p);
        }
    }
    model
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

/// Every case of every space order in `orders` under every layer of
/// [`NBLS`], on every backend, under every decomposition and policy,
/// against its oracle.
fn check(orders: &[usize], fixture: Fixture) {
    check_cases(orders, fixture, |so, nbl| cases(so, fixture, nbl));
}

/// [`check`] over the cases `make(so, nbl)` builds.
fn check_cases(orders: &[usize], fixture: Fixture, make: impl Fn(usize, usize) -> Vec<Case>) {
    let policies = [
        Policy::Sequential,
        Policy::Parallel,
        Policy::Capped { threads: 1 },
        Policy::Capped { threads: 2 },
        Policy::Capped { threads: 4 },
    ];
    for (&so, nbl) in orders.iter().flat_map(|so| NBLS.map(|nbl| (so, nbl))) {
        for case in make(so, nbl) {
            // The oracle reads the inputs before any step overwrites them.
            let (s, vt, want) = (&*case.solver, case.vt, case.want());
            // The slot a step writes holds one of its inputs, so nothing can
            // be scribbled there first: a point the step skipped keeps its
            // input. On the unit fixture no pencil's output equals the
            // pencil it replaces, so a skipped pencil cannot pass.
            if matches!(fixture, Fixture::Unit) {
                let (replaced, nz) = (written_bits(s, vt), shape().nz);
                let kept = want
                    .chunks(nz)
                    .zip(replaced.chunks(nz))
                    .filter(|(w, r)| w == r);
                assert_eq!(kept.count(), 0, "{} vt {vt} so {so} nbl {nbl}", s.name());
            }
            for backend in backends() {
                for (name, regions) in decompositions(so as u64) {
                    let covered: usize = regions.iter().map(Range3::len).sum();
                    assert_eq!(covered, shape().len(), "{name} must cover the domain once");
                    for policy in policies {
                        load(s, &case.inputs);
                        for_each(policy, &regions, |r| {
                            s.step_region(vt, r, SparseMode::Classic, KernelPath::from(backend));
                        });
                        let got = written_bits(s, vt);
                        let diverged = got.iter().zip(&want).position(|(g, w)| g != w);
                        assert_eq!(
                            diverged,
                            None,
                            "{} {fixture:?} vt {vt} so {so} nbl {nbl} {backend} {name} {policy:?}: \
                             first differing value index",
                            s.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn step_equals_the_naive_reference_under_every_decomposition() {
    check(&[4, 8, 10, 12], Fixture::Unit);
}

#[test]
fn step_equals_the_naive_reference_on_a_subnormal_front() {
    check(&[4, 8, 12], Fixture::Front);
}

/// The TTI case over [`pole_model`], stepped from [`Fixture::Odd`].
fn pole_case(so: usize, nbl: usize) -> Case {
    tti_case(&pole_model(so), so, nbl, (so as u64, Fixture::Odd))
}

#[test]
fn tti_step_equals_the_reference_under_subnormal_rotations() {
    check_cases(&[4, 8, 12], Fixture::Odd, |so, nbl| {
        vec![pole_case(so, nbl)]
    });
}

/// The control of the pole fixture: [`POLES`] reach the range they name,
/// and the odd field carries the products they make normal — `2ab` from a
/// subnormal `b`, `2ac` from a subnormal `a` — to output bits. Formed from
/// `a`, `b`, `c` inside flush mode instead, where a subnormal `a` or `b`
/// reads as zero, those products vanish and the oracle's bits change at
/// points of both poles. Only where the target has a flush mode.
#[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
#[test]
fn the_pole_fixture_carries_the_rotation_products_to_output_bits() {
    let sub = |v: f32| v.is_subnormal();
    let angles = |(t, p): (f32, f32)| {
        let ((st, ct), (sp, cp)) = (t.sin_cos(), p.sin_cos());
        ([st * cp, st * sp, ct], rotation(t, p))
    };
    let ([_, b, _], g) = angles(POLES[0]);
    assert!(
        sub(b) && g[3].is_normal(),
        "b subnormal, 2ab normal: {b:e} {:e}",
        g[3]
    );
    let ([a, _, _], g) = angles(POLES[1]);
    assert!(
        sub(a) && g[4].is_normal(),
        "a subnormal, 2ac normal: {a:e} {:e}",
        g[4]
    );
    let ([a, _, _], _) = angles(POLES[2]);
    assert!(sub(2.0 * a), "2a subnormal: {a:e}");
    let ([a, b, _], g) = angles(POLES[3]);
    assert!(
        a.is_normal() && b.is_normal() && sub(g[3]),
        "2ab subnormal: {:e}",
        g[3]
    );

    for so in [4usize, 8, 12] {
        let mut case = pole_case(so, 3);
        let want = case.want();
        let flushed = {
            let _fp = FlushGuard::enter();
            rotation_rows(&pole_model(so))
        };
        case.params.splice(3..9, flushed);
        let differ = want
            .iter()
            .zip(case.want())
            .enumerate()
            .filter(|(_, (w, f))| *w != f);
        // `want` holds `p`, then `q`, densely indexed.
        let poles: Vec<usize> = differ.map(|(i, _)| pole_at(i % shape().len())).collect();
        for pole in [0, 1] {
            assert!(
                poles.contains(&pole),
                "so {so}: pole {pole} never reaches an output bit"
            );
        }
    }
}

fn subnormals(bits: &[u32]) -> usize {
    bits.iter()
        .filter(|&&b| f32::from_bits(b).is_subnormal())
        .count()
}

/// The control: outside the guard the oracle turns the front into subnormal
/// values; inside it, into none. Only where the target has a flush mode.
#[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
#[test]
fn the_front_fixture_reaches_the_subnormal_range() {
    for so in [4usize, 8, 12] {
        for case in cases(so, Fixture::Front, 3) {
            let what = format!("{} vt {} so {so}", case.solver.name(), case.vt);
            let gradual = case.naive();
            let flushed = case.want();
            assert!(
                subnormals(&gradual) > 0,
                "{what}: the fixture misses the range"
            );
            assert_eq!(
                subnormals(&flushed),
                0,
                "{what}: flush mode left subnormals"
            );
            assert!(
                flushed.iter().any(|&b| f32::from_bits(b) != 0.0),
                "{what}: the front must also hold values flush mode keeps"
            );
        }
    }
}
