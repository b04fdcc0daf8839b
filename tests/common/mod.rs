//! Fixtures shared by the equivalence suites: the three propagators as trait
//! objects on one small grid, and the temporally blocked schedules every
//! matrix runs them under.
#![allow(dead_code)] // each suite uses its own subset

use tempest::core::config::EquationKind;
use tempest::core::operator::Schedule;
use tempest::core::{Acoustic, Elastic, SimConfig, Tti, WaveSolver};
use tempest::dsl::field::{FieldHandle, FieldId};
use tempest::dsl::operator::InjectScale;
use tempest::dsl::{solve, Context, DslOperator};
use tempest::grid::{Array2, Array3, Domain, ElasticModel, Model, Shape, TtiModel};
use tempest::sparse::{ricker, SparsePoints};
use tempest::tiling::WavefrontSpec;

/// Grid edge of every fixture.
pub const N: usize = 20;

pub fn domain(spacing: f32) -> Domain {
    Domain::uniform(Shape::cube(N), spacing)
}

/// [`solvers_on`] the standard `N`³ grid.
pub fn solvers(so: usize, nt: usize, frac: f32, receivers: usize) -> Vec<Box<dyn WaveSolver>> {
    solvers_on(N, so, nt, frac, receivers)
}

/// Acoustic, TTI and elastic propagators on an `n`³ grid at space order
/// `so` over `nt` steps: layered/anisotropic models, absorbing layers, one
/// off-grid source near the centre (`frac` moves it sub-cell) and a
/// `receivers`-long line. At a space order other than 4, 8 or 12 only the
/// acoustic propagator exists (its dynamic-radius Laplacian route).
pub fn solvers_on(
    n: usize,
    so: usize,
    nt: usize,
    frac: f32,
    receivers: usize,
) -> Vec<Box<dyn WaveSolver>> {
    let center = |d: &Domain| SparsePoints::single_center(d, frac);
    solvers_with(n, so, nt, center, receivers)
}

/// [`solvers_on`] with the sources `sources` places on each propagator's
/// domain (the three differ in grid spacing).
pub fn solvers_with(
    n: usize,
    so: usize,
    nt: usize,
    sources: impl Fn(&Domain) -> SparsePoints,
    receivers: usize,
) -> Vec<Box<dyn WaveSolver>> {
    let domain = |spacing| Domain::uniform(Shape::cube(n), spacing);
    let sparse = |d: &Domain| {
        (
            sources(d),
            (receivers > 0).then(|| SparsePoints::receiver_line(d, receivers, 0.2)),
        )
    };
    let d = domain(10.0);
    let (src, rec) = sparse(&d);
    let acoustic = Acoustic::new(
        &Model::two_layer(d, 1600.0, 2800.0, 0.5),
        SimConfig::new(d, so, EquationKind::Acoustic, 2800.0, 50.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3),
        src,
        rec,
    );
    if !matches!(so, 4 | 8 | 12) {
        return vec![Box::new(acoustic)];
    }
    let (src, rec) = sparse(&d);
    let elastic = Elastic::new(
        &ElasticModel::homogeneous(d, 3000.0, 1400.0, 2300.0),
        SimConfig::new(d, so, EquationKind::Elastic, 3000.0, 25.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3),
        src,
        rec,
    );
    let d = domain(20.0);
    let (src, rec) = sparse(&d);
    let model = TtiModel::homogeneous(d, 2000.0, 0.2, 0.08, 0.4, 0.2);
    let tti = Tti::new(
        &model,
        SimConfig::new(d, so, EquationKind::Tti, model.vmax(), 40.0)
            .with_nt(nt)
            .with_f0(15.0)
            .with_boundary(4, 0.3),
        src,
        rec,
    );
    vec![Box::new(acoustic), Box::new(tti), Box::new(elastic)]
}

/// The paper's §III-A acoustic operator written symbolically (homogeneous
/// [`AcousticDsl::C`] m/s, 10 m cells, no absorbing layer), with the
/// configuration of its hand-optimised twin.
pub struct AcousticDsl {
    pub op: DslOperator,
    pub u: FieldHandle,
    pub m: FieldId,
    pub cfg: SimConfig,
}

impl AcousticDsl {
    pub const C: f32 = 2000.0;

    pub fn new(n: usize, so: usize, nt: usize) -> Self {
        let domain = Domain::uniform(Shape::cube(n), 10.0);
        let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, Self::C, 100.0)
            .with_nt(nt)
            .with_f0(30.0)
            .with_boundary(0, 0.0);
        let mut ctx = Context::new(domain);
        ctx.set_dt(cfg.dt as f64);
        let u = ctx.time_function("u", 2, so);
        let m = ctx.parameter("m");
        let update = solve(&ctx, &(m.x() * u.dt2() - u.laplace()), u).unwrap();
        let mut op = DslOperator::new(ctx, vec![update], nt);
        op.set_parameter(m.id(), Array3::full(n, n, n, 1.0 / (Self::C * Self::C)));
        AcousticDsl {
            op,
            u,
            m: m.id(),
            cfg,
        }
    }

    /// `src.inject(u.forward, expr = src * dt**2 / m)`, the Ricker wavelet
    /// scaled by `amplitude`.
    pub fn inject(&mut self, src: &SparsePoints, amplitude: f32) {
        let (dt, nt) = (self.cfg.dt, self.cfg.nt);
        let wavelet: Vec<f32> = ricker(30.0, dt, nt).iter().map(|a| a * amplitude).collect();
        let scale = InjectScale::ConstOverParam(dt * dt, self.m);
        self.op.set_injection(src, &wavelet, &[(self.u, scale)]);
    }

    /// One source `off_grid` of a cell off the centre, a `receivers`-long
    /// line (none for 0).
    pub fn centred(n: usize, so: usize, nt: usize, off_grid: f32, receivers: usize) -> Self {
        let mut dsl = Self::new(n, so, nt);
        let domain = dsl.cfg.domain;
        dsl.inject(&SparsePoints::single_center(&domain, off_grid), 1.0);
        if receivers > 0 {
            let rec = SparsePoints::receiver_line(&domain, receivers, 0.25);
            dsl.op.set_interpolation(dsl.u, &rec);
        }
        dsl
    }
}

/// The temporally blocked schedules of the matrix, legal for a propagator
/// of dependency `radius` and `phases` virtual steps per timestep: the
/// wave-front plan on square tiles, on non-square tiles and blocks (the one
/// row an x/y transposition in slab ranges, halo dilation or dirty-cone
/// rects cannot pass), the `tile_t = 1` degeneration (per-timestep spatial
/// blocking as a plan) and pure time skewing (one spatial tile covering the
/// whole skewed domain).
pub fn blocked_schedules(radius: usize, phases: usize) -> Vec<(&'static str, Schedule)> {
    // Taller than every ring is deep (2 levels, or 1 per staggered phase), so
    // a tile's late slabs overwrite the slots its early slabs wrote.
    let tile_t = 4;
    let wavefront = |tile: usize, tile_t: usize| Schedule::WavefrontDataflow {
        tile_x: tile,
        tile_y: tile,
        tile_t,
        block_x: 4,
        block_y: 4,
    };
    let skewed = WavefrontSpec::skewed_only(Shape::cube(N), tile_t * phases, radius, 4, 4);
    vec![
        ("wavefront", wavefront(8, tile_t)),
        (
            "wavefront-xy",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 12,
                tile_t,
                block_x: 4,
                block_y: 2,
            },
        ),
        ("tile_t=1", wavefront(8, 1)),
        ("skewed-only", wavefront(skewed.tile_x, tile_t)),
    ]
}

pub fn trace_bitwise(a: &Array2<f32>, b: &Array2<f32>, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: trace dims differ");
    for i in 0..a.len() {
        assert_eq!(
            a.as_slice()[i].to_bits(),
            b.as_slice()[i].to_bits(),
            "{what}: trace element {i}: {} vs {}",
            a.as_slice()[i],
            b.as_slice()[i]
        );
    }
}

pub fn trace_close(a: &Array2<f32>, b: &Array2<f32>, tol_rel: f32, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: trace dims differ");
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()))
        .max(1e-30);
    for i in 0..a.len() {
        let d = (a.as_slice()[i] - b.as_slice()[i]).abs();
        assert!(
            d <= tol_rel * scale,
            "{what}: trace element {i}: {} vs {} (scale {scale})",
            a.as_slice()[i],
            b.as_slice()[i]
        );
    }
}
