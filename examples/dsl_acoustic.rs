//! The Devito-style symbolic workflow (paper §III-A Listing 1):
//! define the damped acoustic wave equation symbolically, `solve` for the
//! forward update, lower to an executable stencil plan, attach off-grid
//! source/receivers, print the generated loop nest, run — cross-checked
//! against the hand-optimised `tempest-core` propagator — and run again
//! under wave-front temporal blocking, the schedule chosen below the
//! specification.
//!
//! ```text
//! cargo run --release --example dsl_acoustic
//! ```

use tempest::core::config::EquationKind;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::dsl::operator::InjectScale;
use tempest::dsl::{solve, Context, DslOperator};
use tempest::grid::{Array3, Domain, Model, Shape};
use tempest::sparse::{ricker, SparsePoints};

fn main() {
    let n = 24;
    let so = 4;
    let nt = 16;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let c = 2000.0f32;

    // ---- symbolic definition (the paper's Listing 1 of §III-A) ----------
    let mut ctx = Context::new(domain);
    let u = ctx.time_function("u", 2, so);
    let m = ctx.parameter("m");

    let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, c, 100.0)
        .with_nt(nt)
        .with_f0(30.0)
        .with_boundary(0, 0.0); // free propagation keeps the comparison exact
    ctx.set_dt(cfg.dt as f64);
    let dt = cfg.dt;

    // eq = m * u.dt2 - u.laplace ; update = Eq(u.forward, solve(eq, u.forward))
    let eq = m.x() * u.dt2() - u.laplace();
    let update = solve(&ctx, &eq, u).expect("wave equation is linear in u.forward");

    let m_id = m.id();
    let mut op = DslOperator::new(ctx, vec![update], nt);
    let shape = Shape::cube(n);
    op.set_parameter(
        m_id,
        Array3::full(shape.nx, shape.ny, shape.nz, 1.0 / (c * c)),
    );

    let src = SparsePoints::single_center(&domain, 0.37);
    let rec = SparsePoints::receiver_line(&domain, 5, 0.25);
    let wavelet = ricker(30.0, dt, nt);
    // src.inject(u.forward, expr = src * dt**2 / m)
    let scale = InjectScale::ConstOverParam(dt * dt, m_id);
    op.set_injection(&src, &wavelet, &[(u, scale)]);
    // d = rec.interpolate(u)
    op.set_interpolation(u, &rec);

    println!(
        "generated loop nest (Listing-1 structure):\n{}",
        op.pseudocode()
    );

    op.run(&Execution::baseline().sequential());
    let dsl_field = op.final_field();
    let dsl_trace = op.trace().unwrap();

    // ---- the hand-optimised propagator on the same problem --------------
    let model = Model::homogeneous(domain, c);
    let mut fast = Acoustic::new(&model, cfg, src, Some(rec));
    fast.run(&Execution::baseline().sequential());
    let fast_field = fast.final_field();
    let fast_trace = fast.trace().unwrap();

    let fdiff = dsl_field.max_abs_diff(&fast_field);
    let fscale = fast_field.max_abs().max(1e-30);
    println!(
        "wavefield: DSL-interpreted vs hand-optimised max diff {fdiff:.3e} \
         (peak {fscale:.3e}, {:.1e} relative)",
        fdiff / fscale
    );
    assert!(fdiff <= 1e-3 * fscale, "DSL and core kernels must agree");

    let mut tdiff = 0.0f32;
    let mut tscale = 0.0f32;
    for t in 0..nt {
        for r in 0..5 {
            tdiff = tdiff.max((dsl_trace.get(t, r) - fast_trace.get(t, r)).abs());
            tscale = tscale.max(fast_trace.get(t, r).abs());
        }
    }
    println!("traces   : max diff {tdiff:.3e} (peak {tscale:.3e})",);
    assert!(tdiff <= 1e-3 * tscale.max(1e-30));
    println!("\nDSL semantics == optimised kernels ✓");

    // ---- automated temporal blocking from the symbolic spec -------------
    // The paper's future work (§V-B): skew, phases and the fused sparse
    // operators all derived automatically from the lowered kernel; the run
    // path, its tile plan and the worker pool are the propagators' own.
    let wavefront = Execution::wavefront_default();
    let stats = op.run(&wavefront);
    assert!(
        dsl_field.bit_equal(&op.final_field()),
        "automated WTB must be bitwise identical"
    );
    println!(
        "automated wave-front temporal blocking ({}, {:.4} GPts/s) == classic run ✓ (bitwise)",
        wavefront.schedule_label(),
        stats.gpoints_per_s
    );
}
