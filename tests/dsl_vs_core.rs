//! Cross-validation of the symbolic pipeline against the hand-optimised
//! propagators: the DSL-defined, interpreter-evaluated acoustic and elastic
//! operators must reproduce `tempest_core::{Acoustic, Elastic}` — the same
//! relationship Devito's generated code has to the paper's manually
//! transformed WTB kernels — and, being `WaveSolver`s like them, must run
//! bit-identically under every schedule the shared run path offers.

mod common;

use common::{blocked_schedules, trace_bitwise, trace_close, AcousticDsl};
use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Elastic, Execution, SimConfig, WaveSolver};
use tempest::dsl::field::{FieldHandle, FieldId};
use tempest::dsl::operator::InjectScale;
use tempest::dsl::{Context, DslOperator, Expr, Update};
use tempest::grid::{Array3, Domain, ElasticModel, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::{ricker, SparsePoints};
use tempest::tiling::TileCache;

/// The velocity–stress system written symbolically with staggered derivative
/// nodes: nine updates, so nine virtual steps per timestep. Returns the
/// operator, its fields (`vz`, the measured one, third), and the twin's
/// configuration and source.
fn elastic_dsl() -> (DslOperator, [FieldHandle; 9], SimConfig, SparsePoints) {
    let (n, so, nt) = (12, 4, 8);
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let (vp, vs, rho) = (3000.0f32, 1400.0f32, 2200.0f32);
    let cfg = SimConfig::new(domain, so, EquationKind::Elastic, vp, 20.0)
        .with_nt(nt)
        .with_f0(30.0)
        .with_boundary(0, 0.0);
    let dt = cfg.dt;

    let mut ctx = Context::new(domain);
    ctx.set_dt(dt as f64);
    let fields = ["vx", "vy", "vz", "txx", "tyy", "tzz", "txy", "txz", "tyz"]
        .map(|name| ctx.time_function(name, 1, so));
    let [vx, vy, vz, txx, tyy, tzz, txy, txz, tyz] = fields;
    let lam = ctx.parameter("lam");
    let mu = ctx.parameter("mu");
    let buoy = ctx.parameter("b");
    let dte = Expr::c(dt as f64);

    let vel = |v: FieldHandle, div_tau: Expr| {
        Update::explicit(v.id(), v.x() + dte.clone() * buoy.x() * div_tau)
    };
    // Strain rates from the *fresh* velocities (t_off = 1).
    let exx = vx.dxs_bwd_at(0, 1);
    let eyy = vy.dxs_bwd_at(1, 1);
    let ezz = vz.dxs_bwd_at(2, 1);
    let div = exx.clone() + eyy.clone() + ezz.clone();
    let normal = |t: FieldHandle, e: Expr| {
        let rate = lam.x() * div.clone() + 2.0 * (mu.x() * e);
        Update::explicit(t.id(), t.x() + dte.clone() * rate)
    };
    let shear =
        |t: FieldHandle, e: Expr| Update::explicit(t.id(), t.x() + dte.clone() * (mu.x() * e));
    let updates = vec![
        vel(vx, txx.dxs_fwd(0) + txy.dxs_bwd(1) + txz.dxs_bwd(2)),
        vel(vy, txy.dxs_bwd(0) + tyy.dxs_fwd(1) + tyz.dxs_bwd(2)),
        vel(vz, txz.dxs_bwd(0) + tyz.dxs_bwd(1) + tzz.dxs_fwd(2)),
        normal(txx, exx),
        normal(tyy, eyy),
        normal(tzz, ezz),
        shear(txy, vx.dxs_fwd_at(1, 1) + vy.dxs_fwd_at(0, 1)),
        shear(txz, vx.dxs_fwd_at(2, 1) + vz.dxs_fwd_at(0, 1)),
        shear(tyz, vy.dxs_fwd_at(2, 1) + vz.dxs_fwd_at(1, 1)),
    ];

    let mut op = DslOperator::new(ctx, updates, nt);
    let mu_v = rho * vs * vs;
    op.set_parameter(lam.id(), Array3::full(n, n, n, rho * vp * vp - 2.0 * mu_v));
    op.set_parameter(mu.id(), Array3::full(n, n, n, mu_v));
    op.set_parameter(buoy.id(), Array3::full(n, n, n, 1.0 / rho));
    // The explosive source goes into the three normal stresses.
    let targets = [txx, tyy, tzz].map(|t| (t, InjectScale::Const(dt)));
    let src = SparsePoints::single_center(&domain, 0.37);
    op.set_injection(&src, &ricker(30.0, dt, nt), &targets);
    op.set_interpolation(vz, &SparsePoints::receiver_line(&domain, 4, 0.25));
    (op, fields, cfg, src)
}

/// Max |DSL − core| of the final acoustic field, and the field's peak.
fn run_pair(n: usize, so: usize, nt: usize, off_grid: f32) -> (f32, f32) {
    let mut dsl = AcousticDsl::centred(n, so, nt, off_grid, 0);
    dsl.op.run(&Execution::baseline().sequential());
    let dsl_field = dsl.op.final_field();

    let domain = dsl.cfg.domain;
    let src = SparsePoints::single_center(&domain, off_grid);
    let mut fast = Acoustic::new(
        &Model::homogeneous(domain, AcousticDsl::C),
        dsl.cfg,
        src,
        None,
    );
    fast.run(&Execution::baseline().sequential());
    let fast_field = fast.final_field();

    (dsl_field.max_abs_diff(&fast_field), fast_field.max_abs())
}

#[test]
fn dsl_matches_core_so4() {
    let (diff, scale) = run_pair(14, 4, 12, 0.37);
    assert!(scale > 0.0);
    assert!(diff <= 1e-3 * scale, "rel diff {}", diff / scale);
}

#[test]
fn dsl_matches_core_so8() {
    let (diff, scale) = run_pair(16, 8, 10, 0.37);
    assert!(diff <= 1e-3 * scale, "rel diff {}", diff / scale);
}

#[test]
fn dsl_matches_core_on_grid_source() {
    let (diff, scale) = run_pair(14, 4, 12, 0.0);
    assert!(diff <= 1e-3 * scale, "rel diff {}", diff / scale);
}

#[test]
fn dsl_elastic_matches_core() {
    // The nine-update symbolic system, evaluated by the interpreter, must
    // match the optimised two-phase elastic propagator.
    let (mut op, _, cfg, src) = elastic_dsl();
    op.run(&Execution::baseline().sequential());
    let dsl_vz = op.final_field();

    let model = ElasticModel::homogeneous(cfg.domain, 3000.0, 1400.0, 2200.0);
    let mut fast = Elastic::new(&model, cfg, src, None);
    fast.run(&Execution::baseline().sequential());
    let fast_vz = fast.final_field();

    let scale = fast_vz.max_abs();
    let diff = dsl_vz.max_abs_diff(&fast_vz);
    assert!(scale > 0.0, "wavefield must be excited");
    assert!(
        diff <= 1e-3 * scale,
        "DSL elastic vs core: rel diff {}",
        diff / scale
    );
}

#[test]
fn dsl_traces_match_core() {
    let mut dsl = AcousticDsl::centred(14, 4, 12, 0.37, 4);
    dsl.op.run(&Execution::baseline().sequential());
    let dsl_trace = dsl.op.trace().unwrap();

    let domain = dsl.cfg.domain;
    let src = SparsePoints::single_center(&domain, 0.37);
    let rec = SparsePoints::receiver_line(&domain, 4, 0.25);
    let mut fast = Acoustic::new(
        &Model::homogeneous(domain, AcousticDsl::C),
        dsl.cfg,
        src,
        Some(rec),
    );
    fast.run(&Execution::baseline().sequential());

    // Two different step bodies round differently, so the fields (and the
    // traces read from them) agree to a tolerance, not to the bit.
    trace_close(&fast.trace().unwrap(), &dsl_trace, 1e-3, "DSL vs core");
}

/// Temporal blocking derived entirely from the symbolic spec (skew from the
/// lowered radius, one virtual step per update, sparse operators fused from
/// the precomputed structures): every blocked schedule × policy reproduces
/// the operator's own sequential SpaceBlocked + classic run — bitwise on
/// every field and on the traces.
fn matrix(op: &mut DslOperator, fields: &[FieldId], name: &str) {
    op.run(&Execution::baseline().sequential());
    let f_ref: Vec<_> = fields.iter().map(|&f| op.final_field_of(f)).collect();
    let t_ref = op.trace().unwrap();
    assert!(
        op.final_field().max_abs() > 0.0,
        "{name}: field must be excited"
    );
    for (sched, schedule) in blocked_schedules(op.radius(), op.phases()) {
        for policy in [Policy::Sequential, Policy::default()] {
            let what = format!("{name} {sched} {policy:?}");
            op.run(&Execution {
                schedule,
                sparse: SparseMode::FusedCompressed,
                policy,
                kernel: KernelPath::default(),
            });
            for (&id, want) in fields.iter().zip(&f_ref) {
                let f = op.final_field_of(id);
                assert!(
                    want.bit_equal(&f),
                    "{what} field {id:?}: max diff {}",
                    want.max_abs_diff(&f)
                );
            }
            trace_bitwise(&t_ref, &op.trace().unwrap(), &what);
        }
    }
}

#[test]
fn dsl_acoustic_is_bitwise_under_every_blocked_schedule() {
    for (n, so, nt) in [(14, 4, 12), (16, 8, 10)] {
        let mut dsl = AcousticDsl::centred(n, so, nt, 0.37, 4);
        matrix(&mut dsl.op, &[dsl.u.id()], &format!("dsl acoustic so{so}"));
    }
}

#[test]
fn dsl_elastic_is_bitwise_under_every_blocked_schedule() {
    let (mut op, fields, ..) = elastic_dsl();
    matrix(&mut op, &fields.map(|f| f.id()), "dsl elastic");
}

#[test]
fn dsl_incremental_round_trip_is_bitwise() {
    // Cold fill, identical rerun, rerun with the corner source nudged: each
    // equals a plain cold run of the same problem bit for bit, and the
    // nudged rerun restores the tiles outside the delta's light cone.
    let domain = Domain::uniform(Shape::cube(14), 10.0);
    let corner = |nudge: f32| SparsePoints::new(&domain, vec![[23.0 + nudge, 24.0, 63.0]]);
    let mut dsl = AcousticDsl::new(14, 4, 12);
    dsl.op
        .set_interpolation(dsl.u, &SparsePoints::receiver_line(&domain, 4, 0.25));
    let exec = Execution {
        schedule: Schedule::WavefrontDataflow {
            tile_x: 4,
            tile_y: 6,
            tile_t: 2,
            block_x: 4,
            block_y: 2,
        },
        ..Execution::wavefront_default()
    };
    let cache = TileCache::with_capacity_mb(64);
    for (mode, nudge) in [("cold", 0.0), ("warm", 0.0), ("nudged", 3.0)] {
        dsl.inject(&corner(nudge), 1.0);
        dsl.op.run(&Execution::baseline().sequential());
        let (f_ref, t_ref) = (dsl.op.final_field(), dsl.op.trace().unwrap());
        assert!(f_ref.max_abs() > 0.0);

        let rep = dsl.op.run_incremental(&exec, &cache, 0);
        assert_eq!(rep.cold, mode == "cold", "{mode}");
        assert_eq!(rep.reused + rep.recomputed, rep.total_tiles, "{mode}");
        match mode {
            "cold" => assert_eq!(rep.reused, 0),
            "warm" => assert_eq!(rep.reused, rep.total_tiles),
            _ => assert!(rep.reused > 0 && rep.recomputed > 0, "{mode}: {rep:?}"),
        }
        let f = dsl.op.final_field();
        assert!(
            f_ref.bit_equal(&f),
            "{mode}: max diff {}",
            f_ref.max_abs_diff(&f)
        );
        trace_bitwise(&t_ref, &dsl.op.trace().unwrap(), mode);
    }
}
