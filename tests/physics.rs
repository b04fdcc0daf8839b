//! Physics sanity tests spanning crates: the simulated waves must behave
//! like waves — correct arrival times, geometric symmetry, absorbing
//! boundaries that absorb, CFL-stable evolution.

use tempest::core::config::{cfl_dt, EquationKind};
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::sparse::SparsePoints;

#[test]
fn acoustic_wavefront_arrival_time() {
    // Homogeneous medium, on-grid centre source: the wave must reach a
    // probe point at distance d after ≈ d/c (+ wavelet delay t0 = 1/f0).
    let n = 48;
    let c = 2000.0f32;
    let d = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::homogeneous(d, c);
    let f0 = 25.0f32;
    let cfg = SimConfig::new(d, 8, EquationKind::Acoustic, c, 120.0)
        .with_f0(f0)
        .with_boundary(0, 0.0);
    let dt = cfg.dt;
    let nt = cfg.nt;
    let center = d.center();
    let src = SparsePoints::new(&d, vec![center]);
    // Probe: receiver 150 m away along x.
    let probe = [center[0] + 150.0, center[1], center[2]];
    let rec = SparsePoints::new(&d, vec![probe]);
    let mut s = Acoustic::new(&model, cfg, src, Some(rec));
    s.run(&Execution::baseline().sequential());
    let tr = s.trace().unwrap();
    let peak = (0..nt).fold(0.0f32, |m, t| m.max(tr.get(t, 0).abs()));
    assert!(peak > 0.0);
    let first = (0..nt)
        .find(|&t| tr.get(t, 0).abs() > 0.05 * peak)
        .expect("wave must arrive");
    let arrival_s = first as f32 * dt;
    let expected_s = 150.0 / c + 1.0 / f0; // travel + wavelet delay
    let period = 1.0 / f0;
    assert!(
        (arrival_s - expected_s).abs() < 1.5 * period,
        "arrival {arrival_s:.4}s vs expected {expected_s:.4}s"
    );
}

#[test]
fn acoustic_spherical_symmetry_from_on_grid_source() {
    // An exactly on-grid centre source in a homogeneous isotropic medium:
    // the wavefield is symmetric under axis permutations and reflections.
    let n = 33; // odd: exact centre point
    let d = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(20)
        .with_f0(25.0)
        .with_boundary(0, 0.0);
    let center = d.coord_of(16, 16, 16);
    let src = SparsePoints::new(&d, vec![center]);
    let mut s = Acoustic::new(&model, cfg, src, None);
    s.run(&Execution::baseline().sequential());
    let f = s.final_field();
    let c = 16usize;
    for off in [3usize, 7, 11] {
        let refv = f.get(c + off, c, c);
        for v in [
            f.get(c - off, c, c),
            f.get(c, c + off, c),
            f.get(c, c - off, c),
            f.get(c, c, c + off),
            f.get(c, c, c - off),
        ] {
            assert!(
                (v - refv).abs() <= 1e-5 * refv.abs().max(1e-20),
                "off {off}: {v} vs {refv}"
            );
        }
    }
}

#[test]
fn sponge_absorbs_boundary_reflections() {
    // Compare a probe near the boundary after the wave has hit it: with a
    // sponge, late-time amplitude must be much smaller than without.
    let n = 32;
    let c = 2000.0f32;
    let d = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::homogeneous(d, c);
    let run = |nbl: usize, coeff: f32| {
        let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, c, 250.0)
            .with_f0(30.0)
            .with_boundary(nbl, coeff);
        let src = SparsePoints::single_center(&d, 0.0);
        let mut s = Acoustic::new(&model, cfg, src, None);
        s.run(&Execution::baseline().sequential());
        s.final_field().norm_l2()
    };
    let free = run(0, 0.0);
    let sponged = run(8, 0.5);
    assert!(
        sponged < 0.5 * free,
        "sponge must drain energy: {sponged} !< 0.5·{free}"
    );
}

#[test]
fn cfl_violation_goes_unstable_and_cfl_respects_it() {
    // Same problem, dt at the CFL bound (stable) vs 3× the bound
    // (explodes). This validates both the bound and the leap-frog kernel.
    let n = 24;
    let c = 3000.0f32;
    let d = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::homogeneous(d, c);
    let src = SparsePoints::single_center(&d, 0.3);

    let cfg_ok = SimConfig::new(d, 4, EquationKind::Acoustic, c, 60.0)
        .with_f0(30.0)
        .with_boundary(0, 0.0);
    let mut s = Acoustic::new(&model, cfg_ok.clone(), src, None);
    s.run(&Execution::baseline().sequential());
    let stable_max = s.final_field().max_abs();
    assert!(stable_max.is_finite() && stable_max < 1e3);

    let mut cfg_bad = cfg_ok;
    cfg_bad.dt = 3.0 * cfl_dt(EquationKind::Acoustic, 10.0, c);
    let nt = cfg_bad.nt;
    let src2 = SparsePoints::single_center(&d, 0.3);
    let mut s2 = Acoustic::new(&model, cfg_bad.with_nt(nt.min(60)), src2, None);
    s2.run(&Execution::baseline().sequential());
    let f = s2.final_field();
    let has_nan = f.as_slice().iter().any(|v| v.is_nan() || v.is_infinite());
    let unstable_max = f.max_abs();
    assert!(
        has_nan || unstable_max > 1e4,
        "3× CFL must blow up, got max {unstable_max} (nan: {has_nan})"
    );
}

#[test]
fn two_layer_reflection_exists() {
    // With a strong velocity contrast, energy reflects back into the top
    // layer: a surface receiver sees a secondary arrival after the direct
    // wave. Weak check: trace energy after the direct-wave window is
    // non-negligible with the interface present.
    let n = 48;
    let d = Domain::uniform(Shape::cube(n), 10.0);
    let f0 = 25.0f32;
    // Fixed vmax so both runs share dt/nt and traces are sample-comparable.
    let mk = |bottom: f32| {
        let model = Model::two_layer(d, 1500.0, bottom, 0.35);
        let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 4000.0, 400.0)
            .with_f0(f0)
            .with_boundary(6, 0.4);
        let e = d.extent();
        let src = SparsePoints::new(&d, vec![[0.5 * e[0], 0.5 * e[1], 0.12 * e[2]]]);
        let rec = SparsePoints::new(&d, vec![[0.5 * e[0] + 40.0, 0.5 * e[1], 0.12 * e[2]]]);
        let mut s = Acoustic::new(&model, cfg, src, Some(rec));
        s.run(&Execution::baseline().sequential());
        s.trace().unwrap()
    };
    let with_contrast = mk(4000.0);
    let uniform = mk(1500.0);
    let nt = uniform.dims()[0];
    let direct: f64 = (0..nt).map(|t| (uniform.get(t, 0) as f64).powi(2)).sum();
    let reflected: f64 = (0..nt)
        .map(|t| ((with_contrast.get(t, 0) - uniform.get(t, 0)) as f64).powi(2))
        .sum();
    assert!(
        reflected > 0.005 * direct,
        "interface must reflect energy: reflected {reflected:.3e} vs direct {direct:.3e}"
    );
}
