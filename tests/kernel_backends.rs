//! Backend-equivalence oracle for the multi-backend kernel layer
//! (`tempest_stencil::backend`): every kernel backend available on the
//! host — portable pencil kernels, AVX2 intrinsics — must produce final
//! wavefields **bitwise identical** (`f32::to_bits` equality) to the
//! per-point `Scalar` reference, for every propagator, at radii 2 and 4
//! (TTI and elastic also at 6), under both a spatially blocked and a dataflow
//! temporal-blocking schedule. This is the contract that lets the runtime
//! dispatcher swap backends per host without changing results.
//!
//! Also unit-tests the dispatcher itself through its pure `choose` entry
//! point (the env-reading `default_backend` is a OnceLock over the same
//! logic, kept out of tests to avoid cross-test env races).

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Elastic, Execution, SimConfig, Tti, WaveSolver};
use tempest::grid::{Array3, Domain, ElasticModel, Model, Shape, TtiModel};
use tempest::sparse::SparsePoints;
use tempest::stencil::backend::{choose, detect_best, KERNEL_ENV};
use tempest::stencil::Backend;

const N: usize = 20;
const NT: usize = 10;

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

/// The two schedule families the oracle sweeps: the spatially blocked
/// baseline and a barrier-free dataflow temporal-blocking schedule.
fn schedules() -> Vec<(&'static str, Execution)> {
    let sb = Execution::baseline().sequential();
    let mut df = Execution::wavefront_default().sequential();
    df.schedule = Schedule::WavefrontDataflow {
        tile_x: 8,
        tile_y: 8,
        tile_t: 3,
        block_x: 4,
        block_y: 4,
    };
    df.sparse = SparseMode::FusedCompressed;
    vec![("spaceblocked", sb), ("dataflow", df)]
}

/// Every non-scalar backend runnable on this host, as a `KernelPath`.
fn vector_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|b| *b != Backend::Scalar && b.available())
        .collect()
}

fn assert_bitwise(label: &str, scalar: &Array3<f32>, other: &Array3<f32>) {
    assert!(scalar.max_abs() > 0.0, "{label}: field must be excited");
    assert!(
        scalar.bit_equal(other),
        "{label}: backend must be bitwise identical to scalar, max diff {}",
        scalar.max_abs_diff(other)
    );
}

/// Run `solver` under every backend and compare each against scalar.
fn check_all_backends(label: &str, solver: &mut dyn WaveSolver, exec: &Execution) {
    solver.run(&exec.with_kernel(KernelPath::Scalar));
    let reference = solver.final_field();
    for b in vector_backends() {
        solver.run(&exec.with_kernel(KernelPath::from(b)));
        let field = solver.final_field();
        assert_bitwise(&format!("{label} backend={}", b.name()), &reference, &field);
    }
}

#[test]
fn acoustic_backends_bitwise_vs_scalar() {
    for so in [4usize, 8] {
        let d = domain();
        let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(d, so, EquationKind::Acoustic, 2800.0, 50.0)
            .with_nt(NT)
            .with_f0(12.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let rec = SparsePoints::receiver_line(&d, 4, 0.25);
        let mut a = Acoustic::new(&model, cfg, src, Some(rec));
        for (name, exec) in schedules() {
            check_all_backends(&format!("acoustic so={so} {name}"), &mut a, &exec);
        }
    }
}

#[test]
fn tti_backends_bitwise_vs_scalar() {
    // SO 12 too: `Tti::new` admits radius 6, and the fused update kernel is
    // monomorphised per radius.
    for so in [4usize, 8, 12] {
        let d = domain();
        let model = TtiModel::homogeneous(d, 2000.0, 0.2, 0.1, 0.35, 0.3);
        let cfg = SimConfig::new(d, so, EquationKind::Tti, model.vmax(), 80.0)
            .with_nt(NT)
            .with_f0(15.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let mut t = Tti::new(&model, cfg, src, None);
        for (name, exec) in schedules() {
            check_all_backends(&format!("tti so={so} {name}"), &mut t, &exec);
        }
    }
}

#[test]
fn elastic_backends_bitwise_vs_scalar() {
    // SO 12 too: `Elastic::new` admits radius 6, and the fused staggered
    // kernels are monomorphised per radius.
    for so in [4usize, 8, 12] {
        let d = domain();
        let model = ElasticModel::homogeneous(d, 2500.0, 1400.0, 2200.0);
        let cfg = SimConfig::new(d, so, EquationKind::Elastic, 2500.0, 60.0)
            .with_nt(NT)
            .with_f0(12.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let rec = SparsePoints::receiver_line(&d, 4, 0.25);
        let mut e = Elastic::new(&model, cfg, src, Some(rec));
        for (name, exec) in schedules() {
            check_all_backends(&format!("elastic so={so} {name}"), &mut e, &exec);
        }
    }
}

#[test]
fn dispatcher_honours_requests_and_falls_back() {
    // Explicit names are honoured whenever the backend can run here.
    assert_eq!(choose(Some("scalar")), Backend::Scalar);
    assert_eq!(choose(Some("portable")), Backend::Portable);
    if Backend::Avx2.available() {
        assert_eq!(choose(Some("avx2")), Backend::Avx2);
    } else {
        // Unavailable request falls back to the detected best, not a crash.
        assert_eq!(choose(Some("avx2")), detect_best());
    }
    // Auto, empty and unknown all resolve to the detected best.
    for req in [None, Some("auto"), Some(""), Some("no-such-backend")] {
        assert_eq!(choose(req), detect_best());
    }
    // The detected best is always runnable and never the scalar reference.
    assert!(detect_best().available());
    assert_ne!(detect_best(), Backend::Scalar);
}

#[test]
fn kernel_path_resolution_matches_dispatcher() {
    // `Auto` is the process default, which honours `TEMPEST_KERNEL` — CI
    // runs this suite under each forced value.
    let forced = std::env::var(KERNEL_ENV).ok();
    assert_eq!(KernelPath::Auto.resolve(), choose(forced.as_deref()));
    assert_eq!(KernelPath::Scalar.resolve(), Backend::Scalar);
    assert_eq!(KernelPath::Portable.resolve(), Backend::Portable);
    if Backend::Avx2.available() {
        assert_eq!(KernelPath::Avx2.resolve(), Backend::Avx2);
    } else {
        assert_eq!(KernelPath::Avx2.resolve(), detect_best());
    }
}
