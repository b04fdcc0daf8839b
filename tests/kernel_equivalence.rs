//! Scalar-vs-pencil kernel-path equivalence: the correctness contract of the
//! pencil-vectorized kernel layer (`tempest_stencil::simd`).
//!
//! The pencil kernels hoist bounds checks and process whole `z`-rows in
//! fixed-width lanes, but they replay the scalar per-point accumulation
//! order term-for-term — so every propagator, under every schedule and at
//! every supported space order, must produce **bitwise identical** final
//! wavefields (`Array3::bit_equal`, i.e. `f32::to_bits` equality) whichever
//! kernel path is selected.

mod common;

use common::{blocked_schedules, solvers, trace_bitwise};
use tempest::core::operator::KernelPath;
use tempest::core::Execution;
use tempest::grid::Array3;
use tempest::par::Policy;
use tempest::stencil::Backend;

const NT: usize = 10;

fn assert_bitwise(label: &str, scalar: &Array3<f32>, pencil: &Array3<f32>) {
    assert!(scalar.max_abs() > 0.0, "{label}: field must be excited");
    assert!(
        scalar.bit_equal(pencil),
        "{label}: pencil path must be bitwise identical to scalar, max diff {}",
        scalar.max_abs_diff(pencil)
    );
}

#[test]
fn scalar_vs_pencil_bitwise_all_propagators_orders_and_schedules() {
    // SO 10 (acoustic alone) takes the dynamic-radius Laplacian row.
    for so in [4usize, 8, 10, 12] {
        for mut s in solvers(so, NT, 0.4, 4) {
            let mut execs = vec![("spaceblocked", Execution::baseline().sequential())];
            for (name, schedule) in blocked_schedules(s.radius(), s.phases()) {
                let exec = Execution {
                    schedule,
                    ..Execution::wavefront_default().sequential()
                };
                execs.push((name, exec));
            }
            for (name, exec) in execs {
                let label = format!("{} so={so} {name}", s.name());
                s.run(&exec.scalar_kernels());
                let (fs, ts) = (s.final_field(), s.trace().unwrap());
                s.run(&exec.with_kernel(KernelPath::Portable));
                assert_bitwise(&label, &fs, &s.final_field());
                // Receiver traces gather from the updated pencils, so they
                // inherit the bitwise contract too (same schedule, same
                // sparse mode, sequential on both runs).
                trace_bitwise(&ts, &s.trace().unwrap(), &label);
            }
        }
    }
}

#[test]
fn parallel_pencil_matches_sequential_scalar_bitwise() {
    // The strongest cross-cutting claim: parallel wave-front execution on
    // every vector backend reproduces the sequential space-blocked scalar
    // baseline bit-for-bit — at SO 10 too, where the acoustic step body runs
    // the dynamic-radius Laplacian row.
    for so in [8usize, 10] {
        for mut s in solvers(so, NT, 0.4, 0) {
            s.run(&Execution::baseline().sequential().scalar_kernels());
            let base = s.final_field();
            let (_, schedule) = blocked_schedules(s.radius(), s.phases())[0];
            for backend in Backend::ALL {
                if backend == Backend::Scalar || !backend.available() {
                    continue;
                }
                let exec = Execution {
                    schedule,
                    policy: Policy::Parallel,
                    ..Execution::wavefront_default().with_kernel(KernelPath::from(backend))
                };
                s.run(&exec);
                let label = format!(
                    "{} so={so} parallel wavefront {backend} vs scalar baseline",
                    s.name()
                );
                assert_bitwise(&label, &base, &s.final_field());
            }
        }
    }
}
