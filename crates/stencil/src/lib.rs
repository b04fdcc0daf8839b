//! # tempest-stencil
//!
//! Finite-difference machinery: coefficient generation and the dense
//! point-update kernels used by the wave propagators.
//!
//! The paper's kernels are explicit finite-difference discretisations of
//! space orders 4, 8 and 12 (§IV.B). This crate computes the FD weights for
//! *any* even order with Fornberg's algorithm ([`coeffs`]), models the
//! FLOP/byte footprint of the resulting space stencils ([`metrics`], used by
//! the roofline reproduction of Fig. 11), and provides the inner-loop
//! building blocks ([`kernels`]) that the propagators in `tempest-core`
//! assemble into full time updates:
//!
//! * second-derivative / Laplacian contributions (isotropic acoustic, Fig. 2),
//! * centred first derivatives (the rotated TTI Laplacian, Eq. 2), and the
//!   fused TTI update built on them, which takes both fields' six second
//!   derivatives per point ([`kernels::TtiField`]) and finishes the
//!   leap-frog step of `p` and `q` in one pass,
//! * staggered first derivatives (elastic velocity–stress, Eq. 3), and the
//!   three fused staggered updates built on them — velocity, the
//!   normal-stress triple, shear — which evaluate an elastic update's
//!   derivatives ([`kernels::StaggeredTerm`]) in registers and write the
//!   updated pencil in one pass.
//!
//! All kernels operate on raw slices with precomputed strides so the `z`
//! loop vectorises; weights are premultiplied by the `1/hᵏ` grid-spacing
//! factors at construction time, keeping the hot loop multiply–add only.
//!
//! Three interchangeable row-granularity implementations of these kernels —
//! per-point `Scalar` ([`kernels`]), autovectorizer-shaped `Portable`
//! ([`simd`]) and explicit-intrinsics `Avx2` ([`avx2`]) — are the variants of
//! the [`backend::Backend`] enum: each row kernel is one method with one
//! `match` arm per variant, selected at runtime by the [`backend`] dispatcher
//! (CPU feature detection, `TEMPEST_KERNEL` override). All are
//! bitwise-identical by contract. Every row kernel has a compile-time-radius
//! form; only the Laplacian also has a dynamic-radius one (acoustic at space
//! orders without a monomorphised kernel). The elastic step calls only the
//! fused updates, and the TTI step only the fused update and the
//! first-derivative rows that feed it; the staggered, second-derivative and
//! outer-product rows stay for the benchmark's row probe and as the fused
//! kernels' two-pass test oracles.

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod backend;
pub mod coeffs;
pub mod kernels;
pub mod metrics;
pub mod simd;

pub use backend::{Backend, BackendCaps};
pub use coeffs::{central_coeffs, fornberg_weights, staggered_coeffs};
pub use kernels::AxisWeights;
pub use simd::{Lane, LANE};
