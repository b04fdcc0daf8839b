//! # tempest-core
//!
//! The paper's contribution assembled: three finite-difference wave
//! propagators — isotropic acoustic (§III-A), anisotropic acoustic TTI
//! (§III-B) and isotropic elastic (§III-C) — that run under either the
//! spatially blocked baseline schedule (classic per-timestep off-grid
//! sparse operators, Listing 1) or **wave-front temporal blocking** with the
//! precomputed, grid-aligned, loop-fused and compressed sparse operators of
//! §II (Listing 5).
//!
//! Entry points:
//!
//! * [`config::SimConfig`] — problem setup (grid, space order, CFL-stable
//!   timestep, absorbing layers), mirroring the paper's §IV.B test cases.
//! * [`acoustic::Acoustic`], [`tti::Tti`], [`elastic::Elastic`] — the
//!   propagators.
//! * [`operator::Execution`] — which schedule to run; every propagator
//!   implements [`operator::WaveSolver`] and returns
//!   [`operator::RunStats`] (throughput in GPoints/s, the paper's Fig. 9
//!   metric).
//!
//! Correctness invariant (enforced by tests at every space order): the
//! wave-front temporally blocked execution produces the same wavefields as
//! the spatially blocked baseline — bitwise for single-source problems,
//! within accumulation-order tolerance otherwise — and the same receiver
//! traces bit for bit ([`trace`]: one slot per footprint corner).

pub mod acoustic;
pub mod config;
pub mod elastic;
pub mod operator;
pub mod runpath;
pub mod shared;
pub mod sources;
pub mod trace;
pub mod tti;

pub use acoustic::{Acoustic, ShotAssets};
pub use config::SimConfig;
pub use elastic::Elastic;
pub use operator::{Execution, KernelPath, RunStats, WaveSolver};
pub use runpath::IncrementalReport;
pub use tti::Tti;
