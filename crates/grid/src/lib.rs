//! # tempest-grid
//!
//! Dense grid data structures for finite-difference wave propagation.
//!
//! This crate is the data layer underneath the `tempest` workspace (the role
//! Devito's `Grid` / `Function` / `TimeFunction` objects play in the paper
//! *"Temporal blocking of finite-difference stencil operators with sparse
//! 'off-the-grid' sources"*, IPDPS 2021). It provides:
//!
//! * [`Array3`] / [`Array2`] — flat, cache-friendly dense arrays with the
//!   innermost (`z`) axis contiguous, so stencil kernels vectorise over
//!   contiguous pencils.
//! * [`Field`] — an [`Array3`] with a halo region of configurable width, the
//!   storage for one time level of a wavefield.
//! * [`Domain`] — physical-coordinate ↔ grid-index mapping (grid spacing,
//!   origin), used to locate *off-the-grid* source/receiver positions.
//! * [`model`] — material parameter volumes (velocity, density, Thomsen
//!   parameters) with homogeneous / layered / randomly perturbed builders.
//! * [`boundary`] — the absorbing boundary (sponge) damping profile, and its
//!   dense per-point volume.
//!
//! All arrays store `f32` wavefields by default (single precision, matching
//! the paper's §IV.B setup) but the containers are generic.

pub mod array;
pub mod boundary;
pub mod domain;
pub mod field;
pub mod model;
pub mod rng;
pub mod shape;

pub use array::{Array2, Array3};
pub use boundary::DampingMask;
pub use domain::Domain;
pub use field::Field;
pub use model::{ElasticModel, Model, TtiModel};
pub use rng::Rng64;
pub use shape::{Range3, Shape};
