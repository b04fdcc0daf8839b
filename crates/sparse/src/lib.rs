//! # tempest-sparse
//!
//! Off-the-grid sparse operators and the paper's precomputation scheme.
//!
//! Seismic modelling injects a source wavelet at positions that are *not*
//! grid points and measures the wavefield at off-grid receiver positions
//! (paper Fig. 3). Classically these run as separate non-affine loops after
//! each dense timestep (Listing 1) — which is exactly what blocks temporal
//! blocking (Fig. 4b). This crate implements both the classic path and the
//! paper's §II.A scheme that makes temporal blocking legal:
//!
//! 1. **probe** the affected grid points by injecting into an empty grid
//!    (Listing 2) — [`precompute::SourcePrecompute::build_probed`], with an
//!    analytic fast path [`precompute::SourcePrecompute::build`];
//! 2. build the binary **source mask** `SM` and unique-ID volume `SID`
//!    (Fig. 5b/5c);
//! 3. **decompose** the off-grid wavelets into per-affected-point, grid-
//!    aligned wavelets `src_dcmp[t][id]` (Listing 3, Fig. 5d);
//! 4. **fuse** injection into the stencil loop nest (Listing 4) — this
//!    crate supplies the structures ([`precompute::SourcePrecompute`]'s
//!    `SM`/`SID`/`src_dcmp`); the fused per-pencil apply itself is
//!    `tempest_core::sources::FusedPencil`, called from each propagator's
//!    step body;
//! 5. **compress** the iteration space with `nnz_mask` / `Sp_SID`
//!    (Listing 5, Fig. 6) — [`compressed::CompressedMask`].
//!
//! Receiver interpolation gets the mirror treatment ([`receivers`]): affected
//! points are masked and ID'd, and the gather is fused into the blocked loop
//! so measurements are taken at exactly the right space-time coordinates.

pub mod classic;
pub mod compressed;
pub mod interp;
pub mod points;
pub mod precompute;
pub mod receivers;
pub mod wavelet;

pub use classic::{inject, interpolate};
pub use compressed::CompressedMask;
pub use interp::{trilinear, InterpStencil, FOOTPRINT};
pub use points::SparsePoints;
pub use precompute::SourcePrecompute;
pub use receivers::ReceiverPrecompute;
pub use wavelet::ricker;
