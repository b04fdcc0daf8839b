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
//! 2. give them unique IDs in canonical grid order — the source mask `SM`
//!    and ID volume `SID` of Fig. 5b/5c, held as the sorted point list
//!    rather than as grid-sized volumes;
//! 3. **decompose** the off-grid wavelets into per-affected-point, grid-
//!    aligned wavelets `src_dcmp[t][id]` (Listing 3, Fig. 5d);
//! 4. **compress** the iteration space per `(x, y)` pencil — the
//!    `nnz_mask` / `Sp_SID` of Listing 5 and Fig. 6, one CSR built from the
//!    points: [`compressed::CompressedMask`];
//! 5. **fuse** injection into the stencil loop nest over that index — this
//!    crate supplies the structures; the fused per-pencil apply itself is
//!    `tempest_core::sources::FusedPencil`, called from each propagator's
//!    step body.
//!
//! Receiver interpolation gets the mirror treatment ([`receivers`]): affected
//! points are ID'd and indexed the same way, and the gather is fused into the
//! blocked loop so measurements are taken at exactly the right space-time
//! coordinates.

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
