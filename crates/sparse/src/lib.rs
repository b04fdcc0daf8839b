//! # tempest-sparse
//!
//! Off-the-grid sparse operators and the paper's precomputation scheme.
//!
//! Seismic modelling injects a source wavelet at positions that are *not*
//! grid points and measures the wavefield at off-grid receiver positions
//! (paper Fig. 3). Classically these run as separate non-affine loops after
//! each dense timestep (Listing 1, [`classic`]) — which is exactly what
//! blocks temporal blocking (Fig. 4b). The paper's §II.A scheme makes it
//! legal; here it is one inspector, [`Footprint::build`], that every
//! direction reads:
//!
//! 1. the affected grid points — what probing an empty grid finds
//!    (Listing 2), computed as the union of the non-zero interpolation
//!    footprints;
//! 2. their IDs in canonical grid order — the `SM`/`SID` of Fig. 5b/5c,
//!    held as the sorted point list rather than as grid-sized volumes;
//! 3. a point → `(slot, weight)` CSR, through which [`SourcePrecompute`]
//!    **decomposes** the wavelets into grid-aligned `src_dcmp[t][id]`
//!    (Listing 3, Fig. 5d), and through which the receivers' gather — the
//!    mirror — stores each point's products into their trace slots;
//! 4. the per-`(x, y)` pencil index, the `nnz_mask` / `Sp_SID` of Listing 5
//!    and Fig. 6 ([`CompressedMask`]), over which the sparse work is
//!    **fused** into the stencil loop nest
//!    (`tempest_core::sources::FusedPencil`).
//!
//! An adjoint that injects at the receivers decomposes its wavelets onto
//! the receivers' footprint. [`ReceiverPrecompute`] adds the dense
//! `RM`/`RID` volumes to a footprint for callers that report their size; no
//! solver builds it.

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
pub use precompute::{Footprint, SourcePrecompute};
pub use receivers::ReceiverPrecompute;
pub use wavelet::ricker;
