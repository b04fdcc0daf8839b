//! Source / receiver bundles: everything a propagator needs for both the
//! classic (Listing 1) and the precomputed, fused and compressed (Listing 5)
//! sparse-operator paths, built once per simulation — and the two paths
//! themselves, written once for all three propagators: [`classic_step`] and
//! [`FusedPencil`]. A propagator contributes only *where an amplitude lands*
//! (which fields, at what scale) and *which freshly written row receivers
//! read*; the walk over affected points, the mode switch, the clipping to
//! the region, the counters and the trace span are here.

use std::ops::Range;
use std::sync::Arc;

use crate::operator::SparseMode;
use crate::trace::TraceBuffer;
use tempest_grid::{Array2, Domain};
use tempest_obs as obs;
use tempest_sparse::wavelet::wavelet_matrix;
use tempest_sparse::{
    ricker, CompressedMask, Footprint, SourcePrecompute, SparsePoints, FOOTPRINT,
};

/// A set of sources with their wavelets, in both representations.
#[derive(Clone)]
pub struct SourceBundle {
    /// Off-grid source positions.
    pub points: SparsePoints,
    /// Wavelet matrix `src[t][s]`.
    pub wavelets: Array2<f32>,
    /// The paper's precomputed grid-aligned structures: the footprint
    /// (affected points, per-pencil index, trilinear stencils for the
    /// classic path) and `src_dcmp`.
    pub pre: SourcePrecompute,
}

impl SourceBundle {
    /// Build from explicit wavelets.
    pub fn new(domain: &Domain, points: SparsePoints, wavelets: Array2<f32>) -> Self {
        let pre = SourcePrecompute::build(domain, &points, &wavelets);
        SourceBundle {
            points,
            wavelets,
            pre,
        }
    }

    /// Build with every source firing the same Ricker wavelet (the paper's
    /// configuration).
    pub fn with_ricker(domain: &Domain, points: SparsePoints, f0: f32, dt: f32, nt: usize) -> Self {
        let w = ricker(f0, dt, nt);
        let m = wavelet_matrix(&w, points.len());
        Self::new(domain, points, m)
    }

    /// Amplitudes of all sources at timestep `t` (classic path).
    #[inline]
    pub fn amps_at(&self, t: usize) -> &[f32] {
        self.wavelets.row(t)
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.points.len()
    }
}

/// A set of receivers: positions and their footprint (trilinear stencils
/// for the classic path, per-pencil index and CSR contributions for the
/// fused gather).
#[derive(Clone)]
pub struct ReceiverBundle {
    /// Off-grid receiver positions.
    pub points: SparsePoints,
    /// Grid-aligned gather structures, shared with the adjoint's sources.
    pub footprint: Arc<Footprint>,
}

impl ReceiverBundle {
    /// Build the gather structures for a receiver set.
    pub fn new(domain: &Domain, points: SparsePoints) -> Self {
        assert!(!points.is_empty(), "need at least one receiver");
        ReceiverBundle {
            footprint: Arc::new(Footprint::build(domain, &points)),
            points,
        }
    }

    /// Number of receivers.
    pub fn num_receivers(&self) -> usize {
        self.points.len()
    }

    /// Sources at the receiver positions firing `wavelets[t][r]` — an
    /// adjoint's injection (Fig. 3b read backwards), decomposed onto this
    /// bundle's footprint rather than a second one.
    pub fn adjoint_sources(&self, wavelets: Array2<f32>) -> SourceBundle {
        SourceBundle {
            points: self.points.clone(),
            pre: SourcePrecompute::new(Arc::clone(&self.footprint), &wavelets),
            wavelets,
        }
    }
}

/// The classic sparse operators of timestep `k` (Listing 1), run on one
/// thread after every region of the timestep was stepped: each source adds
/// its interpolation-weighted amplitude through `apply(point, w·a)`, then
/// each receiver interpolates the injected field through `value(point)`,
/// one footprint corner per trace slot — the slots the fused gather fills,
/// so both paths read back the same bits.
pub fn classic_step(
    k: usize,
    src: &SourceBundle,
    receivers: Option<(&ReceiverBundle, &TraceBuffer)>,
    mut apply: impl FnMut([usize; 3], f32),
    value: impl Fn([usize; 3]) -> f32,
) {
    let _sp = obs::span(obs::SpanKind::Sparse, obs::SpanArgs::step(k));
    let mut injections = 0u64;
    let mut gathers = 0u64;
    for (st, &a) in src.pre.stencils.iter().zip(src.amps_at(k)) {
        for (c, w) in st.nonzero() {
            // Group (w·a) first: bitwise-identical to the fused path, which
            // applies the precomputed w·a product.
            apply(c, w * a);
            injections += 1;
        }
    }
    if let Some((rec, trace)) = receivers {
        for (r, st) in rec.footprint.stencils.iter().enumerate() {
            for (j, (c, w)) in st.nonzero().enumerate() {
                trace.store(k, r * FOOTPRINT + j, w * value(c));
                gathers += 1;
            }
        }
    }
    obs::add(obs::Counter::SourceInjections, injections);
    obs::add(obs::Counter::ReceiverGathers, gathers);
}

/// The fused sparse operators of timestep `k` on one freshly stepped pencil
/// `(x, y)`, clipped to the region's `zs`: the pencil's entries in the
/// compressed index (Listing 5) walked in ascending `z`, for the source
/// injection and its receiver mirror alike.
///
/// Opened once per pencil, then [`inject`](Self::inject) and/or
/// [`gather`](Self::gather); dropping it records `SourceInjections` (one per
/// affected point), `ReceiverGathers` (one per receiver contribution) and
/// a `SpanKind::Sparse` span — cancelled when the pencil had no sparse
/// work, so `Sparse` time counts only pencils that had some.
pub struct FusedPencil {
    k: usize,
    x: usize,
    y: usize,
    zs: Range<usize>,
    injections: u64,
    gathers: u64,
    span: obs::Span,
}

impl FusedPencil {
    /// `None` under [`SparseMode::Classic`], whose operators run between
    /// sweeps instead ([`classic_step`]).
    #[inline]
    pub fn begin(
        mode: SparseMode,
        k: usize,
        x: usize,
        y: usize,
        zs: Range<usize>,
    ) -> Option<Self> {
        if mode == SparseMode::Classic {
            return None;
        }
        Some(FusedPencil {
            k,
            x,
            y,
            zs,
            injections: 0,
            gathers: 0,
            span: obs::span(obs::SpanKind::Sparse, obs::SpanArgs::step(k)),
        })
    }

    /// Call `f(z, id)` for every point of `index` in the pencil inside `zs`,
    /// in ascending `z`.
    #[inline]
    fn affected(&self, index: &CompressedMask, mut f: impl FnMut(usize, usize)) {
        for (z, id) in index.entries(self.x, self.y) {
            if self.zs.contains(&z) {
                f(z, id);
            }
        }
    }

    /// Source injection: `apply(z, amp)` adds the decomposed, grid-aligned
    /// amplitude of timestep `k` at every affected `z` of the pencil.
    #[inline]
    pub fn inject(&mut self, src: &SourceBundle, mut apply: impl FnMut(usize, f32)) {
        let k = self.k;
        let mut injections = 0u64;
        self.affected(&src.pre.index, |z, id| {
            apply(z, src.pre.dcmp_row(k)[id]);
            injections += 1;
        });
        self.injections += injections;
    }

    /// Receiver gather from `fresh`, the `zs` part of the row receivers read
    /// as the step (and any injection) just left it. A no-op without
    /// receivers.
    #[inline]
    pub fn gather(&mut self, receivers: Option<(&ReceiverBundle, &TraceBuffer)>, fresh: &[f32]) {
        debug_assert_eq!(fresh.len(), self.zs.len());
        let z0 = self.zs.start;
        self.gather_by(receivers, |z| fresh[z - z0]);
    }

    /// Receiver gather through `value(z)`, the pencil's value at `z`: each
    /// affected point stores `w · u` into its footprint-corner slots of
    /// timestep `k`. A no-op without receivers.
    #[inline]
    pub fn gather_by(
        &mut self,
        receivers: Option<(&ReceiverBundle, &TraceBuffer)>,
        value: impl Fn(usize) -> f32,
    ) {
        let Some((rec, trace)) = receivers else {
            return;
        };
        let k = self.k;
        let mut gathers = 0u64;
        self.affected(&rec.footprint.index, |z, id| {
            let v = value(z);
            let contribs = rec.footprint.contributions(id);
            gathers += contribs.len() as u64;
            for &(slot, w) in contribs {
                trace.store(k, slot as usize, w * v);
            }
        });
        self.gathers += gathers;
    }
}

impl Drop for FusedPencil {
    #[inline]
    fn drop(&mut self) {
        if self.injections + self.gathers == 0 {
            // Most pencils have no sparse work; recording them would swamp
            // the event list with empty spans.
            self.span.cancel();
        }
        obs::add(obs::Counter::SourceInjections, self.injections);
        obs::add(obs::Counter::ReceiverGathers, self.gathers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::Shape;

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(17), 10.0)
    }

    #[test]
    fn source_bundle_consistent() {
        let d = dom();
        let pts = SparsePoints::plane_layout(&d, 4, 0.3, 0.4);
        let b = SourceBundle::with_ricker(&d, pts, 12.0, 0.001, 32);
        assert_eq!(b.num_sources(), 4);
        assert_eq!(b.wavelets.dims(), [32, 4]);
        assert_eq!(b.pre.stencils.len(), 4);
        assert_eq!(b.pre.index.total(), b.pre.npts());
        assert_eq!(b.amps_at(0).len(), 4);
    }

    #[test]
    fn receiver_bundle_consistent() {
        let d = dom();
        let pts = SparsePoints::receiver_line(&d, 7, 0.1);
        let b = ReceiverBundle::new(&d, pts);
        assert_eq!(b.num_receivers(), 7);
        assert_eq!(b.footprint.index.total(), b.footprint.npts());
    }

    #[test]
    #[should_panic]
    fn source_bundle_checks_wavelet_shape() {
        let d = dom();
        let pts = SparsePoints::single_center(&d, 0.5);
        let w = Array2::<f32>::zeros(8, 3); // 3 columns but 1 source
        let _ = SourceBundle::new(&d, pts, w);
    }
}
