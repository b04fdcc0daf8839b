//! The paper's source-injection precomputation scheme (§II.A).
//!
//! Off-the-grid sources are turned into grid-aligned point sources in four
//! steps (Fig. 5):
//!
//! 1. find the affected grid points — either by *probing* an empty grid with
//!    one injection step (Listing 2, [`SourcePrecompute::build_probed`]) or
//!    analytically from the interpolation footprints
//!    ([`SourcePrecompute::build`]); the two agree (tested);
//! 2. give each a unique ID, ascending in canonical grid order — the paper's
//!    `SM`/`SID` volumes (Fig. 5b/5c), kept here as the sorted point list
//!    itself: a point's ID is its position in it;
//! 3. decompose the sources' wavelets into per-affected-point time series
//!    `src_dcmp[t][id] = Σ_s w(s→id) · src[t][s]` (Listing 3);
//! 4. index the points per `(x, y)` pencil ([`CompressedMask`], Listing 5)
//!    so the stencil kernels can *fuse* injection into the dense loop nest at
//!    the right space-time coordinates of any — including temporally
//!    blocked — schedule.
//!
//! Nothing here is grid-sized but the index's `nx·ny + 1` pencil offsets.

use crate::compressed::CompressedMask;
use crate::interp::trilinear_all;
use crate::points::SparsePoints;
use tempest_grid::{Array2, Domain, Field};

/// Grid-aligned, precomputed source injection data.
#[derive(Debug, Clone)]
pub struct SourcePrecompute {
    /// Affected grid points in id order (canonical grid order).
    pub points: Vec<[usize; 3]>,
    /// Decomposed wavelets `src_dcmp[t][id]` (Listing 3 / Fig. 5d).
    pub src_dcmp: Array2<f32>,
    /// Per-pencil index of `points` (`nnz_mask` / `Sp_SID`, Listing 5).
    pub index: CompressedMask,
}

impl SourcePrecompute {
    /// Analytic construction: the affected set is the union of the non-zero
    /// trilinear footprints.
    pub fn build(domain: &Domain, sources: &SparsePoints, wavelets: &Array2<f32>) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        assert_eq!(
            wavelets.dims()[1],
            sources.len(),
            "wavelet matrix must have one column per source"
        );
        let stencils = trilinear_all(domain, sources);
        let mut affected: Vec<[usize; 3]> = stencils
            .iter()
            .flat_map(|s| s.nonzero().map(|(c, _)| c))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        Self::assemble(domain, sources, wavelets, affected)
    }

    /// Probe construction (Listing 2): inject into an empty grid until every
    /// source has contributed, then read back the non-zero support.
    ///
    /// To guard against accidental cancellation between co-located sources,
    /// the probe injects *absolute* amplitudes — the support is identical to
    /// what Listing 2 finds when no cancellation occurs, and strictly safer
    /// when it does. The paper injects for more timesteps "if the wavefield
    /// is zero at the first timestep"; we do the same, advancing through the
    /// wavelet until every source has fired a non-zero sample.
    pub fn build_probed(domain: &Domain, sources: &SparsePoints, wavelets: &Array2<f32>) -> Self {
        assert!(!sources.is_empty(), "need at least one source");
        let nt = wavelets.dims()[0];
        assert_eq!(wavelets.dims()[1], sources.len());
        let stencils = trilinear_all(domain, sources);
        let mut probe = Field::zeros(domain.shape(), 0);
        let mut fired = vec![false; sources.len()];
        for t in 0..nt {
            for (s, st) in stencils.iter().enumerate() {
                let amp = wavelets.get(t, s).abs();
                if amp != 0.0 {
                    fired[s] = true;
                    for (c, w) in st.nonzero() {
                        probe.add(c[0], c[1], c[2], w.abs() * amp);
                    }
                }
            }
            if fired.iter().all(|&f| f) {
                break;
            }
        }
        assert!(
            fired.iter().all(|&f| f),
            "a source never fires a non-zero amplitude; its support cannot be probed"
        );
        let affected: Vec<[usize; 3]> = probe
            .nonzero_interior()
            .into_iter()
            .map(|(x, y, z)| [x, y, z])
            .collect();
        Self::assemble(domain, sources, wavelets, affected)
    }

    fn assemble(
        domain: &Domain,
        sources: &SparsePoints,
        wavelets: &Array2<f32>,
        affected: Vec<[usize; 3]>,
    ) -> Self {
        let nt = wavelets.dims()[0];
        // Listing 3: decompose the wavelets onto the affected points.
        let npts = affected.len().max(1);
        let mut src_dcmp = Array2::zeros(nt.max(1), npts);
        let stencils = trilinear_all(domain, sources);
        for (sidx, st) in stencils.iter().enumerate() {
            for (c, w) in st.nonzero() {
                let id = affected.binary_search(&c);
                debug_assert!(id.is_ok(), "footprint point missing from affected set");
                let Ok(id) = id else {
                    continue; // cancellation-probed builds may drop points
                };
                for t in 0..nt {
                    let v = src_dcmp.get(t, id) + w * wavelets.get(t, sidx);
                    src_dcmp.set(t, id, v);
                }
            }
        }
        SourcePrecompute {
            index: CompressedMask::from_points(domain.shape(), &affected),
            points: affected,
            src_dcmp,
        }
    }

    /// Number of affected grid points (`npts` of Fig. 5c).
    pub fn npts(&self) -> usize {
        self.points.len()
    }

    /// Number of precomputed timesteps.
    pub fn nt(&self) -> usize {
        self.src_dcmp.dims()[0]
    }

    /// Decomposed amplitudes for timestep `t` (indexed by id).
    #[inline]
    pub fn dcmp_row(&self, t: usize) -> &[f32] {
        self.src_dcmp.row(t)
    }

    /// Extra memory the scheme allocates, in bytes — the "negligible
    /// overhead" the paper's §IV-E corner cases quantify: it grows with the
    /// affected points, plus one offset per `(x, y)` pencil.
    pub fn memory_overhead_bytes(&self) -> usize {
        std::mem::size_of_val(self.src_dcmp.as_slice())
            + std::mem::size_of_val(&self.points[..])
            + self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::inject_points;
    use crate::wavelet::{ricker, wavelet_matrix, wavelet_matrix_scaled};
    use tempest_grid::{Range3, Shape};

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(13), 10.0)
    }

    /// Fused injection over a region (the Listing-5 inner loops, reference
    /// form): for every affected point `p` in `region`,
    /// `u[p] += scale(p) · src_dcmp[t][id(p)]`.
    fn apply_to_field(
        p: &SourcePrecompute,
        field: &mut Field,
        t: usize,
        region: &Range3,
        scale: impl Fn(usize, usize, usize) -> f32,
    ) {
        let row = p.dcmp_row(t);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                for (z, id) in p.index.entries(x, y) {
                    if (region.z0..region.z1).contains(&z) {
                        field.add(x, y, z, scale(x, y, z) * row[id]);
                    }
                }
            }
        }
    }

    #[test]
    fn mask_and_sid_consistent() {
        let d = dom();
        let src = SparsePoints::new(&d, vec![[33.3, 44.4, 55.5], [77.7, 22.2, 11.1]]);
        let w = wavelet_matrix(&ricker(10.0, 0.001, 32), 2);
        let p = SourcePrecompute::build(&d, &src, &w);
        assert_eq!(p.npts(), 16, "two disjoint cells: 8 points each");
        // Walking the index pencil by pencil meets every point once, with
        // ids dense and ascending in canonical order.
        let (s, mut next) = (d.shape(), 0usize);
        for x in 0..s.nx {
            for y in 0..s.ny {
                for (z, id) in p.index.entries(x, y) {
                    assert_eq!(id, next, "ascending ids in grid order");
                    assert_eq!(p.points[id], [x, y, z]);
                    next += 1;
                }
            }
        }
        assert_eq!(next, p.npts());
    }

    #[test]
    fn shared_points_get_single_id() {
        let d = dom();
        // Two sources inside the same grid cell share all 8 corners
        // ("quite common to encounter points being affected by more than
        // one source", §II.A-2).
        let src = SparsePoints::new(&d, vec![[34.0, 44.0, 54.0], [36.0, 46.0, 56.0]]);
        let w = wavelet_matrix(&ricker(10.0, 0.001, 8), 2);
        let p = SourcePrecompute::build(&d, &src, &w);
        assert_eq!(p.npts(), 8);
    }

    #[test]
    fn probed_matches_analytic() {
        let d = dom();
        let src = SparsePoints::new(
            &d,
            vec![[33.3, 44.4, 55.5], [77.7, 22.2, 11.1], [35.0, 45.0, 55.0]],
        );
        let w = wavelet_matrix(&ricker(10.0, 0.001, 64), 3);
        let a = SourcePrecompute::build(&d, &src, &w);
        let b = SourcePrecompute::build_probed(&d, &src, &w);
        assert_eq!(a.points, b.points);
        assert_eq!(a.index, b.index);
        for t in 0..a.nt() {
            for id in 0..a.npts() {
                assert_eq!(a.src_dcmp.get(t, id), b.src_dcmp.get(t, id));
            }
        }
    }

    #[test]
    fn decomposed_injection_equals_classic() {
        // The decisive equivalence: injecting src_dcmp at the masked points
        // reproduces classic off-grid injection, per timestep.
        let d = dom();
        let src = SparsePoints::new(
            &d,
            vec![[31.0, 47.0, 53.0], [36.5, 45.5, 52.5], [80.0, 80.0, 80.0]],
        );
        let w = wavelet_matrix_scaled(&ricker(12.0, 0.001, 16), &[1.0, -0.7, 0.3]);
        let p = SourcePrecompute::build(&d, &src, &w);
        let scale = |x: usize, _y: usize, _z: usize| 1.0 + 0.01 * x as f32;
        for t in [0usize, 5, 15] {
            let mut classic = Field::zeros(d.shape(), 1);
            let amps: Vec<f32> = (0..src.len()).map(|s| w.get(t, s)).collect();
            inject_points(&mut classic, &d, &src, &amps, scale);

            let mut fused = Field::zeros(d.shape(), 1);
            let full = d.shape().full_range();
            apply_to_field(&p, &mut fused, t, &full, scale);

            let diff = classic.interior_copy().max_abs_diff(&fused.interior_copy());
            assert!(diff < 1e-6, "t={t}: max diff {diff}");
        }
    }

    #[test]
    fn decomposition_is_linear_in_sources() {
        // src_dcmp of the union of two source sets equals the sum of the
        // individual decompositions on the union's points.
        let d = dom();
        let s1 = SparsePoints::new(&d, vec![[31.0, 47.0, 53.0]]);
        let s2 = SparsePoints::new(&d, vec![[80.0, 80.0, 80.5]]);
        let both = SparsePoints::new(&d, vec![[31.0, 47.0, 53.0], [80.0, 80.0, 80.5]]);
        let wl = ricker(10.0, 0.001, 8);
        let p1 = SourcePrecompute::build(&d, &s1, &wavelet_matrix(&wl, 1));
        let p2 = SourcePrecompute::build(&d, &s2, &wavelet_matrix(&wl, 1));
        let pu = SourcePrecompute::build(&d, &both, &wavelet_matrix(&wl, 2));
        assert_eq!(pu.npts(), p1.npts() + p2.npts());
        for t in 0..8 {
            for (id, pt) in pu.points.iter().enumerate() {
                let v = pu.src_dcmp.get(t, id);
                let from1 = p1
                    .points
                    .iter()
                    .position(|q| q == pt)
                    .map(|i| p1.src_dcmp.get(t, i))
                    .unwrap_or(0.0);
                let from2 = p2
                    .points
                    .iter()
                    .position(|q| q == pt)
                    .map(|i| p2.src_dcmp.get(t, i))
                    .unwrap_or(0.0);
                assert!((v - (from1 + from2)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn region_restriction_only_touches_region() {
        let d = dom();
        let src = SparsePoints::new(&d, vec![[33.3, 44.4, 55.5]]);
        let w = wavelet_matrix(&ricker(10.0, 0.001, 4), 1);
        let p = SourcePrecompute::build(&d, &src, &w);
        let mut f = Field::zeros(d.shape(), 0);
        // Region excludes the source cell entirely.
        let region = Range3::new((0, 2), (0, 2), (0, 2));
        apply_to_field(&p, &mut f, 0, &region, |_, _, _| 1.0);
        assert_eq!(f.nonzero_interior().len(), 0);
    }

    #[test]
    fn on_grid_source_has_one_point() {
        let d = dom();
        let src = SparsePoints::new(&d, vec![[30.0, 40.0, 50.0]]);
        let w = wavelet_matrix(&ricker(10.0, 0.001, 4), 1);
        let p = SourcePrecompute::build(&d, &src, &w);
        assert_eq!(p.npts(), 1);
        assert_eq!(p.points[0], [3, 4, 5]);
        // Full wavelet lands on that single point with weight 1.
        for t in 0..4 {
            assert!((p.src_dcmp.get(t, 0) - w.get(t, 0)).abs() < 1e-7);
        }
    }

    #[test]
    fn memory_overhead_scales_with_points() {
        // One source, 8 affected points, on a 32³ and a 128³ grid: the only
        // grid-sized storage is one offset per (x, y) pencil.
        let w = wavelet_matrix(&ricker(10.0, 0.001, 16), 1);
        let bytes = |n: usize| {
            let d = Domain::uniform(Shape::cube(n), 10.0);
            let src = SparsePoints::new(&d, vec![[33.3, 44.4, 55.5]]);
            let p = SourcePrecompute::build(&d, &src, &w);
            assert_eq!(p.npts(), 8);
            p.memory_overhead_bytes()
        };
        assert_eq!(bytes(128) - bytes(32), 4 * (128 * 128 - 32 * 32));
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn rejects_empty_sources() {
        let d = dom();
        let src = SparsePoints::new(&d, vec![]);
        let w = Array2::<f32>::zeros(4, 1);
        let _ = SourcePrecompute::build(&d, &src, &w);
    }
}
