//! The paper's precomputation scheme (§II.A): one [`Footprint`] for
//! sources, receivers and the adjoint, and wavelets decomposed onto it.
//!
//! [`Footprint::build`] interpolates, sorts, deduplicates and indexes a set
//! of off-the-grid points once (Fig. 5). The affected grid points are the
//! union of the non-zero trilinear footprints — what probing an empty grid
//! finds (Listing 2, kept as a test oracle) — and a point's ID is its
//! position in canonical grid order (the `SM`/`SID` volumes of Fig. 5b/5c).
//! Each point lists its `(slot, weight)` entries in ascending slot, where
//! slot `s · FOOTPRINT + j` is the `j`-th non-zero corner of sparse point
//! `s`; the per-pencil [`CompressedMask`] (Listing 5) lets the stencil
//! kernels fuse the sparse work into the loop nest of any — including
//! temporally blocked — schedule.
//!
//! Sources read the entries one way: [`SourcePrecompute`] sums
//! `src_dcmp[t][id] = Σ_s w(s→id) · src[t][s]` (Listing 3). Receivers read
//! them the other way (Fig. 3b, "the mirror"): each point stores `w · u`
//! into the trace slots its entries name, so every product has a home of
//! its own and a receiver's corners are summed in corner order when the
//! trace is read, whichever tile produced which corner first.
//!
//! Nothing here is grid-sized but the index's `nx·ny + 1` pencil offsets.

use std::ops::Deref;
use std::sync::Arc;

use crate::compressed::CompressedMask;
use crate::interp::{trilinear_all, InterpStencil, FOOTPRINT};
use crate::points::SparsePoints;
use tempest_grid::{Array2, Domain};

/// The grid-aligned footprint of a set of off-the-grid points, read by
/// injection and gathering alike.
#[derive(Debug, Clone)]
pub struct Footprint {
    /// Trilinear stencil of every sparse point, in sparse-id order (the
    /// classic path, Listing 1).
    pub stencils: Vec<InterpStencil>,
    /// Affected grid points in id order (canonical grid order).
    pub points: Vec<[usize; 3]>,
    /// Per-pencil index of `points` (`nnz_mask` / `Sp_SID`, Listing 5).
    pub index: CompressedMask,
    /// CSR offsets: the entries of point `id` are
    /// `entries[offsets[id] .. offsets[id + 1]]`.
    pub offsets: Vec<u32>,
    /// `(slot, weight)` pairs, ascending slot per point.
    pub entries: Vec<(u32, f32)>,
}

impl Footprint {
    /// Interpolate, sort, deduplicate and index `sparse`: O(c·log c + nx·ny)
    /// for its `c` non-zero footprint corners.
    pub fn build(domain: &Domain, sparse: &SparsePoints) -> Self {
        let stencils = trilinear_all(domain, sparse);
        let mut corners: Vec<([usize; 3], (u32, f32))> = stencils
            .iter()
            .enumerate()
            .flat_map(|(s, st)| {
                let slot = move |j: usize| (s * FOOTPRINT + j) as u32;
                st.nonzero()
                    .enumerate()
                    .map(move |(j, (c, w))| (c, (slot(j), w)))
            })
            .collect();
        // Slots are unique: grid order, then ascending sparse id.
        corners.sort_unstable_by_key(|&(c, (slot, _))| (c, slot));
        let mut points = Vec::new();
        let mut offsets = vec![0u32];
        for run in corners.chunk_by(|a, b| a.0 == b.0) {
            points.push(run[0].0);
            offsets.push(offsets[offsets.len() - 1] + run.len() as u32);
        }
        Footprint {
            index: CompressedMask::from_points(domain.shape(), &points),
            stencils,
            points,
            offsets,
            entries: corners.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// Number of affected grid points (`npts` of Fig. 5c).
    pub fn npts(&self) -> usize {
        self.points.len()
    }

    /// Entries `(slot, weight)` of affected point `id`.
    #[inline]
    pub fn contributions(&self, id: usize) -> &[(u32, f32)] {
        &self.entries[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

/// A footprint with wavelets decomposed onto it: grid-aligned, precomputed
/// source injection data.
#[derive(Debug, Clone)]
pub struct SourcePrecompute {
    /// The sources' footprint, possibly shared (the adjoint injects through
    /// the receivers').
    pub footprint: Arc<Footprint>,
    /// Decomposed wavelets `src_dcmp[t][id]` (Listing 3 / Fig. 5d).
    pub src_dcmp: Array2<f32>,
}

impl SourcePrecompute {
    /// Build the footprint of `sources` and decompose `wavelets` onto it.
    pub fn build(domain: &Domain, sources: &SparsePoints, wavelets: &Array2<f32>) -> Self {
        Self::new(Arc::new(Footprint::build(domain, sources)), wavelets)
    }

    /// Decompose `wavelets` (`[t][source]`) onto `footprint` (Listing 3):
    /// each point sums its sources' `w · src[t][s]` in ascending `s`.
    pub fn new(footprint: Arc<Footprint>, wavelets: &Array2<f32>) -> Self {
        let sources = footprint.stencils.len();
        assert!(sources > 0, "need at least one source");
        assert_eq!(
            wavelets.dims()[1],
            sources,
            "wavelet matrix must have one column per source"
        );
        let nt = wavelets.dims()[0];
        let mut src_dcmp = Array2::zeros(nt.max(1), footprint.npts().max(1));
        for t in 0..nt {
            let amps = wavelets.row(t);
            for (id, v) in src_dcmp.row_mut(t).iter_mut().enumerate() {
                *v = footprint
                    .contributions(id)
                    .iter()
                    .fold(0.0, |acc, &(slot, w)| {
                        acc + w * amps[slot as usize / FOOTPRINT]
                    });
            }
        }
        SourcePrecompute {
            footprint,
            src_dcmp,
        }
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
        let f = &self.footprint;
        std::mem::size_of_val(self.src_dcmp.as_slice())
            + std::mem::size_of_val(&f.points[..])
            + f.index.memory_bytes()
            + std::mem::size_of_val(&f.offsets[..])
            + std::mem::size_of_val(&f.entries[..])
    }
}

impl Deref for SourcePrecompute {
    type Target = Footprint;

    fn deref(&self) -> &Footprint {
        &self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::tests::inject_points;
    use crate::wavelet::{ricker, wavelet_matrix, wavelet_matrix_scaled};
    use tempest_grid::{Field, Range3, Rng64, Shape};

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(13), 10.0)
    }

    impl SourcePrecompute {
        /// Probe construction (Listing 2), the oracle of [`Footprint::build`]
        /// and [`SourcePrecompute::new`]: inject into an empty grid until
        /// every source has contributed, read back the non-zero support, then
        /// index it, group each point's `(slot, weight)` entries by binary
        /// search into it and decompose the wavelets source by source.
        ///
        /// To guard against accidental cancellation between co-located
        /// sources, the probe injects *absolute* amplitudes — the support is
        /// identical to what Listing 2 finds when no cancellation occurs, and
        /// strictly safer when it does. The paper injects for more timesteps
        /// "if the wavefield is zero at the first timestep"; so does this,
        /// advancing through the wavelet until every source has fired a
        /// non-zero sample.
        fn build_probed(domain: &Domain, sources: &SparsePoints, wavelets: &Array2<f32>) -> Self {
            assert!(!sources.is_empty(), "need at least one source");
            let stencils = trilinear_all(domain, sources);
            let mut probe = Field::zeros(domain.shape(), 0);
            let mut fired = vec![false; sources.len()];
            for t in 0..wavelets.dims()[0] {
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
            let points: Vec<[usize; 3]> = probe
                .nonzero_interior()
                .into_iter()
                .map(|(x, y, z)| [x, y, z])
                .collect();
            let nt = wavelets.dims()[0];
            let mut src_dcmp = Array2::zeros(nt.max(1), points.len().max(1));
            let mut per_point = vec![Vec::new(); points.len()];
            for (s, st) in stencils.iter().enumerate() {
                for (j, (c, w)) in st.nonzero().enumerate() {
                    let id = points
                        .binary_search(&c)
                        .expect("the probe finds every corner");
                    per_point[id].push(((s * FOOTPRINT + j) as u32, w));
                    for t in 0..nt {
                        src_dcmp.set(t, id, src_dcmp.get(t, id) + w * wavelets.get(t, s));
                    }
                }
            }
            let mut offsets = vec![0u32];
            for list in &per_point {
                offsets.push(offsets[offsets.len() - 1] + list.len() as u32);
            }
            let footprint = Footprint {
                index: CompressedMask::from_points(domain.shape(), &points),
                stencils,
                points,
                offsets,
                entries: per_point.concat(),
            };
            SourcePrecompute {
                footprint: Arc::new(footprint),
                src_dcmp,
            }
        }
    }

    /// A random source set: random points, two sources in one cell, on-grid
    /// points (1-point footprints) and points in the last cell of each axis
    /// — or, one case in eight, a `dense_layout`.
    fn source_set(d: &Domain, rng: &mut Rng64) -> SparsePoints {
        let h = d.spacing()[0];
        let e = d.extent();
        if rng.range_usize(0, 8) == 0 {
            let n = rng.range_usize(1, 64);
            return SparsePoints::dense_layout(d, n, rng.range_f32(0.0, 0.99));
        }
        let n = rng.range_usize(1, 8);
        let mut coords = SparsePoints::random(d, n, rng.next_u64()).coords().to_vec();
        let cell = [0, 1, 2].map(|_| rng.range_usize(0, 11) as f32 * h);
        for _ in 0..2 {
            coords.push([0, 1, 2].map(|a| cell[a] + rng.range_f32(0.1, 0.9) * h));
        }
        for _ in 0..rng.range_usize(0, 3) {
            coords.push([0, 1, 2].map(|_| rng.range_usize(0, 12) as f32 * h));
        }
        for a in 0..3 {
            let mut p = [0, 1, 2].map(|b| rng.range_f32(0.0, 1.0) * e[b]);
            p[a] = e[a] - rng.range_f32(0.0, 1.0) * h;
            coords.push(p);
        }
        SparsePoints::new(d, coords)
    }

    /// The probed build (Listing 2) equals the analytic one bit for bit —
    /// points, pencil index, CSR and `src_dcmp` — on the seeded random
    /// source sets of `tests/properties.rs`.
    #[test]
    fn probed_equals_analytic_on_random_sets() {
        let mut rng = Rng64::new(0xB3);
        for case in 0..64 {
            let d = Domain::uniform(Shape::cube(12), 10.0);
            let pts = source_set(&d, &mut rng);
            let w = wavelet_matrix_scaled(&[1.0, -0.5, 0.25], &vec![1.0; pts.len()]);
            let pre = SourcePrecompute::build(&d, &pts, &w);
            let probed = SourcePrecompute::build_probed(&d, &pts, &w);
            assert_eq!(probed.points, pre.points, "case {case}");
            assert_eq!(probed.index, pre.index, "case {case}");
            assert_eq!(probed.offsets, pre.offsets, "case {case}");
            let bits =
                |e: &[(u32, f32)]| e.iter().map(|&(s, w)| (s, w.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&probed.entries), bits(&pre.entries), "case {case}");
            let bits = |p: &SourcePrecompute| -> Vec<u32> {
                p.src_dcmp.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&probed), bits(&pre), "case {case}: src_dcmp");
        }
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
