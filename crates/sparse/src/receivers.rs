//! Receiver interpolation under temporal blocking.
//!
//! Receivers are the dual of sources (paper Fig. 3b): instead of scattering
//! a wavelet *into* the grid, they gather `d[t][r] = Σ_p w(p→r) · u[t][p]`
//! from the up-to-8 grid points surrounding each off-grid receiver. Under a
//! blocked schedule the measurement must be taken when the block containing
//! `p` reaches time `t` — so, exactly like sources, the gather is aligned to
//! the grid and fused into the loop nest:
//!
//! * the affected grid points get IDs ascending in canonical grid order,
//!   and the compressed per-pencil index ([`crate::CompressedMask`]) lists
//!   them, so the gather visits only affected z's;
//! * each affected point carries its list of `(trace slot, weight)`
//!   contributions (CSR layout, since one point can serve several
//!   receivers), where slot `r · FOOTPRINT + j` is corner `j` of receiver
//!   `r`'s footprint — so every product `w · u[p]` has a home of its own,
//!   and the sum over a footprint is taken in corner order when the trace
//!   is read, whichever tile produced which corner first.
//!
//! The dense receiver mask `RM` and ID volume `RID` are still built, for
//! callers that report their size; the gather itself never reads them.

use crate::compressed::CompressedMask;
use crate::interp::{trilinear_all, FOOTPRINT};
use crate::points::SparsePoints;
use tempest_grid::{Array3, Domain};

/// Grid-aligned, precomputed receiver interpolation data.
#[derive(Debug, Clone)]
pub struct ReceiverPrecompute {
    /// Binary receiver mask (1 where some receiver reads the point).
    pub rm: Array3<u8>,
    /// Unique-ID volume (−1 where unaffected), ascending in grid order.
    pub rid: Array3<i32>,
    /// Affected grid points in id order.
    pub points: Vec<[usize; 3]>,
    /// CSR offsets: contributions of point `id` live in
    /// `entries[offsets[id] .. offsets[id + 1]]`.
    pub offsets: Vec<u32>,
    /// `(trace slot, weight)` contribution pairs: slot `r · FOOTPRINT + j`
    /// is the `j`-th non-zero corner of receiver `r`'s footprint.
    pub entries: Vec<(u32, f32)>,
    /// Number of receivers.
    pub num_receivers: usize,
    /// Per-pencil index of `points`.
    pub index: CompressedMask,
}

impl ReceiverPrecompute {
    /// Build the grid-aligned gather structures for a receiver set.
    pub fn build(domain: &Domain, receivers: &SparsePoints) -> Self {
        assert!(!receivers.is_empty(), "need at least one receiver");
        let stencils = trilinear_all(domain, receivers);
        let mut affected: Vec<[usize; 3]> = stencils
            .iter()
            .flat_map(|s| s.nonzero().map(|(c, _)| c))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let s = domain.shape();
        let mut rm = Array3::zeros(s.nx, s.ny, s.nz);
        let mut rid = Array3::full(s.nx, s.ny, s.nz, -1i32);
        for (id, &[x, y, z]) in affected.iter().enumerate() {
            rm.set(x, y, z, 1u8);
            rid.set(x, y, z, id as i32);
        }
        // Group (slot, weight) pairs by affected point.
        let mut per_point: Vec<Vec<(u32, f32)>> = vec![Vec::new(); affected.len()];
        for (r, st) in stencils.iter().enumerate() {
            for (j, (c, w)) in st.nonzero().enumerate() {
                let id = affected
                    .binary_search(&c)
                    .expect("footprint point is affected");
                per_point[id].push(((r * FOOTPRINT + j) as u32, w));
            }
        }
        let mut offsets = Vec::with_capacity(affected.len() + 1);
        let mut entries = Vec::new();
        offsets.push(0u32);
        for list in &per_point {
            entries.extend_from_slice(list);
            offsets.push(entries.len() as u32);
        }
        ReceiverPrecompute {
            rm,
            rid,
            index: CompressedMask::from_points(s, &affected),
            points: affected,
            offsets,
            entries,
            num_receivers: receivers.len(),
        }
    }

    /// Number of affected grid points.
    pub fn npts(&self) -> usize {
        self.points.len()
    }

    /// Contributions `(trace slot, weight)` of affected point `id`.
    #[inline]
    pub fn contributions(&self, id: usize) -> &[(u32, f32)] {
        &self.entries[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::interpolate_points;
    use tempest_grid::{Field, Range3, Shape};

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(13), 10.0)
    }

    /// Reference fused gather over a region: store the contribution of every
    /// masked point of `field` into its slot of `slots` (the `d[t][·]` row,
    /// `FOOTPRINT` slots per receiver), so a sweep split into disjoint
    /// regions fills every slot exactly once.
    fn gather_region(p: &ReceiverPrecompute, field: &Field, region: &Range3, slots: &mut [f32]) {
        assert_eq!(slots.len(), p.num_receivers * FOOTPRINT);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                for (z, id) in p.index.entries(x, y) {
                    if (region.z0..region.z1).contains(&z) {
                        let v = field.get(x, y, z);
                        for &(slot, w) in p.contributions(id) {
                            slots[slot as usize] = w * v;
                        }
                    }
                }
            }
        }
    }

    /// Each receiver's slots summed in corner order, from `0.0`.
    fn reduce(slots: &[f32]) -> Vec<f32> {
        let sum = |c: &[f32]| c.iter().fold(0.0f32, |acc, &v| acc + v);
        slots.chunks(FOOTPRINT).map(sum).collect()
    }

    fn wavy_field(d: &Domain) -> Field {
        let mut f = Field::zeros(d.shape(), 1);
        for (x, y, z) in d.shape().iter() {
            f.set(
                x,
                y,
                z,
                ((x * 7 + y * 3 + z * 5) % 23) as f32 * 0.1 - 1.0,
            );
        }
        f
    }

    #[test]
    fn fused_gather_equals_classic_interpolation() {
        let d = dom();
        let f = wavy_field(&d);
        let recs = SparsePoints::new(
            &d,
            vec![[12.3, 45.6, 78.9], [55.5, 55.5, 55.5], [120.0, 10.0, 20.0]],
        );
        let mut classic = vec![0.0f32; 3];
        interpolate_points(&f, &d, &recs, &mut classic);

        let p = ReceiverPrecompute::build(&d, &recs);
        let mut slots = vec![0.0f32; 3 * FOOTPRINT];
        gather_region(&p, &f, &d.shape().full_range(), &mut slots);
        let fused = reduce(&slots);
        for r in 0..3 {
            assert_eq!(
                classic[r].to_bits(),
                fused[r].to_bits(),
                "rec {r}: {} vs {}",
                classic[r],
                fused[r]
            );
        }
    }

    #[test]
    fn gather_splits_across_regions() {
        let d = dom();
        let f = wavy_field(&d);
        // Straddles the x split below: four corners on either side.
        let recs = SparsePoints::new(&d, vec![[55.5, 59.5, 59.5]]);
        let p = ReceiverPrecompute::build(&d, &recs);
        let mut whole = vec![0.0f32; FOOTPRINT];
        gather_region(&p, &f, &d.shape().full_range(), &mut whole);
        // Split the grid into left/right x halves, right half first: each
        // slot is written once whichever half runs first.
        let mut split = vec![0.0f32; FOOTPRINT];
        let s = d.shape();
        let halves = [(0, 6), (6, s.nx)].map(|xs| Range3::new(xs, (0, s.ny), (0, s.nz)));
        gather_region(&p, &f, &halves[1], &mut split);
        gather_region(&p, &f, &halves[0], &mut split);
        assert_eq!(reduce(&whole)[0].to_bits(), reduce(&split)[0].to_bits());
    }

    #[test]
    fn shared_point_serves_multiple_receivers() {
        let d = dom();
        // Two receivers in the same cell: every affected point contributes
        // to both.
        let recs = SparsePoints::new(&d, vec![[34.0, 44.0, 54.0], [36.0, 46.0, 56.0]]);
        let p = ReceiverPrecompute::build(&d, &recs);
        assert_eq!(p.npts(), 8);
        for id in 0..p.npts() {
            assert_eq!(p.contributions(id).len(), 2);
        }
    }

    #[test]
    fn rid_consistent_with_mask() {
        let d = dom();
        let recs = SparsePoints::new(&d, vec![[12.3, 45.6, 78.9]]);
        let p = ReceiverPrecompute::build(&d, &recs);
        for (x, y, z) in d.shape().iter() {
            assert_eq!(p.rm.get(x, y, z) == 1, p.rid.get(x, y, z) >= 0);
        }
        for (id, &[x, y, z]) in p.points.iter().enumerate() {
            assert_eq!(p.rid.get(x, y, z), id as i32);
        }
        // CSR covers every entry exactly once; weights per receiver sum to 1.
        let mut wsum = [0.0f32; 1];
        for id in 0..p.npts() {
            for &(slot, w) in p.contributions(id) {
                wsum[slot as usize / FOOTPRINT] += w;
            }
        }
        assert!((wsum[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn compressed_index_agrees() {
        let d = dom();
        let recs = SparsePoints::new(&d, vec![[12.3, 45.6, 78.9], [90.0, 90.0, 15.0]]);
        let p = ReceiverPrecompute::build(&d, &recs);
        let c = &p.index;
        assert_eq!(c.total(), p.npts());
        for (id, &[x, y, z]) in p.points.iter().enumerate() {
            assert!(c.entries(x, y).any(|(zz, ii)| zz == z && ii == id));
        }
    }

    #[test]
    fn on_grid_receiver_reads_exactly() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        f.set(5, 5, 5, 42.0);
        let recs = SparsePoints::new(&d, vec![[50.0, 50.0, 50.0]]);
        let p = ReceiverPrecompute::build(&d, &recs);
        let mut out = vec![0.0f32; FOOTPRINT];
        gather_region(&p, &f, &d.shape().full_range(), &mut out);
        assert_eq!(reduce(&out)[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn rejects_empty_receivers() {
        let d = dom();
        let recs = SparsePoints::new(&d, vec![]);
        let _ = ReceiverPrecompute::build(&d, &recs);
    }
}
