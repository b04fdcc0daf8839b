//! The dense receiver mask `RM` and ID volume `RID` (the receiver side of
//! Fig. 5b/5c) as a view over a receiver [`Footprint`].
//!
//! Receivers gather `d[t][r] = Σ_p w(p→r) · u[t][p]` through the footprint
//! alone ([`crate::precompute`]); no solver builds these 5 B per grid
//! point. They stay for callers that report the dense volumes' size.

use std::ops::Deref;

use crate::points::SparsePoints;
use crate::precompute::Footprint;
use tempest_grid::{Array3, Domain};

/// A receiver footprint with its grid-sized `RM`/`RID` volumes.
#[derive(Debug, Clone)]
pub struct ReceiverPrecompute {
    /// Binary receiver mask (1 where some receiver reads the point).
    pub rm: Array3<u8>,
    /// Unique-ID volume (−1 where unaffected), ascending in grid order.
    pub rid: Array3<i32>,
    footprint: Footprint,
}

impl ReceiverPrecompute {
    /// Build the footprint of `receivers` and its dense volumes.
    pub fn build(domain: &Domain, receivers: &SparsePoints) -> Self {
        assert!(!receivers.is_empty(), "need at least one receiver");
        let footprint = Footprint::build(domain, receivers);
        let s = domain.shape();
        let mut rm = Array3::zeros(s.nx, s.ny, s.nz);
        let mut rid = Array3::full(s.nx, s.ny, s.nz, -1i32);
        for (id, &[x, y, z]) in footprint.points.iter().enumerate() {
            rm.set(x, y, z, 1u8);
            rid.set(x, y, z, id as i32);
        }
        ReceiverPrecompute { rm, rid, footprint }
    }
}

impl Deref for ReceiverPrecompute {
    type Target = Footprint;

    fn deref(&self) -> &Footprint {
        &self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::tests::interpolate_points;
    use crate::interp::FOOTPRINT;
    use tempest_grid::{Field, Range3, Shape};

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(13), 10.0)
    }

    /// Reference fused gather over a region: store the contribution of every
    /// masked point of `field` into its slot of `slots` (the `d[t][·]` row,
    /// `FOOTPRINT` slots per receiver), so a sweep split into disjoint
    /// regions fills every slot exactly once.
    fn gather_region(p: &ReceiverPrecompute, field: &Field, region: &Range3, slots: &mut [f32]) {
        assert_eq!(slots.len(), p.stencils.len() * FOOTPRINT);
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
