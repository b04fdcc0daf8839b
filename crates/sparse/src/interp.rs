//! Trilinear interpolation between off-the-grid points and grid points.
//!
//! An off-grid point sits inside one grid cell; its interaction with the
//! grid involves the cell's 8 corners with trilinear weights (the 3-D
//! analogue of the paper's Fig. 3 bilinear example: "4 points are affected
//! in 2D space"). The same weights serve both directions:
//!
//! * **injection** (scatter): `u[corner] += w(corner) · amplitude`,
//! * **interpolation** (gather): `d = Σ w(corner) · u[corner]`.

use crate::points::SparsePoints;
use tempest_grid::Domain;

/// Corners of a trilinear footprint: the most grid points one off-grid
/// point touches, and so the trace slots one receiver owns per timestep.
pub const FOOTPRINT: usize = 8;

/// The interpolation footprint of one off-grid point: up to 8 grid cells
/// with weights forming a partition of unity.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpStencil {
    /// `(grid index, weight)` pairs; weights sum to 1.
    pub cells: Vec<([usize; 3], f32)>,
}

impl InterpStencil {
    /// Only the entries with non-zero weight (a point exactly on a grid
    /// plane has degenerate corners that receive weight 0 — they are *not*
    /// "affected points" in the sense of the paper's probe step).
    pub fn nonzero(&self) -> impl Iterator<Item = ([usize; 3], f32)> + '_ {
        self.cells.iter().copied().filter(|&(_, w)| w != 0.0)
    }
}

/// Trilinear weights of an off-grid physical point.
///
/// # Panics
/// If the point lies outside the domain.
pub fn trilinear(domain: &Domain, p: [f32; 3]) -> InterpStencil {
    assert!(
        domain.contains_point(p),
        "point {p:?} lies outside the domain"
    );
    let f = domain.frac_index(p);
    let s = domain.shape();
    let dims = [s.nx, s.ny, s.nz];
    // Lower cell corner, clamped so that corner+1 stays in-bounds even for
    // points exactly on the upper domain face.
    let mut i0 = [0usize; 3];
    let mut a = [0f32; 3]; // fractional offsets in [0, 1]
    for d in 0..3 {
        let fi = f[d].max(0.0);
        let mut c = fi.floor() as usize;
        if c >= dims[d] - 1 {
            c = dims[d] - 2;
        }
        i0[d] = c;
        a[d] = fi - c as f32;
    }
    let mut cells = Vec::with_capacity(FOOTPRINT);
    for dx in 0..2usize {
        for dy in 0..2usize {
            for dz in 0..2usize {
                let wx = if dx == 0 { 1.0 - a[0] } else { a[0] };
                let wy = if dy == 0 { 1.0 - a[1] } else { a[1] };
                let wz = if dz == 0 { 1.0 - a[2] } else { a[2] };
                cells.push(([i0[0] + dx, i0[1] + dy, i0[2] + dz], wx * wy * wz));
            }
        }
    }
    InterpStencil { cells }
}

/// Trilinear stencils for every point in a set.
pub fn trilinear_all(domain: &Domain, points: &SparsePoints) -> Vec<InterpStencil> {
    points
        .coords()
        .iter()
        .map(|&p| trilinear(domain, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::Shape;

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(11), 10.0)
    }

    #[test]
    fn weights_partition_unity() {
        let d = dom();
        for p in [
            [0.0, 0.0, 0.0],
            [55.0, 42.0, 13.37],
            [100.0, 100.0, 100.0],
            [99.99, 0.01, 50.0],
        ] {
            let s = trilinear(&d, p);
            let sum: f32 = s.cells.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-5, "{p:?}: sum {sum}");
            assert!(s.cells.iter().all(|&(_, w)| (0.0..=1.0).contains(&w)));
        }
    }

    #[test]
    fn on_grid_point_is_kronecker() {
        let d = dom();
        let s = trilinear(&d, [30.0, 40.0, 50.0]);
        let nz: Vec<_> = s.nonzero().collect();
        assert_eq!(nz.len(), 1);
        assert_eq!(nz[0], ([3, 4, 5], 1.0));
    }

    #[test]
    fn cell_center_has_equal_eighths() {
        let d = dom();
        let s = trilinear(&d, [35.0, 45.0, 55.0]);
        assert_eq!(s.cells.len(), 8);
        for (_, w) in &s.cells {
            assert!((w - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn upper_face_clamps_into_bounds() {
        let d = dom();
        let s = trilinear(&d, [100.0, 100.0, 100.0]);
        let shape = d.shape();
        for (c, _) in &s.cells {
            assert!(shape.contains(c[0], c[1], c[2]), "corner {c:?}");
        }
        // All weight concentrates on the last grid point.
        let nz: Vec<_> = s.nonzero().collect();
        assert_eq!(nz.len(), 1);
        assert_eq!(nz[0].0, [10, 10, 10]);
    }

    #[test]
    fn linear_function_reproduced_exactly() {
        // Interpolating u(x,y,z) = 2x + 3y - z + 5 at an off-grid point must
        // be exact (trilinear reproduces trilinear polynomials).
        let d = dom();
        let p = [17.3, 82.1, 44.9];
        let s = trilinear(&d, p);
        let val: f32 = s
            .cells
            .iter()
            .map(|&(c, w)| {
                let xyz = d.coord_of(c[0], c[1], c[2]);
                w * (2.0 * xyz[0] + 3.0 * xyz[1] - xyz[2] + 5.0)
            })
            .sum();
        let expect = 2.0 * p[0] + 3.0 * p[1] - p[2] + 5.0;
        assert!((val - expect).abs() < 1e-2, "{val} vs {expect}");
    }

    #[test]
    fn weights_move_with_the_point() {
        let d = dom();
        let near_lo = trilinear(&d, [30.1, 40.0, 50.0]);
        // Corner (3,4,5) dominates when the point is near it.
        let w_lo = near_lo
            .cells
            .iter()
            .find(|(c, _)| *c == [3, 4, 5])
            .unwrap()
            .1;
        assert!(w_lo > 0.98);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_outside_point() {
        let _ = trilinear(&dom(), [-1.0, 0.0, 0.0]);
    }

    #[test]
    fn trilinear_all_matches_individual() {
        let d = dom();
        let pts = SparsePoints::new(&d, vec![[5.0, 5.0, 5.0], [72.5, 13.0, 99.0]]);
        let all = trilinear_all(&d, &pts);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], trilinear(&d, [5.0, 5.0, 5.0]));
        assert_eq!(all[1], trilinear(&d, [72.5, 13.0, 99.0]));
    }
}
