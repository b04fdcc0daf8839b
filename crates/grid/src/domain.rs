//! Physical domain: grid spacing, origin and coordinate mapping.
//!
//! Off-the-grid sources and receivers are specified in *physical* coordinates
//! (metres). The [`Domain`] maps those onto fractional grid indices, from
//! which the interpolation machinery in `tempest-sparse` derives the set of
//! surrounding grid points and their trilinear weights (paper Fig. 3).

use crate::shape::Shape;

/// Physical description of the computational grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    shape: Shape,
    /// Grid spacing (m) along each axis. The paper uses 10 m for
    /// isotropic/elastic and 20 m for TTI (§IV.B).
    spacing: [f32; 3],
    /// Physical coordinate of grid point (0, 0, 0).
    origin: [f32; 3],
}

impl Domain {
    /// Create a domain with the given shape and uniform spacing, origin 0.
    pub fn uniform(shape: Shape, h: f32) -> Self {
        assert!(h > 0.0, "grid spacing must be positive");
        Domain {
            shape,
            spacing: [h, h, h],
            origin: [0.0; 3],
        }
    }

    /// Create a domain with per-axis spacing and explicit origin.
    pub fn new(shape: Shape, spacing: [f32; 3], origin: [f32; 3]) -> Self {
        assert!(
            spacing.iter().all(|&s| s > 0.0),
            "grid spacing must be positive"
        );
        Domain {
            shape,
            spacing,
            origin,
        }
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Per-axis spacing.
    pub fn spacing(&self) -> [f32; 3] {
        self.spacing
    }

    /// Smallest spacing over the three axes (enters the CFL condition).
    pub fn min_spacing(&self) -> f32 {
        self.spacing[0].min(self.spacing[1]).min(self.spacing[2])
    }

    /// Physical origin.
    pub fn origin(&self) -> [f32; 3] {
        self.origin
    }

    /// Physical extent along each axis: `(n - 1) * h`.
    pub fn extent(&self) -> [f32; 3] {
        [
            (self.shape.nx - 1) as f32 * self.spacing[0],
            (self.shape.ny - 1) as f32 * self.spacing[1],
            (self.shape.nz - 1) as f32 * self.spacing[2],
        ]
    }

    /// Physical coordinate of grid point `(x, y, z)`.
    pub fn coord_of(&self, x: usize, y: usize, z: usize) -> [f32; 3] {
        [
            self.origin[0] + x as f32 * self.spacing[0],
            self.origin[1] + y as f32 * self.spacing[1],
            self.origin[2] + z as f32 * self.spacing[2],
        ]
    }

    /// Fractional grid index of a physical coordinate.
    ///
    /// The integer part selects the lower corner of the surrounding cell, the
    /// fractional part is the interpolation offset in `[0, 1)`.
    pub fn frac_index(&self, p: [f32; 3]) -> [f32; 3] {
        [
            (p[0] - self.origin[0]) / self.spacing[0],
            (p[1] - self.origin[1]) / self.spacing[1],
            (p[2] - self.origin[2]) / self.spacing[2],
        ]
    }

    /// Is the physical point inside the grid (inclusive of the last point)?
    pub fn contains_point(&self, p: [f32; 3]) -> bool {
        let f = self.frac_index(p);
        let d = [
            (self.shape.nx - 1) as f32,
            (self.shape.ny - 1) as f32,
            (self.shape.nz - 1) as f32,
        ];
        (0..3).all(|i| f[i] >= 0.0 && f[i] <= d[i])
    }

    /// Physical coordinate of the domain centre (typical shot location).
    pub fn center(&self) -> [f32; 3] {
        let e = self.extent();
        [
            self.origin[0] + 0.5 * e[0],
            self.origin[1] + 0.5 * e[1],
            self.origin[2] + 0.5 * e[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_and_frac_index_roundtrip() {
        let d = Domain::uniform(Shape::cube(11), 10.0);
        let c = d.coord_of(3, 4, 5);
        assert_eq!(c, [30.0, 40.0, 50.0]);
        assert_eq!(d.frac_index(c), [3.0, 4.0, 5.0]);
    }

    #[test]
    fn frac_index_with_origin_and_anisotropic_spacing() {
        let d = Domain::new(
            Shape::new(10, 20, 30),
            [10.0, 5.0, 2.0],
            [100.0, 0.0, -10.0],
        );
        let f = d.frac_index([125.0, 7.5, -9.0]);
        assert_eq!(f, [2.5, 1.5, 0.5]);
    }

    #[test]
    fn extent_and_center() {
        let d = Domain::uniform(Shape::cube(101), 10.0);
        assert_eq!(d.extent(), [1000.0, 1000.0, 1000.0]);
        assert_eq!(d.center(), [500.0, 500.0, 500.0]);
    }

    #[test]
    fn contains_point_edges() {
        let d = Domain::uniform(Shape::cube(11), 10.0);
        assert!(d.contains_point([0.0, 0.0, 0.0]));
        assert!(d.contains_point([100.0, 100.0, 100.0]));
        assert!(d.contains_point([55.5, 0.1, 99.9]));
        assert!(!d.contains_point([100.1, 50.0, 50.0]));
        assert!(!d.contains_point([-0.1, 50.0, 50.0]));
    }

    #[test]
    fn min_spacing_picks_smallest() {
        let d = Domain::new(Shape::cube(4), [10.0, 5.0, 20.0], [0.0; 3]);
        assert_eq!(d.min_spacing(), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_spacing() {
        let _ = Domain::uniform(Shape::cube(4), 0.0);
    }
}
