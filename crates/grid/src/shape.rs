//! Grid shapes, index arithmetic and sub-ranges.

/// The logical extent of a 3-D grid (interior points, excluding halos).
///
/// Axis order is `(x, y, z)` with `z` the contiguous (fastest-varying,
/// vectorisable) axis, matching the loop nests in the paper's Listings 1–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Shape {
    /// Create a shape; all extents must be non-zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "shape extents must be non-zero");
        Shape { nx, ny, nz }
    }

    /// A cube-shaped grid of side `n` (the paper benchmarks 512³ cubes).
    pub fn cube(n: usize) -> Self {
        Shape::new(n, n, n)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid has zero points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extents as an `[nx, ny, nz]` array.
    pub fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Shape grown by `h` points on every side of every axis (halo padding).
    pub fn padded(&self, h: usize) -> Shape {
        Shape::new(self.nx + 2 * h, self.ny + 2 * h, self.nz + 2 * h)
    }

    /// Length of one allocated `z`-row when rows are padded up to a multiple
    /// of the SIMD lane width (see `tempest_stencil::LANE`).
    pub fn z_row_aligned(&self, lane: usize) -> usize {
        assert!(lane > 0, "lane width must be non-zero");
        self.nz.next_multiple_of(lane)
    }

    /// Does `(x, y, z)` lie inside the grid?
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    /// The full-interior range of this shape.
    pub fn full_range(&self) -> Range3 {
        Range3 {
            x0: 0,
            x1: self.nx,
            y0: 0,
            y1: self.ny,
            z0: 0,
            z1: self.nz,
        }
    }

    /// Iterate all `(x, y, z)` indices in canonical (z-fastest) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (ny, nz) = (self.ny, self.nz);
        (0..self.nx).flat_map(move |x| (0..ny).flat_map(move |y| (0..nz).map(move |z| (x, y, z))))
    }
}

/// A half-open axis-aligned box of grid indices: `[x0, x1) × [y0, y1) × [z0, z1)`.
///
/// `Range3` is the unit of work handed to stencil kernels by the blocking /
/// tiling schedules: a spatial block (paper Fig. 4a) or one skewed slab of a
/// wave-front tile (paper Fig. 8a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Range3 {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
    pub z0: usize,
    pub z1: usize,
}

impl Range3 {
    /// Construct a range; empty ranges (`a0 == a1`) are allowed.
    pub fn new(x: (usize, usize), y: (usize, usize), z: (usize, usize)) -> Self {
        assert!(x.0 <= x.1 && y.0 <= y.1 && z.0 <= z.1, "inverted range");
        Range3 {
            x0: x.0,
            x1: x.1,
            y0: y.0,
            y1: y.1,
            z0: z.0,
            z1: z.1,
        }
    }

    /// Number of points covered.
    pub fn len(&self) -> usize {
        (self.x1 - self.x0) * (self.y1 - self.y0) * (self.z1 - self.z0)
    }

    /// True when the box covers no points.
    pub fn is_empty(&self) -> bool {
        self.x1 == self.x0 || self.y1 == self.y0 || self.z1 == self.z0
    }

    /// Intersect with another range (used to clip skewed slabs to the grid).
    pub fn intersect(&self, other: &Range3) -> Range3 {
        Range3 {
            x0: self.x0.max(other.x0),
            x1: self.x1.min(other.x1).max(self.x0.max(other.x0)),
            y0: self.y0.max(other.y0),
            y1: self.y1.min(other.y1).max(self.y0.max(other.y0)),
            z0: self.z0.max(other.z0),
            z1: self.z1.min(other.z1).max(self.z0.max(other.z0)),
        }
    }

    /// Does the range contain the point?
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1 && z >= self.z0 && z < self.z1
    }

    /// Iterate all points in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (y0, y1, z0, z1) = (self.y0, self.y1, self.z0, self.z1);
        (self.x0..self.x1)
            .flat_map(move |x| (y0..y1).flat_map(move |y| (z0..z1).map(move |z| (x, y, z))))
    }

    /// Split into sub-blocks of at most `(bx, by)` in x/y, keeping z whole.
    ///
    /// This is the paper's inner *space block* decomposition of a tile
    /// (`block_x`, `block_y` of Table I); the z axis always stays contiguous
    /// for vectorisation.
    pub fn split_xy(&self, bx: usize, by: usize) -> Vec<Range3> {
        assert!(bx > 0 && by > 0);
        let mut out = Vec::new();
        let mut x = self.x0;
        while x < self.x1 {
            let xe = (x + bx).min(self.x1);
            let mut y = self.y0;
            while y < self.y1 {
                let ye = (y + by).min(self.y1);
                out.push(Range3::new((x, xe), (y, ye), (self.z0, self.z1)));
                y = ye;
            }
            x = xe;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_len_and_dims() {
        let s = Shape::new(4, 5, 6);
        assert_eq!(s.len(), 120);
        assert_eq!(s.dims(), [4, 5, 6]);
        assert!(!s.is_empty());
    }

    #[test]
    fn shape_cube_and_padding() {
        let s = Shape::cube(8);
        assert_eq!(s, Shape::new(8, 8, 8));
        assert_eq!(s.padded(2), Shape::new(12, 12, 12));
    }

    #[test]
    fn z_row_aligned_rounds_up() {
        let s = Shape::new(4, 4, 13);
        assert_eq!(s.z_row_aligned(8), 16);
        assert_eq!(s.z_row_aligned(1), 13);
        assert_eq!(Shape::new(4, 4, 16).z_row_aligned(8), 16);
    }

    #[test]
    fn shape_contains_boundaries() {
        let s = Shape::new(3, 3, 3);
        assert!(s.contains(2, 2, 2));
        assert!(!s.contains(3, 0, 0));
        assert!(!s.contains(0, 3, 0));
        assert!(!s.contains(0, 0, 3));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn shape_rejects_zero_extent() {
        let _ = Shape::new(0, 1, 1);
    }

    #[test]
    fn shape_iter_visits_every_point_once_in_order() {
        let s = Shape::new(2, 3, 4);
        let pts: Vec<_> = s.iter().collect();
        assert_eq!(pts.len(), 24);
        assert_eq!(pts[0], (0, 0, 0));
        assert_eq!(pts[1], (0, 0, 1)); // z fastest
        assert_eq!(pts[4], (0, 1, 0));
        assert_eq!(pts[23], (1, 2, 3));
        let mut sorted = pts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 24);
    }

    #[test]
    fn range_len_and_contains() {
        let r = Range3::new((1, 4), (0, 2), (5, 10));
        assert_eq!(r.len(), 3 * 2 * 5);
        assert!(r.contains(1, 0, 5));
        assert!(r.contains(3, 1, 9));
        assert!(!r.contains(4, 1, 9));
        assert!(!r.contains(3, 2, 9));
        assert!(!r.contains(3, 1, 10));
        assert!(!r.contains(0, 0, 5));
    }

    #[test]
    fn range_empty() {
        let r = Range3::new((2, 2), (0, 5), (0, 5));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn range_intersection_clips() {
        let a = Range3::new((0, 10), (0, 10), (0, 10));
        let b = Range3::new((5, 15), (2, 3), (0, 10));
        let c = a.intersect(&b);
        assert_eq!(c, Range3::new((5, 10), (2, 3), (0, 10)));
    }

    #[test]
    fn range_intersection_disjoint_is_empty() {
        let a = Range3::new((0, 4), (0, 4), (0, 4));
        let b = Range3::new((8, 12), (0, 4), (0, 4));
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn split_xy_tiles_cover_exactly() {
        let r = Range3::new((0, 10), (0, 7), (0, 5));
        let blocks = r.split_xy(4, 3);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, r.len());
        // Every point belongs to exactly one block.
        for p in r.iter() {
            let n = blocks.iter().filter(|b| b.contains(p.0, p.1, p.2)).count();
            assert_eq!(n, 1, "point {p:?} covered {n} times");
        }
        // Block shapes never exceed the requested block size.
        for b in &blocks {
            assert!(b.x1 - b.x0 <= 4);
            assert!(b.y1 - b.y0 <= 3);
            assert_eq!((b.z0, b.z1), (0, 5));
        }
    }

    #[test]
    fn split_xy_single_block_when_bigger_than_range() {
        let r = Range3::new((0, 3), (0, 3), (0, 3));
        let blocks = r.split_xy(100, 100);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0], r);
    }
}
