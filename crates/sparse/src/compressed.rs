//! Iteration-space compression for fused sparse operators
//! (paper Listing 5 / Fig. 6).
//!
//! The dense masks of §II.A are "massively sparse — multiplications by zero
//! are dominant" (§II.A-5), so the fused loop walks only the affected points
//! of each `(x, y)` pencil: the paper's `nnz_mask[x][y]` counts them and
//! `Sp_SID` lists their `z`. Here both are one CSR over pencils, built
//! straight from the affected points in canonical grid order: the points of
//! one pencil are contiguous there, so `offsets[x·ny + y] ..
//! offsets[x·ny + y + 1]` are the pencil's ids and the id of a point is its
//! position. Nothing grid-sized but the `nx·ny + 1` offsets is stored.

use tempest_grid::Shape;

/// Compressed per-pencil index of affected points.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMask {
    /// Pencil `(x, y)` holds ids `offsets[x·ny + y] .. offsets[x·ny + y + 1]`.
    offsets: Vec<u32>,
    /// `z` of every point, in id order.
    z: Vec<u32>,
    ny: usize,
}

impl CompressedMask {
    /// Index `points` — sorted, deduplicated, inside `shape` — in
    /// O(points + nx·ny).
    pub(crate) fn from_points(shape: Shape, points: &[[usize; 3]]) -> Self {
        debug_assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "points must be sorted and deduplicated"
        );
        let ny = shape.ny;
        let mut offsets = vec![0u32; shape.nx * ny + 1];
        for &[x, y, _] in points {
            offsets[x * ny + y + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let z = points.iter().map(|p| p[2] as u32).collect();
        CompressedMask { offsets, z, ny }
    }

    /// Ids of the `(x, y)` pencil.
    #[inline]
    fn ids(&self, x: usize, y: usize) -> std::ops::Range<usize> {
        let p = x * self.ny + y;
        self.offsets[p] as usize..self.offsets[p + 1] as usize
    }

    /// Affected `(z, id)` pairs of the `(x, y)` pencil, in ascending z.
    #[inline]
    pub fn entries(&self, x: usize, y: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let ids = self.ids(x, y);
        self.z[ids.clone()]
            .iter()
            .zip(ids)
            .map(|(&z, id)| (z as usize, id))
    }

    /// Number of affected points in the `(x, y)` pencil.
    #[inline]
    pub fn count(&self, x: usize, y: usize) -> usize {
        self.ids(x, y).len()
    }

    /// Total affected points across all pencils.
    pub fn total(&self) -> usize {
        self.z.len()
    }

    /// Memory of the index, in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..]) + std::mem::size_of_val(&self.z[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(points: &[[usize; 3]], shape: Shape) -> CompressedMask {
        let mut sorted = points.to_vec();
        sorted.sort_unstable();
        CompressedMask::from_points(shape, &sorted)
    }

    #[test]
    fn counts_and_depth() {
        let s = Shape::cube(8);
        let c = index(&[[1, 1, 0], [1, 1, 3], [1, 1, 7], [4, 5, 2]], s);
        assert_eq!(c.count(1, 1), 3);
        assert_eq!(c.count(4, 5), 1);
        assert_eq!(c.count(0, 0), 0);
        assert_eq!(c.count(7, 7), 0);
        // The deepest pencil: Fig. 6's trimmed `Sp_SID` depth.
        let depth = s.iter().map(|(x, y, _)| c.count(x, y)).max();
        assert_eq!(depth, Some(3));
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn entries_match_sid_in_order() {
        let s = Shape::cube(8);
        let pts = [[2, 3, 1], [2, 3, 5], [2, 3, 6], [7, 0, 0]];
        let c = index(&pts, s);
        let e: Vec<_> = c.entries(2, 3).collect();
        // Ascending z; the id is the point's position in grid order.
        assert_eq!(e, vec![(1, 0), (5, 1), (6, 2)]);
        assert_eq!(c.entries(7, 0).collect::<Vec<_>>(), vec![(0, 3)]);
        assert_eq!(c.entries(0, 0).count(), 0);
    }

    #[test]
    fn trimmed_depth_saves_memory() {
        // One affected point in a 32³ grid: the index stores the pencil
        // offsets and one z (Fig. 6 "cutting off z-slices where all
        // elements are zero"), whatever nz is.
        let c = index(&[[10, 11, 12]], Shape::cube(32));
        assert_eq!(c.memory_bytes(), (32 * 32 + 1) * 4 + 4);
        let tall = index(&[[10, 11, 12]], Shape::new(32, 32, 512));
        assert_eq!(tall.memory_bytes(), c.memory_bytes());
    }

    #[test]
    fn empty_mask_is_representable() {
        let c = index(&[], Shape::cube(4));
        assert_eq!(c.total(), 0);
        assert!(Shape::cube(4).iter().all(|(x, y, _)| c.count(x, y) == 0));
    }

    #[test]
    fn dense_pencil_roundtrip() {
        // Every z of one pencil affected — the Fig. 10 "densely located"
        // extreme where compression stops helping but stays correct.
        let s = Shape::cube(6);
        let pts: Vec<[usize; 3]> = (0..6).map(|z| [3, 3, z]).collect();
        let c = index(&pts, s);
        assert_eq!(c.count(3, 3), 6);
        let e: Vec<_> = c.entries(3, 3).collect();
        assert_eq!(
            e.iter().map(|&(z, _)| z).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
    }
}
