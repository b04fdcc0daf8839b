//! A wavefield time level: a dense array padded with a halo.
//!
//! Stencil kernels of radius `r` read `r` points beyond the block being
//! updated (paper Fig. 2). Rather than special-casing physical boundaries in
//! the hot loop, every field is allocated with a halo of width `≥ r` on all
//! sides, initialised to zero (homogeneous Dirichlet far-field, the setting
//! the paper's absorbing layers assume).

use crate::array::Array3;
use crate::shape::Shape;

/// One time level of a wavefield: interior of [`Shape`] `shape` surrounded by
/// a halo of `halo` points on every side of every axis.
///
/// *Interior* coordinates `(x, y, z) ∈ [0, n)` map to *raw* storage
/// coordinates `(x + halo, y + halo, z + halo)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    shape: Shape,
    halo: usize,
    data: Array3<f32>,
}

impl Field {
    /// Allocate a zeroed field.
    pub fn zeros(shape: Shape, halo: usize) -> Self {
        Field {
            shape,
            halo,
            data: Array3::from_shape(shape.padded(halo)),
        }
    }

    /// Interior shape (excluding halo).
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Halo width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// The padded backing array (interior + halo).
    #[inline]
    pub fn raw(&self) -> &Array3<f32> {
        &self.data
    }

    /// The padded backing array, mutably.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut Array3<f32> {
        &mut self.data
    }

    /// Read an interior element.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        debug_assert!(self.shape.contains(x, y, z));
        self.data.get(x + self.halo, y + self.halo, z + self.halo)
    }

    /// Write an interior element.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        debug_assert!(self.shape.contains(x, y, z));
        let h = self.halo;
        self.data.set(x + h, y + h, z + h, v);
    }

    /// Add to an interior element (the scatter primitive of source injection).
    #[inline]
    pub fn add(&mut self, x: usize, y: usize, z: usize, v: f32) {
        debug_assert!(self.shape.contains(x, y, z));
        let h = self.halo;
        let i = self.data.idx(x + h, y + h, z + h);
        self.data.as_mut_slice()[i] += v;
    }

    /// Linear index into the raw array for interior point `(x, y, z)`.
    #[inline]
    pub fn raw_idx(&self, x: usize, y: usize, z: usize) -> usize {
        self.data.idx(x + self.halo, y + self.halo, z + self.halo)
    }

    /// The contiguous interior-z pencil at interior `(x, y)` (length `nz`).
    #[inline]
    pub fn interior_pencil(&self, x: usize, y: usize) -> &[f32] {
        let start = self.raw_idx(x, y, 0);
        &self.data.as_slice()[start..start + self.shape.nz]
    }

    /// Zero all elements (interior and halo).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy interior values into a fresh unpadded array (for comparisons).
    pub fn interior_copy(&self) -> Array3<f32> {
        let mut out = Array3::from_shape(self.shape);
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                let src = self.interior_pencil(x, y);
                out.pencil_mut(x, y).copy_from_slice(src);
            }
        }
        out
    }

    /// Maximum absolute interior value.
    pub fn interior_max_abs(&self) -> f32 {
        let mut m = 0.0f32;
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                for &v in self.interior_pencil(x, y) {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// Interior L2 norm.
    pub fn interior_norm_l2(&self) -> f64 {
        let mut s = 0.0f64;
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                for &v in self.interior_pencil(x, y) {
                    s += (v as f64) * (v as f64);
                }
            }
        }
        s.sqrt()
    }

    /// Indices of interior points whose value is non-zero.
    ///
    /// This is the *probe* read-back of the paper's precomputation step 1
    /// (Listing 2): after injecting into an empty grid, the non-zero support
    /// identifies the grid points affected by off-the-grid sources.
    pub fn nonzero_interior(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                for (z, &v) in self.interior_pencil(x, y).iter().enumerate() {
                    if v != 0.0 {
                        out.push((x, y, z));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_offsets_map_correctly() {
        let mut f = Field::zeros(Shape::new(4, 4, 4), 2);
        assert_eq!(f.raw().dims(), [8, 8, 8]);
        f.set(0, 0, 0, 1.0);
        assert_eq!(f.raw().get(2, 2, 2), 1.0);
        f.set(3, 3, 3, 2.0);
        assert_eq!(f.raw().get(5, 5, 5), 2.0);
        assert_eq!(f.get(3, 3, 3), 2.0);
    }

    #[test]
    fn add_accumulates() {
        let mut f = Field::zeros(Shape::cube(3), 1);
        f.add(1, 1, 1, 0.5);
        f.add(1, 1, 1, 0.25);
        assert_eq!(f.get(1, 1, 1), 0.75);
    }

    #[test]
    fn interior_pencil_excludes_halo() {
        let mut f = Field::zeros(Shape::new(2, 2, 3), 1);
        // Poison the halo; the interior pencil must not see it.
        f.raw_mut().fill(9.0);
        for (x, y, z) in Shape::new(2, 2, 3).iter() {
            f.set(x, y, z, 0.0);
        }
        f.set(1, 0, 2, 5.0);
        assert_eq!(f.interior_pencil(1, 0), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn interior_copy_roundtrip() {
        let mut f = Field::zeros(Shape::new(3, 2, 2), 2);
        f.set(2, 1, 0, -3.0);
        let c = f.interior_copy();
        assert_eq!(c.get(2, 1, 0), -3.0);
        assert_eq!(c.count_nonzero(), 1);
    }

    #[test]
    fn nonzero_interior_finds_support() {
        let mut f = Field::zeros(Shape::cube(4), 1);
        assert!(f.nonzero_interior().is_empty());
        f.set(0, 1, 2, 1e-30);
        f.set(3, 3, 3, -1.0);
        let nz = f.nonzero_interior();
        assert_eq!(nz, vec![(0, 1, 2), (3, 3, 3)]);
    }

    #[test]
    fn norms_on_interior_only() {
        let mut f = Field::zeros(Shape::cube(2), 1);
        // Halo values must not contribute.
        f.raw_mut().set(0, 0, 0, 100.0);
        f.set(0, 0, 0, 3.0);
        f.set(1, 1, 1, 4.0);
        assert_eq!(f.interior_max_abs(), 4.0);
        assert!((f.interior_norm_l2() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut f = Field::zeros(Shape::cube(2), 1);
        f.set(0, 0, 0, 1.0);
        f.raw_mut().set(0, 0, 0, 2.0);
        f.clear();
        assert_eq!(f.raw().max_abs(), 0.0);
    }
}
