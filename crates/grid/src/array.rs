//! Flat dense 2-D and 3-D arrays.
//!
//! Storage is a single contiguous `Vec` in row-major order with the last axis
//! contiguous. Stencil kernels obtain raw `&[T]` pencils along `z` and index
//! with precomputed strides, so the hot loops carry no per-element bounds
//! checks beyond what the compiler can hoist.

use crate::shape::Shape;

/// A dense 3-D array with `z` contiguous.
///
/// Each `z`-row occupies `z_stride() >= nz` physical elements; the default
/// constructors pack rows tightly (`z_stride() == nz`), while the
/// `*_lane_aligned` constructors pad every row to a multiple of a SIMD lane
/// width so pencil base addresses share the same lane phase (see
/// `tempest_stencil::LANE`). The padding elements are storage only: they are
/// invisible to indexing, iteration, comparisons and norms.
#[derive(Debug, Clone)]
pub struct Array3<T> {
    dims: [usize; 3],
    /// Physical length of one `z`-row (`>= dims[2]`).
    zs: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Array3<T> {
    /// Allocate a zero-initialised (default-initialised) array.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "array extents must be non-zero");
        Array3 {
            dims: [nx, ny, nz],
            zs: nz,
            data: vec![T::default(); nx * ny * nz],
        }
    }

    /// Allocate from a [`Shape`].
    pub fn from_shape(s: Shape) -> Self {
        Self::zeros(s.nx, s.ny, s.nz)
    }

    /// Allocate filled with `v`.
    pub fn full(nx: usize, ny: usize, nz: usize, v: T) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "array extents must be non-zero");
        Array3 {
            dims: [nx, ny, nz],
            zs: nz,
            data: vec![v; nx * ny * nz],
        }
    }

    /// Allocate zero-initialised with every `z`-row padded to a multiple of
    /// `lane` elements, so each pencil starts at a lane-phase-aligned offset.
    pub fn zeros_lane_aligned(nx: usize, ny: usize, nz: usize, lane: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "array extents must be non-zero");
        assert!(lane > 0, "lane width must be non-zero");
        let zs = nz.next_multiple_of(lane);
        Array3 {
            dims: [nx, ny, nz],
            zs,
            data: vec![T::default(); nx * ny * zs],
        }
    }

    /// Copy into a new array whose `z`-rows are padded to a multiple of
    /// `lane`. The logical content is identical (`bit_equal` for `f32`).
    pub fn to_lane_aligned(&self, lane: usize) -> Self {
        let [nx, ny, nz] = self.dims;
        let mut out = Self::zeros_lane_aligned(nx, ny, nz, lane);
        for x in 0..nx {
            for y in 0..ny {
                out.pencil_mut(x, y).copy_from_slice(self.pencil(x, y));
            }
        }
        out
    }
}

impl<T: Copy> Array3<T> {
    /// Dimensions `[nx, ny, nz]`.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Shape view of the dimensions.
    pub fn shape(&self) -> Shape {
        Shape::new(self.dims[0], self.dims[1], self.dims[2])
    }

    /// Allocated element count, *including* any lane-alignment row padding.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (extents are non-zero by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stride of the `x` axis in elements (`ny * z_stride`).
    #[inline]
    pub fn stride_x(&self) -> usize {
        self.dims[1] * self.zs
    }

    /// Stride of the `y` axis in elements (the physical `z`-row length).
    #[inline]
    pub fn stride_y(&self) -> usize {
        self.zs
    }

    /// Physical length of one `z`-row; equals `nz` unless lane-aligned.
    #[inline]
    pub fn z_stride(&self) -> usize {
        self.zs
    }

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(
            x < self.dims[0] && y < self.dims[1] && z < self.dims[2],
            "index ({x},{y},{z}) out of bounds {:?}",
            self.dims
        );
        (x * self.dims[1] + y) * self.zs + z
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.idx(x, y, z)]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Borrow the whole backing slice (includes alignment padding, if any;
    /// tightly packed for default-constructed arrays).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the whole backing slice (see [`as_slice`](Self::as_slice)).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate the logical `z`-rows (length `nz` each) in `(x, y)` order,
    /// skipping any alignment padding.
    #[inline]
    pub fn rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        let nz = self.dims[2];
        let zs = self.zs;
        (0..self.dims[0] * self.dims[1]).map(move |r| &self.data[r * zs..r * zs + nz])
    }

    /// The contiguous `z` pencil at `(x, y)`.
    #[inline]
    pub fn pencil(&self, x: usize, y: usize) -> &[T] {
        let start = self.idx(x, y, 0);
        &self.data[start..start + self.dims[2]]
    }

    /// The contiguous mutable `z` pencil at `(x, y)`.
    #[inline]
    pub fn pencil_mut(&mut self, x: usize, y: usize) -> &mut [T] {
        let start = self.idx(x, y, 0);
        let nz = self.dims[2];
        &mut self.data[start..start + nz]
    }

    /// Fill every element with `v` (alignment padding included — it is
    /// storage only and never read back through the logical API).
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Iterate `(x, y, z, value)` in canonical order (padding skipped).
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, usize, T)> + '_ {
        let ny = self.dims[1];
        self.rows().enumerate().flat_map(move |(r, row)| {
            let (x, y) = (r / ny, r % ny);
            row.iter().enumerate().map(move |(z, &v)| (x, y, z, v))
        })
    }
}

impl Array3<f32> {
    /// Maximum absolute value (0 for an all-zero array; padding ignored).
    pub fn max_abs(&self) -> f32 {
        self.rows().flatten().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// L2 norm of the array (padding ignored).
    pub fn norm_l2(&self) -> f64 {
        self.rows()
            .flatten()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute element-wise difference against `other`. The arrays
    /// may differ in alignment padding; only logical content is compared.
    pub fn max_abs_diff(&self, other: &Array3<f32>) -> f32 {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        self.rows()
            .flatten()
            .zip(other.rows().flatten())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Exact bitwise equality with `other` (used by schedule-equivalence
    /// tests). Alignment padding is not compared, so a lane-aligned array
    /// `bit_equal`s its tightly packed twin.
    pub fn bit_equal(&self, other: &Array3<f32>) -> bool {
        self.dims == other.dims
            && self
                .rows()
                .flatten()
                .zip(other.rows().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Count of non-zero elements (padding ignored).
    pub fn count_nonzero(&self) -> usize {
        self.rows().flatten().filter(|&&v| v != 0.0).count()
    }
}

/// Logical equality: same dimensions and same content, regardless of any
/// difference in alignment padding.
impl<T: Copy + PartialEq> PartialEq for Array3<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.rows().zip(other.rows()).all(|(a, b)| a == b)
    }
}

impl<T: Copy> std::ops::Index<(usize, usize, usize)> for Array3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (x, y, z): (usize, usize, usize)) -> &T {
        &self.data[(x * self.dims[1] + y) * self.zs + z]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize, usize)> for Array3<T> {
    #[inline]
    fn index_mut(&mut self, (x, y, z): (usize, usize, usize)) -> &mut T {
        &mut self.data[(x * self.dims[1] + y) * self.zs + z]
    }
}

/// A dense 2-D array with the second axis contiguous.
///
/// Used for decomposed source wavelets (`src_dcmp[t][id]`) and receiver
/// traces (`rec[t][r]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Array2<T> {
    dims: [usize; 2],
    data: Vec<T>,
}

impl<T: Copy + Default> Array2<T> {
    /// Allocate a default-initialised array.
    pub fn zeros(n0: usize, n1: usize) -> Self {
        assert!(n0 > 0 && n1 > 0, "array extents must be non-zero");
        Array2 {
            dims: [n0, n1],
            data: vec![T::default(); n0 * n1],
        }
    }
}

impl<T: Copy> Array2<T> {
    /// Dimensions `[n0, n1]`.
    #[inline]
    pub fn dims(&self) -> [usize; 2] {
        self.dims
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.dims[0] && j < self.dims[1]);
        self.data[i * self.dims[1] + j]
    }

    /// Write one element.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.dims[0] && j < self.dims[1]);
        self.data[i * self.dims[1] + j] = v;
    }

    /// The contiguous row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let n1 = self.dims[1];
        &self.data[i * n1..(i + 1) * n1]
    }

    /// The contiguous mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let n1 = self.dims[1];
        &mut self.data[i * n1..(i + 1) * n1]
    }

    /// Borrow the whole backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the whole backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }
}

impl<T: Copy> std::ops::Index<(usize, usize)> for Array2<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.dims[1] + j]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize)> for Array2<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.dims[1] + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_default() {
        let a: Array3<f32> = Array3::zeros(2, 3, 4);
        assert_eq!(a.len(), 24);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(a.max_abs(), 0.0);
        assert_eq!(a.count_nonzero(), 0);
    }

    #[test]
    fn set_get_roundtrip_and_linearisation() {
        let mut a: Array3<f32> = Array3::zeros(3, 4, 5);
        a.set(1, 2, 3, 7.5);
        assert_eq!(a.get(1, 2, 3), 7.5);
        assert_eq!(a[(1, 2, 3)], 7.5);
        // Row-major, z contiguous.
        assert_eq!(a.idx(1, 2, 3), (4 + 2) * 5 + 3);
        assert_eq!(a.stride_x(), 20);
        assert_eq!(a.stride_y(), 5);
    }

    #[test]
    fn pencils_are_contiguous_z() {
        let mut a: Array3<f32> = Array3::zeros(2, 2, 6);
        for z in 0..6 {
            a.set(1, 0, z, z as f32);
        }
        let p = a.pencil(1, 0);
        assert_eq!(p, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        a.pencil_mut(1, 0)[5] = -1.0;
        assert_eq!(a.get(1, 0, 5), -1.0);
    }

    #[test]
    fn iter_indexed_matches_get() {
        let mut a: Array3<f32> = Array3::zeros(2, 3, 2);
        for (k, (x, y, z)) in a.shape().iter().collect::<Vec<_>>().iter().enumerate() {
            a.set(*x, *y, *z, k as f32);
        }
        for (x, y, z, v) in a.iter_indexed() {
            assert_eq!(v, a.get(x, y, z));
        }
    }

    #[test]
    fn norms_and_diffs() {
        let mut a: Array3<f32> = Array3::zeros(2, 2, 2);
        let mut b: Array3<f32> = Array3::zeros(2, 2, 2);
        a.set(0, 0, 0, 3.0);
        a.set(1, 1, 1, -4.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.norm_l2() - 5.0).abs() < 1e-12);
        b.set(0, 0, 0, 3.0);
        assert_eq!(a.max_abs_diff(&b), 4.0);
        assert!(!a.bit_equal(&b));
        b.set(1, 1, 1, -4.0);
        assert!(a.bit_equal(&b));
    }

    #[test]
    fn bit_equal_distinguishes_signed_zero() {
        let mut a: Array3<f32> = Array3::zeros(1, 1, 1);
        let b: Array3<f32> = Array3::zeros(1, 1, 1);
        a.set(0, 0, 0, -0.0);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(!a.bit_equal(&b), "bit_equal must see -0.0 != +0.0");
    }

    #[test]
    fn full_fills() {
        let a: Array3<f32> = Array3::full(2, 2, 2, 1.5);
        assert!(a.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn array2_rows() {
        let mut a: Array2<i32> = Array2::zeros(3, 4);
        a.set(2, 1, 9);
        assert_eq!(a.get(2, 1), 9);
        assert_eq!(a[(2, 1)], 9);
        assert_eq!(a.row(2), &[0, 9, 0, 0]);
        a.row_mut(0)[3] = 7;
        assert_eq!(a.get(0, 3), 7);
        assert_eq!(a.dims(), [3, 4]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_extent() {
        let _: Array3<f32> = Array3::zeros(1, 0, 1);
    }

    #[test]
    fn fill_resets() {
        let mut a: Array3<f32> = Array3::full(2, 2, 2, 3.0);
        a.fill(0.0);
        assert_eq!(a.max_abs(), 0.0);
    }

    #[test]
    fn lane_aligned_pads_z_rows() {
        let a: Array3<f32> = Array3::zeros_lane_aligned(3, 4, 13, 8);
        assert_eq!(a.dims(), [3, 4, 13]);
        assert_eq!(a.z_stride(), 16);
        assert_eq!(a.stride_y(), 16);
        assert_eq!(a.stride_x(), 4 * 16);
        assert_eq!(a.len(), 3 * 4 * 16);
        // Every pencil base is a multiple of the lane width.
        for x in 0..3 {
            for y in 0..4 {
                assert_eq!(a.idx(x, y, 0) % 8, 0, "pencil ({x},{y}) unaligned");
            }
        }
        // Already-aligned extents gain no padding.
        let b: Array3<f32> = Array3::zeros_lane_aligned(2, 2, 16, 8);
        assert_eq!(b.z_stride(), 16);
        assert_eq!(b.len(), 2 * 2 * 16);
    }

    #[test]
    fn aligned_and_packed_agree_logically() {
        let mut packed: Array3<f32> = Array3::zeros(3, 3, 11);
        for (k, (x, y, z)) in packed.shape().iter().collect::<Vec<_>>().iter().enumerate() {
            packed.set(*x, *y, *z, k as f32 * 0.25 - 3.0);
        }
        let aligned = packed.to_lane_aligned(8);
        assert_eq!(aligned.z_stride(), 16);
        assert!(packed.bit_equal(&aligned));
        assert!(aligned.bit_equal(&packed));
        assert_eq!(packed, aligned);
        assert_eq!(packed.max_abs_diff(&aligned), 0.0);
        assert_eq!(packed.max_abs(), aligned.max_abs());
        assert_eq!(packed.norm_l2(), aligned.norm_l2());
        assert_eq!(packed.count_nonzero(), aligned.count_nonzero());
        // Accessors see identical values.
        for (x, y, z, v) in packed.iter_indexed() {
            assert_eq!(aligned.get(x, y, z), v);
            assert_eq!(aligned[(x, y, z)], v);
        }
        // Pencils are the logical nz window, not the padded row.
        assert_eq!(aligned.pencil(1, 2).len(), 11);
        assert_eq!(aligned.pencil(1, 2), packed.pencil(1, 2));
        // iter_indexed covers exactly the logical points.
        assert_eq!(aligned.iter_indexed().count(), 3 * 3 * 11);
    }

    #[test]
    fn aligned_mutation_stays_in_row() {
        let mut a: Array3<f32> = Array3::zeros_lane_aligned(2, 2, 5, 8);
        a.pencil_mut(0, 0).fill(1.0);
        a.set(0, 1, 0, 2.0);
        a[(1, 1, 4)] = 3.0;
        assert_eq!(a.count_nonzero(), 7);
        assert_eq!(a.get(0, 0, 4), 1.0);
        assert_eq!(a.get(0, 1, 0), 2.0);
        assert_eq!(a.get(1, 1, 4), 3.0);
        // Padding slots remained untouched by pencil writes.
        assert_eq!(a.as_slice()[5..8], [0.0; 3]);
    }
}
