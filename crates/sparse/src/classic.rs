//! Classic per-timestep sparse operators (the paper's Listing 1).
//!
//! This is the reference path: after each dense stencil sweep, iterate the
//! off-grid source set and scatter the wavelet into the surrounding grid
//! points, then gather receiver measurements. These loops are *non-affine*
//! (indirect through coordinate arrays) — the property that defeats
//! polyhedral time-tiling tools (§I.A) and motivates the precomputation
//! scheme in [`crate::precompute`].

use crate::interp::InterpStencil;
use tempest_grid::Field;

/// Scatter one timestep of source amplitudes into the field.
///
/// `u[p] += w(p) · amp[s] · scale(p)` for each of the up-to-8 grid points
/// `p` surrounding each source `s`. The `scale` closure carries the
/// equation-dependent injection factor (e.g. `dt²/m` for the acoustic wave
/// equation — Devito's `src.inject(expr=src*dt**2/m)`).
pub fn inject(
    field: &mut Field,
    stencils: &[InterpStencil],
    amps: &[f32],
    scale: impl Fn(usize, usize, usize) -> f32,
) {
    assert_eq!(stencils.len(), amps.len(), "one amplitude per source");
    for (st, &a) in stencils.iter().zip(amps) {
        for (c, w) in st.nonzero() {
            field.add(c[0], c[1], c[2], w * a * scale(c[0], c[1], c[2]));
        }
    }
}

/// Gather one timestep of receiver measurements from the field:
/// `out[r] = Σ_p w(p) · u[p]`.
pub fn interpolate(field: &Field, stencils: &[InterpStencil], out: &mut [f32]) {
    assert_eq!(stencils.len(), out.len(), "one output slot per receiver");
    for (st, o) in stencils.iter().zip(out.iter_mut()) {
        let mut acc = 0.0f32;
        for (c, w) in st.nonzero() {
            acc += w * field.get(c[0], c[1], c[2]);
        }
        *o = acc;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interp::trilinear_all;
    use crate::points::SparsePoints;
    use tempest_grid::{Domain, Shape};

    /// Compute interpolation stencils and inject in one call.
    pub(crate) fn inject_points(
        field: &mut Field,
        domain: &Domain,
        points: &SparsePoints,
        amps: &[f32],
        scale: impl Fn(usize, usize, usize) -> f32,
    ) {
        inject(field, &trilinear_all(domain, points), amps, scale);
    }

    /// Compute stencils and interpolate in one call.
    pub(crate) fn interpolate_points(
        field: &Field,
        domain: &Domain,
        points: &SparsePoints,
        out: &mut [f32],
    ) {
        interpolate(field, &trilinear_all(domain, points), out);
    }

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(11), 10.0)
    }

    #[test]
    fn inject_conserves_total_amplitude() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 2);
        let pts = SparsePoints::new(&d, vec![[33.0, 47.0, 52.0]]);
        inject_points(&mut f, &d, &pts, &[2.0], |_, _, _| 1.0);
        // Partition of unity ⇒ the grid receives exactly the injected amount.
        let total: f32 = f.nonzero_interior().iter().map(|&(x, y, z)| f.get(x, y, z)).sum();
        assert!((total - 2.0).abs() < 1e-5);
        assert_eq!(f.nonzero_interior().len(), 8);
    }

    #[test]
    fn inject_on_grid_point_hits_single_cell() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        let pts = SparsePoints::new(&d, vec![[30.0, 40.0, 50.0]]);
        inject_points(&mut f, &d, &pts, &[1.5], |_, _, _| 1.0);
        assert_eq!(f.nonzero_interior(), vec![(3, 4, 5)]);
        assert_eq!(f.get(3, 4, 5), 1.5);
    }

    #[test]
    fn inject_applies_pointwise_scale() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        let pts = SparsePoints::new(&d, vec![[35.0, 40.0, 50.0]]); // between x=3 and 4
        inject_points(&mut f, &d, &pts, &[1.0], |x, _, _| x as f32);
        // Corners (3,4,5) w=.5 scale 3 and (4,4,5) w=.5 scale 4.
        assert!((f.get(3, 4, 5) - 1.5).abs() < 1e-6);
        assert!((f.get(4, 4, 5) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_sources_accumulate() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        // Two sources sharing a cell: effects must add.
        let pts = SparsePoints::new(&d, vec![[34.0, 44.0, 54.0], [36.0, 46.0, 56.0]]);
        inject_points(&mut f, &d, &pts, &[1.0, 1.0], |_, _, _| 1.0);
        let total: f32 = f
            .nonzero_interior()
            .iter()
            .map(|&(x, y, z)| f.get(x, y, z))
            .sum();
        assert!((total - 2.0).abs() < 1e-5);
    }

    #[test]
    fn interpolate_reads_back_linear_field() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 1);
        for (x, y, z) in d.shape().iter() {
            let c = d.coord_of(x, y, z);
            f.set(x, y, z, 0.1 * c[0] - 0.2 * c[1] + 0.3 * c[2]);
        }
        let pts = SparsePoints::new(&d, vec![[12.3, 45.6, 78.9], [90.0, 10.0, 20.0]]);
        let mut out = vec![0.0f32; 2];
        interpolate_points(&f, &d, &pts, &mut out);
        for (i, c) in pts.coords().iter().enumerate() {
            let expect = 0.1 * c[0] - 0.2 * c[1] + 0.3 * c[2];
            assert!((out[i] - expect).abs() < 1e-2, "rec {i}: {} vs {expect}", out[i]);
        }
    }

    #[test]
    fn inject_then_interpolate_roundtrip_on_grid() {
        // A source exactly on a grid point, measured by a receiver at the
        // same position, reads back the injected amplitude.
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        let pts = SparsePoints::new(&d, vec![[50.0, 50.0, 50.0]]);
        inject_points(&mut f, &d, &pts, &[3.25], |_, _, _| 1.0);
        let mut out = vec![0.0f32];
        interpolate_points(&f, &d, &pts, &mut out);
        assert!((out[0] - 3.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one amplitude per source")]
    fn inject_checks_lengths() {
        let d = dom();
        let mut f = Field::zeros(d.shape(), 0);
        inject(&mut f, &[], &[1.0], |_, _, _| 1.0);
    }
}
