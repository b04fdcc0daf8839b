//! Absorbing boundary layers (sponge damping).
//!
//! The paper's test cases "use zero initial conditions and damping fields
//! with absorbing boundary layers" (§IV.B). We implement the standard sponge
//! approach: a damping coefficient `η` that is zero in the physical interior
//! and ramps up inside a boundary layer of `nbl` points, entering the update
//! as an additional `η · ∂u/∂t` friction term.
//!
//! `η` depends on a point only through its distance `d` to the nearest face,
//! so the sponge is one 1-D profile, [`sponge_profile`]. The propagators
//! spell it out along `z` once per distance to the `x`/`y` faces;
//! [`DampingMask`] spells it out as a dense volume, the point-wise reference
//! the tests check them against.

use crate::array::Array3;
use crate::shape::Shape;

/// The sponge profile `η(d)` for `d = 0..=nbl`: a quadratic ramp
/// `coeff · ((nbl − d)/nbl)²` for points at distance `d < nbl` from the
/// nearest face, and `η(nbl) = 0`, the undamped value every point at
/// distance `≥ nbl` takes. Index it with `min(d, nbl)`.
///
/// (Devito's default profile, `(nbl−d)/nbl − sin(2π(nbl−d)/nbl)/(2π)`
/// scaled per unit time, is the common alternative; the quadratic ramp is
/// kept simple and dimensionless per step.)
pub fn sponge_profile(nbl: usize, coeff: f32) -> Vec<f32> {
    (0..=nbl)
        .map(|d| {
            if d < nbl {
                let r = (nbl - d) as f32 / nbl as f32;
                coeff * r * r
            } else {
                0.0
            }
        })
        .collect()
}

/// Per-point damping coefficients for a sponge absorbing layer.
#[derive(Debug, Clone)]
pub struct DampingMask {
    /// Damping coefficient per grid point (non-negative; zero inside).
    pub damp: Array3<f32>,
    nbl: usize,
}

impl DampingMask {
    /// The dense volume of [`sponge_profile`] with `nbl` absorbing points on
    /// every face: `η(min(d, nbl))` at every point, `d` its distance to the
    /// nearest face.
    pub fn sponge(shape: Shape, nbl: usize, coeff: f32) -> Self {
        let eta = sponge_profile(nbl, coeff);
        let mut damp = Array3::from_shape(shape);
        for (x, y, z) in shape.iter() {
            let dx = x.min(shape.nx - 1 - x);
            let dy = y.min(shape.ny - 1 - y);
            let dz = z.min(shape.nz - 1 - z);
            damp.set(x, y, z, eta[dx.min(dy).min(dz).min(nbl)]);
        }
        DampingMask { damp, nbl }
    }

    /// No damping at all (free propagation, used by unit tests).
    pub fn none(shape: Shape) -> Self {
        DampingMask {
            damp: Array3::from_shape(shape),
            nbl: 0,
        }
    }

    /// Width of the absorbing layer in grid points.
    pub fn nbl(&self) -> usize {
        self.nbl
    }

    /// Is the point inside the undamped physical interior?
    pub fn is_interior(&self, x: usize, y: usize, z: usize) -> bool {
        self.damp.get(x, y, z) == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_is_undamped() {
        let m = DampingMask::sponge(Shape::cube(16), 4, 0.1);
        assert_eq!(m.damp.get(8, 8, 8), 0.0);
        assert!(m.is_interior(7, 8, 9));
        assert_eq!(m.nbl(), 4);
    }

    #[test]
    fn boundary_is_damped_and_monotone_inward() {
        let m = DampingMask::sponge(Shape::cube(16), 4, 0.1);
        // Corner has the maximum coefficient.
        let corner = m.damp.get(0, 0, 0);
        assert!(corner > 0.0);
        assert!((corner - 0.1).abs() < 1e-7);
        // Moving inward along x the coefficient decreases monotonically.
        let mut prev = f32::INFINITY;
        for x in 0..5 {
            let v = m.damp.get(x, 8, 8);
            assert!(v <= prev, "damping must not increase inward");
            prev = v;
        }
        assert_eq!(m.damp.get(4, 8, 8), 0.0);
    }

    #[test]
    fn symmetry_of_profile() {
        let m = DampingMask::sponge(Shape::cube(12), 3, 1.0);
        for x in 0..12 {
            assert_eq!(m.damp.get(x, 6, 6), m.damp.get(11 - x, 6, 6));
        }
    }

    #[test]
    fn none_has_zero_everywhere() {
        let m = DampingMask::none(Shape::cube(8));
        assert_eq!(m.damp.max_abs(), 0.0);
        assert_eq!(m.nbl(), 0);
    }

    #[test]
    fn profile_ramps_down_to_the_undamped_value() {
        let eta = sponge_profile(4, 0.1);
        assert_eq!(eta.len(), 5);
        assert_eq!(eta[0], 0.1);
        assert!(eta.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(eta[4], 0.0);
        assert_eq!(sponge_profile(0, 5.0), [0.0]);
    }

    #[test]
    fn zero_nbl_sponge_is_none() {
        let m = DampingMask::sponge(Shape::cube(8), 0, 5.0);
        assert_eq!(m.damp.max_abs(), 0.0);
    }
}
