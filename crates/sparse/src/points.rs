//! Sets of sparse off-the-grid points (sources or receivers) and the layout
//! generators used by the paper's experiments.

use tempest_grid::Domain;
use tempest_grid::Rng64;

/// A set of off-the-grid positions in physical coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePoints {
    coords: Vec<[f32; 3]>,
}

impl SparsePoints {
    /// Wrap explicit coordinates; every point must lie inside the domain.
    pub fn new(domain: &Domain, coords: Vec<[f32; 3]>) -> Self {
        for (i, p) in coords.iter().enumerate() {
            assert!(
                domain.contains_point(*p),
                "point {i} at {p:?} lies outside the domain"
            );
        }
        SparsePoints { coords }
    }

    /// A single point at the domain centre, offset off-grid by `frac` of a
    /// grid cell along every axis (the paper's single-shot configuration:
    /// "one time-dependent, spatially localized seismic source", §IV.B).
    pub fn single_center(domain: &Domain, frac: f32) -> Self {
        assert!((0.0..1.0).contains(&frac));
        let mut c = domain.center();
        let h = domain.spacing();
        for a in 0..3 {
            c[a] += frac * h[a];
        }
        // Clamp into the domain for tiny grids.
        let e = domain.extent();
        let o = domain.origin();
        for a in 0..3 {
            c[a] = c[a].min(o[a] + e[a]).max(o[a]);
        }
        SparsePoints { coords: vec![c] }
    }

    /// `n` points laid out on a √n × √n grid inside one x-y plane slice at
    /// depth fraction `z_frac`, each jittered off-grid by `frac` of a cell —
    /// the "increasing number of sources located at an x-y plane slice"
    /// layout of Fig. 10 (sparse case).
    pub fn plane_layout(domain: &Domain, n: usize, z_frac: f32, frac: f32) -> Self {
        assert!(n > 0);
        let side = (n as f64).sqrt().ceil() as usize;
        let e = domain.extent();
        let o = domain.origin();
        let h = domain.spacing();
        let z = (o[2] + z_frac * e[2]).min(o[2] + e[2]);
        let mut coords = Vec::with_capacity(n);
        'outer: for i in 0..side {
            for j in 0..side {
                if coords.len() == n {
                    break 'outer;
                }
                // Spread over the middle 80% of the plane, keep off-grid.
                let px = o[0] + e[0] * (0.1 + 0.8 * (i as f32 + 0.5) / side as f32) + frac * h[0];
                let py = o[1] + e[1] * (0.1 + 0.8 * (j as f32 + 0.5) / side as f32) + frac * h[1];
                coords.push([px.min(o[0] + e[0]), py.min(o[1] + e[1]), z]);
            }
        }
        SparsePoints { coords }
    }

    /// `n` points distributed densely and uniformly over the whole 3-D
    /// volume on a ∛n-per-axis lattice, jittered off-grid — the dense
    /// layout of Fig. 10.
    pub fn dense_layout(domain: &Domain, n: usize, frac: f32) -> Self {
        assert!(n > 0);
        let side = (n as f64).cbrt().ceil() as usize;
        let e = domain.extent();
        let o = domain.origin();
        let h = domain.spacing();
        let mut coords = Vec::with_capacity(n);
        'outer: for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    if coords.len() == n {
                        break 'outer;
                    }
                    let p = [
                        (o[0] + e[0] * (0.05 + 0.9 * (i as f32 + 0.5) / side as f32) + frac * h[0])
                            .min(o[0] + e[0]),
                        (o[1] + e[1] * (0.05 + 0.9 * (j as f32 + 0.5) / side as f32) + frac * h[1])
                            .min(o[1] + e[1]),
                        (o[2] + e[2] * (0.05 + 0.9 * (k as f32 + 0.5) / side as f32) + frac * h[2])
                            .min(o[2] + e[2]),
                    ];
                    coords.push(p);
                }
            }
        }
        SparsePoints { coords }
    }

    /// `n` uniformly random points within the inner 90% of the domain.
    pub fn random(domain: &Domain, n: usize, seed: u64) -> Self {
        assert!(n > 0);
        let mut rng = Rng64::new(seed);
        let e = domain.extent();
        let o = domain.origin();
        let coords = (0..n)
            .map(|_| {
                [
                    o[0] + e[0] * rng.range_f32(0.05, 0.95),
                    o[1] + e[1] * rng.range_f32(0.05, 0.95),
                    o[2] + e[2] * rng.range_f32(0.05, 0.95),
                ]
            })
            .collect();
        SparsePoints { coords }
    }

    /// A horizontal line of receivers at depth fraction `z_frac` spanning x,
    /// centred in y — a standard seismic acquisition geometry.
    pub fn receiver_line(domain: &Domain, n: usize, z_frac: f32) -> Self {
        assert!(n > 0);
        let e = domain.extent();
        let o = domain.origin();
        let y = o[1] + 0.5 * e[1];
        let z = o[2] + z_frac * e[2];
        let coords = (0..n)
            .map(|i| {
                let fx = if n == 1 {
                    0.5
                } else {
                    0.05 + 0.9 * i as f32 / (n - 1) as f32
                };
                [o[0] + fx * e[0], y, z]
            })
            .collect();
        SparsePoints { coords }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when the set has no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates.
    pub fn coords(&self) -> &[[f32; 3]] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::Shape;

    fn dom() -> Domain {
        Domain::uniform(Shape::cube(21), 10.0)
    }

    #[test]
    fn single_center_is_off_grid() {
        let d = dom();
        let p = SparsePoints::single_center(&d, 0.37);
        assert_eq!(p.len(), 1);
        let f = d.frac_index(p.coords()[0]);
        for a in 0..3 {
            assert!((f[a].fract() - 0.37).abs() < 1e-4, "axis {a}: {f:?}");
        }
    }

    #[test]
    fn plane_layout_counts_and_plane() {
        let d = dom();
        for n in [1, 4, 10, 50] {
            let p = SparsePoints::plane_layout(&d, n, 0.25, 0.5);
            assert_eq!(p.len(), n);
            let z0 = p.coords()[0][2];
            assert!(p.coords().iter().all(|c| c[2] == z0), "coplanar");
            for c in p.coords() {
                assert!(d.contains_point(*c));
            }
        }
    }

    #[test]
    fn dense_layout_spans_volume() {
        let d = dom();
        let p = SparsePoints::dense_layout(&d, 27, 0.5);
        assert_eq!(p.len(), 27);
        let zs: Vec<f32> = p.coords().iter().map(|c| c[2]).collect();
        let (zmin, zmax) = zs
            .iter()
            .fold((f32::MAX, f32::MIN), |(a, b), &z| (a.min(z), b.max(z)));
        assert!(zmax - zmin > 0.5 * d.extent()[2], "spread across depth");
    }

    #[test]
    fn random_is_deterministic_and_inside() {
        let d = dom();
        let a = SparsePoints::random(&d, 20, 9);
        let b = SparsePoints::random(&d, 20, 9);
        assert_eq!(a, b);
        for c in a.coords() {
            assert!(d.contains_point(*c));
        }
    }

    #[test]
    fn receiver_line_spans_x() {
        let d = dom();
        let r = SparsePoints::receiver_line(&d, 11, 0.1);
        assert_eq!(r.len(), 11);
        assert!(r.coords()[10][0] > r.coords()[0][0]);
        let y0 = r.coords()[0][1];
        assert!(r.coords().iter().all(|c| c[1] == y0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn new_rejects_outside_points() {
        let d = dom();
        let _ = SparsePoints::new(&d, vec![[1e6, 0.0, 0.0]]);
    }
}
