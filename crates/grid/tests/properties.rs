//! Property-based tests of the grid data structures: each property is
//! checked over a deterministic stream of randomised cases drawn from
//! [`Rng64`] (the workspace builds hermetically, so no proptest — the seeds
//! make failures reproducible by construction).

use tempest_grid::{Array3, Domain, Field, Range3, Rng64, Shape};

const CASES: usize = 64;

/// Linear indexing is a bijection onto 0..len in canonical order.
#[test]
fn array3_indexing_bijective() {
    let mut rng = Rng64::new(0xA1);
    for _ in 0..CASES {
        let (nx, ny, nz) = (
            rng.range_usize(1, 8),
            rng.range_usize(1, 8),
            rng.range_usize(1, 8),
        );
        let a: Array3<f32> = Array3::zeros(nx, ny, nz);
        let mut seen = vec![false; a.len()];
        let mut last = None;
        for (x, y, z) in a.shape().iter() {
            let i = a.idx(x, y, z);
            assert!(!seen[i]);
            seen[i] = true;
            if let Some(l) = last {
                assert_eq!(i, l + 1, "canonical order is contiguous");
            }
            last = Some(i);
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// split_xy partitions any range exactly, for any block size.
#[test]
fn split_xy_partitions() {
    let mut rng = Rng64::new(0xA2);
    for _ in 0..CASES {
        let (x0, xw) = (rng.range_usize(0, 6), rng.range_usize(1, 12));
        let (y0, yw) = (rng.range_usize(0, 6), rng.range_usize(1, 12));
        let (bx, by) = (rng.range_usize(1, 14), rng.range_usize(1, 14));
        let r = Range3::new((x0, x0 + xw), (y0, y0 + yw), (0, 3));
        let blocks = r.split_xy(bx, by);
        let total: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(total, r.len());
        for p in r.iter() {
            let n = blocks.iter().filter(|b| b.contains(p.0, p.1, p.2)).count();
            assert_eq!(n, 1);
        }
    }
}

/// Range intersection is commutative and contained in both operands.
#[test]
fn intersect_properties() {
    let mut rng = Rng64::new(0xA3);
    for _ in 0..CASES {
        let (a0, aw) = (rng.range_usize(0, 10), rng.range_usize(0, 10));
        let (b0, bw) = (rng.range_usize(0, 10), rng.range_usize(0, 10));
        let a = Range3::new((a0, a0 + aw), (0, 5), (0, 5));
        let b = Range3::new((b0, b0 + bw), (1, 4), (0, 5));
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab.len(), ba.len());
        for p in ab.iter() {
            assert!(a.contains(p.0, p.1, p.2));
            assert!(b.contains(p.0, p.1, p.2));
        }
    }
}

/// Field halo mapping: interior writes land at interior reads and never
/// clobber other interior points.
#[test]
fn field_interior_isolated() {
    let mut rng = Rng64::new(0xA4);
    for _ in 0..CASES {
        let h = rng.range_usize(0, 4);
        let (x, y, z) = (
            rng.range_usize(0, 5),
            rng.range_usize(0, 5),
            rng.range_usize(0, 5),
        );
        let s = Shape::new(5, 5, 5);
        let mut f = Field::zeros(s, h);
        f.set(x, y, z, 7.0);
        for (px, py, pz) in s.iter() {
            let expect = if (px, py, pz) == (x, y, z) { 7.0 } else { 0.0 };
            assert_eq!(f.get(px, py, pz), expect);
        }
        assert_eq!(f.interior_copy().count_nonzero(), 1);
    }
}

/// Domain coordinate mapping round-trips through frac_index.
#[test]
fn domain_roundtrip() {
    let mut rng = Rng64::new(0xA6);
    for _ in 0..CASES {
        let (x, y, z) = (
            rng.range_usize(0, 11),
            rng.range_usize(0, 11),
            rng.range_usize(0, 11),
        );
        let n = rng.range_usize(2, 12).max(x.max(y).max(z) + 1);
        let h = rng.range_f32(1.0, 50.0);
        let d = Domain::uniform(Shape::cube(n), h);
        let c = d.coord_of(x, y, z);
        let f = d.frac_index(c);
        assert!((f[0] - x as f32).abs() < 1e-3);
        assert!((f[1] - y as f32).abs() < 1e-3);
        assert!((f[2] - z as f32).abs() < 1e-3);
        // Strict containment check only away from the upper face, where
        // f32 rounding of coord/spacing may land an ulp past n−1.
        if x < n - 1 && y < n - 1 && z < n - 1 {
            assert!(d.contains_point(c));
        }
    }
}
