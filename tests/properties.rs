//! Property-style tests over the core invariants: interpolation weights,
//! the precomputation scheme, schedule coverage and legality, and FD
//! coefficient exactness — randomised versions of the paper's structural
//! claims. Cases are drawn from a seeded [`Rng64`] stream (hermetic builds,
//! no proptest), so every failure is reproducible.

use tempest::grid::{Array3, Domain, Rng64, Shape};
use tempest::sparse::wavelet::wavelet_matrix_scaled;
use tempest::sparse::{trilinear, ReceiverPrecompute, SourcePrecompute, SparsePoints, FOOTPRINT};
use tempest::stencil::central_coeffs;
use tempest::tiling::legality::{check_plan, check_schedule, DepModel};
use tempest::tiling::wavefront::{slabs, WavefrontSpec};
use tempest::tiling::TilePlan;

const CASES: usize = 64;

fn small_domain() -> Domain {
    Domain::uniform(Shape::cube(12), 10.0)
}

/// Trilinear weights are a partition of unity with all weights in
/// [0, 1], for any point inside the domain.
#[test]
fn interp_partition_of_unity() {
    let mut rng = Rng64::new(0xB1);
    for _ in 0..CASES {
        let (fx, fy, fz) = (rng.next_f32(), rng.next_f32(), rng.next_f32());
        let d = small_domain();
        let e = d.extent();
        let p = [fx * e[0], fy * e[1], fz * e[2]];
        let st = trilinear(&d, p);
        let sum: f32 = st.cells.iter().map(|&(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for (c, w) in &st.cells {
            assert!((0.0..=1.0).contains(w));
            assert!(d.shape().contains(c[0], c[1], c[2]));
        }
    }
}

/// The interpolated position of the weights' centroid reproduces the
/// query point (trilinear reproduces linear functions).
#[test]
fn interp_reproduces_coordinates() {
    let mut rng = Rng64::new(0xB2);
    for _ in 0..CASES {
        let (fx, fy, fz) = (
            rng.range_f32(0.01, 0.99),
            rng.range_f32(0.01, 0.99),
            rng.range_f32(0.01, 0.99),
        );
        let d = small_domain();
        let e = d.extent();
        let p = [fx * e[0], fy * e[1], fz * e[2]];
        let st = trilinear(&d, p);
        for (axis, &pa) in p.iter().enumerate() {
            let val: f32 = st
                .cells
                .iter()
                .map(|&(c, w)| w * d.coord_of(c[0], c[1], c[2])[axis])
                .sum();
            assert!((val - pa).abs() < 1e-2, "axis {}: {} vs {}", axis, val, pa);
        }
    }
}

/// A random source set for the precomputation properties: random points, two
/// sources in one cell, on-grid points (1-point footprints) and points in
/// the last cell of each axis — or, one case in eight, a `dense_layout`.
fn source_set(d: &Domain, rng: &mut Rng64) -> SparsePoints {
    let h = d.spacing()[0];
    let e = d.extent();
    if rng.range_usize(0, 8) == 0 {
        let n = rng.range_usize(1, 64);
        return SparsePoints::dense_layout(d, n, rng.range_f32(0.0, 0.99));
    }
    let n = rng.range_usize(1, 8);
    let mut coords = SparsePoints::random(d, n, rng.next_u64()).coords().to_vec();
    let cell = [0, 1, 2].map(|_| rng.range_usize(0, 11) as f32 * h);
    for _ in 0..2 {
        coords.push([0, 1, 2].map(|a| cell[a] + rng.range_f32(0.1, 0.9) * h));
    }
    for _ in 0..rng.range_usize(0, 3) {
        coords.push([0, 1, 2].map(|_| rng.range_usize(0, 12) as f32 * h));
    }
    for a in 0..3 {
        let mut p = [0, 1, 2].map(|b| rng.range_f32(0.0, 1.0) * e[b]);
        p[a] = e[a] - rng.range_f32(0.0, 1.0) * h;
        coords.push(p);
    }
    SparsePoints::new(d, coords)
}

/// The paper's dense `SID` volume (Fig. 5c), built from the footprints:
/// `-1` off the mask, ids `0..npts` in grid order on it.
fn dense_sid(d: &Domain, pts: &SparsePoints) -> Array3<i32> {
    let s = d.shape();
    let mut sid = Array3::full(s.nx, s.ny, s.nz, -1i32);
    for p in pts.coords() {
        for (c, _) in trilinear(d, *p).nonzero() {
            sid.set(c[0], c[1], c[2], 0);
        }
    }
    let mut npts = 0;
    for (x, y, z) in s.iter() {
        if sid.get(x, y, z) == 0 {
            sid.set(x, y, z, npts);
            npts += 1;
        }
    }
    sid
}

/// Mask/id consistency of the sparse precomputation for random source
/// sets: the affected points are exactly the `SID` mask, every footprint
/// is covered (at most 8 points per source), and ids are dense and ascend
/// in grid order. (The probed build, Listing 2, is checked against the
/// analytic one on the same cases by tempest-sparse's unit tests.)
#[test]
fn precompute_mask_id_invariants() {
    let mut rng = Rng64::new(0xB3);
    for case in 0..CASES {
        let d = small_domain();
        let s = d.shape();
        let pts = source_set(&d, &mut rng);
        let w = wavelet_matrix_scaled(&[1.0, -0.5, 0.25], &vec![1.0; pts.len()]);
        let pre = SourcePrecompute::build(&d, &pts, &w);
        let sid = dense_sid(&d, &pts);

        let mut next = 0;
        for (x, y, z) in s.iter() {
            let id = sid.get(x, y, z);
            if id >= 0 {
                assert_eq!(id as usize, next, "case {case}");
                assert_eq!(pre.points[next], [x, y, z], "case {case}: id {next}");
                next += 1;
            }
        }
        assert_eq!(pre.npts(), next, "case {case}");
        assert!(pre.npts() <= 8 * pts.len(), "case {case}");
    }
}

/// The footprint is a lossless re-indexing of the dense `SID`: per pencil
/// the compressed mask lists exactly the volume's `(z, id)` pairs, ids
/// ascend across pencils, and receivers get the same ids, in their index
/// and their `RID` volume. In both directions each point's CSR entries are
/// exactly the non-zero `(sparse id · FOOTPRINT + corner, weight)` of
/// `trilinear`, in ascending sparse id; and `src_dcmp` is, bit for bit,
/// the decomposition summed here source by source in ascending order.
#[test]
fn compressed_mask_lossless() {
    let mut rng = Rng64::new(0xB4);
    for case in 0..CASES {
        let d = small_domain();
        let s = d.shape();
        let pts = source_set(&d, &mut rng);
        let amps: Vec<f32> = (0..pts.len()).map(|s| 1.0 - 0.37 * s as f32).collect();
        let w = wavelet_matrix_scaled(&[1.0, -0.61, 2.5e-3], &amps);
        let pre = SourcePrecompute::build(&d, &pts, &w);
        let sid = dense_sid(&d, &pts);
        assert_eq!(pre.index.total(), pre.npts(), "case {case}");

        let mut ids = Vec::new();
        for x in 0..s.nx {
            for y in 0..s.ny {
                let from_index: Vec<(usize, usize)> = pre.index.entries(x, y).collect();
                let from_sid: Vec<(usize, usize)> = (0..s.nz)
                    .filter_map(|z| {
                        let id = sid.get(x, y, z);
                        (id >= 0).then_some((z, id as usize))
                    })
                    .collect();
                assert_eq!(from_index, from_sid, "case {case} pencil ({x}, {y})");
                assert_eq!(pre.index.count(x, y), from_sid.len());
                for (z, id) in from_index {
                    assert_eq!(pre.points[id], [x, y, z], "case {case}");
                    ids.push(id);
                }
            }
        }
        assert_eq!(
            ids,
            (0..pre.npts()).collect::<Vec<_>>(),
            "case {case}: ids ascend"
        );

        let rec = ReceiverPrecompute::build(&d, &pts);
        assert_eq!(rec.points, pre.points, "case {case}");
        assert_eq!(rec.index, pre.index, "case {case}");
        assert_eq!(rec.rid, sid, "case {case}");

        // The CSR and Listing 3, from `trilinear` and the dense `SID`.
        let npts = pre.npts();
        let mut csr = vec![Vec::new(); npts];
        let mut dcmp = vec![0.0f32; 3 * npts];
        for (s, p) in pts.coords().iter().enumerate() {
            for (j, (c, wt)) in trilinear(&d, *p).nonzero().enumerate() {
                let id = sid.get(c[0], c[1], c[2]) as usize;
                csr[id].push(((s * FOOTPRINT + j) as u32, wt.to_bits()));
                for t in 0..3 {
                    dcmp[t * npts + id] += wt * w.get(t, s);
                }
            }
        }
        for (id, expected) in csr.iter().enumerate() {
            let bits = |e: &[(u32, f32)]| -> Vec<(u32, u32)> {
                e.iter().map(|&(slot, wt)| (slot, wt.to_bits())).collect()
            };
            let (from_pre, from_rec) = (bits(pre.contributions(id)), bits(rec.contributions(id)));
            assert_eq!(&from_pre, expected, "case {case}: id {id}");
            assert_eq!(&from_rec, expected, "case {case}: id {id}");
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(pre.src_dcmp.as_slice()),
            bits(&dcmp),
            "case {case}: src_dcmp"
        );
    }
}

/// Wave-front schedules cover every (vt, x, y) exactly once, whatever
/// the tile geometry.
#[test]
fn wavefront_coverage() {
    let mut rng = Rng64::new(0xB5);
    for _ in 0..CASES {
        let nx = rng.range_usize(4, 24);
        let ny = rng.range_usize(4, 24);
        let tile_x = rng.range_usize(1, 16);
        let tile_y = rng.range_usize(1, 16);
        let tile_t = rng.range_usize(1, 6);
        let skew = rng.range_usize(0, 4);
        let nvt = rng.range_usize(1, 8);
        let shape = Shape::new(nx, ny, 2);
        let spec = WavefrontSpec::new(tile_x, tile_y, tile_t, skew, 4, 4);
        let mut counts = vec![0u32; nvt * nx * ny];
        for s in slabs(shape, nvt, &spec) {
            for x in s.range.x0..s.range.x1 {
                for y in s.range.y0..s.range.y1 {
                    counts[(s.vt * nx + x) * ny + y] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
    }
}

/// Schedules with skew ≥ radius pass the legality checker for both
/// buffer depths (the paper's Fig. 7 angle condition).
#[test]
fn wavefront_legality() {
    let mut rng = Rng64::new(0xB6);
    for _ in 0..CASES {
        let radius = rng.range_usize(0, 4);
        let extra = rng.range_usize(0, 3);
        let tile = rng.range_usize(2, 12);
        let tile_t = rng.range_usize(1, 6);
        let levels = rng.range_usize(2, 4);
        let shape = Shape::new(18, 14, 2);
        let skew = radius + extra;
        let spec = WavefrontSpec::new(tile, tile, tile_t, skew, 4, 4);
        let sched = slabs(shape, 7, &spec);
        assert_eq!(
            check_schedule(shape, 7, DepModel { radius, levels }, sched),
            Ok(()),
            "radius {radius} skew {skew} tile {tile} tile_t {tile_t} levels {levels}"
        );
    }
}

/// Wave-front plans: for any spec with skew ≥ radius, (a) the plan is sound
/// (acyclic, replayable, unordered tiles conflict-free — so same-diagonal
/// tiles may run concurrently), (b) the diagonal-major linearisation of its
/// nodes covers every space-time point exactly once and replays cleanly
/// through the dependency checker.
#[test]
fn wavefront_plan_legality() {
    let mut rng = Rng64::new(0xB8);
    for _ in 0..CASES {
        let radius = rng.range_usize(0, 4);
        let skew = radius + rng.range_usize(0, 3);
        let tile = rng.range_usize(2, 12);
        let tile_t = rng.range_usize(1, 6);
        let levels = rng.range_usize(2, 4);
        let nvt = rng.range_usize(1, 8);
        let (nx, ny) = (rng.range_usize(6, 24), rng.range_usize(6, 24));
        let shape = Shape::new(nx, ny, 2);
        let spec = WavefrontSpec::new(tile, tile, tile_t, skew, 4, 4);
        let model = DepModel { radius, levels };
        let ctx =
            format!("radius {radius} skew {skew} tile {tile} tile_t {tile_t} levels {levels}");
        let plan = TilePlan::wavefront(shape, nvt, &spec, radius);
        assert_eq!(check_plan(shape, model, &plan), Ok(()), "plan: {ctx}");
        let mut order: Vec<usize> = (0..plan.len()).collect();
        order.sort_by_key(|&i| (plan.labels[i].t0, plan.labels[i].diagonal));
        let sched: Vec<_> = order
            .iter()
            .flat_map(|&i| plan.slabs[i].iter().copied())
            .collect();
        let mut counts = vec![0u32; nvt * nx * ny];
        for s in &sched {
            for x in s.range.x0..s.range.x1 {
                for y in s.range.y0..s.range.y1 {
                    counts[(s.vt * nx + x) * ny + y] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 1), "coverage: {ctx}");
        assert_eq!(
            check_schedule(shape, nvt, model, sched),
            Ok(()),
            "replay: {ctx}"
        );
    }
}

/// Central second-derivative weights: symmetric, zero-sum, correct
/// second moment — for every even order.
#[test]
fn fd_weight_invariants() {
    for half in 1usize..9 {
        let order = 2 * half;
        let w = central_coeffs(2, order);
        let r = order / 2;
        let sum: f64 = w.iter().sum();
        assert!(sum.abs() < 1e-9);
        for k in 1..=r {
            assert!((w[r + k] - w[r - k]).abs() < 1e-11);
        }
        // Second moment Σ w_k k² = 2 (that's what makes it a 2nd derivative).
        let m2: f64 = w
            .iter()
            .enumerate()
            .map(|(i, &wk)| {
                let k = i as f64 - r as f64;
                wk * k * k
            })
            .sum();
        assert!((m2 - 2.0).abs() < 1e-8, "order {}: m2 {}", order, m2);
    }
}

/// Decomposed injection (src_dcmp) conserves total injected amplitude:
/// Σ_id dcmp[t][id] = Σ_s src[t][s] (partition of unity summed over
/// footprints).
#[test]
fn decomposition_conserves_amplitude() {
    let mut rng = Rng64::new(0xB7);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        let n = rng.range_usize(1, 10);
        let d = small_domain();
        let pts = SparsePoints::random(&d, n, seed);
        let amps: Vec<f32> = (0..n).map(|i| 1.0 + i as f32 * 0.5).collect();
        let w = wavelet_matrix_scaled(&[1.0, -2.0], &amps);
        let pre = SourcePrecompute::build(&d, &pts, &w);
        for t in 0..2 {
            let total_dcmp: f64 = (0..pre.npts())
                .map(|id| pre.src_dcmp.get(t, id) as f64)
                .sum();
            let total_src: f64 = (0..n).map(|s| w.get(t, s) as f64).sum();
            assert!(
                (total_dcmp - total_src).abs() < 1e-4 * total_src.abs().max(1.0),
                "t {}: {} vs {}",
                t,
                total_dcmp,
                total_src
            );
        }
    }
}
