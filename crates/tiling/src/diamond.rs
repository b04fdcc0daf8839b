//! Diamond (MWD) temporal blocking — Malas et al., *Multicore-optimized
//! wavefront diamond blocking* (arXiv:1410.3060), as a plan constructor.
//!
//! Where the wave-front schedule ([`crate::wavefront`]) skews parallelogram
//! tiles in both x and y, the diamond schedule tiles the `(vt, a)` plane —
//! `a` one chosen space axis ([`DiamondAxis`]) — into *diamonds* and runs a
//! skewed wave-front along the remaining cross axis. A diamond first expands
//! and then contracts around its centre, so consecutive steps of one tile
//! re-read the values the tile itself just wrote: maximal in-cache reuse per
//! synchronisation point, the property MWD trades against the skewed slab's
//! one-sided drift.
//!
//! Geometry (all in virtual steps; `T = tile_t`, `s = slope ≥ radius`):
//!
//! * Diamond rows `row = 0, 1, …` each own the virtual steps
//!   `τ = vt − b ∈ [1, 2T)` above their bottom vertex `b = (row − 1)·T`
//!   (row 0 holds the clipped bottom half-diamonds of the cold start, the
//!   last row the clipped top halves).
//! * Within a row, diamond centres sit at `A = k·s·T` for `k ≥ 0` with
//!   `k ≡ row − 1 (mod 2)`; the slab of a diamond at `τ` spans
//!   `[A − hw, A + hw)` with half-width `hw = s·min(τ, 2T − τ)`.
//!   Adjacent rows alternate centre parity, so at every `vt` the two
//!   covering rows' slabs abut exactly: each `(vt, a)` point belongs to
//!   exactly one diamond. The diamond base width is `2·s·T` —
//!   legal iff `width ≥ 2·radius·tile_t`, i.e. `s ≥ radius`.
//! * The cross axis is cut into `tile_c` windows that recede by
//!   `cross_skew ≥ radius` per step (anchored at `τ = 1`), exactly like a
//!   wave-front: `[ct·tile_c − (τ − 1)·cross_skew, +tile_c)`.
//!
//! Dependencies: with `s ≥ radius`, a diamond's read halo at `vt` never
//! reaches a *different* same-row diamond's slab at `vt − 1` (their widest
//! consecutive-step slabs leave a gap of at least `s − radius`), and with
//! `cross_skew ≥ radius` same-diamond cross windows only read equal-or-lower
//! `ct`. Hence every edge of [`diamond_tile_graph`] points backward in the
//! lexicographic `(row, k, ct)` enumeration order — the graph is acyclic, so
//! [`crate::TilePlan::diamond`] can snapshot it and [`crate::execute_plan`]
//! run it exactly like a wave-front plan. `s < radius` creates mutual
//! same-row reads (a cycle), which [`crate::legality::check_plan`] detects
//! and rejects.

use tempest_grid::{Range3, Shape};

use crate::wavefront::{dilate_xy, xy_overlap, Slab};

/// Which space axis carries the diamonds; the other axis runs the skewed
/// cross wave-front (`z` stays whole for SIMD, as everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiamondAxis {
    /// Diamonds in `(vt, x)`, cross wave-front along y.
    #[default]
    X,
    /// Diamonds in `(vt, y)`, cross wave-front along x.
    Y,
}

impl DiamondAxis {
    /// Lower-case axis letter for labels.
    pub fn name(self) -> &'static str {
        match self {
            DiamondAxis::X => "x",
            DiamondAxis::Y => "y",
        }
    }
}

/// Parameters of the diamond schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiamondSpec {
    /// Temporal half-height `T` of a diamond, in virtual steps: a full
    /// diamond spans `2T − 1` interior steps and new rows start every `T`.
    pub tile_t: usize,
    /// Diamond slope `s` in grid points per virtual step (≥ max dependency
    /// radius). The diamond base width is `2·s·tile_t`.
    pub slope: usize,
    /// Cross-axis window extent.
    pub tile_c: usize,
    /// Cross-axis recession per virtual step (≥ max dependency radius; may
    /// be zero only for radius-0 pointwise updates).
    pub cross_skew: usize,
    /// Intra-slab block extent along x.
    pub block_x: usize,
    /// Intra-slab block extent along y.
    pub block_y: usize,
    /// The diamond axis.
    pub axis: DiamondAxis,
}

impl DiamondSpec {
    /// Create a spec; all extents must be non-zero (cross_skew may be zero
    /// only for radius-0 pointwise updates).
    pub fn new(
        tile_t: usize,
        slope: usize,
        tile_c: usize,
        cross_skew: usize,
        block_x: usize,
        block_y: usize,
        axis: DiamondAxis,
    ) -> Self {
        assert!(
            tile_t > 0 && slope > 0 && tile_c > 0 && block_x > 0 && block_y > 0,
            "tile/block extents must be non-zero"
        );
        DiamondSpec {
            tile_t,
            slope,
            tile_c,
            cross_skew,
            block_x,
            block_y,
            axis,
        }
    }

    /// The diamond base width `2·slope·tile_t` — the widest slab, reached at
    /// `τ = tile_t`. Legality requires `width ≥ 2·radius·tile_t`.
    pub fn width(&self) -> usize {
        2 * self.slope * self.tile_t
    }

    /// Grid extents as (diamond axis, cross axis).
    fn extents(&self, shape: Shape) -> (usize, usize) {
        match self.axis {
            DiamondAxis::X => (shape.nx, shape.ny),
            DiamondAxis::Y => (shape.ny, shape.nx),
        }
    }
}

/// One diamond tile: its row, centre index `k` along the diamond axis,
/// cross-window index `ct`, and the (grid-clamped) virtual-step range
/// `[t0, t1)` it advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiamondTile {
    /// Diamond row (bottom vertex at `(row − 1)·tile_t`).
    pub row: usize,
    /// Centre index along the diamond axis (centre at `k·slope·tile_t`;
    /// `k ≡ row − 1 (mod 2)`).
    pub k: usize,
    /// Cross-axis window index.
    pub ct: usize,
    /// First virtual step with a (possibly empty) slab (inclusive).
    pub t0: usize,
    /// Last virtual step (exclusive).
    pub t1: usize,
}

/// The slab of `tile` at virtual step `vt`: the diamond cross-section at
/// `τ = vt − bottom` intersected with the receded cross window, clamped to
/// the grid. `None` when the clamp leaves nothing.
pub fn diamond_slab(
    shape: Shape,
    spec: &DiamondSpec,
    tile: &DiamondTile,
    vt: usize,
) -> Option<Slab> {
    debug_assert!((tile.t0..tile.t1).contains(&vt));
    let t = spec.tile_t as isize;
    let bottom = (tile.row as isize - 1) * t;
    let tau = vt as isize - bottom;
    debug_assert!(tau >= 1 && tau < 2 * t, "vt {vt} outside diamond row {}", tile.row);
    let (na, nc) = spec.extents(shape);
    let hw = spec.slope as isize * tau.min(2 * t - tau);
    let centre = (tile.k * spec.slope * spec.tile_t) as isize;
    let a0 = (centre - hw).max(0) as usize;
    let a1 = (((centre + hw).max(0)) as usize).min(na);
    let off = (tau - 1) * spec.cross_skew as isize;
    let cs = (tile.ct * spec.tile_c) as isize - off;
    let c0 = cs.max(0) as usize;
    let c1 = (((cs + spec.tile_c as isize).max(0)) as usize).min(nc);
    (a0 < a1 && c0 < c1).then(|| {
        let range = match spec.axis {
            DiamondAxis::X => Range3::new((a0, a1), (c0, c1), (0, shape.nz)),
            DiamondAxis::Y => Range3::new((c0, c1), (a0, a1), (0, shape.nz)),
        };
        Slab { vt, range }
    })
}

/// True when the tile contributes at least one non-empty slab. Boundary
/// diamonds (centres past the grid edge, late cross windows) can be fully
/// clipped; running them would be pure overhead.
pub fn diamond_tile_has_work(shape: Shape, spec: &DiamondSpec, tile: &DiamondTile) -> bool {
    (tile.t0..tile.t1).any(|vt| diamond_slab(shape, spec, tile, vt).is_some())
}

/// Visit every diamond tile with work in lexicographic `(row, k, ct)` order
/// — a valid topological order of [`diamond_tile_graph`] whenever
/// `slope ≥ radius` and `cross_skew ≥ radius` (see module docs).
pub fn for_each_diamond_tile<F>(shape: Shape, nvt: usize, spec: &DiamondSpec, mut f: F)
where
    F: FnMut(&DiamondTile),
{
    if nvt == 0 {
        return;
    }
    let t = spec.tile_t as isize;
    let (na, nc) = spec.extents(shape);
    let half = spec.slope * spec.tile_t; // centre spacing s·T
    // Rows with a non-empty step range: bottom + 1 < nvt.
    let last_row = ((nvt as isize - 2).div_euclid(t) + 1).max(0) as usize;
    for row in 0..=last_row {
        let bottom = (row as isize - 1) * t;
        let t0 = (bottom + 1).max(0) as usize;
        let t1 = (((bottom + 2 * t).max(0)) as usize).min(nvt);
        if t0 >= t1 {
            continue;
        }
        // Cross windows recede with τ, so the row's last step needs the most.
        let tau_hi = (t1 - 1) as isize - bottom;
        let ntc = (nc + (tau_hi as usize - 1) * spec.cross_skew).div_ceil(spec.tile_c);
        // Centres alternate parity between rows; k·s·T − s·T < na bounds the
        // rightmost diamond that can ever reach the grid.
        let k_hi = na.div_ceil(half);
        let mut k = (row + 1) % 2;
        while k <= k_hi {
            for ct in 0..ntc {
                let tile = DiamondTile { row, k, ct, t0, t1 };
                if diamond_tile_has_work(shape, spec, &tile) {
                    f(&tile);
                }
            }
            k += 2;
        }
    }
}

/// Collect the full slab sequence in enumeration order (checker and test
/// helper — this serialisation is one valid topological order of the graph).
pub fn diamond_slabs(shape: Shape, nvt: usize, spec: &DiamondSpec) -> Vec<Slab> {
    let mut out = Vec::new();
    for_each_diamond_tile(shape, nvt, spec, |tile| {
        for vt in tile.t0..tile.t1 {
            if let Some(slab) = diamond_slab(shape, spec, tile, vt) {
                out.push(slab);
            }
        }
    });
    out
}

/// Build the dependency graph of the diamond schedule.
///
/// Nodes are every tile with work in [`for_each_diamond_tile`] order;
/// `preds[i]` lists the nodes tile `i` truly depends on. The rule is the
/// same stencil flow dependence as [`crate::wavefront::tile_graph`]: tile B
/// precedes tile A iff for some step `va ≥ 1` of A, B's slab at `va − 1`
/// intersects the `radius`-dilated footprint of A's slab at `va`. Candidate
/// writers are found by bucketing slabs per virtual step, so the rule needs
/// no diamond-specific case analysis — boundary half-diamonds and clipped
/// cross windows are handled by the clamped slabs themselves.
/// Anti-dependencies are transitively implied by the flow edges, which
/// [`crate::legality::check_plan`] machine-checks per plan.
pub fn diamond_tile_graph(
    shape: Shape,
    nvt: usize,
    spec: &DiamondSpec,
    radius: usize,
) -> (Vec<DiamondTile>, Vec<Vec<u32>>) {
    let mut tiles = Vec::new();
    for_each_diamond_tile(shape, nvt, spec, |t| tiles.push(*t));
    // Bucket tiles by the virtual steps where they have a non-empty slab.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nvt];
    for (i, tile) in tiles.iter().enumerate() {
        for (vt, bucket) in buckets.iter_mut().enumerate().take(tile.t1).skip(tile.t0) {
            if diamond_slab(shape, spec, tile, vt).is_some() {
                bucket.push(i as u32);
            }
        }
    }
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); tiles.len()];
    for (ia, a) in tiles.iter().enumerate() {
        for va in a.t0.max(1)..a.t1 {
            let Some(sa) = diamond_slab(shape, spec, a, va) else {
                continue;
            };
            let halo = dilate_xy(&sa.range, radius, shape);
            for &ib in &buckets[va - 1] {
                if ib as usize == ia {
                    continue;
                }
                let sb = diamond_slab(shape, spec, &tiles[ib as usize], va - 1)
                    .expect("bucketed tiles have a slab at their bucket step");
                if xy_overlap(&sb.range, &halo) {
                    preds[ia].push(ib);
                }
            }
        }
        preds[ia].sort_unstable();
        preds[ia].dedup();
    }
    (tiles, preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::Array3;

    fn coverage_exact(shape: Shape, nvt: usize, spec: &DiamondSpec) {
        let mut counts = Array3::<u32>::zeros(nvt.max(1), shape.nx, shape.ny);
        for s in diamond_slabs(shape, nvt, spec) {
            for x in s.range.x0..s.range.x1 {
                for y in s.range.y0..s.range.y1 {
                    counts.set(s.vt, x, y, counts.get(s.vt, x, y) + 1);
                }
            }
        }
        for vt in 0..nvt {
            for x in 0..shape.nx {
                for y in 0..shape.ny {
                    assert_eq!(
                        counts.get(vt, x, y),
                        1,
                        "(vt={vt}, x={x}, y={y}) covered {} times with {spec:?}",
                        counts.get(vt, x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn covers_each_space_time_point_exactly_once() {
        let shape = Shape::new(23, 17, 4);
        for spec in [
            DiamondSpec::new(4, 2, 8, 2, 4, 4, DiamondAxis::X),
            DiamondSpec::new(3, 3, 7, 3, 2, 2, DiamondAxis::X),
            DiamondSpec::new(4, 2, 8, 2, 4, 4, DiamondAxis::Y),
            DiamondSpec::new(2, 1, 5, 1, 3, 5, DiamondAxis::Y),
            DiamondSpec::new(6, 6, 32, 6, 8, 8, DiamondAxis::X), // wider than grid
        ] {
            coverage_exact(shape, 11, &spec);
        }
    }

    #[test]
    fn sweep_covers_each_point_exactly_tile_t_times_per_time_window() {
        // Satellite property: across a sweep, every grid point is stepped
        // exactly once per virtual step — so each consecutive tile_t-step
        // window covers it exactly tile_t times (no gap or overlap anywhere
        // in space-time, boundary half-diamonds included).
        let shape = Shape::new(25, 19, 2);
        for spec in [
            DiamondSpec::new(3, 2, 8, 2, 4, 4, DiamondAxis::X),
            DiamondSpec::new(2, 3, 6, 1, 4, 4, DiamondAxis::Y),
        ] {
            let nvt = 4 * spec.tile_t;
            let mut counts = Array3::<u32>::zeros(nvt, shape.nx, shape.ny);
            for s in diamond_slabs(shape, nvt, &spec) {
                for x in s.range.x0..s.range.x1 {
                    for y in s.range.y0..s.range.y1 {
                        counts.set(s.vt, x, y, counts.get(s.vt, x, y) + 1);
                    }
                }
            }
            for x in 0..shape.nx {
                for y in 0..shape.ny {
                    for w in 0..4 {
                        let in_window: u32 = (w * spec.tile_t..(w + 1) * spec.tile_t)
                            .map(|vt| counts.get(vt, x, y))
                            .sum();
                        assert_eq!(
                            in_window,
                            spec.tile_t as u32,
                            "({x},{y}) window {w} with {spec:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_t_one_degenerates_to_strip_blocking() {
        // T = 1: every diamond is a width-2s strip at a single step, with
        // centres alternating parity between consecutive steps.
        let shape = Shape::new(12, 12, 3);
        let spec = DiamondSpec::new(1, 2, 12, 0, 4, 4, DiamondAxis::X);
        let mut per_vt = vec![0usize; 5];
        for s in diamond_slabs(shape, 5, &spec) {
            per_vt[s.vt] += s.range.len();
            assert!(s.range.x1 - s.range.x0 <= 2 * spec.slope);
        }
        for v in per_vt {
            assert_eq!(v, shape.len());
        }
    }

    #[test]
    fn width_is_base_width() {
        assert_eq!(DiamondSpec::new(8, 4, 64, 2, 8, 8, DiamondAxis::X).width(), 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_slope() {
        let _ = DiamondSpec::new(8, 0, 64, 2, 8, 8, DiamondAxis::X);
    }

    #[test]
    fn enumeration_is_unique_and_clipped_tiles_are_skipped() {
        let shape = Shape::new(23, 17, 4);
        let spec = DiamondSpec::new(3, 3, 7, 3, 2, 2, DiamondAxis::X);
        let mut tiles = Vec::new();
        for_each_diamond_tile(shape, 11, &spec, |t| tiles.push(*t));
        assert!(tiles.iter().all(|t| diamond_tile_has_work(shape, &spec, t)));
        let mut uniq = tiles.clone();
        uniq.sort_by_key(|t| (t.row, t.k, t.ct));
        uniq.dedup();
        assert_eq!(uniq.len(), tiles.len());
        // Lexicographic enumeration order.
        assert_eq!(uniq, tiles);
        // Parity alternates between rows.
        assert!(tiles.iter().all(|t| t.k % 2 == (t.row + 1) % 2));
        // The first and last rows hold clipped half-diamonds.
        assert!(tiles.iter().any(|t| t.row == 0));
        assert!(tiles.iter().all(|t| t.t1 <= 11 && t.t0 < t.t1));
    }

    #[test]
    fn graph_edges_point_backward_in_enumeration_order() {
        let shape = Shape::new(23, 17, 4);
        for (spec, radius) in [
            (DiamondSpec::new(4, 2, 8, 2, 4, 4, DiamondAxis::X), 2),
            (DiamondSpec::new(3, 3, 7, 3, 2, 2, DiamondAxis::Y), 3),
            (DiamondSpec::new(1, 3, 8, 3, 4, 4, DiamondAxis::X), 3), // tile_t = 1
        ] {
            let (tiles, preds) = diamond_tile_graph(shape, 11, &spec, radius);
            let mut expect = Vec::new();
            for_each_diamond_tile(shape, 11, &spec, |t| expect.push(*t));
            assert_eq!(tiles, expect);
            for (ia, ps) in preds.iter().enumerate() {
                for &ib in ps {
                    // Lexicographic (row, k, ct) order is a topological
                    // order: every edge points backward.
                    assert!((ib as usize) < ia, "edge {ib} -> {ia} not backward");
                    let (a, b) = (&tiles[ia], &tiles[ib as usize]);
                    if a.row == b.row {
                        // Same-row flow deps stay within the same diamond
                        // (lower cross windows) under slope ≥ radius.
                        assert_eq!(a.k, b.k, "same-row dep crossed diamonds");
                        assert!(b.ct <= a.ct);
                    } else {
                        assert!(b.row < a.row);
                    }
                }
            }
            // Every tile beyond the first row depends on something.
            for (ia, t) in tiles.iter().enumerate() {
                if t.t0 > 0 {
                    assert!(!preds[ia].is_empty(), "row {} tile has no preds", t.row);
                }
            }
        }
    }
}
