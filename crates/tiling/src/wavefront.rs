//! Wave-front temporal blocking (paper §II.B, Figs. 7–8).
//!
//! The space-time iteration domain `(vt, x, y)` (the contiguous `z` axis is
//! never tiled — it stays whole for SIMD, Listing 4) is split into
//! parallelogram tiles:
//!
//! * `(tile_x, tile_y)` spatial tile extents (Table I's `tile_x, tile_y`),
//! * `tile_t` *virtual* timesteps of temporal height,
//! * a skew of `skew` points per virtual step — the wave-front angle. It
//!   must be at least the stencil's dependency radius ("the stencil radius
//!   affects the wavefront angle; the angle gets steeper with a higher
//!   stencil radius", Fig. 7). Multi-phase (staggered) propagators express
//!   each intra-timestep phase as its own virtual step, which widens the
//!   effective angle exactly as Fig. 8b prescribes.
//!
//! This module is geometry only: it enumerates the tiles and their slabs
//! ([`for_each_tile`], [`tile_slab`]) and builds the exact tile dependency
//! graph ([`tile_graph`]): tile B precedes tile A iff some slab of B at step
//! `va - 1` intersects the `radius`-dilated footprint of A's slab at step
//! `va`. [`crate::TilePlan::wavefront`] snapshots both into a plan and
//! [`crate::execute_plan`] runs it. The enumeration order — time tiles
//! outermost, spatial tiles in lexicographic `(xt, yt)` order, virtual time
//! ascending inside a tile — is one topological order of that graph; its
//! legality for any `skew ≥ radius` and circular buffers of ≥ 2 levels is
//! established by [`crate::legality`] and by bitwise-equivalence tests
//! against the spatially blocked schedule in `tempest-core`.

use std::collections::HashMap;

use tempest_grid::{Range3, Shape};

/// Parameters of the wave-front temporally blocked schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavefrontSpec {
    /// Spatial tile extent along x.
    pub tile_x: usize,
    /// Spatial tile extent along y.
    pub tile_y: usize,
    /// Temporal tile height, in virtual steps.
    pub tile_t: usize,
    /// Wave-front skew per virtual step (≥ max dependency radius).
    pub skew: usize,
    /// Intra-slab block extent along x.
    pub block_x: usize,
    /// Intra-slab block extent along y.
    pub block_y: usize,
}

impl WavefrontSpec {
    /// Create a spec; all extents must be non-zero (skew may be zero only
    /// for radius-0 pointwise updates).
    pub fn new(
        tile_x: usize,
        tile_y: usize,
        tile_t: usize,
        skew: usize,
        block_x: usize,
        block_y: usize,
    ) -> Self {
        assert!(
            tile_x > 0 && tile_y > 0 && tile_t > 0 && block_x > 0 && block_y > 0,
            "tile/block extents must be non-zero"
        );
        WavefrontSpec {
            tile_x,
            tile_y,
            tile_t,
            skew,
            block_x,
            block_y,
        }
    }

    /// Pure time-skewing (Wonnacott-style): a single spatial tile covering
    /// the whole skewed domain, so only the wave-front angle reorders the
    /// iteration space. Useful as an ablation against proper tiling.
    pub fn skewed_only(
        shape: Shape,
        tile_t: usize,
        skew: usize,
        block_x: usize,
        block_y: usize,
    ) -> Self {
        let tile_x = shape.nx + (tile_t.saturating_sub(1)) * skew;
        let tile_y = shape.ny + (tile_t.saturating_sub(1)) * skew;
        WavefrontSpec::new(tile_x.max(1), tile_y.max(1), tile_t, skew, block_x, block_y)
    }

    /// Number of spatial tiles along x needed to cover the skewed domain.
    pub fn tiles_x(&self, nx: usize) -> usize {
        (nx + (self.tile_t - 1) * self.skew).div_ceil(self.tile_x)
    }

    /// Number of spatial tiles along y needed to cover the skewed domain.
    pub fn tiles_y(&self, ny: usize) -> usize {
        (ny + (self.tile_t - 1) * self.skew).div_ceil(self.tile_y)
    }
}

/// One wave-front slab: the cross-section of a space-time tile at a single
/// virtual step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slab {
    /// Virtual timestep this slab advances.
    pub vt: usize,
    /// The grid region (full z).
    pub range: Range3,
}

/// One space-time parallelogram tile: spatial tile indices plus the time
/// tile's virtual-step range `[t0, t1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Spatial tile index along x.
    pub xt: usize,
    /// Spatial tile index along y.
    pub yt: usize,
    /// First virtual step of the owning time tile (inclusive).
    pub t0: usize,
    /// Last virtual step of the owning time tile (exclusive).
    pub t1: usize,
}

impl Tile {
    /// The anti-diagonal index `xt + yt` — tiles sharing it are
    /// dependency-disjoint under `skew ≥ radius` (the graph leaves them
    /// unordered), so traces group load balance by it.
    pub fn diagonal(&self) -> usize {
        self.xt + self.yt
    }
}

/// The slab of `tile` at virtual step `vt` — its spatial cross-section
/// shifted back by `skew` per step and clamped to the grid. `None` when the
/// clamp leaves nothing (boundary tiles at late steps).
pub fn tile_slab(shape: Shape, spec: &WavefrontSpec, tile: &Tile, vt: usize) -> Option<Slab> {
    debug_assert!((tile.t0..tile.t1).contains(&vt));
    let off = ((vt - tile.t0) * spec.skew) as isize;
    let xs = (tile.xt * spec.tile_x) as isize - off;
    let ys = (tile.yt * spec.tile_y) as isize - off;
    let x0 = xs.max(0) as usize;
    let x1 = ((xs + spec.tile_x as isize).max(0) as usize).min(shape.nx);
    let y0 = ys.max(0) as usize;
    let y1 = ((ys + spec.tile_y as isize).max(0) as usize).min(shape.ny);
    (x0 < x1 && y0 < y1).then(|| Slab {
        vt,
        range: Range3::new((x0, x1), (y0, y1), (0, shape.nz)),
    })
}

/// True when the tile contributes at least one non-empty slab. Boundary
/// tiles exist only to cover the *skewed* index space, so near domain edges
/// a tile can be fully clipped at every step of its row — especially in the
/// last time row, whose smaller height accumulates less skew. Running such
/// a tile is pure overhead (a zero-work span in traces).
pub fn tile_has_work(shape: Shape, spec: &WavefrontSpec, tile: &Tile) -> bool {
    (tile.t0..tile.t1).any(|vt| tile_slab(shape, spec, tile, vt).is_some())
}

/// Spatial tile counts needed for one time row of height `h` virtual steps.
/// A row shorter than `tile_t` (the clipped last row) accumulates only
/// `(h - 1) * skew` of shift, so the global [`WavefrontSpec::tiles_x`]
/// bound over-covers it: every tile with `xt * tile_x ≥ nx + (h - 1) * skew`
/// starts past the grid at every step of the row and can be dropped before
/// enumeration (likewise along y).
fn row_tiles(shape: Shape, spec: &WavefrontSpec, h: usize) -> (usize, usize) {
    let ntx = (shape.nx + (h - 1) * spec.skew).div_ceil(spec.tile_x);
    let nty = (shape.ny + (h - 1) * spec.skew).div_ceil(spec.tile_y);
    (ntx, nty)
}

/// Visit every space-time tile with work in the sequential execution order:
/// time tiles outermost, spatial tiles in lexicographic `(xt, yt)` order.
/// Fully-clipped boundary tiles (see [`tile_has_work`]) are skipped.
pub fn for_each_tile<F>(shape: Shape, nvt: usize, spec: &WavefrontSpec, mut f: F)
where
    F: FnMut(&Tile),
{
    let mut t0 = 0usize;
    while t0 < nvt {
        let t1 = (t0 + spec.tile_t).min(nvt);
        let (ntx, nty) = row_tiles(shape, spec, t1 - t0);
        for xt in 0..ntx {
            for yt in 0..nty {
                let tile = Tile { xt, yt, t0, t1 };
                if tile_has_work(shape, spec, &tile) {
                    f(&tile);
                }
            }
        }
        t0 = t1;
    }
}

/// Visit every slab in the exact sequential execution order.
pub fn for_each_slab<F>(shape: Shape, nvt: usize, spec: &WavefrontSpec, mut f: F)
where
    F: FnMut(Slab),
{
    for_each_tile(shape, nvt, spec, |tile| {
        for vt in tile.t0..tile.t1 {
            if let Some(slab) = tile_slab(shape, spec, tile, vt) {
                f(slab);
            }
        }
    });
}

/// Collect the full slab sequence (checker and test helper).
pub fn slabs(shape: Shape, nvt: usize, spec: &WavefrontSpec) -> Vec<Slab> {
    let mut out = Vec::new();
    for_each_slab(shape, nvt, spec, |s| out.push(s));
    out
}

/// xy-plane overlap of two ranges (z is never tiled).
pub(crate) fn xy_overlap(a: &Range3, b: &Range3) -> bool {
    a.x0 < b.x1 && b.x0 < a.x1 && a.y0 < b.y1 && b.y0 < a.y1
}

/// `r` grown by the stencil radius in x and y, clamped to the grid: the
/// footprint a slab *reads* at the previous virtual step.
pub(crate) fn dilate_xy(r: &Range3, radius: usize, shape: Shape) -> Range3 {
    Range3::new(
        (r.x0.saturating_sub(radius), (r.x1 + radius).min(shape.nx)),
        (r.y0.saturating_sub(radius), (r.y1 + radius).min(shape.ny)),
        (0, shape.nz),
    )
}

/// Candidate spatial tile indices along one axis whose *unclamped* slab
/// interval `[xt·tile - off, xt·tile - off + tile)` intersects `[lo, hi)`.
/// Clamping only shrinks a slab, so this is a superset of the true overlap
/// set; callers verify each candidate against the clamped slab.
fn candidate_tiles(
    lo: usize,
    hi: usize,
    tile: usize,
    off: usize,
    ntiles: usize,
) -> std::ops::Range<usize> {
    let (tile_i, off_i) = (tile as isize, off as isize);
    // xt·tile - off < hi  ⇔  xt ≤ floor((hi + off - 1) / tile)
    let max_incl = (hi as isize + off_i - 1).div_euclid(tile_i);
    // xt·tile - off + tile > lo  ⇔  xt ≥ floor((lo + off - tile) / tile) + 1
    let min = (lo as isize + off_i - tile_i).div_euclid(tile_i) + 1;
    let start = min.max(0) as usize;
    let end = ((max_incl + 1).max(0) as usize).min(ntiles);
    start..end.max(start)
}

/// Build the tile dependency graph of a wave-front sweep.
///
/// Nodes are every tile with work across *all* time rows of the sweep, in
/// [`for_each_tile`] order; `preds[i]` lists the nodes tile `i` truly
/// depends on. The dependency rule is the stencil's flow dependence: tile B
/// precedes tile A iff for some virtual step `va` of A (with `va ≥ 1`),
/// B's slab at `va - 1` intersects the `radius`-dilated footprint of A's
/// slab at `va` — i.e. B writes values A reads. Within a time row that
/// yields the ≤ 3 upper-left neighbours (for `skew ≥ radius` a tile's read
/// halo never reaches a *larger* `(xt, yt)` — the same geometry that makes
/// anti-diagonals independent); across consecutive rows it links each tile
/// to the previous-row tiles under its first slab. Anti-dependencies
/// (ring-buffer overwrites) need no edges of their own: they are implied
/// transitively by chains of flow edges, which
/// [`crate::legality::check_plan`] machine-checks per plan. Requires `skew ≥ radius`, like every wavefront schedule here —
/// smaller skews make opposing same-row reads (a dependency cycle).
pub fn tile_graph(
    shape: Shape,
    nvt: usize,
    spec: &WavefrontSpec,
    radius: usize,
) -> (Vec<Tile>, Vec<Vec<u32>>) {
    let mut tiles = Vec::new();
    for_each_tile(shape, nvt, spec, |t| tiles.push(*t));
    // Per-row index: row start t0 -> ((xt, yt) -> node id).
    let mut rows: Vec<(usize, usize)> = Vec::new();
    let mut row_maps: Vec<HashMap<(usize, usize), u32>> = Vec::new();
    for (i, t) in tiles.iter().enumerate() {
        if rows.last().map(|r| r.0) != Some(t.t0) {
            rows.push((t.t0, t.t1));
            row_maps.push(HashMap::new());
        }
        row_maps.last_mut().unwrap().insert((t.xt, t.yt), i as u32);
    }
    let row_of = |t0: usize| rows.iter().position(|r| r.0 == t0).unwrap();

    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); tiles.len()];
    for (ia, a) in tiles.iter().enumerate() {
        let arow = row_of(a.t0);
        for va in a.t0.max(1)..a.t1 {
            let Some(sa) = tile_slab(shape, spec, a, va) else {
                continue;
            };
            let halo = dilate_xy(&sa.range, radius, shape);
            // The writers of step va - 1 live in A's own row, except at A's
            // first step where they live in the previous row.
            let wrow = if va > a.t0 { arow } else { arow - 1 };
            let (wt0, wt1) = rows[wrow];
            let vb = va - 1;
            debug_assert!((wt0..wt1).contains(&vb));
            let off = (vb - wt0) * spec.skew;
            let (ntx, nty) = row_tiles(shape, spec, wt1 - wt0);
            for xt in candidate_tiles(halo.x0, halo.x1, spec.tile_x, off, ntx) {
                for yt in candidate_tiles(halo.y0, halo.y1, spec.tile_y, off, nty) {
                    let Some(&ib) = row_maps[wrow].get(&(xt, yt)) else {
                        continue;
                    };
                    if ib as usize == ia {
                        continue;
                    }
                    let b = &tiles[ib as usize];
                    if tile_slab(shape, spec, b, vb).is_some_and(|sb| xy_overlap(&sb.range, &halo))
                    {
                        preds[ia].push(ib);
                    }
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

    fn coverage_exact(shape: Shape, nvt: usize, spec: &WavefrontSpec) {
        // counts[vt][x][y] over a flattened Array3 (vt, x, y)
        let mut counts = Array3::<u32>::zeros(nvt.max(1), shape.nx, shape.ny);
        for_each_slab(shape, nvt, spec, |s| {
            for x in s.range.x0..s.range.x1 {
                for y in s.range.y0..s.range.y1 {
                    let v = counts.get(s.vt, x, y) + 1;
                    counts.set(s.vt, x, y, v);
                }
            }
        });
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
            WavefrontSpec::new(8, 8, 4, 2, 4, 4),
            WavefrontSpec::new(8, 8, 4, 2, 3, 5),
            WavefrontSpec::new(16, 8, 8, 1, 8, 8),
            WavefrontSpec::new(5, 7, 3, 4, 2, 2),
            WavefrontSpec::new(32, 32, 6, 6, 8, 8), // tiles larger than grid
        ] {
            coverage_exact(shape, 11, &spec);
        }
    }

    #[test]
    fn tile_t_one_degenerates_to_space_blocking() {
        let shape = Shape::new(12, 12, 3);
        let spec = WavefrontSpec::new(4, 4, 1, 3, 4, 4);
        let mut per_vt = vec![0usize; 5];
        for_each_slab(shape, 5, &spec, |s| {
            per_vt[s.vt] += s.range.len();
            // No skew can apply with tile height 1.
            assert_eq!(s.range.x1 - s.range.x0, 4);
        });
        for v in per_vt {
            assert_eq!(v, shape.len());
        }
    }

    #[test]
    fn virtual_time_never_decreases_within_a_tile_and_tiles_ordered() {
        let shape = Shape::new(16, 16, 2);
        let spec = WavefrontSpec::new(8, 8, 4, 2, 4, 4);
        let s = slabs(shape, 8, &spec);
        // Time tiles are contiguous in the sequence: all vt<4 slabs appear
        // before any vt>=4 slab.
        let first_second_tile = s.iter().position(|sl| sl.vt >= 4).unwrap();
        assert!(s[first_second_tile..].iter().all(|sl| sl.vt >= 4));
        assert!(s[..first_second_tile].iter().all(|sl| sl.vt < 4));
    }

    #[test]
    fn slabs_shift_left_with_virtual_time() {
        let shape = Shape::new(64, 64, 2);
        let spec = WavefrontSpec::new(16, 16, 4, 3, 8, 8);
        let s = slabs(shape, 4, &spec);
        // Find an interior tile's slabs (xt=1, yt=1): x starts 16,13,10,7.
        let xs: Vec<usize> = s
            .iter()
            .filter(|sl| sl.range.y0 > 0 && sl.range.x0 > 0 && sl.range.x1 - sl.range.x0 == 16)
            .take(4)
            .map(|sl| sl.range.x0)
            .collect();
        assert!(
            xs.windows(2).all(|w| w[1] + 3 == w[0] || w[1] >= w[0]),
            "interior slabs shift left by skew: {xs:?}"
        );
    }

    #[test]
    fn skewed_only_uses_one_spatial_tile() {
        let shape = Shape::new(20, 16, 4);
        let spec = WavefrontSpec::skewed_only(shape, 4, 2, 8, 8);
        assert_eq!(spec.tiles_x(shape.nx), 1);
        assert_eq!(spec.tiles_y(shape.ny), 1);
        coverage_exact(shape, 8, &spec);
    }

    #[test]
    fn tiles_x_covers_skewed_extent() {
        let spec = WavefrontSpec::new(16, 16, 8, 4, 8, 8);
        // Needs to cover nx + 7*4 = nx+28 points worth of start offsets.
        assert_eq!(spec.tiles_x(64), (64 + 28usize).div_ceil(16));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_tile() {
        let _ = WavefrontSpec::new(0, 8, 4, 2, 4, 4);
    }

    #[test]
    fn tiles_enumerate_all_slabs() {
        // for_each_slab is now derived from for_each_tile + tile_slab;
        // check the tile enumeration visits each (time tile, xt, yt) once.
        let shape = Shape::new(23, 17, 4);
        let spec = WavefrontSpec::new(8, 8, 4, 2, 4, 4);
        let nvt = 11;
        let mut tiles = Vec::new();
        for_each_tile(shape, nvt, &spec, |t| tiles.push(*t));
        let ntx = spec.tiles_x(shape.nx);
        let nty = spec.tiles_y(shape.ny);
        let time_tiles = nvt.div_ceil(spec.tile_t);
        assert_eq!(tiles.len(), ntx * nty * time_tiles);
        let mut uniq = tiles.clone();
        uniq.sort_by_key(|t| (t.t0, t.xt, t.yt));
        uniq.dedup();
        assert_eq!(uniq.len(), tiles.len());
        // Last time tile is clipped to nvt.
        assert!(tiles.iter().all(|t| t.t1 <= nvt && t.t0 < t.t1));
    }

    #[test]
    fn fully_clipped_tiles_are_skipped() {
        // tile_x = 5 with skew = 4 on a 23-wide grid: the global bound needs
        // 7 tiles along x, but the clipped last time row [9, 11) shifts by at
        // most one skew, so tile xt = 6 (starting at x = 30) never reaches
        // the grid there.
        let shape = Shape::new(23, 17, 4);
        let spec = WavefrontSpec::new(5, 7, 3, 4, 2, 2);
        let nvt = 11;
        let mut emitted = Vec::new();
        for_each_tile(shape, nvt, &spec, |t| emitted.push(*t));
        assert!(emitted.iter().all(|t| tile_has_work(shape, &spec, t)));
        // Brute-force over the global (unfiltered) bounds: the emitted set
        // must be exactly the tiles with work.
        let ntx = spec.tiles_x(shape.nx);
        let nty = spec.tiles_y(shape.ny);
        let mut expect = Vec::new();
        let mut skipped = 0usize;
        let mut t0 = 0usize;
        while t0 < nvt {
            let t1 = (t0 + spec.tile_t).min(nvt);
            for xt in 0..ntx {
                for yt in 0..nty {
                    let tile = Tile { xt, yt, t0, t1 };
                    if tile_has_work(shape, &spec, &tile) {
                        expect.push(tile);
                    } else {
                        skipped += 1;
                    }
                }
            }
            t0 = t1;
        }
        assert_eq!(emitted, expect);
        assert!(skipped > 0, "spec was chosen to produce clipped tiles");
        // Skipping empty tiles must not change the covered slabs.
        coverage_exact(shape, nvt, &spec);
    }

    #[test]
    fn tile_graph_edges_point_backward_in_sequential_order() {
        let shape = Shape::new(23, 17, 4);
        for (spec, radius) in [
            (WavefrontSpec::new(8, 8, 4, 2, 4, 4), 2),
            (WavefrontSpec::new(5, 7, 3, 4, 2, 2), 3),
            (WavefrontSpec::new(8, 8, 1, 3, 4, 4), 3), // tile_t = 1
        ] {
            let (tiles, preds) = tile_graph(shape, 11, &spec, radius);
            let mut expect = Vec::new();
            for_each_tile(shape, 11, &spec, |t| expect.push(*t));
            assert_eq!(tiles, expect);
            for (ia, ps) in preds.iter().enumerate() {
                for &ib in ps {
                    // Sequential (lexicographic) order is one valid
                    // topological order, so every edge points backward —
                    // the graph is acyclic by construction.
                    assert!((ib as usize) < ia, "edge {ib} -> {ia} not backward");
                    let (a, b) = (&tiles[ia], &tiles[ib as usize]);
                    if a.t0 == b.t0 {
                        // Intra-row flow deps come only from upper-left
                        // neighbours under skew >= radius.
                        assert!(b.xt <= a.xt && b.yt <= a.yt);
                    }
                }
            }
            // Every tile beyond the first row depends on something.
            let first_t0 = tiles[0].t0;
            for (ia, t) in tiles.iter().enumerate() {
                if t.t0 != first_t0 {
                    assert!(!preds[ia].is_empty(), "row t0={} tile has no preds", t.t0);
                }
            }
        }
    }
}
