//! Shared wavefield storage for parallel block updates, the per-worker row
//! scratch of the step bodies that update it, and the sponge they read.
//!
//! A stencil sweep updates disjoint `(x, y)` blocks of one time level in
//! parallel while *reading* other time levels. Rust's `&mut` aliasing rules
//! cannot express "disjoint interior writes plus shared reads of different
//! ring slots" through safe references, so [`LevelRing`] owns the raw
//! volumes and hands out raw-slice views under a documented safety
//! contract. The schedule engine (`tempest-tiling`) guarantees the contract:
//! its legality is machine-checked (`tempest_tiling::legality`) and the
//! propagators are additionally validated bit-for-bit against purely
//! sequential references.

use std::cell::{RefCell, UnsafeCell};
use tempest_grid::boundary::sponge_profile;
use tempest_grid::{Array3, Range3, Shape};
use tempest_obs as obs;
use tempest_stencil::Backend;

thread_local! {
    /// The calling worker's step scratch (see [`with_scratch`]).
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Lend `len` values of the calling worker's row scratch to one step call:
/// the acoustic step body's rows and the TTI body's `D_y` row cache and `D_x`
/// rows live here (the elastic bodies fuse their derivatives and read no
/// scratch). Grown on first use and reused by every later call on the
/// thread, so its contents on entry are whatever the last call left: a step
/// body must write every value before it reads it, and carries nothing from
/// one call to the next.
pub(crate) fn with_scratch<T>(len: usize, body: impl FnOnce(&mut [f32]) -> T) -> T {
    SCRATCH.with_borrow_mut(|scratch| {
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        body(&mut scratch[..len])
    })
}

/// Count one step call over `region`: an update per grid point (a coupled
/// field pair counts once; each staggered phase is its own virtual step), and
/// — on the vector backends only — a row per pencil.
pub(crate) fn count_step(region: &Range3, backend: Backend) {
    obs::add(obs::Counter::StencilUpdates, region.len() as u64);
    if backend != Backend::Scalar {
        let rows = (region.x1 - region.x0) * (region.y1 - region.y0);
        obs::add(obs::Counter::PencilRows, rows as u64);
    }
}

/// Stencil weights as a fixed-size array, so the const-radius row kernels
/// unroll. Panics unless `R` is the radius the weights were built for.
pub(crate) fn weights<const R: usize>(w: &[f32]) -> [f32; R] {
    w.try_into().expect("radius mismatch")
}

/// The absorbing sponge of one grid as the `z` profiles the step bodies
/// read in place of per-point damping volumes.
///
/// `η` depends on a point only through `d = min(dx, dy, dz)`, its distance
/// to the nearest face: `tempest_grid::boundary::sponge_profile`, indexed by
/// `min(d, nbl)`. Along a pencil `(x, y)` that index is `min(m, dz)` with
/// `m = min(dx, dy, nbl)` fixed, so all pencils of one `m` share one `z`
/// profile. `nbl + 1` profiles per coefficient, a few kilobytes, stand in
/// for a grid-sized volume, and every pencil at least `nbl` from the `x`
/// and `y` faces reads the same one.
pub(crate) struct Sponge {
    shape: Shape,
    nbl: usize,
    /// Leap-frog `2/(1+η)`, profile `m` at `m·nz`.
    c1: Vec<f32>,
    /// Leap-frog `(1−η)/(1+η)`, laid out as `c1`.
    c2: Vec<f32>,
    /// Elastic `1−η`, laid out as `c1`.
    fd: Vec<f32>,
    /// `1/(1+η)`, laid out as `c1`.
    inv: Vec<f32>,
}

impl Sponge {
    /// The sponge of `nbl` points of strength `coeff` on every face of `shape`.
    pub fn new(shape: Shape, nbl: usize, coeff: f32) -> Self {
        let eta = sponge_profile(nbl, coeff);
        let nz = shape.nz;
        let profiles = |f: &dyn Fn(f32) -> f32| -> Vec<f32> {
            let table: Vec<f32> = eta.iter().map(|&e| f(e)).collect();
            (0..=nbl)
                .flat_map(|m| (0..nz).map(move |z| m.min(z).min(nz - 1 - z)))
                .map(|d| table[d])
                .collect()
        };
        let inv = |e: f32| 1.0 / (1.0 + e);
        Sponge {
            shape,
            nbl,
            c1: profiles(&|e| 2.0 * inv(e)),
            c2: profiles(&|e| (1.0 - e) * inv(e)),
            fd: profiles(&|e| 1.0 - e),
            inv: profiles(&inv),
        }
    }

    /// The `z` profile of pencil `(x, y)` in `profiles`.
    #[inline]
    fn along<'a>(&self, profiles: &'a [f32], x: usize, y: usize) -> &'a [f32] {
        let Shape { nx, ny, nz } = self.shape;
        let m = x.min(nx - 1 - x).min(y).min(ny - 1 - y).min(self.nbl);
        &profiles[m * nz..(m + 1) * nz]
    }

    /// Leap-frog `2/(1+η)` along pencil `(x, y)`.
    #[inline]
    pub fn c1(&self, x: usize, y: usize) -> &[f32] {
        self.along(&self.c1, x, y)
    }

    /// Leap-frog `(1−η)/(1+η)` along pencil `(x, y)`.
    #[inline]
    pub fn c2(&self, x: usize, y: usize) -> &[f32] {
        self.along(&self.c2, x, y)
    }

    /// Elastic `1−η` along pencil `(x, y)`.
    #[inline]
    pub fn fd(&self, x: usize, y: usize) -> &[f32] {
        self.along(&self.fd, x, y)
    }

    /// Every leap-frog profile, `[c1, c2]`: what decides the damping of a
    /// leap-frog update, for [`WaveSolver::coefficients`](crate::WaveSolver::coefficients).
    pub fn leapfrog_profiles(&self) -> [&[f32]; 2] {
        [&self.c1, &self.c2]
    }

    /// Every elastic `1−η` profile, as [`leapfrog_profiles`](Self::leapfrog_profiles).
    pub fn elastic_profiles(&self) -> &[f32] {
        &self.fd
    }

    /// The leap-frog source/Laplacian coefficient `dt²/(m·(1+η))` per point
    /// of the squared-slowness volume `m`.
    pub fn c3(&self, m: &Array3<f32>, dt: f32) -> Array3<f32> {
        let dt2 = dt * dt;
        let mut c3 = Array3::from_shape(self.shape);
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                let (mp, inv) = (m.pencil(x, y), self.along(&self.inv, x, y));
                for ((o, &m), &inv) in c3.pencil_mut(x, y).iter_mut().zip(mp).zip(inv) {
                    *o = dt2 / m * inv;
                }
            }
        }
        c3
    }
}

/// A circular ring of padded f32 volumes over the time dimension, with
/// unchecked shared mutation.
///
/// The core propagators update their oldest level in place: a leap-frog
/// ring keeps two levels and writes `u⁺` over `u⁻`, a first-order field
/// keeps one and writes `v[t+1]` over `v[t]`. Each reads the value it
/// replaces at the point it writes and nowhere else, so the slot a step
/// writes doubles as its oldest input.
///
/// # Safety contract
///
/// For any two concurrently executing region updates at the same virtual
/// step, callers must guarantee:
/// * writes go only to the level slot of the step being computed, and only
///   to the caller's own disjoint `(x, y)` region;
/// * the write slot is read only through the writer's own pencils
///   ([`pencil_mut`](Self::pencil_mut)): the old value a point holds is
///   read at that point, by the call that overwrites it;
/// * shared views ([`level`](Self::level)) target *other* slots, which hold
///   settled values wherever the region's stencils reach.
///
/// These are exactly the guarantees a legal schedule provides: every other
/// reader of the slot's old value is a flow predecessor of the overwrite
/// (paper Fig. 7), as `tempest_tiling::legality::check_plan` certifies.
pub struct LevelRing {
    levels: Vec<UnsafeCell<Box<[f32]>>>,
    shape: Shape,
    halo: usize,
    pdims: [usize; 3],
    /// Left padding of the `z` axis: `halo` for plain rings, rounded up to a
    /// lane multiple for lane-aligned rings (see [`new_lane_aligned`](Self::new_lane_aligned)).
    z0: usize,
}

// SAFETY: all mutation goes through raw pointers under the documented
// disjointness contract; the container itself is freely shareable.
unsafe impl Sync for LevelRing {}
unsafe impl Send for LevelRing {}

impl LevelRing {
    /// Allocate `num_levels` zeroed volumes of `shape` interior plus a halo
    /// of `halo` points on every side.
    pub fn new(shape: Shape, halo: usize, num_levels: usize) -> Self {
        let pnz = shape.nz + 2 * halo;
        Self::alloc(shape, halo, num_levels, halo, pnz)
    }

    /// Like [`new`](Self::new), but with the `z` axis padded so every
    /// interior pencil base (`idx(x, y, 0)`) is a multiple of `lane`:
    /// the left `z` padding is `halo` rounded up to a lane multiple, and the
    /// physical row length is itself a lane multiple. Strides change, values
    /// and visible layout semantics do not — the interior and halo reads of
    /// every stencil stay in bounds exactly as for a plain ring.
    pub fn new_lane_aligned(shape: Shape, halo: usize, num_levels: usize, lane: usize) -> Self {
        assert!(lane > 0, "lane width must be non-zero");
        let z0 = halo.next_multiple_of(lane);
        let pnz = (z0 + shape.nz + halo).next_multiple_of(lane);
        Self::alloc(shape, halo, num_levels, z0, pnz)
    }

    fn alloc(shape: Shape, halo: usize, num_levels: usize, z0: usize, pnz: usize) -> Self {
        assert!(num_levels >= 1, "a time ring needs at least one level");
        debug_assert!(z0 >= halo && pnz >= z0 + shape.nz + halo);
        let p = shape.padded(halo);
        let pdims = [p.nx, p.ny, pnz];
        let n = pdims[0] * pdims[1] * pdims[2];
        LevelRing {
            levels: (0..num_levels)
                .map(|_| UnsafeCell::new(vec![0.0f32; n].into_boxed_slice()))
                .collect(),
            shape,
            halo,
            pdims,
            z0,
        }
    }

    /// Interior shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Halo width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Number of ring slots.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Ring slot of logical step `t`.
    #[inline]
    pub fn slot(&self, t: usize) -> usize {
        t % self.levels.len()
    }

    /// Raw stride of the padded x axis.
    #[inline]
    pub fn sx(&self) -> usize {
        self.pdims[1] * self.pdims[2]
    }

    /// Raw stride of the padded y axis.
    #[inline]
    pub fn sy(&self) -> usize {
        self.pdims[2]
    }

    /// Raw linear index of interior point `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        ((x + self.halo) * self.pdims[1] + (y + self.halo)) * self.pdims[2] + (z + self.z0)
    }

    /// Shared view of the level holding step `t`.
    ///
    /// # Safety
    /// No concurrent write to this slot may overlap the read, and a step
    /// never takes this view of the slot it writes (see the type-level
    /// contract).
    #[inline]
    pub unsafe fn level(&self, t: usize) -> &[f32] {
        &*self.levels[self.slot(t)].get()
    }

    /// Mutable view of the interior z pencil `(x, y, 0..nz)` of step `t`.
    ///
    /// # Safety
    /// The caller must hold exclusive logical ownership of this `(x, y)`
    /// pencil at this step (disjoint-region contract). The pencil holds the
    /// slot's old level until the caller overwrites it.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn pencil_mut(&self, t: usize, x: usize, y: usize) -> &mut [f32] {
        let base = self.idx(x, y, 0);
        let ptr = (*self.levels[self.slot(t)].get()).as_mut_ptr();
        std::slice::from_raw_parts_mut(ptr.add(base), self.shape.nz)
    }

    /// Copy the interior of step `t` into an unpadded array (tests,
    /// snapshots). Takes `&mut self`: requires quiescence.
    pub fn interior_copy(&mut self, t: usize) -> Array3<f32> {
        let mut out = Array3::from_shape(self.shape);
        // SAFETY: &mut self means no concurrent access.
        let lvl = unsafe { self.level(t) };
        for x in 0..self.shape.nx {
            for y in 0..self.shape.ny {
                let base = self.idx(x, y, 0);
                out.pencil_mut(x, y)
                    .copy_from_slice(&lvl[base..base + self.shape.nz]);
            }
        }
        out
    }

    /// Zero every level (run-to-run reset).
    pub fn clear(&mut self) {
        for l in &mut self.levels {
            l.get_mut().fill(0.0);
        }
    }

    /// Interior max |value| of step `t` (requires quiescence).
    pub fn interior_max_abs(&mut self, t: usize) -> f32 {
        self.interior_copy(t).max_abs()
    }

    /// Snapshot every ring level (padded, bitwise) while quiescent.
    ///
    /// Together with the logical step at which it was taken, the checkpoint
    /// is everything the leap-frog recursion needs: [`restore`](Self::restore)
    /// followed by re-running the remaining steps reproduces an uninterrupted
    /// run bit-for-bit (the restart path of checkpointed RTM, where forward
    /// state is re-materialised instead of stored per step).
    pub fn checkpoint(&mut self) -> RingCheckpoint {
        RingCheckpoint {
            levels: self
                .levels
                .iter_mut()
                .map(|l| l.get_mut().clone())
                .collect(),
        }
    }

    /// Restore a [`checkpoint`](Self::checkpoint) taken on a ring of the
    /// same geometry. Panics on level-count or volume-size mismatch.
    pub fn restore(&mut self, cp: &RingCheckpoint) {
        assert_eq!(
            cp.levels.len(),
            self.levels.len(),
            "checkpoint level count mismatch"
        );
        for (dst, src) in self.levels.iter_mut().zip(&cp.levels) {
            let dst = dst.get_mut();
            assert_eq!(dst.len(), src.len(), "checkpoint volume size mismatch");
            dst.copy_from_slice(src);
        }
    }
}

/// A bitwise snapshot of every level of a [`LevelRing`], taken between
/// sweeps. Opaque: only meaningful to [`LevelRing::restore`] on a ring of
/// identical geometry.
#[derive(Clone)]
pub struct RingCheckpoint {
    levels: Vec<Box<[f32]>>,
}

impl RingCheckpoint {
    /// Total f32 payload (all levels), for storage accounting.
    pub fn num_values(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::operator::{KernelPath, SparseMode, WaveSolver};

    /// Acoustic, TTI and elastic at SO 8 on one damped 20³ grid, with a
    /// source and a receiver line.
    fn solvers() -> Vec<Box<dyn WaveSolver>> {
        use crate::config::{EquationKind, SimConfig};
        use crate::{Acoustic, Elastic, Tti};
        use tempest_grid::{Domain, ElasticModel, Model, TtiModel};
        use tempest_sparse::SparsePoints;

        let d = Domain::uniform(Shape::cube(20), 20.0);
        let cfg = |kind, vmax| {
            SimConfig::new(d, 8, kind, vmax, 80.0)
                .with_nt(6)
                .with_f0(15.0)
                .with_boundary(4, 0.3)
        };
        let (src, rec) = (
            SparsePoints::single_center(&d, 0.4),
            SparsePoints::receiver_line(&d, 4, 0.2),
        );
        let tti = TtiModel::homogeneous(d, 2000.0, 0.2, 0.1, 0.35, 0.3);
        vec![
            Box::new(Acoustic::new(
                &Model::homogeneous(d, 2000.0),
                cfg(EquationKind::Acoustic, 2000.0),
                src.clone(),
                Some(rec.clone()),
            )),
            Box::new(Tti::new(
                &tti,
                cfg(EquationKind::Tti, tti.vmax()),
                src.clone(),
                Some(rec.clone()),
            )),
            Box::new(Elastic::new(
                &ElasticModel::homogeneous(d, 3000.0, 1400.0, 2200.0),
                cfg(EquationKind::Elastic, 3000.0),
                src,
                Some(rec),
            )),
        ]
    }

    #[test]
    fn a_step_reads_its_write_slot_only_where_it_writes() {
        // Every propagator writes the slot of its oldest level in place. Run
        // to `vt` on this thread, then step `vt` over a ragged region twice:
        // once as is, once with the write slot outside the region filled
        // with NaN. A step that read its write slot anywhere but at the
        // points it overwrites — a stencil on the old level, a pencil of a
        // neighbour — would carry the NaN into the region; a step that wrote
        // outside its region would overwrite it.
        let region = Range3::new((3, 14), (5, 13), (2, 17));
        let poison = f32::from_bits(0x7fc0_5a5a);
        let step = |s: &dyn WaveSolver, vt: usize, r: &Range3| {
            s.step_region(vt, r, SparseMode::FusedCompressed, KernelPath::default())
        };
        // The write slot's interior after `vt` ran over `region`.
        let run = |s: &mut Box<dyn WaveSolver>, vt: usize, poisoned: bool| -> Vec<Vec<u32>> {
            s.reset();
            let full = s.shape().full_range();
            (0..vt).for_each(|v| step(&**s, v, &full));
            let shape = s.shape();
            let outside = || shape.iter().filter(|&(x, y, z)| !region.contains(x, y, z));
            if poisoned {
                for (ring, level) in s.written(vt) {
                    for (x, y, z) in outside() {
                        // SAFETY: nothing else touches the rings here.
                        unsafe { ring.pencil_mut(level, x, y)[z] = poison };
                    }
                }
            }
            step(&**s, vt, &region);
            let written = s.written(vt).into_iter();
            let bits = written.map(|(ring, level)| {
                let pencils = shape.iter().map(|(x, y, z)| {
                    // SAFETY: as above.
                    unsafe { ring.pencil_mut(level, x, y)[z].to_bits() }
                });
                pencils.collect()
            });
            bits.collect()
        };
        for mut s in solvers() {
            // Every phase, a few steps in, where the wave has reached the
            // region.
            for vt in 4 * s.phases()..5 * s.phases() {
                let clean = run(&mut s, vt, false);
                let poisoned = run(&mut s, vt, true);
                let shape = s.shape();
                let mut busy = 0;
                for (field, (clean, poisoned)) in clean.iter().zip(&poisoned).enumerate() {
                    for (i, (x, y, z)) in shape.iter().enumerate() {
                        let what = format!("{} vt {vt} field {field} ({x}, {y}, {z})", s.name());
                        if region.contains(x, y, z) {
                            assert_eq!(poisoned[i], clean[i], "{what}: read the poison");
                            busy += (clean[i] << 1 != 0) as usize;
                        } else {
                            assert_eq!(poisoned[i], poison.to_bits(), "{what}: wrote outside");
                        }
                    }
                }
                assert!(busy > 0, "{} vt {vt}: the region holds no wave", s.name());
            }
        }
    }

    #[test]
    fn nothing_is_carried_in_the_scratch_between_step_calls() {
        // The same run stepped block by block on this thread, once with the
        // worker scratch filled with NaN before every call: any value a call
        // read without writing it first would poison the field. The ragged
        // 5x3 blocks make consecutive calls lay the scratch out differently.
        for s in &mut solvers() {
            let mut run = |poison: bool| {
                s.reset();
                let blocks = s.shape().full_range().split_xy(5, 3);
                for vt in 0..s.num_timesteps() * s.phases() {
                    for b in &blocks {
                        if poison {
                            SCRATCH.with_borrow_mut(|scratch| scratch.fill(f32::NAN));
                        }
                        s.step_region(vt, b, SparseMode::FusedCompressed, KernelPath::default());
                    }
                }
                s.final_field()
            };
            let clean = run(false);
            assert!(
                clean.max_abs() > 0.0 && clean.max_abs().is_finite(),
                "{}",
                s.name()
            );
            assert!(clean.bit_equal(&run(true)), "{}", s.name());
        }
    }

    #[test]
    fn sponge_profiles_equal_the_dense_damping_volume() {
        use tempest_grid::DampingMask;
        // Point by point, the profile a pencil reads holds the dense
        // volume's coefficient: on grids thinner than the layer too
        // (`nz < 2·nbl`), and on ones without a layer.
        for (shape, nbl) in [
            (Shape::new(19, 13, 21), 3),
            (Shape::new(19, 13, 21), 11),
            (Shape::new(30, 28, 5), 10),
            (Shape::new(9, 7, 12), 0),
            (Shape::new(1, 2, 1), 4),
        ] {
            let sponge = Sponge::new(shape, nbl, 0.7);
            let dense = DampingMask::sponge(shape, nbl, 0.7);
            for (x, y, z) in shape.iter() {
                let eta = dense.damp.get(x, y, z);
                let inv = 1.0 / (1.0 + eta);
                let want = [2.0 * inv, (1.0 - eta) * inv, 1.0 - eta];
                let got = [sponge.c1(x, y)[z], sponge.c2(x, y)[z], sponge.fd(x, y)[z]];
                assert_eq!(
                    got.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "{shape:?} nbl {nbl} ({x}, {y}, {z})"
                );
            }
        }
    }

    #[test]
    fn indexing_matches_padded_layout() {
        let r = LevelRing::new(Shape::new(4, 5, 6), 2, 3);
        // padded dims 8x9x10
        assert_eq!(r.sx(), 9 * 10);
        assert_eq!(r.sy(), 10);
        assert_eq!(r.idx(0, 0, 0), (2 * 9 + 2) * 10 + 2);
        assert_eq!(r.slot(5), 2);
    }

    #[test]
    fn lane_aligned_ring_has_aligned_pencil_bases() {
        for (shape, halo, lane) in [
            (Shape::new(4, 5, 6), 2, 8),
            (Shape::new(7, 3, 13), 4, 8),
            (Shape::cube(8), 6, 8),
            (Shape::cube(5), 3, 4),
        ] {
            let r = LevelRing::new_lane_aligned(shape, halo, 2, lane);
            assert_eq!(r.sy() % lane, 0, "row length must be a lane multiple");
            for x in 0..shape.nx {
                for y in 0..shape.ny {
                    assert_eq!(r.idx(x, y, 0) % lane, 0, "pencil ({x},{y}) unaligned");
                }
            }
        }
    }

    #[test]
    fn lane_aligned_ring_matches_plain_ring_values() {
        let shape = Shape::new(4, 4, 11);
        let mut a = LevelRing::new(shape, 2, 2);
        let mut b = LevelRing::new_lane_aligned(shape, 2, 2, 8);
        for (x, y, z) in shape.iter() {
            let v = (x * 100 + y * 10 + z) as f32 * 0.5;
            unsafe {
                a.pencil_mut(1, x, y)[z] = v;
                b.pencil_mut(1, x, y)[z] = v;
            }
        }
        assert!(a.interior_copy(1).bit_equal(&b.interior_copy(1)));
        // Halo reads around the interior are zero in both layouts.
        let (ia, ib) = (a.idx(0, 0, 0), b.idx(0, 0, 0));
        unsafe {
            assert_eq!(a.level(1)[ia - 2], 0.0);
            assert_eq!(b.level(1)[ib - 2], 0.0);
            assert_eq!(a.level(1)[ia - 2 * a.sy()], 0.0);
            assert_eq!(b.level(1)[ib - 2 * b.sy()], 0.0);
        }
    }

    #[test]
    fn pencil_write_read_roundtrip() {
        let mut r = LevelRing::new(Shape::cube(4), 1, 2);
        unsafe {
            let p = r.pencil_mut(1, 2, 3);
            p[0] = 5.0;
            p[3] = -2.0;
        }
        let c = r.interior_copy(1);
        assert_eq!(c.get(2, 3, 0), 5.0);
        assert_eq!(c.get(2, 3, 3), -2.0);
        // other level untouched
        assert_eq!(r.interior_max_abs(0), 0.0);
    }

    #[test]
    fn halo_reads_are_zero() {
        let r = LevelRing::new(Shape::cube(4), 2, 2);
        let lvl = unsafe { r.level(0) };
        // A read r points beyond the interior stays in the allocation and is 0.
        let i = r.idx(3, 3, 3);
        assert_eq!(lvl[i + 2], 0.0);
        assert_eq!(lvl[i + 2 * r.sx()], 0.0);
    }

    #[test]
    fn clear_resets_all_levels() {
        let mut r = LevelRing::new(Shape::cube(3), 1, 3);
        for t in 0..3 {
            unsafe {
                r.pencil_mut(t, 0, 0)[0] = 1.0;
            }
        }
        r.clear();
        for t in 0..3 {
            assert_eq!(r.interior_max_abs(t), 0.0);
        }
    }

    #[test]
    fn parallel_disjoint_pencil_writes() {
        use std::sync::Arc;
        let r = Arc::new(LevelRing::new(Shape::cube(8), 1, 2));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for x in (tid * 2)..(tid * 2 + 2) {
                        for y in 0..8 {
                            // SAFETY: threads own disjoint x slices.
                            let p = unsafe { r.pencil_mut(1, x, y) };
                            for (z, v) in p.iter_mut().enumerate() {
                                *v = (x * 100 + y * 10 + z) as f32;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut r = Arc::try_unwrap(r).ok().unwrap();
        let c = r.interior_copy(1);
        for (x, y, z) in Shape::cube(8).iter() {
            assert_eq!(c.get(x, y, z), (x * 100 + y * 10 + z) as f32);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_levels() {
        let _ = LevelRing::new(Shape::cube(2), 0, 0);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        // One level (a first-order field updated in place) and two (a
        // leap-frog ring) and three.
        for levels in 1..=3 {
            let mut r = LevelRing::new(Shape::cube(4), 2, levels);
            for t in 0..levels {
                unsafe {
                    r.pencil_mut(t, 1, 2)[3] = (t + 1) as f32 * 0.5;
                }
            }
            let cp = r.checkpoint();
            assert_eq!(cp.num_values(), levels * 8 * 8 * 8);
            // Scribble over every level, then restore.
            for t in 0..levels {
                unsafe {
                    r.pencil_mut(t, 1, 2)[3] = -9.0;
                    r.pencil_mut(t, 0, 0)[0] = 7.0;
                }
            }
            r.restore(&cp);
            for t in 0..levels {
                let c = r.interior_copy(t);
                assert_eq!(c.get(1, 2, 3), (t + 1) as f32 * 0.5, "{levels} levels");
                assert_eq!(c.get(0, 0, 0), 0.0, "{levels} levels");
            }
        }
    }

    #[test]
    #[should_panic(expected = "level count mismatch")]
    fn restore_rejects_wrong_geometry() {
        let mut a = LevelRing::new(Shape::cube(4), 1, 2);
        let mut b = LevelRing::new(Shape::cube(4), 1, 3);
        let cp = b.checkpoint();
        a.restore(&cp);
    }
}
