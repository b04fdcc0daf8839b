//! The one run path behind [`WaveSolver::run`] and
//! [`WaveSolver::run_incremental`], shared by all three propagators.
//!
//! [`solve`] turns an [`Execution`] into work: the space-blocked baseline
//! goes to `spaceblock::execute` (the only place the classic sparse
//! operators may run), every temporally blocked schedule becomes a
//! [`TilePlan`] for `execute_plan`. A cached solve is the same plan sweep
//! with a [`CacheStore`] attached: it diffs the sparse layout against the
//! cache's last completed run of the session, restores the tiles outside
//! the delta's causal cone, and captures every recomputed slab right after
//! it was stepped — generic over the propagator through
//! [`WaveSolver::written`] and [`WaveSolver::gathered`].

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::operator::{record_backend_run, Execution, RunStats, Schedule, SparseMode, WaveSolver};
use crate::sources::FusedPencil;
use tempest_grid::Range3;
use tempest_tiling::{
    dirty_cone, execute_plan, spaceblock, DirtyRect, SlabPayload, SourceSig, TileCache,
    TilePayload, TilePlan, TileStore,
};

/// What one solve did: timing plus the exact reuse tally
/// (`reused + recomputed == total_tiles` whenever a cache was used — the
/// counts mirror the `TilesReused` / `TilesRecomputed` counters but are
/// recorded unconditionally, so tests can assert them without the obs
/// feature).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalReport {
    /// Timing/throughput of the run.
    pub stats: RunStats,
    /// Tile nodes the plan enumerated (0 without an enabled cache).
    pub total_tiles: usize,
    /// Nodes restored from cache.
    pub reused: usize,
    /// Nodes recomputed.
    pub recomputed: usize,
    /// True when no completed prior run was available (or the cache is
    /// disabled) and everything ran from scratch.
    pub cold: bool,
}

impl IncrementalReport {
    /// Fraction of tiles served from cache, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        if self.total_tiles == 0 {
            0.0
        } else {
            self.reused as f64 / self.total_tiles as f64
        }
    }
}

/// Run `solver` under `exec` from a reset state; `cached` lends an enabled
/// tile cache and the caller's shot identity to the sweep.
pub(crate) fn solve<S: WaveSolver + ?Sized>(
    solver: &mut S,
    exec: &Execution,
    cached: Option<(&TileCache, u64)>,
) -> IncrementalReport {
    exec.validate();
    record_backend_run(exec.kernel.resolve());
    solver.reset();
    let solver: &S = solver;
    let (shape, nt) = (solver.shape(), solver.num_timesteps());
    let (radius, phases) = (solver.radius(), solver.phases());
    let nvt = nt * phases;
    let step =
        |vt: usize, region: &Range3| solver.step_region(vt, region, exec.sparse, exec.kernel);
    let started = Instant::now();
    // A cached space-blocked solve runs on its tile_t = 1 plan: the barrier
    // executor has no per-tile identity to cache against.
    let plan = match exec.schedule {
        Schedule::SpaceBlocked { block_x, block_y } => cached
            .is_some()
            .then(|| TilePlan::spaceblocked(shape, nvt, block_x, block_y, radius)),
        Schedule::WavefrontDataflow { .. } => Some(TilePlan::wavefront(
            shape,
            nvt,
            &exec.wavefront_spec(radius, phases),
            radius,
        )),
        Schedule::Diamond { .. } => Some(TilePlan::diamond(
            shape,
            nvt,
            &exec.diamond_spec(radius, phases),
            radius,
        )),
    };
    let (tally, cold) = match (&plan, cached) {
        (None, _) => {
            let classic = exec.sparse == SparseMode::Classic;
            spaceblock::execute(
                shape,
                nvt,
                exec.spaceblock_spec(),
                exec.policy,
                step,
                |vt| {
                    // Once per *timestep*, after its last phase.
                    if classic && (vt + 1).is_multiple_of(phases) {
                        solver.classic_after_step(vt / phases);
                    }
                },
            );
            (None, true)
        }
        (Some(plan), None) => {
            execute_plan(plan, exec.policy, step, None);
            (None, true)
        }
        (Some(plan), Some((cache, shot_key))) => {
            let store = CacheStore::begin(solver, plan, cache, exec.sparse, shot_key);
            let outcome = execute_plan(plan, exec.policy, step, Some(&store));
            let cold = store.cold;
            store.finish();
            (Some(outcome), cold)
        }
    };
    let (total_tiles, reused, recomputed) =
        tally.map_or((0, 0, 0), |o| (o.total, o.reused, o.recomputed));
    IncrementalReport {
        stats: RunStats::new(started.elapsed(), nt, shape),
        total_tiles,
        reused,
        recomputed,
        cold,
    }
}

/// A [`TileStore`] over a [`TileCache`] session and the solver's rings.
struct CacheStore<'a, S: WaveSolver + ?Sized> {
    solver: &'a S,
    plan: &'a TilePlan,
    cache: &'a TileCache,
    /// The run's fused sparse path, replayed by restored slabs' gathers.
    sparse: SparseMode,
    session: u64,
    sigs: Vec<SourceSig>,
    receivers: u64,
    /// Per-node digest of the sources intersecting the node's footprint.
    masks: Vec<u64>,
    /// The payload of every node outside the dirty cone the cache still
    /// holds.
    restores: Vec<Option<Arc<TilePayload>>>,
    /// Slabs captured so far per node being recomputed; inserted into the
    /// cache when the node's last slab arrives. Each node runs as one task,
    /// so the locks never contend.
    pending: Vec<Mutex<Vec<SlabPayload>>>,
    /// No completed prior run of the session existed.
    cold: bool,
}

impl<'a, S: WaveSolver + ?Sized> CacheStore<'a, S> {
    /// Open a run of the session: diff the sparse layout against the
    /// cached run, mark the delta's cone, and look up every clean node.
    fn begin(
        solver: &'a S,
        plan: &'a TilePlan,
        cache: &'a TileCache,
        sparse: SparseMode,
        shot_key: u64,
    ) -> Self {
        let sigs = source_sigs(solver);
        let receivers = receiver_digest(solver);
        let session = session_key(solver, plan.geometry, sparse, shot_key);
        let masks = node_masks(plan, &sigs);
        let delta = cache.begin_run(session, &sigs, receivers);
        let restores = match &delta {
            Some(d) => dirty_cone(plan, &d.rects)
                .iter()
                .zip(&masks)
                .enumerate()
                .map(|(i, (&dirty, &mask))| {
                    if dirty {
                        None
                    } else {
                        cache.lookup(session, i as u32, mask)
                    }
                })
                .collect(),
            None => vec![None; plan.len()],
        };
        CacheStore {
            solver,
            plan,
            cache,
            sparse,
            session,
            sigs,
            receivers,
            masks,
            restores,
            pending: (0..plan.len()).map(|_| Mutex::new(Vec::new())).collect(),
            cold: delta.is_none(),
        }
    }

    /// Mark the run complete: only now may a rerun restore from it.
    fn finish(self) {
        self.cache
            .finish_run(self.session, self.sigs, self.receivers);
    }

    /// Write one cached slab back to the rings — bit-for-bit what its step
    /// calls would have produced — then replay the slab's receiver gathers
    /// against the *current* receiver bundle in the exact compute order
    /// (blocks in `split_xy` order, x then y, ascending z): the step bodies'
    /// own gather routine, reading the payload row instead of a freshly
    /// stepped one. Counts `ReceiverGathers` like the fused path;
    /// stencil/injection counters stay untouched — no such work happens.
    fn restore_slab(&self, sp: &SlabPayload) {
        let (vt, r) = (sp.slab.vt, sp.slab.range);
        for (field, (ring, level)) in self.solver.written(vt).into_iter().enumerate() {
            for x in r.x0..r.x1 {
                for y in r.y0..r.y1 {
                    // SAFETY: this node's task owns these cells at this
                    // level, exactly as the step calls it replaces would.
                    let un = unsafe { ring.pencil_mut(level, x, y) };
                    un[r.z0..r.z1].copy_from_slice(sp.pencil(field, x, y));
                }
            }
        }
        let receivers = self.solver.receivers().zip(self.solver.trace_buffer());
        let (Some(field), Some(_)) = (self.solver.gathered(vt), receivers) else {
            return;
        };
        let k = vt / self.solver.phases();
        for b in r.split_xy(self.plan.block_x, self.plan.block_y) {
            for x in b.x0..b.x1 {
                for y in b.y0..b.y1 {
                    if let Some(mut sparse) = FusedPencil::begin(self.sparse, k, x, y, b.z0..b.z1) {
                        sparse.gather(receivers, sp.pencil(field, x, y));
                    }
                }
            }
        }
    }
}

impl<S: WaveSolver + ?Sized> TileStore for CacheStore<'_, S> {
    fn restore(&self, node: usize) -> bool {
        let Some(payload) = self.restores[node].as_deref() else {
            return false;
        };
        payload.slabs.iter().for_each(|sp| self.restore_slab(sp));
        true
    }

    fn capture(&self, node: usize, slab: usize) {
        let slabs = &self.plan.slabs[node];
        let slab = slabs[slab];
        let r = slab.range;
        let nz = r.z1 - r.z0;
        let written = self.solver.written(slab.vt);
        let mut data = Vec::with_capacity(written.len() * r.len());
        for (ring, level) in written {
            // SAFETY: called from the node's own task right after the slab's
            // step calls and before its successors are released — it reads
            // exactly the cells this node just wrote, which no other
            // in-flight tile may touch.
            let lvl = unsafe { ring.level(level) };
            for x in r.x0..r.x1 {
                for y in r.y0..r.y1 {
                    let base = ring.idx(x, y, r.z0);
                    data.extend_from_slice(&lvl[base..base + nz]);
                }
            }
        }
        let mut pending = self.pending[node]
            .lock()
            .expect("a capture panicked while holding its node's slab list");
        pending.push(SlabPayload { slab, data });
        if pending.len() == slabs.len() {
            let payload = TilePayload {
                slabs: std::mem::take(&mut pending),
            };
            self.cache
                .insert(self.session, node as u32, self.masks[node], payload);
        }
    }
}

/// Per-source change signatures: a digest of everything that shapes the
/// source's injections (position, interpolation stencil, wavelet column)
/// plus the xy bounding box of its footprint, in source-index order.
fn source_sigs<S: WaveSolver + ?Sized>(solver: &S) -> Vec<SourceSig> {
    let src = solver.sources();
    let coords = src.points.coords();
    (0..src.points.len())
        .map(|s| {
            let mut h = DefaultHasher::new();
            for &c in &coords[s] {
                h.write_u32(c.to_bits());
            }
            let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0usize, usize::MAX, 0usize);
            for (c, w) in src.stencils[s].nonzero() {
                h.write_usize(c[0]);
                h.write_usize(c[1]);
                h.write_usize(c[2]);
                h.write_u32(w.to_bits());
                x0 = x0.min(c[0]);
                x1 = x1.max(c[0] + 1);
                y0 = y0.min(c[1]);
                y1 = y1.max(c[1] + 1);
            }
            for t in 0..src.wavelets.dims()[0] {
                h.write_u32(src.wavelets.get(t, s).to_bits());
            }
            if x0 == usize::MAX {
                (x0, x1, y0, y1) = (0, 0, 0, 0);
            }
            SourceSig {
                digest: h.finish(),
                rect: DirtyRect { x0, x1, y0, y1 },
            }
        })
        .collect()
}

/// Digest of the receiver layout (positions + interpolation stencils).
/// Tracked separately from the session key: receivers are read-only
/// gathers, so a changed receiver set dirties zero stencil tiles —
/// restored tiles replay their gathers against the *current* bundle.
fn receiver_digest<S: WaveSolver + ?Sized>(solver: &S) -> u64 {
    let mut h = DefaultHasher::new();
    if let Some(rec) = solver.receivers() {
        h.write_u8(1);
        for c in rec.points.coords() {
            for &v in c {
                h.write_u32(v.to_bits());
            }
        }
        for st in &rec.stencils {
            for (c, w) in st.nonzero() {
                h.write_usize(c[0]);
                h.write_usize(c[1]);
                h.write_usize(c[2]);
                h.write_u32(w.to_bits());
            }
        }
    }
    h.finish()
}

/// Session key: everything that (besides the sparse layout tracked by the
/// per-run delta) determines the wavefield bit-for-bit — the propagator,
/// its coefficient volumes (model + damping + dt) and stencil weights, the
/// schedule geometry and sparse path, plus the caller's shot identity. The
/// kernel backend is deliberately *excluded*: every backend is
/// bitwise-identical (the kernel-equivalence oracle), so cached tiles stay
/// valid across a backend switch.
fn session_key<S: WaveSolver + ?Sized>(
    solver: &S,
    plan_geometry: u64,
    sparse: SparseMode,
    shot_key: u64,
) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(solver.name().as_bytes());
    h.write_usize(solver.space_order());
    h.write_usize(solver.num_timesteps());
    for values in solver.coefficients() {
        h.write_usize(values.len());
        for &v in values {
            h.write_u32(v.to_bits());
        }
    }
    h.write_u8(sparse as u8);
    h.write_u64(plan_geometry);
    h.write_u64(shot_key);
    h.finish()
}

/// Per-node content masks: for each plan node, a digest (in source-index
/// order) of the sources whose footprint intersects the node's slabs.
/// Folded into the cache key so a stale payload can never satisfy a lookup
/// after its local sources changed.
fn node_masks(plan: &TilePlan, sigs: &[SourceSig]) -> Vec<u64> {
    plan.slabs
        .iter()
        .map(|slabs| {
            let mut h = DefaultHasher::new();
            for (i, sig) in sigs.iter().enumerate() {
                if slabs.iter().any(|s| sig.rect.overlaps(&s.range)) {
                    h.write_usize(i);
                    h.write_u64(sig.digest);
                }
            }
            h.finish()
        })
        .collect()
}
