//! The one run path behind [`WaveSolver::run`] and
//! [`WaveSolver::run_incremental`], shared by all three propagators.
//!
//! `solve` turns an [`Execution`] into work: the schedule's [`TilePlan`]
//! run by `execute_plan`, the one executor, in segments. Every plan ends
//! flat, so a segment of timesteps `[k0, k1)` is a `k1 − k0`-step plan
//! started at virtual step `k0 · phases`. The classic sparse operators run
//! on the calling thread between one-timestep segments; any other solve is
//! one segment. A cached solve is the same plan sweep
//! with a `CacheStore` attached. The store is the sweep's inspector: before
//! a tile runs it diffs the sparse layout against the cache's last completed
//! run of the session, looks up every node outside the delta's light cone,
//! and decides which of those must also be written back into the rings —
//! the ones a recomputed node can still read, and the ones that hold the
//! sweep's end state. During the sweep a restored node replays its receiver
//! gathers from the payload and decodes pencils into the rings only if so
//! marked; every recomputed slab is captured right after it was stepped,
//! each pencil as its non-zero span. All of it is
//! generic over the propagator through [`WaveSolver::written`] and
//! [`WaveSolver::gathered`].

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::operator::{record_backend_run, Execution, RunStats, SparseMode, WaveSolver};
use crate::sources::FusedPencil;
use tempest_grid::Range3;
use tempest_obs as obs;
use tempest_par::FlushGuard;
use tempest_sparse::InterpStencil;
use tempest_tiling::{
    dirty_cone, execute_plan, DirtyRect, SlabPayload, SourceSig, TileCache, TilePayload, TilePlan,
    TileStore,
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
    /// Restored nodes whose payload was also copied into the rings (the
    /// others only replayed their gathers); mirrors `TilesWrittenBack`.
    pub written_back: usize,
    /// Wavefield bytes the restored nodes stand for — stencil output served
    /// from the cache instead of being stepped.
    pub restored_bytes: usize,
    /// Wavefield bytes the recomputed nodes stepped (and captured).
    pub recomputed_bytes: usize,
    /// Payload bytes this run inserted into the cache: the recomputed
    /// nodes' captures, each pencil as its non-zero span plus an 8-byte
    /// index entry — at most `recomputed_bytes` plus 8 B per pencil.
    pub stored_bytes: usize,
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

/// Run timesteps `steps` of `solver` under `exec` — from a reset state when
/// they start at 0, from wherever the previous segment left the rings
/// otherwise; `cached` lends an enabled tile cache and the caller's shot
/// identity to the sweep.
pub(crate) fn solve<S: WaveSolver + ?Sized>(
    solver: &mut S,
    exec: &Execution,
    steps: Range<usize>,
    cached: Option<(&TileCache, u64)>,
) -> IncrementalReport {
    exec.validate();
    if steps.start == 0 {
        record_backend_run(exec.kernel.resolve());
        solver.reset();
    }
    let solver: &S = solver;
    let (shape, nt) = (solver.shape(), steps.len());
    let (radius, phases) = (solver.radius(), solver.phases());
    let classic = exec.sparse == SparseMode::Classic;
    debug_assert!(
        cached.is_none() || (!classic && steps == (0..solver.num_timesteps())),
        "a cached tile stands for a fused step of the whole run"
    );
    let step =
        |vt: usize, region: &Range3| solver.step_region(vt, region, exec.sparse, exec.kernel);
    let started = Instant::now();
    let (mut written_back, mut restored_bytes, mut recomputed_bytes) = (0, 0, 0);
    let mut stored_bytes = 0;
    let (tally, cold) = match cached {
        None if classic => {
            // The classic operators run between segments, outside every
            // executor's flush-mode guard.
            let _fp = FlushGuard::enter();
            let plan = exec.plan(shape, 1, radius, phases);
            for k in steps {
                execute_plan(&plan, k * phases, exec.policy, step, None);
                solver.classic_after_step(k);
            }
            (None, true)
        }
        None => {
            let plan = exec.plan(shape, nt, radius, phases);
            execute_plan(&plan, steps.start * phases, exec.policy, step, None);
            (None, true)
        }
        Some((cache, shot_key)) => {
            let plan = &exec.plan(shape, nt, radius, phases);
            let store = CacheStore::begin(solver, plan, cache, exec.sparse, shot_key);
            let outcome = execute_plan(plan, 0, exec.policy, step, Some(&store));
            let cold = store.cold;
            (written_back, restored_bytes, recomputed_bytes) = store.work();
            stored_bytes = store.stored_bytes.load(Ordering::Relaxed);
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
        written_back,
        restored_bytes,
        recomputed_bytes,
        stored_bytes,
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
    /// xy bounding box of the receivers' footprints: a restored slab outside
    /// it has no gather to replay.
    receiver_rect: DirtyRect,
    /// Per-node digest of the sources intersecting the node's footprint.
    masks: Vec<u64>,
    /// The payload of every node outside the dirty cone the cache still
    /// holds; the other nodes are computed.
    restores: Vec<Option<Arc<TilePayload>>>,
    /// Restored nodes that also copy their payload into the rings: a
    /// computed node may read it, or it is part of the sweep's end state.
    write_back: Vec<bool>,
    /// Slabs captured so far per node being recomputed; inserted into the
    /// cache when the node's last slab arrives. Each node runs as one task,
    /// so the locks never contend.
    pending: Vec<Mutex<Vec<SlabPayload>>>,
    /// Payload bytes the captures inserted into the cache.
    stored_bytes: AtomicUsize,
    /// No completed prior run of the session existed.
    cold: bool,
}

impl<'a, S: WaveSolver + ?Sized> CacheStore<'a, S> {
    /// Open a run of the session: diff the sparse layout against the
    /// cached run, mark the delta's cone, look up every clean node and
    /// decide which of them a computed node or the end state will read.
    fn begin(
        solver: &'a S,
        plan: &'a TilePlan,
        cache: &'a TileCache,
        sparse: SparseMode,
        shot_key: u64,
    ) -> Self {
        let sigs = source_sigs(solver);
        let receivers = receiver_digest(solver);
        let receiver_rect =
            footprint_rect(solver.receivers().map_or(&[], |r| &r.footprint.stencils));
        let session = session_key(solver, plan.geometry, sparse, shot_key);
        let masks = node_masks(plan, &sigs);
        let delta = cache.begin_run(session, &sigs, receivers);
        let restores: Vec<_> = match &delta {
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
        let write_back = write_back_set(solver, plan, &restores);
        CacheStore {
            solver,
            plan,
            cache,
            sparse,
            session,
            sigs,
            receivers,
            receiver_rect,
            masks,
            restores,
            write_back,
            pending: (0..plan.len()).map(|_| Mutex::new(Vec::new())).collect(),
            stored_bytes: AtomicUsize::new(0),
            cold: delta.is_none(),
        }
    }

    /// Mark the run complete: only now may a rerun restore from it.
    fn finish(self) {
        self.cache
            .finish_run(self.session, self.sigs, self.receivers);
    }

    /// `(written_back, restored_bytes, recomputed_bytes)` of the sweep: how
    /// many restored nodes copy their payload into the rings, and the
    /// wavefield bytes the restored and the computed nodes stand for.
    fn work(&self) -> (usize, usize, usize) {
        let fields: Vec<usize> = (0..self.solver.phases())
            .map(|vt| self.solver.written(vt).len())
            .collect();
        let bytes_of = |restored: bool| -> usize {
            let nodes = self.plan.slabs.iter().zip(&self.restores);
            nodes
                .filter(|(_, payload)| payload.is_some() == restored)
                .flat_map(|(slabs, _)| slabs)
                .map(|s| fields[s.vt % fields.len()] * s.range.len() * std::mem::size_of::<f32>())
                .sum()
        };
        let written_back = self.write_back.iter().filter(|&&w| w).count();
        (written_back, bytes_of(true), bytes_of(false))
    }

    /// Decode one cached slab into the rings — bit-for-bit what its step
    /// calls would have left there: `+0.0` outside each pencil's span, the
    /// span verbatim. The slot may hold an older level, so the zeros are
    /// written too.
    fn write_slab(&self, sp: &SlabPayload) {
        let (vt, r) = (sp.slab().vt, sp.slab().range);
        for (field, (ring, level)) in self.solver.written(vt).into_iter().enumerate() {
            for x in r.x0..r.x1 {
                for y in r.y0..r.y1 {
                    // SAFETY: this node's task owns these cells at this
                    // level, exactly as the step calls it replaces would.
                    let un = unsafe { ring.pencil_mut(level, x, y) };
                    let (lo, kept) = sp.span(field, x, y);
                    let (below, rest) = un[r.z0..r.z1].split_at_mut(lo - r.z0);
                    let (span, above) = rest.split_at_mut(kept.len());
                    below.fill(0.0);
                    span.copy_from_slice(kept);
                    above.fill(0.0);
                }
            }
        }
    }

    /// Replay one cached slab's receiver gathers against the *current*
    /// receiver bundle, pencil by pencil in payload order: the step bodies'
    /// own gather routine, reading each value through the pencil's span
    /// (`+0.0` outside it). Every trace slot has one writer, so the order
    /// cannot change bits. Counts `ReceiverGathers` like the fused path;
    /// stencil/injection counters stay untouched — no such work happens.
    fn replay_gathers(&self, sp: &SlabPayload) {
        let (vt, r) = (sp.slab().vt, sp.slab().range);
        let receivers = self.solver.receivers().zip(self.solver.trace_buffer());
        let (Some(field), Some(_)) = (self.solver.gathered(vt), receivers) else {
            return;
        };
        // Only pencils inside the receivers' xy bounding box gather.
        let rr = &self.receiver_rect;
        let (xs, ys) = (
            r.x0.max(rr.x0)..r.x1.min(rr.x1),
            r.y0.max(rr.y0)..r.y1.min(rr.y1),
        );
        let k = vt / self.solver.phases();
        for x in xs {
            for y in ys.clone() {
                if let Some(mut sparse) = FusedPencil::begin(self.sparse, k, x, y, r.z0..r.z1) {
                    let (lo, kept) = sp.span(field, x, y);
                    sparse.gather_by(receivers, |z| {
                        z.checked_sub(lo)
                            .and_then(|i| kept.get(i))
                            .map_or(0.0, |&v| v)
                    });
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
        for sp in &payload.slabs {
            if self.write_back[node] {
                self.write_slab(sp);
            }
            self.replay_gathers(sp);
        }
        obs::add(obs::Counter::TilesWrittenBack, self.write_back[node] as u64);
        true
    }

    fn capture(&self, node: usize, slab: usize) {
        let slabs = &self.plan.slabs[node];
        let slab = slabs[slab];
        let r = slab.range;
        let pencils = self
            .solver
            .written(slab.vt)
            .into_iter()
            .flat_map(|(ring, level)| {
                // SAFETY: called from the node's own task right after the slab's
                // step calls and before its successors are released — it reads
                // exactly the cells this node just wrote, which no other
                // in-flight tile may touch.
                let lvl = unsafe { ring.level(level) };
                (r.x0..r.x1).flat_map(move |x| {
                    (r.y0..r.y1).map(move |y| {
                        let base = ring.idx(x, y, r.z0);
                        &lvl[base..base + (r.z1 - r.z0)]
                    })
                })
            });
        let encoded = SlabPayload::encode(slab, pencils);
        let mut pending = self.pending[node]
            .lock()
            .expect("a capture panicked while holding its node's slab list");
        pending.push(encoded);
        if pending.len() == slabs.len() {
            let payload = TilePayload {
                slabs: std::mem::take(&mut pending),
            };
            let bytes = payload.bytes();
            if self
                .cache
                .insert(self.session, node as u32, self.masks[node], payload)
            {
                self.stored_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }
}

/// Which restored nodes must copy their payload into the rings
/// (`restores[i]` is `None` for a node that will be computed).
///
/// A step at `vt` reads nothing written before `vt − d`, `d` the solver's
/// [`read_distance`](WaveSolver::read_distance) — the step body's reach, not
/// the ring depth: a core propagator's step reads its oldest level in place,
/// one step further back than `depth · phases − 1`. Plan edges are the distance-1 flow dependences (the slab at `vt − 1` under the
/// radius-dilated slab at `vt`), so the writer of a cell read `j` steps back
/// is the reader or at most `j` predecessor hops from it: every cell a
/// computed node reads was written by a computed node or by a restored one
/// within `d` hops. The rings keep `depth · phases` virtual steps' output
/// (`depth` levels, one written per timestep), so the restored nodes whose
/// slabs fall in the sweep's last `depth · phases` steps hold the levels
/// still in the rings when it ends — `final_field()` and the solver's end
/// state. Nothing reads the rest.
fn write_back_set<S: WaveSolver + ?Sized>(
    solver: &S,
    plan: &TilePlan,
    restores: &[Option<Arc<TilePayload>>],
) -> Vec<bool> {
    let phases = solver.phases();
    let depth = (0..phases)
        .flat_map(|vt| solver.written(vt))
        .map(|(ring, _)| ring.num_levels())
        .max()
        .expect("every step writes a ring");
    let kept = depth * phases;
    let mut read: Vec<bool> = restores.iter().map(Option::is_none).collect();
    let mut frontier: Vec<u32> = (0..plan.len() as u32)
        .filter(|&i| read[i as usize])
        .collect();
    for _ in 0..solver.read_distance() {
        let mut next = Vec::new();
        for &i in &frontier {
            for &p in &plan.preds[i as usize] {
                if !std::mem::replace(&mut read[p as usize], true) {
                    next.push(p);
                }
            }
        }
        frontier = next;
    }
    (0..plan.len())
        .map(|i| {
            let live = || plan.slabs[i].iter().any(|s| s.vt + kept >= plan.nvt);
            restores[i].is_some() && (read[i] || live())
        })
        .collect()
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
            for (c, w) in src.pre.stencils[s].nonzero() {
                h.write_usize(c[0]);
                h.write_usize(c[1]);
                h.write_usize(c[2]);
                h.write_u32(w.to_bits());
            }
            for t in 0..src.wavelets.dims()[0] {
                h.write_u32(src.wavelets.get(t, s).to_bits());
            }
            SourceSig {
                digest: h.finish(),
                rect: footprint_rect(std::slice::from_ref(&src.pre.stencils[s])),
            }
        })
        .collect()
}

/// xy bounding box of the non-zero footprint cells of `stencils` (the empty
/// rect at the origin when there are none).
fn footprint_rect(stencils: &[InterpStencil]) -> DirtyRect {
    let cells = || stencils.iter().flat_map(|st| st.nonzero()).map(|(c, _)| c);
    let lo = |a: usize| cells().map(|c| c[a]).min().unwrap_or(0);
    let hi = |a: usize| cells().map(|c| c[a] + 1).max().unwrap_or(0);
    DirtyRect {
        x0: lo(0),
        x1: hi(0),
        y0: lo(1),
        y1: hi(1),
    }
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
        for st in &rec.footprint.stencils {
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
/// the digest of its coefficient volumes (model + damping + dt) and stencil
/// weights ([`WaveSolver::coefficient_digest`]), the
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
    h.write_u64(solver.coefficient_digest());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EquationKind, SimConfig};
    use crate::operator::{KernelPath, Schedule};
    use crate::{Acoustic, Elastic, ShotAssets, Tti};
    use tempest_grid::{Domain, ElasticModel, Model, Shape, TtiModel};
    use tempest_par::Policy;
    use tempest_sparse::SparsePoints;

    const N: usize = 28;

    /// Acoustic, TTI and elastic over four sources: three fixed ones and one
    /// near a corner, `nudge` cells along x from its first position.
    fn solvers(nudge: f32) -> Vec<Box<dyn WaveSolver>> {
        let d = Domain::uniform(Shape::cube(N), 10.0);
        let cells = [
            [3.2 + nudge, 3.4, 14.3],
            [20.4, 6.6, 12.7],
            [7.5, 21.3, 15.6],
            [19.7, 20.2, 13.4],
        ];
        let src = SparsePoints::new(&d, cells.map(|c| c.map(|v| v * 10.0)).to_vec());
        let rec = Some(SparsePoints::receiver_line(&d, 5, 0.2));
        let cfg = |kind, vmax| {
            SimConfig::new(d, 4, kind, vmax, 30.0)
                .with_nt(8)
                .with_f0(25.0)
                .with_boundary(3, 0.3)
        };
        let tti = TtiModel::homogeneous(d, 2000.0, 0.2, 0.08, 0.4, 0.2);
        vec![
            Box::new(Acoustic::new(
                &Model::two_layer(d, 1600.0, 2800.0, 0.5),
                cfg(EquationKind::Acoustic, 2800.0),
                src.clone(),
                rec.clone(),
            )),
            Box::new(Tti::new(
                &tti,
                cfg(EquationKind::Tti, tti.vmax()),
                src.clone(),
                rec.clone(),
            )),
            Box::new(Elastic::new(
                &ElasticModel::homogeneous(d, 3000.0, 1400.0, 2300.0),
                cfg(EquationKind::Elastic, 3000.0),
                src,
                rec,
            )),
        ]
    }

    /// The physical oracle of the dirty cone: solve the problem cold with the
    /// corner source at A and, independently, at B, each into a cache of its
    /// own. Every node the cone of the A→B delta calls clean must hold the
    /// same payload in both caches, bit for bit — nothing here consults the
    /// cone's closed form, the plan's edges or a restore.
    #[test]
    fn nodes_the_cone_calls_clean_are_bit_identical_across_independent_cold_runs() {
        // One node per (step, 4×4 block): the finest grain the cone is
        // ever asked about.
        let exec = Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: 4,
                block_y: 4,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::Sequential,
            kernel: KernelPath::default(),
        };
        for (mut a, mut b) in solvers(0.0).into_iter().zip(solvers(0.3)) {
            let name = a.name();
            let caches = [
                TileCache::with_capacity_mb(64),
                TileCache::with_capacity_mb(64),
            ];
            let steps = 0..a.num_timesteps();
            solve(&mut *a, &exec, steps.clone(), Some((&caches[0], 0)));
            solve(&mut *b, &exec, steps, Some((&caches[1], 0)));

            let plan = exec.plan(a.shape(), a.num_timesteps(), a.radius(), a.phases());
            let key = session_key(&*a, plan.geometry, exec.sparse, 0);
            assert_eq!(
                key,
                session_key(&*b, plan.geometry, exec.sparse, 0),
                "{name}"
            );
            // The delta a rerun of B against A's session would see.
            let (sigs_a, sigs_b) = (source_sigs(&*a), source_sigs(&*b));
            let delta = caches[0]
                .begin_run(key, &sigs_b, receiver_digest(&*b))
                .expect("A's run completed");
            let dirty = dirty_cone(&plan, &delta.rects);
            let (masks_a, masks_b) = (node_masks(&plan, &sigs_a), node_masks(&plan, &sigs_b));

            let (mut busy_clean, mut changed) = (0, 0);
            for node in 0..plan.len() {
                let pa = caches[0].lookup(key, node as u32, masks_a[node]);
                let pb = caches[1].lookup(key, node as u32, masks_b[node]);
                let (pa, pb) = (pa.expect("A captured it"), pb.expect("B captured it"));
                // The encoding is canonical: equal payloads are equal pencils.
                let same = pa == pb;
                if dirty[node] {
                    changed += !same as usize;
                } else {
                    assert!(same, "{name}: clean node {node} differs between the runs");
                    let mut values = pa.slabs.iter().flat_map(|s| s.values());
                    busy_clean += values.any(|v| v.to_bits() << 1 != 0) as usize;
                }
            }
            assert!(busy_clean > 0, "{name}: every clean node is all zeros");
            assert!(changed > 0, "{name}: the nudge changed no dirty node");
        }
    }

    /// A write-back decodes each pencil over whatever its ring slot held —
    /// here NaN in every cell of the slab — leaving `+0.0` outside the span
    /// and the span verbatim. In a solve the slot holds an earlier level of
    /// a growing wavefield, which is never non-zero where the later level
    /// is exact zero, so no rerun oracle sees a skipped zero fill.
    #[test]
    fn write_back_overwrites_a_stale_slot_outside_the_span() {
        let exec = Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::Sequential,
            kernel: KernelPath::default(),
        };
        let stale = f32::from_bits(0x7fc0_1234);
        for (mut cold, warm) in solvers(0.0).into_iter().zip(solvers(0.0)) {
            let name = cold.name();
            let cache = TileCache::with_capacity_mb(64);
            let steps = 0..cold.num_timesteps();
            solve(&mut *cold, &exec, steps, Some((&cache, 0)));
            let plan = exec.plan(
                warm.shape(),
                warm.num_timesteps(),
                warm.radius(),
                warm.phases(),
            );
            let store = CacheStore::begin(&*warm, &plan, &cache, exec.sparse, 0);
            let (mut trimmed, mut holding) = (0, 0);
            for payload in &store.restores {
                let payload = payload
                    .as_deref()
                    .expect("an identical rerun restores every node");
                for sp in &payload.slabs {
                    let (r, written) = (sp.slab().range, warm.written(sp.slab().vt));
                    let cells = || (r.x0..r.x1).flat_map(|x| (r.y0..r.y1).map(move |y| (x, y)));
                    for &(ring, level) in &written {
                        for (x, y) in cells() {
                            // SAFETY: nothing else runs; the test owns the rings.
                            unsafe { ring.pencil_mut(level, x, y)[r.z0..r.z1].fill(stale) };
                        }
                    }
                    store.write_slab(sp);
                    for (field, &(ring, level)) in written.iter().enumerate() {
                        for (x, y) in cells() {
                            let (lo, kept) = sp.span(field, x, y);
                            // SAFETY: as above.
                            let got = unsafe { &ring.pencil_mut(level, x, y)[r.z0..r.z1] };
                            for (z, v) in (r.z0..r.z1).zip(got) {
                                let want = z.checked_sub(lo).and_then(|i| kept.get(i));
                                let want = want.map_or(0, |v| v.to_bits());
                                assert_eq!(
                                    v.to_bits(),
                                    want,
                                    "{name} slab {:?} ({x}, {y}, {z})",
                                    sp.slab()
                                );
                            }
                            trimmed += (kept.len() < r.z1 - r.z0) as usize;
                            holding += !kept.is_empty() as usize;
                        }
                    }
                }
            }
            assert!(
                0 < trimmed && 0 < holding,
                "{name}: {trimmed} trimmed, {holding} hold values"
            );
        }
    }

    /// The coefficient digest folds into the session key the same way
    /// whichever constructor built the solver.
    #[test]
    fn session_key_is_the_same_through_shared_assets() {
        let d = Domain::uniform(Shape::cube(12), 10.0);
        let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 20.0).with_nt(4);
        let src = SparsePoints::single_center(&d, 0.4);
        let direct = Acoustic::new(&model, cfg.clone(), src.clone(), None);
        let assets = ShotAssets::new(&model, cfg, None);
        let shared = Acoustic::from_assets(&assets, src);
        let key = |s: &Acoustic| session_key(s, 7, SparseMode::FusedCompressed, 3);
        assert_eq!(key(&direct), key(&shared));
    }
}
