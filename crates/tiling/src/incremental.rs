//! Incremental recomputation over the tile dependency graph.
//!
//! A [`TilePlan`] materializes the *exact* space-time tile dependency graph
//! of a sweep. This module exploits it, differential-dataflow style ("only
//! act where changes occur, do no work elsewhere"): when the sparse
//! off-the-grid inputs of a solve change between two runs — a moved source,
//! an edited wavelet, a different receiver set — only the tiles inside the
//! change's causal cone need new work. Everything else is restored
//! bit-for-bit from a bounded per-tile result cache.
//!
//! Two pieces compose with the plan executor:
//!
//! * [`dirty_cone`] — given a [`RunDelta`] (the changed grid rectangles),
//!   marks the delta's *domain of influence*: a change travels at most
//!   `plan.radius` cells per virtual step, so a node is dirty iff one of its
//!   slabs `(vt, range)` meets a changed rectangle dilated by `radius·vt`
//!   cells. A node outside the cone reads no changed value and holds no
//!   changed injection, so its output is bitwise-unchanged whatever its
//!   predecessors in the graph did — the invariant the property tests pin
//!   against a cell-level brute force, the graph closure it is a subset of,
//!   and the payloads of two independent cold runs.
//! * [`TileCache`] — a bounded, LRU-evicting store of per-tile outputs,
//!   content-addressed by a session key (model + config + schedule
//!   geometry), the tile id, and a digest of the sparse points intersecting
//!   the tile's footprint. `TEMPEST_CACHE_MB` bounds the payload bytes
//!   (`0` disables caching entirely). A payload ([`SlabPayload`]) keeps
//!   each pencil's non-zero `z`-span and an 8-byte index entry: a wavefield
//!   grows from zero around its sources, so the space-time the wave has not
//!   reached costs only the index.
//!
//! A [`crate::TileStore`] over the cache (built in `tempest-core`, which
//! knows the wavefield rings) plugs both into [`crate::execute_plan`]: each
//! node either *restores* its cached output (a gather replay from the
//! payload, plus a pencil-granularity ring write where a computed node or
//! the sweep's end state will read it — no stencil work) or *computes* it
//! exactly as a plain sweep would — same slabs, same `(block_x, block_y)`
//! cuts, same step order — so a cold cached run is bitwise-identical to the
//! plain run, and a warm run is bitwise-identical to a cold one while
//! touching only the cone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tempest_grid::Range3;
use tempest_obs as obs;

use crate::plan::TilePlan;
use crate::wavefront::Slab;

/// Default cache budget (MiB) when `TEMPEST_CACHE_MB` is unset —
/// deliberately conservative for shared hosts.
pub const DEFAULT_CACHE_MB: usize = 64;

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// A dirty rectangle in the (x, y) plane (z is never tiled, so a change at
/// any depth dirties the whole pencil column). Half-open on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirtyRect {
    /// First dirty x (inclusive).
    pub x0: usize,
    /// Last dirty x (exclusive).
    pub x1: usize,
    /// First dirty y (inclusive).
    pub y0: usize,
    /// Last dirty y (exclusive).
    pub y1: usize,
}

impl DirtyRect {
    /// Whether the rectangle intersects `r`'s xy footprint.
    pub fn overlaps(&self, r: &Range3) -> bool {
        self.x0 < r.x1 && r.x0 < self.x1 && self.y0 < r.y1 && r.y0 < self.y1
    }

    /// Whether the rectangle is empty.
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// The rectangle grown by `by` cells on every side (clipped at 0).
    fn dilated(&self, by: usize) -> DirtyRect {
        DirtyRect {
            x0: self.x0.saturating_sub(by),
            x1: self.x1 + by,
            y0: self.y0.saturating_sub(by),
            y1: self.y1 + by,
        }
    }
}

/// What changed between two runs of the same session: the union of grid
/// rectangles whose injections changed (moved/added/removed/re-weighted
/// sources), plus whether the receiver set changed. Receivers are read-only
/// gathers — they never dirty a stencil tile, because restored tiles replay
/// their gathers against the *current* receiver bundle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunDelta {
    /// Changed (x, y) rectangles; sources fire at every timestep, so each
    /// rect seeds every time row.
    pub rects: Vec<DirtyRect>,
    /// The receiver set differs from the cached run.
    pub receivers_changed: bool,
}

/// One sparse point's contribution to delta detection: a digest of
/// everything that shapes its injections (position, interpolation stencil,
/// wavelet) plus the xy bounding box of its non-zero footprint cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSig {
    /// Digest of position bits + stencil cells/weights + wavelet samples.
    pub digest: u64,
    /// xy bounding box of the footprint's non-zero cells.
    pub rect: DirtyRect,
}

// ---------------------------------------------------------------------------
// Dirty cone
// ---------------------------------------------------------------------------

/// Mark every node inside the domain of influence of `rects`. Sparse
/// sources fire at every step, so each rect is changed at every `vt`; a step
/// reads the radius-`r` box of the previous level (and its own cell further
/// back), so the cells that can differ at `vt` are the rects dilated by
/// `plan.radius · vt` in x and y. A node is dirty iff one of its slabs
/// `(vt, range)` meets that set.
///
/// A clean node may well have a dirty predecessor (a wave-front tile depends
/// on its upper-left neighbours of the same time row): the cells it reads
/// from that predecessor are outside the dilated rects, hence unchanged.
pub fn dirty_cone(plan: &TilePlan, rects: &[DirtyRect]) -> Vec<bool> {
    let rects: Vec<&DirtyRect> = rects.iter().filter(|r| !r.is_empty()).collect();
    plan.slabs
        .iter()
        .map(|slabs| {
            slabs.iter().any(|s| {
                let reach = plan.radius * s.vt;
                rects.iter().any(|r| r.dilated(reach).overlaps(&s.range))
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// TileCache
// ---------------------------------------------------------------------------

/// One tile's cached output: the interior pencils it wrote, per slab.
/// Equal payloads compare equal bit for bit (see [`SlabPayload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePayload {
    /// Per-slab written data, same order as the plan's slab list.
    pub slabs: Vec<SlabPayload>,
}

/// Where one pencil's kept values live: `len` values from `offset` in the
/// payload's value list, the first of them at `z0 + lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PencilSpan {
    offset: u32,
    lo: u16,
    len: u16,
}

/// The values one slab wrote: for each wavefield the step writes, in the
/// propagator's fixed order, the `(x, y)` pencils of `slab.range` in
/// x-major, then y order — each stored as its *non-zero span*, the values
/// from its first to its last entry whose bits are not all zero.
///
/// Outside the span a pencil holds `+0.0`; inside it every value is kept
/// verbatim, `-0.0`, NaN payloads and subnormals included. A pencil costs
/// one 8-byte index entry plus its span, so an all-zero pencil stores no
/// value at all and a payload never exceeds the dense size plus 8 B per
/// pencil. The encoding is canonical — equal pencils in the same order
/// give equal index entries and value bits — so `==` is bitwise equality
/// of the pencils the payload stands for.
#[derive(Debug, Clone)]
pub struct SlabPayload {
    slab: Slab,
    /// One entry per pencil: field-major, then x, then y.
    index: Vec<PencilSpan>,
    /// The kept values, pencil after pencil.
    values: Vec<f32>,
}

/// Values tested at once when skipping a zero run: an OR over a fixed-size
/// chunk vectorizes, an early-exit scan does not.
const ZERO_CHUNK: usize = 16;

/// Bits OR-ed over a chunk: zero iff every value is `+0.0`.
#[inline]
fn chunk_bits(c: &[f32]) -> u32 {
    c.iter().fold(0, |acc, v| acc | v.to_bits())
}

/// The span `lo..hi` from the first to one past the last value of `p` whose
/// bits are not zero (`0..0` when there is none). Each value is looked at
/// once: the forward scan stops at `lo`, the backward one at `hi − 1`.
fn nonzero_span(p: &[f32]) -> (usize, usize) {
    let kept = |v: &f32| v.to_bits() != 0;
    let zero_chunks = p
        .chunks_exact(ZERO_CHUNK)
        .take_while(|c| chunk_bits(c) == 0)
        .count();
    let from = zero_chunks * ZERO_CHUNK;
    let Some(lo) = p[from..].iter().position(kept).map(|i| from + i) else {
        return (0, 0);
    };
    let zero_tail = p[lo..]
        .rchunks_exact(ZERO_CHUNK)
        .take_while(|c| chunk_bits(c) == 0)
        .count();
    let to = p.len() - zero_tail * ZERO_CHUNK;
    let last = p[lo..to].iter().rposition(kept).expect("p[lo] is kept");
    (lo, lo + last + 1)
}

impl SlabPayload {
    /// Encode the pencils `slab` wrote, in order (field-major, then x, then
    /// y; each `range.z1 − range.z0` long).
    pub fn encode<'a>(slab: Slab, pencils: impl IntoIterator<Item = &'a [f32]>) -> Self {
        let r = &slab.range;
        let nz = r.z1 - r.z0;
        assert!(nz <= u16::MAX as usize, "a pencil span is indexed by u16");
        let mut index = Vec::with_capacity((r.x1 - r.x0) * (r.y1 - r.y0));
        let mut values = Vec::new();
        for p in pencils {
            debug_assert_eq!(p.len(), nz);
            let (lo, hi) = nonzero_span(p);
            index.push(PencilSpan {
                offset: u32::try_from(values.len()).expect("a slab payload holds < 2³² values"),
                lo: lo as u16,
                len: (hi - lo) as u16,
            });
            values.extend_from_slice(&p[lo..hi]);
        }
        index.shrink_to_fit();
        values.shrink_to_fit();
        SlabPayload {
            slab,
            index,
            values,
        }
    }

    /// The non-zero span of written field `field`'s z-pencil at interior
    /// `(x, y)` (inside the slab range): the absolute `z` of its first kept
    /// value, and the kept values. Every other `z` of the pencil is `+0.0`.
    #[inline]
    pub fn span(&self, field: usize, x: usize, y: usize) -> (usize, &[f32]) {
        let r = &self.slab.range;
        let i = (field * (r.x1 - r.x0) + (x - r.x0)) * (r.y1 - r.y0) + (y - r.y0);
        let s = self.index[i];
        let start = s.offset as usize;
        (
            r.z0 + s.lo as usize,
            &self.values[start..start + s.len as usize],
        )
    }

    /// The slab this payload reproduces.
    pub fn slab(&self) -> Slab {
        self.slab
    }

    /// The kept values, pencil after pencil.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Bytes held: the kept values plus the index.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.values[..]) + std::mem::size_of_val(&self.index[..])
    }
}

impl PartialEq for SlabPayload {
    /// Bitwise: `-0.0 ≠ +0.0` and a NaN equals the same NaN bits.
    fn eq(&self, other: &Self) -> bool {
        self.slab == other.slab
            && self.index == other.index
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for SlabPayload {}

impl TilePayload {
    /// Total payload bytes (the unit [`TileCache`] budgets): every slab's
    /// kept values and index.
    pub fn bytes(&self) -> usize {
        self.slabs.iter().map(SlabPayload::bytes).sum()
    }
}

struct Entry {
    payload: Arc<TilePayload>,
    /// Digest of the sparse sources intersecting this tile's footprint at
    /// insert time — a consistency check on lookups (clean-cone tiles
    /// necessarily have an unchanged local digest).
    mask: u64,
    bytes: usize,
    last_used: u64,
}

struct Session {
    /// Set by `finish_run`; a session that was begun but never finished
    /// (crash, panic, cancellation) is discarded by the next `begin_run`,
    /// so a torn run can never seed a warm rerun.
    completed: bool,
    sources: Vec<SourceSig>,
    receivers: u64,
    entries: HashMap<u32, Entry>,
}

struct CacheInner {
    sessions: HashMap<u64, Session>,
    /// Autotune memo: probe key → tuned `(block_x, block_y)`.
    tune: HashMap<u64, (usize, usize)>,
    bytes: usize,
}

/// Aggregate cache statistics (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful tile-payload lookups.
    pub hits: u64,
    /// Failed lookups (absent, evicted, or mask mismatch).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Current payload bytes held.
    pub bytes: usize,
    /// Current entry count across all sessions.
    pub entries: usize,
    /// Runs begun against this cache (the epoch counter).
    pub epoch: u64,
}

impl CacheStats {
    /// Hit rate in percent (0 when nothing was looked up).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

/// A bounded, shared, LRU-evicting store of per-tile outputs.
///
/// Keys are three-level: a *session* (u64 digest of model + config +
/// schedule geometry + shot identity), a *tile id* (node index in the
/// session's [`TilePlan`] — stable because the plan is a pure function of
/// the session's geometry), and a *mask* digest of the sparse points
/// intersecting the tile's footprint. The byte budget comes from
/// `TEMPEST_CACHE_MB` ([`TileCache::from_env`]); `0` disables the cache
/// ([`TileCache::enabled`] returns false and the engines fall back to the
/// plain, pre-cache execution path bit-for-bit).
///
/// Epoch bumps (`begin_run`) and all map mutation happen under one mutex;
/// the atomics (`epoch`, `tick`, hit/miss tallies) are monotonic telemetry
/// with `Relaxed` ordering — cross-thread visibility of payloads is carried
/// by the mutex and by the plan executor's spawn/join edges, never by
/// the counters (DESIGN.md §16).
pub struct TileCache {
    cap_bytes: usize,
    epoch: AtomicU64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for TileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TileCache")
            .field("cap_bytes", &self.cap_bytes)
            .field("bytes", &s.bytes)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// Resolve a raw `TEMPEST_CACHE_MB` value to a MiB budget: unset/empty or
/// unparsable falls back to the conservative default, an explicit `0`
/// disables the cache.
pub fn cache_mb_from(raw: Option<&str>) -> usize {
    match raw {
        Some(v) if !v.trim().is_empty() => v.trim().parse().unwrap_or(DEFAULT_CACHE_MB),
        _ => DEFAULT_CACHE_MB,
    }
}

impl TileCache {
    /// A cache bounded to `mb` MiB of payload (0 = disabled).
    pub fn with_capacity_mb(mb: usize) -> Self {
        TileCache {
            cap_bytes: mb.saturating_mul(1024 * 1024),
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(CacheInner {
                sessions: HashMap::new(),
                tune: HashMap::new(),
                bytes: 0,
            }),
        }
    }

    /// A cache sized from `TEMPEST_CACHE_MB` (default
    /// [`DEFAULT_CACHE_MB`]; `0` disables).
    pub fn from_env() -> Self {
        Self::with_capacity_mb(cache_mb_from(
            std::env::var("TEMPEST_CACHE_MB").ok().as_deref(),
        ))
    }

    /// Whether caching is on (a zero budget disables every path).
    pub fn enabled(&self) -> bool {
        self.cap_bytes > 0
    }

    /// The configured payload budget in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Begin a run of `session`. Returns `Some(delta)` — what changed since
    /// the cached run — when the session holds a *completed* prior run, or
    /// `None` when the run must be cold (first sight of the session, or the
    /// prior run never finished). Either way the session is marked
    /// in-progress until [`finish_run`](Self::finish_run), so an aborted
    /// run poisons itself, never a future rerun.
    pub fn begin_run(
        &self,
        session: u64,
        sources: &[SourceSig],
        receivers: u64,
    ) -> Option<RunDelta> {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        if !self.enabled() {
            return None;
        }
        let mut inner = self.lock();
        match inner.sessions.get_mut(&session) {
            Some(s) if s.completed => {
                s.completed = false;
                let mut rects = Vec::new();
                for i in 0..s.sources.len().max(sources.len()) {
                    let old = s.sources.get(i);
                    let new = sources.get(i);
                    if old.map(|o| o.digest) == new.map(|n| n.digest) {
                        continue;
                    }
                    rects.extend(old.map(|o| o.rect));
                    rects.extend(new.map(|n| n.rect));
                }
                let receivers_changed = s.receivers != receivers;
                Some(RunDelta {
                    rects,
                    receivers_changed,
                })
            }
            _ => {
                // Unknown session or a torn previous run: start cold.
                let freed: usize = inner
                    .sessions
                    .remove(&session)
                    .map(|s| s.entries.values().map(|e| e.bytes).sum())
                    .unwrap_or(0);
                inner.bytes -= freed;
                inner.sessions.insert(
                    session,
                    Session {
                        completed: false,
                        sources: sources.to_vec(),
                        receivers,
                        entries: HashMap::new(),
                    },
                );
                None
            }
        }
    }

    /// Mark `session`'s run complete and record the layout the cached
    /// entries now correspond to. Only after this does the session become
    /// eligible for warm reruns.
    pub fn finish_run(&self, session: u64, sources: Vec<SourceSig>, receivers: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(s) = inner.sessions.get_mut(&session) {
            s.sources = sources;
            s.receivers = receivers;
            s.completed = true;
        }
    }

    /// Fetch a tile payload; `mask` must match the digest recorded at
    /// insert. Updates the hit/miss tallies and the exported hit-rate
    /// gauge.
    pub fn lookup(&self, session: u64, node: u32, mask: u64) -> Option<Arc<TilePayload>> {
        if !self.enabled() {
            return None;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.lock();
        let found = inner
            .sessions
            .get_mut(&session)
            .and_then(|s| s.entries.get_mut(&node))
            .filter(|e| e.mask == mask)
            .map(|e| {
                e.last_used = tick;
                Arc::clone(&e.payload)
            });
        drop(inner);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let hits = self.hits.load(Ordering::Relaxed);
        let total = hits + self.misses.load(Ordering::Relaxed);
        obs::metrics::gauge_set(
            obs::metrics::Gauge::CacheHitRatePct,
            (hits * 100 / total.max(1)) as i64,
        );
        found
    }

    /// Store a tile payload, evicting least-recently-used entries (across
    /// all sessions) until the byte budget holds; `false` when it was
    /// refused. A payload larger than the whole budget is dropped outright.
    pub fn insert(&self, session: u64, node: u32, mask: u64, payload: TilePayload) -> bool {
        if !self.enabled() {
            return false;
        }
        let bytes = payload.bytes();
        if bytes > self.cap_bytes {
            return false;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.lock();
        let Some(s) = inner.sessions.get_mut(&session) else {
            return false; // no begin_run for this session — refuse silently
        };
        if let Some(old) = s.entries.insert(
            node,
            Entry {
                payload: Arc::new(payload),
                mask,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.cap_bytes {
            // Global LRU scan; victim cannot be the entry just touched at
            // `tick` unless it is the only one left.
            let victim = inner
                .sessions
                .iter()
                .flat_map(|(&sk, s)| s.entries.iter().map(move |(&n, e)| (e.last_used, sk, n)))
                .min()
                .map(|(_, sk, n)| (sk, n));
            let Some((sk, n)) = victim else { break };
            let freed = inner
                .sessions
                .get_mut(&sk)
                .and_then(|s| s.entries.remove(&n))
                .map_or(0, |e| e.bytes);
            inner.bytes -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::add(obs::Counter::CacheEvictions, 1);
        }
        true
    }

    /// Autotune memo lookup: the tuned `(block_x, block_y)` for `key`.
    pub fn tune_lookup(&self, key: u64) -> Option<(usize, usize)> {
        if !self.enabled() {
            return None;
        }
        self.lock().tune.get(&key).copied()
    }

    /// Record a tuned `(block_x, block_y)` for `key`.
    pub fn tune_store(&self, key: u64, blocks: (usize, usize)) {
        if !self.enabled() {
            return;
        }
        self.lock().tune.insert(key, blocks);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.sessions.values().map(|s| s.entries.len()).sum(),
            epoch: self.epoch.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavefront::WavefrontSpec;
    use tempest_grid::{Rng64, Shape};

    fn wf_plan() -> TilePlan {
        TilePlan::wavefront(
            Shape::new(23, 17, 4),
            11,
            &WavefrontSpec::new(8, 8, 4, 2, 4, 4),
            2,
        )
    }

    /// A payload of exactly `bytes` bytes: pencils of non-zero values, each
    /// up to 4 KiB with its 8-byte index entry.
    fn payload_of(bytes: usize) -> TilePayload {
        let per = bytes.min(4096);
        let (nz, pencils) = ((per - 8) / 4, bytes / per);
        let ones = vec![1.0f32; nz];
        let slab = Slab {
            vt: 0,
            range: Range3::new((0, pencils), (0, 1), (0, nz)),
        };
        let p = TilePayload {
            slabs: vec![SlabPayload::encode(slab, (0..pencils).map(|_| &ones[..]))],
        };
        assert_eq!(p.bytes(), bytes);
        p
    }

    fn sig(digest: u64, x0: usize, y0: usize) -> SourceSig {
        SourceSig {
            digest,
            rect: DirtyRect {
                x0,
                x1: x0 + 2,
                y0,
                y1: y0 + 2,
            },
        }
    }

    /// The closed form on a hand-checked case: a 2×2 rect at the origin of
    /// a radius-2 plan reaches x, y < 2 + 2·vt.
    #[test]
    fn cone_grows_by_the_radius_per_step() {
        let plan = wf_plan();
        let dirty = dirty_cone(
            &plan,
            &[DirtyRect {
                x0: 0,
                x1: 2,
                y0: 0,
                y1: 2,
            }],
        );
        for (i, slabs) in plan.slabs.iter().enumerate() {
            let reached = slabs.iter().any(|s| {
                let edge = 2 + plan.radius * s.vt;
                s.range.x0 < edge && s.range.y0 < edge
            });
            assert_eq!(dirty[i], reached, "node {i}: {slabs:?}");
        }
        assert!(dirty.iter().any(|&d| d) && dirty.iter().any(|&d| !d));
    }

    #[test]
    fn empty_delta_dirties_nothing_full_rect_everything() {
        let plan = wf_plan();
        assert!(dirty_cone(&plan, &[]).iter().all(|&d| !d));
        // An empty rect has no cell to dilate.
        let empty = DirtyRect {
            x0: 5,
            x1: 5,
            y0: 0,
            y1: 17,
        };
        assert!(dirty_cone(&plan, &[empty]).iter().all(|&d| !d));
        let all = DirtyRect {
            x0: 0,
            x1: 23,
            y0: 0,
            y1: 17,
        };
        assert!(dirty_cone(&plan, &[all]).iter().all(|&d| d));
    }

    #[test]
    fn cache_mb_parsing() {
        assert_eq!(cache_mb_from(None), DEFAULT_CACHE_MB);
        assert_eq!(cache_mb_from(Some("")), DEFAULT_CACHE_MB);
        assert_eq!(cache_mb_from(Some("garbage")), DEFAULT_CACHE_MB);
        assert_eq!(cache_mb_from(Some("0")), 0);
        assert_eq!(cache_mb_from(Some("128")), 128);
        assert_eq!(cache_mb_from(Some(" 16 ")), 16);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = TileCache::with_capacity_mb(0);
        assert!(!c.enabled());
        assert_eq!(c.begin_run(1, &[sig(1, 0, 0)], 0), None);
        c.insert(1, 0, 0, payload_of(64));
        assert!(c.lookup(1, 0, 0).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (0, 0, 0, 0));
    }

    #[test]
    fn roundtrip_and_delta_diffing() {
        let c = TileCache::with_capacity_mb(4);
        // First run: cold.
        assert_eq!(c.begin_run(7, &[sig(10, 0, 0)], 99), None);
        c.insert(7, 3, 42, payload_of(64));
        c.finish_run(7, vec![sig(10, 0, 0)], 99);
        // Rerun with a moved source: delta holds old + new rects.
        let d = c.begin_run(7, &[sig(11, 5, 5)], 99).expect("warm rerun");
        assert_eq!(
            d.rects,
            vec![
                DirtyRect {
                    x0: 0,
                    x1: 2,
                    y0: 0,
                    y1: 2
                },
                DirtyRect {
                    x0: 5,
                    x1: 7,
                    y0: 5,
                    y1: 7
                },
            ]
        );
        assert!(!d.receivers_changed);
        assert!(c.lookup(7, 3, 42).is_some());
        assert!(c.lookup(7, 3, 41).is_none(), "mask mismatch must miss");
        c.finish_run(7, vec![sig(11, 5, 5)], 99);
        // Receiver-only change.
        let d = c.begin_run(7, &[sig(11, 5, 5)], 100).expect("warm rerun");
        assert!(d.rects.is_empty());
        assert!(d.receivers_changed);
        // Added source.
        c.finish_run(7, vec![sig(11, 5, 5)], 100);
        let d = c
            .begin_run(7, &[sig(11, 5, 5), sig(12, 9, 9)], 100)
            .expect("warm rerun");
        assert_eq!(
            d.rects,
            vec![DirtyRect {
                x0: 9,
                x1: 11,
                y0: 9,
                y1: 11
            }]
        );
    }

    #[test]
    fn aborted_run_forces_cold_restart() {
        let c = TileCache::with_capacity_mb(4);
        assert_eq!(c.begin_run(5, &[sig(1, 0, 0)], 0), None);
        c.insert(5, 0, 0, payload_of(64));
        // No finish_run: the next begin must be cold and drop the entry.
        assert_eq!(c.begin_run(5, &[sig(1, 0, 0)], 0), None);
        assert!(c.lookup(5, 0, 0).is_none());
    }

    #[test]
    fn lru_eviction_respects_budget_and_counts() {
        let c = TileCache::with_capacity_mb(1); // 1 MiB
        assert_eq!(c.begin_run(1, &[], 0), None);
        let quarter = 256 * 1024;
        for node in 0..4u32 {
            c.insert(1, node, 0, payload_of(quarter));
        }
        assert_eq!(c.stats().bytes, 4 * quarter);
        // Touch node 0 so node 1 is the LRU victim.
        assert!(c.lookup(1, 0, 0).is_some());
        c.insert(1, 4, 0, payload_of(quarter));
        let s = c.stats();
        assert!(s.bytes <= c.capacity_bytes(), "{} > cap", s.bytes);
        assert_eq!(s.evictions, 1);
        assert!(c.lookup(1, 1, 0).is_none(), "LRU entry should be gone");
        assert!(c.lookup(1, 0, 0).is_some(), "recently-used entry survives");
        // An over-budget payload is refused outright.
        assert!(!c.insert(1, 9, 0, payload_of(2 * 1024 * 1024)));
        assert!(c.lookup(1, 9, 0).is_none());
    }

    #[test]
    fn tune_memo_roundtrip() {
        let c = TileCache::with_capacity_mb(1);
        assert_eq!(c.tune_lookup(3), None);
        c.tune_store(3, (16, 8));
        assert_eq!(c.tune_lookup(3), Some((16, 8)));
        let off = TileCache::with_capacity_mb(0);
        off.tune_store(3, (16, 8));
        assert_eq!(off.tune_lookup(3), None);
    }

    /// Pencil `i` of two fields over a 3×3 xy range at `z ∈ 3..7` holds
    /// `i + 1` at `z = 3 + i % 4` and zeros elsewhere, except pencil 5,
    /// which is all zeros.
    #[test]
    fn slab_payload_pencil_indexing() {
        let range = Range3::new((2, 5), (1, 4), (3, 7));
        let pencils: Vec<Vec<f32>> = (0..18)
            .map(|i| {
                let mut p = vec![0.0; 4];
                if i != 5 {
                    p[i % 4] = (i + 1) as f32;
                }
                p
            })
            .collect();
        let p = SlabPayload::encode(Slab { vt: 0, range }, pencils.iter().map(Vec::as_slice));
        assert_eq!(p.span(0, 2, 1), (3, &[1.0][..]));
        assert_eq!(p.span(0, 2, 2), (4, &[2.0][..]));
        assert_eq!(p.span(0, 3, 1), (6, &[4.0][..]));
        assert_eq!(
            p.span(0, 3, 3),
            (3, &[][..]),
            "an all-zero pencil keeps nothing"
        );
        assert_eq!(p.span(0, 4, 3), (3, &[9.0][..]));
        // The second field starts one whole xy area later.
        assert_eq!(p.span(1, 2, 1), (4, &[10.0][..]));
        assert_eq!(p.span(1, 4, 3), (4, &[18.0][..]));
        assert_eq!(p.values().len(), 17);
        assert_eq!(p.bytes(), 18 * 8 + 17 * 4);
    }

    /// One seeded pencil of length `nz` of the given kind.
    fn pencil(rng: &mut Rng64, kind: usize, nz: usize) -> Vec<f32> {
        let mut p = vec![0.0f32; nz];
        let at = rng.range_usize(0, nz);
        let bits =
            |rng: &mut Rng64, lo: u32, hi: u32| lo + (rng.next_u64() % (hi - lo) as u64) as u32;
        match kind {
            0 => {} // all +0.0
            1 => p[at] = -0.0,
            2 => {
                // NaN payloads, quiet and signalling, either sign.
                for _ in 0..rng.range_usize(1, 4) {
                    let z = rng.range_usize(0, nz);
                    p[z] = f32::from_bits(
                        bits(rng, 0x7f80_0001, 0x8000_0000) | (rng.next_u64() as u32 & 0x8000_0000),
                    );
                }
            }
            3 => {
                for _ in 0..rng.range_usize(1, 4) {
                    let z = rng.range_usize(0, nz);
                    p[z] = f32::from_bits(bits(rng, 1, 0x0080_0000));
                }
            }
            4 => p[0] = rng.range_f32(-1.0, 1.0) + 2.0,
            5 => p[nz - 1] = -rng.range_f32(1.0, 2.0),
            6 => {
                for v in &mut p {
                    *v = f32::from_bits(rng.next_u64() as u32);
                }
            }
            _ => {
                // A wave front: values on a random sub-range, zeros and
                // `-0.0` mixed in.
                let hi = rng.range_usize(at, nz) + 1;
                for v in &mut p[at..hi] {
                    *v = match rng.range_usize(0, 4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.range_f32(-1.0, 1.0),
                    };
                }
            }
        }
        p
    }

    /// The codec round-trips every pencil bit for bit: all `+0.0`, a lone
    /// `-0.0`, NaN payloads, subnormal bits, a value only at the first or
    /// the last `z`, dense random bits and random spans, at `nz = 1` too.
    /// Each span is the smallest one holding every non-zero bit, `bytes()`
    /// is 8 B per pencil plus the kept values, and equal pencils give equal
    /// payloads while flipping one value's sign bit does not.
    #[test]
    fn codec_round_trips_pencils_bitwise() {
        let mut rng = Rng64::new(0x5EED_C0DE);
        for case in 0..400 {
            let nz = if case % 5 == 0 {
                1
            } else {
                rng.range_usize(1, 70)
            };
            let z0 = rng.range_usize(0, 3);
            let (nx, ny, fields) = (
                rng.range_usize(1, 4),
                rng.range_usize(1, 4),
                rng.range_usize(1, 3),
            );
            let range = Range3::new((5, 5 + nx), (2, 2 + ny), (z0, z0 + nz));
            let slab = Slab { vt: case, range };
            let pencils: Vec<Vec<f32>> = (0..fields * nx * ny)
                .map(|_| {
                    let kind = rng.range_usize(0, 8);
                    pencil(&mut rng, kind, nz)
                })
                .collect();
            let p = SlabPayload::encode(slab, pencils.iter().map(Vec::as_slice));
            let mut kept = 0;
            for (i, want) in pencils.iter().enumerate() {
                let (f, x, y) = (i / (nx * ny), 5 + i / ny % nx, 2 + i % ny);
                let (lo, span) = p.span(f, x, y);
                let mut got = vec![0u32; nz];
                for (z, v) in span.iter().enumerate() {
                    got[lo - z0 + z] = v.to_bits();
                }
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "case {case} pencil {i}");
                if let (Some(a), Some(b)) = (span.first(), span.last()) {
                    assert!(
                        a.to_bits() != 0 && b.to_bits() != 0,
                        "case {case}: span not tight"
                    );
                } else {
                    assert_eq!(lo, z0, "case {case}: an empty span starts at z0");
                }
                kept += span.len();
            }
            assert_eq!(p.values().len(), kept);
            assert_eq!(p.bytes(), 8 * pencils.len() + 4 * kept, "case {case}");
            assert!(p.bytes() <= (4 * nz + 8) * pencils.len());

            let again = pencils.clone();
            assert_eq!(
                p,
                SlabPayload::encode(slab, again.iter().map(Vec::as_slice))
            );
            let mut flipped = pencils.clone();
            let (i, z) = (rng.range_usize(0, pencils.len()), rng.range_usize(0, nz));
            flipped[i][z] = f32::from_bits(flipped[i][z].to_bits() ^ 0x8000_0000);
            assert_ne!(
                p,
                SlabPayload::encode(slab, flipped.iter().map(Vec::as_slice)),
                "case {case}"
            );
        }
    }
}
