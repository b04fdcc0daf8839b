//! # tempest-tiling
//!
//! Loop-schedule engine: how the space-time iteration domain of an explicit
//! stencil propagator is traversed.
//!
//! The paper contrasts two schedules (§I.A, Fig. 4), each a *plan
//! constructor* producing a [`TilePlan`] (per-tile slabs plus the exact
//! flow-dependence edges), and one executor, [`execute_plan`], runs either
//! on `tempest_par::run_dataflow` — dependency counters, per-worker stealing
//! deques, a single join per sweep:
//!
//! * **Spatial blocking** ([`TilePlan::spaceblocked`]): each timestep sweeps
//!   the whole grid, decomposed into cache-sized `(block_x, block_y)` ×
//!   full-`z` blocks that may run in parallel — the wave-front of height 1.
//!   Run one timestep per plan segment, sparse operators can run between
//!   segments with no dependency hazards (Fig. 4a). This is the
//!   highly-optimised baseline the paper compares against, the bitwise
//!   reference of every equivalence oracle, and the only legal home of the
//!   classic per-timestep sparse operators.
//!
//! * **Temporal blocking** ([`TilePlan::wavefront`], §II.B): the space-time
//!   domain splits into tiles of `tile_t` timesteps whose working set stays
//!   cache-resident while they advance through time; [`wavefront`] skews
//!   parallelogram tiles by the dependency radius per step. Applying
//!   off-grid sparse operators naively under this schedule is *incorrect*
//!   (Fig. 4b) — the precomputation scheme in `tempest-sparse` is what makes
//!   it legal.
//!
//! Every plan ends flat (all tiles at its last step), so a run splits into
//! segments, each a plan started at its first virtual step. The executor
//! drives an abstract *step function* `step(vt, region)`:
//! "compute virtual timestep `vt` for `region`". Multi-phase propagators
//! (elastic velocity–stress updates two field groups per timestep, the
//! second reading same-timestep values of the first — Fig. 8b) map each
//! phase to its own virtual step, which automatically widens the skew.
//!
//! [`incremental`] layers differential recomputation over a plan: a
//! dirty-cone pass ([`dirty_cone`]) marks the causal cone of a [`RunDelta`]
//! between two runs, and a bounded LRU [`TileCache`] of per-tile outputs
//! lets a [`TileStore`] restore clean tiles bit-for-bit inside
//! [`execute_plan`] so only the cone is recomputed.
//!
//! [`legality`] validates any slab sequence against the stencil's radius and
//! the circular time-buffer depth ([`legality::check_schedule`]) and proves
//! a whole plan sound — acyclic, replayable, every unordered tile pair
//! conflict-free ([`legality::check_plan`]); [`autotune()`](autotune())
//! sweeps tile/block shapes (§IV.C, Table I).

pub mod autotune;
pub mod incremental;
pub mod legality;
pub mod plan;
pub mod wavefront;

pub use autotune::{autotune, spaceblock_candidates, Candidate, TuneResult};
pub use incremental::{
    cache_mb_from, dirty_cone, CacheStats, DirtyRect, RunDelta, SlabPayload, SourceSig, TileCache,
    TilePayload, DEFAULT_CACHE_MB,
};
pub use plan::{execute_plan, IncrementalOutcome, TilePlan, TileStore};
pub use wavefront::{Slab, Tile, WavefrontSpec};
