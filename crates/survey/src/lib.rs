//! # tempest-survey
//!
//! Shot-level sharding above tile-level parallelism: the paper's production
//! workload is not one solve but a *survey* — thousands of independent
//! shots, each a full forward (or forward + adjoint) propagation with
//! sparse off-the-grid sources (§I, §IV). This crate turns the single-shot
//! operator stack into that service:
//!
//! * [`Survey`] — a shared velocity model + per-shot source position /
//!   wavelet + a common receiver set.
//! * [`run_survey`] — shards shots across the `tempest-par` fleet one level
//!   up from tiles. Each shot solve may use the whole pool (a scoped
//!   [`tempest_par::with_thread_budget`] of `available_threads()`): its
//!   tile dispatches go on the pool's board beside every other live one,
//!   so threads that run out of shots join the ones still running. Gathers
//!   are bitwise-identical at every thread cap (one trace slot per
//!   receiver-footprint corner), so nothing is pinned to keep them so.
//! * Batch reuse — shots sharing a model reuse one
//!   [`tempest_core::ShotAssets`] precomputation (the shared coefficients,
//!   receiver gather structures, the Ricker samples) and optionally
//!   autotune the space-block shape once per batch
//!   ([`SurveyOptions::tune`], counted by `Counter::BatchAutotune`).
//! * [`queue`] — an async job-queue front (`submit` / `poll` / `cancel`,
//!   priorities, per-job thread caps, terminal states with error payloads),
//!   so the engine behaves like a service, not a script. With recording
//!   on ([`tempest_obs::metrics`]), a started service keeps the global
//!   gauges in sync, derives per-job progress/ETA from completed virtual
//!   steps, runs a stall watchdog over the tile-completion heartbeat, and —
//!   given an address — exports `/metrics`+`/jobs` over HTTP
//!   ([`ServiceConfig`]).
//! * Incremental reruns — the service keeps one
//!   [`tempest_tiling::TileCache`] (sized by `TEMPEST_CACHE_MB`) across
//!   jobs and lends it to every submission, so resubmitting a survey with
//!   a nudged source recomputes only the dirty causal cone of the change
//!   (DESIGN.md §16) while clean tiles restore bit-for-bit from cache.
//! * [`rtm`] — checkpointed reverse-time migration end-to-end on the
//!   existing `LevelRing::checkpoint`/`restore` + `Acoustic::run_range`
//!   machinery: the forward pass stores sparse ring checkpoints instead of
//!   every snapshot, and imaging re-materialises forward state on a
//!   receiver-free twin.
//!
//! Instrumentation: `Counter::ShotStarted` / `Counter::ShotCompleted` /
//! `Counter::BatchAutotune` and `SpanKind::Shot` spans, all deterministic
//! across thread caps (DESIGN.md §14).

pub mod engine;
pub mod queue;
pub mod rtm;
pub mod shard;

pub use engine::{
    run_survey, run_survey_streaming, ShotError, ShotResult, ShotSpec, Survey, SurveyOptions,
    SurveyOutcome,
};
pub use queue::{JobId, JobSpec, JobState, JobStatus, ServiceConfig, SurveyService};
pub use rtm::{rtm_image, RtmOptions};
pub use shard::{shard, CancelFlag};
pub use tempest_tiling::TileCache;
