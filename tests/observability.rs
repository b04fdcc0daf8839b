//! Exact-count oracle tests for the observability layer (`tempest-obs`).
//!
//! Every counter the propagators record has a closed-form oracle: a dense
//! stencil sweep touches `interior_points × virtual_steps` points, fused
//! injection fires once per masked point per timestep, and a gather
//! contributes once per `(receiver, footprint-nonzero)` pair per timestep.
//! These identities must hold for every `Schedule` × propagator combination
//! and be bitwise-identical across thread caps — any drift means a schedule
//! is double-visiting or skipping work.
//!
//! Compiled only with `--features obs`; the counters are global, so every
//! test serialises on one mutex and resets the registry before running.

#![cfg(feature = "obs")]

mod common;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::sources::{ReceiverBundle, SourceBundle};
use tempest::core::{Acoustic, Elastic, Execution, SimConfig, Tti, WaveSolver};
use tempest::grid::{Domain, ElasticModel, Model, Rng64, Shape, TtiModel};
use tempest::obs::{self, Counter, SpanKind};
use tempest::par::{for_each, Policy, Progress};
use tempest::sparse::SparsePoints;
use tempest::stencil::Backend;

const N: usize = 16;
const NT: usize = 6;

/// Global-counter tests cannot overlap: the registry is process-wide.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::reset();
    g
}

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

/// The schedule × sparse-mode grid every oracle runs over.
fn schedules() -> Vec<(&'static str, Schedule, SparseMode)> {
    vec![
        (
            "spaceblocked-4x4",
            Schedule::SpaceBlocked {
                block_x: 4,
                block_y: 4,
            },
            SparseMode::FusedCompressed,
        ),
        (
            "spaceblocked-8x8",
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            SparseMode::FusedCompressed,
        ),
        (
            "wavefront-dataflow",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            },
            SparseMode::FusedCompressed,
        ),
        (
            "wavefront-xy",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 12,
                tile_t: 4,
                block_x: 4,
                block_y: 2,
            },
            SparseMode::FusedCompressed,
        ),
    ]
}

const POLICIES: [Policy; 3] = [
    Policy::Capped { threads: 1 },
    Policy::Capped { threads: 2 },
    Policy::Capped { threads: 4 },
];

/// Closed-form expected counts for one propagator configuration.
struct Oracle {
    stencil: u64,
    injections: u64,
    gathers: u64,
}

fn total_contributions(rec: &ReceiverBundle) -> u64 {
    (0..rec.footprint.npts())
        .map(|id| rec.footprint.contributions(id).len() as u64)
        .sum()
}

fn fused_oracle(stencil: u64, src: &SourceBundle, rec: Option<&ReceiverBundle>, nt: u64) -> Oracle {
    Oracle {
        stencil,
        injections: src.pre.npts() as u64 * nt,
        gathers: rec.map(total_contributions).unwrap_or(0) * nt,
    }
}

/// Run one schedule under every thread cap and check the oracle plus
/// cross-policy determinism of every counter except `ParPublications`
/// (batch publication depends on how many workers actually wake).
fn check_schedule<F: FnMut(&Execution)>(
    mut run: F,
    schedule: Schedule,
    sparse: SparseMode,
    label: &str,
    oracle: &Oracle,
) {
    let mut per_policy: Vec<Vec<u64>> = Vec::new();
    for policy in POLICIES {
        let exec = Execution {
            schedule,
            sparse,
            policy,
            kernel: KernelPath::default(),
        };
        obs::reset();
        run(&exec);
        let p = obs::snapshot();
        assert_eq!(
            p.counter(Counter::StencilUpdates),
            oracle.stencil,
            "{label} {policy:?}: stencil updates"
        );
        assert_eq!(
            p.counter(Counter::SourceInjections),
            oracle.injections,
            "{label} {policy:?}: source injections"
        );
        assert_eq!(
            p.counter(Counter::ReceiverGathers),
            oracle.gathers,
            "{label} {policy:?}: receiver gathers"
        );
        // Every schedule runs on the one plan executor, whose tiles pass
        // through the ready state once — edge-free segments included.
        assert!(p.counter(Counter::WavefrontTiles) > 0, "{label}: no tiles");
        assert_eq!(
            p.counter(Counter::DataflowReady),
            p.counter(Counter::WavefrontTiles),
            "{label}: every tile must pass through the ready state once"
        );
        let mut counts: Vec<u64> = Counter::ALL.iter().map(|&c| p.counter(c)).collect();
        counts[Counter::ParPublications as usize] = 0;
        // Steal counts are timing-dependent (a worker only steals when its
        // own deque is dry); zero them before the cross-policy comparison.
        counts[Counter::DataflowSteals as usize] = 0;
        per_policy.push(counts);
    }
    for w in per_policy.windows(2) {
        assert_eq!(
            w[0], w[1],
            "{label}: counters must be identical across thread caps"
        );
    }
}

#[test]
fn acoustic_counts_match_oracle_for_all_schedules() {
    let _g = guard();
    let d = domain();
    let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(NT)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let rec = SparsePoints::receiver_line(&d, 4, 0.2);
    let mut s = Acoustic::new(&model, cfg, src, Some(rec));
    let oracle = fused_oracle(
        (N * N * N * NT) as u64,
        s.sources(),
        s.receivers(),
        NT as u64,
    );
    for (label, schedule, sparse) in schedules() {
        check_schedule(
            |e| {
                s.run(e);
            },
            schedule,
            sparse,
            label,
            &oracle,
        );
    }
}

#[test]
fn dsl_acoustic_counts_match_oracle_for_all_schedules() {
    // The symbolic acoustic operator steps through the same run path, so the
    // hand-written propagator's closed forms hold for it unchanged.
    let _g = guard();
    let mut s = common::AcousticDsl::centred(N, 4, NT, 0.37, 4).op;
    let oracle = fused_oracle(
        (N * N * N * NT) as u64,
        s.sources(),
        s.receivers(),
        NT as u64,
    );
    for (label, schedule, sparse) in schedules() {
        check_schedule(
            |e| {
                s.run(e);
            },
            schedule,
            sparse,
            label,
            &oracle,
        );
    }
}

#[test]
fn tti_counts_match_oracle_for_all_schedules() {
    let _g = guard();
    let d = Domain::uniform(Shape::cube(N), 20.0);
    let model = TtiModel::homogeneous(d, 2000.0, 0.2, 0.08, 0.4, 0.2);
    let cfg = SimConfig::new(d, 4, EquationKind::Tti, model.vmax(), 40.0)
        .with_nt(NT)
        .with_f0(15.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let rec = SparsePoints::receiver_line(&d, 3, 0.25);
    let mut s = Tti::new(&model, cfg, src, Some(rec));
    // The coupled p/q pair counts as one update per point per step.
    let oracle = fused_oracle(
        (N * N * N * NT) as u64,
        s.sources(),
        s.receivers(),
        NT as u64,
    );
    for (label, schedule, sparse) in schedules() {
        check_schedule(
            |e| {
                s.run(e);
            },
            schedule,
            sparse,
            label,
            &oracle,
        );
    }
}

#[test]
fn elastic_counts_match_oracle_for_all_schedules() {
    let _g = guard();
    let d = domain();
    let model = ElasticModel::homogeneous(d, 3000.0, 1400.0, 2300.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Elastic, 3000.0, 25.0)
        .with_nt(NT)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let rec = SparsePoints::receiver_line(&d, 3, 0.25);
    let mut s = Elastic::new(&model, cfg, src, Some(rec));
    // Two phases (velocity, stress) per timestep, each a full sweep;
    // injection fires once per masked point per timestep (stress phase),
    // gathers once per contribution per timestep (velocity phase).
    let oracle = fused_oracle(
        (N * N * N * 2 * NT) as u64,
        s.sources(),
        s.receivers(),
        NT as u64,
    );
    for (label, schedule, sparse) in schedules() {
        check_schedule(
            |e| {
                s.run(e);
            },
            schedule,
            sparse,
            label,
            &oracle,
        );
    }
}

#[test]
fn fused_sparse_telemetry_is_uniform_across_propagators() {
    // The fused sparse scheme is one routine for all three propagators, so
    // its telemetry cannot depend on which one runs: every propagator's
    // sparse work shows up as `Sparse` spans under a traced wave-front run,
    // and the scalar kernel path counts no pencil rows.
    let _g = guard();
    obs::trace::set_enabled(true);
    for mut s in common::solvers(4, NT, 0.37, 4) {
        let oracle = fused_oracle(0, s.sources(), s.receivers(), NT as u64);
        for kernel in [KernelPath::Scalar, KernelPath::default()] {
            let what = format!("{} {}", s.name(), kernel.label());
            let exec = Execution {
                schedule: Schedule::WavefrontDataflow {
                    tile_x: 8,
                    tile_y: 8,
                    tile_t: 3,
                    block_x: 4,
                    block_y: 4,
                },
                sparse: SparseMode::FusedCompressed,
                policy: Policy::Capped { threads: 2 },
                kernel,
            };
            let (_, p, _) = s.run_profiled(&exec);
            assert_eq!(
                p.counter(Counter::SourceInjections),
                oracle.injections,
                "{what}"
            );
            assert_eq!(
                p.counter(Counter::ReceiverGathers),
                oracle.gathers,
                "{what}"
            );
            assert!(
                p.trace.count(SpanKind::Sparse) >= 1,
                "{what}: no sparse span"
            );
            let rows = p.counter(Counter::PencilRows);
            if kernel.resolve() == Backend::Scalar {
                assert_eq!(rows, 0, "{what}: the scalar path runs no vector rows");
            } else {
                assert!(rows > 0, "{what}: vector backends count their rows");
            }
        }
    }
    obs::trace::set_enabled(false);
}

#[test]
fn classic_counts_once_per_footprint_nonzero() {
    let _g = guard();
    let d = domain();
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(NT)
        .with_f0(25.0);
    let src = SparsePoints::new(&d, vec![[43.0, 57.0, 61.0], [88.5, 71.0, 99.0]]);
    let rec = SparsePoints::receiver_line(&d, 5, 0.2);
    let mut s = Acoustic::new(&model, cfg, src, Some(rec));
    // Classic (Listing 1) injects per footprint nonzero of each source —
    // overlapping footprints count once per source, unlike the fused path's
    // deduplicated mask.
    let inj: u64 = s
        .sources()
        .pre
        .stencils
        .iter()
        .map(|st| st.nonzero().count() as u64)
        .sum();
    let gat: u64 = s
        .receivers()
        .unwrap()
        .footprint
        .stencils
        .iter()
        .map(|st| st.nonzero().count() as u64)
        .sum();
    let oracle = Oracle {
        stencil: (N * N * N * NT) as u64,
        injections: inj * NT as u64,
        gathers: gat * NT as u64,
    };
    check_schedule(
        |e| {
            s.run(e);
        },
        Schedule::SpaceBlocked {
            block_x: 8,
            block_y: 8,
        },
        SparseMode::Classic,
        "spaceblocked+classic",
        &oracle,
    );
}

#[test]
fn on_grid_points_give_literal_count_identity() {
    let _g = guard();
    let d = domain();
    // Points exactly on grid nodes (h = 10) have Kronecker footprints: one
    // affected point each, so the headline identities become literal:
    // injections == nsrc × nt and gathers == nrec × nt.
    let src = SparsePoints::new(&d, vec![[40.0, 50.0, 60.0], [80.0, 80.0, 80.0]]);
    let rec_pts: Vec<[f32; 3]> = (2..7).map(|i| [10.0 * i as f32, 70.0, 30.0]).collect();
    let nrec = rec_pts.len() as u64;
    let rec = SparsePoints::new(&d, rec_pts);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(NT)
        .with_f0(25.0);
    let mut s = Acoustic::new(&model, cfg, src, Some(rec));
    assert_eq!(
        s.sources().pre.npts(),
        2,
        "on-grid source mask must be Kronecker"
    );
    assert_eq!(
        total_contributions(s.receivers().unwrap()),
        nrec,
        "on-grid receivers must contribute exactly once each"
    );
    let oracle = Oracle {
        stencil: (N * N * N * NT) as u64,
        injections: 2 * NT as u64,
        gathers: nrec * NT as u64,
    };
    for (label, schedule, sparse) in schedules() {
        check_schedule(
            |e| {
                s.run(e);
            },
            schedule,
            sparse,
            label,
            &oracle,
        );
    }
}

#[test]
fn par_stress_seeded_irregular_batches_lose_nothing() {
    let _g = guard();
    let mut rng = Rng64::new(0x0b5e_4bab_5eed_0001);
    let progress = Progress::new();
    let mut total = 0u64;
    // 10k barriers with irregular (including empty) batch sizes across every
    // policy: the Progress counter and the per-worker ParTasks shards must
    // both account for every single item.
    for _ in 0..10_000 {
        let n = rng.range_usize(0, 33);
        let items: Vec<u64> = (0..n as u64).collect();
        let policy = match rng.range_usize(0, 4) {
            0 => Policy::Sequential,
            1 => Policy::Parallel,
            2 => Policy::Auto { min_items: 8 },
            _ => Policy::Capped {
                threads: 1 + rng.range_usize(0, 4),
            },
        };
        for_each(policy, &items, |v| {
            progress.add(1);
            std::hint::black_box(v);
        });
        total += n as u64;
    }
    assert_eq!(progress.get() as u64, total, "Progress lost updates");
    let p = obs::snapshot();
    assert_eq!(
        p.counter(Counter::ParTasks),
        total,
        "aggregated ParTasks must equal the number of dispatched items"
    );
    let shard_sum: u64 = p.threads.iter().map(|t| t.counter(Counter::ParTasks)).sum();
    assert_eq!(
        shard_sum, total,
        "per-worker shard counts must sum to total"
    );
}

#[test]
fn runtime_disabled_records_nothing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(false);
    obs::reset();
    let d = domain();
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(4)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.4);
    let mut s = Acoustic::new(&model, cfg, src, None);
    s.run(&Execution::wavefront_default().sequential());
    let p = obs::snapshot();
    assert!(
        Counter::ALL.iter().all(|&c| p.counter(c) == 0),
        "runtime-disabled profiling must record no counts"
    );
    assert!(
        SpanKind::ALL.iter().all(|&k| p.timer_ns(k) == 0),
        "runtime-disabled profiling must record no time"
    );
}

#[test]
fn disabled_profiling_costs_no_more_than_enabled() {
    // The real zero-overhead claim (no-`obs`-feature build vs instrumented
    // build) cannot be measured inside one binary; DESIGN.md §9 documents
    // that comparison. What *can* be locked down here: with the feature
    // compiled in but the runtime switch off, the instrumented hot loops
    // must not be slower than with it on (generous noise bound — CI boxes
    // jitter).
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let d = Domain::uniform(Shape::cube(32), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 50.0)
        .with_nt(8)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.4);
    let mut s = Acoustic::new(&model, cfg, src, None);
    let exec = Execution {
        schedule: Schedule::SpaceBlocked {
            block_x: 8,
            block_y: 8,
        },
        sparse: SparseMode::FusedCompressed,
        policy: Policy::Sequential,
        kernel: KernelPath::default(),
    };
    s.run(&exec); // warm-up
    let median = |on: bool, s: &mut Acoustic| {
        obs::set_enabled(on);
        obs::reset();
        let mut times: Vec<Duration> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                s.run(&exec);
                t0.elapsed()
            })
            .collect();
        times.sort();
        times[1]
    };
    let disabled = median(false, &mut s);
    let enabled = median(true, &mut s);
    assert!(
        disabled <= enabled * 3 + Duration::from_millis(20),
        "runtime-disabled profiling slower than enabled: {disabled:?} vs {enabled:?}"
    );
}
