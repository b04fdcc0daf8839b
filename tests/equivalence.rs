//! Cross-crate schedule-equivalence tests: the central correctness claim of
//! the reproduction. For every propagator and space order the paper
//! evaluates, every temporally blocked plan with precomputed fused sparse
//! operators must reproduce the spatially blocked baseline with classic
//! sparse operators — bitwise on the wavefield (identical per-point
//! arithmetic) and on the traces (one slot per footprint corner, summed in
//! corner order) — whatever the thread policy, and whether the tiles were
//! computed, captured into a cache, or restored from one.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{blocked_schedules, domain, solvers, trace_bitwise, N};
use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::tiling::legality::{check_plan, DepModel};
use tempest::tiling::TileCache;

const NT: usize = 12;

/// One row of the matrix per propagator × blocked schedule × policy ×
/// {plain, cold-cached, warm-cached}, with fused sparse operators. Every
/// cell's field and trace must equal sequential SpaceBlocked + classic bit
/// for bit: that pins every thread cap against sequential, fused injection
/// and gathers against the classic operators, and restored tiles' replayed
/// gathers against computed ones.
fn matrix(so: usize, policies: &[Policy]) {
    for mut s in solvers(so, NT, 0.37, 4) {
        s.run(&Execution::baseline().sequential());
        let (f_ref, t_ref) = (s.final_field(), s.trace().unwrap());
        assert!(
            f_ref.max_abs() > 0.0,
            "{} so{so}: field must be excited",
            s.name()
        );
        for (sched, schedule) in blocked_schedules(s.radius(), s.phases()) {
            for &policy in policies {
                let exec = Execution {
                    schedule,
                    sparse: SparseMode::FusedCompressed,
                    policy,
                    kernel: KernelPath::default(),
                };
                let cache = TileCache::with_capacity_mb(64);
                for mode in ["plain", "cold-cached", "warm-cached"] {
                    let what = format!("{} so{so} {sched} {policy:?} {mode}", s.name());
                    if mode == "plain" {
                        s.run(&exec);
                    } else {
                        let rep = s.run_incremental(&exec, &cache, 0);
                        assert!(rep.total_tiles > 0, "{what}: no tiles enumerated");
                        assert_eq!(rep.cold, mode == "cold-cached", "{what}");
                        let reused = if rep.cold { 0 } else { rep.total_tiles };
                        assert_eq!(rep.reused, reused, "{what}");
                        assert_eq!(rep.reused + rep.recomputed, rep.total_tiles, "{what}");
                    }
                    let f = s.final_field();
                    assert!(
                        f_ref.bit_equal(&f),
                        "{what}: max diff {}",
                        f_ref.max_abs_diff(&f)
                    );
                    trace_bitwise(&t_ref, &s.trace().unwrap(), &what);
                }
            }
        }
    }
}

#[test]
fn every_cell_matches_sequential_spaceblocked_classic() {
    matrix(
        4,
        &[
            Policy::Sequential,
            Policy::Parallel,
            Policy::Capped { threads: 1 },
            Policy::Capped { threads: 2 },
            Policy::Capped { threads: 4 },
        ],
    );
}

#[test]
fn higher_space_orders_match_too() {
    // SO 10 is acoustic alone: radius 5 has no monomorphised Laplacian, so
    // the one step body runs the dynamic-radius row.
    for so in [8usize, 10, 12] {
        matrix(so, &[Policy::Sequential, Policy::Parallel]);
    }
}

#[test]
fn classic_sparse_is_rejected_under_every_blocked_schedule() {
    // `run` must refuse the Fig. 4b hazard itself, for every propagator.
    for mut s in solvers(4, 4, 0.37, 0) {
        for (sched, schedule) in blocked_schedules(s.radius(), s.phases()) {
            let exec = Execution {
                schedule,
                sparse: SparseMode::Classic,
                ..Execution::wavefront_default()
            };
            let err = catch_unwind(AssertUnwindSafe(|| s.run(&exec)))
                .expect_err("classic sparse under temporal blocking must panic");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(msg.contains("Fig. 4b"), "{} {sched}: {msg}", s.name());
        }
    }
}

/// Every plan the matrix runs is sound for rings that update their oldest
/// level in place: a written value survives two virtual steps — a two-level
/// leap-frog ring, or one level per field of a two-phase staggered update —
/// and the plan checker certifies every row at that depth, for every radius
/// the matrix steps.
#[test]
fn every_blocked_plan_is_legal_for_in_place_rings() {
    let shape = Shape::cube(N);
    for radius in [2, 4, 5, 6] {
        for phases in [1, 2] {
            for (sched, schedule) in blocked_schedules(radius, phases) {
                let exec = Execution {
                    schedule,
                    ..Execution::wavefront_default()
                };
                let plan = exec.plan(shape, NT, radius, phases);
                let model = DepModel { radius, levels: 2 };
                assert_eq!(
                    check_plan(shape, model, &plan),
                    Ok(()),
                    "{sched}: radius {radius}, {phases} phases"
                );
            }
        }
    }
}

fn wavefront(tile: (usize, usize), tile_t: usize, block: (usize, usize)) -> Execution {
    Execution {
        schedule: Schedule::WavefrontDataflow {
            tile_x: tile.0,
            tile_y: tile.1,
            tile_t,
            block_x: block.0,
            block_y: block.1,
        },
        ..Execution::wavefront_default().sequential()
    }
}

#[test]
fn many_sources_with_shared_footprints_agree() {
    // Dense sources share affected grid points; fused accumulation order
    // differs from classic per-source order → tolerance, not bitwise.
    let d = domain(10.0);
    let model = Model::random(d, 1600.0, 2600.0, 3);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2600.0, 40.0)
        .with_nt(10)
        .with_f0(25.0);
    let src = SparsePoints::dense_layout(&d, 27, 0.5);
    let mut s = Acoustic::new(&model, cfg, src, None);
    s.run(&Execution::baseline().sequential());
    let base = s.final_field();
    let mut exec = wavefront((8, 8), 4, (4, 4));
    s.run(&exec);
    let f = s.final_field();
    let scale = base.max_abs().max(1e-30);
    assert!(
        base.max_abs_diff(&f) <= 1e-4 * scale,
        "rel diff {}",
        base.max_abs_diff(&f) / scale
    );
    // Concurrent tiles sharing affected pencils still agree bitwise with
    // the sequential order of the same plan.
    exec.policy = Policy::Parallel;
    s.run(&exec);
    assert!(
        f.bit_equal(&s.final_field()),
        "parallel multi-source must be bitwise"
    );
}

#[test]
fn spaceblocked_fused_matches_classic() {
    // The fused sparse path is also legal under plain spatial blocking —
    // an ablation the paper's scheme enables (sources become grid-aligned
    // regardless of schedule).
    let d = domain(10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 40.0)
        .with_nt(10)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let mut s = Acoustic::new(&model, cfg, src, None);
    let mut classic = Execution::baseline().sequential();
    classic.sparse = SparseMode::Classic;
    s.run(&classic);
    let f_classic = s.final_field();
    let mut fused = Execution::baseline().sequential();
    fused.sparse = SparseMode::FusedCompressed;
    s.run(&fused);
    let f_fused = s.final_field();
    assert!(f_classic.bit_equal(&f_fused));
}

#[test]
fn tile_shape_never_changes_results() {
    // Property-style sweep over eccentric tile shapes, incl. tiles larger
    // than the grid and temporal tiles longer than nt.
    let d = domain(10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 8, EquationKind::Acoustic, 2000.0, 40.0)
        .with_nt(9)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, 0.37);
    let mut s = Acoustic::new(&model, cfg, src, None);
    s.run(&Execution::baseline().sequential());
    let base = s.final_field();
    for (tile, tt, block) in [
        ((5usize, 7usize), 2usize, (3usize, 5usize)),
        ((64, 64), 32, (16, 16)),
        ((N, N), NT, (N, N)),
        ((4, 32), 5, (4, 8)),
    ] {
        s.run(&wavefront(tile, tt, block));
        let f = s.final_field();
        assert!(
            base.bit_equal(&f),
            "tile {tile:?} t{tt} block {block:?} diverged: {}",
            base.max_abs_diff(&f)
        );
    }
}
