//! Shared tune-and-measure logic for the harness binaries (§IV.C).
//!
//! The paper compares auto-tuned WTB against Devito's "aggressively tuned"
//! spatially blocked code, so both sides get a tuning sweep here: the
//! baseline over block shapes, WTB over the Table-I candidate grid.

use tempest_core::operator::{KernelPath, Schedule, SparseMode};
use tempest_core::{Execution, RunStats, WaveSolver};
use tempest_par::Policy;
use tempest_tiling::{autotune, spaceblock_candidates, Candidate, TuneResult};

/// Execution for a WTB candidate: the wave-front plan with fused sparse
/// operators.
pub fn exec_wavefront(c: &Candidate) -> Execution {
    Execution {
        schedule: Schedule::WavefrontDataflow {
            tile_x: c.tile_x,
            tile_y: c.tile_y,
            tile_t: c.tile_t,
            block_x: c.block_x,
            block_y: c.block_y,
        },
        sparse: SparseMode::FusedCompressed,
        policy: Policy::default(),
        kernel: KernelPath::default(),
    }
}

/// Execution for a spatially blocked baseline.
pub fn exec_spaceblocked(block_x: usize, block_y: usize) -> Execution {
    Execution {
        schedule: Schedule::SpaceBlocked { block_x, block_y },
        sparse: SparseMode::Classic,
        policy: Policy::default(),
        kernel: KernelPath::default(),
    }
}

/// Best-of-`repeats` measurement of one execution.
pub fn measure(s: &mut dyn WaveSolver, exec: &Execution, repeats: usize) -> RunStats {
    assert!(repeats >= 1);
    let mut best: Option<RunStats> = None;
    for _ in 0..repeats {
        let st = s.run(exec);
        if best.map(|b| st.elapsed < b.elapsed).unwrap_or(true) {
            best = Some(st);
        }
    }
    best.unwrap()
}

/// Tune the baseline block shape over the standard candidates. Each
/// candidate is timed twice and keeps its best time.
pub fn tune_baseline(s: &mut dyn WaveSolver) -> (usize, usize) {
    let shape = s.shape();
    let best = autotune(&spaceblock_candidates(shape.nx, shape.ny), |c| {
        let e = exec_spaceblocked(c.block_x, c.block_y);
        s.run(&e).elapsed.min(s.run(&e).elapsed)
    })
    .best;
    (best.block_x, best.block_y)
}

/// Tune WTB over `cands` using the given (short-`nt`) solver. Each
/// candidate is timed twice and keeps its best time — shared-machine noise
/// otherwise dominates short tuning runs.
pub fn tune_wavefront(s: &mut dyn WaveSolver, cands: &[Candidate]) -> TuneResult {
    autotune(cands, |c| {
        let e = exec_wavefront(c);
        let a = s.run(&e).elapsed;
        let b = s.run(&e).elapsed;
        a.min(b)
    })
}

/// WTB candidate grid for a tuning solver with `nt_tune` timesteps: every
/// temporal height must fit the run.
pub fn candidates_for(nx: usize, ny: usize, nt_tune: usize, quick: bool) -> Vec<Candidate> {
    let tile_ts: Vec<usize> = [4usize, 8, 16]
        .iter()
        .copied()
        .filter(|&t| t <= nt_tune)
        .collect();
    let tile_ts = if tile_ts.is_empty() { vec![2] } else { tile_ts };
    if quick {
        tempest_tiling::autotune::quick_candidates(nx, ny, &tile_ts)
    } else {
        tempest_tiling::autotune::default_candidates(nx, ny, &tile_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use std::time::Duration;

    #[test]
    fn tune_and_measure_roundtrip() {
        let mut tuner = setup::acoustic(16, 4, 8, 0);
        let cands = candidates_for(16, 16, 8, true);
        assert!(!cands.is_empty());
        let res = tune_wavefront(&mut tuner, &cands);
        assert!(res.best_time > Duration::ZERO);
        let (bx, by) = tune_baseline(&mut tuner);
        assert!(bx >= 4 && by >= 4);
        let st = measure(&mut tuner, &exec_spaceblocked(bx, by), 2);
        assert!(st.gpoints_per_s > 0.0);
    }

    #[test]
    fn candidates_map_to_their_plan_schedule() {
        let base = Candidate {
            tile_x: 16,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        assert!(matches!(
            exec_wavefront(&base).schedule,
            Schedule::WavefrontDataflow {
                tile_x: 16,
                tile_y: 8,
                tile_t: 4,
                ..
            }
        ));
    }
}
