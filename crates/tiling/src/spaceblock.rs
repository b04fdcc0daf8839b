//! Rectangular spatial blocking (paper Fig. 4a) — the baseline schedule.
//!
//! Every timestep sweeps the full grid as a set of `(block_x, block_y)` ×
//! full-`z` blocks; blocks of one timestep are independent and run in
//! parallel. An `after_step` hook runs between timesteps — this is where the
//! classic (Listing 1) sparse source injection and receiver interpolation
//! live, which is exactly why this schedule tolerates them: "sparse
//! operators fit within space blocking as their effect is imposed after all
//! points have been updated".

use tempest_grid::{Range3, Shape};
use tempest_obs as obs;
use tempest_par::{FlushGuard, Policy};

/// Block shape of the spatially blocked schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceBlockSpec {
    /// Block extent along x.
    pub block_x: usize,
    /// Block extent along y.
    pub block_y: usize,
}

impl SpaceBlockSpec {
    /// Create a block spec; extents must be non-zero.
    pub fn new(block_x: usize, block_y: usize) -> Self {
        assert!(block_x > 0 && block_y > 0, "block extents must be non-zero");
        SpaceBlockSpec { block_x, block_y }
    }

    /// The blocks of one full-grid sweep.
    pub fn blocks(&self, shape: Shape) -> Vec<Range3> {
        shape.full_range().split_xy(self.block_x, self.block_y)
    }
}

/// Execute `nvt` virtual timesteps under spatial blocking.
///
/// For each `vt` in `0..nvt`: run `step(vt, block)` over all blocks (in
/// parallel under `policy`), then `after_step(vt)` on the calling thread.
/// The whole sweep runs in flush mode ([`FlushGuard`]): `after_step` is the
/// classic sparse operators, which read the field the blocks just wrote.
pub fn execute<S, A>(
    shape: Shape,
    nvt: usize,
    spec: SpaceBlockSpec,
    policy: Policy,
    step: S,
    mut after_step: A,
) where
    S: Fn(usize, &Range3) + Sync + Send,
    A: FnMut(usize),
{
    let _fp = FlushGuard::enter();
    let blocks = spec.blocks(shape);
    for vt in 0..nvt {
        let _sp = obs::span(obs::SpanKind::Sweep, obs::SpanArgs::step(vt));
        tempest_par::for_each(policy, &blocks, |b| step(vt, b));
        after_step(vt);
        obs::add(obs::Counter::SpaceSweeps, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn blocks_partition_grid() {
        let s = Shape::new(10, 7, 5);
        let spec = SpaceBlockSpec::new(4, 3);
        let blocks = spec.blocks(s);
        let covered: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(covered, s.len());
        for b in &blocks {
            assert_eq!((b.z0, b.z1), (0, 5), "z stays whole");
        }
    }

    #[test]
    fn execute_visits_each_point_once_per_step() {
        let s = Shape::new(8, 8, 4);
        let spec = SpaceBlockSpec::new(3, 5);
        let count = AtomicUsize::new(0);
        let after = Mutex::new(Vec::new());
        execute(
            s,
            3,
            spec,
            Policy::Sequential,
            |_vt, b| {
                count.fetch_add(b.len(), Ordering::Relaxed);
            },
            |vt| after.lock().unwrap().push(vt),
        );
        assert_eq!(count.load(Ordering::Relaxed), 3 * s.len());
        assert_eq!(*after.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn after_step_runs_after_all_blocks_of_that_step() {
        // Track a per-step block count; after_step must observe the full
        // count of its own step.
        let s = Shape::new(16, 16, 2);
        let spec = SpaceBlockSpec::new(4, 4);
        let nblocks = spec.blocks(s).len();
        let in_step = AtomicUsize::new(0);
        let mut seen = Vec::new();
        {
            let seen_ref = &mut seen;
            execute(
                s,
                2,
                spec,
                Policy::Parallel,
                |_vt, _b| {
                    in_step.fetch_add(1, Ordering::SeqCst);
                },
                |_vt| {
                    seen_ref.push(in_step.swap(0, Ordering::SeqCst));
                },
            );
        }
        assert_eq!(seen, vec![nblocks, nblocks]);
    }

    #[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
    #[test]
    fn blocks_and_after_step_run_in_flush_mode() {
        use tempest_par::subnormals_flushed;
        let s = Shape::new(16, 16, 2);
        for policy in [Policy::Sequential, Policy::Parallel] {
            let gradual = AtomicUsize::new(0);
            let check = || {
                if !subnormals_flushed() {
                    gradual.fetch_add(1, Ordering::Relaxed);
                }
            };
            execute(
                s,
                2,
                SpaceBlockSpec::new(4, 4),
                policy,
                |_, _| check(),
                |_| check(),
            );
            assert_eq!(gradual.into_inner(), 0, "{policy:?}");
            assert!(
                !subnormals_flushed(),
                "{policy:?}: the caller was left in flush mode"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_blocks() {
        let _ = SpaceBlockSpec::new(0, 4);
    }
}
