//! Tile plan → executor: the inspector/executor split of every schedule
//! (DESIGN.md §8).
//!
//! Every schedule is a *plan constructor*: it enumerates its space-time
//! tiles, cuts each into per-step slabs and records the exact
//! flow-dependence edges between tiles. The result is one schedule-agnostic
//! [`TilePlan`] — built from the wave-front graph ([`TilePlan::wavefront`])
//! or the space-blocked schedule mapped onto its `tile_t = 1` wave-front
//! degeneration ([`TilePlan::spaceblocked`]).
//!
//! [`execute_plan`] is the one executor: it hands the plan's graph to
//! `tempest_par::run_dataflow` (dependency counters, per-worker stealing
//! deques, a single join per sweep) and, inside each node, steps the slabs in
//! ascending `vt`, each cut into `(block_x, block_y)` cache blocks. Every
//! z-pencil is computed whole at each step whatever the plan, so all plans
//! produce bitwise-identical wavefields. Both constructors end *flat* — every
//! node finishes at the plan's last step — so a run splits into segments,
//! each a plan of its own started at the segment's first virtual step. An
//! optional [`TileStore`] turns a sweep into an incremental one: a node the
//! store can restore is not stepped, and every stepped slab is offered to the
//! store right after its step calls return — before a later slab of the same
//! node can overwrite the ring slot it wrote.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

use tempest_grid::{Range3, Shape};
use tempest_obs as obs;
use tempest_obs::{SpanArgs, SpanKind};
use tempest_par::{DepGraph, FlushGuard, Policy};

use crate::wavefront::{tile_graph, tile_slab, Slab, WavefrontSpec};

/// A schedule-agnostic snapshot of one sweep's tile structure: per-node
/// slabs in ascending `vt` plus the exact dependency edges. The executor,
/// the legality checker and all incremental machinery (cone marking,
/// caching) work on this one shape. Virtual steps are relative to the
/// sweep's start.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Per-node slabs, ascending `vt`. Node order is the constructor's
    /// enumeration order, which is a topological order of `preds`.
    pub slabs: Vec<Vec<Slab>>,
    /// `preds[i]` — nodes whose outputs node `i` reads (sorted, deduped).
    pub preds: Vec<Vec<u32>>,
    /// The same edges as the executor walks them: `graph.succs(i)` are the
    /// nodes reading node `i`'s output (the cone edges).
    pub graph: DepGraph,
    /// Per-node trace-span arguments: the tile's schedule coordinates and
    /// virtual-step range.
    pub labels: Vec<SpanArgs>,
    /// Intra-slab block extent along x.
    pub block_x: usize,
    /// Intra-slab block extent along y.
    pub block_y: usize,
    /// Virtual steps of the sweep.
    pub nvt: usize,
    /// The stencil's dependency radius per virtual step the edges were built
    /// from: how far a change travels in x and y per step (the dirty cone's
    /// slope).
    pub radius: usize,
    /// Digest of the schedule geometry (kind, spec, shape, nvt, radius) —
    /// folded into cache session keys so plans with different tilings never
    /// share entries.
    pub geometry: u64,
}

fn hash_u64(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

impl TilePlan {
    /// Plan of a wave-front sweep: nodes and edges from [`tile_graph`],
    /// slabs from [`tile_slab`]. `radius` must be the stencil's true
    /// dependency radius (and `spec.skew ≥ radius`): it defines the read
    /// halo the edges are built from.
    pub fn wavefront(shape: Shape, nvt: usize, spec: &WavefrontSpec, radius: usize) -> Self {
        let (tiles, preds) = tile_graph(shape, nvt, spec, radius);
        let slabs = tiles
            .iter()
            .map(|t| {
                (t.t0..t.t1)
                    .filter_map(|vt| tile_slab(shape, spec, t, vt))
                    .collect()
            })
            .collect();
        let labels = tiles
            .iter()
            .map(|t| SpanArgs::tile(t.diagonal(), t.xt, t.yt, t.t0, t.t1))
            .collect();
        let geometry = hash_u64(&[
            1,
            shape.nx as u64,
            shape.ny as u64,
            shape.nz as u64,
            nvt as u64,
            radius as u64,
            spec.tile_x as u64,
            spec.tile_y as u64,
            spec.tile_t as u64,
            spec.skew as u64,
            spec.block_x as u64,
            spec.block_y as u64,
        ]);
        TilePlan {
            slabs,
            graph: DepGraph::from_preds(&preds),
            preds,
            labels,
            block_x: spec.block_x,
            block_y: spec.block_y,
            nvt,
            radius,
            geometry,
        }
    }

    /// Plan of the space-blocked schedule (paper Fig. 4a), mapped onto its
    /// exact `tile_t=1` wavefront degeneration: one node per `(vt, block)`,
    /// with skew-free slabs (at tile height 1 no skew ever applies) that are
    /// exactly the `(block_x, block_y)` × full-`z` blocks of a per-step
    /// sweep. The inter-step barrier becomes the exact dependency edges.
    /// Run as one segment per timestep it is the per-step sweep itself, and
    /// the classic sparse operators run between the segments.
    pub fn spaceblocked(
        shape: Shape,
        nvt: usize,
        block_x: usize,
        block_y: usize,
        radius: usize,
    ) -> Self {
        let spec = WavefrontSpec::new(block_x, block_y, 1, radius.max(1), block_x, block_y);
        let mut plan = Self::wavefront(shape, nvt, &spec, radius);
        // Distinguish the mapping from a genuine tile_t=1 wavefront run.
        plan.geometry = hash_u64(&[3, plan.geometry]);
        plan
    }

    /// Number of tile nodes.
    pub fn len(&self) -> usize {
        self.slabs.len()
    }

    /// Whether the plan has no nodes (`nvt == 0`).
    pub fn is_empty(&self) -> bool {
        self.slabs.is_empty()
    }
}

/// The two hooks a per-tile result store adds to a plan sweep. Both run
/// inside the node's own dataflow task, ordered by the plan's edges like the
/// step calls they stand in for. A restored node need not leave its whole
/// output in the wavefield; the store's obligation is that every cell a
/// computed node reads holds what a computed node would have left there
/// (DESIGN.md §16, "what a restore writes").
pub trait TileStore: Sync {
    /// Try to stand in for computing node `node`: replay its read-only side
    /// effects (receiver gathers) and write as much of its stored output
    /// into the wavefield as a later reader needs. `false` means the
    /// executor must compute the node.
    fn restore(&self, node: usize) -> bool;

    /// Record what slab `slab` (an index into `plan.slabs[node]`) just
    /// wrote. Called right after the slab's step calls return, before the
    /// node's next slab runs and before its successors are released.
    fn capture(&self, node: usize, slab: usize);
}

/// Tallies of one plan sweep. `reused + recomputed == total` always — the
/// exact-count oracle the tests (and the obs counters `TilesReused` /
/// `TilesRecomputed`) pin. Without a store every node is recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalOutcome {
    /// Tile nodes enumerated by the plan.
    pub total: usize,
    /// Nodes restored from the store.
    pub reused: usize,
    /// Nodes computed.
    pub recomputed: usize,
}

/// Run one sweep over `plan`, started at virtual step `vt0`:
/// `step(vt, region)` computes `region` at the absolute virtual step
/// `vt = vt0 + slab.vt`, and is called for every block of every slab of
/// every node the `store` does not restore, never before all of the node's
/// predecessors completed. Returns only when every node completed — the one
/// join of the sweep. Span labels carry absolute steps too; the store's
/// hooks see the plan's own node and slab indices.
///
/// The plan's graph must be acyclic ([`crate::legality::check_plan`]).
/// Every node — restored or computed — executes as a dataflow task, so the
/// scheduling counters (`ParTasks`, `DataflowReady`) are the same with and
/// without a store. The whole sweep, store hooks included, runs in flush
/// mode ([`FlushGuard`]).
pub fn execute_plan<S>(
    plan: &TilePlan,
    vt0: usize,
    policy: Policy,
    step: S,
    store: Option<&dyn TileStore>,
) -> IncrementalOutcome
where
    S: Fn(usize, &Range3) + Sync + Send,
{
    let _fp = FlushGuard::enter();
    let reused = AtomicUsize::new(0);
    let label = |i: usize| SpanArgs {
        t0: plan.labels[i].t0 + vt0 as i32,
        t1: plan.labels[i].t1 + vt0 as i32,
        ..plan.labels[i]
    };
    // One caller-side span for the whole sweep: its `BarrierWait` share is
    // the executor's idle time.
    let _dsp = obs::span(
        SpanKind::Dataflow,
        SpanArgs {
            t0: vt0 as i32,
            t1: (vt0 + plan.nvt) as i32,
            ..Default::default()
        },
    );
    tempest_par::run_dataflow(policy, &plan.graph, |i| {
        if let Some(st) = store {
            let mut sp = obs::span(SpanKind::CacheRestore, label(i));
            if st.restore(i) {
                obs::add(obs::Counter::TilesReused, 1);
                reused.fetch_add(1, Ordering::Relaxed);
                return;
            }
            sp.cancel();
        }
        let _sp = obs::span(SpanKind::Tile, label(i));
        for (s, slab) in plan.slabs[i].iter().enumerate() {
            for b in slab.range.split_xy(plan.block_x, plan.block_y) {
                step(vt0 + slab.vt, &b);
            }
            if let Some(st) = store {
                st.capture(i, s);
            }
        }
        obs::add(obs::Counter::WavefrontTiles, 1);
        if store.is_some() {
            obs::add(obs::Counter::TilesRecomputed, 1);
        }
    });
    let reused = reused.into_inner();
    IncrementalOutcome {
        total: plan.len(),
        reused,
        recomputed: plan.len() - reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavefront::dilate_xy;
    use std::sync::Mutex;

    fn plan_of(spec: WavefrontSpec) -> TilePlan {
        TilePlan::wavefront(Shape::new(23, 17, 4), 11, &spec, 2)
    }

    fn wf_plan() -> TilePlan {
        plan_of(WavefrontSpec::new(8, 8, 4, 2, 4, 4))
    }

    /// Non-square tiles and blocks: an x/y transposition in slabs or edges
    /// cannot cancel out.
    fn wf_xy_plan() -> TilePlan {
        plan_of(WavefrontSpec::new(8, 12, 4, 2, 4, 2))
    }

    #[test]
    fn plan_edges_are_consistent() {
        for plan in [wf_plan(), wf_xy_plan()] {
            assert!(!plan.is_empty());
            assert_eq!(plan.labels.len(), plan.len());
            for (i, ps) in plan.preds.iter().enumerate() {
                for &p in ps {
                    assert!((p as usize) < i, "node order must be topological");
                    assert!(
                        plan.graph.succs(p as usize).contains(&(i as u32)),
                        "succ list of {p} misses {i}"
                    );
                }
                assert_eq!(plan.graph.pred_count(i), ps.len());
            }
            let nedges: usize = plan.preds.iter().map(Vec::len).sum();
            let nsuccs: usize = (0..plan.len()).map(|i| plan.graph.succs(i).len()).sum();
            assert_eq!(nedges, nsuccs);
        }
    }

    #[test]
    fn spaceblocked_plan_has_one_node_per_step_and_block() {
        let shape = Shape::new(16, 16, 3);
        let plan = TilePlan::spaceblocked(shape, 4, 8, 8, 2);
        assert_eq!(plan.len(), 4 * 4); // 4 steps × 2×2 blocks
        for slabs in &plan.slabs {
            assert_eq!(slabs.len(), 1);
            // Skew-free: every slab is exactly one (8, 8) block.
            let r = &slabs[0].range;
            assert_eq!((r.x1 - r.x0, r.y1 - r.y0), (8, 8));
        }
    }

    #[test]
    fn blocks_partition_the_domain_under_every_policy() {
        let shape = Shape::new(20, 14, 3);
        let nvt = 7;
        let plans = [
            TilePlan::wavefront(shape, nvt, &WavefrontSpec::new(8, 8, 3, 2, 3, 4), 2),
            TilePlan::wavefront(shape, nvt, &WavefrontSpec::new(8, 12, 3, 2, 3, 4), 2),
            TilePlan::spaceblocked(shape, nvt, 3, 5, 2),
        ];
        // Started mid-run: the step sees absolute virtual steps.
        let vt0 = 5;
        for plan in &plans {
            for policy in [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 2 },
            ] {
                let per_vt: Vec<AtomicUsize> = (0..nvt).map(|_| AtomicUsize::new(0)).collect();
                let out = execute_plan(
                    plan,
                    vt0,
                    policy,
                    |vt, b| {
                        assert_eq!((b.z0, b.z1), (0, shape.nz), "z stays whole");
                        per_vt[vt - vt0].fetch_add(b.len(), Ordering::Relaxed);
                    },
                    None,
                );
                assert!(per_vt.into_iter().all(|n| n.into_inner() == shape.len()));
                assert_eq!((out.reused, out.recomputed), (0, plan.len()));
            }
        }
    }

    #[test]
    fn never_steps_a_point_before_its_halo() {
        // Dynamic check of the flow-dependence rule under the parallel
        // executor: when a block advances to step vt, every point in its
        // radius-dilated halo must have completed vt - 1 (and the block's
        // own points exactly vt - 1). The sweep runs whole and as segments
        // whose boundaries cut time tiles; every segment must end flat.
        let shape = Shape::new(23, 17, 4);
        let (radius, nvt) = (2usize, 11);
        for spec in [
            WavefrontSpec::new(8, 8, 4, 2, 4, 4),
            WavefrontSpec::new(8, 12, 4, 2, 4, 2),
            WavefrontSpec::new(3, 5, 1, 2, 3, 5),
        ] {
            for cuts in [vec![0, nvt], vec![0, 5, 6, nvt]] {
                let progress = Mutex::new(vec![vec![-1i64; shape.ny]; shape.nx]);
                for seg in cuts.windows(2) {
                    let plan = TilePlan::wavefront(shape, seg[1] - seg[0], &spec, radius);
                    execute_plan(
                        &plan,
                        seg[0],
                        Policy::Parallel,
                        |vt, b| {
                            let mut g = progress.lock().unwrap();
                            let want = vt as i64 - 1;
                            let halo = dilate_xy(b, radius, shape);
                            for x in halo.x0..halo.x1 {
                                for y in halo.y0..halo.y1 {
                                    let at = g[x][y];
                                    assert!(at >= want, "halo ({x},{y}) at {at} < {want}");
                                }
                            }
                            for x in b.x0..b.x1 {
                                for y in b.y0..b.y1 {
                                    assert_eq!(g[x][y], want, "write point ({x},{y})");
                                    g[x][y] = vt as i64;
                                }
                            }
                        },
                        None,
                    );
                    let g = progress.lock().unwrap();
                    let last = seg[1] as i64 - 1;
                    assert!(g.iter().flatten().all(|&v| v == last), "{spec:?} {seg:?}");
                }
            }
        }
    }

    /// A store that restores every third node and logs its hook calls.
    struct Probe {
        /// `(node, slab)` per capture call, and the number of step calls
        /// seen when it fired.
        captures: Mutex<Vec<(usize, usize, usize)>>,
        restored: AtomicUsize,
        steps: AtomicUsize,
    }

    impl TileStore for Probe {
        fn restore(&self, node: usize) -> bool {
            let hit = node.is_multiple_of(3);
            if hit {
                self.restored.fetch_add(1, Ordering::Relaxed);
            }
            hit
        }

        fn capture(&self, node: usize, slab: usize) {
            let steps = self.steps.load(Ordering::Relaxed);
            self.captures.lock().unwrap().push((node, slab, steps));
        }
    }

    #[test]
    fn store_hooks_fire_per_slab_and_counts_are_exact() {
        let plan = wf_plan();
        let probe = Probe {
            captures: Mutex::new(Vec::new()),
            restored: AtomicUsize::new(0),
            steps: AtomicUsize::new(0),
        };
        let out = execute_plan(
            &plan,
            0,
            Policy::Sequential,
            |_vt, _b| {
                probe.steps.fetch_add(1, Ordering::Relaxed);
            },
            Some(&probe),
        );
        let expected_reused = (0..plan.len()).filter(|i| i.is_multiple_of(3)).count();
        assert_eq!(out.total, plan.len());
        assert_eq!(out.reused, expected_reused);
        assert_eq!(out.reused + out.recomputed, out.total);
        assert_eq!(probe.restored.into_inner(), expected_reused);
        // Every slab of every computed node is captured once, in slab order,
        // right after its own blocks were stepped — not after the whole tile.
        let captures = probe.captures.into_inner().unwrap();
        let mut expect = Vec::new();
        let mut steps = 0usize;
        // Sequential Kahn order may differ from node order; replay it from
        // the capture log's node sequence.
        let mut seen_nodes: Vec<usize> = captures.iter().map(|c| c.0).collect();
        seen_nodes.dedup();
        for &i in &seen_nodes {
            assert!(!i.is_multiple_of(3), "restored nodes are never captured");
            for (s, slab) in plan.slabs[i].iter().enumerate() {
                steps += slab.range.split_xy(plan.block_x, plan.block_y).len();
                expect.push((i, s, steps));
            }
        }
        assert_eq!(captures, expect);
        assert_eq!(seen_nodes.len(), plan.len() - expected_reused);
    }

    #[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
    mod flush_mode {
        use super::*;
        use tempest_par::subnormals_flushed;

        /// Counts the step calls and store hooks that fire outside flush mode.
        struct ModeProbe(AtomicUsize);

        impl ModeProbe {
            fn check(&self) {
                if !subnormals_flushed() {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        impl TileStore for ModeProbe {
            fn restore(&self, node: usize) -> bool {
                self.check();
                node.is_multiple_of(3)
            }

            fn capture(&self, _node: usize, _slab: usize) {
                self.check();
            }
        }

        #[test]
        fn steps_and_store_hooks_run_in_flush_mode() {
            for plan in [wf_plan(), wf_xy_plan()] {
                for policy in [Policy::Sequential, Policy::Parallel] {
                    let probe = ModeProbe(AtomicUsize::new(0));
                    execute_plan(&plan, 0, policy, |_, _| probe.check(), Some(&probe));
                    assert_eq!(probe.0.into_inner(), 0, "{policy:?}");
                    assert!(
                        !subnormals_flushed(),
                        "{policy:?}: the caller was left in flush mode"
                    );
                }
            }
        }
    }
}
