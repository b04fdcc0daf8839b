//! Auto-tuning of tile and block shapes (paper §IV.C).
//!
//! "The parameter space for temporal blocking schemes is extensive … we
//! swept over the whole parameter space to find the global performance
//! maxima." This module provides the sweep: a candidate generator covering
//! the shapes the paper reports in Table I (tiles 32–256, blocks 4–16) plus
//! temporal heights, and a driver that times a user-supplied runner on each
//! candidate and returns the ranking.

use std::time::Duration;

/// One tunable schedule configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Candidate {
    /// Spatial tile extent along x.
    pub tile_x: usize,
    /// Spatial tile extent along y.
    pub tile_y: usize,
    /// Temporal tile height in *timesteps* (the runner converts to virtual
    /// steps for multi-phase propagators).
    pub tile_t: usize,
    /// Intra-slab block extent along x.
    pub block_x: usize,
    /// Intra-slab block extent along y.
    pub block_y: usize,
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile {}x{} t{} / block {}x{}",
            self.tile_x, self.tile_y, self.tile_t, self.block_x, self.block_y
        )
    }
}

/// Outcome of a tuning sweep.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The fastest candidate.
    pub best: Candidate,
    /// Its measured time.
    pub best_time: Duration,
    /// Every `(candidate, time)` pair measured, in sweep order.
    pub all: Vec<(Candidate, Duration)>,
}

/// The default sweep grid, pruned to the problem size.
///
/// Tiles ∈ {8, 16, 32, 64, 128, 256} (square, clipped to the grid),
/// temporal heights ∈ `tile_ts`, blocks ∈ {4, 8, 16} — a superset of the
/// ranges from which every Table I optimum is drawn. The small-tile end
/// matters on machines whose effective cache for temporal reuse is an L2 of
/// a few MB rather than a large LLC.
pub fn default_candidates(nx: usize, ny: usize, tile_ts: &[usize]) -> Vec<Candidate> {
    let mut out = Vec::new();
    let tiles = [8usize, 16, 32, 64, 128, 256];
    let blocks = [4usize, 8, 16];
    for &tx in &tiles {
        if tx > nx.max(32) {
            continue;
        }
        for &tt in tile_ts {
            for &bx in &blocks {
                if bx > tx {
                    continue;
                }
                out.push(Candidate {
                    tile_x: tx,
                    tile_y: tx.min(ny.max(32)),
                    tile_t: tt,
                    block_x: bx,
                    block_y: bx,
                });
            }
        }
    }
    out
}

/// A small sweep for quick runs (harness `--fast` mode and tests).
pub fn quick_candidates(nx: usize, ny: usize, tile_ts: &[usize]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &tx in &[8usize, 16, 64] {
        if tx > nx.max(32) {
            continue;
        }
        for &tt in tile_ts {
            out.push(Candidate {
                tile_x: tx,
                tile_y: tx.min(ny.max(32)),
                tile_t: tt,
                block_x: 8,
                block_y: 8,
            });
        }
    }
    out
}

/// Candidates for per-shot *space-blocked* solves — the schedule family the
/// survey engine tunes once per batch and reuses for every shot sharing the
/// model (its default is the `Schedule::SpaceBlocked` baseline, so only the
/// block shape is free). Tile fields are left at the whole-grid default;
/// `tile_t` stays 1.
pub fn spaceblock_candidates(nx: usize, ny: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &b in &[4usize, 8, 16, 32] {
        if b > nx.max(8) || b > ny.max(8) {
            continue;
        }
        out.push(Candidate {
            block_x: b,
            block_y: b,
            ..Candidate::default()
        });
    }
    out
}

/// Time every candidate with `runner` and return the ranking.
///
/// # Panics
/// If `candidates` is empty.
pub fn autotune<F>(candidates: &[Candidate], mut runner: F) -> TuneResult
where
    F: FnMut(&Candidate) -> Duration,
{
    assert!(!candidates.is_empty(), "no candidates to tune over");
    let mut all = Vec::with_capacity(candidates.len());
    for &c in candidates {
        let t = runner(&c);
        all.push((c, t));
    }
    let (best, best_time) = all
        .iter()
        .min_by_key(|(_, t)| *t)
        .map(|&(c, t)| (c, t))
        .unwrap();
    TuneResult {
        best,
        best_time,
        all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autotune_picks_minimum() {
        let cands = default_candidates(256, 256, &[8, 16]);
        assert!(!cands.is_empty());
        // Synthetic cost: prefer tile 64 / block 8 / tt 16.
        let res = autotune(&cands, |c| {
            let cost = (c.tile_x as i64 - 64).unsigned_abs()
                + (c.block_x as i64 - 8).unsigned_abs() * 10
                + (c.tile_t as i64 - 16).unsigned_abs();
            Duration::from_nanos(1000 + cost)
        });
        assert_eq!(res.best.tile_x, 64);
        assert_eq!(res.best.block_x, 8);
        assert_eq!(res.best.tile_t, 16);
        assert_eq!(res.all.len(), cands.len());
    }

    #[test]
    fn candidates_pruned_to_grid() {
        let cands = default_candidates(64, 64, &[8]);
        assert!(cands.iter().all(|c| c.tile_x <= 64));
        assert!(cands.iter().all(|c| c.block_x <= c.tile_x));
    }

    #[test]
    fn quick_sweep_is_small() {
        let q = quick_candidates(256, 256, &[8, 16]);
        assert!(q.len() <= 9);
        assert!(!q.is_empty());
    }

    #[test]
    fn display_formats() {
        let c = Candidate {
            tile_x: 64,
            tile_y: 64,
            tile_t: 8,
            block_x: 8,
            block_y: 8,
        };
        assert_eq!(format!("{c}"), "tile 64x64 t8 / block 8x8");
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_rejected() {
        let _ = autotune(&[], |_| Duration::ZERO);
    }
}
