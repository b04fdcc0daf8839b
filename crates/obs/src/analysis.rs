//! Derived trace analysis: per-diagonal load balance, barrier-wait
//! distribution, and a critical-path estimate.
//!
//! The wavefront win lives or dies on load balance across same-diagonal
//! tiles (Malas et al.; PAPERS.md): a diagonal only finishes when its
//! slowest tile does, so the schedule's wall-clock floor is the sum over
//! diagonals of the *max* tile span, while perfect balance would cost the
//! sum of *means*. This module folds a [`Trace`] into exactly those numbers
//! so examples and `tempest-report` can print/serialise them next to the
//! aggregate phase table.

use std::fmt::Write as _;

use crate::trace::{SpanKind, Trace};

/// Load statistics for one (time-tile, anti-diagonal) group of tile spans.
#[derive(Clone, Debug)]
pub struct DiagonalLoad {
    /// First virtual timestep of the time-tile the diagonal belongs to.
    pub t0: i32,
    /// Anti-diagonal index `tx + ty`.
    pub diagonal: i32,
    /// Tiles executed on this diagonal.
    pub tiles: usize,
    pub mean_ns: f64,
    pub max_ns: u64,
}

impl DiagonalLoad {
    /// Max/mean tile span: 1.0 is perfect balance; large values mean one
    /// straggler tile gates the whole diagonal.
    pub fn imbalance(&self) -> f64 {
        if self.mean_ns > 0.0 {
            self.max_ns as f64 / self.mean_ns
        } else {
            0.0
        }
    }
}

/// Histogram of barrier-wait span durations in decade buckets.
#[derive(Clone, Debug, Default)]
pub struct BarrierHistogram {
    /// `(bucket upper bound in ns, count)`; the last bucket is unbounded.
    pub buckets: Vec<(u64, usize)>,
    pub count: usize,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl BarrierHistogram {
    const BOUNDS: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    fn from_durations(durs: &[u64]) -> Self {
        let mut buckets: Vec<(u64, usize)> = Self::BOUNDS.iter().map(|&b| (b, 0)).collect();
        buckets.push((u64::MAX, 0));
        let mut total = 0u64;
        let mut max = 0u64;
        for &d in durs {
            total += d;
            max = max.max(d);
            let slot = buckets
                .iter()
                .position(|&(bound, _)| d < bound)
                .unwrap_or(buckets.len() - 1);
            buckets[slot].1 += 1;
        }
        BarrierHistogram {
            buckets,
            count: durs.len(),
            total_ns: total,
            max_ns: max,
        }
    }
}

/// Everything derived from one [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceAnalysis {
    /// Per-(time-tile, diagonal) load groups, in execution order.
    pub diagonals: Vec<DiagonalLoad>,
    /// Worst max/mean across groups with ≥ 2 tiles (1.0 if none).
    pub worst_imbalance: f64,
    /// Mean of the per-group imbalances over groups with ≥ 2 tiles.
    pub mean_imbalance: f64,
    /// Lower bound on schedule wall-clock with unlimited threads: the sum
    /// over diagonal groups of the slowest tile (0 without tile spans).
    pub critical_path_ns: u64,
    /// Total tile work (sum of all tile spans) — the perfectly-parallel
    /// floor for comparison against the critical path.
    pub total_tile_ns: u64,
    pub barrier: BarrierHistogram,
    /// Spans dropped by ring overflow (copied from the trace).
    pub dropped: u64,
}

impl TraceAnalysis {
    pub fn from_trace(trace: &Trace) -> Self {
        // Group tile spans by (time-tile start, diagonal).
        let mut groups: Vec<(i32, i32, Vec<u64>)> = Vec::new();
        for ev in trace.events_of(SpanKind::Tile) {
            let key = (ev.args.t0, ev.args.diagonal);
            match groups.iter_mut().find(|(t0, d, _)| (*t0, *d) == key) {
                Some((_, _, durs)) => durs.push(ev.dur_ns),
                None => groups.push((key.0, key.1, vec![ev.dur_ns])),
            }
        }
        groups.sort_by_key(|&(t0, d, _)| (t0, d));

        let mut diagonals = Vec::with_capacity(groups.len());
        let mut critical = 0u64;
        let mut total = 0u64;
        for (t0, d, durs) in &groups {
            let sum: u64 = durs.iter().sum();
            let max = durs.iter().copied().max().unwrap_or(0);
            critical += max;
            total += sum;
            diagonals.push(DiagonalLoad {
                t0: *t0,
                diagonal: *d,
                tiles: durs.len(),
                mean_ns: sum as f64 / durs.len() as f64,
                max_ns: max,
            });
        }

        let imbs: Vec<f64> = diagonals
            .iter()
            .filter(|g| g.tiles >= 2)
            .map(DiagonalLoad::imbalance)
            .collect();
        let worst = imbs.iter().copied().fold(1.0f64, f64::max);
        let mean = if imbs.is_empty() {
            1.0
        } else {
            imbs.iter().sum::<f64>() / imbs.len() as f64
        };

        let bw_durs: Vec<u64> = trace
            .events_of(SpanKind::BarrierWait)
            .map(|e| e.dur_ns)
            .collect();

        TraceAnalysis {
            diagonals,
            worst_imbalance: worst,
            mean_imbalance: mean,
            critical_path_ns: critical,
            total_tile_ns: total,
            barrier: BarrierHistogram::from_durations(&bw_durs),
            dropped: trace.dropped,
        }
    }

    /// Human-readable summary table, shaped to sit next to
    /// `Profile::render`'s per-phase table. Prints at most `max_rows`
    /// diagonal groups (worst imbalance first) to stay readable on long
    /// runs.
    pub fn render(&self) -> String {
        const MAX_ROWS: usize = 12;
        let mut out = String::new();
        let _ = writeln!(out, "── diagonal load balance (from trace) ──");
        if self.diagonals.is_empty() {
            let _ = writeln!(
                out,
                "no tile spans (space-blocked schedule); \
                 critical path {:.3} ms",
                self.critical_path_ns as f64 / 1e6
            );
        } else {
            let _ = writeln!(
                out,
                "  {:>5} {:>5} {:>6} {:>11} {:>11} {:>9}",
                "t0", "diag", "tiles", "mean(µs)", "max(µs)", "max/mean"
            );
            let mut rows: Vec<&DiagonalLoad> = self.diagonals.iter().collect();
            rows.sort_by(|a, b| {
                b.imbalance()
                    .partial_cmp(&a.imbalance())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for g in rows.iter().take(MAX_ROWS) {
                let _ = writeln!(
                    out,
                    "  {:>5} {:>5} {:>6} {:>11.1} {:>11.1} {:>9.2}",
                    g.t0,
                    g.diagonal,
                    g.tiles,
                    g.mean_ns / 1e3,
                    g.max_ns as f64 / 1e3,
                    g.imbalance()
                );
            }
            if rows.len() > MAX_ROWS {
                let _ = writeln!(out, "  … {} more diagonal groups", rows.len() - MAX_ROWS);
            }
            let _ = writeln!(
                out,
                "imbalance: worst {:.2}, mean {:.2} · critical path {:.3} ms \
                 (total tile work {:.3} ms)",
                self.worst_imbalance,
                self.mean_imbalance,
                self.critical_path_ns as f64 / 1e6,
                self.total_tile_ns as f64 / 1e6
            );
        }
        if self.barrier.count > 0 {
            let labels = ["<1µs", "<10µs", "<100µs", "<1ms", "<10ms", "≥10ms"];
            let hist: Vec<String> = self
                .barrier
                .buckets
                .iter()
                .zip(labels)
                .filter(|((_, n), _)| *n > 0)
                .map(|((_, n), l)| format!("{l}: {n}"))
                .collect();
            let _ = writeln!(
                out,
                "barrier waits: {} spans, total {:.3} ms, max {:.3} ms  [{}]",
                self.barrier.count,
                self.barrier.total_ns as f64 / 1e6,
                self.barrier.max_ns as f64 / 1e6,
                hist.join(", ")
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "warning: {} spans dropped (ring full) — analysis is a lower bound",
                self.dropped
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Roofline estimator
// ---------------------------------------------------------------------------

/// One measured kernel × schedule placed on the roofline.
#[derive(Clone, Debug)]
pub struct RooflineEntry {
    /// Row label, e.g. `acoustic-so4/wavefront t8`.
    pub label: String,
    /// Operational intensity (FLOP/byte) under the schedule's traffic
    /// model — for temporal blocking, streaming bytes divided by the
    /// time-tile reuse factor.
    pub ai: f64,
    /// Achieved GFLOP/s: measured GPts/s × analytic FLOPs per point-update.
    pub achieved_gflops: f64,
}

impl RooflineEntry {
    /// Build from a throughput measurement and the kernel's per-point cost.
    pub fn from_measurement(label: &str, ai: f64, gpts_per_s: f64, flops_per_point: f64) -> Self {
        RooflineEntry {
            label: label.to_string(),
            ai,
            achieved_gflops: gpts_per_s * flops_per_point,
        }
    }
}

/// The machine ceilings plus measured points: the paper's Fig. 11 as a
/// table instead of a plot. Ceilings come from whatever characterisation
/// the caller ran (`tempest-bench` ships in-process microbenchmarks); this
/// type only combines numbers, so `tempest-obs` stays dependency-free.
#[derive(Clone, Debug, Default)]
pub struct Roofline {
    /// Peak compute ceiling (GFLOP/s).
    pub peak_gflops: f64,
    /// Sustained memory bandwidth ceiling (GB/s).
    pub bandwidth_gbs: f64,
    /// Measured points, in insertion order.
    pub entries: Vec<RooflineEntry>,
}

impl Roofline {
    pub fn new(peak_gflops: f64, bandwidth_gbs: f64) -> Self {
        Roofline {
            peak_gflops,
            bandwidth_gbs,
            entries: Vec::new(),
        }
    }

    /// Attainable GFLOP/s at operational intensity `ai`:
    /// `min(ai × bandwidth, peak)`.
    pub fn attainable(&self, ai: f64) -> f64 {
        (ai * self.bandwidth_gbs).min(self.peak_gflops)
    }

    /// The ridge point: the AI at which a kernel stops being memory-bound.
    pub fn ridge_ai(&self) -> f64 {
        if self.bandwidth_gbs > 0.0 {
            self.peak_gflops / self.bandwidth_gbs
        } else {
            0.0
        }
    }

    /// Fraction of the attainable ceiling an entry reaches (0 when the
    /// ceiling is degenerate).
    pub fn roof_share(&self, e: &RooflineEntry) -> f64 {
        let roof = self.attainable(e.ai);
        if roof > 0.0 {
            e.achieved_gflops / roof
        } else {
            0.0
        }
    }

    /// Add one measured point (see [`RooflineEntry::from_measurement`]).
    pub fn push(&mut self, label: &str, ai: f64, gpts_per_s: f64, flops_per_point: f64) {
        self.entries.push(RooflineEntry::from_measurement(
            label,
            ai,
            gpts_per_s,
            flops_per_point,
        ));
    }

    /// Rendered table: each entry's AI, its bound regime, attainable and
    /// achieved GFLOP/s, and the share of the roof reached.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "── roofline (peak {:.1} GFLOP/s, bw {:.1} GB/s, ridge AI {:.2}) ──",
            self.peak_gflops,
            self.bandwidth_gbs,
            self.ridge_ai()
        );
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>8} {:>10} {:>10} {:>6}",
            "kernel/schedule", "AI", "bound", "roof GF/s", "achv GF/s", "roof%"
        );
        for e in &self.entries {
            let bound = if e.ai < self.ridge_ai() { "mem" } else { "comp" };
            let _ = writeln!(
                out,
                "  {:<40} {:>8.3} {:>8} {:>10.2} {:>10.2} {:>5.1}%",
                e.label,
                e.ai,
                bound,
                self.attainable(e.ai),
                e.achieved_gflops,
                100.0 * self.roof_share(e)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanArgs, SpanKind, TraceEvent};

    fn tile(tid: u32, d: usize, tx: usize, ty: usize, t0: usize, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            tid,
            kind: SpanKind::Tile,
            t0_ns: start,
            dur_ns: dur,
            args: SpanArgs::tile(d, tx, ty, t0, t0 + 4),
        }
    }

    fn bw(tid: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            tid,
            kind: SpanKind::BarrierWait,
            t0_ns: start,
            dur_ns: dur,
            args: SpanArgs::none(),
        }
    }

    fn synthetic() -> Trace {
        Trace {
            events: vec![
                // time-tile 0: diagonal 0 (one tile), diagonal 1 (two tiles,
                // imbalanced 3:1)
                tile(0, 0, 0, 0, 0, 0, 1_000),
                tile(0, 1, 1, 0, 0, 1_000, 3_000),
                tile(1, 1, 0, 1, 0, 1_000, 1_000),
                // time-tile 4: diagonal 0, balanced pair
                tile(0, 0, 0, 0, 4, 5_000, 2_000),
                tile(1, 0, 1, 0, 4, 5_000, 2_000),
                bw(1, 4_000, 500),
                bw(1, 7_000, 150_000),
            ],
            threads: vec![(0, "main".into()), (1, "w0".into())],
            dropped: 3,
            capacity: 1024,
        }
    }

    #[test]
    fn groups_by_time_tile_and_diagonal() {
        let a = TraceAnalysis::from_trace(&synthetic());
        assert_eq!(a.diagonals.len(), 3);
        let g = &a.diagonals[1]; // (t0=0, diag=1)
        assert_eq!((g.t0, g.diagonal, g.tiles), (0, 1, 2));
        assert!((g.mean_ns - 2_000.0).abs() < 1e-9);
        assert_eq!(g.max_ns, 3_000);
        assert!((g.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_and_critical_path() {
        let a = TraceAnalysis::from_trace(&synthetic());
        // groups with >= 2 tiles: (0,1) at 1.5 and (4,0) at 1.0
        assert!((a.worst_imbalance - 1.5).abs() < 1e-9);
        assert!((a.mean_imbalance - 1.25).abs() < 1e-9);
        // critical path = 1000 + 3000 + 2000 (max per group)
        assert_eq!(a.critical_path_ns, 6_000);
        assert_eq!(a.total_tile_ns, 9_000);
        assert_eq!(a.dropped, 3);
    }

    #[test]
    fn barrier_histogram_buckets_by_decade() {
        let a = TraceAnalysis::from_trace(&synthetic());
        assert_eq!(a.barrier.count, 2);
        assert_eq!(a.barrier.total_ns, 150_500);
        assert_eq!(a.barrier.max_ns, 150_000);
        // 500ns → <1µs bucket; 150µs → <1ms bucket
        assert_eq!(a.barrier.buckets[0].1, 1);
        assert_eq!(a.barrier.buckets[3].1, 1);
    }

    #[test]
    fn empty_and_tile_free_traces() {
        let a = TraceAnalysis::from_trace(&Trace::default());
        assert!(a.diagonals.is_empty());
        assert_eq!(a.critical_path_ns, 0);
        assert_eq!(a.worst_imbalance, 1.0);

        // tile-free trace: only the barrier histogram fills
        let t = Trace {
            events: vec![bw(0, 0, 4_000)],
            threads: vec![(0, "main".into())],
            dropped: 0,
            capacity: 1024,
        };
        let a = TraceAnalysis::from_trace(&t);
        assert_eq!((a.critical_path_ns, a.total_tile_ns), (0, 0));
        assert_eq!(a.barrier.count, 1);
    }

    #[test]
    fn roofline_model_and_shares() {
        let mut r = Roofline::new(100.0, 10.0);
        assert_eq!(r.ridge_ai(), 10.0);
        assert_eq!(r.attainable(1.0), 10.0); // memory-bound regime
        assert_eq!(r.attainable(50.0), 100.0); // compute-bound regime
        // 0.5 GPts/s at 10 flop/point = 5 GFLOP/s against a 10 GF/s roof.
        r.push("acoustic/wavefront t8", 1.0, 0.5, 10.0);
        assert!((r.entries[0].achieved_gflops - 5.0).abs() < 1e-12);
        assert!((r.roof_share(&r.entries[0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roofline_render_marks_bound_regimes() {
        let mut r = Roofline::new(100.0, 10.0);
        r.push("mem-bound", 1.0, 0.1, 10.0);
        r.push("comp-bound", 50.0, 1.0, 60.0);
        let s = r.render();
        assert!(s.contains("ridge AI 10.00"));
        assert!(s.contains("mem"));
        assert!(s.contains("comp"));
        assert!(s.contains("roof%"));
    }

    #[test]
    fn roofline_degenerate_ceilings_are_safe() {
        let r = Roofline::default();
        assert_eq!(r.ridge_ai(), 0.0);
        let e = RooflineEntry::from_measurement("x", 1.0, 1.0, 1.0);
        assert_eq!(r.roof_share(&e), 0.0);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let a = TraceAnalysis::from_trace(&synthetic());
        let s = a.render();
        assert!(s.contains("diagonal load balance"));
        assert!(s.contains("max/mean"));
        assert!(s.contains("critical path"));
        assert!(s.contains("barrier waits"));
        assert!(s.contains("dropped"));
    }
}
