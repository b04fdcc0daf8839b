//! Receiver trace storage with one slot per footprint corner.
//!
//! The fused receiver gather (mirror of Listing 5) measures
//! `rec[t][r] = Σ_j w_j · u[t][p_j]` from inside block updates; blocks of one
//! slab run in parallel and a receiver's 8-point footprint can straddle a
//! block boundary, so the corners of one sum are produced by different tiles
//! in an order the scheduler picks. Each product therefore gets a slot of
//! its own — `(t, r · FOOTPRINT + j)` for corner `j` of receiver `r` — that
//! exactly one tile writes, once, with a plain store. Reading reduces a
//! receiver's slots in corner order starting from `0.0`, the order the
//! classic gather sums them in, so the trace is the same bits on every
//! schedule, thread count and sparse path.

use std::sync::atomic::{AtomicU32, Ordering};
use tempest_grid::Array2;
use tempest_par::FlushGuard;
use tempest_sparse::FOOTPRINT;

/// A `(nt × num_receivers)` matrix of measured data, stored as
/// `FOOTPRINT` per-corner products per entry.
pub struct TraceBuffer {
    slots: Vec<AtomicU32>,
    nt: usize,
    nrec: usize,
}

impl TraceBuffer {
    /// Allocate a zeroed trace.
    pub fn new(nt: usize, nrec: usize) -> Self {
        assert!(nt > 0 && nrec > 0, "trace extents must be non-zero");
        TraceBuffer {
            slots: (0..nt * nrec * FOOTPRINT)
                .map(|_| AtomicU32::new(0f32.to_bits()))
                .collect(),
            nt,
            nrec,
        }
    }

    /// Number of timesteps.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Number of receivers.
    pub fn num_receivers(&self) -> usize {
        self.nrec
    }

    /// Store the product of footprint corner `slot % FOOTPRINT` of receiver
    /// `slot / FOOTPRINT` at timestep `t`. Each slot has exactly one writer
    /// per run, so a relaxed store suffices: the run's join publishes it.
    #[inline]
    pub fn store(&self, t: usize, slot: usize, v: f32) {
        debug_assert!(t < self.nt && slot < self.nrec * FOOTPRINT);
        self.slots[t * self.nrec * FOOTPRINT + slot].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Read `rec[t][r]`: its corner products summed in corner order.
    pub fn get(&self, t: usize, r: usize) -> f32 {
        let _fp = FlushGuard::enter();
        self.sum(t, r)
    }

    /// The corner-order sum behind [`get`](Self::get). The caller holds a
    /// [`FlushGuard`]: the reduction is part of the solve's arithmetic, so
    /// it runs in the solve's floating-point mode on whichever thread reads.
    #[inline]
    fn sum(&self, t: usize, r: usize) -> f32 {
        let base = (t * self.nrec + r) * FOOTPRINT;
        self.slots[base..base + FOOTPRINT]
            .iter()
            .fold(0.0f32, |acc, s| {
                acc + f32::from_bits(s.load(Ordering::Relaxed))
            })
    }

    /// Zero the whole trace.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s.get_mut() = 0f32.to_bits();
        }
    }

    /// Snapshot into a plain array.
    pub fn to_array(&self) -> Array2<f32> {
        let _fp = FlushGuard::enter();
        let mut out = Array2::zeros(self.nt, self.nrec);
        for t in 0..self.nt {
            for r in 0..self.nrec {
                out.set(t, r, self.sum(t, r));
            }
        }
        out
    }

    /// Maximum |value| over the whole trace.
    pub fn max_abs(&self) -> f32 {
        let _fp = FlushGuard::enter();
        let mut m = 0.0f32;
        for t in 0..self.nt {
            for r in 0..self.nrec {
                m = m.max(self.sum(t, r).abs());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_get_sum_a_receivers_corners() {
        let tb = TraceBuffer::new(4, 3);
        tb.store(1, 2 * FOOTPRINT, 0.5);
        tb.store(1, 2 * FOOTPRINT + 5, 0.25);
        assert_eq!(tb.get(1, 2), 0.75);
        assert_eq!(tb.get(1, 1), 0.0);
        assert_eq!(tb.get(0, 0), 0.0);
    }

    #[test]
    fn reduction_order_is_corner_order_whatever_the_store_order() {
        // (1e8 + 1) − 1e8 loses the 1 in f32; 1e8 − 1e8 + 1 keeps it: the
        // sum is taken in corner order, not in the order slots were written.
        let vals = [1.0e8f32, 1.0, -1.0e8];
        let want = vals.iter().fold(0.0f32, |a, &v| a + v);
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let tb = TraceBuffer::new(1, 1);
            for j in order {
                tb.store(0, j, vals[j]);
            }
            assert_eq!(tb.get(0, 0).to_bits(), want.to_bits(), "{order:?}");
        }
    }

    #[test]
    fn concurrent_stores_to_distinct_slots_all_land() {
        let tb = TraceBuffer::new(1, 4);
        std::thread::scope(|s| {
            for r in 0..4 {
                let tb = &tb;
                s.spawn(move || {
                    for j in 0..FOOTPRINT {
                        tb.store(0, r * FOOTPRINT + j, 1.0);
                    }
                });
            }
        });
        for r in 0..4 {
            assert_eq!(tb.get(0, r), FOOTPRINT as f32);
        }
    }

    #[test]
    fn clear_and_snapshot() {
        let mut tb = TraceBuffer::new(2, 2);
        tb.store(0, 0, 1.0);
        tb.store(1, FOOTPRINT + 7, -2.0);
        assert_eq!(tb.max_abs(), 2.0);
        let a = tb.to_array();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), -2.0);
        tb.clear();
        assert_eq!(tb.max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_empty() {
        let _ = TraceBuffer::new(0, 1);
    }
}
