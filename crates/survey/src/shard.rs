//! Shot sharding: the partition primitive that distributes shot indices
//! across the `tempest-par` fleet, one level above tile parallelism.
//!
//! The engine's correctness obligation at this level is exactly-once
//! execution: every shot index in `0..n` is visited once, regardless of the
//! thread policy, steal order, or batch grouping. [`shard`] reduces that to
//! `tempest_par::for_each_index`, whose claim counter already guarantees
//! each index is claimed by exactly one worker; batching only
//! changes how many indices one publication covers, never membership.

use std::sync::atomic::{AtomicBool, Ordering};

use tempest_par::Policy;

/// Cooperative cancellation token shared between a submitter and a running
/// survey. Setting it is a request, not preemption: the engine observes the
/// flag at shot boundaries (a shot that already started runs to completion)
/// and between batches.
#[derive(Debug, Default)]
pub struct CancelFlag(AtomicBool);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Run `f(i)` exactly once for every `i` in `0..n`, sharded across the
/// fleet under `policy` in batches of `batch_size` shots (`0` = one batch).
/// Batches run in order with a join between them; shots inside a batch run
/// in any order the policy permits. `stop` is checked before each batch:
/// once it returns `true`, no later batch starts (a started batch always
/// runs to its join), so the indices visited are a prefix of whole batches.
pub fn shard<F>(policy: Policy, n: usize, batch_size: usize, stop: impl Fn() -> bool, f: F)
where
    F: Fn(usize) + Sync,
{
    let batch = if batch_size == 0 {
        n.max(1)
    } else {
        batch_size
    };
    for start in (0..n).step_by(batch) {
        if stop() {
            break;
        }
        let len = batch.min(n - start);
        tempest_par::for_each_index(policy, len, |j| f(start + j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cancel_flag_latches() {
        let flag = CancelFlag::new();
        assert!(!flag.is_cancelled());
        flag.cancel();
        flag.cancel();
        assert!(flag.is_cancelled());
    }

    #[test]
    fn shard_visits_each_index_once() {
        for &(n, batch) in &[(0usize, 0usize), (1, 0), (7, 3), (64, 0), (64, 5), (64, 64)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            shard(
                Policy::Parallel,
                n,
                batch,
                || false,
                |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n} batch={batch}: some index not visited exactly once"
            );
        }
    }

    #[test]
    fn batches_are_ordered() {
        // With a sequential policy the visit order is fully deterministic:
        // ascending within each batch, batches in order.
        let order = std::sync::Mutex::new(Vec::new());
        shard(
            Policy::Sequential,
            10,
            4,
            || false,
            |i| order.lock().unwrap().push(i),
        );
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stop_ends_the_run_at_a_batch_boundary() {
        // `stop` turns true while index `trigger` runs: its batch still
        // finishes every index, and no later batch starts.
        for policy in [Policy::Sequential, Policy::Parallel] {
            let cases = [
                (10usize, 4usize, 0usize),
                (10, 4, 5),
                (10, 4, 9),
                (9, 3, 2),
                (7, 0, 3),
            ];
            for (n, batch, trigger) in cases {
                let stopped = AtomicBool::new(false);
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                shard(
                    policy,
                    n,
                    batch,
                    || stopped.load(Ordering::Acquire),
                    |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        if i == trigger {
                            stopped.store(true, Ordering::Release);
                        }
                    },
                );
                let b = if batch == 0 { n } else { batch };
                let end = ((trigger / b + 1) * b).min(n);
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        usize::from(i < end),
                        "{policy:?} n={n} batch={batch} trigger={trigger}: index {i}"
                    );
                }
            }
        }
    }
}
