//! Shot sharding: the partition primitive that distributes shot indices
//! across the `tempest-par` fleet, one level above tile parallelism.
//!
//! The engine's correctness obligation at this level is exactly-once
//! execution: every shot index in `0..n` is visited once, regardless of the
//! thread policy, steal order, or batch grouping. [`shard`] reduces that to
//! `tempest_par::for_each_index`, whose claim counter already guarantees
//! each index is claimed by exactly one worker; batching only
//! changes how many indices one publication covers, never membership.

use std::ops::Range;
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
/// in any order the policy permits.
pub fn shard<F>(policy: Policy, n: usize, batch_size: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let batch = if batch_size == 0 { n.max(1) } else { batch_size };
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        shard_range(policy, start..end, &f);
        start = end;
    }
}

/// One batch of [`shard`]: run `f(i)` exactly once for every `i` in
/// `range`, joining before return.
pub(crate) fn shard_range<F>(policy: Policy, range: Range<usize>, f: F)
where
    F: Fn(usize) + Sync,
{
    let base = range.start;
    tempest_par::for_each_index(policy, range.len(), |j| f(base + j));
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
            shard(Policy::Parallel, n, batch, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
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
        shard(Policy::Sequential, 10, 4, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }
}
