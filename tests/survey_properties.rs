//! Property tests for shot sharding: execution is a *partition*.
//!
//! The survey engine's structural claim is that `0..n` shot indices are
//! executed exactly once each — no drops, no duplicates — for every worker
//! count, steal order, and batch grouping, down to the degenerate 1-shot
//! and empty-survey cases. Cases are drawn from a seeded [`Rng64`] stream
//! (hermetic builds, no proptest), so every failure is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tempest::core::config::EquationKind;
use tempest::core::SimConfig;
use tempest::grid::{Domain, Model, Rng64, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{run_survey, run_survey_streaming, shard, Survey, SurveyOptions};

const CASES: usize = 48;

fn policies() -> Vec<Policy> {
    vec![
        Policy::Sequential,
        Policy::Parallel,
        Policy::Capped { threads: 1 },
        Policy::Capped { threads: 2 },
        Policy::Capped { threads: 4 },
        Policy::Auto { min_items: 2 },
    ]
}

/// The engine's batch loop: every index visited exactly once for random
/// (n, batch, policy) draws, including n = 0 and n = 1.
#[test]
fn shard_is_a_partition() {
    let mut rng = Rng64::new(0x511A_4D53);
    let policies = policies();
    for case in 0..CASES {
        let n = match case {
            0 => 0,
            1 => 1,
            _ => rng.range_usize(0, 65),
        };
        let batch = rng.range_usize(0, n + 2); // 0 = single batch
        let policy = policies[rng.range_usize(0, policies.len())];
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        shard(
            policy,
            n,
            batch,
            || false,
            |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "case {case}: index {i} of n={n} batch={batch} policy={policy:?} \
                 not executed exactly once"
            );
        }
    }
}

fn survey_with(n_shots: usize) -> Survey {
    let domain = Domain::uniform(Shape::cube(12), 10.0);
    let model = Model::homogeneous(domain, 2000.0);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let mut s =
        Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&domain, 3, 0.2));
    s.add_shot_line(n_shots, 0.1);
    s
}

/// The full engine keeps the partition property: each shot streams exactly
/// one result, for every policy × batch grouping, including the 1-shot and
/// empty surveys.
#[test]
fn survey_execution_is_a_partition() {
    let mut rng = Rng64::new(0xA407_1710);
    let policies = policies();
    for case in 0..CASES / 2 {
        let n = match case {
            0 => 0,
            1 => 1,
            _ => rng.range_usize(0, 6),
        };
        let survey = survey_with(n);
        let opts = SurveyOptions {
            policy: policies[rng.range_usize(0, policies.len())],
            batch_size: rng.range_usize(0, n + 2),
            ..SurveyOptions::default()
        };
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = run_survey_streaming(&survey, &opts, None, |r| {
            hits[r.index].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(out.completed, n, "case {case}");
        assert!(!out.cancelled);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "case {case}: shot {i} of {n}");
        }
    }
}

/// Worker count, steal order, and batch grouping do not change *what* is
/// computed: gathers are byte-identical to the sequential single-batch run.
#[test]
fn survey_results_are_invariant_under_sharding() {
    let survey = survey_with(5);
    let reference = run_survey(
        &survey,
        &SurveyOptions {
            policy: Policy::Sequential,
            ..SurveyOptions::default()
        },
    )
    .unwrap();
    assert_eq!(reference.len(), 5);
    for policy in policies() {
        for batch_size in [0usize, 1, 2, 5, 7] {
            let opts = SurveyOptions {
                policy,
                batch_size,
                ..SurveyOptions::default()
            };
            let got = run_survey(&survey, &opts).unwrap();
            assert_eq!(got.len(), reference.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.index, g.index);
                assert_eq!(
                    r.gather.as_ref().unwrap().as_slice(),
                    g.gather.as_ref().unwrap().as_slice(),
                    "shot {} differs under {policy:?} batch={batch_size}",
                    r.index
                );
            }
        }
    }
}

/// Streaming order may vary, but the *set* of streamed indices is always
/// the full shot set — checked via a sorted collection.
#[test]
fn streamed_index_set_is_complete() {
    let survey = survey_with(6);
    for policy in [Policy::Parallel, Policy::Capped { threads: 3 }] {
        let seen = Mutex::new(Vec::new());
        let opts = SurveyOptions {
            policy,
            batch_size: 4,
            ..SurveyOptions::default()
        };
        run_survey_streaming(&survey, &opts, None, |r| seen.lock().unwrap().push(r.index)).unwrap();
        let mut indices = seen.into_inner().unwrap();
        indices.sort_unstable();
        assert_eq!(indices, (0..6).collect::<Vec<_>>());
    }
}
