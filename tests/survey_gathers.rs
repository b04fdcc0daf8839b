//! Survey gathers are the same bits at every thread cap: a wave-front +
//! `FusedCompressed` survey, whose shots use the whole pool and whose
//! receiver footprints straddle tiles, must record exactly the gathers of
//! the sequential space-blocked + classic survey — uncached, and cold,
//! warm and nudged against a shared [`TileCache`].
//!
//! The CI thread-cap loop re-runs this file under `TEMPEST_THREADS=1/2/4`.

use tempest::core::config::EquationKind;
use tempest::core::operator::Schedule;
use tempest::core::{Execution, SimConfig};
use tempest::grid::{Array2, Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{run_survey, ShotSpec, Survey, SurveyOptions, TileCache};

const N: usize = 24;

/// Four shots over a two-layer model and a receiver line dense enough that
/// footprints cross the 6×8 tile boundaries; `nudge` moves shot 1 by that
/// many metres along x.
fn survey(nudge: f32) -> Survey {
    let domain = Domain::uniform(Shape::cube(N), 10.0);
    let model = Model::two_layer(domain, 1600.0, 2600.0, 0.5);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2600.0, 40.0)
        .with_nt(14)
        .with_f0(30.0)
        .with_boundary(3, 0.3);
    let mut s =
        Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&domain, 17, 0.2));
    for (i, x) in [55.0f32, 103.0, 141.0, 187.0].into_iter().enumerate() {
        let x = if i == 1 { x + nudge } else { x };
        s.add_shot(ShotSpec::at([x, 117.0, 41.0]));
    }
    s
}

fn gathers(s: &Survey, opts: &SurveyOptions) -> Vec<Array2<f32>> {
    let shots = run_survey(s, opts).unwrap();
    shots.into_iter().map(|r| r.gather.unwrap()).collect()
}

fn assert_bitwise(want: &[Array2<f32>], got: &[Array2<f32>], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: shot count");
    for (shot, (a, b)) in want.iter().zip(got).enumerate() {
        let bits = |g: &Array2<f32>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: shot {shot} gather differs");
    }
}

#[test]
fn wavefront_fused_gathers_are_bitwise_at_every_thread_cap() {
    let sequential_classic = SurveyOptions {
        exec: Execution::baseline().sequential(),
        policy: Policy::Sequential,
        ..SurveyOptions::default()
    };
    let (plain, nudged) = (survey(0.0), survey(3.0));
    let want = gathers(&plain, &sequential_classic);
    let want_nudged = gathers(&nudged, &sequential_classic);
    assert!(
        want.iter().all(|g| g.as_slice().iter().any(|&v| v != 0.0)),
        "every shot must reach the receivers"
    );

    for policy in [
        Policy::Sequential,
        Policy::Parallel,
        Policy::Capped { threads: 1 },
        Policy::Capped { threads: 2 },
        Policy::Capped { threads: 4 },
    ] {
        let exec = Execution {
            schedule: Schedule::WavefrontDataflow {
                tile_x: 6,
                tile_y: 8,
                tile_t: 3,
                block_x: 3,
                block_y: 4,
            },
            policy,
            ..Execution::wavefront_default()
        };
        let mut opts = SurveyOptions {
            exec,
            policy,
            ..SurveyOptions::default()
        };
        assert_bitwise(
            &want,
            &gathers(&plain, &opts),
            &format!("{policy:?} uncached"),
        );

        opts.cache = Some(std::sync::Arc::new(TileCache::with_capacity_mb(64)));
        for (mode, s, want) in [
            ("cold", &plain, &want),
            ("warm", &plain, &want),
            ("nudged", &nudged, &want_nudged),
        ] {
            assert_bitwise(want, &gathers(s, &opts), &format!("{policy:?} {mode}"));
        }
    }
}
