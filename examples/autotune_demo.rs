//! Auto-tuning demo (paper §IV.C / Table I): sweep tile/block shapes for
//! wave-front temporal blocking of the acoustic propagator and print the
//! ranking. Shows why tuning matters — the spread between best and worst
//! candidate is often larger than the blocking gain itself.
//!
//! ```text
//! cargo run --release --example autotune_demo
//! ```
//!
//! With profiling compiled in and switched on, the sweep also records each
//! candidate's barrier-wait share and uses it to break near-ties between
//! shapes:
//!
//! ```text
//! TEMPEST_PROFILE=1 cargo run --release --example autotune_demo --features obs
//! ```
//!
//! Add `--trace` (or `TEMPEST_TRACE=1`) to trace the final tuned run: the
//! per-diagonal load-imbalance summary prints next to the comparison and
//! the Chrome trace JSON lands under `results/trace/`.

use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::config::EquationKind;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::tiling::{
    autotune::default_candidates, autotune_measured, with_diamond_variants, Candidate, Measurement,
};

/// Schedule for a candidate: the skewed wave-front plan, or the diamond plan
/// when it names a diamond axis. Diamond candidates reuse `tile_x` as the
/// diamond base width and `tile_y` as the cross-axis window.
fn schedule_of(c: &Candidate) -> Schedule {
    if let Some(axis) = c.diamond {
        Schedule::Diamond {
            width: c.tile_x,
            tile_t: c.tile_t,
            tile_c: c.tile_y,
            axis,
            block_x: c.block_x,
            block_y: c.block_y,
        }
    } else {
        Schedule::WavefrontDataflow {
            tile_x: c.tile_x,
            tile_y: c.tile_y,
            tile_t: c.tile_t,
            block_x: c.block_x,
            block_y: c.block_y,
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        tempest::obs::trace::set_enabled(true);
    }
    let n = 128;
    let nt = 16;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::random(domain, 1500.0, 3000.0, 7);
    let cfg = SimConfig::new(domain, 8, EquationKind::Acoustic, 3000.0, 200.0).with_nt(nt);
    let src = SparsePoints::single_center(&domain, 0.37);
    let mut solver = Acoustic::new(&model, cfg, src, None);

    // Each tile geometry is tried as a skewed wave-front plan, plus as a
    // diamond plan ("/ dmnd-x", "/ dmnd-y") where its tile width is a legal
    // diamond base width at this stencil radius.
    let radius = 4; // space order 8
    let cands = with_diamond_variants(&default_candidates(n, n, &[4, 8, 16]), radius, 1);
    println!(
        "sweeping {} candidates on a {n}³ grid, {nt} steps each…\n",
        cands.len()
    );

    // Candidates within 5% of the fastest are ranked by measured
    // barrier-wait share (when telemetry is recorded) — wall time alone
    // cannot separate close shapes on short tuning runs.
    let result = autotune_measured(
        &cands,
        |c| {
            let exec = Execution {
                schedule: schedule_of(c),
                sparse: SparseMode::FusedCompressed,
                policy: Policy::default(),
                kernel: KernelPath::default(),
            };
            let (stats, profile, _) = solver.run_profiled(&exec);
            Measurement {
                time: stats.elapsed,
                barrier_share: if profile.is_empty() {
                    None
                } else {
                    Some(profile.barrier_wait_share())
                },
            }
        },
        0.05,
    );

    let share_col = |m: &Measurement| {
        m.barrier_share
            .map(|s| format!("{:>5.1}%", s * 100.0))
            .unwrap_or_else(|| "    —".into())
    };

    // Ranking table.
    let mut ranked = result.all.clone();
    ranked.sort_by_key(|(_, m)| m.time);
    println!("rank  candidate                       time      barrier-wait");
    for (i, (c, m)) in ranked.iter().take(8).enumerate() {
        println!("{:>4}  {c:<30}  {:>8.3?}  {}", i + 1, m.time, share_col(m));
    }
    println!("   …");
    let (wc, wm) = ranked.last().unwrap();
    println!("last  {wc:<30}  {:>8.3?}  {}", wm.time, share_col(wm));

    println!(
        "\nbest: {}  ({:.3?}, barrier-wait {}); worst is {:.2}x slower",
        result.best,
        result.best_measurement.time,
        share_col(&result.best_measurement),
        wm.time.as_secs_f64() / result.best_measurement.time.as_secs_f64()
    );

    // Compare the tuned schedule against the baseline.
    let base = solver.run(&Execution::baseline());
    let tuned_exec = Execution {
        schedule: schedule_of(&result.best),
        sparse: SparseMode::FusedCompressed,
        policy: Policy::default(),
        kernel: KernelPath::default(),
    };
    let (wtb, _profile, trace, meta) = solver.run_traced(&tuned_exec);
    println!(
        "\nbaseline {:.3} GPts/s → tuned WTB {:.3} GPts/s ({:.2}x)",
        base.gpoints_per_s,
        wtb.gpoints_per_s,
        wtb.gpoints_per_s / base.gpoints_per_s
    );

    // With tracing on, show how well the tuned schedule balances its
    // diagonals — the signal behind the barrier-share tie-breaker above.
    if !trace.is_empty() {
        println!("\n{}", tempest::obs::analysis::TraceAnalysis::from_trace(&trace).render());
        match trace.write_chrome_json(&meta) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(err) => eprintln!("could not write trace JSON: {err}"),
        }
    }

    // Same tile geometry, tiling compared head-to-head: skewed wave-front
    // vs diamond. With profiling on, the barrier-wait share is the idle
    // time each plan's ready frontier left the workers with.
    let geometry = Candidate {
        diamond: None,
        ..result.best
    };
    let run_share = |solver: &mut Acoustic, c: &Candidate| {
        let exec = Execution {
            schedule: schedule_of(c),
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        };
        let (stats, profile, _) = solver.run_profiled(&exec);
        let share = (!profile.is_empty()).then(|| profile.barrier_wait_share());
        (stats, share)
    };
    let (wf_stats, wf_share) = run_share(&mut solver, &geometry);
    let pct = |s: Option<f64>| s.map(|v| format!("{:>5.1}%", v * 100.0)).unwrap_or("    —".into());
    println!("\ntiling at the tuned geometry ({geometry}):");
    println!(
        "  wavefront  {:>8.3?}  barrier-wait {}",
        wf_stats.elapsed,
        pct(wf_share)
    );
    // The diamond only joins the comparison when the tuned tile width is a
    // legal diamond base width.
    match with_diamond_variants(&[geometry], radius, 1)
        .into_iter()
        .find(|c| c.diamond.is_some())
    {
        Some(dm) => {
            let (dm_stats, dm_share) = run_share(&mut solver, &dm);
            println!(
                "  diamond    {:>8.3?}  barrier-wait {}",
                dm_stats.elapsed,
                pct(dm_share)
            );
        }
        None => println!(
            "  diamond: tile width {} is not a legal diamond base width at \
             radius {radius}, tile_t {} (needs a multiple of 2·tile_t with \
             width/(2·tile_t) ≥ radius)",
            geometry.tile_x, geometry.tile_t
        ),
    }
}
