//! Benchmarks of the schedule engine itself: slab generation cost,
//! legality-checker cost, a small end-to-end comparison of the spatially
//! blocked vs wave-front schedules on a cache-resident problem, and a
//! thread-scaling sweep of the plan executor. The large-grid comparison
//! lives in the `figure9` harness.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config};
use tempest_bench::setup;
use tempest_bench::sweep::{exec_spaceblocked, exec_wavefront};
use tempest_core::WaveSolver;
use tempest_grid::Shape;
use tempest_par::Policy;
use tempest_tiling::legality::{check_plan, check_schedule, DepModel};
use tempest_tiling::wavefront::{slabs, WavefrontSpec};
use tempest_tiling::{Candidate, TilePlan};

fn bench_slab_generation(cfg: Config) {
    let shape = Shape::new(512, 512, 512);
    for tile in [32usize, 128] {
        let spec = WavefrontSpec::new(tile, tile, 8, 2, 8, 8);
        microbench::run(&format!("slab_generation/{tile}"), cfg, || {
            let mut n = 0usize;
            tempest_tiling::wavefront::for_each_slab(shape, 64, &spec, |s| {
                n += usize::from(!s.range.is_empty());
            });
            black_box(n);
        });
    }
}

fn bench_legality_checker(cfg: Config) {
    let shape = Shape::new(64, 64, 4);
    let spec = WavefrontSpec::new(16, 16, 8, 2, 8, 8);
    let sched = slabs(shape, 32, &spec);
    microbench::run("legality_check_64x64x32", cfg, || {
        check_schedule(
            shape,
            32,
            DepModel {
                radius: 2,
                levels: 3,
            },
            black_box(sched.iter().copied()),
        )
        .unwrap();
    });
}

fn bench_plan_checker(cfg: Config) {
    let shape = Shape::new(64, 64, 4);
    let spec = WavefrontSpec::new(16, 16, 8, 2, 8, 8);
    let plan = TilePlan::wavefront(shape, 32, &spec, 2);
    microbench::run("plan_check_64x64x32", cfg, || {
        check_plan(
            shape,
            DepModel {
                radius: 2,
                levels: 3,
            },
            black_box(&plan),
        )
        .unwrap();
    });
}

fn bench_schedules_end_to_end(cfg: Config) {
    {
        let mut s = setup::acoustic(64, 4, 8, 0);
        let e = exec_spaceblocked(8, 8);
        microbench::run("acoustic_64cube_8steps/spaceblocked", cfg, || {
            black_box(s.run(&e).elapsed);
        });
    }
    let cand = Candidate {
        tile_x: 32,
        tile_y: 32,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
    };
    let mut s = setup::acoustic(64, 4, 8, 0);
    let e = exec_wavefront(&cand);
    microbench::run("acoustic_64cube_8steps/wavefront", cfg, || {
        black_box(s.run(&e).elapsed);
    });
}

/// Thread-scaling sweep of the plan executor: its advantage over the
/// baseline's per-step fork/join is parallel grain, so it is only visible
/// with more than one worker. Capped at the machine's available threads
/// (`TEMPEST_THREADS` respected via `tempest_par::available_threads`).
fn bench_thread_scaling(cfg: Config) {
    let avail = tempest_par::available_threads();
    let cand = Candidate {
        tile_x: 16,
        tile_y: 16,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
    };
    for threads in [1usize, 2, 4, 8] {
        if threads > avail {
            println!("thread_scaling: skipping {threads} threads (only {avail} available)");
            continue;
        }
        let mut s = setup::acoustic(64, 4, 8, 0);
        let mut e = exec_wavefront(&cand);
        e.policy = Policy::Capped { threads };
        microbench::run(&format!("thread_scaling/wavefront/t{threads}"), cfg, || {
            black_box(s.run(&e).elapsed);
        });
    }
}

/// `--profile`: one instrumented run per schedule, rendered as a per-phase
/// table and written to `target/profile/*.json`.
fn profile_section() {
    tempest_obs::set_enabled(true);
    let cand = Candidate {
        tile_x: 32,
        tile_y: 32,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
    };
    for e in [exec_spaceblocked(8, 8), exec_wavefront(&cand)] {
        let mut s = setup::acoustic(64, 4, 8, 0);
        let (_, profile, meta) = s.run_profiled(&e);
        if profile.is_empty() {
            println!(
                "profile: no samples for {} — build with --features obs",
                meta.schedule
            );
            continue;
        }
        println!("{}", profile.render(&meta));
        match profile.write_json(&meta) {
            Ok(p) => println!("profile: wrote {}", p.display()),
            Err(err) => eprintln!("profile: could not write JSON: {err}"),
        }
    }
}

fn main() {
    let cfg = Config::coarse();
    bench_slab_generation(cfg);
    bench_legality_checker(cfg);
    bench_plan_checker(cfg);
    bench_schedules_end_to_end(cfg);
    bench_thread_scaling(cfg);
    if std::env::args().any(|a| a == "--profile") {
        profile_section();
    }
}
