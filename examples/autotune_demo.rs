//! Auto-tuning demo (paper §IV.C / Table I): sweep tile/block shapes for
//! wave-front temporal blocking of the acoustic propagator and print the
//! ranking. Shows why tuning matters — the spread between best and worst
//! candidate is often larger than the blocking gain itself.
//!
//! ```text
//! cargo run --release --example autotune_demo
//! ```
//!
//! Add `--trace` (or `TEMPEST_TRACE=1`) with `--features obs` to trace the
//! final tuned run: the Chrome trace JSON lands under `results/trace/`.

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::tiling::{autotune, autotune::default_candidates, Candidate};

/// The wave-front schedule of a candidate.
fn schedule_of(c: &Candidate) -> Schedule {
    Schedule::WavefrontDataflow {
        tile_x: c.tile_x,
        tile_y: c.tile_y,
        tile_t: c.tile_t,
        block_x: c.block_x,
        block_y: c.block_y,
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

    let cands = default_candidates(n, n, &[4, 8, 16]);
    println!(
        "sweeping {} candidates on a {n}³ grid, {nt} steps each…\n",
        cands.len()
    );

    let result = autotune(&cands, |c| {
        let exec = Execution {
            schedule: schedule_of(c),
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        };
        solver.run(&exec).elapsed
    });

    // Ranking table.
    let mut ranked = result.all.clone();
    ranked.sort_by_key(|&(_, t)| t);
    println!("rank  candidate                       time");
    for (i, (c, t)) in ranked.iter().take(8).enumerate() {
        println!("{:>4}  {c:<30}  {t:>8.3?}", i + 1);
    }
    println!("   …");
    let (wc, wt) = ranked.last().unwrap();
    println!("last  {wc:<30}  {wt:>8.3?}");

    println!(
        "\nbest: {}  ({:.3?}); worst is {:.2}x slower",
        result.best,
        result.best_time,
        wt.as_secs_f64() / result.best_time.as_secs_f64()
    );

    // Compare the tuned schedule against the baseline.
    let base = solver.run(&Execution::baseline());
    let tuned_exec = Execution {
        schedule: schedule_of(&result.best),
        sparse: SparseMode::FusedCompressed,
        policy: Policy::default(),
        kernel: KernelPath::default(),
    };
    let (wtb, profile, meta) = solver.run_profiled(&tuned_exec);
    println!(
        "\nbaseline {:.3} GPts/s → tuned WTB {:.3} GPts/s ({:.2}x)",
        base.gpoints_per_s,
        wtb.gpoints_per_s,
        wtb.gpoints_per_s / base.gpoints_per_s
    );

    if !profile.trace.is_empty() {
        match profile.trace.write_chrome_json(&meta) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(err) => eprintln!("could not write trace JSON: {err}"),
        }
    }
}
