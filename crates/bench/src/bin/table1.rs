//! Reproduces paper Table I: optimal `(tile_x, tile_y, block_x, block_y)`
//! shapes after auto-tuning wave-front temporal blocking, for each
//! propagator × space order.
//!
//! ```text
//! cargo run -p tempest-bench --release --bin table1 -- [--size 256] [--nt 16] [--so 4,8,12] [--model acoustic,elastic,tti] [--fast]
//! ```
//!
//! The paper reports two CPU columns (Broadwell, Skylake); this harness has
//! one machine, so it prints one column plus the measured time of the best
//! and worst candidates — the tuning *spread* that justifies auto-tuning
//! (§IV.C: "we swept over the whole parameter space").

use tempest_bench::args::HarnessArgs;
use tempest_bench::report::Table;
use tempest_bench::{setup, sweep};

fn main() {
    let args = HarnessArgs::parse(256, 16);
    println!(
        "table1: grid {}^3, tuning nt {}, threads {}",
        args.size,
        args.nt,
        tempest_par::available_threads()
    );
    let mut table = Table::new(
        "Table I — optimal tile-block shapes after tuning WTB",
        &[
            "problem",
            "tile_x,tile_y,block_x,block_y",
            "tile_t",
            "best (s)",
            "worst (s)",
            "spread",
        ],
    );
    // The acoustic kernel is cheap enough for the exhaustive sweep; the
    // compute-heavy TTI and data-heavy elastic kernels get the reduced grid
    // unless --fast is off *and* the grid is small.
    let full = sweep::candidates_for(args.size, args.size, args.nt, args.fast);
    let quick = sweep::candidates_for(args.size, args.size, args.nt, true);
    for &so in &args.space_orders {
        for model in ["acoustic", "elastic", "tti"] {
            if !args.models.iter().any(|m| m == model) {
                continue;
            }
            let cands = if model == "acoustic" { &full } else { &quick };
            let mut s = setup::solver(model, args.size, so, args.nt, 0);
            let tuned = sweep::tune_wavefront(&mut *s, cands);
            let worst = tuned
                .all
                .iter()
                .map(|(_, t)| *t)
                .max()
                .unwrap_or(tuned.best_time);
            let label = match model {
                "acoustic" => format!("Acoustic O(2,{so})"),
                "elastic" => format!("Elastic O(1,{so})"),
                _ => format!("TTI O(2,{so})"),
            };
            println!(
                "  {label}: best {} ({:.3}s), worst {:.3}s",
                tuned.best,
                tuned.best_time.as_secs_f64(),
                worst.as_secs_f64()
            );
            table.row(&[
                label,
                format!(
                    "{}, {}, {}, {}",
                    tuned.best.tile_x, tuned.best.tile_y, tuned.best.block_x, tuned.best.block_y
                ),
                tuned.best.tile_t.to_string(),
                format!("{:.3}", tuned.best_time.as_secs_f64()),
                format!("{:.3}", worst.as_secs_f64()),
                format!(
                    "{:.2}x",
                    worst.as_secs_f64() / tuned.best_time.as_secs_f64()
                ),
            ]);
        }
    }
    table.print();
}
