//! Reproduces paper Fig. 9: throughput (GPoints/s) speedup of wave-front
//! temporal blocking over tuned spatially blocked code, for the three wave
//! propagators at space orders 4, 8 and 12.
//!
//! ```text
//! cargo run -p tempest-bench --release --bin figure9 -- [--size 256] [--nt 32] [--so 4,8,12] [--fast]
//! ```
//!
//! Expected shape (paper §IV.D): all models speed up at SO 4 — acoustic the
//! most (paper: ~1.6×), TTI next (~1.44×), elastic least (~1.2–1.3×);
//! gains shrink at SO 8 (≥1.1×) and mostly vanish at SO 12.

use tempest_bench::args::HarnessArgs;
use tempest_bench::report::{f3, speedup, Table};
use tempest_bench::{setup, sweep};

fn main() {
    let args = HarnessArgs::parse(256, 32);
    let nt_tune = 8.min(args.nt);
    println!(
        "figure9: grid {0}^3, nt {1} (tune nt {nt_tune}), threads {2}",
        args.size,
        args.nt,
        tempest_par::available_threads()
    );

    let mut table = Table::new(
        "Figure 9 — WTB speedup over tuned spatial blocking",
        &[
            "model",
            "so",
            "base blk",
            "base GPts/s",
            "wtb tile",
            "wtb GPts/s",
            "speedup",
        ],
    );

    for &so in &args.space_orders {
        for model in ["acoustic", "tti", "elastic"] {
            if !args.models.iter().any(|m| m == model) {
                continue;
            }
            bench_one(model, so, &args, nt_tune, &mut table);
        }
    }
    table.print();
}

fn bench_one(model: &str, so: usize, args: &HarnessArgs, nt_tune: usize, table: &mut Table) {
    // Tuning solvers are short runs; measurement solvers use the full nt.
    // Quick tuning sweep: the exhaustive Table-I sweep lives in `table1`.
    let cands = sweep::candidates_for(args.size, args.size, nt_tune, true);
    let repeats = if args.fast { 1 } else { 2 };
    let mut tuner = setup::solver(model, args.size, so, nt_tune, 0);
    let base_blk = sweep::tune_baseline(&mut *tuner);
    let best = sweep::tune_wavefront(&mut *tuner, &cands).best;
    let mut s = setup::solver(model, args.size, so, args.nt, 8);
    let eb = sweep::exec_spaceblocked(base_blk.0, base_blk.1).with_kernel(args.kernel);
    let base = sweep::measure(&mut *s, &eb, repeats);
    let ew = sweep::exec_wavefront(&best).with_kernel(args.kernel);
    let wtb = sweep::measure(&mut *s, &ew, repeats);
    let sp = wtb.gpoints_per_s / base.gpoints_per_s;
    println!(
        "  {model} so{so}: base {:.3} GPts/s (blk {}x{}), wtb {:.3} GPts/s ({}), speedup {:.2}x",
        base.gpoints_per_s, base_blk.0, base_blk.1, wtb.gpoints_per_s, best, sp
    );
    table.row(&[
        model.to_string(),
        so.to_string(),
        format!("{}x{}", base_blk.0, base_blk.1),
        f3(base.gpoints_per_s),
        format!("{best}"),
        f3(wtb.gpoints_per_s),
        speedup(sp),
    ]);
}
