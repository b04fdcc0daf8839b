//! Reproduces paper Fig. 11: a cache-aware roofline for the isotropic
//! acoustic kernel at space orders 4, 8, 12, with spatially blocked
//! (paper: red markers) and temporally blocked (yellow) executions.
//!
//! ```text
//! cargo run -p tempest-bench --release --bin figure11 -- [--size 256] [--nt 16] [--fast]
//! ```
//!
//! Machine ceilings are measured in-process (peak FMA throughput and STREAM
//! triad bandwidth) instead of with Intel Advisor; kernel arithmetic
//! intensities come from the analytic traffic model in
//! `tempest_stencil::metrics`. The claim to reproduce: temporal blocking
//! raises the *effective* AI by reusing cached levels across `tile_t`
//! timesteps, moving the kernel off the bandwidth ceiling ("breaking the
//! ceiling of the L3 cache").

use tempest_bench::args::HarnessArgs;
use tempest_bench::report::{f3, Table};
use tempest_bench::roofline::{measure_bandwidth_gbs, measure_peak_gflops, MachineRoof};
use tempest_bench::{setup, sweep};
use tempest_stencil::metrics::acoustic_cost;

fn main() {
    let args = HarnessArgs::parse(256, 16);
    println!("figure11: measuring machine ceilings…");
    let roof = MachineRoof {
        peak_gflops: measure_peak_gflops(if args.fast { 2_000_000 } else { 20_000_000 }),
        bandwidth_gbs: measure_bandwidth_gbs(1 << 26, if args.fast { 2 } else { 6 }),
    };
    println!(
        "  peak {:.2} GFLOP/s, bandwidth {:.2} GB/s, ridge AI {:.2} flop/byte",
        roof.peak_gflops,
        roof.bandwidth_gbs,
        roof.ridge_ai()
    );

    let mut table = Table::new(
        "Figure 11 — cache-aware roofline, isotropic acoustic (ceilings above)",
        &[
            "kernel",
            "schedule",
            "AI flop/B",
            "GFLOP/s",
            "roof GFLOP/s",
            "% of roof",
        ],
    );
    let cands = sweep::candidates_for(args.size, args.size, args.nt, true);
    for &so in &args.space_orders {
        let cost = acoustic_cost(so);
        let mut s = setup::acoustic(args.size, so, args.nt, 0);
        let base_blk = sweep::tune_baseline(&mut s);
        let tuned = sweep::tune_wavefront(&mut s, &cands);
        let base = sweep::measure(&mut s, &sweep::exec_spaceblocked(base_blk.0, base_blk.1), 1);
        let wtb = sweep::measure(&mut s, &sweep::exec_wavefront(&tuned.best), 1);

        // Spatially blocked: streaming traffic each sweep.
        let ai_base = cost.ai_streaming();
        let g_base = base.gflops(cost.flops);
        // Temporally blocked: compulsory traffic amortised over the tile
        // height (the effective-AI model of the cache-aware roofline).
        let ai_wtb = cost.flops / cost.bytes_streaming_temporal(tuned.best.tile_t);
        let g_wtb = wtb.gflops(cost.flops);
        for (label, ai, g) in [("spatial", ai_base, g_base), ("wtb", ai_wtb, g_wtb)] {
            let attainable = roof.attainable(ai);
            println!(
                "  so{so} {label}: AI {ai:.2}, {g:.2} GFLOP/s ({:.0}% of {attainable:.2})",
                100.0 * g / attainable
            );
            table.row(&[
                format!("acoustic so{so}"),
                label.to_string(),
                f3(ai),
                f3(g),
                f3(attainable),
                format!("{:.0}%", 100.0 * g / attainable),
            ]);
        }
    }
    table.print();
    println!(
        "roofline ceilings: mem(AI) = {:.2}·AI GFLOP/s, compute = {:.2} GFLOP/s",
        roof.bandwidth_gbs, roof.peak_gflops
    );
}
