//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * **B. Temporal tile height** — sweep `tile_t` from 1 (≈ spatial
//!   blocking) upward: cache reuse grows with the tile height until the
//!   skewed working set falls out of cache.
//! * **C. Pure skewing vs tiling** — one whole-grid tile vs the tiled
//!   wave-front.
//! * **D. Kernel backends** — scalar reference loops vs every vector backend.
//!
//! The letters match EXPERIMENTS.md §Ablations, which also keeps ablation A
//! (Listing 4 vs 5), the evidence for shipping Listing 5 alone.
//!
//! ```text
//! cargo run -p tempest-bench --release --bin ablation -- [--size 256] [--nt 16] [--fast]
//! ```

use tempest_bench::args::HarnessArgs;
use tempest_bench::report::{f3, Table};
use tempest_bench::{setup, sweep};
use tempest_tiling::Candidate;

fn main() {
    let args = HarnessArgs::parse(256, 16);
    println!(
        "ablation: grid {}^3, nt {}, acoustic so4",
        args.size, args.nt
    );
    tile_height_sweep(&args);
    skewing_vs_tiling(&args);
    scalar_vs_pencil(&args);
}

/// Ablation D — the kernel-backend axis: scalar reference loops vs every
/// vector backend available on this host (portable pencil kernels, AVX2
/// intrinsics), per model and schedule. All backends are bitwise identical
/// in output (see `tests/kernel_backends.rs`); this quantifies what each
/// step of explicitness buys over the per-point reference.
fn scalar_vs_pencil(args: &HarnessArgs) {
    use tempest_core::operator::KernelPath;
    use tempest_stencil::Backend;
    let mut table = Table::new(
        "Ablation D — kernel backends vs scalar reference",
        &["model", "schedule", "kernel", "GPts/s", "vs scalar"],
    );
    let so = 8usize;
    let wtb = Candidate {
        tile_x: 16,
        tile_y: 16,
        tile_t: 8.min(args.nt),
        block_x: 8,
        block_y: 8,
    };
    let backends: Vec<Backend> = Backend::ALL.into_iter().filter(|b| b.available()).collect();
    let mut run = |model: &str, s: &mut dyn tempest_core::WaveSolver| {
        for (sched, exec) in [
            ("spaceblocked", sweep::exec_spaceblocked(8, 8)),
            ("wavefront", sweep::exec_wavefront(&wtb)),
        ] {
            let mut scalar_gpts = 0.0f64;
            for &b in &backends {
                let st = sweep::measure(s, &exec.with_kernel(KernelPath::from(b)), 1);
                if b == Backend::Scalar {
                    scalar_gpts = st.gpoints_per_s;
                }
                println!(
                    "  {model} so{so} {sched} {}: {:.3} GPts/s",
                    b.name(),
                    st.gpoints_per_s
                );
                table.row(&[
                    model.to_string(),
                    sched.to_string(),
                    b.name().to_string(),
                    f3(st.gpoints_per_s),
                    format!("{:.2}x", st.gpoints_per_s / scalar_gpts),
                ]);
            }
        }
    };
    for model in ["acoustic", "tti", "elastic"] {
        if args.models.iter().any(|m| m == model) {
            run(model, &mut *setup::solver(model, args.size, so, args.nt, 0));
        }
    }
    if !Backend::Avx2.available() {
        table.row(&[
            "(caveat)".into(),
            "-".into(),
            "avx2".into(),
            "n/a".into(),
            "host lacks AVX2; rows omitted".into(),
        ]);
        println!("  note: AVX2 unavailable on this host — avx2 rows omitted");
    }
    table.print();
}

/// Ablation C — pure time-skewing (one whole-grid tile, only the wave-front
/// angle reorders iterations) vs proper space-time tiling. Skewing alone
/// gives no spatial cache reuse across timesteps on large grids.
fn skewing_vs_tiling(args: &HarnessArgs) {
    let mut table = Table::new(
        "Ablation C — pure skewing vs tiled wave-front (acoustic so4)",
        &["schedule", "GPts/s"],
    );
    let mut s = setup::acoustic(args.size, 4, args.nt, 0);
    let tt = 8.min(args.nt);
    // Pure skewing: a single spatial tile covering the skewed domain.
    let skew_only = Candidate {
        tile_x: args.size + (tt - 1) * 2,
        tile_y: args.size + (tt - 1) * 2,
        tile_t: tt,
        block_x: 8,
        block_y: 8,
    };
    let tiled = Candidate {
        tile_x: 16,
        tile_y: 16,
        tile_t: tt,
        block_x: 8,
        block_y: 8,
    };
    for (label, c) in [("pure skewing", skew_only), ("tiled wavefront", tiled)] {
        let st = sweep::measure(&mut s, &sweep::exec_wavefront(&c), 1);
        println!("  {label}: {:.3} GPts/s", st.gpoints_per_s);
        table.row(&[label.to_string(), f3(st.gpoints_per_s)]);
    }
    table.print();
}

fn tile_height_sweep(args: &HarnessArgs) {
    let mut table = Table::new(
        "Ablation B — temporal tile height (tile 16x16, block 8x8)",
        &["tile_t", "GPts/s", "vs tile_t=1"],
    );
    let mut s = setup::acoustic(args.size, 4, args.nt, 0);
    let mut baseline = 0.0f64;
    for tt in [1usize, 2, 4, 8, 16] {
        if tt > args.nt {
            break;
        }
        let c = Candidate {
            tile_x: 16,
            tile_y: 16,
            tile_t: tt,
            block_x: 8,
            block_y: 8,
        };
        let st = sweep::measure(&mut s, &sweep::exec_wavefront(&c), 1);
        if tt == 1 {
            baseline = st.gpoints_per_s;
        }
        println!("  tile_t {tt}: {:.3} GPts/s", st.gpoints_per_s);
        table.row(&[
            tt.to_string(),
            f3(st.gpoints_per_s),
            format!("{:.2}x", st.gpoints_per_s / baseline),
        ]);
    }
    table.print();
}
