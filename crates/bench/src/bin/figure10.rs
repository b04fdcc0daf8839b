//! Reproduces paper Fig. 10: WTB speedup for the isotropic acoustic
//! operator (space order 4) over an increasing number of sources, in two
//! layouts — sparsely located on an x-y plane slice, and densely/uniformly
//! distributed over the whole 3-D grid (§IV.E corner cases).
//!
//! ```text
//! cargo run -p tempest-bench --release --bin figure10 -- [--size 256] [--nt 16] [--fast]
//! ```
//!
//! Expected shape: the speedup is insensitive to the source count for the
//! plane layout, and erodes (but survives) for very dense volumetric
//! layouts where the compressed iteration space stops being sparse
//! (paper: ~1.4× instead of ~1.55×).

use tempest_bench::args::HarnessArgs;
use tempest_bench::report::{f3, speedup, Table};
use tempest_bench::{setup, sweep};
use tempest_core::WaveSolver;
use tempest_grid::{Domain, Shape};
use tempest_sparse::SparsePoints;
use tempest_tiling::Candidate;

fn main() {
    let args = HarnessArgs::parse(256, 16);
    let so = 4;
    println!(
        "figure10: acoustic so{so}, grid {}^3, nt {}, threads {}",
        args.size,
        args.nt,
        tempest_par::available_threads()
    );
    let counts: Vec<usize> = if args.fast {
        vec![1, 16, 128]
    } else {
        vec![1, 4, 16, 64, 256, 1024, 4096]
    };

    // Tune once on the single-source problem; reuse the shapes across the
    // sweep (the paper tunes per problem class, not per source count).
    let cands = sweep::candidates_for(args.size, args.size, args.nt, true);
    let mut tuner = setup::acoustic(args.size, so, args.nt, 0);
    let best: Candidate = sweep::tune_wavefront(&mut tuner, &cands).best;
    let base_blk = sweep::tune_baseline(&mut tuner);
    drop(tuner);
    println!(
        "  tuned: wtb {best}, baseline block {}x{}",
        base_blk.0, base_blk.1
    );

    let mut table = Table::new(
        "Figure 10 — acoustic SO4 speedup vs number of sources",
        &[
            "layout",
            "sources",
            "affected pts",
            "base GPts/s",
            "wtb GPts/s",
            "speedup",
        ],
    );
    let domain = Domain::uniform(Shape::cube(args.size), 10.0);
    for layout in ["plane", "dense"] {
        for &n in &counts {
            let pts = match layout {
                "plane" => SparsePoints::plane_layout(&domain, n, 0.5, 0.37),
                _ => SparsePoints::dense_layout(&domain, n, 0.37),
            };
            let mut s = setup::acoustic_with_sources(args.size, so, args.nt, pts);
            let npts = s.sources().pre.npts();
            let base = sweep::measure(&mut s, &sweep::exec_spaceblocked(base_blk.0, base_blk.1), 1);
            let wtb = sweep::measure(&mut s, &sweep::exec_wavefront(&best), 1);
            let sp = wtb.gpoints_per_s / base.gpoints_per_s;
            println!(
                "  {layout} n={n}: {npts} affected, base {:.3}, wtb {:.3}, speedup {:.2}x",
                base.gpoints_per_s, wtb.gpoints_per_s, sp
            );
            table.row(&[
                layout.to_string(),
                n.to_string(),
                npts.to_string(),
                f3(base.gpoints_per_s),
                f3(wtb.gpoints_per_s),
                speedup(sp),
            ]);
        }
    }
    table.print();
}
