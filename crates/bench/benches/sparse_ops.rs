//! Micro-benchmarks of the off-grid sparse-operator paths:
//! classic per-timestep injection (Listing 1), the one-off precomputation
//! cost (§II.A — the "negligible overhead" claim: points, decomposed
//! wavelets and the pencil index), and the per-step fused apply over the
//! compressed index (Listing 5).

use std::hint::black_box;
use tempest_bench::microbench::{self, Config};
use tempest_grid::{Domain, Field, Shape};
use tempest_sparse::wavelet::wavelet_matrix;
use tempest_sparse::{inject, ricker, SourcePrecompute, SparsePoints};

const N: usize = 96;
const NT: usize = 32;

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

fn bench_classic_injection(cfg: Config) {
    let d = domain();
    for nsrc in [1usize, 64, 1024] {
        let pts = SparsePoints::dense_layout(&d, nsrc, 0.37);
        let stencils = tempest_sparse::interp::trilinear_all(&d, &pts);
        let amps = vec![0.5f32; nsrc];
        let mut f = Field::zeros(d.shape(), 2);
        microbench::run(&format!("classic_inject/{nsrc}"), cfg, || {
            inject(black_box(&mut f), &stencils, &amps, |_, _, _| 1.0);
        });
    }
}

fn bench_precompute_build(cfg: Config) {
    let d = domain();
    for nsrc in [1usize, 64, 1024] {
        let pts = SparsePoints::dense_layout(&d, nsrc, 0.37);
        let w = wavelet_matrix(&ricker(10.0, 0.001, NT), nsrc);
        microbench::run(&format!("precompute_build/{nsrc}"), cfg, || {
            let pre = SourcePrecompute::build(black_box(&d), &pts, &w);
            black_box((pre.npts(), pre.index.total()));
        });
    }
}

fn bench_fused_apply(cfg: Config) {
    let d = domain();
    let pts = SparsePoints::plane_layout(&d, 64, 0.5, 0.37);
    let w = wavelet_matrix(&ricker(10.0, 0.001, NT), 64);
    let pre = SourcePrecompute::build(&d, &pts, &w);
    let mut f = Field::zeros(d.shape(), 2);

    microbench::run("fused_apply_per_sweep/compressed_nnz", cfg, || {
        let dcmp = pre.dcmp_row(3);
        for x in 0..N {
            for y in 0..N {
                for (z, id) in pre.index.entries(x, y) {
                    f.add(x, y, z, dcmp[id]);
                }
            }
        }
        black_box(&f);
    });
}

fn main() {
    let cfg = Config::default();
    bench_classic_injection(cfg);
    bench_precompute_build(Config::coarse());
    bench_fused_apply(cfg);
}
