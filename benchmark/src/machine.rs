//! The machine's two roofline ceilings, measured in the run that uses them:
//! peak single-precision multiply-add rate and sustained triad bandwidth,
//! both over the same number of threads as the workload.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Elements of each triad array: 256 MB of `f32`. The last-level cache this
/// host reports is 260 MiB, shared by the whole socket; arrays four times
/// that do not fit the benchmark's time budget, so the three arrays together
/// (768 MB) are only about three times the cache. `README.md` states both.
pub const TRIAD_LEN: usize = 64 << 20;

/// GFLOP/s of an unrolled `v * m + a` over independent accumulators, summed
/// over `threads` threads. Multiply then add, not `mul_add`: the stencil
/// kernels forgo FMA contraction to stay bitwise equal across backends, so
/// this is the ceiling they can reach.
pub fn peak_gflops(threads: usize) -> f64 {
    const LANES: usize = 64;
    const ITERS: u64 = 40_000_000;
    let one = || {
        let mut acc: [f32; LANES] = std::array::from_fn(|i| 1.0 + i as f32 * 0.01);
        let (m, a) = (black_box(1.000_000_1f32), black_box(1e-9f32));
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = *v * m + a;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(acc);
        (ITERS * 2 * LANES as u64) as f64 / secs / 1e9
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("peak worker panicked"))
            .sum()
    })
}

/// GB/s of `a[i] = b[i] + s·c[i]` over three arrays of `len` elements, split
/// over `threads` threads; counts two reads, one write and the
/// write-allocate read.
pub fn triad_gbs(len: usize, threads: usize) -> f64 {
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let chunk = len.div_ceil(threads);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 1.5 * c;
                        }
                    });
                }
            });
            black_box(&mut a);
            (len * 4 * 4) as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Attainable GFLOP/s at arithmetic intensity `ai` (FLOP/byte).
pub fn roof_gflops(peak_gflops: f64, triad_gbs: f64, ai: f64) -> f64 {
    peak_gflops.min(triad_gbs * ai)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roof_is_the_lower_ceiling() {
        assert_eq!(roof_gflops(100.0, 10.0, 1.0), 10.0);
        assert_eq!(roof_gflops(100.0, 10.0, 50.0), 100.0);
    }

    #[test]
    fn ceilings_are_sane_on_small_inputs() {
        let bw = triad_gbs(1 << 20, 2);
        assert!(bw > 0.05 && bw < 5000.0, "{bw} GB/s");
    }
}
