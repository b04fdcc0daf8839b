//! Kernel cost models: FLOPs, bytes, arithmetic intensity.
//!
//! The paper's Fig. 11 places each kernel on a cache-aware roofline. We
//! reproduce the model analytically: FLOPs per point-update come from the
//! stencil structure; bytes per point-update come from a traffic model with
//! two limits — *no-reuse* (every stencil read misses) and *perfect-reuse*
//! (each array element is loaded once per sweep, the streaming lower bound
//! that spatial blocking approaches and temporal blocking beats by a factor
//! of the time-tile height).

/// Cost of one point-update of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations per point-update.
    pub flops: f64,
    /// Bytes moved per point-update with *no* cache reuse.
    pub bytes_no_reuse: f64,
    /// Bytes moved per point-update with perfect spatial reuse
    /// (compulsory/streaming traffic only).
    pub bytes_streaming: f64,
    /// Grid-sized parameter volumes the update streams alongside the
    /// wavefields (per-pencil scalars and stencil weights not counted).
    pub params: usize,
}

impl KernelCost {
    /// Arithmetic intensity (FLOP/byte) in the streaming limit.
    pub fn ai_streaming(&self) -> f64 {
        self.flops / self.bytes_streaming
    }

    /// Arithmetic intensity in the no-reuse limit.
    pub fn ai_no_reuse(&self) -> f64 {
        self.flops / self.bytes_no_reuse
    }

    /// Effective streaming bytes when a temporal tile of height `tt` keeps
    /// wavefields cache-resident across `tt` timesteps: the read-back of the
    /// previous level and the write-back of the new one amortise over the
    /// tile.
    pub fn bytes_streaming_temporal(&self, tt: usize) -> f64 {
        assert!(tt >= 1);
        // Compulsory traffic per sweep divided by the reuse factor; parameter
        // fields still stream once per sweep, which we fold into the same
        // bound — this is the first-order model the paper's roofline uses.
        self.bytes_streaming / tt as f64
    }
}

/// FLOPs of a symmetric star Laplacian contribution of radius `r`:
/// per axis: `r` (pair adds) + `r` muls + `r` accumulate adds, plus the
/// centre multiply–add.
pub fn laplacian_flops(r: usize) -> f64 {
    (3 * 3 * r + 2) as f64
}

/// FLOPs of an antisymmetric first-derivative contribution of radius `r`.
pub fn first_diff_flops(r: usize) -> f64 {
    (3 * r) as f64
}

/// FLOPs of one axis' symmetric second derivative of radius `r`: the centre
/// multiply, then per tap pair an add, a multiply and an accumulate.
pub fn second_diff_flops(r: usize) -> f64 {
    (3 * r + 1) as f64
}

/// Cost of the isotropic acoustic update (paper §III-A) at space order `so`.
///
/// Update: `u⁺ = c1·u − c2·u⁻ + c3·(Δu + src)`, with `c3 = dt²/(m·(1+η))`
/// the one parameter volume; the sponge's `c1`, `c2` are per-pencil scalars.
/// `u⁺` overwrites `u⁻` in place, so the line written is the line just read
/// and no write-allocate read streams.
pub fn acoustic_cost(so: usize) -> KernelCost {
    let r = so / 2;
    // Laplacian + 2nd-order time update (~8 flops: 2u - um1, mul dt²/m,
    // damping multiply-adds).
    let flops = laplacian_flops(r) + 8.0;
    let f = 4.0; // sizeof f32
    let params = 1;
    // Reads: u (2r+1 per axis but streaming = 1), u⁻, `c3`; write u⁺ over
    // u⁻ — four streams.
    let bytes_streaming = f * (1.0 + 1.0 + params as f64 + 1.0);
    let bytes_no_reuse = f * ((6 * r + 1) as f64 + 1.0 + params as f64 + 1.0);
    KernelCost {
        flops,
        bytes_no_reuse,
        bytes_streaming,
        params,
    }
}

/// Cost of the TTI pseudo-acoustic update (paper §III-B) at space order `so`.
///
/// Two coupled fields under a rotated Laplacian whose mixed derivatives the
/// operation count grows steeply with ("increases the operation count
/// drastically", §III-B). The count is what `Tti::step_region` executes per
/// point-update: each mixed derivative as two cascaded first-derivative
/// passes, `2·2r` taps, not the `(2r)²`-tap outer product. The cached `D_y`
/// rows a region recomputes along its x edges depend on the caller's block
/// shape and are not counted.
pub fn tti_cost(so: usize) -> KernelCost {
    let r = so / 2;
    // Row passes, both fields: the straight `∂xx`, `∂yy`, `∂zz`, and per
    // field five first-derivative passes — the cached `D_y` row, the `D_x`
    // row, and the composed `D_x(D_y)`, `D_z(D_x)`, `D_z(D_y)`.
    let (second_rows, first_passes) = (2 * 3, 2 * 5);
    // Combine: the six rotation products from `2a`, `2b`, `c` (8 multiplies:
    // `a`, `b` once, then `a·a`, `b·b`, `c·c`, `a·2b`, `2a·c`, `2b·c`), the
    // two rotated sums `G_z̄z̄ p`, `G_z̄z̄ q` (6 multiplies + 5 adds each),
    // `G_h p` (3), the two right-hand sides (3 + 2) and the two leap-frog
    // updates (5 each).
    let combine = 8 + 2 * 11 + 3 + 3 + 2 + 2 * 5;
    let flops = second_rows as f64 * second_diff_flops(r)
        + first_passes as f64 * first_diff_flops(r)
        + combine as f64;
    // Streams: `p`, `p⁻`, `q`, `q⁻` reads; `p⁺`, `q⁺` writes over `p⁻`,
    // `q⁻` in place, with no write-allocate reads; 6 parameter volumes
    // (`c3`, `1+2ε`, `√(1+2δ)` and the rotation's `2a`, `2b`, `c` — the
    // sponge's `c1`, `c2` are per-pencil scalars).
    let params = 6;
    let streams = 4 + 2 + params;
    let f = 4.0;
    let bytes_streaming = f * streams as f64;
    // Every tap a load, plus the streams other than the two stencil inputs.
    let taps = second_rows * (2 * r + 1) + first_passes * 2 * r;
    let bytes_no_reuse = f * (streams - 2 + taps) as f64;
    KernelCost {
        flops,
        bytes_no_reuse,
        bytes_streaming,
        params,
    }
}

/// Cost of the elastic velocity–stress update (paper §III-C) at space
/// order `so`, averaged per grid point over the 9 coupled fields.
pub fn elastic_cost(so: usize) -> KernelCost {
    let r = so / 2;
    // v update: 3 components × 3 staggered diffs; τ update: 6 components
    // built from 9 velocity derivatives + Lamé algebra.
    let flops = 9.0 * first_diff_flops(r) + 9.0 * first_diff_flops(r) + 40.0;
    let f = 4.0;
    // 9 wavefields read and written in place (no write-allocate read), 3
    // parameter streams (`dt·λ`, `dt·μ`, `dt/ρ`; the sponge's `1−η` is a
    // per-pencil scalar).
    let params = 3;
    let bytes_streaming = f * (9.0 * 2.0 + params as f64);
    let bytes_no_reuse = f * (9.0 * (2 * r + 2) as f64 + params as f64);
    KernelCost {
        flops,
        bytes_no_reuse,
        bytes_streaming,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acoustic_ai_grows_with_order() {
        let a4 = acoustic_cost(4);
        let a8 = acoustic_cost(8);
        let a12 = acoustic_cost(12);
        assert!(a4.ai_streaming() < a8.ai_streaming());
        assert!(a8.ai_streaming() < a12.ai_streaming());
    }

    #[test]
    fn streaming_bound_is_below_no_reuse() {
        for so in [4, 8, 12] {
            for c in [acoustic_cost(so), tti_cost(so), elastic_cost(so)] {
                assert!(c.bytes_streaming < c.bytes_no_reuse);
                assert!(c.ai_streaming() > c.ai_no_reuse());
            }
        }
    }

    #[test]
    fn tti_is_compute_heavier_than_acoustic() {
        // §III-B: the rotated Laplacian "increases the operation count
        // drastically".
        for so in [4, 8, 12] {
            assert!(tti_cost(so).flops > 2.0 * acoustic_cost(so).flops);
        }
    }

    #[test]
    fn tti_cost_is_the_executed_count() {
        // Derived from the step's structure, not from the formula: per field
        // three straight rows of 2r+1 taps and five first-derivative passes
        // of 2r taps (two inner rows, three composed), each tap pair an
        // add/sub, a multiply and an accumulate; then the combine, whose
        // first 8 multiplies form the rotation products.
        for so in [4usize, 8, 12] {
            let r = so / 2;
            let (fields, straight, passes) = (2, 3, 5);
            let pair_flops = 3;
            let row_flops = straight * (r * pair_flops + 1) + passes * r * pair_flops;
            let combine = 8 + 40;
            let c = tti_cost(so);
            assert_eq!(c.flops, (fields * row_flops + combine) as f64, "so {so}");
            // Two fields read twice and written once in place, 6 volumes.
            assert_eq!(c.bytes_streaming, 4.0 * 12.0);
            let taps = fields * (straight * (2 * r + 1) + passes * 2 * r);
            assert_eq!(c.bytes_no_reuse, 4.0 * (taps + 10) as f64);
        }
        assert_eq!(tti_cost(8).flops, 246.0);
    }

    #[test]
    fn elastic_moves_most_data() {
        // §III-C: "increases the data movement drastically (one or two
        // versus nine state parameters)".
        for so in [4, 8, 12] {
            assert!(elastic_cost(so).bytes_streaming > 3.0 * acoustic_cost(so).bytes_streaming);
        }
    }

    #[test]
    fn temporal_reuse_divides_traffic() {
        let c = acoustic_cost(8);
        let b1 = c.bytes_streaming_temporal(1);
        let b4 = c.bytes_streaming_temporal(4);
        assert_eq!(b1, c.bytes_streaming);
        assert!((b4 - c.bytes_streaming / 4.0).abs() < 1e-12);
    }

    #[test]
    fn acoustic_low_ai_is_memory_bound_regime() {
        // The discretised acoustic equation is "generally memory-bound"
        // (§III-A): AI below ~10 flop/byte even in the streaming limit.
        assert!(acoustic_cost(4).ai_streaming() < 10.0);
    }

    #[test]
    #[should_panic]
    fn temporal_reuse_requires_positive_tile() {
        let _ = acoustic_cost(4).bytes_streaming_temporal(0);
    }
}
