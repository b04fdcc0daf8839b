//! Finite-difference weight generation (Fornberg's algorithm).
//!
//! B. Fornberg, *"Generation of finite difference formulas on arbitrarily
//! spaced grids"*, Math. Comp. 51 (1988). Given arbitrary nodes and an
//! evaluation point, the algorithm produces the weights of the
//! interpolating-polynomial derivative exactly (in f64), from which we
//! derive the centred and staggered stencils used by the propagators.

/// Weights for the `m`-th derivative at evaluation point `z` over `nodes`.
///
/// Returns `w` with `w[k]` multiplying `f(nodes[k])`; the approximation is
/// `f^(m)(z) ≈ Σ_k w[k]·f(nodes[k])`. Exact for polynomials of degree
/// `< nodes.len()`.
///
/// # Panics
/// If `nodes` has fewer than `m + 1` points or contains duplicates.
pub fn fornberg_weights(z: f64, nodes: &[f64], m: usize) -> Vec<f64> {
    let n = nodes.len();
    assert!(n > m, "need at least m+1 nodes for the m-th derivative");
    for i in 0..n {
        for j in (i + 1)..n {
            assert!(
                (nodes[i] - nodes[j]).abs() > 1e-14,
                "duplicate nodes in FD weight generation"
            );
        }
    }
    // c[j][k]: weight of node j for derivative order k, built incrementally.
    let mut c = vec![vec![0.0f64; m + 1]; n];
    let mut c1 = 1.0f64;
    let mut c4 = nodes[0] - z;
    c[0][0] = 1.0;
    for i in 1..n {
        let mn = i.min(m);
        let mut c2 = 1.0f64;
        let c5 = c4;
        c4 = nodes[i] - z;
        for j in 0..i {
            let c3 = nodes[i] - nodes[j];
            c2 *= c3;
            if j == i - 1 {
                for k in (1..=mn).rev() {
                    c[i][k] = c1 * (k as f64 * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2;
                }
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2;
            }
            for k in (1..=mn).rev() {
                c[j][k] = (c4 * c[j][k] - k as f64 * c[j][k - 1]) / c3;
            }
            c[j][0] = c4 * c[j][0] / c3;
        }
        c1 = c2;
    }
    c.into_iter().map(|row| row[m]).collect()
}

/// Centred FD weights for the `deriv`-th derivative at accuracy `order`.
///
/// Nodes are the integer offsets `-r..=r` with `r = order / 2` (unit
/// spacing); divide by `h^deriv` for a physical grid. Returns `2r + 1`
/// weights indexed by `offset + r`.
///
/// # Panics
/// If `order` is zero or odd, or `deriv` is not 1 or 2.
pub fn central_coeffs(deriv: usize, order: usize) -> Vec<f64> {
    assert!(
        order >= 2 && order.is_multiple_of(2),
        "space order must be even ≥ 2"
    );
    assert!(deriv == 1 || deriv == 2, "only first/second derivatives");
    let r = order / 2;
    let nodes: Vec<f64> = (-(r as i64)..=(r as i64)).map(|k| k as f64).collect();
    fornberg_weights(0.0, &nodes, deriv)
}

/// Half-weights of a centred stencil: `(center, w[1..=r])` exploiting
/// symmetry (second derivative) — `w[k]` multiplies `f(+k) + f(-k)`.
pub fn central_coeffs_symmetric(order: usize) -> (f64, Vec<f64>) {
    let full = central_coeffs(2, order);
    let r = order / 2;
    let center = full[r];
    let side: Vec<f64> = (1..=r).map(|k| full[r + k]).collect();
    // Sanity: a second-derivative stencil is symmetric.
    for (k, &w) in side.iter().enumerate() {
        debug_assert!((w - full[r - (k + 1)]).abs() < 1e-12);
    }
    (center, side)
}

/// Antisymmetric half-weights of the centred first derivative:
/// `w[k]` multiplies `f(+k) − f(-k)` for `k = 1..=r`.
pub fn central_first_antisymmetric(order: usize) -> Vec<f64> {
    let full = central_coeffs(1, order);
    let r = order / 2;
    (1..=r).map(|k| full[r + k]).collect()
}

/// Staggered first-derivative weights at accuracy `order`.
///
/// Evaluates `f'` at `0` from nodes at half-integer offsets
/// `±1/2, ±3/2, …, ±(r−1/2)` with `r = order / 2`. Returns the `r`
/// positive-side weights `w[k]` multiplying `f(+(k+1/2)) − f(−(k+1/2))`
/// (the stencil is antisymmetric). Order 2 gives `[1.0]`; order 4 gives
/// `[9/8, −1/24]`.
pub fn staggered_coeffs(order: usize) -> Vec<f64> {
    assert!(
        order >= 2 && order.is_multiple_of(2),
        "space order must be even ≥ 2"
    );
    let r = order / 2;
    let mut nodes = Vec::with_capacity(2 * r);
    for k in 0..r {
        nodes.push(-(k as f64) - 0.5);
        nodes.push(k as f64 + 0.5);
    }
    nodes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let full = fornberg_weights(0.0, &nodes, 1);
    // nodes[r + k] = +(k + 1/2)
    (0..r).map(|k| full[r + k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !≈ {b}");
    }

    #[test]
    fn order2_second_derivative_is_1_m2_1() {
        let w = central_coeffs(2, 2);
        assert_eq!(w.len(), 3);
        assert_close(w[0], 1.0, 1e-12);
        assert_close(w[1], -2.0, 1e-12);
        assert_close(w[2], 1.0, 1e-12);
    }

    #[test]
    fn order4_second_derivative_known_values() {
        let w = central_coeffs(2, 4);
        let expect = [-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0];
        for (a, b) in w.iter().zip(expect) {
            assert_close(*a, b, 1e-12);
        }
    }

    #[test]
    fn order8_second_derivative_center() {
        // Known center weight: -205/72.
        let w = central_coeffs(2, 8);
        assert_close(w[4], -205.0 / 72.0, 1e-12);
    }

    #[test]
    fn order2_first_derivative() {
        let w = central_coeffs(1, 2);
        assert_close(w[0], -0.5, 1e-12);
        assert_close(w[1], 0.0, 1e-12);
        assert_close(w[2], 0.5, 1e-12);
    }

    #[test]
    fn second_derivative_weights_sum_to_zero_all_orders() {
        for order in [2, 4, 6, 8, 10, 12, 16] {
            let w = central_coeffs(2, order);
            let s: f64 = w.iter().sum();
            assert!(s.abs() < 1e-10, "order {order}: sum {s}");
        }
    }

    #[test]
    fn second_derivative_symmetric_first_antisymmetric() {
        for order in [4, 8, 12] {
            let w2 = central_coeffs(2, order);
            let w1 = central_coeffs(1, order);
            let r = order / 2;
            for k in 1..=r {
                assert_close(w2[r + k], w2[r - k], 1e-12);
                assert_close(w1[r + k], -w1[r - k], 1e-12);
            }
            assert_close(w1[r], 0.0, 1e-12);
        }
    }

    /// FD weights must differentiate polynomials up to the stencil's design
    /// degree exactly.
    #[test]
    fn exactness_on_polynomials() {
        for order in [2, 4, 8, 12] {
            let r = (order / 2) as i64;
            let w2 = central_coeffs(2, order);
            let w1 = central_coeffs(1, order);
            // test at x0 = 0 on p(x) = x^d
            for d in 0..=(2 * r) as u32 {
                let d2: f64 = w2
                    .iter()
                    .zip(-r..=r)
                    .map(|(&w, k)| w * (k as f64).powi(d as i32))
                    .sum();
                let expect2 = if d == 2 { 2.0 } else { 0.0 };
                assert_close(d2, expect2, 1e-8);
                let d1: f64 = w1
                    .iter()
                    .zip(-r..=r)
                    .map(|(&w, k)| w * (k as f64).powi(d as i32))
                    .sum();
                let expect1 = if d == 1 { 1.0 } else { 0.0 };
                assert_close(d1, expect1, 1e-8);
            }
        }
    }

    #[test]
    fn staggered_order2_and_4_known_values() {
        let w2 = staggered_coeffs(2);
        assert_eq!(w2.len(), 1);
        assert_close(w2[0], 1.0, 1e-12);
        let w4 = staggered_coeffs(4);
        assert_close(w4[0], 9.0 / 8.0, 1e-12);
        assert_close(w4[1], -1.0 / 24.0, 1e-12);
    }

    #[test]
    fn staggered_exactness_on_odd_polynomials() {
        for order in [2, 4, 8, 12] {
            let r = order / 2;
            let w = staggered_coeffs(order);
            for d in 0..2 * r as u32 {
                let val: f64 = w
                    .iter()
                    .enumerate()
                    .map(|(k, &wk)| {
                        let xk = k as f64 + 0.5;
                        wk * (xk.powi(d as i32) - (-xk).powi(d as i32))
                    })
                    .sum();
                let expect = if d == 1 { 1.0 } else { 0.0 };
                assert_close(val, expect, 1e-8);
            }
        }
    }

    #[test]
    fn symmetric_helper_matches_full() {
        for order in [4, 8, 12] {
            let (c, side) = central_coeffs_symmetric(order);
            let full = central_coeffs(2, order);
            let r = order / 2;
            assert_close(c, full[r], 1e-14);
            for (k, &w) in side.iter().enumerate() {
                assert_close(w, full[r + k + 1], 1e-14);
            }
        }
    }

    #[test]
    fn antisymmetric_helper_matches_full() {
        let side = central_first_antisymmetric(8);
        let full = central_coeffs(1, 8);
        for (k, &w) in side.iter().enumerate() {
            assert_close(w, full[4 + k + 1], 1e-14);
        }
    }

    #[test]
    fn fornberg_arbitrary_nodes_interpolation_weights() {
        // m = 0 gives Lagrange interpolation weights: at a node they are a
        // Kronecker delta.
        let nodes = [-1.0, 0.5, 2.0, 3.7];
        let w = fornberg_weights(0.5, &nodes, 0);
        assert_close(w[0], 0.0, 1e-12);
        assert_close(w[1], 1.0, 1e-12);
        assert_close(w[2], 0.0, 1e-12);
        assert_close(w[3], 0.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_nodes() {
        let _ = fornberg_weights(0.0, &[0.0, 1.0, 1.0], 1);
    }

    #[test]
    #[should_panic(expected = "m+1 nodes")]
    fn rejects_too_few_nodes() {
        let _ = fornberg_weights(0.0, &[0.0, 1.0], 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_order() {
        let _ = central_coeffs(2, 3);
    }
}
