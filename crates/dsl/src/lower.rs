//! Spatial lowering: expand derivative nodes into explicit FD stencil sums.
//!
//! This is the "compiler" half of the mini-Devito: a solved [`crate::Update`]
//! still contains symbolic `laplace` / `Deriv` nodes; lowering replaces them
//! with [`LowExpr::Stencil`] nodes carrying explicit offset/weight lists
//! (Fornberg weights premultiplied by the grid-spacing factors) and folds
//! constants. The result is an interpretable kernel — the analogue of
//! Devito's generated C, executed by [`crate::DslOperator`].

use crate::expr::Expr;
use crate::field::{Context, FieldId, FieldKind};
use tempest_stencil::{central_coeffs, staggered_coeffs};

/// A lowered, directly interpretable expression.
#[derive(Debug, Clone, PartialEq)]
pub enum LowExpr {
    /// Literal.
    Const(f32),
    /// Wavefield access with time/space offsets.
    Access {
        /// Field accessed.
        field: FieldId,
        /// Temporal offset.
        t_off: i32,
        /// Spatial offsets.
        offs: [i32; 3],
    },
    /// Point-wise parameter access.
    Param(FieldId),
    /// An expanded stencil: `Σ_k w_k · field[t + t_off][p + off_k]`.
    Stencil {
        /// Field accessed.
        field: FieldId,
        /// Temporal offset.
        t_off: i32,
        /// `(offset, weight)` taps.
        taps: Vec<([i32; 3], f32)>,
    },
    /// Sum.
    Add(Box<LowExpr>, Box<LowExpr>),
    /// Difference.
    Sub(Box<LowExpr>, Box<LowExpr>),
    /// Product.
    Mul(Box<LowExpr>, Box<LowExpr>),
    /// Quotient.
    Div(Box<LowExpr>, Box<LowExpr>),
    /// Negation.
    Neg(Box<LowExpr>),
}

impl LowExpr {
    /// Maximum |spatial offset| referenced anywhere (halo requirement and
    /// wave-front skew of the lowered kernel).
    pub fn radius(&self) -> usize {
        match self {
            LowExpr::Const(_) | LowExpr::Param(_) => 0,
            LowExpr::Access { offs, .. } => offs
                .iter()
                .map(|o| o.unsigned_abs() as usize)
                .max()
                .unwrap(),
            LowExpr::Stencil { taps, .. } => taps
                .iter()
                .map(|(o, _)| o.iter().map(|v| v.unsigned_abs() as usize).max().unwrap())
                .max()
                .unwrap_or(0),
            LowExpr::Add(a, b) | LowExpr::Sub(a, b) | LowExpr::Mul(a, b) | LowExpr::Div(a, b) => {
                a.radius().max(b.radius())
            }
            LowExpr::Neg(a) => a.radius(),
        }
    }

    /// Oldest time level read (most negative `t_off`).
    pub fn min_t_off(&self) -> i32 {
        match self {
            LowExpr::Const(_) | LowExpr::Param(_) => 0,
            LowExpr::Access { t_off, .. } | LowExpr::Stencil { t_off, .. } => *t_off,
            LowExpr::Add(a, b) | LowExpr::Sub(a, b) | LowExpr::Mul(a, b) | LowExpr::Div(a, b) => {
                a.min_t_off().min(b.min_t_off())
            }
            LowExpr::Neg(a) => a.min_t_off(),
        }
    }

    /// Floating-point operations one evaluation performs (a multiply and an
    /// add per stencil tap) — the operator's roofline model input.
    pub fn flops(&self) -> usize {
        match self {
            LowExpr::Const(_) | LowExpr::Access { .. } | LowExpr::Param(_) => 0,
            LowExpr::Stencil { taps, .. } => 2 * taps.len(),
            LowExpr::Add(a, b) | LowExpr::Sub(a, b) | LowExpr::Mul(a, b) | LowExpr::Div(a, b) => {
                1 + a.flops() + b.flops()
            }
            LowExpr::Neg(a) => 1 + a.flops(),
        }
    }
}

/// Lower a symbolic expression: expand spatial derivative nodes into stencil
/// taps and fold constant arithmetic.
///
/// # Panics
/// If the expression still contains time-derivative nodes (run
/// [`crate::solve::expand_time_derivatives`] / [`crate::solve()`](crate::solve()) first).
pub fn lower(ctx: &Context, e: &Expr) -> LowExpr {
    let l = lower_inner(ctx, e);
    fold(l)
}

fn lower_inner(ctx: &Context, e: &Expr) -> LowExpr {
    match e {
        Expr::Const(v) => LowExpr::Const(*v as f32),
        Expr::Access { field, t_off, offs } => LowExpr::Access {
            field: *field,
            t_off: *t_off,
            offs: *offs,
        },
        Expr::Param(f) => {
            debug_assert!(matches!(ctx.decl(*f).kind, FieldKind::Parameter));
            LowExpr::Param(*f)
        }
        Expr::Dt2(_) | Expr::Dt(_) => {
            panic!("time derivatives must be expanded before lowering (use solve())")
        }
        Expr::Laplace(f) => {
            let so = ctx.decl(*f).space_order;
            let h = ctx.domain().spacing();
            let w = central_coeffs(2, so);
            let r = (so / 2) as i32;
            let mut taps: Vec<([i32; 3], f32)> = Vec::new();
            let mut center = 0.0f64;
            for axis in 0..3 {
                let inv_h2 = 1.0 / (h[axis] as f64 * h[axis] as f64);
                center += w[r as usize] * inv_h2;
                for k in 1..=r {
                    let wk = (w[(r + k) as usize] * inv_h2) as f32;
                    let mut op = [0i32; 3];
                    op[axis] = k;
                    taps.push((op, wk));
                    let mut om = [0i32; 3];
                    om[axis] = -k;
                    taps.push((om, wk));
                }
            }
            taps.push(([0, 0, 0], center as f32));
            LowExpr::Stencil {
                field: *f,
                t_off: 0,
                taps,
            }
        }
        Expr::Deriv { field, axis, order } => {
            let so = ctx.decl(*field).space_order;
            let h = ctx.domain().spacing()[*axis] as f64;
            let w = central_coeffs(*order, so);
            let r = (so / 2) as i32;
            let scale = 1.0 / h.powi(*order as i32);
            let taps: Vec<([i32; 3], f32)> = (-r..=r)
                .filter_map(|k| {
                    let wk = w[(k + r) as usize] * scale;
                    // Drop numerically-zero taps (the centre weight of an
                    // antisymmetric first derivative is zero up to rounding).
                    if wk.abs() < 1e-12 * scale {
                        return None;
                    }
                    let mut o = [0i32; 3];
                    o[*axis] = k;
                    Some((o, wk as f32))
                })
                .collect();
            LowExpr::Stencil {
                field: *field,
                t_off: 0,
                taps,
            }
        }
        Expr::StagDeriv {
            field,
            t_off,
            axis,
            forward,
        } => {
            let so = ctx.decl(*field).space_order;
            let h = ctx.domain().spacing()[*axis] as f64;
            let w = staggered_coeffs(so);
            // Forward: Σ w[k]·(f[+(k+1)] − f[−k]); backward shifts by −1.
            let mut taps: Vec<([i32; 3], f32)> = Vec::with_capacity(2 * w.len());
            for (k, &wk) in w.iter().enumerate() {
                let wk = (wk / h) as f32;
                let (op, om) = if *forward {
                    (k as i32 + 1, -(k as i32))
                } else {
                    (k as i32, -(k as i32 + 1))
                };
                let mut o1 = [0i32; 3];
                o1[*axis] = op;
                taps.push((o1, wk));
                let mut o2 = [0i32; 3];
                o2[*axis] = om;
                taps.push((o2, -wk));
            }
            LowExpr::Stencil {
                field: *field,
                t_off: *t_off,
                taps,
            }
        }
        Expr::Add(a, b) => {
            LowExpr::Add(Box::new(lower_inner(ctx, a)), Box::new(lower_inner(ctx, b)))
        }
        Expr::Sub(a, b) => {
            LowExpr::Sub(Box::new(lower_inner(ctx, a)), Box::new(lower_inner(ctx, b)))
        }
        Expr::Mul(a, b) => {
            LowExpr::Mul(Box::new(lower_inner(ctx, a)), Box::new(lower_inner(ctx, b)))
        }
        Expr::Div(a, b) => {
            LowExpr::Div(Box::new(lower_inner(ctx, a)), Box::new(lower_inner(ctx, b)))
        }
        Expr::Neg(a) => LowExpr::Neg(Box::new(lower_inner(ctx, a))),
    }
}

/// Constant folding over the lowered tree.
fn fold(e: LowExpr) -> LowExpr {
    match e {
        LowExpr::Add(a, b) => match (fold(*a), fold(*b)) {
            (LowExpr::Const(x), LowExpr::Const(y)) => LowExpr::Const(x + y),
            (LowExpr::Const(0.0), other) | (other, LowExpr::Const(0.0)) => other,
            (x, y) => LowExpr::Add(Box::new(x), Box::new(y)),
        },
        LowExpr::Sub(a, b) => match (fold(*a), fold(*b)) {
            (LowExpr::Const(x), LowExpr::Const(y)) => LowExpr::Const(x - y),
            (other, LowExpr::Const(0.0)) => other,
            (x, y) => LowExpr::Sub(Box::new(x), Box::new(y)),
        },
        LowExpr::Mul(a, b) => match (fold(*a), fold(*b)) {
            (LowExpr::Const(x), LowExpr::Const(y)) => LowExpr::Const(x * y),
            (LowExpr::Const(1.0), other) | (other, LowExpr::Const(1.0)) => other,
            (x, y) => LowExpr::Mul(Box::new(x), Box::new(y)),
        },
        LowExpr::Div(a, b) => match (fold(*a), fold(*b)) {
            (LowExpr::Const(x), LowExpr::Const(y)) => LowExpr::Const(x / y),
            (other, LowExpr::Const(1.0)) => other,
            (x, y) => LowExpr::Div(Box::new(x), Box::new(y)),
        },
        LowExpr::Neg(a) => match fold(*a) {
            LowExpr::Const(x) => LowExpr::Const(-x),
            x => LowExpr::Neg(Box::new(x)),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::{Domain, Shape};

    fn ctx() -> Context {
        Context::new(Domain::uniform(Shape::cube(8), 10.0))
    }

    #[test]
    fn laplace_lowering_tap_count_and_radius() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let l = lower(&c, &u.laplace());
        match &l {
            LowExpr::Stencil { taps, .. } => assert_eq!(taps.len(), 13),
            other => panic!("expected stencil, got {other:?}"),
        }
        assert_eq!(l.radius(), 2);
    }

    #[test]
    fn first_derivative_skips_zero_center() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 8);
        let l = lower(&c, &u.d1(2));
        match &l {
            LowExpr::Stencil { taps, .. } => {
                assert_eq!(taps.len(), 8, "order-8 first derivative has 8 taps");
                assert!(taps.iter().all(|(o, _)| o[2] != 0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn weights_include_spacing() {
        let mut c = Context::new(Domain::uniform(Shape::cube(8), 2.0));
        let u = c.time_function("u", 2, 2);
        let l = lower(&c, &u.d2(0));
        match &l {
            LowExpr::Stencil { taps, .. } => {
                let w = taps.iter().find(|(o, _)| o[0] == 1).unwrap().1;
                assert!((w - 0.25).abs() < 1e-7, "1/h² = 0.25, got {w}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constants_fold() {
        let c = ctx();
        let e = Expr::c(2.0) * Expr::c(3.0) + Expr::c(1.0);
        assert_eq!(lower(&c, &e), LowExpr::Const(7.0));
        let e2 = Expr::c(1.0) * Expr::Param(crate::field::FieldId(0));
        let mut c2 = ctx();
        let _ = c2.parameter("m");
        assert_eq!(lower(&c2, &e2), LowExpr::Param(crate::field::FieldId(0)));
    }

    #[test]
    fn min_t_off_tracks_backward_reads() {
        let mut c = ctx();
        c.set_dt(1e-3);
        let u = c.time_function("u", 2, 4);
        let solved = crate::solve::solve(&c, &(u.dt2() - u.laplace()), u).unwrap();
        let l = lower(&c, solved.rhs());
        assert_eq!(l.min_t_off(), -1);
        assert_eq!(l.radius(), 2);
    }

    #[test]
    #[should_panic(expected = "time derivatives")]
    fn rejects_unexpanded_time_derivatives() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let _ = lower(&c, &u.dt2());
    }
}
