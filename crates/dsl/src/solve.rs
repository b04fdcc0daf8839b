//! Symbolic `solve` for the forward update (Devito's
//! `Eq(u.forward, solve(eq, u.forward))`).
//!
//! Given a PDE residual `expr == 0` that is *linear* in `u[t+1]`, expand the
//! time derivatives and rearrange:
//! `expr = A·u[t+1] + B  ⇒  u.forward = −B / A`.

use crate::expr::Expr;
use crate::field::{Context, FieldHandle, FieldId};

/// A solved forward-update assignment: `field[t+1] = rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    field: FieldId,
    rhs: Expr,
}

impl Update {
    /// Construct directly from an explicit right-hand side (when no solve is
    /// needed, e.g. first-order systems written in update form).
    pub fn explicit(field: FieldId, rhs: Expr) -> Self {
        Update { field, rhs }
    }

    /// The updated field.
    pub fn field(&self) -> FieldId {
        self.field
    }

    /// The right-hand side expression.
    pub fn rhs(&self) -> &Expr {
        &self.rhs
    }
}

/// Errors from [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The residual is not linear in the target forward access.
    NonLinear,
    /// The residual does not involve the target at all.
    TargetAbsent,
}

/// Expand `Dt` / `Dt2` time-derivative nodes of `target` into explicit
/// accesses, using the context's `dt`.
///
/// `u.dt2 → (u[t+1] − 2u[t] + u[t−1]) / dt²`,
/// `u.dt → (u[t+1] − u[t−1]) / (2·dt)` (centred, as Devito uses for the
/// damping term of a 2nd-order-in-time equation).
pub fn expand_time_derivatives(ctx: &Context, e: &Expr) -> Expr {
    let dt = ctx.dt();
    match e {
        Expr::Dt2(f) => {
            let up = Expr::access(*f, 1, [0; 3]);
            let u0 = Expr::access(*f, 0, [0; 3]);
            let um = Expr::access(*f, -1, [0; 3]);
            (up - 2.0 * u0 + um) / Expr::c(dt * dt)
        }
        Expr::Dt(f) => {
            let up = Expr::access(*f, 1, [0; 3]);
            let um = Expr::access(*f, -1, [0; 3]);
            (up - um) / Expr::c(2.0 * dt)
        }
        Expr::Add(a, b) => Expr::Add(
            Box::new(expand_time_derivatives(ctx, a)),
            Box::new(expand_time_derivatives(ctx, b)),
        ),
        Expr::Sub(a, b) => Expr::Sub(
            Box::new(expand_time_derivatives(ctx, a)),
            Box::new(expand_time_derivatives(ctx, b)),
        ),
        Expr::Mul(a, b) => Expr::Mul(
            Box::new(expand_time_derivatives(ctx, a)),
            Box::new(expand_time_derivatives(ctx, b)),
        ),
        Expr::Div(a, b) => Expr::Div(
            Box::new(expand_time_derivatives(ctx, a)),
            Box::new(expand_time_derivatives(ctx, b)),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(expand_time_derivatives(ctx, a))),
        other => other.clone(),
    }
}

/// Split `e` into `(A, B)` with `e ≡ A·target + B` where `target` is the
/// forward access of `field`; errors if `e` is non-linear in it.
fn linear_split(e: &Expr, field: FieldId) -> Result<(Expr, Expr), SolveError> {
    let is_target =
        |x: &Expr| matches!(x, Expr::Access { field: f, t_off: 1, offs: [0, 0, 0] } if *f == field);
    if is_target(e) {
        return Ok((Expr::c(1.0), Expr::c(0.0)));
    }
    match e {
        Expr::Add(a, b) => {
            let (ca, ra) = linear_split(a, field)?;
            let (cb, rb) = linear_split(b, field)?;
            Ok((ca + cb, ra + rb))
        }
        Expr::Sub(a, b) => {
            let (ca, ra) = linear_split(a, field)?;
            let (cb, rb) = linear_split(b, field)?;
            Ok((ca - cb, ra - rb))
        }
        Expr::Neg(a) => {
            let (ca, ra) = linear_split(a, field)?;
            Ok((-ca, -ra))
        }
        Expr::Mul(a, b) => {
            let a_has = a.contains_access(field, 1);
            let b_has = b.contains_access(field, 1);
            match (a_has, b_has) {
                (true, true) => Err(SolveError::NonLinear),
                (true, false) => {
                    let (ca, ra) = linear_split(a, field)?;
                    Ok((ca * (**b).clone(), ra * (**b).clone()))
                }
                (false, true) => {
                    let (cb, rb) = linear_split(b, field)?;
                    Ok(((**a).clone() * cb, (**a).clone() * rb))
                }
                (false, false) => Ok((Expr::c(0.0), e.clone())),
            }
        }
        Expr::Div(a, b) => {
            if b.contains_access(field, 1) {
                return Err(SolveError::NonLinear);
            }
            let (ca, ra) = linear_split(a, field)?;
            Ok((ca / (**b).clone(), ra / (**b).clone()))
        }
        other => Ok((Expr::c(0.0), other.clone())),
    }
}

/// Does the expression constant-fold to exactly zero? (Non-constant
/// sub-expressions make the answer `false`.)
fn is_zero_const(e: &Expr) -> bool {
    fn const_eval(e: &Expr) -> Option<f64> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Add(a, b) => Some(const_eval(a)? + const_eval(b)?),
            Expr::Sub(a, b) => Some(const_eval(a)? - const_eval(b)?),
            Expr::Mul(a, b) => Some(const_eval(a)? * const_eval(b)?),
            Expr::Div(a, b) => Some(const_eval(a)? / const_eval(b)?),
            Expr::Neg(a) => Some(-const_eval(a)?),
            _ => None,
        }
    }
    const_eval(e) == Some(0.0)
}

/// Solve `eq == 0` for `field.forward` after expanding time derivatives.
pub fn solve(ctx: &Context, eq: &Expr, field: FieldHandle) -> Result<Update, SolveError> {
    let expanded = expand_time_derivatives(ctx, eq);
    let (a, b) = linear_split(&expanded, field.id())?;
    // Reject a coefficient that constant-folds to zero (target absent).
    if is_zero_const(&a) {
        return Err(SolveError::TargetAbsent);
    }
    Ok(Update {
        field: field.id(),
        rhs: (-b) / a,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::{Domain, Shape};

    fn ctx() -> Context {
        let mut c = Context::new(Domain::uniform(Shape::cube(8), 10.0));
        c.set_dt(0.002);
        c
    }

    #[test]
    fn dt2_expansion() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let e = expand_time_derivatives(&c, &u.dt2());
        // numerator contains u[t+1], u[t], u[t−1]
        assert!(e.contains_access(u.id(), 1));
        assert!(e.contains_access(u.id(), 0));
        assert!(e.contains_access(u.id(), -1));
    }

    #[test]
    fn solve_wave_equation_shape() {
        // m·u.dt2 + damp·u.dt − Δu  == 0, solved for u.forward.
        let mut c = ctx();
        let u = c.time_function("u", 2, 8);
        let m = c.parameter("m");
        let damp = c.parameter("damp");
        let eq = m.x() * u.dt2() + damp.x() * u.dt() - u.laplace();
        let upd = solve(&c, &eq, u).expect("linear equation must solve");
        assert_eq!(upd.field(), u.id());
        // The RHS references the past levels and the Laplacian but not the
        // forward access (that's the unknown we solved for).
        assert!(upd.rhs().contains_access(u.id(), 0));
        assert!(upd.rhs().contains_access(u.id(), -1));
    }

    #[test]
    fn nonlinear_detected() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let eq = u.forward() * u.forward() - Expr::c(1.0);
        assert_eq!(solve(&c, &eq, u), Err(SolveError::NonLinear));
    }

    #[test]
    fn target_absent_detected() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let eq = u.x() - Expr::c(1.0);
        assert_eq!(solve(&c, &eq, u), Err(SolveError::TargetAbsent));
    }

    #[test]
    fn simple_explicit_solution_is_algebraically_right() {
        // 2·u.forward − 6 == 0  ⇒  u.forward = 3 (check by numeric eval of
        // the RHS tree: (−(−6))/2 … the structure divides correctly).
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let eq = Expr::c(2.0) * u.forward() - Expr::c(6.0);
        let upd = solve(&c, &eq, u).unwrap();
        // Evaluate the constant tree.
        fn eval_const(e: &Expr) -> f64 {
            match e {
                Expr::Const(v) => *v,
                Expr::Add(a, b) => eval_const(a) + eval_const(b),
                Expr::Sub(a, b) => eval_const(a) - eval_const(b),
                Expr::Mul(a, b) => eval_const(a) * eval_const(b),
                Expr::Div(a, b) => eval_const(a) / eval_const(b),
                Expr::Neg(a) => -eval_const(a),
                other => panic!("non-constant node {other:?}"),
            }
        }
        assert_eq!(eval_const(upd.rhs()), 3.0);
    }
}
