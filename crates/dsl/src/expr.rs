//! Symbolic expressions over declared fields.
//!
//! A small term language sufficient for the paper's three wave equations:
//! arithmetic over wavefield accesses (with time/space offsets), point-wise
//! parameters and derivative nodes (`dt`, `dt2`, spatial derivatives,
//! `laplace`). Operator overloading gives the Devito look:
//! `m.x() * u.dt2() + damp.x() * u.dt() - u.laplace()`.

use crate::field::FieldId;

/// A symbolic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(f64),
    /// Wavefield access `u[t + t_off][x + dx, y + dy, z + dz]`.
    Access {
        /// Field accessed.
        field: FieldId,
        /// Temporal offset relative to the current step.
        t_off: i32,
        /// Spatial offsets.
        offs: [i32; 3],
    },
    /// Point-wise parameter access.
    Param(FieldId),
    /// Second time derivative (expanded by lowering).
    Dt2(FieldId),
    /// First (centred) time derivative.
    Dt(FieldId),
    /// Spatial Laplacian at the field's space order.
    Laplace(FieldId),
    /// Spatial derivative along one axis.
    Deriv {
        /// Field differentiated.
        field: FieldId,
        /// Axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Derivative order (1 or 2).
        order: usize,
    },
    /// Staggered first derivative along one axis (half-point evaluation,
    /// used by velocity–stress elastic kernels on staggered grids).
    StagDeriv {
        /// Field differentiated.
        field: FieldId,
        /// Temporal offset of the differentiated field (elastic stress
        /// updates read the *freshly computed* velocities at `t_off = 1`).
        t_off: i32,
        /// Axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Forward (`i + ½`) if true, backward (`i − ½`) otherwise.
        forward: bool,
    },
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient.
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Build a wavefield access.
    pub fn access(field: FieldId, t_off: i32, offs: [i32; 3]) -> Expr {
        Expr::Access { field, t_off, offs }
    }

    /// Literal constant.
    pub fn c(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Does this expression contain the exact access `field[t + t_off]` at
    /// zero spatial offset, or any derivative node that would produce it?
    pub fn contains_access(&self, field: FieldId, t_off: i32) -> bool {
        match self {
            Expr::Const(_) | Expr::Param(_) => false,
            Expr::Access {
                field: f, t_off: t, ..
            } => *f == field && *t == t_off,
            // Derivative nodes reference the field at t_off 0 only.
            Expr::Laplace(f) | Expr::Deriv { field: f, .. } => *f == field && t_off == 0,
            Expr::StagDeriv {
                field: f, t_off: t, ..
            } => *f == field && *t == t_off,
            Expr::Dt2(f) | Expr::Dt(f) => *f == field && (t_off == -1 || t_off == 0 || t_off == 1),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.contains_access(field, t_off) || b.contains_access(field, t_off)
            }
            Expr::Neg(a) => a.contains_access(field, t_off),
        }
    }

    /// Structural size (node count) — used to sanity-bound lowering output.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_)
            | Expr::Access { .. }
            | Expr::Param(_)
            | Expr::Dt2(_)
            | Expr::Dt(_)
            | Expr::Laplace(_)
            | Expr::Deriv { .. }
            | Expr::StagDeriv { .. } => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.size() + b.size()
            }
            Expr::Neg(a) => 1 + a.size(),
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

impl std::ops::Mul<Expr> for f64 {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Const(self) * rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: usize) -> FieldId {
        FieldId(n)
    }

    #[test]
    fn operators_build_trees() {
        let e = Expr::c(2.0) * Expr::access(f(0), 0, [0; 3]) + Expr::Param(f(1));
        assert_eq!(e.size(), 5);
        let e2 = 3.0 * Expr::access(f(0), 1, [0; 3]) - Expr::c(1.0);
        assert!(matches!(e2, Expr::Sub(_, _)));
        let e3 = -Expr::c(1.0) / Expr::Param(f(1));
        assert!(matches!(e3, Expr::Div(_, _)));
    }

    #[test]
    fn contains_access_sees_through_arithmetic() {
        let u = f(0);
        let e = Expr::Param(f(1)) * Expr::access(u, 1, [0; 3]) + Expr::c(3.0);
        assert!(e.contains_access(u, 1));
        assert!(!e.contains_access(u, 0));
        assert!(!e.contains_access(f(1), 1));
    }

    #[test]
    fn derivative_nodes_count_as_current_time() {
        let u = f(0);
        assert!(Expr::Laplace(u).contains_access(u, 0));
        assert!(!Expr::Laplace(u).contains_access(u, 1));
        // dt2 spans t−1..t+1
        assert!(Expr::Dt2(u).contains_access(u, 1));
        assert!(Expr::Dt2(u).contains_access(u, -1));
    }
}
