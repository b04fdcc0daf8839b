//! Symbolic field declarations (Devito's `TimeFunction` / `Function`).

use crate::expr::Expr;
use tempest_grid::Domain;

/// Identifier of a declared field within a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub usize);

/// What kind of storage a field declaration denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A wavefield with a time dimension (Devito `TimeFunction`).
    TimeFunction {
        /// Temporal derivative order the update uses (1 or 2).
        time_order: usize,
    },
    /// A time-invariant parameter volume (Devito `Function`), e.g. `m`,
    /// `damp`, Thomsen parameters.
    Parameter,
}

/// One declared field.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Identifier.
    pub id: FieldId,
    /// Human-readable name (used by pseudocode rendering).
    pub name: String,
    /// Kind (time function or parameter).
    pub kind: FieldKind,
    /// FD space order for derivatives of this field.
    pub space_order: usize,
}

/// The declaration context: grid plus field table (Devito's `Grid` and
/// symbol registry).
#[derive(Debug, Clone)]
pub struct Context {
    domain: Domain,
    decls: Vec<FieldDecl>,
    /// Timestep symbol value, filled by the operator at run time; lowering
    /// needs it for `dt`-powers.
    dt: f64,
}

impl Context {
    /// New context over a physical domain.
    pub fn new(domain: Domain) -> Self {
        Context {
            domain,
            decls: Vec::new(),
            dt: 1.0,
        }
    }

    /// The physical domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Set the timestep used when expanding time derivatives.
    pub fn set_dt(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        self.dt = dt;
    }

    /// The current timestep symbol value.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Declare a wavefield with the given time and space orders.
    pub fn time_function(
        &mut self,
        name: &str,
        time_order: usize,
        space_order: usize,
    ) -> FieldHandle {
        assert!(
            time_order == 1 || time_order == 2,
            "time order must be 1 or 2"
        );
        assert!(space_order >= 2 && space_order.is_multiple_of(2));
        let id = FieldId(self.decls.len());
        self.decls.push(FieldDecl {
            id,
            name: name.to_string(),
            kind: FieldKind::TimeFunction { time_order },
            space_order,
        });
        FieldHandle { id, space_order }
    }

    /// Declare a time-invariant parameter volume.
    pub fn parameter(&mut self, name: &str) -> ParamHandle {
        let id = FieldId(self.decls.len());
        self.decls.push(FieldDecl {
            id,
            name: name.to_string(),
            kind: FieldKind::Parameter,
            space_order: 0,
        });
        ParamHandle { id }
    }

    /// Declaration of a field.
    pub fn decl(&self, id: FieldId) -> &FieldDecl {
        &self.decls[id.0]
    }

    /// All declarations.
    pub fn decls(&self) -> &[FieldDecl] {
        &self.decls
    }
}

/// Handle to a declared wavefield; builds symbolic expressions.
#[derive(Debug, Clone, Copy)]
pub struct FieldHandle {
    id: FieldId,
    space_order: usize,
}

impl FieldHandle {
    /// The field's id.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// The field's space order.
    pub fn space_order(&self) -> usize {
        self.space_order
    }

    /// Access at the current timestep, no spatial offset (`u`).
    pub fn x(&self) -> Expr {
        Expr::access(self.id, 0, [0, 0, 0])
    }

    /// Access at `t + 1` (`u.forward`).
    pub fn forward(&self) -> Expr {
        Expr::access(self.id, 1, [0, 0, 0])
    }

    /// Access at `t − 1` (`u.backward`).
    pub fn backward(&self) -> Expr {
        Expr::access(self.id, -1, [0, 0, 0])
    }

    /// Second time derivative (`u.dt2`).
    pub fn dt2(&self) -> Expr {
        Expr::Dt2(self.id)
    }

    /// First time derivative (`u.dt`), centred.
    pub fn dt(&self) -> Expr {
        Expr::Dt(self.id)
    }

    /// Spatial Laplacian (`u.laplace`).
    pub fn laplace(&self) -> Expr {
        Expr::Laplace(self.id)
    }

    /// First spatial derivative along `axis` (0 = x, 1 = y, 2 = z).
    pub fn d1(&self, axis: usize) -> Expr {
        assert!(axis < 3);
        Expr::Deriv {
            field: self.id,
            axis,
            order: 1,
        }
    }

    /// Second spatial derivative along `axis`.
    pub fn d2(&self, axis: usize) -> Expr {
        assert!(axis < 3);
        Expr::Deriv {
            field: self.id,
            axis,
            order: 2,
        }
    }

    /// Staggered forward first derivative (`∂/∂axis` at `i + ½`) of the
    /// current time level.
    pub fn dxs_fwd(&self, axis: usize) -> Expr {
        self.dxs_fwd_at(axis, 0)
    }

    /// Staggered backward first derivative (`∂/∂axis` at `i − ½`).
    pub fn dxs_bwd(&self, axis: usize) -> Expr {
        self.dxs_bwd_at(axis, 0)
    }

    /// Staggered forward derivative of the level at `t + t_off` (elastic
    /// stress updates read velocities at `t_off = 1`).
    pub fn dxs_fwd_at(&self, axis: usize, t_off: i32) -> Expr {
        assert!(axis < 3);
        Expr::StagDeriv {
            field: self.id,
            t_off,
            axis,
            forward: true,
        }
    }

    /// Staggered backward derivative of the level at `t + t_off`.
    pub fn dxs_bwd_at(&self, axis: usize, t_off: i32) -> Expr {
        assert!(axis < 3);
        Expr::StagDeriv {
            field: self.id,
            t_off,
            axis,
            forward: false,
        }
    }
}

/// Handle to a parameter volume.
#[derive(Debug, Clone, Copy)]
pub struct ParamHandle {
    id: FieldId,
}

impl ParamHandle {
    /// The parameter's id.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// Point-wise access (`m(x, y, z)`).
    pub fn x(&self) -> Expr {
        Expr::Param(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_grid::Shape;

    fn ctx() -> Context {
        Context::new(Domain::uniform(Shape::cube(8), 10.0))
    }

    #[test]
    fn declarations_register() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        let m = c.parameter("m");
        assert_eq!(c.decls().len(), 2);
        assert_eq!(c.decl(u.id()).name, "u");
        assert_eq!(
            c.decl(u.id()).kind,
            FieldKind::TimeFunction { time_order: 2 }
        );
        assert_eq!(c.decl(m.id()).kind, FieldKind::Parameter);
        assert_eq!(u.space_order(), 4);
    }

    #[test]
    fn handles_build_expressions() {
        let mut c = ctx();
        let u = c.time_function("u", 2, 4);
        assert_eq!(u.forward(), Expr::access(u.id(), 1, [0, 0, 0]));
        assert_eq!(u.backward(), Expr::access(u.id(), -1, [0, 0, 0]));
        assert!(matches!(u.laplace(), Expr::Laplace(_)));
        assert!(matches!(
            u.d2(1),
            Expr::Deriv {
                axis: 1,
                order: 2,
                ..
            }
        ));
    }

    #[test]
    fn dt_is_settable() {
        let mut c = ctx();
        c.set_dt(2.5e-3);
        assert_eq!(c.dt(), 2.5e-3);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_bad_time_order() {
        let mut c = ctx();
        let _ = c.time_function("u", 3, 4);
    }
}
