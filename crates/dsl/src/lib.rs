//! # tempest-dsl
//!
//! A miniature Devito: an embedded domain-specific language for defining
//! finite-difference PDE solvers symbolically and lowering them to
//! executable stencil updates.
//!
//! The paper implements its scheme "directly on top of the Devito DSL,
//! harnessing the power of automated code generation". This crate plays that
//! role for the workspace: the paper's acoustic example (its Listing 1 of
//! §III-A) writes here as
//!
//! ```
//! use tempest_dsl::*;
//! use tempest_grid::{Domain, Shape};
//!
//! let domain = Domain::uniform(Shape::cube(16), 10.0);
//! let mut ctx = Context::new(domain);
//! let u = ctx.time_function("u", 2, 4);   // time order 2, space order 4
//! let m = ctx.parameter("m");
//! let damp = ctx.parameter("damp");
//!
//! // eq = m * u.dt2 + damp * u.dt - u.laplace
//! let eq = m.x() * u.dt2() + damp.x() * u.dt() - u.laplace();
//! // update = Eq(u.forward, solve(eq, u.forward))
//! let update = solve(&ctx, &eq, u).unwrap();
//! assert_eq!(update.field(), u.id());
//! ```
//!
//! Pipeline: symbolic [`expr::Expr`] → time-derivative expansion → linear
//! [`solve()`](solve()) for the forward update → spatial lowering ([`lower()`](lower())) that
//! expands `laplace` / derivative nodes into explicit FD stencil sums with
//! Fornberg weights → an interpretable [`lower::LowExpr`] evaluated by
//! [`operator::DslOperator`], which implements `tempest_core::WaveSolver`:
//! the schedule (space-blocked or wave-front temporally blocked), the worker
//! pool, the tile cache and the off-grid sparse operators — classic or
//! precomputed and fused — are the shared run path's, chosen below the
//! symbolic specification.
//!
//! The DSL path is cross-validated against the hand-optimised propagators in
//! `tempest-core` (see `tests/`), exactly as Devito's generated code is the
//! reference the paper's manual WTB transformation must reproduce. It also
//! renders the lowered loop nest as pseudocode ([`operator::DslOperator::pseudocode`])
//! in the style of the paper's Listings 1–5.

pub mod expr;
pub mod field;
pub mod lower;
pub mod operator;
pub mod solve;

pub use expr::Expr;
pub use field::{Context, FieldHandle, ParamHandle};
pub use lower::lower;
pub use operator::DslOperator;
pub use solve::{solve, Update};
