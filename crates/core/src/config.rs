//! Simulation configuration (paper §IV.B test-case setup).
//!
//! "We benchmark velocity models of 512³ grid points, with a grid spacing of
//! 10 for isotropic and elastic and 20 for TTI. Wave propagation is modeled
//! in single precision for 512 ms … The time-stepping interval is selected
//! regarding the Courant-Friedrichs-Lewy (CFL) condition."

use tempest_grid::{Domain, Shape};

/// Which wave equation a configuration drives (affects the CFL constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquationKind {
    /// Isotropic acoustic, 2nd order in time (§III-A).
    Acoustic,
    /// Anisotropic acoustic TTI, 2nd order in time (§III-B).
    Tti,
    /// Isotropic elastic velocity–stress, 1st order in time (§III-C).
    Elastic,
}

/// CFL stability factor for 3-D explicit schemes of the given kind.
///
/// The bound is `dt ≤ C · h_min / v_max`; the constants are the standard
/// conservative choices for high-order FD (Devito uses comparable values).
pub fn cfl_factor(kind: EquationKind) -> f32 {
    match kind {
        EquationKind::Acoustic => 0.38,
        // The TTI coupled system needs extra margin for strong anisotropy.
        EquationKind::Tti => 0.30,
        // Staggered leap-frog: 6/(7·√3) ≈ 0.49 classic Virieux bound,
        // tightened for high space order.
        EquationKind::Elastic => 0.42,
    }
}

/// CFL-stable timestep (seconds).
pub fn cfl_dt(kind: EquationKind, min_spacing: f32, vmax: f32) -> f32 {
    assert!(min_spacing > 0.0 && vmax > 0.0);
    cfl_factor(kind) * min_spacing / vmax
}

/// A complete simulation setup.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The physical grid.
    pub domain: Domain,
    /// FD space order (the paper studies 4, 8, 12).
    pub space_order: usize,
    /// Wave equation kind.
    pub kind: EquationKind,
    /// Timestep (s), CFL-conditioned.
    pub dt: f32,
    /// Number of timesteps.
    pub nt: usize,
    /// Source wavelet peak frequency (Hz).
    pub f0: f32,
    /// Absorbing boundary layer width (grid points).
    pub nbl: usize,
    /// Dimensionless per-step sponge strength η at the outer face; the
    /// update damps by `(1 − η)/(1 + η)` per step at the boundary.
    pub damp_coeff: f32,
}

impl SimConfig {
    /// Build a configuration following the paper's recipe: CFL-stable `dt`
    /// from `vmax`, step count covering `t_end_ms` milliseconds.
    pub fn new(
        domain: Domain,
        space_order: usize,
        kind: EquationKind,
        vmax: f32,
        t_end_ms: f32,
    ) -> Self {
        assert!(
            space_order >= 2 && space_order.is_multiple_of(2),
            "space order must be even ≥ 2"
        );
        assert!(t_end_ms > 0.0);
        let dt = cfl_dt(kind, domain.min_spacing(), vmax);
        let nt = (t_end_ms / 1000.0 / dt).ceil() as usize;
        SimConfig {
            domain,
            space_order,
            kind,
            dt,
            nt: nt.max(2),
            f0: 10.0,
            nbl: 10,
            damp_coeff: 0.3,
        }
    }

    /// Stencil radius (half the space order).
    pub fn radius(&self) -> usize {
        self.space_order / 2
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.domain.shape()
    }

    /// Override the source peak frequency.
    pub fn with_f0(mut self, f0: f32) -> Self {
        assert!(f0 > 0.0);
        self.f0 = f0;
        self
    }

    /// Override the absorbing layer (0 disables damping). Panics unless
    /// `damp_coeff` is a non-negative number.
    pub fn with_boundary(mut self, nbl: usize, damp_coeff: f32) -> Self {
        assert!(
            damp_coeff >= 0.0,
            "damping coefficient must be non-negative (got {damp_coeff})"
        );
        self.nbl = nbl;
        self.damp_coeff = damp_coeff;
        self
    }

    /// Override the step count (benchmarks use short runs).
    pub fn with_nt(mut self, nt: usize) -> Self {
        assert!(nt >= 2);
        self.nt = nt;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: usize, h: f32) -> Domain {
        Domain::uniform(Shape::cube(n), h)
    }

    #[test]
    fn cfl_dt_scales() {
        let dt1 = cfl_dt(EquationKind::Acoustic, 10.0, 2000.0);
        let dt2 = cfl_dt(EquationKind::Acoustic, 20.0, 2000.0);
        let dt3 = cfl_dt(EquationKind::Acoustic, 10.0, 4000.0);
        assert!((dt2 / dt1 - 2.0).abs() < 1e-6);
        assert!((dt3 / dt1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn paper_like_step_counts() {
        // §IV.B: 512 ms, h = 10, ~water-like velocities give a few hundred
        // steps for acoustic — our constants land in the same regime.
        let cfg = SimConfig::new(dom(64, 10.0), 4, EquationKind::Acoustic, 1700.0, 512.0);
        assert!(
            (150..400).contains(&cfg.nt),
            "acoustic nt {} should be a few hundred",
            cfg.nt
        );
        let cfg_e = SimConfig::new(dom(64, 10.0), 4, EquationKind::Elastic, 3000.0, 512.0);
        assert!(cfg_e.nt > cfg.nt, "elastic needs more steps (faster vp)");
    }

    #[test]
    fn tti_is_most_conservative() {
        assert!(cfl_factor(EquationKind::Tti) < cfl_factor(EquationKind::Acoustic));
    }

    #[test]
    fn builders_apply() {
        let cfg = SimConfig::new(dom(32, 10.0), 8, EquationKind::Acoustic, 2000.0, 100.0)
            .with_f0(15.0)
            .with_boundary(6, 0.2)
            .with_nt(12);
        assert_eq!(cfg.f0, 15.0);
        assert_eq!(cfg.nbl, 6);
        assert_eq!(cfg.damp_coeff, 0.2);
        assert_eq!(cfg.nt, 12);
        assert_eq!(cfg.radius(), 4);
    }

    #[test]
    #[should_panic(expected = "damping coefficient must be non-negative")]
    fn rejects_negative_damping() {
        let _ = SimConfig::new(dom(16, 10.0), 4, EquationKind::Acoustic, 2000.0, 10.0)
            .with_boundary(4, -0.1);
    }

    #[test]
    #[should_panic(expected = "damping coefficient must be non-negative (got NaN)")]
    fn rejects_nan_damping() {
        let _ = SimConfig::new(dom(16, 10.0), 4, EquationKind::Acoustic, 2000.0, 10.0)
            .with_boundary(4, f32::NAN);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_order() {
        let _ = SimConfig::new(dom(16, 10.0), 5, EquationKind::Acoustic, 2000.0, 10.0);
    }
}
