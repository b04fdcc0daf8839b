//! Material parameter models for the three wave propagators.
//!
//! The paper benchmarks "velocity models of 512³ grid points" (§IV.B). We
//! provide the parameter volumes each propagator consumes:
//!
//! * [`Model`] — isotropic acoustic: velocity `c`, squared slowness `m = 1/c²`.
//! * [`TtiModel`] — pseudo-acoustic TTI: `c` plus Thomsen anisotropy
//!   parameters `ε`, `δ` and the tilt/azimuth angles `θ`, `φ` (§III-B).
//! * [`ElasticModel`] — isotropic elastic: P/S velocities and density, stored
//!   as the Lamé parameters `λ`, `μ` and buoyancy `1/ρ` (§III-C).
//!
//! Builders cover homogeneous media, horizontally layered media (the standard
//! seismic benchmark configuration) and seeded random perturbations (to keep
//! the compiler from constant-folding a uniform medium in benchmarks).

use crate::array::Array3;
use crate::domain::Domain;
use crate::rng::Rng64;
use crate::shape::Shape;

/// Isotropic acoustic material model.
#[derive(Debug, Clone)]
pub struct Model {
    domain: Domain,
    /// Squared slowness `m = 1/c²` in s²/m², the coefficient of `∂²u/∂t²`.
    pub m: Array3<f32>,
    vmax: f32,
}

impl Model {
    /// Homogeneous medium with velocity `c` (m/s).
    pub fn homogeneous(domain: Domain, c: f32) -> Self {
        assert!(c > 0.0, "velocity must be positive");
        let s = domain.shape();
        Model {
            domain,
            m: Array3::full(s.nx, s.ny, s.nz, 1.0 / (c * c)),
            vmax: c,
        }
    }

    /// Horizontally layered medium: velocity `c_top` above depth fraction
    /// `interface` (along z), `c_bottom` below.
    pub fn two_layer(domain: Domain, c_top: f32, c_bottom: f32, interface: f32) -> Self {
        assert!(c_top > 0.0 && c_bottom > 0.0);
        assert!((0.0..=1.0).contains(&interface));
        let s = domain.shape();
        let zi = ((s.nz as f32) * interface) as usize;
        let mut m = Array3::zeros(s.nx, s.ny, s.nz);
        for (x, y, z) in s.iter() {
            let c = if z < zi { c_top } else { c_bottom };
            m.set(x, y, z, 1.0 / (c * c));
        }
        Model {
            domain,
            m,
            vmax: c_top.max(c_bottom),
        }
    }

    /// Random velocity field in `[c_min, c_max]` with a fixed seed.
    pub fn random(domain: Domain, c_min: f32, c_max: f32, seed: u64) -> Self {
        assert!(0.0 < c_min && c_min <= c_max);
        let s = domain.shape();
        let mut rng = Rng64::new(seed);
        let mut m = Array3::zeros(s.nx, s.ny, s.nz);
        for v in m.as_mut_slice() {
            let c: f32 = rng.range_f32(c_min, c_max);
            *v = 1.0 / (c * c);
        }
        Model {
            domain,
            m,
            vmax: c_max,
        }
    }

    /// The physical domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.domain.shape()
    }

    /// Maximum velocity (enters the CFL bound).
    pub fn vmax(&self) -> f32 {
        self.vmax
    }
}

/// Anisotropic acoustic (TTI) material model.
#[derive(Debug, Clone)]
pub struct TtiModel {
    domain: Domain,
    /// Squared slowness along the symmetry axis.
    pub m: Array3<f32>,
    /// Thomsen epsilon (P-wave anisotropy strength).
    pub epsilon: Array3<f32>,
    /// Thomsen delta (near-vertical anisotropy).
    pub delta: Array3<f32>,
    /// Tilt angle θ (radians, rotation about y).
    pub theta: Array3<f32>,
    /// Azimuth angle φ (radians, rotation about z).
    pub phi: Array3<f32>,
    vmax: f32,
}

impl TtiModel {
    /// Homogeneous TTI medium with constant Thomsen parameters and angles.
    pub fn homogeneous(
        domain: Domain,
        c: f32,
        epsilon: f32,
        delta: f32,
        theta: f32,
        phi: f32,
    ) -> Self {
        assert!(c > 0.0);
        let s = domain.shape();
        let n = (s.nx, s.ny, s.nz);
        // The effective horizontal velocity is c·sqrt(1+2ε); it bounds dt.
        let vmax = c * (1.0 + 2.0 * epsilon.max(0.0)).sqrt();
        TtiModel {
            domain,
            m: Array3::full(n.0, n.1, n.2, 1.0 / (c * c)),
            epsilon: Array3::full(n.0, n.1, n.2, epsilon),
            delta: Array3::full(n.0, n.1, n.2, delta),
            theta: Array3::full(n.0, n.1, n.2, theta),
            phi: Array3::full(n.0, n.1, n.2, phi),
            vmax,
        }
    }

    /// Randomly perturbed TTI medium (velocity in `[c_min, c_max]`, smoothly
    /// bounded Thomsen parameters, random but physical angles).
    pub fn random(domain: Domain, c_min: f32, c_max: f32, seed: u64) -> Self {
        assert!(0.0 < c_min && c_min <= c_max);
        let s = domain.shape();
        let mut rng = Rng64::new(seed);
        let n = (s.nx, s.ny, s.nz);
        let mut m = Array3::zeros(n.0, n.1, n.2);
        let mut epsilon = Array3::zeros(n.0, n.1, n.2);
        let mut delta = Array3::zeros(n.0, n.1, n.2);
        let mut theta = Array3::zeros(n.0, n.1, n.2);
        let mut phi = Array3::zeros(n.0, n.1, n.2);
        let mut emax = 0.0f32;
        for i in 0..m.len() {
            let c: f32 = rng.range_f32(c_min, c_max);
            m.as_mut_slice()[i] = 1.0 / (c * c);
            let e: f32 = rng.range_f32(0.0, 0.3);
            emax = emax.max(e);
            epsilon.as_mut_slice()[i] = e;
            delta.as_mut_slice()[i] = rng.range_f32(0.0, e.max(1e-6));
            theta.as_mut_slice()[i] = rng.range_f32(-0.5, 0.5);
            phi.as_mut_slice()[i] = rng.range_f32(-0.5, 0.5);
        }
        let vmax = c_max * (1.0 + 2.0 * emax).sqrt();
        TtiModel {
            domain,
            m,
            epsilon,
            delta,
            theta,
            phi,
            vmax,
        }
    }

    /// The physical domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.domain.shape()
    }

    /// Maximum effective velocity (for CFL).
    pub fn vmax(&self) -> f32 {
        self.vmax
    }
}

/// Isotropic elastic material model (velocity–stress formulation).
#[derive(Debug, Clone)]
pub struct ElasticModel {
    domain: Domain,
    /// First Lamé parameter λ (Pa).
    pub lam: Array3<f32>,
    /// Shear modulus μ (Pa).
    pub mu: Array3<f32>,
    /// Buoyancy `1/ρ` (m³/kg) — multiplies the velocity update.
    pub buoyancy: Array3<f32>,
    vp_max: f32,
}

impl ElasticModel {
    /// Homogeneous medium from P velocity, S velocity and density.
    ///
    /// `μ = ρ·vs²`, `λ = ρ·vp² − 2μ`.
    pub fn homogeneous(domain: Domain, vp: f32, vs: f32, rho: f32) -> Self {
        assert!(vp > 0.0 && vs >= 0.0 && rho > 0.0);
        assert!(
            vs * (2.0f32).sqrt() < vp,
            "need vs < vp/sqrt(2) for positive lambda"
        );
        let s = domain.shape();
        let mu = rho * vs * vs;
        let lam = rho * vp * vp - 2.0 * mu;
        ElasticModel {
            domain,
            lam: Array3::full(s.nx, s.ny, s.nz, lam),
            mu: Array3::full(s.nx, s.ny, s.nz, mu),
            buoyancy: Array3::full(s.nx, s.ny, s.nz, 1.0 / rho),
            vp_max: vp,
        }
    }

    /// Random elastic medium with `vp ∈ [vp_min, vp_max]`, a fixed
    /// `vp/vs = 2` ratio and densities in `[2000, 2600]` kg/m³.
    pub fn random(domain: Domain, vp_min: f32, vp_max: f32, seed: u64) -> Self {
        assert!(0.0 < vp_min && vp_min <= vp_max);
        let s = domain.shape();
        let mut rng = Rng64::new(seed);
        let n = (s.nx, s.ny, s.nz);
        let mut lam = Array3::zeros(n.0, n.1, n.2);
        let mut mu = Array3::zeros(n.0, n.1, n.2);
        let mut b = Array3::zeros(n.0, n.1, n.2);
        for i in 0..lam.len() {
            let vp: f32 = rng.range_f32(vp_min, vp_max);
            let vs = vp / 2.0;
            let rho: f32 = rng.range_f32(2000.0, 2600.0);
            let mu_v = rho * vs * vs;
            lam.as_mut_slice()[i] = rho * vp * vp - 2.0 * mu_v;
            mu.as_mut_slice()[i] = mu_v;
            b.as_mut_slice()[i] = 1.0 / rho;
        }
        ElasticModel {
            domain,
            lam,
            mu,
            buoyancy: b,
            vp_max,
        }
    }

    /// The physical domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.domain.shape()
    }

    /// Maximum P velocity (for CFL).
    pub fn vp_max(&self) -> f32 {
        self.vp_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: usize) -> Domain {
        Domain::uniform(Shape::cube(n), 10.0)
    }

    #[test]
    fn homogeneous_model_m_is_inverse_square() {
        let m = Model::homogeneous(dom(4), 2000.0);
        let expect = 1.0 / (2000.0f32 * 2000.0);
        assert_eq!(m.m.get(2, 2, 2), expect);
        assert_eq!(m.vmax(), 2000.0);
    }

    #[test]
    fn two_layer_interface_position() {
        let m = Model::two_layer(dom(10), 1500.0, 3000.0, 0.5);
        let m_top = 1.0 / (1500.0f32 * 1500.0);
        let m_bot = 1.0 / (3000.0f32 * 3000.0);
        assert_eq!(m.m.get(0, 0, 0), m_top);
        assert_eq!(m.m.get(0, 0, 4), m_top);
        assert_eq!(m.m.get(0, 0, 5), m_bot);
        assert_eq!(m.m.get(0, 0, 9), m_bot);
        assert_eq!(m.vmax(), 3000.0);
    }

    #[test]
    fn random_model_within_bounds_and_deterministic() {
        let a = Model::random(dom(6), 1500.0, 4500.0, 42);
        let b = Model::random(dom(6), 1500.0, 4500.0, 42);
        assert!(a.m.bit_equal(&b.m), "same seed must reproduce");
        let m_lo = 1.0 / (4500.0f32 * 4500.0);
        let m_hi = 1.0 / (1500.0f32 * 1500.0);
        for &v in a.m.as_slice() {
            assert!(v >= m_lo * 0.999 && v <= m_hi * 1.001);
        }
        let c = Model::random(dom(6), 1500.0, 4500.0, 43);
        assert!(!a.m.bit_equal(&c.m), "different seed must differ");
    }

    #[test]
    fn tti_vmax_includes_epsilon() {
        let t = TtiModel::homogeneous(dom(4), 2000.0, 0.24, 0.1, 0.3, 0.1);
        let expect = 2000.0 * (1.0f32 + 0.48).sqrt();
        assert!((t.vmax() - expect).abs() < 1e-3);
    }

    #[test]
    fn tti_random_parameters_physical() {
        let t = TtiModel::random(dom(5), 1500.0, 3500.0, 7);
        for i in 0..t.epsilon.len() {
            let e = t.epsilon.as_slice()[i];
            let d = t.delta.as_slice()[i];
            assert!((0.0..0.3).contains(&e));
            assert!(d >= 0.0 && d <= e + 1e-6, "delta {d} epsilon {e}");
        }
        assert!(t.vmax() >= 3500.0);
    }

    #[test]
    fn elastic_lame_from_velocities() {
        let e = ElasticModel::homogeneous(dom(4), 3000.0, 1200.0, 2500.0);
        let mu = 2500.0f32 * 1200.0 * 1200.0;
        let lam = 2500.0f32 * 3000.0 * 3000.0 - 2.0 * mu;
        assert_eq!(e.mu.get(1, 1, 1), mu);
        assert_eq!(e.lam.get(1, 1, 1), lam);
        assert_eq!(e.buoyancy.get(0, 0, 0), 1.0 / 2500.0);
        assert!(lam > 0.0);
    }

    #[test]
    #[should_panic(expected = "vs < vp")]
    fn elastic_rejects_unphysical_vs() {
        let _ = ElasticModel::homogeneous(dom(4), 1000.0, 900.0, 2500.0);
    }

    #[test]
    fn elastic_random_is_deterministic() {
        let a = ElasticModel::random(dom(4), 2000.0, 4000.0, 3);
        let b = ElasticModel::random(dom(4), 2000.0, 4000.0, 3);
        assert!(a.lam.bit_equal(&b.lam));
        assert!(a.mu.bit_equal(&b.mu));
        assert!(a.buoyancy.bit_equal(&b.buoyancy));
    }
}
