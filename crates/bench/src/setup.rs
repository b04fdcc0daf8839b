//! Standard benchmark problem builders (paper §IV.B test cases, scaled).
//!
//! The paper benchmarks 512³ grids (spacing 10 m for isotropic/elastic,
//! 20 m for TTI), one off-grid source, zero initial conditions and absorbing
//! layers. These builders reproduce that setup at any cube size; velocity
//! models are layered + seeded-random perturbed so the compiler cannot
//! specialise away parameter loads.

use tempest_core::config::EquationKind;
use tempest_core::{Acoustic, Elastic, SimConfig, Tti, WaveSolver};
use tempest_grid::{Domain, ElasticModel, Model, Shape, TtiModel};
use tempest_sparse::SparsePoints;
use tempest_survey::Survey;

/// Propagation time that yields roughly `nt` steps for the acoustic case at
/// paper-like velocities — builders then pin `nt` exactly.
const VMAX: f32 = 3000.0;

/// Build the isotropic acoustic benchmark problem.
pub fn acoustic(size: usize, so: usize, nt: usize, receivers: usize) -> Acoustic {
    let domain = Domain::uniform(Shape::cube(size), 10.0);
    let model = Model::random(domain, 1500.0, VMAX, 0xACu64);
    let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, VMAX, 512.0).with_nt(nt);
    let src = SparsePoints::single_center(&domain, 0.37);
    let rec = (receivers > 0).then(|| SparsePoints::receiver_line(&domain, receivers, 0.2));
    Acoustic::new(&model, cfg, src, rec)
}

/// Build the acoustic problem with an explicit source layout (Fig. 10
/// corner cases).
pub fn acoustic_with_sources(size: usize, so: usize, nt: usize, sources: SparsePoints) -> Acoustic {
    let domain = Domain::uniform(Shape::cube(size), 10.0);
    let model = Model::random(domain, 1500.0, VMAX, 0xACu64);
    let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, VMAX, 512.0).with_nt(nt);
    Acoustic::new(&model, cfg, sources, None)
}

/// Build the TTI benchmark problem (20 m spacing, as in the paper).
pub fn tti(size: usize, so: usize, nt: usize, receivers: usize) -> Tti {
    let domain = Domain::uniform(Shape::cube(size), 20.0);
    let model = TtiModel::random(domain, 1500.0, VMAX, 0x77u64);
    let cfg = SimConfig::new(domain, so, EquationKind::Tti, model.vmax(), 512.0).with_nt(nt);
    let src = SparsePoints::single_center(&domain, 0.37);
    let rec = (receivers > 0).then(|| SparsePoints::receiver_line(&domain, receivers, 0.2));
    Tti::new(&model, cfg, src, rec)
}

/// Build the isotropic elastic benchmark problem.
pub fn elastic(size: usize, so: usize, nt: usize, receivers: usize) -> Elastic {
    let domain = Domain::uniform(Shape::cube(size), 10.0);
    let model = ElasticModel::random(domain, 2000.0, VMAX, 0xE1u64);
    let cfg = SimConfig::new(domain, so, EquationKind::Elastic, VMAX, 512.0).with_nt(nt);
    let src = SparsePoints::single_center(&domain, 0.37);
    let rec = (receivers > 0).then(|| SparsePoints::receiver_line(&domain, receivers, 0.2));
    Elastic::new(&model, cfg, src, rec)
}

/// Build the benchmark problem of `model` — `acoustic`, `tti` or `elastic` —
/// behind the one interface every harness measures through.
///
/// # Panics
/// On any other model name.
pub fn solver(
    model: &str,
    size: usize,
    so: usize,
    nt: usize,
    receivers: usize,
) -> Box<dyn WaveSolver> {
    match model {
        "acoustic" => Box::new(acoustic(size, so, nt, receivers)),
        "tti" => Box::new(tti(size, so, nt, receivers)),
        "elastic" => Box::new(elastic(size, so, nt, receivers)),
        _ => panic!("unknown model {model:?}: expected acoustic, tti or elastic"),
    }
}

/// Build the multi-shot survey benchmark problem: the acoustic setup with a
/// shot line across the top of the domain instead of the single centre
/// source, driven through the `tempest-survey` engine (DESIGN.md §14).
pub fn survey(size: usize, so: usize, nt: usize, shots: usize, receivers: usize) -> Survey {
    let domain = Domain::uniform(Shape::cube(size), 10.0);
    let model = Model::random(domain, 1500.0, VMAX, 0xACu64);
    let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, VMAX, 512.0).with_nt(nt);
    let mut s = Survey::new(model, cfg);
    if receivers > 0 {
        s = s.with_receivers(SparsePoints::receiver_line(&domain, receivers, 0.2));
    }
    s.add_shot_line(shots, 0.37);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_core::Execution;

    #[test]
    fn builders_produce_runnable_problems() {
        for (model, receivers) in [("acoustic", 3), ("tti", 0), ("elastic", 3)] {
            let mut s = solver(model, 16, 4, 4, receivers);
            assert_eq!(s.run(&Execution::baseline().sequential()).nt, 4, "{model}");
            assert!(s.final_field().max_abs() > 0.0, "{model}");
        }
    }

    #[test]
    fn survey_builder_is_runnable() {
        let s = survey(16, 4, 4, 2, 3);
        assert_eq!(s.len(), 2);
        let out =
            tempest_survey::run_survey(&s, &tempest_survey::SurveyOptions::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.gather.is_some()));
    }

    #[test]
    fn source_layouts_plumb_through() {
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let srcs = SparsePoints::plane_layout(&domain, 4, 0.3, 0.4);
        let mut a = acoustic_with_sources(16, 4, 4, srcs);
        assert_eq!(a.sources().num_sources(), 4);
        a.run(&Execution::baseline().sequential());
        assert!(a.final_field().max_abs() > 0.0);
    }
}
