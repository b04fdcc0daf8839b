//! End-to-end reverse-time-migration tests — the paper's motivating workload
//! (§I.C) driven through the whole stack, split by pipeline stage so a
//! failure localises: forward modelling with off-grid receivers, adjoint
//! propagation with receivers re-injected as off-grid sources, and the
//! cross-correlation imaging condition. The expensive wavefield history is
//! computed once and shared across the stage tests; the checkpointed
//! restart path of `core/src/shared.rs` is covered separately.

use std::sync::OnceLock;

use tempest::core::config::EquationKind;
use tempest::core::operator::Schedule;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Array2, Array3, Domain, Model, Shape};
use tempest::sparse::SparsePoints;

const N: usize = 36;
const EVERY: usize = 2;
const INTERFACE_FRAC: f32 = 0.5;

/// Everything the stage tests inspect, computed once.
struct RtmPipeline {
    nt: usize,
    /// Gather recorded in the true (two-layer) model.
    gather: Array2<f32>,
    /// Direct-wave gather in the smooth model (for muting).
    direct: Array2<f32>,
    /// Forward source-wavefield history in the smooth model.
    s_snaps: Vec<Array3<f32>>,
    /// Adjoint receiver-wavefield history.
    r_snaps: Vec<Array3<f32>>,
}

fn pipeline() -> &'static RtmPipeline {
    static PIPELINE: OnceLock<RtmPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let domain = Domain::uniform(Shape::cube(N), 10.0);
        let true_model = Model::two_layer(domain, 1500.0, 3500.0, INTERFACE_FRAC);
        let smooth_model = Model::homogeneous(domain, 1500.0);

        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 3500.0, 420.0)
            .with_f0(22.0)
            .with_boundary(6, 0.4);
        let nt = cfg.nt;

        let e = domain.extent();
        let shot = [0.5 * e[0] + 3.0, 0.5 * e[1] + 3.0, 0.08 * e[2]];
        let src = SparsePoints::new(&domain, vec![shot]);
        let rec = SparsePoints::receiver_line(&domain, 15, 0.08);

        // Forward pass in the true model: record the gather.
        let mut fwd = Acoustic::new(&true_model, cfg.clone(), src.clone(), Some(rec.clone()));
        fwd.run(&Execution::baseline().sequential());
        let gather = fwd.trace().unwrap();

        // Source history + direct-wave gather in the smooth model.
        let mut fwd_smooth = Acoustic::new(&smooth_model, cfg.clone(), src, Some(rec.clone()));
        let s_snaps = fwd_smooth.run_recording(&Execution::baseline().sequential(), EVERY);
        let direct = fwd_smooth.trace().unwrap();

        // Adjoint pass: receivers fire the muted, time-reversed gather.
        let mut reversed = Array2::<f32>::zeros(nt, rec.len());
        for t in 0..nt {
            for r in 0..rec.len() {
                reversed.set(t, r, gather.get(nt - 1 - t, r) - direct.get(nt - 1 - t, r));
            }
        }
        let mut bwd = Acoustic::new_with_wavelets(&smooth_model, cfg, rec, reversed, None);
        let r_snaps = bwd.run_recording(&Execution::baseline().sequential(), EVERY);

        RtmPipeline {
            nt,
            gather,
            direct,
            s_snaps,
            r_snaps,
        }
    })
}

/// First timestep at which any receiver exceeds `frac` of the gather's peak.
fn onset(g: &Array2<f32>, nt: usize, nrec: usize, frac: f32) -> Option<usize> {
    let peak = (0..nt)
        .flat_map(|t| (0..nrec).map(move |r| (t, r)))
        .map(|(t, r)| g.get(t, r).abs())
        .fold(0.0f32, f32::max);
    (0..nt).find(|&t| (0..nrec).any(|r| g.get(t, r).abs() > frac * peak))
}

#[test]
fn rtm_forward_gather_records_reflection() {
    let p = pipeline();
    let nrec = 15;
    // The true-model gather must contain energy beyond the direct wave: the
    // residual (gather − direct) is the reflection, and it must arrive
    // *after* the direct arrival.
    let mut residual = Array2::<f32>::zeros(p.nt, nrec);
    for t in 0..p.nt {
        for r in 0..nrec {
            residual.set(t, r, p.gather.get(t, r) - p.direct.get(t, r));
        }
    }
    let direct_onset = onset(&p.direct, p.nt, nrec, 0.01).expect("direct wave must register");
    let refl_onset = onset(&residual, p.nt, nrec, 0.01).expect("reflection must register");
    assert!(
        refl_onset > direct_onset,
        "reflection onset (t={refl_onset}) must trail the direct arrival (t={direct_onset})"
    );
    let res_energy: f64 = (0..p.nt)
        .flat_map(|t| (0..nrec).map(move |r| (t, r)))
        .map(|(t, r)| (residual.get(t, r) as f64).powi(2))
        .sum();
    assert!(
        res_energy > 0.0,
        "reflector must leave energy in the gather"
    );
}

#[test]
fn rtm_adjoint_wavefield_propagates() {
    let p = pipeline();
    // Histories must pair up snapshot-for-snapshot for the imaging zip.
    assert_eq!(p.s_snaps.len(), p.r_snaps.len());
    assert!(p.s_snaps.len() > 10, "need a meaningful history");
    // The adjoint field is driven by the re-injected residual: by the end of
    // the backward run (early physical time) it must be alive and finite.
    let last = p.r_snaps.last().unwrap();
    assert!(last.max_abs() > 0.0, "adjoint wavefield died");
    assert!(
        last.as_slice().iter().all(|v| v.is_finite()),
        "adjoint wavefield diverged"
    );
}

#[test]
fn rtm_imaging_condition_focuses_at_reflector() {
    let p = pipeline();
    // Zero-lag cross-correlation of forward and time-reversed adjoint
    // histories.
    let mut image = Array3::<f32>::zeros(N, N, N);
    let pairs = p.s_snaps.len().min(p.r_snaps.len());
    for si in 0..pairs {
        let s = &p.s_snaps[si];
        let r = &p.r_snaps[pairs - 1 - si];
        for (i, v) in image.as_mut_slice().iter_mut().enumerate() {
            *v += s.as_slice()[i] * r.as_slice()[i];
        }
    }

    // Depth profile must peak at the reflector (below the shallow imprint).
    let mut profile = vec![0.0f64; N];
    for (_, _, z, v) in image.iter_indexed() {
        profile[z] += (v as f64).abs();
    }
    let z_interface = (INTERFACE_FRAC * N as f32) as usize;
    let peak_z = profile
        .iter()
        .enumerate()
        .filter(|(z, _)| *z >= N / 4)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        peak_z.abs_diff(z_interface) <= 3,
        "image peak at z={peak_z}, reflector at z={z_interface}; profile {profile:?}"
    );
}

#[test]
fn rtm_checkpointed_restart_is_bitwise() {
    // The restart primitive behind checkpointed adjoint loops: running
    // [0, s), checkpointing, and running [s, nt) must equal the
    // uninterrupted run bit-for-bit — and restoring the checkpoint must
    // re-materialise the second half identically. Under the baseline and
    // under a wave-front whose time tiles the seam cuts.
    let n = 24;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::two_layer(domain, 1500.0, 3000.0, 0.5);
    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 3000.0, 300.0)
        .with_f0(20.0)
        .with_boundary(4, 0.3);
    let nt = cfg.nt;
    assert!(nt >= 4, "config too short to split");
    let split = nt / 2;
    let src = SparsePoints::single_center(&domain, 0.3);
    let baseline = Execution::baseline().sequential();
    let tile_t = (3..).find(|&t| !split.is_multiple_of(t)).unwrap();
    let wavefront = Execution {
        schedule: Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 12,
            tile_t,
            block_x: 4,
            block_y: 4,
        },
        ..Execution::wavefront_default()
    };

    // Uninterrupted reference.
    let mut full = Acoustic::new(&model, cfg.clone(), src.clone(), None);
    full.run(&baseline);
    let reference = full.final_field();
    assert!(reference.max_abs() > 0.0);

    for exec in [baseline, wavefront] {
        let what = exec.schedule_label();
        full.run(&exec);
        let full_field = full.final_field();
        assert_eq!(reference.as_slice(), full_field.as_slice(), "{what}");

        // Split run with a checkpoint at the seam.
        let mut part = Acoustic::new(&model, cfg.clone(), src.clone(), None);
        part.run_range(&exec, 0, split);
        let cp = part.checkpoint();
        part.run_range(&exec, split, nt);
        let split_field = part.final_field();
        assert_eq!(reference.as_slice(), split_field.as_slice(), "{what}");

        // Restart: restore the seam state and replay the second half.
        part.restore_checkpoint(&cp);
        // Guard against a vacuous test: the restored seam state must differ
        // from the final state before the replay brings it back.
        assert_ne!(reference.as_slice(), part.final_field().as_slice());
        part.run_range(&exec, split, nt);
        let replayed = part.final_field();
        assert_eq!(reference.as_slice(), replayed.as_slice(), "{what}");
    }
}
