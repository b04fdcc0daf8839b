//! Zero-offset-style reverse time migration (RTM) — the paper's motivating
//! application class ("full-waveform inversion (FWI) and reverse time
//! migration (RTM)", §I.C). A minimal single-shot imaging experiment:
//!
//! 1. **forward-model** a shot over a two-layer medium, recording the shot
//!    gather at surface receivers and snapshotting the source wavefield;
//! 2. **back-propagate** the recorded gather (time-reversed, injected at the
//!    receiver positions — receivers become off-the-grid *sources*, the
//!    duality at the heart of the paper's scheme);
//! 3. **cross-correlate** the two wavefield histories (the imaging
//!    condition) — energy focuses at the reflector.
//!
//! ```text
//! cargo run --release --example rtm_imaging
//! ```

use tempest::core::config::EquationKind;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Array2, Array3, Domain, Model, Shape};
use tempest::sparse::SparsePoints;

fn main() {
    let n = 64;
    let every = 2; // snapshot stride
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let interface_frac = 0.55;
    let true_model = Model::two_layer(domain, 1500.0, 3500.0, interface_frac);
    // Migration runs in the smooth "background" model (no reflector).
    let smooth_model = Model::homogeneous(domain, 1500.0);

    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 3500.0, 650.0)
        .with_f0(18.0)
        .with_boundary(8, 0.4);
    let nt = cfg.nt;
    println!("RTM demo: {n}³ grid, nt = {nt}, snapshot every {every} steps");

    let e = domain.extent();
    let shot = [0.5 * e[0] + 3.0, 0.5 * e[1] + 3.0, 0.06 * e[2]];
    let src = SparsePoints::new(&domain, vec![shot]);
    let rec = SparsePoints::receiver_line(&domain, 31, 0.06);
    let rec_pts = rec.clone();

    // --- 1. forward pass in the true model, recording the gather ---------
    let mut fwd = Acoustic::new(&true_model, cfg.clone(), src.clone(), Some(rec));
    let _ = fwd.run(&Execution::baseline());
    let gather = fwd.trace().unwrap();
    println!(
        "forward shot modelled; gather peak {:.3e}",
        gather
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
    );

    // Source wavefield history in the *smooth* model (standard RTM); also
    // model the smooth-medium gather so the direct wave can be muted.
    let mut fwd_smooth = Acoustic::new(&smooth_model, cfg.clone(), src, Some(rec_pts.clone()));
    let s_snaps = fwd_smooth.run_recording(&Execution::baseline(), every);
    let direct = fwd_smooth.trace().unwrap();

    // --- 2. backward pass: receivers fire the time-reversed gather -------
    // Mute the direct arrival (subtract the smooth-model gather), then
    // time-reverse: only reflected energy is back-propagated.
    let mut reversed = Array2::<f32>::zeros(nt, rec_pts.len());
    for t in 0..nt {
        for r in 0..rec_pts.len() {
            let refl = gather.get(nt - 1 - t, r) - direct.get(nt - 1 - t, r);
            reversed.set(t, r, refl);
        }
    }
    let mut bwd =
        tempest::core::Acoustic::new_with_wavelets(&smooth_model, cfg, rec_pts, reversed, None);
    let r_snaps = bwd.run_recording(&Execution::baseline(), every);
    println!(
        "backward pass done; {} snapshot pairs",
        s_snaps.len().min(r_snaps.len())
    );

    // --- 3. imaging condition: I(x) = Σ_t S(t, x) · R(T − t, x) ----------
    let mut image = Array3::<f32>::zeros(n, n, n);
    let pairs = s_snaps.len().min(r_snaps.len());
    for si in 0..pairs {
        let s = &s_snaps[si];
        let r = &r_snaps[pairs - 1 - si]; // receiver history is reversed
        let img = image.as_mut_slice();
        for (i, v) in img.iter_mut().enumerate() {
            *v += s.as_slice()[i] * r.as_slice()[i];
        }
    }

    // Depth profile of |image| (summed over x, y), normalised.
    let mut profile = vec![0.0f64; n];
    for (x, y, z, v) in image.iter_indexed() {
        let _ = (x, y);
        profile[z] += (v as f64).abs();
    }
    let pmax = profile.iter().cloned().fold(0.0, f64::max).max(1e-30);
    let z_interface = (interface_frac * n as f32) as usize;
    println!("\ndepth profile of the migrated image (# = energy):");
    for (z, p) in profile.iter().enumerate().step_by(2) {
        let bar = "#".repeat((40.0 * p / pmax) as usize);
        let mark = if z.abs_diff(z_interface) <= 1 {
            " <== true reflector"
        } else {
            ""
        };
        println!("z={z:>3} |{bar}{mark}");
    }
    let peak_z = profile
        .iter()
        .enumerate()
        // Ignore the shallow source/receiver imprint.
        .filter(|(z, _)| *z > n / 4)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    println!("\nimage peak at z = {peak_z} (true reflector at z = {z_interface})");
}
