//! A small seismic acquisition scenario — the workload class that motivates
//! the paper (§I: "source injections result in wavefields that must then be
//! measured at receivers"). A shot is fired into a layered medium and
//! recorded by a surface receiver line; we report first-break arrival times
//! per receiver and verify they match straight-ray travel times through the
//! top layer, then compare both schedules on the full shot.
//!
//! ```text
//! cargo run --release --example seismic_survey
//! ```
//!
//! With profiling compiled in and switched on, each schedule also prints a
//! profile (counters and per-kind span times) and writes it to
//! `target/profile/*.json`:
//!
//! ```text
//! TEMPEST_PROFILE=1 cargo run --release --example seismic_survey --features obs
//! ```
//!
//! Add `--trace` (or `TEMPEST_TRACE=1`) to also capture event-level traces:
//! each schedule writes Chrome trace JSON under `results/trace/` (open in
//! Perfetto).

use tempest::core::config::EquationKind;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::obs;
use tempest::sparse::SparsePoints;

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        obs::trace::set_enabled(true);
    }
    let n = 128;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let c_top = 1500.0f32;
    let model = Model::two_layer(domain, c_top, 3200.0, 0.6);

    let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, model.vmax(), 320.0)
        .with_f0(12.0)
        .with_boundary(12, 0.3);
    let nt = cfg.nt;
    let dt = cfg.dt;

    // Shot at the surface centre, receivers along a surface line (all in
    // the top layer).
    let e = domain.extent();
    let shot = [0.5 * e[0] + 3.7, 0.5 * e[1] + 3.7, 0.08 * e[2]];
    let src = SparsePoints::new(&domain, vec![shot]);
    let rec = SparsePoints::receiver_line(&domain, 41, 0.08);
    let rec_coords: Vec<[f32; 3]> = rec.coords().to_vec();

    println!(
        "shot at {shot:?}, {} receivers, nt = {nt}",
        rec_coords.len()
    );
    let mut solver = Acoustic::new(&model, cfg, src, Some(rec));

    let (base, base_profile, base_meta) = solver.run_profiled(&Execution::baseline());
    let gather = solver.trace().unwrap();
    println!("baseline : {:>7.3} GPts/s", base.gpoints_per_s);
    let (wtb, wtb_profile, wtb_meta) = solver.run_profiled(&Execution::wavefront_default());
    println!(
        "wavefront: {:>7.3} GPts/s  speedup {:.2}x",
        wtb.gpoints_per_s,
        wtb.gpoints_per_s / base.gpoints_per_s
    );

    for (profile, meta) in [(base_profile, base_meta), (wtb_profile, wtb_meta)] {
        if profile.is_empty() {
            continue; // profiling off (or built without --features obs)
        }
        println!("\n{}", profile.render(&meta));
        match profile.write_json(&meta) {
            Ok(path) => println!("profile written to {}", path.display()),
            Err(err) => eprintln!("could not write profile JSON: {err}"),
        }
        let trace = &profile.trace;
        if !trace.is_empty() {
            // The Perfetto-loadable event trace.
            match trace.write_chrome_json(&meta) {
                Ok(path) => println!("trace written to {}", path.display()),
                Err(err) => eprintln!("could not write trace JSON: {err}"),
            }
        }
    }

    // First-break picking: earliest sample exceeding 2% of the trace peak.
    let peak = gather
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    let threshold = 0.02 * peak;
    // The Ricker wavelet is delayed by t0 = 1/f0.
    let t0 = 1.0 / 12.0f32;

    println!("\nreceiver   offset(m)   picked(ms)   ray(ms)");
    let mut checked = 0;
    for (r, rc) in rec_coords.iter().enumerate().step_by(8) {
        let dist =
            ((rc[0] - shot[0]).powi(2) + (rc[1] - shot[1]).powi(2) + (rc[2] - shot[2]).powi(2))
                .sqrt();
        let ray_ms = dist / c_top * 1e3;
        let pick = (0..nt).find(|&t| gather.get(t, r).abs() > threshold);
        if let Some(t) = pick {
            let picked_ms = (t as f32 * dt - t0).max(0.0) * 1e3;
            println!("{r:>8}   {dist:>9.1}   {picked_ms:>10.1}   {ray_ms:>7.1}");
            // First breaks within a wavelet period of the ray time.
            if ray_ms > 20.0 && picked_ms > 0.0 {
                let err = (picked_ms - ray_ms).abs();
                assert!(
                    err < 1000.0 / 12.0 * 1.5,
                    "receiver {r}: pick {picked_ms} ms vs ray {ray_ms} ms"
                );
                checked += 1;
            }
        } else {
            println!("{r:>8}   {dist:>9.1}   (no arrival)   {ray_ms:>7.1}");
        }
    }
    println!("\n{checked} first breaks validated against straight-ray travel times");
}
