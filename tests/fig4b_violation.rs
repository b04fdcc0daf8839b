//! A numeric demonstration of the paper's Fig. 4b claim: applying sparse
//! operators *classically* (once per timestep, after "the" sweep) under a
//! temporally blocked schedule produces WRONG results, because different
//! spatial regions sit at different timesteps when the operator fires.
//!
//! We build a tiny 1-D-in-x diffusion-like stencil driven directly through
//! the schedule engine (bypassing the propagators' API guard, which refuses
//! this combination) and show:
//!
//! 1. classic injection + spatially blocked schedule  == reference;
//! 2. fused (precomputed-style) injection + wave-front schedule == reference;
//! 3. classic injection + wave-front schedule  != reference — the Fig. 4b
//!    data-dependency violation, observed as a real numeric divergence.

use std::sync::Mutex;
use tempest::grid::{Range3, Shape};
use tempest::par::Policy;
use tempest::tiling::{execute_plan, TilePlan, WavefrontSpec};

const NX: usize = 32;
const NT: usize = 8;
const SRC_X: usize = 13; // grid-aligned source position
const R: usize = 1; // stencil radius

/// Two-level 1-D state: `state[lvl][x]`, halo of R on each side.
type State = Vec<Vec<f64>>;

fn new_state() -> State {
    vec![vec![0.0; NX + 2 * R]; 2]
}

/// One stencil update of column x at step t (reads t%2, writes (t+1)%2).
fn stencil_update(state: &mut State, t: usize, x: usize) {
    let (r, w) = (t % 2, (t + 1) % 2);
    let i = x + R;
    let v = 0.5 * state[r][i] + 0.25 * (state[r][i - 1] + state[r][i + 1]);
    state[w][i] = v;
}

/// Source amplitude at step t.
fn amp(t: usize) -> f64 {
    1.0 + t as f64
}

/// Inject into the *written* level of step t.
fn inject(state: &mut State, t: usize, x: usize) {
    let w = (t + 1) % 2;
    state[w][x + R] += amp(t);
}

/// 8-wide tiles of 4 steps along x. The grid is one cell deep in y, so one
/// y tile wide enough to still reach it after 3 steps of skew keeps every
/// tile's four slabs together.
fn wavefront_spec() -> WavefrontSpec {
    WavefrontSpec::new(8, 1 + 3 * R, 4, R, 8, 1 + 3 * R)
}

/// Reference: plain time loop, full sweeps, classic injection (Listing 1).
fn reference() -> Vec<f64> {
    let mut st = new_state();
    for t in 0..NT {
        for x in 0..NX {
            stencil_update(&mut st, t, x);
        }
        inject(&mut st, t, SRC_X);
    }
    st[NT % 2][R..R + NX].to_vec()
}

#[test]
fn classic_under_space_blocking_is_correct() {
    // Fig. 4a: "sparse operators fit within space blocking" — the
    // space-blocked plan of one step, run once per step, with the classic
    // injection between the segments.
    let st = Mutex::new(new_state());
    let shape = Shape::new(NX, 1, 1);
    let plan = TilePlan::spaceblocked(shape, 1, 5, 1, R);
    let step = |t: usize, region: &Range3| {
        let mut s = st.lock().unwrap();
        for x in region.x0..region.x1 {
            stencil_update(&mut s, t, x);
        }
    };
    for t in 0..NT {
        execute_plan(&plan, t, Policy::Sequential, step, None);
        inject(&mut st.lock().unwrap(), t, SRC_X);
    }
    let got = {
        let s = st.lock().unwrap();
        s[NT % 2][R..R + NX].to_vec()
    };
    assert_eq!(got, reference());
}

#[test]
fn fused_under_wavefront_is_correct() {
    // The paper's scheme: the (grid-aligned) source is applied *inside* the
    // blocked loop, at the region+timestep that owns it.
    let st = Mutex::new(new_state());
    let shape = Shape::new(NX, 1, 1);
    let spec = wavefront_spec();
    let plan = TilePlan::wavefront(shape, NT, &spec, R);
    let step = |t: usize, region: &Range3| {
        let mut s = st.lock().unwrap();
        for x in region.x0..region.x1 {
            stencil_update(&mut s, t, x);
            if x == SRC_X {
                inject(&mut s, t, SRC_X);
            }
        }
    };
    execute_plan(&plan, 0, Policy::Sequential, step, None);
    let got = {
        let s = st.lock().unwrap();
        s[NT % 2][R..R + NX].to_vec()
    };
    assert_eq!(got, reference());
}

#[test]
fn classic_under_wavefront_is_wrong() {
    // Fig. 4b: firing the classic injection "after each timestep's work"
    // under a wave-front schedule — here, after the last slab that carries
    // each virtual step — hits regions that are at *different* timesteps.
    let st = Mutex::new(new_state());
    let shape = Shape::new(NX, 1, 1);
    let spec = wavefront_spec();
    // Count how many columns of each vt have completed; when a vt's sweep
    // completes, fire the classic injection (the natural-but-wrong porting
    // of Listing 1 onto the tiled loop).
    let done = Mutex::new(vec![0usize; NT]);
    let plan = TilePlan::wavefront(shape, NT, &spec, R);
    let step = |t: usize, region: &Range3| {
        {
            let mut s = st.lock().unwrap();
            for x in region.x0..region.x1 {
                stencil_update(&mut s, t, x);
            }
        }
        let fire = {
            let mut d = done.lock().unwrap();
            d[t] += region.len();
            d[t] == NX
        };
        if fire {
            inject(&mut st.lock().unwrap(), t, SRC_X);
        }
    };
    execute_plan(&plan, 0, Policy::Sequential, step, None);
    let got = {
        let s = st.lock().unwrap();
        s[NT % 2][R..R + NX].to_vec()
    };
    let rf = reference();
    let max_diff = got
        .iter()
        .zip(&rf)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    assert!(
        max_diff > 1e-6,
        "classic sparse ops under temporal blocking should corrupt the \
         result (Fig. 4b) — if this starts passing, the schedule has been \
         de-tiled somewhere"
    );
}
