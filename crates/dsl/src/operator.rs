//! The DSL operator: executes lowered updates with classic off-grid sparse
//! operators — the reference semantics the optimised `tempest-core`
//! propagators must reproduce, and a renderer of the paper's Listing-1 style
//! loop nests.

use crate::field::{Context, FieldHandle, FieldId, FieldKind};
use crate::lower::{lower, LowExpr};
use crate::solve::Update;
use tempest_grid::{Array2, Array3, TimeBuffer};
use tempest_par::FlushGuard;
use tempest_sparse::interp::trilinear_all;
use tempest_sparse::{InterpStencil, SparsePoints};

/// How an injected amplitude is scaled at each affected grid point.
#[derive(Debug, Clone, Copy)]
pub enum InjectScale {
    /// Multiply by a constant (e.g. `dt` for the elastic source).
    Const(f32),
    /// Multiply by `c / param(x,y,z)` (e.g. `dt²/m` for acoustic — Devito's
    /// `src * dt**2 / m`).
    ConstOverParam(f32, FieldId),
}

struct Injection {
    field: FieldId,
    points: SparsePoints,
    stencils: Vec<InterpStencil>,
    wavelets: Array2<f32>,
    scale: InjectScale,
}

struct Interpolation {
    field: FieldId,
    points: SparsePoints,
    stencils: Vec<InterpStencil>,
    trace: Array2<f32>,
}

struct LoweredUpdate {
    field: FieldId,
    expr: LowExpr,
    time_order: usize,
}

/// An executable DSL operator (Devito `Operator`).
pub struct DslOperator {
    ctx: Context,
    updates: Vec<LoweredUpdate>,
    buffers: Vec<Option<TimeBuffer>>,
    params: Vec<Option<Array3<f32>>>,
    injections: Vec<Injection>,
    interpolations: Vec<Interpolation>,
    nt: usize,
}

impl DslOperator {
    /// Lower and assemble an operator from solved updates.
    ///
    /// `nt` is the number of timesteps `run` will execute (wavelet matrices
    /// and traces are sized to it).
    pub fn new(ctx: Context, updates: Vec<Update>, nt: usize) -> Self {
        assert!(!updates.is_empty(), "an operator needs at least one update");
        assert!(nt >= 1);
        let lowered: Vec<LoweredUpdate> = updates
            .iter()
            .map(|u| {
                let expr = lower(&ctx, u.rhs());
                let time_order = match ctx.decl(u.field()).kind {
                    FieldKind::TimeFunction { time_order } => time_order,
                    FieldKind::Parameter => panic!("cannot update a parameter field"),
                };
                LoweredUpdate {
                    field: u.field(),
                    expr,
                    time_order,
                }
            })
            .collect();
        // Allocate buffers: halo = max radius over all updates; levels from
        // each field's time order.
        let halo = lowered.iter().map(|u| u.expr.radius()).max().unwrap();
        let shape = ctx.domain().shape();
        let n_fields = ctx.decls().len();
        let mut buffers: Vec<Option<TimeBuffer>> = (0..n_fields).map(|_| None).collect();
        for u in &lowered {
            buffers[u.field.0] = Some(TimeBuffer::zeros(shape, halo, u.time_order + 1));
        }
        let params = (0..n_fields).map(|_| None).collect();
        DslOperator {
            ctx,
            updates: lowered,
            buffers,
            params,
            injections: Vec::new(),
            interpolations: Vec::new(),
            nt,
        }
    }

    /// Bind a parameter volume (must match the grid shape).
    pub fn set_parameter(&mut self, id: FieldId, data: Array3<f32>) {
        assert!(
            matches!(self.ctx.decl(id).kind, FieldKind::Parameter),
            "field {id:?} is not a parameter"
        );
        assert_eq!(data.shape(), self.ctx.domain().shape());
        self.params[id.0] = Some(data);
    }

    /// Attach an off-grid source set injecting `wavelet` into `field`
    /// (Devito `src.inject(field.forward, expr=...)`).
    pub fn add_injection(
        &mut self,
        field: FieldHandle,
        points: &SparsePoints,
        wavelet: &[f32],
        scale: InjectScale,
    ) {
        assert!(wavelet.len() >= self.nt, "wavelet shorter than nt");
        let stencils = trilinear_all(self.ctx.domain(), points);
        let mut wavelets = Array2::zeros(self.nt, points.len());
        for (t, &w) in wavelet.iter().take(self.nt).enumerate() {
            wavelets.row_mut(t).fill(w);
        }
        self.injections.push(Injection {
            field: field.id(),
            points: points.clone(),
            stencils,
            wavelets,
            scale,
        });
    }

    /// Attach an off-grid receiver set measuring `field`
    /// (Devito `rec.interpolate(field)`); returns the trace index.
    pub fn add_interpolation(&mut self, field: FieldHandle, points: &SparsePoints) -> usize {
        let stencils = trilinear_all(self.ctx.domain(), points);
        self.interpolations.push(Interpolation {
            field: field.id(),
            points: points.clone(),
            stencils,
            trace: Array2::zeros(self.nt, points.len()),
        });
        self.interpolations.len() - 1
    }

    /// Execute all `nt` timesteps (Listing-1 structure: dense updates, then
    /// source injection, then receiver interpolation, per step).
    pub fn run(&mut self) {
        let _fp = FlushGuard::enter();
        self.reset_state();
        let shape = self.ctx.domain().shape();
        for k in 0..self.nt {
            // Dense updates.
            for ui in 0..self.updates.len() {
                let (field, time_order) = (self.updates[ui].field, self.updates[ui].time_order);
                let base = k + time_order - 1;
                let write = base + 1;
                // Evaluate into a scratch level copy to keep the borrow
                // checker happy without unsafe (performance is not this
                // path's job).
                let mut scratch = Array3::from_shape(shape);
                for x in 0..shape.nx {
                    for y in 0..shape.ny {
                        for z in 0..shape.nz {
                            let v = self.eval(&self.updates[ui].expr, base, x, y, z);
                            scratch.set(x, y, z, v);
                        }
                    }
                }
                let buf = self.buffers[field.0].as_mut().unwrap();
                let lvl = buf.level_mut(write);
                for x in 0..shape.nx {
                    for y in 0..shape.ny {
                        for z in 0..shape.nz {
                            lvl.set(x, y, z, scratch.get(x, y, z));
                        }
                    }
                }
            }
            // Source injection into the forward level.
            for inj in &self.injections {
                let time_order = self
                    .updates
                    .iter()
                    .find(|u| u.field == inj.field)
                    .map(|u| u.time_order)
                    .expect("injection target must have an update");
                let write = k + time_order;
                for (s, st) in inj.stencils.iter().enumerate() {
                    let a = inj.wavelets.get(k, s);
                    for (c, w) in st.nonzero() {
                        let sc = match inj.scale {
                            InjectScale::Const(v) => v,
                            InjectScale::ConstOverParam(v, p) => {
                                v / self.params[p.0]
                                    .as_ref()
                                    .expect("unbound scale parameter")
                                    .get(c[0], c[1], c[2])
                            }
                        };
                        let buf = self.buffers[inj.field.0].as_mut().unwrap();
                        buf.level_mut(write).add(c[0], c[1], c[2], sc * (w * a));
                    }
                }
            }
            // Receiver interpolation from the forward level.
            for ii in 0..self.interpolations.len() {
                let field = self.interpolations[ii].field;
                let time_order = self
                    .updates
                    .iter()
                    .find(|u| u.field == field)
                    .map(|u| u.time_order)
                    .expect("interpolation target must have an update");
                let read = k + time_order;
                let mut row = vec![0.0f32; self.interpolations[ii].trace.dims()[1]];
                {
                    let buf = self.buffers[field.0].as_ref().unwrap();
                    let lvl = buf.level(read);
                    for (r, st) in self.interpolations[ii].stencils.iter().enumerate() {
                        let mut acc = 0.0f32;
                        for (c, w) in st.nonzero() {
                            acc += w * lvl.get(c[0], c[1], c[2]);
                        }
                        row[r] = acc;
                    }
                }
                self.interpolations[ii].trace.row_mut(k).copy_from_slice(&row);
            }
        }
    }

    /// Interior snapshot of a field at logical step `t`.
    pub fn field_copy(&self, id: FieldId, t: usize) -> Array3<f32> {
        self.buffers[id.0]
            .as_ref()
            .expect("not a time function")
            .level(t)
            .interior_copy()
    }

    /// Snapshot of the final (forward) level of a field after `run`.
    pub fn final_field(&self, id: FieldId) -> Array3<f32> {
        let time_order = self
            .updates
            .iter()
            .find(|u| u.field == id)
            .map(|u| u.time_order)
            .expect("field has no update");
        self.field_copy(id, self.nt - 1 + time_order)
    }

    /// Recorded trace of interpolation `idx`.
    pub fn trace(&self, idx: usize) -> &Array2<f32> {
        &self.interpolations[idx].trace
    }

    fn eval(&self, e: &LowExpr, base: usize, x: usize, y: usize, z: usize) -> f32 {
        eval_expr(e, &self.buffers, &self.params, base, x, y, z)
    }

    /// Zero all wavefield buffers and traces (run-to-run reset).
    pub fn reset_state(&mut self) {
        for b in self.buffers.iter_mut().flatten() {
            b.clear();
        }
        for it in &mut self.interpolations {
            it.trace.fill(0.0);
        }
    }

    /// Execute all timesteps under **automated wave-front temporal
    /// blocking** — the paper's stated future work ("The next step is the
    /// full automation and integration in the Devito DSL", §V-B).
    ///
    /// Everything the schedule needs is derived from the symbolic
    /// specification:
    /// * the skew comes from the lowered kernels' maximum stencil radius;
    /// * each update becomes one virtual step per timestep (multi-field
    ///   systems with intra-step dependencies get the Fig. 8b widened
    ///   angle automatically);
    /// * off-grid injections are precomputed into grid-aligned `SM`/`SID`/
    ///   `src_dcmp` structures (§II.A) and fused into the blocked loop;
    /// * receiver interpolation is fused through the mirror structures.
    ///
    /// Produces the same results as the classic [`DslOperator::run`]
    /// (bitwise on the wavefields for single-source problems).
    pub fn run_wavefront(&mut self, tile_x: usize, tile_y: usize, tile_t: usize) {
        use tempest_sparse::{ReceiverPrecompute, SourcePrecompute};
        use tempest_tiling::{TilePlan, WavefrontSpec};

        let _fp = FlushGuard::enter();
        self.reset_state();
        let phases = self.updates.len();
        let skew = self
            .updates
            .iter()
            .map(|u| u.expr.radius())
            .max()
            .unwrap()
            .max(1);
        let shape = self.ctx.domain().shape();
        let spec = WavefrontSpec::new(
            tile_x,
            tile_y,
            (tile_t * phases).max(1),
            skew,
            tile_x,
            tile_y,
        );
        // Precompute the grid-aligned sparse structures (Listings 2–3).
        let inj_pre: Vec<SourcePrecompute> = self
            .injections
            .iter()
            .map(|inj| SourcePrecompute::build(self.ctx.domain(), &inj.points, &inj.wavelets))
            .collect();
        let rec_pre: Vec<ReceiverPrecompute> = self
            .interpolations
            .iter()
            .map(|it| ReceiverPrecompute::build(self.ctx.domain(), &it.points))
            .collect();

        let nvt = self.nt * phases;
        // Split borrows so the schedule closure can mutate buffers/traces
        // while reading updates/params.
        let DslOperator {
            updates,
            buffers,
            params,
            injections,
            interpolations,
            ..
        } = self;
        let mut scratch: Vec<f32> = Vec::new();
        // Blocks are whole tiles, so each slab is one region; node order is a
        // topological order of the plan.
        let plan = TilePlan::wavefront(shape, nvt, &spec, skew);
        for slab in plan.slabs.iter().flatten() {
            let (vt, region) = (slab.vt, &slab.range);
            let k = vt / phases;
            let ui = vt % phases;
            let u = &updates[ui];
            let base = k + u.time_order - 1;
            let write = base + 1;
            // 1. dense update for this region (evaluate, then write).
            scratch.clear();
            for (x, y, z) in region.iter() {
                scratch.push(eval_expr(&u.expr, buffers, params, base, x, y, z));
            }
            {
                let lvl = buffers[u.field.0].as_mut().unwrap().level_mut(write);
                for ((x, y, z), v) in region.iter().zip(&scratch) {
                    lvl.set(x, y, z, *v);
                }
            }
            // 2. fused precomputed injection (Listing 4) for this field.
            for (inj, pre) in injections.iter().zip(&inj_pre) {
                if inj.field != u.field {
                    continue;
                }
                let lvl = buffers[u.field.0].as_mut().unwrap().level_mut(write);
                match inj.scale {
                    InjectScale::Const(v) => {
                        pre.apply_to_field(lvl, k, region, |_, _, _| v);
                    }
                    InjectScale::ConstOverParam(v, p) => {
                        let pa = params[p.0].as_ref().expect("unbound scale parameter");
                        pre.apply_to_field(lvl, k, region, |x, y, z| v / pa.get(x, y, z));
                    }
                }
            }
            // 3. fused receiver gather (the mirror structures).
            for (ii, pre) in rec_pre.iter().enumerate() {
                if interpolations[ii].field != u.field {
                    continue;
                }
                let lvl = buffers[u.field.0].as_ref().unwrap().level(write);
                pre.gather_region(lvl, region, interpolations[ii].trace.row_mut(k));
            }
        }
    }

    /// Render the operator's loop nest as pseudocode in the style of the
    /// paper's Listing 1.
    pub fn pseudocode(&self) -> String {
        let mut out = String::new();
        out.push_str("for t = 1 to nt do\n");
        out.push_str("  for x = 1 to nx do\n");
        out.push_str("    for y = 1 to ny do\n");
        out.push_str("      for z = 1 to nz do\n");
        for u in &self.updates {
            out.push_str(&format!(
                "        {}[t+1, x, y, z] = {};\n",
                self.ctx.decl(u.field).name,
                self.render(&u.expr)
            ));
        }
        for inj in &self.injections {
            out.push_str("  foreach s in sources do\n");
            out.push_str("    for i = 1 to np do\n");
            out.push_str("      xs, ys, zs = map(s, i);\n");
            out.push_str(&format!(
                "      {}[t+1, xs, ys, zs] += f(src(t, s));\n",
                self.ctx.decl(inj.field).name
            ));
        }
        for it in &self.interpolations {
            out.push_str("  foreach r in receivers do\n");
            out.push_str(&format!(
                "    rec[t, r] = interpolate({}, r);\n",
                self.ctx.decl(it.field).name
            ));
        }
        out
    }

    fn render(&self, e: &LowExpr) -> String {
        match e {
            LowExpr::Const(v) => format!("{v}"),
            LowExpr::Param(p) => format!("{}[x, y, z]", self.ctx.decl(*p).name),
            LowExpr::Access { field, t_off, offs } => format!(
                "{}[t{:+}, x{:+}, y{:+}, z{:+}]",
                self.ctx.decl(*field).name,
                t_off,
                offs[0],
                offs[1],
                offs[2]
            ),
            LowExpr::Stencil { field, taps, .. } => format!(
                "stencil<{}pt>({})",
                taps.len(),
                self.ctx.decl(*field).name
            ),
            LowExpr::Add(a, b) => format!("({} + {})", self.render(a), self.render(b)),
            LowExpr::Sub(a, b) => format!("({} - {})", self.render(a), self.render(b)),
            LowExpr::Mul(a, b) => format!("({} * {})", self.render(a), self.render(b)),
            LowExpr::Div(a, b) => format!("({} / {})", self.render(a), self.render(b)),
            LowExpr::Neg(a) => format!("(-{})", self.render(a)),
        }
    }
}

/// Evaluate a lowered expression at one grid point (free function so the
/// wave-front driver can split borrows between read and write state).
fn eval_expr(
    e: &LowExpr,
    buffers: &[Option<TimeBuffer>],
    params: &[Option<Array3<f32>>],
    base: usize,
    x: usize,
    y: usize,
    z: usize,
) -> f32 {
    match e {
        LowExpr::Const(v) => *v,
        LowExpr::Param(p) => params[p.0]
            .as_ref()
            .expect("unbound parameter")
            .get(x, y, z),
        LowExpr::Access { field, t_off, offs } => {
            read_off(buffers, *field, base, *t_off, x, y, z, *offs)
        }
        LowExpr::Stencil { field, t_off, taps } => {
            let mut acc = 0.0f32;
            for &(o, w) in taps {
                acc += w * read_off(buffers, *field, base, *t_off, x, y, z, o);
            }
            acc
        }
        LowExpr::Add(a, b) => {
            eval_expr(a, buffers, params, base, x, y, z)
                + eval_expr(b, buffers, params, base, x, y, z)
        }
        LowExpr::Sub(a, b) => {
            eval_expr(a, buffers, params, base, x, y, z)
                - eval_expr(b, buffers, params, base, x, y, z)
        }
        LowExpr::Mul(a, b) => {
            eval_expr(a, buffers, params, base, x, y, z)
                * eval_expr(b, buffers, params, base, x, y, z)
        }
        LowExpr::Div(a, b) => {
            eval_expr(a, buffers, params, base, x, y, z)
                / eval_expr(b, buffers, params, base, x, y, z)
        }
        LowExpr::Neg(a) => -eval_expr(a, buffers, params, base, x, y, z),
    }
}

/// Raw (halo-padded) wavefield read; offsets may reach into the zero halo.
#[inline]
#[allow(clippy::too_many_arguments)]
fn read_off(
    buffers: &[Option<TimeBuffer>],
    field: FieldId,
    base: usize,
    t_off: i32,
    x: usize,
    y: usize,
    z: usize,
    offs: [i32; 3],
) -> f32 {
    let buf = buffers[field.0].as_ref().expect("not a time function");
    let t = (base as i64 + t_off as i64) as usize;
    let lvl = buf.level(t);
    let raw = lvl.raw();
    let h = lvl.halo() as i64;
    let [_, ny, nz] = raw.dims();
    let ix = x as i64 + h + offs[0] as i64;
    let iy = y as i64 + h + offs[1] as i64;
    let iz = z as i64 + h + offs[2] as i64;
    raw.as_slice()[((ix * ny as i64 + iy) * nz as i64 + iz) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use tempest_grid::{Domain, Shape};

    /// Build the paper's §III-A acoustic operator at a tiny size.
    fn acoustic_op(n: usize, nt: usize, so: usize) -> (DslOperator, FieldHandle, usize) {
        let domain = Domain::uniform(Shape::cube(n), 10.0);
        let mut ctx = Context::new(domain);
        ctx.set_dt(0.001);
        let u = ctx.time_function("u", 2, so);
        let m = ctx.parameter("m");
        let eq = m.x() * u.dt2() - u.laplace();
        let upd = solve(&ctx, &eq, u).unwrap();
        let m_id = m.id();
        let mut op = DslOperator::new(ctx, vec![upd], nt);
        let s = Shape::cube(n);
        op.set_parameter(m_id, Array3::full(s.nx, s.ny, s.nz, 1.0 / (2000.0f32 * 2000.0)));
        let dom = Domain::uniform(s, 10.0);
        let src = SparsePoints::single_center(&dom, 0.4);
        let wl = tempest_sparse::ricker(30.0, 0.001, nt);
        op.add_injection(u, &src, &wl, InjectScale::ConstOverParam(1e-6, m_id));
        let rec = SparsePoints::receiver_line(&dom, 3, 0.3);
        let ridx = op.add_interpolation(u, &rec);
        (op, u, ridx)
    }

    #[test]
    fn runs_and_excites_wavefield() {
        let (mut op, u, ridx) = acoustic_op(12, 8, 4);
        op.run();
        let f = op.final_field(u.id());
        assert!(f.max_abs() > 0.0, "source must excite the field");
        assert!(f.max_abs().is_finite());
        let tr = op.trace(ridx);
        assert_eq!(tr.dims(), [8, 3]);
    }

    #[test]
    fn pseudocode_has_listing1_structure() {
        let (op, _, _) = acoustic_op(8, 4, 4);
        let pc = op.pseudocode();
        assert!(pc.contains("for t = 1 to nt do"));
        assert!(pc.contains("for z = 1 to nz do"));
        assert!(pc.contains("u[t+1, x, y, z]"));
        assert!(pc.contains("foreach s in sources do"));
        assert!(pc.contains("foreach r in receivers do"));
    }

    #[test]
    fn laplacian_of_quadratic_via_dsl() {
        // Pure spatial check: u[t] = x² ⇒ one undamped step of
        // u⁺ = 2u − u⁻ + dt²/m·Δu changes the centre by dt²/m · 2/h²·h²·…
        // Instead verify directly: eval of the lowered laplace on a
        // quadratic equals the analytic 2·(1/h²-units) value.
        let domain = Domain::uniform(Shape::cube(9), 1.0);
        let mut ctx = Context::new(domain);
        ctx.set_dt(1.0);
        let u = ctx.time_function("u", 2, 4);
        let upd = Update::explicit(u.id(), u.laplace());
        let mut op = DslOperator::new(ctx, vec![upd], 1);
        // Fill level base=1 (t_off 0 for k=0, time_order 2) with x²+2y²+3z².
        {
            let buf = op.buffers[u.id().0].as_mut().unwrap();
            let lvl = buf.level_mut(1);
            for (x, y, z) in Shape::cube(9).iter() {
                lvl.set(
                    x,
                    y,
                    z,
                    (x * x) as f32 + 2.0 * (y * y) as f32 + 3.0 * (z * z) as f32,
                );
            }
        }
        let v = op.eval(&op.updates[0].expr, 1, 4, 4, 4);
        assert!((v - 12.0).abs() < 1e-3, "Δ(x²+2y²+3z²) = 12, got {v}");
    }

    #[test]
    fn injection_scale_const_over_param() {
        let (mut op, u, _) = acoustic_op(12, 2, 4);
        op.run();
        // After the first step the wavefield support is exactly the 8-point
        // injection footprint.
        let f = op.field_copy(u.id(), 2);
        assert!(f.count_nonzero() >= 1);
        assert!(f.count_nonzero() <= 8);
    }

    #[test]
    fn automated_wavefront_matches_classic_run() {
        // The paper's future work, validated: temporal blocking derived
        // entirely from the symbolic spec reproduces the classic schedule
        // bitwise (single source).
        let (mut op, u, ridx) = acoustic_op(14, 10, 4);
        op.run();
        let classic_field = op.final_field(u.id());
        let classic_trace = op.trace(ridx).clone();
        assert!(classic_field.max_abs() > 0.0);

        for (tx, ty, tt) in [(6usize, 6usize, 3usize), (14, 14, 10), (4, 8, 2)] {
            op.run_wavefront(tx, ty, tt);
            let f = op.final_field(u.id());
            assert!(
                classic_field.bit_equal(&f),
                "tile ({tx},{ty},{tt}): max diff {}",
                classic_field.max_abs_diff(&f)
            );
            let tr = op.trace(ridx);
            let scale = classic_trace
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()))
                .max(1e-30);
            for i in 0..tr.len() {
                assert!(
                    (tr.as_slice()[i] - classic_trace.as_slice()[i]).abs() <= 1e-4 * scale,
                    "trace idx {i}"
                );
            }
        }
    }

    #[test]
    fn reset_state_makes_runs_reproducible() {
        let (mut op, u, _) = acoustic_op(10, 6, 4);
        op.run();
        let f1 = op.final_field(u.id());
        op.run();
        let f2 = op.final_field(u.id());
        assert!(f1.bit_equal(&f2));
    }

    #[test]
    #[should_panic(expected = "unbound parameter")]
    fn unbound_parameter_caught() {
        let domain = Domain::uniform(Shape::cube(8), 10.0);
        let mut ctx = Context::new(domain);
        ctx.set_dt(0.001);
        let u = ctx.time_function("u", 2, 4);
        let m = ctx.parameter("m");
        let eq = m.x() * u.dt2() - u.laplace();
        let upd = solve(&ctx, &eq, u).unwrap();
        let mut op = DslOperator::new(ctx, vec![upd], 2);
        op.run();
    }

    #[test]
    #[should_panic(expected = "not a parameter")]
    fn set_parameter_checks_kind() {
        let (mut op, u, _) = acoustic_op(8, 2, 4);
        op.set_parameter(u.id(), Array3::zeros(8, 8, 8));
    }
}
