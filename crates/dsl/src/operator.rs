//! The DSL operator: lowered updates as a [`WaveSolver`].
//!
//! A symbolic specification lowers to one per-point expression per updated
//! field; the operator stores the fields as `tempest-core` level rings, the
//! off-grid sources and receivers as its bundles, and implements the
//! propagator interface — each update is one virtual step, the skew is the
//! lowered kernels' maximum stencil radius. The schedule is chosen *below*
//! the specification (the paper's "full automation and integration in the
//! Devito DSL", §V-B): `run(&Execution)` and `run_incremental` are the
//! trait's, so a DSL operator runs space-blocked or wave-front blocked, on
//! the pool, against the tile cache, like the hand-written propagators it is
//! the reference semantics for. It also renders the paper's Listing-1 style
//! loop nest.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use crate::field::{Context, FieldHandle, FieldId, FieldKind};
use crate::lower::{lower, LowExpr};
use crate::solve::Update;
use tempest_core::operator::{digest_values, KernelPath, SparseMode};
use tempest_core::shared::LevelRing;
use tempest_core::sources::{classic_step, FusedPencil, ReceiverBundle, SourceBundle};
use tempest_core::trace::TraceBuffer;
use tempest_core::WaveSolver;
use tempest_grid::{Array3, Range3, Shape};
use tempest_obs as obs;
use tempest_sparse::wavelet::wavelet_matrix;
use tempest_sparse::SparsePoints;

/// How an injected amplitude is scaled at each affected grid point.
#[derive(Debug, Clone, Copy)]
pub enum InjectScale {
    /// Multiply by a constant (e.g. `dt` for the elastic source).
    Const(f32),
    /// Multiply by `c / param(x,y,z)` (e.g. `dt²/m` for acoustic — Devito's
    /// `src * dt**2 / m`).
    ConstOverParam(f32, FieldId),
}

impl InjectScale {
    fn at(self, params: &[Option<Array3<f32>>], x: usize, y: usize, z: usize) -> f32 {
        match self {
            InjectScale::Const(v) => v,
            InjectScale::ConstOverParam(v, p) => {
                v / params[p.0]
                    .as_ref()
                    .expect("unbound scale parameter")
                    .get(x, y, z)
            }
        }
    }
}

#[derive(Debug)]
struct LoweredUpdate {
    field: FieldId,
    expr: LowExpr,
    time_order: usize,
}

/// The receiver set: the field it measures and where the data lands.
struct Interpolation {
    field: FieldId,
    bundle: ReceiverBundle,
    trace: TraceBuffer,
}

/// An executable DSL operator (Devito `Operator`).
pub struct DslOperator {
    ctx: Context,
    updates: Vec<LoweredUpdate>,
    /// One ring per updated field, `time_order + 1` levels deep and haloed
    /// by the operator's radius, so all share one geometry.
    rings: Vec<Option<LevelRing>>,
    params: Vec<Option<Array3<f32>>>,
    /// Maximum stencil radius over the lowered updates.
    radius: usize,
    src: Option<SourceBundle>,
    /// The fields the sources inject into, each at its own scale.
    targets: Vec<(FieldId, InjectScale)>,
    rec: Option<Interpolation>,
    nt: usize,
}

impl DslOperator {
    /// Lower and assemble an operator from solved updates.
    ///
    /// `nt` is the number of timesteps a run executes (wavelet matrices and
    /// traces are sized to it).
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
        let radius = lowered.iter().map(|u| u.expr.radius()).max().unwrap();
        let shape = ctx.domain().shape();
        let n_fields = ctx.decls().len();
        let mut rings: Vec<Option<LevelRing>> = (0..n_fields).map(|_| None).collect();
        for u in &lowered {
            rings[u.field.0] = Some(LevelRing::new(shape, radius, u.time_order + 1));
        }
        let params = (0..n_fields).map(|_| None).collect();
        DslOperator {
            ctx,
            updates: lowered,
            rings,
            params,
            radius,
            src: None,
            targets: Vec::new(),
            rec: None,
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

    /// Attach the off-grid source set, every point firing `wavelet`, and
    /// inject it into each target field at that target's scale (Devito
    /// `src.inject(field.forward, expr=...)`, once per target).
    pub fn set_injection(
        &mut self,
        points: &SparsePoints,
        wavelet: &[f32],
        targets: &[(FieldHandle, InjectScale)],
    ) {
        assert!(wavelet.len() >= self.nt, "wavelet shorter than nt");
        let wavelets = wavelet_matrix(&wavelet[..self.nt], points.len());
        self.src = Some(SourceBundle::new(
            self.ctx.domain(),
            points.clone(),
            wavelets,
        ));
        self.targets = targets.iter().map(|&(f, s)| (f.id(), s)).collect();
        // An unknown target fails here, not later on a pool worker.
        for &(field, _) in &self.targets {
            self.update_of(field);
        }
    }

    /// Attach the off-grid receiver set measuring `field`
    /// (Devito `rec.interpolate(field)`).
    pub fn set_interpolation(&mut self, field: FieldHandle, points: &SparsePoints) {
        self.update_of(field.id());
        self.rec = Some(Interpolation {
            field: field.id(),
            bundle: ReceiverBundle::new(self.ctx.domain(), points.clone()),
            trace: TraceBuffer::new(self.nt, points.len()),
        });
    }

    /// The phase and update that advance `field`. Panics for a field no
    /// update writes: nothing could be injected into or measured from it.
    fn update_of(&self, field: FieldId) -> (usize, &LoweredUpdate) {
        let phase = self.updates.iter().position(|u| u.field == field);
        let phase = phase.expect("sparse-operator target must have an update");
        (phase, &self.updates[phase])
    }

    /// The ring of `field` and the level its update of timestep `k` writes.
    fn forward(&self, field: FieldId, k: usize) -> (&LevelRing, usize) {
        let ring = self.rings[field.0].as_ref().expect("not a time function");
        (ring, k + self.update_of(field).1.time_order)
    }

    /// Interior snapshot of a field at logical step `t`.
    pub fn field_copy(&mut self, id: FieldId, t: usize) -> Array3<f32> {
        self.rings[id.0]
            .as_mut()
            .expect("not a time function")
            .interior_copy(t)
    }

    /// Snapshot of the final (forward) level of a field after a run.
    pub fn final_field_of(&mut self, id: FieldId) -> Array3<f32> {
        let level = self.forward(id, self.nt - 1).1;
        self.field_copy(id, level)
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
        for (field, _) in &self.targets {
            out.push_str("  foreach s in sources do\n");
            out.push_str("    for i = 1 to np do\n");
            out.push_str("      xs, ys, zs = map(s, i);\n");
            out.push_str(&format!(
                "      {}[t+1, xs, ys, zs] += f(src(t, s));\n",
                self.ctx.decl(*field).name
            ));
        }
        if let Some(rec) = &self.rec {
            out.push_str("  foreach r in receivers do\n");
            out.push_str(&format!(
                "    rec[t, r] = interpolate({}, r);\n",
                self.ctx.decl(rec.field).name
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
            LowExpr::Stencil { field, taps, .. } => {
                format!("stencil<{}pt>({})", taps.len(), self.ctx.decl(*field).name)
            }
            LowExpr::Add(a, b) => format!("({} + {})", self.render(a), self.render(b)),
            LowExpr::Sub(a, b) => format!("({} - {})", self.render(a), self.render(b)),
            LowExpr::Mul(a, b) => format!("({} * {})", self.render(a), self.render(b)),
            LowExpr::Div(a, b) => format!("({} / {})", self.render(a), self.render(b)),
            LowExpr::Neg(a) => format!("(-{})", self.render(a)),
        }
    }
}

impl WaveSolver for DslOperator {
    fn name(&self) -> &'static str {
        "dsl"
    }

    fn shape(&self) -> Shape {
        self.ctx.domain().shape()
    }

    fn num_timesteps(&self) -> usize {
        self.nt
    }

    fn space_order(&self) -> usize {
        let orders = self
            .updates
            .iter()
            .map(|u| self.ctx.decl(u.field).space_order);
        orders.max().unwrap()
    }

    fn radius(&self) -> usize {
        self.radius
    }

    /// Each update is its own virtual step, so a system whose later updates
    /// read the fresh values of earlier ones gets the widened wave-front
    /// angle of Fig. 8b with nothing said about it.
    fn phases(&self) -> usize {
        self.updates.len()
    }

    fn reset(&mut self) {
        for ring in self.rings.iter_mut().flatten() {
            ring.clear();
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.trace.clear();
        }
    }

    /// Evaluate update `vt % phases` of timestep `vt / phases` over
    /// `region`, pencil by pencil, then the fused sparse operators of the
    /// updated field. The evaluator is per point on every backend.
    fn step_region(&self, vt: usize, region: &Range3, mode: SparseMode, _kernel: KernelPath) {
        let _sp = obs::span(obs::SpanKind::Stencil, obs::SpanArgs::step(vt));
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        let (k, u) = (
            vt / self.updates.len(),
            &self.updates[vt % self.updates.len()],
        );
        let (ring, write) = self.forward(u.field, k);
        // SAFETY: the schedule guarantees that writes of this virtual step
        // are disjoint per region and that every level an update may read —
        // any but the one it writes, which is left out — holds settled
        // values wherever the region's stencils reach (legality is
        // machine-checked in tempest-tiling and cross-validated bitwise).
        let levels: Vec<Vec<&[f32]>> = unsafe {
            let per_field = self.rings.iter().enumerate();
            let slots = per_field.map(|(f, ring)| {
                let Some(r) = ring else { return Vec::new() };
                let written = |slot| f == u.field.0 && slot == r.slot(write);
                let level = |slot| {
                    if written(slot) {
                        &[][..]
                    } else {
                        r.level(slot)
                    }
                };
                (0..r.num_levels()).map(level).collect()
            });
            slots.collect()
        };
        let reads = Reads {
            levels,
            geometry: ring,
            params: &self.params,
            base: write - 1,
        };
        let src = self.sources();
        let receivers = self.rec.as_ref().filter(|rec| rec.field == u.field);
        let receivers = receivers.map(|rec| (&rec.bundle, &rec.trace));
        let zs = region.z0..region.z1;
        let mut row = vec![0.0f32; zs.len()];
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                for (v, z) in row.iter_mut().zip(zs.clone()) {
                    *v = reads.eval(&u.expr, x, y, z);
                }
                // SAFETY: the same contract gives this call exclusive
                // ownership of the region's pencils at the level written.
                let un = unsafe { ring.pencil_mut(write, x, y) };
                un[zs.clone()].copy_from_slice(&row);
                if let Some(mut sparse) = FusedPencil::begin(mode, k, x, y, zs.clone()) {
                    for (_, scale) in self.targets.iter().filter(|t| t.0 == u.field) {
                        sparse.inject(src, |z, amp| un[z] += scale.at(&self.params, x, y, z) * amp);
                    }
                    sparse.gather(receivers, &un[zs.clone()]);
                }
            }
        }
    }

    fn classic_after_step(&self, k: usize) {
        let observed = self.rec.as_ref().map(|rec| self.forward(rec.field, k));
        let forward = |&(field, scale): &(FieldId, InjectScale)| (self.forward(field, k), scale);
        let targets: Vec<_> = self.targets.iter().map(forward).collect();
        // SAFETY: runs on one thread between sweeps, so nothing else touches
        // the freshly computed levels of timestep `k`.
        unsafe {
            classic_step(
                k,
                self.sources(),
                self.receivers().zip(self.trace_buffer()),
                |c, amp| {
                    for &((ring, level), scale) in &targets {
                        ring.pencil_mut(level, c[0], c[1])[c[2]] +=
                            scale.at(&self.params, c[0], c[1], c[2]) * amp;
                    }
                },
                |c| {
                    let (ring, level) = observed.expect("read only with receivers attached");
                    ring.level(level)[ring.idx(c[0], c[1], c[2])]
                },
            );
        }
    }

    fn written(&self, vt: usize) -> Vec<(&LevelRing, usize)> {
        let u = &self.updates[vt % self.updates.len()];
        vec![self.forward(u.field, vt / self.updates.len())]
    }

    fn gathered(&self, vt: usize) -> Option<usize> {
        let rec = self.rec.as_ref()?;
        (self.update_of(rec.field).0 == vt % self.updates.len()).then_some(0)
    }

    /// An update may read any level of any ring but the slot it writes: the
    /// oldest a ring of `depth = time_order + 1` levels holds was written
    /// at most `depth · phases − 1` virtual steps back.
    fn read_distance(&self) -> usize {
        let depth = self.rings.iter().flatten().map(LevelRing::num_levels).max();
        depth.expect("an operator updates at least one field") * self.phases() - 1
    }

    fn coefficients(&self) -> Vec<&[f32]> {
        self.params.iter().flatten().map(Array3::as_slice).collect()
    }

    /// The parameter volumes say nothing of the equations they enter: the
    /// lowered updates and the injection scales are part of the digest.
    fn coefficient_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u64(digest_values(&self.coefficients()));
        h.write(format!("{:?}{:?}", self.updates, self.targets).as_bytes());
        h.finish()
    }

    fn sources(&self) -> &SourceBundle {
        self.src
            .as_ref()
            .expect("attach sources with set_injection before running")
    }

    fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_ref().map(|rec| &rec.bundle)
    }

    fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.rec.as_ref().map(|rec| &rec.trace)
    }

    /// The measured field, or the first updated one without receivers.
    fn final_field(&mut self) -> Array3<f32> {
        let field = self
            .rec
            .as_ref()
            .map_or(self.updates[0].field, |rec| rec.field);
        self.final_field_of(field)
    }

    fn flops_per_point(&self) -> f64 {
        self.updates.iter().map(|u| u.expr.flops()).sum::<usize>() as f64
    }
}

/// What the evaluations of one step call read: per field the settled ring
/// levels by slot, the rings' shared geometry, the parameter volumes, and
/// the logical level a zero time offset refers to.
struct Reads<'a> {
    levels: Vec<Vec<&'a [f32]>>,
    geometry: &'a LevelRing,
    params: &'a [Option<Array3<f32>>],
    base: usize,
}

impl Reads<'_> {
    /// Evaluate a lowered expression at one grid point.
    fn eval(&self, e: &LowExpr, x: usize, y: usize, z: usize) -> f32 {
        match e {
            LowExpr::Const(v) => *v,
            LowExpr::Param(p) => self.params[p.0]
                .as_ref()
                .expect("unbound parameter")
                .get(x, y, z),
            LowExpr::Access { field, t_off, offs } => self.tap(*field, *t_off, x, y, z, *offs),
            LowExpr::Stencil { field, t_off, taps } => {
                let mut acc = 0.0f32;
                for &(o, w) in taps {
                    acc += w * self.tap(*field, *t_off, x, y, z, o);
                }
                acc
            }
            LowExpr::Add(a, b) => self.eval(a, x, y, z) + self.eval(b, x, y, z),
            LowExpr::Sub(a, b) => self.eval(a, x, y, z) - self.eval(b, x, y, z),
            LowExpr::Mul(a, b) => self.eval(a, x, y, z) * self.eval(b, x, y, z),
            LowExpr::Div(a, b) => self.eval(a, x, y, z) / self.eval(b, x, y, z),
            LowExpr::Neg(a) => -self.eval(a, x, y, z),
        }
    }

    /// Wavefield read; offsets may reach into the zero halo.
    #[inline]
    fn tap(&self, field: FieldId, t_off: i32, x: usize, y: usize, z: usize, offs: [i32; 3]) -> f32 {
        let g = self.geometry;
        let slots = &self.levels[field.0];
        let t = (self.base as i64 + t_off as i64) as usize;
        let i = g.idx(x, y, z) as i64
            + offs[0] as i64 * g.sx() as i64
            + offs[1] as i64 * g.sy() as i64
            + offs[2] as i64;
        slots[t % slots.len()][i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use tempest_core::Execution;
    use tempest_grid::{Domain, Shape};

    /// Build the paper's §III-A acoustic operator at a tiny size.
    fn acoustic_op(n: usize, nt: usize, so: usize) -> (DslOperator, FieldHandle) {
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
        op.set_parameter(
            m_id,
            Array3::full(s.nx, s.ny, s.nz, 1.0 / (2000.0f32 * 2000.0)),
        );
        let src = SparsePoints::single_center(&domain, 0.4);
        let wl = tempest_sparse::ricker(30.0, 0.001, nt);
        op.set_injection(&src, &wl, &[(u, InjectScale::ConstOverParam(1e-6, m_id))]);
        op.set_interpolation(u, &SparsePoints::receiver_line(&domain, 3, 0.3));
        (op, u)
    }

    #[test]
    fn runs_and_excites_wavefield() {
        let (mut op, u) = acoustic_op(12, 8, 4);
        op.run(&Execution::baseline().sequential());
        let f = op.final_field_of(u.id());
        assert!(f.max_abs() > 0.0, "source must excite the field");
        assert!(f.max_abs().is_finite());
        assert!(
            f.bit_equal(&op.final_field()),
            "the measured field is the representative one"
        );
        assert_eq!(op.trace().unwrap().dims(), [8, 3]);
    }

    #[test]
    fn pseudocode_has_listing1_structure() {
        let (op, _) = acoustic_op(8, 4, 4);
        let pc = op.pseudocode();
        assert!(pc.contains("for t = 1 to nt do"));
        assert!(pc.contains("for z = 1 to nz do"));
        assert!(pc.contains("u[t+1, x, y, z]"));
        assert!(pc.contains("foreach s in sources do"));
        assert!(pc.contains("foreach r in receivers do"));
    }

    #[test]
    fn laplacian_of_quadratic_via_dsl() {
        // Pure spatial check: the lowered laplace evaluated on the quadratic
        // x²+2y²+3z² equals the analytic value 12 (unit spacing).
        let shape = Shape::cube(9);
        let mut ctx = Context::new(Domain::uniform(shape, 1.0));
        ctx.set_dt(1.0);
        let u = ctx.time_function("u", 2, 4);
        let op = DslOperator::new(ctx, vec![Update::explicit(u.id(), u.laplace())], 1);
        let ring = op.rings[u.id().0].as_ref().unwrap();
        let mut level = vec![0.0f32; shape.padded(op.radius).len()];
        for (x, y, z) in shape.iter() {
            level[ring.idx(x, y, z)] = (x * x) as f32 + 2.0 * (y * y) as f32 + 3.0 * (z * z) as f32;
        }
        let reads = Reads {
            levels: vec![vec![&level[..]]],
            geometry: ring,
            params: &op.params,
            base: 0,
        };
        let v = reads.eval(&op.updates[0].expr, 4, 4, 4);
        assert!((v - 12.0).abs() < 1e-3, "Δ(x²+2y²+3z²) = 12, got {v}");
    }

    #[test]
    fn injection_scale_const_over_param() {
        let (mut op, u) = acoustic_op(12, 2, 4);
        op.run(&Execution::baseline().sequential());
        // After the first step the wavefield support is exactly the 8-point
        // injection footprint.
        let f = op.field_copy(u.id(), 2);
        assert!(f.count_nonzero() >= 1);
        assert!(f.count_nonzero() <= 8);
    }

    #[test]
    fn digest_tells_equations_and_scales_apart() {
        let (a, u) = acoustic_op(8, 2, 4);
        assert_eq!(
            a.coefficient_digest(),
            acoustic_op(8, 2, 4).0.coefficient_digest()
        );
        assert_ne!(
            a.coefficient_digest(),
            acoustic_op(8, 2, 8).0.coefficient_digest()
        );
        let (mut b, _) = acoustic_op(8, 2, 4);
        let src = SparsePoints::single_center(a.ctx.domain(), 0.4);
        b.set_injection(&src, &[1.0, 0.5], &[(u, InjectScale::Const(1e-6))]);
        assert_ne!(a.coefficient_digest(), b.coefficient_digest());
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
        let src = SparsePoints::single_center(&domain, 0.4);
        op.set_injection(&src, &[1.0, 0.5], &[(u, InjectScale::Const(1.0))]);
        op.run(&Execution::baseline().sequential());
    }

    #[test]
    #[should_panic(expected = "not a parameter")]
    fn set_parameter_checks_kind() {
        let (mut op, u) = acoustic_op(8, 2, 4);
        op.set_parameter(u.id(), Array3::zeros(8, 8, 8));
    }
}
