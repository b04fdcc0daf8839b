//! One run of one workload: set up, warm up, operate, check, report.
//!
//! `--trace 0` measures the end-to-end metrics and does nothing else.
//! `--trace 1` records spans around every call into the crates and adds the
//! differential probes that split an operation's time by layer; it reports
//! the per-layer metrics. Both go through the same `Runner`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::api::{self, Output, Problem, Variant};
use crate::json::{self, Value};
use crate::machine;
use crate::metrics::Metrics;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Spec, Tile};
use crate::{host, write_out};

/// Set-up is repeated, from fresh state each time, at least `MIN_SETUPS`
/// times and then for as long as all of them together took under
/// `SETUP_BUDGET_S`, up to `MAX_SETUPS`: a set-up of milliseconds needs more
/// samples than one of seconds. `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;
/// Timed operations of an untraced run, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// A differential probe of the traced run is the median of two operations,
/// or a single one if the first took longer than this.
const PROBE_BUDGET_S: f64 = 1.5;
/// Receiver traces may differ from the reference by this share of its peak:
/// parallel gathers accumulate in a run-dependent order.
const TRACE_TOLERANCE: f64 = 1e-5;

pub struct RunArgs {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Median, quartiles, count and values behind each timing.
    pub samples: Value,
}

fn summary(values: &[f64]) -> Value {
    let (q1, q2, q3) = quartiles(values);
    Value::obj(vec![
        ("median", Value::Num(q2)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("n", Value::Num(values.len() as f64)),
        (
            "values",
            Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
        ),
    ])
}

/// How an output compares with the reference's.
struct Agreement {
    field_equal: bool,
    traces_bitwise: bool,
    trace_maxrel: f64,
}

fn compare(out: &Output, reference: &Output) -> Agreement {
    let same_len = out.traces.len() == reference.traces.len();
    let peak = reference.traces.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let maxdiff = out
        .traces
        .iter()
        .zip(&reference.traces)
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    Agreement {
        field_equal: out.field_hash == reference.field_hash,
        traces_bitwise: same_len
            && out
                .traces
                .iter()
                .zip(&reference.traces)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        trace_maxrel: if !same_len || !maxdiff.is_finite() {
            f64::INFINITY
        } else if peak > 0.0 {
            f64::from(maxdiff) / f64::from(peak)
        } else {
            f64::from(maxdiff)
        },
    }
}

/// An operation's output, waiting for the reference.
struct Pending {
    /// Which survey description it ran.
    which: usize,
    /// Traces must match bit for bit (same schedule as the reference and
    /// single-threaded shots), not just within `TRACE_TOLERANCE`.
    exact: bool,
    production: bool,
    out: Output,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one operation inside a span; a panic or a `ShotError` is `Err`.
fn timed_run(
    tr: &mut Tracer,
    name: &str,
    problem: &mut Problem,
    which: usize,
    v: &Variant,
) -> Result<f64, String> {
    let (outcome, secs) = tr.time(name, |_| {
        catch_unwind(AssertUnwindSafe(|| problem.run(which, v)))
    });
    match outcome {
        Ok(Ok(())) => Ok(secs),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(panic_text(payload)),
    }
}

/// Issues operations on one built problem and accounts for every one.
struct Runner<'a> {
    spec: &'a Spec,
    problem: Problem,
    tr: &'a mut Tracer,
    /// Cached operations issued: a cached rerun resubmits its two survey
    /// descriptions in turn, starting with 0 (set-up filled the cache with 1).
    turn: usize,
    attempted: usize,
    failed: usize,
    pending: Vec<Pending>,
    /// Seconds of the timed production operations, by whether their span
    /// was recorded.
    recorded: Vec<f64>,
    unrecorded: Vec<f64>,
}

impl<'a> Runner<'a> {
    fn new(spec: &'a Spec, problem: Problem, tr: &'a mut Tracer) -> Self {
        Runner {
            spec,
            problem,
            tr,
            turn: 0,
            attempted: 0,
            failed: 0,
            pending: Vec::new(),
            recorded: Vec::new(),
            unrecorded: Vec::new(),
        }
    }

    /// One operation under span `name`. `Some(seconds)` when it completed;
    /// its output is kept for the check. A failure is counted and logged.
    fn op(&mut self, name: &str, v: &Variant) -> Option<f64> {
        let which = if v.cache { self.turn % 2 } else { 0 };
        self.turn += usize::from(v.cache);
        self.attempted += 1;
        match timed_run(self.tr, name, &mut self.problem, which, v) {
            Ok(secs) => {
                self.pending.push(Pending {
                    which,
                    exact: self.spec.is_survey() && v.sched == Variant::reference(self.spec).sched,
                    production: *v == Variant::production(self.spec),
                    out: self.problem.output(),
                });
                Some(secs)
            }
            Err(e) => {
                eprintln!("{}: operation `{name}` failed: {e}", self.spec.name);
                self.failed += 1;
                None
            }
        }
    }

    /// Like `op`, for a run that cannot go on without the timing.
    fn must(&mut self, name: &str, v: &Variant) -> Result<f64, String> {
        self.op(name, v)
            .ok_or_else(|| format!("operation `{name}` failed"))
    }

    /// One timed production operation. A traced run records the span of
    /// every other one, so that the two halves differ in nothing else: their
    /// difference is what tracing costs.
    fn production(&mut self) -> Option<f64> {
        let quiet = self.tr.recording() && self.recorded.len() > self.unrecorded.len();
        if quiet {
            self.tr.set_recording(false);
        }
        let secs = self.op("op", &Variant::production(self.spec));
        if quiet {
            self.tr.set_recording(true);
        }
        let samples = if self.tr.recording() && !quiet {
            &mut self.recorded
        } else {
            &mut self.unrecorded
        };
        samples.extend(secs);
        secs
    }

    fn production_times(&self) -> Vec<f64> {
        [&self.recorded[..], &self.unrecorded[..]].concat()
    }

    /// Solve the reference once per survey description used and compare
    /// every pending output with it; a mismatch fails that operation.
    /// Returns whether every production field (or gather) matched bit for
    /// bit, and the largest relative trace error among production outputs.
    fn check(&mut self) -> (bool, f64) {
        let reference = Variant::reference(self.spec);
        let pending = std::mem::take(&mut self.pending);
        let (mut all_bitwise, mut worst) = (true, 0.0f64);
        for which in [0, 1] {
            let mine: Vec<&Pending> = pending.iter().filter(|p| p.which == which).collect();
            if mine.is_empty() {
                continue;
            }
            let expected = timed_run(self.tr, "reference", &mut self.problem, which, &reference)
                .map(|_| self.problem.output());
            for p in mine {
                let ok = match &expected {
                    Ok(expected) => {
                        let a = compare(&p.out, expected);
                        if p.production {
                            all_bitwise &= a.field_equal && (!p.exact || a.traces_bitwise);
                            worst = worst.max(a.trace_maxrel);
                        }
                        let ok = a.field_equal
                            && if p.exact {
                                a.traces_bitwise
                            } else {
                                a.trace_maxrel <= TRACE_TOLERANCE
                            };
                        if !ok {
                            eprintln!(
                                "{}: output differs from the reference: field equal {}, traces \
                                 bitwise {} (required: {}), max relative trace error {:e}",
                                self.spec.name,
                                a.field_equal,
                                a.traces_bitwise,
                                p.exact,
                                a.trace_maxrel
                            );
                        }
                        ok
                    }
                    Err(e) => {
                        eprintln!("{}: reference failed: {e}", self.spec.name);
                        false
                    }
                };
                if !ok {
                    self.failed += 1;
                    all_bitwise &= !p.production;
                }
            }
        }
        (all_bitwise, worst)
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let inp = Inputs::generate(&args.spec, args.seed);
    let mut tr = Tracer::new(args.trace);
    if !args.trace {
        return run_untraced(args, &inp, &mut tr);
    }
    let (result, _) = tr.time("workload", |tr| run_traced(args, &inp, tr));
    let file = Value::obj(vec![
        ("host", host::fingerprint(args.seed)),
        ("spans", tr.to_json(&args.spec.name)),
    ]);
    write_out(&format!("trace-{}.json", args.spec.name), &file)?;
    result
}

fn run_untraced(args: &RunArgs, inp: &Inputs, tr: &mut Tracer) -> Result<RunResult, String> {
    let spec = &args.spec;
    let mut setups = Vec::new();
    let mut problem = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous state first: every set-up starts from nothing.
        drop(problem.take());
        let (built, secs) = tr.time("setup", |tr| Problem::build(spec, inp, true, tr));
        problem = Some(built?);
        setups.push(secs);
    }
    let mut r = Runner::new(spec, problem.expect("MIN_SETUPS > 0"), tr);
    r.op("warmup", &Variant::production(spec));
    let started = Instant::now();
    while (r.unrecorded.len() < MIN_OPS || started.elapsed().as_secs_f64() < args.seconds)
        && r.failed < MIN_OPS
    {
        r.production();
    }
    let solves = r.production_times();
    if solves.is_empty() {
        return Err("no operation completed".to_string());
    }
    let measured_s = started.elapsed().as_secs_f64();
    let checking = Instant::now();
    r.check();
    eprintln!(
        "{}: {} set-ups {:.1} s, {} operations {:.1} s (solving {:.1} s), check {:.1} s",
        spec.name,
        setups.len(),
        setups.iter().sum::<f64>(),
        solves.len(),
        measured_s,
        solves.iter().sum::<f64>(),
        checking.elapsed().as_secs_f64()
    );

    let mut metrics = Metrics::default();
    metrics.set("solve_s", median(&solves));
    metrics.set("setup_s", median(&setups));
    metrics.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("cannot read VmHWM")?,
    );
    Ok(RunResult {
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        samples: Value::obj(vec![
            ("solve_s", summary(&solves)),
            ("setup_s", summary(&setups)),
        ]),
    })
}

/// Time the workload on the `--features obs` build (a second executable
/// that `run.sh` builds for traced runs) with its gate off and on.
fn obs_probe(args: &RunArgs) -> Result<(f64, f64), String> {
    let bin = std::env::var("TEMPEST_BENCH_OBS_BIN").map_err(|_| "TEMPEST_BENCH_OBS_BIN unset")?;
    let mut cmd = Command::new(&bin);
    cmd.args(["--obs-probe", "--workload", &args.spec.name])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("{bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{bin}: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(text.lines().last().unwrap_or(""))?;
    let secs = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("no `{key}`"))
    };
    Ok((secs("off_s")?, secs("on_s")?))
}

/// The obs executable's side of `obs_probe`: one set-up, then the median of
/// three operations with recording off and of three with it on.
pub fn run_obs_child(spec: &Spec, seed: u64) -> Result<Value, String> {
    let inp = Inputs::generate(spec, seed);
    let mut tr = Tracer::new(false);
    let problem = Problem::build(spec, &inp, true, &mut tr)?;
    let mut r = Runner::new(spec, problem, &mut tr);
    let production = Variant::production(spec);
    let mut phase = |recording: bool| -> Result<f64, String> {
        api::set_obs_recording(recording);
        r.must("warmup", &production)?;
        let times = (0..3)
            .map(|_| r.must("op", &production))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(median(&times))
    };
    Ok(Value::obj(vec![
        ("off_s", Value::Num(phase(false)?)),
        ("on_s", Value::Num(phase(true)?)),
    ]))
}

fn pct_over(value: f64, base: f64) -> f64 {
    (value - base) / base * 100.0
}

/// The differential probes of a traced run: the same operation with one
/// setting changed, each timed between two *base* operations — the uncached
/// production operation — so that a probe is compared with what the host did
/// just then, not with what it did a minute ago. On a workload without a
/// cache the base operations are production operations.
struct Differential {
    base: Variant,
    /// The base operation that ended the previous probe and starts the next.
    last: Option<f64>,
    bases: Vec<f64>,
}

impl Differential {
    fn base_op(&mut self, r: &mut Runner) -> Result<f64, String> {
        let secs = if self.base == Variant::production(r.spec) {
            r.production().ok_or("base operation failed")?
        } else {
            r.must("tiling.uncached", &self.base)?
        };
        self.bases.push(secs);
        Ok(secs)
    }

    /// Seconds of `probe` (the median of two, or one if long), and of the
    /// base operation around it.
    fn around(
        &mut self,
        r: &mut Runner,
        mut probe: impl FnMut(&mut Runner) -> Result<f64, String>,
    ) -> Result<(f64, f64), String> {
        let before = match self.last.take() {
            Some(secs) => secs,
            None => self.base_op(r)?,
        };
        let mut secs = probe(r)?;
        if secs <= PROBE_BUDGET_S {
            secs = median(&[secs, probe(r)?]);
        }
        let after = self.base_op(r)?;
        self.last = Some(after);
        Ok((secs, (before + after) / 2.0))
    }

    fn variant(&mut self, r: &mut Runner, name: &str, v: &Variant) -> Result<(f64, f64), String> {
        self.around(r, |r| r.must(name, v))
    }
}

fn run_traced(args: &RunArgs, inp: &Inputs, tr: &mut Tracer) -> Result<RunResult, String> {
    let spec = &args.spec;
    let threads = api::threads();
    let mut m = Metrics::default();

    let (built, _) = tr.time("setup", |tr| Problem::build(spec, inp, true, tr));
    let problem = built?;
    let span_s = |tr: &Tracer, name: &str| {
        tr.spans()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
    };
    let model_build_s = span_s(tr, "grid.model_build").ok_or("no model span")?;
    let solver_span_s = span_s(tr, "core.solver_build");
    let fill_s = span_s(tr, "tiling.cache_fill");
    let filled = problem.cache_counts();

    let mut r = Runner::new(spec, problem, tr);
    let production = Variant::production(spec);
    let uncached = Variant {
        cache: false,
        ..production
    };
    r.must("warmup", &production)?;
    let started = Instant::now();
    let mut last_op_hits = 0;
    while r.recorded.len() < 2
        || r.unrecorded.len() < 2
        || started.elapsed().as_secs_f64() < args.seconds / 4.0
    {
        let before = r.problem.cache_counts();
        r.production().ok_or("production operation failed")?;
        if let (Some(b), Some(a)) = (before, r.problem.cache_counts()) {
            last_op_hits = a.hits - b.hits;
        }
    }

    let mut diff = Differential {
        base: uncached,
        last: None,
        bases: Vec::new(),
    };
    let (baseline_s, base) = diff.variant(&mut r, "tiling.baseline", &Variant::baseline())?;
    let wtb_speedup = baseline_s / base;
    let tile_t1 = Tile { t: 1, ..spec.tile };
    let (tile_t1_s, base) = diff.variant(&mut r, "tiling.tile_t1", &Variant::wavefront(tile_t1))?;
    let temporal_gain = tile_t1_s / base;
    let sequential = Variant {
        sequential: true,
        ..uncached
    };
    let (solve_1t_s, base) = diff.variant(&mut r, "par.solve_1t", &sequential)?;
    let speedup = solve_1t_s / base;
    let scalar = Variant {
        scalar: true,
        ..uncached
    };
    let (scalar_s, base) = diff.variant(&mut r, "stencil.scalar_solve", &scalar)?;
    let scalar_ratio = scalar_s / base;

    let (pick, autotune_s) = r.tr.time("tiling.autotune", |_| api::tune(spec, inp));
    eprintln!(
        "{}: tuner picked tile {}x{} t{}",
        spec.name, pick.x, pick.y, pick.t
    );
    // The tuner's pick run in full; when it is the production shape itself
    // there is nothing to compare.
    let regret = if Variant::wavefront(pick) == uncached {
        1.0
    } else {
        let (tuned_s, base) = diff.variant(&mut r, "tiling.tuned", &Variant::wavefront(pick))?;
        tuned_s / base
    };

    let fused_share = {
        let bare = Spec {
            cache_mb: 0,
            ..spec.clone()
        };
        let (built, _) = r.tr.time("sparse.no_receivers_build", |tr| {
            Problem::build(&bare, inp, false, tr)
        });
        let mut built = built?;
        // The first solve on fresh memory pays its page faults.
        timed_run(r.tr, "warmup", &mut built, 0, &uncached)?;
        let (bare_s, base) = diff.around(&mut r, |r| {
            timed_run(r.tr, "sparse.no_receivers", &mut built, 0, &uncached)
        })?;
        (base - bare_s) / base
    };

    // The production solve, and the uncached one the probes are ratios to
    // (the same thing on a workload without a cache).
    let solve_s = median(&r.production_times());
    let base_s = median(&diff.bases);
    m.set(
        "trace_overhead_pct",
        pct_over(median(&r.recorded), median(&r.unrecorded)),
    );
    m.set("tiling.baseline_s", baseline_s);
    m.set("tiling.wtb_speedup", wtb_speedup);
    m.set("tiling.tile_t1_s", tile_t1_s);
    m.set("tiling.temporal_gain", temporal_gain);
    m.set("tiling.executor_overhead", temporal_gain / wtb_speedup);
    m.set("tiling.autotune_s", autotune_s);
    m.set("tiling.autotune_regret", regret);
    m.set("par.solve_1t_s", solve_1t_s);
    m.set("par.speedup", speedup);
    m.set("par.efficiency", speedup / threads as f64);
    m.set("stencil.scalar_solve_ratio", scalar_ratio);
    m.set("sparse.fused_share", fused_share);

    // Each layer alone, outside any solve.
    let (sparse, _) = r.tr.time("sparse.probe", |_| api::sparse_probe(spec, inp));
    m.set("sparse.precompute_s", sparse.precompute_s);
    m.set("sparse.affected_points", sparse.affected_points as f64);
    m.set("sparse.overhead_mb", sparse.overhead_mb);
    m.set("sparse.classic_step_us", sparse.classic_step_us);

    let (rows, _) = r.tr.time("stencil.row_probe", |_| api::row_rates(spec));
    eprintln!(
        "{}: runtime dispatch picked the {} backend",
        spec.name, rows.backend
    );
    m.set("stencil.row_gpts", rows.dispatched_gpts);
    m.set("stencil.row_gpts_scalar", rows.scalar_gpts);
    m.set(
        "stencil.backend_speedup",
        rows.dispatched_gpts / rows.scalar_gpts,
    );
    let kernel_s = spec.point_updates() / (rows.dispatched_gpts * 1e9) / threads as f64;
    m.set("stencil.kernel_share", kernel_s / base_s);

    let (plan, _) =
        r.tr.time("tiling.plan_probe", |_| api::plan_probe(spec, inp));
    m.set("tiling.plan_build_s", plan.build_s);
    m.set("tiling.plan_nodes", plan.nodes as f64);
    m.set("tiling.plan_edges", plan.edges as f64);
    m.set("tiling.dirty_cone_s", plan.dirty_cone_s);
    m.set("tiling.dirty_nodes", plan.dirty_nodes as f64);

    let (dispatch_us, _) = r.tr.time("par.dispatch_probe", |_| api::dispatch_us());
    m.set("par.dispatch_us", dispatch_us);

    let triad_len = if args.smoke {
        1 << 22
    } else {
        machine::TRIAD_LEN
    };
    let ((peak, triad), _) = r.tr.time("machine.roofline", |_| {
        (
            machine::peak_gflops(threads),
            machine::triad_gbs(triad_len, threads),
        )
    });
    let (flops, bytes) = api::kernel_cost(spec);
    let gflops = spec.point_updates() * flops / base_s / 1e9;
    m.set("machine.peak_gflops", peak);
    m.set("machine.triad_gbs", triad);
    m.set("stencil.ai_flop_per_byte", flops / bytes);
    m.set("stencil.gflops", gflops);
    m.set(
        "stencil.roof_pct",
        100.0 * gflops / machine::roof_gflops(peak, triad, flops / bytes),
    );

    m.set("grid.model_build_s", model_build_s);
    m.set("grid.working_set_mb", spec.working_set_mb(threads));

    // The survey engine above the solves.
    let which = if production.cache { r.turn % 2 } else { 0 };
    let survey_times = match r.problem.survey() {
        Some(survey) => {
            let (build, _) = r.tr.time("survey.shot_build", |_| survey.shot_build_s());
            let (solo, _) = r.tr.time("survey.solo_shot", |_| survey.solo_s(&uncached));
            let (service, _) =
                r.tr.time("survey.service", |_| survey.service_s(which, &production));
            Some((build, solo?, service?))
        }
        None => None,
    };
    let mut shot_build_s = None;
    if let Some(((assets_s, shot_s), solo_s, service_s)) = survey_times {
        // The service ran a cached operation of its own; a direct submission
        // right after it is what it is compared with.
        r.turn += usize::from(production.cache);
        let direct_s = r.production().ok_or("production operation failed")?;
        shot_build_s = Some(assets_s + shot_s);
        m.set("survey.shots_per_s", spec.shots as f64 / solve_s);
        m.set("survey.assets_build_pct", 100.0 * assets_s / solve_s);
        m.set(
            "survey.shard_efficiency",
            spec.shots as f64 * solo_s / (threads as f64 * base_s),
        );
        m.set("survey.service_overhead_pct", pct_over(service_s, direct_s));
    } else {
        for name in [
            "survey.shots_per_s",
            "survey.assets_build_pct",
            "survey.shard_efficiency",
            "survey.service_overhead_pct",
        ] {
            m.set(name, 0.0);
        }
    }
    // Construction minus the sparse precompute inside it.
    let build_s = shot_build_s
        .or(solver_span_s)
        .ok_or("no solver build timing")?;
    m.set("core.solver_build_s", build_s - sparse.precompute_s);

    if let (Some(filled), Some(now), Some(fill_s)) = (filled, r.problem.cache_counts(), fill_s) {
        let (hits, misses) = (now.hits - filled.hits, now.misses - filled.misses);
        m.set(
            "tiling.reuse_rate",
            last_op_hits as f64 / (spec.shots * plan.nodes) as f64,
        );
        m.set("tiling.cache_mb", now.bytes as f64 / 1e6);
        m.set(
            "tiling.cache_hit_pct",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set("tiling.cache_evictions", now.evictions as f64);
        m.set("tiling.cache_fill_ratio", fill_s / base_s);
        m.set("tiling.warm_cold_ratio", solve_s / base_s);
    } else {
        for name in [
            "tiling.reuse_rate",
            "tiling.cache_mb",
            "tiling.cache_hit_pct",
            "tiling.cache_evictions",
            "tiling.cache_fill_ratio",
            "tiling.warm_cold_ratio",
        ] {
            m.set(name, 0.0);
        }
    }

    let (obs_off, obs_on) = if spec.obs_probe {
        let (probe, _) = r.tr.time("obs.probe", |_| obs_probe(args));
        let (off_s, on_s) = probe.map_err(|e| format!("obs probe: {e}"))?;
        (pct_over(off_s, solve_s), pct_over(on_s, solve_s))
    } else {
        (0.0, 0.0)
    };
    m.set("obs.off_overhead_pct", obs_off);
    m.set("obs.on_overhead_pct", obs_on);

    let (bitwise, maxrel) = r.check();
    m.set("core.field_bitwise_equal", f64::from(u8::from(bitwise)));
    m.set("core.trace_maxrel_err", maxrel);

    Ok(RunResult {
        attempted: r.attempted,
        failed: r.failed,
        metrics: m,
        samples: Value::obj(vec![("solve_s", summary(&r.production_times()))]),
    })
}
