//! Machine-readable benchmark reports and the perf-regression gate.
//!
//! [`BenchReport`] folds throughput, profile shares, and trace-derived load
//! metrics for a model × schedule × kernel matrix into one JSON document
//! (`BENCH_<host>.json`). A committed `results/baseline.json` (same format)
//! gives `tempest-report --check-baseline` something to diff against:
//! entries whose GPts/s fall more than a threshold below the baseline are
//! regressions and make the binary exit nonzero — the repo's first perf
//! gate (ROADMAP: "fast as the hardware allows" needs a guardrail, not just
//! a number).

use std::path::{Path, PathBuf};

use tempest_core::{Execution, WaveSolver};
use tempest_obs as obs;
use tempest_obs::analysis::TraceAnalysis;
use tempest_obs::json::Value;

/// One measured cell of the model × schedule × kernel matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Solver + space order, e.g. `acoustic-so4`.
    pub model: String,
    /// Sanitized schedule label, e.g. `wavefront-dflow_16x16_t8_8x8`.
    pub schedule: String,
    /// Resolved row-kernel backend: `scalar`, `portable`, or `avx2`.
    pub kernel: String,
    pub gpts_per_s: f64,
    pub elapsed_s: f64,
    /// Barrier-wait share of all timed work (0 when profiling was off).
    pub barrier_wait_share: f64,
    /// Worst per-diagonal max/mean tile span (1.0 when tracing was off or
    /// the schedule has no diagonal tiles).
    pub worst_imbalance: f64,
    /// Trace-derived critical-path estimate, milliseconds.
    pub critical_path_ms: f64,
    /// Trace events dropped by ring overflow during the kept run.
    pub dropped_events: u64,
    /// Operational intensity (FLOP/byte) under the schedule's streaming
    /// traffic model (0 when the roofline pass was skipped — absent from
    /// reports written before the roofline column existed).
    pub ai: f64,
    /// Share of the attainable roofline ceiling reached (0 when skipped).
    pub roof_pct: f64,
    /// Percentage of tile nodes restored from the incremental cache instead
    /// of recomputed (DESIGN.md §16). Only the `incremental` pseudo-row
    /// populates this; 0 everywhere else and in pre-cache reports.
    pub reuse_pct: f64,
}

impl BenchEntry {
    /// Stable lookup key for baseline comparison.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.model, self.schedule, self.kernel)
    }
}

/// A full report: measurement context plus the entry matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    pub host: String,
    pub threads: usize,
    /// Grid edge length the matrix ran at.
    pub size: usize,
    pub nt: usize,
    /// Short git revision the report was measured at (empty when unknown —
    /// reports written before metadata stamping carry no revision).
    pub git_sha: String,
    /// Resolved `KernelPath::Auto` backend on the measuring host.
    pub kernel_backend: String,
    /// `TEMPEST_THREADS` as set for the run (empty when unset).
    pub tempest_threads: String,
    pub entries: Vec<BenchEntry>,
}

/// One detected regression.
#[derive(Clone, Debug)]
pub struct Regression {
    pub key: String,
    pub baseline_gpts: f64,
    pub current_gpts: f64,
    /// `current / baseline` (< 1 means slower).
    pub ratio: f64,
}

/// Clamp to a finite value so the hand-rolled JSON never emits NaN/inf.
fn fin(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl BenchReport {
    /// Measure one solver under one execution, best of `repeats`, and fold
    /// the run's profile + trace into a [`BenchEntry`]. Telemetry is only
    /// populated when the `obs` feature is on and profiling/tracing are
    /// enabled — the throughput column works regardless.
    pub fn measure_entry(
        solver: &mut dyn WaveSolver,
        exec: &Execution,
        repeats: usize,
        kernel_label: &str,
    ) -> (BenchEntry, obs::trace::Trace, obs::RunMeta) {
        assert!(repeats >= 1);
        let mut best: Option<(_, _, _, _)> = None;
        for _ in 0..repeats {
            let r = solver.run_traced(exec);
            if best.as_ref().map(|b: &(tempest_core::RunStats, _, _, _)| r.0.elapsed < b.0.elapsed).unwrap_or(true) {
                best = Some(r);
            }
        }
        let (stats, profile, trace, meta) = best.unwrap();
        let analysis = TraceAnalysis::from_trace(&trace);
        let entry = BenchEntry {
            model: meta.name.clone(),
            schedule: obs::sanitize_label(&meta.schedule),
            kernel: kernel_label.to_string(),
            gpts_per_s: stats.gpoints_per_s,
            elapsed_s: stats.elapsed.as_secs_f64(),
            barrier_wait_share: profile.barrier_wait_share(),
            worst_imbalance: analysis.worst_imbalance,
            critical_path_ms: analysis.critical_path_ns as f64 / 1e6,
            dropped_events: trace.dropped,
            ai: 0.0,
            roof_pct: 0.0,
            reuse_pct: 0.0,
        };
        (entry, trace, meta)
    }

    /// Measure the incremental-recomputation path (DESIGN.md §16) as one
    /// pseudo-row: a cold acoustic solve populates a fresh
    /// [`tempest_tiling::TileCache`], then the identical problem with its
    /// single source nudged sub-cell reruns through
    /// [`tempest_core::Acoustic::run_incremental`]. The row's throughput is
    /// the *warm rerun* — the interactive-rework latency the cache exists to
    /// cut — and `reuse_pct` records how much of the tile graph it restored
    /// instead of recomputing. Returns the entry plus the cold-run GPts/s
    /// for context. The schedule label is the fixed pseudo-name
    /// `incremental`, so (like the `survey` row) it never collides with a
    /// baseline entry measured before the row existed.
    pub fn measure_incremental_entry(
        size: usize,
        so: usize,
        nt: usize,
        exec: &Execution,
        kernel_label: &str,
    ) -> (BenchEntry, f64) {
        use tempest_grid::{Domain, Shape};
        use tempest_sparse::SparsePoints;

        let domain = Domain::uniform(Shape::cube(size), 10.0);
        // Generously sized private cache: the row measures reuse, not
        // eviction pressure (TEMPEST_CACHE_MB stays in charge elsewhere).
        let cache = tempest_tiling::TileCache::with_capacity_mb(256);
        let run = |frac: f32| {
            let src = SparsePoints::single_center(&domain, frac);
            let mut solver = crate::setup::acoustic_with_sources(size, so, nt, src);
            solver.run_incremental(exec, &cache, 0)
        };
        let cold = run(0.37);
        let warm = run(0.63);
        let entry = BenchEntry {
            model: format!("acoustic-so{so}"),
            schedule: "incremental".to_string(),
            kernel: kernel_label.to_string(),
            gpts_per_s: warm.stats.gpoints_per_s,
            elapsed_s: warm.stats.elapsed.as_secs_f64(),
            barrier_wait_share: 0.0,
            worst_imbalance: 1.0,
            critical_path_ms: 0.0,
            dropped_events: 0,
            ai: 0.0,
            roof_pct: 0.0,
            reuse_pct: 100.0 * warm.reuse_rate(),
        };
        (entry, cold.stats.gpoints_per_s)
    }

    /// Measure a whole multi-shot survey (shot-level sharding over the
    /// worker fleet, batch asset reuse — DESIGN.md §14) as one matrix row,
    /// best of `repeats`. Throughput counts every shot's full time loop over
    /// the nominal grid — the same point-update definition as
    /// [`tempest_core::RunStats`] — so the row is comparable to the
    /// single-shot schedule rows. The schedule label encodes the shot count
    /// so baselines keyed on it stay stable.
    pub fn measure_survey_entry(
        survey: &tempest_survey::Survey,
        opts: &tempest_survey::SurveyOptions,
        repeats: usize,
        kernel_label: &str,
    ) -> (BenchEntry, obs::trace::Trace) {
        assert!(repeats >= 1);
        let cfg = survey.cfg();
        let updates = (survey.len() * cfg.nt * cfg.shape().len()) as f64;
        let mut best: Option<(std::time::Duration, obs::Profile, obs::trace::Trace)> = None;
        for _ in 0..repeats {
            obs::reset();
            obs::trace::reset();
            let started = std::time::Instant::now();
            tempest_survey::run_survey(survey, opts).expect("survey benchmark run failed");
            let elapsed = started.elapsed();
            if best.as_ref().map(|(e, _, _)| elapsed < *e).unwrap_or(true) {
                best = Some((elapsed, obs::snapshot(), obs::trace::snapshot()));
            }
        }
        let (elapsed, profile, trace) = best.unwrap();
        let analysis = TraceAnalysis::from_trace(&trace);
        let secs = elapsed.as_secs_f64().max(1e-12);
        let entry = BenchEntry {
            model: format!("acoustic-so{}", cfg.space_order),
            schedule: obs::sanitize_label(&format!("survey_{}shot", survey.len())),
            kernel: kernel_label.to_string(),
            gpts_per_s: updates / secs / 1e9,
            elapsed_s: secs,
            barrier_wait_share: profile.barrier_wait_share(),
            worst_imbalance: analysis.worst_imbalance,
            critical_path_ms: analysis.critical_path_ns as f64 / 1e6,
            dropped_events: trace.dropped,
            ai: 0.0,
            roof_pct: 0.0,
            reuse_pct: 0.0,
        };
        (entry, trace)
    }

    /// Serialise (schema in DESIGN.md §11).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"host\": \"{}\",", obs::sanitize_label(&self.host));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"size\": {},", self.size);
        let _ = writeln!(s, "  \"nt\": {},", self.nt);
        let _ = writeln!(s, "  \"git_sha\": \"{}\",", obs::sanitize_label(&self.git_sha));
        let _ = writeln!(
            s,
            "  \"kernel_backend\": \"{}\",",
            obs::sanitize_label(&self.kernel_backend)
        );
        let _ = writeln!(
            s,
            "  \"tempest_threads\": \"{}\",",
            obs::sanitize_label(&self.tempest_threads)
        );
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"model\": \"{}\", \"schedule\": \"{}\", \"kernel\": \"{}\", \
                 \"gpts_per_s\": {:.6}, \"elapsed_s\": {:.9}, \
                 \"barrier_wait_share\": {:.6}, \"worst_imbalance\": {:.4}, \
                 \"critical_path_ms\": {:.6}, \"dropped_events\": {}, \
                 \"ai\": {:.6}, \"roof_pct\": {:.6}, \"reuse_pct\": {:.6}}}",
                obs::sanitize_label(&e.model),
                obs::sanitize_label(&e.schedule),
                obs::sanitize_label(&e.kernel),
                fin(e.gpts_per_s),
                fin(e.elapsed_s),
                fin(e.barrier_wait_share),
                fin(e.worst_imbalance),
                fin(e.critical_path_ms),
                e.dropped_events,
                fin(e.ai),
                fin(e.roof_pct),
                fin(e.reuse_pct),
            );
            s.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a report previously written by [`to_json`].
    pub fn from_json(doc: &str) -> Result<BenchReport, String> {
        let v = Value::parse(doc)?;
        let num = |o: &Value, k: &str| {
            o.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let uint = |o: &Value, k: &str| {
            o.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        let text = |o: &Value, k: &str| {
            o.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let mut entries = Vec::new();
        for e in v
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("missing entries array")?
        {
            entries.push(BenchEntry {
                model: text(e, "model")?,
                schedule: text(e, "schedule")?,
                kernel: text(e, "kernel")?,
                gpts_per_s: num(e, "gpts_per_s")?,
                elapsed_s: num(e, "elapsed_s")?,
                barrier_wait_share: num(e, "barrier_wait_share")?,
                worst_imbalance: num(e, "worst_imbalance")?,
                critical_path_ms: num(e, "critical_path_ms")?,
                dropped_events: uint(e, "dropped_events")?,
                // Optional: absent from reports predating the roofline
                // column, so a committed baseline stays readable.
                ai: e.get("ai").and_then(Value::as_f64).unwrap_or(0.0),
                roof_pct: e.get("roof_pct").and_then(Value::as_f64).unwrap_or(0.0),
                reuse_pct: e.get("reuse_pct").and_then(Value::as_f64).unwrap_or(0.0),
            });
        }
        let opt_text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap_or_default()
        };
        Ok(BenchReport {
            host: text(&v, "host")?,
            threads: uint(&v, "threads")? as usize,
            size: uint(&v, "size")? as usize,
            nt: uint(&v, "nt")? as usize,
            // Optional metadata stamps (absent from pre-stamping reports).
            git_sha: opt_text("git_sha"),
            kernel_backend: opt_text("kernel_backend"),
            tempest_threads: opt_text("tempest_threads"),
            entries,
        })
    }

    /// Load a report from a file.
    pub fn read(path: &Path) -> Result<BenchReport, String> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&doc)
    }

    /// Write `BENCH_<host>.json` into `dir` (created if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", obs::sanitize_label(&self.host)));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Entry lookup by key.
    pub fn find(&self, key: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.key() == key)
    }
}

/// Compare `current` against `baseline`: every baseline entry present in
/// `current` whose throughput fell below `(1 − threshold) ×` baseline is a
/// regression. Returns `Err` when the two reports measured different
/// problems (size/nt mismatch) — throughput is not comparable then, and the
/// caller should skip the gate rather than fail it.
pub fn check_regressions(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    if current.size != baseline.size || current.nt != baseline.nt {
        return Err(format!(
            "baseline measured {}³×{} but current run is {}³×{}; not comparable",
            baseline.size, baseline.nt, current.size, current.nt
        ));
    }
    let mut out = Vec::new();
    for base in &baseline.entries {
        if base.gpts_per_s <= 0.0 {
            continue;
        }
        if let Some(cur) = current.find(&base.key()) {
            let ratio = cur.gpts_per_s / base.gpts_per_s;
            if ratio < 1.0 - threshold {
                out.push(Regression {
                    key: base.key(),
                    baseline_gpts: base.gpts_per_s,
                    current_gpts: cur.gpts_per_s,
                    ratio,
                });
            }
        }
    }
    out.sort_by(|a, b| a.ratio.partial_cmp(&b.ratio).unwrap_or(std::cmp::Ordering::Equal));
    Ok(out)
}

/// Best-effort short git revision for report stamping: `git rev-parse`
/// in the current directory, then the `GITHUB_SHA` env (truncated), then
/// `"unknown"` — a report should never fail to write because the source
/// tree is not a checkout.
pub fn git_sha() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return obs::sanitize_label(&sha);
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return obs::sanitize_label(&sha[..sha.len().min(12)]);
        }
    }
    "unknown".to_string()
}

/// Best-effort host identifier for the report filename: `HOSTNAME` env,
/// then the kernel hostname, then a fixed fallback.
pub fn host_name() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return obs::sanitize_label(&h);
        }
    }
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return obs::sanitize_label(h);
        }
    }
    "unknown-host".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(model: &str, gpts: f64) -> BenchEntry {
        BenchEntry {
            model: model.into(),
            schedule: "wavefront-dflow_16x16_t8_8x8".into(),
            kernel: "pencil".into(),
            gpts_per_s: gpts,
            elapsed_s: 0.01,
            barrier_wait_share: 0.05,
            worst_imbalance: 1.2,
            critical_path_ms: 3.5,
            dropped_events: 0,
            ai: 1.4,
            roof_pct: 0.35,
            reuse_pct: 0.0,
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            host: "test-host".into(),
            threads: 4,
            size: 64,
            nt: 8,
            git_sha: "abc1234".into(),
            kernel_backend: "portable".into(),
            tempest_threads: "4".into(),
            entries,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = report(vec![entry("acoustic-so4", 0.5), entry("tti-so4", 0.1)]);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parses_reports_without_metadata_or_roofline_fields() {
        // A baseline committed before the metadata/roofline stamps existed
        // must stay readable (the perf gate reads old files).
        let old = r#"{
  "host": "old-host",
  "threads": 2,
  "size": 32,
  "nt": 4,
  "entries": [
    {"model": "acoustic-so4", "schedule": "spaceblocked_8x8", "kernel": "pencil",
     "gpts_per_s": 0.5, "elapsed_s": 0.01, "barrier_wait_share": 0.0,
     "worst_imbalance": 1.0, "critical_path_ms": 1.0, "dropped_events": 0}
  ]
}"#;
        let parsed = BenchReport::from_json(old).unwrap();
        assert_eq!(parsed.git_sha, "");
        assert_eq!(parsed.kernel_backend, "");
        assert_eq!(parsed.tempest_threads, "");
        assert_eq!(parsed.entries[0].ai, 0.0);
        assert_eq!(parsed.entries[0].roof_pct, 0.0);
        assert_eq!(parsed.entries[0].reuse_pct, 0.0);
    }

    #[test]
    fn git_sha_is_label_safe() {
        let s = git_sha();
        assert!(!s.is_empty());
        assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }

    #[test]
    fn json_guards_nonfinite_values() {
        let mut bad = entry("acoustic-so4", f64::NAN);
        bad.worst_imbalance = f64::INFINITY;
        let js = report(vec![bad]).to_json();
        assert!(!js.contains("NaN") && !js.contains("inf"), "bad JSON: {js}");
        let parsed = BenchReport::from_json(&js).unwrap();
        assert_eq!(parsed.entries[0].gpts_per_s, 0.0);
        assert_eq!(parsed.entries[0].worst_imbalance, 0.0);
    }

    #[test]
    fn detects_synthetic_regression() {
        let baseline = report(vec![entry("acoustic-so4", 1.0), entry("tti-so4", 0.2)]);
        let mut current = baseline.clone();
        current.entries[0].gpts_per_s = 0.5; // 50% slower
        current.entries[1].gpts_per_s = 0.19; // 5% slower — within threshold
        let regs = check_regressions(&current, &baseline, 0.15).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "acoustic-so4/wavefront-dflow_16x16_t8_8x8/pencil");
        assert!((regs[0].ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_and_missing_entries_pass() {
        let baseline = report(vec![entry("acoustic-so4", 1.0), entry("elastic-so4", 0.3)]);
        let current = report(vec![entry("acoustic-so4", 1.4)]);
        // elastic missing from current: skipped, not a failure
        assert!(check_regressions(&current, &baseline, 0.15).unwrap().is_empty());
    }

    #[test]
    fn mismatched_problem_size_is_not_comparable() {
        let baseline = report(vec![entry("acoustic-so4", 1.0)]);
        let mut current = baseline.clone();
        current.size = 128;
        assert!(check_regressions(&current, &baseline, 0.15).is_err());
    }

    #[test]
    fn write_emits_bench_file(){
        let r = report(vec![entry("acoustic-so4", 0.5)]);
        let dir = std::env::temp_dir().join("tempest-bench-report-test");
        let path = r.write(&dir).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "BENCH_test-host.json");
        assert!(BenchReport::read(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn host_name_is_filename_safe() {
        let h = host_name();
        assert!(!h.is_empty());
        assert!(h.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
    }

    #[test]
    fn measure_survey_entry_produces_throughput() {
        let s = crate::setup::survey(16, 4, 4, 2, 3);
        let (e, _trace) = BenchReport::measure_survey_entry(
            &s,
            &tempest_survey::SurveyOptions::default(),
            1,
            "pencil",
        );
        assert_eq!(e.model, "acoustic-so4");
        assert_eq!(e.schedule, "survey_2shot");
        assert_eq!(e.key(), "acoustic-so4/survey_2shot/pencil");
        assert!(e.gpts_per_s > 0.0);
        assert!(e.elapsed_s > 0.0);
    }

    #[test]
    fn measure_incremental_entry_reports_reuse() {
        // SpaceBlocked → a tile_t=1 plan of 8×8 blocks, fine-grained enough
        // that a sub-cell source nudge leaves tiles outside its cone clean
        // even on this small grid.
        let exec = Execution::baseline();
        let (e, cold_gpts) = BenchReport::measure_incremental_entry(32, 4, 4, &exec, "pencil");
        assert_eq!(e.model, "acoustic-so4");
        assert_eq!(e.schedule, "incremental");
        assert_eq!(e.key(), "acoustic-so4/incremental/pencil");
        assert!(e.gpts_per_s > 0.0);
        assert!(cold_gpts > 0.0);
        // A sub-cell source nudge must leave most of the tile graph clean.
        assert!(
            e.reuse_pct > 0.0 && e.reuse_pct < 100.0,
            "unexpected reuse: {}",
            e.reuse_pct
        );
    }

    #[test]
    fn measure_entry_produces_throughput() {
        let mut s = crate::setup::acoustic(16, 4, 4, 3);
        let (e, _trace, meta) =
            BenchReport::measure_entry(&mut s, &Execution::baseline().sequential(), 1, "pencil");
        assert_eq!(e.model, "acoustic-so4");
        assert_eq!(e.schedule, "spaceblocked_8x8");
        assert!(e.gpts_per_s > 0.0);
        assert!(meta.elapsed_s > 0.0);
    }
}
