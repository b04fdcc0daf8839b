//! Machine-readable benchmark reports.
//!
//! [`BenchReport`] folds throughput, profile shares, and trace-derived load
//! metrics for a model × schedule × kernel matrix into one JSON document
//! (`BENCH_<host>.json`). Regressions are judged by `benchmark/run.sh`, not
//! from these files.

use std::path::{Path, PathBuf};

use tempest_core::{Execution, WaveSolver};
use tempest_obs as obs;
use tempest_obs::analysis::TraceAnalysis;

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
    /// traffic model (0 when the roofline pass was skipped).
    pub ai: f64,
    /// Share of the attainable roofline ceiling reached (0 when skipped).
    pub roof_pct: f64,
}

/// A full report: measurement context plus the entry matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    pub host: String,
    pub threads: usize,
    /// Grid edge length the matrix ran at.
    pub size: usize,
    pub nt: usize,
    /// Short git revision the report was measured at.
    pub git_sha: String,
    /// Resolved `KernelPath::Auto` backend on the measuring host.
    pub kernel_backend: String,
    /// `TEMPEST_THREADS` as set for the run (empty when unset).
    pub tempest_threads: String,
    pub entries: Vec<BenchEntry>,
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
    ) -> (BenchEntry, obs::Trace, obs::RunMeta) {
        assert!(repeats >= 1);
        let mut best: Option<(_, _, _)> = None;
        for _ in 0..repeats {
            let r = solver.run_profiled(exec);
            if best.as_ref().map(|b: &(tempest_core::RunStats, _, _)| r.0.elapsed < b.0.elapsed).unwrap_or(true) {
                best = Some(r);
            }
        }
        let (stats, mut profile, meta) = best.unwrap();
        let trace = std::mem::take(&mut profile.trace);
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
        };
        (entry, trace, meta)
    }

    /// Measure a whole multi-shot survey (shot-level sharding over the
    /// worker fleet, batch asset reuse — DESIGN.md §14) as one matrix row,
    /// best of `repeats`. Throughput counts every shot's full time loop over
    /// the nominal grid — the same point-update definition as
    /// [`tempest_core::RunStats`] — so the row is comparable to the
    /// single-shot schedule rows. The schedule label encodes the shot count.
    pub fn measure_survey_entry(
        survey: &tempest_survey::Survey,
        opts: &tempest_survey::SurveyOptions,
        repeats: usize,
        kernel_label: &str,
    ) -> (BenchEntry, obs::Trace) {
        assert!(repeats >= 1);
        let cfg = survey.cfg();
        let updates = (survey.len() * cfg.nt * cfg.shape().len()) as f64;
        let mut best: Option<(std::time::Duration, obs::Profile)> = None;
        for _ in 0..repeats {
            obs::reset();
            let started = std::time::Instant::now();
            tempest_survey::run_survey(survey, opts).expect("survey benchmark run failed");
            let elapsed = started.elapsed();
            if best.as_ref().map(|(e, _)| elapsed < *e).unwrap_or(true) {
                best = Some((elapsed, obs::snapshot()));
            }
        }
        let (elapsed, mut profile) = best.unwrap();
        let trace = std::mem::take(&mut profile.trace);
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
                 \"ai\": {:.6}, \"roof_pct\": {:.6}}}",
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
            );
            s.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Write `BENCH_<host>.json` into `dir` (created if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", obs::sanitize_label(&self.host)));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
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
            kernel: "portable".into(),
            gpts_per_s: gpts,
            elapsed_s: 0.01,
            barrier_wait_share: 0.05,
            worst_imbalance: 1.2,
            critical_path_ms: 3.5,
            dropped_events: 0,
            ai: 1.4,
            roof_pct: 0.35,
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
        let parsed = tempest_obs::json::Value::parse(&js).unwrap();
        let e = &parsed.get("entries").and_then(|v| v.as_arr()).unwrap()[0];
        assert_eq!(e.get("gpts_per_s").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(e.get("worst_imbalance").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn write_emits_bench_file(){
        let r = report(vec![entry("acoustic-so4", 0.5)]);
        let dir = std::env::temp_dir().join("tempest-bench-report-test");
        let path = r.write(&dir).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "BENCH_test-host.json");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_json());
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
            "portable",
        );
        assert_eq!(e.model, "acoustic-so4");
        assert_eq!(e.schedule, "survey_2shot");
        assert!(e.gpts_per_s > 0.0);
        assert!(e.elapsed_s > 0.0);
    }

    #[test]
    fn measure_entry_produces_throughput() {
        let mut s = crate::setup::acoustic(16, 4, 4, 3);
        let (e, _trace, meta) =
            BenchReport::measure_entry(&mut s, &Execution::baseline().sequential(), 1, "portable");
        assert_eq!(e.model, "acoustic-so4");
        assert_eq!(e.schedule, "spaceblocked_8x8");
        assert!(e.gpts_per_s > 0.0);
        assert!(meta.elapsed_s > 0.0);
    }
}
