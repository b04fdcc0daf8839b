//! `run.sh` without `--workload`: every workload in a child process of its
//! own, one table of every metric by name and unit, `out/results.json`, and
//! the `--calibrate` spread report.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::stats::{median, spread};
use crate::{host, metrics, workloads, write_out, Args};

/// One child's two output lines: the detail object and the result object.
pub struct ChildRun {
    pub workload: String,
    pub detail: Value,
    pub result: Value,
}

impl ChildRun {
    fn count(&self, key: &str) -> f64 {
        self.result
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

fn run_child(args: &Args, workload: &str, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no result ({})", out.status))?;
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    Ok(ChildRun {
        workload: workload.to_string(),
        detail: json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?,
        result: json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
    })
}

fn run_all(args: &Args, seed: u64) -> Result<Vec<ChildRun>, String> {
    workloads::table(args.smoke)
        .iter()
        .map(|spec| {
            eprintln!("== {} (seed {seed})", spec.name);
            run_child(args, &spec.name, seed)
        })
        .collect()
}

/// Every metric of `table` for every run, by name, with its unit; timings
/// that come from several samples show their quartiles and count.
pub fn render_table(runs: &[ChildRun], table: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for run in runs {
        let (attempted, failed) = (run.count("attempted"), run.count("failed"));
        writeln!(
            out,
            "{}  ops attempted {attempted}, failed {failed}, failed_ratio {}",
            run.workload,
            failed / attempted
        )
        .unwrap();
        for (name, unit) in table {
            let value = run
                .metric(name)
                .map_or("missing".to_string(), |v| format!("{v:.6}"));
            write!(out, "  {name:<30} {value:>16} {unit:<8}").unwrap();
            if let Some(s) = run.detail.get("samples").and_then(|s| s.get(name)) {
                let part = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                write!(
                    out,
                    " q1 {:.6} q3 {:.6} n {}",
                    part("q1"),
                    part("q3"),
                    part("n")
                )
                .unwrap();
            }
            out.push('\n');
        }
    }
    out
}

/// The content of `out/results.json`.
pub fn results_json(runs: &[ChildRun], args: &Args) -> Value {
    Value::obj(vec![
        ("host", host::fingerprint(args.seed)),
        ("traced", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "workloads",
            Value::Arr(
                runs.iter()
                    .map(|run| {
                        let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
                        Value::obj(vec![
                            ("workload", Value::str(&run.workload)),
                            ("correct", field(&run.result, "correct")),
                            ("ops_attempted", field(&run.detail, "ops_attempted")),
                            ("ops_failed", field(&run.detail, "ops_failed")),
                            (
                                "failed_ratio",
                                Value::Num(run.count("failed") / run.count("attempted")),
                            ),
                            ("samples", field(&run.detail, "samples")),
                            ("metrics", field(&run.result, "metrics")),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn all_correct(runs: &[ChildRun]) -> bool {
    runs.iter()
        .all(|r| r.result.get("correct").and_then(Value::as_bool) == Some(true))
}

pub fn all_workloads(args: &Args) -> Result<ExitCode, String> {
    if let Some(k) = args.calibrate {
        return calibrate(args, k);
    }
    let runs = run_all(args, args.seed)?;
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    print!("{}", render_table(&runs, table));
    write_out("results.json", &results_json(&runs, args))?;
    Ok(if all_correct(&runs) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Each end-to-end metric's bound, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    metrics::benchmark_json()?
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// `k` full untraced runs, each on its own seed as the driver's are; per
/// workload and metric, the inter-quartile spread of the `k` values against
/// the metric's bound. The aim is a spread under a third of the bound.
fn calibrate(args: &Args, k: usize) -> Result<ExitCode, String> {
    if args.trace {
        return Err("--calibrate measures untraced runs".to_string());
    }
    let bounds = bounds()?;
    let rounds = (0..k as u64)
        .map(|i| run_all(args, args.seed + i))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows = Vec::new();
    let mut steady = true;
    println!(
        "{:<20} {:<12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, spec) in workloads::table(args.smoke).iter().enumerate() {
        for (name, bound) in &bounds {
            let values: Vec<f64> = rounds
                .iter()
                .map(|runs| {
                    runs[w]
                        .metric(name)
                        .ok_or(format!("{}: no {name}", spec.name))
                })
                .collect::<Result<_, _>>()?;
            let s = spread(&values);
            let verdict = if s < bound / 3.0 {
                "ok"
            } else if s <= *bound {
                "wide: above a third of the bound"
            } else {
                "UNSTEADY: above the bound"
            };
            // The driver does not hold set-up time to its spread.
            steady &= s <= *bound || name == "setup_s";
            println!(
                "{:<20} {:<12} {:>12.6} {:>8.2}% {:>6.0}%  {verdict}",
                spec.name,
                name,
                median(&values),
                100.0 * s,
                100.0 * bound
            );
            rows.push(Value::obj(vec![
                ("workload", Value::str(&spec.name)),
                ("metric", Value::str(name)),
                (
                    "values",
                    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                ),
                ("spread", Value::Num(s)),
                ("bound", Value::Num(*bound)),
            ]));
        }
    }
    write_out(
        "calibrate.json",
        &Value::obj(vec![
            ("host", host::fingerprint(args.seed)),
            ("runs", Value::Num(k as f64)),
            ("rows", Value::Arr(rows)),
        ]),
    )?;
    Ok(if steady && rounds.iter().all(|r| all_correct(r)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, END_TO_END, PER_LAYER};

    fn fake_runs(table: &[(&'static str, &'static str)]) -> Vec<ChildRun> {
        workloads::table(false)
            .iter()
            .map(|spec| {
                let mut m = Metrics::default();
                for (i, (name, _)) in table.iter().enumerate() {
                    m.set(name, 1.0 + i as f64);
                }
                ChildRun {
                    workload: spec.name.clone(),
                    detail: json::parse(
                        r#"{"ops_attempted": 12, "ops_failed": 0,
                            "samples": {"solve_s": {"median": 1, "q1": 0.9, "q3": 1.1, "n": 11}}}"#,
                    )
                    .unwrap(),
                    result: Value::obj(vec![
                        ("correct", Value::Bool(true)),
                        ("attempted", Value::Num(12.0)),
                        ("failed", Value::Num(0.0)),
                        ("metrics", m.to_json(table)),
                    ]),
                }
            })
            .collect()
    }

    fn benchmark_names(key: &str) -> Vec<String> {
        metrics::benchmark_json()
            .unwrap()
            .get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn table_and_results_hold_every_listed_name_and_no_other() {
        let args = Args::default();
        let workloads = benchmark_names("workloads");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = benchmark_names(key);
            let runs = fake_runs(table);

            // The table: its first column holds workload and metric names only.
            let text = render_table(&runs, table);
            let mut seen = Vec::new();
            for line in text.lines() {
                let first = line.split_whitespace().next().unwrap().to_string();
                if line.starts_with("  ") {
                    assert!(listed.contains(&first), "stray metric `{first}`");
                } else {
                    assert!(workloads.contains(&first), "stray workload `{first}`");
                }
                seen.push(first);
            }
            for name in listed.iter().chain(&workloads) {
                assert!(seen.contains(name), "`{name}` is not printed");
            }
            assert!(!text.contains("missing"));

            // The results file: the same names, per workload.
            let results = results_json(&runs, &args);
            let entries = results.get("workloads").and_then(Value::as_arr).unwrap();
            let named: Vec<_> = entries
                .iter()
                .map(|e| {
                    e.get("workload")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect();
            assert_eq!(named, workloads);
            for e in entries {
                let keys: Vec<_> = e
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(keys, listed);
                assert_eq!(e.get("ops_attempted").and_then(Value::as_f64), Some(12.0));
                assert_eq!(e.get("failed_ratio").and_then(Value::as_f64), Some(0.0));
            }
        }
    }
}
