//! The tempest benchmark. `README.md` says what it measures and why;
//! `run.sh` builds and starts it.
//!
//! With `--workload` it runs that one workload in this process and prints
//! the result object as its last line of standard output. Without, it runs
//! every workload, each in a child process of its own, and prints a table.

mod api;
mod bench;
mod host;
mod json;
mod machine;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Value;

/// Where results and traces are written: `benchmark/out/`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Write one JSON file into `benchmark/out/`.
pub fn write_out(name: &str, content: &Value) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{name}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, format!("{content}\n")))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--traced] [--smoke] [--calibrate [K]]
  --workload NAME  run one workload and print its result object
  --seed N         seed of the generated inputs (default 1)
  --seconds S      how long each run measures (default 16)
  --trace 0|1      1 = the traced run that reports the per-layer metrics
  --traced         same as --trace 1
  --smoke          every workload at 32^3 x 8 steps, three operations each
  --calibrate [K]  K (default 5) full untraced runs on seeds N..N+K-1; prints
                   each metric's spread against its bound";

#[derive(Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub calibrate: Option<usize>,
    obs_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?.to_string()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed: not a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds: out of range".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".to_string()),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--obs-probe" => args.obs_probe = true,
            "--calibrate" => {
                let k = match it.peek().and_then(|k| k.parse::<usize>().ok()) {
                    Some(k) => {
                        it.next();
                        k
                    }
                    None => 5,
                };
                if k < 2 {
                    return Err("--calibrate: at least 2 runs".to_string());
                }
                args.calibrate = Some(k);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The settings that change how the crates run, fixed for every workload:
/// `T = min(nproc, 4)` pool threads, and none of the switches a caller's
/// shell may carry. Called first thing, while the process has one thread.
fn pin_environment() {
    for key in [
        "TEMPEST_CACHE_MB",
        "TEMPEST_PROFILE",
        "TEMPEST_TRACE",
        "TEMPEST_TELEMETRY",
        "TEMPEST_KERNEL",
    ] {
        std::env::remove_var(key);
    }
    std::env::set_var("TEMPEST_THREADS", host::bench_threads().to_string());
}

fn one_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = workloads::table(args.smoke)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if args.obs_probe {
        println!("{}", bench::run_obs_child(&spec, args.seed)?);
        return Ok(ExitCode::SUCCESS);
    }
    let run = bench::RunArgs {
        spec,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.0
        } else {
            metrics::RUN_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
    };
    let result = bench::run(&run)?;
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let metrics = result.metrics.to_json(table);
    // For `run.sh` without `--workload`: what the result object has no
    // room for. The result object is the last line.
    println!(
        "{}",
        Value::obj(vec![
            ("workload", Value::str(name)),
            ("host", host::fingerprint(args.seed)),
            ("ops_attempted", Value::Num(result.attempted as f64)),
            ("ops_failed", Value::Num(result.failed as f64)),
            ("samples", result.samples),
        ])
    );
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(result.failed == 0)),
            ("attempted", Value::Num(result.attempted as f64)),
            ("failed", Value::Num(result.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    pin_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.workload {
        Some(name) => one_workload(&args, name),
        None => report::all_workloads(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) if e.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("tempest-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "tti_so8_128",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("tti_so8_128"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
    }

    #[test]
    fn calibrate_takes_an_optional_count() {
        assert_eq!(parse(&["--calibrate"]).unwrap().calibrate, Some(5));
        assert_eq!(
            parse(&["--calibrate", "3", "--smoke"]).unwrap().calibrate,
            Some(3)
        );
        assert!(parse(&["--calibrate", "1"]).is_err());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
