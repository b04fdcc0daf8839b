//! Perf reporting pipeline: measure the model × schedule × kernel matrix
//! and fold profile + trace telemetry into `BENCH_<host>.json`. Regressions
//! are judged by `benchmark/run.sh` (paper-regime workloads, alternating
//! pairs), not here.
//!
//! ```text
//! cargo run -p tempest-bench --release --features obs --bin tempest-report -- \
//!     [--size 64] [--nt 8] [--so 4] [--fast] [--model acoustic,tti,elastic] \
//!     [--schedules spaceblocked,wavefront-dataflow,survey] [--list-schedules] \
//!     [--kernel auto|scalar|portable|avx2|both] [--list-kernels] \
//!     [--repeats 2] [--out results] [--trace]
//! ```

use std::path::PathBuf;

use tempest_bench::perf_report::{git_sha, host_name, BenchReport};
use tempest_bench::report::{f3, Table};
use tempest_bench::roofline::{measure_bandwidth_gbs, measure_peak_gflops};
use tempest_bench::{setup, sweep};
use tempest_core::operator::KernelPath;
use tempest_core::{Execution, WaveSolver};
use tempest_obs as obs;
use tempest_obs::analysis::Roofline;
use tempest_stencil::metrics::{acoustic_cost, elastic_cost, tti_cost, KernelCost};
use tempest_stencil::Backend;
use tempest_survey::SurveyOptions;

struct ReportArgs {
    size: usize,
    nt: usize,
    so: usize,
    models: Vec<String>,
    schedules: Option<Vec<String>>,
    kernels: Vec<KernelPath>,
    repeats: usize,
    fast: bool,
    out: PathBuf,
    trace: bool,
}

fn parse_args() -> ReportArgs {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = ReportArgs {
        size: 64,
        nt: 8,
        so: 4,
        models: vec!["acoustic".into(), "tti".into(), "elastic".into()],
        schedules: None,
        kernels: vec![KernelPath::Auto],
        repeats: 2,
        fast: false,
        out: PathBuf::from("results"),
        trace: false,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--size" => {
                i += 1;
                a.size = argv.get(i).and_then(|v| v.parse().ok()).expect("--size needs an integer");
            }
            "--nt" => {
                i += 1;
                a.nt = argv.get(i).and_then(|v| v.parse().ok()).expect("--nt needs an integer");
            }
            "--so" => {
                i += 1;
                a.so = argv.get(i).and_then(|v| v.parse().ok()).expect("--so needs an integer");
            }
            "--fast" => {
                a.size = a.size.min(32);
                a.repeats = 1;
                a.fast = true;
            }
            "--model" => {
                i += 1;
                a.models = argv
                    .get(i)
                    .expect("--model needs a comma-separated list")
                    .split(',')
                    .map(String::from)
                    .collect();
            }
            "--schedules" => {
                i += 1;
                a.schedules = Some(
                    argv.get(i)
                        .expect("--schedules needs a comma-separated list")
                        .split(',')
                        .map(String::from)
                        .collect(),
                );
            }
            "--kernel" => {
                i += 1;
                let spec = argv.get(i).map(String::as_str).unwrap_or("");
                a.kernels = parse_kernels(spec);
            }
            "--list-kernels" => {
                list_kernels();
                std::process::exit(0);
            }
            "--repeats" => {
                i += 1;
                a.repeats = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--repeats needs a positive integer");
            }
            "--out" => {
                i += 1;
                a.out = PathBuf::from(argv.get(i).expect("--out needs a directory"));
            }
            "--trace" => a.trace = true,
            "--list-schedules" => {
                for (label, exec) in schedules(None) {
                    println!("{label:20} {}", exec.schedule_label());
                }
                println!("{SURVEY_SCHEDULE:20} multi-shot survey engine (shot-level sharding)");
                std::process::exit(0);
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --size N --nt N --so N --fast \
                     --model acoustic,tti,elastic \
                     --schedules spaceblocked,wavefront-dataflow,survey \
                     --list-schedules \
                     --kernel auto|scalar|portable|avx2|both --list-kernels \
                     --repeats N --out DIR --trace"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}; try --help"),
        }
        i += 1;
    }
    a
}

/// Matrix rows are keyed by the *resolved* backend name, never "auto" —
/// reports stay comparable across hosts that resolve differently.
fn kernel_label(k: KernelPath) -> &'static str {
    k.resolve().name()
}

/// Parse `--kernel`: one name per `KernelPath::parse` (`auto`, `scalar`,
/// `portable`, `avx2`), a comma list of those, or the sweep words
/// `both`/`all` (= every backend *available* on this host, so a CI loop can
/// pass the same flag everywhere). Unknown names exit 2, matching the
/// `--schedules` contract.
fn parse_kernels(spec: &str) -> Vec<KernelPath> {
    if spec.eq_ignore_ascii_case("both") || spec.eq_ignore_ascii_case("all") {
        return Backend::ALL
            .into_iter()
            .filter(|b| b.available())
            .map(KernelPath::from)
            .collect();
    }
    let mut out = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match KernelPath::parse(name) {
            Some(k) => out.push(k),
            None => {
                eprintln!("unknown kernel {name:?}; see --list-kernels");
                std::process::exit(2);
            }
        }
    }
    if out.is_empty() {
        eprintln!("--kernel needs a name (auto, scalar, portable, avx2, both); see --list-kernels");
        std::process::exit(2);
    }
    out
}

/// `--list-kernels`: every backend the dispatcher knows, with its lane
/// width, gating CPU feature and availability on *this* host.
fn list_kernels() {
    println!("{:10} {:>5}  {:12} available", "kernel", "lanes", "cpu feature");
    for b in Backend::ALL {
        let caps = b.caps();
        println!(
            "{:10} {:>5}  {:12} {}",
            caps.name,
            caps.lanes,
            caps.cpu_feature.unwrap_or("-"),
            if b.available() { "yes" } else { "no" }
        );
    }
    println!(
        "auto       resolves to the best available backend (currently: {})",
        tempest_stencil::backend::detect_best()
    );
}

/// The survey pseudo-schedule: not an [`Execution`] but a whole multi-shot
/// run through `tempest-survey`, reported as one extra matrix row.
const SURVEY_SCHEDULE: &str = "survey";

/// The measured schedules: the shipped defaults rather than a tuning sweep —
/// stable, comparable configurations, not the fastest ones.
fn schedules(filter: Option<&[String]>) -> Vec<(&'static str, Execution)> {
    let all = vec![
        ("spaceblocked", Execution::baseline()),
        ("wavefront-dataflow", Execution::wavefront_default()),
    ];
    match filter {
        None => all,
        Some(names) => {
            for n in names {
                if n != SURVEY_SCHEDULE && !all.iter().any(|(label, _)| label == n) {
                    eprintln!(
                        "unknown schedule {n:?} (want one of {:?} or {SURVEY_SCHEDULE:?}; \
                         see --list-schedules)",
                        all.iter().map(|(l, _)| *l).collect::<Vec<_>>()
                    );
                    std::process::exit(2);
                }
            }
            all.into_iter()
                .filter(|(label, _)| names.iter().any(|n| n == label))
                .collect()
        }
    }
}

/// Whether the `--schedules` filter keeps the survey row (kept by default).
fn wants_survey(filter: Option<&[String]>) -> bool {
    filter.map(|names| names.iter().any(|n| n == SURVEY_SCHEDULE)).unwrap_or(true)
}

/// Analytic per-point cost of a model at space order `so` — the roofline's
/// operational-intensity input (paper Fig. 11).
fn model_cost(model: &str, so: usize) -> KernelCost {
    match model {
        "acoustic" => acoustic_cost(so),
        "tti" => tti_cost(so),
        "elastic" => elastic_cost(so),
        other => panic!("unknown model {other:?} (want acoustic, tti or elastic)"),
    }
}

/// Characterise the machine ceilings with the in-process microbenchmarks.
/// Cheap enough to always run (a few hundred ms); `--fast` shrinks it.
fn measure_roof(fast: bool) -> Roofline {
    let (iters, len, reps) = if fast {
        (500_000, 1 << 20, 2)
    } else {
        (2_000_000, 1 << 22, 4)
    };
    Roofline::new(measure_peak_gflops(iters), measure_bandwidth_gbs(len, reps))
}

fn build_solver(model: &str, size: usize, so: usize, nt: usize) -> Box<dyn WaveSolver> {
    match model {
        "acoustic" => Box::new(setup::acoustic(size, so, nt, 8)),
        "tti" => Box::new(setup::tti(size, so, nt, 8)),
        "elastic" => Box::new(setup::elastic(size, so, nt, 8)),
        other => panic!("unknown model {other:?} (want acoustic, tti or elastic)"),
    }
}

fn main() {
    let args = parse_args();
    // The report reads counters, span times and events: the event level
    // (a no-op when the obs feature is compiled out).
    obs::trace::set_enabled(true);

    println!(
        "tempest-report: grid {}^3, nt {}, so {}, threads {}, repeats {}",
        args.size,
        args.nt,
        args.so,
        tempest_par::available_threads(),
        args.repeats
    );
    if !obs::enabled() {
        println!("note: built without the `obs` feature — telemetry columns will be zero");
    }

    // Characterise the machine once; every matrix row lands on this roof.
    let mut roof = measure_roof(args.fast);
    println!(
        "machine roof: peak {:.1} GFLOP/s, bandwidth {:.1} GB/s (ridge AI {:.2})",
        roof.peak_gflops,
        roof.bandwidth_gbs,
        roof.ridge_ai()
    );

    let mut table = Table::new(
        "tempest-report — throughput and load-balance matrix",
        &[
            "model", "schedule", "kernel", "GPts/s", "barrier%", "imbalance", "critpath ms",
            "drops", "AI", "roof%",
        ],
    );
    let mut report = BenchReport {
        host: host_name(),
        threads: tempest_par::available_threads(),
        size: args.size,
        nt: args.nt,
        git_sha: git_sha(),
        kernel_backend: kernel_label(KernelPath::Auto).to_string(),
        tempest_threads: std::env::var("TEMPEST_THREADS").unwrap_or_default(),
        entries: Vec::new(),
    };

    for model in &args.models {
        let mut solver = build_solver(model, args.size, args.so, args.nt);
        for (sched_name, exec) in schedules(args.schedules.as_deref()) {
            for &kernel in &args.kernels {
                let exec = sweep::with_kernel(exec, kernel);
                let (mut entry, trace, meta) = BenchReport::measure_entry(
                    solver.as_mut(),
                    &exec,
                    args.repeats,
                    kernel_label(kernel),
                );
                // Place the row on the roofline: operational intensity under
                // the schedule's streaming model (temporal tiles divide the
                // compulsory traffic by the reuse height, paper Fig. 11).
                let cost = model_cost(model, args.so);
                let tt = exec.schedule.temporal_reuse();
                entry.ai = cost.flops / cost.bytes_streaming_temporal(tt);
                roof.push(
                    &format!("{}/{} t{tt}", entry.model, sched_name),
                    entry.ai,
                    entry.gpts_per_s,
                    cost.flops,
                );
                entry.roof_pct = roof.roof_share(roof.entries.last().unwrap());
                println!(
                    "  {model} {sched_name} {}: {:.3} GPts/s (barrier {:.1}%, imbalance {:.2}, {} trace events)",
                    kernel_label(kernel),
                    entry.gpts_per_s,
                    100.0 * entry.barrier_wait_share,
                    entry.worst_imbalance,
                    trace.events.len(),
                );
                if args.trace && !trace.is_empty() {
                    match trace.write_chrome_json(&meta) {
                        Ok(p) => println!("    trace → {}", p.display()),
                        Err(e) => eprintln!("    trace export failed: {e}"),
                    }
                }
                table.row(&[
                    entry.model.clone(),
                    entry.schedule.clone(),
                    entry.kernel.clone(),
                    f3(entry.gpts_per_s),
                    format!("{:.1}", 100.0 * entry.barrier_wait_share),
                    format!("{:.2}", entry.worst_imbalance),
                    format!("{:.3}", entry.critical_path_ms),
                    entry.dropped_events.to_string(),
                    format!("{:.2}", entry.ai),
                    format!("{:.1}", 100.0 * entry.roof_pct),
                ]);
                report.entries.push(entry);
            }
        }
    }

    // The survey row: the same acoustic problem, but a 4-shot line driven
    // through the `tempest-survey` engine — shot-level sharding above the
    // tile-level fleet, batch asset reuse (DESIGN.md §14). Single-shot rows
    // measure one time loop; this one measures survey orchestration.
    if wants_survey(args.schedules.as_deref()) {
        const SURVEY_SHOTS: usize = 4;
        let survey = setup::survey(args.size, args.so, args.nt, SURVEY_SHOTS, 8);
        let opts = SurveyOptions::default();
        let survey_kernel = kernel_label(KernelPath::Auto);
        let (mut entry, trace) =
            BenchReport::measure_survey_entry(&survey, &opts, args.repeats, survey_kernel);
        // The survey engine runs each shot under its own (non-temporal)
        // execution, so the row sits at the streaming AI with reuse 1.
        let cost = model_cost("acoustic", args.so);
        entry.ai = cost.ai_streaming();
        roof.push(
            &format!("{}/{SURVEY_SCHEDULE} t1", entry.model),
            entry.ai,
            entry.gpts_per_s,
            cost.flops,
        );
        entry.roof_pct = roof.roof_share(roof.entries.last().unwrap());
        println!(
            "  acoustic {SURVEY_SCHEDULE} ({SURVEY_SHOTS} shots) {survey_kernel}: {:.3} GPts/s \
             (barrier {:.1}%, {} trace events)",
            entry.gpts_per_s,
            100.0 * entry.barrier_wait_share,
            trace.events.len(),
        );
        table.row(&[
            entry.model.clone(),
            entry.schedule.clone(),
            entry.kernel.clone(),
            f3(entry.gpts_per_s),
            format!("{:.1}", 100.0 * entry.barrier_wait_share),
            format!("{:.2}", entry.worst_imbalance),
            format!("{:.3}", entry.critical_path_ms),
            entry.dropped_events.to_string(),
            format!("{:.2}", entry.ai),
            format!("{:.1}", 100.0 * entry.roof_pct),
        ]);
        report.entries.push(entry);
    }

    table.print();
    print!("{}", roof.render());

    match report.write(&args.out) {
        Ok(p) => println!("report → {}", p.display()),
        Err(e) => {
            eprintln!("cannot write report: {e}");
            std::process::exit(2);
        }
    }
}
