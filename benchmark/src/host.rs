//! What the numbers were measured on: stamped into every results file.

use crate::json::Value;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Hardware threads of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads every workload runs on: `min(nproc, 4)`, so numbers from hosts of
/// four cores and more stay comparable.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host, toolchain and run settings. `run.sh` passes the compiler version
/// and git revision through the environment; a checkout that is not a git
/// repository reads `unknown`.
pub fn fingerprint(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |index: u32| {
        read_trimmed(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .unwrap_or_else(|| "unknown".to_string())
    };
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Value::obj(vec![
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("l2", Value::Str(cache(2))),
        ("l3", Value::Str(cache(3))),
        ("rustc", Value::Str(env("TEMPEST_BENCH_RUSTC"))),
        ("git_sha", Value::Str(env("TEMPEST_BENCH_GIT_SHA"))),
        ("threads", Value::Num(bench_threads() as f64)),
        ("seed", Value::Num(seed as f64)),
    ])
}
