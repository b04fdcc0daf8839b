//! The benchmark's metric names and units. `BENCHMARK.json` lists the same
//! names (a test holds the two together); a run must report every name of
//! its kind exactly once.

use crate::json::{self, Value};

/// `--seconds` when `run.sh` is called without it; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: f64 = 16.0;

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// One layer each (layer = crate), from the traced run. A metric that does
/// not apply to a workload reads 0 there; none of those is a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grid.model_build_s", "s"),
    ("grid.working_set_mb", "MB"),
    ("sparse.precompute_s", "s"),
    ("sparse.affected_points", "count"),
    ("sparse.overhead_mb", "MB"),
    ("sparse.classic_step_us", "us"),
    ("sparse.fused_share", "ratio"),
    ("stencil.row_gpts", "Gpts/s"),
    ("stencil.row_gpts_scalar", "Gpts/s"),
    ("stencil.backend_speedup", "ratio"),
    ("stencil.scalar_solve_ratio", "ratio"),
    ("stencil.kernel_share", "ratio"),
    ("stencil.ai_flop_per_byte", "flop/B"),
    ("stencil.gflops", "GFLOP/s"),
    ("stencil.roof_pct", "%"),
    ("machine.peak_gflops", "GFLOP/s"),
    ("machine.triad_gbs", "GB/s"),
    ("tiling.baseline_s", "s"),
    ("tiling.wtb_speedup", "ratio"),
    ("tiling.tile_t1_s", "s"),
    ("tiling.temporal_gain", "ratio"),
    ("tiling.executor_overhead", "ratio"),
    ("tiling.plan_build_s", "s"),
    ("tiling.plan_nodes", "count"),
    ("tiling.plan_edges", "count"),
    ("tiling.dirty_cone_s", "s"),
    ("tiling.dirty_nodes", "count"),
    ("tiling.autotune_s", "s"),
    ("tiling.autotune_regret", "ratio"),
    ("tiling.reuse_rate", "ratio"),
    ("tiling.cache_mb", "MB"),
    ("tiling.cache_hit_pct", "%"),
    ("tiling.cache_evictions", "count"),
    ("tiling.cache_fill_ratio", "ratio"),
    ("tiling.warm_cold_ratio", "ratio"),
    ("par.solve_1t_s", "s"),
    ("par.speedup", "ratio"),
    ("par.efficiency", "ratio"),
    ("par.dispatch_us", "us"),
    ("core.solver_build_s", "s"),
    ("core.field_bitwise_equal", "count"),
    ("core.trace_maxrel_err", "ratio"),
    ("survey.shots_per_s", "1/s"),
    ("survey.assets_build_pct", "%"),
    ("survey.shard_efficiency", "ratio"),
    ("survey.service_overhead_pct", "%"),
    ("obs.off_overhead_pct", "%"),
    ("obs.on_overhead_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// `BENCHMARK.json`, at the root of the checkout this program was built in.
pub fn benchmark_json() -> Result<Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

/// Metric values gathered during a run, checked against a table on the way
/// out.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric `{name}` reported twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every name of `table`, in
    /// its order, with its unit. A missing or stray name is a bug here.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric `{name}` is not in the table"
            );
        }
        Value::Obj(
            table
                .iter()
                .map(|(name, unit)| {
                    let value = self
                        .get(name)
                        .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                    (
                        name.to_string(),
                        Value::obj(vec![
                            ("value", Value::Num(value)),
                            ("unit", Value::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn name_ok(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    fn listed(b: &Value, key: &str) -> Vec<(String, String)> {
        b.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_stay_inside_the_charset() {
        let workloads = workloads::table(false);
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(workloads.iter().map(|w| w.name.as_str()));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name_ok(name, 64, "_.-"), "bad name `{name}`");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "`{name}`"
            );
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(unit, 16, "_/%.-"), "bad unit `{unit}`");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let b = benchmark_json().unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&b, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&b, "per_layer"), own(PER_LAYER));
        let named: Vec<&str> = b
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let table = workloads::table(false);
        assert_eq!(
            named,
            table.iter().map(|w| w.name.as_str()).collect::<Vec<_>>()
        );
        assert_eq!(
            b.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn bounds_keep_the_contract() {
        let b = benchmark_json().unwrap();
        let e2e = b.get("end_to_end").and_then(Value::as_arr).unwrap();
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        for m in e2e {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25);
            assert!(bound(m) <= bound(setup), "setup_s has the largest bound");
        }
    }

    #[test]
    fn result_object_holds_every_name_and_no_other() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let v = m.to_json(END_TO_END);
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Metrics::default().to_json(END_TO_END);
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn a_stray_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.set("solve_s", 1.0);
        m.to_json(&[("setup_s", "s")]);
    }
}
