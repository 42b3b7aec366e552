//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

/// Metric names per mode, in print order: what an untraced run reports
/// (end-to-end) and what a traced run reports (per layer). Every workload
/// prints every name of its mode; a layer a workload does not exercise
/// reads 0, and a source the program no longer offers is left out.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p99", "ms"),
    ("jobs_per_s", "1/s"),
    ("qor.area_ratio", "ratio"),
    ("qor.delay_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The standard flow's passes, as `pass_s.*` / `pass_applied.*` suffixes.
pub const PASSES: [&str; 5] = [
    "micro-critic",
    "compile",
    "bottom-up-logic",
    "fanout-repair",
    "timing-area",
];

/// Per-layer metric names and units (the `pass_s.*` and `pass_applied.*`
/// families are expanded from [`PASSES`] by [`per_layer`]).
const LAYER_FIXED: [(&str, &str); 21] = [
    ("pass_s.rest", "s"),
    ("engine.rewrites", "count"),
    ("engine.match_repairs", "count"),
    ("engine.sweeps", "count"),
    ("engine.repair_s", "s"),
    ("sta.refreshes", "count"),
    ("sta.full_rebuilds", "count"),
    ("par.jobs", "count"),
    ("par.steals", "count"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.result_ms.p50", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.exec_ms.mean", "ms"),
    ("serve.pass_ms.mean", "ms"),
    ("serve.rest_ms.mean", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.prefix_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.store_designs", "count"),
    ("serve.rss_kib_per_job", "KiB"),
    ("host.ref_ms", "ms"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PASSES
        .iter()
        .map(|p| (format!("pass_s.{p}"), "s"))
        .collect();
    out.extend(
        PASSES
            .iter()
            .map(|p| (format!("pass_applied.{p}"), "count")),
    );
    out.extend(LAYER_FIXED.iter().map(|(n, u)| (n.to_string(), *u)));
    out.push(("trace.overhead_ratio".to_owned(), "ratio"));
    out
}

/// A run's outcome, ready to print.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked (designs, or requests).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: std::collections::BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line for `names`; metrics without a value are left out.
    pub fn line(&self, names: &[(String, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.values.get(name)?;
                let v = if v.is_finite() { *v } else { 0.0 };
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(v)
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Every digit of the value (shortest round-trip form), always with a
/// decimal point or exponent so the JSON reads as a number.
fn fmt_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The end-to-end names as owned pairs.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_has_exact_keys_and_skips_absent_metrics() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        o.set("flow_s", 12.0);
        let line = o.line(&end_to_end());
        let v = milo_serve::parse_json(&line).expect("valid json");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("flow_s")
                .and_then(|f| f.get("value"))
                .and_then(|x| x.as_f64()),
            Some(12.0)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|f| f.get("unit"))
                .and_then(|x| x.as_str()),
            Some("s")
        );
        assert!(m.get("ok_ratio").is_none(), "absent metric left out");
        assert!(line.contains("\"value\": 12.0,"), "{line}");
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let o = Outcome {
            attempted: 2,
            failed: 1,
            ..Outcome::default()
        };
        assert!(o.line(&end_to_end()).starts_with("{\"correct\": false"));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let set: std::collections::BTreeSet<&String> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(set.len(), names.len());
        assert_eq!(names.len(), 32);
    }
}
