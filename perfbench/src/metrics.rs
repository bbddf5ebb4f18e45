//! The metric vocabulary and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("campaign_s", "s"), ("sim_rate", "sim_s/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("campaign.plan_ms", "ms"),
    ("campaign.cells", "count"),
    ("campaign.classes", "count"),
    ("executor.cell_ms.p50", "ms"),
    ("executor.cell_ms.max", "ms"),
    ("executor.cell_samples", "count"),
    ("executor.busy_frac", "fraction"),
    ("engine.epochs", "count"),
    ("engine.strides", "count"),
    ("engine.mbind_calls", "count"),
    ("engine.migrate_events", "count"),
    ("engine.migrated_pages", "count"),
    ("engine.sim_s", "s"),
    ("engine.us_per_epoch", "us"),
    ("numasim.spawn_ms", "ms"),
    ("numasim.mbind_ms", "ms"),
    ("numasim.step_us.drain.p50", "us"),
    ("numasim.step_us.drain.p99", "us"),
    ("numasim.step_us.drain.samples", "count"),
    ("numasim.step_us.steady.p50", "us"),
    ("numasim.step_us.steady.p99", "us"),
    ("numasim.step_us.steady.samples", "count"),
    ("core.canonical_ms", "ms"),
    ("fleet.arrivals_ms", "ms"),
    ("fleet.jobs", "count"),
    ("fleet.host_ms_per_sim_s", "ms/s"),
    ("cache.store_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.hit_frac", "fraction"),
    ("cache.bytes", "bytes"),
    ("report.json_ms", "ms"),
    ("report.bytes", "bytes"),
    ("json.parse_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.bytes", "bytes"),
    ("trace.dropped_events", "count"),
    ("trace.truncated_cells", "count"),
    ("trace.runs", "count"),
];

/// Values measured by one invocation, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: a JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, where `metrics` holds every
    /// metric of `vocabulary` and nothing else. A metric that was not
    /// measured, or measured as NaN or infinite, is an error.
    pub fn result_line(
        &self,
        vocabulary: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self.0.keys().find(|k| !vocabulary.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in this run's vocabulary"));
        }
        let mut metrics = Vec::with_capacity(vocabulary.len());
        for (name, unit) in vocabulary {
            let v = *self.0.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_workloads::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn vocabulary_matches_benchmark_json() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let mut v = Values::default();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            v.set(n, 0.5 + i as f64);
        }
        let line = v.result_line(&END_TO_END, true, 64, 0).expect("complete");
        let doc = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Json::as_object).expect("metrics object");
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string()))
            .collect();
        assert_eq!(printed, owned(&END_TO_END));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("sim_rate"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn result_line_rejects_missing_foreign_and_non_finite_metrics() {
        let mut v = Values::default();
        v.set("campaign_s", 1.0);
        assert!(v.result_line(&END_TO_END, true, 1, 0).is_err());
        for (n, _) in END_TO_END {
            v.set(n, 1.0);
        }
        assert!(v.result_line(&END_TO_END, true, 1, 0).is_ok());
        assert!(v.result_line(&PER_LAYER, true, 1, 0).is_err());
        v.set("setup_s", f64::NAN);
        assert!(v.result_line(&END_TO_END, true, 1, 0).is_err());
    }
}
