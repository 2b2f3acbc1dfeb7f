//! The metric vocabulary and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`; a test keeps
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics a user sees, reported by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("effective_bits", "bits"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run of every workload; a
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_s", "s"),
    ("data.generate_s", "s"),
    ("models.calibrate_s", "s"),
    ("core.profile_s", "s"),
    ("nn.suffix_replays", "count"),
    ("nn.node_evals", "count"),
    ("nn.node_evals_per_s", "1/s"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_macs", "count"),
    ("tensor.macs_per_gemm_call", "count"),
    ("tensor.gmac_per_s", "GMAC/s"),
    ("nn.inventory_s", "s"),
    ("core.eval.fp_s", "s"),
    ("core.search_s", "s"),
    ("core.search.evaluations", "count"),
    ("core.search.ms_per_eval", "ms"),
    ("optim.allocate_s", "s"),
    ("core.validate_s", "s"),
    ("core.validate.attempts_per_objective", "count"),
    ("alloc.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("nn.classify_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("router.attempts_per_request", "count"),
    ("router.hedges", "count"),
    ("router.retries", "count"),
    ("router.hop_p50_us", "us"),
    ("loadgen.late_p50_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("client.p99_us", "us"),
    ("client.tail_pct", "%"),
    ("client.tail_us", "us"),
    ("client.samples", "count"),
    ("loadgen.capacity.sent", "count"),
    ("loadgen.capacity.ok", "count"),
    ("loadgen.capacity.failed", "count"),
    ("loadgen.open.sent", "count"),
    ("loadgen.open.ok", "count"),
    ("loadgen.open.failed", "count"),
    ("host.steal_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is valid: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.`, `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, or objectives to allocate).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Descriptions of failed output checks.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// Human-readable lines (`name value unit`) for every metric set,
    /// followed by the JSON result line restricted to `declared`.
    ///
    /// # Errors
    ///
    /// Names a declared metric the run did not set, or a value that is
    /// not finite.
    pub fn render(&self, declared: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = String::new();
        for p in &self.problems {
            let _ = writeln!(out, "check failed: {p}");
        }
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        for (name, value) in &self.values {
            let _ = writeln!(out, "{name} {value} {}", unit_of(name));
        }
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        assert!(valid_name("setup_s"));
        assert!(valid_name("core.search.ms_per_eval"));
        assert!(valid_name("pipeline-deep"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name(".dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("ünicode"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn unit_grammar() {
        for u in ["ms", "s", "1/s", "count", "%", "GMAC/s", "MB", "us"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn declared_metrics_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The declarations must match the repository's `BENCHMARK.json`.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = mupod_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let root = doc.as_object().expect("object");
        let listed = |key: &str| -> Vec<(String, String)> {
            root[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric object");
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = root["workloads"]
            .as_array()
            .expect("array")
            .iter()
            .map(|w| {
                w.as_object().expect("workload")["name"]
                    .as_str()
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn render_prints_lines_then_one_json_object() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("setup_s", 0.25);
        r.set("extra", 7.0);
        let text = r.render(&[("setup_s", "s")]).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("extra 7 \n"));
        assert!(mupod_obs::json::parse(last).is_ok());
        r.check(false, || "class mismatch".to_string());
        let text = r.render(&[("setup_s", "s")]).unwrap();
        assert!(text.starts_with("check failed: class mismatch\n"));
        assert!(text.contains("\"correct\": false"));
        assert!(r.render(&[("latency_ms", "ms")]).is_err());
        r.set("setup_s", f64::NAN);
        assert!(r.render(&[("setup_s", "s")]).is_err());
    }
}
