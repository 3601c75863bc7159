//! The declared metric sets and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed on every workload by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics, printed on every workload by a traced run. A metric
/// of a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("experiments.fig03_s", "s"),
    ("experiments.fig05_s", "s"),
    ("experiments.fig09_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig12_s", "s"),
    ("experiments.fig13_s", "s"),
    ("compiler.build_ms", "ms"),
    ("program.capture_ns_per_instr", "ns"),
    ("program.decode_ns_per_record", "ns"),
    ("program.artifact_bytes_per_record", "B"),
    ("program.depgraph_ns_per_record", "ns"),
    ("program.fusion_ns_per_record", "ns"),
    ("program.fused_share", "share"),
    ("sim.branch_oracle_ns_per_record", "ns"),
    ("sim.icache_oracle_ns_per_record", "ns"),
    ("sim.dvi_oracle_ns_per_record", "ns"),
    ("sim.core_ns_per_instr", "ns"),
    ("sim.core_ns_per_cycle", "ns"),
    ("sim.matrix_s", "s"),
    ("sim.matrix.parallel_efficiency", "share"),
    ("sim.matrix.unique_members", "count"),
    ("sim.matrix.shared_builds", "count"),
    ("sim.matrix.build_reuse_hits", "count"),
    ("sim.matrix.steals", "count"),
    ("sim.members", "count"),
    ("sim.cycles", "count"),
    ("sim.program_instrs", "count"),
    ("sim.rename_stalls_no_reg", "count"),
    ("sim.rename_stalls_no_window", "count"),
    ("sim.fused_records", "count"),
    ("sim.fallback_records", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.branch_mispredicts", "count"),
    ("core.saves_restores_eliminated", "count"),
    ("core.regs_reclaimed_early", "count"),
    ("service.http.upload_ms", "ms"),
    ("service.http.submit_ms", "ms"),
    ("service.http.results_ms", "ms"),
    ("service.http.polls_per_job", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.worker_utilization", "share"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_damaged", "count"),
    ("service.members_simulated", "count"),
    ("service.matrix_turns", "count"),
    ("service.shared_builds", "count"),
    ("service.jobs_failed", "count"),
    ("service.worker_deaths", "count"),
    ("service.memo_probe_us", "us"),
    ("service.memo_store_us", "us"),
    ("bench.trace_overhead", "ratio"),
    ("bench.generate_s", "s"),
];

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or a digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured: operation counts, the correctness verdict and
/// the metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (figure members or service jobs).
    pub attempted: u64,
    /// Operations that failed. Correctness mismatches and panics are
    /// counted separately and added when the result is printed.
    pub failed: u64,
    /// Correctness mismatches found by the checks.
    pub mismatches: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared metric: the printed set must be
    /// exactly the declared one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            valid_name(name) && END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and the value
    /// and unit of every metric in `declared`. Any failed operation,
    /// mismatch or panic makes the run incorrect. Declared metrics the run
    /// did not set read 0; non-finite values read 0 and make the run
    /// incorrect.
    #[must_use]
    pub fn result_line(&self, declared: &[(&str, &str)], panics: u64) -> String {
        let failed = (self.failed + panics).min(self.attempted.max(1));
        let finite = declared.iter().all(|(n, _)| self.get(n).unwrap_or(0.0).is_finite());
        let correct =
            self.failed == 0 && self.mismatches == 0 && panics == 0 && finite && self.attempted > 0;
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.attempted.max(1)
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            // Adding 0.0 turns an empty sum's -0.0 into 0.
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
            let sep = if i == 0 { "" } else { ", " };
            write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_service::json::Json;

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list present")
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    }

    #[test]
    fn printed_metric_sets_equal_the_declared_ones() {
        assert_eq!(owned(END_TO_END), declared_in_benchmark_json("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared_in_benchmark_json("per_layer"));
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        assert!(names.iter().all(|n| valid_name(n)), "invalid name in {names:?}");
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
    }

    #[test]
    fn name_validity_rules() {
        assert!(valid_name("sim.core_ns_per_instr"));
        assert!(valid_name("service-fresh"));
        assert!(valid_name("0ms"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/unit"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_json_with_every_declared_metric() {
        let mut report = Report { attempted: 4, failed: 1, ..Report::default() };
        report.set("wall_s", 1.25);
        let line = report.result_line(END_TO_END, 0);
        let json = Json::parse(&line).expect("result line parses");
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = json.get("metrics").and_then(Json::as_obj).expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len());
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn failed_operations_fail_the_run() {
        let report = Report { attempted: 10, failed: 1, ..Report::default() };
        let json = Json::parse(&report.result_line(END_TO_END, 0)).expect("parses");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
        let clean = Report { attempted: 10, ..Report::default() };
        let json = Json::parse(&clean.result_line(END_TO_END, 0)).expect("parses");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn panics_fail_the_run() {
        let report = Report { attempted: 2, ..Report::default() };
        let json = Json::parse(&report.result_line(END_TO_END, 1)).expect("parses");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(1));
    }
}
