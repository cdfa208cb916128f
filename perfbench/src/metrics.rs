//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! self-test keeps the two in step.

/// End-to-end metrics (`--trace 0`), in output order: name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in output order: name, unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.cells", "count"),
    ("sim.cell_p50_s", "s"),
    ("sim.cell_tail_s", "s"),
    ("sim.cell_tail_pct", "%"),
    ("sim.cell_max_s", "s"),
    ("sim.idle_share", "ratio"),
    ("workloads.gen_s", "s"),
    ("core.new_s", "s"),
    ("core.model_ns_per_cycle", "ns"),
    ("core.baseline_ns_per_cycle", "ns"),
    ("core.skip_ratio", "ratio"),
    ("core.tick_ns_per_cycle", "ns"),
    ("core.next_ready_ns", "ns"),
    ("core.skip_speedup", "ratio"),
    ("core.pair.intervals_compared", "count"),
    ("core.pair.mismatches", "count"),
    ("core.pair.recoveries", "count"),
    ("core.pair.phase2", "count"),
    ("core.pair.sync_requests", "count"),
    ("core.pair.check_bus_waits", "cycles"),
    ("core.pair.match_ratio", "ratio"),
    ("core.check_bus.messages", "count"),
    ("cpu.retired_user", "count"),
    ("cpu.rollbacks", "count"),
    ("cpu.mispredicts", "count"),
    ("cpu.intervals", "count"),
    ("cpu.serializing_stall_cycles", "cycles"),
    ("cpu.reexec_penalty_cycles", "cycles"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_misses", "count"),
    ("mem.invalidations", "count"),
    ("mem.phantom_requests", "count"),
    ("mem.phantom_garbage_fills", "count"),
    ("mem.xbar_port_waits", "cycles"),
    ("mem.bank_conflict_waits", "cycles"),
    ("mem.bank_queue_stalls", "count"),
    ("trace.pass_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one benchmark run found: how many cells it attempted, how many
/// failed, whether every other check held, and the metric values in
/// catalogue order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cell executions attempted (every repetition and pass counts).
    pub attempted: usize,
    /// Cell executions that panicked or produced a wrong record.
    pub failed: usize,
    /// Checks other than per-cell records that failed, one line each.
    pub problems: Vec<String>,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Whether the run's outputs were all correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Records a check that failed.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("check failed: {message}");
        self.problems.push(message);
    }

    /// The single-line JSON result.
    ///
    /// # Panics
    ///
    /// Panics if the metrics do not follow `catalogue` name for name, or a
    /// value is not finite: both are defects of this program.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "metrics must follow the catalogue");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(catalogue)
            .map(|((name, value), (_, unit))| {
                assert!(value.is_finite(), "{name} = {value}");
                // `f64`'s Display is the shortest text that reads back to
                // the same value, and never uses an exponent.
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_sim::{parse_json, JsonValue};

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(JsonValue::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section}");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn benchmark_json_names_the_workloads() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("parses");
        let Some(JsonValue::Array(items)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        let kinds: Vec<&str> = crate::grids::GridKind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names, kinds);
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut outcome = Outcome {
            attempted: 3,
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect(),
            ..Outcome::default()
        };
        let line = outcome.to_json(&END_TO_END);
        let v = parse_json(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_f64), Some(3.0));
        let metrics = v.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        outcome.failed = 1;
        let v = parse_json(&outcome.to_json(&END_TO_END)).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
    }
}
