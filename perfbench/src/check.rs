//! Output correctness: every cell's record against an expected record, plus
//! the reference-free invariants every record must satisfy, and the one
//! accuracy figure the repository can state.

use reunion_core::ExecutionMode;
use reunion_sim::{parse_json, ExperimentGrid, ExperimentReport, JsonValue, MeasureSummary};

use crate::grids::{GridKind, DEFAULT_SEED};

/// The stored full-profile reports, recorded by the figure binaries.
fn full_reference(kind: GridKind) -> &'static str {
    match kind {
        GridKind::Fig6 => include_str!("../reference/fig6-full.json"),
        GridKind::Table3 => include_str!("../reference/table3-full.json"),
        GridKind::Scaling => include_str!("../reference/scaling-full.json"),
    }
}

/// The report a run must reproduce byte for byte, if one exists: the stored
/// full-profile reference. Non-default seeds have no reference.
pub fn expected_report(kind: GridKind, seed: u64) -> Option<&'static str> {
    (seed == DEFAULT_SEED).then(|| full_reference(kind))
}

/// The `records` array of a serialized report.
///
/// # Errors
///
/// Text that is not a report.
pub fn records_of(report_json: &str) -> Result<Vec<JsonValue>, String> {
    let value = parse_json(report_json).map_err(|e| e.to_string())?;
    match value.get("records") {
        Some(JsonValue::Array(records)) => Ok(records.clone()),
        _ => Err("report has no records array".to_string()),
    }
}

/// Cells of `actual` whose record differs from the record at the same
/// position of `expected`; a missing record on either side counts as a
/// difference. Records compare as parsed JSON, so every printed digit
/// counts.
pub fn differing_cells(expected: &[JsonValue], actual: &[JsonValue]) -> Vec<usize> {
    (0..expected.len().max(actual.len()))
        .filter(|&i| expected.get(i) != actual.get(i))
        .collect()
}

/// Cells whose record breaks an invariant that holds for any seed: the
/// measured window covers exactly the sampled cycles, instructions retire,
/// no pair fails unrecoverably, and a normalized IPC is finite and positive.
pub fn invalid_cells(grid: &ExperimentGrid, report: &ExperimentReport) -> Vec<usize> {
    let sound = |m: &MeasureSummary, cycles: u64| {
        m.cycles == cycles && m.user_instructions > 0 && m.failures == 0 && m.ipc > 0.0
    };
    grid.cells()
        .iter()
        .zip(&report.records)
        .filter(|(cell, record)| {
            let s = grid.cell_sample(cell);
            let cycles = s.window * s.windows as u64;
            let ok = if let Some(n) = record.normalized() {
                n.normalized_ipc.is_finite()
                    && n.normalized_ipc > 0.0
                    && sound(&n.model, cycles)
                    && sound(&n.baseline, cycles)
            } else if let Some(m) = record.raw() {
                sound(m, cycles)
            } else {
                false
            };
            !ok || record.workload != cell.workload.name()
                || record.mode != cell.mode
                || record.patch != cell.patch.label()
        })
        .map(|(cell, _)| cell.index)
        .chain(report.records.len()..grid.cells().len())
        .collect()
}

/// The paper's Figure 6 penalties at a 40-cycle comparison latency, in
/// percent: (mode, commercial, scientific).
const PAPER_FIG6_LAT40: [(ExecutionMode, f64, f64); 2] = [
    (ExecutionMode::Strict, 17.0, 11.0),
    (ExecutionMode::Reunion, 22.0, 13.0),
];

/// Mean absolute error, in percentage points, of the four lat=40 penalties
/// (Strict and Reunion, commercial and scientific) against the paper's
/// printed Figure 6 values. A penalty is `1 − mean normalized IPC` over
/// the group's workloads. The paper's printed Figure 6 penalties are the
/// only reference results the repository holds.
pub fn fidelity_err_pp(report: &ExperimentReport) -> f64 {
    let mut err = 0.0;
    for (mode, commercial, scientific) in PAPER_FIG6_LAT40 {
        let penalty = |commercial_group: bool| {
            let mean = report
                .mean_normalized_where(mode, "lat=40", |c| c.is_commercial() == commercial_group);
            100.0 * (1.0 - mean)
        };
        err += (penalty(true) - commercial).abs() + (penalty(false) - scientific).abs();
    }
    err / (2 * PAPER_FIG6_LAT40.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use reunion_sim::{NormalizedSummary, Outcome, RunRecord};
    use reunion_workloads::WorkloadClass;

    #[test]
    fn a_reference_matches_itself_and_counts_a_tampered_record() {
        for kind in GridKind::ALL {
            let text = expected_report(kind, DEFAULT_SEED).expect("default seed has a reference");
            let reference = records_of(text).expect("reference parses");
            assert!(differing_cells(&reference, &reference).is_empty());

            let tampered_text = text.replacen("\"cycles\": 200000", "\"cycles\": 200001", 1);
            assert_ne!(tampered_text, text, "{}: nothing to tamper", kind.name());
            let tampered = records_of(&tampered_text).expect("still parses");
            assert_eq!(differing_cells(&reference, &tampered), vec![0]);

            let mut short = reference.clone();
            short.pop();
            assert_eq!(
                differing_cells(&reference, &short),
                vec![reference.len() - 1]
            );
        }
    }

    #[test]
    fn non_default_seeds_have_no_reference() {
        assert_eq!(expected_report(GridKind::Fig6, 3), None);
    }

    fn summary() -> MeasureSummary {
        MeasureSummary {
            ipc: 1.0,
            ipc_ci95: 0.0,
            user_instructions: 1,
            cycles: 1,
            mismatches: 0,
            input_incoherence: 0,
            recoveries: 0,
            phase2: 0,
            failures: 0,
            sync_requests: 0,
            tlb_misses: 0,
            phantom_garbage_fills: 0,
            serializing_stall_cycles: 0,
            reexec_penalty_cycles: 0,
            incoherence_per_million: 0.0,
            tlb_misses_per_million: 0.0,
            obs: None,
        }
    }

    fn record(class: WorkloadClass, mode: ExecutionMode, patch: &str, ipc: f64) -> RunRecord {
        RunRecord {
            workload: format!("{class}"),
            class,
            mode,
            patch: patch.to_string(),
            outcome: Outcome::Normalized(Box::new(NormalizedSummary {
                normalized_ipc: ipc,
                ci95: 0.0,
                model: summary(),
                baseline: summary(),
            })),
        }
    }

    #[test]
    fn fidelity_is_the_mean_absolute_penalty_error() {
        use ExecutionMode::{Reunion, Strict};
        use WorkloadClass::{Dss, Oltp, Scientific, Web};
        let records = vec![
            // Strict commercial: mean(0.80, 0.84) = 0.82 → 18% (paper 17: +1).
            record(Web, Strict, "lat=40", 0.80),
            record(Oltp, Strict, "lat=40", 0.84),
            // Strict scientific: 0.91 → 9% (paper 11: −2).
            record(Scientific, Strict, "lat=40", 0.91),
            // Reunion commercial: 0.72 → 28% (paper 22: +6).
            record(Dss, Reunion, "lat=40", 0.72),
            // Reunion scientific: 0.86 → 14% (paper 13: +1).
            record(Scientific, Reunion, "lat=40", 0.86),
            // Other latencies do not count.
            record(Web, Reunion, "lat=0", 0.10),
        ];
        let report = ExperimentReport {
            id: "fig6".to_string(),
            caption: String::new(),
            sample: reunion_core::SampleConfig::quick(),
            sample_overrides: Vec::new(),
            records,
        };
        let err = fidelity_err_pp(&report);
        assert!((err - 2.5).abs() < 1e-9, "{err}");
    }
}
