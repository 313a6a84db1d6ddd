//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each `fig*`/`table*` binary in `src/bin/` reproduces one artifact of
//! the paper's evaluation (see `DESIGN.md` §5 for the index and
//! `EXPERIMENTS.md` for recorded results); this library holds the
//! plumbing they share: running a catalog circuit through the virtual
//! lab and the logic analyzer, and rendering the per-combination
//! analytics in the style of Figure 4.

#![warn(missing_docs)]

use glc_core::analyze::{AnalyzerConfig, LogicAnalyzer, LogicReport};
use glc_core::verify::{verify, Verdict};
use glc_gates::catalog::CircuitEntry;
use glc_vasim::{Experiment, ExperimentConfig, ExperimentResult};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The paper's default analysis threshold (molecules).
pub const PAPER_THRESHOLD: f64 = 15.0;
/// The paper's acceptable fraction of variation.
pub const PAPER_FOV_UD: f64 = 0.25;

/// One circuit run end to end: experiment + analysis + verification.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Circuit identifier.
    pub id: String,
    /// The analysis threshold used (also the applied input level, as in
    /// D-VASim).
    pub threshold: f64,
    /// The experiment's logged data size (samples).
    pub samples: usize,
    /// Result of Algorithm 1.
    pub report: LogicReport,
    /// Verification against the intended function.
    pub verdict: Verdict,
    /// Wall-clock time of the stochastic experiment.
    pub sim_time: Duration,
    /// Wall-clock time of the logic analysis (the paper's 8.4 s metric).
    pub analysis_time: Duration,
}

/// Runs `entry` with the paper's protocol at the given threshold (which
/// is also the applied input level, matching D-VASim semantics).
///
/// # Panics
///
/// Panics if the experiment or analysis fails — harness binaries treat
/// that as a fatal configuration error.
pub fn run_circuit(entry: &CircuitEntry, threshold: f64, seed: u64) -> CircuitRun {
    let config = ExperimentConfig::paper_protocol(entry.inputs.len(), threshold);
    run_circuit_with_config(entry, threshold, config, seed)
}

/// Like [`run_circuit`] but with a custom experiment configuration.
///
/// # Panics
///
/// See [`run_circuit`].
pub fn run_circuit_with_config(
    entry: &CircuitEntry,
    threshold: f64,
    config: ExperimentConfig,
    seed: u64,
) -> CircuitRun {
    let start = Instant::now();
    let result: ExperimentResult = Experiment::new(config)
        .run(&entry.model, &entry.inputs, &entry.output, seed)
        .unwrap_or_else(|e| panic!("{}: experiment failed: {e}", entry.id));
    let sim_time = start.elapsed();

    let start = Instant::now();
    let report = LogicAnalyzer::new(AnalyzerConfig::new(threshold).fov_ud(PAPER_FOV_UD))
        .analyze(&result.data)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", entry.id));
    let analysis_time = start.elapsed();

    let verdict = verify(&report, &entry.expected);
    CircuitRun {
        id: entry.id.clone(),
        threshold,
        samples: result.data.len(),
        report,
        verdict,
        sim_time,
        analysis_time,
    }
}

/// Renders the Figure 4-style analytics table of a report.
pub fn combo_table(report: &LogicReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  combo | Case_I | High_O | Var_O | FOV_EST | outcome");
    let _ = writeln!(
        out,
        "  ------+--------+--------+-------+---------+----------"
    );
    for combo in &report.combos {
        let _ = writeln!(
            out,
            "  {:>5} | {:>6} | {:>6} | {:>5} | {:>7.4} | {:?}",
            combo.label,
            combo.case_count,
            combo.high_count,
            combo.variation_count,
            combo.fov_est,
            combo.outcome
        );
    }
    out
}

/// Renders one summary line (id, expression, fitness, verdict).
pub fn summary_line(run: &CircuitRun) -> String {
    format!(
        "{:<12} {} = {:<40} fitness {:>6.2}%  {}",
        run.id,
        run.report.output_name,
        run.report.expression.to_string(),
        run.report.fitness,
        if run.verdict.equivalent {
            "OK".to_string()
        } else {
            format!(
                "{} wrong state(s): {}",
                run.verdict.wrong_count(),
                run.verdict.wrong_labels().join(",")
            )
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_gates::catalog;

    #[test]
    fn run_circuit_produces_consistent_metadata() {
        let entry = catalog::by_id("book_not").unwrap();
        let config = ExperimentConfig::new(200.0, PAPER_THRESHOLD);
        let run = run_circuit_with_config(&entry, PAPER_THRESHOLD, config, 1);
        assert_eq!(run.id, "book_not");
        assert_eq!(run.samples, 401);
        assert!(run.verdict.equivalent, "{}", summary_line(&run));
        assert!(run.report.fitness > 95.0);
    }

    #[test]
    fn combo_table_contains_all_rows() {
        let entry = catalog::by_id("book_nor").unwrap();
        let config = ExperimentConfig::new(150.0, PAPER_THRESHOLD);
        let run = run_circuit_with_config(&entry, PAPER_THRESHOLD, config, 1);
        let table = combo_table(&run.report);
        for label in ["00", "01", "10", "11"] {
            assert!(table.contains(label), "missing row {label}:\n{table}");
        }
        assert!(table.contains("Case_I"));
    }

    #[test]
    fn summary_line_reports_wrong_states() {
        let entry = catalog::by_id("book_and").unwrap();
        let config = ExperimentConfig::new(800.0, PAPER_THRESHOLD);
        let mut run = run_circuit_with_config(&entry, PAPER_THRESHOLD, config, 1);
        // book_and's `11` state rides near its threshold: with this
        // protocol about 21.6% of seeds miss it on either wait stream
        // (3,000 seeds), so both verdicts are forged from the report for
        // formatting coverage: against its own truth table, and against
        // another function.
        run.verdict = glc_core::verify(&run.report, &run.report.truth_table());
        assert!(summary_line(&run).contains("OK"));
        run.verdict = glc_core::verify(&run.report, &glc_core::TruthTable::from_hex(2, 0x1));
        assert!(summary_line(&run).contains("wrong state"));
    }
}
