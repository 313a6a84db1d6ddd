//! Algorithm 1 end-to-end: the logic analysis and verification pipeline.
//!
//! [`LogicAnalyzer::analyze`] takes [`AnalogData`] (the paper's `SDA`)
//! plus the parameters `N` (implicit in the data), `ThVAL`, `FOV_UD`,
//! `IS`/`OS` (the series names) and produces a [`LogicReport`]: the
//! per-combination statistics (`Case_I`, `High_O`, `Var_O`, `FOV_EST`),
//! the constructed Boolean expression, and the percentage fitness of the
//! estimated Boolean expression (`PFoBE`, eq. 3).

use crate::boolexpr::{combo_string, BoolExpr, TruthTable};
use crate::cases::CaseAnalysis;
use crate::data::AnalogData;
use crate::digitize::digitize;
use crate::filters::{classify, FilterOutcome};
use crate::variation::{analyze as variation_analyze, VariationStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error from [`LogicAnalyzer::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// More input species than the analyzer supports.
    TooManyInputs(usize),
    /// `FOV_UD` must lie in `[0, 1]`.
    InvalidFovBound(f64),
    /// A threshold is non-positive or non-finite.
    InvalidThreshold(f64),
    /// Per-input thresholds were supplied but their count differs from
    /// the number of inputs.
    ThresholdCountMismatch {
        /// Thresholds supplied.
        supplied: usize,
        /// Inputs in the data.
        inputs: usize,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::TooManyInputs(n) => {
                write!(f, "{n} input species exceed the supported maximum of 16")
            }
            AnalyzeError::InvalidFovBound(v) => {
                write!(f, "FOV_UD must lie in [0, 1], got {v}")
            }
            AnalyzeError::InvalidThreshold(v) => {
                write!(f, "threshold must be positive and finite, got {v}")
            }
            AnalyzeError::ThresholdCountMismatch { supplied, inputs } => write!(
                f,
                "{supplied} per-input thresholds supplied for {inputs} inputs"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerConfig {
    /// `ThVAL`: the threshold applied to every I/O species (the paper
    /// uses 15 molecules in the main experiments).
    pub threshold: f64,
    /// Optional per-input thresholds overriding
    /// [`threshold`](AnalyzerConfig::threshold); one per input, in input
    /// order.
    pub input_thresholds: Option<Vec<f64>>,
    /// Optional output threshold overriding the shared one.
    pub output_threshold: Option<f64>,
    /// `FOV_UD`: acceptable fraction of variation (paper: 0.25).
    pub fov_ud: f64,
    /// Minimize the extracted expression with Quine–McCluskey for
    /// display (`true`, default) or keep the canonical sum of minterms.
    pub minimize: bool,
    /// Treat input combinations that never occurred in the data as
    /// *don't-cares* during minimization (default `false`: the paper
    /// reads them as logic-0). Don't-cares can only simplify the printed
    /// expression; the extracted minterm set and fitness are unaffected.
    pub unobserved_as_dont_care: bool,
}

impl AnalyzerConfig {
    /// Configuration with the paper's defaults (`FOV_UD = 0.25`,
    /// minimized expression) and the given shared threshold.
    pub fn new(threshold: f64) -> Self {
        AnalyzerConfig {
            threshold,
            input_thresholds: None,
            output_threshold: None,
            fov_ud: 0.25,
            minimize: true,
            unobserved_as_dont_care: false,
        }
    }

    /// Sets `FOV_UD` (builder style).
    pub fn fov_ud(mut self, fov_ud: f64) -> Self {
        self.fov_ud = fov_ud;
        self
    }

    /// Sets per-input thresholds (builder style).
    pub fn input_thresholds(mut self, thresholds: Vec<f64>) -> Self {
        self.input_thresholds = Some(thresholds);
        self
    }

    /// Sets the output threshold (builder style).
    pub fn output_threshold(mut self, threshold: f64) -> Self {
        self.output_threshold = Some(threshold);
        self
    }

    /// Keeps the canonical (unminimized) sum of minterms (builder style).
    pub fn canonical(mut self) -> Self {
        self.minimize = false;
        self
    }

    /// Treats unobserved combinations as don't-cares when minimizing
    /// (builder style).
    pub fn dont_care_unobserved(mut self) -> Self {
        self.unobserved_as_dont_care = true;
        self
    }
}

/// Per-combination row of the report (one bar-group of the paper's
/// Figure 4 analytics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComboReport {
    /// Combination index.
    pub combo: usize,
    /// Bit-string label, e.g. `011`.
    pub label: String,
    /// `Case_I[i]`.
    pub case_count: usize,
    /// `High_O[i]`.
    pub high_count: usize,
    /// `Var_O[i]`.
    pub variation_count: usize,
    /// `FOV_EST[i]` (eq. 1).
    pub fov_est: f64,
    /// Outcome of the two filters.
    pub outcome: FilterOutcome,
}

/// The result of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicReport {
    /// Input species names (`IS`), most significant combination bit
    /// first.
    pub input_names: Vec<String>,
    /// Output species name (`OS`).
    pub output_name: String,
    /// Per-combination analytics.
    pub combos: Vec<ComboReport>,
    /// Combinations accepted as logic-1 by both filters.
    pub minterms: Vec<usize>,
    /// The extracted Boolean expression (minimized if configured).
    pub expression: BoolExpr,
    /// `PFoBE` (eq. 3), in percent.
    pub fitness: f64,
}

impl LogicReport {
    /// The extracted function as a truth table (unobserved combinations
    /// read as 0, as in the paper's expressions).
    pub fn truth_table(&self) -> TruthTable {
        TruthTable::from_minterms(self.input_names.len(), &self.minterms)
    }

    /// Combinations that never occurred in the data.
    pub fn unobserved(&self) -> Vec<usize> {
        self.combos
            .iter()
            .filter(|c| c.outcome == FilterOutcome::Unobserved)
            .map(|c| c.combo)
            .collect()
    }
}

impl fmt::Display for LogicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}({}) = {}   [fitness {:.2}%]",
            self.output_name,
            self.input_names.join(", "),
            self.expression,
            self.fitness
        )?;
        writeln!(f, "combo | Case_I | High_O | Var_O | FOV_EST | outcome")?;
        for combo in &self.combos {
            writeln!(
                f,
                "{:>5} | {:>6} | {:>6} | {:>5} | {:>7.4} | {:?}",
                combo.label,
                combo.case_count,
                combo.high_count,
                combo.variation_count,
                combo.fov_est,
                combo.outcome
            )?;
        }
        Ok(())
    }
}

/// The logic analysis and verification engine (Algorithm 1).
#[derive(Debug, Clone)]
pub struct LogicAnalyzer {
    config: AnalyzerConfig,
}

impl LogicAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        LogicAnalyzer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Runs Algorithm 1 on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] for invalid configuration or unsupported
    /// input counts; the data itself is pre-validated by construction.
    pub fn analyze(&self, data: &AnalogData) -> Result<LogicReport, AnalyzeError> {
        let n = data.input_count();
        if n > 16 {
            return Err(AnalyzeError::TooManyInputs(n));
        }
        if !(0.0..=1.0).contains(&self.config.fov_ud) {
            return Err(AnalyzeError::InvalidFovBound(self.config.fov_ud));
        }
        let check = |th: f64| -> Result<f64, AnalyzeError> {
            if th.is_finite() && th > 0.0 {
                Ok(th)
            } else {
                Err(AnalyzeError::InvalidThreshold(th))
            }
        };
        let input_thresholds: Vec<f64> = match &self.config.input_thresholds {
            Some(list) => {
                if list.len() != n {
                    return Err(AnalyzeError::ThresholdCountMismatch {
                        supplied: list.len(),
                        inputs: n,
                    });
                }
                list.iter().map(|&t| check(t)).collect::<Result<_, _>>()?
            }
            None => vec![check(self.config.threshold)?; n],
        };
        let output_threshold = check(
            self.config
                .output_threshold
                .unwrap_or(self.config.threshold),
        )?;

        // Step 1 — ADC.
        let digital_inputs: Vec<Vec<bool>> = (0..n)
            .map(|j| digitize(data.input(j), input_thresholds[j]))
            .collect();
        let digital_output = digitize(data.output(), output_threshold);

        // Step 2 — CaseAnalyzer.
        let cases = CaseAnalysis::analyze(&digital_inputs, &digital_output);

        // Step 3 — VariationAnalyzer.
        let stats: Vec<VariationStats> = variation_analyze(&cases);

        // Step 4 — ConstBoolExpr: both filters.
        let combos: Vec<ComboReport> = stats
            .iter()
            .map(|s| ComboReport {
                combo: s.combo,
                label: combo_string(s.combo, n),
                case_count: s.case_count,
                high_count: s.high_count,
                variation_count: s.variation_count,
                fov_est: s.fov_est(),
                outcome: classify(s, self.config.fov_ud),
            })
            .collect();
        let minterms: Vec<usize> = combos
            .iter()
            .filter(|c| c.outcome.is_high())
            .map(|c| c.combo)
            .collect();

        let input_names = data.input_names();
        let expression = if self.config.minimize {
            if self.config.unobserved_as_dont_care {
                let dont_cares: Vec<usize> = combos
                    .iter()
                    .filter(|c| c.outcome == FilterOutcome::Unobserved)
                    .map(|c| c.combo)
                    .collect();
                let cubes = crate::qmc::minimize(n, &minterms, &dont_cares);
                BoolExpr::from_cubes(input_names.clone(), cubes)
            } else {
                BoolExpr::minimized(
                    input_names.clone(),
                    &TruthTable::from_minterms(n, &minterms),
                )
            }
        } else {
            BoolExpr::from_minterms(input_names.clone(), &minterms)
        };

        // Step 5 — PFoBE (eq. 3): sum FOV_EST over the accepted (high)
        // combinations, normalized by the number of combinations.
        let nc = (1usize << n) as f64;
        let penalty: f64 = combos
            .iter()
            .filter(|c| c.outcome.is_high())
            .map(|c| c.fov_est)
            .sum::<f64>()
            / nc;
        let fitness = 100.0 - penalty * 100.0;

        Ok(LogicReport {
            input_names,
            output_name: data.output_name().to_string(),
            combos,
            minterms,
            expression,
            fitness,
        })
    }

    /// Runs Algorithm 1 once per output species over shared input
    /// series — the paper's "Boolean logic analysis on the entire
    /// circuit as well as on the intermediate circuit components":
    /// probing every repressor of a circuit takes one call.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalyzeError`] from the first failing output;
    /// series validation failures surface as panics in
    /// [`AnalogData::new`]'s error, so callers should pass series of
    /// matching length (e.g. straight from one trace).
    ///
    /// # Panics
    ///
    /// Panics if a series combination fails [`AnalogData`] validation
    /// (mismatched lengths or duplicate names).
    pub fn analyze_each(
        &self,
        inputs: &[(String, Vec<f64>)],
        outputs: &[(String, Vec<f64>)],
    ) -> Result<Vec<LogicReport>, AnalyzeError> {
        outputs
            .iter()
            .map(|output| {
                let data = AnalogData::new(inputs.to_vec(), output.clone())
                    .unwrap_or_else(|e| panic!("invalid series for `{}`: {e}", output.0));
                self.analyze(&data)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds data where each combination is held for `hold` samples in
    /// ascending order and the output follows `f` exactly (after an
    /// optional per-segment startup glitch).
    fn synthetic(n: usize, hold: usize, f: impl Fn(usize) -> bool) -> AnalogData {
        let mut inputs: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut output = Vec::new();
        for combo in 0..1usize << n {
            for _ in 0..hold {
                for (j, series) in inputs.iter_mut().enumerate() {
                    let bit = (combo >> (n - 1 - j)) & 1 == 1;
                    series.push(if bit { 30.0 } else { 2.0 });
                }
                output.push(if f(combo) { 28.0 } else { 1.0 });
            }
        }
        AnalogData::new(
            inputs
                .into_iter()
                .enumerate()
                .map(|(j, s)| (format!("I{j}"), s))
                .collect(),
            ("Y".into(), output),
        )
        .unwrap()
    }

    #[test]
    fn perfect_and_gate_extracts_and() {
        let data = synthetic(2, 100, |m| m == 3);
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert_eq!(report.minterms, vec![3]);
        assert_eq!(report.expression.to_string(), "I0 * I1");
        assert_eq!(report.fitness, 100.0);
        assert!(report.unobserved().is_empty());
    }

    #[test]
    fn three_input_0x0b_extracts_its_minterms() {
        let table = TruthTable::from_hex(3, 0x0B);
        let data = synthetic(3, 50, |m| table.value(m));
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert_eq!(report.minterms, vec![0, 1, 3]);
        assert_eq!(report.truth_table(), table);
    }

    #[test]
    fn canonical_mode_keeps_minterm_sum() {
        let data = synthetic(2, 20, |m| m >= 1);
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0).canonical())
            .analyze(&data)
            .unwrap();
        assert_eq!(report.expression.terms().len(), 3);
    }

    #[test]
    fn glitchy_output_lowers_fitness_but_not_logic() {
        // Combination 11 output mostly high with a few dips.
        let mut data_inputs = [Vec::new(), Vec::new()];
        let mut output = Vec::new();
        for combo in 0..4usize {
            for k in 0..100 {
                data_inputs[0].push(if combo >> 1 & 1 == 1 { 30.0 } else { 0.0 });
                data_inputs[1].push(if combo & 1 == 1 { 30.0 } else { 0.0 });
                let high = combo == 3;
                let glitch = high && (k == 10 || k == 50);
                output.push(if high && !glitch { 30.0 } else { 0.0 });
            }
        }
        let data = AnalogData::new(
            vec![
                ("A".into(), data_inputs[0].clone()),
                ("B".into(), data_inputs[1].clone()),
            ],
            ("Y".into(), output),
        )
        .unwrap();
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert_eq!(report.minterms, vec![3]);
        // 4 variations over 100 samples at one of 4 combos: penalty
        // = (4/100)/4 = 0.01 → fitness 99%.
        assert!((report.fitness - 99.0).abs() < 1e-9);
    }

    #[test]
    fn oscillating_combo_is_rejected_as_unstable() {
        let mut inputs = [Vec::new()];
        let mut output = Vec::new();
        for combo in 0..2usize {
            for k in 0..100 {
                inputs[0].push(if combo == 1 { 30.0 } else { 0.0 });
                // Combination 1 oscillates every sample.
                output.push(if combo == 1 && k % 2 == 0 { 30.0 } else { 0.0 });
            }
        }
        let data =
            AnalogData::new(vec![("A".into(), inputs[0].clone())], ("Y".into(), output)).unwrap();
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert!(report.minterms.is_empty());
        assert_eq!(report.combos[1].outcome, FilterOutcome::Unstable);
    }

    #[test]
    fn per_input_thresholds_are_honoured() {
        // Input swings only up to 10: with the shared threshold of 15 it
        // would never read high, but a per-input threshold of 5 fixes it.
        let mut input = Vec::new();
        let mut output = Vec::new();
        for combo in 0..2usize {
            for _ in 0..50 {
                input.push(if combo == 1 { 10.0 } else { 0.0 });
                output.push(if combo == 1 { 30.0 } else { 0.0 });
            }
        }
        let data = AnalogData::new(vec![("A".into(), input)], ("Y".into(), output)).unwrap();

        let shared = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert_eq!(shared.unobserved(), vec![1], "input never crosses 15");

        let per_input = LogicAnalyzer::new(AnalyzerConfig::new(15.0).input_thresholds(vec![5.0]))
            .analyze(&data)
            .unwrap();
        assert_eq!(per_input.minterms, vec![1]);
    }

    #[test]
    fn output_threshold_override() {
        let data = synthetic(1, 50, |m| m == 1);
        // Absurdly high output threshold: output never reads high.
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0).output_threshold(1000.0))
            .analyze(&data)
            .unwrap();
        assert!(report.minterms.is_empty());
    }

    #[test]
    fn config_validation_errors() {
        let data = synthetic(1, 10, |m| m == 1);
        assert!(matches!(
            LogicAnalyzer::new(AnalyzerConfig::new(15.0).fov_ud(1.5)).analyze(&data),
            Err(AnalyzeError::InvalidFovBound(_))
        ));
        assert!(matches!(
            LogicAnalyzer::new(AnalyzerConfig::new(-1.0)).analyze(&data),
            Err(AnalyzeError::InvalidThreshold(_))
        ));
        assert!(matches!(
            LogicAnalyzer::new(AnalyzerConfig::new(15.0).input_thresholds(vec![1.0, 2.0]))
                .analyze(&data),
            Err(AnalyzeError::ThresholdCountMismatch { .. })
        ));
        assert!(matches!(
            LogicAnalyzer::new(AnalyzerConfig::new(15.0).output_threshold(f64::NAN)).analyze(&data),
            Err(AnalyzeError::InvalidThreshold(_))
        ));
    }

    #[test]
    fn report_display_contains_table_and_expression() {
        let data = synthetic(2, 20, |m| m == 3);
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        let text = report.to_string();
        assert!(text.contains("I0 * I1"));
        assert!(text.contains("Case_I"));
        assert!(text.contains("11"));
    }

    #[test]
    fn dont_care_unobserved_simplifies_expression() {
        // Only combinations 00 and 11 are exercised; with 01/10 as
        // don't-cares the AND-looking function minimizes to a single
        // literal (or smaller) expression, while the default reads the
        // unobserved combos as 0 and keeps the full product.
        let mut inputs = [Vec::new(), Vec::new()];
        let mut output = Vec::new();
        for combo in [0usize, 3] {
            for _ in 0..50 {
                inputs[0].push(if combo >> 1 & 1 == 1 { 30.0 } else { 0.0 });
                inputs[1].push(if combo & 1 == 1 { 30.0 } else { 0.0 });
                output.push(if combo == 3 { 30.0 } else { 0.0 });
            }
        }
        let data = AnalogData::new(
            vec![
                ("A".into(), inputs[0].clone()),
                ("B".into(), inputs[1].clone()),
            ],
            ("Y".into(), output),
        )
        .unwrap();

        let strict = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        assert_eq!(strict.expression.to_string(), "A * B");

        let relaxed = LogicAnalyzer::new(AnalyzerConfig::new(15.0).dont_care_unobserved())
            .analyze(&data)
            .unwrap();
        // Same accepted minterms; simpler printable form.
        assert_eq!(relaxed.minterms, strict.minterms);
        assert!(
            relaxed.expression.terms()[0].literal_count() < 2,
            "don't-cares should shrink the product: {}",
            relaxed.expression
        );
        // The relaxed expression still covers the observed minterm.
        assert!(relaxed.expression.eval_combo(3));
        assert!(!relaxed.expression.eval_combo(0));
    }

    #[test]
    fn analyze_each_probes_multiple_outputs() {
        let data = synthetic(2, 40, |m| m == 3);
        let inputs: Vec<(String, Vec<f64>)> = (0..2)
            .map(|j| (format!("I{j}"), data.input(j).to_vec()))
            .collect();
        let and_series = data.output().to_vec();
        let nor_series: Vec<f64> = data
            .input(0)
            .iter()
            .zip(data.input(1))
            .map(|(&a, &b)| if a < 15.0 && b < 15.0 { 30.0 } else { 0.0 })
            .collect();
        let outputs = vec![
            ("AND_OUT".to_string(), and_series),
            ("NOR_OUT".to_string(), nor_series),
        ];
        let reports = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze_each(&inputs, &outputs)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].expression.to_string(), "I0 * I1");
        assert_eq!(reports[1].expression.to_string(), "I0' * I1'");
        assert_eq!(reports[1].output_name, "NOR_OUT");
    }

    #[test]
    fn error_display() {
        assert!(AnalyzeError::TooManyInputs(20).to_string().contains("20"));
        assert!(AnalyzeError::ThresholdCountMismatch {
            supplied: 1,
            inputs: 2
        }
        .to_string()
        .contains("1 per-input"));
    }
}
