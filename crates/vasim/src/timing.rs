//! Per-transition timing analysis of genetic circuits.
//!
//! The companion IWBDA'16 paper is titled "Logic *and Timing* Analysis
//! of Genetic Logic Circuits" \[10\]: beyond a single propagation-delay
//! number, circuit designers want the rise/fall behaviour of each input
//! transition — genetic gates switch asymmetrically, because turning a
//! protein *on* means producing molecules (fast at high promoter
//! activity) while turning it *off* means waiting for degradation (a
//! fixed exponential decay). This module classifies every hold-segment
//! transition of an experiment as a rise, fall, or hold and reports the
//! crossing time of each, giving the full timing picture that the
//! scalar [`crate::delay`] estimate summarizes.

use crate::error::VasimError;
use crate::experiment::ExperimentResult;
use serde::{Deserialize, Serialize};

/// Kind of output transition a segment produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionKind {
    /// Output switched low → high.
    Rise,
    /// Output switched high → low.
    Fall,
    /// Output logic level did not change.
    Hold,
}

/// Timing of one hold segment's output response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Segment index within the experiment.
    pub segment: usize,
    /// Input combination applied during the segment.
    pub combo: usize,
    /// Rise, fall or hold.
    pub kind: TransitionKind,
    /// Time from the input switch to the *first* threshold crossing in
    /// the final direction (`None` for holds, or if the output never
    /// crossed within the segment).
    pub crossing_time: Option<f64>,
}

/// Timing summary of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Per-segment transitions (first segment excluded — no switch
    /// precedes it).
    pub transitions: Vec<Transition>,
    /// Mean rise crossing time, if any rise was observed.
    pub mean_rise: Option<f64>,
    /// Mean fall crossing time, if any fall was observed.
    pub mean_fall: Option<f64>,
}

impl TimingReport {
    /// Rise/fall asymmetry `mean_fall / mean_rise`, if both exist.
    pub fn asymmetry(&self) -> Option<f64> {
        match (self.mean_rise, self.mean_fall) {
            (Some(rise), Some(fall)) if rise > 0.0 => Some(fall / rise),
            _ => None,
        }
    }
}

/// Analyzes the output timing of every hold segment.
///
/// # Errors
///
/// Returns [`VasimError::NoEstimate`] if the experiment has fewer than
/// two segments.
pub fn analyze_timing(
    result: &ExperimentResult,
    threshold: f64,
) -> Result<TimingReport, VasimError> {
    if result.combos.len() < 2 {
        return Err(VasimError::NoEstimate(
            "need at least two hold segments for timing analysis".into(),
        ));
    }
    let output = result.data.output();
    let dt = result.trace.sample_dt();
    let segment_len = result.segment_len();

    let mut transitions = Vec::new();
    let mut rises = Vec::new();
    let mut falls = Vec::new();

    for s in 1..result.combos.len() {
        let start = result.segment_start(s);
        let end = (start + segment_len).min(output.len());
        if start >= end || start == 0 {
            continue;
        }
        let before = output[start - 1] >= threshold;
        // Final level: majority over the last quarter of the segment.
        let segment = &output[start..end];
        let tail_start = segment.len() - (segment.len() / 4).max(1);
        let highs = segment[tail_start..]
            .iter()
            .filter(|&&v| v >= threshold)
            .count();
        let after = 2 * highs > segment.len() - tail_start;

        let kind = match (before, after) {
            (false, true) => TransitionKind::Rise,
            (true, false) => TransitionKind::Fall,
            _ => TransitionKind::Hold,
        };
        let crossing_time = if kind == TransitionKind::Hold {
            None
        } else {
            segment
                .iter()
                .position(|&v| (v >= threshold) == after)
                .map(|idx| idx as f64 * dt)
        };
        if let Some(t) = crossing_time {
            match kind {
                TransitionKind::Rise => rises.push(t),
                TransitionKind::Fall => falls.push(t),
                TransitionKind::Hold => {}
            }
        }
        transitions.push(Transition {
            segment: s,
            combo: result.combos[s],
            kind,
            crossing_time,
        });
    }

    let mean = |values: &[f64]| {
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    };
    Ok(TimingReport {
        transitions,
        mean_rise: mean(&rises),
        mean_fall: mean(&falls),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use glc_model::ModelBuilder;

    /// Asymmetric follower: fast production (rate tracks the input with
    /// a large gain) but slow first-order decay.
    fn asymmetric() -> glc_model::Model {
        ModelBuilder::new("asym")
            .boundary_species("I", 0.0)
            .species("Y", 0.0)
            .parameter("kfast", 2.0)
            .parameter("kslow", 0.05)
            .reaction_full(
                "prod",
                vec![],
                vec![("Y".into(), 1)],
                vec!["I".into()],
                "kfast * I * hillr(Y, 40, 1)",
            )
            .unwrap()
            .reaction("deg", &["Y"], &[], "kslow * Y")
            .unwrap()
            .build()
            .unwrap()
    }

    fn run_experiment(repeats: usize) -> ExperimentResult {
        Experiment::new(ExperimentConfig::new(400.0, 30.0).repeats(repeats))
            .run(&asymmetric(), &["I".to_string()], "Y", 9)
            .unwrap()
    }

    #[test]
    fn rises_and_falls_are_classified() {
        let result = run_experiment(3);
        // Combos alternate 0,1,0,1,0,1: segments 1..6 alternate
        // rise/fall (with possible holds if a level never settles).
        let report = analyze_timing(&result, 15.0).unwrap();
        assert_eq!(report.transitions.len(), 5);
        let rises = report
            .transitions
            .iter()
            .filter(|t| t.kind == TransitionKind::Rise)
            .count();
        let falls = report
            .transitions
            .iter()
            .filter(|t| t.kind == TransitionKind::Fall)
            .count();
        assert!(rises >= 2, "expected rises, got {report:?}");
        assert!(falls >= 2, "expected falls, got {report:?}");
    }

    #[test]
    fn degradation_limited_falls_are_slower_than_rises() {
        let result = run_experiment(4);
        let report = analyze_timing(&result, 15.0).unwrap();
        let (rise, fall) = (report.mean_rise.unwrap(), report.mean_fall.unwrap());
        assert!(
            fall > rise,
            "fall {fall} should be slower than rise {rise} (degradation-limited)"
        );
        let asym = report.asymmetry().unwrap();
        assert!(asym > 1.5, "asymmetry {asym} too small");
    }

    #[test]
    fn crossing_times_are_within_segments() {
        let result = run_experiment(2);
        let report = analyze_timing(&result, 15.0).unwrap();
        for t in &report.transitions {
            if let Some(ct) = t.crossing_time {
                assert!((0.0..400.0).contains(&ct), "{t:?}");
            }
        }
    }

    #[test]
    fn single_segment_is_rejected() {
        let mut result = run_experiment(1);
        result.combos.truncate(1);
        assert!(matches!(
            analyze_timing(&result, 15.0),
            Err(VasimError::NoEstimate(_))
        ));
    }

    #[test]
    fn asymmetry_is_none_without_both_kinds() {
        let report = TimingReport {
            transitions: vec![],
            mean_rise: Some(5.0),
            mean_fall: None,
        };
        assert_eq!(report.asymmetry(), None);
        let report = TimingReport {
            transitions: vec![],
            mean_rise: Some(4.0),
            mean_fall: Some(10.0),
        };
        assert_eq!(report.asymmetry(), Some(2.5));
    }
}
