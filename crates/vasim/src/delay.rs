//! Propagation-delay estimation (D-VASim's timing analysis \[10\]).
//!
//! The propagation delay "specifies the time required to reflect the
//! changes in input species concentrations on the concentration of
//! output species". We estimate it per hold segment as the *settle
//! time*: the time from the input switch (segment start) until the
//! digitized output reaches its final logic value for that segment and
//! stays there. The experiment's hold time must exceed the maximum
//! settle time for the logic analysis to see correct responses — the
//! paper's discussion of circuit 0x0B's combination 100 is exactly a
//! hold time marginally above this delay.

use crate::error::VasimError;
use crate::experiment::ExperimentResult;
use serde::{Deserialize, Serialize};

/// Propagation-delay statistics of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayEstimate {
    /// Mean settle time over segments that switched.
    pub mean: f64,
    /// Maximum settle time (the conservative delay to use as hold time).
    pub max: f64,
    /// Per-segment settle time (`None` for the first segment, which has
    /// no preceding switch).
    pub per_segment: Vec<Option<f64>>,
}

/// Estimates propagation delay from an experiment, digitizing the output
/// at `threshold`.
///
/// # Errors
///
/// Returns [`VasimError::NoEstimate`] if no segment ever settles (hold
/// time shorter than the circuit's response) or the experiment has fewer
/// than two segments.
pub fn estimate_delay(
    result: &ExperimentResult,
    threshold: f64,
) -> Result<DelayEstimate, VasimError> {
    if result.combos.len() < 2 {
        return Err(VasimError::NoEstimate(
            "need at least two segments to observe a transition".into(),
        ));
    }
    let output = result.data.output();
    let dt = result.trace.sample_dt();
    let segment_len = result.segment_len();

    let mut per_segment: Vec<Option<f64>> = vec![None; result.combos.len()];
    let mut settled: Vec<f64> = Vec::new();

    for (s, slot) in per_segment.iter_mut().enumerate().skip(1) {
        let start = result.segment_start(s);
        let end = (start + segment_len).min(output.len());
        if start >= end {
            continue;
        }
        let segment = &output[start..end];
        // Digitize and clean isolated noise blips with a 5-sample
        // majority filter: a one- or two-sample excursion across the
        // threshold is stochastic noise, not an unsettled output.
        let bits: Vec<bool> = segment.iter().map(|&v| v >= threshold).collect();
        let filtered = majority_filter(&bits, 5);
        // Final logic value: majority over the last quarter.
        let tail_start = filtered.len() - (filtered.len() / 4).max(1);
        let tail = &filtered[tail_start..];
        let highs = tail.iter().filter(|&&b| b).count();
        let final_high = 2 * highs > tail.len();
        // Settle index: one past the last sample that disagrees with the
        // final value.
        let last_disagree = filtered.iter().rposition(|&b| b != final_high);
        let settle_idx = last_disagree.map_or(0, |i| i + 1);
        if settle_idx >= segment.len() {
            // Never settled within the hold window.
            continue;
        }
        let settle_time = settle_idx as f64 * dt;
        *slot = Some(settle_time);
        settled.push(settle_time);
    }

    if settled.is_empty() {
        return Err(VasimError::NoEstimate(
            "no segment settled within its hold window".into(),
        ));
    }
    let mean = settled.iter().sum::<f64>() / settled.len() as f64;
    let max = settled.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(DelayEstimate {
        mean,
        max,
        per_segment,
    })
}

/// Sliding-window majority vote (odd `window`); ends use the available
/// samples.
fn majority_filter(bits: &[bool], window: usize) -> Vec<bool> {
    debug_assert!(window % 2 == 1, "window must be odd");
    let half = window / 2;
    (0..bits.len())
        .map(|i| {
            let from = i.saturating_sub(half);
            let to = (i + half + 1).min(bits.len());
            let highs = bits[from..to].iter().filter(|&&b| b).count();
            2 * highs > to - from
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use glc_model::ModelBuilder;

    /// First-order follower with rate k: time constant 1/k.
    fn follower(k: f64) -> glc_model::Model {
        ModelBuilder::new("follower")
            .boundary_species("I", 0.0)
            .species("Y", 0.0)
            .parameter("k", k)
            .reaction_full(
                "prod",
                vec![],
                vec![("Y".into(), 1)],
                vec!["I".into()],
                "k * I",
            )
            .unwrap()
            .reaction("deg", &["Y"], &[], &format!("{k} * Y"))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn slow_circuit_reports_longer_delay_than_fast_one() {
        let config = ExperimentConfig::new(400.0, 40.0).repeats(3);
        let fast = Experiment::new(config.clone())
            .run(&follower(0.5), &["I".to_string()], "Y", 7)
            .unwrap();
        let slow = Experiment::new(config)
            .run(&follower(0.05), &["I".to_string()], "Y", 7)
            .unwrap();
        let fast_delay = estimate_delay(&fast, 20.0).unwrap();
        let slow_delay = estimate_delay(&slow, 20.0).unwrap();
        assert!(
            slow_delay.mean > fast_delay.mean,
            "slow {} vs fast {}",
            slow_delay.mean,
            fast_delay.mean
        );
        // Rise to 20 of 40 with tau = 20 t.u. is ~14 t.u.; allow noise.
        assert!(slow_delay.mean > 5.0);
        assert!(fast_delay.max < 100.0);
    }

    #[test]
    fn per_segment_layout() {
        let config = ExperimentConfig::new(300.0, 40.0).repeats(2);
        let result = Experiment::new(config)
            .run(&follower(0.2), &["I".to_string()], "Y", 3)
            .unwrap();
        let delay = estimate_delay(&result, 20.0).unwrap();
        assert_eq!(delay.per_segment.len(), 4);
        assert!(
            delay.per_segment[0].is_none(),
            "first segment has no switch"
        );
        assert!(delay.max >= delay.mean);
    }

    #[test]
    fn single_segment_is_an_error() {
        let model = follower(0.5);
        // One input, one repeat, but only one combination held?
        // A 1-input sweep has two segments, so build the error case by
        // slicing the protocol to its minimum and checking the guard
        // directly with a doctored result.
        let config = ExperimentConfig::new(100.0, 40.0);
        let mut result = Experiment::new(config)
            .run(&model, &["I".to_string()], "Y", 0)
            .unwrap();
        result.combos.truncate(1);
        assert!(matches!(
            estimate_delay(&result, 20.0),
            Err(VasimError::NoEstimate(_))
        ));
    }

    #[test]
    fn hold_time_shorter_than_response_yields_no_estimate() {
        // tau = 100 t.u. but segments of 10 t.u.: output of the high
        // segment never reaches the threshold.
        let result = Experiment::new(ExperimentConfig::new(10.0, 40.0))
            .run(&follower(0.01), &["I".to_string()], "Y", 5)
            .unwrap();
        let outcome = estimate_delay(&result, 20.0);
        // Either no segment settles, or only trivially-settled low
        // segments report (settle time 0 from a segment that stays low).
        if let Ok(estimate) = outcome {
            assert!(estimate.max < 10.0);
        }
    }
}
