//! Threshold-value estimation (D-VASim's threshold analysis \[10\]).
//!
//! The threshold is "a significant amount of concentration, which
//! categorizes the analog concentrations into digital logics 0 and 1".
//! The paper's IWBDA'16 procedure is sketched rather than specified; we
//! reconstruct it statistically: take the steady-state mean of the
//! output in the second half of every hold segment, split those means at
//! the largest gap into a low and a high cluster, and place the
//! threshold at the midpoint of the gap. The separation between the
//! clusters is reported so callers can judge how trustworthy the
//! digitization will be (Figure 5's threshold-40 failure shows up as a
//! small separation).

use crate::error::VasimError;
use crate::experiment::ExperimentResult;
use serde::{Deserialize, Serialize};

/// A threshold estimate with its supporting statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdEstimate {
    /// The estimated threshold (molecules).
    pub threshold: f64,
    /// Mean of the low-cluster segment levels.
    pub low_mean: f64,
    /// Mean of the high-cluster segment levels.
    pub high_mean: f64,
    /// Gap between the highest low-cluster level and the lowest
    /// high-cluster level.
    pub separation: f64,
    /// Per-segment steady-state levels (second half of each segment).
    pub segment_levels: Vec<f64>,
}

/// Estimates the output threshold of an experiment.
///
/// # Errors
///
/// Returns [`VasimError::NoEstimate`] when the output never separates
/// into two levels (fewer than two segments, or all levels within noise
/// of each other — e.g. a constant-false circuit).
pub fn estimate_threshold(result: &ExperimentResult) -> Result<ThresholdEstimate, VasimError> {
    let output = result.data.output();
    let segment_len = result.segment_len();
    if segment_len == 0 || result.combos.len() < 2 {
        return Err(VasimError::NoEstimate(
            "need at least two hold segments to estimate a threshold".into(),
        ));
    }

    // Steady-state level per segment: mean over the second half.
    let mut levels = Vec::with_capacity(result.combos.len());
    for s in 0..result.combos.len() {
        let start = result.segment_start(s);
        let end = (start + segment_len).min(output.len());
        let from = start + (end - start) / 2;
        if from >= end {
            return Err(VasimError::NoEstimate("empty segment".into()));
        }
        let window = &output[from..end];
        levels.push(window.iter().sum::<f64>() / window.len() as f64);
    }

    let mut sorted = levels.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite levels"));

    // Split at the largest *noise-scaled* gap between consecutive
    // sorted levels: molecule counts carry Poisson noise (σ ≈ √level),
    // so a 50-molecule gap above a 2-molecule low is ~7σ of separation
    // while the same gap between two distinct high levels (say 78 and
    // 130) is only ~4.6σ. Scaling by √(upper level) keeps the split at
    // the logic boundary even when different drive promoters give the
    // high state several distinct levels.
    let mut split = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for i in 0..sorted.len() - 1 {
        let gap = sorted[i + 1] - sorted[i];
        let score = gap / sorted[i + 1].max(1.0).sqrt();
        if score > best_score {
            best_score = score;
            split = i;
        }
    }

    let low = &sorted[..=split];
    let high = &sorted[split + 1..];
    if high.is_empty() {
        return Err(VasimError::NoEstimate("no high level observed".into()));
    }
    let low_mean = low.iter().sum::<f64>() / low.len() as f64;
    let high_mean = high.iter().sum::<f64>() / high.len() as f64;
    let separation = high[0] - low[low.len() - 1];

    // Require the clusters to be separated by more than counting noise.
    // Molecule counts are Poisson-like (σ ≈ √mean), so a real logic gap
    // must exceed a few standard deviations of the high level; a flat
    // output's largest gap is just noise and is rejected here. Distinct
    // high levels across combinations (different drive promoters) are
    // fine — they only widen the high cluster, not the gap criterion.
    let noise = high_mean.max(1.0).sqrt();
    if high_mean - low_mean < 3.0 * noise {
        return Err(VasimError::NoEstimate(format!(
            "output levels do not separate (Δ = {:.2} vs 3σ = {:.2})",
            high_mean - low_mean,
            3.0 * noise
        )));
    }

    Ok(ThresholdEstimate {
        threshold: (low[low.len() - 1] + high[0]) / 2.0,
        low_mean,
        high_mean,
        separation,
        segment_levels: levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use glc_model::ModelBuilder;

    fn follower_result(seed: u64) -> ExperimentResult {
        let model = ModelBuilder::new("follower")
            .boundary_species("I", 0.0)
            .species("Y", 0.0)
            .parameter("k", 0.5)
            .reaction_full(
                "prod",
                vec![],
                vec![("Y".into(), 1)],
                vec!["I".into()],
                "k * I",
            )
            .unwrap()
            .reaction("deg", &["Y"], &[], "k * Y")
            .unwrap()
            .build()
            .unwrap();
        Experiment::new(ExperimentConfig::new(200.0, 40.0).repeats(2))
            .run(&model, &["I".to_string()], "Y", seed)
            .unwrap()
    }

    #[test]
    fn follower_threshold_lands_between_levels() {
        let estimate = estimate_threshold(&follower_result(5)).unwrap();
        // Low level ~0, high level ~40: the midpoint must separate them.
        assert!(
            estimate.threshold > 5.0 && estimate.threshold < 38.0,
            "threshold = {}",
            estimate.threshold
        );
        assert!(estimate.low_mean < 5.0);
        assert!(estimate.high_mean > 30.0);
        assert!(estimate.separation > 10.0);
        assert_eq!(estimate.segment_levels.len(), 4);
    }

    #[test]
    fn constant_output_gives_no_estimate() {
        let model = ModelBuilder::new("flat")
            .boundary_species("I", 0.0)
            .species("Y", 0.0)
            .parameter("k", 1.0)
            .reaction("prod", &[], &["Y"], "k")
            .unwrap()
            .reaction("deg", &["Y"], &[], "0.02 * Y")
            .unwrap()
            .build()
            .unwrap();
        let result = Experiment::new(ExperimentConfig::new(150.0, 15.0).repeats(3))
            .run(&model, &["I".to_string()], "Y", 1)
            .unwrap();
        // Output hovers around 50 in every segment regardless of input.
        let err = estimate_threshold(&result).unwrap_err();
        assert!(matches!(err, VasimError::NoEstimate(_)));
    }

    #[test]
    fn estimate_is_stable_across_seeds() {
        let a = estimate_threshold(&follower_result(1)).unwrap();
        let b = estimate_threshold(&follower_result(2)).unwrap();
        assert!(
            (a.threshold - b.threshold).abs() < 10.0,
            "{} vs {}",
            a.threshold,
            b.threshold
        );
    }
}
