//! Summary statistics for stochastic traces.
//!
//! Gene expression is "a noisy business" \[6\]: analyses of genetic
//! circuits routinely report the noise figures this module computes —
//! mean/variance, the Fano factor (variance/mean, 1 for a Poisson
//! birth–death process), the coefficient of variation, and lagged
//! autocorrelation (how fast the noise decorrelates, which sets how far
//! apart samples must be to be independent). The threshold and delay
//! estimators consume these, and the `noise_analysis` example reports
//! them per circuit.
//!
//! Two sources feed the figures: single-trajectory windows
//! ([`stats`], time-averaged) and replicate ensembles — population
//! moments read off a finalized `glc_ssa::Ensemble`
//! ([`ensemble_noise`]), whose mean/σ traces are rounded from the
//! exact order-independent sums of an `EnsemblePartial`, so the noise
//! path never re-derives moments ad hoc from raw traces. It is the one
//! moments path: the resident query service and
//! `ReplicatedSweep::noise` finalize their cached partial and read the
//! figures off it the same way.

use glc_ssa::Ensemble;
use serde::{Deserialize, Serialize};

/// Summary statistics of one series window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Fano factor `variance / mean` (`NaN` when the mean is zero).
    pub fano: f64,
    /// Coefficient of variation `std_dev / mean` (`NaN` when the mean is
    /// zero).
    pub cv: f64,
}

/// Computes [`SeriesStats`] for a window.
///
/// # Panics
///
/// Panics on an empty series.
pub fn stats(series: &[f64]) -> SeriesStats {
    assert!(!series.is_empty(), "empty series");
    let count = series.len();
    let mean = series.iter().sum::<f64>() / count as f64;
    let variance = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
    let std_dev = variance.sqrt();
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let fano = if mean != 0.0 {
        variance / mean
    } else {
        f64::NAN
    };
    let cv = if mean != 0.0 {
        std_dev / mean
    } else {
        f64::NAN
    };
    SeriesStats {
        count,
        mean,
        variance,
        std_dev,
        min,
        max,
        fano,
        cv,
    }
}

/// Noise figures of one species at one sample instant, derived from
/// ensemble (cross-replicate) moments rather than a time window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoisePoint {
    /// Sample time.
    pub t: f64,
    /// Ensemble mean.
    pub mean: f64,
    /// Ensemble standard deviation (population).
    pub std_dev: f64,
    /// Ensemble variance.
    pub variance: f64,
    /// Fano factor `variance / mean` (`NaN` when the mean is zero).
    pub fano: f64,
    /// Coefficient of variation `std_dev / mean` (`NaN` when the mean
    /// is zero).
    pub cv: f64,
}

impl NoisePoint {
    /// Derives the full figure set from a mean and variance at time
    /// `t` (the one place encoding the `NaN`-at-zero-mean convention
    /// for ratio figures).
    pub fn from_moments(t: f64, mean: f64, variance: f64) -> Self {
        let std_dev = variance.sqrt();
        let (fano, cv) = if mean != 0.0 {
            (variance / mean, std_dev / mean)
        } else {
            (f64::NAN, f64::NAN)
        };
        NoisePoint {
            t,
            mean,
            std_dev,
            variance,
            fano,
            cv,
        }
    }
}

/// Per-sample noise figures of `species`, read directly off an
/// [`Ensemble`]'s moment traces (no re-aggregation of raw replicate
/// data). `None` if the species is not in the ensemble.
///
/// Unlike [`stats`] over a single-trajectory window, these are true
/// population figures: sample `k` mixes no time averaging into the
/// spread, so transients show their real replicate-to-replicate
/// variability.
pub fn ensemble_noise(ensemble: &Ensemble, species: &str) -> Option<Vec<NoisePoint>> {
    let mean = ensemble.mean.series(species)?;
    let std_dev = ensemble.std_dev.series(species)?;
    Some(
        mean.iter()
            .zip(std_dev)
            .enumerate()
            .map(|(k, (&m, &sd))| NoisePoint::from_moments(ensemble.mean.time(k), m, sd * sd))
            .collect(),
    )
}

/// Normalized autocorrelation of a series at the given lag (1 at lag 0;
/// `NaN` for constant series).
///
/// # Panics
///
/// Panics if `lag >= series.len()`.
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    assert!(lag < series.len(), "lag {lag} out of range");
    let s = stats(series);
    if s.variance == 0.0 {
        return f64::NAN;
    }
    let n = series.len() - lag;
    let cov = (0..n)
        .map(|i| (series[i] - s.mean) * (series[i + lag] - s.mean))
        .sum::<f64>()
        / n as f64;
    cov / s.variance
}

/// The smallest lag at which autocorrelation falls below `1/e`
/// (a decorrelation-time estimate), or `None` if it never does within
/// `max_lag`.
pub fn decorrelation_lag(series: &[f64], max_lag: usize) -> Option<usize> {
    let threshold = (-1.0f64).exp();
    (1..=max_lag.min(series.len().saturating_sub(1)))
        .find(|&lag| autocorrelation(series, lag) < threshold)
}

/// Whether a window looks stationary: the first- and second-half means
/// differ by less than `z` pooled standard errors.
pub fn is_stationary(series: &[f64], z: f64) -> bool {
    if series.len() < 4 {
        return true;
    }
    let mid = series.len() / 2;
    let a = stats(&series[..mid]);
    let b = stats(&series[mid..]);
    let pooled_se = ((a.variance / a.count as f64) + (b.variance / b.count as f64)).sqrt();
    if pooled_se == 0.0 {
        return a.mean == b.mean;
    }
    ((a.mean - b.mean) / pooled_se).abs() < z
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;
    use glc_ssa::{simulate, CompiledModel, Direct};

    #[test]
    fn stats_of_known_series() {
        let s = stats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.variance, 4.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.fano - 0.8).abs() < 1e-12);
        assert!((s.cv - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_mean_series_has_nan_ratios() {
        let s = stats(&[0.0, 0.0]);
        assert!(s.fano.is_nan());
        assert!(s.cv.is_nan());
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_panics() {
        let _ = stats(&[]);
    }

    #[test]
    fn birth_death_fano_is_near_one() {
        // Stationary birth–death is Poisson: Fano factor 1.
        let model = ModelBuilder::new("bd")
            .species("X", 50.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = simulate(&compiled, &mut Direct::new(), 5000.0, 1.0, 9).unwrap();
        let series = &trace.series("X").unwrap()[500..];
        let s = stats(series);
        assert!(
            (s.fano - 1.0).abs() < 0.25,
            "Fano factor {} too far from 1",
            s.fano
        );
        assert!((s.mean - 50.0).abs() < 4.0);
    }

    #[test]
    fn ensemble_noise_reads_moments_off_the_ensemble() {
        use glc_ssa::{run_ensemble, Direct};
        // Stationary birth–death: Poisson(50), so the *ensemble* Fano
        // factor at a late sample is near 1 and CV near 1/√50.
        let model = ModelBuilder::new("bd")
            .species("X", 50.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let ensemble =
            run_ensemble(&compiled, || Box::new(Direct::new()), 96, 60.0, 10.0, 5, 4).unwrap();
        let points = ensemble_noise(&ensemble, "X").unwrap();
        assert_eq!(points.len(), ensemble.mean.len());
        // t = 0 is deterministic: zero spread, Fano 0.
        assert_eq!(points[0].t, 0.0);
        assert_eq!(points[0].std_dev, 0.0);
        let last = points.last().unwrap();
        assert!((last.mean - 50.0).abs() < 4.0, "mean {}", last.mean);
        assert!((last.fano - 1.0).abs() < 0.5, "Fano {}", last.fano);
        assert!(
            (last.cv - 1.0 / 50.0f64.sqrt()).abs() < 0.08,
            "CV {}",
            last.cv
        );
        // Consistency with the raw moment traces: no re-derivation.
        let mean = ensemble.mean.series("X").unwrap();
        let std = ensemble.std_dev.series("X").unwrap();
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.mean.to_bits(), mean[k].to_bits());
            assert_eq!(p.std_dev.to_bits(), std[k].to_bits());
        }
        assert!(ensemble_noise(&ensemble, "ghost").is_none());
    }

    #[test]
    fn autocorrelation_basics() {
        let constant = [5.0; 10];
        assert!(autocorrelation(&constant, 1).is_nan());
        let alternating: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert!((autocorrelation(&alternating, 0) - 1.0).abs() < 1e-12);
        assert!(autocorrelation(&alternating, 1) < -0.9);
        assert!(autocorrelation(&alternating, 2) > 0.9);
    }

    #[test]
    fn decorrelation_lag_scales_with_time_constant() {
        // OU-like birth-death noise decorrelates on the 1/kd timescale.
        let model = ModelBuilder::new("bd")
            .species("X", 50.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let trace = simulate(&compiled, &mut Direct::new(), 5000.0, 1.0, 4).unwrap();
        let series = &trace.series("X").unwrap()[500..];
        let lag = decorrelation_lag(series, 100).expect("decorrelates");
        // Theory: autocorrelation exp(-kd·lag) crosses 1/e at 1/kd = 10.
        assert!((3..=30).contains(&lag), "lag {lag} out of plausible band");
    }

    #[test]
    fn stationarity_check() {
        let flat: Vec<f64> = (0..100).map(|i| 50.0 + ((i % 5) as f64)).collect();
        assert!(is_stationary(&flat, 3.0));
        let trend: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(!is_stationary(&trend, 3.0));
        assert!(is_stationary(&[1.0, 1.0], 3.0), "tiny windows pass");
        assert!(
            is_stationary(&[2.0, 2.0, 2.0, 2.0], 3.0),
            "zero variance equal means"
        );
        assert!(
            !is_stationary(&[1.0, 1.0, 5.0, 5.0], 3.0),
            "zero variance unequal means"
        );
    }
}
