//! The virtual-lab experiment: sweep all input combinations.
//!
//! Replicates the paper's protocol: "we ran each circuit for 10,000
//! simulation time units, assuming a value of 1000 time units for the
//! propagation delay of all circuits. This means that during simulation,
//! each input combination is applied for at least 1000 time units."
//! D-VASim applies inputs at the concentration the user gives as the
//! threshold value (the Figure 5 experiments vary exactly that), so the
//! input high level defaults to the analysis threshold.

use crate::error::VasimError;
use crate::stats::{ensemble_noise_from_partial, NoisePoint};
use glc_core::data::AnalogData;
use glc_model::Model;
use glc_ssa::{
    CompiledModel, Direct, Engine, Ensemble, EnsemblePartial, InputSchedule, ScheduleRunner, Trace,
};
use serde::{Deserialize, Serialize};

/// Parameters of a sweep experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Time each input combination is held (paper: 1000 t.u.).
    pub hold_time: f64,
    /// Amount an input is clamped to when logic-high (paper: the
    /// threshold value, 15 molecules in the main experiments).
    pub input_high: f64,
    /// Amount an input is clamped to when logic-low.
    pub input_low: f64,
    /// Trace sampling interval (1 t.u. gives the paper's 10,000 samples
    /// over a full 3-input sweep with repeats).
    pub sample_dt: f64,
    /// Number of times the full combination sweep is repeated.
    pub repeats: usize,
}

impl ExperimentConfig {
    /// Configuration with the given hold time and input-high level;
    /// `input_low = 0`, `sample_dt = 1`, one sweep.
    pub fn new(hold_time: f64, input_high: f64) -> Self {
        ExperimentConfig {
            hold_time,
            input_high,
            input_low: 0.0,
            sample_dt: 1.0,
            repeats: 1,
        }
    }

    /// The paper's main protocol for `n` inputs: hold 1000 t.u., repeat
    /// the sweep enough times to fill ~10,000 t.u.
    pub fn paper_protocol(n: usize, input_high: f64) -> Self {
        let combos = 1usize << n;
        let repeats = (10usize).div_ceil(combos).max(1);
        ExperimentConfig {
            hold_time: 1000.0,
            input_high,
            input_low: 0.0,
            sample_dt: 1.0,
            repeats,
        }
    }

    /// Sets the sweep repeat count (builder style).
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats;
        self
    }

    /// Sets the sampling interval (builder style).
    pub fn sample_dt(mut self, sample_dt: f64) -> Self {
        self.sample_dt = sample_dt;
        self
    }

    fn validate(&self) -> Result<(), VasimError> {
        if !(self.hold_time.is_finite() && self.hold_time > 0.0) {
            return Err(VasimError::InvalidConfig(format!(
                "hold_time must be positive, got {}",
                self.hold_time
            )));
        }
        if !(self.sample_dt.is_finite() && self.sample_dt > 0.0) {
            return Err(VasimError::InvalidConfig(format!(
                "sample_dt must be positive, got {}",
                self.sample_dt
            )));
        }
        if self.repeats == 0 {
            return Err(VasimError::InvalidConfig("repeats must be >= 1".into()));
        }
        let valid_level = |level: f64| level.is_finite() && level >= 0.0;
        if !valid_level(self.input_high) || !valid_level(self.input_low) {
            return Err(VasimError::InvalidConfig(
                "input levels must be non-negative and finite".into(),
            ));
        }
        if self.input_high <= self.input_low {
            return Err(VasimError::InvalidConfig(format!(
                "input_high ({}) must exceed input_low ({})",
                self.input_high, self.input_low
            )));
        }
        Ok(())
    }
}

/// The outcome of a sweep experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Full trace of every species.
    pub trace: Trace,
    /// The I/O series extracted for the logic analyzer (the paper's
    /// `SDA`).
    pub data: AnalogData,
    /// Input combinations in the order applied (one entry per segment).
    pub combos: Vec<usize>,
    /// Hold time per segment.
    pub hold_time: f64,
    /// Total simulated time.
    pub total_time: f64,
}

impl ExperimentResult {
    /// Sample index at which segment `s` starts.
    pub fn segment_start(&self, s: usize) -> usize {
        ((s as f64 * self.hold_time) / self.trace.sample_dt()).round() as usize
    }

    /// Samples per segment.
    pub fn segment_len(&self) -> usize {
        (self.hold_time / self.trace.sample_dt()).round() as usize
    }
}

/// The outcome of a replicated sweep: the mergeable, resident
/// [`EnsemblePartial`] over the sweep grid (the same partial format
/// the distributed `glc-worker` protocol ships and the query service
/// keeps warm), with every noise figure read off the **borrowed
/// partial** — nothing is re-derived from raw traces and no mean/σ
/// traces are materialized unless [`ReplicatedSweep::ensemble`] asks
/// for them.
#[derive(Debug, Clone)]
pub struct ReplicatedSweep {
    /// Exact cross-replicate aggregate over the sweep's sampling grid.
    partial: EnsemblePartial,
    /// Input combinations in the order applied (one entry per segment).
    pub combos: Vec<usize>,
    /// Hold time per segment.
    pub hold_time: f64,
    /// Total simulated time per replicate.
    pub total_time: f64,
}

impl ReplicatedSweep {
    /// Wraps an already-aggregated partial (e.g. one a resident query
    /// service extended incrementally) with the sweep's segment
    /// geometry, so noise/threshold figures can be served from cache.
    pub fn from_partial(
        partial: EnsemblePartial,
        combos: Vec<usize>,
        hold_time: f64,
        total_time: f64,
    ) -> Self {
        ReplicatedSweep {
            partial,
            combos,
            hold_time,
            total_time,
        }
    }

    /// The resident aggregate itself (borrow it to merge, ship, or
    /// extend; every figure this type reports reads off it).
    pub fn partial(&self) -> &EnsemblePartial {
        &self.partial
    }

    /// Number of replicates aggregated.
    pub fn replicates(&self) -> u64 {
        self.partial.replicates()
    }

    /// Finalizes the partial into mean/σ traces — the one place a
    /// sweep materializes them; the noise accessors below do not.
    ///
    /// # Errors
    ///
    /// See `EnsemblePartial::finalize`.
    pub fn ensemble(&self) -> Result<Ensemble, VasimError> {
        self.partial
            .finalize()
            .map_err(|e| VasimError::InvalidConfig(e.to_string()))
    }

    /// Per-sample noise figures of `species`, read off the borrowed
    /// partial (see [`crate::stats::ensemble_noise_from_partial`]);
    /// `None` for unknown species.
    pub fn noise(&self, species: &str) -> Option<Vec<NoisePoint>> {
        ensemble_noise_from_partial(&self.partial, species)
    }

    /// Noise figures of `species` over the settled second half of hold
    /// segment `s` — the window the threshold estimator reads — with
    /// each figure averaged across the window's sample instants.
    /// `None` for unknown species or an out-of-range segment.
    pub fn segment_noise(&self, species: &str, s: usize) -> Option<NoisePoint> {
        if s >= self.combos.len() {
            return None;
        }
        let points = self.noise(species)?;
        let dt = self.partial.fingerprint().sample_dt;
        let segment_len = (self.hold_time / dt).round() as usize;
        let start = ((s as f64 * self.hold_time) / dt).round() as usize;
        let end = (start + segment_len).min(points.len());
        let from = start + (end.saturating_sub(start)) / 2;
        if from >= end {
            return None;
        }
        let window = &points[from..end];
        let n = window.len() as f64;
        let mean = window.iter().map(|p| p.mean).sum::<f64>() / n;
        let variance = window.iter().map(|p| p.variance).sum::<f64>() / n;
        Some(NoisePoint::from_moments(window[0].t, mean, variance))
    }
}

/// Runs sweep experiments on a circuit model.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates an experiment with the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the sweep with Gillespie's direct method.
    ///
    /// # Errors
    ///
    /// Returns [`VasimError`] for invalid configuration, unknown or
    /// non-boundary input species, or simulation failures.
    pub fn run(
        &self,
        model: &Model,
        inputs: &[String],
        output: &str,
        seed: u64,
    ) -> Result<ExperimentResult, VasimError> {
        self.run_with_engine(model, inputs, output, seed, &mut Direct::new())
    }

    /// Runs the sweep with a caller-chosen SSA engine.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_with_engine(
        &self,
        model: &Model,
        inputs: &[String],
        output: &str,
        seed: u64,
        engine: &mut dyn Engine,
    ) -> Result<ExperimentResult, VasimError> {
        let (compiled, runner, combos, total_time) = self.prepare(model, inputs, output)?;
        let trace = runner.run(&compiled, engine, total_time, seed)?;

        let input_series: Vec<(String, Vec<f64>)> = inputs
            .iter()
            .map(|name| {
                (
                    name.clone(),
                    trace.series(name).expect("input recorded").to_vec(),
                )
            })
            .collect();
        let output_series = (
            output.to_string(),
            trace.series(output).expect("output recorded").to_vec(),
        );
        let data = AnalogData::new(input_series, output_series)?;

        Ok(ExperimentResult {
            trace,
            data,
            combos,
            hold_time: self.config.hold_time,
            total_time,
        })
    }

    /// Runs the sweep `replicates` times (replicate `i` seeded
    /// `base_seed + i`), aggregating every replicate trace into an
    /// [`EnsemblePartial`] that the returned sweep keeps resident.
    ///
    /// This is the virtual lab's noise path: instead of re-deriving
    /// means and variances from raw traces downstream, the sweep
    /// produces the same exact, mergeable aggregate the distributed
    /// worker protocol ships and the query service caches, and every
    /// noise figure is read off the borrowed partial.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`]; additionally rejects zero `replicates`.
    pub fn run_replicated<F>(
        &self,
        model: &Model,
        inputs: &[String],
        output: &str,
        base_seed: u64,
        replicates: u64,
        make_engine: F,
    ) -> Result<ReplicatedSweep, VasimError>
    where
        F: Fn() -> Box<dyn Engine>,
    {
        if replicates == 0 {
            return Err(VasimError::InvalidConfig("replicates must be >= 1".into()));
        }
        let (compiled, runner, combos, total_time) = self.prepare(model, inputs, output)?;
        let mut partial = EnsemblePartial::new(&compiled, total_time, self.config.sample_dt)
            .map_err(|e| VasimError::InvalidConfig(e.to_string()))?;
        let mut engine = make_engine();
        for replicate in 0..replicates {
            let seed = base_seed.wrapping_add(replicate);
            let trace = runner.run(&compiled, engine.as_mut(), total_time, seed)?;
            partial
                .accumulate(&trace, seed)
                .map_err(|e| VasimError::InvalidConfig(e.to_string()))?;
        }
        Ok(ReplicatedSweep {
            partial,
            combos,
            hold_time: self.config.hold_time,
            total_time,
        })
    }

    /// Shared sweep setup: validation, compilation, and the input
    /// schedule over all `2^N` combinations × repeats.
    fn prepare(
        &self,
        model: &Model,
        inputs: &[String],
        output: &str,
    ) -> Result<(CompiledModel, ScheduleRunner, Vec<usize>, f64), VasimError> {
        self.config.validate()?;
        if inputs.is_empty() {
            return Err(VasimError::InvalidConfig(
                "at least one input species required".into(),
            ));
        }
        for input in inputs {
            let id = model
                .species_id(input)
                .ok_or_else(|| VasimError::UnknownSpecies(input.clone()))?;
            if !model.species_at(id).boundary {
                return Err(VasimError::NotBoundary(input.clone()));
            }
        }
        if model.species_id(output).is_none() {
            return Err(VasimError::UnknownSpecies(output.to_string()));
        }

        let compiled =
            CompiledModel::new(model).map_err(|e| VasimError::InvalidConfig(e.to_string()))?;
        let n = inputs.len();
        let slots: Vec<usize> = inputs
            .iter()
            .map(|name| compiled.species_slot(name).expect("checked above"))
            .collect();

        // Build the schedule: counting order, each combination held for
        // hold_time, the whole sweep repeated `repeats` times.
        let mut schedule = InputSchedule::new();
        let mut combos = Vec::new();
        let mut t = 0.0;
        for _ in 0..self.config.repeats {
            for combo in 0..1usize << n {
                for (j, &slot) in slots.iter().enumerate() {
                    let high = (combo >> (n - 1 - j)) & 1 == 1;
                    let level = if high {
                        self.config.input_high
                    } else {
                        self.config.input_low
                    };
                    schedule.set(t, slot, level);
                }
                combos.push(combo);
                t += self.config.hold_time;
            }
        }
        let total_time = t;
        let runner = ScheduleRunner::new(schedule, self.config.sample_dt)?;
        Ok((compiled, runner, combos, total_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

    /// A fast "follower" circuit: output tracks the single input.
    fn follower() -> Model {
        ModelBuilder::new("follower")
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
            .unwrap()
    }

    #[test]
    fn sweep_applies_all_combinations_in_counting_order() {
        let model = follower();
        let config = ExperimentConfig::new(100.0, 20.0);
        let result = Experiment::new(config)
            .run(&model, &["I".to_string()], "Y", 3)
            .unwrap();
        assert_eq!(result.combos, vec![0, 1]);
        assert_eq!(result.total_time, 200.0);
        // Input low in segment 0, high in segment 1.
        let input = result.data.input(0);
        assert!(input[..99].iter().all(|&v| v == 0.0));
        assert!(input[101..199].iter().all(|&v| v == 20.0));
        // Output follows: quiet in segment 0, settled near the input
        // level (steady state k·I/k = 20) late in segment 1. A single
        // sample of a Poisson(20)-ish distribution sits below 20 almost
        // half the time, so assert on a settled-window mean instead.
        let output = result.data.output();
        assert!(output[90] < 10.0);
        let settled = &output[150..199];
        let mean: f64 = settled.iter().sum::<f64>() / settled.len() as f64;
        assert!(mean > 15.0, "settled mean {mean}");
    }

    #[test]
    fn repeats_extend_the_schedule() {
        let model = follower();
        let config = ExperimentConfig::new(50.0, 20.0).repeats(3);
        let result = Experiment::new(config)
            .run(&model, &["I".to_string()], "Y", 3)
            .unwrap();
        assert_eq!(result.combos, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(result.total_time, 300.0);
        assert_eq!(result.segment_len(), 50);
        assert_eq!(result.segment_start(2), 100);
    }

    #[test]
    fn paper_protocol_fills_ten_thousand_units() {
        let config = ExperimentConfig::paper_protocol(2, 15.0);
        assert_eq!(config.hold_time, 1000.0);
        // 4 combos → 3 repeats → 12,000 t.u. ≥ 10,000.
        assert_eq!(config.repeats, 3);
        let config = ExperimentConfig::paper_protocol(3, 15.0);
        assert_eq!(config.repeats, 2);
        let config = ExperimentConfig::paper_protocol(1, 15.0);
        assert_eq!(config.repeats, 5);
    }

    #[test]
    fn validation_errors() {
        let model = follower();
        let inputs = vec!["I".to_string()];
        let bad_hold = ExperimentConfig::new(0.0, 15.0);
        assert!(matches!(
            Experiment::new(bad_hold).run(&model, &inputs, "Y", 0),
            Err(VasimError::InvalidConfig(_))
        ));
        let bad_levels = ExperimentConfig {
            input_low: 20.0,
            ..ExperimentConfig::new(10.0, 15.0)
        };
        assert!(matches!(
            Experiment::new(bad_levels).run(&model, &inputs, "Y", 0),
            Err(VasimError::InvalidConfig(_))
        ));
        let config = ExperimentConfig::new(10.0, 15.0);
        assert!(matches!(
            Experiment::new(config.clone()).run(&model, &["ghost".to_string()], "Y", 0),
            Err(VasimError::UnknownSpecies(_))
        ));
        assert!(matches!(
            Experiment::new(config.clone()).run(&model, &inputs, "ghost", 0),
            Err(VasimError::UnknownSpecies(_))
        ));
        assert!(matches!(
            Experiment::new(config.clone()).run(&model, &[], "Y", 0),
            Err(VasimError::InvalidConfig(_))
        ));
        // Non-boundary input.
        let model2 = ModelBuilder::new("m")
            .species("I", 0.0)
            .species("Y", 0.0)
            .build()
            .unwrap();
        assert!(matches!(
            Experiment::new(config).run(&model2, &["I".to_string()], "Y", 0),
            Err(VasimError::NotBoundary(_))
        ));
    }

    #[test]
    fn zero_repeats_rejected() {
        let model = follower();
        let config = ExperimentConfig::new(10.0, 15.0).repeats(0);
        assert!(matches!(
            Experiment::new(config).run(&model, &["I".to_string()], "Y", 0),
            Err(VasimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn replicated_sweep_reports_population_noise() {
        use glc_ssa::Direct;
        let model = follower();
        let config = ExperimentConfig::new(100.0, 30.0);
        let sweep = Experiment::new(config)
            .run_replicated(&model, &["I".to_string()], "Y", 3, 24, || {
                Box::new(Direct::new())
            })
            .unwrap();
        assert_eq!(sweep.combos, vec![0, 1]);
        assert_eq!(sweep.replicates(), 24);
        // Segment 0 (input low): output near zero. Segment 1 (input
        // 30): steady state is Poisson(30) across replicates, so the
        // ensemble Fano factor sits near 1 — the moment the population
        // path measures and a single trajectory only approximates.
        let low = sweep.segment_noise("Y", 0).unwrap();
        assert!(low.mean < 5.0, "low segment mean {}", low.mean);
        let high = sweep.segment_noise("Y", 1).unwrap();
        assert!(
            (high.mean - 30.0).abs() < 5.0,
            "high segment mean {}",
            high.mean
        );
        assert!(
            (high.fano - 1.0).abs() < 0.6,
            "ensemble Fano {} too far from Poisson",
            high.fano
        );
        // Per-sample noise series covers the whole sweep grid, and the
        // borrowed-partial path agrees bitwise with reading the same
        // figures off the finalized ensemble.
        let points = sweep.noise("Y").unwrap();
        let ensemble = sweep.ensemble().unwrap();
        assert_eq!(points.len(), ensemble.mean.len());
        let finalized = crate::stats::ensemble_noise(&ensemble, "Y").unwrap();
        for (k, (a, b)) in points.iter().zip(&finalized).enumerate() {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "mean at {k}");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "σ at {k}");
            assert_eq!(a.fano.to_bits(), b.fano.to_bits(), "Fano at {k}");
            assert_eq!(a.cv.to_bits(), b.cv.to_bits(), "CV at {k}");
        }
        assert!(sweep.noise("ghost").is_none());
        assert!(sweep.segment_noise("Y", 99).is_none());
        // The resident aggregate is exposed for merging/extension.
        assert_eq!(sweep.partial().replicates(), 24);
    }

    #[test]
    fn replicated_sweep_is_deterministic_and_validates() {
        use glc_ssa::Direct;
        let model = follower();
        let config = ExperimentConfig::new(50.0, 20.0);
        let run = || {
            Experiment::new(config.clone())
                .run_replicated(&model, &["I".to_string()], "Y", 9, 6, || {
                    Box::new(Direct::new())
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.partial(), b.partial());
        let (a, b) = (a.ensemble().unwrap(), b.ensemble().unwrap());
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.std_dev, b.std_dev);
        // Zero replicates rejected.
        assert!(matches!(
            Experiment::new(config).run_replicated(&model, &["I".to_string()], "Y", 9, 0, || {
                Box::new(Direct::new())
            },),
            Err(VasimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let model = follower();
        let config = ExperimentConfig::new(50.0, 20.0);
        let a = Experiment::new(config.clone())
            .run(&model, &["I".to_string()], "Y", 11)
            .unwrap();
        let b = Experiment::new(config)
            .run(&model, &["I".to_string()], "Y", 11)
            .unwrap();
        assert_eq!(a.data.output(), b.data.output());
    }

    #[test]
    fn two_input_sweep_orders_msb_first() {
        let model = ModelBuilder::new("two")
            .boundary_species("A", 0.0)
            .boundary_species("B", 0.0)
            .species("Y", 0.0)
            .build()
            .unwrap();
        let config = ExperimentConfig::new(10.0, 15.0);
        let result = Experiment::new(config)
            .run(&model, &["A".to_string(), "B".to_string()], "Y", 0)
            .unwrap();
        assert_eq!(result.combos, vec![0b00, 0b01, 0b10, 0b11]);
        // Segment 1 (combo 01): A low, B high.
        let s = result.segment_start(1) + 2;
        assert_eq!(result.data.input(0)[s], 0.0);
        assert_eq!(result.data.input(1)[s], 15.0);
        // Segment 2 (combo 10): A high, B low.
        let s = result.segment_start(2) + 2;
        assert_eq!(result.data.input(0)[s], 15.0);
        assert_eq!(result.data.input(1)[s], 0.0);
    }
}
