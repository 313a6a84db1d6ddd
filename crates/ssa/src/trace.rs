//! Uniformly-sampled simulation traces.
//!
//! The paper's logic analyzer consumes "simulation data of all I/O
//! species" (`SDA`) — a table of species amounts sampled at a fixed
//! interval. [`TraceRecorder`] implements the sampling as an [`Observer`]
//! (zero-order hold: each sample takes the state valid at that instant)
//! and produces a [`Trace`].

use crate::compiled::{CompiledModel, State};
use crate::engine::{Observer, SAMPLE_SLACK};
use serde::{Deserialize, Serialize};

/// A recorded simulation trace: per-species time series on a uniform grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    species: Vec<String>,
    sample_dt: f64,
    t0: f64,
    /// `data[s][k]` = amount of species `s` at time `t0 + k * sample_dt`.
    data: Vec<Vec<f64>>,
}

impl Trace {
    /// Creates an empty trace for the given species, sampling interval
    /// and start time.
    ///
    /// # Panics
    ///
    /// Panics if `sample_dt` is not strictly positive.
    pub fn new(species: Vec<String>, sample_dt: f64, t0: f64) -> Self {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        let n = species.len();
        Trace {
            species,
            sample_dt,
            t0,
            data: vec![Vec::new(); n],
        }
    }

    /// Species names, in column order.
    pub fn species(&self) -> &[String] {
        &self.species
    }

    /// Sampling interval.
    pub fn sample_dt(&self) -> f64 {
        self.sample_dt
    }

    /// Time of the first sample.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Number of samples per series.
    pub fn len(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Time of sample `k`.
    pub fn time(&self, k: usize) -> f64 {
        self.t0 + k as f64 * self.sample_dt
    }

    /// Series for species `name`, if present.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        let idx = self.species.iter().position(|s| s == name)?;
        Some(&self.data[idx])
    }

    /// Series by column index.
    pub fn series_at(&self, idx: usize) -> &[f64] {
        &self.data[idx]
    }

    /// Appends one sample row (used by the recorder and by trace
    /// concatenation).
    ///
    /// # Panics
    ///
    /// Panics if `row` length differs from the species count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.data.len(), "row width mismatch");
        for (series, value) in self.data.iter_mut().zip(row) {
            series.push(*value);
        }
    }

    /// Appends all samples of `other` (same species, same `sample_dt`;
    /// `other` is assumed to continue where `self` ends).
    ///
    /// # Panics
    ///
    /// Panics if the species lists or sampling intervals differ.
    pub fn extend(&mut self, other: &Trace) {
        assert_eq!(self.species, other.species, "species mismatch");
        assert_eq!(self.sample_dt, other.sample_dt, "sample_dt mismatch");
        for (mine, theirs) in self.data.iter_mut().zip(&other.data) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Mean of a series over the sample range `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn mean(&self, name: &str, from: usize, to: usize) -> f64 {
        let series = self.series(name).expect("unknown species");
        let window = &series[from..to];
        assert!(!window.is_empty(), "empty window");
        window.iter().sum::<f64>() / window.len() as f64
    }
}

/// Records a [`Trace`] while an engine runs, sampling with zero-order
/// hold at a fixed interval.
#[derive(Debug)]
pub struct TraceRecorder {
    trace: Trace,
    species_count: usize,
    next_sample_t: f64,
}

impl TraceRecorder {
    /// Creates a recorder for all species of `model`, sampling every
    /// `sample_dt` starting at `t = 0`.
    pub fn new(model: &CompiledModel, sample_dt: f64) -> Self {
        Self::with_start(model, sample_dt, 0.0)
    }

    /// Creates a recorder whose first sample is at `t0`.
    pub fn with_start(model: &CompiledModel, sample_dt: f64, t0: f64) -> Self {
        TraceRecorder {
            trace: Trace::new(model.species_names().to_vec(), sample_dt, t0),
            species_count: model.species_count(),
            next_sample_t: t0,
        }
    }

    /// Finalizes the trace, sampling up to *and including* `t_end` with
    /// the final state.
    pub fn finish(mut self, t_end: f64, state: &State) -> Trace {
        // Take remaining samples at the final state, inclusive horizon.
        while self.next_sample_t <= t_end + 1e-9 {
            self.trace.push_row(&state.values[..self.species_count]);
            self.next_sample_t += self.trace.sample_dt;
        }
        self.trace
    }

    /// The trace recorded so far (mainly for tests).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Observer for TraceRecorder {
    fn on_advance(&mut self, t_new: f64, values: &[f64]) {
        // `values` is valid on [previous time, t_new): every sample point
        // strictly before t_new takes it.
        while self.next_sample_t < t_new - SAMPLE_SLACK {
            self.trace.push_row(&values[..self.species_count]);
            self.next_sample_t += self.trace.sample_dt;
        }
    }

    /// The next sample point: an advance to `t_new` records nothing
    /// unless it lies before `t_new - SAMPLE_SLACK`.
    fn next_due(&self) -> f64 {
        self.next_sample_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

    fn tiny_model() -> CompiledModel {
        let model = ModelBuilder::new("m")
            .species("A", 1.0)
            .species("B", 2.0)
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    #[test]
    fn recorder_zero_order_hold() {
        let model = tiny_model();
        let mut rec = TraceRecorder::new(&model, 1.0);
        // State [1, 2] holds until t = 2.5.
        rec.on_advance(2.5, &[1.0, 2.0]);
        // State [5, 6] holds until t = 4.2.
        rec.on_advance(4.2, &[5.0, 6.0]);
        let state = State {
            t: 4.2,
            values: vec![9.0, 10.0],
        };
        let trace = rec.finish(5.0, &state);
        // Samples at t = 0,1,2 take [1,2]; t = 3,4 take [5,6]; t = 5 final.
        assert_eq!(trace.series("A").unwrap(), &[1.0, 1.0, 1.0, 5.0, 5.0, 9.0]);
        assert_eq!(trace.series("B").unwrap(), &[2.0, 2.0, 2.0, 6.0, 6.0, 10.0]);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.time(5), 5.0);
    }

    #[test]
    fn sample_exactly_at_event_takes_pre_event_state() {
        let model = tiny_model();
        let mut rec = TraceRecorder::new(&model, 1.0);
        rec.on_advance(1.0, &[1.0, 1.0]);
        // The sample at t = 1.0 must NOT take [1,1]: the state changes at
        // exactly t = 1.0, and zero-order hold assigns the new state.
        let state = State {
            t: 1.0,
            values: vec![7.0, 7.0],
        };
        let trace = rec.finish(1.0, &state);
        assert_eq!(trace.series("A").unwrap(), &[1.0, 7.0]);
    }

    #[test]
    fn finish_without_events_fills_with_final_state() {
        let model = tiny_model();
        let rec = TraceRecorder::new(&model, 0.5);
        let state = State {
            t: 2.0,
            values: vec![3.0, 4.0],
        };
        let trace = rec.finish(2.0, &state);
        assert_eq!(trace.len(), 5); // t = 0, 0.5, 1, 1.5, 2
        assert!(trace.series("A").unwrap().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn trace_extend_concatenates() {
        let mut a = Trace::new(vec!["X".into()], 1.0, 0.0);
        a.push_row(&[1.0]);
        a.push_row(&[2.0]);
        let mut b = Trace::new(vec!["X".into()], 1.0, 2.0);
        b.push_row(&[3.0]);
        a.extend(&b);
        assert_eq!(a.series("X").unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "species mismatch")]
    fn trace_extend_rejects_different_species() {
        let mut a = Trace::new(vec!["X".into()], 1.0, 0.0);
        let b = Trace::new(vec!["Y".into()], 1.0, 0.0);
        a.extend(&b);
    }

    #[test]
    fn mean_over_window() {
        let mut trace = Trace::new(vec!["X".into()], 1.0, 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            trace.push_row(&[v]);
        }
        assert_eq!(trace.mean("X", 1, 4), 3.0);
        assert_eq!(trace.mean("X", 0, 4), 2.5);
    }

    #[test]
    fn unknown_series_is_none() {
        let trace = Trace::new(vec!["X".into()], 1.0, 0.0);
        assert!(trace.series("Y").is_none());
        assert!(trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "sample_dt must be positive")]
    fn zero_dt_is_rejected() {
        let _ = Trace::new(vec!["X".into()], 0.0, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut trace = Trace::new(vec!["X".into(), "Y".into()], 2.0, 1.0);
        trace.push_row(&[1.0, 2.0]);
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }
}
