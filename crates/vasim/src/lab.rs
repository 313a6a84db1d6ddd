//! Interactive virtual-lab session.
//!
//! D-VASim's defining feature is *interactivity*: "an interactive
//! virtual laboratory environment" where the user changes input-species
//! concentrations while the stochastic simulation is running and watches
//! the circuit respond \[8\]. [`VirtualLab`] is the programmatic
//! equivalent: load a model, advance simulated time in increments,
//! inject or wash out species between increments, inspect live amounts,
//! and export the full session trace for logic analysis.
//!
//! The batch sweep in [`crate::experiment`] is a scripted session; this
//! type exists for exploratory use (and powers the
//! `interactive_lab` example).

use crate::error::VasimError;
use glc_model::Model;
use glc_ssa::{CompiledModel, Direct, Engine, State, Trace, TraceRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A live simulation session.
pub struct VirtualLab {
    compiled: CompiledModel,
    state: State,
    engine: Box<dyn Engine>,
    rng: StdRng,
    recorder: TraceRecorder,
}

impl std::fmt::Debug for VirtualLab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualLab")
            .field("model", &self.compiled.id())
            .field("t", &self.state.t)
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl VirtualLab {
    /// Loads a model into a fresh session (Gillespie direct method,
    /// sampling every `sample_dt`).
    ///
    /// # Errors
    ///
    /// Returns [`VasimError::InvalidConfig`] for a non-positive
    /// `sample_dt` or a model that fails to compile.
    pub fn load(model: &Model, sample_dt: f64, seed: u64) -> Result<Self, VasimError> {
        Self::load_with_engine(model, sample_dt, seed, Box::new(Direct::new()))
    }

    /// Loads a model with a caller-chosen SSA engine.
    ///
    /// # Errors
    ///
    /// See [`VirtualLab::load`].
    pub fn load_with_engine(
        model: &Model,
        sample_dt: f64,
        seed: u64,
        engine: Box<dyn Engine>,
    ) -> Result<Self, VasimError> {
        if !(sample_dt.is_finite() && sample_dt > 0.0) {
            return Err(VasimError::InvalidConfig(format!(
                "sample_dt must be positive, got {sample_dt}"
            )));
        }
        let compiled =
            CompiledModel::new(model).map_err(|e| VasimError::InvalidConfig(e.to_string()))?;
        let state = compiled.initial_state();
        let recorder = TraceRecorder::new(&compiled, sample_dt);
        Ok(VirtualLab {
            compiled,
            state,
            engine,
            rng: StdRng::seed_from_u64(seed),
            recorder,
        })
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.state.t
    }

    /// Current amount of a species, or `None` if unknown.
    pub fn amount(&self, species: &str) -> Option<f64> {
        self.compiled
            .species_slot(species)
            .map(|slot| self.state.species(slot))
    }

    /// Sets a species amount (injecting or washing out molecules), as a
    /// D-VASim user would mid-run. Works on any species; for inputs you
    /// typically declared them boundary so reactions don't consume them.
    ///
    /// # Errors
    ///
    /// Returns [`VasimError::UnknownSpecies`] or rejects negative or
    /// non-finite amounts.
    pub fn set_amount(&mut self, species: &str, amount: f64) -> Result<(), VasimError> {
        if !(amount.is_finite() && amount >= 0.0) {
            return Err(VasimError::InvalidConfig(format!(
                "amount must be non-negative and finite, got {amount}"
            )));
        }
        let slot = self
            .compiled
            .species_slot(species)
            .ok_or_else(|| VasimError::UnknownSpecies(species.to_string()))?;
        self.state.set_species(slot, amount);
        Ok(())
    }

    /// Advances the simulation by `duration` time units.
    ///
    /// # Errors
    ///
    /// Rejects non-positive durations; propagates simulation failures.
    pub fn run_for(&mut self, duration: f64) -> Result<(), VasimError> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(VasimError::InvalidConfig(format!(
                "duration must be positive, got {duration}"
            )));
        }
        let t_end = self.state.t + duration;
        self.engine.run(
            &self.compiled,
            &mut self.state,
            t_end,
            &mut self.rng,
            &mut self.recorder,
        )?;
        Ok(())
    }

    /// Live snapshot of every species: `(name, amount)` pairs in slot
    /// order.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.compiled
            .species_names()
            .iter()
            .enumerate()
            .map(|(slot, name)| (name.clone(), self.state.species(slot)))
            .collect()
    }

    /// Ends the session and returns the full trace (sampled up to the
    /// current time).
    pub fn into_trace(self) -> Trace {
        self.recorder.finish(self.state.t, &self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

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
    fn interactive_session_tracks_injected_input() {
        let model = follower();
        let mut lab = VirtualLab::load(&model, 1.0, 7).unwrap();
        assert_eq!(lab.time(), 0.0);
        assert_eq!(lab.amount("Y"), Some(0.0));

        lab.run_for(50.0).unwrap();
        assert!(lab.amount("Y").unwrap() < 5.0, "no input yet");

        lab.set_amount("I", 40.0).unwrap();
        lab.run_for(100.0).unwrap();
        assert!(
            lab.amount("Y").unwrap() > 20.0,
            "output should rise after injection: {:?}",
            lab.amount("Y")
        );

        lab.set_amount("I", 0.0).unwrap();
        lab.run_for(100.0).unwrap();
        assert!(lab.amount("Y").unwrap() < 15.0, "output should decay");
        assert_eq!(lab.time(), 250.0);

        let trace = lab.into_trace();
        assert_eq!(trace.len(), 251);
        assert_eq!(trace.series("I").unwrap()[51], 40.0);
    }

    #[test]
    fn snapshot_lists_all_species() {
        let lab = VirtualLab::load(&follower(), 1.0, 1).unwrap();
        let snapshot = lab.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].0, "I");
        assert_eq!(snapshot[1], ("Y".to_string(), 0.0));
    }

    #[test]
    fn validation_of_inputs() {
        let mut lab = VirtualLab::load(&follower(), 1.0, 1).unwrap();
        assert!(matches!(
            lab.set_amount("ghost", 1.0),
            Err(VasimError::UnknownSpecies(_))
        ));
        assert!(lab.set_amount("I", -1.0).is_err());
        assert!(lab.set_amount("I", f64::NAN).is_err());
        assert!(lab.run_for(0.0).is_err());
        assert!(lab.run_for(-5.0).is_err());
        assert!(VirtualLab::load(&follower(), 0.0, 1).is_err());
        assert_eq!(lab.amount("ghost"), None);
    }

    #[test]
    fn debug_format_names_the_model() {
        let lab = VirtualLab::load(&follower(), 1.0, 1).unwrap();
        let text = format!("{lab:?}");
        assert!(text.contains("follower"));
        assert!(text.contains("direct"));
    }
}
