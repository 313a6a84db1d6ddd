//! Gillespie's first-reaction method.
//!
//! Draws a tentative exponential firing time for *every* reaction and
//! fires the earliest. Statistically equivalent to the direct method but
//! uses `M` random numbers per step; included as the historical baseline
//! the next-reaction method improves on.
//!
//! Propensities come from a [`PropensitySet`]: only `dependents(fired)`
//! are re-evaluated per step. The per-step random-number draws remain
//! O(M) — that is the method, not the bookkeeping.

use crate::compiled::{CompiledModel, State};
use crate::draws::exp1;
use crate::engine::{Engine, Gated, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use crate::propensity::PropensitySet;
use rand::rngs::StdRng;

/// The first-reaction method.
#[derive(Debug, Clone)]
pub struct FirstReaction {
    step_limit: u64,
    propensities: PropensitySet,
}

impl FirstReaction {
    /// Creates a first-reaction engine with the default step limit.
    pub fn new() -> Self {
        FirstReaction {
            step_limit: DEFAULT_STEP_LIMIT,
            propensities: PropensitySet::new(),
        }
    }
}

impl Default for FirstReaction {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for FirstReaction {
    fn name(&self) -> &'static str {
        "first-reaction"
    }

    fn step_limit(&self) -> u64 {
        self.step_limit
    }

    fn run(
        &mut self,
        model: &CompiledModel,
        state: &mut State,
        t_end: f64,
        rng: &mut StdRng,
        observer: &mut dyn Observer,
    ) -> Result<(), SimError> {
        if t_end < state.t {
            return Err(SimError::InvalidConfig(format!(
                "t_end {t_end} is before current time {}",
                state.t
            )));
        }
        let mut observer = Gated::new(observer);
        let m = model.reaction_count();
        self.propensities.rebuild(model, state)?;
        let mut steps: u64 = 0;
        loop {
            let mut best: Option<(f64, usize)> = None;
            for r in 0..m {
                let a = self.propensities.propensity(r);
                if a <= 0.0 {
                    continue;
                }
                let tau = exp1(rng) / a;
                if best.is_none_or(|(t, _)| tau < t) {
                    best = Some((tau, r));
                }
            }
            let Some((tau, fired)) = best else {
                break; // quiescent
            };
            let t_next = state.t + tau;
            if t_next >= t_end {
                break;
            }
            observer.on_advance(t_next, &state.values);
            state.t = t_next;
            model.apply(fired, state);
            self.propensities.update_after(model, state, fired)?;
            steps += 1;
            if steps >= self.step_limit {
                return Err(SimError::StepLimitExceeded {
                    limit: self.step_limit,
                    time: state.t,
                });
            }
        }
        observer.on_advance(t_end, &state.values);
        state.t = t_end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullObserver;
    use glc_model::ModelBuilder;
    use rand::SeedableRng;

    fn birth_death() -> CompiledModel {
        let model = ModelBuilder::new("bd")
            .species("X", 0.0)
            .parameter("kp", 5.0)
            .parameter("kd", 0.1)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    #[test]
    fn reaches_horizon() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        FirstReaction::new()
            .run(&model, &mut state, 10.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 10.0);
    }

    #[test]
    fn matches_direct_method_statistics() {
        // Same stationary mean (Poisson, mean 50) as the direct method.
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(21);
        let mut engine = FirstReaction::new();
        engine
            .run(&model, &mut state, 200.0, &mut rng, &mut NullObserver)
            .unwrap();
        let mut sum = 0.0;
        for _ in 0..1500 {
            let t_next = state.t + 1.0;
            engine
                .run(&model, &mut state, t_next, &mut rng, &mut NullObserver)
                .unwrap();
            sum += state.values[0];
        }
        let mean = sum / 1500.0;
        assert!(
            (mean - 50.0).abs() < 3.5,
            "empirical mean {mean} too far from 50"
        );
    }

    #[test]
    fn quiescent_model_terminates() {
        let model = ModelBuilder::new("still")
            .species("X", 3.0)
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let mut state = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        FirstReaction::new()
            .run(&compiled, &mut state, 5.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 5.0);
        assert_eq!(state.values[0], 3.0);
    }
}
