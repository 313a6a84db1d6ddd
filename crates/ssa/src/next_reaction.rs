//! Gibson–Bruck next-reaction method.
//!
//! An exact SSA variant that stores one absolute tentative firing time per
//! reaction in an indexed priority queue and, after each firing, updates
//! only the reactions whose propensities actually changed (per the
//! dependency graph). Firing times of unaffected reactions are *reused*;
//! affected ones are rescaled by the propensity ratio, so the method
//! consumes one fresh random number per firing.
//!
//! Propensities live in the same [`PropensitySet`] the other exact
//! engines share (one cache, one invalidation path, memoized rebuild
//! sweeps over the model's laws); the engine keeps only its
//! indexed priority queue of tentative times on top. The
//! [`PropensitySet::update_after_with`] hook hands this engine each
//! dependent's old and new propensity in one pass, which is exactly
//! what the Gibson–Bruck rescale needs. A reaction whose propensity
//! returns from zero (or whose tentative time was consumed/infinite)
//! cannot be rescaled — the ratio would divide by the stale zero — so
//! that branch always takes a fresh exponential draw instead.

use crate::compiled::{CompiledModel, State};
use crate::draws::exp1;
use crate::engine::{Engine, Gated, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use crate::ipq::IndexedPriorityQueue;
use crate::propensity::PropensitySet;
use rand::rngs::StdRng;

/// The next-reaction method.
#[derive(Debug, Clone)]
pub struct NextReaction {
    step_limit: u64,
    propensities: PropensitySet,
}

impl NextReaction {
    /// Creates a next-reaction engine with the default step limit.
    pub fn new() -> Self {
        NextReaction {
            step_limit: DEFAULT_STEP_LIMIT,
            propensities: PropensitySet::new(),
        }
    }

    fn draw_time(rng: &mut StdRng, t: f64, propensity: f64) -> f64 {
        if propensity > 0.0 {
            t + exp1(rng) / propensity
        } else {
            f64::INFINITY
        }
    }
}

impl Default for NextReaction {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for NextReaction {
    fn name(&self) -> &'static str {
        "next-reaction"
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

        // The shared set is rebuilt every run so external state edits
        // between runs (input clamping) are always picked up.
        self.propensities.rebuild(model, state)?;
        let mut times = vec![f64::INFINITY; m];
        for (r, time) in times.iter_mut().enumerate() {
            *time = Self::draw_time(rng, state.t, self.propensities.propensity(r));
        }
        let mut queue = IndexedPriorityQueue::new(times);

        let mut steps: u64 = 0;
        // `min` is `None` only for a model with zero reactions.
        while let Some((fired, t_next)) = queue.min() {
            if t_next >= t_end {
                break; // also covers the all-infinite (quiescent) case
            }
            observer.on_advance(t_next, &state.values);
            state.t = t_next;
            model.apply(fired, state);

            let t_now = state.t;
            self.propensities
                .update_after_with(model, state, fired, |dep, a_old, a_new| {
                    if dep == fired {
                        return; // handled below with a fresh draw
                    }
                    let t_dep = queue.key(dep);
                    let updated = if a_new <= 0.0 {
                        f64::INFINITY
                    } else if a_old > 0.0 && t_dep.is_finite() {
                        // Rescale the remaining waiting time by the
                        // propensity ratio (Gibson–Bruck reuse; keeps
                        // exactness with no new random number).
                        t_now + (a_old / a_new) * (t_dep - t_now)
                    } else {
                        // Resurrected from zero propensity (or an
                        // exhausted/infinite tentative time): there is
                        // no valid waiting time to rescale, so draw a
                        // fresh exponential.
                        Self::draw_time(rng, t_now, a_new)
                    };
                    queue.update(dep, updated);
                })?;

            // The fired reaction always gets a fresh exponential draw.
            // Its cache slot is current either way: `update_after_with`
            // re-evaluated it if it depends on itself, and a reaction
            // outside its own dependent set reads no slot it changed.
            let a_fired = self.propensities.propensity(fired);
            queue.update(fired, Self::draw_time(rng, state.t, a_fired));

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
        NextReaction::new()
            .run(&model, &mut state, 10.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 10.0);
    }

    #[test]
    fn stationary_mean_matches_direct_method() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(13);
        let mut engine = NextReaction::new();
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
            .parameter("k", 0.0)
            .reaction("never", &[], &["X"], "k")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let mut state = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        NextReaction::new()
            .run(&compiled, &mut state, 5.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 5.0);
        assert_eq!(state.values[0], 3.0);
    }

    #[test]
    fn model_with_no_reactions_is_fine() {
        let model = ModelBuilder::new("empty")
            .species("X", 1.0)
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let mut state = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        NextReaction::new()
            .run(&compiled, &mut state, 5.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 5.0);
    }

    #[test]
    fn picks_up_external_state_edits_between_runs() {
        // Clamp-style edit: set X high between segments; the rebuilt
        // queue must see the new degradation propensity.
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(5);
        let mut engine = NextReaction::new();
        engine
            .run(&model, &mut state, 1.0, &mut rng, &mut NullObserver)
            .unwrap();
        state.set_species(0, 10_000.0);
        engine
            .run(&model, &mut state, 60.0, &mut rng, &mut NullObserver)
            .unwrap();
        // After ~6 degradation half-lives from 10k, the count must have
        // collapsed back toward the stationary mean of 50.
        assert!(
            state.values[0] < 300.0,
            "degradation did not act on clamped value: {}",
            state.values[0]
        );
    }

    #[test]
    fn resurrected_reaction_gets_a_fresh_draw_on_the_shared_set() {
        // A chain where the downstream reaction's propensity repeatedly
        // collapses to zero and comes back: production refills A, and
        // conversion (rate k * A) dies whenever A hits 0. On the shared
        // set the `a_old == 0` branch must take a fresh exponential
        // draw — the propensity-ratio rescale would divide the stale
        // zero into the new propensity (0/a_new times an infinite
        // remaining wait: NaN) and wedge the reaction forever.
        let model = ModelBuilder::new("resurrect")
            .species("A", 0.0)
            .species("B", 0.0)
            .parameter("ka", 2.0)
            .parameter("k", 10.0)
            .reaction("prod_a", &[], &["A"], "ka")
            .unwrap()
            .reaction("a_to_b", &["A"], &["B"], "k * A")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();

        // `a_to_b` starts at zero propensity (A = 0) and, with k >> ka,
        // drains A back to zero after nearly every production event —
        // so the run exercises resurrection from zero many times.
        let mut state = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = NextReaction::new();
        engine
            .run(&compiled, &mut state, 50.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 50.0);
        // The resurrected reaction really fires: essentially everything
        // produced has been converted (E[B] ≈ ka * t = 100).
        assert!(
            state.values[1] > 50.0,
            "resurrected a_to_b barely fired: B = {}",
            state.values[1]
        );
        assert!(
            state.values[0] < 20.0,
            "A accumulated, conversion wedged: A = {}",
            state.values[0]
        );
        // And the whole thing is reproducible per seed.
        let mut again = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(3);
        engine
            .run(&compiled, &mut again, 50.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.values, again.values);
    }

    #[test]
    fn counts_stay_integral() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(2);
        struct Check;
        impl Observer for Check {
            fn on_advance(&mut self, _t: f64, values: &[f64]) {
                assert_eq!(values[0].fract(), 0.0);
            }
        }
        NextReaction::new()
            .run(&model, &mut state, 50.0, &mut rng, &mut Check)
            .unwrap();
    }
}
