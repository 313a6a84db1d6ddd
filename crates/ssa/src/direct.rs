//! Gillespie's direct method (SSA).
//!
//! At each step the total propensity `a0 = Σ a_j` determines an
//! exponentially distributed waiting time `τ ~ Exp(a0)`, and the firing
//! reaction is chosen with probability `a_j / a0` (Gillespie 1977, the
//! algorithm the paper cites as reference \[7\]).
//!
//! Propensities live in a [`PropensitySet`]: after each firing only the
//! reactions in `dependents(fired)` are re-evaluated (most from the
//! set's copy-number tables), `a0` is the in-order sum of the cached
//! values, and selection is a linear CDF scan — O(R) on both, which at
//! the catalog's 4–11 reactions is cheaper than maintaining a tree.
//! [`Direct::with_full_recompute`] keeps the naive recompute-all path
//! callable — it re-evaluates every propensity every step through the
//! same set, which by the set's cache- and table-coherence invariants
//! produces **bitwise-identical trajectories** for the same seed.
//! Benchmarks report the two side by side; tests assert the
//! equivalence.

use crate::compiled::{CompiledModel, State};
use crate::engine::{Engine, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use crate::propensity::PropensitySet;
use rand::rngs::StdRng;
use rand::Rng;

/// The direct method.
#[derive(Debug, Clone)]
pub struct Direct {
    step_limit: u64,
    propensities: PropensitySet,
    full_recompute: bool,
}

impl Direct {
    /// Creates a direct-method engine with the default step limit.
    pub fn new() -> Self {
        Self::with_step_limit(DEFAULT_STEP_LIMIT)
    }

    /// Creates a direct-method engine with a custom per-run step limit.
    pub fn with_step_limit(step_limit: u64) -> Self {
        Direct {
            step_limit,
            propensities: PropensitySet::new(),
            full_recompute: false,
        }
    }

    /// Creates the retained full-recompute baseline: every propensity
    /// is re-evaluated on every step instead of only `dependents`.
    ///
    /// Exists for benchmarking old-vs-new and for equivalence tests;
    /// trajectories are bitwise identical to [`Direct::new`] for the
    /// same seed. Each step is one batched sweep through the kinetic
    /// bank, so the copy-number tables are never filled and every
    /// rebuild resets nothing.
    pub fn with_full_recompute() -> Self {
        Direct {
            step_limit: DEFAULT_STEP_LIMIT,
            propensities: PropensitySet::new(),
            full_recompute: true,
        }
    }
}

impl Default for Direct {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for Direct {
    fn name(&self) -> &'static str {
        if self.full_recompute {
            "direct-full-recompute"
        } else {
            "direct"
        }
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
        // Engines are stateless between runs: a fresh rebuild picks up
        // any external state edits (input clamping) since the last run.
        self.propensities.rebuild(model, state)?;
        let mut steps: u64 = 0;
        loop {
            let a0 = self.propensities.total();
            if a0 <= 0.0 {
                // Quiescent: nothing can ever fire again (propensities only
                // change when state changes). Jump to the horizon.
                break;
            }
            // τ ~ Exp(a0). `gen` yields [0, 1); use 1 - u to avoid ln(0).
            let u: f64 = rng.gen();
            let tau = -(1.0 - u).ln() / a0;
            let t_next = state.t + tau;
            if t_next >= t_end {
                break;
            }
            // Pick reaction j with probability a_j / a0: linear CDF scan.
            let target = rng.gen::<f64>() * a0;
            let fired = self.propensities.select(target);
            observer.on_advance(t_next, &state.values);
            state.t = t_next;
            model.apply(fired, state);
            if self.full_recompute {
                self.propensities.rebuild(model, state)?;
            } else {
                self.propensities.update_after(model, state, fired)?;
            }
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

    fn birth_death(k_prod: f64, k_deg: f64, x0: f64) -> CompiledModel {
        let model = ModelBuilder::new("bd")
            .species("X", x0)
            .parameter("kp", k_prod)
            .parameter("kd", k_deg)
            .reaction("prod", &[], &["X"], "kp")
            .unwrap()
            .reaction("deg", &["X"], &[], "kd * X")
            .unwrap()
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    #[test]
    fn reaches_horizon_and_sets_time() {
        let model = birth_death(5.0, 0.1, 0.0);
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        Direct::new()
            .run(&model, &mut state, 10.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 10.0);
    }

    #[test]
    fn quiescent_model_jumps_to_horizon() {
        // No production, nothing to degrade: zero total propensity.
        let model = birth_death(0.0, 0.1, 0.0);
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        Direct::new()
            .run(&model, &mut state, 100.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 100.0);
        assert_eq!(state.values[0], 0.0);
    }

    #[test]
    fn birth_death_converges_to_analytic_mean() {
        // Stationary distribution is Poisson(kp/kd); mean 50.
        let model = birth_death(5.0, 0.1, 0.0);
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(7);
        let mut engine = Direct::new();
        // Burn in.
        engine
            .run(&model, &mut state, 200.0, &mut rng, &mut NullObserver)
            .unwrap();
        // Time-average over a long window.
        let mut sum = 0.0;
        let mut count = 0usize;
        for _ in 0..2000 {
            let t_next = state.t + 1.0;
            engine
                .run(&model, &mut state, t_next, &mut rng, &mut NullObserver)
                .unwrap();
            sum += state.values[0];
            count += 1;
        }
        let mean = sum / count as f64;
        assert!(
            (mean - 50.0).abs() < 3.0,
            "empirical mean {mean} too far from 50"
        );
    }

    #[test]
    fn step_limit_is_enforced() {
        let model = birth_death(1e6, 0.0, 0.0);
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        let err = Direct::with_step_limit(100)
            .run(&model, &mut state, 1e9, &mut rng, &mut NullObserver)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::StepLimitExceeded { limit: 100, .. }
        ));
    }

    #[test]
    fn t_end_in_the_past_is_rejected() {
        let model = birth_death(1.0, 1.0, 0.0);
        let mut state = model.initial_state();
        state.t = 5.0;
        let mut rng = StdRng::seed_from_u64(1);
        let err = Direct::new()
            .run(&model, &mut state, 1.0, &mut rng, &mut NullObserver)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn species_counts_stay_non_negative_and_integral() {
        let model = birth_death(5.0, 0.5, 20.0);
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(3);
        struct Check;
        impl Observer for Check {
            fn on_advance(&mut self, _t: f64, values: &[f64]) {
                assert!(values[0] >= 0.0);
                assert_eq!(values[0].fract(), 0.0);
            }
        }
        Direct::new()
            .run(&model, &mut state, 50.0, &mut rng, &mut Check)
            .unwrap();
    }

    #[test]
    fn deterministic_given_same_seed() {
        let model = birth_death(5.0, 0.1, 0.0);
        let run = |seed: u64| {
            let mut state = model.initial_state();
            let mut rng = StdRng::seed_from_u64(seed);
            Direct::new()
                .run(&model, &mut state, 100.0, &mut rng, &mut NullObserver)
                .unwrap();
            state.values[0]
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn incremental_is_bitwise_identical_to_full_recompute() {
        // The acceptance invariant of the incremental propensity
        // engine: for a fixed seed the dependency-driven updates must
        // reproduce the naive full-recompute trajectory exactly, step
        // by step.
        let model = birth_death(5.0, 0.1, 20.0);

        #[derive(Default)]
        struct Record(Vec<(u64, u64)>);
        impl Observer for Record {
            fn on_advance(&mut self, t: f64, values: &[f64]) {
                self.0.push((t.to_bits(), values[0].to_bits()));
            }
        }

        for seed in [1u64, 42, 1337] {
            let run = |mut engine: Direct| {
                let mut state = model.initial_state();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut record = Record::default();
                engine
                    .run(&model, &mut state, 200.0, &mut rng, &mut record)
                    .unwrap();
                record.0
            };
            let incremental = run(Direct::new());
            let full = run(Direct::with_full_recompute());
            assert_eq!(incremental, full, "seed {seed}");
        }
    }
}
