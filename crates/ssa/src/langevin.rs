//! Chemical Langevin equation engine (Euler–Maruyama).
//!
//! Between the exact SSA (every firing resolved) and the deterministic
//! reaction-rate ODE (no noise at all) sits the chemical Langevin
//! equation: species evolve continuously with drift `Σ ν_j a_j(x)` and
//! per-reaction Gaussian noise of magnitude `√a_j(x)`. It reproduces the
//! right noise *scale* when molecule counts are moderately large at a
//! fraction of the exact methods' cost, and it is the standard middle
//! rung of the simulation-fidelity ladder the engine ablation sweeps.
//!
//! States are continuous here; amounts are clamped at zero and the trace
//! is *not* integer-valued (unlike the exact engines).

use crate::compiled::{CompiledModel, State};
use crate::draws::NormalBlock;
use crate::engine::{Engine, Gated, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use glc_model::expr::EvalMemo;
use rand::rngs::StdRng;

pub use crate::draws::{standard_normal, NormalCarry};

/// The chemical Langevin engine with fixed time step.
///
/// Every Euler–Maruyama step needs all `R` propensities, so the engine
/// fills a flat propensity slice with one memoized sweep over the
/// model's laws per step (no `PropensitySet` — nothing here selects
/// reactions). The step itself then runs as three contiguous passes:
/// *compact* the active (non-quiescent) reactions into dense
/// `drift`/`sigma` slices, *fill* one standard normal per active
/// reaction from the batched [`NormalBlock`] source, and a *fused*
/// increment-and-scatter loop `drift[i] + sigma[i]·z[i]` through
/// `model.delta`. All scratch lives on the engine, so steady-state
/// stepping allocates nothing.
#[derive(Debug, Clone)]
pub struct Langevin {
    dt: f64,
    step_limit: u64,
    /// Per-reaction propensities, rebuilt each step by one sweep.
    propensities: Vec<f64>,
    /// Operand stack for kinetic laws that fall back to the postfix VM.
    stack: Vec<f64>,
    /// Hill-response memo threaded through the sweep.
    memo: EvalMemo,
    /// Reaction ids with non-zero propensity this step, densely packed.
    active: Vec<u32>,
    /// Drift increments `a_r * h`, packed to match `active`.
    drift: Vec<f64>,
    /// Noise scales `√a_r * √h`, packed to match `active`.
    sigma: Vec<f64>,
    /// One standard normal per active reaction, batch-filled per step.
    z: Vec<f64>,
    /// The batched Gaussian source (carry reset at every run start).
    normals: NormalBlock,
}

impl Langevin {
    /// Creates a Langevin engine with the given Euler–Maruyama step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `dt` is positive and
    /// finite.
    pub fn new(dt: f64) -> Result<Self, SimError> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "dt must be positive and finite, got {dt}"
            )));
        }
        Ok(Langevin {
            dt,
            step_limit: DEFAULT_STEP_LIMIT,
            propensities: Vec::new(),
            stack: Vec::new(),
            memo: EvalMemo::new(),
            active: Vec::new(),
            drift: Vec::new(),
            sigma: Vec::new(),
            z: Vec::new(),
            normals: NormalBlock::new(),
        })
    }

    /// The integration step.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

impl Engine for Langevin {
    fn name(&self) -> &'static str {
        "langevin"
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
        // Engines are stateless between run calls: a leftover sine half
        // from a previous run is discarded so every run's draw stream is
        // a pure function of the RNG state handed in.
        self.normals.reset();
        let reactions = model.reaction_count();
        let mut steps: u64 = 0;
        while state.t < t_end {
            let h = self.dt.min(t_end - state.t);
            let t_next = state.t + h;
            model.propensities_into(
                state,
                &mut self.propensities,
                &mut self.stack,
                &mut self.memo,
            )?;
            // Per the Observer contract (see `engine::Observer`): the
            // callback fires *before* this step's increments land, so
            // `values` is the state that held over `[t, t_next)` — the
            // hold semantics uniform samplers need. A recorder sample
            // exactly at `t_next` is deliberately deferred to the next
            // callback (or `finish`) and takes the post-step state.
            observer.on_advance(t_next, &state.values);
            let sqrt_h = h.sqrt();
            // Quiescent reactions draw no noise (and consume no RNG
            // values — part of the per-seed trajectory contract), so
            // they never get a dense slot. `a*h + a.sqrt()*sqrt_h*z`
            // associates as `(a*h) + ((a.sqrt()*sqrt_h) * z)`, so
            // splitting off the z-independent parts replays the
            // identical op sequence either way.
            self.drift.clear();
            self.sigma.clear();
            if self.propensities.iter().all(|&a| a != 0.0) {
                // All reactions live — the steady case on the reference
                // circuits once transcription ramps up. Unit-stride
                // drift/σ passes over the propensity slice (each output
                // a pure per-element function, so bitwise ≡ the packed
                // loop below) and a scatter with no index indirection.
                self.drift.extend(self.propensities.iter().map(|&a| a * h));
                self.sigma
                    .extend(self.propensities.iter().map(|&a| a.sqrt() * sqrt_h));
                self.z.resize(reactions, 0.0);
                self.normals.fill(rng, &mut self.z);
                for r in 0..reactions {
                    let increment = self.drift[r] + self.sigma[r] * self.z[r];
                    for &(slot, delta) in model.delta(r) {
                        state.values[slot] += delta as f64 * increment;
                    }
                }
            } else {
                // Compaction pass: densely pack the active reactions.
                self.active.clear();
                for r in 0..reactions {
                    let a = self.propensities[r];
                    if a == 0.0 {
                        continue;
                    }
                    self.active.push(r as u32);
                    self.drift.push(a * h);
                    self.sigma.push(a.sqrt() * sqrt_h);
                }
                // Batched draw: one normal per active reaction, in
                // reaction order — bitwise what the reference draws.
                self.z.resize(self.active.len(), 0.0);
                self.normals.fill(rng, &mut self.z);
                // Fused increment-and-scatter over the dense slices.
                for i in 0..self.active.len() {
                    let increment = self.drift[i] + self.sigma[i] * self.z[i];
                    for &(slot, delta) in model.delta(self.active[i] as usize) {
                        state.values[slot] += delta as f64 * increment;
                    }
                }
            }
            for slot in 0..model.species_count() {
                if state.values[slot] < 0.0 {
                    state.values[slot] = 0.0;
                }
            }
            state.t = t_next;
            steps += 1;
            if steps >= self.step_limit {
                return Err(SimError::StepLimitExceeded {
                    limit: self.step_limit,
                    time: state.t,
                });
            }
        }
        state.t = t_end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullObserver;
    use crate::simulate;
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
    fn rejects_bad_dt() {
        assert!(Langevin::new(0.0).is_err());
        assert!(Langevin::new(f64::NAN).is_err());
        assert_eq!(Langevin::new(0.25).unwrap().dt(), 0.25);
    }

    #[test]
    fn stationary_mean_matches_exact_engines() {
        let model = birth_death();
        let mut engine = Langevin::new(0.05).unwrap();
        let trace = simulate(&model, &mut engine, 2000.0, 1.0, 5).unwrap();
        let series = &trace.series("X").unwrap()[200..];
        let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
        assert!((mean - 50.0).abs() < 4.0, "mean {mean}");
    }

    #[test]
    fn noise_scale_is_poissonian() {
        // CLE should reproduce the √mean noise of the birth–death
        // process: variance ≈ 50 at stationarity.
        let model = birth_death();
        let mut engine = Langevin::new(0.05).unwrap();
        let trace = simulate(&model, &mut engine, 5000.0, 1.0, 11).unwrap();
        let series = &trace.series("X").unwrap()[500..];
        let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
        let var: f64 = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / series.len() as f64;
        assert!(
            (var / mean - 1.0).abs() < 0.35,
            "Fano {} too far from 1",
            var / mean
        );
    }

    #[test]
    fn states_stay_non_negative() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = Langevin::new(0.5).unwrap(); // coarse on purpose
        struct NonNegative;
        impl Observer for NonNegative {
            fn on_advance(&mut self, _t: f64, values: &[f64]) {
                assert!(values[0] >= 0.0);
            }
        }
        engine
            .run(&model, &mut state, 200.0, &mut rng, &mut NonNegative)
            .unwrap();
        assert_eq!(state.t, 200.0);
    }

    #[test]
    fn time_lands_on_horizon_and_rejects_past() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = Langevin::new(0.3).unwrap();
        engine
            .run(&model, &mut state, 1.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 1.0);
        assert!(engine
            .run(&model, &mut state, 0.5, &mut rng, &mut NullObserver)
            .is_err());
    }

    #[test]
    fn quiescent_model_stays_put() {
        let model = ModelBuilder::new("still")
            .species("X", 7.0)
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let mut state = compiled.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        Langevin::new(0.1)
            .unwrap()
            .run(&compiled, &mut state, 5.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.values[0], 7.0);
    }

    #[test]
    fn reused_engine_discards_carry_between_runs() {
        // An odd number of normals per run parks a sine half in the
        // engine's carry. A second run on a reused engine must draw the
        // same trajectory as a fresh engine given the same RNG state:
        // engines are stateless between run calls.
        let model = birth_death(); // X starts at 0 ⇒ one active reaction
        let mut rng = StdRng::seed_from_u64(33);
        let mut engine = Langevin::new(0.1).unwrap();
        let mut state = model.initial_state();
        engine
            .run(&model, &mut state, 0.1, &mut rng, &mut NullObserver)
            .unwrap();
        // Snapshot: a fresh engine continuing from the identical state
        // and RNG position must reproduce the reused engine bitwise.
        let mut rng_fresh = rng.clone();
        let mut state_fresh = state.clone();
        engine
            .run(&model, &mut state, 0.2, &mut rng, &mut NullObserver)
            .unwrap();
        let mut fresh = Langevin::new(0.1).unwrap();
        fresh
            .run(
                &model,
                &mut state_fresh,
                0.2,
                &mut rng_fresh,
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(state.values[0].to_bits(), state_fresh.values[0].to_bits());
        assert_eq!(rng, rng_fresh, "stream positions must agree");
    }
}
