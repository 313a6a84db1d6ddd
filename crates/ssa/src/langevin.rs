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
//!
//! # Replicate lanes
//!
//! Every Langevin replicate runs the same operations each step, so
//! [`Engine::run_lanes`] steps [`LANES`] replicates in lockstep: one
//! propensity sweep over [`Lanes`] values, then per-lane draws,
//! increments, scatter and zero-clamp. [`Engine::run`] is the same
//! stepper over `f64`, the one-lane instance; there is no second engine.
//!
//! - **Layout.** A lane run holds its state as one [`Lanes`] value per
//!   slot (species, then parameters), lane `i` being replicate `i`, so
//!   the sweep walks forms, operands and Hill memo slots once for all
//!   lanes and each operation acts on a whole lane vector. Each lane
//!   keeps its own `StdRng`, [`NormalBlock`] and active reaction set.
//! - **Width.** [`LANES`] is a compile-time constant taken from the
//!   target: 8 where AVX-512 is enabled, 4 otherwise (four AVX2 lanes;
//!   without vectors the shared walk still pays). There is no option or
//!   environment variable; the workspace builds for the native ISA.
//! - **Tails.** `ensemble::run_partial` hands a lane-capable engine
//!   `LANES` seeds at a time. A shorter tail runs narrower: one seed on
//!   the one-lane instance, more with the unused lanes as padding.
//!   Padding lanes hold a copy of a live lane's state, are never
//!   observed, never draw and never move.
//! - **Quiescent reactions.** A lane with a zero propensity packs its
//!   active reactions and steps on its own that step, as the scalar
//!   engine does; the other lanes step as whole lane vectors, the
//!   scatter writing only their lanes.
//! - **Drop-out.** A lane whose propensities fail validation reports
//!   exactly the error its scalar run reports and stops: it is never
//!   observed again, draws no more and its state freezes. Its lanes of
//!   the sweep still compute, but no other lane reads them.
//!
//! Per lane every operation is the `f64` operation on that lane, and a
//! lane draws exactly its scalar run's normals, so each replicate's
//! bits — trajectory, RNG position and observer calls — equal its
//! scalar run, whatever its neighbours do.

use crate::compiled::{CompiledModel, State};
use crate::draws::NormalBlock;
use crate::engine::{Engine, Gated, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use glc_model::expr::{EvalMemo, Lane, Lanes};
use rand::rngs::StdRng;

pub use crate::draws::{standard_normal, NormalCarry};

/// Replicates [`Engine::run_lanes`] steps in lockstep: 8 where the
/// target has AVX-512, 4 otherwise.
#[cfg(target_feature = "avx512f")]
pub const LANES: usize = 8;
/// Replicates [`Engine::run_lanes`] steps in lockstep: 8 where the
/// target has AVX-512, 4 otherwise.
#[cfg(not(target_feature = "avx512f"))]
pub const LANES: usize = 4;

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
/// stepping allocates nothing. See the [module docs](self) for the
/// replicate lanes.
#[derive(Debug, Clone)]
pub struct Langevin {
    dt: f64,
    step_limit: u64,
    /// The one-lane stepper behind [`Engine::run`].
    one: Stepper<f64>,
    /// The [`LANES`]-wide stepper behind [`Engine::run_lanes`], made on
    /// first use.
    wide: Option<Box<Stepper<Lanes<LANES>>>>,
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
            one: Stepper::new(),
            wide: None,
        })
    }

    /// The integration step.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

/// What one replicate's draws need: its normal source and the packed
/// scratch of a step that has quiescent reactions.
#[derive(Debug, Clone, Default)]
struct LaneDraws {
    /// The batched Gaussian source (carry reset at every run start).
    normals: NormalBlock,
    /// Reaction ids with non-zero propensity this step, densely packed.
    active: Vec<u32>,
    /// Drift increments `a_r * h`, packed to match `active`.
    drift: Vec<f64>,
    /// Noise scales `√a_r * √h`, packed to match `active`.
    sigma: Vec<f64>,
    /// One standard normal per active reaction, batch-filled per step.
    z: Vec<f64>,
}

/// The Euler–Maruyama stepper over `L`, one replicate per lane.
#[derive(Debug, Clone)]
struct Stepper<L: Lane> {
    /// Per-reaction propensities, rebuilt each step by one sweep.
    propensities: Vec<L>,
    /// Operand stack for kinetic laws that fall back to the postfix VM.
    stack: Vec<L>,
    /// Hill-response memo threaded through the sweep.
    memo: EvalMemo<L>,
    /// Per-reaction normals of a step with every reaction active.
    z: Vec<L>,
    /// Per-lane draws.
    lanes: Vec<LaneDraws>,
    /// One lane's values, for its observer.
    column: Vec<f64>,
}

/// One lockstep run's per-lane bookkeeping.
struct Run<'a, 'o> {
    /// One RNG per live lane; lanes past them are padding.
    rngs: &'a mut [StdRng],
    /// One observer per live lane.
    observers: &'a mut [Gated<'o>],
    /// Each lane's clock: the common start on entry; on return `t_end`,
    /// or the time the lane failed at.
    times: &'a mut [f64],
    /// Each lane's error, once it failed.
    faults: &'a mut [Option<SimError>],
}

impl<L: Lane> Stepper<L> {
    fn new() -> Self {
        Stepper {
            propensities: Vec::new(),
            stack: Vec::new(),
            memo: EvalMemo::new(),
            z: Vec::new(),
            lanes: vec![LaneDraws::default(); L::WIDTH],
            column: Vec::new(),
        }
    }

    /// Steps the lanes of `values` from their common clock to `t_end`
    /// in lockstep, until every live lane reached it or failed.
    fn integrate(
        &mut self,
        (dt, step_limit): (f64, u64),
        model: &CompiledModel,
        values: &mut [L],
        t_end: f64,
        run: Run<'_, '_>,
    ) {
        let Run {
            rngs,
            observers,
            times,
            faults,
        } = run;
        // Engines are stateless between run calls: a leftover sine half
        // from a previous run is discarded so every run's draw stream is
        // a pure function of the RNG state handed in.
        for lane in &mut self.lanes {
            lane.normals.reset();
        }
        let reactions = model.reaction_count();
        let species = model.species_count();
        let mut live: u64 = (1 << rngs.len()) - 1;
        let mut t = times[0];
        let mut steps: u64 = 0;
        self.z.clear();
        self.z.resize(reactions, L::splat(0.0));
        while t < t_end && live != 0 {
            let h = dt.min(t_end - t);
            let t_next = t + h;
            let (_, suspects) = model.propensities_lanes(
                values,
                &mut self.propensities,
                &mut self.stack,
                &mut self.memo,
            );
            for lane in lanes_of(suspects & live) {
                if let Err(err) = model.check_lane(&self.propensities, lane, t) {
                    times[lane] = t;
                    faults[lane] = Some(err);
                    live &= !(1 << lane);
                }
            }
            if live == 0 {
                break;
            }
            // Per the Observer contract (see `engine::Observer`): the
            // callback fires *before* this step's increments land, so
            // `values` is the state that held over `[t, t_next)` — the
            // hold semantics uniform samplers need. A recorder sample
            // exactly at `t_next` is deliberately deferred to the next
            // callback (or `finish`) and takes the post-step state.
            for lane in lanes_of(live) {
                let observer = &mut observers[lane];
                if observer.due(t_next) {
                    observer.on_advance(t_next, L::column(values, lane, &mut self.column));
                }
            }
            let sqrt_h = h.sqrt();
            // Quiescent reactions draw no noise (and consume no RNG
            // values — part of the per-seed trajectory contract), so
            // they never get a dense slot. `a*h + a.sqrt()*sqrt_h*z`
            // associates as `(a*h) + ((a.sqrt()*sqrt_h) * z)`, so
            // splitting off the z-independent parts replays the
            // identical op sequence either way.
            let mut quiescent = 0u64;
            for a in &self.propensities {
                for (lane, &a) in a.lanes().iter().enumerate() {
                    quiescent |= u64::from(a == 0.0) << lane;
                }
            }
            // Lanes with a quiescent reaction compact their active
            // reactions into dense slices and step on their own.
            for lane in lanes_of(live & quiescent) {
                let draws = &mut self.lanes[lane];
                // Compaction pass: densely pack the active reactions.
                draws.active.clear();
                draws.drift.clear();
                draws.sigma.clear();
                for (r, a) in self.propensities.iter().enumerate() {
                    let a = a.lane(lane);
                    if a == 0.0 {
                        continue;
                    }
                    draws.active.push(r as u32);
                    draws.drift.push(a * h);
                    draws.sigma.push(a.sqrt() * sqrt_h);
                }
                // Batched draw: one normal per active reaction, in
                // reaction order — bitwise what the reference draws.
                draws.z.resize(draws.active.len(), 0.0);
                draws.normals.fill(&mut rngs[lane], &mut draws.z);
                // Fused increment-and-scatter over the dense slices.
                for i in 0..draws.active.len() {
                    let increment = draws.drift[i] + draws.sigma[i] * draws.z[i];
                    for &(slot, delta) in model.delta(draws.active[i] as usize) {
                        values[slot].lanes_mut()[lane] += delta as f64 * increment;
                    }
                }
            }
            // Every other live lane has every reaction live — the
            // steady case on the reference circuits once transcription
            // ramps up. One normal per reaction and lane, then drift/σ
            // and scatter over whole lane vectors (each output a pure
            // per-lane function, so bitwise ≡ the packed loop above).
            // Lanes outside `dense` keep their values: they stepped
            // above, failed, or are padding.
            let dense = live & !quiescent;
            if dense != 0 {
                for lane in lanes_of(dense) {
                    let draws = &mut self.lanes[lane];
                    draws.z.resize(reactions, 0.0);
                    draws.normals.fill(&mut rngs[lane], &mut draws.z);
                    for (z, &drawn) in self.z.iter_mut().zip(&draws.z) {
                        z.lanes_mut()[lane] = drawn;
                    }
                }
                let all = dense == (1 << L::WIDTH) - 1;
                let (h, sqrt_h) = (L::splat(h), L::splat(sqrt_h));
                for r in 0..reactions {
                    let a = self.propensities[r];
                    let increment = a * h + a.sqrt() * sqrt_h * self.z[r];
                    for &(slot, delta) in model.delta(r) {
                        let next = values[slot] + L::splat(delta as f64) * increment;
                        values[slot] = if all {
                            next
                        } else {
                            L::select(dense, next, values[slot])
                        };
                    }
                }
            }
            for value in &mut values[..species] {
                for x in value.lanes_mut() {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
            t = t_next;
            steps += 1;
            if steps >= step_limit {
                for lane in lanes_of(live) {
                    times[lane] = t;
                    faults[lane] = Some(SimError::StepLimitExceeded {
                        limit: step_limit,
                        time: t,
                    });
                }
                return;
            }
        }
        for lane in lanes_of(live) {
            times[lane] = t_end;
        }
    }
}

/// The lanes set in `mask`, lowest first.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The error of a run that would end before it starts.
fn check_horizon(t: f64, t_end: f64) -> Result<(), SimError> {
    if t_end < t {
        return Err(SimError::InvalidConfig(format!(
            "t_end {t_end} is before current time {t}"
        )));
    }
    Ok(())
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
        check_horizon(state.t, t_end)?;
        let mut times = [state.t];
        let mut faults = [None];
        self.one.integrate(
            (self.dt, self.step_limit),
            model,
            &mut state.values,
            t_end,
            Run {
                rngs: std::slice::from_mut(rng),
                observers: &mut [Gated::new(observer)],
                times: &mut times,
                faults: &mut faults,
            },
        );
        state.t = times[0];
        faults[0].take().map_or(Ok(()), Err)
    }

    fn lanes(&self) -> usize {
        LANES
    }

    fn run_lanes(
        &mut self,
        model: &CompiledModel,
        states: &mut [State],
        t_end: f64,
        rngs: &mut [StdRng],
        observers: &mut [&mut dyn Observer],
    ) -> Vec<Result<(), SimError>> {
        assert!(
            states.len() == rngs.len() && states.len() == observers.len(),
            "one state, RNG and observer per replicate"
        );
        let mut outcomes = Vec::with_capacity(states.len());
        let chunks = states
            .chunks_mut(LANES)
            .zip(rngs.chunks_mut(LANES))
            .zip(observers.chunks_mut(LANES));
        for ((states, rngs), observers) in chunks {
            let t = states[0].t;
            if states.len() == 1 || states.iter().any(|state| state.t != t) {
                // Lanes share one clock; anything else runs alone.
                for ((state, rng), observer) in states.iter_mut().zip(rngs).zip(observers) {
                    outcomes.push(self.run(model, state, t_end, rng, *observer));
                }
                continue;
            }
            if let Err(err) = check_horizon(t, t_end) {
                outcomes.extend(states.iter().map(|_| Err(err.clone())));
                continue;
            }
            // Padding lanes copy the last replicate's values.
            let last = states.len() - 1;
            let mut values: Vec<Lanes<LANES>> = (0..states[0].values.len())
                .map(|slot| Lanes::from_fn(|lane| states[lane.min(last)].values[slot]))
                .collect();
            let mut gated: Vec<Gated<'_>> =
                observers.iter_mut().map(|o| Gated::new(&mut **o)).collect();
            let mut times = [t; LANES];
            let mut faults: [Option<SimError>; LANES] = Default::default();
            let wide = self.wide.get_or_insert_with(|| Box::new(Stepper::new()));
            wide.integrate(
                (self.dt, self.step_limit),
                model,
                &mut values,
                t_end,
                Run {
                    rngs,
                    observers: &mut gated,
                    times: &mut times,
                    faults: &mut faults,
                },
            );
            for (lane, state) in states.iter_mut().enumerate() {
                for (to, value) in state.values.iter_mut().zip(&values) {
                    *to = value.0[lane];
                }
                state.t = times[lane];
                outcomes.push(faults[lane].take().map_or(Ok(()), Err));
            }
        }
        outcomes
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
