//! Fixed-step tau-leaping (approximate SSA).
//!
//! Advances time in fixed increments `tau`, firing each reaction a
//! Poisson-distributed number of times with mean `a_j * tau`. Much faster
//! than exact methods on stiff models at the cost of accuracy; provided
//! for the engine-ablation benchmark. Species counts are clamped at zero
//! (the standard non-negativity fix-up for plain tau-leaping).

use crate::compiled::{CompiledModel, State};
use crate::draws::{standard_normal, NormalCarry};
use crate::engine::{Engine, Observer, DEFAULT_STEP_LIMIT};
use crate::error::SimError;
use glc_model::expr::EvalMemo;
use rand::rngs::StdRng;
use rand::Rng;

/// The tau-leaping engine.
///
/// Unlike the exact engines, a leap touches every reaction every step,
/// so there is nothing for the incremental `PropensitySet` machinery
/// to save: the engine keeps a flat propensity slice filled
/// by one batched bank sweep per leap, and draws firings in a single
/// chunked loop over precomputed means. All per-step scratch (the
/// slices, the VM stack, the Hill memo, the per-reaction Poisson
/// threshold memo) lives on the engine, so steady-state stepping
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct TauLeap {
    tau: f64,
    step_limit: u64,
    /// Per-reaction propensities, rebuilt each leap by one bank sweep.
    propensities: Vec<f64>,
    /// Operand stack for kinetic laws that fall back to the postfix VM.
    stack: Vec<f64>,
    /// Hill-response memo threaded through the bank sweep.
    memo: EvalMemo,
    /// Per-reaction Poisson means `a_r * dt` for the current leap.
    lambdas: Vec<f64>,
    /// Per-reaction `(lambda bits, exp(-lambda))` memo for the Knuth
    /// sampler. The mapping is model-independent (a pure function of
    /// the bits), so entries surviving a model switch are still exact.
    thresholds: Vec<(u64, f64)>,
    /// Carry slot of the paired Box–Muller scheme used by the large-λ
    /// normal approximation (reset at every run start).
    carry: NormalCarry,
}

impl TauLeap {
    /// Creates a tau-leaping engine with the given fixed leap length.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `tau` is not strictly
    /// positive and finite.
    pub fn new(tau: f64) -> Result<Self, SimError> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "leap length must be positive and finite, got {tau}"
            )));
        }
        Ok(TauLeap {
            tau,
            step_limit: DEFAULT_STEP_LIMIT,
            propensities: Vec::new(),
            stack: Vec::new(),
            memo: EvalMemo::new(),
            lambdas: Vec::new(),
            thresholds: Vec::new(),
            carry: NormalCarry::new(),
        })
    }

    /// The fixed leap length.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

/// Samples `Poisson(lambda)`.
///
/// Knuth's product method for small means; for large means a rounded
/// normal approximation `N(lambda, lambda)`, which is accurate to well
/// under a percent for `lambda > 30` — fine for an approximate engine.
/// The normal branch draws through the paired Box–Muller scheme
/// ([`standard_normal`]): `carry` holds the sine half of a pair between
/// large-λ draws, so consecutive normal-branch samples cost one
/// uniform pair per *two* samples. Knuth-branch draws consume raw
/// uniforms and leave the carry untouched, so any interleaving of
/// branches is stream-deterministic.
///
/// Public so benches and the bitwise-equivalence tests can replay the
/// engine's exact draw sequence against a reference loop.
pub fn poisson(rng: &mut StdRng, lambda: f64, carry: &mut NormalCarry) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let threshold = (-lambda).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > threshold {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let z = standard_normal(rng, carry);
        let sample = lambda + lambda.sqrt() * z;
        sample.round().max(0.0) as u64
    }
}

/// [`poisson`] with the Knuth threshold `exp(-lambda)` memoized per
/// reaction: a leap re-presents the same mean whenever the reaction's
/// propensity did not change, which elides the `exp` on the hot path.
/// `exp` is a pure function of the operand bits and the memo is keyed
/// on exactly those bits, so draws — and the RNG stream — are bitwise
/// identical to [`poisson`]. The sentinel `u64::MAX` (a NaN pattern)
/// can never collide: a NaN mean fails `lambda < 30.0` and skips the
/// memo entirely.
#[inline]
fn poisson_memo(
    rng: &mut StdRng,
    lambda: f64,
    memo: &mut (u64, f64),
    carry: &mut NormalCarry,
) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let bits = lambda.to_bits();
        let threshold = if memo.0 == bits {
            memo.1
        } else {
            let threshold = (-lambda).exp();
            *memo = (bits, threshold);
            threshold
        };
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > threshold {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let z = standard_normal(rng, carry);
        let sample = lambda + lambda.sqrt() * z;
        sample.round().max(0.0) as u64
    }
}

impl Engine for TauLeap {
    fn name(&self) -> &'static str {
        "tau-leap"
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
        let reactions = model.reaction_count();
        self.lambdas.resize(reactions, 0.0);
        self.thresholds.resize(reactions, (u64::MAX, 0.0));
        // Engines are stateless between run calls: discard any sine
        // half a previous run's large-λ branch left behind.
        self.carry.reset();
        let mut steps: u64 = 0;
        while state.t < t_end {
            let t_next = (state.t + self.tau).min(t_end);
            // A leap fires many reactions at once, so the union of their
            // dependency sets approaches all of R anyway: one batched
            // structure-of-arrays sweep through the model's
            // kinetic-form bank is the right granularity, and no
            // selection happens, so no `PropensitySet` is kept.
            model.propensities_into(
                state,
                &mut self.propensities,
                &mut self.stack,
                &mut self.memo,
            )?;
            observer.on_advance(t_next, &state.values);
            let dt = t_next - state.t;
            // Precompute the Poisson means so the draw loop runs over
            // one contiguous slice (dt is leap-constant; only the final
            // clipped leap changes it).
            for (lambda, &a) in self.lambdas.iter_mut().zip(&self.propensities) {
                *lambda = a * dt;
            }
            for r in 0..reactions {
                let firings = poisson_memo(
                    rng,
                    self.lambdas[r],
                    &mut self.thresholds[r],
                    &mut self.carry,
                );
                if firings == 0 {
                    continue;
                }
                // Bulk update: equivalent to applying the reaction
                // `firings` times, in O(species touched) instead of
                // O(firings).
                for &(slot, delta) in model.delta(r) {
                    state.values[slot] += delta as f64 * firings as f64;
                }
            }
            // Clamp any species driven negative by the approximation.
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
    fn rejects_bad_tau() {
        assert!(TauLeap::new(0.0).is_err());
        assert!(TauLeap::new(-1.0).is_err());
        assert!(TauLeap::new(f64::NAN).is_err());
        assert!(TauLeap::new(f64::INFINITY).is_err());
        assert_eq!(TauLeap::new(0.5).unwrap().tau(), 0.5);
    }

    #[test]
    fn approximates_stationary_mean() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(17);
        let mut engine = TauLeap::new(0.1).unwrap();
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
            (mean - 50.0).abs() < 5.0,
            "empirical mean {mean} too far from 50"
        );
    }

    #[test]
    fn time_lands_exactly_on_horizon() {
        let model = birth_death();
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(1);
        TauLeap::new(0.3)
            .unwrap()
            .run(&model, &mut state, 1.0, &mut rng, &mut NullObserver)
            .unwrap();
        assert_eq!(state.t, 1.0);
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut carry = NormalCarry::new();
        let lambda = 3.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda, &mut carry)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut carry = NormalCarry::new();
        let lambda = 250.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda, &mut carry)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_pairs_draws() {
        // Two consecutive large-λ draws share one Box–Muller pair: the
        // second must come from the carry, not fresh uniforms.
        let mut rng = StdRng::seed_from_u64(8);
        let mut carry = NormalCarry::new();
        poisson(&mut rng, 100.0, &mut carry);
        assert!(carry.0.is_some(), "sine half must be parked");
        let probe = rng.clone();
        poisson(&mut rng, 40.0, &mut carry);
        assert!(carry.0.is_none());
        assert_eq!(rng, probe, "second draw must not consume uniforms");
    }

    #[test]
    fn poisson_memo_matches_poisson_bitwise() {
        let mut plain_rng = StdRng::seed_from_u64(11);
        let mut memo_rng = StdRng::seed_from_u64(11);
        let mut memo = (u64::MAX, 0.0);
        let mut plain_carry = NormalCarry::new();
        let mut memo_carry = NormalCarry::new();
        // Repeats exercise memo hits; 0.0 and 250.0 the memo-free
        // paths; the interleaved large λs the carry hand-off between
        // normal-branch draws with Knuth draws in between.
        for lambda in [0.5, 0.5, 3.0, 250.0, 0.5, 0.0, 250.0, 3.0, 31.0, 3.0, 29.9] {
            assert_eq!(
                poisson(&mut plain_rng, lambda, &mut plain_carry),
                poisson_memo(&mut memo_rng, lambda, &mut memo, &mut memo_carry),
                "lambda {lambda}"
            );
        }
        assert_eq!(plain_carry, memo_carry);
        // Both samplers must have consumed the identical draw stream.
        assert_eq!(plain_rng.gen::<u64>(), memo_rng.gen::<u64>());
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut carry = NormalCarry::new();
        assert_eq!(poisson(&mut rng, 0.0, &mut carry), 0);
        assert_eq!(poisson(&mut rng, -1.0, &mut carry), 0);
    }

    #[test]
    fn species_never_go_negative() {
        let model = birth_death();
        let mut state = model.initial_state();
        state.set_species(0, 5.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut engine = TauLeap::new(2.0).unwrap(); // coarse leap on purpose
        for _ in 0..200 {
            let t_next = state.t + 2.0;
            engine
                .run(&model, &mut state, t_next, &mut rng, &mut NullObserver)
                .unwrap();
            assert!(state.values[0] >= 0.0);
        }
    }
}
