//! Stochastic simulation of reaction-network models.
//!
//! Genetic circuits involve small, discrete molecule counts, so the paper
//! (following Gillespie \[7\] and McAdams & Arkin \[6\]) simulates them with a
//! stochastic simulation algorithm rather than ODEs. This crate provides:
//!
//! * [`compiled`] — a [`compiled::CompiledModel`]: kinetic laws compiled to
//!   slot-indexed programs, each classified into its kinetic form and
//!   held with its Hill memo slots (`glc_model::expr::KineticFormBank`),
//!   per-reaction state deltas (boundary species excluded), and the
//!   reaction dependency graph;
//! * [`propensity`] — the incremental propensity engine shared by the
//!   exact engines: one flat vector of cached propensities, updated
//!   only for `dependents(fired)` after each firing (from per-run
//!   copy-number tables where a law reads one changing species), with
//!   the total summed in reaction order and a linear CDF scan for
//!   reaction selection;
//! * [`draws`] — the batched Gaussian source (pairwise Box–Muller over
//!   block-refilled uniforms, with a carry slot for odd draw counts)
//!   behind the Langevin engine and tau-leap's large-λ normal branch;
//! * [`engine`] — the [`engine::Engine`] trait plus four implementations:
//!   [`direct::Direct`] (Gillespie's direct method),
//!   [`first_reaction::FirstReaction`],
//!   [`next_reaction::NextReaction`] (Gibson–Bruck, using the indexed
//!   priority queue in [`ipq`] on top of the shared propensity cache),
//!   and [`tau_leap::TauLeap`];
//! * [`trace`] — uniformly-sampled simulation traces (the "simulation data
//!   of all I/O species", `SDA`, consumed by the logic analyzer);
//! * [`control`] — piecewise-constant input schedules for driving boundary
//!   (input) species through the 2^N input combinations;
//! * [`ode`] — a deterministic RK4 integrator for mean-behaviour checks.
//!
//! # Example
//!
//! ```
//! use glc_model::ModelBuilder;
//! use glc_ssa::{CompiledModel, Direct, simulate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ModelBuilder::new("birth_death")
//!     .species("X", 0.0)
//!     .parameter("k_prod", 5.0)
//!     .parameter("k_deg", 0.1)
//!     .reaction("prod", &[], &["X"], "k_prod")?
//!     .reaction("deg", &["X"], &[], "k_deg * X")?
//!     .build()?;
//! let compiled = CompiledModel::new(&model)?;
//! // Steady state is k_prod / k_deg = 50 molecules.
//! let trace = simulate(&compiled, &mut Direct::new(), 1000.0, 1.0, 42)?;
//! let x = trace.series("X").unwrap();
//! let tail_mean: f64 = x[500..].iter().sum::<f64>() / (x.len() - 500) as f64;
//! assert!((tail_mean - 50.0).abs() < 10.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compiled;
pub mod control;
pub mod direct;
pub mod draws;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod exact;
pub mod first_reaction;
pub mod ipq;
pub mod langevin;
pub mod next_reaction;
pub mod ode;
pub mod propensity;
pub mod tau_leap;
pub mod trace;
pub mod wire;

pub use compiled::{CompiledModel, ModelCache, State, TableCensus, DEFAULT_MODEL_CACHE_CAPACITY};
pub use control::{InputSchedule, ScheduleRunner};
pub use direct::Direct;
pub use draws::{exp1, standard_normal, NormalBlock, NormalCarry};
pub use engine::{Engine, Observer};
pub use ensemble::{
    run_ensemble, run_partial, run_partial_from, Ensemble, EnsemblePartial, PartialFingerprint,
};
pub use error::SimError;
pub use exact::ExactSum;
pub use first_reaction::FirstReaction;
pub use langevin::Langevin;
pub use next_reaction::NextReaction;
pub use propensity::PropensitySet;
pub use tau_leap::TauLeap;
pub use trace::{Trace, TraceRecorder};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `engine` on `model` from its initial state until `t_end`,
/// recording every species at interval `sample_dt`.
///
/// Convenience wrapper over [`CompiledModel::initial_state`],
/// [`TraceRecorder`] and [`Engine::run`].
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (e.g. a kinetic law producing a
/// non-finite propensity).
pub fn simulate(
    model: &CompiledModel,
    engine: &mut dyn Engine,
    t_end: f64,
    sample_dt: f64,
    seed: u64,
) -> Result<Trace, SimError> {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recorder = TraceRecorder::new(model, sample_dt);
    engine.run(model, &mut state, t_end, &mut rng, &mut recorder)?;
    Ok(recorder.finish(t_end, &state))
}

/// Checks carried over from the sum tree that [`PropensitySet`]'s flat
/// vector replaced: every behaviour the tree guaranteed — incremental
/// updates bitwise equal to a rebuild, inverse-CDF selection, sizes that
/// are not powers of two, one-reaction sets and resizing — must still
/// hold on the flat set.
#[cfg(test)]
mod sum_tree {
    mod tests {
        use crate::{CompiledModel, PropensitySet};
        use glc_model::ModelBuilder;

        /// A model whose reaction `r` has the constant propensity
        /// `values[r]`.
        fn constant_model(values: &[f64]) -> CompiledModel {
            let mut builder = ModelBuilder::new("constants").species("X", 0.0);
            for (r, &value) in values.iter().enumerate() {
                let k = format!("k{r}");
                builder = builder
                    .parameter(k.as_str(), value)
                    .reaction(format!("r{r}"), &[], &["X"], &k)
                    .unwrap();
            }
            CompiledModel::new(&builder.build().unwrap()).unwrap()
        }

        /// A set rebuilt on [`constant_model`], so it caches exactly
        /// `values`.
        fn set_of(values: &[f64]) -> PropensitySet {
            let model = constant_model(values);
            let mut set = PropensitySet::new();
            set.rebuild(&model, &model.initial_state()).unwrap();
            assert_eq!(set.as_slice(), values);
            set
        }

        #[test]
        fn incremental_equals_rebuild_bitwise() {
            // Awkward magnitudes on purpose: the pure-function invariant
            // must hold through fp round-off, on tabled laws (one
            // changing species), a two-species law and constants.
            let model = ModelBuilder::new("awkward")
                .species("A", 10.0)
                .species("B", 0.0)
                .parameter("k0", 0.1)
                .parameter("k1", 1e-9)
                .parameter("k2", 3.7e5)
                .parameter("k3", 0.0)
                .parameter("k4", 2.2250738585072014e-308)
                .parameter("k5", 42.0)
                .parameter("k6", 7.5)
                .reaction("a_to_b", &["A"], &["B"], "k0 * A")
                .unwrap()
                .reaction("b_to_a", &["B"], &["A"], "k1 * B")
                .unwrap()
                .reaction("a_in", &[], &["A"], "k2")
                .unwrap()
                .reaction("a_out", &["A"], &[], "k3 * A")
                .unwrap()
                .reaction("b_out", &["B"], &[], "k4 * B")
                .unwrap()
                .reaction("a_eaten", &["A", "B"], &["B"], "k5 * A * B")
                .unwrap()
                .reaction("b_in", &[], &["B"], "k6")
                .unwrap()
                .build()
                .unwrap();
            let model = CompiledModel::new(&model).unwrap();
            let mut state = model.initial_state();
            let mut incremental = PropensitySet::new();
            incremental.rebuild(&model, &state).unwrap();
            let mut rebuilt = PropensitySet::new();
            // Fire in a scrambled order, with repeats, so copy numbers
            // come back to counts seen earlier in the run.
            for fired in [3usize, 0, 6, 2, 5, 1, 4, 0, 6] {
                model.apply(fired, &mut state);
                incremental.update_after(&model, &state, fired).unwrap();
                rebuilt.rebuild(&model, &state).unwrap();
                let bits = |set: &PropensitySet| -> Vec<u64> {
                    set.as_slice().iter().map(|value| value.to_bits()).collect()
                };
                assert_eq!(bits(&incremental), bits(&rebuilt), "after {fired}");
                assert_eq!(
                    incremental.total().to_bits(),
                    rebuilt.total().to_bits(),
                    "after {fired}"
                );
            }
        }

        #[test]
        fn select_matches_linear_scan() {
            // Zeros at both ends and in the middle; dyadic values keep
            // the prefix sums exact, so the expected reaction is
            // unambiguous.
            let values = [0.0, 2.5, 0.0, 1.25, 4.0, 0.25, 0.0, 1.0, 3.5, 0.0];
            let set = set_of(&values);
            let total = set.total();
            assert_eq!(total, 12.5);
            let mut target = 0.0;
            while target < total {
                let mut prefix = 0.0;
                let expected = values
                    .iter()
                    .position(|&value| {
                        prefix += value;
                        prefix > target
                    })
                    .unwrap();
                assert_eq!(set.select(target), expected, "target {target}");
                target += 0.125;
            }
            // At or past the total: the last positive reaction, not the
            // trailing zero.
            assert_eq!(set.select(total), 8);
            assert_eq!(set.select(total + 10.0), 8);
        }

        #[test]
        fn single_leaf_and_reset() {
            let mut set = set_of(&[2.0]);
            assert_eq!(set.total(), 2.0);
            assert_eq!(set.select(0.0), 0);
            assert_eq!(set.select(1.9), 0);

            // Rebuilding on a larger model resizes the set.
            let quiescent = constant_model(&[0.0, 0.0, 0.0]);
            set.rebuild(&quiescent, &quiescent.initial_state()).unwrap();
            assert_eq!(set.len(), 3);
            assert_eq!(set.total(), 0.0);
            let one_live = constant_model(&[0.0, 1.0, 0.0]);
            set.rebuild(&one_live, &one_live.initial_state()).unwrap();
            assert_eq!(set.select(0.5), 1);
        }

        #[test]
        fn non_power_of_two_padding_is_invisible() {
            // The tree padded five leaves to eight; the flat set must
            // likewise never select or sum past the last reaction.
            let set = set_of(&[1.0, 1.0, 1.0, 1.0, 1.0]);
            assert_eq!(set.len(), 5);
            assert_eq!(set.total(), 5.0);
            assert_eq!(set.select(4.5), 4);
            assert_eq!(set.select(4.999), 4);
            assert_eq!(set.select(5.0), 4);
        }
    }
}
