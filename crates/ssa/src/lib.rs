//! Stochastic simulation of reaction-network models.
//!
//! Genetic circuits involve small, discrete molecule counts, so the paper
//! (following Gillespie \[7\] and McAdams & Arkin \[6\]) simulates them with a
//! stochastic simulation algorithm rather than ODEs. This crate provides:
//!
//! * [`compiled`] — a [`compiled::CompiledModel`]: kinetic laws compiled to
//!   slot-indexed programs and grouped by shape into a batched
//!   structure-of-arrays evaluator (`glc_model::expr::KineticFormBank`),
//!   per-reaction state deltas (boundary species excluded), and the
//!   reaction dependency graph;
//! * [`propensity`] / [`sum_tree`] — the incremental propensity engine
//!   shared by **all** engines: cached propensities updated only for
//!   `dependents(fired)` after each firing (full-sweep engines rebuild
//!   through one batched bank sweep), with O(log R) reaction selection
//!   through a flat binary sum tree;
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
pub mod sum_tree;
pub mod tau_leap;
pub mod trace;
pub mod wire;

pub use compiled::{CompiledModel, ModelCache, State, DEFAULT_MODEL_CACHE_CAPACITY};
pub use control::{InputSchedule, ScheduleRunner};
pub use direct::Direct;
pub use draws::{standard_normal, NormalBlock, NormalCarry};
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
pub use sum_tree::SumTree;
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
