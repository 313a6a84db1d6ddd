//! Incremental propensity maintenance for the SSA hot loop.
//!
//! Every exact SSA step needs the current propensity of each reaction,
//! their total, and (for the direct method) an inverse-CDF selection.
//! Recomputing all `R` kinetic laws per firing — as the original
//! engines did — costs O(R·|expr|) even though a firing only changes a
//! few species. [`PropensitySet`] instead:
//!
//! * caches the propensity of every reaction;
//! * after reaction `r` fires, re-evaluates **only**
//!   [`CompiledModel::dependents`]`(r)` — the Gibson–Bruck dependency
//!   set: reactions whose kinetic law reads a slot that firing `r`
//!   changed;
//! * maintains the values as leaves of a [`SumTree`], so the total is
//!   the root and selection is an O(log R) descent instead of an O(R)
//!   scan.
//!
//! # Update/selection invariants
//!
//! 1. **Cache coherence**: after [`PropensitySet::rebuild`] and any
//!    sequence of [`PropensitySet::update_after`] calls that mirrors
//!    the actual firings applied to `state`, every cached propensity
//!    equals a fresh evaluation of its kinetic law against `state` —
//!    bitwise. This holds because the dependency graph is sound (a
//!    reaction not in `dependents(r)` reads no slot that `r` writes,
//!    and kinetic laws are pure functions of the value vector) and
//!    evaluation itself is deterministic.
//! 2. **History independence**: the sum tree recomputes ancestors as
//!    `left + right` on every leaf write, so tree state is a pure
//!    function of the cached leaves. Together with (1): an engine that
//!    rebuilds from scratch every step and one that updates
//!    incrementally walk through bitwise-identical totals and
//!    selections, and hence — for a fixed seed — produce identical
//!    trajectories. `Direct::with_full_recompute` exists precisely to
//!    exercise this equivalence (and to serve as the benchmark
//!    baseline).
//! 3. **External edits require a rebuild**: callers that mutate state
//!    outside [`CompiledModel::apply`] (input clamping between run
//!    segments) must call `rebuild`; engines do this at the top of
//!    every `run`, preserving the documented "stateless between runs"
//!    engine contract.

use crate::compiled::{CompiledModel, State};
use crate::error::SimError;
use crate::sum_tree::SumTree;
use glc_model::expr::EvalMemo;

/// Cached per-reaction propensities with an incremental sum tree.
///
/// Owned by an engine as scratch state; resized to the model on every
/// [`PropensitySet::rebuild`], so one set can serve models of any size
/// over the engine's lifetime.
#[derive(Debug, Clone, Default)]
pub struct PropensitySet {
    tree: SumTree,
    /// Scratch for full recomputes (kept to avoid per-rebuild allocs).
    scratch: Vec<f64>,
    /// Operand stack for kinetic laws that fall back to the postfix VM.
    stack: Vec<f64>,
    /// Hill-response memo threaded through full sweeps and dependent
    /// updates (see [`EvalMemo`]; rebinds itself if the model changes).
    memo: EvalMemo,
}

impl PropensitySet {
    /// Creates an empty set; size is established by `rebuild`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked reactions.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the set tracks no reactions.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Fully re-evaluates every propensity against `state` — one batched
    /// structure-of-arrays sweep through the model's
    /// [`glc_model::expr::KineticFormBank`] — and rebuilds the tree.
    /// Call at the start of every engine run and whenever `state` was
    /// edited outside [`CompiledModel::apply`].
    ///
    /// # Errors
    ///
    /// Propagates the first invalid propensity in reaction order
    /// ([`SimError::NegativePropensity`] /
    /// [`SimError::NonFinitePropensity`]), like the scalar loop it
    /// replaces.
    pub fn rebuild(&mut self, model: &CompiledModel, state: &State) -> Result<(), SimError> {
        let reactions = model.reaction_count();
        if self.tree.len() != reactions {
            self.tree.reset(reactions);
        }
        model.propensities_into(state, &mut self.scratch, &mut self.stack, &mut self.memo)?;
        self.tree.fill_from(&self.scratch);
        Ok(())
    }

    /// Re-evaluates the propensities of `dependents(fired)` after
    /// reaction `fired` was applied to `state`. All other cached values
    /// are untouched — their kinetic laws read no slot the firing
    /// changed. Each dependent is read out of its bank lane
    /// ([`CompiledModel::propensity_with`]); dependent sets are small
    /// and scattered, so per-lane reads beat re-gathering a chunk. A
    /// Hill dependent replays its response from the memo's copy-number
    /// table when its regulator count was seen before, which skips
    /// `powf` on almost every cello update.
    ///
    /// # Errors
    ///
    /// See [`PropensitySet::rebuild`].
    #[inline]
    pub fn update_after(
        &mut self,
        model: &CompiledModel,
        state: &State,
        fired: usize,
    ) -> Result<(), SimError> {
        self.update_after_with(model, state, fired, |_, _, _| ())
    }

    /// Like [`PropensitySet::update_after`], but reports each dependent's
    /// `(reaction, old propensity, new propensity)` to `visit` as it is
    /// re-evaluated — the hook the next-reaction method uses to rescale
    /// its tentative firing times off the shared cache without
    /// evaluating any law twice.
    ///
    /// `visit` runs in `dependents(fired)` order, after the cache slot
    /// has been updated.
    ///
    /// # Errors
    ///
    /// See [`PropensitySet::rebuild`]. On error, dependents earlier in
    /// the order have already been updated and visited (the run is
    /// abandoned anyway — engines rebuild per run).
    #[inline]
    pub fn update_after_with(
        &mut self,
        model: &CompiledModel,
        state: &State,
        fired: usize,
        mut visit: impl FnMut(usize, f64, f64),
    ) -> Result<(), SimError> {
        for &dep in model.dependents(fired) {
            let old = self.tree.get(dep);
            let value = model.propensity_with(dep, state, &mut self.stack, &mut self.memo)?;
            self.tree.set(dep, value);
            visit(dep, old, value);
        }
        Ok(())
    }

    /// Total propensity `a0` (the sum-tree root).
    #[inline]
    pub fn total(&self) -> f64 {
        self.tree.total()
    }

    /// Cached propensity of reaction `r`.
    #[inline]
    pub fn propensity(&self, r: usize) -> f64 {
        self.tree.get(r)
    }

    /// All cached propensities, in reaction order.
    pub fn as_slice(&self) -> &[f64] {
        self.tree.leaves()
    }

    /// Selects the reaction hit by `target ∈ [0, total())` under the
    /// inverse-CDF walk, in O(log R).
    #[inline]
    pub fn select(&self, target: f64) -> usize {
        self.tree.select(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

    fn three_reaction_model() -> CompiledModel {
        let model = ModelBuilder::new("m")
            .species("A", 10.0)
            .species("B", 0.0)
            .parameter("k", 0.5)
            .reaction("a_to_b", &["A"], &["B"], "k * A")
            .unwrap()
            .reaction("b_gone", &["B"], &[], "k * B")
            .unwrap()
            .reaction("a_in", &[], &["A"], "k")
            .unwrap()
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    #[test]
    fn rebuild_matches_direct_evaluation() {
        let model = three_reaction_model();
        let state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.as_slice(), &[5.0, 0.0, 0.5]);
        assert_eq!(set.total(), 5.5);
        assert_eq!(set.propensity(2), 0.5);
    }

    #[test]
    fn incremental_updates_track_firings_bitwise() {
        let model = three_reaction_model();
        let mut state = model.initial_state();
        let mut incremental = PropensitySet::new();
        incremental.rebuild(&model, &state).unwrap();

        let mut reference = PropensitySet::new();
        for fired in [0usize, 0, 1, 2, 0, 1, 1] {
            model.apply(fired, &mut state);
            incremental.update_after(&model, &state, fired).unwrap();
            reference.rebuild(&model, &state).unwrap();
            for r in 0..model.reaction_count() {
                assert_eq!(
                    incremental.propensity(r).to_bits(),
                    reference.propensity(r).to_bits(),
                    "reaction {r} after firing {fired}"
                );
            }
            assert_eq!(incremental.total().to_bits(), reference.total().to_bits());
        }
    }

    #[test]
    fn selection_covers_the_cdf() {
        let model = three_reaction_model();
        let state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).unwrap();
        // Propensities are [5.0, 0.0, 0.5].
        assert_eq!(set.select(0.0), 0);
        assert_eq!(set.select(4.999), 0);
        assert_eq!(set.select(5.0), 2); // skips the zero-propensity leaf
        assert_eq!(set.select(5.4), 2);
    }

    #[test]
    fn invalid_propensities_propagate() {
        let model = ModelBuilder::new("bad")
            .species("X", 0.0)
            .reaction("boom", &[], &["X"], "1 / X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let state = compiled.initial_state();
        let mut set = PropensitySet::new();
        let err = set.rebuild(&compiled, &state).unwrap_err();
        assert!(matches!(err, SimError::NonFinitePropensity { .. }));
    }

    #[test]
    fn rebuild_adapts_to_model_size() {
        let model = three_reaction_model();
        let state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).unwrap();
        assert_eq!(set.len(), 3);

        let small = ModelBuilder::new("s")
            .species("X", 1.0)
            .reaction("deg", &["X"], &[], "X")
            .unwrap()
            .build()
            .unwrap();
        let small = CompiledModel::new(&small).unwrap();
        set.rebuild(&small, &small.initial_state()).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.total(), 1.0);
    }
}
