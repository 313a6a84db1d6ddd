//! Incremental propensity maintenance for the SSA hot loop.
//!
//! Every exact SSA step needs the current propensity of each reaction,
//! their total, and (for the direct method) an inverse-CDF selection.
//! Recomputing all `R` kinetic laws per firing — as the original
//! engines did — costs O(R·|expr|) even though a firing only changes a
//! few species. [`PropensitySet`] instead:
//!
//! * caches the propensity of every reaction in one flat vector;
//! * after reaction `r` fires, re-evaluates **only**
//!   [`CompiledModel::dependents`]`(r)` — the Gibson–Bruck dependency
//!   set: reactions whose kinetic law reads a slot that firing `r`
//!   changed;
//! * serves a dependent whose law reads exactly one changing slot
//!   ([`CompiledModel::table_slot`]) from a per-run table indexed by
//!   that slot's copy number, so a regulator returning to a count seen
//!   earlier in the run costs one load instead of a law evaluation;
//! * sums the values in reaction order on every [`PropensitySet::total`]
//!   and selects by a linear CDF scan (the flat select of the sorting
//!   direct method, McCollum et al., *Comput. Biol. Chem.* 30(1):39–49,
//!   2006). Catalog circuits have 4–11 reactions, where an O(R) scan
//!   beats maintaining a tree.
//!
//! # Invariants
//!
//! 1. **Cache coherence**: after [`PropensitySet::rebuild`] and any
//!    sequence of [`PropensitySet::update_after`] calls that mirrors
//!    the actual firings applied to `state`, every cached propensity
//!    equals a fresh evaluation of its kinetic law against `state` —
//!    bitwise. This holds because the dependency graph is sound (a
//!    reaction not in `dependents(r)` reads no slot that `r` writes),
//!    kinetic laws are pure functions of the value vector, and
//!    evaluation itself is deterministic. Totals and selections read
//!    only the cached values, so an engine that rebuilds from scratch
//!    every step and one that updates incrementally walk through
//!    bitwise-identical totals and selections, and hence — for a fixed
//!    seed — identical trajectories. `Direct::with_full_recompute`
//!    exists precisely to exercise this equivalence (and to serve as
//!    the benchmark baseline).
//! 2. **Table coherence**: a table entry for copy number `x` holds the
//!    value the canonical path ([`CompiledModel::propensity_with`],
//!    checks included) returned for its law at `x` since the last
//!    rebuild. Between rebuilds nothing else the law reads can change
//!    (parameters are constant, and boundary inputs are only edited
//!    between runs), so the value is a pure function of `x` and a hit
//!    replays the canonical bits. `rebuild` empties every entry filled
//!    since the previous rebuild.
//! 3. **External edits require a rebuild**: callers that mutate state
//!    outside [`CompiledModel::apply`] (input clamping between run
//!    segments) must call `rebuild`; engines do this at the top of
//!    every `run`, preserving the documented "stateless between runs"
//!    engine contract.

use crate::compiled::{CompiledModel, State};
use crate::error::SimError;
use glc_model::expr::{copy_number, EvalMemo, COPY_TABLE_LEN};

/// Cached per-reaction propensities plus per-run copy-number tables.
///
/// Owned by an engine as scratch state; resized to the model on every
/// [`PropensitySet::rebuild`], so one set can serve models of any size
/// over the engine's lifetime.
#[derive(Debug, Clone, Default)]
pub struct PropensitySet {
    /// Cached propensity of every reaction, in reaction order.
    values: Vec<f64>,
    /// Operand stack for kinetic laws that fall back to the postfix VM.
    stack: Vec<f64>,
    /// Hill-response memo threaded through full sweeps and dependent
    /// updates (see [`EvalMemo`]; rebinds itself if the model changes).
    memo: EvalMemo,
    /// One [`COPY_TABLE_LEN`]-entry table per tabled law, lane `l` at
    /// `tables[l * COPY_TABLE_LEN..][..COPY_TABLE_LEN]`; NaN marks an
    /// empty entry (a valid propensity is never NaN).
    tables: Vec<f64>,
    /// Indices into `tables` filled since the last rebuild, so a
    /// rebuild resets only those instead of clearing every table.
    filled: Vec<usize>,
}

impl PropensitySet {
    /// Creates an empty set; size is established by `rebuild`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked reactions.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set tracks no reactions.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Fully re-evaluates every propensity against `state` — one batched
    /// structure-of-arrays sweep through the model's
    /// [`glc_model::expr::KineticFormBank`] — and empties the
    /// copy-number tables. Call at the start of every engine run and
    /// whenever `state` was edited outside [`CompiledModel::apply`].
    ///
    /// # Errors
    ///
    /// Propagates the first invalid propensity in reaction order
    /// ([`SimError::NegativePropensity`] /
    /// [`SimError::NonFinitePropensity`]), like the scalar loop it
    /// replaces.
    pub fn rebuild(&mut self, model: &CompiledModel, state: &State) -> Result<(), SimError> {
        let entries = model.tabled_law_count() * COPY_TABLE_LEN;
        if self.tables.len() == entries {
            for &at in &self.filled {
                self.tables[at] = f64::NAN;
            }
        } else {
            self.tables.clear();
            self.tables.resize(entries, f64::NAN);
        }
        self.filled.clear();
        model.propensities_into(state, &mut self.values, &mut self.stack, &mut self.memo)?;
        Ok(())
    }

    /// Re-evaluates the propensities of `dependents(fired)` after
    /// reaction `fired` was applied to `state`. All other cached values
    /// are untouched — their kinetic laws read no slot the firing
    /// changed. A tabled dependent whose changing slot holds a copy
    /// number below [`COPY_TABLE_LEN`] replays its table entry; every
    /// other evaluation reads the law out of its bank lane
    /// ([`CompiledModel::propensity_with`]), where Hill responses
    /// replay from the memo's copy-number table.
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
            let old = self.values[dep];
            let value = self.evaluate(model, state, dep)?;
            self.values[dep] = value;
            visit(dep, old, value);
        }
        Ok(())
    }

    /// Propensity of reaction `r` against `state`: from its copy-number
    /// table when it has one covering the current count, otherwise
    /// through [`CompiledModel::propensity_with`] — storing the result
    /// when the table covers the count but had no entry yet.
    #[inline]
    fn evaluate(
        &mut self,
        model: &CompiledModel,
        state: &State,
        r: usize,
    ) -> Result<f64, SimError> {
        let at = model.table_key(r).and_then(|(slot, lane)| {
            copy_number(state.values[slot]).map(|x| lane * COPY_TABLE_LEN + x)
        });
        let Some(at) = at else {
            return model.propensity_with(r, state, &mut self.stack, &mut self.memo);
        };
        let cached = self.tables[at];
        if !cached.is_nan() {
            return Ok(cached);
        }
        let value = model.propensity_with(r, state, &mut self.stack, &mut self.memo)?;
        self.tables[at] = value;
        self.filled.push(at);
        Ok(value)
    }

    /// Total propensity `a0`: the sequential sum in reaction order, the
    /// same sum [`CompiledModel::propensities_into`] returns.
    #[inline]
    pub fn total(&self) -> f64 {
        let mut total = 0.0;
        for &value in &self.values {
            total += value;
        }
        total
    }

    /// Cached propensity of reaction `r`.
    #[inline]
    pub fn propensity(&self, r: usize) -> f64 {
        self.values[r]
    }

    /// All cached propensities, in reaction order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Selects the reaction hit by `target ∈ [0, total())` under the
    /// inverse-CDF scan: the first reaction whose cumulative propensity
    /// exceeds `target`. When round-off leaves nothing selected (or
    /// `target` is at or past the total) it returns the last reaction
    /// with a positive propensity, so a zero-propensity reaction is
    /// never chosen. With no positive propensity at all — a quiescent
    /// system, which engines never select in — it returns 0.
    #[inline]
    pub fn select(&self, mut target: f64) -> usize {
        for (r, &value) in self.values.iter().enumerate() {
            if target < value {
                return r;
            }
            target -= value;
        }
        self.values
            .iter()
            .rposition(|&value| value > 0.0)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A set holding exactly `values`, as if a rebuild had produced them.
    fn set_of(values: &[f64]) -> PropensitySet {
        PropensitySet {
            values: values.to_vec(),
            ..PropensitySet::default()
        }
    }

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
    fn totals_are_the_sequential_sum_after_updates() {
        let mut set = set_of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(set.total(), 15.0);
        set.values[2] = 0.0;
        assert_eq!(set.total(), 12.0);

        // Along a firing sequence the total is bit for bit the sum a
        // full sweep returns, term order included.
        let model = three_reaction_model();
        let mut state = model.initial_state();
        state.values[2] = 0.1; // k: make the sums round
        set.rebuild(&model, &state).unwrap();
        let (mut out, mut stack, mut memo) = (Vec::new(), Vec::new(), EvalMemo::new());
        for fired in [0usize, 2, 0, 1, 2, 2, 0, 1] {
            model.apply(fired, &mut state);
            set.update_after(&model, &state, fired).unwrap();
            let swept = model
                .propensities_into(&state, &mut out, &mut stack, &mut memo)
                .unwrap();
            assert_eq!(set.total().to_bits(), swept.to_bits(), "after {fired}");
        }
    }

    #[test]
    fn no_target_below_the_total_selects_a_zero_propensity() {
        // Awkward magnitudes on purpose: the scan's running subtraction
        // rounds, and the fallback must still land on a live reaction.
        let values = [
            0.0,
            0.1,
            1e-9,
            0.0,
            3.7e5,
            2.2250738585072014e-308,
            0.0,
            42.0,
            7.5,
            0.0,
        ];
        let set = set_of(&values);
        let total = set.total();
        let below_total = total.next_down();
        let mut rng = StdRng::seed_from_u64(5);
        let targets = [0.0, 0.1, 0.1 + 1e-9, 3.7e5, below_total]
            .into_iter()
            .chain((0..10_000).map(|_| rng.gen::<f64>() * total));
        for target in targets {
            let selected = set.select(target);
            assert!(values[selected] > 0.0, "target {target} chose {selected}");
        }
        assert_eq!(set.select(below_total), 8);
        assert_eq!(set.select(total), 8);
    }

    #[test]
    fn empty_and_quiescent_sets_are_benign() {
        let set = PropensitySet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert_eq!(set.total(), 0.0);
        assert_eq!(set.as_slice(), &[] as &[f64]);
        assert_eq!(set.select(0.0), 0);
        let quiescent = set_of(&[0.0, 0.0, 0.0]);
        assert_eq!(quiescent.total(), 0.0);
        assert_eq!(quiescent.select(0.0), 0);
    }

    #[test]
    fn tables_replay_filled_entries_until_the_next_rebuild() {
        let model = three_reaction_model();
        let mut state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).unwrap();
        // a_to_b reads A and b_gone reads B; a_in reads only k.
        assert_eq!(set.tables.len(), 2 * COPY_TABLE_LEN);
        model.apply(2, &mut state); // A: 10 -> 11
        set.update_after(&model, &state, 2).unwrap();
        assert_eq!(set.filled, vec![11]);
        assert_eq!(set.tables[11], 0.5 * 11.0);

        // A hit is a table read: a planted entry comes back verbatim.
        set.tables[11] = 0.125;
        model.apply(0, &mut state); // A: 11 -> 10, B: 0 -> 1
        set.update_after(&model, &state, 0).unwrap();
        assert_eq!(set.filled, vec![11, 10, COPY_TABLE_LEN + 1]);
        model.apply(2, &mut state); // A: 10 -> 11
        set.update_after(&model, &state, 2).unwrap();
        assert_eq!(set.propensity(0), 0.125);

        // A rebuild empties every filled entry and recomputes.
        set.rebuild(&model, &state).unwrap();
        assert!(set.filled.is_empty());
        assert!(set.tables.iter().all(|value| value.is_nan()));
        assert_eq!(set.propensity(0), 0.5 * 11.0);
    }

    #[test]
    fn counts_off_the_table_take_the_canonical_path() {
        let model = three_reaction_model();
        let mut state = model.initial_state();
        for a in [10.5, COPY_TABLE_LEN as f64 - 1.0] {
            state.values[0] = a;
            let mut set = PropensitySet::new();
            set.rebuild(&model, &state).unwrap();
            model.apply(2, &mut state); // A: a -> a + 1, off the table
            set.update_after(&model, &state, 2).unwrap();
            assert!(set.filled.is_empty(), "A = {a}");
            assert_eq!(set.propensity(0), 0.5 * (a + 1.0));
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
        assert_eq!(set.tables.len(), COPY_TABLE_LEN);
    }
}
