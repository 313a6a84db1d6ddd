//! Compilation of a [`glc_model::Model`] into a simulation-ready form.
//!
//! Compilation resolves every kinetic-law identifier to a slot in a flat
//! value vector (species first, parameters after), precomputes each
//! reaction's net state change (excluding boundary species, which are
//! clamped), and builds the reaction dependency graph used by the
//! Gibson–Bruck next-reaction method.

use crate::error::SimError;
use glc_model::expr::{CompiledExpr, EvalMemo, KineticFormBank};
use glc_model::{Model, ModelError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Simulation state: current time plus the flat value vector.
///
/// `values[0..species_count]` are species amounts (kept integral by the
/// exact engines), followed by the constant parameter values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct State {
    /// Current simulation time.
    pub t: f64,
    /// Species amounts followed by parameter values.
    pub values: Vec<f64>,
}

impl State {
    /// Species amount at `slot`.
    pub fn species(&self, slot: usize) -> f64 {
        self.values[slot]
    }

    /// Sets the species amount at `slot` (used by input schedules to clamp
    /// boundary species).
    pub fn set_species(&mut self, slot: usize, amount: f64) {
        self.values[slot] = amount;
    }
}

/// A model compiled for simulation.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    id: String,
    species_names: Vec<String>,
    reaction_ids: Vec<String>,
    species_count: usize,
    kinetics: Vec<CompiledExpr>,
    /// Batched structure-of-arrays evaluator over `kinetics`; the hot
    /// propensity paths all go through it (bitwise identical to per-law
    /// evaluation).
    bank: KineticFormBank,
    deltas: Vec<Vec<(usize, i64)>>,
    dependents: Vec<Vec<usize>>,
    /// Per law: `(slot, lane)` when the law reads exactly one slot that
    /// some firing changes — its copy-number table is lane `lane` of
    /// the engines' `PropensitySet` tables — else `None`.
    tables: Vec<Option<(usize, usize)>>,
    initial_values: Vec<f64>,
}

impl CompiledModel {
    /// Compiles `model`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] if a kinetic law references an unknown
    /// identifier (cannot happen for a model that passed validation).
    pub fn new(model: &Model) -> Result<Self, ModelError> {
        let kinetics = model.compile_kinetics()?;
        let species_count = model.species().len();

        let mut deltas = Vec::with_capacity(model.reactions().len());
        for reaction in model.reactions() {
            let mut delta: Vec<(usize, i64)> = Vec::new();
            let mut touched: BTreeSet<&str> = BTreeSet::new();
            for (id, _) in reaction.reactants.iter().chain(&reaction.products) {
                touched.insert(id);
            }
            for id in touched {
                let slot = model
                    .species_id(id)
                    .expect("validated model has all species")
                    .0;
                if model.species()[slot].boundary {
                    // Boundary species are clamped: the reaction reads them
                    // but firing it must not change them.
                    continue;
                }
                let net = reaction.net_change(id);
                if net != 0 {
                    delta.push((slot, net));
                }
            }
            deltas.push(delta);
        }

        // dependents[r] = reactions whose propensity reads a slot that
        // firing r changes (the Gibson–Bruck dependency graph).
        let refs: Vec<BTreeSet<usize>> = kinetics
            .iter()
            .map(|k| k.referenced_slots().iter().copied().collect())
            .collect();
        let mut dependents = Vec::with_capacity(deltas.len());
        for delta in &deltas {
            let changed: BTreeSet<usize> = delta.iter().map(|&(slot, _)| slot).collect();
            let deps: Vec<usize> = refs
                .iter()
                .enumerate()
                .filter(|(_, r)| !changed.is_disjoint(r))
                .map(|(j, _)| j)
                .collect();
            dependents.push(deps);
        }

        // A law that reads exactly one slot some firing changes is,
        // within one run, a function of that copy number alone:
        // everything else it reads (parameters, boundary inputs) only
        // changes between runs, and engines rebuild after that.
        let changing: BTreeSet<usize> = deltas.iter().flatten().map(|&(slot, _)| slot).collect();
        let mut lanes = 0;
        let tables = refs
            .iter()
            .map(|reads| {
                let mut read = reads.intersection(&changing);
                let (Some(&slot), None) = (read.next(), read.next()) else {
                    return None;
                };
                lanes += 1;
                Some((slot, lanes - 1))
            })
            .collect();

        let bank = KineticFormBank::new(&kinetics);
        Ok(CompiledModel {
            id: model.id().to_string(),
            species_names: model.species().iter().map(|s| s.id.clone()).collect(),
            reaction_ids: model.reactions().iter().map(|r| r.id.clone()).collect(),
            species_count,
            kinetics,
            bank,
            deltas,
            dependents,
            tables,
            initial_values: model.initial_values(),
        })
    }

    /// Model identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of species (and length of the species prefix of the value
    /// vector).
    pub fn species_count(&self) -> usize {
        self.species_count
    }

    /// Number of reactions.
    pub fn reaction_count(&self) -> usize {
        self.kinetics.len()
    }

    /// Species names in slot order.
    pub fn species_names(&self) -> &[String] {
        &self.species_names
    }

    /// Slot of the species named `name`.
    pub fn species_slot(&self, name: &str) -> Option<usize> {
        self.species_names.iter().position(|n| n == name)
    }

    /// Identifier of reaction `r`.
    pub fn reaction_id(&self, r: usize) -> &str {
        &self.reaction_ids[r]
    }

    /// Fresh state at `t = 0` with initial amounts and parameter values.
    pub fn initial_state(&self) -> State {
        State {
            t: 0.0,
            values: self.initial_values.clone(),
        }
    }

    /// Net state change of reaction `r` as `(slot, delta)` pairs
    /// (boundary species already excluded).
    pub fn delta(&self, r: usize) -> &[(usize, i64)] {
        &self.deltas[r]
    }

    /// Reactions whose propensity may change when reaction `r` fires.
    pub fn dependents(&self, r: usize) -> &[usize] {
        &self.dependents[r]
    }

    /// The one slot reaction `r`'s kinetic law reads that some firing
    /// changes, or `None` when it reads none or several. Within one
    /// run such a law's propensity is a function of that slot alone,
    /// so the exact engines table it by copy number (see
    /// [`crate::propensity`]).
    pub fn table_slot(&self, r: usize) -> Option<usize> {
        self.tables[r].map(|(slot, _)| slot)
    }

    /// `(slot, lane)` of reaction `r`'s copy-number table, if it has
    /// one; lanes number the tabled laws `0..tabled_law_count()`.
    #[inline]
    pub(crate) fn table_key(&self, r: usize) -> Option<(usize, usize)> {
        self.tables[r]
    }

    /// Number of laws with a [`CompiledModel::table_slot`].
    pub fn tabled_law_count(&self) -> usize {
        self.tables.iter().flatten().count()
    }

    /// Evaluates the propensity of reaction `r`, reusing `stack` as
    /// scratch space and `memo` as the Hill response memo.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NegativePropensity`] or
    /// [`SimError::NonFinitePropensity`] for invalid values.
    pub fn propensity_with(
        &self,
        r: usize,
        state: &State,
        stack: &mut Vec<f64>,
        memo: &mut EvalMemo,
    ) -> Result<f64, SimError> {
        // The bank reads the law out of its structure-of-arrays lane
        // (mass-action and Hill shapes with zero dispatch; irregular
        // laws through the retained `CompiledExpr`, which falls back to
        // the postfix VM on `stack`). Literal-coefficient Hill responses
        // replay from `memo`'s copy-number table, so a dependent whose
        // regulator just moved to a count seen before skips `powf`. All
        // paths are bitwise identical, so this is a pure constant-factor
        // win.
        let value = self.bank.eval_one(r, &state.values, stack, memo);
        self.check_propensity(r, value, state.t)
    }

    /// Validates one evaluated propensity.
    fn check_propensity(&self, r: usize, value: f64, t: f64) -> Result<f64, SimError> {
        if !value.is_finite() {
            return Err(SimError::NonFinitePropensity {
                reaction: self.reaction_ids[r].clone(),
                time: t,
            });
        }
        if value < 0.0 {
            return Err(SimError::NegativePropensity {
                reaction: self.reaction_ids[r].clone(),
                time: t,
                value,
            });
        }
        Ok(value)
    }

    /// Evaluates all propensities into `out` (resized as needed) in one
    /// batched sweep through the [`KineticFormBank`].
    ///
    /// The returned total is the sequential sum in reaction order, and
    /// the first invalid propensity (in reaction order) is the error
    /// reported — both exactly as the scalar loop behaved.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::propensity_with`].
    pub fn propensities_into(
        &self,
        state: &State,
        out: &mut Vec<f64>,
        stack: &mut Vec<f64>,
        memo: &mut EvalMemo,
    ) -> Result<f64, SimError> {
        self.propensities_at(&state.values, state.t, out, stack, memo)
    }

    /// Like [`CompiledModel::propensities_into`] but against a raw value
    /// vector (`t` only labels errors). This is the full-sweep primitive
    /// behind tau-leap/Langevin rebuilds and the ODE derivative.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::propensity_with`].
    pub fn propensities_at(
        &self,
        values: &[f64],
        t: f64,
        out: &mut Vec<f64>,
        stack: &mut Vec<f64>,
        memo: &mut EvalMemo,
    ) -> Result<f64, SimError> {
        out.resize(self.kinetics.len(), 0.0);
        self.bank.eval_all(values, out, stack, memo);
        // Fast validation: accumulate the sequential in-order total (the
        // exact FP sum the scalar loop produced) while tracking the
        // minimum. A NaN propensity poisons `total` (min() would skip
        // it), a negative one drags `floor` below zero, and an infinity
        // shows up in `total` directly — only then rerun the per-value
        // check to attribute the error to the first offending reaction.
        let mut total = 0.0;
        let mut floor = f64::INFINITY;
        for &value in out.iter() {
            total += value;
            floor = floor.min(value);
        }
        if total.is_finite() && floor >= 0.0 {
            return Ok(total);
        }
        let mut total = 0.0;
        for (r, &value) in out.iter().enumerate() {
            total += self.check_propensity(r, value, t)?;
        }
        Ok(total)
    }

    /// The scalar reference sweep: evaluates every law one at a time via
    /// [`CompiledExpr::eval_fast`], bypassing the bank's SoA layout.
    ///
    /// Kept as the baseline the batched path is benchmarked and
    /// property-tested against; results are bitwise identical to
    /// [`CompiledModel::propensities_into`].
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::propensity_with`].
    pub fn propensities_into_scalar(
        &self,
        state: &State,
        out: &mut Vec<f64>,
        stack: &mut Vec<f64>,
    ) -> Result<f64, SimError> {
        out.resize(self.kinetics.len(), 0.0);
        let mut total = 0.0;
        for (r, slot) in out.iter_mut().enumerate() {
            let value = self.kinetics[r].eval_fast(&state.values, stack);
            *slot = self.check_propensity(r, value, state.t)?;
            total += *slot;
        }
        Ok(total)
    }

    /// The batched evaluator over this model's kinetic laws.
    pub fn bank(&self) -> &KineticFormBank {
        &self.bank
    }

    /// Applies the state change of firing reaction `r` once.
    pub fn apply(&self, r: usize, state: &mut State) {
        for &(slot, delta) in &self.deltas[r] {
            let updated = state.values[slot] + delta as f64;
            debug_assert!(
                updated >= 0.0,
                "species `{}` driven negative by reaction `{}`",
                self.species_names[slot],
                self.reaction_ids[r]
            );
            state.values[slot] = updated.max(0.0);
        }
    }
}

/// A bounded, fingerprint-keyed cache of compiled models.
///
/// Compiling a catalog circuit — parsing every kinetic law, building
/// the dependency graph and the kinetic-form bank — costs far more than
/// a short simulation shard, and the service layer presents the same
/// few circuits over and over (every replicate shard of a work order,
/// every warm session resubmit). Keying an `Arc<CompiledModel>` by the
/// caller's model fingerprint turns those recompiles into a lookup.
///
/// Keys are opaque `u64`s chosen by the caller; the cache trusts that
/// equal keys mean equivalent models (the service layer fingerprints
/// the canonical model JSON plus its amount overrides). Eviction is
/// least-recently-used over a bounded entry list — the working set is
/// a handful of circuits, so a linear scan beats hashing. Lookups and
/// insertions take a `Mutex`; the build itself runs outside the lock,
/// so concurrent misses on the same key may compile twice, with one
/// winner inserted (correct either way since both are equivalent).
#[derive(Debug)]
pub struct ModelCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: Vec<CacheEntry>,
    clock: u64,
}

#[derive(Debug)]
struct CacheEntry {
    key: u64,
    model: Arc<CompiledModel>,
    last_used: u64,
}

/// Default bound for [`ModelCache`]: comfortably above the catalog's
/// circuit count, small enough that retained banks stay negligible.
pub const DEFAULT_MODEL_CACHE_CAPACITY: usize = 32;

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new(DEFAULT_MODEL_CACHE_CAPACITY)
    }
}

impl ModelCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ModelCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// The process-wide shared cache (used by one-shot workers and the
    /// relay, where every connection thread sees the same models).
    pub fn shared() -> &'static ModelCache {
        static SHARED: OnceLock<ModelCache> = OnceLock::new();
        SHARED.get_or_init(ModelCache::default)
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("model cache lock").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, building and inserting on a miss. Returns the
    /// cached model and whether this call was a hit. Build errors are
    /// propagated and nothing is inserted — a failing key stays a miss.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn get_or_insert<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<CompiledModel, E>,
    ) -> Result<(Arc<CompiledModel>, bool), E> {
        {
            let mut inner = self.inner.lock().expect("model cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
                entry.last_used = clock;
                return Ok((Arc::clone(&entry.model), true));
            }
        }
        // Compile outside the lock: model builds are milliseconds-long
        // and must not serialize unrelated lookups.
        let model = Arc::new(build()?);
        let mut inner = self.inner.lock().expect("model cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
            // Lost a build race; prefer the resident copy so every
            // holder shares one allocation. Still a miss: we compiled.
            entry.last_used = clock;
            return Ok((Arc::clone(&entry.model), false));
        }
        if inner.entries.len() >= self.capacity {
            let evict = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache at capacity is non-empty");
            inner.entries.swap_remove(evict);
        }
        inner.entries.push(CacheEntry {
            key,
            model: Arc::clone(&model),
            last_used: clock,
        });
        Ok((model, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_model::ModelBuilder;

    fn sample() -> CompiledModel {
        let model = ModelBuilder::new("m")
            .boundary_species("I", 100.0)
            .species("A", 10.0)
            .species("B", 0.0)
            .parameter("k", 0.5)
            .reaction("r0", &["A"], &["B"], "k * A * I")
            .unwrap()
            .reaction("r1", &["B"], &[], "k * B")
            .unwrap()
            .reaction("r2", &[], &["A"], "k")
            .unwrap()
            .build()
            .unwrap();
        CompiledModel::new(&model).unwrap()
    }

    #[test]
    fn layout_and_names() {
        let compiled = sample();
        assert_eq!(compiled.species_count(), 3);
        assert_eq!(compiled.reaction_count(), 3);
        assert_eq!(compiled.species_slot("A"), Some(1));
        assert_eq!(compiled.species_slot("nope"), None);
        assert_eq!(compiled.reaction_id(1), "r1");
        assert_eq!(compiled.id(), "m");
        let state = compiled.initial_state();
        assert_eq!(state.values, vec![100.0, 10.0, 0.0, 0.5]);
        assert_eq!(state.t, 0.0);
    }

    #[test]
    fn boundary_species_are_not_changed_by_apply() {
        // A reaction consuming the boundary species I must leave it intact.
        let model = ModelBuilder::new("m")
            .boundary_species("I", 5.0)
            .species("P", 0.0)
            .reaction("uptake", &["I"], &["P"], "I")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let mut state = compiled.initial_state();
        compiled.apply(0, &mut state);
        assert_eq!(state.values[0], 5.0, "boundary species clamped");
        assert_eq!(state.values[1], 1.0, "product still produced");
    }

    #[test]
    fn deltas_cancel_catalytic_species() {
        // A + A -> A + B style: net change of catalyst is zero and should
        // not appear in the delta list.
        let model = ModelBuilder::new("m")
            .species("A", 1.0)
            .species("B", 0.0)
            .reaction_full(
                "cat",
                vec![("A".into(), 1)],
                vec![("A".into(), 1), ("B".into(), 1)],
                vec![],
                "A",
            )
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        assert_eq!(compiled.delta(0), &[(1, 1)]);
    }

    #[test]
    fn dependency_graph_links_changed_slots_to_readers() {
        let compiled = sample();
        // r0 changes A (slot 1) and B (slot 2); r0 reads A, r1 reads B,
        // r2 reads nothing.
        assert_eq!(compiled.dependents(0), &[0, 1]);
        // r1 changes B only; r1 reads B.
        assert_eq!(compiled.dependents(1), &[1]);
        // r2 changes A; r0 reads A.
        assert_eq!(compiled.dependents(2), &[0]);
    }

    #[test]
    fn table_slots_name_the_one_changing_slot_a_law_reads() {
        let compiled = sample();
        // r0 reads A, I and k; only A changes (I is a boundary input).
        assert_eq!(compiled.table_slot(0), Some(1));
        // r1 reads B and k; B changes.
        assert_eq!(compiled.table_slot(1), Some(2));
        // r2 reads only the parameter k.
        assert_eq!(compiled.table_slot(2), None);
        assert_eq!(compiled.tabled_law_count(), 2);
        assert_eq!(compiled.table_key(1), Some((2, 1)));

        // Two changing slots: no table.
        let model = ModelBuilder::new("m")
            .species("A", 1.0)
            .species("B", 1.0)
            .reaction("bind", &["A", "B"], &[], "A * B")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        assert_eq!(compiled.table_slot(0), None);
        assert_eq!(compiled.tabled_law_count(), 0);
    }

    #[test]
    fn propensities_evaluate_against_state() {
        let compiled = sample();
        let state = compiled.initial_state();
        let mut stack = Vec::new();
        let mut memo = EvalMemo::new();
        let a0 = compiled
            .propensity_with(0, &state, &mut stack, &mut memo)
            .unwrap();
        assert_eq!(a0, 0.5 * 10.0 * 100.0);
        let mut all = Vec::new();
        let total = compiled
            .propensities_into(&state, &mut all, &mut stack, &mut memo)
            .unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(total, a0 + 0.0 + 0.5);
    }

    #[test]
    fn sweep_errors_match_scalar_reference() {
        // The fast-validation path must report the same first-offender
        // error the scalar loop does, for both failure kinds.
        for (law, probe) in [("1 / X", "nonfinite"), ("X - 1", "negative")] {
            let model = ModelBuilder::new("m")
                .species("X", 0.0)
                .reaction("ok", &[], &["X"], "2.5")
                .unwrap()
                .reaction("bad", &[], &["X"], law)
                .unwrap()
                .build()
                .unwrap();
            let compiled = CompiledModel::new(&model).unwrap();
            let state = compiled.initial_state();
            let mut out = Vec::new();
            let mut stack = Vec::new();
            let mut memo = EvalMemo::new();
            let batched = compiled
                .propensities_into(&state, &mut out, &mut stack, &mut memo)
                .unwrap_err();
            let scalar = compiled
                .propensities_into_scalar(&state, &mut out, &mut stack)
                .unwrap_err();
            assert_eq!(format!("{batched:?}"), format!("{scalar:?}"), "{probe}");
        }
    }

    #[test]
    fn model_cache_hits_and_evicts() {
        let build = |id: &str| {
            let model = ModelBuilder::new(id)
                .species("X", 1.0)
                .reaction("deg", &["X"], &[], "X")
                .unwrap()
                .build()
                .unwrap();
            CompiledModel::new(&model).unwrap()
        };
        let cache = ModelCache::new(2);
        let (a, hit) = cache
            .get_or_insert(1, || Ok::<_, SimError>(build("a")))
            .unwrap();
        assert!(!hit);
        let (a2, hit) = cache
            .get_or_insert(1, || Ok::<_, SimError>(build("never")))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &a2), "hit returns the resident copy");
        assert_eq!(a2.id(), "a");

        // Fill to capacity, touch key 1, insert a third: key 2 (least
        // recently used) must be the one evicted.
        cache
            .get_or_insert(2, || Ok::<_, SimError>(build("b")))
            .unwrap();
        cache
            .get_or_insert(1, || Ok::<_, SimError>(build("never")))
            .unwrap();
        cache
            .get_or_insert(3, || Ok::<_, SimError>(build("c")))
            .unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache
            .get_or_insert(1, || Ok::<_, SimError>(build("never")))
            .unwrap();
        assert!(hit, "recently touched key survives eviction");
        let (_, hit) = cache
            .get_or_insert(2, || Ok::<_, SimError>(build("b2")))
            .unwrap();
        assert!(!hit, "LRU key was evicted");
    }

    #[test]
    fn model_cache_does_not_retain_failed_builds() {
        let cache = ModelCache::new(4);
        let err = cache
            .get_or_insert(9, || Err::<CompiledModel, _>("compile failed"))
            .unwrap_err();
        assert_eq!(err, "compile failed");
        assert!(cache.is_empty());
    }

    #[test]
    fn non_finite_propensity_is_reported() {
        let model = ModelBuilder::new("m")
            .species("X", 0.0)
            .reaction("bad", &[], &["X"], "1 / X")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let state = compiled.initial_state();
        let mut stack = Vec::new();
        let err = compiled
            .propensity_with(0, &state, &mut stack, &mut EvalMemo::new())
            .unwrap_err();
        assert!(matches!(err, SimError::NonFinitePropensity { .. }));
    }

    #[test]
    fn negative_propensity_is_reported() {
        let model = ModelBuilder::new("m")
            .species("X", 0.0)
            .reaction("bad", &[], &["X"], "X - 1")
            .unwrap()
            .build()
            .unwrap();
        let compiled = CompiledModel::new(&model).unwrap();
        let state = compiled.initial_state();
        let mut stack = Vec::new();
        let err = compiled
            .propensity_with(0, &state, &mut stack, &mut EvalMemo::new())
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::NegativePropensity { value, .. } if value == -1.0
        ));
    }

    #[test]
    fn state_accessors() {
        let compiled = sample();
        let mut state = compiled.initial_state();
        assert_eq!(state.species(1), 10.0);
        state.set_species(1, 25.0);
        assert_eq!(state.species(1), 25.0);
    }
}
