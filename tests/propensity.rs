//! Cross-crate acceptance tests for the incremental propensity engine:
//! the dependency-driven updates, copy-number tables and flat selection
//! must be bitwise indistinguishable — per propensity, per total and per
//! trajectory — from a naive full recompute, on the real circuit models
//! the paper simulates.

use genetic_logic::gates::catalog;
use genetic_logic::model::expr::{
    CompiledExpr, EvalMemo, KineticFormBank, LaneOccupancy, SymbolTable,
};
use genetic_logic::model::{Expr, Model};
use genetic_logic::ssa::engine::Observer;
use genetic_logic::ssa::ipq::IndexedPriorityQueue;
use genetic_logic::ssa::propensity::PropensitySet;
use genetic_logic::ssa::{
    CompiledModel, Direct, Engine, FirstReaction, InputSchedule, NextReaction, ScheduleRunner,
    State,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A catalog circuit compiled with all inputs held at the paper's
/// 15-molecule level.
fn prepared(id: &str) -> CompiledModel {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut model: Model = entry.model.clone();
    for input in &entry.inputs {
        model.set_initial_amount(input, 15.0);
    }
    CompiledModel::new(&model).expect("compiles")
}

/// Records every observer callback bit-exactly.
#[derive(Default)]
struct BitTrace(Vec<(u64, Vec<u64>)>);

impl Observer for BitTrace {
    fn on_advance(&mut self, t: f64, values: &[f64]) {
        self.0
            .push((t.to_bits(), values.iter().map(|v| v.to_bits()).collect()));
    }
}

fn bit_trace(engine: &mut dyn Engine, model: &CompiledModel, seed: u64) -> BitTrace {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = BitTrace::default();
    engine
        .run(model, &mut state, 200.0, &mut rng, &mut trace)
        .expect("simulation succeeds");
    trace
}

/// The headline acceptance criterion: `Direct` with incremental updates
/// produces bitwise-identical sampled traces to the retained
/// full-recompute baseline, on both a mass-action book circuit and the
/// largest Hill-kinetics Cello circuit, for seeds {1, 42, 1337}.
#[test]
fn direct_incremental_matches_full_recompute_bitwise() {
    for id in ["book_and", "cello_0x1C"] {
        let model = prepared(id);
        for seed in [1u64, 42, 1337] {
            let incremental = bit_trace(&mut Direct::new(), &model, seed);
            let full = bit_trace(&mut Direct::with_full_recompute(), &model, seed);
            assert_eq!(
                incremental.0.len(),
                full.0.len(),
                "{id} seed {seed}: step counts diverged"
            );
            assert_eq!(incremental.0, full.0, "{id} seed {seed}");
        }
    }
}

/// The copy-number tables hold values for one run's boundary inputs,
/// so every input edit between runs must empty them. For every catalog
/// circuit, one sweep over all input combinations (each held 50 t.u.,
/// inputs at 0 or 15) through `ScheduleRunner` must record the same
/// trace bits with incremental updates as with a full recompute every
/// step, which never reads a table.
#[test]
fn schedule_sweeps_match_full_recompute_bitwise_on_every_circuit() {
    const HOLD: f64 = 50.0;
    for entry in catalog::all() {
        let model = CompiledModel::new(&entry.model).expect("compiles");
        let slots: Vec<usize> = entry
            .inputs
            .iter()
            .map(|name| model.species_slot(name).expect("input species"))
            .collect();
        let n = slots.len();
        let mut schedule = InputSchedule::new();
        for combo in 0..1usize << n {
            for (j, &slot) in slots.iter().enumerate() {
                let high = (combo >> (n - 1 - j)) & 1 == 1;
                schedule.set(combo as f64 * HOLD, slot, if high { 15.0 } else { 0.0 });
            }
        }
        let t_end = (1usize << n) as f64 * HOLD;
        let runner = ScheduleRunner::new(schedule, 0.5).expect("valid schedule");
        for seed in [1u64, 42] {
            let bits = |mut engine: Direct| -> Vec<Vec<u64>> {
                let trace = runner
                    .run(&model, &mut engine, t_end, seed)
                    .expect("simulation succeeds");
                (0..trace.species().len())
                    .map(|s| trace.series_at(s).iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let incremental = bits(Direct::new());
            let full = bits(Direct::with_full_recompute());
            assert_eq!(incremental, full, "{} seed {seed}", entry.id);
        }
    }
}

/// The first-reaction method consumes the same cached propensities, so
/// determinism per seed must survive the rewiring.
#[test]
fn first_reaction_is_deterministic_on_catalog_circuits() {
    let model = prepared("book_and");
    let a = bit_trace(&mut FirstReaction::new(), &model, 42);
    let b = bit_trace(&mut FirstReaction::new(), &model, 42);
    assert_eq!(a.0, b.0);
}

/// One `Direct` reused across circuits keeps its propensity memo, whose
/// copy-number tables must not carry responses from one model to the
/// next. cello_0x0B and cello_0xB3 both have seven Hill memo slots, so
/// only the bank identity stamp tells their tables apart.
#[test]
fn reused_direct_matches_fresh_engines_across_circuits() {
    let mut reused = Direct::new();
    for id in ["cello_0x0B", "cello_0xB3", "cello_0x0B"] {
        let model = prepared(id);
        let warm = bit_trace(&mut reused, &model, 42);
        let fresh = bit_trace(&mut Direct::new(), &model, 42);
        assert_eq!(warm.0, fresh.0, "{id}");
    }
}

/// The pre-port next-reaction loop, kept verbatim as a reference: a
/// private propensity vector maintained with per-law evaluations,
/// exactly as the engine worked before it moved onto the shared
/// `PropensitySet`. The ported engine must walk through bitwise-identical
/// trajectories — same propensities, same rescales, same RNG draws.
fn reference_next_reaction(model: &CompiledModel, seed: u64, t_end: f64) -> BitTrace {
    fn draw_time(rng: &mut StdRng, t: f64, propensity: f64) -> f64 {
        if propensity > 0.0 {
            let u: f64 = rng.gen();
            t - (1.0 - u).ln() / propensity
        } else {
            f64::INFINITY
        }
    }

    let mut state: State = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = BitTrace::default();
    let mut stack = Vec::new();
    let mut memo = EvalMemo::new();

    let m = model.reaction_count();
    let mut propensities = vec![0.0f64; m];
    let mut times = vec![f64::INFINITY; m];
    for r in 0..m {
        propensities[r] = model
            .propensity_with(r, &state, &mut stack, &mut memo)
            .unwrap();
        times[r] = draw_time(&mut rng, state.t, propensities[r]);
    }
    let mut queue = IndexedPriorityQueue::new(times);

    while let Some((fired, t_next)) = queue.min() {
        if t_next >= t_end {
            break;
        }
        trace.on_advance(t_next, &state.values);
        state.t = t_next;
        model.apply(fired, &mut state);

        for &dep in model.dependents(fired) {
            if dep == fired {
                continue;
            }
            let a_new = model
                .propensity_with(dep, &state, &mut stack, &mut memo)
                .unwrap();
            let a_old = propensities[dep];
            let t_dep = queue.key(dep);
            let updated = if a_new <= 0.0 {
                f64::INFINITY
            } else if a_old > 0.0 && t_dep.is_finite() {
                state.t + (a_old / a_new) * (t_dep - state.t)
            } else {
                draw_time(&mut rng, state.t, a_new)
            };
            propensities[dep] = a_new;
            queue.update(dep, updated);
        }

        let a_fired = model
            .propensity_with(fired, &state, &mut stack, &mut memo)
            .unwrap();
        propensities[fired] = a_fired;
        queue.update(fired, draw_time(&mut rng, state.t, a_fired));
    }
    trace.on_advance(t_end, &state.values);
    trace
}

/// Next-reaction on the shared `PropensitySet` reproduces the private
/// propensity-vector implementation bitwise, on both catalog circuits
/// for seeds {1, 42, 1337} — the engine-port acceptance criterion.
#[test]
fn next_reaction_on_shared_set_matches_private_vector_bitwise() {
    for id in ["book_and", "cello_0x1C"] {
        let model = prepared(id);
        for seed in [1u64, 42, 1337] {
            let ported = bit_trace(&mut NextReaction::new(), &model, seed);
            let reference = reference_next_reaction(&model, seed, 200.0);
            assert_eq!(
                ported.0.len(),
                reference.0.len(),
                "{id} seed {seed}: step counts diverged"
            );
            assert_eq!(ported.0, reference.0, "{id} seed {seed}");
        }
    }
}

/// The batched structure-of-arrays sweep is bitwise identical to the
/// scalar per-law sweep at every state along a simulated trajectory —
/// per reaction and for the sequential total.
#[test]
fn batched_sweep_matches_scalar_sweep_bitwise_on_catalog_circuits() {
    for id in ["book_and", "cello_0x1C"] {
        let model = prepared(id);
        let mut rng = StdRng::seed_from_u64(7);
        let mut state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).unwrap();
        let mut batched = Vec::new();
        let mut scalar = Vec::new();
        let mut stack = Vec::new();
        let mut memo = EvalMemo::new();
        for step in 0..500 {
            let total = set.total();
            if total <= 0.0 {
                break;
            }
            let fired = set.select(rng.gen::<f64>() * total);
            model.apply(fired, &mut state);
            set.update_after(&model, &state, fired).unwrap();

            let batched_total = model
                .propensities_into(&state, &mut batched, &mut stack, &mut memo)
                .unwrap();
            let scalar_total = model
                .propensities_into_scalar(&state, &mut scalar, &mut stack)
                .unwrap();
            assert_eq!(
                batched_total.to_bits(),
                scalar_total.to_bits(),
                "{id} step {step}: totals diverged"
            );
            for r in 0..model.reaction_count() {
                assert_eq!(
                    batched[r].to_bits(),
                    scalar[r].to_bits(),
                    "{id} step {step}: reaction {r}"
                );
            }
        }
    }
}

/// Where each catalog circuit's kinetic laws land in the bank, as
/// `(id, linear, hill, sop, term_div, fallback)`.
const LANE_CENSUS: [(&str, usize, usize, usize, usize, usize); 15] = [
    ("book_not", 2, 0, 1, 1, 0),
    // book_nor and book_or keep `tx_P1 = ktx * P1 + kleak * (P1_boundL +
    // P1_boundT)` on the VM: its `(a + b)` factor has no lane. A factor-sum
    // lane was measured and rejected: it slowed the cello Direct step
    // (cello_0x1C 175.9 -> 184.6 ns/event, cello_0xB3 143.5 -> 151.5) and
    // did not speed up book_or, the circuit that has the law.
    ("book_nor", 3, 0, 0, 2, 1),
    ("book_nand", 3, 0, 2, 2, 0),
    ("book_or", 5, 0, 1, 3, 1),
    ("book_and", 5, 0, 3, 3, 0),
    ("cello_0x0B", 4, 1, 3, 0, 0),
    ("cello_0x04", 3, 2, 1, 0, 0),
    ("cello_0x1C", 5, 2, 3, 0, 0),
    ("cello_0x41", 5, 2, 3, 0, 0),
    ("cello_0x70", 4, 1, 3, 0, 0),
    ("cello_0x07", 3, 0, 3, 0, 0),
    ("cello_0xB3", 5, 3, 2, 0, 0),
    ("cello_0xF4", 3, 1, 2, 0, 0),
    ("cello_0x06", 5, 2, 3, 0, 0),
    ("cello_0x08", 4, 3, 1, 0, 0),
];

/// How many of each catalog circuit's kinetic laws read exactly one
/// changing species, and so get a copy-number propensity table.
const TABLE_CENSUS: [(&str, usize); 15] = [
    ("book_not", 3),
    ("book_nor", 5),
    ("book_nand", 5),
    ("book_or", 7),
    ("book_and", 7),
    ("cello_0x0B", 5),
    ("cello_0x04", 5),
    ("cello_0x1C", 7),
    ("cello_0x41", 5),
    ("cello_0x70", 6),
    ("cello_0x07", 3),
    ("cello_0xB3", 5),
    ("cello_0xF4", 5),
    ("cello_0x06", 7),
    ("cello_0x08", 5),
];

/// Every catalog circuit's tabled-law count is pinned, so a law that
/// silently gains or loses its table fails here.
#[test]
fn catalog_table_census_is_pinned() {
    let ids: Vec<String> = catalog::all().into_iter().map(|entry| entry.id).collect();
    let census_ids: Vec<&str> = TABLE_CENSUS.iter().map(|row| row.0).collect();
    assert_eq!(ids, census_ids, "the census covers the whole catalog");
    for (id, tabled) in TABLE_CENSUS {
        assert_eq!(prepared(id).tabled_law_count(), tabled, "{id}");
    }
}

/// Every catalog circuit's lane placement is pinned, so a law that
/// silently moves lanes (or falls back to the VM) fails here.
#[test]
fn catalog_lane_census_is_pinned() {
    let ids: Vec<String> = catalog::all().into_iter().map(|entry| entry.id).collect();
    let census_ids: Vec<&str> = LANE_CENSUS.iter().map(|row| row.0).collect();
    assert_eq!(ids, census_ids, "the census covers the whole catalog");
    for (id, linear, hill, sop, term_div, fallback) in LANE_CENSUS {
        let expected = LaneOccupancy {
            linear,
            hill,
            sop,
            term_div,
            fallback,
        };
        assert_eq!(prepared(id).bank().occupancy(), expected, "{id}");
    }
}

/// Walks `steps` propensity-guided random firings and checks the
/// incremental cache against a full recompute after every firing.
fn check_incremental_invariant(model: &CompiledModel, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = model.initial_state();
    let mut set = PropensitySet::new();
    set.rebuild(model, &state).expect("initial rebuild");

    let mut reference = Vec::new();
    let mut stack = Vec::new();
    let mut memo = EvalMemo::new();
    for step in 0..steps {
        let total = set.total();
        if total <= 0.0 {
            break;
        }
        let fired = set.select(rng.gen::<f64>() * total);
        model.apply(fired, &mut state);
        set.update_after(model, &state, fired).expect("update");

        let full_total = model
            .propensities_into(&state, &mut reference, &mut stack, &mut memo)
            .expect("full recompute");
        // Per-reaction cached values must be *bitwise* equal: the same
        // pure kinetic law evaluated against the same state.
        for (r, &expected) in reference.iter().enumerate() {
            assert_eq!(
                set.propensity(r).to_bits(),
                expected.to_bits(),
                "step {step}: reaction {r} drifted"
            );
        }
        // Both totals are the sequential sum in reaction order over
        // bitwise-equal terms.
        assert_eq!(
            set.total().to_bits(),
            full_total.to_bits(),
            "step {step}: total {} vs sweep {}",
            set.total(),
            full_total
        );
    }
}

proptest! {
    /// Satellite property: after N random firings from random seeds the
    /// incrementally maintained propensities and their total equal a
    /// full `propensities_into` recompute, on a mass-action book
    /// circuit.
    #[test]
    fn incremental_invariant_holds_on_book_circuit(seed in 0u64..1_000_000, steps in 1usize..400) {
        let model = prepared("book_and");
        check_incremental_invariant(&model, seed, steps);
    }

    /// Same invariant on a Hill-kinetics Cello circuit, which exercises
    /// the `Hill`/`SumOfProducts` kinetic forms and denser dependency
    /// sets.
    #[test]
    fn incremental_invariant_holds_on_cello_circuit(seed in 0u64..1_000_000, steps in 1usize..400) {
        let model = prepared("cello_0x1C");
        check_incremental_invariant(&model, seed, steps);
    }

    /// Batched-path property: after N random firings the batched bank
    /// sweep and the scalar per-law sweep agree bitwise — per reaction
    /// and on the sequential total — for both law families.
    #[test]
    fn batched_sweep_equals_scalar_sweep_after_random_firings(
        seed in 0u64..1_000_000,
        steps in 1usize..300,
        cello in any::<bool>(),
    ) {
        let model = prepared(if cello { "cello_0x1C" } else { "book_and" });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = model.initial_state();
        let mut set = PropensitySet::new();
        set.rebuild(&model, &state).expect("rebuild");
        let (mut batched, mut scalar, mut stack) = (Vec::new(), Vec::new(), Vec::new());
        let mut memo = EvalMemo::new();
        for _ in 0..steps {
            let total = set.total();
            if total <= 0.0 {
                break;
            }
            let fired = set.select(rng.gen::<f64>() * total);
            model.apply(fired, &mut state);
            set.update_after(&model, &state, fired).expect("update");
        }
        let batched_total = model
            .propensities_into(&state, &mut batched, &mut stack, &mut memo)
            .expect("batched sweep");
        let scalar_total = model
            .propensities_into_scalar(&state, &mut scalar, &mut stack)
            .expect("scalar sweep");
        prop_assert_eq!(batched_total.to_bits(), scalar_total.to_bits());
        for r in 0..model.reaction_count() {
            prop_assert_eq!(batched[r].to_bits(), scalar[r].to_bits(), "reaction {}", r);
            // The incrementally maintained cache agrees with both.
            prop_assert_eq!(set.propensity(r).to_bits(), scalar[r].to_bits());
        }
    }
}

/// Literals the law grammar draws from.
const LITERALS: [&str; 5] = ["0.5", "2", "3.7", "15", "1e-3"];

fn pick<'a>(rng: &mut StdRng, choices: &[&'a str]) -> &'a str {
    choices[rng.gen_range(0..choices.len())]
}

fn operand(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => pick(rng, &LITERALS),
        1 => pick(rng, &["A", "B", "C"]),
        _ => pick(rng, &["k", "n"]),
    }
    .to_string()
}

/// `hillr`/`hilla` over one to three summed regulators, with literal or
/// slot `k` and `n`.
fn hill_call(rng: &mut StdRng) -> String {
    let func = pick(rng, &["hillr", "hilla"]);
    let regulators: Vec<&str> = (0..rng.gen_range(1..4))
        .map(|_| pick(rng, &["A", "B", "C"]))
        .collect();
    let k = pick(rng, &["k", "7", "20"]);
    let n = pick(rng, &["n", "1", "2.8"]);
    format!("{func}({}, {k}, {n})", regulators.join(" + "))
}

fn factor(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5) {
        0 | 1 => operand(rng),
        2 => hill_call(rng),
        3 => match rng.gen_range(0..2) {
            0 => format!("max({} - {}, 0)", operand(rng), operand(rng)),
            _ => format!("max({}, 0)", operand(rng)),
        },
        _ => format!("({} + {})", operand(rng), operand(rng)),
    }
}

/// Joins `parts` with `op`, left-nested (`a op b op c`, the parser's
/// association) or right-nested (`a op (b op c)`).
fn nest(parts: Vec<String>, op: &str, right: bool) -> String {
    if !right {
        return parts.join(op);
    }
    let mut parts = parts.into_iter().rev();
    let last = parts.next().expect("at least one part");
    parts.fold(last, |inner, part| format!("{part}{op}({inner})"))
}

fn product(rng: &mut StdRng) -> String {
    let factors = (0..rng.gen_range(1..5)).map(|_| factor(rng)).collect();
    nest(factors, " * ", rng.gen())
}

/// One law from a small grammar of SBML-shaped kinetics: products and
/// sums nested either way, gate responses, and a trailing division.
fn random_law(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => product(rng),
        1 => {
            let terms = (0..rng.gen_range(2..4)).map(|_| product(rng)).collect();
            nest(terms, " + ", rng.gen())
        }
        2 => format!("{} + {} * {}", operand(rng), operand(rng), hill_call(rng)),
        _ => format!("{} / {}", product(rng), pick(rng, &["6", "k", "n"])),
    }
}

proptest! {
    /// Random laws outside the catalog's shapes evaluate bit-for-bit the
    /// same through the bank sweep, the bank's single-law path, the
    /// kinetics fast path and the postfix VM. States repeat, so the Hill
    /// memo's hits, misses and overwrites are all covered: the sweep's
    /// pairs on one memo, and the single-law path's copy-number table on
    /// another. Two extra states put every regulator off the table, one
    /// non-integral and one above its cap.
    #[test]
    fn random_laws_agree_bitwise_on_every_evaluation_path(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut table = SymbolTable::new();
        for name in ["A", "B", "C", "k", "n"] {
            table.intern(name);
        }
        let sources: Vec<String> = (0..rng.gen_range(1..13)).map(|_| random_law(&mut rng)).collect();
        let laws: Vec<CompiledExpr> = sources
            .iter()
            .map(|source| source.parse::<Expr>().unwrap().compile(&table).unwrap())
            .collect();
        let bank = KineticFormBank::new(&laws);
        let mut states: Vec<[f64; 5]> = (0..4)
            .map(|_| {
                [
                    f64::from(rng.gen_range(0u32..40)),
                    f64::from(rng.gen_range(0u32..40)),
                    f64::from(rng.gen_range(0u32..40)),
                    pick(&mut rng, &["0.5", "7", "20"]).parse().unwrap(),
                    pick(&mut rng, &["1", "2", "2.8"]).parse().unwrap(),
                ]
            })
            .collect();
        let (k, n) = (states[0][3], states[0][4]);
        states.push([2.5, 17.25, 0.75, k, n]);
        states.push([1024.0, 5000.0, 1e6 + 0.5, k, n]);
        let (mut out, mut stack, mut memo) = (vec![0.0; laws.len()], Vec::new(), EvalMemo::new());
        let mut one_memo = EvalMemo::new();
        for state in [0, 0, 1, 2, 1, 3, 0, 4, 5, 4, 5, 0] {
            let values = &states[state];
            bank.eval_all(values, &mut out, &mut stack, &mut memo);
            for (r, law) in laws.iter().enumerate() {
                let vm = law.eval_with(values, &mut stack).to_bits();
                let source = &sources[r];
                prop_assert_eq!(law.eval_fast(values, &mut stack).to_bits(), vm, "eval_fast `{}`", source);
                prop_assert_eq!(bank.eval_one(r, values, &mut stack, &mut one_memo).to_bits(), vm, "eval_one `{}`", source);
                prop_assert_eq!(out[r].to_bits(), vm, "eval_all `{}` at {:?}", source, values);
            }
        }
    }
}
