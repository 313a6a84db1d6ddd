//! Bitwise-equivalence acceptance tests for the vectorized hot paths.
//!
//! The memoized propensity sweep and the chunked tau-leap / Langevin
//! draw loops are *performance* rewrites: every one of them promises
//! the exact floating-point op sequence and RNG draw sequence of its
//! scalar reference. These tests hold them to it on the two
//! reference circuits (the Figure 1 mass-action AND gate and the
//! largest Hill-kinetics Cello circuit), for the standard pinned seeds
//! and then across proptest-drawn seeds:
//!
//! * tau-leap trajectories against a reference loop built from
//!   postfix-VM sweeps ([`vm_sweep`]) and the un-memoized
//!   [`glc_ssa::tau_leap::poisson`] sampler, plus the sweep itself
//!   against the VM sweep on every state the run visits (a small
//!   drift in λ can hide inside the Poisson draws);
//! * Langevin trajectories against a reference loop built from VM
//!   sweeps and the paired [`glc_ssa::draws::standard_normal`] (whose
//!   carry spans the run, exactly as the engine's batched source);
//! * `Direct` with incremental updates against the full-recompute
//!   schedule (the exact-engine counterpart of the same contract);
//! * the memoized sweep against the VM sweep on the *continuous*
//!   states a Langevin trajectory visits (the root-level propensity
//!   suite only walks integer SSA states).
//!
//! Each trajectory comparison also checks the final RNG fingerprint:
//! the fast path must consume exactly the same number of draws, not
//! just produce the same values.

use glc_gates::catalog;
use glc_model::expr::EvalMemo;
use glc_model::Model;
use glc_ssa::draws::{standard_normal, NormalCarry};
use glc_ssa::engine::Observer;
use glc_ssa::tau_leap::poisson;
use glc_ssa::{CompiledModel, Direct, Engine, Langevin, TauLeap};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shorter than the bench horizon but still thousands of fixed steps
/// per run — enough for any drift in op or draw order to surface.
const T_END: f64 = 50.0;

/// The standard pinned seeds every bitwise suite in this repo uses.
const STANDARD_SEEDS: [u64; 3] = [1, 42, 1337];

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

/// Approximate-engine steps per circuit family — the same choices the
/// bench rows use (the stiff book circuits need the fine step).
fn approx_steps(id: &str) -> (f64, f64) {
    if id.starts_with("cello") {
        (0.5, 0.1)
    } else {
        (0.02, 0.02)
    }
}

/// Records every observer callback bit-exactly.
#[derive(Default, PartialEq, Debug)]
struct BitTrace(Vec<(u64, Vec<u64>)>);

impl Observer for BitTrace {
    fn on_advance(&mut self, t: f64, values: &[f64]) {
        self.0
            .push((t.to_bits(), values.iter().map(|v| v.to_bits()).collect()));
    }
}

/// Runs `engine` from the initial state and returns the bit trace, the
/// final state bits, and an RNG fingerprint (one extra draw — equal
/// only if the run consumed the identical draw stream).
fn engine_run(
    engine: &mut dyn Engine,
    model: &CompiledModel,
    seed: u64,
) -> (BitTrace, Vec<u64>, u64) {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = BitTrace::default();
    engine
        .run(model, &mut state, T_END, &mut rng, &mut trace)
        .expect("simulation succeeds");
    let bits = state.values.iter().map(|v| v.to_bits()).collect();
    (trace, bits, rng.gen::<u64>())
}

/// The postfix-VM reference sweep: every law through
/// `CompiledExpr::eval_with`, totalled in reaction order. The engines'
/// sweep shares no code with it beyond the arithmetic primitives.
fn vm_sweep(
    model: &CompiledModel,
    values: &[f64],
    out: &mut Vec<f64>,
    stack: &mut Vec<f64>,
) -> f64 {
    out.clear();
    let mut total = 0.0;
    for law in model.bank().laws() {
        out.push(law.eval_with(values, stack));
        total += out[out.len() - 1];
    }
    total
}

/// The scalar tau-leap reference: the engine's loop re-derived from
/// first principles with the per-law VM sweep and the un-memoized
/// Poisson sampler. Any divergence in the engine's batched sweep,
/// precomputed λ slice, or memoized thresholds shows up here.
fn reference_tau_leap(model: &CompiledModel, tau: f64, seed: u64) -> (BitTrace, Vec<u64>, u64) {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = BitTrace::default();
    let (mut propensities, mut stack) = (Vec::new(), Vec::new());
    // One carry for the whole run, mirroring the engine: the paired
    // large-λ scheme hands the sine half to the next large-λ draw.
    let mut carry = NormalCarry::new();
    while state.t < T_END {
        let t_next = (state.t + tau).min(T_END);
        vm_sweep(model, &state.values, &mut propensities, &mut stack);
        trace.on_advance(t_next, &state.values);
        let dt = t_next - state.t;
        for (r, &a) in propensities.iter().enumerate() {
            let firings = poisson(&mut rng, a * dt, &mut carry);
            if firings == 0 {
                continue;
            }
            for &(slot, delta) in model.delta(r) {
                state.values[slot] += delta as f64 * firings as f64;
            }
        }
        for value in state.values.iter_mut() {
            if *value < 0.0 {
                *value = 0.0;
            }
        }
        state.t = t_next;
    }
    state.t = T_END;
    let bits = state.values.iter().map(|v| v.to_bits()).collect();
    (trace, bits, rng.gen::<u64>())
}

/// The scalar Langevin reference: Euler–Maruyama with per-law VM
/// sweeps, scalar paired-Box–Muller draws, and inline drift/noise
/// arithmetic in the exact association the engine's compacted
/// `drift`/`sigma`/`z` slices replay. Quiescent reactions draw nothing,
/// matching the engine's draw-skip contract; one [`NormalCarry`] spans
/// the run, mirroring the engine's batched source (carry persists
/// across steps, resets per run).
fn reference_langevin(model: &CompiledModel, dt: f64, seed: u64) -> (BitTrace, Vec<u64>, u64) {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = BitTrace::default();
    let (mut propensities, mut stack) = (Vec::new(), Vec::new());
    let mut carry = NormalCarry::new();
    while state.t < T_END {
        let h = dt.min(T_END - state.t);
        let t_next = state.t + h;
        vm_sweep(model, &state.values, &mut propensities, &mut stack);
        trace.on_advance(t_next, &state.values);
        let sqrt_h = h.sqrt();
        for (r, &a) in propensities.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let increment = (a * h) + ((a.sqrt() * sqrt_h) * standard_normal(&mut rng, &mut carry));
            for &(slot, delta) in model.delta(r) {
                state.values[slot] += delta as f64 * increment;
            }
        }
        for value in state.values.iter_mut() {
            if *value < 0.0 {
                *value = 0.0;
            }
        }
        state.t = t_next;
    }
    state.t = T_END;
    let bits = state.values.iter().map(|v| v.to_bits()).collect();
    (trace, bits, rng.gen::<u64>())
}

/// Checks the engine's propensity sweep (`propensities_into`) against
/// [`vm_sweep`] bit for bit, reaction by reaction, on every state the
/// run hands its observer.
struct SweepCheck<'m> {
    model: &'m CompiledModel,
    batched: Vec<f64>,
    vm: Vec<f64>,
    stack: Vec<f64>,
    memo: EvalMemo,
    template: glc_ssa::State,
}

impl Observer for SweepCheck<'_> {
    fn on_advance(&mut self, t: f64, values: &[f64]) {
        let mut state = self.template.clone();
        state.t = t;
        state.values.copy_from_slice(values);
        let batched_total = self
            .model
            .propensities_into(&state, &mut self.batched, &mut self.stack, &mut self.memo)
            .expect("batched sweep");
        let vm_total = vm_sweep(self.model, values, &mut self.vm, &mut self.stack);
        assert_eq!(batched_total.to_bits(), vm_total.to_bits());
        for r in 0..self.model.reaction_count() {
            assert_eq!(
                self.batched[r].to_bits(),
                self.vm[r].to_bits(),
                "reaction {r} at t {t}"
            );
        }
    }
}

/// Runs `engine` under a [`SweepCheck`] observer.
fn assert_sweep_matches_on_visited_states(
    engine: &mut dyn Engine,
    model: &CompiledModel,
    seed: u64,
) {
    let mut check = SweepCheck {
        model,
        batched: Vec::new(),
        vm: Vec::new(),
        stack: Vec::new(),
        memo: EvalMemo::new(),
        template: model.initial_state(),
    };
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    engine
        .run(model, &mut state, T_END, &mut rng, &mut check)
        .expect("simulation succeeds");
}

/// Tau-leap ≡ its scalar reference, trajectory and draw stream — and,
/// since the Poisson draws can absorb a small drift in λ, the sweep
/// itself ≡ the VM sweep on every state the run visits.
fn assert_tau_leap_matches(id: &str, seed: u64) {
    let model = prepared(id);
    let (tau, _) = approx_steps(id);
    let mut engine = TauLeap::new(tau).expect("valid tau");
    let fast = engine_run(&mut engine, &model, seed);
    let reference = reference_tau_leap(&model, tau, seed);
    assert_eq!(fast, reference, "{id} seed {seed}");
    assert_sweep_matches_on_visited_states(&mut engine, &model, seed);
}

fn assert_langevin_matches(id: &str, seed: u64) {
    let model = prepared(id);
    let (_, dt) = approx_steps(id);
    let mut engine = Langevin::new(dt).expect("valid dt");
    let fast = engine_run(&mut engine, &model, seed);
    let reference = reference_langevin(&model, dt, seed);
    assert_eq!(fast, reference, "{id} seed {seed}");
}

fn assert_direct_matches(id: &str, seed: u64) {
    let model = prepared(id);
    let incremental = engine_run(&mut Direct::new(), &model, seed);
    let full = engine_run(&mut Direct::with_full_recompute(), &model, seed);
    assert_eq!(incremental, full, "{id} seed {seed}");
}

#[test]
fn tau_leap_matches_scalar_reference_on_standard_seeds() {
    for id in ["book_and", "cello_0x1C"] {
        for seed in STANDARD_SEEDS {
            assert_tau_leap_matches(id, seed);
        }
    }
}

#[test]
fn langevin_matches_scalar_reference_on_standard_seeds() {
    for id in ["book_and", "cello_0x1C"] {
        for seed in STANDARD_SEEDS {
            assert_langevin_matches(id, seed);
        }
    }
}

#[test]
fn direct_incremental_matches_full_recompute_on_standard_seeds() {
    for id in ["book_and", "cello_0x1C"] {
        for seed in STANDARD_SEEDS {
            assert_direct_matches(id, seed);
        }
    }
}

proptest! {
    /// The memoized, chunked tau-leap draw loop over the memoized sweep
    /// replays the scalar reference bitwise for arbitrary seeds.
    #[test]
    fn tau_leap_matches_scalar_reference(seed in 0u64..1_000_000, cello in any::<bool>()) {
        assert_tau_leap_matches(if cello { "cello_0x1C" } else { "book_and" }, seed);
    }

    /// The precomputed drift/σ Langevin step over the memoized sweep
    /// replays the scalar reference bitwise for arbitrary seeds.
    #[test]
    fn langevin_matches_scalar_reference(seed in 0u64..1_000_000, cello in any::<bool>()) {
        assert_langevin_matches(if cello { "cello_0x1C" } else { "book_and" }, seed);
    }

    /// The incremental exact engine keeps the same contract.
    #[test]
    fn direct_incremental_matches_full_recompute(seed in 0u64..1_000_000, cello in any::<bool>()) {
        assert_direct_matches(if cello { "cello_0x1C" } else { "book_and" }, seed);
    }

    /// Memoized sweep ≡ VM sweep on the continuous (fractional) states a
    /// Langevin trajectory visits: the root-level propensity suite only
    /// exercises integer SSA states, but the full-sweep engines feed the
    /// laws non-integer amounts every step.
    #[test]
    fn batched_sweep_matches_scalar_on_continuous_states(
        seed in 0u64..1_000_000,
        cello in any::<bool>(),
    ) {
        let id = if cello { "cello_0x1C" } else { "book_and" };
        let model = prepared(id);
        let (_, dt) = approx_steps(id);

        let mut engine = Langevin::new(dt).expect("valid dt");
        assert_sweep_matches_on_visited_states(&mut engine, &model, seed);
    }
}
