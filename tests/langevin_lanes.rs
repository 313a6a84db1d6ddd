//! Langevin replicate lanes ≡ the scalar engine, bit for bit.
//!
//! `run_partial` hands the Langevin engine `LANES` seeds at a time and
//! steps them in lockstep over lane values. Every replicate must keep
//! the bits of its own scalar run — trajectory, RNG position and error
//! — whatever its neighbours do, so a lane partial must equal the
//! partial accumulated from scalar runs, for every replicate count
//! (full batches, and tails shorter than `LANES`), on every catalog
//! circuit.

use genetic_logic::gates::catalog;
use genetic_logic::model::Model;
use genetic_logic::ssa::engine::Observer;
use genetic_logic::ssa::langevin::LANES;
use genetic_logic::ssa::{
    run_partial_from, simulate, simulate_lanes, CompiledModel, Engine, EnsemblePartial, Langevin,
    SimError, Trace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DT: f64 = 0.02;
const T_END: f64 = 6.0;
const SAMPLE_DT: f64 = 1.0;

/// `entry` with every input at `level`.
fn with_inputs(id: &str, level: f64) -> CompiledModel {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut model: Model = entry.model.clone();
    for input in &entry.inputs {
        model.set_initial_amount(input, level);
    }
    CompiledModel::new(&model).expect("compiles")
}

fn langevin(dt: f64) -> Box<dyn Engine> {
    Box::new(Langevin::new(dt).expect("valid dt"))
}

fn assert_traces_bitwise(lane: &Trace, scalar: &Trace, context: &str) {
    assert_eq!(lane.len(), scalar.len(), "{context}: sample counts");
    for s in 0..scalar.species().len() {
        let bits = |trace: &Trace| -> Vec<u64> {
            trace.series_at(s).iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(lane), bits(scalar), "{context}: species {s}");
    }
}

/// Replicate counts 1 to 2·LANES + 1 from seeds 1, 42 and 1337, on all
/// 15 catalog circuits with their inputs high: the lane partial equals
/// the partial of the scalar runs, and the lane traces equal the
/// scalar traces.
#[test]
fn lane_partials_equal_scalar_partials_on_every_circuit() {
    let circuits = catalog::all();
    assert_eq!(circuits.len(), 15);
    let most = 2 * LANES as u64 + 1;
    for entry in &circuits {
        let model = with_inputs(&entry.id, 15.0);
        for first in [1u64, 42, 1337] {
            let seeds: Vec<u64> = (first..first + most).collect();
            let mut scalar_engine = Langevin::new(DT).expect("valid dt");
            let scalar: Vec<Trace> = seeds
                .iter()
                .map(|&seed| simulate(&model, &mut scalar_engine, T_END, SAMPLE_DT, seed))
                .collect::<Result<_, _>>()
                .expect("scalar runs");
            let lanes = simulate_lanes(&model, langevin(DT).as_mut(), T_END, SAMPLE_DT, &seeds);
            for ((lane, scalar), seed) in lanes.iter().zip(&scalar).zip(&seeds) {
                let lane = lane.as_ref().expect("lane run");
                assert_traces_bitwise(lane, scalar, &format!("{} seed {seed}", entry.id));
            }
            let mut expected = EnsemblePartial::new(&model, T_END, SAMPLE_DT).unwrap();
            for count in 1..=most {
                let at = (count - 1) as usize;
                expected.accumulate(&scalar[at], seeds[at]).unwrap();
                let got = run_partial_from(&model, || langevin(DT), first, count, T_END, SAMPLE_DT)
                    .expect("lane partial");
                assert!(
                    got == expected,
                    "{}: {count} replicates from seed {first}",
                    entry.id
                );
            }
        }
    }
}

/// Records every call an engine makes, bit for bit.
#[derive(Default, PartialEq, Debug)]
struct Calls(Vec<(u64, Vec<u64>)>);

impl Observer for Calls {
    fn on_advance(&mut self, t_new: f64, values: &[f64]) {
        let values = values.iter().map(|x| x.to_bits()).collect();
        self.0.push((t_new.to_bits(), values));
    }
    fn next_due(&self) -> f64 {
        // Sample-gated like a recorder: due every 0.5 time units.
        self.0.len() as f64 * 0.5
    }
}

/// book_or with its inputs at 15 fails at dt 0.05 from seed 1
/// (`bind_P2` goes non-finite at t = 291.3). That lane reports exactly
/// the scalar error, its neighbours keep their scalar bits (state, RNG
/// position and observer calls), and `run_partial_from` reports the
/// lowest failing replicate.
#[test]
fn a_failing_lane_reports_its_scalar_error_and_leaves_the_others_alone() {
    const DT: f64 = 0.05;
    const T_END: f64 = 300.0;
    let model = with_inputs("book_or", 15.0);
    let scalar_error = simulate(&model, langevin(DT).as_mut(), T_END, 1.0, 1)
        .expect_err("seed 1 fails on its own");
    match &scalar_error {
        SimError::NonFinitePropensity { reaction, time } => {
            assert_eq!(reaction, "bind_P2");
            assert!((time - 291.3).abs() < 1e-6, "{time}");
        }
        other => panic!("unexpected scalar error {other:?}"),
    }

    // Seed 1 in lane 1 of a full batch.
    let seeds: Vec<u64> = (0..LANES as u64).collect();
    let scalar: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut state = model.initial_state();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut calls = Calls::default();
            let outcome = langevin(DT).run(&model, &mut state, T_END, &mut rng, &mut calls);
            (state, rng, calls, outcome)
        })
        .collect();
    let mut states = vec![model.initial_state(); LANES];
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let mut calls: Vec<Calls> = seeds.iter().map(|_| Calls::default()).collect();
    let mut observers: Vec<&mut dyn Observer> =
        calls.iter_mut().map(|c| c as &mut dyn Observer).collect();
    let outcomes = langevin(DT).run_lanes(&model, &mut states, T_END, &mut rngs, &mut observers);
    assert_eq!(outcomes[1], Err(scalar_error.clone()));
    for (lane, (state, rng, calls_alone, outcome)) in scalar.iter().enumerate() {
        assert_eq!(&outcomes[lane], outcome, "lane {lane} outcome");
        assert_eq!(&rngs[lane], rng, "lane {lane} RNG position");
        assert_eq!(
            states[lane].t.to_bits(),
            state.t.to_bits(),
            "lane {lane} clock"
        );
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&states[lane].values),
            bits(&state.values),
            "lane {lane} state"
        );
        assert!(calls[lane] == *calls_alone, "lane {lane} observer calls");
    }

    // The partial reports the lowest failing replicate's error.
    let lowest = scalar
        .iter()
        .find_map(|(_, _, _, outcome)| outcome.clone().err())
        .expect("seed 1 fails");
    let got = run_partial_from(&model, || langevin(DT), 0, 2 * LANES as u64 + 1, T_END, 1.0);
    assert_eq!(got.err(), Some(lowest));
    let got = run_partial_from(&model, || langevin(DT), 1, 3, T_END, 1.0);
    assert_eq!(got.err(), Some(scalar_error));
}

/// A recorder fed by a lane run finishes to the scalar trace even when
/// the horizon is not a whole number of steps.
#[test]
fn lanes_land_on_a_ragged_horizon() {
    let model = with_inputs("cello_0x1C", 15.0);
    let seeds = [5u64, 6, 7];
    let lanes = simulate_lanes(&model, langevin(0.3).as_mut(), 2.0, 0.25, &seeds);
    for (lane, &seed) in lanes.iter().zip(&seeds) {
        let scalar = simulate(&model, langevin(0.3).as_mut(), 2.0, 0.25, seed).unwrap();
        assert_traces_bitwise(lane.as_ref().unwrap(), &scalar, &format!("seed {seed}"));
    }
}
