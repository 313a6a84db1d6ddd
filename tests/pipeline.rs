//! End-to-end integration: catalog circuit → virtual lab → Algorithm 1
//! → verification, across crates.
//!
//! These runs use shortened protocols (hold times matched to each
//! circuit's speed) so the whole suite stays fast; the full paper
//! protocol lives in the `glc-bench` harness binaries.

use genetic_logic::core::{verify, AnalyzerConfig, LogicAnalyzer, LogicReport};
use genetic_logic::gates::catalog;
use genetic_logic::vasim::{Experiment, ExperimentConfig};

/// Runs the shortened protocol on circuit `id` and returns whether the
/// extracted expression matches the intended one, with the report.
fn verdict(id: &str, hold: f64, seed: u64) -> (bool, LogicReport) {
    let entry = catalog::by_id(id).unwrap_or_else(|| panic!("unknown circuit {id}"));
    let config = ExperimentConfig::new(hold, 15.0).repeats(2);
    let result = Experiment::new(config)
        .run(&entry.model, &entry.inputs, &entry.output, seed)
        .expect("experiment");
    let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
        .analyze(&result.data)
        .expect("analysis");
    (verify(&report, &entry.expected).equivalent, report)
}

fn verify_circuit(id: &str, hold: f64, seed: u64) {
    let entry = catalog::by_id(id).unwrap_or_else(|| panic!("unknown circuit {id}"));
    let (equivalent, report) = verdict(id, hold, seed);
    assert!(
        equivalent,
        "{id}: extracted {} but expected hex 0x{:X}\n{report}",
        report.expression,
        entry.expected.to_hex()
    );
    assert!(
        report.fitness > 90.0,
        "{id}: fitness {:.2}% unexpectedly low",
        report.fitness
    );
}

#[test]
fn book_not_verifies() {
    verify_circuit("book_not", 400.0, 1);
}

#[test]
fn book_nor_verifies() {
    verify_circuit("book_nor", 400.0, 2);
}

#[test]
fn book_nand_verifies() {
    verify_circuit("book_nand", 400.0, 3);
}

#[test]
fn book_or_verifies() {
    verify_circuit("book_or", 700.0, 4);
}

/// book_and's `11` state rides close to its threshold (a mean near 25
/// molecules against 15, in bursts), so under this shortened protocol
/// about 18% of seeds miss it, whichever wait stream the engine draws:
/// over seeds 1401–7400, 17.9% with `-ln(1 - u)` waits and 18.05% with
/// the ziggurat's `exp1`. One seed's verdict is a coin with ~82% odds,
/// so this test pins the rate over seeds 1–40 instead: at least 28 must
/// verify with fitness above 90%.
#[test]
fn book_and_verifies() {
    let missed: Vec<u64> = (1..=40)
        .filter(|&seed| {
            let (equivalent, report) = verdict("book_and", 700.0, seed);
            !(equivalent && report.fitness > 90.0)
        })
        .collect();
    assert!(missed.len() <= 12, "book_and missed on seeds {missed:?}");
}

#[test]
fn cello_0x0b_verifies() {
    verify_circuit("cello_0x0B", 600.0, 6);
}

#[test]
fn cello_0x04_verifies() {
    verify_circuit("cello_0x04", 600.0, 7);
}

#[test]
fn cello_0x1c_verifies() {
    verify_circuit("cello_0x1C", 600.0, 8);
}

#[test]
fn cello_two_input_circuits_verify() {
    verify_circuit("cello_0x06", 600.0, 9);
    verify_circuit("cello_0x08", 600.0, 10);
}

#[test]
fn whole_catalog_verifies_with_one_seed() {
    // One pass over all 15 circuits with a shared seed; slower circuits
    // get the hold time their cascades need.
    for entry in catalog::all() {
        let hold = if entry.id.starts_with("book") {
            700.0
        } else {
            600.0
        };
        verify_circuit(&entry.id, hold, 2017);
    }
}

#[test]
fn short_hold_time_breaks_verification_as_the_paper_warns() {
    // "the correct behavior of a genetic circuit can only be obtained
    // when each possible input combination is applied for sufficient
    // amount of time": a hold far below the propagation delay must
    // corrupt at least part of the analysis (lower fitness or wrong
    // logic) for the slow 3-stage AND gate.
    let entry = catalog::by_id("book_and").unwrap();
    let config = ExperimentConfig::new(40.0, 15.0).repeats(4);
    let result = Experiment::new(config)
        .run(&entry.model, &entry.inputs, &entry.output, 5)
        .expect("experiment");
    let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
        .analyze(&result.data)
        .expect("analysis");
    let verdict = verify(&report, &entry.expected);
    let degraded = !verdict.equivalent || report.fitness < 99.0;
    assert!(
        degraded,
        "40 t.u. holds should visibly degrade a circuit with ~300 t.u. delay"
    );
}

#[test]
fn seeds_change_traces_but_not_verdicts() {
    let entry = catalog::by_id("cello_0x04").unwrap();
    for seed in [1u64, 99, 12345] {
        let config = ExperimentConfig::new(600.0, 15.0).repeats(2);
        let result = Experiment::new(config)
            .run(&entry.model, &entry.inputs, &entry.output, seed)
            .expect("experiment");
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&result.data)
            .expect("analysis");
        assert!(
            verify(&report, &entry.expected).equivalent,
            "seed {seed} failed"
        );
    }
}
