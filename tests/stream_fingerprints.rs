//! Stream fingerprints: the bits every engine produces for a fixed seed,
//! pinned under the `GLCB_VERSION` that names them.
//!
//! Workers and spill snapshots promise that one `GLCB_VERSION` means one
//! stream: a pool may mix partials from any two builds of that version,
//! and a session may resume on another host. This test makes the rule
//! mechanical. For each of the five engines, on a mass-action book
//! circuit, a Hill-kinetics cello circuit and a model read from an SBML
//! document, and for seeds {1, 42, 1337}, it hashes the bits of every
//! observer callback and of the final state, and compares them with the
//! table pinned for the current version. A stream that changes without
//! a version bump fails here; so does a bump without a re-pin. The
//! failure message prints the whole table as this build computes it.

use genetic_logic::gates::catalog;
use genetic_logic::model::{sbml, Model};
use genetic_logic::ssa::engine::Observer;
use genetic_logic::ssa::{
    CompiledModel, Direct, Engine, FirstReaction, Langevin, NextReaction, TauLeap,
};
use glc_service::GLCB_VERSION;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `GLCB_VERSION` whose streams [`FINGERPRINTS`] pins.
const PINNED_VERSION: u8 = 4;

/// `(engine, model, seed, hash)` for every combination, in run order.
const FINGERPRINTS: [(&str, &str, u64, u64); 45] = [
    ("direct", "book_and", 1, 0x8cafd429c5f37fb6),
    ("direct", "book_and", 42, 0xf3642ba71849f97b),
    ("direct", "book_and", 1337, 0xda6be8e4c8b8f450),
    ("direct", "cello_0x1C", 1, 0x65ce38481be68c18),
    ("direct", "cello_0x1C", 42, 0x3e77b222bbb945c8),
    ("direct", "cello_0x1C", 1337, 0x56c4c699207f4cd7),
    ("direct", "toggle_reporter", 1, 0xdefe28dc4e473496),
    ("direct", "toggle_reporter", 42, 0x667bab875e46611c),
    ("direct", "toggle_reporter", 1337, 0x571d298ffb142e36),
    ("first-reaction", "book_and", 1, 0x44df24e444b9407b),
    ("first-reaction", "book_and", 42, 0xb19de0504d001083),
    ("first-reaction", "book_and", 1337, 0x228c67d5b682d6ef),
    ("first-reaction", "cello_0x1C", 1, 0xc50f8180aac90098),
    ("first-reaction", "cello_0x1C", 42, 0xfc5cc31bd306da38),
    ("first-reaction", "cello_0x1C", 1337, 0x6e24c04e4a4ea55f),
    ("first-reaction", "toggle_reporter", 1, 0x6b4f993473182dcf),
    ("first-reaction", "toggle_reporter", 42, 0x47e2a3b24835ee50),
    (
        "first-reaction",
        "toggle_reporter",
        1337,
        0x3f661e93f6c450bc,
    ),
    ("next-reaction", "book_and", 1, 0x5927927040e90322),
    ("next-reaction", "book_and", 42, 0x58f3e0f0e803e1d6),
    ("next-reaction", "book_and", 1337, 0x0169dad9b8937805),
    ("next-reaction", "cello_0x1C", 1, 0xf64d5b2e4c434721),
    ("next-reaction", "cello_0x1C", 42, 0xf616ba6597dc80aa),
    ("next-reaction", "cello_0x1C", 1337, 0x0beb008eb3902051),
    ("next-reaction", "toggle_reporter", 1, 0xa7192c32824ca76b),
    ("next-reaction", "toggle_reporter", 42, 0x06a15fcc1d13338a),
    ("next-reaction", "toggle_reporter", 1337, 0x7eb03a7c059a28c2),
    ("tau-leap", "book_and", 1, 0xd1997fd86f9137f3),
    ("tau-leap", "book_and", 42, 0x902d6dc0929435fa),
    ("tau-leap", "book_and", 1337, 0xa1d68b50e46ab907),
    ("tau-leap", "cello_0x1C", 1, 0x889485babe15ac26),
    ("tau-leap", "cello_0x1C", 42, 0x7bf2f66c0fab8900),
    ("tau-leap", "cello_0x1C", 1337, 0xe752444086ad533d),
    ("tau-leap", "toggle_reporter", 1, 0x32557e64f9a87ff1),
    ("tau-leap", "toggle_reporter", 42, 0x55e1108381077e80),
    ("tau-leap", "toggle_reporter", 1337, 0xb941d32354ed046e),
    ("langevin", "book_and", 1, 0xcf81752f70818aaf),
    ("langevin", "book_and", 42, 0x1c5e61a20cf78066),
    ("langevin", "book_and", 1337, 0x3162e58ac4ce27de),
    ("langevin", "cello_0x1C", 1, 0xad48e4621ebaf25c),
    ("langevin", "cello_0x1C", 42, 0xd562e033c516e9a1),
    ("langevin", "cello_0x1C", 1337, 0x2585d8a646aab918),
    ("langevin", "toggle_reporter", 1, 0x9a19e3efe2aa00f1),
    ("langevin", "toggle_reporter", 42, 0x172a245de6e6323b),
    ("langevin", "toggle_reporter", 1337, 0xd3a7fa752c43e887),
];

/// Simulated time per run.
const T_END: f64 = 100.0;

/// A toggle switch with a reporter, as an SBML document: gate
/// responses (one with a non-literal `k`, so it runs on the postfix VM),
/// a reporter law whose two terms read the two repressors, and
/// mass-action binding and decay.
const TOGGLE_SBML: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<sbml level="3" version="1" xmlns="http://www.sbml.org/sbml/level3/version1/core">
  <model id="toggle_reporter">
    <listOfSpecies>
      <species boundaryCondition="true" constant="false" hasOnlySubstanceUnits="true" id="IPTG" initialAmount="15"/>
      <species boundaryCondition="false" constant="false" hasOnlySubstanceUnits="true" id="LacI" initialAmount="0"/>
      <species boundaryCondition="false" constant="false" hasOnlySubstanceUnits="true" id="TetR" initialAmount="20"/>
      <species boundaryCondition="false" constant="false" hasOnlySubstanceUnits="true" id="GFP" initialAmount="0"/>
    </listOfSpecies>
    <listOfParameters>
      <parameter constant="true" id="kd" value="0.1"/>
    </listOfParameters>
    <listOfReactions>
      <reaction id="tx_laci" reversible="false">
        <listOfProducts>
          <speciesReference constant="true" species="LacI" stoichiometry="1"/>
        </listOfProducts>
        <kineticLaw>
          <math>0.2 + 6 * hillr(TetR, 10, 2)</math>
        </kineticLaw>
      </reaction>
      <reaction id="tx_tetr" reversible="false">
        <listOfProducts>
          <speciesReference constant="true" species="TetR" stoichiometry="1"/>
        </listOfProducts>
        <kineticLaw>
          <math>0.2 + 6 * hillr(LacI, 10 + IPTG, 2)</math>
        </kineticLaw>
      </reaction>
      <reaction id="tx_gfp" reversible="false">
        <listOfProducts>
          <speciesReference constant="true" species="GFP" stoichiometry="1"/>
        </listOfProducts>
        <kineticLaw>
          <math>0.5 * hillr(LacI, 10, 2) + 0.5 * hilla(TetR, 10, 2)</math>
        </kineticLaw>
      </reaction>
      <reaction id="leak_gfp" reversible="false">
        <listOfProducts>
          <speciesReference constant="true" species="GFP" stoichiometry="1"/>
        </listOfProducts>
        <kineticLaw>
          <math>(LacI + IPTG) * 0.002</math>
        </kineticLaw>
      </reaction>
      <reaction id="bind" reversible="false">
        <listOfReactants>
          <speciesReference constant="true" species="LacI" stoichiometry="1"/>
          <speciesReference constant="true" species="TetR" stoichiometry="1"/>
        </listOfReactants>
        <kineticLaw>
          <math>0.001 * LacI * TetR</math>
        </kineticLaw>
      </reaction>
      <reaction id="deg_laci" reversible="false">
        <listOfReactants>
          <speciesReference constant="true" species="LacI" stoichiometry="1"/>
        </listOfReactants>
        <kineticLaw>
          <math>kd * LacI</math>
        </kineticLaw>
      </reaction>
      <reaction id="deg_tetr" reversible="false">
        <listOfReactants>
          <speciesReference constant="true" species="TetR" stoichiometry="1"/>
        </listOfReactants>
        <kineticLaw>
          <math>kd * TetR</math>
        </kineticLaw>
      </reaction>
      <reaction id="deg_gfp" reversible="false">
        <listOfReactants>
          <speciesReference constant="true" species="GFP" stoichiometry="1"/>
        </listOfReactants>
        <kineticLaw>
          <math>kd * GFP</math>
        </kineticLaw>
      </reaction>
    </listOfReactions>
  </model>
</sbml>
"#;

/// FNV-1a over 64-bit words, fed every callback's time and values.
/// Uses the default `next_due`, so it sees every advance.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Observer for Fingerprint {
    fn on_advance(&mut self, t_new: f64, values: &[f64]) {
        self.eat(t_new.to_bits());
        for value in values {
            self.eat(value.to_bits());
        }
    }
}

/// A catalog circuit compiled with all inputs at the paper's
/// 15-molecule level.
fn catalog_model(id: &str) -> CompiledModel {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut model: Model = entry.model.clone();
    for input in &entry.inputs {
        model.set_initial_amount(input, 15.0);
    }
    CompiledModel::new(&model).expect("compiles")
}

fn models() -> [(&'static str, CompiledModel); 3] {
    let toggle = sbml::read(TOGGLE_SBML).expect("SBML document reads");
    [
        ("book_and", catalog_model("book_and")),
        ("cello_0x1C", catalog_model("cello_0x1C")),
        (
            "toggle_reporter",
            CompiledModel::new(&toggle).expect("compiles"),
        ),
    ]
}

fn engines() -> [Box<dyn Engine>; 5] {
    [
        Box::new(Direct::new()),
        Box::new(FirstReaction::new()),
        Box::new(NextReaction::new()),
        Box::new(TauLeap::new(0.1).expect("valid tau")),
        Box::new(Langevin::new(0.01).expect("valid dt")),
    ]
}

/// Every `(engine, model, seed, hash)` this build computes. A run that
/// fails (Langevin can drive a species negative) hashes its error.
fn computed() -> Vec<(&'static str, &'static str, u64, u64)> {
    let mut rows = Vec::new();
    for mut engine in engines() {
        for (id, model) in &models() {
            for seed in [1u64, 42, 1337] {
                let mut state = model.initial_state();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut print = Fingerprint::new();
                let outcome = engine.run(model, &mut state, T_END, &mut rng, &mut print);
                for value in &state.values {
                    print.eat(value.to_bits());
                }
                for byte in format!("{outcome:?}").bytes() {
                    print.eat(u64::from(byte));
                }
                rows.push((engine.name(), *id, seed, print.0));
            }
        }
    }
    rows
}

#[test]
fn engine_streams_match_the_fingerprints_pinned_for_this_version() {
    let rows = computed();
    let table: String = rows
        .iter()
        .map(|(engine, id, seed, hash)| {
            format!("    ({engine:?}, {id:?}, {seed}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(
        GLCB_VERSION, PINNED_VERSION,
        "GLCB_VERSION moved: pin this build's streams for it:\n{table}"
    );
    assert!(
        rows == FINGERPRINTS,
        "an engine stream changed under GLCB_VERSION {GLCB_VERSION}: bump the \
         version and pin the new streams:\n{table}"
    );
}
