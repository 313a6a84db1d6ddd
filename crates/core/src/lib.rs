//! Logic analysis and verification of n-input genetic logic circuits.
//!
//! This crate implements the primary contribution of *Baig & Madsen,
//! "Logic Analysis and Verification of n-input Genetic Logic Circuits",
//! DATE 2017*: an algorithm that extracts the Boolean logic of a genetic
//! circuit from stochastic analog simulation traces and scores how well
//! the extracted expression fits the data.
//!
//! The pipeline follows Algorithm 1 of the paper:
//!
//! 1. [`digitize`] (**ADC**) — convert analog concentration traces to
//!    logic 0/1 against a threshold;
//! 2. [`cases`] (**CaseAnalyzer**) — group the output bit-stream by input
//!    combination, yielding `Case_I[i]` and the per-combination stream;
//! 3. [`variation`] (**VariationAnalyzer**) — count `High_O[i]` (output
//!    1s) and `Var_O[i]` (0↔1 oscillations) per combination;
//! 4. [`filters`] — eq. (1): `FOV_EST[i] = Var_O[i] / Case_I[i]` must not
//!    exceed the user bound `FOV_UD`; eq. (2): `HIGH_O[i] > Case_I[i]/2`;
//! 5. [`analyze`] (**ConstBoolExpr** + **PFoBE**) — assemble the Boolean
//!    expression from the accepted combinations and compute the
//!    percentage fitness, eq. (3).
//!
//! Supporting toolbox:
//!
//! * [`boolexpr`] — truth tables (with the hex naming convention used for
//!   the Cello circuits) and Boolean expressions;
//! * [`qmc`] — Quine–McCluskey two-level minimization, used to print
//!   compact expressions and to synthesize gate netlists;
//! * [`bdd`] — a reduced ordered binary decision diagram package used to
//!   check extracted logic against intended logic ([`verify`](mod@verify)).
//!
//! # Example
//!
//! ```
//! use glc_core::analyze::{AnalyzerConfig, LogicAnalyzer};
//! use glc_core::data::AnalogData;
//!
//! // Perfect 2-input AND gate data: inputs cycle 00,01,10,11.
//! let mut a = Vec::new();
//! let mut b = Vec::new();
//! let mut y = Vec::new();
//! for combo in 0..4u32 {
//!     for _ in 0..100 {
//!         let (av, bv) = ((combo >> 1) & 1, combo & 1);
//!         a.push(av as f64 * 30.0);
//!         b.push(bv as f64 * 30.0);
//!         y.push(if av == 1 && bv == 1 { 30.0 } else { 0.0 });
//!     }
//! }
//! let data = AnalogData::new(vec![("A".into(), a), ("B".into(), b)], ("Y".into(), y)).unwrap();
//! let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0)).analyze(&data).unwrap();
//! assert_eq!(report.expression.to_string(), "A * B");
//! assert_eq!(report.fitness, 100.0);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod bdd;
pub mod boolexpr;
pub mod cases;
pub mod data;
pub mod digitize;
pub mod filters;
pub mod qmc;
pub mod signal;
pub mod variation;
pub mod verify;

pub use analyze::{AnalyzerConfig, LogicAnalyzer, LogicReport};
pub use boolexpr::{BoolExpr, TruthTable};
pub use data::AnalogData;
pub use verify::{verify, Verdict};
