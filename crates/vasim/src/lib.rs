//! Virtual-lab environment for genetic circuits (D-VASim substrate).
//!
//! The paper obtains its simulation data from D-VASim \[8\]: a virtual
//! laboratory that stochastically simulates an SBML circuit while the
//! user applies input-species concentrations, and that estimates the
//! *threshold value* and *propagation delay* the logic analyzer needs
//! \[10\]. This crate reproduces that functionality:
//!
//! * [`experiment`] — drive a circuit through all `2^N` input
//!   combinations (hold each for a configurable time, the paper uses
//!   1000 t.u.), logging every species into a uniform-grid trace and
//!   extracting the I/O series the analyzer consumes;
//! * [`threshold`] — estimate the logic threshold from the per-
//!   combination steady-state levels (largest-gap split);
//! * [`delay`] — estimate the propagation delay from threshold-crossing
//!   settle times;
//! * [`csv`] — log traces to CSV and read them back (the "log all
//!   experimental simulation data" step).
//!
//! # Example
//!
//! ```
//! use glc_gates::catalog;
//! use glc_vasim::experiment::{Experiment, ExperimentConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = catalog::by_id("book_not").unwrap();
//! let config = ExperimentConfig::new(200.0, 15.0); // hold time, input level
//! let result = Experiment::new(config)
//!     .run(&circuit.model, &circuit.inputs, &circuit.output, 1)?;
//! assert_eq!(result.data.input_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod delay;
pub mod error;
pub mod experiment;
pub mod lab;
pub mod stats;
pub mod threshold;
pub mod timing;

pub use delay::{estimate_delay, DelayEstimate};
pub use error::VasimError;
pub use experiment::{Experiment, ExperimentConfig, ExperimentResult, ReplicatedSweep};
pub use lab::VirtualLab;
pub use stats::{ensemble_noise, NoisePoint};
pub use threshold::{estimate_threshold, ThresholdEstimate};
pub use timing::{analyze_timing, TimingReport, TransitionKind};
