//! Ensemble sharding and the resident session service around
//! Algorithm 1's simulated sweeps.
//!
//! The virtual-lab workload is ensemble-shaped — every noise figure,
//! threshold estimate and propagation-delay measurement averages many
//! stochastic replicates — and replicates are embarrassingly parallel.
//! This crate distributes them over the mergeable [`EnsemblePartial`]
//! aggregates from `glc_ssa`:
//!
//! * [`WorkOrder`] — a self-contained description of one chunk of
//!   replicates: the model (inline SBML via `glc_model::sbml`, or a
//!   catalog circuit id), initial-amount overrides, the engine, a
//!   contiguous replicate range, and the sampling grid;
//! * [`transport`] — the worker fabric: a [`WorkerPool`] of slots, each
//!   reaching a `glc-worker` through one persistent [`ChunkChannel`]
//!   ([`PipelinedWorker`]) — a resident child on its pipes, or a socket
//!   to a `glc-worker --listen` on this or another host. The pool
//!   chunks an order, steals, retries failed chunks on other slots and
//!   quarantines failing slots, reporting per-slot accounting in
//!   [`RunReport`];
//! * [`frame`] and [`codec`] — the one internal wire: length-prefixed
//!   GLCF frames carrying GLCB binary payloads (chunk orders, replies,
//!   hellos, and the on-disk session snapshots);
//! * [`session`] — the **resident query service**: Submit / Extend /
//!   Query over an LRU-bounded [`session::SessionStore`] that keeps
//!   compiled models and partially-aggregated ensembles warm, served
//!   by the `glc-serve` binary as line-delimited JSON. Extends run
//!   in-process or over a worker pool; queries do zero simulation work.
//! * [`metrics`] — the operator-grade observability layer: request and
//!   shard latency histograms over lock-free atomics, slot health and
//!   session footprints, exported through the extended Stats wire reply
//!   and a Prometheus-style text scrape (`glc-serve --metrics-addr`).
//!   Recording is observation-only and cannot move a bit of any result.
//!
//! # Determinism
//!
//! Replicate `i` is seeded `base_seed + i` no matter which process runs
//! it, and partial merging is exact (see `glc_ssa::exact`), so a pool
//! over any number of workers reproduces the in-process `run_ensemble`
//! aggregate **bitwise** — and a resident session extended `0..R` then
//! `R..R+N` holds exactly the partial a fresh `0..R+N` run produces
//! (seed-range accounting validates the merges are disjoint rather
//! than trusting them). The integration tests assert exactly that, and
//! CI exercises it on every push.
//!
//! See `crates/service/README.md` for the wire schemas with worked
//! examples.

#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod metrics;
pub mod session;
pub mod transport;

pub use codec::{BinaryReply, GLCB_MAGIC, GLCB_VERSION};
pub use frame::{FrameDecoder, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
pub use metrics::{HistogramSnapshot, MetricsRegistry, RequestKind};
pub use session::{
    Envelope, ExtendBackend, ExtendRequest, Extended, Queried, QueryRequest, Request,
    RequestLatency, Response, ServiceStats, SessionFootprint, SessionSpec, SessionStore,
    SpeciesNoise, Submitted,
};
pub use transport::{
    ChunkChannel, PipelinedWorker, PoolHealthSnapshot, SlotHealth, SlotHealthRecord, Transport,
    WorkerPool,
};

use glc_model::Model;
use glc_ssa::{
    run_partial_from, CompiledModel, Direct, Engine, EnsemblePartial, FirstReaction, Langevin,
    ModelCache, NextReaction, SimError, TauLeap,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Error raised by the worker fabric or the session service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The work order could not be interpreted (unknown circuit,
    /// malformed SBML, unknown species, bad engine parameters).
    Order(String),
    /// Simulation failed.
    Sim(SimError),
    /// A payload could not be encoded or decoded.
    Protocol(String),
    /// A worker or relay could not be reached, failed its handshake,
    /// broke its connection, or reported a failed chunk.
    Worker(String),
    /// The durable session store could not be read or written.
    Spill(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Order(msg) => write!(f, "invalid work order: {msg}"),
            ServiceError::Sim(err) => write!(f, "simulation failed: {err}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Worker(msg) => write!(f, "worker failed: {msg}"),
            ServiceError::Spill(msg) => write!(f, "session spill failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SimError> for ServiceError {
    fn from(err: SimError) -> Self {
        ServiceError::Sim(err)
    }
}

/// Where the circuit model comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSource {
    /// An inline SBML document (the `glc_model::sbml` interchange
    /// subset). Fully self-contained: the worker needs no local data.
    Sbml(String),
    /// A circuit id from the built-in `glc_gates::catalog`
    /// (e.g. `"book_and"`, `"cello_0x1C"`).
    Catalog(String),
}

impl ModelSource {
    /// Materializes the model.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for unknown catalog ids or SBML that
    /// fails to parse.
    pub fn load(&self) -> Result<Model, ServiceError> {
        match self {
            ModelSource::Sbml(document) => glc_model::sbml::read(document)
                .map_err(|e| ServiceError::Order(format!("SBML: {e}"))),
            ModelSource::Catalog(id) => glc_gates::catalog::by_id(id)
                .map(|entry| entry.model.clone())
                .ok_or_else(|| ServiceError::Order(format!("unknown catalog circuit `{id}`"))),
        }
    }
}

/// Which SSA engine a worker runs, with step parameters where the
/// algorithm needs one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Gillespie's direct method (incremental propensities).
    Direct,
    /// Gillespie's first-reaction method.
    FirstReaction,
    /// Gibson–Bruck next-reaction method.
    NextReaction,
    /// Tau-leaping with the given leap length.
    TauLeap(f64),
    /// Chemical Langevin with the given time step.
    Langevin(f64),
}

impl EngineSpec {
    /// Builds a fresh engine.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for invalid step parameters.
    pub fn build(&self) -> Result<Box<dyn Engine>, ServiceError> {
        let bad = |e: SimError| ServiceError::Order(e.to_string());
        Ok(match self {
            EngineSpec::Direct => Box::new(Direct::new()),
            EngineSpec::FirstReaction => Box::new(FirstReaction::new()),
            EngineSpec::NextReaction => Box::new(NextReaction::new()),
            EngineSpec::TauLeap(tau) => Box::new(TauLeap::new(*tau).map_err(bad)?),
            EngineSpec::Langevin(dt) => Box::new(Langevin::new(*dt).map_err(bad)?),
        })
    }
}

/// One chunk of ensemble work: everything a worker needs to produce an
/// [`EnsemblePartial`]. It travels as a GLCB order payload (see
/// [`codec::encode_order`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkOrder {
    /// The circuit to simulate.
    pub model: ModelSource,
    /// Initial-amount overrides applied before compilation (typically
    /// clamping input species high, as the virtual lab does).
    pub set_amounts: Vec<(String, f64)>,
    /// The engine to run.
    pub engine: EngineSpec,
    /// Seed of replicate 0 of the *whole* ensemble. Replicate `i` is
    /// seeded `base_seed + i` in every process, which is what makes
    /// shards interchangeable with the in-process path.
    pub base_seed: u64,
    /// First replicate index of this shard.
    pub first_replicate: u64,
    /// Number of replicates in this shard.
    pub replicates: u64,
    /// Simulation horizon per replicate.
    pub t_end: f64,
    /// Trace sampling interval.
    pub sample_dt: f64,
}

impl WorkOrder {
    /// A one-shard order covering replicates `0..replicates`.
    pub fn new(
        model: ModelSource,
        engine: EngineSpec,
        base_seed: u64,
        replicates: u64,
        t_end: f64,
        sample_dt: f64,
    ) -> Self {
        WorkOrder {
            model,
            set_amounts: Vec::new(),
            engine,
            base_seed,
            first_replicate: 0,
            replicates,
            t_end,
            sample_dt,
        }
    }

    /// Adds an initial-amount override (builder style).
    pub fn with_amount(mut self, species: &str, amount: f64) -> Self {
        self.set_amounts.push((species.to_string(), amount));
        self
    }

    /// The compiled-model identity of this order: an FNV-1a hash of
    /// the canonical JSON of the model source plus the amount
    /// overrides — everything [`WorkOrder::compile_model`] reads.
    /// Orders differing only in engine, seeds or grid share a
    /// fingerprint, which is exactly what lets a model cache serve an
    /// engine sweep over one circuit from a single compile.
    pub fn model_fingerprint(&self) -> u64 {
        let model = serde_json::to_string(&self.model).unwrap_or_default();
        let amounts = serde_json::to_string(&self.set_amounts).unwrap_or_default();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in model.bytes().chain([0u8]).chain(amounts.bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Materializes and compiles the model with overrides applied,
    /// through the process-wide shared [`ModelCache`]: repeat orders
    /// for the same model and overrides (every shard of a sweep, every
    /// order a `glc-worker` serves for a hot circuit, on any of its
    /// connections) reuse one compile.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for unresolvable models or unknown
    /// override species.
    pub fn compile_model(&self) -> Result<Arc<CompiledModel>, ServiceError> {
        self.compile_model_in(ModelCache::shared())
            .map(|(model, _)| model)
    }

    /// [`WorkOrder::compile_model`] against a caller-owned cache,
    /// also reporting whether the lookup was warm. Errors are never
    /// cached: a failing order stays a miss.
    ///
    /// # Errors
    ///
    /// See [`WorkOrder::compile_model`].
    pub fn compile_model_in(
        &self,
        cache: &ModelCache,
    ) -> Result<(Arc<CompiledModel>, bool), ServiceError> {
        cache.get_or_insert(self.model_fingerprint(), || self.build_model())
    }

    /// The uncached compile: materialize, apply overrides, compile.
    fn build_model(&self) -> Result<CompiledModel, ServiceError> {
        let mut model = self.model.load()?;
        for (species, amount) in &self.set_amounts {
            if model.species_id(species).is_none() {
                return Err(ServiceError::Order(format!(
                    "set_amounts names unknown species `{species}`"
                )));
            }
            model.set_initial_amount(species, *amount);
        }
        CompiledModel::new(&model).map_err(|e| ServiceError::Order(e.to_string()))
    }

    /// Runs the chunk in-process: the exact work a `glc-worker` child
    /// performs for each order frame.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for bad orders, [`ServiceError::Sim`]
    /// for replicate failures.
    pub fn execute(&self) -> Result<EnsemblePartial, ServiceError> {
        if self.replicates == 0 {
            return Err(ServiceError::Order("replicates must be >= 1".into()));
        }
        let model = self.compile_model()?;
        self.engine.build()?; // Surface bad engine parameters as Order errors.
        let engine = &self.engine;
        // `run_partial_from` advances seeds with wrapping arithmetic,
        // so shards near the top of the u64 seed space still simulate
        // every replicate.
        let partial = run_partial_from(
            &model,
            || engine.build().expect("validated just above"),
            self.base_seed.wrapping_add(self.first_replicate),
            self.replicates,
            self.t_end,
            self.sample_dt,
        )?;
        Ok(partial)
    }
}

/// Health accounting of one [`WorkerPool::run`] call.
///
/// A **slot** is one transport position in the pool — a resident
/// worker child, or a relay connection, where it is a real per-host
/// health signal. Re-running a seed range is idempotent — replicate
/// seeds are absolute and partials are exact — so a retried chunk's
/// partial is bit-identical to what the failed attempt would have
/// produced, and nothing in this report can correlate with the merged
/// bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Failures observed per worker slot (first attempts and retries
    /// both count against the slot they ran on).
    pub worker_failures: Vec<u64>,
    /// Chunks that failed at least once and succeeded on a retry.
    pub retried_shards: u64,
    /// Slots quarantined by the pool's health policy as of the end of
    /// this run (sorted ascending).
    pub quarantined_slots: Vec<usize>,
    /// Replicates each slot contributed to the merged aggregate.
    pub slot_replicates: Vec<u64>,
    /// Chunks a slot stole from another slot's queue. A load-balancing
    /// observation, not a health signal.
    pub steals: u64,
    /// Chunks the order was cut into.
    pub chunks: u64,
}

impl RunReport {
    pub(crate) fn new(workers: usize) -> Self {
        RunReport {
            worker_failures: vec![0; workers],
            retried_shards: 0,
            quarantined_slots: Vec::new(),
            slot_replicates: vec![0; workers],
            steals: 0,
            chunks: 0,
        }
    }

    /// Total chunk failures observed across all worker slots.
    pub fn total_failures(&self) -> u64 {
        self.worker_failures.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> WorkOrder {
        WorkOrder::new(
            ModelSource::Catalog("book_and".into()),
            EngineSpec::Direct,
            7,
            10,
            40.0,
            4.0,
        )
        .with_amount("LacI", 15.0)
        .with_amount("TetR", 15.0)
    }

    #[test]
    fn work_orders_round_trip_through_json() {
        for engine in [
            EngineSpec::Direct,
            EngineSpec::FirstReaction,
            EngineSpec::NextReaction,
            EngineSpec::TauLeap(0.5),
            EngineSpec::Langevin(0.1),
        ] {
            let mut order = order();
            order.engine = engine;
            let json = serde_json::to_string(&order).unwrap();
            let back: WorkOrder = serde_json::from_str(&json).unwrap();
            assert_eq!(back, order);
        }
    }

    #[test]
    fn execute_matches_run_partial_bitwise() {
        let order = order();
        let partial = order.execute().unwrap();
        assert_eq!(partial.replicates(), 10);
        let model = order.compile_model().unwrap();
        let reference = glc_ssa::run_partial(
            &model,
            || Box::new(Direct::new()) as Box<dyn Engine>,
            7..17,
            40.0,
            4.0,
        )
        .unwrap();
        assert_eq!(partial, reference);
    }

    #[test]
    fn bad_orders_are_rejected() {
        let mut bad = order();
        bad.replicates = 0;
        assert!(matches!(bad.execute(), Err(ServiceError::Order(_))));
        let mut bad = order();
        bad.model = ModelSource::Catalog("nope".into());
        assert!(matches!(bad.execute(), Err(ServiceError::Order(_))));
        let mut bad = order();
        bad.set_amounts.push(("Ghost".into(), 1.0));
        assert!(matches!(bad.execute(), Err(ServiceError::Order(_))));
        let mut bad = order();
        bad.engine = EngineSpec::TauLeap(-1.0);
        assert!(matches!(bad.execute(), Err(ServiceError::Order(_))));
        let mut bad = order();
        bad.model = ModelSource::Sbml("<not-sbml/>".into());
        assert!(matches!(bad.execute(), Err(ServiceError::Order(_))));
    }

    #[test]
    fn sbml_source_matches_catalog_source_bitwise() {
        let entry = glc_gates::catalog::by_id("book_not").unwrap();
        let document = glc_model::sbml::write(&entry.model);
        let base = WorkOrder::new(
            ModelSource::Catalog("book_not".into()),
            EngineSpec::Direct,
            3,
            6,
            30.0,
            5.0,
        )
        .with_amount("LacI", 15.0);
        let mut inline = base.clone();
        inline.model = ModelSource::Sbml(document);
        assert_eq!(base.execute().unwrap(), inline.execute().unwrap());
    }
}
