//! The resident session protocol: Submit / Extend / Query over warm
//! compiled models and partially-aggregated ensembles.
//!
//! A bare [`crate::WorkOrder`] pays a cold start on every request:
//! recompile the model, rerun all replicates, throw the partial away.
//! The session protocol is a **resident query service** that keeps
//! both expensive artifacts warm:
//!
//! * [`Request::Submit`] — compile the model once and cache it (with
//!   an empty [`EnsemblePartial`]) under a fingerprint key derived
//!   from the full session spec. Submitting the same spec again is
//!   idempotent: it finds the warm session instead of recompiling.
//! * [`Request::Extend`] — simulate **only the new seed range**
//!   `base_seed + R .. base_seed + R + N` and merge it into the
//!   resident partial. The partial's seed-range accounting validates
//!   the merge is disjoint, and exact accumulation makes the extended
//!   partial bitwise-identical to a fresh `0 .. R + N` run — the
//!   property the session store is property-tested on.
//! * [`Request::Query`] — finalize means/σ and per-species noise
//!   figures off the resident partial. **Zero simulation work**: every
//!   response carries `simulated` (replicates run while serving it),
//!   and it is 0 for every query.
//!
//! Sessions live in an [`SessionStore`] bounded by an LRU policy:
//! submitting past the capacity evicts the least-recently-touched
//! session. Without a spill directory the evicted partial is gone and
//! resubmitting starts cold; with one
//! ([`SessionStore::with_spill_dir`]) evictions spill to disk,
//! spilled sessions reload transparently on their next touch, and
//! every Extend write-through-snapshots the session, so a restarted
//! service resumes extends instead of recomputing from seed 0.
//! Extends run in-process or over a health-aware
//! [`ExtendBackend::Pool`] of resident workers and relays; both
//! produce the same bits, because replicate seeds are absolute and
//! partial accumulation is exact.
//!
//! The `glc-serve` binary serves this protocol as line-delimited JSON
//! on stdin/stdout, each request optionally [`Envelope`]-wrapped with
//! a correlation `id` echoed back (string ids byte-exactly; numbers
//! normalize through the JSON number layer); see
//! `crates/service/README.md` for worked examples.

use crate::codec;
use crate::metrics::{HistogramSnapshot, MetricsRegistry, RequestKind};
use crate::transport::PoolHealthSnapshot;
use crate::{EngineSpec, ModelSource, ServiceError, SlotHealth, WorkOrder, WorkerPool};
use glc_ssa::{run_partial_from, CompiledModel, EnsemblePartial, ModelCache, Trace};
use glc_vasim::stats::{ensemble_noise, NoisePoint};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Everything that identifies a resident ensemble session: the model,
/// the engine, the replicate-0 seed, and the sampling grid. Two
/// submissions with the same spec are the same session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The circuit to simulate.
    pub model: ModelSource,
    /// Initial-amount overrides applied before compilation.
    pub set_amounts: Vec<(String, f64)>,
    /// The engine every replicate runs.
    pub engine: EngineSpec,
    /// Seed of replicate 0; replicate `i` is seeded `base_seed + i`.
    pub base_seed: u64,
    /// Simulation horizon per replicate.
    pub t_end: f64,
    /// Trace sampling interval.
    pub sample_dt: f64,
}

impl SessionSpec {
    /// A spec with no amount overrides (builder style via
    /// [`SessionSpec::with_amount`]).
    pub fn new(
        model: ModelSource,
        engine: EngineSpec,
        base_seed: u64,
        t_end: f64,
        sample_dt: f64,
    ) -> Self {
        SessionSpec {
            model,
            set_amounts: Vec::new(),
            engine,
            base_seed,
            t_end,
            sample_dt,
        }
    }

    /// Adds an initial-amount override (builder style).
    pub fn with_amount(mut self, species: &str, amount: f64) -> Self {
        self.set_amounts.push((species.to_string(), amount));
        self
    }

    /// The session key: an FNV-1a fingerprint of the canonical JSON of
    /// the spec. Deterministic across processes (the hash walks the
    /// serialized bytes, not addresses), so a client can re-derive the
    /// key of a session it submitted earlier.
    pub fn fingerprint(&self) -> String {
        let canonical = serde_json::to_string(self).unwrap_or_default();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in canonical.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        format!("sess-{hash:016x}")
    }

    /// The work order covering this spec's replicates
    /// `first .. first + count` — what an Extend hands the backend.
    fn work_order(&self, first: u64, count: u64) -> WorkOrder {
        WorkOrder {
            model: self.model.clone(),
            set_amounts: self.set_amounts.clone(),
            engine: self.engine.clone(),
            base_seed: self.base_seed,
            first_replicate: first,
            replicates: count,
            t_end: self.t_end,
            sample_dt: self.sample_dt,
        }
    }
}

/// One request to the resident query service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Compile and cache a session (idempotent per spec).
    Submit(SessionSpec),
    /// Extend a session's resident partial by N replicates.
    Extend(ExtendRequest),
    /// Read figures off a session's resident partial (no simulation).
    Query(QueryRequest),
    /// Service-level counters (sessions resident, evictions, total
    /// replicates simulated).
    Stats,
}

/// Parameters of [`Request::Extend`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtendRequest {
    /// Session key from the Submit response.
    pub session: String,
    /// Number of *additional* replicates to simulate and merge.
    pub replicates: u64,
}

/// Parameters of [`Request::Query`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Session key from the Submit response.
    pub session: String,
    /// Species to report noise figures for; empty = every species the
    /// session aggregates.
    pub species: Vec<String>,
}

/// One reply from the resident query service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Submit`].
    Submitted(Submitted),
    /// Reply to [`Request::Extend`].
    Extended(Extended),
    /// Reply to [`Request::Query`].
    Queried(Queried),
    /// Reply to [`Request::Stats`].
    Stats(ServiceStats),
    /// Any request that could not be served (the session protocol
    /// keeps serving after an error).
    Error(String),
}

/// Reply to [`Request::Submit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submitted {
    /// Session key for Extend/Query.
    pub session: String,
    /// Replicates already resident (non-zero on an idempotent
    /// re-submit of a warm session).
    pub replicates: u64,
    /// Whether the session was already resident.
    pub warm: bool,
    /// Replicates simulated while serving this request (always 0).
    pub simulated: u64,
}

/// Reply to [`Request::Extend`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Extended {
    /// Session key.
    pub session: String,
    /// Total replicates now resident.
    pub replicates: u64,
    /// Replicates simulated while serving this request (= the
    /// requested extension).
    pub simulated: u64,
}

/// Reply to [`Request::Query`]: figures finalized off the resident
/// partial, zero replicates simulated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Queried {
    /// Session key.
    pub session: String,
    /// Replicates aggregated in the reported figures.
    pub replicates: u64,
    /// Ensemble mean of every species on the session grid.
    pub mean: Trace,
    /// Ensemble standard deviation (population).
    pub std_dev: Trace,
    /// Per-species noise figures (mean/σ/variance/Fano/CV per sample),
    /// read off the borrowed partial.
    pub noise: Vec<SpeciesNoise>,
    /// Replicates simulated while serving this request (always 0 —
    /// the acceptance criterion of the resident refactor).
    pub simulated: u64,
}

/// Noise series of one species in a [`Queried`] reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeciesNoise {
    /// Species name.
    pub species: String,
    /// Per-sample figures.
    pub points: Vec<NoisePoint>,
}

/// Service-level counters and (since the observability layer) the
/// full operator snapshot: spill accounting, worker-slot health,
/// request-latency histograms and per-session footprints.
///
/// The wire shape is extended **backward-compatibly**: every new field
/// defaults when absent, so a new client decodes an old server's Stats
/// reply (the hand-written [`Deserialize`] below), and an old client
/// decoding a new reply simply ignores the unknown fields (the
/// vendored derive's behavior).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct ServiceStats {
    /// Sessions currently resident.
    pub sessions: u64,
    /// Sessions evicted by the LRU bound since startup.
    pub evictions: u64,
    /// Total replicates simulated since startup (only Extends add).
    pub simulated: u64,
    /// Evicted sessions serialized to the spill directory (a subset of
    /// `evictions`; zero when spill is disabled).
    pub spilled: u64,
    /// Sessions transparently reloaded from the spill directory on a
    /// later touch.
    pub reloads: u64,
    /// Write-through snapshots taken on Extend (what a restarted
    /// service resumes from).
    pub snapshots: u64,
    /// Model compiles served from the store's compiled-model cache (a
    /// cold Submit of a circuit another session already compiled, or a
    /// spill reload of a model still warm in the cache).
    pub model_cache_hits: u64,
    /// Model compiles that actually ran because the store's
    /// compiled-model cache had no entry for the model fingerprint.
    pub model_cache_misses: u64,
    /// Bytes currently held by session snapshots (`*.session.glcb`) in
    /// the spill directory (`pool_health.json` is deliberately
    /// excluded, so this matches a `du` over the session files).
    pub spill_bytes: u64,
    /// Session snapshots deleted by the spill garbage collector
    /// (size/age bounds) since startup.
    pub spill_gc_evictions: u64,
    /// Lifetime count of pool chunks that failed and succeeded on a
    /// retry (zero for the in-process backend).
    pub pool_retries: u64,
    /// Lifetime count of chunks a pool slot stole from another slot's
    /// queue (zero for the in-process backend).
    pub pool_steals: u64,
    /// Request-latency histograms per request kind, when a metrics
    /// registry is attached (empty otherwise).
    pub latency: Vec<RequestLatency>,
    /// Worker-pool slot health, in slot order (empty for non-pool
    /// backends).
    pub slots: Vec<SlotHealth>,
    /// Resident sessions' aggregate footprints, in residency order.
    pub footprints: Vec<SessionFootprint>,
}

impl Deserialize for ServiceStats {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if !matches!(value, Value::Object(_)) {
            return Err(DeError::expected("ServiceStats object", value));
        }
        // Every field defaults when absent: a new client decodes an old
        // server's counters-only reply, and a pre-spill reply, alike.
        fn field<T: Deserialize + Default>(value: &Value, key: &str) -> Result<T, DeError> {
            match value.get(key) {
                Some(inner) => T::from_value(inner)
                    .map_err(|DeError(msg)| DeError(format!("ServiceStats.{key}: {msg}"))),
                None => Ok(T::default()),
            }
        }
        Ok(ServiceStats {
            sessions: field(value, "sessions")?,
            evictions: field(value, "evictions")?,
            simulated: field(value, "simulated")?,
            spilled: field(value, "spilled")?,
            reloads: field(value, "reloads")?,
            snapshots: field(value, "snapshots")?,
            model_cache_hits: field(value, "model_cache_hits")?,
            model_cache_misses: field(value, "model_cache_misses")?,
            spill_bytes: field(value, "spill_bytes")?,
            spill_gc_evictions: field(value, "spill_gc_evictions")?,
            pool_retries: field(value, "pool_retries")?,
            pool_steals: field(value, "pool_steals")?,
            latency: field(value, "latency")?,
            slots: field(value, "slots")?,
            footprints: field(value, "footprints")?,
        })
    }
}

/// One request kind's latency histogram in a [`ServiceStats`] reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RequestLatency {
    /// The request kind (`submit`, `extend`, `query`, `stats`).
    pub kind: String,
    /// Cumulative log-spaced latency buckets (see
    /// [`crate::metrics::LATENCY_BUCKET_BOUNDS`]).
    pub histogram: HistogramSnapshot,
}

/// One resident session's aggregate footprint in a [`ServiceStats`]
/// reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SessionFootprint {
    /// Session key.
    pub session: String,
    /// Replicates resident in the partial.
    pub replicates: u64,
    /// Exact-accumulator cells (`species × samples`, sums and squares).
    pub cells: u64,
    /// Resident bytes of the partial (`EnsemblePartial::footprint_bytes`).
    pub bytes: u64,
}

/// How an Extend's new seed range is simulated.
pub enum ExtendBackend {
    /// On the calling thread, against the session's warm compiled
    /// model (no process or compile cost).
    InProcess,
    /// Fanned out over a resident [`WorkerPool`] — any mix of worker
    /// and relay slots — whose health accounting (throughput-sized
    /// chunks, quarantine of consistently failing slots) persists
    /// across Extends for the life of the store.
    Pool(WorkerPool),
}

/// One resident session: the warm compiled model and the growing
/// partial.
struct Session {
    /// The fingerprint key, computed once at submit (recomputing it
    /// per lookup would re-serialize the whole spec — including any
    /// inline SBML document — on every request).
    key: String,
    spec: SessionSpec,
    /// Shared with the store's [`ModelCache`]: two sessions over the
    /// same circuit (same model fingerprint) hold one compiled model.
    model: Arc<CompiledModel>,
    partial: EnsemblePartial,
    /// LRU clock stamp of the last touch.
    last_used: u64,
}

/// An LRU-bounded store of resident sessions; the state behind a
/// `glc-serve` process (and directly drivable in-process, which is how
/// the extend-vs-fresh property tests run).
///
/// # Durable sessions (spill)
///
/// With a spill directory attached ([`SessionStore::with_spill_dir`])
/// the store becomes restart-tolerant:
///
/// * an LRU **eviction** serializes the session (spec + partial) to
///   `<dir>/<key>.session.glcb` instead of discarding it;
/// * a touch of a non-resident key — Submit, Extend or Query —
///   transparently **reloads** the spilled session (recompiling the
///   model from its spec and re-validating the partial) before
///   serving;
/// * every successful Extend takes a **write-through snapshot**, so a
///   killed-and-restarted `glc-serve` resumes extends from the
///   snapshot's replicate count instead of recomputing from seed 0.
///
/// Snapshot files are written to a temporary sibling and renamed into
/// place, so a crash mid-write leaves the previous snapshot intact.
/// The partial's wire format is bitwise-canonical, so a
/// reloaded-and-extended session finalizes identically to one that
/// never left memory — the spill property tests pin exactly that.
pub struct SessionStore {
    capacity: usize,
    backend: ExtendBackend,
    sessions: Vec<Session>,
    clock: u64,
    evictions: u64,
    simulated: u64,
    spill_dir: Option<PathBuf>,
    spilled: u64,
    reloads: u64,
    snapshots: u64,
    /// Store-owned compiled-model cache (deliberately not the
    /// process-wide [`ModelCache::shared`], so the hit/miss counters
    /// below are deterministic for this store's own traffic).
    model_cache: ModelCache,
    model_cache_hits: u64,
    model_cache_misses: u64,
    /// Spill-dir size bound: the GC evicts oldest session snapshots
    /// until the directory fits.
    spill_max_bytes: Option<u64>,
    /// Spill-dir age bound: session snapshots older than this are
    /// collected.
    spill_max_age: Option<Duration>,
    /// Bytes currently held by session snapshot files (refreshed
    /// after every snapshot write and GC pass).
    spill_bytes: u64,
    spill_gc_evictions: u64,
    /// Attached observability sink: request latencies recorded in
    /// [`SessionStore::handle`], gauge snapshot published after every
    /// request. Recording never touches a seed or a partial.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl SessionStore {
    /// A store holding at most `capacity` resident sessions.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for zero capacity.
    pub fn new(capacity: usize, backend: ExtendBackend) -> Result<Self, ServiceError> {
        if capacity == 0 {
            return Err(ServiceError::Order("session capacity must be >= 1".into()));
        }
        Ok(SessionStore {
            capacity,
            backend,
            sessions: Vec::new(),
            clock: 0,
            evictions: 0,
            simulated: 0,
            spill_dir: None,
            spilled: 0,
            reloads: 0,
            snapshots: 0,
            model_cache: ModelCache::default(),
            model_cache_hits: 0,
            model_cache_misses: 0,
            spill_max_bytes: None,
            spill_max_age: None,
            spill_bytes: 0,
            spill_gc_evictions: 0,
            metrics: None,
        })
    }

    /// Compiles an order's model through the store's cache, counting
    /// the hit or miss.
    fn compile_through_cache(
        &mut self,
        order: &WorkOrder,
    ) -> Result<Arc<CompiledModel>, ServiceError> {
        let (model, warm) = order.compile_model_in(&self.model_cache)?;
        if warm {
            self.model_cache_hits += 1;
        } else {
            self.model_cache_misses += 1;
        }
        Ok(model)
    }

    /// Attaches a durable backing store: evicted sessions spill to
    /// `dir`, spilled sessions reload transparently on their next
    /// touch, and every Extend write-through-snapshots the session (see
    /// the type docs). The directory is created on first use.
    ///
    /// For a [`ExtendBackend::Pool`] backend this also restores the
    /// pool's durable health from `<dir>/pool_health.json` when one
    /// exists, so a restarted service does not forget a quarantined
    /// host (a missing or damaged health file starts the pool fresh and
    /// is overwritten at the next persisted run).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        if let (Some(dir), ExtendBackend::Pool(pool)) = (&self.spill_dir, &mut self.backend) {
            if let Ok(Some(snapshot)) = read_pool_health(dir) {
                pool.restore_health(&snapshot);
            }
        }
        self.collect_spill_garbage(None);
        self
    }

    /// Bounds the spill directory's size: after every snapshot write
    /// the GC evicts the **oldest** session snapshots (by modification
    /// time, name-tiebroken) until the session snapshot files fit in
    /// `max_bytes`. The newest snapshot is never evicted, so the
    /// session just extended always keeps its durability.
    pub fn with_spill_max_bytes(mut self, max_bytes: u64) -> Self {
        self.spill_max_bytes = Some(max_bytes);
        self.collect_spill_garbage(None);
        self
    }

    /// Bounds spill snapshots' age: snapshots not rewritten within
    /// `max_age` are collected at the next GC pass.
    pub fn with_spill_max_age(mut self, max_age: Duration) -> Self {
        self.spill_max_age = Some(max_age);
        self.collect_spill_garbage(None);
        self
    }

    /// Attaches a metrics registry: request latencies are recorded per
    /// kind in [`SessionStore::handle`], the gauge snapshot is
    /// published after every request, and a pool backend additionally
    /// records per-slot shard latencies. Observation-only — no request
    /// result changes by a bit (property-tested).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        if let ExtendBackend::Pool(pool) = &mut self.backend {
            pool.attach_metrics(Arc::clone(&registry));
        }
        self.metrics = Some(registry);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Serves one line of the wire protocol: parses an
    /// [`Envelope`]-wrapped [`Request`], handles it, and returns the
    /// encoded [`Response`] with the request's `id` (if any) echoed
    /// back (see [`Envelope`] for the value-level echo contract).
    /// Undecodable lines become an id-less [`Response::Error`]; this
    /// never fails the serving loop.
    pub fn handle_json_line(&mut self, line: &str) -> String {
        let reply = match serde_json::from_str::<Envelope<Request>>(line.trim()) {
            Ok(Envelope { id, body }) => Envelope {
                id,
                body: self.handle(&body),
            },
            Err(err) => Envelope::bare(Response::Error(format!("unparseable request: {err}"))),
        };
        serde_json::to_string(&reply)
            .unwrap_or_else(|err| format!("{{\"Error\":\"encoding response: {err}\"}}"))
    }

    /// Serves one request, never failing the loop: errors become
    /// [`Response::Error`]. With a metrics registry attached the
    /// request's latency is recorded against its kind and a fresh
    /// gauge snapshot is published for the scrape endpoint —
    /// observation only, after the response is already decided.
    pub fn handle(&mut self, request: &Request) -> Response {
        let started = Instant::now();
        let response = self.dispatch(request);
        if let Some(metrics) = &self.metrics {
            let kind = match request {
                Request::Submit(_) => RequestKind::Submit,
                Request::Extend(_) => RequestKind::Extend,
                Request::Query(_) => RequestKind::Query,
                Request::Stats => RequestKind::Stats,
            };
            metrics.observe_request(kind, started.elapsed());
            metrics.publish(self.stats());
        }
        response
    }

    fn dispatch(&mut self, request: &Request) -> Response {
        match request {
            Request::Submit(spec) => match self.submit(spec) {
                Ok(reply) => Response::Submitted(reply),
                Err(err) => Response::Error(err.to_string()),
            },
            Request::Extend(extend) => match self.extend(&extend.session, extend.replicates) {
                Ok(reply) => Response::Extended(reply),
                Err(err) => Response::Error(err.to_string()),
            },
            Request::Query(query) => match self.query(&query.session, &query.species) {
                Ok(reply) => Response::Queried(reply),
                Err(err) => Response::Error(err.to_string()),
            },
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    /// Compiles and caches `spec` (idempotent: a warm session with the
    /// same spec is touched, not rebuilt; a spilled session with the
    /// same spec is reloaded, replicates intact).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for unresolvable models, unknown
    /// override species, invalid engine parameters, or an invalid
    /// grid.
    pub fn submit(&mut self, spec: &SessionSpec) -> Result<Submitted, ServiceError> {
        let key = spec.fingerprint();
        self.clock += 1;
        if let Some(session) = self.sessions.iter_mut().find(|s| s.spec == *spec) {
            session.last_used = self.clock;
            return Ok(Submitted {
                session: key,
                replicates: session.partial.replicates(),
                warm: true,
                simulated: 0,
            });
        }
        // A spilled session with this spec resumes warm with its
        // snapshot's replicates. A snapshot that fails to reload
        // (corrupt, unreadable, mismatched) is superseded by the cold
        // rebuild below — and overwritten at the next snapshot — so
        // Submit never hard-fails on a damaged spill file.
        if let Ok(Some(slot)) = self.reload_from_spill(&key, Some(spec)) {
            let replicates = self.sessions[slot].partial.replicates();
            return Ok(Submitted {
                session: key,
                replicates,
                warm: true,
                simulated: 0,
            });
        }
        // Cold: compile the model and validate the whole spec up
        // front (engine parameters included), so Extend can trust it.
        // "Cold" means the *session* is cold — the compile itself is
        // served from the store's model cache whenever any session
        // (including an evicted incarnation of this one) already
        // compiled the same model and overrides.
        let order = spec.work_order(0, 1);
        let model = self.compile_through_cache(&order)?;
        spec.engine.build()?;
        let partial = EnsemblePartial::new(&model, spec.t_end, spec.sample_dt)?;
        self.evict_if_full()?;
        self.sessions.push(Session {
            key: key.clone(),
            spec: spec.clone(),
            model,
            partial,
            last_used: self.clock,
        });
        Ok(Submitted {
            session: key,
            replicates: 0,
            warm: false,
            simulated: 0,
        })
    }

    /// Makes room for one more session: spills (when a spill directory
    /// is attached) and evicts the least-recently-touched session once
    /// the store is at capacity.
    fn evict_if_full(&mut self) -> Result<(), ServiceError> {
        if self.sessions.len() < self.capacity {
            return Ok(());
        }
        let oldest = self
            .sessions
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.last_used)
            .map(|(i, _)| i)
            .expect("capacity >= 1, store non-empty");
        if let Some(dir) = self.spill_dir.clone() {
            let victim = &self.sessions[oldest];
            let written = write_spill(&dir, &victim.spec, &victim.partial)?;
            self.spilled += 1;
            self.sessions.swap_remove(oldest);
            self.evictions += 1;
            self.collect_spill_garbage(Some(&written));
            return Ok(());
        }
        self.sessions.swap_remove(oldest);
        self.evictions += 1;
        Ok(())
    }

    /// Attempts to reload session `key` from the spill directory and
    /// insert it resident (spilling/evicting another session if the
    /// store is full). `Ok(None)` when spill is disabled or no
    /// snapshot exists.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Spill`] for unreadable, undecodable or
    /// structurally invalid snapshots (including a spec that does not
    /// re-derive `key`, or — with `expect_spec` — a snapshot whose
    /// spec differs from the submitted one), and compile errors for a
    /// spec whose model no longer resolves.
    fn reload_from_spill(
        &mut self,
        key: &str,
        expect_spec: Option<&SessionSpec>,
    ) -> Result<Option<usize>, ServiceError> {
        let Some(dir) = self.spill_dir.clone() else {
            return Ok(None);
        };
        let Some((spec, partial)) = read_spill(&dir, key)? else {
            return Ok(None);
        };
        if spec.fingerprint() != key {
            return Err(ServiceError::Spill(format!(
                "snapshot `{key}` holds a spec fingerprinting to `{}`",
                spec.fingerprint()
            )));
        }
        if expect_spec.is_some_and(|expected| *expected != spec) {
            return Err(ServiceError::Spill(format!(
                "snapshot `{key}` spec differs from the submitted spec \
                 (fingerprint collision or corruption)"
            )));
        }
        // Recompile and re-derive the expected aggregate shape: the
        // snapshot partial must belong to exactly this model and grid,
        // and its coverage must be the contiguous extend shape a
        // resident session maintains. (The compile usually hits the
        // model cache — eviction spills the partial, not the model.)
        let model = self.compile_through_cache(&spec.work_order(0, 1))?;
        spec.engine.build()?;
        let expected = EnsemblePartial::new(&model, spec.t_end, spec.sample_dt)?;
        if expected.fingerprint() != partial.fingerprint() {
            return Err(ServiceError::Spill(format!(
                "snapshot `{key}` partial does not match its spec's model/grid"
            )));
        }
        if partial.replicates() > 0 && !partial.covers_contiguous_from(spec.base_seed) {
            return Err(ServiceError::Spill(format!(
                "snapshot `{key}` coverage is not contiguous from the base seed"
            )));
        }
        self.evict_if_full()?;
        self.sessions.push(Session {
            key: key.to_string(),
            spec,
            model,
            partial,
            last_used: self.clock,
        });
        self.reloads += 1;
        Ok(Some(self.sessions.len() - 1))
    }

    /// Simulates the session's next `count` replicates (seed range
    /// `base_seed + R .. base_seed + R + count`) and merges them into
    /// the resident partial, write-through-snapshotting the session
    /// when a spill directory is attached.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for an unknown session or zero
    /// `count`, simulation/worker errors from the backend, any
    /// seed-coverage violation the partial's accounting detects, and
    /// [`ServiceError::Spill`] when the write-through snapshot cannot
    /// be written. In that last case the merge already stands — only
    /// durability failed — so the error names the resident replicate
    /// count and the recovery is an idempotent re-Submit (which
    /// reports it), **not** a retried Extend (which would simulate the
    /// *next* seed range on top).
    pub fn extend(&mut self, session: &str, count: u64) -> Result<Extended, ServiceError> {
        if count == 0 {
            return Err(ServiceError::Order("extend replicates must be >= 1".into()));
        }
        self.clock += 1;
        let clock = self.clock;
        let slot = self.touch_or_reload(session)?;
        self.sessions[slot].last_used = clock;
        let first = self.sessions[slot].partial.replicates();
        let fresh = match &mut self.backend {
            ExtendBackend::InProcess => {
                let resident = &self.sessions[slot];
                let spec = &resident.spec;
                let engine = &spec.engine;
                run_partial_from(
                    &resident.model,
                    || engine.build().expect("validated at submit"),
                    spec.base_seed.wrapping_add(first),
                    count,
                    spec.t_end,
                    spec.sample_dt,
                )
                .map_err(ServiceError::from)
            }
            ExtendBackend::Pool(pool) => pool
                .run(&self.sessions[slot].spec.work_order(first, count))
                .map(|(partial, _)| partial),
        };
        // A pool's health moved whether or not the run succeeded (a
        // failing run is when it moves most — failures and quarantine);
        // persist it before propagating any error.
        self.persist_pool_health();
        let fresh = fresh?;
        let resident = &mut self.sessions[slot];
        resident.partial.merge(&fresh)?;
        let resident_now = resident.partial.replicates();
        if let Some(dir) = self.spill_dir.clone() {
            // The merge already stands when a snapshot write fails, so
            // the error must leave the client a resync path: it names
            // the resident count, and an idempotent re-Submit reports
            // the same number — blindly retrying the Extend would
            // simulate *further* replicates, not recover these.
            let written = write_spill(&dir, &resident.spec, &resident.partial).map_err(|err| {
                let detail = match err {
                    ServiceError::Spill(msg) => msg,
                    other => other.to_string(),
                };
                ServiceError::Spill(format!(
                    "extend merged {count} replicates ({resident_now} now resident; \
                     re-Submit to observe them) but the write-through snapshot failed: {detail}"
                ))
            })?;
            self.snapshots += 1;
            self.collect_spill_garbage(Some(&written));
        }
        self.simulated += count;
        Ok(Extended {
            session: session.to_string(),
            replicates: resident_now,
            simulated: count,
        })
    }

    /// Finalizes figures off the resident partial: means, σ, and the
    /// requested species' noise series. No replicate is simulated.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for an unknown session or a species the
    /// session does not aggregate, [`ServiceError::Sim`] for a partial
    /// that cannot finalize (zero replicates, poisoned cells).
    pub fn query(&mut self, session: &str, species: &[String]) -> Result<Queried, ServiceError> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.touch_or_reload(session)?;
        let resident = &mut self.sessions[slot];
        resident.last_used = clock;
        let partial = &resident.partial;
        let ensemble = partial.finalize()?;
        let names: Vec<String> = if species.is_empty() {
            partial.fingerprint().species.clone()
        } else {
            species.to_vec()
        };
        let mut noise = Vec::with_capacity(names.len());
        for name in names {
            // Read the figures off the traces finalize already
            // materialized rather than rounding every exact cell a
            // second time through the borrowed-partial path — the two
            // are pinned bitwise-identical (`glc_vasim::stats` parity
            // test).
            let points = ensemble_noise(&ensemble, &name).ok_or_else(|| {
                ServiceError::Order(format!("session does not aggregate species `{name}`"))
            })?;
            noise.push(SpeciesNoise {
                species: name,
                points,
            });
        }
        Ok(Queried {
            session: session.to_string(),
            replicates: partial.replicates(),
            mean: ensemble.mean,
            std_dev: ensemble.std_dev,
            noise,
            simulated: 0,
        })
    }

    /// A borrowed view of a resident session's partial (primarily for
    /// tests and embedding callers; protocol clients use Query).
    pub fn partial(&self, session: &str) -> Option<&EnsemblePartial> {
        self.sessions
            .iter()
            .find(|s| s.key == session)
            .map(|s| &s.partial)
    }

    /// Current service counters and operator snapshot: spill
    /// accounting, slot health (pool backends), latency histograms
    /// (when a registry is attached), and resident-session footprints.
    pub fn stats(&self) -> ServiceStats {
        let (pool_retries, pool_steals, slots) = match &self.backend {
            ExtendBackend::Pool(pool) => (
                pool.lifetime_retried_shards(),
                pool.lifetime_steals(),
                pool.health(),
            ),
            _ => (0, 0, Vec::new()),
        };
        let footprints = self
            .sessions
            .iter()
            .map(|session| SessionFootprint {
                session: session.key.clone(),
                replicates: session.partial.replicates(),
                cells: session.partial.cells() as u64,
                bytes: session.partial.footprint_bytes() as u64,
            })
            .collect();
        let latency = match &self.metrics {
            Some(metrics) => RequestKind::ALL
                .iter()
                .map(|&kind| RequestLatency {
                    kind: kind.label().to_string(),
                    histogram: metrics.request_snapshot(kind),
                })
                .collect(),
            None => Vec::new(),
        };
        ServiceStats {
            sessions: self.sessions.len() as u64,
            evictions: self.evictions,
            simulated: self.simulated,
            spilled: self.spilled,
            reloads: self.reloads,
            snapshots: self.snapshots,
            model_cache_hits: self.model_cache_hits,
            model_cache_misses: self.model_cache_misses,
            spill_bytes: self.spill_bytes,
            spill_gc_evictions: self.spill_gc_evictions,
            pool_retries,
            pool_steals,
            latency,
            slots,
            footprints,
        }
    }

    /// Best-effort durable pool health: writes
    /// `<spill-dir>/pool_health.json` (atomic temp+rename) when the
    /// backend is a pool and a spill directory is attached. Health is
    /// advisory — a failed write only forgets accounting, never data —
    /// so errors are swallowed rather than failing the request that
    /// triggered the persist.
    fn persist_pool_health(&mut self) {
        if let (Some(dir), ExtendBackend::Pool(pool)) = (&self.spill_dir, &self.backend) {
            let _ = write_pool_health(dir, &pool.health_snapshot());
        }
    }

    /// One garbage-collection pass over the spill directory's
    /// session snapshots: drop snapshots older than
    /// `spill_max_age`, then evict oldest-first (modification time,
    /// name-tiebroken) until the rest fit in `spill_max_bytes`; refresh
    /// the `spill_bytes` gauge either way. `just_written` — the
    /// snapshot that triggered the pass — and the newest snapshot are
    /// never evicted, so the active session keeps its durability even
    /// when it alone exceeds the bound.
    fn collect_spill_garbage(&mut self, just_written: Option<&Path>) {
        let Some(dir) = self.spill_dir.clone() else {
            return;
        };
        let mut entries = scan_spill_sessions(&dir);
        if let Some(max_age) = self.spill_max_age {
            let now = SystemTime::now();
            let mut kept = Vec::with_capacity(entries.len());
            for entry in entries {
                let expired = now
                    .duration_since(entry.modified)
                    .is_ok_and(|age| age > max_age)
                    && just_written != Some(entry.path.as_path());
                if expired && std::fs::remove_file(&entry.path).is_ok() {
                    self.spill_gc_evictions += 1;
                } else {
                    kept.push(entry);
                }
            }
            entries = kept;
        }
        if let Some(max_bytes) = self.spill_max_bytes {
            let mut total: u64 = entries.iter().map(|entry| entry.bytes).sum();
            // Entries are sorted oldest-first; the last one is newest.
            let newest = entries.last().map(|entry| entry.path.clone());
            let mut kept = Vec::with_capacity(entries.len());
            for entry in entries {
                let protected = just_written == Some(entry.path.as_path())
                    || newest.as_deref() == Some(entry.path.as_path());
                if total > max_bytes && !protected && std::fs::remove_file(&entry.path).is_ok() {
                    total -= entry.bytes;
                    self.spill_gc_evictions += 1;
                } else {
                    kept.push(entry);
                }
            }
            entries = kept;
        }
        self.spill_bytes = entries.iter().map(|entry| entry.bytes).sum();
    }

    /// Index of the resident session with the given key, transparently
    /// reloading it from the spill directory when it is not resident.
    fn touch_or_reload(&mut self, session: &str) -> Result<usize, ServiceError> {
        if let Some(slot) = self.sessions.iter().position(|s| s.key == session) {
            return Ok(slot);
        }
        self.reload_from_spill(session, None)?.ok_or_else(|| {
            ServiceError::Order(format!(
                "unknown session `{session}` (expired from the LRU bound, or never submitted)"
            ))
        })
    }
}

/// The snapshot path of session `key` under `dir`.
pub fn spill_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.session.glcb"))
}

/// Atomically writes a session snapshot — the spec as canonical JSON
/// plus the partial in the GLCB binary layout — via a temporary
/// sibling and rename, so a crash mid-write leaves any previous
/// snapshot intact. Creates `dir` if needed and returns the snapshot
/// path.
///
/// # Errors
///
/// [`ServiceError::Spill`] for I/O or encoding failures.
pub fn write_spill(
    dir: &Path,
    spec: &SessionSpec,
    partial: &EnsemblePartial,
) -> Result<PathBuf, ServiceError> {
    let key = spec.fingerprint();
    let path = spill_path(dir, &key);
    let spec_json = serde_json::to_string(spec)
        .map_err(|e| ServiceError::Spill(format!("encoding snapshot `{key}`: {e}")))?;
    let bytes = codec::encode_snapshot(&spec_json, partial);
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Spill(format!("creating {}: {e}", dir.display())))?;
    let tmp = dir.join(format!("{key}.session.glcb.tmp"));
    std::fs::write(&tmp, bytes)
        .map_err(|e| ServiceError::Spill(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| ServiceError::Spill(format!("publishing {}: {e}", path.display())))?;
    Ok(path)
}

/// Reads and structurally validates the snapshot of session `key`
/// under `dir`; `Ok(None)` when no snapshot exists.
///
/// # Errors
///
/// [`ServiceError::Spill`] for I/O failures, undecodable snapshots,
/// and partials failing `EnsemblePartial::validate` — a snapshot file
/// arrives from disk, not from this process, so nothing in it is
/// trusted unchecked.
pub fn read_spill(
    dir: &Path,
    key: &str,
) -> Result<Option<(SessionSpec, EnsemblePartial)>, ServiceError> {
    let path = spill_path(dir, key);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ServiceError::Spill(format!(
                "reading {}: {e}",
                path.display()
            )))
        }
    };
    let undecodable =
        |e: String| ServiceError::Spill(format!("undecodable snapshot {}: {e}", path.display()));
    // decode_snapshot validates the partial internally.
    let (spec_json, partial) =
        codec::decode_snapshot(&bytes).map_err(|e| undecodable(e.to_string()))?;
    let spec: SessionSpec =
        serde_json::from_str(&spec_json).map_err(|e| undecodable(e.to_string()))?;
    Ok(Some((spec, partial)))
}

/// One session snapshot file in the spill directory, as the garbage
/// collector sees it.
struct SpillEntry {
    path: PathBuf,
    bytes: u64,
    modified: SystemTime,
}

/// Lists the session snapshots under `dir`, sorted oldest-first by
/// (modification time, file name) — the GC's eviction order. A missing
/// or unreadable directory is an empty list (nothing to collect), and
/// entries whose metadata cannot be read are skipped. Only
/// `*.session.glcb` files count: `pool_health.json` and in-flight
/// `.tmp` siblings are neither accounted nor collected.
fn scan_spill_sessions(dir: &Path) -> Vec<SpillEntry> {
    let Ok(reader) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut entries: Vec<SpillEntry> = reader
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.ends_with(".session.glcb"))
                .then_some(path)
        })
        .filter_map(|path| {
            let meta = std::fs::metadata(&path).ok()?;
            let modified = meta.modified().ok()?;
            Some(SpillEntry {
                path,
                bytes: meta.len(),
                modified,
            })
        })
        .collect();
    entries.sort_by(|a, b| {
        a.modified
            .cmp(&b.modified)
            .then_with(|| a.path.cmp(&b.path))
    });
    entries
}

/// The pool-health snapshot path under `dir`.
pub fn pool_health_path(dir: &Path) -> PathBuf {
    dir.join("pool_health.json")
}

/// Atomically writes the worker pool's durable health to
/// `<dir>/pool_health.json` (temp sibling + rename, like session
/// snapshots), creating `dir` if needed. Returns the snapshot path.
///
/// # Errors
///
/// [`ServiceError::Spill`] for I/O or encoding failures.
pub fn write_pool_health(
    dir: &Path,
    snapshot: &PoolHealthSnapshot,
) -> Result<PathBuf, ServiceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Spill(format!("creating {}: {e}", dir.display())))?;
    let path = pool_health_path(dir);
    let text = serde_json::to_string(snapshot)
        .map_err(|e| ServiceError::Spill(format!("encoding pool health: {e}")))?;
    let tmp = dir.join("pool_health.json.tmp");
    std::fs::write(&tmp, text)
        .map_err(|e| ServiceError::Spill(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| ServiceError::Spill(format!("publishing {}: {e}", path.display())))?;
    Ok(path)
}

/// Reads the pool-health snapshot under `dir`; `Ok(None)` when none
/// exists.
///
/// # Errors
///
/// [`ServiceError::Spill`] for I/O failures and undecodable documents.
pub fn read_pool_health(dir: &Path) -> Result<Option<PoolHealthSnapshot>, ServiceError> {
    let path = pool_health_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ServiceError::Spill(format!(
                "reading {}: {e}",
                path.display()
            )))
        }
    };
    let snapshot: PoolHealthSnapshot = serde_json::from_str(&text).map_err(|e| {
        ServiceError::Spill(format!("undecodable pool health {}: {e}", path.display()))
    })?;
    Ok(Some(snapshot))
}

/// A [`Request`] or [`Response`] with an optional client-supplied
/// correlation `id`, echoed back — what pipelined clients use to
/// match replies to in-flight requests.
///
/// The wire shape is **byte-identical to the bare body when `id` is
/// absent** (old clients and old servers interoperate unchanged). With
/// an id, the serialized body object gains a leading `"id"` entry —
/// `{"id":7,"Extend":{…}}` — and a unit variant like `Stats` is
/// spelled `{"id":7,"Stats":null}`. The id is any JSON value and is
/// never interpreted; it is echoed as the same JSON **value**, not the
/// same bytes: numbers travel through the JSON number layer (exact
/// for integer magnitudes up to 2^53, canonical float spelling on the
/// way out, so `41` returns as `41.0`). Clients that correlate by
/// comparing raw token text — or use ids beyond 2^53 — should send
/// **string** ids, which do round-trip byte-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// Opaque correlation id (`None` = today's bare wire format).
    pub id: Option<Value>,
    /// The request or response itself.
    pub body: T,
}

impl<T> Envelope<T> {
    /// An id-less envelope: serializes byte-identically to the bare
    /// body.
    pub fn bare(body: T) -> Self {
        Envelope { id: None, body }
    }

    /// An envelope carrying a correlation id.
    pub fn with_id(id: Value, body: T) -> Self {
        Envelope { id: Some(id), body }
    }
}

impl<T: Serialize> Serialize for Envelope<T> {
    fn to_value(&self) -> Value {
        let body = self.body.to_value();
        let Some(id) = &self.id else {
            return body;
        };
        let mut entries = vec![("id".to_string(), id.clone())];
        match body {
            Value::Object(fields) => entries.extend(fields),
            // Unit enum variants serialize as strings; with an id they
            // become `{"id":…,"Variant":null}`.
            Value::Str(variant) => entries.push((variant, Value::Null)),
            other => entries.push(("body".to_string(), other)),
        }
        Value::Object(entries)
    }
}

impl<T: Deserialize> Deserialize for Envelope<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Object(entries) = value else {
            return Ok(Envelope::bare(T::from_value(value)?));
        };
        if !entries.iter().any(|(k, _)| k == "id") {
            return Ok(Envelope::bare(T::from_value(value)?));
        }
        let mut id = None;
        let mut rest = Vec::with_capacity(entries.len() - 1);
        for (k, v) in entries {
            if k == "id" && id.is_none() {
                id = Some(v.clone());
            } else {
                rest.push((k.clone(), v.clone()));
            }
        }
        // `{"id":…,"Variant":null}` is the enveloped spelling of the
        // unit variant `"Variant"`; try that reading first, falling
        // back to the object shape for data-carrying variants.
        let body = if let [(variant, Value::Null)] = rest.as_slice() {
            T::from_value(&Value::Str(variant.clone()))
                .or_else(|_| T::from_value(&Value::Object(rest.clone())))?
        } else {
            T::from_value(&Value::Object(rest))?
        };
        Ok(Envelope { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_ssa::run_partial_from as fresh_partial;

    fn spec() -> SessionSpec {
        SessionSpec::new(
            ModelSource::Catalog("book_and".into()),
            EngineSpec::Direct,
            7,
            20.0,
            4.0,
        )
        .with_amount("LacI", 15.0)
        .with_amount("TetR", 15.0)
    }

    fn store() -> SessionStore {
        SessionStore::new(4, ExtendBackend::InProcess).unwrap()
    }

    #[test]
    fn submit_extend_query_round_trip() {
        let mut store = store();
        let submitted = store.submit(&spec()).unwrap();
        assert!(!submitted.warm);
        assert_eq!(submitted.replicates, 0);
        assert_eq!(submitted.simulated, 0);

        // Idempotent resubmit finds the warm session.
        let again = store.submit(&spec()).unwrap();
        assert!(again.warm);
        assert_eq!(again.session, submitted.session);

        let extended = store.extend(&submitted.session, 5).unwrap();
        assert_eq!(extended.replicates, 5);
        assert_eq!(extended.simulated, 5);
        let extended = store.extend(&submitted.session, 3).unwrap();
        assert_eq!(extended.replicates, 8);

        let queried = store.query(&submitted.session, &[]).unwrap();
        assert_eq!(queried.replicates, 8);
        assert_eq!(queried.simulated, 0, "queries must not simulate");
        assert_eq!(queried.mean.len(), queried.std_dev.len());
        assert_eq!(
            queried.noise.len(),
            queried.mean.species().len(),
            "empty filter reports every species"
        );

        // The resident partial is bitwise what a fresh 0..8 run makes.
        let order = spec().work_order(0, 8);
        let model = order.compile_model().unwrap();
        let reference = fresh_partial(
            &model,
            || EngineSpec::Direct.build().unwrap(),
            7,
            8,
            20.0,
            4.0,
        )
        .unwrap();
        assert_eq!(store.partial(&submitted.session).unwrap(), &reference);

        let stats = store.stats();
        assert_eq!(stats.sessions, 1);
        assert_eq!(stats.simulated, 8);
        assert_eq!(stats.evictions, 0);
        // One cold compile; the warm resubmit never reached the cache.
        assert_eq!(stats.model_cache_misses, 1);
        assert_eq!(stats.model_cache_hits, 0);
    }

    #[test]
    fn model_cache_serves_repeat_compiles_across_sessions() {
        let mut store = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
        let make = |seed: u64| {
            SessionSpec::new(
                ModelSource::Catalog("book_not".into()),
                EngineSpec::Direct,
                seed,
                10.0,
                5.0,
            )
            .with_amount("LacI", 15.0)
        };
        // Distinct sessions (different seeds), same model + overrides:
        // the second compile is a cache hit.
        let a = store.submit(&make(1)).unwrap().session;
        store.submit(&make(2)).unwrap();
        let stats = store.stats();
        assert_eq!((stats.model_cache_misses, stats.model_cache_hits), (1, 1));
        // A different circuit is a genuine miss…
        let other = SessionSpec::new(
            ModelSource::Catalog("book_and".into()),
            EngineSpec::Direct,
            1,
            10.0,
            5.0,
        )
        .with_amount("LacI", 15.0)
        .with_amount("TetR", 15.0);
        store.submit(&other).unwrap();
        let stats = store.stats();
        assert_eq!((stats.model_cache_misses, stats.model_cache_hits), (2, 1));
        assert_eq!(stats.evictions, 1, "capacity 2 evicted the LRU session");
        // …and resubmitting the evicted session recompiles nothing:
        // eviction drops the session, not the cached model.
        let again = store.submit(&make(1)).unwrap();
        assert!(!again.warm);
        assert_eq!(again.session, a);
        let stats = store.stats();
        assert_eq!((stats.model_cache_misses, stats.model_cache_hits), (2, 2));
    }

    #[test]
    fn stats_response_reports_model_cache_counters_on_the_wire() {
        let mut store = store();
        store.submit(&spec()).unwrap();
        let mut other = spec();
        other.base_seed = 99;
        store.submit(&other).unwrap();
        let reply = store.handle(&Request::Stats);
        let Response::Stats(stats) = reply else {
            panic!("Stats request must produce a Stats response, got {reply:?}");
        };
        assert_eq!((stats.model_cache_misses, stats.model_cache_hits), (1, 1));
        let json = serde_json::to_string(&Response::Stats(stats.clone())).unwrap();
        assert!(json.contains("\"model_cache_hits\":1"), "{json}");
        assert!(json.contains("\"model_cache_misses\":1"), "{json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Response::Stats(stats));
    }

    #[test]
    fn lru_bound_evicts_the_least_recently_touched() {
        let mut store = SessionStore::new(2, ExtendBackend::InProcess).unwrap();
        let make = |seed: u64| {
            SessionSpec::new(
                ModelSource::Catalog("book_not".into()),
                EngineSpec::Direct,
                seed,
                10.0,
                5.0,
            )
            .with_amount("LacI", 15.0)
        };
        let a = store.submit(&make(1)).unwrap().session;
        let b = store.submit(&make(2)).unwrap().session;
        // Touch A so B is the LRU victim.
        store.extend(&a, 1).unwrap();
        let c = store.submit(&make(3)).unwrap().session;
        assert_eq!(store.stats().sessions, 2);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.partial(&a).is_some(), "recently-touched A survives");
        assert!(store.partial(&b).is_none(), "LRU session B evicted");
        assert!(store.partial(&c).is_some());
        // Extending the evicted session is a clean error…
        assert!(matches!(store.extend(&b, 1), Err(ServiceError::Order(_))));
        // …and resubmitting starts it cold.
        let again = store.submit(&make(2)).unwrap();
        assert!(!again.warm);
        assert_eq!(again.replicates, 0);
    }

    #[test]
    fn bad_requests_are_clean_errors() {
        let mut store = store();
        assert!(SessionStore::new(0, ExtendBackend::InProcess).is_err());
        let bad = SessionSpec::new(
            ModelSource::Catalog("no_such".into()),
            EngineSpec::Direct,
            0,
            10.0,
            1.0,
        );
        assert!(matches!(store.submit(&bad), Err(ServiceError::Order(_))));
        let bad_engine = SessionSpec::new(
            ModelSource::Catalog("book_not".into()),
            EngineSpec::TauLeap(-1.0),
            0,
            10.0,
            1.0,
        );
        assert!(matches!(
            store.submit(&bad_engine),
            Err(ServiceError::Order(_))
        ));
        assert!(matches!(
            store.extend("sess-missing", 1),
            Err(ServiceError::Order(_))
        ));
        assert!(matches!(
            store.query("sess-missing", &[]),
            Err(ServiceError::Order(_))
        ));
        let session = store.submit(&spec()).unwrap().session;
        assert!(matches!(
            store.extend(&session, 0),
            Err(ServiceError::Order(_))
        ));
        // Querying before any extend: zero replicates cannot finalize.
        assert!(store.query(&session, &[]).is_err());
        // Unknown species in the filter.
        store.extend(&session, 1).unwrap();
        assert!(matches!(
            store.query(&session, &["Ghost".into()]),
            Err(ServiceError::Order(_))
        ));
    }

    #[test]
    fn requests_and_responses_round_trip_through_json() {
        let requests = [
            Request::Submit(spec()),
            Request::Extend(ExtendRequest {
                session: "sess-00ff".into(),
                replicates: 64,
            }),
            Request::Query(QueryRequest {
                session: "sess-00ff".into(),
                species: vec!["GFP".into()],
            }),
            Request::Stats,
        ];
        for request in &requests {
            let json = serde_json::to_string(request).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, request);
        }
        let mut store = store();
        let session = store.submit(&spec()).unwrap().session;
        store.extend(&session, 2).unwrap();
        let reply = store.handle(&Request::Query(QueryRequest {
            session,
            species: vec![],
        }));
        assert!(matches!(reply, Response::Queried(_)));
        // NaN figures (Fano/CV at zero mean) make PartialEq useless
        // here; canonical-JSON equality is the round-trip contract the
        // wire actually needs.
        let json = serde_json::to_string(&reply).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn idless_envelopes_are_byte_identical_to_the_bare_wire_format() {
        // The id is strictly additive: old clients and new servers (and
        // vice versa) interoperate on exactly yesterday's bytes.
        let requests = [
            Request::Submit(spec()),
            Request::Extend(ExtendRequest {
                session: "sess-00ff".into(),
                replicates: 3,
            }),
            Request::Stats,
        ];
        for request in requests {
            let bare = serde_json::to_string(&request).unwrap();
            let envelope = serde_json::to_string(&Envelope::bare(request.clone())).unwrap();
            assert_eq!(envelope, bare, "id-less envelope must not change a byte");
            let back: Envelope<Request> = serde_json::from_str(&bare).unwrap();
            assert_eq!(back.id, None);
            assert_eq!(back.body, request);
        }
    }

    #[test]
    fn envelope_ids_round_trip_every_request_shape() {
        let ids = [
            Value::Num(7.0),
            Value::Str("req-42".into()),
            Value::Array(vec![Value::Num(1.0), Value::Bool(true)]),
            Value::Null,
        ];
        let requests = [
            Request::Submit(spec()),
            Request::Query(QueryRequest {
                session: "sess-00ff".into(),
                species: vec![],
            }),
            Request::Stats, // Unit variant: the `{"id":…,"Stats":null}` spelling.
        ];
        for id in &ids {
            for request in &requests {
                let envelope = Envelope::with_id(id.clone(), request.clone());
                let json = serde_json::to_string(&envelope).unwrap();
                assert!(json.starts_with("{\"id\":"), "{json}");
                let back: Envelope<Request> = serde_json::from_str(&json).unwrap();
                assert_eq!(back.id.as_ref(), Some(id), "{json}");
                assert_eq!(&back.body, request, "{json}");
            }
        }
    }

    #[test]
    fn handle_json_line_echoes_the_id() {
        let mut store = store();
        // A Stats request with an id: the reply carries the same id.
        let reply = store.handle_json_line("{\"id\":41,\"Stats\":null}");
        let decoded: Envelope<Response> = serde_json::from_str(&reply).unwrap();
        assert_eq!(decoded.id, Some(Value::Num(41.0)));
        assert!(matches!(decoded.body, Response::Stats(_)));
        // Without an id the reply is the bare historical format.
        let reply = store.handle_json_line("\"Stats\"");
        assert!(reply.starts_with("{\"Stats\":"), "{reply}");
        // Submit with a string id; the echoed id survives alongside a
        // data-carrying response variant.
        let line = serde_json::to_string(&Envelope::with_id(
            Value::Str("alpha".into()),
            Request::Submit(spec()),
        ))
        .unwrap();
        let raw = store.handle_json_line(&line);
        // String ids are the byte-exact correlation tokens the docs
        // steer clients toward (numbers normalize to float spelling).
        assert!(raw.starts_with("{\"id\":\"alpha\","), "{raw}");
        let decoded: Envelope<Response> = serde_json::from_str(&raw).unwrap();
        assert_eq!(decoded.id, Some(Value::Str("alpha".into())));
        assert!(matches!(decoded.body, Response::Submitted(_)));
        // Garbage stays a served (id-less) error, never a crash.
        let decoded: Envelope<Response> =
            serde_json::from_str(&store.handle_json_line("not json")).unwrap();
        assert_eq!(decoded.id, None);
        assert!(matches!(decoded.body, Response::Error(_)));
    }

    #[test]
    fn fingerprints_separate_distinct_specs() {
        let base = spec();
        let mut other = spec();
        other.base_seed = 8;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut engine = spec();
        engine.engine = EngineSpec::Langevin(0.1);
        assert_ne!(base.fingerprint(), engine.fingerprint());
        assert_eq!(base.fingerprint(), spec().fingerprint());
    }
}
