//! The worker fabric: *where* a chunk runs, and the health-aware
//! scheduler that decides *which* slot runs it.
//!
//! * [`Transport`] — how a pool slot reaches its executor. Its one
//!   working method, [`Transport::open_channel`], opens a persistent
//!   [`ChunkChannel`] that pipelines chunk orders as GLCF frames
//!   carrying GLCB payloads (see [`crate::frame`] and
//!   [`crate::codec`]). Two implementations ship:
//!   - [`PipelinedWorker`] — one resident `glc-worker` child per slot,
//!     spawned once and fed over its pipes;
//!   - [`PipelinedRelay`] — one framed TCP connection per slot to a
//!     `glc-relay`, which may live on another host, runs concurrent
//!     frames on its own threads, and reduces chunk partials before
//!     shipping them upstream.
//! * [`WorkerPool`] — a scheduler over one transport per **slot**. It
//!   cuts an order into chunks, homes them to per-slot queues by each
//!   slot's observed replicate throughput (unknown slots get the mean
//!   weight), lets a slot whose queue ran dry steal from the others,
//!   re-drives a failed chunk on the other slots, and **quarantines** a
//!   slot after `quarantine_after` consecutive failures — quarantined
//!   slots get no chunks and serve no retries until every slot is
//!   quarantined, at which point the pool lifts the quarantine
//!   (probation) rather than deadlock. Health persists across
//!   [`WorkerPool::run`] calls, so a resident `glc-serve` accumulates
//!   it over the service's lifetime.
//!
//! # Determinism
//!
//! None of this moves a single bit: replicate seeds are absolute and
//! partial accumulation is exact, so chunk sizing, stealing, retries,
//! transport choice and quarantine decisions affect *latency only*.
//! The transport-equivalence tests pin `PipelinedRelay` ≡
//! `PipelinedWorker` ≡ the in-process backend ≡ unsharded, bitwise, and
//! a pool with an always-failing slot still completes with the correct
//! bits while reporting the quarantine in [`RunReport`].

use crate::codec::{self, BinaryReply};
use crate::metrics::MetricsRegistry;
use crate::{frame, metrics, RunReport, ServiceError, WorkOrder};
use glc_ssa::EnsemblePartial;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How a pool slot reaches the executor of its chunks.
///
/// A transport is cheap to construct and holds no connection itself:
/// the pool opens one [`ChunkChannel`] per slot on first use, caches it
/// across runs, and reopens it after a connection failure.
pub trait Transport: Send {
    /// A human-readable description of this transport, for reports,
    /// logs and durable slot health (e.g. `pipelined-worker
    /// target/release/glc-worker`).
    fn describe(&self) -> String;

    /// Opens a persistent [`ChunkChannel`] to this transport's
    /// executor.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Worker`] when the connection cannot be
    /// established (spawn failure, unreachable peer, failed frame
    /// handshake).
    fn open_channel(&self) -> Result<Box<dyn ChunkChannel>, ServiceError>;
}

/// A persistent connection that pipelines chunk orders: many orders
/// may be in flight at once, correlated by the id each reply echoes.
///
/// Error semantics are two-level. The *outer* `Err` of
/// [`ChunkChannel::submit`]/[`ChunkChannel::recv`] means the
/// connection itself is broken — every in-flight order is lost and the
/// channel must be dropped. A [`BinaryReply::Error`] from `recv` means
/// that one chunk failed while the connection stays serviceable.
///
/// Plain workers only ever reply `Partial` or `Error`; a relay granted
/// reduction interleaves `Deferred` receipts with `Reduced` merged
/// partials (see [`BinaryReply`] for the forms).
pub trait ChunkChannel: Send {
    /// How many orders are profitably in flight at once (>= 1).
    fn window(&self) -> usize {
        1
    }

    /// Sends one chunk order tagged with the correlation id `id`.
    fn submit(&mut self, id: u64, order: &WorkOrder) -> Result<(), ServiceError>;

    /// Receives the next correlated reply, in whatever order the peer
    /// finished them. Partials are structurally validated before they
    /// are returned.
    fn recv(&mut self) -> Result<(u64, BinaryReply), ServiceError>;
}

/// How long connection setup waits for the peer's hello frame before
/// failing closed. Without the handshake, a peer that consumes bytes
/// but never frames — a wedged script, a service that is not a relay —
/// would block the slot forever instead of failing it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Orders a resident worker keeps in flight: one executing, one queued
/// behind it so the worker never idles waiting for the next frame.
const WORKER_PIPELINE_WINDOW: usize = 2;

/// Orders an open relay socket keeps in flight: the relay executes
/// frames concurrently, so a deeper window keeps its cores fed.
const RELAY_PIPELINE_WINDOW: usize = 4;

/// Runs chunks on one **resident** `glc-worker` child per pool slot:
/// spawned once, kept alive on its pipes, orders pipelined as frames
/// with replies correlated by id. The model compiles once per process
/// and every later chunk of the same circuit reuses it.
#[derive(Debug, Clone)]
pub struct PipelinedWorker {
    worker: PathBuf,
}

impl PipelinedWorker {
    /// A transport keeping one resident child of the worker binary at
    /// `worker`.
    pub fn new(worker: impl Into<PathBuf>) -> Self {
        PipelinedWorker {
            worker: worker.into(),
        }
    }
}

impl Transport for PipelinedWorker {
    fn describe(&self) -> String {
        format!("pipelined-worker {}", self.worker.display())
    }

    fn open_channel(&self) -> Result<Box<dyn ChunkChannel>, ServiceError> {
        Ok(Box::new(FramedChildChannel::open(&self.worker)?))
    }
}

/// Runs chunks over one **persistent framed socket** per pool slot to
/// a `glc-relay`: connect once, handshake, then pipeline orders as
/// frames. The relay executes concurrent frames on its own threads and
/// replies as they finish (out of order; the id correlates).
#[derive(Debug, Clone)]
pub struct PipelinedRelay {
    addr: String,
}

impl PipelinedRelay {
    /// A transport keeping one framed connection to the relay at
    /// `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        PipelinedRelay { addr: addr.into() }
    }
}

impl Transport for PipelinedRelay {
    fn describe(&self) -> String {
        format!("pipelined-relay {}", self.addr)
    }

    fn open_channel(&self) -> Result<Box<dyn ChunkChannel>, ServiceError> {
        Ok(Box::new(FramedRelayChannel::open(&self.addr)?))
    }
}

/// Decodes one framed reply payload. GLCB decoding validates embedded
/// partials, so an invalid partial — like an undecodable or
/// uncorrelatable payload — is an outer error that poisons the
/// connection; in-band `Error` replies stay chunk-level.
fn decode_chunk_reply(payload: &[u8]) -> Result<(u64, BinaryReply), ServiceError> {
    metrics::count_frame_rx(payload.len());
    codec::decode_reply(payload)
}

/// Writes one chunk order as a GLCB frame and counts its bytes.
fn send_chunk_order<W: std::io::Write>(
    writer: &mut W,
    id: u64,
    order: &WorkOrder,
) -> Result<(), ServiceError> {
    let payload = codec::encode_order(id, order);
    metrics::count_frame_tx(payload.len());
    frame::write_frame(writer, &payload)
}

/// The resident-worker connection: frames down the child's stdin,
/// reply frames read off its stdout by a dedicated reader thread (the
/// thread is what gives connection setup a handshake *timeout* — pipes
/// have no native read timeout).
struct FramedChildChannel {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: mpsc::Receiver<Result<Vec<u8>, ServiceError>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl FramedChildChannel {
    fn open(worker: &PathBuf) -> Result<Self, ServiceError> {
        let mut child = Command::new(worker)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // Errors travel in-band as Error replies; an unread stderr
            // pipe could wedge a chatty worker.
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ServiceError::Worker(format!("cannot spawn {}: {e}", worker.display())))?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                match frame::read_frame(&mut stdout) {
                    Ok(Some(payload)) => {
                        if tx.send(Ok(payload)).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(err) => {
                        let _ = tx.send(Err(err));
                        break;
                    }
                }
            }
        });
        let channel = FramedChildChannel {
            child,
            stdin: Some(stdin),
            replies,
            reader: Some(reader),
        };
        let hello = match channel.replies.recv_timeout(HANDSHAKE_TIMEOUT) {
            Ok(Ok(payload)) => codec::decode_hello(&payload).map_err(|err| err.to_string()),
            Ok(Err(err)) => Err(err.to_string()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(format!("no hello frame within {HANDSHAKE_TIMEOUT:?}"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err("the worker exited before its hello".to_string())
            }
        };
        if let Err(detail) = hello {
            return Err(ServiceError::Worker(format!(
                "worker {} did not complete the frame handshake: {detail}",
                worker.display()
            )));
        }
        Ok(channel)
    }
}

impl ChunkChannel for FramedChildChannel {
    fn window(&self) -> usize {
        WORKER_PIPELINE_WINDOW
    }

    fn submit(&mut self, id: u64, order: &WorkOrder) -> Result<(), ServiceError> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| ServiceError::Worker("worker connection already closed".into()))?;
        send_chunk_order(stdin, id, order)
    }

    fn recv(&mut self) -> Result<(u64, BinaryReply), ServiceError> {
        match self.replies.recv() {
            Ok(Ok(payload)) => decode_chunk_reply(&payload),
            Ok(Err(err)) => Err(err),
            Err(_) => Err(ServiceError::Worker(
                "resident worker closed its connection".into(),
            )),
        }
    }
}

impl Drop for FramedChildChannel {
    fn drop(&mut self) {
        drop(self.stdin.take()); // EOF: a healthy worker exits cleanly.
        let _ = self.child.kill(); // A wedged one does not get to linger.
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The persistent framed relay connection. The client speaks first: it
/// sends a hello asking for reduction, then reads the relay's hello
/// under a read timeout before any order is pipelined.
struct FramedRelayChannel {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl FramedRelayChannel {
    fn open(addr: &str) -> Result<Self, ServiceError> {
        let handshake_failed = |detail: String| {
            ServiceError::Worker(format!(
                "relay {addr} did not complete the frame handshake: {detail}"
            ))
        };
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServiceError::Worker(format!("cannot connect to relay {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(|e| ServiceError::Worker(format!("relay {addr}: set timeout: {e}")))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| ServiceError::Worker(format!("relay {addr}: cannot clone stream: {e}")))?;
        frame::write_frame(&mut writer, &codec::encode_hello(true))?;
        let mut reader = BufReader::new(stream);
        match frame::read_frame(&mut reader) {
            Ok(Some(payload)) => {
                codec::decode_hello(&payload).map_err(|err| handshake_failed(err.to_string()))?;
            }
            Ok(None) => return Err(handshake_failed("connection closed".into())),
            Err(err) => return Err(handshake_failed(err.to_string())),
        }
        reader
            .get_ref()
            .set_read_timeout(None)
            .map_err(|e| ServiceError::Worker(format!("relay {addr}: clear timeout: {e}")))?;
        Ok(FramedRelayChannel {
            addr: addr.to_string(),
            reader,
            writer,
        })
    }
}

impl ChunkChannel for FramedRelayChannel {
    fn window(&self) -> usize {
        RELAY_PIPELINE_WINDOW
    }

    fn submit(&mut self, id: u64, order: &WorkOrder) -> Result<(), ServiceError> {
        send_chunk_order(&mut self.writer, id, order)
            .map_err(|e| ServiceError::Worker(format!("relay {}: {e}", self.addr)))
    }

    fn recv(&mut self) -> Result<(u64, BinaryReply), ServiceError> {
        match frame::read_frame(&mut self.reader) {
            Ok(Some(payload)) => decode_chunk_reply(&payload),
            Ok(None) => Err(ServiceError::Worker(format!(
                "relay {} closed the framed connection",
                self.addr
            ))),
            Err(err) => Err(err),
        }
    }
}

/// Health accounting of one worker-pool slot, accumulated across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SlotHealth {
    /// Shards this slot completed successfully.
    pub successes: u64,
    /// Shard attempts that failed on this slot (first attempts and
    /// retries both count against the slot they ran on).
    pub failures: u64,
    /// Failures since the last success — the quarantine trigger.
    pub consecutive_failures: u64,
    /// Replicates this slot contributed to merged aggregates.
    pub replicates: u64,
    /// Shards this slot served as the *successful retry* of another
    /// slot's failure — a lifetime total, never reset by a run (unlike
    /// [`RunReport::retried_shards`], which is per-run).
    pub retries: u64,
    /// Wall-clock seconds this slot spent on successful shards
    /// (spawn-to-join; the denominator of the throughput estimate).
    pub busy_secs: f64,
    /// Whether the slot is currently quarantined (no shards, no
    /// retries) by the pool's health policy.
    pub quarantined: bool,
}

impl SlotHealth {
    /// Observed replicate throughput (replicates per second), once the
    /// slot has completed at least one shard.
    pub fn observed_throughput(&self) -> Option<f64> {
        (self.replicates > 0 && self.busy_secs > 0.0)
            .then(|| self.replicates as f64 / self.busy_secs)
    }
}

/// The durable form of a [`WorkerPool`]'s health: what
/// `<spill-dir>/pool_health.json` holds so a restarted `glc-serve`
/// does not forget a quarantined host or its lifetime retry totals.
///
/// Slots are recorded by transport *description* rather than index, so
/// a restart that reorders the `--relay`/`--worker-slot` flags (or
/// drops a slot) still restores health to the slots that mean the same
/// thing; see [`WorkerPool::restore_health`] for the matching rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PoolHealthSnapshot {
    /// Lifetime count of shards that failed and succeeded on a retry.
    pub retried_shards: u64,
    /// Every slot's health, labeled by its transport description.
    pub slots: Vec<SlotHealthRecord>,
}

/// One slot's entry in a [`PoolHealthSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotHealthRecord {
    /// The slot's [`Transport::describe`] string at snapshot time.
    pub transport: String,
    /// The slot's health at snapshot time.
    pub health: SlotHealth,
}

/// Default consecutive-failure count that quarantines a slot.
const DEFAULT_QUARANTINE_AFTER: u64 = 3;

/// Throughput weights are clamped to within this factor of the pool
/// mean, so one noisy measurement cannot starve (or flood) a slot.
const WEIGHT_CLAMP: f64 = 8.0;

struct PoolSlot {
    transport: Box<dyn Transport>,
    health: SlotHealth,
    /// The slot's persistent connection, opened lazily on first use
    /// and kept across [`WorkerPool::run`] calls (connection reuse is
    /// most of what the resident transports buy). Dropped on any
    /// connection-level failure; reopened on the next use.
    channel: Option<Box<dyn ChunkChannel>>,
}

/// A health-aware scheduler over one [`Transport`] per slot.
///
/// Chunks are homed by each slot's observed throughput, a failed chunk
/// is retried on the other (non-quarantined) slots, and slots that
/// fail `quarantine_after` times in a row are quarantined until the
/// pool would otherwise be empty. Health persists across
/// [`WorkerPool::run`] calls; none of it affects the merged bits (see
/// the module docs).
pub struct WorkerPool {
    slots: Vec<PoolSlot>,
    quarantine_after: u64,
    /// Lifetime total of shards retried successfully — accumulated
    /// across [`WorkerPool::run`] calls, where [`RunReport`] resets
    /// per run (the fix this field exists for).
    lifetime_retried_shards: u64,
    /// Lifetime total of chunks a slot stole from another slot's
    /// queue (in-memory only; steals are a load-balancing observation,
    /// not durable health).
    lifetime_steals: u64,
    /// Shard-latency sink, when a registry is attached: each slot's
    /// successful spawn-to-join time lands in its histogram.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl WorkerPool {
    /// A pool with one slot per transport.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for an empty transport list.
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Result<Self, ServiceError> {
        if transports.is_empty() {
            return Err(ServiceError::Order(
                "worker pool needs at least one transport".into(),
            ));
        }
        Ok(WorkerPool {
            slots: transports
                .into_iter()
                .map(|transport| PoolSlot {
                    transport,
                    health: SlotHealth::default(),
                    channel: None,
                })
                .collect(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            lifetime_retried_shards: 0,
            lifetime_steals: 0,
            metrics: None,
        })
    }

    /// Sets the consecutive-failure count that quarantines a slot
    /// (default 3).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for zero (a slot must be allowed at
    /// least one failure).
    pub fn with_quarantine_after(mut self, failures: u64) -> Result<Self, ServiceError> {
        if failures == 0 {
            return Err(ServiceError::Order("quarantine_after must be >= 1".into()));
        }
        self.quarantine_after = failures;
        Ok(self)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// A snapshot of every slot's health.
    pub fn health(&self) -> Vec<SlotHealth> {
        self.slots.iter().map(|slot| slot.health.clone()).collect()
    }

    /// Every slot's transport description, in slot order.
    pub fn describe_slots(&self) -> Vec<String> {
        self.slots
            .iter()
            .map(|slot| slot.transport.describe())
            .collect()
    }

    /// Lifetime total of shards that failed and succeeded on a retry,
    /// accumulated across every [`WorkerPool::run`] of this pool
    /// (contrast [`RunReport::retried_shards`], which resets per run).
    pub fn lifetime_retried_shards(&self) -> u64 {
        self.lifetime_retried_shards
    }

    /// Lifetime total of chunks served by a slot other than the one
    /// whose queue they were seeded to (work stealing), accumulated
    /// across every [`WorkerPool::run`] of this pool.
    pub fn lifetime_steals(&self) -> u64 {
        self.lifetime_steals
    }

    /// The pool's durable health: every slot's accounting plus the
    /// lifetime retry total, in the `pool_health.json` shape.
    pub fn health_snapshot(&self) -> PoolHealthSnapshot {
        PoolHealthSnapshot {
            retried_shards: self.lifetime_retried_shards,
            slots: self
                .slots
                .iter()
                .map(|slot| SlotHealthRecord {
                    transport: slot.transport.describe(),
                    health: slot.health.clone(),
                })
                .collect(),
        }
    }

    /// Restores slot health from a persisted snapshot: each slot takes
    /// the first not-yet-consumed record with its transport
    /// description (so two `--workers` slots of the same binary each
    /// get one record, and a record for a transport no longer in the
    /// pool is dropped). Slots without a matching record keep their
    /// fresh health.
    pub fn restore_health(&mut self, snapshot: &PoolHealthSnapshot) {
        let mut consumed = vec![false; snapshot.slots.len()];
        for slot in &mut self.slots {
            let description = slot.transport.describe();
            let matched = snapshot
                .slots
                .iter()
                .enumerate()
                .position(|(i, record)| !consumed[i] && record.transport == description);
            if let Some(i) = matched {
                consumed[i] = true;
                slot.health = snapshot.slots[i].health.clone();
            }
        }
        self.lifetime_retried_shards = snapshot.retried_shards;
    }

    /// Attaches a metrics registry: installs one shard-latency
    /// histogram per slot (labeled by transport description) and
    /// records every successful shard's spawn-to-join time from here
    /// on. Recording is observation-only — it cannot move a bit of any
    /// merged partial.
    pub fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        registry.install_slots(self.describe_slots());
        self.metrics = Some(registry);
    }

    /// Executes `order` across the pool and merges the chunk partials.
    ///
    /// The seed range is cut into chunks (see [`chunk_plan`]), seeded
    /// to per-slot queues proportional to observed throughput, and
    /// drained by one driver per slot — each keeps a window of orders
    /// in flight on its slot's persistent connection, and a slot whose
    /// own queue runs dry **steals** from the back of the longest
    /// remaining queue, so stragglers and mid-run failures stop gating
    /// the run. Completed chunks stream-merge through a chunk-index
    /// reorder buffer, so the merged partial is bitwise independent of
    /// scheduling, stealing, transport and retry choices. Chunks that
    /// failed in the parallel phase are retried sequentially afterwards
    /// on the other slots, through the same driver.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Order`] for an empty order; otherwise the error
    /// of the lowest-replicate chunk whose attempts were exhausted.
    pub fn run(&mut self, order: &WorkOrder) -> Result<(EnsemblePartial, RunReport), ServiceError> {
        if order.replicates == 0 {
            return Err(ServiceError::Order("replicates must be >= 1".into()));
        }
        let mut active: Vec<usize> = (0..self.slots.len())
            .filter(|&i| !self.slots[i].health.quarantined)
            .collect();
        if active.is_empty() {
            // Every slot is quarantined: lift the quarantine rather
            // than deadlock — the pool would otherwise never serve
            // again (probation: a failure re-quarantines immediately).
            for slot in &mut self.slots {
                slot.health.quarantined = false;
                slot.health.consecutive_failures = 0;
            }
            active = (0..self.slots.len()).collect();
        }
        let throughputs: Vec<Option<f64>> = active
            .iter()
            .map(|&i| self.slots[i].health.observed_throughput())
            .collect();
        let plan = chunk_plan(order.replicates, &throughputs);

        // Cut the order into chunk orders (absolute seeds: chunk
        // boundaries cannot move a bit) and seed the per-slot queues.
        let mut chunks: Vec<WorkOrder> = Vec::with_capacity(plan.len());
        let mut seeded: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.slots.len()];
        let mut first = order.first_replicate;
        for (index, &(size, home)) in plan.iter().enumerate() {
            let mut chunk = order.clone();
            chunk.first_replicate = first;
            chunk.replicates = size;
            first = first.wrapping_add(size);
            seeded[active[home]].push_back(index);
            chunks.push(chunk);
        }
        let queue = ChunkQueue::new(seeded);

        let mut report = RunReport::new(self.slots.len());
        report.chunks = chunks.len() as u64;
        let metrics = self.metrics.clone();
        if let Some(metrics) = &metrics {
            metrics.set_pool_queue_depth(queue.depth() as u64);
        }

        // Parallel phase: one driver thread per active slot, all
        // pulling from the shared queue. Drivers own their slot's
        // transport + cached channel; health and the merge stay on
        // this thread, fed by events (per-slot event order is the
        // slot's execution order, so consecutive-failure accounting
        // matches the sequential scheduler's).
        let is_active = {
            let mut mask = vec![false; self.slots.len()];
            for &i in &active {
                mask[i] = true;
            }
            mask
        };
        let (tx, rx) = mpsc::channel::<Event>();
        let mut merged: Option<EnsemblePartial> = None;
        // `None` marks a chunk whose bits arrived inside another
        // chunk's reduced partial — the in-order merge skips it.
        let mut buffer: BTreeMap<usize, Option<EnsemblePartial>> = BTreeMap::new();
        let mut next_merge = 0usize;
        let mut merge_error: Option<ServiceError> = None;
        // (chunk index, error of the failed attempt, slot it failed on)
        let mut pending: Vec<(usize, ServiceError, usize)> = Vec::new();
        let mut slot_events: Vec<Vec<HealthEvent>> =
            (0..self.slots.len()).map(|_| Vec::new()).collect();
        let mut busy_secs: Vec<f64> = vec![0.0; self.slots.len()];
        let mut last_channel_error: Option<String> = None;

        std::thread::scope(|scope| {
            for (index, slot) in self.slots.iter_mut().enumerate() {
                if !is_active[index] {
                    continue;
                }
                let tx = tx.clone();
                let queue = &queue;
                let chunks = &chunks;
                let metrics = metrics.as_deref();
                scope.spawn(move || drive_slot(index, slot, queue, chunks, &tx, metrics));
            }
            drop(tx);
            while let Ok(event) = rx.recv() {
                match event {
                    Event::Done {
                        slot,
                        chunk,
                        elapsed_secs,
                        stolen,
                        partial,
                    } => {
                        let replicates = chunks[chunk].replicates;
                        slot_events[slot].push(HealthEvent::Success { replicates });
                        report.slot_replicates[slot] += replicates;
                        if stolen {
                            report.steals += 1;
                            if let Some(metrics) = &metrics {
                                metrics.inc_pool_steals();
                            }
                        }
                        if let Some(metrics) = &metrics {
                            metrics.observe_shard(slot, Duration::from_secs_f64(elapsed_secs));
                        }
                        buffer.insert(chunk, Some(partial));
                        drain_merges(&mut buffer, &mut next_merge, &mut merged, &mut merge_error);
                    }
                    Event::Reduced {
                        slot,
                        chunks: covered,
                        elapsed_secs,
                        stolen,
                        partial,
                    } => {
                        for &chunk in &covered {
                            let replicates = chunks[chunk].replicates;
                            slot_events[slot].push(HealthEvent::Success { replicates });
                            report.slot_replicates[slot] += replicates;
                        }
                        report.steals += stolen;
                        if let Some(metrics) = &metrics {
                            for _ in 0..stolen {
                                metrics.inc_pool_steals();
                            }
                            metrics.observe_shard(slot, Duration::from_secs_f64(elapsed_secs));
                        }
                        let mut covered = covered;
                        covered.sort_unstable();
                        let mut covered = covered.into_iter();
                        if let Some(lowest) = covered.next() {
                            buffer.insert(lowest, Some(partial));
                            for chunk in covered {
                                buffer.insert(chunk, None);
                            }
                        }
                        drain_merges(&mut buffer, &mut next_merge, &mut merged, &mut merge_error);
                    }
                    Event::ChunkFailed { slot, chunk, error } => {
                        slot_events[slot].push(HealthEvent::Failure);
                        report.worker_failures[slot] += 1;
                        pending.push((chunk, error, slot));
                    }
                    Event::ChunkLost { slot, chunk, error } => {
                        pending.push((chunk, error, slot));
                    }
                    Event::ChannelFailed { slot, error } => {
                        slot_events[slot].push(HealthEvent::Failure);
                        report.worker_failures[slot] += 1;
                        last_channel_error = Some(error.to_string());
                    }
                    Event::Drained { slot, busy } => {
                        busy_secs[slot] += busy;
                    }
                }
            }
        });

        // Apply the buffered health deltas in each slot's own event
        // order (mpsc preserves per-sender order).
        for (index, events) in slot_events.iter().enumerate() {
            for event in events {
                let health = &mut self.slots[index].health;
                match event {
                    HealthEvent::Success { replicates } => {
                        health.successes += 1;
                        health.consecutive_failures = 0;
                        health.replicates += replicates;
                    }
                    HealthEvent::Failure => {
                        health.failures += 1;
                        health.consecutive_failures += 1;
                        if health.consecutive_failures >= self.quarantine_after {
                            health.quarantined = true;
                        }
                    }
                }
            }
            self.slots[index].health.busy_secs += busy_secs[index];
        }
        if let Some(metrics) = &metrics {
            metrics.set_pool_queue_depth(0);
        }
        self.lifetime_steals += report.steals;

        // Chunks nobody attempted (every slot failed before reaching
        // them) join the retry pass with the last connection error as
        // their cause.
        for (chunk, home) in queue.drain_remaining() {
            let cause = last_channel_error
                .clone()
                .unwrap_or_else(|| "every slot stopped before this chunk ran".to_string());
            pending.push((chunk, ServiceError::Worker(cause), home));
        }

        if merge_error.is_none() {
            // Sequential retry pass, lowest replicate range first,
            // under the rotation, quarantine and accounting rules of
            // `retry`.
            pending.sort_by_key(|&(chunk, ..)| chunk);
            let mut terminal: Option<ServiceError> = None;
            for (chunk, error, failed_slot) in pending {
                if terminal.is_some() {
                    break; // Deterministic error: the lowest failing chunk wins.
                }
                match self.retry(failed_slot, &chunks[chunk], error, &mut report) {
                    Ok(partial) => {
                        buffer.insert(chunk, Some(partial));
                    }
                    Err(err) => terminal = Some(err),
                }
            }
            merge_error = terminal;
        }

        report.quarantined_slots = (0..self.slots.len())
            .filter(|&i| self.slots[i].health.quarantined)
            .collect();
        if let Some(failure) = merge_error {
            return Err(failure);
        }
        // Finish the in-order stream merge with the retried chunks.
        while let Some(ready) = buffer.remove(&next_merge) {
            next_merge += 1;
            let Some(ready) = ready else { continue };
            match &mut merged {
                None => merged = Some(ready),
                Some(total) => total.merge(&ready).map_err(ServiceError::from)?,
            }
        }
        if next_merge < chunks.len() {
            return Err(ServiceError::Worker(format!(
                "chunk {next_merge} of {} was never completed",
                chunks.len()
            )));
        }
        let merged =
            merged.ok_or_else(|| ServiceError::Worker("no chunk produced a partial".into()))?;
        Ok((merged, report))
    }

    /// Re-drives a failed chunk on the other slots, in rotation order
    /// after the failed one. Non-quarantined slots are preferred; when
    /// every other slot is quarantined (or this is a one-slot pool)
    /// the rotation falls back to all slots so the chunk still gets
    /// its retry. Re-running a seed range is idempotent — replicate
    /// seeds are absolute and partials exact — so a successful retry
    /// contributes exactly the bits the failed attempt would have.
    fn retry(
        &mut self,
        failed: usize,
        chunk: &WorkOrder,
        first_err: ServiceError,
        report: &mut RunReport,
    ) -> Result<EnsemblePartial, ServiceError> {
        let n = self.slots.len();
        let rotation: Vec<usize> = (1..n).map(|step| (failed + step) % n).collect();
        let mut candidates: Vec<usize> = rotation
            .iter()
            .copied()
            .filter(|&i| !self.slots[i].health.quarantined)
            .collect();
        if candidates.is_empty() {
            candidates = if rotation.is_empty() {
                vec![failed] // One-slot pool: retry once on the same slot.
            } else {
                rotation
            };
        }
        let mut last_err = first_err;
        for slot in candidates {
            match self.drive_one(slot, chunk) {
                Ok((partial, elapsed_secs)) => {
                    report.retried_shards += 1;
                    self.lifetime_retried_shards += 1;
                    self.slots[slot].health.retries += 1;
                    self.record_success(slot, chunk, elapsed_secs, report);
                    return Ok(partial);
                }
                Err(retry_err) => {
                    self.record_failure(slot, report);
                    // Prefer the later error: it is the one that
                    // exhausted the chunk's attempts (for deterministic
                    // failures the messages agree anyway).
                    last_err = retry_err;
                }
            }
        }
        Err(last_err)
    }

    /// Runs one chunk on `slot` through [`drive_slot`], the driver of
    /// the parallel phase: a one-chunk queue homed on the slot, over
    /// its cached connection or a freshly opened one. Returns the
    /// partial and its round-trip seconds.
    fn drive_one(
        &mut self,
        slot: usize,
        chunk: &WorkOrder,
    ) -> Result<(EnsemblePartial, f64), ServiceError> {
        let mut seeded = vec![VecDeque::new(); self.slots.len()];
        seeded[slot].push_back(0);
        let queue = ChunkQueue::new(seeded);
        let (tx, rx) = mpsc::channel();
        let metrics = self.metrics.clone();
        drive_slot(
            slot,
            &mut self.slots[slot],
            &queue,
            std::slice::from_ref(chunk),
            &tx,
            metrics.as_deref(),
        );
        drop(tx);
        let mut outcome = Err(ServiceError::Worker(
            "the retried chunk produced no reply".into(),
        ));
        for event in rx {
            match event {
                Event::Done {
                    partial,
                    elapsed_secs,
                    ..
                }
                | Event::Reduced {
                    partial,
                    elapsed_secs,
                    ..
                } => outcome = Ok((partial, elapsed_secs)),
                Event::ChunkFailed { error, .. }
                | Event::ChunkLost { error, .. }
                | Event::ChannelFailed { error, .. } => outcome = Err(error),
                Event::Drained { .. } => {}
            }
        }
        outcome
    }

    fn record_success(
        &mut self,
        slot: usize,
        chunk: &WorkOrder,
        elapsed_secs: f64,
        report: &mut RunReport,
    ) {
        let health = &mut self.slots[slot].health;
        health.successes += 1;
        health.consecutive_failures = 0;
        health.replicates += chunk.replicates;
        health.busy_secs += elapsed_secs;
        report.slot_replicates[slot] += chunk.replicates;
        if let Some(metrics) = &self.metrics {
            metrics.observe_shard(slot, Duration::from_secs_f64(elapsed_secs));
        }
    }

    fn record_failure(&mut self, slot: usize, report: &mut RunReport) {
        let health = &mut self.slots[slot].health;
        health.failures += 1;
        health.consecutive_failures += 1;
        if health.consecutive_failures >= self.quarantine_after {
            health.quarantined = true;
        }
        report.worker_failures[slot] += 1;
    }
}

/// Sizes `total` replicates across slots proportionally to their
/// observed throughput (largest-remainder rounding, deterministic
/// index tie-break). Slots with no history get the mean of the known
/// throughputs — a cold pool therefore splits evenly — and weights are
/// clamped to within
/// [`WEIGHT_CLAMP`]× of the mean so one noisy measurement cannot
/// starve a slot.
fn shard_sizes(total: u64, throughputs: &[Option<f64>]) -> Vec<u64> {
    let n = throughputs.len();
    debug_assert!(n > 0);
    let known: Vec<f64> = throughputs.iter().flatten().copied().collect();
    let mean = if known.is_empty() {
        1.0
    } else {
        known.iter().sum::<f64>() / known.len() as f64
    };
    let weights: Vec<f64> = throughputs
        .iter()
        .map(|t| {
            t.unwrap_or(mean)
                .clamp(mean / WEIGHT_CLAMP, mean * WEIGHT_CLAMP)
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut sizes = vec![0u64; n];
    let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (i, weight) in weights.iter().enumerate() {
        let exact = total as f64 * weight / weight_sum;
        let floor = (exact.floor() as u64).min(total);
        sizes[i] = floor;
        assigned += floor;
        fractions.push((i, exact - exact.floor()));
    }
    // Float round-off can leave the floors a few replicates short (or,
    // pathologically, long). Distribute the shortfall by largest
    // remainder; trim any excess from the tail.
    while assigned > total {
        let last = sizes.iter().rposition(|&s| s > 0).expect("assigned > 0");
        sizes[last] -= 1;
        assigned -= 1;
    }
    fractions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut remaining = total - assigned;
    let mut at = 0;
    while remaining > 0 {
        let (slot, _) = fractions[at % n];
        sizes[slot] += 1;
        remaining -= 1;
        at += 1;
    }
    sizes
}

/// Target wall-clock duration of one chunk. Small enough that a
/// straggler only gates the run by a fraction of a second, large
/// enough that framing and codec overhead stays in the noise.
const TARGET_CHUNK_SECS: f64 = 0.15;

/// Chunk-count bounds per slot: at least 2
/// (so there is always something to steal) and at most 16 (so
/// per-chunk overhead cannot dominate a small order).
const MIN_CHUNKS_PER_SLOT: u64 = 2;
const MAX_CHUNKS_PER_SLOT: u64 = 16;

/// Cuts `total` replicates into chunks, returning `(size, home)`
/// pairs where `home` is the index into the *active slot list* whose
/// queue the chunk is seeded to. Zero-sized chunks are dropped.
///
/// Chunks are near-uniform, sized so each takes roughly
/// [`TARGET_CHUNK_SECS`] at the mean observed throughput, clamped to
/// [`MIN_CHUNKS_PER_SLOT`]..=[`MAX_CHUNKS_PER_SLOT`] chunks per slot —
/// the lower bound holds for warm pools too, so every batch keeps a
/// stealable back chunk per slot; contiguous runs of chunks are homed
/// to slots proportionally to throughput.
///
/// Chunk boundaries never move a bit of the result — replicate seeds
/// are absolute and the merge exact — so sizing only shapes latency.
fn chunk_plan(total: u64, throughputs: &[Option<f64>]) -> Vec<(u64, usize)> {
    let slots = throughputs.len() as u64;
    debug_assert!(slots > 0);
    let ceil_div = |a: u64, b: u64| a.div_euclid(b) + u64::from(!a.is_multiple_of(b));
    let most = ceil_div(total, slots * MIN_CHUNKS_PER_SLOT).max(1);
    let known: Vec<f64> = throughputs.iter().flatten().copied().collect();
    let target = if known.is_empty() {
        most // Cold pool: MIN_CHUNKS_PER_SLOT chunks per slot.
    } else {
        // A warm pool trusts its throughput estimate for the chunk
        // *duration*, but never cuts fewer than MIN_CHUNKS_PER_SLOT
        // chunks per slot: a batch's makespan is gated by whichever
        // slot the scheduler serves last, and with a single chunk per
        // slot a straggler holds its whole share hostage. Keeping a
        // back chunk stealable bounds that tail at half the share for
        // two extra frame round trips per slot — microseconds against
        // the tens of milliseconds of compute a share represents on
        // the slow circuits, where the one-chunk layout measurably
        // swung ensemble throughput batch to batch.
        let mean = known.iter().sum::<f64>() / known.len() as f64;
        let least = ceil_div(total, slots * MAX_CHUNKS_PER_SLOT).max(1);
        let cap = ceil_div(total, slots * MIN_CHUNKS_PER_SLOT).max(1);
        (((mean * TARGET_CHUNK_SECS).round() as u64).max(1)).clamp(least.min(cap), cap)
    };
    let count = ceil_div(total, target).max(1) as usize;
    // Even cut of replicates across chunks; weighted cut of chunks
    // across slots. Both reuse the deterministic largest-remainder
    // split.
    let sizes = shard_sizes(total, &vec![None; count]);
    let homes = shard_sizes(count as u64, throughputs);
    let mut plan = Vec::with_capacity(count);
    let mut chunk = 0usize;
    for (home, &chunks) in homes.iter().enumerate() {
        for _ in 0..chunks {
            plan.push((sizes[chunk], home));
            chunk += 1;
        }
    }
    debug_assert_eq!(chunk, count);
    plan.retain(|&(size, _)| size > 0);
    plan
}

/// The shared chunk queue: one deque of chunk indices per slot.
/// Slots pop their own queue from the front; a slot whose queue ran
/// dry steals from the *back* of the longest other queue (back-
/// stealing takes the work farthest from the victim's cursor, lowest
/// victim index breaks ties deterministically).
struct ChunkQueue {
    deques: Mutex<Vec<VecDeque<usize>>>,
}

impl ChunkQueue {
    fn new(seeded: Vec<VecDeque<usize>>) -> Self {
        ChunkQueue {
            deques: Mutex::new(seeded),
        }
    }

    /// Next chunk for `slot`, with a flag marking it as stolen.
    fn pull(&self, slot: usize) -> Option<(usize, bool)> {
        let mut deques = self.deques.lock().expect("chunk queue poisoned");
        if let Some(chunk) = deques[slot].pop_front() {
            return Some((chunk, false));
        }
        let victim = deques
            .iter()
            .enumerate()
            .filter(|&(index, deque)| index != slot && !deque.is_empty())
            .min_by_key(|&(index, deque)| (std::cmp::Reverse(deque.len()), index))
            .map(|(index, _)| index)?;
        deques[victim].pop_back().map(|chunk| (chunk, true))
    }

    /// Total chunks still queued (not yet pulled by any driver).
    fn depth(&self) -> usize {
        let deques = self.deques.lock().expect("chunk queue poisoned");
        deques.iter().map(VecDeque::len).sum()
    }

    /// Drains every queued chunk as `(chunk, home slot)` — the chunks
    /// nobody reached because every driver stopped early.
    fn drain_remaining(&self) -> Vec<(usize, usize)> {
        let mut deques = self.deques.lock().expect("chunk queue poisoned");
        let mut leftover = Vec::new();
        for (slot, deque) in deques.iter_mut().enumerate() {
            while let Some(chunk) = deque.pop_front() {
                leftover.push((chunk, slot));
            }
        }
        leftover
    }
}

/// Advances the in-order stream merge over the reorder buffer: merges
/// every contiguous ready chunk into the running total, skipping
/// `None` tombstones (chunks whose bits arrived inside a reduced
/// partial merged at a lower index). The first merge failure is
/// latched into `merge_error`.
fn drain_merges(
    buffer: &mut BTreeMap<usize, Option<EnsemblePartial>>,
    next_merge: &mut usize,
    merged: &mut Option<EnsemblePartial>,
    merge_error: &mut Option<ServiceError>,
) {
    while let Some(ready) = buffer.remove(&*next_merge) {
        *next_merge += 1;
        let Some(ready) = ready else { continue };
        let outcome = match merged {
            None => {
                *merged = Some(ready);
                Ok(())
            }
            Some(total) => total.merge(&ready).map_err(ServiceError::from),
        };
        if let Err(err) = outcome {
            if merge_error.is_none() {
                *merge_error = Some(err);
            }
        }
    }
}

/// What a slot driver tells the scheduler thread. Per-slot event
/// order is the slot's execution order (mpsc preserves per-sender
/// FIFO), which is what the health accounting relies on.
enum Event {
    /// A chunk completed with a validated partial.
    Done {
        slot: usize,
        chunk: usize,
        elapsed_secs: f64,
        stolen: bool,
        partial: EnsemblePartial,
    },
    /// A reducing relay completed several chunks as one merged
    /// partial: `chunks` lists every covered chunk index. Merging the
    /// one partial at the lowest covered index is bitwise equivalent
    /// to merging the per-chunk partials in index order —
    /// `EnsemblePartial::merge` is associative *and* commutative at
    /// the bit level (the exact accumulators make it so), which is
    /// precisely what lets the relay pre-merge at all.
    Reduced {
        slot: usize,
        chunks: Vec<usize>,
        elapsed_secs: f64,
        stolen: u64,
        partial: EnsemblePartial,
    },
    /// One chunk failed. Counts one slot failure; the chunk joins the
    /// sequential retry pass.
    ChunkFailed {
        slot: usize,
        chunk: usize,
        error: ServiceError,
    },
    /// A chunk was in flight when its connection broke. The breakage
    /// is counted once (by its `ChunkFailed` or `ChannelFailed`
    /// sibling); this chunk just needs retrying.
    ChunkLost {
        slot: usize,
        chunk: usize,
        error: ServiceError,
    },
    /// The connection failed before any chunk could be charged for it
    /// (e.g. a failed frame handshake). Counts one slot failure; the
    /// slot's unpulled chunks stay in the queue for stealing/retry.
    ChannelFailed { slot: usize, error: ServiceError },
    /// The driver exited; `busy` is the union of its busy windows
    /// (time with >= 1 order in flight), which keeps
    /// [`SlotHealth::observed_throughput`] honest under pipelining —
    /// summing per-chunk latencies would double-count overlap.
    Drained { slot: usize, busy: f64 },
}

/// Buffered health delta, applied on the scheduler thread after the
/// drivers join (the slots are mutably borrowed while they run).
enum HealthEvent {
    Success { replicates: u64 },
    Failure,
}

/// Poisons a driver's connection: charges `error` to one outstanding
/// chunk (or to the channel when nothing is outstanding) and reports
/// every other outstanding chunk — in flight, deferred, or already
/// resolved from an untrusted reply — as lost for the retry pass.
fn poison_connection(
    index: usize,
    tx: &mpsc::Sender<Event>,
    inflight: &mut VecDeque<(usize, Instant, bool)>,
    deferred: &mut Vec<(usize, Instant, bool)>,
    already_resolved: Vec<usize>,
    error: ServiceError,
) {
    let lost_error =
        || ServiceError::Worker("the connection failed with this chunk in flight".into());
    let mut outstanding = already_resolved;
    outstanding.extend(inflight.drain(..).map(|(chunk, ..)| chunk));
    outstanding.extend(deferred.drain(..).map(|(chunk, ..)| chunk));
    let mut rest = outstanding.into_iter();
    match rest.next() {
        Some(chunk) => {
            let _ = tx.send(Event::ChunkFailed {
                slot: index,
                chunk,
                error,
            });
        }
        None => {
            let _ = tx.send(Event::ChannelFailed { slot: index, error });
        }
    }
    for chunk in rest {
        let _ = tx.send(Event::ChunkLost {
            slot: index,
            chunk,
            error: lost_error(),
        });
    }
}

/// Drives one slot: pulls chunks (own queue first, then steals),
/// keeps up to `window` orders in flight on the slot's channel, and
/// streams [`Event`]s back to the scheduler. After any failure the
/// driver stops pulling new chunks but still drains healthy in-flight
/// orders; a connection-level failure loses every in-flight order
/// (first charged as the failure, the rest merely lost) and drops the
/// channel so the next use reopens it. A healthy channel is cached
/// back into the slot at exit — connection reuse across runs is most
/// of what the resident transports buy.
fn drive_slot(
    index: usize,
    slot: &mut PoolSlot,
    queue: &ChunkQueue,
    chunks: &[WorkOrder],
    tx: &mpsc::Sender<Event>,
    metrics: Option<&MetricsRegistry>,
) {
    let PoolSlot {
        transport, channel, ..
    } = slot;
    let mut chan = match channel.take() {
        Some(cached) => cached,
        None => match transport.open_channel() {
            Ok(opened) => opened,
            Err(error) => {
                let _ = tx.send(Event::ChannelFailed { slot: index, error });
                let _ = tx.send(Event::Drained {
                    slot: index,
                    busy: 0.0,
                });
                return;
            }
        },
    };
    let window = chan.window().max(1);
    // In-flight orders: (chunk index, submit time, stolen flag).
    let mut inflight: VecDeque<(usize, Instant, bool)> = VecDeque::new();
    // Chunks a reducing relay acknowledged as absorbed: they no longer
    // occupy the window, but stay pending until a Reduced reply covers
    // them (and are lost with the connection otherwise).
    let mut deferred: Vec<(usize, Instant, bool)> = Vec::new();
    let mut busy = 0.0f64;
    let mut window_started: Option<Instant> = None;
    let mut failed = false;
    let mut broken = false;
    let lost_error =
        || ServiceError::Worker("the connection failed with this chunk in flight".into());

    loop {
        while !failed && inflight.len() < window {
            let Some((chunk, stolen)) = queue.pull(index) else {
                break;
            };
            if let Some(metrics) = metrics {
                metrics.set_pool_queue_depth(queue.depth() as u64);
            }
            if inflight.is_empty() && window_started.is_none() {
                window_started = Some(Instant::now());
            }
            match chan.submit(chunk as u64, &chunks[chunk]) {
                Ok(()) => {
                    inflight.push_back((chunk, Instant::now(), stolen));
                    if let Some(metrics) = metrics {
                        metrics.set_slot_inflight(index, inflight.len() as u64);
                    }
                }
                Err(error) => {
                    // Connection broken mid-submit: this chunk takes
                    // the failure, everything already in flight or
                    // deferred is lost with it.
                    failed = true;
                    broken = true;
                    let _ = tx.send(Event::ChunkFailed {
                        slot: index,
                        chunk,
                        error,
                    });
                    for (lost, ..) in inflight.drain(..).chain(deferred.drain(..)) {
                        let _ = tx.send(Event::ChunkLost {
                            slot: index,
                            chunk: lost,
                            error: lost_error(),
                        });
                    }
                }
            }
        }
        if inflight.is_empty() && deferred.is_empty() {
            // The fill loop found the queue dry (it only ever shrinks)
            // or a failure emptied the window: this driver is done.
            if let Some(started) = window_started.take() {
                busy += started.elapsed().as_secs_f64();
            }
            break;
        }
        match chan.recv() {
            Ok((id, reply @ (BinaryReply::Partial(_) | BinaryReply::Error(_)))) => {
                let Some(position) = inflight.iter().position(|&(chunk, ..)| chunk as u64 == id)
                else {
                    // An uncorrelatable reply: the stream can no
                    // longer be trusted. Treat it as a broken
                    // connection.
                    failed = true;
                    broken = true;
                    poison_connection(
                        index,
                        tx,
                        &mut inflight,
                        &mut deferred,
                        Vec::new(),
                        ServiceError::Protocol(format!("reply id {id} matches no in-flight chunk")),
                    );
                    continue;
                };
                let (chunk, started, stolen) =
                    inflight.remove(position).expect("position is in range");
                if let Some(metrics) = metrics {
                    metrics.set_slot_inflight(index, inflight.len() as u64);
                }
                if inflight.is_empty() && deferred.is_empty() {
                    if let Some(started) = window_started.take() {
                        busy += started.elapsed().as_secs_f64();
                    }
                }
                match reply {
                    BinaryReply::Partial(partial) => {
                        let _ = tx.send(Event::Done {
                            slot: index,
                            chunk,
                            elapsed_secs: started.elapsed().as_secs_f64(),
                            stolen,
                            partial,
                        });
                    }
                    BinaryReply::Error(message) => {
                        // One chunk failed; the connection is fine.
                        // Stop pulling new work, drain the rest.
                        failed = true;
                        let _ = tx.send(Event::ChunkFailed {
                            slot: index,
                            chunk,
                            error: ServiceError::Worker(message),
                        });
                    }
                    BinaryReply::Deferred { .. } | BinaryReply::Reduced { .. } => {
                        unreachable!("matched as Partial or Error above")
                    }
                }
            }
            Ok((id, BinaryReply::Deferred { .. })) => {
                let Some(position) = inflight.iter().position(|&(chunk, ..)| chunk as u64 == id)
                else {
                    failed = true;
                    broken = true;
                    poison_connection(
                        index,
                        tx,
                        &mut inflight,
                        &mut deferred,
                        Vec::new(),
                        ServiceError::Protocol(format!(
                            "deferred receipt id {id} matches no in-flight chunk"
                        )),
                    );
                    continue;
                };
                // The chunk leaves the window (the relay holds its
                // bits now) but stays pending until a Reduced reply
                // covers it.
                let entry = inflight.remove(position).expect("position is in range");
                deferred.push(entry);
                if let Some(metrics) = metrics {
                    metrics.set_slot_inflight(index, inflight.len() as u64);
                }
            }
            Ok((
                id,
                BinaryReply::Reduced {
                    also_covers,
                    partial,
                },
            )) => {
                let mut ids = Vec::with_capacity(also_covers.len() + 1);
                ids.push(id);
                ids.extend(also_covers);
                let mut covered = Vec::with_capacity(ids.len());
                let mut earliest: Option<Instant> = None;
                let mut stolen = 0u64;
                let mut unknown = None;
                for cid in ids {
                    let entry = inflight
                        .iter()
                        .position(|&(chunk, ..)| chunk as u64 == cid)
                        .map(|p| inflight.remove(p).expect("position is in range"))
                        .or_else(|| {
                            deferred
                                .iter()
                                .position(|&(chunk, ..)| chunk as u64 == cid)
                                .map(|p| deferred.remove(p))
                        });
                    match entry {
                        Some((chunk, started, was_stolen)) => {
                            covered.push(chunk);
                            stolen += u64::from(was_stolen);
                            earliest = Some(match earliest {
                                Some(at) if at <= started => at,
                                _ => started,
                            });
                        }
                        None => {
                            unknown = Some(cid);
                            break;
                        }
                    }
                }
                if let Some(cid) = unknown {
                    // Coverage of an id we never sent (or covered
                    // twice): the stream — and the chunks this reply
                    // claimed — can no longer be trusted.
                    failed = true;
                    broken = true;
                    poison_connection(
                        index,
                        tx,
                        &mut inflight,
                        &mut deferred,
                        covered,
                        ServiceError::Protocol(format!(
                            "reduced reply covers unknown chunk id {cid}"
                        )),
                    );
                    continue;
                }
                if let Some(metrics) = metrics {
                    metrics.set_slot_inflight(index, inflight.len() as u64);
                }
                if inflight.is_empty() && deferred.is_empty() {
                    if let Some(started) = window_started.take() {
                        busy += started.elapsed().as_secs_f64();
                    }
                }
                let _ = tx.send(Event::Reduced {
                    slot: index,
                    chunks: covered,
                    elapsed_secs: earliest.map_or(0.0, |at| at.elapsed().as_secs_f64()),
                    stolen,
                    partial,
                });
            }
            Err(error) => {
                failed = true;
                broken = true;
                if let Some(started) = window_started.take() {
                    busy += started.elapsed().as_secs_f64();
                }
                poison_connection(index, tx, &mut inflight, &mut deferred, Vec::new(), error);
            }
        }
    }

    if !broken {
        *channel = Some(chan);
    }
    if let Some(metrics) = metrics {
        metrics.set_slot_inflight(index, 0);
    }
    let _ = tx.send(Event::Drained { slot: index, busy });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pools_split_evenly_like_the_old_coordinator() {
        assert_eq!(shard_sizes(10, &[None, None]), vec![5, 5]);
        assert_eq!(shard_sizes(11, &[None, None, None]), vec![4, 4, 3]);
        assert_eq!(shard_sizes(2, &[None, None, None]), vec![1, 1, 0]);
        assert_eq!(shard_sizes(1, &[None]), vec![1]);
    }

    #[test]
    fn shard_sizes_follow_observed_throughput() {
        // A slot measured 3x faster gets ~3x the replicates.
        let sizes = shard_sizes(100, &[Some(300.0), Some(100.0)]);
        assert_eq!(sizes.iter().sum::<u64>(), 100);
        assert!(sizes[0] > sizes[1], "{sizes:?}");
        assert!((70..=80).contains(&sizes[0]), "{sizes:?}");
        // Unknown slots get the mean weight.
        let sizes = shard_sizes(90, &[Some(200.0), None, Some(100.0)]);
        assert_eq!(sizes.iter().sum::<u64>(), 90);
        assert!(sizes[0] > sizes[2], "{sizes:?}");
        assert!(sizes[1] > sizes[2] && sizes[1] < sizes[0], "{sizes:?}");
    }

    #[test]
    fn extreme_throughput_ratios_are_clamped() {
        // A glitchy measurement cannot starve a slot to zero when the
        // batch is large enough for the clamp to bite.
        let sizes = shard_sizes(1000, &[Some(1.0), Some(1_000_000.0)]);
        assert_eq!(sizes.iter().sum::<u64>(), 1000);
        assert!(sizes[0] > 0, "{sizes:?}");
    }

    #[test]
    fn every_total_is_preserved() {
        for total in [1u64, 2, 3, 7, 97, 192] {
            for weights in [
                vec![None, None],
                vec![Some(10.0), Some(20.0), Some(30.0)],
                vec![Some(5.0)],
                vec![None, Some(50.0), None, Some(0.5)],
            ] {
                let sizes = shard_sizes(total, &weights);
                assert_eq!(sizes.iter().sum::<u64>(), total, "{total} over {weights:?}");
            }
        }
    }

    #[test]
    fn cold_pipelined_pools_cut_min_chunks_per_slot() {
        let plan = chunk_plan(20, &[None, None]);
        assert_eq!(plan.len() as u64, 2 * MIN_CHUNKS_PER_SLOT);
        assert_eq!(plan.iter().map(|&(size, _)| size).sum::<u64>(), 20);
        // Homes are contiguous and cover both slots evenly.
        assert_eq!(
            plan.iter().map(|&(_, home)| home).collect::<Vec<_>>(),
            vec![0, 0, 1, 1]
        );
    }

    #[test]
    fn warm_pipelined_pools_target_chunk_seconds_within_clamps() {
        // 100 replicates/s mean throughput -> ~15-replicate chunks.
        let plan = chunk_plan(600, &[Some(100.0), Some(100.0)]);
        assert_eq!(plan.iter().map(|&(size, _)| size).sum::<u64>(), 600);
        let chunks = plan.len() as u64;
        assert!((30..=45).contains(&chunks), "{chunks} chunks: {plan:?}");
        // ...but never more than MAX_CHUNKS_PER_SLOT per slot...
        let plan = chunk_plan(600, &[Some(1.0), Some(1.0)]);
        assert!(
            plan.len() as u64 <= 2 * MAX_CHUNKS_PER_SLOT,
            "{} chunks",
            plan.len()
        );
        // ...and even when each slot's whole share fits inside the
        // time target, a warm pool still cuts MIN_CHUNKS_PER_SLOT
        // chunks per slot: the back chunks stay stealable, so a slot
        // the scheduler starves cannot hold its entire share hostage.
        let plan = chunk_plan(20, &[Some(1_000_000.0), Some(1_000_000.0)]);
        assert_eq!(plan, vec![(5, 0), (5, 0), (5, 1), (5, 1)]);
    }

    #[test]
    fn tiny_pipelined_orders_drop_empty_chunks() {
        // 3 replicates over 2 slots wanting 4 chunks: one chunk is
        // empty and must vanish, totals preserved.
        let plan = chunk_plan(3, &[None, None]);
        assert_eq!(plan.iter().map(|&(size, _)| size).sum::<u64>(), 3);
        assert!(plan.iter().all(|&(size, _)| size > 0), "{plan:?}");
        let plan = chunk_plan(1, &[None, None, None]);
        assert_eq!(plan, vec![(1, 0)]);
    }

    #[test]
    fn chunk_queues_steal_from_the_back_of_the_longest_deque() {
        let seeded = vec![
            VecDeque::from(vec![0usize]),
            VecDeque::from(vec![1, 2, 3]),
            VecDeque::from(vec![4, 5]),
        ];
        let queue = ChunkQueue::new(seeded);
        assert_eq!(queue.depth(), 6);
        // Own work first, front-out.
        assert_eq!(queue.pull(0), Some((0, false)));
        // Then steal from the back of the longest other deque; on a
        // length tie the lowest victim index wins deterministically.
        assert_eq!(queue.pull(0), Some((3, true))); // deque 1 longest
        assert_eq!(queue.pull(0), Some((2, true))); // tie at 2: deque 1
        assert_eq!(queue.pull(0), Some((5, true))); // deque 2 longest
        assert_eq!(queue.pull(0), Some((1, true))); // tie at 1: deque 1
        assert_eq!(queue.pull(2), Some((4, false)));
        assert_eq!(queue.pull(0), None);
        assert_eq!(queue.depth(), 0);
        // Whatever no driver reached is drained with its home slot for
        // the retry pass.
        let queue = ChunkQueue::new(vec![VecDeque::new(), VecDeque::from(vec![1usize, 2])]);
        assert_eq!(queue.drain_remaining(), vec![(1, 1), (2, 1)]);
    }
}
