//! Transport-fabric tests: [`PipelinedWorker`]'s child and socket
//! channels driven through real processes and sockets, checked
//! **bitwise** against each other, plus the [`WorkerPool`]'s
//! health-aware scheduling (stealing, retries, quarantine, throughput
//! accounting).
//!
//! The acceptance gate of the fabric: an Extend dispatched over
//! `PipelinedWorker::connect` ≡ `PipelinedWorker::new` ≡ the in-process
//! backend ≡ a fresh unsharded run — property-tested for Direct + Langevin on
//! `book_and` + `cello_0x1C` — and a pool with an always-failing slot
//! still completes with the correct bits while reporting the
//! quarantine. The one internal wire fails **closed**: a JSON order,
//! an older build's JSON hello or another GLCB version gets no answer.
//! Scheduler tests never assert on what a race decided: faults fire by
//! chunk identity, and a [`Gate`] pins which slot runs what. CI runs this file on every push
//! (`query-service` job).

use glc_service::codec::{self, BinaryReply};
use glc_service::{
    frame, ChunkChannel, EngineSpec, Envelope, ExtendBackend, ModelSource, PipelinedWorker,
    ServiceError, SessionSpec, SessionStore, Transport, WorkOrder, WorkerPool,
};
use glc_ssa::run_partial_from;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Paths of the freshly built binaries under test.
fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_glc-worker")
}

/// A `glc-worker --listen` child bound to a free localhost port (the
/// relay). It exits when its stdin closes, so even a leaked fixture
/// dies with this test process.
struct RelayFixture {
    child: Child,
    _stdin: ChildStdin,
    addr: String,
}

impl RelayFixture {
    fn spawn() -> Self {
        let mut child = Command::new(worker_bin())
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn glc-worker --listen");
        let stdin = child.stdin.take().expect("stdin piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read bound address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address token")
            .to_string();
        assert!(
            line.contains("listening on") && addr.contains(':'),
            "unexpected banner: {line:?}"
        );
        RelayFixture {
            child,
            _stdin: stdin,
            addr,
        }
    }
}

impl Drop for RelayFixture {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One relay shared by every property-test case (spawning a process
/// per case would dominate the test); it exits with this process.
fn shared_relay_addr() -> &'static str {
    static RELAY: OnceLock<RelayFixture> = OnceLock::new();
    &RELAY.get_or_init(RelayFixture::spawn).addr
}

fn catalog_spec(circuit: &str, engine: EngineSpec, base_seed: u64) -> SessionSpec {
    let entry = glc_gates::catalog::by_id(circuit).expect("catalog circuit");
    let mut spec = SessionSpec::new(
        ModelSource::Catalog(circuit.into()),
        engine,
        base_seed,
        20.0,
        4.0,
    );
    for input in &entry.inputs {
        spec = spec.with_amount(input, 15.0);
    }
    spec
}

/// The fresh-run reference: `run_partial_from` over the whole range,
/// built from the same spec.
fn fresh_reference(spec: &SessionSpec, replicates: u64) -> glc_ssa::EnsemblePartial {
    let mut model = spec.model.load().expect("model loads");
    for (species, amount) in &spec.set_amounts {
        model.set_initial_amount(species, *amount);
    }
    let compiled = glc_ssa::CompiledModel::new(&model).expect("compiles");
    run_partial_from(
        &compiled,
        || spec.engine.build().expect("engine builds"),
        spec.base_seed,
        replicates,
        spec.t_end,
        spec.sample_dt,
    )
    .expect("reference run")
}

/// A small `book_not` order for scheduler tests.
fn book_not_order(base_seed: u64, replicates: u64) -> WorkOrder {
    WorkOrder::new(
        ModelSource::Catalog("book_not".into()),
        EngineSpec::Direct,
        base_seed,
        replicates,
        5.0,
        1.0,
    )
    .with_amount("LacI", 15.0)
}

/// A store whose Extends run over a pool of the given transports.
fn pooled_store(transports: Vec<Box<dyn Transport>>) -> SessionStore {
    let pool = WorkerPool::new(transports).expect("pool");
    SessionStore::new(2, ExtendBackend::Pool(pool)).expect("store")
}

/// A rendezvous for scheduler tests: it opens once `parties` slots
/// have arrived in the current round, so a test can pin which slot
/// runs what instead of sleeping and hoping. [`Gate::reset`] starts a
/// new round. A party that waits 30 s gives up, so a broken test fails
/// on its assertions instead of hanging.
struct Gate {
    parties: u64,
    /// (round, arrivals in this round)
    state: Mutex<(u64, u64)>,
    opened: Condvar,
}

impl Gate {
    fn new(parties: u64) -> Arc<Self> {
        Arc::new(Gate {
            parties,
            state: Mutex::new((0, 0)),
            opened: Condvar::new(),
        })
    }

    fn round(&self) -> u64 {
        self.state.lock().unwrap().0
    }

    fn reset(&self) {
        let mut state = self.state.lock().unwrap();
        *state = (state.0 + 1, 0);
    }

    fn arrive(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.opened.notify_all();
        let _ = self
            .opened
            .wait_timeout_while(state, Duration::from_secs(30), |state| {
                state.1 < self.parties
            })
            .unwrap();
    }
}

/// An in-process pipelined transport for scheduler tests: chunks
/// execute inside `recv` (so the in-flight window and completion
/// interleaving are real), with a configurable window, an optional
/// per-chunk delay, scripted faults, and an optional [`Gate`] the slot
/// arrives at on its n-th submit of each gate round.
#[derive(Clone)]
struct TestPipelined {
    label: &'static str,
    window: usize,
    delay: Duration,
    gate: Option<(Arc<Gate>, u64)>,
    /// Fails the first attempt of the chunk whose `first_replicate`
    /// matches, whichever slot runs it: the credit is shared by every
    /// clone, so a pool built from clones fails that chunk once.
    fail_chunk: Option<(u64, Arc<AtomicU64>)>,
    /// Fails every chunk this slot runs (inner error: the connection
    /// survives).
    always_fail: bool,
    /// Answers every chunk with a well-formed partial for the seeds
    /// 1000 replicates further on.
    shifted: bool,
    /// Connection failures left to inject (outer error: the channel
    /// is broken, every in-flight chunk is lost).
    outer_failures: Arc<AtomicU64>,
    /// Channels opened so far (counts connection reuse across runs).
    opens: Arc<AtomicU64>,
}

impl TestPipelined {
    fn new(window: usize) -> Self {
        TestPipelined {
            label: "test-pipelined",
            window,
            delay: Duration::ZERO,
            gate: None,
            fail_chunk: None,
            always_fail: false,
            shifted: false,
            outer_failures: Arc::new(AtomicU64::new(0)),
            opens: Arc::new(AtomicU64::new(0)),
        }
    }

    fn named(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    fn delayed(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    fn gated(mut self, gate: &Arc<Gate>, nth_submit: u64) -> Self {
        self.gate = Some((Arc::clone(gate), nth_submit));
        self
    }

    fn failing_chunk(mut self, first_replicate: u64) -> Self {
        self.fail_chunk = Some((first_replicate, Arc::new(AtomicU64::new(1))));
        self
    }

    fn always_failing(mut self) -> Self {
        self.always_fail = true;
        self
    }

    fn shifted(mut self) -> Self {
        self.shifted = true;
        self
    }

    /// Whether the scripted chunk fault is still pending.
    fn chunk_fault_pending(&self) -> bool {
        self.fail_chunk
            .as_ref()
            .is_some_and(|(_, credits)| credits.load(Ordering::SeqCst) > 0)
    }

    /// Takes one failure credit from `counter`, if any is left.
    fn take(counter: &AtomicU64) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }
}

impl Transport for TestPipelined {
    fn describe(&self) -> String {
        self.label.into()
    }

    fn open_channel(&self) -> Result<Box<dyn ChunkChannel>, ServiceError> {
        self.opens.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(TestChannel {
            cfg: self.clone(),
            pending: VecDeque::new(),
            round: None,
            submits: 0,
        }))
    }
}

struct TestChannel {
    cfg: TestPipelined,
    pending: VecDeque<(u64, WorkOrder)>,
    /// The gate round `submits` counts within.
    round: Option<u64>,
    submits: u64,
}

impl ChunkChannel for TestChannel {
    fn window(&self) -> usize {
        self.cfg.window
    }

    fn submit(&mut self, id: u64, order: &WorkOrder) -> Result<(), ServiceError> {
        if let Some((gate, nth)) = &self.cfg.gate {
            let round = gate.round();
            if self.round != Some(round) {
                self.round = Some(round);
                self.submits = 0;
            }
            self.submits += 1;
            if self.submits == *nth {
                gate.arrive();
            }
        }
        self.pending.push_back((id, order.clone()));
        Ok(())
    }

    fn recv(&mut self) -> Result<(u64, BinaryReply), ServiceError> {
        let (id, mut order) = self
            .pending
            .pop_front()
            .ok_or_else(|| ServiceError::Worker("recv with nothing in flight".into()))?;
        if TestPipelined::take(&self.cfg.outer_failures) {
            return Err(ServiceError::Worker("test connection dropped".into()));
        }
        if !self.cfg.delay.is_zero() {
            std::thread::sleep(self.cfg.delay);
        }
        let scripted = self.cfg.always_fail
            || self
                .cfg
                .fail_chunk
                .as_ref()
                .is_some_and(|(first, credits)| {
                    order.first_replicate == *first && TestPipelined::take(credits)
                });
        if scripted {
            return Ok((id, BinaryReply::Error("test chunk failed".into())));
        }
        if self.cfg.shifted {
            order.first_replicate += 1000;
        }
        let reply = match order.execute() {
            Ok(partial) => BinaryReply::Partial(partial),
            Err(err) => BinaryReply::Error(err.to_string()),
        };
        Ok((id, reply))
    }
}

proptest! {
    /// The acceptance property: the same extend schedule dispatched
    /// over every backend — in-process, resident framed workers,
    /// pipelined relay connections, a pool whose first chunk fails once
    /// (retried on the other slot), and a straggler/steal mix — leaves
    /// bitwise-identical resident partials, all equal to the fresh
    /// unsharded run. Direct + Langevin, book_and + cello_0x1C.
    #[test]
    fn extends_agree_bitwise_across_all_transports(
        first in 1u64..3,
        growth in 1u64..3,
        seed in 0u64..500,
        cello in any::<bool>(),
        langevin in any::<bool>(),
    ) {
        let circuit = if cello { "cello_0x1C" } else { "book_and" };
        let engine = if langevin {
            EngineSpec::Langevin(if cello { 0.1 } else { 0.01 })
        } else {
            EngineSpec::Direct
        };
        let spec = catalog_spec(circuit, engine, seed);
        // The chunk starting at replicate 0 fails its first attempt,
        // whichever slot runs it…
        let flaky = TestPipelined::new(2).failing_chunk(0);
        // …and a straggler next to a fast slot lets chunks migrate by
        // stealing.
        let straggler = TestPipelined::new(1).delayed(Duration::from_millis(3));
        let mut stores = vec![
            SessionStore::new(2, ExtendBackend::InProcess).unwrap(),
            pooled_store(vec![
                Box::new(PipelinedWorker::new(worker_bin())),
                Box::new(PipelinedWorker::new(worker_bin())),
            ]),
            pooled_store(vec![
                Box::new(PipelinedWorker::connect(shared_relay_addr())),
                Box::new(PipelinedWorker::connect(shared_relay_addr())),
            ]),
            pooled_store(vec![Box::new(flaky.clone()), Box::new(flaky.clone())]),
            pooled_store(vec![Box::new(straggler), Box::new(TestPipelined::new(1))]),
        ];
        let mut partials = Vec::new();
        for store in &mut stores {
            let session = store.submit(&spec).unwrap().session;
            store.extend(&session, first).unwrap();
            store.extend(&session, growth).unwrap();
            partials.push(store.partial(&session).unwrap().clone());
        }
        prop_assert!(!flaky.chunk_fault_pending(), "the scripted chunk failure really fired");
        let reference = fresh_reference(&spec, first + growth);
        for (at, partial) in partials.iter().enumerate() {
            prop_assert_eq!(partial, &reference, "backend #{} diverged", at);
        }
    }
}

#[test]
fn fast_slots_steal_from_stragglers_without_moving_a_bit() {
    // The slow slot holds its first chunk until the fast slot has
    // drained its own queue and stolen from the slow one (its third
    // submit): the steal is forced by the gate, not by a sleep race,
    // and chunk 0 arrives last. Chunks merge as they arrive, so the
    // merged bits must not notice — on Direct's integer cells and on
    // Langevin's digit-window cells alike.
    for engine in [EngineSpec::Direct, EngineSpec::Langevin(0.01)] {
        let mut order = book_not_order(23, 20);
        order.engine = engine.clone();
        let reference = order.execute().unwrap();
        let gate = Gate::new(2);
        let slow = TestPipelined::new(1).gated(&gate, 1);
        let fast = TestPipelined::new(1).gated(&gate, 3);
        let mut pool =
            WorkerPool::new(vec![Box::new(slow) as Box<dyn Transport>, Box::new(fast)]).unwrap();
        let (partial, report) = pool.run(&order).unwrap();
        assert_eq!(
            partial, reference,
            "{engine:?}: stealing must not move a bit"
        );
        assert_eq!(partial.to_binary(), reference.to_binary(), "{engine:?}");
        assert_eq!(report.chunks, 4, "a cold pool cuts two chunks per slot");
        assert!(report.steals >= 1, "the fast slot stole work: {report:?}");
        assert_eq!(report.total_failures(), 0, "{report:?}");
        assert_eq!(pool.lifetime_steals(), report.steals);
        assert!(
            report.slot_replicates[1] > report.slot_replicates[0],
            "the fast slot carried more replicates: {report:?}"
        );
    }
}

#[test]
fn replies_for_the_wrong_seeds_are_retried_elsewhere() {
    // The shifted slot answers with a well-formed partial for seeds
    // 1000 replicates away. The pool checks each reply's coverage
    // against its chunk, so those chunks fail and re-run on the honest
    // slot: the bits are the reference's.
    let order = book_not_order(7, 4);
    let reference = order.execute().unwrap();
    let mut pool = WorkerPool::new(vec![
        Box::new(TestPipelined::new(1).shifted()) as Box<dyn Transport>,
        Box::new(TestPipelined::new(1)),
    ])
    .unwrap();
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference);
    assert_eq!(partial.covered_seeds(), &[(7, 4)]);
    assert!(report.worker_failures[0] >= 1, "{report:?}");
    assert_eq!(report.worker_failures[1], 0, "{report:?}");
}

#[test]
fn replies_for_the_wrong_seeds_never_reach_a_session() {
    let shifted = TestPipelined::new(1).shifted();
    let mut pool = WorkerPool::new(vec![
        Box::new(shifted.clone()) as Box<dyn Transport>,
        Box::new(shifted.clone()),
    ])
    .unwrap();
    let err = pool.run(&book_not_order(7, 4)).unwrap_err();
    assert!(
        matches!(&err, ServiceError::Protocol(msg) if msg.contains("7+")),
        "{err}"
    );
    // An Extend over the same pool fails and merges nothing.
    let mut store = pooled_store(vec![Box::new(shifted.clone()), Box::new(shifted)]);
    let spec = catalog_spec("book_and", EngineSpec::Direct, 7);
    let session = store.submit(&spec).unwrap().session;
    store.extend(&session, 4).unwrap_err();
    assert_eq!(store.partial(&session).map(|p| p.replicates()), Some(0));
}

#[test]
fn pipelined_chunk_failures_retry_elsewhere_and_stay_exact() {
    // The chunk starting at replicate 0 fails once mid-run (the
    // connection survives), whichever slot runs it: it is re-driven on
    // the other slot and the result is bitwise the reference.
    let order = book_not_order(31, 12);
    let reference = order.execute().unwrap();
    let flaky = TestPipelined::new(2).failing_chunk(0);
    let mut pool = WorkerPool::new(vec![
        Box::new(flaky.clone()) as Box<dyn Transport>,
        Box::new(flaky.clone()),
    ])
    .unwrap();
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference);
    assert!(!flaky.chunk_fault_pending());
    assert_eq!(report.total_failures(), 1, "{report:?}");
    assert_eq!(report.retried_shards, 1, "{report:?}");
    assert_eq!(pool.lifetime_retried_shards(), 1);
    assert!(report.quarantined_slots.is_empty(), "{report:?}");
}

#[test]
fn broken_connections_lose_the_window_but_the_run_completes_exactly() {
    // The connection itself breaks with orders in flight: every
    // in-flight chunk is lost, the channel is dropped (and reopened on
    // the next run), the lost chunks are retried — and the bits are
    // still exact, twice. The gate makes both slots submit before
    // either runs, so the brittle slot really has chunks in flight.
    let order = book_not_order(41, 16);
    let reference = order.execute().unwrap();
    let gate = Gate::new(2);
    let brittle = TestPipelined::new(2).gated(&gate, 1);
    brittle.outer_failures.store(1, Ordering::SeqCst);
    let steady = TestPipelined::new(2).gated(&gate, 1);
    let mut pool = WorkerPool::new(vec![
        Box::new(brittle.clone()) as Box<dyn Transport>,
        Box::new(steady.clone()),
    ])
    .unwrap();
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference);
    assert_eq!(
        report.worker_failures,
        vec![1, 0],
        "a broken connection is one failure, not one per lost chunk: {report:?}"
    );
    assert!(report.retried_shards >= 1, "{report:?}");

    // Second run: the broken slot reopens its channel, the healthy
    // slot reuses its cached connection (the retries above ran on it
    // too).
    assert_eq!(
        (
            brittle.opens.load(Ordering::SeqCst),
            steady.opens.load(Ordering::SeqCst)
        ),
        (1, 1)
    );
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference);
    assert_eq!(report.total_failures(), 0, "{report:?}");
    assert_eq!(
        brittle.opens.load(Ordering::SeqCst),
        2,
        "the broken channel was reopened"
    );
    assert_eq!(
        steady.opens.load(Ordering::SeqCst),
        1,
        "the healthy channel was reused across runs"
    );
}

#[test]
fn one_relay_connection_pipelines_chunks_bitwise() {
    // A single relay connection carrying several pipelined chunk
    // orders, each answered with its own partial: the
    // reassembled bits must equal the unsharded reference, across two
    // runs on the same cached connection.
    let relay = RelayFixture::spawn();
    let order = book_not_order(57, 30);
    let reference = order.execute().unwrap();
    let mut pool = WorkerPool::new(vec![
        Box::new(PipelinedWorker::connect(relay.addr.clone())) as Box<dyn Transport>
    ])
    .unwrap();
    for run in 0..2 {
        let (partial, report) = pool.run(&order).unwrap();
        assert_eq!(partial, reference, "run {run}: pipelining moved a bit");
        assert!(
            report.chunks >= 2,
            "run {run}: every plan cuts concurrent chunks: {report:?}"
        );
        assert_eq!(report.total_failures(), 0, "run {run}: {report:?}");
        assert_eq!(
            report.slot_replicates[0], 30,
            "run {run}: every replicate credited to the relay slot: {report:?}"
        );
    }
}

#[test]
fn mixed_transport_pools_merge_bitwise() {
    // One pool mixing every kind of slot: the chunk boundaries land on
    // different vehicles entirely, and the bits cannot tell.
    let relay = RelayFixture::spawn();
    let spec = catalog_spec("book_and", EngineSpec::Direct, 17);
    let mut store = pooled_store(vec![
        Box::new(TestPipelined::new(1)),
        Box::new(PipelinedWorker::new(worker_bin())),
        Box::new(PipelinedWorker::connect(relay.addr.clone())),
    ]);
    let session = store.submit(&spec).unwrap().session;
    for batch in [7u64, 5] {
        store.extend(&session, batch).unwrap();
    }
    assert_eq!(
        store.partial(&session).unwrap(),
        &fresh_reference(&spec, 12)
    );
}

#[test]
fn relay_reports_bad_orders_and_keeps_serving() {
    let relay = RelayFixture::spawn();
    let mut channel = PipelinedWorker::connect(relay.addr.clone())
        .open_channel()
        .unwrap();
    let mut bad = book_not_order(1, 2);
    bad.model = ModelSource::Catalog("no_such_circuit".into());
    channel.submit(0, &bad).unwrap();
    match channel.recv().unwrap() {
        (0, BinaryReply::Error(message)) => assert!(
            message.contains("no_such_circuit"),
            "error carries the relay's message: {message}"
        ),
        other => panic!("expected an in-band error, got {other:?}"),
    }
    // The failed order poisoned nothing: a good order on the same
    // connection still round-trips.
    let good = book_not_order(3, 2);
    channel.submit(1, &good).unwrap();
    let partial = match channel.recv().unwrap() {
        (1, BinaryReply::Partial(partial)) => partial,
        other => panic!("expected the good order's partial, got {other:?}"),
    };
    assert_eq!(partial.replicates(), 2);
    assert_eq!(partial, good.execute().unwrap());
}

#[test]
fn unreachable_relay_is_a_clean_error() {
    // Port 1 on localhost is essentially never listening.
    let err = match PipelinedWorker::connect("127.0.0.1:1").open_channel() {
        Ok(_) => panic!("a relay answered on port 1"),
        Err(err) => err,
    };
    assert!(
        err.to_string().contains("cannot connect"),
        "unexpected error: {err}"
    );
}

/// A fresh, empty temp directory for fake worker scripts.
#[cfg(unix)]
fn script_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glc-transport-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create script dir");
    dir
}

/// Writes an executable shell script into `dir`.
#[cfg(unix)]
fn script(dir: &Path, body: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt as _;
    let path = dir.join("worker.sh");
    std::fs::write(&path, format!("#!/bin/sh\n{body}")).expect("write script");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod script");
    path
}

/// A worker script that exits at once without a hello — a permanently
/// dead slot whose handshake fails on EOF, with no timeout.
#[cfg(unix)]
fn dead_worker_script(label: &str) -> PathBuf {
    script(&script_dir(label), "echo 'slot is dead' >&2\nexit 1\n")
}

/// Writes `payload` as one frame to a file in `dir`, returning its
/// path — how a fake worker script replays a hello.
#[cfg(unix)]
fn hello_file(dir: &Path, payload: &[u8]) -> PathBuf {
    let path = dir.join("hello.bin");
    std::fs::write(&path, frame::encode_frame(payload).unwrap()).expect("write frame file");
    path
}

#[cfg(unix)]
#[test]
fn always_failing_slot_is_quarantined_and_the_result_is_still_exact() {
    // The acceptance scenario: slot 0 always fails, slot 1 is healthy.
    // Every run completes with the correct bits; the pool quarantines
    // the dead slot and stops handing it work.
    let order = WorkOrder::new(
        ModelSource::Catalog("book_and".into()),
        EngineSpec::Direct,
        7,
        10,
        20.0,
        4.0,
    )
    .with_amount("LacI", 15.0)
    .with_amount("TetR", 15.0);
    let reference = order.execute().unwrap();

    let mut pool = WorkerPool::new(vec![
        Box::new(PipelinedWorker::new(dead_worker_script("quarantine"))) as Box<dyn Transport>,
        Box::new(PipelinedWorker::new(worker_bin())),
    ])
    .unwrap()
    .with_quarantine_after(1)
    .unwrap();

    // Run 1: the dead slot fails its handshake once and is
    // quarantined; its two queued chunks are stolen by the healthy
    // slot, not retried.
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference, "stealing must reproduce the exact bits");
    assert_eq!(report.worker_failures, vec![1, 0], "{report:?}");
    assert_eq!(report.retried_shards, 0, "{report:?}");
    assert_eq!(report.steals, 2, "{report:?}");
    assert_eq!(report.quarantined_slots, vec![0], "{report:?}");
    assert_eq!(
        report.slot_replicates,
        vec![0, 10],
        "the healthy slot carried everything: {report:?}"
    );
    assert!(pool.health()[0].quarantined);
    assert!(!pool.health()[1].quarantined);

    // Run 2: the quarantined slot gets no chunks at all — zero new
    // failures — and the bits are still exact.
    let (partial, report) = pool.run(&order).unwrap();
    assert_eq!(partial, reference);
    assert_eq!(report.worker_failures, vec![0, 0], "{report:?}");
    assert_eq!(report.retried_shards, 0, "{report:?}");
    assert_eq!(report.quarantined_slots, vec![0], "{report:?}");
    assert_eq!(report.slot_replicates, vec![0, 10]);
}

#[cfg(unix)]
#[test]
fn fully_quarantined_pools_get_probation_not_deadlock() {
    // Every slot dead: runs fail, but each run still *attempts* the
    // work (quarantine lifts when it would empty the pool) instead of
    // deadlocking or panicking.
    let script = dead_worker_script("probation");
    let order = book_not_order(3, 4);
    let mut pool = WorkerPool::new(vec![
        Box::new(PipelinedWorker::new(&script)) as Box<dyn Transport>,
        Box::new(PipelinedWorker::new(&script)),
    ])
    .unwrap()
    .with_quarantine_after(1)
    .unwrap();
    for round in 0..3 {
        let err = pool.run(&order).unwrap_err();
        assert!(
            err.to_string().contains("exited before its hello"),
            "round {round}: {err}"
        );
    }
    // Failures kept accumulating across rounds: probation really
    // re-attempted the slots.
    let health = pool.health();
    assert!(
        health.iter().map(|h| h.failures).sum::<u64>() >= 3,
        "{health:?}"
    );
}

#[test]
fn retry_counts_accumulate_across_runs_of_a_persistent_pool() {
    // RunReport.retried_shards resets per run (by design), but a
    // persistent pool's lifetime total must carry across runs — and so
    // must the per-slot retry credit. Slot 0 fails every chunk it runs;
    // the gate makes it run one per run before slot 1 can steal its
    // queue, so each run has exactly one retry, served by slot 1.
    let order = book_not_order(5, 4);
    let gate = Gate::new(2);
    let transports = |flaky_label: &'static str| -> Vec<Box<dyn Transport>> {
        vec![
            Box::new(
                TestPipelined::new(1)
                    .named(flaky_label)
                    .always_failing()
                    .gated(&gate, 1),
            ),
            Box::new(TestPipelined::new(1).named("healthy").gated(&gate, 1)),
        ]
    };
    let mut pool = WorkerPool::new(transports("flaky"))
        .unwrap()
        // Quarantine only after 10 consecutive failures, so the flaky
        // slot keeps getting (and failing) a chunk on every run.
        .with_quarantine_after(10)
        .unwrap();

    let reference = order.execute().unwrap();
    for round in 1u64..=3 {
        gate.reset();
        let (partial, report) = pool.run(&order).unwrap();
        assert_eq!(partial, reference, "round {round}");
        assert_eq!(
            report.retried_shards, 1,
            "per-run report resets: {report:?}"
        );
        assert_eq!(
            pool.lifetime_retried_shards(),
            round,
            "lifetime total must accumulate"
        );
    }
    let health = pool.health();
    assert_eq!(health[0].retries, 0, "the flaky slot never served a retry");
    assert_eq!(health[1].retries, 3, "the healthy slot served every retry");
    assert_eq!(health[0].failures, 3);

    // The durable snapshot round-trips the lifetime totals, and a
    // fresh pool of the same transports restores them by description.
    let snapshot = pool.health_snapshot();
    assert_eq!(snapshot.retried_shards, 3);
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: glc_service::PoolHealthSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snapshot);

    let mut reborn = WorkerPool::new(transports("flaky")).unwrap();
    reborn.restore_health(&back);
    assert_eq!(reborn.lifetime_retried_shards(), 3);
    assert_eq!(reborn.health(), health, "restore by transport description");

    // A pool missing one of the transports restores what matches and
    // leaves the new slot fresh.
    let mut reshaped = WorkerPool::new(vec![
        Box::new(TestPipelined::new(1).named("healthy")) as Box<dyn Transport>,
        Box::new(TestPipelined::new(1).named("newcomer")),
    ])
    .unwrap();
    reshaped.restore_health(&back);
    let reshaped_health = reshaped.health();
    assert_eq!(reshaped_health[0], health[1], "healthy slot restored");
    assert_eq!(
        reshaped_health[1],
        glc_service::SlotHealth::default(),
        "unmatched slot starts fresh"
    );
}

#[test]
fn pool_health_tracks_throughput_for_adaptive_sizing() {
    // The gate makes both slots take a chunk in the first run, so both
    // have an observed throughput afterwards.
    let order = book_not_order(11, 8);
    let gate = Gate::new(2);
    let mut pool = WorkerPool::new(vec![
        Box::new(TestPipelined::new(1).gated(&gate, 1)) as Box<dyn Transport>,
        Box::new(TestPipelined::new(1).gated(&gate, 1)),
    ])
    .unwrap();
    let reference = order.execute().unwrap();
    let (first, report) = pool.run(&order).unwrap();
    assert_eq!(first, reference);
    assert_eq!(report.slot_replicates.iter().sum::<u64>(), 8);
    let health = pool.health();
    for slot in &health {
        assert!(slot.observed_throughput().is_some(), "{slot:?}");
        assert_eq!(slot.failures, 0);
    }
    // A second run sizes chunks from that history — and the bits are
    // still the reference bits whatever the sizes were.
    let (second, report) = pool.run(&order).unwrap();
    assert_eq!(second, reference);
    assert_eq!(report.slot_replicates.iter().sum::<u64>(), 8);
    assert_eq!(
        pool.describe_slots(),
        vec!["test-pipelined", "test-pipelined"]
    );
}

/// A JSON envelope around a work order: the frame payload an older
/// build sent.
fn json_order_payload() -> Vec<u8> {
    let order = book_not_order(1, 2);
    serde_json::to_string(&Envelope::with_id(serde::Value::Num(1.0), order))
        .unwrap()
        .into_bytes()
}

/// The JSON hello an older build opened every framed connection with.
const LEGACY_HELLO: &[u8] = b"{\"glc_frame_hello\":1}";

/// The GLCB hello an older build sent: the header plus a flags byte.
fn flagged_hello() -> Vec<u8> {
    [codec::encode_hello(), vec![1]].concat()
}

/// A GLCB hello of `version`, which this build does not speak.
fn foreign_version_hello(version: u8) -> Vec<u8> {
    assert_ne!(version, glc_service::GLCB_VERSION);
    let mut hello = codec::encode_hello();
    hello[4] = version;
    hello
}

/// The GLCB version of builds whose Direct engine drew another stream:
/// their workers must not join a pool of this build.
const PREVIOUS_STREAM_VERSION: u8 = 1;

/// The GLCB version of builds that spelled each partial cell as 8-byte
/// digits: their replies would not decode here.
const PREVIOUS_LAYOUT_VERSION: u8 = 2;

/// The GLCB version of builds whose exact engines drew their waits
/// through the host's libm: another stream for the same seed.
const LIBM_WAITS_VERSION: u8 = 3;

/// Reads until the peer closes, failing if it answers with a frame.
fn assert_no_answer(stream: &mut TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match frame::read_frame(stream) {
        Ok(None) | Err(_) => {}
        Ok(Some(payload)) => panic!("{what}: peer answered with {payload:?}"),
    }
}

#[test]
fn json_order_frames_get_no_answer_from_the_worker() {
    let mut child = Command::new(worker_bin())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    frame::write_frame(&mut stdin, &codec::encode_hello()).unwrap();
    let hello = frame::read_frame(&mut stdout)
        .unwrap()
        .expect("hello frame");
    codec::decode_hello(&hello).unwrap();
    frame::write_frame(&mut stdin, &json_order_payload()).unwrap();
    assert_eq!(
        frame::read_frame(&mut stdout).unwrap(),
        None,
        "a JSON order must get no reply"
    );
    assert!(!child.wait().unwrap().success());
}

#[test]
fn json_order_frames_get_no_answer_from_the_relay() {
    let relay = RelayFixture::spawn();
    let mut stream = TcpStream::connect(&relay.addr).unwrap();
    frame::write_frame(&mut stream, &codec::encode_hello()).unwrap();
    let hello = frame::read_frame(&mut stream).unwrap().expect("hello");
    codec::decode_hello(&hello).unwrap();
    frame::write_frame(&mut stream, &json_order_payload()).unwrap();
    assert_no_answer(&mut stream, "relay after a JSON order");
}

#[test]
fn legacy_and_foreign_version_hellos_fail_the_handshake() {
    let bad_hellos = [
        LEGACY_HELLO.to_vec(),
        flagged_hello(),
        foreign_version_hello(glc_service::GLCB_VERSION.wrapping_add(1)),
        foreign_version_hello(PREVIOUS_STREAM_VERSION),
        foreign_version_hello(PREVIOUS_LAYOUT_VERSION),
        foreign_version_hello(LIBM_WAITS_VERSION),
    ];

    // The relay server answers neither.
    let relay = RelayFixture::spawn();
    for hello in &bad_hellos {
        let mut stream = TcpStream::connect(&relay.addr).unwrap();
        frame::write_frame(&mut stream, hello).unwrap();
        assert_no_answer(&mut stream, "relay after a bad hello");
    }

    // Nor does a worker on its stdio: no frame, and a non-zero exit.
    for hello in &bad_hellos {
        let mut child = Command::new(worker_bin())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        frame::write_frame(&mut stdin, hello).unwrap();
        drop(stdin);
        let mut stdout = child.stdout.take().unwrap();
        assert_eq!(
            frame::read_frame(&mut stdout).unwrap(),
            None,
            "worker after the bad hello {hello:?}"
        );
        assert!(!child.wait().unwrap().success(), "{hello:?}");
    }

    // Neither does the framed `glc-serve --listen` path (a good hello
    // still gets one, so the drop is the hello's fault).
    let mut serve = Command::new(env!("CARGO_BIN_EXE_glc-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let serve_stdin = serve.stdin.take().unwrap();
    let mut banner = String::new();
    BufReader::new(serve.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner.trim().rsplit(' ').next().unwrap().to_string();
    for hello in &bad_hellos {
        let mut stream = TcpStream::connect(&addr).unwrap();
        frame::write_frame(&mut stream, hello).unwrap();
        assert_no_answer(&mut stream, "glc-serve after a bad hello");
    }
    let mut stream = TcpStream::connect(&addr).unwrap();
    frame::write_frame(&mut stream, &codec::encode_hello()).unwrap();
    let hello = frame::read_frame(&mut stream).unwrap().expect("hello");
    codec::decode_hello(&hello).unwrap();
    drop(serve_stdin); // EOF stops the service.
    let _ = serve.wait();

    // The relay channel rejects a relay that answers with either.
    for hello in &bad_hellos {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reply = hello.clone();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = frame::read_frame(&mut stream);
            let _ = frame::write_frame(&mut stream, &reply);
            let _ = stream.flush();
        });
        let err = match PipelinedWorker::connect(addr).open_channel() {
            Ok(_) => panic!("the relay channel accepted {hello:?}"),
            Err(err) => err.to_string(),
        };
        assert!(
            err.contains("did not complete the frame handshake"),
            "{err}"
        );
        fake.join().unwrap();
    }

    // So does the worker channel, for a worker that sends either.
    #[cfg(unix)]
    for (at, hello) in bad_hellos.iter().enumerate() {
        let dir = script_dir(&format!("hello-{at}"));
        let file = hello_file(&dir, hello);
        let path = script(
            &dir,
            &format!("cat '{}'\ncat > /dev/null\n", file.display()),
        );
        let err = match PipelinedWorker::new(&path).open_channel() {
            Ok(_) => panic!("the worker channel accepted {hello:?}"),
            Err(err) => err.to_string(),
        };
        assert!(
            err.contains("did not complete the frame handshake"),
            "{err}"
        );
    }
}
