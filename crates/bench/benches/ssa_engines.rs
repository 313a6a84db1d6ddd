//! SSA engine ablation: direct vs. first-reaction vs. next-reaction vs.
//! tau-leaping — plus the incremental-vs-full-recompute comparison for
//! the propensity engine.
//!
//! Not a paper figure, but the design-choice ablation `DESIGN.md` calls
//! out: the paper's workflow is dominated by stochastic simulation, so
//! the choice of exact algorithm matters. Each engine simulates 200 t.u.
//! of the Figure 1 AND-gate circuit (all inputs high) and of the largest
//! Cello circuit in the catalog.
//!
//! Beyond the per-engine wall times, a throughput section measures
//! **steps per second** for `Direct` with dependency-driven updates
//! against the retained `Direct::with_full_recompute` baseline, which
//! re-evaluates every propensity on every step — the recompute-all
//! *schedule* of the pre-incremental engine, kept callable on top of
//! the shared propensity set so the two columns are bitwise-comparable.
//! (It is not the literal pre-PR code path: that summed sequentially
//! and selected by linear scan, so its trajectories differed in fp
//! round-off.) Results land in `BENCH_ssa.json` at the workspace root,
//! so the perf trajectory of the hot loop is tracked over time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glc_gates::catalog;
use glc_model::expr::EvalMemo;
use glc_model::Model;
use glc_service::codec::{self, BinaryReply};
use glc_service::{
    session, EngineSpec, ExtendBackend, ModelSource, PipelinedWorker, SessionSpec, SessionStore,
    Transport, WorkOrder, WorkerPool,
};
use glc_ssa::engine::Observer;
use glc_ssa::{
    run_ensemble, simulate, CompiledModel, Direct, Engine, FirstReaction, Langevin, NextReaction,
    TauLeap,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize as _, Value};
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn prepared(id: &str) -> CompiledModel {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut model: Model = entry.model.clone();
    for input in &entry.inputs {
        model.set_initial_amount(input, 15.0);
    }
    CompiledModel::new(&model).expect("compiles")
}

/// Approximate-engine steps per circuit family. The smooth Hill-kinetics
/// Cello models tolerate coarse steps; the stiff single-copy promoter
/// binding of the mass-action book circuits diverges at those (Langevin
/// at dt = 0.1 goes non-finite around t ≈ 120), but both engines resolve
/// it at 0.02, so the book circuits get bench rows too instead of being
/// silently skipped.
fn approx_steps(id: &str) -> (f64, f64) {
    if id.starts_with("cello") {
        (0.5, 0.1)
    } else {
        (0.02, 0.02)
    }
}

/// `GLC_BENCH_QUICK=1` (CI's `workflow_dispatch` quick profile, or a
/// local smoke run) shrinks every measurement window 10x; the CI
/// regression gate is skipped for such runs, since reduced windows
/// make the gated ratios too noisy to ratchet against.
fn quick_profile() -> bool {
    std::env::var("GLC_BENCH_QUICK").is_ok_and(|value| !value.is_empty() && value != "0")
}

/// A measurement window: `full_secs` normally, a tenth of it (floored
/// at 50 ms) under the quick profile.
fn wall(full_secs: f64) -> f64 {
    if quick_profile() {
        (full_secs / 10.0).max(0.05)
    } else {
        full_secs
    }
}

fn bench_engines(c: &mut Criterion) {
    for id in ["book_and", "cello_0x1C"] {
        let compiled = prepared(id);
        let (tau, dt) = approx_steps(id);
        let mut group = c.benchmark_group(format!("ssa_engines/{id}"));
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(Direct::new()),
            Box::new(Direct::with_full_recompute()),
            Box::new(FirstReaction::new()),
            Box::new(NextReaction::new()),
            Box::new(TauLeap::new(tau).expect("valid tau")),
            Box::new(Langevin::new(dt).expect("valid dt")),
        ];
        for engine in &mut engines {
            let name = engine.name().to_string();
            group.bench_with_input(
                BenchmarkId::from_parameter(&name),
                &compiled,
                |b, compiled| {
                    b.iter(|| {
                        simulate(compiled, engine.as_mut(), 200.0, 1.0, 42).expect("simulate")
                    });
                },
            );
        }
        group.finish();
    }
}

/// Counts reaction firings (the final horizon callback is one extra
/// `on_advance`, identical for both engines and negligible).
struct StepCounter(u64);

impl Observer for StepCounter {
    fn on_advance(&mut self, _t: f64, _values: &[f64]) {
        self.0 += 1;
    }
}

/// Measures sustained steps/second of `engine` on `model` by running
/// fixed-horizon simulations until `min_wall` seconds have elapsed.
fn steps_per_second(engine: &mut dyn Engine, model: &CompiledModel, min_wall: f64) -> f64 {
    let mut steps = 0u64;
    let mut elapsed = 0.0f64;
    let mut seed = 42u64;
    while elapsed < min_wall {
        let mut state = model.initial_state();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counter = StepCounter(0);
        let start = Instant::now();
        engine
            .run(model, &mut state, 200.0, &mut rng, &mut counter)
            .expect("simulate");
        elapsed += start.elapsed().as_secs_f64();
        steps += counter.0;
        seed += 1;
    }
    steps as f64 / elapsed
}

/// Measures sustained full-propensity-sweep throughput (sweeps/second)
/// over a cycle of states sampled along a direct-method trajectory —
/// the evaluation pattern of the tau-leap/Langevin/ODE full-sweep path.
/// `batched` selects the memoized sweep (Hill memo and batched Hill
/// pre-pass); otherwise the memo-free per-law sweep.
fn sweeps_per_second(model: &CompiledModel, states: &[glc_ssa::State], batched: bool) -> f64 {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    let mut memo = EvalMemo::new();
    let mut sweeps = 0u64;
    let mut sink = 0.0f64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.4 {
        for state in states {
            sink += if batched {
                model
                    .propensities_into(state, &mut out, &mut stack, &mut memo)
                    .expect("sweep")
            } else {
                model
                    .propensities_into_scalar(state, &mut out, &mut stack)
                    .expect("sweep")
            };
            sweeps += 1;
        }
    }
    assert!(sink.is_finite());
    sweeps as f64 / start.elapsed().as_secs_f64()
}

/// States sampled along a direct-method trajectory, so sweep benches
/// see realistic (and identical, for both paths) molecule counts.
fn sampled_states(model: &CompiledModel, count: usize) -> Vec<glc_ssa::State> {
    struct Sampler {
        states: Vec<glc_ssa::State>,
        every: u64,
        seen: u64,
        template: glc_ssa::State,
    }
    impl Observer for Sampler {
        fn on_advance(&mut self, t: f64, values: &[f64]) {
            self.seen += 1;
            if self.seen.is_multiple_of(self.every) {
                let mut state = self.template.clone();
                state.t = t;
                state.values.copy_from_slice(values);
                self.states.push(state);
            }
        }
    }
    let mut sampler = Sampler {
        states: Vec::new(),
        every: 50,
        seen: 0,
        template: model.initial_state(),
    };
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(42);
    Direct::new()
        .run(model, &mut state, 200.0, &mut rng, &mut sampler)
        .expect("simulate");
    sampler.states.truncate(count.max(1));
    if sampler.states.is_empty() {
        sampler.states.push(model.initial_state());
    }
    sampler.states
}

/// Ensemble-grid parameters for the replicate-throughput comparison.
/// The batch is sized so per-batch protocol costs (framing, codec,
/// merge) amortize over real simulation work instead of dominating
/// it — a distributed deployment would batch at least this
/// coarsely.
const ENSEMBLE_T_END: f64 = 100.0;
const ENSEMBLE_DT: f64 = 10.0;
const ENSEMBLE_BATCH: usize = 192;
/// Parallelism on both sides of the comparison, so the sharded column
/// measures protocol overhead rather than a core-count difference.
const ENSEMBLE_PARALLELISM: usize = 2;

/// Sustained in-process ensemble replicate throughput (replicates/s)
/// via `run_ensemble` batches.
fn ensemble_replicates_per_second(model: &CompiledModel, min_wall: f64) -> f64 {
    let mut replicates = 0u64;
    let mut elapsed = 0.0f64;
    let mut seed = 42u64;
    while elapsed < min_wall {
        let start = Instant::now();
        run_ensemble(
            model,
            || Box::new(Direct::new()),
            ENSEMBLE_BATCH,
            ENSEMBLE_T_END,
            ENSEMBLE_DT,
            seed,
            ENSEMBLE_PARALLELISM,
        )
        .expect("ensemble");
        elapsed += start.elapsed().as_secs_f64();
        replicates += ENSEMBLE_BATCH as u64;
        seed += 1_000;
    }
    replicates as f64 / elapsed
}

/// The batch-sized work order the sharded columns dispatch.
fn ensemble_order(id: &str) -> WorkOrder {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut order = WorkOrder::new(
        ModelSource::Catalog(id.to_string()),
        EngineSpec::Direct,
        42,
        ENSEMBLE_BATCH as u64,
        ENSEMBLE_T_END,
        ENSEMBLE_DT,
    );
    for input in &entry.inputs {
        order = order.with_amount(input, 15.0);
    }
    order
}

/// Sustained replicate throughput of the same batches sharded over
/// **resident** framed `glc-worker` processes: a persistent
/// [`PipelinedWorker`] pool held across batches, so each batch pays
/// dynamic chunking + frame round-trips but no process spawn and no
/// model recompile — the steady-state cost of the pipelined fabric.
/// Returns `(replicates_per_sec, chunk_steals)`.
fn sharded_replicates_per_second(id: &str, worker: &std::path::Path, min_wall: f64) -> (f64, u64) {
    let mut order = ensemble_order(id);
    let transports: Vec<Box<dyn Transport>> = (0..ENSEMBLE_PARALLELISM)
        .map(|_| Box::new(PipelinedWorker::new(worker)) as Box<dyn Transport>)
        .collect();
    let mut pool = WorkerPool::new(transports).expect("pipelined pool");
    // Warm up: spawn the resident workers, compile the model in each,
    // and seed throughput observations so chunk sizing is adaptive.
    pool.run(&order).expect("pipelined warm-up");
    order.base_seed += 1_000_000;
    let mut replicates = 0u64;
    let mut steals = 0u64;
    let mut elapsed = 0.0f64;
    while elapsed < min_wall {
        let start = Instant::now();
        let (_, report) = pool.run(&order).expect("pipelined ensemble");
        elapsed += start.elapsed().as_secs_f64();
        replicates += ENSEMBLE_BATCH as u64;
        steals += report.steals;
        order.base_seed += 1_000;
    }
    (replicates as f64 / elapsed, steals)
}

/// The session spec the resident-service comparison runs: same grid
/// and batching as the ensemble section, Direct method.
fn resident_spec(id: &str) -> SessionSpec {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut spec = SessionSpec::new(
        ModelSource::Catalog(id.to_string()),
        EngineSpec::Direct,
        42,
        ENSEMBLE_T_END,
        ENSEMBLE_DT,
    );
    for input in &entry.inputs {
        spec = spec.with_amount(input, 15.0);
    }
    spec
}

/// Sustained replicate throughput of resident `Extend` batches: one
/// Submit (compile once), then extend-by-batch repeatedly against the
/// warm session — the hot path of the query service.
fn resident_extend_replicates_per_second(id: &str, min_wall: f64) -> f64 {
    let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
    let session = store.submit(&resident_spec(id)).expect("submit").session;
    let mut replicates = 0u64;
    let mut elapsed = 0.0f64;
    while elapsed < min_wall {
        let start = Instant::now();
        store
            .extend(&session, ENSEMBLE_BATCH as u64)
            .expect("extend");
        elapsed += start.elapsed().as_secs_f64();
        replicates += ENSEMBLE_BATCH as u64;
    }
    replicates as f64 / elapsed
}

/// Sustained replicate throughput of the cold one-shot path the
/// resident service replaces: every batch re-resolves and recompiles
/// the model (`WorkOrder::execute`) and throws the partial away.
fn one_shot_replicates_per_second(id: &str, min_wall: f64) -> f64 {
    let entry = catalog::by_id(id).expect("catalog circuit");
    let mut order = WorkOrder::new(
        ModelSource::Catalog(id.to_string()),
        EngineSpec::Direct,
        42,
        ENSEMBLE_BATCH as u64,
        ENSEMBLE_T_END,
        ENSEMBLE_DT,
    );
    for input in &entry.inputs {
        order = order.with_amount(input, 15.0);
    }
    let mut replicates = 0u64;
    let mut elapsed = 0.0f64;
    while elapsed < min_wall {
        let start = Instant::now();
        order.execute().expect("one-shot batch");
        elapsed += start.elapsed().as_secs_f64();
        replicates += ENSEMBLE_BATCH as u64;
        order.base_seed += 1_000;
    }
    replicates as f64 / elapsed
}

/// What the metrics surface costs to *read*: sustained Prometheus
/// render rate and instrumented Stats-request rate against a store
/// holding one warm batch-sized session. Recorded, not gated — the
/// write side (per-request `Instant` + atomic bucket increments) is
/// noise against simulation work, and the property tests pin that
/// recording never moves a bit; this row tracks what an aggressive
/// scraper would cost the serving thread.
fn scrape_metrics(id: &str) -> (f64, f64, u64) {
    let registry = std::sync::Arc::new(glc_service::MetricsRegistry::new());
    let mut store = SessionStore::new(2, ExtendBackend::InProcess)
        .expect("store")
        .with_metrics(std::sync::Arc::clone(&registry));
    let session = store.submit(&resident_spec(id)).expect("submit").session;
    store
        .extend(&session, ENSEMBLE_BATCH as u64)
        .expect("extend");
    let stats = store.handle(&glc_service::Request::Stats); // publish gauges
    assert!(matches!(stats, glc_service::Response::Stats(_)));

    let mut renders = 0u64;
    let mut scrape_bytes = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < wall(0.3) {
        scrape_bytes = registry.render_prometheus().len() as u64;
        renders += 1;
    }
    let renders_per_sec = renders as f64 / start.elapsed().as_secs_f64();

    let mut stats_requests = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < wall(0.3) {
        let reply = store.handle(&glc_service::Request::Stats);
        assert!(matches!(reply, glc_service::Response::Stats(_)));
        stats_requests += 1;
    }
    let stats_per_sec = stats_requests as f64 / start.elapsed().as_secs_f64();
    (renders_per_sec, stats_per_sec, scrape_bytes)
}

/// Model-cache Submit cost: sustained Submit rates against a cold
/// store (fresh `SessionStore` per Submit — every compile misses its
/// empty cache) vs a warm one (one store, model resident after the
/// first Submit, later Submits differing only in seed hit the
/// fingerprint-keyed cache). The warm/cold ratio is the compile cost
/// the shared `ModelCache` eliminates — an in-run ratio, so it cancels
/// machine speed and is gated absolutely in `check_regression`.
fn model_cache_submit_metrics(id: &str) -> (f64, f64, f64) {
    let spec = resident_spec(id);
    let mut submits = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.3 {
        let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
        store.submit(&spec).expect("cold submit");
        submits += 1;
    }
    let cold = submits as f64 / start.elapsed().as_secs_f64();

    let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
    let mut spec = resident_spec(id);
    store.submit(&spec).expect("priming submit");
    let mut submits = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.3 {
        // Same model fingerprint, distinct session: a pure cache hit.
        spec.base_seed += 1;
        store.submit(&spec).expect("warm submit");
        submits += 1;
    }
    let warm = submits as f64 / start.elapsed().as_secs_f64();
    let stats = store.stats();
    assert_eq!(
        stats.model_cache_misses, 1,
        "{id}: only the priming submit may compile"
    );
    assert_eq!(
        stats.model_cache_hits, submits,
        "{id}: every warm submit must hit the model cache"
    );
    (cold, warm, warm / cold)
}

/// Resident-partial footprint: bytes per cached accumulator cell after
/// aggregating one ensemble batch, and what the former dense 67-digit
/// representation paid for the same cell.
fn cached_partial_footprint(id: &str) -> (f64, f64) {
    let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
    let session = store.submit(&resident_spec(id)).expect("submit").session;
    store
        .extend(&session, ENSEMBLE_BATCH as u64)
        .expect("extend");
    let partial = store.partial(&session).expect("resident partial");
    let per_cell = partial.footprint_bytes() as f64 / partial.cells() as f64;
    // The retired flat form: 67 i64 digits + pending/poison tail,
    // 544 bytes per cell regardless of occupancy.
    let dense_per_cell = (67 * std::mem::size_of::<i64>() + 8) as f64;
    (per_cell, dense_per_cell)
}

/// Locates the `glc-worker` binary next to this bench's target
/// directory, building it through the invoking cargo if absent. Panics
/// if it cannot: the `ensemble` and `relay` sections need it.
fn worker_binary() -> PathBuf {
    let name = "glc-worker";
    let mut dir = std::env::current_exe().expect("bench executable path"); // …/target/release/deps/ssa_engines-*
    dir.pop(); // deps
    dir.pop(); // release
    let path = dir.join(name);
    if !path.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let built = std::process::Command::new(cargo)
            .args(["build", "--release", "-p", "glc-service", "--bin", name])
            .status()
            .is_ok_and(|status| status.success());
        assert!(built && path.exists(), "cannot build the {name} binary");
    }
    path
}

/// A `glc-worker --listen` child on a free localhost port (it exits
/// when its stdin — held here — closes, so it cannot outlive the
/// bench).
struct RelayProc {
    child: std::process::Child,
    _stdin: std::process::ChildStdin,
    addr: String,
}

impl RelayProc {
    fn spawn(worker: &Path) -> Self {
        let mut child = std::process::Command::new(worker)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn glc-worker --listen");
        let stdin = child.stdin.take().expect("relay stdin");
        let mut banner = String::new();
        std::io::BufReader::new(child.stdout.take().expect("relay stdout"))
            .read_line(&mut banner)
            .expect("read the relay banner");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .unwrap_or_default()
            .to_string();
        assert!(addr.contains(':'), "no listen address in {banner:?}");
        RelayProc {
            child,
            _stdin: stdin,
            addr,
        }
    }
}

impl Drop for RelayProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sustained replicate throughput of the same batches dispatched over
/// TCP to a local `glc-worker --listen` on persistent framed
/// connections ([`PipelinedWorker::connect`]: connect once, then
/// pipeline chunk orders over the socket — the end-to-end cost of
/// fronting workers on another host, minus real network latency).
/// Parallelism matches the other columns: one relay slot per worker
/// slot.
fn relay_replicates_per_second(id: &str, addr: &str, min_wall: f64) -> f64 {
    let mut order = ensemble_order(id);
    let transports: Vec<Box<dyn Transport>> = (0..ENSEMBLE_PARALLELISM)
        .map(|_| Box::new(PipelinedWorker::connect(addr)) as Box<dyn Transport>)
        .collect();
    let mut pool = WorkerPool::new(transports).expect("relay pool");
    let mut replicates = 0u64;
    let mut elapsed = 0.0f64;
    while elapsed < min_wall {
        let start = Instant::now();
        pool.run(&order).expect("relay ensemble");
        elapsed += start.elapsed().as_secs_f64();
        replicates += ENSEMBLE_BATCH as u64;
        order.base_seed += 1_000;
    }
    replicates as f64 / elapsed
}

/// Durable-session overhead: sustained write-through-snapshot and
/// reload rates for a batch-sized resident partial, plus the snapshot
/// file size. The byte count is gated in `check_regression`; the rate
/// columns are recorded only.
/// Returns `(writes_per_sec, reloads_per_sec, bytes)`.
fn spill_metrics(id: &str) -> (f64, f64, u64) {
    let dir = std::env::temp_dir().join(format!("glc-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = resident_spec(id);
    let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
    let key = store.submit(&spec).expect("submit").session;
    store.extend(&key, ENSEMBLE_BATCH as u64).expect("extend");
    let partial = store.partial(&key).expect("resident partial");

    let mut writes = 0u64;
    let start = Instant::now();
    let path = loop {
        let path = session::write_spill(&dir, &spec, partial).expect("write spill");
        writes += 1;
        if start.elapsed().as_secs_f64() >= 0.3 {
            break path;
        }
    };
    let writes_per_sec = writes as f64 / start.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let mut reloads = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.3 {
        let (_, reloaded) = session::read_spill(&dir, &key)
            .expect("read spill")
            .expect("snapshot exists");
        assert_eq!(reloaded.replicates(), partial.replicates());
        reloads += 1;
    }
    let reloads_per_sec = reloads as f64 / start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    (writes_per_sec, reloads_per_sec, bytes)
}

/// Hot-path reply codec: microseconds to decode a batch-sized GLCB
/// chunk reply — the per-chunk cost the pool pays on every ingress
/// frame. The round trip is asserted bitwise before timing; the
/// absolute column is gated with a generous ceiling in
/// `check_regression`. Returns `(glcb_micros, glcb_bytes)`.
fn codec_metrics(id: &str) -> (f64, u64) {
    let mut store = SessionStore::new(2, ExtendBackend::InProcess).expect("store");
    let key = store.submit(&resident_spec(id)).expect("submit").session;
    store.extend(&key, ENSEMBLE_BATCH as u64).expect("extend");
    let partial = store.partial(&key).expect("resident partial");

    let glcb = codec::encode_reply(7, &BinaryReply::Partial(partial.clone()));
    match codec::decode_reply(&glcb).expect("decode GLCB") {
        (7, BinaryReply::Partial(decoded)) => {
            assert_eq!(
                &decoded, partial,
                "{id}: the reply must carry identical bits"
            )
        }
        other => panic!("{id}: unexpected reply {other:?}"),
    }

    let mut glcb_decodes = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < wall(0.3) {
        let (_, reply) = codec::decode_reply(&glcb).expect("decode GLCB");
        assert!(matches!(reply, BinaryReply::Partial(_)));
        glcb_decodes += 1;
    }
    let glcb_micros = start.elapsed().as_secs_f64() * 1e6 / glcb_decodes as f64;
    (glcb_micros, glcb.len() as u64)
}

/// Normals/second from the batched block path (`NormalBlock::fill`
/// over a block-sized buffer) vs the scalar `standard_normal`
/// reference loop, from the same seed. Circuit-independent: the draw
/// layer sees only request lengths, so one measurement covers every
/// engine that consumes it. Returns `(batched_per_sec, scalar_per_sec)`.
fn draws_metrics(secs: f64) -> (f64, f64) {
    use glc_ssa::{standard_normal, NormalBlock, NormalCarry};
    const BUF: usize = 1024;
    let mut buf = vec![0.0f64; BUF];
    let mut sink = 0.0f64;

    let mut rng = StdRng::seed_from_u64(0x00D1_2A55);
    let mut block = NormalBlock::new();
    let start = Instant::now();
    let mut drawn = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        block.fill(&mut rng, &mut buf);
        sink += buf[BUF - 1];
        drawn += BUF as u64;
    }
    let batched = drawn as f64 / start.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(0x00D1_2A55);
    let mut carry = NormalCarry::new();
    let start = Instant::now();
    let mut drawn = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        for slot in buf.iter_mut() {
            *slot = standard_normal(&mut rng, &mut carry);
        }
        sink += buf[BUF - 1];
        drawn += BUF as u64;
    }
    let scalar = drawn as f64 / start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (batched, scalar)
}

/// `BENCH_ssa.json`'s rows by section, in the order first written.
type Ledger = Vec<(&'static str, Vec<Value>)>;

/// One ledger row: a flat JSON object of `"field" => value` pairs.
macro_rules! row {
    ($($field:literal => $value:expr),* $(,)?) => {
        Value::Object(vec![$(($field.to_string(), rounded($value.to_value()))),*])
    };
}

/// Numbers to three decimals, far below run-to-run noise, so the ledger
/// stays readable.
fn rounded(value: Value) -> Value {
    match value {
        Value::Num(x) => Value::Num((x * 1e3).round() / 1e3),
        other => other,
    }
}

fn push(ledger: &mut Ledger, section: &'static str, row: Value) {
    match ledger.iter_mut().find(|(name, _)| *name == section) {
        Some((_, rows)) => rows.push(row),
        None => ledger.push((section, vec![row])),
    }
}

/// The ledger as a JSON document, one row per line.
fn ledger_json(ledger: &Ledger) -> String {
    let json = |value: &dyn serde::Serialize| serde_json::to_string(value).expect("encodes");
    let sections: Vec<String> = ledger
        .iter()
        .map(|(section, rows)| {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| format!("\n    {}", json(row)))
                .collect();
            format!("  {}: [{}\n  ]", json(section), rows.join(","))
        })
        .collect();
    let header = "\"bench\": \"ssa_engines\",\n  \"unit\": \"steps_per_second\"";
    format!("{{\n  {header},\n{}\n}}\n", sections.join(",\n"))
}

/// Steps/second of every engine, the incremental-vs-full-recompute
/// comparison, the batched-vs-scalar full-sweep comparison, the
/// in-process vs sharded vs relayed ensemble replicate throughput and the
/// service-layer costs; written to `BENCH_ssa.json` and printed. The CI
/// `check_regression` gate compares it against the committed baseline.
fn throughput_report() {
    let mut ledger = Ledger::new();
    let worker = worker_binary();
    let relay = RelayProc::spawn(&worker);
    println!("\nthroughput: steps/second (200 t.u. horizon)");
    // Batched Gaussian source vs the scalar reference on the raw draw
    // loop itself. Like the full-sweep gate, `speedup` is floored at
    // 1.0 in `check_regression`: the block path is only allowed to
    // exist because it beats the scalar reference it replicates.
    draws_metrics(0.05); // warm-up
    let (batched_normals, scalar_normals) = draws_metrics(wall(0.4));
    let draws_speedup = batched_normals / scalar_normals;
    println!(
        "  draws: batched {batched_normals:.0} normals/s  \
         scalar {scalar_normals:.0} normals/s  speedup {draws_speedup:.2}x"
    );
    let draws = row! {
        "source" => "box_muller",
        "batched_normals_per_sec" => batched_normals,
        "scalar_normals_per_sec" => scalar_normals,
        "speedup" => draws_speedup,
    };
    push(&mut ledger, "draws", draws);
    for id in ["book_and", "cello_0x1C"] {
        let model = prepared(id);
        let occupancy = model.bank().occupancy();
        println!("  {id}: {} reactions", model.reaction_count());
        println!(
            "    forms: {} linear  {} hill  {} sop  {} term-div  {} fallback",
            occupancy.linear, occupancy.hill, occupancy.sop, occupancy.term_div, occupancy.fallback
        );
        // Every law of the two reference circuits classifies as a shaped
        // kinetic form; a VM fallback appearing here means the shape
        // recognizer regressed, and must fail loudly rather than bench
        // a silently slower path (also gated in `check_regression`).
        assert_eq!(
            occupancy.fallback, 0,
            "{id}: {} kinetic laws silently fell back to the VM",
            occupancy.fallback
        );
        let lanes = row! {
            "circuit" => id,
            "laws" => model.reaction_count(),
            "linear" => occupancy.linear,
            "hill" => occupancy.hill,
            "sop" => occupancy.sop,
            "term_div" => occupancy.term_div,
            "fallback" => occupancy.fallback,
        };
        push(&mut ledger, "lanes", lanes);
        // Warm up before timing. The two columns below feed the CI
        // regression gate (as a ratio), so they get the longest
        // measurement windows — 1 s each — to damp shared-runner noise.
        steps_per_second(&mut Direct::new(), &model, 0.05);
        let incremental = steps_per_second(&mut Direct::new(), &model, wall(1.0));
        let full = steps_per_second(&mut Direct::with_full_recompute(), &model, wall(1.0));
        let speedup = incremental / full;
        println!(
            "    direct: incremental {incremental:.0}/s  full-recompute {full:.0}/s  \
             speedup {speedup:.2}x"
        );
        let results = row! {
            "circuit" => id,
            "reactions" => model.reaction_count(),
            "incremental_steps_per_sec" => incremental,
            "full_recompute_steps_per_sec" => full,
            "speedup" => speedup,
        };
        push(&mut ledger, "results", results);

        // Per-engine sustained throughput on the shared propensity set.
        // Both circuit families get tau-leap and Langevin rows (at the
        // family's largest stable step) so the vectorized full-sweep
        // engines are tracked on the sweep mixes they used to lose.
        let (tau, dt) = approx_steps(id);
        let mut engines: Vec<Box<dyn Engine>> = vec![
            Box::new(FirstReaction::new()),
            Box::new(NextReaction::new()),
            Box::new(TauLeap::new(tau).expect("valid tau")),
            Box::new(Langevin::new(dt).expect("valid dt")),
        ];
        let mut per_engine = vec![("direct", incremental), ("direct-full-recompute", full)];
        for engine in &mut engines {
            let name = engine.name();
            let rate = steps_per_second(engine.as_mut(), &model, wall(0.4));
            per_engine.push((name, rate));
        }
        for (name, rate) in per_engine {
            println!("    {name}: {rate:.0} steps/s");
            let row = row! { "circuit" => id, "engine" => name, "steps_per_sec" => rate };
            push(&mut ledger, "engines", row);
        }

        // Full-sweep path (tau-leap/Langevin/ODE rebuilds): the
        // memoized sweep vs the memo-free per-law sweep.
        let states = sampled_states(&model, 64);
        sweeps_per_second(&model, &states, true); // warm-up
        let batched = sweeps_per_second(&model, &states, true);
        let scalar = sweeps_per_second(&model, &states, false);
        let sweep_speedup = batched / scalar;
        println!(
            "    full sweep: batched {batched:.0}/s  scalar {scalar:.0}/s  \
             speedup {sweep_speedup:.2}x"
        );
        let full_sweep = row! {
            "circuit" => id,
            "reactions" => model.reaction_count(),
            "batched_sweeps_per_sec" => batched,
            "scalar_sweeps_per_sec" => scalar,
            "speedup" => sweep_speedup,
        };
        push(&mut ledger, "full_sweep", full_sweep);

        // Ensemble replicate throughput: the in-process shard-then-
        // merge path vs the same batches fanned out over resident
        // pipelined glc-worker processes (equal parallelism on both
        // sides). The efficiency ratio cancels machine speed — it
        // isolates what the worker fabric costs on top of the shared
        // run_partial core — and feeds the CI regression gate (with an
        // absolute ≥0.75 floor for book_and). The steal count records
        // how much work migrated between slot queues meanwhile.
        ensemble_replicates_per_second(&model, 0.05); // warm-up
        let in_process = ensemble_replicates_per_second(&model, wall(0.5));
        let (sharded, steals) = sharded_replicates_per_second(id, &worker, wall(0.5));
        let efficiency = sharded / in_process;
        println!(
            "    ensemble ({ENSEMBLE_BATCH} reps × {ENSEMBLE_T_END} t.u., \
             {ENSEMBLE_PARALLELISM}-way): in-process {in_process:.0} reps/s  \
             sharded {sharded:.0} reps/s  efficiency {efficiency:.2}  steals {steals}"
        );
        let ensemble = row! {
            "circuit" => id,
            "in_process_replicates_per_sec" => in_process,
            "sharded_replicates_per_sec" => sharded,
            "shard_efficiency" => efficiency,
            "steals" => steals,
        };
        push(&mut ledger, "ensemble", ensemble);

        // Relay transport: the same batches over localhost TCP to a
        // glc-worker --listen, at the same parallelism. relay_efficiency
        // normalizes by the resident-worker column measured in this run
        // (`sharded_replicates_per_sec` above) — an in-run ratio like
        // shard_efficiency — and feeds the CI regression gate.
        relay_replicates_per_second(id, &relay.addr, 0.05); // warm-up
        let relayed = relay_replicates_per_second(id, &relay.addr, wall(0.5));
        let relay_efficiency = relayed / sharded;
        println!(
            "    relay ({ENSEMBLE_PARALLELISM} TCP slots): {relayed:.0} reps/s  \
             vs worker {sharded:.0} reps/s  efficiency {relay_efficiency:.2}"
        );
        let relay_row = row! {
            "circuit" => id,
            "relay_replicates_per_sec" => relayed,
            "relay_efficiency" => relay_efficiency,
        };
        push(&mut ledger, "relay", relay_row);

        // Durable-session spill: GLCB snapshot write/reload rates and
        // size for a batch-sized partial. The byte count is gated in
        // check_regression.
        let (snapshot_writes, snapshot_reloads, snapshot_bytes) = spill_metrics(id);
        println!(
            "    spill: {snapshot_writes:.0} snapshot writes/s  \
             {snapshot_reloads:.0} reloads/s  {snapshot_bytes} B/snapshot"
        );
        let spill = row! {
            "circuit" => id,
            "snapshot_writes_per_sec" => snapshot_writes,
            "snapshot_reloads_per_sec" => snapshot_reloads,
            "snapshot_bytes" => snapshot_bytes,
        };
        push(&mut ledger, "spill", spill);

        // Hot-path reply codec: GLCB decode cost for a batch-sized
        // chunk reply, gated by an absolute ceiling.
        let (glcb_micros, glcb_reply_bytes) = codec_metrics(id);
        println!(
            "    codec: reply decode GLCB {glcb_micros:.1} µs  (payload {glcb_reply_bytes} B)"
        );
        let codec = row! {
            "circuit" => id,
            "glcb_decode_micros" => glcb_micros,
            "glcb_reply_bytes" => glcb_reply_bytes,
        };
        push(&mut ledger, "codec", codec);

        // Resident query service: warm Extend batches against the
        // session store vs the cold one-shot path (recompile every
        // batch), plus the cached-partial footprint the sparse
        // ExactSum representation buys. extend_efficiency is the
        // in-run ratio the CI gate watches; footprint_ratio is gated
        // absolutely (the ≥5x acceptance criterion of the sparse
        // representation swap).
        resident_extend_replicates_per_second(id, 0.05); // warm-up
        let extend = resident_extend_replicates_per_second(id, wall(0.5));
        let one_shot = one_shot_replicates_per_second(id, wall(0.5));
        let extend_efficiency = extend / one_shot;
        let (bytes_per_cell, dense_bytes_per_cell) = cached_partial_footprint(id);
        let footprint_ratio = dense_bytes_per_cell / bytes_per_cell;
        println!(
            "    resident ({ENSEMBLE_BATCH} reps/extend): extend {extend:.0} reps/s  \
             one-shot {one_shot:.0} reps/s  efficiency {extend_efficiency:.2}  \
             footprint {bytes_per_cell:.0} B/cell (dense {dense_bytes_per_cell:.0}, \
             {footprint_ratio:.1}x smaller)"
        );
        let resident = row! {
            "circuit" => id,
            "extend_replicates_per_sec" => extend,
            "one_shot_replicates_per_sec" => one_shot,
            "extend_efficiency" => extend_efficiency,
            "bytes_per_cached_cell" => bytes_per_cell,
            "dense_bytes_per_cell" => dense_bytes_per_cell,
            "footprint_ratio" => footprint_ratio,
        };
        push(&mut ledger, "resident", resident);

        // Fingerprint-keyed model cache: Submit against a cold store
        // (compile every time) vs a warm one (cache hit every time).
        // warm_speedup is the in-run ratio the CI gate watches — the
        // compile cost the cache eliminates per Submit.
        model_cache_submit_metrics(id); // warm-up
        let (cold_submits, warm_submits, warm_speedup) = model_cache_submit_metrics(id);
        println!(
            "    model cache: cold submit {cold_submits:.0}/s  \
             warm submit {warm_submits:.0}/s  speedup {warm_speedup:.2}x"
        );
        let model_cache = row! {
            "circuit" => id,
            "cold_submits_per_sec" => cold_submits,
            "warm_submits_per_sec" => warm_submits,
            "warm_speedup" => warm_speedup,
        };
        push(&mut ledger, "model_cache", model_cache);

        // Metrics surface: what an aggressive scraper costs the
        // serving thread (recorded, not gated).
        let (scrape_renders, stats_requests, scrape_bytes) = scrape_metrics(id);
        println!(
            "    metrics: {scrape_renders:.0} scrape renders/s  \
             {stats_requests:.0} stats requests/s  {scrape_bytes} B/scrape"
        );
        let metrics = row! {
            "circuit" => id,
            "scrape_renders_per_sec" => scrape_renders,
            "stats_requests_per_sec" => stats_requests,
            "scrape_bytes" => scrape_bytes,
        };
        push(&mut ledger, "metrics", metrics);
    }
    // CARGO_MANIFEST_DIR = crates/bench; the artifact belongs at the
    // workspace root next to ROADMAP.md.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ssa.json");
    match std::fs::write(&path, ledger_json(&ledger)) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(err) => eprintln!("  could not write {}: {err}", path.display()),
    }
}

fn bench_engines_and_throughput(c: &mut Criterion) {
    bench_engines(c);
    throughput_report();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines_and_throughput
}
criterion_main!(benches);
