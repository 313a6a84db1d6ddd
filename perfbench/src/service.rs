//! `service_sessions`: the session service over loopback.
//!
//! A real `glc-serve --listen 127.0.0.1:0 --workers 2 --spill-dir …
//! --metrics-addr 127.0.0.1:0 --capacity 8` serves two closed-loop
//! line-protocol connections (this process's two threads). Each
//! connection walks its half of a 14-session script per round: Direct
//! sessions on every input combination of `book_and` and `cello_0x1C`
//! (t_end 1000, dt 1, Extend(32) × 3) and one Langevin(0.02) session on
//! a circuit's all-high combination (t_end 200, Extend(64) × 4). Each
//! session gets Submit, its Extends, then a Query of the output; after
//! the round the connection Queries its first three sessions again, which
//! the capacity bound has spilled by then, so they reload. Every round
//! uses fresh seeds, so every Submit is a cold session.
//!
//! The traced run serves half its time the same way (for the server's
//! own counters: the final Stats reply and one scrape) and spends the
//! other half replaying the served sessions in-process through the
//! public calls `SessionStore` makes, against a `WorkerPool` of two
//! real `PipelinedWorker` slots, inside spans.

use crate::stats::{fast_sum, median, quantile};
use crate::tracer::Tracer;
use crate::{derive_seed, Args, Outcome};
use glc_gates::catalog;
use glc_service::codec::{self, BinaryReply};
use glc_service::session::{read_spill, write_spill};
use glc_service::{
    EngineSpec, Envelope, ExtendBackend, ExtendRequest, ModelSource, PipelinedWorker, Queried,
    QueryRequest, Request, Response, ServiceStats, SessionSpec, SessionStore, SpeciesNoise,
    Transport, WorkOrder, WorkerPool,
};
use glc_ssa::{EnsemblePartial, ModelCache};
use glc_vasim::stats::ensemble_noise;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};

/// Resident-session bound, below the 14 sessions of one round.
const CAPACITY: usize = 8;
/// Input level of a high input (the paper threshold).
const HIGH: f64 = 15.0;
/// Sessions re-queried after each round (spilled by then).
const REVISITS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// One session of the script.
#[derive(Debug, Clone)]
struct Plan {
    circuit: String,
    output: String,
    amounts: Vec<(String, f64)>,
    engine: EngineSpec,
    t_end: f64,
    extend: u64,
    extends: usize,
}

impl Plan {
    fn langevin(&self) -> bool {
        matches!(self.engine, EngineSpec::Langevin(_))
    }

    fn spec(&self, base_seed: u64) -> SessionSpec {
        let mut spec = SessionSpec::new(
            ModelSource::Catalog(self.circuit.clone()),
            self.engine.clone(),
            base_seed,
            self.t_end,
            1.0,
        );
        for (species, amount) in &self.amounts {
            spec = spec.with_amount(species, *amount);
        }
        spec
    }
}

/// The 14-session script: Direct on every combination of both
/// circuits, then Langevin on each circuit's all-high combination.
fn plans() -> Result<Vec<Plan>, String> {
    let entries = catalog::all();
    let mut direct = Vec::new();
    let mut langevin = Vec::new();
    for id in ["book_and", "cello_0x1C"] {
        let entry = entries
            .iter()
            .find(|e| e.id == id)
            .ok_or(format!("catalog has no {id}"))?;
        let n = entry.inputs.len();
        let amounts = |combo: usize| -> Vec<(String, f64)> {
            entry
                .inputs
                .iter()
                .enumerate()
                .map(|(j, name)| {
                    let high = (combo >> (n - 1 - j)) & 1 == 1;
                    (name.clone(), if high { HIGH } else { 0.0 })
                })
                .collect()
        };
        for combo in 0..1usize << n {
            direct.push(Plan {
                circuit: id.to_string(),
                output: entry.output.clone(),
                amounts: amounts(combo),
                engine: EngineSpec::Direct,
                t_end: 1000.0,
                extend: 32,
                extends: 3,
            });
        }
        langevin.push(Plan {
            circuit: id.to_string(),
            output: entry.output.clone(),
            amounts: amounts((1 << n) - 1),
            engine: EngineSpec::Langevin(0.02),
            t_end: 200.0,
            extend: 64,
            extends: 4,
        });
    }
    direct.extend(langevin);
    Ok(direct)
}

fn line(request: &Request) -> String {
    serde_json::to_string(request).expect("requests always encode")
}

/// Client-side latency classes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Submit,
    ExtendDirect,
    ExtendLangevin,
    Query,
}

/// A session one connection served, with its final Query line.
#[derive(Debug, Clone)]
struct Served {
    plan: usize,
    round: u64,
    spec: SessionSpec,
    last_query: String,
}

#[derive(Default)]
struct ConnResult {
    latencies: Vec<(Kind, f64)>,
    /// Each request's plan, step and client latency. A plan's steps are
    /// its Submit (0), its Extends (1..=extends), its Query, and the
    /// Query of a revisit.
    steps: Vec<(usize, usize, f64)>,
    replicates: u64,
    checks: Outcome,
    served: Vec<Served>,
}

/// One blocking line-protocol connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line; returns the reply line and the
    /// client-side latency in milliseconds.
    fn call(&mut self, request: &str) -> Result<(String, f64), String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let read = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".into());
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let trimmed = reply.trim_end_matches('\n').len();
        reply.truncate(trimmed);
        Ok((reply, ms))
    }
}

/// Whether `reply` is a Query reply for `key` at `replicates`. Only
/// the head is read: the figures that follow are checked byte for byte
/// against the in-process store instead.
fn queried_head(reply: &str, key: &str, replicates: u64) -> bool {
    let head = format!("{{\"Queried\":{{\"session\":\"{key}\",\"replicates\":");
    reply
        .strip_prefix(&head)
        .and_then(|rest| rest.split(',').next())
        .and_then(|count| count.parse::<f64>().ok())
        == Some(replicates as f64)
}

/// A session's `base_seed`, kept below 2^53: the line protocol carries
/// integers through JSON numbers, which are exact only up to there.
fn session_seed(seed: u64, conn: usize, round: u64, plan: usize) -> u64 {
    derive_seed(seed, &[4, conn as u64, round, plan as u64]) >> 11
}

/// Samples by [`Kind`] an untraced run collects before it stops: five
/// sessions of every plan (12 Direct plans with three Extends each, two
/// Langevin plans with four). A 45 s run on the reference machine
/// collects about twelve.
const MIN_SAMPLES: [u64; 4] = [70, 180, 40, 70];
/// A traced run serves at least two full rounds (each 14 Submits, 36
/// Direct and 8 Langevin Extends, 20 Queries): its replay takes two
/// served sessions of every plan.
const TRACE_MIN_SAMPLES: [u64; 4] = [28, 72, 16, 40];
/// How far past `--seconds` a run may go to reach [`MIN_SAMPLES`].
const MAX_OVERRUN: Duration = Duration::from_secs(60);

/// Keeps the two connections in step: both start each session step
/// together, so a request queues behind the other connection's request
/// of the same kind rather than behind whatever it happened to be
/// doing. The gate also makes the stop decision once for both: at the
/// deadline, once every latency class has its minimum count.
struct Lockstep {
    barrier: std::sync::Barrier,
    stop: AtomicBool,
    /// Samples per connection and [`Kind`], published at each gate.
    counts: [[AtomicU64; 4]; 2],
    /// Samples per [`Kind`], both connections together, before a stop.
    min: [u64; 4],
}

impl Lockstep {
    fn new(min: [u64; 4]) -> Self {
        Lockstep {
            barrier: std::sync::Barrier::new(2),
            stop: AtomicBool::new(false),
            counts: Default::default(),
            min,
        }
    }

    /// Waits for the other connection; false once the run is over
    /// (done measuring, or either connection broke).
    fn next(&self, conn: usize, out: &ConnResult, deadline: Instant, broken: bool) -> bool {
        for (kind, slot) in self.counts[conn].iter().enumerate() {
            let n = out
                .latencies
                .iter()
                .filter(|(k, _)| *k as usize == kind)
                .count();
            slot.store(n as u64, SeqCst);
        }
        if broken {
            self.stop.store(true, SeqCst);
        }
        if self.barrier.wait().is_leader() {
            let enough = (0..4).all(|kind| {
                self.counts[0][kind].load(SeqCst) + self.counts[1][kind].load(SeqCst)
                    >= self.min[kind]
            });
            let now = Instant::now();
            if (now >= deadline && enough) || now >= deadline + MAX_OVERRUN {
                self.stop.store(true, SeqCst);
            }
        }
        self.barrier.wait();
        !self.stop.load(SeqCst)
    }
}

/// One session's script: Submit, its Extends, a Query of the output.
fn session(
    conn: &mut Conn,
    out: &mut ConnResult,
    plan: &Plan,
    index: usize,
    spec: SessionSpec,
    round: u64,
) -> Result<(), String> {
    let key = spec.fingerprint();
    let (reply, ms) = conn.call(&line(&Request::Submit(spec.clone())))?;
    out.latencies.push((Kind::Submit, ms));
    out.steps.push((index, 0, ms));
    let ok = matches!(serde_json::from_str::<Response>(&reply),
        Ok(Response::Submitted(s)) if s.session == key && !s.warm && s.replicates == 0);
    out.checks.check(ok, || format!("Submit {key}: {reply}"));

    let kind = if plan.langevin() {
        Kind::ExtendLangevin
    } else {
        Kind::ExtendDirect
    };
    let extend = line(&Request::Extend(ExtendRequest {
        session: key.clone(),
        replicates: plan.extend,
    }));
    for e in 1..=plan.extends as u64 {
        let (reply, ms) = conn.call(&extend)?;
        out.latencies.push((kind, ms));
        out.steps.push((index, e as usize, ms));
        let ok = matches!(serde_json::from_str::<Response>(&reply),
            Ok(Response::Extended(x)) if x.replicates == e * plan.extend && x.simulated == plan.extend);
        out.checks.check(ok, || format!("Extend {key}: {reply}"));
        if ok {
            out.replicates += plan.extend;
        }
    }

    let query = line(&Request::Query(QueryRequest {
        session: key.clone(),
        species: vec![plan.output.clone()],
    }));
    let (reply, ms) = conn.call(&query)?;
    out.latencies.push((Kind::Query, ms));
    out.steps.push((index, plan.extends + 1, ms));
    let total = plan.extends as u64 * plan.extend;
    out.checks.check(queried_head(&reply, &key, total), || {
        format!("Query {key}: {}", &reply[..reply.len().min(200)])
    });
    out.served.push(Served {
        plan: index,
        round,
        spec,
        last_query: reply,
    });
    Ok(())
}

/// Re-queries a served session; the capacity bound has spilled it, so
/// it reloads, and the reloaded figures must be byte-identical.
fn revisit(
    conn: &mut Conn,
    out: &mut ConnResult,
    plans: &[Plan],
    slot: usize,
) -> Result<(), String> {
    let key = out.served[slot].spec.fingerprint();
    let index = out.served[slot].plan;
    let query = line(&Request::Query(QueryRequest {
        session: key.clone(),
        species: vec![plans[index].output.clone()],
    }));
    let (reply, ms) = conn.call(&query)?;
    out.latencies.push((Kind::Query, ms));
    out.steps.push((index, plans[index].extends + 2, ms));
    let same = reply == out.served[slot].last_query;
    out.checks
        .check(same, || format!("revisit of {key} changed its Query reply"));
    out.served[slot].last_query = reply;
    Ok(())
}

/// Drives one closed-loop connection, in step with the other, until
/// `deadline`; the session step in progress finishes.
fn drive(
    conn_id: usize,
    addr: &str,
    plans: &[Plan],
    seed: u64,
    deadline: Instant,
    gate: &Lockstep,
) -> Result<ConnResult, String> {
    let mut conn = Conn::open(addr);
    let mut out = ConnResult::default();
    let mut error: Option<String> = conn.as_ref().err().cloned();
    let mine: Vec<usize> = (0..plans.len()).filter(|i| i % 2 == conn_id).collect();
    let mut round = 0u64;
    'rounds: loop {
        let first = out.served.len();
        for &index in &mine {
            if !gate.next(conn_id, &out, deadline, error.is_some()) {
                break 'rounds;
            }
            let spec = plans[index].spec(session_seed(seed, conn_id, round, index));
            if let Ok(conn) = conn.as_mut() {
                if let Err(err) = session(conn, &mut out, &plans[index], index, spec, round) {
                    error.get_or_insert(err);
                }
            }
        }
        for slot in first..(first + REVISITS).min(out.served.len()) {
            if !gate.next(conn_id, &out, deadline, error.is_some()) {
                break 'rounds;
            }
            if let Ok(conn) = conn.as_mut() {
                if let Err(err) = revisit(conn, &mut out, plans, slot) {
                    error.get_or_insert(err);
                }
            }
        }
        round += 1;
    }
    match error {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

/// A running `glc-serve` and what set-up learned about it.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
    metrics_addr: String,
    dir: PathBuf,
}

/// Child pids of `pid`, from `/proc/*/stat`.
fn children_of(pid: u32) -> Vec<u32> {
    let mut children = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return children;
    };
    for entry in entries.flatten() {
        let Some(child) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command name: state, ppid, …
        let fields: Vec<&str> = stat
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        if fields.get(1).and_then(|p| p.parse::<u32>().ok()) == Some(pid) {
            children.push(child);
        }
    }
    children
}

/// Whether `pid` still runs (a zombie awaiting its reaper has ended).
fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => {
            let state = stat
                .rsplit(')')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .next();
            !matches!(state, Some("Z") | Some("X") | None)
        }
        Err(_) => false,
    }
}

impl Server {
    /// Spawns `glc-serve` and waits for its first reply: a warm-up
    /// Submit + Extend(4) that brings both worker slots up. Returns the
    /// server and the seconds from spawn to that reply.
    fn start(serve: &Path, dir: &Path, seed: u64) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let spill = dir.join("spill");
        std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
        let log_path = dir.join("glc-serve.stderr");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut child = Command::new(serve)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--metrics-addr",
                "127.0.0.1:0",
            ])
            .arg("--capacity")
            .arg(CAPACITY.to_string())
            .arg("--spill-dir")
            .arg(&spill)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let mut server = Server {
            child,
            stdin,
            addr: String::new(),
            metrics_addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let mut banner = String::new();
        if let Some(stdout) = stdout {
            let _ = BufReader::new(stdout).read_line(&mut banner);
        }
        let Some(addr) = banner.trim().strip_prefix("glc-serve listening on ") else {
            server.stop();
            return Err(format!("unexpected glc-serve banner `{}`", banner.trim()));
        };
        server.addr = addr.to_string();
        let warm = SessionSpec::new(
            ModelSource::Catalog("book_not".into()),
            EngineSpec::Direct,
            derive_seed(seed, &[5]) >> 11,
            10.0,
            1.0,
        );
        let warmed = (|| -> Result<bool, String> {
            let mut conn = Conn::open(&server.addr)?;
            conn.call(&line(&Request::Submit(warm.clone())))?;
            let (reply, _) = conn.call(&line(&Request::Extend(ExtendRequest {
                session: warm.fingerprint(),
                replicates: 4,
            })))?;
            Ok(reply.starts_with("{\"Extended\""))
        })();
        let setup = start.elapsed().as_secs_f64();
        match warmed {
            Ok(true) => {}
            Ok(false) => {
                server.stop();
                return Err("warm-up Extend failed".into());
            }
            Err(err) => {
                server.stop();
                return Err(err);
            }
        }
        // The scrape address goes to stderr; `:0` picked the port.
        let wait = Instant::now();
        while server.metrics_addr.is_empty() && wait.elapsed() < Duration::from_secs(5) {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            match log
                .lines()
                .find_map(|l| l.strip_prefix("metrics listening on "))
            {
                Some(addr) => server.metrics_addr = addr.trim().to_string(),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if server.metrics_addr.is_empty() {
            server.stop();
            return Err("glc-serve never reported its metrics address".into());
        }
        Ok((server, setup))
    }

    /// Closes stdin (glc-serve exits on EOF), waits for the server and
    /// for every worker it spawned, and removes the scratch directory.
    fn stop(&mut self) {
        let workers = children_of(self.child.id());
        drop(self.stdin.take());
        let wait = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if wait.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        for pid in workers {
            let wait = Instant::now();
            while alive(pid) && wait.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(5));
            }
            if alive(pid) {
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stop();
        }
    }
}

/// What one served phase measured.
struct Phase {
    results: Vec<ConnResult>,
    wall: f64,
    stats: ServiceStats,
    scrape: String,
}

/// Serves the script over two connections until `seconds` pass and
/// each [`Kind`] has `min` samples, then reads the final Stats reply
/// and one scrape.
fn serve_phase(
    server: &Server,
    plans: &[Plan],
    seed: u64,
    seconds: f64,
    min: [u64; 4],
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = server.addr.as_str();
    let gate = Lockstep::new(min);
    let gate = &gate;
    let (first, second) = std::thread::scope(|scope| {
        let other = scope.spawn(move || drive(1, addr, plans, seed, deadline, gate));
        let first = drive(0, addr, plans, seed, deadline, gate);
        (first, other.join().expect("connection thread panicked"))
    });
    let wall = start.elapsed().as_secs_f64();
    let results = vec![first?, second?];
    let (reply, _) = Conn::open(addr)?.call(&line(&Request::Stats))?;
    let stats = match serde_json::from_str::<Response>(&reply) {
        Ok(Response::Stats(stats)) => stats,
        _ => {
            return Err(format!(
                "unexpected Stats reply: {}",
                &reply[..reply.len().min(200)]
            ))
        }
    };
    let scrape = scrape(&server.metrics_addr)?;
    Ok(Phase {
        results,
        wall,
        stats,
        scrape,
    })
}

fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("scrape: {e}"))?;
    Ok(body)
}

/// Replays `served` sessions in-process through `SessionStore` with
/// `ExtendBackend::InProcess` and compares each final Query line, byte
/// for byte, with the one the server sent.
fn check_in_process(
    outcome: &mut Outcome,
    plans: &[Plan],
    served: &[&Served],
) -> Result<(), String> {
    for session in served {
        let plan = &plans[session.plan];
        let mut store =
            SessionStore::new(4, ExtendBackend::InProcess).map_err(|e| e.to_string())?;
        let key = session.spec.fingerprint();
        store.handle_json_line(&line(&Request::Submit(session.spec.clone())));
        for _ in 0..plan.extends {
            store.handle_json_line(&line(&Request::Extend(ExtendRequest {
                session: key.clone(),
                replicates: plan.extend,
            })));
        }
        let reply = store.handle_json_line(&line(&Request::Query(QueryRequest {
            session: key.clone(),
            species: vec![plan.output.clone()],
        })));
        outcome.check(reply.as_bytes() == session.last_query.as_bytes(), || {
            format!("{key}: served Query differs from the in-process store")
        });
    }
    Ok(())
}

fn binaries(args: &Args) -> Result<(PathBuf, PathBuf), String> {
    let serve = args.serve.clone().ok_or("--serve PATH is required")?;
    let worker = args.worker.clone().ok_or("--worker PATH is required")?;
    for path in [&serve, &worker] {
        if !path.is_file() {
            return Err(format!("{} does not exist", path.display()));
        }
    }
    Ok((serve, worker))
}

/// Starts the server [`SETUPS`] times, keeping the last one.
fn set_up(args: &Args, serve: &Path) -> Result<(Server, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(mut previous) = server.take() {
            Server::stop(&mut previous);
        }
        let dir = args
            .scratch
            .join(format!("serve-{}-{i}", std::process::id()));
        let (started, seconds) = Server::start(serve, &dir, args.seed)?;
        setups.push(seconds);
        server = Some(started);
    }
    Ok((server.expect("SETUPS >= 1"), setups))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (serve, worker) = binaries(args)?;
    let plans = plans()?;
    let (mut server, setups) = set_up(args, &serve)?;
    let (seconds, min) = if args.trace {
        (args.seconds / 2.0, TRACE_MIN_SAMPLES)
    } else {
        (args.seconds, MIN_SAMPLES)
    };
    let phase = serve_phase(&server, &plans, args.seed, seconds, min);
    server.stop();
    let phase = phase?;

    let mut outcome = Outcome::default();
    let mut lat: Vec<(Kind, f64)> = Vec::new();
    let mut steps: Vec<(usize, usize, f64)> = Vec::new();
    let mut replicates = 0;
    for result in &phase.results {
        outcome.attempted += result.checks.attempted;
        outcome.failed += result.checks.failed;
        lat.extend(&result.latencies);
        steps.extend(&result.steps);
        replicates += result.replicates;
    }
    // The server simulated exactly what the clients asked for, plus the
    // warm-up Extend.
    outcome.check(phase.stats.simulated == replicates + 4, || {
        format!(
            "server simulated {} replicates, clients merged {replicates} + 4",
            phase.stats.simulated
        )
    });
    // Byte-identity against the in-process store: one Direct and one
    // Langevin session per connection.
    let mut sampled: Vec<&Served> = Vec::new();
    for result in &phase.results {
        for langevin in [false, true] {
            if let Some(s) = result
                .served
                .iter()
                .find(|s| plans[s.plan].langevin() == langevin)
            {
                sampled.push(s);
            }
        }
    }
    check_in_process(&mut outcome, &plans, &sampled)?;

    eprintln!(
        "service_sessions: {} submits, {} direct extends, {} langevin extends, {} queries, {} sessions in {:.1} s",
        of_kind(&lat, Kind::Submit).len(),
        of_kind(&lat, Kind::ExtendDirect).len(),
        of_kind(&lat, Kind::ExtendLangevin).len(),
        of_kind(&lat, Kind::Query).len(),
        of_kind(&lat, Kind::Submit).len(),
        phase.wall
    );
    if args.trace {
        return traced(args, &worker, &plans, &phase, &lat, outcome);
    }
    // One session of every plan, each request step at its fast end: the
    // plans and steps differ in cost by up to 10x, so each (plan, step)
    // is a part of its own.
    let mut parts: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for &(plan, step, ms) in &steps {
        parts.entry((plan, step)).or_default().push(ms);
    }
    let expected: usize = plans.iter().map(|p| p.extends + 2).sum::<usize>() + 2 * REVISITS;
    outcome.check(parts.len() == expected, || {
        format!("{} of {expected} plan steps were served", parts.len())
    });
    let of = |langevin_too: bool| -> Vec<Vec<f64>> {
        parts
            .iter()
            .filter(|((plan, _), _)| langevin_too || !plans[*plan].langevin())
            .map(|(_, samples)| samples.clone())
            .collect()
    };
    let direct_round = fast_sum(&of(false));
    let full_round = fast_sum(&of(true));
    let round_replicates: u64 = plans.iter().map(|p| p.extend * p.extends as u64).sum();
    eprintln!(
        "  fast round {full_round:.3} ms of session time ({direct_round:.3} ms Direct); wall throughput {:.3} replicates/s",
        replicates as f64 / phase.wall
    );
    let verified = outcome.passed_share();
    outcome.metric("op_ms_p10", direct_round, "ms");
    outcome.metric(
        "work_per_s",
        round_replicates as f64 / (full_round / 1e3),
        "1/s",
    );
    outcome.metric("verified_fraction", verified, "ratio");
    outcome.metric("setup_s", median(&setups), "s");
    Ok(outcome)
}

/// The client latencies of one [`Kind`], in milliseconds.
fn of_kind(lat: &[(Kind, f64)], kind: Kind) -> Vec<f64> {
    lat.iter()
        .filter(|(k, _)| *k == kind)
        .map(|&(_, ms)| ms)
        .collect()
}

/// Interpolated median of a cumulative histogram given as
/// `(upper_bound, cumulative_count)` pairs; `None` for an empty one.
fn histogram_p50(buckets: &[(f64, u64)]) -> Option<f64> {
    let &(_, total) = buckets.last().filter(|b| b.1 > 0)?;
    let half = total as f64 / 2.0;
    let mut lower = (0.0, 0u64);
    for &(bound, cumulative) in buckets {
        if cumulative as f64 >= half && cumulative > lower.1 {
            let share = (half - lower.1 as f64) / (cumulative - lower.1) as f64;
            return Some(lower.0 + share * (bound - lower.0));
        }
        lower = (bound, cumulative);
    }
    Some(lower.0)
}

/// Sums a scrape family's samples whose label set contains `filter`;
/// `None` when the scrape has no such sample.
fn scrape_sum(scrape: &str, family: &str, filter: &str) -> Option<f64> {
    scrape
        .lines()
        .filter(|l| l.starts_with(family) && l.contains(filter))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(None, |sum, v| Some(sum.unwrap_or(0.0) + v))
}

/// The shard-latency buckets of the scrape, summed over slots.
fn shard_buckets(scrape: &str) -> Vec<(f64, u64)> {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for l in scrape
        .lines()
        .filter(|l| l.starts_with("glc_shard_seconds_bucket{"))
    {
        let Some(le) = l.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
            continue;
        };
        let Ok(bound) = le.parse::<f64>() else {
            continue; // +Inf
        };
        let count = l
            .rsplit(' ')
            .next()
            .and_then(|c| c.parse::<u64>().ok())
            .unwrap_or(0);
        match buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some(entry) => entry.1 += count,
            None => buckets.push((bound, count)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    buckets
}

/// The session ops of one in-process replay, with layer spans.
struct Replay<'a> {
    tracer: Tracer,
    pool: WorkerPool,
    cache: ModelCache,
    spill: PathBuf,
    plans: &'a [Plan],
}

impl Replay<'_> {
    /// Replays one served session (Submit, Extends, Query, and a
    /// reloading Query when `revisit`); returns the final Query line.
    fn session(
        &mut self,
        served: &Served,
        revisit: bool,
        outcome: &mut Outcome,
    ) -> Result<String, String> {
        let plan = &self.plans[served.plan];
        let spec = &served.spec;
        let key = spec.fingerprint();
        let order = |first: u64, count: u64| WorkOrder {
            model: spec.model.clone(),
            set_amounts: spec.set_amounts.clone(),
            engine: spec.engine.clone(),
            base_seed: spec.base_seed,
            first_replicate: first,
            replicates: count,
            t_end: spec.t_end,
            sample_dt: spec.sample_dt,
        };
        let t = &mut self.tracer;

        let top = t.open("service.submit");
        let (model, _) = t
            .span("service.compile", || {
                order(0, 1).compile_model_in(&self.cache)
            })
            .map_err(|e| e.to_string())?;
        let mut partial =
            EnsemblePartial::new(&model, spec.t_end, spec.sample_dt).map_err(|e| e.to_string())?;
        t.close(top);

        for e in 0..plan.extends as u64 {
            let work = order(e * plan.extend, plan.extend);
            let top = t.open("service.extend");
            let (fresh, _report) = t
                .span("service.pool_run", || self.pool.run(&work))
                .map_err(|e| e.to_string())?;
            t.span("ssa.merge", || partial.merge(&fresh))
                .map_err(|e| e.to_string())?;
            let written = t
                .span("service.spill_write", || {
                    write_spill(&self.spill, spec, &partial)
                })
                .map_err(|e| e.to_string())?;
            t.close(top);
            let bytes = std::fs::metadata(&written).map(|m| m.len()).unwrap_or(0);
            t.count("service.snapshot_bytes", bytes);

            // The GLCB round trip a worker reply takes inside the pool
            // run, timed on its own outside the Extend span so the
            // Extend split covers only the calls `SessionStore` makes.
            let reply = BinaryReply::Partial(fresh.clone());
            let codec_span = t.open("service.codec");
            let payload = codec::encode_reply(e, &reply);
            let decoded = codec::decode_reply(&payload);
            t.close(codec_span);
            t.count("service.reply_bytes", payload.len() as u64);
            outcome.check(
                matches!(&decoded, Ok((_, BinaryReply::Partial(p))) if *p == fresh),
                || format!("{key}: GLCB reply did not round-trip"),
            );
            // The same order on this thread: the engine's own cost.
            let engine_span = if plan.langevin() {
                "ssa.ensemble_langevin"
            } else {
                "ssa.ensemble_direct"
            };
            let local = t
                .span(engine_span, || work.execute())
                .map_err(|e| e.to_string())?;
            outcome.check(local == fresh, || {
                format!("{key}: pool partial differs from execute")
            });
        }

        let mut reply = self.query(spec, &partial, plan, false)?;
        if revisit {
            reply = self.query(spec, &partial, plan, true)?;
        }
        Ok(reply)
    }

    /// The Query path: optional spill reload, finalize, noise, encode.
    fn query(
        &mut self,
        spec: &SessionSpec,
        resident: &EnsemblePartial,
        plan: &Plan,
        reload: bool,
    ) -> Result<String, String> {
        let t = &mut self.tracer;
        let key = spec.fingerprint();
        let top = t.open("service.query");
        let reloaded;
        let partial = if reload {
            let read = t.span("service.spill_reload", || read_spill(&self.spill, &key));
            reloaded = read
                .map_err(|e| e.to_string())?
                .ok_or(format!("{key}: no snapshot"))?
                .1;
            &reloaded
        } else {
            resident
        };
        let ensemble = t
            .span("ssa.finalize", || partial.finalize())
            .map_err(|e| e.to_string())?;
        let points = t
            .span("vasim.noise", || ensemble_noise(&ensemble, &plan.output))
            .ok_or(format!("{key}: no {}", plan.output))?;
        let queried = Queried {
            session: key.clone(),
            replicates: partial.replicates(),
            mean: ensemble.mean,
            std_dev: ensemble.std_dev,
            noise: vec![SpeciesNoise {
                species: plan.output.clone(),
                points,
            }],
            simulated: 0,
        };
        let reply = t
            .span("service.reply_encode", || {
                serde_json::to_string(&Envelope::bare(Response::Queried(queried)))
            })
            .map_err(|e| e.to_string())?;
        t.close(top);
        Ok(reply)
    }
}

/// The traced run: server-side numbers from the served half, layer
/// spans from the in-process replay of the served sessions.
fn traced(
    args: &Args,
    worker: &Path,
    plans: &[Plan],
    phase: &Phase,
    lat: &[(Kind, f64)],
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    // Client latency by request kind over the served half.
    for (name, kind, q) in [
        ("service.submit_ms_p50", Kind::Submit, 0.5),
        ("service.extend_direct_ms_p50", Kind::ExtendDirect, 0.5),
        ("service.extend_direct_ms_p90", Kind::ExtendDirect, 0.9),
        ("service.extend_langevin_ms_p50", Kind::ExtendLangevin, 0.5),
        ("service.query_ms_p50", Kind::Query, 0.5),
        ("service.query_ms_p90", Kind::Query, 0.9),
    ] {
        outcome.metric(name, quantile(&of_kind(lat, kind), q), "ms");
    }
    let replicates: u64 = phase.results.iter().map(|r| r.replicates).sum();
    outcome.metric(
        "service.replicates_per_s",
        replicates as f64 / phase.wall,
        "1/s",
    );
    let stats = &phase.stats;
    let lookups = (stats.model_cache_hits + stats.model_cache_misses).max(1);
    outcome.metric(
        "service.model_cache_hit_ratio",
        stats.model_cache_hits as f64 / lookups as f64,
        "ratio",
    );
    let chunks: u64 = stats.slots.iter().map(|s| s.successes + s.failures).sum();
    outcome.metric("service.chunks", chunks as f64, "count");
    outcome.metric(
        "service.steal_ratio",
        stats.pool_steals as f64 / chunks.max(1) as f64,
        "ratio",
    );
    outcome.metric(
        "service.retry_ratio",
        stats.pool_retries as f64 / chunks.max(1) as f64,
        "ratio",
    );
    outcome.layer(
        "service.shard_s_p50",
        histogram_p50(&shard_buckets(&phase.scrape)),
        "s",
    );
    outcome.layer(
        "service.frame_bytes_in",
        scrape_sum(&phase.scrape, "glc_frame_bytes_total{", "dir=\"rx\""),
        "bytes",
    );
    outcome.layer(
        "service.frame_bytes_out",
        scrape_sum(&phase.scrape, "glc_frame_bytes_total{", "dir=\"tx\""),
        "bytes",
    );
    // Head-of-line wait: each request's client latency minus the
    // server's mean latency for its kind.
    let server_mean_ms = |kind: &str| -> Option<f64> {
        stats
            .latency
            .iter()
            .find(|l| l.kind == kind)
            .filter(|l| l.histogram.count > 0)
            .map(|l| l.histogram.sum_seconds / l.histogram.count as f64 * 1e3)
    };
    let waits: Option<Vec<f64>> = lat
        .iter()
        .map(|&(kind, ms)| {
            let label = match kind {
                Kind::Submit => "submit",
                Kind::ExtendDirect | Kind::ExtendLangevin => "extend",
                Kind::Query => "query",
            };
            Some(ms - server_mean_ms(label)?)
        })
        .collect();
    outcome.layer("service.queue_wait_ms_p50", waits.map(|w| median(&w)), "ms");

    // In-process replay against a pool of two real worker slots.
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(PipelinedWorker::new(worker)),
        Box::new(PipelinedWorker::new(worker)),
    ];
    let spill = args.scratch.join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let mut replay = Replay {
        tracer: Tracer::new(true),
        pool: WorkerPool::new(transports).map_err(|e| e.to_string())?,
        cache: ModelCache::default(),
        spill: spill.clone(),
        plans,
    };
    let mut served: Vec<&Served> = phase.results.iter().flat_map(|r| r.served.iter()).collect();
    served.sort_by_key(|s| (s.round, s.plan));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    // Each plan's sessions alternate traced / untraced, so paired walls
    // of the same plan differ only by the recording.
    let mut walls: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; plans.len()];
    let mut replayed = 0usize;
    // Sorted by round, the first `2 * plans.len()` sessions are two of
    // each plan: every span the metrics below read is recorded, and
    // every plan has one session with recording on and one with it off.
    for (i, session) in served.iter().enumerate() {
        if Instant::now() >= deadline && replayed >= 2 * plans.len() {
            break;
        }
        let pair = &walls[session.plan];
        let on = pair[0].len() <= pair[1].len();
        replay.tracer.set_enabled(on);
        replay
            .tracer
            .set_request(i as u64, u32::from(plans[session.plan].langevin()));
        let start = Instant::now();
        let revisit = session.plan < 2 * REVISITS;
        let reply = replay.session(session, revisit, &mut outcome)?;
        walls[session.plan][usize::from(!on)].push(start.elapsed().as_secs_f64());
        outcome.check(reply == session.last_query, || {
            format!(
                "{}: replayed Query differs from the served one",
                session.spec.fingerprint()
            )
        });
        replayed += 1;
    }
    drop(replay.pool);
    let _ = std::fs::remove_dir_all(&spill);
    let t = &replay.tracer;
    for (metric, span) in [
        ("service.compile_s", "service.compile"),
        ("service.pool_run_s", "service.pool_run"),
        ("ssa.ensemble_direct_s", "ssa.ensemble_direct"),
        ("ssa.ensemble_langevin_s", "ssa.ensemble_langevin"),
        ("service.codec_s", "service.codec"),
        ("ssa.merge_s", "ssa.merge"),
        ("service.spill_write_s", "service.spill_write"),
        ("service.spill_reload_s", "service.spill_reload"),
        ("ssa.finalize_s", "ssa.finalize"),
        ("vasim.noise_s", "vasim.noise"),
        ("service.reply_encode_s", "service.reply_encode"),
    ] {
        outcome.layer(metric, t.mean(span), "s");
    }
    // Every pool run has an `execute` of the same order beside it.
    let executes = t.calls("ssa.ensemble_direct") + t.calls("ssa.ensemble_langevin");
    let execute_total = t
        .total("ssa.ensemble_direct")
        .zip(t.total("ssa.ensemble_langevin"))
        .map(|(d, l)| d + l);
    outcome.layer(
        "service.transport_overhead_s",
        t.mean("service.pool_run")
            .zip(execute_total)
            .map(|(pool, execute)| pool - execute / executes as f64),
        "s",
    );
    let extends = t.calls("service.extend") as f64;
    for name in ["service.reply_bytes", "service.snapshot_bytes"] {
        let per_extend = t.counter(name).map(|bytes| bytes as f64 / extends);
        outcome.layer(name, per_extend, "bytes");
    }
    outcome.layer(
        "trace.coverage.extend",
        t.coverage("service.extend"),
        "ratio",
    );
    let (mut on_wall, mut off_wall) = (0.0, 0.0);
    for [on, off] in &walls {
        let pairs = on.len().min(off.len());
        on_wall += on[..pairs].iter().sum::<f64>();
        off_wall += off[..pairs].iter().sum::<f64>();
    }
    let overhead = (off_wall > 0.0).then(|| on_wall / off_wall - 1.0);
    outcome.layer("trace.overhead", overhead, "ratio");
    let share = |part: &str, whole: &str| t.total(part).zip(t.total(whole)).map(|(p, w)| p / w);
    outcome.layer(
        "split.pool_share_of_extend",
        share("service.pool_run", "service.extend"),
        "ratio",
    );
    outcome.layer(
        "split.finalize_share_of_query",
        share("ssa.finalize", "service.query"),
        "ratio",
    );
    eprintln!(
        "service_sessions traced: replayed {replayed} of {} served sessions",
        served.len()
    );
    crate::paper::write_spans(args, t);
    Ok(outcome)
}
