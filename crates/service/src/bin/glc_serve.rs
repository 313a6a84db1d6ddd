//! `glc-serve`: the resident ensemble query service.
//!
//! Protocol: **one request per line** on stdin (a
//! [`glc_service::Request`] as JSON, optionally wrapped in an
//! [`glc_service::Envelope`] carrying a correlation `id`), **one
//! response per line** on stdout (flushed immediately, with the
//! request's `id` — if any — echoed back; string ids round-trip
//! byte-exactly, numbers normalize through the JSON layer). Malformed
//! lines, including ones that are not UTF-8, produce an
//! `{"Error": …}` response; the service keeps serving until stdin
//! reaches EOF. Nothing but responses is ever written to stdout,
//! so the stream can be machine-consumed (diagnostics — including the
//! bound metrics address — go to stderr).
//!
//! The process keeps compiled models and partially-aggregated
//! ensembles warm in an LRU-bounded session store: `Submit` compiles
//! and caches, `Extend` simulates only the new seed range and merges
//! it into the resident partial, `Query` finalizes figures with zero
//! simulation work, `Stats` reports the operator snapshot (counters,
//! latency histograms, slot health, session footprints). Extends run
//! in-process by default, or over a worker pool mixing resident
//! `glc-worker` children (`--workers`, `--worker-slot`) and sockets to
//! `glc-worker --listen` hosts (`--relay`), every slot speaking framed GLCB —
//! the pool homes chunks by observed slot throughput, steals, and
//! quarantines consistently failing slots, none of which can move a
//! bit of the result. With `--spill-dir`, sessions
//! *and pool health* survive eviction and process death: every Extend
//! write-through-snapshots the session, an Extend that changes a slot's
//! failure, retry or quarantine record persists `pool_health.json`, and
//! a restarted service transparently resumes from the snapshots with
//! quarantine state intact.
//!
//! Flags:
//!
//! * `--capacity N` — resident-session bound (default 16; LRU evicts
//!   beyond it);
//! * `--workers N`  — add N resident `glc-worker` child slots to the
//!   Extend pool (default 0);
//! * `--worker-bin PATH` — the worker binary for `--workers`
//!   (default: `glc-worker` next to this executable);
//! * `--worker-slot PATH` — add one worker slot of exactly this binary
//!   (repeatable; combines with `--workers`/`--relay`, which is how a
//!   drill mixes a known-dead marker script with real workers);
//! * `--relay HOST:PORT` — add one relay slot holding a framed
//!   connection to a `glc-worker --listen` at that address
//!   (repeatable; each slot is one connection, and the worker runs one
//!   order per connection at a time);
//! * `--quarantine-after N` — consecutive failures that quarantine a
//!   pool slot (default 3);
//! * `--spill-dir PATH` — durable session snapshots + pool health
//!   (see above);
//! * `--spill-max-bytes N` — spill-dir GC size bound: oldest session
//!   snapshots are evicted until the rest fit (the newest survives);
//! * `--spill-max-age SECONDS` — spill-dir GC age bound: snapshots not
//!   rewritten within the window are collected;
//! * `--metrics-addr HOST:PORT` — serve a Prometheus-style plain-text
//!   scrape (`GET /metrics`) on this address; the bound address is
//!   printed to **stderr** (`metrics listening on …`), so `:0` picks a
//!   free port without disturbing the protocol stream;
//! * `--listen HOST:PORT` — serve the same line protocol (or GLCB
//!   frames) to many concurrent TCP clients instead of stdin, one
//!   thread per connection with one request in flight each, all fed to
//!   the one session store in arrival order (see [`serve_listener`]);
//!   the bound address is printed to **stdout** (`glc-serve listening
//!   on …`), and the process still exits when stdin reaches EOF.

use glc_service::codec;
use glc_service::{
    frame, metrics, transport, ExtendBackend, MetricsRegistry, SessionStore, Transport, WorkerPool,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Parsed command line.
struct Options {
    capacity: usize,
    workers: usize,
    worker_bin: Option<PathBuf>,
    worker_slots: Vec<PathBuf>,
    relays: Vec<String>,
    quarantine_after: Option<u64>,
    spill_dir: Option<PathBuf>,
    spill_max_bytes: Option<u64>,
    spill_max_age: Option<u64>,
    metrics_addr: Option<String>,
    listen: Option<String>,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        capacity: 16,
        workers: 0,
        worker_bin: None,
        worker_slots: Vec::new(),
        relays: Vec::new(),
        quarantine_after: None,
        spill_dir: None,
        spill_max_bytes: None,
        spill_max_age: None,
        metrics_addr: None,
        listen: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--capacity" => {
                options.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--worker-bin" => {
                options.worker_bin = Some(PathBuf::from(value("--worker-bin")?));
            }
            "--worker-slot" => {
                options
                    .worker_slots
                    .push(PathBuf::from(value("--worker-slot")?));
            }
            "--relay" => {
                options.relays.push(value("--relay")?);
            }
            "--quarantine-after" => {
                options.quarantine_after = Some(
                    value("--quarantine-after")?
                        .parse()
                        .map_err(|e| format!("--quarantine-after: {e}"))?,
                );
            }
            "--spill-dir" => {
                options.spill_dir = Some(PathBuf::from(value("--spill-dir")?));
            }
            "--spill-max-bytes" => {
                options.spill_max_bytes = Some(
                    value("--spill-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--spill-max-bytes: {e}"))?,
                );
            }
            "--spill-max-age" => {
                options.spill_max_age = Some(
                    value("--spill-max-age")?
                        .parse()
                        .map_err(|e| format!("--spill-max-age: {e}"))?,
                );
            }
            "--metrics-addr" => {
                options.metrics_addr = Some(value("--metrics-addr")?);
            }
            "--listen" => {
                options.listen = Some(value("--listen")?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

/// The `glc-worker` binary expected beside this executable.
fn sibling_worker() -> Result<PathBuf, String> {
    let mut path = std::env::current_exe().map_err(|e| format!("locating glc-serve: {e}"))?;
    path.set_file_name("glc-worker");
    Ok(path)
}

fn run() -> Result<(), String> {
    let options = parse_options()?;
    let registry = Arc::new(MetricsRegistry::new());
    let pooled =
        options.workers > 0 || !options.worker_slots.is_empty() || !options.relays.is_empty();
    let backend = if !pooled {
        ExtendBackend::InProcess
    } else {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        if options.workers > 0 {
            let worker = match options.worker_bin.clone() {
                Some(path) => path,
                None => sibling_worker()?,
            };
            for _ in 0..options.workers {
                transports.push(Box::new(transport::PipelinedWorker::new(&worker)));
            }
        }
        for slot in &options.worker_slots {
            transports.push(Box::new(transport::PipelinedWorker::new(slot)));
        }
        for relay in &options.relays {
            transports.push(Box::new(transport::PipelinedWorker::connect(relay.clone())));
        }
        let mut pool = WorkerPool::new(transports).map_err(|e| e.to_string())?;
        if let Some(failures) = options.quarantine_after {
            pool = pool
                .with_quarantine_after(failures)
                .map_err(|e| e.to_string())?;
        }
        ExtendBackend::Pool(pool)
    };
    let mut store = SessionStore::new(options.capacity, backend)
        .map_err(|e| e.to_string())?
        .with_metrics(Arc::clone(&registry));
    if let Some(dir) = options.spill_dir {
        store = store.with_spill_dir(dir);
    }
    if let Some(max_bytes) = options.spill_max_bytes {
        store = store.with_spill_max_bytes(max_bytes);
    }
    if let Some(seconds) = options.spill_max_age {
        store = store.with_spill_max_age(Duration::from_secs(seconds));
    }
    if let Some(addr) = &options.metrics_addr {
        let (bound, _listener) = metrics::serve_scrape(addr, Arc::clone(&registry))
            .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
        // stdout is protocol-only; the bound address (which matters
        // when the caller asked for port 0) goes to stderr.
        eprintln!("metrics listening on {bound}");
    }

    if let Some(addr) = &options.listen {
        return serve_listener(addr, &mut store);
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut out = stdout.lock();
    // Request lines are capped at the frame payload limit — a caller
    // that never sends a newline gets an error instead of growing the
    // process without bound.
    loop {
        let line = match frame::read_line_capped(&mut input) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(err) => return Err(format!("reading request: {err}")),
        };
        if line.trim().is_empty() {
            continue;
        }
        let encoded = store.handle_json_line(&line);
        writeln!(out, "{encoded}").map_err(|e| format!("writing response: {e}"))?;
        out.flush().map_err(|e| format!("flushing response: {e}"))?;
    }
}

/// One request line handed from a connection thread to the store,
/// with the channel its encoded reply goes back on.
struct Job {
    line: String,
    reply: mpsc::Sender<String>,
}

/// The multiplexed front-end behind `--listen`: one thread per
/// accepted connection doing blocking I/O, and the session store on
/// the calling thread, fed over one channel.
///
/// The protocol is byte-for-byte the stdin protocol — one
/// `Request`-as-JSON per line, one response line back, `Envelope` ids
/// echoed — so anything scripted against the stdin loop works
/// unchanged against a socket. Each connection keeps one request in
/// flight: its thread reads a request, hands it to the store, waits
/// for the reply and writes it before reading the next, so replies to
/// one client's pipelined requests come back **in request order**.
/// The store serves requests from all connections one at a time in
/// the order they arrive. A connection's thread writes its own
/// replies, so a client that stops reading blocks only that thread,
/// never the store.
///
/// Each connection's framing is sniffed from its first byte: line
/// clients send newline-delimited requests (capped at the frame
/// payload limit), while a client that opens with a GLCF frame must
/// complete the GLCB hello exchange and then sends one GLCB `Text`
/// request per frame, answered by one frame carrying the
/// byte-identical response line. A framed client whose hello is not a
/// GLCB hello of this version is dropped. One socket thus serves
/// binary and line clients side by side.
///
/// Prints exactly one stdout banner — `glc-serve listening on
/// HOST:PORT` — so a parent that bound port 0 can scrape the chosen
/// port, and exits when stdin reaches EOF (a dying parent cannot leak
/// resident services).
fn serve_listener(addr: &str, store: &mut SessionStore) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    println!("glc-serve listening on {bound}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing address line: {e}"))?;
    let (jobs, requests) = mpsc::channel::<Job>();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            std::process::exit(0);
        });
        scope.spawn(move || {
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(err) => {
                        eprintln!("glc-serve: accept failed: {err}");
                        continue;
                    }
                };
                let jobs = jobs.clone();
                scope.spawn(move || {
                    let peer = stream
                        .peer_addr()
                        .map_or_else(|_| "a client".to_string(), |peer| peer.to_string());
                    if let Err(err) = serve_connection(&stream, &jobs) {
                        eprintln!("glc-serve: {peer}: {err}");
                    }
                });
            }
        });
        for job in requests {
            // A connection that hung up while its request ran no
            // longer wants the reply.
            let _ = job.reply.send(store.handle_json_line(&job.line));
        }
    });
    Ok(())
}

/// Serves one `--listen` connection until the peer closes it: sniffs
/// its framing from the first byte, then hands each request to the
/// store and writes the reply before reading the next. `Err` names
/// the protocol violation or I/O failure that ended the connection.
fn serve_connection(stream: &TcpStream, jobs: &mpsc::Sender<Job>) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let (reply, replies) = mpsc::channel();
    let ask = |line: String| -> Result<String, String> {
        let job = Job {
            line,
            reply: reply.clone(),
        };
        jobs.send(job)
            .map_err(|_| "the store stopped".to_string())?;
        replies.recv().map_err(|_| "the store stopped".to_string())
    };
    // The GLCF magic starts with `G`, while a JSON request line can
    // only start with `{`, `"` or whitespace.
    let framed = match reader.fill_buf() {
        Ok([]) => return Ok(()),
        Ok(bytes) => bytes[0] == glc_service::FRAME_MAGIC[0],
        Err(err) => return Err(format!("reading: {err}")),
    };
    if !framed {
        while let Some(line) = frame::read_line_capped(&mut reader).map_err(|e| e.to_string())? {
            if line.trim().is_empty() {
                continue;
            }
            let mut encoded = ask(line)?;
            encoded.push('\n');
            writer
                .write_all(encoded.as_bytes())
                .map_err(|e| format!("writing: {e}"))?;
        }
        return Ok(());
    }
    let Some(hello) = frame::read_frame(&mut reader).map_err(|e| e.to_string())? else {
        return Ok(());
    };
    codec::decode_hello(&hello).map_err(|e| format!("bad hello: {e}"))?;
    let hello = codec::encode_hello();
    metrics::count_frame_tx(hello.len());
    frame::write_frame(&mut writer, &hello).map_err(|e| e.to_string())?;
    // One request per frame; the reply line bytes are byte-identical
    // to the stdin protocol's.
    while let Some(payload) = frame::read_frame(&mut reader).map_err(|e| e.to_string())? {
        metrics::count_frame_rx(payload.len());
        let line = codec::decode_text(&payload).map_err(|e| e.to_string())?;
        let encoded = codec::encode_text(&ask(line)?);
        metrics::count_frame_tx(encoded.len());
        frame::write_frame(&mut writer, &encoded).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
