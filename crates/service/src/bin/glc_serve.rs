//! `glc-serve`: the resident ensemble query service.
//!
//! Protocol: **one request per line** on stdin (a
//! [`glc_service::Request`] as JSON, optionally wrapped in an
//! [`glc_service::Envelope`] carrying a correlation `id`), **one
//! response per line** on stdout (flushed immediately, with the
//! request's `id` — if any — echoed back; string ids round-trip
//! byte-exactly, numbers normalize through the JSON layer). Malformed
//! produce an `{"Error": …}` response; the service keeps serving until
//! stdin reaches EOF. Nothing but responses is ever written to stdout,
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
//! `glc-worker` children (`--workers`, `--worker-slot`) and remote
//! `glc-relay` hosts (`--relay`), every slot speaking framed GLCB —
//! the pool homes chunks by observed slot throughput, steals, and
//! quarantines consistently failing slots, none of which can move a
//! bit of the result. With `--spill-dir`, sessions
//! *and pool health* survive eviction and process death: every Extend
//! write-through-snapshots the session and persists
//! `pool_health.json`, and a restarted service transparently resumes
//! from the snapshots with quarantine state intact.
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
//!   connection to a `glc-relay` at that address (repeatable);
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
//!   frames) to many concurrent TCP clients over a single-threaded
//!   nonblocking readiness loop instead of stdin (see
//!   [`serve_listener`]); the bound address is printed to **stdout**
//!   (`glc-serve listening on …`), and the process still exits when
//!   stdin reaches EOF.

use glc_service::codec;
use glc_service::{
    frame, metrics, transport, ExtendBackend, MetricsRegistry, SessionStore, Transport, WorkerPool,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
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
            transports.push(Box::new(transport::PipelinedRelay::new(relay.clone())));
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

/// How one multiplexed client frames its requests, sniffed from the
/// first byte it sends: the GLCF magic starts with `G`, while a JSON
/// request line can only start with `{`, `"` or whitespace.
enum ClientMode {
    /// No bytes seen yet.
    Sniffing,
    /// Newline-delimited JSON lines.
    Line,
    /// Length-prefixed GLCF frames; after the hello exchange each
    /// frame carries one session request as GLCB `Text`, answered by
    /// one GLCB `Text` frame.
    Framed {
        decoder: frame::FrameDecoder,
        hello_done: bool,
    },
}

/// One multiplexed client connection: raw bytes in, complete request
/// lines handled, response bytes queued back out.
struct ClientConn {
    stream: std::net::TcpStream,
    peer: String,
    mode: ClientMode,
    /// Bytes received but not yet forming a complete request.
    read_buf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// The peer half-closed its sending side; the connection is
    /// dropped once `write_buf` drains.
    eof: bool,
}

impl ClientConn {
    /// Handles every complete request buffered so far, appending the
    /// responses to `write_buf`. `Err` means the connection is beyond
    /// saving (protocol violation); the message has been logged.
    fn pump(&mut self, store: &mut SessionStore, progressed: &mut bool) -> Result<(), ()> {
        if matches!(self.mode, ClientMode::Sniffing) {
            match self.read_buf.first() {
                None => return Ok(()),
                Some(&first) if first == glc_service::FRAME_MAGIC[0] => {
                    self.mode = ClientMode::Framed {
                        decoder: frame::FrameDecoder::new(),
                        hello_done: false,
                    };
                }
                Some(_) => self.mode = ClientMode::Line,
            }
        }
        match &mut self.mode {
            ClientMode::Sniffing => unreachable!("sniffed above"),
            ClientMode::Line => {
                // Complete lines → responses (requests keep their
                // order: lines are handled in arrival order on this
                // one thread).
                while let Some(newline) = self.read_buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = self.read_buf.drain(..=newline).collect();
                    let line = String::from_utf8_lossy(&line);
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let encoded = store.handle_json_line(line);
                    self.write_buf.extend_from_slice(encoded.as_bytes());
                    self.write_buf.push(b'\n');
                    *progressed = true;
                }
                // Same fail-closed ceiling as framed mode: a peer that
                // never sends a newline cannot grow the buffer forever.
                if self.read_buf.len() > glc_service::MAX_FRAME_PAYLOAD {
                    eprintln!(
                        "glc-serve: {} exceeded the {}-byte line cap",
                        self.peer,
                        glc_service::MAX_FRAME_PAYLOAD
                    );
                    return Err(());
                }
                Ok(())
            }
            ClientMode::Framed {
                decoder,
                hello_done,
            } => {
                decoder.push(&self.read_buf);
                self.read_buf.clear();
                loop {
                    let payload = match decoder.next_frame() {
                        Ok(Some(payload)) => payload,
                        Ok(None) => return Ok(()),
                        Err(err) => {
                            eprintln!("glc-serve: bad frame from {}: {err}", self.peer);
                            return Err(());
                        }
                    };
                    *progressed = true;
                    if !*hello_done {
                        if let Err(err) = codec::decode_hello(&payload) {
                            eprintln!("glc-serve: bad hello from {}: {err}", self.peer);
                            return Err(());
                        }
                        // Sessions don't reduce — that's a relay
                        // capability — so the grant never includes it.
                        let reply = codec::encode_hello(false);
                        metrics::count_frame_tx(reply.len());
                        match frame::encode_frame(&reply) {
                            Ok(framed) => self.write_buf.extend_from_slice(&framed),
                            Err(err) => {
                                eprintln!("glc-serve: encoding hello for {}: {err}", self.peer);
                                return Err(());
                            }
                        }
                        *hello_done = true;
                        continue;
                    }
                    // One request per frame; the reply line bytes are
                    // byte-identical to the stdin protocol's.
                    metrics::count_frame_rx(payload.len());
                    let line = match codec::decode_text(&payload) {
                        Ok(line) => line,
                        Err(err) => {
                            eprintln!("glc-serve: bad GLCB text from {}: {err}", self.peer);
                            return Err(());
                        }
                    };
                    let reply = codec::encode_text(&store.handle_json_line(line.trim()));
                    metrics::count_frame_tx(reply.len());
                    match frame::encode_frame(&reply) {
                        Ok(framed) => self.write_buf.extend_from_slice(&framed),
                        Err(err) => {
                            eprintln!("glc-serve: encoding reply for {}: {err}", self.peer);
                            return Err(());
                        }
                    }
                }
            }
        }
    }

    /// Whether the connection still owes or may produce work.
    fn open(&self) -> bool {
        let drained = match &self.mode {
            ClientMode::Framed { decoder, .. } => !decoder.has_partial(),
            _ => self.read_buf.iter().all(|&b| b.is_ascii_whitespace()),
        };
        !(self.eof && drained && self.write_buf.is_empty())
    }
}

/// The nonblocking multiplexed front-end behind `--listen`: one
/// thread, a hand-rolled readiness loop over `std::net` (the vendored
/// crate policy rules out mio/tokio), serving many concurrent clients
/// that each pipeline newline-delimited requests over one socket.
///
/// The protocol is byte-for-byte the stdin protocol — one
/// `Request`-as-JSON per line, one response line back, `Envelope` ids
/// echoed — so anything scripted against the stdin loop works
/// unchanged against a socket, and responses to one client's
/// pipelined requests come back **in request order** (the store is
/// driven from this single thread; determinism of the store does the
/// rest). Fairness is round-robin: each pass drains whatever complete
/// lines every connection has accumulated.
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
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot make listener nonblocking: {e}"))?;
    println!("glc-serve listening on {bound}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing address line: {e}"))?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        std::process::exit(0);
    });

    let mut conns: Vec<ClientConn> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let mut progressed = false;

        // Accept every connection already waiting.
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if let Err(err) = stream.set_nonblocking(true) {
                        eprintln!("glc-serve: cannot make {peer} nonblocking: {err}");
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(ClientConn {
                        stream,
                        peer: peer.to_string(),
                        mode: ClientMode::Sniffing,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        eof: false,
                    });
                    progressed = true;
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => {
                    eprintln!("glc-serve: accept failed: {err}");
                    break;
                }
            }
        }

        // Round-robin over connections: read what's there, handle the
        // complete lines, push out what the socket will take.
        conns.retain_mut(|conn| {
            use std::io::{Read as _, Write as _};
            // Readable bytes.
            if !conn.eof {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&scratch[..n]);
                            progressed = true;
                        }
                        Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(err) => {
                            eprintln!("glc-serve: reading from {}: {err}", conn.peer);
                            return false;
                        }
                    }
                }
            }
            // Complete requests → responses, in whichever framing
            // this client sniffed to.
            if conn.pump(store, &mut progressed).is_err() {
                return false;
            }
            // Writable bytes.
            while !conn.write_buf.is_empty() {
                match conn.stream.write(&conn.write_buf) {
                    Ok(0) => {
                        eprintln!("glc-serve: {} stopped accepting bytes", conn.peer);
                        return false;
                    }
                    Ok(n) => {
                        conn.write_buf.drain(..n);
                        progressed = true;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(err) => {
                        eprintln!("glc-serve: writing to {}: {err}", conn.peer);
                        return false;
                    }
                }
            }
            // A half-closed peer is dropped once everything owed it
            // (including replies to requests that arrived with the
            // EOF) has been handled and flushed.
            conn.open()
        });

        if !progressed {
            // Nothing readable, writable or pending anywhere: idle.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
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
