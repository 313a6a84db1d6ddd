//! `glc-relay`: a TCP chunk relay — the remote-transport rung of the
//! worker fabric.
//!
//! Listens on a socket and serves each accepted connection on its own
//! thread with the framed protocol of `glc_service::frame` and
//! `glc_service::codec`: the client sends a GLCB hello, the relay
//! answers with its own, and then each GLCB chunk-order frame runs on
//! a thread of its own, its reply frame going back as soon as it
//! completes (possibly out of order; the correlation id lets the
//! client reorder). A `glc-serve` pool slot (`PipelinedRelay`)
//! therefore keeps several chunks in flight on one socket and they run
//! in parallel *here*, on this host's cores — which is the whole
//! point: one front-end can fan ensemble work out to other machines,
//! and determinism (absolute replicate seeds + exact partial
//! accumulation) guarantees the bits are identical to running
//! everything locally. A failed order is answered in-band and never
//! kills the relay; a hello or order frame that is not GLCB of this
//! version drops the connection. Every order gets exactly one reply,
//! `Partial` or `Error`, and the client's pipeline window bounds how
//! many orders one connection runs at a time.
//!
//! On startup the relay prints exactly one line to stdout —
//! `glc-relay listening on HOST:PORT` — so a parent that bound port 0
//! can scrape the chosen port, then exits when its stdin reaches EOF
//! (so a dying parent cannot leak relays).
//!
//! The one flag is `--listen HOST:PORT` — the bind address (default
//! `127.0.0.1:0` = any free local port, reported on stdout).
//!
//! Orders execute through the process-wide compiled-model cache
//! (`glc_ssa::ModelCache::shared`, via `WorkOrder::compile_model`): a
//! relay hammered with chunks of the same circuit — the normal sweep
//! shape — compiles it once and serves every later order, on any
//! thread, from the shared `Arc`.

use glc_service::codec::{self, BinaryReply};
use glc_service::frame;
use std::io::{BufReader, Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// The bind address from the command line.
fn parse_listen() -> Result<String, String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--listen" => listen = args.next().ok_or("--listen expects a value")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(listen)
}

/// Writes one GLCB reply frame under the connection's writer lock.
fn write_reply(writer: &Mutex<TcpStream>, payload: &[u8], peer: &str) {
    let mut writer = writer.lock().expect("relay writer poisoned");
    if let Err(err) = frame::write_frame(&mut *writer, payload) {
        eprintln!("glc-relay: writing reply frame to {peer}: {err}");
    }
}

/// Serves one framed connection until the peer closes: exchange hello
/// frames, then answer each GLCB order frame with a reply frame echoing
/// its correlation id. Orders run on their own threads behind a
/// mutexed writer, so replies go back **as they complete**.
fn serve_connection(stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(err) => {
            eprintln!("glc-relay: cannot clone stream for {peer}: {err}");
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    match frame::read_frame(&mut reader) {
        Ok(Some(payload)) => {
            if let Err(err) = codec::decode_hello(&payload) {
                eprintln!("glc-relay: bad hello from {peer}: {err}");
                return;
            }
        }
        Ok(None) => return, // Connected, said nothing, hung up.
        Err(err) => {
            eprintln!("glc-relay: reading hello from {peer}: {err}");
            return;
        }
    }
    {
        let mut writer = writer.lock().expect("relay writer poisoned");
        if let Err(err) = frame::write_frame(&mut *writer, &codec::encode_hello()) {
            eprintln!("glc-relay: answering hello to {peer}: {err}");
            return;
        }
    }
    let mut order_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let payload = match frame::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // Clean EOF between frames.
            Err(err) => {
                eprintln!("glc-relay: reading order frame from {peer}: {err}");
                break;
            }
        };
        let (id, order) = match codec::decode_order(&payload) {
            Ok(decoded) => decoded,
            Err(err) => {
                // An undecodable frame cannot even be answered in-band
                // (no id to address the reply to): drop the connection.
                eprintln!("glc-relay: decoding order frame from {peer}: {err}");
                break;
            }
        };
        order_threads.retain(|thread| !thread.is_finished());
        let writer = Arc::clone(&writer);
        let peer = peer.clone();
        order_threads.push(std::thread::spawn(move || {
            let reply = match order.execute() {
                Ok(partial) => BinaryReply::Partial(partial),
                Err(err) => BinaryReply::Error(err.to_string()),
            };
            write_reply(&writer, &codec::encode_reply(id, &reply), &peer);
        }));
    }
    for thread in order_threads {
        let _ = thread.join();
    }
}

fn run() -> Result<(), String> {
    let listen = parse_listen()?;
    let listener = TcpListener::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    // The one stdout line a parent scrapes for the chosen port.
    println!("glc-relay listening on {bound}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing address line: {e}"))?;

    // Exit when stdin closes: a relay spawned by a test, bench or
    // supervisor dies with its parent instead of leaking.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });

    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                std::thread::spawn(move || serve_connection(stream));
            }
            Err(err) => eprintln!("glc-relay: accept failed: {err}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-relay: {message}");
            ExitCode::FAILURE
        }
    }
}
