//! `glc-worker`: the chunk executor, on its stdin/stdout or on TCP.
//!
//! Protocol: length-prefixed GLCF frames carrying GLCB payloads (see
//! `glc_service::frame` and `glc_service::codec`). The **client speaks
//! first**: it sends its hello frame, the worker checks it and answers
//! with its own, then answers each chunk-order frame, in arrival order,
//! with one reply frame echoing the order's correlation id: the chunk's
//! `EnsemblePartial`, or the error that stopped it. Execution failures
//! travel in-band as `Error` replies; only transport-level problems (an
//! unreadable stream, a hello or order frame that is not GLCB of this
//! version) end the connection, with no frame written for the bad one.
//! Clean EOF at a frame boundary is a normal shutdown.
//!
//! Without flags the worker serves one connection on stdin/stdout: a
//! `WorkerPool` slot (`glc_service::PipelinedWorker::new`) spawns and
//! drives it, and the process exits non-zero when that connection ends
//! in an error. With `--listen HOST:PORT` it binds that address
//! (`127.0.0.1:0` picks a free port), prints exactly one stdout line —
//! `glc-worker listening on HOST:PORT` — and serves each accepted socket
//! on its own thread through the same loop; pool slots reach it with
//! `PipelinedWorker::connect` (`glc-serve --relay`), one connection per
//! slot, so a remote host runs as many orders at once as it has
//! connections. It exits when its stdin reaches EOF, so a dying parent
//! cannot leak it.
//!
//! Orders execute through the process-wide compiled-model cache
//! (`glc_ssa::ModelCache::shared`, via `WorkOrder::compile_model`): the
//! model compiles once and every later chunk of the same circuit, on
//! any connection, reuses it.

use glc_service::codec::{self, BinaryReply};
use glc_service::frame;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;

/// Serves one framed connection: read and check the client's hello,
/// answer with ours, then run each order inline and write its reply.
/// Orders run one at a time on this thread: chunks are sized to
/// fractions of a second and the pool pipelines across connections, so
/// in-connection concurrency would only add nondeterministic completion
/// order for nothing.
fn serve(reader: &mut impl Read, writer: &mut impl Write) -> Result<(), String> {
    let Some(hello) = frame::read_frame(reader).map_err(|e| format!("reading hello frame: {e}"))?
    else {
        return Ok(()); // Connected, said nothing, hung up.
    };
    codec::decode_hello(&hello).map_err(|e| format!("bad hello: {e}"))?;
    frame::write_frame(writer, &codec::encode_hello())
        .map_err(|e| format!("sending hello frame: {e}"))?;
    loop {
        let Some(payload) =
            frame::read_frame(reader).map_err(|e| format!("reading order frame: {e}"))?
        else {
            return Ok(()); // Clean EOF between frames: the client hung up.
        };
        // An undecodable frame cannot even be answered in-band (no id
        // to address the reply to): drop the connection.
        let (id, order) =
            codec::decode_order(&payload).map_err(|e| format!("decoding order frame: {e}"))?;
        let reply = match order.execute() {
            Ok(partial) => BinaryReply::Partial(partial),
            Err(err) => BinaryReply::Error(err.to_string()),
        };
        frame::write_frame(writer, &codec::encode_reply(id, &reply))
            .map_err(|e| format!("writing reply frame: {e}"))?;
    }
}

/// Serves one accepted socket, logging how it ended if not cleanly.
fn serve_socket(stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let _ = stream.set_nodelay(true);
    let outcome = stream
        .try_clone()
        .map_err(|e| format!("cloning the stream: {e}"))
        .and_then(|mut writer| serve(&mut BufReader::new(stream), &mut writer));
    if let Err(message) = outcome {
        eprintln!("glc-worker: {peer}: {message}");
    }
}

/// Binds `addr`, announces the bound address on stdout and serves
/// every accepted socket on its own thread until stdin closes.
fn listen(addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    // The one stdout line a parent scrapes for the chosen port.
    println!("glc-worker listening on {bound}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("flushing address line: {e}"))?;
    // Exit when stdin closes: a worker spawned by a test, bench or
    // supervisor dies with its parent instead of leaking.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                std::thread::spawn(move || serve_socket(stream));
            }
            Err(err) => eprintln!("glc-worker: accept failed: {err}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [] => serve(&mut std::io::stdin().lock(), &mut std::io::stdout().lock()),
        [flag, addr] if flag == "--listen" => listen(addr),
        _ => Err(format!(
            "usage: glc-worker [--listen HOST:PORT] (got `{}`)",
            args.join(" ")
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-worker: {message}");
            ExitCode::FAILURE
        }
    }
}
