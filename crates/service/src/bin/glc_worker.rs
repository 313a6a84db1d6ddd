//! `glc-worker`: a resident ensemble worker on stdin/stdout.
//!
//! Protocol: length-prefixed GLCF frames carrying GLCB payloads (see
//! `glc_service::frame` and `glc_service::codec`). The worker sends its
//! hello frame, then answers each chunk-order frame with one reply
//! frame echoing the order's correlation id: the chunk's
//! `EnsemblePartial`, or the error that stopped it. Execution failures
//! travel in-band as `Error` replies; only transport-level problems
//! (unreadable stdin, a frame that is not a GLCB order) exit the
//! process, dropping the connection. Clean EOF at a frame boundary is
//! a normal shutdown.
//!
//! One process serves many chunk orders: the model compiles once in
//! the process-wide `glc_ssa::ModelCache` and every later chunk of the
//! same circuit reuses it, while the pool keeps several orders in
//! flight on the same pipe. The binary takes no flags; a `WorkerPool`
//! slot (`glc_service::PipelinedWorker`) spawns and drives it.

use glc_service::codec::{self, BinaryReply};
use glc_service::frame;
use std::process::ExitCode;

fn serve() -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    frame::write_frame(&mut writer, &codec::encode_hello(false))
        .map_err(|e| format!("sending hello frame: {e}"))?;
    loop {
        let Some(payload) =
            frame::read_frame(&mut reader).map_err(|e| format!("reading order frame: {e}"))?
        else {
            return Ok(()); // Clean EOF between frames: the pool hung up.
        };
        let (id, order) =
            codec::decode_order(&payload).map_err(|e| format!("decoding order frame: {e}"))?;
        // The order executes on this thread: chunk orders are sized to
        // fractions of a second and the pool pipelines across
        // *processes*, so in-process concurrency would only add
        // nondeterministic completion order for nothing.
        let reply = match order.execute() {
            Ok(partial) => BinaryReply::Partial(partial),
            Err(err) => BinaryReply::Error(err.to_string()),
        };
        frame::write_frame(&mut writer, &codec::encode_reply(id, &reply))
            .map_err(|e| format!("writing reply frame: {e}"))?;
    }
}

fn main() -> ExitCode {
    let outcome = match std::env::args().nth(1) {
        Some(flag) => Err(format!("takes no flags (got `{flag}`)")),
        None => serve(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-worker: {message}");
            ExitCode::FAILURE
        }
    }
}
