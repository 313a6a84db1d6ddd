//! `glc-client`: a session-protocol test client for `glc-serve
//! --listen`.
//!
//! Connects to a listening service, forwards one JSON request line
//! per stdin line, and prints the response line to stdout — so a
//! drill can `cmp` a socket transcript bitwise against the same
//! requests piped through the stdin loop. The wire encoding is
//! selectable, which is the point: both must produce byte-identical
//! response lines.
//!
//! Flags:
//!
//! * `--connect HOST:PORT` — the `glc-serve --listen` address
//!   (required);
//! * `--codec line|glcb` — how requests travel (default `line`):
//!   * `line` — the newline protocol, bytes as-is;
//!   * `glcb` — GLCF frames with GLCB `Text` payloads, after the GLCB
//!     hello exchange.
//!
//! Requests are sent synchronously — one line out, one response in —
//! so the transcript order matches the stdin protocol exactly.

use glc_service::codec;
use glc_service::frame;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;

/// The wire encoding for one run.
#[derive(Clone, Copy, PartialEq)]
enum Codec {
    Line,
    Glcb,
}

struct Options {
    connect: String,
    codec: Codec,
}

fn parse_options() -> Result<Options, String> {
    let mut connect = None;
    let mut codec = Codec::Line;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--codec" => {
                codec = match value("--codec")?.as_str() {
                    "line" => Codec::Line,
                    "glcb" => Codec::Glcb,
                    other => return Err(format!("--codec: unknown codec `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        connect: connect.ok_or("--connect HOST:PORT is required")?,
        codec,
    })
}

fn run() -> Result<(), String> {
    let options = parse_options()?;
    let stream = TcpStream::connect(&options.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", options.connect))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);

    if options.codec == Codec::Glcb {
        // Framed mode opens with the hello exchange.
        frame::write_frame(&mut writer, &codec::encode_hello())
            .map_err(|e| format!("sending hello: {e}"))?;
        let reply = frame::read_frame(&mut reader)
            .map_err(|e| format!("reading hello: {e}"))?
            .ok_or("server closed during hello")?;
        codec::decode_hello(&reply).map_err(|e| format!("parsing hello: {e}"))?;
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut input = stdin.lock();
    loop {
        let line = match frame::read_line_capped(&mut input) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(err) => return Err(format!("reading request: {err}")),
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match options.codec {
            Codec::Line => {
                writeln!(writer, "{line}").map_err(|e| format!("sending request: {e}"))?;
                writer
                    .flush()
                    .map_err(|e| format!("sending request: {e}"))?;
                let mut response = String::new();
                if reader
                    .read_line(&mut response)
                    .map_err(|e| format!("reading response: {e}"))?
                    == 0
                {
                    return Err("server closed mid-conversation".into());
                }
                response.trim_end_matches('\n').to_string()
            }
            Codec::Glcb => {
                frame::write_frame(&mut writer, &codec::encode_text(&line))
                    .map_err(|e| format!("sending request frame: {e}"))?;
                let payload = frame::read_frame(&mut reader)
                    .map_err(|e| format!("reading response frame: {e}"))?
                    .ok_or("server closed mid-conversation")?;
                codec::decode_text(&payload).map_err(|e| format!("decoding response: {e}"))?
            }
        };
        writeln!(out, "{response}").map_err(|e| format!("writing response: {e}"))?;
        out.flush().map_err(|e| format!("flushing response: {e}"))?;
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-client: {message}");
            ExitCode::FAILURE
        }
    }
}
