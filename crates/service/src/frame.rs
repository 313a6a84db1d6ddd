//! Length-prefixed frame codec for the worker/relay wire.
//!
//! Every hop of the fabric — pool to resident worker, pool to relay,
//! framed client to `glc-serve --listen` — carries binary frames:
//!
//! ```text
//! +----------+----------+-------------------------+
//! | magic    | length   | payload                 |
//! | 4 bytes  | u32 BE   | `length` bytes of GLCB  |
//! | "GLCF"   |          | (see `crate::codec`)    |
//! +----------+----------+-------------------------+
//! ```
//!
//! Each payload is one GLCB message whose correlation id ties a reply
//! to its in-flight order, so one connection pipelines many orders.
//!
//! Decoding **fails closed**: a bad magic, an oversized length, or an
//! EOF inside a frame is an error, never a partial result, and an
//! oversized length is rejected *before* any allocation. The
//! [`FrameDecoder`] accepts bytes in arbitrary splits (nonblocking
//! readers hand it whatever the socket had), and validates the header
//! prefix as soon as enough bytes exist to falsify it.

use crate::ServiceError;
use std::io::{Read, Write};

/// First four bytes of every frame. `47 4C 43 46` ("GLCF"). A JSON
/// request line can never produce this prefix — it starts with `{`,
/// `"` or whitespace — so `glc-serve --listen` sniffs one byte to tell
/// framed clients from line clients.
pub const FRAME_MAGIC: [u8; 4] = *b"GLCF";

/// Header size: magic + big-endian u32 payload length.
pub const FRAME_HEADER_LEN: usize = 8;

/// Hard payload cap. A batch-sized `EnsemblePartial` is a few hundred
/// KiB; 64 MiB leaves three orders of magnitude of headroom while
/// keeping a corrupt or hostile length prefix from driving a
/// multi-gigabyte allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Encodes one frame around `payload`.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ServiceError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(ServiceError::Protocol(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame and flushes it (pipelined peers act on frames as
/// they arrive; a frame parked in a `BufWriter` would stall the
/// window).
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), ServiceError> {
    let frame = encode_frame(payload)?;
    writer
        .write_all(&frame)
        .and_then(|()| writer.flush())
        .map_err(|err| ServiceError::Worker(format!("writing frame: {err}")))
}

/// Reads one frame from a blocking reader. `Ok(None)` is a clean EOF
/// *between* frames; an EOF inside a header or payload is an error
/// (the peer died mid-frame — nothing it sent can be trusted).
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, ServiceError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut at = 0;
    while at < FRAME_HEADER_LEN {
        match reader.read(&mut header[at..]) {
            Ok(0) if at == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServiceError::Protocol(format!(
                    "truncated frame: EOF after {at} of {FRAME_HEADER_LEN} header bytes"
                )))
            }
            Ok(n) => at += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ServiceError::Worker(format!("reading frame: {err}"))),
        }
    }
    let len = validate_header(&header)?;
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match reader.read(&mut payload[at..]) {
            Ok(0) => {
                return Err(ServiceError::Protocol(format!(
                    "truncated frame: EOF after {at} of {len} payload bytes"
                )))
            }
            Ok(n) => at += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(ServiceError::Worker(format!("reading frame: {err}"))),
        }
    }
    Ok(Some(payload))
}

/// Reads one newline-terminated line from a buffered reader, failing
/// closed once the line exceeds [`MAX_FRAME_PAYLOAD`] bytes, so a peer
/// streaming garbage without a newline cannot grow the buffer without
/// bound; this mirrors the frame cap onto the line paths. `Ok(None)`
/// is EOF before any byte of a line.
pub fn read_line_capped<R: std::io::BufRead>(
    reader: &mut R,
) -> Result<Option<String>, ServiceError> {
    let mut line = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(ServiceError::Worker(format!("reading line: {err}"))),
        };
        if chunk.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            break;
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (chunk.len(), false),
        };
        if line.len() + take > MAX_FRAME_PAYLOAD + 1 {
            return Err(ServiceError::Protocol(format!(
                "request line exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            )));
        }
        line.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if done {
            break;
        }
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|err| ServiceError::Protocol(format!("request line is not UTF-8: {err}")))
}

/// Checks magic and length of a complete 8-byte header; returns the
/// payload length.
fn validate_header(header: &[u8; FRAME_HEADER_LEN]) -> Result<usize, ServiceError> {
    if header[..4] != FRAME_MAGIC {
        return Err(ServiceError::Protocol(format!(
            "bad frame magic {:02x} {:02x} {:02x} {:02x} (expected \"GLCF\")",
            header[0], header[1], header[2], header[3]
        )));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ServiceError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )));
    }
    Ok(len)
}

/// Incremental frame decoder for nonblocking readers: push bytes in
/// whatever splits the transport produced, pull complete frames out.
/// Violations surface on the first byte that proves them — a wrong
/// magic byte fails before the header is even complete.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes
    /// are needed. Once it returns `Err`, the stream is poisoned — the
    /// caller must drop the connection (resynchronizing inside a
    /// corrupt binary stream would be guesswork).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ServiceError> {
        let have = self.buf.len().min(4);
        if self.buf[..have] != FRAME_MAGIC[..have] {
            let bad = self.buf[..have]
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ");
            return Err(ServiceError::Protocol(format!(
                "bad frame magic {bad} (expected \"GLCF\")"
            )));
        }
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_LEN];
        header.copy_from_slice(&self.buf[..FRAME_HEADER_LEN]);
        let len = validate_header(&header)?;
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        self.buf.drain(..FRAME_HEADER_LEN + len);
        Ok(Some(payload))
    }

    /// True when bytes of an incomplete frame are buffered. A peer
    /// that hangs up here died mid-frame: the caller must treat the
    /// connection as failed, not as cleanly closed.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_blocking_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"beta").unwrap();
        let mut reader = &wire[..];
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"beta"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let frame = encode_frame(b"payload").unwrap();
        for cut in 1..frame.len() {
            let mut reader = &frame[..cut];
            let err = match read_frame(&mut reader) {
                Ok(got) => panic!("cut at {cut} produced {got:?}"),
                Err(err) => err.to_string(),
            };
            assert!(err.contains("truncated frame"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_lengths_fail_before_allocating() {
        let mut wire = Vec::from(FRAME_MAGIC);
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &wire[..]).unwrap_err().to_string();
        assert!(err.contains("exceeds"), "{err}");
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let err = decoder.next_frame().unwrap_err().to_string();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn the_decoder_rejects_bad_magic_on_the_first_wrong_byte() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"{\"");
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn capped_line_reads_stop_at_the_frame_cap() {
        let mut reader = std::io::BufReader::new(&b"alpha\nbeta"[..]);
        assert_eq!(
            read_line_capped(&mut reader).unwrap().as_deref(),
            Some("alpha")
        );
        assert_eq!(
            read_line_capped(&mut reader).unwrap().as_deref(),
            Some("beta")
        );
        assert_eq!(read_line_capped(&mut reader).unwrap(), None);

        struct Endless;
        impl std::io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'x');
                Ok(buf.len())
            }
        }
        let mut reader = std::io::BufReader::new(Endless);
        let err = read_line_capped(&mut reader).unwrap_err().to_string();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn envelope_messages_carry_their_correlation_id() {
        // A framed reply payload carries the id of the order it answers,
        // so a pipelined slot can attribute it whatever order replies
        // arrive in.
        let payload = crate::codec::encode_reply(41, &crate::BinaryReply::Error("boom".into()));
        let framed = encode_frame(&payload).unwrap();
        let read = read_frame(&mut &framed[..]).unwrap().expect("one frame");
        let (id, reply) = crate::codec::decode_reply(&read).unwrap();
        assert_eq!(id, 41);
        assert!(matches!(reply, crate::BinaryReply::Error(msg) if msg == "boom"));
    }
}
