//! GLCB: the binary payload codec of the frame wire and the spill
//! path.
//!
//! The frame layer (`glc_service::frame`) delimits payloads but does
//! not care what they are. GLCB is the one payload encoding inside
//! them — chunk orders, chunk replies, hellos, session text lines and
//! spill snapshots — a dense binary layout built on `glc_ssa::wire`
//! primitives (LEB128 varints, little-endian `f64` bit patterns,
//! length-prefixed UTF-8).
//!
//! # Payload layout
//!
//! ```text
//! +---------+---------+-------+------------------------+
//! | magic   | version | tag   | body                   |
//! | "GLCB"  | 1 byte  | 1 byte| tag-specific           |
//! +---------+---------+-------+------------------------+
//! ```
//!
//! | tag | body |
//! |-----|------|
//! | 1 `ORDER` | varint id, then the [`WorkOrder`] fields |
//! | 2 `REPLY` | varint id, a variant byte, then the variant body |
//! | 3 `TEXT`  | length-prefixed UTF-8 (one session-protocol JSON line) |
//! | 4 `SNAPSHOT` | length-prefixed spec JSON + binary partial (spill files) |
//! | 5 `HELLO` | empty |
//!
//! Reply variants: 0 `Partial(partial)` and 1 `Error(string)` — one
//! reply per chunk order.
//!
//! Decoding is fail-closed end to end: a missing magic, another
//! version, truncation, unknown tags/variants, trailing bytes, and
//! structurally invalid partials are all errors. A partial is checked
//! once, inside `EnsemblePartial::decode_binary`, the only way one
//! enters a process from bytes.
//!
//! # Hello
//!
//! Both ends of a framed connection open with a `HELLO` payload: the
//! GLCB header alone, so the version byte is the whole negotiation. A
//! peer whose hello is not a bodiless GLCB hello of this version — an
//! older build's JSON hello or flags byte included — fails the
//! handshake closed.

use crate::{EngineSpec, ModelSource, ServiceError, WorkOrder};
use glc_ssa::wire::{put_f64_bits, put_string, put_varint, Reader, WireError};
use glc_ssa::EnsemblePartial;

/// First four bytes of every GLCB payload. Distinct from the frame
/// magic (`GLCF`): this sits *inside* a frame payload.
pub const GLCB_MAGIC: [u8; 4] = *b"GLCB";

/// Current GLCB version: the layout *and* the bits it stands for.
///
/// The byte must change whenever two builds would answer the same work
/// order with different bits — a new layout, or an engine drawing
/// another stream for the same seed. Otherwise an older worker could
/// join a pool and mix its partials into a sharded run, or an older
/// `.session.glcb` snapshot could be extended under a different
/// stream; both break sharded ≡ unsharded and resumed ≡ uninterrupted.
/// `tests/stream_fingerprints.rs` pins every engine's stream under
/// this number, so a stream change that keeps it fails tier-1.
///
/// Version 2: `Direct` sums and selects over a flat propensity vector
/// instead of a sum tree. Version 3: each `ExactSum` cell is encoded
/// by its exact total — an integer total as one zigzag varint, any
/// other as its canonical digit window with zigzag-varint digits —
/// instead of 8-byte digits; the bits of every figure are unchanged.
/// Version 4: `Direct`, `FirstReaction` and `NextReaction` wait
/// `exp1(rng) / a` (the 256-layer ziggurat, `glc_ssa::draws::exp1`)
/// instead of `-ln(1 - u) / a` through the host's libm; the layout is
/// unchanged.
pub const GLCB_VERSION: u8 = 4;

const TAG_ORDER: u8 = 1;
const TAG_REPLY: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_HELLO: u8 = 5;

const REPLY_PARTIAL: u8 = 0;
const REPLY_ERROR: u8 = 1;

/// Whether a payload starts with the GLCB magic.
pub fn is_glcb(payload: &[u8]) -> bool {
    payload.len() >= 4 && payload[..4] == GLCB_MAGIC
}

/// One decoded reply payload on the chunk wire: a chunk's partial or
/// its failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BinaryReply {
    /// The chunk's partial, computed and shipped verbatim.
    Partial(EnsemblePartial),
    /// The chunk failed in-band (order invalid, simulation error).
    Error(String),
}

fn header(tag: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&GLCB_MAGIC);
    buf.push(GLCB_VERSION);
    buf.push(tag);
    buf
}

/// Opens a reader past the magic/version/tag header, returning the
/// tag byte.
fn open<'a>(payload: &'a [u8], what: &str) -> Result<(Reader<'a>, u8), ServiceError> {
    if !is_glcb(payload) {
        return Err(ServiceError::Protocol(format!(
            "{what}: payload is not GLCB (no magic)"
        )));
    }
    let mut reader = Reader::new(&payload[4..]);
    let version = reader
        .byte("GLCB version")
        .map_err(|err| protocol(what, err))?;
    if version != GLCB_VERSION {
        return Err(ServiceError::Protocol(format!(
            "{what}: unsupported GLCB version {version} (expected {GLCB_VERSION})"
        )));
    }
    let tag = reader.byte("GLCB tag").map_err(|err| protocol(what, err))?;
    Ok((reader, tag))
}

fn protocol(what: &str, err: WireError) -> ServiceError {
    ServiceError::Protocol(format!("{what}: {err}"))
}

fn expect_tag(what: &str, tag: u8, expected: u8) -> Result<(), ServiceError> {
    if tag != expected {
        return Err(ServiceError::Protocol(format!(
            "{what}: unexpected GLCB tag {tag} (expected {expected})"
        )));
    }
    Ok(())
}

/// Encodes a chunk order under its correlation id.
pub fn encode_order(id: u64, order: &WorkOrder) -> Vec<u8> {
    let mut buf = header(TAG_ORDER);
    put_varint(&mut buf, id);
    match &order.model {
        ModelSource::Sbml(doc) => {
            buf.push(0);
            put_string(&mut buf, doc);
        }
        ModelSource::Catalog(name) => {
            buf.push(1);
            put_string(&mut buf, name);
        }
    }
    put_varint(&mut buf, order.set_amounts.len() as u64);
    for (species, amount) in &order.set_amounts {
        put_string(&mut buf, species);
        put_f64_bits(&mut buf, *amount);
    }
    match &order.engine {
        EngineSpec::Direct => buf.push(0),
        EngineSpec::FirstReaction => buf.push(1),
        EngineSpec::NextReaction => buf.push(2),
        EngineSpec::TauLeap(tau) => {
            buf.push(3);
            put_f64_bits(&mut buf, *tau);
        }
        EngineSpec::Langevin(dt) => {
            buf.push(4);
            put_f64_bits(&mut buf, *dt);
        }
    }
    put_varint(&mut buf, order.base_seed);
    put_varint(&mut buf, order.first_replicate);
    put_varint(&mut buf, order.replicates);
    put_f64_bits(&mut buf, order.t_end);
    put_f64_bits(&mut buf, order.sample_dt);
    buf
}

/// Decodes a GLCB chunk order, returning `(id, order)`.
///
/// # Errors
///
/// [`ServiceError::Protocol`] for anything that is not a complete,
/// well-formed order payload.
pub fn decode_order(payload: &[u8]) -> Result<(u64, WorkOrder), ServiceError> {
    let what = "GLCB order";
    let (mut reader, tag) = open(payload, what)?;
    expect_tag(what, tag, TAG_ORDER)?;
    let mut read = || -> Result<(u64, WorkOrder), WireError> {
        let id = reader.varint("order id")?;
        let model = match reader.byte("model variant")? {
            0 => ModelSource::Sbml(reader.string("sbml document")?),
            1 => ModelSource::Catalog(reader.string("catalog name")?),
            other => return Err(WireError(format!("unknown model variant {other}"))),
        };
        let amount_count = reader.length("set_amounts", 1 << 20)?;
        let mut set_amounts = Vec::with_capacity(amount_count);
        for _ in 0..amount_count {
            let species = reader.string("override species")?;
            let amount = reader.f64_bits("override amount")?;
            set_amounts.push((species, amount));
        }
        let engine = match reader.byte("engine variant")? {
            0 => EngineSpec::Direct,
            1 => EngineSpec::FirstReaction,
            2 => EngineSpec::NextReaction,
            3 => EngineSpec::TauLeap(reader.f64_bits("tau")?),
            4 => EngineSpec::Langevin(reader.f64_bits("langevin dt")?),
            other => return Err(WireError(format!("unknown engine variant {other}"))),
        };
        let base_seed = reader.varint("base_seed")?;
        let first_replicate = reader.varint("first_replicate")?;
        let replicates = reader.varint("replicates")?;
        let t_end = reader.f64_bits("t_end")?;
        let sample_dt = reader.f64_bits("sample_dt")?;
        reader.expect_end("order")?;
        Ok((
            id,
            WorkOrder {
                model,
                set_amounts,
                engine,
                base_seed,
                first_replicate,
                replicates,
                t_end,
                sample_dt,
            },
        ))
    };
    read().map_err(|err| protocol(what, err))
}

/// Encodes a chunk reply under its correlation id.
pub fn encode_reply(id: u64, reply: &BinaryReply) -> Vec<u8> {
    let mut buf = header(TAG_REPLY);
    put_varint(&mut buf, id);
    match reply {
        BinaryReply::Partial(partial) => {
            buf.push(REPLY_PARTIAL);
            partial.encode_binary(&mut buf);
        }
        BinaryReply::Error(message) => {
            buf.push(REPLY_ERROR);
            put_string(&mut buf, message);
        }
    }
    buf
}

/// Decodes a GLCB chunk reply, returning `(id, reply)`. Embedded
/// partials are structurally checked by `EnsemblePartial::decode_binary`.
///
/// # Errors
///
/// [`ServiceError::Protocol`] for anything that is not a complete,
/// well-formed reply payload.
pub fn decode_reply(payload: &[u8]) -> Result<(u64, BinaryReply), ServiceError> {
    let what = "GLCB reply";
    let (mut reader, tag) = open(payload, what)?;
    expect_tag(what, tag, TAG_REPLY)?;
    let mut read = || -> Result<(u64, BinaryReply), WireError> {
        let id = reader.varint("reply id")?;
        let reply = match reader.byte("reply variant")? {
            REPLY_PARTIAL => BinaryReply::Partial(EnsemblePartial::decode_binary(&mut reader)?),
            REPLY_ERROR => BinaryReply::Error(reader.string("error message")?),
            other => return Err(WireError(format!("unknown reply variant {other}"))),
        };
        reader.expect_end("reply")?;
        Ok((id, reply))
    };
    read().map_err(|err| protocol(what, err))
}

/// Wraps one session-protocol JSON line in a GLCB text payload. The
/// multiplexed `glc-serve --listen` front-end serves Submit / Extend /
/// Query this way for framed clients: the *line bytes* are exactly
/// what the stdin protocol produces, so a framed client's responses
/// compare byte-identical to a serial stdin run.
pub fn encode_text(line: &str) -> Vec<u8> {
    let mut buf = header(TAG_TEXT);
    put_string(&mut buf, line);
    buf
}

/// Unwraps a GLCB text payload back to its JSON line.
///
/// # Errors
///
/// [`ServiceError::Protocol`] for truncation, bad UTF-8, or a
/// non-text tag.
pub fn decode_text(payload: &[u8]) -> Result<String, ServiceError> {
    let what = "GLCB text";
    let (mut reader, tag) = open(payload, what)?;
    expect_tag(what, tag, TAG_TEXT)?;
    let line = reader
        .string("text line")
        .map_err(|err| protocol(what, err))?;
    reader
        .expect_end("text")
        .map_err(|err| protocol(what, err))?;
    Ok(line)
}

/// Encodes a spill snapshot: the session spec as its canonical JSON
/// (specs are tiny and their fingerprint hashes those bytes) plus the
/// partial in the dense binary layout.
pub fn encode_snapshot(spec_json: &str, partial: &EnsemblePartial) -> Vec<u8> {
    let mut buf = header(TAG_SNAPSHOT);
    put_string(&mut buf, spec_json);
    partial.encode_binary(&mut buf);
    buf
}

/// Decodes a GLCB spill snapshot into `(spec_json, partial)`; the
/// partial is structurally validated, the spec is returned as text for
/// the caller's JSON layer (which also re-derives the fingerprint).
///
/// # Errors
///
/// [`ServiceError::Protocol`] for truncated or corrupt snapshots.
pub fn decode_snapshot(payload: &[u8]) -> Result<(String, EnsemblePartial), ServiceError> {
    let what = "GLCB snapshot";
    let (mut reader, tag) = open(payload, what)?;
    expect_tag(what, tag, TAG_SNAPSHOT)?;
    let mut read = || -> Result<(String, EnsemblePartial), WireError> {
        let spec = reader.string("snapshot spec")?;
        let partial = EnsemblePartial::decode_binary(&mut reader)?;
        reader.expect_end("snapshot")?;
        Ok((spec, partial))
    };
    read().map_err(|err| protocol(what, err))
}

/// Encodes the hello payload a framed connection opens with: the GLCB
/// header (magic + version) and nothing else.
pub fn encode_hello() -> Vec<u8> {
    header(TAG_HELLO)
}

/// Checks a peer's hello payload.
///
/// # Errors
///
/// [`ServiceError::Protocol`] for anything but a bodiless GLCB hello of
/// this version — the fail-closed behaviour connection setup relies on.
pub fn decode_hello(payload: &[u8]) -> Result<(), ServiceError> {
    let what = "GLCB hello";
    let (reader, tag) = open(payload, what)?;
    expect_tag(what, tag, TAG_HELLO)?;
    reader
        .expect_end("hello")
        .map_err(|err| protocol(what, err))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> WorkOrder {
        WorkOrder {
            model: ModelSource::Catalog("cello_0x1C".into()),
            set_amounts: vec![("LacI".into(), 15.0), ("TetR".into(), 0.5)],
            engine: EngineSpec::Langevin(0.05),
            base_seed: u64::MAX - 3,
            first_replicate: 1 << 60,
            replicates: 7,
            t_end: 40.0,
            sample_dt: 4.0,
        }
    }

    #[test]
    fn orders_round_trip_for_every_model_and_engine_variant() {
        let mut cases = vec![order()];
        let mut sbml = order();
        sbml.model = ModelSource::Sbml("<sbml>…</sbml>".into());
        sbml.set_amounts.clear();
        cases.push(sbml);
        for engine in [
            EngineSpec::Direct,
            EngineSpec::FirstReaction,
            EngineSpec::NextReaction,
            EngineSpec::TauLeap(0.01),
        ] {
            let mut case = order();
            case.engine = engine;
            cases.push(case);
        }
        for (i, case) in cases.iter().enumerate() {
            let payload = encode_order(i as u64 + 3, case);
            assert!(is_glcb(&payload));
            let (id, back) = decode_order(&payload).unwrap();
            assert_eq!(id, i as u64 + 3);
            assert_eq!(&back, case);
            // Truncations fail closed.
            for cut in 0..payload.len() {
                assert!(decode_order(&payload[..cut]).is_err(), "cut {cut}");
            }
            let mut trailing = payload.clone();
            trailing.push(0);
            assert!(decode_order(&trailing).is_err());
        }
    }

    #[test]
    fn replies_round_trip_and_retired_variants_fail_closed() {
        let reply = BinaryReply::Error("sim exploded".into());
        let payload = encode_reply(3, &reply);
        assert_eq!(decode_reply(&payload).unwrap(), (3, reply.clone()));
        for cut in 0..payload.len() {
            assert!(decode_reply(&payload[..cut]).is_err(), "cut {cut}");
        }
        // Tag confusion fails closed: an order payload is not a reply.
        assert!(decode_reply(&encode_order(1, &order())).is_err());
        assert!(decode_order(&payload).is_err());
        // Wrong version fails closed.
        let mut other_version = payload.clone();
        other_version[4] = 99;
        assert!(decode_reply(&other_version).is_err());
        // The retired reduction variants (2 and 3) are unknown now; the
        // variant byte follows the 6-byte header and the 1-byte id.
        for variant in [2u8, 3] {
            let mut retired = payload.clone();
            retired[7] = variant;
            assert!(decode_reply(&retired).is_err(), "variant {variant}");
        }
        // JSON payloads are rejected outright.
        assert!(!is_glcb(b"{\"id\":1}"));
        assert!(decode_reply(b"{\"id\":1}").is_err());
    }

    #[test]
    fn text_payloads_round_trip_the_exact_line_bytes() {
        let line = "{\"id\":\"alpha\",\"Stats\":null}";
        let payload = encode_text(line);
        assert_eq!(decode_text(&payload).unwrap(), line);
        assert!(decode_text(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn hello_negotiation_matrix() {
        let hello = encode_hello();
        decode_hello(&hello).unwrap();
        // Another GLCB version, an older build's flags byte (either
        // value), a truncated hello, another tag, and an older build's
        // JSON hello all fail closed.
        let mut other_version = hello.clone();
        other_version[4] = GLCB_VERSION + 1;
        // Version 1 builds drew another Direct stream.
        let mut previous_stream = hello.clone();
        previous_stream[4] = 1;
        // Version 2 builds spell partial cells in the 8-byte-digit layout.
        let mut previous_layout = hello.clone();
        previous_layout[4] = 2;
        // Version 3 builds draw the exact engines' waits through libm.
        let mut libm_waits = hello.clone();
        libm_waits[4] = 3;
        let mut flagged = hello.clone();
        flagged.push(1);
        let mut unflagged = hello.clone();
        unflagged.push(0);
        for bad in [
            other_version,
            previous_stream,
            previous_layout,
            libm_waits,
            flagged,
            unflagged,
            hello[..hello.len() - 1].to_vec(),
            encode_text("{}"),
            b"{\"glc_frame_hello\":1}".to_vec(),
            b"{\"glc_frame_hello\":1,\"codecs\":[\"glcb\"]}".to_vec(),
        ] {
            assert!(decode_hello(&bad).is_err(), "{bad:?}");
        }
    }
}
