//! Frame-codec robustness: the length-prefixed wire format must fail
//! **closed** under everything a broken pipe, a hostile peer, or a
//! nonblocking socket can produce — split reads at arbitrary
//! boundaries, interleaved correlation ids, oversized length
//! prefixes, truncated frames — with no panic and no partially
//! trusted payload.

use glc_service::codec::{self, BinaryReply};
use glc_service::frame::{
    encode_frame, read_frame, write_frame, FrameDecoder, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
};
use proptest::prelude::*;

/// A deterministic pseudo-random payload: the vendored proptest has no
/// byte strategies, so bytes are synthesized from a u64 seed with a
/// splitmix-style mix.
fn payload_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// Splits `wire` at pseudo-random points derived from `seed` and
/// feeds the pieces to the decoder, returning every decoded frame.
fn feed_in_splits(decoder: &mut FrameDecoder, wire: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut state = seed | 1;
    let mut at = 0;
    while at < wire.len() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Piece sizes from 1 byte to ~32: small enough to cut headers
        // and payloads everywhere interesting.
        let take = (1 + (state as usize) % 32).min(wire.len() - at);
        decoder.push(&wire[at..at + take]);
        at += take;
        while let Some(frame) = decoder.next_frame().expect("valid wire never errors") {
            frames.push(frame);
        }
    }
    frames
}

proptest! {
    /// Any sequence of frames survives any split pattern: the decoder
    /// reassembles exactly the payloads that were written, in order,
    /// and ends at a clean frame boundary.
    #[test]
    fn arbitrary_splits_reassemble_exactly(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..6),
        lens in proptest::collection::vec(0usize..600, 1..6),
        split_seed in 0u64..u64::MAX,
    ) {
        let payloads: Vec<Vec<u8>> = seeds
            .iter()
            .zip(&lens)
            .map(|(&seed, &len)| payload_bytes(seed, len))
            .collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        let mut decoder = FrameDecoder::new();
        let frames = feed_in_splits(&mut decoder, &wire, split_seed);
        prop_assert_eq!(&frames, &payloads);
        prop_assert!(!decoder.has_partial(), "ended inside a frame");
    }

    /// A frame truncated at any cut point is an error (blocking
    /// reader) or a held partial (incremental decoder) — never a
    /// payload, never a panic.
    #[test]
    fn truncation_never_yields_a_partial_payload(
        seed in 0u64..u64::MAX,
        len in 1usize..300,
        cut_frac in 0u64..1000,
    ) {
        let frame = encode_frame(&payload_bytes(seed, len)).unwrap();
        // Cut strictly inside the frame.
        let cut = 1 + (cut_frac as usize * (frame.len() - 2)) / 1000;
        let truncated = &frame[..cut];
        // Blocking reader: EOF mid-frame is a protocol error.
        let outcome = read_frame(&mut &truncated[..]);
        match outcome {
            Err(err) => prop_assert!(
                err.to_string().contains("truncated frame"),
                "cut {cut}: {err}"
            ),
            Ok(got) => prop_assert!(false, "cut {cut} produced {got:?}"),
        }
        // Incremental decoder: the bytes are held as a partial, so the
        // connection owner can tell a mid-frame hangup from a clean
        // close.
        let mut decoder = FrameDecoder::new();
        decoder.push(truncated);
        prop_assert_eq!(decoder.next_frame().unwrap(), None);
        prop_assert!(decoder.has_partial());
    }

    /// A length prefix beyond the cap is rejected as soon as the
    /// header is complete — before any payload allocation — on both
    /// decode paths.
    #[test]
    fn oversized_lengths_fail_closed_before_allocation(
        extra in 1u64..u64::from(u32::MAX) - MAX_FRAME_PAYLOAD as u64,
        junk_seed in 0u64..u64::MAX,
    ) {
        let len = MAX_FRAME_PAYLOAD as u32 + extra as u32;
        let mut wire = Vec::from(FRAME_MAGIC);
        wire.extend_from_slice(&len.to_be_bytes());
        // A few junk bytes after the header: the decoder must not
        // wait for `len` bytes before rejecting.
        wire.extend_from_slice(&payload_bytes(junk_seed, 8));
        let err = read_frame(&mut &wire[..]).unwrap_err().to_string();
        prop_assert!(err.contains("exceeds"), "{err}");
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..FRAME_HEADER_LEN]);
        let err = decoder.next_frame().unwrap_err().to_string();
        prop_assert!(err.contains("exceeds"), "{err}");
    }

    /// A corrupted magic fails on the first byte that proves it wrong,
    /// whichever of the four bytes was flipped.
    #[test]
    fn corrupt_magic_fails_on_the_first_wrong_byte(
        byte_index in 0usize..4,
        flip in 1u64..256,
        seed in 0u64..u64::MAX,
    ) {
        let mut frame = encode_frame(&payload_bytes(seed, 16)).unwrap();
        frame[byte_index] ^= flip as u8;
        let err = read_frame(&mut &frame[..]).unwrap_err().to_string();
        prop_assert!(err.contains("bad frame magic"), "{err}");
        // The incremental decoder needs only the bytes up to and
        // including the corrupt one.
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame[..=byte_index]);
        let err = decoder.next_frame().unwrap_err().to_string();
        prop_assert!(err.contains("bad frame magic"), "{err}");
    }

    /// Interleaved correlation ids survive the reply round trip:
    /// replies written in any order decode to exactly their own id and
    /// body, so a pipelined slot can attribute every reply.
    #[test]
    fn interleaved_ids_round_trip_unconfused(
        ids in proptest::collection::vec(0u64..u64::MAX, 2..8),
        split_seed in 0u64..u64::MAX,
    ) {
        let mut wire = Vec::new();
        for &id in &ids {
            let body = BinaryReply::Error(format!("reply-{id}"));
            write_frame(&mut wire, &codec::encode_reply(id, &body)).unwrap();
        }
        let mut decoder = FrameDecoder::new();
        let frames = feed_in_splits(&mut decoder, &wire, split_seed);
        prop_assert_eq!(frames.len(), ids.len());
        for (frame, &wanted) in frames.iter().zip(&ids) {
            let (id, reply) = codec::decode_reply(frame).unwrap();
            prop_assert_eq!(id, wanted);
            match reply {
                BinaryReply::Error(msg) => {
                    prop_assert_eq!(msg, format!("reply-{wanted}"))
                }
                other => prop_assert!(false, "wrong body {other:?}"),
            }
        }
    }

    /// Uncorrelatable or malformed replies fail closed: arbitrary
    /// bytes, an older build's JSON envelope (with or without an id),
    /// or a GLCB reply cut short before its id all error rather than
    /// guessing an attribution.
    #[test]
    fn uncorrelatable_replies_are_rejected(
        seed in 0u64..u64::MAX,
        shape in 0usize..4,
    ) {
        let payload: Vec<u8> = match shape {
            // Arbitrary bytes.
            0 => payload_bytes(seed, 24),
            // A JSON envelope without an id.
            1 => b"{\"Error\":\"no id here\"}".to_vec(),
            // A JSON envelope with one.
            2 => b"{\"id\":1,\"Error\":\"boom\"}".to_vec(),
            // A GLCB reply header with no id after it.
            _ => codec::encode_reply(seed, &BinaryReply::Error("x".into()))[..6].to_vec(),
        };
        prop_assert!(codec::decode_reply(&payload).is_err(), "shape {shape} decoded");
    }
}
