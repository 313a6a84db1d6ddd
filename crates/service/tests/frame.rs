//! Frame-codec robustness: the length-prefixed wire format must fail
//! **closed** under everything a broken pipe, a hostile peer, or a
//! socket can produce — short reads at arbitrary boundaries,
//! interleaved correlation ids, oversized length prefixes, truncated
//! frames — with no panic and no partially trusted payload.

use glc_service::codec::{self, BinaryReply};
use glc_service::frame::{encode_frame, read_frame, write_frame, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
use proptest::prelude::*;
use std::io::Read;

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

/// A reader that hands out its bytes in pieces split at pseudo-random
/// points, the way a socket's short reads arrive.
struct Splits<'a> {
    wire: &'a [u8],
    state: u64,
}

impl Read for Splits<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        // Piece sizes from 1 byte to ~32: small enough to cut headers
        // and payloads everywhere interesting.
        let take = (1 + (self.state as usize) % 32)
            .min(self.wire.len())
            .min(buf.len());
        buf[..take].copy_from_slice(&self.wire[..take]);
        self.wire = &self.wire[take..];
        Ok(take)
    }
}

/// Reads every frame of `wire`, delivered in pieces split at points
/// derived from `seed`, up to the clean EOF after the last one.
fn read_in_splits(wire: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut reader = Splits {
        wire,
        state: seed | 1,
    };
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut reader).expect("valid wire never errors") {
        frames.push(frame);
    }
    frames
}

proptest! {
    /// Any sequence of frames survives any split pattern: the reader
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
        prop_assert_eq!(&read_in_splits(&wire, split_seed), &payloads);
    }

    /// A frame truncated at any cut point is an error — never a
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
        // EOF mid-frame is a protocol error.
        let outcome = read_frame(&mut &truncated[..]);
        match outcome {
            Err(err) => prop_assert!(
                err.to_string().contains("truncated frame"),
                "cut {cut}: {err}"
            ),
            Ok(got) => prop_assert!(false, "cut {cut} produced {got:?}"),
        }
    }

    /// A length prefix beyond the cap is rejected as soon as the
    /// header is complete — before any payload allocation.
    #[test]
    fn oversized_lengths_fail_closed_before_allocation(
        extra in 1u64..u64::from(u32::MAX) - MAX_FRAME_PAYLOAD as u64,
        junk_seed in 0u64..u64::MAX,
    ) {
        let len = MAX_FRAME_PAYLOAD as u32 + extra as u32;
        let mut wire = Vec::from(FRAME_MAGIC);
        wire.extend_from_slice(&len.to_be_bytes());
        // A few junk bytes after the header: the reader must not
        // wait for `len` bytes before rejecting.
        wire.extend_from_slice(&payload_bytes(junk_seed, 8));
        let err = read_frame(&mut &wire[..]).unwrap_err().to_string();
        prop_assert!(err.contains("exceeds"), "{err}");
    }

    /// A corrupted magic fails closed, whichever of the four bytes was
    /// flipped.
    #[test]
    fn corrupt_magic_fails_closed(
        byte_index in 0usize..4,
        flip in 1u64..256,
        seed in 0u64..u64::MAX,
    ) {
        let mut frame = encode_frame(&payload_bytes(seed, 16)).unwrap();
        frame[byte_index] ^= flip as u8;
        let err = read_frame(&mut &frame[..]).unwrap_err().to_string();
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
        let frames = read_in_splits(&wire, split_seed);
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
