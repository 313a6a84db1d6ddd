//! GLCB codec tests: round-trip property tests that the binary wire
//! layer is bitwise-faithful, agrees with a work order's serde JSON
//! form wherever JSON can represent the value exactly, and fails closed
//! on every truncated, trailing-garbage or structurally-invalid
//! payload.
//!
//! The JSON-parity assertions are scoped to values below 2^53: the
//! JSON layer carries numbers through f64, so seed ranges above that
//! lose low bits there — which is precisely why the GLCB varints exist;
//! the binary path is exact for the full u64 range (checked here at the
//! wrap boundary).
//!
//! CI runs this file on every push (`query-service` job).

use glc_service::codec::{self, BinaryReply};
use glc_service::{EngineSpec, ModelSource, WorkOrder};
use glc_ssa::{CompiledModel, EnsemblePartial, Trace};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Characters the text-frame property draws lines from: ASCII, JSON
/// structure, and multi-byte UTF-8.
const PALETTE: [char; 12] = ['a', 'Z', '0', ' ', '"', '{', '}', ':', ',', '§', 'π', '💥'];
const PALETTE_LEN: usize = PALETTE.len();

/// Draws across the full u64 span the vendored strategies can reach:
/// small values, the 2^53 JSON-exactness boundary, and the wrap edge.
fn any_u64() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..1000,
        ((1u64 << 53) - 1000)..((1u64 << 53) + 1000),
        (u64::MAX - 1000)..u64::MAX,
    ]
}

/// A small catalog order, fields driven by the property inputs.
fn tiny_order(seed: u64, first: u64, replicates: u64, engine: EngineSpec) -> WorkOrder {
    let mut order = WorkOrder::new(
        ModelSource::Catalog("book_not".into()),
        engine,
        seed,
        replicates,
        5.0,
        1.0,
    )
    .with_amount("LacI", 15.0);
    order.first_replicate = first;
    order
}

/// A fixed menu of partials spanning the codec's edge cases: a real
/// Direct run, a wrap-straddling seed range, an empty grid, and a
/// poisoned one (whose finalized noise figures are NaN).
fn sample_partials() -> &'static Vec<EnsemblePartial> {
    static PARTIALS: OnceLock<Vec<EnsemblePartial>> = OnceLock::new();
    PARTIALS.get_or_init(|| {
        let run = |seed: u64, replicates: u64| {
            tiny_order(seed, 0, replicates, EngineSpec::Direct)
                .execute()
                .expect("tiny order runs")
        };
        let mut model = ModelSource::Catalog("book_not".into())
            .load()
            .expect("catalog model");
        model.set_initial_amount("LacI", 15.0);
        let compiled = CompiledModel::new(&model).expect("compiles");
        let empty = EnsemblePartial::new(&compiled, 5.0, 1.0).expect("empty grid");
        let mut poisoned = EnsemblePartial::new(&compiled, 2.0, 1.0).expect("grid");
        let species: Vec<String> = poisoned.fingerprint().species.clone();
        let mut hot = Trace::new(species.clone(), 1.0, 0.0);
        for _ in 0..3 {
            hot.push_row(&vec![f64::INFINITY; species.len()]);
        }
        poisoned.accumulate(&hot, 0).expect("poisoning accumulate");
        vec![run(11, 3), run(u64::MAX - 2, 3), empty, poisoned]
    })
}

proptest! {
    /// Orders: GLCB round-trips bitwise for the full u64 seed space,
    /// agrees with the order's serde JSON form below 2^53, and every
    /// truncation or trailing byte fails closed.
    #[test]
    fn glcb_orders_round_trip_and_match_json(
        seed in any_u64(),
        first in any_u64(),
        replicates in 0u64..1000,
        id in any_u64(),
        engine_pick in 0usize..5,
        knob in 0.001f64..1.0,
    ) {
        let engine = match engine_pick {
            0 => EngineSpec::Direct,
            1 => EngineSpec::FirstReaction,
            2 => EngineSpec::NextReaction,
            3 => EngineSpec::TauLeap(knob),
            _ => EngineSpec::Langevin(knob),
        };
        let order = tiny_order(seed, first, replicates, engine);
        let bytes = codec::encode_order(id, &order);
        prop_assert!(codec::is_glcb(&bytes));
        let (back_id, back) = codec::decode_order(&bytes).unwrap();
        prop_assert_eq!(back_id, id);
        prop_assert_eq!(&back, &order);
        prop_assert_eq!(codec::encode_order(id, &back), bytes.clone(), "canonical re-encode");

        if seed < (1 << 53) && first < (1 << 53) {
            let json = serde_json::to_string(&order).unwrap();
            prop_assert!(!codec::is_glcb(json.as_bytes()), "JSON can never pass as GLCB");
            prop_assert!(codec::decode_order(json.as_bytes()).is_err(), "JSON orders fail closed");
            let via_json: WorkOrder = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&via_json, &back, "codec ≡ JSON below 2^53");
        }

        for cut in (0..bytes.len()).step_by(7) {
            prop_assert!(codec::decode_order(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes;
        trailing.push(0);
        prop_assert!(codec::decode_order(&trailing).is_err());
    }

    /// Replies: both `BinaryReply` variants — partials with poisoned
    /// sums or wrap-straddling seed ranges included — round-trip
    /// bitwise and fail closed on damage, and the retired reduction
    /// variant bytes (2 and 3) are unknown.
    #[test]
    fn glcb_replies_round_trip_bitwise(
        id in any_u64(),
        case in 0usize..4,
        partial_reply in any::<bool>(),
    ) {
        let reply = if partial_reply {
            BinaryReply::Partial(sample_partials()[case].clone())
        } else {
            BinaryReply::Error("chunk exploded: §π💥".into())
        };
        let bytes = codec::encode_reply(id, &reply);
        prop_assert!(codec::is_glcb(&bytes));
        let (back_id, back) = codec::decode_reply(&bytes).unwrap();
        prop_assert_eq!(back_id, id);
        prop_assert_eq!(&back, &reply);
        prop_assert_eq!(codec::encode_reply(id, &back), bytes.clone(), "canonical re-encode");

        for cut in (0..bytes.len()).step_by(13) {
            prop_assert!(codec::decode_reply(&bytes[..cut]).is_err());
        }
        // The variant byte follows the 6-byte header and the varint id.
        let variant_at = codec::encode_reply(id, &BinaryReply::Error(String::new())).len() - 2;
        for retired in [2u8, 3] {
            let mut bytes = bytes.clone();
            bytes[variant_at] = retired;
            prop_assert!(codec::decode_reply(&bytes).is_err(), "variant {}", retired);
        }
        let mut trailing = bytes;
        trailing.push(0);
        prop_assert!(codec::decode_reply(&trailing).is_err());
    }

    /// Session text frames carry the line bytes exactly, whatever the
    /// line holds.
    #[test]
    fn glcb_text_frames_are_byte_faithful(
        picks in proptest::collection::vec(0usize..PALETTE_LEN, 0..120),
    ) {
        let line: String = picks.iter().map(|&i| PALETTE[i]).collect();
        let bytes = codec::encode_text(&line);
        prop_assert!(codec::is_glcb(&bytes));
        prop_assert_eq!(codec::decode_text(&bytes).unwrap(), line);
        for cut in (0..bytes.len()).step_by(5) {
            prop_assert!(codec::decode_text(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn glcb_snapshots_round_trip_spec_and_partial() {
    for partial in sample_partials() {
        let spec_json = r#"{"model":{"Catalog":"book_not"},"fake":"spec"}"#;
        let bytes = codec::encode_snapshot(spec_json, partial);
        assert!(codec::is_glcb(&bytes));
        let (back_spec, back_partial) = codec::decode_snapshot(&bytes).unwrap();
        assert_eq!(back_spec, spec_json);
        assert_eq!(&back_partial, partial);
        for cut in (0..bytes.len()).step_by(11) {
            assert!(codec::decode_snapshot(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn cross_tag_decodes_fail_closed() {
    // A payload of one tag handed to another tag's decoder is a
    // protocol error, never a misparse.
    let order = codec::encode_order(1, &tiny_order(2, 0, 3, EngineSpec::Direct));
    let reply = codec::encode_reply(1, &BinaryReply::Error("x".into()));
    let text = codec::encode_text("{\"Stats\":null}");
    assert!(codec::decode_reply(&order).is_err());
    assert!(codec::decode_order(&reply).is_err());
    assert!(codec::decode_order(&text).is_err());
    assert!(codec::decode_text(&order).is_err());
    assert!(codec::decode_snapshot(&text).is_err());
    // Unknown versions and tags too.
    let mut wrong_version = order.clone();
    wrong_version[4] = 9;
    assert!(codec::decode_order(&wrong_version).is_err());
    let mut wrong_tag = order;
    wrong_tag[5] = 200;
    assert!(codec::decode_order(&wrong_tag).is_err());
}

#[test]
fn hello_negotiation_matrix_holds() {
    // Every peer sends the same bodiless hello, and anything but a
    // GLCB hello of this version — an older build's flags byte,
    // version 1, whose Direct engine drew another stream, version 2,
    // whose partial cells used 8-byte digits, or version 3, whose exact
    // engines drew their waits through libm, included — fails closed.
    codec::decode_hello(&codec::encode_hello()).unwrap();
    let version_hello = |version: u8| {
        let mut hello = codec::encode_hello();
        hello[4] = version;
        hello
    };
    let flagged = [codec::encode_hello(), vec![1]].concat();
    for bad in [
        version_hello(glc_service::GLCB_VERSION.wrapping_add(1)),
        version_hello(1),
        version_hello(2),
        version_hello(3),
        flagged,
        b"{\"glc_frame_hello\":1}".to_vec(),
        codec::encode_order(1, &tiny_order(2, 0, 3, EngineSpec::Direct)),
        Vec::new(),
    ] {
        assert!(codec::decode_hello(&bad).is_err(), "{bad:?}");
    }
}
