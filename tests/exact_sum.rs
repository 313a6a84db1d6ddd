//! Property tests for the sparse `ExactSum` representation against an
//! independent dense reference.
//!
//! PR 4 swapped `ExactSum`'s flat 67-digit array for a sparse `lo` +
//! digit-window form (the resident query service holds thousands of
//! cells warm, and ~550 B/cell did not scale). The contract of that
//! swap is **bitwise invisibility**: `value()`, merging, equality and
//! the encoded form must be unchanged. This file pins the contract
//! against `DenseSum` — a self-contained reimplementation of the
//! pre-swap dense accumulator (carry-save flat array, canonical
//! normalize, round-to-nearest-even) — on adversarial magnitudes:
//! denormals, `±MAX`, catastrophic cancellation, and mixtures spanning
//! the full finite exponent range.
//!
//! The integer lane keeps the contract: integral inputs below 2^63 sum
//! in an `i128` beside the window, and the GLCB cell encodes the exact
//! total, not the path that reached it. The integer-shaped inputs below
//! (counts, ±2^63, integral values past the lane) and the binary
//! round-trip checks pin both against the same dense oracle. GLCB is
//! the cell's only encoding (`ExactSum` has no serde form), so the
//! binary round trip is also the canonical-encoding check.

use genetic_logic::ssa::wire::{put_zigzag, Reader};
use genetic_logic::ssa::ExactSum;
use proptest::collection::vec;
use proptest::prelude::*;

/// Number of base-2^32 digits in the dense reference (matches the
/// conceptual capacity of the sparse form).
const DIGITS: usize = 67;
const DIGIT_MASK: i64 = 0xFFFF_FFFF;

/// `2^e` as an exact `f64`, for `e` in `-1074..=1023`.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// The pre-swap dense superaccumulator, reimplemented here as an
/// independent oracle (carry-save additions into a flat digit array;
/// value() = canonical normalize + round to nearest, ties to even).
#[derive(Clone)]
struct DenseSum {
    digits: [i64; DIGITS],
    non_finite: bool,
}

impl DenseSum {
    fn new() -> Self {
        DenseSum {
            digits: [0; DIGITS],
            non_finite: false,
        }
    }

    fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite = true;
            return;
        }
        if v == 0.0 {
            return;
        }
        let bits = v.to_bits();
        let exponent_field = ((bits >> 52) & 0x7FF) as i32;
        let fraction = bits & ((1u64 << 52) - 1);
        let (mantissa, shift) = if exponent_field == 0 {
            (fraction, 0)
        } else {
            (fraction | (1 << 52), exponent_field - 1)
        };
        let digit = (shift / 32) as usize;
        let offset = (shift % 32) as u32;
        let spread = u128::from(mantissa) << offset;
        let sign = if bits >> 63 == 1 { -1i64 } else { 1i64 };
        self.digits[digit] += sign * ((spread as i64) & DIGIT_MASK);
        self.digits[digit + 1] += sign * (((spread >> 32) as i64) & DIGIT_MASK);
        self.digits[digit + 2] += sign * ((spread >> 64) as i64);
    }

    fn merge(&mut self, other: &DenseSum) {
        self.non_finite |= other.non_finite;
        for (mine, theirs) in self.digits.iter_mut().zip(&other.digits) {
            *mine += *theirs;
        }
    }

    /// Canonical digit vector: carries propagated, every digit below
    /// the top in `[0, 2^32)`, the top digit signed.
    fn canonical(&self) -> [i64; DIGITS] {
        let mut digits = self.digits;
        let mut carry = 0i64;
        for digit in &mut digits[..DIGITS - 1] {
            let total = *digit + carry;
            carry = total >> 32;
            *digit = total & DIGIT_MASK;
        }
        digits[DIGITS - 1] += carry;
        digits
    }

    fn value(&self) -> f64 {
        if self.non_finite {
            return f64::NAN;
        }
        let mut digits = self.canonical();
        let negative = digits[DIGITS - 1] < 0;
        if negative {
            let mut borrow = 0i64;
            for digit in &mut digits[..DIGITS - 1] {
                let total = -*digit + borrow;
                borrow = total >> 32;
                *digit = total & DIGIT_MASK;
            }
            digits[DIGITS - 1] = -digits[DIGITS - 1] + borrow;
        }
        let Some(top) = (0..DIGITS).rev().find(|&i| digits[i] != 0) else {
            return 0.0;
        };
        let msb = 63 - digits[top].leading_zeros() as i64;
        let high_bit = top as i64 * 32 + msb;
        let round_pos = (high_bit - 52).max(0);
        let mut mantissa = 0u64;
        for bit in (round_pos..=high_bit).rev() {
            mantissa = (mantissa << 1) | ((digits[(bit / 32) as usize] >> (bit % 32)) as u64 & 1);
        }
        let guard = round_pos > 0 && {
            let bit = round_pos - 1;
            (digits[(bit / 32) as usize] >> (bit % 32)) & 1 == 1
        };
        let sticky = round_pos > 1
            && (0..round_pos - 1).any(|bit| (digits[(bit / 32) as usize] >> (bit % 32)) & 1 == 1);
        if guard && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        let scale_exp = round_pos as i32 - 1074;
        let magnitude = if scale_exp > 1023 {
            f64::INFINITY
        } else {
            mantissa as f64 * pow2(scale_exp)
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// One adversarially-shaped input value: denormals, extremes, exact
/// powers, cancelling pairs' halves, and ordinary magnitudes across
/// the full exponent range.
fn adversarial_value() -> BoxedStrategy<f64> {
    prop_oneof![
        // Fixed hard cases.
        Just(5e-324), // smallest subnormal
        Just(-5e-324),
        Just(f64::MIN_POSITIVE), // smallest normal
        Just(-f64::MIN_POSITIVE),
        Just(f64::MIN_POSITIVE / 8.0), // deeper subnormal
        Just(f64::MAX),
        Just(-f64::MAX),
        Just(f64::MAX / 2.0),
        Just(1.0),
        Just(-1.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::powi(2.0, -53)), // half-ulp of 1.0 (tie shapes)
        Just(1.0 + f64::powi(2.0, -52)),
        // Arbitrary bit patterns over the full exponent range
        // (mantissa × 2^e with e in ±1020 keeps values finite).
        (0u64..1 << 53, 0u64..2040, any::<bool>()).prop_map(|(m, e, neg)| {
            let v = (m as f64) * f64::powi(2.0, e as i32 - 1020 - 53);
            if neg {
                -v
            } else {
                v
            }
        }),
        // Integer-shaped inputs: copy numbers and their squares (the
        // lane's workload), the lane's edges (-2^63 = i64::MIN as f64
        // is the lane's floor, 2^63 the first value past it), and
        // integral values beyond the lane.
        (0u64..1000, any::<bool>()).prop_map(|(n, neg)| if neg { -(n as f64) } else { n as f64 }),
        (0u64..1 << 20).prop_map(|n| (n * n) as f64),
        Just(f64::powi(2.0, 63)),
        Just(-f64::powi(2.0, 63)),
        Just(i64::MIN as f64),
        Just(f64::powi(2.0, 63) - 1024.0), // largest f64 below 2^63
        Just(-(f64::powi(2.0, 63) - 1024.0)),
        (1u64 << 52..1 << 53, 11u64..80, any::<bool>()).prop_map(|(m, e, neg)| {
            // m · 2^e ≥ 2^63: integral, and past the lane.
            let v = m as f64 * f64::powi(2.0, e as i32);
            if neg {
                -v
            } else {
                v
            }
        }),
        // Near-cancelling magnitudes around 1e16 (classic residual
        // loss for sequential f64 summation).
        (0u64..1 << 40, any::<bool>()).prop_map(|(m, neg)| {
            let v = 1e16 + m as f64;
            if neg {
                -v
            } else {
                v
            }
        }),
    ]
    .boxed()
}

fn sparse_of(values: &[f64]) -> ExactSum {
    let mut acc = ExactSum::new();
    for &v in values {
        acc.add(v);
    }
    acc
}

fn dense_of(values: &[f64]) -> DenseSum {
    let mut acc = DenseSum::new();
    for &v in values {
        acc.add(v);
    }
    acc
}

proptest! {
    /// Sparse value() ≡ dense value() bitwise, on adversarial inputs.
    #[test]
    fn sparse_value_matches_dense_reference(values in vec(adversarial_value(), 0..40)) {
        let sparse = sparse_of(&values).value();
        let dense = dense_of(&values).value();
        prop_assert_eq!(
            sparse.to_bits(),
            dense.to_bits(),
            "sparse {} vs dense {} over {:?}",
            sparse,
            dense,
            values
        );
    }

    /// Splitting the input anywhere and merging reproduces the dense
    /// whole-sum bits — for both merge orders.
    #[test]
    fn sparse_merge_matches_dense_reference(
        values in vec(adversarial_value(), 1..30),
        cut in 0usize..30,
    ) {
        let cut = cut % values.len();
        let (left, right) = values.split_at(cut);
        // The dense side merges too, so the oracle's own merge path
        // (and its agreement with sequential accumulation) is covered.
        let mut dense = dense_of(left);
        dense.merge(&dense_of(right));
        let whole = dense.value();
        prop_assert_eq!(whole.to_bits(), dense_of(&values).value().to_bits());
        let mut forward = sparse_of(left);
        forward.merge(&sparse_of(right));
        prop_assert_eq!(forward.value().to_bits(), whole.to_bits());
        let mut backward = sparse_of(right);
        backward.merge(&sparse_of(left));
        prop_assert_eq!(backward.value().to_bits(), whole.to_bits());
        prop_assert_eq!(&forward, &backward);
    }
}

/// The GLCB cell bytes of `acc`.
fn cell_bytes(acc: &ExactSum) -> Vec<u8> {
    let mut buf = Vec::new();
    acc.encode_binary(&mut buf);
    buf
}

/// Decodes one GLCB cell, requiring the payload be consumed exactly.
fn decode_cell(bytes: &[u8]) -> ExactSum {
    let mut reader = Reader::new(bytes);
    let acc = ExactSum::decode_binary(&mut reader).unwrap();
    reader.expect_end("cell").unwrap();
    acc
}

proptest! {
    /// The binary cell is canonical: decoding then re-encoding gives
    /// the identical bytes, the decoded accumulator equals the
    /// original and matches the dense reference's value bitwise, and
    /// the bytes depend only on the total — not on how the inputs were
    /// split and merged.
    #[test]
    fn binary_round_trip_is_bytewise_canonical(
        values in vec(adversarial_value(), 0..40),
        cut in 0usize..40,
    ) {
        let acc = sparse_of(&values);
        let bytes = cell_bytes(&acc);
        let back = decode_cell(&bytes);
        prop_assert_eq!(&back, &acc);
        prop_assert_eq!(cell_bytes(&back), bytes.clone(), "re-encoding is not identical");
        prop_assert_eq!(back.value().to_bits(), dense_of(&values).value().to_bits());
        let (left, right) = values.split_at(cut.min(values.len()));
        let mut merged = sparse_of(right);
        merged.merge(&sparse_of(left));
        prop_assert_eq!(cell_bytes(&merged), bytes);
    }
}

#[test]
fn totals_reached_through_the_window_encode_like_the_lane() {
    // Each pair holds the same exact total, once through non-integral
    // or out-of-lane inputs (the digit window) and once through the
    // integer lane alone: equal values, equal accumulators, equal bytes.
    let two_70 = f64::powi(2.0, 70);
    for (window, lane) in [
        (vec![0.5, 0.5], vec![1.0]),
        (vec![two_70, -two_70, 3.0], vec![3.0]),
        (vec![two_70, 3.0, -two_70], vec![1.0, 2.0]),
        (vec![-0.25, -0.75, -1.0], vec![-2.0]),
        (vec![0.1, -0.1], vec![]),
        // 2^63 sits past the lane, 2^63 - 1024 inside it: both sum to
        // i64::MAX.
        (
            vec![f64::powi(2.0, 63), -1.0],
            vec![f64::powi(2.0, 63) - 1024.0, 1023.0],
        ),
    ] {
        let through_window = sparse_of(&window);
        let through_lane = sparse_of(&lane);
        assert_eq!(through_window, through_lane, "{window:?} vs {lane:?}");
        assert_eq!(
            through_window.value().to_bits(),
            through_lane.value().to_bits(),
            "{window:?}"
        );
        let bytes = cell_bytes(&through_lane);
        assert_eq!(cell_bytes(&through_window), bytes, "{window:?}");
        // An integer total is one flag byte plus one zigzag varint.
        assert_eq!(
            bytes[0], 2,
            "{window:?}: integer totals use the integer flag"
        );
        assert_eq!(cell_bytes(&decode_cell(&bytes)), bytes);
    }
}

#[test]
fn lane_overflow_folds_into_the_window_exactly() {
    // A lane decoded at i128::MAX cannot take another 1.0 as an
    // integer: it folds into the window, and the total 2^127 (past the
    // i128 range) encodes as a window.
    let at = |total: i128| {
        let mut bytes = vec![2u8];
        put_zigzag(&mut bytes, total);
        decode_cell(&bytes)
    };
    let two_127 = f64::powi(2.0, 127);
    let mut acc = at(i128::MAX);
    acc.add(1.0);
    let dense = dense_of(&[two_127, -1.0, 1.0]);
    assert_eq!(acc.value().to_bits(), dense.value().to_bits());
    assert_eq!(acc.value(), two_127);
    assert_eq!(acc, sparse_of(&[two_127]));
    let bytes = cell_bytes(&acc);
    assert_eq!(bytes[0], 0, "2^127 does not fit i128: window flag");
    assert_eq!(bytes, cell_bytes(&sparse_of(&[two_127])));
    assert_eq!(decode_cell(&bytes), acc);
    // Taking the 1.0 back out returns to an integer total, encoded
    // exactly like the original lane.
    acc.add(-1.0);
    assert_eq!(cell_bytes(&acc), cell_bytes(&at(i128::MAX)));

    // The same on the negative side, and through merge: two lanes at
    // i128::MIN overflow on merge and sum to -2^128 exactly.
    let mut low = at(i128::MIN);
    low.add(-1.0);
    let dense = dense_of(&[-two_127, -1.0]);
    assert_eq!(low.value().to_bits(), dense.value().to_bits());
    let mut merged = at(i128::MIN);
    merged.merge(&at(i128::MIN));
    assert_eq!(merged, sparse_of(&[-2.0 * two_127]));
    assert_eq!(
        merged.value().to_bits(),
        dense_of(&[-two_127, -two_127]).value().to_bits()
    );
    // And the i128::MIN lane itself is an integer total.
    assert_eq!(cell_bytes(&at(i128::MIN))[0], 2);
    assert_eq!(at(i128::MIN), sparse_of(&[-two_127]));
}

#[test]
fn dense_reference_agrees_on_known_results() {
    // Sanity-check the oracle itself on cases with known exact sums.
    let mut dense = DenseSum::new();
    for v in [1e300, 1.0, -1e300] {
        dense.add(v);
    }
    assert_eq!(dense.value(), 1.0);
    let mut dense = DenseSum::new();
    dense.add(f64::MAX);
    dense.add(f64::MAX);
    assert_eq!(dense.value(), f64::INFINITY);
    let mut dense = DenseSum::new();
    dense.add(3.0 * 5e-324);
    dense.add(2.0 * 5e-324);
    assert_eq!(dense.value(), 5.0 * 5e-324);
}
