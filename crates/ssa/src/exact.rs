//! Exact, order-independent `f64` accumulation.
//!
//! Floating-point addition is not associative, so a sum accumulated in
//! shard A then merged with shard B's sum generally differs — in the
//! last bits — from the same values summed sequentially. That would
//! make a sharded ensemble depend on how the replicate range was cut,
//! breaking the bitwise-determinism contract the distributed worker
//! protocol needs: *any* contiguous sharding of the replicate range
//! must finalize to exactly the same aggregate.
//!
//! [`ExactSum`] removes the problem at the root: it keeps the running
//! sum **exactly**, as a fixed-point integer spanning the entire finite
//! `f64` range (a Kulisch-style superaccumulator). Adding a value is
//! exact, so accumulation is genuinely associative *and* commutative —
//! merging two accumulators digit-wise is the same mathematical sum no
//! matter how the inputs were grouped. [`ExactSum::value`] rounds the
//! exact sum to the nearest `f64` (ties to even), which is a pure
//! function of the represented value; two accumulators that saw the
//! same multiset of inputs therefore produce bit-identical results.
//!
//! # Representation
//!
//! The sum is `Σ digits[i] · 2^(32·i - 1074)`: base-2^32 digits
//! starting at the least significant bit of the smallest subnormal
//! (2^-1074) and covering past the largest finite `f64` (< 2^1024).
//! Conceptually there are `DIGITS` = 67 digit positions, but only a
//! **window** of them is materialized: `lo` is the conceptual index of
//! the first stored digit and `digits` holds the contiguous run that is
//! (possibly) non-zero. A sum of same-magnitude inputs — the ensemble
//! workload, where every cell accumulates one species at one sample
//! instant — touches a handful of adjacent digits, so one accumulator
//! costs tens of bytes instead of the ~550 the former flat array paid.
//! The window grows on demand (downward for smaller magnitudes, upward
//! for carries) and never exceeds the conceptual 67 digits.
//!
//! Digits are held in `i64` **carry-save** form — additions just add
//! into at most three digits without propagating carries — and a
//! pending-addition counter triggers compaction long before the 2^63
//! headroom could overflow. Compaction propagates carries within the
//! window and keeps at most one signed top-of-window digit (the sign
//! carrier, exactly like the old flat form's top digit), so negative
//! totals stay compact in memory; only the canonical serialized form
//! (unchanged from the flat representation) spells a negative total
//! out to the top digit. Non-finite inputs poison the accumulator
//! (sticky), and `value()` then reports NaN.

use crate::wire::{put_i64_le, put_varint, Reader, WireError};
use serde::{DeError, Deserialize, Serialize, Value};

/// Number of conceptual base-2^32 digits: 66 cover bit positions
/// 0..=2111 (the finite range needs 0..=2097), plus one top digit that
/// only ever holds carries / the sign of a negative total.
const DIGITS: usize = 67;

/// Mask selecting one base-2^32 digit.
const DIGIT_MASK: i64 = 0xFFFF_FFFF;

/// Compact after this many carry-save additions. Each addition
/// contributes less than 2^32 per digit, so digit magnitudes stay
/// below 2^(32+29) = 2^61 — comfortably inside `i64`.
const CARRY_LIMIT: u32 = 1 << 29;

/// An exact running sum of `f64` values (fixed-point superaccumulator
/// over a sparse digit window).
///
/// `add` and `merge` are exact, hence associative and commutative;
/// [`ExactSum::value`] is the correctly-rounded (nearest, ties to even)
/// `f64` of the exact total. See the module docs for why ensemble
/// partials are built on this.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Conceptual index of `digits[0]` (0 = the 2^-1074 digit). An
    /// empty window represents zero.
    lo: usize,
    /// Signed carry-save digits for conceptual positions
    /// `lo .. lo + digits.len()`.
    digits: Vec<i64>,
    /// Carry-save additions since the last compaction.
    pending: u32,
    /// Sticky poison flag: a non-finite input was added.
    non_finite: bool,
}

/// `2^e` as an exact `f64`, for `e` in `-1074..=1023`.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1074..=1023).contains(&e));
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        // Subnormal powers of two: a single mantissa bit.
        f64::from_bits(1u64 << (e + 1074))
    }
}

impl ExactSum {
    /// A fresh zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the window (if needed) to cover conceptual positions
    /// `from .. to`, zero-filling the new digits.
    fn ensure_window(&mut self, from: usize, to: usize) {
        debug_assert!(from < to && to <= DIGITS);
        if self.digits.is_empty() {
            self.lo = from;
            self.digits.resize(to - from, 0);
            return;
        }
        if from < self.lo {
            self.digits
                .splice(0..0, std::iter::repeat_n(0, self.lo - from));
            self.lo = from;
        }
        let end = self.lo + self.digits.len();
        if to > end {
            self.digits.resize(self.digits.len() + (to - end), 0);
        }
    }

    /// Adds `v` exactly. Non-finite values poison the accumulator:
    /// every later [`ExactSum::value`] call reports NaN.
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite = true;
            return;
        }
        if v == 0.0 {
            return; // ±0 contributes nothing.
        }
        if self.pending >= CARRY_LIMIT {
            self.compact();
        }
        let bits = v.to_bits();
        let exponent_field = ((bits >> 52) & 0x7FF) as i32;
        let fraction = bits & ((1u64 << 52) - 1);
        // v = mantissa · 2^(shift - 1074), with the implicit leading
        // bit restored for normal numbers.
        let (mantissa, shift) = if exponent_field == 0 {
            (fraction, 0)
        } else {
            (fraction | (1 << 52), exponent_field - 1)
        };
        let digit = (shift / 32) as usize;
        let offset = (shift % 32) as u32;
        // The 53-bit mantissa shifted by < 32 spans at most 85 bits:
        // three base-2^32 digits (the top one often zero — don't grow
        // the window for a digit that contributes nothing).
        let spread = u128::from(mantissa) << offset;
        let top = (spread >> 64) as i64;
        let sign = if bits >> 63 == 1 { -1i64 } else { 1i64 };
        self.ensure_window(digit, digit + if top != 0 { 3 } else { 2 });
        let at = digit - self.lo;
        self.digits[at] += sign * ((spread as i64) & DIGIT_MASK);
        self.digits[at + 1] += sign * (((spread >> 32) as i64) & DIGIT_MASK);
        if top != 0 {
            self.digits[at + 2] += sign * top;
        }
        self.pending += 1;
    }

    /// Folds `other` in, digit-wise. Exact, so the result is the same
    /// whatever grouping or order produced the two sides.
    pub fn merge(&mut self, other: &ExactSum) {
        self.non_finite |= other.non_finite;
        if other.digits.is_empty() {
            return;
        }
        if self.pending >= CARRY_LIMIT - other.pending.min(CARRY_LIMIT) {
            self.compact();
        }
        self.ensure_window(other.lo, other.lo + other.digits.len());
        let at = other.lo - self.lo;
        for (mine, theirs) in self.digits[at..].iter_mut().zip(&other.digits) {
            *mine += *theirs;
        }
        self.pending = self.pending.saturating_add(other.pending.max(1));
    }

    /// Propagates carries so every stored digit below the window top is
    /// in `[0, 2^32)`, with at most one signed top-of-window digit
    /// carrying the sign, then trims zero digits off both window ends.
    /// The represented value is unchanged; the resulting window is as
    /// small as the signed-top form allows (negative totals stay
    /// compact — they are only spelled out to the conceptual top digit
    /// in the canonical serialized form).
    fn compact(&mut self) {
        let mut carry = 0i64;
        for (i, digit) in self.digits.iter_mut().enumerate() {
            if self.lo + i == DIGITS - 1 {
                // The conceptual top digit absorbs carries unmasked and
                // keeps the sign (it is necessarily the window's last).
                *digit += carry;
                carry = 0;
                break;
            }
            let total = *digit + carry;
            carry = total >> 32; // Arithmetic shift: floor division.
            *digit = total & DIGIT_MASK;
        }
        if carry != 0 {
            // The window top was below the conceptual top: extend by
            // one signed digit holding the outgoing carry (e.g. -1 for
            // a negative total).
            self.digits.push(carry);
        }
        while self.digits.last() == Some(&0) {
            self.digits.pop();
        }
        let leading = self.digits.iter().take_while(|&&d| d == 0).count();
        if leading > 0 {
            self.digits.drain(..leading);
            self.lo += leading;
        }
        if self.digits.is_empty() {
            self.lo = 0;
        }
        self.pending = 1;
    }

    /// The window expanded to the canonical flat digit array: carries
    /// fully propagated so digits below the top are in `[0, 2^32)` and
    /// only the top digit holds the sign — the exact digit vector the
    /// former dense representation normalized to, and the basis of
    /// `value()`, equality, and the serialized form.
    fn canonical_digits(&self) -> [i64; DIGITS] {
        let mut digits = [0i64; DIGITS];
        digits[self.lo..self.lo + self.digits.len()].copy_from_slice(&self.digits);
        let mut carry = 0i64;
        for digit in &mut digits[..DIGITS - 1] {
            let total = *digit + carry;
            carry = total >> 32;
            *digit = total & DIGIT_MASK;
        }
        digits[DIGITS - 1] += carry;
        digits
    }

    /// The exact total rounded to the nearest `f64` (ties to even);
    /// NaN if any non-finite value was ever added.
    pub fn value(&self) -> f64 {
        if self.non_finite {
            return f64::NAN;
        }
        let mut digits = self.canonical_digits();
        // Sign: after canonicalization only the top digit can be
        // negative.
        let negative = digits[DIGITS - 1] < 0;
        if negative {
            // Two's-complement negate to get the magnitude digits.
            let mut borrow = 0i64;
            for digit in &mut digits[..DIGITS - 1] {
                let total = -*digit + borrow;
                borrow = total >> 32;
                *digit = total & DIGIT_MASK;
            }
            digits[DIGITS - 1] = -digits[DIGITS - 1] + borrow;
        }
        // Most significant set bit over the magnitude.
        let Some(top) = (0..DIGITS).rev().find(|&i| digits[i] != 0) else {
            return 0.0;
        };
        let msb = 63 - digits[top].leading_zeros() as i64;
        let high_bit = top as i64 * 32 + msb; // Position above 2^-1074.
                                              // Round at 53 significant bits, or at bit 0 (2^-1074) when the
                                              // value is subnormal — bit 0 *is* the subnormal rounding step.
        let round_pos = (high_bit - 52).max(0);
        let mut mantissa = 0u64;
        for bit in (round_pos..=high_bit).rev() {
            let digit = (bit / 32) as usize;
            let offset = (bit % 32) as u32;
            mantissa = (mantissa << 1) | ((digits[digit] >> offset) as u64 & 1);
        }
        // Guard bit and sticky (any set bit below the guard).
        let guard = round_pos > 0 && {
            let bit = round_pos - 1;
            (digits[(bit / 32) as usize] >> (bit % 32)) & 1 == 1
        };
        let sticky = round_pos > 1
            && (0..round_pos - 1).any(|bit| (digits[(bit / 32) as usize] >> (bit % 32)) & 1 == 1);
        if guard && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        // `mantissa` ≤ 2^53 is exact in f64, and the power-of-two scale
        // makes the product exact (or a correctly-rounded infinity for
        // totals beyond f64::MAX), so no double rounding occurs.
        let scale_exp = round_pos as i32 - 1074;
        let magnitude = if scale_exp > 1023 {
            // Total exceeds 2^1024 territory: overflows to infinity.
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

    /// Whether any non-finite value poisoned the accumulator.
    pub fn is_poisoned(&self) -> bool {
        self.non_finite
    }

    /// Appends the GLCB binary form: a flag byte (1 = poisoned, and
    /// nothing follows), else varint `lo` + varint digit count + each
    /// digit as 8-byte little-endian `i64`. The digits written are the
    /// **canonical** trimmed window — exactly the digit vector the JSON
    /// form spells out — so two equal accumulators encode to identical
    /// bytes regardless of their in-memory carry-save state.
    pub fn encode_binary(&self, buf: &mut Vec<u8>) {
        if self.non_finite {
            buf.push(1);
            return;
        }
        buf.push(0);
        let digits = self.canonical_digits();
        let lo = digits.iter().position(|&d| d != 0).unwrap_or(0);
        let hi = digits.iter().rposition(|&d| d != 0).map_or(lo, |h| h + 1);
        put_varint(buf, lo as u64);
        put_varint(buf, (hi.max(lo) - lo) as u64);
        for &digit in &digits[lo..hi.max(lo)] {
            put_i64_le(buf, digit);
        }
    }

    /// Decodes the [`ExactSum::encode_binary`] form off `reader`,
    /// re-establishing the compacted-window invariant. Fail-closed:
    /// truncation, a window past the conceptual digit capacity, or a
    /// flag byte that is neither 0 nor 1 are errors.
    pub fn decode_binary(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.byte("ExactSum flag")? {
            1 => {
                let mut sum = ExactSum::new();
                sum.non_finite = true;
                return Ok(sum);
            }
            0 => {}
            other => {
                return Err(WireError(format!("ExactSum: unknown flag byte {other}")));
            }
        }
        let lo = reader.length("ExactSum lo", DIGITS)?;
        let count = reader.length("ExactSum digits", DIGITS)?;
        if lo + count > DIGITS {
            return Err(WireError(format!(
                "ExactSum: {count} digits starting at {lo} exceed capacity {DIGITS}"
            )));
        }
        let mut window = Vec::with_capacity(count);
        for _ in 0..count {
            window.push(reader.i64_le("ExactSum digit")?);
        }
        let mut sum = ExactSum {
            lo,
            digits: window,
            pending: 1,
            non_finite: false,
        };
        // Same invariant-repair pass the JSON decoder runs: canonical
        // payloads have no zero edge digits, but compacting tolerates
        // hand-built ones.
        sum.compact();
        Ok(sum)
    }

    /// Resident memory of this accumulator in bytes: the struct itself
    /// plus the heap the digit window occupies. The bench's
    /// bytes-per-cached-cell footprint metric sums this over a cached
    /// partial's cells.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.digits.capacity() * std::mem::size_of::<i64>()
    }
}

impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        if self.non_finite || other.non_finite {
            return self.non_finite == other.non_finite;
        }
        self.canonical_digits() == other.canonical_digits()
    }
}

// Serialized sparsely as `{"lo": first-digit-index, "digits": [...]}`
// over the canonical flat form (each listed digit fits in 2^32, well
// inside the JSON layer's 2^53 exact-integer range; a negative total
// spells its all-ones run out to the signed top digit, exactly as the
// former dense representation did — the wire format is unchanged); a
// poisoned accumulator serializes as `{"non_finite": true}`.
impl Serialize for ExactSum {
    fn to_value(&self) -> Value {
        if self.non_finite {
            return Value::Object(vec![("non_finite".to_string(), Value::Bool(true))]);
        }
        let digits = self.canonical_digits();
        let lo = digits.iter().position(|&d| d != 0).unwrap_or(0);
        let hi = digits.iter().rposition(|&d| d != 0).map_or(lo, |h| h + 1);
        Value::Object(vec![
            ("lo".to_string(), Value::Num(lo as f64)),
            (
                "digits".to_string(),
                Value::Array(
                    digits[lo..hi.max(lo)]
                        .iter()
                        .map(|&d| Value::Num(d as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for ExactSum {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if let Some(Value::Bool(true)) = value.get("non_finite") {
            let mut sum = ExactSum::new();
            sum.non_finite = true;
            return Ok(sum);
        }
        let lo = match value.get("lo") {
            Some(Value::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => *n as usize,
            other => return Err(DeError(format!("ExactSum: bad `lo` field: {other:?}"))),
        };
        let digits = match value.get("digits") {
            Some(Value::Array(items)) => items,
            other => return Err(DeError(format!("ExactSum: bad `digits` field: {other:?}"))),
        };
        if lo + digits.len() > DIGITS {
            return Err(DeError(format!(
                "ExactSum: {} digits starting at {lo} exceed capacity {DIGITS}",
                digits.len()
            )));
        }
        let mut window = Vec::with_capacity(digits.len());
        for item in digits {
            match item {
                Value::Num(n) if n.fract() == 0.0 && n.abs() <= 9.0e15 => {
                    window.push(*n as i64);
                }
                other => return Err(DeError::expected("ExactSum digit", other)),
            }
        }
        let mut sum = ExactSum {
            lo,
            digits: window,
            pending: 1,
            non_finite: false,
        };
        // Canonical payloads have no zero edge digits, but compacting
        // tolerates hand-built ones (and re-establishes the trimmed
        // window invariant either way).
        sum.compact();
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sum_of(values: &[f64]) -> ExactSum {
        let mut acc = ExactSum::new();
        for &v in values {
            acc.add(v);
        }
        acc
    }

    #[test]
    fn matches_sequential_sum_when_that_sum_is_exact() {
        let acc = sum_of(&[1.0, 2.0, 3.5, -0.25, 1e6]);
        assert_eq!(acc.value(), 1.0 + 2.0 + 3.5 - 0.25 + 1e6);
        assert_eq!(sum_of(&[]).value(), 0.0);
        assert_eq!(sum_of(&[0.0, -0.0]).value(), 0.0);
    }

    #[test]
    fn repairs_catastrophic_cancellation() {
        // Sequential f64 summation loses the 1.0 entirely.
        let values = [1e300, 1.0, -1e300];
        assert_eq!(values.iter().sum::<f64>(), 0.0);
        assert_eq!(sum_of(&values).value(), 1.0);
        // And the classic small-residual case.
        let acc = sum_of(&[1e16, 2.0, -1e16]);
        assert_eq!(acc.value(), 2.0);
    }

    #[test]
    fn merge_is_associative_and_commutative_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let values: Vec<f64> = (0..200)
            .map(|_| {
                let magnitude: f64 = rng.gen_range(-300.0..300.0);
                let mantissa: f64 = rng.gen_range(-1.0..1.0);
                mantissa * 10f64.powf(magnitude)
            })
            .collect();
        let whole = sum_of(&values).value();
        for split in [1usize, 7, 50, 199] {
            let (left, right) = values.split_at(split);
            let mut a = sum_of(left);
            let b = sum_of(right);
            a.merge(&b);
            assert_eq!(
                a.value().to_bits(),
                whole.to_bits(),
                "split at {split}: {} vs {whole}",
                a.value()
            );
            // Commuted merge.
            let mut c = sum_of(right);
            c.merge(&sum_of(left));
            assert_eq!(c.value().to_bits(), whole.to_bits(), "commuted {split}");
            assert_eq!(a, c);
        }
    }

    #[test]
    fn value_is_correctly_rounded() {
        // 1 + 2^-53 + 2^-53 must round to the next representable
        // number above 1 (exact total is representable's midpoint + …
        // actually 1 + 2^-52 exactly).
        let acc = sum_of(&[1.0, f64::powi(2.0, -53), f64::powi(2.0, -53)]);
        assert_eq!(acc.value(), 1.0 + f64::powi(2.0, -52));
        // A lone half-ulp ties to even: stays at 1.0.
        let tie = sum_of(&[1.0, f64::powi(2.0, -53)]);
        assert_eq!(tie.value(), 1.0);
        // …but any sticky bit below breaks the tie upward.
        let broken = sum_of(&[1.0, f64::powi(2.0, -53), f64::powi(2.0, -80)]);
        assert_eq!(broken.value(), 1.0 + f64::powi(2.0, -52));
    }

    #[test]
    fn extreme_magnitudes_round_trip() {
        for v in [
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            5e-324,                  // smallest subnormal
            f64::MAX,
            -f64::MAX,
            1.0,
            -1.0,
            0.1,
        ] {
            assert_eq!(sum_of(&[v]).value().to_bits(), v.to_bits(), "{v:e}");
        }
        // Overflowing total saturates to infinity, as rounding demands.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[-f64::MAX, -f64::MAX]).value(), f64::NEG_INFINITY);
    }

    #[test]
    fn subnormal_totals_avoid_double_rounding() {
        // Two tiny values whose exact sum is subnormal.
        let a = 3.0 * 5e-324;
        let b = 2.0 * 5e-324;
        assert_eq!(sum_of(&[a, b]).value(), 5.0 * 5e-324);
        // Cancellation down into the subnormal range.
        let acc = sum_of(&[f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 2.0]);
        assert_eq!(acc.value(), f64::MIN_POSITIVE / 2.0);
    }

    #[test]
    fn non_finite_inputs_poison() {
        let mut acc = sum_of(&[1.0]);
        acc.add(f64::INFINITY);
        assert!(acc.is_poisoned());
        assert!(acc.value().is_nan());
        let mut clean = sum_of(&[2.0]);
        clean.merge(&acc);
        assert!(clean.value().is_nan(), "poison is sticky across merge");
    }

    #[test]
    fn merging_two_poisoned_accumulators_stays_poisoned() {
        // Pins the propagation rule explicitly (it was previously only
        // reachable through a clean-merges-poisoned path): poison is a
        // sticky OR, so poisoned ⊕ poisoned is poisoned — in both merge
        // orders, with NaN values and poisoned-class equality.
        let mut a = sum_of(&[1.0]);
        a.add(f64::NAN);
        let mut b = sum_of(&[-2.0]);
        b.add(f64::NEG_INFINITY);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for merged in [&ab, &ba] {
            assert!(merged.is_poisoned());
            assert!(merged.value().is_nan());
        }
        // Equality collapses all poisoned accumulators into one class
        // (digit content is unobservable once poisoned)…
        assert_eq!(ab, ba);
        assert_eq!(ab, a);
        // …and never equates poisoned with clean.
        assert_ne!(ab, sum_of(&[1.0, -2.0]));
    }

    #[test]
    fn many_additions_stay_exact_across_compaction() {
        // Exceeding the pending threshold is impractical in a unit
        // test, so force compaction explicitly mid-stream.
        let mut acc = ExactSum::new();
        let mut values = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..10_000 {
            let v: f64 = rng.gen_range(-1.0e6..1.0e6);
            values.push(v);
            acc.add(v);
            if i % 977 == 0 {
                acc.compact();
            }
        }
        assert_eq!(acc.value().to_bits(), sum_of(&values).value().to_bits());
    }

    #[test]
    fn negative_totals_stay_compact_in_memory() {
        // A negative running total must not expand the window to the
        // conceptual top digit (that all-ones spelling is reserved for
        // the canonical serialized form): compaction keeps one signed
        // top-of-window digit instead.
        let mut acc = sum_of(&[-1.0, -3.0, 2.0]);
        acc.compact();
        assert!(
            acc.digits.len() <= 4,
            "window of {} digits for a small negative total",
            acc.digits.len()
        );
        assert_eq!(acc.value(), -2.0);
        assert!(acc.footprint_bytes() < 120, "{}", acc.footprint_bytes());
        // Alternating-sign accumulation (sums crossing zero) stays
        // exact through compactions.
        let mut acc = ExactSum::new();
        for i in 0..1000 {
            acc.add(if i % 2 == 0 { 1e8 } else { -1e8 - 0.5 });
            if i % 97 == 0 {
                acc.compact();
            }
        }
        assert_eq!(acc.value(), -500.0 * 0.5);
    }

    #[test]
    fn window_grows_to_cover_mixed_magnitudes() {
        // Same-magnitude accumulation keeps the window small; mixing in
        // a far-away magnitude grows it to cover both.
        let mut acc = ExactSum::new();
        for _ in 0..100 {
            acc.add(1.5e3);
        }
        acc.compact();
        let narrow = acc.digits.len();
        assert!(narrow <= 4, "same-magnitude window is {narrow} digits");
        acc.add(1e-300);
        acc.add(1e300);
        acc.compact();
        assert_eq!(acc.value(), {
            let mut dense = ExactSum::new();
            for _ in 0..100 {
                dense.add(1.5e3);
            }
            dense.add(1e-300);
            dense.add(1e300);
            dense.value()
        });
    }

    #[test]
    fn serde_round_trip_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<f64> = (0..64).map(|_| rng.gen_range(-1.0e9..1.0e9)).collect();
        let acc = sum_of(&values);
        let json = serde_json::to_string(&acc).unwrap();
        let back: ExactSum = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
        assert_eq!(back.value().to_bits(), acc.value().to_bits());
        // Zero and poisoned forms round-trip too.
        let zero = ExactSum::new();
        let back: ExactSum = serde_json::from_str(&serde_json::to_string(&zero).unwrap()).unwrap();
        assert_eq!(back, zero);
        let mut poisoned = ExactSum::new();
        poisoned.add(f64::NAN);
        let back: ExactSum =
            serde_json::from_str(&serde_json::to_string(&poisoned).unwrap()).unwrap();
        assert!(back.is_poisoned());
    }

    #[test]
    fn binary_round_trip_is_bitwise_and_fails_closed() {
        let mut rng = StdRng::seed_from_u64(23);
        let values: Vec<f64> = (0..64).map(|_| rng.gen_range(-1.0e9..1.0e9)).collect();
        let mut cases = vec![sum_of(&values), sum_of(&[-0.1, -0.2]), ExactSum::new()];
        let mut poisoned = sum_of(&[1.0]);
        poisoned.add(f64::NAN);
        cases.push(poisoned);
        for acc in &cases {
            let mut buf = Vec::new();
            acc.encode_binary(&mut buf);
            let mut reader = Reader::new(&buf);
            let back = ExactSum::decode_binary(&mut reader).unwrap();
            reader.expect_end("ExactSum").unwrap();
            assert_eq!(&back, acc);
            assert_eq!(back.value().to_bits(), acc.value().to_bits());
            // The binary form mirrors the canonical JSON form, so two
            // equal accumulators encode to identical bytes.
            let mut again = Vec::new();
            back.encode_binary(&mut again);
            assert_eq!(again, buf);
            // Every truncation of a valid payload fails closed.
            for cut in 0..buf.len() {
                assert!(
                    ExactSum::decode_binary(&mut Reader::new(&buf[..cut])).is_err(),
                    "truncation at {cut} must fail"
                );
            }
        }
        // Unknown flag bytes and over-capacity windows are rejected.
        assert!(ExactSum::decode_binary(&mut Reader::new(&[2])).is_err());
        let mut bogus = vec![0u8];
        crate::wire::put_varint(&mut bogus, 60);
        crate::wire::put_varint(&mut bogus, 10);
        bogus.extend_from_slice(&[0u8; 80]);
        assert!(ExactSum::decode_binary(&mut Reader::new(&bogus)).is_err());
    }

    #[test]
    fn negative_totals_are_exact_too() {
        let acc = sum_of(&[-1e30, 1.0, 1e30, -3.0]);
        assert_eq!(acc.value(), -2.0);
        let acc = sum_of(&[-0.1, -0.2]);
        // Correctly rounded -(0.1 + 0.2) exact sum, not the sequential
        // rounding: both happen to agree here, which pins the sign path.
        assert_eq!(acc.value(), -(0.1f64 + 0.2f64));
        // A negative total serializes to the canonical all-ones-to-top
        // spelling and round-trips bitwise.
        let json = serde_json::to_string(&acc).unwrap();
        let back: ExactSum = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
        assert_eq!(back.value().to_bits(), acc.value().to_bits());
    }
}
