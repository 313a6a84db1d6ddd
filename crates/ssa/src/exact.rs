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
//! merging two accumulators is the same mathematical sum no matter how
//! the inputs were grouped. [`ExactSum::value`] rounds the exact sum to
//! the nearest `f64` (ties to even), which is a pure function of the
//! represented value; two accumulators that saw the same multiset of
//! inputs therefore produce bit-identical results.
//!
//! # Representation
//!
//! The total is the sum of two exact parts:
//!
//! * an **integer lane**, an inline `i128` that takes every integral
//!   input below 2^63 in magnitude (and ±0). A Direct ensemble records
//!   copy numbers, so its every cell lives here: one integer add per
//!   input, no heap, and [`ExactSum::value`] is `lane as f64` — Rust's
//!   integer-to-float cast rounds to nearest, ties to even, so that is
//!   the correctly rounded total. A lane that would overflow folds
//!   into the window below;
//! * a **digit window** for everything else (Langevin's continuous
//!   states, integral values ≥ 2^63): `Σ digits[i] · 2^(32·i - 1074)`,
//!   base-2^32 digits starting at the least significant bit of the
//!   smallest subnormal (2^-1074) and covering past the largest finite
//!   `f64` (< 2^1024). Conceptually there are `DIGITS` = 67 digit
//!   positions, but only a **window** of them is materialized: `lo` is
//!   the conceptual index of the first stored digit and `digits` holds
//!   the contiguous run that is (possibly) non-zero. A sum of
//!   same-magnitude inputs touches a handful of adjacent digits. The
//!   window grows on demand (downward for smaller magnitudes, upward
//!   for carries) and never exceeds the conceptual 67 digits.
//!
//! Window digits are held in `i64` **carry-save** form — additions just
//! add into at most three digits without propagating carries — and a
//! pending-addition counter triggers compaction long before the 2^63
//! headroom could overflow. Non-finite inputs poison the accumulator
//! (sticky), and `value()` then reports NaN.
//!
//! # Canonical form
//!
//! Rounding, equality and the encodings never expand the 67 conceptual
//! digits. They propagate carries over the stored window (plus the
//! lane's five digits) only. The **canonical window** of a non-zero
//! total is its magnitude's base-2^32 digits with zero digits trimmed
//! off both ends, each digit carrying the total's sign; the conceptual
//! top digit absorbs any carry past it. `value()` packs the top three
//! canonical digits into a `u128` and rounds from it, with the sticky
//! bit set when any lower digit is non-zero (Neal, "Fast exact
//! summation using small and large superaccumulators",
//! arXiv:1505.05571, rounds out of a superaccumulator the same way).
//!
//! The GLCB encoding is a pure function of the exact total, however it
//! was accumulated: an integer total that fits `i128` is one zigzag
//! varint, any other total its canonical window with zigzag-varint
//! digits. Equal totals therefore always encode to identical bytes.

use crate::wire::{put_varint, put_zigzag, Reader, WireError};
use std::ops::Range;

/// Number of conceptual base-2^32 digits: 66 cover bit positions
/// 0..=2111 (the finite range needs 0..=2097), plus one top digit that
/// only ever holds carries.
const DIGITS: usize = 67;

/// Mask selecting one base-2^32 digit.
const DIGIT_MASK: i64 = 0xFFFF_FFFF;

/// Compact after this many carry-save additions. Each addition
/// contributes less than 2^32 per digit, so digit magnitudes stay
/// below 2^(32+29) = 2^61 — comfortably inside `i64`.
const CARRY_LIMIT: u32 = 1 << 29;

/// Bit position of 2^0 above 2^-1074: the lane's unit. It sits
/// `LANE_OFFSET` bits into conceptual digit `LANE_DIGIT`.
const UNIT_BIT: usize = 1074;
const LANE_DIGIT: usize = UNIT_BIT / 32;
const LANE_OFFSET: u32 = (UNIT_BIT % 32) as u32;

/// Conceptual digits an `i128` lane spans: 128 bits shifted up by
/// `LANE_OFFSET` < 32 need five base-2^32 digits.
const LANE_DIGITS: usize = 5;

/// GLCB flag bytes of one cell.
const FLAG_WINDOW: u8 = 0;
const FLAG_POISONED: u8 = 1;
const FLAG_INTEGER: u8 = 2;

/// An exact running sum of `f64` values: an integer lane plus a
/// fixed-point superaccumulator over a sparse digit window.
///
/// `add` and `merge` are exact, hence associative and commutative;
/// [`ExactSum::value`] is the correctly-rounded (nearest, ties to even)
/// `f64` of the exact total. See the module docs for why ensemble
/// partials are built on this.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Exact sum of the integral inputs below 2^63 in magnitude.
    lane: i128,
    /// Conceptual index of `digits[0]` (0 = the 2^-1074 digit). An
    /// empty window represents zero. (`u8` keeps the struct at 48
    /// bytes: `DIGITS` fits.)
    lo: u8,
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

/// The signed digit `lane` contributes at conceptual position `i`.
fn lane_digit(lane: i128, i: usize) -> i64 {
    let Some(k) = i.checked_sub(LANE_DIGIT).filter(|&k| k < LANE_DIGITS) else {
        return 0;
    };
    let magnitude = lane.unsigned_abs();
    let digit = if k == 0 {
        (magnitude << LANE_OFFSET) as i64 & DIGIT_MASK
    } else {
        (magnitude >> (32 * k as u32 - LANE_OFFSET)) as i64 & DIGIT_MASK
    };
    if lane < 0 {
        -digit
    } else {
        digit
    }
}

/// The smallest range covering both `a` and `b`, an empty one covering
/// nothing.
fn cover(a: Range<usize>, b: Range<usize>) -> Range<usize> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b,
        (_, true) => a,
        _ => a.start.min(b.start)..a.end.max(b.end),
    }
}

impl ExactSum {
    /// A fresh zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn lo(&self) -> usize {
        usize::from(self.lo)
    }

    /// Grows the window (if needed) to cover conceptual positions
    /// `from .. to`, zero-filling the new digits.
    fn ensure_window(&mut self, from: usize, to: usize) {
        debug_assert!(from < to && to <= DIGITS);
        if self.digits.is_empty() {
            self.lo = from as u8;
            self.digits.resize(to - from, 0);
            return;
        }
        if from < self.lo() {
            self.digits
                .splice(0..0, std::iter::repeat_n(0, self.lo() - from));
            self.lo = from as u8;
        }
        let end = self.lo() + self.digits.len();
        if to > end {
            self.digits.resize(self.digits.len() + (to - end), 0);
        }
    }

    /// Adds `v` exactly. Non-finite values poison the accumulator:
    /// every later [`ExactSum::value`] call reports NaN.
    pub fn add(&mut self, v: f64) {
        // The cast saturates, so every value ≥ 2^63 (and +∞) maps to
        // `i64::MAX`, whose `f64` image is 2^63 itself: excluding it
        // leaves exactly the integral values in [-2^63, 2^63) and ±0.
        let whole = v as i64;
        if whole as f64 == v && whole != i64::MAX {
            self.add_to_lane(i128::from(whole));
            return;
        }
        if !v.is_finite() {
            self.non_finite = true;
            return;
        }
        let bits = v.to_bits();
        let exponent_field = ((bits >> 52) & 0x7FF) as usize;
        let fraction = bits & ((1u64 << 52) - 1);
        // v = mantissa · 2^(shift - 1074), with the implicit leading
        // bit restored for normal numbers.
        let (mantissa, shift) = if exponent_field == 0 {
            (fraction, 0)
        } else {
            (fraction | (1 << 52), exponent_field - 1)
        };
        self.add_scaled(mantissa, shift, bits >> 63 == 1);
    }

    /// Adds `term` to the lane, folding the lane into the window first
    /// when the sum would overflow `i128`.
    fn add_to_lane(&mut self, term: i128) {
        match self.lane.checked_add(term) {
            Some(total) => self.lane = total,
            None => {
                self.fold_lane();
                self.lane = term;
            }
        }
    }

    /// Moves the lane's value into the window, leaving the lane zero.
    fn fold_lane(&mut self) {
        let lane = std::mem::take(&mut self.lane);
        let magnitude = lane.unsigned_abs();
        self.add_scaled(magnitude as u64, UNIT_BIT, lane < 0);
        self.add_scaled((magnitude >> 64) as u64, UNIT_BIT + 64, lane < 0);
    }

    /// Adds `±magnitude · 2^(bit - 1074)` to the window in carry-save
    /// form.
    fn add_scaled(&mut self, magnitude: u64, bit: usize, negative: bool) {
        if magnitude == 0 {
            return;
        }
        if self.pending >= CARRY_LIMIT {
            self.compact();
        }
        let digit = bit / 32;
        // A 64-bit magnitude shifted by < 32 spans at most 96 bits:
        // three base-2^32 digits (the top one often zero — don't grow
        // the window for a digit that contributes nothing).
        let spread = u128::from(magnitude) << (bit % 32);
        let top = (spread >> 64) as i64;
        let sign = if negative { -1i64 } else { 1i64 };
        self.ensure_window(digit, digit + if top != 0 { 3 } else { 2 });
        let at = digit - self.lo();
        self.digits[at] += sign * ((spread as i64) & DIGIT_MASK);
        self.digits[at + 1] += sign * (((spread >> 32) as i64) & DIGIT_MASK);
        if top != 0 {
            self.digits[at + 2] += sign * top;
        }
        self.pending += 1;
    }

    /// Folds `other` in: lanes add as integers, windows digit-wise.
    /// Exact, so the result is the same whatever grouping or order
    /// produced the two sides.
    pub fn merge(&mut self, other: &ExactSum) {
        self.non_finite |= other.non_finite;
        self.add_to_lane(other.lane);
        if other.digits.is_empty() {
            return;
        }
        if self.pending >= CARRY_LIMIT - other.pending.min(CARRY_LIMIT) {
            self.compact();
        }
        self.ensure_window(other.lo(), other.lo() + other.digits.len());
        let at = other.lo() - self.lo();
        for (mine, theirs) in self.digits[at..].iter_mut().zip(&other.digits) {
            *mine += *theirs;
        }
        self.pending = self.pending.saturating_add(other.pending.max(1));
    }

    /// Propagates carries so every stored digit below the window top is
    /// in `[0, 2^32)`, with at most one signed top-of-window digit
    /// carrying the sign, then trims zero digits off both window ends.
    /// The represented value is unchanged.
    fn compact(&mut self) {
        let mut carry = 0i64;
        for (i, digit) in self.digits.iter_mut().enumerate() {
            if usize::from(self.lo) + i == DIGITS - 1 {
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
            self.lo += leading as u8;
        }
        if self.digits.is_empty() {
            self.lo = 0;
        }
        self.pending = 1;
    }

    /// The conceptual positions holding a (possibly) non-zero digit of
    /// the window or the lane.
    fn span(&self) -> Range<usize> {
        let window = self.lo()..self.lo() + self.digits.len();
        let lane = if self.lane == 0 {
            0..0
        } else {
            LANE_DIGIT..LANE_DIGIT + LANE_DIGITS
        };
        cover(window, lane)
    }

    /// The signed carry-save digit at conceptual position `i`: the
    /// window's digit plus the lane's.
    fn digit_at(&self, i: usize) -> i64 {
        let window = i
            .checked_sub(self.lo())
            .and_then(|at| self.digits.get(at))
            .map_or(0, |&d| d);
        window + lane_digit(self.lane, i)
    }

    /// Whether the exact total is negative, zero or positive (-1, 0,
    /// 1), by one carry pass over [`ExactSum::span`].
    fn signum(&self) -> i64 {
        let mut carry = 0i64;
        let mut low_bits = false;
        for i in self.span() {
            let total = self.digit_at(i) + carry;
            carry = total >> 32;
            low_bits |= total & DIGIT_MASK != 0;
        }
        // The total is Σ masked digits (in [0, 2^(32·len))) plus the
        // outgoing carry times 2^(32·len): the carry's sign decides.
        match carry {
            c if c < 0 => -1,
            0 if !low_bits => 0,
            _ => 1,
        }
    }

    /// Visits the digits of the total's magnitude bottom-up as
    /// `(position, digit)`, every digit in `[0, 2^32)` except the
    /// conceptual top one, which absorbs the carry past it. `negative`
    /// is the total's sign ([`ExactSum::signum`]); negating every
    /// carry-save digit of a negative total makes it positive, so one
    /// carry pass yields the magnitude. Positions are contiguous from
    /// the span's start and may include zero digits at either end.
    fn for_each_magnitude_digit(&self, negative: bool, mut visit: impl FnMut(usize, u64)) {
        let sign = if negative { -1 } else { 1 };
        let span = self.span();
        let end = span.end;
        let mut carry = 0i64;
        for i in span {
            let total = sign * self.digit_at(i) + carry;
            if i == DIGITS - 1 {
                visit(i, total as u64);
                return;
            }
            carry = total >> 32;
            visit(i, (total & DIGIT_MASK) as u64);
        }
        // A positive total leaves a carry in [0, 2^31): one more digit.
        if carry != 0 {
            visit(end, carry as u64);
        }
    }

    /// The sign and canonical window of the total: `None` for zero,
    /// else whether it is negative and the positions from its first to
    /// its last non-zero magnitude digit.
    fn canonical(&self) -> Option<(bool, Range<usize>)> {
        let negative = match self.signum() {
            0 => return None,
            sign => sign < 0,
        };
        let (mut lo, mut hi) = (usize::MAX, 0);
        self.for_each_magnitude_digit(negative, |i, d| {
            if d != 0 {
                lo = lo.min(i);
                hi = i + 1;
            }
        });
        Some((negative, lo..hi))
    }

    /// The exact total as an `i128`, when it is an integer in range.
    fn integer_total(&self) -> Option<i128> {
        if self.digits.is_empty() {
            return Some(self.lane);
        }
        let Some((negative, window)) = self.canonical() else {
            return Some(0);
        };
        // Integer bits 0..128 live in the lane's five digits.
        if window.start < LANE_DIGIT || window.end > LANE_DIGIT + LANE_DIGITS {
            return None;
        }
        let mut magnitude = 0u128;
        let mut fits = true;
        self.for_each_magnitude_digit(negative, |i, d| {
            if i == LANE_DIGIT {
                // The digit straddling 2^0: its bits below must be zero.
                fits &= d & ((1 << LANE_OFFSET) - 1) == 0;
                magnitude |= u128::from(d >> LANE_OFFSET);
            } else if window.contains(&i) {
                let shift = (32 * i - UNIT_BIT) as u32;
                fits &= u128::from(d).leading_zeros() >= shift;
                magnitude |= u128::from(d) << shift;
            }
        });
        if !fits {
            None
        } else if negative {
            // Down to -2^127, whose magnitude wraps to i128::MIN.
            (magnitude <= 1 << 127).then(|| (magnitude as i128).wrapping_neg())
        } else {
            i128::try_from(magnitude).ok()
        }
    }

    /// The exact total rounded to the nearest `f64` (ties to even);
    /// NaN if any non-finite value was ever added.
    pub fn value(&self) -> f64 {
        if self.non_finite {
            return f64::NAN;
        }
        if self.digits.is_empty() {
            return self.lane as f64;
        }
        let negative = match self.signum() {
            0 => return 0.0,
            sign => sign < 0,
        };
        // Slide a three-digit `u128` window up the magnitude's digits
        // and keep its state at the top non-zero digit: `packed` holds
        // digits top, top-1 and top-2 at bits 64, 32 and 0, and
        // `sticky_below` says whether any digit under them is non-zero.
        let mut window = 0u128;
        let mut below = false;
        let (mut packed, mut sticky_below, mut top) = (0u128, false, 0usize);
        self.for_each_magnitude_digit(negative, |i, d| {
            below |= window as u32 != 0;
            window = (window >> 32) | (u128::from(d) << 64);
            if d != 0 {
                (packed, sticky_below, top) = (window, below, i);
            }
        });
        // Bit 0 of `packed` is conceptual bit 32·(top - 2) above
        // 2^-1074 (negative when top < 2; those bits are zero).
        let base = 32 * top as i64 - 64;
        let high_bit = base + 127 - i64::from(packed.leading_zeros());
        // Round at 53 significant bits, or at bit 0 (2^-1074) when the
        // value is subnormal — bit 0 *is* the subnormal rounding step.
        let round_pos = (high_bit - 52).max(0);
        // The top digit is non-zero, so the shift is at least 12: the
        // guard bit always lies inside `packed`.
        let shift = (round_pos - base) as u32;
        let mut mantissa = (packed >> shift) as u64;
        let guard = (packed >> (shift - 1)) & 1 == 1;
        let sticky = sticky_below || packed & ((1u128 << (shift - 1)) - 1) != 0;
        if guard && (sticky || mantissa & 1 == 1) {
            mantissa += 1;
        }
        // `mantissa` ≤ 2^53 is exact in f64, and the power-of-two scale
        // makes the product exact (or a correctly-rounded infinity for
        // totals beyond f64::MAX), so no double rounding occurs.
        let scale_exp = round_pos - 1074;
        let magnitude = if scale_exp > 1023 {
            // Total exceeds 2^1024 territory: overflows to infinity.
            f64::INFINITY
        } else {
            mantissa as f64 * pow2(scale_exp as i32)
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

    /// Visits the digits of the canonical window `window` (from
    /// [`ExactSum::canonical`]) in order, each carrying the total's
    /// sign.
    fn for_each_canonical_digit(
        &self,
        negative: bool,
        window: &Range<usize>,
        mut visit: impl FnMut(i64),
    ) {
        self.for_each_magnitude_digit(negative, |i, d| {
            if window.contains(&i) {
                visit(if negative { -(d as i64) } else { d as i64 });
            }
        });
    }

    /// Appends the GLCB binary form, a pure function of the exact
    /// total: a flag byte, then
    ///
    /// * 1 (poisoned): nothing;
    /// * 2 (integer): a total that is an integer fitting `i128`, as one
    ///   zigzag varint;
    /// * 0 (window): any other total as its canonical window — varint
    ///   first position, varint digit count, and each digit (sign
    ///   included) as a zigzag varint.
    ///
    /// Equal totals encode to identical bytes however they were
    /// accumulated (lane or window, any carry-save state).
    pub fn encode_binary(&self, buf: &mut Vec<u8>) {
        if self.non_finite {
            buf.push(FLAG_POISONED);
            return;
        }
        if let Some(total) = self.integer_total() {
            buf.push(FLAG_INTEGER);
            put_zigzag(buf, total);
            return;
        }
        // Zero is an integer, so the total has a canonical window.
        let (negative, window) = self.canonical().unwrap_or_default();
        buf.push(FLAG_WINDOW);
        put_varint(buf, window.start as u64);
        put_varint(buf, window.len() as u64);
        self.for_each_canonical_digit(negative, &window, |digit| {
            put_zigzag(buf, i128::from(digit));
        });
    }

    /// Decodes the [`ExactSum::encode_binary`] form off `reader`.
    /// Fail-closed: truncation, an unknown flag byte, and any window
    /// that is not the canonical one of its total (out of range, a
    /// zero edge digit, mixed signs, a digit of 2^32 or more below the
    /// conceptual top, or an integer total that fits `i128`) are
    /// errors, so every accepted payload re-encodes to its own bytes.
    pub fn decode_binary(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.byte("ExactSum flag")? {
            FLAG_POISONED => {
                return Ok(ExactSum {
                    non_finite: true,
                    ..ExactSum::new()
                })
            }
            FLAG_INTEGER => {
                return Ok(ExactSum {
                    lane: reader.zigzag("ExactSum total")?,
                    ..ExactSum::new()
                })
            }
            FLAG_WINDOW => {}
            other => {
                return Err(WireError(format!("ExactSum: unknown flag byte {other}")));
            }
        }
        let noncanonical = |why: &str| WireError(format!("ExactSum: non-canonical window: {why}"));
        let lo = reader.length("ExactSum lo", DIGITS)?;
        let count = reader.length("ExactSum digits", DIGITS)?;
        if lo + count > DIGITS {
            return Err(WireError(format!(
                "ExactSum: {count} digits starting at {lo} exceed capacity {DIGITS}"
            )));
        }
        let mut window = Vec::with_capacity(count);
        for i in lo..lo + count {
            let digit = i64::try_from(reader.zigzag("ExactSum digit")?)
                .map_err(|_| noncanonical("digit out of range"))?;
            if i < DIGITS - 1 && digit.unsigned_abs() > DIGIT_MASK as u64 {
                return Err(noncanonical("digit out of range"));
            }
            window.push(digit);
        }
        match (window.first(), window.last()) {
            (Some(&first), Some(&last)) if first != 0 && last != 0 => {}
            _ => return Err(noncanonical("zero edge digit")),
        }
        if window.iter().any(|&d| d.signum() == -window[0].signum()) {
            return Err(noncanonical("mixed digit signs"));
        }
        let sum = ExactSum {
            lo: lo as u8,
            digits: window,
            pending: 1,
            ..ExactSum::new()
        };
        if sum.integer_total().is_some() {
            return Err(noncanonical("integer total"));
        }
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
    /// Equal exact totals (all poisoned accumulators form one class):
    /// one carry pass over the difference of the two sides' digits.
    fn eq(&self, other: &Self) -> bool {
        if self.non_finite || other.non_finite {
            return self.non_finite == other.non_finite;
        }
        if self.digits.is_empty() && other.digits.is_empty() {
            return self.lane == other.lane;
        }
        let mut carry = 0i64;
        for i in cover(self.span(), other.span()) {
            let total = self.digit_at(i) - other.digit_at(i) + carry;
            if total & DIGIT_MASK != 0 {
                return false;
            }
            carry = total >> 32;
        }
        carry == 0
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
        // the canonical encoded form): compaction keeps one signed
        // top-of-window digit instead.
        // Fractional inputs, so the total lives in the window.
        let mut acc = sum_of(&[-1.5, -3.25, 2.75]);
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
        // 1500.25 is not integral, so it accumulates in the window.
        for _ in 0..100 {
            acc.add(1500.25);
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
                dense.add(1500.25);
            }
            dense.add(1e-300);
            dense.add(1e300);
            dense.value()
        });
    }

    #[test]
    fn binary_round_trip_is_bitwise_and_fails_closed() {
        let mut rng = StdRng::seed_from_u64(23);
        let values: Vec<f64> = (0..64).map(|_| rng.gen_range(-1.0e9..1.0e9)).collect();
        // Negative totals take the canonical signed window (-0.3) or
        // the lane (-2, reached through the window) like positive ones.
        let mut cases = vec![
            sum_of(&values),
            sum_of(&[-0.1, -0.2]),
            sum_of(&[-1e30, 1.0, 1e30, -3.0]),
            ExactSum::new(),
        ];
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
            // The binary form is a function of the total alone, so two
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
        assert!(ExactSum::decode_binary(&mut Reader::new(&[3])).is_err());
        let mut bogus = vec![FLAG_WINDOW];
        crate::wire::put_varint(&mut bogus, 60);
        crate::wire::put_varint(&mut bogus, 10);
        bogus.extend_from_slice(&[2u8; 10]);
        assert!(ExactSum::decode_binary(&mut Reader::new(&bogus)).is_err());
        // So is every window that is not the canonical one of its
        // total: an integer total (1.0 = 2^18 in digit 33), a zero edge
        // digit, mixed signs, a digit of 2^32, and an empty window.
        let window = |lo: u64, digits: &[i128]| {
            let mut buf = vec![FLAG_WINDOW];
            crate::wire::put_varint(&mut buf, lo);
            crate::wire::put_varint(&mut buf, digits.len() as u64);
            for &d in digits {
                crate::wire::put_zigzag(&mut buf, d);
            }
            buf
        };
        let half = window(33, &[1 << 17]);
        assert_eq!(
            ExactSum::decode_binary(&mut Reader::new(&half))
                .unwrap()
                .value(),
            0.5
        );
        for bad in [
            window(33, &[1 << 18]),
            window(33, &[1 << 17, 0]),
            window(32, &[0, 1 << 17]),
            window(32, &[-1, 1 << 17]),
            window(32, &[1 << 32]),
            window(0, &[]),
        ] {
            assert!(
                ExactSum::decode_binary(&mut Reader::new(&bad)).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn integral_inputs_take_the_lane_and_stay_off_the_heap() {
        // Copy numbers (and ±0, and -2^63) never touch the window; 2^63
        // and fractions do.
        let counts = sum_of(&[3.0, 0.0, -0.0, 12.0, -5.0, i64::MIN as f64]);
        assert!(counts.digits.is_empty());
        assert_eq!(counts.value(), 10.0 + i64::MIN as f64);
        assert_eq!(counts.footprint_bytes(), std::mem::size_of::<ExactSum>());
        assert!(std::mem::size_of::<ExactSum>() <= 48);
        assert!(!sum_of(&[f64::powi(2.0, 63)]).digits.is_empty());
        assert!(!sum_of(&[0.5]).digits.is_empty());
        // The largest f64 below 2^63 is still a lane value.
        assert!(sum_of(&[f64::powi(2.0, 63) - 1024.0]).digits.is_empty());
    }

    #[test]
    fn negative_totals_are_exact_too() {
        let acc = sum_of(&[-1e30, 1.0, 1e30, -3.0]);
        assert_eq!(acc.value(), -2.0);
        let acc = sum_of(&[-0.1, -0.2]);
        // Correctly rounded -(0.1 + 0.2) exact sum, not the sequential
        // rounding: both happen to agree here, which pins the sign path.
        assert_eq!(acc.value(), -(0.1f64 + 0.2f64));
    }
}
