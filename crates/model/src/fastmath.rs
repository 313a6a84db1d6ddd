//! Deterministic, inline, autovectorizer-friendly elementary functions
//! for the simulation hot paths.
//!
//! The system-libm `ln`, `sin_cos` and `powf` are opaque calls: they
//! cannot inline into the batched kernels, they block loop
//! vectorization, and their bit-level results vary across libm
//! versions — unacceptable for a codebase whose every hot-path rewrite
//! is pinned by bitwise-equivalence tests. This module provides the
//! project's own kernels, with three properties the hot paths need:
//!
//! * **deterministic** — pure straight-line `f64` arithmetic and bit
//!   manipulation, so results are identical on every platform and
//!   toolchain (no libm, no FMA contraction: Rust never contracts
//!   float ops without explicit opt-in);
//! * **inline & branch-free** — polynomial kernels with no tables, no
//!   data-dependent branches, so the autovectorizer can unroll batched
//!   loops over them (`NormalBlock::fill`, the Hill lanes);
//! * **accurate to a few ulp** over the domains the simulators use —
//!   the polynomials are the fdlibm/musl minimax sets, good to <2 ulp
//!   on their reduced ranges.
//!
//! [`ln`] and [`exp`] are `const fn`s, so tables built from them at
//! compile time (the exponential ziggurat in `glc_ssa::draws`) hold the
//! bits a run-time call returns: both are plain IEEE-754 arithmetic.
//!
//! These are *not* general-purpose replacements: domains are
//! restricted (see each function), and callers are expected to keep
//! inputs inside them. All results remain finite `f64` arithmetic —
//! out-of-domain inputs produce deterministic garbage, never UB.
//!
//! The coefficient literals below are the published fdlibm/musl sets,
//! kept digit-for-digit so they can be audited against the source
//! tables — hence the lint allowances: clippy would truncate the extra
//! (value-identical) digits and replace `1/ln 2` with `LOG2_E`.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

/// High part of ln 2 (fdlibm split, exact in the top 33 bits).
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
/// Low part of ln 2 (`LN2_HI + LN2_LO` ≈ ln 2 to ~107 bits).
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
/// `1 / ln 2`.
const INV_LN2: f64 = 1.442_695_040_888_963_4;

/// `1.5 · 2^52`: adding and subtracting this rounds an `f64` with
/// magnitude below `2^51` to the nearest integer (ties to even) using
/// the current rounding mode's default — one add and one subtract, no
/// `round()` libm call, no float→int conversion instruction. While the
/// sum is live, its *bit pattern* holds `2^51 + n` in the mantissa
/// field, so the integer is also available to bit arithmetic without
/// any conversion — on every x86-64 tier, scalar or vector.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `2^52 + 1023`: subtracting this from the bits-reassembled
/// `2^52 + v` (see [`ROUND_MAGIC`]) turns a biased exponent `v` into
/// the unbiased `f64` exponent value in one subtraction.
const EXP_UNBIAS: f64 = 4_503_599_627_371_519.0;

// fdlibm `__ieee754_log` polynomial (minimax on the reduced range).
const LG1: f64 = 6.666_666_666_666_735_13e-1;
const LG2: f64 = 3.999_999_999_940_941_908e-1;
const LG3: f64 = 2.857_142_874_366_239_149e-1;
const LG4: f64 = 2.222_219_843_214_978_396e-1;
const LG5: f64 = 1.818_357_216_161_805_012e-1;
const LG6: f64 = 1.531_383_769_920_937_332e-1;
const LG7: f64 = 1.479_819_860_511_658_591e-1;

/// Natural logarithm for **positive, finite, normal** `x`.
///
/// fdlibm's table-free algorithm: split `x = 2^k · m` with the
/// mantissa normalized to `m ∈ [√½, √2)` by pure bit arithmetic, then
/// a minimax polynomial in `s = (m−1)/(m+1)` with the compensated
/// `ln2` split — error < 1 ulp over the whole domain. Branch-free.
///
/// Out of domain (zero, negative, subnormal, inf, NaN) the result is
/// deterministic garbage; callers guard the domain.
#[inline]
pub const fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let mantissa = bits & 0x000f_ffff_ffff_ffff;
    // Round the mantissa's half-octave: values above √2 borrow one
    // from the exponent so m lands in [√½, √2). The magic constant is
    // fdlibm's `0x95f64` high-word threshold, widened to 64 bits.
    let borrow = mantissa.wrapping_add(0x95f64u64 << 32) & (1u64 << 52);
    let m = f64::from_bits(mantissa | (borrow ^ (0x3ffu64 << 52)));
    // Biased exponent plus the borrow, floated through bit assembly
    // (`2^52 + v` reinterpreted, then unbiased by one subtract) so no
    // int→float conversion instruction is needed — those only exist
    // for vectors on AVX-512, and this kernel must vectorize anywhere.
    let biased = (bits >> 52) + (borrow >> 52);
    let dk = f64::from_bits((0x433u64 << 52) | biased) - EXP_UNBIAS;
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// `exp(y)` for `|y| ≲ 700` (i.e. well inside the finite range).
///
/// Standard reduction `y = k·ln2 + f`, `|f| ≤ ln2/2`, with `e^f` by a
/// degree-13 Taylor kernel (truncation < 2e-16 relative on the reduced
/// range) and the `2^k` scale applied through exponent bits. The
/// polynomial runs in Estrin form — four independent cubic groups
/// combined through `f⁴` — because this kernel sits on the *scalar*
/// critical path of every Hill response: a Horner chain of thirteen
/// dependent multiply–adds costs ~3× the latency and out-of-order
/// execution can do nothing about it. Branch-free; out-of-range `y`
/// wraps the exponent deterministically.
#[inline]
pub const fn exp(y: f64) -> f64 {
    // Magic-constant rounding: one add/sub pair instead of a `round()`
    // call, and the sum's mantissa bits hold `2^51 + k` so the `2^k`
    // exponent scale assembles with pure integer ops — no float↔int
    // conversion instruction anywhere (ties go to even instead of away
    // from zero; either neighbour is a valid reduction).
    let kd = y * INV_LN2 + ROUND_MAGIC;
    let k = kd - ROUND_MAGIC;
    let scale_bits = (kd.to_bits() & 0x000f_ffff_ffff_ffff)
        .wrapping_sub(1u64 << 51)
        .wrapping_add(1023)
        .wrapping_shl(52);
    // Compensated reduction keeps f accurate to ~2^-85.
    let f = (y - k * LN2_HI) - k * LN2_LO;
    // exp(f) = Σ f^n / n!, n = 0..=13, grouped four-at-a-time; the
    // groups and f², f⁴ all compute in parallel.
    let f2 = f * f;
    let f4 = f2 * f2;
    let g0 = (1.0 + f) + f2 * (0.5 + f * (1.0 / 6.0));
    let g1 = (1.0 / 24.0 + f * (1.0 / 120.0)) + f2 * (1.0 / 720.0 + f * (1.0 / 5040.0));
    let g2 =
        (1.0 / 40320.0 + f * (1.0 / 362880.0)) + f2 * (1.0 / 3628800.0 + f * (1.0 / 39916800.0));
    let g3 = 1.0 / 479001600.0 + f * (1.0 / 6227020800.0);
    let p = g0 + f4 * (g1 + f4 * (g2 + f4 * g3));
    p * f64::from_bits(scale_bits)
}

/// `x^n` for `x ≥ 0` (finite) and finite `n`, as `exp(n · ln x)`.
///
/// The one branch handles `x = 0` (→ `0`, assuming `n > 0` — true for
/// every Hill coefficient). Relative error stays below ~`|n·ln x|`
/// ulps-of-accumulation ≈ 4e-15 over the gate-circuit domain — far
/// inside the tolerance of any statistical consumer. **Not** bitwise
/// `f64::powf`: swapping this in changes propensity bits, which the
/// bitwise contract allows when engine and scalar reference move
/// together (both route through here).
#[inline]
pub fn pow(x: f64, n: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    exp(n * ln(x))
}

// fdlibm `__kernel_sin` / `__kernel_cos` minimax sets on [-π/4, π/4].
const S1: f64 = -1.666_666_666_666_663_24e-1;
const S2: f64 = 8.333_333_333_322_489_46e-3;
const S3: f64 = -1.984_126_982_985_794_93e-4;
const S4: f64 = 2.755_731_370_707_006_77e-6;
const S5: f64 = -2.505_076_025_340_686_34e-8;
const S6: f64 = 1.589_690_995_211_550_10e-10;
const C1: f64 = 4.166_666_666_666_660_19e-2;
const C2: f64 = -1.388_888_888_887_410_96e-3;
const C3: f64 = 2.480_158_728_947_672_94e-5;
const C4: f64 = -2.755_731_435_139_066_33e-7;
const C5: f64 = 2.087_572_321_298_174_83e-9;
const C6: f64 = -1.135_964_755_778_819_48e-11;

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)` — the Box–Muller angle step,
/// taking the *unit-interval* uniform directly so no caller ever
/// multiplies by 2π and reduces back again.
///
/// Octant reduction in the unit domain (`q = round(4u)`,
/// `φ = 2π(u − q/4) ∈ [−π/4, π/4]`), fdlibm kernel polynomials for
/// `sin φ` / `cos φ`, then a fully branch-free quadrant fix-up: the
/// swap is a bit-select and the sign flips are XORs on the sign bit,
/// so the whole function vectorizes inside batched loops.
#[inline]
pub fn sincos_unit(u: f64) -> (f64, f64) {
    // Magic-constant rounding to the nearest octant q ∈ {0, …, 4}
    // (ties to even — both neighbours keep |φ| ≲ π/4, where the
    // kernels hold). The live sum's low mantissa bits are `2^51 + q`,
    // so q's two quadrant bits read out with plain masks — no
    // float→int conversion at all.
    let qd = 4.0 * u + ROUND_MAGIC;
    let q = qd - ROUND_MAGIC;
    let phi = core::f64::consts::TAU * (u - 0.25 * q);
    let z = phi * phi;
    // sin φ on [-π/4, π/4].
    let rs = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    let sin = phi + z * phi * (S1 + z * rs);
    // cos φ on [-π/4, π/4] (fdlibm's compensated 1 − z/2 form).
    let rc = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos = w + (((1.0 - w) - hz) + z * rc);
    // Quadrant q mod 4: 0 → (s, c); 1 → (c, −s); 2 → (−s, −c);
    // 3 → (−c, s). q = 4 wraps to quadrant 0 (φ measured from 2π).
    // `2^51 + q` shares q's two low bits (2^51 ≡ 0 mod 4).
    let qi = qd.to_bits();
    let swap = (qi & 1).wrapping_neg(); // all-ones when q is odd
    let sin_bits = (sin.to_bits() & !swap) | (cos.to_bits() & swap);
    let cos_bits = (cos.to_bits() & !swap) | (sin.to_bits() & swap);
    let sin_flip = (qi & 2) << 62; // sign flips in quadrants 2, 3
    let cos_flip = ((qi + 1) & 2) << 62; // sign flips in quadrants 1, 2
    (
        f64::from_bits(sin_bits ^ sin_flip),
        f64::from_bits(cos_bits ^ cos_flip),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error against the system libm, in units of 1e-16
    /// (~1 ulp). The system functions are themselves only correctly
    /// rounded to ≤1 ulp, so a bound of a few ulp proves the kernels.
    fn rel_err(ours: f64, libm: f64) -> f64 {
        if libm == 0.0 {
            ours.abs()
        } else {
            ((ours - libm) / libm).abs()
        }
    }

    #[test]
    fn ln_matches_libm_over_unit_interval() {
        // The Box–Muller domain: u1 ∈ (0, 1].
        for i in 1..=100_000u64 {
            let x = i as f64 / 100_000.0;
            let err = rel_err(ln(x), x.ln());
            assert!(err < 5e-16, "ln({x}): {} vs {} ({err:e})", ln(x), x.ln());
        }
        assert_eq!(ln(1.0), 0.0);
        // The smallest uniform the 53-bit conversion can produce.
        let tiny = 1.0 / (1u64 << 53) as f64;
        assert!(rel_err(ln(tiny), tiny.ln()) < 5e-16);
    }

    #[test]
    fn ln_matches_libm_over_wide_range() {
        // The pow domain: regulator copy numbers and thresholds.
        for i in 1..=10_000u64 {
            let x = i as f64 * 0.01; // 0.01 ..= 100
            assert!(rel_err(ln(x), x.ln()) < 5e-16, "ln({x})");
            let x = i as f64 * 17.3; // up to ~1.7e5
            assert!(rel_err(ln(x), x.ln()) < 5e-16, "ln({x})");
        }
    }

    #[test]
    fn exp_matches_libm() {
        for i in -4_000..=4_000i64 {
            let y = i as f64 * 0.01; // ±40: the Hill pow range
            assert!(rel_err(exp(y), y.exp()) < 1e-15, "exp({y})");
        }
        for i in -70..=70i64 {
            let y = i as f64 * 10.0; // ±700: the full finite range
            assert!(rel_err(exp(y), y.exp()) < 1e-15, "exp({y})");
        }
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn pow_matches_libm_on_hill_domain() {
        // x: copy numbers 0..~2e4; n: Hill coefficients 1..4.
        for i in 0..=20_000u64 {
            let x = i as f64;
            for n in [1.0, 1.5, 2.3, 2.8, 3.4, 4.0] {
                // exp(n·ln x) accumulates ~|n·ln x| ulp of relative
                // error; |n·ln x| ≤ 40 on this domain bounds it ~1e-14.
                let err = rel_err(pow(x, n), x.powf(n));
                assert!(err < 1e-14, "pow({x}, {n}): {err:e}");
            }
        }
        assert_eq!(pow(0.0, 2.8), 0.0);
    }

    #[test]
    fn sincos_matches_libm_over_unit_interval() {
        for i in 0..200_000u64 {
            let u = i as f64 / 200_000.0;
            let (s, c) = sincos_unit(u);
            let (ls, lc) = (core::f64::consts::TAU * u).sin_cos();
            // Near the zeros the relative error of either
            // implementation blows up; compare absolutely there.
            assert!((s - ls).abs() < 1e-15, "sin(2π·{u}): {s} vs {ls}");
            assert!((c - lc).abs() < 1e-15, "cos(2π·{u}): {c} vs {lc}");
        }
    }

    #[test]
    fn sincos_quadrant_identities() {
        let (s0, c0) = sincos_unit(0.0);
        assert_eq!(s0, 0.0);
        assert_eq!(c0, 1.0);
        let (s, c) = sincos_unit(0.25);
        assert_eq!(s, 1.0);
        assert_eq!(c.abs(), 0.0);
        let (s, c) = sincos_unit(0.5);
        assert_eq!(s.abs(), 0.0);
        assert_eq!(c, -1.0);
        let (s, c) = sincos_unit(0.75);
        assert_eq!(s, -1.0);
        assert_eq!(c.abs(), 0.0);
        // Pythagoras across the whole circle.
        for i in 0..10_000u64 {
            let u = i as f64 / 10_000.0;
            let (s, c) = sincos_unit(u);
            assert!((s * s + c * c - 1.0).abs() < 4e-16, "u = {u}");
        }
    }
}
