//! Random draws of the simulation tier: the paired, block-refilled
//! normal source behind the Langevin engine and tau-leap's large-λ
//! branch, and the unit exponential [`exp1`] behind every exact
//! engine's waiting time.
//!
//! The scalar Box–Muller sampler the engines used through PR 9 paid one
//! libm `ln`, one `sqrt`, one libm `cos` and two uniform draws *per
//! normal* — and threw the sine half of every pair away. On the
//! reference circuits that transform was the last scalar per-element
//! transcendental loop left in the simulation tier, and it pinned
//! Langevin near 1.6M steps/s on both circuits while every other hot
//! path had already been batched. This module replaces it with:
//!
//! * **pairing** — the full Box–Muller transform: two uniforms become
//!   *two* normals (`r·cos θ`, `r·sin θ`), halving both RNG consumption
//!   and the `ln`/`sqrt`/trig budget per draw. The odd half of an
//!   odd-length request waits in a carry slot and is the first value of
//!   the next request, so any interleaving of request sizes consumes
//!   the identical draw stream;
//! * **block refill** — [`NormalBlock::fill`] draws the raw `u64`s for
//!   up to [`BLOCK_PAIRS`] pairs in one tight loop and deinterleaves
//!   them into contiguous per-pair `u₁`/`u₂` arrays, instead of
//!   round-tripping through the RNG call per draw;
//! * **lane-width transform passes** — the `u → z` transform runs as
//!   split passes over contiguous arrays (`bits → (u₁, u₂)`, `u₁ → r`,
//!   `u₂ → (sin, cos) → (z_even, z_odd)`), built on the inline
//!   branch-free polynomial kernels in [`glc_model::fastmath`] rather
//!   than opaque libm calls — so every pass, transcendentals included,
//!   is open to the autovectorizer. (An explicit-SIMD variant was
//!   benched against these autovectorized passes and rejected: with the
//!   kernels inlined, hand-rolled lanes were within noise.)
//!
//! # The determinism contract
//!
//! [`standard_normal`] is the *scalar reference*: the published
//! definition of the draw scheme, consuming one [`NormalCarry`].
//! [`NormalBlock::fill`] promises bitwise-identical output values *and*
//! the identical RNG draw-stream position for any sequence of request
//! lengths — property-tested in `tests/draws.rs` and pinned against
//! whole engine trajectories in `crates/bench/tests/bitwise.rs`. Both
//! paths evaluate the *same* [`glc_model::fastmath`] kernels, so the
//! equivalence is structural, not a numerical accident.
//!
//! # Exponential waits
//!
//! [`exp1`] is the definition of `Exp(1)` in this crate: the 256-layer
//! ziggurat of Marsaglia & Tsang (*J. Stat. Softw.* 5(8), 2000). A draw
//! usually takes one `next_u64` — the layer from its low 8 bits, a
//! 53-bit integer uniform from its top 53 — and one multiply; the tail
//! (`r − ln(1 − u)`) and the wedge tests take more uniforms. The tables
//! are built at compile time and the tail and wedges evaluate with the
//! [`glc_model::fastmath`] kernels, never libm, so waits are the same
//! bits on every host. Direct, FirstReaction and NextReaction wait
//! `exp1(rng) / a`; Direct's selection uniform is a separate draw.
//!
//! # RNG-stream versioning
//!
//! Adopting the paired scheme changed the per-seed draw stream of the
//! Langevin engine (every normal) and of tau-leap's `λ ≥ 30` branch
//! relative to PR 9, and the `fastmath` kernels changed the transformed
//! *values* relative to libm (by ≲2 ulp). That is deliberate and
//! allowed: the repo's bitwise contract is **engine ≡ published
//! reference** (values and stream position) plus per-seed determinism —
//! never stream identity across PRs. PR 1 set the precedent when the
//! vendored xoshiro replaced upstream `StdRng`; baselines were
//! regenerated alongside this change exactly as they were then.

use glc_model::fastmath;
use rand::rngs::StdRng;
use rand::RngCore;

/// Pairs per block refill: 256 uniforms → 256 normals per refill keeps
/// the whole working set (raw bits, split uniforms, radii, pair halves)
/// inside L1 while amortizing loop setup over enough lanes for the
/// vector passes to pay. Langevin requests (one normal per active
/// reaction per step) are far below this, so a refill is one pass in
/// practice.
pub const BLOCK_PAIRS: usize = 128;

/// Fresh-pair cap of the fixed-width small-request path inside
/// [`NormalBlock::fill`]: one vector batch of the fused transform.
const SMALL_PAIRS: usize = 8;

/// `2^-53`: converts the top 53 bits of a raw draw to `[0, 1)` exactly
/// as the vendored `rand`'s `Standard` impl for `f64` does — the block
/// path must reproduce `rng.gen::<f64>()` bit for bit.
const U53: f64 = 1.0 / (1u64 << 53) as f64;

/// One raw draw, mapped to `[0, 1)` — bitwise `rng.gen::<f64>()`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * U53
}

/// The carry slot of the paired Box–Muller scheme: holds the sine half
/// of the last pair when a request consumed an odd number of normals.
///
/// A fresh carry is empty; engines reset theirs at the start of every
/// [`Engine::run`](crate::engine::Engine::run) call so runs stay
/// independent of what a reused engine drew before (the discarded half,
/// being a *transformed* value, costs no RNG stream position).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NormalCarry(pub Option<f64>);

impl NormalCarry {
    /// An empty carry slot.
    pub fn new() -> Self {
        NormalCarry(None)
    }

    /// Empties the slot (run-start reset).
    pub fn reset(&mut self) {
        self.0 = None;
    }
}

/// Standard normal sample — the **scalar reference** of the paired
/// Box–Muller scheme.
///
/// With an empty carry this consumes two uniforms and computes the full
/// pair `(r·cos θ, r·sin θ)` through the [`glc_model::fastmath`]
/// kernels (`1 − u₁` keeps the log argument in `(0, 1]`), returning the
/// cosine half and parking the sine half in `carry`; the next call
/// returns the parked half without touching the RNG. Public so benches
/// and the bitwise-equivalence tests can replay the engines' exact draw
/// sequence against a reference loop.
#[inline]
pub fn standard_normal(rng: &mut StdRng, carry: &mut NormalCarry) -> f64 {
    if let Some(z) = carry.0.take() {
        return z;
    }
    let u1: f64 = 1.0 - unit_f64(rng.next_u64());
    let u2: f64 = unit_f64(rng.next_u64());
    let r = (-2.0 * fastmath::ln(u1)).sqrt();
    let (sin, cos) = fastmath::sincos_unit(u2);
    carry.0 = Some(r * sin);
    r * cos
}

/// The batched draw engine: block uniform refill + lane-width paired
/// Box–Muller transform, bitwise ≡ repeated [`standard_normal`] calls
/// on one shared [`NormalCarry`].
///
/// All scratch is owned by the block, so steady-state filling allocates
/// nothing. `Clone` keeps engines (`Langevin` holds one) cheaply
/// clonable.
#[derive(Debug, Clone)]
pub struct NormalBlock {
    carry: NormalCarry,
    /// Raw RNG output for the current refill, one `u64` per uniform.
    bits: [u64; 2 * BLOCK_PAIRS],
    /// Per-pair `1 − u₁` (log arguments), deinterleaved from `bits`.
    u1: [f64; BLOCK_PAIRS],
    /// Per-pair `u₂` (unit angles), deinterleaved from `bits`.
    u2: [f64; BLOCK_PAIRS],
    /// Per-pair radii `√(−2 ln(1 − u₁))`.
    radii: [f64; BLOCK_PAIRS],
    /// Per-pair cosine halves `r·cos θ` (even output positions).
    even: [f64; BLOCK_PAIRS],
    /// Per-pair sine halves `r·sin θ` (odd output positions).
    odd: [f64; BLOCK_PAIRS],
}

impl Default for NormalBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl NormalBlock {
    /// A block with an empty carry slot.
    pub fn new() -> Self {
        NormalBlock {
            carry: NormalCarry::new(),
            bits: [0; 2 * BLOCK_PAIRS],
            u1: [0.0; BLOCK_PAIRS],
            u2: [0.0; BLOCK_PAIRS],
            radii: [0.0; BLOCK_PAIRS],
            even: [0.0; BLOCK_PAIRS],
            odd: [0.0; BLOCK_PAIRS],
        }
    }

    /// Empties the carry slot (run-start reset; see [`NormalCarry`]).
    pub fn reset(&mut self) {
        self.carry.reset();
    }

    /// Whether a sine half is parked in the carry slot.
    pub fn has_carry(&self) -> bool {
        self.carry.0.is_some()
    }

    /// One draw through the block's carry — the scalar path, for
    /// callers (tau-leap's large-λ branch) whose draws interleave with
    /// other RNG consumption and so cannot batch ahead.
    #[inline]
    pub fn next(&mut self, rng: &mut StdRng) -> f64 {
        standard_normal(rng, &mut self.carry)
    }

    /// Fills `out` with standard normals, bitwise-identical — values
    /// and final RNG stream position — to `out.len()` calls of
    /// [`standard_normal`] on this block's carry.
    ///
    /// The refill loop draws exactly the raw `u64`s the reference would
    /// (two per fresh pair, none for the carried half), so stream
    /// position stays in lockstep at every request boundary, not just
    /// in aggregate. Every transform pass below iterates contiguous
    /// fixed-stride arrays of pure inline arithmetic — no libm calls,
    /// no data-dependent branches — so the autovectorizer unrolls them
    /// to full register width; the only scalar work left is the RNG
    /// recurrence itself and the final odd-tail fix-up, hoisted out of
    /// the loops.
    pub fn fill(&mut self, rng: &mut StdRng, out: &mut [f64]) {
        let mut at = 0usize;
        if let Some(z) = self.carry.0.take() {
            let Some(first) = out.first_mut() else {
                self.carry.0 = Some(z);
                return;
            };
            *first = z;
            at = 1;
        }
        // Small requests — the per-step Langevin shape, one normal per
        // active reaction — take the fixed-width path: at a handful of
        // pairs the runtime-bound passes below never fill a vector, so
        // the transform would fall back to scalar epilogues.
        if at < out.len() && out.len() - at <= 2 * SMALL_PAIRS {
            self.fill_small(rng, out, at);
            return;
        }
        while at < out.len() {
            let pairs = (out.len() - at).div_ceil(2).min(BLOCK_PAIRS);
            // Block refill: one tight raw-draw loop…
            for slot in &mut self.bits[..2 * pairs] {
                *slot = rng.next_u64();
            }
            // …then deinterleave and convert to the transform inputs:
            // log arguments `1 − u₁ ∈ (0, 1]` and unit angles `u₂`.
            for pair in 0..pairs {
                self.u1[pair] = 1.0 - unit_f64(self.bits[2 * pair]);
                self.u2[pair] = unit_f64(self.bits[2 * pair + 1]);
            }
            // Radius pass: inline polynomial `ln` + hardware `sqrt`.
            for (radius, &u1) in self.radii[..pairs].iter_mut().zip(&self.u1[..pairs]) {
                *radius = (-2.0 * fastmath::ln(u1)).sqrt();
            }
            // Angle pass: one branch-free `sincos_unit` per pair yields
            // both halves, scaled into their output-parity arrays.
            for pair in 0..pairs {
                let (sin, cos) = fastmath::sincos_unit(self.u2[pair]);
                let radius = self.radii[pair];
                self.even[pair] = radius * cos;
                self.odd[pair] = radius * sin;
            }
            // Interleave into the caller's buffer; the possibly-odd
            // final pair is handled once, outside the loop.
            let whole = if at + 2 * pairs > out.len() {
                pairs - 1
            } else {
                pairs
            };
            for pair in 0..whole {
                out[at + 2 * pair] = self.even[pair];
                out[at + 2 * pair + 1] = self.odd[pair];
            }
            if whole < pairs {
                out[at + 2 * whole] = self.even[whole];
                self.carry.0 = Some(self.odd[whole]);
            }
            at += 2 * pairs;
        }
    }

    /// Fixed-width transform for requests of at most [`SMALL_PAIRS`]
    /// fresh pairs: draws exactly the raw `u64`s the request consumes,
    /// then runs one compile-time-width fused pass (`ln`, `sqrt`,
    /// `sincos`) over the full scratch width so the kernel chain
    /// vectorizes regardless of the request length. Pad pairs transform
    /// `(u₁, u₂) = (1, 0)` — every kernel is finite there — and are
    /// never written back, so values and stream position stay bitwise
    /// identical to the reference (the per-pair operation sequence is
    /// unchanged; only the loop bound differs).
    fn fill_small(&mut self, rng: &mut StdRng, out: &mut [f64], at: usize) {
        let pairs = (out.len() - at).div_ceil(2);
        for slot in &mut self.bits[..2 * pairs] {
            *slot = rng.next_u64();
        }
        let mut u1 = [1.0f64; SMALL_PAIRS];
        let mut u2 = [0.0f64; SMALL_PAIRS];
        for pair in 0..pairs {
            u1[pair] = 1.0 - unit_f64(self.bits[2 * pair]);
            u2[pair] = unit_f64(self.bits[2 * pair + 1]);
        }
        let mut even = [0.0f64; SMALL_PAIRS];
        let mut odd = [0.0f64; SMALL_PAIRS];
        for pair in 0..SMALL_PAIRS {
            let radius = (-2.0 * fastmath::ln(u1[pair])).sqrt();
            let (sin, cos) = fastmath::sincos_unit(u2[pair]);
            even[pair] = radius * cos;
            odd[pair] = radius * sin;
        }
        let whole = if at + 2 * pairs > out.len() {
            pairs - 1
        } else {
            pairs
        };
        for pair in 0..whole {
            out[at + 2 * pair] = even[pair];
            out[at + 2 * pair + 1] = odd[pair];
        }
        if whole < pairs {
            out[at + 2 * whole] = even[whole];
            self.carry.0 = Some(odd[whole]);
        }
    }
}

/// Layers of the [`exp1`] ziggurat.
const ZIG_LAYERS: usize = 256;

/// Right edge `r` of the [`exp1`] ziggurat's widest layer: where the
/// base strip's tail starts (Marsaglia & Tsang, 2000, 256 layers).
const ZIG_R: f64 = 7.697_117_470_131_05;

/// Area `v` of every [`exp1`] ziggurat layer (Marsaglia & Tsang, 2000).
const ZIG_V: f64 = 3.949_659_822_581_572e-3;

/// `2^53`: the range of the 53-bit integer uniform [`exp1`] scales.
const U53_RANGE: f64 = (1u64 << 53) as f64;

/// The [`exp1`] tables, per layer `i`: the quick-accept bound `k[i]`
/// on the 53-bit integer uniform, the scale `w[i]` from that integer to
/// `x`, and the density `f[i] = e^{-x_i}` at the layer's right edge.
struct Ziggurat {
    k: [u64; ZIG_LAYERS],
    w: [f64; ZIG_LAYERS],
    f: [f64; ZIG_LAYERS],
}

/// Builds the [`exp1`] tables at compile time with the
/// [`glc_model::fastmath`] kernels (never libm), following Marsaglia &
/// Tsang's `zigset`: layer 255 is the widest, `x_255 = r`; each narrower
/// edge is `x_{i-1} = -ln(v / x_i + e^{-x_i})`; layer 1 is the top one,
/// under `f = 1`; layer 0 is the base strip, a rectangle of area `v`
/// whose part past `r` stands for the tail.
const fn ziggurat() -> Ziggurat {
    let mut k = [0u64; ZIG_LAYERS];
    let mut w = [0.0f64; ZIG_LAYERS];
    let mut f = [0.0f64; ZIG_LAYERS];
    let mut x = ZIG_R;
    let q = ZIG_V / fastmath::exp(-x);
    k[0] = (x / q * U53_RANGE) as u64;
    w[0] = q / U53_RANGE;
    f[0] = 1.0;
    w[ZIG_LAYERS - 1] = x / U53_RANGE;
    f[ZIG_LAYERS - 1] = fastmath::exp(-x);
    let mut i = ZIG_LAYERS - 2;
    while i >= 1 {
        let wider = x;
        x = -fastmath::ln(ZIG_V / x + fastmath::exp(-x));
        k[i + 1] = (x / wider * U53_RANGE) as u64;
        w[i] = x / U53_RANGE;
        f[i] = fastmath::exp(-x);
        i -= 1;
    }
    Ziggurat { k, w, f }
}

static ZIGGURAT: Ziggurat = ziggurat();

/// A unit exponential draw, `Exp(1)`: the ziggurat of Marsaglia & Tsang
/// (*J. Stat. Softw.* 5(8), 2000) with 256 layers — the **definition**
/// of every exact engine's waiting time (`τ = exp1(rng) / a`).
///
/// One `next_u64` picks the layer from its low 8 bits and a 53-bit
/// integer uniform `j` from its top 53 bits; when `j < k[layer]` the
/// point lies inside the curve and `x = j · w[layer]` is returned
/// (about 97.8% of draws). Otherwise, in the base strip the draw is a
/// tail draw `r − ln(1 − u)` with one more uniform, and in any other
/// layer a wedge test `f[i] + u·(f[i−1] − f[i]) < e^{−x}` with one more
/// uniform either accepts `x` or starts over with a fresh `next_u64`.
/// Tables, `ln` and `exp` are the deterministic [`glc_model::fastmath`]
/// kernels, so the draws, like the stream, depend only on the seed.
#[inline]
pub fn exp1(rng: &mut StdRng) -> f64 {
    let bits = rng.next_u64();
    let layer = (bits & 0xff) as usize;
    let j = bits >> 11;
    if j < ZIGGURAT.k[layer] {
        return j as f64 * ZIGGURAT.w[layer];
    }
    exp1_edge(rng, bits)
}

/// The rare [`exp1`] paths: the tail, and the wedge tests with their
/// retries, starting from the raw draw `bits` that missed the quick
/// accept.
#[cold]
#[inline(never)]
fn exp1_edge(rng: &mut StdRng, mut bits: u64) -> f64 {
    let zig = &ZIGGURAT;
    loop {
        let layer = (bits & 0xff) as usize;
        let j = bits >> 11;
        if j < zig.k[layer] {
            return j as f64 * zig.w[layer];
        }
        if layer == 0 {
            return ZIG_R - fastmath::ln(1.0 - unit_f64(rng.next_u64()));
        }
        let x = j as f64 * zig.w[layer];
        let y = zig.f[layer] + unit_f64(rng.next_u64()) * (zig.f[layer - 1] - zig.f[layer]);
        if y < fastmath::exp(-x) {
            return x;
        }
        bits = rng.next_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ziggurat_tables_are_the_fastmath_layers_of_equal_area() {
        // The compile-time tables are the bits a run-time build gives.
        let built = ziggurat();
        for i in 0..ZIG_LAYERS {
            assert_eq!(built.k[i], ZIGGURAT.k[i], "k[{i}]");
            assert_eq!(built.w[i].to_bits(), ZIGGURAT.w[i].to_bits(), "w[{i}]");
            assert_eq!(built.f[i].to_bits(), ZIGGURAT.f[i].to_bits(), "f[{i}]");
        }
        let zig = &ZIGGURAT;
        let edge = |i: usize| zig.w[i] * U53_RANGE;
        assert_eq!(edge(ZIG_LAYERS - 1), ZIG_R);
        assert_eq!(zig.k[1], 0, "the top layer has no quick accept");
        // Every layer above the base strip has area v, the top one under
        // f = 1 included, and edges narrow toward the top.
        for i in 1..ZIG_LAYERS {
            let area = edge(i) * (zig.f[i - 1] - zig.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-9, "layer {i}: area {area}");
            assert!(i == 1 || edge(i - 1) < edge(i));
        }
        // The base strip: [0, r] under f(r), plus the tail, is v too.
        let strip = ZIG_R * zig.f[ZIG_LAYERS - 1] + (-ZIG_R).exp();
        assert!((strip / ZIG_V - 1.0).abs() < 1e-9, "base strip {strip}");
        // A quick accept is taken on about 97.8% of draws.
        let quick: f64 = zig.k.iter().map(|&k| k as f64 / U53_RANGE).sum::<f64>() / 256.0;
        assert!((0.977..0.979).contains(&quick), "{quick}");
    }

    /// The plain ziggurat loop of Marsaglia & Tsang: draw, quick accept,
    /// tail or wedge test, and start over on a wedge rejection.
    fn plain_ziggurat(rng: &mut StdRng) -> f64 {
        let zig = &ZIGGURAT;
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            let j = bits >> 11;
            let x = j as f64 * zig.w[layer];
            if j < zig.k[layer] {
                return x;
            }
            if layer == 0 {
                return ZIG_R - fastmath::ln(1.0 - unit_f64(rng.next_u64()));
            }
            let u = unit_f64(rng.next_u64());
            if zig.f[layer] + u * (zig.f[layer - 1] - zig.f[layer]) < fastmath::exp(-x) {
                return x;
            }
        }
    }

    #[test]
    fn exp1_is_the_plain_ziggurat_loop() {
        // Values and stream position, over enough draws to take the
        // tail (~90 times) and the wedges (~4,400 times).
        let mut rng = StdRng::seed_from_u64(3);
        let mut reference = rng.clone();
        let (mut quick, mut tail) = (0, 0);
        for _ in 0..200_000 {
            let mut probe = rng.clone();
            let bits = probe.next_u64();
            let x = exp1(&mut rng);
            assert_eq!(x.to_bits(), plain_ziggurat(&mut reference).to_bits());
            assert_eq!(rng.next_u64(), reference.next_u64(), "stream position");
            quick += usize::from((bits >> 11) < ZIGGURAT.k[(bits & 0xff) as usize]);
            tail += usize::from(x > ZIG_R);
        }
        assert!((195_000..196_500).contains(&quick), "{quick} quick accepts");
        assert!((50..140).contains(&tail), "{tail} tail draws");
    }

    #[test]
    fn pairing_returns_cosine_then_sine_half() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut carry = NormalCarry::new();
        let z0 = standard_normal(&mut rng, &mut carry);
        assert!(carry.0.is_some(), "sine half must be parked");
        let parked = carry.0.unwrap();
        let z1 = standard_normal(&mut rng, &mut carry);
        assert_eq!(z1.to_bits(), parked.to_bits());
        assert!(carry.0.is_none());
        // The pair comes from one (u1, u2): replay it by hand through
        // the same fastmath kernels.
        let mut replay = StdRng::seed_from_u64(7);
        let u1: f64 = 1.0 - replay.gen::<f64>();
        let u2: f64 = replay.gen();
        let r = (-2.0 * fastmath::ln(u1)).sqrt();
        let (sin, cos) = fastmath::sincos_unit(u2);
        assert_eq!(z0.to_bits(), (r * cos).to_bits());
        assert_eq!(z1.to_bits(), (r * sin).to_bits());
    }

    #[test]
    fn fill_matches_scalar_reference_across_request_shapes() {
        // A mix of odd, even, zero-length and block-crossing requests.
        let shapes = [3usize, 0, 1, 8, 2 * BLOCK_PAIRS + 5, 1, 2, 7];
        let mut block_rng = StdRng::seed_from_u64(99);
        let mut scalar_rng = StdRng::seed_from_u64(99);
        let mut block = NormalBlock::new();
        let mut carry = NormalCarry::new();
        for &len in &shapes {
            let mut batched = vec![0.0f64; len];
            block.fill(&mut block_rng, &mut batched);
            for (i, z) in batched.iter().enumerate() {
                let reference = standard_normal(&mut scalar_rng, &mut carry);
                assert_eq!(z.to_bits(), reference.to_bits(), "len {len} index {i}");
            }
            assert_eq!(
                block.has_carry(),
                carry.0.is_some(),
                "carry occupancy after len {len}"
            );
        }
        // Identical stream position: the next raw draw must agree.
        assert_eq!(block_rng.gen::<u64>(), scalar_rng.gen::<u64>());
    }

    #[test]
    fn empty_fill_preserves_carry_and_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = NormalBlock::new();
        let mut one = [0.0f64; 1];
        block.fill(&mut rng, &mut one);
        assert!(block.has_carry());
        let stream_probe = rng.clone();
        block.fill(&mut rng, &mut []);
        assert!(block.has_carry(), "empty request must not consume carry");
        assert_eq!(rng, stream_probe, "empty request must not touch the RNG");
    }

    #[test]
    fn reset_discards_carry_without_stream_cost() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut block = NormalBlock::new();
        let mut one = [0.0f64; 1];
        block.fill(&mut rng, &mut one);
        assert!(block.has_carry());
        block.reset();
        assert!(!block.has_carry());
        // A fresh run from the same stream position draws a new pair.
        let mut reference_rng = rng.clone();
        let mut carry = NormalCarry::new();
        let reference = standard_normal(&mut reference_rng, &mut carry);
        block.fill(&mut rng, &mut one);
        assert_eq!(one[0].to_bits(), reference.to_bits());
    }

    #[test]
    fn moments_are_standard_normal() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut block = NormalBlock::new();
        let mut z = vec![0.0f64; 200_000];
        block.fill(&mut rng, &mut z);
        let n = z.len() as f64;
        let mean = z.iter().sum::<f64>() / n;
        let var = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }
}
