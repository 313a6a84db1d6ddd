//! Property tests for the batched Gaussian draw engine
//! (`glc_ssa::draws`): the block path must be bitwise-interchangeable
//! with the scalar reference — values *and* RNG draw-stream position —
//! for any sequence of request shapes, and the output must actually
//! look like a standard normal. The exact engines' unit exponential
//! wait (`exp1`) must look like `Exp(1)`, tail included.

use genetic_logic::ssa::draws::BLOCK_PAIRS;
use genetic_logic::ssa::{exp1, standard_normal, NormalBlock, NormalCarry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

proptest! {
    /// For any request-length sequence (odd lengths, empties, and
    /// block-boundary stragglers included) and any seed, `fill`
    /// produces the exact values of the scalar reference loop and
    /// leaves the RNG at the identical stream position after *every*
    /// request, not just at the end.
    #[test]
    fn fill_is_bitwise_the_scalar_reference(
        seed in 0u64..u64::MAX,
        lens in proptest::collection::vec(0usize..(2 * BLOCK_PAIRS + 9), 1..10),
    ) {
        let mut block_rng = StdRng::seed_from_u64(seed);
        let mut scalar_rng = StdRng::seed_from_u64(seed);
        let mut block = NormalBlock::new();
        let mut carry = NormalCarry::new();
        for &len in &lens {
            let mut batched = vec![0.0f64; len];
            block.fill(&mut block_rng, &mut batched);
            for (i, z) in batched.iter().enumerate() {
                let reference = standard_normal(&mut scalar_rng, &mut carry);
                prop_assert_eq!(
                    z.to_bits(),
                    reference.to_bits(),
                    "len {} index {}",
                    len,
                    i
                );
            }
            prop_assert_eq!(block.has_carry(), carry.0.is_some());
            // Identical stream position at the request boundary.
            prop_assert_eq!(block_rng.gen::<u64>(), scalar_rng.gen::<u64>());
        }
    }

    /// The carry rule is deterministic: replaying the same seed with
    /// the same odd-length request sequence reproduces every bit, and
    /// an odd request leaves exactly one parked half behind.
    #[test]
    fn odd_count_carry_is_deterministic(seed in 0u64..u64::MAX, odd_half in 0usize..40) {
        let len = 2 * odd_half + 1;
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut block = NormalBlock::new();
            let mut first = vec![0.0f64; len];
            block.fill(&mut rng, &mut first);
            assert!(block.has_carry(), "odd request must park the sine half");
            // The next request starts with the parked half.
            let mut second = vec![0.0f64; 3];
            block.fill(&mut rng, &mut second);
            (first, second)
        };
        let (a1, a2) = run(seed);
        let (b1, b2) = run(seed);
        for (x, y) in a1.iter().zip(&b1).chain(a2.iter().zip(&b2)) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Requests that straddle the refill boundary — one block exactly,
    /// one short, one long — agree with one single oversized request
    /// from the same seed (the block split is invisible).
    #[test]
    fn block_boundary_split_is_invisible(seed in 0u64..u64::MAX, extra in 0usize..17) {
        let total = 2 * BLOCK_PAIRS + extra;
        let mut whole_rng = StdRng::seed_from_u64(seed);
        let mut whole_block = NormalBlock::new();
        let mut whole = vec![0.0f64; total];
        whole_block.fill(&mut whole_rng, &mut whole);

        let mut split_rng = StdRng::seed_from_u64(seed);
        let mut split_block = NormalBlock::new();
        let mut head = vec![0.0f64; 2 * BLOCK_PAIRS];
        let mut tail = vec![0.0f64; extra];
        split_block.fill(&mut split_rng, &mut head);
        split_block.fill(&mut split_rng, &mut tail);

        for (i, (w, s)) in whole.iter().zip(head.iter().chain(&tail)).enumerate() {
            prop_assert_eq!(w.to_bits(), s.to_bits(), "index {}", i);
        }
        prop_assert_eq!(whole_rng.gen::<u64>(), split_rng.gen::<u64>());
    }

    /// Stream-position parity across arbitrary seeds: after any fill,
    /// the block consumed exactly two raw draws per fresh pair — no
    /// hidden buffering ahead of the request.
    #[test]
    fn stream_position_is_two_draws_per_fresh_pair(seed in 0u64..u64::MAX, len in 1usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block = NormalBlock::new();
        let mut out = vec![0.0f64; len];
        block.fill(&mut rng, &mut out);
        let fresh_pairs = (len as u64).div_ceil(2);
        let mut counted = StdRng::seed_from_u64(seed);
        for _ in 0..2 * fresh_pairs {
            counted.next_u64();
        }
        prop_assert_eq!(rng.gen::<u64>(), counted.gen::<u64>());
    }
}

/// Statistical sanity, deliberately non-proptest (one big fixed-seed
/// sample): mean ≈ 0, variance ≈ 1, symmetric tails, and pair halves
/// uncorrelated — Box–Muller's cosine and sine halves are independent.
#[test]
fn sample_moments_match_standard_normal() {
    let mut rng = StdRng::seed_from_u64(20_170_327);
    let mut block = NormalBlock::new();
    let mut z = vec![0.0f64; 400_000];
    block.fill(&mut rng, &mut z);
    let n = z.len() as f64;
    let mean = z.iter().sum::<f64>() / n;
    let var = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let above = z.iter().filter(|&&v| v > 0.0).count() as f64 / n;
    let kurt = z.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n / (var * var);
    assert!(mean.abs() < 0.01, "mean {mean}");
    assert!((var - 1.0).abs() < 0.01, "variance {var}");
    assert!((above - 0.5).abs() < 0.005, "P(z > 0) = {above}");
    assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    // Pair halves (even/odd positions) are independent normals.
    let cov = z
        .chunks_exact(2)
        .map(|p| (p[0] - mean) * (p[1] - mean))
        .sum::<f64>()
        / (n / 2.0);
    assert!(cov.abs() < 0.01, "pair covariance {cov}");
}

/// `exp1` follows `Exp(1)`, on 10^6 draws from a fixed seed: mean and
/// variance within 4σ of 1, the Kolmogorov–Smirnov distance to
/// `1 - e^{-x}` below its 0.1% critical value, and the share of draws
/// past the ziggurat's tail edge `r` within 4σ of `e^{-r}`, so the tail
/// path carries its weight.
#[test]
fn exp1_follows_the_unit_exponential_law() {
    const N: usize = 1_000_000;
    const TAIL_EDGE: f64 = 7.697_117_470_131_05;
    let mut rng = StdRng::seed_from_u64(20_000_808);
    let mut draws: Vec<f64> = (0..N).map(|_| exp1(&mut rng)).collect();
    assert!(draws.iter().all(|&x| x.is_finite() && x >= 0.0));
    let n = N as f64;

    let mean = draws.iter().sum::<f64>() / n;
    let var = draws.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    // Var(X) = 1 and the fourth central moment is 9, so the sample
    // mean has σ = 1/√n and the sample variance σ = √(8/n).
    assert!((mean - 1.0).abs() < 4.0 / n.sqrt(), "mean {mean}");
    assert!((var - 1.0).abs() < 4.0 * (8.0 / n).sqrt(), "variance {var}");

    let p = (-TAIL_EDGE).exp();
    let tail = draws.iter().filter(|&&x| x > TAIL_EDGE).count() as f64;
    let sigma = (n * p * (1.0 - p)).sqrt();
    assert!(
        (tail - n * p).abs() < 4.0 * sigma,
        "{tail} draws past r, expected {}",
        n * p
    );

    draws.sort_by(f64::total_cmp);
    let ks = draws
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let cdf = 1.0 - (-x).exp();
            (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        })
        .fold(0.0f64, f64::max);
    // Kolmogorov distribution: P(√n·D > 1.9495) = 0.001.
    assert!(ks < 1.9495 / n.sqrt(), "KS distance {ks}");
}
