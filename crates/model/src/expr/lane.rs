//! Lane values: what the kinetic evaluator computes on.
//!
//! [`CompiledExpr`](super::CompiledExpr) and
//! [`KineticFormBank`](super::KineticFormBank) evaluate over a [`Lane`]:
//! `f64` for one state, or [`Lanes<K>`] for `K` states stepped in
//! lockstep, one per lane. A lane value carries one `f64` per lane, and
//! every operation on it is the `f64` operation applied lane by lane,
//! so lane `i` of a result is bitwise what the `f64` evaluator gives on
//! lane `i`'s values alone. That is what lets a full-sweep engine share
//! one walk over forms, operands and memo slots among `K` replicates
//! without moving a bit of any of them.
//!
//! `f64` is the `K = 1` instance; there is no second evaluator.

use super::{BinOp, Func};
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A value with one `f64` per lane; every operation acts lane by lane.
pub trait Lane:
    Copy
    + Debug
    + Send
    + Sync
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + MulAssign
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Lanes per value.
    const WIDTH: usize;
    /// The bit patterns of every lane, the key of a Hill memo pair.
    type Bits: Copy + Debug + PartialEq + Send + Sync;

    /// Every lane set to `x`.
    fn splat(x: f64) -> Self;
    /// The lanes as a slice, lane 0 first.
    fn lanes(&self) -> &[f64];
    /// The lanes as a mutable slice, lane 0 first.
    fn lanes_mut(&mut self) -> &mut [f64];
    /// Every lane's bit pattern.
    fn to_bits(self) -> Self::Bits;
    /// Every lane's bits set to `bits`.
    fn bits_splat(bits: u64) -> Self::Bits;
    /// `f64::max` lane by lane.
    fn max(self, other: Self) -> Self;
    /// `f64::min` lane by lane.
    fn min(self, other: Self) -> Self;
    /// `f64::sqrt` lane by lane.
    fn sqrt(self) -> Self;
    /// `op` lane by lane.
    fn bin(op: BinOp, lhs: Self, rhs: Self) -> Self;
    /// `func` lane by lane: lane `i` of the result is `func` applied to
    /// lane `i` of every argument.
    fn apply(func: Func, args: &[Self]) -> Self;
    /// The miss path of a literal-coefficient Hill response over the
    /// clamped regulator `x`: `x^n` by [`crate::fastmath::pow`], then
    /// `xn / (kn + xn)` (activation) or `kn / (kn + xn)` (repression).
    fn hill(x: Self, n: Self, kn: f64, activation: bool) -> Self;
    /// Lane `i` of `on` where bit `i` of `mask` is set, of `off`
    /// elsewhere.
    fn select(mask: u64, on: Self, off: Self) -> Self;
    /// Lane `lane` of every value in `values`: `values` itself when
    /// there is one lane, else a copy in `scratch`.
    fn column<'a>(values: &'a [Self], lane: usize, scratch: &'a mut Vec<f64>) -> &'a [f64];

    /// Lane `lane`.
    #[inline]
    fn lane(&self, lane: usize) -> f64 {
        self.lanes()[lane]
    }
}

impl Lane for f64 {
    const WIDTH: usize = 1;
    type Bits = u64;

    #[inline]
    fn splat(x: f64) -> Self {
        x
    }
    #[inline]
    fn lanes(&self) -> &[f64] {
        std::slice::from_ref(self)
    }
    #[inline]
    fn lanes_mut(&mut self) -> &mut [f64] {
        std::slice::from_mut(self)
    }
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn bits_splat(bits: u64) -> u64 {
        bits
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn bin(op: BinOp, lhs: f64, rhs: f64) -> f64 {
        op.apply(lhs, rhs)
    }
    #[inline]
    fn apply(func: Func, args: &[f64]) -> f64 {
        func.apply(args)
    }
    #[inline]
    fn hill(x: f64, n: f64, kn: f64, activation: bool) -> f64 {
        let xn = crate::fastmath::pow(x, n);
        if activation {
            xn / (kn + xn)
        } else {
            kn / (kn + xn)
        }
    }
    #[inline]
    fn select(mask: u64, on: f64, off: f64) -> f64 {
        if mask & 1 != 0 {
            on
        } else {
            off
        }
    }
    #[inline]
    fn column<'a>(values: &'a [f64], _: usize, _: &'a mut Vec<f64>) -> &'a [f64] {
        values
    }
}

/// `K` lanes of `f64`, one per replicate of a lockstep batch.
///
/// Every operation is a fixed-trip loop over `[f64; K]`, so the
/// compiler maps it onto the target's vector registers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Lanes<const K: usize>(pub [f64; K]);

impl<const K: usize> Lanes<K> {
    /// Lane `i` set to `f(i)`.
    #[inline]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Lanes(std::array::from_fn(f))
    }

    #[inline]
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Lanes(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const K: usize> $trait for Lanes<K> {
            type Output = Self;
            #[inline]
            fn $method(self, other: Self) -> Self {
                self.zip(other, |a, b| a $op b)
            }
        }
    };
}
lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

impl<const K: usize> Neg for Lanes<K> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Lanes(self.0.map(|x| -x))
    }
}

impl<const K: usize> AddAssign for Lanes<K> {
    #[inline]
    fn add_assign(&mut self, other: Self) {
        *self = *self + other;
    }
}

impl<const K: usize> MulAssign for Lanes<K> {
    #[inline]
    fn mul_assign(&mut self, other: Self) {
        *self = *self * other;
    }
}

impl<const K: usize> Lane for Lanes<K> {
    const WIDTH: usize = K;
    type Bits = [u64; K];

    #[inline]
    fn splat(x: f64) -> Self {
        Lanes([x; K])
    }
    #[inline]
    fn lanes(&self) -> &[f64] {
        &self.0
    }
    #[inline]
    fn lanes_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
    #[inline]
    fn to_bits(self) -> [u64; K] {
        self.0.map(f64::to_bits)
    }
    #[inline]
    fn bits_splat(bits: u64) -> [u64; K] {
        [bits; K]
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        self.zip(other, f64::max)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        self.zip(other, f64::min)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Lanes(self.0.map(f64::sqrt))
    }
    #[inline]
    fn bin(op: BinOp, lhs: Self, rhs: Self) -> Self {
        lhs.zip(rhs, |a, b| op.apply(a, b))
    }
    fn apply(func: Func, args: &[Self]) -> Self {
        Lanes::from_fn(|i| {
            let mut lane = [0.0; 3];
            for (to, arg) in lane.iter_mut().zip(args) {
                *to = arg.0[i];
            }
            func.apply(&lane[..args.len()])
        })
    }
    /// Branch-free over the lanes: `exp(n · ln x)` with an `x == 0`
    /// select in place of [`crate::fastmath::pow`]'s early return, the
    /// same operation sequence per lane, so the chain vectorizes.
    #[inline]
    fn hill(x: Self, n: Self, kn: f64, activation: bool) -> Self {
        Lanes::from_fn(|i| {
            let x = x.0[i];
            let raw = crate::fastmath::exp(n.0[i] * crate::fastmath::ln(x));
            let xn = if x == 0.0 { 0.0 } else { raw };
            let numer = if activation { xn } else { kn };
            numer / (kn + xn)
        })
    }
    #[inline]
    fn select(mask: u64, on: Self, off: Self) -> Self {
        Lanes::from_fn(|i| {
            if mask >> i & 1 != 0 {
                on.0[i]
            } else {
                off.0[i]
            }
        })
    }
    fn column<'a>(values: &'a [Self], lane: usize, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        scratch.clear();
        scratch.extend(values.iter().map(|value| value.0[lane]));
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regulators on each side of `pow`'s special cases.
    const XS: [f64; 8] = [0.0, -0.0, 1.0, 15.0, 220.5, 1e-300, 1e6, 3.25];

    #[test]
    fn lane_hill_matches_the_scalar_miss_path_bitwise() {
        let kn = crate::fastmath::pow(20.0, 2.6);
        for activation in [false, true] {
            let x = Lanes(XS.map(|x| x.max(0.0)));
            let n = Lanes([2.6, 2.0, 1.0, 3.5, 2.6, 1.2, 4.0, 0.5]);
            let lanes = Lanes::hill(x, n, kn, activation);
            for i in 0..8 {
                let scalar = f64::hill(x.0[i], n.0[i], kn, activation);
                assert_eq!(lanes.0[i].to_bits(), scalar.to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn lane_ops_are_the_f64_ops_lane_by_lane() {
        let a = Lanes([1.5, -2.0, 0.0, f64::NAN]);
        let b = Lanes([0.25, 3.0, -0.0, 1.0]);
        let scalar = |f: fn(f64, f64) -> f64| std::array::from_fn(|i| f(a.0[i], b.0[i]).to_bits());
        assert_eq!((a + b).to_bits(), scalar(|x, y| x + y));
        assert_eq!((a * b).to_bits(), scalar(|x, y| x * y));
        assert_eq!((a / b).to_bits(), scalar(|x, y| x / y));
        assert_eq!(Lane::max(a, b).to_bits(), scalar(f64::max));
        assert_eq!(Lane::min(a, b).to_bits(), scalar(f64::min));
        let args = [a, b, Lanes::splat(2.0)];
        let hill = <Lanes<4> as Lane>::apply(Func::HillRepression, &args);
        for i in 0..4 {
            let lane = Func::HillRepression.apply(&[a.0[i], b.0[i], 2.0]);
            assert_eq!(hill.0[i].to_bits(), lane.to_bits(), "lane {i}");
        }
    }
}
