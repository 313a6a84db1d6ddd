//! Compiled expression form for fast repeated evaluation.
//!
//! Stochastic simulation evaluates every kinetic law millions of times, so
//! the tree-walking [`Expr::eval`] with string-keyed lookup is too slow.
//! [`CompiledExpr`] flattens the tree into a postfix instruction sequence
//! whose variable references are pre-resolved to slot indices in a flat
//! `&[f64]` value vector, as described by a [`SymbolTable`].
//!
//! # Kinetics fast path
//!
//! On top of the postfix VM, compilation classifies each program into a
//! [`KineticForm`]. The overwhelmingly common kinetic-law shapes —
//! mass-action products like `k * A * B` and the Cello gate response
//! `ymin + (ymax - ymin) * hillr(R, K, n)` — evaluate as a handful of
//! loads and multiplies with **no instruction dispatch and no operand
//! stack**; everything else falls back to the VM unchanged.
//!
//! The fast paths are constructed to be **bitwise identical** to the VM:
//! classification only matches left-associated `+`/`*` spines (the shape
//! the parser produces), evaluates factors and terms in the same order
//! the postfix program would, and replays the operation sequence of
//! [`Func::apply`] for Hill responses. A [`KineticFormBank`] holds one
//! model's laws and adds a caller-owned Hill response memo
//! ([`EvalMemo`]) on the same evaluator. Simulation results therefore
//! do not depend on which path evaluated a propensity — the property
//! the incremental propensity engine in `glc_ssa` relies on.

use super::lane::Lane;
use super::{BinOp, Expr, Func};
use crate::error::EvalError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique bank identities for [`EvalMemo`] invalidation.
/// Starts at 1 so a default-constructed memo (id 0) never aliases a
/// real bank.
static NEXT_BANK_ID: AtomicU64 = AtomicU64::new(1);

/// Maps identifier names to slots of a flat value vector.
///
/// The simulator lays out species first and parameters after them; the
/// table just records the final name → index assignment.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    slots: HashMap<String, usize>,
    names: Vec<String>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `name` to the table, returning its slot.
    ///
    /// If `name` is already present its existing slot is returned instead
    /// of creating a duplicate.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), slot);
        slot
    }

    /// Returns the slot of `name`, if interned.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    /// Returns the name stored at `slot`.
    pub fn name(&self, slot: usize) -> Option<&str> {
        self.names.get(slot).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(slot, name)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (i, n.as_str()))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Instr {
    PushNum(f64),
    PushSlot(usize),
    Neg,
    Bin(BinOp),
    Call(Func),
}

/// A leaf of the kinetics fast path: a literal or a slot load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Numeric literal.
    Num(f64),
    /// Load of `values[slot]`.
    Slot(usize),
}

impl Operand {
    #[inline]
    fn load<L: Lane>(self, values: &[L]) -> L {
        match self {
            Operand::Num(value) => L::splat(value),
            Operand::Slot(slot) => values[slot],
        }
    }
}

/// A Hill response call `hillr`/`hilla` over a (sum of) operand(s).
///
/// Covers the promoter response laws the gate compiler emits, including
/// tandem-promoter laws where the repressor amounts are summed inside
/// the call: `hillr(R_a + R_b, K, n)`.
///
/// When `k` and `n` are both literals — true for every law the gate
/// compiler emits — `k^n` is hoisted to compile time:
/// [`crate::fastmath::pow`] is a pure function of its operand bits, so
/// the stored value is bitwise identical to evaluating it on every
/// call, and the response costs one `pow` instead of two. The response
/// of such a call is then a pure function of its clamped regulator, so
/// it memoizes in the [`EvalMemo`] slot its [`KineticFormBank`] gives it.
#[derive(Debug, Clone, PartialEq)]
pub struct HillCall {
    /// `true` for `hilla`, `false` for `hillr`.
    pub activation: bool,
    /// Summands of the regulator amount, added left to right.
    pub xs: Vec<Operand>,
    /// Half-response constant.
    pub k: Operand,
    /// Hill coefficient.
    pub n: Operand,
    /// `k^n` when `k` and `n` are literals.
    kn: Option<f64>,
    /// Memo slot of a literal-coefficient call, numbered by the bank
    /// that holds the law (0 outside a bank).
    slot: u32,
}

impl HillCall {
    /// The regulator amount, before the clamp.
    #[inline]
    fn regulator<L: Lane>(&self, values: &[L]) -> L {
        let mut x = self.xs[0].load(values);
        for operand in &self.xs[1..] {
            x += operand.load(values);
        }
        x
    }

    /// Every operand the call reads.
    fn operands(&self) -> impl Iterator<Item = &Operand> {
        self.xs.iter().chain([&self.k, &self.n])
    }

    /// The exact operation sequence of [`Func::apply`] on `[x, k, n]`,
    /// with `k^n` read from the hoisted value when there is one. Those
    /// calls consult `memo` first: replaying a response stored for the
    /// same clamped regulator bits is bitwise identical to recomputing
    /// it (see [`EvalMemo`]). Over [`Lanes`](super::Lanes) a memo pair
    /// hits only when every lane's regulator bits repeat.
    #[inline]
    fn eval<L: Lane, M: HillMemo<L> + ?Sized>(&self, values: &[L], memo: &mut M) -> L {
        let x = self.regulator(values);
        let Some(kn) = self.kn else {
            let func = if self.activation {
                Func::HillActivation
            } else {
                Func::HillRepression
            };
            return L::apply(func, &[x, self.k.load(values), self.n.load(values)]);
        };
        let x = x.max(L::splat(0.0));
        let (slot, x_bits) = (self.slot as usize, x.to_bits());
        if let Some(response) = memo.lookup(slot, x_bits) {
            return response;
        }
        let response = L::hill(x, self.n.load(values), kn, self.activation);
        memo.store(slot, x_bits, response);
        response
    }
}

/// A clamp call `max(x, 0)` or `max(x - shift, 0)` over operand
/// leaves — the cooperative-binding gate of the book models'
/// mass-action laws (`R * max(R - 1, 0) * max(R - 2, 0)`).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxZeroCall {
    /// The clamped quantity.
    pub x: Operand,
    /// Optional subtrahend: when present the call is
    /// `max(x - shift, 0)`.
    pub shift: Option<Operand>,
}

impl MaxZeroCall {
    #[inline]
    fn eval<L: Lane>(&self, values: &[L]) -> L {
        let x = self.x.load(values);
        let arg = match self.shift {
            // The operations the VM's `Sub` and `max` dispatch to, so
            // results are bitwise identical between the two paths.
            Some(shift) => x - shift.load(values),
            None => x,
        };
        arg.max(L::splat(0.0))
    }
}

/// One multiplicand of a product term.
#[derive(Debug, Clone, PartialEq)]
pub enum Factor {
    /// A literal or slot load.
    Op(Operand),
    /// A Hill response call.
    Hill(HillCall),
    /// A `max(…, 0)` clamp call.
    MaxZero(MaxZeroCall),
}

impl Factor {
    // Always inlined, like `Term::eval`.
    #[inline(always)]
    fn eval<L: Lane, M: HillMemo<L> + ?Sized>(&self, values: &[L], memo: &mut M) -> L {
        match self {
            Factor::Op(operand) => operand.load(values),
            Factor::Hill(hill) => hill.eval(values, memo),
            Factor::MaxZero(clamp) => clamp.eval(values),
        }
    }
}

/// A product of factors, multiplied left to right (the association the
/// parser gives `a * b * c`).
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Factors in evaluation order; never empty.
    pub factors: Vec<Factor>,
}

impl Term {
    // Inlined into every form's arm: as a call, the per-factor
    // dispatch cost the memoized sweep its lead on the book circuits.
    #[inline(always)]
    fn eval<L: Lane, M: HillMemo<L> + ?Sized>(&self, values: &[L], memo: &mut M) -> L {
        let mut product = self.factors[0].eval(values, memo);
        for factor in &self.factors[1..] {
            product *= factor.eval(values, memo);
        }
        product
    }
}

/// The shape class of a compiled kinetic law, decided once at compile
/// time so the hot loop can skip VM dispatch for the common shapes.
///
/// `Linear` covers the two-operand mass-action law `k * A`; `Hill`
/// covers the gate response; `SumOfProducts` covers tandem-promoter
/// sums of responses, longer mass-action chains (`k * A * B` multiplies
/// left to right like the VM) and lone operands (a one-factor term);
/// `TermDiv` covers the book models' cooperative binding; `General` is
/// the postfix VM fallback for everything else.
#[derive(Debug, Clone, PartialEq)]
pub enum KineticForm {
    /// `a * b`.
    Linear(Operand, Operand),
    /// `base + span * hill(x…, k, n)` — the Cello gate response law.
    Hill {
        /// The leak term (`ymin`).
        base: Operand,
        /// The dynamic range (`ymax - ymin`, pre-folded by the law
        /// printer).
        span: Operand,
        /// The response call.
        hill: HillCall,
    },
    /// A left-associated sum of product terms.
    SumOfProducts(Vec<Term>),
    /// A product term divided by an operand: `f0 * f1 * … / d`.
    ///
    /// Covers the book models' cooperative-binding laws
    /// (`kon * P * R * max(R-1, 0) * max(R-2, 0) / 6`), which would
    /// otherwise run the postfix VM on every propensity update.
    TermDiv {
        /// The numerator product.
        term: Term,
        /// The divisor operand.
        divisor: Operand,
    },
    /// No special shape: evaluate through the postfix VM.
    General,
}

impl KineticForm {
    /// Classifies `expr` against `table`. Only called after successful
    /// compilation, so every identifier is known to resolve.
    fn classify(expr: &Expr, table: &SymbolTable) -> KineticForm {
        // Lone operands: a one-factor term, which returns the operand.
        if let Some(operand) = operand_of(expr, table) {
            return KineticForm::SumOfProducts(vec![Term {
                factors: vec![Factor::Op(operand)],
            }]);
        }

        // Left-associated products: `a * b` is Linear, every other
        // product multiplies left to right on the sum-of-products walk.
        if let Some(term) = term_of(expr, table) {
            if let [Factor::Op(a), Factor::Op(b)] = term.factors.as_slice() {
                return KineticForm::Linear(*a, *b);
            }
            return KineticForm::SumOfProducts(vec![term]);
        }

        // The gate response law: base + span * hill(...).
        if let Expr::Bin(BinOp::Add, lhs, rhs) = expr {
            if let (Some(base), Expr::Bin(BinOp::Mul, span_expr, hill_expr)) =
                (operand_of(lhs, table), rhs.as_ref())
            {
                if let (Some(span), Some(hill)) =
                    (operand_of(span_expr, table), hill_call_of(hill_expr, table))
                {
                    return KineticForm::Hill { base, span, hill };
                }
            }
        }

        // General left-associated sums of product terms.
        if let Some(terms) = sum_of_terms(expr, table) {
            return KineticForm::SumOfProducts(terms);
        }

        // A product (or lone factor) with a trailing division.
        if let Expr::Bin(BinOp::Div, lhs, rhs) = expr {
            if let (Some(term), Some(divisor)) =
                (term_or_factor_of(lhs, table), operand_of(rhs, table))
            {
                return KineticForm::TermDiv { term, divisor };
            }
        }

        KineticForm::General
    }

    /// Every Hill call of the form, in evaluation order.
    fn hill_calls_mut(&mut self) -> impl Iterator<Item = &mut HillCall> {
        let (lone, terms): (Option<&mut HillCall>, &mut [Term]) = match self {
            KineticForm::Hill { hill, .. } => (Some(hill), &mut []),
            KineticForm::SumOfProducts(terms) => (None, terms),
            KineticForm::TermDiv { term, .. } => (None, std::slice::from_mut(term)),
            KineticForm::Linear(..) | KineticForm::General => (None, &mut []),
        };
        let factors = terms.iter_mut().flat_map(|term| &mut term.factors);
        lone.into_iter()
            .chain(factors.filter_map(|factor| match factor {
                Factor::Hill(hill) => Some(hill),
                _ => None,
            }))
    }
}

/// `expr` as a single operand, if it is a literal or identifier.
fn operand_of(expr: &Expr, table: &SymbolTable) -> Option<Operand> {
    match expr {
        Expr::Num(value) => Some(Operand::Num(*value)),
        Expr::Var(name) => table.slot(name).map(Operand::Slot),
        _ => None,
    }
}

/// `expr` as a `hillr`/`hilla` call whose regulator argument is a
/// left-associated sum of operands and whose `k`/`n` are operands.
fn hill_call_of(expr: &Expr, table: &SymbolTable) -> Option<HillCall> {
    let Expr::Call(func, args) = expr else {
        return None;
    };
    let activation = match func {
        Func::HillRepression => false,
        Func::HillActivation => true,
        _ => return None,
    };
    let [x, k, n] = args.as_slice() else {
        return None;
    };
    let xs = operand_sum_of(x, table)?;
    let (k, n) = (operand_of(k, table)?, operand_of(n, table)?);
    let kn = match (k, n) {
        (Operand::Num(k), Operand::Num(n)) => Some(crate::fastmath::pow(k, n)),
        _ => None,
    };
    Some(HillCall {
        activation,
        xs,
        k,
        n,
        kn,
        slot: 0,
    })
}

/// Flattens a left-associated `+` spine of operands: `a + b + c`.
fn operand_sum_of(expr: &Expr, table: &SymbolTable) -> Option<Vec<Operand>> {
    match expr {
        Expr::Bin(BinOp::Add, lhs, rhs) => {
            let mut xs = operand_sum_of(lhs, table)?;
            xs.push(operand_of(rhs, table)?);
            Some(xs)
        }
        _ => Some(vec![operand_of(expr, table)?]),
    }
}

/// `expr` as one product term: a left-associated `*` spine whose leaves
/// are operands or Hill calls. Must contain at least one `*` (lone
/// operands are classified separately).
fn term_of(expr: &Expr, table: &SymbolTable) -> Option<Term> {
    fn factors_of(expr: &Expr, table: &SymbolTable, out: &mut Vec<Factor>) -> Option<()> {
        if let Expr::Bin(BinOp::Mul, lhs, rhs) = expr {
            factors_of(lhs, table, out)?;
            out.push(factor_of(rhs, table)?);
            Some(())
        } else {
            out.push(factor_of(expr, table)?);
            Some(())
        }
    }
    if !matches!(expr, Expr::Bin(BinOp::Mul, _, _)) {
        return None;
    }
    let mut factors = Vec::new();
    factors_of(expr, table, &mut factors)?;
    Some(Term { factors })
}

fn factor_of(expr: &Expr, table: &SymbolTable) -> Option<Factor> {
    if let Some(operand) = operand_of(expr, table) {
        return Some(Factor::Op(operand));
    }
    if let Some(hill) = hill_call_of(expr, table) {
        return Some(Factor::Hill(hill));
    }
    max_zero_call_of(expr, table).map(Factor::MaxZero)
}

/// `expr` as `max(x, 0)` or `max(x - shift, 0)` with operand leaves.
/// The zero must be the literal `0` (not `-0.0`), so the clamp can be
/// replayed with a fixed positive zero bit pattern.
fn max_zero_call_of(expr: &Expr, table: &SymbolTable) -> Option<MaxZeroCall> {
    let Expr::Call(Func::Max, args) = expr else {
        return None;
    };
    let [arg, zero] = args.as_slice() else {
        return None;
    };
    if !matches!(zero, Expr::Num(z) if z.to_bits() == 0.0f64.to_bits()) {
        return None;
    }
    match arg {
        Expr::Bin(BinOp::Sub, lhs, rhs) => Some(MaxZeroCall {
            x: operand_of(lhs, table)?,
            shift: Some(operand_of(rhs, table)?),
        }),
        _ => Some(MaxZeroCall {
            x: operand_of(arg, table)?,
            shift: None,
        }),
    }
}

/// `expr` as a product term, accepting a lone factor as a one-factor
/// term (used by sum terms and by the `TermDiv` numerator, where `X / 2`
/// is as valid as `k * X / 2`).
fn term_or_factor_of(expr: &Expr, table: &SymbolTable) -> Option<Term> {
    if let Some(term) = term_of(expr, table) {
        return Some(term);
    }
    factor_of(expr, table).map(|factor| Term {
        factors: vec![factor],
    })
}

/// Flattens a left-associated `+` spine into product terms (single
/// factors allowed per term). Requires at least one `+`.
fn sum_of_terms(expr: &Expr, table: &SymbolTable) -> Option<Vec<Term>> {
    fn terms_of(expr: &Expr, table: &SymbolTable, out: &mut Vec<Term>) -> Option<()> {
        if let Expr::Bin(BinOp::Add, lhs, rhs) = expr {
            terms_of(lhs, table, out)?;
            out.push(term_or_factor_of(rhs, table)?);
            Some(())
        } else {
            out.push(term_or_factor_of(expr, table)?);
            Some(())
        }
    }
    if !matches!(expr, Expr::Bin(BinOp::Add, _, _)) {
        return None;
    }
    let mut terms = Vec::new();
    terms_of(expr, table, &mut terms)?;
    Some(terms)
}

/// One 8-lane batch of the Hill response chain, the vector core of
/// [`KineticFormBank::warm_hills`]: `exp(n * ln x)` with an `x == 0`
/// select replacing [`crate::fastmath::pow`]'s early return, then one
/// division with the numerator chosen by the lane kind. Per lane this
/// is exactly the operation sequence of [`Lane::hill`], the
/// evaluator's miss path, so the results are bitwise identical to it;
/// the compile-time trip count is what lets the whole chain vectorize.
#[inline]
fn hill_kernel8(
    xs: &[f64; 8],
    ns: &[f64; 8],
    kns: &[f64; 8],
    acts: &[bool; 8],
    resp: &mut [f64; 8],
) {
    for i in 0..8 {
        let x = xs[i];
        let raw = crate::fastmath::exp(ns[i] * crate::fastmath::ln(x));
        let xn = if x == 0.0 { 0.0 } else { raw };
        let kn = kns[i];
        let numer = if acts[i] { xn } else { kn };
        resp[i] = numer / (kn + xn);
    }
}

/// Read/write access to a Hill response memo, passed down the one
/// evaluator ([`CompiledExpr::eval_memo`]): [`NoMemo`] for
/// [`CompiledExpr::eval_fast`], the `(x_bits, response)` pair slice for
/// [`KineticFormBank::eval_all`], and the whole [`EvalMemo`] (table
/// first, pair second) for [`KineticFormBank::eval_one`].
trait HillMemo<L: Lane> {
    /// The memoized response for `slot` if it was computed for exactly
    /// these regulator bits.
    fn lookup(&mut self, slot: usize, x_bits: L::Bits) -> Option<L>;
    /// Records the response computed for `slot` at these regulator bits.
    fn store(&mut self, slot: usize, x_bits: L::Bits, response: L);
}

/// The memo of a law evaluated outside a bank: every lookup misses.
struct NoMemo;

impl<L: Lane> HillMemo<L> for NoMemo {
    #[inline]
    fn lookup(&mut self, _: usize, _: L::Bits) -> Option<L> {
        None
    }
    #[inline]
    fn store(&mut self, _: usize, _: L::Bits, _: L) {}
}

impl<L: Lane> HillMemo<L> for [(L::Bits, L)] {
    #[inline]
    fn lookup(&mut self, slot: usize, x_bits: L::Bits) -> Option<L> {
        let (bits, response) = self[slot];
        (bits == x_bits).then_some(response)
    }
    #[inline]
    fn store(&mut self, slot: usize, x_bits: L::Bits, response: L) {
        self[slot] = (x_bits, response);
    }
}

impl HillMemo<f64> for EvalMemo {
    #[inline]
    fn lookup(&mut self, slot: usize, x_bits: u64) -> Option<f64> {
        match table_index(slot, x_bits) {
            Some(at) => {
                let response = self.table[at];
                (response.to_bits() != EMPTY_BITS).then_some(response)
            }
            None => self.hill.lookup(slot, x_bits),
        }
    }
    #[inline]
    fn store(&mut self, slot: usize, x_bits: u64, response: f64) {
        match table_index(slot, x_bits) {
            Some(at) => self.table[at] = response,
            None => self.hill.store(slot, x_bits, response),
        }
    }
}

/// Entries in every dense copy-number table: one per copy number
/// `0..COPY_TABLE_LEN`. Shared by [`EvalMemo`]'s Hill response tables
/// and the exact engines' per-law propensity tables in `glc_ssa`.
/// Gate circuits' copy numbers stay well inside it (cello repressors
/// peak near 220, inputs sit at 0 or 15).
pub const COPY_TABLE_LEN: usize = 1024;

/// `x` as a copy-number table index: `Some(i)` when `x` is exactly the
/// integer `i < COPY_TABLE_LEN`, `None` for anything else (fractions,
/// `-0.0`, NaN, counts of [`COPY_TABLE_LEN`] or more).
#[inline]
pub fn copy_number(x: f64) -> Option<usize> {
    let i = x as usize;
    (i < COPY_TABLE_LEN && (i as f64).to_bits() == x.to_bits()).then_some(i)
}

/// The all-ones NaN: the key of an empty pair and the value of an empty
/// table entry. A clamped regulator is never NaN; a response that
/// carries this pattern just reads back as a miss and is recomputed.
const EMPTY_BITS: u64 = u64::MAX;

/// Position of regulator `x_bits` in memo slot `slot`'s table, or
/// `None` when it is not a copy number the table covers.
#[inline]
fn table_index(slot: usize, x_bits: u64) -> Option<usize> {
    copy_number(f64::from_bits(x_bits)).map(|i| slot * COPY_TABLE_LEN + i)
}

/// Caller-owned memo for a bank's literal-coefficient Hill calls.
///
/// `pow` dominates every Hill evaluation, and the response of a Hill
/// call with literal `k` and `n` is a pure function of its clamped
/// regulator (summed first, for a multi-regulator call). Each such call
/// owns one memo slot, and each slot gets two memos:
///
/// - a dense table of [`COPY_TABLE_LEN`] responses indexed by integral
///   copy number, read by [`KineticFormBank::eval_one`]. The exact
///   engines re-evaluate a dependent exactly when its regulator has
///   just changed, so a "last value" memo misses there; but gate
///   circuits' copy numbers stay in a small integer range (cello
///   repressors peak near 220), so the table hits on almost every
///   update once warm.
/// - one `(x.to_bits(), response)` pair, read by full sweeps
///   ([`KineticFormBank::eval_all`]) and by `eval_one` for regulators
///   the table does not cover. Sweeps keep the pair alone: clamped
///   inputs hit it on every step, and a prototype that also read the
///   table in sweeps slowed Langevin down.
///
/// # Bitwise contract
///
/// A hit replays a value previously produced by the exact canonical
/// operation sequence for bit-identical inputs — `pow` and the
/// follow-on divides are pure functions of their operand bits — so
/// memoized evaluation stays bitwise identical to the postfix VM.
/// The key is taken *after* the `x.max(0.0)` clamp, which can never
/// yield a NaN, so the all-ones NaN bit pattern is a safe "empty"
/// sentinel for the pairs. The table marks an empty entry with the same
/// pattern.
///
/// Over [`Lanes`](super::Lanes) (`L`) a memo keeps the pairs alone,
/// keyed by every lane's bits: lane sweeps are all it serves, and a
/// pair hits when the whole lane vector repeats — on Langevin states,
/// the calls regulated by clamped inputs.
///
/// The memo lives with the *caller* (engines keep one per propensity
/// scratch), never inside the bank: [`KineticFormBank`] stays immutable
/// and shareable across threads, e.g. behind the `Arc` of a compiled
/// model cache. Each memo is stamped with the identity of the bank it
/// was filled against and resets itself — pairs and table — when handed
/// to a different bank, so one scratch can serve models of any shape
/// over its lifetime. The table costs 8 KiB per slot (80 KiB for
/// the largest catalog circuit), allocated and filled once per binding.
#[derive(Debug, Clone)]
pub struct EvalMemo<L: Lane = f64> {
    /// Identity stamp of the bank the slots belong to.
    bank_id: u64,
    /// Per-slot `(x_bits, response)` pairs.
    hill: Vec<(L::Bits, L)>,
    /// Per-slot response tables, [`COPY_TABLE_LEN`] entries each; slot
    /// `s` owns `table[s * COPY_TABLE_LEN..][..COPY_TABLE_LEN]`. Empty
    /// for lane memos.
    table: Vec<f64>,
}

impl<L: Lane> Default for EvalMemo<L> {
    fn default() -> Self {
        EvalMemo {
            bank_id: 0,
            hill: Vec::new(),
            table: Vec::new(),
        }
    }
}

impl<L: Lane> EvalMemo<L> {
    /// An empty memo; sized (and re-sized) by the first evaluation
    /// against each bank it is used with.
    pub fn new() -> Self {
        EvalMemo::default()
    }

    /// Binds the memo to `bank_id` with `slots` Hill calls, clearing
    /// every pair and table entry unless already bound to that exact
    /// bank.
    #[inline]
    fn ensure(&mut self, bank_id: u64, slots: usize) {
        if self.bank_id == bank_id && self.hill.len() == slots {
            return;
        }
        self.bank_id = bank_id;
        self.hill.clear();
        self.hill
            .resize(slots, (L::bits_splat(EMPTY_BITS), L::splat(0.0)));
        self.table.clear();
        let entries = if L::WIDTH == 1 {
            slots * COPY_TABLE_LEN
        } else {
            0
        };
        self.table.resize(entries, f64::from_bits(EMPTY_BITS));
    }
}

/// The compiled kinetic laws of one model, with every
/// literal-coefficient Hill call numbered by [`EvalMemo`] slot.
///
/// Each law evaluates in its own [`KineticForm`] through the one
/// evaluator behind [`CompiledExpr::eval_fast`] (`General` laws on the
/// postfix VM); the bank adds the caller's Hill memo.
/// [`KineticFormBank::eval_one`] reads the memo's copy-number table,
/// then its pair; [`KineticFormBank::eval_all`] reads the pair alone,
/// after a batched pre-pass that computes the sweep's missed responses
/// eight at a time.
///
/// # Bitwise contract
///
/// Every path performs the floating-point operation sequence of the
/// postfix VM ([`CompiledExpr::eval_with`]) on the same operand values,
/// so bank results are **bitwise identical** to it — the property the
/// shared `PropensitySet` in `glc_ssa` (and its trajectory-determinism
/// guarantees) relies on.
#[derive(Debug, Clone, Default)]
pub struct KineticFormBank {
    /// The laws, in their original order.
    laws: Vec<CompiledExpr>,
    /// Copies of the laws' literal-coefficient Hill calls, in slot order.
    hills: Vec<HillCall>,
    /// Unique identity stamped into memos for invalidation.
    bank_id: u64,
}

impl KineticFormBank {
    /// Builds a bank over `laws`, numbering their memoizable Hill calls
    /// in law order. Panics past `u32::MAX` such calls.
    pub fn new(mut laws: Vec<CompiledExpr>) -> Self {
        let mut hills = Vec::new();
        for law in &mut laws {
            for hill in law.form.hill_calls_mut() {
                if hill.kn.is_some() {
                    hill.slot = u32::try_from(hills.len()).expect("memo slots fit u32");
                    hills.push(hill.clone());
                }
            }
        }
        KineticFormBank {
            laws,
            hills,
            bank_id: NEXT_BANK_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of laws in the bank.
    pub fn len(&self) -> usize {
        self.laws.len()
    }

    /// Whether the bank holds no laws.
    pub fn is_empty(&self) -> bool {
        self.laws.is_empty()
    }

    /// The laws, in their original order.
    pub fn laws(&self) -> &[CompiledExpr] {
        &self.laws
    }

    /// Evaluates every law against `values`, writing law `i`'s result
    /// to `out[i]`; `stack` is the operand stack for `General` laws,
    /// and `memo` carries the caller's Hill response memo (rebound to
    /// this bank on first use). Over [`Lanes`](super::Lanes), lane `i`
    /// of every result is bitwise the `f64` sweep of lane `i`'s values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()` or `values` is shorter than
    /// the highest referenced slot.
    pub fn eval_all<L: Lane>(
        &self,
        values: &[L],
        out: &mut [L],
        stack: &mut Vec<L>,
        memo: &mut EvalMemo<L>,
    ) {
        assert_eq!(out.len(), self.laws.len(), "output length mismatch");
        memo.ensure(self.bank_id, self.hills.len());
        let pairs = memo.hill.as_mut_slice();
        // Two batches hold every gate-compiled circuit's misses at
        // K = 1. Lanes get four: at K = 8 that is four calls, and the
        // rest take the miss path, already eight lanes wide; more
        // batches only cost zeroing (measured on cello_0x1C).
        if L::WIDTH == 1 {
            self.warm_hills::<L, 2>(values, pairs);
        } else {
            self.warm_hills::<L, 4>(values, pairs);
        }
        for (out, law) in out.iter_mut().zip(&self.laws) {
            *out = law.eval_memo(values, stack, pairs);
        }
    }

    /// Miss-driven vector pre-pass over the memoizable Hill calls:
    /// gathers the lanes of the calls whose clamped regulator misses
    /// `memo` into `B` batches of eight, evaluates them through
    /// [`hill_kernel8`] and seeds `memo`, so the law loop that follows
    /// hits instead of paying a `pow` per miss. Full-sweep engines
    /// (tau-leap, Langevin) miss on every varying regulator every step.
    /// Pad lanes run the kernel on zeros (finite everywhere) and are
    /// never stored back; misses past the scratch capacity stay on the
    /// evaluator's own miss path ([`Lane::hill`]).
    fn warm_hills<L: Lane, const B: usize>(&self, values: &[L], memo: &mut [(L::Bits, L)]) {
        const CALLS: usize = 16;
        if self.hills.is_empty() {
            return;
        }
        let calls = (B * 8 / L::WIDTH).min(CALLS);
        let mut xs = [[0.0f64; 8]; B];
        let mut ns = [[0.0f64; 8]; B];
        let mut kns = [[0.0f64; 8]; B];
        let mut acts = [[false; 8]; B];
        let mut missed = [(0usize, L::bits_splat(0)); CALLS];
        let mut at = 0;
        for (slot, hill) in self.hills.iter().enumerate() {
            let kn = hill.kn.expect("only literal-coefficient calls get slots");
            if at == calls {
                break;
            }
            let x = hill.regulator(values).max(L::splat(0.0));
            let x_bits = x.to_bits();
            if memo.lookup(slot, x_bits).is_some() {
                continue;
            }
            let n = hill.n.load(values);
            for lane in 0..L::WIDTH {
                let e = at * L::WIDTH + lane;
                xs[e / 8][e % 8] = x.lane(lane);
                ns[e / 8][e % 8] = n.lane(lane);
                kns[e / 8][e % 8] = kn;
                acts[e / 8][e % 8] = hill.activation;
            }
            missed[at] = (slot, x_bits);
            at += 1;
        }
        if at == 0 {
            return;
        }
        let mut resp = [[0.0f64; 8]; B];
        for b in 0..(at * L::WIDTH).div_ceil(8) {
            hill_kernel8(&xs[b], &ns[b], &kns[b], &acts[b], &mut resp[b]);
        }
        for (call, &(slot, x_bits)) in missed[..at].iter().enumerate() {
            let mut response = L::splat(0.0);
            for (lane, to) in response.lanes_mut().iter_mut().enumerate() {
                let e = call * L::WIDTH + lane;
                *to = resp[e / 8][e % 8];
            }
            memo.store(slot, x_bits, response);
        }
    }

    /// Evaluates the single law at original position `index`.
    /// Literal-coefficient Hill responses read `memo`'s copy-number
    /// table first, then its one-entry pair (see [`EvalMemo`]); `memo`
    /// is rebound to this bank on first use.
    ///
    /// Bitwise identical to the postfix VM on the law, and to what
    /// [`KineticFormBank::eval_all`] writes at `out[index]` —
    /// incremental (per-dependent) and full-sweep updates can therefore
    /// be mixed freely, on one memo or several.
    #[inline]
    pub fn eval_one(
        &self,
        index: usize,
        values: &[f64],
        stack: &mut Vec<f64>,
        memo: &mut EvalMemo,
    ) -> f64 {
        memo.ensure(self.bank_id, self.hills.len());
        self.laws[index].eval_memo(values, stack, memo)
    }

    /// Evaluates part `part` of the law at original position `index`
    /// (see [`CompiledExpr::part_count`]), reading `memo` as
    /// [`KineticFormBank::eval_one`] does. Adding a law's parts left to
    /// right, each from this method or a stored earlier result for the
    /// same operands, replays `eval_one`'s bits.
    #[inline]
    pub fn eval_part(
        &self,
        index: usize,
        part: usize,
        values: &[f64],
        stack: &mut Vec<f64>,
        memo: &mut EvalMemo,
    ) -> f64 {
        memo.ensure(self.bank_id, self.hills.len());
        self.laws[index].eval_part(part, values, stack, memo)
    }

    /// How many laws classified as each [`KineticForm`].
    pub fn occupancy(&self) -> LaneOccupancy {
        let mut census = LaneOccupancy::default();
        for law in &self.laws {
            *match law.form {
                KineticForm::Linear(..) => &mut census.linear,
                KineticForm::Hill { .. } => &mut census.hill,
                KineticForm::SumOfProducts(_) => &mut census.sop,
                KineticForm::TermDiv { .. } => &mut census.term_div,
                KineticForm::General => &mut census.fallback,
            } += 1;
        }
        census
    }
}

/// A bank's form census: one count per [`KineticForm`] variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// [`KineticForm::Linear`] laws.
    pub linear: usize,
    /// [`KineticForm::Hill`] laws.
    pub hill: usize,
    /// [`KineticForm::SumOfProducts`] laws.
    pub sop: usize,
    /// [`KineticForm::TermDiv`] laws.
    pub term_div: usize,
    /// [`KineticForm::General`] laws, which run on the postfix VM.
    pub fallback: usize,
}

/// An expression compiled against a [`SymbolTable`].
///
/// # Example
///
/// ```
/// use glc_model::Expr;
/// use glc_model::expr::SymbolTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let expr: Expr = "k * S".parse()?;
/// let mut table = SymbolTable::new();
/// table.intern("S"); // slot 0
/// table.intern("k"); // slot 1
/// let compiled = expr.compile(&table)?;
/// assert_eq!(compiled.eval(&[10.0, 0.5]), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    prog: Vec<Instr>,
    max_depth: usize,
    slots: Vec<usize>,
    form: KineticForm,
}

impl Expr {
    /// Compiles the expression, resolving every identifier through `table`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnknownIdentifier`] for identifiers missing
    /// from the table, and [`EvalError::Arity`] for hand-built `Call`
    /// nodes with a wrong argument count.
    pub fn compile(&self, table: &SymbolTable) -> Result<CompiledExpr, EvalError> {
        let mut prog = Vec::with_capacity(self.node_count());
        emit(self, table, &mut prog)?;
        let max_depth = stack_depth(&prog);
        let slots = prog
            .iter()
            .filter_map(|instr| match instr {
                Instr::PushSlot(slot) => Some(*slot),
                _ => None,
            })
            .collect();
        let form = KineticForm::classify(self, table);
        Ok(CompiledExpr {
            prog,
            max_depth,
            slots,
            form,
        })
    }
}

fn emit(expr: &Expr, table: &SymbolTable, prog: &mut Vec<Instr>) -> Result<(), EvalError> {
    match expr {
        Expr::Num(value) => prog.push(Instr::PushNum(*value)),
        Expr::Var(name) => {
            let slot = table
                .slot(name)
                .ok_or_else(|| EvalError::UnknownIdentifier(name.clone()))?;
            prog.push(Instr::PushSlot(slot));
        }
        Expr::Neg(inner) => {
            emit(inner, table, prog)?;
            prog.push(Instr::Neg);
        }
        Expr::Bin(op, lhs, rhs) => {
            emit(lhs, table, prog)?;
            emit(rhs, table, prog)?;
            prog.push(Instr::Bin(*op));
        }
        Expr::Call(func, args) => {
            if args.len() != func.arity() {
                return Err(EvalError::Arity {
                    function: func.name().to_string(),
                    expected: func.arity(),
                    actual: args.len(),
                });
            }
            for arg in args {
                emit(arg, table, prog)?;
            }
            prog.push(Instr::Call(*func));
        }
    }
    Ok(())
}

fn stack_depth(prog: &[Instr]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for instr in prog {
        match instr {
            Instr::PushNum(_) | Instr::PushSlot(_) => {
                depth += 1;
                max = max.max(depth);
            }
            Instr::Neg => {}
            Instr::Bin(_) => depth -= 1,
            Instr::Call(func) => depth -= func.arity() - 1,
        }
    }
    max
}

impl CompiledExpr {
    /// Evaluates against `values`, where `values[slot]` holds the value of
    /// the identifier interned at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the highest slot referenced by
    /// the expression.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut stack = Vec::with_capacity(self.max_depth);
        self.eval_with(values, &mut stack)
    }

    /// Evaluates like [`CompiledExpr::eval`] but reuses a caller-provided
    /// stack, avoiding the per-call allocation. The stack is cleared on
    /// entry. Over [`Lanes`](super::Lanes) every instruction acts lane
    /// by lane.
    pub fn eval_with<L: Lane>(&self, values: &[L], stack: &mut Vec<L>) -> L {
        stack.clear();
        for instr in &self.prog {
            match instr {
                Instr::PushNum(value) => stack.push(L::splat(*value)),
                Instr::PushSlot(slot) => stack.push(values[*slot]),
                Instr::Neg => {
                    let top = stack.last_mut().expect("stack underflow: Neg");
                    *top = -*top;
                }
                Instr::Bin(op) => {
                    let rhs = stack.pop().expect("stack underflow: Bin rhs");
                    let lhs = stack.last_mut().expect("stack underflow: Bin lhs");
                    *lhs = L::bin(*op, *lhs, rhs);
                }
                Instr::Call(func) => {
                    let arity = func.arity();
                    let base = stack.len() - arity;
                    let result = L::apply(*func, &stack[base..]);
                    stack.truncate(base);
                    stack.push(result);
                }
            }
        }
        stack.pop().expect("compiled expression left empty stack")
    }

    /// Evaluates through the kinetics fast path when the expression
    /// classified as one of the common shapes, falling back to the VM
    /// (via `stack`) otherwise.
    ///
    /// Bitwise identical to [`CompiledExpr::eval_with`] for every
    /// expression: the fast paths replay the exact operation order of
    /// the postfix program.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the highest referenced slot.
    #[inline]
    pub fn eval_fast<L: Lane>(&self, values: &[L], stack: &mut Vec<L>) -> L {
        self.eval_memo(values, stack, &mut NoMemo)
    }

    /// The one kinetic evaluator: the law's [`KineticForm`], with its
    /// literal-coefficient Hill responses read from and written to
    /// `memo`, or the postfix VM (via `stack`) for `General` laws. It
    /// is the in-order sum of the law's parts (see
    /// [`CompiledExpr::part_count`]): a `Hill` law's `base` plus
    /// `span * hill`, a `SumOfProducts`'s first term then `+=` each
    /// next one, and the whole law for every other form.
    #[inline]
    fn eval_memo<L: Lane, M: HillMemo<L> + ?Sized>(
        &self,
        values: &[L],
        stack: &mut Vec<L>,
        memo: &mut M,
    ) -> L {
        match &self.form {
            KineticForm::Linear(a, b) => a.load(values) * b.load(values),
            KineticForm::Hill { base, span, hill } => {
                base.load(values) + span.load(values) * hill.eval(values, memo)
            }
            KineticForm::SumOfProducts(terms) => {
                let mut total = terms[0].eval(values, memo);
                for term in &terms[1..] {
                    total += term.eval(values, memo);
                }
                total
            }
            KineticForm::TermDiv { term, divisor } => {
                term.eval(values, memo) / divisor.load(values)
            }
            KineticForm::General => self.eval_with(values, stack),
        }
    }

    /// Part `part` of the law (see [`CompiledExpr::part_count`]): the
    /// summand [`CompiledExpr::eval_memo`] adds at that position.
    #[inline]
    fn eval_part<M: HillMemo<f64> + ?Sized>(
        &self,
        part: usize,
        values: &[f64],
        stack: &mut Vec<f64>,
        memo: &mut M,
    ) -> f64 {
        match &self.form {
            KineticForm::Hill { base, .. } if part == 0 => base.load(values),
            KineticForm::Hill { span, hill, .. } => span.load(values) * hill.eval(values, memo),
            KineticForm::SumOfProducts(terms) => terms[part].eval(values, memo),
            // One part: the whole law.
            _ => self.eval_memo(values, stack, memo),
        }
    }

    /// How many parts the evaluator sums, in order, to produce the law:
    /// 2 for a `Hill` law (`base`, then `span * hill`), one per term for
    /// a `SumOfProducts`, and 1 — the whole law — for every other form.
    /// Adding the parts' values left to right replays the law's bits.
    #[inline]
    pub fn part_count(&self) -> usize {
        match &self.form {
            KineticForm::Hill { .. } => 2,
            KineticForm::SumOfProducts(terms) => terms.len(),
            _ => 1,
        }
    }

    /// The slots part `part` reads (duplicates possible), in no
    /// particular order.
    ///
    /// # Panics
    ///
    /// Panics if `part >= self.part_count()`.
    pub fn part_slots(&self, part: usize) -> Vec<usize> {
        assert!(part < self.part_count(), "part {part} out of range");
        let mut slots = Vec::new();
        let mut operand = |operand: &Operand| {
            if let Operand::Slot(slot) = *operand {
                slots.push(slot);
            }
        };
        match &self.form {
            KineticForm::Hill { base, .. } if part == 0 => operand(base),
            KineticForm::Hill { span, hill, .. } => {
                operand(span);
                hill.operands().for_each(&mut operand);
            }
            KineticForm::SumOfProducts(terms) => {
                for factor in &terms[part].factors {
                    match factor {
                        Factor::Op(leaf) => operand(leaf),
                        Factor::Hill(hill) => hill.operands().for_each(&mut operand),
                        Factor::MaxZero(clamp) => {
                            operand(&clamp.x);
                            clamp.shift.iter().for_each(&mut operand);
                        }
                    }
                }
            }
            _ => return self.slots.clone(),
        }
        slots
    }

    /// The shape class the expression compiled to.
    pub fn kinetic_form(&self) -> &KineticForm {
        &self.form
    }

    /// Slots (deduplicated not guaranteed) of every variable reference in
    /// the program, in evaluation order. The simulator uses this to build
    /// reaction dependency graphs.
    pub fn referenced_slots(&self) -> &[usize] {
        &self.slots
    }

    /// Maximum operand-stack depth needed during evaluation.
    pub fn max_stack_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(names: &[&str]) -> SymbolTable {
        let mut table = SymbolTable::new();
        for name in names {
            table.intern(name);
        }
        table
    }

    #[test]
    fn symbol_table_interning_is_idempotent() {
        let mut table = SymbolTable::new();
        assert_eq!(table.intern("a"), 0);
        assert_eq!(table.intern("b"), 1);
        assert_eq!(table.intern("a"), 0);
        assert_eq!(table.len(), 2);
        assert_eq!(table.name(1), Some("b"));
        assert_eq!(table.slot("b"), Some(1));
        assert_eq!(table.slot("c"), None);
        assert!(!table.is_empty());
    }

    #[test]
    fn compiled_matches_tree_walk() {
        let sources = [
            "a + b * c",
            "-a ^ 2 + b / (c - 1)",
            "hillr(a + b, 20, 2) * 15 + 0.5",
            "max(a, min(b, c)) - exp(-a)",
            "2 ^ 3 ^ 2",
        ];
        let table = table_of(&["a", "b", "c"]);
        let values = [1.5, 2.5, 3.5];
        let env: &[(&str, f64)] = &[("a", 1.5), ("b", 2.5), ("c", 3.5)];
        for source in sources {
            let expr = Expr::parse(source).unwrap();
            let compiled = expr.compile(&table).unwrap();
            let expected = expr.eval(env).unwrap();
            let actual = compiled.eval(&values);
            assert!(
                (expected - actual).abs() < 1e-12,
                "`{source}`: tree {expected} vs compiled {actual}"
            );
        }
    }

    #[test]
    fn unknown_identifier_fails_at_compile_time() {
        let expr = Expr::parse("ghost * 2").unwrap();
        let table = table_of(&["a"]);
        assert_eq!(
            expr.compile(&table),
            Err(EvalError::UnknownIdentifier("ghost".into()))
        );
    }

    impl PartialEq for CompiledExpr {
        fn eq(&self, other: &Self) -> bool {
            self.prog == other.prog
        }
    }

    #[test]
    fn referenced_slots_lists_variable_uses() {
        let expr = Expr::parse("a * b + a").unwrap();
        let table = table_of(&["a", "b"]);
        let compiled = expr.compile(&table).unwrap();
        assert_eq!(compiled.referenced_slots(), &[0, 1, 0]);
    }

    #[test]
    fn max_stack_depth_is_exact() {
        let table = table_of(&["a", "b", "c", "d"]);
        // ((a*b) + (c*d)) needs depth 3: a b [*] c d.
        let expr = Expr::parse("a * b + c * d").unwrap();
        let compiled = expr.compile(&table).unwrap();
        assert_eq!(compiled.max_stack_depth(), 3);
        // A single literal needs depth 1.
        let expr = Expr::parse("42").unwrap();
        let compiled = expr.compile(&table).unwrap();
        assert_eq!(compiled.max_stack_depth(), 1);
    }

    #[test]
    fn eval_with_reuses_stack() {
        let table = table_of(&["x"]);
        let expr = Expr::parse("x * x + 1").unwrap();
        let compiled = expr.compile(&table).unwrap();
        let mut stack = Vec::new();
        assert_eq!(compiled.eval_with(&[3.0], &mut stack), 10.0);
        assert_eq!(compiled.eval_with(&[4.0], &mut stack), 17.0);
    }

    #[test]
    fn hand_built_call_with_bad_arity_fails_compile() {
        let expr = Expr::Call(Func::Exp, vec![]);
        let table = SymbolTable::new();
        assert!(matches!(expr.compile(&table), Err(EvalError::Arity { .. })));
    }

    fn form_of(source: &str, table: &SymbolTable) -> KineticForm {
        Expr::parse(source)
            .unwrap()
            .compile(table)
            .unwrap()
            .kinetic_form()
            .clone()
    }

    #[test]
    fn kinetic_forms_classify_the_common_laws() {
        let table = table_of(&["A", "B", "k"]);
        let product = |ops: &[Operand]| {
            KineticForm::SumOfProducts(vec![Term {
                factors: ops.iter().copied().map(Factor::Op).collect(),
            }])
        };
        // Lone operands are one-factor terms.
        assert_eq!(form_of("3.5", &table), product(&[Operand::Num(3.5)]));
        assert_eq!(form_of("k", &table), product(&[Operand::Slot(2)]));
        assert_eq!(
            form_of("k * A", &table),
            KineticForm::Linear(Operand::Slot(2), Operand::Slot(0))
        );
        // Longer operand products multiply left to right on the walk.
        assert_eq!(
            form_of("0.5 * A * B", &table),
            product(&[Operand::Num(0.5), Operand::Slot(0), Operand::Slot(1)])
        );
        assert!(matches!(
            form_of("0.03 + 3.7 * hillr(A, 20, 2)", &table),
            KineticForm::Hill { .. }
        ));
        // Tandem-promoter law: sum of two Hill responses.
        assert!(matches!(
            form_of(
                "0.03 + 3.7 * hillr(A, 20, 2) + 0.1 + 2.9 * hilla(B, 7, 2.8)",
                &table
            ),
            KineticForm::SumOfProducts(terms) if terms.len() == 4
        ));
        // The book cooperative-binding law: a clamp-gated product with
        // a trailing division.
        assert!(matches!(
            form_of("k * A * B * max(B - 1, 0) * max(B - 2, 0) / 6", &table),
            KineticForm::TermDiv { term, divisor: Operand::Num(d) }
                if term.factors.len() == 5 && d == 6.0
        ));
        // Clamp factors are regular inside plain products too.
        assert!(matches!(
            form_of("k * max(A, 0)", &table),
            KineticForm::SumOfProducts(terms) if terms.len() == 1
        ));
        // Lone-factor numerators divide fine.
        assert!(matches!(
            form_of("A / 2", &table),
            KineticForm::TermDiv { .. }
        ));
        // A max against anything but literal 0, or a non-operand
        // divisor, has no flat shape.
        assert_eq!(
            form_of("k * max(A - 1, 2) / 6", &table),
            KineticForm::General
        );
        assert_eq!(form_of("k * A / (B + 1)", &table), KineticForm::General);
        // Right-nested association must NOT be flattened (it would
        // change rounding); it falls back to the VM.
        assert_eq!(form_of("k * (A * B)", &table), KineticForm::General);
        assert_eq!(form_of("A - B", &table), KineticForm::General);
    }

    /// The law mix of a realistic circuit: every form, including
    /// multi-regulator Hill calls and `General` laws on the VM.
    fn mixed_laws(table: &SymbolTable) -> Vec<CompiledExpr> {
        [
            "2.5",                                                         // one-factor SoP
            "k",                                                           // one-factor SoP
            "k * A",                                                       // Linear
            "0.5 * A * B",                                                 // SoP product
            "0.03 + 3.7 * hillr(A, 20, 2)",                                // Hill (repression)
            "0.1 + 2.9 * hilla(B, 7, 2.8)",                                // Hill (activation)
            "0.1 + 2.9 * hilla(A + B, 7, 2.8)",                            // multi-regulator Hill
            "k * A * B * A", // single-term SumOfProducts
            "0.03 + 3.7 * hillr(A, 20, 2) + 0.1 + 2.9 * hilla(B, 7, 2.8)", // tandem SoP
            "0.03 + 3.7 * hillr(A, k, 2) + k * B", // SoP with non-literal Hill k
            "0.2 + 1.5 * hilla(A + B, 7, 2) + k * A", // SoP with multi-x Hill
            "A - B / (k + 1)", // General (VM)
            "k * B",         // Linear again (second lane)
            "1.5 * B * A",   // SoP product again
            "k * A * B * max(B - 1, 0) * max(B - 2, 0) / 6", // book binding → TermDiv
            "k * max(A - 1, 0)", // SoP term with a clamp factor
            "A / 2",         // lone-factor TermDiv
        ]
        .iter()
        .map(|source| Expr::parse(source).unwrap().compile(table).unwrap())
        .collect()
    }

    #[test]
    fn bank_groups_laws_by_form() {
        let table = table_of(&["A", "B", "k"]);
        let laws = mixed_laws(&table);
        let bank = KineticFormBank::new(laws.clone());
        assert_eq!(bank.len(), laws.len());
        assert!(!bank.is_empty());
        assert_eq!(
            bank.occupancy(),
            LaneOccupancy {
                linear: 2,
                hill: 3,
                sop: 9,
                term_div: 2,
                fallback: 1, // the General law
            }
        );
    }

    /// A wide linear group: 19 `k * A` laws.
    fn linear_laws(table: &SymbolTable) -> Vec<CompiledExpr> {
        (0..19)
            .map(|i| {
                let source = format!("{}.5 * {}", i, if i % 2 == 0 { "A" } else { "B" });
                Expr::parse(&source).unwrap().compile(table).unwrap()
            })
            .collect()
    }

    #[test]
    fn bank_eval_all_and_eval_one_are_bitwise_identical_to_eval_fast() {
        let table = table_of(&["A", "B", "k"]);
        assert_bank_matches_vm(&mixed_laws(&table));
    }

    #[test]
    fn bank_chunking_covers_partial_and_multiple_chunks() {
        // 19 Linear laws in one lane: a long run of one shape, not a
        // multiple of any power-of-two width.
        let table = table_of(&["A", "B", "k"]);
        let laws = linear_laws(&table);
        let bank = KineticFormBank::new(laws.clone());
        assert_eq!(bank.occupancy().linear, 19);
        assert_bank_matches_vm(&laws);
    }

    /// `eval_fast`, `eval_all` and `eval_one` all match the postfix VM.
    fn assert_bank_matches_vm(laws: &[CompiledExpr]) {
        let bank = KineticFormBank::new(laws.to_vec());
        let mut stack = Vec::new();
        let mut memo = EvalMemo::new();
        let mut out = vec![0.0; laws.len()];
        // The value sequence revisits earlier states so sweeps exercise
        // memo hits, misses, and overwrites.
        for values in [
            [0.0, 0.0, 0.5],
            [1.0, 3.0, 0.25],
            [1.0, 3.0, 0.25],
            [17.0, 42.0, 1.5],
            [1.0, 3.0, 0.25],
            [1e6, 1e-6, 123.456],
            [0.0, 0.0, 0.5],
        ] {
            bank.eval_all(&values, &mut out, &mut stack, &mut memo);
            for (r, law) in laws.iter().enumerate() {
                let vm = law.eval_with(&values, &mut stack);
                let fast = law.eval_fast(&values, &mut stack);
                assert_eq!(fast.to_bits(), vm.to_bits(), "eval_fast law {r}");
                assert_eq!(
                    out[r].to_bits(),
                    vm.to_bits(),
                    "law {r} at {values:?}: eval_all {} vs vm {vm}",
                    out[r]
                );
                let one = bank.eval_one(r, &values, &mut stack, &mut memo);
                assert_eq!(one.to_bits(), vm.to_bits(), "eval_one law {r}");
                let mut parts = bank.eval_part(r, 0, &values, &mut stack, &mut memo);
                for part in 1..law.part_count() {
                    parts += bank.eval_part(r, part, &values, &mut stack, &mut memo);
                }
                assert_eq!(parts.to_bits(), vm.to_bits(), "parts of law {r}");
            }
        }
    }

    /// A lane sweep's lane `i` is the `f64` sweep of lane `i`'s values,
    /// through memo hits (every lane repeating), partial repeats and
    /// misses, on every form including the VM's.
    #[test]
    fn lane_sweeps_replay_each_lanes_f64_sweep() {
        use super::super::lane::Lanes;
        let table = table_of(&["A", "B", "k"]);
        let laws = mixed_laws(&table);
        let bank = KineticFormBank::new(laws.clone());
        let states = [
            [0.0, 0.0, 0.5],
            [1.0, 3.0, 0.25],
            [17.0, 42.0, 1.5],
            [1e6, 1e-6, 123.456],
            [-2.0, 7.5, 0.5],
        ];
        let mut stack = Vec::new();
        let mut lane_stack = Vec::new();
        let mut memo = EvalMemo::<Lanes<4>>::new();
        let mut out = vec![Lanes::splat(0.0); laws.len()];
        let mut one = vec![0.0; laws.len()];
        for pick in [
            [0, 1, 2, 3],
            [0, 1, 2, 3],
            [4, 4, 4, 4],
            [4, 4, 4, 4],
            [1, 0, 4, 2],
        ] {
            let values: Vec<Lanes<4>> = (0..3)
                .map(|slot| Lanes::from_fn(|lane| states[pick[lane]][slot]))
                .collect();
            bank.eval_all(&values, &mut out, &mut lane_stack, &mut memo);
            for (lane, &state) in pick.iter().enumerate() {
                bank.eval_all(&states[state], &mut one, &mut stack, &mut EvalMemo::new());
                for (r, law) in laws.iter().enumerate() {
                    let vm = law.eval_with(&states[state], &mut stack);
                    assert_eq!(out[r].lane(lane).to_bits(), one[r].to_bits(), "law {r}");
                    assert_eq!(one[r].to_bits(), vm.to_bits(), "law {r} vs VM");
                }
            }
        }
    }

    #[test]
    fn parts_are_the_evaluators_summands() {
        let table = table_of(&["A", "B", "k"]);
        let cases: [(&str, &[&[usize]]); 6] = [
            // Gate response: the leak, then span * response.
            ("0.5 + k * hillr(A + B, 20, 2)", &[&[], &[2, 0, 1]]),
            // Sum of products: one part per term.
            (
                "0.5 + 2 * hillr(A, 7, 2) + k * B + max(A - B, 0)",
                &[&[], &[0], &[2, 1], &[0, 1]],
            ),
            // Every other form is one part, the whole law.
            ("k * A", &[&[2, 0]]),
            ("k * A * B / 6", &[&[2, 0, 1]]),
            ("(A + B) * k", &[&[0, 1, 2]]),
            ("B", &[&[1]]),
        ];
        for (source, slots) in cases {
            let law = Expr::parse(source).unwrap().compile(&table).unwrap();
            assert_eq!(law.part_count(), slots.len(), "`{source}`");
            for (part, expected) in slots.iter().enumerate() {
                assert_eq!(law.part_slots(part), *expected, "`{source}` part {part}");
            }
        }
    }

    #[test]
    fn memo_rebinds_across_banks() {
        let table = table_of(&["A", "B", "k"]);
        let hill_a: Vec<CompiledExpr> = ["0.03 + 3.7 * hillr(A, 20, 2)"]
            .iter()
            .map(|s| Expr::parse(s).unwrap().compile(&table).unwrap())
            .collect();
        let hill_b: Vec<CompiledExpr> = ["0.1 + 2.9 * hilla(A, 7, 2.8)"]
            .iter()
            .map(|s| Expr::parse(s).unwrap().compile(&table).unwrap())
            .collect();
        let bank_a = KineticFormBank::new(hill_a.clone());
        let bank_b = KineticFormBank::new(hill_b.clone());
        let values = [5.0, 0.0, 0.0];
        let mut stack = Vec::new();
        let mut out = [0.0];
        // One memo alternating between two banks with different laws at
        // the same memo slot: stale entries must never leak across.
        let mut memo = EvalMemo::new();
        for _ in 0..3 {
            bank_a.eval_all(&values, &mut out, &mut stack, &mut memo);
            assert_eq!(
                out[0].to_bits(),
                hill_a[0].eval_fast(&values, &mut stack).to_bits()
            );
            bank_b.eval_all(&values, &mut out, &mut stack, &mut memo);
            assert_eq!(
                out[0].to_bits(),
                hill_b[0].eval_fast(&values, &mut stack).to_bits()
            );
        }
    }

    /// `eval_one` through one memo, at regulators on each side of the
    /// table's edges, matches `eval_fast` bit for bit on a miss and on
    /// the hit that follows; rebinding the memo to a bank with the same
    /// slot count but other `k`/`n` clears the table.
    #[test]
    fn eval_one_table_hits_match_eval_fast_and_rebinding_clears_them() {
        let table = table_of(&["A", "B", "k"]);
        let compile = |sources: &[&str]| -> Vec<CompiledExpr> {
            sources
                .iter()
                .map(|s| Expr::parse(s).unwrap().compile(&table).unwrap())
                .collect()
        };
        let first = compile(&[
            "0.03 + 3.7 * hillr(A, 20, 2)",
            "0.03 + 3.7 * hillr(A, 20, 2) + 0.1 + 2.9 * hilla(B, 7, 2.8)",
            "k * hilla(A, 7, 2.8) / 6",
            "0.1 + 2.9 * hilla(A + B, 7, 2.8)",
        ]);
        let second = compile(&[
            "0.2 + 1.1 * hillr(A, 12, 1.9)",
            "0.1 + 2.5 * hilla(A, 5, 2) + 0.2 + 1.1 * hillr(B, 30, 3)",
            "k * hilla(A, 9, 1.5) / 6",
            "0.2 + 1.5 * hillr(A + B, 9, 2)",
        ]);
        let regulators = [
            0.0,
            -0.0,
            1.0,
            15.0,
            220.0,
            1023.0,
            1024.0,
            5000.0,
            2.5,
            1e6 + 0.5,
        ];
        let mut memo = EvalMemo::new();
        let mut stack = Vec::new();
        for laws in [&first, &second, &first] {
            let bank = KineticFormBank::new(laws.to_vec());
            let occupancy = bank.occupancy();
            assert_eq!(
                (occupancy.hill, occupancy.sop, occupancy.term_div),
                (2, 1, 1)
            );
            for x in regulators {
                let values = [x, x, 0.5];
                for pass in ["miss", "hit"] {
                    for (r, law) in laws.iter().enumerate() {
                        let one = bank.eval_one(r, &values, &mut stack, &mut memo);
                        let fast = law.eval_fast(&values, &mut stack);
                        assert_eq!(one.to_bits(), fast.to_bits(), "law {r} at {x} ({pass})");
                    }
                }
            }
            // Five memo slots, each filled at five in-table counts
            // (-0.0 either clamps to 0.0 or takes the pair): the summed
            // regulator 2x is in the table at x = 0, 1, 2.5, 15 and 220.
            let filled = memo.table.iter().filter(|v| v.to_bits() != EMPTY_BITS);
            assert_eq!(filled.count(), 5 * 5);
        }
        // A hit is a table read: a planted entry comes back verbatim.
        let bank = KineticFormBank::new(first.clone());
        bank.eval_one(0, &[15.0, 0.0, 0.5], &mut stack, &mut memo);
        memo.table[15] = 0.25;
        let planted = bank.eval_one(0, &[15.0, 0.0, 0.5], &mut stack, &mut memo);
        assert_eq!(planted.to_bits(), (0.03 + 3.7 * 0.25f64).to_bits());
    }

    #[test]
    fn copy_number_accepts_only_exact_counts_below_the_bound() {
        assert_eq!(copy_number(0.0), Some(0));
        assert_eq!(copy_number(15.0), Some(15));
        let top = COPY_TABLE_LEN - 1;
        assert_eq!(copy_number(top as f64), Some(top));
        for x in [
            -0.0,
            -1.0,
            2.5,
            COPY_TABLE_LEN as f64,
            1e6 + 0.5,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_eq!(copy_number(x), None, "{x}");
        }
    }

    #[test]
    fn empty_bank_is_fine() {
        let bank = KineticFormBank::new(Vec::new());
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        let mut stack: Vec<f64> = Vec::new();
        bank.eval_all(&[], &mut [], &mut stack, &mut EvalMemo::new());
    }

    #[test]
    fn fast_path_is_bitwise_identical_to_the_vm() {
        let table = table_of(&["A", "B", "k"]);
        let sources = [
            "2.5",
            "k",
            "k * A",
            "k * A * B",
            "k * A * B * A",
            "0.03 + 3.7 * hillr(A, 20, 2)",
            "0.1 + 2.9 * hilla(A + B, 7, 2.8)",
            "k * hillr(A, 20, 2)",
            "0.03 + 3.7 * hillr(A, 20, 2) + 0.1 + 2.9 * hilla(B, 7, 2.8)",
            "3.0 + 0.03 + 3.7 * hillr(A + B, 12, 1.9)",
            // Clamp-gated products and trailing divisions (the book
            // cooperative-binding shape).
            "k * A * B * max(B - 1, 0) * max(B - 2, 0) / 6",
            "k * max(A, 0) * max(B - 2, 0)",
            "A / 2",
            "k * A / 123.456",
            // General fallbacks must agree trivially too.
            "k * (A * B)",
            "A - B / (k + 1)",
            "max(A, B) - exp(-k)",
            "max(A - 1, 0)",
        ];
        let mut stack = Vec::new();
        for source in sources {
            let compiled = Expr::parse(source).unwrap().compile(&table).unwrap();
            for values in [
                [0.0, 0.0, 0.5],
                [1.0, 3.0, 0.25],
                [17.0, 42.0, 1.5],
                [1e6, 1e-6, 123.456],
            ] {
                let vm = compiled.eval_with(&values, &mut stack);
                let fast = compiled.eval_fast(&values, &mut stack);
                assert_eq!(
                    vm.to_bits(),
                    fast.to_bits(),
                    "`{source}` at {values:?}: vm {vm} vs fast {fast}"
                );
            }
        }
    }
}
