//! Kinetic-law arithmetic expressions.
//!
//! SBML expresses kinetic laws in MathML; this crate uses an equivalent
//! infix syntax (documented deviation, see `DESIGN.md`). The grammar is:
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := unary (('*' | '/') unary)*
//! unary   := '-' unary | power
//! power   := atom ('^' unary)?            // right-associative
//! atom    := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'
//! args    := expr (',' expr)*
//! ```
//!
//! Identifiers name species or parameters. Function calls cover the
//! functions genetic-circuit kinetic laws need, most importantly the Hill
//! repression/activation response functions used by Cello-style gates.

mod compiled;
mod eval;
mod parser;

pub use compiled::{
    copy_number, CompiledExpr, EvalMemo, Factor, HillCall, KineticForm, KineticFormBank,
    LaneOccupancy, MaxZeroCall, Operand, SymbolTable, Term, COPY_TABLE_LEN,
};
pub use eval::Env;

use crate::error::ParseError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

/// Built-in functions callable from kinetic-law expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Func {
    /// `exp(x)` — natural exponential.
    Exp,
    /// `ln(x)` — natural logarithm.
    Ln,
    /// `log10(x)` — base-10 logarithm.
    Log10,
    /// `sqrt(x)` — square root.
    Sqrt,
    /// `abs(x)` — absolute value.
    Abs,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `min(x, y)` — smaller of two values.
    Min,
    /// `max(x, y)` — larger of two values.
    Max,
    /// `pow(x, y)` — `x` raised to `y` (same as `x ^ y`).
    Pow,
    /// `hillr(x, k, n)` — Hill *repression* response
    /// `k^n / (k^n + x^n)`, the normalized output of a repressed promoter.
    HillRepression,
    /// `hilla(x, k, n)` — Hill *activation* response
    /// `x^n / (k^n + x^n)`.
    HillActivation,
}

impl Func {
    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            Func::Exp
            | Func::Ln
            | Func::Log10
            | Func::Sqrt
            | Func::Abs
            | Func::Floor
            | Func::Ceil => 1,
            Func::Min | Func::Max | Func::Pow => 2,
            Func::HillRepression | Func::HillActivation => 3,
        }
    }

    /// The name under which the function is recognized by the parser.
    pub fn name(self) -> &'static str {
        match self {
            Func::Exp => "exp",
            Func::Ln => "ln",
            Func::Log10 => "log10",
            Func::Sqrt => "sqrt",
            Func::Abs => "abs",
            Func::Floor => "floor",
            Func::Ceil => "ceil",
            Func::Min => "min",
            Func::Max => "max",
            Func::Pow => "pow",
            Func::HillRepression => "hillr",
            Func::HillActivation => "hilla",
        }
    }

    /// Looks a function up by its source name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "exp" => Func::Exp,
            "ln" => Func::Ln,
            "log10" => Func::Log10,
            "sqrt" => Func::Sqrt,
            "abs" => Func::Abs,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            "min" => Func::Min,
            "max" => Func::Max,
            "pow" => Func::Pow,
            "hillr" => Func::HillRepression,
            "hilla" => Func::HillActivation,
            _ => return None,
        })
    }

    /// Applies the function to already-evaluated arguments.
    ///
    /// `args.len()` must equal [`Func::arity`]; the evaluator checks this.
    pub(crate) fn apply(self, args: &[f64]) -> f64 {
        match self {
            Func::Exp => args[0].exp(),
            Func::Ln => args[0].ln(),
            Func::Log10 => args[0].log10(),
            Func::Sqrt => args[0].sqrt(),
            Func::Abs => args[0].abs(),
            Func::Floor => args[0].floor(),
            Func::Ceil => args[0].ceil(),
            Func::Min => args[0].min(args[1]),
            Func::Max => args[0].max(args[1]),
            Func::Pow => args[0].powf(args[1]),
            // The Hill responses route through [`crate::fastmath::pow`]
            // (not libm `powf`): regulators and thresholds are
            // non-negative by construction, and the compiled Hill lanes
            // must replay this exact op sequence bitwise, so both tiers
            // share the one deterministic inline kernel.
            Func::HillRepression => {
                let (x, k, n) = (args[0].max(0.0), args[1], args[2]);
                let kn = crate::fastmath::pow(k, n);
                kn / (kn + crate::fastmath::pow(x, n))
            }
            Func::HillActivation => {
                let (x, k, n) = (args[0].max(0.0), args[1], args[2]);
                let xn = crate::fastmath::pow(x, n);
                xn / (crate::fastmath::pow(k, n) + xn)
            }
        }
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Exponentiation `^` (right-associative).
    Pow,
}

impl BinOp {
    /// Operator symbol as written in source.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
        }
    }

    /// Binding strength; higher binds tighter. Used by the pretty-printer
    /// to decide where parentheses are required.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div => 2,
            BinOp::Pow => 4,
        }
    }

    pub(crate) fn apply(self, lhs: f64, rhs: f64) -> f64 {
        match self {
            BinOp::Add => lhs + rhs,
            BinOp::Sub => lhs - rhs,
            BinOp::Mul => lhs * rhs,
            BinOp::Div => lhs / rhs,
            BinOp::Pow => lhs.powf(rhs),
        }
    }
}

/// A kinetic-law expression tree.
///
/// Construct with [`Expr::parse`] (or [`FromStr`]), evaluate with
/// [`Expr::eval`], or bind identifiers to state-vector slots once with
/// [`Expr::compile`] and evaluate repeatedly without string lookups.
///
/// # Example
///
/// ```
/// use glc_model::Expr;
/// use std::collections::HashMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let law: Expr = "k * hillr(R, 20, 2)".parse()?;
/// let mut env = HashMap::new();
/// env.insert("k".to_string(), 10.0);
/// env.insert("R".to_string(), 0.0);
/// // With no repressor the promoter fires at full rate.
/// assert_eq!(law.eval(&env)?, 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// Reference to a species or parameter by identifier.
    Var(String),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Parses an infix expression.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the byte position of the first
    /// offending token when the input is not a valid expression.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        parser::parse(input)
    }

    /// Numeric literal constructor.
    pub fn num(value: f64) -> Self {
        Expr::Num(value)
    }

    /// Identifier reference constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Var(name.into())
    }

    /// `lhs + rhs`.
    ///
    /// Deliberately named like `std::ops::Add::add`: these are plain
    /// constructors used as combinators, not operator overloads.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Self {
        Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Self {
        Expr::Bin(BinOp::Sub, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Self {
        Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs))
    }

    /// `lhs / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(lhs: Expr, rhs: Expr) -> Self {
        Expr::Bin(BinOp::Div, Box::new(lhs), Box::new(rhs))
    }

    /// All identifiers referenced anywhere in the expression, sorted and
    /// deduplicated.
    pub fn identifiers(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_identifiers(&mut out);
        out
    }

    fn collect_identifiers<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(name) => {
                out.insert(name.as_str());
            }
            Expr::Neg(inner) => inner.collect_identifiers(out),
            Expr::Bin(_, lhs, rhs) => {
                lhs.collect_identifiers(out);
                rhs.collect_identifiers(out);
            }
            Expr::Call(_, args) => {
                for arg in args {
                    arg.collect_identifiers(out);
                }
            }
        }
    }

    /// Number of nodes in the expression tree (a size metric used by
    /// benchmarks and tests).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Var(_) => 1,
            Expr::Neg(inner) => 1 + inner.node_count(),
            Expr::Bin(_, lhs, rhs) => 1 + lhs.node_count() + rhs.node_count(),
            Expr::Call(_, args) => 1 + args.iter().map(Expr::node_count).sum::<usize>(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Num(value) => {
                if value.fract() == 0.0 && value.abs() < 1e15 {
                    write!(f, "{}", *value as i64)
                } else {
                    write!(f, "{value}")
                }
            }
            Expr::Var(name) => f.write_str(name),
            Expr::Neg(inner) => {
                // Unary minus binds tighter than * but looser than ^.
                let my_prec = 3;
                if parent_prec > my_prec {
                    f.write_str("(")?;
                }
                f.write_str("-")?;
                inner.fmt_prec(f, my_prec)?;
                if parent_prec > my_prec {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Bin(op, lhs, rhs) => {
                let my_prec = op.precedence();
                if parent_prec > my_prec {
                    f.write_str("(")?;
                }
                // A `+1` forces parentheses at equal precedence on the
                // side the operator does NOT associate with: the right for
                // left-associative -, /, and the left for the
                // right-associative `^`.
                let lhs_prec = if *op == BinOp::Pow {
                    my_prec + 1
                } else {
                    my_prec
                };
                let rhs_prec = if *op == BinOp::Pow {
                    my_prec
                } else {
                    my_prec + 1
                };
                lhs.fmt_prec(f, lhs_prec)?;
                write!(f, " {} ", op.symbol())?;
                rhs.fmt_prec(f, rhs_prec)?;
                if parent_prec > my_prec {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    arg.fmt_prec(f, 0)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl FromStr for Expr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Expr::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_arity_and_name_round_trip() {
        for func in [
            Func::Exp,
            Func::Ln,
            Func::Log10,
            Func::Sqrt,
            Func::Abs,
            Func::Floor,
            Func::Ceil,
            Func::Min,
            Func::Max,
            Func::Pow,
            Func::HillRepression,
            Func::HillActivation,
        ] {
            assert_eq!(Func::from_name(func.name()), Some(func));
            assert!(func.arity() >= 1 && func.arity() <= 3);
        }
        assert_eq!(Func::from_name("nope"), None);
    }

    #[test]
    fn hill_repression_limits() {
        // x = 0 → fully un-repressed (1); x → ∞ → fully repressed (0).
        let at = |x: f64| Func::HillRepression.apply(&[x, 20.0, 2.0]);
        assert!((at(0.0) - 1.0).abs() < 1e-12);
        assert!(at(1e9) < 1e-9);
        // x = K → exactly one half.
        assert!((at(20.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hill_activation_limits() {
        let at = |x: f64| Func::HillActivation.apply(&[x, 20.0, 2.0]);
        assert!(at(0.0).abs() < 1e-12);
        assert!((at(1e9) - 1.0).abs() < 1e-6);
        assert!((at(20.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hill_functions_clamp_negative_input() {
        // Stochastic state should never be negative, but the response must
        // stay well-defined if a caller hands in a negative concentration.
        let r = Func::HillRepression.apply(&[-5.0, 20.0, 2.0]);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identifiers_are_collected_and_sorted() {
        let expr = Expr::parse("k1 * hillr(LacI + TetR, K, n) - k1 * GFP").unwrap();
        let ids: Vec<&str> = expr.identifiers().into_iter().collect();
        assert_eq!(ids, vec!["GFP", "K", "LacI", "TetR", "k1", "n"]);
    }

    #[test]
    fn display_inserts_minimal_parentheses() {
        let cases = [
            ("a + b * c", "a + b * c"),
            ("(a + b) * c", "(a + b) * c"),
            ("a - (b - c)", "a - (b - c)"),
            ("a - b - c", "a - b - c"),
            ("a / (b * c)", "a / (b * c)"),
            ("-a * b", "-a * b"),
            ("-(a + b)", "-(a + b)"),
            ("a ^ b ^ c", "a ^ b ^ c"),
            ("(a ^ b) ^ c", "(a ^ b) ^ c"),
            ("min(a, max(b, c))", "min(a, max(b, c))"),
        ];
        for (input, expected) in cases {
            let expr = Expr::parse(input).unwrap();
            assert_eq!(expr.to_string(), expected, "printing `{input}`");
        }
    }

    #[test]
    fn display_round_trips_through_parser() {
        let sources = [
            "k * hillr(R, 20, 2)",
            "ymin + (ymax - ymin) * hillr(A + B, K, n)",
            "a + b - c * d / e ^ f",
            "-(-x)",
            "2.5e-3 * S",
        ];
        for source in sources {
            let expr = Expr::parse(source).unwrap();
            let printed = expr.to_string();
            let reparsed = Expr::parse(&printed).unwrap();
            assert_eq!(expr, reparsed, "round-trip of `{source}` via `{printed}`");
        }
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let expr = Expr::parse("a + b * c").unwrap();
        assert_eq!(expr.node_count(), 5);
        let expr = Expr::parse("hillr(x, 1, 2)").unwrap();
        assert_eq!(expr.node_count(), 4);
    }

    #[test]
    fn unary_math_functions_evaluate() {
        let env: &[(&str, f64)] = &[("x", 2.25)];
        let cases = [
            ("exp(0)", 1.0),
            ("ln(exp(1))", 1.0),
            ("log10(1000)", 3.0),
            ("sqrt(x * 4)", 3.0),
            ("abs(-x)", 2.25),
            ("floor(x)", 2.0),
            ("ceil(x)", 3.0),
        ];
        for (source, expected) in cases {
            let value = Expr::parse(source).unwrap().eval(env).unwrap();
            assert!(
                (value - expected).abs() < 1e-12,
                "`{source}` = {value}, expected {expected}"
            );
        }
    }

    #[test]
    fn integer_valued_literals_print_without_decimal_point() {
        assert_eq!(Expr::num(20.0).to_string(), "20");
        assert_eq!(Expr::num(2.5).to_string(), "2.5");
    }
}
