//! SIGNAL expressions built from the polychronous kernel operators.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Binary step-wise operators (applied point-wise at instants where all
/// operands are present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer / real division.
    Div,
    /// Modulo.
    Mod,
    /// Equality test.
    Eq,
    /// Inequality test.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl BinOp {
    /// SIGNAL surface syntax for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "modulo",
            BinOp::Eq => "=",
            BinOp::Ne => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary step-wise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

impl UnOp {
    /// SIGNAL surface syntax for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "not",
        }
    }
}

/// A SIGNAL expression.
///
/// The kernel of the polychronous model of computation (Section III of the
/// paper): step-wise functions, `delay` (`$ 1 init c`), sampling (`when`),
/// deterministic merge (`default`), plus the derived operators used heavily
/// by the AADL translation — `cell` (the "memory" process `fm(i, b)` of
/// Section IV-C) and clock expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a signal by name.
    Var(String),
    /// A constant, present at the context clock.
    Const(Value),
    /// Unary step-wise function.
    Unary(UnOp, Box<Expr>),
    /// Binary step-wise function.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `e $ 1 init v` — the previous value of `e`, initialised to `v`.
    /// Present exactly when `e` is present.
    Delay(Box<Expr>, Value),
    /// `e when b` — `e` sampled at the instants where `b` is present and
    /// true.
    When(Box<Expr>, Box<Expr>),
    /// `u default v` — `u` when present, otherwise `v`.
    Default(Box<Expr>, Box<Expr>),
    /// `i cell b init v` — the memory process `fm(i, b)` of the paper:
    /// present when `i` is present or `b` is present and true; holds the
    /// current `i` when present, otherwise the last value of `i` (initially
    /// `v`).
    Cell(Box<Expr>, Box<Expr>, Value),
    /// `^e` — the clock of `e` as an event signal.
    ClockOf(Box<Expr>),
    /// `when b` — the sub-clock of the instants where boolean `b` is true
    /// (an event signal).
    ClockWhen(Box<Expr>),
}

// The `add`/`sub`/`mul`/`not` constructors are free functions over two
// expressions, not `self`-consuming operators, so the std ops traits do not
// fit their shape.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Convenience constructor for a signal reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for an integer constant.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// Convenience constructor for a boolean constant.
    pub fn bool(b: bool) -> Expr {
        Expr::Const(Value::Bool(b))
    }

    /// Convenience constructor for an event constant.
    pub fn event() -> Expr {
        Expr::Const(Value::Event)
    }

    /// Convenience constructor for a text constant.
    pub fn text(s: impl Into<String>) -> Expr {
        Expr::Const(Value::Text(s.into()))
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// `a = b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))
    }

    /// `a /= b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(a), Box::new(b))
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(a), Box::new(b))
    }

    /// `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(a), Box::new(b))
    }

    /// `a and b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(a), Box::new(b))
    }

    /// `a or b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(a), Box::new(b))
    }

    /// `not a`.
    pub fn not(a: Expr) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(a))
    }

    /// `e $ 1 init v`.
    pub fn delay(e: Expr, init: Value) -> Expr {
        Expr::Delay(Box::new(e), init)
    }

    /// `e when b`.
    pub fn when(e: Expr, b: Expr) -> Expr {
        Expr::When(Box::new(e), Box::new(b))
    }

    /// `u default v`.
    pub fn default(u: Expr, v: Expr) -> Expr {
        Expr::Default(Box::new(u), Box::new(v))
    }

    /// `i cell b init v` — the memory process `fm(i, b)`.
    pub fn cell(i: Expr, b: Expr, init: Value) -> Expr {
        Expr::Cell(Box::new(i), Box::new(b), init)
    }

    /// `^e`.
    pub fn clock_of(e: Expr) -> Expr {
        Expr::ClockOf(Box::new(e))
    }

    /// `when b` as an event clock.
    pub fn clock_when(b: Expr) -> Expr {
        Expr::ClockWhen(Box::new(b))
    }

    /// Collects the names of all signals referenced by this expression.
    pub fn referenced_signals(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_signal(&mut |name| out.push(name.to_string()));
        out.sort();
        out.dedup();
        out
    }

    /// Calls `f` with the name of every signal this expression reads, in
    /// pre-order and with repeats: [`Expr::referenced_signals`] without
    /// the allocations.
    pub fn for_each_signal<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Var(name) => f(name),
            Expr::Const(_) => {}
            Expr::Unary(_, e) | Expr::ClockOf(e) | Expr::ClockWhen(e) | Expr::Delay(e, _) => {
                e.for_each_signal(f)
            }
            Expr::Binary(_, a, b)
            | Expr::When(a, b)
            | Expr::Default(a, b)
            | Expr::Cell(a, b, _) => {
                a.for_each_signal(f);
                b.for_each_signal(f);
            }
        }
    }

    /// Collects the names of signals whose *current* value is needed to
    /// compute this expression (i.e. excluding signals only reached through a
    /// `delay`, which depend on the previous instant). Used to build the
    /// instantaneous dependency graph for deadlock detection.
    pub fn instantaneous_dependencies(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_instant_deps(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_instant_deps(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(name) => out.push(name.clone()),
            Expr::Const(_) => {}
            Expr::Unary(_, e) | Expr::ClockOf(e) | Expr::ClockWhen(e) => {
                e.collect_instant_deps(out)
            }
            Expr::Binary(_, a, b) | Expr::When(a, b) | Expr::Default(a, b) => {
                a.collect_instant_deps(out);
                b.collect_instant_deps(out);
            }
            // A delay only needs the *previous* value; however its clock is the
            // clock of its operand, so presence still depends on the operand's
            // clock — we conservatively keep clock dependencies out of the
            // value-dependency graph, matching SIGNAL's causality analysis.
            Expr::Delay(_, _) => {}
            Expr::Cell(i, b, _) => {
                i.collect_instant_deps(out);
                b.collect_instant_deps(out);
            }
        }
    }

    /// Maximum nesting depth, used by benchmarks to size synthetic workloads.
    pub fn depth(&self) -> usize {
        match self {
            Expr::Var(_) | Expr::Const(_) => 1,
            Expr::Unary(_, e) | Expr::Delay(e, _) | Expr::ClockOf(e) | Expr::ClockWhen(e) => {
                1 + e.depth()
            }
            Expr::Binary(_, a, b) | Expr::When(a, b) | Expr::Default(a, b) => {
                1 + a.depth().max(b.depth())
            }
            Expr::Cell(i, b, _) => 1 + i.depth().max(b.depth()),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(name) => f.write_str(name),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Unary(op, e) => write!(f, "({} {})", op.symbol(), e),
            Expr::Binary(op, a, b) => write!(f, "({} {} {})", a, op.symbol(), b),
            Expr::Delay(e, init) => write!(f, "({} $ 1 init {})", e, init),
            Expr::When(e, b) => write!(f, "({} when {})", e, b),
            Expr::Default(u, v) => write!(f, "({} default {})", u, v),
            Expr::Cell(i, b, init) => write!(f, "({} cell {} init {})", i, b, init),
            Expr::ClockOf(e) => write!(f, "(^{})", e),
            Expr::ClockWhen(b) => write!(f, "(when {})", b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_signals_are_deduplicated_and_sorted() {
        let e = Expr::add(Expr::var("b"), Expr::when(Expr::var("a"), Expr::var("b")));
        assert_eq!(
            e.referenced_signals(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn delay_breaks_instantaneous_dependency() {
        // count = (count $ 1 init 0) + step
        let e = Expr::add(
            Expr::delay(Expr::var("count"), Value::Int(0)),
            Expr::var("step"),
        );
        assert_eq!(e.instantaneous_dependencies(), vec!["step".to_string()]);
        assert_eq!(
            e.referenced_signals(),
            vec!["count".to_string(), "step".to_string()]
        );
    }

    #[test]
    fn display_matches_signal_surface_syntax() {
        let e = Expr::default(
            Expr::when(Expr::var("x"), Expr::var("b")),
            Expr::delay(Expr::var("x"), Value::Int(0)),
        );
        assert_eq!(e.to_string(), "((x when b) default (x $ 1 init 0))");
    }

    #[test]
    fn depth_counts_nesting() {
        let e = Expr::add(Expr::int(1), Expr::add(Expr::int(2), Expr::int(3)));
        assert_eq!(e.depth(), 3);
        assert_eq!(Expr::var("x").depth(), 1);
    }

    #[test]
    fn cell_references_both_operands() {
        let e = Expr::cell(Expr::var("i"), Expr::var("b"), Value::Int(0));
        assert_eq!(
            e.referenced_signals(),
            vec!["b".to_string(), "i".to_string()]
        );
        assert_eq!(
            e.instantaneous_dependencies(),
            vec!["b".to_string(), "i".to_string()]
        );
    }
}
