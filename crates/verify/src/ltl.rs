//! The past-time LTL property language: surface syntax, AST and reference
//! trace semantics.
//!
//! Properties are *safety invariants*: a formula of past-time LTL is
//! evaluated at every instant of every execution, and the property is
//! violated at the first instant where the formula is false. The surface
//! syntax (see `docs/PROPERTIES.md` for the full reference manual) is
//!
//! ```text
//! property  = [ "always" | "never" ] formula
//! formula   = f "implies" f | f "implies" f "within" k
//!           | f "or" f | f "and" f | f "since" f
//!           | "not" f | "once" f | "previously" f | "historically" f
//!           | "(" formula ")" | "true" | "false"
//!           | SIGNAL | "present" "(" SIGNAL ")" | "raised" "(" PATTERN ")"
//! ```
//!
//! Atoms observe one resolved instant: a bare `SIGNAL` is true when the
//! signal is present with a `true`-ish value, `present(S)` when it is
//! present with any value, and `raised(P)` when any signal matching the
//! glob pattern `P` is present and true. The past operators (`previously`,
//! `once`, `historically`, `since`) look backwards only, so every formula
//! can be checked by a finite-state monitor automaton
//! ([`crate::monitor::LtlMonitor`]) whose registers live in the explored
//! [`crate::State`] — exactly like the built-in bounded-response register.
//!
//! [`eval`] implements the *reference semantics*: a brute-force recursive
//! evaluator over a concrete trace prefix, with no registers. The compiled
//! monitor is cross-validated against it property-based tests; the two must
//! agree on every formula and every trace.
//!
//! ```
//! use polyverify::ltl::LtlProperty;
//!
//! let property = LtlProperty::parse("always (Alarm implies once Deadline)")?;
//! assert_eq!(property.expr(), "always (Alarm implies once Deadline)");
//! # Ok::<(), polyverify::ltl::ParseError>(())
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};
use signal_moc::trace::TraceStep;

use crate::property::{raised_signal, signal_true};

/// A past-time LTL formula over the signals of one resolved instant.
///
/// Constructed by [`LtlProperty::parse`] from the surface syntax, or
/// programmatically through the builder methods ([`Formula::signal`],
/// [`Formula::within`], ...). [`fmt::Display`] renders a formula back to
/// the surface syntax; parsing the rendering yields the same tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Formula {
    /// The constant `true` or `false`.
    Const(bool),
    /// The named signal is present with a `true`-ish value at this instant.
    Signal(String),
    /// The named signal is present (with any value) at this instant.
    Present(String),
    /// Some signal matching the glob pattern (leading/trailing `*`, as in
    /// [`crate::Property::NeverRaised`]) is present and true at this
    /// instant.
    Raised(String),
    /// Logical negation.
    Not(Box<Formula>),
    /// Logical conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Logical disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Logical implication (`a implies b` is `not a or b`).
    Implies(Box<Formula>, Box<Formula>),
    /// `previously f`: `f` held at the previous instant (false at the first
    /// instant).
    Previously(Box<Formula>),
    /// `once f`: `f` held at some instant so far (including this one).
    Once(Box<Formula>),
    /// `historically f`: `f` held at every instant so far (including this
    /// one).
    Historically(Box<Formula>),
    /// `a since b`: `b` held at some past-or-present instant, and `a` has
    /// held at every instant after it (up to and including this one).
    Since(Box<Formula>, Box<Formula>),
    /// `trigger implies response within k`: the bounded-response deadline
    /// automaton. A trigger instant (trigger true, response not true) with
    /// no deadline already pending arms a deadline `k` instants out; a
    /// response instant discharges it; the formula is false exactly at the
    /// instants where a pending deadline expires unanswered.
    Within {
        /// The formula whose truth starts the deadline.
        trigger: Box<Formula>,
        /// The formula that must answer within the bound.
        response: Box<Formula>,
        /// Maximum number of instants between trigger and response (`0`
        /// requires a same-instant response).
        bound: u32,
    },
}

impl Formula {
    /// Atom: `name` is present and true at this instant.
    pub fn signal(name: impl Into<String>) -> Self {
        Formula::Signal(name.into())
    }

    /// Atom: `name` is present (with any value) at this instant.
    pub fn present(name: impl Into<String>) -> Self {
        Formula::Present(name.into())
    }

    /// Atom: some signal matching `pattern` is present and true.
    pub fn raised(pattern: impl Into<String>) -> Self {
        Formula::Raised(pattern.into())
    }

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Self {
        Formula::Not(Box::new(f))
    }

    /// Logical conjunction.
    pub fn and(a: Formula, b: Formula) -> Self {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Logical disjunction.
    pub fn or(a: Formula, b: Formula) -> Self {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Logical implication.
    pub fn implies(a: Formula, b: Formula) -> Self {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// The `previously` operator.
    pub fn previously(f: Formula) -> Self {
        Formula::Previously(Box::new(f))
    }

    /// The `once` operator.
    pub fn once(f: Formula) -> Self {
        Formula::Once(Box::new(f))
    }

    /// The `historically` operator.
    pub fn historically(f: Formula) -> Self {
        Formula::Historically(Box::new(f))
    }

    /// The `since` operator.
    pub fn since(a: Formula, b: Formula) -> Self {
        Formula::Since(Box::new(a), Box::new(b))
    }

    /// The bounded-response sugar `trigger implies response within bound`.
    pub fn within(trigger: Formula, response: Formula, bound: u32) -> Self {
        Formula::Within {
            trigger: Box::new(trigger),
            response: Box::new(response),
            bound,
        }
    }

    /// Number of monitor registers a compiled monitor needs for this
    /// formula: one per temporal operator.
    pub fn temporal_count(&self) -> usize {
        match self {
            Formula::Const(_) | Formula::Signal(_) | Formula::Present(_) | Formula::Raised(_) => 0,
            Formula::Not(a) => a.temporal_count(),
            Formula::Previously(a) | Formula::Once(a) | Formula::Historically(a) => {
                1 + a.temporal_count()
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.temporal_count() + b.temporal_count()
            }
            Formula::Since(a, b) => 1 + a.temporal_count() + b.temporal_count(),
            Formula::Within {
                trigger, response, ..
            } => 1 + trigger.temporal_count() + response.temporal_count(),
        }
    }

    /// Calls `f` with every atom (`S`, `present(S)`, `raised(glob)`) in
    /// pre-order, left operand first: the order in which a monitor step
    /// reads them.
    pub(crate) fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a Formula)) {
        match self {
            Formula::Const(_) => {}
            Formula::Signal(_) | Formula::Present(_) | Formula::Raised(_) => f(self),
            Formula::Not(a)
            | Formula::Previously(a)
            | Formula::Once(a)
            | Formula::Historically(a) => a.for_each_atom(f),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Since(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
            Formula::Within {
                trigger, response, ..
            } => {
                trigger.for_each_atom(f);
                response.for_each_atom(f);
            }
        }
    }

    /// Precedence level used by the renderer (higher binds tighter).
    fn precedence(&self) -> u8 {
        match self {
            Formula::Implies(..) | Formula::Within { .. } => 0,
            Formula::Or(..) => 1,
            Formula::And(..) => 2,
            Formula::Since(..) => 3,
            Formula::Not(_)
            | Formula::Previously(_)
            | Formula::Once(_)
            | Formula::Historically(_) => 4,
            Formula::Const(_) | Formula::Signal(_) | Formula::Present(_) | Formula::Raised(_) => 5,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        let prec = self.precedence();
        if prec < min {
            write!(f, "(")?;
        }
        match self {
            Formula::Const(b) => write!(f, "{b}")?,
            Formula::Signal(name) => write!(f, "{name}")?,
            Formula::Present(name) => write!(f, "present({name})")?,
            Formula::Raised(pattern) => write!(f, "raised({pattern})")?,
            Formula::Not(a) => {
                write!(f, "not ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Previously(a) => {
                write!(f, "previously ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Once(a) => {
                write!(f, "once ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Historically(a) => {
                write!(f, "historically ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Since(a, b) => {
                a.fmt_prec(f, 3)?;
                write!(f, " since ")?;
                b.fmt_prec(f, 4)?;
            }
            Formula::And(a, b) => {
                a.fmt_prec(f, 2)?;
                write!(f, " and ")?;
                b.fmt_prec(f, 3)?;
            }
            Formula::Or(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " or ")?;
                b.fmt_prec(f, 2)?;
            }
            Formula::Implies(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " implies ")?;
                b.fmt_prec(f, 0)?;
            }
            Formula::Within {
                trigger,
                response,
                bound,
            } => {
                trigger.fmt_prec(f, 1)?;
                write!(f, " implies ")?;
                response.fmt_prec(f, 1)?;
                write!(f, " within {bound}")?;
            }
        }
        if prec < min {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// A parsed property: the original expression text plus the *invariant*
/// formula that must hold at every instant (`never f` normalises to the
/// invariant `not f`; a bare formula is an implicit `always`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LtlProperty {
    expr: String,
    invariant: Formula,
}

impl LtlProperty {
    /// Parses a property from the surface syntax.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] carrying the offending byte span of the
    /// source text; its [`fmt::Display`] rendering points a caret at the
    /// error position.
    ///
    /// ```
    /// use polyverify::ltl::LtlProperty;
    ///
    /// let err = LtlProperty::parse("always (Deadline implies").unwrap_err();
    /// assert!(err.to_string().contains('^'));
    /// ```
    pub fn parse(source: &str) -> Result<Self, ParseError> {
        Parser::new(source)?.property()
    }

    /// A property requiring `invariant` at every instant, rendered as
    /// `always <invariant>`.
    pub fn always(invariant: Formula) -> Self {
        Self {
            expr: format!("always {invariant}"),
            invariant,
        }
    }

    /// A property forbidding `formula` at every instant, rendered as
    /// `never <formula>` (the invariant is the negation).
    pub fn never(formula: Formula) -> Self {
        Self {
            expr: format!("never {formula}"),
            invariant: Formula::not(formula),
        }
    }

    /// The property expression as written (or as rendered by the
    /// constructors).
    pub fn expr(&self) -> &str {
        &self.expr
    }

    /// The invariant formula checked at every instant.
    pub fn invariant(&self) -> &Formula {
        &self.invariant
    }
}

impl fmt::Display for LtlProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)
    }
}

/// Reference trace semantics: the value of `formula` at instant `t` of the
/// resolved trace prefix `steps[..=t]`, computed by brute-force recursion
/// with no monitor state. The compiled [`crate::monitor::LtlMonitor`] must
/// agree with this function on every formula and trace (property-based
/// tests pin the equivalence).
///
/// # Panics
///
/// Panics when `t >= steps.len()`.
pub fn eval(formula: &Formula, steps: &[TraceStep], t: usize) -> bool {
    assert!(t < steps.len(), "instant {t} out of range");
    match formula {
        Formula::Const(b) => *b,
        Formula::Signal(name) => signal_true(&steps[t], name),
        Formula::Present(name) => steps[t].is_present(name),
        Formula::Raised(pattern) => raised_signal(pattern, &steps[t]).is_some(),
        Formula::Not(a) => !eval(a, steps, t),
        Formula::And(a, b) => eval(a, steps, t) && eval(b, steps, t),
        Formula::Or(a, b) => eval(a, steps, t) || eval(b, steps, t),
        Formula::Implies(a, b) => !eval(a, steps, t) || eval(b, steps, t),
        Formula::Previously(a) => t > 0 && eval(a, steps, t - 1),
        Formula::Once(a) => (0..=t).any(|j| eval(a, steps, j)),
        Formula::Historically(a) => (0..=t).all(|j| eval(a, steps, j)),
        Formula::Since(a, b) => {
            (0..=t).any(|j| eval(b, steps, j) && (j + 1..=t).all(|i| eval(a, steps, i)))
        }
        Formula::Within {
            trigger,
            response,
            bound,
        } => {
            // Forward scan of the deadline automaton over the prefix:
            // `pending = Some(k)` means an unanswered trigger's deadline
            // passes in `k` more instants.
            let mut pending: Option<u32> = None;
            let mut holds = true;
            for i in 0..=t {
                let trig = eval(trigger, steps, i);
                let resp = eval(response, steps, i);
                let mut expired = false;
                if let Some(k) = pending {
                    pending = if resp {
                        None
                    } else if k == 1 {
                        expired = true;
                        None
                    } else {
                        Some(k - 1)
                    };
                }
                if !expired && trig && !resp && pending.is_none() {
                    if *bound == 0 {
                        expired = true;
                    } else {
                        pending = Some(*bound);
                    }
                }
                holds = !expired;
            }
            holds
        }
    }
}

/// The first instant of `steps` at which `invariant` is false, by the
/// reference semantics of [`eval`] (`None` when the invariant holds
/// throughout).
pub fn first_violation(invariant: &Formula, steps: &[TraceStep]) -> Option<usize> {
    (0..steps.len()).find(|&t| !eval(invariant, steps, t))
}

/// A syntax error in a property expression, with the offending byte span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte range of the offending token (or the end of input).
    pub span: (usize, usize),
    /// The source text the span refers to.
    pub source: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (start, end) = self.span;
        writeln!(f, "{} at {}..{}", self.message, start, end)?;
        writeln!(f, "  {}", self.source)?;
        let width = end.saturating_sub(start).max(1);
        write!(f, "  {}{}", " ".repeat(start), "^".repeat(width))
    }
}

impl std::error::Error for ParseError {}

/// One lexical token of the surface syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Int(u32),
    LParen,
    RParen,
    Always,
    Never,
    Not,
    And,
    Or,
    Implies,
    Since,
    Once,
    Previously,
    Historically,
    Within,
    Present,
    Raised,
    True,
    False,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(name) => format!("`{name}`"),
            Token::Int(n) => format!("`{n}`"),
            Token::LParen => "`(`".to_string(),
            Token::RParen => "`)`".to_string(),
            Token::Always => "`always`".to_string(),
            Token::Never => "`never`".to_string(),
            Token::Not => "`not`".to_string(),
            Token::And => "`and`".to_string(),
            Token::Or => "`or`".to_string(),
            Token::Implies => "`implies`".to_string(),
            Token::Since => "`since`".to_string(),
            Token::Once => "`once`".to_string(),
            Token::Previously => "`previously`".to_string(),
            Token::Historically => "`historically`".to_string(),
            Token::Within => "`within`".to_string(),
            Token::Present => "`present`".to_string(),
            Token::Raised => "`raised`".to_string(),
            Token::True => "`true`".to_string(),
            Token::False => "`false`".to_string(),
        }
    }
}

/// Characters of identifier / pattern tokens: signal names use letters,
/// digits, `_` and `.`; glob patterns additionally use `*`.
fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '*'
}

/// A token with its byte span in the source text.
type SpannedToken = (Token, (usize, usize));

fn lex(source: &str) -> Result<Vec<SpannedToken>, ParseError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == '(' {
            tokens.push((Token::LParen, (i, i + 1)));
            i += 1;
            continue;
        }
        if c == ')' {
            tokens.push((Token::RParen, (i, i + 1)));
            i += 1;
            continue;
        }
        if is_word_char(c) {
            let start = i;
            while i < bytes.len() && is_word_char(bytes[i] as char) {
                i += 1;
            }
            let word = &source[start..i];
            let span = (start, i);
            let token = match word {
                "always" => Token::Always,
                "never" => Token::Never,
                "not" => Token::Not,
                "and" => Token::And,
                "or" => Token::Or,
                "implies" => Token::Implies,
                "since" => Token::Since,
                "once" => Token::Once,
                "previously" => Token::Previously,
                "historically" => Token::Historically,
                "within" => Token::Within,
                "present" => Token::Present,
                "raised" => Token::Raised,
                "true" => Token::True,
                "false" => Token::False,
                _ if word.chars().all(|c| c.is_ascii_digit()) => {
                    let value = word.parse().map_err(|_| ParseError {
                        message: format!("integer `{word}` is out of range"),
                        span,
                        source: source.to_string(),
                    })?;
                    Token::Int(value)
                }
                _ => Token::Ident(word.to_string()),
            };
            tokens.push((token, span));
            continue;
        }
        return Err(ParseError {
            message: format!("unexpected character `{c}`"),
            span: (i, i + 1),
            source: source.to_string(),
        });
    }
    Ok(tokens)
}

/// Recursive-descent parser over the token stream.
struct Parser {
    source: String,
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn new(source: &str) -> Result<Self, ParseError> {
        Ok(Self {
            source: source.to_string(),
            tokens: lex(source)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn advance(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Span of the current token, or a zero-width span at end of input.
    fn here(&self) -> (usize, usize) {
        match self.tokens.get(self.pos) {
            Some((_, span)) => *span,
            None => {
                let end = self.source.len();
                (end, end)
            }
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.here(),
            source: self.source.clone(),
        }
    }

    fn expected(&self, what: &str) -> ParseError {
        match self.tokens.get(self.pos) {
            Some((token, _)) => self.error(format!("expected {what}, found {}", token.describe())),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    fn property(mut self) -> Result<LtlProperty, ParseError> {
        let invariant = if self.eat(&Token::Always) {
            self.formula()?
        } else if self.eat(&Token::Never) {
            Formula::not(self.formula()?)
        } else {
            // A bare formula is an implicit `always`.
            self.formula()?
        };
        if self.pos < self.tokens.len() {
            return Err(self.expected("end of input"));
        }
        Ok(LtlProperty {
            expr: self.source.trim().to_string(),
            invariant,
        })
    }

    /// A complete formula; a trailing `within` here is not attached to a
    /// bounded response and gets a dedicated error.
    fn formula(&mut self) -> Result<Formula, ParseError> {
        let formula = self.implication()?;
        if self.peek() == Some(&Token::Within) {
            return Err(self.error(
                "`within` only follows a bounded response `trigger implies response within N`",
            ));
        }
        Ok(formula)
    }

    /// `implication := disjunction [ "implies" implication [ "within" INT ] ]`
    fn implication(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.disjunction()?;
        if self.eat(&Token::Implies) {
            let rhs = self.implication()?;
            if self.eat(&Token::Within) {
                let bound = self.integer()?;
                return Ok(Formula::within(lhs, rhs, bound));
            }
            return Ok(Formula::implies(lhs, rhs));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.conjunction()?;
        while self.eat(&Token::Or) {
            lhs = Formula::or(lhs, self.conjunction()?);
        }
        Ok(lhs)
    }

    fn conjunction(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.since_level()?;
        while self.eat(&Token::And) {
            lhs = Formula::and(lhs, self.since_level()?);
        }
        Ok(lhs)
    }

    fn since_level(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.unary()?;
        while self.eat(&Token::Since) {
            lhs = Formula::since(lhs, self.unary()?);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        if self.eat(&Token::Not) {
            return Ok(Formula::not(self.unary()?));
        }
        if self.eat(&Token::Once) {
            return Ok(Formula::once(self.unary()?));
        }
        if self.eat(&Token::Previously) {
            return Ok(Formula::previously(self.unary()?));
        }
        if self.eat(&Token::Historically) {
            return Ok(Formula::historically(self.unary()?));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Formula, ParseError> {
        let span = self.here();
        match self.advance() {
            Some(Token::LParen) => {
                let inner = self.formula()?;
                if !self.eat(&Token::RParen) {
                    return Err(self.expected("`)`"));
                }
                Ok(inner)
            }
            Some(Token::True) => Ok(Formula::Const(true)),
            Some(Token::False) => Ok(Formula::Const(false)),
            Some(Token::Present) => {
                let name = self.parenthesized_word("signal name")?;
                if name.contains('*') {
                    return Err(ParseError {
                        message: "glob patterns are only allowed in raised(...)".to_string(),
                        span,
                        source: self.source.clone(),
                    });
                }
                Ok(Formula::present(name))
            }
            Some(Token::Raised) => Ok(Formula::raised(self.parenthesized_word("glob pattern")?)),
            Some(Token::Ident(name)) => {
                if name.contains('*') {
                    return Err(ParseError {
                        message: format!(
                            "glob pattern `{name}` is only allowed in raised(...); \
                             use raised({name})"
                        ),
                        span,
                        source: self.source.clone(),
                    });
                }
                Ok(Formula::signal(name))
            }
            Some(other) => Err(ParseError {
                message: format!("expected a formula, found {}", other.describe()),
                span,
                source: self.source.clone(),
            }),
            None => Err(ParseError {
                message: "expected a formula, found end of input".to_string(),
                span,
                source: self.source.clone(),
            }),
        }
    }

    fn integer(&mut self) -> Result<u32, ParseError> {
        match self.peek() {
            Some(Token::Int(_)) => {
                let Some(Token::Int(value)) = self.advance() else {
                    unreachable!("peeked an integer");
                };
                Ok(value)
            }
            _ => Err(self.expected("an integer bound")),
        }
    }

    /// `( WORD )` — the argument of `present(...)` / `raised(...)`.
    fn parenthesized_word(&mut self, what: &str) -> Result<String, ParseError> {
        if !self.eat(&Token::LParen) {
            return Err(self.expected("`(`"));
        }
        let word = match self.peek() {
            Some(Token::Ident(_)) => {
                let Some(Token::Ident(word)) = self.advance() else {
                    unreachable!("peeked an identifier");
                };
                word
            }
            _ => return Err(self.expected(what)),
        };
        if !self.eat(&Token::RParen) {
            return Err(self.expected("`)`"));
        }
        Ok(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::value::Value;

    fn parse(src: &str) -> LtlProperty {
        LtlProperty::parse(src).unwrap_or_else(|e| panic!("parse `{src}`:\n{e}"))
    }

    #[test]
    fn parses_the_issue_grammar() {
        assert_eq!(
            parse("never raised(*Alarm*)").invariant(),
            &Formula::not(Formula::raised("*Alarm*"))
        );
        assert_eq!(
            parse("always (Deadline implies Resume within 2)").invariant(),
            &Formula::within(Formula::signal("Deadline"), Formula::signal("Resume"), 2)
        );
        assert_eq!(
            parse("always (Alarm implies once Deadline)").invariant(),
            &Formula::implies(
                Formula::signal("Alarm"),
                Formula::once(Formula::signal("Deadline"))
            )
        );
        assert_eq!(
            parse("always (Run implies (not Stop since Start))").invariant(),
            &Formula::implies(
                Formula::signal("Run"),
                Formula::since(
                    Formula::not(Formula::signal("Stop")),
                    Formula::signal("Start")
                )
            )
        );
        // A bare formula is an implicit `always`.
        assert_eq!(
            parse("present(tick) or true").invariant(),
            &Formula::or(Formula::present("tick"), Formula::Const(true))
        );
    }

    #[test]
    fn precedence_binds_not_tighter_than_and_tighter_than_or() {
        assert_eq!(
            parse("not a and b or c").invariant(),
            &Formula::or(
                Formula::and(Formula::not(Formula::signal("a")), Formula::signal("b")),
                Formula::signal("c")
            )
        );
        // `implies` is right-associative and loosest.
        assert_eq!(
            parse("a implies b implies c").invariant(),
            &Formula::implies(
                Formula::signal("a"),
                Formula::implies(Formula::signal("b"), Formula::signal("c"))
            )
        );
        // `since` is left-associative and binds tighter than `and`.
        assert_eq!(
            parse("a since b since c and d").invariant(),
            &Formula::and(
                Formula::since(
                    Formula::since(Formula::signal("a"), Formula::signal("b")),
                    Formula::signal("c")
                ),
                Formula::signal("d")
            )
        );
    }

    #[test]
    fn rendering_round_trips() {
        for src in [
            "never raised(*Alarm*)",
            "always (Deadline implies Resume within 2)",
            "always (a implies b within 0)",
            "not a and b or c",
            "a implies b implies c",
            "(a or b) and not (c since d)",
            "historically (previously a implies once b)",
            "always (Run implies (not Stop since Start))",
        ] {
            let parsed = parse(src);
            let rendered = format!("always {}", parsed.invariant());
            let reparsed = parse(&rendered);
            assert_eq!(
                parsed.invariant(),
                reparsed.invariant(),
                "`{src}` -> `{rendered}`"
            );
        }
    }

    #[test]
    fn errors_carry_the_offending_span() {
        let err = LtlProperty::parse("always (Deadline implies").unwrap_err();
        assert!(err.message.contains("expected a formula"), "{err}");
        assert_eq!(err.span, (err.source.len(), err.source.len()), "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains('^'), "{rendered}");

        let err = LtlProperty::parse("always Deadline nonsense here").unwrap_err();
        assert!(err.message.contains("expected end of input"), "{err}");
        assert_eq!(&err.source[err.span.0..err.span.1], "nonsense");

        let err = LtlProperty::parse("*Alarm* and b").unwrap_err();
        assert!(err.message.contains("raised("), "{err}");

        let err = LtlProperty::parse("a within 3").unwrap_err();
        assert!(err.message.contains("bounded response"), "{err}");

        let err = LtlProperty::parse("a ? b").unwrap_err();
        assert!(err.message.contains("unexpected character"), "{err}");

        let err = LtlProperty::parse("always (a implies b within x)").unwrap_err();
        assert!(err.message.contains("integer bound"), "{err}");
    }

    fn step(pairs: &[(&str, bool)]) -> TraceStep {
        let mut s = TraceStep::new();
        for (name, value) in pairs {
            s.set(*name, Value::Bool(*value));
        }
        s
    }

    #[test]
    fn reference_semantics_of_the_past_operators() {
        let steps = vec![
            step(&[("a", true)]),
            step(&[("b", true)]),
            step(&[]),
            step(&[("a", true), ("b", true)]),
        ];
        let a = Formula::signal("a");
        let b = Formula::signal("b");
        // previously
        let prev_a = Formula::previously(a.clone());
        assert!(!eval(&prev_a, &steps, 0));
        assert!(eval(&prev_a, &steps, 1));
        assert!(!eval(&prev_a, &steps, 2));
        // once / historically
        let once_b = Formula::once(b.clone());
        assert!(!eval(&once_b, &steps, 0));
        assert!(eval(&once_b, &steps, 1));
        assert!(eval(&once_b, &steps, 3));
        let hist = Formula::historically(Formula::or(a.clone(), b.clone()));
        assert!(eval(&hist, &steps, 1));
        assert!(!eval(&hist, &steps, 2));
        assert!(!eval(&hist, &steps, 3));
        // since: `not a since b` — b seen, and no a after it.
        let since = Formula::since(Formula::not(a.clone()), b.clone());
        assert!(!eval(&since, &steps, 0));
        assert!(eval(&since, &steps, 1));
        assert!(eval(&since, &steps, 2));
        assert!(eval(&since, &steps, 3), "b holds again at instant 3");
    }

    #[test]
    fn reference_semantics_of_within() {
        let trig = Formula::signal("t");
        let resp = Formula::signal("r");
        let w = |bound| Formula::within(trig.clone(), resp.clone(), bound);
        // trigger at 0, response at 2: within 2 holds, within 1 fails at 1.
        let steps = vec![step(&[("t", true)]), step(&[]), step(&[("r", true)])];
        assert!(eval(&w(2), &steps, 0));
        assert!(eval(&w(2), &steps, 1));
        assert!(eval(&w(2), &steps, 2));
        assert!(!eval(&w(1), &steps, 1));
        assert_eq!(first_violation(&w(1), &steps), Some(1));
        assert_eq!(first_violation(&w(2), &steps), None);
        // bound 0 requires a same-instant response.
        let both = vec![step(&[("t", true), ("r", true)])];
        assert!(eval(&w(0), &both, 0));
        let alone = vec![step(&[("t", true)])];
        assert!(!eval(&w(0), &alone, 0));
    }

    #[test]
    fn display_parenthesizes_only_where_needed() {
        assert_eq!(
            parse("(a or b) and c").invariant().to_string(),
            "(a or b) and c"
        );
        assert_eq!(
            parse("a or (b and c)").invariant().to_string(),
            "a or b and c"
        );
        assert_eq!(
            parse("always (a implies b within 4)")
                .invariant()
                .to_string(),
            "a implies b within 4"
        );
    }
}
