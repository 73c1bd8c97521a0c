//! A denotational evaluator for flat SIGNAL processes over multi-clock
//! traces.
//!
//! The evaluator executes the kernel operators with their polychronous
//! semantics (Section III of the paper): at each logical instant it resolves
//! the presence and value of every signal from the provided input step, using
//! a fixpoint over the equations, then commits the state of `delay` and
//! `cell` operators. It is used to validate the AADL-to-SIGNAL translation
//! (input freezing, port FIFOs, shared data) and as the kernel of the
//! simulator crate.
//!
//! Internally the evaluator is *compiled*: at construction every signal name
//! is interned to a dense `u32` id, every equation expression is lowered to
//! a `CExpr` mirror whose variables are ids and whose `delay`/`cell`
//! operators carry their state-table index directly, and the per-instant
//! environment is a reusable `Vec<Res>` indexed by id. This removes the
//! string-keyed map rebuild that used to dominate the model checker's hot
//! path; the public API (name-keyed [`TraceStep`]s in and out) is unchanged,
//! and [`Evaluator::step_resolved`] additionally exposes the resolved
//! instant as a borrow-only [`ResolvedStep`] so explorers can skip the
//! `TraceStep` materialisation entirely. Callers that resolve names once
//! can step with input ids ([`Evaluator::step_ids`]) and read signals by
//! id ([`ResolvedStep::value_at`]) through the same step body.
//!
//! The fixpoint is *change-driven*: each equation records the ids it reads,
//! and a pass re-evaluates only the equations that read a slot changed since
//! their last evaluation, in the same source order, with the same `changed`
//! flag and pass cap as the full fixpoint. The post-fixpoint re-check and
//! the commit of operator states are likewise limited to the equations the
//! instant can affect. [`Evaluator::step_reference`] keeps the full
//! fixpoint as the oracle the differential tests compare against.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::SignalError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::process::{Equation, Process};
use crate::trace::{Trace, TraceStep};
use crate::value::{Value, ValueType};
use crate::view::InstantView;

/// Resolution of a signal (or sub-expression) at an instant.
#[derive(Debug, Clone, PartialEq)]
enum Res {
    /// Not yet determined.
    Unknown,
    /// Known absent.
    Absent,
    /// Known present, value not yet determined (e.g. propagated through a
    /// clock constraint before the defining equation could be computed).
    PresentUnknown,
    /// Known present with a value.
    Present(Value),
    /// A constant: present at whatever clock the context requires.
    Any(Value),
}

impl Res {
    fn known(&self) -> bool {
        !matches!(self, Res::Unknown)
    }

    fn is_present(&self) -> bool {
        matches!(self, Res::Present(_) | Res::Any(_) | Res::PresentUnknown)
    }

    fn value(&self) -> Option<&Value> {
        match self {
            Res::Present(v) | Res::Any(v) => Some(v),
            _ => None,
        }
    }
}

/// State of one stateful operator (`delay` or `cell`) in the process body.
#[derive(Debug, Clone)]
struct OperatorState {
    current: Value,
    pending: Option<Value>,
}

/// An equation expression compiled against the signal-id table: variables
/// are dense ids and stateful operators carry their state-table slot, so
/// evaluation needs neither name lookups nor a pre-order cursor.
#[derive(Debug, Clone)]
enum CExpr {
    Var(u32),
    Const(Value),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Delay(usize, Box<CExpr>),
    When(Box<CExpr>, Box<CExpr>),
    Default(Box<CExpr>, Box<CExpr>),
    Cell(usize, Box<CExpr>, Box<CExpr>),
    ClockOf(Box<CExpr>),
    ClockWhen(Box<CExpr>),
}

/// One compiled equation.
#[derive(Debug, Clone)]
enum CEq {
    Def {
        target: u32,
        expr: CExpr,
    },
    Partial {
        target: u32,
        expr: CExpr,
    },
    /// `label` is the pre-joined signal list for the error message.
    Sync {
        signals: Vec<u32>,
        label: String,
    },
    Excl {
        signals: Vec<u32>,
        label: String,
    },
}

/// Evaluator of a flat [`Process`] (no sub-process instances; use
/// [`crate::process::ProcessModel::flatten`] first).
///
/// ```
/// use signal_moc::builder::ProcessBuilder;
/// use signal_moc::eval::Evaluator;
/// use signal_moc::expr::Expr;
/// use signal_moc::trace::{Trace, TraceStep};
/// use signal_moc::value::{Value, ValueType};
///
/// let mut b = ProcessBuilder::new("counter");
/// b.input("tick", ValueType::Event);
/// b.output("count", ValueType::Integer);
/// b.define("count", Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)));
/// b.synchronize(&["count", "tick"]);
/// let process = b.build()?;
///
/// let mut inputs = Trace::new();
/// for t in 0..3 { inputs.set(t, "tick", Value::Event); }
/// let mut eval = Evaluator::new(&process)?;
/// let out = eval.run(&inputs)?;
/// assert_eq!(out.flow_of("count"), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
/// # Ok::<(), signal_moc::SignalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Shared by clones, so a worker context's copy does not deep-copy
    /// the process.
    process: Arc<Process>,
    states: Vec<OperatorState>,
    /// Initial memory, for [`Evaluator::reset`].
    initial: Vec<Value>,
    /// id → name; the first `decl_count` ids are `process.signals` in
    /// declaration order, any extra names found in equations follow.
    names: Vec<String>,
    /// name → id.
    ids: HashMap<String, u32>,
    /// Ids sorted by name, for name-ordered iteration ([`ResolvedStep`]).
    sorted_ids: Vec<u32>,
    /// Number of declared signals (prefix of `names`).
    decl_count: usize,
    /// Declared type per declared id.
    decl_ty: Vec<ValueType>,
    /// Whether the declared id is an input.
    is_input: Vec<bool>,
    /// Input ids in `process.inputs()` order.
    input_ids: Vec<u32>,
    /// Input ids sorted by name, merge-joined with a step's sorted entries.
    inputs_by_name: Vec<u32>,
    /// Whether the id has a total definition (for the partial discipline).
    has_total: Vec<bool>,
    /// Compiled equations, in source order.
    ceqs: Vec<CEq>,
    /// The equations that read each id.
    readers: Readers,
    /// Per equation: whether its expression reads its own target.
    reads_target: Vec<bool>,
    /// Per equation: whether it is dirty when an instant starts — it reads
    /// an input, or it may resolve something while every other signal is
    /// still unknown.
    initial_dirty: Vec<bool>,
    /// Equations containing a `delay` or `cell`, in source order: the only
    /// ones a commit visits.
    memory_eqs: Vec<u32>,
    /// Partially defined signals that need a firing partial when present
    /// (neither inputs nor totally defined), each with its partial
    /// equations.
    partial_checks: Vec<(u32, Vec<u32>)>,
    /// Reusable per-instant environment, indexed by id.
    env: Vec<Res>,
    /// Per-instant scratch, per equation: whether a slot it reads changed
    /// since its last evaluation.
    dirty: Vec<bool>,
    /// Per-instant scratch, per partial equation: whether its last result
    /// was present.
    fired: Vec<bool>,
    work: EvalWork,
}

/// The inputs of one instant: a name-keyed step, or present input ids
/// with their values.
#[derive(Clone, Copy)]
enum Inputs<'a> {
    Named(&'a TraceStep),
    Ids(&'a [(u32, Value)]),
}

/// Pass cap of the fixpoint: a process still changing after this many
/// passes is completed as it stands.
const MAX_PASSES: usize = 64;

/// Errors of the expression layer are boxed so that the `Result` every
/// node returns stays small; they are unboxed at the step boundary.
type EvalResult<T> = Result<T, Box<SignalError>>;

/// Deterministic work counts of an [`Evaluator`]: the same inputs give the
/// same counts on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalWork {
    /// Instants stepped, successful or not.
    pub instants: u64,
    /// Fixpoint passes run.
    pub passes: u64,
    /// Equation evaluations: in the fixpoint, in the post-completion
    /// re-check and in the commit of operator states.
    pub equations: u64,
}

impl std::ops::Add for EvalWork {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            instants: self.instants + other.instants,
            passes: self.passes + other.passes,
            equations: self.equations + other.equations,
        }
    }
}

/// The equations that read each signal id, as one flat table: the readers
/// of id `s` are `eqs[start[s]..start[s + 1]]`, in source order.
#[derive(Debug, Clone)]
struct Readers {
    start: Vec<u32>,
    eqs: Vec<u32>,
}

impl Readers {
    /// Inverts `reads`, the ids each equation reads (without duplicates).
    fn new(reads: &[Vec<u32>], ids: usize) -> Self {
        let mut start = vec![0u32; ids + 1];
        for ids_read in reads {
            for &id in ids_read {
                start[id as usize + 1] += 1;
            }
        }
        for i in 0..ids {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut eqs = vec![0u32; start[ids] as usize];
        for (e, ids_read) in reads.iter().enumerate() {
            for &id in ids_read {
                eqs[fill[id as usize] as usize] = e as u32;
                fill[id as usize] += 1;
            }
        }
        Self { start, eqs }
    }

    /// Marks every reader of `id` but `except` dirty.
    fn mark(&self, dirty: &mut [bool], id: u32, except: usize) {
        let range = self.start[id as usize] as usize..self.start[id as usize + 1] as usize;
        for &e in &self.eqs[range] {
            if e as usize != except {
                dirty[e as usize] = true;
            }
        }
    }
}

/// Name interner used during compilation.
struct Interner<'a> {
    ids: &'a mut HashMap<String, u32>,
    names: &'a mut Vec<String>,
}

impl Interner<'_> {
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

fn compile_expr(
    expr: &Expr,
    interner: &mut Interner<'_>,
    states: &mut Vec<OperatorState>,
) -> CExpr {
    match expr {
        Expr::Var(name) => CExpr::Var(interner.id(name)),
        Expr::Const(v) => CExpr::Const(v.clone()),
        Expr::Unary(op, e) => CExpr::Unary(*op, Box::new(compile_expr(e, interner, states))),
        Expr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, interner, states)),
            Box::new(compile_expr(b, interner, states)),
        ),
        Expr::Delay(e, init) => {
            let idx = states.len();
            states.push(OperatorState {
                current: init.clone(),
                pending: None,
            });
            CExpr::Delay(idx, Box::new(compile_expr(e, interner, states)))
        }
        Expr::When(e, b) => CExpr::When(
            Box::new(compile_expr(e, interner, states)),
            Box::new(compile_expr(b, interner, states)),
        ),
        Expr::Default(u, v) => CExpr::Default(
            Box::new(compile_expr(u, interner, states)),
            Box::new(compile_expr(v, interner, states)),
        ),
        Expr::Cell(i, b, init) => {
            let idx = states.len();
            states.push(OperatorState {
                current: init.clone(),
                pending: None,
            });
            CExpr::Cell(
                idx,
                Box::new(compile_expr(i, interner, states)),
                Box::new(compile_expr(b, interner, states)),
            )
        }
        Expr::ClockOf(e) => CExpr::ClockOf(Box::new(compile_expr(e, interner, states))),
        Expr::ClockWhen(b) => CExpr::ClockWhen(Box::new(compile_expr(b, interner, states))),
    }
}

/// Collects the signal ids `expr` reads.
fn vars_of(expr: &CExpr, out: &mut Vec<u32>) {
    match expr {
        CExpr::Var(id) => out.push(*id),
        CExpr::Const(_) => {}
        CExpr::Unary(_, e) | CExpr::Delay(_, e) | CExpr::ClockOf(e) | CExpr::ClockWhen(e) => {
            vars_of(e, out)
        }
        CExpr::Binary(_, a, b)
        | CExpr::When(a, b)
        | CExpr::Default(a, b)
        | CExpr::Cell(_, a, b) => {
            vars_of(a, out);
            vars_of(b, out);
        }
    }
}

/// The graph [`Evaluator::slots_reaching`] searches, gathered in one walk
/// over the compiled equations.
struct Cone {
    /// Per signal id: the ids its definitions read.
    sources: Vec<Vec<u32>>,
    /// Per signal id: whether an observation depends on its value.
    marked: Vec<bool>,
    /// Per slot: the target of its equation, and whether the operator's
    /// own result is read in a presence-deciding or divisor position.
    slots: Vec<(u32, bool)>,
}

impl Cone {
    /// Records every id `expr` reads as a source of `target`; `pinned` is
    /// set below a presence-deciding or divisor position, and marks what
    /// is read there.
    fn walk(&mut self, expr: &CExpr, target: u32, pinned: bool) {
        match expr {
            CExpr::Var(id) => {
                self.sources[target as usize].push(*id);
                self.marked[*id as usize] |= pinned;
            }
            CExpr::Const(_) => {}
            CExpr::Unary(_, e) => self.walk(e, target, pinned),
            CExpr::Binary(op, a, b) => {
                self.walk(a, target, pinned);
                let divisor = matches!(op, BinOp::Div | BinOp::Mod);
                self.walk(b, target, pinned || divisor);
            }
            CExpr::Delay(slot, e) => {
                self.slots[*slot] = (target, pinned);
                self.walk(e, target, pinned);
            }
            CExpr::When(e, b) => {
                self.walk(e, target, pinned);
                self.walk(b, target, true);
            }
            CExpr::Default(u, v) => {
                self.walk(u, target, pinned);
                self.walk(v, target, pinned);
            }
            CExpr::Cell(slot, i, b) => {
                self.slots[*slot] = (target, pinned);
                self.walk(i, target, pinned);
                self.walk(b, target, true);
            }
            // Clock expressions only observe presence, but what feeds them
            // sits one `when` away from feasibility.
            CExpr::ClockOf(e) | CExpr::ClockWhen(e) => self.walk(e, target, true),
        }
    }
}

/// Whether `expr` contains a `delay` or `cell`.
fn has_memory(expr: &CExpr) -> bool {
    match expr {
        CExpr::Delay(..) | CExpr::Cell(..) => true,
        CExpr::Var(_) | CExpr::Const(_) => false,
        CExpr::Unary(_, e) | CExpr::ClockOf(e) | CExpr::ClockWhen(e) => has_memory(e),
        CExpr::Binary(_, a, b) | CExpr::When(a, b) | CExpr::Default(a, b) => {
            has_memory(a) || has_memory(b)
        }
    }
}

/// The result of `expr` when every variable is `Unknown`, if it raises no
/// error and does not depend on the operator memory; `None` otherwise.
fn eval_all_unknown(expr: &CExpr) -> Option<Res> {
    Some(match expr {
        CExpr::Var(_) => Res::Unknown,
        CExpr::Const(v) => Res::Any(v.clone()),
        CExpr::Unary(op, e) => apply_unary(*op, &eval_all_unknown(e)?).ok()?,
        CExpr::Binary(op, a, b) => {
            apply_binary(*op, &eval_all_unknown(a)?, &eval_all_unknown(b)?, 0).ok()?
        }
        CExpr::Delay(_, e) => match eval_all_unknown(e)? {
            res @ (Res::Unknown | Res::Absent) => res,
            // A present operand yields the memory.
            _ => return None,
        },
        CExpr::When(e, b) => when_result(&eval_all_unknown(e)?, &eval_all_unknown(b)?),
        CExpr::Default(u, v) => default_result(&eval_all_unknown(u)?, &eval_all_unknown(v)?),
        CExpr::Cell(_, i, b) => {
            let (i, b) = (eval_all_unknown(i)?, eval_all_unknown(b)?);
            if matches!(i, Res::Absent) && b.value().is_some_and(Value::as_bool) {
                // An absent operand sampled true yields the memory.
                return None;
            }
            cell_result(&i, &b, &Value::Event)
        }
        CExpr::ClockOf(e) => clock_of_result(&eval_all_unknown(e)?),
        CExpr::ClockWhen(b) => clock_when_result(&eval_all_unknown(b)?),
    })
}

/// Whether `res` carries a NaN, the one value that is not equal to itself.
fn is_nan(res: &Res) -> bool {
    matches!(res.value(), Some(Value::Real(r)) if r.is_nan())
}

impl Evaluator {
    /// Prepares an evaluator for `process`.
    ///
    /// # Errors
    ///
    /// Returns an error if the process contains sub-process instances (it
    /// must be flattened first) or fails validation.
    pub fn new(process: &Process) -> Result<Self, SignalError> {
        process.validate()?;
        if process
            .equations
            .iter()
            .any(|eq| matches!(eq, Equation::Instance { .. }))
        {
            return Err(SignalError::UnknownProcess(format!(
                "process `{}` must be flattened before evaluation",
                process.name
            )));
        }

        let mut names: Vec<String> = Vec::with_capacity(process.signals.len());
        let mut ids: HashMap<String, u32> = HashMap::with_capacity(process.signals.len());
        let mut decl_ty = Vec::with_capacity(process.signals.len());
        let mut is_input = Vec::with_capacity(process.signals.len());
        for decl in &process.signals {
            let id = names.len() as u32;
            names.push(decl.name.clone());
            ids.insert(decl.name.clone(), id);
            decl_ty.push(decl.ty);
            is_input.push(decl.role == crate::process::SignalRole::Input);
        }
        let decl_count = names.len();
        let input_ids: Vec<u32> = process.inputs().map(|d| ids[&d.name]).collect();

        let mut states = Vec::new();
        let mut ceqs = Vec::with_capacity(process.equations.len());
        {
            let mut interner = Interner {
                ids: &mut ids,
                names: &mut names,
            };
            for eq in &process.equations {
                match eq {
                    Equation::Definition { target, expr } => ceqs.push(CEq::Def {
                        target: interner.id(target),
                        expr: compile_expr(expr, &mut interner, &mut states),
                    }),
                    Equation::PartialDefinition { target, expr } => ceqs.push(CEq::Partial {
                        target: interner.id(target),
                        expr: compile_expr(expr, &mut interner, &mut states),
                    }),
                    Equation::ClockConstraint { signals } => ceqs.push(CEq::Sync {
                        signals: signals.iter().map(|s| interner.id(s)).collect(),
                        label: signals.join(" ^= "),
                    }),
                    Equation::ClockExclusion { signals } => ceqs.push(CEq::Excl {
                        signals: signals.iter().map(|s| interner.id(s)).collect(),
                        label: signals.join(" # "),
                    }),
                    Equation::Instance { .. } => unreachable!("rejected above"),
                }
            }
        }

        let mut has_total = vec![false; names.len()];
        for ceq in &ceqs {
            if let CEq::Def { target, .. } = ceq {
                has_total[*target as usize] = true;
            }
        }
        let mut sorted_ids: Vec<u32> = (0..names.len() as u32).collect();
        sorted_ids.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        let inputs_by_name: Vec<u32> = sorted_ids
            .iter()
            .copied()
            .filter(|&id| (id as usize) < decl_count && is_input[id as usize])
            .collect();

        // What each equation reads: the variables of its expression plus its
        // target (a merge depends on the target's slot), or the members of a
        // clock constraint. Exclusions act only after the fixpoint.
        let mut reads: Vec<Vec<u32>> = Vec::with_capacity(ceqs.len());
        let mut reads_target = Vec::with_capacity(ceqs.len());
        let mut initial_dirty = Vec::with_capacity(ceqs.len());
        let mut memory_eqs = Vec::new();
        for (e, ceq) in ceqs.iter().enumerate() {
            let mut ids_read = Vec::new();
            let mut starts_clean = true;
            match ceq {
                CEq::Def { target, expr } | CEq::Partial { target, expr } => {
                    vars_of(expr, &mut ids_read);
                    reads_target.push(ids_read.contains(target));
                    ids_read.push(*target);
                    starts_clean = eval_all_unknown(expr) == Some(Res::Unknown);
                    if has_memory(expr) {
                        memory_eqs.push(e as u32);
                    }
                }
                CEq::Sync { signals, .. } => {
                    ids_read.extend_from_slice(signals);
                    reads_target.push(false);
                }
                CEq::Excl { .. } => reads_target.push(false),
            }
            ids_read.sort_unstable();
            ids_read.dedup();
            let reads_input = ids_read
                .iter()
                .any(|&id| (id as usize) < decl_count && is_input[id as usize]);
            initial_dirty.push(!starts_clean || reads_input);
            reads.push(ids_read);
        }
        let readers = Readers::new(&reads, names.len());

        // Partially defined signals that must have a firing partial when
        // present (neither inputs nor totally defined), in first-occurrence
        // order, each with its partial equations.
        let mut partial_checks: Vec<(u32, Vec<u32>)> = Vec::new();
        for (e, ceq) in ceqs.iter().enumerate() {
            if let CEq::Partial { target, .. } = ceq {
                let id = *target as usize;
                if (id < decl_count && is_input[id]) || has_total[id] {
                    continue;
                }
                match partial_checks.iter_mut().find(|(t, _)| t == target) {
                    Some((_, eqs)) => eqs.push(e as u32),
                    None => partial_checks.push((*target, vec![e as u32])),
                }
            }
        }

        let initial: Vec<Value> = states.iter().map(|s| s.current.clone()).collect();
        let env = vec![Res::Unknown; names.len()];
        let equation_count = ceqs.len();
        Ok(Self {
            process: Arc::new(process.clone()),
            states,
            initial,
            names,
            ids,
            sorted_ids,
            decl_count,
            decl_ty,
            is_input,
            input_ids,
            inputs_by_name,
            has_total,
            ceqs,
            readers,
            reads_target,
            initial_dirty,
            memory_eqs,
            partial_checks,
            env,
            dirty: vec![false; equation_count],
            fired: vec![false; equation_count],
            work: EvalWork::default(),
        })
    }

    /// The process being evaluated.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The id of signal `name`: the index [`ResolvedStep::value_at`] and
    /// [`Evaluator::step_ids`] read. `None` for a name the process does not
    /// mention.
    pub fn signal_id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name of every signal, indexed by id.
    pub fn signal_names(&self) -> &[String] {
        &self.names
    }

    /// Every signal id, in name order: the order in which
    /// [`InstantView::first_present_matching`] visits a resolved step.
    pub fn ids_by_name(&self) -> &[u32] {
        &self.sorted_ids
    }

    /// Number of stateful (`delay`/`cell`) operators in the process body —
    /// the length of the memory vector returned by [`Evaluator::memory`].
    pub fn memory_len(&self) -> usize {
        self.states.len()
    }

    /// Snapshot of the current memory of every `delay`/`cell` operator, in
    /// the pre-order of the equations. Together with an input prefix this is
    /// the complete execution state of a flat process, which is what an
    /// explicit-state model checker needs to hash and restore.
    pub fn memory(&self) -> Vec<Value> {
        self.states.iter().map(|s| s.current.clone()).collect()
    }

    /// Writes the memory snapshot into `out` (cleared first), reusing its
    /// allocation — the model checker's per-successor variant of
    /// [`Evaluator::memory`].
    pub fn memory_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.states.iter().map(|s| s.current.clone()));
    }

    /// Restores a memory snapshot previously taken with
    /// [`Evaluator::memory`] (pending half-steps are discarded).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::TypeError`] when `memory` does not have exactly
    /// [`Evaluator::memory_len`] entries.
    pub fn restore_memory(&mut self, memory: &[Value]) -> Result<(), SignalError> {
        if memory.len() != self.states.len() {
            return Err(SignalError::TypeError {
                detail: format!(
                    "memory snapshot has {} entries, process `{}` has {} stateful operators",
                    memory.len(),
                    self.process.name,
                    self.states.len()
                ),
            });
        }
        for (st, v) in self.states.iter_mut().zip(memory) {
            st.current.clone_from(v);
            st.pending = None;
        }
        Ok(())
    }

    /// The initial memory of every `delay`/`cell` operator, in the order of
    /// [`Evaluator::memory`].
    pub fn initial_memory(&self) -> &[Value] {
        &self.initial
    }

    /// Per memory slot, in the order of [`Evaluator::memory`]: whether the
    /// slot's value can reach what an observation depends on. A signal is
    /// observed when `observed` accepts its name, when it is read in a
    /// presence-deciding position (a `when` condition, a `cell` trigger, a
    /// `^e` or `when b` clock expression) or as a divisor of `/` or `mod`,
    /// or when it has a partial or more than one definition; every signal
    /// an observed signal's definitions read is observed too. A slot
    /// reaches when the target of its equation is observed, or when its
    /// operator's own result sits in a presence-deciding or divisor
    /// position.
    pub fn slots_reaching(&self, observed: impl Fn(&str) -> bool) -> Vec<bool> {
        let mut cone = Cone {
            sources: vec![Vec::new(); self.names.len()],
            marked: self.names.iter().map(|name| observed(name)).collect(),
            slots: vec![(0, false); self.states.len()],
        };
        let mut defined = vec![false; self.names.len()];
        for ceq in &self.ceqs {
            let (target, expr, partial) = match ceq {
                CEq::Def { target, expr } => (*target, expr, false),
                CEq::Partial { target, expr } => (*target, expr, true),
                CEq::Sync { .. } | CEq::Excl { .. } => continue,
            };
            // A partial or second definition merges values at runtime.
            let second = std::mem::replace(&mut defined[target as usize], true);
            cone.marked[target as usize] |= partial || second;
            cone.walk(expr, target, false);
        }
        // Backward reachability: every signal a marked signal's
        // definitions read is marked too.
        let mut stack: Vec<u32> = (0..self.names.len() as u32)
            .filter(|&id| cone.marked[id as usize])
            .collect();
        while let Some(id) = stack.pop() {
            for &source in &cone.sources[id as usize] {
                if !std::mem::replace(&mut cone.marked[source as usize], true) {
                    stack.push(source);
                }
            }
        }
        cone.slots
            .iter()
            .map(|&(target, pinned)| pinned || cone.marked[target as usize])
            .collect()
    }

    /// Resets all `delay`/`cell` states to their initial values.
    pub fn reset(&mut self) {
        for (st, v) in self.states.iter_mut().zip(&self.initial) {
            st.current.clone_from(v);
            st.pending = None;
        }
    }

    /// The work this evaluator has done since it was created (clones carry
    /// the count of their original).
    pub fn work(&self) -> EvalWork {
        self.work
    }

    /// Executes the process for every instant of `inputs`, returning the
    /// complete trace (inputs, locals and outputs).
    ///
    /// # Errors
    ///
    /// Returns a [`SignalError`] if a synchronisation constraint is violated,
    /// a stepwise operator is applied to non-synchronous operands, a signal
    /// receives two different values at the same instant, or the process is
    /// not executable from the provided inputs.
    pub fn run(&mut self, inputs: &Trace) -> Result<Trace, SignalError> {
        let mut out = Trace::new();
        let empty = TraceStep::new();
        for t in 0..inputs.len() {
            let step = inputs.step(t).unwrap_or(&empty);
            let resolved = self.step(t, step)?;
            out.push(resolved);
        }
        Ok(out)
    }

    /// Executes a single instant given the input step, committing operator
    /// states, and returns the full resolved step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step(&mut self, instant: usize, input: &TraceStep) -> Result<TraceStep, SignalError> {
        self.step_commit(instant, Inputs::Named(input))?;
        Ok(self.materialize())
    }

    /// Executes a single instant like [`Evaluator::step`], but returns the
    /// resolved signals as a borrow-only [`ResolvedStep`] over the internal
    /// environment instead of materialising a [`TraceStep`]. The view stays
    /// valid (and unchanged) until the next step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step_resolved(
        &mut self,
        instant: usize,
        input: &TraceStep,
    ) -> Result<ResolvedStep<'_>, SignalError> {
        self.step_commit(instant, Inputs::Named(input))?;
        Ok(self.resolved())
    }

    /// Executes a single instant like [`Evaluator::step_resolved`], with
    /// the inputs given by id (see [`Evaluator::signal_id`]) instead of by
    /// name: the listed inputs are present with their values, every other
    /// input is absent. An id that is not an input is ignored, like an
    /// undeclared name in a [`TraceStep`]. Both front ends run the same
    /// step body, so they count the same [`Evaluator::work`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step_ids(
        &mut self,
        instant: usize,
        inputs: &[(u32, Value)],
    ) -> Result<ResolvedStep<'_>, SignalError> {
        self.step_commit(instant, Inputs::Ids(inputs))?;
        Ok(self.resolved())
    }

    /// Executes a single instant with the reference fixpoint: every
    /// equation is re-evaluated in source order until a pass changes
    /// nothing, then every definition is re-checked and every equation
    /// visited to commit operator states.
    ///
    /// This is the oracle the differential tests hold [`Evaluator::step`]
    /// to: both give the same resolved step, memory and error text on every
    /// input. Production callers use [`Evaluator::step`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::run`].
    pub fn step_reference(
        &mut self,
        instant: usize,
        input: &TraceStep,
    ) -> Result<TraceStep, SignalError> {
        let mut env = std::mem::take(&mut self.env);
        let result = self.reference_step_into(instant, input, &mut env);
        self.env = env;
        result.map_err(|e| *e)?;
        Ok(self.materialize())
    }

    /// The resolved view of the last executed instant (empty before the
    /// first step).
    pub fn resolved(&self) -> ResolvedStep<'_> {
        ResolvedStep {
            names: &self.names,
            ids: &self.ids,
            env: &self.env,
            sorted_ids: &self.sorted_ids,
        }
    }

    /// The present signals of the last executed instant as a [`TraceStep`].
    fn materialize(&self) -> TraceStep {
        let mut step = TraceStep::new();
        for (id, res) in self.env.iter().enumerate() {
            if let Res::Present(v) | Res::Any(v) = res {
                step.set(self.names[id].clone(), v.clone());
            }
        }
        step
    }

    /// Resolves one instant into `self.env` and commits operator states.
    fn step_commit(&mut self, instant: usize, input: Inputs<'_>) -> Result<(), SignalError> {
        let mut env = std::mem::take(&mut self.env);
        let result = self.step_into(instant, input, &mut env);
        self.env = env;
        result.map_err(|e| *e)
    }

    /// The change-driven instant: the reference's passes, restricted to the
    /// equations that read a slot changed since their last evaluation.
    fn step_into(
        &mut self,
        instant: usize,
        input: Inputs<'_>,
        env: &mut Vec<Res>,
    ) -> EvalResult<()> {
        self.work.instants += 1;
        env.clear();
        env.resize(self.names.len(), Res::Unknown);
        // Inputs are fully specified by the caller: absent unless given.
        match input {
            // A merge-join of the step's name-sorted entries with the
            // inputs sorted by name; undeclared names are ignored.
            Inputs::Named(step) => {
                let mut given = step.iter().peekable();
                for &id in &self.inputs_by_name {
                    let name = self.names[id as usize].as_str();
                    while given.next_if(|(n, _)| n.as_str() < name).is_some() {}
                    env[id as usize] = match given.next_if(|(n, _)| n.as_str() == name) {
                        Some((_, v)) => Res::Present(v.clone()),
                        None => Res::Absent,
                    };
                }
            }
            Inputs::Ids(given) => {
                for &id in &self.input_ids {
                    env[id as usize] = Res::Absent;
                }
                for (id, value) in given {
                    let id = *id as usize;
                    if id < self.decl_count && self.is_input[id] {
                        env[id] = Res::Present(value.clone());
                    }
                }
            }
        }

        self.fixpoint(env, instant)?;
        // Equations still dirty (the pass cap was hit) and readers of the
        // completed slots are the ones `verify` must re-check.
        let (readers, dirty) = (&self.readers, &mut self.dirty);
        complete(env, &self.decl_ty, &self.names, instant, |id| {
            readers.mark(dirty, id, usize::MAX)
        })?;
        self.verify(env, instant)?;
        self.check_constraints(env, instant)?;
        commit(
            &self.ceqs,
            self.memory_eqs.iter().map(|&e| e as usize),
            env,
            &mut self.states,
            instant,
            &mut self.work,
        )
    }

    /// The reference's source-order passes, evaluating only dirty
    /// equations. Exact because an equation's result is a pure function of
    /// the slots it reads (operator memory is fixed during the fixpoint) and
    /// merging an unchanged result into an unchanged slot is a no-op: a
    /// skipped equation could neither change the environment nor raise the
    /// first error, so `changed`, the pass count and the environment after
    /// every pass are the reference's.
    fn fixpoint(&mut self, env: &mut [Res], instant: usize) -> EvalResult<()> {
        let Self {
            ceqs,
            states,
            names,
            readers,
            reads_target,
            initial_dirty,
            dirty,
            fired,
            work,
            ..
        } = self;
        dirty.copy_from_slice(initial_dirty);
        fired.fill(false);
        let mut changed = true;
        let mut passes = 0;
        while changed {
            changed = false;
            passes += 1;
            if passes > MAX_PASSES {
                break;
            }
            work.passes += 1;
            for (e, ceq) in ceqs.iter().enumerate() {
                if !dirty[e] {
                    continue;
                }
                dirty[e] = false;
                work.equations += 1;
                match ceq {
                    CEq::Def { target, expr } | CEq::Partial { target, expr } => {
                        let res = eval(expr, env, states, instant)?;
                        let merged = if matches!(ceq, CEq::Def { .. }) {
                            merge_total(env, *target, res, instant, names)?
                        } else {
                            fired[e] = res.value().is_some();
                            merge_partial(env, *target, res, instant, names)?
                        };
                        if merged {
                            changed = true;
                            readers.mark(dirty, *target, e);
                            // Re-merging the same result is a no-op unless
                            // the expression reads the target, or the merged
                            // value is a NaN, which never equals itself.
                            dirty[e] |= reads_target[e] || is_nan(&env[*target as usize]);
                        }
                    }
                    CEq::Sync { signals, label } => {
                        // Re-running a constraint right after it propagated
                        // is a no-op, so it does not re-dirty itself.
                        propagate_sync(env, signals, label, instant, |s| {
                            changed = true;
                            readers.mark(dirty, s, e);
                        })?;
                    }
                    CEq::Excl { .. } => {}
                }
            }
        }
        Ok(())
    }

    /// Re-checks, under the completed environment, the definitions whose
    /// result may differ from their last fixpoint evaluation: those still
    /// dirty and those reading a completed slot. Every other definition
    /// evaluates as it last did, which merged consistently, and a partial
    /// keeps the "fired" flag of its last evaluation.
    fn verify(&mut self, env: &[Res], instant: usize) -> EvalResult<()> {
        for (e, ceq) in self.ceqs.iter().enumerate() {
            if !self.dirty[e] {
                continue;
            }
            match ceq {
                CEq::Def { target, expr } => {
                    self.work.equations += 1;
                    let res = eval(expr, env, &self.states, instant)?;
                    check_total(env, *target, &res, instant, &self.names)?;
                }
                CEq::Partial { target, expr } => {
                    self.work.equations += 1;
                    let res = eval(expr, env, &self.states, instant)?;
                    self.fired[e] = res.value().is_some();
                    check_partial(env, *target, &res, &self.process.name, &self.names)?;
                }
                _ => {}
            }
        }
        // A partially-defined signal that is present must have at least one
        // firing partial definition or be an input.
        for (target, eqs) in &self.partial_checks {
            let present = matches!(env[*target as usize], Res::Present(_) | Res::Any(_));
            if present && !eqs.iter().any(|&e| self.fired[e as usize]) {
                return Err(Box::new(SignalError::NotExecutable {
                    instant,
                    unresolved: vec![self.names[*target as usize].clone()],
                }));
            }
        }
        Ok(())
    }

    /// The reference instant behind [`Evaluator::step_reference`].
    fn reference_step_into(
        &mut self,
        instant: usize,
        input: &TraceStep,
        env: &mut Vec<Res>,
    ) -> EvalResult<()> {
        self.work.instants += 1;
        env.clear();
        env.resize(self.names.len(), Res::Unknown);
        // Inputs are fully specified by the caller: absent unless given.
        for &id in &self.input_ids {
            env[id as usize] = match input.get(&self.names[id as usize]) {
                Some(v) => Res::Present(v.clone()),
                None => Res::Absent,
            };
        }

        // Fixpoint over the equations.
        let mut changed = true;
        let mut iterations = 0;
        while changed {
            changed = false;
            iterations += 1;
            if iterations > MAX_PASSES {
                break;
            }
            self.work.passes += 1;
            for ceq in &self.ceqs {
                self.work.equations += 1;
                match ceq {
                    CEq::Def { target, expr } => {
                        let res = eval(expr, env, &self.states, instant)?;
                        changed |= merge_total(env, *target, res, instant, &self.names)?;
                    }
                    CEq::Partial { target, expr } => {
                        let res = eval(expr, env, &self.states, instant)?;
                        changed |= merge_partial(env, *target, res, instant, &self.names)?;
                    }
                    CEq::Sync { signals, label } => {
                        propagate_sync(env, signals, label, instant, |_| changed = true)?;
                    }
                    CEq::Excl { .. } => {}
                }
            }
        }

        complete(env, &self.decl_ty, &self.names, instant, |_| {})?;
        self.reference_verify(env, instant)?;
        self.check_constraints(env, instant)?;
        commit(
            &self.ceqs,
            0..self.ceqs.len(),
            env,
            &mut self.states,
            instant,
            &mut self.work,
        )
    }

    /// Re-evaluates every definition under the completed environment and
    /// checks consistency.
    fn reference_verify(&mut self, env: &[Res], instant: usize) -> EvalResult<()> {
        // Track, per partially-defined signal, whether some partial fired.
        let mut partial_fired = vec![false; self.names.len()];
        let mut partial_targets: Vec<u32> = Vec::new();
        for ceq in &self.ceqs {
            match ceq {
                CEq::Def { target, expr } => {
                    self.work.equations += 1;
                    let res = eval(expr, env, &self.states, instant)?;
                    check_total(env, *target, &res, instant, &self.names)?;
                }
                CEq::Partial { target, expr } => {
                    self.work.equations += 1;
                    partial_targets.push(*target);
                    let res = eval(expr, env, &self.states, instant)?;
                    if res.value().is_some() {
                        partial_fired[*target as usize] = true;
                    }
                    check_partial(env, *target, &res, &self.process.name, &self.names)?;
                }
                _ => {}
            }
        }
        // A partially-defined signal that is present must have at least one
        // firing partial definition or be an input.
        for target in partial_targets {
            let id = target as usize;
            if id < self.decl_count && self.is_input[id] {
                continue;
            }
            let present = matches!(env[id], Res::Present(_) | Res::Any(_));
            if present && !self.has_total[id] && !partial_fired[id] {
                return Err(Box::new(SignalError::NotExecutable {
                    instant,
                    unresolved: vec![self.names[id].clone()],
                }));
            }
        }
        Ok(())
    }

    fn check_constraints(&self, env: &[Res], instant: usize) -> EvalResult<()> {
        for ceq in &self.ceqs {
            match ceq {
                CEq::Sync { signals, label } => {
                    let mut present: Option<bool> = None;
                    for &s in signals {
                        let p = matches!(env[s as usize], Res::Present(_) | Res::Any(_));
                        match present {
                            None => present = Some(p),
                            Some(prev) if prev != p => {
                                return Err(Box::new(SignalError::SynchronizationViolation {
                                    instant,
                                    detail: format!("signals {label} must be synchronous"),
                                }));
                            }
                            _ => {}
                        }
                    }
                }
                CEq::Excl { signals, label } => {
                    let count = signals
                        .iter()
                        .filter(|&&s| matches!(env[s as usize], Res::Present(_) | Res::Any(_)))
                        .count();
                    if count > 1 {
                        return Err(Box::new(SignalError::SynchronizationViolation {
                            instant,
                            detail: format!("signals {label} must be mutually exclusive"),
                        }));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Propagates presence or absence across a synchronisation class: if any
/// member is decided, undecided members follow. `on_set` receives each
/// member it decides.
fn propagate_sync(
    env: &mut [Res],
    signals: &[u32],
    label: &str,
    instant: usize,
    mut on_set: impl FnMut(u32),
) -> EvalResult<()> {
    let any_present = signals.iter().any(|&s| env[s as usize].is_present());
    let any_absent = signals
        .iter()
        .any(|&s| matches!(env[s as usize], Res::Absent));
    if any_present && any_absent {
        return Err(Box::new(SignalError::SynchronizationViolation {
            instant,
            detail: format!("signals {label} must be synchronous"),
        }));
    }
    if any_present || any_absent {
        for &s in signals {
            if matches!(env[s as usize], Res::Unknown) {
                env[s as usize] = if any_present {
                    Res::PresentUnknown
                } else {
                    Res::Absent
                };
                on_set(s);
            }
        }
    }
    Ok(())
}

/// Completes the environment after the fixpoint: a declared event known
/// present resolves to `Event` (pure events carry no value, so presence is
/// enough; any other type without a value is stuck), then every
/// still-unknown signal is assumed absent. `on_change` receives each
/// completed id.
fn complete(
    env: &mut [Res],
    decl_ty: &[ValueType],
    names: &[String],
    instant: usize,
    mut on_change: impl FnMut(u32),
) -> EvalResult<()> {
    let mut stuck = Vec::new();
    for (id, res) in env.iter_mut().enumerate().take(decl_ty.len()) {
        if matches!(res, Res::PresentUnknown) {
            if decl_ty[id] == ValueType::Event {
                *res = Res::Present(Value::Event);
                on_change(id as u32);
            } else {
                stuck.push(names[id].clone());
            }
        }
    }
    if !stuck.is_empty() {
        return Err(Box::new(SignalError::NotExecutable {
            instant,
            unresolved: stuck,
        }));
    }
    for (id, res) in env.iter_mut().enumerate() {
        if !res.known() {
            *res = Res::Absent;
            on_change(id as u32);
        }
    }
    Ok(())
}

/// Commits operator states: recomputes, under the final environment, the
/// pending update of every `delay`/`cell` inside the equations `eqs`, then
/// applies them.
fn commit(
    ceqs: &[CEq],
    eqs: impl Iterator<Item = usize>,
    env: &[Res],
    states: &mut [OperatorState],
    instant: usize,
    work: &mut EvalWork,
) -> EvalResult<()> {
    for st in states.iter_mut() {
        st.pending = None;
    }
    for e in eqs {
        if let CEq::Def { expr, .. } | CEq::Partial { expr, .. } = &ceqs[e] {
            work.equations += 1;
            record_pending(expr, env, states, instant)?;
        }
    }
    for st in states.iter_mut() {
        if let Some(v) = st.pending.take() {
            st.current = v;
        }
    }
    Ok(())
}

/// The post-completion check of a total definition: its result must agree
/// with its target.
fn check_total(
    env: &[Res],
    target: u32,
    res: &Res,
    instant: usize,
    names: &[String],
) -> EvalResult<()> {
    if consistent(&env[target as usize], res) {
        Ok(())
    } else {
        Err(Box::new(SignalError::NotExecutable {
            instant,
            unresolved: vec![names[target as usize].clone()],
        }))
    }
}

/// The post-completion check of a partial definition: when it fires, its
/// value must be the target's.
fn check_partial(
    env: &[Res],
    target: u32,
    res: &Res,
    process: &str,
    names: &[String],
) -> EvalResult<()> {
    if let (Some(v), Some(cv)) = (res.value(), env[target as usize].value()) {
        if cv != v {
            return Err(Box::new(SignalError::MultipleDefinitions {
                process: process.to_string(),
                signal: names[target as usize].clone(),
            }));
        }
    }
    Ok(())
}

/// Borrow-only view of the last resolved instant of an [`Evaluator`];
/// implements [`InstantView`] so property monitors can read it without a
/// materialised [`TraceStep`].
#[derive(Debug, Clone, Copy)]
pub struct ResolvedStep<'a> {
    names: &'a [String],
    ids: &'a HashMap<String, u32>,
    env: &'a [Res],
    sorted_ids: &'a [u32],
}

impl<'a> ResolvedStep<'a> {
    /// The name of every signal, indexed by id: the same table at every
    /// instant of one evaluator.
    pub fn names(&self) -> &'a [String] {
        self.names
    }

    /// The value of signal `id` (see [`Evaluator::signal_id`]) at this
    /// instant, or `None` when it is absent: [`InstantView::value_of`]
    /// without the name lookup.
    pub fn value_at(&self, id: u32) -> Option<&'a Value> {
        self.env.get(id as usize).and_then(Res::value)
    }

    /// The present signals of this instant in id order, each with its
    /// value: a signal is present when it resolved to a value, the rule of
    /// the step [`Evaluator::step`] materialises.
    pub fn present(&self) -> impl Iterator<Item = (usize, &'a Value)> {
        self.env
            .iter()
            .enumerate()
            .filter_map(|(id, res)| res.value().map(|value| (id, value)))
    }
}

impl InstantView for ResolvedStep<'_> {
    fn value_of(&self, name: &str) -> Option<&Value> {
        self.ids.get(name).and_then(|&id| self.value_at(id))
    }

    fn first_present_matching(
        &self,
        accept: &mut dyn FnMut(&str, &Value) -> bool,
    ) -> Option<String> {
        for &id in self.sorted_ids {
            if let Some(v) = self.env[id as usize].value() {
                let name = &self.names[id as usize];
                if accept(name, v) {
                    return Some(name.clone());
                }
            }
        }
        None
    }
}

/// Evaluates a compiled expression under the current (possibly partial)
/// environment.
fn eval(expr: &CExpr, env: &[Res], states: &[OperatorState], instant: usize) -> EvalResult<Res> {
    match expr {
        CExpr::Var(id) => Ok(env[*id as usize].clone()),
        CExpr::Const(v) => Ok(Res::Any(v.clone())),
        CExpr::Unary(op, e) => {
            let v = eval(e, env, states, instant)?;
            apply_unary(*op, &v)
        }
        CExpr::Binary(op, a, b) => {
            let va = eval(a, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            apply_binary(*op, &va, &vb, instant)
        }
        CExpr::Delay(idx, e) => {
            let inner = eval(e, env, states, instant)?;
            Ok(match inner {
                Res::Present(_) | Res::Any(_) | Res::PresentUnknown => {
                    Res::Present(states[*idx].current.clone())
                }
                Res::Absent => Res::Absent,
                Res::Unknown => Res::Unknown,
            })
        }
        CExpr::When(e, b) => {
            let ve = eval(e, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            Ok(when_result(&ve, &vb))
        }
        CExpr::Default(u, v) => {
            let vu = eval(u, env, states, instant)?;
            let vv = eval(v, env, states, instant)?;
            Ok(default_result(&vu, &vv))
        }
        CExpr::Cell(idx, i, b) => {
            let vi = eval(i, env, states, instant)?;
            let vb = eval(b, env, states, instant)?;
            Ok(cell_result(&vi, &vb, &states[*idx].current))
        }
        CExpr::ClockOf(e) => {
            let v = eval(e, env, states, instant)?;
            Ok(clock_of_result(&v))
        }
        CExpr::ClockWhen(b) => {
            let v = eval(b, env, states, instant)?;
            Ok(clock_when_result(&v))
        }
    }
}

/// Like [`eval`], but records the pending update of every `delay`/`cell`
/// operator it passes through.
fn record_pending(
    expr: &CExpr,
    env: &[Res],
    states: &mut [OperatorState],
    instant: usize,
) -> EvalResult<Res> {
    match expr {
        CExpr::Delay(idx, e) => {
            let idx = *idx;
            let inner = record_pending(e, env, states, instant)?;
            let res = match &inner {
                Res::Present(_) | Res::Any(_) | Res::PresentUnknown => {
                    Res::Present(states[idx].current.clone())
                }
                Res::Absent => Res::Absent,
                Res::Unknown => Res::Unknown,
            };
            if let Some(v) = inner.value() {
                states[idx].pending = Some(v.clone());
            }
            Ok(res)
        }
        CExpr::Cell(idx, i, b) => {
            let idx = *idx;
            let vi = record_pending(i, env, states, instant)?;
            let vb = record_pending(b, env, states, instant)?;
            if let Some(v) = vi.value() {
                states[idx].pending = Some(v.clone());
            }
            Ok(cell_result(&vi, &vb, &states[idx].current))
        }
        CExpr::Var(id) => Ok(env[*id as usize].clone()),
        CExpr::Const(v) => Ok(Res::Any(v.clone())),
        CExpr::Unary(op, e) => {
            let v = record_pending(e, env, states, instant)?;
            apply_unary(*op, &v)
        }
        CExpr::Binary(op, a, b) => {
            let va = record_pending(a, env, states, instant)?;
            let vb = record_pending(b, env, states, instant)?;
            apply_binary(*op, &va, &vb, instant)
        }
        CExpr::When(e, b) => {
            let ve = record_pending(e, env, states, instant)?;
            let vb = record_pending(b, env, states, instant)?;
            Ok(when_result(&ve, &vb))
        }
        CExpr::Default(u, v) => {
            let vu = record_pending(u, env, states, instant)?;
            let vv = record_pending(v, env, states, instant)?;
            Ok(default_result(&vu, &vv))
        }
        CExpr::ClockOf(e) => {
            let v = record_pending(e, env, states, instant)?;
            Ok(clock_of_result(&v))
        }
        CExpr::ClockWhen(b) => {
            let v = record_pending(b, env, states, instant)?;
            Ok(clock_when_result(&v))
        }
    }
}

fn consistent(current: &Res, computed: &Res) -> bool {
    match (current, computed) {
        (_, Res::Unknown) | (Res::Unknown, _) => true,
        (_, Res::PresentUnknown) => current.is_present() || matches!(current, Res::Unknown),
        (Res::PresentUnknown, _) => computed.is_present(),
        (Res::Absent, Res::Absent) => true,
        // A constant expression is satisfied by an absent target (the
        // constant takes the clock of the target).
        (Res::Absent, Res::Any(_)) => true,
        (Res::Present(a) | Res::Any(a), Res::Present(b) | Res::Any(b)) => a == b,
        (Res::Present(_), Res::Absent) | (Res::Absent, Res::Present(_)) => false,
        (Res::Any(_), Res::Absent) => false,
    }
}

fn merge_total(
    env: &mut [Res],
    target: u32,
    res: Res,
    instant: usize,
    names: &[String],
) -> EvalResult<bool> {
    let slot = &mut env[target as usize];
    match (&*slot, &res) {
        (_, Res::Unknown) => Ok(false),
        (Res::Unknown, _) => {
            // A constant defining expression leaves the clock free; keep it
            // as Any so that constraints can still decide.
            *slot = res;
            Ok(true)
        }
        // Upgrade a presence-only resolution to a full value.
        (Res::PresentUnknown, Res::Present(_) | Res::Any(_)) => {
            *slot = res;
            Ok(true)
        }
        _ => {
            if consistent(slot, &res) {
                Ok(false)
            } else {
                Err(Box::new(SignalError::SynchronizationViolation {
                    instant,
                    detail: format!("conflicting resolutions for `{}`", names[target as usize]),
                }))
            }
        }
    }
}

fn merge_partial(
    env: &mut [Res],
    target: u32,
    res: Res,
    instant: usize,
    names: &[String],
) -> EvalResult<bool> {
    match res {
        Res::Present(v) | Res::Any(v) => {
            let slot = &mut env[target as usize];
            match slot {
                Res::Unknown | Res::Absent | Res::PresentUnknown => {
                    *slot = Res::Present(v);
                    Ok(true)
                }
                Res::Present(ref cv) | Res::Any(ref cv) => {
                    if cv == &v {
                        Ok(false)
                    } else {
                        Err(Box::new(SignalError::SynchronizationViolation {
                            instant,
                            detail: format!(
                                "partial definitions give `{}` two values at the same instant",
                                names[target as usize]
                            ),
                        }))
                    }
                }
            }
        }
        // An absent or unknown partial contributes nothing; absence of the
        // target can only be concluded globally.
        _ => Ok(false),
    }
}

fn when_result(e: &Res, b: &Res) -> Res {
    match b {
        Res::Absent => Res::Absent,
        Res::Present(v) | Res::Any(v) => {
            if v.as_bool() {
                match e {
                    Res::Present(x) | Res::Any(x) => Res::Present(x.clone()),
                    Res::PresentUnknown => Res::PresentUnknown,
                    Res::Absent => Res::Absent,
                    Res::Unknown => Res::Unknown,
                }
            } else {
                Res::Absent
            }
        }
        // The sampling condition is known present but its value is not known
        // yet: the result cannot be decided.
        Res::PresentUnknown => match e {
            Res::Absent => Res::Absent,
            _ => Res::Unknown,
        },
        Res::Unknown => match e {
            Res::Absent => Res::Absent,
            _ => Res::Unknown,
        },
    }
}

fn default_result(u: &Res, v: &Res) -> Res {
    match u {
        Res::Present(x) | Res::Any(x) => Res::Present(x.clone()),
        Res::PresentUnknown => Res::PresentUnknown,
        Res::Absent => match v {
            Res::Present(y) | Res::Any(y) => Res::Present(y.clone()),
            Res::PresentUnknown => Res::PresentUnknown,
            Res::Absent => Res::Absent,
            Res::Unknown => Res::Unknown,
        },
        Res::Unknown => Res::Unknown,
    }
}

fn cell_result(i: &Res, b: &Res, memory: &Value) -> Res {
    match i {
        Res::Present(v) | Res::Any(v) => Res::Present(v.clone()),
        Res::PresentUnknown => Res::PresentUnknown,
        Res::Absent => match b {
            Res::Present(bv) | Res::Any(bv) => {
                if bv.as_bool() {
                    Res::Present(memory.clone())
                } else {
                    Res::Absent
                }
            }
            Res::PresentUnknown => Res::Unknown,
            Res::Absent => Res::Absent,
            Res::Unknown => Res::Unknown,
        },
        Res::Unknown => Res::Unknown,
    }
}

fn clock_of_result(e: &Res) -> Res {
    match e {
        Res::Present(_) | Res::Any(_) | Res::PresentUnknown => Res::Present(Value::Event),
        Res::Absent => Res::Absent,
        Res::Unknown => Res::Unknown,
    }
}

fn clock_when_result(b: &Res) -> Res {
    match b {
        Res::Present(v) | Res::Any(v) => {
            if v.as_bool() {
                Res::Present(Value::Event)
            } else {
                Res::Absent
            }
        }
        Res::PresentUnknown => Res::Unknown,
        Res::Absent => Res::Absent,
        Res::Unknown => Res::Unknown,
    }
}

fn apply_unary(op: UnOp, v: &Res) -> EvalResult<Res> {
    match v {
        Res::Unknown => Ok(Res::Unknown),
        Res::PresentUnknown => Ok(Res::PresentUnknown),
        Res::Absent => Ok(Res::Absent),
        Res::Present(x) | Res::Any(x) => {
            let out = match op {
                UnOp::Neg => match x {
                    Value::Int(i) => Value::Int(i.wrapping_neg()),
                    Value::Real(r) => Value::Real(-r),
                    other => {
                        return Err(Box::new(SignalError::TypeError {
                            detail: format!("cannot negate {other}"),
                        }))
                    }
                },
                UnOp::Not => Value::Bool(!x.as_bool()),
            };
            Ok(match v {
                Res::Any(_) => Res::Any(out),
                _ => Res::Present(out),
            })
        }
    }
}

fn apply_binary(op: BinOp, a: &Res, b: &Res, instant: usize) -> EvalResult<Res> {
    match (a, b) {
        (Res::Unknown, _) | (_, Res::Unknown) => Ok(Res::Unknown),
        (Res::Absent, Res::Absent) => Ok(Res::Absent),
        (Res::Absent, Res::Any(_)) | (Res::Any(_), Res::Absent) => Ok(Res::Absent),
        (Res::Absent, Res::Present(_) | Res::PresentUnknown)
        | (Res::Present(_) | Res::PresentUnknown, Res::Absent) => {
            Err(Box::new(SignalError::SynchronizationViolation {
                instant,
                detail: format!("operands of `{}` are not synchronous", op.symbol()),
            }))
        }
        (Res::PresentUnknown, _) | (_, Res::PresentUnknown) => Ok(Res::PresentUnknown),
        (Res::Present(x) | Res::Any(x), Res::Present(y) | Res::Any(y)) => {
            let out = compute_binary(op, x, y)?;
            if matches!(a, Res::Any(_)) && matches!(b, Res::Any(_)) {
                Ok(Res::Any(out))
            } else {
                Ok(Res::Present(out))
            }
        }
    }
}

fn compute_binary(op: BinOp, x: &Value, y: &Value) -> EvalResult<Value> {
    use BinOp::*;
    let type_err = || SignalError::TypeError {
        detail: format!("cannot apply `{}` to {x} and {y}", op.symbol()),
    };
    match op {
        And => Ok(Value::Bool(x.as_bool() && y.as_bool())),
        Or => Ok(Value::Bool(x.as_bool() || y.as_bool())),
        Eq => Ok(Value::Bool(values_equal(x, y))),
        Ne => Ok(Value::Bool(!values_equal(x, y))),
        Lt | Le | Gt | Ge => {
            let (a, b) = (
                x.as_real().ok_or_else(type_err)?,
                y.as_real().ok_or_else(type_err)?,
            );
            let r = match op {
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(r))
        }
        Add | Sub | Mul | Div | Mod => match (x, y) {
            (Value::Int(a), Value::Int(b)) => {
                let r = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(Box::new(SignalError::TypeError {
                                detail: "integer division by zero".into(),
                            }));
                        }
                        a.wrapping_div(*b)
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(Box::new(SignalError::TypeError {
                                detail: "integer modulo by zero".into(),
                            }));
                        }
                        a.wrapping_rem_euclid(*b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(r))
            }
            _ => {
                let (a, b) = (
                    x.as_real().ok_or_else(type_err)?,
                    y.as_real().ok_or_else(type_err)?,
                );
                let r = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a.rem_euclid(b),
                    _ => unreachable!(),
                };
                Ok(Value::Real(r))
            }
        },
    }
}

fn values_equal(x: &Value, y: &Value) -> bool {
    match (x, y) {
        (Value::Int(a), Value::Real(b)) | (Value::Real(b), Value::Int(a)) => (*a as f64) == *b,
        _ => x == y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;
    use crate::value::ValueType;

    fn run_process(p: &Process, inputs: &Trace) -> Trace {
        Evaluator::new(p).unwrap().run(inputs).unwrap()
    }

    #[test]
    fn counter_counts_ticks() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        for t in [0usize, 2, 3, 5] {
            inputs.set(t, "tick", Value::Event);
        }
        inputs.step_mut(6);
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("count"), vec![0, 2, 3, 5]);
        assert_eq!(
            out.flow_of("count"),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn when_samples_on_true() {
        let mut b = ProcessBuilder::new("sampler");
        b.input("x", ValueType::Integer);
        b.input("c", ValueType::Boolean);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::when(Expr::var("x"), Expr::var("c")));
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        inputs.set(0, "x", Value::Int(10));
        inputs.set(0, "c", Value::Bool(true));
        inputs.set(1, "x", Value::Int(20));
        inputs.set(1, "c", Value::Bool(false));
        inputs.set(2, "x", Value::Int(30));
        // c absent at 2
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("y"), vec![0]);
        assert_eq!(out.flow_of("y"), vec![Value::Int(10)]);
    }

    #[test]
    fn default_merges_deterministically() {
        let mut b = ProcessBuilder::new("merge");
        b.input("u", ValueType::Integer);
        b.input("v", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::default(Expr::var("u"), Expr::var("v")));
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        inputs.set(0, "u", Value::Int(1));
        inputs.set(0, "v", Value::Int(9));
        inputs.set(1, "v", Value::Int(2));
        inputs.step_mut(2);
        let out = run_process(&p, &inputs);
        assert_eq!(out.flow_of("y"), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(out.clock_of("y"), vec![0, 1]);
    }

    #[test]
    fn cell_implements_memory_process_fm() {
        // o = fm(i, b): o holds i when i present, previous i when b true.
        let mut b = ProcessBuilder::new("fm");
        b.input("i", ValueType::Integer);
        b.input("b", ValueType::Boolean);
        b.output("o", ValueType::Integer);
        b.define(
            "o",
            Expr::cell(Expr::var("i"), Expr::var("b"), Value::Int(0)),
        );
        let p = b.build().unwrap();

        let mut inputs = Trace::new();
        // t0: i=5 (b absent)  -> o=5
        // t1: b=true          -> o=5 (memorised)
        // t2: b=false         -> absent
        // t3: i=7, b=true     -> o=7
        // t4: b=true          -> o=7
        inputs.set(0, "i", Value::Int(5));
        inputs.set(1, "b", Value::Bool(true));
        inputs.set(2, "b", Value::Bool(false));
        inputs.set(3, "i", Value::Int(7));
        inputs.set(3, "b", Value::Bool(true));
        inputs.set(4, "b", Value::Bool(true));
        let out = run_process(&p, &inputs);
        assert_eq!(out.clock_of("o"), vec![0, 1, 3, 4]);
        assert_eq!(
            out.flow_of("o"),
            vec![Value::Int(5), Value::Int(5), Value::Int(7), Value::Int(7)]
        );
    }

    #[test]
    fn synchronization_violation_detected() {
        let mut b = ProcessBuilder::new("sync");
        b.input("a", ValueType::Integer);
        b.input("b", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::add(Expr::var("a"), Expr::var("b")));
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        // b absent at 0: a + b is not computable.
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn clock_constraint_checked() {
        let mut b = ProcessBuilder::new("constrained");
        b.input("a", ValueType::Event);
        b.input("b", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::var("a"));
        b.synchronize(&["a", "b"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Event);
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn exclusion_constraint_checked() {
        let mut b = ProcessBuilder::new("excl");
        b.input("r", ValueType::Event);
        b.input("w", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::default(Expr::var("r"), Expr::var("w")));
        b.exclude(&["r", "w"]);
        let p = b.build().unwrap();
        let mut ok_inputs = Trace::new();
        ok_inputs.set(0, "r", Value::Event);
        ok_inputs.set(1, "w", Value::Event);
        Evaluator::new(&p).unwrap().run(&ok_inputs).unwrap();
        let mut bad_inputs = Trace::new();
        bad_inputs.set(0, "r", Value::Event);
        bad_inputs.set(0, "w", Value::Event);
        let err = Evaluator::new(&p).unwrap().run(&bad_inputs).unwrap_err();
        assert!(matches!(err, SignalError::SynchronizationViolation { .. }));
    }

    #[test]
    fn partial_definitions_merge() {
        // x ::= a when ca ; x ::= b when cb with exclusive conditions.
        let mut bld = ProcessBuilder::new("partial");
        bld.input("a", ValueType::Integer);
        bld.input("b", ValueType::Integer);
        bld.input("ca", ValueType::Boolean);
        bld.input("cb", ValueType::Boolean);
        bld.output("x", ValueType::Integer);
        bld.define_partial("x", Expr::when(Expr::var("a"), Expr::var("ca")));
        bld.define_partial("x", Expr::when(Expr::var("b"), Expr::var("cb")));
        let p = bld.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        inputs.set(0, "ca", Value::Bool(true));
        inputs.set(0, "cb", Value::Bool(false));
        inputs.set(1, "b", Value::Int(2));
        inputs.set(1, "ca", Value::Bool(false));
        inputs.set(1, "cb", Value::Bool(true));
        inputs.step_mut(2);
        let out = run_process(&p, &inputs);
        assert_eq!(out.flow_of("x"), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn conflicting_partials_rejected() {
        let mut bld = ProcessBuilder::new("conflict");
        bld.input("a", ValueType::Integer);
        bld.input("b", ValueType::Integer);
        bld.output("x", ValueType::Integer);
        bld.define_partial("x", Expr::var("a"));
        bld.define_partial("x", Expr::var("b"));
        let p = bld.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "a", Value::Int(1));
        inputs.set(0, "b", Value::Int(2));
        let err = Evaluator::new(&p).unwrap().run(&inputs).unwrap_err();
        assert!(matches!(
            err,
            SignalError::SynchronizationViolation { .. } | SignalError::MultipleDefinitions { .. }
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "tick", Value::Event);
        let mut eval = Evaluator::new(&p).unwrap();
        let first = eval.run(&inputs).unwrap();
        let second = eval.run(&inputs).unwrap();
        assert_eq!(second.flow_of("count"), vec![Value::Int(2)]);
        eval.reset();
        let third = eval.run(&inputs).unwrap();
        assert_eq!(first.flow_of("count"), third.flow_of("count"));
    }

    #[test]
    fn memory_snapshot_round_trips() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut inputs = Trace::new();
        inputs.set(0, "tick", Value::Event);
        let mut eval = Evaluator::new(&p).unwrap();
        assert_eq!(eval.memory_len(), 1);
        assert_eq!(eval.memory(), vec![Value::Int(0)]);
        eval.run(&inputs).unwrap();
        let snapshot = eval.memory();
        assert_eq!(snapshot, vec![Value::Int(1)]);
        eval.run(&inputs).unwrap();
        assert_eq!(eval.memory(), vec![Value::Int(2)]);
        // Restoring the snapshot replays the same future.
        eval.restore_memory(&snapshot).unwrap();
        let out = eval.run(&inputs).unwrap();
        assert_eq!(out.flow_of("count"), vec![Value::Int(2)]);
        // Arity is checked.
        assert!(eval.restore_memory(&[]).is_err());
    }

    #[test]
    fn evaluator_rejects_unflattened_process() {
        let mut b = ProcessBuilder::new("parent");
        b.input("x", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.instance("child", "c1", &["x"], &["y"]);
        let p = b.build().unwrap();
        assert!(Evaluator::new(&p).is_err());
    }

    /// `y := f(a, b)` over two integer inputs, stepped once with both
    /// evaluators, which must agree.
    fn int_result(f: fn(Expr, Expr) -> Expr, a: i64, b: i64) -> Option<Value> {
        let mut bld = ProcessBuilder::new("edge");
        bld.input("a", ValueType::Integer);
        bld.input("b", ValueType::Integer);
        bld.output("y", ValueType::Integer);
        bld.define("y", f(Expr::var("a"), Expr::var("b")));
        let p = bld.build().unwrap();
        let mut input = TraceStep::new();
        input.set("a", Value::Int(a));
        input.set("b", Value::Int(b));
        let out = Evaluator::new(&p).unwrap().step(0, &input).unwrap();
        let reference = Evaluator::new(&p).unwrap().step_reference(0, &input);
        assert_eq!(reference.unwrap(), out);
        out.get("y").cloned()
    }

    #[test]
    fn integer_division_wraps_on_overflow() {
        let div = |a, b| Expr::Binary(BinOp::Div, Box::new(a), Box::new(b));
        assert_eq!(int_result(div, i64::MIN, -1), Some(Value::Int(i64::MIN)));
        assert_eq!(int_result(div, -7, 2), Some(Value::Int(-3)));
    }

    #[test]
    fn integer_modulo_wraps_on_overflow() {
        let rem = |a, b| Expr::Binary(BinOp::Mod, Box::new(a), Box::new(b));
        assert_eq!(int_result(rem, i64::MIN, -1), Some(Value::Int(0)));
        assert_eq!(int_result(rem, -7, 2), Some(Value::Int(1)));
    }

    #[test]
    fn integer_negation_wraps_on_overflow() {
        let neg = |a, _| Expr::Unary(UnOp::Neg, Box::new(a));
        assert_eq!(int_result(neg, i64::MIN, 0), Some(Value::Int(i64::MIN)));
        assert_eq!(int_result(neg, 5, 0), Some(Value::Int(-5)));
    }

    #[test]
    fn nan_definition_fails_like_the_reference() {
        // `x := r / r` is NaN when r = 0.0, and a NaN never equals itself:
        // the reference's second pass rejects its own first merge, so the
        // change-driven passes must re-evaluate the definition too.
        let mut b = ProcessBuilder::new("nan");
        b.input("r", ValueType::Real);
        b.output("x", ValueType::Real);
        b.define(
            "x",
            Expr::Binary(
                BinOp::Div,
                Box::new(Expr::var("r")),
                Box::new(Expr::var("r")),
            ),
        );
        let p = b.build().unwrap();
        let mut input = TraceStep::new();
        input.set("r", Value::Real(0.0));
        let fast = Evaluator::new(&p).unwrap().step(0, &input).unwrap_err();
        let slow = Evaluator::new(&p)
            .unwrap()
            .step_reference(0, &input)
            .unwrap_err();
        assert_eq!(fast, slow);
        assert!(fast.to_string().contains("conflicting resolutions for `x`"));
    }

    #[test]
    fn id_inputs_step_like_named_inputs() {
        let mut b = ProcessBuilder::new("ids");
        b.input("b", ValueType::Integer);
        b.input("a", ValueType::Integer);
        b.output("y", ValueType::Integer);
        b.define("y", Expr::default(Expr::var("a"), Expr::var("b")));
        let p = b.build().unwrap();
        let mut by_name = Evaluator::new(&p).unwrap();
        let mut by_id = by_name.clone();
        let (a, b_, y) = (
            by_id.signal_id("a").unwrap(),
            by_id.signal_id("b").unwrap(),
            by_id.signal_id("y").unwrap(),
        );
        assert_eq!(by_id.signal_id("nope"), None);
        assert_eq!(by_id.signal_names()[a as usize], "a");
        let ordered: Vec<&str> = by_id
            .ids_by_name()
            .iter()
            .map(|&id| by_id.signal_names()[id as usize].as_str())
            .collect();
        assert_eq!(ordered, ["a", "b", "y"]);
        for (t, given) in [vec![(b_, 2)], vec![(a, 1), (b_, 2)], vec![]]
            .iter()
            .enumerate()
        {
            let mut named = TraceStep::new();
            for &(id, v) in given {
                named.set(by_id.signal_names()[id as usize].clone(), Value::Int(v));
            }
            // A non-input id is ignored, like an undeclared name.
            let mut ids: Vec<(u32, Value)> =
                given.iter().map(|&(id, v)| (id, Value::Int(v))).collect();
            ids.push((y, Value::Int(9)));
            named.set("y_undeclared", Value::Int(9));
            let expected = by_name.step(t, &named).unwrap();
            let view = by_id.step_ids(t, &ids).unwrap();
            assert_eq!(view.value_at(y), expected.get("y"));
            for (name, value) in expected.iter() {
                assert_eq!(view.value_of(name), Some(value));
            }
            assert_eq!(by_id.work(), by_name.work());
        }
    }

    #[test]
    fn resolved_view_matches_materialised_step() {
        let mut b = ProcessBuilder::new("viewed");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let p = b.build().unwrap();
        let mut input = TraceStep::new();
        input.set("tick", Value::Event);

        let mut by_step = Evaluator::new(&p).unwrap();
        let step = by_step.step(0, &input).unwrap();

        let mut by_view = Evaluator::new(&p).unwrap();
        let view = by_view.step_resolved(0, &input).unwrap();
        for (name, value) in step.iter() {
            assert_eq!(view.value_of(name), Some(value));
        }
        assert!(view.value_of("no_such_signal").is_none());
        // Name-sorted visit order, like a TraceStep's BTreeMap.
        let first = view.first_present_matching(&mut |_, _| true);
        assert_eq!(first.as_deref(), Some("count"));
        // The id-ordered read names exactly the materialised signals.
        let mut present: Vec<(&str, &Value)> = view
            .present()
            .map(|(id, value)| (view.names()[id].as_str(), value))
            .collect();
        present.sort_by_key(|&(name, _)| name);
        let expected: Vec<(&str, &Value)> = step.iter().map(|(n, v)| (n.as_str(), v)).collect();
        assert_eq!(present, expected);
    }
}
