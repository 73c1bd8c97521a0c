//! The cone-of-influence slice over delay/cell memories: symbolic closure
//! for unbounded-counter state spaces.
//!
//! The explicit engine canonicalises a state as the exact memory of every
//! `delay`/`cell` operator. A monotone counter (`count := count$1 + 1`)
//! therefore makes the reachable state space infinite and every unbounded
//! run ends in [`crate::Verdict::PassedBounded`] — the fixpoint never
//! closes. This module closes it *soundly* for the common case: counters
//! whose value can never influence anything a property observes.
//!
//! The engine runs on *representatives*: [`SlotAbstraction::normalize`]
//! resets every sliced slot to its initial value, and the untouched
//! [`crate::state::KeyCodec`] then encodes the representative, so a sliced
//! slot drops out of the state key.
//!
//! # Which slots may be sliced
//!
//! [`SlotAbstraction::analyze`] decides, per slot, between two plans:
//!
//! * [`SlotPlan::Concrete`] — the slot stays exact;
//! * [`SlotPlan::Project`] — the slot is dropped from the canonical key
//!   entirely (reset to its initial value), applied to every abstractable
//!   slot.
//!
//! A slot is *abstractable* only when its value provably cannot reach any
//! observable. The analysis marks every signal an observation depends on,
//! in one backward-reachability pass over the equation graph from
//!
//! * every signal read by a checked property (exact names from
//!   `Signal`/`Present` atoms, glob patterns from `Raised` atoms matched
//!   against the property-visible — possibly `<component>_`-prefixed —
//!   name) and every signal a product port link touches;
//! * every signal in a presence-determining position: a `when` condition,
//!   a `cell` trigger, a `^e` / `when b` clock expression — value changes
//!   there would change which transitions are feasible;
//! * every signal in the divisor of `/` or `mod` — the value there decides
//!   whether evaluation fails with a division by zero;
//! * every signal with a partial or multiple definition — merged partial
//!   definitions compare values at runtime.
//!
//! A slot is abstractable when the target of its equation is unmarked, the
//! slot operator itself sits in no presence or divisor position, and its
//! initial value is an integer.
//!
//! # Soundness
//!
//! Under these conditions the slice is *exact for observables*: the value
//! of an abstractable slot flows only into unmarked signals, none of which
//! any monitor reads or any clock condition consumes, so replacing the
//! slot value by its representative changes neither the feasibility of
//! any transition nor the value of any observed signal. Feasibility
//! includes evaluation errors, which is why [`Property::DeadlockFree`]
//! needs no exception: integer arithmetic wraps, so division by zero is
//! the only error a value (rather than a type) can cause, and divisors are
//! marked; a representative keeps the type of the value it replaces
//! (projection resets only integer values), so no type error appears or
//! vanishes. Sliced and unsliced systems therefore have identical
//! observable trace sets, and the same executable instants: a `Proved` on
//! the quotient is a genuine proof, and a violation is found at the same
//! instant as in the unsliced system (see `docs/SYMBOLIC.md`).

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};
use signal_moc::expr::{BinOp, Expr};
use signal_moc::process::{Equation, Process};
use signal_moc::value::Value;

use crate::property::pattern_matches;
use crate::Property;

/// The per-slot decision of one analyzed process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotPlan {
    /// Keep the exact value (the only sound choice for slots whose value
    /// can reach an observable).
    Concrete,
    /// Drop the slot from the canonical key: every integer value maps to
    /// the initial value.
    Project,
}

/// The result of the slot analysis over one process (or one product
/// component): a plan per memory slot, in evaluator allocation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotAbstraction {
    plans: Vec<SlotPlan>,
    inits: Vec<Value>,
    targets: Vec<String>,
}

/// The observation context of one process: which signal names are read
/// exactly and which glob patterns are matched, in the property-visible
/// namespace.
struct ReadSet {
    names: BTreeSet<String>,
    patterns: BTreeSet<String>,
}

impl ReadSet {
    fn of_properties(properties: &[Property]) -> Self {
        let mut names = BTreeSet::new();
        let mut patterns = BTreeSet::new();
        for property in properties {
            if let Some(ltl) = property.ltl() {
                collect_atoms(ltl.invariant(), &mut names, &mut patterns);
            }
        }
        Self { names, patterns }
    }

    /// Is the signal spelled `<prefix><signal>` in the property namespace
    /// read by any atom?
    fn reads(&self, prefix: &str, signal: &str) -> bool {
        let visible = [prefix, signal].concat();
        self.names.contains(&visible)
            || self
                .patterns
                .iter()
                .any(|pattern| pattern_matches(pattern, &visible))
    }
}

fn collect_atoms(
    formula: &crate::ltl::Formula,
    names: &mut BTreeSet<String>,
    patterns: &mut BTreeSet<String>,
) {
    use crate::ltl::Formula;
    match formula {
        Formula::Const(_) => {}
        Formula::Signal(name) | Formula::Present(name) => {
            names.insert(name.clone());
        }
        Formula::Raised(pattern) => {
            patterns.insert(pattern.clone());
        }
        Formula::Not(a) | Formula::Previously(a) | Formula::Once(a) | Formula::Historically(a) => {
            collect_atoms(a, names, patterns)
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Since(a, b) => {
            collect_atoms(a, names, patterns);
            collect_atoms(b, names, patterns);
        }
        Formula::Within {
            trigger, response, ..
        } => {
            collect_atoms(trigger, names, patterns);
            collect_atoms(response, names, patterns);
        }
    }
}

/// One `delay`/`cell` operator site discovered by mirroring the
/// evaluator's slot-allocation walk.
struct SlotSite {
    /// Signal id of the containing equation's target.
    target: usize,
    /// Initial value of the slot.
    init: Value,
    /// The operator's own result is consumed in a presence-determining or
    /// divisor position.
    forbidden: bool,
}

/// The equation graph of one process over dense signal ids, gathered in
/// one walk that mirrors the evaluator's slot allocation.
#[derive(Default)]
struct EquationGraph<'p> {
    ids: HashMap<&'p str, usize>,
    names: Vec<&'p str>,
    /// Per signal: the signals its defining equations read.
    sources: Vec<Vec<usize>>,
    /// Per signal: how many equations define it.
    definitions: Vec<usize>,
    /// Per signal: whether an observation depends on its value — seeded
    /// by the walk with presence and divisor reads and partial definitions.
    observed: Vec<bool>,
    slots: Vec<SlotSite>,
}

impl<'p> EquationGraph<'p> {
    fn id(&mut self, name: &'p str) -> usize {
        let next = self.names.len();
        let id = *self.ids.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
            self.sources.push(Vec::new());
            self.definitions.push(0);
            self.observed.push(false);
        }
        id
    }

    /// Records one `target := expr` (or `::=` when `partial`) equation.
    fn define(&mut self, target: &'p str, expr: &'p Expr, partial: bool) {
        let target_id = self.id(target);
        self.definitions[target_id] += 1;
        self.observed[target_id] |= partial;
        self.walk(expr, target_id, false);
    }

    /// Walks `expr` in the evaluator's slot-allocation order (`delay`/`cell`
    /// allocate before their operands are compiled; binary operands
    /// left-to-right), pushing a [`SlotSite`] per operator and recording
    /// every signal read as a source of `target`.
    fn walk(&mut self, expr: &'p Expr, target: usize, forbidden: bool) {
        match expr {
            Expr::Var(name) => {
                let id = self.id(name);
                self.sources[target].push(id);
                self.observed[id] |= forbidden;
            }
            Expr::Const(_) => {}
            Expr::Unary(_, a) => self.walk(a, target, forbidden),
            Expr::Binary(op, a, b) => {
                self.walk(a, target, forbidden);
                let divisor = matches!(op, BinOp::Div | BinOp::Mod);
                self.walk(b, target, forbidden || divisor);
            }
            Expr::Delay(operand, init) => {
                self.push_slot(target, init, forbidden);
                self.walk(operand, target, forbidden);
            }
            Expr::When(e, b) => {
                self.walk(e, target, forbidden);
                self.walk(b, target, true);
            }
            Expr::Default(u, v) => {
                self.walk(u, target, forbidden);
                self.walk(v, target, forbidden);
            }
            Expr::Cell(i, b, init) => {
                self.push_slot(target, init, forbidden);
                self.walk(i, target, forbidden);
                self.walk(b, target, true);
            }
            // Clock expressions only observe presence, but a slot feeding them
            // sits one `when` away from feasibility — treat conservatively.
            Expr::ClockOf(e) | Expr::ClockWhen(e) => self.walk(e, target, true),
        }
    }

    fn push_slot(&mut self, target: usize, init: &Value, forbidden: bool) {
        self.slots.push(SlotSite {
            target,
            init: init.clone(),
            forbidden,
        });
    }
}

impl SlotAbstraction {
    /// Analyzes `process` and plans the slice of each memory slot, in time
    /// linear in the size of its equations: every abstractable slot is
    /// planned [`SlotPlan::Project`].
    ///
    /// * `properties` — the properties that will be checked; their atoms
    ///   define the observable read set.
    /// * `prefix` — how this process's signals are spelled in the
    ///   property namespace (`""` for a single thread, `"<component>_"`
    ///   inside a product).
    /// * `extra_reads` — additional observable signal names in the
    ///   *process* namespace (port-link endpoints of a product component).
    /// * `expected_slots` — the evaluator's `memory_len()`; if the mirror
    ///   walk disagrees, the analysis degrades to the identity (all
    ///   concrete) rather than guessing at slot positions.
    pub fn analyze(
        process: &Process,
        properties: &[Property],
        prefix: &str,
        extra_reads: &[String],
        expected_slots: usize,
    ) -> Self {
        // Mirror of the evaluator's allocation walk over the equations.
        let mut graph = EquationGraph::default();
        for equation in &process.equations {
            match equation {
                Equation::Definition { target, expr } => graph.define(target, expr, false),
                Equation::PartialDefinition { target, expr } => graph.define(target, expr, true),
                _ => {}
            }
        }
        if graph.slots.len() != expected_slots {
            // The mirror walk and the evaluator disagree about slot
            // allocation — never abstract on a guessed layout.
            return Self::identity(expected_slots);
        }

        // Complete the seeds: multiply defined signals, link endpoints and
        // property atoms.
        let read_set = ReadSet::of_properties(properties);
        for (id, name) in graph.names.iter().enumerate() {
            graph.observed[id] |= graph.definitions[id] > 1
                || extra_reads.iter().any(|r| r == name)
                || read_set.reads(prefix, name);
        }

        // Backward reachability: every signal an observed signal's
        // definition reads is observed too.
        let observed = &mut graph.observed;
        let mut stack: Vec<usize> = (0..observed.len()).filter(|&id| observed[id]).collect();
        while let Some(target) = stack.pop() {
            for &source in &graph.sources[target] {
                if !observed[source] {
                    observed[source] = true;
                    stack.push(source);
                }
            }
        }

        let plans = graph
            .slots
            .iter()
            .map(|site| {
                if site.forbidden
                    || !matches!(site.init, Value::Int(_))
                    || graph.observed[site.target]
                {
                    SlotPlan::Concrete
                } else {
                    SlotPlan::Project
                }
            })
            .collect();
        let targets = graph
            .slots
            .iter()
            .map(|site| graph.names[site.target].to_string())
            .collect();
        let inits = graph.slots.into_iter().map(|site| site.init).collect();
        Self {
            plans,
            inits,
            targets,
        }
    }

    /// An identity abstraction (all slots concrete) of the given width.
    pub fn identity(slots: usize) -> Self {
        Self {
            plans: vec![SlotPlan::Concrete; slots],
            inits: vec![Value::Event; slots],
            targets: vec![String::new(); slots],
        }
    }

    /// Concatenates per-component abstractions into the joint product
    /// abstraction (joint memory is the concatenation of component
    /// memories).
    pub fn concat(parts: impl IntoIterator<Item = SlotAbstraction>) -> Self {
        let mut plans = Vec::new();
        let mut inits = Vec::new();
        let mut targets = Vec::new();
        for part in parts {
            plans.extend(part.plans);
            inits.extend(part.inits);
            targets.extend(part.targets);
        }
        Self {
            plans,
            inits,
            targets,
        }
    }

    /// `true` when no slot is sliced — the sliced run would explore exactly
    /// the unsliced space, so callers skip the normalisation.
    pub fn is_identity(&self) -> bool {
        self.plans.iter().all(|p| *p == SlotPlan::Concrete)
    }

    /// The per-slot plans, in evaluator memory order.
    pub fn plans(&self) -> &[SlotPlan] {
        &self.plans
    }

    /// Number of slots the slice drops from the canonical key.
    pub fn sliced_slots(&self) -> usize {
        self.plans
            .iter()
            .filter(|p| matches!(p, SlotPlan::Project))
            .count()
    }

    /// Target signals of the non-concrete slots (for reports and tracing).
    pub fn abstracted_targets(&self) -> Vec<&str> {
        self.plans
            .iter()
            .zip(&self.targets)
            .filter(|(p, _)| **p != SlotPlan::Concrete)
            .map(|(_, t)| t.as_str())
            .collect()
    }

    /// Rewrites `memory` into the canonical representative of its sliced
    /// equivalence class: projected slots holding an integer reset to their
    /// initial value; a slot holding a value of another type keeps it, so a
    /// representative never changes the type of what it replaces.
    pub fn normalize(&self, memory: &mut [Value]) {
        debug_assert_eq!(memory.len(), self.plans.len());
        for ((plan, slot), init) in self.plans.iter().zip(memory.iter_mut()).zip(&self.inits) {
            if *plan == SlotPlan::Project && matches!(slot, Value::Int(_)) {
                *slot = init.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::eval::Evaluator;
    use signal_moc::value::ValueType;

    /// `count := count$1 init 0 + 1` alongside an observed alarm chain that
    /// never reads the counter.
    fn counter_process() -> Process {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.define(
            "Alarm",
            Expr::and(Expr::var("tick"), Expr::not(Expr::var("tick"))),
        );
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["tick", "Alarm", "count"]);
        b.build().expect("valid process")
    }

    fn analyze(process: &Process, properties: &[Property]) -> SlotAbstraction {
        let evaluator = Evaluator::new(process).expect("evaluates");
        SlotAbstraction::analyze(process, properties, "", &[], evaluator.memory_len())
    }

    #[test]
    fn projection_resets_isolated_slots_to_init() {
        let process = counter_process();
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())]);
        assert_eq!(abs.plans(), &[SlotPlan::Project]);
        let mut memory = vec![Value::Int(41)];
        abs.normalize(&mut memory);
        assert_eq!(memory, vec![Value::Int(0)]);
        // A value of another type is kept: the representative never
        // changes the type flowing downstream.
        let mut retyped = vec![Value::Bool(true)];
        abs.normalize(&mut retyped);
        assert_eq!(retyped, vec![Value::Bool(true)]);
    }

    #[test]
    fn property_reading_the_counter_forces_concrete() {
        let process = counter_process();
        for property in [
            Property::parse_ltl("never count").unwrap(),
            Property::parse_ltl("never present(count)").unwrap(),
            Property::parse_ltl("never raised(cou*)").unwrap(),
            Property::parse_ltl("never raised(*ount*)").unwrap(),
        ] {
            let abs = analyze(&process, std::slice::from_ref(&property));
            assert!(abs.is_identity(), "{property:?} must pin the slot");
        }
        // A glob that does not cover the counter leaves it abstractable.
        let abs = analyze(
            &process,
            &[Property::parse_ltl("never raised(*Alarm*)").unwrap()],
        );
        assert!(!abs.is_identity());
    }

    /// `count` feeds `gate` through `role`: nothing, a `when` condition or
    /// a divisor.
    fn counter_feeding(role: &str) -> Process {
        let mut b = ProcessBuilder::new("feeding");
        b.input("tick", ValueType::Integer);
        b.output("Alarm", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.local("gate", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        let gate = match role {
            "when" => Expr::when(
                Expr::var("tick"),
                Expr::ge(Expr::var("count"), Expr::int(3)),
            ),
            "divisor" => Expr::Binary(
                BinOp::Div,
                Box::new(Expr::var("tick")),
                Box::new(Expr::var("count")),
            ),
            _ => Expr::add(Expr::var("tick"), Expr::var("count")),
        };
        b.define("gate", gate);
        b.define("Alarm", Expr::lt(Expr::var("tick"), Expr::int(0)));
        b.synchronize(&["tick", "count", "Alarm"]);
        b.build().expect("valid process")
    }

    #[test]
    fn deadlock_freedom_slices_only_counters_that_cannot_decide_execution() {
        let properties = [
            Property::NeverRaised("*Alarm*".into()),
            Property::DeadlockFree,
        ];
        // Unobservable: integer arithmetic wraps, so the counter's value
        // cannot make an instant fail — it is sliced under deadlock
        // freedom too.
        let abs = analyze(&counter_feeding("plain"), &properties);
        assert_eq!(abs.plans(), &[SlotPlan::Project]);
        assert_eq!(abs.abstracted_targets(), vec!["count"]);
        // Feeding a `when` decides presence; feeding a divisor decides
        // whether evaluation fails. Both keep the counter concrete.
        for role in ["when", "divisor"] {
            let abs = analyze(&counter_feeding(role), &properties);
            assert!(abs.is_identity(), "a counter feeding a {role} must stay");
        }
    }

    #[test]
    fn presence_influence_forces_concrete() {
        // gate := count$1 > 2; out := tick when gate — the counter's value
        // decides feasibility through the `when` condition.
        let mut b = ProcessBuilder::new("gated");
        b.input("tick", ValueType::Boolean);
        b.output("out", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.local("gate", ValueType::Boolean);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.define(
            "gate",
            Expr::ge(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(3)),
        );
        b.define("out", Expr::when(Expr::var("tick"), Expr::var("gate")));
        b.synchronize(&["tick", "count", "gate"]);
        let process = b.build().expect("valid process");
        let abs = analyze(&process, &[Property::NeverRaised("*never*".into())]);
        assert!(abs.is_identity(), "count flows into a when-condition");
    }

    #[test]
    fn influence_closure_follows_derived_signals() {
        // count feeds shadow; a property reads shadow — count must stay
        // concrete even though nothing reads it directly.
        let mut b = ProcessBuilder::new("chain");
        b.input("tick", ValueType::Boolean);
        b.local("count", ValueType::Integer);
        b.output("shadow", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.define("shadow", Expr::add(Expr::var("count"), Expr::int(0)));
        b.synchronize(&["tick", "count", "shadow"]);
        let process = b.build().expect("valid process");
        let abs = analyze(&process, &[Property::parse_ltl("never shadow").unwrap()]);
        assert!(abs.is_identity());
        // With an unrelated property both slots abstract away.
        let abs = analyze(&process, &[Property::NeverRaised("*Alarm*".into())]);
        assert_eq!(abs.sliced_slots(), 1);
    }

    #[test]
    fn slot_count_mismatch_degrades_to_identity() {
        let process = counter_process();
        let abs = SlotAbstraction::analyze(
            &process,
            &[Property::NeverRaised("*Alarm*".into())],
            "",
            &[],
            7, // wrong width
        );
        assert!(abs.is_identity());
        assert_eq!(abs.plans().len(), 7);
    }

    #[test]
    fn prefixed_reads_and_extra_reads_apply_in_products() {
        let process = counter_process();
        // In the joint namespace the counter is `th_count`.
        let evaluator = Evaluator::new(&process).expect("evaluates");
        let reads_counter = SlotAbstraction::analyze(
            &process,
            &[Property::parse_ltl("never th_count").unwrap()],
            "th_",
            &[],
            evaluator.memory_len(),
        );
        assert!(reads_counter.is_identity());
        let link_touches_counter = SlotAbstraction::analyze(
            &process,
            &[Property::NeverRaised("*Alarm*".into())],
            "th_",
            &["count".to_string()],
            evaluator.memory_len(),
        );
        assert!(link_touches_counter.is_identity());
    }
}
