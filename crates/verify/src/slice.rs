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
//! The engine runs on *representatives*: [`Slice::normalize`] resets every
//! sliced slot to its initial value, and the untouched
//! [`crate::state::KeyCodec`] then encodes the representative, so a sliced
//! slot drops out of the state key. The unsliced reference exploration is
//! the exploration under the empty slice ([`Slice::default`]).
//!
//! # Which slots may be sliced
//!
//! [`Slice::of`] slices a slot only when its value provably cannot reach
//! any observable. The evaluator answers that question on its compiled
//! equations ([`Evaluator::slots_reaching`]), in one backward-reachability
//! pass from
//!
//! * every signal read by a checked property (exact names from
//!   `Signal`/`Present` atoms, glob patterns from `Raised` atoms matched
//!   against the property-visible — possibly `<component>_`-prefixed —
//!   name) and every signal a product port link touches: the seeds this
//!   module supplies;
//! * every signal in a presence-determining position: a `when` condition,
//!   a `cell` trigger, a `^e` / `when b` clock expression — value changes
//!   there would change which transitions are feasible;
//! * every signal in the divisor of `/` or `mod` — the value there decides
//!   whether evaluation fails with a division by zero;
//! * every signal with a partial or multiple definition — merged partial
//!   definitions compare values at runtime.
//!
//! A slot is sliced when the target of its equation is unmarked, the slot
//! operator itself sits in no presence or divisor position, and its initial
//! value is an integer.
//!
//! # Soundness
//!
//! Under these conditions the slice is *exact for observables*: the value
//! of a sliced slot flows only into unmarked signals, none of which any
//! monitor reads or any clock condition consumes, so replacing the slot
//! value by its representative changes neither the feasibility of any
//! transition nor the value of any observed signal. Feasibility includes
//! evaluation errors, which is why [`Property::DeadlockFree`] needs no
//! exception: integer arithmetic wraps, so division by zero is the only
//! error a value (rather than a type) can cause, and divisors are marked; a
//! representative keeps the type of the value it replaces (the reset
//! applies to integer values only), so no type error appears or vanishes.
//! Sliced and unsliced systems therefore have identical observable trace
//! sets, and the same executable instants: a `Proved` on the quotient is a
//! genuine proof, and a violation is found at the same instant as in the
//! unsliced system (see `docs/SYMBOLIC.md`).

use std::collections::BTreeSet;

use signal_moc::eval::Evaluator;
use signal_moc::value::Value;

use crate::ltl::Formula;
use crate::property::pattern_matches;
use crate::Property;

/// The memory slots one exploration drops from the state key, each with
/// the initial value it resets to, over the memory of one process (or the
/// concatenated memories of a product's components). The default is the
/// empty slice, under which the exploration is unsliced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// The sliced slots in ascending order, each with its initial value.
    slots: Vec<(usize, Value)>,
    /// The length of the memory the slot indices refer to.
    width: usize,
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
                ltl.invariant().for_each_atom(&mut |atom| match atom {
                    Formula::Signal(name) | Formula::Present(name) => {
                        names.insert(name.clone());
                    }
                    Formula::Raised(pattern) => {
                        patterns.insert(pattern.clone());
                    }
                    _ => unreachable!("only atoms are visited"),
                });
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

impl Slice {
    /// The slice of `evaluator`'s memory: every slot that starts as an
    /// integer and whose value cannot reach an observable.
    ///
    /// * `properties` — the properties that will be checked; their atoms
    ///   define the observable read set.
    /// * `prefix` — how this process's signals are spelled in the
    ///   property namespace (`""` for a single thread, `"<component>_"`
    ///   inside a product).
    /// * `extra_reads` — additional observable signal names in the
    ///   *process* namespace (port-link endpoints of a product component).
    pub fn of(
        evaluator: &Evaluator,
        properties: &[Property],
        prefix: &str,
        extra_reads: &[String],
    ) -> Self {
        let read_set = ReadSet::of_properties(properties);
        let reaching = evaluator.slots_reaching(|name| {
            extra_reads.iter().any(|r| r == name) || read_set.reads(prefix, name)
        });
        let slots = evaluator
            .initial_memory()
            .iter()
            .zip(&reaching)
            .enumerate()
            .filter(|(_, (init, reaches))| !**reaches && matches!(init, Value::Int(_)))
            .map(|(slot, (init, _))| (slot, init.clone()))
            .collect();
        Self {
            slots,
            width: reaching.len(),
        }
    }

    /// Concatenates per-component slices into the slice of the joint
    /// product memory (the concatenation of the component memories).
    pub fn concat(parts: impl IntoIterator<Item = Slice>) -> Self {
        let mut joint = Self::default();
        for part in parts {
            let offset = joint.width;
            joint.slots.extend(
                part.slots
                    .into_iter()
                    .map(|(slot, init)| (offset + slot, init)),
            );
            joint.width += part.width;
        }
        joint
    }

    /// Number of slots the slice drops from the state key.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for the empty slice: the exploration keeps every slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rewrites `memory` into the canonical representative of its sliced
    /// equivalence class: a sliced slot holding an integer resets to its
    /// initial value; a slot holding a value of another type keeps it, so a
    /// representative never changes the type of what it replaces.
    pub fn normalize(&self, memory: &mut [Value]) {
        for (slot, init) in &self.slots {
            let value = &mut memory[*slot];
            if matches!(value, Value::Int(_)) {
                value.clone_from(init);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::expr::{BinOp, Expr};
    use signal_moc::process::Process;
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

    fn slice_of(process: &Process, properties: &[Property]) -> Slice {
        let evaluator = Evaluator::new(process).expect("evaluates");
        Slice::of(&evaluator, properties, "", &[])
    }

    #[test]
    fn slicing_resets_isolated_slots_to_init() {
        let process = counter_process();
        let slice = slice_of(&process, &[Property::NeverRaised("*Alarm*".into())]);
        assert_eq!(slice.len(), 1);
        let mut memory = vec![Value::Int(41)];
        slice.normalize(&mut memory);
        assert_eq!(memory, vec![Value::Int(0)]);
        // A value of another type is kept: the representative never
        // changes the type flowing downstream.
        let mut retyped = vec![Value::Bool(true)];
        slice.normalize(&mut retyped);
        assert_eq!(retyped, vec![Value::Bool(true)]);
    }

    #[test]
    fn property_reading_the_counter_keeps_it() {
        let process = counter_process();
        for property in [
            Property::parse_ltl("never count").unwrap(),
            Property::parse_ltl("never present(count)").unwrap(),
            Property::parse_ltl("never raised(cou*)").unwrap(),
            Property::parse_ltl("never raised(*ount*)").unwrap(),
        ] {
            let slice = slice_of(&process, std::slice::from_ref(&property));
            assert!(slice.is_empty(), "{property:?} must pin the slot");
        }
        // A glob that does not cover the counter leaves it sliceable.
        let slice = slice_of(
            &process,
            &[Property::parse_ltl("never raised(*Alarm*)").unwrap()],
        );
        assert!(!slice.is_empty());
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
        let slice = slice_of(&counter_feeding("plain"), &properties);
        assert_eq!(slice.len(), 1);
        // Feeding a `when` decides presence; feeding a divisor decides
        // whether evaluation fails. Both keep the counter.
        for role in ["when", "divisor"] {
            let slice = slice_of(&counter_feeding(role), &properties);
            assert!(slice.is_empty(), "a counter feeding a {role} must stay");
        }
    }

    #[test]
    fn presence_influence_keeps_the_counter() {
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
        let slice = slice_of(&process, &[Property::NeverRaised("*never*".into())]);
        assert!(slice.is_empty(), "count flows into a when-condition");
    }

    #[test]
    fn influence_closure_follows_derived_signals() {
        // count feeds shadow; a property reads shadow — count must stay
        // even though nothing reads it directly.
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
        let slice = slice_of(&process, &[Property::parse_ltl("never shadow").unwrap()]);
        assert!(slice.is_empty());
        // With an unrelated property the counter is sliced.
        let slice = slice_of(&process, &[Property::NeverRaised("*Alarm*".into())]);
        assert_eq!(slice.len(), 1);
    }

    #[test]
    fn prefixed_reads_and_extra_reads_apply_in_products() {
        let evaluator = Evaluator::new(&counter_process()).expect("evaluates");
        // In the joint namespace the counter is `th_count`.
        let reads_counter = Slice::of(
            &evaluator,
            &[Property::parse_ltl("never th_count").unwrap()],
            "th_",
            &[],
        );
        assert!(reads_counter.is_empty());
        let link_touches_counter = Slice::of(
            &evaluator,
            &[Property::NeverRaised("*Alarm*".into())],
            "th_",
            &["count".to_string()],
        );
        assert!(link_touches_counter.is_empty());
    }

    #[test]
    fn concat_offsets_each_part_by_the_memories_before_it() {
        let evaluator = Evaluator::new(&counter_process()).expect("evaluates");
        let kept = Slice::of(
            &evaluator,
            &[Property::parse_ltl("never count").unwrap()],
            "",
            &[],
        );
        let sliced = Slice::of(
            &evaluator,
            &[Property::NeverRaised("*Alarm*".into())],
            "",
            &[],
        );
        let joint = Slice::concat([kept, sliced]);
        assert_eq!(joint.len(), 1);
        let mut memory = vec![Value::Int(5), Value::Int(7)];
        joint.normalize(&mut memory);
        assert_eq!(memory, vec![Value::Int(5), Value::Int(0)]);
    }
}
