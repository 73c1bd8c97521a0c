//! Compilation of past-time LTL formulas into deterministic monitor
//! automata.
//!
//! An [`LtlMonitor`] turns a [`Formula`] into a register machine that is
//! advanced once per resolved instant: every temporal operator of the
//! formula owns exactly one `u32` register (the classical past-time-LTL
//! monitoring construction — `previously`/`once`/`historically`/`since`
//! keep one bit of history, `within` keeps the remaining-deadline
//! countdown of the bounded-response automaton). The registers live in the
//! explored [`crate::State`] alongside the delay memories and the
//! scheduler phase, so user-supplied properties flow unchanged through
//! per-thread exploration ([`crate::Verifier`]), the product
//! ([`crate::ProductVerifier`]), counterexample replay and the lockstep
//! co-simulation.
//!
//! A formula with no temporal operator compiles to a *stateless* monitor
//! (zero registers): checking it never enlarges the state space. This is
//! why the [`crate::Property::NeverRaised`] desugaring is cost-free, and
//! why [`crate::Property::BoundedResponse`] compiles to exactly the one
//! countdown register the hand-written legacy monitor used.
//!
//! The explorers check properties through one crate-private `Checks`,
//! built once per exploration: it compiles every property, resolves each
//! `S`, `present(S)` and `raised(glob)` atom to the evaluator ids (for a
//! thread) or joint slots (for a product) it reads, a glob to its matches
//! in name order, and its `step` advances every monitor over those slots,
//! so a monitor step compares no names.
//! [`LtlMonitor::step`] keeps reading names through any [`InstantView`]:
//! replay, lockstep co-simulation and the tests use it, and it is the
//! reference the bound step is held to.
//!
//! The monitor is cross-validated against the brute-force reference
//! semantics of [`crate::ltl::eval`] by property-based tests: for every
//! formula and every trace, stepping the monitor instant by instant must
//! produce the same truth sequence as re-evaluating the formula over each
//! prefix.
//!
//! ```
//! use polyverify::ltl::LtlProperty;
//! use polyverify::monitor::LtlMonitor;
//! use signal_moc::trace::TraceStep;
//! use signal_moc::value::Value;
//!
//! let property = LtlProperty::parse("always (Alarm implies once Deadline)")?;
//! let monitor = LtlMonitor::new(property.invariant().clone());
//! assert_eq!(monitor.register_count(), 1); // one register for `once`
//!
//! let mut registers = monitor.initial();
//! let mut alarm = TraceStep::new();
//! alarm.set("Alarm", Value::Bool(true));
//! // An alarm with no prior deadline violates the invariant.
//! assert!(!monitor.step(&mut registers, &alarm).holds);
//! # Ok::<(), polyverify::ltl::ParseError>(())
//! ```

use signal_moc::eval::{Evaluator, ResolvedStep};
use signal_moc::value::Value;
use signal_moc::InstantView;

use crate::engine::Sink;
use crate::explore::VerifyError;
use crate::ltl::Formula;
use crate::property::{pattern_matches, raised_signal, signal_true, Property};
use crate::state::MONITOR_IDLE;

/// What one monitor step observed: the truth value of the formula at this
/// instant, plus the witness details used to annotate violations. `W` is
/// how the matched signal is named: an owned name for
/// [`LtlMonitor::step`], a name borrowed from the bound atoms for the
/// explorers' steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorStep<W = String> {
    /// The value of the formula at this instant; `false` is a violation of
    /// the invariant.
    pub holds: bool,
    /// `true` when a `within` deadline expired unanswered at this instant.
    pub expired: bool,
    /// The first signal matched by a `raised(...)` atom at this instant,
    /// if any.
    pub raised: Option<W>,
}

/// A deterministic monitor automaton compiled from a past-time LTL
/// invariant. See the [module documentation](self) for the construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LtlMonitor {
    invariant: Formula,
    initial: Vec<u32>,
}

impl LtlMonitor {
    /// Compiles the invariant, assigning one register per temporal
    /// operator (pre-order).
    pub fn new(invariant: Formula) -> Self {
        let mut initial = Vec::with_capacity(invariant.temporal_count());
        collect_initial(&invariant, &mut initial);
        Self { invariant, initial }
    }

    /// The invariant this monitor checks at every instant.
    pub fn invariant(&self) -> &Formula {
        &self.invariant
    }

    /// Number of `u32` registers the monitor keeps in the explored state.
    pub fn register_count(&self) -> usize {
        self.initial.len()
    }

    /// The register values before the first instant.
    pub fn initial(&self) -> Vec<u32> {
        self.initial.clone()
    }

    /// Advances the monitor over one resolved instant — any
    /// [`InstantView`], so the hot exploration paths can step monitors over
    /// borrowed evaluator state without materialising a
    /// [`signal_moc::trace::TraceStep`] — updating `registers` in place and
    /// returning the truth value of the invariant at this instant.
    ///
    /// # Panics
    ///
    /// Panics when `registers.len()` differs from
    /// [`LtlMonitor::register_count`].
    pub fn step<V: InstantView + ?Sized>(&self, registers: &mut [u32], step: &V) -> MonitorStep {
        self.run(registers, &ByName(step))
    }

    /// Binds every atom of the invariant to its slot in `namespace`, in
    /// the order [`LtlMonitor::step_bound`] reads them.
    pub(crate) fn bind(&self, namespace: &Namespace<'_>) -> Vec<BoundAtom> {
        let mut atoms = Vec::new();
        self.invariant.for_each_atom(&mut |atom| {
            atoms.push(match atom {
                Formula::Signal(name) | Formula::Present(name) => {
                    BoundAtom::Name(namespace.slot_of(name))
                }
                Formula::Raised(pattern) => BoundAtom::Glob(namespace.matching(pattern)),
                _ => unreachable!("only atoms are visited"),
            })
        });
        atoms
    }

    /// Advances the monitor like [`LtlMonitor::step`], reading each atom
    /// from the slot [`LtlMonitor::bind`] bound it to: the same registers,
    /// truth value and witness as the name-based step over the same
    /// instant.
    pub(crate) fn step_bound<'t, S: SlotValues + ?Sized>(
        &self,
        registers: &mut [u32],
        atoms: &'t [BoundAtom],
        slots: &S,
    ) -> MonitorStep<&'t str> {
        self.run(registers, &Bound { atoms, slots })
    }

    fn run<R: AtomReader>(&self, registers: &mut [u32], reader: &R) -> MonitorStep<R::Witness> {
        assert_eq!(
            registers.len(),
            self.initial.len(),
            "monitor stepped with a register slice of the wrong width"
        );
        let mut out = MonitorStep {
            holds: true,
            expired: false,
            raised: None,
        };
        let mut cursor = Cursor::default();
        out.holds = eval_step(&self.invariant, reader, registers, &mut cursor, &mut out);
        debug_assert_eq!(
            cursor.register,
            registers.len(),
            "register walk out of sync"
        );
        out
    }
}

/// How a monitor step reads the atoms of its formula. `atom` numbers the
/// atom in the pre-order walk of [`Formula::for_each_atom`]; a name-based
/// reader reads the atom's own name instead.
trait AtomReader {
    /// How a true `raised(...)` atom names the signal it matched.
    type Witness;
    /// `S`: the signal is present with a `true`-ish value.
    fn signal(&self, atom: usize, name: &str) -> bool;
    /// `present(S)`: the signal is present.
    fn present(&self, atom: usize, name: &str) -> bool;
    /// `raised(glob)`: the first matching signal, in name order, that is
    /// present with a `true`-ish value.
    fn raised(&self, atom: usize, pattern: &str) -> Option<Self::Witness>;
}

/// Reads atoms by name from any [`InstantView`].
struct ByName<'v, V: ?Sized>(&'v V);

impl<V: InstantView + ?Sized> AtomReader for ByName<'_, V> {
    type Witness = String;

    fn signal(&self, _: usize, name: &str) -> bool {
        signal_true(self.0, name)
    }

    fn present(&self, _: usize, name: &str) -> bool {
        self.0.is_present(name)
    }

    fn raised(&self, _: usize, pattern: &str) -> Option<String> {
        raised_signal(pattern, self.0)
    }
}

/// One signal of an explored instant, by where its value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Signal `id` (see [`Evaluator::signal_id`]) of the evaluator of
    /// component `component` (0 for a single thread).
    Signal {
        /// Index of the component.
        component: u32,
        /// The signal's evaluator id.
        id: u32,
    },
    /// `<link>_sent` of the link with this index.
    Sent(u32),
    /// `<link>_received` of the link with this index.
    Received(u32),
    /// `<link>_consumed` of the link with this index.
    Consumed(u32),
}

/// The value of each [`Slot`] at one explored instant.
pub(crate) trait SlotValues {
    /// The slot's value, `None` when its signal is absent.
    fn value(&self, slot: Slot) -> Option<&Value>;
}

/// A thread's instant: its evaluator's signals, no links.
impl SlotValues for ResolvedStep<'_> {
    fn value(&self, slot: Slot) -> Option<&Value> {
        match slot {
            Slot::Signal { id, .. } => self.value_at(id),
            Slot::Sent(_) | Slot::Received(_) | Slot::Consumed(_) => None,
        }
    }
}

/// An atom bound to the slots it reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundAtom {
    /// `S` or `present(S)`: the slot of `S`, `None` when the namespace has
    /// no signal of that name.
    Name(Option<Slot>),
    /// `raised(glob)`: every matching slot in name order, each with its
    /// name for the witness.
    Glob(Vec<(Slot, String)>),
}

/// Reads atoms from the slots they were bound to.
struct Bound<'t, 'v, S: ?Sized> {
    atoms: &'t [BoundAtom],
    slots: &'v S,
}

impl<S: SlotValues + ?Sized> Bound<'_, '_, S> {
    fn read(&self, atom: usize) -> Option<&Value> {
        match &self.atoms[atom] {
            BoundAtom::Name(slot) => slot.and_then(|slot| self.slots.value(slot)),
            BoundAtom::Glob(_) => unreachable!("a glob is bound to a raised atom"),
        }
    }
}

impl<'t, S: SlotValues + ?Sized> AtomReader for Bound<'t, '_, S> {
    type Witness = &'t str;

    fn signal(&self, atom: usize, _: &str) -> bool {
        self.read(atom).is_some_and(Value::as_bool)
    }

    fn present(&self, atom: usize, _: &str) -> bool {
        self.read(atom).is_some()
    }

    fn raised(&self, atom: usize, _: &str) -> Option<&'t str> {
        let BoundAtom::Glob(matches) = &self.atoms[atom] else {
            unreachable!("a raised atom is bound to a glob")
        };
        matches
            .iter()
            .find(|(slot, _)| self.slots.value(*slot).is_some_and(Value::as_bool))
            .map(|(_, name)| name.as_str())
    }
}

/// The names properties read at an explored instant, resolved to slots:
/// the signals of each component's evaluator, spelled with the
/// component's prefix, and the link-derived joints of a product.
pub(crate) struct Namespace<'a> {
    /// Per component: its prefix and its evaluator.
    components: Vec<(String, &'a Evaluator)>,
    /// Per link: its prefix, and whether it derives `<link>_consumed`.
    links: Vec<(String, bool)>,
    /// Every component and link, sorted by prefix. The prefixes are
    /// mutually prefix-free, so each one's signals occupy a contiguous
    /// range of the name-sorted instant, and this is the global name
    /// order.
    blocks: Vec<Block>,
}

/// One component or link of a [`Namespace`].
#[derive(Debug, Clone, Copy)]
enum Block {
    Component(usize),
    Link(usize),
}

impl<'a> Namespace<'a> {
    /// The namespace of one thread: its signals, unprefixed.
    pub fn thread(evaluator: &'a Evaluator) -> Self {
        Self::new(vec![(String::new(), evaluator)], Vec::new())
    }

    /// A joint namespace. `components` lists each component's prefix and
    /// evaluator, `links` each link's prefix and whether it derives
    /// `<link>_consumed`; the prefixes must be mutually prefix-free.
    pub fn new(components: Vec<(String, &'a Evaluator)>, links: Vec<(String, bool)>) -> Self {
        let mut blocks: Vec<Block> = (0..components.len())
            .map(Block::Component)
            .chain((0..links.len()).map(Block::Link))
            .collect();
        let prefix = |block: &Block| match *block {
            Block::Component(i) => components[i].0.as_str(),
            Block::Link(k) => links[k].0.as_str(),
        };
        blocks.sort_by(|a, b| prefix(a).cmp(prefix(b)));
        Self {
            components,
            links,
            blocks,
        }
    }

    /// The slot of `name`, if the namespace has such a signal. At most one
    /// prefix matches a name.
    fn slot_of(&self, name: &str) -> Option<Slot> {
        for (component, (prefix, evaluator)) in self.components.iter().enumerate() {
            if let Some(local) = name.strip_prefix(prefix.as_str()) {
                return evaluator.signal_id(local).map(|id| Slot::Signal {
                    component: component as u32,
                    id,
                });
            }
        }
        for (k, (prefix, consumed)) in self.links.iter().enumerate() {
            if let Some(kind) = name.strip_prefix(prefix.as_str()) {
                let k = k as u32;
                return match kind {
                    "sent" => Some(Slot::Sent(k)),
                    "received" => Some(Slot::Received(k)),
                    "consumed" if *consumed => Some(Slot::Consumed(k)),
                    _ => None,
                };
            }
        }
        None
    }

    /// Every slot whose name matches `pattern`, in name order, with its
    /// name.
    fn matching(&self, pattern: &str) -> Vec<(Slot, String)> {
        let mut out = Vec::new();
        let mut name = String::new();
        let mut visit = |prefix: &str, local: &str, slot: Slot| {
            name.clear();
            name.push_str(prefix);
            name.push_str(local);
            if pattern_matches(pattern, &name) {
                out.push((slot, name.clone()));
            }
        };
        for block in &self.blocks {
            match *block {
                Block::Component(component) => {
                    let (prefix, evaluator) = &self.components[component];
                    let names = evaluator.signal_names();
                    for &id in evaluator.ids_by_name() {
                        let slot = Slot::Signal {
                            component: component as u32,
                            id,
                        };
                        visit(prefix, &names[id as usize], slot);
                    }
                }
                Block::Link(k) => {
                    let (prefix, consumed) = &self.links[k];
                    let k = k as u32;
                    if *consumed {
                        visit(prefix, "consumed", Slot::Consumed(k));
                    }
                    visit(prefix, "received", Slot::Received(k));
                    visit(prefix, "sent", Slot::Sent(k));
                }
            }
        }
        out
    }
}

/// Initial register value of each temporal operator, in the same pre-order
/// walk [`eval_step`] uses.
fn collect_initial(formula: &Formula, out: &mut Vec<u32>) {
    match formula {
        Formula::Const(_) | Formula::Signal(_) | Formula::Present(_) | Formula::Raised(_) => {}
        Formula::Not(a) => collect_initial(a, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            collect_initial(a, out);
            collect_initial(b, out);
        }
        Formula::Previously(a) | Formula::Once(a) => {
            out.push(0);
            collect_initial(a, out);
        }
        Formula::Historically(a) => {
            out.push(1);
            collect_initial(a, out);
        }
        Formula::Since(a, b) => {
            out.push(0);
            collect_initial(a, out);
            collect_initial(b, out);
        }
        Formula::Within {
            trigger, response, ..
        } => {
            out.push(MONITOR_IDLE);
            collect_initial(trigger, out);
            collect_initial(response, out);
        }
    }
}

/// Evaluates `formula` at the current instant, reading each temporal
/// operator's register (its value *before* this instant) and writing the
/// updated value back. Both operands of every connective are evaluated
/// unconditionally — short-circuiting would skip register updates of the
/// unevaluated side and desynchronise the monitor.
fn eval_step<R: AtomReader>(
    formula: &Formula,
    step: &R,
    registers: &mut [u32],
    cursor: &mut Cursor,
    out: &mut MonitorStep<R::Witness>,
) -> bool {
    match formula {
        Formula::Const(b) => *b,
        Formula::Signal(name) => step.signal(cursor.atom(), name),
        Formula::Present(name) => step.present(cursor.atom(), name),
        Formula::Raised(pattern) => match step.raised(cursor.atom(), pattern) {
            Some(signal) => {
                out.raised.get_or_insert(signal);
                true
            }
            None => false,
        },
        Formula::Not(a) => !eval_step(a, step, registers, cursor, out),
        Formula::And(a, b) => {
            let va = eval_step(a, step, registers, cursor, out);
            let vb = eval_step(b, step, registers, cursor, out);
            va && vb
        }
        Formula::Or(a, b) => {
            let va = eval_step(a, step, registers, cursor, out);
            let vb = eval_step(b, step, registers, cursor, out);
            va || vb
        }
        Formula::Implies(a, b) => {
            let va = eval_step(a, step, registers, cursor, out);
            let vb = eval_step(b, step, registers, cursor, out);
            !va || vb
        }
        Formula::Previously(a) => {
            let slot = cursor.register();
            let before = registers[slot] != 0;
            let now = eval_step(a, step, registers, cursor, out);
            registers[slot] = u32::from(now);
            before
        }
        Formula::Once(a) => {
            let slot = cursor.register();
            let now = eval_step(a, step, registers, cursor, out) || registers[slot] != 0;
            registers[slot] = u32::from(now);
            now
        }
        Formula::Historically(a) => {
            let slot = cursor.register();
            let now = eval_step(a, step, registers, cursor, out) && registers[slot] != 0;
            registers[slot] = u32::from(now);
            now
        }
        Formula::Since(a, b) => {
            let slot = cursor.register();
            let va = eval_step(a, step, registers, cursor, out);
            let vb = eval_step(b, step, registers, cursor, out);
            let now = vb || (va && registers[slot] != 0);
            registers[slot] = u32::from(now);
            now
        }
        Formula::Within {
            trigger,
            response,
            bound,
        } => {
            let slot = cursor.register();
            let trig = eval_step(trigger, step, registers, cursor, out);
            let resp = eval_step(response, step, registers, cursor, out);
            let mut register = registers[slot];
            let mut expired = false;
            if register != MONITOR_IDLE {
                if resp {
                    register = MONITOR_IDLE;
                } else {
                    // Armed registers are always in 1..=bound: hitting 0
                    // means the response window just closed unanswered.
                    register -= 1;
                    if register == 0 {
                        expired = true;
                        register = MONITOR_IDLE;
                    }
                }
            }
            if !expired && trig && !resp && register == MONITOR_IDLE {
                if *bound == 0 {
                    expired = true;
                } else {
                    register = *bound;
                }
            }
            registers[slot] = register;
            if expired {
                out.expired = true;
            }
            !expired
        }
    }
}

/// Where a pre-order walk of a formula stands: the next register and the
/// next atom to claim.
#[derive(Default)]
struct Cursor {
    register: usize,
    atom: usize,
}

impl Cursor {
    fn register(&mut self) -> usize {
        self.register += 1;
        self.register - 1
    }

    fn atom(&mut self) -> usize {
        self.atom += 1;
        self.atom - 1
    }
}

/// The properties of one exploration, compiled once: every monitored
/// property (all but [`Property::DeadlockFree`], which is a
/// successor-existence property, not a trace formula) with its monitor,
/// its atoms bound to the exploration's [`Namespace`], and where its
/// registers live in the concatenated vector that is the `monitors`
/// component of the explored [`crate::State`]; plus the index of
/// `DeadlockFree`, when it is checked. [`Checks::step`] is the monitor loop
/// of every explorer.
pub(crate) struct Checks<'p> {
    properties: &'p [Property],
    monitored: Vec<Monitored>,
    initial: Vec<u32>,
    deadlock: Option<usize>,
}

/// One monitored property of [`Checks`].
struct Monitored {
    /// Index of the property in the checked list.
    index: usize,
    /// Offset of its first register in the concatenated vector.
    offset: usize,
    monitor: LtlMonitor,
    /// Its atoms, bound in the exploration's namespace.
    atoms: Vec<BoundAtom>,
}

impl<'p> Checks<'p> {
    /// Compiles every monitored property of `properties`, binds its atoms
    /// in `namespace` and lays its registers out in property order (a
    /// stateless formula such as `never raised(...)` contributes none).
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NoProperties`] for an empty list.
    pub fn new(properties: &'p [Property], namespace: &Namespace<'_>) -> Result<Self, VerifyError> {
        if properties.is_empty() {
            return Err(VerifyError::NoProperties);
        }
        let mut monitored = Vec::new();
        let mut initial = Vec::new();
        for (index, property) in properties.iter().enumerate() {
            if let Some(monitor) = property.monitor() {
                let offset = initial.len();
                initial.extend(monitor.initial());
                monitored.push(Monitored {
                    index,
                    offset,
                    atoms: monitor.bind(namespace),
                    monitor,
                });
            }
        }
        Ok(Self {
            properties,
            monitored,
            initial,
            deadlock: properties
                .iter()
                .position(|p| matches!(p, Property::DeadlockFree)),
        })
    }

    /// The checked properties, in the caller's order.
    pub fn properties(&self) -> &'p [Property] {
        self.properties
    }

    /// The monitored properties, in the caller's order.
    pub fn monitored(&self) -> impl Iterator<Item = &'p Property> + '_ {
        self.monitored.iter().map(|m| &self.properties[m.index])
    }

    /// The concatenated register vector before the first instant.
    pub fn initial(&self) -> &[u32] {
        &self.initial
    }

    /// The index of [`Property::DeadlockFree`], when it is checked.
    pub fn deadlock(&self) -> Option<usize> {
        self.deadlock
    }

    /// Steps every monitor over one executed instant on edge `edge`:
    /// copies the parent's registers `from` into `into` and advances each
    /// monitor over its slice of `into`, reading its bound atoms from
    /// `slots`. A violating monitor reports to `sink` and keeps running (an
    /// expired deadline register returns to idle), so every property gets
    /// its earliest counterexample and several violations can land on the
    /// same transition.
    pub fn step<S: SlotValues + ?Sized>(
        &self,
        from: &[u32],
        into: &mut Vec<u32>,
        slots: &S,
        edge: u32,
        sink: &mut Sink<'_>,
    ) {
        into.clear();
        into.extend_from_slice(from);
        for m in &self.monitored {
            sink.monitor_step();
            let registers = &mut into[m.offset..m.offset + m.monitor.register_count()];
            let observed = m.monitor.step_bound(registers, &m.atoms, slots);
            if !observed.holds {
                sink.violation(m.index, Some(edge), || {
                    self.properties[m.index].violation_witness(&observed)
                });
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ltl::{eval, first_violation, LtlProperty};
    use crate::random_process::{accepted_steps, random_process, Rng};
    use proptest::prelude::*;
    use signal_moc::trace::TraceStep;

    fn step(pairs: &[(&str, bool)]) -> TraceStep {
        let mut s = TraceStep::new();
        for (name, value) in pairs {
            s.set(*name, Value::Bool(*value));
        }
        s
    }

    /// Runs the monitor over a trace and returns the per-instant truth
    /// sequence.
    fn monitor_values(monitor: &LtlMonitor, steps: &[TraceStep]) -> Vec<bool> {
        let mut registers = monitor.initial();
        steps
            .iter()
            .map(|s| monitor.step(&mut registers, s).holds)
            .collect()
    }

    #[test]
    fn stateless_formulas_compile_to_zero_registers() {
        let property = LtlProperty::parse("never raised(*Alarm*)").unwrap();
        let monitor = LtlMonitor::new(property.invariant().clone());
        assert_eq!(monitor.register_count(), 0);
        let mut registers = monitor.initial();
        let quiet = step(&[("Alarm", false)]);
        let fired = step(&[("th_Alarm", true)]);
        assert!(monitor.step(&mut registers, &quiet).holds);
        let out = monitor.step(&mut registers, &fired);
        assert!(!out.holds);
        assert_eq!(out.raised.as_deref(), Some("th_Alarm"));
    }

    #[test]
    fn within_register_matches_the_legacy_bounded_response_monitor() {
        // bound 2: trigger, one quiet instant, then response -> satisfied;
        // bound 1: trigger then quiet -> expires one instant later.
        let monitor = LtlMonitor::new(Formula::within(
            Formula::signal("t"),
            Formula::signal("r"),
            2,
        ));
        assert_eq!(monitor.register_count(), 1);
        assert_eq!(monitor.initial(), vec![MONITOR_IDLE]);
        let trace = [step(&[("t", true)]), step(&[]), step(&[("r", true)])];
        assert_eq!(monitor_values(&monitor, &trace), vec![true, true, true]);

        let tight = LtlMonitor::new(Formula::within(
            Formula::signal("t"),
            Formula::signal("r"),
            1,
        ));
        let mut registers = tight.initial();
        assert!(tight.step(&mut registers, &trace[0]).holds);
        assert_eq!(registers, vec![1]);
        let out = tight.step(&mut registers, &trace[1]);
        assert!(!out.holds);
        assert!(out.expired);
        // After an expiry the register returns to idle and keeps monitoring.
        assert_eq!(registers, vec![MONITOR_IDLE]);
    }

    #[test]
    fn bound_zero_requires_a_same_instant_response() {
        let monitor = LtlMonitor::new(Formula::within(
            Formula::signal("t"),
            Formula::signal("r"),
            0,
        ));
        let mut registers = monitor.initial();
        assert!(
            monitor
                .step(&mut registers, &step(&[("t", true), ("r", true)]))
                .holds
        );
        assert!(!monitor.step(&mut registers, &step(&[("t", true)])).holds);
    }

    #[test]
    fn monitor_agrees_with_the_reference_semantics_on_hand_picked_formulas() {
        let traces = [
            vec![step(&[("a", true)]), step(&[("b", true)]), step(&[])],
            vec![
                step(&[]),
                step(&[("a", true), ("b", false)]),
                step(&[("a", true)]),
                step(&[("b", true)]),
            ],
        ];
        for src in [
            "always previously a",
            "always (once a implies b)",
            "always historically (a or not b)",
            "always (not a since b)",
            "always (a implies b within 1)",
            "always (previously (a since b) or once (a and b))",
        ] {
            let property = LtlProperty::parse(src).unwrap();
            let monitor = LtlMonitor::new(property.invariant().clone());
            for trace in &traces {
                let stepped = monitor_values(&monitor, trace);
                let reference: Vec<bool> = (0..trace.len())
                    .map(|t| eval(property.invariant(), trace, t))
                    .collect();
                assert_eq!(stepped, reference, "{src}");
            }
        }
    }

    #[test]
    fn first_violation_agrees_between_monitor_and_reference() {
        let property = LtlProperty::parse("always (a implies b within 1)").unwrap();
        let monitor = LtlMonitor::new(property.invariant().clone());
        let trace = vec![step(&[("a", true)]), step(&[]), step(&[])];
        let by_monitor = monitor_values(&monitor, &trace)
            .iter()
            .position(|holds| !holds);
        assert_eq!(by_monitor, first_violation(property.invariant(), &trace));
        assert_eq!(by_monitor, Some(1));
    }

    /// A random formula at most `depth` operators deep whose `S` and
    /// `present(S)` atoms read `names` and whose `raised` atoms read
    /// `patterns`.
    pub(crate) fn random_formula(
        rng: &mut Rng,
        names: &[String],
        patterns: &[String],
        depth: usize,
    ) -> Formula {
        if depth == 0 || rng.chance(25) {
            let name = names[rng.below(names.len())].clone();
            return match rng.below(5) {
                0 => Formula::Signal(name),
                1 => Formula::Present(name),
                2 | 3 => Formula::Raised(patterns[rng.below(patterns.len())].clone()),
                _ => Formula::Const(rng.chance(50)),
            };
        }
        let sub = |rng: &mut Rng| random_formula(rng, names, patterns, depth - 1);
        match rng.below(9) {
            0 => Formula::not(sub(rng)),
            1 => Formula::and(sub(rng), sub(rng)),
            2 => Formula::or(sub(rng), sub(rng)),
            3 => Formula::implies(sub(rng), sub(rng)),
            4 => Formula::previously(sub(rng)),
            5 => Formula::once(sub(rng)),
            6 => Formula::historically(sub(rng)),
            7 => Formula::since(sub(rng), sub(rng)),
            _ => Formula::within(sub(rng), sub(rng), rng.below(3) as u32),
        }
    }

    /// Every name, and every glob over a name: exact, prefix, suffix and
    /// infix patterns, plus `*`.
    pub(crate) fn globs_over(names: &[String]) -> Vec<String> {
        let mut patterns = vec!["*".to_string()];
        for name in names {
            let (head, tail) = name.split_at(name.len() / 2);
            patterns.extend([
                name.clone(),
                format!("{head}*"),
                format!("*{tail}"),
                format!("*{tail}*"),
            ]);
        }
        patterns
    }

    /// Steps random formulas over a run of accepted steps of the random
    /// process of `seed`, through bound atoms and by name, and asserts
    /// that both steps agree at every instant.
    fn bound_atoms_agree_with_names(seed: u64) {
        let mut process = random_process(seed);
        let mut rng = Rng(seed ^ 0xA70B_5EED);
        let steps = accepted_steps(&process, &mut rng);
        // Declared against name order, so that evaluator ids are too.
        process.signals.reverse();
        let Ok(mut evaluator) = signal_moc::eval::Evaluator::new(&process) else {
            return;
        };
        let mut names: Vec<String> = process.signals.iter().map(|d| d.name.clone()).collect();
        names.push("undeclared".to_string());
        let patterns = globs_over(&names);
        let monitors: Vec<LtlMonitor> = (0..4)
            .map(|_| LtlMonitor::new(random_formula(&mut rng, &names, &patterns, 4)))
            .collect();
        let namespace = Namespace::thread(&evaluator);
        let atoms: Vec<Vec<BoundAtom>> = monitors.iter().map(|m| m.bind(&namespace)).collect();
        let mut by_name: Vec<Vec<u32>> = monitors.iter().map(LtlMonitor::initial).collect();
        let mut by_slot = by_name.clone();
        for (t, step) in steps.iter().enumerate() {
            let Ok(resolved) = evaluator.step_resolved(t, step) else {
                break;
            };
            for (i, monitor) in monitors.iter().enumerate() {
                let named = monitor.step(&mut by_name[i], &resolved);
                let bound = monitor.step_bound(&mut by_slot[i], &atoms[i], &resolved);
                assert_eq!(
                    (named.holds, named.expired, named.raised.as_deref()),
                    (bound.holds, bound.expired, bound.raised),
                    "{} at {t}",
                    monitor.invariant()
                );
                assert_eq!(by_name[i], by_slot[i], "{} at {t}", monitor.invariant());
            }
        }
    }

    proptest! {
        /// Differential oracle of the bound atoms of a thread: over runs
        /// of accepted steps of random processes, random formulas whose
        /// atoms read the process's names, globs over them and one
        /// undeclared name step through their bound slots exactly like
        /// `LtlMonitor::step` over the same resolved instant: the same
        /// truth value, expiry, witness and registers.
        #[test]
        fn compiled_atoms_step_like_the_named_monitor(seed in any::<u64>()) {
            bound_atoms_agree_with_names(seed);
        }
    }

    #[test]
    fn checks_lay_registers_out_in_property_order_and_bind_their_atoms() {
        use signal_moc::builder::ProcessBuilder;
        use signal_moc::expr::Expr;
        use signal_moc::value::ValueType;
        let mut b = ProcessBuilder::new("p");
        b.input("a", ValueType::Boolean);
        b.output("b", ValueType::Boolean);
        b.define("b", Expr::var("a"));
        let evaluator = Evaluator::new(&b.build().unwrap()).unwrap();
        let namespace = Namespace::thread(&evaluator);
        let properties = [
            Property::NeverRaised("*Alarm*".into()),
            Property::DeadlockFree,
            Property::BoundedResponse {
                trigger: "t".into(),
                response: "r".into(),
                bound: 3,
            },
            Property::Ltl(LtlProperty::parse("always (once a implies previously b)").unwrap()),
        ];
        let checks = Checks::new(&properties, &namespace).unwrap();
        // DeadlockFree has no monitor; NeverRaised is stateless.
        let layout: Vec<(usize, usize, usize)> = checks
            .monitored
            .iter()
            .map(|m| (m.index, m.offset, m.monitor.register_count()))
            .collect();
        assert_eq!(layout, [(0, 0, 0), (2, 0, 1), (3, 1, 2)]);
        assert_eq!(checks.initial(), [MONITOR_IDLE, 0, 0]);
        assert_eq!(checks.deadlock(), Some(1));
        let monitored: Vec<String> = checks.monitored().map(Property::name).collect();
        assert_eq!(
            monitored,
            [&properties[0], &properties[2], &properties[3]].map(Property::name)
        );
        // Atoms bind in pre-order: a glob to its (here no) matches, an
        // undeclared name to nothing, a declared one to its evaluator id.
        let slot = |name: &str| {
            BoundAtom::Name(
                evaluator
                    .signal_id(name)
                    .map(|id| Slot::Signal { component: 0, id }),
            )
        };
        assert_eq!(checks.monitored[0].atoms, [BoundAtom::Glob(Vec::new())]);
        assert_eq!(
            checks.monitored[1].atoms,
            [BoundAtom::Name(None), BoundAtom::Name(None)]
        );
        assert_eq!(checks.monitored[2].atoms, [slot("a"), slot("b")]);
        assert!(matches!(
            Checks::new(&[], &namespace),
            Err(VerifyError::NoProperties)
        ));
    }
}
