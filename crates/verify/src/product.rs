//! Compositional product verification of communicating scheduled threads.
//!
//! Per-thread verification ([`crate::Verifier`] over
//! [`crate::InputSpace::Scheduled`]) checks each translated thread against
//! its own timing trace with every event-port input left at its scheduled
//! default — cross-thread properties are invisible at that scope. This
//! module closes the gap: a [`ProductSystem`] bundles the flattened SIGNAL
//! processes of several threads with their scheduled timing traces and the
//! event-port connections between them ([`PortLink`]), and a
//! [`ProductVerifier`] explores the *synchronous product* of the components.
//!
//! A connection is a synchronising action: the sender's scheduled
//! `<port>_output_time` emission fixes the matching receiver input
//! `<port>_in` (after the link's latency) instead of leaving it at the
//! scheduled default. Product states reuse the canonical byte-encoded
//! [`crate::State`]: the concatenated per-thread operator memories, the joint
//! scheduler phase, and the registers of the response monitors. The joint
//! schedule makes the product deterministic — one execution path per phase
//! — so the exploration is a single run that either closes (states
//! recurring at the same phase are deduplicated across hyper-period
//! repetitions, proving the periodic system for unbounded time) or stops at
//! the depth bound with a [`Verdict::PassedBounded`](crate::Verdict::PassedBounded).
//!
//! Cross-thread latency is expressed with
//! [`Property::EndToEndResponse`] over the link-derived joint signals
//! `<link>_sent` (the sender released at least one event) and
//! `<link>_consumed` (the receiver froze at least one delivered event).
//! Violations come back as joint [`Counterexample`] traces whose steps carry
//! `<component>_`-prefixed inputs: [`ProductVerifier::project`] recovers the
//! per-thread input trace of any component (replayable in a plain
//! [`polysim::Simulator`]), and [`ProductVerifier::replay`] re-executes the
//! whole counterexample in a [`LockstepCoSim`] — an independent lockstep
//! co-simulation of the constituent threads — for confirmation outside the
//! model checker.
//!
//! The exploration itself is one crate-private lockstep over borrowed
//! components, and a lone scheduled thread is a product of one: a
//! [`crate::Verifier`] over [`crate::InputSpace::Scheduled`] runs the same
//! lockstep on a single component with no name, no signal prefix and no
//! links, so every scheduled input is stepped by one expander.

use std::collections::HashSet;

use polysim::Simulator;
use serde::{Deserialize, Serialize};
use signal_moc::eval::{EvalWork, Evaluator};
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::Value;

use crate::counterexample::{first_violation, Counterexample, ReplayReport};
use crate::engine::{self, Expander, Sink};
use crate::explore::{VerificationOutcome, VerifyError, VerifyOptions};
use crate::monitor::{Checks, Namespace, Slot, SlotValues};
use crate::property::Property;
use crate::slice::Slice;
use crate::state::KeyCodec;

/// One thread of a product: its flattened SIGNAL process and the scheduled
/// timing trace driving it over the joint hyper-period.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductComponent {
    /// Component name, used as the `<name>_` prefix of its signals in the
    /// joint namespace (typically the AADL thread instance name).
    pub name: String,
    /// The flattened process, as verified by `polyverify`/run by `polysim`.
    pub process: Process,
    /// The scheduler-generated timing trace of this thread. Every component
    /// of a product must use the same horizon (the joint hyper-period); the
    /// phase wraps, so the trace describes the periodic system.
    pub schedule: Trace,
}

/// An event-port connection between two components of a product: the
/// source's scheduled `source_signal` emissions are delivered to the
/// target's `target_signal` input after `latency` ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortLink {
    /// Connection name, used as the `<name>_` prefix of the link-derived
    /// joint signals (`<name>_sent`, `<name>_received`, `<name>_consumed`).
    pub name: String,
    /// Name of the sending component.
    pub source: String,
    /// Signal of the source *schedule* whose truth marks an emission
    /// (conventionally `<port>_output_time`, the port's Output Time).
    pub source_signal: String,
    /// Name of the receiving component.
    pub target: String,
    /// Input signal of the target process that carries the delivered event
    /// (conventionally `<port>_in`).
    pub target_signal: String,
    /// Signal of the target schedule marking the receiver's Input Time
    /// (conventionally `<port>_frozen_time`); with `target_count` it derives
    /// the `<name>_consumed` joint signal.
    pub target_freeze: Option<String>,
    /// Signal of the target process counting the events frozen at the last
    /// Input Time (conventionally `<port>_frozen_count`).
    pub target_count: Option<String>,
    /// Transmission latency in ticks (0 = same-tick delivery). Events whose
    /// delivery would land past the schedule horizon are dropped — exactly
    /// the behaviour a connection-latency fault injects.
    pub latency: usize,
}

impl PortLink {
    /// A link over the conventional signal names of the AADL translation:
    /// `<source_port>_output_time` on the sender side; `<target_port>_in`,
    /// `<target_port>_frozen_time` and `<target_port>_frozen_count` on the
    /// receiver side; latency 0.
    pub fn event(
        name: impl Into<String>,
        source: impl Into<String>,
        source_port: &str,
        target: impl Into<String>,
        target_port: &str,
    ) -> Self {
        Self {
            name: name.into(),
            source: source.into(),
            source_signal: format!("{source_port}_output_time"),
            target: target.into(),
            target_signal: format!("{target_port}_in"),
            target_freeze: Some(format!("{target_port}_frozen_time")),
            target_count: Some(format!("{target_port}_frozen_count")),
            latency: 0,
        }
    }

    /// Sets the transmission latency in ticks.
    #[must_use]
    pub fn with_latency(mut self, latency: usize) -> Self {
        self.latency = latency;
        self
    }

    /// Joint-namespace signal: the source released at least one event at
    /// this tick.
    pub fn sent_signal(&self) -> String {
        format!("{}_sent", self.name)
    }

    /// Joint-namespace signal: an event of this link is delivered to the
    /// target at this tick.
    pub fn received_signal(&self) -> String {
        format!("{}_received", self.name)
    }

    /// Joint-namespace signal: the target froze at least one event at this
    /// tick (its Input Time fired with a non-empty frozen FIFO). Only
    /// derived when [`PortLink::target_freeze`] and
    /// [`PortLink::target_count`] are set.
    pub fn consumed_signal(&self) -> String {
        format!("{}_consumed", self.name)
    }
}

/// Per-link delivery pattern over the horizon, derived from the schedules.
#[derive(Debug, Clone, PartialEq)]
struct LinkActivity {
    sent: Vec<bool>,
    received: Vec<bool>,
}

/// The closed system under product verification: components, links, and the
/// wired per-component input traces (schedules with connected inputs
/// overridden by the senders' emissions).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductSystem {
    components: Vec<ProductComponent>,
    links: Vec<PortLink>,
    /// Per-component input traces after connection wiring.
    wired: Vec<Trace>,
    activity: Vec<LinkActivity>,
    horizon: usize,
    /// Number of emissions whose delivery would land at or past the
    /// horizon and was therefore not wired.
    dropped_deliveries: usize,
}

impl ProductSystem {
    /// Assembles and wires a product system.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::InvalidProduct`] when there are no components,
    /// component or link names collide, schedules are empty or of unequal
    /// length, or a link references an unknown component, an unknown source
    /// schedule signal, or a target signal that is not an input of the
    /// target process.
    pub fn new(
        components: Vec<ProductComponent>,
        links: Vec<PortLink>,
    ) -> Result<Self, VerifyError> {
        if components.is_empty() {
            return Err(VerifyError::InvalidProduct("no components".into()));
        }
        let horizon = components[0].schedule.len();
        if horizon == 0 {
            return Err(VerifyError::InvalidProduct(format!(
                "component `{}` has an empty schedule",
                components[0].name
            )));
        }
        let mut names = HashSet::new();
        for component in &components {
            if !names.insert(component.name.clone()) {
                return Err(VerifyError::InvalidProduct(format!(
                    "duplicate component name `{}`",
                    component.name
                )));
            }
            if component.schedule.len() != horizon {
                return Err(VerifyError::InvalidProduct(format!(
                    "component `{}` has schedule length {}, expected the joint horizon {}",
                    component.name,
                    component.schedule.len(),
                    horizon
                )));
            }
        }
        // Joint signals are `<name>_<signal>`: two names where one (plus
        // the separating underscore) prefixes the other would let signals
        // of different owners collide in the joint namespace — and
        // `TraceStep::set` keeps the last writer silently. Reject the
        // ambiguity up front, across components and links alike.
        let all_names: Vec<&str> = components
            .iter()
            .map(|c| c.name.as_str())
            .chain(links.iter().map(|l| l.name.as_str()))
            .collect();
        for a in &all_names {
            for b in &all_names {
                if a != b && b.starts_with(&format!("{a}_")) {
                    return Err(VerifyError::InvalidProduct(format!(
                        "names `{a}` and `{b}` are prefix-ambiguous: joint signals \
                         `{a}_...` could collide"
                    )));
                }
            }
        }
        let index_of = |name: &str| components.iter().position(|c| c.name == name);
        let mut link_names = HashSet::new();
        for link in &links {
            if !link_names.insert(link.name.clone()) {
                return Err(VerifyError::InvalidProduct(format!(
                    "duplicate link name `{}`",
                    link.name
                )));
            }
            if names.contains(&link.name) {
                return Err(VerifyError::InvalidProduct(format!(
                    "link `{}` shadows a component name (derived signals would collide)",
                    link.name
                )));
            }
            let Some(source) = index_of(&link.source) else {
                return Err(VerifyError::InvalidProduct(format!(
                    "link `{}` references unknown source component `{}`",
                    link.name, link.source
                )));
            };
            if index_of(&link.target).is_none() {
                return Err(VerifyError::InvalidProduct(format!(
                    "link `{}` references unknown target component `{}`",
                    link.name, link.target
                )));
            }
            if !components[source]
                .schedule
                .iter()
                .any(|step| step.is_present(&link.source_signal))
            {
                return Err(VerifyError::InvalidProduct(format!(
                    "link `{}`: source schedule of `{}` has no signal `{}`",
                    link.name, link.source, link.source_signal
                )));
            }
            let target = &components[index_of(&link.target).expect("checked above")];
            if !target
                .process
                .inputs()
                .any(|decl| decl.name == link.target_signal)
            {
                return Err(VerifyError::InvalidProduct(format!(
                    "link `{}`: process of `{}` has no input `{}`",
                    link.name, link.target, link.target_signal
                )));
            }
        }

        // Wire the connections: each emission of the source schedule fixes
        // the matching target input `latency` ticks later. A delivery that
        // would land at or past the horizon is dropped — the wired traces
        // must stay periodic for the phase to wrap — and *counted*: the
        // wired product then under-approximates the real periodic system
        // (which would deliver the event in the next period), so the
        // verifier downgrades closure proofs to bounded verdicts whenever
        // any delivery was dropped.
        let mut wired: Vec<Trace> = components.iter().map(|c| c.schedule.clone()).collect();
        let mut activity = Vec::with_capacity(links.len());
        let mut dropped_deliveries = 0usize;
        for link in &links {
            let source = index_of(&link.source).expect("validated above");
            let target = index_of(&link.target).expect("validated above");
            let mut sent = vec![false; horizon];
            let mut received = vec![false; horizon];
            for (t, is_sent) in sent.iter_mut().enumerate() {
                *is_sent = components[source]
                    .schedule
                    .value(t, &link.source_signal)
                    .map(Value::as_bool)
                    .unwrap_or(false);
                if !*is_sent {
                    continue;
                }
                let arrival = t + link.latency;
                if arrival < horizon {
                    received[arrival] = true;
                    wired[target].set(arrival, link.target_signal.clone(), Value::Bool(true));
                } else {
                    dropped_deliveries += 1;
                }
            }
            activity.push(LinkActivity { sent, received });
        }
        Ok(Self {
            components,
            links,
            wired,
            activity,
            horizon,
            dropped_deliveries,
        })
    }

    /// The components of the product, in exploration order.
    pub fn components(&self) -> &[ProductComponent] {
        &self.components
    }

    /// The event-port links between the components.
    pub fn links(&self) -> &[PortLink] {
        &self.links
    }

    /// The joint schedule horizon (the hyper-period in ticks).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of emissions whose delivery fell at or past the horizon and
    /// was dropped from the wiring. When non-zero, the wired product
    /// under-approximates the real periodic system (which would carry the
    /// event into the next period), so [`ProductVerifier::verify`] reports
    /// [`Verdict::PassedBounded`](crate::Verdict::PassedBounded) instead of
    /// [`Verdict::Proved`](crate::Verdict::Proved) even when the exploration
    /// closes.
    pub fn dropped_deliveries(&self) -> usize {
        self.dropped_deliveries
    }

    /// The wired input trace of one component (its schedule with connected
    /// inputs overridden by the senders' deliveries), by component name.
    pub fn wired_trace(&self, component: &str) -> Option<&Trace> {
        self.components
            .iter()
            .position(|c| c.name == component)
            .map(|i| &self.wired[i])
    }

    /// Merges the per-component resolved steps of one phase into the joint
    /// step: `<component>_`-prefixed signals plus the link-derived
    /// `_sent`/`_received`/`_consumed` signals.
    fn joint_resolved(&self, phase: usize, resolved: &[TraceStep]) -> TraceStep {
        let mut joint = TraceStep::new();
        for (component, step) in self.components.iter().zip(resolved) {
            for (signal, value) in step.iter() {
                joint.set(format!("{}_{signal}", component.name), value.clone());
            }
        }
        for (link, activity) in self.links.iter().zip(&self.activity) {
            joint.set(link.sent_signal(), Value::Bool(activity.sent[phase]));
            joint.set(
                link.received_signal(),
                Value::Bool(activity.received[phase]),
            );
            if let (Some(freeze), Some(count)) = (&link.target_freeze, &link.target_count) {
                let target = self
                    .components
                    .iter()
                    .position(|c| c.name == link.target)
                    .expect("validated at construction");
                let froze = resolved[target]
                    .get(freeze)
                    .map(Value::as_bool)
                    .unwrap_or(false);
                let nonempty = resolved[target]
                    .get(count)
                    .map(Value::as_bool)
                    .unwrap_or(false);
                joint.set(link.consumed_signal(), Value::Bool(froze && nonempty));
            }
        }
        joint
    }
}

/// A lockstep co-simulation of the components of a [`ProductSystem`]: one
/// [`polysim::Simulator`] per thread, advanced tick by tick over the wired
/// traces, producing the joint resolved trace. This is the independent
/// execution path used to confirm product counterexamples
/// ([`ProductVerifier::replay`]) and to cross-validate product verdicts by
/// brute force in the test suite.
#[derive(Debug, Clone)]
pub struct LockstepCoSim<'a> {
    system: &'a ProductSystem,
    simulators: Vec<Simulator>,
}

/// The first non-executable step of a lockstep co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimFailure {
    /// Tick of the failing step.
    pub tick: usize,
    /// Name of the component whose scheduled step was not executable.
    pub component: String,
    /// Evaluator error text.
    pub detail: String,
}

impl<'a> LockstepCoSim<'a> {
    /// Builds one simulator per component, all at their initial state.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn new(system: &'a ProductSystem) -> Result<Self, VerifyError> {
        let simulators = system
            .components
            .iter()
            .map(|c| Simulator::new(&c.process))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { system, simulators })
    }

    /// Runs `ticks` instants in lockstep (the phase wraps at the horizon),
    /// returning the joint resolved trace of the executed prefix and the
    /// first non-executable step, if any (the joint trace then stops just
    /// before it).
    pub fn run(&mut self, ticks: usize) -> (Trace, Option<CoSimFailure>) {
        let mut joint = Trace::new();
        for tick in 0..ticks {
            let phase = tick % self.system.horizon;
            let mut resolved = Vec::with_capacity(self.simulators.len());
            for (idx, simulator) in self.simulators.iter_mut().enumerate() {
                let step = self.system.wired[idx]
                    .step(phase)
                    .cloned()
                    .unwrap_or_default();
                let one: Trace = std::iter::once(step).collect();
                match simulator.run(&one) {
                    Ok(out) => resolved.push(out.step(0).cloned().unwrap_or_default()),
                    Err(e) => {
                        return (
                            joint,
                            Some(CoSimFailure {
                                tick,
                                component: self.system.components[idx].name.clone(),
                                detail: e.to_string(),
                            }),
                        )
                    }
                }
            }
            joint.push(self.system.joint_resolved(phase, &resolved));
        }
        (joint, None)
    }
}

/// The product model checker: explores the synchronous product of the
/// components of a [`ProductSystem`] under their wired schedules and checks
/// safety properties over the joint namespace.
///
/// The joint schedule is deterministic, so the exploration is a single path
/// whose states — concatenated per-thread memories × joint phase × monitor
/// registers — are deduplicated across hyper-period repetitions: it either
/// closes ([`Verdict::Proved`](crate::Verdict::Proved) for unbounded time)
/// or stops at [`VerifyOptions::depth_bound`]
/// ([`Verdict::PassedBounded`](crate::Verdict::PassedBounded)).
///
/// The exploration is the lockstep a scheduled [`crate::Verifier`] runs
/// over a lone thread, on the shared exploration engine (an interned chain
/// of joint states); the frontier of the deterministic product is a single
/// state per level, so the run is sequential regardless of
/// [`VerifyOptions::workers`]. Each joint instant steps every component's
/// evaluator once, and the monitors read their atoms, bound to joint slots
/// once per exploration, straight from the evaluators' resolved views: no
/// per-component step is materialised and no name is looked up.
#[derive(Debug, Clone)]
pub struct ProductVerifier {
    system: ProductSystem,
    options: VerifyOptions,
    /// One evaluator per component, built once by [`ProductVerifier::new`]
    /// and cloned into every worker context. Never stepped itself, so each
    /// clone starts from the initial memory with no work counted.
    evaluators: Vec<Evaluator>,
}

/// Verifiers compare by system and options: the evaluators are a function
/// of the system.
impl PartialEq for ProductVerifier {
    fn eq(&self, other: &Self) -> bool {
        self.system == other.system && self.options == other.options
    }
}

impl ProductVerifier {
    /// Prepares a product verifier: validates every component process by
    /// constructing its evaluator (the same flat-process gate as
    /// [`crate::Verifier::new`]).
    ///
    /// # Errors
    ///
    /// Propagates per-component validation errors ([`VerifyError::Signal`]).
    pub fn new(system: ProductSystem, options: VerifyOptions) -> Result<Self, VerifyError> {
        let evaluators = system
            .components
            .iter()
            .map(|c| Evaluator::new(&c.process))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            system,
            options,
            evaluators,
        })
    }

    /// The product system under verification.
    pub fn system(&self) -> &ProductSystem {
        &self.system
    }

    /// The active options.
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Explores the product and checks every property of `properties` —
    /// built-in shapes and user past-time LTL properties alike — over the
    /// joint namespace (`<component>_`-prefixed signals plus the
    /// link-derived `_sent`/`_received`/`_consumed` joints).
    ///
    /// The joint state key holds only the cone of influence of the checked
    /// properties and the port links: a component slot nothing observable
    /// reads is dropped (see [`crate::slice`]). The slice is exact for
    /// observables, so verdicts can only strengthen a `PassedBounded` of
    /// [`ProductVerifier::verify_reference`] into `Proved`, and
    /// counterexamples are the same.
    ///
    /// # Examples
    ///
    /// ```
    /// use polyverify::{
    ///     ProductComponent, ProductSystem, ProductVerifier, Property, VerifyOptions,
    /// };
    /// use signal_moc::builder::ProcessBuilder;
    /// use signal_moc::expr::Expr;
    /// use signal_moc::trace::Trace;
    /// use signal_moc::value::{Value, ValueType};
    ///
    /// // One scheduled thread echoing Dispatch as Complete.
    /// let mut b = ProcessBuilder::new("echo");
    /// b.input("Dispatch", ValueType::Boolean);
    /// b.output("Complete", ValueType::Boolean);
    /// b.define("Complete", Expr::var("Dispatch"));
    /// b.synchronize(&["Dispatch", "Complete"]);
    /// let process = b.build()?;
    /// let mut schedule = Trace::new();
    /// for t in 0..4usize {
    ///     schedule.set(t, "Dispatch", Value::Bool(t == 0));
    /// }
    ///
    /// let system = ProductSystem::new(
    ///     vec![ProductComponent {
    ///         name: "echo".into(),
    ///         process,
    ///         schedule,
    ///     }],
    ///     vec![],
    /// )?;
    /// let verifier = ProductVerifier::new(system, VerifyOptions::default())?;
    /// // A user property over the joint namespace: every dispatch is
    /// // completed on the spot. The periodic product closes, so the
    /// // verdict is a proof for unbounded time.
    /// let property =
    ///     Property::parse_ltl("always (echo_Dispatch implies echo_Complete within 0)")?;
    /// let outcome = verifier.verify(&[property])?;
    /// assert!(outcome.all_proved(), "{}", outcome.summary());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NoProperties`] for an empty property list and
    /// [`VerifyError::Evaluation`] when a component's scheduled step is not
    /// executable while [`Property::DeadlockFree`] is not among the checked
    /// properties.
    pub fn verify(&self, properties: &[Property]) -> Result<VerificationOutcome, VerifyError> {
        self.explore(properties, &self.slice(properties))
    }

    /// The unsliced product exploration, under the empty slice: every
    /// component memory slot stays in the joint state key. Its verdicts are
    /// the reference [`ProductVerifier::verify`] must agree with, up to
    /// strengthening a `PassedBounded` into `Proved`; like
    /// [`crate::Verifier::verify_reference`], it exists for differential
    /// oracles and is not meant for production runs.
    ///
    /// # Errors
    ///
    /// As [`ProductVerifier::verify`].
    pub fn verify_reference(
        &self,
        properties: &[Property],
    ) -> Result<VerificationOutcome, VerifyError> {
        self.explore(properties, &Slice::default())
    }

    /// Per-component slices, concatenated into the joint memory layout. A
    /// component's link-touched signals (emission markers, delivered
    /// inputs, freeze markers and frozen counts) join its observable set:
    /// link-derived joint signals are computed from them, so they must stay
    /// exact even when no property names them directly.
    fn slice(&self, properties: &[Property]) -> Slice {
        let components = self.system.components.iter().zip(&self.evaluators);
        Slice::concat(components.map(|(component, evaluator)| {
            let mut extra_reads: Vec<String> = Vec::new();
            for link in &self.system.links {
                if link.source == component.name {
                    extra_reads.push(link.source_signal.clone());
                }
                if link.target == component.name {
                    extra_reads.push(link.target_signal.clone());
                    extra_reads.extend(link.target_freeze.clone());
                    extra_reads.extend(link.target_count.clone());
                }
            }
            let prefix = format!("{}_", component.name);
            Slice::of(evaluator, properties, &prefix, &extra_reads)
        }))
    }

    /// One product exploration pass under `slice`, normalising every joint
    /// state to its representative.
    fn explore(
        &self,
        properties: &[Property],
        slice: &Slice,
    ) -> Result<VerificationOutcome, VerifyError> {
        let lockstep = self.lockstep();
        let checks = Checks::new(properties, &lockstep.namespace())?;
        let mut outcome = lockstep.explore(&self.options, &checks, slice)?;
        // Every transition is one evaluated component step.
        outcome.stats.memo_misses = outcome.stats.transitions;
        Ok(outcome)
    }

    /// The lockstep of the components, each named and prefixed
    /// `<component>_`, over the wired traces and the links.
    fn lockstep(&self) -> Lockstep<'_> {
        let system = &self.system;
        let components = system.components.iter().zip(&self.evaluators);
        Lockstep {
            components: components
                .zip(&system.wired)
                .map(|((component, evaluator), trace)| LockstepComponent {
                    evaluator,
                    trace,
                    prefix: format!("{}_", component.name),
                    name: Some(&component.name),
                })
                .collect(),
            links: &system.links,
            activity: &system.activity,
            horizon: system.horizon,
            dropped_deliveries: system.dropped_deliveries > 0,
        }
    }

    /// Projects a joint counterexample onto one component: the
    /// `<component>_`-prefixed inputs of every step, with the prefix
    /// stripped — a per-thread input trace that replays in a plain
    /// [`polysim::Simulator`] over that component's process. Returns `None`
    /// for an unknown component name.
    pub fn project(&self, cex: &Counterexample, component: &str) -> Option<Trace> {
        if !self.system.components.iter().any(|c| c.name == component) {
            return None;
        }
        let prefix = format!("{component}_");
        Some(
            cex.inputs
                .iter()
                .map(|step| {
                    let mut projected = TraceStep::new();
                    for (signal, value) in step.iter() {
                        if let Some(local) = signal.strip_prefix(&prefix) {
                            projected.set(local, value.clone());
                        }
                    }
                    projected
                })
                .collect(),
        )
    }

    /// Replays a product counterexample in a fresh [`LockstepCoSim`] — an
    /// execution path independent of the checker — and reports whether the
    /// violation is reproduced at the same instant.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn replay(&self, cex: &Counterexample) -> Result<ReplayReport, VerifyError> {
        let mut cosim = LockstepCoSim::new(&self.system)?;
        let ticks = cex.violation_instant + 1;
        let (joint, failure) = cosim.run(ticks);
        match &cex.property {
            Property::DeadlockFree => match failure {
                Some(f) if f.tick == cex.violation_instant => Ok(ReplayReport {
                    reproduced: true,
                    detail: format!(
                        "lockstep co-simulation rejects the step of `{}` at tick {}: {}",
                        f.component, f.tick, f.detail
                    ),
                    trace: joint,
                }),
                Some(f) => Ok(ReplayReport {
                    reproduced: false,
                    detail: format!(
                        "co-simulation failed at tick {} (expected {}): {}",
                        f.tick, cex.violation_instant, f.detail
                    ),
                    trace: joint,
                }),
                None => Ok(ReplayReport {
                    reproduced: false,
                    detail: "every scheduled step executed during the lockstep replay".into(),
                    trace: joint,
                }),
            },
            property => {
                if let Some(f) = failure {
                    return Ok(ReplayReport {
                        reproduced: false,
                        detail: format!(
                            "lockstep replay stopped early at tick {} (`{}`): {}",
                            f.tick, f.component, f.detail
                        ),
                        trace: joint,
                    });
                }
                // One replay path for every trace property: re-run its
                // compiled monitor over the joint trace the co-simulation
                // produced, independently of the checker's exploration.
                Ok(match first_violation(property, &joint) {
                    Some((t, observed)) => ReplayReport {
                        reproduced: t == cex.violation_instant,
                        detail: format!(
                            "{} at tick {t} of the lockstep replay",
                            property.violation_witness(&observed)
                        ),
                        trace: joint,
                    },
                    None => ReplayReport {
                        reproduced: false,
                        detail: format!(
                            "property `{}` not violated in the lockstep replay",
                            property.name()
                        ),
                        trace: joint,
                    },
                })
            }
        }
    }
}

/// One scheduled component of a [`Lockstep`], borrowed from its caller:
/// its evaluator (cloned into every worker context, never stepped itself)
/// and its wired input trace, one step per phase.
struct LockstepComponent<'a> {
    evaluator: &'a Evaluator,
    trace: &'a Trace,
    /// How the joint namespace spells its signals: `<name>_`, or nothing
    /// for a lone thread.
    prefix: String,
    /// The name a non-executable step's texts cite; `None` for a lone
    /// thread.
    name: Option<&'a str>,
}

/// The synchronous product of scheduled components, explored in lockstep:
/// one deterministic edge per state (the wired instant of its phase),
/// every component stepped on its own evaluator. A product runs one over
/// its components; a scheduled thread runs one over itself alone.
pub(crate) struct Lockstep<'a> {
    components: Vec<LockstepComponent<'a>>,
    links: &'a [PortLink],
    /// Per link, its delivery pattern over the horizon.
    activity: &'a [LinkActivity],
    /// The length of every component trace; the phase wraps at it.
    horizon: usize,
    /// A delivery fell past the horizon: the wired components then
    /// under-approximate the periodic system, so no closure is a proof.
    dropped_deliveries: bool,
}

impl<'a> Lockstep<'a> {
    /// A lone scheduled thread: one component with no name, no prefix and
    /// no links, driven by `trace`.
    pub(crate) fn thread(evaluator: &'a Evaluator, trace: &'a Trace) -> Self {
        Self {
            components: vec![LockstepComponent {
                evaluator,
                trace,
                prefix: String::new(),
                name: None,
            }],
            links: &[],
            activity: &[],
            horizon: trace.len(),
            dropped_deliveries: false,
        }
    }

    /// Explores the lockstep under `slice`, checking `checks`, which were
    /// bound in its [`Lockstep::namespace`].
    pub(crate) fn explore(
        &self,
        options: &VerifyOptions,
        checks: &Checks<'_>,
        slice: &Slice,
    ) -> Result<VerificationOutcome, VerifyError> {
        let expander = LockstepExpander {
            lockstep: self,
            consumed: self.consumed_slots(),
        };
        let memory = self
            .components
            .iter()
            .flat_map(|component| component.evaluator.memory())
            .collect();
        engine::explore(
            &expander,
            memory,
            checks,
            slice,
            options,
            self.dropped_deliveries,
        )
    }

    /// The joint namespace: each component's signals behind its prefix,
    /// each link's derived joints behind `<link>_`, with `<link>_consumed`
    /// only where the link declares both its freeze and count signals.
    fn namespace(&self) -> Namespace<'a> {
        Namespace::new(
            self.components
                .iter()
                .map(|component| (component.prefix.clone(), component.evaluator))
                .collect(),
            self.links
                .iter()
                .map(|link| {
                    let consumed = link.target_freeze.is_some() && link.target_count.is_some();
                    (format!("{}_", link.name), consumed)
                })
                .collect(),
        )
    }

    /// Per link, where its `<link>_consumed` joint would read: the target
    /// component and the ids of its freeze and count signals. Only a link
    /// that declares both derives the joint: the namespace decides that.
    fn consumed_slots(&self) -> Vec<ConsumedSlots> {
        self.links
            .iter()
            .map(|link| {
                let target = self
                    .components
                    .iter()
                    .position(|c| c.name == Some(link.target.as_str()))
                    .expect("validated at construction");
                let evaluator = self.components[target].evaluator;
                let id = |signal: &Option<String>| {
                    signal
                        .as_deref()
                        .and_then(|signal| evaluator.signal_id(signal))
                };
                ConsumedSlots {
                    target,
                    freeze: id(&link.target_freeze),
                    count: id(&link.target_count),
                }
            })
            .collect()
    }
}

/// The [`Expander`] of a [`Lockstep`].
struct LockstepExpander<'a> {
    lockstep: &'a Lockstep<'a>,
    /// Per link, where its `<link>_consumed` joint reads.
    consumed: Vec<ConsumedSlots>,
}

/// Per-worker scratch of the lockstep expander.
struct LockstepCtx {
    /// One evaluator per component; after an instant, each holds that
    /// component's resolved signals.
    evaluators: Vec<Evaluator>,
    codec: KeyCodec,
    monitors: Vec<u32>,
    succ_monitors: Vec<u32>,
    memory: Vec<Value>,
    /// One component's memory, on its way into `memory`.
    component_memory: Vec<Value>,
}

/// Where a link's `<link>_consumed` joint reads: the index of its target
/// component and the ids of the target's freeze and count signals (`None`
/// when the link or the process has no such signal, which then reads as
/// false).
#[derive(Debug, Clone, Copy)]
struct ConsumedSlots {
    target: usize,
    freeze: Option<u32>,
    count: Option<u32>,
}

static BOOL_TRUE: Value = Value::Bool(true);
static BOOL_FALSE: Value = Value::Bool(false);

fn bool_value(b: bool) -> &'static Value {
    if b {
        &BOOL_TRUE
    } else {
        &BOOL_FALSE
    }
}

/// The slots of one joint instant: the components' resolved signals, read
/// from evaluators that each hold their step of the instant, and the
/// link-derived joints at `phase`.
struct JointSlots<'a> {
    activity: &'a [LinkActivity],
    evaluators: &'a [Evaluator],
    consumed: &'a [ConsumedSlots],
    phase: usize,
}

impl SlotValues for JointSlots<'_> {
    fn value(&self, slot: Slot) -> Option<&Value> {
        match slot {
            Slot::Signal { component, id } => {
                self.evaluators[component as usize].resolved().value_at(id)
            }
            Slot::Sent(k) => Some(bool_value(self.activity[k as usize].sent[self.phase])),
            Slot::Received(k) => Some(bool_value(self.activity[k as usize].received[self.phase])),
            // The target's Input Time fired with a non-empty frozen FIFO.
            Slot::Consumed(k) => {
                let consumed = self.consumed[k as usize];
                let target = self.evaluators[consumed.target].resolved();
                let truthy = |id: Option<u32>| {
                    id.and_then(|id| target.value_at(id))
                        .is_some_and(Value::as_bool)
                };
                Some(bool_value(
                    truthy(consumed.freeze) && truthy(consumed.count),
                ))
            }
        }
    }
}

impl Expander for LockstepExpander<'_> {
    type Ctx = LockstepCtx;

    fn new_ctx(&self) -> LockstepCtx {
        LockstepCtx {
            evaluators: self
                .lockstep
                .components
                .iter()
                .map(|component| component.evaluator.clone())
                .collect(),
            codec: KeyCodec::new(),
            monitors: Vec::new(),
            succ_monitors: Vec::new(),
            memory: Vec::new(),
            component_memory: Vec::new(),
        }
    }

    fn expand(
        &self,
        ctx: &mut LockstepCtx,
        key: &[u8],
        depth: usize,
        sink: &mut Sink<'_>,
    ) -> Result<(), VerifyError> {
        let checks = sink.checks;
        let phase_bits = ctx
            .codec
            .seed_key(key, checks.initial().len(), &mut ctx.monitors);
        let phase = phase_bits as usize;
        let lockstep = self.lockstep;

        let empty = TraceStep::new();
        let mut offset = 0usize;
        for (evaluator, component) in ctx.evaluators.iter_mut().zip(&lockstep.components) {
            let width = evaluator.memory_len();
            evaluator.restore_memory(&ctx.codec.parent_memory()[offset..offset + width])?;
            offset += width;
            let input = component.trace.step(phase).unwrap_or(&empty);
            if let Err(e) = evaluator.step_resolved(depth, input) {
                // The joint execution cannot continue past a non-executable
                // step: the path ends here with no successor, which
                // exhausts the deterministic lockstep. The failing instant
                // contributes no transitions. A product cites the
                // component in both texts; a lone thread's fatal detail is
                // the bare evaluator error.
                sink.infeasible();
                let cited = component
                    .name
                    .map(|name| format!("component `{name}` scheduled step not executable: {e}"));
                return match checks.deadlock() {
                    Some(idx) => {
                        sink.violation(idx, Some(0), || {
                            cited.unwrap_or_else(|| format!("scheduled step not executable: {e}"))
                        });
                        Ok(())
                    }
                    None => Err(VerifyError::Evaluation {
                        instant: depth,
                        detail: cited.unwrap_or_else(|| e.to_string()),
                    }),
                };
            }
        }
        for _ in 0..ctx.evaluators.len() {
            sink.transition();
        }

        let slots = JointSlots {
            activity: lockstep.activity,
            evaluators: &ctx.evaluators,
            consumed: &self.consumed,
            phase,
        };
        checks.step(&ctx.monitors, &mut ctx.succ_monitors, &slots, 0, sink);

        ctx.memory.clear();
        for evaluator in &ctx.evaluators {
            evaluator.memory_into(&mut ctx.component_memory);
            ctx.memory.extend_from_slice(&ctx.component_memory);
        }
        let next_phase = ((phase + 1) % lockstep.horizon) as u32;
        sink.successor(
            &mut ctx.codec,
            &mut ctx.memory,
            next_phase,
            &ctx.succ_monitors,
            0,
        );
        Ok(())
    }

    /// The joint input step of the phase: every component's wired inputs,
    /// behind its prefix.
    fn edge_step(&self, prev_key: &[u8], _edge: u32) -> TraceStep {
        let phase = u32::from_le_bytes(prev_key[0..4].try_into().expect("phase bytes")) as usize
            % self.lockstep.horizon;
        let mut joint = TraceStep::new();
        for component in &self.lockstep.components {
            for (signal, value) in component
                .trace
                .step(phase)
                .into_iter()
                .flat_map(TraceStep::iter)
            {
                joint.set(format!("{}{signal}", component.prefix), value.clone());
            }
        }
        joint
    }

    fn eval_work(&self, ctx: &LockstepCtx) -> EvalWork {
        ctx.evaluators
            .iter()
            .fold(EvalWork::default(), |sum, evaluator| sum + evaluator.work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Verdict;
    use proptest::prelude::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::expr::Expr;
    use signal_moc::value::ValueType;

    /// A sender whose schedule emits on `out_output_time`, and a receiver
    /// whose `in_in` input feeds a latch raising `Alarm` one tick later.
    fn sender() -> Process {
        let mut b = ProcessBuilder::new("tx");
        b.input("Dispatch", ValueType::Boolean);
        b.input("out_output_time", ValueType::Boolean);
        b.output("Complete", ValueType::Boolean);
        b.define("Complete", Expr::var("Dispatch"));
        b.synchronize(&["Dispatch", "out_output_time", "Complete"]);
        b.build().unwrap()
    }

    fn receiver() -> Process {
        let mut b = ProcessBuilder::new("rx");
        b.input("in_in", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("latch", ValueType::Boolean);
        b.define(
            "latch",
            Expr::or(
                Expr::delay(Expr::var("latch"), Value::Bool(false)),
                Expr::var("in_in"),
            ),
        );
        b.define("Alarm", Expr::delay(Expr::var("latch"), Value::Bool(false)));
        b.synchronize(&["in_in", "latch", "Alarm"]);
        b.build().unwrap()
    }

    fn schedules(emit_at: usize, horizon: usize) -> (Trace, Trace) {
        let mut tx = Trace::new();
        let mut rx = Trace::new();
        for t in 0..horizon {
            tx.set(t, "Dispatch", Value::Bool(t == 0));
            tx.set(t, "out_output_time", Value::Bool(t == emit_at));
            rx.set(t, "in_in", Value::Bool(false));
        }
        (tx, rx)
    }

    fn link() -> PortLink {
        PortLink {
            name: "c1".into(),
            source: "tx".into(),
            source_signal: "out_output_time".into(),
            target: "rx".into(),
            target_signal: "in_in".into(),
            target_freeze: None,
            target_count: None,
            latency: 0,
        }
    }

    fn system(emit_at: usize, horizon: usize) -> ProductSystem {
        let (tx, rx) = schedules(emit_at, horizon);
        ProductSystem::new(
            vec![
                ProductComponent {
                    name: "tx".into(),
                    process: sender(),
                    schedule: tx,
                },
                ProductComponent {
                    name: "rx".into(),
                    process: receiver(),
                    schedule: rx,
                },
            ],
            vec![link()],
        )
        .unwrap()
    }

    #[test]
    fn wiring_fixes_the_receiver_input_from_the_sender_emission() {
        let system = system(1, 4);
        let wired = system.wired_trace("rx").unwrap();
        let arrivals: Vec<bool> = (0..4)
            .map(|t| wired.value(t, "in_in").unwrap().as_bool())
            .collect();
        assert_eq!(arrivals, vec![false, true, false, false]);
        // The sender's own trace is untouched.
        assert_eq!(
            system.wired_trace("tx").unwrap(),
            &system.components()[0].schedule
        );
    }

    #[test]
    fn cross_thread_alarm_found_only_in_the_product() {
        let system = system(1, 4);
        let verifier = ProductVerifier::new(system, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&[Property::NeverRaised("*Alarm*".into())])
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("alarm expected");
        // Emission at 1 delivered at 1, latched, alarm one tick later.
        assert_eq!(cex.violation_instant, 2);
        let replay = verifier.replay(cex).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);

        // Per-thread scope misses it: the receiver alone never sees the
        // event (its scheduled `in_in` stays false).
        let per_thread = crate::Verifier::new(&receiver(), VerifyOptions::default())
            .unwrap()
            .verify(
                &crate::InputSpace::Scheduled(schedules(1, 4).1),
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap();
        assert!(per_thread.is_violation_free(), "{}", per_thread.summary());
    }

    #[test]
    fn projection_replays_in_a_plain_simulator() {
        let system = system(1, 4);
        let verifier = ProductVerifier::new(system, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&[Property::NeverRaised("*Alarm*".into())])
            .unwrap();
        let (_, cex) = outcome.violations().next().unwrap();
        let rx_inputs = verifier.project(cex, "rx").expect("rx is a component");
        assert_eq!(rx_inputs.len(), cex.inputs.len());
        assert!(rx_inputs.value(1, "in_in").unwrap().as_bool());
        let mut simulator = Simulator::new(&receiver()).unwrap();
        let out = simulator.run(&rx_inputs).unwrap();
        assert!(out.value(2, "Alarm").unwrap().as_bool());
        assert!(verifier.project(cex, "nope").is_none());
    }

    #[test]
    fn a_non_executable_component_step_is_cited_by_name() {
        // At tick 2 the sender's schedule drives `Dispatch` without its
        // synchronous `out_output_time`: that step is not executable.
        let mut tx = Trace::new();
        for t in 0..4usize {
            tx.set(t, "Dispatch", Value::Bool(t == 0));
            if t != 2 {
                tx.set(t, "out_output_time", Value::Bool(t == 1));
            }
        }
        let mut evaluator = Evaluator::new(&sender()).unwrap();
        for t in 0..2 {
            evaluator.step(t, tx.step(t).unwrap()).unwrap();
        }
        let error = evaluator.step(2, tx.step(2).unwrap()).unwrap_err();
        let cited = format!("component `tx` scheduled step not executable: {error}");
        let system = ProductSystem::new(
            vec![
                ProductComponent {
                    name: "tx".into(),
                    process: sender(),
                    schedule: tx,
                },
                ProductComponent {
                    name: "rx".into(),
                    process: receiver(),
                    schedule: schedules(1, 4).1,
                },
            ],
            vec![link()],
        )
        .unwrap();
        let verifier = ProductVerifier::new(system, VerifyOptions::default()).unwrap();
        // The deadlock witness and the fatal detail both name the component.
        let outcome = verifier.verify(&[Property::DeadlockFree]).unwrap();
        let (_, cex) = outcome.violations().next().expect("dead end expected");
        assert_eq!(cex.violation_instant, 2);
        assert_eq!(cex.witness, cited);
        assert!(verifier.replay(cex).unwrap().reproduced);
        assert_eq!(
            verifier.verify(&[Property::NeverRaised("*Alarm*".into())]),
            Err(VerifyError::Evaluation {
                instant: 2,
                detail: cited,
            })
        );
    }

    #[test]
    fn latency_past_the_horizon_drops_the_delivery_and_downgrades_proofs() {
        let (tx, rx) = schedules(3, 4);
        let system = ProductSystem::new(
            vec![
                ProductComponent {
                    name: "tx".into(),
                    process: sender(),
                    schedule: tx,
                },
                ProductComponent {
                    name: "rx".into(),
                    process: receiver(),
                    schedule: rx,
                },
            ],
            vec![link().with_latency(2)],
        )
        .unwrap();
        // The delivery would land at tick 5 > horizon: dropped from the
        // wiring (the real periodic system would deliver it at phase 1 of
        // the next period), so even though the wired product closes with no
        // alarm, the verdict must stay bounded — never a proof.
        assert_eq!(system.dropped_deliveries(), 1);
        let verifier = ProductVerifier::new(system.clone(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&[Property::NeverRaised("*Alarm*".into())])
            .unwrap();
        assert!(outcome.is_violation_free(), "{}", outcome.summary());
        assert!(!outcome.all_proved(), "{}", outcome.summary());
        assert!(outcome.stats.truncated);
        assert!(matches!(
            outcome.verdicts[0].verdict,
            Verdict::PassedBounded { .. }
        ));
        // Under a depth bound the product still closes well before it, and
        // every one of its states was seen: the bounded claim names the
        // bound, not the closure depth.
        let bounded =
            ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(12)).unwrap();
        let outcome = bounded
            .verify(&[Property::NeverRaised("*Alarm*".into())])
            .unwrap();
        assert!(outcome.stats.depth < 12, "{:?}", outcome.stats);
        assert_eq!(
            outcome.verdicts[0].verdict,
            Verdict::PassedBounded { depth: 12 }
        );
    }

    #[test]
    fn end_to_end_response_monitors_the_link_signals() {
        let mut l = link();
        l.target_freeze = Some("in_in".into());
        l.target_count = Some("latch".into());
        let (tx, rx) = schedules(1, 6);
        let system = ProductSystem::new(
            vec![
                ProductComponent {
                    name: "tx".into(),
                    process: sender(),
                    schedule: tx,
                },
                ProductComponent {
                    name: "rx".into(),
                    process: receiver(),
                    schedule: rx,
                },
            ],
            vec![l],
        )
        .unwrap();
        let verifier = ProductVerifier::new(system, VerifyOptions::default()).unwrap();
        // Same-tick consumption: holds (and the product closes).
        let ok = verifier
            .verify(&[Property::EndToEndResponse {
                from: "c1_sent".into(),
                to: "c1_consumed".into(),
                bound: 1,
            }])
            .unwrap();
        assert!(ok.is_violation_free(), "{}", ok.summary());
    }

    #[test]
    fn invalid_products_are_rejected_with_details() {
        let (tx, rx) = schedules(1, 4);
        let component = |name: &str, process: Process, schedule: Trace| ProductComponent {
            name: name.into(),
            process,
            schedule,
        };
        assert!(matches!(
            ProductSystem::new(vec![], vec![]),
            Err(VerifyError::InvalidProduct(_))
        ));
        // Mismatched horizons.
        let err = ProductSystem::new(
            vec![
                component("tx", sender(), tx.clone()),
                component("rx", receiver(), schedules(1, 5).1),
            ],
            vec![],
        )
        .unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        // Unknown link endpoint.
        let mut bad = link();
        bad.target = "ghost".into();
        let err = ProductSystem::new(
            vec![
                component("tx", sender(), tx.clone()),
                component("rx", receiver(), rx.clone()),
            ],
            vec![bad],
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        // Link shadowing a component name.
        let mut shadow = link();
        shadow.name = "rx".into();
        let err = ProductSystem::new(
            vec![
                component("tx", sender(), tx.clone()),
                component("rx", receiver(), rx.clone()),
            ],
            vec![shadow],
        )
        .unwrap_err();
        assert!(err.to_string().contains("shadows"), "{err}");
        // Source signal the sender's schedule never carries.
        let mut silent = link();
        silent.source_signal = "never_emitted".into();
        let err = ProductSystem::new(
            vec![
                component("tx", sender(), tx.clone()),
                component("rx", receiver(), rx.clone()),
            ],
            vec![silent],
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid product system: link `c1`: source schedule of `tx` has no signal `never_emitted`"
        );
        // Unknown target input.
        let mut missing = link();
        missing.target_signal = "nonexistent".into();
        let err = ProductSystem::new(
            vec![
                component("tx", sender(), tx),
                component("rx", receiver(), rx),
            ],
            vec![missing],
        )
        .unwrap_err();
        assert!(err.to_string().contains("nonexistent"), "{err}");
    }

    #[test]
    fn worker_count_does_not_change_product_outcomes() {
        let reference =
            ProductVerifier::new(system(1, 4), VerifyOptions::default().with_workers(1))
                .unwrap()
                .verify(&[Property::NeverRaised("*Alarm*".into())])
                .unwrap();
        for workers in [2usize, 8] {
            let outcome =
                ProductVerifier::new(system(1, 4), VerifyOptions::default().with_workers(workers))
                    .unwrap()
                    .verify(&[Property::NeverRaised("*Alarm*".into())])
                    .unwrap();
            assert_eq!(reference.verdicts, outcome.verdicts, "workers={workers}");
            assert_eq!(reference.stats.states, outcome.stats.states);
            assert_eq!(reference.stats.depth, outcome.stats.depth);
        }
    }

    #[test]
    fn depth_bound_yields_passed_bounded_never_proved() {
        // An unbounded per-tick counter keeps the product from closing; the
        // depth bound must downgrade the verdict to PassedBounded.
        let mut b = ProcessBuilder::new("counter");
        b.input("Dispatch", ValueType::Boolean);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["Dispatch", "count"]);
        let process = b.build().unwrap();
        let mut schedule = Trace::new();
        for t in 0..2usize {
            schedule.set(t, "Dispatch", Value::Bool(t == 0));
        }
        let system = ProductSystem::new(
            vec![ProductComponent {
                name: "c".into(),
                process,
                schedule,
            }],
            vec![],
        )
        .unwrap();
        let verifier =
            ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(6)).unwrap();
        // The second property observes the counter, so the slice keeps it.
        let outcome = verifier
            .verify(&[
                Property::NeverRaised("*Alarm*".into()),
                Property::parse_ltl("never (present(c_count) and not c_count)").unwrap(),
            ])
            .unwrap();
        assert!(outcome.stats.truncated);
        assert_eq!(
            outcome.verdicts[0].verdict,
            Verdict::PassedBounded { depth: 6 }
        );
        assert!(!outcome.all_proved());
        assert!(
            !outcome.verdicts[0].verdict.summary().contains("proved"),
            "{}",
            outcome.verdicts[0].verdict.summary()
        );
    }

    /// A linear pipeline of event-counting stages, the shape of the
    /// `pipeline_system` helpers of the determinism suites. Every link may
    /// name the target's `Dispatch` as its freeze signal and its `seen` as
    /// its count signal, which fire independently; a link naming both
    /// derives `<link>_consumed`.
    #[allow(clippy::too_many_arguments)]
    fn pipeline_system(
        count: usize,
        horizon: usize,
        threshold: i64,
        periods: &[usize],
        latency: usize,
        freeze: bool,
        counted: bool,
    ) -> ProductSystem {
        fn stage(name: &str, threshold: i64) -> Process {
            let mut b = ProcessBuilder::new(name);
            b.input("Dispatch", ValueType::Boolean);
            b.input("out_output_time", ValueType::Boolean);
            b.input("in_in", ValueType::Boolean);
            b.output("Alarm", ValueType::Boolean);
            b.local("seen", ValueType::Integer);
            let prev = Expr::delay(Expr::var("seen"), Value::Int(0));
            b.define(
                "seen",
                Expr::add(
                    prev,
                    Expr::default(Expr::when(Expr::int(1), Expr::var("in_in")), Expr::int(0)),
                ),
            );
            b.define("Alarm", Expr::ge(Expr::var("seen"), Expr::int(threshold)));
            b.synchronize(&["Dispatch", "out_output_time", "in_in", "seen", "Alarm"]);
            b.build().unwrap()
        }
        let mut components = Vec::new();
        for (i, period) in periods.iter().take(count).enumerate() {
            let period = (*period).max(1);
            let mut schedule = Trace::new();
            for t in 0..horizon {
                schedule.set(t, "Dispatch", Value::Bool(t % period == 0));
                schedule.set(t, "out_output_time", Value::Bool(t % period == period - 1));
                schedule.set(t, "in_in", Value::Bool(false));
            }
            components.push(ProductComponent {
                name: format!("s{i}"),
                process: stage(&format!("stage{i}"), threshold),
                schedule,
            });
        }
        let links = (1..count)
            .map(|i| PortLink {
                name: format!("l{}{}", i - 1, i),
                source: format!("s{}", i - 1),
                source_signal: "out_output_time".into(),
                target: format!("s{i}"),
                target_signal: "in_in".into(),
                target_freeze: freeze.then(|| "Dispatch".into()),
                target_count: counted.then(|| "seen".into()),
                latency,
            })
            .collect();
        ProductSystem::new(components, links).unwrap()
    }

    proptest! {
        /// Differential oracle of the bound atoms of a product: at every
        /// instant of a run, random formulas whose atoms read joint names
        /// (every component signal, the `_sent`, `_received` and
        /// `_consumed` joints, absent names and unknown prefixes) and
        /// globs over them step through their joint slots exactly like
        /// `LtlMonitor::step` over `ProductSystem::joint_resolved` of
        /// materialised component steps, the path `LockstepCoSim` takes:
        /// the same truth value, expiry, witness and registers.
        #[test]
        fn compiled_joint_atoms_step_like_the_named_monitor(
            component_count in 2usize..=3,
            horizon in 4usize..=8,
            threshold in 1i64..=4,
            periods in prop::collection::vec(1usize..=4, 3..4),
            latency in 0usize..=2,
            freeze in any::<bool>(),
            counted in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let system = pipeline_system(
                component_count, horizon, threshold, &periods, latency, freeze, counted,
            );
            joint_atoms_agree_with_names(&system, seed);
        }
    }

    /// Steps random formulas over two hyper-periods of `system`, through
    /// joint slots and by name over the materialised joint step, and
    /// asserts that both steps agree at every instant.
    fn joint_atoms_agree_with_names(system: &ProductSystem, seed: u64) {
        use crate::monitor::tests::{globs_over, random_formula};
        use crate::monitor::{BoundAtom, LtlMonitor};
        use crate::random_process::Rng;

        let verifier = ProductVerifier::new(system.clone(), VerifyOptions::default()).unwrap();
        let mut names: Vec<String> = Vec::new();
        for component in system.components() {
            for decl in &component.process.signals {
                names.push(format!("{}_{}", component.name, decl.name));
            }
        }
        for link in system.links() {
            names.extend([
                link.sent_signal(),
                link.received_signal(),
                link.consumed_signal(),
            ]);
        }
        names.extend(
            [
                "s0_nope", "s0_", "s0", "l01_nope", "l01_", "s9_Alarm", "zz_Alarm", "Alarm", "",
            ]
            .map(String::from),
        );
        let patterns = globs_over(&names);
        let mut rng = Rng(seed);
        let monitors: Vec<LtlMonitor> = (0..4)
            .map(|_| LtlMonitor::new(random_formula(&mut rng, &names, &patterns, 4)))
            .collect();
        let lockstep = verifier.lockstep();
        let namespace = lockstep.namespace();
        let atoms: Vec<Vec<BoundAtom>> = monitors.iter().map(|m| m.bind(&namespace)).collect();
        let consumed = lockstep.consumed_slots();
        let mut by_name: Vec<Vec<u32>> = monitors.iter().map(LtlMonitor::initial).collect();
        let mut by_slot = by_name.clone();
        let mut borrowed = verifier.evaluators.clone();
        let mut owned = borrowed.clone();
        let empty = TraceStep::new();
        for t in 0..system.horizon() * 2 {
            let phase = t % system.horizon();
            let mut steps = Vec::new();
            for (i, (fast, slow)) in borrowed.iter_mut().zip(&mut owned).enumerate() {
                let input = system.wired[i].step(phase).unwrap_or(&empty);
                fast.step_resolved(t, input).unwrap();
                steps.push(slow.step(t, input).unwrap());
            }
            let joint = system.joint_resolved(phase, &steps);
            let slots = JointSlots {
                activity: &system.activity,
                evaluators: &borrowed,
                consumed: &consumed,
                phase,
            };
            for (i, monitor) in monitors.iter().enumerate() {
                let named = monitor.step(&mut by_name[i], &joint);
                let bound = monitor.step_bound(&mut by_slot[i], &atoms[i], &slots);
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

    #[test]
    fn empty_properties_are_rejected() {
        let verifier = ProductVerifier::new(system(1, 4), VerifyOptions::default()).unwrap();
        assert!(matches!(
            verifier.verify(&[]),
            Err(VerifyError::NoProperties)
        ));
        assert!(matches!(
            verifier.verify_reference(&[]),
            Err(VerifyError::NoProperties)
        ));
    }
}
