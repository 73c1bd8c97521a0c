//! The explicit-state reachability frontend for one flat SIGNAL process:
//! feasible-successor enumeration (reusing the clock calculus, optionally
//! pruned by an affine dispatch-feasibility oracle) over the shared
//! depth-stratified exploration core (`crate::engine`) — interned states,
//! incremental key hashing, and work-stealing frontier queues.

use std::collections::BTreeMap;

use affine_clocks::DispatchFeasibility;
use serde::{Deserialize, Serialize};
use signal_moc::clockcalc::ClockCalculus;
use signal_moc::error::SignalError;
use signal_moc::eval::{EvalWork, Evaluator};
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::{Value, ValueType};

use crate::counterexample::Counterexample;
use crate::domain::{Domain, SlotAbstraction};
use crate::engine::{self, Expander, Sink};
use crate::monitor::{compile_properties, CompiledProperty};
use crate::property::Property;
use crate::state::{KeyCodec, State};

/// Tuning knobs of the exploration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOptions {
    /// Number of worker threads expanding each breadth-first level (the
    /// scale knob of the parallel engine). Clamped to at least 1.
    pub workers: usize,
    /// Maximum exploration depth (number of instants); `None` explores until
    /// the state space closes.
    pub depth_bound: Option<usize>,
    /// Cap on the number of distinct states kept in the seen-set; once
    /// reached the engine stops expanding and reports a bounded verdict.
    /// The cap is checked between breadth-first levels (never mid-level, so
    /// results stay deterministic under any worker count); the final level
    /// may therefore overshoot it by one level's worth of successors.
    pub max_states: usize,
    /// Values enumerated for free integer inputs.
    pub int_domain: Vec<i64>,
    /// Values enumerated for free real inputs.
    pub real_domain: Vec<f64>,
    /// Cap on the number of distinct input valuations enumerated per instant
    /// in free mode; exceeding it truncates the enumeration (and downgrades
    /// `Proved` to a bounded verdict).
    pub max_branching: usize,
    /// Number of shards of the concurrent seen-set (the state interner).
    pub shards: usize,
    /// Optional dispatch-feasibility oracle consulted before enumerating a
    /// free-mode candidate: a candidate making a signal present at an
    /// instant the oracle provably excludes is skipped. This is an
    /// *environment assumption* (see [`VerifyOptions::with_oracle`]). No
    /// effect in scheduled mode, where the inputs are already fixed.
    pub oracle: Option<DispatchFeasibility>,
    /// Telemetry collector receiving engine counters, gauges and per-level
    /// events. Defaults to noop (records nothing, costs nothing). The
    /// collection mode never affects verdicts, counterexamples or
    /// [`ExplorationStats`] — pinned by the determinism proptests in
    /// `tests/obs_determinism.rs`.
    pub collector: polyobs::Collector,
    /// The state-space domain: [`Domain::Concrete`] explores exact per-slot
    /// values; [`Domain::Interval`] widens isolated monotone counters at
    /// [`VerifyOptions::widen_threshold`] so unbounded-counter spaces can
    /// close with a genuine proof (see [`crate::domain`] and
    /// `docs/SYMBOLIC.md`). Abstract counterexamples are re-concretized and
    /// must replay before being reported; a failed replay falls back to the
    /// concrete exploration, so verdicts can only strengthen.
    pub domain: Domain,
    /// Under [`Domain::Interval`], additionally drop every abstractable
    /// counter slot from the canonical key entirely (the `⊤` projection)
    /// instead of only widening the monotone ones. No effect in the
    /// concrete domain.
    pub project_counters: bool,
    /// Saturation point of widened counter slots under
    /// [`Domain::Interval`]: values above it collapse to the abstract
    /// `≥ threshold`.
    pub widen_threshold: i64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            depth_bound: None,
            max_states: 1 << 20,
            int_domain: vec![0, 1],
            real_domain: vec![0.0, 1.0],
            max_branching: 256,
            shards: 16,
            oracle: None,
            collector: polyobs::Collector::noop(),
            domain: Domain::Concrete,
            project_counters: false,
            widen_threshold: 8,
        }
    }
}

impl VerifyOptions {
    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the depth bound.
    pub fn with_depth_bound(mut self, bound: usize) -> Self {
        self.depth_bound = Some(bound);
        self
    }

    /// Removes the depth bound (explore until closure).
    pub fn unbounded(mut self) -> Self {
        self.depth_bound = None;
        self
    }

    /// Sets the seen-set state cap.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states.max(1);
        self
    }

    /// Installs a dispatch-feasibility oracle for free-mode candidate
    /// pruning.
    ///
    /// **This is an environment assumption, not a plain optimisation**: the
    /// oracle restricts the explored input environment to valuations
    /// compatible with the exported affine dispatch clocks. Verdicts are
    /// relative to that assumption — a violation only reachable through an
    /// input the schedule can provably never produce will no longer be
    /// reported. Without an oracle (the default), free mode enumerates every
    /// clock-calculus candidate.
    pub fn with_oracle(mut self, oracle: DispatchFeasibility) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Installs a telemetry collector. Collection is purely observational:
    /// it never changes verdicts, counterexamples or stats.
    pub fn with_collector(mut self, collector: polyobs::Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Selects the exploration domain (see [`VerifyOptions::domain`]).
    pub fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Enables or disables counter projection under the interval domain
    /// (see [`VerifyOptions::project_counters`]).
    pub fn with_project_counters(mut self, project: bool) -> Self {
        self.project_counters = project;
        self
    }

    /// Sets the widening threshold of the interval domain (clamped to at
    /// least 1 so a saturated counter stays distinguishable from its
    /// initial value in the common `init 0` case).
    pub fn with_widen_threshold(mut self, threshold: i64) -> Self {
        self.widen_threshold = threshold.max(1);
        self
    }
}

/// The input space explored for a process.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpace {
    /// All feasible input valuations are enumerated at every instant —
    /// including the silent (all-absent) one, since autonomous behaviour
    /// (free-clocked constants, exclusion-gated outputs) can be observable
    /// even when every input is absent. Presence combinations are pruned by
    /// the clock calculus: synchronisation classes are all-or-nothing,
    /// mutually exclusive classes never co-fire, and a sub-clock is never
    /// present without its super-clock. Deadlock freedom asks for a feasible
    /// *non-silent* valuation (silent stuttering is not progress).
    Free,
    /// Inputs are driven by a scheduler-generated timing trace; the phase
    /// wraps around, so exploring until closure verifies the periodic system
    /// for unbounded time whenever the memory is finite.
    Scheduled(Trace),
}

/// The verdict of one property after exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The whole reachable state space was explored without a violation: the
    /// property holds for every execution of the input space.
    Proved,
    /// No violation was found up to the explored depth, but the exploration
    /// was bounded (depth bound, state cap or branching truncation): the
    /// property *passed* the bounded search, it was not proved. Every
    /// truncated exploration reports this variant — never [`Verdict::Proved`]
    /// — so a depth-bound fallback can never masquerade as a proof.
    PassedBounded {
        /// Number of instants fully explored.
        depth: usize,
    },
    /// The property is violated; the counterexample replays in the
    /// simulator.
    Violated(Counterexample),
}

impl Verdict {
    /// Returns `true` when the verdict is a violation.
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// Returns `true` when no violation was found (proved or bounded).
    pub fn passed(&self) -> bool {
        !self.is_violated()
    }

    /// A one-line rendering for reports. A bounded pass is always rendered
    /// as `passed-bounded`, never as a proof (regression: truncated
    /// explorations must not read as "proved" in reports).
    pub fn summary(&self) -> String {
        match self {
            Verdict::Proved => "proved (state space exhausted)".to_string(),
            Verdict::PassedBounded { depth } => {
                format!("passed-bounded (no violation within {depth} instants; not a proof)")
            }
            Verdict::Violated(cex) => format!(
                "VIOLATED at instant {} ({})",
                cex.violation_instant, cex.witness
            ),
        }
    }
}

/// The verdict of one checked property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropertyVerdict {
    /// The property that was checked.
    pub property: Property,
    /// Its verdict.
    pub verdict: Verdict,
}

/// Counters describing one exploration run.
///
/// Every field is deterministic: the same model and options produce the
/// same stats under any worker count or telemetry
/// collection mode. Nondeterministic measurements (steal counts, timings,
/// rates) live in the [`VerifyOptions::collector`] instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplorationStats {
    /// Number of distinct states inserted in the seen-set.
    pub states: usize,
    /// Number of executed transitions (feasible successor steps).
    pub transitions: usize,
    /// Number of enumerated input valuations rejected by the evaluator.
    pub infeasible: usize,
    /// Number of instants fully explored (breadth-first levels expanded).
    pub depth: usize,
    /// Maximum worker threads actually exercised (bounded by the configured
    /// count and by the widest frontier — a scheduled exploration has
    /// frontier size 1 and therefore always runs sequentially).
    pub workers: usize,
    /// `true` when the exploration was cut short — by the depth bound, the
    /// state cap, a branching truncation, or an early stop once every
    /// checked property had a violation — in which case `Proved` verdicts
    /// are downgraded and the counters describe a partial search.
    pub truncated: bool,
    /// Largest breadth-first level encountered (states expanded in one
    /// instant) — the working-set high-water mark of the exploration.
    pub peak_frontier: usize,
    /// Number of candidate input valuations skipped by the
    /// dispatch-feasibility oracle (always 0 without an oracle).
    pub pruned: usize,
    /// Breadth-first frontier size at each explored level, in depth order
    /// (`frontier_levels[0]` is the initial frontier);
    /// [`ExplorationStats::peak_frontier`] is its maximum.
    pub frontier_levels: Vec<u32>,
    /// Always 0: every component step runs its evaluator. Kept with
    /// [`ExplorationStats::memo_misses`] because perfbench derives
    /// `product.memo_hit_ratio` and `eval.share_of_verify` from the pair.
    pub memo_hits: usize,
    /// Component steps the product verifier evaluated: equal to
    /// [`ExplorationStats::transitions`] for a product exploration, 0 for
    /// a single-process one.
    pub memo_misses: usize,
    /// Memory slots rewritten to their abstract representative (saturated
    /// at the widening threshold or reset by projection) while
    /// canonicalising successors — always 0 in the concrete domain. The
    /// expansion multiset is worker-independent, so this count is
    /// deterministic like every other field.
    pub widened: usize,
    /// Number of memory slots dropped from the canonical key by counter
    /// projection (a static property of the analyzed model and options,
    /// not a per-transition count).
    pub projected_slots: usize,
    /// Number of abstract counterexamples re-concretized and replayed in
    /// the explicit simulator by the interval domain's soundness gate.
    pub reconcretized: usize,
}

/// Everything one [`Verifier::verify`] call learned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationOutcome {
    /// Per-property verdicts, in the order the properties were given.
    pub verdicts: Vec<PropertyVerdict>,
    /// Exploration counters.
    pub stats: ExplorationStats,
}

impl VerificationOutcome {
    /// Returns `true` when no checked property is violated.
    pub fn is_violation_free(&self) -> bool {
        self.verdicts.iter().all(|v| v.verdict.passed())
    }

    /// Returns `true` when every property was proved exhaustively.
    pub fn all_proved(&self) -> bool {
        self.verdicts
            .iter()
            .all(|v| matches!(v.verdict, Verdict::Proved))
    }

    /// The violated properties and their counterexamples.
    pub fn violations(&self) -> impl Iterator<Item = (&Property, &Counterexample)> {
        self.verdicts.iter().filter_map(|v| match &v.verdict {
            Verdict::Violated(cex) => Some((&v.property, cex)),
            _ => None,
        })
    }

    /// A compact multi-line rendering for reports and the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "explored {} states / {} transitions at depth {} ({} worker(s){}, peak frontier {})\n",
            self.stats.states,
            self.stats.transitions,
            self.stats.depth,
            self.stats.workers,
            if self.stats.truncated {
                ", truncated"
            } else {
                ", exhaustive"
            },
            self.stats.peak_frontier
        );
        if self.stats.widened > 0 || self.stats.projected_slots > 0 {
            out.push_str(&format!(
                "  interval domain: {} widenings, {} projected slot(s), \
                 {} counterexample(s) re-concretized\n",
                self.stats.widened, self.stats.projected_slots, self.stats.reconcretized
            ));
        }
        for v in &self.verdicts {
            out.push_str(&format!(
                "  {:<40} {}\n",
                v.property.name(),
                v.verdict.summary()
            ));
        }
        out
    }
}

/// Errors raised by the verifier.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// Process validation or evaluator construction failed.
    Signal(SignalError),
    /// A scheduled input step is not executable and `DeadlockFree` was not
    /// among the checked properties to absorb it as a violation.
    Evaluation {
        /// Instant of the failing step.
        instant: usize,
        /// Evaluator error text.
        detail: String,
    },
    /// A scheduled input space was given an empty trace.
    EmptySchedule,
    /// `verify` was called with no properties.
    NoProperties,
    /// A product system is inconsistent (no components, duplicate names,
    /// mismatched schedule horizons, or a link referencing an unknown
    /// component or signal).
    InvalidProduct(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Signal(e) => write!(f, "signal error: {e}"),
            VerifyError::Evaluation { instant, detail } => {
                write!(f, "scheduled step {instant} is not executable: {detail}")
            }
            VerifyError::EmptySchedule => write!(f, "scheduled input trace is empty"),
            VerifyError::NoProperties => write!(f, "no properties to verify"),
            VerifyError::InvalidProduct(detail) => write!(f, "invalid product system: {detail}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SignalError> for VerifyError {
    fn from(e: SignalError) -> Self {
        VerifyError::Signal(e)
    }
}

/// An explicit-state model checker for one flat SIGNAL process.
///
/// ```
/// use polyverify::{InputSpace, Property, Verifier, VerifyOptions};
/// use signal_moc::builder::ProcessBuilder;
/// use signal_moc::expr::Expr;
/// use signal_moc::value::ValueType;
///
/// let mut b = ProcessBuilder::new("watch");
/// b.input("Deadline", ValueType::Boolean);
/// b.input("Resume", ValueType::Boolean);
/// b.output("Alarm", ValueType::Boolean);
/// b.define("Alarm", Expr::and(Expr::var("Deadline"), Expr::not(Expr::var("Resume"))));
/// b.synchronize(&["Deadline", "Resume", "Alarm"]);
/// let process = b.build()?;
///
/// let verifier = Verifier::new(&process, VerifyOptions::default())?;
/// let outcome = verifier.verify(
///     &InputSpace::Free,
///     &[Property::NeverRaised("*Alarm*".into())],
/// )?;
/// // Deadline without Resume raises the alarm: the checker finds it.
/// assert!(!outcome.is_violation_free());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    evaluator: Evaluator,
    /// Clock calculus, computed on first use: only free-input enumeration
    /// reads it, so scheduled-mode verification never pays for the analysis.
    calculus: std::sync::OnceLock<ClockCalculus>,
    options: VerifyOptions,
}

impl Verifier {
    /// Prepares a verifier for a flat process.
    ///
    /// # Errors
    ///
    /// Propagates validation and evaluator-construction errors (the process
    /// must be flat — see [`signal_moc::process::ProcessModel::flatten`]).
    pub fn new(process: &Process, options: VerifyOptions) -> Result<Self, VerifyError> {
        let evaluator = Evaluator::new(process)?;
        Ok(Self {
            evaluator,
            calculus: std::sync::OnceLock::new(),
            options,
        })
    }

    /// The process under verification (owned by the template evaluator).
    pub fn process(&self) -> &Process {
        self.evaluator.process()
    }

    /// The clock calculus of the process, computed on first use.
    fn calculus(&self) -> Result<&ClockCalculus, VerifyError> {
        if self.calculus.get().is_none() {
            let calculus = ClockCalculus::analyze(self.process())?;
            // A concurrent set by another thread stores an identical value.
            let _ = self.calculus.set(calculus);
        }
        Ok(self.calculus.get().expect("calculus just initialised"))
    }

    /// The active options.
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Enumerates the candidate input valuations for one instant in free
    /// mode, pruned by the clock calculus: synchronisation classes are
    /// all-or-nothing, mutually exclusive classes are never co-present, and a
    /// sub-clock is never present without its super-clock. Returns the
    /// candidates and whether the enumeration was truncated by
    /// [`VerifyOptions::max_branching`].
    ///
    /// # Errors
    ///
    /// Propagates clock-calculus errors (e.g. duplicate total definitions).
    pub fn free_candidates(&self) -> Result<(Vec<TraceStep>, bool), VerifyError> {
        let calculus = self.calculus()?;
        let inputs: Vec<(&str, ValueType)> = self
            .process()
            .inputs()
            .map(|d| (d.name.as_str(), d.ty))
            .collect();
        // Group the inputs by synchronisation class.
        let mut groups: BTreeMap<usize, Vec<(&str, ValueType)>> = BTreeMap::new();
        for (name, ty) in inputs {
            let class = calculus.class_of(name).map(|c| c.id).unwrap_or(usize::MAX);
            groups.entry(class).or_default().push((name, ty));
        }
        let group_list: Vec<(usize, Vec<(&str, ValueType)>)> = groups.into_iter().collect();
        // The silent valuation is always a candidate: autonomous behaviour
        // (e.g. `Alarm := true`, or outputs excluded with an input clock)
        // can be observable on instants where every input is absent, so
        // skipping it would prove such violations "safe" vacuously.
        let mut candidates = vec![TraceStep::new()];
        let mut truncated = false;
        if group_list.is_empty() {
            return Ok((candidates, false));
        }
        // More than 16 independent input clocks cannot be enumerated anyway
        // (2^16 presence combinations beats any realistic branching cap):
        // enumerate the first 16 classes and flag the truncation.
        let g = group_list.len().min(16);
        if group_list.len() > g {
            truncated = true;
        }
        'masks: for mask in 1u32..(1u32 << g) {
            let present: Vec<usize> = (0..g).filter(|i| mask & (1 << i) != 0).collect();
            // Exclusion pruning: two mutually exclusive classes never fire
            // together.
            for (i, &a) in present.iter().enumerate() {
                for &b in &present[i + 1..] {
                    let (ca, cb) = (group_list[a].0, group_list[b].0);
                    let key = if ca < cb { (ca, cb) } else { (cb, ca) };
                    if calculus.exclusions().contains(&key) {
                        continue 'masks;
                    }
                }
            }
            // Hierarchy pruning: a present sub-clock requires its
            // super-clock input class to be present as well.
            for &a in &present {
                for (b, (class_b, _)) in group_list.iter().enumerate() {
                    if a != b
                        && !present.contains(&b)
                        && group_list[a].0 != *class_b
                        && calculus.is_subclock(group_list[a].0, *class_b)
                    {
                        continue 'masks;
                    }
                }
            }
            // Cartesian product of the value domains of the present inputs.
            let slots: Vec<(&str, Vec<Value>)> = present
                .iter()
                .flat_map(|&gi| group_list[gi].1.iter())
                .map(|&(name, ty)| (name, self.domain_of(ty)))
                .collect();
            let mut indices = vec![0usize; slots.len()];
            loop {
                if candidates.len() >= self.options.max_branching {
                    truncated = true;
                    break 'masks;
                }
                let mut step = TraceStep::new();
                for (slot, &i) in slots.iter().zip(&indices) {
                    step.set(slot.0, slot.1[i].clone());
                }
                candidates.push(step);
                // Odometer increment.
                let mut carry = true;
                for (pos, idx) in indices.iter_mut().enumerate().rev() {
                    if !carry {
                        break;
                    }
                    *idx += 1;
                    if *idx < slots[pos].1.len() {
                        carry = false;
                    } else {
                        *idx = 0;
                    }
                }
                if carry {
                    break;
                }
            }
        }
        Ok((candidates, truncated))
    }

    fn domain_of(&self, ty: ValueType) -> Vec<Value> {
        match ty {
            ValueType::Event => vec![Value::Event],
            ValueType::Boolean => vec![Value::Bool(false), Value::Bool(true)],
            ValueType::Integer => self
                .options
                .int_domain
                .iter()
                .map(|&i| Value::Int(i))
                .collect(),
            ValueType::Real => self
                .options
                .real_domain
                .iter()
                .map(|&r| Value::Real(r))
                .collect(),
            ValueType::Text => vec![Value::Text(String::new())],
        }
    }

    /// Explores the state space of the process over `space` and checks every
    /// property of `properties`, returning one verdict per property.
    ///
    /// The exploration is a depth-stratified parallel breadth-first search
    /// over the shared exploration core (`crate::engine`): states are
    /// interned to dense ids with incremental key hashing, and each level is
    /// distributed over [`VerifyOptions::workers`] threads by work stealing.
    /// Counterexamples are always of minimal depth, and verdicts,
    /// counterexample traces and state counts are bit-identical under any
    /// worker count and steal interleaving (equal-depth discovery races
    /// are resolved by a canonical edge ordering, and each level's
    /// violations are tie-broken the same way).
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::NoProperties`] for an empty property list,
    /// [`VerifyError::EmptySchedule`] for an empty scheduled trace, and
    /// [`VerifyError::Evaluation`] when a scheduled step is not executable
    /// while `DeadlockFree` is not among the checked properties.
    pub fn verify(
        &self,
        space: &InputSpace,
        properties: &[Property],
    ) -> Result<VerificationOutcome, VerifyError> {
        if properties.is_empty() {
            return Err(VerifyError::NoProperties);
        }
        if self.options.domain == Domain::Interval {
            let abstraction = SlotAbstraction::analyze(
                self.process(),
                properties,
                "",
                &[],
                self.options.project_counters,
                self.options.widen_threshold,
                self.evaluator.memory_len(),
            );
            if !abstraction.is_identity() {
                let outcome = self.verify_explicit(space, properties, Some(&abstraction))?;
                return self.reconcile(space, properties, outcome, &abstraction);
            }
        }
        self.verify_explicit(space, properties, None)
    }

    /// The strengthen-only gate of the interval domain: every abstract
    /// counterexample is re-concretized (its inputs are exact — abstraction
    /// only touches memory slots) and replayed in the explicit simulator.
    /// If all replays reproduce, the abstract outcome stands (annotated
    /// with the gate's counters); any spurious or erroring replay abandons
    /// the abstraction and re-runs today's fully concrete exploration, so
    /// no verdict can get worse than the explicit engine's.
    fn reconcile(
        &self,
        space: &InputSpace,
        properties: &[Property],
        mut outcome: VerificationOutcome,
        abstraction: &SlotAbstraction,
    ) -> Result<VerificationOutcome, VerifyError> {
        let mut reconcretized = 0usize;
        let mut confirmed = true;
        for (_, cex) in outcome.violations() {
            reconcretized += 1;
            match cex.replay(self.process()) {
                Ok(report) if report.reproduced => {}
                _ => {
                    confirmed = false;
                    break;
                }
            }
        }
        if !confirmed {
            return self.verify_explicit(space, properties, None);
        }
        outcome.stats.projected_slots = abstraction.projected_slots();
        outcome.stats.reconcretized = reconcretized;
        let obs = &self.options.collector;
        if obs.is_enabled() {
            obs.counter("engine.projected_slots")
                .add(abstraction.projected_slots() as u64);
            obs.counter("engine.reconcretized")
                .add(reconcretized as u64);
        }
        Ok(outcome)
    }

    /// One exploration pass: concrete when `abstraction` is `None`,
    /// abstract (normalising every state to its representative) otherwise.
    fn verify_explicit(
        &self,
        space: &InputSpace,
        properties: &[Property],
        abstraction: Option<&SlotAbstraction>,
    ) -> Result<VerificationOutcome, VerifyError> {
        let scheduled = match space {
            InputSpace::Scheduled(trace) if trace.is_empty() => {
                return Err(VerifyError::EmptySchedule)
            }
            InputSpace::Scheduled(trace) => Some(trace),
            InputSpace::Free => None,
        };
        let (candidates, candidates_truncated) = match scheduled {
            Some(_) => (Vec::new(), false),
            None => self.free_candidates()?,
        };

        // Every trace property — built-in shape or user LTL — compiles to
        // one monitor automaton; their registers are concatenated into the
        // `monitors` component of the explored state (a stateless formula
        // such as `never raised(...)` contributes zero registers). An
        // end-to-end property over joint product signals simply never
        // triggers in a single-thread namespace.
        let (compiled, initial_monitors) = compile_properties(properties);
        let deadlock_idx = properties
            .iter()
            .position(|p| matches!(p, Property::DeadlockFree));

        let monitor_count = initial_monitors.len();
        let mut initial_memory = self.evaluator.memory();
        if let Some(abstraction) = abstraction {
            abstraction.normalize(&mut initial_memory);
        }
        let initial = State {
            memory: initial_memory,
            phase: 0,
            monitors: initial_monitors,
        };
        let expander = ThreadExpander {
            verifier: self,
            scheduled,
            candidates: &candidates,
            compiled: &compiled,
            properties,
            deadlock_idx,
            monitor_count,
            oracle: self.options.oracle.as_ref(),
            abstraction,
        };
        engine::explore(
            &expander,
            &initial,
            &self.options,
            properties,
            candidates_truncated,
        )
    }
}

/// The [`Expander`] of one flat process: scheduled steps follow the timing
/// trace (the phase wraps around), free steps enumerate the clock-calculus
/// candidates, optionally filtered by the dispatch-feasibility oracle.
struct ThreadExpander<'a> {
    verifier: &'a Verifier,
    scheduled: Option<&'a Trace>,
    candidates: &'a [TraceStep],
    compiled: &'a [CompiledProperty],
    properties: &'a [Property],
    deadlock_idx: Option<usize>,
    monitor_count: usize,
    oracle: Option<&'a DispatchFeasibility>,
    /// Interval-domain slot plans; `None` explores the concrete domain.
    abstraction: Option<&'a SlotAbstraction>,
}

/// Per-worker scratch: the evaluator clone (a deep copy of the flattened
/// process — created once per worker, never per level), the incremental key
/// codec, and reusable buffers so the per-successor path allocates nothing.
struct ThreadCtx {
    evaluator: Evaluator,
    codec: KeyCodec,
    monitors: Vec<u32>,
    succ_monitors: Vec<u32>,
    memory: Vec<Value>,
    considered: Vec<u32>,
}

impl ThreadExpander<'_> {
    /// Executes one candidate edge out of the seeded parent: restore the
    /// parent memory, run the evaluator, step the monitors over the
    /// borrowed resolved view, and intern the successor through the
    /// incremental codec.
    #[allow(clippy::too_many_arguments)]
    fn try_edge(
        &self,
        ctx: &mut ThreadCtx,
        depth: usize,
        edge: u32,
        input: &TraceStep,
        next_phase: u32,
        has_nonsilent: bool,
        progress: &mut usize,
        sink: &mut Sink<'_>,
    ) -> Result<(), VerifyError> {
        if ctx
            .evaluator
            .restore_memory(ctx.codec.parent_memory())
            .is_err()
        {
            // Cannot happen: snapshots always come from this process.
            return Ok(());
        }
        match ctx.evaluator.step_resolved(depth, input) {
            Ok(resolved) => {
                if !input.is_silent() || !has_nonsilent {
                    *progress += 1;
                }
                sink.transition();
                // Monitor steps on the resolved instant (the updated
                // registers are part of the successor state). A violating
                // monitor reports and keeps running — an expired deadline
                // register returns to idle — so the other properties keep
                // being explored, and several violations can land on the
                // same transition.
                ctx.succ_monitors.clear();
                ctx.succ_monitors.extend_from_slice(&ctx.monitors);
                for property in self.compiled {
                    sink.monitor_step();
                    let observed = property.step(&mut ctx.succ_monitors, &resolved);
                    if !observed.holds {
                        sink.violation(
                            property.index,
                            Some(edge),
                            self.properties[property.index].violation_witness(&observed),
                        );
                    }
                }
                // The max_states cap is deliberately NOT checked here:
                // enforcing it mid-level would make the kept frontier depend
                // on thread interleaving. The level loop checks it between
                // levels instead.
                ctx.evaluator.memory_into(&mut ctx.memory);
                if let Some(abstraction) = self.abstraction {
                    // Canonicalise to the abstract representative before
                    // interning: saturated counters collapse into one state
                    // and the fixpoint can close.
                    let widened = abstraction.normalize(&mut ctx.memory);
                    if widened > 0 {
                        sink.widened(widened);
                    }
                }
                let (hash, bytes) =
                    ctx.codec
                        .successor(&ctx.memory, next_phase, &ctx.succ_monitors);
                sink.successor(hash, bytes, edge);
            }
            Err(e) => {
                sink.infeasible();
                if self.scheduled.is_some() {
                    match self.deadlock_idx {
                        Some(idx) => sink.violation(
                            idx,
                            Some(edge),
                            format!("scheduled step not executable: {e}"),
                        ),
                        None => {
                            return Err(VerifyError::Evaluation {
                                instant: depth,
                                detail: e.to_string(),
                            })
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Expander for ThreadExpander<'_> {
    type Ctx = ThreadCtx;

    fn new_ctx(&self) -> ThreadCtx {
        ThreadCtx {
            evaluator: self.verifier.evaluator.clone(),
            codec: KeyCodec::new(),
            monitors: Vec::new(),
            succ_monitors: Vec::new(),
            memory: Vec::new(),
            considered: Vec::new(),
        }
    }

    fn expand(
        &self,
        ctx: &mut ThreadCtx,
        key: &[u8],
        depth: usize,
        sink: &mut Sink<'_>,
    ) -> Result<(), VerifyError> {
        let phase = ctx
            .codec
            .seed_key(key, self.monitor_count, &mut ctx.monitors);
        match self.scheduled {
            Some(trace) => {
                let empty = TraceStep::new();
                let input = trace.step(phase as usize).unwrap_or(&empty);
                let next_phase = ((phase as usize + 1) % trace.len()) as u32;
                let mut progress = 0usize;
                self.try_edge(ctx, depth, 0, input, next_phase, true, &mut progress, sink)
            }
            None => {
                // Oracle pruning: skip candidates that make a signal present
                // at an instant its affine dispatch clock provably excludes.
                // The silent candidate has no present signals and is never
                // pruned, so the considered set is never empty.
                ctx.considered.clear();
                for (edge, candidate) in self.candidates.iter().enumerate() {
                    if let Some(oracle) = self.oracle {
                        let excluded = candidate
                            .iter()
                            .any(|(name, _)| !oracle.may_fire(name, depth as u64));
                        if excluded {
                            sink.pruned();
                            continue;
                        }
                    }
                    ctx.considered.push(edge as u32);
                }
                // Progress for the deadlock check: a feasible non-silent
                // step — or, for a closed process (whose only considered
                // valuation is the silent one), the silent step itself,
                // since autonomous systems advance on their own clock.
                let has_nonsilent = ctx
                    .considered
                    .iter()
                    .any(|&e| !self.candidates[e as usize].is_silent());
                let mut progress = 0usize;
                for i in 0..ctx.considered.len() {
                    let edge = ctx.considered[i];
                    self.try_edge(
                        ctx,
                        depth,
                        edge,
                        &self.candidates[edge as usize],
                        0,
                        has_nonsilent,
                        &mut progress,
                        sink,
                    )?;
                }
                if progress == 0 {
                    if let Some(idx) = self.deadlock_idx {
                        sink.violation(
                            idx,
                            None,
                            format!(
                                "no feasible progress valuation among {} candidates",
                                ctx.considered.len()
                            ),
                        );
                    }
                }
                Ok(())
            }
        }
    }

    fn edge_step(&self, prev_key: &[u8], edge: u32) -> TraceStep {
        match self.scheduled {
            Some(trace) => {
                let phase =
                    u32::from_le_bytes(prev_key[0..4].try_into().expect("phase bytes")) as usize;
                trace.step(phase % trace.len()).cloned().unwrap_or_default()
            }
            None => self.candidates[edge as usize].clone(),
        }
    }

    fn eval_work(&self, ctx: &ThreadCtx) -> EvalWork {
        ctx.evaluator.work()
    }

    fn monitored_properties(&self) -> Vec<String> {
        self.compiled
            .iter()
            .map(|p| self.properties[p.index].name())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::expr::Expr;

    /// Deadline/Resume alarm watcher with a saturating miss counter: finite
    /// state, so free exploration closes.
    fn watcher() -> Process {
        let mut b = ProcessBuilder::new("watcher");
        b.input("Deadline", ValueType::Boolean);
        b.input("Resume", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.define(
            "Alarm",
            Expr::and(Expr::var("Deadline"), Expr::not(Expr::var("Resume"))),
        );
        b.synchronize(&["Deadline", "Resume", "Alarm"]);
        b.build().unwrap()
    }

    /// A safe variant: the alarm can never fire.
    fn safe_watcher() -> Process {
        let mut b = ProcessBuilder::new("safe");
        b.input("Deadline", ValueType::Boolean);
        b.input("Resume", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.define("Alarm", Expr::and(Expr::var("Deadline"), Expr::bool(false)));
        b.synchronize(&["Deadline", "Resume", "Alarm"]);
        b.build().unwrap()
    }

    #[test]
    fn free_candidates_respect_synchronisation() {
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        let (candidates, truncated) = verifier.free_candidates().unwrap();
        assert!(!truncated);
        // The silent valuation, plus: Deadline and Resume share one class,
        // so both present with 2×2 boolean values.
        assert_eq!(candidates.len(), 5);
        assert!(candidates[0].is_silent());
        for step in &candidates[1..] {
            assert!(step.is_present("Deadline"));
            assert!(step.is_present("Resume"));
        }
    }

    #[test]
    fn exclusion_gated_autonomous_alarm_is_found_on_a_silent_instant() {
        // `Alarm := true` can only be present when input `a` is absent (they
        // are mutually exclusive): the violation lives on the silent instant
        // and must still be found (regression: silent steps used to be
        // skipped for processes with inputs).
        let mut b = ProcessBuilder::new("gated");
        b.input("a", ValueType::Event);
        b.output("Alarm", ValueType::Boolean);
        b.define("Alarm", Expr::bool(true));
        b.exclude(&["Alarm", "a"]);
        let process = b.build().unwrap();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("alarm must be found");
        assert_eq!(cex.violation_instant, 0);
        let replay = cex.replay(&process).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn violation_found_with_minimal_depth_and_replays() {
        let process = watcher();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("violation expected");
        assert_eq!(cex.inputs.len(), 1, "alarm is reachable in one instant");
        let replay = cex.replay(&process).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn safe_process_is_proved_exhaustively() {
        let verifier = Verifier::new(&safe_watcher(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[
                    Property::NeverRaised("*Alarm*".into()),
                    Property::DeadlockFree,
                ],
            )
            .unwrap();
        assert!(outcome.all_proved(), "{}", outcome.summary());
        // Stateless process: a single state, closed immediately after one level.
        assert_eq!(outcome.stats.states, 1);
        assert!(!outcome.stats.truncated);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        for process in [watcher(), safe_watcher()] {
            let sequential = Verifier::new(&process, VerifyOptions::default().with_workers(1))
                .unwrap()
                .verify(
                    &InputSpace::Free,
                    &[Property::NeverRaised("*Alarm*".into())],
                )
                .unwrap();
            let parallel = Verifier::new(&process, VerifyOptions::default().with_workers(4))
                .unwrap()
                .verify(
                    &InputSpace::Free,
                    &[Property::NeverRaised("*Alarm*".into())],
                )
                .unwrap();
            assert_eq!(
                sequential.verdicts, parallel.verdicts,
                "worker count must not change the verdicts"
            );
        }
    }

    #[test]
    fn diamond_discovery_races_yield_deterministic_counterexamples() {
        // `latch` becomes true via (Deadline,!Resume) *or* (!Deadline,Resume):
        // the latched state is discovered twice at the same level through
        // different inputs, and the alarm fires one instant later. The
        // counterexample must be byte-identical for every worker count (the
        // canonical-edge tie-break, not thread interleaving, picks the
        // parent).
        let mut b = ProcessBuilder::new("diamond");
        b.input("Deadline", ValueType::Boolean);
        b.input("Resume", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("latch", ValueType::Boolean);
        b.define(
            "latch",
            Expr::or(
                Expr::delay(Expr::var("latch"), Value::Bool(false)),
                Expr::ne(Expr::var("Deadline"), Expr::var("Resume")),
            ),
        );
        b.define("Alarm", Expr::delay(Expr::var("latch"), Value::Bool(false)));
        b.synchronize(&["Deadline", "Resume", "latch", "Alarm"]);
        let process = b.build().unwrap();
        let property = [Property::NeverRaised("*Alarm*".into())];
        let reference = Verifier::new(&process, VerifyOptions::default().with_workers(1))
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
        assert!(!reference.is_violation_free());
        for workers in [2usize, 4, 8] {
            for _ in 0..4 {
                let outcome =
                    Verifier::new(&process, VerifyOptions::default().with_workers(workers))
                        .unwrap()
                        .verify(&InputSpace::Free, &property)
                        .unwrap();
                assert_eq!(reference.verdicts, outcome.verdicts, "workers={workers}");
            }
        }
    }

    #[test]
    fn depth_bound_yields_bounded_verdict() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let process = b.build().unwrap();
        let verifier =
            Verifier::new(&process, VerifyOptions::default().with_depth_bound(5)).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap();
        assert_eq!(outcome.stats.depth, 5);
        assert!(matches!(
            outcome.verdicts[0].verdict,
            Verdict::PassedBounded { depth: 5 }
        ));
        assert!(outcome.is_violation_free());
        assert!(!outcome.all_proved());
    }

    #[test]
    fn truncated_exploration_never_reports_proved() {
        // Regression: a depth-bound fallback (scheduled exploration of an
        // unbounded counter, cut at one hyper-period) must report
        // PassedBounded — and render as "passed-bounded", never "proved" —
        // for every checked property.
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let process = b.build().unwrap();
        let mut trace = Trace::new();
        for t in 0..3usize {
            trace.set(t, "tick", Value::Event);
        }
        let verifier =
            Verifier::new(&process, VerifyOptions::default().with_depth_bound(6)).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Scheduled(trace),
                &[
                    Property::NeverRaised("*Alarm*".into()),
                    Property::DeadlockFree,
                ],
            )
            .unwrap();
        assert!(outcome.stats.truncated);
        assert!(!outcome.all_proved());
        for verdict in &outcome.verdicts {
            assert_eq!(verdict.verdict, Verdict::PassedBounded { depth: 6 });
            let summary = verdict.verdict.summary();
            assert!(
                summary.contains("passed-bounded") && !summary.contains("proved"),
                "{summary}"
            );
        }
        assert!(outcome.summary().contains("truncated"));
    }

    /// `count := count$1 init 0 + 1` — the unbounded monotone counter that
    /// can never close in the concrete domain.
    fn unbounded_counter() -> Process {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        b.build().unwrap()
    }

    #[test]
    fn interval_domain_closes_the_unbounded_counter_with_a_proof() {
        let process = unbounded_counter();
        let property = [Property::NeverRaised("*Alarm*".into())];
        // Concrete domain: the space never closes; a bounded run passes.
        let concrete = Verifier::new(&process, VerifyOptions::default().with_depth_bound(24))
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
        assert!(matches!(
            concrete.verdicts[0].verdict,
            Verdict::PassedBounded { .. }
        ));
        // Interval domain: the counter widens at the threshold, the
        // fixpoint closes, and the verdict is a genuine proof.
        let interval = Verifier::new(
            &process,
            VerifyOptions::default().with_domain(Domain::Interval),
        )
        .unwrap()
        .verify(&InputSpace::Free, &property)
        .unwrap();
        assert!(interval.all_proved(), "{}", interval.summary());
        assert!(!interval.stats.truncated);
        assert!(interval.stats.widened > 0, "{:?}", interval.stats);
        assert_eq!(interval.stats.reconcretized, 0);
        // Bit-identical across worker counts.
        for workers in [1usize, 2, 8] {
            let again = Verifier::new(
                &process,
                VerifyOptions::default()
                    .with_domain(Domain::Interval)
                    .with_workers(workers),
            )
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
            assert_eq!(interval.verdicts, again.verdicts);
            assert_eq!(interval.stats, again.stats, "workers={workers}");
        }
    }

    #[test]
    fn projection_drops_the_counter_entirely() {
        let process = unbounded_counter();
        let property = [Property::NeverRaised("*Alarm*".into())];
        let widened = Verifier::new(
            &process,
            VerifyOptions::default().with_domain(Domain::Interval),
        )
        .unwrap()
        .verify(&InputSpace::Free, &property)
        .unwrap();
        let projected = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_domain(Domain::Interval)
                .with_project_counters(true),
        )
        .unwrap()
        .verify(&InputSpace::Free, &property)
        .unwrap();
        assert!(projected.all_proved(), "{}", projected.summary());
        assert_eq!(projected.stats.projected_slots, 1);
        assert!(
            projected.stats.states < widened.stats.states,
            "projection ({}) must merge harder than widening ({})",
            projected.stats.states,
            widened.stats.states
        );
    }

    #[test]
    fn interval_domain_closes_scheduled_unbounded_counters() {
        let process = unbounded_counter();
        let mut trace = Trace::new();
        for t in 0..3usize {
            trace.set(t, "tick", Value::Event);
        }
        let outcome = Verifier::new(
            &process,
            VerifyOptions::default().with_domain(Domain::Interval),
        )
        .unwrap()
        .verify(
            &InputSpace::Scheduled(trace),
            &[Property::NeverRaised("*Alarm*".into())],
        )
        .unwrap();
        assert!(outcome.all_proved(), "{}", outcome.summary());
        assert!(!outcome.stats.truncated);
    }

    #[test]
    fn interval_domain_still_finds_and_replays_real_violations() {
        // The watcher's alarm is reachable; the interval domain must report
        // it with the same minimal counterexample after the replay gate.
        let process = watcher();
        let property = [Property::NeverRaised("*Alarm*".into())];
        let concrete = Verifier::new(&process, VerifyOptions::default())
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
        let interval = Verifier::new(
            &process,
            VerifyOptions::default().with_domain(Domain::Interval),
        )
        .unwrap()
        .verify(&InputSpace::Free, &property)
        .unwrap();
        assert_eq!(concrete.verdicts, interval.verdicts);
        let (_, cex) = interval.violations().next().expect("alarm reachable");
        assert!(cex.replay(&process).unwrap().reproduced);
    }

    #[test]
    fn deadlock_free_requests_run_concrete_under_interval() {
        // DeadlockFree disables the abstraction: the interval run of the
        // unbounded counter behaves exactly like the concrete engine (here:
        // truncated by the depth bound, never widened).
        let process = unbounded_counter();
        let outcome = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_domain(Domain::Interval)
                .with_depth_bound(4),
        )
        .unwrap()
        .verify(
            &InputSpace::Free,
            &[
                Property::NeverRaised("*Alarm*".into()),
                Property::DeadlockFree,
            ],
        )
        .unwrap();
        assert_eq!(outcome.stats.widened, 0);
        assert!(outcome.stats.truncated);
    }

    #[test]
    fn bounded_response_violation_found() {
        // Resume never answers Deadline within 1 instant if the environment
        // never raises Resume.
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::BoundedResponse {
                    trigger: "Deadline".into(),
                    response: "Resume".into(),
                    bound: 1,
                }],
            )
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("violation expected");
        let replay = cex.replay(&watcher()).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn end_to_end_response_is_vacuous_in_a_single_thread_namespace() {
        // An EndToEndResponse over joint product signals never triggers in
        // per-thread scope (the signals do not exist here): the property is
        // vacuously satisfied, which is exactly the blind spot product
        // verification closes.
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::EndToEndResponse {
                    from: "cLink_sent".into(),
                    to: "cLink_consumed".into(),
                    bound: 2,
                }],
            )
            .unwrap();
        assert!(outcome.all_proved(), "{}", outcome.summary());
    }

    #[test]
    fn closed_process_silent_step_is_explored() {
        // A process with no inputs still runs autonomously: its single
        // valuation per instant is the silent one, and `Alarm := true` must
        // be found immediately (regression: it used to be vacuously proved).
        let mut b = ProcessBuilder::new("closed");
        b.output("Alarm", ValueType::Boolean);
        b.define("Alarm", Expr::bool(true));
        let process = b.build().unwrap();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("alarm must be found");
        assert_eq!(cex.violation_instant, 0);
        let replay = cex.replay(&process).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn state_cap_yields_identical_bounded_verdicts_for_any_worker_count() {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        let process = b.build().unwrap();
        let property = [Property::NeverRaised("*Alarm*".into())];
        let reference = Verifier::new(
            &process,
            VerifyOptions::default().with_workers(1).with_max_states(3),
        )
        .unwrap()
        .verify(&InputSpace::Free, &property)
        .unwrap();
        assert!(reference.stats.truncated);
        assert!(matches!(
            reference.verdicts[0].verdict,
            Verdict::PassedBounded { .. }
        ));
        for workers in [2usize, 4] {
            let outcome = Verifier::new(
                &process,
                VerifyOptions::default()
                    .with_workers(workers)
                    .with_max_states(3),
            )
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
            assert_eq!(reference.verdicts, outcome.verdicts);
            assert_eq!(reference.stats.states, outcome.stats.states);
        }
    }

    #[test]
    fn two_monitors_expiring_on_the_same_transition_are_both_reported() {
        // Neither NoResponseA nor NoResponseB ever fires: both bounded
        // responses to Deadline expire on the same step and both must be
        // reported as violated (regression: the second used to shadow the
        // first).
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Free,
                &[
                    Property::BoundedResponse {
                        trigger: "Deadline".into(),
                        response: "NoResponseA".into(),
                        bound: 1,
                    },
                    Property::BoundedResponse {
                        trigger: "Deadline".into(),
                        response: "NoResponseB".into(),
                        bound: 1,
                    },
                ],
            )
            .unwrap();
        assert_eq!(outcome.violations().count(), 2, "{}", outcome.summary());
    }

    #[test]
    fn free_mode_dead_end_detected_and_probed_by_replay() {
        // `y := a when false` makes y permanently absent, while `a ^= y`
        // forces a to be absent too: the only candidate valuation (a
        // present) is infeasible, so the initial state is a dead end.
        let mut b = ProcessBuilder::new("stuck");
        b.input("a", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::when(Expr::var("a"), Expr::bool(false)));
        b.synchronize(&["a", "y"]);
        let process = b.build().unwrap();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&InputSpace::Free, &[Property::DeadlockFree])
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("dead end expected");
        assert_eq!(cex.violation_instant, 0);
        assert!(cex.inputs.is_empty());
        let replay = cex.replay(&process).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
        assert!(replay.detail.contains("candidate valuations rejected"));
    }

    #[test]
    fn scheduled_exploration_closes_on_periodic_systems() {
        // Drive the watcher with a 3-tick schedule where Resume always
        // accompanies Deadline: alarm-free, and the state space closes
        // (stateless memory × 3 phases).
        let mut trace = Trace::new();
        for t in 0..3usize {
            trace.set(t, "Deadline", Value::Bool(t == 2));
            trace.set(t, "Resume", Value::Bool(t == 2));
        }
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(
                &InputSpace::Scheduled(trace),
                &[
                    Property::NeverRaised("*Alarm*".into()),
                    Property::DeadlockFree,
                ],
            )
            .unwrap();
        assert!(outcome.all_proved(), "{}", outcome.summary());
        assert_eq!(outcome.stats.states, 3, "one state per phase");
    }

    #[test]
    fn scheduled_deadlock_detected_and_replayable() {
        // An exclusion constraint makes the scheduled step infeasible.
        let mut b = ProcessBuilder::new("excl");
        b.input("r", ValueType::Event);
        b.input("w", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::default(Expr::var("r"), Expr::var("w")));
        b.exclude(&["r", "w"]);
        let process = b.build().unwrap();
        let mut trace = Trace::new();
        trace.set(0, "r", Value::Event);
        trace.set(1, "r", Value::Event);
        trace.set(1, "w", Value::Event);
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&InputSpace::Scheduled(trace), &[Property::DeadlockFree])
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("deadlock expected");
        assert_eq!(cex.violation_instant, 1);
        let replay = cex.replay(&process).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn scheduled_error_without_deadlock_property_is_fatal() {
        let mut b = ProcessBuilder::new("sync");
        b.input("a", ValueType::Event);
        b.input("b", ValueType::Event);
        b.output("y", ValueType::Event);
        b.define("y", Expr::var("a"));
        b.synchronize(&["a", "b"]);
        let process = b.build().unwrap();
        let mut trace = Trace::new();
        trace.set(0, "a", Value::Event);
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let err = verifier
            .verify(
                &InputSpace::Scheduled(trace),
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap_err();
        assert!(matches!(err, VerifyError::Evaluation { instant: 0, .. }));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        assert_eq!(
            verifier.verify(&InputSpace::Free, &[]),
            Err(VerifyError::NoProperties)
        );
        assert_eq!(
            verifier.verify(
                &InputSpace::Scheduled(Trace::new()),
                &[Property::DeadlockFree]
            ),
            Err(VerifyError::EmptySchedule)
        );
    }
}
