//! The explicit-state reachability frontend for one flat SIGNAL process.
//! Free inputs enumerate the feasible successors (reusing the clock
//! calculus, optionally pruned by an affine dispatch-feasibility oracle);
//! scheduled inputs run the product's lockstep over the thread alone, as a
//! product of one component. Both expand states on the shared
//! depth-stratified exploration core (`crate::engine`): interned states,
//! incremental key hashing, and one atomic cursor per frontier level.

use std::collections::BTreeMap;

use affine_clocks::{AffineRelation, DispatchFeasibility};
use serde::{Deserialize, Serialize};
use signal_moc::clockcalc::ClockCalculus;
use signal_moc::error::SignalError;
use signal_moc::eval::{EvalWork, Evaluator};
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::{Value, ValueType};

use crate::counterexample::Counterexample;
use crate::engine::{self, entry_order_bytes, Expander, Sink, STEP_END};
use crate::monitor::{Checks, Namespace};
use crate::product::Lockstep;
use crate::property::Property;
use crate::slice::Slice;
use crate::state::KeyCodec;

/// Values enumerated for free integer inputs.
const INT_DOMAIN: [i64; 2] = [0, 1];

/// Values enumerated for free real inputs.
const REAL_DOMAIN: [f64; 2] = [0.0, 1.0];

/// Cap on the number of distinct input valuations enumerated per instant in
/// free mode; exceeding it truncates the enumeration (and downgrades
/// `Proved` to a bounded verdict).
const MAX_BRANCHING: usize = 256;

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
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            depth_bound: None,
            max_states: 1 << 20,
            oracle: None,
            collector: polyobs::Collector::noop(),
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
        /// Number of instants the search covers: the depth explored, or the
        /// depth bound when an already partial search (dropped deliveries,
        /// a truncated candidate enumeration) closed before reaching it.
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
/// collection mode. Nondeterministic measurements (timings, rates) live in
/// the [`VerifyOptions::collector`] instead.
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
    /// Always 0: every component step runs its evaluator. Kept with
    /// [`ExplorationStats::memo_misses`] because perfbench derives
    /// `product.memo_hit_ratio` and `eval.share_of_verify` from the pair.
    pub memo_hits: usize,
    /// Component steps the product verifier evaluated: equal to
    /// [`ExplorationStats::transitions`] for a product exploration, 0 for
    /// a single-process one.
    pub memo_misses: usize,
    /// Number of memory slots the cone-of-influence slice dropped from the
    /// canonical key (a static property of the analyzed model and
    /// properties, not a per-transition count).
    pub sliced_slots: usize,
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
        if self.stats.sliced_slots > 0 {
            out.push_str(&format!(
                "  slice: {} slot(s) no property or control decision reads, \
                 dropped from the state key\n",
                self.stats.sliced_slots
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
    /// candidates and whether the enumeration was truncated by the cap of
    /// 256 valuations per instant.
    ///
    /// # Errors
    ///
    /// Propagates clock-calculus errors (e.g. duplicate total definitions).
    pub fn free_candidates(&self) -> Result<(Vec<TraceStep>, bool), VerifyError> {
        let (candidates, truncated) = self.candidates()?;
        let names = self.evaluator.signal_names();
        let steps = candidates
            .iter()
            .map(|candidate| step_of(names, &candidate.inputs))
            .collect();
        Ok((steps, truncated))
    }

    /// The enumeration of [`Verifier::free_candidates`], resolved for
    /// exploration: each candidate's present inputs in name order as
    /// evaluator ids, the oracle relations of the constrained ones, and
    /// its order bytes. Each input is resolved once, not per candidate.
    fn candidates(&self) -> Result<(Vec<Candidate>, bool), VerifyError> {
        let calculus = self.calculus()?;
        // Group the inputs by synchronisation class.
        let mut groups: BTreeMap<usize, Vec<FreeInput<'_>>> = BTreeMap::new();
        for input in self.process().inputs() {
            let name = input.name.as_str();
            let class = calculus.class_of(name).map(|c| c.id).unwrap_or(usize::MAX);
            let domain = Self::domain_of(input.ty)
                .into_iter()
                .map(|value| {
                    let mut order = Vec::new();
                    entry_order_bytes(name, &value, &mut order);
                    (value, order)
                })
                .collect();
            groups.entry(class).or_default().push(FreeInput {
                name,
                id: self.evaluator.signal_id(name).expect("inputs are declared"),
                relation: self
                    .options
                    .oracle
                    .as_ref()
                    .and_then(|oracle| oracle.relation(name).copied()),
                domain,
            });
        }
        let group_list: Vec<(usize, Vec<FreeInput<'_>>)> = groups.into_iter().collect();
        // The silent valuation is always a candidate: autonomous behaviour
        // (e.g. `Alarm := true`, or outputs excluded with an input clock)
        // can be observable on instants where every input is absent, so
        // skipping it would prove such violations "safe" vacuously.
        let mut candidates = vec![Candidate {
            inputs: Vec::new(),
            relations: Vec::new(),
            order: vec![STEP_END],
        }];
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
            // Cartesian product of the value domains of the present inputs,
            // the last one varying fastest; each candidate lists its
            // entries in name order.
            let slots: Vec<&FreeInput<'_>> = present
                .iter()
                .flat_map(|&gi| group_list[gi].1.iter())
                .collect();
            let mut by_name: Vec<usize> = (0..slots.len()).collect();
            by_name.sort_by_key(|&slot| slots[slot].name);
            let order_len = 1 + slots
                .iter()
                .map(|input| input.domain.iter().map(|(_, order)| order.len()).max())
                .sum::<Option<usize>>()
                .unwrap_or(0);
            let mut indices = vec![0usize; slots.len()];
            loop {
                if candidates.len() >= MAX_BRANCHING {
                    truncated = true;
                    break 'masks;
                }
                let mut candidate = Candidate {
                    inputs: Vec::with_capacity(slots.len()),
                    relations: Vec::new(),
                    order: Vec::with_capacity(order_len),
                };
                for &slot in &by_name {
                    let input = slots[slot];
                    let (value, order) = &input.domain[indices[slot]];
                    candidate.inputs.push((input.id, value.clone()));
                    candidate.relations.extend(input.relation);
                    candidate.order.extend_from_slice(order);
                }
                candidate.order.push(STEP_END);
                candidates.push(candidate);
                // Odometer increment.
                let mut carry = true;
                for (pos, idx) in indices.iter_mut().enumerate().rev() {
                    if !carry {
                        break;
                    }
                    *idx += 1;
                    if *idx < slots[pos].domain.len() {
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

    fn domain_of(ty: ValueType) -> Vec<Value> {
        match ty {
            ValueType::Event => vec![Value::Event],
            ValueType::Boolean => vec![Value::Bool(false), Value::Bool(true)],
            ValueType::Integer => INT_DOMAIN.map(Value::Int).to_vec(),
            ValueType::Real => REAL_DOMAIN.map(Value::Real).to_vec(),
            ValueType::Text => vec![Value::Text(String::new())],
        }
    }

    /// Explores the state space of the process over `space` and checks every
    /// property of `properties`, returning one verdict per property.
    ///
    /// The exploration is a depth-stratified parallel breadth-first search
    /// over the shared exploration core (`crate::engine`): states are
    /// interned to dense ids with incremental key hashing, and the
    /// [`VerifyOptions::workers`] threads claim each level's states from one
    /// shared cursor. Counterexamples are always of minimal depth, and
    /// verdicts, counterexample traces and state counts are bit-identical
    /// under any worker count and claim interleaving (equal-depth discovery
    /// races are resolved by a canonical edge ordering, and each level's
    /// violations are tie-broken the same way). A scheduled input space
    /// runs the lockstep of [`crate::ProductVerifier`] over this one
    /// thread, a product of one component whose signals keep their names.
    ///
    /// The search runs on the cone-of-influence slice of the process: every
    /// memory slot whose value no property, port link, presence decision,
    /// divisor or partial definition can observe is dropped from the state
    /// key (see [`crate::slice`]). The slice is exact for observables, so
    /// verdicts can only strengthen a `PassedBounded` of
    /// [`Verifier::verify_reference`] into `Proved`, and a violation is
    /// found at the same instant.
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
        let slice = Slice::of(&self.evaluator, properties, "", &[]);
        self.explore(space, properties, &slice)
    }

    /// The unsliced exploration, under the empty slice: every memory slot
    /// stays in the state key. Its verdicts are the reference
    /// [`Verifier::verify`] must agree with, up to strengthening a
    /// `PassedBounded` into `Proved`; it exists for differential oracles
    /// (like [`Evaluator::step_reference`]) and is not meant for production
    /// runs.
    ///
    /// # Errors
    ///
    /// As [`Verifier::verify`].
    pub fn verify_reference(
        &self,
        space: &InputSpace,
        properties: &[Property],
    ) -> Result<VerificationOutcome, VerifyError> {
        self.explore(space, properties, &Slice::default())
    }

    /// One exploration pass under `slice`, normalising every state to its
    /// representative.
    fn explore(
        &self,
        space: &InputSpace,
        properties: &[Property],
        slice: &Slice,
    ) -> Result<VerificationOutcome, VerifyError> {
        // An end-to-end property over joint product signals simply never
        // triggers in a single-thread namespace.
        let checks = Checks::new(properties, &Namespace::thread(&self.evaluator))?;
        if let InputSpace::Scheduled(trace) = space {
            if trace.is_empty() {
                return Err(VerifyError::EmptySchedule);
            }
            return Lockstep::thread(&self.evaluator, trace).explore(&self.options, &checks, slice);
        }
        let (candidates, candidates_truncated) = self.candidates()?;
        let expander = ThreadExpander {
            verifier: self,
            candidates: &candidates,
        };
        engine::explore(
            &expander,
            self.evaluator.memory(),
            &checks,
            slice,
            &self.options,
            candidates_truncated,
        )
    }
}

/// The inputs named by the `(id, value)` entries of a candidate.
fn step_of(names: &[String], inputs: &[(u32, Value)]) -> TraceStep {
    let mut step = TraceStep::new();
    for (id, value) in inputs {
        step.set(names[*id as usize].as_str(), value.clone());
    }
    step
}

/// One input of the free enumeration, resolved once per enumeration.
struct FreeInput<'a> {
    name: &'a str,
    id: u32,
    /// Its dispatch-oracle relation, if the oracle constrains it.
    relation: Option<AffineRelation>,
    /// Each value of its domain, with the value's [`entry_order_bytes`].
    domain: Vec<(Value, Vec<u8>)>,
}

/// One free-mode input valuation, resolved once per exploration.
struct Candidate {
    /// The present inputs in name order, as evaluator ids (see
    /// [`Evaluator::signal_id`]) with their values.
    inputs: Vec<(u32, Value)>,
    /// The dispatch-oracle relations of the constrained inputs it makes
    /// present: it is pruned at an instant one of them excludes.
    relations: Vec<AffineRelation>,
    /// Its [`step_order_bytes`], the edge's canonical order.
    order: Vec<u8>,
}

/// The [`Expander`] of one flat process over free inputs: every
/// clock-calculus candidate, optionally filtered by the
/// dispatch-feasibility oracle.
struct ThreadExpander<'a> {
    verifier: &'a Verifier,
    candidates: &'a [Candidate],
}

/// Per-worker scratch: the evaluator clone (it shares the process; created
/// once per worker, never per level), the incremental key codec, and
/// reusable buffers so the per-successor path allocates nothing.
struct ThreadCtx {
    evaluator: Evaluator,
    codec: KeyCodec,
    monitors: Vec<u32>,
    succ_monitors: Vec<u32>,
    memory: Vec<Value>,
    considered: Vec<u32>,
}

impl ThreadExpander<'_> {
    /// Executes candidate `edge` out of the seeded parent: restore the
    /// parent memory, run the evaluator, step the monitors over the
    /// resolved instant, and report the successor. Returns whether the step
    /// executed.
    fn try_edge(
        &self,
        ctx: &mut ThreadCtx,
        depth: usize,
        edge: u32,
        sink: &mut Sink<'_>,
    ) -> Result<bool, VerifyError> {
        ctx.evaluator.restore_memory(ctx.codec.parent_memory())?;
        let inputs = &self.candidates[edge as usize].inputs;
        let Ok(resolved) = ctx.evaluator.step_ids(depth, inputs) else {
            sink.infeasible();
            return Ok(false);
        };
        sink.transition();
        // The updated registers are part of the successor state.
        let checks = sink.checks;
        checks.step(&ctx.monitors, &mut ctx.succ_monitors, &resolved, edge, sink);
        // The max_states cap is deliberately NOT checked here: enforcing it
        // mid-level would make the kept frontier depend on thread
        // interleaving. The level loop checks it between levels instead.
        ctx.evaluator.memory_into(&mut ctx.memory);
        sink.successor(&mut ctx.codec, &mut ctx.memory, 0, &ctx.succ_monitors, edge);
        Ok(true)
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
        ctx.codec
            .seed_key(key, sink.checks.initial().len(), &mut ctx.monitors);
        // Oracle pruning: skip candidates that make a signal present at an
        // instant its affine dispatch clock provably excludes. The silent
        // candidate has no present signals and is never pruned, so the
        // considered set is never empty.
        ctx.considered.clear();
        for (edge, candidate) in self.candidates.iter().enumerate() {
            if !candidate
                .relations
                .iter()
                .all(|relation| relation.contains(depth as u64))
            {
                sink.pruned();
                continue;
            }
            ctx.considered.push(edge as u32);
        }
        // Progress for the deadlock check: a feasible non-silent step — or,
        // for a closed process (whose only considered valuation is the
        // silent one), the silent step itself, since autonomous systems
        // advance on their own clock.
        let has_nonsilent = ctx
            .considered
            .iter()
            .any(|&e| !self.candidates[e as usize].inputs.is_empty());
        let mut progress = 0usize;
        for i in 0..ctx.considered.len() {
            let edge = ctx.considered[i];
            let silent = self.candidates[edge as usize].inputs.is_empty();
            if self.try_edge(ctx, depth, edge, sink)? && (!silent || !has_nonsilent) {
                progress += 1;
            }
        }
        if progress == 0 {
            if let Some(idx) = sink.checks.deadlock() {
                let considered = ctx.considered.len();
                sink.violation(idx, None, || {
                    format!("no feasible progress valuation among {considered} candidates")
                });
            }
        }
        Ok(())
    }

    fn edge_step(&self, _prev_key: &[u8], edge: u32) -> TraceStep {
        step_of(
            self.verifier.evaluator.signal_names(),
            &self.candidates[edge as usize].inputs,
        )
    }

    fn edge_order(&self, _prev_key: &[u8], edge: u32, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.candidates[edge as usize].order);
    }

    fn eval_work(&self, ctx: &ThreadCtx) -> EvalWork {
        ctx.evaluator.work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::step_order_bytes;
    use crate::random_process::Rng;
    use proptest::prelude::*;
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
        // parent), and it is pinned: an order key that is wrong the same way
        // on every worker count still fails. With the inputs declared
        // against name order the enumeration varies `Deadline` fastest, so
        // the first latching edge found is (Deadline, !Resume), and only
        // the encoded values make (!Deadline, Resume) win.
        for inputs in [["Deadline", "Resume"], ["Resume", "Deadline"]] {
            let mut b = ProcessBuilder::new("diamond");
            for input in inputs {
                b.input(input, ValueType::Boolean);
            }
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
            let Verdict::Violated(cex) = &reference.verdicts[0].verdict else {
                panic!("the alarm must be found: {}", reference.summary());
            };
            let step = |deadline: bool, resume: bool| {
                let mut step = TraceStep::new();
                step.set("Deadline", Value::Bool(deadline));
                step.set("Resume", Value::Bool(resume));
                step
            };
            let expected: Trace = [step(false, true), step(false, false)]
                .into_iter()
                .collect();
            assert_eq!(cex.inputs, expected, "{inputs:?}");
            assert_eq!(cex.violation_instant, 1);
            assert_eq!(cex.witness, "signal `Alarm` raised");
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
                &[
                    Property::NeverRaised("*Alarm*".into()),
                    counter_never_zero(),
                ],
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
                    counter_never_zero(),
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

    /// "The counter never reads zero": a property that observes `count`, so
    /// the slice keeps it in the state key and its space stays unbounded.
    fn counter_never_zero() -> Property {
        Property::parse_ltl("never (present(count) and not count)").unwrap()
    }

    /// `count := count$1 init 0 + 1` — the unbounded monotone counter whose
    /// unsliced space never closes.
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
    fn slice_closes_the_unbounded_counter_with_a_proof() {
        let process = unbounded_counter();
        let property = [Property::NeverRaised("*Alarm*".into())];
        // Unsliced: the space never closes; a bounded run passes.
        let reference = Verifier::new(&process, VerifyOptions::default().with_depth_bound(24))
            .unwrap()
            .verify_reference(&InputSpace::Free, &property)
            .unwrap();
        assert!(matches!(
            reference.verdicts[0].verdict,
            Verdict::PassedBounded { .. }
        ));
        // No property reads the counter, so the slice drops it and the
        // single remaining state closes with a proof.
        let sliced = Verifier::new(&process, VerifyOptions::default().with_depth_bound(24))
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
        assert!(sliced.all_proved(), "{}", sliced.summary());
        assert!(!sliced.stats.truncated);
        assert_eq!(sliced.stats.states, 1);
        assert_eq!(sliced.stats.sliced_slots, 1);
        assert!(sliced.summary().contains("slice: 1 slot(s)"));
        // Bit-identical across worker counts.
        for workers in [1usize, 2, 8] {
            let again = Verifier::new(
                &process,
                VerifyOptions::default()
                    .with_depth_bound(24)
                    .with_workers(workers),
            )
            .unwrap()
            .verify(&InputSpace::Free, &property)
            .unwrap();
            assert_eq!(sliced.verdicts, again.verdicts);
            assert_eq!(sliced.stats, again.stats, "workers={workers}");
        }
    }

    #[test]
    fn slice_closes_scheduled_unbounded_counters() {
        let process = unbounded_counter();
        let mut trace = Trace::new();
        for t in 0..3usize {
            trace.set(t, "tick", Value::Event);
        }
        let outcome = Verifier::new(&process, VerifyOptions::default())
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
    fn deadlock_free_requests_are_sliced() {
        // An unobservable counter cannot decide whether an instant
        // executes, so deadlock freedom does not switch the slice off: the
        // unbounded counter is dropped and the space closes.
        let process = unbounded_counter();
        let outcome = Verifier::new(&process, VerifyOptions::default())
            .unwrap()
            .verify(
                &InputSpace::Free,
                &[
                    Property::NeverRaised("*Alarm*".into()),
                    Property::DeadlockFree,
                ],
            )
            .unwrap();
        assert_eq!(outcome.stats.sliced_slots, 1);
        assert!(!outcome.stats.truncated);
        assert!(outcome.all_proved(), "{}", outcome.summary());
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
        let property = [
            Property::NeverRaised("*Alarm*".into()),
            counter_never_zero(),
        ];
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
        // The witness cites the evaluator's own error, with no component.
        let mut evaluator = Evaluator::new(&process).unwrap();
        evaluator.step(0, trace.step(0).unwrap()).unwrap();
        let error = evaluator.step(1, trace.step(1).unwrap()).unwrap_err();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let outcome = verifier
            .verify(&InputSpace::Scheduled(trace), &[Property::DeadlockFree])
            .unwrap();
        let (_, cex) = outcome.violations().next().expect("deadlock expected");
        assert_eq!(cex.violation_instant, 1);
        assert_eq!(
            cex.witness,
            format!("scheduled step not executable: {error}")
        );
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
        let error = Evaluator::new(&process)
            .unwrap()
            .step(0, trace.step(0).unwrap())
            .unwrap_err();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let err = verifier
            .verify(
                &InputSpace::Scheduled(trace),
                &[Property::NeverRaised("*Alarm*".into())],
            )
            .unwrap_err();
        // The detail is the bare evaluator error.
        assert_eq!(
            err,
            VerifyError::Evaluation {
                instant: 0,
                detail: error.to_string(),
            }
        );
    }

    #[test]
    fn a_fatal_scheduled_exploration_records_only_the_level_counters() {
        // The unbounded counter, plus a synchronous pair the schedule breaks
        // at instant 2.
        let mut b = ProcessBuilder::new("broken_counter");
        b.input("tick", ValueType::Event);
        b.input("a", ValueType::Event);
        b.input("b", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.output("y", ValueType::Event);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.define("y", Expr::var("a"));
        b.synchronize(&["count", "tick"]);
        b.synchronize(&["a", "b"]);
        let process = b.build().unwrap();
        let mut trace = Trace::new();
        for t in 0..3usize {
            trace.set(t, "tick", Value::Event);
        }
        trace.set(2, "a", Value::Event);
        let run = |properties: &[Property]| {
            let collector = polyobs::Collector::counters();
            let options = VerifyOptions::default().with_collector(collector.clone());
            let result = Verifier::new(&process, options)
                .unwrap()
                .verify(&InputSpace::Scheduled(trace.clone()), properties);
            (result, collector.counter_values())
        };
        let named = |counters: &[(&str, u64)]| -> Vec<(String, u64)> {
            counters.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        // With `DeadlockFree` the broken step is a violation and the run
        // completes: the slice annotation, the evaluator work and the
        // per-property monitor steps are recorded.
        let never_raised = Property::NeverRaised("*Alarm*".into());
        let (result, counters) = run(&[never_raised.clone(), Property::DeadlockFree]);
        assert_eq!(result.unwrap().stats.sliced_slots, 1);
        assert!(counters.iter().any(|(k, _)| k == "engine.sliced_slots"));
        // Without it the error is fatal at the barrier of level 2: only the
        // counters flushed at each level barrier are recorded.
        let (result, counters) = run(&[never_raised]);
        assert!(
            matches!(result, Err(VerifyError::Evaluation { instant: 2, .. })),
            "{result:?}"
        );
        assert_eq!(
            counters,
            named(&[
                ("engine.infeasible", 1),
                ("engine.levels", 3),
                ("engine.monitor_steps", 2),
                ("engine.pruned", 0),
                ("engine.states", 3),
                ("engine.transitions", 2),
            ])
        );
    }

    /// The free-candidate enumeration over named steps, as the explorer
    /// ran it before candidates were resolved to ids: the reference the id
    /// enumeration is held to.
    fn named_candidates(process: &Process) -> Result<(Vec<TraceStep>, bool), SignalError> {
        let calculus = ClockCalculus::analyze(process)?;
        let inputs: Vec<(&str, ValueType)> =
            process.inputs().map(|d| (d.name.as_str(), d.ty)).collect();
        let mut groups: BTreeMap<usize, Vec<(&str, ValueType)>> = BTreeMap::new();
        for (name, ty) in inputs {
            let class = calculus.class_of(name).map(|c| c.id).unwrap_or(usize::MAX);
            groups.entry(class).or_default().push((name, ty));
        }
        let group_list: Vec<(usize, Vec<(&str, ValueType)>)> = groups.into_iter().collect();
        let mut candidates = vec![TraceStep::new()];
        let mut truncated = false;
        if group_list.is_empty() {
            return Ok((candidates, false));
        }
        let g = group_list.len().min(16);
        if group_list.len() > g {
            truncated = true;
        }
        'masks: for mask in 1u32..(1u32 << g) {
            let present: Vec<usize> = (0..g).filter(|i| mask & (1 << i) != 0).collect();
            for (i, &a) in present.iter().enumerate() {
                for &b in &present[i + 1..] {
                    let (ca, cb) = (group_list[a].0, group_list[b].0);
                    let key = if ca < cb { (ca, cb) } else { (cb, ca) };
                    if calculus.exclusions().contains(&key) {
                        continue 'masks;
                    }
                }
            }
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
            let slots: Vec<(&str, Vec<Value>)> = present
                .iter()
                .flat_map(|&gi| group_list[gi].1.iter())
                .map(|&(name, ty)| (name, Verifier::domain_of(ty)))
                .collect();
            let mut indices = vec![0usize; slots.len()];
            loop {
                if candidates.len() >= MAX_BRANCHING {
                    truncated = true;
                    break 'masks;
                }
                let mut step = TraceStep::new();
                for (slot, &i) in slots.iter().zip(&indices) {
                    step.set(slot.0, slot.1[i].clone());
                }
                candidates.push(step);
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

    /// A process with 1–18 inputs of every type, declared against name
    /// order, with random synchronisation classes, exclusions and
    /// sub-clocks among them: enough independent classes to truncate the
    /// enumeration at its cap.
    fn random_inputs_process(seed: u64) -> Process {
        let mut rng = Rng(seed);
        let types = [
            ValueType::Boolean,
            ValueType::Integer,
            ValueType::Event,
            ValueType::Real,
            ValueType::Text,
        ];
        let mut b = ProcessBuilder::new("inputs");
        let count = 1 + rng.below(18);
        let names: Vec<String> = (0..count)
            .map(|i| format!("{}{i}", ["q", "a", "m", "z"][rng.below(4)]))
            .collect();
        for name in &names {
            b.input(name.as_str(), types[rng.below(types.len())]);
        }
        let pick = |rng: &mut Rng| names[rng.below(count)].as_str();
        for _ in 0..rng.below(count) {
            let pair = [pick(&mut rng), pick(&mut rng)];
            b.synchronize(&pair);
        }
        for _ in 0..rng.below(3) {
            let pair = [pick(&mut rng), pick(&mut rng)];
            b.exclude(&pair);
        }
        // `sub_j ::= a` with `sub_j ^= b`: the class of `a` is a sub-clock
        // of the class of `b`.
        for j in 0..rng.below(3) {
            let sub = format!("sub{j}");
            let (a, b_) = (pick(&mut rng), pick(&mut rng));
            b.local(sub.as_str(), ValueType::Boolean);
            b.define_partial(sub.as_str(), Expr::var(a));
            b.synchronize(&[sub.as_str(), b_]);
        }
        b.build_unchecked()
    }

    /// Enumerates the candidates of the random process of `seed` under a
    /// random oracle, by id and by name, and asserts that the id form
    /// materialises to the named enumeration, in order and with the same
    /// truncation flag, with entries in name order, the order bytes of
    /// the named step and the oracle relations of its present inputs.
    fn id_candidates_agree_with_names(seed: u64) {
        let process = random_inputs_process(seed);
        let mut rng = Rng(seed ^ 0x0AC1E);
        let mut oracle = DispatchFeasibility::new();
        for input in process.inputs() {
            if rng.chance(40) {
                let period = 1 + rng.below(4) as u64;
                let phase = rng.below(period as usize) as u64;
                oracle.insert(
                    input.name.clone(),
                    AffineRelation::new(period, phase).unwrap(),
                );
            }
        }
        let Ok(verifier) = Verifier::new(
            &process,
            VerifyOptions::default().with_oracle(oracle.clone()),
        ) else {
            return;
        };
        let (reference, materialised) =
            match (named_candidates(&process), verifier.free_candidates()) {
                (Ok(reference), Ok(materialised)) => (reference, materialised),
                (Err(_), Err(_)) => return,
                (reference, materialised) => {
                    panic!("one enumeration failed: {reference:?} against {materialised:?}")
                }
            };
        assert_eq!(materialised, reference);
        let (candidates, truncated) = verifier.candidates().unwrap();
        assert_eq!(truncated, reference.1);
        let names = verifier.evaluator.signal_names();
        assert_eq!(candidates.len(), reference.0.len());
        for (candidate, step) in candidates.iter().zip(&reference.0) {
            let entry_names: Vec<&str> = candidate
                .inputs
                .iter()
                .map(|(id, _)| names[*id as usize].as_str())
                .collect();
            assert!(
                entry_names.windows(2).all(|w| w[0] < w[1]),
                "{entry_names:?}"
            );
            let mut order = Vec::new();
            step_order_bytes(
                step.iter().map(|(name, value)| (name.as_str(), value)),
                &mut order,
            );
            assert_eq!(candidate.order, order);
            let relations: Vec<AffineRelation> = step
                .iter()
                .filter_map(|(name, _)| oracle.relation(name).copied())
                .collect();
            assert_eq!(candidate.relations, relations);
        }
    }

    proptest! {
        /// Differential oracle of the id enumeration: over random input
        /// clocks (classes, exclusions, sub-clocks, every value type) and
        /// random oracles, the candidates in id form materialise to the
        /// named enumeration in the same order, with the same truncation
        /// flag, and carry the named step's order bytes and oracle
        /// relations.
        #[test]
        fn id_candidates_materialise_like_the_named_enumeration(seed in any::<u64>()) {
            id_candidates_agree_with_names(seed);
        }
    }

    #[test]
    fn wide_enumerations_truncate_like_the_named_enumeration() {
        // Many independent boolean classes: the enumeration stops at its
        // cap in both forms at the same candidate.
        let mut b = ProcessBuilder::new("wide");
        for i in (0..10).rev() {
            b.input(format!("in{i}"), ValueType::Boolean);
        }
        let process = b.build_unchecked();
        let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
        let reference = named_candidates(&process).unwrap();
        assert!(reference.1);
        assert_eq!(reference.0.len(), MAX_BRANCHING);
        assert_eq!(verifier.free_candidates().unwrap(), reference);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let verifier = Verifier::new(&watcher(), VerifyOptions::default()).unwrap();
        assert_eq!(
            verifier.verify(&InputSpace::Free, &[]),
            Err(VerifyError::NoProperties)
        );
        assert_eq!(
            verifier.verify_reference(&InputSpace::Free, &[]),
            Err(VerifyError::NoProperties)
        );
        assert_eq!(
            verifier.verify(
                &InputSpace::Scheduled(Trace::new()),
                &[Property::DeadlockFree]
            ),
            Err(VerifyError::EmptySchedule)
        );
        // An empty property list is rejected before the schedule is read.
        assert_eq!(
            verifier.verify(&InputSpace::Scheduled(Trace::new()), &[]),
            Err(VerifyError::NoProperties)
        );
    }
}
