//! The shared exploration core: a depth-stratified parallel reachability
//! engine over interned states.
//!
//! Two thin [`Expander`] implementations run on this one engine: the
//! free-input enumeration of one process ([`crate::Verifier`] over
//! [`crate::InputSpace::Free`]) and the lockstep of scheduled components
//! ([`crate::ProductVerifier`], and a scheduled [`crate::Verifier`] as a
//! product of one). Each keeps only its edges, its failure rule and the
//! slots its monitors read; the engine owns everything that is *not* model
//! specific:
//!
//! * the exploration frame: the initial state, built from the initial
//!   memory and the [`Checks`]' initial registers and normalised to its
//!   [`Slice`] representative; the checks and the slice every expansion
//!   reads through its [`Sink`]; and the slice annotation on the stats and
//!   the counters;
//! * the seen-set, a [`StateInterner`] mapping canonical state encodings to
//!   dense `u32` ids — the frontier, the parent links and every merge
//!   structure speak ids, so no `State` struct and no key `Vec<u8>` is ever
//!   stored per explored state beyond the interner's arena;
//! * the level loop (depth bound, state cap, early stop once every property
//!   has a violation — all checked *between* levels so verdicts stay
//!   deterministic under any worker count);
//! * the frontier claim: the calling thread and one spawned thread per
//!   extra worker claim each level's states from one shared atomic cursor
//!   (nothing joins a level while it is expanded, so a cursor past its end
//!   means the level is drained);
//! * deterministic merging: same-depth discovery races are recorded as
//!   deferred ties and resolved at the level barrier by the canonical edge
//!   encoding ([`Expander::edge_order`]), violations by the length, edge
//!   encodings and witness of their paths, and fatal errors by the
//!   erroring state's key bytes — every comparison is over *key bytes*,
//!   never interner ids, because ids are allocation-ordered and therefore
//!   race-dependent.
//!
//! Counterexample paths are reconstructed on demand from the parent links:
//! each link stores only the predecessor id and the *edge index*; the
//! expander re-derives the concrete input step from the predecessor's key
//! ([`Expander::edge_step`]), so the engine never stores input steps
//! per state either. Only the winning counterexample of each property is
//! rebuilt; comparisons read the edges' order bytes.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

use signal_moc::eval::EvalWork;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::Value;

use crate::counterexample::Counterexample;
use crate::explore::{
    ExplorationStats, PropertyVerdict, Verdict, VerificationOutcome, VerifyError, VerifyOptions,
};
use crate::monitor::Checks;
use crate::slice::Slice;
use crate::state::{KeyCodec, State, StateInterner};

/// Sentinel predecessor id of the initial state.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Initial capacity (in states) of each exploration's interner. The arena
/// grows on demand, so this only sizes the first allocation.
const INTERNER_CAPACITY: usize = 4096;

/// Number of independently locked shards of each exploration's interner.
const INTERNER_SHARDS: usize = 16;

/// Parent link of an interned state: how it was first reached (subject to
/// the deterministic same-depth tie-break at the level barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParentLink {
    /// Interned id of the predecessor ([`NO_PARENT`] for the initial
    /// state).
    pub prev: u32,
    /// Index of the edge taken from the predecessor, in the expander's
    /// stable edge numbering (a free-mode candidate index, or 0 for the
    /// single lockstep step).
    pub edge: u32,
    /// Breadth-first level at which the state was discovered.
    pub depth: u32,
}

/// A violation observed while expanding one level, in raw (id-based) form;
/// the winning one per property is materialised into a
/// [`Counterexample`] at the barrier.
struct RawViolation {
    property: usize,
    parent: u32,
    /// The violating edge from `parent`; `None` for a dead end (the state
    /// itself has no feasible successor).
    edge: Option<u32>,
    witness: String,
}

/// One model-specific exploration step: how to expand a state and how to
/// re-derive the input step of a recorded edge.
pub(crate) trait Expander: Sync {
    /// Per-worker scratch (evaluators, codecs, buffers) reused across
    /// levels.
    type Ctx: Send;

    /// A fresh worker context.
    fn new_ctx(&self) -> Self::Ctx;

    /// Expands one state (given by its canonical key encoding) at `depth`,
    /// reporting successors, violations and counters through `sink`.
    ///
    /// # Errors
    ///
    /// A returned error is *fatal*: the engine aborts the run with the
    /// error of the smallest erroring state (by key bytes) once the level
    /// completes.
    fn expand(
        &self,
        ctx: &mut Self::Ctx,
        key: &[u8],
        depth: usize,
        sink: &mut Sink<'_>,
    ) -> Result<(), VerifyError>;

    /// The concrete input step of edge `edge` out of the state encoded by
    /// `prev_key`. Must be a pure function of `(prev_key, edge)` — it is
    /// re-invoked to rebuild each winning counterexample's inputs.
    fn edge_step(&self, prev_key: &[u8], edge: u32) -> TraceStep;

    /// Appends the canonical order bytes of edge `edge` out of the state
    /// encoded by `prev_key`: the [`step_order_bytes`] of
    /// [`Expander::edge_step`]. Same-depth ties and counterexample
    /// selection compare these bytes, so an expander that can encode the
    /// edge without rebuilding its step (the free candidates cache theirs)
    /// overrides this, and must append exactly the same bytes.
    fn edge_order(&self, prev_key: &[u8], edge: u32, out: &mut Vec<u8>) {
        let step = self.edge_step(prev_key, edge);
        step_order_bytes(step.iter().map(|(name, value)| (name.as_str(), value)), out);
    }

    /// The evaluator work a worker context has done since
    /// [`Expander::new_ctx`] created it, for the `engine.eval.*` counters.
    fn eval_work(&self, ctx: &Self::Ctx) -> EvalWork;
}

/// Where one worker reports what it saw while expanding its share of a
/// level, and reads what the exploration checks. All merging is deferred to
/// the level barrier.
pub(crate) struct Sink<'a> {
    /// The properties the exploration checks.
    pub checks: &'a Checks<'a>,
    /// The slice every successor is normalised to.
    slice: &'a Slice,
    interner: &'a StateInterner<ParentLink>,
    /// Per property: whether an earlier level found its counterexample.
    found: &'a [bool],
    /// Interned id of the state currently being expanded.
    parent: u32,
    /// Level of the state currently being expanded.
    depth: usize,
    next: Vec<u32>,
    ties: Vec<(u32, ParentLink)>,
    violations: Vec<RawViolation>,
    transitions: usize,
    infeasible: usize,
    pruned: usize,
    monitor_steps: usize,
    fatal: Option<(u32, VerifyError)>,
}

impl<'a> Sink<'a> {
    fn new(
        checks: &'a Checks<'a>,
        slice: &'a Slice,
        interner: &'a StateInterner<ParentLink>,
        found: &'a [bool],
    ) -> Self {
        Self {
            checks,
            slice,
            interner,
            found,
            parent: NO_PARENT,
            depth: 0,
            next: Vec::new(),
            ties: Vec::new(),
            violations: Vec::new(),
            transitions: 0,
            infeasible: 0,
            pruned: 0,
            monitor_steps: 0,
            fatal: None,
        }
    }

    /// Reports the successor reached over edge `edge`: normalises `memory`
    /// to its slice representative (states differing only in sliced slots
    /// collapse into one, so the fixpoint can close), encodes it with
    /// `phase` and `monitors` through `codec`, seeded with the state being
    /// expanded, and interns the encoding. A rediscovery at the same depth
    /// is recorded as a deferred tie and resolved deterministically at the
    /// barrier.
    pub fn successor(
        &mut self,
        codec: &mut KeyCodec,
        memory: &mut [Value],
        phase: u32,
        monitors: &[u32],
        edge: u32,
    ) {
        self.slice.normalize(memory);
        let (hash, key) = codec.successor(memory, phase, monitors);
        let link = ParentLink {
            prev: self.parent,
            edge,
            depth: self.depth as u32 + 1,
        };
        let (id, existing) = self.interner.intern(hash, key, || link);
        match existing {
            None => self.next.push(id),
            Some(incumbent) if incumbent.depth == link.depth => self.ties.push((id, link)),
            Some(_) => {}
        }
    }

    /// Reports a violation of property `property` observed on edge `edge`
    /// out of the current state (`None` for a dead end of the state
    /// itself). A property whose counterexample an earlier level found
    /// keeps it, so its later violations are dropped without rendering
    /// their witness.
    pub fn violation(
        &mut self,
        property: usize,
        edge: Option<u32>,
        witness: impl FnOnce() -> String,
    ) {
        if self.found[property] {
            return;
        }
        self.violations.push(RawViolation {
            property,
            parent: self.parent,
            edge,
            witness: witness(),
        });
    }

    /// Counts one executed transition.
    pub fn transition(&mut self) {
        self.transitions += 1;
    }

    /// Counts one input valuation rejected by the evaluator.
    pub fn infeasible(&mut self) {
        self.infeasible += 1;
    }

    /// Counts one candidate skipped by the dispatch-feasibility oracle.
    pub fn pruned(&mut self) {
        self.pruned += 1;
    }

    /// Counts one monitor-automaton step.
    pub fn monitor_step(&mut self) {
        self.monitor_steps += 1;
    }
}

/// Offers the fatal error of state `id` to `fatal`, which keeps the error
/// of the smallest erroring state (by key bytes), so the reported error
/// does not depend on scheduling. Workers record their own states' errors
/// through it, and the level barrier merges the workers' errors through it.
fn keep_smallest_fatal(
    interner: &StateInterner<ParentLink>,
    fatal: &mut Option<(u32, VerifyError)>,
    id: u32,
    error: VerifyError,
) {
    if let Some((incumbent, _)) = fatal {
        let mut key = Vec::new();
        let mut incumbent_key = Vec::new();
        interner.copy_key(id, &mut key);
        interner.copy_key(*incumbent, &mut incumbent_key);
        if key >= incumbent_key {
            return;
        }
    }
    *fatal = Some((id, error));
}

/// Runs the depth-stratified exploration under `slice` and `options`
/// from the state of `memory` at phase 0 with the initial registers of
/// `checks`, returning per-property verdicts and stats. `pre_truncated`
/// marks a search that is already known to be partial (e.g. a truncated
/// candidate enumeration or dropped link deliveries) before the first
/// level.
pub(crate) fn explore<E: Expander>(
    expander: &E,
    mut memory: Vec<Value>,
    checks: &Checks<'_>,
    slice: &Slice,
    options: &VerifyOptions,
    pre_truncated: bool,
) -> Result<VerificationOutcome, VerifyError> {
    let properties = checks.properties();
    slice.normalize(&mut memory);
    let initial = State {
        memory,
        phase: 0,
        monitors: checks.initial().to_vec(),
    };
    let interner: StateInterner<ParentLink> =
        StateInterner::new(INTERNER_SHARDS, INTERNER_CAPACITY);
    let initial_key = initial.key();
    let initial_hash = KeyCodec::new().seed_state(&initial);
    let (root, _) = interner.intern(initial_hash, initial_key.as_bytes(), || ParentLink {
        prev: NO_PARENT,
        edge: 0,
        depth: 0,
    });

    let mut frontier = vec![root];
    let mut depth = 0usize;
    let mut transitions = 0usize;
    let mut infeasible = 0usize;
    let mut pruned = 0usize;
    let mut monitor_steps = 0usize;
    let mut peak_frontier = 0usize;
    let mut truncated = pre_truncated;
    let mut workers_used = 1usize;

    // Telemetry. All collector traffic happens at level barriers (never in
    // the per-state path) and is observational only: nothing read from the
    // collector feeds back into the exploration, so collection mode cannot
    // perturb verdicts or stats.
    let obs = &options.collector;
    let obs_enabled = obs.is_enabled();
    let mut obs_span = obs.span("engine.explore");
    let c_states = obs.counter("engine.states");
    let c_transitions = obs.counter("engine.transitions");
    let c_infeasible = obs.counter("engine.infeasible");
    let c_pruned = obs.counter("engine.pruned");
    let c_monitor_steps = obs.counter("engine.monitor_steps");
    let c_levels = obs.counter("engine.levels");
    let g_frontier = obs.gauge("engine.frontier");
    let g_depth = obs.gauge("engine.depth");
    let g_interner_states = obs.gauge("engine.interner.states");
    let g_interner_bytes = obs.gauge("engine.interner.bytes");
    c_states.add(1); // the interned initial state
    let mut found: Vec<Option<Counterexample>> = vec![None; properties.len()];
    // Per-worker contexts persist across levels (an expander context clones
    // the evaluator, which deep-copies the process — that must never sit in
    // the per-level path) and grow lazily to the parallelism actually
    // exercised.
    let mut ctxs: Vec<E::Ctx> = Vec::new();

    loop {
        if frontier.is_empty() {
            break;
        }
        if found.iter().all(Option::is_some) {
            // Every property already has a (minimal-depth) violation: stop
            // early. The frontier is not empty, so the stats describe a
            // partial search, not an exhausted space.
            truncated = true;
            break;
        }
        if let Some(bound) = options.depth_bound {
            if depth >= bound {
                truncated = true;
                break;
            }
        }
        if interner.len() >= options.max_states {
            truncated = true;
            break;
        }
        peak_frontier = peak_frontier.max(frontier.len());

        let workers = options.workers.max(1).min(frontier.len());
        workers_used = workers_used.max(workers);
        while ctxs.len() < workers {
            let ctx = expander.new_ctx();
            debug_assert_eq!(expander.eval_work(&ctx), EvalWork::default());
            ctxs.push(ctx);
        }

        let found_before: Vec<bool> = found.iter().map(Option::is_some).collect();
        let mut sinks: Vec<Sink<'_>> = (0..workers)
            .map(|_| Sink::new(checks, slice, &interner, &found_before))
            .collect();
        // The calling thread expands inline next to one spawned thread per
        // extra worker; each claims the level's next state from the shared
        // cursor until the frontier is drained.
        let cursor = AtomicUsize::new(0);
        let mut shares = sinks.iter_mut().zip(ctxs.iter_mut());
        let (inline_sink, inline_ctx) = shares.next().expect("at least one worker");
        std::thread::scope(|scope| {
            for (sink, ctx) in shares {
                let (frontier, cursor) = (&frontier, &cursor);
                scope.spawn(move || run_worker(expander, ctx, sink, depth, frontier, cursor));
            }
            run_worker(expander, inline_ctx, inline_sink, depth, &frontier, &cursor);
        });

        // Barrier: merge worker results. A fatal error aborts before any
        // violation is resolved (an inexecutable scheduled step outranks
        // same-level violations, matching the sequential semantics).
        let mut next = Vec::new();
        let mut ties: Vec<(u32, ParentLink)> = Vec::new();
        let mut violations: Vec<RawViolation> = Vec::new();
        let mut fatal: Option<(u32, VerifyError)> = None;
        let mut level_transitions = 0usize;
        let mut level_infeasible = 0usize;
        let mut level_pruned = 0usize;
        let mut level_monitor_steps = 0usize;
        for sink in sinks {
            level_transitions += sink.transitions;
            level_infeasible += sink.infeasible;
            level_pruned += sink.pruned;
            level_monitor_steps += sink.monitor_steps;
            next.extend(sink.next);
            ties.extend(sink.ties);
            violations.extend(sink.violations);
            if let Some((id, error)) = sink.fatal {
                keep_smallest_fatal(&interner, &mut fatal, id, error);
            }
        }
        transitions += level_transitions;
        infeasible += level_infeasible;
        pruned += level_pruned;
        monitor_steps += level_monitor_steps;

        // Flush this level's deltas to the collector — once per barrier, so
        // the amortised hot-loop cost stays at ~one relaxed atomic per
        // state. The interner gauges lock each shard briefly, which is why
        // they too are read only here (and only when collecting).
        if obs_enabled {
            c_states.add(next.len() as u64);
            c_transitions.add(level_transitions as u64);
            c_infeasible.add(level_infeasible as u64);
            c_pruned.add(level_pruned as u64);
            c_monitor_steps.add(level_monitor_steps as u64);
            c_levels.add(1);
            g_depth.set(depth as u64 + 1);
            g_frontier.set(next.len() as u64);
            g_interner_states.set(interner.len() as u64);
            g_interner_bytes.set(interner.arena_bytes() as u64);
            if obs.is_full() {
                let mut attrs: Vec<(String, polyobs::AttrValue)> = vec![
                    ("depth".into(), depth.into()),
                    ("frontier".into(), frontier.len().into()),
                    ("next".into(), next.len().into()),
                    ("states".into(), interner.len().into()),
                    ("transitions".into(), transitions.into()),
                ];
                if let Some(bound) = options.depth_bound {
                    attrs.push(("bound".into(), bound.into()));
                }
                obs.event("engine.level", attrs);
            }
        }

        if let Some((_, error)) = fatal {
            return Err(error);
        }

        // Resolve same-depth discovery ties: for each contested state the
        // parent link with the smallest canonical edge encoding wins —
        // a pure function of key bytes, so the recorded exploration tree
        // is identical under any worker count and claim interleaving.
        ties.sort_unstable_by_key(|(id, _)| *id);
        let mut i = 0usize;
        while i < ties.len() {
            let id = ties[i].0;
            let mut best = interner.payload(id);
            let mut best_order = link_order(expander, &interner, &best);
            while i < ties.len() && ties[i].0 == id {
                let candidate = ties[i].1;
                let order = link_order(expander, &interner, &candidate);
                if order < best_order {
                    best = candidate;
                    best_order = order;
                }
                i += 1;
            }
            interner.set_payload(id, best);
        }

        // Resolve this level's violations deterministically: for each
        // property take the counterexample with the smallest key (length,
        // edge order bytes, witness); the first minimum wins. Each key is
        // computed once, and only the winner's inputs are rebuilt.
        for (idx, slot) in found.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let mut best: Option<(usize, Vec<u8>, usize)> = None;
            for (i, v) in violations.iter().enumerate() {
                if v.property != idx {
                    continue;
                }
                let mut bytes = Vec::new();
                let steps = path_order(expander, &interner, v.parent, v.edge, &mut bytes);
                let better = best.as_ref().is_none_or(|(b_steps, b_bytes, b)| {
                    (steps, &bytes, &v.witness) < (*b_steps, b_bytes, &violations[*b].witness)
                });
                if better {
                    best = Some((steps, bytes, i));
                }
            }
            if let Some((_, _, i)) = best {
                let v = &mut violations[i];
                let mut inputs = path_to(expander, &interner, v.parent);
                let violation_instant = inputs.len();
                if let Some(edge) = v.edge {
                    let mut prev_key = Vec::new();
                    interner.copy_key(v.parent, &mut prev_key);
                    inputs.push(expander.edge_step(&prev_key, edge));
                }
                *slot = Some(Counterexample {
                    property: properties[idx].clone(),
                    inputs,
                    violation_instant,
                    witness: std::mem::take(&mut v.witness),
                });
            }
        }

        depth += 1;
        frontier = next;
    }

    if obs_enabled {
        // Each state is expanded exactly once and an instant's work depends
        // only on its memory and input, so the sum over the worker contexts
        // does not depend on the worker count.
        let work = ctxs.iter().fold(EvalWork::default(), |sum, ctx| {
            sum + expander.eval_work(ctx)
        });
        obs.counter("engine.eval.instants").add(work.instants);
        obs.counter("engine.eval.passes").add(work.passes);
        obs.counter("engine.eval.equations").add(work.equations);
        // Every monitored property steps once per executed instant, so the
        // total splits evenly across them.
        if monitor_steps > 0 {
            let per_property = (monitor_steps / checks.monitored().count()) as u64;
            for property in checks.monitored() {
                obs.counter(&format!("engine.monitor_steps.{}", property.name()))
                    .add(per_property);
            }
        }
        if !slice.is_empty() {
            obs.counter("engine.sliced_slots").add(slice.len() as u64);
        }
        obs_span.attr("states", interner.len());
        obs_span.attr("transitions", transitions);
        obs_span.attr("depth", depth);
        obs_span.attr("truncated", truncated);
    }
    drop(obs_span);

    let stats = ExplorationStats {
        states: interner.len(),
        transitions,
        infeasible,
        depth,
        workers: workers_used,
        truncated,
        peak_frontier,
        pruned,
        memo_hits: 0,
        memo_misses: 0,
        sliced_slots: slice.len(),
    };
    // A pre-truncated search whose frontier emptied saw every state of its
    // partial model, so its bounded claim holds up to the depth bound it was
    // given, not only to the depth at which it closed.
    let bounded_depth = match options.depth_bound {
        Some(bound) if frontier.is_empty() => bound,
        _ => depth,
    };
    let verdicts = properties
        .iter()
        .zip(found)
        .map(|(property, cex)| PropertyVerdict {
            property: property.clone(),
            verdict: match cex {
                Some(cex) => Verdict::Violated(cex),
                None if truncated => Verdict::PassedBounded {
                    depth: bounded_depth,
                },
                None => Verdict::Proved,
            },
        })
        .collect();
    Ok(VerificationOutcome { verdicts, stats })
}

/// Claims states of `frontier` through `cursor` until it is drained and
/// expands each through the expander, recording a fatal error (without
/// stopping: results are discarded on abort anyway, and continuing keeps
/// every mode's counters comparable) when an expansion fails. The cursor
/// publishes no data: the frontier is written before the level's scope
/// spawns its workers and each sink is read after the scope joins them, so
/// a relaxed increment is enough to hand each state to exactly one worker.
fn run_worker<E: Expander>(
    expander: &E,
    ctx: &mut E::Ctx,
    sink: &mut Sink<'_>,
    depth: usize,
    frontier: &[u32],
    cursor: &AtomicUsize,
) {
    let mut key_buf = Vec::new();
    while let Some(&id) = frontier.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        sink.parent = id;
        sink.depth = depth;
        sink.interner.copy_key(id, &mut key_buf);
        if let Err(error) = expander.expand(ctx, &key_buf, depth, sink) {
            keep_smallest_fatal(sink.interner, &mut sink.fatal, id, error);
        }
    }
}

/// Canonical encoding of a parent link's edge `(prev, input)` for the
/// same-depth tie-break (the initial state has no link to encode and is
/// never contested).
fn link_order<E: Expander>(
    expander: &E,
    interner: &StateInterner<ParentLink>,
    link: &ParentLink,
) -> Vec<u8> {
    let mut out = Vec::new();
    if link.prev == NO_PARENT {
        // The initial state's link is never contested (a rediscovery of the
        // root has depth 0, never the tie depth), but stay total.
        out.push(0xFF);
        return out;
    }
    let mut prev_key = Vec::new();
    interner.copy_key(link.prev, &mut prev_key);
    out.extend_from_slice(&prev_key);
    out.push(0xFF);
    expander.edge_order(&prev_key, link.edge, &mut out);
    out
}

/// The edges `(prev, edge)` from the initial state to `id`, in path order.
fn links_to(interner: &StateInterner<ParentLink>, id: u32) -> Vec<(u32, u32)> {
    let mut links = Vec::new();
    let mut cursor = id;
    loop {
        let link = interner.payload(cursor);
        if link.prev == NO_PARENT {
            break;
        }
        links.push((link.prev, link.edge));
        cursor = link.prev;
    }
    links.reverse();
    links
}

/// Appends the order bytes of every edge from the initial state to `id`,
/// then of `edge` out of `id` when given, and returns the number of edges:
/// the ordering key of a counterexample's inputs.
fn path_order<E: Expander>(
    expander: &E,
    interner: &StateInterner<ParentLink>,
    id: u32,
    edge: Option<u32>,
    out: &mut Vec<u8>,
) -> usize {
    let mut links = links_to(interner, id);
    links.extend(edge.map(|edge| (id, edge)));
    let mut prev_key = Vec::new();
    for &(prev, edge) in &links {
        interner.copy_key(prev, &mut prev_key);
        expander.edge_order(&prev_key, edge, out);
    }
    links.len()
}

/// Reconstructs the input trace from the initial state to `id` by walking
/// the parent links and re-deriving each edge's input step.
fn path_to<E: Expander>(expander: &E, interner: &StateInterner<ParentLink>, id: u32) -> Trace {
    let mut prev_key = Vec::new();
    links_to(interner, id)
        .into_iter()
        .map(|(prev, edge)| {
            interner.copy_key(prev, &mut prev_key);
            expander.edge_step(&prev_key, edge)
        })
        .collect()
}

/// Canonical byte encoding of one input step, given as its `(name, value)`
/// entries in name order, used for deterministic ordering of exploration
/// edges and counterexamples: each entry's [`entry_order_bytes`], then
/// [`STEP_END`].
pub(crate) fn step_order_bytes<'a>(
    entries: impl IntoIterator<Item = (&'a str, &'a Value)>,
    out: &mut Vec<u8>,
) {
    for (name, value) in entries {
        entry_order_bytes(name, value, out);
    }
    out.push(STEP_END);
}

/// The [`step_order_bytes`] of one `(name, value)` entry: the name, then
/// the rendered value. The free candidates cache it per input value.
pub(crate) fn entry_order_bytes(name: &str, value: &Value, out: &mut Vec<u8>) {
    out.extend_from_slice(name.as_bytes());
    out.push(0);
    write!(out, "{value}").expect("writing to a Vec cannot fail");
    out.push(1);
}

/// The last byte of every [`step_order_bytes`].
pub(crate) const STEP_END: u8 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_order_bytes_encode_every_name_and_rendered_value() {
        let mut out = Vec::new();
        let entries = [
            ("Deadline", Value::Bool(false)),
            ("n", Value::Int(-3)),
            ("tick", Value::Event),
        ];
        step_order_bytes(entries.iter().map(|(n, v)| (*n, v)), &mut out);
        assert_eq!(out, b"Deadline\0false\x01n\0-3\x01tick\0!\x01\x02");
        // The silent step still terminates its encoding.
        out.clear();
        step_order_bytes([], &mut out);
        assert_eq!(out, [2]);
    }

    #[test]
    fn fatal_errors_keep_the_smallest_erroring_state_in_any_order() {
        let interner: StateInterner<ParentLink> =
            StateInterner::new(INTERNER_SHARDS, INTERNER_CAPACITY);
        let link = || ParentLink {
            prev: NO_PARENT,
            edge: 0,
            depth: 0,
        };
        let (small, _) = interner.intern(1, b"a", link);
        let (large, _) = interner.intern(2, b"b", link);
        let error = |id: u32| VerifyError::Evaluation {
            instant: 0,
            detail: format!("state {id}"),
        };
        for offered in [[large, small], [small, large]] {
            let mut fatal = None;
            for id in offered {
                keep_smallest_fatal(&interner, &mut fatal, id, error(id));
            }
            assert_eq!(fatal, Some((small, error(small))));
        }
    }
}
