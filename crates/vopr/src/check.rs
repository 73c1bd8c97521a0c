//! One scenario end to end: pipeline, cross-check oracles, fault
//! injection.
//!
//! [`run_scenario`] is the single code path shared by the harness loop,
//! the shrinker's reproduction predicate and `--replay`, so a finding can
//! never depend on which of the three asked.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use polychrony_core::polysim::SimulationReport;
use polychrony_core::polysim::Simulator;
use polychrony_core::polyverify::ltl::first_violation;
use polychrony_core::polyverify::{
    inject_connection_latency, inject_counter_drift, inject_deadline_overrun,
    inject_dispatch_jitter, inject_dropped_delivery, inject_schedule_corruption, Counterexample,
    Formula, InputSpace, LockstepCoSim, LtlProperty, ProductSystem, ProductVerifier, Property,
    Verdict, VerificationOutcome, Verifier, VerifyOptions,
};
use polychrony_core::signal_moc::eval::Evaluator;
use polychrony_core::signal_moc::process::Process;
use polychrony_core::signal_moc::trace::{Trace, TraceStep};
use polychrony_core::{
    end_to_end_response_for, ArtifactCache, BatchJob, CacheOutcome, SimulateOptions, Simulated,
    VcdCapture, VCD_TIMESCALE_NS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::SystemSpec;
use crate::{FaultKind, FindingKind};

/// How a scenario resolved when no oracle disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioOutcome {
    /// Pipeline and every oracle passed (and, in fault mode, the injection
    /// had nothing to bite on — e.g. no deadline to miss).
    Passed,
    /// The pipeline rejected the generated system — consistently across
    /// cached and uncached runs (e.g. an unschedulable task set). A valid
    /// outcome, not a finding.
    Rejected {
        /// The pipeline's error message.
        error: String,
    },
    /// An injected fault was caught by verification, with a replayed
    /// counterexample.
    FaultDetected {
        /// The injected fault.
        fault: FaultKind,
        /// Name of the property that caught it.
        property: String,
        /// Violation instant of the counterexample.
        instant: usize,
    },
}

/// An oracle disagreement or panic — the raw material of a
/// [`Finding`](crate::Finding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The classification the shrinker preserves.
    pub kind: FindingKind,
    /// Human-readable detail from the failing oracle.
    pub detail: String,
}

fn fail(kind: FindingKind, detail: String) -> Failure {
    Failure { kind, detail }
}

/// Checks one scenario: builds the system, runs the cache oracle, the
/// monitor, lockstep, slice, evaluator and simulation oracles, and (in
/// fault mode) the injection stage.
/// Panics anywhere inside are caught and reported as
/// [`FindingKind::Panic`] findings. Deterministic in `(spec, seed,
/// fault)`.
pub fn run_scenario(
    spec: &SystemSpec,
    seed: u64,
    fault: Option<FaultKind>,
) -> Result<ScenarioOutcome, Failure> {
    match catch_unwind(AssertUnwindSafe(|| check_spec(spec, seed, fault))) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(fail(FindingKind::Panic, format!("panicked: {message}")))
        }
    }
}

fn check_spec(
    spec: &SystemSpec,
    seed: u64,
    fault: Option<FaultKind>,
) -> Result<ScenarioOutcome, Failure> {
    let job = spec.batch_job(seed);

    // Cache oracle: the uncached run, a cold cached run and a warm cached
    // run must agree — identical reports, or identical rejections.
    let direct = job.run();
    let cache = ArtifactCache::new();
    let cold = job.run_cached(&cache);
    let warm = job.run_cached(&cache);
    match (&direct, &cold, &warm) {
        (Err(d), Err(c), Err(w)) => {
            let (d, c, w) = (d.to_string(), c.to_string(), w.to_string());
            if d != c || d != w {
                return Err(fail(
                    FindingKind::CacheMismatch,
                    format!(
                        "rejection drifted: uncached {d:?}, cold cached {c:?}, warm cached {w:?}"
                    ),
                ));
            }
            return Ok(ScenarioOutcome::Rejected { error: d });
        }
        (Ok(direct), Ok((cold, cold_outcome)), Ok((warm, warm_outcome))) => {
            if *cold_outcome != CacheOutcome::Miss || *warm_outcome != CacheOutcome::SimulatedHit {
                return Err(fail(
                    FindingKind::CacheMismatch,
                    format!(
                        "cache outcomes were {cold_outcome} then {warm_outcome}, expected miss then simulated-hit"
                    ),
                ));
            }
            if direct != cold {
                return Err(fail(
                    FindingKind::CacheMismatch,
                    "cold cached report differs from the uncached report".into(),
                ));
            }
            if cold != warm {
                return Err(fail(
                    FindingKind::CacheMismatch,
                    "warm cached report differs from the cold cached report".into(),
                ));
            }
        }
        _ => {
            let side = |r: &Result<_, _>| if r.is_ok() { "accepts" } else { "rejects" };
            return Err(fail(
                FindingKind::CacheMismatch,
                format!(
                    "uncached run {} the system but cached runs {}/{} it",
                    side(&direct.as_ref().map(|_| ())),
                    side(&cold.as_ref().map(|_| ())),
                    side(&warm.as_ref().map(|_| ()))
                ),
            ));
        }
    }

    // The simulated artifact for the deeper oracles — a third lookup, which
    // must also hit.
    let (simulated, outcome) = cache
        .simulated_for(&job.source, &job.root, &job.options)
        .map_err(|e| {
            fail(
                FindingKind::CacheMismatch,
                format!("simulated artifact lookup failed after two successful runs: {e}"),
            )
        })?;
    if outcome != CacheOutcome::SimulatedHit {
        return Err(fail(
            FindingKind::CacheMismatch,
            format!("third lookup resolved as {outcome}, expected simulated-hit"),
        ));
    }

    // Monitor oracle: seeded random past-time LTL formulas, compiled
    // monitors versus reference trace semantics.
    monitor_oracle(&simulated, seed)?;

    // Lockstep oracle: every product verdict re-derived by brute-force
    // joint co-simulation.
    if !simulated.connections.is_empty() {
        lockstep_oracle(&simulated, spec.hyperperiods)?;
    }

    // Slice oracle: the target unit (and the product, when wired)
    // verified without slicing, then under the slice.
    slice_oracle(&simulated, seed)?;

    // Evaluator oracle: the change-driven evaluator against the reference
    // fixpoint on every thread unit.
    evaluator_oracle(&simulated)?;

    // Simulation oracle: the folded reports and waveform against every
    // thread unit re-run through the reference simulator.
    simulation_oracle(&simulated, &cache, &job, seed)?;

    match fault {
        None => Ok(ScenarioOutcome::Passed),
        Some(kind) => inject_and_check(kind, &simulated, spec, seed),
    }
}

/// Index of the thread unit a per-thread fault targets. Derived from the
/// seed modulo the *current* unit count, so the choice stays valid while
/// the shrinker drops threads.
fn target_unit(simulated: &Simulated, seed: u64) -> usize {
    (seed as usize) % simulated.thread_units.len().max(1)
}

fn monitor_oracle(simulated: &Simulated, seed: u64) -> Result<(), Failure> {
    let unit = &simulated.thread_units[target_unit(simulated, seed)];
    let inputs = unit.model.timing_trace(&simulated.schedule, 1);
    let resolved = Simulator::new(&unit.model.flat)
        .and_then(|mut simulator| simulator.run(&inputs))
        .map_err(|e| {
            fail(
                FindingKind::MonitorMismatch,
                format!("the simulator rejected the pipeline's own scheduled trace: {e}"),
            )
        })?;
    let steps: Vec<TraceStep> = resolved.iter().cloned().collect();
    let signals = resolved.signals();
    if signals.is_empty() || steps.is_empty() {
        return Ok(());
    }
    // A distinct stream from the generator's so formula draws cannot
    // correlate with topology draws.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
    for _ in 0..4 {
        let property = LtlProperty::always(random_formula(&mut rng, &signals, 3));
        let reference = first_violation(property.invariant(), &steps);
        let verifier = Verifier::new(
            &unit.model.flat,
            VerifyOptions::default()
                .with_workers(1)
                .with_depth_bound(inputs.len()),
        )
        .map_err(|e| {
            fail(
                FindingKind::MonitorMismatch,
                format!("verifier construction failed: {e}"),
            )
        })?;
        let outcome = verifier
            .verify(
                &InputSpace::Scheduled(inputs.clone()),
                &[Property::Ltl(property.clone())],
            )
            .map_err(|e| {
                fail(
                    FindingKind::MonitorMismatch,
                    format!(
                        "monitored verification of `{}` failed: {e}",
                        property.expr()
                    ),
                )
            })?;
        let verdict = &outcome.verdicts[0].verdict;
        let monitored = violation_instant(verdict);
        if monitored != reference {
            return Err(fail(
                FindingKind::MonitorMismatch,
                format!(
                    "`{}`: monitor automaton says {monitored:?}, reference trace semantics says {reference:?}",
                    property.expr()
                ),
            ));
        }
        if let Verdict::Violated(cex) = verdict {
            replay_in_simulator(cex, &unit.model.flat, property.expr())?;
        }
    }
    Ok(())
}

/// A seeded random past-time LTL formula over the scenario's signal pool.
fn random_formula(rng: &mut StdRng, signals: &[String], depth: usize) -> Formula {
    let pick = |rng: &mut StdRng| signals[rng.gen_range(0..signals.len())].clone();
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return match rng.gen_range(0..4u32) {
            0 => Formula::Const(rng.gen_bool(0.5)),
            1 => Formula::present(pick(rng)),
            2 => Formula::signal(pick(rng)),
            _ => Formula::raised(format!("*{}*", pick(rng))),
        };
    }
    match rng.gen_range(0..9u32) {
        0 => Formula::not(random_formula(rng, signals, depth - 1)),
        1 => Formula::and(
            random_formula(rng, signals, depth - 1),
            random_formula(rng, signals, depth - 1),
        ),
        2 => Formula::or(
            random_formula(rng, signals, depth - 1),
            random_formula(rng, signals, depth - 1),
        ),
        3 => Formula::implies(
            random_formula(rng, signals, depth - 1),
            random_formula(rng, signals, depth - 1),
        ),
        4 => Formula::previously(random_formula(rng, signals, depth - 1)),
        5 => Formula::once(random_formula(rng, signals, depth - 1)),
        6 => Formula::historically(random_formula(rng, signals, depth - 1)),
        7 => Formula::since(
            random_formula(rng, signals, depth - 1),
            random_formula(rng, signals, depth - 1),
        ),
        _ => Formula::within(
            random_formula(rng, signals, depth - 1),
            random_formula(rng, signals, depth - 1),
            rng.gen_range(1..4u32),
        ),
    }
}

fn violation_instant(verdict: &Verdict) -> Option<usize> {
    match verdict {
        Verdict::Violated(cex) => Some(cex.violation_instant),
        _ => None,
    }
}

fn replay_in_simulator(cex: &Counterexample, process: &Process, what: &str) -> Result<(), Failure> {
    match cex.replay(process) {
        Ok(replay) if replay.reproduced => Ok(()),
        Ok(replay) => Err(fail(
            FindingKind::ReplayFailed,
            format!(
                "counterexample of `{what}` did not reproduce: {}",
                replay.detail
            ),
        )),
        Err(e) => Err(fail(
            FindingKind::ReplayFailed,
            format!("counterexample of `{what}` failed to replay: {e}"),
        )),
    }
}

/// The verdict shapes the sliced and unsliced explorations must agree on:
/// the verdict kind and the instant of a violation — not state counts (the
/// slice merges states by design).
fn verdict_shapes(outcome: &VerificationOutcome) -> Vec<String> {
    outcome
        .verdicts
        .iter()
        .map(|pv| match &pv.verdict {
            Verdict::Proved => "proved".to_string(),
            Verdict::PassedBounded { depth } => format!("passed-bounded@{depth}"),
            Verdict::Violated(cex) => format!("violated@{}", cex.violation_instant),
        })
        .collect()
}

/// Demands that `outcome` agree with the unsliced `reference`
/// (`verify_reference`) verdict for verdict. The one allowed difference is
/// a strengthening: a `proved` where the reference is bounded. A missed or
/// displaced violation is a finding.
fn strengthens_reference(
    reference: &VerificationOutcome,
    outcome: &VerificationOutcome,
    what: &str,
) -> Result<(), Failure> {
    let (expected, found) = (verdict_shapes(reference), verdict_shapes(outcome));
    let agrees = expected.len() == found.len()
        && expected
            .iter()
            .zip(&found)
            .all(|(r, o)| r == o || (r.starts_with("passed-bounded") && o == "proved"));
    if agrees {
        Ok(())
    } else {
        Err(fail(
            FindingKind::SliceMismatch,
            format!("{what} says {found:?} where the unsliced engine says {expected:?}"),
        ))
    }
}

/// One worker under the depth bound `bound`: the options of every slice
/// oracle run.
fn oracle_options(bound: usize) -> VerifyOptions {
    VerifyOptions::default()
        .with_workers(1)
        .with_depth_bound(bound)
}

/// Verifies `process` on `inputs` without slicing, then with the default
/// slice, and demands that the slice strengthen the unsliced verdicts
/// only. Every counterexample must replay in the simulator: the slice must
/// never mask a property that reads a dropped slot.
fn slice_agreement(
    process: &Process,
    inputs: &Trace,
    properties: &[Property],
    context: &str,
) -> Result<(), Failure> {
    let space = InputSpace::Scheduled(inputs.clone());
    let verifier = Verifier::new(process, oracle_options(inputs.len())).map_err(|e| {
        fail(
            FindingKind::SliceMismatch,
            format!("verifier construction failed on {context}: {e}"),
        )
    })?;
    let verification_failed = |what: &str, e: &dyn std::fmt::Display| {
        fail(
            FindingKind::SliceMismatch,
            format!("{what} of {context} failed: {e}"),
        )
    };
    let reference = verifier
        .verify_reference(&space, properties)
        .map_err(|e| verification_failed("unsliced verification", &e))?;
    let sliced = verifier
        .verify(&space, properties)
        .map_err(|e| verification_failed("sliced verification", &e))?;
    strengthens_reference(&reference, &sliced, &format!("on {context} the slice"))?;
    for (property, cex) in sliced.violations() {
        replay_in_simulator(cex, process, &property.name())?;
    }
    Ok(())
}

/// Slice oracle: the target unit's scheduled behaviour verified without
/// slicing, then cross-checked against the slice; when the system has port
/// connections, the product of every unit cross-checked the same way.
fn slice_oracle(simulated: &Simulated, seed: u64) -> Result<(), Failure> {
    let unit = &simulated.thread_units[target_unit(simulated, seed)];
    let inputs = unit.model.timing_trace(&simulated.schedule, 1);
    if !inputs.is_empty() {
        let properties = [Property::NeverRaised("*Alarm*".into())];
        slice_agreement(
            &unit.model.flat,
            &inputs,
            &properties,
            "the scheduled thread",
        )?;
    }
    if simulated.connections.is_empty() {
        return Ok(());
    }
    product_slice_agreement(simulated)
}

/// The wired product of every unit, verified without slicing and with the
/// default slice: the slice may only strengthen the unsliced
/// verdicts, and its counterexamples must replay in the lockstep
/// co-simulation.
fn product_slice_agreement(simulated: &Simulated) -> Result<(), Failure> {
    let links = simulated.product_links();
    let properties = simulated.product_properties(&links).map_err(|e| {
        fail(
            FindingKind::SliceMismatch,
            format!("product properties failed to build: {e}"),
        )
    })?;
    let system = ProductSystem::new(simulated.product_components(), links).map_err(|e| {
        fail(
            FindingKind::SliceMismatch,
            format!("product assembly failed: {e}"),
        )
    })?;
    let bound = system.horizon();
    let verifier = ProductVerifier::new(system, oracle_options(bound)).map_err(|e| {
        fail(
            FindingKind::SliceMismatch,
            format!("product verifier construction failed: {e}"),
        )
    })?;
    let verification_failed = |what: &str, e: &dyn std::fmt::Display| {
        fail(
            FindingKind::SliceMismatch,
            format!("{what} of the product failed: {e}"),
        )
    };
    let reference = verifier
        .verify_reference(&properties)
        .map_err(|e| verification_failed("unsliced verification", &e))?;
    let sliced = verifier
        .verify(&properties)
        .map_err(|e| verification_failed("sliced verification", &e))?;
    strengthens_reference(&reference, &sliced, "on the product the slice")?;
    for (property, cex) in sliced.violations() {
        replay_in_lockstep(&verifier, cex, &property.name())?;
    }
    Ok(())
}

/// Reached memories from which the evaluator oracle tries every free
/// candidate: the initial one and two more along the scheduled trace.
const ORACLE_MEMORIES: usize = 3;

/// Evaluator oracle: each thread unit's scheduled trace, then every free
/// input candidate from a few memories that trace reaches, stepped through
/// `Evaluator::step` and `Evaluator::step_reference`. Any difference in
/// resolved step, memory after the step or error text is a finding.
fn evaluator_oracle(simulated: &Simulated) -> Result<(), Failure> {
    for unit in &simulated.thread_units {
        let process = &unit.model.flat;
        let mismatch = |detail: String| fail(FindingKind::EvaluatorMismatch, detail);
        let mut changed = Evaluator::new(process)
            .map_err(|e| mismatch(format!("evaluator construction failed: {e}")))?;
        let mut reference = changed.clone();
        let inputs = unit.model.timing_trace(&simulated.schedule, 1);
        let stride = inputs.len().div_ceil(ORACLE_MEMORIES).max(1);
        let mut reached = Vec::new();
        for (t, step) in inputs.iter().enumerate() {
            if t % stride == 0 {
                reached.push((t, changed.memory()));
            }
            step_both(&mut changed, &mut reference, t, step)
                .map_err(|d| mismatch(format!("{} at scheduled instant {t}: {d}", unit.path)))?;
        }
        let (candidates, _) = Verifier::new(process, VerifyOptions::default())
            .and_then(|verifier| verifier.free_candidates())
            .map_err(|e| mismatch(format!("free candidates of {} failed: {e}", unit.path)))?;
        for (t, memory) in &reached {
            for candidate in &candidates {
                for evaluator in [&mut changed, &mut reference] {
                    evaluator
                        .restore_memory(memory)
                        .map_err(|e| mismatch(format!("memory restore failed: {e}")))?;
                }
                step_both(&mut changed, &mut reference, *t, candidate).map_err(|d| {
                    mismatch(format!(
                        "{} on free candidate {candidate:?} at instant {t}: {d}",
                        unit.path
                    ))
                })?;
            }
        }
    }
    Ok(())
}

/// One instant through both evaluators; `Err` describes the first
/// difference.
fn step_both(
    changed: &mut Evaluator,
    reference: &mut Evaluator,
    instant: usize,
    input: &TraceStep,
) -> Result<(), String> {
    let fast = changed.step(instant, input).map_err(|e| e.to_string());
    let slow = reference
        .step_reference(instant, input)
        .map_err(|e| e.to_string());
    if differs(&fast, &slow) {
        return Err(format!("step gives {fast:?}, reference gives {slow:?}"));
    }
    let (fast, slow) = (changed.memory(), reference.memory());
    if differs(&fast, &slow) {
        return Err(format!("memory {fast:?}, reference memory {slow:?}"));
    }
    Ok(())
}

/// Inequality that equates NaNs, through the values' rendering.
fn differs<T: PartialEq + std::fmt::Debug>(a: &T, b: &T) -> bool {
    a != b && format!("{a:?}") != format!("{b:?}")
}

/// Simulation oracle: the scenario's simulated artifact, then the same
/// job re-simulated under seeded simulate options — one to three
/// hyper-periods, each VCD capture mode in turn — each checked against
/// every thread unit re-run through `Simulator`. The re-simulation goes
/// through the cache, which misses and runs the whole chain unless the
/// seeded options equal the scenario's.
fn simulation_oracle(
    simulated: &Simulated,
    cache: &ArtifactCache,
    job: &BatchJob,
    seed: u64,
) -> Result<(), Failure> {
    simulation_agreement(simulated, &job.options.simulate)?;
    let vcd = match seed % 3 {
        0 => VcdCapture::First,
        1 => {
            let unit = &simulated.thread_units[target_unit(simulated, seed)];
            VcdCapture::Thread(unit.model.thread_name.clone())
        }
        _ => VcdCapture::Off,
    };
    let mut options = job.options.clone();
    options.simulate = SimulateOptions {
        hyperperiods: 1 + (seed / 3) % 3,
        vcd,
    };
    let (resimulated, _) = cache
        .simulated_for(&job.source, &job.root, &options)
        .map_err(|e| {
            fail(
                FindingKind::SimulationMismatch,
                format!("re-simulation under {:?} failed: {e}", options.simulate),
            )
        })?;
    simulation_agreement(&resimulated, &options.simulate)
}

/// Every thread unit of `simulated` run through `Simulator` under
/// `options`: each report must equal the simulate phase's, and the
/// captured waveform its `vcd`.
fn simulation_agreement(simulated: &Simulated, options: &SimulateOptions) -> Result<(), Failure> {
    let mismatch = |detail: String| fail(FindingKind::SimulationMismatch, detail);
    let mut vcd = String::new();
    let mut vcd_thread = None;
    for unit in &simulated.thread_units {
        let inputs = unit
            .model
            .timing_trace(&simulated.schedule, options.hyperperiods);
        let mut simulator = Simulator::new(&unit.model.flat)
            .map_err(|e| mismatch(format!("simulator construction failed: {e}")))?;
        simulator.run(&inputs).map_err(|e| {
            mismatch(format!(
                "{} fails in the simulator ({e}) but passed the simulate phase",
                unit.path
            ))
        })?;
        let report = simulator.report();
        let folded = simulated.simulations.get(&unit.path);
        if folded != Some(&report) {
            return Err(mismatch(format!(
                "{} over {} hyper-period(s): {}",
                unit.path,
                options.hyperperiods,
                report_difference(folded, &report)
            )));
        }
        let capture = match &options.vcd {
            VcdCapture::Off => false,
            VcdCapture::First => vcd_thread.is_none(),
            VcdCapture::Thread(name) => unit.model.thread_name == *name,
        };
        if capture {
            vcd = simulator.to_vcd(&unit.model.thread_name, VCD_TIMESCALE_NS);
            vcd_thread = Some(unit.model.thread_name.clone());
        }
    }
    if simulated.vcd_thread != vcd_thread || simulated.vcd != vcd {
        let first_diff = simulated
            .vcd
            .lines()
            .zip(vcd.lines())
            .position(|(a, b)| a != b);
        return Err(mismatch(format!(
            "capture {:?} over {} hyper-period(s): simulate phase dumps {:?} ({} lines), \
             the simulator {vcd_thread:?} ({} lines), first differing line {first_diff:?}",
            options.vcd,
            options.hyperperiods,
            simulated.vcd_thread,
            simulated.vcd.lines().count(),
            vcd.lines().count()
        )));
    }
    Ok(())
}

/// What a simulate-phase report (if any) and the simulator's disagree on,
/// for finding details.
fn report_difference(folded: Option<&SimulationReport>, reference: &SimulationReport) -> String {
    let Some(folded) = folded else {
        return "the simulate phase has no report".into();
    };
    let names: BTreeSet<&String> = folded
        .profile
        .signals
        .keys()
        .chain(reference.profile.signals.keys())
        .collect();
    let differing: Vec<&String> = names
        .into_iter()
        .filter(|name| folded.profile.signal(name) != reference.profile.signal(name))
        .collect();
    format!(
        "simulate phase reports {} instant(s) and {} alarm instant(s), the simulator {} and {}; \
         signal profiles differ on {differing:?}",
        folded.instants, folded.alarm_instants, reference.instants, reference.alarm_instants
    )
}

fn lockstep_oracle(simulated: &Simulated, hyperperiods: u64) -> Result<(), Failure> {
    let verified = simulated.verify_product().map_err(|e| {
        fail(
            FindingKind::LockstepMismatch,
            format!("product verification failed on a pipeline-accepted system: {e}"),
        )
    })?;
    let system = verified.verifier.system();
    let ticks = system.horizon() * hyperperiods as usize;
    let mut cosim = LockstepCoSim::new(system).map_err(|e| {
        fail(
            FindingKind::LockstepMismatch,
            format!("lockstep co-simulation failed to assemble: {e}"),
        )
    })?;
    let (joint, failure) = cosim.run(ticks);
    let steps: Vec<TraceStep> = joint.iter().cloned().collect();
    for pv in &verified.outcome.verdicts {
        let reference = reference_violation(&pv.property, &steps, failure.as_ref().map(|f| f.tick));
        let monitored = violation_instant(&pv.verdict);
        if monitored != reference {
            return Err(fail(
                FindingKind::LockstepMismatch,
                format!(
                    "{}: product checker says {monitored:?}, lockstep co-simulation says {reference:?}",
                    pv.property.name()
                ),
            ));
        }
        if let Verdict::Violated(cex) = &pv.verdict {
            replay_in_lockstep(&verified.verifier, cex, &pv.property.name())?;
        }
    }
    Ok(())
}

/// A product counterexample of `what` must reproduce in the lockstep
/// co-simulation.
fn replay_in_lockstep(
    verifier: &ProductVerifier,
    cex: &Counterexample,
    what: &str,
) -> Result<(), Failure> {
    match verifier.replay(cex) {
        Ok(replay) if replay.reproduced => Ok(()),
        Ok(replay) => Err(fail(
            FindingKind::ReplayFailed,
            format!(
                "product counterexample of {what} did not reproduce: {}",
                replay.detail
            ),
        )),
        Err(e) => Err(fail(
            FindingKind::ReplayFailed,
            format!("product counterexample of {what} failed to replay: {e}"),
        )),
    }
}

/// Re-derives a property's earliest violation instant from the joint
/// lockstep trace, independently of the checker's compiled monitors.
fn reference_violation(
    property: &Property,
    steps: &[TraceStep],
    deadlock_tick: Option<usize>,
) -> Option<usize> {
    match property {
        Property::NeverRaised(pattern) => steps.iter().position(|step| {
            step.iter()
                .any(|(name, value)| pattern_matches(pattern, name) && value.as_bool())
        }),
        Property::DeadlockFree => deadlock_tick,
        Property::BoundedResponse { .. } | Property::EndToEndResponse { .. } => {
            let (trigger, response, bound) = property
                .monitor_spec()
                .expect("response properties expose a monitor spec");
            let mut register = u32::MAX;
            let mut expired = None;
            for (t, step) in steps.iter().enumerate() {
                let response_now = step.get(response).map(|v| v.as_bool()).unwrap_or(false);
                if register != u32::MAX {
                    if response_now {
                        register = u32::MAX;
                    } else {
                        register -= 1;
                        if register == 0 {
                            expired = Some(t);
                            break;
                        }
                    }
                }
                let trigger_now = step.get(trigger).map(|v| v.as_bool()).unwrap_or(false);
                if trigger_now && !response_now && register == u32::MAX {
                    if bound == 0 {
                        expired = Some(t);
                        break;
                    }
                    register = bound;
                }
            }
            expired
        }
        Property::Ltl(ltl) => first_violation(ltl.invariant(), steps),
    }
}

/// Local glob matcher mirroring the checker's `NeverRaised` patterns, so
/// the cross-validation does not reuse the checker's own matcher.
fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_prefix('*') {
        Some(rest) => match rest.strip_suffix('*') {
            Some(middle) => middle.is_empty() || name.contains(middle),
            None => name.ends_with(rest),
        },
        None => match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == pattern,
        },
    }
}

fn inject_and_check(
    kind: FaultKind,
    simulated: &Simulated,
    spec: &SystemSpec,
    seed: u64,
) -> Result<ScenarioOutcome, Failure> {
    match kind {
        FaultKind::DeadlineOverrun => {
            let unit = &simulated.thread_units[target_unit(simulated, seed)];
            let mut inputs = unit.model.timing_trace(&simulated.schedule, 1);
            if inject_deadline_overrun(&mut inputs, "").is_none() {
                return Ok(ScenarioOutcome::Passed);
            }
            let property = Property::NeverRaised("*Alarm*".into());
            expect_violation(kind, &unit.model.flat, inputs, property)
        }
        FaultKind::ConnectionLatency | FaultKind::DroppedDelivery => {
            let mut links = simulated.product_links();
            if links.is_empty() {
                return Ok(ScenarioOutcome::Passed);
            }
            let name = links[(seed as usize) % links.len()].name.clone();
            // The whole verification window: latency past it means no
            // delivery is ever wired, so the first emission's response
            // deadline is guaranteed to expire inside the window.
            let window = simulated.schedule.hyperperiod as usize * spec.hyperperiods as usize;
            let injected = match kind {
                FaultKind::ConnectionLatency => {
                    inject_connection_latency(&mut links, &name, window).is_some()
                }
                _ => inject_dropped_delivery(&mut links, &name, window).is_some(),
            };
            if !injected {
                return Ok(ScenarioOutcome::Passed);
            }
            let tampered = links
                .iter()
                .find(|link| link.name == name)
                .expect("the tampered link exists")
                .clone();
            let property = end_to_end_response_for(
                &tampered,
                &simulated.tasks,
                simulated.schedule.hyperperiod,
            );
            let verified = simulated.verify_product_with_links(links).map_err(|e| {
                fail(
                    FindingKind::FaultUndetected,
                    format!("product verification of the tampered links failed: {e}"),
                )
            })?;
            let pv = verified
                .outcome
                .verdicts
                .iter()
                .find(|pv| pv.property.name() == property.name())
                .ok_or_else(|| {
                    fail(
                        FindingKind::FaultUndetected,
                        format!("no verdict for {} on the tampered product", property.name()),
                    )
                })?;
            match &pv.verdict {
                Verdict::Violated(cex) => {
                    match verified.verifier.replay(cex) {
                        Ok(replay) if replay.reproduced => {}
                        Ok(replay) => {
                            return Err(fail(
                                FindingKind::ReplayFailed,
                                format!(
                                    "tampered-link counterexample did not reproduce: {}",
                                    replay.detail
                                ),
                            ))
                        }
                        Err(e) => {
                            return Err(fail(
                                FindingKind::ReplayFailed,
                                format!("tampered-link counterexample failed to replay: {e}"),
                            ))
                        }
                    }
                    Ok(ScenarioOutcome::FaultDetected {
                        fault: kind,
                        property: property.name(),
                        instant: cex.violation_instant,
                    })
                }
                _ => Err(fail(
                    FindingKind::FaultUndetected,
                    format!(
                        "{kind} on `{name}` (latency past the {window}-tick window) left {} unviolated",
                        property.name()
                    ),
                )),
            }
        }
        FaultKind::DispatchJitter | FaultKind::CorruptedSchedule => {
            let unit = &simulated.thread_units[target_unit(simulated, seed)];
            let mut inputs = unit.model.timing_trace(&simulated.schedule, 1);
            let injected = match kind {
                FaultKind::DispatchJitter => {
                    inject_dispatch_jitter(&mut inputs, "", 1 + (seed as usize) % 3).is_some()
                }
                _ => inject_schedule_corruption(&mut inputs, seed, 2).is_some(),
            };
            if !injected {
                return Ok(ScenarioOutcome::Passed);
            }
            // No detection guarantee for these faults — the tampered
            // schedule may still satisfy every property. The oracles are
            // agreement and replay: any violation must replay, and a pass
            // must agree with the simulator's view of the tampered trace.
            agreement_under_tampering(kind, &unit.model.flat, inputs)
        }
        FaultKind::CounterDrift => {
            let unit = &simulated.thread_units[target_unit(simulated, seed)];
            let mut process = unit.model.flat.clone();
            let Some(drifted) = inject_counter_drift(&mut process, seed, 1 + (seed % 3) as i64)
            else {
                return Ok(ScenarioOutcome::Passed);
            };
            let inputs = unit.model.timing_trace(&simulated.schedule, 1);
            // Two properties: the usual alarm check, and a probe that
            // *reads* the drifted signal (an integer signal is `true`-ish
            // when non-zero). The probe keeps the drifted slot concrete
            // under the slice — which may never mask a property that reads
            // the slot — and makes the drift detectable whenever the signal
            // becomes non-zero. The oracle is agreement of the slice with
            // the unsliced run on the drifted process; any violation must
            // still replay.
            let properties = [
                Property::NeverRaised("*Alarm*".into()),
                Property::Ltl(LtlProperty::never(Formula::signal(&drifted.signal))),
            ];
            let verifier = Verifier::new(
                &process,
                VerifyOptions::default()
                    .with_workers(1)
                    .with_depth_bound(inputs.len()),
            )
            .map_err(|e| {
                fail(
                    FindingKind::SliceMismatch,
                    format!("verifier construction failed on the drifted thread: {e}"),
                )
            })?;
            let concrete =
                match verifier.verify(&InputSpace::Scheduled(inputs.clone()), &properties) {
                    Ok(outcome) => outcome,
                    // A drifted process the engine rejects outright is a
                    // valid outcome, as long as it rejects deterministically.
                    Err(e) => {
                        return Ok(ScenarioOutcome::Rejected {
                            error: e.to_string(),
                        })
                    }
                };
            slice_agreement(&process, &inputs, &properties, "the drifted thread")?;
            let first = concrete
                .violations()
                .next()
                .map(|(property, cex)| (property.name(), cex.clone()));
            match first {
                Some((property, cex)) => {
                    replay_in_simulator(&cex, &process, &property)?;
                    Ok(ScenarioOutcome::FaultDetected {
                        fault: kind,
                        property,
                        instant: cex.violation_instant,
                    })
                }
                None => Ok(ScenarioOutcome::Passed),
            }
        }
    }
}

/// Verifies `inputs` against `property` expecting a violation that
/// replays; anything else is a [`FindingKind::FaultUndetected`] failure.
fn expect_violation(
    kind: FaultKind,
    process: &Process,
    inputs: Trace,
    property: Property,
) -> Result<ScenarioOutcome, Failure> {
    let verifier = Verifier::new(
        process,
        VerifyOptions::default()
            .with_workers(1)
            .with_depth_bound(inputs.len()),
    )
    .map_err(|e| {
        fail(
            FindingKind::FaultUndetected,
            format!("verifier construction failed on the tampered thread: {e}"),
        )
    })?;
    let outcome = verifier
        .verify(
            &InputSpace::Scheduled(inputs),
            std::slice::from_ref(&property),
        )
        .map_err(|e| {
            fail(
                FindingKind::FaultUndetected,
                format!("verification of the tampered schedule failed: {e}"),
            )
        })?;
    match &outcome.verdicts[0].verdict {
        Verdict::Violated(cex) => {
            replay_in_simulator(cex, process, &property.name())?;
            Ok(ScenarioOutcome::FaultDetected {
                fault: kind,
                property: property.name(),
                instant: cex.violation_instant,
            })
        }
        verdict => Err(fail(
            FindingKind::FaultUndetected,
            format!(
                "injected {kind} left {} unviolated ({})",
                property.name(),
                verdict.summary()
            ),
        )),
    }
}

/// The agreement oracle for faults without a detection guarantee: the
/// verifier and the simulator must tell the same story about the tampered
/// trace.
fn agreement_under_tampering(
    kind: FaultKind,
    process: &Process,
    inputs: Trace,
) -> Result<ScenarioOutcome, Failure> {
    let property = Property::NeverRaised("*Alarm*".into());
    let verifier = Verifier::new(
        process,
        VerifyOptions::default()
            .with_workers(1)
            .with_depth_bound(inputs.len()),
    )
    .map_err(|e| {
        fail(
            FindingKind::MonitorMismatch,
            format!("verifier construction failed on the tampered thread: {e}"),
        )
    })?;
    let outcome = match verifier.verify(
        &InputSpace::Scheduled(inputs.clone()),
        std::slice::from_ref(&property),
    ) {
        Ok(outcome) => outcome,
        // A tampered schedule the engine rejects outright is a valid
        // outcome, as long as it rejects deterministically (covered by
        // the replay determinism of the harness itself).
        Err(e) => {
            return Ok(ScenarioOutcome::Rejected {
                error: e.to_string(),
            })
        }
    };
    match &outcome.verdicts[0].verdict {
        Verdict::Violated(cex) => {
            replay_in_simulator(cex, process, &property.name())?;
            Ok(ScenarioOutcome::FaultDetected {
                fault: kind,
                property: property.name(),
                instant: cex.violation_instant,
            })
        }
        _ => {
            // The verifier saw no alarm: the simulator must agree if it
            // can execute the tampered trace at all.
            if let Ok(resolved) = Simulator::new(process).and_then(|mut s| s.run(&inputs)) {
                let alarm = resolved.iter().position(|step| {
                    step.iter()
                        .any(|(name, value)| name.contains("Alarm") && value.as_bool())
                });
                if let Some(t) = alarm {
                    return Err(fail(
                        FindingKind::MonitorMismatch,
                        format!(
                            "under {kind} the simulator raises an alarm at tick {t} the verifier missed"
                        ),
                    ));
                }
            }
            Ok(ScenarioOutcome::Passed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_glob_matcher_mirrors_never_raised_patterns() {
        assert!(pattern_matches("*Alarm*", "thProducer_Alarm_1"));
        assert!(pattern_matches("Alarm*", "Alarm_1"));
        assert!(pattern_matches("*Alarm", "th_Alarm"));
        assert!(pattern_matches("Alarm", "Alarm"));
        assert!(!pattern_matches("Alarm", "Alarms"));
        assert!(pattern_matches("**", "anything"));
    }

    #[test]
    fn a_panicking_scenario_is_a_panic_finding_not_an_abort() {
        // An empty spec makes `target_unit` index into no units — the
        // panic must be caught and classified.
        let spec = SystemSpec {
            threads: vec![],
            connections: vec![],
            workers: 1,
            hyperperiods: 1,
        };
        match run_scenario(&spec, 0, None) {
            // The pipeline may reject a threadless model before any
            // oracle runs; both are acceptable, aborting is not.
            Ok(ScenarioOutcome::Rejected { .. }) => {}
            Err(failure) => assert_eq!(failure.kind, FindingKind::Panic, "{}", failure.detail),
            other => panic!("unexpected outcome for an empty system: {other:?}"),
        }
    }

    #[test]
    fn a_wired_scenario_passes_every_oracle() {
        let spec = SystemSpec::generate(0xfeed, 3, Some(FaultKind::DroppedDelivery));
        // Fault-free check of a wired system exercises the lockstep path.
        let outcome = run_scenario(&spec, 0xfeed, None).expect("no finding");
        assert!(matches!(
            outcome,
            ScenarioOutcome::Passed | ScenarioOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn dropped_deliveries_are_detected_on_a_minimal_chain() {
        let spec = SystemSpec {
            threads: vec![
                crate::ThreadSpec {
                    period_ms: 8,
                    wcet_ms: 1,
                },
                crate::ThreadSpec {
                    period_ms: 8,
                    wcet_ms: 1,
                },
            ],
            connections: vec![crate::ConnectionSpec { from: 0, to: 1 }],
            workers: 1,
            hyperperiods: 2,
        };
        match run_scenario(&spec, 1, Some(FaultKind::DroppedDelivery)) {
            Ok(ScenarioOutcome::FaultDetected {
                fault, property, ..
            }) => {
                assert_eq!(fault, FaultKind::DroppedDelivery);
                assert!(property.contains("end-to-end-response"), "{property}");
            }
            other => panic!("expected a detected fault, got {other:?}"),
        }
    }

    #[test]
    fn a_drifted_simulation_is_a_simulation_mismatch() {
        let spec = SystemSpec {
            threads: vec![
                crate::ThreadSpec {
                    period_ms: 4,
                    wcet_ms: 1,
                },
                crate::ThreadSpec {
                    period_ms: 8,
                    wcet_ms: 1,
                },
            ],
            connections: vec![],
            workers: 1,
            hyperperiods: 1,
        };
        let job = spec.batch_job(3);
        let cache = ArtifactCache::new();
        let (simulated, _) = cache
            .simulated_for(&job.source, &job.root, &job.options)
            .unwrap();
        // Every seed residue: each capture mode, one to three hyper-periods.
        for seed in 0..9 {
            simulation_oracle(&simulated, &cache, &job, seed).expect("no finding");
        }

        let mut drifted = simulated.clone();
        let report = drifted.simulations.values_mut().next().unwrap();
        report.alarm_instants += 1;
        let failure = simulation_agreement(&drifted, &job.options.simulate).unwrap_err();
        assert_eq!(failure.kind, FindingKind::SimulationMismatch);
        assert!(
            failure.detail.contains("alarm instant"),
            "{}",
            failure.detail
        );

        let mut drifted = simulated;
        drifted.vcd.push_str("#0\n");
        let failure = simulation_agreement(&drifted, &job.options.simulate).unwrap_err();
        assert_eq!(failure.kind, FindingKind::SimulationMismatch);
        assert!(failure.detail.contains("capture Off"), "{}", failure.detail);
    }
}
