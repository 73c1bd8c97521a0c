//! Cross-validation of the model checker against the simulator, plus the
//! injected-deadline regression on the paper's case study.
//!
//! The two validation paths of the tool chain — exhaustive state-space
//! exploration (`polyverify`) and bounded co-simulation (`polysim`) — must
//! agree: a property violated by the checker must be reproducible by
//! simulation of the counterexample, and a process on which brute-force
//! simulation over *all* input sequences finds no alarm must verify clean.

use proptest::prelude::*;

use polysim::Simulator;
use polyverify::{inject_deadline_overrun, InputSpace, Property, Verdict, Verifier, VerifyOptions};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::{Value, ValueType};

mod case_study;
use case_study::producer_under_schedule;

/// A small family of deadline-miss counters: `misses` counts instants where
/// `d` (deadline) fires without `r` (resume), resets when `r` fires, and the
/// alarm is raised when `misses` reaches `threshold`.
fn miss_counter(threshold: i64) -> Process {
    let mut b = ProcessBuilder::new("miss_counter");
    b.input("d", ValueType::Boolean);
    b.input("r", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("misses", ValueType::Integer);
    let prev = || Expr::delay(Expr::var("misses"), Value::Int(0));
    b.define(
        "misses",
        Expr::default(
            Expr::when(
                Expr::add(prev(), Expr::int(1)),
                Expr::and(Expr::var("d"), Expr::not(Expr::var("r"))),
            ),
            Expr::default(Expr::when(Expr::int(0), Expr::var("r")), prev()),
        ),
    );
    b.define("Alarm", Expr::ge(Expr::var("misses"), Expr::int(threshold)));
    b.synchronize(&["d", "r", "misses", "Alarm"]);
    b.build().unwrap()
}

fn step(d: bool, r: bool) -> TraceStep {
    let mut s = TraceStep::new();
    s.set("d", Value::Bool(d));
    s.set("r", Value::Bool(r));
    s
}

/// Brute force: earliest instant at which any alarm fires, over every input
/// sequence of length `horizon`, by repeated simulation (exercising
/// `Simulator::reset` between runs).
fn earliest_alarm_by_simulation(process: &Process, horizon: usize) -> Option<usize> {
    let mut simulator = Simulator::new(process).unwrap();
    let mut earliest: Option<usize> = None;
    for combo in 0u32..(1 << (2 * horizon)) {
        let inputs: Trace = (0..horizon)
            .map(|t| {
                let bits = (combo >> (2 * t)) & 0b11;
                step(bits & 1 != 0, bits & 2 != 0)
            })
            .collect();
        simulator.reset();
        simulator.run(&inputs).unwrap();
        let alarm_at = simulator.history().iter().position(|s| {
            s.iter()
                .any(|(name, value)| name.contains("Alarm") && value.as_bool())
        });
        earliest = match (earliest, alarm_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    earliest
}

proptest! {
    /// The model checker and the simulator agree on alarm reachability (and
    /// on the minimal violation depth) for randomly drawn processes.
    #[test]
    fn checker_and_simulator_agree_on_alarm_reachability(
        threshold in 1i64..5,
        horizon in 2usize..4,
    ) {
        let process = miss_counter(threshold);
        let verifier = Verifier::new(
            &process,
            VerifyOptions::default().with_depth_bound(horizon),
        )
        .unwrap();
        let outcome = verifier
            .verify(&InputSpace::Free, &[Property::NeverRaised("*Alarm*".into())])
            .unwrap();
        let checker_earliest = outcome
            .violations()
            .next()
            .map(|(_, cex)| cex.violation_instant);
        let simulator_earliest = earliest_alarm_by_simulation(&process, horizon);
        prop_assert_eq!(
            checker_earliest,
            simulator_earliest,
            "threshold {} horizon {}: checker says {:?}, simulation says {:?}",
            threshold,
            horizon,
            checker_earliest,
            simulator_earliest
        );
        // Every counterexample must replay in the simulator.
        let first_violation = outcome.violations().next().map(|(_, cex)| cex.clone());
        if let Some(cex) = first_violation {
            let replay = cex.replay(&process).unwrap();
            prop_assert!(replay.reproduced, "{}", replay.detail);
        }
    }

    /// The parallel engine returns the same verdicts as the sequential one.
    #[test]
    fn parallel_engine_matches_sequential(threshold in 1i64..4) {
        let process = miss_counter(threshold);
        let properties = [
            Property::NeverRaised("*Alarm*".into()),
            Property::DeadlockFree,
        ];
        let sequential = Verifier::new(
            &process,
            VerifyOptions::default().with_workers(1).with_depth_bound(4),
        )
        .unwrap()
        .verify(&InputSpace::Free, &properties)
        .unwrap();
        let parallel = Verifier::new(
            &process,
            VerifyOptions::default().with_workers(3).with_depth_bound(4),
        )
        .unwrap()
        .verify(&InputSpace::Free, &properties)
        .unwrap();
        prop_assert_eq!(&sequential.verdicts, &parallel.verdicts);
        prop_assert_eq!(sequential.stats.states, parallel.stats.states);
        prop_assert_eq!(sequential.stats.transitions, parallel.stats.transitions);
    }
}

/// Regression: the untampered case-study schedule verifies alarm-free over
/// the full 24-tick hyper-period.
#[test]
fn case_study_producer_is_alarm_free_under_the_schedule() {
    let (flat, inputs) = producer_under_schedule();
    let bound = inputs.len();
    assert_eq!(bound, 24);
    let verifier = Verifier::new(&flat, VerifyOptions::default().with_depth_bound(bound)).unwrap();
    let outcome = verifier
        .verify(
            &InputSpace::Scheduled(inputs),
            &[
                Property::NeverRaised("*Alarm*".into()),
                Property::DeadlockFree,
            ],
        )
        .unwrap();
    assert!(outcome.is_violation_free(), "{}", outcome.summary());
    assert_eq!(outcome.stats.depth, 24);
}

/// Regression: an injected deadline overrun in the producer schedule yields
/// a counterexample whose replay in the simulator reproduces the alarm.
/// (This deliberately re-implements the recipe behind
/// `polychrony_core::deadline_overrun_demo` instead of calling it — the
/// regression must not depend on the convenience wrapper it guards.)
#[test]
fn injected_deadline_bug_yields_replayable_counterexample() {
    let (flat, mut inputs) = producer_under_schedule();
    let fault = inject_deadline_overrun(&mut inputs, "").expect("fault injected");
    assert!(fault.deadline_tick > fault.resume_moved_from);

    let bound = inputs.len();
    let verifier = Verifier::new(&flat, VerifyOptions::default().with_depth_bound(bound)).unwrap();
    let outcome = verifier
        .verify(
            &InputSpace::Scheduled(inputs.clone()),
            &[Property::NeverRaised("*Alarm*".into())],
        )
        .unwrap();
    let Verdict::Violated(cex) = &outcome.verdicts[0].verdict else {
        panic!("injected bug not found: {}", outcome.summary());
    };
    assert_eq!(
        cex.violation_instant, fault.deadline_tick,
        "the alarm fires exactly at the missed deadline"
    );

    // The counterexample replays in the simulator and reproduces the alarm.
    let replay = cex.replay(&flat).unwrap();
    assert!(replay.reproduced, "{}", replay.detail);

    // Independent confirmation: simulating the tampered schedule directly
    // also counts at least one alarm instant.
    let mut simulator = Simulator::new(&flat).unwrap();
    simulator.run(&inputs).unwrap();
    let report = simulator.report();
    assert!(report.alarm_instants > 0);

    // The same engine with 2 workers returns the same verdict.
    let parallel = Verifier::new(
        &flat,
        VerifyOptions::default()
            .with_workers(2)
            .with_depth_bound(bound),
    )
    .unwrap()
    .verify(
        &InputSpace::Scheduled(inputs),
        &[Property::NeverRaised("*Alarm*".into())],
    )
    .unwrap();
    assert_eq!(outcome.verdicts, parallel.verdicts);
}
