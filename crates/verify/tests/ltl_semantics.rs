//! Cross-validation of the compiled LTL monitors against the brute-force
//! reference semantics, plus the desugaring regression: the built-in
//! property shapes and their past-time LTL desugarings must yield
//! identical verdicts and counterexample depths — on random processes and
//! on the paper's case study.

use proptest::prelude::*;

use polyverify::ltl::{eval, first_violation, Formula, LtlProperty};
use polyverify::{InputSpace, LtlMonitor, Property, Verdict, Verifier, VerifyOptions};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::TraceStep;
use signal_moc::value::{Value, ValueType};

mod case_study;
use case_study::producer_under_schedule;

/// Deterministic splitmix64 stream used to derive random formulas and
/// traces from one proptest-drawn seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const SIGNALS: [&str; 3] = ["a", "b", "c"];

/// Draws a random formula of bounded depth over the three test signals,
/// covering every operator of the language.
fn random_formula(stream: &mut Stream, depth: u32) -> Formula {
    let leaf = depth == 0;
    let choice = if leaf {
        stream.below(4)
    } else {
        4 + stream.below(9)
    };
    let signal = |stream: &mut Stream| SIGNALS[stream.below(3) as usize].to_string();
    match choice {
        0 => Formula::Const(stream.below(2) == 0),
        1 => Formula::signal(signal(stream)),
        2 => Formula::present(signal(stream)),
        3 => Formula::raised(format!("*{}*", signal(stream))),
        4 => Formula::not(random_formula(stream, depth - 1)),
        5 => Formula::and(
            random_formula(stream, depth - 1),
            random_formula(stream, depth - 1),
        ),
        6 => Formula::or(
            random_formula(stream, depth - 1),
            random_formula(stream, depth - 1),
        ),
        7 => Formula::implies(
            random_formula(stream, depth - 1),
            random_formula(stream, depth - 1),
        ),
        8 => Formula::previously(random_formula(stream, depth - 1)),
        9 => Formula::once(random_formula(stream, depth - 1)),
        10 => Formula::historically(random_formula(stream, depth - 1)),
        11 => Formula::since(
            random_formula(stream, depth - 1),
            random_formula(stream, depth - 1),
        ),
        _ => Formula::within(
            random_formula(stream, depth - 1),
            random_formula(stream, depth - 1),
            stream.below(4) as u32,
        ),
    }
}

/// Draws a random trace: 1..=8 instants, each signal independently absent,
/// present-false or present-true.
fn random_trace(stream: &mut Stream) -> Vec<TraceStep> {
    let len = 1 + stream.below(8) as usize;
    (0..len)
        .map(|_| {
            let mut step = TraceStep::new();
            for name in SIGNALS {
                match stream.below(3) {
                    0 => {}
                    1 => {
                        step.set(name, Value::Bool(false));
                    }
                    _ => {
                        step.set(name, Value::Bool(true));
                    }
                }
            }
            step
        })
        .collect()
}

proptest! {
    /// The compiled monitor and the brute-force reference evaluator agree
    /// on the truth value of every random formula at every instant of
    /// every random trace.
    #[test]
    fn monitor_agrees_with_reference_semantics(seed in 0u64..u64::MAX, depth in 1u32..4) {
        let mut stream = Stream(seed);
        let formula = random_formula(&mut stream, depth);
        let trace = random_trace(&mut stream);
        let monitor = LtlMonitor::new(formula.clone());
        let mut registers = monitor.initial();
        for (t, step) in trace.iter().enumerate() {
            let stepped = monitor.step(&mut registers, step).holds;
            let reference = eval(&formula, &trace, t);
            prop_assert_eq!(
                stepped,
                reference,
                "formula `{}` disagrees at instant {} of {:?}",
                formula,
                t,
                trace
            );
        }
    }

    /// Rendering a random formula and re-parsing it yields the same tree,
    /// so counterexample reports and saved property lists round-trip.
    #[test]
    fn random_formulas_round_trip_through_the_parser(seed in 0u64..u64::MAX, depth in 1u32..4) {
        let mut stream = Stream(seed);
        let formula = random_formula(&mut stream, depth);
        let rendered = format!("always {formula}");
        let reparsed = LtlProperty::parse(&rendered)
            .unwrap_or_else(|e| panic!("`{rendered}`:\n{e}"));
        prop_assert_eq!(reparsed.invariant(), &formula, "{}", rendered);
    }

    /// The first violation found by stepping the monitor matches the
    /// reference `first_violation`, which is what counterexample depths
    /// are made of.
    #[test]
    fn first_violations_agree(seed in 0u64..u64::MAX) {
        let mut stream = Stream(seed);
        let formula = random_formula(&mut stream, 3);
        let trace = random_trace(&mut stream);
        let monitor = LtlMonitor::new(formula.clone());
        let mut registers = monitor.initial();
        let mut by_monitor = None;
        for (t, step) in trace.iter().enumerate() {
            if !monitor.step(&mut registers, step).holds {
                by_monitor = Some(t);
                break;
            }
        }
        prop_assert_eq!(by_monitor, first_violation(&formula, &trace));
    }
}

/// Deadline/Resume alarm watcher (same family as the explorer's unit
/// tests): finite state, so free exploration closes.
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

/// Verifies `process` twice — once with the built-in properties, once with
/// their LTL desugarings — and asserts identical verdict kinds, violation
/// depths, counterexample input traces and exploration stats.
fn assert_desugarings_match(process: &Process, space: &InputSpace, built_ins: &[Property]) {
    let desugared: Vec<Property> = built_ins
        .iter()
        .map(|p| {
            Property::Ltl(
                p.ltl()
                    .unwrap_or_else(|| panic!("{} has no desugaring", p.name())),
            )
        })
        .collect();
    let options = || VerifyOptions::default().with_depth_bound(24);
    let legacy = Verifier::new(process, options())
        .unwrap()
        .verify(space, built_ins)
        .unwrap();
    let modern = Verifier::new(process, options())
        .unwrap()
        .verify(space, &desugared)
        .unwrap();
    assert_eq!(legacy.stats, modern.stats, "exploration must be identical");
    for (a, b) in legacy.verdicts.iter().zip(&modern.verdicts) {
        match (&a.verdict, &b.verdict) {
            (Verdict::Violated(ca), Verdict::Violated(cb)) => {
                assert_eq!(
                    ca.violation_instant,
                    cb.violation_instant,
                    "{}",
                    a.property.name()
                );
                assert_eq!(ca.inputs, cb.inputs, "{}", a.property.name());
            }
            (va, vb) => assert_eq!(va, vb, "{}", a.property.name()),
        }
    }
}

#[test]
fn built_ins_and_desugarings_agree_on_the_watcher() {
    let process = watcher();
    assert_desugarings_match(
        &process,
        &InputSpace::Free,
        &[
            Property::NeverRaised("*Alarm*".into()),
            Property::BoundedResponse {
                trigger: "Deadline".into(),
                response: "Resume".into(),
                bound: 1,
            },
            Property::EndToEndResponse {
                from: "cLink_sent".into(),
                to: "cLink_consumed".into(),
                bound: 2,
            },
        ],
    );
}

/// Regression pinned by the issue: on the case study (healthy and with the
/// injected deadline overrun) the built-in properties and their LTL
/// desugarings produce identical verdicts and counterexample depth.
#[test]
fn built_ins_and_desugarings_agree_on_the_case_study() {
    for tampered in [false, true] {
        let (flat, mut inputs) = producer_under_schedule();
        if tampered {
            polyverify::inject_deadline_overrun(&mut inputs, "").expect("fault injected");
        }
        assert_desugarings_match(
            &flat,
            &InputSpace::Scheduled(inputs),
            &[
                Property::NeverRaised("*Alarm*".into()),
                Property::BoundedResponse {
                    trigger: "Deadline".into(),
                    response: "Resume".into(),
                    bound: 8,
                },
            ],
        );
    }
}

/// A user-written LTL property is violated with a counterexample that
/// replays in the simulator — the same independent-confirmation loop the
/// built-ins have.
#[test]
fn user_ltl_counterexamples_replay() {
    let process = watcher();
    let property = Property::parse_ltl("always (Alarm implies previously Deadline)").unwrap();
    let verifier = Verifier::new(&process, VerifyOptions::default()).unwrap();
    let outcome = verifier
        .verify(&InputSpace::Free, std::slice::from_ref(&property))
        .unwrap();
    let (_, cex) = outcome.violations().next().expect("violation expected");
    // Alarm can fire at the very first instant, where `previously
    // Deadline` is false by definition: minimal depth 0.
    assert_eq!(cex.violation_instant, 0);
    let replay = cex.replay(&process).unwrap();
    assert!(replay.reproduced, "{}", replay.detail);
}

/// Temporal registers enlarge the explored state exactly as declared, and
/// a stateless user property adds no state at all.
#[test]
fn register_footprint_matches_the_formula() {
    let process = watcher();
    let stateless = Property::parse_ltl("never raised(*Alarm*)").unwrap();
    let stateful = Property::parse_ltl("always (Deadline implies once Resume)").unwrap();
    assert_eq!(stateless.monitor().unwrap().register_count(), 0);
    assert_eq!(stateful.monitor().unwrap().register_count(), 1);

    let base = Verifier::new(&process, VerifyOptions::default())
        .unwrap()
        .verify(&InputSpace::Free, &[Property::DeadlockFree])
        .unwrap();
    let with_stateless = Verifier::new(&process, VerifyOptions::default())
        .unwrap()
        .verify(&InputSpace::Free, &[Property::DeadlockFree, stateless])
        .unwrap();
    assert_eq!(base.stats.states, with_stateless.stats.states);
}
