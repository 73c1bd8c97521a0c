//! Differential oracle of the cone-of-influence slice: the default
//! explorations (`Verifier::verify`, `ProductVerifier::verify`) against
//! their unsliced references (`verify_reference`), on random free and
//! scheduled processes and 2–3-component products whose counter feeds
//! nothing, a `when`, a divisor, a property atom, a `cell` trigger, a
//! clock expression, a pair of partial definitions or a port link.
//!
//! * where the reference closes, the verdicts are identical;
//! * where the reference is bounded, the sliced verdict is the same or
//!   `proved`, and a sliced `proved` shows no violation in an independent
//!   run to 4× the reference bound;
//! * scheduled and product counterexamples are identical — instant,
//!   inputs and witness, deadlock witnesses included; free-mode
//!   counterexamples violate at the same instant and replay;
//! * the slice never explores more states than the reference, and drops
//!   exactly the unobservable counters;
//! * a product that drops a delivery and closes below its depth bound
//!   once its counters are sliced still names that bound, like the
//!   reference.

use proptest::prelude::*;

use polysim::Simulator;
use polyverify::{
    InputSpace, LockstepCoSim, PortLink, ProductComponent, ProductSystem, ProductVerifier,
    Property, Verdict, VerificationOutcome, Verifier, VerifyOptions,
};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::{BinOp, Expr};
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::{Value, ValueType};

/// What the counter `c` of a generated process feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Nothing: the slice must drop it.
    Invisible,
    /// A `when` condition whose output is synchronised with the clock:
    /// the instant fails once `c ≥ k`.
    When,
    /// A divisor: `c / (c - k)` fails when `c = k`.
    Divisor,
    /// A property atom: `never cbig` with `cbig := c ≥ k`.
    Atom,
    /// A `cell` trigger: `g := cell(clock when false, c < k, false)`,
    /// synchronised with the clock: the instant fails once `c ≥ k`.
    Cell,
    /// A clock expression: `g := when (c < k)`, synchronised with the
    /// clock: the instant fails once `c ≥ k`.
    Clock,
    /// Partial definitions: `p ::= c ≥ k` and `p ::= false`, synchronised
    /// with the clock: the two disagree once `c ≥ k`.
    Partial,
    /// A product port link: the link's consumed joint reads `c`.
    Link,
}

fn role(index: u8) -> Role {
    [
        Role::Invisible,
        Role::When,
        Role::Divisor,
        Role::Atom,
        Role::Cell,
        Role::Clock,
        Role::Partial,
        Role::Link,
    ][index as usize % 8]
}

/// `c := (c$1 init 0 + 1) [mod modulus]` on `clock`, wired to `role` with
/// threshold `k`.
fn add_counter(b: &mut ProcessBuilder, clock: &str, role: Role, k: i64, modulus: Option<i64>) {
    b.local("c", ValueType::Integer);
    let next = Expr::add(Expr::delay(Expr::var("c"), Value::Int(0)), Expr::int(1));
    b.define(
        "c",
        match modulus {
            Some(m) => Expr::Binary(BinOp::Mod, Box::new(next), Box::new(Expr::int(m))),
            None => next,
        },
    );
    let mut synchronous = vec![clock, "c"];
    match role {
        Role::When => {
            b.local("g", ValueType::Boolean);
            b.define(
                "g",
                Expr::when(Expr::var(clock), Expr::lt(Expr::var("c"), Expr::int(k))),
            );
            synchronous.push("g");
        }
        Role::Divisor => {
            b.local("q", ValueType::Integer);
            b.define(
                "q",
                Expr::Binary(
                    BinOp::Div,
                    Box::new(Expr::var("c")),
                    Box::new(Expr::sub(Expr::var("c"), Expr::int(k))),
                ),
            );
        }
        Role::Atom => {
            b.output("cbig", ValueType::Boolean);
            b.define("cbig", Expr::ge(Expr::var("c"), Expr::int(k)));
        }
        Role::Cell => {
            b.local("g", ValueType::Boolean);
            b.define(
                "g",
                Expr::cell(
                    Expr::when(Expr::var(clock), Expr::bool(false)),
                    Expr::lt(Expr::var("c"), Expr::int(k)),
                    Value::Bool(false),
                ),
            );
            synchronous.push("g");
        }
        Role::Clock => {
            b.local("g", ValueType::Event);
            b.define(
                "g",
                Expr::clock_when(Expr::lt(Expr::var("c"), Expr::int(k))),
            );
            synchronous.push("g");
        }
        Role::Partial => {
            b.local("p", ValueType::Boolean);
            b.define_partial("p", Expr::ge(Expr::var("c"), Expr::int(k)));
            b.define_partial("p", Expr::bool(false));
            synchronous.push("p");
        }
        Role::Invisible | Role::Link => {}
    }
    b.synchronize(&synchronous);
}

/// The `engine_determinism` streak counter (alarm after `threshold`
/// consecutive `d`) plus the counter `c` in `role`.
fn streak_with_counter(threshold: i64, role: Role, k: i64, modulus: Option<i64>) -> Process {
    let mut b = ProcessBuilder::new("streak");
    b.input("d", ValueType::Boolean);
    b.input("r", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("streak", ValueType::Integer);
    let prev = Expr::delay(Expr::var("streak"), Value::Int(0));
    b.define(
        "streak",
        Expr::default(
            Expr::when(Expr::int(0), Expr::var("r")),
            Expr::default(
                Expr::when(Expr::add(prev, Expr::int(1)), Expr::var("d")),
                Expr::int(0),
            ),
        ),
    );
    b.define("Alarm", Expr::ge(Expr::var("streak"), Expr::int(threshold)));
    b.synchronize(&["d", "r", "streak", "Alarm"]);
    add_counter(&mut b, "d", role, k, modulus);
    b.build().unwrap()
}

/// The alarm property, the deadlock property when `deadlock` is set, plus
/// `never <prefix>cbig` when the counter feeds an atom.
fn properties(deadlock: bool, atoms: &[String]) -> Vec<Property> {
    let mut properties = vec![Property::NeverRaised("*Alarm*".into())];
    if deadlock {
        properties.push(Property::DeadlockFree);
    }
    for atom in atoms {
        properties.push(Property::parse_ltl(&format!("never {atom}")).unwrap());
    }
    properties
}

/// Compares a sliced outcome with its unsliced reference, both explored
/// under the same depth bound, and returns the indices of the properties
/// the slice proved where the reference stayed bounded (the caller
/// confirms those with a longer independent run).
/// `identical_counterexamples`: scheduled and product spaces have one path
/// per instant, so counterexamples must match exactly; free-mode ones only
/// at the same instant.
fn compare(
    reference: &VerificationOutcome,
    sliced: &VerificationOutcome,
    identical_counterexamples: bool,
) -> Vec<usize> {
    assert!(
        sliced.stats.states <= reference.stats.states,
        "the slice explored {} states, the reference {}",
        sliced.stats.states,
        reference.stats.states
    );
    let mut strengthened = Vec::new();
    for (i, (r, s)) in reference.verdicts.iter().zip(&sliced.verdicts).enumerate() {
        match (&r.verdict, &s.verdict) {
            (Verdict::Violated(rc), Verdict::Violated(sc)) => {
                assert_eq!(
                    rc.violation_instant,
                    sc.violation_instant,
                    "{}",
                    r.property.name()
                );
                if identical_counterexamples {
                    assert_eq!(rc, sc, "{}", r.property.name());
                }
            }
            (a, b) if a == b => {}
            (Verdict::PassedBounded { .. }, Verdict::Proved) => strengthened.push(i),
            (a, b) => panic!(
                "{}: sliced {b:?} where the reference says {a:?}",
                r.property.name()
            ),
        }
    }
    assert_eq!(reference.verdicts.len(), sliced.verdicts.len());
    strengthened
}

/// The earliest instant at which `property` fails on `steps` (resolved
/// instants of an independent run), `failed_at` being the instant the run
/// could not execute, if any.
fn first_violation(
    property: &Property,
    steps: &[TraceStep],
    failed_at: Option<usize>,
) -> Option<usize> {
    match property.monitor() {
        None => failed_at,
        Some(monitor) => {
            let mut registers = monitor.initial();
            steps
                .iter()
                .position(|step| !monitor.step(&mut registers, step).holds)
        }
    }
}

/// `schedule` repeated up to `ticks` instants.
fn repeated(schedule: &Trace, ticks: usize) -> Trace {
    (0..ticks)
        .map(|t| {
            schedule
                .step(t % schedule.len())
                .cloned()
                .unwrap_or_default()
        })
        .collect()
}

/// Simulates `process` on `inputs` in polysim: the resolved instants and
/// the instant that failed to execute, if any.
fn simulate(process: &Process, inputs: &Trace) -> (Vec<TraceStep>, Option<usize>) {
    let mut simulator = Simulator::new(process).unwrap();
    let failed_at = simulator
        .run(inputs)
        .err()
        .map(|_| simulator.history().len());
    (simulator.history().iter().cloned().collect(), failed_at)
}

/// A random scheduled trace of the streak inputs: `d` and `r` present with
/// random values, or both absent.
fn schedule(steps: &[(bool, bool, bool)]) -> Trace {
    steps
        .iter()
        .map(|&(present, d, r)| {
            let mut step = TraceStep::new();
            if present {
                step.set("d", Value::Bool(d));
                step.set("r", Value::Bool(r));
            }
            step
        })
        .collect()
}

/// An event-counting pipeline stage (as in `engine_determinism`) plus the
/// counter `c` in `role`.
fn stage(name: &str, threshold: i64, role: Role, k: i64, modulus: Option<i64>) -> Process {
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
    add_counter(&mut b, "Dispatch", role, k, modulus);
    b.build().unwrap()
}

/// A linear pipeline of stages chained by latency-`latency` links. A
/// stage whose counter has [`Role::Link`] makes its incoming link's
/// consumed joint read the counter (stage 0 has no incoming link, so its
/// counter is invisible).
fn pipeline(
    horizon: usize,
    threshold: i64,
    stages: &[(usize, Role, i64, Option<i64>)],
    latency: usize,
) -> (ProductSystem, Vec<Role>) {
    let mut components = Vec::new();
    let mut roles = Vec::new();
    for (i, &(period, role, k, modulus)) in stages.iter().enumerate() {
        let role = if i == 0 && role == Role::Link {
            Role::Invisible
        } else {
            role
        };
        let period = period.max(1);
        let mut schedule = Trace::new();
        for t in 0..horizon {
            schedule.set(t, "Dispatch", Value::Bool(t % period == 0));
            schedule.set(t, "out_output_time", Value::Bool(t % period == period - 1));
            schedule.set(t, "in_in", Value::Bool(false));
        }
        components.push(ProductComponent {
            name: format!("s{i}"),
            process: stage(&format!("stage{i}"), threshold, role, k, modulus),
            schedule,
        });
        roles.push(role);
    }
    let links = (1..stages.len())
        .map(|i| {
            let reads_counter = roles[i] == Role::Link;
            PortLink {
                name: format!("l{}{}", i - 1, i),
                source: format!("s{}", i - 1),
                source_signal: "out_output_time".into(),
                target: format!("s{i}"),
                target_signal: "in_in".into(),
                target_freeze: reads_counter.then(|| "Dispatch".into()),
                target_count: reads_counter.then(|| "c".into()),
                latency,
            }
        })
        .collect();
    (ProductSystem::new(components, links).unwrap(), roles)
}

/// Checks the sliced product against its unsliced reference under the
/// depth bound `bound`: identical counterexamples (deadlock witnesses
/// included), proofs confirmed by a lockstep co-simulation to four times
/// the bound, replayable violations, and exactly `invisible` counters
/// sliced.
fn check_product(system: &ProductSystem, properties: &[Property], bound: usize, invisible: usize) {
    let verifier = ProductVerifier::new(
        system.clone(),
        VerifyOptions::default().with_depth_bound(bound),
    )
    .unwrap();
    let reference = verifier.verify_reference(properties).unwrap();
    let sliced = verifier.verify(properties).unwrap();
    assert_eq!(sliced.stats.sliced_slots, invisible);
    let strengthened = compare(&reference, &sliced, true);
    if !strengthened.is_empty() {
        let (joint, failure) = LockstepCoSim::new(system).unwrap().run(bound * 4);
        let steps: Vec<TraceStep> = joint.iter().cloned().collect();
        let failed_at = failure.map(|f| f.tick);
        for i in strengthened {
            assert_eq!(
                first_violation(&properties[i], &steps, failed_at),
                None,
                "{} proved",
                properties[i].name()
            );
        }
    }
    for (_, cex) in sliced.violations() {
        let replay = verifier.replay(cex).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }
}

proptest! {
    /// Free inputs: same verdict shapes up to strengthening, the same
    /// violation instants, replayable counterexamples.
    #[test]
    fn free_slice_agrees_with_the_reference(
        threshold in 1i64..=5,
        role_index in 0u8..7,
        k in 1i64..=4,
        modulus in prop::option::of(2i64..=5),
        depth in 3usize..=6,
        deadlock in any::<bool>(),
    ) {
        let role = role(role_index);
        let process = streak_with_counter(threshold, role, k, modulus);
        let atoms = if role == Role::Atom { vec!["cbig".to_string()] } else { vec![] };
        let properties = properties(deadlock, &atoms);
        let options = VerifyOptions::default().with_depth_bound(depth);
        let verifier = Verifier::new(&process, options.clone()).unwrap();
        let reference = verifier.verify_reference(&InputSpace::Free, &properties).unwrap();
        let sliced = verifier.verify(&InputSpace::Free, &properties).unwrap();
        prop_assert_eq!(
            sliced.stats.sliced_slots,
            usize::from(role == Role::Invisible),
            "{:?}",
            role
        );
        for i in compare(&reference, &sliced, false) {
            // A proof where the reference is bounded: nothing shows up in
            // an unsliced search four times as deep.
            let deeper = Verifier::new(&process, options.clone().with_depth_bound(depth * 4))
                .unwrap()
                .verify_reference(&InputSpace::Free, std::slice::from_ref(&properties[i]))
                .unwrap();
            prop_assert!(deeper.is_violation_free(), "{}", deeper.summary());
        }
        for (_, cex) in sliced.violations() {
            let replay = cex.replay_with_options(&process, &options).unwrap();
            prop_assert!(replay.reproduced, "{}", replay.detail);
        }
    }

    /// Scheduled inputs: one path, so counterexamples are identical; a
    /// sliced proof shows no violation when polysim runs the schedule to
    /// four times the reference bound.
    #[test]
    fn scheduled_slice_agrees_with_the_reference(
        threshold in 1i64..=5,
        role_index in 0u8..7,
        k in 1i64..=4,
        modulus in prop::option::of(2i64..=5),
        steps in prop::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 2..7),
        hyperperiods in 1usize..=3,
    ) {
        let role = role(role_index);
        let process = streak_with_counter(threshold, role, k, modulus);
        let atoms = if role == Role::Atom { vec!["cbig".to_string()] } else { vec![] };
        let properties = properties(true, &atoms);
        let schedule = schedule(&steps);
        let bound = schedule.len() * hyperperiods;
        let verifier =
            Verifier::new(&process, VerifyOptions::default().with_depth_bound(bound)).unwrap();
        let space = InputSpace::Scheduled(schedule.clone());
        let reference = verifier.verify_reference(&space, &properties).unwrap();
        let sliced = verifier.verify(&space, &properties).unwrap();
        let strengthened = compare(&reference, &sliced, true);
        if !strengthened.is_empty() {
            let (steps, failed_at) = simulate(&process, &repeated(&schedule, bound * 4));
            for i in strengthened {
                prop_assert_eq!(
                    first_violation(&properties[i], &steps, failed_at),
                    None,
                    "{} proved",
                    properties[i].name()
                );
            }
        }
        for (_, cex) in sliced.violations() {
            let replay = cex.replay(&process).unwrap();
            prop_assert!(replay.reproduced, "{}", replay.detail);
        }
    }

    /// Products of 2–3 stages: identical counterexamples (deadlock
    /// witnesses included), proofs confirmed by a lockstep co-simulation
    /// to four times the reference bound, and exactly the invisible
    /// counters sliced.
    #[test]
    fn product_slice_agrees_with_the_reference(
        horizon in 3usize..=6,
        threshold in 1i64..=4,
        stages in prop::collection::vec(
            (1usize..=3, 0u8..8, 1i64..=4, prop::option::of(2i64..=5)),
            2..4,
        ),
        latency in 0usize..=2,
        response in 1u32..=4,
        hyperperiods in 1usize..=2,
    ) {
        let stages: Vec<_> = stages
            .into_iter()
            .map(|(period, role_index, k, modulus)| (period, role(role_index), k, modulus))
            .collect();
        let (system, roles) = pipeline(horizon, threshold, &stages, latency);
        let atoms: Vec<String> = roles
            .iter()
            .enumerate()
            .filter(|(_, role)| **role == Role::Atom)
            .map(|(i, _)| format!("s{i}_cbig"))
            .collect();
        let mut properties = properties(true, &atoms);
        for link in system.links() {
            properties.push(Property::EndToEndResponse {
                from: link.sent_signal(),
                to: link.consumed_signal(),
                bound: response,
            });
        }
        let invisible = roles.iter().filter(|role| **role == Role::Invisible).count();
        check_product(&system, &properties, horizon * hyperperiods, invisible);
    }

    /// Products of 2–3 stages that each hold an unbounded invisible
    /// counter, explored to two hyper-periods: once the counters are
    /// sliced, a product whose latency drops a delivery closes below the
    /// bound, and its bounded verdicts must still name the bound.
    #[test]
    fn product_with_invisible_counters_agrees_with_the_reference(
        horizon in 4usize..=6,
        threshold in 1i64..=4,
        periods in prop::collection::vec(1usize..=3, 2..4),
        latency in 0usize..=2,
        deadlock in any::<bool>(),
    ) {
        let stages: Vec<_> = periods
            .iter()
            .map(|&period| (period, Role::Invisible, 1, None))
            .collect();
        let (system, _) = pipeline(horizon, threshold, &stages, latency);
        check_product(&system, &properties(deadlock, &[]), horizon * 2, stages.len());
    }
}
