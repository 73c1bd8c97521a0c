//! Cross-validation of the interval abstraction and the concrete slice
//! against the unsliced explicit engine (`verify_reference`, see
//! `docs/SYMBOLIC.md`): on randomised free processes and 2–3-thread
//! products,
//!
//! * interval-domain and sliced concrete verdicts agree with the unsliced
//!   verdicts wherever the unsliced engine terminates (same verdict kind,
//!   same violation instant, same explored depth), except that either may
//!   strengthen a `passed-bounded` into `proved`;
//! * every counterexample found abstractly replays concretely (the
//!   strengthen-only gate is not just an internal check — the reported
//!   artifacts reproduce);
//! * a system `Proved` by widening has no violation within 4× the bound
//!   the explicit engine would have used.

use proptest::prelude::*;

use polyverify::{
    Domain, InputSpace, PortLink, ProductComponent, ProductSystem, ProductVerifier, Property,
    Verdict, VerificationOutcome, Verifier, VerifyOptions,
};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

/// A streak counter (observable, drives the alarm) plus an unbounded
/// monotone step counter (`total`) that no property reads — the invisible
/// counter is what the interval domain widens away.
fn mixed_counter(threshold: i64) -> Process {
    let mut b = ProcessBuilder::new("mixed");
    b.input("d", ValueType::Boolean);
    b.input("r", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("streak", ValueType::Integer);
    b.local("total", ValueType::Integer);
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
    b.define(
        "total",
        Expr::add(Expr::delay(Expr::var("total"), Value::Int(0)), Expr::int(1)),
    );
    b.define("Alarm", Expr::ge(Expr::var("streak"), Expr::int(threshold)));
    b.synchronize(&["d", "r", "streak", "total", "Alarm"]);
    b.build().unwrap()
}

/// A system whose alarm is unsatisfiable while an unbounded monotone
/// counter keeps the concrete space from ever closing: the interval domain
/// must prove it, the concrete engine can only pass it bounded.
fn unreachable_alarm() -> Process {
    let mut b = ProcessBuilder::new("closed");
    b.input("d", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("total", ValueType::Integer);
    b.define(
        "total",
        Expr::add(Expr::delay(Expr::var("total"), Value::Int(0)), Expr::int(1)),
    );
    b.define(
        "Alarm",
        Expr::and(Expr::var("d"), Expr::not(Expr::var("d"))),
    );
    b.synchronize(&["d", "total", "Alarm"]);
    b.build().unwrap()
}

/// What must agree between the domains: the verdict kind, the instant
/// of a violation and the explored depth — not the state counts (the
/// abstraction merges states by design) and not the byte-identical
/// counterexample path (both replay, but through different interners).
fn verdict_shape(outcome: &VerificationOutcome) -> Vec<String> {
    outcome
        .verdicts
        .iter()
        .map(|v| match &v.verdict {
            Verdict::Proved => "proved".to_string(),
            Verdict::PassedBounded { depth } => format!("passed-bounded@{depth}"),
            Verdict::Violated(cex) => format!("violated@{}", cex.violation_instant),
        })
        .collect()
}

/// `Ok` when `other` agrees with the unsliced `reference` verdict for
/// verdict and explores no more states. The one allowed difference is a
/// strengthening: a `proved` where the reference is bounded.
fn strengthens(reference: &VerificationOutcome, other: &VerificationOutcome) -> Result<(), String> {
    let (expected, found) = (verdict_shape(reference), verdict_shape(other));
    let agrees = expected.len() == found.len()
        && expected
            .iter()
            .zip(&found)
            .all(|(r, o)| r == o || (r.starts_with("passed-bounded") && o == "proved"));
    if !agrees {
        return Err(format!(
            "{found:?} does not strengthen the reference {expected:?}"
        ));
    }
    if other.stats.states > reference.stats.states {
        return Err(format!(
            "{} states explored, the reference needed {}",
            other.stats.states, reference.stats.states
        ));
    }
    Ok(())
}

proptest! {
    /// Wherever the unsliced engine terminates (here: at a depth bound),
    /// the interval domain and the concrete slice reach the same verdicts
    /// at the same instants — or a proof where the reference is bounded —
    /// while genuinely merging states; their counterexamples replay.
    #[test]
    fn interval_verdicts_agree_with_explicit(
        threshold in 1i64..=5,
        depth in 3usize..=6,
        deadlock in any::<bool>(),
    ) {
        let process = mixed_counter(threshold);
        let mut properties = vec![Property::NeverRaised("*Alarm*".into())];
        if deadlock {
            properties.push(Property::DeadlockFree);
        }
        let options = VerifyOptions::default().with_depth_bound(depth);
        let reference = Verifier::new(&process, options.clone())
            .unwrap()
            .verify_reference(&InputSpace::Free, &properties)
            .unwrap();
        let sliced = Verifier::new(&process, options.clone())
            .unwrap()
            .verify(&InputSpace::Free, &properties)
            .unwrap();
        let interval = Verifier::new(&process, options.with_domain(Domain::Interval))
            .unwrap()
            .verify(&InputSpace::Free, &properties)
            .unwrap();
        for (name, outcome) in [("sliced", &sliced), ("interval", &interval)] {
            if let Err(e) = strengthens(&reference, outcome) {
                panic!("{name}: {e}");
            }
            for (_, cex) in outcome.violations() {
                let report = cex.replay(&process).unwrap();
                prop_assert!(report.reproduced, "{}: {}", name, report.detail);
            }
        }
        // The slice drops `total`, which nothing reads.
        prop_assert_eq!(sliced.stats.projected_slots, 1);
    }

    /// Every counterexample the abstract engine reports replays in the
    /// concrete simulator — the reported artifact itself reproduces, not
    /// just an internal re-check.
    #[test]
    fn abstract_counterexamples_replay_concretely(
        threshold in 1i64..=3,
        project in any::<bool>(),
    ) {
        let process = mixed_counter(threshold);
        let outcome = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_depth_bound(threshold as usize + 2)
                .with_domain(Domain::Interval)
                .with_project_counters(project),
        )
        .unwrap()
        .verify(&InputSpace::Free, &[Property::NeverRaised("*Alarm*".into())])
        .unwrap();
        let mut violations = 0usize;
        for (_, cex) in outcome.violations() {
            violations += 1;
            let report = cex.replay(&process).unwrap();
            prop_assert!(report.reproduced, "{}", report.detail);
        }
        // The threshold is reachable within the bound, so the alarm fires.
        prop_assert!(violations > 0);
        prop_assert_eq!(outcome.stats.reconcretized, violations);
    }

    /// A `Proved`-by-widening verdict is checked against a concrete run at
    /// 4× the bound the explicit engine would otherwise use: no violation
    /// may hide below it.
    #[test]
    fn proved_by_widening_has_no_violation_within_4x_bound(
        explicit_bound in 2usize..=6,
        project in any::<bool>(),
    ) {
        let process = unreachable_alarm();
        let properties = [Property::NeverRaised("*Alarm*".into())];
        let proved = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_domain(Domain::Interval)
                .with_project_counters(project),
        )
        .unwrap()
        .verify(&InputSpace::Free, &properties)
        .unwrap();
        prop_assert!(proved.all_proved(), "{}", proved.summary());
        prop_assert!(!proved.stats.truncated);
        let concrete = Verifier::new(
            &process,
            VerifyOptions::default().with_depth_bound(explicit_bound * 4),
        )
        .unwrap()
        .verify(&InputSpace::Free, &properties)
        .unwrap();
        prop_assert_eq!(concrete.violations().count(), 0);
    }

    /// Products: per-component invisible counters widen (interval) or are
    /// sliced away (concrete) inside the joint memory, and the joint
    /// verdicts agree with the unsliced product wherever it terminates, up
    /// to strengthening; counterexamples replay in lockstep.
    #[test]
    fn product_interval_verdicts_agree_with_explicit(
        component_count in 2usize..=3,
        horizon in 4usize..=6,
        threshold in 1i64..=4,
        periods in prop::collection::vec(1usize..=3, 3..4),
        latency in 0usize..=2,
        deadlock in any::<bool>(),
    ) {
        let system = pipeline_system(component_count, horizon, threshold, &periods, latency);
        let mut properties = vec![Property::NeverRaised("*Alarm*".into())];
        if deadlock {
            properties.push(Property::DeadlockFree);
        }
        let options = VerifyOptions::default().with_depth_bound(horizon * 2);
        let reference = ProductVerifier::new(system.clone(), options.clone())
            .unwrap()
            .verify_reference(&properties)
            .unwrap();
        let sliced_verifier = ProductVerifier::new(system.clone(), options.clone()).unwrap();
        let sliced = sliced_verifier.verify(&properties).unwrap();
        let interval = ProductVerifier::new(system, options.with_domain(Domain::Interval))
            .unwrap()
            .verify(&properties)
            .unwrap();
        for (name, outcome) in [("sliced", &sliced), ("interval", &interval)] {
            if let Err(e) = strengthens(&reference, outcome) {
                panic!("{name}: {e}");
            }
            for (_, cex) in outcome.violations() {
                let report = sliced_verifier.replay(cex).unwrap();
                prop_assert!(report.reproduced, "{}: {}", name, report.detail);
            }
        }
        prop_assert_eq!(sliced.stats.projected_slots, component_count);
    }
}

/// The PR 6 pipeline generator with an extra invisible `total` counter per
/// stage: event-counting stages chained by latency-`latency` links, stage
/// `i` dispatching every `periods[i]` ticks and alarming after `threshold`
/// received events. The `seen` counter stays concrete (the alarm reads
/// it); `total` is widened.
fn pipeline_system(
    count: usize,
    horizon: usize,
    threshold: i64,
    periods: &[usize],
    latency: usize,
) -> ProductSystem {
    fn stage(name: &str, threshold: i64) -> Process {
        let mut b = ProcessBuilder::new(name);
        b.input("Dispatch", ValueType::Boolean);
        b.input("out_output_time", ValueType::Boolean);
        b.input("in_in", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("seen", ValueType::Integer);
        b.local("total", ValueType::Integer);
        let prev = Expr::delay(Expr::var("seen"), Value::Int(0));
        b.define(
            "seen",
            Expr::add(
                prev,
                Expr::default(Expr::when(Expr::int(1), Expr::var("in_in")), Expr::int(0)),
            ),
        );
        b.define(
            "total",
            Expr::add(Expr::delay(Expr::var("total"), Value::Int(0)), Expr::int(1)),
        );
        b.define("Alarm", Expr::ge(Expr::var("seen"), Expr::int(threshold)));
        b.synchronize(&[
            "Dispatch",
            "out_output_time",
            "in_in",
            "seen",
            "total",
            "Alarm",
        ]);
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
            target_freeze: None,
            target_count: None,
            latency,
        })
        .collect();
    ProductSystem::new(components, links).unwrap()
}
