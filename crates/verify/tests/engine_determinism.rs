//! Determinism pins on the shared exploration core: verdicts,
//! counterexample depths and explored-state counts must be bit-identical
//! across every worker count — checked on randomised free-mode processes
//! and 2–3 thread products.

use proptest::prelude::*;

use polyverify::{
    InputSpace, PortLink, ProductComponent, ProductSystem, ProductVerifier, Property,
    VerificationOutcome, Verifier, VerifyOptions,
};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

/// The engine configurations every exploration must agree across.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A per-input miss counter whose alarm fires once input `d` has been
/// present `threshold` times in a row — free-mode exploration branches on
/// every boolean valuation of `d` and `r`, so the frontier carries many
/// states per level and the tie-break rules actually matter.
fn streak_counter(threshold: i64) -> Process {
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
    b.build().unwrap()
}

/// Strips the fields that legitimately differ between configurations (the
/// worker count actually used) and returns everything that must not —
/// including the number of slots the slice dropped.
type Fingerprint = (Vec<u8>, [usize; 5], bool);

fn fingerprint(outcome: &VerificationOutcome) -> Fingerprint {
    let mut verdicts = Vec::new();
    for verdict in &outcome.verdicts {
        verdicts.extend_from_slice(format!("{verdict:?}").as_bytes());
        verdicts.push(0);
    }
    (
        verdicts,
        [
            outcome.stats.states,
            outcome.stats.transitions,
            outcome.stats.depth,
            outcome.stats.infeasible,
            outcome.stats.sliced_slots,
        ],
        outcome.stats.truncated,
    )
}

/// The streak counter plus an unbounded monotone step counter no property
/// reads — what the slice drops.
fn streak_with_invisible_counter(threshold: i64) -> Process {
    let mut b = ProcessBuilder::new("streaktotal");
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

/// A bounded observable part (a toggle flag) plus the invisible unbounded
/// counter: the only reason the unsliced space cannot close is the
/// counter, so the slice must close it.
fn toggle_with_invisible_counter(alarm_reachable: bool) -> Process {
    let mut b = ProcessBuilder::new("toggletotal");
    b.input("d", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("flag", ValueType::Boolean);
    b.local("total", ValueType::Integer);
    let prev = Expr::delay(Expr::var("flag"), Value::Bool(false));
    b.define(
        "flag",
        Expr::default(Expr::when(Expr::not(prev.clone()), Expr::var("d")), prev),
    );
    b.define(
        "total",
        Expr::add(Expr::delay(Expr::var("total"), Value::Int(0)), Expr::int(1)),
    );
    if alarm_reachable {
        b.define("Alarm", Expr::and(Expr::var("flag"), Expr::var("d")));
    } else {
        b.define(
            "Alarm",
            Expr::and(Expr::var("d"), Expr::not(Expr::var("d"))),
        );
    }
    b.synchronize(&["d", "flag", "total", "Alarm"]);
    b.build().unwrap()
}

proptest! {
    /// Free-mode exploration of the streak counter: identical outcomes for
    /// every worker count, whether the verdict is a violation (low
    /// threshold) or a bounded pass (high threshold).
    #[test]
    fn free_exploration_is_configuration_independent(
        threshold in 1i64..=6,
        depth in 3usize..=5,
    ) {
        let process = streak_counter(threshold);
        let properties = [Property::NeverRaised("*Alarm*".into()), Property::DeadlockFree];
        let mut reference: Option<Fingerprint> = None;
        for workers in WORKER_COUNTS {
            let verifier = Verifier::new(
                &process,
                VerifyOptions::default()
                    .with_workers(workers)
                    .with_depth_bound(depth),
            )
            .unwrap();
            let outcome = verifier.verify(&InputSpace::Free, &properties).unwrap();
            let print = fingerprint(&outcome);
            match &reference {
                None => reference = Some(print),
                Some(expected) => prop_assert_eq!(expected, &print, "workers={}", workers),
            }
        }
    }

    /// Sliced exploration of a system with an invisible unbounded counter:
    /// verdicts, counterexample depths and the sliced-slot count are
    /// bit-identical across workers, with and without a depth bound.
    #[test]
    fn sliced_exploration_is_configuration_independent(
        threshold in 1i64..=4,
        closed in any::<bool>(),
        alarm_reachable in any::<bool>(),
    ) {
        // `closed`: observable part bounded — the unbounded sliced run must
        // close (no truncation). Otherwise the observable streak is itself
        // unbounded and a depth bound applies.
        let (process, bound) = if closed {
            (toggle_with_invisible_counter(alarm_reachable), None)
        } else {
            (
                streak_with_invisible_counter(threshold),
                Some(threshold as usize + 2),
            )
        };
        let properties = [Property::NeverRaised("*Alarm*".into())];
        let mut reference: Option<Fingerprint> = None;
        for workers in WORKER_COUNTS {
            let mut options = VerifyOptions::default().with_workers(workers);
            if let Some(bound) = bound {
                options = options.with_depth_bound(bound);
            }
            let verifier = Verifier::new(&process, options).unwrap();
            let outcome = verifier.verify(&InputSpace::Free, &properties).unwrap();
            prop_assert_eq!(outcome.stats.sliced_slots, 1);
            if closed && !alarm_reachable {
                // The invisible counter is sliced away, so the unbounded
                // violation-free run closes with a proof instead of
                // diverging. (A violating run stops early, which the
                // engine reports as truncated.)
                prop_assert!(!outcome.stats.truncated);
                prop_assert!(outcome.all_proved());
            }
            let print = fingerprint(&outcome);
            match &reference {
                None => reference = Some(print),
                Some(expected) => prop_assert_eq!(expected, &print, "workers={}", workers),
            }
        }
    }

    /// Randomised 2–3 thread products: verdicts, counterexample depths and
    /// explored-state counts are identical for every worker count.
    #[test]
    fn product_outcome_is_configuration_independent(
        component_count in 2usize..=3,
        horizon in 4usize..=8,
        threshold in 1i64..=4,
        periods in prop::collection::vec(1usize..=4, 3..4),
        latency in 0usize..=2,
    ) {
        let system = pipeline_system(component_count, horizon, threshold, &periods, latency);
        let properties = [Property::NeverRaised("*Alarm*".into()), Property::DeadlockFree];
        let mut reference: Option<Fingerprint> = None;
        for workers in WORKER_COUNTS {
            let verifier = ProductVerifier::new(
                system.clone(),
                VerifyOptions::default()
                    .with_workers(workers)
                    .with_depth_bound(horizon * 2),
            )
            .unwrap();
            let outcome = verifier.verify(&properties).unwrap();
            let print = fingerprint(&outcome);
            match &reference {
                None => reference = Some(print),
                Some(expected) => prop_assert_eq!(expected, &print, "workers={}", workers),
            }
        }
    }
}

/// A randomised linear pipeline of `count` event-counting stages chained by
/// latency-`latency` links; stage `i` dispatches every `periods[i]` ticks
/// and alarms once it has received `threshold` events.
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
            target_freeze: None,
            target_count: None,
            latency,
        })
        .collect();
    ProductSystem::new(components, links).unwrap()
}
