//! Telemetry must never perturb verification: verdicts, counterexample
//! depths/traces and the full `ExplorationStats` must be bit-identical with
//! collection `Noop`, `Counters` and `Full` (with a live JSON-lines sink
//! attached), across every worker count — on both the free-mode thread
//! verifier and the product verifier. The evaluator work counters
//! (`engine.eval.*`) and the monitor-step counters
//! (`engine.monitor_steps*`) must read the same under every collecting mode
//! and worker count.

use proptest::prelude::*;

use polyverify::{
    CollectionMode, Collector, Domain, ExplorationStats, InputSpace, JsonLinesSink, PortLink,
    ProductComponent, ProductSystem, ProductVerifier, Property, VerificationOutcome, Verifier,
    VerifyOptions,
};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const MODES: [CollectionMode; 3] = [
    CollectionMode::Noop,
    CollectionMode::Counters,
    CollectionMode::Full,
];

/// A collector in `mode`; the full one gets a live JSON-lines sink (writing
/// into the void) so the event-recording path is actually exercised.
fn collector(mode: CollectionMode) -> Collector {
    let c = Collector::with_mode(mode);
    if mode == CollectionMode::Full {
        c.add_sink(Box::new(JsonLinesSink::new(Box::new(std::io::sink()))));
    }
    c
}

/// Everything that must be identical across configurations: the full
/// verdict rendering (counterexample traces included) and the complete
/// stats — `workers` excluded, since the worker count actually used
/// legitimately varies with the configuration.
fn fingerprint(outcome: &VerificationOutcome) -> (Vec<u8>, ExplorationStats) {
    let mut verdicts = Vec::new();
    for verdict in &outcome.verdicts {
        verdicts.extend_from_slice(format!("{verdict:?}").as_bytes());
        verdicts.push(0);
    }
    let mut stats = outcome.stats.clone();
    stats.workers = 0;
    (verdicts, stats)
}

/// The counters a collecting run recorded whose names start with `prefix`;
/// `None` when the collector does not collect.
fn counts_with_prefix(collector: &Collector, prefix: &str) -> Option<Vec<(String, u64)>> {
    if !collector.is_enabled() {
        return None;
    }
    Some(
        collector
            .counter_values()
            .into_iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .collect(),
    )
}

/// Asserts that every collecting configuration recorded the same, non-zero
/// evaluator work: the counts depend only on the explored space.
fn assert_same_eval_counts(counts: &[Option<Vec<(String, u64)>>]) {
    let recorded: Vec<&Vec<(String, u64)>> = counts.iter().flatten().collect();
    let first = recorded[0];
    assert_eq!(first.len(), 3, "{first:?}");
    assert!(first.iter().all(|(_, v)| *v > 0), "{first:?}");
    for other in &recorded[1..] {
        assert_eq!(first, *other);
    }
}

/// A per-input miss counter whose alarm fires once input `d` has been
/// present `threshold` times in a row (same shape as the engine-determinism
/// pin: many states per level, so scheduling races are real).
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

/// The streak counter plus an unbounded monotone step counter no property
/// reads — exercises the interval domain's widening/projection counters
/// under telemetry.
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

/// A linear pipeline of event-counting stages for the product verifier.
fn pipeline_system(count: usize, horizon: usize, threshold: i64, period: usize) -> ProductSystem {
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
    for i in 0..count {
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
            latency: 0,
        })
        .collect();
    ProductSystem::new(components, links).unwrap()
}

proptest! {
    /// Free-mode exploration: identical outcomes under every collection
    /// mode × workers combination, for both violating (low threshold) and
    /// bounded-pass (high threshold) runs.
    #[test]
    fn free_exploration_is_collection_mode_independent(
        threshold in 1i64..=6,
        depth in 3usize..=5,
    ) {
        let process = streak_counter(threshold);
        let properties = [Property::NeverRaised("*Alarm*".into()), Property::DeadlockFree];
        let mut reference: Option<(Vec<u8>, ExplorationStats)> = None;
        let mut counts = Vec::new();
        for mode in MODES {
            for workers in WORKER_COUNTS {
                let collector = collector(mode);
                let verifier = Verifier::new(
                    &process,
                    VerifyOptions::default()
                        .with_workers(workers)
                        .with_depth_bound(depth)
                        .with_collector(collector.clone()),
                )
                .unwrap();
                let outcome = verifier.verify(&InputSpace::Free, &properties).unwrap();
                counts.push(counts_with_prefix(&collector, "engine.eval."));
                let print = fingerprint(&outcome);
                match &reference {
                    None => reference = Some(print),
                    Some(expected) => prop_assert_eq!(
                        expected,
                        &print,
                        "mode={:?} workers={}",
                        mode,
                        workers
                    ),
                }
            }
        }
        assert_same_eval_counts(&counts);
    }

    /// Interval-domain exploration: the widened / projected_slots /
    /// reconcretized counters and the full verdict rendering are identical
    /// under every collection mode × workers × projection combination —
    /// telemetry never perturbs the abstraction either.
    #[test]
    fn interval_outcome_is_collection_mode_independent(
        threshold in 1i64..=4,
        depth in 3usize..=5,
    ) {
        let process = streak_with_invisible_counter(threshold);
        let properties = [Property::NeverRaised("*Alarm*".into())];
        for project in [false, true] {
            let mut reference: Option<(Vec<u8>, ExplorationStats)> = None;
            for mode in MODES {
                for workers in WORKER_COUNTS {
                    let verifier = Verifier::new(
                        &process,
                        VerifyOptions::default()
                            .with_workers(workers)
                            .with_depth_bound(depth)
                            .with_domain(Domain::Interval)
                            .with_project_counters(project)
                            .with_collector(collector(mode)),
                    )
                    .unwrap();
                    let outcome = verifier.verify(&InputSpace::Free, &properties).unwrap();
                    let print = fingerprint(&outcome);
                    match &reference {
                        None => reference = Some(print),
                        Some(expected) => prop_assert_eq!(
                            expected,
                            &print,
                            "mode={:?} workers={} project={}",
                            mode,
                            workers,
                            project
                        ),
                    }
                }
            }
        }
    }

    /// Product exploration: identical outcomes under every collection mode
    /// × workers combination. Every joint instant steps every compiled
    /// monitor once, so the monitor-step counters read joint instants ×
    /// compiled monitors, split evenly across the monitored properties.
    #[test]
    fn product_outcome_is_collection_mode_independent(
        component_count in 2usize..=3,
        horizon in 4usize..=8,
        threshold in 1i64..=4,
        period in 1usize..=4,
    ) {
        let system = pipeline_system(component_count, horizon, threshold, period);
        let properties = [
            Property::NeverRaised("*Alarm*".into()),
            Property::EndToEndResponse {
                from: "l01_sent".into(),
                to: "l01_received".into(),
                bound: 1,
            },
            Property::DeadlockFree,
        ];
        let monitors = properties.iter().filter(|p| p.monitor().is_some()).count();
        let mut reference: Option<(Vec<u8>, ExplorationStats)> = None;
        let mut counts = Vec::new();
        for mode in MODES {
            for workers in WORKER_COUNTS {
                let collector = collector(mode);
                let verifier = ProductVerifier::new(
                    system.clone(),
                    VerifyOptions::default()
                        .with_workers(workers)
                        .with_depth_bound(horizon * 2)
                        .with_collector(collector.clone()),
                )
                .unwrap();
                let outcome = verifier.verify(&properties).unwrap();
                counts.push(counts_with_prefix(&collector, "engine.eval."));
                if let Some(steps) = counts_with_prefix(&collector, "engine.monitor_steps") {
                    let joint_instants = (outcome.stats.transitions / component_count) as u64;
                    let per_property = |property: &Property| {
                        (format!("engine.monitor_steps.{}", property.name()), joint_instants)
                    };
                    // Counters come back in name order.
                    prop_assert_eq!(
                        steps,
                        vec![
                            (
                                "engine.monitor_steps".to_string(),
                                joint_instants * monitors as u64,
                            ),
                            per_property(&properties[1]),
                            per_property(&properties[0]),
                        ],
                        "mode={:?} workers={}",
                        mode,
                        workers
                    );
                }
                let print = fingerprint(&outcome);
                match &reference {
                    None => reference = Some(print),
                    Some(expected) => prop_assert_eq!(
                        expected,
                        &print,
                        "mode={:?} workers={}",
                        mode,
                        workers
                    ),
                }
            }
        }
        assert_same_eval_counts(&counts);
    }
}

/// The stat-gap fixes ride the same harness: per-level frontier sizes are
/// recorded with their invariants, and the product reports every component
/// step as evaluated (`memo_misses`), none as answered without its
/// evaluator (`memo_hits`).
#[test]
fn frontier_levels_and_memo_counts_are_populated() {
    let process = streak_counter(2);
    let properties = [Property::DeadlockFree];
    let verifier = Verifier::new(
        &process,
        VerifyOptions::default().with_depth_bound(4).with_workers(2),
    )
    .unwrap();
    let outcome = verifier.verify(&InputSpace::Free, &properties).unwrap();
    let stats = &outcome.stats;
    assert_eq!(
        stats.frontier_levels.len(),
        stats.depth,
        "one frontier size per explored level"
    );
    assert_eq!(stats.frontier_levels[0], 1, "the root level has one state");
    assert_eq!(
        stats
            .frontier_levels
            .iter()
            .map(|&f| f as usize)
            .max()
            .unwrap_or(0),
        stats.peak_frontier,
        "peak_frontier is the max over the per-level sizes"
    );
    assert_eq!(stats.memo_misses, 0, "a single process has no components");

    let product = ProductVerifier::new(
        pipeline_system(2, 6, 2, 2),
        VerifyOptions::default().with_depth_bound(12),
    )
    .unwrap()
    .verify(&properties)
    .unwrap();
    assert_eq!(product.stats.memo_hits, 0, "no step skips its evaluator");
    assert_eq!(
        product.stats.memo_misses, product.stats.transitions,
        "every transition is one evaluated component step"
    );
    assert_eq!(
        product.stats.transitions,
        2 * product.stats.depth,
        "two components step at every joint instant"
    );
}
