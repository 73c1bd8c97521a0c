//! Cross-validation of the product verifier against a lockstep
//! co-simulation of the constituent threads, plus the injected
//! connection-latency regression on the paper's case study.
//!
//! The product checker and the lockstep co-simulation are two independent
//! execution paths over the same wired system: for randomly synthesised
//! 2–3 thread systems, every property verdict of the checker must agree
//! with brute-force joint simulation over the hyper-period, every product
//! counterexample must replay step-for-step in the co-simulation, and every
//! per-thread projection of a counterexample must execute in a plain
//! `polysim` simulator. Verdicts must be identical for any worker count.

use proptest::prelude::*;

use polychrony_core::aadl::instance::InstanceModel;
use polychrony_core::aadl::synth::{generate_instance, SyntheticSpec};
use polychrony_core::asme2ssme::{system_under_schedule, task_set_from_threads};
use polychrony_core::polysim::Simulator;
use polychrony_core::polyverify::{
    inject_connection_latency, InputSpace, LockstepCoSim, PortLink, ProductComponent,
    ProductSystem, ProductVerifier, Property, Verdict, Verifier, VerifyOptions,
};
use polychrony_core::sched::SchedulingPolicy;
use polychrony_core::signal_moc::trace::TraceStep;
use polychrony_core::{end_to_end_response_for, port_link_for};

/// Builds the wired thread product of an instance model under its EDF
/// schedule, together with the standard joint properties: alarm freedom,
/// deadlock freedom, and one end-to-end response per connection bounded by
/// the receiving thread's period.
fn build_product(instance: &InstanceModel) -> (ProductSystem, Vec<Property>, usize) {
    let (models, schedule, connections) =
        system_under_schedule(instance, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
    let tasks = task_set_from_threads(&instance.threads().unwrap()).unwrap();
    let components: Vec<ProductComponent> = models
        .iter()
        .map(|model| ProductComponent {
            name: model.thread_name.clone(),
            process: model.flat.clone(),
            schedule: model.timing_trace(&schedule, 1),
        })
        .collect();
    let links: Vec<PortLink> = connections.iter().map(port_link_for).collect();
    let mut properties = vec![
        Property::NeverRaised("*Alarm*".into()),
        Property::DeadlockFree,
    ];
    for link in &links {
        properties.push(end_to_end_response_for(link, &tasks, schedule.hyperperiod));
    }
    let horizon = schedule.hyperperiod as usize;
    (
        ProductSystem::new(components, links).unwrap(),
        properties,
        horizon,
    )
}

/// Brute force: the earliest violation instant of every property by joint
/// lockstep simulation over `ticks` instants (`None` when the property
/// holds on that window). This re-derives the verdicts without the
/// checker's state-space machinery: monitors are walked over the simulated
/// joint trace, alarms are searched textually, and a deadlock is the first
/// non-executable step.
fn earliest_by_lockstep(
    system: &ProductSystem,
    properties: &[Property],
    ticks: usize,
) -> Vec<Option<usize>> {
    let mut cosim = LockstepCoSim::new(system).unwrap();
    let (joint, failure) = cosim.run(ticks);
    properties
        .iter()
        .map(|property| match property {
            Property::NeverRaised(pattern) => joint.iter().position(|step| {
                step.iter()
                    .any(|(name, value)| pattern_matches(pattern, name) && value.as_bool())
            }),
            Property::DeadlockFree => failure.as_ref().map(|f| f.tick),
            Property::BoundedResponse { .. } | Property::EndToEndResponse { .. } => {
                let (trigger, response, bound) = property.monitor_spec().unwrap();
                let mut register = u32::MAX;
                let mut expired = None;
                for (t, step) in joint.iter().enumerate() {
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
            // Not drawn by this suite's generators, but kept total: the
            // reference trace semantics re-derives the verdict without the
            // compiled monitor.
            Property::Ltl(ltl) => {
                let steps: Vec<TraceStep> = joint.iter().cloned().collect();
                polychrony_core::polyverify::ltl::first_violation(ltl.invariant(), &steps)
            }
        })
        .collect()
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

proptest! {
    /// For randomly synthesised 2–3 thread chained systems, the product
    /// checker and brute-force joint simulation agree on every verdict
    /// (and on the earliest violation instant), every counterexample
    /// replays in the lockstep co-simulation, and every per-thread
    /// projection executes in a plain simulator.
    #[test]
    fn product_checker_agrees_with_lockstep_cosimulation(
        threads in 2usize..4,
        ports in 1usize..3,
        shared in 0u8..2,
    ) {
        let instance = generate_instance(&SyntheticSpec {
            threads,
            ports_per_thread: ports,
            chained: true,
            shared_data: shared == 1,
        })
        .unwrap();
        let (system, properties, horizon) = build_product(&instance);
        let ticks = horizon * 2;
        let verifier = ProductVerifier::new(
            system.clone(),
            VerifyOptions::default().with_depth_bound(ticks),
        )
        .unwrap();
        let outcome = verifier.verify(&properties).unwrap();
        let expected = earliest_by_lockstep(&system, &properties, ticks);
        for (verdict, earliest) in outcome.verdicts.iter().zip(&expected) {
            let found = match &verdict.verdict {
                Verdict::Violated(cex) => Some(cex.violation_instant),
                _ => None,
            };
            prop_assert_eq!(
                found,
                *earliest,
                "verdict mismatch for {} (threads={} ports={}): checker {:?}, lockstep {:?}",
                verdict.property.name(),
                threads,
                ports,
                found,
                earliest
            );
            if let Verdict::Violated(cex) = &verdict.verdict {
                // Step-for-step lockstep replay of the counterexample.
                let replay = verifier.replay(cex).unwrap();
                prop_assert!(replay.reproduced, "{}", replay.detail);
                // Every per-thread projection executes in a plain simulator
                // (deadlock projections stop before the failing step).
                for component in verifier.system().components() {
                    let projected = verifier.project(cex, &component.name).unwrap();
                    prop_assert_eq!(projected.len(), cex.inputs.len());
                    if !matches!(verdict.property, Property::DeadlockFree) {
                        let mut simulator = Simulator::new(&component.process).unwrap();
                        prop_assert!(simulator.run(&projected).is_ok());
                    }
                }
            }
        }
    }

    /// Product verdicts are identical for every worker count.
    #[test]
    fn product_worker_count_is_invisible(threads in 2usize..4) {
        let instance = generate_instance(&SyntheticSpec::new(threads, 1)).unwrap();
        let (system, properties, horizon) = build_product(&instance);
        let reference = ProductVerifier::new(
            system.clone(),
            VerifyOptions::default().with_workers(1).with_depth_bound(horizon),
        )
        .unwrap()
        .verify(&properties)
        .unwrap();
        for workers in [2usize, 8] {
            let outcome = ProductVerifier::new(
                system.clone(),
                VerifyOptions::default()
                    .with_workers(workers)
                    .with_depth_bound(horizon),
            )
            .unwrap()
            .verify(&properties)
            .unwrap();
            prop_assert_eq!(&reference.verdicts, &outcome.verdicts, "workers={}", workers);
            prop_assert_eq!(reference.stats.states, outcome.stats.states);
            prop_assert_eq!(reference.stats.depth, outcome.stats.depth);
        }
    }
}

/// Builds the case-study product with an `extra` tick latency injected on
/// the producer's start-timer connection, plus the end-to-end response
/// property over that link.
fn case_study_with_link_fault(extra: usize) -> (ProductSystem, Property, usize) {
    let instance = polychrony_core::aadl::case_study::producer_consumer_instance().unwrap();
    let (models, schedule, connections) =
        system_under_schedule(&instance, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
    let components: Vec<ProductComponent> = models
        .iter()
        .map(|model| ProductComponent {
            name: model.thread_name.clone(),
            process: model.flat.clone(),
            schedule: model.timing_trace(&schedule, 1),
        })
        .collect();
    let mut links: Vec<PortLink> = connections.iter().map(port_link_for).collect();
    if extra > 0 {
        let fault = inject_connection_latency(&mut links, "cProdStartTimer", extra).unwrap();
        assert_eq!(fault.original_latency, 0);
    }
    let property = Property::EndToEndResponse {
        from: "cProdStartTimer_sent".into(),
        to: "cProdStartTimer_consumed".into(),
        bound: 8, // the producer timer's period in ticks
    };
    let horizon = schedule.hyperperiod as usize;
    (
        ProductSystem::new(components, links).unwrap(),
        property,
        horizon,
    )
}

/// Regression: the untampered case-study product satisfies the end-to-end
/// response over the full hyper-period.
#[test]
fn case_study_product_meets_the_end_to_end_response() {
    let (system, property, horizon) = case_study_with_link_fault(0);
    let verifier =
        ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(horizon)).unwrap();
    let outcome = verifier.verify(&[property]).unwrap();
    assert!(outcome.is_violation_free(), "{}", outcome.summary());
    assert_eq!(outcome.stats.depth, 24);
}

/// Regression: a connection latency that pushes the sent event past the
/// receiver's input freeze is caught by `EndToEndResponse` on the product —
/// with a counterexample that replays deterministically — while per-thread
/// scope sees nothing wrong.
#[test]
fn injected_connection_latency_caught_by_product_scope_only() {
    let (system, property, horizon) = case_study_with_link_fault(8);
    let verifier = ProductVerifier::new(
        system.clone(),
        VerifyOptions::default().with_depth_bound(horizon),
    )
    .unwrap();
    let outcome = verifier
        .verify(&[property.clone(), Property::NeverRaised("*Alarm*".into())])
        .unwrap();
    let Verdict::Violated(cex) = &outcome.verdicts[0].verdict else {
        panic!("injected connection bug not found: {}", outcome.summary());
    };
    // The first emission (tick 1) misses the freeze at tick 8: the
    // 8-tick response window expires at tick 9.
    assert_eq!(cex.violation_instant, 9);
    // No per-thread alarm fires: the fault is purely cross-thread.
    assert!(
        outcome.verdicts[1].verdict.passed(),
        "{}",
        outcome.summary()
    );

    // The counterexample replays deterministically in the lockstep
    // co-simulation (twice, byte-identical traces).
    let first = verifier.replay(cex).unwrap();
    assert!(first.reproduced, "{}", first.detail);
    let second = verifier.replay(cex).unwrap();
    assert_eq!(
        first.trace, second.trace,
        "lockstep replay is deterministic"
    );

    // Every projection replays in a plain per-thread simulator.
    for component in verifier.system().components() {
        let projected = verifier.project(cex, &component.name).unwrap();
        let mut simulator = Simulator::new(&component.process).unwrap();
        assert!(simulator.run(&projected).is_ok(), "{}", component.name);
    }

    // Per-thread scope: the same properties verified thread by thread pass
    // everywhere — the end-to-end signals do not exist in any single
    // thread's namespace, and the delayed connection raises no alarm.
    let instance = polychrony_core::aadl::case_study::producer_consumer_instance().unwrap();
    let (models, schedule, _) =
        system_under_schedule(&instance, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
    for model in &models {
        let inputs = model.timing_trace(&schedule, 1);
        let bound = inputs.len();
        let per_thread = Verifier::new(
            &model.flat,
            VerifyOptions::default().with_depth_bound(bound),
        )
        .unwrap()
        .verify(
            &InputSpace::Scheduled(inputs),
            &[property.clone(), Property::NeverRaised("*Alarm*".into())],
        )
        .unwrap();
        assert!(
            per_thread.is_violation_free(),
            "{}: {}",
            model.thread_name,
            per_thread.summary()
        );
    }
}

/// The joint counterexample projects back to exactly the wired per-thread
/// inputs (prefix of the wired trace), so the projection is not just
/// executable but step-for-step identical to what the product explored.
#[test]
fn projection_matches_the_wired_trace_prefix() {
    let (system, property, horizon) = case_study_with_link_fault(8);
    let verifier =
        ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(horizon)).unwrap();
    let outcome = verifier.verify(&[property]).unwrap();
    let (_, cex) = outcome.violations().next().expect("violation expected");
    for component in verifier.system().components() {
        let projected = verifier.project(cex, &component.name).unwrap();
        let wired = verifier.system().wired_trace(&component.name).unwrap();
        for (t, step) in projected.iter().enumerate() {
            let expected: &TraceStep = wired.step(t % verifier.system().horizon()).unwrap();
            assert_eq!(step, expected, "{} tick {t}", component.name);
        }
    }
}

/// Every counter the two-hyper-period session records, `engine.steals`
/// aside: the four per-thread explorations (24 states each) and the product
/// (33 states), summed. These counts depend only on the explored space, so
/// they read the same on any machine, build and worker count. A changed
/// count is a change to review: update the pin with the change that moves
/// it, and say why.
const CASE_STUDY_WORK: [(&str, u64); 17] = [
    ("engine.eval.equations", 19737),
    ("engine.eval.instants", 228),
    ("engine.eval.passes", 912),
    ("engine.infeasible", 0),
    ("engine.levels", 129),
    ("engine.monitor_steps", 327),
    (
        "engine.monitor_steps.end-to-end-response(cConsStartTimer_sent -> cConsStartTimer_consumed within 8)",
        33,
    ),
    (
        "engine.monitor_steps.end-to-end-response(cConsStopTimer_sent -> cConsStopTimer_consumed within 8)",
        33,
    ),
    (
        "engine.monitor_steps.end-to-end-response(cConsTimeout_sent -> cConsTimeout_consumed within 6)",
        33,
    ),
    (
        "engine.monitor_steps.end-to-end-response(cProdStartTimer_sent -> cProdStartTimer_consumed within 8)",
        33,
    ),
    (
        "engine.monitor_steps.end-to-end-response(cProdStopTimer_sent -> cProdStopTimer_consumed within 8)",
        33,
    ),
    (
        "engine.monitor_steps.end-to-end-response(cProdTimeout_sent -> cProdTimeout_consumed within 4)",
        33,
    ),
    ("engine.monitor_steps.never-raised(*Alarm*)", 129),
    ("engine.pruned", 0),
    ("engine.sliced_slots", 42),
    ("engine.states", 129),
    ("engine.transitions", 228),
];

/// The paper's case study closes in concrete mode: the cone-of-influence
/// slice drops the unobservable `dispatch_count` and frozen-count slots
/// (7, 7, 5 and 5 per thread, 18 in the product), so every thread recurs
/// after its 24-instant hyper-period and the product after 33 instants. A
/// two-hyper-period session therefore proves all 16 built-in verdicts (2
/// per thread, 8 joint), doing exactly the work of `CASE_STUDY_WORK`
/// under any worker count. The connection-latency fault is still caught at
/// instant 9, and its counterexample replays.
#[test]
fn case_study_proves_every_verdict_within_two_hyperperiods() {
    use polychrony_core::{Collector, Session, SessionOptions, VerificationScope};

    for workers in [1, 2, 8] {
        let collector = Collector::counters();
        let mut options = SessionOptions::default();
        options.verify.hyperperiods = 2;
        options.verify.scope = VerificationScope::Product;
        options.verify.workers = workers;
        options.collector = collector.clone();
        let verified = Session::with_options(options)
            .unwrap()
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap()
            .verify()
            .unwrap();
        // Read before the tampered product below adds its own exploration.
        let counts = collector.counter_values();
        let work: Vec<(&str, u64)> = counts
            .iter()
            .filter(|(name, _)| name != "engine.steals")
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        assert_eq!(work, CASE_STUDY_WORK, "{workers} worker(s)");
        let report = verified.verification.as_ref().expect("verification ran");
        let sliced: Vec<(&str, usize)> = report
            .outcomes
            .iter()
            .map(|(thread, outcome)| (thread.as_str(), outcome.stats.sliced_slots))
            .collect();
        assert_eq!(
            sliced,
            [
                ("sysProdCons.prProdCons.thConsTimer", 5),
                ("sysProdCons.prProdCons.thConsumer", 7),
                ("sysProdCons.prProdCons.thProdTimer", 5),
                ("sysProdCons.prProdCons.thProducer", 7),
            ]
        );
        let mut proved = 0;
        for (thread, outcome) in &report.outcomes {
            assert!(outcome.all_proved(), "{thread}: {}", outcome.summary());
            assert_eq!(outcome.stats.states, 24, "{thread}: {}", outcome.summary());
            proved += outcome.verdicts.len();
        }
        let product = verified.product.as_ref().expect("product scope");
        let stats = &product.outcome.stats;
        assert!(
            product.outcome.all_proved(),
            "{}",
            product.outcome.summary()
        );
        assert_eq!(
            (stats.states, stats.transitions, stats.sliced_slots),
            (33, 132, 18)
        );
        proved += product.outcome.verdicts.len();
        assert_eq!(proved, 16);

        let simulated = &verified.simulated;
        let mut links = simulated.product_links();
        inject_connection_latency(&mut links, "cProdStartTimer", 8).expect("the link exists");
        let tampered = simulated.verify_product_with_links(links).unwrap();
        let (_, cex) = tampered
            .outcome
            .violations()
            .find(|(property, _)| matches!(property, Property::EndToEndResponse { .. }))
            .expect("the delayed connection is caught");
        assert_eq!(cex.violation_instant, 9);
        let replay = tampered.verifier.replay(cex).unwrap();
        assert!(replay.reproduced, "{}", replay.detail);
    }
}
