//! E11 — state-space exploration throughput: states per second of the
//! parallel breadth-first reachability engine as the worker count grows
//! (the scale knob of `polyverify`), plus the scheduled exploration of the
//! case-study producer over its hyper-period.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use aadl::case_study::producer_consumer_instance;
use asme2ssme::{system_under_schedule, thread_under_schedule};
use polychrony_core::affine_clocks::AffineRelation;
use polychrony_core::port_link_for;
use polyverify::{
    DispatchFeasibility, Domain, InputSpace, PortLink, ProductComponent, ProductSystem,
    ProductVerifier, Property, Verifier, VerifyOptions,
};
use sched::SchedulingPolicy;
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

/// A bank of `width` per-input miss counters: counter `i` increments while
/// input `d<i>` holds and resets when it drops, so the free exploration
/// reaches one state per combination of counter values — a state space that
/// grows combinatorially with the depth bound, which is what the
/// worker-scaling measurement needs.
fn wide_watcher(width: usize) -> Process {
    let mut b = ProcessBuilder::new("wide");
    let mut sync_names = Vec::new();
    for i in 0..width {
        let d = format!("d{i}");
        let counter = format!("c{i}");
        b.input(&d, ValueType::Boolean);
        b.local(&counter, ValueType::Integer);
        let prev = Expr::delay(Expr::var(&counter), Value::Int(0));
        b.define(
            &counter,
            Expr::default(
                Expr::when(Expr::add(prev, Expr::int(1)), Expr::var(&d)),
                Expr::int(0),
            ),
        );
        sync_names.push(d);
        sync_names.push(counter);
    }
    b.output("Alarm", ValueType::Boolean);
    b.define("Alarm", Expr::ge(Expr::var("c0"), Expr::int(1_000)));
    let mut sync: Vec<&str> = sync_names.iter().map(String::as_str).collect();
    sync.push("Alarm");
    b.synchronize(&sync);
    b.build().unwrap()
}

/// A bounded observable toggle plus an unbounded invisible step counter —
/// the symbolic-closure workload. Concretely the space never closes (the
/// counter mints a fresh state per tick); under the interval domain the
/// widening folds the counter tail and exploration finishes with `proved`.
fn toggle_with_invisible_counter() -> Process {
    let mut b = ProcessBuilder::new("toggle");
    b.input("d", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("flag", ValueType::Boolean);
    b.local("total", ValueType::Integer);
    b.define(
        "flag",
        Expr::not(Expr::delay(Expr::var("flag"), Value::Bool(false))),
    );
    b.define(
        "total",
        Expr::add(Expr::delay(Expr::var("total"), Value::Int(0)), Expr::int(1)),
    );
    b.define(
        "Alarm",
        Expr::and(Expr::var("d"), Expr::not(Expr::var("d"))),
    );
    b.synchronize(&["d", "flag", "total", "Alarm"]);
    b.build().unwrap()
}

/// The case-study product (all translated threads under the joint EDF
/// schedule, event-port connections wired), explored over `hyperperiods`
/// repetitions of the hyper-period — the headline workload of the
/// exploration core.
fn case_study_product(hyperperiods: usize) -> (ProductVerifier, Vec<Property>, usize) {
    let instance = producer_consumer_instance().unwrap();
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
    let links: Vec<PortLink> = connections.iter().map(port_link_for).collect();
    let system = ProductSystem::new(components, links).unwrap();
    let bound = system.horizon() * hyperperiods;
    let properties = vec![
        Property::NeverRaised("*Alarm*".into()),
        Property::DeadlockFree,
    ];
    let verifier =
        ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(bound)).unwrap();
    (verifier, properties, bound)
}

/// A synthetic three-stage pipeline product: each stage counts the events
/// delivered on its `in_in` port, and the stages are chained by two
/// latency-1 links. The per-stage counters keep the joint state changing
/// every tick, so the exploration runs the full depth bound.
fn synthetic_3thread_product(
    horizon: usize,
    hyperperiods: usize,
) -> (ProductVerifier, Vec<Property>, usize) {
    fn stage(name: &str) -> Process {
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
        b.define("Alarm", Expr::ge(Expr::var("seen"), Expr::int(1_000_000)));
        b.synchronize(&["Dispatch", "out_output_time", "in_in", "seen", "Alarm"]);
        b.build().unwrap()
    }
    let mut components = Vec::new();
    for (i, emit_every) in [3usize, 4, 6].into_iter().enumerate() {
        let name = format!("s{i}");
        let mut schedule = Trace::new();
        for t in 0..horizon {
            schedule.set(t, "Dispatch", Value::Bool(t % emit_every == 0));
            schedule.set(t, "out_output_time", Value::Bool(t % emit_every == 1));
            schedule.set(t, "in_in", Value::Bool(false));
        }
        components.push(ProductComponent {
            name,
            process: stage(&format!("stage{i}")),
            schedule,
        });
    }
    let links = vec![
        PortLink {
            name: "l01".into(),
            source: "s0".into(),
            source_signal: "out_output_time".into(),
            target: "s1".into(),
            target_signal: "in_in".into(),
            target_freeze: None,
            target_count: None,
            latency: 1,
        },
        PortLink {
            name: "l12".into(),
            source: "s1".into(),
            source_signal: "out_output_time".into(),
            target: "s2".into(),
            target_signal: "in_in".into(),
            target_freeze: None,
            target_count: None,
            latency: 1,
        },
    ];
    let system = ProductSystem::new(components, links).unwrap();
    let bound = horizon * hyperperiods;
    let properties = vec![
        Property::NeverRaised("*Alarm*".into()),
        Property::DeadlockFree,
    ];
    let verifier =
        ProductVerifier::new(system, VerifyOptions::default().with_depth_bound(bound)).unwrap();
    (verifier, properties, bound)
}

fn bench_state_space(c: &mut Criterion) {
    let process = wide_watcher(3);
    let properties = [Property::NeverRaised("*Alarm*".into())];

    let mut group = c.benchmark_group("state_space");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    // Worker scaling on the free-input exploration of the wide watcher.
    let depth = 6usize;
    for workers in [1usize, 2, 4] {
        let verifier = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_workers(workers)
                .with_depth_bound(depth),
        )
        .unwrap();
        let states = verifier
            .verify(&InputSpace::Free, &properties)
            .unwrap()
            .stats
            .states;
        group.throughput(Throughput::Elements(states as u64));
        group.bench_with_input(
            BenchmarkId::new("free_bfs_workers", workers),
            &verifier,
            |b, verifier| {
                b.iter(|| {
                    verifier
                        .verify(black_box(&InputSpace::Free), black_box(&properties))
                        .unwrap()
                })
            },
        );
    }

    // Clock-calculus pruning: the same free exploration under a
    // dispatch-feasibility oracle that pins each watched input to an affine
    // clock (d0 on (2,0), d1 on (3,0), d2 on (4,0)), so candidate
    // valuations off those clocks are skipped before enumeration.
    {
        let mut oracle = DispatchFeasibility::new();
        oracle.insert("d0", AffineRelation::new(2, 0).unwrap());
        oracle.insert("d1", AffineRelation::new(3, 0).unwrap());
        oracle.insert("d2", AffineRelation::new(4, 0).unwrap());
        let verifier = Verifier::new(
            &process,
            VerifyOptions::default()
                .with_workers(2)
                .with_depth_bound(depth)
                .with_oracle(oracle),
        )
        .unwrap();
        let stats = verifier
            .verify(&InputSpace::Free, &properties)
            .unwrap()
            .stats;
        assert!(stats.pruned > 0, "the oracle should prune candidates");
        group.throughput(Throughput::Elements(stats.states as u64));
        group.bench_function("free_bfs_pruned_oracle", |b| {
            b.iter(|| {
                verifier
                    .verify(black_box(&InputSpace::Free), black_box(&properties))
                    .unwrap()
            })
        });
    }

    // Symbolic closure (docs/SYMBOLIC.md): the interval domain folding an
    // unbounded invisible counter into a closed quotient with a genuine
    // proof, versus the concrete engine exploring the same process to a
    // depth bound and only passing bounded.
    {
        let toggle = toggle_with_invisible_counter();
        let interval = Verifier::new(
            &toggle,
            VerifyOptions::default()
                .with_workers(2)
                .with_domain(Domain::Interval),
        )
        .unwrap();
        let outcome = interval.verify(&InputSpace::Free, &properties).unwrap();
        assert!(outcome.all_proved(), "the quotient space must close");
        assert!(outcome.stats.widened > 0, "the counter must widen");
        group.throughput(Throughput::Elements(outcome.stats.states as u64));
        group.bench_function("interval_closure_proved", |b| {
            b.iter(|| {
                interval
                    .verify(black_box(&InputSpace::Free), black_box(&properties))
                    .unwrap()
            })
        });

        let concrete = Verifier::new(
            &toggle,
            VerifyOptions::default()
                .with_workers(2)
                .with_depth_bound(24),
        )
        .unwrap();
        let states = concrete
            .verify(&InputSpace::Free, &properties)
            .unwrap()
            .stats
            .states;
        group.throughput(Throughput::Elements(states as u64));
        group.bench_function("interval_closure_concrete_bounded", |b| {
            b.iter(|| {
                concrete
                    .verify(black_box(&InputSpace::Free), black_box(&properties))
                    .unwrap()
            })
        });
    }

    // Scheduled exploration of the case-study producer over one
    // hyper-period (the pipeline's verification phase).
    let instance = producer_consumer_instance().unwrap();
    let (thread_model, schedule) = thread_under_schedule(
        &instance,
        "thProducer",
        SchedulingPolicy::EarliestDeadlineFirst,
    )
    .unwrap();
    let flat = thread_model.flat.clone();
    let inputs = thread_model.timing_trace(&schedule, 1);
    let space = InputSpace::Scheduled(inputs);
    let scheduled_properties = [
        Property::NeverRaised("*Alarm*".into()),
        Property::DeadlockFree,
    ];
    let verifier = Verifier::new(
        &flat,
        VerifyOptions::default()
            .with_workers(2)
            .with_depth_bound(24),
    )
    .unwrap();
    group.throughput(Throughput::Elements(24));
    group.bench_function("scheduled_producer_hyperperiod", |b| {
        b.iter(|| {
            verifier
                .verify(black_box(&space), black_box(&scheduled_properties))
                .unwrap()
        })
    });

    // The case-study product over four hyper-periods: the headline workload
    // (the acceptance metric of the exploration-core refactor tracks its
    // states/sec).
    let (product, product_properties, _) = case_study_product(4);
    let states = product.verify(&product_properties).unwrap().stats.states;
    group.throughput(Throughput::Elements(states as u64));
    group.bench_function("case_study_product", |b| {
        b.iter(|| product.verify(black_box(&product_properties)).unwrap())
    });

    // A synthetic three-stage pipeline product whose per-stage counters keep
    // the joint state fresh for the whole depth bound.
    let (synthetic, synthetic_properties, _) = synthetic_3thread_product(12, 4);
    let states = synthetic
        .verify(&synthetic_properties)
        .unwrap()
        .stats
        .states;
    group.throughput(Throughput::Elements(states as u64));
    group.bench_function("synthetic_3thread_product", |b| {
        b.iter(|| synthetic.verify(black_box(&synthetic_properties)).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_state_space);
criterion_main!(benches);
