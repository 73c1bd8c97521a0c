//! Free-input exploration of the case-study threads under their dispatch
//! oracles, the way perfbench's `open_threads` workload runs it: each
//! thread's own `Dispatch` relation from the affine export, a depth bound
//! of one hyper-period, and the alarm property next to the dispatch
//! witness `never raised(*Dispatch*)`.
//!
//! The pinned counts describe today's oracle, which prunes every candidate
//! in which a constrained signal is *present*. `Dispatch` is present on
//! every tick of a thread, so every exploration stops at depth 2 (the
//! ROADMAP's "Make oracle-pruned free exploration explore the system").
//! Making the oracle prune firing instead of presence will change these
//! numbers on purpose; until then they must not move.
//!
//! Each exploration runs under a counters collector, and the test pins every
//! counter it records (each depends only on the explored space), so the
//! evaluator's work is pinned too: instants, fixpoint passes and equation
//! evaluations. A changed count is a change to review: update the
//! pin with the change that moves it, and say why.

use polychrony_core::polyverify::{
    Collector, DispatchFeasibility, InputSpace, Property, Verdict, Verifier, VerifyOptions,
};
use polychrony_core::Session;

/// Per thread: states, transitions, infeasible, pruned, peak frontier and
/// depth of the parent exploration.
const EXPECTED: [(&str, [usize; 6]); 4] = [
    ("thProducer", [4, 131, 500, 393, 3, 2]),
    ("thConsumer", [4, 231, 100, 693, 3, 2]),
    ("thProdTimer", [6, 231, 150, 1155, 5, 2]),
    ("thConsTimer", [6, 231, 150, 1155, 5, 2]),
];

/// Per thread: the evaluator's instants, fixpoint passes and equation
/// evaluations, and the sliced slots of the exploration.
const WORK: [(&str, [u64; 4]); 4] = [
    ("thProducer", [631, 1024, 20190, 7]),
    ("thConsumer", [331, 1024, 23175, 7]),
    ("thProdTimer", [381, 1074, 16818, 5]),
    ("thConsTimer", [381, 1074, 16818, 5]),
];

/// The row of `thread` in a pin table.
fn pinned<T: Copy>(table: &[(&str, T)], thread: &str) -> T {
    table
        .iter()
        .find(|(name, _)| *name == thread)
        .map(|(_, row)| *row)
        .unwrap_or_else(|| panic!("unexpected thread {thread}"))
}

/// The counters of one exploration with the pinned `stats` and `work`:
/// every level expands one depth, and each transition steps both monitors.
fn expected_counters(stats: [usize; 6], work: [u64; 4]) -> [(&'static str, u64); 12] {
    let [states, transitions, infeasible, pruned, _peak_frontier, depth] =
        stats.map(|count| count as u64);
    let [instants, passes, equations, sliced] = work;
    [
        ("engine.eval.equations", equations),
        ("engine.eval.instants", instants),
        ("engine.eval.passes", passes),
        ("engine.infeasible", infeasible),
        ("engine.levels", depth),
        ("engine.monitor_steps", 2 * transitions),
        ("engine.monitor_steps.never raised(*Dispatch*)", transitions),
        ("engine.monitor_steps.never-raised(*Alarm*)", transitions),
        ("engine.pruned", pruned),
        ("engine.sliced_slots", sliced),
        ("engine.states", states),
        ("engine.transitions", transitions),
    ]
}

#[test]
fn oracle_pruned_case_study_threads_explore_a_pinned_space_under_any_worker_count() {
    let translated = Session::new()
        .parse_case_study()
        .and_then(|parsed| parsed.instantiate("sysProdCons.impl"))
        .and_then(|instantiated| instantiated.schedule())
        .and_then(|scheduled| scheduled.translate())
        .unwrap();
    let oracle = translated.affine.dispatch_feasibility();
    let properties = [
        Property::NeverRaised("*Alarm*".into()),
        Property::parse_ltl("never raised(*Dispatch*)").unwrap(),
    ];
    let mut seen = Vec::new();
    for unit in &translated.thread_units {
        let name = unit.model.thread_name.as_str();
        let stats = pinned(&EXPECTED, name);
        let work = pinned(&WORK, name);
        let relation = oracle
            .relation(name)
            .expect("every thread has a dispatch clock");
        let mut own = DispatchFeasibility::new();
        own.insert("Dispatch", *relation);
        for workers in [1usize, 2, 8] {
            let collector = Collector::counters();
            let options = VerifyOptions::default()
                .with_collector(collector.clone())
                .with_workers(workers)
                .with_depth_bound(24)
                .with_oracle(own.clone());
            let outcome = Verifier::new(&unit.model.flat, options)
                .unwrap()
                .verify(&InputSpace::Free, &properties)
                .unwrap();
            let counts = collector.counter_values();
            let recorded: Vec<(&str, u64)> = counts
                .iter()
                .map(|(counter, value)| (counter.as_str(), *value))
                .collect();
            assert_eq!(
                recorded,
                expected_counters(stats, work),
                "{name} with {workers} worker(s)"
            );
            let s = &outcome.stats;
            assert_eq!(
                [
                    s.states,
                    s.transitions,
                    s.infeasible,
                    s.pruned,
                    s.peak_frontier,
                    s.depth
                ],
                stats,
                "{name} with {workers} worker(s)"
            );
            assert_eq!(
                outcome.verdicts[0].verdict,
                Verdict::PassedBounded { depth: 24 },
                "{name}: *Alarm* with {workers} worker(s)"
            );
            match &outcome.verdicts[1].verdict {
                Verdict::Violated(cex) => assert_eq!(cex.violation_instant, 0, "{name}"),
                other => panic!("{name}: the dispatch witness must be violated, got {other:?}"),
            }
        }
        seen.push(name.to_string());
    }
    seen.sort();
    assert_eq!(
        seen,
        ["thConsTimer", "thConsumer", "thProdTimer", "thProducer"]
    );
}
