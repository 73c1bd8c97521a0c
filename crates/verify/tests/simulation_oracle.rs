//! Differential oracle of the folded simulation: `simulate_folded`, which
//! folds each resolved instant into the report and the waveform, must give
//! the report, the VCD text and the error text of the reference path,
//! `Simulator::run` followed by `report()` and `to_vcd()`, with the
//! waveform captured and without — on random flat processes over random
//! input traces (every prefix of a run of accepted steps and one more
//! step, so failing instants are included) and on the case-study threads
//! over one to three hyper-periods.

use proptest::prelude::*;

use polysim::{simulate_folded, SimulationReport, Simulator};
use signal_moc::expr::Expr;
use signal_moc::process::{Equation, Process, SignalDecl, SignalRole};
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

mod case_study;
mod random_process;
use random_process::{accepted_steps, random_process, Rng};

const MODULE: &str = "m";
const TIMESCALE_NS: u64 = 1_000_000;

/// A random process with three more locals nothing else reads, so they
/// never change whether an instant fails: `constant` resolves to a
/// constant at every instant, which counts as present, and `mixed` is the
/// boolean `true` at the first instant (while the delayed `first` reads
/// true) and the integer 3 afterwards, so the waveform must type it by its
/// first value.
fn random_simulated_process(seed: u64) -> Process {
    let mut process = random_process(seed);
    let locals = [
        ("constant", ValueType::Integer, Expr::int(3)),
        (
            "first",
            ValueType::Boolean,
            Expr::delay(Expr::bool(false), Value::Bool(true)),
        ),
        (
            "mixed",
            ValueType::Integer,
            Expr::default(
                Expr::when(Expr::bool(true), Expr::var("first")),
                Expr::int(3),
            ),
        ),
    ];
    for (name, ty, expr) in locals {
        process.signals.push(SignalDecl {
            name: name.into(),
            ty,
            role: SignalRole::Local,
        });
        process.equations.push(Equation::Definition {
            target: name.into(),
            expr,
        });
    }
    process
}

/// The reference path on a fresh simulator: the report and the waveform,
/// or the error text.
fn reference(process: &Process, inputs: &Trace) -> Result<(SimulationReport, String), String> {
    let mut simulator = Simulator::new(process).map_err(|e| e.to_string())?;
    simulator.run(inputs).map_err(|e| e.to_string())?;
    let vcd = simulator.to_vcd(MODULE, TIMESCALE_NS);
    assert_declarations(&vcd, simulator.history());
    Ok((simulator.report(), vcd))
}

/// Both paths feed one VCD recorder, so the header rule is checked here on
/// its own: the `$var` lines name every signal `history` shows, in name
/// order, each typed by its first present value.
fn assert_declarations(vcd: &str, history: &Trace) {
    let declared: Vec<(&str, &str)> = vcd
        .lines()
        .filter_map(|line| line.strip_prefix("$var "))
        .map(|var| {
            let fields: Vec<&str> = var.split_whitespace().collect();
            (fields[3], fields[0])
        })
        .collect();
    let names = history.signals();
    let expected: Vec<(&str, &str)> = names
        .iter()
        .map(|name| {
            let first = history.iter().find_map(|step| step.get(name));
            let ty = match first {
                Some(Value::Int(_)) => "reg",
                Some(Value::Real(_) | Value::Text(_)) => "real",
                _ => "wire",
            };
            (name.as_str(), ty)
        })
        .collect();
    assert_eq!(declared, expected, "VCD declarations");
}

/// Both paths over `inputs`, the folded one with the waveform captured and
/// without. Returns whether the run succeeded.
fn assert_agree(process: &Process, inputs: &Trace) -> bool {
    let expected = reference(process, inputs);
    for capture in [None, Some((MODULE, TIMESCALE_NS))] {
        let folded = simulate_folded(process, inputs, capture).map_err(|e| e.to_string());
        match (&expected, folded) {
            (Ok((report, vcd)), Ok((folded_report, folded_vcd))) => {
                assert_eq!(&folded_report, report, "report, capture {capture:?}");
                assert_eq!(
                    folded_vcd.as_deref(),
                    capture.map(|_| vcd.as_str()),
                    "waveform"
                );
            }
            (Err(expected), Err(folded)) => assert_eq!(&folded, expected, "error text"),
            (expected, folded) => {
                panic!("reference gives {expected:?}, the folded run {folded:?}")
            }
        }
    }
    expected.is_ok()
}

proptest! {
    #[test]
    fn folded_simulation_matches_the_simulator(seed in any::<u64>()) {
        let process = random_simulated_process(seed);
        let mut rng = Rng(seed ^ 0x5A5A_5A5A);
        let steps = accepted_steps(&process, &mut rng);
        // Every prefix: the ones before the first failing instant succeed,
        // the others fail at that instant on both paths.
        for len in 0..=steps.len() {
            let inputs: Trace = steps[..len].iter().cloned().collect();
            assert_agree(&process, &inputs);
        }
    }
}

/// Every case-study thread under its schedule, one to three hyper-periods.
#[test]
fn case_study_threads_fold_like_the_simulator() {
    let (models, schedule) = case_study::scheduled_threads();
    assert_eq!(models.len(), 4);
    for model in &models {
        for hyperperiods in 1..=3 {
            let inputs = model.timing_trace(&schedule, hyperperiods);
            assert!(
                assert_agree(&model.flat, &inputs),
                "{} fails over {hyperperiods} hyper-period(s)",
                model.thread_name
            );
        }
    }
}
