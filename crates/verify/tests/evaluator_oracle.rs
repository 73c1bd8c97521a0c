//! Differential oracle of the change-driven evaluator: `Evaluator::step`
//! must give the same resolved step, the same memory after the step and
//! the same error text as `Evaluator::step_reference`, the fixpoint that
//! re-evaluates every equation on every pass — on random flat processes
//! (partial definitions, constant-defined members of clock constraints,
//! every equation order), random input steps (absent inputs and the silent
//! step included), runs of accepted steps and the memories those steps
//! reach.

use proptest::prelude::*;

use signal_moc::eval::Evaluator;
use signal_moc::expr::Expr;
use signal_moc::process::{Equation, Process, SignalDecl, SignalRole};
use signal_moc::trace::TraceStep;
use signal_moc::value::{Value, ValueType};

mod case_study;
mod random_process;
use case_study::producer_under_schedule;
use random_process::{accepted_steps, random_process, random_step, Rng};

/// One instant through both evaluators, compared as text: the resolved
/// step or the error text, then the memory reached. (Division of booleans
/// and events goes through reals, so a NaN can appear, and a NaN never
/// compares equal to itself.)
fn step_both(changed: &mut Evaluator, reference: &mut Evaluator, t: usize, step: &TraceStep) {
    let fast = format!("{:?}", changed.step(t, step).map_err(|e| e.to_string()));
    let slow = format!(
        "{:?}",
        reference.step_reference(t, step).map_err(|e| e.to_string())
    );
    assert_eq!(fast, slow, "instant {t} on {step:?}");
    let (fast, slow) = (changed.memory(), reference.memory());
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "memory after {t}");
}

/// Steps both evaluators through `steps` from the initial memory.
fn assert_equivalent(process: &Process, steps: &[TraceStep]) {
    let Ok(mut changed) = Evaluator::new(process) else {
        return;
    };
    let mut reference = changed.clone();
    for (t, step) in steps.iter().enumerate() {
        step_both(&mut changed, &mut reference, t, step);
    }
}

proptest! {
    #[test]
    fn change_driven_steps_match_the_reference_fixpoint(seed in any::<u64>()) {
        let process = random_process(seed);
        let mut rng = Rng(seed ^ 0xA5A5_A5A5);
        let steps: Vec<TraceStep> = (0..12).map(|_| random_step(&mut rng, &process)).collect();
        assert_equivalent(&process, &steps);
    }

    #[test]
    fn accepted_runs_step_like_the_reference(seed in any::<u64>()) {
        // A run of steps the process accepts carries `delay` and `cell`
        // memory from instant to instant, which runs of random steps rarely
        // do: most random processes accept no random step at all. So each
        // case tries up to 8 processes drawn from its seed, and stops at
        // the first whose run accepts a step; one more random step ends
        // every run.
        let mut rng = Rng(seed);
        for _ in 0..8 {
            let process = random_process(rng.next());
            let steps = accepted_steps(&process, &mut rng);
            assert_equivalent(&process, &steps);
            if steps.len() > 1 {
                break;
            }
        }
    }

    #[test]
    fn every_reached_memory_steps_like_the_reference(seed in any::<u64>()) {
        // Reach a memory along one random run, then try every input of a
        // second batch from it, restoring the memory before each.
        let process = random_process(seed);
        let Ok(mut walker) = Evaluator::new(&process) else {
            return;
        };
        let mut rng = Rng(seed.rotate_left(17));
        for t in 0..rng.below(8) {
            let _ = walker.step(t, &random_step(&mut rng, &process));
        }
        let memory = walker.memory();
        let mut changed = walker.clone();
        let mut reference = walker;
        for _ in 0..8 {
            let step = random_step(&mut rng, &process);
            changed.restore_memory(&memory).unwrap();
            reference.restore_memory(&memory).unwrap();
            step_both(&mut changed, &mut reference, 9, &step);
        }
    }
}

/// Why the evaluator replays source order instead of evaluating in
/// dependency order: `Error := false` resolves to a constant, which a
/// clock constraint counts as present, so on the silent step thProducer
/// fails its `Dispatch ^= … ^= Error …` constraint in source order, yet
/// accepts the same instant once the clock constraints come first. Both
/// evaluators must agree in both orders.
#[test]
fn producer_silent_step_depends_on_equation_order_in_both_evaluators() {
    let (flat, _) = producer_under_schedule();
    let silent = TraceStep::new();

    let mut source_order = Evaluator::new(&flat).unwrap();
    let err = source_order.step(0, &silent).unwrap_err().to_string();
    assert!(
        err.contains("synchronization violated") && err.contains("Error"),
        "{err}"
    );
    assert_equivalent(&flat, std::slice::from_ref(&silent));

    let mut constraints_first = flat.clone();
    constraints_first
        .equations
        .sort_by_key(|eq| !matches!(eq, Equation::ClockConstraint { .. }));
    let mut reordered = Evaluator::new(&constraints_first).unwrap();
    assert!(reordered.step(0, &silent).is_ok());
    assert_equivalent(&constraints_first, &[silent]);
}

/// The producer over its scheduled hyper-period: identical outcomes, and
/// the change-driven evaluator does well under half the reference's
/// equation evaluations.
#[test]
fn producer_schedule_matches_the_reference_with_less_work() {
    let (flat, inputs) = producer_under_schedule();
    let steps: Vec<TraceStep> = inputs.iter().cloned().collect();
    assert_equivalent(&flat, &steps);

    let mut changed = Evaluator::new(&flat).unwrap();
    let mut reference = changed.clone();
    for (t, step) in steps.iter().enumerate() {
        changed.step(t, step).unwrap();
        reference.step_reference(t, step).unwrap();
    }
    let (fast, slow) = (changed.work(), reference.work());
    assert_eq!(fast.instants, steps.len() as u64);
    assert_eq!(slow.instants, steps.len() as u64);
    assert!(
        fast.equations * 5 < slow.equations * 2,
        "change-driven {fast:?} vs reference {slow:?}"
    );
}

/// A chain `x0 := x1, x1 := x2, …` listed against its dependency order
/// resolves one link per pass, so a chain longer than the 64-pass cap stops
/// before it is resolved: the equations the cap leaves dirty must be
/// re-checked after completion exactly as the reference re-checks them.
#[test]
fn the_pass_cap_ends_both_evaluators_alike() {
    for length in [10, 63, 64, 65, 80] {
        let mut process = Process::new("chain");
        let decl = |name: String, role| SignalDecl {
            name,
            ty: ValueType::Integer,
            role,
        };
        process
            .signals
            .push(decl("input".into(), SignalRole::Input));
        for k in 0..length {
            process
                .signals
                .push(decl(format!("x{k}"), SignalRole::Local));
            let next = if k + 1 == length {
                "input".to_string()
            } else {
                format!("x{}", k + 1)
            };
            process.equations.push(Equation::Definition {
                target: format!("x{k}"),
                expr: Expr::var(next),
            });
        }
        let mut given = TraceStep::new();
        given.set("input", Value::Int(3));
        let outcome = Evaluator::new(&process).unwrap().step(0, &given);
        assert_eq!(outcome.is_ok(), length <= 64, "chain of {length}");
        assert_equivalent(&process, &[given, TraceStep::new()]);
    }
}
