//! Random flat SIGNAL processes and input steps, shared by the
//! differential oracles of this directory (`evaluator_oracle.rs`,
//! `simulation_oracle.rs`) and by the unit tests of the crate's bound
//! monitor atoms and free candidates: the whole process and its inputs
//! derive from one sampled seed.

use signal_moc::eval::Evaluator;
use signal_moc::expr::Expr;
use signal_moc::process::{Equation, Process, SignalDecl, SignalRole};
use signal_moc::trace::TraceStep;
use signal_moc::value::{Value, ValueType};

/// A splitmix64 stream: the whole random process and its inputs derive
/// from one sampled seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const TYPES: [ValueType; 3] = [ValueType::Boolean, ValueType::Integer, ValueType::Event];

fn random_value(rng: &mut Rng, ty: ValueType) -> Value {
    match ty {
        ValueType::Boolean => Value::Bool(rng.chance(50)),
        ValueType::Integer => Value::Int([0, 1, -1, 2, 7, i64::MIN][rng.below(6)]),
        _ => Value::Event,
    }
}

/// The initial value of a `delay` or `cell`, of any type.
fn random_init(rng: &mut Rng) -> Value {
    let ty = TYPES[rng.below(3)];
    random_value(rng, ty)
}

fn random_const(rng: &mut Rng) -> Expr {
    match rng.below(3) {
        0 => Expr::bool(rng.chance(50)),
        1 => Expr::int([0, 1, 2, -1][rng.below(4)]),
        _ => Expr::event(),
    }
}

fn random_expr(rng: &mut Rng, signals: &[SignalDecl], depth: usize) -> Expr {
    let var = |rng: &mut Rng| Expr::var(signals[rng.below(signals.len())].name.clone());
    if depth == 0 || rng.chance(30) {
        return if rng.chance(80) {
            var(rng)
        } else {
            random_const(rng)
        };
    }
    let sub = |rng: &mut Rng| random_expr(rng, signals, depth - 1);
    match rng.below(13) {
        0 => Expr::not(sub(rng)),
        1 => Expr::Unary(signal_moc::expr::UnOp::Neg, Box::new(sub(rng))),
        2 => Expr::add(sub(rng), sub(rng)),
        3 => Expr::Binary(
            signal_moc::expr::BinOp::Div,
            Box::new(sub(rng)),
            Box::new(sub(rng)),
        ),
        4 => Expr::Binary(
            signal_moc::expr::BinOp::Mod,
            Box::new(sub(rng)),
            Box::new(sub(rng)),
        ),
        5 => Expr::eq(sub(rng), sub(rng)),
        6 => Expr::and(sub(rng), sub(rng)),
        7 => Expr::delay(sub(rng), random_init(rng)),
        8 => Expr::when(sub(rng), sub(rng)),
        9 => Expr::default(sub(rng), sub(rng)),
        10 => Expr::cell(sub(rng), sub(rng), random_init(rng)),
        11 => Expr::clock_of(sub(rng)),
        _ => Expr::clock_when(sub(rng)),
    }
}

/// A random flat process: 1–3 inputs, 2–6 locals (each totally defined,
/// sometimes with an extra partial definition, partially defined by one or
/// two equations, or left undefined), one
/// constant-defined local inside a clock constraint, random clock
/// constraints and exclusions — then its equations shuffled.
pub fn random_process(seed: u64) -> Process {
    let mut rng = Rng(seed);
    let mut process = Process::new("random");
    let decl = |name: String, ty: ValueType, role: SignalRole| SignalDecl { name, ty, role };
    for i in 0..1 + rng.below(3) {
        let ty = TYPES[rng.below(3)];
        process
            .signals
            .push(decl(format!("i{i}"), ty, SignalRole::Input));
    }
    let locals = 2 + rng.below(5);
    for l in 0..locals {
        let ty = TYPES[rng.below(3)];
        process
            .signals
            .push(decl(format!("s{l}"), ty, SignalRole::Local));
    }
    process
        .signals
        .push(decl("k".into(), ValueType::Boolean, SignalRole::Local));
    let signals = process.signals.clone();

    for l in 0..locals {
        let target = format!("s{l}");
        match rng.below(10) {
            0..=5 => {
                process.equations.push(Equation::Definition {
                    target: target.clone(),
                    expr: random_expr(&mut rng, &signals, 3),
                });
                // Occasionally a second writer of the same signal, so a
                // slot can change under a definition that does not read it.
                if rng.chance(25) {
                    process.equations.push(Equation::PartialDefinition {
                        target,
                        expr: random_expr(&mut rng, &signals, 3),
                    });
                }
            }
            6..=8 => {
                for _ in 0..1 + rng.below(2) {
                    process.equations.push(Equation::PartialDefinition {
                        target: target.clone(),
                        expr: random_expr(&mut rng, &signals, 3),
                    });
                }
            }
            _ => {}
        }
    }
    // The `Error := false` shape of the thread template: a constant, free
    // to take any clock, synchronised with other signals.
    process.equations.push(Equation::Definition {
        target: "k".into(),
        expr: Expr::bool(false),
    });
    for _ in 0..1 + rng.below(3) {
        let mut members: Vec<String> = (0..2 + rng.below(3))
            .map(|_| signals[rng.below(signals.len())].name.clone())
            .collect();
        if rng.chance(50) {
            members.push("k".into());
        }
        members.dedup();
        process
            .equations
            .push(Equation::ClockConstraint { signals: members });
    }
    if rng.chance(30) {
        let members = (0..2)
            .map(|_| signals[rng.below(signals.len())].name.clone())
            .collect();
        process
            .equations
            .push(Equation::ClockExclusion { signals: members });
    }
    // Fisher–Yates shuffle of the equation order.
    for i in (1..process.equations.len()).rev() {
        let j = rng.below(i + 1);
        process.equations.swap(i, j);
    }
    process
}

/// A random input step: each input present with probability one half, one
/// step in four silent, and sometimes an entry for a name that is not an
/// input, which both evaluators must ignore.
pub fn random_step(rng: &mut Rng, process: &Process) -> TraceStep {
    let mut step = TraceStep::new();
    if rng.chance(25) {
        return step;
    }
    for input in process.inputs() {
        if rng.chance(50) {
            step.set(input.name.clone(), random_value(rng, input.ty));
        }
    }
    if rng.chance(20) {
        step.set(["a", "j", "s0", "zz"][rng.below(4)], Value::Bool(true));
    }
    step
}

/// Up to 12 input steps the process accepts one after the other, each the
/// first of at most 8 random candidates a copy of the evaluator accepts,
/// then one more random step, which may fail.
pub fn accepted_steps(process: &Process, rng: &mut Rng) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    if let Ok(mut evaluator) = Evaluator::new(process) {
        'instants: for t in 0..12 {
            for _ in 0..8 {
                let step = random_step(rng, process);
                let mut probe = evaluator.clone();
                if probe.step(t, &step).is_ok() {
                    evaluator = probe;
                    steps.push(step);
                    continue 'instants;
                }
            }
            break;
        }
    }
    steps.push(random_step(rng, process));
    steps
}
