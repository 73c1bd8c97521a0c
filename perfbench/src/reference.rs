//! Reference answers that do not come from the engine under test.
//!
//! A verdict of the model checker is confirmed against an independent
//! execution: the scheduled thread (or the lockstep co-simulation of the
//! wired product) is run in `polysim`, and each property's first violation
//! is read off the resolved trace with the past-time LTL trace semantics
//! (`polyverify::ltl::first_violation`), not with the compiled monitor
//! automata the explorer steps.

use polychrony_core::polysim::Simulator;
use polychrony_core::polyverify::ltl::first_violation;
use polychrony_core::polyverify::{
    LockstepCoSim, ProductSystem, Property, Verdict, VerificationOutcome,
};
use polychrony_core::signal_moc::process::Process;
use polychrony_core::signal_moc::trace::{Trace, TraceStep};
use polychrony_core::Simulated;

/// The witness query of the workloads: a thread that ever dispatches
/// violates it, at its first dispatch. A model checker that answers it
/// `passed` has lost the thread's behaviour.
pub const WITNESS: &str = "never raised(*Dispatch*)";

pub fn witness() -> Property {
    Property::parse_ltl(WITNESS).expect("the witness query parses")
}

/// The instant of a property's first violation on a resolved trace, with
/// `failure` the first non-executable instant (a deadlock), if any.
pub fn first_violation_of(
    property: &Property,
    steps: &[TraceStep],
    failure: Option<usize>,
) -> Option<usize> {
    match property.ltl() {
        Some(ltl) => first_violation(ltl.invariant(), steps),
        None => failure,
    }
}

/// Runs `process` over `inputs` one instant at a time in `polysim`,
/// returning the resolved steps and the first instant that is not
/// executable.
pub fn simulate(process: &Process, inputs: &Trace) -> (Vec<TraceStep>, Option<usize>) {
    let mut steps = Vec::with_capacity(inputs.len());
    let Ok(mut simulator) = Simulator::new(process) else {
        return (steps, Some(0));
    };
    for (t, step) in inputs.iter().enumerate() {
        let one: Trace = std::iter::once(step.clone()).collect();
        match simulator.run(&one) {
            Ok(out) => steps.push(out.step(0).cloned().unwrap_or_default()),
            Err(_) => return (steps, Some(t)),
        }
    }
    (steps, None)
}

/// The wired product of `simulated` co-simulated in lockstep for `ticks`
/// instants.
pub fn lockstep(
    simulated: &Simulated,
    ticks: usize,
) -> Result<(Vec<TraceStep>, Option<usize>), String> {
    let system = ProductSystem::new(simulated.product_components(), simulated.product_links())
        .map_err(|e| format!("product assembly failed: {e}"))?;
    let mut cosim =
        LockstepCoSim::new(&system).map_err(|e| format!("lockstep assembly failed: {e}"))?;
    let (joint, failure) = cosim.run(ticks);
    Ok((joint.iter().cloned().collect(), failure.map(|f| f.tick)))
}

/// The violation instant a verdict claims (`None` for a pass, proved or
/// bounded).
pub fn verdict_instant(verdict: &Verdict) -> Option<usize> {
    match verdict {
        Verdict::Violated(cex) => Some(cex.violation_instant),
        Verdict::Proved | Verdict::PassedBounded { .. } => None,
    }
}

/// How many verdicts of `outcome` are decided: `proved` or `violated`
/// rather than `passed-bounded`.
pub fn decided_count(outcome: &VerificationOutcome) -> u64 {
    outcome
        .verdicts
        .iter()
        .filter(|v| !matches!(v.verdict, Verdict::PassedBounded { .. }))
        .count() as u64
}

/// How a rendered verdict line classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rendered {
    Proved,
    Bounded,
    Violated(usize),
}

/// Classifies a verdict summary text (`Verdict::summary`).
fn classify(text: &str) -> Option<Rendered> {
    if text.starts_with("proved") {
        Some(Rendered::Proved)
    } else if text.starts_with("passed-bounded") {
        Some(Rendered::Bounded)
    } else {
        let rest = text.strip_prefix("VIOLATED at instant ")?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok().map(Rendered::Violated)
    }
}

/// Every verdict line of a summary text, classified.
pub fn rendered_verdicts(summary: &str) -> Vec<Rendered> {
    summary
        .lines()
        .filter_map(|line| {
            let body = line.strip_prefix("  ")?;
            [" proved", " passed-bounded", " VIOLATED at instant "]
                .iter()
                .filter_map(|marker| body.find(marker))
                .min()
                .and_then(|at| classify(body[at..].trim_start()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMARY: &str = "explored 97 states / 96 transitions at depth 96 (1 worker(s), truncated, peak frontier 1)
  never-raised(*Alarm*)                    passed-bounded (no violation within 96 instants; not a proof)
  never raised(*Dispatch*)                 VIOLATED at instant 3 (Dispatch raised)
  deadlock-free                            proved (state space exhausted)
";

    #[test]
    fn verdict_lines_classify_in_order() {
        assert_eq!(
            rendered_verdicts(SUMMARY),
            vec![Rendered::Bounded, Rendered::Violated(3), Rendered::Proved]
        );
    }
}
