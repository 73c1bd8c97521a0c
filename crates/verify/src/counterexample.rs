//! Concrete counterexample traces and their deterministic replay in the
//! co-simulator.
//!
//! A violation found by the explorer comes back as the exact input trace
//! that drives the process from its initial state into the violation. The
//! trace replays in [`polysim::Simulator`] — an independent execution path —
//! so every verdict can be confirmed outside the model checker.

use polysim::Simulator;
use serde::{Deserialize, Serialize};
use signal_moc::error::SignalError;
use signal_moc::process::Process;
use signal_moc::trace::Trace;

use crate::property::Property;

/// A concrete violation witness: the input trace leading from the initial
/// state to the violating instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The violated property.
    pub property: Property,
    /// The input steps from the initial state up to and including the
    /// violating instant.
    pub inputs: Trace,
    /// Index of the violating instant (the last step of `inputs`).
    pub violation_instant: usize,
    /// Human-readable witness detail (e.g. the alarm signal that fired, or
    /// the evaluator error that makes the scheduled step non-executable).
    pub witness: String,
}

/// Outcome of replaying a counterexample in the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// `true` when the independent simulator run reproduces the violation.
    pub reproduced: bool,
    /// What the replay observed.
    pub detail: String,
    /// The full resolved trace of the replay (empty when the replay ends in
    /// the expected evaluator error of a deadlock counterexample).
    pub trace: Trace,
}

impl Counterexample {
    /// Replays the counterexample in a fresh [`Simulator`] over `process`:
    /// [`Counterexample::replay_with_options`] under default
    /// [`crate::VerifyOptions`].
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors; evaluation errors are part
    /// of the expected outcome for deadlock counterexamples and are folded
    /// into the report.
    pub fn replay(&self, process: &Process) -> Result<ReplayReport, SignalError> {
        self.replay_with_options(process, &crate::explore::VerifyOptions::default())
    }

    /// Replays the counterexample in a fresh [`Simulator`] over `process`.
    ///
    /// For a free-mode dead-end counterexample (a `DeadlockFree` violation
    /// whose `violation_instant` lies past the end of `inputs`), the
    /// candidate input valuations are re-enumerated by a verifier built
    /// under `options`, and each is probed in a cloned simulator: the dead
    /// end counts as reproduced only when every progress candidate is
    /// rejected, so a pruning bug in the checker cannot be rubber-stamped by
    /// its own replay.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors.
    pub fn replay_with_options(
        &self,
        process: &Process,
        options: &crate::explore::VerifyOptions,
    ) -> Result<ReplayReport, SignalError> {
        let mut simulator = Simulator::new(process)?;
        if matches!(self.property, Property::DeadlockFree)
            && self.violation_instant >= self.inputs.len()
        {
            return Ok(self.replay_dead_end(process, options, &mut simulator));
        }
        Ok(self.replay_in(&mut simulator))
    }

    /// Confirms a free-mode dead end: the prefix must execute, and every
    /// enumerated progress candidate (rebuilt independently from the
    /// process under `options`) must be rejected from the dead state.
    fn replay_dead_end(
        &self,
        process: &Process,
        options: &crate::explore::VerifyOptions,
        simulator: &mut Simulator,
    ) -> ReplayReport {
        use crate::explore::Verifier;

        simulator.reset();
        let out = match simulator.run(&self.inputs) {
            Ok(out) => out,
            Err(e) => {
                return ReplayReport {
                    reproduced: false,
                    detail: format!("counterexample prefix failed to execute: {e}"),
                    trace: Trace::new(),
                }
            }
        };
        // A free-mode dead end means no progress valuation is feasible:
        // non-silent ones for an open process, the silent one for a closed
        // process (whose silent step is its autonomous progress). Probe
        // exactly those.
        let all_candidates = match Verifier::new(process, options.clone())
            .and_then(|verifier| verifier.free_candidates().map(|(candidates, _)| candidates))
        {
            Ok(candidates) => candidates,
            Err(e) => {
                return ReplayReport {
                    reproduced: false,
                    detail: format!("cannot rebuild the candidate enumeration: {e}"),
                    trace: out,
                }
            }
        };
        let has_nonsilent = all_candidates.iter().any(|c| !c.is_silent());
        let candidates: Vec<signal_moc::trace::TraceStep> = all_candidates
            .into_iter()
            .filter(|c| !c.is_silent() || !has_nonsilent)
            .collect();
        for candidate in &candidates {
            let mut probe = simulator.clone();
            let one: Trace = std::iter::once(candidate.clone()).collect();
            if probe.run(&one).is_ok() {
                let present: Vec<String> =
                    candidate.iter().map(|(n, v)| format!("{n}={v}")).collect();
                return ReplayReport {
                    reproduced: false,
                    detail: format!(
                        "dead end refuted: candidate valuation {{{}}} executes",
                        present.join(" ")
                    ),
                    trace: out,
                };
            }
        }
        ReplayReport {
            reproduced: true,
            detail: format!(
                "prefix replays; all {} candidate valuations rejected from the dead state",
                candidates.len()
            ),
            trace: out,
        }
    }

    /// Replays the counterexample in an existing simulator, resetting its
    /// state first so the replay starts from the initial state.
    pub fn replay_in(&self, simulator: &mut Simulator) -> ReplayReport {
        simulator.reset();
        match &self.property {
            Property::DeadlockFree => {
                // The prefix up to the dead state must execute; the final
                // scheduled step (when present in the trace) must not.
                let prefix: Trace = self
                    .inputs
                    .iter()
                    .take(self.violation_instant)
                    .cloned()
                    .collect();
                match simulator.run(&prefix) {
                    Ok(out) => {
                        if self.violation_instant >= self.inputs.len() {
                            // Without the process the candidates cannot be
                            // re-enumerated here; `Counterexample::replay`
                            // performs the full dead-end probing.
                            return ReplayReport {
                                reproduced: true,
                                detail: "prefix replays; dead end not independently probed \
                                         (use Counterexample::replay for candidate probing)"
                                    .to_string(),
                                trace: out,
                            };
                        }
                        let last: Trace = self
                            .inputs
                            .iter()
                            .skip(self.violation_instant)
                            .cloned()
                            .collect();
                        match simulator.run(&last) {
                            Err(e) => ReplayReport {
                                reproduced: true,
                                detail: format!(
                                    "scheduled step {} is not executable: {e}",
                                    self.violation_instant
                                ),
                                trace: out,
                            },
                            Ok(_) => ReplayReport {
                                reproduced: false,
                                detail: "scheduled step executed during replay".to_string(),
                                trace: simulator.history().clone(),
                            },
                        }
                    }
                    Err(e) => ReplayReport {
                        reproduced: false,
                        detail: format!("counterexample prefix failed to execute: {e}"),
                        trace: Trace::new(),
                    },
                }
            }
            property => {
                // One replay path for every trace property — built-in shape
                // or user LTL: re-run the compiled monitor over the resolved
                // trace of an independent simulator run and check that the
                // earliest violation lands on the claimed instant.
                let monitor = property
                    .monitor()
                    .expect("every non-deadlock property compiles to a monitor");
                match simulator.run(&self.inputs) {
                    Ok(out) => {
                        let mut registers = monitor.initial();
                        let mut violated_at = None;
                        for (t, step) in out.iter().enumerate() {
                            let observed = monitor.step(&mut registers, step);
                            if !observed.holds {
                                violated_at = Some((t, observed));
                                break;
                            }
                        }
                        match violated_at {
                            Some((t, observed)) => ReplayReport {
                                reproduced: t == self.violation_instant,
                                detail: format!(
                                    "{} at instant {t} of the replay",
                                    property.violation_witness(&observed)
                                ),
                                trace: out,
                            },
                            None => ReplayReport {
                                reproduced: false,
                                detail: format!(
                                    "property `{}` not violated in the replay",
                                    property.name()
                                ),
                                trace: out,
                            },
                        }
                    }
                    Err(e) => ReplayReport {
                        reproduced: false,
                        detail: format!("replay failed to execute: {e}"),
                        trace: Trace::new(),
                    },
                }
            }
        }
    }

    /// Renders the input trace as a compact instant-by-instant listing.
    pub fn render(&self) -> String {
        let mut out = format!(
            "counterexample for {} ({} instants, violation at instant {}):\n",
            self.property.name(),
            self.inputs.len(),
            self.violation_instant
        );
        for (t, step) in self.inputs.iter().enumerate() {
            let present: Vec<String> = step
                .iter()
                .filter(|(_, v)| v.as_bool())
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            out.push_str(&format!(
                "  t={t:<3} {}\n",
                if present.is_empty() {
                    "(all low)".to_string()
                } else {
                    present.join(" ")
                }
            ));
        }
        out.push_str(&format!("  witness: {}\n", self.witness));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::expr::Expr;
    use signal_moc::value::{Value, ValueType};

    fn alarm_process() -> Process {
        let mut b = ProcessBuilder::new("frame");
        b.input("Deadline", ValueType::Boolean);
        b.input("Resume", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.define(
            "Alarm",
            Expr::and(Expr::var("Deadline"), Expr::not(Expr::var("Resume"))),
        );
        b.synchronize(&["Deadline", "Resume", "Alarm"]);
        b.build().unwrap()
    }

    fn step(deadline: bool, resume: bool) -> signal_moc::trace::TraceStep {
        let mut s = signal_moc::trace::TraceStep::new();
        s.set("Deadline", Value::Bool(deadline));
        s.set("Resume", Value::Bool(resume));
        s
    }

    #[test]
    fn never_raised_replay_reproduces() {
        let cex = Counterexample {
            property: Property::NeverRaised("*Alarm*".into()),
            inputs: vec![step(false, false), step(true, false)]
                .into_iter()
                .collect(),
            violation_instant: 1,
            witness: "Alarm".into(),
        };
        let report = cex.replay(&alarm_process()).unwrap();
        assert!(report.reproduced, "{}", report.detail);
        assert_eq!(report.trace.len(), 2);
        assert!(cex.render().contains("witness: Alarm"));
    }

    #[test]
    fn never_raised_replay_detects_non_reproduction() {
        let cex = Counterexample {
            property: Property::NeverRaised("*Alarm*".into()),
            inputs: vec![step(true, true)].into_iter().collect(),
            violation_instant: 0,
            witness: "Alarm".into(),
        };
        let report = cex.replay(&alarm_process()).unwrap();
        assert!(!report.reproduced);
    }

    #[test]
    fn bounded_response_replay_reproduces() {
        let cex = Counterexample {
            property: Property::BoundedResponse {
                trigger: "Deadline".into(),
                response: "Resume".into(),
                bound: 1,
            },
            inputs: vec![step(true, false), step(false, false)]
                .into_iter()
                .collect(),
            violation_instant: 1,
            witness: "deadline expired".into(),
        };
        let report = cex.replay(&alarm_process()).unwrap();
        assert!(report.reproduced, "{}", report.detail);
    }
}
