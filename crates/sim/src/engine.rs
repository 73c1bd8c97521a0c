//! The simulation engine: repeated execution of a flat SIGNAL process over
//! scheduler-provided timing traces, with alarm monitoring, profiling and
//! VCD export.
//!
//! [`simulate_folded`] is the production path: it steps the evaluator on
//! borrowed instants and folds each one, by signal id, into the report and
//! the waveform, so no trace is kept. [`Simulator`] keeps the whole
//! history as owned steps; it is the reference path (counterexample
//! replay, lockstep co-simulation, the differential oracles) and reports
//! over its history through the same fold, so each rule is written once.

use serde::{Deserialize, Serialize};
use signal_moc::error::SignalError;
use signal_moc::eval::Evaluator;
use signal_moc::process::Process;
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::Value;

use crate::profile::{ProfileReport, SignalProfile};
use crate::vcd::{write_vcd, VcdRecorder};

/// Summary of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Number of instants executed.
    pub instants: usize,
    /// Number of instants where at least one `*Alarm*` signal was true —
    /// timing-property violations detected during co-simulation.
    pub alarm_instants: usize,
    /// Profiling counters over the produced trace.
    pub profile: ProfileReport,
}

impl SimulationReport {
    /// Returns `true` when no alarm fired during the run.
    pub fn is_alarm_free(&self) -> bool {
        self.alarm_instants == 0
    }
}

/// Presence count, active count and largest integer of one signal.
#[derive(Debug, Clone, Copy, Default)]
struct SignalTally {
    presence: usize,
    active: usize,
    max_int: Option<i64>,
}

/// A [`SimulationReport`] folded one instant at a time from the present
/// signals, each keyed by its index in a name table: the evaluator's
/// signal ids in [`simulate_folded`], a trace's sorted signal names in
/// [`Simulator::report`].
#[derive(Debug, Clone)]
pub(crate) struct SimulationTally {
    /// Per index: whether the signal's name contains `Alarm`.
    alarm: Vec<bool>,
    signals: Vec<SignalTally>,
    instants: usize,
    alarm_instants: usize,
}

impl SimulationTally {
    /// An empty tally over the signals of `names` (index → name).
    pub(crate) fn new(names: &[String]) -> Self {
        Self {
            alarm: names.iter().map(|name| name.contains("Alarm")).collect(),
            signals: vec![SignalTally::default(); names.len()],
            instants: 0,
            alarm_instants: 0,
        }
    }

    /// Folds one instant: an alarm instant has some present signal whose
    /// name contains `Alarm` and whose value reads true.
    pub(crate) fn record<'v>(&mut self, present: impl IntoIterator<Item = (usize, &'v Value)>) {
        self.instants += 1;
        let mut alarm = false;
        for (index, value) in present {
            let tally = &mut self.signals[index];
            tally.presence += 1;
            if value.as_bool() {
                tally.active += 1;
                alarm |= self.alarm[index];
            }
            if let Some(i) = value.as_int() {
                tally.max_int = Some(tally.max_int.map_or(i, |m| m.max(i)));
            }
        }
        if alarm {
            self.alarm_instants += 1;
        }
    }

    /// The report, each signal present at least once named by `names`,
    /// the table the tally was created over.
    pub(crate) fn finish(self, names: &[String]) -> SimulationReport {
        let instants = self.instants;
        let signals = self
            .signals
            .iter()
            .zip(names)
            .filter(|(tally, _)| tally.presence > 0)
            .map(|(tally, name)| {
                let profile = SignalProfile {
                    name: name.clone(),
                    presence_count: tally.presence,
                    active_count: tally.active,
                    presence_rate: if instants == 0 {
                        0.0
                    } else {
                        tally.presence as f64 / instants as f64
                    },
                    max_int: tally.max_int,
                };
                (name.clone(), profile)
            })
            .collect();
        SimulationReport {
            instants,
            alarm_instants: self.alarm_instants,
            profile: ProfileReport { instants, signals },
        }
    }
}

/// The present signals of `step`, each keyed by its index in `names`: the
/// sorted signal names of the step's trace ([`Trace::signals`]), which
/// hold every name of the step.
pub(crate) fn indexed<'a>(
    step: &'a TraceStep,
    names: &'a [String],
) -> impl Iterator<Item = (usize, &'a Value)> {
    // Both the step and `names` are sorted by name: walk them in step.
    let mut index = 0;
    step.iter().map(move |(name, value)| {
        while names[index] != *name {
            index += 1;
        }
        (index, value)
    })
}

/// The report of a whole trace, folded step by step.
pub(crate) fn report_over(trace: &Trace) -> SimulationReport {
    let names = trace.signals();
    let mut tally = SimulationTally::new(&names);
    for step in trace.iter() {
        tally.record(indexed(step, &names));
    }
    tally.finish(&names)
}

/// Simulates `process` (flat) over `inputs` on borrowed instants: each
/// instant is resolved by [`Evaluator::step_resolved`] and folded, by
/// signal id, into the report and, when `vcd` gives a module name and a
/// timescale in nanoseconds, into a VCD waveform. No step is materialised
/// and no history is kept.
///
/// The report, the waveform and the error are those of
/// [`Simulator::run`] followed by [`Simulator::report`] and
/// [`Simulator::to_vcd`] on a fresh simulator.
///
/// # Errors
///
/// Propagates evaluator construction errors and the error of the first
/// failing instant.
pub fn simulate_folded(
    process: &Process,
    inputs: &Trace,
    vcd: Option<(&str, u64)>,
) -> Result<(SimulationReport, Option<String>), SignalError> {
    let mut evaluator = Evaluator::new(process)?;
    let mut tally = SimulationTally::new(evaluator.resolved().names());
    let mut recorder = vcd.map(|_| VcdRecorder::new(evaluator.resolved().names().len()));
    for (t, input) in inputs.iter().enumerate() {
        let step = evaluator.step_resolved(t, input)?;
        tally.record(step.present());
        if let Some(recorder) = &mut recorder {
            recorder.record(step.present());
        }
    }
    let names = evaluator.resolved().names();
    let waveform = recorder
        .zip(vcd)
        .map(|(recorder, (module, timescale_ns))| recorder.finish(names, module, timescale_ns));
    Ok((tally.finish(names), waveform))
}

/// A simulator for a flat SIGNAL process that keeps its whole history.
///
/// The simulator owns the evaluator state, so successive calls to
/// [`Simulator::run`] continue the execution (delays keep their values),
/// which is how multiple hyper-periods are chained. It is the reference
/// path of [`simulate_folded`], and the one counterexample replay and
/// lockstep co-simulation read owned steps from.
#[derive(Debug, Clone)]
pub struct Simulator {
    evaluator: Evaluator,
    history: Trace,
}

impl Simulator {
    /// Creates a simulator for `process` (which must be flat — see
    /// [`signal_moc::process::ProcessModel::flatten`]).
    ///
    /// # Errors
    ///
    /// Propagates evaluator construction errors (invalid or non-flat
    /// process).
    pub fn new(process: &Process) -> Result<Self, SignalError> {
        Ok(Self {
            evaluator: Evaluator::new(process)?,
            history: Trace::new(),
        })
    }

    /// Runs the process over `inputs`, appending to the simulation history,
    /// and returns the output trace of this run.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (synchronisation violations, type errors,
    /// non-executable instants).
    pub fn run(&mut self, inputs: &Trace) -> Result<Trace, SignalError> {
        let out = self.evaluator.run(inputs)?;
        self.history.extend(out.iter().cloned());
        Ok(out)
    }

    /// The accumulated trace of every run so far.
    pub fn history(&self) -> &Trace {
        &self.history
    }

    /// Resets the evaluator state and clears the history.
    pub fn reset(&mut self) {
        self.evaluator.reset();
        self.history = Trace::new();
    }

    /// Builds a report over the accumulated history.
    pub fn report(&self) -> SimulationReport {
        report_over(&self.history)
    }

    /// Exports the accumulated history as VCD text (one instant =
    /// `timescale_ns` nanoseconds).
    pub fn to_vcd(&self, module: &str, timescale_ns: u64) -> String {
        write_vcd(&self.history, module, timescale_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::builder::ProcessBuilder;
    use signal_moc::expr::Expr;
    use signal_moc::value::{Value, ValueType};

    fn alarm_counter() -> Process {
        let mut b = ProcessBuilder::new("frame");
        b.input("Dispatch", ValueType::Boolean);
        b.input("Deadline", ValueType::Boolean);
        b.input("Resume", ValueType::Boolean);
        b.output("count", ValueType::Integer);
        b.output("Alarm", ValueType::Boolean);
        b.define(
            "count",
            Expr::default(
                Expr::when(
                    Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
                    Expr::var("Dispatch"),
                ),
                Expr::delay(Expr::var("count"), Value::Int(0)),
            ),
        );
        b.define(
            "Alarm",
            Expr::and(Expr::var("Deadline"), Expr::not(Expr::var("Resume"))),
        );
        b.synchronize(&["Dispatch", "Deadline", "Resume", "count", "Alarm"]);
        b.build().unwrap()
    }

    fn frame(dispatch: bool, deadline: bool, resume: bool) -> signal_moc::trace::TraceStep {
        let mut step = signal_moc::trace::TraceStep::new();
        step.set("Dispatch", Value::Bool(dispatch));
        step.set("Deadline", Value::Bool(deadline));
        step.set("Resume", Value::Bool(resume));
        step
    }

    #[test]
    fn state_persists_across_runs() {
        let mut sim = Simulator::new(&alarm_counter()).unwrap();
        let inputs: Trace = vec![frame(true, false, true), frame(false, true, true)]
            .into_iter()
            .collect();
        sim.run(&inputs).unwrap();
        sim.run(&inputs).unwrap();
        let history = sim.history();
        assert_eq!(history.len(), 4);
        let counts: Vec<i64> = history
            .flow_of("count")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 1, 2, 2]);
    }

    #[test]
    fn report_counts_alarms() {
        let mut sim = Simulator::new(&alarm_counter()).unwrap();
        let inputs: Trace = vec![
            frame(true, false, false),
            frame(false, true, false), // deadline without resume -> alarm
            frame(true, true, true),
        ]
        .into_iter()
        .collect();
        sim.run(&inputs).unwrap();
        let report = sim.report();
        assert_eq!(report.instants, 3);
        assert_eq!(report.alarm_instants, 1);
        assert!(!report.is_alarm_free());
        assert_eq!(report.profile.activations("Dispatch"), 2);
    }

    #[test]
    fn reset_clears_history_and_state() {
        let mut sim = Simulator::new(&alarm_counter()).unwrap();
        let inputs: Trace = vec![frame(true, false, true)].into_iter().collect();
        sim.run(&inputs).unwrap();
        sim.reset();
        assert_eq!(sim.history().len(), 0);
        sim.run(&inputs).unwrap();
        let counts: Vec<i64> = sim
            .history()
            .flow_of("count")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![1]);
    }

    #[test]
    fn vcd_export_contains_signals() {
        let mut sim = Simulator::new(&alarm_counter()).unwrap();
        let inputs: Trace = vec![frame(true, false, true), frame(false, true, false)]
            .into_iter()
            .collect();
        sim.run(&inputs).unwrap();
        let vcd = sim.to_vcd("frame", 1_000_000);
        assert!(vcd.contains("$var"));
        assert!(vcd.contains("count"));
        assert!(vcd.contains("Alarm"));
    }
}
