//! The aggregated report produced by one run of the tool chain.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use polyobs::RunRecord;
use polysim::SimulationReport;
use polyverify::VerificationOutcome;
use sched::{BaselineReport, StaticSchedule};
use signal_moc::analysis::StaticAnalysisReport;

/// The product-verification section of a tool-chain report: the joint
/// verdict over the synchronous product of the communicating threads, with
/// event-port connections as synchronising actions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductVerificationReport {
    /// Names of the composed thread components, in exploration order.
    pub components: Vec<String>,
    /// Names of the event-port connections wired into the product.
    pub connections: Vec<String>,
    /// Names of the checked joint properties (alarm freedom, deadlock
    /// freedom, one end-to-end response per connection).
    pub properties: Vec<String>,
    /// The joint exploration outcome.
    pub outcome: VerificationOutcome,
}

impl ProductVerificationReport {
    /// Returns `true` when no joint property is violated.
    pub fn is_violation_free(&self) -> bool {
        self.outcome.is_violation_free()
    }

    /// A compact multi-line rendering.
    pub fn summary(&self) -> String {
        format!(
            "[product of {}; links: {}]\n{}",
            self.components.join(" x "),
            if self.connections.is_empty() {
                "none".to_string()
            } else {
                self.connections.join(", ")
            },
            self.outcome.summary()
        )
    }
}

/// The state-space verification section of a tool-chain report: one
/// exploration outcome per thread process, checked against the standard
/// safety properties (`never-raised(*Alarm*)` and deadlock freedom) under
/// the synthesised schedule, plus the joint product verdict when the phase
/// ran with [`VerificationScope::Product`](crate::VerificationScope).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Worker threads used by the parallel reachability engine.
    pub workers: usize,
    /// Number of hyper-periods covered by the exploration bound.
    pub hyperperiods: u64,
    /// Names of the checked properties.
    pub properties: Vec<String>,
    /// Per-thread exploration outcomes (keyed by thread instance path).
    pub outcomes: BTreeMap<String, VerificationOutcome>,
    /// The joint product verdict (`None` in per-thread scope).
    pub product: Option<ProductVerificationReport>,
}

impl VerificationReport {
    /// Returns `true` when no thread violates any checked property and the
    /// product verdict, when present, is violation-free as well.
    pub fn is_violation_free(&self) -> bool {
        self.outcomes
            .values()
            .all(VerificationOutcome::is_violation_free)
            && self
                .product
                .as_ref()
                .map(ProductVerificationReport::is_violation_free)
                .unwrap_or(true)
    }

    /// Total number of distinct states explored across all threads.
    pub fn total_states(&self) -> usize {
        self.outcomes.values().map(|o| o.stats.states).sum()
    }

    /// Total number of executed transitions across all threads.
    pub fn total_transitions(&self) -> usize {
        self.outcomes.values().map(|o| o.stats.transitions).sum()
    }

    /// A compact multi-line rendering, one block per thread (plus one for
    /// the product verdict when present).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (thread, outcome) in &self.outcomes {
            out.push_str(&format!("[{thread}]\n{}", outcome.summary()));
        }
        if let Some(product) = &self.product {
            out.push_str(&product.summary());
        }
        out
    }
}

/// Everything the tool chain learned about one AADL model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToolChainReport {
    /// Name of the root component instance.
    pub root: String,
    /// Number of AADL component instances.
    pub component_count: usize,
    /// Number of AADL component instances per category keyword.
    pub category_counts: BTreeMap<String, usize>,
    /// The extracted periodic task set rendered as text.
    pub task_set_summary: String,
    /// The synthesised static schedule.
    pub schedule: StaticSchedule,
    /// Number of affine clocks exported from the schedule.
    pub affine_clock_count: usize,
    /// Number of synchronizability constraints verified on the export.
    pub verified_constraints: usize,
    /// Number of SIGNAL processes generated by the translation.
    pub signal_process_count: usize,
    /// Total number of SIGNAL equations generated.
    pub signal_equation_count: usize,
    /// Static analysis (clock calculus, determinism, deadlock) of the
    /// flattened model.
    pub static_analysis: StaticAnalysisReport,
    /// Cheddar-like baseline schedulability analyses of the same task set.
    pub baseline: BaselineReport,
    /// Per-thread co-simulation reports (keyed by thread instance path).
    pub simulations: BTreeMap<String, SimulationReport>,
    /// State-space verification outcomes (`None` when the verification
    /// phase was disabled via [`crate::VerificationOptions::enabled`]).
    pub verification: Option<VerificationReport>,
    /// VCD dump of the thread selected by the simulation phase's
    /// [`VcdCapture`](crate::VcdCapture) option (empty when capture is off
    /// or the selected thread does not exist).
    pub vcd: String,
    /// Name of the thread [`Self::vcd`] was captured from, when any.
    pub vcd_thread: Option<String>,
    /// Telemetry summary of the run: per-phase wall times and attributes
    /// plus the final counter snapshot of the session's collector (empty
    /// counters when the collector was noop). Equality on this field — and
    /// therefore on whole reports — compares the phase-name sequence only:
    /// wall times and counter values are measurements, not results.
    pub run_record: RunRecord,
}

impl ToolChainReport {
    /// Returns `true` when every validation step passed: a valid schedule,
    /// no causality cycle, deterministic clock calculus and alarm-free
    /// simulations.
    pub fn all_checks_passed(&self) -> bool {
        self.schedule.is_valid()
            && self.static_analysis.causality_cycle.is_none()
            && self.static_analysis.determinism.is_deterministic()
            && self
                .simulations
                .values()
                .all(SimulationReport::is_alarm_free)
            && self
                .verification
                .as_ref()
                .map(VerificationReport::is_violation_free)
                .unwrap_or(true)
    }

    /// A compact human-readable summary, used by the examples.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("root system         : {}\n", self.root));
        out.push_str(&format!("component instances : {}\n", self.component_count));
        out.push_str(&format!(
            "signal processes    : {} ({} equations)\n",
            self.signal_process_count, self.signal_equation_count
        ));
        out.push_str(&format!(
            "clocks              : {} classes, {} master(s), hierarchy depth {}\n",
            self.static_analysis.clock_count,
            self.static_analysis.master_clock_count,
            self.static_analysis.hierarchy_depth
        ));
        out.push_str(&format!(
            "determinism         : {}\n",
            if self.static_analysis.determinism.is_deterministic() {
                "deterministic"
            } else {
                "NON-DETERMINISTIC"
            }
        ));
        out.push_str(&format!(
            "deadlock            : {}\n",
            if self.static_analysis.causality_cycle.is_none() {
                "none"
            } else {
                "CYCLE FOUND"
            }
        ));
        out.push_str(&format!(
            "schedule            : {} over hyper-period {} ({} jobs, idle {})\n",
            self.schedule.policy,
            self.schedule.hyperperiod,
            self.schedule.entries.len(),
            self.schedule.idle_time()
        ));
        out.push_str(&format!(
            "affine clocks       : {} exported, {} constraints verified\n",
            self.affine_clock_count, self.verified_constraints
        ));
        out.push_str(&format!(
            "simulation          : {} thread(s), {} alarm instant(s)\n",
            self.simulations.len(),
            self.simulations
                .values()
                .map(|s| s.alarm_instants)
                .sum::<usize>()
        ));
        match &self.verification {
            Some(verification) => {
                out.push_str(&format!(
                    "verification        : {} thread(s), {} states, {} transitions, {}\n",
                    verification.outcomes.len(),
                    verification.total_states(),
                    verification.total_transitions(),
                    if verification.is_violation_free() {
                        "no violation"
                    } else {
                        "VIOLATED"
                    }
                ));
                match &verification.product {
                    Some(product) => out.push_str(&format!(
                        "product             : {} component(s), {} link(s), {} states, {}\n",
                        product.components.len(),
                        product.connections.len(),
                        product.outcome.stats.states,
                        if product.is_violation_free() {
                            "no violation"
                        } else {
                            "VIOLATED"
                        }
                    )),
                    None => out.push_str("product             : per-thread scope\n"),
                }
            }
            None => out.push_str("verification        : disabled\n"),
        }
        out.push_str(&format!(
            "vcd capture         : {}\n",
            match &self.vcd_thread {
                Some(thread) => thread.as_str(),
                None => "none",
            }
        ));
        out.push_str(&format!(
            "baseline (RM RTA)   : {}\n",
            if self.baseline.response_times.schedulable {
                "schedulable"
            } else {
                "not schedulable"
            }
        ));
        if !self.run_record.phases.is_empty() {
            out.push_str("phases              :\n");
            out.push_str(&self.run_record.summary());
            out.push('\n');
        }
        out
    }
}
