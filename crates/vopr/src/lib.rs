//! `polyvopr` — a seeded whole-system chaos harness for the polychrony
//! tool chain, in the spirit of VOPR-style deterministic simulation
//! testing.
//!
//! Each iteration derives a scenario seed from the master seed, generates a
//! complete AADL system (thread counts, periods, deadlines, WCETs,
//! event-port connection topologies, properties), drives it through the
//! full staged pipeline, and cross-checks independent oracles against each
//! other:
//!
//! * **cache oracle** — [`BatchJob::run`](polychrony_core::BatchJob::run)
//!   versus [`BatchJob::run_cached`](polychrony_core::BatchJob::run_cached)
//!   twice through a fresh [`ArtifactCache`](polychrony_core::ArtifactCache)
//!   (a miss, then a simulated hit) must produce identical reports — or
//!   identical rejections;
//! * **monitor oracle** — seeded random past-time LTL formulas are checked
//!   by the compiled monitor automata of the model checker and re-derived
//!   by the reference trace semantics over the simulator's resolved trace;
//! * **lockstep oracle** — every product verdict is re-derived from a
//!   brute-force lockstep co-simulation of the wired thread product;
//! * **slice oracle** — one thread's behaviour (and, when the system is
//!   wired, the thread product) is verified without slicing and under the
//!   cone-of-influence slice; the slice may only strengthen a bounded
//!   verdict into a proof, and its counterexamples must replay;
//! * **replay oracle** — every counterexample must reproduce in the
//!   simulator.
//!
//! A catalogue of injectable faults (deadline overruns, connection
//! latency, dropped deliveries, jittered dispatch, corrupted schedules,
//! drifted counter state) stresses the detection path: an injected fault that goes undetected is
//! a finding, and any violation it provokes must still replay.
//!
//! On any oracle disagreement or panic the harness greedily shrinks the
//! generated system to a minimal one that still fails the same way and
//! prints a replayable scenario seed. The same seed always produces the
//! same systems, the same verdicts and the same shrink result — there is
//! no wall-clock or entropy input anywhere in the loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod daemon;
pub mod gen;
pub mod shrink;

pub use check::{run_scenario, Failure, ScenarioOutcome};
pub use daemon::{run_daemon_load, DaemonLoadReport};
pub use gen::{ConnectionSpec, SystemSpec, ThreadSpec, PERIOD_MENU_MS};
pub use shrink::shrink as shrink_spec;

use std::fmt;

/// Default upper bound on generated thread counts. Small enough that every
/// scenario verifies in milliseconds, large enough to produce non-trivial
/// chains and products.
pub const DEFAULT_MAX_THREADS: usize = 5;

/// Default shrink budget: maximum number of candidate re-checks the
/// shrinker spends on one finding.
pub const DEFAULT_SHRINK_BUDGET: usize = 200;

/// The catalogue of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Delay a thread's completion past its deadline in the scheduled
    /// timing trace
    /// ([`inject_deadline_overrun`](polychrony_core::polyverify::inject_deadline_overrun)).
    DeadlineOverrun,
    /// Add transmission latency to one event-port connection so deliveries
    /// miss the receiver's input freeze
    /// ([`inject_connection_latency`](polychrony_core::polyverify::inject_connection_latency)).
    ConnectionLatency,
    /// Push one connection's latency past the verification window so its
    /// deliveries are dropped entirely
    /// ([`inject_dropped_delivery`](polychrony_core::polyverify::inject_dropped_delivery)).
    DroppedDelivery,
    /// Move every dispatch of a thread later by a fixed jitter
    /// ([`inject_dispatch_jitter`](polychrony_core::polyverify::inject_dispatch_jitter)).
    DispatchJitter,
    /// Flip seeded boolean cells of the scheduled timing trace
    /// ([`inject_schedule_corruption`](polychrony_core::polyverify::inject_schedule_corruption)).
    CorruptedSchedule,
    /// Shift one integer memory init of a thread's behaviour, as if
    /// persisted counter state had decayed; the sliced and unsliced
    /// explorations must still agree on the drifted process
    /// ([`inject_counter_drift`](polychrony_core::polyverify::inject_counter_drift)).
    CounterDrift,
}

impl FaultKind {
    /// Every fault kind, in catalogue order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::DeadlineOverrun,
        FaultKind::ConnectionLatency,
        FaultKind::DroppedDelivery,
        FaultKind::DispatchJitter,
        FaultKind::CorruptedSchedule,
        FaultKind::CounterDrift,
    ];

    /// The stable command-line label of this fault kind.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DeadlineOverrun => "deadline-overrun",
            FaultKind::ConnectionLatency => "connection-latency",
            FaultKind::DroppedDelivery => "dropped-delivery",
            FaultKind::DispatchJitter => "dispatch-jitter",
            FaultKind::CorruptedSchedule => "corrupted-schedule",
            FaultKind::CounterDrift => "counter-drift",
        }
    }

    /// Parses a command-line label back into a fault kind.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.label() == label)
    }

    /// `true` when this fault tampers with connection links and therefore
    /// needs a wired product (at least one connection) to bite.
    pub fn needs_links(self) -> bool {
        matches!(
            self,
            FaultKind::ConnectionLatency | FaultKind::DroppedDelivery
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What went wrong when an oracle disagreed: the classification the
/// shrinker preserves while minimising.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A pipeline phase or oracle panicked.
    Panic,
    /// Cached and uncached runs disagreed (reports, rejections or cache
    /// outcomes).
    CacheMismatch,
    /// The compiled LTL monitor and the reference trace semantics
    /// disagreed on a violation instant.
    MonitorMismatch,
    /// The product checker and the lockstep co-simulation disagreed on a
    /// verdict or violation instant.
    LockstepMismatch,
    /// A counterexample did not reproduce in the simulator.
    ReplayFailed,
    /// An injected fault produced no violation where one was guaranteed.
    FaultUndetected,
    /// The sliced and unsliced explorations disagreed on a verdict shape
    /// (kind or violation instant).
    SliceMismatch,
    /// The change-driven evaluator and the reference fixpoint disagreed on
    /// a resolved step, a memory or an error text.
    EvaluatorMismatch,
    /// The simulate phase's folded reports or waveform and a re-run
    /// through the reference `Simulator` disagreed.
    SimulationMismatch,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::Panic => "panic",
            FindingKind::CacheMismatch => "cache-mismatch",
            FindingKind::MonitorMismatch => "monitor-mismatch",
            FindingKind::LockstepMismatch => "lockstep-mismatch",
            FindingKind::ReplayFailed => "replay-failed",
            FindingKind::FaultUndetected => "fault-undetected",
            FindingKind::SliceMismatch => "slice-mismatch",
            FindingKind::EvaluatorMismatch => "evaluator-mismatch",
            FindingKind::SimulationMismatch => "simulation-mismatch",
        })
    }
}

/// Options of one harness run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoprOptions {
    /// Master seed; each iteration derives its own scenario seed from it.
    pub seed: u64,
    /// Number of scenarios to generate and check.
    pub iterations: u64,
    /// Fault to inject into every scenario (`None` = pure chaos mode: only
    /// the cross-check oracles run).
    pub fault: Option<FaultKind>,
    /// Upper bound on generated thread counts.
    pub max_threads: usize,
    /// Whether findings are shrunk to a minimal failing system.
    pub shrink: bool,
}

impl Default for VoprOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            iterations: 16,
            fault: None,
            max_threads: DEFAULT_MAX_THREADS,
            shrink: true,
        }
    }
}

/// A confirmed harness finding: an oracle disagreement or panic, shrunk to
/// a minimal system that still fails the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The scenario seed that reproduces this finding.
    pub scenario_seed: u64,
    /// The classification of the disagreement.
    pub kind: FindingKind,
    /// Human-readable detail from the failing oracle.
    pub detail: String,
    /// The fault that was being injected, if any.
    pub fault: Option<FaultKind>,
    /// The minimal failing system.
    pub spec: SystemSpec,
    /// Shrink candidates re-checked to reach the minimal system.
    pub shrink_attempts: usize,
}

/// A detected injected fault, shrunk to a minimal system in which the
/// verifier still catches it. This is the *expected* outcome of a fault
/// demo run — the failing system is the generated model, not the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCase {
    /// The scenario seed that reproduces this detection.
    pub scenario_seed: u64,
    /// The injected fault.
    pub fault: FaultKind,
    /// Name of the property that caught it.
    pub property: String,
    /// Violation instant of the counterexample (in ticks).
    pub instant: usize,
    /// The minimal failing system.
    pub spec: SystemSpec,
    /// Shrink candidates re-checked to reach the minimal system.
    pub shrink_attempts: usize,
}

/// The overall verdict of a harness run.
#[derive(Debug, Clone, PartialEq)]
pub enum VoprVerdict {
    /// Every iteration completed without a finding.
    Clean,
    /// Fault mode found, shrank and replayed an injected fault (the
    /// demonstration outcome — the harness itself is healthy).
    Fault(FaultCase),
    /// An oracle disagreement or panic — a real bug in the tool chain or
    /// the harness.
    Bug(Finding),
}

/// The result of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct VoprReport {
    /// Scenarios actually checked (a finding stops the run early).
    pub iterations: u64,
    /// Scenarios whose pipeline and oracles all passed.
    pub passed: u64,
    /// Scenarios the pipeline rejected consistently (e.g. unschedulable
    /// task sets) — a valid outcome, not a finding.
    pub rejected: u64,
    /// The overall verdict.
    pub verdict: VoprVerdict,
    /// The master seed and options the run used (echoed for replay lines).
    pub options: VoprOptions,
}

impl VoprReport {
    /// Process exit code for the CLI: 2 for a bug, 0 otherwise (a detected
    /// injected fault is the expected demo outcome).
    pub fn exit_code(&self) -> i32 {
        match self.verdict {
            VoprVerdict::Bug(_) => 2,
            _ => 0,
        }
    }

    /// The `polychrony vopr --replay …` invocation reproducing a finding.
    fn replay_line(&self, seed: u64, fault: Option<FaultKind>) -> String {
        let mut line = format!("replay: polychrony vopr --replay 0x{seed:016x}");
        if let Some(fault) = fault {
            line.push_str(&format!(" --fault {fault}"));
        }
        if self.options.max_threads != DEFAULT_MAX_THREADS {
            line.push_str(&format!(" --max-threads {}", self.options.max_threads));
        }
        line
    }

    /// Multi-line human-readable rendering of the run.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "vopr: {} iteration(s), {} passed, {} rejected by the pipeline\n",
            self.iterations, self.passed, self.rejected
        );
        match &self.verdict {
            VoprVerdict::Clean => out.push_str("verdict: clean — no oracle disagreement\n"),
            VoprVerdict::Fault(case) => {
                out.push_str(&format!(
                    "verdict: injected {} detected — {} violated at tick {}\n",
                    case.fault, case.property, case.instant
                ));
                out.push_str(&format!(
                    "minimal failing system (after {} shrink attempt(s)):\n{}",
                    case.shrink_attempts,
                    case.spec.summary()
                ));
                out.push_str(&self.replay_line(case.scenario_seed, Some(case.fault)));
                out.push('\n');
            }
            VoprVerdict::Bug(finding) => {
                out.push_str(&format!(
                    "verdict: BUG [{}] {}\n",
                    finding.kind, finding.detail
                ));
                out.push_str(&format!(
                    "minimal failing system (after {} shrink attempt(s)):\n{}",
                    finding.shrink_attempts,
                    finding.spec.summary()
                ));
                out.push_str(&self.replay_line(finding.scenario_seed, finding.fault));
                out.push('\n');
            }
        }
        out
    }
}

/// The splitmix64 finaliser used to derive per-iteration scenario seeds
/// from the master seed. Matching the vendored `StdRng` stream mixer keeps
/// the whole harness on one well-studied generator family.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the scenario seed of iteration `index` under `master`. Printed
/// in replay lines; `--replay` takes this value literally.
pub fn scenario_seed(master: u64, index: u64) -> u64 {
    splitmix64(master ^ splitmix64(index).rotate_left(17))
}

/// Checks one scenario seed end to end and folds the result into a
/// [`VoprVerdict`], shrinking any finding. Returns `None` when the
/// scenario passed or was consistently rejected (the run continues).
fn check_one(
    seed: u64,
    options: &VoprOptions,
    passed: &mut u64,
    rejected: &mut u64,
    progress: &mut dyn FnMut(String),
) -> Option<VoprVerdict> {
    let spec = SystemSpec::generate(seed, options.max_threads, options.fault);
    match run_scenario(&spec, seed, options.fault) {
        Ok(ScenarioOutcome::Passed) => {
            *passed += 1;
            None
        }
        Ok(ScenarioOutcome::Rejected { .. }) => {
            *rejected += 1;
            None
        }
        Ok(ScenarioOutcome::FaultDetected {
            fault,
            property,
            instant,
        }) => {
            progress(format!(
                "seed 0x{seed:016x}: injected {fault} caught ({property} violated at tick {instant}); shrinking"
            ));
            let (spec, attempts) = if options.shrink {
                shrink_spec(
                    spec,
                    |candidate| {
                        matches!(
                            run_scenario(candidate, seed, Some(fault)),
                            Ok(ScenarioOutcome::FaultDetected { .. })
                        )
                    },
                    DEFAULT_SHRINK_BUDGET,
                )
            } else {
                (spec, 0)
            };
            // Re-check the minimal system to report its own property and
            // instant (shrinking can move the violation).
            let (property, instant) = match run_scenario(&spec, seed, Some(fault)) {
                Ok(ScenarioOutcome::FaultDetected {
                    property, instant, ..
                }) => (property, instant),
                _ => (property, instant),
            };
            Some(VoprVerdict::Fault(FaultCase {
                scenario_seed: seed,
                fault,
                property,
                instant,
                spec,
                shrink_attempts: attempts,
            }))
        }
        Err(failure) => {
            let kind = failure.kind;
            progress(format!(
                "seed 0x{seed:016x}: {} — {}; shrinking",
                kind, failure.detail
            ));
            let (spec, attempts) = if options.shrink {
                shrink_spec(
                    spec,
                    |candidate| {
                        matches!(
                            run_scenario(candidate, seed, options.fault),
                            Err(f) if f.kind == kind
                        )
                    },
                    DEFAULT_SHRINK_BUDGET,
                )
            } else {
                (spec, 0)
            };
            let detail = match run_scenario(&spec, seed, options.fault) {
                Err(f) => f.detail,
                _ => failure.detail,
            };
            Some(VoprVerdict::Bug(Finding {
                scenario_seed: seed,
                kind,
                detail,
                fault: options.fault,
                spec,
                shrink_attempts: attempts,
            }))
        }
    }
}

/// Runs the harness: `iterations` seeded scenarios through the full
/// pipeline and oracle battery, stopping at the first finding (which is
/// shrunk and reported). Fully deterministic in `options`.
pub fn run(options: &VoprOptions, progress: &mut dyn FnMut(String)) -> VoprReport {
    let mut passed = 0;
    let mut rejected = 0;
    for index in 0..options.iterations {
        let seed = scenario_seed(options.seed, index);
        if let Some(verdict) = check_one(seed, options, &mut passed, &mut rejected, progress) {
            return VoprReport {
                iterations: index + 1,
                passed,
                rejected,
                verdict,
                options: options.clone(),
            };
        }
    }
    VoprReport {
        iterations: options.iterations,
        passed,
        rejected,
        verdict: VoprVerdict::Clean,
        options: options.clone(),
    }
}

/// Replays one literal scenario seed (as printed by a finding's replay
/// line): generates the same system, runs the same oracle battery and the
/// same fault injection, and reports the outcome.
pub fn replay(seed: u64, options: &VoprOptions, progress: &mut dyn FnMut(String)) -> VoprReport {
    let mut passed = 0;
    let mut rejected = 0;
    let verdict = check_one(seed, options, &mut passed, &mut rejected, progress)
        .unwrap_or(VoprVerdict::Clean);
    VoprReport {
        iterations: 1,
        passed,
        rejected,
        verdict,
        options: options.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_labels_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::from_label("no-such-fault"), None);
    }

    #[test]
    fn scenario_seeds_are_deterministic_and_spread() {
        let a: Vec<u64> = (0..8).map(|i| scenario_seed(42, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| scenario_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut deduped = a.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), a.len(), "collisions in {a:?}");
        assert_ne!(scenario_seed(42, 0), scenario_seed(43, 0));
    }

    #[test]
    fn a_small_chaos_run_is_clean_and_deterministic() {
        let options = VoprOptions {
            seed: 1,
            iterations: 3,
            max_threads: 3,
            ..VoprOptions::default()
        };
        let first = run(&options, &mut |_| {});
        let second = run(&options, &mut |_| {});
        assert_eq!(first, second);
        assert!(
            matches!(first.verdict, VoprVerdict::Clean),
            "{}",
            first.summary()
        );
        assert_eq!(first.iterations, 3);
        assert_eq!(first.passed + first.rejected, 3);
    }

    #[test]
    fn a_deadline_overrun_run_finds_shrinks_and_replays() {
        let options = VoprOptions {
            seed: 7,
            iterations: 8,
            fault: Some(FaultKind::DeadlineOverrun),
            max_threads: 3,
            ..VoprOptions::default()
        };
        let report = run(&options, &mut |_| {});
        let VoprVerdict::Fault(case) = &report.verdict else {
            panic!("expected a detected fault: {}", report.summary());
        };
        assert_eq!(case.fault, FaultKind::DeadlineOverrun);
        assert!(report.summary().contains("minimal failing system"));
        assert!(report
            .summary()
            .contains("replay: polychrony vopr --replay"));
        // The printed seed replays to the same minimal system.
        let replayed = replay(case.scenario_seed, &options, &mut |_| {});
        let VoprVerdict::Fault(again) = &replayed.verdict else {
            panic!("replay lost the fault: {}", replayed.summary());
        };
        assert_eq!(again.spec, case.spec);
        assert_eq!(again.property, case.property);
        assert_eq!(again.instant, case.instant);
    }
}
