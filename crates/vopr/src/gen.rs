//! Seeded generation of complete AADL systems.
//!
//! A [`SystemSpec`] is the harness's compact model of one generated
//! system: periodic threads (period, deadline = period, WCET) and
//! event-port connections forming disjoint forward chains (each thread has
//! at most one outgoing and one incoming connection, and connections only
//! point from lower to higher indices — no cycles, no fan-in, no
//! fan-out). The spec renders to AADL source text following the same
//! template as `aadl::synth`, runs through the full staged pipeline via
//! [`SystemSpec::batch_job`], and is the unit the shrinker minimises.

use std::fmt::Write as _;

use polychrony_core::{BatchJob, SessionOptions, VerificationScope};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::FaultKind;

/// The harmonically-related period menu (milliseconds = ticks) generated
/// systems draw from, matching `aadl::synth::SYNTHETIC_PERIODS_MS` so
/// hyper-periods stay small.
pub const PERIOD_MENU_MS: [u64; 4] = [4, 8, 16, 32];

/// One generated periodic thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpec {
    /// Period and deadline in milliseconds.
    pub period_ms: u64,
    /// Worst-case execution time in milliseconds.
    pub wcet_ms: u64,
}

/// One generated event-port connection, from thread index `from` to
/// thread index `to` (always `from < to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionSpec {
    /// Index of the sending thread.
    pub from: usize,
    /// Index of the receiving thread.
    pub to: usize,
}

impl ConnectionSpec {
    /// The AADL connection label, e.g. `c0_2` — also the [`PortLink`]
    /// name the product phase derives.
    ///
    /// [`PortLink`]: polychrony_core::polyverify::PortLink
    pub fn name(&self) -> String {
        format!("c{}_{}", self.from, self.to)
    }
}

/// A complete generated system plus the run configuration the harness
/// checks it under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    /// The periodic threads.
    pub threads: Vec<ThreadSpec>,
    /// The event-port connections (disjoint forward chains).
    pub connections: Vec<ConnectionSpec>,
    /// Verification worker threads of this scenario.
    pub workers: usize,
    /// Verification hyper-periods of this scenario.
    pub hyperperiods: u64,
}

impl SystemSpec {
    /// Generates a system from a scenario seed. `max_threads` bounds the
    /// thread count; when `fault` needs connection links the generator
    /// guarantees at least two threads, one connection, and a two
    /// hyper-period verification window (so a delayed delivery's response
    /// deadline expires inside the explored horizon).
    pub fn generate(seed: u64, max_threads: usize, fault: Option<FaultKind>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let wants_links = fault.is_some_and(FaultKind::needs_links);
        let min_threads = if wants_links { 2 } else { 1 };
        let max_threads = max_threads.clamp(min_threads, 8);
        let count = rng.gen_range(min_threads..max_threads + 1);
        let threads = (0..count)
            .map(|_| ThreadSpec {
                period_ms: PERIOD_MENU_MS[rng.gen_range(0..PERIOD_MENU_MS.len())],
                wcet_ms: if rng.gen_bool(0.2) { 2 } else { 1 },
            })
            .collect::<Vec<_>>();
        let mut connections = Vec::new();
        let mut has_incoming = vec![false; count];
        for from in 0..count.saturating_sub(1) {
            if !rng.gen_bool(0.5) {
                continue;
            }
            let candidates: Vec<usize> = (from + 1..count).filter(|&j| !has_incoming[j]).collect();
            if candidates.is_empty() {
                continue;
            }
            let to = candidates[rng.gen_range(0..candidates.len())];
            has_incoming[to] = true;
            connections.push(ConnectionSpec { from, to });
        }
        if wants_links && connections.is_empty() {
            connections.push(ConnectionSpec { from: 0, to: 1 });
        }
        Self {
            threads,
            connections,
            workers: rng.gen_range(1..3),
            hyperperiods: if wants_links { 2 } else { 1 },
        }
    }

    /// Renders the spec as AADL source text (package `Vopr`, rooted at
    /// `top.impl`), following the `aadl::synth` template.
    pub fn to_aadl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "package Vopr");
        let _ = writeln!(out, "public");
        for (i, thread) in self.threads.iter().enumerate() {
            let _ = writeln!(out, "  thread th{i}");
            let outgoing: Vec<&ConnectionSpec> =
                self.connections.iter().filter(|c| c.from == i).collect();
            let incoming: Vec<&ConnectionSpec> =
                self.connections.iter().filter(|c| c.to == i).collect();
            if !outgoing.is_empty() || !incoming.is_empty() {
                let _ = writeln!(out, "  features");
                for c in &outgoing {
                    let _ = writeln!(out, "    out_{} : out event data port;", c.name());
                }
                for c in &incoming {
                    let _ = writeln!(out, "    in_{} : in event data port;", c.name());
                }
            }
            let _ = writeln!(out, "  properties");
            let _ = writeln!(out, "    Dispatch_Protocol => Periodic;");
            let _ = writeln!(out, "    Period => {} ms;", thread.period_ms);
            let _ = writeln!(out, "    Deadline => {} ms;", thread.period_ms);
            let _ = writeln!(
                out,
                "    Compute_Execution_Time => {w} ms .. {w} ms;",
                w = thread.wcet_ms
            );
            let _ = writeln!(out, "    Priority => {};", self.threads.len() - i);
            let _ = writeln!(out, "  end th{i};");
        }
        let _ = writeln!(out, "  process worker");
        let _ = writeln!(out, "  end worker;");
        let _ = writeln!(out, "  process implementation worker.impl");
        let _ = writeln!(out, "  subcomponents");
        for i in 0..self.threads.len() {
            let _ = writeln!(out, "    t{i} : thread th{i};");
        }
        if !self.connections.is_empty() {
            let _ = writeln!(out, "  connections");
            for c in &self.connections {
                let _ = writeln!(
                    out,
                    "    {name} : port t{}.out_{name} -> t{}.in_{name};",
                    c.from,
                    c.to,
                    name = c.name()
                );
            }
        }
        let _ = writeln!(out, "  end worker.impl;");
        let _ = writeln!(out, "  processor cpu");
        let _ = writeln!(out, "  end cpu;");
        let _ = writeln!(out, "  system top");
        let _ = writeln!(out, "  end top;");
        let _ = writeln!(out, "  system implementation top.impl");
        let _ = writeln!(out, "  subcomponents");
        let _ = writeln!(out, "    app : process worker.impl;");
        let _ = writeln!(out, "    cpu0 : processor cpu;");
        let _ = writeln!(out, "  properties");
        let _ = writeln!(
            out,
            "    Actual_Processor_Binding => (reference (cpu0)) applies to app;"
        );
        let _ = writeln!(out, "  end top.impl;");
        let _ = writeln!(out, "end Vopr;");
        out
    }

    /// The per-phase options this scenario runs under: the quick batch
    /// profile, with the spec's worker count and verification window, and
    /// product scope whenever the system is wired.
    pub fn session_options(&self) -> SessionOptions {
        let mut options = SessionOptions::quick();
        options.verify.workers = self.workers;
        options.verify.hyperperiods = self.hyperperiods;
        options.verify.scope = if self.connections.is_empty() {
            VerificationScope::PerThread
        } else {
            VerificationScope::Product
        };
        options
    }

    /// The runnable pipeline job of this scenario.
    pub fn batch_job(&self, seed: u64) -> BatchJob {
        BatchJob::new(format!("vopr-{seed:016x}"), self.to_aadl(), "top.impl")
            .with_options(self.session_options())
    }

    /// Compact human-readable rendering, used by finding reports.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (i, thread) in self.threads.iter().enumerate() {
            let _ = writeln!(
                out,
                "  th{i}: period {} ms, wcet {} ms",
                thread.period_ms, thread.wcet_ms
            );
        }
        for c in &self.connections {
            let _ = writeln!(out, "  {}: th{} -> th{}", c.name(), c.from, c.to);
        }
        let _ = writeln!(
            out,
            "  verify: {} worker(s), {} hyperperiod(s)",
            self.workers, self.hyperperiods
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = SystemSpec::generate(99, 5, None);
        let b = SystemSpec::generate(99, 5, None);
        assert_eq!(a, b);
        assert_ne!(a, SystemSpec::generate(100, 5, None));
    }

    #[test]
    fn generated_topologies_are_disjoint_forward_chains() {
        for seed in 0..64 {
            let spec = SystemSpec::generate(seed, 8, None);
            assert!(!spec.threads.is_empty());
            let mut outgoing = std::collections::HashSet::new();
            let mut incoming = std::collections::HashSet::new();
            for c in &spec.connections {
                assert!(c.from < c.to, "forward only: {c:?}");
                assert!(c.to < spec.threads.len());
                assert!(outgoing.insert(c.from), "fan-out at th{}", c.from);
                assert!(incoming.insert(c.to), "fan-in at th{}", c.to);
            }
            for thread in &spec.threads {
                assert!(PERIOD_MENU_MS.contains(&thread.period_ms));
                assert!(thread.wcet_ms >= 1 && thread.wcet_ms <= thread.period_ms);
            }
        }
    }

    /// The timing traces of generated schedules equal the per-tick
    /// reference construction over one to three hyper-periods.
    #[test]
    fn generated_timing_traces_match_the_per_tick_reference() {
        use polychrony_core::asme2ssme::{
            schedule_to_timing_trace, schedule_to_timing_trace_reference,
        };
        use polychrony_core::sched::StaticSchedule;
        use polychrony_core::signal_moc::trace::Trace;
        use polychrony_core::Session;
        type Build = fn(&StaticSchedule, &str, &str, &[String], &[String], u64) -> Trace;

        let mut compared = 0;
        for seed in 0..12 {
            let spec = SystemSpec::generate(seed, 6, None);
            let translated = Session::with_options(spec.session_options())
                .and_then(|session| session.parse(&spec.to_aadl()))
                .and_then(|parsed| parsed.instantiate("top.impl"))
                .and_then(|instantiated| instantiated.schedule())
                .and_then(|scheduled| scheduled.translate());
            // An unschedulable draw has no schedule to compare.
            let Ok(translated) = translated else {
                continue;
            };
            for unit in &translated.thread_units {
                let model = &unit.model;
                for hyperperiods in 1..=3 {
                    let build = |f: Build| {
                        f(
                            &translated.schedule,
                            &model.thread_name,
                            "",
                            &model.in_ports,
                            &model.out_ports,
                            hyperperiods,
                        )
                    };
                    assert_eq!(
                        build(schedule_to_timing_trace),
                        build(schedule_to_timing_trace_reference),
                        "seed {seed}, {} over {hyperperiods} hyper-period(s)",
                        unit.path
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared >= 30, "only {compared} trace(s) compared");
    }

    #[test]
    fn link_faults_force_a_wired_product() {
        for seed in 0..32 {
            let spec = SystemSpec::generate(seed, 5, Some(FaultKind::DroppedDelivery));
            assert!(spec.threads.len() >= 2);
            assert!(!spec.connections.is_empty());
            assert_eq!(spec.hyperperiods, 2);
        }
    }

    #[test]
    fn rendered_aadl_runs_through_the_pipeline() {
        let spec = SystemSpec {
            threads: vec![
                ThreadSpec {
                    period_ms: 8,
                    wcet_ms: 1,
                },
                ThreadSpec {
                    period_ms: 16,
                    wcet_ms: 1,
                },
            ],
            connections: vec![ConnectionSpec { from: 0, to: 1 }],
            workers: 1,
            hyperperiods: 1,
        };
        let report = spec
            .batch_job(0)
            .run()
            .expect("pipeline accepts the render");
        assert!(report.verification.is_some());
    }
}
