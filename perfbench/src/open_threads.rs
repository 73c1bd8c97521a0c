//! `open_threads`: free-input exploration of single threads. Every
//! translated thread of the case study, plus threads with event ports drawn
//! from seeded generated systems, is explored with
//! `Verifier::verify(&InputSpace::Free, ..)` under its schedule's dispatch
//! oracle and two workers. This is the only traffic whose frontier is wider
//! than one state, so the interner, key codec, work stealing and candidate
//! enumeration do the work. Translation happens in setup.

use std::collections::BTreeMap;
use std::time::Instant;

use polychrony_core::aadl::case_study::PRODUCER_CONSUMER_AADL;
use polychrony_core::polyverify::{
    DispatchFeasibility, InputSpace, Property, Verdict, VerificationOutcome, Verifier,
    VerifyOptions,
};
use polychrony_core::signal_moc::process::Process;
use polychrony_core::{Session, SessionOptions, Translated};
use polywire::JobSpec;

use crate::chain::{self, Untimed};
use crate::inputs::{open_thread_systems, permutation};
use crate::measure::{process_cpu_s, Counts, Samples};
use crate::probe::{self, ProbeModel};
use crate::reference::decided_count;
use crate::trace::Tracer;
use crate::{LoopOutcome, Workload};

const WORKERS: usize = 2;

/// The alarm property and the dispatch witness, whose counterexample every
/// job must produce and `polysim` must replay. The implicit
/// `DeadlockFree` is left out: under the dispatch oracle its free-mode
/// dead ends are refuted by the replay, which probes candidates the oracle
/// pruned (see README.md).
fn properties() -> [Property; 2] {
    [
        Property::NeverRaised("*Alarm*".into()),
        crate::reference::witness(),
    ]
}

/// One thread to explore.
struct Unit {
    name: String,
    process: Process,
    options: VerifyOptions,
    /// The warm-up outcome every later job must repeat.
    expected: Option<VerificationOutcome>,
    jobs: u64,
}

/// A model the units were taken from, kept for the layer probe.
struct Source {
    aadl: String,
    root: String,
    options: SessionOptions,
}

pub struct OpenThreads {
    seed: u64,
    units: Vec<Unit>,
    sources: Vec<Source>,
    round: u64,
}

/// The units of `translated` (all of them, or only `only`), each with a
/// depth bound of one hyper-period and the dispatch oracle of its schedule.
fn units_of(
    label: &str,
    translated: &Translated,
    oracle: &DispatchFeasibility,
    only: Option<&str>,
) -> Vec<Unit> {
    translated
        .thread_units
        .iter()
        .filter(|unit| only.is_none_or(|name| unit.model.thread_name == name))
        .map(|unit| {
            let depth = unit.model.timing_trace(&translated.schedule, 1).len();
            let mut options = VerifyOptions::default()
                .with_workers(WORKERS)
                .with_depth_bound(depth);
            if let Some(relation) = oracle.relation(&unit.model.thread_name) {
                let mut own = DispatchFeasibility::new();
                own.insert("Dispatch", *relation);
                options = options.with_oracle(own);
            }
            Unit {
                name: format!("{label}/{}", unit.model.thread_name),
                process: unit.model.flat.clone(),
                options,
                expected: None,
                jobs: 0,
            }
        })
        .collect()
}

fn translate(source: &Source) -> Result<(Translated, DispatchFeasibility), String> {
    let translated = Session::with_options(source.options.clone())
        .and_then(|session| chain::translate(&session, &source.aadl, &source.root, &mut Untimed))
        .map_err(|e| e.to_string())?;
    let oracle = translated.affine.dispatch_feasibility();
    Ok((translated, oracle))
}

/// The work counts and verdict shapes a repeated exploration must
/// reproduce exactly.
fn signature(outcome: &VerificationOutcome) -> BTreeMap<String, u64> {
    let s = &outcome.stats;
    let mut counts = BTreeMap::from([
        ("states".to_string(), s.states as u64),
        ("transitions".to_string(), s.transitions as u64),
        ("infeasible".to_string(), s.infeasible as u64),
        ("pruned".to_string(), s.pruned as u64),
        ("peak_frontier".to_string(), s.peak_frontier as u64),
        ("depth".to_string(), s.depth as u64),
    ]);
    for (i, v) in outcome.verdicts.iter().enumerate() {
        let code = match &v.verdict {
            Verdict::Proved => 0,
            Verdict::PassedBounded { depth } => 1_000_000 + *depth as u64,
            Verdict::Violated(cex) => 2_000_000 + cex.violation_instant as u64,
        };
        counts.insert(format!("verdict{i}"), code);
    }
    counts
}

impl OpenThreads {
    fn job(&self, unit: &Unit, tracer: &mut Tracer) -> Result<VerificationOutcome, String> {
        let root = tracer.begin_job("job.open_thread");
        let verifier = tracer
            .time("verify.new", || {
                Verifier::new(&unit.process, unit.options.clone())
            })
            .map_err(|e| e.to_string())?;
        let outcome = tracer
            .time("verify.free", || {
                verifier.verify(&InputSpace::Free, &properties())
            })
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        Ok(outcome)
    }
}

impl Workload for OpenThreads {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut sources = vec![Source {
            aadl: PRODUCER_CONSUMER_AADL.to_string(),
            root: "sysProdCons.impl".to_string(),
            options: SessionOptions::default(),
        }];
        let mut units = Vec::new();
        let (translated, oracle) = translate(&sources[0])?;
        units.extend(units_of("case_study", &translated, &oracle, None));
        for (slot, (spec, thread)) in open_thread_systems(seed).into_iter().enumerate() {
            let source = Source {
                aadl: spec.to_aadl(),
                root: "top.impl".to_string(),
                options: spec.session_options(),
            };
            let (translated, oracle) = translate(&source)?;
            let picked = units_of(
                &format!("generated{slot}"),
                &translated,
                &oracle,
                Some(&format!("t{thread}")),
            );
            if picked.len() != 1 {
                return Err(format!("generated system {slot} has no thread t{thread}"));
            }
            units.extend(picked);
            sources.push(source);
        }
        Ok(OpenThreads {
            seed,
            units,
            sources,
            round: 0,
        })
    }

    /// One pass fixes the outcome every later job must repeat.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        for i in 0..self.units.len() {
            let outcome = self.job(&self.units[i], &mut tracer)?;
            self.units[i].expected = Some(outcome);
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool) -> LoopOutcome {
        let mut out = LoopOutcome::default();
        let mut samples = Samples::default();
        let epoch = Instant::now();
        let mut tracer = Tracer::new(traced, epoch, 0);
        let cpu = process_cpu_s();
        // Whole rounds only: every round explores each unit once, in a
        // seeded order, so every run has the same mix.
        while epoch.elapsed().as_secs_f64() < seconds {
            let order = permutation(self.seed, 4 + self.round, self.units.len());
            self.round += 1;
            for i in order {
                let unit = &self.units[i];
                let started = Instant::now();
                let result = self.job(unit, &mut tracer);
                let latency = started.elapsed();
                out.jobs += 1;
                let expected = unit.expected.as_ref().expect("set in setup");
                match result {
                    Ok(outcome) if signature(&outcome) == signature(expected) => {
                        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        out.verdicts += outcome.verdicts.len() as u64;
                        out.decided += decided_count(&outcome);
                        if traced {
                            probe::record_thread_stats(&mut samples, &outcome.stats);
                            for v in &outcome.verdicts {
                                probe::record_cex_depth(&mut samples, &v.verdict);
                            }
                        }
                    }
                    Ok(outcome) => {
                        out.failed += 1;
                        out.problems.push(format!(
                            "{}: {:?} differs from the warm-up's {:?}",
                            unit.name,
                            signature(&outcome),
                            signature(expected)
                        ));
                    }
                    Err(problem) => {
                        out.failed += 1;
                        out.problems.push(format!("{}: {problem}", unit.name));
                    }
                }
                self.units[i].jobs += 1;
            }
        }
        out.wall_s = epoch.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu;
        out.spans = tracer.into_spans();
        out.samples = samples;
        out
    }

    /// Every counterexample must replay in `polysim`; a unit whose
    /// counterexample does not fails all of its jobs.
    fn check(&mut self, problems: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        for unit in &self.units {
            let outcome = unit.expected.as_ref().expect("set in setup");
            for (property, cex) in outcome.violations() {
                let replay = cex.replay_with_options(&unit.process, &unit.options);
                if !replay.as_ref().is_ok_and(|r| r.reproduced) {
                    problems.push(format!(
                        "{}: the {} counterexample does not replay in polysim: {:?}",
                        unit.name,
                        property.name(),
                        replay.map(|r| r.detail)
                    ));
                    failed += unit.jobs;
                    break;
                }
            }
        }
        failed
    }

    fn probe(&mut self, samples: &mut Samples) -> Result<(), String> {
        let mut specs = Vec::new();
        for (i, source) in self.sources.iter().enumerate() {
            let model = ProbeModel {
                source: source.aadl.clone(),
                root: source.root.clone(),
                options: source.options.clone(),
                tamper: (i == 0).then(|| ("cProdStartTimer".to_string(), 8)),
            };
            let simulated = probe::pipeline(&model, samples)?;
            probe::engine(&simulated, samples)?;
            specs.push(JobSpec {
                name: format!("open_threads{i}"),
                source: Some(source.aadl.clone()),
                root: source.root.clone(),
                options: source.options.clone(),
            });
        }
        let reports = probe::service(&specs, samples)?;
        probe::wire(&specs, &reports, samples)
    }

    fn counts(&self) -> Counts {
        let mut counts = Counts::new();
        for unit in &self.units {
            let expected = unit.expected.as_ref().expect("set in setup");
            for (name, value) in signature(expected) {
                counts.insert(format!("{}.{name}", unit.name), value);
            }
        }
        counts
    }
}
