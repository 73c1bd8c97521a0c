//! `case_study`: the paper's ProducerConsumer AADL text through the whole
//! `Session` chain, configured like `polychrony verify --product
//! --hyperperiods 4`, by one caller. One job in every block of four,
//! at a seeded position, runs the product with the `cProdStartTimer`
//! connection delayed by 8 ticks and replays the counterexample in the
//! lockstep co-simulation.

use std::collections::BTreeMap;
use std::time::Instant;

use polychrony_core::aadl::case_study::PRODUCER_CONSUMER_AADL;
use polychrony_core::polyverify::{Property, VerificationOutcome};
use polychrony_core::{Session, SessionOptions, VerificationScope};
use polywire::JobSpec;

use crate::chain::{self, Untimed};
use crate::inputs::mix;
use crate::measure::{process_cpu_s, Counts, Samples};
use crate::probe;
use crate::reference::{decided_count, verdict_instant};
use crate::trace::Tracer;
use crate::{LoopOutcome, Workload};

const ROOT: &str = "sysProdCons.impl";
const BLOCK: u64 = 4;
const TAMPERED_LINK: &str = "cProdStartTimer";
const ADDED_LATENCY: usize = 8;
/// The paper's known answer: the delayed start-timer event misses the
/// timer thread's freeze, and the response deadline expires at instant 9.
const TAMPERED_VIOLATION_INSTANT: usize = 9;

/// The options of `polychrony verify --product --hyperperiods 4`: one
/// simulated hyper-period, four verified ones, two verification workers.
/// The product runs as its own call so its time is attributed apart from
/// the per-thread exploration.
fn options() -> SessionOptions {
    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = 1;
    options.verify.hyperperiods = 4;
    options.verify.workers = 2;
    options.verify.scope = VerificationScope::PerThread;
    options
}

pub struct CaseStudy {
    seed: u64,
    session: Session,
    next_block: u64,
    /// Work counts of the healthy and the tampered job, from the warm-up.
    expected: [BTreeMap<&'static str, u64>; 2],
}

fn tally(outcome: &VerificationOutcome, counts: &mut BTreeMap<&'static str, u64>) {
    *counts.entry("verdicts").or_default() += outcome.verdicts.len() as u64;
    *counts.entry("decided").or_default() += decided_count(outcome);
}

impl CaseStudy {
    fn tampered(&self, block: u64, position: u64) -> bool {
        mix(self.seed, 3, block) % BLOCK == position
    }

    /// One job, checked against the known answer; returns its work counts
    /// (verdict tallies included).
    fn job(
        &self,
        tampered: bool,
        tracer: &mut Tracer,
        mut samples: Option<&mut Samples>,
    ) -> Result<BTreeMap<&'static str, u64>, String> {
        let root = tracer.begin_job("job.case_study");
        let chained = chain::run(&self.session, PRODUCER_CONSUMER_AADL, ROOT, tracer)
            .map_err(|e| e.to_string())?;
        let mut counts = chained.counts();
        if let Some(samples) = samples.as_deref_mut() {
            chained.record(samples);
        }
        if tampered {
            let product =
                chain::tampered_product(&chained.simulated, TAMPERED_LINK, ADDED_LATENCY, tracer)?;
            let violated: Vec<_> = product
                .outcome
                .verdicts
                .iter()
                .filter_map(|v| verdict_instant(&v.verdict).map(|t| (&v.property, t)))
                .collect();
            let expected = matches!(
                violated.as_slice(),
                [(Property::EndToEndResponse { from, .. }, TAMPERED_VIOLATION_INSTANT)]
                    if from.starts_with(TAMPERED_LINK)
            );
            if !expected {
                return Err(format!(
                    "tampered product: expected only the {TAMPERED_LINK} response violated at instant {TAMPERED_VIOLATION_INSTANT}, got {violated:?}"
                ));
            }
            tally(&product.outcome, &mut counts);
            let stats = &product.outcome.stats;
            counts.insert("product.states", stats.states as u64);
            counts.insert("product.transitions", stats.transitions as u64);
            counts.insert("cex_depth", (TAMPERED_VIOLATION_INSTANT + 1) as u64);
            if let Some(samples) = samples {
                probe::record_product_stats(samples, stats);
                for v in &product.outcome.verdicts {
                    probe::record_cex_depth(samples, &v.verdict);
                }
            }
        } else {
            let healthy =
                chain::verify_healthy(chained.simulated, tracer).map_err(|e| e.to_string())?;
            let product = healthy.product.as_ref().ok_or("the case study is wired")?;
            let report = healthy
                .verified
                .verification
                .as_ref()
                .ok_or("the verification phase did not run")?;
            if !healthy.violation_free() {
                return Err(format!(
                    "healthy case study is not violation-free:\n{}{}",
                    report.summary(),
                    product.outcome.summary()
                ));
            }
            tally(&product.outcome, &mut counts);
            for outcome in report.outcomes.values() {
                tally(outcome, &mut counts);
            }
            counts.insert("product.states", product.outcome.stats.states as u64);
            counts.insert(
                "product.transitions",
                product.outcome.stats.transitions as u64,
            );
            counts.insert("verify.states", report.total_states() as u64);
            counts.insert("verify.transitions", report.total_transitions() as u64);
            if let Some(samples) = samples {
                healthy.record(samples);
            }
        }
        tracer.end(root);
        Ok(counts)
    }
}

impl Workload for CaseStudy {
    fn setup(seed: u64) -> Result<Self, String> {
        let session = Session::with_options(options()).map_err(|e| e.to_string())?;
        Ok(CaseStudy {
            seed,
            session,
            next_block: 0,
            expected: [BTreeMap::new(), BTreeMap::new()],
        })
    }

    /// One job of each kind fixes the counts every later job must repeat.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        for (slot, tampered) in [false, true].into_iter().enumerate() {
            self.expected[slot] = self.job(tampered, &mut tracer, None)?;
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool) -> LoopOutcome {
        let mut out = LoopOutcome::default();
        let mut samples = Samples::default();
        let epoch = Instant::now();
        let mut tracer = Tracer::new(traced, epoch, 0);
        let cpu = process_cpu_s();
        // Whole blocks only, so every run has the same healthy/tampered mix.
        while epoch.elapsed().as_secs_f64() < seconds {
            let block = self.next_block;
            self.next_block += 1;
            for position in 0..BLOCK {
                let tampered = self.tampered(block, position);
                let started = Instant::now();
                let result = self.job(tampered, &mut tracer, traced.then_some(&mut samples));
                let latency = started.elapsed();
                out.jobs += 1;
                match result {
                    Ok(counts) if counts == self.expected[usize::from(tampered)] => {
                        out.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        out.verdicts += counts["verdicts"];
                        out.decided += counts["decided"];
                    }
                    Ok(counts) => {
                        out.failed += 1;
                        out.problems.push(format!(
                            "block {block} job {position}: work counts {:?} differ from the warm-up's {:?}",
                            counts,
                            self.expected[usize::from(tampered)]
                        ));
                    }
                    Err(problem) => {
                        out.failed += 1;
                        out.problems
                            .push(format!("block {block} job {position}: {problem}"));
                    }
                }
            }
        }
        out.wall_s = epoch.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu;
        out.spans = tracer.into_spans();
        out.samples = samples;
        out
    }

    /// The engine, service and wire layers; the traced loop already timed
    /// every phase and verification call.
    fn probe(&mut self, samples: &mut Samples) -> Result<(), String> {
        let chained = chain::run(&self.session, PRODUCER_CONSUMER_AADL, ROOT, &mut Untimed)
            .map_err(|e| e.to_string())?;
        probe::engine(&chained.simulated, samples)?;
        let spec = JobSpec::case_study("case_study").with_options(options());
        let reports = probe::service(std::slice::from_ref(&spec), samples)?;
        probe::wire(&[spec], &reports, samples)
    }

    fn counts(&self) -> Counts {
        let mut counts = Counts::new();
        for (kind, expected) in ["healthy", "tampered"].iter().zip(&self.expected) {
            for (name, value) in expected {
                counts.insert(format!("{kind}.{name}"), *value);
            }
        }
        counts
    }
}
