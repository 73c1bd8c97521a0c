//! Multi-model batch verification: run many AADL models through the staged
//! pipeline concurrently and collect ordered, reproducible reports.
//!
//! This is the first concrete step of the ROADMAP's "multi-model batch
//! verification service" direction: a [`BatchRunner`] takes N
//! [`BatchJob`]s (source text + root classifier + per-phase options), runs
//! them across a bounded pool of shared-nothing workers — every job builds
//! its own [`Session`], so no state crosses job boundaries — and returns
//! one [`BatchReport`] per job, **in submission order and independent of
//! the worker count**, with per-job wall-clock timing. Jobs with equal
//! content (source, root classifier and result-relevant options) share one
//! execution.
//!
//! ```
//! use polychrony_core::{BatchJob, BatchRunner};
//! use polychrony_core::aadl::synth::SyntheticSpec;
//!
//! let jobs = vec![
//!     BatchJob::case_study("prodcons"),
//!     BatchJob::synthetic("synthetic-4t", &SyntheticSpec::new(4, 1)),
//! ];
//! let results = BatchRunner::new().with_workers(2).run(&jobs)?;
//! assert_eq!(results.reports.len(), 2);
//! assert!(results.all_passed());
//! # Ok::<(), polychrony_core::CoreError>(())
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aadl::case_study::PRODUCER_CONSUMER_AADL;
use aadl::synth::{generate_source, SyntheticSpec};
use polyobs::{Collector, RunRecord};

use crate::cache::{job_content_hash, ArtifactCache, CacheOutcome};
use crate::error::CoreError;
use crate::options::SessionOptions;
use crate::report::ToolChainReport;
use crate::session::Session;

/// One unit of batch work: an AADL model (source + root classifier) and the
/// per-phase options to run it with.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Caller-chosen job label, echoed in the [`BatchReport`].
    pub name: String,
    /// AADL source text of the model.
    pub source: String,
    /// Root classifier to instantiate (e.g. `sysProdCons.impl`).
    pub root: String,
    /// Per-phase options of this job's session.
    pub options: SessionOptions,
}

impl BatchJob {
    /// Creates a job with default options.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        root: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            source: source.into(),
            root: root.into(),
            options: SessionOptions::default(),
        }
    }

    /// A job over the built-in ProducerConsumer case study.
    pub fn case_study(name: impl Into<String>) -> Self {
        Self::new(name, PRODUCER_CONSUMER_AADL, "sysProdCons.impl")
    }

    /// A job over a generated synthetic model (rooted at `top.impl`).
    pub fn synthetic(name: impl Into<String>, spec: &SyntheticSpec) -> Self {
        Self::new(name, generate_source(spec), "top.impl")
    }

    /// Replaces the job's per-phase options.
    #[must_use]
    pub fn with_options(mut self, options: SessionOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs this job's complete staged chain in the current thread.
    ///
    /// # Errors
    ///
    /// Returns the first error of any phase, including
    /// [`CoreError::InvalidOptions`] for out-of-range options.
    pub fn run(&self) -> Result<ToolChainReport, CoreError> {
        Ok(Session::with_options(self.options.clone())?
            .parse(&self.source)?
            .instantiate(&self.root)?
            .schedule()?
            .translate()?
            .analyze()?
            .simulate()?
            .verify()?
            .into_report())
    }

    /// Runs this job's chain through `cache`: a cached
    /// [`Simulated`](crate::Simulated) artifact whose content key matches
    /// this job is reused and only the verification phase runs, under this
    /// job's own options; otherwise the whole chain runs and its simulated
    /// artifact is stored for the next job. Verdicts and reports are
    /// identical to [`BatchJob::run`] — only the wall time (and the phase
    /// timings inside the [`RunRecord`], which equality ignores) can
    /// differ.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchJob::run`].
    pub fn run_cached(
        &self,
        cache: &ArtifactCache,
    ) -> Result<(ToolChainReport, CacheOutcome), CoreError> {
        let (simulated, outcome) = cache.simulated_for(&self.source, &self.root, &self.options)?;
        Ok((simulated.verify()?.into_report(), outcome))
    }
}

/// The outcome of one [`BatchJob`]: its submission index, label, wall-clock
/// duration, and the tool-chain report (or the phase error that stopped
/// it). Job failures do not abort the batch — they are reported in place.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Submission index of the job (reports are returned sorted by it).
    pub index: usize,
    /// The job's label.
    pub job: String,
    /// Wall-clock time the job spent in its worker.
    pub duration: Duration,
    /// The aggregated report, or the error of the phase that failed.
    pub outcome: Result<ToolChainReport, CoreError>,
}

impl BatchReport {
    /// Returns `true` when the job completed and every check of its report
    /// passed.
    pub fn passed(&self) -> bool {
        matches!(&self.outcome, Ok(report) if report.all_checks_passed())
    }

    /// The job's per-phase telemetry record, when the job completed.
    pub fn run_record(&self) -> Option<&RunRecord> {
        self.outcome.as_ref().ok().map(|report| &report.run_record)
    }

    /// One-line rendering: index, label, duration, verdict.
    pub fn summary(&self) -> String {
        let verdict = match &self.outcome {
            Ok(report) if report.all_checks_passed() => "pass".to_string(),
            Ok(_) => "CHECKS FAILED".to_string(),
            Err(e) => format!("ERROR: {e}"),
        };
        format!(
            "#{:<3} {:<24} {:>8.1} ms  {}",
            self.index,
            self.job,
            self.duration.as_secs_f64() * 1e3,
            verdict
        )
    }
}

/// The result of one [`BatchRunner::run`]: the ordered per-job reports plus
/// batch-level totals.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResults {
    /// Worker-pool size the batch ran with.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// One report per job, in submission order.
    pub reports: Vec<BatchReport>,
}

impl BatchResults {
    /// Returns `true` when every job completed with all checks passing.
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(BatchReport::passed)
    }

    /// Number of jobs that failed (phase error or failed checks).
    pub fn failure_count(&self) -> usize {
        self.reports.iter().filter(|r| !r.passed()).count()
    }

    /// Completed models per second of batch wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.reports.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// The batch-level totals line of [`BatchResults::summary`].
    pub fn totals(&self) -> String {
        format!(
            "{} job(s), {} worker(s), {:.1} ms total, {:.1} models/s, {} failure(s)",
            self.reports.len(),
            self.workers,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput(),
            self.failure_count()
        )
    }

    /// A multi-line table: one line per job plus a totals line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            out.push_str(&report.summary());
            out.push('\n');
        }
        out.push_str(&self.totals());
        out.push('\n');
        out
    }
}

/// A bounded worker pool that drains a list of [`BatchJob`]s.
///
/// Workers are shared-nothing: each job constructs its own [`Session`] from
/// its own options, so verdicts depend only on the job, never on worker
/// interleaving — the same batch run with 1 or 8 workers yields equal
/// reports in the same order (only the timings differ).
///
/// Jobs with equal source, root classifier and result-relevant options
/// share one execution, and every duplicate receives a clone of the
/// representative's report under its own index and label. Verdicts are
/// unaffected — a duplicate job would have produced the identical report by
/// itself.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRunner {
    workers: usize,
    collector: Collector,
}

impl Default for BatchRunner {
    /// Sizes the pool to the machine's available parallelism, capped at 8.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8),
            collector: Collector::noop(),
        }
    }
}

impl BatchRunner {
    /// Creates a runner sized to the machine (see [`BatchRunner::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-pool size (validated by [`BatchRunner::run`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs a telemetry collector on the runner: each job gets a
    /// `batch.job` span, the `batch.queue_depth` gauge tracks unclaimed
    /// jobs, and the `batch.jobs` / `batch.failures` counters tally
    /// outcomes. The collector is also handed to every job's session (it
    /// replaces the collector in the job's options), so engine counters
    /// and phase spans from all jobs aggregate into one place. Collection
    /// mode never changes any verdict or report.
    #[must_use]
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Runs every job across the worker pool and returns the reports in
    /// submission order.
    ///
    /// Job-level failures (parse errors, invalid per-job options, failed
    /// phases) land in the job's [`BatchReport::outcome`]; only a
    /// runner-level misconfiguration aborts the whole batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when the pool size is 0.
    pub fn run(&self, jobs: &[BatchJob]) -> Result<BatchResults, CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidOptions(
                "batch.workers must be at least 1 (got 0)".into(),
            ));
        }
        let started = Instant::now();
        // Content-hash dedupe: `canonical[i]` is the index of the first job
        // with identical content; only representatives (`canonical[i] == i`)
        // enter the work queue, duplicates get a clone of the
        // representative's report afterwards.
        let canonical = Self::canonical_indices(jobs);
        let work: Vec<usize> = (0..jobs.len()).filter(|&i| canonical[i] == i).collect();
        let deduped = jobs.len() - work.len();
        let slots: Vec<Mutex<Option<BatchReport>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        if !work.is_empty() {
            let next = AtomicUsize::new(0);
            let queue_depth = self.collector.gauge("batch.queue_depth");
            let c_jobs = self.collector.counter("batch.jobs");
            let c_failures = self.collector.counter("batch.failures");
            queue_depth.set(work.len() as u64);
            std::thread::scope(|scope| {
                for _ in 0..self.workers.min(work.len()) {
                    scope.spawn(|| loop {
                        let claim = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = work.get(claim) else { break };
                        let job = &jobs[index];
                        // Unclaimed jobs left in the queue after this claim.
                        queue_depth.set(work.len().saturating_sub(claim + 1) as u64);
                        let mut span = self.collector.span("batch.job");
                        span.attr("index", index);
                        span.attr("job", job.name.as_str());
                        let job_started = Instant::now();
                        let outcome = self.execute(job);
                        c_jobs.incr();
                        if !matches!(&outcome, Ok(report) if report.all_checks_passed()) {
                            c_failures.incr();
                        }
                        drop(span);
                        *slots[index].lock().expect("job slot poisoned") = Some(BatchReport {
                            index,
                            job: job.name.clone(),
                            duration: job_started.elapsed(),
                            outcome,
                        });
                    });
                }
            });
        }
        if deduped > 0 {
            self.collector.counter("batch.deduped").add(deduped as u64);
        }
        let mut reports: Vec<Option<BatchReport>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("job slot poisoned"))
            .collect();
        for i in 0..jobs.len() {
            if canonical[i] != i {
                let representative = reports[canonical[i]]
                    .clone()
                    .expect("representative slot is filled when the scope exits");
                reports[i] = Some(BatchReport {
                    index: i,
                    job: jobs[i].name.clone(),
                    duration: representative.duration,
                    outcome: representative.outcome,
                });
            }
        }
        let reports = reports
            .into_iter()
            .map(|report| report.expect("every job slot is filled when the scope exits"))
            .collect();
        Ok(BatchResults {
            workers: self.workers,
            elapsed: started.elapsed(),
            reports,
        })
    }

    /// Runs one job, with the runner's collector riding into the job's
    /// session when enabled (so phase spans and engine counters from all
    /// jobs aggregate in one place).
    fn execute(&self, job: &BatchJob) -> Result<ToolChainReport, CoreError> {
        if !self.collector.is_enabled() {
            return job.run();
        }
        let mut job = job.clone();
        job.options.collector = self.collector.clone();
        job.run()
    }

    /// Maps every job index to the index of the first job with identical
    /// content (source, root and result-relevant options — the collector is
    /// excluded). Hash buckets are confirmed field-by-field, so a 64-bit
    /// collision cannot merge distinct jobs.
    fn canonical_indices(jobs: &[BatchJob]) -> Vec<usize> {
        let mut canonical: Vec<usize> = (0..jobs.len()).collect();
        let mut seen: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
        for i in 0..jobs.len() {
            let group = seen.entry(job_content_hash(&jobs[i])).or_default();
            match group.iter().find(|&&j| same_content(&jobs[j], &jobs[i])) {
                Some(&j) => canonical[i] = j,
                None => group.push(i),
            }
        }
        canonical
    }
}

/// Content equality of two jobs: everything that can influence the report
/// except the label and the collector.
fn same_content(a: &BatchJob, b: &BatchJob) -> bool {
    a.source == b.source
        && a.root == b.root
        && a.options.schedule == b.options.schedule
        && a.options.translate == b.options.translate
        && a.options.simulate == b.options.simulate
        && a.options.verify == b.options.verify
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast per-job options shared by the unit tests: one simulated
    /// hyper-period, no VCD, sequential in-job verification.
    fn quick_options() -> SessionOptions {
        SessionOptions::quick()
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let jobs: Vec<BatchJob> = (0..4)
            .map(|i| {
                BatchJob::synthetic(format!("job-{i}"), &SyntheticSpec::new(4, 1))
                    .with_options(quick_options())
            })
            .collect();
        let results = BatchRunner::new().with_workers(3).run(&jobs).unwrap();
        assert_eq!(results.reports.len(), 4);
        for (i, report) in results.reports.iter().enumerate() {
            assert_eq!(report.index, i);
            assert_eq!(report.job, format!("job-{i}"));
            assert!(report.passed(), "{}", report.summary());
        }
        assert!(results.all_passed());
        assert_eq!(results.failure_count(), 0);
        assert!(results.summary().contains("4 job(s)"));
    }

    #[test]
    fn a_failing_job_is_reported_in_place_without_aborting_the_batch() {
        let jobs = vec![
            BatchJob::case_study("good").with_options(quick_options()),
            BatchJob::new("broken", "package broken", "nothing").with_options(quick_options()),
        ];
        let results = BatchRunner::new().with_workers(2).run(&jobs).unwrap();
        assert!(results.reports[0].passed());
        assert!(matches!(
            results.reports[1].outcome,
            Err(CoreError::Aadl(_))
        ));
        assert_eq!(results.failure_count(), 1);
        assert!(!results.all_passed());
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = BatchRunner::new().with_workers(0).run(&[]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn an_empty_batch_is_a_no_op() {
        let results = BatchRunner::new().run(&[]).unwrap();
        assert!(results.reports.is_empty());
        assert!(results.all_passed());
    }

    #[test]
    fn identical_jobs_share_one_execution_and_both_get_the_report() {
        let collector = Collector::counters();
        let jobs = vec![
            BatchJob::case_study("first").with_options(quick_options()),
            BatchJob::case_study("second").with_options(quick_options()),
            BatchJob::synthetic("other", &SyntheticSpec::new(4, 1)).with_options(quick_options()),
        ];
        let results = BatchRunner::new()
            .with_workers(2)
            .with_collector(collector.clone())
            .run(&jobs)
            .unwrap();
        assert!(results.all_passed());
        // The duplicate kept its own index and label but shares the
        // representative's report and duration.
        assert_eq!(results.reports[1].index, 1);
        assert_eq!(results.reports[1].job, "second");
        assert_eq!(results.reports[0].outcome, results.reports[1].outcome);
        assert_eq!(results.reports[0].duration, results.reports[1].duration);
        let counters: std::collections::BTreeMap<String, u64> =
            collector.counter_values().into_iter().collect();
        assert_eq!(counters.get("batch.deduped"), Some(&1));
        assert_eq!(counters.get("batch.jobs"), Some(&2), "two executions");
    }

    #[test]
    fn jobs_differing_only_in_verify_options_are_not_deduped() {
        let mut other = quick_options();
        other.verify.hyperperiods = 2;
        let jobs = vec![
            BatchJob::case_study("a").with_options(quick_options()),
            BatchJob::case_study("b").with_options(other),
        ];
        assert_eq!(BatchRunner::canonical_indices(&jobs), vec![0, 1]);
    }

    #[test]
    fn invalid_per_job_options_fail_only_that_job() {
        let mut bad = quick_options();
        bad.verify.hyperperiods = 0;
        let jobs = vec![
            BatchJob::case_study("ok").with_options(quick_options()),
            BatchJob::case_study("bad-options").with_options(bad),
        ];
        let results = BatchRunner::new().with_workers(2).run(&jobs).unwrap();
        assert!(results.reports[0].passed());
        assert!(matches!(
            results.reports[1].outcome,
            Err(CoreError::InvalidOptions(_))
        ));
    }
}
