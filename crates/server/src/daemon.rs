//! The in-process daemon: job table, worker pool, artifact cache, log.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use polychrony_core::ArtifactCache;
use polyobs::Collector;
use polywire::{Frame, JobSpec, JobState, JobStatus, WireReport};

use crate::log::JobLog;
use crate::ServerError;

/// Configuration of a [`Daemon`].
#[derive(Debug)]
pub struct DaemonConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Simulated artifacts kept by the shared artifact cache (0 disables
    /// caching entirely).
    pub cache_capacity: usize,
    /// Path of the append-only job log; `None` runs without persistence.
    pub log_path: Option<PathBuf>,
    /// Daemon-level telemetry: cache counters, queue gauges, job spans.
    pub collector: Collector,
}

impl Default for DaemonConfig {
    /// Two workers, a 64-entry cache, no log, no telemetry.
    fn default() -> Self {
        Self {
            workers: 2,
            cache_capacity: 64,
            log_path: None,
            collector: Collector::noop(),
        }
    }
}

/// How many done and failed jobs keep their reports in the job table: the
/// newest, in the order they finished. An older job keeps its status row,
/// and `watch` on it answers [`ServerError::ReportDropped`]. A report is
/// most of a finished job's memory, so the table grows with uptime by one
/// status row per job.
const REPORTS_KEPT: usize = 1024;

/// One job's full lifecycle, as the daemon tracks it.
struct JobEntry {
    name: String,
    state: JobState,
    /// The status row's detail, set when the job reaches a terminal state.
    detail: String,
    /// The final report of a done or failed job, while the job is among
    /// the newest [`REPORTS_KEPT`].
    report: Option<WireReport>,
    /// Live subscribers; each receives `progress` frames and the final
    /// `result` frame, then its sender is dropped.
    watchers: Vec<mpsc::Sender<Frame>>,
}

/// Mutable state shared by workers and connection handlers.
struct State {
    next_id: u64,
    /// Queued jobs and their specs; a worker takes the spec with the job.
    queue: VecDeque<(u64, JobSpec)>,
    jobs: BTreeMap<u64, JobEntry>,
    running: usize,
    /// Jobs whose reports `jobs` holds, in the order they finished.
    reports: VecDeque<u64>,
}

impl State {
    /// Records that job `id` finished with a stored report, dropping the
    /// report of the oldest such job beyond [`REPORTS_KEPT`].
    fn keep_report(&mut self, id: u64) {
        self.reports.push_back(id);
        if self.reports.len() > REPORTS_KEPT {
            let oldest = self.reports.pop_front();
            if let Some(entry) = oldest.and_then(|oldest| self.jobs.get_mut(&oldest)) {
                entry.report = None;
            }
        }
    }
}

pub(crate) struct Inner {
    state: Mutex<State>,
    /// Signalled when the queue grows or shutdown begins.
    work_ready: Condvar,
    /// Signalled when a job reaches a terminal state.
    job_done: Condvar,
    pub(crate) cache: ArtifactCache,
    pub(crate) collector: Collector,
    log: JobLog,
    shutdown: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Where the serve loop listens, so shutdown can poke `accept` awake.
    pub(crate) poke: Mutex<Option<crate::serve::PokeTarget>>,
}

/// The verification daemon. Cloning yields another handle onto the same
/// daemon (the job table, cache and worker pool are shared).
#[derive(Clone)]
pub struct Daemon {
    pub(crate) inner: Arc<Inner>,
}

impl Daemon {
    /// Builds a daemon: replays the job log (re-queueing unfinished jobs and
    /// keeping the reports of the newest finished ones), wires the cache to
    /// the collector, and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidSpec`] for a zero worker count,
    /// [`ServerError::Io`] when the log cannot be opened.
    pub fn new(config: DaemonConfig) -> Result<Self, ServerError> {
        if config.workers == 0 {
            return Err(ServerError::InvalidSpec(
                "daemon.workers must be at least 1 (got 0)".into(),
            ));
        }
        let (log, replayed, finished) = match &config.log_path {
            Some(path) => JobLog::open(path)?,
            None => (JobLog::disabled(), BTreeMap::new(), Vec::new()),
        };
        let mut state = State {
            next_id: 1,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            running: 0,
            reports: VecDeque::new(),
        };
        for (id, job) in replayed {
            state.next_id = state.next_id.max(id + 1);
            state.jobs.insert(
                id,
                JobEntry {
                    name: job.spec.name.clone(),
                    state: job.state,
                    detail: detail_of(job.state, job.report.as_ref()),
                    report: job.report,
                    watchers: Vec::new(),
                },
            );
            if job.state == JobState::Queued {
                state.queue.push_back((id, job.spec));
            }
        }
        // In the order the log recorded them, as the live daemon did.
        for id in finished {
            state.keep_report(id);
        }
        config
            .collector
            .gauge("daemon.queue_depth")
            .set(state.queue.len() as u64);
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            cache: ArtifactCache::with_capacity(config.cache_capacity)
                .with_collector(config.collector.clone()),
            collector: config.collector,
            log,
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            poke: Mutex::new(None),
        });
        let handles: Vec<_> = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        *lock(&inner.workers) = handles;
        Ok(Self { inner })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.inner.state)
    }

    /// Submits a job to the queue, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidSpec`] when the spec's options do not
    /// validate (the job would only fail later, so it is rejected now),
    /// [`ServerError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServerError> {
        self.submit_inner(spec, None)
    }

    /// Like [`Daemon::submit`], but atomically registers a watcher channel
    /// so no `progress` frame of the job can be missed.
    ///
    /// # Errors
    ///
    /// Same as [`Daemon::submit`].
    pub fn submit_watched(
        &self,
        spec: JobSpec,
    ) -> Result<(u64, mpsc::Receiver<Frame>), ServerError> {
        let (tx, rx) = mpsc::channel();
        let id = self.submit_inner(spec, Some(tx))?;
        Ok((id, rx))
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        watcher: Option<mpsc::Sender<Frame>>,
    ) -> Result<u64, ServerError> {
        spec.options
            .validate()
            .map_err(|e| ServerError::InvalidSpec(e.to_string()))?;
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        let mut state = self.state();
        let id = state.next_id;
        state.next_id += 1;
        self.inner.log.submitted(id, &spec);
        state.jobs.insert(
            id,
            JobEntry {
                name: spec.name.clone(),
                state: JobState::Queued,
                detail: String::new(),
                report: None,
                watchers: watcher.into_iter().collect(),
            },
        );
        state.queue.push_back((id, spec));
        self.inner.collector.counter("daemon.submitted").incr();
        self.inner
            .collector
            .gauge("daemon.queue_depth")
            .set(state.queue.len() as u64);
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(id)
    }

    /// Subscribes to a job's frames. A job already in a terminal state
    /// immediately yields its stored `result` frame (replayed-from-log
    /// jobs included); a live job streams `progress` then `result`.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for an id the table has never seen,
    /// [`ServerError::ReportDropped`] for a done or failed job older than
    /// the newest 1024.
    pub fn watch(&self, id: u64) -> Result<mpsc::Receiver<Frame>, ServerError> {
        let mut state = self.state();
        let entry = state.jobs.get_mut(&id).ok_or(ServerError::UnknownJob(id))?;
        let (tx, rx) = mpsc::channel();
        if entry.state.is_terminal() {
            let report = match (&entry.report, entry.state) {
                (Some(report), _) => report.clone(),
                (None, JobState::Cancelled) => cancelled_report(),
                (None, _) => return Err(ServerError::ReportDropped(id)),
            };
            let _ = tx.send(Frame::Result { id, report });
        } else {
            entry.watchers.push(tx);
        }
        Ok(rx)
    }

    /// Status rows for one job or the whole table (id order).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] when a specific id is unknown.
    pub fn status(&self, id: Option<u64>) -> Result<Vec<JobStatus>, ServerError> {
        let state = self.state();
        let row = |(id, entry): (&u64, &JobEntry)| JobStatus {
            id: *id,
            name: entry.name.clone(),
            state: entry.state,
            detail: entry.detail.clone(),
        };
        match id {
            Some(id) => state
                .jobs
                .get_key_value(&id)
                .map(|kv| vec![row(kv)])
                .ok_or(ServerError::UnknownJob(id)),
            None => Ok(state.jobs.iter().map(row).collect()),
        }
    }

    /// Cancels a queued or running job; terminal jobs are left untouched.
    /// Returns the job's state after the request.
    ///
    /// The ack is binding: once `Cancelled` is returned, the job reports
    /// `Cancelled` forever — even when a worker had already claimed it off
    /// the queue (or is mid-`run_job`), in which case the in-flight
    /// computation finishes but its result is discarded. Without this, a
    /// cancel landing in the instant between queue-claim and completion
    /// was acked as cancelled and then overwritten with `Done`.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for an unknown id.
    pub fn cancel(&self, id: u64) -> Result<JobState, ServerError> {
        let mut state = self.state();
        let entry = state.jobs.get_mut(&id).ok_or(ServerError::UnknownJob(id))?;
        if entry.state == JobState::Queued || entry.state == JobState::Running {
            entry.state = JobState::Cancelled;
            entry.detail = detail_of(JobState::Cancelled, None);
            let report = cancelled_report();
            for tx in entry.watchers.drain(..) {
                let _ = tx.send(Frame::Result {
                    id,
                    report: report.clone(),
                });
            }
            state.queue.retain(|(queued, _)| *queued != id);
            self.inner.log.cancelled(id);
            self.inner.collector.counter("daemon.cancelled").incr();
            self.inner
                .collector
                .gauge("daemon.queue_depth")
                .set(state.queue.len() as u64);
            drop(state);
            self.inner.job_done.notify_all();
            return Ok(JobState::Cancelled);
        }
        Ok(entry.state)
    }

    /// Begins shutdown: no new submissions are accepted, workers exit once
    /// the job they are on finishes (still-queued jobs stay in the log for
    /// the next start), and a blocked serve loop is poked awake.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        crate::serve::poke(&self.inner);
    }

    /// Returns `true` once [`Daemon::request_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the queue is empty and no worker is mid-job. Intended
    /// for tests and for warm-up scripting; the serve loop does not need
    /// it.
    pub fn wait_idle(&self) {
        let mut state = self.state();
        while !(state.queue.is_empty() && state.running == 0) {
            state = match self.inner.job_done.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Joins the worker pool (call after [`Daemon::request_shutdown`]).
    pub fn join(&self) {
        let handles = std::mem::take(&mut *lock(&self.inner.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The stand-in report a cancelled job answers `watch` with.
fn cancelled_report() -> WireReport {
    WireReport {
        passed: false,
        cache: None,
        hyperperiod: 0,
        states: 0,
        transitions: 0,
        verdicts: BTreeMap::new(),
        error: Some("job cancelled before it ran".to_string()),
        wall_us: 0,
    }
}

/// One line of status detail for terminal jobs.
fn detail_of(state: JobState, report: Option<&WireReport>) -> String {
    match (state, report) {
        (JobState::Done | JobState::Failed, Some(report)) => {
            let verdict = match &report.error {
                Some(error) => error.clone(),
                None if report.passed => "pass".to_string(),
                None => "CHECKS FAILED".to_string(),
            };
            match &report.cache {
                Some(cache) => format!("{verdict} [cache: {cache}]"),
                None => verdict,
            }
        }
        (JobState::Cancelled, _) => "cancelled".to_string(),
        _ => String::new(),
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let claimed = {
            let mut state = lock(&inner.state);
            loop {
                // Check shutdown before claiming: jobs still queued at
                // shutdown stay in the log and re-run on the next start.
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some((id, spec)) = state.queue.pop_front() {
                    inner
                        .collector
                        .gauge("daemon.queue_depth")
                        .set(state.queue.len() as u64);
                    state
                        .jobs
                        .get_mut(&id)
                        .expect("queued job is in the table")
                        .state = JobState::Running;
                    state.running += 1;
                    inner
                        .collector
                        .gauge("daemon.running")
                        .set(state.running as u64);
                    inner.log.started(id);
                    break Some((id, spec));
                }
                state = match inner.work_ready.wait(state) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some((id, spec)) = claimed else { return };
        let report = run_job(&inner, id, spec);
        settle(&inner, id, report);
    }
}

/// Hands a claimed job's report to its entry, its watchers and the log.
fn settle(inner: &Inner, id: u64, report: WireReport) {
    let failed = report.error.is_some() || !report.passed;
    let discarded = {
        let mut state = lock(&inner.state);
        let entry = state
            .jobs
            .get_mut(&id)
            .expect("running job is in the table");
        let discarded = entry.state == JobState::Cancelled;
        if discarded {
            // Cancelled between claim and completion: the cancel ack
            // already promised `Cancelled` (watchers were drained with
            // the cancelled report, the log records `cancelled`), so
            // the computed result is discarded — no `Done`/`Failed`
            // overwrite, no `finished` log line, no result frames.
        } else {
            entry.state = if report.error.is_none() {
                JobState::Done
            } else {
                JobState::Failed
            };
            entry.detail = detail_of(entry.state, Some(&report));
            inner.log.finished(id, &report);
            for tx in entry.watchers.drain(..) {
                let _ = tx.send(Frame::Result {
                    id,
                    report: report.clone(),
                });
            }
            entry.report = Some(report);
            state.keep_report(id);
        }
        state.running -= 1;
        inner
            .collector
            .gauge("daemon.running")
            .set(state.running as u64);
        discarded
    };
    if !discarded {
        inner.collector.counter("daemon.jobs").incr();
        if failed {
            inner.collector.counter("daemon.failures").incr();
        }
    }
    inner.job_done.notify_all();
}

/// Runs one job through the shared cache, streaming its progress to the
/// job's watchers.
fn run_job(inner: &Arc<Inner>, id: u64, spec: JobSpec) -> WireReport {
    let started = Instant::now();
    // Every job gets a full collector with a progress bridge: the
    // pipeline's `phase.*` spans and the engine's `engine.level` events
    // become `progress` frames, sent to the watchers from whichever thread
    // records the event. The bridge takes the state lock under the
    // collector's event lock; nothing records on a job's collector while
    // holding the state lock, so the two never wait on each other. The
    // collector is per-job, so one job's spans never leak into another's
    // stream, and the cache stores no collector, so the bridge's handle on
    // the daemon ends with the job.
    let job_collector = Collector::full();
    let bridge = {
        let inner = Arc::clone(inner);
        polyobs::ProgressBridge::new(Box::new(move |update| {
            let frame = Frame::Progress { id, update };
            let mut state = lock(&inner.state);
            if let Some(entry) = state.jobs.get_mut(&id) {
                entry.watchers.retain(|tx| tx.send(frame.clone()).is_ok());
            }
        }))
    };
    job_collector.add_sink(Box::new(bridge));
    let mut span = inner.collector.span("daemon.job");
    span.attr("id", id);
    span.attr("job", spec.name.as_str());
    let mut job = spec.into_batch_job();
    job.options.collector = job_collector.clone();
    let wall_us = |started: Instant| started.elapsed().as_micros() as u64;
    let report = match job.run_cached(&inner.cache) {
        Ok((report, outcome)) => {
            span.attr("cache", outcome.label());
            WireReport::from_report(&report, Some(outcome), wall_us(started))
        }
        Err(e) => WireReport::from_error(&e, None, wall_us(started)),
    };
    drop(span);
    job_collector.flush();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Puts job `id` in the table as a worker's claim leaves it: running
    /// and off the queue, so the idle pool never sees it.
    fn claim(inner: &Inner, id: u64) {
        let mut state = lock(&inner.state);
        state.jobs.insert(
            id,
            JobEntry {
                name: format!("job{id}"),
                state: JobState::Running,
                detail: String::new(),
                report: None,
                watchers: Vec::new(),
            },
        );
        state.running += 1;
    }

    fn passing_report() -> WireReport {
        WireReport {
            passed: true,
            cache: None,
            hyperperiod: 24,
            states: 1,
            transitions: 1,
            verdicts: BTreeMap::new(),
            error: None,
            wall_us: 1,
        }
    }

    /// The report `watch` answers for a terminal job.
    fn stored(daemon: &Daemon, id: u64) -> Result<WireReport, ServerError> {
        match daemon.watch(id)?.recv() {
            Ok(Frame::Result { report, .. }) => Ok(report),
            other => panic!("job {id}: expected a result frame, got {other:?}"),
        }
    }

    fn dropped(daemon: &Daemon, id: u64) -> bool {
        matches!(stored(daemon, id), Err(ServerError::ReportDropped(got)) if got == id)
    }

    #[test]
    fn completing_jobs_drops_the_oldest_reports_but_keeps_every_status_row() {
        let daemon = Daemon::new(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon starts");
        let inner = &daemon.inner;
        // Job 1 stays with its worker while newer jobs finish. Job 2 is
        // cancelled mid-run: it has no report to keep.
        claim(inner, 1);
        claim(inner, 2);
        assert_eq!(daemon.cancel(2).expect("cancel"), JobState::Cancelled);
        let last = REPORTS_KEPT as u64 + 5;
        for id in 3..=last {
            claim(inner, id);
            settle(inner, id, passing_report());
        }
        // 3..=last finished: the three oldest lost their reports, but no
        // job lost its status row.
        assert_eq!(daemon.status(None).expect("status").len(), last as usize);
        assert!((3..=5).all(|id| dropped(&daemon, id)));
        let row = &daemon.status(Some(3)).expect("row kept")[0];
        assert_eq!((row.state, row.detail.as_str()), (JobState::Done, "pass"));
        assert_eq!(daemon.cancel(3).expect("cancel"), JobState::Done);
        assert_eq!(stored(&daemon, 6).expect("kept").wall_us, 1);
        assert_eq!(
            daemon.status(Some(1)).expect("held")[0].state,
            JobState::Running
        );
        assert!(stored(&daemon, 2).expect("cancelled").error.is_some());

        // Once job 1's worker lets go, its report is the newest kept; the
        // worker of the cancelled job 2 keeps nothing and drops nothing.
        settle(inner, 1, passing_report());
        settle(inner, 2, passing_report());
        assert_eq!(stored(&daemon, 1).expect("kept").wall_us, 1);
        assert!(dropped(&daemon, 6));
        assert_eq!(stored(&daemon, 7).expect("kept").wall_us, 1);
        assert_eq!(
            daemon.status(Some(2)).expect("row kept")[0].state,
            JobState::Cancelled
        );

        daemon.request_shutdown();
        daemon.join();
    }
}
