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

/// One job's full lifecycle, as the daemon tracks it.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    report: Option<WireReport>,
    /// Live subscribers; each receives `progress` frames and the final
    /// `result` frame, then its sender is dropped.
    watchers: Vec<mpsc::Sender<Frame>>,
}

/// Mutable state shared by workers and connection handlers.
struct State {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    running: usize,
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
    /// Builds a daemon: replays the job log (re-queueing unfinished jobs),
    /// wires the cache to the collector, and starts the worker pool.
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
        let (log, replayed) = match &config.log_path {
            Some(path) => JobLog::open(path)?,
            None => (JobLog::disabled(), BTreeMap::new()),
        };
        let mut state = State {
            next_id: 1,
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            running: 0,
        };
        for (id, job) in replayed {
            state.next_id = state.next_id.max(id + 1);
            if job.state == JobState::Queued {
                state.queue.push_back(id);
            }
            state.jobs.insert(
                id,
                JobEntry {
                    spec: job.spec,
                    state: job.state,
                    report: job.report,
                    watchers: Vec::new(),
                },
            );
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
                spec,
                state: JobState::Queued,
                report: None,
                watchers: watcher.into_iter().collect(),
            },
        );
        state.queue.push_back(id);
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
    /// [`ServerError::UnknownJob`] for an id the table has never seen.
    pub fn watch(&self, id: u64) -> Result<mpsc::Receiver<Frame>, ServerError> {
        let mut state = self.state();
        let entry = state.jobs.get_mut(&id).ok_or(ServerError::UnknownJob(id))?;
        let (tx, rx) = mpsc::channel();
        if entry.state.is_terminal() {
            let _ = tx.send(Frame::Result {
                id,
                report: entry.report.clone().unwrap_or_else(cancelled_report),
            });
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
            name: entry.spec.name.clone(),
            state: entry.state,
            detail: detail_of(entry),
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
            let report = cancelled_report();
            for tx in entry.watchers.drain(..) {
                let _ = tx.send(Frame::Result {
                    id,
                    report: report.clone(),
                });
            }
            state.queue.retain(|&queued| queued != id);
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
fn detail_of(entry: &JobEntry) -> String {
    match (&entry.state, &entry.report) {
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
                if let Some(id) = state.queue.pop_front() {
                    inner
                        .collector
                        .gauge("daemon.queue_depth")
                        .set(state.queue.len() as u64);
                    let spec = {
                        let entry = state.jobs.get_mut(&id).expect("queued job is in the table");
                        entry.state = JobState::Running;
                        entry.spec.clone()
                    };
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
        let report = run_job(&inner, id, &spec);
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
                inner.log.finished(id, &report);
                for tx in entry.watchers.drain(..) {
                    let _ = tx.send(Frame::Result {
                        id,
                        report: report.clone(),
                    });
                }
                entry.report = Some(report);
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
}

/// Runs one job through the shared cache, bridging its telemetry onto the
/// watchers' `progress` frames.
fn run_job(inner: &Arc<Inner>, id: u64, spec: &JobSpec) -> WireReport {
    let started = Instant::now();
    // Every job gets a full collector with a channel bridge: the pipeline's
    // `phase.*` spans and the engine's `engine.level` events become
    // ProgressUpdates, forwarded to whoever is watching. The collector
    // is per-job, so one job's spans never leak into another's stream.
    let job_collector = Collector::full();
    let (tx, rx) = mpsc::channel();
    job_collector.add_sink(Box::new(polyobs::ProgressBridge::channel(tx)));
    let forwarder = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            for update in rx {
                let frame = Frame::Progress { id, update };
                let mut state = lock(&inner.state);
                if let Some(entry) = state.jobs.get_mut(&id) {
                    entry.watchers.retain(|tx| tx.send(frame.clone()).is_ok());
                }
            }
        })
    };
    let mut span = inner.collector.span("daemon.job");
    span.attr("id", id);
    span.attr("job", spec.name.as_str());
    let mut job = spec.to_batch_job();
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
    // Dropping the job (and with it the last clone of the collector)
    // closes the bridge channel, ending the forwarder.
    drop(job);
    drop(job_collector);
    let _ = forwarder.join();
    report
}
