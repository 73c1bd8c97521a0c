//! The append-only job log: one JSON object per line, replayed on startup.
//!
//! Events: `submitted` (with the full [`JobSpec`]), `started`, `finished`
//! (with the full [`WireReport`]) and `cancelled`. The log is the daemon's
//! only persistent state and keeps the whole history — replaying it
//! rebuilds the job table as the live daemon bounds it, with unfinished
//! jobs re-queued and the newest finished jobs answering `watch` requests
//! from their stored reports. A line that fails to parse (e.g. a torn
//! final line after a crash) is skipped, not fatal.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use polyobs::json::{self, Json};
use polywire::{JobSpec, JobState, WireReport};

/// A job reconstructed from the log.
pub(crate) struct ReplayedJob {
    pub spec: JobSpec,
    pub state: JobState,
    pub report: Option<WireReport>,
}

/// Handle to the open log file (or a disabled no-op log).
pub(crate) struct JobLog {
    file: Mutex<Option<File>>,
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl JobLog {
    /// A log that records nothing (no `--log` flag).
    pub fn disabled() -> Self {
        Self {
            file: Mutex::new(None),
        }
    }

    /// Opens (creating if needed) the log at `path`, replays its events,
    /// and returns the handle positioned for appending, the reconstructed
    /// jobs in id order, and the ids of the jobs that finished with a
    /// report, in the order they finished.
    pub fn open(path: &Path) -> std::io::Result<(Self, BTreeMap<u64, ReplayedJob>, Vec<u64>)> {
        let mut jobs: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
        let mut finished = Vec::new();
        if path.exists() {
            for line in BufReader::new(File::open(path)?).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(value) = json::parse(&line) else {
                    continue; // torn line from a crash mid-append
                };
                Self::replay_event(&value, &mut jobs, &mut finished);
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            Self {
                file: Mutex::new(Some(file)),
            },
            jobs,
            finished,
        ))
    }

    fn replay_event(value: &Json, jobs: &mut BTreeMap<u64, ReplayedJob>, finished: &mut Vec<u64>) {
        let (Some(event), Some(id)) = (
            value.get("event").and_then(Json::as_str),
            value.get("id").and_then(Json::as_u64),
        ) else {
            return;
        };
        match event {
            "submitted" => {
                let Some(spec) = value.get("spec").and_then(|s| JobSpec::from_json(s).ok()) else {
                    return;
                };
                jobs.insert(
                    id,
                    ReplayedJob {
                        spec,
                        state: JobState::Queued,
                        report: None,
                    },
                );
            }
            // `started` without a matching `finished` means the daemon died
            // mid-job; the job stays Queued so the restart re-runs it.
            "started" => {}
            "finished" => {
                let Some(report) = value
                    .get("report")
                    .and_then(|r| WireReport::from_json(r).ok())
                else {
                    return;
                };
                if let Some(job) = jobs.get_mut(&id) {
                    job.state = if report.error.is_none() {
                        JobState::Done
                    } else {
                        JobState::Failed
                    };
                    job.report = Some(report);
                    finished.push(id);
                }
            }
            "cancelled" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                }
            }
            _ => {}
        }
    }

    fn append(&self, value: Json) {
        let mut guard = match self.file.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(file) = guard.as_mut() {
            // A full disk must not take the verification service down with
            // it; the log silently stops growing instead.
            let _ = writeln!(file, "{value}");
            let _ = file.flush();
        }
    }

    pub fn submitted(&self, id: u64, spec: &JobSpec) {
        self.append(obj(vec![
            ("event", Json::Str("submitted".into())),
            ("id", Json::Num(id as f64)),
            ("spec", spec.to_json()),
        ]));
    }

    pub fn started(&self, id: u64) {
        self.append(obj(vec![
            ("event", Json::Str("started".into())),
            ("id", Json::Num(id as f64)),
        ]));
    }

    pub fn finished(&self, id: u64, report: &WireReport) {
        self.append(obj(vec![
            ("event", Json::Str("finished".into())),
            ("id", Json::Num(id as f64)),
            ("report", report.to_json()),
        ]));
    }

    pub fn cancelled(&self, id: u64) {
        self.append(obj(vec![
            ("event", Json::Str("cancelled".into())),
            ("id", Json::Num(id as f64)),
        ]));
    }
}
