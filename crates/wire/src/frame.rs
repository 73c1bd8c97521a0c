//! Frame and payload types of the `polychrony-wire-v1` protocol.

use std::collections::BTreeMap;
use std::fmt;

use polychrony_core::aadl::case_study::PRODUCER_CONSUMER_AADL;
use polychrony_core::{
    options_from_json, options_to_json, BatchJob, CacheOutcome, CoreError, SessionOptions,
    ToolChainReport,
};
use polyobs::json::Json;
use polyobs::ProgressUpdate;

use crate::codec::WireError;
use crate::PROTOCOL;

/// One protocol frame, either direction. Client→server kinds: `submit`,
/// `status`, `cancel`, `watch`, `shutdown`. Server→client kinds: `ack`,
/// `jobs`, `progress`, `result`, `error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit a job; with `watch` the connection stays open and receives
    /// `progress` frames followed by the final `result`.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Stream progress and the result on this connection.
        watch: bool,
    },
    /// Ask for the status of one job (`Some(id)`) or of every job (`None`).
    Status {
        /// Job to query, or `None` for the whole table.
        id: Option<u64>,
    },
    /// Cancel a queued or running job (a running job finishes but its result
    /// is discarded; terminal jobs are unaffected).
    Cancel {
        /// Job to cancel.
        id: u64,
    },
    /// Subscribe to progress and the final result of an existing job.
    Watch {
        /// Job to watch.
        id: u64,
    },
    /// Ask the daemon to finish running jobs and exit.
    Shutdown,
    /// Acknowledges `submit`/`cancel`/`shutdown`, echoing the job state.
    Ack {
        /// Job the acknowledgement refers to (0 for `shutdown`).
        id: u64,
        /// State of that job after the request.
        state: JobState,
    },
    /// Response to `status`: one row per queried job.
    Jobs {
        /// The queried subset of the daemon's job table.
        jobs: Vec<JobStatus>,
    },
    /// One telemetry update of a running watched job, bridged from the
    /// job's collector (`phase.*` spans and `engine.level` events).
    Progress {
        /// Job the update belongs to.
        id: u64,
        /// The bridged update.
        update: ProgressUpdate,
    },
    /// Terminal frame of a watched job: the summarised report.
    Result {
        /// Job the report belongs to.
        id: u64,
        /// The summarised outcome.
        report: WireReport,
    },
    /// The daemon could not honour a request.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// A job submission: the model to verify and the options to run it with.
/// `source: None` selects the built-in ProducerConsumer case study, so a
/// property sweep does not re-send the model text with every variant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen label, echoed in status rows and reports.
    pub name: String,
    /// AADL source text; `None` means the built-in case study.
    pub source: Option<String>,
    /// Root classifier to instantiate.
    pub root: String,
    /// Per-phase options (the collector is not on the wire — the daemon
    /// installs its own).
    pub options: SessionOptions,
}

impl JobSpec {
    /// A spec over the built-in ProducerConsumer case study.
    pub fn case_study(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: None,
            root: "sysProdCons.impl".to_string(),
            options: SessionOptions::default(),
        }
    }

    /// Replaces the spec's options.
    #[must_use]
    pub fn with_options(mut self, options: SessionOptions) -> Self {
        self.options = options;
        self
    }

    /// Resolves the spec into a runnable [`BatchJob`] (materialising the
    /// case-study source when `source` is `None`).
    pub fn to_batch_job(&self) -> BatchJob {
        let source = self
            .source
            .clone()
            .unwrap_or_else(|| PRODUCER_CONSUMER_AADL.to_string());
        BatchJob::new(self.name.clone(), source, self.root.clone())
            .with_options(self.options.clone())
    }
}

/// Lifecycle state of a job in the daemon's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Claimed by a worker, phases running.
    Running,
    /// Finished with a report (which may still carry failed checks).
    Done,
    /// Finished with a phase error.
    Failed,
    /// Cancelled before completing (while queued, or mid-run with the
    /// in-flight result discarded).
    Cancelled,
}

impl JobState {
    /// The stable label used on the wire and in CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a [`JobState::label`] back.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Returns `true` for the states no worker will touch again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of a `jobs` frame: the observable state of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Daemon-assigned job id.
    pub id: u64,
    /// Caller-chosen label.
    pub name: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// One-line detail: verdict and cache outcome for terminal jobs,
    /// empty otherwise.
    pub detail: String,
}

/// The summarised outcome of one job, compact enough for the wire: verdict
/// flags, exploration totals and the per-thread verdict texts, but not the
/// full [`ToolChainReport`] (VCD dumps alone can dwarf the model source).
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// `true` when every check of the underlying report passed.
    pub passed: bool,
    /// How the job resolved against the daemon's artifact cache
    /// (a [`CacheOutcome`] label; `None` when no cache was consulted).
    pub cache: Option<String>,
    /// Hyper-period of the synthesised schedule.
    pub hyperperiod: u64,
    /// Distinct states explored, summed over all threads.
    pub states: u64,
    /// Executed transitions, summed over all threads.
    pub transitions: u64,
    /// Per-thread verdict text (the `VerificationOutcome` summary, which
    /// pins property verdicts, counterexample depths and state counts);
    /// the joint product verdict rides under the `"(product)"` key.
    pub verdicts: BTreeMap<String, String>,
    /// The phase error, for failed jobs.
    pub error: Option<String>,
    /// Wall-clock time the job spent in its worker, in microseconds.
    pub wall_us: u64,
}

impl WireReport {
    /// Summarises a completed run.
    pub fn from_report(
        report: &ToolChainReport,
        cache: Option<CacheOutcome>,
        wall_us: u64,
    ) -> Self {
        let mut verdicts = BTreeMap::new();
        let (mut states, mut transitions) = (0u64, 0u64);
        if let Some(verification) = &report.verification {
            states = verification.total_states() as u64;
            transitions = verification.total_transitions() as u64;
            for (thread, outcome) in &verification.outcomes {
                verdicts.insert(thread.clone(), outcome.summary());
            }
            if let Some(product) = &verification.product {
                verdicts.insert("(product)".to_string(), product.summary());
            }
        }
        Self {
            passed: report.all_checks_passed(),
            cache: cache.map(|c| c.label().to_string()),
            hyperperiod: report.schedule.hyperperiod,
            states,
            transitions,
            verdicts,
            error: None,
            wall_us,
        }
    }

    /// Summarises a run that stopped with a phase error.
    pub fn from_error(error: &CoreError, cache: Option<CacheOutcome>, wall_us: u64) -> Self {
        Self {
            passed: false,
            cache: cache.map(|c| c.label().to_string()),
            hyperperiod: 0,
            states: 0,
            transitions: 0,
            verdicts: BTreeMap::new(),
            error: Some(error.to_string()),
            wall_us,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn frame_err(message: impl Into<String>) -> WireError {
    WireError::Frame(message.into())
}

fn str_field(v: &Json, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| frame_err(format!("missing or non-string field {key:?}")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| frame_err(format!("missing or non-integer field {key:?}")))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, WireError> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(frame_err(format!("missing or non-boolean field {key:?}"))),
    }
}

impl JobSpec {
    /// Encodes the spec as a JSON object (also used verbatim by the
    /// daemon's append-only job log).
    pub fn to_json(&self) -> Json {
        let source = match &self.source {
            Some(text) => Json::Str(text.clone()),
            None => Json::Null,
        };
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("source", source),
            ("root", Json::Str(self.root.clone())),
            ("options", options_to_json(&self.options)),
        ])
    }

    /// Decodes [`JobSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`WireError::Frame`] for missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let source = match v.get("source") {
            None | Some(Json::Null) => None,
            Some(Json::Str(text)) => Some(text.clone()),
            Some(other) => {
                return Err(frame_err(format!(
                    "spec.source must be string or null, got {other}"
                )))
            }
        };
        Ok(JobSpec {
            name: str_field(v, "name")?,
            source,
            root: str_field(v, "root")?,
            options: match v.get("options") {
                Some(options) => {
                    options_from_json(options).map_err(|e| frame_err(e.to_string()))?
                }
                None => SessionOptions::default(),
            },
        })
    }
}

fn state_from_json(v: &Json, key: &str) -> Result<JobState, WireError> {
    let label = str_field(v, key)?;
    JobState::from_label(&label).ok_or_else(|| frame_err(format!("unknown job state {label:?}")))
}

fn status_to_json(status: &JobStatus) -> Json {
    obj(vec![
        ("id", num(status.id)),
        ("name", Json::Str(status.name.clone())),
        ("state", Json::Str(status.state.label().into())),
        ("detail", Json::Str(status.detail.clone())),
    ])
}

fn status_from_json(v: &Json) -> Result<JobStatus, WireError> {
    Ok(JobStatus {
        id: u64_field(v, "id")?,
        name: str_field(v, "name")?,
        state: state_from_json(v, "state")?,
        detail: str_field(v, "detail")?,
    })
}

impl WireReport {
    /// Encodes the report as a JSON object (also used verbatim by the
    /// daemon's append-only job log).
    pub fn to_json(&self) -> Json {
        let cache = match &self.cache {
            Some(label) => Json::Str(label.clone()),
            None => Json::Null,
        };
        let error = match &self.error {
            Some(message) => Json::Str(message.clone()),
            None => Json::Null,
        };
        let verdicts = Json::Obj(
            self.verdicts
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        obj(vec![
            ("passed", Json::Bool(self.passed)),
            ("cache", cache),
            ("hyperperiod", num(self.hyperperiod)),
            ("states", num(self.states)),
            ("transitions", num(self.transitions)),
            ("verdicts", verdicts),
            ("error", error),
            ("wall_us", num(self.wall_us)),
        ])
    }

    /// Decodes [`WireReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`WireError::Frame`] for missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let cache = match v.get("cache") {
            None | Some(Json::Null) => None,
            Some(Json::Str(label)) => Some(label.clone()),
            Some(other) => {
                return Err(frame_err(format!(
                    "report.cache must be string or null, got {other}"
                )))
            }
        };
        let error = match v.get("error") {
            None | Some(Json::Null) => None,
            Some(Json::Str(message)) => Some(message.clone()),
            Some(other) => {
                return Err(frame_err(format!(
                    "report.error must be string or null, got {other}"
                )))
            }
        };
        let verdicts = v
            .get("verdicts")
            .and_then(Json::as_obj)
            .ok_or_else(|| frame_err("missing report.verdicts object"))?
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| frame_err("report.verdicts values must be strings"))
            })
            .collect::<Result<_, _>>()?;
        Ok(WireReport {
            passed: bool_field(v, "passed")?,
            cache,
            hyperperiod: u64_field(v, "hyperperiod")?,
            states: u64_field(v, "states")?,
            transitions: u64_field(v, "transitions")?,
            verdicts,
            error,
            wall_us: u64_field(v, "wall_us")?,
        })
    }
}

fn progress_to_json(id: u64, update: &ProgressUpdate) -> Vec<(&'static str, Json)> {
    match update {
        ProgressUpdate::Phase { name } => vec![("id", num(id)), ("phase", Json::Str(name.clone()))],
        ProgressUpdate::Level {
            phase,
            depth,
            bound,
            states,
            frontier,
        } => {
            let bound = match bound {
                Some(b) => num(*b),
                None => Json::Null,
            };
            vec![
                ("id", num(id)),
                ("phase", Json::Str(phase.clone())),
                ("depth", num(*depth)),
                ("bound", bound),
                ("states", num(*states)),
                ("frontier", num(*frontier)),
            ]
        }
    }
}

fn progress_from_json(v: &Json) -> Result<Frame, WireError> {
    let id = u64_field(v, "id")?;
    let phase = str_field(v, "phase")?;
    // A level update is distinguished by its depth; a bare phase marker
    // has none.
    let update = if v.get("depth").is_some() {
        let bound = match v.get("bound") {
            None | Some(Json::Null) => None,
            Some(b) => Some(
                b.as_u64()
                    .ok_or_else(|| frame_err("progress.bound must be an integer or null"))?,
            ),
        };
        ProgressUpdate::Level {
            phase,
            depth: u64_field(v, "depth")?,
            bound,
            states: u64_field(v, "states")?,
            frontier: u64_field(v, "frontier")?,
        }
    } else {
        ProgressUpdate::Phase { name: phase }
    };
    Ok(Frame::Progress { id, update })
}

impl Frame {
    /// The frame's `"kind"` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Submit { .. } => "submit",
            Frame::Status { .. } => "status",
            Frame::Cancel { .. } => "cancel",
            Frame::Watch { .. } => "watch",
            Frame::Shutdown => "shutdown",
            Frame::Ack { .. } => "ack",
            Frame::Jobs { .. } => "jobs",
            Frame::Progress { .. } => "progress",
            Frame::Result { .. } => "result",
            Frame::Error { .. } => "error",
        }
    }

    /// Encodes the frame as its JSON payload object (protocol marker and
    /// kind included).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("proto", Json::Str(PROTOCOL.to_string())),
            ("kind", Json::Str(self.kind().to_string())),
        ];
        match self {
            Frame::Submit { spec, watch } => {
                pairs.push(("spec", spec.to_json()));
                pairs.push(("watch", Json::Bool(*watch)));
            }
            Frame::Status { id } => {
                if let Some(id) = id {
                    pairs.push(("id", num(*id)));
                }
            }
            Frame::Cancel { id } | Frame::Watch { id } => pairs.push(("id", num(*id))),
            Frame::Shutdown => {}
            Frame::Ack { id, state } => {
                pairs.push(("id", num(*id)));
                pairs.push(("state", Json::Str(state.label().to_string())));
            }
            Frame::Jobs { jobs } => {
                pairs.push(("jobs", Json::Arr(jobs.iter().map(status_to_json).collect())));
            }
            Frame::Progress { id, update } => pairs.extend(progress_to_json(*id, update)),
            Frame::Result { id, report } => {
                pairs.push(("id", num(*id)));
                pairs.push(("report", report.to_json()));
            }
            Frame::Error { message } => pairs.push(("message", Json::Str(message.clone()))),
        }
        obj(pairs)
    }

    /// Decodes a payload object back into a frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when the `proto` marker is missing or not
    /// [`PROTOCOL`]; [`WireError::Frame`] for an unknown kind or a payload
    /// whose fields are missing or mistyped.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        match v.get("proto").and_then(Json::as_str) {
            Some(proto) if proto == PROTOCOL => {}
            Some(proto) => {
                return Err(WireError::Protocol(format!(
                    "unsupported protocol {proto:?} (expected {PROTOCOL:?})"
                )))
            }
            None => {
                return Err(WireError::Protocol(format!(
                    "missing \"proto\" marker (expected {PROTOCOL:?})"
                )))
            }
        }
        let kind = str_field(v, "kind")?;
        match kind.as_str() {
            "submit" => Ok(Frame::Submit {
                spec: JobSpec::from_json(
                    v.get("spec")
                        .ok_or_else(|| frame_err("missing submit.spec"))?,
                )?,
                watch: bool_field(v, "watch")?,
            }),
            "status" => Ok(Frame::Status {
                id: match v.get("id") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(u64_field(v, "id")?),
                },
            }),
            "cancel" => Ok(Frame::Cancel {
                id: u64_field(v, "id")?,
            }),
            "watch" => Ok(Frame::Watch {
                id: u64_field(v, "id")?,
            }),
            "shutdown" => Ok(Frame::Shutdown),
            "ack" => Ok(Frame::Ack {
                id: u64_field(v, "id")?,
                state: state_from_json(v, "state")?,
            }),
            "jobs" => Ok(Frame::Jobs {
                jobs: v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| frame_err("missing jobs array"))?
                    .iter()
                    .map(status_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "progress" => progress_from_json(v),
            "result" => Ok(Frame::Result {
                id: u64_field(v, "id")?,
                report: WireReport::from_json(
                    v.get("report")
                        .ok_or_else(|| frame_err("missing result.report"))?,
                )?,
            }),
            "error" => Ok(Frame::Error {
                message: str_field(v, "message")?,
            }),
            other => Err(frame_err(format!("unknown frame kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_option_labels_are_frame_errors() {
        let bad = polyobs::json::parse(
            r#"{"name":"x","root":"r","options":{"schedule":{"policy":"fifo"}}}"#,
        )
        .unwrap();
        assert!(matches!(JobSpec::from_json(&bad), Err(WireError::Frame(_))));
    }

    #[test]
    fn case_study_spec_resolves_to_a_runnable_job() {
        let spec = JobSpec::case_study("sweep-0");
        let job = spec.to_batch_job();
        assert_eq!(job.name, "sweep-0");
        assert_eq!(job.root, "sysProdCons.impl");
        assert!(job.source.contains("sysProdCons"));
    }

    #[test]
    fn wrong_protocol_marker_is_a_protocol_error() {
        let v =
            polyobs::json::parse(r#"{"proto":"polychrony-wire-v0","kind":"shutdown"}"#).unwrap();
        assert!(matches!(Frame::from_json(&v), Err(WireError::Protocol(_))));
        let v = polyobs::json::parse(r#"{"kind":"shutdown"}"#).unwrap();
        assert!(matches!(Frame::from_json(&v), Err(WireError::Protocol(_))));
    }

    #[test]
    fn unknown_kind_is_a_frame_error() {
        let v = polyobs::json::parse(r#"{"proto":"polychrony-wire-v1","kind":"reboot"}"#).unwrap();
        assert!(matches!(Frame::from_json(&v), Err(WireError::Frame(_))));
    }
}
