//! `polychronyd` — verification as a service for the polychronous tool
//! chain.
//!
//! The daemon wraps the staged pipeline of `polychrony_core` behind the
//! `polychrony-wire-v1` protocol ([`polywire`]): clients submit AADL
//! models with per-phase options, a bounded worker pool drains the job
//! queue, and every job runs through a shared content-addressed
//! [`ArtifactCache`](polychrony_core::ArtifactCache) — so a property sweep
//! over one model pays the parse-through-simulate front end once and
//! re-runs only the verification phase per variant.
//!
//! Three durability/observability properties shape the design:
//!
//! * **Replayable**: every submission and every result is appended to a
//!   JSON-lines job log. On restart the daemon rebuilds its job table from
//!   the log — the newest 1024 finished jobs keep their reports (a `watch`
//!   on them replays the stored result), older ones their status rows, and
//!   unfinished jobs are re-enqueued. The live table keeps the same 1024
//!   reports, so a finished job costs the daemon one status row once newer
//!   jobs have pushed its report out.
//! * **Streaming**: a watched job bridges its collector's `phase.*` spans
//!   and `engine.level` events onto `progress` frames via
//!   [`ProgressBridge`](polyobs::ProgressBridge), so clients see every
//!   phase start, and exploration levels at most once per 100 ms. The
//!   worker thread sends the frames itself, so a job's cost to the daemon
//!   does not grow with its exploration depth.
//! * **Observable**: the daemon-level [`Collector`](polyobs::Collector)
//!   carries `cache.hits.*` / `cache.misses` counters, the
//!   `daemon.queue_depth` / `daemon.running` gauges and per-job
//!   `daemon.job` spans, and `polychronyd --trace-out` streams them as
//!   `polychrony-trace-v1` lines like every other front end.
//!
//! The library API ([`Daemon`]) is fully in-process — the tests drive it
//! without sockets — and [`Daemon::serve_unix`] / [`Daemon::serve_tcp`]
//! bolt the wire protocol on top. See `docs/SERVICE.md` for the protocol
//! and operational reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod log;
mod serve;

pub use daemon::{Daemon, DaemonConfig};

use std::fmt;

/// A daemon-side failure surfaced to clients as an `error` frame (and to
/// the in-process API as a typed error).
#[derive(Debug)]
pub enum ServerError {
    /// The job log or a socket failed.
    Io(std::io::Error),
    /// The submitted spec's options do not validate.
    InvalidSpec(String),
    /// No job with the requested id exists.
    UnknownJob(u64),
    /// The job finished, but its report is older than the newest 1024
    /// finished jobs' and is no longer kept (its status row is).
    ReportDropped(u64),
    /// The daemon is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::InvalidSpec(message) => write!(f, "invalid job spec: {message}"),
            ServerError::UnknownJob(id) => write!(f, "no job with id {id}"),
            ServerError::ReportDropped(id) => write!(
                f,
                "job {id} finished, but its report is no longer kept (the daemon keeps the newest 1024)"
            ),
            ServerError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}
