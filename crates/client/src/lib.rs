//! Thin blocking client for `polychronyd`, the verification daemon.
//!
//! One [`Client`] owns one connection (unix socket or TCP) and speaks the
//! `polychrony-wire-v1` protocol from [`polywire`]. The API is
//! deliberately synchronous — a request method writes one frame and blocks
//! for the response — because every caller in this workspace (the
//! `polychrony submit|status|watch|stop` CLI, the tests, the bench
//! harness) wants exactly that shape; streaming arrives through the
//! [`Client::wait`] loop, which surfaces `progress` frames to a callback
//! until the final `result`.
//!
//! Connection failures are ordinary, expected events (the daemon may
//! simply not be running), so they are a dedicated [`ClientError::Connect`]
//! variant that the CLI maps to a clean exit code 2 instead of a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use polyobs::ProgressUpdate;
use polywire::{
    read_frame, write_frame, Frame, JobSpec, JobState, JobStatus, WireError, WireReport,
};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7433`.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A failure while talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect — most commonly the daemon is not running.
    Connect {
        /// The endpoint that refused.
        endpoint: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The connection broke or the peer sent malformed frames.
    Wire(WireError),
    /// The daemon answered with an `error` frame.
    Daemon(String),
    /// The daemon answered with a frame the request does not expect.
    UnexpectedFrame(String),
    /// The daemon closed the connection mid-request.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect { endpoint, source } => {
                write!(f, "cannot connect to polychronyd at {endpoint}: {source}")
            }
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Daemon(message) => write!(f, "daemon refused the request: {message}"),
            ClientError::UnexpectedFrame(kind) => {
                write!(f, "unexpected {kind:?} frame from the daemon")
            }
            ClientError::Disconnected => write!(f, "daemon closed the connection mid-request"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect { source, .. } => Some(source),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One blocking connection to the daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Endpoint {
    /// Opens a connection to the daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the socket cannot be opened (daemon
    /// not running, stale socket path, port closed).
    pub fn connect(&self) -> Result<Client, ClientError> {
        let connect_err = |source| ClientError::Connect {
            endpoint: self.to_string(),
            source,
        };
        let (read_half, write_half): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match self {
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path).map_err(connect_err)?;
                let clone = stream.try_clone().map_err(connect_err)?;
                (Box::new(stream), Box::new(clone))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr).map_err(connect_err)?;
                // Frames are small request/response units: without
                // TCP_NODELAY, Nagle's algorithm and the peer's delayed ACK
                // stall each round trip for tens of milliseconds.
                stream.set_nodelay(true).map_err(connect_err)?;
                let clone = stream.try_clone().map_err(connect_err)?;
                (Box::new(stream), Box::new(clone))
            }
        };
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: write_half,
        })
    }
}

impl Client {
    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] when the stream fails.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame)?;
        Ok(())
    }

    /// Reads the next frame, treating EOF as [`ClientError::Disconnected`]
    /// and an `error` frame as [`ClientError::Daemon`].
    ///
    /// A daemon that dies mid-stream does not always produce a clean EOF
    /// at a frame boundary: the kernel may report the closed peer as an
    /// unexpected-EOF inside a frame, a connection reset, or a broken
    /// pipe. All of those are the same event from the caller's point of
    /// view, so they are folded into [`ClientError::Disconnected`] too —
    /// the CLI maps it to the same clean exit 2 as connection-refused.
    ///
    /// # Errors
    ///
    /// Also [`ClientError::Wire`] for framing failures (malformed frames,
    /// oversized lengths) and stream errors other than a closed peer.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        use std::io::ErrorKind;
        match read_frame(&mut self.reader) {
            Ok(Some(Frame::Error { message })) => Err(ClientError::Daemon(message)),
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::Disconnected),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                ) =>
            {
                Err(ClientError::Disconnected)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Submits a job; with `watch` the connection then streams progress
    /// (drive it with [`Client::wait`]). Returns the assigned job id and
    /// its initial state.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] when the daemon rejects the spec, plus the
    /// transport errors of [`Client::recv`].
    pub fn submit(&mut self, spec: &JobSpec, watch: bool) -> Result<(u64, JobState), ClientError> {
        self.send(&Frame::Submit {
            spec: spec.clone(),
            watch,
        })?;
        match self.recv()? {
            Frame::Ack { id, state } => Ok((id, state)),
            other => Err(ClientError::UnexpectedFrame(other.kind().to_string())),
        }
    }

    /// Fetches status rows: one job by id, or the whole table.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] for unknown ids, plus transport errors.
    pub fn status(&mut self, id: Option<u64>) -> Result<Vec<JobStatus>, ClientError> {
        self.send(&Frame::Status { id })?;
        match self.recv()? {
            Frame::Jobs { jobs } => Ok(jobs),
            other => Err(ClientError::UnexpectedFrame(other.kind().to_string())),
        }
    }

    /// Cancels a queued or running job, returning its state after the
    /// request (a `Cancelled` ack is binding: the job never reports a
    /// completed result afterwards).
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] for unknown ids, plus transport errors.
    pub fn cancel(&mut self, id: u64) -> Result<JobState, ClientError> {
        self.send(&Frame::Cancel { id })?;
        match self.recv()? {
            Frame::Ack { state, .. } => Ok(state),
            other => Err(ClientError::UnexpectedFrame(other.kind().to_string())),
        }
    }

    /// Subscribes to an existing job's progress stream; follow with
    /// [`Client::wait`].
    ///
    /// # Errors
    ///
    /// Transport errors only — the subscription outcome arrives in the
    /// stream itself.
    pub fn watch(&mut self, id: u64) -> Result<(), ClientError> {
        self.send(&Frame::Watch { id })
    }

    /// Drains the progress stream of a watched job: every `progress` frame
    /// is handed to `on_progress`, and the final `result` frame ends the
    /// loop.
    ///
    /// # Errors
    ///
    /// [`ClientError::Daemon`] when the daemon reports the job unknown,
    /// [`ClientError::Disconnected`] when it exits mid-stream, plus
    /// transport errors.
    pub fn wait(
        &mut self,
        mut on_progress: impl FnMut(u64, &ProgressUpdate),
    ) -> Result<(u64, WireReport), ClientError> {
        loop {
            match self.recv()? {
                Frame::Progress { id, update } => on_progress(id, &update),
                Frame::Result { id, report } => return Ok((id, report)),
                // An `ack` can interleave when the caller submitted several
                // jobs on one connection before waiting.
                Frame::Ack { .. } => {}
                other => return Err(ClientError::UnexpectedFrame(other.kind().to_string())),
            }
        }
    }

    /// Asks the daemon to finish running jobs and exit.
    ///
    /// # Errors
    ///
    /// Transport errors of [`Client::recv`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Ack { .. } => Ok(()),
            other => Err(ClientError::UnexpectedFrame(other.kind().to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connecting_to_a_missing_socket_is_a_connect_error() {
        let endpoint = Endpoint::Unix(PathBuf::from("/nonexistent/polychronyd.sock"));
        match endpoint.connect() {
            Err(ClientError::Connect { endpoint, .. }) => {
                assert!(
                    endpoint.contains("/nonexistent/polychronyd.sock"),
                    "{endpoint}"
                );
            }
            other => panic!("expected a connect error, got {other:?}"),
        }
    }

    #[test]
    fn connecting_to_a_closed_tcp_port_is_a_connect_error() {
        // Bind then drop a listener so the port is momentarily known-closed.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let endpoint = Endpoint::Tcp(format!("127.0.0.1:{port}"));
        assert!(matches!(
            endpoint.connect(),
            Err(ClientError::Connect { .. })
        ));
    }
}
