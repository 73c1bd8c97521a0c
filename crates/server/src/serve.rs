//! The socket layer: accept loops and per-connection frame handlers.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use polywire::{read_frame, write_frame, Frame, JobState};

use crate::daemon::{Daemon, Inner};
use crate::ServerError;

/// Where the serve loop listens; shutdown connects here once to unblock
/// the blocking `accept`.
pub(crate) enum PokeTarget {
    Unix(PathBuf),
    Tcp(std::net::SocketAddr),
}

/// Wakes a serve loop blocked in `accept` so it can observe shutdown.
pub(crate) fn poke(inner: &Inner) {
    let guard = match inner.poke.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    match &*guard {
        Some(PokeTarget::Unix(path)) => {
            let _ = UnixStream::connect(path);
        }
        Some(PokeTarget::Tcp(addr)) => {
            let _ = TcpStream::connect(addr);
        }
        None => {}
    }
}

impl Daemon {
    /// Serves the wire protocol on a unix socket at `path` (a stale socket
    /// file from a previous run is removed first). Blocks until
    /// [`Daemon::request_shutdown`]; the socket file is removed on return.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when binding fails.
    pub fn serve_unix(&self, path: &Path) -> Result<(), ServerError> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        self.set_poke(PokeTarget::Unix(path.to_path_buf()));
        for stream in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            self.spawn_handler(Box::new(read_half), Box::new(stream));
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Serves the wire protocol on a TCP socket bound to `addr`
    /// (e.g. `127.0.0.1:7713`). Blocks until [`Daemon::request_shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when binding fails.
    pub fn serve_tcp(&self, addr: &str) -> Result<(), ServerError> {
        let listener = TcpListener::bind(addr)?;
        self.set_poke(PokeTarget::Tcp(listener.local_addr()?));
        for stream in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Without TCP_NODELAY, Nagle's algorithm holds a reply back
            // until the client's delayed ACK: tens of milliseconds per
            // round trip. A stream that refuses it still works, only slower.
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            self.spawn_handler(Box::new(read_half), Box::new(stream));
        }
        Ok(())
    }

    fn set_poke(&self, target: PokeTarget) {
        let mut guard = match self.inner.poke.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *guard = Some(target);
    }

    fn spawn_handler(&self, read_half: Box<dyn Read + Send>, write_half: Box<dyn Write + Send>) {
        let daemon = self.clone();
        std::thread::spawn(move || {
            daemon.inner.collector.counter("daemon.connections").incr();
            handle_connection(&daemon, BufReader::new(read_half), write_half);
        });
    }
}

/// Reads frames from one client until EOF, a framing error, or a
/// `shutdown` request, answering each per the protocol.
fn handle_connection(
    daemon: &Daemon,
    mut reader: BufReader<Box<dyn Read + Send>>,
    mut writer: Box<dyn Write + Send>,
) {
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // client hung up cleanly
            Err(e) => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let keep_going = match frame {
            Frame::Submit { spec, watch } => handle_submit(daemon, spec, watch, &mut writer),
            Frame::Status { id } => {
                let reply = match daemon.status(id) {
                    Ok(jobs) => Frame::Jobs { jobs },
                    Err(e) => error_frame(e),
                };
                write_frame(&mut writer, &reply).is_ok()
            }
            Frame::Cancel { id } => {
                let reply = match daemon.cancel(id) {
                    Ok(state) => Frame::Ack { id, state },
                    Err(e) => error_frame(e),
                };
                write_frame(&mut writer, &reply).is_ok()
            }
            Frame::Watch { id } => match daemon.watch(id) {
                Ok(rx) => stream_frames(&mut writer, rx),
                Err(e) => write_frame(&mut writer, &error_frame(e)).is_ok(),
            },
            Frame::Shutdown => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::Ack {
                        id: 0,
                        state: JobState::Done,
                    },
                );
                daemon.request_shutdown();
                false
            }
            // Server-to-client frames arriving here are a protocol misuse.
            other => write_frame(
                &mut writer,
                &Frame::Error {
                    message: format!("unexpected {} frame from client", other.kind()),
                },
            )
            .is_ok(),
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_submit(
    daemon: &Daemon,
    spec: polywire::JobSpec,
    watch: bool,
    writer: &mut Box<dyn Write + Send>,
) -> bool {
    if watch {
        match daemon.submit_watched(spec) {
            Ok((id, rx)) => {
                if write_frame(
                    writer,
                    &Frame::Ack {
                        id,
                        state: JobState::Queued,
                    },
                )
                .is_err()
                {
                    return false;
                }
                stream_frames(writer, rx)
            }
            Err(e) => write_frame(writer, &error_frame(e)).is_ok(),
        }
    } else {
        let reply = match daemon.submit(spec) {
            Ok(id) => Frame::Ack {
                id,
                state: JobState::Queued,
            },
            Err(e) => error_frame(e),
        };
        write_frame(writer, &reply).is_ok()
    }
}

/// Forwards a watch channel's frames to the client until the channel
/// closes (the final `result` frame drops the daemon-side sender).
fn stream_frames(writer: &mut Box<dyn Write + Send>, rx: std::sync::mpsc::Receiver<Frame>) -> bool {
    for frame in rx {
        let done = matches!(frame, Frame::Result { .. });
        if write_frame(writer, &frame).is_err() {
            return false;
        }
        if done {
            return true;
        }
    }
    true
}

fn error_frame(e: ServerError) -> Frame {
    Frame::Error {
        message: e.to_string(),
    }
}
