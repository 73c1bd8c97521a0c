//! Length-prefixed framing: `<decimal payload length>\n<payload>\n`.

use std::fmt;
use std::io::{BufRead, Write};

use polyobs::json;

use crate::frame::Frame;

/// Upper bound on one frame's payload, in bytes. Generous for AADL models
/// (the case study is a few KiB) while keeping a corrupt or hostile length
/// prefix from looking like a multi-gigabyte allocation request.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A protocol failure while reading or writing frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The bytes were not a well-formed frame (bad length prefix, bad
    /// JSON, missing or mistyped fields, unknown kind).
    Frame(String),
    /// The frame was well-formed but from a different protocol version.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Frame(m) => write!(f, "malformed frame: {m}"),
            WireError::Protocol(m) => write!(f, "protocol mismatch: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame in a single `write_all` and flushes the stream (frames
/// are request/response units; buffering across them would deadlock both
/// sides). One write per frame keeps a TCP peer from holding the frame's
/// tail back under Nagle's algorithm while it waits for a delayed ACK.
///
/// # Errors
///
/// [`WireError::Io`] when the stream fails.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let payload = frame.to_json().to_string();
    w.write_all(format!("{}\n{payload}\n", payload.len()).as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// before the first byte of a length prefix); EOF anywhere inside a frame
/// is an error, as are oversize lengths, malformed JSON and foreign
/// protocol markers.
///
/// # Errors
///
/// [`WireError::Io`] for stream failures and truncated frames,
/// [`WireError::Frame`] / [`WireError::Protocol`] for malformed payloads.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut prefix = String::new();
    if r.read_line(&mut prefix)? == 0 {
        return Ok(None);
    }
    let len: usize = prefix
        .trim()
        .parse()
        .map_err(|_| WireError::Frame(format!("invalid length prefix {:?}", prefix.trim())))?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Frame(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut newline = [0u8; 1];
    r.read_exact(&mut newline)?;
    if newline[0] != b'\n' {
        return Err(WireError::Frame(
            "payload not followed by a newline (length prefix out of sync)".to_string(),
        ));
    }
    let payload = String::from_utf8(payload)
        .map_err(|_| WireError::Frame("payload is not valid UTF-8".to_string()))?;
    let value = json::parse(&payload).map_err(|e| WireError::Frame(e.to_string()))?;
    Frame::from_json(&value).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{JobSpec, JobState, JobStatus, WireReport};
    use std::io::BufReader;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut reader).unwrap(), Some(frame));
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frames_survive_the_wire() {
        roundtrip(Frame::Submit {
            spec: JobSpec::case_study("sweep \"quoted\"\nname"),
            watch: true,
        });
        roundtrip(Frame::Status { id: None });
        roundtrip(Frame::Status { id: Some(3) });
        roundtrip(Frame::Cancel { id: 9 });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Jobs {
            jobs: vec![JobStatus {
                id: 1,
                name: "a".into(),
                state: JobState::Running,
                detail: String::new(),
            }],
        });
        roundtrip(Frame::Error {
            message: "no such job".into(),
        });
    }

    #[test]
    fn consecutive_frames_share_one_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Cancel { id: 1 }).unwrap();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Some(Frame::Cancel { id: 1 })
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Some(Frame::Shutdown));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn each_frame_is_one_write_call() {
        /// Accepts every byte and counts the `write` calls that carried them.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let frames = [
            Frame::Submit {
                spec: JobSpec::case_study("one write"),
                watch: true,
            },
            Frame::Status { id: None },
            Frame::Shutdown,
        ];
        let mut wire = CountingWriter::default();
        for (sent, frame) in frames.iter().enumerate() {
            write_frame(&mut wire, frame).unwrap();
            assert_eq!(wire.writes, sent + 1, "one write per frame");
        }
        let mut reader = BufReader::new(wire.bytes.as_slice());
        for frame in frames {
            assert_eq!(read_frame(&mut reader).unwrap(), Some(frame));
        }
    }

    #[test]
    fn junk_streams_are_rejected_not_panicked_on() {
        let junk: &[(&str, &str)] = &[
            ("not a length", "x\n{}\n"),
            ("oversize length", "999999999999\n"),
            ("truncated payload", "10\n{}"),
            ("bad json", "6\n{\"a\":\n"),
            ("payload/prefix desync", "2\n{}X"),
        ];
        for (label, bytes) in junk {
            let mut reader = BufReader::new(bytes.as_bytes());
            assert!(read_frame(&mut reader).is_err(), "{label} must error");
        }
    }

    #[test]
    fn a_result_frame_round_trips_with_its_report() {
        let report = WireReport {
            passed: true,
            cache: Some("simulated-hit".into()),
            hyperperiod: 24,
            states: 100,
            transitions: 240,
            verdicts: [("prod".to_string(), "no violation".to_string())]
                .into_iter()
                .collect(),
            error: None,
            wall_us: 4_413,
        };
        roundtrip(Frame::Result { id: 2, report });
    }
}
