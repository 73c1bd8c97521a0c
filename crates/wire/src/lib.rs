//! The `polychrony-wire-v1` protocol: the frames spoken between the
//! `polychrony` CLI and the `polychronyd` verification daemon.
//!
//! The protocol is deliberately primitive — length-prefixed line JSON over
//! any byte stream (TCP or a unix socket) — so it can be driven from a
//! shell with `printf` and inspected with `cat`, and because the
//! workspace's vendored `serde` is a compile-time stand-in with no real
//! serialisation, every frame hand-encodes through [`polyobs::json`], the
//! same zero-dependency value type the trace sinks use.
//!
//! On the wire, one frame is
//!
//! ```text
//! <decimal payload length>\n
//! <payload: one JSON object>\n
//! ```
//!
//! and every payload object carries `"proto": "polychrony-wire-v1"` plus a
//! `"kind"` discriminator. Unknown *keys* are ignored (room to grow);
//! unknown *kinds* and wrong protocol versions are rejected. See
//! `docs/SERVICE.md` for the full frame reference.
//!
//! ```
//! use polywire::{read_frame, write_frame, Frame, JobState};
//!
//! let frame = Frame::Ack { id: 7, state: JobState::Queued };
//! let mut wire = Vec::new();
//! write_frame(&mut wire, &frame)?;
//! let mut reader = std::io::BufReader::new(wire.as_slice());
//! assert_eq!(read_frame(&mut reader)?, Some(frame));
//! assert_eq!(read_frame(&mut reader)?, None); // clean EOF
//! # Ok::<(), polywire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod frame;

pub use codec::{read_frame, write_frame, WireError, MAX_FRAME_LEN};
pub use frame::{Frame, JobSpec, JobState, JobStatus, WireReport};
pub use polychrony_core::{options_from_json, options_to_json};

/// Protocol identifier carried by every frame; readers reject anything else.
pub const PROTOCOL: &str = "polychrony-wire-v1";
