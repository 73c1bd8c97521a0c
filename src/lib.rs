//! Umbrella crate for the DATE 2013 reproduction *"Toward Polychronous
//! Analysis and Validation for Timed Software Architectures in AADL"*.
//!
//! This package hosts the workspace-level integration tests (`tests/`), the
//! runnable examples (`examples/`) and the `polychrony` command-line front
//! end (`src/bin/polychrony.rs`, with `analyze`, `simulate`, `verify` and
//! `batch` subcommands over the built-in case study and synthetic
//! workloads), and re-exports the whole public API of [`polychrony_core`] —
//! the staged [`Session`] pipeline, the whole-chain [`BatchJob`], the
//! [`BatchRunner`] worker pool and the [`polyverify`] model checker — so
//! that downstream users can depend on a single crate:
//!
//! ```
//! use polychrony::BatchJob;
//!
//! let report = BatchJob::case_study("prodcons").run()?;
//! assert_eq!(report.schedule.hyperperiod, 24);
//! # Ok::<(), polychrony::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use polychrony_core::*;
