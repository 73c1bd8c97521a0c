//! End-to-end polychronous analysis and validation of timed software
//! architectures in AADL.
//!
//! This crate is the facade of the reproduction of *"Toward Polychronous
//! Analysis and Validation for Timed Software Architectures in AADL"*
//! (DATE 2013): it wires the AADL front end ([`aadl`]), the polychronous
//! core ([`signal_moc`]), the affine clock calculus ([`affine_clocks`]), the
//! thread-level scheduler ([`sched`]), the ASME2SSME translation
//! ([`asme2ssme`]) and the simulator ([`polysim`]) into the complete tool
//! chain of the paper:
//!
//! 1. parse and instantiate the AADL model,
//! 2. extract the periodic task set and synthesise a static non-preemptive
//!    schedule over the hyper-period,
//! 3. export the schedule as affine clock relations and verify
//!    synchronizability,
//! 4. translate the architecture into a SIGNAL process model,
//! 5. run the clock calculus and the static analyses (determinism
//!    identification, deadlock detection),
//! 6. co-simulate the scheduled threads and emit VCD traces and profiling
//!    reports,
//! 7. exhaustively verify each scheduled thread with the explicit-state
//!    model checker ([`polyverify`]): alarm freedom and deadlock freedom
//!    over the verification horizon, with replayable counterexamples.
//!
//! The pipeline is exposed at two altitudes:
//!
//! * [`Session`] — the staged API: every phase is a typed artifact
//!   (`Parsed → Instantiated → Scheduled → Translated → Analyzed →
//!   Simulated → Verified`) with public fields, so runs can stop after any
//!   phase, inspect intermediate results, and reuse artifacts;
//! * [`BatchJob`] and [`BatchRunner`] — whole-chain runs: one job (source,
//!   root classifier, [`SessionOptions`]) through the complete chain into
//!   one aggregated [`ToolChainReport`], or many jobs concurrently on a
//!   bounded pool of shared-nothing workers, with ordered per-job reports.
//!
//! # Quick start
//!
//! ```
//! use polychrony_core::BatchJob;
//!
//! let report = BatchJob::case_study("prodcons").run()?;
//! assert_eq!(report.schedule.hyperperiod, 24);
//! assert!(report.static_analysis.causality_cycle.is_none());
//! assert!(report.simulations.values().all(|sim| sim.is_alarm_free()));
//! # Ok::<(), polychrony_core::CoreError>(())
//! ```
//!
//! Staged, stopping after the scheduling phase:
//!
//! ```
//! use polychrony_core::Session;
//!
//! let scheduled = Session::new()
//!     .parse_case_study()?
//!     .instantiate("sysProdCons.impl")?
//!     .schedule()?;
//! assert_eq!(scheduled.schedule.hyperperiod, 24);
//! assert!(scheduled.affine.verified_constraints > 0);
//! # Ok::<(), polychrony_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod demo;
pub mod error;
pub mod options;
pub mod report;
pub mod session;

pub use batch::{BatchJob, BatchReport, BatchResults, BatchRunner};
pub use cache::{job_content_hash, simulated_fingerprint, ArtifactCache, CacheOutcome};
pub use demo::{
    connection_latency_demo, deadline_overrun_demo, ConnectionLatencyDemo, DeadlineOverrunDemo,
};
pub use error::CoreError;
pub use options::{
    options_from_json, options_to_json, PropertySpec, ScheduleOptions, SessionOptions,
    SimulateOptions, TranslateOptions, VcdCapture, VerificationOptions, VerificationScope,
};
pub use polyobs::{
    CollectionMode, Collector, JsonLinesSink, PhaseRecord, ProgressBridge, ProgressReporter,
    ProgressUpdate, RunRecord,
};
pub use report::{ProductVerificationReport, ToolChainReport, VerificationReport};
pub use session::{
    end_to_end_response_for, port_link_for, Analyzed, Instantiated, Parsed, Scheduled, Session,
    Simulated, ThreadUnit, Translated, Verified, VerifiedProduct, VCD_TIMESCALE_NS,
};

// Re-export the main entry points of every layer so that downstream users
// (examples, benches, tests) need a single dependency.
pub use aadl;
pub use affine_clocks;
pub use asme2ssme;
pub use polyobs;
pub use polysim;
pub use polyverify;
pub use sched;
pub use signal_moc;
