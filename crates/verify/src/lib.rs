//! `polyverify` — exhaustive state-space verification of flat SIGNAL
//! processes with counterexample replay.
//!
//! Bounded co-simulation (the `polysim` crate) runs a handful of
//! hyper-periods and *counts* alarm instants; it can miss violations that
//! only show up under input sequences the schedule never produces. This
//! crate closes that gap with an explicit-state model checker in the spirit
//! of the real-time AADL model-checking line of work (Berthomieu et al.):
//!
//! * a canonical execution [`State`] — the memory of every
//!   `delay`/`cell` operator plus the scheduler phase — hashed through a
//!   byte-level encoding ([`state::StateKey`]);
//! * a successor generator that enumerates the feasible input valuations of
//!   an instant, pruned by the clock calculus (synchronisation classes,
//!   exclusions and the sub-clock hierarchy);
//! * a parallel breadth-first reachability engine with a sharded seen-set
//!   (scale knob: [`VerifyOptions::workers`]) and a depth-bounded fallback
//!   for products too large to close;
//! * a past-time LTL property language ([`ltl`]) — `always`, `never`,
//!   `once`, `since`, `previously`, `historically`, the bounded-response
//!   sugar `within <k>`, and atoms over signal presence/value — compiled
//!   into deterministic monitor automata ([`monitor::LtlMonitor`]) whose
//!   registers live in the explored state; the built-in shapes
//!   ([`Property::NeverRaised`], [`Property::BoundedResponse`],
//!   [`Property::EndToEndResponse`]) are canonical desugarings into this
//!   one monitor path, and [`Property::DeadlockFree`] keeps its dedicated
//!   successor-existence check. Violations come back as concrete
//!   [`Counterexample`] traces that replay deterministically in
//!   [`polysim::Simulator`] for independent confirmation. The surface
//!   syntax is documented in `docs/PROPERTIES.md`;
//! * a compositional layer ([`ProductVerifier`]) exploring the synchronous
//!   product of several scheduled threads with event-port connections
//!   ([`PortLink`]) treated as synchronising actions, so cross-thread
//!   latency properties become checkable — with counterexamples that
//!   project back to per-thread traces and replay in a lockstep
//!   co-simulation ([`LockstepCoSim`]);
//! * a cone-of-influence slice over delay memories ([`Slice`]) that
//!   drops every counter no property, port link, clock or divisor reads
//!   from the state key, so unbounded-counter spaces close with a genuine
//!   [`Verdict::Proved`]; the evaluator computes which slots reach an
//!   observable on its compiled equations, the slice is exact for
//!   observables, and the unsliced exploration (the empty slice) stays
//!   available as [`Verifier::verify_reference`] for differential
//!   oracles (`docs/SYMBOLIC.md`).
//!
//! # Quick start
//!
//! ```
//! use polyverify::{InputSpace, Property, Verifier, VerifyOptions};
//! use signal_moc::builder::ProcessBuilder;
//! use signal_moc::expr::Expr;
//! use signal_moc::value::ValueType;
//!
//! // Alarm := Deadline and not Resume — reachable, so verification fails
//! // and the counterexample replays in the simulator.
//! let mut b = ProcessBuilder::new("watch");
//! b.input("Deadline", ValueType::Boolean);
//! b.input("Resume", ValueType::Boolean);
//! b.output("Alarm", ValueType::Boolean);
//! b.define("Alarm", Expr::and(Expr::var("Deadline"), Expr::not(Expr::var("Resume"))));
//! b.synchronize(&["Deadline", "Resume", "Alarm"]);
//! let process = b.build()?;
//!
//! let verifier = Verifier::new(&process, VerifyOptions::default().with_workers(2))?;
//! let outcome = verifier.verify(
//!     &InputSpace::Free,
//!     &[Property::NeverRaised("*Alarm*".into())],
//! )?;
//! let (_, cex) = outcome.violations().next().expect("alarm reachable");
//! assert!(cex.replay(&process)?.reproduced);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counterexample;
mod engine;
pub mod explore;
pub mod inject;
pub mod ltl;
pub mod monitor;
pub mod product;
pub mod property;
pub mod slice;
pub mod state;

/// The random flat processes of the differential oracles under `tests/`.
#[cfg(test)]
#[path = "../tests/random_process/mod.rs"]
mod random_process;

pub use affine_clocks::DispatchFeasibility;
pub use counterexample::{Counterexample, ReplayReport};
pub use explore::{
    ExplorationStats, InputSpace, PropertyVerdict, Verdict, VerificationOutcome, Verifier,
    VerifyError, VerifyOptions,
};
pub use inject::{
    inject_connection_latency, inject_counter_drift, inject_deadline_overrun,
    inject_dispatch_jitter, inject_dropped_delivery, inject_schedule_corruption,
    InjectedCorruptionFault, InjectedDriftFault, InjectedDropFault, InjectedFault,
    InjectedJitterFault, InjectedLinkFault,
};
pub use ltl::{Formula, LtlProperty, ParseError};
pub use monitor::{LtlMonitor, MonitorStep};
pub use polyobs::{CollectionMode, Collector, JsonLinesSink, ProgressReporter};
pub use product::{
    CoSimFailure, LockstepCoSim, PortLink, ProductComponent, ProductSystem, ProductVerifier,
};
pub use property::Property;
pub use slice::Slice;
pub use state::{State, StateKey};
