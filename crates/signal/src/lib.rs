//! Polychronous model of computation: a from-scratch implementation of the
//! SIGNAL kernel used by the DATE 2013 paper *"Toward Polychronous Analysis
//! and Validation for Timed Software Architectures in AADL"*.
//!
//! The crate provides:
//!
//! * a representation of SIGNAL **processes** — sets of equations over
//!   signals built from the kernel operators (step-wise functions, `delay`,
//!   `when` sampling, `default` deterministic merge, `cell` memorisation and
//!   partial definitions) plus clock constraints and sub-process instances
//!   ([`process`], [`expr`], [`builder`]);
//! * the **clock calculus**: synchronisation-class construction, clock
//!   hierarchy synthesis, master-clock identification and endochrony /
//!   determinism verdicts ([`clockcalc`]);
//! * **static analyses**: instantaneous-dependency deadlock detection,
//!   multiple/overlapping definition detection, automaton determinism
//!   checking ([`analysis`], [`automaton`]);
//! * a **denotational evaluator** executing flat processes on multi-clock
//!   traces, used to validate the translation semantics and to drive the
//!   simulator ([`eval`], [`trace`]);
//! * a **pretty printer** regenerating SIGNAL textual syntax ([`pretty`]).
//!
//! # Example
//!
//! ```
//! use signal_moc::builder::ProcessBuilder;
//! use signal_moc::clockcalc::ClockCalculus;
//! use signal_moc::expr::Expr;
//! use signal_moc::value::{Value, ValueType};
//!
//! // count = (count $ 1 init 0) + 1  when tick
//! let mut b = ProcessBuilder::new("counter");
//! b.input("tick", ValueType::Event);
//! b.output("count", ValueType::Integer);
//! b.define("count", Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)));
//! b.synchronize(&["count", "tick"]);
//! let process = b.build()?;
//! let calculus = ClockCalculus::analyze(&process)?;
//! assert_eq!(calculus.master_clocks().len(), 1); // endochronous
//! # Ok::<(), signal_moc::SignalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod automaton;
pub mod builder;
pub mod clockcalc;
pub mod error;
pub mod eval;
pub mod expr;
pub mod pretty;
pub mod process;
pub mod trace;
pub mod value;
pub mod view;

pub use builder::ProcessBuilder;
pub use clockcalc::{ClockCalculus, ClockClass, DeterminismVerdict};
pub use error::SignalError;
pub use eval::{EvalWork, Evaluator, ResolvedStep};
pub use expr::{BinOp, Expr, UnOp};
pub use process::{Equation, Process, ProcessModel, SignalDecl, SignalRole};
pub use trace::{Trace, TraceStep};
pub use value::{Value, ValueType};
pub use view::InstantView;
