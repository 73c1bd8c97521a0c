//! ASME2SSME: the AADL-to-SIGNAL model transformation of the paper, plus the
//! AADL2SIGNAL library of reusable polychronous processes.
//!
//! The transformation takes an instantiated AADL model (from the [`aadl`]
//! crate) and produces a SIGNAL [`signal_moc::ProcessModel`]:
//!
//! * every **thread** becomes a SIGNAL process with the control bundle
//!   (`Dispatch`, `Resume`, `Deadline`), the frozen/output time signals, the
//!   `Complete`/`Error` events and the `Alarm` output of Fig. 4
//!   ([`thread`]);
//! * every **in event port** becomes an instance of the `in_event_port`
//!   library process (an `in_fifo`/`frozen_fifo` pair, Fig. 5), every out
//!   event port an `out_event_port` instance ([`library`]);
//! * **shared data** becomes a single `shared_data` instance written through
//!   partial definitions at mutually exclusive access clocks (Fig. 6)
//!   ([`library`], [`translator`]);
//! * **processes, processors and systems** become container processes that
//!   instantiate their children and wire the port connections; the processor
//!   binding makes bound processes sub-processes of the processor's SIGNAL
//!   process (Fig. 3) ([`translator`]);
//! * the thread-level schedule synthesised by the [`sched`] crate is
//!   exported as affine clocks and as the timing-signal traces that drive
//!   the simulation ([`schedule`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connections;
pub mod library;
pub mod schedule;
pub mod thread;
pub mod translator;

pub use connections::{thread_connections, ThreadConnection};
pub use library::{
    in_event_port_process, memory_process, out_event_port_process, shared_data_process,
    standard_library,
};
pub use schedule::{
    schedule_to_timing_trace, schedule_to_timing_trace_reference, scheduled_thread_model,
    task_set_from_threads, ScheduledThreadModel, TICKS_PER_MILLISECOND,
};
pub use thread::{thread_to_process, ThreadTranslation};
pub use translator::{TranslatedSystem, TranslationError, Translator};
