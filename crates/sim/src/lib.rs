//! Co-simulation of translated polychronous models: a simulation engine on
//! top of the SIGNAL evaluator, VCD trace emission (the demonstration
//! technique cited by the paper) and profiling counters for performance
//! analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod profile;
pub mod vcd;

pub use engine::{simulate_folded, SimulationReport, Simulator};
pub use profile::{ProfileReport, SignalProfile};
pub use vcd::write_vcd;
