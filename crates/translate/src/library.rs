//! The AADL2SIGNAL library: reusable SIGNAL processes instantiated by the
//! translation ("An AADL2SIGNAL library provides common SIGNAL processes
//! reducing significantly the transformation complexity and cost",
//! Section IV-E).
//!
//! All library processes are *synchronous on the base tick*: every signal is
//! present at every tick of the processor clock, which is what the
//! thread-level scheduler provides. Presence of an AADL event within a tick
//! is encoded by a boolean. This keeps the processes executable by the
//! evaluator while preserving the FIFO / freeze semantics of the paper.

use std::num::NonZeroUsize;

use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::{Process, ProcessModel};
use signal_moc::value::{Value, ValueType};

/// Name of the memory (`fm`) library process.
pub const MEMORY_PROCESS: &str = "aadl2signal_memory";
/// Name of the in event port library process.
pub const IN_EVENT_PORT_PROCESS: &str = "aadl2signal_in_event_port";
/// Name of the out event port library process.
pub const OUT_EVENT_PORT_PROCESS: &str = "aadl2signal_out_event_port";
/// Name of the shared data (`fifo_reset`) library process.
pub const SHARED_DATA_PROCESS: &str = "aadl2signal_shared_data";

/// The "memory" process `o = fm(i, b)` of Section IV-C: `o` carries the
/// current `i` when `i` is present, and the last value of `i` at the instants
/// where `b` is present and true.
pub fn memory_process() -> Process {
    let mut b = ProcessBuilder::new(MEMORY_PROCESS);
    b.input("i", ValueType::Integer);
    b.input("b", ValueType::Boolean);
    b.output("o", ValueType::Integer);
    b.define(
        "o",
        Expr::cell(Expr::var("i"), Expr::var("b"), Value::Int(0)),
    );
    b.annotate("aadl2signal::role", "memory process fm(i, b)");
    b.build().expect("library process is well-formed")
}

/// The in event port process of Fig. 5: an `in_fifo` accumulating received
/// events and a `frozen_fifo` receiving its content at each `Frozen_time`
/// event (the port's `Input_Time`).
///
/// Interface (all signals on the tick clock):
/// * `incoming` — `true` when an event arrives during this tick;
/// * `freeze` — `true` at the port's Input Time;
/// * `frozen_count` — number of events available to the thread after the
///   last freeze;
/// * `dropped` — `true` when an arrival was discarded because the `in_fifo`
///   was full (`Queue_Size` exceeded).
pub fn in_event_port_process(queue_size: NonZeroUsize) -> Process {
    let q = queue_size.get() as i64;
    let mut b = ProcessBuilder::new(IN_EVENT_PORT_PROCESS);
    b.input("incoming", ValueType::Boolean);
    b.input("freeze", ValueType::Boolean);
    b.output("frozen_count", ValueType::Integer);
    b.output("dropped", ValueType::Boolean);
    b.local("pending", ValueType::Integer);
    b.local("arrivals", ValueType::Integer);
    b.local("raw", ValueType::Integer);

    // arrivals = 1 when an event arrives this tick, else 0.
    b.define(
        "arrivals",
        Expr::default(
            Expr::when(Expr::int(1), Expr::var("incoming")),
            Expr::when(Expr::int(0), Expr::not(Expr::var("incoming"))),
        ),
    );
    // raw = previous pending + arrivals (before capping and freezing).
    b.define(
        "raw",
        Expr::add(
            Expr::delay(Expr::var("pending"), Value::Int(0)),
            Expr::var("arrivals"),
        ),
    );
    // dropped = raw exceeds the queue size.
    b.define(
        "dropped",
        Expr::Binary(
            signal_moc::expr::BinOp::Gt,
            Box::new(Expr::var("raw")),
            Box::new(Expr::int(q)),
        ),
    );
    // pending: emptied at Input Time (content moves to the frozen fifo),
    // otherwise the capped accumulation.
    b.define(
        "pending",
        Expr::default(
            Expr::when(Expr::int(0), Expr::var("freeze")),
            Expr::default(
                Expr::when(Expr::int(q), Expr::var("dropped")),
                Expr::var("raw"),
            ),
        ),
    );
    // frozen_count: refreshed at Input Time with the capped in_fifo content,
    // held otherwise.
    b.define(
        "frozen_count",
        Expr::default(
            Expr::when(
                Expr::default(
                    Expr::when(Expr::int(q), Expr::var("dropped")),
                    Expr::var("raw"),
                ),
                Expr::var("freeze"),
            ),
            Expr::delay(Expr::var("frozen_count"), Value::Int(0)),
        ),
    );
    b.synchronize(&[
        "incoming",
        "freeze",
        "pending",
        "frozen_count",
        "arrivals",
        "raw",
        "dropped",
    ]);
    b.annotate("aadl2signal::role", "in event port (in_fifo + frozen_fifo)");
    b.annotate("aadl2signal::queue_size", q.to_string());
    b.build().expect("library process is well-formed")
}

/// The out event port process: produced events are stored in a FIFO and sent
/// out at the port's Output Time.
///
/// Interface:
/// * `produced` — `true` when the thread produces an event this tick;
/// * `release` — `true` at the port's Output Time;
/// * `sent_count` — number of events released at the last Output Time;
/// * `backlog` — events still waiting in the FIFO.
pub fn out_event_port_process() -> Process {
    let mut b = ProcessBuilder::new(OUT_EVENT_PORT_PROCESS);
    b.input("produced", ValueType::Boolean);
    b.input("release", ValueType::Boolean);
    b.output("sent_count", ValueType::Integer);
    b.output("backlog", ValueType::Integer);
    b.local("additions", ValueType::Integer);
    b.local("raw", ValueType::Integer);

    b.define(
        "additions",
        Expr::default(
            Expr::when(Expr::int(1), Expr::var("produced")),
            Expr::when(Expr::int(0), Expr::not(Expr::var("produced"))),
        ),
    );
    b.define(
        "raw",
        Expr::add(
            Expr::delay(Expr::var("backlog"), Value::Int(0)),
            Expr::var("additions"),
        ),
    );
    b.define(
        "backlog",
        Expr::default(
            Expr::when(Expr::int(0), Expr::var("release")),
            Expr::var("raw"),
        ),
    );
    b.define(
        "sent_count",
        Expr::default(
            Expr::when(Expr::var("raw"), Expr::var("release")),
            Expr::when(Expr::int(0), Expr::not(Expr::var("release"))),
        ),
    );
    b.synchronize(&[
        "produced",
        "release",
        "sent_count",
        "backlog",
        "additions",
        "raw",
    ]);
    b.annotate("aadl2signal::role", "out event port");
    b.build().expect("library process is well-formed")
}

/// The shared data process of Fig. 6: a single FIFO instance (`fifo_reset`)
/// read and written by different components at different instants. Writes,
/// reads and resets are merged with `default`; the clock calculus (and the
/// scheduler) must guarantee the access clocks are mutually exclusive.
///
/// Interface:
/// * `write` — `true` when some accessor writes this tick;
/// * `read` — `true` when some accessor reads this tick;
/// * `reset` — `true` when the data is reset;
/// * `depth` — current number of items in the FIFO;
/// * `last_read` — depth observed by the most recent read.
pub fn shared_data_process() -> Process {
    let mut b = ProcessBuilder::new(SHARED_DATA_PROCESS);
    b.input("write", ValueType::Boolean);
    b.input("read", ValueType::Boolean);
    b.input("reset", ValueType::Boolean);
    b.output("depth", ValueType::Integer);
    b.output("last_read", ValueType::Integer);
    b.local("prev_depth", ValueType::Integer);
    b.local("after_write", ValueType::Integer);
    b.local("after_read", ValueType::Integer);

    b.define("prev_depth", Expr::delay(Expr::var("depth"), Value::Int(0)));
    // after_write = prev_depth + 1 when write, else prev_depth.
    b.define(
        "after_write",
        Expr::default(
            Expr::when(
                Expr::add(Expr::var("prev_depth"), Expr::int(1)),
                Expr::var("write"),
            ),
            Expr::var("prev_depth"),
        ),
    );
    // after_read = after_write - 1 when read and non-empty, else after_write.
    b.define(
        "after_read",
        Expr::default(
            Expr::when(
                Expr::sub(Expr::var("after_write"), Expr::int(1)),
                Expr::and(
                    Expr::var("read"),
                    Expr::Binary(
                        signal_moc::expr::BinOp::Gt,
                        Box::new(Expr::var("after_write")),
                        Box::new(Expr::int(0)),
                    ),
                ),
            ),
            Expr::var("after_write"),
        ),
    );
    // depth = 0 at reset, otherwise after_read.
    b.define(
        "depth",
        Expr::default(
            Expr::when(Expr::int(0), Expr::var("reset")),
            Expr::var("after_read"),
        ),
    );
    // last_read holds the depth seen by the latest read.
    b.define(
        "last_read",
        Expr::default(
            Expr::when(Expr::var("after_write"), Expr::var("read")),
            Expr::delay(Expr::var("last_read"), Value::Int(0)),
        ),
    );
    b.synchronize(&[
        "depth",
        "prev_depth",
        "last_read",
        "after_write",
        "after_read",
        "reset",
    ]);
    b.annotate("aadl2signal::role", "shared data fifo_reset");
    b.build().expect("library process is well-formed")
}

/// Builds the complete AADL2SIGNAL library as a [`ProcessModel`] fragment
/// (no root process is set; the translator merges it into the translated
/// system model).
pub fn standard_library(default_queue_size: NonZeroUsize) -> ProcessModel {
    let mut model = ProcessModel::new("aadl2signal_library");
    model.add(memory_process());
    model.add(in_event_port_process(default_queue_size));
    model.add(out_event_port_process());
    model.add(shared_data_process());
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::eval::Evaluator;
    use signal_moc::trace::Trace;
    use signal_moc::value::Value;

    /// Drives a library process with per-tick boolean inputs.
    fn run(process: &Process, inputs: &[(&str, Vec<bool>)]) -> Trace {
        let len = inputs.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut trace = Trace::new();
        for t in 0..len {
            for (name, values) in inputs {
                trace.set(
                    t,
                    *name,
                    Value::Bool(values.get(t).copied().unwrap_or(false)),
                );
            }
        }
        Evaluator::new(process).unwrap().run(&trace).unwrap()
    }

    fn ints(trace: &Trace, signal: &str) -> Vec<i64> {
        trace
            .flow_of(signal)
            .into_iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn memory_process_repeats_last_input() {
        let p = memory_process();
        let mut trace = Trace::new();
        trace.set(0, "i", Value::Int(5));
        trace.set(1, "b", Value::Bool(true));
        trace.set(2, "b", Value::Bool(true));
        trace.set(3, "i", Value::Int(9));
        trace.set(3, "b", Value::Bool(true));
        let out = Evaluator::new(&p).unwrap().run(&trace).unwrap();
        assert_eq!(ints(&out, "o"), vec![5, 5, 5, 9]);
    }

    #[test]
    fn in_event_port_freezes_at_input_time() {
        // Fig. 2 / Fig. 5 scenario: events arriving after the first Input
        // Time are not visible until the next Input Time.
        let p = in_event_port_process(NonZeroUsize::new(4).unwrap());
        let out = run(
            &p,
            &[
                //                 t: 0      1      2      3      4      5
                ("incoming", vec![true, false, true, true, false, false]),
                ("freeze", vec![true, false, false, false, true, false]),
            ],
        );
        let frozen = ints(&out, "frozen_count");
        // t0: arrival frozen immediately (freeze at dispatch) -> 1
        // t1-t3: frozen view unchanged (still 1) while 2 more arrive
        // t4: next Input Time -> the 2 pending arrivals become visible
        assert_eq!(frozen, vec![1, 1, 1, 1, 2, 2]);
        let pending = ints(&out, "pending");
        assert_eq!(pending, vec![0, 0, 1, 2, 0, 0]);
    }

    #[test]
    fn in_event_port_drops_when_queue_full() {
        let p = in_event_port_process(NonZeroUsize::MIN);
        let out = run(
            &p,
            &[
                ("incoming", vec![true, true, true]),
                ("freeze", vec![false, false, true]),
            ],
        );
        let dropped: Vec<bool> = out
            .flow_of("dropped")
            .into_iter()
            .map(|v| v.as_bool())
            .collect();
        assert_eq!(dropped, vec![false, true, true]);
        // Only one event survives the 1-deep queue.
        assert_eq!(ints(&out, "frozen_count").last(), Some(&1));
    }

    #[test]
    fn out_event_port_releases_at_output_time() {
        let p = out_event_port_process();
        let out = run(
            &p,
            &[
                ("produced", vec![true, true, false, true]),
                ("release", vec![false, false, true, true]),
            ],
        );
        assert_eq!(ints(&out, "sent_count"), vec![0, 0, 2, 1]);
        assert_eq!(ints(&out, "backlog"), vec![1, 2, 0, 0]);
    }

    #[test]
    fn shared_data_tracks_depth_and_reset() {
        let p = shared_data_process();
        let out = run(
            &p,
            &[
                ("write", vec![true, false, true, false, false]),
                ("read", vec![false, true, false, false, true]),
                ("reset", vec![false, false, false, true, false]),
            ],
        );
        assert_eq!(ints(&out, "depth"), vec![1, 0, 1, 0, 0]);
        // The read at t1 observed one item; at t4 the queue was empty.
        assert_eq!(ints(&out, "last_read"), vec![0, 1, 1, 1, 0]);
    }

    #[test]
    fn shared_data_handles_write_then_read_in_one_tick() {
        // When the scheduler lets a write and a read fall in the same tick,
        // the fifo_reset process applies the write before the read, so the
        // reader observes the freshly written item.
        let p = shared_data_process();
        let out = run(
            &p,
            &[
                ("write", vec![true]),
                ("read", vec![true]),
                ("reset", vec![false]),
            ],
        );
        assert_eq!(ints(&out, "depth"), vec![0]);
        assert_eq!(ints(&out, "last_read"), vec![1]);
    }

    #[test]
    fn library_model_is_valid_and_analyzable() {
        let lib = standard_library(NonZeroUsize::new(2).unwrap());
        assert_eq!(lib.len(), 4);
        for process in lib.processes.values() {
            process.validate().unwrap();
            let report = signal_moc::analysis::StaticAnalysisReport::analyze(process).unwrap();
            assert!(report.causality_cycle.is_none(), "{}", process.name);
        }
    }
}
