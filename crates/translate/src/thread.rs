//! Translation of an AADL thread into a SIGNAL process (Fig. 4 of the
//! paper).
//!
//! The generated process has:
//! * the control bundle `ctl1` — `Dispatch`, `Resume`, `Deadline` — as
//!   boolean inputs on the tick clock;
//! * one frozen-time input per in port and one output-time input per out
//!   port (the `time1` bundle);
//! * one boolean data input per in event (data) port and one boolean output
//!   per out event (data) port;
//! * the `ctl2` bundle — `Complete`, `Error` — and the `Alarm` output that
//!   fires when a timing property is violated;
//! * one library-port instance per port and a simple behaviour that consumes
//!   every frozen input and produces on every out port at each dispatch.

use aadl::ast::{FeatureKind, PortDirection};
use aadl::instance::ThreadInstance;
use aadl::properties::queue_size;
use serde::{Deserialize, Serialize};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::value::{Value, ValueType};

use crate::library::{IN_EVENT_PORT_PROCESS, OUT_EVENT_PORT_PROCESS};

/// The result of translating one thread: the SIGNAL process plus the names
/// of the timing signals the scheduler must drive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadTranslation {
    /// The generated SIGNAL process (named after the thread instance).
    pub process: Process,
    /// Names of the in ports translated to `in_event_port` instances.
    pub in_ports: Vec<String>,
    /// Names of the out ports translated to `out_event_port` instances.
    pub out_ports: Vec<String>,
    /// Names of the timing inputs (dispatch, deadline, frozen/output times)
    /// that the thread-level scheduler must provide.
    pub timing_inputs: Vec<String>,
}

/// Translates `thread` into a SIGNAL process named `process_name`.
///
/// The translation is structural: the behaviour body is a placeholder that
/// counts dispatches (real behaviour would come from the AADL behaviour
/// annex, which the paper leaves as future work), but every port, control
/// and property-checking signal of Fig. 4 is generated.
pub fn thread_to_process(process_name: &str, thread: &ThreadInstance) -> ThreadTranslation {
    let mut b = ProcessBuilder::new(process_name);
    let mut in_ports = Vec::new();
    let mut out_ports = Vec::new();
    let mut timing_inputs = Vec::new();

    // ctl1 bundle.
    for ctl in ["Dispatch", "Resume", "Deadline"] {
        b.input(ctl, ValueType::Boolean);
        timing_inputs.push(ctl.to_string());
    }

    // Ports.
    for feature in &thread.features {
        if !feature.kind.is_port() {
            continue;
        }
        match feature.direction {
            PortDirection::In | PortDirection::InOut => {
                let incoming = format!("{}_in", feature.name);
                let freeze = format!("{}_frozen_time", feature.name);
                let count = format!("{}_frozen_count", feature.name);
                let dropped = format!("{}_dropped", feature.name);
                b.input(&incoming, ValueType::Boolean);
                b.input(&freeze, ValueType::Boolean);
                b.local(&count, ValueType::Integer);
                b.local(&dropped, ValueType::Boolean);
                timing_inputs.push(freeze.clone());
                let label = format!("port_{}", feature.name);
                b.instance(
                    IN_EVENT_PORT_PROCESS,
                    &label,
                    &[incoming.as_str(), freeze.as_str()],
                    &[count.as_str(), dropped.as_str()],
                );
                in_ports.push(feature.name.clone());
                // Queue size is recorded for traceability.
                if let FeatureKind::EventPort | FeatureKind::EventDataPort { .. } = feature.kind {
                    b.annotate(
                        format!("aadl::queue_size::{}", feature.name),
                        queue_size(&feature.properties).to_string(),
                    );
                }
            }
            PortDirection::Out => {
                let produced = format!("{}_produced", feature.name);
                let release = format!("{}_output_time", feature.name);
                let sent = format!("{}_out", feature.name);
                let backlog = format!("{}_backlog", feature.name);
                b.local(&produced, ValueType::Boolean);
                b.input(&release, ValueType::Boolean);
                b.output(&sent, ValueType::Integer);
                b.local(&backlog, ValueType::Integer);
                timing_inputs.push(release.clone());
                let label = format!("port_{}", feature.name);
                b.instance(
                    OUT_EVENT_PORT_PROCESS,
                    &label,
                    &[produced.as_str(), release.as_str()],
                    &[sent.as_str(), backlog.as_str()],
                );
                // Behaviour placeholder: produce one event on every dispatch.
                b.define(&produced, Expr::var("Dispatch"));
                out_ports.push(feature.name.clone());
            }
        }
    }

    // ctl2 bundle and behaviour placeholder.
    b.output("Complete", ValueType::Boolean);
    b.output("Error", ValueType::Boolean);
    b.output("Alarm", ValueType::Boolean);
    b.local("dispatch_count", ValueType::Integer);
    b.local("done", ValueType::Boolean);

    // dispatch_count counts dispatches (placeholder behaviour).
    b.define(
        "dispatch_count",
        Expr::default(
            Expr::when(
                Expr::add(
                    Expr::delay(Expr::var("dispatch_count"), Value::Int(0)),
                    Expr::int(1),
                ),
                Expr::var("Dispatch"),
            ),
            Expr::delay(Expr::var("dispatch_count"), Value::Int(0)),
        ),
    );
    // In the scheduled input-compute-output model the computation completes
    // when the scheduler raises Resume (the start/complete event): Complete
    // mirrors Resume. `done` remembers whether the current frame's
    // computation has completed since the last dispatch.
    b.define("Complete", Expr::var("Resume"));
    b.define("Error", Expr::bool(false));
    b.define(
        "done",
        Expr::default(
            Expr::when(Expr::bool(true), Expr::var("Resume")),
            Expr::default(
                Expr::when(Expr::bool(false), Expr::var("Dispatch")),
                Expr::delay(Expr::var("done"), Value::Bool(true)),
            ),
        ),
    );
    // Alarm: the deadline event arrives while the frame dispatched before it
    // has not completed — the property check of Fig. 4.
    b.define(
        "Alarm",
        Expr::and(
            Expr::var("Deadline"),
            Expr::not(Expr::or(
                Expr::var("Resume"),
                Expr::delay(Expr::var("done"), Value::Bool(true)),
            )),
        ),
    );
    b.synchronize(&[
        "Dispatch",
        "Resume",
        "Deadline",
        "Complete",
        "Error",
        "Alarm",
        "done",
        "dispatch_count",
    ]);

    // Traceability annotations (Section IV-E).
    b.annotate("aadl::path", thread.path.clone());
    b.annotate("aadl::category", "thread");
    if let Some(period) = thread.timing.period {
        b.annotate("aadl::period", period.to_string());
    }
    if let Some(deadline) = thread.timing.effective_deadline() {
        b.annotate("aadl::deadline", deadline.to_string());
    }

    let process = b.build_unchecked();
    ThreadTranslation {
        process,
        in_ports,
        out_ports,
        timing_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::case_study::producer_consumer_instance;
    use signal_moc::process::ProcessModel;

    fn producer() -> ThreadInstance {
        let model = producer_consumer_instance().unwrap();
        model
            .threads()
            .unwrap()
            .into_iter()
            .find(|t| t.name == "thProducer")
            .unwrap()
    }

    #[test]
    fn producer_translation_matches_fig4_shape() {
        let tr = thread_to_process("thProducer", &producer());
        let p = &tr.process;
        // ctl1 bundle present.
        for ctl in ["Dispatch", "Resume", "Deadline"] {
            assert!(p.signal(ctl).is_some(), "missing {ctl}");
        }
        // ctl2 bundle + Alarm present.
        for out in ["Complete", "Error", "Alarm"] {
            assert!(p.signal(out).is_some(), "missing {out}");
        }
        // Ports: 3 in event ports (pProdStart, pEnvData, pTimeOut) and
        // 2 out event ports (pProdStartTimer, pProdStopTimer).
        assert_eq!(tr.in_ports.len(), 3);
        assert_eq!(tr.out_ports.len(), 2);
        // Frozen-time inputs exist for in ports.
        assert!(p.signal("pProdStart_frozen_time").is_some());
        assert!(p.signal("pProdStartTimer_output_time").is_some());
        // Timing inputs are ctl1 + one per port.
        assert_eq!(tr.timing_inputs.len(), 3 + 3 + 2);
        // Traceability annotation carries the AADL path and period.
        assert!(p.annotations["aadl::path"].ends_with("thProducer"));
        assert_eq!(p.annotations["aadl::period"], "4 ms");
    }

    #[test]
    fn translated_thread_validates_inside_a_model() {
        let tr = thread_to_process("thProducer", &producer());
        let mut model = ProcessModel::new("thProducer");
        model.add(tr.process.clone());
        model.add(crate::library::in_event_port_process(
            std::num::NonZeroUsize::MIN,
        ));
        model.add(crate::library::out_event_port_process());
        model.validate().unwrap();
        let flat = model.flatten().unwrap();
        assert!(flat.equation_count() > tr.process.equation_count());
    }

    #[test]
    fn alarm_fires_without_completion() {
        use signal_moc::eval::Evaluator;
        use signal_moc::trace::Trace;
        use signal_moc::value::Value;

        let tr = thread_to_process("thProducer", &producer());
        let mut model = ProcessModel::new("thProducer");
        model.add(tr.process.clone());
        model.add(crate::library::in_event_port_process(
            std::num::NonZeroUsize::MIN,
        ));
        model.add(crate::library::out_event_port_process());
        let flat = model.flatten().unwrap();

        let mut inputs = Trace::new();
        // One frame where the deadline arrives but Resume never fired.
        for t in 0..2usize {
            inputs.set(t, "Dispatch", Value::Bool(t == 0));
            inputs.set(t, "Resume", Value::Bool(false));
            inputs.set(t, "Deadline", Value::Bool(t == 1));
            for port in ["pProdStart", "pEnvData", "pTimeOut"] {
                inputs.set(t, format!("{port}_in"), Value::Bool(false));
                inputs.set(t, format!("{port}_frozen_time"), Value::Bool(t == 0));
            }
            for port in ["pProdStartTimer", "pProdStopTimer"] {
                inputs.set(t, format!("{port}_output_time"), Value::Bool(false));
            }
        }
        let out = Evaluator::new(&flat).unwrap().run(&inputs).unwrap();
        let alarms: Vec<bool> = out.flow_of("Alarm").iter().map(|v| v.as_bool()).collect();
        assert_eq!(alarms, vec![false, true]);
    }

    #[test]
    fn all_case_study_threads_translate() {
        let model = producer_consumer_instance().unwrap();
        for thread in model.threads().unwrap() {
            let tr = thread_to_process(&thread.name, &thread);
            assert!(tr.process.equation_count() >= 6, "{}", thread.name);
            assert!(!tr.timing_inputs.is_empty());
        }
    }
}
