//! E2 — the AADL input-compute-output execution timing model (Fig. 2):
//! inputs are frozen at Input Time, outputs released at Output Time, and
//! values arriving mid-frame wait for the next frame.

use std::num::NonZeroUsize;

use polychrony_core::aadl::case_study::producer_consumer_instance;
use polychrony_core::asme2ssme::{in_event_port_process, thread_to_process};
use polychrony_core::polysim::Simulator;
use polychrony_core::signal_moc::process::ProcessModel;
use polychrony_core::signal_moc::trace::Trace;
use polychrony_core::signal_moc::value::Value;

/// The Fig. 2 scenario: two values arrive after the first Input Time and are
/// not processed until the next dispatch.
#[test]
fn values_arriving_after_input_time_wait_for_the_next_dispatch() {
    let port = in_event_port_process(NonZeroUsize::new(8).unwrap());
    let mut inputs = Trace::new();
    // Frame 1 (ticks 0..4): one arrival before the freeze, two after.
    // Frame 2 (ticks 4..8): no arrivals.
    let arrivals = [true, false, true, true, false, false, false, false];
    for (t, &a) in arrivals.iter().enumerate() {
        inputs.set(t, "incoming", Value::Bool(a));
        inputs.set(t, "freeze", Value::Bool(t % 4 == 0));
    }
    let mut sim = Simulator::new(&port).unwrap();
    let out = sim.run(&inputs).unwrap();
    let frozen: Vec<i64> = out
        .flow_of("frozen_count")
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    // Frozen view during frame 1 stays at 1; the late arrivals only become
    // visible at the tick-4 Input Time.
    assert_eq!(frozen[0..4], [1, 1, 1, 1]);
    assert_eq!(frozen[4..8], [2, 2, 2, 2]);
}

#[test]
fn complete_is_emitted_at_resume_and_alarm_on_missed_deadline() {
    let instance = producer_consumer_instance().unwrap();
    let producer = instance
        .threads()
        .unwrap()
        .into_iter()
        .find(|t| t.name == "thProducer")
        .unwrap();
    let translation = thread_to_process("thProducer", &producer);
    let mut model = ProcessModel::new("thProducer");
    model.add(translation.process.clone());
    model.add(polychrony_core::asme2ssme::in_event_port_process(
        NonZeroUsize::MIN,
    ));
    model.add(polychrony_core::asme2ssme::out_event_port_process());
    let flat = model.flatten().unwrap();

    // Frame A: dispatch at t0, completion (Resume) at t1, deadline at t3:
    // no alarm. Frame B: dispatch at t4, no completion, deadline at t7:
    // alarm fires at t7.
    let mut inputs = Trace::new();
    for t in 0..8usize {
        inputs.set(t, "Dispatch", Value::Bool(t == 0 || t == 4));
        inputs.set(t, "Resume", Value::Bool(t == 1));
        inputs.set(t, "Deadline", Value::Bool(t == 3 || t == 7));
        for port in &translation.in_ports {
            inputs.set(t, format!("{port}_in"), Value::Bool(false));
            inputs.set(
                t,
                format!("{port}_frozen_time"),
                Value::Bool(t == 0 || t == 4),
            );
        }
        for port in &translation.out_ports {
            inputs.set(t, format!("{port}_output_time"), Value::Bool(t == 1));
        }
    }
    let mut sim = Simulator::new(&flat).unwrap();
    let out = sim.run(&inputs).unwrap();
    let completes: Vec<bool> = out
        .flow_of("Complete")
        .iter()
        .map(|v| v.as_bool())
        .collect();
    let alarms: Vec<bool> = out.flow_of("Alarm").iter().map(|v| v.as_bool()).collect();
    assert_eq!(completes.iter().filter(|&&c| c).count(), 1);
    assert!(completes[1]);
    assert!(!alarms[3], "frame A completed before its deadline");
    assert!(alarms[7], "frame B missed its deadline");
    assert_eq!(sim.report().alarm_instants, 1);
}

#[test]
fn output_port_releases_at_output_time_only() {
    let instance = producer_consumer_instance().unwrap();
    let producer = instance
        .threads()
        .unwrap()
        .into_iter()
        .find(|t| t.name == "thProducer")
        .unwrap();
    let translation = thread_to_process("thProducer", &producer);
    let mut model = ProcessModel::new("thProducer");
    model.add(translation.process.clone());
    model.add(polychrony_core::asme2ssme::in_event_port_process(
        NonZeroUsize::MIN,
    ));
    model.add(polychrony_core::asme2ssme::out_event_port_process());
    let flat = model.flatten().unwrap();

    let mut inputs = Trace::new();
    for t in 0..4usize {
        inputs.set(t, "Dispatch", Value::Bool(t == 0));
        inputs.set(t, "Resume", Value::Bool(t == 1));
        inputs.set(t, "Deadline", Value::Bool(false));
        for port in &translation.in_ports {
            inputs.set(t, format!("{port}_in"), Value::Bool(false));
            inputs.set(t, format!("{port}_frozen_time"), Value::Bool(t == 0));
        }
        for port in &translation.out_ports {
            // Output Time at completion (t1).
            inputs.set(t, format!("{port}_output_time"), Value::Bool(t == 1));
        }
    }
    let out = Simulator::new(&flat).unwrap().run(&inputs).unwrap();
    // The dispatch at t0 produced one event on each out port; it is released
    // only at t1 (the Output Time), not at t0.
    for port in &translation.out_ports {
        let sent: Vec<i64> = out
            .flow_of(&format!("{port}_out"))
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(sent[0], 0, "{port} released before Output Time");
        assert_eq!(sent[1], 1, "{port} not released at Output Time");
    }
}

/// Two threads whose second job of `th0` (released at 4, deadline 8)
/// runs 6–8 behind `th1`: it completes exactly at the hyper-period
/// boundary.
const BOUNDARY_MODEL: &str = "package Boundary
public
  thread th0
  features
    out_link : out event data port;
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Deadline => 4 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Priority => 2;
  end th0;
  thread th1
  features
    in_link : in event data port;
  properties
    Dispatch_Protocol => Periodic;
    Period => 8 ms;
    Deadline => 8 ms;
    Compute_Execution_Time => 4 ms .. 4 ms;
    Priority => 1;
  end th1;
  process worker
  end worker;
  process implementation worker.impl
  subcomponents
    t0 : thread th0;
    t1 : thread th1;
  connections
    link : port t0.out_link -> t1.in_link;
  end worker.impl;
  processor cpu
  end cpu;
  system top
  end top;
  system implementation top.impl
  subcomponents
    app : process worker.impl;
    cpu0 : processor cpu;
  properties
    Actual_Processor_Binding => (reference (cpu0)) applies to app;
  end top.impl;
end Boundary;
";

/// A job completing at the hyper-period boundary lands in the next
/// repetition of a multi-period trace, never past its end: every trace
/// spans exactly k hyper-periods with every controlled signal at every
/// instant, and a two-hyper-period simulation runs through.
#[test]
fn jobs_completing_at_the_boundary_stay_inside_multi_period_traces() {
    use polychrony_core::{Session, SessionOptions};

    let analyzed = Session::new()
        .parse(BOUNDARY_MODEL)
        .unwrap()
        .instantiate("top.impl")
        .unwrap()
        .schedule()
        .unwrap()
        .translate()
        .unwrap()
        .analyze()
        .unwrap();
    let horizon = analyzed.schedule.hyperperiod as usize;
    assert_eq!(horizon, 8);
    assert!(
        analyzed
            .schedule
            .entries
            .iter()
            .any(|entry| entry.completion as usize >= horizon),
        "the model must schedule a job completing at the boundary: {:?}",
        analyzed.schedule.entries
    );
    for unit in &analyzed.thread_units {
        let controlled = unit.model.timing_trace(&analyzed.schedule, 1).signals();
        for k in 1..=4u64 {
            let trace = unit.model.timing_trace(&analyzed.schedule, k);
            assert_eq!(trace.len(), k as usize * horizon, "{} k={k}", unit.path);
            for step in trace.iter() {
                for signal in &controlled {
                    assert!(step.is_present(signal), "{} k={k}: {signal}", unit.path);
                }
            }
        }
    }

    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = 2;
    let simulated = Session::with_options(options)
        .unwrap()
        .parse(BOUNDARY_MODEL)
        .unwrap()
        .instantiate("top.impl")
        .unwrap()
        .schedule()
        .unwrap()
        .translate()
        .unwrap()
        .analyze()
        .unwrap()
        .simulate()
        .expect("a two-hyper-period simulation runs through the boundary job");
    assert_eq!(simulated.simulations.len(), 2);
    for report in simulated.simulations.values() {
        assert_eq!(report.instants, 2 * horizon);
    }
}
