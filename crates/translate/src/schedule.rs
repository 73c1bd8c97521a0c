//! Integration of the thread-level scheduler with the translated model:
//! extraction of the periodic task set from AADL threads, and generation of
//! the timing-signal traces (the `ctl1`/`time1` bundles) that drive the
//! simulation of a scheduled model.

use aadl::instance::ThreadInstance;
use aadl::properties::DispatchProtocol;
use sched::{PeriodicTask, StaticSchedule, TaskSet, TaskSetError};
use signal_moc::error::SignalError;
use signal_moc::process::{Process, ProcessModel};
use signal_moc::trace::{Trace, TraceStep};
use signal_moc::value::Value;

use crate::thread::thread_to_process;
use crate::translator::TranslatedSystem;

/// The simulation/verification unit of one translated thread: its flattened
/// SIGNAL process (thread process + the `aadl2signal_` library processes it
/// instantiates) and the port lists needed to derive its scheduled timing
/// trace. Built only by [`scheduled_thread_model`], which the pipeline's
/// translate phase and the verification tests call, so the flattening
/// recipe cannot diverge between them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledThreadModel {
    /// Name of the thread (the key into the static schedule).
    pub thread_name: String,
    /// The flattened process, ready for `polysim`/`polyverify`.
    pub flat: Process,
    /// In event ports (drive `<port>_frozen_time` / `<port>_in`).
    pub in_ports: Vec<String>,
    /// Out event ports (drive `<port>_output_time`).
    pub out_ports: Vec<String>,
}

impl ScheduledThreadModel {
    /// The timing-signal input trace of this thread over `hyperperiods`
    /// repetitions of `schedule` (see [`schedule_to_timing_trace`]).
    pub fn timing_trace(&self, schedule: &StaticSchedule, hyperperiods: u64) -> Trace {
        schedule_to_timing_trace(
            schedule,
            &self.thread_name,
            "",
            &self.in_ports,
            &self.out_ports,
            hyperperiods,
        )
    }
}

/// Builds the [`ScheduledThreadModel`] of `thread` from a translated system:
/// looks up the thread's SIGNAL process, flattens it together with the
/// `aadl2signal_` library processes, and extracts the port lists. Returns
/// `Ok(None)` when the system has no SIGNAL process for the thread.
///
/// # Errors
///
/// Propagates flattening errors ([`SignalError`]).
pub fn scheduled_thread_model(
    system: &TranslatedSystem,
    thread: &ThreadInstance,
) -> Result<Option<ScheduledThreadModel>, SignalError> {
    let Some(process_name) = system.signal_process_for(&thread.path) else {
        return Ok(None);
    };
    let Some(process) = system.model.process(process_name) else {
        return Ok(None);
    };
    let mut model = ProcessModel::new(process_name.to_string());
    model.add(process.clone());
    for library in system.model.processes.values() {
        if library.name.starts_with("aadl2signal_") {
            model.add(library.clone());
        }
    }
    let flat = model.flatten()?;
    let translation = thread_to_process(process_name, thread);
    Ok(Some(ScheduledThreadModel {
        thread_name: thread.name.clone(),
        flat,
        in_ports: translation.in_ports,
        out_ports: translation.out_ports,
    }))
}

/// Number of scheduler ticks per millisecond (the case-study processor has a
/// 1 ms clock period, so one tick is one millisecond).
pub const TICKS_PER_MILLISECOND: u64 = 1;

/// Builds the periodic task set of the scheduler from the AADL thread
/// instances (the paper's step 1 input).
///
/// Aperiodic/sporadic threads are skipped (the case study and the synthetic
/// workloads are fully periodic); threads without a period are skipped as
/// well.
///
/// # Errors
///
/// Propagates [`TaskSetError`] when the extracted parameters are
/// inconsistent (e.g. a WCET larger than the deadline).
pub fn task_set_from_threads(threads: &[ThreadInstance]) -> Result<TaskSet, TaskSetError> {
    let mut tasks = Vec::new();
    for thread in threads {
        if thread.timing.dispatch_protocol != DispatchProtocol::Periodic {
            continue;
        }
        let Some(period) = thread.timing.period else {
            continue;
        };
        let period_ticks = period.as_millis().max(1) * TICKS_PER_MILLISECOND;
        let deadline_ticks = thread
            .timing
            .effective_deadline()
            .map(|d| d.as_millis().max(1) * TICKS_PER_MILLISECOND)
            .unwrap_or(period_ticks);
        let wcet_ticks = thread
            .timing
            .execution_time_max
            .map(|d| (d.as_millis() * TICKS_PER_MILLISECOND).max(1))
            .unwrap_or(1);
        let offset_ticks = thread
            .timing
            .dispatch_offset
            .map(|d| d.as_millis() * TICKS_PER_MILLISECOND)
            .unwrap_or(0);
        let mut task = PeriodicTask::new(
            thread.name.clone(),
            period_ticks,
            deadline_ticks,
            wcet_ticks,
        )
        .with_offset(offset_ticks);
        if let Some(priority) = thread.timing.priority {
            task = task.with_priority(priority);
        }
        tasks.push(task);
    }
    TaskSet::new(tasks)
}

/// Generates the timing-signal input trace for a translated thread over
/// `hyperperiods` repetitions of the schedule.
///
/// For the thread named `thread`, the produced trace drives, at every tick:
/// * `Dispatch` — true at the job's dispatch tick;
/// * `Resume` — true at the job's completion tick (the thread resumes the
///   waiting-for-dispatch state, which is also when `Complete` is emitted);
/// * `Deadline` — true at the job's absolute deadline tick;
/// * `<port>_frozen_time` for every `in_ports` entry — true at the job's
///   input-freeze tick;
/// * `<port>_output_time` for every `out_ports` entry — true at the job's
///   output-release tick.
///
/// Signal names are prefixed with `prefix` (empty for a stand-alone thread
/// process, `instanceLabel_` for signals of a flattened container). Each
/// name is built once: the all-false step is built once and cloned per
/// tick.
pub fn schedule_to_timing_trace(
    schedule: &StaticSchedule,
    thread: &str,
    prefix: &str,
    in_ports: &[String],
    out_ports: &[String],
    hyperperiods: u64,
) -> Trace {
    let horizon = schedule.hyperperiod * hyperperiods;
    let name = |signal: &str| format!("{prefix}{signal}");
    let dispatch = name("Dispatch");
    let resume = name("Resume");
    let deadline = name("Deadline");
    let frozen: Vec<String> = in_ports
        .iter()
        .map(|port| name(&format!("{port}_frozen_time")))
        .collect();
    let released: Vec<String> = out_ports
        .iter()
        .map(|port| name(&format!("{port}_output_time")))
        .collect();
    // Every controlled signal is false at every tick a job does not set.
    let mut idle = TraceStep::new();
    for signal in [&dispatch, &resume, &deadline]
        .into_iter()
        .chain(&frozen)
        .chain(&released)
    {
        idle.set(signal.as_str(), Value::Bool(false));
    }
    for port in in_ports {
        idle.set(name(&format!("{port}_in")), Value::Bool(false));
    }
    let mut trace: Trace = std::iter::repeat_n(idle, horizon as usize).collect();
    for rep in 0..hyperperiods {
        let base = rep * schedule.hyperperiod;
        for entry in schedule.entries_for(thread) {
            let at = |tick: u64| (base + tick) as usize;
            // A job completing at or past the hyper-period boundary lands in
            // the next repetition; only the last one clamps, to the last
            // tick of the trace.
            let clamped = |tick: u64| at(tick).min(horizon as usize - 1);
            trace.set(at(entry.dispatch), dispatch.as_str(), Value::Bool(true));
            trace.set(
                clamped(entry.completion),
                resume.as_str(),
                Value::Bool(true),
            );
            if entry.deadline < schedule.hyperperiod {
                trace.set(at(entry.deadline), deadline.as_str(), Value::Bool(true));
            }
            for signal in &frozen {
                trace.set(at(entry.input_freeze), signal.as_str(), Value::Bool(true));
            }
            for signal in &released {
                trace.set(
                    clamped(entry.output_release),
                    signal.as_str(),
                    Value::Bool(true),
                );
            }
        }
    }
    trace
}

/// The per-tick construction [`schedule_to_timing_trace`] replaced: every
/// controlled signal's name formatted and inserted at every tick. Kept as
/// the oracle the differential tests hold it to; both give equal traces on
/// every schedule.
pub fn schedule_to_timing_trace_reference(
    schedule: &StaticSchedule,
    thread: &str,
    prefix: &str,
    in_ports: &[String],
    out_ports: &[String],
    hyperperiods: u64,
) -> Trace {
    let horizon = schedule.hyperperiod * hyperperiods;
    let mut trace = Trace::new();
    let name = |signal: &str| format!("{prefix}{signal}");
    // Initialise every controlled signal to false at every tick.
    for t in 0..horizon as usize {
        trace.set(t, name("Dispatch"), Value::Bool(false));
        trace.set(t, name("Resume"), Value::Bool(false));
        trace.set(t, name("Deadline"), Value::Bool(false));
        for port in in_ports {
            trace.set(t, name(&format!("{port}_frozen_time")), Value::Bool(false));
            trace.set(t, name(&format!("{port}_in")), Value::Bool(false));
        }
        for port in out_ports {
            trace.set(t, name(&format!("{port}_output_time")), Value::Bool(false));
        }
    }
    for rep in 0..hyperperiods {
        let base = rep * schedule.hyperperiod;
        for entry in schedule.entries_for(thread) {
            let at = |tick: u64| (base + tick) as usize;
            // A job completing at or past the hyper-period boundary lands in
            // the next repetition; only the last one clamps, to the last
            // tick of the trace.
            let clamped = |tick: u64| at(tick).min(horizon as usize - 1);
            trace.set(at(entry.dispatch), name("Dispatch"), Value::Bool(true));
            trace.set(clamped(entry.completion), name("Resume"), Value::Bool(true));
            if entry.deadline < schedule.hyperperiod {
                trace.set(at(entry.deadline), name("Deadline"), Value::Bool(true));
            }
            for port in in_ports {
                trace.set(
                    at(entry.input_freeze),
                    name(&format!("{port}_frozen_time")),
                    Value::Bool(true),
                );
            }
            for port in out_ports {
                trace.set(
                    clamped(entry.output_release),
                    name(&format!("{port}_output_time")),
                    Value::Bool(true),
                );
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::case_study::producer_consumer_instance;
    use sched::SchedulingPolicy;

    fn case_study_tasks() -> TaskSet {
        let model = producer_consumer_instance().unwrap();
        task_set_from_threads(&model.threads().unwrap()).unwrap()
    }

    #[test]
    fn task_set_extraction_matches_paper_parameters() {
        let tasks = case_study_tasks();
        assert_eq!(tasks.len(), 4);
        assert_eq!(tasks.hyperperiod(), Some(24));
        let producer = tasks.task("thProducer").unwrap();
        assert_eq!(producer.period, 4);
        assert_eq!(producer.deadline, 4);
        assert_eq!(producer.wcet, 1);
        assert_eq!(producer.priority, Some(4));
        let consumer = tasks.task("thConsumer").unwrap();
        assert_eq!(consumer.period, 6);
        assert_eq!(consumer.wcet, 2);
    }

    #[test]
    fn timing_trace_covers_every_dispatch() {
        let tasks = case_study_tasks();
        let schedule =
            StaticSchedule::synthesize(&tasks, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
        let trace = schedule_to_timing_trace(
            &schedule,
            "thProducer",
            "",
            &["pProdStart".into()],
            &["pProdStartTimer".into()],
            2,
        );
        assert_eq!(trace.len(), 48);
        let dispatch_ticks: Vec<usize> = (0..trace.len())
            .filter(|&t| {
                trace
                    .value(t, "Dispatch")
                    .map(|v| v.as_bool())
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(
            dispatch_ticks,
            vec![0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44]
        );
        // Freeze times coincide with dispatches (Input_Time = Dispatch).
        for &t in &dispatch_ticks {
            assert_eq!(
                trace
                    .value(t, "pProdStart_frozen_time")
                    .map(|v| v.as_bool()),
                Some(true)
            );
        }
        // Resume (completion) happens after dispatch within the deadline.
        let resumes: Vec<usize> = (0..trace.len())
            .filter(|&t| {
                trace
                    .value(t, "Resume")
                    .map(|v| v.as_bool())
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(resumes.len(), 12);
    }

    /// The once-named construction equals the per-tick reference on every
    /// case-study thread, under both policies, over one to three
    /// hyper-periods, with and without a prefix.
    #[test]
    fn timing_trace_matches_the_per_tick_reference() {
        type Build = fn(&StaticSchedule, &str, &str, &[String], &[String], u64) -> Trace;
        let instance = producer_consumer_instance().unwrap();
        let threads = instance.threads().unwrap();
        let translated = crate::Translator::new().translate(&instance).unwrap();
        let models: Vec<ScheduledThreadModel> = threads
            .iter()
            .filter_map(|thread| scheduled_thread_model(&translated, thread).unwrap())
            .collect();
        assert_eq!(models.len(), 4);
        for policy in [
            SchedulingPolicy::EarliestDeadlineFirst,
            SchedulingPolicy::RateMonotonic,
        ] {
            let schedule = StaticSchedule::synthesize(&case_study_tasks(), policy).unwrap();
            for model in &models {
                for hyperperiods in 1..=3 {
                    for prefix in ["", "th_"] {
                        let build = |f: Build| {
                            f(
                                &schedule,
                                &model.thread_name,
                                prefix,
                                &model.in_ports,
                                &model.out_ports,
                                hyperperiods,
                            )
                        };
                        assert_eq!(
                            build(schedule_to_timing_trace),
                            build(schedule_to_timing_trace_reference),
                            "{} at {hyperperiods} hyper-period(s), prefix {prefix:?}",
                            model.thread_name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefixed_trace_uses_prefixed_names() {
        let tasks = case_study_tasks();
        let schedule = StaticSchedule::synthesize(&tasks, SchedulingPolicy::RateMonotonic).unwrap();
        let trace = schedule_to_timing_trace(&schedule, "thConsumer", "thConsumer_", &[], &[], 1);
        assert!(trace.signals().iter().all(|s| s.starts_with("thConsumer_")));
        assert!(trace.value(0, "thConsumer_Dispatch").is_some());
    }

    #[test]
    fn scheduled_thread_model_matches_manual_flattening() {
        use crate::Translator;
        let instance = producer_consumer_instance().unwrap();
        let threads = instance.threads().unwrap();
        let translated = Translator::new().translate(&instance).unwrap();
        let producer = threads.iter().find(|t| t.name == "thProducer").unwrap();
        let model = scheduled_thread_model(&translated, producer)
            .unwrap()
            .expect("producer has a SIGNAL process");
        assert_eq!(model.thread_name, "thProducer");
        assert_eq!(model.in_ports.len(), 3);
        assert_eq!(model.out_ports.len(), 2);
        assert!(model.flat.signal("Alarm").is_some());
        let tasks = case_study_tasks();
        let schedule =
            StaticSchedule::synthesize(&tasks, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
        let trace = model.timing_trace(&schedule, 1);
        assert_eq!(trace.len(), 24);
        assert!(trace.value(0, "Dispatch").is_some());
        assert!(trace.value(0, "pProdStart_frozen_time").is_some());
    }

    #[test]
    fn aperiodic_threads_are_skipped() {
        use aadl::parse_package;
        use aadl::InstanceModel;
        let src = "package p\npublic\n  thread t\n  properties\n    Dispatch_Protocol => Aperiodic;\n  end t;\n  process w\n  end w;\n  process implementation w.impl\n  subcomponents\n    t1 : thread t;\n  end w.impl;\nend p;";
        let pkg = parse_package(src).unwrap();
        let inst = InstanceModel::instantiate(&pkg, "w.impl").unwrap();
        let tasks = task_set_from_threads(&inst.threads().unwrap()).unwrap();
        assert!(tasks.is_empty());
    }
}
