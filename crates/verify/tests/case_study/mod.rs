//! The paper's ProducerConsumer case study under its EDF schedule, shared
//! by the tests of this directory that verify or simulate it
//! (`cross_validation.rs`, `evaluator_oracle.rs`, `ltl_semantics.rs`,
//! `simulation_oracle.rs`). It is built from the `asme2ssme` primitives the
//! pipeline's schedule and translate phases call (this crate cannot depend
//! on `polychrony_core`), so the tests check exactly the models the
//! pipeline verifies.

use aadl::case_study::producer_consumer_instance;
use asme2ssme::{scheduled_thread_model, task_set_from_threads, ScheduledThreadModel, Translator};
use sched::{SchedulingPolicy, StaticSchedule};
use signal_moc::process::Process;
use signal_moc::trace::Trace;

/// Every case-study thread with a SIGNAL process, in instance-tree order,
/// and the EDF schedule they run under.
pub fn scheduled_threads() -> (Vec<ScheduledThreadModel>, StaticSchedule) {
    let instance = producer_consumer_instance().unwrap();
    let threads = instance.threads().unwrap();
    let tasks = task_set_from_threads(&threads).unwrap();
    let schedule =
        StaticSchedule::synthesize(&tasks, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
    let translated = Translator::new().translate(&instance).unwrap();
    let models = threads
        .iter()
        .filter_map(|thread| scheduled_thread_model(&translated, thread).unwrap())
        .collect();
    (models, schedule)
}

/// The flattened producer thread with its timing trace over one
/// hyper-period.
#[allow(dead_code)] // `simulation_oracle.rs` checks every thread instead
pub fn producer_under_schedule() -> (Process, Trace) {
    let (models, schedule) = scheduled_threads();
    let producer = models
        .into_iter()
        .find(|model| model.thread_name == "thProducer")
        .unwrap();
    let inputs = producer.timing_trace(&schedule, 1);
    (producer.flat, inputs)
}
