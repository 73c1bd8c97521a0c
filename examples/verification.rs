//! Exhaustive state-space verification of the ProducerConsumer case study,
//! and a counterexample/replay demonstration on an injected deadline bug.
//!
//! ```bash
//! cargo run --example verification
//! ```
//!
//! Part 1 runs the full tool chain with the verification phase enabled:
//! every scheduled thread is model-checked for alarm freedom and deadlock
//! freedom over the complete 24-tick hyper-period.
//!
//! Part 2 tampers with the producer's schedule — the completion (`Resume`)
//! of the job guarding the first deadline is delayed past that deadline, as
//! if its execution time had overrun — and shows the checker finding the
//! violation, printing the concrete counterexample, and confirming it by
//! deterministic replay in the co-simulator.

use polychrony_core::{BatchJob, SessionOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the healthy case study verifies violation-free.
    let mut options = SessionOptions::default();
    options.verify.workers = 2;
    let report = BatchJob::case_study("prodcons")
        .with_options(options)
        .run()?;
    let verification = report.verification.as_ref().expect("verification enabled");
    println!("== State-space verification of the ProducerConsumer case study ==\n");
    println!("{}", verification.summary());
    println!(
        "violation-free: {} ({} states, {} transitions across {} threads)\n",
        if verification.is_violation_free() {
            "yes"
        } else {
            "NO"
        },
        verification.total_states(),
        verification.total_transitions(),
        verification.outcomes.len()
    );
    assert!(verification.is_violation_free());

    // Part 2: inject a deadline overrun into the producer's schedule and
    // model-check it (the same ready-made scenario the
    // `polychrony verify --inject-deadline-bug` CLI command uses).
    let demo = polychrony_core::deadline_overrun_demo(1)?;
    println!("== Injected deadline overrun in thProducer ==\n");
    println!(
        "Resume moved from tick {} to {:?}; deadline at tick {} is now missed\n",
        demo.fault.resume_moved_from, demo.fault.resume_moved_to, demo.fault.deadline_tick
    );

    let (outcome, replay) = demo.verify_and_replay(2)?;
    println!("{}", outcome.summary());
    let (_, cex) = outcome
        .violations()
        .next()
        .expect("the injected bug must be found");
    println!("{}", cex.render());

    let replay = replay.expect("a violation always carries a replay");
    println!(
        "simulator replay: {} ({})",
        if replay.reproduced {
            "violation reproduced"
        } else {
            "NOT reproduced"
        },
        replay.detail
    );
    assert!(replay.reproduced);
    Ok(())
}
