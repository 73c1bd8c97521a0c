//! Compositional product verification of the ProducerConsumer case study,
//! and a cross-thread counterexample demonstration on an injected
//! connection-latency bug.
//!
//! ```bash
//! cargo run --example product_verification
//! ```
//!
//! Part 1 runs the pipeline with [`VerificationScope::Product`]: besides
//! the per-thread checks, the synchronous product of the four communicating
//! threads is explored, with every event-port connection treated as a
//! synchronising action (the sender's scheduled emission fixes the matching
//! receiver input) and checked against an end-to-end response property
//! bounded by the receiver's period.
//!
//! Part 2 tampers with the `cProdStartTimer` connection — every start-timer
//! event the producer sends is delayed by 8 ticks, pushing it past the
//! timer thread's input freeze — and shows the product checker finding the
//! cross-thread violation (which no per-thread property can see), printing
//! the joint counterexample, projecting it back onto one thread, and
//! confirming it by lockstep co-simulation of the constituent threads.

use polychrony_core::{BatchJob, SessionOptions, VerificationScope};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the healthy case-study product verifies violation-free.
    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = 1;
    options.verify.scope = VerificationScope::Product;
    let report = BatchJob::case_study("prodcons")
        .with_options(options)
        .run()?;
    let verification = report.verification.as_ref().expect("verification enabled");
    let product = verification.product.as_ref().expect("product scope");
    println!("== Product verification of the ProducerConsumer case study ==\n");
    println!("{}", product.summary());
    println!(
        "joint verdict: {} ({} components, {} connections, {} states)\n",
        if product.is_violation_free() {
            "no cross-thread violation"
        } else {
            "VIOLATED"
        },
        product.components.len(),
        product.connections.len(),
        product.outcome.stats.states,
    );
    assert!(product.is_violation_free());

    // Part 2: inject a connection-latency bug (the same ready-made scenario
    // the `polychrony verify --inject-connection-bug` CLI command uses).
    let demo = polychrony_core::connection_latency_demo(8)?;
    println!("== Injected connection latency on cProdStartTimer ==\n");
    println!(
        "link `{}` now delivers {} tick(s) late: the sent event misses the \
         timer thread's input freeze\n",
        demo.fault.link, demo.fault.added_latency
    );

    let (outcome, replay) = demo.verify_and_replay(2)?;
    println!("{}", outcome.summary());
    let (_, cex) = outcome
        .violations()
        .next()
        .expect("the injected connection bug must be found");
    println!("{}", cex.render());

    // Project the joint counterexample back onto the receiving thread: a
    // per-thread trace that replays in a plain simulator.
    let verifier = polychrony_core::polyverify::ProductVerifier::new(
        demo.system.clone(),
        polychrony_core::polyverify::VerifyOptions::default(),
    )?;
    let projected = verifier
        .project(cex, "thProdTimer")
        .expect("thProdTimer is a product component");
    println!(
        "projection onto thProdTimer: {} instants, {} signals\n",
        projected.len(),
        projected.signals().len()
    );

    let replay = replay.expect("a violation always carries a replay");
    println!(
        "lockstep co-simulation replay: {} ({})",
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
