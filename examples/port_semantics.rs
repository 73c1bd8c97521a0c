//! Port semantics (E2 / E5): demonstrate the input-compute-output execution
//! model of Fig. 2 and the in event port of Fig. 5 — values arriving after
//! an Input Time are not visible to the thread before the next Input Time,
//! and the frozen view never changes during a dispatch frame.
//!
//! ```bash
//! cargo run --example port_semantics
//! ```

use std::num::NonZeroUsize;

use polychrony_core::asme2ssme::{in_event_port_process, out_event_port_process};
use polychrony_core::polysim::Simulator;
use polychrony_core::signal_moc::trace::Trace;
use polychrony_core::signal_moc::value::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig. 2 scenario: a 4 ms periodic thread; two values arrive after
    // the first Input Time and must wait for the next one.
    let port = in_event_port_process(NonZeroUsize::new(4).expect("4 is not zero"));
    let mut inputs = Trace::new();
    // Ticks 0..8 = two dispatch frames of 4 ms; freeze at dispatch (t0, t4).
    let arrivals = [true, false, true, true, false, false, false, false];
    for (t, &arrived) in arrivals.iter().enumerate() {
        inputs.set(t, "incoming", Value::Bool(arrived));
        inputs.set(t, "freeze", Value::Bool(t % 4 == 0));
    }
    let mut sim = Simulator::new(&port)?;
    let out = sim.run(&inputs)?;
    println!("== In event port (Fig. 5): freeze at each dispatch ==");
    println!("tick  arrival freeze  pending  frozen_count");
    for (t, &arrived) in arrivals.iter().enumerate() {
        println!(
            "{t:>4}  {:>7} {:>6} {:>8} {:>13}",
            arrived,
            t % 4 == 0,
            out.value(t, "pending")
                .and_then(|v| v.as_int())
                .unwrap_or(0),
            out.value(t, "frozen_count")
                .and_then(|v| v.as_int())
                .unwrap_or(0),
        );
    }
    println!(
        "\nThe arrivals at ticks 2 and 3 stay invisible (frozen_count = 1) until the\n\
         next Input Time at tick 4, exactly as Fig. 2 describes.\n"
    );

    // Out event port: production buffered until Output Time.
    let port = out_event_port_process();
    let mut inputs = Trace::new();
    let produced = [true, true, false, true, false, false];
    for (t, &p) in produced.iter().enumerate() {
        inputs.set(t, "produced", Value::Bool(p));
        inputs.set(t, "release", Value::Bool(t == 3 || t == 5));
    }
    let mut sim = Simulator::new(&port)?;
    let out = sim.run(&inputs)?;
    println!("== Out event port: values sent at Output Time ==");
    println!("tick  produced release  backlog  sent_count");
    for (t, &p) in produced.iter().enumerate() {
        println!(
            "{t:>4}  {:>8} {:>7} {:>8} {:>11}",
            p,
            t == 3 || t == 5,
            out.value(t, "backlog")
                .and_then(|v| v.as_int())
                .unwrap_or(0),
            out.value(t, "sent_count")
                .and_then(|v| v.as_int())
                .unwrap_or(0),
        );
    }

    println!("\nVCD dump of the in-port run written to stdout-friendly summary:");
    println!("{}", sim.report().profile.to_table(6));
    Ok(())
}
