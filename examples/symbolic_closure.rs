//! Symbolic closure: the cone-of-influence slice proving an
//! unbounded-counter system that the unsliced engine can only pass bounded.
//!
//! ```bash
//! cargo run --example symbolic_closure
//! ```
//!
//! The process is the smallest space the unsliced explicit engine can never
//! close: a monotone step counter (`count := count$1 init 0 + 1`) mints a
//! fresh delay memory on every tick, so the reference exploration
//! (`Verifier::verify_reference`) visits one new state per depth level
//! forever and any bounded run ends in `passed-bounded`. No checked
//! property reads the counter, so the default concrete exploration slices
//! it out of the state key: one state remains, the space closes, and the
//! verdict is a genuine `proved` — bit-identical across worker counts.
//! Design and soundness argument: docs/SYMBOLIC.md.

use polychrony_core::polyverify::{InputSpace, Property, Verdict, Verifier, VerifyOptions};
use polychrony_core::signal_moc::builder::ProcessBuilder;
use polychrony_core::signal_moc::expr::Expr;
use polychrony_core::signal_moc::process::Process;
use polychrony_core::signal_moc::value::{Value, ValueType};

/// `count := count$1 init 0 + 1`, synchronised with an input tick: one
/// fresh state per instant, forever.
fn unbounded_counter() -> Process {
    let mut b = ProcessBuilder::new("counter");
    b.input("tick", ValueType::Event);
    b.output("count", ValueType::Integer);
    b.define(
        "count",
        Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
    );
    b.synchronize(&["count", "tick"]);
    b.build().unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let process = unbounded_counter();
    let properties = [Property::NeverRaised("*Alarm*".into())];
    let bounded = VerifyOptions::default().with_depth_bound(24);

    println!("== Symbolic closure of an unbounded counter (docs/SYMBOLIC.md) ==\n");

    // Unsliced reference: the fixpoint never closes; the depth bound is the
    // only way to terminate, and the verdict is merely bounded.
    let reference = Verifier::new(&process, bounded.clone())?
        .verify_reference(&InputSpace::Free, &properties)?;
    println!("unsliced reference, depth bound 24:");
    println!("{}\n", reference.summary());
    assert_eq!(
        reference.verdicts[0].verdict,
        Verdict::PassedBounded { depth: 24 }
    );
    assert!(reference.stats.truncated);

    // Default concrete exploration: the counter is invisible to the checked
    // property, so the slice drops it from the state key and the single
    // remaining state closes with a real proof under the same bound.
    let sliced =
        Verifier::new(&process, bounded.clone())?.verify(&InputSpace::Free, &properties)?;
    println!("default (sliced), depth bound 24:");
    println!("{}\n", sliced.summary());
    assert!(sliced.all_proved());
    assert!(!sliced.stats.truncated);
    assert_eq!(sliced.stats.states, 1);
    assert_eq!(sliced.stats.sliced_slots, 1);

    // The sliced exploration inherits the engine's determinism: verdicts
    // and stats are bit-identical for every worker count.
    for workers in [2usize, 8] {
        let again = Verifier::new(&process, bounded.clone().with_workers(workers))?
            .verify(&InputSpace::Free, &properties)?;
        assert_eq!(again.verdicts, sliced.verdicts);
        assert_eq!(again.stats.states, sliced.stats.states);
        assert_eq!(again.stats.sliced_slots, sliced.stats.sliced_slots);
    }
    println!("deterministic: verdicts and stats bit-identical across 1/2/8 workers");
    println!(
        "\nunsliced passed-bounded with {} states explored and no proof;",
        reference.stats.states
    );
    println!("the slice proved with {} state.", sliced.stats.states);
    Ok(())
}
