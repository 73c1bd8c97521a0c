//! Telemetry overhead gate on the case-study product.
//!
//! ```bash
//! cargo run --release -p bench --example overhead [-- rounds]
//! ```
//!
//! Each of `rounds` rounds (default 200) times the workload once under every
//! collection mode (noop, counters, full), back to back in rotating order,
//! so a change in host speed reaches every mode of a round alike; it takes
//! the median over rounds of the per-round counters/noop wall-time ratio —
//! a paired, in-process comparison, so the result is portable across
//! machines where a committed absolute baseline would not be — and fails
//! (exit 1) when that median exceeds 1.05 (`counters` costing more than
//! 5% over `noop`). The best wall time per mode is printed too. The `full`
//! row is reported for the docs but not gated (event buffering is expected
//! to cost more, and anyone turning it on asked for a trace).

use std::process::ExitCode;
use std::time::Instant;

use polychrony_core::{Session, SessionOptions, Simulated};
use polyverify::{Collector, ProductSystem, ProductVerifier, Property, VerifyOptions};

/// The gate fails when `counters` collection costs more than this factor
/// over `noop` on the case-study product (the ~one-relaxed-atomic-per-state
/// budget of the Counters mode).
const OVERHEAD_CEILING: f64 = 1.05;

/// Rounds when none are given: enough that the median per-round ratio
/// settles within about 1% on a shared 2-CPU host.
const DEFAULT_ROUNDS: usize = 200;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds = match args.as_slice() {
        [] => Ok(DEFAULT_ROUNDS),
        [n] => match n.parse::<usize>() {
            Ok(0) => Err("round count must be at least 1".to_string()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("invalid round count `{n}`")),
        },
        _ => Err("usage: overhead [rounds]".to_string()),
    };
    match rounds.and_then(overhead) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("overhead: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Measures collection overhead on the case-study product. Each round
/// builds the workload once per mode with a fresh collector, then verifies
/// the three back to back, so that brief changes in host speed tend to
/// reach every mode of the round; the mode timed first rotates from round
/// to round. The gate compares the modes within each round: it takes the
/// median of the per-round counters/noop wall-time ratios, which a burst of
/// host speed landing on one sample cannot move the way it moves a best-of
/// comparison. The best wall time per mode is reported alongside.
fn overhead(rounds: usize) -> Result<(), String> {
    type CollectorFactory = fn() -> Collector;
    let modes: [(&str, CollectorFactory); 3] = [
        ("noop", Collector::noop),
        ("counters", Collector::counters),
        ("full", Collector::full),
    ];
    let mut results: Vec<(&str, f64, usize)> = modes
        .iter()
        .map(|&(name, _)| (name, f64::INFINITY, 0))
        .collect();
    // Per mode, the wall time of each round relative to that round's noop.
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); modes.len()];
    let simulated = case_study().map_err(|e| format!("case study failed: {e}"))?;
    for round in 0..rounds {
        let workloads: Vec<_> = modes
            .iter()
            .map(|(_, make_collector)| case_study_product(&simulated, &make_collector()))
            .collect();
        let mut round_wall_s = [0.0f64; 3];
        for k in 0..modes.len() {
            let m = (round + k) % modes.len();
            let (verifier, properties) = &workloads[m];
            let (name, best_wall_s, states) = &mut results[m];
            let start = Instant::now();
            let outcome = verifier
                .verify(properties)
                .map_err(|e| format!("{name} verification failed: {e}"))?;
            round_wall_s[m] = start.elapsed().as_secs_f64();
            *best_wall_s = best_wall_s.min(round_wall_s[m]);
            *states = outcome.stats.states;
        }
        for (m, wall_s) in round_wall_s.iter().enumerate() {
            ratios[m].push(wall_s / round_wall_s[0]);
        }
    }

    let noop_states = results[0].2;
    for (name, _, states) in &results {
        if *states != noop_states {
            return Err(format!(
                "collection mode changed the result: {name} explored {states} \
                 states, noop explored {noop_states}"
            ));
        }
    }

    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        let mid = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            (xs[mid - 1] + xs[mid]) / 2.0
        }
    };
    let vs_noop: Vec<f64> = ratios.into_iter().map(median).collect();
    println!(
        "telemetry overhead, case_study_product, {rounds} round(s) \
         (best wall time; median of per-round ratios to noop):"
    );
    println!("  mode      wall_ms  states/s  vs_noop");
    for ((name, wall_s, states), ratio) in results.iter().zip(&vs_noop) {
        println!(
            "  {name:<8} {:>8.2} {:>9.0} {:>7.3}x",
            wall_s * 1e3,
            *states as f64 / wall_s,
            ratio
        );
    }

    let counters_ratio = vs_noop[1];
    if counters_ratio > OVERHEAD_CEILING {
        return Err(format!(
            "counters mode costs {counters_ratio:.3}x over noop, median of {rounds} \
             round(s) (ceiling {OVERHEAD_CEILING:.2}x)"
        ));
    }
    println!(
        "overhead gate passed: counters is {counters_ratio:.3}x noop, median of {rounds} \
         round(s) (ceiling {OVERHEAD_CEILING:.2}x)"
    );
    Ok(())
}

/// The case study through the simulate phase, from which every round
/// builds its products.
fn case_study() -> Result<Simulated, polychrony_core::CoreError> {
    Session::with_options(SessionOptions::quick())?
        .parse_case_study()?
        .instantiate("sysProdCons.impl")?
        .schedule()?
        .translate()?
        .analyze()?
        .simulate()
}

/// The case-study product over four hyper-periods, with the given collector
/// installed on the engine.
fn case_study_product(
    simulated: &Simulated,
    collector: &Collector,
) -> (ProductVerifier, Vec<Property>) {
    let system =
        ProductSystem::new(simulated.product_components(), simulated.product_links()).unwrap();
    let bound = system.horizon() * 4;
    let properties = vec![
        Property::NeverRaised("*Alarm*".into()),
        Property::DeadlockFree,
    ];
    let verifier = ProductVerifier::new(
        system,
        VerifyOptions::default()
            .with_depth_bound(bound)
            .with_collector(collector.clone()),
    )
    .unwrap();
    (verifier, properties)
}
