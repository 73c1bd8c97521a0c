//! Benchmark snapshot tool behind `scripts/bench.sh` and the CI smoke gate.
//!
//! Three modes:
//!
//! ```bash
//! bench_snapshot write [--sha SHA] <criterion-output>... <out.json>
//! bench_snapshot check <criterion-output> <baseline.json>
//! bench_snapshot overhead [reps]
//! ```
//!
//! `write` parses the report lines of the vendored criterion harness
//! (`{group}/{id}: {mean} ns/iter ({n} iterations), {rate} elem/s`) from
//! the captured `cargo bench` output, re-runs the two headline product
//! workloads once to record exact state counts, peak frontier and wall
//! time, measures the `daemon_warm_vs_cold` headline (an 8-variant
//! verification sweep over one model, uncached vs. through the
//! content-addressed artifact cache — asserting report equality and the
//! ≥3x warm speedup on the way), and emits a `BENCH_<n>.json` snapshot
//! (one benchmark entry per line, so the file diffs and greps cleanly
//! without a JSON parser); `--sha` stamps the snapshot with the git
//! revision it was measured at.
//!
//! `check` re-parses a fresh `cargo bench --bench state_space` capture and
//! fails (exit 1) when the throughput of a headline benchmark drops more
//! than 30% below the committed baseline.
//!
//! `overhead` measures the telemetry cost on the case-study product: each
//! of `reps` rounds (default 200) times the workload once under every
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

use aadl::case_study::producer_consumer_instance;
use asme2ssme::system_under_schedule;
use polychrony_core::{
    port_link_for, ArtifactCache, BatchJob, CacheOutcome, PropertySpec, SessionOptions,
};
use polyverify::{
    Collector, PortLink, ProductComponent, ProductSystem, ProductVerifier, Property, VerifyOptions,
};
use sched::SchedulingPolicy;
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::Process;
use signal_moc::trace::Trace;
use signal_moc::value::{Value, ValueType};

/// Throughput below this fraction of the committed baseline fails `check`.
const REGRESSION_FLOOR: f64 = 0.7;

/// `overhead` fails when `counters` collection costs more than this factor
/// over `noop` on the case-study product (the ~one-relaxed-atomic-per-state
/// budget of the Counters mode).
const OVERHEAD_CEILING: f64 = 1.05;

/// Rounds of the `overhead` gate when none are given: enough that the
/// median per-round ratio settles within about 1% on a shared 2-CPU host.
const DEFAULT_OVERHEAD_ROUNDS: usize = 200;

/// The benchmarks gated by `check`: only the case-study product — the
/// acceptance workload of the exploration core. The synthetic product runs
/// in ~300µs per iteration and its measured rate swings far more than 30%
/// between runs of a loaded single-core CI box, so it is recorded in the
/// snapshot but not gated.
const HEADLINE_IDS: [&str; 1] = ["state_space/case_study_product"];

/// States/sec of the case-study product measured on the pre-refactor
/// exploration core (level-barrier BFS, byte-vector state keys, no
/// memoisation) — the fixed reference point of the benchmark trajectory.
const PRE_REFACTOR_CASE_STUDY_ELEM_PER_S: f64 = 1487.0;

/// Builds one headline workload: a configured verifier plus its checked
/// properties, with the given collector installed on the engine.
type WorkloadBuilder = fn(&Collector) -> (ProductVerifier, Vec<Property>);

/// One parsed criterion report line.
struct BenchLine {
    id: String,
    ns_per_iter: f64,
    elem_per_s: Option<f64>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("write") if args.len() >= 3 => {
            let (sha, rest) = match args.get(1).map(String::as_str) {
                Some("--sha") if args.len() >= 5 => (Some(args[2].as_str()), &args[3..]),
                _ => (None, &args[1..]),
            };
            write(&rest[..rest.len() - 1], &rest[rest.len() - 1], sha)
        }
        Some("check") if args.len() == 3 => check(&args[1], &args[2]),
        Some("overhead") if args.len() <= 2 => {
            let reps = match args.get(1) {
                Some(n) => n
                    .parse()
                    .map_err(|_| format!("invalid rep count `{n}`"))
                    .and_then(|n: usize| {
                        if n == 0 {
                            Err("rep count must be at least 1".to_string())
                        } else {
                            Ok(n)
                        }
                    }),
                None => Ok(DEFAULT_OVERHEAD_ROUNDS),
            };
            reps.and_then(overhead)
        }
        _ => Err(
            "usage: bench_snapshot write [--sha SHA] <capture>... <out.json> | \
                  bench_snapshot check <capture> <baseline.json> | \
                  bench_snapshot overhead [reps]"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_snapshot: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Parses every criterion report line of the captured bench outputs.
fn parse_captures(paths: &[String]) -> Result<Vec<BenchLine>, String> {
    let mut lines = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        for line in text.lines() {
            if let Some(parsed) = parse_line(line) {
                lines.push(parsed);
            }
        }
    }
    if lines.is_empty() {
        return Err(format!(
            "no criterion report lines found in {}",
            paths.join(", ")
        ));
    }
    Ok(lines)
}

/// Parses `{group}/{id}: {mean} ns/iter ({n} iterations)[, {rate} elem/s]`.
fn parse_line(line: &str) -> Option<BenchLine> {
    let (id, rest) = line.split_once(": ")?;
    if !id.contains('/') || id.contains(' ') {
        return None;
    }
    let (mean, rest) = rest.trim_start().split_once(" ns/iter")?;
    let ns_per_iter: f64 = mean.trim().parse().ok()?;
    let elem_per_s = rest
        .split_once(", ")
        .and_then(|(_, rate)| rate.strip_suffix(" elem/s"))
        .and_then(|rate| rate.trim().parse().ok());
    Some(BenchLine {
        id: id.to_string(),
        ns_per_iter,
        elem_per_s,
    })
}

fn write(captures: &[String], out_path: &str, sha: Option<&str>) -> Result<(), String> {
    let lines = parse_captures(captures)?;
    let mut json = String::from("{\n  \"schema\": \"polychrony-bench-v1\",\n");
    if let Some(sha) = sha {
        json.push_str(&format!("  \"git_sha\": \"{sha}\",\n"));
    }
    json.push_str("  \"benchmarks\": [\n");
    for (i, line) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { "" } else { "," };
        match line.elem_per_s {
            Some(rate) => json.push_str(&format!(
                "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"elem_per_s\": {:.0}}}{sep}\n",
                line.id, line.ns_per_iter, rate
            )),
            None => json.push_str(&format!(
                "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}}}{sep}\n",
                line.id, line.ns_per_iter
            )),
        }
    }
    json.push_str("  ],\n  \"headline\": [\n");

    let workloads: [(&str, WorkloadBuilder); 2] = [
        ("case_study_product", case_study_product),
        ("synthetic_3thread_product", synthetic_3thread_product),
    ];
    for (i, (name, build)) in workloads.iter().enumerate() {
        let (verifier, properties) = build(&Collector::noop());
        let start = Instant::now();
        let outcome = verifier
            .verify(&properties)
            .map_err(|e| format!("{name} verification failed: {e}"))?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = &outcome.stats;
        let states_per_sec = stats.states as f64 / (wall_ms / 1e3);
        let sep = if i + 1 == workloads.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"id\": \"{name}\", \"states\": {}, \"transitions\": {}, \
             \"depth\": {}, \"peak_frontier\": {}, \"pruned\": {}, \
             \"wall_ms\": {wall_ms:.2}, \"states_per_sec\": {states_per_sec:.0}}}{sep}\n",
            stats.states, stats.transitions, stats.depth, stats.peak_frontier, stats.pruned
        ));
    }
    let daemon = daemon_warm_vs_cold()?;
    json.push_str(&format!(
        "  ],\n  \"daemon\": {{\"id\": \"daemon_warm_vs_cold\", \"variants\": {}, \
         \"cold_ms\": {:.2}, \"warm_ms\": {:.2}, \"speedup\": {:.2}, \
         \"reports_identical\": true}},\n",
        daemon.variants, daemon.cold_ms, daemon.warm_ms, daemon.speedup
    ));
    json.push_str(&format!(
        "  \"reference\": {{\"id\": \"state_space/case_study_product\", \
         \"pre_refactor_elem_per_s\": {PRE_REFACTOR_CASE_STUDY_ELEM_PER_S:.0}}}\n}}\n"
    ));
    std::fs::write(out_path, &json).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!("wrote {out_path} ({} benchmark entries)", lines.len());
    Ok(())
}

fn check(capture: &str, baseline_path: &str) -> Result<(), String> {
    let current = parse_captures(&[capture.to_string()])?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read `{baseline_path}`: {e}"))?;
    let mut failures = Vec::new();
    for id in HEADLINE_IDS {
        let Some(reference) = baseline_rate(&baseline, id) else {
            return Err(format!(
                "`{baseline_path}` has no elem_per_s entry for {id}"
            ));
        };
        let Some(measured) = current
            .iter()
            .find(|line| line.id == id)
            .and_then(|line| line.elem_per_s)
        else {
            return Err(format!("the bench capture has no elem/s line for {id}"));
        };
        let ratio = measured / reference;
        println!(
            "{id}: {measured:.0} elem/s vs baseline {reference:.0} elem/s ({:.0}%)",
            ratio * 100.0
        );
        if ratio < REGRESSION_FLOOR {
            failures.push(format!(
                "{id} regressed to {:.0}% of the committed baseline (floor {:.0}%)",
                ratio * 100.0,
                REGRESSION_FLOOR * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("bench smoke passed: no headline throughput regression beyond 30%");
        Ok(())
    } else {
        Err(failures.join("; "))
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
fn overhead(reps: usize) -> Result<(), String> {
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
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); modes.len()];
    for round in 0..reps {
        let workloads: Vec<_> = modes
            .iter()
            .map(|(_, make_collector)| case_study_product(&make_collector()))
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
        "telemetry overhead, case_study_product, {reps} round(s) \
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
            "counters mode costs {counters_ratio:.3}x over noop, median of {reps} \
             round(s) (ceiling {OVERHEAD_CEILING:.2}x)"
        ));
    }
    println!(
        "overhead gate passed: counters is {counters_ratio:.3}x noop, median of {reps} \
         round(s) (ceiling {OVERHEAD_CEILING:.2}x)"
    );
    Ok(())
}

struct DaemonHeadline {
    variants: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
}

/// The `daemon_warm_vs_cold` headline: the same model swept through 8
/// verification-option variants, first uncached (every variant pays the
/// full parse-through-simulate front end), then through a pre-warmed
/// [`ArtifactCache`] (every variant reuses the simulated artifact and
/// re-runs only verification). Fails unless every warm report is
/// bit-identical to its cold twin and the sweep is at least 3x faster.
fn daemon_warm_vs_cold() -> Result<DaemonHeadline, String> {
    let mut jobs = Vec::new();
    for hyperperiods in 1..=4 {
        for with_property in [false, true] {
            // Tool-chain default front end (four simulated hyper-periods,
            // VCD capture) — the service-shaped workload the cache exists
            // for — with a cheap verify phase per variant: the case study
            // explores ~25 states per thread and verified hyper-period, so
            // one in-process worker fits it.
            let mut options = SessionOptions::default();
            options.verify.workers = 1;
            options.verify.hyperperiods = hyperperiods;
            if with_property {
                options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
            }
            let name = format!("sweep-hp{hyperperiods}-p{}", u8::from(with_property));
            jobs.push(BatchJob::case_study(name).with_options(options));
        }
    }

    // Best-of-N per side, like the `overhead` gate: one sweep is ~tens of
    // milliseconds, so a single timing is at the mercy of the scheduler.
    const REPS: usize = 5;
    let mut cold = Vec::new();
    let mut cold_ms = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        cold = jobs
            .iter()
            .map(|job| job.run().map_err(|e| format!("cold run failed: {e}")))
            .collect::<Result<_, _>>()?;
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }

    let cache = ArtifactCache::new();
    jobs[0]
        .run_cached(&cache)
        .map_err(|e| format!("cache priming failed: {e}"))?;
    let mut warm = Vec::new();
    let mut warm_ms = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        warm = jobs
            .iter()
            .map(|job| {
                job.run_cached(&cache)
                    .map_err(|e| format!("warm run failed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        warm_ms = warm_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }

    for (i, (cold_report, (warm_report, outcome))) in cold.iter().zip(&warm).enumerate() {
        if *outcome != CacheOutcome::SimulatedHit {
            return Err(format!(
                "sweep variant {i} did not hit the simulated cache (got {outcome})"
            ));
        }
        if cold_report != warm_report {
            return Err(format!(
                "sweep variant {i}: warm report diverges from the cold run"
            ));
        }
    }

    let speedup = cold_ms / warm_ms;
    println!(
        "daemon_warm_vs_cold: {} variants, cold {cold_ms:.2} ms, warm {warm_ms:.2} ms \
         ({speedup:.2}x)",
        jobs.len()
    );
    if speedup < 3.0 {
        return Err(format!(
            "warm-cache sweep is only {speedup:.2}x faster than cold (floor 3x)"
        ));
    }
    Ok(DaemonHeadline {
        variants: jobs.len(),
        cold_ms,
        warm_ms,
        speedup,
    })
}

/// Extracts `"elem_per_s": N` from the baseline entry for `id` (the file is
/// written one benchmark entry per line precisely so this stays a line
/// scan, not a JSON parser).
fn baseline_rate(baseline: &str, id: &str) -> Option<f64> {
    let needle = format!("\"id\": \"{id}\"");
    baseline
        .lines()
        .find(|line| line.contains(&needle))?
        .split_once("\"elem_per_s\": ")?
        .1
        .trim_end_matches(['}', ',', ' '])
        .parse()
        .ok()
}

// The two headline workloads, mirroring `benches/state_space.rs` (the
// bench target and this example cannot share code without giving the bench
// crate a library; the duplication is the cheaper coupling).

/// The case-study product over four hyper-periods.
fn case_study_product(collector: &Collector) -> (ProductVerifier, Vec<Property>) {
    let instance = producer_consumer_instance().unwrap();
    let (models, schedule, connections) =
        system_under_schedule(&instance, SchedulingPolicy::EarliestDeadlineFirst).unwrap();
    let components: Vec<ProductComponent> = models
        .iter()
        .map(|model| ProductComponent {
            name: model.thread_name.clone(),
            process: model.flat.clone(),
            schedule: model.timing_trace(&schedule, 1),
        })
        .collect();
    let links: Vec<PortLink> = connections.iter().map(port_link_for).collect();
    let system = ProductSystem::new(components, links).unwrap();
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

/// The synthetic three-stage pipeline product (horizon 12, four repeats).
fn synthetic_3thread_product(collector: &Collector) -> (ProductVerifier, Vec<Property>) {
    fn stage(name: &str) -> Process {
        let mut b = ProcessBuilder::new(name);
        b.input("Dispatch", ValueType::Boolean);
        b.input("out_output_time", ValueType::Boolean);
        b.input("in_in", ValueType::Boolean);
        b.output("Alarm", ValueType::Boolean);
        b.local("seen", ValueType::Integer);
        let prev = Expr::delay(Expr::var("seen"), Value::Int(0));
        b.define(
            "seen",
            Expr::add(
                prev,
                Expr::default(Expr::when(Expr::int(1), Expr::var("in_in")), Expr::int(0)),
            ),
        );
        b.define("Alarm", Expr::ge(Expr::var("seen"), Expr::int(1_000_000)));
        b.synchronize(&["Dispatch", "out_output_time", "in_in", "seen", "Alarm"]);
        b.build().unwrap()
    }
    let horizon = 12usize;
    let mut components = Vec::new();
    for (i, emit_every) in [3usize, 4, 6].into_iter().enumerate() {
        let name = format!("s{i}");
        let mut schedule = Trace::new();
        for t in 0..horizon {
            schedule.set(t, "Dispatch", Value::Bool(t % emit_every == 0));
            schedule.set(t, "out_output_time", Value::Bool(t % emit_every == 1));
            schedule.set(t, "in_in", Value::Bool(false));
        }
        components.push(ProductComponent {
            name,
            process: stage(&format!("stage{i}")),
            schedule,
        });
    }
    let links = vec![
        PortLink {
            name: "l01".into(),
            source: "s0".into(),
            source_signal: "out_output_time".into(),
            target: "s1".into(),
            target_signal: "in_in".into(),
            target_freeze: None,
            target_count: None,
            latency: 1,
        },
        PortLink {
            name: "l12".into(),
            source: "s1".into(),
            source_signal: "out_output_time".into(),
            target: "s2".into(),
            target_signal: "in_in".into(),
            target_freeze: None,
            target_count: None,
            latency: 1,
        },
    ];
    let system = ProductSystem::new(components, links).unwrap();
    let bound = horizon * 4;
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
