//! `perfbench` — the end-to-end benchmark of the polychrony tool chain:
//! AADL text to verdict, through the public API only.
//!
//! ```text
//! perfbench --workload <case_study|open_threads|service_sweep>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets the workload up and warms it up several times (the median
//! is `setup_s`), then drives a closed loop for `--seconds`. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it runs half the time untraced
//! and half traced, probes every layer on the workload's own inputs and
//! prints the per-layer metrics plus a self-time table. Every job is
//! checked against a reference answer; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` for the workloads and the metric map.

mod case_study;
mod chain;
mod inputs;
mod measure;
mod open_threads;
mod probe;
mod reference;
mod service;
mod service_sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, quantile, ratio, Counts, Samples};
use trace::Span;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Each run sets its workload up (and warms it up) at least this many
/// times, and until [`SETUP_BUDGET_S`] has passed; `setup_s` is the median.
const MIN_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;
/// A job slower than this counts as failed (timed out).
const JOB_TIMEOUT_MS: f64 = 5_000.0;

const USAGE: &str = "usage: perfbench --workload <case_study|open_threads|service_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// What one closed loop produced.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs that errored or disagreed with their reference.
    pub failed: u64,
    /// Latency of every successful job.
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    /// Process CPU time (all threads) spent during the loop.
    pub cpu_s: f64,
    /// Property verdicts returned, and how many of them were `proved` or
    /// `violated` rather than `passed-bounded`.
    pub verdicts: u64,
    pub decided: u64,
    /// Spans of a traced loop (empty otherwise).
    pub spans: Vec<Span>,
    /// Work counts and service timings a traced loop records.
    pub samples: Samples,
    pub problems: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs from the seed, translates what the loop takes
    /// translated and starts what it talks to; the time this takes is
    /// `setup_s`.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs the first jobs, which fix the work counts every later job must
    /// repeat. Part of `setup_s`: a change that moves work out of the loop
    /// into the first jobs (a cache they fill) shows there.
    fn warm_up(&mut self) -> Result<(), String>;
    /// Runs the closed loop for `seconds`.
    fn run(&mut self, seconds: f64, traced: bool) -> LoopOutcome;
    /// Reference checks that need the whole loop's output; returns the
    /// number of jobs they fail.
    fn check(&mut self, _problems: &mut Vec<String>) -> u64 {
        0
    }
    /// Per-layer measurements on the workload's own inputs (traced runs).
    fn probe(&mut self, samples: &mut Samples) -> Result<(), String>;
    /// Exact work counts, a function of the seed alone.
    fn counts(&self) -> Counts;
    fn teardown(self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("perfbench: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A hung job cannot be cancelled in-process: past this limit the run
    // ends without a result rather than never.
    let limit = std::time::Duration::from_secs_f64(170f64.max(args.seconds * 2.0 + 60.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; giving up");
        std::process::exit(3);
    });
    let result = match args.workload.as_str() {
        "case_study" => run::<case_study::CaseStudy>(&args),
        "open_threads" => run::<open_threads::OpenThreads>(&args),
        "service_sweep" => run::<service_sweep::ServiceSweep>(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            ExitCode::FAILURE
        }
    }
}

/// Sets the workload up and warms it up repeatedly, keeps the last one,
/// runs it and returns the result line.
fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut prepared: Option<W> = None;
    let budget = Instant::now();
    while setup_s.len() < MIN_SETUPS || budget.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        if let Some(previous) = prepared.take() {
            previous.teardown();
        }
        let started = Instant::now();
        let mut workload = W::setup(args.seed)?;
        workload.warm_up()?;
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(workload);
    }
    let mut workload = prepared.expect("at least one setup");
    let mut problems = Vec::new();
    let (attempted, failed, metrics) = if args.trace {
        let half = args.seconds / 2.0;
        let mut plain = workload.run(half, false);
        let mut traced = workload.run(half, true);
        fail_timeouts(&mut plain);
        fail_timeouts(&mut traced);
        let failed = plain.failed + traced.failed + workload.check(&mut problems);
        let overhead = ratio(jobs_per_s(&traced), jobs_per_s(&plain));
        problems.extend(plain.problems);
        let mut samples = traced.samples;
        for span in &traced.spans {
            if TIMED_CALLS.contains(&span.name) {
                samples.push(span.name, span.duration().as_secs_f64() * 1e3);
            }
        }
        if let Err(problem) = workload.probe(&mut samples) {
            problems.push(format!("layer probe: {problem}"));
        }
        probe::derive_queue_wait(&mut samples);
        print_self_times(&traced.spans, traced.latencies_ms.len());
        write_spans(args, &traced.spans, overhead);
        problems.extend(traced.problems);
        (
            plain.jobs + traced.jobs,
            failed,
            per_layer(&samples, overhead),
        )
    } else {
        let mut out = workload.run(args.seconds, false);
        fail_timeouts(&mut out);
        // Before the reference checks, which allocate on their own.
        let metrics = end_to_end(&out, median(&setup_s), measure::peak_rss_mb());
        let failed = out.failed + workload.check(&mut problems);
        problems.extend(out.problems);
        (out.jobs, failed, metrics)
    };
    let counts = workload.counts();
    for (name, value) in &counts {
        println!("count {name} {value}");
    }
    if let Err(problem) = compare_counts(args, &counts) {
        problems.push(problem);
    }
    workload.teardown();
    for problem in problems.iter().take(20) {
        eprintln!("perfbench: {problem}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let correct = failed == 0 && problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Counts every job slower than [`JOB_TIMEOUT_MS`] as failed rather than
/// completed.
fn fail_timeouts(out: &mut LoopOutcome) {
    let before = out.latencies_ms.len();
    out.latencies_ms.retain(|&ms| ms <= JOB_TIMEOUT_MS);
    let timed_out = (before - out.latencies_ms.len()) as u64;
    if timed_out > 0 {
        out.failed += timed_out;
        out.problems.push(format!(
            "{timed_out} job(s) took longer than the {JOB_TIMEOUT_MS} ms timeout"
        ));
    }
}

fn jobs_per_s(out: &LoopOutcome) -> f64 {
    ratio(out.latencies_ms.len() as f64, out.wall_s)
}

/// The end-to-end metrics, in the order of `BENCHMARK.json`.
fn end_to_end(
    out: &LoopOutcome,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        ("jobs_per_s", jobs_per_s(out), "1/s"),
        ("latency_p50_ms", quantile(&out.latencies_ms, 0.5), "ms"),
        ("latency_p90_ms", quantile(&out.latencies_ms, 0.9), "ms"),
        (
            "cpu_ms_per_job",
            ratio(out.cpu_s * 1e3, out.latencies_ms.len() as f64),
            "ms",
        ),
        (
            "decided_share",
            ratio(out.decided as f64, out.verdicts as f64),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Public calls whose spans feed the per-layer time metrics.
const TIMED_CALLS: [&str; 10] = [
    "aadl.parse",
    "aadl.instantiate",
    "sched.schedule",
    "translate.translate",
    "signal.analyze",
    "sim.simulate",
    "verify.per_thread",
    "verify.free",
    "product.verify",
    "product.replay",
];

/// The per-layer metrics, in the order of `BENCHMARK.json`.
fn per_layer(s: &Samples, overhead: f64) -> Vec<(&'static str, f64, &'static str)> {
    let thread_verify_ms = s.sum("verify.per_thread") + s.sum("verify.free");
    let all_verify_ms = thread_verify_ms + s.sum("product.verify");
    let eval_us = s.median("eval.step_us");
    let memo = s.sum("product.memo_hits");
    let lookups = s.sum("cache.lookups");
    vec![
        ("aadl.parse_ms", s.median("aadl.parse"), "ms"),
        ("aadl.instantiate_ms", s.median("aadl.instantiate"), "ms"),
        ("sched.schedule_ms", s.median("sched.schedule"), "ms"),
        (
            "translate.translate_ms",
            s.median("translate.translate"),
            "ms",
        ),
        (
            "translate.equations",
            s.mean("translate.equations"),
            "count",
        ),
        ("signal.analyze_ms", s.median("signal.analyze"), "ms"),
        ("signal.clocks", s.mean("signal.clocks"), "count"),
        ("sim.simulate_ms", s.median("sim.simulate"), "ms"),
        ("sim.instants", s.mean("sim.instants"), "count"),
        ("verify.per_thread_ms", s.median("verify.per_thread"), "ms"),
        ("verify.states", s.mean("verify.states"), "count"),
        ("verify.transitions", s.mean("verify.transitions"), "count"),
        ("product.verify_ms", s.median("product.verify"), "ms"),
        ("product.states", s.mean("product.states"), "count"),
        (
            "product.transitions",
            s.mean("product.transitions"),
            "count",
        ),
        (
            "product.memo_hit_ratio",
            ratio(memo, memo + s.sum("product.memo_misses")),
            "ratio",
        ),
        ("product.replay_ms", s.median("product.replay"), "ms"),
        ("verify.cex_depth", s.mean("verify.cex_depth"), "count"),
        ("eval.step_us", eval_us, "us"),
        (
            "eval.share_of_verify",
            ratio(eval_us * s.sum("verify.evaluated"), all_verify_ms * 1e3),
            "ratio",
        ),
        ("monitor.step_ns", s.median("monitor.step_ns"), "ns"),
        ("state.encode_ns", s.median("state.encode_ns"), "ns"),
        ("state.intern_ns", s.median("state.intern_ns"), "ns"),
        ("verify.candidates", s.mean("verify.candidates"), "count"),
        (
            "verify.infeasible_share",
            ratio(
                s.sum("verify.infeasible"),
                s.sum("verify.infeasible") + s.sum("verify.transitions"),
            ),
            "ratio",
        ),
        (
            "verify.peak_frontier",
            s.max("verify.peak_frontier"),
            "count",
        ),
        (
            "verify.states_per_s",
            ratio(s.sum("verify.states"), thread_verify_ms / 1e3),
            "1/s",
        ),
        (
            "cache.simulated_hit_share",
            ratio(s.sum("cache.simulated-hit"), lookups),
            "ratio",
        ),
        (
            "cache.frontend_hit_share",
            ratio(s.sum("cache.frontend-hit"), lookups),
            "ratio",
        ),
        (
            "cache.miss_share",
            ratio(s.sum("cache.miss"), lookups),
            "ratio",
        ),
        ("server.worker_ms", s.median("server.worker"), "ms"),
        ("server.queue_wait_ms", s.median("server.queue_wait"), "ms"),
        ("wire.encode_us", s.median("wire.encode_us"), "us"),
        ("wire.decode_us", s.median("wire.decode_us"), "us"),
        ("wire.bytes_per_job", s.mean("wire.bytes_per_job"), "bytes"),
        ("client.roundtrip_ms", s.median("client.roundtrip"), "ms"),
        ("obs.trace_overhead", overhead, "ratio"),
    ]
}

/// Prints each layer's self time per job in the traced loop, largest
/// first.
fn print_self_times(spans: &[Span], jobs: usize) {
    let by_layer = trace::layer_self_ms(spans);
    let total: f64 = by_layer.values().sum();
    let mut rows: Vec<(&str, f64)> = by_layer.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some((layer, _)) = rows.first() {
        println!("largest self time: {layer}");
    }
    for (layer, ms) in rows {
        println!(
            "self {layer:<10} {:>10.4} ms/job {:>6.2}%",
            ratio(ms, jobs as f64),
            ratio(ms * 100.0, total)
        );
    }
}

/// Directory next to the benchmark executable (inside the build
/// directory) for the trace and the recorded counts.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("perfbench-out")))
        .unwrap_or_else(|| PathBuf::from("perfbench-out"))
}

fn write_spans(args: &Args, spans: &[Span], overhead: f64) {
    let dir = output_dir();
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"obs.trace_overhead\":{overhead}}}\n{}",
        args.workload,
        args.seed,
        trace::to_json_lines(spans)
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// FNV-1a of the running executable: counts recorded by one build are
/// only ever compared with the same build's, so a change that does less
/// work is not failed against an older build's counts.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

/// Records the counts of this build, workload and seed on first sight, and
/// fails when an earlier run of the same build with the same seed recorded
/// different ones.
fn compare_counts(args: &Args, counts: &Counts) -> Result<(), String> {
    let dir = output_dir();
    let path = dir.join(format!(
        "counts-{}-{}-{}.txt",
        args.workload,
        args.seed,
        build_id()?
    ));
    let text: String = counts
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => {
            let differing: Vec<&str> = text
                .lines()
                .filter(|line| !earlier.lines().any(|e| e == *line))
                .chain(
                    earlier
                        .lines()
                        .filter(|line| !text.lines().any(|t| t == *line)),
                )
                .collect();
            Err(format!(
                "work counts differ from an earlier run of this build with seed {} ({}): {differing:?}",
                args.seed,
                path.display()
            ))
        }
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("cannot record counts in {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let parsed = args(&["--workload", "case_study", "--seed", "9", "--trace", "1"]).unwrap();
        assert_eq!(parsed.workload, "case_study");
        assert_eq!(parsed.seed, 9);
        assert!(parsed.trace);
        assert_eq!(args(&["--workload", "x"]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
