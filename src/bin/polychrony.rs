//! `polychrony` — command-line front end of the DATE 2013 tool chain.
//!
//! Runs the complete analysis/validation pipeline on the built-in
//! ProducerConsumer case study without writing any Rust:
//!
//! ```bash
//! polychrony analyze  [--policy rm|edf|fp] [--stop-after PHASE]
//! polychrony simulate [--hyperperiods N] [--vcd]
//! polychrony verify   [--workers N] [--hyperperiods N] [--product]
//!                     [--property EXPR]...
//!                     [--inject-deadline-bug] [--inject-connection-bug]
//!                     [--progress] [--trace-out FILE]
//! polychrony batch    [--jobs N] [--workers N] [--property EXPR]...
//!                     [--progress] [--trace-out FILE]
//! polychrony vopr     [--seed S] [--iterations N] [--fault KIND]
//!                     [--max-threads N] [--no-shrink] [--replay S]
//! ```
//!
//! With a running `polychronyd` (see `docs/SERVICE.md`), four more
//! subcommands talk to the daemon over its socket:
//!
//! ```bash
//! polychrony submit (--socket PATH | --tcp ADDR) [--name NAME]
//!                   [--workers N] [--hyperperiods N] [--product]
//!                   [--property EXPR]... [--detach]
//! polychrony status (--socket PATH | --tcp ADDR) [--id N]
//! polychrony watch  (--socket PATH | --tcp ADDR) --id N
//! polychrony stop   (--socket PATH | --tcp ADDR)
//! polychrony vopr   --daemon (--socket PATH | --tcp ADDR) [--seed S]
//!                   [--iterations N] [--max-threads N]
//! ```
//!
//! Every subcommand also accepts `--quiet` (only final verdict lines) and
//! `-v`/`--verbose` (extra detail such as per-phase timings). Live
//! `--progress` output goes to stderr and `--trace-out` to its file, so
//! machine-readable streams never interleave with the human output on
//! stdout.
//!
//! Exit codes: `0` success, `1` usage error (including out-of-range option
//! values), `2` a check failed (invalid schedule, alarm during simulation,
//! a verification violation, or a failed batch job).

use std::path::PathBuf;
use std::process::ExitCode;

use polychrony_client::{ClientError, Endpoint};
use polychrony_core::aadl::synth::SyntheticSpec;
use polychrony_core::polyverify::Property;
use polychrony_core::sched::SchedulingPolicy;
use polychrony_core::{
    BatchJob, BatchRunner, Collector, CoreError, JsonLinesSink, ProgressReporter, ProgressUpdate,
    PropertySpec, ScheduleOptions, Session, SessionOptions, VerificationOptions, VerificationScope,
};
use polyvopr::{FaultKind, VoprOptions};
use polywire::{JobSpec, WireReport};

/// A CLI failure: a usage error (exit code 1) or a runtime error (exit
/// code 2), matching the contract in the module documentation.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        match e {
            // An out-of-range option is a command-line mistake (exit 1),
            // not a failed check of the model (exit 2).
            CoreError::InvalidOptions(msg) => CliError::Usage(msg),
            other => CliError::Run(other.to_string()),
        }
    }
}

impl From<ClientError> for CliError {
    // Every client-side failure — daemon not running (connection refused),
    // daemon-reported error, protocol mismatch — is a runtime error
    // (exit 2), never a panic and never a usage error.
    fn from(e: ClientError) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Verbosity-routed human output on stdout. Three tiers: [`Ui::result`]
/// lines (final verdicts) always print, [`Ui::say`] narration is suppressed
/// by `--quiet`, and [`Ui::detail`] extras print only with `-v`. Machine
/// output (`--trace-out`, `--progress`) never goes through here — it has
/// its own sinks (a file and stderr), so the streams cannot interleave.
#[derive(Clone, Copy)]
struct Ui {
    level: i8,
}

impl Ui {
    fn from_args(args: &[String]) -> Result<Self, CliError> {
        let quiet = has_flag(args, "--quiet");
        let verbose = has_flag(args, "-v") || has_flag(args, "--verbose");
        if quiet && verbose {
            return Err(CliError::Usage(
                "--quiet and -v/--verbose are mutually exclusive".into(),
            ));
        }
        let level = if quiet {
            -1
        } else if verbose {
            1
        } else {
            0
        };
        Ok(Self { level })
    }

    /// Normal narration; suppressed by `--quiet`.
    fn say(&self, msg: &str) {
        if self.level >= 0 {
            println!("{msg}");
        }
    }

    /// Extra detail; printed only with `-v`.
    fn detail(&self, msg: &str) {
        if self.level >= 1 {
            println!("{msg}");
        }
    }

    /// A final verdict line; always printed, even under `--quiet`.
    fn result(&self, msg: &str) {
        println!("{msg}");
    }
}

/// The verbosity and observability flags accepted by every subcommand.
const COMMON_FLAGS: [(&str, bool); 3] = [("--quiet", false), ("-v", false), ("--verbose", false)];

/// The sink flags accepted by the exploration-heavy subcommands.
const OBS_FLAGS: [(&str, bool); 2] = [("--progress", false), ("--trace-out", true)];

/// Builds the run's collector from `--progress` / `--trace-out`: full
/// collection with the matching sinks when either is present, noop
/// otherwise (telemetry costs nothing unless asked for).
fn collector_from_args(args: &[String]) -> Result<Collector, CliError> {
    let trace_out = flag_value(args, "--trace-out", String::new())?;
    let progress = has_flag(args, "--progress");
    if trace_out.is_empty() && !progress {
        return Ok(Collector::noop());
    }
    let collector = Collector::full();
    if !trace_out.is_empty() {
        let file = std::fs::File::create(&trace_out).map_err(|e| {
            CliError::Usage(format!("cannot create --trace-out file `{trace_out}`: {e}"))
        })?;
        collector.add_sink(Box::new(JsonLinesSink::new(Box::new(file))));
    }
    if progress {
        collector.add_sink(Box::new(ProgressReporter::stderr()));
    }
    Ok(collector)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let result = match command.as_str() {
        "analyze" => analyze(&args[1..]),
        "simulate" => simulate(&args[1..]),
        "verify" => verify(&args[1..]),
        "batch" => batch(&args[1..]),
        "vopr" => vopr(&args[1..]),
        "submit" => submit(&args[1..]),
        "status" => status(&args[1..]),
        "watch" => watch(&args[1..]),
        "stop" => stop(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}\n\n{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "polychrony — polychronous analysis and validation of the \
ProducerConsumer case study (DATE 2013)

USAGE:
    polychrony analyze  [--policy rm|edf|fp] [--stop-after PHASE]
    polychrony simulate [--hyperperiods N] [--vcd]
    polychrony verify   [--workers N] [--hyperperiods N] [--product]
                        [--property EXPR]...
                        [--inject-deadline-bug] [--inject-connection-bug]
                        [--progress] [--trace-out FILE]
    polychrony batch    [--jobs N] [--workers N] [--property EXPR]...
                        [--progress] [--trace-out FILE]
    polychrony vopr     [--seed S] [--iterations N] [--fault KIND]
                        [--max-threads N] [--no-shrink] [--replay S]
    polychrony vopr     --daemon (--socket PATH | --tcp ADDR) [--seed S]
                        [--iterations N] [--max-threads N]
    polychrony submit   (--socket PATH | --tcp ADDR) [--name NAME]
                        [--workers N] [--hyperperiods N] [--product]
                        [--property EXPR]... [--detach]
    polychrony status   (--socket PATH | --tcp ADDR) [--id N]
    polychrony watch    (--socket PATH | --tcp ADDR) --id N
    polychrony stop     (--socket PATH | --tcp ADDR)

GLOBAL FLAGS (every subcommand):
    --quiet          print only the final verdict lines
    -v, --verbose    print extra detail (per-phase wall times, records)

OBSERVABILITY (verify and batch; see docs/OBSERVABILITY.md):
    --progress       live progress on stderr: phase, explored states,
                     depth vs. bound, states/s and ETA (throttled)
    --trace-out FILE stream a `polychrony-trace-v1` JSON-lines trace
                     (spans, events, final counters) to FILE

COMMANDS:
    analyze    parse, schedule, translate and statically analyse the model;
               --stop-after parse|instantiate|schedule|translate|analyze
               halts the staged pipeline after that phase and prints its
               artifact
    simulate   co-simulate the scheduled threads and report alarm instants
    verify     exhaustively model-check every thread (alarm + deadlock
               freedom); --property adds a user past-time LTL property
               (repeatable; see docs/PROPERTIES.md for the grammar, e.g.
               'never raised(*Alarm*)' or 'always (Deadline implies Resume
               within 2)'); with --product, additionally verify the
               synchronous product of the communicating threads (event-port
               connections as synchronising actions, one end-to-end response
               property per connection, user properties over the joint
               namespace) and print the joint verdict; with
               --inject-deadline-bug, inject a deadline overrun into the
               producer schedule, check the user properties (or the default
               alarm property), print the counterexample and confirm it by
               simulator replay; with --inject-connection-bug, delay the
               producer's start-timer connection past the timer's input
               freeze and confirm the cross-thread counterexample by
               lockstep co-simulation; every exploration drops the counters
               no property, port link, clock or divisor reads from the state
               key (the cone-of-influence slice, exact for observables), so
               unbounded-counter spaces can close with a genuine proof —
               see docs/SYMBOLIC.md
    batch      run N models (the case study + synthetic workloads) through
               the whole pipeline concurrently on a bounded worker pool and
               print one timed report line per job; --property adds a user
               property to every job
    vopr       seeded whole-system chaos harness (docs/VOPR.md): generate
               complete AADL systems from --seed, drive each through the
               full pipeline and cross-check independent oracles (cached
               vs uncached runs, compiled LTL monitors vs the reference
               trace semantics, product verdicts vs lockstep
               co-simulation, sliced vs unsliced verdicts,
               counterexample replay); --fault injects one of
               deadline-overrun, connection-latency, dropped-delivery,
               dispatch-jitter, corrupted-schedule, counter-drift into
               every scenario and demands the verifier catch it (or, for
               the agreement faults, that every oracle still agree on the
               tampered system); any finding is shrunk to a
               minimal failing system (--no-shrink to keep the original)
               and printed with a replay line; --replay S re-runs one
               scenario seed (hex 0x... or decimal) literally; with
               --daemon, fan the generated jobs at a running polychronyd
               instead and cross-check every wire report against a local
               run of the identical job
    submit     send the case study to a running polychronyd (docs/SERVICE.md)
               and stream progress until the report arrives; submits that
               differ only in verification flags hit the daemon's artifact
               cache; --detach returns immediately after the job id
    status     list the daemon's job table (or one job with --id)
    watch      re-attach to a submitted job and stream it to completion
    stop       ask the daemon to finish running jobs and exit";

/// Rejects any argument that is not in the subcommand's allowed flag list
/// (`(flag, takes_value)` pairs), so a typo like `--hyperperiod` fails
/// loudly instead of silently running with defaults.
fn check_flags(args: &[String], allowed: &[(&str, bool)]) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        match allowed.iter().find(|(flag, _)| flag == arg) {
            Some((_, takes_value)) => i += if *takes_value { 2 } else { 1 },
            None => return Err(CliError::Usage(format!("unknown argument `{arg}`"))),
        }
    }
    Ok(())
}

/// Returns the value following `--flag`, parsed, or the default.
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value for {flag}"))),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Collects every value of a repeatable `--flag VALUE` argument.
fn flag_values(args: &[String], flag: &str) -> Result<Vec<String>, CliError> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(value) => values.push(value.clone()),
                None => return Err(CliError::Usage(format!("{flag} needs a value"))),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(values)
}

/// Parses the repeatable `--property` expressions, turning a syntax error
/// into a usage error that carries the parser's caret-annotated span.
fn parse_properties(args: &[String]) -> Result<Vec<Property>, CliError> {
    flag_values(args, "--property")?
        .iter()
        .map(|expr| {
            Property::parse_ltl(expr)
                .map_err(|e| CliError::Usage(format!("invalid --property expression: {e}")))
        })
        .collect()
}

fn analyze(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![("--policy", true), ("--stop-after", true)];
    allowed.extend(COMMON_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let policy = match flag_value(args, "--policy", "edf".to_string())?.as_str() {
        "rm" => SchedulingPolicy::RateMonotonic,
        "edf" => SchedulingPolicy::EarliestDeadlineFirst,
        "fp" => SchedulingPolicy::FixedPriority,
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy `{other}` (use rm, edf or fp)"
            )))
        }
    };
    let stop_after = flag_value(args, "--stop-after", String::new())?;
    if !stop_after.is_empty() {
        return analyze_staged(ui, policy, &stop_after);
    }
    let mut options = SessionOptions::default();
    options.schedule.policy = policy;
    options.simulate.hyperperiods = 1;
    options.verify.enabled = false;
    let report = BatchJob::case_study("analyze")
        .with_options(options)
        .run()?;
    ui.say(&report.summary());
    ui.say(&format!("-- task set --\n{}", report.task_set_summary));
    ui.say(&format!(
        "-- static schedule --\n{}",
        report.schedule.to_table()
    ));
    ui.detail(&format!("-- phases --\n{}", report.run_record.summary()));
    let ok = report.all_checks_passed();
    ui.result(&format!("checks passed: {}", if ok { "yes" } else { "NO" }));
    Ok(exit_for(ok))
}

/// Runs the staged pipeline up to (and including) `stop_after`, printing
/// the artifact of that phase.
fn analyze_staged(
    ui: Ui,
    policy: SchedulingPolicy,
    stop_after: &str,
) -> Result<ExitCode, CliError> {
    const PHASES: [&str; 5] = ["parse", "instantiate", "schedule", "translate", "analyze"];
    if !PHASES.contains(&stop_after) {
        return Err(CliError::Usage(format!(
            "unknown phase `{stop_after}` (use {})",
            PHASES.join(", ")
        )));
    }
    let session = Session::new().schedule_options(ScheduleOptions { policy });

    let parsed = session.parse_case_study()?;
    if stop_after == "parse" {
        ui.result(&format!(
            "parsed package `{}`: {} classifier(s)",
            parsed.package.name,
            parsed.package.classifiers.len()
        ));
        return Ok(ExitCode::SUCCESS);
    }

    let instantiated = parsed.instantiate("sysProdCons.impl")?;
    if stop_after == "instantiate" {
        ui.result(&format!(
            "instantiated `{}`: {} component instance(s)",
            instantiated.instance.root.path,
            instantiated.instance.instance_count()
        ));
        for (category, count) in instantiated.instance.category_counts() {
            ui.say(&format!("  {:<10} {count}", category.keyword()));
        }
        return Ok(ExitCode::SUCCESS);
    }

    let scheduled = instantiated.schedule()?;
    if stop_after == "schedule" {
        ui.say(&format!("-- task set --\n{}", scheduled.tasks));
        ui.say(&format!(
            "-- static schedule --\n{}",
            scheduled.schedule.to_table()
        ));
        ui.result(&format!(
            "affine clocks: {} exported, {} constraint(s) verified",
            scheduled.affine.clock_count(),
            scheduled.affine.verified_constraints
        ));
        return Ok(exit_for(scheduled.schedule.is_valid()));
    }

    let translated = scheduled.translate()?;
    if stop_after == "translate" {
        ui.result(&format!(
            "translated {} SIGNAL process(es), {} equation(s), {} scheduled thread unit(s)",
            translated.system.model.len(),
            translated.system.model.total_equations(),
            translated.thread_units.len()
        ));
        return Ok(ExitCode::SUCCESS);
    }

    let analyzed = translated.analyze()?;
    ui.say(&format!(
        "clocks      : {} classes, {} master(s), hierarchy depth {}",
        analyzed.static_analysis.clock_count,
        analyzed.static_analysis.master_clock_count,
        analyzed.static_analysis.hierarchy_depth
    ));
    ui.result(&format!(
        "determinism : {}",
        if analyzed.static_analysis.determinism.is_deterministic() {
            "deterministic"
        } else {
            "NON-DETERMINISTIC"
        }
    ));
    ui.result(&format!(
        "deadlock    : {}",
        if analyzed.static_analysis.causality_cycle.is_none() {
            "none"
        } else {
            "CYCLE FOUND"
        }
    ));
    let ok = analyzed.static_analysis.causality_cycle.is_none()
        && analyzed.static_analysis.determinism.is_deterministic();
    Ok(exit_for(ok))
}

/// Runs N models (the case study plus synthetic workloads) through the
/// whole pipeline on a bounded worker pool.
fn batch(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![("--jobs", true), ("--workers", true), ("--property", true)];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(OBS_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let collector = collector_from_args(args)?;
    let job_count: usize = flag_value(args, "--jobs", 8)?;
    let workers: usize = flag_value(args, "--workers", 4)?;
    if job_count == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".into()));
    }
    // Fail fast on malformed property expressions (usage error with span).
    parse_properties(args)?;
    // Per-job options: one simulated hyper-period, no waveform, sequential
    // in-job verification (the parallelism lives at the job level); every
    // job checks the user-supplied properties on top of the built-ins.
    let mut options = SessionOptions::quick();
    options.verify.properties = flag_values(args, "--property")?
        .into_iter()
        .map(PropertySpec::new)
        .collect();
    let jobs: Vec<BatchJob> = (0..job_count)
        .map(|i| {
            let job = if i == 0 {
                BatchJob::case_study("prodcons-case-study")
            } else {
                let threads = [4, 6, 8][(i - 1) % 3];
                BatchJob::synthetic(
                    format!("synthetic-{threads}t-{i}"),
                    &SyntheticSpec::new(threads, 1),
                )
            };
            job.with_options(options.clone())
        })
        .collect();
    let results = BatchRunner::new()
        .with_workers(workers)
        .with_collector(collector.clone())
        .run(&jobs)?;
    collector.flush();
    ui.say(&format!(
        "batch verification: {} model(s) on {} worker(s)\n",
        results.reports.len(),
        results.workers
    ));
    for report in &results.reports {
        ui.say(&report.summary());
        if let Some(record) = report.run_record() {
            ui.detail(&record.summary());
        }
    }
    ui.result(&results.totals());
    Ok(exit_for(results.all_passed()))
}

/// Parses a scenario seed as printed by a vopr replay line: `0x`-prefixed
/// hexadecimal or plain decimal.
fn parse_seed(text: &str, flag: &str) -> Result<u64, CliError> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| {
        CliError::Usage(format!(
            "invalid value for {flag}: `{text}` is not a decimal or 0x-prefixed seed"
        ))
    })
}

/// Runs the seeded chaos harness (or replays one scenario seed), printing
/// findings with their minimal failing system and replay line. With
/// `--daemon`, fans the generated jobs at a running daemon instead.
fn vopr(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![
        ("--seed", true),
        ("--iterations", true),
        ("--fault", true),
        ("--max-threads", true),
        ("--no-shrink", false),
        ("--replay", true),
        ("--daemon", false),
    ];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(ENDPOINT_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let defaults = VoprOptions::default();
    let fault = match flag_value(args, "--fault", String::new())?.as_str() {
        "" => None,
        label => Some(FaultKind::from_label(label).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown fault `{label}` (use {})",
                FaultKind::ALL.map(FaultKind::label).join(", ")
            ))
        })?),
    };
    let options = VoprOptions {
        seed: parse_seed(&flag_value(args, "--seed", "0".to_string())?, "--seed")?,
        iterations: flag_value(args, "--iterations", defaults.iterations)?,
        fault,
        max_threads: flag_value(args, "--max-threads", defaults.max_threads)?,
        shrink: !has_flag(args, "--no-shrink"),
    };
    if options.iterations == 0 {
        return Err(CliError::Usage("--iterations must be at least 1".into()));
    }
    if options.max_threads == 0 {
        return Err(CliError::Usage("--max-threads must be at least 1".into()));
    }
    let mut progress = |line: String| ui.detail(&format!("  {line}"));

    if has_flag(args, "--daemon") {
        if fault.is_some() {
            return Err(CliError::Usage(
                "--fault is not available with --daemon (the daemon runs unmodified jobs)".into(),
            ));
        }
        if has_flag(args, "--replay") {
            return Err(CliError::Usage(
                "--replay is not available with --daemon".into(),
            ));
        }
        let endpoint = endpoint_from_args(args)?;
        ui.say(&format!(
            "vopr daemon load: {} seeded job(s) against {endpoint} (master seed 0x{:016x})\n",
            options.iterations, options.seed
        ));
        let report = polyvopr::run_daemon_load(&endpoint, &options, &mut progress)?;
        ui.result(report.summary().trim_end());
        return Ok(ExitCode::from(
            u8::try_from(report.exit_code()).unwrap_or(2),
        ));
    }

    let replay_seed = match flag_value(args, "--replay", String::new())?.as_str() {
        "" => None,
        text => Some(parse_seed(text, "--replay")?),
    };
    let report = match replay_seed {
        Some(seed) => {
            ui.say(&format!(
                "vopr replay: scenario seed 0x{seed:016x}{}\n",
                fault.map_or_else(String::new, |f| format!(", injecting {f}"))
            ));
            polyvopr::replay(seed, &options, &mut progress)
        }
        None => {
            ui.say(&format!(
                "vopr: {} scenario(s) from master seed 0x{:016x}{}\n",
                options.iterations,
                options.seed,
                fault.map_or_else(String::new, |f| format!(", injecting {f}"))
            ));
            polyvopr::run(&options, &mut progress)
        }
    };
    ui.result(report.summary().trim_end());
    Ok(ExitCode::from(
        u8::try_from(report.exit_code()).unwrap_or(2),
    ))
}

fn simulate(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![("--hyperperiods", true), ("--vcd", false)];
    allowed.extend(COMMON_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let hyperperiods = flag_value(args, "--hyperperiods", 4u64)?;
    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = hyperperiods;
    options.verify.enabled = false;
    let report = BatchJob::case_study("simulate")
        .with_options(options)
        .run()?;
    ui.say(&format!(
        "co-simulated {} thread(s) over {} hyper-period(s):",
        report.simulations.len(),
        hyperperiods
    ));
    for (thread, sim) in &report.simulations {
        ui.say(&format!(
            "  {:<45} {:>4} instants, {} alarm instant(s)",
            thread, sim.instants, sim.alarm_instants
        ));
    }
    ui.detail(&format!("-- phases --\n{}", report.run_record.summary()));
    if has_flag(args, "--vcd") {
        // Explicitly requested machine-ish payload: print it even under
        // --quiet, as it is the point of the flag.
        ui.result(&format!("\n-- VCD (producer thread) --\n{}", report.vcd));
    }
    let alarm_free = report.simulations.values().all(|s| s.is_alarm_free());
    ui.result(&format!(
        "alarm-free: {}",
        if alarm_free { "yes" } else { "NO" }
    ));
    Ok(exit_for(alarm_free))
}

/// Applies the verification flags `verify` and `submit` share
/// (`--workers`, `--hyperperiods`, `--product`, `--property`) on top of
/// `verify`'s defaults.
fn apply_verification_flags(
    args: &[String],
    verify: &mut VerificationOptions,
) -> Result<(), CliError> {
    verify.workers = flag_value(args, "--workers", verify.workers)?;
    verify.hyperperiods = flag_value(args, "--hyperperiods", verify.hyperperiods)?;
    if has_flag(args, "--product") {
        verify.scope = VerificationScope::Product;
    }
    verify.properties = flag_values(args, "--property")?
        .into_iter()
        .map(PropertySpec::new)
        .collect();
    Ok(())
}

fn verify(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![
        ("--workers", true),
        ("--hyperperiods", true),
        ("--product", false),
        ("--property", true),
        ("--inject-deadline-bug", false),
        ("--inject-connection-bug", false),
    ];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(OBS_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = 1;
    apply_verification_flags(args, &mut options.verify)?;
    // Parse the user properties upfront: a malformed expression is a usage
    // error (exit 1) with the offending span, before any phase runs.
    let properties = parse_properties(args)?;
    let (workers, hyperperiods) = (options.verify.workers, options.verify.hyperperiods);
    if has_flag(args, "--inject-deadline-bug") {
        return verify_injected(ui, workers, hyperperiods, &properties);
    }
    if has_flag(args, "--inject-connection-bug") {
        return verify_injected_connection(ui, workers, hyperperiods, &properties);
    }
    let collector = collector_from_args(args)?;
    options.collector = collector.clone();
    let report = BatchJob::case_study("verify").with_options(options).run()?;
    collector.flush();
    let verification = report
        .verification
        .as_ref()
        .expect("verification phase enabled");
    ui.say(&format!(
        "state-space verification ({} worker(s), {} hyper-period(s), {} scope):\n",
        verification.workers,
        verification.hyperperiods,
        if verification.product.is_some() {
            "product"
        } else {
            "per-thread"
        }
    ));
    ui.say(&verification.summary());
    ui.detail(&format!("-- phases --\n{}", report.run_record.summary()));
    if let Some(product) = &verification.product {
        ui.say(&format!(
            "joint verdict: {}",
            if product.is_violation_free() {
                "no cross-thread violation"
            } else {
                "cross-thread VIOLATION"
            }
        ));
    }
    let ok = verification.is_violation_free();
    ui.result(&format!(
        "violation-free: {}",
        if ok { "yes" } else { "NO" }
    ));
    Ok(exit_for(ok))
}

/// Injects a deadline overrun into the producer's schedule, model-checks the
/// faulty system — against the user-supplied `--property` expressions alone
/// when any were given, otherwise against the default alarm property — and
/// confirms the counterexample by simulator replay.
fn verify_injected(
    ui: Ui,
    workers: usize,
    hyperperiods: u64,
    properties: &[Property],
) -> Result<ExitCode, CliError> {
    let demo = polychrony_core::deadline_overrun_demo(hyperperiods)?;
    ui.say(&format!(
        "injected deadline overrun: Resume moved from tick {} to {:?} (deadline at tick {})\n",
        demo.fault.resume_moved_from, demo.fault.resume_moved_to, demo.fault.deadline_tick
    ));

    let (outcome, replay) = if properties.is_empty() {
        demo.verify_and_replay(workers)?
    } else {
        demo.verify_properties_and_replay(workers, properties)?
    };
    ui.say(&outcome.summary());
    let Some((_, cex)) = outcome.violations().next() else {
        ui.result("expected the injected bug to be found — it was not");
        return Ok(ExitCode::from(2));
    };
    ui.say(&cex.render());
    let replay = replay.expect("a violation always carries a replay");
    ui.result(&format!(
        "simulator replay: {} ({})",
        if replay.reproduced {
            "violation reproduced"
        } else {
            "NOT reproduced"
        },
        replay.detail
    ));
    Ok(exit_for(replay.reproduced))
}

/// Delays the producer's start-timer connection past the timer thread's
/// input freeze, model-checks the thread product over `hyperperiods`
/// repetitions and confirms the cross-thread counterexample by lockstep
/// co-simulation.
fn verify_injected_connection(
    ui: Ui,
    workers: usize,
    hyperperiods: u64,
    properties: &[Property],
) -> Result<ExitCode, CliError> {
    if hyperperiods == 0 {
        return Err(CliError::Usage(
            "--hyperperiods must be at least 1".to_string(),
        ));
    }
    let mut demo = polychrony_core::connection_latency_demo(8)?;
    // The demo's depth bound defaults to one joint hyper-period; scale it
    // to the requested exploration window.
    demo.horizon *= hyperperiods as usize;
    ui.say(&format!(
        "injected connection latency: link `{}` delayed by {} tick(s) (was {})\n",
        demo.fault.link, demo.fault.added_latency, demo.fault.original_latency
    ));
    let (outcome, replay) = if properties.is_empty() {
        demo.verify_and_replay(workers)?
    } else {
        demo.verify_properties_and_replay(workers, properties)?
    };
    ui.say(&outcome.summary());
    let Some((_, cex)) = outcome.violations().next() else {
        ui.result("expected the injected connection bug to be found — it was not");
        return Ok(ExitCode::from(2));
    };
    ui.say(&cex.render());
    let replay = replay.expect("a violation always carries a replay");
    ui.result(&format!(
        "lockstep co-simulation replay: {} ({})",
        if replay.reproduced {
            "violation reproduced"
        } else {
            "NOT reproduced"
        },
        replay.detail
    ));
    Ok(exit_for(replay.reproduced))
}

/// The endpoint flags shared by the daemon-facing subcommands.
const ENDPOINT_FLAGS: [(&str, bool); 2] = [("--socket", true), ("--tcp", true)];

/// Resolves `--socket PATH` / `--tcp ADDR` into a client endpoint;
/// exactly one of the two is required.
fn endpoint_from_args(args: &[String]) -> Result<Endpoint, CliError> {
    let socket = flag_value(args, "--socket", String::new())?;
    let tcp = flag_value(args, "--tcp", String::new())?;
    match (socket.is_empty(), tcp.is_empty()) {
        (false, true) => Ok(Endpoint::Unix(PathBuf::from(socket))),
        (true, false) => Ok(Endpoint::Tcp(tcp)),
        (true, true) => Err(CliError::Usage(
            "one of --socket or --tcp is required".into(),
        )),
        (false, false) => Err(CliError::Usage(
            "--socket and --tcp are mutually exclusive".into(),
        )),
    }
}

/// Streams one progress update to stderr (same channel as `--progress`,
/// so it never interleaves with the report on stdout).
fn print_progress(ui: Ui, id: u64, update: &ProgressUpdate) {
    if ui.level < 0 {
        return;
    }
    match update {
        ProgressUpdate::Phase { name } => eprintln!("[job {id}] phase {name}"),
        ProgressUpdate::Level {
            phase,
            depth,
            bound,
            states,
            ..
        } => {
            let bound = bound.map_or_else(String::new, |b| format!("/{b}"));
            eprintln!("[job {id}] {phase}: depth {depth}{bound}, {states} states");
        }
    }
}

/// Prints a daemon report. The `--quiet` output is diff-stable across
/// cache-cold and cache-warm runs except for the leading `cache:` line —
/// wall time and other run-variant detail goes through [`Ui::say`] /
/// [`Ui::detail`] only.
fn print_wire_report(ui: Ui, id: u64, report: &WireReport) -> Result<ExitCode, CliError> {
    if let Some(error) = &report.error {
        return Err(CliError::Run(format!("job {id} failed: {error}")));
    }
    ui.result(&format!(
        "cache: {}",
        report.cache.as_deref().unwrap_or("off")
    ));
    ui.say(&format!(
        "hyper-period {} ticks, {} state(s), {} transition(s)",
        report.hyperperiod, report.states, report.transitions
    ));
    ui.detail(&format!("wall time: {} us", report.wall_us));
    for (name, verdict) in &report.verdicts {
        ui.result(&format!("  {name}: {verdict}"));
    }
    ui.result(&format!(
        "passed: {}",
        if report.passed { "yes" } else { "NO" }
    ));
    Ok(exit_for(report.passed))
}

/// Submits the case study to a running daemon and (unless `--detach`)
/// streams progress until the report arrives.
fn submit(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![
        ("--name", true),
        ("--workers", true),
        ("--hyperperiods", true),
        ("--product", false),
        ("--property", true),
        ("--detach", false),
    ];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(ENDPOINT_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let endpoint = endpoint_from_args(args)?;
    // Validate property syntax client-side: a typo is a usage error here,
    // not a daemon-side rejection later.
    parse_properties(args)?;
    let mut options = SessionOptions::quick();
    apply_verification_flags(args, &mut options.verify)?;
    options
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let name = flag_value(args, "--name", "case-study".to_string())?;
    let spec = JobSpec::case_study(name).with_options(options);

    let detach = has_flag(args, "--detach");
    let mut client = endpoint.connect()?;
    let (id, state) = client.submit(&spec, !detach)?;
    ui.say(&format!(
        "submitted job {id} ({}) to {endpoint}",
        state.label()
    ));
    if detach {
        ui.result(&format!("job: {id}"));
        return Ok(ExitCode::SUCCESS);
    }
    let (result_id, report) = client.wait(|id, update| print_progress(ui, id, update))?;
    print_wire_report(ui, result_id, &report)
}

/// Prints the daemon's job table (or one row with `--id`).
fn status(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![("--id", true)];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(ENDPOINT_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let endpoint = endpoint_from_args(args)?;
    let id = match flag_value(args, "--id", 0u64)? {
        0 => None,
        id => Some(id),
    };
    let rows = endpoint.connect()?.status(id)?;
    if rows.is_empty() {
        ui.result("no jobs");
        return Ok(ExitCode::SUCCESS);
    }
    for row in &rows {
        let detail = if row.detail.is_empty() {
            String::new()
        } else {
            format!("  {}", row.detail)
        };
        ui.result(&format!(
            "#{:<4} {:<10} {:<24}{detail}",
            row.id,
            row.state.label(),
            row.name
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// Re-attaches to a job and streams it to completion (a finished job
/// replays its stored report immediately).
fn watch(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![("--id", true)];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(ENDPOINT_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let endpoint = endpoint_from_args(args)?;
    let id = flag_value(args, "--id", 0u64)?;
    if id == 0 {
        return Err(CliError::Usage("watch needs --id N".into()));
    }
    let mut client = endpoint.connect()?;
    client.watch(id)?;
    let (result_id, report) = client.wait(|id, update| print_progress(ui, id, update))?;
    print_wire_report(ui, result_id, &report)
}

/// Asks the daemon to finish running jobs and exit.
fn stop(args: &[String]) -> Result<ExitCode, CliError> {
    let mut allowed = vec![];
    allowed.extend(COMMON_FLAGS);
    allowed.extend(ENDPOINT_FLAGS);
    check_flags(args, &allowed)?;
    let ui = Ui::from_args(args)?;
    let endpoint = endpoint_from_args(args)?;
    endpoint.connect()?.shutdown()?;
    ui.result("daemon stopping");
    Ok(ExitCode::SUCCESS)
}

fn exit_for(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
