//! `polychronyd` — the verification-as-a-service daemon.
//!
//! ```text
//! polychronyd (--socket PATH | --tcp ADDR)
//!             [--workers N] [--cache-capacity N]
//!             [--log PATH] [--trace-out PATH]
//! ```
//!
//! Exactly one of `--socket` (unix socket) or `--tcp` (host:port) selects
//! the listening endpoint. `--log` enables the replayable job log,
//! `--trace-out` streams the daemon's telemetry (cache counters, queue
//! gauges, per-job spans) as `polychrony-trace-v1` JSON lines.
//!
//! Exit codes: 0 after a clean shutdown, 1 for a usage error, 2 for a
//! runtime failure (bind error, unwritable log, ...).

use std::path::PathBuf;
use std::process::ExitCode;

use polychrony_core::{Collector, JsonLinesSink};
use polychrony_server::{Daemon, DaemonConfig};

const USAGE: &str = "usage: polychronyd (--socket PATH | --tcp ADDR) \
                     [--workers N] [--cache-capacity N] [--log PATH] [--trace-out PATH]";

enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

struct Args {
    endpoint: Endpoint,
    workers: usize,
    cache_capacity: usize,
    log_path: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut endpoint = None;
    let mut workers = 2usize;
    let mut cache_capacity = 64usize;
    let mut log_path = None;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--socket" => {
                let path = value("--socket")?;
                set_endpoint(&mut endpoint, Endpoint::Unix(PathBuf::from(path)))?;
            }
            "--tcp" => {
                let addr = value("--tcp")?;
                set_endpoint(&mut endpoint, Endpoint::Tcp(addr))?;
            }
            "--workers" => {
                workers = parse_count(&value("--workers")?, "--workers")?;
            }
            "--cache-capacity" => {
                cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs a non-negative integer".to_string())?;
            }
            "--log" => log_path = Some(PathBuf::from(value("--log")?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let Some(endpoint) = endpoint else {
        return Err(format!("one of --socket or --tcp is required\n{USAGE}"));
    };
    Ok(Args {
        endpoint,
        workers,
        cache_capacity,
        log_path,
        trace_out,
    })
}

fn set_endpoint(slot: &mut Option<Endpoint>, endpoint: Endpoint) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!(
            "--socket and --tcp are mutually exclusive\n{USAGE}"
        ));
    }
    *slot = Some(endpoint);
    Ok(())
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    match text.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(1);
        }
    };

    let collector = match &args.trace_out {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!(
                        "polychronyd: cannot create trace file {}: {e}",
                        path.display()
                    );
                    return ExitCode::from(1);
                }
            };
            let collector = Collector::full();
            collector.add_sink(Box::new(JsonLinesSink::new(Box::new(file))));
            collector
        }
        None => Collector::counters(),
    };

    let daemon = match Daemon::new(DaemonConfig {
        workers: args.workers,
        cache_capacity: args.cache_capacity,
        log_path: args.log_path.clone(),
        collector: collector.clone(),
    }) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("polychronyd: {e}");
            return ExitCode::from(2);
        }
    };

    let served = match &args.endpoint {
        Endpoint::Unix(path) => {
            println!("polychronyd listening on unix:{}", path.display());
            daemon.serve_unix(path)
        }
        Endpoint::Tcp(addr) => {
            println!("polychronyd listening on tcp:{addr}");
            daemon.serve_tcp(addr)
        }
    };
    daemon.join();
    collector.flush();
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("polychronyd: {e}");
            ExitCode::from(2)
        }
    }
}
