//! The layer probe of a traced run: the workload's own models pushed
//! through the layers' public entry points once more, each call timed on
//! its own. It yields the per-layer numbers the closed loop cannot see from
//! outside (the evaluator step inside `verify`, the pipeline phases inside
//! the daemon, the wire codec) on the inputs of the workload being
//! measured.

use std::time::Instant;

use polychrony_core::polyverify::state::{KeyCodec, StateInterner};
use polychrony_core::polyverify::{
    ExplorationStats, LtlMonitor, Property, State, Verdict, Verifier, VerifyOptions,
};
use polychrony_core::signal_moc::eval::Evaluator;
use polychrony_core::signal_moc::value::Value;
use polychrony_core::{Session, SessionOptions, Simulated, VerificationScope};
use polywire::{read_frame, write_frame, Frame, JobSpec, WireReport};

use crate::chain;
use crate::measure::{median, ratio, Samples};
use crate::service::{roundtrip_ms, submit_and_wait, Service};
use crate::trace::Tracer;

/// One model of the workload, with the link a tampered run delays.
pub struct ProbeModel {
    pub source: String,
    pub root: String,
    pub options: SessionOptions,
    /// `(link, added latency)` for a tampered product run, if any.
    pub tamper: Option<(String, usize)>,
}

/// Work counts of one thread-level exploration (`verify.per_thread` or
/// `verify.free`).
pub fn record_thread_stats(samples: &mut Samples, stats: &ExplorationStats) {
    samples.push("verify.states", stats.states as f64);
    samples.push("verify.transitions", stats.transitions as f64);
    samples.push("verify.infeasible", stats.infeasible as f64);
    samples.push("verify.peak_frontier", stats.peak_frontier as f64);
    samples.push(
        "verify.evaluated",
        (stats.transitions + stats.infeasible) as f64,
    );
}

/// Work counts of one product exploration.
pub fn record_product_stats(samples: &mut Samples, stats: &ExplorationStats) {
    samples.push("product.states", stats.states as f64);
    samples.push("product.transitions", stats.transitions as f64);
    samples.push("product.memo_hits", stats.memo_hits as f64);
    samples.push("product.memo_misses", stats.memo_misses as f64);
    samples.push("verify.evaluated", stats.memo_misses as f64);
}

/// Counterexample depth: the instants from the initial state through the
/// violating one.
pub fn record_cex_depth(samples: &mut Samples, verdict: &Verdict) {
    if let Verdict::Violated(cex) = verdict {
        samples.push("verify.cex_depth", (cex.violation_instant + 1) as f64);
    }
}

/// The whole chain on one model, every call timed: the phases, the healthy
/// product and per-thread verification and, for a tampered model, the
/// tampered product and its counterexample replay.
pub fn pipeline(model: &ProbeModel, samples: &mut Samples) -> Result<Simulated, String> {
    let mut options = model.options.clone();
    options.verify.scope = VerificationScope::PerThread;
    let session = Session::with_options(options).map_err(|e| e.to_string())?;
    let chained =
        chain::run(&session, &model.source, &model.root, samples).map_err(|e| e.to_string())?;
    chained.record(samples);
    let healthy = chain::verify_healthy(chained.simulated, samples).map_err(|e| e.to_string())?;
    healthy.record(samples);
    let simulated = healthy.verified.simulated;
    if let Some((link, added)) = &model.tamper {
        let tampered = chain::tampered_product(&simulated, link, *added, samples)?;
        record_product_stats(samples, &tampered.outcome.stats);
        for v in &tampered.outcome.verdicts {
            record_cex_depth(samples, &v.verdict);
        }
    }
    Ok(simulated)
}

/// Rounds of each micro-measurement; enough steps that timer resolution
/// does not matter.
const ROUNDS: usize = 20;
/// Monitor steps per resolved instant in the monitor measurement.
const MONITOR_REPEATS: usize = 16;

/// Evaluator, monitor, key-codec, interner and candidate-enumeration
/// timings over every thread unit of `simulated`, driven by the unit's own
/// scheduled trace.
pub fn engine(simulated: &Simulated, samples: &mut Samples) -> Result<(), String> {
    let monitors: Vec<LtlMonitor> = [
        Property::NeverRaised("*Alarm*".into()),
        Property::parse_ltl("always (Dispatch implies not Alarm)").map_err(|e| e.to_string())?,
    ]
    .iter()
    .filter_map(Property::monitor)
    .collect();
    for unit in &simulated.thread_units {
        let trace = unit.model.timing_trace(&simulated.schedule, 4);
        let steps: Vec<_> = trace.iter().cloned().collect();
        let mut evaluator = Evaluator::new(&unit.model.flat).map_err(|e| e.to_string())?;

        // Evaluator step over the trace, and the memories it passes through.
        let mut memories: Vec<Vec<Value>> = Vec::with_capacity(steps.len());
        let mut eval_time = 0.0;
        for round in 0..ROUNDS {
            evaluator.reset();
            let started = Instant::now();
            for (t, step) in steps.iter().enumerate() {
                std::hint::black_box(
                    evaluator
                        .step_resolved(t, step)
                        .map_err(|e| e.to_string())?,
                );
                if round == 0 {
                    memories.push(evaluator.memory());
                }
            }
            if round > 0 {
                eval_time += started.elapsed().as_secs_f64();
            }
        }
        samples.push(
            "eval.step_us",
            eval_time * 1e6 / ((ROUNDS - 1) * steps.len()).max(1) as f64,
        );

        // Monitor steps over the same resolved instants.
        evaluator.reset();
        let mut registers: Vec<Vec<u32>> = monitors.iter().map(LtlMonitor::initial).collect();
        let mut monitor_time = 0.0;
        let mut monitor_steps = 0usize;
        for (t, step) in steps.iter().enumerate() {
            let view = evaluator
                .step_resolved(t, step)
                .map_err(|e| e.to_string())?;
            for (monitor, regs) in monitors.iter().zip(registers.iter_mut()) {
                let saved = regs.clone();
                let started = Instant::now();
                for _ in 0..MONITOR_REPEATS {
                    regs.copy_from_slice(&saved);
                    std::hint::black_box(monitor.step(regs, &view));
                }
                monitor_time += started.elapsed().as_secs_f64();
                monitor_steps += MONITOR_REPEATS;
            }
        }
        samples.push(
            "monitor.step_ns",
            monitor_time * 1e9 / monitor_steps.max(1) as f64,
        );

        // Key encoding of each successor against its parent, then interning.
        let states: Vec<State> = memories
            .into_iter()
            .enumerate()
            .map(|(t, memory)| State {
                memory,
                phase: (t % trace.len().max(1)) as u32,
                monitors: Vec::new(),
            })
            .collect();
        let mut codec = KeyCodec::new();
        let mut keys: Vec<(u64, Vec<u8>)> = Vec::with_capacity(states.len());
        let mut encode_time = 0.0;
        for pair in states.windows(2) {
            codec.seed_state(&pair[0]);
            let started = Instant::now();
            for _ in 0..MONITOR_REPEATS {
                std::hint::black_box(codec.successor(&pair[1].memory, pair[1].phase, &[]));
            }
            encode_time += started.elapsed().as_secs_f64();
            let (hash, key) = codec.successor(&pair[1].memory, pair[1].phase, &[]);
            keys.push((hash, key.to_vec()));
        }
        samples.push(
            "state.encode_ns",
            encode_time * 1e9 / (keys.len() * MONITOR_REPEATS).max(1) as f64,
        );
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let interner: StateInterner<u32> = StateInterner::new(4, 64);
            for (i, (hash, key)) in keys.iter().enumerate() {
                std::hint::black_box(interner.intern(*hash, key, || i as u32));
            }
        }
        samples.push(
            "state.intern_ns",
            started.elapsed().as_secs_f64() * 1e9 / (keys.len() * ROUNDS).max(1) as f64,
        );

        let verifier =
            Verifier::new(&unit.model.flat, VerifyOptions::default()).map_err(|e| e.to_string())?;
        let (candidates, _) = verifier.free_candidates().map_err(|e| e.to_string())?;
        samples.push("verify.candidates", candidates.len() as f64);
    }
    Ok(())
}

/// Frame encode/decode cost of the workload's submissions and results,
/// and the bytes one job puts on the wire (its submit frame plus its result
/// frame).
pub fn wire(
    specs: &[JobSpec],
    reports: &[WireReport],
    samples: &mut Samples,
) -> Result<(), String> {
    let submits: Vec<Frame> = specs
        .iter()
        .map(|spec| Frame::Submit {
            spec: spec.clone(),
            watch: true,
        })
        .collect();
    let results: Vec<Frame> = reports
        .iter()
        .enumerate()
        .map(|(id, report)| Frame::Result {
            id: id as u64,
            report: report.clone(),
        })
        .collect();
    let mut bytes_per_job = 0.0;
    for frames in [&submits, &results] {
        let mut bytes = 0usize;
        for frame in frames {
            let mut buffer = Vec::new();
            let started = Instant::now();
            for _ in 0..ROUNDS {
                buffer.clear();
                write_frame(&mut buffer, frame).map_err(|e| e.to_string())?;
            }
            samples.push(
                "wire.encode_us",
                started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
            );
            bytes += buffer.len();
            let started = Instant::now();
            for _ in 0..ROUNDS {
                let decoded = read_frame(&mut buffer.as_slice()).map_err(|e| e.to_string())?;
                if decoded.as_ref() != Some(frame) {
                    return Err(format!("a {} frame did not survive the wire", frame.kind()));
                }
            }
            samples.push(
                "wire.decode_us",
                started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64,
            );
        }
        bytes_per_job += ratio(bytes as f64, frames.len() as f64);
    }
    samples.push("wire.bytes_per_job", bytes_per_job);
    Ok(())
}

/// Records the server-side split of one client latency.
pub fn record_service_job(samples: &mut Samples, report: &WireReport, latency_ms: f64) {
    samples.push("server.worker", report.wall_us as f64 / 1e3);
    samples.push("client.latency", latency_ms);
    let label = report.cache.as_deref().unwrap_or("none");
    samples.push(&format!("cache.{label}"), 1.0);
    samples.push("cache.lookups", 1.0);
}

/// Derives the queue wait of every recorded service job: client latency
/// minus worker time minus the median status round trip.
pub fn derive_queue_wait(samples: &mut Samples) {
    let roundtrip = median(samples.get("client.roundtrip"));
    let waits: Vec<f64> = samples
        .get("client.latency")
        .iter()
        .zip(samples.get("server.worker"))
        .map(|(latency, worker)| (latency - worker - roundtrip).max(0.0))
        .collect();
    for wait in waits {
        samples.push("server.queue_wait", wait);
    }
}

/// The service layers for a workload that does not run through the daemon
/// itself: every model submitted cold, then warm, through a private daemon
/// and one client.
pub fn service(specs: &[JobSpec], samples: &mut Samples) -> Result<Vec<WireReport>, String> {
    let service = Service::start(2)?;
    let mut client = service.connect()?;
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let mut reports = Vec::new();
    for spec in specs {
        for _ in 0..2 {
            let (report, latency) = submit_and_wait(&mut client, spec, &mut tracer)?;
            record_service_job(samples, &report, latency.as_secs_f64() * 1e3);
            reports.push(report);
        }
    }
    for rt in roundtrip_ms(&mut client, 1, 50)? {
        samples.push("client.roundtrip", rt);
    }
    drop(client);
    service.stop();
    Ok(reports)
}
