//! Fault injection on scheduled timing traces, used to demonstrate (and
//! regression-test) that the verifier finds timing violations and that its
//! counterexamples replay.

use serde::{Deserialize, Serialize};
use signal_moc::expr::Expr;
use signal_moc::process::{Equation, Process};
use signal_moc::trace::Trace;
use signal_moc::value::Value;

use crate::product::PortLink;

/// Description of an injected deadline-overrun fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// Tick where the job originally resumed (completion).
    pub resume_moved_from: usize,
    /// Tick where the delayed resume was re-inserted (one past the
    /// deadline), when it still fits in the trace.
    pub resume_moved_to: Option<usize>,
    /// Tick of the deadline the job now misses.
    pub deadline_tick: usize,
}

/// Injects a deadline-overrun bug into a scheduled timing trace: the
/// completion (`Resume`) of the job guarding the first `Deadline` tick is
/// delayed until after that deadline, as if the job's execution time had
/// overrun its budget. The translated thread's property check
/// (`Alarm := Deadline and not (Resume or prev done)`) must then fire.
///
/// Signal names are prefixed with `prefix` (empty for a stand-alone thread
/// trace). Returns `None` when the trace contains no deadline tick or no
/// resume tick at or before it (nothing to inject).
pub fn inject_deadline_overrun(trace: &mut Trace, prefix: &str) -> Option<InjectedFault> {
    let resume = format!("{prefix}Resume");
    let deadline = format!("{prefix}Deadline");
    let is_true = |trace: &Trace, t: usize, signal: &str| {
        trace.value(t, signal).map(|v| v.as_bool()).unwrap_or(false)
    };
    let deadline_tick = (0..trace.len()).find(|&t| is_true(trace, t, &deadline))?;
    let resume_tick = (0..=deadline_tick)
        .rev()
        .find(|&t| is_true(trace, t, &resume))?;
    trace.set(resume_tick, resume.clone(), Value::Bool(false));
    let moved_to = deadline_tick + 1;
    let resume_moved_to = if moved_to < trace.len() {
        trace.set(moved_to, resume, Value::Bool(true));
        Some(moved_to)
    } else {
        None
    };
    Some(InjectedFault {
        resume_moved_from: resume_tick,
        resume_moved_to,
        deadline_tick,
    })
}

/// Description of an injected connection-latency fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedLinkFault {
    /// Name of the tampered link.
    pub link: String,
    /// Latency of the link before the fault, in ticks.
    pub original_latency: usize,
    /// Ticks of extra transmission latency added by the fault.
    pub added_latency: usize,
}

/// Injects a connection-latency bug into a product's links: every event
/// sent over the link named `link` is delayed by `added_latency` extra
/// ticks, as if the connection's transmission overran its budget. With a
/// delay larger than the gap to the receiver's next Input Time, the event
/// misses its freeze and is only consumed a full receiver period later —
/// visible to a cross-thread [`crate::Property::EndToEndResponse`] over the
/// product, invisible to per-thread verification (which never sees the
/// connection at all).
///
/// Returns `None` (leaving the links untouched) when no link has that name
/// or `added_latency` is 0.
pub fn inject_connection_latency(
    links: &mut [PortLink],
    link: &str,
    added_latency: usize,
) -> Option<InjectedLinkFault> {
    if added_latency == 0 {
        return None;
    }
    let tampered = links.iter_mut().find(|l| l.name == link)?;
    let original_latency = tampered.latency;
    tampered.latency += added_latency;
    Some(InjectedLinkFault {
        link: tampered.name.clone(),
        original_latency,
        added_latency,
    })
}

/// Description of an injected dropped-delivery fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedDropFault {
    /// Name of the tampered link.
    pub link: String,
    /// Latency of the link before the fault, in ticks.
    pub original_latency: usize,
    /// The horizon beyond which the link's deliveries were pushed.
    pub horizon: usize,
}

/// Injects a dropped-delivery bug into a product's links: the link named
/// `link` silently loses every event — modelled by pushing its latency
/// past `horizon`, so within the verified window no delivery ever lands
/// (the product drops deliveries scheduled beyond the horizon). A
/// cross-thread [`crate::Property::EndToEndResponse`] whose response never
/// arrives must then expire.
///
/// Returns `None` (leaving the links untouched) when no link has that
/// name or `horizon` is 0.
pub fn inject_dropped_delivery(
    links: &mut [PortLink],
    link: &str,
    horizon: usize,
) -> Option<InjectedDropFault> {
    if horizon == 0 {
        return None;
    }
    let tampered = links.iter_mut().find(|l| l.name == link)?;
    let original_latency = tampered.latency;
    tampered.latency = horizon + 1;
    Some(InjectedDropFault {
        link: tampered.name.clone(),
        original_latency,
        horizon,
    })
}

/// Description of an injected dispatch-jitter fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedJitterFault {
    /// Ticks every dispatch was delayed by.
    pub jitter: usize,
    /// Number of dispatch events that were moved.
    pub moved: usize,
}

/// Injects dispatch jitter into a scheduled timing trace: every `Dispatch`
/// event is delayed by `jitter` ticks, as if the dispatcher fired late,
/// while `Resume` and `Deadline` stay on the nominal grid. Dispatches
/// jittered past the end of the trace are lost. The resulting trace is no
/// longer the one the scheduler promised, so the dispatch-feasibility
/// oracle, the deadline monitor or a user property may fire — whatever the
/// verifier concludes must still replay.
///
/// Signal names are prefixed with `prefix` (empty for a stand-alone thread
/// trace). Returns `None` when `jitter` is 0 or the trace contains no
/// dispatch event to move.
pub fn inject_dispatch_jitter(
    trace: &mut Trace,
    prefix: &str,
    jitter: usize,
) -> Option<InjectedJitterFault> {
    if jitter == 0 {
        return None;
    }
    let dispatch = format!("{prefix}Dispatch");
    let ticks: Vec<usize> = (0..trace.len())
        .filter(|&t| {
            trace
                .value(t, &dispatch)
                .map(|v| v.as_bool())
                .unwrap_or(false)
        })
        .collect();
    if ticks.is_empty() {
        return None;
    }
    for &t in &ticks {
        trace.set(t, dispatch.clone(), Value::Bool(false));
    }
    let mut moved = 0;
    for &t in &ticks {
        let late = t + jitter;
        if late < trace.len() {
            trace.set(late, dispatch.clone(), Value::Bool(true));
            moved += 1;
        }
    }
    Some(InjectedJitterFault { jitter, moved })
}

/// Description of an injected schedule-corruption fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedCorruptionFault {
    /// Seed of the deterministic flip stream.
    pub seed: u64,
    /// Number of boolean trace cells that were flipped.
    pub flipped: usize,
}

/// Injects seeded corruption into a scheduled timing trace: `flips`
/// pseudo-random boolean cells (tick × signal, drawn from a splitmix64
/// stream over `seed`) are inverted, as if the stored schedule had been
/// damaged. The corruption is deterministic — the same seed flips the
/// same cells — so a finding shrinks and replays. Whatever the verifier
/// concludes on the corrupted trace must agree with the reference
/// semantics and must replay.
///
/// Returns `None` when the trace is empty, has no boolean cells, or
/// `flips` is 0.
pub fn inject_schedule_corruption(
    trace: &mut Trace,
    seed: u64,
    flips: usize,
) -> Option<InjectedCorruptionFault> {
    if flips == 0 || trace.is_empty() {
        return None;
    }
    let signals = trace.signals();
    if signals.is_empty() {
        return None;
    }
    let mut stream = seed;
    let mut next = move || {
        stream = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = stream;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut flipped = 0;
    // Bounded draw budget so a trace with no boolean cells terminates.
    for _ in 0..flips.saturating_mul(8) {
        if flipped == flips {
            break;
        }
        let t = (next() % trace.len() as u64) as usize;
        let signal = signals[(next() % signals.len() as u64) as usize].clone();
        if let Some(Value::Bool(b)) = trace.value(t, &signal).cloned() {
            trace.set(t, signal, Value::Bool(!b));
            flipped += 1;
        }
    }
    if flipped == 0 {
        return None;
    }
    Some(InjectedCorruptionFault { seed, flipped })
}

/// Description of an injected counter-drift fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectedDriftFault {
    /// Signal whose defining equation owns the drifted memory.
    pub signal: String,
    /// Original initial value of the memory.
    pub original: i64,
    /// Initial value after the drift.
    pub drifted: i64,
}

/// Injects counter drift into a process definition: one integer-initialised
/// memory (a `$ init` delay or a `cell … init`) is picked pseudo-randomly
/// from `seed` and its initial value shifted by `drift`, as if persisted
/// counter state had decayed between runs. The pick is deterministic — the
/// same seed drifts the same memory — so a finding shrinks and replays.
/// The sliced and unsliced explorations must agree on the drifted
/// process: the slice may drop the drifted slot, but never at the cost of
/// a verdict a property that *reads* the slot would have produced
/// unsliced.
///
/// Returns `None` when `drift` is 0 or the process has no
/// integer-initialised memory (nothing to inject).
pub fn inject_counter_drift(
    process: &mut Process,
    seed: u64,
    drift: i64,
) -> Option<InjectedDriftFault> {
    if drift == 0 {
        return None;
    }
    fn visit(expr: &mut Expr, f: &mut impl FnMut(&mut Value)) {
        match expr {
            Expr::Var(_) | Expr::Const(_) => {}
            Expr::Unary(_, e) | Expr::ClockOf(e) | Expr::ClockWhen(e) => visit(e, f),
            Expr::Binary(_, a, b) | Expr::When(a, b) | Expr::Default(a, b) => {
                visit(a, f);
                visit(b, f);
            }
            Expr::Delay(e, init) => {
                visit(e, f);
                f(init);
            }
            Expr::Cell(input, clock, init) => {
                visit(input, f);
                visit(clock, f);
                f(init);
            }
        }
    }
    let mut total = 0usize;
    for equation in &mut process.equations {
        if let Equation::Definition { expr, .. } | Equation::PartialDefinition { expr, .. } =
            equation
        {
            visit(expr, &mut |init| {
                if matches!(init, Value::Int(_)) {
                    total += 1;
                }
            });
        }
    }
    if total == 0 {
        return None;
    }
    let picked = (seed % total as u64) as usize;
    let mut index = 0usize;
    let mut fault = None;
    for equation in &mut process.equations {
        if let Equation::Definition { target, expr }
        | Equation::PartialDefinition { target, expr } = equation
        {
            visit(expr, &mut |init| {
                if let Value::Int(original) = *init {
                    if index == picked {
                        *init = Value::Int(original + drift);
                        fault = Some(InjectedDriftFault {
                            signal: target.clone(),
                            original,
                            drifted: original + drift,
                        });
                    }
                    index += 1;
                }
            });
        }
    }
    fault
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing_trace(prefix: &str) -> Trace {
        // Dispatch at 0, Resume at 1, Deadline at 4, over 6 ticks.
        let mut trace = Trace::new();
        for t in 0..6usize {
            trace.set(t, format!("{prefix}Dispatch"), Value::Bool(t == 0));
            trace.set(t, format!("{prefix}Resume"), Value::Bool(t == 1));
            trace.set(t, format!("{prefix}Deadline"), Value::Bool(t == 4));
        }
        trace
    }

    #[test]
    fn overrun_moves_resume_past_the_deadline() {
        let mut trace = timing_trace("");
        let fault = inject_deadline_overrun(&mut trace, "").unwrap();
        assert_eq!(fault.resume_moved_from, 1);
        assert_eq!(fault.deadline_tick, 4);
        assert_eq!(fault.resume_moved_to, Some(5));
        assert_eq!(trace.value(1, "Resume"), Some(&Value::Bool(false)));
        assert_eq!(trace.value(5, "Resume"), Some(&Value::Bool(true)));
    }

    #[test]
    fn prefixed_signals_are_honoured() {
        let mut trace = timing_trace("th_");
        let fault = inject_deadline_overrun(&mut trace, "th_").unwrap();
        assert_eq!(fault.resume_moved_from, 1);
        assert_eq!(trace.value(1, "th_Resume"), Some(&Value::Bool(false)));
    }

    #[test]
    fn traces_without_deadline_are_left_alone() {
        let mut trace = Trace::new();
        trace.set(0, "Resume", Value::Bool(true));
        let before = trace.clone();
        assert_eq!(inject_deadline_overrun(&mut trace, ""), None);
        assert_eq!(trace, before);
    }

    #[test]
    fn connection_latency_fault_adds_to_the_named_link() {
        let mut links = vec![
            PortLink::event("c1", "tx", "out", "rx", "in").with_latency(1),
            PortLink::event("c2", "tx", "out2", "rx", "in2"),
        ];
        let fault = inject_connection_latency(&mut links, "c1", 8).unwrap();
        assert_eq!(fault.link, "c1");
        assert_eq!(fault.original_latency, 1);
        assert_eq!(fault.added_latency, 8);
        assert_eq!(links[0].latency, 9);
        assert_eq!(links[1].latency, 0, "other links untouched");
    }

    #[test]
    fn connection_latency_fault_requires_a_known_link_and_a_real_delay() {
        let mut links = vec![PortLink::event("c1", "tx", "out", "rx", "in")];
        assert_eq!(inject_connection_latency(&mut links, "ghost", 8), None);
        assert_eq!(inject_connection_latency(&mut links, "c1", 0), None);
        assert_eq!(links[0].latency, 0);
    }

    #[test]
    fn dropped_delivery_pushes_the_link_past_the_horizon() {
        let mut links = vec![PortLink::event("c1", "tx", "out", "rx", "in").with_latency(1)];
        let fault = inject_dropped_delivery(&mut links, "c1", 24).unwrap();
        assert_eq!(fault.original_latency, 1);
        assert_eq!(fault.horizon, 24);
        assert_eq!(links[0].latency, 25, "no delivery can land in the window");
        assert_eq!(inject_dropped_delivery(&mut links, "ghost", 24), None);
        assert_eq!(inject_dropped_delivery(&mut links, "c1", 0), None);
    }

    #[test]
    fn dispatch_jitter_moves_every_dispatch_and_loses_late_ones() {
        let mut trace = Trace::new();
        for t in 0..6usize {
            trace.set(t, "Dispatch", Value::Bool(t == 0 || t == 4));
            trace.set(t, "Resume", Value::Bool(t == 1));
        }
        let fault = inject_dispatch_jitter(&mut trace, "", 3).unwrap();
        assert_eq!(fault.jitter, 3);
        assert_eq!(fault.moved, 1, "the tick-4 dispatch jitters off the end");
        assert_eq!(trace.value(0, "Dispatch"), Some(&Value::Bool(false)));
        assert_eq!(trace.value(3, "Dispatch"), Some(&Value::Bool(true)));
        assert_eq!(trace.value(4, "Dispatch"), Some(&Value::Bool(false)));
        assert_eq!(
            trace.value(1, "Resume"),
            Some(&Value::Bool(true)),
            "only dispatches move"
        );
        assert_eq!(inject_dispatch_jitter(&mut trace, "", 0), None);
    }

    #[test]
    fn counter_drift_shifts_one_seeded_memory_init() {
        use signal_moc::builder::ProcessBuilder;
        use signal_moc::value::ValueType;

        fn counters() -> Process {
            let mut b = ProcessBuilder::new("drifty");
            b.input("d", ValueType::Boolean);
            b.local("a", ValueType::Integer);
            b.local("t", ValueType::Integer);
            b.define(
                "a",
                Expr::add(Expr::delay(Expr::var("a"), Value::Int(0)), Expr::int(1)),
            );
            b.define(
                "t",
                Expr::add(Expr::delay(Expr::var("t"), Value::Int(3)), Expr::int(1)),
            );
            b.synchronize(&["d", "a", "t"]);
            b.build().unwrap()
        }
        let mut first = counters();
        let fault = inject_counter_drift(&mut first, 0, 2).unwrap();
        assert_eq!(fault.signal, "a");
        assert_eq!(fault.original, 0);
        assert_eq!(fault.drifted, 2);
        assert_ne!(first, counters(), "the init really changed");
        let mut again = counters();
        assert_eq!(inject_counter_drift(&mut again, 0, 2), Some(fault));
        assert_eq!(first, again, "the same seed drifts the same memory");
        let mut second = counters();
        let other = inject_counter_drift(&mut second, 1, 2).unwrap();
        assert_eq!(other.signal, "t");
        assert_eq!(other.original, 3);
        assert_eq!(other.drifted, 5);
    }

    #[test]
    fn counter_drift_needs_a_real_drift_and_an_integer_memory() {
        use signal_moc::builder::ProcessBuilder;
        use signal_moc::value::ValueType;

        let mut b = ProcessBuilder::new("memoryless");
        b.input("d", ValueType::Boolean);
        b.output("echo", ValueType::Boolean);
        b.define("echo", Expr::delay(Expr::var("d"), Value::Bool(false)));
        b.synchronize(&["d", "echo"]);
        let mut process = b.build().unwrap();
        let before = process.clone();
        assert_eq!(inject_counter_drift(&mut process, 7, 0), None);
        assert_eq!(
            inject_counter_drift(&mut process, 7, 2),
            None,
            "boolean memories are not counters"
        );
        assert_eq!(process, before);
    }

    #[test]
    fn schedule_corruption_is_seeded_and_deterministic() {
        let reference = timing_trace("");
        let mut once = reference.clone();
        let mut twice = reference.clone();
        let fault = inject_schedule_corruption(&mut once, 42, 3).unwrap();
        assert_eq!(fault.flipped, 3);
        assert_ne!(once, reference, "cells were flipped");
        inject_schedule_corruption(&mut twice, 42, 3).unwrap();
        assert_eq!(once, twice, "the same seed flips the same cells");
        let mut other = reference.clone();
        inject_schedule_corruption(&mut other, 43, 3).unwrap();
        assert_ne!(once, other, "a different seed flips different cells");
        assert_eq!(inject_schedule_corruption(&mut once, 42, 0), None);
        assert_eq!(inject_schedule_corruption(&mut Trace::new(), 42, 3), None);
    }
}
