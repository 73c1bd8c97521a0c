//! The staged `Session` chain every job, probe and reference runs (parse →
//! instantiate → schedule → translate → analyze → simulate), the healthy
//! verification that follows it, and the tampered product with its
//! counterexample replay. Each public call is made once here, timed by the
//! caller's [`Timer`]: spans for a loop, samples for a probe, nothing for a
//! reference.

use std::collections::BTreeMap;
use std::time::Instant;

use polychrony_core::polyverify::inject_connection_latency;
use polychrony_core::{CoreError, Session, Simulated, Translated, Verified, VerifiedProduct};

use crate::measure::Samples;
use crate::trace::Tracer;

/// Times the public call `name`.
pub trait Timer {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Times nothing: the chain of a set-up or a reference.
pub struct Untimed;

impl Timer for Untimed {
    fn time<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// A span per call.
impl Timer for Tracer {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        Tracer::time(self, name, f)
    }
}

/// A sample per call: its wall time in ms under `name`.
impl Timer for Samples {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.push(name, started.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// Parse → instantiate → schedule → translate.
pub fn translate(
    session: &Session,
    source: &str,
    root: &str,
    timer: &mut impl Timer,
) -> Result<Translated, CoreError> {
    let parsed = timer.time("aadl.parse", || session.parse(source))?;
    let instantiated = timer.time("aadl.instantiate", || parsed.instantiate(root))?;
    let scheduled = timer.time("sched.schedule", || instantiated.schedule())?;
    timer.time("translate.translate", || scheduled.translate())
}

/// The simulated artifact of a chain, with the work counts of its phases.
pub struct Chain {
    pub simulated: Simulated,
    pub equations: u64,
    pub clocks: u64,
    /// Simulated instants, summed over the threads.
    pub instants: u64,
}

impl Chain {
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::from([
            ("equations", self.equations),
            ("clocks", self.clocks),
            ("instants", self.instants),
        ])
    }

    pub fn record(&self, samples: &mut Samples) {
        samples.push("translate.equations", self.equations as f64);
        samples.push("signal.clocks", self.clocks as f64);
        samples.push("sim.instants", self.instants as f64);
    }
}

/// The whole chain, parse through simulate.
pub fn run(
    session: &Session,
    source: &str,
    root: &str,
    timer: &mut impl Timer,
) -> Result<Chain, CoreError> {
    let translated = translate(session, source, root, timer)?;
    let equations = translated.system.model.total_equations() as u64;
    let analyzed = timer.time("signal.analyze", || translated.analyze())?;
    let clocks = analyzed.static_analysis.clock_count as u64;
    let simulated = timer.time("sim.simulate", || analyzed.simulate())?;
    let instants = simulated
        .simulations
        .values()
        .map(|r| r.instants as u64)
        .sum();
    Ok(Chain {
        simulated,
        equations,
        clocks,
        instants,
    })
}

/// The verification of an untampered system: its product, when it is wired,
/// then every thread on its own (the session's scope must be per-thread, so
/// that the product runs once, in its own call).
pub struct Healthy {
    pub product: Option<VerifiedProduct>,
    pub verified: Verified,
}

impl Healthy {
    pub fn violation_free(&self) -> bool {
        self.product
            .as_ref()
            .is_none_or(|p| p.outcome.is_violation_free())
            && self
                .verified
                .verification
                .as_ref()
                .is_some_and(|r| r.is_violation_free())
    }

    pub fn record(&self, samples: &mut Samples) {
        if let Some(product) = &self.product {
            crate::probe::record_product_stats(samples, &product.outcome.stats);
        }
        if let Some(report) = &self.verified.verification {
            for outcome in report.outcomes.values() {
                crate::probe::record_thread_stats(samples, &outcome.stats);
            }
        }
    }
}

pub fn verify_healthy(simulated: Simulated, timer: &mut impl Timer) -> Result<Healthy, CoreError> {
    let product = if simulated.connections.is_empty() {
        None
    } else {
        Some(timer.time("product.verify", || simulated.verify_product())?)
    };
    let verified = timer.time("verify.per_thread", || simulated.verify())?;
    Ok(Healthy { product, verified })
}

/// The product of `simulated` with `link` delayed by `added` ticks. Its
/// first counterexample, if any, must replay in the lockstep
/// co-simulation (`ProductVerifier::replay`).
pub fn tampered_product(
    simulated: &Simulated,
    link: &str,
    added: usize,
    timer: &mut impl Timer,
) -> Result<VerifiedProduct, String> {
    let mut links = simulated.product_links();
    inject_connection_latency(&mut links, link, added)
        .ok_or_else(|| format!("the system has no {link} link"))?;
    let product = timer
        .time("product.verify", || {
            simulated.verify_product_with_links(links)
        })
        .map_err(|e| e.to_string())?;
    if let Some((_, cex)) = product.outcome.violations().next() {
        let replay = timer
            .time("product.replay", || product.verifier.replay(cex))
            .map_err(|e| e.to_string())?;
        if !replay.reproduced {
            return Err(format!(
                "the tampered counterexample did not replay in lockstep: {}",
                replay.detail
            ));
        }
    }
    Ok(product)
}
