//! `service_sweep`: seeded generated systems submitted to an in-process
//! daemon (`serve_unix`, two workers) by two clients, each on its own
//! connection, each submitting and waiting. Every system is submitted under
//! four verification variants (1 or 2 verified hyper-periods, with or
//! without a user property); the first runs the whole pipeline cold and the
//! other three hit the simulated-artifact cache.
//!
//! The user property is the witness query `never raised(*Dispatch*)`: it
//! must be violated at each thread's first dispatch (and at the first
//! dispatch of the product), which the reference confirms from an
//! independent simulation. The built-in properties must hold; a `proved`
//! one only if the reference sees no violation over four times the longest
//! verified window.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use polychrony_client::Client;
use polychrony_core::polyverify::Property;
use polychrony_core::{PropertySpec, Session};
use polyvopr::gen::SystemSpec;
use polywire::{JobSpec, WireReport};

use crate::chain::{self, Untimed};
use crate::inputs::sweep_system;
use crate::measure::{process_cpu_s, Counts, Samples};
use crate::probe::{self, ProbeModel};
use crate::reference::{
    first_violation_of, lockstep, rendered_verdicts, simulate, witness, Rendered, WITNESS,
};
use crate::service::{roundtrip_ms, submit_and_wait, Service};
use crate::trace::Tracer;
use crate::{LoopOutcome, Workload};

const CLIENTS: u64 = 2;
const DAEMON_WORKERS: usize = 2;
const PRODUCT_KEY: &str = "(product)";
/// Systems whose counts are printed and compared between runs: every run
/// completes at least these.
const COUNTED_SYSTEMS: u64 = 4;
/// Systems the layer probe runs through the pipeline locally.
const PROBED_SYSTEMS: u64 = 4;

/// The four variants of a system: `(verified hyper-periods, witness)`.
const VARIANTS: [(u64, bool); 4] = [(1, false), (2, false), (1, true), (2, true)];

fn job_spec(index: u64, spec: &SystemSpec, variant: (u64, bool)) -> JobSpec {
    let mut options = spec.session_options();
    options.verify.hyperperiods = variant.0;
    if variant.1 {
        options.verify.properties = vec![PropertySpec::new(WITNESS)];
    }
    JobSpec {
        name: format!(
            "sweep{index}-hp{}{}",
            variant.0,
            if variant.1 { "-witness" } else { "" }
        ),
        source: Some(sweep_aadl(index, spec)),
        root: "top.impl".to_string(),
        options,
    }
}

/// The AADL text of sweep system `index`, in a package of its own: two
/// draws of one stratum can produce the same spec, and the sweep needs a
/// distinct model per system so its first variant really runs cold.
fn sweep_aadl(index: u64, spec: &SystemSpec) -> String {
    spec.to_aadl()
        .replace("package Vopr", &format!("package Sweep{index}"))
        .replace("end Vopr;", &format!("end Sweep{index};"))
}

/// Every verdict of a report, per report key: a thread path, or
/// `(product)`.
type VerdictMap = BTreeMap<String, Vec<Rendered>>;

/// What the reference allows a verdict to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// Violated at exactly this instant, inside the verified window.
    Violated(usize),
    /// `passed-bounded`: the reference violates the property past the
    /// verified window, so a `proved` would be wrong.
    Bounded,
    /// `proved` or `passed-bounded`: no violation within the reference's
    /// whole horizon.
    Holds,
}

impl Expected {
    fn admits(self, verdict: Rendered) -> bool {
        match (self, verdict) {
            (Expected::Violated(t), Rendered::Violated(u)) => t == u,
            (Expected::Bounded, Rendered::Bounded) => true,
            (Expected::Holds, Rendered::Bounded | Rendered::Proved) => true,
            _ => false,
        }
    }
}

type ExpectedMap = BTreeMap<String, Vec<Expected>>;

fn admits(expected: &ExpectedMap, got: &VerdictMap) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|((ek, ev), (gk, gv))| {
            ek == gk && ev.len() == gv.len() && ev.iter().zip(gv).all(|(e, g)| e.admits(*g))
        })
}

/// How many verdicts are decided: `proved` or `violated` rather than
/// `passed-bounded`.
fn decided(verdicts: &VerdictMap) -> u64 {
    verdicts
        .values()
        .flatten()
        .filter(|v| !matches!(v, Rendered::Bounded))
        .count() as u64
}

/// What the reference check needs from one finished job.
struct Done {
    system: u64,
    variant: (u64, bool),
    verdicts: VerdictMap,
}

/// Per-system job counts for the systems whose counts are compared.
#[derive(Default)]
struct SystemCounts {
    states: u64,
    transitions: u64,
    misses: u64,
    simulated_hits: u64,
    verdicts: u64,
    decided: u64,
}

pub struct ServiceSweep {
    seed: u64,
    service: Option<Service>,
    clients: Vec<Client>,
    /// The next unprocessed system index of each client's share.
    next_system: u64,
    done: Vec<Done>,
    counted: BTreeMap<u64, SystemCounts>,
    /// The first reports received, for the wire probe.
    reports: Vec<WireReport>,
}

/// Classifies every verdict line of every report key.
fn verdict_map(report: &WireReport) -> VerdictMap {
    report
        .verdicts
        .iter()
        .map(|(key, summary)| (key.clone(), rendered_verdicts(summary)))
        .collect()
}

/// One client's share of a loop: systems `first, first + CLIENTS, ...`
/// until the deadline, each with its four variants in a rotation that
/// starts at a different variant per system.
struct ClientLoop {
    latencies_ms: Vec<f64>,
    failed: u64,
    jobs: u64,
    verdicts: u64,
    decided: u64,
    last_system: u64,
    problems: Vec<String>,
    done: Vec<Done>,
    counted: BTreeMap<u64, SystemCounts>,
    reports: Vec<WireReport>,
    samples: Samples,
    spans: Vec<crate::trace::Span>,
}

fn client_loop(
    client: &mut Client,
    seed: u64,
    first: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    traced: bool,
) -> ClientLoop {
    let mut out = ClientLoop {
        latencies_ms: Vec::new(),
        failed: 0,
        jobs: 0,
        verdicts: 0,
        decided: 0,
        last_system: first,
        problems: Vec::new(),
        done: Vec::new(),
        counted: BTreeMap::new(),
        reports: Vec::new(),
        samples: Samples::default(),
        spans: Vec::new(),
    };
    let mut system = first;
    while Instant::now() < deadline {
        let spec = sweep_system(seed, system);
        for k in 0..VARIANTS.len() {
            let variant = VARIANTS[(system as usize + k) % VARIANTS.len()];
            let job = job_spec(system, &spec, variant);
            out.jobs += 1;
            let (report, latency) = match submit_and_wait(client, &job, tracer) {
                Ok(done) => done,
                Err(problem) => {
                    out.failed += 1;
                    out.problems.push(problem);
                    continue;
                }
            };
            let expected_cache = if k == 0 { "miss" } else { "simulated-hit" };
            if report.cache.as_deref() != Some(expected_cache) {
                out.failed += 1;
                out.problems.push(format!(
                    "{}: cache outcome {:?}, expected {expected_cache}",
                    job.name, report.cache
                ));
                continue;
            }
            let latency_ms = latency.as_secs_f64() * 1e3;
            out.latencies_ms.push(latency_ms);
            let verdicts = verdict_map(&report);
            let count = verdicts.values().map(Vec::len).sum::<usize>() as u64;
            let decided = decided(&verdicts);
            out.verdicts += count;
            out.decided += decided;
            if system < COUNTED_SYSTEMS {
                let c = out.counted.entry(system).or_default();
                c.states += report.states;
                c.transitions += report.transitions;
                c.misses += u64::from(k == 0);
                c.simulated_hits += u64::from(k > 0);
                c.verdicts += count;
                c.decided += decided;
            }
            if traced {
                probe::record_service_job(&mut out.samples, &report, latency_ms);
            }
            if out.reports.len() < 16 {
                out.reports.push(report);
            }
            out.done.push(Done {
                system,
                variant,
                verdicts,
            });
        }
        out.last_system = system;
        system += CLIENTS;
    }
    out
}

/// How many times the longest verified window the reference runs: a
/// `proved` verdict is accepted only if no violation shows that far.
const REFERENCE_WINDOWS: u64 = 4;

/// The reference verdicts of one system, for each variant, per report key,
/// from `polysim` runs of each scheduled thread and from the lockstep
/// co-simulation of the product, over [`REFERENCE_WINDOWS`] times the
/// longest verified window.
fn reference(seed: u64, system: u64) -> Result<BTreeMap<(u64, bool), ExpectedMap>, String> {
    let spec = sweep_system(seed, system);
    let mut options = spec.session_options();
    options.verify.properties = vec![PropertySpec::new(WITNESS)];
    let simulated = Session::with_options(options)
        .and_then(|session| {
            chain::run(
                &session,
                &sweep_aadl(system, &spec),
                "top.impl",
                &mut Untimed,
            )
        })
        .map_err(|e| format!("reference pipeline failed: {e}"))?
        .simulated;
    let windows = REFERENCE_WINDOWS * VARIANTS.iter().map(|v| v.0).max().unwrap_or(1);
    // Per thread: the first violation of each property over the whole
    // reference horizon, and the length of one verified hyper-period.
    let mut threads = Vec::new();
    for unit in &simulated.thread_units {
        let period = unit.model.timing_trace(&simulated.schedule, 1).len();
        let inputs = unit.model.timing_trace(&simulated.schedule, windows);
        let (steps, failure) = simulate(&unit.model.flat, &inputs);
        let firsts: Vec<Option<usize>> = [
            Property::NeverRaised("*Alarm*".into()),
            Property::DeadlockFree,
            witness(),
        ]
        .iter()
        .map(|p| first_violation_of(p, &steps, failure))
        .collect();
        threads.push((unit.path.clone(), period, firsts));
    }
    let links = simulated.product_links();
    let product_properties = simulated
        .product_properties(&links)
        .map_err(|e| e.to_string())?;
    let horizon = simulated.schedule.hyperperiod as usize;
    let (joint, failure) = lockstep(&simulated, horizon * windows as usize)?;
    let product_firsts: Vec<Option<usize>> = product_properties
        .iter()
        .map(|p| first_violation_of(p, &joint, failure))
        .collect();
    let mut out = BTreeMap::new();
    for &(hp, with_witness) in &VARIANTS {
        // The witness is the last property; a variant without it stops
        // one short.
        let within = |window: usize, firsts: &[Option<usize>]| -> Vec<Expected> {
            let keep = firsts.len() - usize::from(!with_witness);
            firsts[..keep]
                .iter()
                .map(|first| match *first {
                    Some(t) if t < window => Expected::Violated(t),
                    Some(_) => Expected::Bounded,
                    None => Expected::Holds,
                })
                .collect()
        };
        let mut expected = BTreeMap::new();
        for (path, period, firsts) in &threads {
            expected.insert(path.clone(), within(period * hp as usize, firsts));
        }
        expected.insert(
            PRODUCT_KEY.to_string(),
            within(horizon * hp as usize, &product_firsts),
        );
        out.insert((hp, with_witness), expected);
    }
    Ok(out)
}

impl Workload for ServiceSweep {
    fn setup(seed: u64) -> Result<Self, String> {
        let service = Service::start(DAEMON_WORKERS)?;
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            clients.push(service.connect()?);
        }
        Ok(ServiceSweep {
            seed,
            service: Some(service),
            clients,
            next_system: 0,
            done: Vec::new(),
            counted: BTreeMap::new(),
            reports: Vec::new(),
        })
    }

    /// One quick case-study job per connection, outside the generated
    /// sequence so it never pre-fills the cache for it.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let warm_up =
            JobSpec::case_study("warm-up").with_options(polychrony_core::SessionOptions::quick());
        for client in &mut self.clients {
            submit_and_wait(client, &warm_up, &mut tracer)?;
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool) -> LoopOutcome {
        let mut out = LoopOutcome::default();
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let cpu = process_cpu_s();
        let seed = self.seed;
        let base = self.next_system;
        let results = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (c, client) in self.clients.iter_mut().enumerate() {
                let results = &results;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch, (c as u64) << 40);
                    let mut done =
                        client_loop(client, seed, base + c as u64, deadline, &mut tracer, traced);
                    done.spans = tracer.into_spans();
                    results
                        .lock()
                        .expect("no client panics holding the lock")
                        .push(done);
                });
            }
        });
        out.wall_s = epoch.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_s() - cpu;
        for done in results.into_inner().expect("clients joined") {
            self.next_system = self.next_system.max(done.last_system + 1);
            out.jobs += done.jobs;
            out.failed += done.failed;
            out.latencies_ms.extend(done.latencies_ms);
            out.verdicts += done.verdicts;
            out.decided += done.decided;
            out.problems.extend(done.problems);
            out.samples.extend(done.samples);
            out.spans.extend(done.spans);
            self.done.extend(done.done);
            self.counted.extend(done.counted);
            if self.reports.len() < 16 {
                self.reports.extend(done.reports);
            }
        }
        // Round up to the next whole pair of systems, so the next loop
        // starts on fresh ones for both clients.
        self.next_system = self.next_system.div_ceil(CLIENTS) * CLIENTS;
        out
    }

    /// Every job's verdicts against the reference of its system; a
    /// mismatch fails the job.
    fn check(&mut self, problems: &mut Vec<String>) -> u64 {
        let mut systems: Vec<u64> = self.done.iter().map(|d| d.system).collect();
        systems.sort_unstable();
        systems.dedup();
        let seed = self.seed;
        let references: BTreeMap<u64, _> = std::thread::scope(|scope| {
            let halves: Vec<_> = systems
                .chunks(systems.len().div_ceil(2).max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&s| (s, reference(seed, s)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("reference threads do not panic"))
                .collect()
        });
        let mut failed = 0;
        for done in &self.done {
            let verdict = match &references[&done.system] {
                Err(problem) => Err(problem.clone()),
                Ok(expected) if admits(&expected[&done.variant], &done.verdicts) => Ok(()),
                Ok(expected) => Err(format!(
                    "verdicts {:?} differ from the reference {:?}",
                    done.verdicts, expected[&done.variant]
                )),
            };
            if let Err(problem) = verdict {
                failed += 1;
                problems.push(format!(
                    "system {} variant {:?}: {problem}",
                    done.system, done.variant
                ));
            }
        }
        failed
    }

    fn probe(&mut self, samples: &mut Samples) -> Result<(), String> {
        let client = &mut self.clients[0];
        for rt in roundtrip_ms(client, 1, 50)? {
            samples.push("client.roundtrip", rt);
        }
        let mut specs = Vec::new();
        for system in 0..PROBED_SYSTEMS {
            let spec = sweep_system(self.seed, system);
            let hp = crate::inputs::hyperperiod(&spec) as usize;
            let first_link = spec.connections[0].name();
            let mut options = spec.session_options();
            options.verify.hyperperiods = 2;
            let model = ProbeModel {
                source: sweep_aadl(system, &spec),
                root: "top.impl".to_string(),
                options,
                tamper: Some((first_link, hp)),
            };
            let simulated = probe::pipeline(&model, samples)?;
            probe::engine(&simulated, samples)?;
            for variant in VARIANTS {
                specs.push(job_spec(system, &spec, variant));
            }
        }
        probe::wire(&specs, &self.reports, samples)
    }

    fn counts(&self) -> Counts {
        let mut counts = Counts::new();
        for (system, c) in &self.counted {
            for (name, value) in [
                ("states", c.states),
                ("transitions", c.transitions),
                ("cache.miss", c.misses),
                ("cache.simulated_hit", c.simulated_hits),
                ("verdicts", c.verdicts),
                ("decided", c.decided),
            ] {
                counts.insert(format!("system{system}.{name}"), value);
            }
        }
        counts
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Some(service) = self.service.take() {
            service.stop();
        }
    }
}
