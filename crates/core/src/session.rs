//! The staged pipeline API: a [`Session`] turns each phase of the
//! ASME2SSME tool chain into a typed artifact that can be inspected, kept,
//! or pushed into the next phase.
//!
//! The chain mirrors the paper's flow one type per phase:
//!
//! ```text
//! Session ─parse→ Parsed ─instantiate→ Instantiated ─schedule→ Scheduled
//!         ─translate→ Translated ─analyze→ Analyzed ─simulate→ Simulated
//!         ─verify→ Verified ─into_report→ ToolChainReport
//! ```
//!
//! Every intermediate artifact is a plain struct with public fields — the
//! instance model, the synthesised schedule, the affine-clock export, the
//! flat SIGNAL model, the per-thread simulation and verification outcomes —
//! so callers can stop after any phase, reuse an artifact across runs, or
//! feed it to another backend. [`BatchJob::run`](crate::BatchJob::run)
//! runs this chain end to end.
//!
//! ```
//! use polychrony_core::Session;
//!
//! // Stop after scheduling: no translation or simulation runs.
//! let scheduled = Session::new()
//!     .parse_case_study()?
//!     .instantiate("sysProdCons.impl")?
//!     .schedule()?;
//! assert_eq!(scheduled.schedule.hyperperiod, 24);
//! assert!(scheduled.affine.clock_count() > 0);
//!
//! // ... or keep going all the way to the aggregated report.
//! let report = scheduled
//!     .translate()?
//!     .analyze()?
//!     .simulate()?
//!     .verify()?
//!     .into_report();
//! assert!(report.all_checks_passed());
//! # Ok::<(), polychrony_core::CoreError>(())
//! ```

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use aadl::ast::Package;
use aadl::case_study::PRODUCER_CONSUMER_AADL;
use aadl::instance::{InstanceModel, ThreadInstance};
use aadl::parse_package;
use asme2ssme::{
    scheduled_thread_model, task_set_from_threads, thread_connections, ScheduledThreadModel,
    ThreadConnection, TranslatedSystem, Translator,
};
use polyobs::{Collector, PhaseRecord, RunRecord};
use polysim::{simulate_folded, SimulationReport};
use polyverify::{
    InputSpace, PortLink, ProductComponent, ProductSystem, ProductVerifier, Property,
    VerificationOutcome, Verifier, VerifyOptions,
};
use sched::{export_affine_clocks, AffineExport, BaselineReport, StaticSchedule, TaskSet};
use signal_moc::analysis::StaticAnalysisReport;
use signal_moc::process::Process;

use crate::error::CoreError;
use crate::options::{
    ScheduleOptions, SessionOptions, SimulateOptions, TranslateOptions, VcdCapture,
    VerificationOptions, VerificationScope,
};
use crate::report::{ProductVerificationReport, ToolChainReport, VerificationReport};

/// VCD timescale used by the simulation phase: the case-study processor has
/// a 1 ms clock period, so one simulated tick is one millisecond.
pub const VCD_TIMESCALE_NS: u64 = 1_000_000;

/// Times one pipeline phase: opens a `phase.<name>` span on the session's
/// collector (so trace sinks and progress reporters see phase boundaries)
/// and produces the [`PhaseRecord`] accumulated into the chain's
/// [`RunRecord`]. Dropping the timer without [`PhaseTimer::finish`] (the
/// error path) closes the span and records nothing.
struct PhaseTimer {
    span: polyobs::Span,
    started: std::time::Instant,
    name: &'static str,
}

impl PhaseTimer {
    fn start(collector: &Collector, name: &'static str) -> Self {
        PhaseTimer {
            span: collector.span(&format!("phase.{name}")),
            started: std::time::Instant::now(),
            name,
        }
    }

    fn finish(mut self, attrs: &[(&str, u64)]) -> PhaseRecord {
        for (k, v) in attrs {
            self.span.attr(k, *v);
        }
        PhaseRecord {
            name: self.name.to_string(),
            wall_us: self.started.elapsed().as_micros() as u64,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

/// Maps an extracted AADL thread connection onto its product link, using
/// the conventional signal names of the translation. A `Timing => Delayed`
/// connection delivers one tick later. This is the single conversion rule
/// shared by the pipeline's product phase, the demos and the test suites,
/// so the wiring cannot drift between them.
pub fn port_link_for(connection: &ThreadConnection) -> PortLink {
    let link = PortLink::event(
        connection.name.clone(),
        connection.source_thread.clone(),
        &connection.source_port,
        connection.target_thread.clone(),
        &connection.target_port,
    );
    if connection.delayed {
        link.with_latency(1)
    } else {
        link
    }
}

/// The standard cross-thread latency property of one link: an emission must
/// be frozen by the receiving thread within one of its periods (falling
/// back to the hyper-period when the receiver has no extracted task).
pub fn end_to_end_response_for(link: &PortLink, tasks: &TaskSet, hyperperiod: u64) -> Property {
    let bound = tasks
        .task(&link.target)
        .map(|task| task.period as u32)
        .unwrap_or(hyperperiod as u32);
    Property::EndToEndResponse {
        from: link.sent_signal(),
        to: link.consumed_signal(),
        bound,
    }
}

/// Entry point of the staged pipeline: holds the per-phase options and
/// opens the chain with [`Session::parse`] (or [`Session::load_instance`]
/// for an already-instantiated model).
///
/// A session is cheap to create and stateless between runs: every `parse`
/// starts an independent chain, so one configured session can front many
/// models (this is what [`BatchRunner`](crate::BatchRunner) relies on for
/// its shared-nothing workers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Session {
    options: SessionOptions,
}

impl Session {
    /// Creates a session with default options (EDF, 4 simulated
    /// hyper-periods, verification enabled with 2 workers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a session with explicit options, validated upfront.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when any phase option is out of
    /// range (zero workers, zero hyper-periods, zero queue size).
    pub fn with_options(options: SessionOptions) -> Result<Self, CoreError> {
        options.validate()?;
        Ok(Self { options })
    }

    /// The per-phase options this session will hand to each artifact.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Replaces the scheduling-phase options.
    #[must_use]
    pub fn schedule_options(mut self, options: ScheduleOptions) -> Self {
        self.options.schedule = options;
        self
    }

    /// Replaces the translation-phase options.
    #[must_use]
    pub fn translate_options(mut self, options: TranslateOptions) -> Self {
        self.options.translate = options;
        self
    }

    /// Replaces the simulation-phase options.
    #[must_use]
    pub fn simulate_options(mut self, options: SimulateOptions) -> Self {
        self.options.simulate = options;
        self
    }

    /// Replaces the verification-phase options.
    #[must_use]
    pub fn verification_options(mut self, options: VerificationOptions) -> Self {
        self.options.verify = options;
        self
    }

    /// Phase 1: parses AADL source text into a [`Parsed`] artifact.
    ///
    /// # Errors
    ///
    /// Propagates parser errors as [`CoreError::Aadl`].
    pub fn parse(&self, source: &str) -> Result<Parsed, CoreError> {
        let timer = PhaseTimer::start(&self.options.collector, "parse");
        let package = parse_package(source)?;
        let mut record = RunRecord::default();
        record.push(timer.finish(&[("classifiers", package.classifiers.len() as u64)]));
        Ok(Parsed {
            options: self.options.clone(),
            record,
            package,
        })
    }

    /// Phase 1 on the built-in ProducerConsumer case study of the paper
    /// (instantiate it with root classifier `"sysProdCons.impl"`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::parse`].
    pub fn parse_case_study(&self) -> Result<Parsed, CoreError> {
        self.parse(PRODUCER_CONSUMER_AADL)
    }

    /// Opens the chain at phase 2 with an already-instantiated model
    /// (skipping parse + instantiate), e.g. a synthetic model from
    /// [`aadl::synth::generate_instance`].
    pub fn load_instance(&self, instance: InstanceModel) -> Instantiated {
        Instantiated {
            options: self.options.clone(),
            record: RunRecord::default(),
            instance,
        }
    }
}

/// Phase-1 artifact: the parsed AADL package (declarative model).
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    options: SessionOptions,
    record: RunRecord,
    /// The parsed package, with classifiers in source order.
    pub package: Package,
}

impl Parsed {
    /// Phase 2: instantiates `root_classifier` into an AADL instance model.
    ///
    /// # Errors
    ///
    /// Propagates resolution/instantiation errors as [`CoreError::Aadl`].
    pub fn instantiate(mut self, root_classifier: &str) -> Result<Instantiated, CoreError> {
        let timer = PhaseTimer::start(&self.options.collector, "instantiate");
        let instance = InstanceModel::instantiate(&self.package, root_classifier)?;
        self.record
            .push(timer.finish(&[("components", instance.instance_count() as u64)]));
        Ok(Instantiated {
            options: self.options,
            record: self.record,
            instance,
        })
    }
}

/// Phase-2 artifact: the instantiated AADL model (instance tree, flattened
/// connections, processor bindings).
#[derive(Debug, Clone, PartialEq)]
pub struct Instantiated {
    options: SessionOptions,
    record: RunRecord,
    /// The instance model.
    pub instance: InstanceModel,
}

impl Instantiated {
    /// Phase 3: extracts the periodic task set, synthesises the static
    /// schedule over the hyper-period, runs the Cheddar-like baseline
    /// analyses, and exports the schedule as verified affine clock
    /// relations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Scheduling`] or [`CoreError::Affine`] when the
    /// task set is inconsistent, unschedulable, or not synchronizable.
    pub fn schedule(mut self) -> Result<Scheduled, CoreError> {
        let timer = PhaseTimer::start(&self.options.collector, "schedule");
        let threads = self.instance.threads()?;
        let tasks = task_set_from_threads(&threads)?;
        let schedule = StaticSchedule::synthesize(&tasks, self.options.schedule.policy)?;
        let baseline = BaselineReport::analyze(&tasks);
        let affine = export_affine_clocks(&tasks, &schedule)
            .map_err(|e| CoreError::Affine(e.to_string()))?;
        self.record.push(timer.finish(&[
            ("tasks", tasks.len() as u64),
            ("hyperperiod", schedule.hyperperiod),
        ]));
        Ok(Scheduled {
            options: self.options,
            record: self.record,
            instance: self.instance,
            threads,
            tasks,
            schedule,
            baseline,
            affine,
        })
    }
}

/// Phase-3 artifact: the scheduled task set with its affine-clock export
/// and baseline schedulability analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    options: SessionOptions,
    record: RunRecord,
    /// The instance model the schedule was synthesised for.
    pub instance: InstanceModel,
    /// The thread instances with resolved timing contracts.
    pub threads: Vec<ThreadInstance>,
    /// The extracted periodic task set.
    pub tasks: TaskSet,
    /// The synthesised static non-preemptive schedule.
    pub schedule: StaticSchedule,
    /// Cheddar-like baseline schedulability analyses of the task set.
    pub baseline: BaselineReport,
    /// The affine-clock export with its verified synchronizability
    /// constraints.
    pub affine: AffineExport,
}

impl Scheduled {
    /// Phase 4: runs the ASME2SSME transformation and assembles the
    /// flattened per-thread simulation/verification units.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] for a zero queue size,
    /// [`CoreError::Translation`] or [`CoreError::Signal`] when the
    /// transformation or the flattening fails.
    pub fn translate(mut self) -> Result<Translated, CoreError> {
        self.options.translate.validate()?;
        let queue_size =
            NonZeroUsize::new(self.options.translate.default_queue_size).expect("validated above");
        let timer = PhaseTimer::start(&self.options.collector, "translate");
        let system = Translator::new()
            .with_default_queue_size(queue_size)
            .translate(&self.instance)?;
        // Threads without a SIGNAL process (no timing contract) are not
        // simulation units; they are simply absent from `thread_units`.
        let mut thread_units = Vec::new();
        for thread in &self.threads {
            if let Some(model) = scheduled_thread_model(&system, thread)? {
                thread_units.push(ThreadUnit {
                    path: thread.path.clone(),
                    model,
                });
            }
        }
        // Thread-to-thread event-port connections (the synchronising
        // actions of product verification), restricted to scheduled units.
        let connections = thread_connections(&self.instance)?
            .into_iter()
            .filter(|c| {
                thread_units
                    .iter()
                    .any(|u| u.model.thread_name == c.source_thread)
                    && thread_units
                        .iter()
                        .any(|u| u.model.thread_name == c.target_thread)
            })
            .collect();
        self.record.push(timer.finish(&[
            ("processes", system.model.len() as u64),
            ("equations", system.model.total_equations() as u64),
            ("thread_units", thread_units.len() as u64),
        ]));
        Ok(Translated {
            options: self.options,
            record: self.record,
            instance: self.instance,
            threads: self.threads,
            tasks: self.tasks,
            schedule: self.schedule,
            baseline: self.baseline,
            affine: self.affine,
            system,
            thread_units,
            connections,
        })
    }
}

/// One translated thread ready for simulation/verification: its instance
/// path (the key of the per-thread report maps) and its flattened
/// [`ScheduledThreadModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadUnit {
    /// Thread instance path (e.g. `sysProdCons.prProdCons.thProducer`).
    pub path: String,
    /// The flattened simulation/verification unit of the thread.
    pub model: ScheduledThreadModel,
}

impl ThreadUnit {
    /// The thread as a product component: its flattened process, named
    /// after the thread, driven by one hyper-period of `schedule`.
    pub fn product_component(&self, schedule: &StaticSchedule) -> ProductComponent {
        ProductComponent {
            name: self.model.thread_name.clone(),
            process: self.model.flat.clone(),
            schedule: self.model.timing_trace(schedule, 1),
        }
    }
}

/// Phase-4 artifact: the SIGNAL process model produced by the ASME2SSME
/// transformation, plus the flattened per-thread units.
#[derive(Debug, Clone, PartialEq)]
pub struct Translated {
    options: SessionOptions,
    record: RunRecord,
    /// The instance model.
    pub instance: InstanceModel,
    /// The thread instances with resolved timing contracts.
    pub threads: Vec<ThreadInstance>,
    /// The extracted periodic task set.
    pub tasks: TaskSet,
    /// The synthesised static schedule.
    pub schedule: StaticSchedule,
    /// Baseline schedulability analyses.
    pub baseline: BaselineReport,
    /// The affine-clock export.
    pub affine: AffineExport,
    /// The translated SIGNAL system with its traceability map.
    pub system: TranslatedSystem,
    /// The flattened simulation/verification unit of every thread that has
    /// a SIGNAL process, in instance-tree order.
    pub thread_units: Vec<ThreadUnit>,
    /// The thread-to-thread event-port connections between the scheduled
    /// units, extracted from the AADL connection instances.
    pub connections: Vec<ThreadConnection>,
}

impl Translated {
    /// Phase 5: flattens the whole model and runs the clock calculus and
    /// the static analyses (determinism identification, deadlock
    /// detection).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Signal`] when flattening or an analysis fails.
    pub fn analyze(mut self) -> Result<Analyzed, CoreError> {
        let timer = PhaseTimer::start(&self.options.collector, "analyze");
        let flat = self.system.model.flatten()?;
        let static_analysis = StaticAnalysisReport::analyze(&flat)?;
        self.record
            .push(timer.finish(&[("clocks", static_analysis.clock_count as u64)]));
        Ok(Analyzed {
            options: self.options,
            record: self.record,
            instance: self.instance,
            tasks: self.tasks,
            schedule: self.schedule,
            baseline: self.baseline,
            affine: self.affine,
            system: self.system,
            thread_units: self.thread_units,
            connections: self.connections,
            flat,
            static_analysis,
        })
    }
}

/// Phase-5 artifact: the flat SIGNAL model with its clock-calculus and
/// static-analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct Analyzed {
    options: SessionOptions,
    record: RunRecord,
    /// The instance model.
    pub instance: InstanceModel,
    /// The extracted periodic task set.
    pub tasks: TaskSet,
    /// The synthesised static schedule.
    pub schedule: StaticSchedule,
    /// Baseline schedulability analyses.
    pub baseline: BaselineReport,
    /// The affine-clock export.
    pub affine: AffineExport,
    /// The translated SIGNAL system.
    pub system: TranslatedSystem,
    /// The flattened per-thread simulation/verification units.
    pub thread_units: Vec<ThreadUnit>,
    /// The thread-to-thread event-port connections between the units.
    pub connections: Vec<ThreadConnection>,
    /// The whole architecture flattened into one SIGNAL process.
    pub flat: Process,
    /// Clock calculus, determinism and deadlock analysis of [`Self::flat`].
    pub static_analysis: StaticAnalysisReport,
}

impl Analyzed {
    /// Phase 6: co-simulates every thread unit under the synthesised
    /// schedule, capturing the VCD waveform selected by
    /// [`SimulateOptions::vcd`]. Each thread's instants are folded into its
    /// report (and the captured waveform) as they resolve
    /// ([`simulate_folded`]); no trace is kept.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] for a zero simulation horizon
    /// and [`CoreError::Signal`] when a simulation step fails.
    pub fn simulate(mut self) -> Result<Simulated, CoreError> {
        self.options.simulate.validate()?;
        let timer = PhaseTimer::start(&self.options.collector, "simulate");
        let mut simulations = BTreeMap::new();
        let mut vcd = String::new();
        let mut vcd_thread = None;
        for unit in &self.thread_units {
            let inputs = unit
                .model
                .timing_trace(&self.schedule, self.options.simulate.hyperperiods);
            let capture = match &self.options.simulate.vcd {
                VcdCapture::Off => false,
                VcdCapture::First => vcd_thread.is_none(),
                VcdCapture::Thread(name) => unit.model.thread_name == *name,
            };
            let module = capture.then_some((unit.model.thread_name.as_str(), VCD_TIMESCALE_NS));
            let (report, waveform) = simulate_folded(&unit.model.flat, &inputs, module)?;
            simulations.insert(unit.path.clone(), report);
            if let Some(waveform) = waveform {
                vcd = waveform;
                vcd_thread = Some(unit.model.thread_name.clone());
            }
        }
        self.record.push(timer.finish(&[
            ("threads", simulations.len() as u64),
            ("hyperperiods", self.options.simulate.hyperperiods),
        ]));
        Ok(Simulated {
            options: self.options,
            record: self.record,
            instance: self.instance,
            tasks: self.tasks,
            schedule: self.schedule,
            baseline: self.baseline,
            affine: self.affine,
            system: self.system,
            thread_units: self.thread_units,
            connections: self.connections,
            static_analysis: self.static_analysis,
            simulations,
            vcd,
            vcd_thread,
        })
    }
}

/// Phase-6 artifact: the per-thread co-simulation reports and the captured
/// VCD waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    options: SessionOptions,
    record: RunRecord,
    /// The instance model.
    pub instance: InstanceModel,
    /// The extracted periodic task set.
    pub tasks: TaskSet,
    /// The synthesised static schedule.
    pub schedule: StaticSchedule,
    /// Baseline schedulability analyses.
    pub baseline: BaselineReport,
    /// The affine-clock export.
    pub affine: AffineExport,
    /// The translated SIGNAL system.
    pub system: TranslatedSystem,
    /// The flattened per-thread simulation/verification units.
    pub thread_units: Vec<ThreadUnit>,
    /// The thread-to-thread event-port connections between the units.
    pub connections: Vec<ThreadConnection>,
    /// Static analysis of the whole architecture flattened into one SIGNAL
    /// process ([`Analyzed::flat`]).
    pub static_analysis: StaticAnalysisReport,
    /// Per-thread co-simulation reports (keyed by thread instance path).
    pub simulations: BTreeMap<String, SimulationReport>,
    /// The captured VCD waveform (empty when capture is off or the selected
    /// thread does not exist).
    pub vcd: String,
    /// Name of the thread the VCD was captured from, when any.
    pub vcd_thread: Option<String>,
}

impl Simulated {
    /// The phase records accumulated so far (parse through simulate).
    pub fn record(&self) -> &RunRecord {
        &self.record
    }

    /// The options this artifact will hand to the verification phase. Used
    /// by the artifact cache to scrub stored artifacts.
    pub(crate) fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Replaces the artifact's options wholesale. The artifact cache uses
    /// this to re-home a cached artifact under the requesting job's
    /// options (and collector) before verification runs, and to scrub
    /// stored copies down to a noop collector.
    pub(crate) fn adopt_options(&mut self, options: SessionOptions) {
        self.options = options;
    }

    /// Phase 7: exhaustively model-checks every thread unit under the same
    /// schedule with the standard safety properties
    /// (`never-raised(*Alarm*)`, deadlock freedom) plus any user-supplied
    /// past-time LTL properties from
    /// [`VerificationOptions::properties`] — each gets its own
    /// per-property verdict in the [`VerificationReport`]. When the
    /// verification phase is disabled in [`VerificationOptions`], this is
    /// [`Simulated::skip_verification`].
    ///
    /// A single hyper-period trace wraps around (states recurring at the
    /// same schedule phase are deduplicated across repetitions), so the
    /// exploration either closes — proving the periodic system for
    /// unbounded time — or stops at the depth bound of
    /// [`VerificationOptions::hyperperiods`] hyper-periods.
    ///
    /// With [`VerificationScope::Product`], the phase additionally explores
    /// the synchronous product of the communicating threads: event-port
    /// connections become synchronising actions (the sender's scheduled
    /// emission fixes the receiver's input), every connection is checked
    /// against an end-to-end response property bounded by its receiver's
    /// period, and the joint verdict is returned as a [`VerifiedProduct`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] for zero workers or
    /// hyper-periods and [`CoreError::Verification`] when the exploration
    /// fails.
    pub fn verify(mut self) -> Result<Verified, CoreError> {
        self.options.verify.validate()?;
        if !self.options.verify.enabled {
            return Ok(self.skip_verification());
        }
        let timer = PhaseTimer::start(&self.options.collector, "verify");
        let mut properties = vec![
            Property::NeverRaised("*Alarm*".to_string()),
            Property::DeadlockFree,
        ];
        // User-supplied past-time LTL properties ride along in every
        // scope. A property over joint product signals is vacuous in a
        // thread's own namespace (the signals do not exist there), so
        // checking the full list per-thread is always sound.
        for spec in &self.options.verify.properties {
            properties.push(spec.parse()?);
        }
        let mut outcomes = BTreeMap::new();
        for unit in &self.thread_units {
            let verify_inputs = unit.model.timing_trace(&self.schedule, 1);
            let verifier =
                Verifier::new(&unit.model.flat, self.engine_options(verify_inputs.len()))?;
            let outcome = verifier.verify(&InputSpace::Scheduled(verify_inputs), &properties)?;
            outcomes.insert(unit.path.clone(), outcome);
        }
        let states: usize = outcomes.values().map(|o| o.stats.states).sum();
        let transitions: usize = outcomes.values().map(|o| o.stats.transitions).sum();
        let sliced: usize = outcomes.values().map(|o| o.stats.sliced_slots).sum();
        self.record.push(timer.finish(&[
            ("threads", outcomes.len() as u64),
            ("states", states as u64),
            ("transitions", transitions as u64),
            ("sliced_slots", sliced as u64),
        ]));
        let verification = Some(VerificationReport {
            workers: self.options.verify.workers,
            hyperperiods: self.options.verify.hyperperiods,
            properties: properties.iter().map(Property::name).collect(),
            outcomes,
            product: None,
        });
        let product = match self.options.verify.scope {
            VerificationScope::PerThread => None,
            VerificationScope::Product => {
                let timer = PhaseTimer::start(&self.options.collector, "verify.product");
                let product = self.verify_product()?;
                self.record.push(timer.finish(&[
                    ("states", product.outcome.stats.states as u64),
                    ("depth", product.outcome.stats.depth as u64),
                    ("sliced_slots", product.outcome.stats.sliced_slots as u64),
                ]));
                Some(product)
            }
        };
        Ok(Verified {
            simulated: self,
            verification,
            product,
        })
    }

    /// Builds the product of the scheduled thread units (event-port
    /// connections as synchronising actions) and model-checks it: alarm
    /// freedom, deadlock freedom, and one
    /// [`Property::EndToEndResponse`] per connection, bounded by the
    /// receiving thread's period (a released event must be frozen by the
    /// receiver within one of its periods).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verification`] when the product is inconsistent
    /// or the exploration fails.
    pub fn verify_product(&self) -> Result<VerifiedProduct, CoreError> {
        self.verify_product_with_links(self.product_links())
    }

    /// One [`ProductComponent`] per scheduled thread unit — the pieces
    /// [`Simulated::verify_product`] assembles, exposed so harnesses can
    /// build tampered products (fault injection) from the same artifacts.
    pub fn product_components(&self) -> Vec<ProductComponent> {
        self.thread_units
            .iter()
            .map(|unit| unit.product_component(&self.schedule))
            .collect()
    }

    /// The untampered [`PortLink`]s derived from the instance's event-port
    /// connections — the injection point for connection faults: tamper the
    /// returned links (e.g. with
    /// [`polyverify::inject_connection_latency`])
    /// and hand them to [`Simulated::verify_product_with_links`].
    pub fn product_links(&self) -> Vec<PortLink> {
        self.connections.iter().map(port_link_for).collect()
    }

    /// The product property set for `links`: alarm freedom, deadlock
    /// freedom, one end-to-end response bound per link, plus the user
    /// properties of the session options.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when a user property does not
    /// parse.
    pub fn product_properties(&self, links: &[PortLink]) -> Result<Vec<Property>, CoreError> {
        let mut properties = vec![
            Property::NeverRaised("*Alarm*".to_string()),
            Property::DeadlockFree,
        ];
        for link in links {
            properties.push(end_to_end_response_for(
                link,
                &self.tasks,
                self.schedule.hyperperiod,
            ));
        }
        // User properties are checked over the joint namespace too — this
        // is where link-derived `<link>_sent`/`<link>_consumed` atoms
        // become meaningful.
        for spec in &self.options.verify.properties {
            properties.push(spec.parse()?);
        }
        Ok(properties)
    }

    /// Like [`Simulated::verify_product`], but over caller-supplied
    /// `links` — the fault-injection hook: pass
    /// [`Simulated::product_links`] tampered by the `polyverify` injectors
    /// to model-check a system with a faulty interconnect against the
    /// untampered properties.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verification`] when the product is inconsistent
    /// or the exploration fails.
    pub fn verify_product_with_links(
        &self,
        links: Vec<PortLink>,
    ) -> Result<VerifiedProduct, CoreError> {
        let components = self.product_components();
        let properties = self.product_properties(&links)?;
        let system = ProductSystem::new(components, links)?;
        let options = self.engine_options(system.horizon());
        let verifier = ProductVerifier::new(system, options)?;
        let outcome = verifier.verify(&properties)?;
        Ok(VerifiedProduct {
            connections: self.connections.clone(),
            properties,
            outcome,
            verifier,
        })
    }

    /// The exploration-engine options of this session's verification
    /// phase, for a schedule whose single hyper-period spans `horizon`
    /// instants: the depth bound covers
    /// [`VerificationOptions::hyperperiods`] of them.
    fn engine_options(&self, horizon: usize) -> VerifyOptions {
        let verify = &self.options.verify;
        VerifyOptions::default()
            .with_workers(verify.workers)
            .with_depth_bound(horizon * verify.hyperperiods as usize)
            .with_collector(self.options.collector.clone())
    }

    /// Closes the chain without running the verification phase (the
    /// resulting report carries no [`VerificationReport`]).
    pub fn skip_verification(self) -> Verified {
        Verified {
            simulated: self,
            verification: None,
            product: None,
        }
    }
}

/// The product-verification artifact: the joint verdict over the
/// synchronous product of the communicating threads, with the verifier kept
/// alive so counterexamples can be projected back to per-thread traces and
/// replayed in the lockstep co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedProduct {
    /// The event-port connections treated as synchronising actions.
    pub connections: Vec<ThreadConnection>,
    /// The checked properties (standard safety properties plus one
    /// end-to-end response per connection), in verdict order.
    pub properties: Vec<Property>,
    /// The joint exploration outcome.
    pub outcome: VerificationOutcome,
    /// The product verifier, for [`ProductVerifier::project`] and
    /// [`ProductVerifier::replay`] on the outcome's counterexamples.
    pub verifier: ProductVerifier,
}

impl VerifiedProduct {
    /// Condenses the artifact into the serialisable report section.
    pub fn to_report(&self) -> ProductVerificationReport {
        ProductVerificationReport {
            components: self
                .verifier
                .system()
                .components()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            connections: self.connections.iter().map(|c| c.name.clone()).collect(),
            properties: self.properties.iter().map(Property::name).collect(),
            outcome: self.outcome.clone(),
        }
    }
}

/// Phase-7 artifact: the completed chain, ready to be condensed into a
/// [`ToolChainReport`]. The full [`Simulated`] artifact stays accessible
/// through [`Verified::simulated`].
#[derive(Debug, Clone, PartialEq)]
pub struct Verified {
    /// The phase-6 artifact the verification ran on.
    pub simulated: Simulated,
    /// Per-thread verification outcomes (`None` when the phase was
    /// disabled or skipped).
    pub verification: Option<VerificationReport>,
    /// The product-verification artifact (`None` unless the phase ran with
    /// [`VerificationScope::Product`]).
    pub product: Option<VerifiedProduct>,
}

impl Verified {
    /// The phase records of the finished chain (parse through
    /// verification). [`Verified::into_report`] freezes these — plus the
    /// collector's final counter snapshot — into
    /// [`ToolChainReport::run_record`].
    pub fn record(&self) -> &RunRecord {
        &self.simulated.record
    }

    /// Condenses the whole chain into the aggregated [`ToolChainReport`]
    /// (the same report [`BatchJob::run`](crate::BatchJob::run) returns).
    pub fn into_report(self) -> ToolChainReport {
        let mut verification = self.verification;
        if let (Some(report), Some(product)) = (verification.as_mut(), &self.product) {
            report.product = Some(product.to_report());
        }
        let simulated = self.simulated;
        // The report must stay self-contained after the collector is gone:
        // freeze the counter snapshot into the record now.
        let mut run_record = simulated.record;
        run_record.counters = simulated.options.collector.counter_values();
        let category_counts = simulated
            .instance
            .category_counts()
            .into_iter()
            .map(|(k, v)| (k.keyword().to_string(), v))
            .collect();
        ToolChainReport {
            root: simulated.instance.root.path.clone(),
            component_count: simulated.instance.instance_count(),
            category_counts,
            task_set_summary: simulated.tasks.to_string(),
            schedule: simulated.schedule,
            affine_clock_count: simulated.affine.clock_count(),
            verified_constraints: simulated.affine.verified_constraints,
            signal_process_count: simulated.system.model.len(),
            signal_equation_count: simulated.system.model.total_equations(),
            static_analysis: simulated.static_analysis,
            baseline: simulated.baseline,
            simulations: simulated.simulations,
            verification,
            vcd: simulated.vcd,
            vcd_thread: simulated.vcd_thread,
            run_record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::SchedulingPolicy;

    #[test]
    fn every_intermediate_artifact_is_inspectable() {
        let session = Session::new();
        let parsed = session.parse_case_study().unwrap();
        assert!(!parsed.package.classifiers.is_empty());
        let instantiated = parsed.instantiate("sysProdCons.impl").unwrap();
        assert_eq!(instantiated.instance.root.path, "sysProdCons");
        let scheduled = instantiated.schedule().unwrap();
        assert_eq!(scheduled.schedule.hyperperiod, 24);
        assert_eq!(scheduled.tasks.len(), 4);
        assert!(scheduled.affine.clock_count() > 0);
        assert!(scheduled.baseline.response_times.schedulable);
        let translated = scheduled.translate().unwrap();
        assert_eq!(translated.thread_units.len(), 4);
        let analyzed = translated.analyze().unwrap();
        assert!(analyzed.static_analysis.determinism.is_deterministic());
        assert!(analyzed.static_analysis.clock_count > 0);
        let simulated = analyzed.simulate().unwrap();
        assert_eq!(simulated.simulations.len(), 4);
        assert_eq!(simulated.vcd_thread.as_deref(), Some("thProducer"));
        let verified = simulated.verify().unwrap();
        let verification = verified.verification.as_ref().unwrap();
        assert_eq!(verification.outcomes.len(), 4);
        let report = verified.into_report();
        assert!(report.all_checks_passed(), "{}", report.summary());
    }

    #[test]
    fn the_run_record_tracks_every_phase_and_the_collector_counters() {
        let mut options = SessionOptions::default();
        options.simulate.hyperperiods = 1;
        options.collector = polyobs::Collector::counters();
        let report = Session::with_options(options)
            .unwrap()
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap()
            .verify()
            .unwrap()
            .into_report();
        let names: Vec<&str> = report
            .run_record
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "parse",
                "instantiate",
                "schedule",
                "translate",
                "analyze",
                "simulate",
                "verify"
            ]
        );
        let schedule = report.run_record.phase("schedule").unwrap();
        assert_eq!(schedule.attr("hyperperiod"), Some(24));
        assert_eq!(schedule.attr("tasks"), Some(4));
        let verify = report.run_record.phase("verify").unwrap();
        assert_eq!(verify.attr("threads"), Some(4));
        assert!(verify.attr("states").unwrap() > 0);
        // The engine streamed its counters into the session's collector and
        // the report froze the snapshot.
        assert!(report.run_record.counter("engine.states").unwrap() > 0);
        assert!(report.summary().contains("phases"));
        // A noop-collector run records the same phase shape (equal reports)
        // but no counters.
        let mut quiet = SessionOptions::default();
        quiet.simulate.hyperperiods = 1;
        let silent = Session::with_options(quiet)
            .unwrap()
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap()
            .verify()
            .unwrap()
            .into_report();
        assert!(silent.run_record.counters.is_empty());
        assert_eq!(silent.run_record, report.run_record);
        assert_eq!(silent, report);
    }

    #[test]
    fn product_scope_adds_the_joint_verdict() {
        let mut options = SessionOptions::default();
        options.simulate.hyperperiods = 1;
        options.verify.scope = VerificationScope::Product;
        let verified = Session::with_options(options)
            .unwrap()
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap()
            .verify()
            .unwrap();
        let product = verified.product.as_ref().expect("product scope requested");
        assert_eq!(product.connections.len(), 6);
        // Standard safety properties + one end-to-end response per link.
        assert_eq!(product.properties.len(), 2 + 6);
        assert!(
            product.outcome.is_violation_free(),
            "{}",
            product.outcome.summary()
        );
        // The product explored the full 24-tick hyper-period.
        assert_eq!(product.outcome.stats.depth, 24);
        let report = verified.into_report();
        let verification = report.verification.as_ref().unwrap();
        let section = verification.product.as_ref().expect("product section");
        assert_eq!(section.components.len(), 4);
        assert!(section.summary().contains("thProducer"));
        assert!(report.all_checks_passed(), "{}", report.summary());
        assert!(report
            .summary()
            .contains("product             : 4 component(s)"));
    }

    #[test]
    fn translated_artifact_exposes_the_thread_connections() {
        let translated = Session::new()
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap();
        assert_eq!(translated.connections.len(), 6);
        assert!(translated
            .connections
            .iter()
            .any(|c| c.name == "cProdStartTimer" && c.source_thread == "thProducer"));
    }

    #[test]
    fn a_schedule_artifact_can_fan_out_into_many_translations() {
        let session = Session::new();
        let scheduled = session
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap();
        // The artifact is a plain value: clone it and run two independent
        // later-phase configurations from the same schedule.
        let a = scheduled.clone().translate().unwrap();
        let b = scheduled.translate().unwrap();
        assert_eq!(a.system.model.len(), b.system.model.len());
    }

    #[test]
    fn vcd_capture_off_leaves_no_waveform() {
        let simulated = Session::new()
            .simulate_options(SimulateOptions {
                hyperperiods: 1,
                vcd: VcdCapture::Off,
            })
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap();
        assert!(simulated.vcd.is_empty());
        assert_eq!(simulated.vcd_thread, None);
    }

    #[test]
    fn vcd_capture_by_name_selects_that_thread() {
        let simulated = Session::new()
            .simulate_options(SimulateOptions {
                hyperperiods: 1,
                vcd: VcdCapture::Thread("thConsumer".into()),
            })
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap()
            .simulate()
            .unwrap();
        assert_eq!(simulated.vcd_thread.as_deref(), Some("thConsumer"));
        assert!(simulated.vcd.contains("thConsumer"));
    }

    /// The folded phase gives every thread the report, and the captured
    /// thread the waveform, of the reference simulator, for every capture
    /// mode and horizon.
    #[test]
    fn simulate_phase_agrees_with_the_reference_simulator() {
        for (hyperperiods, vcd, captured) in [
            (1, VcdCapture::First, Some("thProducer")),
            (
                2,
                VcdCapture::Thread("thConsumer".into()),
                Some("thConsumer"),
            ),
            (3, VcdCapture::Off, None),
        ] {
            let simulated = Session::new()
                .simulate_options(SimulateOptions { hyperperiods, vcd })
                .parse_case_study()
                .unwrap()
                .instantiate("sysProdCons.impl")
                .unwrap()
                .schedule()
                .unwrap()
                .translate()
                .unwrap()
                .analyze()
                .unwrap()
                .simulate()
                .unwrap();
            assert_eq!(simulated.vcd_thread.as_deref(), captured);
            assert_eq!(simulated.simulations.len(), 4);
            for unit in &simulated.thread_units {
                let mut simulator = polysim::Simulator::new(&unit.model.flat).unwrap();
                simulator
                    .run(&unit.model.timing_trace(&simulated.schedule, hyperperiods))
                    .unwrap();
                assert_eq!(simulated.simulations[&unit.path], simulator.report());
                if captured == Some(unit.model.thread_name.as_str()) {
                    let vcd = simulator.to_vcd(&unit.model.thread_name, VCD_TIMESCALE_NS);
                    assert_eq!(simulated.vcd, vcd);
                }
            }
            if captured.is_none() {
                assert!(simulated.vcd.is_empty());
            }
        }
    }

    #[test]
    fn invalid_phase_options_fail_at_the_owning_phase() {
        let session = Session::new().simulate_options(SimulateOptions {
            hyperperiods: 0,
            vcd: VcdCapture::Off,
        });
        // Earlier phases still run fine...
        let analyzed = session
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap()
            .translate()
            .unwrap()
            .analyze()
            .unwrap();
        // ... and the owning phase rejects the zero horizon.
        let err = analyzed.simulate().unwrap_err();
        assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
    }

    #[test]
    fn with_options_validates_upfront() {
        let mut options = SessionOptions::default();
        options.verify.workers = 0;
        assert!(matches!(
            Session::with_options(options),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn alternate_policy_flows_through_the_chain() {
        let scheduled = Session::new()
            .schedule_options(ScheduleOptions {
                policy: SchedulingPolicy::RateMonotonic,
            })
            .parse_case_study()
            .unwrap()
            .instantiate("sysProdCons.impl")
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(scheduled.schedule.policy, SchedulingPolicy::RateMonotonic);
        assert!(scheduled.schedule.is_valid());
    }
}
