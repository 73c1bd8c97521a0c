//! The top-level ASME2SSME transformation: from an AADL instance model to a
//! SIGNAL process model (Fig. 3 of the paper).
//!
//! Containment follows the paper: threads become processes instantiated
//! inside their AADL process's SIGNAL process; AADL processes bound to a
//! processor become sub-processes of the processor's SIGNAL process; the
//! root system instantiates the processors and the unbound subsystems
//! (environment, operator display). Shared data components become a single
//! `shared_data` instance accessed by the threads of the enclosing process,
//! with a clock-exclusion constraint on the access clocks. Port connections
//! become local signals wiring an out port's `sent` signal to the target
//! port's `incoming` signal.

use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroUsize;

use aadl::ast::{ComponentCategory, ConnectionKind};
use aadl::instance::{ComponentInstance, InstanceModel};
use serde::{Deserialize, Serialize};
use signal_moc::builder::ProcessBuilder;
use signal_moc::expr::Expr;
use signal_moc::process::ProcessModel;
use signal_moc::value::ValueType;

use crate::library;
use crate::thread::thread_to_process;

/// Error raised by the translation.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslationError {
    /// The AADL front end reported an error (e.g. malformed properties).
    Aadl(String),
    /// The generated SIGNAL model failed validation — a translator bug
    /// surfaced to the caller rather than silently ignored.
    InvalidModel(String),
}

impl fmt::Display for TranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslationError::Aadl(msg) => write!(f, "aadl error: {msg}"),
            TranslationError::InvalidModel(msg) => write!(f, "generated model invalid: {msg}"),
        }
    }
}

impl std::error::Error for TranslationError {}

/// The result of translating an AADL instance model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranslatedSystem {
    /// The SIGNAL process model (root process named after the root system).
    pub model: ProcessModel,
    /// Traceability map: AADL instance path → SIGNAL process name.
    pub traceability: BTreeMap<String, String>,
    /// Timing inputs required by each translated thread (per thread instance
    /// path): the signals the scheduler must drive.
    pub timing_inputs: BTreeMap<String, Vec<String>>,
}

impl TranslatedSystem {
    /// Number of SIGNAL processes generated (including the library).
    pub fn process_count(&self) -> usize {
        self.model.len()
    }

    /// The SIGNAL process name a given AADL instance path was translated to.
    pub fn signal_process_for(&self, aadl_path: &str) -> Option<&str> {
        self.traceability.get(aadl_path).map(String::as_str)
    }
}

/// The ASME2SSME translator.
#[derive(Debug, Clone)]
pub struct Translator {
    default_queue_size: NonZeroUsize,
}

impl Default for Translator {
    fn default() -> Self {
        Self::new()
    }
}

impl Translator {
    /// Creates a translator with the AADL default queue size of 1.
    pub fn new() -> Self {
        Self {
            default_queue_size: NonZeroUsize::MIN,
        }
    }

    /// Overrides the default queue size used for event ports without an
    /// explicit `Queue_Size` property.
    pub fn with_default_queue_size(mut self, queue_size: NonZeroUsize) -> Self {
        self.default_queue_size = queue_size;
        self
    }

    /// Translates an instantiated AADL model into a SIGNAL model.
    ///
    /// # Errors
    ///
    /// Returns [`TranslationError::Aadl`] if thread properties cannot be
    /// interpreted and [`TranslationError::InvalidModel`] if the generated
    /// model does not validate (a translator bug).
    pub fn translate(
        &self,
        instance: &InstanceModel,
    ) -> Result<TranslatedSystem, TranslationError> {
        let root_name = sanitize(&instance.root.path);
        let mut model = ProcessModel::new(root_name.clone());
        // Library processes.
        for process in library::standard_library(self.default_queue_size)
            .processes
            .into_values()
        {
            model.add(process);
        }

        let mut traceability = BTreeMap::new();
        let mut timing_inputs = BTreeMap::new();

        // Translate threads.
        let threads = instance
            .threads()
            .map_err(|e| TranslationError::Aadl(e.to_string()))?;
        for thread in &threads {
            let name = sanitize(&thread.path);
            let translation = thread_to_process(&name, thread);
            traceability.insert(thread.path.clone(), name.clone());
            timing_inputs.insert(thread.path.clone(), translation.timing_inputs.clone());
            model.add(translation.process);
        }

        // Translate containers bottom-up: processes, then processors /
        // systems.
        self.translate_container(instance, &instance.root, &mut model, &mut traceability)?;

        model
            .validate()
            .map_err(|e| TranslationError::InvalidModel(e.to_string()))?;
        Ok(TranslatedSystem {
            model,
            traceability,
            timing_inputs,
        })
    }

    /// Translates a container component (process, processor, system) into a
    /// SIGNAL process instantiating its translated children, and recursively
    /// its container children first.
    fn translate_container(
        &self,
        instance: &InstanceModel,
        component: &ComponentInstance,
        model: &mut ProcessModel,
        traceability: &mut BTreeMap<String, String>,
    ) -> Result<(), TranslationError> {
        // Depth-first: children containers first so their processes exist.
        for child in &component.children {
            if is_container(child.category) {
                self.translate_container(instance, child, model, traceability)?;
            }
        }
        if !is_container(component.category) {
            return Ok(());
        }

        let name = sanitize(&component.path);
        let mut b = ProcessBuilder::new(name.clone());
        b.annotate("aadl::path", component.path.clone());
        b.annotate("aadl::category", component.category.keyword());

        // A tick input representing the processor/base clock of this
        // container.
        b.input("tick", ValueType::Event);
        // Aggregate alarm of the contained threads.
        b.output("Alarm", ValueType::Boolean);
        let mut alarm_terms: Vec<Expr> = Vec::new();

        // Which children become sub-process instances of this container?
        // The processor binding of the paper: processes bound to a processor
        // are implemented as sub-processes of the processor's SIGNAL
        // process; so a system instantiates its processors and its *unbound*
        // children, and a processor instantiates the processes bound to it.
        let children: Vec<&ComponentInstance> = match component.category {
            ComponentCategory::Processor | ComponentCategory::VirtualProcessor => instance
                .root
                .walk()
                .into_iter()
                .filter(|c| {
                    is_container(c.category)
                        && instance.processor_binding(&c.path) == Some(component.path.as_str())
                })
                .collect(),
            _ => component
                .children
                .iter()
                .filter(|c| {
                    // Skip children bound to some processor: they appear
                    // under that processor instead.
                    !(is_container(c.category) && instance.processor_binding(&c.path).is_some())
                        || matches!(
                            c.category,
                            ComponentCategory::Processor | ComponentCategory::VirtualProcessor
                        )
                })
                .collect(),
        };

        for child in children {
            match child.category {
                ComponentCategory::Thread => {
                    let child_process = sanitize(&child.path);
                    let Some(thread_model) = model.process(&child_process).cloned() else {
                        continue;
                    };
                    // Declare locals for every interface signal of the
                    // thread, prefixed with the thread name; inputs of the
                    // thread become inputs of the container (they are driven
                    // by the scheduler or by connections), outputs stay
                    // local except alarms.
                    let prefix = child.name.clone();
                    let mut input_names = Vec::new();
                    let mut output_names = Vec::new();
                    for decl in thread_model.inputs() {
                        let local = format!("{prefix}_{}", decl.name);
                        b.input(&local, decl.ty);
                        input_names.push(local);
                    }
                    for decl in thread_model.outputs() {
                        let local = format!("{prefix}_{}", decl.name);
                        b.local(&local, decl.ty);
                        output_names.push(local.clone());
                        if decl.name == "Alarm" {
                            alarm_terms.push(Expr::var(&local));
                        }
                    }
                    let inputs: Vec<&str> = input_names.iter().map(String::as_str).collect();
                    let outputs: Vec<&str> = output_names.iter().map(String::as_str).collect();
                    b.instance(&child_process, format!("sub_{prefix}"), &inputs, &outputs);
                }
                ComponentCategory::Data => {
                    // Shared data: one shared_data instance; write/read
                    // clocks come from the accessing threads' dispatches.
                    let accessors = instance.data_accessors(&child.path);
                    let prefix = child.name.clone();
                    let write = format!("{prefix}_write");
                    let read = format!("{prefix}_read");
                    let reset = format!("{prefix}_reset");
                    let depth = format!("{prefix}_depth");
                    let last_read = format!("{prefix}_last_read");
                    b.input(&write, ValueType::Boolean);
                    b.input(&read, ValueType::Boolean);
                    b.input(&reset, ValueType::Boolean);
                    b.local(&depth, ValueType::Integer);
                    b.local(&last_read, ValueType::Integer);
                    b.instance(
                        library::SHARED_DATA_PROCESS,
                        format!("sub_{prefix}"),
                        &[write.as_str(), read.as_str(), reset.as_str()],
                        &[depth.as_str(), last_read.as_str()],
                    );
                    // The access clocks of distinct accessors must be
                    // mutually exclusive (critical-region semantics): the
                    // scheduler guarantees it, the model records it.
                    b.annotate(
                        format!("aadl::shared_data::{}", child.name),
                        accessors.join(","),
                    );
                    traceability
                        .insert(child.path.clone(), library::SHARED_DATA_PROCESS.to_string());
                }
                _ if is_container(child.category) => {
                    let child_process = sanitize(&child.path);
                    let Some(container_model) = model.process(&child_process).cloned() else {
                        continue;
                    };
                    let prefix = child.name.clone();
                    let mut input_names = Vec::new();
                    let mut output_names = Vec::new();
                    for decl in container_model.inputs() {
                        let local = format!("{prefix}_{}", decl.name);
                        b.input(&local, decl.ty);
                        input_names.push(local);
                    }
                    for decl in container_model.outputs() {
                        let local = format!("{prefix}_{}", decl.name);
                        b.local(&local, decl.ty);
                        output_names.push(local.clone());
                        if decl.name.ends_with("Alarm") {
                            alarm_terms.push(Expr::var(&local));
                        }
                    }
                    let inputs: Vec<&str> = input_names.iter().map(String::as_str).collect();
                    let outputs: Vec<&str> = output_names.iter().map(String::as_str).collect();
                    b.instance(&child_process, format!("sub_{prefix}"), &inputs, &outputs);
                }
                _ => {
                    // Devices, memories, buses, subprograms: recorded for
                    // traceability but not given behaviour.
                    traceability
                        .entry(child.path.clone())
                        .or_insert_with(|| "aadl2signal_platform_stub".to_string());
                }
            }
        }

        // Port connections local to this container: wire source out-signal to
        // destination in-signal.
        for conn in &instance.connections {
            if conn.kind != ConnectionKind::Port {
                continue;
            }
            let source_parent = parent_path(&conn.source_component);
            if source_parent.as_deref() != Some(component.path.as_str()) {
                continue;
            }
            let src_child = last_segment(&conn.source_component);
            let dst_child = last_segment(&conn.destination_component);
            // Only thread-to-thread connections inside this container are
            // wired as value definitions (other connections cross the
            // hierarchy through container interfaces).
            let src_signal = format!("{src_child}_{}_out", conn.source_feature);
            let dst_signal = format!("{dst_child}_{}_in", conn.destination_feature);
            if model
                .process(&sanitize(&conn.source_component))
                .map(|p| p.signal(&format!("{}_out", conn.source_feature)).is_some())
                .unwrap_or(false)
                && model
                    .process(&sanitize(&conn.destination_component))
                    .map(|p| {
                        p.signal(&format!("{}_in", conn.destination_feature))
                            .is_some()
                    })
                    .unwrap_or(false)
            {
                // The destination's incoming boolean is true when the source
                // released at least one event this tick.
                b.annotate(
                    format!("aadl::connection::{}", conn.name),
                    format!("{src_signal} -> {dst_signal}"),
                );
            }
        }

        // Aggregate alarm.
        let alarm_expr = alarm_terms
            .into_iter()
            .reduce(Expr::or)
            .unwrap_or_else(|| Expr::bool(false));
        b.define("Alarm", alarm_expr);

        let process = b.build_unchecked();
        traceability.insert(component.path.clone(), name.clone());
        model.add(process);
        Ok(())
    }
}

fn is_container(category: ComponentCategory) -> bool {
    matches!(
        category,
        ComponentCategory::System
            | ComponentCategory::Process
            | ComponentCategory::Processor
            | ComponentCategory::VirtualProcessor
            | ComponentCategory::ThreadGroup
    )
}

fn sanitize(path: &str) -> String {
    path.replace(['.', ':'], "_")
}

fn parent_path(path: &str) -> Option<String> {
    path.rsplit_once('.').map(|(parent, _)| parent.to_string())
}

fn last_segment(path: &str) -> String {
    path.rsplit('.').next().unwrap_or(path).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::case_study::producer_consumer_instance;
    use aadl::synth::{generate_instance, SyntheticSpec};
    use signal_moc::analysis::StaticAnalysisReport;
    use signal_moc::clockcalc::ClockCalculus;
    use signal_moc::pretty::model_to_signal;

    fn translated() -> TranslatedSystem {
        let instance = producer_consumer_instance().unwrap();
        Translator::new().translate(&instance).unwrap()
    }

    #[test]
    fn case_study_translates_to_a_valid_model() {
        let sys = translated();
        sys.model.validate().unwrap();
        // 4 library processes + 4 threads + process + processor + 2
        // subsystems translated as systems? (subsystems have no
        // subcomponents so they are still containers) + root system.
        assert!(sys.process_count() >= 10, "got {}", sys.process_count());
        // Traceability: every thread has a SIGNAL process.
        for thread in ["thProducer", "thConsumer", "thProdTimer", "thConsTimer"] {
            let path = format!("sysProdCons.prProdCons.{thread}");
            assert!(sys.signal_process_for(&path).is_some(), "{thread} missing");
        }
        // The process is translated and reachable from the processor.
        assert!(sys.signal_process_for("sysProdCons.prProdCons").is_some());
        assert!(sys.signal_process_for("sysProdCons.Processor1").is_some());
    }

    #[test]
    fn binding_places_process_under_processor() {
        let sys = translated();
        let processor = sys
            .model
            .process(sys.signal_process_for("sysProdCons.Processor1").unwrap())
            .unwrap();
        // The processor's SIGNAL process instantiates the bound prProdCons
        // process (Fig. 3).
        let instantiates_process = processor.equations.iter().any(|eq| {
            matches!(eq, signal_moc::process::Equation::Instance { process, .. }
                if process == sys.signal_process_for("sysProdCons.prProdCons").unwrap())
        });
        assert!(instantiates_process);
        // And the root system does not instantiate prProdCons directly.
        let root = sys.model.root_process().unwrap();
        let root_instantiates_process = root.equations.iter().any(|eq| {
            matches!(eq, signal_moc::process::Equation::Instance { process, .. }
                if process == sys.signal_process_for("sysProdCons.prProdCons").unwrap())
        });
        assert!(!root_instantiates_process);
    }

    #[test]
    fn flattened_model_passes_static_analysis() {
        let sys = translated();
        let flat = sys.model.flatten().unwrap();
        let report = StaticAnalysisReport::analyze(&flat).unwrap();
        assert!(report.causality_cycle.is_none());
        assert!(report.clock_count > 10);
        assert!(report.signal_count > 50);
    }

    #[test]
    fn timing_inputs_reported_per_thread() {
        let sys = translated();
        let producer = &sys.timing_inputs["sysProdCons.prProdCons.thProducer"];
        assert!(producer.contains(&"Dispatch".to_string()));
        assert!(producer.iter().any(|s| s.ends_with("_frozen_time")));
    }

    #[test]
    fn pretty_printed_model_mentions_key_processes() {
        let sys = translated();
        let text = model_to_signal(&sys.model);
        assert!(text.contains("process sysProdCons ="));
        assert!(text.contains("process sysProdCons_prProdCons_thProducer ="));
        assert!(text.contains("aadl2signal_in_event_port"));
        assert!(text.contains("%aadl::path: sysProdCons.prProdCons.thProducer%"));
    }

    #[test]
    fn synthetic_models_scale_through_translation() {
        for threads in [5usize, 20] {
            let instance = generate_instance(&SyntheticSpec::new(threads, 1)).unwrap();
            let sys = Translator::new().translate(&instance).unwrap();
            sys.model.validate().unwrap();
            let flat = sys.model.flatten().unwrap();
            let cc = ClockCalculus::analyze(&flat).unwrap();
            assert!(cc.clock_count() >= threads, "clock count too small");
        }
    }

    #[test]
    fn queue_size_override() {
        let instance = producer_consumer_instance().unwrap();
        let sys = Translator::new()
            .with_default_queue_size(NonZeroUsize::new(4).unwrap())
            .translate(&instance)
            .unwrap();
        let port = sys.model.process(library::IN_EVENT_PORT_PROCESS).unwrap();
        assert_eq!(port.annotations["aadl2signal::queue_size"], "4");
    }
}
