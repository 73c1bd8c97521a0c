//! Per-phase options of the staged [`Session`](crate::Session) API.
//!
//! Every pipeline phase owns the options that configure it: the scheduling
//! phase owns the policy, the translation phase owns the queue sizing, the
//! simulation phase owns the horizon and the VCD capture selection, and the
//! verification phase owns the worker count and the exploration bound.
//! [`SessionOptions`] bundles them for whole-chain runs (a
//! [`BatchJob`](crate::BatchJob) and the
//! [`BatchRunner`](crate::BatchRunner)).
//!
//! Validation is explicit: out-of-range values produce
//! [`CoreError::InvalidOptions`] instead of being silently clamped, so a
//! caller asking for zero workers or zero hyper-periods learns about the
//! mistake instead of running with a different configuration than requested.
//!
//! Every option that can change a result also has exactly one entry in the
//! field table behind [`options_to_json`]: its group, its key and its JSON
//! encoding. The wire protocol, the daemon's job log and the artifact
//! cache's fingerprints all derive from that one table.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use polyobs::json::Json;
use polyverify::Property;
use sched::SchedulingPolicy;

use crate::error::CoreError;

/// A user-supplied property, written in the past-time LTL surface syntax
/// (see `docs/PROPERTIES.md` for the grammar and semantics). The
/// expression is validated when the options are validated and compiled
/// into a monitor automaton when the verification phase runs, so it is
/// checked by per-thread exploration and — under
/// [`VerificationScope::Product`] — over the joint product, with
/// counterexamples that replay like the built-in properties.
///
/// ```
/// use polychrony_core::PropertySpec;
///
/// let spec = PropertySpec::new("never raised(*Alarm*)");
/// assert!(spec.parse().is_ok());
/// assert!(PropertySpec::new("always (Deadline implies").parse().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// The property expression, e.g. `never raised(*Alarm*)` or
    /// `always (Deadline implies Resume within 2)`.
    pub expr: String,
}

impl PropertySpec {
    /// Wraps a property expression (validated by [`PropertySpec::parse`]).
    pub fn new(expr: impl Into<String>) -> Self {
        Self { expr: expr.into() }
    }

    /// Parses the expression into a checkable [`Property`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] carrying the parser's
    /// span-annotated message (the caret rendering points at the offending
    /// token).
    pub fn parse(&self) -> Result<Property, CoreError> {
        Property::parse_ltl(&self.expr)
            .map_err(|e| CoreError::InvalidOptions(format!("verify.properties: {e}")))
    }
}

/// Which thread's co-simulation is dumped as a VCD waveform by the
/// simulation phase (surfaced as
/// [`ToolChainReport::vcd_thread`](crate::ToolChainReport::vcd_thread)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcdCapture {
    /// Capture the first simulated thread (instance-tree order). This is
    /// the default; on the built-in case study the first thread is the
    /// producer, matching the paper's waveform figure.
    #[default]
    First,
    /// Capture the thread with this name. When no simulated thread matches,
    /// the report carries an empty VCD and no capture marker.
    Thread(String),
    /// Do not capture any waveform.
    Off,
}

/// Options of the scheduling phase ([`Instantiated::schedule`](crate::Instantiated::schedule)):
/// task-set extraction and static schedule synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Scheduling policy used for the static synthesis.
    pub policy: SchedulingPolicy,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        Self {
            policy: SchedulingPolicy::EarliestDeadlineFirst,
        }
    }
}

/// Options of the translation phase ([`Scheduled::translate`](crate::Scheduled::translate)):
/// the ASME2SSME transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslateOptions {
    /// Default queue size for event ports without an explicit `Queue_Size`
    /// property. Must be at least 1.
    pub default_queue_size: usize,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        Self {
            default_queue_size: 1,
        }
    }
}

impl TranslateOptions {
    /// Checks the options for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `default_queue_size` is 0.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.default_queue_size == 0 {
            return Err(CoreError::InvalidOptions(
                "translate.default_queue_size must be at least 1 (got 0)".into(),
            ));
        }
        Ok(())
    }
}

/// Options of the simulation phase ([`Analyzed::simulate`](crate::Analyzed::simulate)):
/// the scheduled co-simulation of every thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulateOptions {
    /// Number of hyper-periods to co-simulate. Must be at least 1.
    pub hyperperiods: u64,
    /// Which thread's simulation is captured as a VCD waveform.
    pub vcd: VcdCapture,
}

impl Default for SimulateOptions {
    fn default() -> Self {
        Self {
            hyperperiods: 4,
            vcd: VcdCapture::First,
        }
    }
}

impl SimulateOptions {
    /// Checks the options for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `hyperperiods` is 0.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.hyperperiods == 0 {
            return Err(CoreError::InvalidOptions(
                "simulate.hyperperiods must be at least 1 (got 0)".into(),
            ));
        }
        Ok(())
    }
}

/// Which state spaces the verification phase explores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerificationScope {
    /// Each thread is verified against its own scheduled trace in
    /// isolation. Cross-thread properties (event-port latency) are
    /// invisible at this scope.
    #[default]
    PerThread,
    /// Per-thread verification *plus* the synchronous product of the
    /// communicating threads: event-port connections become synchronising
    /// actions, every connection gets an end-to-end response property
    /// bounded by its receiver's period, and the joint verdict is surfaced
    /// as a [`VerifiedProduct`](crate::VerifiedProduct) artifact.
    Product,
}

/// Options of the verification phase ([`Simulated::verify`](crate::Simulated::verify)):
/// the explicit-state exploration of every scheduled thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationOptions {
    /// Runs the state-space verification phase; when `false`,
    /// [`Simulated::verify`](crate::Simulated::verify) behaves like
    /// [`Simulated::skip_verification`](crate::Simulated::skip_verification).
    pub enabled: bool,
    /// Worker threads of the parallel reachability engine. Must be at
    /// least 1.
    pub workers: usize,
    /// Number of hyper-periods the exploration covers before the depth
    /// bound stops it. Must be at least 1.
    pub hyperperiods: u64,
    /// Whether the phase also verifies the product of the communicating
    /// threads.
    pub scope: VerificationScope,
    /// User-supplied past-time LTL properties, checked alongside the
    /// standard safety properties in every scope (per-thread and product).
    /// Each expression must parse (see [`PropertySpec::parse`]).
    pub properties: Vec<PropertySpec>,
}

impl Default for VerificationOptions {
    fn default() -> Self {
        Self {
            enabled: true,
            workers: 2,
            hyperperiods: 1,
            scope: VerificationScope::PerThread,
            properties: Vec::new(),
        }
    }
}

impl VerificationOptions {
    /// Checks the options for consistency. The bounds apply even when the
    /// phase is disabled, so re-enabling it cannot surface a stale invalid
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when `workers` or
    /// `hyperperiods` is 0, or when a property expression does not parse
    /// (the message carries the offending span).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.workers == 0 {
            return Err(CoreError::InvalidOptions(
                "verify.workers must be at least 1 (got 0)".into(),
            ));
        }
        if self.hyperperiods == 0 {
            return Err(CoreError::InvalidOptions(
                "verify.hyperperiods must be at least 1 (got 0)".into(),
            ));
        }
        for spec in &self.properties {
            spec.parse()?;
        }
        Ok(())
    }
}

/// The options of every phase of one staged run, bundled so whole-chain
/// front ends ([`BatchJob`](crate::BatchJob), [`BatchRunner`](crate::BatchRunner))
/// can carry a single value.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionOptions {
    /// Scheduling-phase options.
    pub schedule: ScheduleOptions,
    /// Translation-phase options.
    pub translate: TranslateOptions,
    /// Simulation-phase options.
    pub simulate: SimulateOptions,
    /// Verification-phase options.
    pub verify: VerificationOptions,
    /// Telemetry collector shared by every phase of the chain: phase spans,
    /// engine counters and the `RunRecord` embedded into the final report
    /// all flow through it. Defaults to noop (records nothing, costs
    /// nothing). Collection mode never changes any phase result — see the
    /// determinism pins in `crates/verify/tests/obs_determinism.rs`.
    pub collector: polyobs::Collector,
}

impl SessionOptions {
    /// The recommended per-job configuration for batch and throughput
    /// runs: one simulated hyper-period, no VCD capture, and sequential
    /// in-job verification (when many jobs run concurrently, the
    /// parallelism belongs at the job level, not inside each verifier).
    /// Used by the `polychrony batch` CLI, the `batch_verification`
    /// example, the `batch_throughput` bench and the injected-fault demos.
    pub fn quick() -> Self {
        Self {
            simulate: SimulateOptions {
                hyperperiods: 1,
                vcd: VcdCapture::Off,
            },
            verify: VerificationOptions {
                workers: 1,
                ..VerificationOptions::default()
            },
            ..Self::default()
        }
    }

    /// Checks every phase's options for consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError::InvalidOptions`] raised by a phase.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.translate.validate()?;
        self.simulate.validate()?;
        self.verify.validate()
    }
}

/// One result-relevant option: the group and key it is filed under on the
/// wire, and its JSON encoding. The collector is not an option in this
/// sense — telemetry never changes a result — so it has no entry.
pub(crate) struct Field {
    /// The option group: `schedule`, `translate`, `simulate` or `verify`.
    group: &'static str,
    /// The option's key inside its group.
    key: &'static str,
    encode: fn(&SessionOptions) -> Json,
    /// Stores a decoded value; `None` when it has the wrong shape or label.
    decode: fn(&mut SessionOptions, &Json) -> Option<()>,
}

fn count(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn flag(v: &Json) -> Option<bool> {
    match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn label(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// Every result-relevant option, once. Enum values use the CLI's stable
/// labels (`edf`, `per-thread`, `product`, …).
pub(crate) const FIELDS: &[Field] = &[
    Field {
        group: "schedule",
        key: "policy",
        encode: |o| {
            label(match o.schedule.policy {
                SchedulingPolicy::RateMonotonic => "rm",
                SchedulingPolicy::EarliestDeadlineFirst => "edf",
                SchedulingPolicy::FixedPriority => "fp",
            })
        },
        decode: |o, v| {
            o.schedule.policy = match v.as_str()? {
                "rm" => SchedulingPolicy::RateMonotonic,
                "edf" => SchedulingPolicy::EarliestDeadlineFirst,
                "fp" => SchedulingPolicy::FixedPriority,
                _ => return None,
            };
            Some(())
        },
    },
    Field {
        group: "translate",
        key: "default_queue_size",
        encode: |o| Json::Num(o.translate.default_queue_size as f64),
        decode: |o, v| {
            o.translate.default_queue_size = count(v)?;
            Some(())
        },
    },
    Field {
        group: "simulate",
        key: "hyperperiods",
        encode: |o| Json::Num(o.simulate.hyperperiods as f64),
        decode: |o, v| {
            o.simulate.hyperperiods = v.as_u64()?;
            Some(())
        },
    },
    Field {
        group: "simulate",
        key: "vcd",
        encode: |o| match &o.simulate.vcd {
            VcdCapture::First => label("first"),
            VcdCapture::Off => label("off"),
            VcdCapture::Thread(name) => {
                Json::Obj(BTreeMap::from([("thread".to_string(), label(name))]))
            }
        },
        decode: |o, v| {
            o.simulate.vcd = match v {
                Json::Str(text) if text == "first" => VcdCapture::First,
                Json::Str(text) if text == "off" => VcdCapture::Off,
                Json::Obj(_) => VcdCapture::Thread(v.get("thread")?.as_str()?.to_string()),
                _ => return None,
            };
            Some(())
        },
    },
    Field {
        group: "verify",
        key: "enabled",
        encode: |o| Json::Bool(o.verify.enabled),
        decode: |o, v| {
            o.verify.enabled = flag(v)?;
            Some(())
        },
    },
    Field {
        group: "verify",
        key: "workers",
        encode: |o| Json::Num(o.verify.workers as f64),
        decode: |o, v| {
            o.verify.workers = count(v)?;
            Some(())
        },
    },
    Field {
        group: "verify",
        key: "hyperperiods",
        encode: |o| Json::Num(o.verify.hyperperiods as f64),
        decode: |o, v| {
            o.verify.hyperperiods = v.as_u64()?;
            Some(())
        },
    },
    Field {
        group: "verify",
        key: "scope",
        encode: |o| {
            label(match o.verify.scope {
                VerificationScope::PerThread => "per-thread",
                VerificationScope::Product => "product",
            })
        },
        decode: |o, v| {
            o.verify.scope = match v.as_str()? {
                "per-thread" => VerificationScope::PerThread,
                "product" => VerificationScope::Product,
                _ => return None,
            };
            Some(())
        },
    },
    Field {
        group: "verify",
        key: "properties",
        encode: |o| Json::Arr(o.verify.properties.iter().map(|p| label(&p.expr)).collect()),
        decode: |o, v| {
            o.verify.properties = v
                .as_arr()?
                .iter()
                .map(|p| p.as_str().map(PropertySpec::new))
                .collect::<Option<_>>()?;
            Some(())
        },
    },
];

/// Encodes the options of the named groups as one JSON object with an
/// object per group. `Json::Obj` is ordered by key, so equal options always
/// render to the same text — the artifact cache hashes that text.
pub(crate) fn groups_to_json(options: &SessionOptions, groups: &[&str]) -> Json {
    let mut out: BTreeMap<String, Json> = BTreeMap::new();
    for field in FIELDS.iter().filter(|f| groups.contains(&f.group)) {
        let group = out
            .entry(field.group.to_string())
            .or_insert_with(|| Json::Obj(BTreeMap::new()));
        if let Json::Obj(group) = group {
            group.insert(field.key.to_string(), (field.encode)(options));
        }
    }
    Json::Obj(out)
}

/// Encodes every result-relevant option as a JSON object with one object
/// per option group — the `options` payload of the wire protocol and the
/// daemon's job log. The collector never crosses the wire.
pub fn options_to_json(options: &SessionOptions) -> Json {
    groups_to_json(options, &["schedule", "translate", "simulate", "verify"])
}

/// Decodes [`options_to_json`] output. Missing groups and keys keep their
/// defaults (a client can send `{}`) and unknown keys are ignored (so job
/// logs that still carry retired options replay); a present key must have
/// the right shape and label, so a typoed policy is an error rather than a
/// silently different run.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOptions`] naming the malformed key.
pub fn options_from_json(v: &Json) -> Result<SessionOptions, CoreError> {
    let mut options = SessionOptions::default();
    for field in FIELDS {
        if let Some(value) = v.get(field.group).and_then(|g| g.get(field.key)) {
            (field.decode)(&mut options, value).ok_or_else(|| {
                CoreError::InvalidOptions(format!("bad {}.{} {value}", field.group, field.key))
            })?;
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        SessionOptions::default().validate().unwrap();
    }

    #[test]
    fn zero_values_are_rejected_with_the_offending_field() {
        let mut options = SessionOptions::default();
        options.simulate.hyperperiods = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("simulate.hyperperiods"), "{err}");

        let mut options = SessionOptions::default();
        options.verify.workers = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("verify.workers"), "{err}");

        let mut options = SessionOptions::default();
        options.verify.hyperperiods = 0;
        let err = options.validate().unwrap_err();
        assert!(err.to_string().contains("verify.hyperperiods"), "{err}");

        let mut options = SessionOptions::default();
        options.translate.default_queue_size = 0;
        let err = options.validate().unwrap_err();
        assert!(
            err.to_string().contains("translate.default_queue_size"),
            "{err}"
        );
    }

    #[test]
    fn malformed_property_specs_are_rejected_with_a_span() {
        let mut options = SessionOptions::default();
        options.verify.properties = vec![PropertySpec::new("always (Deadline implies")];
        let err = options.validate().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("verify.properties"), "{message}");
        assert!(message.contains('^'), "{message}");

        let mut options = SessionOptions::default();
        options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
        options.validate().unwrap();
    }

    #[test]
    fn disabled_verification_still_validates_bounds() {
        let mut options = SessionOptions::default();
        options.verify.enabled = false;
        options.verify.workers = 0;
        assert!(matches!(
            options.validate(),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn options_round_trip_all_enum_labels() {
        let mut options = SessionOptions::default();
        options.schedule.policy = SchedulingPolicy::RateMonotonic;
        options.simulate.vcd = VcdCapture::Thread("prod".to_string());
        options.verify.scope = VerificationScope::Product;
        options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
        let decoded = options_from_json(&options_to_json(&options)).unwrap();
        assert_eq!(decoded, options);
    }

    #[test]
    fn empty_options_object_decodes_to_defaults() {
        let decoded = options_from_json(&Json::Obj(BTreeMap::new())).unwrap();
        assert_eq!(decoded, SessionOptions::default());
    }

    #[test]
    fn bad_labels_are_rejected_with_the_offending_key() {
        for (text, key) in [
            (r#"{"schedule":{"policy":"fifo"}}"#, "schedule.policy"),
            (r#"{"verify":{"scope":"joint"}}"#, "verify.scope"),
            (r#"{"verify":{"workers":"two"}}"#, "verify.workers"),
        ] {
            let bad = polyobs::json::parse(text).unwrap();
            let err = options_from_json(&bad).unwrap_err();
            assert!(err.to_string().contains(key), "{err}");
        }
    }

    #[test]
    fn every_field_has_a_unique_group_and_key() {
        // A repeated group/key pair would collapse into one JSON entry.
        let encoded = options_to_json(&SessionOptions::default());
        let keys: usize = encoded
            .as_obj()
            .unwrap()
            .values()
            .map(|group| group.as_obj().unwrap().len())
            .sum();
        assert_eq!(keys, FIELDS.len());
    }
}
