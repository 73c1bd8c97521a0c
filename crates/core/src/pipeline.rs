//! The monolithic tool-chain front end: a thin convenience facade over the
//! staged [`Session`] API (parse → instantiate → schedule → export →
//! translate → analyse → simulate → verify in one call).
//!
//! Use [`ToolChain`] when you want the whole pipeline and one aggregated
//! [`ToolChainReport`]; use [`Session`] when you want to stop after a
//! phase, inspect or reuse an intermediate artifact, or configure phases
//! individually; use [`crate::BatchRunner`] to push many models through
//! concurrently.

use aadl::instance::InstanceModel;

use crate::error::CoreError;
use crate::options::{PropertySpec, SessionOptions, VcdCapture, VerificationScope};
use crate::report::ToolChainReport;
use crate::session::Session;

use sched::SchedulingPolicy;

/// The end-to-end tool chain (the ASME2SSME + Polychrony flow of the
/// paper), as a single-call facade over the staged [`Session`] API.
/// Out-of-range options are rejected when the run starts; nothing is
/// silently clamped.
#[derive(Debug, Clone, Default)]
pub struct ToolChain {
    options: SessionOptions,
}

impl ToolChain {
    /// Creates a tool chain with default options (EDF, 4 hyper-periods).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tool chain with explicit per-phase options.
    pub fn with_options(options: SessionOptions) -> Self {
        Self { options }
    }

    /// Sets the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.options.schedule.policy = policy;
        self
    }

    /// Sets the number of simulated hyper-periods (must be at least 1;
    /// validated when the run starts).
    #[must_use]
    pub fn with_hyperperiods(mut self, hyperperiods: u64) -> Self {
        self.options.simulate.hyperperiods = hyperperiods;
        self
    }

    /// Selects which thread's co-simulation is captured as a VCD waveform.
    #[must_use]
    pub fn with_vcd(mut self, vcd: VcdCapture) -> Self {
        self.options.simulate.vcd = vcd;
        self
    }

    /// Enables or disables the state-space verification phase.
    #[must_use]
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.options.verify.enabled = verify;
        self
    }

    /// Sets the worker count of the parallel reachability engine (must be
    /// at least 1; validated when the run starts).
    #[must_use]
    pub fn with_verify_workers(mut self, workers: usize) -> Self {
        self.options.verify.workers = workers;
        self
    }

    /// Sets the number of hyper-periods the verification explores (must be
    /// at least 1; validated when the run starts).
    #[must_use]
    pub fn with_verify_hyperperiods(mut self, hyperperiods: u64) -> Self {
        self.options.verify.hyperperiods = hyperperiods;
        self
    }

    /// Selects the verification scope (per-thread only, or per-thread plus
    /// the product of the communicating threads).
    #[must_use]
    pub fn with_verify_scope(mut self, scope: VerificationScope) -> Self {
        self.options.verify.scope = scope;
        self
    }

    /// Adds a user past-time LTL property to check (repeatable; the
    /// expression is validated when the run starts).
    #[must_use]
    pub fn with_property(mut self, expr: impl Into<String>) -> Self {
        self.options.verify.properties.push(PropertySpec::new(expr));
        self
    }

    /// Installs a telemetry collector: every phase opens a span on it, the
    /// exploration engine streams counters into it, and the final report
    /// embeds its counter snapshot. Collection mode never changes any
    /// result (see the determinism pins in `polyverify`'s
    /// `obs_determinism` tests).
    #[must_use]
    pub fn with_collector(mut self, collector: polyobs::Collector) -> Self {
        self.options.collector = collector;
        self
    }

    /// Opens a staged [`Session`] configured with this tool chain's
    /// options, for callers that want to drop down to the phase-by-phase
    /// API.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptions`] when any option is out of
    /// range.
    pub fn session(&self) -> Result<Session, CoreError> {
        Session::with_options(self.options.clone())
    }

    /// Runs the whole pipeline on AADL source text, instantiating
    /// `root_classifier`.
    ///
    /// # Errors
    ///
    /// Returns the first error of any phase, tagged by [`CoreError`]
    /// ([`CoreError::InvalidOptions`] before any phase runs).
    pub fn run_source(
        &self,
        source: &str,
        root_classifier: &str,
    ) -> Result<ToolChainReport, CoreError> {
        Ok(self
            .session()?
            .parse(source)?
            .instantiate(root_classifier)?
            .schedule()?
            .translate()?
            .analyze()?
            .simulate()?
            .verify()?
            .into_report())
    }

    /// Runs the whole pipeline on the ProducerConsumer case study of the
    /// paper.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ToolChain::run_source`].
    pub fn run_case_study(&self) -> Result<ToolChainReport, CoreError> {
        self.run_source(aadl::case_study::PRODUCER_CONSUMER_AADL, "sysProdCons.impl")
    }

    /// Runs the pipeline on an already-instantiated AADL model.
    ///
    /// # Errors
    ///
    /// Returns the first error of any phase, tagged by [`CoreError`]
    /// ([`CoreError::InvalidOptions`] before any phase runs).
    pub fn run_instance(&self, instance: &InstanceModel) -> Result<ToolChainReport, CoreError> {
        Ok(self
            .session()?
            .load_instance(instance.clone())
            .schedule()?
            .translate()?
            .analyze()?
            .simulate()?
            .verify()?
            .into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aadl::synth::{generate_instance, SyntheticSpec};

    #[test]
    fn case_study_pipeline_end_to_end() {
        let report = ToolChain::new().run_case_study().unwrap();
        assert_eq!(report.root, "sysProdCons");
        assert_eq!(report.schedule.hyperperiod, 24);
        assert_eq!(report.simulations.len(), 4);
        assert!(report.all_checks_passed(), "{}", report.summary());
        assert!(report.vcd.contains("$enddefinitions"));
        assert_eq!(report.vcd_thread.as_deref(), Some("thProducer"));
        assert_eq!(report.category_counts["thread"], 4);
        assert!(report.summary().contains("hyper-period 24"));
        // Verification phase: every thread is alarm-free and deadlock-free
        // over the whole 24-tick hyper-period.
        let verification = report.verification.as_ref().expect("verification enabled");
        assert_eq!(verification.outcomes.len(), 4);
        assert!(
            verification.is_violation_free(),
            "{}",
            verification.summary()
        );
        for outcome in verification.outcomes.values() {
            assert_eq!(outcome.stats.depth, 24, "{}", outcome.summary());
            assert!(outcome.is_violation_free());
        }
        assert!(report.summary().contains("verification"));
    }

    #[test]
    fn verification_can_be_disabled() {
        let report = ToolChain::new()
            .with_verification(false)
            .with_hyperperiods(1)
            .run_case_study()
            .unwrap();
        assert!(report.verification.is_none());
        assert!(report.all_checks_passed());
        assert!(report.summary().contains("verification        : disabled"));
    }

    #[test]
    fn verification_worker_count_does_not_change_verdicts() {
        let sequential = ToolChain::new()
            .with_hyperperiods(1)
            .with_verify_workers(1)
            .run_case_study()
            .unwrap();
        let parallel = ToolChain::new()
            .with_hyperperiods(1)
            .with_verify_workers(4)
            .run_case_study()
            .unwrap();
        let seq = sequential.verification.unwrap();
        let par = parallel.verification.unwrap();
        for (thread, outcome) in &seq.outcomes {
            assert_eq!(outcome.verdicts, par.outcomes[thread].verdicts, "{thread}");
        }
    }

    #[test]
    fn policies_produce_valid_schedules() {
        for policy in SchedulingPolicy::ALL {
            let report = ToolChain::new()
                .with_policy(policy)
                .with_hyperperiods(1)
                .run_case_study()
                .unwrap();
            assert!(report.schedule.is_valid(), "{policy}");
        }
    }

    #[test]
    fn synthetic_model_runs_through_the_pipeline() {
        let instance = generate_instance(&SyntheticSpec::new(6, 1)).unwrap();
        let report = ToolChain::new()
            .with_hyperperiods(1)
            .run_instance(&instance)
            .unwrap();
        assert_eq!(report.simulations.len(), 6);
        assert!(report.static_analysis.clock_count > 6);
    }

    #[test]
    fn parse_errors_are_propagated() {
        let err = ToolChain::new()
            .run_source("package broken", "nothing")
            .unwrap_err();
        assert!(matches!(err, CoreError::Aadl(_)));
    }

    #[test]
    fn zero_options_are_rejected_instead_of_clamped() {
        for chain in [
            ToolChain::new().with_hyperperiods(0),
            ToolChain::new().with_verify_workers(0),
            ToolChain::new().with_verify_hyperperiods(0),
            ToolChain::with_options(SessionOptions {
                translate: crate::options::TranslateOptions {
                    default_queue_size: 0,
                },
                ..SessionOptions::default()
            }),
        ] {
            let err = chain.run_case_study().unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidOptions(_)),
                "expected InvalidOptions, got {err}"
            );
        }
    }

    #[test]
    fn vcd_capture_is_an_explicit_option() {
        let off = ToolChain::new()
            .with_verification(false)
            .with_hyperperiods(1)
            .with_vcd(VcdCapture::Off)
            .run_case_study()
            .unwrap();
        assert!(off.vcd.is_empty());
        assert_eq!(off.vcd_thread, None);
        assert!(off.summary().contains("vcd capture         : none"));

        let consumer = ToolChain::new()
            .with_verification(false)
            .with_hyperperiods(1)
            .with_vcd(VcdCapture::Thread("thConsumer".into()))
            .run_case_study()
            .unwrap();
        assert_eq!(consumer.vcd_thread.as_deref(), Some("thConsumer"));
        assert!(consumer
            .summary()
            .contains("vcd capture         : thConsumer"));

        // A named thread that does not exist leaves no waveform instead of
        // silently falling back to another thread.
        let missing = ToolChain::new()
            .with_verification(false)
            .with_hyperperiods(1)
            .with_vcd(VcdCapture::Thread("thGhost".into()))
            .run_case_study()
            .unwrap();
        assert!(missing.vcd.is_empty());
        assert_eq!(missing.vcd_thread, None);
    }
}
