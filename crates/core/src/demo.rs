//! Ready-made demonstration scenarios over the built-in case study, shared
//! by the CLI and the examples so the recipe cannot drift between them.
//! Both scenarios tamper with the case study's [`Translated`] artifact, so
//! they verify exactly the models the pipeline builds, without running the
//! analyze and simulate phases they do not use.

use polyverify::{
    inject_connection_latency, inject_deadline_overrun, InjectedFault, InjectedLinkFault,
    InputSpace, ProductSystem, ProductVerifier, Property, ReplayReport, VerificationOutcome,
    Verifier, VerifyOptions,
};
use signal_moc::process::Process;
use signal_moc::trace::Trace;

use crate::error::CoreError;
use crate::options::SessionOptions;
use crate::session::{end_to_end_response_for, port_link_for, Session, Translated};

/// The case study through the translate phase under the quick options
/// (EDF): the artifact both scenarios tamper with.
fn case_study() -> Result<Translated, CoreError> {
    Session::with_options(SessionOptions::quick())?
        .parse_case_study()?
        .instantiate("sysProdCons.impl")?
        .schedule()?
        .translate()
}

/// The injected-deadline-overrun scenario: the case-study producer thread
/// under its EDF schedule, with the completion of the job guarding the
/// first deadline delayed past that deadline. Verifying `inputs` against
/// `never-raised(*Alarm*)` must produce a counterexample that replays.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineOverrunDemo {
    /// The flattened producer process.
    pub process: Process,
    /// The tampered scheduled timing trace.
    pub inputs: Trace,
    /// Where the fault was injected.
    pub fault: InjectedFault,
}

impl DeadlineOverrunDemo {
    /// Model-checks the tampered schedule for `never-raised(*Alarm*)` over
    /// the full trace with `workers` threads, and replays any counterexample
    /// in the simulator. This is the check-and-replay half shared by the
    /// CLI and the `verification` example (the front ends only format the
    /// result), so the demonstrated recipe cannot drift between them.
    ///
    /// # Errors
    ///
    /// Propagates verifier and replay errors as [`CoreError`].
    pub fn verify_and_replay(
        &self,
        workers: usize,
    ) -> Result<(VerificationOutcome, Option<ReplayReport>), CoreError> {
        self.verify_properties_and_replay(workers, &[Property::NeverRaised("*Alarm*".into())])
    }

    /// Like [`DeadlineOverrunDemo::verify_and_replay`], but checking a
    /// caller-chosen property list — e.g. a user-written past-time LTL
    /// expression from `polychrony verify --inject-deadline-bug
    /// --property '<expr>'`, demonstrating that the injected fault is
    /// caught by a property supplied on the command line alone.
    ///
    /// # Errors
    ///
    /// Propagates verifier and replay errors as [`CoreError`].
    pub fn verify_properties_and_replay(
        &self,
        workers: usize,
        properties: &[Property],
    ) -> Result<(VerificationOutcome, Option<ReplayReport>), CoreError> {
        let verifier = Verifier::new(
            &self.process,
            VerifyOptions::default()
                .with_workers(workers)
                .with_depth_bound(self.inputs.len()),
        )?;
        let outcome = verifier.verify(&InputSpace::Scheduled(self.inputs.clone()), properties)?;
        let replay = match outcome.violations().next() {
            Some((_, cex)) => Some(cex.replay(&self.process)?),
            None => None,
        };
        Ok((outcome, replay))
    }
}

/// Builds the deadline-overrun demo over `hyperperiods` repetitions of the
/// producer's schedule.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOptions`] when `hyperperiods` is 0, and
/// propagates any tool-chain phase error as a [`CoreError`].
pub fn deadline_overrun_demo(hyperperiods: u64) -> Result<DeadlineOverrunDemo, CoreError> {
    if hyperperiods == 0 {
        return Err(CoreError::InvalidOptions(
            "demo.hyperperiods must be at least 1 (got 0)".into(),
        ));
    }
    let translated = case_study()?;
    let producer = translated
        .thread_units
        .into_iter()
        .find(|unit| unit.model.thread_name == "thProducer")
        .ok_or_else(|| CoreError::Scheduling("case study has no thProducer thread unit".into()))?;
    let mut inputs = producer
        .model
        .timing_trace(&translated.schedule, hyperperiods);
    let fault = inject_deadline_overrun(&mut inputs, "").ok_or_else(|| {
        CoreError::Scheduling("producer schedule has no deadline/resume pair to tamper with".into())
    })?;
    Ok(DeadlineOverrunDemo {
        process: producer.model.flat,
        inputs,
        fault,
    })
}

/// The injected connection-latency scenario: the case-study thread product
/// under its EDF schedule, with the `cProdStartTimer` connection (producer →
/// producer timer) delayed so the sent start-timer event misses the timer
/// thread's next input freeze. The cross-thread
/// [`Property::EndToEndResponse`] over the link — an emission must be
/// frozen by the receiver within one of its periods — is violated on the
/// product, while per-thread verification (which never sees the connection)
/// still passes.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionLatencyDemo {
    /// The wired thread product with the tampered link.
    pub system: ProductSystem,
    /// Where the fault was injected.
    pub fault: InjectedLinkFault,
    /// The end-to-end response property that catches the fault.
    pub property: Property,
    /// The verification depth bound in ticks (initially one joint
    /// hyper-period; scale it to explore more repetitions).
    pub horizon: usize,
}

impl ConnectionLatencyDemo {
    /// Model-checks the tampered product for the end-to-end response (plus
    /// alarm freedom, which the fault must *not* break — that is the point:
    /// the bug is invisible to the per-thread alarm) with `workers`
    /// threads, and replays any counterexample in the lockstep
    /// co-simulation.
    ///
    /// # Errors
    ///
    /// Propagates verifier and replay errors as [`CoreError`].
    pub fn verify_and_replay(
        &self,
        workers: usize,
    ) -> Result<(VerificationOutcome, Option<ReplayReport>), CoreError> {
        self.verify_properties_and_replay(
            workers,
            &[
                self.property.clone(),
                Property::NeverRaised("*Alarm*".into()),
            ],
        )
    }

    /// Like [`ConnectionLatencyDemo::verify_and_replay`], but checking a
    /// caller-chosen property list over the tampered product — e.g. a
    /// user-written `always (<link>_sent implies <link>_consumed within N)`
    /// from the command line, catching the connection fault without any
    /// built-in property.
    ///
    /// # Errors
    ///
    /// Propagates verifier and replay errors as [`CoreError`].
    pub fn verify_properties_and_replay(
        &self,
        workers: usize,
        properties: &[Property],
    ) -> Result<(VerificationOutcome, Option<ReplayReport>), CoreError> {
        let verifier = ProductVerifier::new(
            self.system.clone(),
            VerifyOptions::default()
                .with_workers(workers)
                .with_depth_bound(self.horizon),
        )?;
        let outcome = verifier.verify(properties)?;
        let replay = match outcome.violations().next() {
            Some((_, cex)) => Some(verifier.replay(cex)?),
            None => None,
        };
        Ok((outcome, replay))
    }
}

/// Builds the connection-latency demo: the full case-study thread product,
/// with `added_latency` extra ticks injected on the `cProdStartTimer`
/// connection. An extra latency of the producer-timer period (8 ticks) is
/// enough to push every delivery past the receiver's freeze.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOptions`] when `added_latency` is 0, and
/// propagates any tool-chain phase error as a [`CoreError`].
pub fn connection_latency_demo(added_latency: usize) -> Result<ConnectionLatencyDemo, CoreError> {
    if added_latency == 0 {
        return Err(CoreError::InvalidOptions(
            "demo.added_latency must be at least 1 (got 0)".into(),
        ));
    }
    let translated = case_study()?;
    let mut links: Vec<_> = translated.connections.iter().map(port_link_for).collect();
    let fault = inject_connection_latency(&mut links, "cProdStartTimer", added_latency)
        .ok_or_else(|| {
            CoreError::Scheduling(
                "case study has no cProdStartTimer connection to tamper with".into(),
            )
        })?;
    let tampered = links
        .iter()
        .find(|l| l.name == fault.link)
        .expect("the tampered link exists");
    let property =
        end_to_end_response_for(tampered, &translated.tasks, translated.schedule.hyperperiod);
    let components = translated
        .thread_units
        .iter()
        .map(|unit| unit.product_component(&translated.schedule))
        .collect();
    let system = ProductSystem::new(components, links)?;
    let horizon = system.horizon();
    Ok(ConnectionLatencyDemo {
        system,
        fault,
        property,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hyperperiods_is_rejected() {
        assert!(matches!(
            deadline_overrun_demo(0),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    /// Pins the scenario exactly: the producer's first job resumes at tick
    /// 1 under EDF, the overrun moves it past the deadline at tick 4, and
    /// the alarm is found there after 6 states.
    #[test]
    fn demo_is_found_and_replays() {
        let demo = deadline_overrun_demo(1).unwrap();
        assert_eq!(
            demo.fault,
            InjectedFault {
                resume_moved_from: 1,
                resume_moved_to: Some(5),
                deadline_tick: 4,
            }
        );
        assert_eq!(demo.inputs.len(), 24);
        let (outcome, replay) = demo.verify_and_replay(2).unwrap();
        let stats = &outcome.stats;
        assert_eq!(
            (stats.states, stats.transitions, stats.depth),
            (6, 5, 5),
            "{}",
            outcome.summary()
        );
        let (_, cex) = outcome.violations().next().expect("the alarm is found");
        assert_eq!(cex.violation_instant, 4);
        let replay = replay.expect("violation carries a replay");
        assert!(replay.reproduced, "{}", replay.detail);
    }

    #[test]
    fn zero_added_latency_is_rejected() {
        assert!(matches!(
            connection_latency_demo(0),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    /// Pins the scenario exactly: the four-thread product under EDF, the
    /// undelayed `cProdStartTimer` link delayed by 8 ticks, and the
    /// receiver-period response violated at instant 9, both within one
    /// hyper-period and with the horizon scaled to four.
    #[test]
    fn connection_demo_is_found_and_replays_in_lockstep() {
        let mut demo = connection_latency_demo(8).unwrap();
        assert_eq!(
            demo.fault,
            InjectedLinkFault {
                link: "cProdStartTimer".into(),
                original_latency: 0,
                added_latency: 8,
            }
        );
        let components: Vec<&str> = demo
            .system
            .components()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            components,
            ["thProducer", "thConsumer", "thProdTimer", "thConsTimer"]
        );
        assert_eq!(
            demo.property,
            Property::EndToEndResponse {
                from: "cProdStartTimer_sent".into(),
                to: "cProdStartTimer_consumed".into(),
                bound: 8,
            }
        );
        assert_eq!(demo.horizon, 24);
        let (outcome, replay) = demo.verify_and_replay(2).unwrap();
        let stats = &outcome.stats;
        assert_eq!(
            (stats.states, stats.transitions, stats.depth),
            (25, 96, 24),
            "{}",
            outcome.summary()
        );
        let (_, cex) = outcome.violations().next().expect("the delay is caught");
        assert_eq!(cex.violation_instant, 9);
        // The end-to-end response is violated ...
        assert!(
            outcome.verdicts[0].verdict.is_violated(),
            "{}",
            outcome.summary()
        );
        // ... while the alarm (the only per-thread-visible property) is not.
        assert!(
            outcome.verdicts[1].verdict.passed(),
            "{}",
            outcome.summary()
        );
        let replay = replay.expect("violation carries a replay");
        assert!(replay.reproduced, "{}", replay.detail);

        demo.horizon *= 4;
        let (outcome, _) = demo.verify_and_replay(2).unwrap();
        let stats = &outcome.stats;
        assert_eq!(
            (stats.states, stats.transitions, stats.depth),
            (33, 132, 33),
            "{}",
            outcome.summary()
        );
        let (_, cex) = outcome.violations().next().expect("the delay is caught");
        assert_eq!(cex.violation_instant, 9);
    }
}
