//! Guarantees of the staged pipeline: intermediate artifacts are usable
//! values, `BatchRunner` verdicts are deterministic and order-stable
//! regardless of the worker count, user properties ride in the options of
//! every whole-chain run, and out-of-range options are rejected upfront
//! instead of silently clamped.

use polychrony_core::aadl::synth::{generate_source, SyntheticSpec};
use polychrony_core::{BatchJob, BatchRunner, CoreError, Session, SessionOptions};

/// Fast per-job options for the batch tests: one simulated hyper-period, no
/// waveform, sequential in-job verification.
fn quick_job_options() -> SessionOptions {
    SessionOptions::quick()
}

#[test]
fn intermediate_artifacts_are_available_without_running_later_phases() {
    // Stop after scheduling: the instance, task set, schedule, baseline and
    // affine export are all inspectable with no translation, simulation or
    // verification having run.
    let scheduled = Session::new()
        .parse_case_study()
        .unwrap()
        .instantiate("sysProdCons.impl")
        .unwrap()
        .schedule()
        .unwrap();
    assert_eq!(scheduled.instance.root.path, "sysProdCons");
    assert_eq!(scheduled.schedule.hyperperiod, 24);
    assert!(scheduled.schedule.is_valid());
    assert!(scheduled.affine.clock_count() > 0);
    assert!(scheduled.affine.verified_constraints > 0);
    assert!(scheduled.baseline.response_times.schedulable);

    // One more phase: the flat SIGNAL model and the static analyses, still
    // without simulating.
    let analyzed = scheduled.translate().unwrap().analyze().unwrap();
    assert_eq!(analyzed.thread_units.len(), 4);
    assert!(analyzed.static_analysis.determinism.is_deterministic());
    assert!(analyzed.static_analysis.causality_cycle.is_none());
}

#[test]
fn a_reused_schedule_artifact_feeds_two_simulation_configurations() {
    let analyzed = Session::new()
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
    // The artifact is a value: clone once, simulate twice, no re-parse /
    // re-schedule / re-translate — and the runs agree.
    let one = analyzed.clone().simulate().unwrap();
    let other = analyzed.simulate().unwrap();
    assert_eq!(one.simulations.len(), other.simulations.len());
    for (thread, sim) in &one.simulations {
        assert_eq!(sim, &other.simulations[thread], "{thread}");
    }
}

#[test]
fn batch_reports_are_order_stable_and_worker_count_independent() {
    // >= 8 concurrent jobs: the case study plus seven synthetic workloads.
    let jobs: Vec<BatchJob> = (0..8)
        .map(|i| {
            let job = if i == 0 {
                BatchJob::case_study("case-study")
            } else {
                let threads = [4, 6, 8][(i - 1) % 3];
                BatchJob::synthetic(format!("job-{i}"), &SyntheticSpec::new(threads, 1))
            };
            job.with_options(quick_job_options())
        })
        .collect();

    let sequential = BatchRunner::new().with_workers(1).run(&jobs).unwrap();
    let parallel = BatchRunner::new().with_workers(4).run(&jobs).unwrap();

    assert_eq!(sequential.reports.len(), 8);
    assert_eq!(parallel.reports.len(), 8);
    assert!(sequential.all_passed(), "{}", sequential.summary());
    assert!(parallel.all_passed(), "{}", parallel.summary());

    for (seq, par) in sequential.reports.iter().zip(&parallel.reports) {
        // Order stability: reports come back in submission order.
        assert_eq!(seq.index, par.index);
        assert_eq!(seq.job, par.job);
        assert_eq!(seq.job, jobs[seq.index].name);
        // Determinism: the full report (schedule, verdicts, simulation
        // stats) is identical whatever the worker count; only the wall
        // clock differs.
        assert_eq!(seq.outcome, par.outcome, "job {}", seq.job);
    }
}

#[test]
fn batch_jobs_carry_their_own_options() {
    // Two jobs over the same source with different policies: shared-nothing
    // sessions mean each report reflects its own job's options.
    let mut rm = quick_job_options();
    rm.schedule.policy = polychrony_core::sched::SchedulingPolicy::RateMonotonic;
    let jobs = vec![
        BatchJob::new(
            "edf",
            generate_source(&SyntheticSpec::new(4, 1)),
            "top.impl",
        )
        .with_options(quick_job_options()),
        BatchJob::new("rm", generate_source(&SyntheticSpec::new(4, 1)), "top.impl")
            .with_options(rm),
    ];
    let results = BatchRunner::new().with_workers(2).run(&jobs).unwrap();
    let edf_report = results.reports[0].outcome.as_ref().unwrap();
    let rm_report = results.reports[1].outcome.as_ref().unwrap();
    assert_eq!(
        edf_report.schedule.policy,
        polychrony_core::sched::SchedulingPolicy::EarliestDeadlineFirst
    );
    assert_eq!(
        rm_report.schedule.policy,
        polychrony_core::sched::SchedulingPolicy::RateMonotonic
    );
}

#[test]
fn zero_workers_and_zero_hyperperiods_are_rejected() {
    // Whole chain: every zero-valued knob fails with InvalidOptions before
    // any phase runs (regression for the old silent `.max(1)` clamping).
    let zeroed: [fn(&mut SessionOptions); 4] = [
        |o| o.simulate.hyperperiods = 0,
        |o| o.verify.workers = 0,
        |o| o.verify.hyperperiods = 0,
        |o| o.translate.default_queue_size = 0,
    ];
    for zero in zeroed {
        let mut options = SessionOptions::default();
        zero(&mut options);
        let err = BatchJob::case_study("zero")
            .with_options(options)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidOptions(_)),
            "expected InvalidOptions, got {err}"
        );
    }

    // Runner: a zero-sized pool is a configuration error, not one worker.
    let err = BatchRunner::new().with_workers(0).run(&[]).unwrap_err();
    assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");

    // Demo entry point: no silent clamp either.
    let err = polychrony_core::deadline_overrun_demo(0).unwrap_err();
    assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
}

#[test]
fn user_properties_flow_through_session_and_batch() {
    use polychrony_core::PropertySpec;

    let with_property = |expr: &str| {
        let mut options = SessionOptions::default();
        options.simulate.hyperperiods = 1;
        options.verify.properties = vec![PropertySpec::new(expr)];
        BatchJob::case_study("prodcons").with_options(options).run()
    };
    // One job: the user property appears in the report's property list and
    // every thread gets a verdict for it.
    let report = with_property("always (Alarm implies once Deadline)").unwrap();
    let verification = report.verification.as_ref().unwrap();
    assert!(
        verification
            .properties
            .contains(&"always (Alarm implies once Deadline)".to_string()),
        "{:?}",
        verification.properties
    );
    for outcome in verification.outcomes.values() {
        assert_eq!(outcome.verdicts.len(), 3, "built-ins + the user property");
        assert!(outcome.is_violation_free(), "{}", outcome.summary());
    }

    // A malformed expression is rejected upfront with the offending span.
    let err = with_property("always (Deadline implies").unwrap_err();
    assert!(matches!(err, CoreError::InvalidOptions(_)), "{err}");
    assert!(err.to_string().contains('^'), "{err}");

    // Batch: every job checks the property list riding in its options.
    let mut options = quick_job_options();
    options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
    let jobs = vec![
        BatchJob::case_study("prodcons").with_options(options.clone()),
        BatchJob::synthetic("synthetic-4t", &SyntheticSpec::new(4, 1)).with_options(options),
    ];
    let results = BatchRunner::new().with_workers(2).run(&jobs).unwrap();
    assert!(results.all_passed(), "{}", results.summary());
    for report in &results.reports {
        let verification = report
            .outcome
            .as_ref()
            .unwrap()
            .verification
            .as_ref()
            .unwrap();
        assert!(
            verification
                .properties
                .contains(&"never raised(*Alarm*)".to_string()),
            "{:?}",
            verification.properties
        );
    }
}
