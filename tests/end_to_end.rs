//! E10 and the whole pipeline: the tool chain runs the case study and
//! synthetic models end to end — parse, instantiate, schedule, export,
//! translate, analyse, simulate, verify — and the VCD co-simulation output
//! is well-formed.

use polychrony_core::aadl::synth::SyntheticSpec;
use polychrony_core::sched::SchedulingPolicy;
use polychrony_core::{BatchJob, CoreError, SessionOptions, ToolChainReport, VcdCapture};

/// The case study through the whole chain, under the default options as
/// changed by `configure`.
fn case_study(configure: impl FnOnce(&mut SessionOptions)) -> ToolChainReport {
    let mut options = SessionOptions::default();
    configure(&mut options);
    BatchJob::case_study("case-study")
        .with_options(options)
        .run()
        .unwrap()
}

#[test]
fn case_study_end_to_end_all_checks_pass() {
    let report = case_study(|_| {});
    assert_eq!(report.root, "sysProdCons");
    assert_eq!(report.component_count, 10);
    assert_eq!(report.category_counts["thread"], 4);
    assert_eq!(report.schedule.hyperperiod, 24);
    assert!(report.schedule.is_valid());
    assert!(report.static_analysis.causality_cycle.is_none());
    assert!(report.static_analysis.determinism.is_deterministic());
    assert_eq!(report.simulations.len(), 4);
    for (thread, sim) in &report.simulations {
        assert!(sim.is_alarm_free(), "alarm fired for {thread}");
        assert_eq!(
            sim.instants,
            24 * 4,
            "4 hyper-periods simulated for {thread}"
        );
    }
    assert!(report.all_checks_passed(), "{}", report.summary());
    assert!(report.vcd.contains("$enddefinitions"));
    assert_eq!(report.vcd_thread.as_deref(), Some("thProducer"));
    assert!(report.summary().contains("hyper-period 24"));
    // Baseline agrees.
    assert!(report.baseline.response_times.schedulable);
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
    let report = case_study(|options| {
        options.verify.enabled = false;
        options.simulate.hyperperiods = 1;
    });
    assert!(report.verification.is_none());
    assert!(report.all_checks_passed());
    assert!(report.summary().contains("verification        : disabled"));
}

#[test]
fn verification_worker_count_does_not_change_verdicts() {
    let run = |workers| {
        case_study(|options| {
            options.simulate.hyperperiods = 1;
            options.verify.workers = workers;
        })
        .verification
        .unwrap()
    };
    let (seq, par) = (run(1), run(4));
    for (thread, outcome) in &seq.outcomes {
        assert_eq!(outcome.verdicts, par.outcomes[thread].verdicts, "{thread}");
    }
}

#[test]
fn vcd_output_is_wellformed() {
    let report = case_study(|options| options.simulate.hyperperiods = 2);
    let vcd = &report.vcd;
    assert!(vcd.starts_with("$date"));
    assert!(vcd.contains("$timescale 1000000 ns $end"));
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(vcd.contains("$dumpvars"));
    // One timestamp per simulated instant plus the closing one.
    let timestamps = vcd.lines().filter(|l| l.starts_with('#')).count();
    assert!(
        timestamps >= 48,
        "expected at least 48 timestamps, got {timestamps}"
    );
    // Dispatch and Alarm signals are visible in the waveform.
    assert!(vcd.contains("Dispatch"));
    assert!(vcd.contains("Alarm"));
}

#[test]
fn vcd_capture_is_an_explicit_option() {
    let capture = |vcd| {
        case_study(|options| {
            options.verify.enabled = false;
            options.simulate.hyperperiods = 1;
            options.simulate.vcd = vcd;
        })
    };
    let off = capture(VcdCapture::Off);
    assert!(off.vcd.is_empty());
    assert_eq!(off.vcd_thread, None);
    assert!(off.summary().contains("vcd capture         : none"));

    let consumer = capture(VcdCapture::Thread("thConsumer".into()));
    assert_eq!(consumer.vcd_thread.as_deref(), Some("thConsumer"));
    assert!(consumer
        .summary()
        .contains("vcd capture         : thConsumer"));

    // A named thread that does not exist leaves no waveform instead of
    // silently falling back to another thread.
    let missing = capture(VcdCapture::Thread("thGhost".into()));
    assert!(missing.vcd.is_empty());
    assert_eq!(missing.vcd_thread, None);
}

#[test]
fn rm_and_edf_pipelines_agree_on_the_case_study() {
    let run = |policy| {
        case_study(|options| {
            options.schedule.policy = policy;
            options.simulate.hyperperiods = 1;
        })
    };
    let edf = run(SchedulingPolicy::EarliestDeadlineFirst);
    let rm = run(SchedulingPolicy::RateMonotonic);
    assert_eq!(edf.schedule.hyperperiod, rm.schedule.hyperperiod);
    assert_eq!(edf.schedule.entries.len(), rm.schedule.entries.len());
    assert_eq!(edf.schedule.busy_time(), rm.schedule.busy_time());
    assert!(edf.all_checks_passed() && rm.all_checks_passed());
}

#[test]
fn every_policy_produces_a_valid_schedule() {
    for policy in SchedulingPolicy::ALL {
        let report = case_study(|options| {
            options.schedule.policy = policy;
            options.simulate.hyperperiods = 1;
        });
        assert!(report.schedule.is_valid(), "{policy}");
    }
}

#[test]
fn synthetic_models_scale_through_the_whole_pipeline() {
    // 4, 6 and 8 threads keep the synthetic harmonic task set under full
    // utilisation so a single-processor static schedule exists; larger
    // models are exercised (translation + clock calculus only) in the
    // scalability benchmark.
    for threads in [4usize, 6, 8] {
        let mut options = SessionOptions::default();
        options.schedule.policy = SchedulingPolicy::EarliestDeadlineFirst;
        options.simulate.hyperperiods = 1;
        options.translate.default_queue_size = 2;
        let report = BatchJob::synthetic("synthetic", &SyntheticSpec::new(threads, 1))
            .with_options(options)
            .run()
            .unwrap();
        assert_eq!(report.simulations.len(), threads);
        assert!(report.static_analysis.clock_count > threads);
        assert!(report.schedule.is_valid());
    }
}

#[test]
fn malformed_models_fail_with_a_tagged_error() {
    // A root classifier the package does not declare, and a package cut
    // off mid-declaration.
    for (source, root) in [
        ("package p\npublic\nend p;", "missing.impl"),
        ("package broken", "nothing"),
    ] {
        let err = BatchJob::new("malformed", source, root).run().unwrap_err();
        assert!(matches!(err, CoreError::Aadl(_)), "{err}");
        assert!(err.to_string().contains("aadl front end"), "{err}");
    }
}
