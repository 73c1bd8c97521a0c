//! E10 and the whole pipeline: the tool chain runs the case study and
//! synthetic models end to end — parse, instantiate, schedule, export,
//! translate, analyse, simulate — and the VCD co-simulation output is
//! well-formed.

use polychrony_core::aadl::synth::{generate_instance, SyntheticSpec};
use polychrony_core::sched::SchedulingPolicy;
use polychrony_core::{SessionOptions, ToolChain};

#[test]
fn case_study_end_to_end_all_checks_pass() {
    let report = ToolChain::new().run_case_study().unwrap();
    assert_eq!(report.root, "sysProdCons");
    assert_eq!(report.component_count, 10);
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
    assert!(report.all_checks_passed());
    // Baseline agrees.
    assert!(report.baseline.response_times.schedulable);
}

#[test]
fn vcd_output_is_wellformed() {
    let report = ToolChain::new()
        .with_hyperperiods(2)
        .run_case_study()
        .unwrap();
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
fn rm_and_edf_pipelines_agree_on_the_case_study() {
    let edf = ToolChain::new()
        .with_policy(SchedulingPolicy::EarliestDeadlineFirst)
        .with_hyperperiods(1)
        .run_case_study()
        .unwrap();
    let rm = ToolChain::new()
        .with_policy(SchedulingPolicy::RateMonotonic)
        .with_hyperperiods(1)
        .run_case_study()
        .unwrap();
    assert_eq!(edf.schedule.hyperperiod, rm.schedule.hyperperiod);
    assert_eq!(edf.schedule.entries.len(), rm.schedule.entries.len());
    assert_eq!(edf.schedule.busy_time(), rm.schedule.busy_time());
    assert!(edf.all_checks_passed() && rm.all_checks_passed());
}

#[test]
fn synthetic_models_scale_through_the_whole_pipeline() {
    // 4 and 8 threads keep the synthetic harmonic task set under full
    // utilisation so a single-processor static schedule exists; larger
    // models are exercised (translation + clock calculus only) in the
    // scalability benchmark.
    for threads in [4usize, 8] {
        let instance = generate_instance(&SyntheticSpec::new(threads, 1)).unwrap();
        let mut options = SessionOptions::default();
        options.schedule.policy = SchedulingPolicy::EarliestDeadlineFirst;
        options.simulate.hyperperiods = 1;
        options.translate.default_queue_size = 2;
        let report = ToolChain::with_options(options)
            .run_instance(&instance)
            .unwrap();
        assert_eq!(report.simulations.len(), threads);
        assert!(report.static_analysis.clock_count >= threads);
        assert!(report.schedule.is_valid());
    }
}

#[test]
fn malformed_models_fail_with_a_tagged_error() {
    let err = ToolChain::new()
        .run_source("package p\npublic\nend p;", "missing.impl")
        .unwrap_err();
    assert!(matches!(err, polychrony_core::CoreError::Aadl(_)));
    assert!(err.to_string().contains("aadl front end"));
}
