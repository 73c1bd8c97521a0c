//! E3 / E4 — ASME2SSME translation cost: the case study (Figs. 3–6) and the
//! end-to-end tool chain, plus the SIGNAL pretty printing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use aadl::case_study::producer_consumer_instance;
use aadl::instance::InstanceModel;
use asme2ssme::Translator;
use polychrony_core::{Session, SessionOptions, ToolChainReport};
use signal_moc::pretty::model_to_signal;

fn bench_translation(c: &mut Criterion) {
    let instance = producer_consumer_instance().unwrap();

    let mut group = c.benchmark_group("translation");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("case_study_translate", |b| {
        b.iter(|| Translator::new().translate(black_box(&instance)).unwrap())
    });

    let translated = Translator::new().translate(&instance).unwrap();
    group.bench_function("case_study_flatten", |b| {
        b.iter(|| black_box(&translated.model).flatten().unwrap())
    });
    group.bench_function("case_study_pretty_print", |b| {
        b.iter(|| model_to_signal(black_box(&translated.model)))
    });
    // Verification is disabled here to keep this measurement comparable
    // with pre-polyverify baselines; the model-checking cost is measured
    // separately below and by perfbench's `case_study` workload.
    let mut options = SessionOptions::default();
    options.simulate.hyperperiods = 1;
    let with_verification = Session::with_options(options.clone()).unwrap();
    options.verify.enabled = false;
    let without_verification = Session::with_options(options).unwrap();
    group.bench_function("end_to_end_tool_chain_1_hyperperiod", |b| {
        b.iter(|| end_to_end(&without_verification, black_box(&instance)))
    });
    group.bench_function("end_to_end_tool_chain_with_verification", |b| {
        b.iter(|| end_to_end(&with_verification, black_box(&instance)))
    });
    group.finish();
}

/// Instance → report through every later phase of `session`.
fn end_to_end(session: &Session, instance: &InstanceModel) -> ToolChainReport {
    session
        .load_instance(instance.clone())
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
        .into_report()
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
