//! E3 / E4 — ASME2SSME translation cost: the case study (Figs. 3–6) and the
//! end-to-end tool chain, plus the SIGNAL pretty printing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use aadl::case_study::producer_consumer_instance;
use asme2ssme::Translator;
use polychrony_core::ToolChain;
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
    group.bench_function("end_to_end_tool_chain_1_hyperperiod", |b| {
        b.iter(|| {
            ToolChain::new()
                .with_hyperperiods(1)
                .with_verification(false)
                .run_instance(black_box(&instance))
                .unwrap()
        })
    });
    group.bench_function("end_to_end_tool_chain_with_verification", |b| {
        b.iter(|| {
            ToolChain::new()
                .with_hyperperiods(1)
                .run_instance(black_box(&instance))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
