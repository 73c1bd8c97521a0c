//! E5 — in/out event port semantics: cost of executing the
//! `in_event_port` / `out_event_port` library processes for growing queue
//! sizes and trace lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Duration;

use asme2ssme::{in_event_port_process, out_event_port_process};
use signal_moc::eval::Evaluator;
use signal_moc::trace::Trace;
use signal_moc::value::Value;

fn port_inputs(len: usize) -> Trace {
    let mut trace = Trace::new();
    for t in 0..len {
        trace.set(t, "incoming", Value::Bool(t % 3 != 0));
        trace.set(t, "freeze", Value::Bool(t % 4 == 0));
        trace.set(t, "produced", Value::Bool(t % 2 == 0));
        trace.set(t, "release", Value::Bool(t % 4 == 3));
    }
    trace
}

fn bench_ports(c: &mut Criterion) {
    let mut group = c.benchmark_group("port_semantics");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    for queue_size in [1usize, 4, 16] {
        let process = in_event_port_process(NonZeroUsize::new(queue_size).unwrap());
        let inputs = port_inputs(256);
        group.throughput(Throughput::Elements(inputs.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("in_event_port", queue_size),
            &inputs,
            |b, inputs| {
                b.iter(|| {
                    Evaluator::new(&process)
                        .unwrap()
                        .run(black_box(inputs))
                        .unwrap()
                })
            },
        );
    }

    let out_port = out_event_port_process();
    for len in [64usize, 512] {
        let inputs = port_inputs(len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(
            BenchmarkId::new("out_event_port", len),
            &inputs,
            |b, inputs| {
                b.iter(|| {
                    Evaluator::new(&out_port)
                        .unwrap()
                        .run(black_box(inputs))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ports);
criterion_main!(benches);
