//! Table I "Architecture": transport throughput, fan-out to multiple
//! consumers, and backpressure behaviour.
//!
//! Requirements exercised: "multiple flexible data paths", "direct the
//! data ... to multiple consumers", drop accounting instead of silent
//! loss, native-format payloads.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcmon_metrics::{ColumnFrame, CompId, MetricId, Ts};
use hpcmon_transport::{BackpressurePolicy, Broker, Payload, TopicFilter};
use std::sync::Arc;

fn frame_payload(samples: u32) -> Payload {
    let mut frame = ColumnFrame::new(Ts(0));
    for i in 0..samples {
        frame.push(MetricId(0), CompId::node(i), i as f64);
    }
    Payload::Columns(Arc::new(frame))
}

fn print_capability() {
    println!("\n=== Table I (Architecture): transport capability ===");
    let broker = Broker::new();
    let subs: Vec<_> = (0..4)
        .map(|_| broker.subscribe(TopicFilter::all(), 1 << 14, BackpressurePolicy::Block))
        .collect();
    let lossy = broker.subscribe(TopicFilter::all(), 8, BackpressurePolicy::DropOldest);
    for i in 0..10_000 {
        broker.publish("metrics/frame", Payload::Raw(Bytes::from(vec![i as u8; 64])));
    }
    let stats = broker.stats();
    println!(
        "  published {}  delivered {}  dropped {} (all on the 8-deep lossy dashboard sub)",
        stats.published, stats.delivered, stats.dropped
    );
    println!(
        "  lossless consumers each queued {} msgs; lossy retained {} (dropped {})\n",
        subs[0].queued(),
        lossy.queued(),
        lossy.dropped()
    );
}

fn bench(c: &mut Criterion) {
    print_capability();
    let mut group = c.benchmark_group("tab1_arch");
    group.sample_size(30);

    for consumers in [1usize, 4, 16] {
        let broker = Broker::new();
        let _subs: Vec<_> = (0..consumers)
            .map(|_| broker.subscribe(TopicFilter::all(), 1 << 16, BackpressurePolicy::DropOldest))
            .collect();
        let payload = frame_payload(1_000);
        group.bench_with_input(
            BenchmarkId::new("publish_1k_sample_frame", consumers),
            &consumers,
            |b, _| {
                b.iter(|| std::hint::black_box(broker.publish("metrics/frame", payload.clone())))
            },
        );
    }

    // Topic matching cost with many selective subscribers.
    let broker = Broker::new();
    let _subs: Vec<_> = (0..64)
        .map(|i| {
            broker.subscribe(
                TopicFilter::new(&format!("metrics/src{i}/#")),
                1 << 10,
                BackpressurePolicy::DropOldest,
            )
        })
        .collect();
    let payload = Payload::Raw(Bytes::from_static(b"x"));
    group.bench_function("publish_64_selective_subs", |b| {
        b.iter(|| std::hint::black_box(broker.publish("metrics/src7/node", payload.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
