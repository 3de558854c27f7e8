//! Ablation: the durability plane's two kernels (DESIGN.md §15) — the
//! ones no `benchmark/` workload isolates.  What the plane costs a tick,
//! and what a recovery costs, are `durable_1k`'s cells (`tick_ms_p10`,
//! `durability.append_sync_ms_p50`, `core.recover_s`); that it never feeds
//! back into monitored state is asserted in `tests/durability.rs`.
//!
//! `wal_append_1kib_record` is the plane alone: 256 one-KiB records
//! framed, CRC'd and appended under group commit, no pipeline around them.
//!
//! `checkpoint_1k` times the checkpoint itself at 1,024 nodes — the
//! snapshot encoded to bytes, and the bytes decoded and loaded into a twin
//! — in ns per stored point, on a store that is all hot buffers (256 ticks)
//! and on one that is mostly warm blocks (576 ticks, one seal behind it).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpcmon::{CoreSnapshot, MonitoringSystem, SimConfig};
use hpcmon_durability::{DurabilityConfig, DurabilityPlane, SimDisk, SyncPolicy};
use hpcmon_sim::TopologySpec;
use std::sync::Arc;

fn build(config: SimConfig) -> MonitoringSystem {
    MonitoringSystem::builder(config).self_telemetry(false).build()
}

/// What one checkpoint of a 1,024-node system costs, each way.
fn bench_checkpoint(c: &mut Criterion) {
    let config = || SimConfig {
        topology: TopologySpec::Torus3D { dims: [8, 8, 8], nodes_per_router: 2 },
        ..SimConfig::small()
    };
    let mut mon = build(config());
    let mut twin = build(config());
    println!("\n=== Checkpoint: 1,024 nodes ===");
    let mut group = c.benchmark_group("checkpoint_1k");
    for (ticks, run) in [(256u64, 256u64), (576, 320)] {
        mon.run_ticks(run);
        let st = mon.store().stats();
        let points = (st.hot_points + st.warm_points) as u64;
        let bytes = serde_json::to_vec(&mon.snapshot()).expect("CoreSnapshot serializes");
        println!(
            "  tick {ticks}: {} hot + {} warm points, checkpoint {:.1} MB ({:.2} B/pt)",
            st.hot_points,
            st.warm_points,
            bytes.len() as f64 / 1e6,
            bytes.len() as f64 / points as f64
        );
        group.sample_size(10).throughput(Throughput::Elements(points));
        group.bench_function(format!("encode_tick_{ticks}"), |b| {
            b.iter(|| serde_json::to_vec(&mon.snapshot()).expect("CoreSnapshot serializes").len())
        });
        group.bench_function(format!("decode_load_tick_{ticks}"), |b| {
            b.iter(|| {
                let snap: CoreSnapshot = serde_json::from_slice(&bytes).expect("round trip");
                twin.restore_snapshot(snap);
            })
        });
        assert_eq!(twin.store().stats(), st, "the twin holds what was checkpointed");
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    bench_checkpoint(c);
    let mut group = c.benchmark_group("abl_wal");
    group.sample_size(10);
    group.bench_function("wal_append_1kib_record", |b| {
        b.iter_with_setup(
            || {
                (
                    DurabilityPlane::new(
                        Arc::new(SimDisk::new()),
                        DurabilityConfig {
                            sync: SyncPolicy::GroupCommit(64),
                            ..DurabilityConfig::default()
                        },
                    ),
                    vec![0xA5u8; 1024],
                )
            },
            |(mut plane, payload)| {
                for tick in 0..256u64 {
                    plane.append_tick(tick, &payload);
                    plane.end_tick(tick);
                }
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
