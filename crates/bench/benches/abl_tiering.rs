//! Ablation: tiered store (hot → compressed warm) vs a flat uncompressed
//! store.
//!
//! DESIGN.md calls out tiering as a design choice; this quantifies both
//! sides: memory footprint (compression) and the query-time cost of
//! decompressing warm blocks.
//!
//! `seal_512` / `decode_512` time the block codec alone, in ns per point,
//! over the series a simulated machine actually produces in one 512-tick
//! seal cycle: every series seals on the same tick, so this kernel times
//! the pipeline's longest stall.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_metrics::{CompId, MetricId, Sample, SeriesKey, Ts, MINUTE_MS};
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::{SeriesBlock, TimeSeriesStore};

fn fill(store: &TimeSeriesStore, series: u32, points: u64) {
    for n in 0..series {
        for m in 0..points {
            let v = 200.0 + ((m as f64) * 0.05).sin() * 10.0;
            store.insert(&Sample::new(MetricId(0), CompId::node(n), Ts::from_mins(m), v));
        }
    }
}

fn print_capability() {
    println!("\n=== Ablation: tiered vs flat storage ===");
    // Flat: huge seal threshold keeps everything hot (raw 16 B/point).
    let flat = TimeSeriesStore::with_options(16, usize::MAX / 2);
    fill(&flat, 64, 2_000);
    let fs = flat.stats();
    // Tiered: default sealing compresses.
    let tiered = TimeSeriesStore::new();
    fill(&tiered, 64, 2_000);
    tiered.seal_all();
    let ts = tiered.stats();
    println!("  flat:   {} hot points (~{} KiB raw)", fs.hot_points, fs.hot_points * 16 / 1024);
    println!(
        "  tiered: {} warm points in {} KiB ({:.2} B/pt, {:.1}x smaller)\n",
        ts.warm_points,
        ts.warm_bytes / 1024,
        ts.bytes_per_point,
        16.0 / ts.bytes_per_point.max(1e-9)
    );
}

/// One full seal cycle of every series of a 128-node machine under a
/// three-application job mix: the hot buffers a threshold seal compresses.
fn seal_cycle_series() -> Vec<(SeriesKey, Vec<(Ts, f64)>)> {
    const CYCLE: u64 = TimeSeriesStore::DEFAULT_SEAL_THRESHOLD as u64;
    let mut mon = MonitoringSystem::builder(SimConfig::small()).build();
    for app in [
        AppProfile::compute_heavy("stencil3d"),
        AppProfile::comm_heavy("spectral_fft"),
        AppProfile::checkpointing("climate"),
    ] {
        mon.submit_job(JobSpec::new(app, "alice", 32, 2 * CYCLE * MINUTE_MS, Ts::ZERO));
    }
    mon.run_ticks(CYCLE);
    let store = mon.store();
    let series =
        store.all_series().into_iter().map(|k| (k, store.query(k, Ts::ZERO, Ts(u64::MAX))));
    series.filter(|(_, pts)| pts.len() == CYCLE as usize).collect()
}

fn bench_codec(c: &mut Criterion) {
    let series = seal_cycle_series();
    let points: usize = series.iter().map(|(_, pts)| pts.len()).sum();
    let blocks: Vec<SeriesBlock> =
        series.iter().map(|(k, pts)| SeriesBlock::compress(*k, pts)).collect();
    let bytes: usize = blocks.iter().map(SeriesBlock::compressed_bytes).sum();
    println!(
        "\n=== Block codec: {} series x 512 points, {:.2} B/pt ===",
        series.len(),
        bytes as f64 / points as f64
    );
    let mut group = c.benchmark_group("seal_512");
    group.sample_size(20).throughput(Throughput::Elements(points as u64));
    group.bench_function("sim_mix", |b| {
        b.iter(|| {
            let sealed = series.iter().map(|(k, pts)| SeriesBlock::compress(*k, pts));
            sealed.map(|b| b.compressed_bytes()).sum::<usize>()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("decode_512");
    group.sample_size(20).throughput(Throughput::Elements(points as u64));
    let mut out = Vec::with_capacity(512);
    group.bench_function("sim_mix", |b| {
        b.iter(|| {
            for block in &blocks {
                out.clear();
                block.decode_into(Ts::ZERO, Ts(u64::MAX), &mut out).expect("sealed block decodes");
                std::hint::black_box(out.len());
            }
        })
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    print_capability();
    let mut group = c.benchmark_group("abl_tiering");
    group.sample_size(20);

    let flat = TimeSeriesStore::with_options(16, usize::MAX / 2);
    fill(&flat, 64, 2_000);
    let tiered = TimeSeriesStore::new();
    fill(&tiered, 64, 2_000);
    tiered.seal_all();
    let key = SeriesKey::new(MetricId(0), CompId::node(7));

    group.bench_function("query_2k_points_hot_flat", |b| {
        b.iter(|| std::hint::black_box(flat.query(key, Ts::ZERO, Ts(u64::MAX)).len()))
    });
    group.bench_function("query_2k_points_warm_tiered", |b| {
        b.iter(|| std::hint::black_box(tiered.query(key, Ts::ZERO, Ts(u64::MAX)).len()))
    });
    group.bench_function("ingest_with_sealing", |b| {
        b.iter_with_setup(
            || TimeSeriesStore::with_options(16, 512),
            |store| {
                fill(&store, 4, 1_024);
                std::hint::black_box(store.stats().warm_points)
            },
        )
    });
    group.bench_function("ingest_flat", |b| {
        b.iter_with_setup(
            || TimeSeriesStore::with_options(16, usize::MAX / 2),
            |store| {
                fill(&store, 4, 1_024);
                std::hint::black_box(store.stats().hot_points)
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench, bench_codec);
criterion_main!(benches);
