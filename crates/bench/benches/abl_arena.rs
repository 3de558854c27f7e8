//! Ablation: the columnar arena-backed frame hot path (DESIGN.md §14).
//!
//! One box, 65,536–131,072 simulated nodes, ~4 metrics per node: ping-pong
//! buffer reuse, epoch-swap `Arc` handoff, routed column ingest.  The row
//! `Frame` path this replaced (build a `Frame`, clone it into an `Arc`,
//! re-partition it per shard inside the store) is deleted, so the ≥2×
//! throughput comparison against it is history — EXPERIMENTS.md keeps the
//! 2.24× / 2.33× measured when both existed.  Two claims remain:
//!
//! 1. Allocation flatness: in steady state the columnar tick performs
//!    at most **one** heap allocation (the epoch-swap `Arc` control
//!    block), flat across ticks — asserted with the counting allocator.
//! 2. Determinism: the full pipeline over this path stays bit-identical
//!    at workers 0, 1, and 4 — reports, signals, store.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_bench::BENCH_SEED;
use hpcmon_metrics::alloc_count::{thread_allocations, CountingAllocator};
use hpcmon_metrics::{CompId, FrameArena, MetricId, Ts, MINUTE_MS};
use hpcmon_sim::TopologySpec;
use hpcmon_store::{IngestRoute, TimeSeriesStore};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const METRICS_PER_NODE: u32 = 4;

/// Deterministic sample value: a cheap hash of (node, metric, tick), so
/// the ingest gets no branch-predictor gift of constant values.
fn value(node: u32, metric: u32, tick: u64) -> f64 {
    let mix = (node as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add((metric as u64) << 17)
        .wrapping_add(tick.wrapping_mul(BENCH_SEED));
    ((mix >> 16) & 0x3FFF) as f64 * 0.25
}

/// The arena-backed hot path: reuse the column buffers released two
/// ticks ago, publish by epoch swap (no copy), ingest via a cached route
/// (one slot lookup per sample, one lock per touched shard).
struct ColHarness {
    store: TimeSeriesStore,
    arena: FrameArena,
    route: IngestRoute,
    nodes: u32,
    tick: u64,
}

impl ColHarness {
    fn new(nodes: u32, seal_threshold: usize) -> ColHarness {
        ColHarness {
            store: TimeSeriesStore::with_options(16, seal_threshold),
            arena: FrameArena::new(),
            route: IngestRoute::new(),
            nodes,
            tick: 0,
        }
    }

    fn tick(&mut self) {
        let ts = Ts(self.tick * MINUTE_MS);
        let mut cf = self.arena.take_current(ts);
        for node in 0..self.nodes {
            for m in 0..METRICS_PER_NODE {
                cf.push(MetricId(m), CompId::node(node), value(node, m, self.tick));
            }
        }
        let shared = self.arena.publish(cf);
        self.store.ingest_columns(&shared, &mut self.route);
        self.tick += 1;
    }
}

/// Bit-exact digest of everything a full-system run produced.
fn digest(mon: &MonitoringSystem) -> Vec<(String, Vec<(u64, u64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| {
            let pts = mon
                .store()
                .query(k, Ts::ZERO, Ts(u64::MAX))
                .into_iter()
                .map(|(t, v)| (t.0, v.to_bits()))
                .collect();
            (format!("{k:?}"), pts)
        })
        .collect()
}

fn build(workers: usize) -> MonitoringSystem {
    let cfg = SimConfig {
        topology: TopologySpec::Torus3D { dims: [16, 16, 8], nodes_per_router: 2 },
        ..SimConfig::small()
    };
    MonitoringSystem::builder(cfg).self_telemetry(false).workers(workers).build()
}

fn print_capability() {
    println!("\n=== Ablation: columnar arena frame hot path ===");

    // --- Claim 1: steady-state allocation flatness at 65,536 nodes. ---
    // Seal threshold high enough that no block seals during the window:
    // what remains is the pure per-tick hot path.
    const NODES: u32 = 65_536;
    let samples_per_tick = NODES as u64 * METRICS_PER_NODE as u64;
    println!(
        "  scale: {NODES} nodes x {METRICS_PER_NODE} metrics = {samples_per_tick} samples/tick"
    );

    // Warm-up: column buffers at capacity, slabs resolved, route cached,
    // then `seal_all` so measured ticks append into retained hot-buffer
    // capacity (hot `Vec` doubling is the store's amortized cost — it is
    // not what this ablation measures).
    let mut col = ColHarness::new(NODES, 1 << 20);
    for _ in 0..6 {
        col.tick();
    }
    col.store.seal_all();
    let mut col_deltas = Vec::new();
    for _ in 0..5 {
        let before = thread_allocations();
        col.tick();
        col_deltas.push(thread_allocations() - before);
    }

    println!("  columnar allocations/tick (5 ticks):  {col_deltas:?}");
    // Flat AND near-zero: every measured tick costs the same, and that
    // cost is at most the one `Arc` control block the epoch-swap handoff
    // allocates in `publish` (released next tick by `take_current`).
    assert!(
        col_deltas.iter().all(|&d| d == col_deltas[0]),
        "columnar per-tick allocation count must be flat, got {col_deltas:?}"
    );
    assert!(
        col_deltas[0] <= 1,
        "columnar steady-state tick allocates at most the Arc handoff, got {col_deltas:?}"
    );

    // --- Claim 2: full pipeline over this path, workers 0/1/4. ---
    let mut runs: Vec<MonitoringSystem> = [0usize, 1, 4].into_iter().map(build).collect();
    let reports: Vec<Vec<_>> =
        runs.iter_mut().map(|m| (0..4).map(|_| m.tick()).collect()).collect();
    assert_eq!(reports[0], reports[1], "workers=1 TickReports must equal serial");
    assert_eq!(reports[0], reports[2], "workers=4 TickReports must equal serial");
    assert_eq!(runs[0].signals(), runs[1].signals());
    assert_eq!(runs[0].signals(), runs[2].signals());
    let digests: Vec<_> = runs.iter().map(digest).collect();
    assert_eq!(digests[0], digests[1], "workers=1 store must be bit-identical to serial");
    assert_eq!(digests[0], digests[2], "workers=4 store must be bit-identical to serial");
    println!("  determinism: workers 0/1/4 bit-identical (reports, signals, store)");
}

fn bench(c: &mut Criterion) {
    print_capability();

    // Timed at 65k and 131k nodes.  Persistent harnesses (state carries
    // across iterations, as in production); seal threshold 64 keeps hot
    // buffers bounded.
    let mut group = c.benchmark_group("abl_arena");
    group.sample_size(10);
    let mut col = ColHarness::new(65_536, 64);
    col.tick();
    group.bench_function("arena_columnar_tick_65536_nodes", |b| b.iter(|| col.tick()));
    let mut col_big = ColHarness::new(131_072, 64);
    col_big.tick();
    group.bench_function("arena_columnar_tick_131072_nodes", |b| b.iter(|| col_big.tick()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
