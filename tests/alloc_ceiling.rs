//! Allocation ceilings for a steady-state tick, counted on the calling
//! thread by the counting allocator (as the store's
//! `routed_ingest_is_allocation_free_in_steady_state` does for ingest).

use hpcmon::sim::{AppProfile, JobSpec, SimConfig, SimEngine, TopologySpec};
use hpcmon::MonitoringSystem;
use hpcmon_durability::{DurabilityConfig, DurabilityPlane, SimDisk, SyncPolicy};
use hpcmon_metrics::alloc_count::{thread_allocations, CountingAllocator};
use hpcmon_metrics::Ts;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn machine(dims: [u32; 3]) -> SimConfig {
    SimConfig {
        topology: TopologySpec::Torus3D { dims, nodes_per_router: 2 },
        ..SimConfig::small()
    }
}

/// Long-running jobs of every profile, communication-heavy ones first.
fn jobs(nodes_each: u32, count: usize) -> impl Iterator<Item = JobSpec> {
    let apps = [
        AppProfile::comm_heavy("fft"),
        AppProfile::compute_heavy("stencil"),
        AppProfile::checkpointing("climate"),
    ];
    (0..count).map(move |i| {
        JobSpec::new(apps[i % apps.len()].clone(), "u", nodes_each, 100_000 * 60_000, Ts::ZERO)
    })
}

#[test]
fn a_simulator_step_with_jobs_running_allocates_at_most_64_times() {
    let mut engine = SimEngine::new(machine([8, 8, 4]));
    for job in jobs(64, 7) {
        engine.submit_job(job);
    }
    for _ in 0..20 {
        engine.step();
        drop(engine.drain_logs());
    }
    assert_eq!(engine.scheduler().running().len(), 7);
    let mut worst = 0;
    for _ in 0..200 {
        let before = thread_allocations();
        engine.step();
        worst = worst.max(thread_allocations() - before);
        drop(engine.drain_logs());
    }
    assert!(worst <= 64, "a step allocated {worst} times");
}

#[test]
fn a_tick_of_the_whole_pipeline_allocates_at_most_1500_times() {
    let mut mon = MonitoringSystem::builder(machine([8, 8, 8])).build();
    for job in jobs(128, 7) {
        mon.submit_job(job);
    }
    mon.run_ticks(40);
    // Every tick counts: the ones that raise a signal, and every tenth,
    // which runs the benchmark suite.
    let mut worst = 0;
    for _ in 0..100 {
        let before = thread_allocations();
        mon.tick();
        worst = worst.max(thread_allocations() - before);
    }
    assert!(worst <= 1_500, "a tick allocated {worst} times");
}

/// The scrub verifies a file where it lies: a segment of 64 records costs
/// the file listing and its name, not a copy of the file or of each record.
#[test]
fn a_scrub_step_over_a_64_record_segment_allocates_at_most_8_times() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut plane = DurabilityPlane::new(disk.clone(), cfg);
    let payload = vec![0x5Au8; 1000];
    for tick in 0..64 {
        plane.append_tick(tick, &payload);
        plane.end_tick(tick);
    }
    for pass in 0..2 {
        let before = thread_allocations();
        let (file, ok) = plane.scrub_step().expect("one file to scrub");
        let allocations = thread_allocations() - before;
        assert!(ok && file == "wal-0000000000.seg", "{file}: {ok}");
        assert!(allocations <= 8, "pass {pass}: a scrub step allocated {allocations} times");
    }
}
