//! One seal cycle at any scale: how long the tick that seals every hot
//! buffer takes, and how much memory the seal adds.
//!
//! Every cohort fills on the same tick, so tick `DEFAULT_SEAL_THRESHOLD`
//! compresses the whole machine's hot tier at once.  This example builds the
//! default monitoring system on a torus (two nodes a router) whose
//! dimensions come from the command line, submits a fixed mix of 100
//! compute-heavy 256-node jobs, runs eight ticks past the first seal and
//! prints the slowest tick, the peak resident set (`VmHWM`) before and after
//! the seal, and what a warm point costs.
//!
//! ```sh
//! cargo run --release --example seal_cycle              # 16x16x8: 4,096 nodes
//! cargo run --release --example seal_cycle -- 32 32 32  # 65,536 nodes, ~6 GB
//! ```

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_metrics::{Ts, MINUTE_MS};
use hpcmon_sim::{AppProfile, JobSpec, TopologySpec};
use hpcmon_store::TimeSeriesStore;
use std::time::Instant;

/// Peak resident set of this process so far, in MB (0 where `/proc` is not).
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("torus dimensions are three positive integers"))
        .collect();
    let dims: [u32; 3] = match args[..] {
        [] => [16, 16, 8],
        [x, y, z] => [x, y, z],
        _ => panic!("usage: seal_cycle [X Y Z]"),
    };
    let cfg = SimConfig {
        topology: TopologySpec::Torus3D { dims, nodes_per_router: 2 },
        ..SimConfig::small()
    };
    let build = Instant::now();
    let mut mon = MonitoringSystem::builder(cfg).build();
    let nodes = mon.engine().num_nodes() as u32;
    println!("machine: {nodes} nodes (torus {dims:?} x 2), built in {:?}", build.elapsed());
    for i in 0..100u64 {
        let app = AppProfile::compute_heavy("stencil3d");
        let work_ms = (600 + 7 * i) * MINUTE_MS;
        mon.submit_job(JobSpec::new(app, "alice", nodes.min(256), work_ms, Ts::ZERO));
    }

    let ticks = TimeSeriesStore::DEFAULT_SEAL_THRESHOLD as u64 + 8;
    let (mut slowest, mut slowest_tick) = (0.0f64, 0);
    let mut seal: Option<(u64, f64, f64)> = None;
    for tick in 1..=ticks {
        let (sealed, hwm) = (mon.store().op_counts().blocks_sealed, vm_hwm_mb());
        let start = Instant::now();
        mon.tick();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms > slowest {
            (slowest, slowest_tick) = (ms, tick);
        }
        if seal.is_none() && mon.store().op_counts().blocks_sealed > sealed {
            seal = Some((tick, hwm, vm_hwm_mb()));
        }
    }

    let store = mon.store().occupancy();
    println!("slowest tick: {slowest:.1} ms at tick {slowest_tick} of {ticks}");
    match seal {
        Some((tick, before, after)) => println!(
            "first seal at tick {tick}: VmHWM {before:.1} MB before, {after:.1} MB after (+{:.1})",
            after - before
        ),
        None => println!("no seal in {ticks} ticks"),
    }
    println!(
        "warm tier: {} points in {} bytes, {:.3} B a point; {} series, {} hot points",
        store.warm_points, store.warm_bytes, store.bytes_per_point, store.series, store.hot_points
    );
    println!("VmHWM at the end: {:.1} MB", vm_hwm_mb());
}
