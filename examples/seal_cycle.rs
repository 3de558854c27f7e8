//! One seal cycle at any scale: how long the tick that seals every hot
//! buffer takes, and how much memory the seal adds.
//!
//! Every cohort fills on the same tick, so tick `DEFAULT_SEAL_THRESHOLD`
//! compresses the whole machine's hot tier at once.  This example builds the
//! default monitoring system on a torus (two nodes a router) whose
//! dimensions come from the command line, submits a fixed mix of
//! compute-heavy 256-node jobs (100, or the count given after the
//! dimensions), runs eight ticks past the first seal and prints the slowest
//! tick, the peak resident set (`VmHWM`) before and after the seal, the hot
//! tier just before it and just after it (members, how many are quiet,
//! bytes held), what a warm point costs, and — every series read back
//! whole — the share of sealed blocks whose values never changed.
//!
//! It exits non-zero when no member was quiet before the first seal (a
//! cohort quiets its repeats at its second row) or after it, or the read
//! back met a corrupt block, so a smoke run catches any of these paths
//! going dark.
//!
//! ```sh
//! cargo run --release --example seal_cycle                  # 16x16x8: 4,096 nodes
//! cargo run --release --example seal_cycle -- 32 32 32      # 65,536 nodes, 100 jobs
//! cargo run --release --example seal_cycle -- 32 32 32 256  # every node busy
//! ```

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_metrics::{Ts, MINUTE_MS};
use hpcmon_sim::{AppProfile, JobSpec, TopologySpec};
use hpcmon_store::{HotLayout, TimeSeriesStore};
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

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("torus dimensions and a job count are positive integers"))
        .collect();
    let (dims, jobs): ([u32; 3], u64) = match args[..] {
        [] => ([16, 16, 8], 100),
        [x, y, z] => ([x, y, z], 100),
        [x, y, z, jobs] => ([x, y, z], jobs.into()),
        _ => panic!("usage: seal_cycle [X Y Z [JOBS]]"),
    };
    let cfg = SimConfig {
        topology: TopologySpec::Torus3D { dims, nodes_per_router: 2 },
        ..SimConfig::small()
    };
    let build = Instant::now();
    let mut mon = MonitoringSystem::builder(cfg).build();
    let nodes = mon.engine().num_nodes();
    println!("machine: {nodes} nodes (torus {dims:?} x 2), built in {:?}", build.elapsed());
    for i in 0..jobs {
        let app = AppProfile::compute_heavy("stencil3d");
        let work_ms = (600 + 7 * i) * MINUTE_MS;
        mon.submit_job(JobSpec::new(app, "alice", nodes.min(256), work_ms, Ts::ZERO));
    }

    let threshold = TimeSeriesStore::DEFAULT_SEAL_THRESHOLD;
    let ticks = threshold as u64 + 8;
    let (mut slowest, mut slowest_tick) = (0.0f64, 0);
    let mut seal: Option<(u64, f64, f64, HotLayout, HotLayout)> = None;
    for tick in 1..=ticks {
        let (sealed, hwm) = (mon.store().op_counts().blocks_sealed, vm_hwm_mb());
        let unsealed = mon.store().hot_layout();
        let start = Instant::now();
        mon.tick();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms > slowest {
            (slowest, slowest_tick) = (ms, tick);
        }
        if seal.is_none() && mon.store().op_counts().blocks_sealed > sealed {
            seal = Some((tick, hwm, vm_hwm_mb(), unsealed, mon.store().hot_layout()));
        }
    }

    let store = mon.store();
    let occupancy = store.occupancy();
    println!("slowest tick: {slowest:.1} ms at tick {slowest_tick} of {ticks}");
    let Some((tick, before, after, unsealed, layout)) = seal else {
        println!("no seal in {ticks} ticks");
        std::process::exit(1);
    };
    println!(
        "first seal at tick {tick}: VmHWM {before:.1} MB before, {after:.1} MB after (+{:.1})",
        after - before
    );
    println!(
        "hot tier before it: {} members, {} quiet ({:.1}%), {} evictions, {:.1} MB held",
        unsealed.members,
        unsealed.quiet,
        100.0 * unsealed.quiet as f64 / unsealed.members.max(1) as f64,
        unsealed.evictions,
        mb(unsealed.hot_bytes)
    );
    println!(
        "hot tier after it: {} members, {} quiet ({:.1}%), {:.1} MB held",
        layout.members,
        layout.quiet,
        100.0 * layout.quiet as f64 / layout.members.max(1) as f64,
        mb(layout.hot_bytes)
    );
    let end = store.hot_layout();
    println!("hot tier at the end: {} quiet, {:.1} MB held", end.quiet, mb(end.hot_bytes));
    println!(
        "warm tier: {} points in {} bytes, {:.3} B a point; {} series, {} hot points",
        occupancy.warm_points,
        occupancy.warm_bytes,
        occupancy.bytes_per_point,
        occupancy.series,
        occupancy.hot_points
    );
    println!("VmHWM at the end: {:.1} MB", vm_hwm_mb());

    // Every series read back whole: each run of `threshold` points from
    // its first is a sealed block, flat when it holds one value.
    let (mut blocks, mut flat) = (0usize, 0usize);
    for key in store.all_series() {
        let points = store.query(key, Ts::ZERO, Ts(u64::MAX));
        for block in points.chunks_exact(threshold) {
            blocks += 1;
            flat += usize::from(block.iter().all(|p| p.1.to_bits() == block[0].1.to_bits()));
        }
    }
    println!(
        "read back: {blocks} sealed blocks, {flat} flat ({:.1}%), {} corrupt",
        100.0 * flat as f64 / blocks.max(1) as f64,
        store.corrupt_blocks()
    );
    if unsealed.quiet == 0 {
        eprintln!("no member was quiet before the first seal");
        std::process::exit(1);
    }
    if layout.quiet == 0 {
        eprintln!("no member went quiet after the seal");
        std::process::exit(1);
    }
    if store.corrupt_blocks() > 0 {
        eprintln!("the read back met corrupt blocks");
        std::process::exit(1);
    }
}
