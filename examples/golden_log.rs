//! CI golden-log gate: record a seeded chaos run, replay it in a second
//! process, and fail loudly (with artifacts) on divergence.
//!
//! Two subcommands, so the record and replay halves run as separate CI
//! steps with the recording on disk between them:
//!
//! ```sh
//! cargo run --release --example golden_log -- record golden
//! cargo run --release --example golden_log -- replay golden
//! ```
//!
//! A recording is a durable run: `record` runs a 200-tick fault-injection
//! soak with a durability plane on a `SimDisk` and state hashing on, then
//! writes every file the disk holds into the directory.  `replay` loads
//! those files back into a fresh medium, opens it with the same options,
//! re-executes it, and exits non-zero unless all 200 tick hashes verify —
//! on a divergence, after writing `divergence_report.txt` next to the
//! directory.  CI uploads both as artifacts so the failing run is
//! attachable offline.

use hpcmon::durability::{DurabilityConfig, SimDisk, StorageMedium};
use hpcmon::{MonitorBuilder, MonitorOptions, Replayer, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{MetricId, Ts, MINUTE_MS};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::{AggFn, TimeRange};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const TICKS: u64 = 200;

/// Injected collector panics unwind through the supervisor's catch; keep
/// the default hook quiet for those while leaving real panics loud.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected collector panic"));
        if !injected {
            default(info);
        }
    }));
}

fn plan() -> ChaosPlan {
    let collectors = ["node", "hsn", "fs", "env"];
    let mut plan = ChaosPlan::new();
    for block in 0..(TICKS / 50) {
        let base = 10 + block * 50;
        let c = collectors[(block as usize) % collectors.len()];
        plan.schedule(base, ChaosFault::CollectorPanic { collector: c.into() });
        plan.schedule(
            base + 10,
            ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 },
        );
        plan.schedule(base + 20, ChaosFault::EnvelopeCorrupt { rate: 0.4, ticks: 4 });
        plan.schedule(
            base + 30,
            ChaosFault::StoreWriteFail { shard: (block % 4) as usize, ticks: 3 },
        );
    }
    plan
}

/// The recorded run's options: what `replay` rebuilds it from.
fn options() -> MonitorOptions {
    MonitorOptions {
        chaos: Some((2018, plan())),
        self_telemetry: false,
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..MonitorOptions::new(SimConfig::small())
    }
}

fn record(dir: &Path) {
    let disk = Arc::new(SimDisk::new());
    let durability = DurabilityConfig { checkpoint_every: 128, ..DurabilityConfig::default() };
    let mut mon =
        MonitorBuilder::from_options(options()).durability(disk.clone(), durability).build();
    mon.set_state_hashing(true);
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        400 * MINUTE_MS,
        Ts::ZERO,
    ));
    let ops = Consumer::admin("ops");
    let agg = QueryRequest::AggregateAcross {
        metric: MetricId(0),
        range: TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) },
        agg: AggFn::Mean,
    };
    mon.subscribe(&ops, agg.clone(), "ops/load").expect("gateway is on").expect("valid");
    for t in 0..TICKS {
        if t % 40 == 15 {
            mon.gateway().expect("gateway is on").query(&ops, agg.clone()).expect("valid");
        }
        mon.tick();
    }
    std::fs::create_dir_all(dir).expect("recording directory creates");
    let files = disk.durable_files();
    for (name, bytes) in &files {
        std::fs::write(dir.join(name), bytes).expect("recording file writes");
    }
    println!("recorded {TICKS} ticks ({} files) -> {}", files.len(), dir.display());
}

fn replay(dir: &Path) -> ExitCode {
    // The files go back onto a medium the way a medium is copied: append
    // and sync through `StorageMedium`.
    let disk = Arc::new(SimDisk::new());
    for entry in std::fs::read_dir(dir).expect("recording directory reads") {
        let path = entry.expect("directory entry reads").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("file names are UTF-8");
        let bytes = std::fs::read(&path).expect("recording file reads");
        disk.append(name, &bytes).and_then(|()| disk.sync(name)).expect("SimDisk accepts it");
    }
    let replayer = match Replayer::open(options(), disk) {
        Ok(replayer) => replayer,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (_, end) = replayer.window();
    let outcome = replayer.run_to_end();
    match outcome.divergence {
        None if outcome.ticks_verified == TICKS => {
            println!("replay: {TICKS} / {end} tick hashes verified, zero divergence");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("replay: {} tick hashes verified, {TICKS} expected", outcome.ticks_verified);
            ExitCode::FAILURE
        }
        Some(report) => {
            let rendered = report.render();
            eprint!("{rendered}");
            let report_path = dir.with_file_name("divergence_report.txt");
            std::fs::write(&report_path, rendered).expect("report writes");
            eprintln!(
                "replay diverged after {} clean ticks; report -> {}",
                outcome.ticks_verified,
                report_path.display()
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("record") if args.len() == 3 => {
            record(Path::new(&args[2]));
            ExitCode::SUCCESS
        }
        Some("replay") if args.len() == 3 => replay(Path::new(&args[2])),
        _ => {
            eprintln!("usage: golden_log record <dir> | golden_log replay <dir>");
            ExitCode::FAILURE
        }
    }
}
