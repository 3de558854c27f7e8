//! CI golden-log gate: record a seeded chaos run, replay it in a second
//! process, and fail loudly (with artifacts) on divergence.
//!
//! Two subcommands, so the record and replay halves run as separate CI
//! steps with the event log on disk between them:
//!
//! ```sh
//! cargo run --release --example golden_log -- record golden.hpcmrly
//! cargo run --release --example golden_log -- replay golden.hpcmrly
//! ```
//!
//! `record` runs a 200-tick fault-injection soak under the flight recorder
//! and writes the event log.  `replay` re-executes it and exits non-zero
//! on any hash divergence, after writing `divergence_report.txt` next to
//! the log — CI uploads both as artifacts so the failing run is attachable
//! offline.

use hpcmon::{MonitorOptions, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{MetricId, Ts, MINUTE_MS};
use hpcmon_replay::{EventLog, FlightRecorder, Replayer, RunSpec};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::{AggFn, TimeRange};
use std::path::Path;
use std::process::ExitCode;

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

fn record(path: &Path) {
    let options = MonitorOptions {
        chaos: Some((2018, plan())),
        self_telemetry: false,
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..MonitorOptions::new(SimConfig::small())
    };
    let mut rec = FlightRecorder::new(RunSpec { options, snapshot_every: 50 });
    rec.submit_job(JobSpec::new(
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
    rec.subscribe(&ops, agg.clone(), "ops/load").expect("gateway is on").expect("valid");
    for t in 0..TICKS {
        if t % 40 == 15 {
            let gw = rec.system().gateway().expect("gateway is on");
            gw.query(&ops, agg.clone()).expect("valid");
        }
        rec.tick();
    }
    let log = rec.finish();
    log.write_to(path).expect("event log writes");
    println!(
        "recorded {} ticks ({} snapshots) -> {}",
        log.len(),
        log.snapshots.len(),
        path.display()
    );
}

fn replay(path: &Path) -> ExitCode {
    let log = EventLog::read_from(path).expect("event log reads");
    let outcome = Replayer::new(&log).run_to_end();
    match outcome.divergence {
        None => {
            println!(
                "replay: {} / {} tick hashes verified, zero divergence",
                outcome.ticks_verified,
                log.len()
            );
            ExitCode::SUCCESS
        }
        Some(report) => {
            let rendered = report.render();
            eprint!("{rendered}");
            let report_path = path.with_file_name("divergence_report.txt");
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
            eprintln!("usage: golden_log record <path> | golden_log replay <path>");
            ExitCode::FAILURE
        }
    }
}
