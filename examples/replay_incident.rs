//! Flight-recorder incident workflow: record a chaos soak, replay it
//! bit-identically, seek into the incident window with full tracing, and
//! diagnose a tampered log.
//!
//! The scenario follows the paper's operational reality — the interesting
//! tick happened under a particular interleave of injected faults, job
//! arrivals, and operator queries, hours before anyone looked.  The
//! flight recorder turns that run into an artifact:
//!
//! 1. **Record**: a 500-tick chaos soak (collector panics/hangs, broker
//!    stalls, envelope corruption, store write failures, a gateway
//!    serving live operator queries) is captured into an event log
//!    of WAL records — every external input plus a per-tick state hash,
//!    with a snapshot checkpoint every 100 ticks.
//! 2. **Replay**: the log, round-tripped through its on-disk byte
//!    format, re-executes bit-identically — all 500 hashes match.
//! 3. **Seek**: restoring the tick-400 checkpoint and re-stepping
//!    400→500 with trace sampling forced to 1-in-1 reproduces the same
//!    hash chain — forensics-grade tracing for the incident window
//!    without perturbing what it observes.
//! 4. **Diagnose**: a log with one flipped bit in a recorded store
//!    sub-hash yields a divergence report naming the first divergent
//!    tick, the store subsystem, and the checkpoint to restart from.
//!
//! ```sh
//! cargo run --release --example replay_incident
//! ```

use hpcmon::{MonitorOptions, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{MetricId, Ts, MINUTE_MS};
use hpcmon_replay::{EventLog, FlightRecorder, Replayer, RunSpec};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};
use hpcmon_store::{AggFn, TimeRange};

const TICKS: u64 = 500;
const SNAPSHOT_EVERY: u64 = 100;
const SEEK_TARGET: u64 = 400;

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

/// A block of every monitoring-plane fault kind every 60 ticks, rotating
/// the targeted collector and store shard.
fn incident_plan() -> ChaosPlan {
    let collectors = ["node", "hsn", "fs", "env", "sched", "gpu"];
    let mut plan = ChaosPlan::new();
    for block in 0..(TICKS / 60) {
        let base = 15 + block * 60;
        let c = collectors[(block as usize) % collectors.len()];
        let c2 = collectors[(block as usize + 3) % collectors.len()];
        plan.schedule(base, ChaosFault::CollectorPanic { collector: c.into() });
        plan.schedule(base + 6, ChaosFault::CollectorHang { collector: c2.into(), ticks: 3 });
        plan.schedule(
            base + 12,
            ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 },
        );
        plan.schedule(base + 18, ChaosFault::EnvelopeCorrupt { rate: 0.4, ticks: 4 });
        plan.schedule(
            base + 24,
            ChaosFault::StoreWriteFail { shard: (block % 4) as usize, ticks: 3 },
        );
    }
    plan
}

/// Record the soak: jobs and machine faults flow through the recorder so
/// they land in the event log; operator queries go straight to the
/// gateway, since they move no hashed state.
fn record() -> EventLog {
    let options = MonitorOptions {
        chaos: Some((2018, incident_plan())),
        self_telemetry: false,
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..MonitorOptions::new(SimConfig::small())
    };
    let mut rec = FlightRecorder::new(RunSpec { options, snapshot_every: SNAPSHOT_EVERY });

    rec.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        400 * MINUTE_MS,
        Ts::ZERO,
    ));
    rec.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        120 * MINUTE_MS,
        Ts(30 * MINUTE_MS),
    ));
    rec.schedule_fault(Ts(90 * MINUTE_MS), FaultKind::NodeCrash { node: 3 });

    let ops = Consumer::admin("ops");
    for t in 0..TICKS {
        // An operator polls a fleet aggregate every 50 ticks, served live
        // and not recorded: a query moves no hashed state.
        if t % 50 == 25 {
            let resp = rec.system().gateway().expect("gateway is on").query(
                &ops,
                QueryRequest::AggregateAcross {
                    metric: MetricId(0),
                    range: TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) },
                    agg: AggFn::Mean,
                },
            );
            assert!(resp.is_ok(), "the query must succeed");
        }
        rec.tick();
    }
    rec.finish()
}

fn main() {
    quiet_injected_panics();
    println!("=== flight recorder: incident record/replay workflow ===");

    // ---- 1. Record ----------------------------------------------------
    let t0 = std::time::Instant::now();
    let log = record();
    let record_s = t0.elapsed().as_secs_f64();
    let path = std::env::temp_dir().join("replay_incident.hpcmrly");
    log.write_to(&path).expect("event log writes");
    let bytes = std::fs::metadata(&path).expect("written").len();
    println!(
        "recorded {} ticks in {record_s:.1}s, {} snapshots -> {} ({:.1} KiB)",
        log.len(),
        log.snapshots.len(),
        path.display(),
        bytes as f64 / 1024.0,
    );

    // Everything below replays the artifact as read back from disk — the
    // wire format, not the in-memory log, is what an incident hands you.
    let log = EventLog::read_from(&path).expect("event log reads back");

    // ---- 2. Replay, bit-identical -------------------------------------
    let t0 = std::time::Instant::now();
    let outcome = Replayer::new(&log).run_to_end();
    assert!(outcome.is_clean(), "replay diverged: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, TICKS);
    println!(
        "replay:              {} / {TICKS} tick hashes verified in {:.1}s",
        outcome.ticks_verified,
        t0.elapsed().as_secs_f64(),
    );

    // ---- 3. Seek into the incident window, full tracing ---------------
    let mut rep = Replayer::new(&log);
    rep.force_full_tracing();
    let outcome = rep.seek(SEEK_TARGET);
    assert!(outcome.is_clean(), "seek diverged: {:?}", outcome.divergence);
    assert_eq!(rep.position(), SEEK_TARGET);
    // The 100-tick cadence means seek(400) restores checkpoint 400
    // directly — zero ticks re-executed to get there.
    assert_eq!(outcome.ticks_verified, 0, "seek(400) should land on the tick-400 checkpoint");
    while let Some(step) = rep.step() {
        assert!(step.is_ok(), "divergence under forced tracing: {:?}", step.err());
    }
    assert_eq!(rep.position(), TICKS);
    let traces = rep.system().traces().completed_total();
    println!(
        "seek({SEEK_TARGET}) + 1-in-1 tracing: ticks {SEEK_TARGET}..{TICKS} match the \
         recording; {traces} traces captured in the window",
    );
    assert!(traces >= TICKS - SEEK_TARGET, "forced sampling must trace every tick");

    // ---- 4. Diagnose a tampered log -----------------------------------
    let mut tampered = EventLog::read_from(&path).expect("reads back");
    let idx = 454usize; // tick 455: mid-block, between checkpoints 400 and 500
    let hash = tampered.ticks[idx].hash.as_mut().expect("a parsed log carries every hash");
    hash.store ^= 1 << 17;
    hash.combined ^= 1 << 17;
    let outcome = Replayer::new(&tampered).run_to_end();
    assert_eq!(outcome.ticks_verified, idx as u64);
    let report = outcome.divergence.expect("tampered log must diverge");
    assert_eq!(report.first_divergent_tick, idx as u64 + 1);
    assert_eq!(report.subsystem, "store");
    assert_eq!(report.nearest_snapshot, Some(SEEK_TARGET));
    println!("\ntampered log (store sub-hash bit-flip at tick {}):", idx + 1);
    print!("{}", report.render());

    let _ = std::fs::remove_file(&path);
    println!("\nOK: record -> replay -> seek -> diagnose all verified");
}
