//! Incident record/replay workflow: record a chaos soak as a durable run,
//! replay it bit-identically, seek into the incident window with full
//! tracing, and diagnose a tampered recording.
//!
//! The scenario follows the paper's operational reality — the interesting
//! tick happened under a particular interleave of injected faults, job
//! arrivals, and operator queries, hours before anyone looked.  A durable
//! run with state hashing on leaves that run behind as an artifact:
//!
//! 1. **Record**: a 500-tick chaos soak (collector panics/hangs, broker
//!    stalls, envelope corruption, store write failures, a gateway
//!    serving live operator queries) runs with a durability plane on a
//!    `SimDisk` — every external input plus a per-tick state hash goes to
//!    the WAL, with a checkpoint every 400 ticks.
//! 2. **Replay**: the medium, opened with the run's options, re-executes
//!    bit-identically — all 500 hashes match.
//! 3. **Seek**: restoring the tick-400 checkpoint and re-stepping
//!    400→500 with trace sampling forced to 1-in-1 reproduces the same
//!    hash chain — forensics-grade tracing for the incident window
//!    without perturbing what it observes.
//! 4. **Diagnose**: a medium whose tick-455 record carries one flipped bit
//!    in its store sub-hash (re-framed with a valid CRC) yields a
//!    divergence report naming the first divergent tick, the store
//!    subsystem, and the checkpoint to restart from.
//!
//! ```sh
//! cargo run --release --example replay_incident
//! ```

use hpcmon::durability::wal::{encode_record, scan_segment, WAL_MAGIC};
use hpcmon::durability::{DurabilityConfig, PlaneFiles, SimDisk, StorageMedium};
use hpcmon::metrics::ColumnFrame;
use hpcmon::system::durability::{decode_tick_record, encode_tick_record};
use hpcmon::{MonitorBuilder, MonitorOptions, Replayer, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{MetricId, Ts, MINUTE_MS};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};
use hpcmon_store::{AggFn, TimeRange};
use std::sync::Arc;

const TICKS: u64 = 500;
const CHECKPOINT_EVERY: u64 = 400;
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

/// The recorded run's options: what the replayer rebuilds it from.
fn options() -> MonitorOptions {
    MonitorOptions {
        chaos: Some((2018, incident_plan())),
        self_telemetry: false,
        gateway: Some(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }),
        ..MonitorOptions::new(SimConfig::small())
    }
}

/// Record the soak: jobs and machine faults go through the system's own
/// input API, so they land in the WAL; operator queries are served live
/// and journal nothing, since they move no hashed state.
fn record(disk: Arc<SimDisk>) {
    let durability =
        DurabilityConfig { checkpoint_every: CHECKPOINT_EVERY, ..DurabilityConfig::default() };
    let mut mon = MonitorBuilder::from_options(options()).durability(disk, durability).build();
    mon.set_state_hashing(true);

    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        400 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        8,
        120 * MINUTE_MS,
        Ts(30 * MINUTE_MS),
    ));
    mon.schedule_fault(Ts(90 * MINUTE_MS), FaultKind::NodeCrash { node: 3 });

    let ops = Consumer::admin("ops");
    for t in 0..TICKS {
        // An operator polls a fleet aggregate every 50 ticks.
        if t % 50 == 25 {
            let resp = mon.gateway().expect("gateway is on").query(
                &ops,
                QueryRequest::AggregateAcross {
                    metric: MetricId(0),
                    range: TimeRange { from: Ts::ZERO, to: Ts(u64::MAX) },
                    agg: AggFn::Mean,
                },
            );
            assert!(resp.is_ok(), "the query must succeed");
        }
        mon.tick();
    }
}

/// Flip bit 17 of the store sub-hash recorded for `tick`, re-framing its
/// WAL record with a valid CRC so only the hash chain can tell.  The
/// re-encoded record drops its sample section, which replay never reads.
fn tamper(disk: &SimDisk, tick: u64) {
    for (_, name) in PlaneFiles::list(disk).segments {
        let bytes = disk.read(&name).expect("segment reads");
        let mut out = WAL_MAGIC.to_vec();
        scan_segment(&bytes, |r| {
            let mut payload = r.payload.to_vec();
            if r.tick == tick {
                let (mut rec, _) = decode_tick_record(r.payload).expect("a tick record");
                let hash = rec.hash.as_mut().expect("a recording carries every hash");
                hash.store ^= 1 << 17;
                hash.combined ^= 1 << 17;
                payload = encode_tick_record(&rec, &ColumnFrame::default());
            }
            encode_record(r.kind, r.tick, &payload, &mut out);
        });
        disk.overwrite(&name, &out).expect("segment rewrites");
    }
}

fn main() {
    quiet_injected_panics();
    println!("=== incident record/replay workflow ===");

    // ---- 1. Record ----------------------------------------------------
    let t0 = std::time::Instant::now();
    let disk = Arc::new(SimDisk::new());
    record(disk.clone());
    let record_s = t0.elapsed().as_secs_f64();
    let files = PlaneFiles::list(&*disk);
    println!(
        "recorded {TICKS} ticks in {record_s:.1}s: {} segments, {} checkpoints, {:.1} KiB",
        files.segments.len(),
        files.checkpoints.len(),
        disk.total_bytes() as f64 / 1024.0,
    );

    // ---- 2. Replay, bit-identical -------------------------------------
    let t0 = std::time::Instant::now();
    let outcome = Replayer::open(options(), disk.clone()).expect("the medium opens").run_to_end();
    assert!(outcome.is_clean(), "replay diverged: {:?}", outcome.divergence);
    assert_eq!(outcome.ticks_verified, TICKS);
    println!(
        "replay:              {} / {TICKS} tick hashes verified in {:.1}s",
        outcome.ticks_verified,
        t0.elapsed().as_secs_f64(),
    );

    // ---- 3. Seek into the incident window, full tracing ---------------
    let mut rep = Replayer::open(options(), disk.clone()).expect("the medium opens");
    rep.force_full_tracing();
    let outcome = rep.seek(SEEK_TARGET).expect("the target is in the window");
    assert!(outcome.is_clean(), "seek diverged: {:?}", outcome.divergence);
    assert_eq!(rep.position(), SEEK_TARGET);
    // The 400-tick cadence means seek(400) restores checkpoint 400
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

    // ---- 4. Diagnose a tampered recording -----------------------------
    let tick = 455; // mid-window, between checkpoint 400 and the end
    tamper(&disk, tick);
    let outcome = Replayer::open(options(), disk).expect("a re-framed medium opens").run_to_end();
    assert_eq!(outcome.ticks_verified, tick - 1);
    let report = outcome.divergence.expect("tampered recording must diverge");
    assert_eq!(report.first_divergent_tick, tick);
    assert_eq!(report.subsystem, "store");
    assert_eq!(report.nearest_snapshot, Some(SEEK_TARGET));
    println!("\ntampered recording (store sub-hash bit-flip at tick {tick}):");
    print!("{}", report.render());

    println!("\nOK: record -> replay -> seek -> diagnose all verified");
}
