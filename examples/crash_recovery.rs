//! Crash/recovery drill: kill the monitoring system at a seeded tick
//! under active disk-fault chaos, recover from the write-ahead log, and
//! verify the result against an uninterrupted reference (DESIGN.md §15).
//!
//! The drill runs the same crash twice, once per sync policy:
//!
//! 1. **fsync-per-tick** — zero loss: the recovered system resumes at
//!    exactly the crash tick, its state hash matches the reference chain,
//!    and its full snapshot is byte-identical to the reference's.
//! 2. **group-commit(4)** — bounded loss: at most one commit window of
//!    ticks is lost, and the recovered state is byte-identical to the
//!    reference at whatever tick it resumed.
//!
//! Both recoveries then continue in lockstep with the reference for a
//! tail of ticks, re-verifying the hash chain every tick.  Any violation
//! panics, so the process exits nonzero — the CI crash-soak job runs this
//! across seeds.
//!
//! ```sh
//! cargo run --release --example crash_recovery            # seed 2018
//! cargo run --release --example crash_recovery -- 7       # seed 7
//! ```

use hpcmon::{MonitoringSystem, SimConfig, TickStateHash};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_durability::{DurabilityConfig, SimDisk, SyncPolicy};
use hpcmon_metrics::{Ts, MINUTE_MS};
use hpcmon_sim::{AppProfile, JobSpec};
use std::sync::Arc;

/// Ticks of lockstep continuation after each recovery.
const TAIL: u64 = 8;

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

/// Disk and pipeline faults, all lossless under retry + fsync: refused
/// appends queue in the plane's backlog, torn writes only bite unsynced
/// bytes.  Offsets are spread across the pre-crash window.
fn fault_plan(crash_tick: u64) -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    let at = |frac: u64| 2 + (crash_tick - 4) * frac / 8;
    plan.schedule(at(0), ChaosFault::CollectorPanic { collector: "power".into() });
    plan.schedule(at(1), ChaosFault::DiskWriteFail { ticks: 2 });
    plan.schedule(at(3), ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 });
    plan.schedule(at(4), ChaosFault::DiskFull { ticks: 2 });
    plan.schedule(at(6), ChaosFault::StoreWriteFail { shard: 0, ticks: 2 });
    plan.schedule(at(7), ChaosFault::DiskTornWrite);
    plan
}

fn builder(seed: u64, crash_tick: u64) -> hpcmon::system::MonitorBuilder {
    MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .chaos(seed, fault_plan(crash_tick))
}

fn seed_inputs(mon: &mut MonitoringSystem) {
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        400 * MINUTE_MS,
        Ts::ZERO,
    ));
}

fn state_json(mon: &MonitoringSystem) -> String {
    serde_json::to_string(&mon.snapshot()).expect("snapshot serializes")
}

/// Uninterrupted reference run: hash chain for `ticks` ticks and the
/// serialized snapshot at each tick the drill will byte-diff against.
fn reference(seed: u64, crash_tick: u64, ticks: u64) -> Vec<(TickStateHash, String)> {
    let mut mon = builder(seed, crash_tick).build();
    mon.set_state_hashing(true);
    seed_inputs(&mut mon);
    (0..ticks)
        .map(|_| {
            mon.tick();
            (mon.last_state_hash().expect("hashing on"), state_json(&mon))
        })
        .collect()
}

/// Crash at `crash_tick` under `policy`, recover, verify.  Returns
/// `(resumed_tick, recovery_report_json)`.
fn drill(
    seed: u64,
    crash_tick: u64,
    policy: SyncPolicy,
    chain: &[(TickStateHash, String)],
) -> (u64, String) {
    let cfg = DurabilityConfig { sync: policy, checkpoint_every: 8, scrub_every: 4 };
    let disk = Arc::new(SimDisk::new());
    let mut durable = builder(seed, crash_tick).durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..crash_tick {
        durable.tick();
    }
    assert_eq!(
        durable.last_state_hash().unwrap(),
        chain[crash_tick as usize - 1].0,
        "durability plane must be hash-neutral"
    );
    drop(durable);
    disk.crash();

    let mut recovered = builder(seed, crash_tick).build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk, cfg);
    let resumed = outcome.resumed_tick;
    assert_eq!(outcome.hash_mismatches, 0, "replay diverged from the recorded chain: {outcome:?}");
    assert!(resumed <= crash_tick, "recovery cannot invent ticks");
    assert!(
        resumed + policy.loss_bound() >= crash_tick,
        "lost more than the sync policy allows: resumed {resumed}, crashed {crash_tick}"
    );
    if policy == SyncPolicy::EveryTick {
        assert_eq!(resumed, crash_tick, "fsync-per-tick loses zero ticks");
    }
    let (want_hash, want_json) = &chain[resumed as usize - 1];
    // A resume with zero replayed ticks restored straight from the
    // checkpoint: there is no frame to hash until the next tick, so the
    // chain check is carried by the byte-diff and the lockstep below.
    if outcome.replayed_ticks > 0 {
        assert_eq!(recovered.last_state_hash().unwrap(), *want_hash, "hash chain broken at resume");
    }
    assert_eq!(&state_json(&recovered), want_json, "recovered state not byte-identical");

    // Lockstep continuation: the recovered system must track the
    // reference chain tick for tick.
    for t in resumed..resumed + TAIL {
        recovered.tick();
        assert_eq!(
            recovered.last_state_hash().unwrap(),
            chain[t as usize].0,
            "post-recovery divergence at tick {}",
            t + 1
        );
    }
    (resumed, serde_json::to_string(&outcome.report).unwrap())
}

fn main() {
    quiet_injected_panics();
    let seed: u64 = std::env::args().nth(1).map(|a| a.parse().expect("seed")).unwrap_or(2018);
    let crash_tick = 12 + seed % 9; // seeded kill point, 12..=20

    println!("=== crash recovery drill: seed {seed}, crash at {crash_tick} ===");
    let chain = reference(seed, crash_tick, crash_tick + TAIL + 4);

    let (resumed, report) = drill(seed, crash_tick, SyncPolicy::EveryTick, &chain);
    println!("  fsync-per-tick: resumed at {resumed} (zero loss), report {report}");

    let policy = SyncPolicy::GroupCommit(4);
    let (resumed, report) = drill(seed, crash_tick, policy, &chain);
    println!(
        "  group-commit(4): resumed at {resumed} (lost {} ≤ {}), report {report}",
        crash_tick - resumed,
        policy.loss_bound()
    );
    println!("  verified: hash chain, byte-identical snapshots, {TAIL}-tick lockstep continuation");
    println!("OK");
}
