//! Crash-tolerant durability: WAL + checkpoint recovery under disk-fault
//! chaos (DESIGN.md §15).
//!
//! These tests pin the durability contract end to end: a system with the
//! plane attached produces the *same state-hash chain* as a twin without
//! it (durability is hash-neutral); a crash at any tick recovers — restore
//! the newest checkpoint, replay the WAL tail — to a state byte-identical
//! to an uninterrupted reference at the resume tick; fsync-per-tick loses
//! zero ticks, group-commit loses at most one window; torn tails are
//! truncated, mid-log corruption is diagnosed to a tick and fails closed,
//! and none of it ever panics — including under arbitrary truncations and
//! single-bit flips of the on-disk files.

use hpcmon::health::{HealthConfig, Transition};
use hpcmon::system::durability::{decode_tick_record, encode_tick_record, SAMPLE_LEN};
use hpcmon::{DurableTickRecord, MonitoringSystem, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_durability::wal::{
    decode_checkpoint, encode_record, scan_segment, KIND_END, KIND_HEADER, KIND_SNAPSHOT,
    KIND_TICK, WAL_MAGIC,
};
use hpcmon_durability::{
    DurabilityConfig, DurabilityPlane, RecoveredState, ScanEnd, SimDisk, StorageMedium, SyncPolicy,
};
use hpcmon_metrics::{ColumnFrame, CompId, MetricId, Sample, SeriesKey, Ts};
use hpcmon_sim::{AppProfile, JobSpec};
use proptest::prelude::*;
use std::sync::{Arc, Once};

/// Injected collector panics unwind through the supervisor's
/// `catch_unwind`; keep the default hook from spamming test output with
/// expected backtraces while leaving real panics loud.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

fn plan(faults: Vec<(u64, ChaosFault)>) -> ChaosPlan {
    ChaosPlan::from_faults(
        faults.into_iter().map(|(at_tick, fault)| ScheduledFault { at_tick, fault }).collect(),
    )
}

/// Pipeline and disk faults that are all lossless under fsync-per-tick:
/// refused appends queue in the backlog and retry, torn writes only bite
/// unsynced bytes, and there is deliberately no `DiskCorruptByte` (bit rot
/// in the live WAL tail is legitimate loss, exercised separately).
fn lossless_plan() -> ChaosPlan {
    plan(vec![
        (3, ChaosFault::CollectorPanic { collector: "power".into() }),
        (4, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 }),
        (6, ChaosFault::DiskWriteFail { ticks: 2 }),
        (9, ChaosFault::StoreWriteFail { shard: 0, ticks: 2 }),
        (11, ChaosFault::DiskFull { ticks: 2 }),
        (15, ChaosFault::DiskTornWrite),
    ])
}

fn builder() -> hpcmon::system::MonitorBuilder {
    MonitoringSystem::builder(SimConfig::small()).self_telemetry(false)
}

/// External inputs submitted before tick 1; the WAL records them, so the
/// recovered system must *not* have them resubmitted by hand.
fn seed_inputs(mon: &mut MonitoringSystem) {
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        40 * 60_000,
        Ts::ZERO,
    ));
}

/// Canonical byte-diffable image of the full core state.
fn state_json(mon: &MonitoringSystem) -> String {
    serde_json::to_string(&mon.snapshot()).expect("snapshot serializes")
}

/// Run a fresh reference twin (no durability plane) for `ticks` ticks and
/// return its per-tick hash chain plus the system itself.
fn reference_run(
    mk: impl Fn() -> hpcmon::system::MonitorBuilder,
    ticks: u64,
) -> (Vec<hpcmon::TickStateHash>, MonitoringSystem) {
    let mut mon = mk().build();
    mon.set_state_hashing(true);
    seed_inputs(&mut mon);
    let mut chain = Vec::new();
    for _ in 0..ticks {
        mon.tick();
        chain.push(mon.last_state_hash().expect("hashing on"));
    }
    (chain, mon)
}

/// Fsync-per-tick: crash at an arbitrary tick under active chaos
/// (write-fail, disk-full, torn-write windows all in flight) and recover
/// with **zero loss** — the recovered state is byte-identical to an
/// uninterrupted reference.  (Named before PR 20 deleted the worker pool;
/// the test floor tracks names, so the name stays.)
#[test]
fn fsync_crash_recovers_zero_loss_at_workers_0_and_4() {
    quiet_injected_panics();
    let crash_tick = 17u64;
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 4 };
    let mk = || builder().chaos(7, lossless_plan());
    let (chain, mut reference) = reference_run(mk, crash_tick);

    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..crash_tick {
        durable.tick();
    }
    // The plane never feeds back into monitored state: same hash chain.
    assert_eq!(
        durable.last_state_hash().unwrap(),
        chain[crash_tick as usize - 1],
        "durability plane must be hash-neutral"
    );
    let counts = durable.durability_counts().unwrap();
    assert_eq!(counts.records_appended, crash_tick, "backlog drained every record");
    assert!(counts.append_failures > 0, "the fault windows actually bit");
    assert!(counts.checkpoints >= 2);
    drop(durable);
    disk.crash(); // power cut; fsync-per-tick means nothing was pending

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk.clone(), cfg);
    assert_eq!(outcome.resumed_tick, crash_tick, "zero ticks lost");
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.undecodable_records, 0);
    assert_eq!(outcome.checkpoint_tick, Some(16), "checkpoint at tick 16 restored");
    assert_eq!(outcome.replayed_ticks, 1, "only the tail past the checkpoint replays");
    assert_eq!(recovered.last_state_hash().unwrap(), chain[crash_tick as usize - 1]);
    assert_eq!(
        state_json(&recovered),
        state_json(&reference),
        "recovered state byte-identical to the uninterrupted reference"
    );
    // And the recovered system continues in lockstep with the reference.
    for _ in 0..3 {
        reference.tick();
        recovered.tick();
    }
    assert_eq!(recovered.last_state_hash(), reference.last_state_hash());
}

/// Group-commit: a crash between syncs loses at most one commit window of
/// ticks, and the survivors recover to a byte-identical prefix state.
#[test]
fn group_commit_crash_loses_at_most_one_window() {
    quiet_injected_panics();
    let crash_tick = 18u64;
    let cfg =
        DurabilityConfig { sync: SyncPolicy::GroupCommit(4), checkpoint_every: 0, scrub_every: 0 };
    let mk = || builder().chaos(7, lossless_plan());
    let (chain, _reference) = reference_run(mk, crash_tick);

    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..crash_tick {
        durable.tick();
    }
    drop(durable);
    // The tick-15 DiskTornWrite is armed: the crash keeps a seeded partial
    // prefix of the unsynced tail — a record cut mid-frame.
    disk.crash();

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk.clone(), cfg);
    let resumed = outcome.resumed_tick;
    assert!(resumed <= crash_tick);
    assert!(
        resumed + cfg.sync.loss_bound() >= crash_tick,
        "lost more than one commit window: resumed {resumed}, crashed {crash_tick}"
    );
    assert!(resumed >= 15, "everything up to the last group sync survives");
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.replayed_ticks, resumed, "no checkpoint: the whole WAL replays");
    assert_eq!(recovered.last_state_hash().unwrap(), chain[resumed as usize - 1]);

    // Byte-diff against a fresh reference run to exactly the resume tick.
    let (_, ref_at_resume) = reference_run(mk, resumed);
    assert_eq!(state_json(&recovered), state_json(&ref_at_resume));
}

/// A flipped bit in the middle of the log is *corruption*, not a crash
/// artifact: recovery diagnoses it to the exact tick, cuts the log there,
/// recovers the clean prefix, and never panics.
#[test]
fn midlog_corruption_fails_closed_to_a_tick() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let mk = || builder();
    let (chain, _reference) = reference_run(mk, 12);

    let disk = Arc::new(SimDisk::new());
    let mut durable = mk().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    for _ in 0..12 {
        durable.tick();
    }
    drop(durable);

    // Flip one payload bit inside the tick-6 record of the sole segment.
    let seg = disk.read("wal-0000000000.seg").unwrap();
    let (records, end) = scan_segment(&seg);
    assert_eq!(end, ScanEnd::Clean);
    assert_eq!(records.len(), 12);
    let mut off = 8; // segment magic
    for r in &records[..5] {
        off += 17 + r.payload.len(); // record header + payload
    }
    let mut mutated = seg.clone();
    mutated[off + 17 + 3] ^= 0x01;
    let bad_disk = Arc::new(SimDisk::new());
    bad_disk.overwrite("wal-0000000000.seg", &mutated).unwrap();

    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(bad_disk, cfg);
    assert_eq!(outcome.report.corrupt_events, 1);
    assert_eq!(outcome.report.first_bad_tick, Some(6), "damage pinned to the flipped record");
    assert_eq!(outcome.resumed_tick, 5, "clean prefix before the damage recovers");
    assert_eq!(outcome.hash_mismatches, 0);
    assert_eq!(recovered.last_state_hash().unwrap(), chain[4]);
    let (_, ref_at_resume) = reference_run(mk, 5);
    assert_eq!(state_json(&recovered), state_json(&ref_at_resume));
}

/// Dense disk chaos — bit rot, write failures, torn writes, a full disk —
/// with crashes dropped at different ticks: recovery never panics and is
/// always *prefix-consistent* (the recovered state equals an
/// uninterrupted reference at whatever tick it resumed), even when rot in
/// the live tail makes some loss legitimate.
#[test]
fn crash_soak_under_disk_chaos_is_prefix_consistent() {
    quiet_injected_panics();
    let soak_plan = || {
        plan(vec![
            (2, ChaosFault::DiskCorruptByte),
            (3, ChaosFault::DiskWriteFail { ticks: 2 }),
            (5, ChaosFault::DiskTornWrite),
            (6, ChaosFault::DiskFull { ticks: 2 }),
            (9, ChaosFault::DiskCorruptByte),
            (10, ChaosFault::CollectorPanic { collector: "power".into() }),
            (13, ChaosFault::DiskTornWrite),
            (14, ChaosFault::DiskCorruptByte),
        ])
    };
    let cfg =
        DurabilityConfig { sync: SyncPolicy::GroupCommit(2), checkpoint_every: 4, scrub_every: 3 };
    for crash_tick in [7u64, 16] {
        let mk = || builder().chaos(23, soak_plan());
        let disk = Arc::new(SimDisk::new());
        let mut durable = mk().durability(disk.clone(), cfg).build();
        durable.set_state_hashing(true);
        seed_inputs(&mut durable);
        for _ in 0..crash_tick {
            durable.tick();
        }
        drop(durable);
        disk.crash();

        let mut recovered = mk().build();
        recovered.set_state_hashing(true);
        let outcome = recovered.recover_from_medium(disk.clone(), cfg);
        let resumed = outcome.resumed_tick;
        assert!(resumed <= crash_tick, "recovery cannot invent ticks");
        assert_eq!(outcome.hash_mismatches, 0, "replayed state must match the recorded hashes");

        // A resume at tick 0 means the whole log was destroyed — and with
        // it the inputs submitted before tick 1, so the reference for that
        // prefix is a fresh, un-seeded build.
        let mut ref_at_resume = if resumed == 0 {
            let mut fresh = mk().build();
            fresh.set_state_hashing(true);
            fresh
        } else {
            reference_run(mk, resumed).1
        };
        assert_eq!(
            state_json(&recovered),
            state_json(&ref_at_resume),
            "crash at {crash_tick}, resumed {resumed}: prefix not consistent ({:?})",
            outcome.report
        );
        // Still in lockstep going forward.
        ref_at_resume.tick();
        recovered.tick();
        assert_eq!(recovered.last_state_hash(), ref_at_resume.last_state_hash());
    }
}

/// A sustained disk-fault window burns the `store.durability` SLO budget:
/// the health plane raises the durability alert and resolves it once the
/// backlog drains.
#[test]
fn disk_fault_window_fires_the_durability_slo() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut mon = builder()
        .chaos(11, plan(vec![(4, ChaosFault::DiskWriteFail { ticks: 12 })]))
        .health(HealthConfig::standard().durability())
        .durability(disk, cfg)
        .build();
    mon.run_ticks(36);
    let transitions: Vec<(u64, Transition)> = mon
        .alert_events()
        .iter()
        .filter(|e| e.key == "store/durability")
        .map(|e| (e.tick, e.transition))
        .collect();
    assert!(
        transitions.iter().any(|(_, t)| *t == Transition::Firing),
        "durability SLO never fired: {transitions:?}\n{}",
        mon.health_timeline()
    );
    assert!(
        transitions.iter().any(|(_, t)| *t == Transition::Resolved),
        "durability SLO never resolved after the window: {transitions:?}"
    );
}

/// The `store/durability` SLO is fed from the plane's failure counters,
/// which are disk-fault driven and gone after a crash.  Each tick journals
/// the totals it fed, so replaying the WAL tail — through a write-fail
/// window that also swallowed a checkpoint — reproduces the recorded hash
/// chain and the alert timeline of a twin that never crashed.
#[test]
fn durability_slo_feed_replays_through_a_crash() {
    let crash_tick = 22u64;
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 0 };
    let mk = || {
        builder()
            .chaos(11, plan(vec![(11, ChaosFault::DiskWriteFail { ticks: 8 })]))
            .health(HealthConfig::standard().durability())
    };
    let run = || {
        let disk = Arc::new(SimDisk::new());
        let mut mon = mk().durability(disk.clone(), cfg).build();
        mon.set_state_hashing(true);
        seed_inputs(&mut mon);
        mon.run_ticks(crash_tick);
        (mon, disk)
    };
    let (twin, _) = run();
    let counts = twin.durability_counts().unwrap();
    assert!(counts.append_failures > 0 && counts.checkpoint_failures > 0, "{counts:?}");
    assert!(
        twin.alert_events().iter().any(|e| e.key == "store/durability"),
        "the window must move the SLO: {}",
        twin.health_timeline()
    );

    let (crashed, disk) = run();
    drop(crashed);
    disk.crash();
    let mut recovered = mk().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk, cfg);
    assert_eq!(outcome.checkpoint_tick, Some(8), "the tick-16 checkpoint fell in the window");
    assert_eq!(outcome.resumed_tick, crash_tick);
    assert_eq!(outcome.replayed_ticks, crash_tick - 8);
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(outcome.first_mismatch_tick, None);
    assert_eq!(recovered.last_state_hash(), twin.last_state_hash());
    assert_eq!(recovered.health_timeline(), twin.health_timeline());
}

/// A durable, health-graded run under write-fail `windows`, ticked to
/// `ticks`; the system, its disk, and the builder a recovery needs.
fn slo_run(windows: &[u64], ticks: u64) -> (MonitoringSystem, Arc<SimDisk>, MonitoringSystem) {
    let mk = || {
        let faults = windows.iter().map(|&at| (at, ChaosFault::DiskWriteFail { ticks: 6 }));
        builder().chaos(11, plan(faults.collect())).health(HealthConfig::standard().durability())
    };
    let disk = Arc::new(SimDisk::new());
    let mut mon = mk().durability(disk.clone(), SLO_CFG).build();
    let mut fresh = mk().build();
    for m in [&mut mon, &mut fresh] {
        m.set_state_hashing(true);
    }
    seed_inputs(&mut mon);
    mon.run_ticks(ticks);
    (mon, disk, fresh)
}

const SLO_CFG: DurabilityConfig =
    DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 8, scrub_every: 0 };

fn durability_transitions(mon: &MonitoringSystem) -> Vec<(u64, Transition)> {
    let durability = mon.alert_events().iter().filter(|e| e.key == "store/durability");
    durability.map(|e| (e.tick, e.transition)).collect()
}

/// After a recovery the plane's counters start again from zero while the
/// restored health engine remembers the crashed run's totals — here 29
/// appends and the 13 failures of an earlier, resolved fault window — and
/// lifetime totals that fell are no evidence at all.  The feed carries on
/// from where the crashed run left it, so a second window opened on the
/// first tick after recovery walks the alert through pending, firing and
/// resolved tick for tick as in a twin that never crashed.
#[test]
fn disk_fault_window_right_after_recovery_fires_the_durability_slo() {
    let (crash_tick, end_tick) = (30u64, 60u64);
    let (twin, _, _) = slo_run(&[4, 31], end_tick);
    let walked = durability_transitions(&twin);
    assert_eq!(walked.len(), 6, "pending, firing, resolved — twice: {walked:?}");
    assert!(walked[2].0 < crash_tick && crash_tick < walked[3].0, "{walked:?}");

    let (crashed, disk, mut recovered) = slo_run(&[4, 31], crash_tick);
    assert_eq!(durability_transitions(&crashed), walked[..3], "resolved before the crash");
    drop(crashed);
    disk.crash();
    let outcome = recovered.recover_from_medium(disk, SLO_CFG);
    assert_eq!((outcome.resumed_tick, outcome.hash_mismatches), (crash_tick, 0), "{outcome:?}");
    let counts = recovered.durability_counts().unwrap();
    assert_eq!((counts.records_appended, counts.append_failures), (0, 0), "counting from zero");
    recovered.run_ticks(end_tick - crash_tick);
    assert_eq!(durability_transitions(&recovered), walked, "{}", recovered.health_timeline());
}

/// What the recovered plane already knows when it is attached must reach
/// the SLO too.  Recovery finds a flipped bit in the WAL tail and counts
/// one corruption event; the crashed run had fed 13 failures, so a feed
/// restarted at that 1 would have read as 12 fewer than before — nothing —
/// and then become the baseline.  Carried on from the old totals it is one
/// bad event against a 0.1% budget: the alert is pending on the first tick
/// after recovery and firing on the second.
#[test]
fn damage_recovery_diagnosed_reaches_the_durability_slo() {
    let (crashed, disk, mut recovered) = slo_run(&[4], 30);
    let before = durability_transitions(&crashed);
    assert!(crashed.durability_counts().unwrap().append_failures > 1);
    drop(crashed);
    disk.crash();
    // The tail segment holds ticks 25–30; flip a payload bit of tick 27.
    let (name, mut seg) = ("wal-0000000025.seg", disk.read("wal-0000000025.seg").unwrap());
    let (records, _) = scan_segment(&seg);
    let before_27: usize = records[..2].iter().map(|r| 17 + r.payload.len()).sum();
    seg[WAL_MAGIC.len() + before_27 + 17 + 3] ^= 0x01;
    disk.overwrite(name, &seg).unwrap();

    let outcome = recovered.recover_from_medium(disk, SLO_CFG);
    assert_eq!((outcome.report.corrupt_events, outcome.report.first_bad_tick), (1, Some(27)));
    assert_eq!(outcome.resumed_tick, 26);
    recovered.run_ticks(10);
    let after = durability_transitions(&recovered);
    assert_eq!(after[..before.len()], before, "history restored with the checkpoint");
    assert_eq!(
        after[before.len()..],
        [(27, Transition::Pending), (28, Transition::Firing), (36, Transition::Resolved)],
        "{}",
        recovered.health_timeline()
    );
}

/// The WAL payload is the real thing: each record decodes to the tick's
/// external inputs, its state hash, and every sample of the published
/// frame.
#[test]
fn wal_records_carry_inputs_frame_samples_and_hashes() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 0, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut mon = builder().durability(disk.clone(), cfg).build();
    mon.set_state_hashing(true);
    seed_inputs(&mut mon);
    mon.run_ticks(3);

    let seg = disk.read("wal-0000000000.seg").unwrap();
    let (records, end) = scan_segment(&seg);
    assert_eq!(end, ScanEnd::Clean);
    assert_eq!(records.len(), 3);
    for (i, r) in records.iter().enumerate() {
        let tick = i as u64 + 1;
        assert_eq!(r.tick, tick);
        let (dtr, samples) = decode_tick_record(&r.payload).expect("record decodes");
        assert_eq!(dtr.tick, tick);
        let hash = dtr.hash.expect("hashing was on, so records carry the chain");
        assert_eq!(hash.tick, tick);
        assert!(
            samples.len() > 100,
            "frame samples are durable ({} at tick {tick})",
            samples.len()
        );
    }
    let (first, _) = decode_tick_record(&records[0].payload).unwrap();
    assert_eq!(first.inputs.jobs.len(), 1, "tick 1 recorded the submitted job");
}

/// `decode_tick_record` reads artifact files handed to
/// `EventLog::read_from` as well as CRC-valid WAL payloads, and promises
/// `None` — not a panic — on anything that is not a tick record.  The
/// sample count is the dangerous field: 17 is odd, so for one stray byte
/// after an empty sample section `n = 17⁻¹ mod 2⁶⁴` makes a wrapping
/// `n * 17` land exactly on it, and `Vec::with_capacity(n)` used to abort
/// with `capacity overflow`.
#[test]
fn decode_tick_record_refuses_a_crafted_sample_count() {
    let record = DurableTickRecord { tick: 7, ..DurableTickRecord::default() };
    let honest = encode_tick_record(&record, &ColumnFrame::default());
    assert_eq!(decode_tick_record(&honest), Some((record, Vec::new())));
    let count_at = honest.len() - 8;
    assert_eq!(honest[count_at..], 0u64.to_le_bytes());

    const INVERSE_OF_17: u64 = 0xF0F0_F0F0_F0F0_F0F1;
    assert_eq!(SAMPLE_LEN, 17);
    assert_eq!(INVERSE_OF_17.wrapping_mul(17), 1);
    for (n, stray) in [(INVERSE_OF_17, 1usize), (u64::MAX, 0), (u64::MAX, 17), (1, 0), (0, 1)] {
        let mut crafted = honest.clone();
        crafted[count_at..].copy_from_slice(&n.to_le_bytes());
        crafted.extend(std::iter::repeat_n(0xAB, stray));
        assert_eq!(decode_tick_record(&crafted), None, "count {n:#x}, {stray} trailing bytes");
    }
    // Neither does any prefix, nor a JSON length pointing past the end.
    for cut in 0..honest.len() {
        assert_eq!(decode_tick_record(&honest[..cut]), None, "prefix of {cut} bytes");
    }
    let mut long_head = honest.clone();
    long_head[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_tick_record(&long_head), None);
}

/// A tick record in the older layout — 25 bytes a sample, a stamp between
/// index and value — is refused, not misread: `n` samples of 25 bytes are
/// never `n` of 17.  Recovery counts each one as undecodable, replays none,
/// and resumes at the checkpoint, as for any other schema skew.
#[test]
fn a_tick_record_with_a_stamp_per_sample_is_refused_and_counted() {
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 4, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut mon = builder().durability(disk.clone(), cfg).build();
    seed_inputs(&mut mon);
    mon.run_ticks(6);
    drop(mon);
    disk.crash();
    for name in disk.list().into_iter().filter(|f| f.starts_with("wal-")) {
        let (records, end) = scan_segment(&disk.read(&name).unwrap());
        assert_eq!(end, ScanEnd::Clean);
        let mut seg = WAL_MAGIC.to_vec();
        for r in records {
            let (_, samples) = decode_tick_record(&r.payload).expect("this layout decodes");
            assert!(!samples.is_empty());
            let head = r.payload.len() - samples.len() * SAMPLE_LEN;
            let mut old = r.payload[..head].to_vec();
            for s in r.payload[head..].chunks_exact(SAMPLE_LEN) {
                old.extend_from_slice(&s[..9]);
                old.extend_from_slice(&(r.tick * 60_000).to_le_bytes());
                old.extend_from_slice(&s[9..]);
            }
            assert_eq!(old.len(), head + samples.len() * 25);
            assert_eq!(decode_tick_record(&old), None, "tick {}", r.tick);
            encode_record(KIND_TICK, r.tick, &old, &mut seg);
        }
        disk.overwrite(&name, &seg).unwrap();
    }
    let outcome = builder().build().recover_from_medium(disk, cfg);
    assert_eq!(outcome.checkpoint_tick, Some(4), "{outcome:?}");
    assert_eq!(outcome.undecodable_records, 2, "ticks 5 and 6: {outcome:?}");
    assert_eq!((outcome.replayed_ticks, outcome.resumed_tick), (0, 4));
}

/// The plane writes tick records and nothing else.  A segment holding any
/// other kind — the flight recorder's header, snapshot and end records
/// share the framing, so a misfiled event log would look like this — is
/// damaged at that record: recovery keeps the ticks before it, drops
/// everything after, counts it, and leaves a medium that recovers clean.
#[test]
fn a_segment_holding_a_non_tick_record_fails_closed() {
    for kind in [KIND_HEADER, KIND_SNAPSHOT, KIND_END, 0x42] {
        let mut seg = WAL_MAGIC.to_vec();
        for tick in 1..=6u64 {
            if tick == 4 {
                encode_record(kind, tick, b"not a tick", &mut seg);
            }
            encode_record(KIND_TICK, tick, &synthetic_payload(tick), &mut seg);
        }
        assert_eq!(scan_segment(&seg).1, ScanEnd::Clean, "every record passes its CRC");
        let disk = Arc::new(SimDisk::new());
        disk.overwrite("wal-0000000001.seg", &seg).unwrap();
        let (_plane, state) = DurabilityPlane::recover(disk.clone(), plane_cfg());
        let ticks: Vec<u64> = state.records.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, [1, 2, 3], "kind {kind:#04x}: only the ticks before it are trusted");
        assert!(state.records.iter().all(|r| r.kind == KIND_TICK));
        let report = state.report;
        assert_eq!((report.corrupt_events, report.first_bad_tick), (1, Some(4)), "{report:?}");
        assert_eq!(report.records_dropped, 4, "the stranger and the three ticks behind it");
        let (_plane, again) = DurabilityPlane::recover(disk, plane_cfg());
        assert_eq!((again.report.corrupt_events, again.report.last_tick), (0, Some(3)));
    }
}

// ---------------------------------------------------------------------------
// Property tests: arbitrary damage to the on-disk files (satellite: every
// truncation prefix and every single-bit flip).  These drive the plane
// directly with synthetic payloads so thousands of recoveries stay cheap.
// ---------------------------------------------------------------------------

/// Samples no JSON number can carry — NaN with a payload, both infinities,
/// negative zero, a subnormal — sit in a warm block and in a hot buffer
/// when the checkpoint is taken.  The checkpoint must load (it used to fail
/// as `checkpoint_undecodable`: one `+Inf` wrote `null`, and the whole run
/// resumed from nothing) and hand every point back bit for bit.
#[test]
fn non_finite_samples_survive_checkpoint_crash_and_recovery() {
    let odd = [
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::from_bits(1),
        1.5,
    ];
    let key = SeriesKey::new(MetricId(60_000), CompId::SYSTEM);
    let bits = |mon: &MonitoringSystem| -> Vec<(Ts, u64)> {
        let points = mon.store().query(key, Ts::ZERO, Ts(u64::MAX));
        points.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
    };
    let cfg = DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 4, scrub_every: 0 };
    let disk = Arc::new(SimDisk::new());
    let mut durable = builder().durability(disk.clone(), cfg).build();
    durable.set_state_hashing(true);
    seed_inputs(&mut durable);
    // One whole seal (512 points) and a hot tail, written before tick 1 so
    // the checkpoint — not the WAL — is what has to carry them.
    let seal = hpcmon_store::TimeSeriesStore::DEFAULT_SEAL_THRESHOLD;
    for i in 0..seal + odd.len() {
        durable.store().insert(&Sample { key, ts: Ts(i as u64), value: odd[i % odd.len()] });
    }
    for _ in 0..6 {
        durable.tick();
    }
    let expected = bits(&durable);
    assert_eq!(expected.len(), seal + odd.len());
    assert!(expected.iter().zip(odd.iter().cycle()).all(|(got, v)| got.1 == v.to_bits()));
    let ops = durable.store().op_counts();
    assert!(ops.blocks_sealed >= 1);
    drop(durable);
    disk.crash();

    let mut recovered = builder().build();
    recovered.set_state_hashing(true);
    let outcome = recovered.recover_from_medium(disk, cfg);
    assert!(!outcome.checkpoint_undecodable, "{outcome:?}");
    assert_eq!(outcome.checkpoint_tick, Some(4));
    assert_eq!((outcome.replayed_ticks, outcome.resumed_tick), (2, 6));
    assert_eq!(outcome.hash_mismatches, 0, "{outcome:?}");
    assert_eq!(bits(&recovered), expected);
    assert_eq!(recovered.store().op_counts(), ops);
}

fn plane_cfg() -> DurabilityConfig {
    DurabilityConfig { sync: SyncPolicy::EveryTick, checkpoint_every: 5, scrub_every: 0 }
}

fn synthetic_payload(tick: u64) -> Vec<u8> {
    (0..40u8).map(|i| (tick as u8).wrapping_mul(31).wrapping_add(i)).collect()
}

/// Record 14 ticks with checkpoints at 5 and 10, then hand back the
/// durable file images.  Retention leaves `ckpt-5`, `ckpt-10`, `wal-6`
/// (ticks 6–10) and `wal-11` (ticks 11–14).
fn recorded_log() -> Vec<(String, Vec<u8>)> {
    let disk = Arc::new(SimDisk::new());
    let mut plane = DurabilityPlane::new(disk.clone(), plane_cfg());
    for tick in 1..=14u64 {
        plane.append_tick(tick, &synthetic_payload(tick));
        plane.end_tick(tick);
        if tick % 5 == 0 {
            plane.checkpoint(tick, format!("snap-{tick}").as_bytes()).unwrap();
        }
    }
    let files = disk.durable_files();
    assert_eq!(files.len(), 4, "{files:?}");
    files
}

/// Whether a file image is self-evidently damaged, by the same CRC rules
/// recovery uses.
fn is_damaged(name: &str, bytes: &[u8]) -> bool {
    if name.ends_with(".seg") {
        !matches!(scan_segment(bytes).1, ScanEnd::Clean)
    } else {
        decode_checkpoint(bytes).is_none()
    }
}

/// The recovered state must always be a trustworthy contiguous chain with
/// byte-exact payloads, whatever was done to the files.
fn assert_chain_integrity(state: &RecoveredState) {
    if let Some((tick, payload)) = &state.checkpoint {
        assert!(*tick == 5 || *tick == 10);
        assert_eq!(payload, format!("snap-{tick}").as_bytes());
        if let Some(first) = state.records.first() {
            assert_eq!(first.tick, tick + 1, "replay starts right after the checkpoint");
        }
    }
    for pair in state.records.windows(2) {
        assert_eq!(pair[1].tick, pair[0].tick + 1, "recovered records must be contiguous");
    }
    for r in &state.records {
        assert!((1..=14).contains(&r.tick));
        assert_eq!(r.payload, synthetic_payload(r.tick), "payload integrity at tick {}", r.tick);
    }
    let report = &state.report;
    assert!(report.corrupt_events == 0 || report.first_bad_tick.is_some());
}

/// Recover a mutated copy of the log and check the fail-closed contract:
/// never panic, never hand back an untrustworthy record, and if the
/// mutated file is CRC-damaged, say so in the report.
fn recover_mutated(files: &[(String, Vec<u8>)], mutated_idx: usize) {
    let disk = Arc::new(SimDisk::new());
    for (name, bytes) in files {
        disk.overwrite(name, bytes).unwrap();
    }
    let (_plane, state) = DurabilityPlane::recover(disk, plane_cfg());
    assert_chain_integrity(&state);
    let (name, bytes) = &files[mutated_idx];
    // A damaged *fallback* checkpoint is shadowed by the valid newest one:
    // recovery stops at the first checkpoint that validates and never
    // reads further back, so only damage it actually saw must be reported.
    let shadowed = name == "ckpt-0000000005.ck" && state.report.checkpoint_tick == Some(10);
    if is_damaged(name, bytes) && !shadowed {
        let r = &state.report;
        assert!(
            r.torn_tail_bytes > 0
                || r.corrupt_events > 0
                || r.checkpoints_invalid > 0
                || r.records_dropped > 0,
            "CRC damage in {name} went unreported: {r:?}"
        );
    }
}

/// Every truncation prefix of the live tail segment: recovery never
/// panics, keeps at least the checkpointed prefix, and reports torn bytes
/// whenever the cut is not on a record boundary.
#[test]
fn every_truncation_of_the_live_tail_recovers() {
    let files = recorded_log();
    let tail = files.iter().position(|(n, _)| n == "wal-0000000011.seg").unwrap();
    let full = files[tail].1.clone();
    for cut in 0..=full.len() {
        let mut mutated = files.clone();
        mutated[tail].1.truncate(cut);
        let disk = Arc::new(SimDisk::new());
        for (name, bytes) in &mutated {
            disk.overwrite(name, bytes).unwrap();
        }
        let (_plane, state) = DurabilityPlane::recover(disk, plane_cfg());
        assert_chain_integrity(&state);
        let last = state.report.last_tick.unwrap();
        assert!((10..=14).contains(&last), "cut {cut}: checkpointed prefix lost ({last})");
        if is_damaged("wal-0000000011.seg", &mutated[tail].1) {
            assert!(state.report.torn_tail_bytes > 0, "cut {cut}: {:?}", state.report);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate any file — segment or checkpoint — to any prefix length:
    /// recovery never panics and reports whatever the cut destroyed.
    #[test]
    fn recovery_survives_any_truncation(file_sel in 0usize..10_000, cut_sel in 0usize..100_000) {
        let mut files = recorded_log();
        let idx = file_sel % files.len();
        let cut = cut_sel % (files[idx].1.len() + 1);
        files[idx].1.truncate(cut);
        recover_mutated(&files, idx);
    }

    /// Flip any single bit of any file: CRC framing catches it, recovery
    /// never panics, and the damage is counted — as a torn tail, a corrupt
    /// record, or an invalid checkpoint.
    #[test]
    fn recovery_survives_any_single_bit_flip(
        file_sel in 0usize..10_000,
        byte_sel in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let mut files = recorded_log();
        let idx = file_sel % files.len();
        let byte = byte_sel % files[idx].1.len();
        files[idx].1[byte] ^= 1u8 << bit;
        recover_mutated(&files, idx);
    }
}
