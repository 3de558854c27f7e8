//! Monitoring-plane fault injection: determinism and self-healing
//! invariants (DESIGN.md §10).
//!
//! The chaos engine breaks the *observers* — collectors panic and hang,
//! envelopes arrive bit-flipped, store shards refuse writes, broker topics
//! stall — and these tests pin the survival contract: every fault is
//! deterministic by seed (bit-identical store dumps between runs), every
//! collector gap surfaces through the deadman within two ticks, recovery
//! restores full coverage, and no frame accepted by the spill queue is lost
//! without being counted in `spill.dropped`.
//!
//! `chaos_runs_are_bit_identical_across_worker_counts` is named for the
//! worker pool PR 20 deleted; the name stays because the test floor tracks
//! names, and it compares what it did between two runs of one seed.

use hpcmon::system::TickReport;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{BreakerState, ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_metrics::{CompId, SeriesKey, Ts};
use hpcmon_response::{Signal, SignalKind};
use hpcmon_sim::{AppProfile, JobSpec};
use std::sync::Once;

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

/// One of every fault kind, overlapping, against the standard collectors.
fn dense_plan() -> ChaosPlan {
    plan(vec![
        (3, ChaosFault::CollectorPanic { collector: "power".into() }),
        (5, ChaosFault::CollectorHang { collector: "node".into(), ticks: 2 }),
        (6, ChaosFault::CollectorSlow { collector: "fs".into(), factor: 16.0, ticks: 2 }),
        (8, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 }),
        (10, ChaosFault::EnvelopeCorrupt { rate: 0.6, ticks: 4 }),
        (12, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 }),
    ])
}

fn builder() -> hpcmon::system::MonitorBuilder {
    MonitoringSystem::builder(SimConfig::small()).self_telemetry(false)
}

fn with_job(mut mon: MonitoringSystem) -> MonitoringSystem {
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        40 * 60_000,
        Ts::ZERO,
    ));
    mon
}

/// Every stored point of every series, in deterministic series order.
fn dump_store(mon: &MonitoringSystem) -> Vec<(SeriesKey, Vec<(Ts, f64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| (k, mon.store().query(k, Ts::ZERO, Ts(u64::MAX))))
        .collect()
}

fn assert_dumps_bit_identical(
    base: &[(SeriesKey, Vec<(Ts, f64)>)],
    other: &[(SeriesKey, Vec<(Ts, f64)>)],
    label: &str,
) {
    assert_eq!(base.len(), other.len(), "series counts differ: {label}");
    for ((bk, bp), (k, p)) in base.iter().zip(other) {
        assert_eq!(bk, k, "series sets diverge: {label}");
        assert_eq!(bp.len(), p.len(), "{bk:?} point counts differ: {label}");
        for ((bt, bv), (t, v)) in bp.iter().zip(p) {
            assert_eq!(bt, t, "{bk:?} timestamps differ: {label}");
            assert_eq!(bv.to_bits(), v.to_bits(), "{bk:?} values differ: {label}");
        }
    }
}

fn run_chaos(seed: u64) -> (Vec<TickReport>, Vec<Signal>, MonitoringSystem) {
    quiet_injected_panics();
    let mut mon = with_job(builder().chaos(seed, dense_plan()).build());
    let reports: Vec<TickReport> = (0..20).map(|_| mon.tick()).collect();
    let signals = mon.signals().to_vec();
    (reports, signals, mon)
}

/// Two runs of `seed` agree bit for bit on store dumps, reports, signals,
/// and injection counts.  Returns the first run's system.
fn assert_rerun_is_bit_identical(seed: u64) -> MonitoringSystem {
    let (r1, s1, m1) = run_chaos(seed);
    let (r2, s2, m2) = run_chaos(seed);
    assert_eq!(r1, r2, "TickReports differ");
    assert_eq!(s1, s2, "signal streams differ");
    assert_eq!(m1.chaos_counts(), m2.chaos_counts());
    assert_dumps_bit_identical(&dump_store(&m1), &dump_store(&m2), "same seed rerun");
    m1
}

/// (c) Same seed + same schedule ⇒ bit-identical runs, every fault of the
/// dense plan fired.
#[test]
fn chaos_runs_are_bit_identical_across_worker_counts() {
    let mon = assert_rerun_is_bit_identical(42);
    assert!(mon.chaos_counts().unwrap().total() >= 7, "dense plan all fired");
}

/// Chaos is reproducible by seed: reruns agree exactly, and a different
/// seed corrupts a different set of envelopes.
#[test]
fn chaos_is_reproducible_by_seed() {
    let m1 = assert_rerun_is_bit_identical(7);
    let (_, _, m3) = run_chaos(8);
    assert_ne!(
        dump_store(&m1),
        dump_store(&m3),
        "a different seed flips different envelopes, so different frames survive"
    );
}

/// A chaos engine with an empty plan changes nothing: reports, signals,
/// and the stored bytes match a default build exactly.  (Named when
/// supervision was a switch; every tick is supervised now.)
#[test]
fn supervision_without_chaos_is_bit_identical_to_baseline() {
    let run = |chaos: bool| {
        let b = builder();
        let b = if chaos { b.chaos(42, ChaosPlan::from_faults(vec![])) } else { b };
        let mut mon = with_job(b.build());
        let reports: Vec<TickReport> = (0..15).map(|_| mon.tick()).collect();
        (reports, mon.signals().to_vec(), dump_store(&mon))
    };
    let (base_reports, base_signals, base_dump) = run(false);
    let (reports, signals, dump) = run(true);
    assert_eq!(base_reports, reports);
    assert_eq!(base_signals, signals);
    assert_dumps_bit_identical(&base_dump, &dump, "empty chaos plan");
}

/// A faulted collector surfaces as a `MonitoringGap` within two ticks of
/// injection (quarantine collapses the deadman grace), and once the fault
/// clears the backoff probe re-admits it: quarantine empties and frame
/// coverage returns to 100%.
#[test]
fn collector_fault_surfaces_within_two_ticks_and_heals() {
    quiet_injected_panics();
    let fault_tick = 5u64;
    let p =
        plan(vec![(fault_tick, ChaosFault::CollectorHang { collector: "power".into(), ticks: 3 })]);
    let mut mon = with_job(builder().chaos(99, p).build());
    let mut gap_tick = None;
    for tick in 1..=16u64 {
        let r = mon.tick();
        if gap_tick.is_none()
            && r.signals
                .iter()
                .any(|s| s.kind == SignalKind::MonitoringGap && s.detail.contains("power"))
        {
            gap_tick = Some(tick);
        }
        if (fault_tick..fault_tick + 3).contains(&tick) {
            assert_eq!(mon.quarantined_collectors(), 1, "quarantined while hung (tick {tick})");
            let cov = mon.last_coverage().unwrap();
            assert!(!cov.is_full(), "coverage reflects the gap (tick {tick})");
            assert!(cov.pct() < 100.0);
        }
    }
    let gap_tick = gap_tick.expect("hang surfaced as MonitoringGap");
    assert!(
        gap_tick <= fault_tick + 1,
        "gap must surface within 2 ticks of injection: got tick {gap_tick}"
    );
    // Fault expired at tick 8; the backoff probe (1 -> 2 -> 4, capped)
    // re-admits well before tick 16.
    assert_eq!(mon.quarantined_collectors(), 0, "probe re-admitted the collector");
    assert!(mon.last_coverage().unwrap().is_full(), "coverage back to 100%");
    assert!(
        mon.signals().iter().any(|s| s.kind == SignalKind::MonitoringGap),
        "the gap was reported, never silent"
    );
}

/// Store write faults trip the breaker and spill frames; when the shard
/// heals, the half-open probe drains the spill in arrival order — the
/// final store contents are identical to a fault-free run, with zero
/// frames dropped.
#[test]
fn store_fault_spills_then_drains_losslessly() {
    quiet_injected_panics();
    let baseline = {
        let mut mon = with_job(builder().build());
        let reports: Vec<TickReport> = (0..14).map(|_| mon.tick()).collect();
        (reports, dump_store(&mon))
    };
    let p = plan(vec![(4, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 })]);
    let mut mon = with_job(builder().chaos(5, p).build());
    let mut spilled_at_peak = 0usize;
    let mut reports = Vec::new();
    for tick in 1..=14u64 {
        reports.push(mon.tick());
        if (4..=6).contains(&tick) {
            assert_ne!(
                mon.breaker_state(),
                BreakerState::Closed,
                "breaker tripped during the outage (tick {tick})"
            );
            spilled_at_peak = spilled_at_peak.max(mon.spill_depth());
        }
    }
    assert!(spilled_at_peak > 0, "frames spilled while the shard refused writes");
    assert_eq!(mon.breaker_state(), BreakerState::Closed, "breaker closed after the probe");
    assert_eq!(mon.spill_depth(), 0, "spill fully drained");
    assert_eq!(mon.spill_dropped(), 0, "bounded queue never overflowed here");
    assert_eq!(baseline.0, reports, "analysis was unaffected by the store outage");
    assert_dumps_bit_identical(
        &baseline.1,
        &dump_store(&mon),
        "store contents after drain match a fault-free run",
    );
}

/// The same outage across a benchmark-suite tick: the key column changes
/// while frames spill, and the drain hands the store frames published ticks
/// ago — whose key columns the arena's layout no longer describes — before
/// the next current one.  Store contents and tick reports still equal a
/// fault-free run.
#[test]
fn store_fault_across_a_key_column_change_drains_losslessly() {
    quiet_injected_panics();
    let baseline = {
        let mut mon = with_job(builder().build());
        let reports: Vec<TickReport> = (0..24).map(|_| mon.tick()).collect();
        (reports, dump_store(&mon))
    };
    let p = plan(vec![(9, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 })]);
    let mut mon = with_job(builder().chaos(5, p).build());
    let mut reports = Vec::new();
    let mut spilled_samples = Vec::new();
    for _ in 1..=24u64 {
        reports.push(mon.tick());
        if mon.breaker_state() != BreakerState::Closed {
            spilled_samples.push(reports.last().unwrap().samples);
        }
    }
    assert!(spilled_samples.len() >= 3, "the breaker stayed open over the outage");
    assert!(
        spilled_samples.windows(2).any(|w| w[0] != w[1]),
        "the key column changed while frames spilled: {spilled_samples:?}"
    );
    assert_eq!(mon.breaker_state(), BreakerState::Closed, "breaker closed after the probe");
    assert_eq!((mon.spill_depth(), mon.spill_dropped()), (0, 0), "spill drained, nothing lost");
    assert_eq!(baseline.0, reports, "analysis was unaffected by the store outage");
    assert_dumps_bit_identical(
        &baseline.1,
        &dump_store(&mon),
        "store contents after drain match a fault-free run",
    );
}

/// A spilled frame goes into checkpoints with the rest of the state.  One
/// whose value column came back a value short would have panicked the
/// drain's ingest; the checkpoint is refused instead, as a whole.
#[test]
fn a_checkpointed_spilled_frame_one_value_short_is_refused() {
    quiet_injected_panics();
    let p = plan(vec![(4, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 })]);
    let mut mon = with_job(builder().chaos(5, p).build());
    while mon.spill_depth() == 0 {
        mon.tick();
    }
    let json = serde_json::to_string(&mon.snapshot()).expect("serializes");
    assert!(serde_json::from_str::<hpcmon::CoreSnapshot>(&json).is_ok(), "the checkpoint loads");
    // Drop the first value of the first spilled frame.
    let frames = json.find("\"breaker_frames\":[").expect("spilled frames are checkpointed");
    let values = frames + json[frames..].find("\"values\":[").expect("a spilled frame") + 10;
    let first = json[values..].find(',').expect("more than one value");
    let short = format!("{}{}", &json[..values], &json[values + first + 1..]);
    let err = serde_json::from_slice::<hpcmon::CoreSnapshot>(short.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("keys but"), "{err}");
}

/// A stalled broker topic buffers frames in order and replays them the
/// tick the stall clears: nothing is lost, nothing is reordered.
#[test]
fn topic_stall_buffers_then_drains_in_order() {
    quiet_injected_panics();
    let baseline = {
        let mut mon = with_job(builder().build());
        mon.run_ticks(12);
        dump_store(&mon)
    };
    let p =
        plan(vec![(4, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 })]);
    let mut mon = with_job(builder().chaos(11, p).build());
    for tick in 1..=12u64 {
        mon.tick();
        match tick {
            4 => assert_eq!(mon.stalled_frames(), 1, "first stalled frame buffered"),
            5 => assert_eq!(mon.stalled_frames(), 2, "second stalled frame buffered"),
            6 => assert_eq!(mon.stalled_frames(), 0, "stall cleared, buffer drained"),
            _ => {}
        }
    }
    assert_dumps_bit_identical(&baseline, &dump_store(&mon), "stalled frames arrived late, intact");
}

/// (a) Corrupt envelopes are counted and skipped — decode failures land in
/// `transport.decode_errors` with drop provenance, undetectable flips pass
/// through, and the arithmetic closes: every published frame is either
/// stored or counted as a decode error.
#[test]
fn corrupt_envelopes_are_counted_and_skipped() {
    quiet_injected_panics();
    let ticks = 12u64;
    let p = plan(vec![(1, ChaosFault::EnvelopeCorrupt { rate: 0.7, ticks: 10 })]);
    let mut mon = with_job(builder().chaos(1234, p).build());
    mon.run_ticks(ticks);
    let corrupted = mon.chaos_counts().unwrap().envelope_corrupt;
    let decode_errors = mon.broker().stats().decode_errors;
    assert!(corrupted > 0, "the rate draw hit some envelopes");
    assert!(decode_errors > 0, "some flips broke the JSON envelope");
    assert!(decode_errors <= corrupted, "only corrupted envelopes can fail decode");
    // A frame survives iff its envelope decoded: stored frame count per
    // tick-resolution series equals ticks minus decode failures.
    let m = mon.metrics();
    let stored = mon
        .store()
        .query(SeriesKey::new(m.system_power, CompId::SYSTEM), Ts::ZERO, Ts(u64::MAX))
        .len() as u64;
    assert_eq!(stored, ticks - decode_errors, "skipped frames are exactly the decode errors");
}
