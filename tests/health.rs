//! The SLO/alerting plane end to end (DESIGN.md §13): chaos-driven
//! incidents must produce alert timelines with deterministic tick stamps,
//! bit-identical between runs, replayable from a flight-recorder log, and
//! the whole plane must be invisible when off.
//!
//! `alert_timelines_are_bit_identical_across_worker_counts` is named for
//! the worker pool PR 20 deleted; the name stays because the test floor
//! tracks names, and it compares what it did between two runs of one seed.

use hpcmon::health::{HealthConfig, Silence, Transition};
use hpcmon::system::TickReport;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_metrics::{SeriesKey, Ts};
use std::sync::Once;

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

fn stall_plan() -> ChaosPlan {
    plan(vec![(4, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 })])
}

fn store_fail_plan() -> ChaosPlan {
    plan(vec![(4, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 })])
}

fn builder() -> hpcmon::system::MonitorBuilder {
    MonitoringSystem::builder(SimConfig::small()).self_telemetry(false)
}

fn dump_store(mon: &MonitoringSystem) -> Vec<(SeriesKey, Vec<(Ts, f64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| (k, mon.store().query(k, Ts::ZERO, Ts(u64::MAX))))
        .collect()
}

/// `(tick, key, transition)` triples for one alert key, in order.
fn episodes(mon: &MonitoringSystem, key: &str) -> Vec<(u64, Transition)> {
    mon.alert_events().iter().filter(|e| e.key == key).map(|e| (e.tick, e.transition)).collect()
}

/// A broker topic stall fires the transport delivery SLO with exact,
/// deterministic tick stamps: Pending the tick frames start buffering,
/// Firing after the two-tick confirmation, Resolved once the fast window
/// forgets the outage plus five clear ticks of hysteresis.  The chaos
/// quiescence SLO brackets the same incident from the injection ledger.
#[test]
fn broker_stall_alert_timeline_is_exact() {
    quiet_injected_panics();
    let mut mon = builder().chaos(42, stall_plan()).health(HealthConfig::standard()).build();
    mon.run_ticks(20);
    assert_eq!(
        episodes(&mon, "transport/delivery"),
        vec![(4, Transition::Pending), (5, Transition::Firing), (14, Transition::Resolved)],
    );
    assert_eq!(
        episodes(&mon, "chaos/quiescence"),
        vec![(4, Transition::Pending), (5, Transition::Firing), (13, Transition::Resolved)],
    );
    // Nothing else paged: the store, gateway, and collect SLOs stayed Ok.
    assert_eq!(mon.alert_events().len(), 6, "{}", mon.health_timeline());
    let rep = mon.health_report().expect("health is on");
    assert!(rep.active.is_empty(), "everything resolved by tick 20");
    assert!(rep.subsystems.iter().all(|s| s.firing == 0 && s.pending == 0));
}

/// A store-shard write outage trips the breaker; the ingest SLO pages
/// while the breaker is away from Closed and spilled frames wait, then
/// resolves after the drain — again with exact tick stamps.
#[test]
fn store_write_fail_alert_timeline_is_exact() {
    quiet_injected_panics();
    let mut mon = builder().chaos(5, store_fail_plan()).health(HealthConfig::standard()).build();
    mon.run_ticks(24);
    let ingest = episodes(&mon, "store/ingest");
    assert_eq!(ingest[0], (4, Transition::Pending), "{}", mon.health_timeline());
    assert_eq!(ingest[1], (5, Transition::Firing));
    assert_eq!(ingest.len(), 3, "exactly one episode: {}", mon.health_timeline());
    let (resolved_tick, t) = ingest[2];
    assert_eq!(t, Transition::Resolved);
    assert!(
        (12..=20).contains(&resolved_tick),
        "resolution follows the breaker re-closing plus hysteresis: {resolved_tick}"
    );
    // No spilled frame was lost, so store integrity never paged.
    assert!(episodes(&mon, "store/integrity").is_empty());
    assert!(mon.health_report().unwrap().active.is_empty());
}

/// The canonical alert timeline is bit-identical between two runs, for both
/// incident shapes, and every stored byte matches too.
#[test]
fn alert_timelines_are_bit_identical_across_worker_counts() {
    quiet_injected_panics();
    for (label, mk_plan) in
        [("stall", stall_plan as fn() -> ChaosPlan), ("store-fail", store_fail_plan)]
    {
        let run = || {
            let mut mon = builder().chaos(9, mk_plan()).health(HealthConfig::standard()).build();
            let reports: Vec<TickReport> = (0..20).map(|_| mon.tick()).collect();
            (mon.health_timeline(), reports, dump_store(&mon))
        };
        let (base_timeline, base_reports, base_dump) = run();
        assert!(!base_timeline.is_empty(), "{label}: the incident paged");
        let (timeline, reports, dump) = run();
        assert_eq!(base_timeline, timeline, "{label}: timelines diverge between runs");
        assert_eq!(base_reports, reports, "{label}: TickReports (with alerts) diverge");
        assert_eq!(base_dump, dump, "{label}: stored bytes diverge");
    }
}

/// Off is off: a run with the health plane enabled leaves the monitored
/// data plane — stored bytes and the signal journal — bit-identical to a
/// run without it.
#[test]
fn health_plane_does_not_perturb_the_pipeline() {
    quiet_injected_panics();
    let run = |incident: bool, health: bool| {
        let mut b = builder();
        if incident {
            b = b.chaos(7, stall_plan());
        }
        if health {
            b = b.health(HealthConfig::standard());
        }
        let mut mon = b.build();
        let reports: Vec<TickReport> = (0..20).map(|_| mon.tick()).collect();
        (dump_store(&mon), mon.signals().to_vec(), mon.alert_events().len(), reports)
    };
    let (base_dump, base_signals, base_alerts, _) = run(true, false);
    let (dump, signals, alerts, _) = run(true, true);
    assert_eq!(base_alerts, 0, "health off records nothing");
    assert!(alerts > 0, "health on records the incident");
    assert_eq!(base_dump, dump, "stored bytes identical with health on");
    assert_eq!(base_signals, signals, "signal journal identical with health on");
    // Nothing failing, nothing pages: then even the TickReports, which
    // carry the alerts, match a run without the plane.
    let quiet = run(false, true);
    assert_eq!(quiet.2, 0, "no incident, no alert");
    assert_eq!(quiet, run(false, false));
}

/// Alert transitions are published on `health/alerts` as serde JSON —
/// and that topic never matches the store's `metrics/#` subscription, so
/// alerts cannot pollute the time-series plane.
#[test]
fn alerts_publish_on_the_health_topic() {
    use hpcmon::transport::{BackpressurePolicy, Payload, TopicFilter};
    quiet_injected_panics();
    let mut mon = builder().chaos(42, stall_plan()).health(HealthConfig::standard()).build();
    let sub = mon.broker().subscribe(TopicFilter::new("health/#"), 1024, BackpressurePolicy::Block);
    mon.run_ticks(20);
    let events: Vec<hpcmon::health::AlertEvent> = sub
        .drain()
        .into_iter()
        .map(|env| {
            assert_eq!(env.topic, "health/alerts");
            match env.payload {
                Payload::Raw(bytes) => serde_json::from_slice(&bytes).expect("alert decodes"),
                other => panic!("expected raw JSON alert, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(events, mon.alert_events(), "wire events mirror the recorded history");
}

/// A tick-keyed silence marks matching transitions: they stay in the
/// recorded history (and the canonical timeline) but are not published.
#[test]
fn silences_suppress_publishing_but_not_history() {
    use hpcmon::transport::{BackpressurePolicy, TopicFilter};
    quiet_injected_panics();
    let cfg = HealthConfig::standard().silence(Silence {
        key: "transport/*".into(),
        from_tick: 0,
        until_tick: 1_000,
    });
    let mut mon = builder().chaos(42, stall_plan()).health(cfg).build();
    let sub = mon.broker().subscribe(TopicFilter::new("health/#"), 1024, BackpressurePolicy::Block);
    mon.run_ticks(20);
    let published = sub.drain().len();
    let silenced = mon.alert_events().iter().filter(|e| e.silenced).count();
    assert_eq!(silenced, 3, "the transport episode was silenced");
    assert_eq!(published + silenced, mon.alert_events().len(), "silenced = recorded - published");
    assert!(
        mon.health_timeline().contains("\"silenced\":true"),
        "the canonical timeline keeps the silenced record"
    );
}

/// Snapshot/restore mid-incident: a system restored from a snapshot
/// continues to the same alert timeline and state hash as the
/// uninterrupted run.
#[test]
fn health_state_survives_snapshot_restore() {
    quiet_injected_panics();
    let mk = || builder().chaos(42, stall_plan()).health(HealthConfig::standard()).build();
    let mut a = mk();
    a.set_state_hashing(true);
    a.run_ticks(6); // mid-incident: Firing, stall still buffering
    let snap = a.snapshot();
    assert!(a.health_report().unwrap().active.iter().any(|al| al.firing));
    a.run_ticks(14);

    let mut b = mk();
    b.set_state_hashing(true);
    b.restore_snapshot(snap);
    b.run_ticks(14);

    assert_eq!(a.health_timeline(), b.health_timeline(), "timelines agree after restore");
    assert_eq!(a.alert_events(), b.alert_events(), "full event history restored");
    let (ha, hb) = (a.last_state_hash().unwrap(), b.last_state_hash().unwrap());
    assert_eq!(ha, hb, "state-hash chains agree after restore");
}

/// The incident replays from its recording — the medium of a durable run
/// with state hashing on: the hash chain verifies and the replayed system
/// reproduces the recorded alert timeline exactly.
#[test]
fn alert_timeline_replays_from_the_flight_recorder() {
    use hpcmon::durability::{DurabilityConfig, SimDisk};
    use hpcmon::Replayer;
    quiet_injected_panics();
    let options = hpcmon::MonitorOptions {
        chaos: Some((42, stall_plan())),
        self_telemetry: false,
        health: Some(HealthConfig::standard()),
        ..hpcmon::MonitorOptions::new(SimConfig::small())
    };
    let disk = std::sync::Arc::new(SimDisk::new());
    let mut rec = hpcmon::MonitorBuilder::from_options(options.clone())
        .durability(disk.clone(), DurabilityConfig::default())
        .build();
    rec.set_state_hashing(true);
    rec.run_ticks(20);
    let recorded_timeline = rec.health_timeline();
    assert!(!recorded_timeline.is_empty(), "the recording paged");

    let mut rp = Replayer::open(options, disk).expect("the recording opens");
    while let Some(step) = rp.step() {
        if let Err(d) = step {
            panic!("replay diverged:\n{}", d.render());
        }
    }
    assert_eq!(rp.position(), 20);
    assert_eq!(
        rp.system().health_timeline(),
        recorded_timeline,
        "replay reproduces the alert timeline byte for byte"
    );
}
