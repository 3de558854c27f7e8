//! End-to-end pipeline integration: machine → collect → transport →
//! store → analyze → respond, exercised across crate boundaries.

use hpcmon::pipeline::DetectorAttachment;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_analysis::{MadDetector, ZScoreDetector};
use hpcmon_metrics::{CompId, JobState, SeriesKey, Severity, Ts, MINUTE_MS};
use hpcmon_response::{Consumer, SignalKind};
use hpcmon_sim::{AppProfile, FaultKind, JobSpec};
use hpcmon_store::{AggFn, LogQuery, TimeRange};

fn system() -> MonitoringSystem {
    MonitoringSystem::builder(SimConfig::small()).build()
}

#[test]
fn full_hour_of_operations() {
    let mut mon = system();
    for i in 0..6u64 {
        mon.submit_job(JobSpec::new(
            AppProfile::checkpointing("climate"),
            "alice",
            16,
            30 * MINUTE_MS,
            Ts::from_mins(i * 5),
        ));
    }
    let summary = mon.run_ticks(60);
    assert_eq!(summary.ticks, 60);
    assert!(summary.samples > 50_000);
    // Jobs completed and their records carry allocations + timeframes.
    let completed: Vec<_> = mon
        .engine()
        .scheduler()
        .records()
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .collect();
    assert!(!completed.is_empty());
    for rec in completed {
        assert_eq!(rec.nodes.len(), 16);
        assert!(rec.runtime_ms().unwrap() >= 30 * MINUTE_MS);
    }
    // The store answers system-level queries.
    let m = mon.metrics();
    let power =
        mon.query().aggregate_across_components(m.system_power, TimeRange::all(), AggFn::Mean);
    assert_eq!(power.len(), 60, "one point per synchronized tick");
    assert!(power.iter().all(|&(_, w)| w > 10_000.0));
}

#[test]
fn crash_detection_chain_reaches_the_pager() {
    let mut mon = system();
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "bob",
        32,
        60 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.run_ticks(3);
    let victim = mon.engine().scheduler().records()[0].nodes[0];
    mon.schedule_fault(Ts::from_mins(5), FaultKind::NodeCrash { node: victim });
    mon.run_ticks(5);

    // Log chain: crash line stored and searchable.
    let hits = mon.log_store().search(&LogQuery::tokens(&["heartbeat"]));
    assert!(!hits.is_empty());
    // Correlation chain: critical signal emitted.
    assert!(mon
        .signals()
        .iter()
        .any(|s| s.kind == SignalKind::LogCorrelation && s.severity == Severity::Critical));
    // Response chain: ops got paged, node got sidelined.
    assert!(!mon.response_alerts("ops-pager").is_empty());
    assert!(mon.engine().scheduler().out_of_service().contains(&victim));
    // Job failure recorded.
    assert_eq!(mon.engine().scheduler().records()[0].state, JobState::Failed);
}

#[test]
fn silent_degradation_found_by_probes_not_logs() {
    // An OST slows down: nothing logs, but the probe series shifts and an
    // attached detector turns it into a signal (the NCSA story).
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .attach_detector(DetectorAttachment::new(
            SeriesKey::new(
                hpcmon_collect::StdMetrics::register(&hpcmon_metrics::MetricRegistry::new())
                    .probe_ost_latency,
                CompId::ost(5),
            ),
            Box::new(MadDetector::new(32, 6.0).with_mad_floor(0.05)),
            SignalKind::MetricAnomaly,
            Severity::Error,
            "OST probe latency",
        ))
        .build();
    mon.run_ticks(20);
    let logs_before = mon.log_store().len();
    mon.schedule_fault(Ts::from_mins(21), FaultKind::OstDegrade { ost: 5, factor: 10.0 });
    mon.run_ticks(5);
    // No new non-routine logs from the MACHINE itself (the analysis
    // pipeline's own stored findings are excluded — the detector speaking
    // up is the point, the hardware staying silent is the hazard).
    let new_logs: Vec<_> = (logs_before as u32..mon.log_store().len() as u32)
        .filter_map(|i| mon.log_store().get(i))
        .filter(|r| r.severity > Severity::Info && r.source != "analysis")
        .collect();
    assert!(new_logs.is_empty(), "degradation is silent in machine logs: {new_logs:?}");
    // But the metric pipeline caught it.
    assert!(mon
        .signals()
        .iter()
        .any(|s| s.kind == SignalKind::MetricAnomaly && s.comp == CompId::ost(5)));
}

#[test]
fn hung_node_caught_by_power_not_logs() {
    // KAUST's observation: hangs are invisible in logs but power shows
    // them.  Run one full-machine job, hang a node, and check that a
    // z-score detector on that node's power fires.
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .attach_detector(DetectorAttachment::new(
            SeriesKey::new(
                hpcmon_collect::StdMetrics::register(&hpcmon_metrics::MetricRegistry::new())
                    .node_power,
                CompId::node(40),
            ),
            Box::new(ZScoreDetector::new(32, 5.0).with_sigma_floor(3.0)),
            SignalKind::PowerAnomaly,
            Severity::Warning,
            "node power deviation",
        ))
        .build();
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("vasp"),
        "kaust",
        128,
        120 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.run_ticks(20);
    mon.schedule_fault(Ts::from_mins(21), FaultKind::NodeHang { node: 40 });
    mon.run_ticks(5);
    assert!(
        mon.signals()
            .iter()
            .any(|s| s.kind == SignalKind::PowerAnomaly && s.comp == CompId::node(40)),
        "power detector must catch the silent hang"
    );
}

#[test]
fn user_portal_sees_only_its_own_problems() {
    let mut mon = system();
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("private_app"),
        "alice",
        16,
        60 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.run_ticks(2);
    let alice_node = mon.engine().scheduler().records()[0].nodes[0];
    mon.schedule_fault(Ts::from_mins(4), FaultKind::ServiceDown { node: alice_node, service: 0 });
    mon.run_ticks(4);
    let bob = Consumer::user("bob-portal", "bob");
    let alice = Consumer::user("alice-portal", "alice");
    let admin = Consumer::admin("ops");
    let bob_view = mon.signals_for(&bob);
    let alice_view = mon.signals_for(&alice);
    let admin_view = mon.signals_for(&admin);
    assert_eq!(admin_view.len(), mon.signals().len());
    // Alice's node problem carries her username; bob must not see it.
    assert!(alice_view
        .iter()
        .any(|s| s.kind == SignalKind::HealthCheckFailure && s.user.as_deref() == Some("alice")));
    assert!(bob_view.iter().all(|s| s.user.as_deref() != Some("alice")));
}

#[test]
fn archive_then_query_history_with_current_data() {
    let mut mon = system();
    mon.run_ticks(30);
    let m = mon.metrics();
    let key = SeriesKey::new(m.system_power, CompId::SYSTEM);
    let before = mon.query().series(key, TimeRange::all()).len();
    assert_eq!(before, 30);
    // Archive the first month of operations away (everything so far)...
    let now = mon.engine().now();
    let cat = {
        let store = mon.store();
        store.seal_all();
        let blocks = store.evict_warm_before(now);
        assert!(!blocks.is_empty());
        mon.archive_mut().file_segment(blocks).expect("blocks are non-empty")
    };
    assert_eq!(mon.query().series(key, TimeRange::all()).len(), 0);
    assert_eq!(mon.archive().locate(Ts::ZERO, now).len(), 1);
    // ...keep operating...
    mon.run_ticks(10);
    // ...then reload history for a joint historical+current analysis.
    assert!(mon.archive().reload_into(cat.segment, mon.store()));
    let full = mon.query().series(key, TimeRange::all()).len();
    assert_eq!(full, 40, "history and fresh data queried together");
}

#[test]
fn live_consumer_rides_the_broker() {
    use hpcmon_transport::{BackpressurePolicy, TopicFilter};
    let mut mon = system();
    // An external dashboard subscribes to frames; a lossy deep-history
    // tool subscribes to logs.
    let frames =
        mon.broker().subscribe(TopicFilter::new("metrics/#"), 64, BackpressurePolicy::DropOldest);
    let logs = mon.broker().subscribe(TopicFilter::new("logs/#"), 1_024, BackpressurePolicy::Block);
    mon.schedule_fault(Ts::from_mins(3), FaultKind::LinkDown { link: 0 });
    mon.run_ticks(5);
    let frame_envs = frames.drain();
    assert_eq!(frame_envs.len(), 5, "one frame per tick");
    assert!(frame_envs.iter().all(|e| e.payload.as_columns().is_some()));
    let log_envs = logs.drain();
    assert!(log_envs.iter().any(|e| e.topic == "logs/hwerr"), "link failure routed by source");
}
