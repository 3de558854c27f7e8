//! The monitoring system watching itself (and the CSC queue-backlog
//! story): gaps in expected data must surface as signals, and queue
//! anomalies must be traceable to filesystem problems.

use hpcmon::pipeline::DetectorAttachment;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_analysis::ThresholdDetector;
use hpcmon_collect::Collector;
use hpcmon_metrics::{ColumnFrame, CompId, MetricId, SeriesKey, Severity, Ts, Unit, MINUTE_MS};
use hpcmon_response::SignalKind;
use hpcmon_sim::{AppProfile, FaultKind, JobSpec, SimEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The tick's stages in the order it runs them, each timed into
/// `stage.<name>`.
const TICK_ORDER: [&str; 13] = [
    "sim",
    "chaos",
    "collect",
    "transport",
    "store",
    "analysis",
    "response",
    "results",
    "health",
    "serve",
    "trace",
    "hash",
    "wal",
];

/// A site-specific collector that can be switched off mid-run — the
/// stand-in for a crashed collection daemon.
struct FlakyCollector {
    metric: MetricId,
    dead: Arc<AtomicBool>,
}

impl Collector for FlakyCollector {
    fn name(&self) -> &str {
        "site_custom"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        if self.dead.load(Ordering::Relaxed) {
            return; // silence: the failure mode under test
        }
        frame.push(self.metric, CompId::SYSTEM, engine.tick_count() as f64);
    }
}

#[test]
fn dead_collector_raises_monitoring_gap() {
    let builder = MonitoringSystem::builder(SimConfig::small());
    let metric = builder.registry().register("site.custom_counter", Unit::Count, "test feed");
    let dead = Arc::new(AtomicBool::new(false));
    let mut mon =
        builder.install_collector(Box::new(FlakyCollector { metric, dead: dead.clone() })).build();
    mon.run_ticks(10);
    assert!(
        !mon.signals().iter().any(|s| s.kind == SignalKind::MonitoringGap),
        "healthy feeds raise nothing"
    );
    // The daemon dies silently.
    dead.store(true, Ordering::Relaxed);
    mon.run_ticks(5);
    let gaps: Vec<_> =
        mon.signals().iter().filter(|s| s.kind == SignalKind::MonitoringGap).collect();
    assert!(!gaps.is_empty(), "silence detected");
    assert!(gaps.iter().all(|s| s.detail.contains("site_custom")));
    // Recovery clears the condition for subsequent ticks.
    dead.store(false, Ordering::Relaxed);
    let before = gaps.len();
    mon.run_ticks(1); // one tick to beat again
    mon.run_ticks(3);
    let after = mon.signals().iter().filter(|s| s.kind == SignalKind::MonitoringGap).count();
    // Cooldowns aside: no *new* gap signals once the feed is back.
    assert!(after <= before + 1, "before {before} after {after}");
}

#[test]
fn custom_collector_data_lands_in_the_store() {
    let builder = MonitoringSystem::builder(SimConfig::small());
    let metric = builder.registry().register("site.custom_counter", Unit::Count, "test feed");
    let mut mon = builder
        .install_collector(Box::new(FlakyCollector {
            metric,
            dead: Arc::new(AtomicBool::new(false)),
        }))
        .build();
    mon.run_ticks(5);
    // The metric registered via the builder resolves in the built system.
    assert_eq!(mon.registry().lookup("site.custom_counter"), Some(metric));
    let pts =
        mon.query().series(SeriesKey::new(metric, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert_eq!(pts.len(), 5);
    assert_eq!(pts[0].1, 1.0);
    assert_eq!(pts[4].1, 5.0);
}

#[test]
fn self_telemetry_series_land_in_the_store() {
    let mut mon = MonitoringSystem::builder(SimConfig::small()).build();
    mon.run_ticks(5);
    // Stage latencies and transport counters are ordinary queryable series
    // under hpcmon.self.* — the monitor is a subsystem like any other.
    let stages = TICK_ORDER.iter().map(|stage| format!("hpcmon.self.stage.{stage}.p95_ms"));
    let others = [
        "hpcmon.self.transport.published",
        "hpcmon.self.transport.dropped",
        "hpcmon.self.store.samples_ingested",
        "hpcmon.self.collect.samples.node",
    ];
    for name in stages.chain(others.map(String::from)) {
        let id = mon.registry().lookup(&name).unwrap_or_else(|| panic!("{name} not registered"));
        let pts =
            mon.query().series(SeriesKey::new(id, CompId::SYSTEM), hpcmon_store::TimeRange::all());
        assert!(!pts.is_empty(), "{name} has no points");
    }
    // The lossless store path means zero transport drops, visible in the
    // self feed itself.
    let id = mon.registry().lookup("hpcmon.self.transport.dropped").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(id, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert!(pts.iter().all(|&(_, v)| v == 0.0));
    // Per-topic breakdown is surfaced through the system facade.
    let topics = mon.broker_topic_stats();
    assert!(topics.iter().any(|t| t.topic == "metrics/frame" && t.published == 5));
}

#[test]
fn killed_collector_zeroes_its_self_feed_and_raises_a_gap() {
    let mut mon = MonitoringSystem::builder(SimConfig::small()).build();
    mon.run_ticks(5);
    assert!(mon.silence_collector("node"), "node collector exists");
    mon.run_ticks(5);
    // The gap is detected by the deadman as before...
    let gaps: Vec<_> =
        mon.signals().iter().filter(|s| s.kind == SignalKind::MonitoringGap).collect();
    assert!(!gaps.is_empty(), "silenced feed detected");
    assert!(gaps.iter().any(|s| s.detail.contains("'node'")), "{:?}", gaps[0]);
    // ...and the positive instrumentation shows the same story: the
    // per-tick sample count for the dead collector drops to zero while a
    // healthy collector's stays up.
    let dead = mon.registry().lookup("hpcmon.self.collect.samples.node").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(dead, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    let (first, last) = (pts.first().unwrap().1, pts.last().unwrap().1);
    assert!(first > 0.0, "was contributing before the kill: {first}");
    assert_eq!(last, 0.0, "contributes nothing after the kill");
    let alive = mon.registry().lookup("hpcmon.self.collect.samples.power").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(alive, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert!(pts.last().unwrap().1 > 0.0, "healthy collector still reporting");
}

#[test]
fn gateway_activity_surfaces_in_self_feed() {
    use hpcmon_gateway::{GatewayConfig, QueryRequest};
    use hpcmon_response::Consumer;
    use hpcmon_store::TimeRange;

    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .gateway(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() })
        .build();
    mon.run_ticks(3);
    let gw = mon.gateway().unwrap().clone();
    let ops = Consumer::admin("ops");
    let key = SeriesKey::new(mon.metrics().system_power, CompId::SYSTEM);
    gw.subscribe(
        &ops,
        QueryRequest::Series { key, range: hpcmon_store::TimeRange::all() },
        "gateway/ops",
    )
    .unwrap();
    // Four queries on the same key: one miss, three cache hits.
    for _ in 0..4 {
        gw.query(&ops, QueryRequest::Series { key, range: TimeRange::all() }).unwrap();
    }
    // The next tick's self-collection republishes the gateway instruments.
    mon.run_ticks(2);
    for name in [
        "hpcmon.self.gateway.queries",
        "hpcmon.self.gateway.cache.hits",
        "hpcmon.self.gateway.cache.misses",
        "hpcmon.self.gateway.cache.hit_ratio",
        "hpcmon.self.gateway.queue.depth",
        "hpcmon.self.gateway.eval.p95_ms",
        "hpcmon.self.gateway.subscriptions.active",
        "hpcmon.self.gateway.subscriptions.delivered",
    ] {
        let id = mon.registry().lookup(name).unwrap_or_else(|| panic!("{name} not registered"));
        let pts =
            mon.query().series(SeriesKey::new(id, CompId::SYSTEM), hpcmon_store::TimeRange::all());
        assert!(!pts.is_empty(), "{name} has no points");
    }
    // Counters arrive as per-tick deltas: the burst of 4 queries lands in
    // one tick's sample, and lifetime sums match gateway activity.
    let queries = mon.registry().lookup("hpcmon.self.gateway.queries").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(queries, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert_eq!(pts.iter().map(|&(_, v)| v).sum::<f64>(), 4.0, "{pts:?}");
    let hits = mon.registry().lookup("hpcmon.self.gateway.cache.hits").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(hits, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert_eq!(pts.iter().map(|&(_, v)| v).sum::<f64>(), 3.0, "warm queries hit");
    // The standing subscription is visible as a level gauge.
    let active = mon.registry().lookup("hpcmon.self.gateway.subscriptions.active").unwrap();
    let pts =
        mon.query().series(SeriesKey::new(active, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert_eq!(pts.last().unwrap().1, 1.0);
}

#[test]
fn uptime_and_build_info_serve_through_the_gateway_to_users() {
    use hpcmon_gateway::{GatewayConfig, QueryRequest};
    use hpcmon_response::Consumer;
    use hpcmon_store::TimeRange;

    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .gateway(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() })
        .build();
    mon.run_ticks(4);

    // The identity series exist and carry sane values: uptime counts
    // ticks, build_info encodes the crate version as a constant.
    let uptime = mon.registry().lookup("hpcmon.self.uptime_ticks").expect("uptime registered");
    let pts =
        mon.query().series(SeriesKey::new(uptime, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    assert_eq!(pts.len(), 4);
    assert_eq!(pts.last().unwrap().1, 4.0, "uptime tracks the tick count");
    assert!(pts.windows(2).all(|w| w[1].1 == w[0].1 + 1.0), "monotone by one per tick");

    let build = mon.registry().lookup("hpcmon.self.build_info").expect("build_info registered");
    let pts =
        mon.query().series(SeriesKey::new(build, CompId::SYSTEM), hpcmon_store::TimeRange::all());
    let encoded = pts.last().unwrap().1;
    assert!(encoded > 0.0, "build_info encodes a version");
    assert!(pts.iter().all(|&(_, v)| v == encoded), "constant across the run");
    let desc = mon.registry().meta(build).expect("has metadata").description;
    assert!(desc.starts_with("build identity: hpcmon v"), "description names the build: {desc}");

    // Both series sit at System scope, so an ordinary *user* — not just
    // ops — can ask "is the monitor alive, and which build is it?".
    let gw = mon.gateway().unwrap().clone();
    let alice = Consumer::user("alice's portal", "alice");
    for id in [uptime, build] {
        let resp = gw
            .query(
                &alice,
                QueryRequest::Series {
                    key: SeriesKey::new(id, CompId::SYSTEM),
                    range: TimeRange::all(),
                },
            )
            .expect("user-scope query succeeds");
        match resp {
            hpcmon_gateway::QueryResponse::Points(pts) => {
                assert!(!pts.is_empty(), "user sees the identity series")
            }
            other => panic!("expected points, got {other:?}"),
        }
    }
}

#[test]
fn telemetry_report_json_round_trips() {
    let mut mon = MonitoringSystem::builder(SimConfig::small()).build();
    mon.run_ticks(64);
    let report = mon.telemetry_report();
    assert!(report.counters.iter().any(|c| c.name == "tick.count" && c.value == 64));
    let json = serde_json::to_string(&report).unwrap();
    let back: hpcmon::telemetry::TelemetryReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    // Every stage of the tick timed every tick, and together they account
    // for the whole tick: the loop reads the clock once per boundary.
    assert_eq!(hpcmon::system::TICK_STAGES, TICK_ORDER);
    let hist = |name: &str| {
        let h = report.histograms.iter().find(|h| h.name == name);
        h.unwrap_or_else(|| panic!("{name} not registered"))
    };
    let tick = hist("stage.tick");
    assert_eq!(tick.count, 64);
    let mut staged_ns = 0;
    for stage in TICK_ORDER {
        let h = hist(&format!("stage.{stage}"));
        assert_eq!(h.count, 64, "stage.{stage} records once a tick");
        staged_ns += h.mean_ns * h.count;
    }
    let tick_ns = tick.mean_ns * tick.count;
    assert!(staged_ns * 100 >= tick_ns * 98, "stages sum to {staged_ns} of {tick_ns} ns");
    // The text rendering carries the stage taxonomy for the ops report, in
    // tick order.
    let text = report.render_text();
    let at = |stage: &str| text.find(&format!("stage.{stage} ")).expect(stage);
    assert!(TICK_ORDER.windows(2).all(|w| at(w[0]) < at(w[1])), "{text}");
    assert!(text.contains("collect.samples.node"));
}

#[test]
fn disabling_self_telemetry_removes_the_feed() {
    let mut mon = MonitoringSystem::builder(SimConfig::small()).self_telemetry(false).build();
    mon.run_ticks(3);
    assert!(mon.registry().lookup("hpcmon.self.stage.tick.p95_ms").is_none());
    assert!(!mon.telemetry().is_active());
    let report = mon.telemetry_report();
    assert!(report.histograms.iter().all(|h| h.count == 0), "inert instruments");
}

#[test]
fn queue_backlog_anomaly_traces_to_filesystem() {
    // CSC/NERSC: "large or sudden changes in outstanding demand can
    // indicate ... a blockage in the queue"; here the blockage is a
    // degraded filesystem stretching I/O jobs so the queue backs up, and
    // a z-score detector on queue depth fires.
    // A backlog builds *gradually*, which evades windowed z-scores (the
    // baseline absorbs the ramp) — so sites watch the queue with a plain
    // threshold, and that is what we attach here.
    let builder = MonitoringSystem::builder(SimConfig::small());
    let queue_metric = builder.metrics().queue_depth;
    let mut mon = builder
        .attach_detector(DetectorAttachment::new(
            SeriesKey::new(queue_metric, CompId::SYSTEM),
            Box::new(ThresholdDetector::above(4.0)),
            SignalKind::MetricAnomaly,
            Severity::Warning,
            "queue depth anomaly",
        ))
        .build();
    // A stream of I/O jobs that fits comfortably when the filesystem is
    // healthy (~7.5 min effective runtime, one submitted every 8 min).
    for k in 0..90u64 {
        mon.submit_job(JobSpec::new(
            AppProfile::io_storm(&format!("io{k}")),
            "u",
            16,
            5 * MINUTE_MS,
            Ts::from_mins(k * 8),
        ));
    }
    mon.run_ticks(60);
    let healthy_anoms = mon.signals().iter().filter(|s| s.detail.contains("queue depth")).count();
    // Cripple the filesystem: jobs stretch ~10x, the queue backs up.
    for ost in 0..16 {
        mon.schedule_fault(Ts::from_mins(61), FaultKind::OstDegrade { ost, factor: 10.0 });
    }
    mon.run_ticks(120);
    let anoms: Vec<_> = mon.signals().iter().filter(|s| s.detail.contains("queue depth")).collect();
    assert!(anoms.len() > healthy_anoms, "backlog anomaly detected: {}", anoms.len());
    // And the operator's wait estimate balloons accordingly.
    let wait = mon.estimate_wait_ms(64).expect("fits eventually");
    assert!(wait > 30 * MINUTE_MS, "wait estimate reflects the backlog: {wait}");
}
