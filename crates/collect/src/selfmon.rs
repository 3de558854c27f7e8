//! The monitor watching itself: [`SelfCollector`].
//!
//! Table I requires that the monitoring system's own health be observable —
//! a dead collector must not impersonate a healthy machine.  The pipeline
//! feeds a [`Telemetry`] registry (stage latencies, per-collector sample
//! counts, detector evaluation costs) and the broker/store expose their own
//! operation counters; this collector republishes all of it as ordinary
//! `hpcmon.self.*` metrics into the frame each tick.  From there the normal
//! machinery takes over: the deadman detector covers the self feed, the
//! store keeps its history, threshold detectors can watch drop counters,
//! and drill-down views render it like any other subsystem.
//!
//! Counters are emitted as **per-tick deltas** (events this tick); gauges
//! and queue depths as current levels; histograms as p95 milliseconds (the
//! full quantile set stays in [`Telemetry::report`]).
//!
//! The self feed must be nearly free: every instrument source here is
//! append-only (the telemetry registry and the broker's topic table never
//! remove or reorder entries), so resolved `MetricId`s and previous totals
//! are cached *positionally* — the steady-state path performs no name
//! formatting, no hashing, and no registry locking.

use crate::collectors::Collector;
use hpcmon_metrics::{ColumnFrame, CompId, MetricId, MetricRegistry, Unit};
use hpcmon_sim::SimEngine;
use hpcmon_store::TimeSeriesStore;
use hpcmon_telemetry::Telemetry;
use hpcmon_transport::Broker;
use std::sync::Arc;

/// A cached counter series: resolved metric id plus the last observed
/// lifetime total, for emitting per-tick deltas.
type DeltaSlot = (MetricId, u64);

/// Republishes the pipeline's self-instrumentation as `hpcmon.self.*`
/// metrics.  Installed last in the collector chain so it sees the
/// instruments every earlier stage registered.
pub struct SelfCollector {
    telemetry: Arc<Telemetry>,
    broker: Arc<Broker>,
    store: Arc<TimeSeriesStore>,
    registry: MetricRegistry,
    // Positional caches over the (append-only) telemetry registry.
    tel_counters: Vec<DeltaSlot>,
    tel_gauges: Vec<MetricId>,
    tel_hists: Vec<MetricId>,
    // Fixed-name broker/store series, registered up front.
    transport: [DeltaSlot; 5],
    store_ops: [DeltaSlot; 5],
    store_stats: [MetricId; 4],
    // Identity/liveness series, registered up front.
    uptime_id: MetricId,
    build_info_id: MetricId,
    build_info_value: f64,
    // Positional cache over the broker's (append-only) topic table.
    // Five series per topic: published plus the full drop-reason split
    // (aggregate, queue-full, drop-oldest, pruned-receiver) — operators
    // need to know not just *which* data path is lossy but *why*.
    topic_slots: Vec<[DeltaSlot; 5]>,
    // Subscriber sets can shrink, so queues are matched by pattern.
    queue_slots: Vec<(String, MetricId)>,
}

/// Replace topic/pattern characters that are not metric-name friendly.
fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| match c {
            '/' => '.',
            '#' | '+' | '*' => '_',
            ' ' => '_',
            c => c,
        })
        .collect()
}

/// Emit per-tick deltas for a fixed bank of counter series.
fn push_deltas<const N: usize>(
    frame: &mut ColumnFrame,
    slots: &mut [DeltaSlot; N],
    totals: [u64; N],
) {
    for (slot, total) in slots.iter_mut().zip(totals) {
        let d = total.saturating_sub(slot.1);
        slot.1 = total;
        frame.push(slot.0, CompId::SYSTEM, d as f64);
    }
}

impl SelfCollector {
    /// Wire the collector to the pipeline's instrumentation sources.
    pub fn new(
        telemetry: Arc<Telemetry>,
        broker: Arc<Broker>,
        store: Arc<TimeSeriesStore>,
        registry: MetricRegistry,
    ) -> SelfCollector {
        let flow = "broker flow (per-tick)";
        let transport = [
            ("hpcmon.self.transport.published", Unit::Count),
            ("hpcmon.self.transport.delivered", Unit::Count),
            ("hpcmon.self.transport.dropped", Unit::Count),
            ("hpcmon.self.transport.bytes_published", Unit::Bytes),
            // Appended after the original four: slot order is the
            // registration order the positional caches depend on.
            ("hpcmon.self.transport.decode_errors", Unit::Count),
        ]
        .map(|(name, unit)| (registry.register(name, unit, flow), 0));
        let store_ops = [
            "hpcmon.self.store.samples_ingested",
            "hpcmon.self.store.blocks_sealed",
            "hpcmon.self.store.blocks_evicted",
            "hpcmon.self.store.blocks_reloaded",
            "hpcmon.self.store.corrupt_blocks",
        ]
        .map(|name| (registry.register(name, Unit::Count, "store operations (per-tick)"), 0));
        let store_stats = [
            ("hpcmon.self.store.series", Unit::Count, "distinct series held"),
            ("hpcmon.self.store.hot_points", Unit::Count, "points in hot buffers"),
            ("hpcmon.self.store.warm_points", Unit::Count, "points in warm blocks"),
            ("hpcmon.self.store.warm_bytes", Unit::Bytes, "bytes in warm blocks"),
        ]
        .map(|(name, unit, desc)| registry.register(name, unit, desc));
        let uptime_id = registry.register(
            "hpcmon.self.uptime_ticks",
            Unit::Count,
            "ticks since the monitoring system started",
        );
        // Prometheus-style build_info: the version rides in the value
        // (major*10000 + minor*100 + patch) and, human-readably, in the
        // registered description.
        let version = env!("CARGO_PKG_VERSION");
        let mut parts = version.split('.').map(|p| p.parse::<u64>().unwrap_or(0));
        let (major, minor, patch) =
            (parts.next().unwrap_or(0), parts.next().unwrap_or(0), parts.next().unwrap_or(0));
        let build_info_id = registry.register(
            "hpcmon.self.build_info",
            Unit::Count,
            &format!("build identity: hpcmon v{version}"),
        );
        SelfCollector {
            telemetry,
            broker,
            store,
            registry,
            tel_counters: Vec::new(),
            tel_gauges: Vec::new(),
            tel_hists: Vec::new(),
            transport,
            store_ops,
            store_stats,
            uptime_id,
            build_info_id,
            build_info_value: (major * 10_000 + minor * 100 + patch) as f64,
            topic_slots: Vec::new(),
            queue_slots: Vec::new(),
        }
    }
}

impl Collector for SelfCollector {
    fn name(&self) -> &str {
        "self"
    }

    fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
        // 0. Identity and liveness: a monotone uptime (so a restart is
        //    visible as a reset, per the paper's "monitor the monitor")
        //    and a constant build stamp dashboards can join against.
        frame.push(self.uptime_id, CompId::SYSTEM, engine.tick_count() as f64);
        frame.push(self.build_info_id, CompId::SYSTEM, self.build_info_value);

        // 1. The telemetry registry: pipeline stages, per-collector and
        //    per-detector instruments fed by the core loop.  Visit order is
        //    registration order and the registry only appends, so slot `i`
        //    stays the same instrument for the life of the run.
        let telemetry = self.telemetry.clone();
        let mut i = 0;
        telemetry.visit_counters(|name, total| {
            if i == self.tel_counters.len() {
                let id = self.registry.register(
                    &format!("hpcmon.self.{name}"),
                    Unit::Count,
                    "self-telemetry counter (per-tick)",
                );
                self.tel_counters.push((id, 0));
            }
            let slot = &mut self.tel_counters[i];
            let d = total.saturating_sub(slot.1);
            slot.1 = total;
            frame.push(slot.0, CompId::SYSTEM, d as f64);
            i += 1;
        });
        let mut i = 0;
        telemetry.visit_gauges(|name, value| {
            if i == self.tel_gauges.len() {
                let unit = if name.ends_with("_ms") { Unit::Millis } else { Unit::Count };
                self.tel_gauges.push(self.registry.register(
                    &format!("hpcmon.self.{name}"),
                    unit,
                    "self-telemetry gauge (current level)",
                ));
            }
            frame.push(self.tel_gauges[i], CompId::SYSTEM, value);
            i += 1;
        });
        let mut i = 0;
        telemetry.visit_histograms(|name, h| {
            if i == self.tel_hists.len() {
                self.tel_hists.push(self.registry.register(
                    &format!("hpcmon.self.{name}.p95_ms"),
                    Unit::Millis,
                    "self-telemetry latency, 95th percentile",
                ));
            }
            frame.push(self.tel_hists[i], CompId::SYSTEM, h.quantile_ns(0.95) as f64 / 1e6);
            i += 1;
        });

        // 2. Transport: global and per-topic flow counters plus live
        //    subscriber queue depths.
        let b = self.broker.stats();
        push_deltas(
            frame,
            &mut self.transport,
            [b.published, b.delivered, b.dropped, b.bytes_published, b.decode_errors],
        );
        let topics = self.broker.topic_stats();
        for (k, t) in topics.iter().enumerate() {
            if k == self.topic_slots.len() {
                let base = sanitize(&t.topic);
                let fields =
                    ["published", "dropped", "queue_full", "drop_oldest", "pruned_receiver"];
                self.topic_slots.push(fields.map(|field| {
                    let name = format!("hpcmon.self.transport.topic.{base}.{field}");
                    (
                        self.registry.register(
                            &name,
                            Unit::Count,
                            "per-topic broker flow (per-tick)",
                        ),
                        0,
                    )
                }));
            }
            push_deltas(
                frame,
                &mut self.topic_slots[k],
                [t.published, t.dropped, t.queue_full, t.drop_oldest, t.pruned_receiver],
            );
        }
        for (pattern, depth) in self.broker.queue_depths() {
            let id = if let Some(pos) = self.queue_slots.iter().position(|(p, _)| *p == pattern) {
                self.queue_slots[pos].1
            } else {
                let id = self.registry.register(
                    &format!("hpcmon.self.transport.queue.{}", sanitize(&pattern)),
                    Unit::Count,
                    "subscriber queue depth",
                );
                self.queue_slots.push((pattern, id));
                id
            };
            frame.push(id, CompId::SYSTEM, depth as f64);
        }

        // 3. Store: operation counters (deltas) and occupancy (levels).
        let ops = self.store.op_counts();
        push_deltas(
            frame,
            &mut self.store_ops,
            [
                ops.samples_ingested,
                ops.blocks_sealed,
                ops.blocks_evicted,
                ops.blocks_reloaded,
                self.store.corrupt_blocks(),
            ],
        );
        let st = self.store.occupancy();
        let levels =
            [st.series as f64, st.hot_points as f64, st.warm_points as f64, st.warm_bytes as f64];
        for (id, v) in self.store_stats.iter().zip(levels) {
            frame.push(*id, CompId::SYSTEM, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_sim::SimConfig;
    use hpcmon_transport::{Payload, TopicFilter};

    fn engine() -> SimEngine {
        SimEngine::new(SimConfig::small())
    }

    #[test]
    fn emits_deltas_for_counters_and_levels_for_gauges() {
        let telemetry = Arc::new(Telemetry::new());
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let registry = MetricRegistry::new();
        let mut sc =
            SelfCollector::new(telemetry.clone(), broker.clone(), store.clone(), registry.clone());
        let engine = engine();

        telemetry.counter("collect.samples.node").add(10);
        telemetry.gauge("queue.depth").set(3.0);
        let mut f1 = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine, &mut f1);
        let counter_id = registry.lookup("hpcmon.self.collect.samples.node").unwrap();
        let gauge_id = registry.lookup("hpcmon.self.queue.depth").unwrap();
        let val = |f: &ColumnFrame, id| f.iter().find(|s| s.key.metric == id).unwrap().value;
        assert_eq!(val(&f1, counter_id), 10.0, "first tick delta is the total");
        assert_eq!(val(&f1, gauge_id), 3.0);

        // Next tick: counter advanced by 4, gauge holds its level.
        telemetry.counter("collect.samples.node").add(4);
        let mut f2 = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine, &mut f2);
        assert_eq!(val(&f2, counter_id), 4.0, "delta, not total");
        assert_eq!(val(&f2, gauge_id), 3.0);
    }

    #[test]
    fn late_registered_instruments_join_the_feed() {
        // The positional cache must keep identities straight when new
        // instruments appear after the first collect.
        let telemetry = Arc::new(Telemetry::new());
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let registry = MetricRegistry::new();
        let mut sc =
            SelfCollector::new(telemetry.clone(), broker.clone(), store.clone(), registry.clone());
        telemetry.counter("a").add(1);
        let mut f1 = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine(), &mut f1);
        // A second counter registers between ticks.
        telemetry.counter("a").add(2);
        telemetry.counter("b").add(7);
        let mut f2 = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine(), &mut f2);
        let val = |f: &ColumnFrame, name: &str| {
            let id = registry.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            f.iter().find(|s| s.key.metric == id).unwrap().value
        };
        assert_eq!(val(&f2, "hpcmon.self.a"), 2.0, "existing slot still a delta");
        assert_eq!(val(&f2, "hpcmon.self.b"), 7.0, "new instrument picked up");
    }

    #[test]
    fn uptime_and_build_info_are_emitted() {
        let telemetry = Arc::new(Telemetry::new());
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let registry = MetricRegistry::new();
        let mut sc = SelfCollector::new(telemetry, broker, store, registry.clone());
        let mut engine = engine();
        engine.step();
        engine.step();
        let mut frame = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine, &mut frame);
        let val = |name: &str| {
            let id = registry.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            frame.iter().find(|s| s.key.metric == id).unwrap().value
        };
        assert_eq!(val("hpcmon.self.uptime_ticks"), 2.0);
        // 0.1.0 → 0*10000 + 1*100 + 0.
        assert_eq!(val("hpcmon.self.build_info"), 100.0);
    }

    #[test]
    fn broker_and_store_activity_become_self_metrics() {
        let telemetry = Arc::new(Telemetry::new());
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let registry = MetricRegistry::new();
        let mut sc = SelfCollector::new(telemetry, broker.clone(), store.clone(), registry.clone());
        let _sub =
            broker.subscribe(TopicFilter::all(), 16, hpcmon_transport::BackpressurePolicy::Block);
        broker.publish(
            "metrics/frame",
            Payload::Columns(Arc::new(ColumnFrame::new(hpcmon_metrics::Ts::ZERO))),
        );
        let m = registry.register("m", Unit::Count, "");
        store.insert(&hpcmon_metrics::Sample::new(
            m,
            CompId::node(0),
            hpcmon_metrics::Ts::ZERO,
            1.0,
        ));
        let mut frame = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine(), &mut frame);
        let val = |name: &str| {
            let id = registry.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            frame.iter().find(|s| s.key.metric == id).unwrap().value
        };
        assert_eq!(val("hpcmon.self.transport.published"), 1.0);
        assert_eq!(val("hpcmon.self.transport.decode_errors"), 0.0);
        assert_eq!(val("hpcmon.self.transport.topic.metrics.frame.published"), 1.0);
        assert_eq!(val("hpcmon.self.transport.queue._"), 1.0, "one message queued");
        assert_eq!(val("hpcmon.self.store.samples_ingested"), 1.0);
        assert_eq!(val("hpcmon.self.store.corrupt_blocks"), 0.0);
        assert_eq!(val("hpcmon.self.store.series"), 1.0);
    }

    #[test]
    fn per_topic_drop_reasons_become_self_metrics() {
        let telemetry = Arc::new(Telemetry::new());
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let registry = MetricRegistry::new();
        let mut sc = SelfCollector::new(telemetry, broker.clone(), store, registry.clone());
        // A 1-deep DropNewest subscriber: the 2nd..4th publishes drop.
        let _sub = broker.subscribe(
            TopicFilter::new("metrics/#"),
            1,
            hpcmon_transport::BackpressurePolicy::DropNewest,
        );
        for _ in 0..4 {
            broker.publish(
                "metrics/frame",
                Payload::Columns(Arc::new(ColumnFrame::new(hpcmon_metrics::Ts::ZERO))),
            );
        }
        let mut frame = ColumnFrame::new(hpcmon_metrics::Ts::ZERO);
        sc.collect(&engine(), &mut frame);
        let val = |name: &str| {
            let id = registry.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            frame.iter().find(|s| s.key.metric == id).unwrap().value
        };
        let base = "hpcmon.self.transport.topic.metrics.frame";
        assert_eq!(val(&format!("{base}.published")), 4.0);
        assert_eq!(val(&format!("{base}.dropped")), 3.0);
        assert_eq!(val(&format!("{base}.queue_full")), 3.0, "reason split: queue-full");
        assert_eq!(val(&format!("{base}.drop_oldest")), 0.0);
        assert_eq!(val(&format!("{base}.pruned_receiver")), 0.0);
    }
}
