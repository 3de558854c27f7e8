//! Layer drivers for the traced pass: each layer's public entry point,
//! called from outside on the inputs the real tick just had, under a span.
//!
//! Layer = crate.  Nothing here reaches into the program: the twin engine
//! comes from `SimEngine::restore(engine.snapshot())`, the frames from
//! `last_frame()`, the stage times from the program's own `stage.*`
//! histograms.

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use hpcmon::collect::collectors::{standard_collectors, Collector};
use hpcmon::durability::{DurabilityConfig, DurabilityPlane, SimDisk, SyncPolicy};
use hpcmon::metrics::{ColumnFrame, FrameArena, SeriesKey};
use hpcmon::sim::SimEngine;
use hpcmon::store::{IngestRoute, TimeSeriesStore};
use hpcmon::system::durability::encode_tick_record;
use hpcmon::telemetry::Histogram;
use hpcmon::transport::{topics, BackpressurePolicy, Broker, Payload, Subscription, TopicFilter};
use hpcmon::{DurableTickRecord, MonitoringSystem, TickInputs, TickStateHash};
use std::sync::Arc;

/// A fixed 4 MB multiply-add sweep.  Its time depends on the host, not on
/// the program, so a run on a noisy host is recognisable by it.
pub fn calibrate(buf: &mut [f64]) {
    for x in buf.iter_mut() {
        *x = *x * 1.000_000_1 + 0.5;
    }
    std::hint::black_box(buf);
}

/// Twins of the layers `tick()` drives, stepped in lockstep with it.
pub struct Twins {
    engine: SimEngine,
    collectors: Vec<Box<dyn Collector>>,
    arena: FrameArena,
    broker: Arc<Broker>,
    sub: Subscription,
    store: TimeSeriesStore,
    route: IngestRoute,
    route_keys: Vec<SeriesKey>,
    route_rebuilds: u64,
    plane: Option<DurabilityPlane>,
    step_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    collected: Vec<f64>,
    publish_drain_us: Vec<f64>,
    ingest_ms: Vec<f64>,
    ingested: Vec<f64>,
    encode_ms: Vec<f64>,
    append_sync_ms: Vec<f64>,
}

impl Twins {
    /// Twins of `mon` as it stands: an engine restored from its snapshot
    /// (same jobs, same pending faults), the standard collectors, a broker
    /// with one lossless subscriber, an empty store and, for a durable
    /// workload, a WAL plane on a fresh disk.
    pub fn new(mon: &MonitoringSystem, durable: bool) -> Twins {
        let broker = Broker::new();
        let sub = broker.subscribe(TopicFilter::new("metrics/#"), 4_096, BackpressurePolicy::Block);
        let plane = durable.then(|| {
            let cfg = DurabilityConfig {
                sync: SyncPolicy::EveryTick,
                checkpoint_every: 0,
                scrub_every: 0,
            };
            DurabilityPlane::new(Arc::new(SimDisk::new()), cfg)
        });
        Twins {
            engine: SimEngine::restore(mon.engine().snapshot()),
            collectors: standard_collectors(mon.metrics()),
            arena: FrameArena::new(),
            broker,
            sub,
            store: TimeSeriesStore::new(),
            route: IngestRoute::new(),
            route_keys: Vec::new(),
            route_rebuilds: 0,
            plane,
            step_ms: Vec::new(),
            collect_ms: Vec::new(),
            collected: Vec::new(),
            publish_drain_us: Vec::new(),
            ingest_ms: Vec::new(),
            ingested: Vec::new(),
            encode_ms: Vec::new(),
            append_sync_ms: Vec::new(),
        }
    }

    /// Replay tick `tick` layer by layer.  `frame` is the frame the real
    /// tick published; `hash` its state hash (durable workloads).
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        tick: u64,
        frame: &ColumnFrame,
        hash: Option<TickStateHash>,
    ) {
        let (_, ms) = tracer.time("sim.step", tick, || self.engine.step());
        self.step_ms.push(ms);
        drop(self.engine.drain_logs());

        let now = self.engine.now();
        let (collected, ms) = tracer.time("collect", tick, || {
            let mut cf = self.arena.take_current(now);
            for c in &mut self.collectors {
                c.collect(&self.engine, &mut cf);
            }
            cf
        });
        self.collect_ms.push(ms);
        self.collected.push(collected.len() as f64);

        let topic = topics::metrics("frame");
        let (_, ms) = tracer.time("transport.publish_drain", tick, || {
            let shared = self.arena.publish(collected);
            self.broker.publish_traced(&topic, Payload::Columns(shared), None);
            drop(self.sub.drain());
        });
        self.publish_drain_us.push(ms * 1e3);

        // The store rebuilds its route when the key column changes; seen
        // from outside, that is a frame whose keys differ from the last.
        if self.route_keys != frame.keys {
            self.route_rebuilds += 1;
            self.route_keys.clear();
            self.route_keys.extend_from_slice(&frame.keys);
        }
        let (_, ms) =
            tracer.time("store.ingest", tick, || self.store.ingest_columns(frame, &mut self.route));
        self.ingest_ms.push(ms);
        self.ingested.push(frame.len() as f64);

        if let Some(plane) = &mut self.plane {
            let record = DurableTickRecord { tick, inputs: TickInputs::default(), hash };
            let (payload, ms) =
                tracer.time("durability.encode", tick, || encode_tick_record(&record, frame));
            self.encode_ms.push(ms);
            let (_, ms) = tracer.time("durability.append_sync", tick, || {
                plane.append_tick(tick, &payload);
                plane.end_tick(tick);
            });
            self.append_sync_ms.push(ms);
        }
    }

    /// Seal every hot buffer of the twin store and time it.
    pub fn seal_probe(&mut self, tracer: &mut Tracer, tick: u64, out: &mut Outcome) {
        let hot = self.store.stats().hot_points;
        let (_, ms) = tracer.time("store.seal", tick, || self.store.seal_all());
        out.put("store.seal_ms", ms, hot as u64);
    }

    /// Record the twins' per-layer numbers.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.step_ms.len() as u64;
        out.put("sim.step_ms_p50", median(&self.step_ms), n);
        out.put("collect.ms_p50", median(&self.collect_ms), n);
        let collected = median(&self.collected);
        out.put("collect.samples_per_tick", collected, n);
        out.put("collect.ns_per_sample", median(&self.collect_ms) * 1e6 / collected.max(1.0), n);
        out.put("metrics.arena_fresh_allocs", self.arena.fresh_allocs() as f64, n);
        out.put("transport.publish_drain_us_p50", median(&self.publish_drain_us), n);
        out.put("store.ingest_ms_p50", median(&self.ingest_ms), n);
        let ingested = median(&self.ingested);
        out.put("store.ingest_ns_per_sample", median(&self.ingest_ms) * 1e6 / ingested.max(1.0), n);
        out.put("store.route_rebuilds", self.route_rebuilds as f64, n);
        if self.plane.is_some() {
            out.put("durability.encode_ms_p50", median(&self.encode_ms), n);
            out.put("durability.append_sync_ms_p50", median(&self.append_sync_ms), n);
        }
    }
}

/// The program's own `stage.*` histograms, read after every tick so each
/// tick's stage times are known, not just a lifetime quantile estimate.
pub struct StageProbe {
    stages: Vec<Stage>,
}

struct Stage {
    metric: &'static str,
    /// Nanoseconds per unit of the metric (1e6 for ms, 1e3 for us).
    ns_per_unit: f64,
    hist: Arc<Histogram>,
    seen_ns: u64,
    per_tick_ns: Vec<f64>,
}

impl StageProbe {
    /// Handles to the five stage histograms of `mon` (inert when the
    /// workload runs with self-telemetry off).
    pub fn new(mon: &MonitoringSystem) -> StageProbe {
        let stage = |hist: &str, metric: &'static str, ns_per_unit: f64| {
            let hist = mon.telemetry().histogram(hist);
            let seen_ns = total_ns(&hist);
            Stage { metric, ns_per_unit, hist, seen_ns, per_tick_ns: Vec::new() }
        };
        StageProbe {
            stages: vec![
                stage("stage.collect", "core.stage.collect_ms_p50", 1e6),
                stage("stage.transport", "core.stage.transport_us_p50", 1e3),
                stage("stage.store", "core.stage.store_ms_p50", 1e6),
                stage("stage.analysis", "analysis.stage_ms_p50", 1e6),
                stage("stage.response", "response.stage_us_p50", 1e3),
            ],
        }
    }

    /// Call once after each tick.
    pub fn sample(&mut self) {
        for s in &mut self.stages {
            let total = total_ns(&s.hist);
            s.per_tick_ns.push(total.saturating_sub(s.seen_ns) as f64);
            s.seen_ns = total;
        }
    }

    /// Record each stage's per-tick median and return their sum in ms -
    /// `None`, and the rows over 0 samples, when the histograms are inert
    /// and so timed nothing.
    pub fn report(&self, out: &mut Outcome) -> Option<f64> {
        let inert = self.stages.iter().all(|s| s.seen_ns == 0);
        let mut sum_ms = 0.0;
        for s in &self.stages {
            let p50_ns = median(&s.per_tick_ns);
            let n = if inert { 0 } else { s.per_tick_ns.len() as u64 };
            out.put(s.metric, p50_ns / s.ns_per_unit, n);
            sum_ms += p50_ns / 1e6;
        }
        (!inert).then_some(sum_ms)
    }
}

/// Lifetime nanoseconds a histogram has recorded.  The snapshot exposes the
/// floored mean, so the total is exact to within `count` ns - a microsecond
/// over a thousand ticks.
fn total_ns(hist: &Histogram) -> u64 {
    let snap = hist.snapshot("");
    snap.mean_ns * snap.count
}
