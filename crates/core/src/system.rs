//! The assembled monitoring system.
//!
//! One [`MonitoringSystem::tick`] advances the simulated machine by one
//! interval and runs the complete monitoring pipeline over it, in the
//! order a real deployment would: collect → transport → store → analyze →
//! respond.  Everything the paper's Table I asks for is exercised on every
//! tick: synchronized collection, native-format transport with drop
//! accounting, tiered storage, streaming analysis, and configurable
//! response with actions fed back to the scheduler.

use crate::pipeline::{finding_to_signal, DetectorAttachment};
use bytes::Bytes;
use hpcmon_analysis::{Correlator, Deadman, ImbalanceDetector, NoveltyDetector};
use hpcmon_chaos::{
    BreakerState, ChaosEngine, ChaosPlan, CollectorFault, CollectorSupervisor, IngestBreaker,
    InjectedCounts,
};
use hpcmon_collect::collectors::standard_collectors;
use hpcmon_collect::{
    BenchmarkSuite, Collector, FsProbe, LogHarvester, NetworkProbe, SelfCollector, StdMetrics,
};
use hpcmon_durability::{DurabilityConfig, DurabilityCounts, DurabilityPlane, StorageMedium};
use hpcmon_gateway::{Gateway, GatewayConfig, QueryError, QueryRequest};
use hpcmon_health::{
    AlertEvent, FeedValue, HealthConfig, HealthEngine, HealthReport, Subsystem as HealthSubsystem,
};
use hpcmon_metrics::heap::HeapRelease;
use hpcmon_metrics::{
    ColumnFrame, CompId, CompKind, FrameArena, FrameCoverage, FrameLayout, JobId, LogRecord,
    MetricId, MetricRegistry, Severity, Ts,
};
use hpcmon_response::{
    AccessPolicy, Action, ActionTaken, Consumer, ResponseEngine, Signal, SignalKind,
};
use hpcmon_sim::{FaultKind, JobSpec, SimConfig, SimEngine};
use hpcmon_store::{Archive, IngestRoute, LogStore, QueryEngine, RetentionPolicy, TimeSeriesStore};
use hpcmon_telemetry::{Counter, Gauge, Histogram, Telemetry, TelemetryReport};
use hpcmon_trace::{DropReason, Sampler, SpanGuard, Stage, TraceContext, TraceStore, Tracer};
use hpcmon_transport::{
    topics, BackpressurePolicy, Broker, Envelope, Payload, Subscription, TopicFilter, TopicStats,
};
use hpcmon_viz::{ClassStatus, StatusBoard};
use serde::Serialize;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

pub mod durability;
pub mod replay;
pub mod state;

pub use durability::{DurableSample, DurableTickRecord, RecoveryOutcome};
pub use replay::{DivergenceReport, ReplayError, ReplayOutcome, Replayer};
pub use state::{CoreSnapshot, GatewayOp, TickInputs, TickStateHash};

/// The builder's plain-data options: everything about a run that is
/// configuration rather than code (collectors, detectors and rule sets stay
/// on [`MonitorBuilder`]); [`MonitorBuilder`]'s chained setters write into
/// it.  A medium does not carry them: rebuilding a run — to recover it
/// ([`MonitoringSystem::recover_from_medium`]) or to replay it
/// ([`Replayer::open`]) — takes them from the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOptions {
    /// The simulated machine.
    pub sim: SimConfig,
    /// Chaos seed and plan ([`MonitorBuilder::chaos`]).
    pub chaos: Option<(u64, ChaosPlan)>,
    /// Whether the monitor observes itself
    /// ([`MonitorBuilder::self_telemetry`]).
    pub self_telemetry: bool,
    /// Trace head-sampling policy ([`MonitorBuilder::tracing`]).
    pub tracing: Sampler,
    /// Query gateway, if served ([`MonitorBuilder::gateway`]).
    pub gateway: Option<GatewayConfig>,
    /// Benchmark-suite cadence in ticks, `None` = off
    /// ([`MonitorBuilder::bench_suite_every`]).
    pub bench_every_ticks: Option<u64>,
    /// Whether the active probes run ([`MonitorBuilder::with_probes`]).
    pub probes: bool,
    /// Machine-level power cap ([`MonitorBuilder::power_cap_w`]).
    pub power_cap_w: Option<f64>,
    /// Retention policy and its cadence in ticks
    /// ([`MonitorBuilder::retention`]).
    pub retention: Option<(RetentionPolicy, u64)>,
    /// SLO/alerting plane, if on ([`MonitorBuilder::health`]).
    pub health: Option<HealthConfig>,
    /// Clock skew in ticks ([`MonitorBuilder::clock_epoch_offset_ticks`]).
    pub clock_epoch_offset_ticks: u64,
}

impl MonitorOptions {
    /// The builder's defaults for machine `sim`.
    pub fn new(sim: SimConfig) -> MonitorOptions {
        MonitorOptions {
            sim,
            chaos: None,
            self_telemetry: true,
            tracing: Sampler::one_in(64),
            gateway: None,
            bench_every_ticks: Some(10),
            probes: true,
            power_cap_w: None,
            retention: None,
            health: None,
            clock_epoch_offset_ticks: 0,
        }
    }
}

/// Builder for a [`MonitoringSystem`].
pub struct MonitorBuilder {
    options: MonitorOptions,
    registry: MetricRegistry,
    metrics: StdMetrics,
    probe_pairs: u32,
    detectors: Vec<DetectorAttachment>,
    extra_collectors: Vec<Box<dyn Collector>>,
    durability: Option<(Arc<dyn StorageMedium>, DurabilityConfig)>,
}

impl MonitorBuilder {
    /// Start from a whole set of options — how a recovered or replayed run
    /// is rebuilt.
    pub fn from_options(options: MonitorOptions) -> MonitorBuilder {
        let registry = MetricRegistry::new();
        let metrics = StdMetrics::register(&registry);
        MonitorBuilder {
            options,
            registry,
            metrics,
            probe_pairs: 16,
            detectors: Vec::new(),
            extra_collectors: Vec::new(),
            durability: None,
        }
    }

    /// Journal every tick to a write-ahead log on `medium` and checkpoint
    /// the full [`CoreSnapshot`] on the configured cadence (default off).
    /// After a crash, [`MonitoringSystem::recover_from_medium`] on a
    /// freshly built system restores the newest checkpoint and replays
    /// the WAL tail; with `SyncPolicy::EveryTick` no acknowledged tick is
    /// ever lost, with `SyncPolicy::GroupCommit(n)` loss is bounded by
    /// one commit window.  The plane is hash-neutral: a durable run's
    /// state-hash chain is identical to a non-durable twin's.  With state
    /// hashing on, the medium is also a recording [`Replayer::open`] reads.
    pub fn durability(
        mut self,
        medium: Arc<dyn StorageMedium>,
        cfg: DurabilityConfig,
    ) -> MonitorBuilder {
        self.durability = Some((medium, cfg));
        self
    }

    /// Evaluate a deterministic SLO/alerting plane as a tick stage
    /// (default off).  Every tick the pipeline feeds the engine
    /// good/bad evidence from *deterministic* primary sources (coverage
    /// bitmap, stall backlog, breaker and spill state, store/broker op
    /// counts, chaos injection totals — never wall-clock telemetry), so
    /// alert timelines are keyed by tick and bit-identical between runs.
    /// Transitions publish [`AlertEvent`]s on the broker topic
    /// `health/alerts` and surface as `hpcmon.self.health.*` series
    /// through the self feed.  Off, the whole plane costs one branch.
    pub fn health(mut self, cfg: HealthConfig) -> MonitorBuilder {
        self.options.health = Some(cfg);
        self
    }

    /// Skew this system's clock: the simulated epoch starts `ticks` ticks
    /// ahead of zero, so every emitted sample carries site-local timestamps
    /// offset by `ticks · tick_ms`.  Models the per-site clock skew a
    /// federation merge layer must align (default 0 — no skew).
    pub fn clock_epoch_offset_ticks(mut self, ticks: u64) -> MonitorBuilder {
        self.options.clock_epoch_offset_ticks = ticks;
        self
    }

    /// Inject a deterministic chaos plan into the *monitoring plane*
    /// itself: the faults land on the supervision every tick already runs
    /// under (DESIGN.md §10).  `seed` keys the per-envelope corruption
    /// draws; the plan's tick numbers refer to [`MonitoringSystem::tick`]
    /// calls (the first tick is 1).  The same seed and plan reproduce the
    /// same faults bit-for-bit.
    pub fn chaos(mut self, seed: u64, plan: ChaosPlan) -> MonitorBuilder {
        self.options.chaos = Some((seed, plan));
        self
    }

    // Source-compatibility shim for the frozen `benchmark/src/workloads.rs:187`.
    #[doc(hidden)]
    pub fn workers(self, n: usize) -> MonitorBuilder {
        assert_eq!(n, 0, "the tick is serial; the worker pool is gone (DESIGN.md §9)");
        self
    }

    /// Set the head-sampling policy for pipeline tracing (default 1-in-64
    /// frames; [`Sampler::off`] disables tracing entirely).  Sampled
    /// frames record a span per pipeline stage; drops and sheds record
    /// provenance spans for **every** frame regardless of sampling.
    pub fn tracing(mut self, sampler: Sampler) -> MonitorBuilder {
        self.options.tracing = sampler;
        self
    }

    /// Serve queries through an [`hpcmon_gateway::Gateway`] built over the
    /// system's store and broker (default off).  Its instruments register
    /// under `gateway.*`, so with self-telemetry enabled gateway activity
    /// appears as `hpcmon.self.gateway.*` series.
    pub fn gateway(mut self, config: GatewayConfig) -> MonitorBuilder {
        self.options.gateway = Some(config);
        self
    }

    /// Enable or disable the self-telemetry layer (default on).  When off,
    /// the pipeline's instruments become inert no-ops and no `SelfCollector`
    /// is installed — the baseline configuration for overhead benchmarks.
    pub fn self_telemetry(mut self, enabled: bool) -> MonitorBuilder {
        self.options.self_telemetry = enabled;
        self
    }

    /// Enforce a machine-level power cap: when total draw exceeds the cap
    /// the controller steps the p-state down (and back up when there is
    /// headroom) — the power-aware-operation vision from §III-C of the
    /// paper, closed-loop over the monitoring data itself.
    pub fn power_cap_w(mut self, cap_w: f64) -> MonitorBuilder {
        assert!(cap_w > 0.0);
        self.options.power_cap_w = Some(cap_w);
        self
    }

    /// Install a site-specific collector alongside the standard set —
    /// the Table I extensibility requirement ("extensibility and
    /// modularity are fundamental") as an API.  Register custom metrics
    /// against [`MonitorBuilder::registry`] so ids resolve in the built
    /// system.
    pub fn install_collector(mut self, collector: Box<dyn Collector>) -> MonitorBuilder {
        self.extra_collectors.push(collector);
        self
    }

    /// The metric registry the built system will use; custom collectors
    /// register their metrics here before `build()`.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The resolved standard metric ids (for detector attachments).
    pub fn metrics(&self) -> StdMetrics {
        self.metrics
    }

    /// Enforce a retention policy every `every_ticks` ticks.
    pub fn retention(mut self, policy: RetentionPolicy, every_ticks: u64) -> MonitorBuilder {
        assert!(every_ticks > 0);
        self.options.retention = Some((policy, every_ticks));
        self
    }

    /// Run the benchmark suite every `n` ticks (`None` disables).
    pub fn bench_suite_every(mut self, n: Option<u64>) -> MonitorBuilder {
        self.options.bench_every_ticks = n;
        self
    }

    /// Enable or disable the active probes.
    pub fn with_probes(mut self, enabled: bool) -> MonitorBuilder {
        self.options.probes = enabled;
        self
    }

    /// Attach a streaming detector to a series.
    pub fn attach_detector(mut self, attachment: DetectorAttachment) -> MonitorBuilder {
        self.detectors.push(attachment);
        self
    }

    /// Assemble the system.
    pub fn build(self) -> MonitoringSystem {
        let o = self.options;
        let mut engine = SimEngine::new(o.sim.clone());
        if o.clock_epoch_offset_ticks > 0 {
            engine.set_epoch(Ts(o.clock_epoch_offset_ticks * o.sim.tick_ms));
        }
        let registry = self.registry;
        let metrics = self.metrics;
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let telemetry =
            Arc::new(if o.self_telemetry { Telemetry::new() } else { Telemetry::disabled() });
        // The store consumes frames losslessly off the broker.
        let store_sub =
            broker.subscribe(TopicFilter::new("metrics/#"), 4_096, BackpressurePolicy::Block);
        let mut collectors: Vec<Box<dyn Collector>> = standard_collectors(metrics);
        collectors.extend(self.extra_collectors);
        if o.probes {
            collectors.push(Box::new(FsProbe::new(metrics, o.sim.seed ^ 0xF5)));
            collectors.push(Box::new(NetworkProbe::spread(
                metrics,
                engine.num_nodes(),
                self.probe_pairs,
            )));
        }
        if o.self_telemetry {
            // Last, so it observes the instruments every earlier collector
            // and the previous tick's pipeline stages registered.
            collectors.push(Box::new(SelfCollector::new(
                telemetry.clone(),
                broker.clone(),
                store.clone(),
                registry.clone(),
            )));
        }
        let instruments = PipelineInstruments::new(&telemetry, &collectors, &self.detectors);
        let tracer = Arc::new(Tracer::new(o.tracing));
        if tracer.is_enabled() {
            broker.set_tracer(tracer.clone());
        }
        let gateway = o
            .gateway
            .map(|cfg| Arc::new(Gateway::new(store.clone(), broker.clone(), &telemetry, cfg)));
        if let (Some(gw), true) = (&gateway, tracer.is_enabled()) {
            gw.set_tracer(tracer.clone());
        }
        let supervisor = CollectorSupervisor::new(collectors.len());
        let ever_contributed = vec![false; collectors.len()];
        // Watch slot `i` of the arena's layout is attachment `i`'s series.
        let mut arena = FrameArena::new();
        for att in &self.detectors {
            arena.watch(att.key);
        }
        let mut mon = MonitoringSystem {
            power_slot: None,
            env_slot: None,
            durability: self.durability.map(|(m, cfg)| DurabilityPlane::new(m, cfg)),
            durability_feed_base: (0, 0),
            pending_inputs: TickInputs::default(),
            health: o.health.map(HealthEngine::new),
            health_broker_baseline: (0, 0),
            chaos: o.chaos.map(|(seed, plan)| ChaosEngine::new(seed, plan)),
            supervisor,
            breaker: IngestBreaker::new(256, 16),
            stall_buffer: Vec::new(),
            ever_contributed,
            last_coverage: None,
            last_frame: None,
            arena,
            routes: [IngestRoute::new(), IngestRoute::new()],
            hashing: false,
            last_state_hash: None,
            replay_hash_gauge: None,
            self_metric_flags: Vec::new(),
            bench_suite: BenchmarkSuite::new(metrics, o.sim.seed ^ 0xBE, 16),
            bench_every_ticks: o.bench_every_ticks,
            harvester: LogHarvester::new(Some(broker.clone())),
            correlator: Correlator::new(Correlator::production_rules()),
            novelty: NoveltyDetector::new(),
            response: ResponseEngine::new(ResponseEngine::production_rules()),
            imbalance: ImbalanceDetector::new(),
            detectors: self.detectors,
            store,
            log_store: Arc::new(LogStore::new()),
            archive: Archive::new(),
            signals: Vec::new(),
            store_sub,
            deadman: Deadman::new(o.sim.tick_ms),
            retention: o.retention,
            power_cap_w: o.power_cap_w,
            collectors,
            engine,
            registry,
            metrics,
            broker,
            telemetry,
            instruments,
            gateway,
            tracer,
            trace_store: TraceStore::new(256),
            _heap: HeapRelease,
        };
        mon.resolve_gate_slots();
        mon
    }
}

/// Ticks of log-novelty training before flagging begins.
const NOVELTY_TRAINING_TICKS: u64 = 30;

/// Whether the frame segment of the collector in registration slot `slot`
/// is present per the frame's coverage bitmap.  A collector that is not
/// installed counts as covered, and so does every slot of a frame with no
/// bitmap — one that did not come out of `collect`.  Otherwise a collector
/// *known* to have missed this tick fails the gate, and the built-in
/// analyses skip its segment instead of reading absence as zero.
fn slot_covered(frame: &ColumnFrame, slot: Option<usize>) -> bool {
    match (&frame.coverage, slot) {
        (Some(cov), Some(slot)) => cov.covered(slot),
        _ => true,
    }
}

/// The frame's values of `metric` in component-index order: a slice of the
/// value column when they sit there that way (one collector emitting its
/// cabinets in order does), else gathered and sorted.
fn cabinet_column<'a>(
    frame: &'a ColumnFrame,
    layout: &FrameLayout,
    metric: MetricId,
) -> Cow<'a, [f64]> {
    let index = |pos: usize| frame.keys[pos].comp.index;
    let mut runs = layout.runs_of(metric);
    if let (Some(run), None) = (runs.next(), runs.next()) {
        if let Some(range) = run.range().filter(|r| r.clone().is_sorted_by_key(index)) {
            return Cow::Borrowed(&frame.values[range]);
        }
    }
    let mut cabs: Vec<(u32, f64)> =
        layout.positions_of(metric).map(|pos| (index(pos), frame.values[pos])).collect();
    cabs.sort_by_key(|&(i, _)| i);
    Cow::Owned(cabs.into_iter().map(|(_, v)| v).collect())
}

/// Advance a telemetry counter to an externally tracked lifetime total.
fn sync_counter(c: &Counter, total: u64) {
    c.add(total.saturating_sub(c.get()));
}

/// Instruments for one collector: collect latency and samples contributed.
struct CollectorInstruments {
    latency: Arc<Histogram>,
    samples: Arc<Counter>,
}

/// Instruments for one attached detector.
struct DetectorInstruments {
    evals: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// Every telemetry handle the tick loop touches, resolved once at build so
/// the hot path never formats an instrument name or takes a registry lock.
/// The `collectors`/`detectors` vectors run parallel to the system's own.
struct PipelineInstruments {
    tick_count: Arc<Counter>,
    stage_tick: Arc<Histogram>,
    // `stage.<name>` of each `TICK` entry, in tick order.
    stages: [Arc<Histogram>; TICK.len()],
    correlator_records: Arc<Counter>,
    correlator_findings: Arc<Counter>,
    deadman_feeds: Arc<Gauge>,
    response_handled: Arc<Counter>,
    response_suppressed: Arc<Counter>,
    // Tracing export: counters under `trace.*`, republished by the self
    // feed as `hpcmon.self.trace.*` series and queryable via the gateway.
    trace_sampled: Arc<Counter>,
    trace_spans: Arc<Counter>,
    trace_completed: Arc<Counter>,
    trace_completed_with_drops: Arc<Counter>,
    trace_ring_rejected: Arc<Counter>,
    // Self-healing export: fault-injection counts by kind, supervisor and
    // breaker state, and per-frame collector coverage.  Registered
    // unconditionally so the self-feed series set does not depend on
    // whether chaos is configured.
    chaos_collector_panic: Arc<Counter>,
    chaos_collector_hang: Arc<Counter>,
    chaos_collector_slow: Arc<Counter>,
    chaos_topic_stall: Arc<Counter>,
    chaos_envelope_corrupt: Arc<Counter>,
    chaos_store_write_fail: Arc<Counter>,
    chaos_disk_write_fail: Arc<Counter>,
    chaos_disk_torn_write: Arc<Counter>,
    chaos_disk_corrupt_byte: Arc<Counter>,
    chaos_disk_full: Arc<Counter>,
    supervisor_quarantined: Arc<Gauge>,
    frame_coverage_pct: Arc<Gauge>,
    store_breaker_state: Arc<Gauge>,
    spill_depth: Arc<Gauge>,
    spill_dropped: Arc<Counter>,
    // Health plane export: alert lifecycle counts and per-subsystem
    // grades, republished by the self feed as `hpcmon.self.health.*`.
    // Registered unconditionally (chaos-counter precedent) so the
    // self-feed series set does not depend on whether health is on.
    health_transitions: Arc<Counter>,
    health_alerts_firing: Arc<Gauge>,
    health_alerts_pending: Arc<Gauge>,
    health_grades: Vec<Arc<Gauge>>,
    // Durability plane export: WAL append/sync/checkpoint/scrub totals
    // and the live backlog depth, republished by the self feed as
    // `hpcmon.self.durability.*`.  Registered unconditionally
    // (chaos-counter precedent) so the self-feed series set does not
    // depend on whether a plane is attached.
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_append_failures: Arc<Counter>,
    wal_syncs: Arc<Counter>,
    wal_backlog: Arc<Gauge>,
    durability_checkpoints: Arc<Counter>,
    durability_checkpoint_failures: Arc<Counter>,
    durability_checkpoint_bytes: Arc<Counter>,
    // Snapshot + encode + write of one checkpoint, inside `stage.wal`.
    stage_checkpoint: Arc<Histogram>,
    durability_corrupt_events: Arc<Counter>,
    durability_torn_tail_bytes: Arc<Counter>,
    durability_scrub_files: Arc<Counter>,
    durability_scrub_failures: Arc<Counter>,
    collectors: Vec<CollectorInstruments>,
    detectors: Vec<DetectorInstruments>,
}

impl PipelineInstruments {
    fn new(
        t: &Telemetry,
        collectors: &[Box<dyn Collector>],
        detectors: &[DetectorAttachment],
    ) -> PipelineInstruments {
        PipelineInstruments {
            tick_count: t.counter("tick.count"),
            stage_tick: t.histogram("stage.tick"),
            stages: TICK_STAGES.map(|name| t.histogram(&format!("stage.{name}"))),
            correlator_records: t.counter("analysis.correlator.records"),
            correlator_findings: t.counter("analysis.correlator.findings"),
            deadman_feeds: t.gauge("analysis.deadman.feeds"),
            response_handled: t.counter("response.signals_handled"),
            response_suppressed: t.counter("response.suppressed_by_cooldown"),
            trace_sampled: t.counter("trace.sampled"),
            trace_spans: t.counter("trace.spans"),
            trace_completed: t.counter("trace.completed"),
            trace_completed_with_drops: t.counter("trace.completed_with_drops"),
            trace_ring_rejected: t.counter("trace.ring_rejected"),
            chaos_collector_panic: t.counter("chaos.injected.collector_panic"),
            chaos_collector_hang: t.counter("chaos.injected.collector_hang"),
            chaos_collector_slow: t.counter("chaos.injected.collector_slow"),
            chaos_topic_stall: t.counter("chaos.injected.topic_stall"),
            chaos_envelope_corrupt: t.counter("chaos.injected.envelope_corrupt"),
            chaos_store_write_fail: t.counter("chaos.injected.store_write_fail"),
            chaos_disk_write_fail: t.counter("chaos.injected.disk_write_fail"),
            chaos_disk_torn_write: t.counter("chaos.injected.disk_torn_write"),
            chaos_disk_corrupt_byte: t.counter("chaos.injected.disk_corrupt_byte"),
            chaos_disk_full: t.counter("chaos.injected.disk_full"),
            supervisor_quarantined: t.gauge("supervisor.quarantined"),
            frame_coverage_pct: t.gauge("frame.coverage_pct"),
            store_breaker_state: t.gauge("store.breaker_state"),
            spill_depth: t.gauge("spill.depth"),
            spill_dropped: t.counter("spill.dropped"),
            health_transitions: t.counter("health.transitions"),
            health_alerts_firing: t.gauge("health.alerts_firing"),
            health_alerts_pending: t.gauge("health.alerts_pending"),
            wal_records: t.counter("durability.wal.records"),
            wal_bytes: t.counter("durability.wal.bytes"),
            wal_append_failures: t.counter("durability.wal.append_failures"),
            wal_syncs: t.counter("durability.wal.syncs"),
            wal_backlog: t.gauge("durability.wal.backlog"),
            durability_checkpoints: t.counter("durability.checkpoints"),
            durability_checkpoint_failures: t.counter("durability.checkpoint_failures"),
            durability_checkpoint_bytes: t.counter("durability.checkpoint_bytes"),
            stage_checkpoint: t.histogram("stage.checkpoint"),
            durability_corrupt_events: t.counter("durability.corrupt_events"),
            durability_torn_tail_bytes: t.counter("durability.torn_tail_bytes"),
            durability_scrub_files: t.counter("durability.scrub.files"),
            durability_scrub_failures: t.counter("durability.scrub.failures"),
            health_grades: HealthSubsystem::ALL
                .iter()
                .map(|s| t.gauge(&format!("health.grade.{}", s.label())))
                .collect(),
            collectors: collectors
                .iter()
                .map(|c| CollectorInstruments {
                    latency: t.histogram(&format!("collect.latency.{}", c.name())),
                    samples: t.counter(&format!("collect.samples.{}", c.name())),
                })
                .collect(),
            detectors: detectors
                .iter()
                .map(|att| {
                    let label = att.label.replace(' ', "_");
                    DetectorInstruments {
                        evals: t.counter(&format!("analysis.detector.{label}.evals")),
                        latency: t.histogram(&format!("analysis.detector.{label}.latency")),
                    }
                })
                .collect(),
        }
    }

    /// Advance the per-kind injection counters (pipeline and disk faults)
    /// to the chaos engine's lifetime totals.
    fn sync_chaos(&self, counts: InjectedCounts, disk: hpcmon_chaos::DiskInjectedCounts) {
        sync_counter(&self.chaos_collector_panic, counts.collector_panic);
        sync_counter(&self.chaos_collector_hang, counts.collector_hang);
        sync_counter(&self.chaos_collector_slow, counts.collector_slow);
        sync_counter(&self.chaos_topic_stall, counts.topic_stall);
        sync_counter(&self.chaos_envelope_corrupt, counts.envelope_corrupt);
        sync_counter(&self.chaos_store_write_fail, counts.store_write_fail);
        sync_counter(&self.chaos_disk_write_fail, disk.write_fail);
        sync_counter(&self.chaos_disk_torn_write, disk.torn_write);
        sync_counter(&self.chaos_disk_corrupt_byte, disk.corrupt_byte);
        sync_counter(&self.chaos_disk_full, disk.full);
    }

    /// Advance the durability export to the plane's lifetime totals.
    fn sync_durability(&self, c: DurabilityCounts, backlog: usize) {
        sync_counter(&self.wal_records, c.records_appended);
        sync_counter(&self.wal_bytes, c.bytes_appended);
        sync_counter(&self.wal_append_failures, c.append_failures);
        sync_counter(&self.wal_syncs, c.syncs);
        self.wal_backlog.set(backlog as f64);
        sync_counter(&self.durability_checkpoints, c.checkpoints);
        sync_counter(&self.durability_checkpoint_failures, c.checkpoint_failures);
        sync_counter(&self.durability_checkpoint_bytes, c.checkpoint_bytes);
        sync_counter(&self.durability_corrupt_events, c.corrupt_events);
        sync_counter(&self.durability_torn_tail_bytes, c.torn_tail_bytes);
        sync_counter(&self.durability_scrub_files, c.scrub_files);
        sync_counter(&self.durability_scrub_failures, c.scrub_failures);
    }
}

/// Per-tick outcome.  `PartialEq`/`Serialize` so determinism checks can
/// compare whole reports across runs (and diff them as JSON).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TickReport {
    /// Samples collected this tick.
    pub samples: usize,
    /// Log records harvested this tick.
    pub logs: usize,
    /// Signals emitted this tick.
    pub signals: Vec<Signal>,
    /// Response actions taken this tick.
    pub actions: Vec<ActionTaken>,
    /// Health alert transitions this tick (empty when health is off).
    pub alerts: Vec<AlertEvent>,
}

/// Whole-run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Ticks executed.
    pub ticks: u64,
    /// Samples ingested into the store.
    pub samples: u64,
    /// Log records stored.
    pub logs: u64,
    /// Signals emitted.
    pub signals: u64,
    /// Actions taken.
    pub actions: u64,
}

/// One step of the tick: the name of its `stage.<name>` histogram, the
/// span it opens under the frame's root span (if any), and what it runs.
struct TickStage {
    name: &'static str,
    span: Option<Stage>,
    run: fn(&mut MonitoringSystem, &mut TickCtx<'_>),
}

/// The tick, in order (DESIGN.md §2): [`MonitoringSystem::tick`] runs these
/// and nothing else.
const TICK: [TickStage; 13] = [
    TickStage { name: "sim", span: None, run: |m, _| m.engine.step() },
    TickStage { name: "chaos", span: None, run: MonitoringSystem::project_chaos },
    TickStage { name: "collect", span: Some(Stage::Collect), run: MonitoringSystem::collect },
    TickStage { name: "transport", span: Some(Stage::Transport), run: MonitoringSystem::publish },
    TickStage { name: "store", span: None, run: MonitoringSystem::drain_to_store },
    TickStage { name: "analysis", span: Some(Stage::Analysis), run: MonitoringSystem::analyze },
    TickStage { name: "response", span: Some(Stage::Response), run: MonitoringSystem::respond },
    TickStage { name: "results", span: None, run: MonitoringSystem::store_results },
    TickStage { name: "health", span: None, run: MonitoringSystem::evaluate_health },
    TickStage { name: "serve", span: None, run: MonitoringSystem::serve },
    TickStage { name: "trace", span: None, run: MonitoringSystem::assemble_traces },
    TickStage { name: "hash", span: None, run: MonitoringSystem::finish_tick_hash },
    TickStage { name: "wal", span: None, run: MonitoringSystem::finish_tick_durability },
];

/// The tick's stages, in the order [`MonitoringSystem::tick`] runs them.
/// Each one's wall time is the `stage.<name>` histogram, and together they
/// make up `stage.tick`.
pub const TICK_STAGES: [&str; TICK.len()] = {
    let mut names = [""; TICK.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = TICK[i].name;
        i += 1;
    }
    names
};

/// What a tick's stages hand each other.
#[derive(Default)]
struct TickCtx<'t> {
    // The frame's trace context, its root span, and the running stage's span.
    trace: Option<TraceContext>,
    root: Option<SpanGuard<'t>>,
    span: Option<SpanGuard<'t>>,
    // The frame `collect` drafts and `transport` publishes as `last_frame`.
    draft: Option<ColumnFrame>,
    bench_logs: Vec<LogRecord>,
    signals: Vec<Signal>,
    // Frames that went out on the broker this tick.
    published_now: u64,
    report: TickReport,
}

/// The machine plus its full monitoring stack.
pub struct MonitoringSystem {
    engine: SimEngine,
    registry: MetricRegistry,
    metrics: StdMetrics,
    broker: Arc<Broker>,
    store: Arc<TimeSeriesStore>,
    log_store: Arc<LogStore>,
    archive: Archive,
    collectors: Vec<Box<dyn Collector>>,
    bench_suite: BenchmarkSuite,
    bench_every_ticks: Option<u64>,
    harvester: LogHarvester,
    correlator: Correlator,
    novelty: NoveltyDetector,
    response: ResponseEngine,
    imbalance: ImbalanceDetector,
    detectors: Vec<DetectorAttachment>,
    signals: Vec<Signal>,
    store_sub: Subscription,
    deadman: Deadman,
    retention: Option<(RetentionPolicy, u64)>,
    power_cap_w: Option<f64>,
    telemetry: Arc<Telemetry>,
    instruments: PipelineInstruments,
    gateway: Option<Arc<Gateway>>,
    tracer: Arc<Tracer>,
    trace_store: TraceStore,
    // SLO/alerting plane (DESIGN.md §13).  `None` (the default) costs
    // one branch per tick and changes nothing observable.
    health: Option<HealthEngine>,
    // Broker lifetime totals (delivered, dropped+decode_errors) as of the
    // previous health evaluation.  Broker counters are not part of the
    // snapshot, so the health plane feeds per-tick deltas against this
    // baseline and `restore_snapshot` re-seeds it from the live broker.
    health_broker_baseline: (u64, u64),
    // Crash-durability plane (DESIGN.md §15).  `None` (the default) costs
    // one branch per tick; attached, every tick's inputs + frame append
    // to a WAL on the plane's storage medium and checkpoints rotate it.
    // The plane journals hashed state but is never itself hashed, so a
    // durable run's hash chain matches its non-durable twin.
    durability: Option<DurabilityPlane>,
    // What the `store.durability` feed had reached when this plane was
    // attached: a recovered plane counts from zero again, the restored
    // health engine does not, and lifetime totals that fell would read as
    // no evidence at all until they caught up.  (0, 0) in a run that never
    // recovered.
    durability_feed_base: (u64, u64),
    // External inputs received since the last tick, captured (only while
    // a durability plane is attached) so the tick-end WAL record can
    // replay them after a crash.
    pending_inputs: TickInputs,
    chaos: Option<ChaosEngine>,
    // Self-healing machinery (DESIGN.md §10), run on every tick.  The
    // supervisor, `ever_contributed` and the coverage bitmap run parallel
    // to `collectors`.
    supervisor: CollectorSupervisor,
    breaker: IngestBreaker<(Arc<ColumnFrame>, Option<TraceContext>)>,
    stall_buffer: Vec<(String, Payload, Option<TraceContext>)>,
    ever_contributed: Vec<bool>,
    last_coverage: Option<FrameCoverage>,
    // The most recent frame published on the broker, for federation
    // rollups: a `Federation` reads it after each lockstep tick to build
    // the site's O(1)-series rollup without re-querying the store.
    last_frame: Option<Arc<ColumnFrame>>,
    // Ping-pong frame buffers (DESIGN.md §14): each tick takes the slot
    // the consumers of two ticks ago have released and refills it, so the
    // steady-state hot path allocates nothing.  Its layout is where the
    // analysis stage finds its samples: watch slot `i` holds the positions
    // of `detectors[i]`'s series.
    arena: FrameArena,
    // Registration slots of the collectors whose segments gate a built-in
    // analysis (`None`: not installed, which counts as covered).
    power_slot: Option<usize>,
    env_slot: Option<usize>,
    // Cached ingest routes — key column -> shard/slot — valid while a
    // frame's key set and the store's slab layout are stable, which in
    // steady state is every tick.  One per frame shape (`[raw, results]`)
    // so the results frame never evicts the raw frame's route.
    routes: [IngestRoute; 2],
    // Replay hooks (system::state, DESIGN.md §11).  With `hashing` false
    // none of it runs and the pipeline is bit-identical to a build without
    // them.
    hashing: bool,
    last_state_hash: Option<TickStateHash>,
    replay_hash_gauge: Option<Arc<Gauge>>,
    // Positional cache: metric id -> "is an hpcmon.self.* series", so the
    // frame hash can exclude wall-clock self-telemetry without a registry
    // lookup per sample.
    self_metric_flags: Vec<bool>,
    // Last, so it drops after everything above: a dropped system hands its
    // pages back, and the next one built in this process does not start on
    // its heap.
    _heap: HeapRelease,
}

impl MonitoringSystem {
    /// Start building a system.
    pub fn builder(config: SimConfig) -> MonitorBuilder {
        MonitorBuilder::from_options(MonitorOptions::new(config))
    }

    // ----- delegation to the machine -----

    /// Submit a job.
    pub fn submit_job(&mut self, spec: JobSpec) -> JobId {
        if self.durability.is_some() {
            self.pending_inputs.jobs.push(spec.clone());
        }
        self.engine.submit_job(spec)
    }

    /// Schedule a fault injection.
    pub fn schedule_fault(&mut self, at: Ts, kind: FaultKind) {
        if self.durability.is_some() {
            self.pending_inputs.faults.push((at, kind));
        }
        self.engine.schedule_fault(at, kind);
    }

    /// Register a standing gateway subscription ([`Gateway::subscribe`]);
    /// `None` when no gateway is configured.  Journaled like a job: a
    /// subscription publishes onto the broker every tick it delivers, so
    /// crash recovery must replay it to stay on the same hash chain.
    pub fn subscribe(
        &mut self,
        consumer: &Consumer,
        request: QueryRequest,
        topic: &str,
    ) -> Option<Result<u64, QueryError>> {
        let gw = self.gateway.as_ref()?;
        if self.durability.is_some() {
            self.pending_inputs.gateway_ops.push(GatewayOp::Subscribe {
                consumer: consumer.clone(),
                request: request.clone(),
                topic: topic.to_string(),
            });
        }
        Some(gw.subscribe(consumer, request, topic))
    }

    // ----- the pipeline -----

    /// Advance machine + monitoring by one tick: run the [`TICK_STAGES`]
    /// in order, on the calling thread (DESIGN.md §9).  One clock read at
    /// each stage boundary times every stage into its `stage.<name>`
    /// histogram, so the stages sum to `stage.tick` exactly.
    pub fn tick(&mut self) -> TickReport {
        // Stamp this tick's frame with a trace context.  The sampling
        // decision hashes the tick number: identical runs trace identical frames.
        let tracer = Arc::clone(&self.tracer);
        let trace = tracer.context_for(self.engine.tick_count().wrapping_add(1));
        // Exemplar tag: sampled frames stamp their trace id into the latency
        // bucket they land in, so a p99 spike resolves to a concrete trace.
        let tag = trace.map_or(0, |c| if c.sampled { c.trace_id.0 } else { 0 });
        let root = trace.as_ref().map(|c| tracer.span(c, Stage::Tick));
        let mut cx = TickCtx { trace, root, ..TickCtx::default() };
        self.instruments.tick_count.inc();
        let start = Instant::now();
        let mut from = start;
        for (i, stage) in TICK.iter().enumerate() {
            // The stage's span (if it has one) hangs off the root and
            // closes before the clock is read.
            cx.span = stage.span.zip(cx.root.as_ref()).map(|(st, r)| tracer.span(&r.context(), st));
            (stage.run)(self, &mut cx);
            cx.span = None;
            let to = Instant::now();
            self.instruments.stages[i].record_ns_tagged((to - from).as_nanos() as u64, tag);
            from = to;
        }
        self.instruments.stage_tick.record_ns_tagged((from - start).as_nanos() as u64, tag);
        cx.report
    }

    /// Stage `chaos`: advance the chaos schedule and project the active
    /// faults onto the components they target.  Shard write-fault flags
    /// mirror the engine's windows exactly (set and cleared every tick).
    fn project_chaos(&mut self, _: &mut TickCtx<'_>) {
        let Some(chaos) = &mut self.chaos else { return };
        chaos.begin_tick(self.engine.tick_count());
        for shard in 0..self.store.num_shards() {
            self.store.set_shard_write_fault(shard, chaos.shard_failing(shard));
        }
        // Disk faults project onto the durability medium.  The one-shot
        // queues are drained UNCONDITIONALLY: the chaos digest covers the
        // pending queues, so a run without a plane attached must consume
        // them at the same tick as its durable twin to stay hash-identical.
        let write_failing = chaos.disk_write_failing();
        let full = chaos.disk_full();
        let torn = chaos.take_torn_writes();
        let corrupt = chaos.take_corrupt_bytes();
        if let Some(plane) = &self.durability {
            let medium = plane.medium();
            medium.set_write_fail(write_failing);
            medium.set_full(full);
            for seed in torn {
                medium.arm_torn_write(seed);
            }
            for seed in corrupt {
                medium.corrupt_byte(seed);
            }
        }
    }

    /// Stage `collect`: run every collector into this tick's arena frame —
    /// directly, in registration order (the builder installs the
    /// `SelfCollector` last, so it republishes what the others updated this
    /// tick) — and per slot settle its supervision, deadman beat and
    /// coverage bit; then the benchmark suite on its cadence.
    ///
    /// Every run is supervised (DESIGN.md §10): wrapped in a panic catch
    /// and the chaos engine's active faults.  A segment that fails (panic,
    /// hang, deadline overrun) is discarded and its slot quarantined with
    /// exponential-backoff re-probes, the gap handed to the deadman so it
    /// surfaces as `MonitoringGap`, never silence — one collector's panic
    /// never ends the tick.
    fn collect(&mut self, cx: &mut TickCtx<'_>) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (tick, now) = (self.engine.tick_count(), self.engine.now());
        let mut frame = self.arena.take_current(now);
        let budget = self.supervisor.config().slow_budget_factor;
        // Coverage bitmap: a slot is expected once it has ever
        // contributed, and reported if it contributed this tick.  Analysis
        // stages use it to *skip* segments a quarantined collector failed
        // to deliver instead of treating absence as zero.
        let mut cov = FrameCoverage::default();
        for i in 0..self.collectors.len() {
            let before = frame.len();
            let fault =
                self.chaos.as_ref().and_then(|ch| ch.collector_fault(self.collectors[i].name()));
            // `Some(ok)` for a slot that was due this tick; `None` for one
            // quarantined with no re-probe due (the deadman carries the gap).
            let outcome = if !self.supervisor.should_run(i, tick) {
                None
            } else if fault == Some(CollectorFault::Hang) {
                // Chaos hang: never runs, counts as a failure.
                Some(false)
            } else {
                // The chaos panic fires inside the run; a run over the
                // deadline budget completes and is discarded afterwards.
                let inject_panic = fault == Some(CollectorFault::Panic);
                let discard = matches!(fault, Some(CollectorFault::Slow(f)) if f >= budget);
                // Time the run and catch anything — injected chaos panics
                // and real collector panics alike.
                let (engine, c) = (&self.engine, &mut self.collectors[i]);
                let started = Instant::now();
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    c.collect(engine, &mut frame);
                    if inject_panic {
                        panic!("chaos: injected collector panic");
                    }
                }))
                .is_err();
                let elapsed = started.elapsed().as_nanos() as u64;
                self.instruments.collectors[i].latency.record_ns(elapsed);
                Some(!(panicked || discard))
            };
            if outcome == Some(false) {
                // A failed segment is discarded whole.
                frame.truncate(before);
            }
            let delivered = frame.len() - before;
            let name = self.collectors[i].name();
            match outcome {
                Some(false) => {
                    self.supervisor.record_failure(i, tick);
                    self.deadman.set_quarantined(name, true);
                }
                Some(true) => {
                    self.instruments.collectors[i].samples.add(delivered as u64);
                    if self.supervisor.is_probe(i, tick) {
                        self.deadman.set_quarantined(name, false);
                    }
                    self.supervisor.record_success(i);
                }
                None => {}
            }
            // Deadman beat per contributing collector (silence must not
            // look like health).  A collector registers the first time it
            // ever contributes — on whatever tick that happens — so a feed
            // that comes alive late still gets silence coverage from then
            // on; one that is legitimately empty for this machine config
            // never arms an expectation.
            if delivered > 0 {
                self.deadman.register(name);
                self.deadman.beat(name, now);
            }
            self.ever_contributed[i] |= delivered > 0;
            if self.ever_contributed[i] {
                cov.expect(i);
                if delivered > 0 {
                    cov.report(i);
                }
            }
        }
        frame.coverage = Some(cov);
        self.last_coverage = Some(cov);
        self.instruments.supervisor_quarantined.set(self.supervisor.quarantined_count() as f64);
        self.instruments.frame_coverage_pct.set(cov.pct());
        if self.bench_every_ticks.is_some_and(|n| tick.is_multiple_of(n)) {
            self.bench_suite.run(&self.engine, &mut frame, &mut cx.bench_logs);
        }
        cx.report.samples = frame.len();
        // Formatted for a sampled span only: an inert one drops its note.
        if let Some(span) = cx.span.as_mut().filter(|span| span.context().sampled) {
            span.set_note(format!("{} samples", cx.report.samples));
        }
        cx.draft = Some(frame);
    }

    /// Stage `transport`: publish the frame (epoch swap, not copy: broker,
    /// store, federation and this tick's analysis share one `Arc`).  The
    /// envelope carries the frame's context re-parented under the transport
    /// span, so store-side and broker drop spans chain into the frame's
    /// trace.  Counts the frames that went out, for the health plane's
    /// transport-delivery feed: 0 while the topic is stalled, backlog + 1
    /// on the tick a stall clears.
    fn publish(&mut self, cx: &mut TickCtx<'_>) {
        let trace = cx.span.as_ref().map(|g| g.context()).or(cx.trace);
        let frame = self.arena.publish(cx.draft.take().expect("collect drafts the frame"));
        self.last_frame = Some(Arc::clone(&frame));
        let topic = topics::metrics("frame");
        let payload = Payload::Columns(frame);
        if self.chaos.as_ref().is_some_and(|c| c.topic_stalled(&topic)) {
            // Chaos: the broker path for this topic is wedged.  Frames
            // queue here in arrival order and go out the first tick the
            // stall clears — late, but never lost and never reordered.
            self.stall_buffer.push((topic, payload, trace));
            return;
        }
        cx.published_now = self.stall_buffer.len() as u64 + 1;
        for (topic, payload, trace) in self.stall_buffer.drain(..) {
            self.broker.publish_traced(&topic, payload, trace);
        }
        self.broker.publish_traced(&topic, payload, trace);
    }

    /// Stage `store`: the store consumer drains the broker.  The stage has
    /// no span of its own: each envelope's ingest opens one under the
    /// envelope's context.
    fn drain_to_store(&mut self, _: &mut TickCtx<'_>) {
        let tracer = Arc::clone(&self.tracer);
        for env in self.store_sub.drain() {
            if self.corrupted_in_transit(&env) {
                continue;
            }
            let _span = env.trace.as_ref().map(|c| tracer.span(c, Stage::Store));
            if let Some(cf) = env.payload.as_columns() {
                self.ingest(cf, env.trace);
            }
        }
    }

    /// Chaos: corrupt the wire form of seeded envelopes.  The envelope is
    /// re-encoded, one seeded bit flipped, and the result pushed through
    /// the broker's defensive decode; a rejected envelope is counted
    /// (`transport.decode_errors`), its loss recorded with provenance, and
    /// the caller skips it.  The decision hashes the broker sequence
    /// number, so the same envelopes are hit on every run.  The
    /// flip position is computed over a *canonical* wire form with the
    /// trace context stripped: sampling decisions (including replay's
    /// forced 1-in-1 tracing) change the traced wire bytes, and the
    /// corruption outcome must not depend on observability settings.
    fn corrupted_in_transit(&mut self, env: &Envelope) -> bool {
        let Some(bits) = self.chaos.as_mut().and_then(|c| c.corruption(env.seq)) else {
            return false;
        };
        let canon = Envelope { trace: None, ..env.clone() };
        let Ok(mut wire) = canon.encode() else { return false };
        let bit = (bits % (wire.len() as u64 * 8)) as usize;
        wire[bit / 8] ^= 1 << (bit % 8);
        // A flip that lands where JSON tolerates it is delivered (real
        // corruption is not always detectable at the transport layer).
        let rejected = self.broker.decode_envelope(&wire).is_err();
        if let (true, Some(ctx)) = (rejected, env.trace.as_ref()) {
            self.tracer.record_drop(
                ctx,
                Stage::Transport,
                DropReason::CorruptEnvelope,
                "chaos: flipped bit rejected at decode",
            );
        }
        rejected
    }

    /// Store one frame — the raw frame off the broker and the analysis
    /// results frame alike — through its cached route, behind the breaker:
    /// a failing shard trips the breaker and frames spill (bounded,
    /// drop-oldest with provenance) until a half-open probe finds the store
    /// healthy again, then the spill drains in arrival order.
    fn ingest(&mut self, frame: &Arc<ColumnFrame>, trace: Option<TraceContext>) {
        // Results frames (two fixed keys, led by `analysis.signals`) ride
        // their own cached route: sharing one would evict the raw frame's
        // route — an 80k-key rebuild at 4k nodes — twice a tick.
        let results_metric = self.metrics.analysis_signals;
        let lane = |cf: &ColumnFrame| {
            usize::from(cf.keys.first().is_some_and(|k| k.metric == results_metric))
        };
        let (store, routes) = (&*self.store, &mut self.routes);
        let item = (Arc::clone(frame), trace);
        let report = self.breaker.submit(item, self.engine.tick_count(), |(cf, _)| {
            store.try_ingest_columns(cf, &mut routes[lane(cf)])
        });
        for ctx in report.evicted.into_iter().filter_map(|(_, ctx)| ctx) {
            self.tracer.record_drop(
                &ctx,
                Stage::Store,
                DropReason::SpillOverflow,
                "spill queue full: oldest frame evicted",
            );
        }
    }

    /// Stage `analysis`: logs, attached detectors on the fresh frame, the
    /// built-in checks and control loops, retention on its cadence.
    fn analyze(&mut self, cx: &mut TickCtx<'_>) {
        let frame = self.last_frame.clone().expect("transport publishes the frame");
        self.analyze_logs(cx);
        self.evaluate_detectors(&frame, &mut cx.signals);
        self.builtin_analyses(&frame, &mut cx.signals);
        self.control_power_cap(&frame, &mut cx.signals);
        if let Some((policy, every)) = self.retention {
            if self.engine.tick_count().is_multiple_of(every) {
                policy.enforce(frame.ts, &self.store, &mut self.archive);
            }
        }
        // Lifetime evaluation totals, synced so the self feed carries deltas.
        let (correlated, findings) = self.correlator.eval_counts();
        sync_counter(&self.instruments.correlator_records, correlated);
        sync_counter(&self.instruments.correlator_findings, findings);
        self.instruments.deadman_feeds.set(self.deadman.len() as f64);
    }

    /// Harvest logs (normalizing vendor formats), analyze, store.
    fn analyze_logs(&mut self, cx: &mut TickCtx<'_>) {
        let mut records = self.harvester.harvest(&mut self.engine);
        records.append(&mut cx.bench_logs);
        cx.report.logs = records.len();
        let training = self.engine.tick_count() <= NOVELTY_TRAINING_TICKS;
        if !training && self.novelty.is_training() {
            self.novelty.freeze();
        }
        for rec in &records {
            for finding in self.correlator.observe(rec) {
                cx.signals.push(finding_to_signal(&finding));
            }
            if self.novelty.observe(rec) {
                cx.signals.push(Signal::new(
                    rec.ts,
                    SignalKind::LogNovelty,
                    Severity::Notice,
                    rec.comp,
                    1.0,
                    format!("novel log shape: {}", rec.message),
                ));
            }
        }
        self.log_store.append_batch(records);
    }

    /// Streaming metric analysis on the fresh frame: feed each
    /// attachment, in attachment order, this frame's samples of its series.
    /// Their positions come from the arena's layout, which searched the key
    /// column when it last changed.
    fn evaluate_detectors(&mut self, frame: &ColumnFrame, signals: &mut Vec<Signal>) {
        let layout = self.arena.layout();
        let attachments = self.detectors.iter_mut().zip(&self.instruments.detectors);
        for (slot, (att, inst)) in attachments.enumerate() {
            let started = Instant::now();
            let positions = layout.watched(slot);
            for &pos in positions {
                let s = frame.get(pos as usize);
                debug_assert_eq!(s.key, att.key);
                if let Some(anomaly) = att.detector.observe(s.ts, s.value) {
                    signals.push(Signal::new(
                        anomaly.ts,
                        att.kind,
                        att.severity,
                        att.key.comp,
                        anomaly.score,
                        format!("{} (value {:.4})", att.label, anomaly.value),
                    ));
                }
            }
            inst.evals.add(positions.len() as u64);
            inst.latency.record_ns(started.elapsed().as_nanos() as u64);
        }
    }

    /// Built-in analyses — cabinet imbalance, ASHRAE, node health
    /// checks, collector silence.  Each is gated on the coverage of the
    /// collector that owns its input segment — a quarantined power
    /// collector must not read as a balanced-at-zero machine.
    fn builtin_analyses(&mut self, frame: &ColumnFrame, signals: &mut Vec<Signal>) {
        let now = frame.ts;
        let layout = self.arena.layout();
        if slot_covered(frame, self.power_slot) {
            let cabinets = cabinet_column(frame, layout, self.metrics.cabinet_power);
            let reading = self.imbalance.assess(&cabinets);
            if reading.flagged {
                let user = self.dominant_user();
                let mut sig = Signal::new(
                    now,
                    SignalKind::PowerAnomaly,
                    Severity::Warning,
                    CompId::SYSTEM,
                    reading.max_min_ratio,
                    format!(
                        "cabinet power imbalance: max/min {:.2}, cv {:.2}",
                        reading.max_min_ratio, reading.cv
                    ),
                );
                if let Some(u) = user {
                    sig = sig.with_user(&u);
                }
                signals.push(sig);
            }
        }
        if slot_covered(frame, self.env_slot)
            && self.engine.environment().exceeds_ashrae_gas_limit()
        {
            signals.push(Signal::new(
                now,
                SignalKind::EnvironmentViolation,
                Severity::Warning,
                CompId::ENVIRONMENT,
                self.engine.environment().so2_ppb,
                "SO2 above ASHRAE G1 limit",
            ));
        }
        // (The node health scan needs no gate: a missing node segment
        // simply contributes no node_health samples to iterate.)
        for pos in layout.positions_of(self.metrics.node_health) {
            if frame.values[pos] == 0.0 {
                let comp = frame.keys[pos].comp;
                let node = comp.index;
                let mut sig = Signal::new(
                    now,
                    SignalKind::HealthCheckFailure,
                    Severity::Warning,
                    comp,
                    1.0,
                    format!("node {node} fails health check"),
                );
                if let Some(id) = self.engine.scheduler().job_on_node(node) {
                    sig = sig.with_user(&self.engine.scheduler().record(id).user.clone());
                }
                signals.push(sig);
            }
        }
        for silent in self.deadman.check(now) {
            signals.push(Signal::new(
                now,
                SignalKind::MonitoringGap,
                Severity::Error,
                CompId::SYSTEM,
                silent.overdue_ms as f64 / 1_000.0,
                format!("collector '{}' silent (last seen {:?})", silent.feed, silent.last_seen),
            ));
        }
    }

    /// Power-cap control loop — throttle p-state on overdraw,
    /// recover when there is headroom.  The actuation is itself a signal
    /// so operators see every throttle decision.  Gated on power
    /// coverage: with the power collector quarantined, a missing reading
    /// must hold the p-state where it is, not read as "0 W, full
    /// headroom".
    fn control_power_cap(&mut self, frame: &ColumnFrame, signals: &mut Vec<Signal>) {
        let (Some(cap), true) = (self.power_cap_w, slot_covered(frame, self.power_slot)) else {
            return;
        };
        let system_power = self.arena.layout().positions_of(self.metrics.system_power).next();
        let total = system_power.map_or(0.0, |pos| frame.values[pos]);
        let pstate = self.engine.pstate();
        if total > cap && pstate > 0.3 {
            let next = (pstate - 0.05).max(0.3);
            self.engine.set_pstate(next);
            signals.push(Signal::new(
                frame.ts,
                SignalKind::PowerAnomaly,
                Severity::Notice,
                CompId::SYSTEM,
                total / cap,
                format!("power cap: {total:.0} W over {cap:.0} W cap, p-state -> {next:.2}"),
            ));
        } else if total < 0.85 * cap && pstate < 1.0 {
            self.engine.set_pstate((pstate + 0.05).min(1.0));
        }
    }

    /// Stage `response`: respond, feeding actions back to the machine.
    fn respond(&mut self, cx: &mut TickCtx<'_>) {
        for sig in &cx.signals {
            let actions = self.response.handle(sig);
            for action in &actions {
                self.apply_action(action);
            }
            cx.report.actions.extend(actions);
        }
        let (handled, suppressed) = self.response.eval_counts();
        sync_counter(&self.instruments.response_handled, handled);
        sync_counter(&self.instruments.response_suppressed, suppressed);
    }

    /// Stage `results`: analysis results are stored WITH the raw data
    /// (Table I): the per-tick counts through the same ingest as the raw
    /// frame (queued behind any spilled data), each signal as a searchable
    /// `analysis` log record.
    fn store_results(&mut self, cx: &mut TickCtx<'_>) {
        let mut results = ColumnFrame::new(self.engine.now());
        results.push(self.metrics.analysis_signals, CompId::SYSTEM, cx.signals.len() as f64);
        results.push(self.metrics.analysis_actions, CompId::SYSTEM, cx.report.actions.len() as f64);
        self.ingest(&Arc::new(results), cx.trace);
        self.instruments.store_breaker_state.set(self.breaker.state().as_gauge());
        self.instruments.spill_depth.set(self.breaker.depth() as f64);
        sync_counter(&self.instruments.spill_dropped, self.breaker.dropped());
        if let Some(chaos) = &self.chaos {
            self.instruments.sync_chaos(chaos.counts(), chaos.disk_counts());
        }
        for s in &cx.signals {
            let detail = s.detail.clone();
            self.log_store.append(LogRecord::new(s.ts, s.comp, s.severity, "analysis", detail));
        }
        self.signals.extend(cx.signals.iter().cloned());
        cx.report.signals = std::mem::take(&mut cx.signals);
    }

    /// Stage `serve`: refresh the gateway's scoping view with the current
    /// allocations, then evaluate standing subscriptions.
    fn serve(&mut self, _: &mut TickCtx<'_>) {
        if let Some(gw) = &self.gateway {
            gw.update_jobs(self.engine.scheduler().records().to_vec());
            gw.on_tick(self.engine.now());
        }
    }

    /// Stage `health`: evaluate the SLO/alerting plane over this tick's
    /// deterministic pipeline evidence into the report's alert transitions.
    /// Feeds come from primary sources — the coverage bitmap, the stall
    /// backlog, breaker and spill state, store/broker op counts, chaos
    /// injection totals — never from wall-clock telemetry (the gateway's
    /// shed counters, for instance, ride `Instant` deadlines), so alert
    /// timelines are keyed by tick and bit-identical between runs.
    /// Exemplars are the one exception: a newly firing alert grabs the
    /// trace id nearest its subsystem's p99 as a flamegraph link, and the
    /// canonical timeline zeroes it.
    fn evaluate_health(&mut self, cx: &mut TickCtx<'_>) {
        let Some(health) = &mut self.health else { return };
        let tick_no = self.engine.tick_count();
        // `collect` stamped this tick's bitmap.
        let cov_pct = self.last_coverage.unwrap_or_default().pct();
        // Broker counters survive a snapshot restore un-reset (the broker
        // is live infrastructure, not snapshotted state), so diff them
        // here against a baseline that `restore_snapshot` re-seeds, rather
        // than handing lifetime totals to the engine's own differ.
        let bstats = self.broker.stats();
        let btotals = (bstats.delivered, bstats.dropped + bstats.decode_errors);
        let bdelta = (
            btotals.0.saturating_sub(self.health_broker_baseline.0),
            btotals.1.saturating_sub(self.health_broker_baseline.1),
        );
        self.health_broker_baseline = btotals;
        let sops = self.store.op_counts();
        let breaker_closed = self.breaker.state() == BreakerState::Closed;
        let spill_bad = self.breaker.depth() as f64 + (!breaker_closed as u64) as f64;
        let counts = self.chaos.as_ref().map(|c| c.counts()).unwrap_or_default();
        let per_tick = |good: f64, bad: f64| FeedValue::Tick { good, bad };
        let total = |good: u64, bad: u64| FeedValue::Total { good: good as f64, bad: bad as f64 };
        let store_bad = self.store.corrupt_blocks() + self.breaker.dropped();
        let stalled = self.stall_buffer.len() as f64;
        let mut feeds: Vec<(&str, FeedValue)> = vec![
            ("collect.coverage", per_tick(cov_pct, 100.0 - cov_pct)),
            ("transport.delivery", per_tick(cx.published_now as f64, stalled)),
            ("trace.drops", per_tick(bdelta.0 as f64, bdelta.1 as f64)),
            ("store.ingest", per_tick(breaker_closed as u64 as f64, spill_bad)),
            ("store.integrity", total(sops.samples_ingested, store_bad)),
            ("chaos.quiescence", total(tick_no, counts.total())),
        ];
        // Durability evidence only exists with a plane attached — or in
        // the journal of a run that had one: the failure counters behind
        // it are disk-fault driven and cannot be recomputed, so each tick
        // records the totals it fed as a tick input and WAL replay (which
        // runs before a plane is attached) feeds them back.  Otherwise the
        // feed is simply absent (an SLO with no feed grades healthy —
        // absence of a WAL is not an outage).
        if let Some(plane) = &self.durability {
            let dc = plane.counts();
            let bad =
                dc.append_failures + dc.checkpoint_failures + dc.corrupt_events + dc.scrub_failures;
            let (good0, bad0) = self.durability_feed_base;
            self.pending_inputs.durability_feed = Some((good0 + dc.records_appended, bad0 + bad));
        }
        if let Some((good, bad)) = self.pending_inputs.durability_feed {
            feeds.push(("store.durability", total(good, bad)));
        }
        let insts = &self.instruments;
        let exemplar = |sub: HealthSubsystem| -> u64 {
            let stage = match sub {
                HealthSubsystem::Collect | HealthSubsystem::Transport | HealthSubsystem::Store => {
                    TICK_STAGES.iter().position(|&name| name == sub.label())
                }
                _ => None,
            };
            stage.map_or(&insts.stage_tick, |i| &insts.stages[i]).exemplar_near_quantile(0.99)
        };
        let events = health.observe_tick(tick_no, &feeds, &exemplar);
        for ev in events.iter().filter(|ev| !ev.silenced) {
            let wire = serde_json::to_vec(ev).expect("AlertEvent serializes");
            self.broker.publish(&topics::health_alerts(), Payload::Raw(Bytes::from(wire)));
        }
        insts.health_transitions.add(events.len() as u64);
        insts.health_alerts_firing.set(health.firing_count() as f64);
        insts.health_alerts_pending.set(health.pending_count() as f64);
        let health_rep = health.report(tick_no);
        for (g, sub) in insts.health_grades.iter().zip(&health_rep.subsystems) {
            g.set(sub.grade as u8 as f64);
        }
        cx.report.alerts = events;
    }

    /// Stage `trace`: close the frame's root span and assemble completed
    /// traces.  The drain also picks up drop spans recorded by the broker
    /// and gateway (including from consumer threads) since last tick.
    fn assemble_traces(&mut self, cx: &mut TickCtx<'_>) {
        cx.root = None;
        if !self.tracer.is_enabled() {
            return;
        }
        self.trace_store.ingest(self.tracer.drain());
        let (insts, traces, tstats) = (&self.instruments, &self.trace_store, self.tracer.stats());
        sync_counter(&insts.trace_sampled, tstats.traces_sampled);
        sync_counter(&insts.trace_spans, traces.spans_seen());
        sync_counter(&insts.trace_completed, traces.completed_total());
        sync_counter(&insts.trace_completed_with_drops, traces.completed_with_drops());
        sync_counter(&insts.trace_ring_rejected, tstats.spans_rejected);
    }

    fn apply_action(&mut self, action: &ActionTaken) {
        // Alerts/notifications are journaled; only node actions drive the
        // machine.
        if let (Action::SidelineNode | Action::DrainNode, CompKind::Node) =
            (&action.action, action.comp.kind)
        {
            self.engine.scheduler_mut().take_out_of_service(action.comp.index);
        }
    }

    fn dominant_user(&self) -> Option<String> {
        let running = self.engine.scheduler().running();
        running.iter().max_by_key(|r| r.nodes.len()).map(|r| r.spec.user.clone())
    }

    /// Advance `n` ticks, accumulating a summary.
    pub fn run_ticks(&mut self, n: u64) -> RunSummary {
        let mut summary = RunSummary::default();
        for _ in 0..n {
            let r = self.tick();
            summary.ticks += 1;
            summary.samples += r.samples as u64;
            summary.logs += r.logs as u64;
            summary.signals += r.signals.len() as u64;
            summary.actions += r.actions.len() as u64;
        }
        summary
    }

    // ----- accessors -----

    /// The simulated machine.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// The metric registry (names, units, descriptions).
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Resolved standard metric ids.
    pub fn metrics(&self) -> StdMetrics {
        self.metrics
    }

    /// The transport broker (subscribe for live consumers).
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The query gateway, if one was configured with
    /// [`MonitorBuilder::gateway`].  Clone the `Arc` to issue queries from
    /// consumer threads while the pipeline keeps ticking.  Register
    /// standing subscriptions through [`MonitoringSystem::subscribe`],
    /// which journals them for crash recovery.
    pub fn gateway(&self) -> Option<&Arc<Gateway>> {
        self.gateway.as_ref()
    }

    /// Per-topic publish/deliver/drop breakdown from the broker.
    pub fn broker_topic_stats(&self) -> Vec<TopicStats> {
        self.broker.topic_stats()
    }

    /// The pipeline tracer.  Clone the `Arc` to stamp externally driven
    /// work (gateway clients, custom consumers) into the same trace space.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Completed end-to-end traces (sampled frames plus every drop).
    pub fn traces(&self) -> &TraceStore {
        &self.trace_store
    }

    /// The self-instrumentation registry.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Snapshot of the monitor's own health (stage latencies, counters).
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report()
    }

    /// Remove a collector by name — the stand-in for a collection daemon
    /// dying mid-run.  The deadman keeps expecting its feed, so silence
    /// surfaces as `MonitoringGap`; the self feed shows its per-tick
    /// `collect.samples` dropping to zero.  Returns whether one was removed.
    pub fn silence_collector(&mut self, name: &str) -> bool {
        let mut removed = false;
        while let Some(i) = self.collectors.iter().position(|c| c.name() == name) {
            // The instrument, supervisor, and coverage vectors run
            // parallel to the collector list; keep the pairings intact.
            self.collectors.remove(i);
            self.instruments.collectors.remove(i);
            self.supervisor.remove_slot(i);
            self.ever_contributed.remove(i);
            removed = true;
        }
        // Later slots moved down one: the gates must follow them.
        self.resolve_gate_slots();
        removed
    }

    /// Resolve the registration slots whose coverage bits gate the
    /// built-in analyses (`None`: not installed).
    fn resolve_gate_slots(&mut self) {
        let slot_of = |name: &str| self.collectors.iter().position(|c| c.name() == name);
        (self.power_slot, self.env_slot) = (slot_of("power"), slot_of("env"));
    }

    // ----- self-healing / chaos -----

    /// Lifetime chaos injection counts by kind (`None` when no chaos plan
    /// is configured).
    pub fn chaos_counts(&self) -> Option<InjectedCounts> {
        self.chaos.as_ref().map(|c| c.counts())
    }

    /// Collector slots currently quarantined by the supervisor.
    pub fn quarantined_collectors(&self) -> usize {
        self.supervisor.quarantined_count()
    }

    /// Current state of the store-ingest circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Frames currently waiting in the ingest spill queue.
    pub fn spill_depth(&self) -> usize {
        self.breaker.depth()
    }

    /// Frames evicted (drop-oldest) from the spill queue over the run —
    /// the only sanctioned data loss under store faults, every one
    /// counted here and traced with `spill_overflow` provenance.
    pub fn spill_dropped(&self) -> u64 {
        self.breaker.dropped()
    }

    /// Frames buffered behind an active broker topic stall.
    pub fn stalled_frames(&self) -> usize {
        self.stall_buffer.len()
    }

    // ----- health plane -----

    /// Every alert lifecycle transition so far (empty when health is
    /// off).
    pub fn alert_events(&self) -> &[AlertEvent] {
        self.health.as_ref().map_or(&[], |h| h.events())
    }

    /// The operator health report as of the current tick (`None` when
    /// health is off).
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|h| h.report(self.engine.tick_count()))
    }

    /// The canonical alert timeline: one JSON line per transition with
    /// exemplar ids zeroed — the artifact determinism suites byte-diff
    /// between runs.  Empty when health is off.
    pub fn health_timeline(&self) -> String {
        self.health.as_ref().map_or_else(String::new, |h| h.canonical_timeline())
    }

    /// Coverage bitmap of the most recent frame (`None` before the first
    /// tick).
    pub fn last_coverage(&self) -> Option<FrameCoverage> {
        self.last_coverage
    }

    /// The frame the most recent tick published, if any tick has run.
    /// Federation rollups read this instead of re-querying the store.
    pub fn last_frame(&self) -> Option<&Arc<ColumnFrame>> {
        self.last_frame.as_ref()
    }

    /// Where each metric's samples sit in [`Self::last_frame`].
    pub fn frame_layout(&self) -> &FrameLayout {
        self.arena.layout()
    }

    /// The time-series store.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// The log store.
    pub fn log_store(&self) -> &LogStore {
        &self.log_store
    }

    /// The archive (cold tier).
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Mutable archive access (archiving/reloading flows).
    pub fn archive_mut(&mut self) -> &mut Archive {
        &mut self.archive
    }

    /// A query engine over the store.
    pub fn query(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.store)
    }

    /// Every signal emitted so far.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Every response action taken so far.
    pub fn actions(&self) -> &[ActionTaken] {
        self.response.journal()
    }

    /// Alerts delivered on a named route.
    pub fn response_alerts(&self, route: &str) -> Vec<&ActionTaken> {
        self.response.alerts_on_route(route)
    }

    /// Signals visible to a given consumer under the access policy.
    pub fn signals_for(&self, consumer: &Consumer) -> Vec<&Signal> {
        AccessPolicy.filter(consumer, &self.signals)
    }

    /// Estimated queue wait for a hypothetical `nodes`-node job submitted
    /// now (the CSC user-facing number); `None` when it can never fit.
    pub fn estimate_wait_ms(&self, nodes: u32) -> Option<u64> {
        self.engine.scheduler().estimate_wait_ms(nodes, self.engine.now())
    }

    /// Assemble the current operations report: machine state, alerts by
    /// rule, benchmark trends, loudest log templates.
    pub fn ops_report(&self) -> String {
        use hpcmon_analysis::TemplateMiner;
        let m = self.metrics;
        let q = self.query();
        let bench = |metric| -> Vec<f64> {
            let key = hpcmon_metrics::SeriesKey::new(metric, CompId::SYSTEM);
            q.series(key, hpcmon_store::TimeRange::all()).into_iter().map(|p| p.1).collect()
        };
        let mut miner = TemplateMiner::new();
        for i in 0..self.log_store.len() as u32 {
            if let Some(rec) = self.log_store.get(i) {
                miner.observe(&rec);
            }
        }
        let templates = miner.top_k(5).into_iter().map(|t| (t.count, t.example)).collect();
        let mut report = hpcmon_viz::OpsReport::new("Operations report")
            .period(Ts::ZERO, self.engine.now())
            .status_board(&self.status_board())
            .alerts(self.response.journal().iter().map(|a| (a.rule.as_str(), a.ts)))
            .benchmark("io bench tts (s)", bench(m.bench_io))
            .benchmark("network bench tts (s)", bench(m.bench_network))
            .top_templates(templates);
        if self.telemetry.is_active() {
            report = report.telemetry(&self.telemetry.report().render_text());
        }
        report.render()
    }

    /// The at-a-glance component-state board ("percentage of components in
    /// a state, regardless of location").
    pub fn status_board(&self) -> StatusBoard {
        use hpcmon_sim::node::NodeHealth;
        let e = &self.engine;
        let oos: std::collections::HashSet<u32> =
            e.scheduler().out_of_service().into_iter().collect();
        let (mut up, mut hung, mut down, mut sidelined) = (0, 0, 0, 0);
        for n in 0..e.num_nodes() {
            if oos.contains(&n) && e.node(n).health == NodeHealth::Up {
                sidelined += 1;
                continue;
            }
            match e.node(n).health {
                NodeHealth::Up => up += 1,
                NodeHealth::Hung => hung += 1,
                NodeHealth::Down => down += 1,
            }
        }
        let links = e.network().num_links() as u32;
        let links_up = (0..links).filter(|&l| e.network().link_is_up(l)).count();
        let osts = e.filesystem().num_osts();
        let osts_ok = (0..osts).filter(|&o| e.filesystem().ost_degradation(o) <= 1.0).count();
        let gpus_total = e.num_nodes() as usize * e.config().gpus_per_node as usize;
        let gpus_ok = (0..gpus_total as u32).filter(|&g| e.gpu(g).healthy).count();
        let mut board = StatusBoard::new(&format!("Machine state at {}", e.now()))
            .add(ClassStatus::new(
                "nodes",
                vec![("up", up), ("hung", hung), ("down", down), ("sidelined", sidelined)],
            ))
            .add(ClassStatus::new(
                "links",
                vec![("up", links_up), ("down", links as usize - links_up)],
            ))
            .add(ClassStatus::new(
                "OSTs",
                vec![("healthy", osts_ok), ("degraded", osts as usize - osts_ok)],
            ));
        if gpus_total > 0 {
            board = board.add(ClassStatus::new(
                "GPUs",
                vec![("healthy", gpus_ok), ("failed", gpus_total - gpus_ok)],
            ));
        }
        board
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_analysis::ZScoreDetector;
    use hpcmon_metrics::SeriesKey;
    use hpcmon_sim::AppProfile;

    fn quick_system() -> MonitoringSystem {
        MonitoringSystem::builder(SimConfig::small()).build()
    }

    #[test]
    fn a_stage_with_a_span_is_named_after_it() {
        for stage in TICK {
            if let Some(span) = stage.span {
                assert_eq!(span.as_str(), stage.name);
            }
        }
    }

    /// Counts the ticks its collector wrote keys on: it holds the frame's
    /// keys while the collector runs, so a key written means a copy.
    struct KeyWrites(Box<dyn Collector>, std::rc::Rc<std::cell::Cell<u32>>);

    impl Collector for KeyWrites {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
            let held = frame.keys.clone();
            self.0.collect(engine, frame);
            if !frame.keys.same_buffer(&held) {
                self.1.set(self.1.get() + 1);
            }
        }
    }

    #[test]
    fn fixed_shape_collectors_declare_once_and_a_steady_frame_keeps_its_buffer() {
        let mut mon = quick_system();
        mon.submit_job(JobSpec::new(
            AppProfile::checkpointing("ckpt"),
            "bob",
            16,
            20 * 60_000,
            Ts::ZERO,
        ));
        let mut writes = Vec::new();
        for c in std::mem::take(&mut mon.collectors) {
            let count = std::rc::Rc::default();
            writes.push((c.name().to_string(), std::rc::Rc::clone(&count)));
            mon.collectors.push(Box::new(KeyWrites(c, count)));
        }
        let mut prev: Option<Arc<ColumnFrame>> = None;
        let mut steady = 0;
        for tick in 0..64 {
            mon.tick();
            let frame = Arc::clone(mon.last_frame().expect("a tick publishes its frame"));
            if let Some(prev) = prev.filter(|p| p.keys == frame.keys) {
                assert!(frame.keys.same_buffer(&prev.keys), "tick {tick}: same keys, new buffer");
                steady += 1;
            }
            prev = Some(frame);
        }
        assert!(steady >= 40, "all but the bench tail's and self feed's ticks: {steady}");
        let counts: Vec<(&str, u32)> = writes.iter().map(|(n, c)| (n.as_str(), c.get())).collect();
        for (name, count) in &counts {
            match *name {
                // The read attribution follows the jobs; the self feed, its
                // instruments.
                "fs" | "self" => assert!(*count >= 1, "{name}"),
                "bb" => assert_eq!(*count, 0, "no burst buffer, no set"),
                _ => assert_eq!(*count, 1, "{name} declares once: {counts:?}"),
            }
        }
    }

    #[test]
    fn tick_collects_stores_and_reports() {
        let mut mon = quick_system();
        mon.submit_job(JobSpec::new(
            AppProfile::compute_heavy("stencil"),
            "alice",
            16,
            30 * 60_000,
            Ts::ZERO,
        ));
        let r = mon.tick();
        assert!(r.samples > 500, "full sweep: {}", r.samples);
        let stats = mon.store().stats();
        assert!(stats.series > 500);
        // Collected samples plus the 2 per-tick analysis-result samples
        // stored alongside the raw data (Table I).
        assert_eq!(stats.hot_points + stats.warm_points, r.samples + 2);
        // Job-start log made it to the log store.
        assert!(!mon.log_store().is_empty());
    }

    #[test]
    fn run_summary_accumulates() {
        let mut mon = quick_system();
        let s = mon.run_ticks(5);
        assert_eq!(s.ticks, 5);
        assert!(s.samples > 2_000);
    }

    #[test]
    fn node_crash_produces_critical_signal_and_page() {
        let mut mon = quick_system();
        mon.schedule_fault(Ts::from_mins(2), FaultKind::NodeCrash { node: 7 });
        mon.run_ticks(4);
        assert!(mon
            .signals()
            .iter()
            .any(|s| s.kind == SignalKind::LogCorrelation && s.severity == Severity::Critical));
        assert!(!mon.response_alerts("ops-pager").is_empty());
        // Health-check failure signal also emitted and the node sidelined.
        assert!(mon.signals().iter().any(|s| s.kind == SignalKind::HealthCheckFailure));
        assert!(mon.engine().scheduler().out_of_service().contains(&7));
    }

    #[test]
    fn gas_spike_raises_environment_signal() {
        let mut mon = quick_system();
        mon.schedule_fault(
            Ts::from_mins(1),
            FaultKind::GasSpike { added_ppb: 50.0, duration_ms: 3_600_000 },
        );
        mon.run_ticks(3);
        assert!(mon.signals().iter().any(|s| s.kind == SignalKind::EnvironmentViolation));
    }

    #[test]
    fn attached_detector_fires_on_ost_degradation() {
        let mut mon = MonitoringSystem::builder(SimConfig::small())
            .attach_detector(DetectorAttachment::new(
                SeriesKey::new(
                    StdMetrics::register(&MetricRegistry::new()).probe_ost_latency,
                    CompId::ost(3),
                ),
                Box::new(ZScoreDetector::new(32, 6.0).with_sigma_floor(0.05)),
                SignalKind::MetricAnomaly,
                Severity::Error,
                "OST latency anomaly",
            ))
            .build();
        // Re-registering against a fresh registry yields the same ids as
        // the system's own registry because registration order is fixed.
        mon.run_ticks(15);
        mon.schedule_fault(Ts::from_mins(16), FaultKind::OstDegrade { ost: 3, factor: 12.0 });
        mon.run_ticks(5);
        assert!(
            mon.signals().iter().any(|s| s.kind == SignalKind::MetricAnomaly),
            "detector saw the degradation"
        );
    }

    #[test]
    fn access_policy_scopes_user_view() {
        let mut mon = quick_system();
        mon.schedule_fault(Ts::from_mins(2), FaultKind::NodeCrash { node: 7 });
        mon.run_ticks(4);
        let admin = Consumer::admin("ops");
        let user = Consumer::user("portal", "nobody");
        assert!(mon.signals_for(&admin).len() >= mon.signals_for(&user).len());
    }

    #[test]
    fn transport_path_is_lossless_for_store() {
        let mut mon = quick_system();
        mon.run_ticks(10);
        let stats = mon.broker().stats();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.published as usize, 10 + mon.log_store().len());
    }

    #[test]
    fn status_board_reflects_faults() {
        let mut mon = quick_system();
        mon.schedule_fault(Ts::from_mins(1), FaultKind::NodeCrash { node: 0 });
        mon.schedule_fault(Ts::from_mins(1), FaultKind::NodeHang { node: 1 });
        mon.schedule_fault(Ts::from_mins(1), FaultKind::LinkDown { link: 2 });
        mon.schedule_fault(Ts::from_mins(1), FaultKind::OstDegrade { ost: 3, factor: 2.0 });
        mon.run_ticks(2);
        let text = mon.status_board().render();
        assert!(text.contains("down=1"), "{text}");
        assert!(text.contains("hung=1"));
        assert!(text.contains("degraded=1"));
        assert!(text.contains("GPUs"));
        let board = mon.status_board();
        assert!(board.worst().is_some());
    }

    #[test]
    fn wait_estimate_grows_with_backlog() {
        let mut mon = quick_system();
        assert_eq!(mon.estimate_wait_ms(64), Some(0));
        for _ in 0..8 {
            mon.submit_job(JobSpec::new(
                AppProfile::compute_heavy("big"),
                "u",
                128,
                30 * 60_000,
                Ts::ZERO,
            ));
        }
        mon.run_ticks(1);
        let wait = mon.estimate_wait_ms(64).expect("fits eventually");
        assert!(wait > 60 * 60_000, "deep backlog means a long wait: {wait}");
    }

    #[test]
    fn retention_archives_on_cadence() {
        let mut mon = MonitoringSystem::builder(SimConfig::small())
            .retention(
                hpcmon_store::RetentionPolicy {
                    keep_performant_ms: 10 * 60_000,
                    purge_after_ms: None,
                    rollup_bucket_ms: None,
                },
                10,
            )
            .build();
        mon.run_ticks(35);
        assert!(!mon.archive().catalog().is_empty(), "old data aged into the archive");
        // Archived data remains reachable via locate + reload.
        let seg = mon.archive().catalog()[0].segment;
        assert!(mon.archive().reload_into(seg, mon.store()));
    }

    #[test]
    fn power_cap_throttles_and_recovers() {
        // Full-machine compute load draws ~46 kW uncapped; cap at 30 kW.
        let mut mon = MonitoringSystem::builder(SimConfig::small())
            .power_cap_w(30_000.0)
            .bench_suite_every(None)
            .with_probes(false)
            .build();
        mon.submit_job(JobSpec::new(
            AppProfile::compute_heavy("vasp"),
            "u",
            128,
            60 * 60_000,
            Ts::ZERO,
        ));
        mon.run_ticks(30);
        // Controller throttled below full speed...
        assert!(mon.engine().pstate() < 1.0, "pstate {}", mon.engine().pstate());
        // ...and every throttle decision is a visible signal.
        assert!(mon.signals().iter().any(|s| s.detail.contains("power cap")));
        // Power is now at or under the cap (within one control step).
        let m = mon.metrics();
        let last_power = mon
            .query()
            .series(
                hpcmon_metrics::SeriesKey::new(m.system_power, CompId::SYSTEM),
                hpcmon_store::TimeRange::all(),
            )
            .last()
            .map(|&(_, v)| v)
            .unwrap();
        assert!(last_power < 33_000.0, "converged near cap: {last_power}");
        // When the job ends, the controller recovers toward full speed.
        mon.run_ticks(80);
        assert!(mon.engine().pstate() > 0.9, "recovered: {}", mon.engine().pstate());
    }

    #[test]
    fn cabinet_column_is_in_component_order_wherever_the_samples_sit() {
        let cab = MetricId(5);
        let sorted_scan = |frame: &ColumnFrame| {
            let mut cabs: Vec<(u32, f64)> =
                frame.of_metric(cab).map(|s| (s.key.comp.index, s.value)).collect();
            cabs.sort_by_key(|&(i, _)| i);
            cabs.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
        };
        // (cabinet indices in emission order, the column is a borrowed slice)
        let cases: [(&[u32], bool); 5] = [
            (&[0, 1, 2, 3], true),
            (&[], false),
            (&[2, 0, 3, 1], false),
            // A second collector reporting the same cabinets again: two
            // runs, ties kept in emission order.
            (&[0, 1, 2, 9, 0, 1, 2], false),
            (&[4], true),
        ];
        for (indices, borrowed) in cases {
            let mut arena = FrameArena::new();
            let mut frame = arena.take_current(Ts(60_000));
            frame.push(MetricId(1), CompId::node(0), 1.0);
            for (i, &index) in indices.iter().enumerate() {
                if index == 9 {
                    frame.push(MetricId(2), CompId::SYSTEM, -1.0);
                } else {
                    frame.push(cab, CompId::cabinet(index), 100.0 * index as f64 + i as f64);
                }
            }
            let frame = arena.publish(frame);
            let column = cabinet_column(&frame, arena.layout(), cab);
            assert_eq!(*column, *sorted_scan(&frame), "{indices:?}");
            assert_eq!(matches!(column, Cow::Borrowed(_)), borrowed, "{indices:?}");
        }
    }

    #[test]
    fn analysis_results_are_stored_with_raw_data() {
        let mut mon = quick_system();
        mon.schedule_fault(Ts::from_mins(2), FaultKind::NodeCrash { node: 7 });
        mon.run_ticks(5);
        // Per-tick result counts are ordinary series...
        let m = mon.metrics();
        let series = mon.query().series(
            hpcmon_metrics::SeriesKey::new(m.analysis_signals, CompId::SYSTEM),
            hpcmon_store::TimeRange::all(),
        );
        assert_eq!(series.len(), 5);
        assert!(series.iter().any(|&(_, v)| v > 0.0), "the crash produced signals");
        // ...and each signal is a searchable log record next to raw logs.
        let hits =
            mon.log_store().search(&hpcmon_store::LogQuery::default().with_source("analysis"));
        assert_eq!(hits.len() as u64, series.iter().map(|&(_, v)| v as u64).sum::<u64>());
    }

    #[test]
    fn late_arriving_collector_gets_deadman_coverage() {
        // Regression: a collector whose FIRST contribution lands after
        // tick 1 must still be registered with the deadman (the old
        // `deadman_armed` latch only allowed registration on the first
        // tick), so its later silence surfaces as MonitoringGap.
        use hpcmon_metrics::Unit;
        struct LateCollector {
            id: hpcmon_metrics::MetricId,
        }
        impl Collector for LateCollector {
            fn name(&self) -> &str {
                "late-feed"
            }
            fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
                // Silent on ticks 1-2, alive on 3-6, then dead.
                if (3..=6).contains(&engine.tick_count()) {
                    frame.push(self.id, CompId::SYSTEM, 1.0);
                }
            }
        }
        let builder = MonitoringSystem::builder(SimConfig::small());
        let id = builder.registry().register("late.feed", Unit::Count, "regression feed");
        let mut mon = builder.install_collector(Box::new(LateCollector { id })).build();
        mon.run_ticks(2);
        assert!(
            !mon.signals().iter().any(|s| s.detail.contains("late-feed")),
            "a feed that has never contributed is not yet expected"
        );
        mon.run_ticks(10);
        assert!(
            mon.signals()
                .iter()
                .any(|s| s.kind == SignalKind::MonitoringGap && s.detail.contains("late-feed")),
            "silence after a late first contribution must surface as MonitoringGap"
        );
    }

    #[test]
    fn a_collector_panic_is_quarantined_not_propagated() {
        // A default build, no chaos plan: a real collector panic on ticks
        // 5–7 must not end the tick.  Its partial segments are discarded,
        // the gap is reported, and the backoff probe re-admits it.
        use hpcmon_metrics::Unit;
        struct Flaky {
            id: MetricId,
        }
        impl Collector for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn collect(&mut self, engine: &SimEngine, frame: &mut ColumnFrame) {
                let tick = engine.tick_count();
                frame.push(self.id, CompId::SYSTEM, tick as f64);
                assert!(!(5..=7).contains(&tick), "collector exploded");
            }
        }
        let builder = MonitoringSystem::builder(SimConfig::small());
        let id = builder.registry().register("flaky.feed", Unit::Count, "panics on ticks 5-7");
        let mut mon = builder.install_collector(Box::new(Flaky { id })).build();
        let mut gap_by_7 = false;
        for tick in 1..=20u64 {
            let report = mon.tick();
            gap_by_7 |= tick <= 7
                && report
                    .signals
                    .iter()
                    .any(|s| s.kind == SignalKind::MonitoringGap && s.detail.contains("flaky"));
        }
        assert!(gap_by_7, "the panicking collector surfaced as MonitoringGap by tick 7");
        let stored: Vec<u64> = mon
            .query()
            .series(SeriesKey::new(id, CompId::SYSTEM), hpcmon_store::TimeRange::all())
            .into_iter()
            .map(|(ts, _)| ts.0 / 60_000)
            .collect();
        assert!(!stored.iter().any(|t| (5..=7).contains(t)), "no points for ticks 5-7: {stored:?}");
        assert!(stored.contains(&4) && stored.contains(&20), "stored around the gap: {stored:?}");
        assert_eq!(mon.quarantined_collectors(), 0, "the probe re-admitted it");
        assert_eq!(mon.last_coverage().unwrap().pct(), 100.0);
    }

    #[test]
    fn silencing_a_collector_keeps_the_power_gate_on_the_power_slot() {
        // `node` registers before `power`: silencing it moves `power` down
        // a slot, and the gate must follow, or a hung power collector reads
        // as "0 W, full headroom" and the p-state climbs.
        use hpcmon_chaos::{ChaosFault, ScheduledFault};
        let hang = ScheduledFault {
            at_tick: 25,
            fault: ChaosFault::CollectorHang { collector: "power".into(), ticks: 4 },
        };
        let mut mon = MonitoringSystem::builder(SimConfig::small())
            .power_cap_w(30_000.0)
            .bench_suite_every(None)
            .with_probes(false)
            .chaos(1, ChaosPlan::from_faults(vec![hang]))
            .build();
        mon.submit_job(JobSpec::new(
            AppProfile::compute_heavy("vasp"),
            "u",
            128,
            60 * 60_000,
            Ts::ZERO,
        ));
        mon.run_ticks(20);
        assert!(mon.silence_collector("node"));
        mon.run_ticks(4);
        let held = mon.engine().pstate();
        assert!(held < 1.0, "the cap throttled before the hang: {held}");
        for tick in 25..=28 {
            mon.tick();
            assert_eq!(mon.engine().pstate(), held, "p-state moved at tick {tick}");
        }
    }

    #[test]
    fn disabling_probes_and_the_bench_suite_collects_less() {
        let mut lean = MonitoringSystem::builder(SimConfig::small())
            .with_probes(false)
            .bench_suite_every(None)
            .build();
        let mut full = MonitoringSystem::builder(SimConfig::small()).build();
        assert!(lean.run_ticks(10).samples < full.run_ticks(10).samples);
    }

    #[test]
    fn determinism_end_to_end() {
        let run = || {
            let mut mon = quick_system();
            mon.submit_job(JobSpec::new(
                AppProfile::checkpointing("climate"),
                "bob",
                32,
                40 * 60_000,
                Ts::ZERO,
            ));
            mon.schedule_fault(Ts::from_mins(5), FaultKind::NodeHang { node: 3 });
            let s = mon.run_ticks(20);
            (s, mon.signals().len(), mon.store().stats().warm_points)
        };
        assert_eq!(run(), run());
    }
}
