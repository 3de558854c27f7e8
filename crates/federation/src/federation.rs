//! The federation head: lockstep site stepping, WAN rollup delivery, and
//! the scatter-gather query plane.
//!
//! # Determinism
//!
//! Everything the federation emits is a pure function of the member
//! configs, their seeds, and the WAN fault plan:
//!
//! * Sites step in **tick lockstep**, in fixed site order; each member
//!   pipeline is itself deterministic.
//! * WAN behavior is denominated in ticks and driven by the seeded
//!   [`ChaosEngine`]; there are no wall-clock decisions on the data path.
//! * Scatter uses the gateway's plan-level entry point
//!   ([`hpcmon_gateway::Gateway::plan_query`]), which bypasses the
//!   wall-clock admission gate; deadline shedding is decided from simulated
//!   link RTT *before* the member query runs.
//! * Merges sort by value with `(site index, component)` tie-breaks and
//!   align all timestamps to federation time, so the same seed + plan
//!   yield bit-identical federated answers on every run.

use crate::config::FederationConfig;
use crate::scatter::{
    merge_points, merge_ranked, FedQueryResult, FedResponse, SiteOutcome, SiteStatus,
};
use crate::wan::WanLink;
use bytes::Bytes;
use hpcmon::system::MonitoringSystem;
use hpcmon_chaos::{ChaosEngine, WanInjectedCounts};
use hpcmon_gateway::{QueryRequest, QueryResponse};
use hpcmon_health::{AlertEvent, FeedValue, HealthConfig, HealthEngine, HealthReport};
use hpcmon_metrics::{ColumnFrame, CompId, CompKind, MetricId, MetricRegistry, Ts, Unit};
use hpcmon_response::Consumer;
use hpcmon_store::{JobSeries, QueryEngine, TimeRange, TimeSeriesStore};
use hpcmon_telemetry::{Counter, Telemetry};
use hpcmon_trace::{DropReason, Sampler, Stage, TraceStore, Tracer};
use hpcmon_transport::{topics, BackpressurePolicy, Broker, Payload, Subscription, TopicFilter};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Metric ids of the federation-level rollup and self-telemetry series,
/// registered on the federation's own registry in fixed order.
#[derive(Debug, Clone, Copy)]
pub struct FedMetricIds {
    /// Per-site (and federation-total) power draw.
    pub power_w: MetricId,
    /// Per-site mean CPU utilization.
    pub cpu_util: MetricId,
    /// Per-site batch-queue depth.
    pub queue_depth: MetricId,
    /// Per-site running jobs.
    pub running_jobs: MetricId,
    /// Samples the site's last frame carried.
    pub samples: MetricId,
    /// Signals the site's last tick emitted.
    pub signals: MetricId,
    /// Cumulative sites shed from scatters on deadline.
    pub self_deadline_shed: MetricId,
    /// Cumulative rollup batches lost to WAN backlog overflow.
    pub self_wan_dropped: MetricId,
    /// Cumulative rollup batches delivered across all links.
    pub self_rollups_delivered: MetricId,
    /// WAN links partitioned this tick.
    pub self_partitioned_links: MetricId,
    /// Cumulative federated scatter queries served.
    pub self_scatter_queries: MetricId,
    /// Per-link rollup batches queued behind latency/partition/bandwidth.
    pub wan_backlog_depth: MetricId,
    /// Per-link rollup batches evicted on backlog overflow (cumulative).
    pub wan_link_dropped: MetricId,
    /// Per-link effective one-way latency this tick (base + chaos delay).
    pub wan_latency_ticks: MetricId,
}

impl FedMetricIds {
    fn register(reg: &MetricRegistry) -> FedMetricIds {
        FedMetricIds {
            power_w: reg.register("hpcmon.fed.power_w", Unit::Watts, "site total power draw"),
            cpu_util: reg.register("hpcmon.fed.cpu_util", Unit::Ratio, "site mean CPU utilization"),
            queue_depth: reg.register("hpcmon.fed.queue_depth", Unit::Count, "site queue depth"),
            running_jobs: reg.register("hpcmon.fed.running_jobs", Unit::Count, "site running jobs"),
            samples: reg.register("hpcmon.fed.samples", Unit::Count, "samples in the site frame"),
            signals: reg.register("hpcmon.fed.signals", Unit::Count, "signals the site emitted"),
            self_deadline_shed: reg.register(
                "hpcmon.self.fed.deadline_shed",
                Unit::Count,
                "sites shed from scatters on deadline (cumulative)",
            ),
            self_wan_dropped: reg.register(
                "hpcmon.self.fed.wan_dropped",
                Unit::Count,
                "rollup batches lost to WAN backlog overflow (cumulative)",
            ),
            self_rollups_delivered: reg.register(
                "hpcmon.self.fed.rollups_delivered",
                Unit::Count,
                "rollup batches delivered (cumulative)",
            ),
            self_partitioned_links: reg.register(
                "hpcmon.self.fed.partitioned_links",
                Unit::Count,
                "WAN links partitioned this tick",
            ),
            self_scatter_queries: reg.register(
                "hpcmon.self.fed.scatter_queries",
                Unit::Count,
                "federated scatter queries served (cumulative)",
            ),
            wan_backlog_depth: reg.register(
                "hpcmon.self.fed.wan.backlog_depth",
                Unit::Count,
                "rollup batches queued on the site's WAN link",
            ),
            wan_link_dropped: reg.register(
                "hpcmon.self.fed.wan.dropped",
                Unit::Count,
                "rollup batches this link evicted on overflow (cumulative)",
            ),
            wan_latency_ticks: reg.register(
                "hpcmon.self.fed.wan.latency_ticks",
                Unit::Count,
                "effective one-way link latency this tick, base + chaos delay",
            ),
        }
    }
}

/// The last rollup values delivered from one site (fed-total inputs).
#[derive(Debug, Clone, Copy)]
struct SiteRollup {
    power: f64,
    cpu: f64,
    queue: f64,
    running: f64,
}

struct MemberSite {
    name: String,
    epoch_offset_ms: u64,
    system: MonitoringSystem,
    link: WanLink,
    last_signals: usize,
}

/// `N` member monitoring systems joined by simulated WAN links, with a
/// hierarchical rollup plane and a scatter-gather query planner on top.
pub struct Federation {
    sites: Vec<MemberSite>,
    chaos: ChaosEngine,
    tick: u64,
    tick_ms: u64,
    registry: MetricRegistry,
    ids: FedMetricIds,
    broker: Arc<Broker>,
    store: Arc<TimeSeriesStore>,
    rollup_sub: Subscription,
    c_scatter: Arc<Counter>,
    c_shed: Arc<Counter>,
    c_wan_dropped: Arc<Counter>,
    c_rollups: Arc<Counter>,
    tracer: Arc<Tracer>,
    traces: TraceStore,
    latest: Vec<Option<SiteRollup>>,
    partitioned_now: usize,
    partitioned_sites: Vec<bool>,
    last_link_dropped: Vec<u64>,
    health: Option<HealthEngine>,
    seq: u64,
}

/// The comp id a member site's rollup series live under: `System/i+1`
/// (index 0 — [`CompId::SYSTEM`] — is the federation total itself).
pub fn site_comp(site_index: usize) -> CompId {
    CompId { kind: CompKind::System, index: site_index as u32 + 1 }
}

impl Federation {
    /// Build the federation: every member system is constructed (with its
    /// gateway and clock-skew epoch), links start quiet,
    /// and the WAN fault plan is armed.
    ///
    /// # Panics
    /// On an empty site list, duplicate site names, or members that
    /// disagree on `tick_ms` (lockstep needs one tick length).
    pub fn new(config: FederationConfig) -> Federation {
        assert!(!config.sites.is_empty(), "a federation needs at least one member site");
        let names: BTreeSet<&str> = config.sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), config.sites.len(), "duplicate site names");
        let tick_ms = config.sites[0].config.tick_ms;
        assert!(
            config.sites.iter().all(|s| s.config.tick_ms == tick_ms),
            "member sites must share tick_ms"
        );
        let sites: Vec<MemberSite> = config
            .sites
            .into_iter()
            .map(|spec| {
                let system = MonitoringSystem::builder(spec.config)
                    .self_telemetry(spec.self_telemetry)
                    .gateway(spec.gateway)
                    .clock_epoch_offset_ticks(spec.epoch_offset_ticks)
                    .build();
                MemberSite {
                    name: spec.name,
                    epoch_offset_ms: spec.epoch_offset_ticks * tick_ms,
                    system,
                    link: WanLink::new(spec.link),
                    last_signals: 0,
                }
            })
            .collect();
        let registry = MetricRegistry::new();
        let ids = FedMetricIds::register(&registry);
        let broker = Broker::new();
        let store = Arc::new(TimeSeriesStore::new());
        let rollup_sub = broker.subscribe(
            TopicFilter::new(&format!("{}/#", topics::FED)),
            4_096,
            BackpressurePolicy::Block,
        );
        let telemetry = Telemetry::new();
        let c_scatter = telemetry.counter("fed.scatter.queries");
        let c_shed = telemetry.counter("fed.scatter.deadline_shed");
        let c_wan_dropped = telemetry.counter("fed.wan.dropped");
        let c_rollups = telemetry.counter("fed.wan.rollups_delivered");
        let latest = vec![None; sites.len()];
        let health = config.health.then(|| {
            let names: Vec<String> = sites.iter().map(|s| s.name.clone()).collect();
            HealthEngine::new(HealthConfig::federation(&names))
        });
        let num_sites = sites.len();
        Federation {
            sites,
            chaos: ChaosEngine::new(config.seed, config.link_plan),
            tick: 0,
            tick_ms,
            registry,
            ids,
            broker,
            store,
            rollup_sub,
            c_scatter,
            c_shed,
            c_wan_dropped,
            c_rollups,
            tracer: Arc::new(Tracer::new(Sampler::one_in(16))),
            traces: TraceStore::new(256),
            latest,
            partitioned_now: 0,
            partitioned_sites: vec![false; num_sites],
            last_link_dropped: vec![0; num_sites],
            health,
            seq: 0,
        }
    }

    /// Advance the whole federation one tick: WAN faults activate, every
    /// member steps in lockstep, rollup batches cross the links, delivered
    /// batches land in the federation store, and the fed-total +
    /// self-telemetry series update.
    pub fn tick(&mut self) {
        self.tick += 1;
        let tick = self.tick;
        self.chaos.begin_tick(tick);

        // 1. Lockstep: every member advances one tick, in site order.
        for site in &mut self.sites {
            let report = site.system.tick();
            site.last_signals = report.signals.len();
        }

        // 2. Rollup: one O(1)-series batch per site, stamped in federation
        //    time (site-local timestamp minus the site's skew), enqueued
        //    onto the WAN link.
        for (i, site) in self.sites.iter_mut().enumerate() {
            let Some(frame) = site.system.last_frame() else { continue };
            let m = site.system.metrics();
            let comp = site_comp(i);
            let fed_ts = frame.ts.sub_ms(site.epoch_offset_ms);
            // Each metric's values where the site's layout says they sit,
            // in frame order: the same sums a scan of the frame would give.
            let layout = site.system.frame_layout();
            let values = |metric| layout.positions_of(metric).map(|p| frame.values[p]);
            let mean = |metric| {
                let (n, sum) = values(metric).fold((0usize, 0.0), |(n, sum), v| (n + 1, sum + v));
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            };
            let mut rollup = ColumnFrame::new(fed_ts);
            rollup.push(self.ids.power_w, comp, values(m.system_power).sum());
            rollup.push(self.ids.cpu_util, comp, mean(m.node_cpu));
            rollup.push(self.ids.queue_depth, comp, values(m.queue_depth).sum());
            rollup.push(self.ids.running_jobs, comp, values(m.running_jobs).sum());
            rollup.push(self.ids.samples, comp, frame.len() as f64);
            rollup.push(self.ids.signals, comp, site.last_signals as f64);
            let added = self.chaos.wan_added_latency_ticks(&site.name);
            if let Some(evicted) = site.link.enqueue(tick, added, Arc::new(rollup)) {
                self.c_wan_dropped.inc();
                self.seq += 1;
                if let Some(ctx) = self.tracer.context_for(self.seq) {
                    self.tracer.record_drop(
                        &ctx,
                        Stage::Federation,
                        DropReason::WanBacklogOverflow,
                        &format!("{}: rollup@{}", site.name, evicted.frame.ts.0),
                    );
                }
            }
        }

        // 3. Delivery: due batches cross each link unless it is
        //    partitioned, metered by the effective bandwidth cap; the
        //    latest delivered values feed the fed totals.
        self.partitioned_now = 0;
        for (i, site) in self.sites.iter_mut().enumerate() {
            let partitioned = self.chaos.wan_partitioned(&site.name);
            self.partitioned_sites[i] = partitioned;
            if partitioned {
                self.partitioned_now += 1;
            }
            let cap = self.chaos.wan_bandwidth_cap(&site.name);
            for batch in site.link.deliver_due(tick, partitioned, cap) {
                self.c_rollups.inc();
                let value =
                    |id: MetricId| batch.frame.of_metric(id).next().map_or(0.0, |s| s.value);
                self.latest[i] = Some(SiteRollup {
                    power: value(self.ids.power_w),
                    cpu: value(self.ids.cpu_util),
                    queue: value(self.ids.queue_depth),
                    running: value(self.ids.running_jobs),
                });
                self.broker.publish(&topics::fed_rollup(&site.name), Payload::Columns(batch.frame));
            }
        }

        // 4. Fed totals + self telemetry, in federation time.  Totals sum
        //    the latest *delivered* value per site — a partitioned site
        //    contributes its last-known state, exactly like a real
        //    dashboard fed by a stalled link.
        let now = Ts(tick * self.tick_ms);
        let mut totals = ColumnFrame::new(now);
        let delivered: Vec<SiteRollup> = self.latest.iter().flatten().copied().collect();
        let power: f64 = delivered.iter().map(|r| r.power).sum();
        let queue: f64 = delivered.iter().map(|r| r.queue).sum();
        let running: f64 = delivered.iter().map(|r| r.running).sum();
        let cpu = if delivered.is_empty() {
            0.0
        } else {
            delivered.iter().map(|r| r.cpu).sum::<f64>() / delivered.len() as f64
        };
        totals.push(self.ids.power_w, CompId::SYSTEM, power);
        totals.push(self.ids.cpu_util, CompId::SYSTEM, cpu);
        totals.push(self.ids.queue_depth, CompId::SYSTEM, queue);
        totals.push(self.ids.running_jobs, CompId::SYSTEM, running);
        totals.push(self.ids.self_deadline_shed, CompId::SYSTEM, self.c_shed.get() as f64);
        totals.push(self.ids.self_wan_dropped, CompId::SYSTEM, self.c_wan_dropped.get() as f64);
        totals.push(self.ids.self_rollups_delivered, CompId::SYSTEM, self.c_rollups.get() as f64);
        totals.push(self.ids.self_partitioned_links, CompId::SYSTEM, self.partitioned_now as f64);
        totals.push(self.ids.self_scatter_queries, CompId::SYSTEM, self.c_scatter.get() as f64);
        // Per-link WAN state, one gauge set per site: the link is part of
        // the monitoring system, so it gets monitored like everything else.
        for (i, site) in self.sites.iter().enumerate() {
            let comp = site_comp(i);
            let latency =
                site.link.latency_ticks() + self.chaos.wan_added_latency_ticks(&site.name);
            totals.push(self.ids.wan_backlog_depth, comp, site.link.backlog_len() as f64);
            totals.push(self.ids.wan_link_dropped, comp, site.link.dropped() as f64);
            totals.push(self.ids.wan_latency_ticks, comp, latency as f64);
        }
        self.broker.publish(&topics::fed_rollup("_total"), Payload::Columns(Arc::new(totals)));

        // 4b. Head-level health: one WAN-delivery feed per site.  A
        //     partitioned tick is one bad event; rollups evicted on
        //     overflow this tick add more.  All inputs are tick-keyed
        //     chaos/link state, so the alert timeline is deterministic.
        if let Some(health) = &mut self.health {
            let mut feeds: Vec<(String, FeedValue)> = Vec::new();
            for (i, site) in self.sites.iter().enumerate() {
                let dropped = site.link.dropped();
                let drop_delta = dropped - self.last_link_dropped[i];
                self.last_link_dropped[i] = dropped;
                let partitioned = self.partitioned_sites[i];
                feeds.push((
                    format!("fed.wan.{}", site.name),
                    FeedValue::Tick {
                        good: if partitioned { 0.0 } else { 1.0 },
                        bad: u64::from(partitioned) as f64 + drop_delta as f64,
                    },
                ));
            }
            let feeds: Vec<(&str, FeedValue)> =
                feeds.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let events = health.observe_tick(tick, &feeds, &|_| 0);
            for ev in events.iter().filter(|ev| !ev.silenced) {
                let bytes = serde_json::to_vec(ev).expect("AlertEvent serializes");
                self.broker.publish(&topics::health_alerts(), Payload::Raw(Bytes::from(bytes)));
            }
        }

        // 5. Ingest everything that arrived on the fed plane this tick.
        for env in self.rollup_sub.drain() {
            if let Payload::Columns(frame) = env.payload {
                // A handful of samples per frame: not worth a cached route.
                for s in frame.iter() {
                    self.store.insert(&s);
                }
            }
        }

        // 6. Trace assembly.
        self.traces.ingest(self.tracer.drain());
    }

    /// Run `n` federation ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Scatter `request` to every member gateway under `consumer`'s scope,
    /// with a total deadline budget in **ticks**.  Per site: a partitioned
    /// link yields [`SiteStatus::Partitioned`]; a simulated round trip
    /// (2 × effective one-way latency) that exhausts the budget sheds the
    /// site *before* querying it ([`SiteStatus::TimedOut`], counted on
    /// `hpcmon.self.fed.deadline_shed`); otherwise the member gateway
    /// evaluates inline and the response's timestamps are re-aligned from
    /// site-local to federation time.  The result carries provenance for
    /// every site — partial answers name exactly who is missing and why.
    pub fn federated_query(
        &mut self,
        consumer: &Consumer,
        request: &QueryRequest,
        deadline_ticks: u64,
    ) -> FedQueryResult {
        self.c_scatter.inc();
        let mut outcomes = Vec::with_capacity(self.sites.len());
        let mut answered: Vec<(String, QueryResponse)> = Vec::new();
        for site in &self.sites {
            self.seq += 1;
            let ctx = self.tracer.context_for(self.seq);
            if self.chaos.wan_partitioned(&site.name) {
                if let Some(ctx) = &ctx {
                    self.tracer.record_drop(
                        &ctx.clone(),
                        Stage::Federation,
                        DropReason::WanPartition,
                        &format!("{}: scatter", site.name),
                    );
                }
                outcomes
                    .push(SiteOutcome { site: site.name.clone(), status: SiteStatus::Partitioned });
                continue;
            }
            let one_way =
                site.link.latency_ticks() + self.chaos.wan_added_latency_ticks(&site.name);
            let rtt = 2 * one_way;
            if rtt >= deadline_ticks {
                self.c_shed.inc();
                if let Some(ctx) = &ctx {
                    self.tracer.record_drop(
                        ctx,
                        Stage::Federation,
                        DropReason::DeadlineShed,
                        &format!("{}: rtt {rtt} >= budget {deadline_ticks}", site.name),
                    );
                }
                outcomes.push(SiteOutcome {
                    site: site.name.clone(),
                    status: SiteStatus::TimedOut { rtt_ticks: rtt, budget_ticks: deadline_ticks },
                });
                continue;
            }
            let gateway = site.system.gateway().expect("member sites always run a gateway");
            let site_request = shift_request(request, site.epoch_offset_ms);
            match gateway.plan_query(consumer, &site_request) {
                Ok(resp) => {
                    answered.push((site.name.clone(), shift_response(resp, site.epoch_offset_ms)));
                    outcomes.push(SiteOutcome {
                        site: site.name.clone(),
                        status: SiteStatus::Answered,
                    });
                }
                Err(e) => outcomes
                    .push(SiteOutcome { site: site.name.clone(), status: SiteStatus::Failed(e) }),
            }
        }
        let merged = match request {
            QueryRequest::AggregateAcross { agg, .. } => {
                FedResponse::Points(merge_points(&answered, *agg))
            }
            QueryRequest::TopComponentsAt { limit, .. } => {
                FedResponse::Ranked(merge_ranked(&answered, *limit))
            }
            _ => FedResponse::PerSite(answered),
        };
        FedQueryResult { merged, outcomes }
    }

    // ----- accessors -----

    /// Federation ticks run so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Milliseconds of simulated time per tick.
    pub fn tick_ms(&self) -> u64 {
        self.tick_ms
    }

    /// Number of member sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// A member's monitoring system, by site index.
    pub fn site_system(&self, index: usize) -> &MonitoringSystem {
        &self.sites[index].system
    }

    /// Mutable access to a member's monitoring system (job submission,
    /// fault scheduling).
    pub fn site_system_mut(&mut self, index: usize) -> &mut MonitoringSystem {
        &mut self.sites[index].system
    }

    /// The federation-level rollup store (`hpcmon.fed.*` and
    /// `hpcmon.self.fed.*` series — O(sites) of them, not O(nodes)).
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// A query engine over the rollup store.
    pub fn rollup_query(&self) -> QueryEngine<'_> {
        QueryEngine::new(&self.store)
    }

    /// Metric ids of the federation rollup and self series.
    pub fn metric_ids(&self) -> FedMetricIds {
        self.ids
    }

    /// Federation-plane traces (rollup drops, scatter sheds).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// The head-level health report (per-site WAN rollup grades), when
    /// the health plane is enabled.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|h| h.report(self.tick))
    }

    /// Alert transitions recorded at the head (empty when health is off).
    pub fn alert_events(&self) -> &[AlertEvent] {
        self.health.as_ref().map_or(&[], |h| h.events())
    }

    /// Canonical alert timeline at the head (see
    /// [`HealthEngine::canonical_timeline`]); empty when health is off.
    pub fn health_timeline(&self) -> String {
        self.health.as_ref().map_or_else(String::new, |h| h.canonical_timeline())
    }

    /// Per-kind WAN fault windows activated so far.
    pub fn wan_counts(&self) -> WanInjectedCounts {
        self.chaos.wan_counts()
    }

    /// Rollup batches lost to backlog overflow, across all links.
    pub fn wan_dropped(&self) -> u64 {
        self.c_wan_dropped.get()
    }

    /// Rollup batches delivered, across all links.
    pub fn rollups_delivered(&self) -> u64 {
        self.c_rollups.get()
    }

    /// Sites shed from scatters on deadline so far.
    pub fn deadline_shed(&self) -> u64 {
        self.c_shed.get()
    }

    /// Canonical form of the federation store for bit-identity diffing:
    /// series sorted by name, every value as raw f64 bits.
    pub fn canonical_store(&self) -> Vec<(String, Vec<(u64, u64)>)> {
        let mut out: Vec<(String, Vec<(u64, u64)>)> = self
            .store
            .all_series()
            .into_iter()
            .map(|key| {
                let name = format!(
                    "{}/{}/{}",
                    self.registry.name(key.metric),
                    key.comp.kind.label(),
                    key.comp.index
                );
                let points = self
                    .store
                    .query(key, Ts::ZERO, Ts(u64::MAX))
                    .into_iter()
                    .map(|(t, v)| (t.0, v.to_bits()))
                    .collect();
                (name, points)
            })
            .collect();
        out.sort();
        out
    }
}

/// Translate a federation-time request into a site's local clock by adding
/// its skew offset to every timestamp parameter.
fn shift_request(request: &QueryRequest, offset_ms: u64) -> QueryRequest {
    if offset_ms == 0 {
        return request.clone();
    }
    let shift =
        |r: &TimeRange| TimeRange { from: r.from.add_ms(offset_ms), to: r.to.add_ms(offset_ms) };
    match request {
        QueryRequest::Series { key, range } => {
            QueryRequest::Series { key: *key, range: shift(range) }
        }
        QueryRequest::AggregateAcross { metric, range, agg } => {
            QueryRequest::AggregateAcross { metric: *metric, range: shift(range), agg: *agg }
        }
        QueryRequest::ComponentsOfKind { metric, kind, range } => {
            QueryRequest::ComponentsOfKind { metric: *metric, kind: *kind, range: shift(range) }
        }
        QueryRequest::TopComponentsAt { metric, at, tolerance_ms, limit } => {
            QueryRequest::TopComponentsAt {
                metric: *metric,
                at: at.add_ms(offset_ms),
                tolerance_ms: *tolerance_ms,
                limit: *limit,
            }
        }
        QueryRequest::Downsample { key, range, bucket_ms, agg } => QueryRequest::Downsample {
            key: *key,
            range: shift(range),
            bucket_ms: *bucket_ms,
            agg: *agg,
        },
        QueryRequest::AlignJoin { a, b, range } => {
            QueryRequest::AlignJoin { a: *a, b: *b, range: shift(range) }
        }
        QueryRequest::JobSeries { job_id, metric } => {
            QueryRequest::JobSeries { job_id: *job_id, metric: *metric }
        }
    }
}

/// Translate a site-local response back to federation time by subtracting
/// the site's skew offset from every timestamp — the merge layer never
/// interleaves raw site-local times.
fn shift_response(response: QueryResponse, offset_ms: u64) -> QueryResponse {
    if offset_ms == 0 {
        return response;
    }
    let shift_pts =
        |pts: Vec<(Ts, f64)>| pts.into_iter().map(|(t, v)| (t.sub_ms(offset_ms), v)).collect();
    match response {
        QueryResponse::Points(pts) => QueryResponse::Points(shift_pts(pts)),
        QueryResponse::Grouped(groups) => QueryResponse::Grouped(
            groups.into_iter().map(|(comp, pts)| (comp, shift_pts(pts))).collect(),
        ),
        QueryResponse::Ranked(rows) => QueryResponse::Ranked(rows),
        QueryResponse::Joined(rows) => QueryResponse::Joined(
            rows.into_iter().map(|(t, a, b)| (t.sub_ms(offset_ms), a, b)).collect(),
        ),
        QueryResponse::Job(job) => QueryResponse::Job(JobSeries {
            metric: job.metric,
            per_node: job.per_node.into_iter().map(|(comp, pts)| (comp, shift_pts(pts))).collect(),
            sum: shift_pts(job.sum),
            mean: shift_pts(job.mean),
        }),
    }
}
