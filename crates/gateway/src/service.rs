//! The gateway service: per-shard admission on the caller's thread,
//! scoped evaluation, result caching, and standing subscriptions.

use crate::admission::{Gate, Refused, TokenBuckets};
use crate::cache::{self, CacheStats, Extent, Lookup, ResultCache};
use crate::request::{QueryError, QueryRequest, QueryResponse, SubscriptionUpdate};
use bytes::Bytes;
use hpcmon_metrics::{CompId, JobRecord, MetricId, SeriesKey, Ts};
use hpcmon_response::access::{AccessPolicy, Consumer, Role};
use hpcmon_store::{AggFn, QueryEngine, TimeRange, TimeSeriesStore};
use hpcmon_telemetry::{Counter, Gauge, Histogram, Telemetry};
use hpcmon_trace::{DropReason, Stage, Tracer};
use hpcmon_transport::{Broker, Payload};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gateway sizing and policy knobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GatewayConfig {
    /// Admission shards; principals are hashed onto shards so one noisy
    /// consumer contends with itself first.
    pub shards: usize,
    /// Queries of one shard that evaluate at once (at least one).
    pub workers_per_shard: usize,
    /// Callers of one shard that may wait for an evaluation slot; any
    /// more are refused with `QueueFull`.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Default per-query deadline budget.
    pub default_deadline_ms: u64,
    /// Token-bucket capacity per principal (≤ 0 disables rate limiting).
    pub rate_limit_burst: f64,
    /// Token refill rate per principal, tokens/second.
    pub rate_limit_per_sec: f64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            shards: 2,
            workers_per_shard: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline_ms: 250,
            rate_limit_burst: 0.0,
            rate_limit_per_sec: 0.0,
        }
    }
}

/// Telemetry handles, registered once at construction (the self-collector
/// requires append-only instrument ordering).  All names are under
/// `gateway.`, so the self feed republishes them as `hpcmon.self.gateway.*`.
struct GatewayMetrics {
    queries: Arc<Counter>,
    cache_hits: Arc<Counter>,
    /// Lookups that went to the store: misses and extensions.
    cache_misses: Arc<Counter>,
    cache_hit_ratio: Arc<Gauge>,
    shed_rate_limited: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    denied_access: Arc<Counter>,
    eval: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    subs_active: Arc<Gauge>,
    subs_delivered: Arc<Counter>,
}

impl GatewayMetrics {
    fn new(t: &Telemetry) -> GatewayMetrics {
        GatewayMetrics {
            queries: t.counter("gateway.queries"),
            cache_hits: t.counter("gateway.cache.hits"),
            cache_misses: t.counter("gateway.cache.misses"),
            cache_hit_ratio: t.gauge("gateway.cache.hit_ratio"),
            shed_rate_limited: t.counter("gateway.shed.rate_limited"),
            shed_deadline: t.counter("gateway.shed.deadline"),
            shed_queue_full: t.counter("gateway.shed.queue_full"),
            denied_access: t.counter("gateway.denied.access"),
            eval: t.histogram("gateway.eval"),
            queue_depth: t.gauge("gateway.queue.depth"),
            subs_active: t.gauge("gateway.subscriptions.active"),
            subs_delivered: t.counter("gateway.subscriptions.delivered"),
        }
    }
}

/// Stable label for a request variant (span notes, shed provenance).
fn request_kind(request: &QueryRequest) -> &'static str {
    match request {
        QueryRequest::Series { .. } => "series",
        QueryRequest::AggregateAcross { .. } => "aggregate_across",
        QueryRequest::ComponentsOfKind { .. } => "components_of_kind",
        QueryRequest::TopComponentsAt { .. } => "top_components_at",
        QueryRequest::Downsample { .. } => "downsample",
        QueryRequest::AlignJoin { .. } => "align_join",
        QueryRequest::JobSeries { .. } => "job_series",
    }
}

/// Serializable image of the gateway's deterministic state, for flight-
/// recorder checkpoints: the scheduler job view with its scope-epoch
/// version, plus every standing subscription with its delivery state.
/// Admission gates, token buckets, and the result cache are
/// timing-dependent service plumbing and are deliberately excluded —
/// they never feed hash-verified state, and cached responses are
/// epoch-keyed so a rewound epoch re-derives identical answers.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GatewaySnapshot {
    /// The scheduler job view the scoping decisions run against.
    pub jobs: Vec<JobRecord>,
    /// Scope-epoch version of that view (bumped only on change).
    pub jobs_version: u64,
    /// Subscription id counter, so post-restore ids keep matching.
    pub next_sub_id: u64,
    /// Standing subscriptions.
    pub subs: Vec<SubscriptionSnapshot>,
}

/// One standing subscription as checkpointed in a [`GatewaySnapshot`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SubscriptionSnapshot {
    /// Id returned by [`Gateway::subscribe`].
    pub id: u64,
    /// The subscribing principal.
    pub consumer: Consumer,
    /// The standing request.
    pub request: QueryRequest,
    /// Broker topic updates are published on.
    pub topic: String,
    /// Incremental-delivery watermark (`Series` requests).
    pub watermark: Option<Ts>,
    /// Last delivered response (non-`Series` requests, delta detection).
    pub last: Option<QueryResponse>,
}

/// One standing subscription.
struct StandingSub {
    id: u64,
    consumer: Consumer,
    request: QueryRequest,
    topic: String,
    /// `Series` subscriptions deliver incrementally: only points newer than
    /// this watermark go out, and the watermark advances on delivery.
    watermark: Option<Ts>,
    /// Non-`Series` subscriptions re-evaluate fully and deliver on change.
    last: Option<QueryResponse>,
}

/// The query-serving frontend.
///
/// Constructed over shared handles to the store, broker, and telemetry
/// registry.  It starts no thread: a query evaluates on its caller's
/// thread once its principal's shard admits it.
pub struct Gateway {
    store: Arc<TimeSeriesStore>,
    broker: Arc<Broker>,
    policy: AccessPolicy,
    config: GatewayConfig,
    /// The scheduler's job view, swapped wholesale by [`Gateway::update_jobs`].
    jobs: RwLock<Arc<Vec<JobRecord>>>,
    /// Bumped when the job view *changes* (scope epoch for the cache).
    jobs_version: AtomicU64,
    cache: ResultCache,
    buckets: TokenBuckets,
    /// One admission gate per shard.
    gates: Vec<Gate>,
    subs: Mutex<Vec<StandingSub>>,
    next_sub_id: AtomicU64,
    metrics: GatewayMetrics,
    /// When set, each query gets a trace context: served queries record a
    /// `Gateway` span (sampled), sheds always record provenance.
    tracer: RwLock<Option<Arc<Tracer>>>,
    query_seq: AtomicU64,
}

impl Gateway {
    /// Build the gateway: one admission gate per shard.
    pub fn new(
        store: Arc<TimeSeriesStore>,
        broker: Arc<Broker>,
        telemetry: &Telemetry,
        config: GatewayConfig,
    ) -> Gateway {
        let gates = (0..config.shards.max(1))
            .map(|_| Gate::new(config.workers_per_shard, config.queue_capacity))
            .collect();
        Gateway {
            store,
            broker,
            policy: AccessPolicy,
            jobs: RwLock::new(Arc::new(Vec::new())),
            jobs_version: AtomicU64::new(0),
            cache: ResultCache::new(config.cache_capacity),
            buckets: TokenBuckets::new(config.rate_limit_burst, config.rate_limit_per_sec),
            gates,
            subs: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            metrics: GatewayMetrics::new(telemetry),
            tracer: RwLock::new(None),
            query_seq: AtomicU64::new(0),
            config,
        }
    }

    fn scope_tag(consumer: &Consumer) -> String {
        match &consumer.role {
            Role::Admin => "admin".to_owned(),
            Role::User(u) => format!("user:{u}"),
        }
    }

    /// Execute with caching, keyed on the scope fingerprint and the
    /// request (see [`cache::key`]): two consumers with the same *role
    /// scope* share entries (two admin dashboards hit each other's cache);
    /// different scopes never do.  Both store epochs and the job version
    /// are captured **before** evaluation, so a mutation racing the query
    /// conservatively invalidates the entry rather than ever validating a
    /// stale one.  An aggregate whose entry can be extended folds only the
    /// stamps after the entry's final ones.
    fn execute(
        &self,
        consumer: &Consumer,
        request: &QueryRequest,
        exemplar: u64,
    ) -> Result<Arc<QueryResponse>, QueryError> {
        let started = Instant::now();
        let (history, head) = self.store.history();
        let epoch = (self.store.epoch(), self.jobs_version.load(Ordering::Acquire));
        let (key, range) = cache::key(&Self::scope_tag(consumer), request);
        let lookup = self.cache.get(&key, epoch, range.map(|r| (r, history)));
        if let Lookup::Hit(hit) = lookup {
            self.metrics.cache_hits.inc();
            self.metrics.eval.record_ns_tagged(started.elapsed().as_nanos() as u64, exemplar);
            return Ok(hit);
        }
        self.metrics.cache_misses.inc();
        let jobs = self.jobs.read().clone();
        let result = match (lookup, request) {
            (
                Lookup::Extend { mut kept, from },
                &QueryRequest::AggregateAcross { metric, range, agg },
            ) => {
                if from <= range.to {
                    let rest = TimeRange { from, to: range.to };
                    kept.extend(self.aggregate(consumer, metric, rest, agg, &jobs));
                }
                Ok(QueryResponse::Points(kept))
            }
            _ => self.evaluate(consumer, request, &jobs),
        };
        self.metrics.eval.record_ns_tagged(started.elapsed().as_nanos() as u64, exemplar);
        let resp = Arc::new(result?);
        let extent = range.map(|range| Extent {
            range,
            history,
            closed: head.min(Ts(range.to.0.saturating_add(1))),
        });
        self.cache.put(key, epoch, extent, resp.clone());
        Ok(resp)
    }

    /// `agg` per stamp across the components of `metric` that `consumer`
    /// may see.  Admins get the machine-wide fold; users aggregate over
    /// their visible components only: the sum of "my nodes" is meaningful,
    /// the machine-wide total is need-to-know.
    fn aggregate(
        &self,
        consumer: &Consumer,
        metric: MetricId,
        range: TimeRange,
        agg: AggFn,
        jobs: &[JobRecord],
    ) -> Vec<(Ts, f64)> {
        let engine = QueryEngine::new(&self.store);
        if consumer.role == Role::Admin {
            return engine.aggregate_across_components(metric, range, agg);
        }
        engine.aggregate_visible(metric, range, agg, |comp| {
            self.policy.series_visible(consumer, &SeriesKey::new(metric, comp), jobs)
        })
    }

    fn deny(&self, what: String) -> QueryError {
        self.metrics.denied_access.inc();
        QueryError::AccessDenied(what)
    }

    fn check_series(
        &self,
        consumer: &Consumer,
        key: &SeriesKey,
        jobs: &[JobRecord],
    ) -> Result<(), QueryError> {
        if self.policy.series_visible(consumer, key, jobs) {
            Ok(())
        } else {
            Err(self.deny(format!("series {:?}/{:?}", key.metric, key.comp)))
        }
    }

    /// Scoped evaluation against the store.  Admin principals get the
    /// `QueryEngine` result verbatim; user principals see only series
    /// passing [`AccessPolicy::series_visible`] for their job view.
    fn evaluate(
        &self,
        consumer: &Consumer,
        request: &QueryRequest,
        jobs: &[JobRecord],
    ) -> Result<QueryResponse, QueryError> {
        request.validate()?;
        let engine = QueryEngine::new(&self.store);
        let is_admin = consumer.role == Role::Admin;
        match request {
            QueryRequest::Series { key, range } => {
                self.check_series(consumer, key, jobs)?;
                Ok(QueryResponse::Points(engine.series(*key, *range)))
            }
            QueryRequest::AggregateAcross { metric, range, agg } => {
                Ok(QueryResponse::Points(self.aggregate(consumer, *metric, *range, *agg, jobs)))
            }
            QueryRequest::ComponentsOfKind { metric, kind, range } => {
                let rows = engine
                    .components_of_kind(*metric, *kind, *range)
                    .into_iter()
                    .filter(|(comp, _)| {
                        is_admin
                            || self.policy.series_visible(
                                consumer,
                                &SeriesKey::new(*metric, *comp),
                                jobs,
                            )
                    })
                    .collect();
                Ok(QueryResponse::Grouped(rows))
            }
            QueryRequest::TopComponentsAt { metric, at, tolerance_ms, limit } => {
                if is_admin {
                    return Ok(QueryResponse::Ranked(engine.top_components_at(
                        *metric,
                        *at,
                        *tolerance_ms,
                        *limit,
                    )));
                }
                // Rank everything first, filter to visible, then truncate —
                // truncating before the filter would let invisible rows
                // push visible ones out of the top-k.
                let mut rows: Vec<(CompId, f64)> = engine
                    .top_components_at(*metric, *at, *tolerance_ms, usize::MAX)
                    .into_iter()
                    .filter(|(comp, _)| {
                        self.policy.series_visible(consumer, &SeriesKey::new(*metric, *comp), jobs)
                    })
                    .collect();
                rows.truncate(*limit);
                Ok(QueryResponse::Ranked(rows))
            }
            QueryRequest::Downsample { key, range, bucket_ms, agg } => {
                self.check_series(consumer, key, jobs)?;
                Ok(QueryResponse::Points(engine.downsample(*key, *range, *bucket_ms, *agg)?))
            }
            QueryRequest::AlignJoin { a, b, range } => {
                self.check_series(consumer, a, jobs)?;
                self.check_series(consumer, b, jobs)?;
                Ok(QueryResponse::Joined(engine.align_join(*a, *b, *range)))
            }
            QueryRequest::JobSeries { job_id, metric } => {
                let job = jobs
                    .iter()
                    .find(|j| j.id.0 == *job_id)
                    .ok_or(QueryError::UnknownJob(*job_id))?;
                let owned = matches!(&consumer.role, Role::User(u) if job.user == *u);
                if !is_admin && !owned {
                    return Err(self.deny(format!("job {job_id}")));
                }
                Ok(QueryResponse::Job(engine.job_series(job, *metric)))
            }
        }
    }

    /// Submit one query with the configured default deadline budget;
    /// blocks until answered, shed, or timed out.
    pub fn query(
        &self,
        consumer: &Consumer,
        request: QueryRequest,
    ) -> Result<QueryResponse, QueryError> {
        let budget = Duration::from_millis(self.config.default_deadline_ms);
        self.query_with_deadline(consumer, request, budget)
    }

    /// Submit one query with an explicit deadline budget.  It evaluates on
    /// the caller's thread once the principal's shard admits it: a caller
    /// that finds `queue_capacity` others waiting is refused at once, and
    /// one not admitted within `budget` is shed.
    pub fn query_with_deadline(
        &self,
        consumer: &Consumer,
        request: QueryRequest,
        budget: Duration,
    ) -> Result<QueryResponse, QueryError> {
        self.metrics.queries.inc();
        let deadline = Instant::now() + budget;
        let tracer = self.tracer.read().clone();
        let trace = tracer
            .as_deref()
            .and_then(|t| t.context_for(self.query_seq.fetch_add(1, Ordering::Relaxed)));
        let note = || format!("{}: {}", consumer.name, request_kind(&request));
        let shed = |counter: &Counter, reason: DropReason| {
            counter.inc();
            if let (Some(t), Some(ctx)) = (tracer.as_deref(), trace.as_ref()) {
                t.record_drop(ctx, Stage::Gateway, reason, &note());
            }
        };
        if !self.buckets.try_admit(&consumer.name, Instant::now()) {
            shed(&self.metrics.shed_rate_limited, DropReason::RateLimited);
            return Err(QueryError::RateLimited { principal: consumer.name.clone() });
        }
        // Reject malformed requests before they occupy a slot.
        request.validate()?;
        let shard = {
            let mut h = DefaultHasher::new();
            consumer.name.hash(&mut h);
            (h.finish() as usize) % self.gates.len()
        };
        let _slot = match self.gates[shard].enter(deadline) {
            Ok(slot) => slot,
            Err(Refused::Full) => {
                shed(&self.metrics.shed_queue_full, DropReason::AdmissionFull);
                return Err(QueryError::QueueFull);
            }
            Err(Refused::Expired) => {
                shed(&self.metrics.shed_deadline, DropReason::DeadlineShed);
                return Err(QueryError::DeadlineExceeded);
            }
        };
        let _span = match (tracer.as_deref(), trace.as_ref()) {
            (Some(t), Some(ctx)) => {
                let mut s = t.span(ctx, Stage::Gateway);
                s.set_note(note());
                Some(s)
            }
            _ => None,
        };
        let exemplar = trace.map_or(0, |c| if c.sampled { c.trace_id.0 } else { 0 });
        self.execute(consumer, &request, exemplar).map(|arc| (*arc).clone())
    }

    /// Plan-level entry point: evaluate one query on the caller's thread,
    /// bypassing the admission gates, rate limits, and wall-clock
    /// deadlines.  Scoping and the epoch-keyed cache still apply.  This is
    /// what a federation scatter uses: its deadline story is denominated
    /// in simulated ticks (link RTT vs. budget), decided by the planner
    /// *before* the member query runs, so the member-side evaluation must
    /// be free of wall-clock admission effects to keep federated answers
    /// bit-identical between runs.
    pub fn plan_query(
        &self,
        consumer: &Consumer,
        request: &QueryRequest,
    ) -> Result<QueryResponse, QueryError> {
        self.metrics.queries.inc();
        request.validate()?;
        self.execute(consumer, request, 0).map(|arc| (*arc).clone())
    }

    /// Attach a tracer: every query gets a trace context; served queries
    /// record a `Gateway` span when sampled, and every shed (rate-limit,
    /// queue-full, deadline) records drop provenance.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.write() = Some(tracer);
    }

    /// Register a standing subscription: `request` is re-evaluated each
    /// tick under `consumer`'s scope and deltas are published on `topic`
    /// (as `Payload::Raw` JSON of [`SubscriptionUpdate`]).  Returns the
    /// subscription id.
    pub fn subscribe(
        &self,
        consumer: &Consumer,
        request: QueryRequest,
        topic: &str,
    ) -> Result<u64, QueryError> {
        request.validate()?;
        let id = self.next_sub_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut subs = self.subs.lock();
        subs.push(StandingSub {
            id,
            consumer: consumer.clone(),
            request,
            topic: topic.to_owned(),
            watermark: None,
            last: None,
        });
        self.metrics.subs_active.set(subs.len() as f64);
        Ok(id)
    }

    /// Remove a standing subscription; false if the id is unknown.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut subs = self.subs.lock();
        let before = subs.len();
        subs.retain(|s| s.id != id);
        self.metrics.subs_active.set(subs.len() as f64);
        subs.len() != before
    }

    /// Replace the scheduler job view the scoping decisions run against.
    /// The scope epoch only advances when the view actually changes, so a
    /// steady job mix keeps the cache warm.
    pub fn update_jobs(&self, jobs: Vec<JobRecord>) {
        let changed = { *self.jobs.read().as_ref() != jobs };
        if changed {
            *self.jobs.write() = Arc::new(jobs);
            self.jobs_version.fetch_add(1, Ordering::Release);
        }
    }

    /// Evaluate all standing subscriptions for the tick at `now` and
    /// publish updates.  `Series` subscriptions send only points past
    /// their watermark; other requests re-evaluate fully and send on
    /// change.  Called from the pipeline's tick loop.
    pub fn on_tick(&self, now: Ts) {
        let jobs = self.jobs.read().clone();
        let mut subs = self.subs.lock();
        for sub in subs.iter_mut() {
            // A `Series` subscription reads only past its watermark; one
            // whose range has run out goes quiet.
            let request = match (&sub.request, sub.watermark) {
                (&QueryRequest::Series { key, range }, Some(w)) => {
                    match w.0.checked_add(1).map(|next| Ts(next).max(range.from)) {
                        Some(from) if from <= range.to => Cow::Owned(QueryRequest::Series {
                            key,
                            range: TimeRange { from, ..range },
                        }),
                        _ => continue,
                    }
                }
                _ => Cow::Borrowed(&sub.request),
            };
            let resp = match self.evaluate(&sub.consumer, &request, &jobs) {
                Ok(r) => r,
                // A subscription that has become unanswerable (job ended,
                // access revoked) just goes quiet; it is not an admission
                // failure.
                Err(_) => continue,
            };
            let delivery = match (&sub.request, resp) {
                (QueryRequest::Series { .. }, QueryResponse::Points(fresh)) => match fresh.last() {
                    Some(&(t, _)) => {
                        sub.watermark = Some(t);
                        Some((true, QueryResponse::Points(fresh)))
                    }
                    None => None,
                },
                (_, resp) => {
                    if sub.last.as_ref() == Some(&resp) {
                        None
                    } else {
                        sub.last = Some(resp.clone());
                        Some((false, resp))
                    }
                }
            };
            if let Some((incremental, result)) = delivery {
                let update = SubscriptionUpdate { id: sub.id, tick: now, incremental, result };
                if let Ok(bytes) = serde_json::to_vec(&update) {
                    self.broker.publish(&sub.topic, Payload::Raw(Bytes::from(bytes)));
                    self.metrics.subs_delivered.inc();
                }
            }
        }
        self.metrics.subs_active.set(subs.len() as f64);
        drop(subs);
        // Refresh the level-style gauges once per tick.
        let stats = self.cache.stats();
        let lookups = stats.hits + stats.extended + stats.misses;
        if lookups > 0 {
            self.metrics.cache_hit_ratio.set(stats.hits as f64 / lookups as f64);
        }
        let waiting: usize = self.gates.iter().map(|g| g.occupancy().waiting).sum();
        self.metrics.queue_depth.set(waiting as f64);
    }

    /// Result-cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The gateway's *deterministic* state observables, for per-tick replay
    /// verification: the scope-epoch version of the job view and the number
    /// of standing subscriptions.  Admission and cache internals are
    /// timing-dependent (wall-clock deadlines, thread scheduling) and are
    /// deliberately excluded — they never feed back into monitored state.
    pub fn replay_digest_inputs(&self) -> (u64, u64) {
        (self.jobs_version.load(Ordering::Acquire), self.subs.lock().len() as u64)
    }

    /// Capture the gateway's deterministic state for a flight-recorder
    /// checkpoint (see [`GatewaySnapshot`] for what is and isn't
    /// included).
    pub fn snapshot_replay_state(&self) -> GatewaySnapshot {
        let subs = self.subs.lock();
        GatewaySnapshot {
            jobs: self.jobs.read().as_ref().clone(),
            jobs_version: self.jobs_version.load(Ordering::Acquire),
            next_sub_id: self.next_sub_id.load(Ordering::Acquire),
            subs: subs
                .iter()
                .map(|s| SubscriptionSnapshot {
                    id: s.id,
                    consumer: s.consumer.clone(),
                    request: s.request.clone(),
                    topic: s.topic.clone(),
                    watermark: s.watermark,
                    last: s.last.clone(),
                })
                .collect(),
        }
    }

    /// Load a checkpoint back in place: the job view (restored *without*
    /// bumping the version — the version itself is restored, so the next
    /// [`Gateway::update_jobs`] sees exactly the comparison the recording
    /// run saw), the subscription set, and the id counter.  Queries in
    /// flight against the old state are timing-dependent traffic replay
    /// doesn't verify anyway.
    pub fn restore_replay_state(&self, snap: GatewaySnapshot) {
        *self.jobs.write() = Arc::new(snap.jobs);
        self.jobs_version.store(snap.jobs_version, Ordering::Release);
        self.next_sub_id.store(snap.next_sub_id, Ordering::Release);
        let mut subs = self.subs.lock();
        *subs = snap
            .subs
            .into_iter()
            .map(|s| StandingSub {
                id: s.id,
                consumer: s.consumer,
                request: s.request,
                topic: s.topic,
                watermark: s.watermark,
                last: s.last,
            })
            .collect();
        self.metrics.subs_active.set(subs.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmon_metrics::Sample;
    use hpcmon_trace::{Sampler, SpanStatus};

    /// A caller parked behind a slot held by hand is shed when its budget
    /// runs out: counted, traced, and answered with `DeadlineExceeded`.
    #[test]
    fn a_waiter_past_its_deadline_is_shed_counted_and_traced() {
        let store = Arc::new(TimeSeriesStore::new());
        let key = SeriesKey::new(MetricId(0), CompId::SYSTEM);
        store.insert(&Sample::new(key.metric, key.comp, Ts(60_000), 1.0));
        let telemetry = Telemetry::new();
        let config = GatewayConfig { shards: 1, workers_per_shard: 1, ..GatewayConfig::default() };
        let gw = Gateway::new(store, Broker::new(), &telemetry, config);
        let tracer = Arc::new(Tracer::new(Sampler::always()));
        gw.set_tracer(tracer.clone());
        let ops = Consumer::admin("ops");
        let request = QueryRequest::Series { key, range: TimeRange::all() };

        let held = gw.gates[0].enter(Instant::now() + Duration::from_secs(600)).expect("free");
        let started = Instant::now();
        let shed = gw.query_with_deadline(&ops, request.clone(), Duration::from_millis(20));
        assert!(matches!(shed, Err(QueryError::DeadlineExceeded)), "{shed:?}");
        assert!(started.elapsed() >= Duration::from_millis(20), "it waited its budget out");
        assert_eq!(telemetry.counter("gateway.shed.deadline").get(), 1);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Gateway);
        assert_eq!(spans[0].status, SpanStatus::Dropped(DropReason::DeadlineShed));
        assert_eq!(spans[0].note, "ops: series");

        drop(held);
        assert!(matches!(gw.query(&ops, request), Ok(QueryResponse::Points(p)) if p.len() == 1));
        assert_eq!(telemetry.counter("gateway.shed.deadline").get(), 1);
    }
}
