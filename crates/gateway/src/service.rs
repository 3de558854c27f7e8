//! The gateway service: sharded worker pool, scoped evaluation, result
//! caching, and standing subscriptions.

use crate::admission::{AdmissionQueue, PushError, TokenBuckets};
use crate::cache::{self, CacheStats, Extent, Lookup, ResultCache};
use crate::request::{QueryError, QueryRequest, QueryResponse, SubscriptionUpdate};
use bytes::Bytes;
use hpcmon_metrics::{CompId, JobRecord, MetricId, SeriesKey, Ts};
use hpcmon_response::access::{AccessPolicy, Consumer, Role};
use hpcmon_store::{AggFn, QueryEngine, TimeRange, TimeSeriesStore};
use hpcmon_telemetry::{Counter, Gauge, Histogram, Telemetry};
use hpcmon_trace::{DropReason, Stage, TraceContext, Tracer};
use hpcmon_transport::{Broker, Payload};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gateway sizing and policy knobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GatewayConfig {
    /// Worker-pool shards; principals are hashed onto shards so one noisy
    /// consumer contends with itself first.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Admission-queue capacity per shard.
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
    workers_respawned: Arc<Counter>,
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
            // Appended last: instrument registration order is append-only.
            workers_respawned: t.counter("gateway.workers.respawned"),
        }
    }
}

/// One admitted query waiting for a worker.
struct Job {
    consumer: Consumer,
    request: QueryRequest,
    deadline: Instant,
    trace: Option<TraceContext>,
    responder: SyncSender<Result<QueryResponse, QueryError>>,
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
/// Worker pools, admission queues, token buckets, and the result cache
/// are timing-dependent service plumbing and are deliberately excluded —
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

struct GatewayInner {
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
    queues: Vec<AdmissionQueue<Job>>,
    subs: Mutex<Vec<StandingSub>>,
    next_sub_id: AtomicU64,
    shutdown: AtomicBool,
    /// Outstanding injected worker deaths (chaos).  Each worker checks at
    /// its job boundary and at most one claims each request, so a kill
    /// never interrupts an in-flight query and queued jobs survive.
    kill_requests: AtomicU64,
    metrics: GatewayMetrics,
    /// When set, each admitted query gets a trace context: served queries
    /// record a `Gateway` span (sampled), sheds always record provenance.
    tracer: RwLock<Option<Arc<Tracer>>>,
    query_seq: AtomicU64,
}

impl GatewayInner {
    fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Claim one outstanding kill request, if any — exactly one caller
    /// succeeds per request, so injecting N deaths kills N workers.
    fn try_claim_kill(&self) -> bool {
        self.kill_requests
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
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
}

/// The concurrent query-serving frontend.
///
/// Constructed over shared handles to the store, broker, and telemetry
/// registry; owns its worker threads (joined on drop).
pub struct Gateway {
    inner: Arc<GatewayInner>,
    /// Live workers, tagged with their shard so a dead worker can be
    /// respawned onto the same shard.
    workers: Mutex<Vec<(usize, std::thread::JoinHandle<()>)>>,
    worker_seq: AtomicU64,
}

impl Gateway {
    /// Build the gateway and start its worker pool.
    pub fn new(
        store: Arc<TimeSeriesStore>,
        broker: Arc<Broker>,
        telemetry: &Telemetry,
        config: GatewayConfig,
    ) -> Gateway {
        let shards = config.shards.max(1);
        let workers_per_shard = config.workers_per_shard.max(1);
        let queues = (0..shards).map(|_| AdmissionQueue::new(config.queue_capacity)).collect();
        let inner = Arc::new(GatewayInner {
            store,
            broker,
            policy: AccessPolicy,
            jobs: RwLock::new(Arc::new(Vec::new())),
            jobs_version: AtomicU64::new(0),
            cache: ResultCache::new(config.cache_capacity),
            buckets: TokenBuckets::new(config.rate_limit_burst, config.rate_limit_per_sec),
            queues,
            subs: Mutex::new(Vec::new()),
            next_sub_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            kill_requests: AtomicU64::new(0),
            metrics: GatewayMetrics::new(telemetry),
            tracer: RwLock::new(None),
            query_seq: AtomicU64::new(0),
            config,
        });
        let gateway =
            Gateway { inner, workers: Mutex::new(Vec::new()), worker_seq: AtomicU64::new(0) };
        {
            let mut workers = gateway.workers.lock();
            for shard in 0..shards {
                for _ in 0..workers_per_shard {
                    let handle = gateway.spawn_worker(shard);
                    workers.push((shard, handle));
                }
            }
        }
        gateway
    }

    fn spawn_worker(&self, shard: usize) -> std::thread::JoinHandle<()> {
        let n = self.worker_seq.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.clone();
        std::thread::Builder::new()
            .name(format!("gw-{shard}-{n}"))
            .spawn(move || Gateway::worker_loop(&inner, shard))
            .expect("spawn gateway worker")
    }

    fn worker_loop(inner: &GatewayInner, shard: usize) {
        // `pop_unless` checks the kill claim *before* popping: an injected
        // worker death lands at a job boundary and leaves queued jobs for
        // the surviving workers (and the eventual respawn).
        while let Some(job) = inner.queues[shard].pop_unless(|| inner.try_claim_kill()) {
            inner.metrics.queue_depth.set(inner.total_queued() as f64);
            let tracer = inner.tracer.read().clone();
            if Instant::now() > job.deadline {
                inner.metrics.shed_deadline.inc();
                if let (Some(t), Some(ctx)) = (tracer.as_deref(), job.trace.as_ref()) {
                    t.record_drop(
                        ctx,
                        Stage::Gateway,
                        DropReason::DeadlineShed,
                        &format!("{}: {}", job.consumer.name, request_kind(&job.request)),
                    );
                }
                let _ = job.responder.send(Err(QueryError::DeadlineExceeded));
                continue;
            }
            let span = match (tracer.as_deref(), job.trace.as_ref()) {
                (Some(t), Some(ctx)) => {
                    let mut s = t.span(ctx, Stage::Gateway);
                    s.set_note(format!("{}: {}", job.consumer.name, request_kind(&job.request)));
                    Some(s)
                }
                _ => None,
            };
            let exemplar = job.trace.map_or(0, |c| if c.sampled { c.trace_id.0 } else { 0 });
            let result =
                inner.execute(&job.consumer, &job.request, exemplar).map(|arc| (*arc).clone());
            drop(span);
            let _ = job.responder.send(result);
        }
    }

    /// Submit one query with the configured default deadline budget;
    /// blocks until answered, shed, or timed out.
    pub fn query(
        &self,
        consumer: &Consumer,
        request: QueryRequest,
    ) -> Result<QueryResponse, QueryError> {
        let budget = Duration::from_millis(self.inner.config.default_deadline_ms);
        self.query_with_deadline(consumer, request, budget)
    }

    /// Submit one query with an explicit deadline budget.
    pub fn query_with_deadline(
        &self,
        consumer: &Consumer,
        request: QueryRequest,
        budget: Duration,
    ) -> Result<QueryResponse, QueryError> {
        let inner = &self.inner;
        inner.metrics.queries.inc();
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(QueryError::Shutdown);
        }
        let tracer = inner.tracer.read().clone();
        let trace = tracer
            .as_deref()
            .and_then(|t| t.context_for(inner.query_seq.fetch_add(1, Ordering::Relaxed)));
        let kind = request_kind(&request);
        if !inner.buckets.try_admit(&consumer.name, Instant::now()) {
            inner.metrics.shed_rate_limited.inc();
            if let (Some(t), Some(ctx)) = (tracer.as_deref(), trace.as_ref()) {
                t.record_drop(
                    ctx,
                    Stage::Gateway,
                    DropReason::RateLimited,
                    &format!("{}: {kind}", consumer.name),
                );
            }
            return Err(QueryError::RateLimited { principal: consumer.name.clone() });
        }
        // Reject malformed requests before they occupy queue or worker.
        request.validate()?;
        let (tx, rx) = sync_channel(1);
        let job = Job {
            consumer: consumer.clone(),
            request,
            deadline: Instant::now() + budget,
            trace,
            responder: tx,
        };
        let shard = {
            let mut h = DefaultHasher::new();
            consumer.name.hash(&mut h);
            (h.finish() as usize) % inner.queues.len()
        };
        let now = Instant::now();
        let pushed = inner.queues[shard].push(
            job,
            |j| j.deadline < now,
            |expired| {
                inner.metrics.shed_deadline.inc();
                if let (Some(t), Some(ctx)) = (tracer.as_deref(), expired.trace.as_ref()) {
                    t.record_drop(
                        ctx,
                        Stage::Gateway,
                        DropReason::DeadlineShed,
                        &format!("{}: {}", expired.consumer.name, request_kind(&expired.request)),
                    );
                }
                let _ = expired.responder.send(Err(QueryError::DeadlineExceeded));
            },
        );
        match pushed {
            Ok(()) => inner.metrics.queue_depth.set(inner.total_queued() as f64),
            Err(PushError::Full(rejected)) => {
                inner.metrics.shed_queue_full.inc();
                if let (Some(t), Some(ctx)) = (tracer.as_deref(), rejected.trace.as_ref()) {
                    t.record_drop(
                        ctx,
                        Stage::Gateway,
                        DropReason::AdmissionFull,
                        &format!("{}: {kind}", consumer.name),
                    );
                }
                return Err(QueryError::QueueFull);
            }
            Err(PushError::Closed(_)) => return Err(QueryError::Shutdown),
        }
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(QueryError::Shutdown),
        }
    }

    /// Plan-level entry point: evaluate one query inline on the caller's
    /// thread, bypassing the worker pool, admission queues, rate limits,
    /// and wall-clock deadlines.  Scoping and the epoch-keyed cache still
    /// apply.  This is what a federation scatter uses: its deadline story
    /// is denominated in simulated ticks (link RTT vs. budget), decided by
    /// the planner *before* the member query runs, so the member-side
    /// evaluation must be free of wall-clock admission effects to keep
    /// federated answers bit-identical at any worker count.
    pub fn plan_query(
        &self,
        consumer: &Consumer,
        request: &QueryRequest,
    ) -> Result<QueryResponse, QueryError> {
        let inner = &self.inner;
        inner.metrics.queries.inc();
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(QueryError::Shutdown);
        }
        request.validate()?;
        inner.execute(consumer, request, 0).map(|arc| (*arc).clone())
    }

    /// Attach a tracer: every admitted query gets a trace context; served
    /// queries record a `Gateway` span when sampled, and every shed
    /// (rate-limit, queue-full, deadline) records drop provenance.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.inner.tracer.write() = Some(tracer);
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
        let id = self.inner.next_sub_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut subs = self.inner.subs.lock();
        subs.push(StandingSub {
            id,
            consumer: consumer.clone(),
            request,
            topic: topic.to_owned(),
            watermark: None,
            last: None,
        });
        self.inner.metrics.subs_active.set(subs.len() as f64);
        Ok(id)
    }

    /// Remove a standing subscription; false if the id is unknown.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut subs = self.inner.subs.lock();
        let before = subs.len();
        subs.retain(|s| s.id != id);
        self.inner.metrics.subs_active.set(subs.len() as f64);
        subs.len() != before
    }

    /// Replace the scheduler job view the scoping decisions run against.
    /// The scope epoch only advances when the view actually changes, so a
    /// steady job mix keeps the cache warm.
    pub fn update_jobs(&self, jobs: Vec<JobRecord>) {
        let changed = { *self.inner.jobs.read().as_ref() != jobs };
        if changed {
            *self.inner.jobs.write() = Arc::new(jobs);
            self.inner.jobs_version.fetch_add(1, Ordering::Release);
        }
    }

    /// Evaluate all standing subscriptions for the tick at `now` and
    /// publish updates.  `Series` subscriptions send only points past
    /// their watermark; other requests re-evaluate fully and send on
    /// change.  Called from the pipeline's tick loop.
    pub fn on_tick(&self, now: Ts) {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Supervise the pool: any worker that died since the last tick
        // (injected fault or panic) is joined and replaced.
        self.ensure_workers();
        let jobs = inner.jobs.read().clone();
        let mut subs = inner.subs.lock();
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
            let resp = match inner.evaluate(&sub.consumer, &request, &jobs) {
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
                    inner.broker.publish(&sub.topic, Payload::Raw(Bytes::from(bytes)));
                    inner.metrics.subs_delivered.inc();
                }
            }
        }
        inner.metrics.subs_active.set(subs.len() as f64);
        drop(subs);
        // Refresh the level-style gauges once per tick.
        let stats = inner.cache.stats();
        let lookups = stats.hits + stats.extended + stats.misses;
        if lookups > 0 {
            inner.metrics.cache_hit_ratio.set(stats.hits as f64 / lookups as f64);
        }
        inner.metrics.queue_depth.set(inner.total_queued() as f64);
    }

    /// Result-cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The gateway's *deterministic* state observables, for per-tick replay
    /// verification: the scope-epoch version of the job view and the number
    /// of standing subscriptions.  Worker-pool and cache internals are
    /// timing-dependent (wall-clock deadlines, thread scheduling) and are
    /// deliberately excluded — they never feed back into monitored state.
    pub fn replay_digest_inputs(&self) -> (u64, u64) {
        (self.inner.jobs_version.load(Ordering::Acquire), self.inner.subs.lock().len() as u64)
    }

    /// Capture the gateway's deterministic state for a flight-recorder
    /// checkpoint (see [`GatewaySnapshot`] for what is and isn't
    /// included).
    pub fn snapshot_replay_state(&self) -> GatewaySnapshot {
        let subs = self.inner.subs.lock();
        GatewaySnapshot {
            jobs: self.inner.jobs.read().as_ref().clone(),
            jobs_version: self.inner.jobs_version.load(Ordering::Acquire),
            next_sub_id: self.inner.next_sub_id.load(Ordering::Acquire),
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
    /// run saw), the subscription set, and the id counter.  The worker
    /// pool keeps running; in-flight queries against the old state are
    /// timing-dependent traffic replay doesn't verify anyway.
    pub fn restore_replay_state(&self, snap: GatewaySnapshot) {
        *self.inner.jobs.write() = Arc::new(snap.jobs);
        self.inner.jobs_version.store(snap.jobs_version, Ordering::Release);
        self.inner.next_sub_id.store(snap.next_sub_id, Ordering::Release);
        let mut subs = self.inner.subs.lock();
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
        self.inner.metrics.subs_active.set(subs.len() as f64);
    }

    /// Inject one worker death (chaos): exactly one worker exits at its
    /// next job boundary.  In-flight queries complete and queued jobs
    /// survive for the remaining workers; [`Gateway::ensure_workers`]
    /// (called every tick) respawns the replacement.
    pub fn inject_worker_death(&self) {
        self.inner.kill_requests.fetch_add(1, Ordering::Release);
        for q in &self.inner.queues {
            q.wake_all();
        }
    }

    /// Join any dead workers and respawn replacements on their shards.
    /// Returns the number respawned (also counted on
    /// `gateway.workers.respawned`).  No-op after shutdown.
    pub fn ensure_workers(&self) -> usize {
        let mut workers = self.workers.lock();
        let mut respawned = 0;
        let mut alive = Vec::with_capacity(workers.len());
        for (shard, handle) in workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
                if !self.inner.shutdown.load(Ordering::Acquire) {
                    alive.push((shard, self.spawn_worker(shard)));
                    respawned += 1;
                    self.inner.metrics.workers_respawned.inc();
                }
            } else {
                alive.push((shard, handle));
            }
        }
        *workers = alive;
        respawned
    }

    /// Live (not yet joined) worker threads — dead-but-unjoined workers
    /// still count until [`Gateway::ensure_workers`] reaps them.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Stop accepting work and join the worker pool.  Queued jobs drain
    /// first; callers still waiting get [`QueryError::Shutdown`] only if
    /// their responder is dropped unanswered.
    pub(crate) fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for q in &self.inner.queues {
            q.close();
        }
        let mut workers = self.workers.lock();
        for (_, handle) in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}
