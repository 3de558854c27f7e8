//! The query-serving gateway, end to end over a running monitoring
//! system: concurrent correctness, epoch-correct caching, need-to-know
//! scoping, admission control, and standing subscriptions.

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_gateway::{GatewayConfig, QueryError, QueryRequest, QueryResponse, SubscriptionUpdate};
use hpcmon_metrics::{CompId, CompKind, JobRecord, MetricId, Sample, SeriesKey, Ts};
use hpcmon_response::{AccessPolicy, Consumer};
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::{AggFn, TimeRange};
use hpcmon_transport::{BackpressurePolicy, TopicFilter};
use std::sync::Arc;
use std::time::Duration;

/// A gateway config with deadlines generous enough for debug builds.
fn test_config() -> GatewayConfig {
    GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() }
}

fn system_with_jobs() -> MonitoringSystem {
    let mut mon = MonitoringSystem::builder(SimConfig::small()).gateway(test_config()).build();
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("sim"),
        "alice",
        8,
        60 * 60_000,
        Ts::ZERO,
    ));
    mon.submit_job(JobSpec::new(AppProfile::compute_heavy("ml"), "bob", 8, 60 * 60_000, Ts::ZERO));
    mon.run_ticks(8);
    mon
}

fn running_job<'a>(mon: &'a MonitoringSystem, user: &str) -> &'a JobRecord {
    mon.engine()
        .scheduler()
        .records()
        .iter()
        .find(|j| j.user == user && j.start.is_some())
        .expect("job started")
}

/// (a) N concurrent clients get byte-identical results to the serial
/// `QueryEngine` reference.
#[test]
fn concurrent_clients_match_serial_engine() {
    let mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap().clone();
    let all = TimeRange::all();
    let node0 = SeriesKey::new(metrics.node_cpu, CompId::node(0));
    let power0 = SeriesKey::new(metrics.node_power, CompId::node(0));

    let requests = vec![
        QueryRequest::Series { key: node0, range: all },
        QueryRequest::AggregateAcross { metric: metrics.node_power, range: all, agg: AggFn::Sum },
        QueryRequest::ComponentsOfKind {
            metric: metrics.node_cpu,
            kind: CompKind::Node,
            range: all,
        },
        QueryRequest::TopComponentsAt {
            metric: metrics.node_power,
            at: Ts::from_mins(5),
            tolerance_ms: 30_000,
            limit: 4,
        },
        QueryRequest::Downsample { key: node0, range: all, bucket_ms: 120_000, agg: AggFn::Mean },
        QueryRequest::AlignJoin { a: node0, b: power0, range: all },
    ];

    // Serial reference, straight off the borrow-based engine.
    let q = mon.query();
    let reference: Vec<QueryResponse> = vec![
        QueryResponse::Points(q.series(node0, all)),
        QueryResponse::Points(q.aggregate_across_components(metrics.node_power, all, AggFn::Sum)),
        QueryResponse::Grouped(q.components_of_kind(metrics.node_cpu, CompKind::Node, all)),
        QueryResponse::Ranked(q.top_components_at(metrics.node_power, Ts::from_mins(5), 30_000, 4)),
        QueryResponse::Points(q.downsample(node0, all, 120_000, AggFn::Mean).unwrap()),
        QueryResponse::Joined(q.align_join(node0, power0, all)),
    ];
    assert!(matches!(&reference[0], QueryResponse::Points(p) if !p.is_empty()));

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let gw = gw.clone();
            let requests = requests.clone();
            std::thread::spawn(move || {
                let me = Consumer::admin(&format!("dashboard-{i}"));
                requests
                    .into_iter()
                    .map(|r| gw.query(&me, r).expect("admin query succeeds"))
                    .collect::<Vec<QueryResponse>>()
            })
        })
        .collect();
    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(got.len(), reference.len());
        for (g, want) in got.iter().zip(&reference) {
            assert_eq!(g, want);
            // Byte-identical on the wire, not just structurally equal.
            assert_eq!(serde_json::to_vec(g).unwrap(), serde_json::to_vec(want).unwrap());
        }
    }
}

/// (b) A cached response is never served across a store-epoch change.
#[test]
fn cache_invalidates_on_store_epoch_change() {
    let mut mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap().clone();
    let ops = Consumer::admin("ops");
    let req = QueryRequest::Series {
        key: SeriesKey::new(metrics.system_power, CompId::SYSTEM),
        range: TimeRange::all(),
    };

    let first = gw.query(&ops, req.clone()).unwrap();
    let second = gw.query(&ops, req.clone()).unwrap();
    assert_eq!(first, second);
    let warm = gw.cache_stats();
    assert!(warm.hits >= 1, "repeat query served from cache: {warm:?}");

    // One tick ingests a new frame — every mutation class bumps the store
    // epoch, so the cached entry must not survive.
    mon.tick();
    let third = gw.query(&ops, req.clone()).unwrap();
    let (QueryResponse::Points(old), QueryResponse::Points(new)) = (&second, &third) else {
        panic!("series responses expected");
    };
    assert_eq!(new.len(), old.len() + 1, "post-tick response carries the new point");
    let after = gw.cache_stats();
    assert!(after.invalidated >= 1, "stale entry was invalidated: {after:?}");
    // And the fresh response matches the serial engine exactly.
    assert_eq!(
        *new,
        mon.query().series(SeriesKey::new(metrics.system_power, CompId::SYSTEM), TimeRange::all())
    );

    // Sealing (a different mutation class) also invalidates.
    let sealed = gw.query(&ops, req.clone()).unwrap();
    mon.store().seal_all();
    let resealed = gw.query(&ops, req).unwrap();
    assert_eq!(sealed, resealed, "same data, different epoch");
    assert!(gw.cache_stats().invalidated >= 2);
}

/// (c) A user principal cannot read series outside their job allocations.
#[test]
fn user_scope_limits_series_visibility() {
    let mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap();
    let alice_job = running_job(&mon, "alice").clone();
    let bob_job = running_job(&mon, "bob").clone();
    let alice = Consumer::user("alice-portal", "alice");
    let all = TimeRange::all();

    // Own node: allowed, and identical to what an admin sees for it.
    let own = SeriesKey::new(metrics.node_cpu, CompId::node(alice_job.nodes[0]));
    let got = gw.query(&alice, QueryRequest::Series { key: own, range: all }).unwrap();
    assert!(matches!(&got, QueryResponse::Points(p) if !p.is_empty()));
    assert_eq!(
        got,
        gw.query(&Consumer::admin("ops"), QueryRequest::Series { key: own, range: all }).unwrap()
    );

    // System scope: public.
    let sys = SeriesKey::new(metrics.system_power, CompId::SYSTEM);
    assert!(gw.query(&alice, QueryRequest::Series { key: sys, range: all }).is_ok());

    // Bob's node, bob's job, and infrastructure internals: denied.
    let foreign = SeriesKey::new(metrics.node_cpu, CompId::node(bob_job.nodes[0]));
    assert!(matches!(
        gw.query(&alice, QueryRequest::Series { key: foreign, range: all }),
        Err(QueryError::AccessDenied(_))
    ));
    assert!(matches!(
        gw.query(
            &alice,
            QueryRequest::JobSeries { job_id: bob_job.id.0, metric: metrics.node_cpu }
        ),
        Err(QueryError::AccessDenied(_))
    ));
    let link = SeriesKey::new(metrics.link_traffic, CompId { kind: CompKind::Link, index: 0 });
    assert!(matches!(
        gw.query(&alice, QueryRequest::Series { key: link, range: all }),
        Err(QueryError::AccessDenied(_))
    ));

    // Own job series works and carries only the allocation's nodes.
    let own_job = gw
        .query(&alice, QueryRequest::JobSeries { job_id: alice_job.id.0, metric: metrics.node_cpu })
        .unwrap();
    let QueryResponse::Job(js) = own_job else { panic!("job response expected") };
    assert_eq!(js.per_node.len(), alice_job.nodes.len());

    // Ranked and grouped results are filtered, not just refused: alice
    // only ever sees her own nodes in a machine-wide top-k.
    let QueryResponse::Ranked(rows) = gw
        .query(
            &alice,
            QueryRequest::TopComponentsAt {
                metric: metrics.node_cpu,
                at: Ts::from_mins(5),
                tolerance_ms: 30_000,
                limit: 1_000,
            },
        )
        .unwrap()
    else {
        panic!("ranked response expected")
    };
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|(c, _)| alice_job.nodes.contains(&c.index)), "{rows:?}");

    // A user's aggregate is the aggregate of the series they may see, and
    // of no other: brute force over the visible series, in key order.
    let jobs = mon.engine().scheduler().records().to_vec();
    let store = mon.store();
    let mut by_ts: std::collections::BTreeMap<Ts, Vec<f64>> = Default::default();
    for key in store.series_of_metric(metrics.node_cpu) {
        if AccessPolicy.series_visible(&alice, &key, &jobs) {
            for (t, v) in store.query(key, all.from, all.to) {
                by_ts.entry(t).or_default().push(v);
            }
        }
    }
    let want: Vec<(Ts, u64)> =
        by_ts.into_iter().map(|(t, vs)| (t, AggFn::Sum.apply(&vs).unwrap().to_bits())).collect();
    let request =
        QueryRequest::AggregateAcross { metric: metrics.node_cpu, range: all, agg: AggFn::Sum };
    let Ok(QueryResponse::Points(got)) = gw.query(&alice, request.clone()) else {
        panic!("points expected")
    };
    assert_eq!(got.iter().map(|&(t, v)| (t, v.to_bits())).collect::<Vec<_>>(), want);
    assert!(!got.is_empty());
    assert_ne!(Ok(QueryResponse::Points(got)), gw.query(&Consumer::admin("ops"), request));

    // Unknown job ids are an error value, not a panic.
    assert!(matches!(
        gw.query(&alice, QueryRequest::JobSeries { job_id: 999, metric: metrics.node_cpu }),
        Err(QueryError::UnknownJob(999))
    ));
}

/// (d) An over-limit principal is shed with a rate-limit error while other
/// principals are unaffected.
#[test]
fn rate_limit_sheds_only_the_noisy_principal() {
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .gateway(GatewayConfig {
            rate_limit_burst: 3.0,
            rate_limit_per_sec: 0.0,
            default_deadline_ms: 10_000,
            ..GatewayConfig::default()
        })
        .build();
    mon.run_ticks(3);
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap();
    let req = QueryRequest::Series {
        key: SeriesKey::new(metrics.system_power, CompId::SYSTEM),
        range: TimeRange::all(),
    };
    let greedy = Consumer::admin("greedy-dashboard");
    let polite = Consumer::admin("polite-dashboard");
    let mut shed = 0;
    for i in 0..10 {
        match gw.query(&greedy, req.clone()) {
            Ok(_) => {}
            Err(QueryError::RateLimited { principal }) => {
                assert_eq!(principal, "greedy-dashboard");
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        // Interleaved under-limit traffic from another principal always
        // gets through — each bucket is independent.
        if i % 4 == 0 {
            gw.query(&polite, req.clone()).expect("other principals unaffected");
        }
    }
    assert_eq!(shed, 7, "burst of 3 admits exactly 3 of 10");
}

/// (e) A standing subscription delivers updated results on tick, through
/// the broker.
#[test]
fn standing_subscription_delivers_updates_via_broker() {
    let mut mon = system_with_jobs();
    let metrics = mon.metrics();
    let key = SeriesKey::new(metrics.system_power, CompId::SYSTEM);
    let feed = mon.broker().subscribe(TopicFilter::new("gateway/#"), 64, BackpressurePolicy::Block);
    let gw = mon.gateway().unwrap().clone();
    let ops = Consumer::admin("ops");
    let sub_id = gw
        .subscribe(
            &ops,
            QueryRequest::Series { key, range: TimeRange::all() },
            "gateway/updates/ops",
        )
        .unwrap();

    mon.run_ticks(3);
    let envelopes = feed.drain();
    assert!(!envelopes.is_empty(), "subscription delivered on tick");
    let mut delivered: Vec<(Ts, f64)> = Vec::new();
    for env in &envelopes {
        assert_eq!(env.topic, "gateway/updates/ops");
        let hpcmon_transport::Payload::Raw(bytes) = &env.payload else {
            panic!("raw JSON payload expected")
        };
        let update: SubscriptionUpdate = serde_json::from_slice(bytes).unwrap();
        assert_eq!(update.id, sub_id);
        assert!(update.incremental, "series subscriptions deliver deltas");
        let QueryResponse::Points(pts) = update.result else { panic!("points expected") };
        delivered.extend(pts);
    }
    // Incremental delivery: strictly advancing watermark, no duplicates,
    // and together the deltas equal the stored series.
    assert!(delivered.windows(2).all(|w| w[0].0 < w[1].0), "{delivered:?}");
    let stored = mon.query().series(key, TimeRange::all());
    assert_eq!(delivered, stored, "deltas reassemble the full series");

    // After unsubscribe, ticks go quiet.
    assert!(gw.unsubscribe(sub_id));
    mon.run_ticks(2);
    assert!(feed.drain().is_empty(), "no deliveries after unsubscribe");
}

/// Deadline budgets shed queries that can no longer be answered in time
/// instead of stalling the caller.
#[test]
fn expired_deadline_is_shed_not_served() {
    let mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap();
    let req = QueryRequest::Series {
        key: SeriesKey::new(metrics.system_power, CompId::SYSTEM),
        range: TimeRange::all(),
    };
    // A zero budget is already expired when a worker picks it up.
    let result =
        gw.query_with_deadline(&Consumer::admin("impatient"), req, Duration::from_millis(0));
    assert!(matches!(result, Err(QueryError::DeadlineExceeded)));
}

/// Malformed requests are refused as values before touching a worker.
#[test]
fn malformed_requests_are_error_values() {
    let mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw = mon.gateway().unwrap();
    let ops = Consumer::admin("ops");
    let inverted = TimeRange { from: Ts(10_000), to: Ts(0) };
    assert!(matches!(
        gw.query(
            &ops,
            QueryRequest::Series {
                key: SeriesKey::new(metrics.node_cpu, CompId::node(0)),
                range: inverted,
            }
        ),
        Err(QueryError::InvalidParam(_))
    ));
    assert!(matches!(
        gw.query(
            &ops,
            QueryRequest::Downsample {
                key: SeriesKey::new(metrics.node_cpu, CompId::node(0)),
                range: TimeRange::all(),
                bucket_ms: 0,
                agg: AggFn::Mean,
            }
        ),
        Err(QueryError::InvalidParam(_))
    ));
    // A quantile outside [0, 1] would be clamped into a wrong answer.
    for q in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
        let agg = AggFn::Quantile(q);
        let across = QueryRequest::AggregateAcross {
            metric: metrics.node_cpu,
            range: TimeRange::all(),
            agg,
        };
        assert!(matches!(gw.query(&ops, across), Err(QueryError::InvalidParam(_))), "{q}");
        let down = QueryRequest::Downsample {
            key: SeriesKey::new(metrics.node_cpu, CompId::node(0)),
            range: TimeRange::all(),
            bucket_ms: 60_000,
            agg,
        };
        assert!(matches!(gw.query(&ops, down), Err(QueryError::InvalidParam(_))), "{q}");
    }
    let median = AggFn::Quantile(0.5);
    let across = QueryRequest::AggregateAcross {
        metric: metrics.node_cpu,
        range: TimeRange::all(),
        agg: median,
    };
    assert!(gw.query(&ops, across).is_ok());
}

/// A NaN in the store is a value like any other: the queries that sort
/// values answer with it ranked last instead of panicking the caller.
#[test]
fn a_stored_nan_is_answered_not_fatal() {
    let mon = system_with_jobs();
    let gw = mon.gateway().unwrap().clone();
    let metric = MetricId(4_000);
    let at = Ts::from_mins(3);
    mon.store().insert(&Sample::new(metric, CompId::node(0), at, f64::NAN));
    mon.store().insert(&Sample::new(metric, CompId::node(1), at, 1.0));
    let ops = Consumer::admin("ops");

    let top = QueryRequest::TopComponentsAt { metric, at, tolerance_ms: 0, limit: 10 };
    let Ok(QueryResponse::Ranked(rows)) = gw.query(&ops, top) else {
        panic!("ranked rows expected")
    };
    assert_eq!(rows[0], (CompId::node(1), 1.0));
    assert!(rows[1].1.is_nan());
    for (q, lowest) in [(0.0, true), (1.0, false)] {
        let agg = AggFn::Quantile(q);
        let request = QueryRequest::AggregateAcross { metric, range: TimeRange::all(), agg };
        let Ok(QueryResponse::Points(points)) = gw.query(&ops, request) else {
            panic!("points expected")
        };
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].1 == 1.0, lowest, "NaN sorts last: {points:?}");
    }
}

/// The pipeline keeps ticking while consumer threads hammer the gateway —
/// queries see a consistent store and never panic.
#[test]
fn queries_run_concurrently_with_the_ticking_pipeline() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let mut mon = system_with_jobs();
    let metrics = mon.metrics();
    let gw: Arc<_> = mon.gateway().unwrap().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let (gw, stop, answered) = (gw.clone(), stop.clone(), answered.clone());
            std::thread::spawn(move || {
                let me = Consumer::admin(&format!("client-{i}"));
                while !stop.load(Ordering::Relaxed) {
                    let resp = gw.query(
                        &me,
                        QueryRequest::AggregateAcross {
                            metric: metrics.node_power,
                            range: TimeRange::all(),
                            agg: AggFn::Sum,
                        },
                    );
                    assert!(resp.is_ok(), "{resp:?}");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    // Ten ticks at least, and on until a query has been answered beside
    // them: ten ticks of this machine take under a millisecond, less than a
    // thread needs to start on a busy host.
    let mut ticks = 0;
    while ticks < 10 || answered.load(Ordering::Relaxed) == 0 {
        assert!(ticks < 20_000, "no query answered in {ticks} ticks");
        mon.run_ticks(1);
        ticks += 1;
    }
    stop.store(true, Ordering::Relaxed);
    handles.into_iter().for_each(|h| h.join().unwrap());
}

/// (i) A sliding aggregate, admin- or user-scoped, extends its cached
/// answer across ticks — a seal included — and stays bit-identical to a
/// fresh fold; a write behind the newest stamp forces a recompute.
#[test]
fn aggregate_answers_extend_across_ticks() {
    let mut mon = system_with_jobs();
    let metric = mon.metrics().node_power;
    let gw = mon.gateway().unwrap().clone();
    let alice = Consumer::user("alice-portal", "alice");
    let panels = [
        (Consumer::admin("ops-board"), AggFn::Sum),
        (Consumer::admin("ops"), AggFn::Mean),
        (alice.clone(), AggFn::Max),
        (alice, AggFn::Mean),
    ];
    let bits = |pts: &[(Ts, f64)]| pts.iter().map(|&(t, v)| (t, v.to_bits())).collect::<Vec<_>>();
    // Every panel over the last six ticks, each checked against a fresh
    // fold.
    let refresh = |mon: &MonitoringSystem| {
        let now = mon.engine().now();
        let range = TimeRange::new(now.sub_ms(5 * 60_000), now);
        let jobs = mon.engine().scheduler().records().to_vec();
        let answer = |(who, agg): &(Consumer, AggFn)| {
            let request = QueryRequest::AggregateAcross { metric, range, agg: *agg };
            let Ok(QueryResponse::Points(got)) = gw.query(who, request) else {
                panic!("points expected")
            };
            let want = mon.query().aggregate_visible(metric, range, *agg, |comp| {
                AccessPolicy.series_visible(who, &SeriesKey::new(metric, comp), &jobs)
            });
            assert_eq!(bits(&got), bits(&want), "{} {agg:?} at {now:?}", who.name);
            assert_eq!(got.len(), 6);
            got
        };
        panels.iter().map(answer).collect::<Vec<_>>()
    };
    refresh(&mon);
    for tick in 0..12 {
        mon.tick();
        if tick == 5 {
            mon.store().seal_all();
        }
        refresh(&mon);
    }
    let before = gw.cache_stats();
    assert!(before.extended > 0, "{before:?}");

    // A write behind the head: the next answer is recomputed, not extended.
    let now = mon.engine().now();
    let node = running_job(&mon, "alice").nodes[0];
    let stale = refresh(&mon);
    mon.store().insert(&Sample::new(metric, CompId::node(node), now.sub_ms(2 * 60_000), 1.0e6));
    let fresh = refresh(&mon);
    let after = gw.cache_stats();
    assert_eq!(after.extended, before.extended, "{after:?}");
    assert!(after.misses > before.misses && after.invalidated > before.invalidated);
    assert!(stale.iter().zip(&fresh).all(|(s, f)| s != f), "the write behind is in every answer");
}
