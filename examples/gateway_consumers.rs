//! Gateway consumers: two principals — an admin dashboard and a user
//! portal — issue concurrent queries against the same gateway, and a
//! standing subscription streams system power over the broker each tick.
//!
//! The point to notice in the output: the admin sees every component,
//! the user's identical requests come back scoped to their own job
//! allocations, and the gateway's own activity shows up in the store as
//! `hpcmon.self.gateway.*` series like any other monitored component.
//!
//! ```sh
//! cargo run --release --example gateway_consumers
//! ```

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_gateway::{GatewayConfig, QueryRequest, QueryResponse, SubscriptionUpdate};
use hpcmon_metrics::{CompId, SeriesKey, Ts, MINUTE_MS};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::TimeRange;
use hpcmon_transport::{BackpressurePolicy, Payload, TopicFilter};

fn main() {
    // A small machine with the query gateway attached: modest cache,
    // enough rate budget that neither principal below gets shed.
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .gateway(GatewayConfig {
            cache_capacity: 128,
            default_deadline_ms: 10_000,
            ..GatewayConfig::default()
        })
        .build();

    // Two tenants: alice runs a 16-node job, bob an 8-node one.
    let alice_job_id = mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil3d"),
        "alice",
        16,
        45 * MINUTE_MS,
        Ts::ZERO,
    ));
    let bob_job_id = mon.submit_job(JobSpec::new(
        AppProfile::comm_heavy("spectral_fft"),
        "bob",
        8,
        45 * MINUTE_MS,
        Ts::from_mins(2),
    ));
    mon.run_ticks(20);

    let gw = mon.gateway().expect("gateway configured").clone();
    let metrics = mon.metrics();

    // A broker consumer for the subscription feed, registered before the
    // subscription so the first delivery is not missed.
    let feed = mon.broker().subscribe(
        TopicFilter::new("gateway/updates/#"),
        64,
        BackpressurePolicy::DropOldest,
    );

    // The admin's standing subscription: system power, delivered
    // incrementally on every tick.
    let ops = Consumer::admin("ops-dashboard");
    let sub_id = mon
        .subscribe(
            &ops,
            QueryRequest::Series {
                key: SeriesKey::new(metrics.system_power, CompId::SYSTEM),
                range: TimeRange::all(),
            },
            "gateway/updates/system-power",
        )
        .expect("gateway configured")
        .expect("subscribe");

    // Both principals hammer the gateway concurrently with the same
    // question: "who is drawing the most power right now?"
    let at = Ts::from_mins(18);
    let request = QueryRequest::TopComponentsAt {
        metric: metrics.node_power,
        at,
        tolerance_ms: MINUTE_MS,
        limit: 6,
    };
    let admin_view = {
        let gw = gw.clone();
        let req = request.clone();
        std::thread::spawn(move || gw.query(&Consumer::admin("ops-dashboard"), req))
    };
    let user_view = {
        let gw = gw.clone();
        let req = request.clone();
        std::thread::spawn(move || gw.query(&Consumer::user("portal-bob", "bob"), req))
    };
    let admin_view = admin_view.join().unwrap().expect("admin query");
    let user_view = user_view.join().unwrap().expect("user query");

    println!("=== top power draw at {at} (same request, two principals) ===");
    print_ranked("admin ops-dashboard", &admin_view);
    print_ranked("user  portal-bob   ", &user_view);

    // The user's per-job view: allowed for their own job, denied for bob's.
    let alice_job = QueryRequest::JobSeries { job_id: alice_job_id.0, metric: metrics.node_cpu };
    match gw.query(&Consumer::user("portal-alice", "alice"), alice_job) {
        Ok(QueryResponse::Job(js)) => println!(
            "\nalice's job view: {} nodes, mean cpu {:.1}%",
            js.per_node.len(),
            js.mean.last().map(|&(_, v)| v).unwrap_or(0.0)
        ),
        other => println!("\nalice's job view: unexpected {other:?}"),
    }
    let bobs_job = QueryRequest::JobSeries { job_id: bob_job_id.0, metric: metrics.node_cpu };
    match gw.query(&Consumer::user("portal-alice", "alice"), bobs_job) {
        Err(e) => println!("alice asking for bob's job: {e}"),
        Ok(_) => println!("alice asking for bob's job: unexpectedly allowed"),
    }

    // Dashboards refresh: the same ranked request three more times is
    // three epoch-keyed cache hits, no re-evaluation.
    for _ in 0..3 {
        gw.query(&ops, request.clone()).expect("cached refresh");
    }

    // Let the subscription deliver a few ticks' worth of updates.
    mon.run_ticks(5);
    println!("\n=== standing subscription: gateway/updates/system-power ===");
    for env in feed.drain() {
        if let Payload::Raw(bytes) = &env.payload {
            let update: SubscriptionUpdate = serde_json::from_slice(bytes).expect("decode");
            if let QueryResponse::Points(pts) = &update.result {
                println!(
                    "  tick {}: {} new point(s), latest {:.0} W",
                    update.tick,
                    pts.len(),
                    pts.last().map(|&(_, v)| v).unwrap_or(0.0)
                );
            }
        }
    }
    gw.unsubscribe(sub_id);

    // The gateway watches itself: its counters and gauges are collected
    // into the store as hpcmon.self.gateway.* series each tick.
    println!("\n=== hpcmon.self.gateway.* (from the store) ===");
    let engine = mon.query();
    for name in [
        "hpcmon.self.gateway.queries",
        "hpcmon.self.gateway.cache.hits",
        "hpcmon.self.gateway.cache.misses",
        "hpcmon.self.gateway.cache.hit_ratio",
        "hpcmon.self.gateway.shed.rate_limited",
        "hpcmon.self.gateway.denied.access",
        "hpcmon.self.gateway.eval.p95_ms",
        "hpcmon.self.gateway.subscriptions.delivered",
    ] {
        let Some(id) = mon.registry().lookup(name) else { continue };
        let pts = engine.series(SeriesKey::new(id, CompId::SYSTEM), TimeRange::all());
        let total: f64 = pts.iter().map(|&(_, v)| v).sum();
        let last = pts.last().map(|&(_, v)| v).unwrap_or(0.0);
        println!("  {name:<44} sum={total:>8.2}  last={last:>8.2}");
    }
    let stats = gw.cache_stats();
    println!(
        "\ncache: {} hits / {} misses / {} invalidated by store epoch changes",
        stats.hits, stats.misses, stats.invalidated
    );
}

fn print_ranked(who: &str, resp: &QueryResponse) {
    if let QueryResponse::Ranked(rows) = resp {
        let rendered: Vec<String> =
            rows.iter().map(|(comp, w)| format!("{comp}={w:.0}W")).collect();
        println!("  {who}: {}", rendered.join("  "));
    }
}
