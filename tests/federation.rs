//! Federation integration suite: scatter-gather vs a merged-cluster
//! oracle, partition provenance, clock-skew alignment, deadline shedding,
//! and bit-identity between two runs of one seed
//! (`bit_identity_across_worker_counts`: named before PR 20 deleted the
//! worker pool; the test floor tracks names, so the name stays).

use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_federation::{
    site_comp, FedResponse, Federation, FederationConfig, SiteSpec, SiteStatus, WanLinkSpec,
};
use hpcmon_gateway::QueryRequest;
use hpcmon_metrics::{CompId, SeriesKey, Ts};
use hpcmon_response::Consumer;
use hpcmon_sim::{SimConfig, TopologySpec};
use hpcmon_store::{AggFn, TimeRange};
use std::collections::BTreeMap;

/// A small member-site machine: 16 nodes so multi-site suites stay fast.
fn site_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.topology = TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 2 };
    cfg.seed = seed;
    cfg
}

fn sites(n: usize) -> Vec<SiteSpec> {
    (0..n).map(|i| SiteSpec::new(format!("site{i}"), site_config(100 + i as u64))).collect()
}

fn admin() -> Consumer {
    Consumer::admin("fed-dashboard")
}

#[test]
fn scatter_gather_matches_merged_cluster_oracle() {
    let mut fed = Federation::new(FederationConfig::new(sites(3)));
    fed.run_ticks(20);

    // Oracle 1: the global power aggregate, computed straight off the
    // member stores (one System series per site, summed per timestamp).
    let metric = fed.site_system(0).metrics().system_power;
    let mut oracle: BTreeMap<Ts, f64> = BTreeMap::new();
    for i in 0..fed.num_sites() {
        let key = SeriesKey::new(metric, CompId::SYSTEM);
        for (ts, v) in fed.site_system(i).store().query(key, Ts::ZERO, Ts(u64::MAX)) {
            *oracle.entry(ts).or_insert(0.0) += v;
        }
    }
    let request =
        QueryRequest::AggregateAcross { metric, range: TimeRange::all(), agg: AggFn::Sum };
    let result = fed.federated_query(&admin(), &request, 1_000);
    assert!(result.complete(), "no faults: every site answers");
    match &result.merged {
        FedResponse::Points(points) => {
            assert_eq!(points.len(), oracle.len());
            for (got, want) in points.iter().zip(oracle.iter()) {
                assert_eq!(got.0, *want.0);
                assert!((got.1 - want.1).abs() < 1e-9, "sum mismatch at {:?}", got.0);
            }
        }
        other => panic!("expected merged points, got {other:?}"),
    }

    // Oracle 2: global top-k CPU — per-site rankings combined and
    // re-sorted must equal the federated merge (with site attribution).
    let cpu = fed.site_system(0).metrics().node_cpu;
    let at = Ts(20 * fed.tick_ms());
    let mut rows: Vec<(usize, u32, f64)> = Vec::new();
    for i in 0..fed.num_sites() {
        for (comp, v) in fed.site_system(i).query().top_components_at(cpu, at, 1_000, 1_000) {
            rows.push((i, comp.index, v));
        }
    }
    rows.sort_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    rows.truncate(10);
    let request = QueryRequest::TopComponentsAt { metric: cpu, at, tolerance_ms: 1_000, limit: 10 };
    let result = fed.federated_query(&admin(), &request, 1_000);
    match &result.merged {
        FedResponse::Ranked(ranked) => {
            assert_eq!(ranked.len(), rows.len());
            for (got, want) in ranked.iter().zip(rows.iter()) {
                assert_eq!(got.site, format!("site{}", want.0));
                assert_eq!(got.comp.index, want.1);
                assert_eq!(got.value.to_bits(), want.2.to_bits());
            }
        }
        other => panic!("expected merged ranking, got {other:?}"),
    }
}

#[test]
fn partition_yields_partial_result_with_provenance() {
    let partitioned = ["site2", "site5", "site7"];
    let plan = ChaosPlan::from_faults(
        partitioned
            .iter()
            .map(|site| ScheduledFault {
                at_tick: 5,
                fault: ChaosFault::WanPartition { site: site.to_string(), ticks: 20 },
            })
            .collect(),
    );
    let mut fed = Federation::new(FederationConfig::new(sites(10)).link_plan(7, plan));
    fed.run_ticks(8);

    let cpu = fed.site_system(0).metrics().node_cpu;
    let request = QueryRequest::TopComponentsAt {
        metric: cpu,
        at: Ts(8 * fed.tick_ms()),
        tolerance_ms: 1_000,
        limit: 5,
    };
    let result = fed.federated_query(&admin(), &request, 1_000);

    assert!(!result.complete());
    assert_eq!(result.unreachable_sites(), partitioned.to_vec());
    assert_eq!(result.outcomes.len(), 10, "every site accounted for");
    for outcome in &result.outcomes {
        if partitioned.contains(&outcome.site.as_str()) {
            assert_eq!(outcome.status, SiteStatus::Partitioned, "{}", outcome.site);
        } else {
            assert_eq!(outcome.status, SiteStatus::Answered, "{}", outcome.site);
        }
    }
    match &result.merged {
        FedResponse::Ranked(rows) => {
            assert!(!rows.is_empty(), "partial result still carries data");
            assert!(rows.iter().all(|r| !partitioned.contains(&r.site.as_str())));
        }
        other => panic!("expected ranking, got {other:?}"),
    }
    assert_eq!(fed.wan_counts().partition, 3);
}

#[test]
fn bit_identity_across_worker_counts() {
    let plan = || {
        ChaosPlan::from_faults(vec![
            ScheduledFault {
                at_tick: 4,
                fault: ChaosFault::WanPartition { site: "site0".into(), ticks: 3 },
            },
            ScheduledFault {
                at_tick: 6,
                fault: ChaosFault::WanDelay { site: "site1".into(), added_ticks: 2, ticks: 5 },
            },
            ScheduledFault {
                at_tick: 10,
                fault: ChaosFault::WanBandwidth {
                    site: "site1".into(),
                    bytes_per_tick: 64,
                    ticks: 4,
                },
            },
        ])
    };
    let run = || {
        let mut fed = Federation::new(FederationConfig::new(sites(3)).link_plan(11, plan()));
        fed.run_ticks(25);
        let metric = fed.site_system(0).metrics().system_power;
        let request =
            QueryRequest::AggregateAcross { metric, range: TimeRange::all(), agg: AggFn::Sum };
        let answer = fed.federated_query(&admin(), &request, 1_000);
        (fed.canonical_store(), serde_json::to_string(&answer).expect("serializable"))
    };
    let (store_a, answer_a) = run();
    let (store_b, answer_b) = run();
    assert_eq!(store_a, store_b, "rollup stores must be bit-identical");
    assert_eq!(answer_a, answer_b, "federated answers must be bit-identical");
}

#[test]
fn clock_skew_is_aligned_not_interleaved() {
    const SKEW_TICKS: u64 = 5;
    let mut specs = sites(2);
    specs[1] = specs[1].clone().epoch_offset_ticks(SKEW_TICKS);
    let mut fed = Federation::new(FederationConfig::new(specs));
    fed.run_ticks(10);
    let tick_ms = fed.tick_ms();

    // The skew is real: site1's store runs on its own clock, ahead of
    // site0 by SKEW_TICKS ticks.  A naive merge interleaving raw
    // site-local timestamps would mis-order these samples.
    let metric = fed.site_system(0).metrics().system_power;
    let key = SeriesKey::new(metric, CompId::SYSTEM);
    let raw0 = fed.site_system(0).store().query(key, Ts::ZERO, Ts(u64::MAX));
    let raw1 = fed.site_system(1).store().query(key, Ts::ZERO, Ts(u64::MAX));
    assert_eq!(raw0.first().unwrap().0, Ts(tick_ms));
    assert_eq!(raw1.first().unwrap().0, Ts((SKEW_TICKS + 1) * tick_ms));

    // Naive merge would see 20 distinct timestamps; the aligned merge
    // sees 10, one per federation tick, each the sum of both sites.
    let request =
        QueryRequest::AggregateAcross { metric, range: TimeRange::all(), agg: AggFn::Sum };
    let result = fed.federated_query(&admin(), &request, 1_000);
    assert!(result.complete());
    match &result.merged {
        FedResponse::Points(points) => {
            assert_eq!(points.len(), 10, "one aligned point per tick, not an interleaving");
            for (i, (ts, v)) in points.iter().enumerate() {
                assert_eq!(*ts, Ts((i as u64 + 1) * tick_ms));
                let want = raw0[i].1 + raw1[i].1;
                assert!((v - want).abs() < 1e-9, "aligned sum at tick {}", i + 1);
            }
        }
        other => panic!("expected points, got {other:?}"),
    }

    // Rollups align too: both sites' fed series share the same fed-time
    // timestamps in the rollup store.
    let ids = fed.metric_ids();
    let ts_of = |comp: CompId| -> Vec<u64> {
        fed.store()
            .query(SeriesKey::new(ids.power_w, comp), Ts::ZERO, Ts(u64::MAX))
            .into_iter()
            .map(|(t, _)| t.0)
            .collect()
    };
    let t0 = ts_of(site_comp(0));
    let t1 = ts_of(site_comp(1));
    assert!(!t0.is_empty());
    assert_eq!(t0, t1, "rollup timestamps re-aligned to federation time");
}

#[test]
fn deadline_budget_sheds_slow_site() {
    let mut specs = sites(3);
    specs[2] = specs[2].clone().link(WanLinkSpec {
        latency_ticks: 5,
        bandwidth_bytes_per_tick: None,
        max_backlog: 64,
    });
    let mut fed = Federation::new(FederationConfig::new(specs));
    fed.run_ticks(10);

    let metric = fed.site_system(0).metrics().system_power;
    let request =
        QueryRequest::AggregateAcross { metric, range: TimeRange::all(), agg: AggFn::Sum };
    // Budget 4 ticks: site2's round trip is 10 ticks — shed, with the
    // arithmetic in the provenance.
    let result = fed.federated_query(&admin(), &request, 4);
    assert_eq!(result.outcomes[0].status, SiteStatus::Answered);
    assert_eq!(result.outcomes[1].status, SiteStatus::Answered);
    assert_eq!(result.outcomes[2].status, SiteStatus::TimedOut { rtt_ticks: 10, budget_ticks: 4 });
    assert_eq!(result.unreachable_sites(), vec!["site2"]);
    assert_eq!(fed.deadline_shed(), 1);

    // The shed shows up on the federation's own telemetry series after
    // the next tick publishes self series.
    fed.tick();
    let ids = fed.metric_ids();
    let series = fed.store().query(
        SeriesKey::new(ids.self_deadline_shed, CompId::SYSTEM),
        Ts::ZERO,
        Ts(u64::MAX),
    );
    assert_eq!(series.last().map(|(_, v)| *v), Some(1.0));
}

#[test]
fn rollups_cross_the_wan_with_latency_and_stay_o_sites() {
    let mut specs = sites(2);
    specs[1] = specs[1].clone().link(WanLinkSpec {
        latency_ticks: 3,
        bandwidth_bytes_per_tick: None,
        max_backlog: 64,
    });
    let mut fed = Federation::new(FederationConfig::new(specs));
    let ids = fed.metric_ids();

    fed.run_ticks(2);
    let series_for = |fed: &Federation, i: usize| {
        fed.store().query(SeriesKey::new(ids.power_w, site_comp(i)), Ts::ZERO, Ts(u64::MAX)).len()
    };
    assert!(series_for(&fed, 0) > 0, "1-tick link has delivered");
    assert_eq!(series_for(&fed, 1), 0, "3-tick link still in flight");
    fed.run_ticks(3);
    assert!(series_for(&fed, 1) > 0, "slow link catches up");
    assert_eq!(
        fed.rollups_delivered(),
        fed.store().query(SeriesKey::new(ids.power_w, site_comp(0)), Ts::ZERO, Ts(u64::MAX)).len()
            as u64
            + series_for(&fed, 1) as u64
    );

    // The point of the rollup plane: the federation store holds O(sites)
    // series while each member store holds O(nodes).
    let fed_series = fed.store().all_series().len();
    let site_series = fed.site_system(0).store().all_series().len();
    assert!(
        fed_series < site_series / 2,
        "fed store has {fed_series} series vs {site_series} per member"
    );
}

/// WAN link state is republished as `hpcmon.self.fed.wan.*` gauges (one
/// series per member site), and with the head-level health plane on, a
/// WAN partition pages the per-site `federation/wan-delivery` SLO with
/// deterministic tick stamps and a per-site rollup row on the board.
#[test]
fn wan_telemetry_and_head_health_page_on_partition() {
    use hpcmon_health::Transition;
    let plan = ChaosPlan::from_faults(vec![ScheduledFault {
        at_tick: 4,
        fault: ChaosFault::WanPartition { site: "site1".into(), ticks: 4 },
    }]);
    let mut fed = Federation::new(FederationConfig::new(sites(2)).link_plan(3, plan).health(true));
    fed.run_ticks(30);

    // Every link publishes all three gauges every tick, per site comp.
    let ids = fed.metric_ids();
    for i in 0..2 {
        for metric in [ids.wan_backlog_depth, ids.wan_link_dropped, ids.wan_latency_ticks] {
            let pts =
                fed.store().query(SeriesKey::new(metric, site_comp(i)), Ts::ZERO, Ts(u64::MAX));
            assert_eq!(pts.len(), 30, "{} at site{i} publishes every tick", metric.0);
        }
    }
    // The partition is visible in the gauge: site1's backlog peak (the
    // queue behind the cut link) clears the healthy link's steady-state
    // in-flight depth.
    let peak = |i: usize| {
        fed.store()
            .query(SeriesKey::new(ids.wan_backlog_depth, site_comp(i)), Ts::ZERO, Ts(u64::MAX))
            .into_iter()
            .fold(0.0f64, |m, (_, v)| m.max(v))
    };
    assert!(peak(1) > peak(0), "partition queues rollups: {} vs {}", peak(1), peak(0));

    // Head health pages exactly one per-site episode, with exact stamps
    // for onset (the partition lands at tick 4, confirms at 5).
    let eps: Vec<(u64, Transition)> = fed
        .alert_events()
        .iter()
        .filter(|e| e.key == "federation/wan-delivery@site1")
        .map(|e| (e.tick, e.transition))
        .collect();
    assert_eq!(eps[0], (4, Transition::Pending), "{}", fed.health_timeline());
    assert_eq!(eps[1], (5, Transition::Firing));
    assert_eq!(eps.len(), 3, "one episode: {}", fed.health_timeline());
    let (resolved_tick, t) = eps[2];
    assert_eq!(t, Transition::Resolved);
    assert!((10..=20).contains(&resolved_tick), "resolves after the window clears");
    assert!(
        !fed.alert_events().iter().any(|e| e.key.ends_with("@site0")),
        "the healthy site never pages"
    );

    // The operator board carries one rollup row per site.
    let rep = fed.health_report().expect("health is on");
    let row = |name: &str| rep.sites.iter().find(|s| s.site == name).expect("site row");
    assert_eq!(rep.sites.len(), 2);
    assert_eq!(row("site1").firing, 0, "resolved by tick 30");
    assert_eq!(row("site0").firing, 0);
}
