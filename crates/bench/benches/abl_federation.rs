//! Ablation: the federated scatter-gather query plane.
//!
//! Builds federations of 4, 10, and 25 member sites and measures the cost
//! of a global query answered by scattering to every member gateway and
//! merging centrally, against the baseline of the same query against one
//! member gateway directly.  Also reports the rollup-plane alternative: a
//! global dashboard read off the federation's O(sites) rollup store, which
//! does not touch member gateways at all.  The claim under test: federated
//! answers cost O(sites) over the single-site baseline, and partial
//! results under partition cost no more than complete ones.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_federation::{Federation, FederationConfig, SiteSpec};
use hpcmon_gateway::QueryRequest;
use hpcmon_metrics::Ts;
use hpcmon_response::Consumer;
use hpcmon_sim::{SimConfig, TopologySpec};
use hpcmon_store::{AggFn, TimeRange};
use std::time::Instant;

const WARM_TICKS: u64 = 30;

fn federation(num_sites: usize, partition_three: bool) -> Federation {
    let sites: Vec<SiteSpec> = (0..num_sites)
        .map(|i| {
            let mut cfg = SimConfig::small();
            cfg.topology = TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 2 };
            cfg.seed = 500 + i as u64;
            SiteSpec::new(format!("site{i:02}"), cfg)
        })
        .collect();
    let plan = if partition_three {
        ChaosPlan::from_faults(
            (0..3)
                .map(|i| ScheduledFault {
                    at_tick: 5,
                    fault: ChaosFault::WanPartition {
                        site: format!("site{i:02}"),
                        ticks: WARM_TICKS * 2,
                    },
                })
                .collect(),
        )
    } else {
        ChaosPlan::new()
    };
    let mut fed = Federation::new(FederationConfig::new(sites).link_plan(13, plan));
    fed.run_ticks(WARM_TICKS);
    fed
}

fn top_cpu(fed: &Federation) -> QueryRequest {
    QueryRequest::TopComponentsAt {
        metric: fed.site_system(0).metrics().node_cpu,
        at: Ts(WARM_TICKS * fed.tick_ms()),
        tolerance_ms: fed.tick_ms(),
        limit: 10,
    }
}

fn power_sum(fed: &Federation) -> QueryRequest {
    QueryRequest::AggregateAcross {
        metric: fed.site_system(0).metrics().system_power,
        range: TimeRange::all(),
        agg: AggFn::Sum,
    }
}

fn print_capability() {
    println!("\n=== Ablation: federated scatter-gather (vs single-site direct) ===");
    let admin = Consumer::admin("bench");
    for &n in &[4usize, 10, 25] {
        let mut fed = federation(n, false);
        let request = top_cpu(&fed);
        let direct = fed.site_system(0).gateway().unwrap().clone();
        const REPS: usize = 500;

        let t0 = Instant::now();
        for _ in 0..REPS {
            direct.plan_query(&admin, &request).unwrap();
        }
        let direct_qps = REPS as f64 / t0.elapsed().as_secs_f64();

        let mut lat_ns: Vec<u64> = Vec::with_capacity(REPS);
        let t0 = Instant::now();
        for _ in 0..REPS {
            let q0 = Instant::now();
            let result = fed.federated_query(&admin, &request, 1_000);
            lat_ns.push(q0.elapsed().as_nanos() as u64);
            assert!(result.complete());
        }
        let scatter_qps = REPS as f64 / t0.elapsed().as_secs_f64();
        lat_ns.sort_unstable();
        let p99_us = lat_ns[(REPS - 1) * 99 / 100] as f64 / 1e3;

        // Rollup-plane read: the O(sites) dashboard path.
        let engine = fed.rollup_query();
        let t0 = Instant::now();
        for _ in 0..REPS {
            let _ = engine.aggregate_across_components(
                fed.metric_ids().power_w,
                TimeRange::all(),
                AggFn::Sum,
            );
        }
        let rollup_qps = REPS as f64 / t0.elapsed().as_secs_f64();

        println!(
            "  {n:>2} sites: direct={direct_qps:>9.0} qps  scatter={scatter_qps:>8.0} qps \
             (x{:.1} cost, p99={p99_us:.0}us)  rollup-read={rollup_qps:>9.0} qps",
            direct_qps / scatter_qps,
        );
    }
    // Partial results under partition: 10 sites, 3 partitioned.
    let mut fed = federation(10, true);
    let request = top_cpu(&fed);
    let result = fed.federated_query(&admin, &request, 1_000);
    println!(
        "  partition soak: {} of 10 answered, unreachable={:?}",
        result.outcomes.iter().filter(|o| o.answered()).count(),
        result.unreachable_sites(),
    );
}

fn bench(c: &mut Criterion) {
    print_capability();
    let admin = Consumer::admin("bench");
    let mut group = c.benchmark_group("abl_federation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));

    // The same global-shaped query against one member gateway directly.
    let fed = federation(10, false);
    let request = top_cpu(&fed);
    let direct = fed.site_system(0).gateway().unwrap().clone();
    group.bench_function("direct_single_site", |b| {
        b.iter(|| direct.plan_query(&admin, &request).unwrap())
    });
    drop(fed);

    for &n in &[4usize, 10, 25] {
        let mut fed = federation(n, false);
        let request = top_cpu(&fed);
        group.bench_function(format!("scatter_topk_{n:02}_sites"), |b| {
            b.iter(|| fed.federated_query(&admin, &request, 1_000))
        });
        let request = power_sum(&fed);
        group.bench_function(format!("scatter_aggregate_{n:02}_sites"), |b| {
            b.iter(|| fed.federated_query(&admin, &request, 1_000))
        });
    }

    // The partial-result path: 10 sites with 3 partitioned must not cost
    // more than the complete scatter.
    let mut fed = federation(10, true);
    let request = top_cpu(&fed);
    group.bench_function("scatter_topk_10_sites_3_partitioned", |b| {
        b.iter(|| fed.federated_query(&admin, &request, 1_000))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
