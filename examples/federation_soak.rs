//! Federation determinism soak, built for diffing.
//!
//! Ten member sites, 300 federation ticks, and a seeded WAN fault plan
//! that partitions, delays, and bandwidth-squeezes links throughout the
//! run.  Prints a canonical JSON document: the federation rollup store
//! (every series, every point, values as exact bit patterns), a federated
//! scatter answer with its provenance, and the WAN fault/drop counters.
//!
//! CI runs this twice and byte-diffs the output — the federated answer
//! must be a pure function of the seeds and the fault plan:
//!
//! ```sh
//! cargo run --release --example federation_soak > fed_a.json
//! cargo run --release --example federation_soak > fed_b.json
//! diff fed_a.json fed_b.json
//! ```

use hpcmon::SimConfig;
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_federation::{FedQueryResult, Federation, FederationConfig, SiteSpec};
use hpcmon_gateway::QueryRequest;
use hpcmon_metrics::Ts;
use hpcmon_response::Consumer;
use hpcmon_sim::TopologySpec;
use hpcmon_store::{AggFn, TimeRange};
use serde::Serialize;

const SITES: usize = 10;
const TICKS: u64 = 300;

/// The diff surface.
#[derive(Serialize)]
struct Doc {
    store: Vec<(String, Vec<(u64, u64)>)>,
    global_power: FedQueryResult,
    top_cpu: FedQueryResult,
    rollups_delivered: u64,
    wan_dropped: u64,
    deadline_shed: u64,
    partitions_injected: u64,
    delays_injected: u64,
    bandwidth_injected: u64,
}

fn main() {
    // Ten 16-node sites: distinct seeds, staggered clock skews, one slow
    // link, one bandwidth-starved link.
    let sites: Vec<SiteSpec> = (0..SITES)
        .map(|i| {
            let mut cfg = SimConfig::small();
            cfg.topology = TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 2 };
            cfg.seed = 1000 + i as u64;
            let mut spec =
                SiteSpec::new(format!("site{i:02}"), cfg).epoch_offset_ticks((i as u64 * 3) % 7);
            if i == 4 {
                spec.link.latency_ticks = 3;
            }
            // A rollup batch meters 114 bytes: this link ships one a tick.
            if i == 7 {
                spec.link.bandwidth_bytes_per_tick = Some(200);
                spec.link.max_backlog = 8;
            }
            spec
        })
        .collect();

    // A rolling WAN fault plan: every 40 ticks some link partitions,
    // another slows down, a third gets squeezed.
    let mut faults = Vec::new();
    for round in 0u64..6 {
        let at = 20 + round * 40;
        faults.push(ScheduledFault {
            at_tick: at,
            fault: ChaosFault::WanPartition {
                site: format!("site{:02}", (round * 3) % SITES as u64),
                ticks: 15,
            },
        });
        faults.push(ScheduledFault {
            at_tick: at + 10,
            fault: ChaosFault::WanDelay {
                site: format!("site{:02}", (round * 3 + 1) % SITES as u64),
                added_ticks: 2,
                ticks: 20,
            },
        });
        faults.push(ScheduledFault {
            at_tick: at + 15,
            fault: ChaosFault::WanBandwidth {
                site: format!("site{:02}", (round * 3 + 2) % SITES as u64),
                bytes_per_tick: 100,
                ticks: 12,
            },
        });
    }
    let plan = ChaosPlan::from_faults(faults);

    let mut fed = Federation::new(FederationConfig::new(sites).link_plan(99, plan));
    fed.run_ticks(TICKS);

    let admin = Consumer::admin("soak");
    let metrics = fed.site_system(0).metrics();
    let global_power = fed.federated_query(
        &admin,
        &QueryRequest::AggregateAcross {
            metric: metrics.system_power,
            range: TimeRange::all(),
            agg: AggFn::Sum,
        },
        100,
    );
    let top_cpu = fed.federated_query(
        &admin,
        &QueryRequest::TopComponentsAt {
            metric: metrics.node_cpu,
            at: Ts(TICKS * fed.tick_ms()),
            tolerance_ms: fed.tick_ms(),
            limit: 20,
        },
        // Tight budget on purpose: the slow link (site04, 6-tick round
        // trip) must shed deterministically.
        5,
    );

    let counts = fed.wan_counts();
    let doc = Doc {
        store: fed.canonical_store(),
        global_power,
        top_cpu,
        rollups_delivered: fed.rollups_delivered(),
        wan_dropped: fed.wan_dropped(),
        deadline_shed: fed.deadline_shed(),
        partitions_injected: counts.partition,
        delays_injected: counts.delay,
        bandwidth_injected: counts.bandwidth,
    };
    println!("{}", serde_json::to_string_pretty(&doc).unwrap());
}
