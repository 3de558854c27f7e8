//! Behaviour fingerprints recorded from the build at ddb69d5 — the last one
//! that still had the row `Frame` and three copies of collect / ingest /
//! detect in `tick()`.  Each constant folds all 64 per-tick
//! `TickStateHash::combined` values **and** every stored point of every
//! series (the store sub-hash is counter-based, so the contents are hashed
//! separately).  Self-telemetry is off: its series carry wall-clock values.
//!
//! A change that keeps these constants kept the pipeline's observable
//! behaviour; a change that moves one must say why.

use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_federation::{Federation, FederationConfig, SiteSpec};
use hpcmon_metrics::{StateHash, Ts};
use hpcmon_sim::{AppProfile, FaultKind, JobSpec, TopologySpec};

const TICKS: u64 = 64;

fn with_jobs_and_crash(mut mon: MonitoringSystem) -> MonitoringSystem {
    mon.submit_job(JobSpec::new(
        AppProfile::checkpointing("climate"),
        "bob",
        32,
        40 * 60_000,
        Ts::ZERO,
    ));
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil"),
        "alice",
        16,
        20 * 60_000,
        Ts::from_mins(3),
    ));
    mon.schedule_fault(Ts::from_mins(9), FaultKind::NodeCrash { node: 7 });
    mon
}

/// Run 64 hashed ticks; returns the fold of the hash chain plus every
/// stored point, bit for bit, the deepest ingest spill seen on the way and
/// the lowest frame coverage.
fn fingerprint(mon: &mut MonitoringSystem) -> (u64, usize, f64) {
    mon.set_state_hashing(true);
    let mut h = StateHash::new(0xF1);
    let mut deepest_spill = 0;
    let mut lowest_coverage = f64::INFINITY;
    for _ in 0..TICKS {
        mon.tick();
        deepest_spill = deepest_spill.max(mon.spill_depth());
        lowest_coverage = lowest_coverage.min(mon.last_coverage().expect("stamped").pct());
        h.u64(mon.last_state_hash().expect("hashing is on").combined);
    }
    for key in mon.store().all_series() {
        h.u64(key.metric.0 as u64).u64(key.comp.kind as u64).u64(key.comp.index as u64);
        for (ts, v) in mon.store().query(key, Ts::ZERO, Ts(u64::MAX)) {
            h.u64(ts.0).f64(v);
        }
    }
    (h.finish(), deepest_spill, lowest_coverage)
}

/// Re-pinned when supervision became unconditional: the pipeline sub-hash
/// now folds a real coverage bitmap and `ever_contributed` where it folded
/// `u64::MAX` and an all-false vector.  Every other sub-hash, every
/// `TickReport` and the store dump are the previous build's, tick for tick.
#[test]
fn default_pipeline_matches_parent_build() {
    let mon = MonitoringSystem::builder(SimConfig::small()).self_telemetry(false).build();
    let (hash, _, lowest_coverage) = fingerprint(&mut with_jobs_and_crash(mon));
    assert_eq!(lowest_coverage, 100.0, "every collector reported on every tick");
    assert_eq!(hash, DEFAULT_FINGERPRINT);
}

/// Every branch the unified stages fold in: a collector panic and a
/// slow-over-budget discard (collect), a shard write-fault
/// window long enough that results frames queue behind spilled raw frames
/// and drain in arrival order (breaker-fronted ingest), a topic stall and
/// envelope corruption (transport).  (Named before PR 20 deleted the worker
/// pool; the test floor tracks names, so the name stays.)  Re-pinned when
/// the gateway's worker pool went: the chaos digest no longer folds the
/// pending and delivered worker-death counts.  The pin was taken from the
/// previous build with only those two words removed from the digest.
#[test]
fn chaos_pipeline_matches_parent_build_at_any_worker_count() {
    // Injected collector panics are expected; keep real ones loud.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected collector panic"));
        if !injected {
            default(info);
        }
    }));
    let at = |at_tick, fault| ScheduledFault { at_tick, fault };
    let plan = ChaosPlan::from_faults(vec![
        at(4, ChaosFault::CollectorPanic { collector: "power".into() }),
        at(9, ChaosFault::CollectorSlow { collector: "fs".into(), factor: 16.0, ticks: 3 }),
        at(14, ChaosFault::StoreWriteFail { shard: 0, ticks: 6 }),
        at(26, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 3 }),
        at(34, ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 6 }),
        at(44, ChaosFault::StoreWriteFail { shard: 3, ticks: 2 }),
    ]);
    let mut mon = with_jobs_and_crash(
        MonitoringSystem::builder(SimConfig::small())
            .self_telemetry(false)
            .chaos(2018, plan)
            .build(),
    );
    let (hash, deepest_spill, _) = fingerprint(&mut mon);
    // The write-fault window really did park results behind raw frames.
    assert!(deepest_spill >= 4, "spill held raw + results frames: {deepest_spill}");
    assert_eq!(mon.spill_depth(), 0, "spill drained");
    assert_eq!(mon.spill_dropped(), 0, "no overflow in this plan");
    let counts = mon.chaos_counts().expect("chaos is on");
    assert!(counts.collector_panic >= 1 && counts.collector_slow >= 1);
    assert!(counts.topic_stall >= 1 && counts.envelope_corrupt >= 1);
    assert!(counts.store_write_fail >= 2);
    assert_eq!(hash, CHAOS_FINGERPRINT);
}

/// Three skewed sites behind WAN links, one partitioned for a while: the
/// federation head's store (site rollups + totals) is what the row
/// `Frame` used to carry.
#[test]
fn federation_head_store_matches_parent_build() {
    let site = |i: u64| {
        let mut cfg = SimConfig::small();
        cfg.topology = TopologySpec::Torus3D { dims: [2, 2, 2], nodes_per_router: 2 };
        cfg.seed = 100 + i;
        SiteSpec::new(format!("site{i}"), cfg).epoch_offset_ticks(i * 5)
    };
    let plan = ChaosPlan::from_faults(vec![ScheduledFault {
        at_tick: 10,
        fault: ChaosFault::WanPartition { site: "site1".into(), ticks: 12 },
    }]);
    let mut fed =
        Federation::new(FederationConfig::new((0..3).map(site).collect()).link_plan(7, plan));
    fed.run_ticks(TICKS);
    let mut h = StateHash::new(0xFE);
    for (name, points) in fed.canonical_store() {
        h.str(&name);
        for (ts, bits) in points {
            h.u64(ts).u64(bits);
        }
    }
    assert_eq!(h.finish(), FEDERATION_FINGERPRINT);
}

const DEFAULT_FINGERPRINT: u64 = 5051462296141442738;
const CHAOS_FINGERPRINT: u64 = 11318218868634069948;
const FEDERATION_FINGERPRINT: u64 = 16732624631793705389;
