//! Ablation: collector supervision and the store-ingest circuit breaker.
//!
//! PR 5's survival machinery (per-collector supervisors, the breaker +
//! spill queue, coverage stamping) sits on the hot tick path, so it must
//! be close to free when nothing is failing.  Two claims:
//!
//! 1. Cost: with supervision ON but no chaos plan, tick throughput stays
//!    within ~2% of the unsupervised pipeline.  The ratio is printed, not
//!    asserted — CI containers time too noisily for a hard 2% gate; the
//!    number is the artifact.
//! 2. Neutrality: supervision with no faults changes *nothing* — reports,
//!    signals, and every stored bit match the unsupervised run exactly.
//!    This one IS asserted: a supervisor that perturbs healthy results is
//!    a bug regardless of what the clock says.
//!
//! A third section runs a dense chaos schedule to show what the overhead
//! buys: faults surface as deadman gaps, frames spill and drain, and the
//! plane heals back to 100% coverage.

use criterion::{criterion_group, criterion_main, Criterion};
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{BreakerState, ChaosFault, ChaosPlan, ScheduledFault};
use hpcmon_metrics::Ts;
use hpcmon_sim::TopologySpec;
use std::time::Instant;

fn big_config() -> SimConfig {
    SimConfig {
        topology: TopologySpec::Torus3D { dims: [16, 16, 8], nodes_per_router: 2 },
        ..SimConfig::small()
    }
}

fn build(supervised: bool) -> MonitoringSystem {
    MonitoringSystem::builder(big_config()).self_telemetry(false).supervision(supervised).build()
}

fn chaos_plan() -> ChaosPlan {
    ChaosPlan::from_faults(vec![
        ScheduledFault {
            at_tick: 2,
            fault: ChaosFault::CollectorHang { collector: "power".into(), ticks: 2 },
        },
        ScheduledFault { at_tick: 4, fault: ChaosFault::StoreWriteFail { shard: 0, ticks: 2 } },
        ScheduledFault { at_tick: 5, fault: ChaosFault::EnvelopeCorrupt { rate: 0.5, ticks: 3 } },
    ])
}

fn ticks_per_sec(supervised: bool, ticks: u64) -> f64 {
    let mut mon = build(supervised);
    mon.run_ticks(2); // warm-up: registries populated, stores primed
    let start = Instant::now();
    mon.run_ticks(ticks);
    ticks as f64 / start.elapsed().as_secs_f64()
}

/// Bit-exact digest of everything a run produced.
fn digest(mon: &MonitoringSystem) -> Vec<(String, Vec<(u64, u64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| {
            let pts = mon
                .store()
                .query(k, Ts::ZERO, Ts(u64::MAX))
                .into_iter()
                .map(|(t, v)| (t.0, v.to_bits()))
                .collect();
            (format!("{k:?}"), pts)
        })
        .collect()
}

fn print_capability() {
    println!("\n=== Ablation: supervision + ingest breaker (4,096 nodes) ===");

    // Neutrality first: supervision with no chaos plan must be invisible.
    let mut plain = build(false);
    let mut supervised = build(true);
    let reports_plain: Vec<_> = (0..4).map(|_| plain.tick()).collect();
    let reports_sup: Vec<_> = (0..4).map(|_| supervised.tick()).collect();
    assert_eq!(reports_plain, reports_sup, "supervised TickReports must equal unsupervised");
    assert_eq!(plain.signals(), supervised.signals(), "signal streams must be identical");
    assert_eq!(digest(&plain), digest(&supervised), "store contents must be bit-identical");
    println!("  neutrality: supervision on == off, bit-for-bit (reports, signals, store)");

    // Best-of-N throughput: a single timing is at the mercy of whatever
    // else the machine is doing; best-of converges on the undisturbed
    // cost of each configuration.
    const TICKS: u64 = 6;
    const ROUNDS: usize = 3;
    let mut t_plain = f64::MIN;
    let mut t_sup = f64::MIN;
    for _ in 0..ROUNDS {
        t_plain = t_plain.max(ticks_per_sec(false, TICKS));
        t_sup = t_sup.max(ticks_per_sec(true, TICKS));
    }
    let overhead_pct = (t_plain / t_sup - 1.0) * 100.0;
    println!("  unsupervised:        {t_plain:8.2} ticks/s");
    println!("  supervised, no chaos:{t_sup:8.2} ticks/s");
    println!("  supervision overhead: {overhead_pct:+.2}% (target: <= 2%)");

    // What the overhead buys: a faulted run that heals itself.
    let mut mon = MonitoringSystem::builder(big_config())
        .self_telemetry(false)
        .chaos(42, chaos_plan())
        .build();
    mon.run_ticks(16);
    let counts = mon.chaos_counts().unwrap();
    assert_eq!(mon.quarantined_collectors(), 0, "collector re-admitted after the hang");
    assert_eq!(mon.breaker_state(), BreakerState::Closed, "breaker closed after the outage");
    assert_eq!(mon.spill_depth(), 0, "spill drained");
    assert_eq!(mon.spill_dropped(), 0, "no frames lost");
    println!(
        "  under chaos ({} faults injected): healed to {:.0}% coverage, 0 frames dropped",
        counts.total(),
        mon.last_coverage().map(|c| c.pct()).unwrap_or(0.0),
    );
}

fn bench(c: &mut Criterion) {
    print_capability();
    let mut group = c.benchmark_group("abl_chaos");
    group.sample_size(10);
    for (label, supervised) in [("unsupervised", false), ("supervised_no_chaos", true)] {
        group.bench_function(format!("tick_4096_nodes_{label}"), |b| {
            b.iter_with_setup(
                || {
                    let mut mon = build(supervised);
                    mon.run_ticks(1);
                    mon
                },
                |mut mon| mon.run_ticks(3),
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
