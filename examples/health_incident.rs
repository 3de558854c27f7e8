//! Health-plane incident walkthrough: a staggered fault schedule drives
//! the SLO/alerting plane (DESIGN.md §13) through two incidents — a
//! broker topic stall and a store shard write outage — and prints the
//! canonical alert timeline plus operator board renders at key ticks.
//!
//! Everything printed is deterministic: CI runs this twice and diffs the
//! transcripts byte for byte (exemplar trace ids ride wall-clock stage
//! timings, so the transcript zeroes them, exactly as the canonical
//! timeline does).  The example also self-checks the off-is-off contract:
//! the same run without the health plane must leave stored bytes and the
//! signal journal bit-identical.
//!
//! ```sh
//! cargo run --release --example health_incident
//! ```

use hpcmon::health::HealthConfig;
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_chaos::{ChaosFault, ChaosPlan};
use hpcmon_metrics::{SeriesKey, Ts};
use hpcmon_viz::render_health_board;

const TICKS: u64 = 80;
const SEED: u64 = 2018;
const BOARD_TICKS: [u64; 3] = [6, 32, 80];

fn quiet_injected_panics() {
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
}

/// Two incidents, spaced so the first resolves before the second begins.
fn incident_plan() -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    plan.schedule(4, ChaosFault::BrokerTopicStall { topic: "metrics/frame".into(), ticks: 2 });
    plan.schedule(30, ChaosFault::StoreWriteFail { shard: 0, ticks: 3 });
    plan
}

fn builder(health: bool) -> MonitoringSystem {
    let mut b = MonitoringSystem::builder(SimConfig::small())
        .self_telemetry(false)
        .chaos(SEED, incident_plan());
    if health {
        b = b.health(HealthConfig::standard());
    }
    b.build()
}

fn dump_store(mon: &MonitoringSystem) -> Vec<(SeriesKey, Vec<(Ts, f64)>)> {
    mon.store()
        .all_series()
        .into_iter()
        .map(|k| (k, mon.store().query(k, Ts::ZERO, Ts(u64::MAX))))
        .collect()
}

fn main() {
    quiet_injected_panics();
    let mut mon = builder(true);
    mon.set_state_hashing(true);
    println!("=== health incident walkthrough: {TICKS} ticks, seed {SEED} ===");
    for tick in 1..=TICKS {
        mon.tick();
        if BOARD_TICKS.contains(&tick) {
            // Exemplar trace ids are wall-clock observability, not
            // deterministic state — zero them for the diffable render.
            let mut rep = mon.health_report().expect("health is on");
            for alert in &mut rep.active {
                alert.exemplar_trace = 0;
            }
            println!("\n{}", render_health_board(&rep));
        }
    }

    println!("\n--- canonical alert timeline ---");
    print!("{}", mon.health_timeline());

    let firing = mon.alert_events().iter().filter(|e| e.key.contains('/')).count();
    assert!(firing >= 12, "two incidents page four alert episodes, three transitions each");
    let rep = mon.health_report().expect("health is on");
    assert!(rep.active.is_empty(), "everything resolved by tick {TICKS}");

    // Off is off: the monitored data plane is bit-identical without the
    // health plane.
    let mut off = builder(false);
    off.run_ticks(TICKS);
    assert_eq!(dump_store(&off), dump_store(&mon), "stored bytes identical with health off");
    assert_eq!(off.signals(), mon.signals(), "signal journal identical with health off");
    println!("\noff-is-off: store and signal journal bit-identical without the health plane");

    // The state-hash chain (health digest included) is reproducible: CI
    // diffs this line between two runs.
    let h = mon.last_state_hash().expect("hashing on");
    println!(
        "state hash @ tick {}: combined {:#018x} (pipeline {:#018x})",
        h.tick, h.combined, h.pipeline
    );
    println!("OK");
}
